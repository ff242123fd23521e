"""Shared fixtures and sampling helpers for the test suite."""

from __future__ import annotations

import random

import pytest

import selfsim as ss


def labeled_odometer():
    """Odometer with readable edge labels e0/e1, built from generator tables."""
    graph = ss.make_graph(["v"], [("e0", "v", "v"), ("e1", "v", "v")])
    return ss.integer_triple_from_generator(graph, [0], [1, 0], [0, 1], description="odometer")


@pytest.fixture(scope="session")
def odo():
    return labeled_odometer()


@pytest.fixture(scope="session")
def odo_katsura():
    return ss.odometer()


@pytest.fixture(scope="session")
def kat32():
    return ss.katsura_3_2()


@pytest.fixture(scope="session")
def kat20():
    return ss.katsura_2_0()


@pytest.fixture(scope="session")
def swap2():
    return ss.z2_swap()


@pytest.fixture(scope="session")
def machine():
    return ss.adding_machine()


def bits_value(edges):
    """Least-significant-first bit string value (odometer edge ids are bits)."""
    return sum(b << i for i, b in enumerate(edges))


def odometer_oracle(m, edges):
    """Binary addition oracle: image bits and carry-out of m + value."""
    n = len(edges)
    total = m + bits_value(edges)
    carry, rem = divmod(total, 2 ** n)
    image = tuple((rem >> i) & 1 for i in range(n))
    return image, carry


def cover_oracle(t, members, target, slack=2):
    """Brute-force cover definition, for cross-checking is_cover.

    Enumerates every nonzero idempotent below the target out to the members'
    depth plus slack and tests intersection by multiplying.
    """
    beta = target.alpha
    lengths = [len(m.alpha) for m in members if not isinstance(m, ss.Zero)]
    horizon = (max(lengths) - len(beta) if lengths else 0) + slack
    for k in range(horizon + 1):
        for delta in ss.extensions(beta, k):
            e_delta = ss.unit_idempotent(t, delta)
            if not any(
                not isinstance(ss.mul(t, e_delta, m), ss.Zero)
                for m in members
                if not isinstance(m, ss.Zero)
            ):
                return False
    return True


def paths_with_source(triple, v, max_len):
    return [p for p in ss.all_paths_upto(triple.graph, max_len) if p.source_vertex == v]


def closed_paths(triple, max_len):
    """Paths with matching endpoints, usable as cycles of infinite paths."""
    return [
        p
        for p in ss.all_paths_upto(triple.graph, max_len)
        if not p.is_vertex and p.range_vertex == p.source_vertex
    ]


def random_inf_path(rng: random.Random, triple, max_prefix=2, max_cycle=2):
    cycles = closed_paths(triple, max_cycle)
    cycle = rng.choice(cycles)
    prefixes = [
        p
        for p in ss.all_paths_upto(triple.graph, max_prefix)
        if p.source_vertex == cycle.range_vertex
    ]
    prefix = rng.choice(prefixes)
    return ss.periodic_path(triple.graph, prefix.edges, cycle.edges)


def random_germ(rng: random.Random, ctx, max_len=3):
    t = ctx.triple
    paths = ss.all_paths_upto(t.graph, max_len)
    while True:
        beta = rng.choice(paths)
        g = rng.choice(ctx.window)
        alphas = [p for p in paths if p.source_vertex == t.act_vertex(g, beta.source_vertex)]
        if not alphas:
            continue
        alpha = rng.choice(alphas)
        xis = [x for x in [random_inf_path(rng, t) for _ in range(6)] if x.range_vertex == beta.source_vertex]
        if not xis:
            continue
        return ctx.make(alpha, g, beta, xis[0])


def random_composable_pair(rng: random.Random, ctx, max_len=3, depth=64):
    """(u1, u2) with source(u1) = range(u2), built from the normal form."""
    t = ctx.triple
    u2 = random_germ(rng, ctx, max_len)
    xi1 = ss.act_inf_path(t, u2.g, u2.xi, depth)
    beta1 = u2.alpha
    g1 = rng.choice(ctx.window)
    paths = ss.all_paths_upto(t.graph, max_len)
    alphas = [p for p in paths if p.source_vertex == t.act_vertex(g1, beta1.source_vertex)]
    alpha1 = rng.choice(alphas)
    u1 = ctx.make(alpha1, g1, beta1, xi1)
    return u1, u2
