"""The unchecked path builds agree with the checked ones they replace.

Path.prefix, Path.drop, concat, complement, extensions, prefix_compare,
act_path and mul are compared with the versions in conftest, whose every
path goes through the checked Path constructor, on seeded random paths of
every spec graph.
"""

import pickle
import random

import pytest

import selfsim as ss
from conftest import (
    all_spec_triples,
    checked_act_path,
    checked_complement,
    checked_concat,
    checked_drop,
    checked_extensions,
    checked_mul,
    checked_prefix,
    checked_prefix_compare,
)
from selfsim.errors import CompositionError

TRIPLES = dict(all_spec_triples())
ACTION_SPECS = ("odometer", "katsura_3_2", "adding_machine", "grigorchuk", "z2_swap")


def random_path(rng, graph, max_len, v=None):
    """A random path of at most max_len edges with range v (random when None), built by edge_path."""
    v = rng.randrange(graph.n_vertices) if v is None else v
    edges = []
    w = v
    for _ in range(rng.randint(0, max_len)):
        into = graph.edges_into(w)
        if not into:
            break
        e = rng.choice(into)
        edges.append(e)
        w = graph.source_of[e]
    return ss.edge_path(graph, edges) if edges else ss.vertex_path(graph, v)


def assert_built_alike(got, expected):
    """got equals the oracle's path and hashes, prints and pickles like the checked build of its data."""
    assert type(got) is ss.Path
    checked = ss.edge_path(got.graph, got.edges) if got.edges else ss.vertex_path(got.graph, got.vertex)
    assert got == expected == checked and got.graph == expected.graph
    assert hash(got) == hash(expected) == hash(checked)
    assert repr(got) == repr(checked) and str(got) == str(checked)
    assert pickle.dumps(got) == pickle.dumps(checked)
    assert pickle.loads(pickle.dumps(got)) == checked


def outcome(f, *args):
    try:
        return True, f(*args)
    except (ValueError, CompositionError) as err:
        return False, (type(err), str(err))


def assert_same_outcome(f, oracle, *args):
    (ok, got), (oracle_ok, expected) = outcome(f, *args), outcome(oracle, *args)
    assert ok == oracle_ok, (args, got, expected)
    if not ok:
        assert got == expected
    elif isinstance(got, list):
        assert len(got) == len(expected)
        for p, q in zip(got, expected):  # in order
            assert_built_alike(p, q)
    elif isinstance(got, ss.PrefixRel):
        assert got is expected, args
    else:
        assert_built_alike(got, expected)


def second_operand(rng, a, others):
    """A path to pair with a: an extension, a prefix, a path from d(a), any path, or one on another graph."""
    graph = a.graph
    roll = rng.randrange(6)
    if roll == 0:
        tail = random_path(rng, graph, 3, a.source_vertex)
        return checked_concat(a, tail)
    if roll == 1:
        return checked_prefix(a, rng.randint(0, len(a)))
    if roll == 2:
        return random_path(rng, graph, 3, a.source_vertex)
    if roll == 3:
        return random_path(rng, graph, 4)
    return random_path(rng, rng.choice(others), 4)


@pytest.mark.parametrize("name", sorted(TRIPLES))
def test_path_algebra_matches_the_checked_builds(name):
    rng = random.Random(f"path-parity-{name}")
    graph = TRIPLES[name].graph
    twin = ss.Graph(graph.vertex_labels, graph.edge_labels, graph.range_of, graph.source_of)  # equal, not identical
    others = [t.graph for n, t in TRIPLES.items() if n != name] + [twin]
    for _ in range(120):
        a = random_path(rng, graph, 5)
        b = second_operand(rng, a, others)
        for x, y in ((a, b), (b, a)):
            assert_same_outcome(ss.prefix_compare, checked_prefix_compare, x, y)
            assert_same_outcome(ss.complement, checked_complement, x, y)
            assert_same_outcome(ss.concat, checked_concat, x, y)
        for n in range(-1, len(a) + 2):
            assert_same_outcome(a.prefix, lambda k: checked_prefix(a, k), n)
            assert_same_outcome(a.drop, lambda k: checked_drop(a, k), n)
        for count in (0, 1, 2, 3):
            assert_same_outcome(ss.extensions, checked_extensions, a, count)


@pytest.mark.parametrize("name", ACTION_SPECS)
def test_act_path_and_mul_match_the_checked_builds(name):
    rng = random.Random(f"action-parity-{name}")
    t = TRIPLES[name]
    graph, group = t.graph, t.group
    window = group.window(2)
    for _ in range(150):
        g, a = rng.choice(window), random_path(rng, graph, 6)
        (image, coc), (expected, expected_coc) = t.act_path(g, a), checked_act_path(t, g, a)
        assert_built_alike(image, expected)
        assert coc == expected_coc
    by_source = {}
    for p in ss.all_paths_upto(graph, 3):
        by_source.setdefault(p.source_vertex, []).append(p)

    def element(beta, g):
        return ss.make_triple(t, rng.choice(by_source[t.act_vertex(g, beta.source_vertex)]), g, beta)

    nonzero = 0
    for _ in range(300):
        s = element(random_path(rng, graph, 3), rng.choice(window))
        roll = rng.randrange(3)
        if roll == 0:  # gamma a prefix of beta
            gamma = checked_prefix(s.beta, rng.randint(0, len(s.beta)))
        elif roll == 1:  # beta a prefix of gamma
            gamma = checked_concat(s.beta, random_path(rng, graph, 3, s.beta.source_vertex))
        else:
            gamma = random_path(rng, graph, 3)
        h = rng.choice(window)
        u = ss.make_triple(t, gamma, h, rng.choice(by_source[t.act_vertex(group.inv(h), gamma.source_vertex)]))
        for x, y in ((s, u), (u, s), (s, ss.ZERO)):
            got, expected = ss.mul(t, x, y), checked_mul(t, x, y)
            if isinstance(expected, ss.Zero):
                assert got is ss.ZERO
                continue
            nonzero += 1
            assert_built_alike(got.alpha, expected.alpha)
            assert_built_alike(got.beta, expected.beta)
            assert got.g == expected.g and got == expected
    assert nonzero >= 200, nonzero
