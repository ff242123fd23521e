"""Shared fixtures and sampling helpers for the test suite."""

from __future__ import annotations

import argparse
import contextlib
import enum
import io
import random
import re
from math import lcm
from pathlib import Path

import pytest

import selfsim as ss
from selfsim.sweeps import FreenessReport
from selfsim import groups
from selfsim.errors import CompositionError, DepthExceededError, NotIdempotentError
from selfsim.groups import refuse_oversize
from selfsim.periodic import normalize
from selfsim.automaton import invert_word, reduce_word
from selfsim.semigroup import UnitaryReport, render
from selfsim.specfile import load_spec_file, load_spec_text
from selfsim.tri import DISTINCT, EQUAL, unknown

SPECS = Path(__file__).resolve().parent.parent / "specs"
# Specs that only the tests load (the cli benchmark loads every spec in specs/).
TEST_SPECS = Path(__file__).resolve().parent / "specs"

# Vertex b receives no edge (a source), so the path y from a stops there.
SOURCE_VERTEX_SPEC = """\
[graph]
vertices = a b
edge = x a a
edge = y a b

[group]
kind = cayley
elements = 1
row = 1

[action]
"""

# Two copies of the adding machine: a.b' acts trivially, so comparing
# distinct carries stays undecided and the model conditions stay pending.
TWIN_MACHINE_SPEC = """\
[automaton]
alphabet = 0 1
map = a 0 1 1
map = a 1 0 a
map = b 0 1 1
map = b 1 0 b
"""


# Three states whose restrictions hold inverse letters, so the stack step
# cancels at the junction of nonempty words.
INVERSE_LETTER_SPEC = """\
[automaton]
alphabet = 0 1 2
map = x 0 1 y.z'
map = x 1 2 1
map = x 2 0 x'.y
map = y 0 0 z.z
map = y 1 2 x
map = y 2 1 y'.x'
map = z 0 2 x.y'
map = z 1 1 z'
map = z 2 0 1
"""


def fold_step(group, word, letter):
    """AutomatonGroup.step as the old fold: re-reduce the whole restriction per generator."""
    img, rest = letter, ()
    for sym in reversed(word):
        g = abs(sym) - 1
        if sym > 0:
            img, r = group.outputs[g][img], group.restrictions[g][img]
        else:
            img = group.outputs[g].index(img)
            r = invert_word(group.restrictions[g][img])
        rest = reduce_word(r + rest)
    return img, rest


def stack_step(group, word, letter):
    """AutomatonGroup.step without its memo: the restriction kept reversed on a stack, one letter at a time."""
    img = letter
    stack = []
    for sym in reversed(word):
        g = abs(sym) - 1
        if sym > 0:
            img, r = group.outputs[g][img], group.restrictions[g][img]
        else:
            img = group.outputs[g].index(img)
            r = invert_word(group.restrictions[g][img])
        for s in reversed(r):
            if stack and stack[-1] == -s:
                stack.pop()
            else:
                stack.append(s)
    return img, tuple(reversed(stack))


# The path algebra, act_path and mul as they were while every path they returned
# went through the checked Path constructor: oracles for the unchecked builds.

def checked_prefix(p, n):
    if not 0 <= n <= len(p):
        raise ValueError(f"prefix length {n} out of range")
    if n == 0:
        return ss.vertex_path(p.graph, p.range_vertex)
    return ss.Path(p.graph, None, p.edges[:n])


def checked_drop(p, n):
    if not 0 <= n <= len(p):
        raise ValueError(f"drop length {n} out of range")
    if n == len(p):
        return ss.vertex_path(p.graph, p.source_vertex)
    return ss.Path(p.graph, None, p.edges[n:])


def checked_concat(a, b):
    if a.graph is not b.graph and a.graph != b.graph:
        raise CompositionError("paths live on different graphs")
    if a.source_vertex != b.range_vertex:
        raise CompositionError(
            f"cannot concatenate: d({a}) = {a.graph.vertex_labels[a.source_vertex]}"
            f" but r({b}) = {b.graph.vertex_labels[b.range_vertex]}"
        )
    if a.is_vertex:
        return b
    if b.is_vertex:
        return a
    return ss.Path(a.graph, None, a.edges + b.edges)


def checked_prefix_compare(a, b):
    if a.graph is not b.graph and a.graph != b.graph:
        return ss.PrefixRel.INCOMPARABLE
    if len(a) <= len(b):
        shorter, longer, short_is_a = a, b, True
    else:
        shorter, longer, short_is_a = b, a, False
    if shorter.range_vertex != longer.range_vertex:
        return ss.PrefixRel.INCOMPARABLE
    if shorter.edges != longer.edges[: len(shorter)]:
        return ss.PrefixRel.INCOMPARABLE
    if len(shorter) == len(longer):
        return ss.PrefixRel.EQUAL
    return ss.PrefixRel.A_PROPER if short_is_a else ss.PrefixRel.B_PROPER


def checked_extensions(b, count):
    if count < 0:
        raise ValueError("count must be >= 0")
    result = [b]
    graph = b.graph
    for _ in range(count):
        result = [checked_concat(p, ss.Path(graph, None, (e,)))
                  for p in result for e in graph.edges_into(p.source_vertex)]
    return result


def checked_act_path(t, g, a):
    if a.graph is not t.graph and a.graph != t.graph:
        raise ValueError("path does not belong to this triple's graph")
    t.group.check(g)
    if a.is_vertex:
        return ss.vertex_path(t.graph, t.act_vertex(g, a.vertex)), g
    images = []
    state = g
    for e in a.edges:
        image, state = t.step(state, e)
        images.append(image)
        if type(state) is tuple:
            refuse_oversize(len(state), "letters in the restriction along the path")
    return ss.Path(t.graph, None, tuple(images)), state


def checked_mul(t, s, u):
    if isinstance(s, ss.Zero) or isinstance(u, ss.Zero):
        return ss.ZERO
    rel = checked_prefix_compare(s.beta, u.alpha)
    if rel == ss.PrefixRel.INCOMPARABLE:
        return ss.ZERO
    group = t.group
    if rel == ss.PrefixRel.B_PROPER:
        img, coc = checked_act_path(t, group.inv(u.g), checked_drop(s.beta, len(u.alpha)))
        return ss.Triple(s.alpha, group.mul(s.g, group.inv(coc)), checked_concat(u.beta, img))
    img, coc = checked_act_path(t, s.g, checked_drop(u.alpha, len(s.beta)))
    return ss.Triple(checked_concat(s.alpha, img), group.mul(coc, u.g), u.beta)


# The order of idempotents as semigroup kept it while it shipped: a reference twin, as only tests read it.

class IdempotentOrder(enum.Enum):
    EQUAL = "equal"
    LEQ = "leq"
    GEQ = "geq"
    ORTHOGONAL = "orthogonal"


# e <= f when f's path is a prefix of e's: the prefix relation of (e's path, f's path), reversed.
_ORDER_OF = {ss.PrefixRel.EQUAL: IdempotentOrder.EQUAL, ss.PrefixRel.A_PROPER: IdempotentOrder.GEQ,
             ss.PrefixRel.B_PROPER: IdempotentOrder.LEQ, ss.PrefixRel.INCOMPARABLE: IdempotentOrder.ORTHOGONAL}


def idempotent_order(t, e, f):
    """Order relation between idempotents: e <= f iff f's path is a prefix of e's.

    Intersecting idempotents are always comparable, so the answer is one of
    equal / below / above / orthogonal; zero sits below everything.
    """
    for x in (e, f):
        if not ss.is_idempotent(t, x):
            raise NotIdempotentError(f"{render(t, x)} is not an idempotent")
    if isinstance(e, ss.Zero) and isinstance(f, ss.Zero):
        return IdempotentOrder.EQUAL
    if isinstance(e, ss.Zero):
        return IdempotentOrder.LEQ
    if isinstance(f, ss.Zero):
        return IdempotentOrder.GEQ
    return _ORDER_OF[ss.prefix_compare(e.alpha, f.alpha)]


# Group and corona helpers the package shipped while only tests read them: reference twins.

def generator(group, index):
    """The one-letter word of an automaton group's generator number index (from 0)."""
    return (index + 1,)


def power(group, x, n):
    """x^n by n products (of x's inverse for n < 0)."""
    out = group.identity()
    step = x if n >= 0 else group.inv(x)
    for _ in range(abs(n)):
        out = group.mul(out, step)
    return out


def corona_identity(backend):
    return ss.PeriodicSeq(backend, (), (backend.identity(),))


def corona_inv(a):
    """The pointwise inverse, in a's representation."""
    inv = a.backend.inv
    if isinstance(a, ss.PeriodicSeq):
        return ss.PeriodicSeq(a.backend, *normalize(tuple(map(inv, a.prefix)), tuple(map(inv, a.cycle))))
    return ss.BoundedSeq(a.backend, tuple(map(inv, a.values)))


def lag_identity(backend):
    return ss.LagValue(corona_identity(backend), 0)


def lag_inv(a):
    return ss.LagValue(ss.shift_right(corona_inv(a.corona), -a.shift), -a.shift)


def labeled_odometer():
    """Odometer with readable edge labels e0/e1, built from generator tables."""
    graph = ss.make_graph(["v"], [("e0", "v", "v"), ("e1", "v", "v")])
    return ss.integer_triple_from_generator(graph, [0], [1, 0], [0, 1], description="odometer")


@pytest.fixture(scope="session")
def odo():
    return labeled_odometer()


def example(name):
    """The triple of specs/<name>.spec, the one definition of each shipped example."""
    return load_spec_file(str(SPECS / f"{name}.spec")).triple


@pytest.fixture(scope="session")
def odo_katsura():
    return example("odometer_katsura")


@pytest.fixture(scope="session")
def kat32():
    return example("katsura_3_2")


@pytest.fixture(scope="session")
def kat20():
    return example("katsura_2_0")


@pytest.fixture(scope="session")
def swap2():
    return example("z2_swap")


@pytest.fixture(scope="session")
def machine():
    return example("adding_machine")


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


def katsura_division(data, label, m):
    """(label of m.e, phi(m, e)) for the two-matrix edge e = (i,j,n), by m*B + n = k*A + n' with 0 <= n' < A."""
    i, j, n = map(int, label[1:-1].split(","))
    k, rest = divmod(m * data.b[i - 1][j - 1] + n, data.a[i - 1][j - 1])
    return f"({i},{j},{rest})", k


def cover_oracle(t, members, target, slack=2):
    """Brute-force cover definition, for cross-checking is_cover.

    Enumerates every nonzero idempotent below the target out to the members'
    depth plus slack and tests intersection by multiplying.
    """
    beta = target.alpha
    lengths = [len(m.alpha) for m in members if not isinstance(m, ss.Zero)]
    # Never below 0: members shorter than the target still leave e_beta to check.
    horizon = max(max(lengths, default=0) - len(beta), 0) + slack
    for k in range(horizon + 1):
        for delta in checked_extensions(beta, k):
            e_delta = ss.unit_idempotent(t, delta)
            if not any(
                not isinstance(ss.mul(t, e_delta, m), ss.Zero)
                for m in members
                if not isinstance(m, ss.Zero)
            ):
                return False
    return True


def enumeration_cover(t, members, target):
    """The extension enumeration is_cover used before its descent, as an oracle.

    Every extension of the target's path by L = max relative length must
    carry a member's path as a prefix. It agrees with the definition only on
    graphs without sources: a branch that stops at a source before depth L
    drops out of the enumeration unchecked.
    """
    if not ss.is_idempotent(t, target) or isinstance(target, ss.Zero):
        raise NotIdempotentError("cover target must be a nonzero idempotent")
    beta = target.alpha
    relative = []
    for m in members:
        if not ss.is_idempotent(t, m):
            raise NotIdempotentError(f"{render(t, m)} is not an idempotent")
        if isinstance(m, ss.Zero):
            continue
        rel = ss.prefix_compare(beta, m.alpha)
        if rel in (ss.PrefixRel.EQUAL, ss.PrefixRel.B_PROPER):
            return True
        if rel == ss.PrefixRel.A_PROPER:
            relative.append(m.alpha)
    if not relative:
        return False
    horizon = max(len(p) for p in relative) - len(beta)
    return all(
        any(ss.prefix_compare(p, delta) in (ss.PrefixRel.EQUAL, ss.PrefixRel.A_PROPER) for p in relative)
        for delta in checked_extensions(beta, horizon)
    )


def spec_triples():
    """(name, triple) for every spec shipped in specs/, in name order."""
    return [(p.stem, load_spec_file(str(p)).triple) for p in sorted(SPECS.glob("*.spec"))]


def all_spec_triples():
    """(name, triple) for every spec in specs/ and then tests/specs/, each in name order."""
    return spec_triples() + [(p.stem, load_spec_file(str(p)).triple) for p in sorted(TEST_SPECS.glob("*.spec"))]


def assert_certified(t, counterexample):
    """A freeness counterexample (h, e) must be one by definition: h != 1 fixes e with trivial cocycle."""
    h, e = counterexample
    image, coc = t.step(h, e)
    assert image == e, counterexample
    assert t.group.is_identity(coc).is_equal and t.group.is_identity(h).is_distinct, counterexample


def assert_dominates(t, witness):
    """An E*-unitarity witness (s, e): s is not idempotent and s e = e."""
    s, e = witness
    assert not ss.is_idempotent(t, s), render(t, s)
    assert ss.element_eq(t, ss.mul(t, s, e), e).is_equal, (render(t, s), render(t, e))


def source_vertex_triple():
    return load_spec_text(SOURCE_VERTEX_SPEC).triple


def _random_extension(rng: random.Random, path, length):
    """path extended by up to ``length`` random edges, stopping early at a source."""
    graph = path.graph
    for _ in range(length):
        into = graph.edges_into(path.source_vertex)
        if not into:
            break
        path = ss.concat(path, ss.edge_path(graph, [rng.choice(into)]))
    return path


def random_cover_case(rng: random.Random, t, targets, paths, depth=3):
    """A seeded (members, target) pair; roughly half the families are covers.

    Members below the target (by at most ``depth`` edges) dominate, with some anywhere, some at or above
    it and some zero; a third of the cases start from a complete family (a
    target split into children a few times), minus one member half the time.
    """
    graph = t.graph
    beta = rng.choice(targets)
    chosen = []
    if rng.random() < 1 / 3:
        frontier = [beta]
        for _ in range(rng.randint(1, 3)):
            node = frontier.pop(rng.randrange(len(frontier)))
            children = [ss.concat(node, ss.edge_path(graph, [e])) for e in graph.edges_into(node.source_vertex)]
            frontier.extend(children or [node])
        if rng.random() < 0.5:
            frontier.pop(rng.randrange(len(frontier)))
        chosen.extend(frontier)
    for _ in range(rng.randint(0 if chosen else 1, 4)):
        roll = rng.random()
        if roll < 0.7:
            chosen.append(_random_extension(rng, beta, rng.randint(1, depth)))
        elif roll < 0.85:
            chosen.append(rng.choice(paths))
        elif roll < 0.95:
            chosen.append(beta.prefix(rng.randint(0, len(beta))))
        else:
            chosen.append(None)
    rng.shuffle(chosen)
    members = [ss.ZERO if p is None else ss.unit_idempotent(t, p) for p in chosen]
    return members, ss.unit_idempotent(t, beta)


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


def random_germ(rng: random.Random, ctx, max_len=3, window=None):
    """A seeded germ of ctx, its element drawn from window (ctx.window when None)."""
    t = ctx.triple
    paths = ss.all_paths_upto(t.graph, max_len)
    window = ctx.window if window is None else window
    while True:
        beta = rng.choice(paths)
        g = rng.choice(window)
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


def _restricted(t, u, mu):
    """(range path, element) of germ u's triple restricted to the cylinder of mu, a prefix of its source point."""
    image, coc = t.act_path(u.g, mu.drop(len(u.beta)))
    return ss.concat(u.alpha, image), coc


def germ_coincidence_level(t, u1, u2, levels):
    """The least level n <= levels at which two germs coincide by definition, else None.

    Restricted to the cylinder of beta.gamma, gamma a prefix of xi, the germ
    [alpha, g, beta; xi] has the triple (alpha.(g gamma), phi(g, gamma),
    beta.gamma). Two germs are equal iff their source points agree and some
    prefix of that point gives both one triple. Level n is the prefix of
    length max|beta| + n, acted on through act_path on finite paths only.
    The points are compared on their first max|beta| + levels letters, which
    decides for the short preperiods and cycles random_germ draws. Range
    paths that part never meet again; an undecided comparison of the
    elements counts as no coincidence.
    """
    top = max(len(u1.beta), len(u2.beta))
    point, other = (u.xi.prepend(u.beta).truncate(top + levels) for u in (u1, u2))
    if point != other:
        return None
    for n in range(levels + 1):
        (alpha1, g1), (alpha2, g2) = (_restricted(t, u, point.prefix(top + n)) for u in (u1, u2))
        if alpha1 != alpha2:
            return None
        if t.group.eq(g1, g2).is_equal:
            return n
    return None


def lag_by_truncations(t, u, n):
    """(the first n entries of the lag's sequence, its shift) of germ u through act_path, as an oracle.

    The lag of [alpha, g, beta; xi] is (Phi(g, xi) right-shifted |alpha| times,
    |alpha| - |beta|): |alpha| identities, then phi(g, gamma) for gamma the
    prefixes of xi in turn, from the vertex path, whose cocycle is g itself.
    """
    pad = [t.group.identity()] * len(u.alpha)
    carries = [t.act_path(u.g, u.xi.truncate(m))[1] for m in range(max(n - len(pad), 0))]
    return (pad + carries)[:n], len(u.alpha) - len(u.beta)


def model_round_trip(ctx, u, extra=0):
    """(f_map(u), model_check's verdict on it, the germ model_to_germ pulls back), at the split
    (|alpha| + extra, |beta| + extra): the pulled-back germ absorbs extra letters of xi, so it
    coincides with u by the definition (germ_coincidence_level) at a level <= extra.
    """
    eta, lag, zeta = image = ctx.f_map(u)
    split = (len(u.alpha) + extra, len(u.beta) + extra)
    verdict = ctx.model_check(eta, lag.corona, lag.shift, zeta, split=split)
    return image, verdict, ctx.model_to_germ(eta, lag.corona, lag.shift, zeta, split)


def pairwise_freeness(t, window, path_bound=4):
    """The freeness gate as it swept before grouping by image, as an oracle.

    Path-freeness acts every surely nontrivial element on every path, and
    rigidity acts both elements of every ordered pair of distinct window
    elements on every path: 2 |W|^2 |P| path actions.
    """
    window = list(window)
    group, graph = t.group, t.graph
    nontrivial = [g for g in window if not group.is_identity(g).is_equal]
    undecided = []
    counterexample = None
    for g in nontrivial:
        g_is_id = group.is_identity(g)
        for e in graph.edges():
            image, coc = t.step(g, e)
            if image != e:
                continue
            coc_trivial = group.is_identity(coc)
            if g_is_id.is_distinct and coc_trivial.is_equal:
                counterexample = (g, e)
                break
            if coc_trivial.is_unknown or g_is_id.is_unknown:
                undecided.append(f"(g={group.render(g)}, e={graph.edge_labels[e]}) undecided at depth")
        if counterexample:
            break
    failures = []
    if counterexample is None:
        paths = ss.all_paths_upto(graph, path_bound)
        for g in nontrivial:
            if not group.is_identity(g).is_distinct:
                continue
            for a in paths:
                img, coc = t.act_path(g, a)
                if img == a and group.is_identity(coc).is_equal:
                    failures.append(f"path-freeness: g={group.render(g)} fixes {a} with trivial cocycle")
        for g1 in window:
            for g2 in window:
                if not group.eq(g1, g2).is_distinct:
                    continue
                for a in paths:
                    i1, c1 = t.act_path(g1, a)
                    i2, c2 = t.act_path(g2, a)
                    if i1 == i2 and group.eq(c1, c2).is_equal:
                        failures.append(f"rigidity: g1={group.render(g1)}, g2={group.render(g2)} agree on {a}")
    if counterexample is not None:
        kind = "counterexample"
    elif group.is_finite and len(window) >= len(list(group.elements())) and not undecided:
        kind = "holds"
    else:
        kind = "unknown"
    return FreenessReport(kind, counterexample, tuple(sorted(set(failures))), tuple(undecided), len(window))


def cube_e_star_unitary(t, window, path_bound=4):
    """check_e_star_unitary as the full search it reduces, as an oracle.

    Every s = (alpha, g, beta) with g in the window and paths of length <=
    path_bound is multiplied against every idempotent e_gamma of the same
    depth, looking for s e = e with s not idempotent: one Triple, one mul and
    one element_eq per candidate.
    """
    window = list(window)
    group = t.group
    paths = ss.all_paths_upto(t.graph, path_bound)
    undecided = False
    for g in window:
        for beta in paths:
            alpha_source = t.act_vertex(g, beta.source_vertex)
            for alpha in paths:
                if alpha.source_vertex != alpha_source:
                    continue
                s = ss.Triple(alpha, g, beta)
                if ss.is_idempotent(t, s):
                    continue
                if alpha == beta and group.is_identity(g).is_unknown:
                    undecided = True
                    continue
                for gamma in paths:
                    e = ss.unit_idempotent(t, gamma)
                    prod = ss.mul(t, s, e)
                    verdict = ss.element_eq(t, prod, e)
                    if verdict.is_equal:
                        return UnitaryReport("counterexample", (s, e), len(window))
                    if verdict.is_unknown:
                        undecided = True
    if group.is_finite and len(window) >= len(list(group.elements())) and not undecided:
        return UnitaryReport("holds", None, len(window))
    return UnitaryReport("unknown", None, len(window))


def reference_orbit(t, g, xi, depth):
    """infinite._orbit letter by letter to the depth, written out as an oracle; over a finite
    group, on to p + |G|.q letters (up to the budget), where (carry, phase) must have recurred.

    Reads groups.MAX_ENUMERATION when called, so a patched budget holds here too.
    """
    images = []
    carries = [g]
    state = g
    if isinstance(xi, ss.PeriodicPath):
        prefix, cycle = xi.prefix_edges, xi.cycle_edges
        end = depth + len(prefix) + len(cycle) + 1
        if t.group.is_finite:
            end = max(end, min(len(prefix) + len(list(t.group.elements())) * len(cycle) + 1, groups.MAX_ENUMERATION))
    else:
        prefix, cycle = xi.head(min(depth, xi.depth_limit)), ()
        end = len(prefix)
    budget = groups.MAX_ENUMERATION
    seen = {}
    phase = spent = 0
    for n in range(end):
        if n < len(prefix):
            e = prefix[n]
        else:
            if (state, phase) in seen:
                return images, carries, (seen[state, phase], n)
            seen[state, phase] = n
            e = cycle[phase]
            phase = (phase + 1) % len(cycle)
        image, state = t.step(state, e)
        spent += len(state) if type(state) is tuple else 1
        if spent > budget:
            raise DepthExceededError(f"the carry words along the path pass {budget} letters at depth {n + 1}")
        images.append(image)
        carries.append(state)
    return images[:depth], carries[: depth + 1], None


def _full_depth_conditions(t, eta, gseq, p, q, zeta, depth):
    """One split's model conditions, walked to max(depth, base + period)."""
    horizon = depth
    decisive = True
    if isinstance(gseq, ss.PeriodicSeq) and isinstance(zeta, ss.PeriodicPath) and isinstance(eta, ss.PeriodicPath):
        period = lcm(len(gseq.cycle), len(zeta.cycle_edges), len(eta.cycle_edges))
        base = max(len(gseq.prefix) - p, len(zeta.prefix_edges) - q, len(eta.prefix_edges) - p, 0)
        horizon = max(horizon, base + period)
    else:
        decisive = False
        for lim, offset in ((gseq.depth_limit, p + 1), (zeta.depth_limit, q), (eta.depth_limit, p)):
            if lim is not None:
                horizon = min(horizon, lim - offset)
        if horizon < 1:
            return unknown(0)
    pending = False
    for n in range(1, horizon + 1):
        image, coc = t.step(gseq.entry(n + p), zeta.letter(n + q))
        carried = t.group.eq(gseq.entry(n + p + 1), coc)
        if carried.is_distinct:
            return DISTINCT
        if carried.is_unknown:
            pending = True
        if eta.letter(n + p) != image:
            return DISTINCT
    if decisive and not pending:
        return EQUAL
    return unknown(horizon)


def split_loop_model_check(ctx, eta, gseq, k, zeta, split=None):
    """GermContext.model_check as a loop over every split p = max(k, 0)..p_hi, as an oracle."""
    depth = ctx.depth
    t = ctx.triple
    if split is not None:
        p, q = split
        return _full_depth_conditions(t, eta, gseq, p, q, zeta, depth)
    all_periodic = (
        isinstance(eta, ss.PeriodicPath) and isinstance(zeta, ss.PeriodicPath) and isinstance(gseq, ss.PeriodicSeq)
    )
    p_hi = depth
    if all_periodic:
        period = lcm(len(eta.cycle_edges), len(zeta.cycle_edges), len(gseq.cycle))
        p_hi = max(p_hi, len(eta.prefix_edges) + len(zeta.prefix_edges) + len(gseq.prefix) + period + abs(k) + 1)
    saw_unknown = False
    for p in range(max(k, 0), p_hi + 1):
        verdict = _full_depth_conditions(t, eta, gseq, p, p - k, zeta, depth)
        if verdict.is_equal:
            return EQUAL
        if verdict.is_unknown:
            saw_unknown = True
    if saw_unknown or not all_periodic:
        return unknown(depth)
    return DISTINCT


def reference_open_set_member(ctx, u, alpha, g, beta, gamma=None):
    """GermContext.open_set_member through the public germ operations, as an oracle: the
    germ at u's source point is built by make and compared with u by germ_eq."""
    alpha, g, beta = ctx.normalize_basic(alpha, g, beta, gamma)
    source = ctx.source_point(u)
    try:
        if source.truncate(len(beta)) != beta:
            return DISTINCT
        return ctx.germ_eq(u, ctx.make(alpha, g, beta, source.drop(len(beta))))
    except DepthExceededError:
        return unknown(ctx.depth)


# The argparse parser the CLI used before its table parser: command -> (positionals
# after the spec, the options its handler reads).
_GERM_OPTIONS = ("--window", "--depth", "--allow-unverified")
ARGPARSE_COMMANDS = {
    "validate": ((), ()), "act": (("g", "path"), ()), "phi": (("g", "path"), ()), "smul": (("s", "t"), ()),
    "cover": (("beta", "alphas"), ()), "residual-free": ((), ("--window", "--bound")),
    "e-star-unitary": ((), ("--window", "--bound")), "germ-eq": (("u", "v"), _GERM_OPTIONS),
    "lag": (("u",), _GERM_OPTIONS), "model-check": (("eta", "gseq", "k", "zeta"), (*_GERM_OPTIONS, "--split")),
    "hausdorff": ((), ("--window",)),
}
ARGPARSE_OPTIONS = {
    "--window": {"type": int, "default": None, "help": "window radius"},
    "--bound": {"type": int, "default": 4, "help": "path length bound"},
    "--depth": {"type": int, "default": None, "help": "depth for infinite computations"},
    "--allow-unverified": {"action": "store_true", "dest": "allow_unverified"},
    "--split": {"default": None, "help": "witness split p:q"},
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's former argparse parser, as an oracle for the table parser of selfsim.cli."""
    parser = argparse.ArgumentParser(prog="selfsim", description="self-similar graph action calculator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (positionals, options) in ARGPARSE_COMMANDS.items():
        p = sub.add_parser(name)
        # Read every token that starts with "-" and a digit as a value, not as an option.
        p._negative_number_matcher = re.compile(r"^-\d")
        p.add_argument("spec", help="spec file path")
        for pos in positionals:
            if pos == "alphas":
                p.add_argument("alphas", nargs="+", metavar="alpha")
            else:
                p.add_argument(pos)
        for option in options:
            p.add_argument(option, **ARGPARSE_OPTIONS[option])
    return parser


def argparse_fields(argv):
    """The fields the oracle parser reads from argv, or its exit code (0 after help)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit as exit_err:
            return exit_err.code or 0
