"""The unchecked path builds and the fused walks agree with the checked ones they replace.

Path.prefix, Path.drop, concat, complement, extensions, prefix_compare,
act_path and mul are compared with the versions in conftest, whose every
path goes through the checked Path constructor and whose act_path steps one
edge at a time, on seeded random paths of every spec graph and of random
Katsura, Cayley and automaton triples.
"""

import pickle
import random

import pytest

import selfsim as ss
from selfsim.action import step_walk
from selfsim.automaton import AutomatonData, from_automaton, reduce_word
from selfsim.builders import KatsuraData, from_katsura
from selfsim.cayley import FiniteGroup, finite_triple
from selfsim.groups import MAX_ENUMERATION
from conftest import (
    all_spec_triples,
    random_germ,
    checked_act_path,
    checked_complement,
    checked_concat,
    checked_drop,
    checked_extensions,
    checked_mul,
    checked_prefix,
    checked_prefix_compare,
)
from selfsim.errors import BackendMismatchError, CompositionError, EmptySetError, SourceConditionError
from selfsim.tri import DISTINCT, all_of

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
    """(True, value), or (False, (exception type, message)) for anything raised."""
    try:
        return True, f(*args)
    except Exception as err:  # noqa: BLE001 - the exception itself is compared
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


def corrupt(rng, t, s, others):
    """A bare Triple like s with one part broken: an unchecked g, a path of another graph
    (or of an equal twin graph, which is no fault), or an alpha that may break d(alpha) = g d(beta)."""
    roll = rng.randrange(4)
    if roll == 0:
        return ss.Triple(s.alpha, rng.choice(bad_elements(t.group)), s.beta)
    if roll == 3:
        return ss.Triple(random_path(rng, t.graph, 3), s.g, s.beta)
    graph = rng.choice(others)
    if rng.randrange(2):
        return ss.Triple(random_path(rng, graph, 3), s.g, s.beta)
    return ss.Triple(s.alpha, s.g, random_path(rng, graph, 3))


def assert_same_product(t, x, y):
    """mul against checked_mul: the same refusal, zero, or a product built alike; mul's outcome."""
    (ok, got), (oracle_ok, expected) = outcome(ss.mul, t, x, y), outcome(checked_mul, t, x, y)
    assert ok == oracle_ok and (ok or got == expected), (x, y, got, expected)
    if ok and isinstance(expected, ss.Zero):
        assert got is ss.ZERO
    elif ok:
        assert_built_alike(got.alpha, expected.alpha)
        assert_built_alike(got.beta, expected.beta)
        assert got.g == expected.g
    return ok, got


def multi_vertex_katsura(rng):
    while True:
        t = random_katsura(rng)
        if t.graph.n_vertices == 2:
            return t


@pytest.mark.parametrize("name", [*ACTION_SPECS, "swap_zero_sum", "katsura", "doubling"])
def test_mul_refuses_as_the_checked_build(name):
    """Products of bare Triples with an unchecked g, a path of another graph, or a broken
    d(alpha) = g d(beta), one operand broken or both, refuse as the act_path + concat build does."""
    rng = random.Random(f"mul-refusal-{name}")
    t = multi_vertex_katsura(rng) if name == "katsura" else TRIPLES[name]
    twin = ss.Graph(t.graph.vertex_labels, t.graph.edge_labels, t.graph.range_of, t.graph.source_of)
    others = [TRIPLES["c5"].graph, twin]  # a graph of five loops, unequal to each graph here
    window = t.group.window(1 if name == "doubling" else 2)
    paths = ss.all_paths_upto(t.graph, 3)
    seen = {"raised": set(), "nonzero": 0}
    kinds = ("is not an element of", "paths live on different graphs", "cannot concatenate")

    def element(beta, g):
        alphas = [p for p in paths if p.source_vertex == t.act_vertex(g, beta.source_vertex)]
        return ss.make_triple(t, rng.choice(alphas), g, beta)

    for _ in range(400):
        s = element(random_path(rng, t.graph, 3), rng.choice(window))
        gamma = ss.concat(s.beta, random_path(rng, t.graph, 3, s.beta.source_vertex)) if rng.randrange(2) \
            else s.beta.prefix(rng.randint(0, len(s.beta)))
        h = rng.choice(window)
        u = ss.make_triple(t, gamma, h, rng.choice(
            [p for p in paths if t.act_vertex(h, p.source_vertex) == gamma.source_vertex]))
        broken = [(corrupt(rng, t, s, others), u), (s, corrupt(rng, t, u, others)),
                  (corrupt(rng, t, s, others), corrupt(rng, t, u, others))]
        for x, y in broken:
            for a, b in ((x, y), (y, x)):
                ok, got = assert_same_product(t, a, b)
                if not ok:
                    seen["raised"].update(kind for kind in kinds if kind in got[1])
                elif got is not ss.ZERO:
                    seen["nonzero"] += 1
    # Every kind of refusal was met: a non-element, a foreign path, and on two vertices a break of d(alpha) = g d(beta).
    assert seen["raised"] == set(kinds[:2] if t.graph.n_vertices == 1 else kinds), seen
    assert seen["nonzero"] >= 100, seen


def test_a_product_refuses_its_left_element_before_joining_paths_that_do_not_meet():
    # s = (e, False, e) on the integers has no element to multiply by; u's paths do not meet
    # (d(delta) != h^-1 d(gamma)). The product refuses s.g first, as the act_path + concat build did.
    t = TRIPLES["swap_zero_sum"]
    e = ss.edge_path(t.graph, [0])
    v, w = (ss.vertex_path(t.graph, x) for x in range(2))
    s = ss.Triple(e, False, e)
    u = ss.Triple(ss.vertex_path(t.graph, e.range_vertex), 0, w if e.range_vertex == 0 else v)
    assert outcome(ss.mul, t, s, u) == outcome(checked_mul, t, s, u) == (
        False, (BackendMismatchError, "False is not an element of integers"))
    ok, (kind, _) = outcome(ss.mul, t, ss.Triple(e, 0, e), u)
    assert not ok and kind is CompositionError


def test_act_behind_is_concat_of_act_path():
    """act_behind(alpha, g, b, start) against concat(alpha, act_path(g, b.drop(start))) from the
    checked builds: its path built alike, its carry equal, or the same refusal, in the same order."""
    rng = random.Random("act-behind")
    cases = [(n, TRIPLES[n]) for n in (*ACTION_SPECS, "swap_zero_sum", "doubling")]
    cases += [(f"katsura{i}", multi_vertex_katsura(rng)) for i in range(4)]
    kinds = ("drop length", "does not belong", "is not an element of", "letters in the restriction",
             "paths live on different graphs", "cannot concatenate")
    seen = set()
    for name, t in cases:
        twin = ss.Graph(t.graph.vertex_labels, t.graph.edge_labels, t.graph.range_of, t.graph.source_of)
        others = [TRIPLES["c5"].graph, twin]
        # On doubling, (1,) restricts to 2^n letters along n edges: paths of 20 reach the walk's refusal.
        window, length = ([(), (1,), (-1,)], 20) if name == "doubling" else (elements(rng, t.group), 6)
        for _ in range(150):
            b = random_path(rng, rng.choice(others) if rng.randrange(12) == 0 else t.graph, length)
            alpha = random_path(rng, rng.choice(others) if rng.randrange(12) == 0 else t.graph, 3)
            g = rng.choice(bad_elements(t.group)) if rng.randrange(12) == 0 else rng.choice(window)
            start = rng.randint(-1, len(b) + 1)

            def oracle():
                image, carry = checked_act_path(t, g, checked_drop(b, start))
                return checked_concat(alpha, image), carry

            (ok, got), (oracle_ok, expected) = outcome(t.act_behind, alpha, g, b, start), outcome(oracle)
            assert ok == oracle_ok, (name, alpha, g, b, start, got, expected)
            if ok:
                assert_built_alike(got[0], expected[0])
                assert got[1] == expected[1] and type(got[1]) is type(expected[1])
            else:
                assert got == expected, (name, alpha, g, b, start)
                seen.update(kind for kind in kinds if kind in got[1])
    assert seen == set(kinds)


# -- the germ sites against act_path + concat ---------------------------------------


class OldSites(ss.GermContext):
    """The four germ operations that join a prefix to a walked path, as act_path + concat
    wrote them, over conftest's checked builds."""

    def range_prefix(self, u, n):
        k = max(n - len(u.alpha), 0)
        return checked_concat(u.alpha, checked_act_path(self.triple, u.g, u.xi.truncate(k))[0]).prefix(n)

    def _aligned(self, alpha1, g1, b, start, alpha2, g2, xi, k, tails):
        img, coc = checked_act_path(self.triple, g1, checked_drop(b, start))
        if alpha2 != checked_concat(alpha1, img):
            return DISTINCT
        if self.triple.group.eq(g2, coc).is_equal:
            return tails
        xi = xi.drop(k) if k else xi
        (image1, carries1), (image2, carries2) = self._walk(coc, xi), self._walk(g2, xi)
        return all_of((tails, ss.inf_path_eq(image1, image2, self.depth), ss.corona_eq(carries1, carries2)))

    def reparametrize(self, u, n, side="beta"):
        if side not in ("alpha", "beta"):
            raise ValueError("side must be 'alpha' or 'beta'")
        current = len(u.alpha) if side == "alpha" else len(u.beta)
        k = n - current
        if k < 0:
            raise ValueError(f"cannot shorten {side} from {current} to {n}")
        if k == 0:
            return u
        gamma = u.xi.truncate(k)
        img, coc = checked_act_path(self.triple, u.g, gamma)
        return ss.Germ(checked_concat(u.alpha, img), coc, checked_concat(u.beta, gamma), u.xi.drop(k))

    def normalize_basic(self, alpha, g, beta, gamma=None):
        if gamma is None:
            return (alpha, g, beta)
        rel = checked_prefix_compare(gamma, beta)
        if rel in (ss.PrefixRel.EQUAL, ss.PrefixRel.A_PROPER):
            return (alpha, g, beta)
        if rel is ss.PrefixRel.B_PROPER:
            img, coc = checked_act_path(self.triple, g, checked_drop(gamma, len(beta)))
            return (checked_concat(alpha, img), coc, gamma)
        raise EmptySetError(f"cylinder {gamma} does not meet the domain cylinder {beta}")


def assert_same_site_outcome(site, old_site, *args):
    """The same value (paths built alike, germs field by field) or the same refusal."""
    (ok, got), (oracle_ok, expected) = outcome(site, *args), outcome(old_site, *args)
    assert ok == oracle_ok and (ok or got == expected), (site.__name__, args, got, expected)
    if not ok:
        return got[1]
    if isinstance(got, ss.Germ):
        got, expected = (got.alpha, got.g, got.beta), (expected.alpha, expected.g, expected.beta)
    if isinstance(got, tuple):
        assert_built_alike(got[0], expected[0])
        assert_built_alike(got[2], expected[2])
        assert got[1] == expected[1]
    elif isinstance(got, ss.Path):
        assert_built_alike(got, expected)
    else:
        assert got == expected, (site.__name__, args)
    return None


def acting_cayley(rng):
    """Z/n, n in 2..4, fixing both vertices of a graph with a loop at each, turning each
    (range, source) class of c edges by g where c divides n; the cocycle of a class is g or 1
    throughout. The laws hold for any such choice, so GermContext accepts it."""
    n = rng.randint(2, 4)
    group = FiniteGroup([f"g{i}" for i in range(n)], [[(a + b) % n for b in range(n)] for a in range(n)])
    edges = [("lv", "v", "v"), ("lw", "w", "w")]
    edges += [(f"e{i}", rng.choice("vw"), rng.choice("vw")) for i in range(rng.randint(1, 5))]
    graph = ss.make_graph(["v", "w"], edges)
    classes = {}
    for e in graph.edges():
        classes.setdefault((graph.range_of[e], graph.source_of[e]), []).append(e)
    edge_table, cocycle_table = [[0] * graph.n_edges for _ in range(n)], [[0] * graph.n_edges for _ in range(n)]
    for members in classes.values():
        turns, carries = n % len(members) == 0, rng.randrange(2)
        for g in range(n):
            for i, e in enumerate(members):
                edge_table[g][e] = members[(i + g) % len(members)] if turns else e
                cocycle_table[g][e] = g if carries else 0
    return finite_triple(graph, group, [[0, 1]] * n, edge_table, cocycle_table)


def site_contexts(rng):
    triples = [TRIPLES[name] for name in ("katsura_3_2", "swap_zero_sum", "z2_swap", "adding_machine", "grigorchuk")]
    triples += [multi_vertex_katsura(rng) for _ in range(3)] + [acting_cayley(rng) for _ in range(3)]
    triples += [random_automaton(rng) for _ in range(3)]
    for t in triples:
        window = ss.default_window(t.group, 2)
        yield ss.GermContext(t, window), OldSites(t, window)


def broken_germ(rng, ctx, u, others):
    """u as a bare Germ with an unchecked g, an alpha of another graph, or any alpha of its graph."""
    t, roll = ctx.triple, rng.randrange(3)
    if roll == 0:
        return ss.Germ(u.alpha, rng.choice(bad_elements(t.group)), u.beta, u.xi)
    alpha = random_path(rng, rng.choice(others) if roll == 1 else t.graph, 3)
    return ss.Germ(alpha, u.g, u.beta, u.xi)


def test_germ_sites_answer_as_act_path_and_concat():
    """range_prefix, reparametrize, normalize_basic and the aligned comparison of germ_eq and
    open_set_member on random germs of Katsura, Cayley and automaton contexts, some of them
    bare Germs with a broken part, against the act_path + concat formulas they replace."""
    rng = random.Random("germ-sites")
    refusals = set()
    for ctx, old in site_contexts(rng):
        t = ctx.triple
        twin = ss.Graph(t.graph.vertex_labels, t.graph.edge_labels, t.graph.range_of, t.graph.source_of)
        others = [TRIPLES["c5"].graph, twin]
        for _ in range(40):
            u = u0 = random_germ(rng, ctx, 2)
            if rng.randrange(3) == 0:
                u = broken_germ(rng, ctx, u0, others)
            for n in range(len(u.alpha) + 4):
                refusals.add(assert_same_site_outcome(ctx.range_prefix, old.range_prefix, u, n))
            side = rng.choice(("alpha", "beta", "gamma"))
            current = len(u.beta if side != "alpha" else u.alpha)
            for n in range(current - 1, current + 4):
                refusals.add(assert_same_site_outcome(ctx.reparametrize, old.reparametrize, u, n, side))
            gamma = rng.choice([None, u.beta.prefix(rng.randint(0, len(u.beta))), random_path(rng, t.graph, 3),
                                ss.concat(u.beta, random_path(rng, t.graph, 3, u.beta.source_vertex))])
            refusals.add(assert_same_site_outcome(ctx.normalize_basic, old.normalize_basic,
                                                  u.alpha, u.g, u.beta, gamma))
            v = random_germ(rng, ctx, 2)
            if rng.randrange(2):  # an equal germ, or one at the same source point with another element
                v = ctx.reparametrize(ss.Germ(v.alpha, v.g, u0.beta, u0.xi) if v.beta == u0.beta else u0,
                                      len(u0.beta) + rng.randint(0, 2))
            if rng.randrange(3) == 0:
                v = broken_germ(rng, ctx, v, others)
            refusals.add(assert_same_site_outcome(ctx.germ_eq, old.germ_eq, u, v))
            refusals.add(assert_same_site_outcome(ctx.germ_eq, old.germ_eq, v, u))
            refusals.add(assert_same_site_outcome(ctx.open_set_member, old.open_set_member, u, v.alpha, v.g, v.beta,
                                                  gamma))
    refusals.discard(None)
    for kind in ("is not an element of", "paths live on different graphs", "cannot concatenate", "cannot shorten"):
        assert any(kind in message for message in refusals), kind


# -- one element rule for make_triple and the germ sites -----------------------------


def element_rule(t, alpha, g, beta):
    """None, or the (type, message) the (alpha, g, beta) rule refuses with, written out in its order:
    g's check, both paths on t's graph or an equal one, then d(alpha) = g d(beta)."""
    try:
        t.group.check(g)
    except Exception as err:  # noqa: BLE001 - the exception itself is compared
        return type(err), str(err)
    if alpha.graph != t.graph or beta.graph != t.graph:
        return SourceConditionError, "paths do not belong to the triple's graph"
    if alpha.source_vertex != t.act_vertex(g, beta.source_vertex):
        return SourceConditionError, f"d({alpha}) != g d({beta}) for g = {t.group.render(g)}"
    return None


def point_at(rng, graph, v):
    """A stream point of graph with range v, of up to 4 letters; None when no edge enters v."""
    letters = []
    for _ in range(4):
        into = graph.edges_into(v)
        if not into:
            break
        letters.append(rng.choice(into))
        v = graph.source_of[letters[-1]]
    return ss.stream_path(graph, letters) if letters else None


def test_make_triple_and_the_germ_sites_keep_one_element_rule():
    """make_triple, GermContext.make with xi in the cylinder of beta, and open_set_member at a
    germ in that cylinder accept and refuse (alpha, g, beta) alike, as the rule says: paths of the
    triple's graph, an equal twin or another spec's graph, and elements of the window or refused."""
    rng = random.Random("element-rule")
    triples = [t for name, t in TRIPLES.items() if name != "broken_cocycle"]  # the others keep the axioms
    triples += [multi_vertex_katsura(rng) for _ in range(4)]
    seen = set()
    for t in triples:
        graph, ctx = t.graph, ss.GermContext(t)
        twin = ss.Graph(graph.vertex_labels, graph.edge_labels, graph.range_of, graph.source_of)
        foreign = [u.graph for u in TRIPLES.values() if u.graph != graph]
        window, bad = elements(rng, t.group), bad_elements(t.group)
        for _ in range(60):
            alpha, beta = (random_path(rng, rng.choice([graph, graph, twin, rng.choice(foreign)]), 3) for _ in "ab")
            g = rng.choice(bad) if rng.randrange(6) == 0 else rng.choice(window)
            expected = element_rule(t, alpha, g, beta)
            ok, got = outcome(ss.make_triple, t, alpha, g, beta)
            assert (None if ok else got) == expected, (t.description, alpha, g, beta)
            xi = point_at(rng, beta.graph, beta.source_vertex)
            if xi is None:
                continue
            ok, got = outcome(ctx.make, alpha, g, beta, xi)
            assert (None if ok else got) == expected, (t.description, alpha, g, beta, xi)
            if beta.graph is graph:
                ok, got = outcome(ctx.open_set_member, ctx.unit(beta, xi), alpha, g, beta)
                assert (None if ok else got) == expected, (t.description, alpha, g, beta, xi)
                assert not ok or isinstance(got, ss.Tri)
            seen.add((expected and (expected[0], "!=" in expected[1]), beta.graph is graph))
    # Accepted, refused for a path's graph and for d(alpha) != g d(beta), with beta of t's graph and of
    # another (an equal twin where accepted); a g the backend refuses, among them.
    kinds = (None, (SourceConditionError, False), (SourceConditionError, True))
    assert {(kind, own) for kind in kinds for own in (False, True)} <= seen
    assert (BackendMismatchError, False) in {kind for kind, _ in seen}


# -- the fused walks against the step loop -----------------------------------------


def walk_outcome(f, *args):
    """("ok", image edges, carry, carry type) or ("raised", exception type, message)."""
    try:
        image, carry = f(*args)
    except Exception as err:  # noqa: BLE001 - the exception itself is compared
        return "raised", type(err), str(err)
    return "ok", image.edges if image.vertex is None else image.vertex, carry, type(carry)


def elements(rng, group):
    """Elements of the radius-3 window (sampled where the window is too large to build),
    and for the integers entries up to 10^6 in magnitude."""
    if isinstance(group, ss.IntegerGroup):
        return [rng.randint(-3, 3) for _ in range(4)] + [rng.randint(-10**6, 10**6) for _ in range(4)]
    if group.window_size(3) <= 2000:
        return group.window(3)
    letters = [s for g in range(len(group.generator_names)) for s in (g + 1, -g - 1)]
    return [reduce_word([rng.choice(letters) for _ in range(rng.randint(0, 3))]) for _ in range(40)]


def bad_elements(group):
    """Values each backend refuses with BackendMismatchError."""
    if isinstance(group, ss.IntegerGroup):
        return [True, 1.0, "1", (1,)]
    if isinstance(group, FiniteGroup):
        return [len(group.names), -1, True, "0"]
    return [(0,), (len(group.generator_names) + 1,), (1, -1), [1], 1]


def assert_walks_as_it_steps(rng, t, cases, others=()):
    """act_path through t.walk against conftest's step loop, on a pickled twin whose
    automaton memo starts empty, as t's does: the memos must fill alike."""
    walked, stepped = pickle.loads(pickle.dumps(t)), pickle.loads(pickle.dumps(t))
    window = elements(rng, t.group)
    for _ in range(cases):
        roll = rng.randrange(20)
        g = rng.choice(bad_elements(t.group)) if roll == 0 else rng.choice(window)
        a = random_path(rng, rng.choice(others), 12) if roll == 1 and others else random_path(rng, t.graph, 12)
        got, expected = walk_outcome(walked.act_path, g, a), walk_outcome(checked_act_path, stepped, g, a)
        assert got == expected, (t.description, g, a)
    memo = getattr(walked.group, "_steps", None)
    if memo is not None:
        assert list(memo.items()) == list(stepped.group._steps.items()) and memo.held == stepped.group._steps.held


@pytest.mark.parametrize("name", sorted(TRIPLES))
def test_every_spec_walks_as_it_steps(name):
    rng = random.Random(f"walk-parity-{name}")
    t = TRIPLES[name]
    twin = ss.Graph(t.graph.vertex_labels, t.graph.edge_labels, t.graph.range_of, t.graph.source_of)
    others = [u.graph for n, u in TRIPLES.items() if n != name] + [twin]
    assert_walks_as_it_steps(rng, t, 400, others)


def random_katsura(rng):
    n = rng.randint(1, 3)
    a = [[rng.choice((0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
    for row in a:
        if not any(row):
            row[rng.randrange(n)] = rng.randint(1, 3)
    b = [[rng.randint(-5, 5) if x else 0 for x in row] for row in a]
    return from_katsura(KatsuraData.make(a, b))


def random_cayley(rng):
    """A relabelled Z/n1 x Z/n2 acting on one or two vertices, each edge sent to a random
    edge with its range and source, and a random cocycle: act_path reads only the tables."""
    n1, n2 = rng.randint(1, 4), rng.randint(1, 3)
    order = n1 * n2
    label = list(range(order))
    rng.shuffle(label)
    pair = [(x // n2, x % n2) for x in range(order)]
    table = [[0] * order for _ in range(order)]
    for x in range(order):
        for y in range(order):
            (a1, a2), (b1, b2) = pair[x], pair[y]
            table[label[x]][label[y]] = label[((a1 + b1) % n1) * n2 + (a2 + b2) % n2]
    group = FiniteGroup([f"g{i}" for i in range(order)], table)
    vertices = ["v", "w"][: rng.randint(1, 2)]
    edges = [(f"e{i}", rng.choice(vertices), rng.choice(vertices)) for i in range(rng.randint(1, 4))]
    edges.append(("loop", "v", "v"))
    graph = ss.make_graph(vertices, edges)
    alike = {e: [f for f in graph.edges() if (graph.range_of[f], graph.source_of[f])
                 == (graph.range_of[e], graph.source_of[e])] for e in graph.edges()}
    edge_table = [[rng.choice(alike[e]) for e in graph.edges()] for _ in range(order)]
    cocycle_table = [[rng.randrange(order) for _ in graph.edges()] for _ in range(order)]
    vertex_table = [list(range(graph.n_vertices)) for _ in range(order)]
    return finite_triple(graph, group, vertex_table, edge_table, cocycle_table)


def random_automaton(rng):
    n_states, n_letters = rng.randint(1, 3), rng.randint(2, 3)
    letters = [s for g in range(n_states) for s in (g + 1, -g - 1)]
    output = []
    for _ in range(n_states):
        row = list(range(n_letters))
        rng.shuffle(row)
        output.append(row)
    restriction = [[[rng.choice(letters) for _ in range(rng.randint(0, 2))] for _ in range(n_letters)]
                   for _ in range(n_states)]
    data = AutomatonData.make([str(x) for x in range(n_letters)], [f"s{g}" for g in range(n_states)],
                              output, restriction)
    return from_automaton(data)


@pytest.mark.parametrize("build", [random_katsura, random_cayley, random_automaton])
def test_random_triples_walk_as_they_step(build):
    rng = random.Random(f"walk-parity-{build.__name__}")
    for _ in range(30):
        assert_walks_as_it_steps(rng, build(rng), 60, [TRIPLES["odometer"].graph])


def test_the_walk_refuses_an_oversize_restriction_at_the_letter_the_steps_do():
    # a restricts to a.a at every letter: after 17 letters its restriction holds 2^17 letters.
    t = TRIPLES["doubling"]
    letters = MAX_ENUMERATION.bit_length()
    assert 2 ** (letters - 1) <= MAX_ENUMERATION < 2 ** letters
    for length in range(letters - 2, letters + 3):
        a = ss.edge_path(t.graph, [0] * length)
        got = walk_outcome(pickle.loads(pickle.dumps(t)).act_path, (1,), a)
        assert got == walk_outcome(checked_act_path, pickle.loads(pickle.dumps(t)), (1,), a)
        if length < letters:
            assert got[0] == "ok" and len(got[2]) == 2 ** length
        else:
            assert got == ("raised", ValueError, f"more than {MAX_ENUMERATION} letters in the restriction "
                           "along the path (the enumeration limit)")


def test_a_triple_built_by_hand_walks_by_its_step():
    odo = TRIPLES["odometer"]
    steps = []

    def step(g, e):
        steps.append((g, e))
        return odo.step(g, e)

    t = ss.SelfSimilarTriple(odo.graph, odo.group, odo.act_vertex, step, "counted")
    assert t.walk.func is step_walk and t.walk.args == (step,) and not t.walk.keywords
    a = ss.edge_path(odo.graph, [1, 1, 0, 1])
    assert t.act_path(5, a) == odo.act_path(5, a) == checked_act_path(odo, 5, a)
    assert steps == [(5, 1), (3, 1), (2, 0), (1, 1)]
    with pytest.raises(BackendMismatchError, match="True is not an element of integers"):
        t.act_path(True, a)
    assert len(steps) == 4
    doubling = TRIPLES["doubling"]
    by_hand = ss.SelfSimilarTriple(doubling.graph, doubling.group, doubling.act_vertex, doubling.step)
    assert pickle.loads(pickle.dumps(by_hand)).act_path((1,), ss.edge_path(doubling.graph, [1] * 5))[1] == (1,) * 32
    with pytest.raises(ValueError, match="letters in the restriction along the path"):
        by_hand.act_path((1,), ss.edge_path(doubling.graph, [1] * 17))
