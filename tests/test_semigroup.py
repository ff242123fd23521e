"""Inverse semigroup of triples: product cases, order, covers, unitarity."""

import itertools
import random
from collections import Counter

import pytest

import selfsim as ss
from conftest import (
    TWIN_MACHINE_SPEC,
    all_spec_triples,
    assert_dominates,
    cover_oracle,
    cube_e_star_unitary,
    enumeration_cover,
    random_cover_case,
    source_vertex_triple,
    spec_triples,
)
from selfsim.errors import BackendMismatchError, CompositionError, NotIdempotentError, SourceConditionError
from selfsim.semigroup import render
from selfsim.specfile import load_spec_text
from selfsim.tri import unknown


def epath(t, *ids):
    return ss.edge_path(t.graph, ids)


def vpath(t, v=0):
    return ss.vertex_path(t.graph, v)


def elements_upto(t, window, max_len):
    paths = ss.all_paths_upto(t.graph, max_len)
    out = []
    for g in window:
        for beta in paths:
            target = t.act_vertex(g, beta.source_vertex)
            for alpha in paths:
                if alpha.source_vertex == target:
                    out.append(ss.Triple(alpha, g, beta))
    return out


def test_make_triple(odo):
    s = ss.make_triple(odo, epath(odo, 0), 1, epath(odo, 1))
    assert isinstance(s, ss.Triple)
    e = ss.make_triple(odo, vpath(odo), 0, vpath(odo))
    assert ss.is_idempotent(odo, e)


def test_make_triple_rejects_bad_source():
    g = ss.make_graph(["u", "w"], [("a", "u", "w"), ("b", "w", "u")])
    t = ss.integer_triple_from_generator(g, [0, 1], [0, 1], [0, 0])
    with pytest.raises(SourceConditionError):
        ss.make_triple(t, epath(t, 0), 0, epath(t, 1))


def test_easy_mult_rule(odo):
    # matching middle paths multiply the group parts
    s = ss.make_triple(odo, epath(odo, 0), 1, epath(odo, 1))
    u = ss.make_triple(odo, epath(odo, 1), 2, epath(odo, 0, 0))
    p = ss.mul(odo, s, u)
    assert (p.alpha, p.g, p.beta) == (s.alpha, 3, u.beta)


def test_mul_first_case_example(odo):
    s = ss.make_triple(odo, epath(odo, 0), 1, epath(odo, 1))
    u = ss.make_triple(odo, epath(odo, 1, 1), 0, epath(odo, 0))
    p = ss.mul(odo, s, u)
    assert (p.alpha.edges, p.g, p.beta.edges) == ((0, 0), 1, (0,))


def test_mul_orthogonal_idempotents(odo):
    e0 = ss.unit_idempotent(odo, epath(odo, 0))
    e1 = ss.unit_idempotent(odo, epath(odo, 1))
    assert ss.mul(odo, e0, e1) == ss.ZERO
    assert ss.mul(odo, ss.ZERO, e0) == ss.ZERO


def test_star(odo):
    s = ss.make_triple(odo, epath(odo, 0), 1, epath(odo, 1))
    st = ss.star(odo, s)
    assert (st.alpha.edges, st.g, st.beta.edges) == ((1,), -1, (0,))
    assert ss.star(odo, ss.ZERO) == ss.ZERO
    assert ss.star(odo, ss.star(odo, s)) == s


def test_second_case_is_mirror_of_first(odo):
    window = ss.default_window(odo.group, 2)
    elems = elements_upto(odo, window, 2)
    rng = random.Random(7)
    for _ in range(300):
        s, u = rng.choice(elems), rng.choice(elems)
        if ss.prefix_compare(s.beta, u.alpha) != ss.PrefixRel.B_PROPER:
            continue
        direct = ss.mul(odo, s, u)
        mirrored = ss.star(odo, ss.mul(odo, ss.star(odo, u), ss.star(odo, s)))
        assert ss.element_eq(odo, direct, mirrored).is_equal


def product_or_error(thunk):
    try:
        return thunk()
    except Exception as err:  # the reference must raise the same error
        return type(err), str(err)


MIRROR_TRIPLES = {
    "odometer": ss.odometer,
    "katsura_3_2": ss.katsura_3_2,
    "adding_machine": ss.adding_machine,
    # Nonabelian: the adding machine a and the letter swap b.
    "two_state_automaton": lambda: ss.from_automaton(
        ss.AutomatonData.make(["0", "1"], ["a", "b"], [[1, 0], [1, 0]], [[(), (1,)], [(), ()]])
    ),
    "multi_vertex": lambda: ss.from_katsura(
        ss.KatsuraData.make([[1, 1], [2, 1]], [[0, 1], [3, -1]])
    ),
}


@pytest.mark.parametrize("name", list(MIRROR_TRIPLES))
def test_mirror_case_matches_adjoint_of_first_case(name):
    """mul in the case beta = gamma.eps against star(mul(star u, star s)).

    The multi-vertex domain ignores the source condition, so some products
    fail to concatenate; both sides must then raise the same error.
    """
    t = MIRROR_TRIPLES[name]()
    window = ss.default_window(t.group, 2)
    paths = ss.all_paths_upto(t.graph, 3)
    rng = random.Random(f"mirror-{name}")
    domain = [
        ss.Triple(rng.choice(paths), rng.choice(window), rng.choice(paths)) for _ in range(250)
    ]
    pairs = 0
    for s in domain:
        for u in domain:
            if ss.prefix_compare(s.beta, u.alpha) != ss.PrefixRel.B_PROPER:
                continue
            pairs += 1
            direct = product_or_error(lambda: ss.mul(t, s, u))
            reference = product_or_error(
                lambda: ss.star(t, ss.mul(t, ss.star(t, u), ss.star(t, s)))
            )
            assert direct == reference
    assert pairs > 1000


def test_semigroup_laws_small_sweep(odo):
    window = ss.default_window(odo.group, 1)
    elems = elements_upto(odo, window, 1) + [ss.ZERO]
    for s in elems:
        sss = ss.mul(odo, ss.mul(odo, s, ss.star(odo, s)), s)
        assert ss.element_eq(odo, sss, s).is_equal
    for x, y, z in itertools.product(elems, repeat=3):
        lhs = ss.mul(odo, ss.mul(odo, x, y), z)
        rhs = ss.mul(odo, x, ss.mul(odo, y, z))
        assert ss.element_eq(odo, lhs, rhs).is_equal


def test_star_antimultiplicative_sweep(odo):
    window = ss.default_window(odo.group, 2)
    elems = elements_upto(odo, window, 2)
    for s in elems:
        for u in elems:
            lhs = ss.star(odo, ss.mul(odo, s, u))
            rhs = ss.mul(odo, ss.star(odo, u), ss.star(odo, s))
            assert ss.element_eq(odo, lhs, rhs).is_equal


def test_generator_relation_in_triple_form(odo):
    """u_g s_alpha = s_(g alpha) u_phi(g, alpha), read through triples."""
    for g in ss.default_window(odo.group, 3):
        for alpha in ss.all_paths_upto(odo.graph, 3):
            img, coc = odo.act_path(g, alpha)
            lhs = ss.mul(
                odo,
                ss.make_triple(odo, vpath(odo, img.range_vertex), g, vpath(odo, alpha.range_vertex)),
                ss.make_triple(odo, alpha, 0, vpath(odo, alpha.source_vertex)),
            )
            rhs = ss.mul(
                odo,
                ss.make_triple(odo, img, 0, vpath(odo, img.source_vertex)),
                ss.make_triple(
                    odo,
                    vpath(odo, img.source_vertex),
                    coc,
                    vpath(odo, odo.act_vertex(odo.group.inv(coc), img.source_vertex)),
                ),
            )
            assert ss.element_eq(odo, lhs, rhs).is_equal
            assert lhs.alpha == img and lhs.g == coc


def test_idempotent_order(odo):
    e0 = ss.unit_idempotent(odo, epath(odo, 0))
    e1 = ss.unit_idempotent(odo, epath(odo, 1))
    e01 = ss.unit_idempotent(odo, epath(odo, 0, 1))
    assert ss.idempotent_order(odo, e01, e0) == ss.IdempotentOrder.LEQ
    assert ss.idempotent_order(odo, e0, e01) == ss.IdempotentOrder.GEQ
    assert ss.idempotent_order(odo, e0, e1) == ss.IdempotentOrder.ORTHOGONAL
    assert ss.idempotent_order(odo, e0, e0) == ss.IdempotentOrder.EQUAL
    with pytest.raises(NotIdempotentError):
        ss.idempotent_order(odo, ss.make_triple(odo, epath(odo, 0), 1, epath(odo, 1)), e0)


def test_zero_sits_below_every_idempotent(odo):
    e0 = ss.unit_idempotent(odo, epath(odo, 0))
    assert ss.idempotent_order(odo, ss.ZERO, e0) == ss.IdempotentOrder.LEQ
    assert ss.idempotent_order(odo, e0, ss.ZERO) == ss.IdempotentOrder.GEQ
    assert ss.idempotent_order(odo, ss.ZERO, ss.ZERO) == ss.IdempotentOrder.EQUAL


def test_is_idempotent_asks_the_backend_for_the_identity():
    # b.c.d = 1 in the Grigorchuk group, though the word is reduced and nonempty.
    t = dict(all_spec_triples())["grigorchuk"]
    v, bcd = ss.vertex_path(t.graph, 0), t.group.parse("b.c.d")
    assert bcd and t.group.eq(bcd, t.group.identity()).is_equal
    assert ss.is_idempotent(t, ss.Triple(v, bcd, v))
    assert not ss.is_idempotent(t, ss.Triple(v, t.group.parse("b.c"), v))
    assert ss.idempotent_order(t, ss.Triple(v, bcd, v), ss.unit_idempotent(t, v)) == ss.IdempotentOrder.EQUAL


class CountingIntegers(ss.IntegerGroup):
    """Integers that count their comparisons."""

    comparisons = 0

    def eq(self, a, b):
        self.comparisons += 1
        return super().eq(a, b)


class Zero_(int):
    """An int subclass: equal to 0, never the identity object itself."""


def test_the_identity_object_is_idempotent_at_once_and_other_values_ask_eq(odo):
    z = CountingIntegers()
    t = ss.SelfSimilarTriple(odo.graph, z, odo.act_vertex, odo.step, walk=odo.walk)
    a = epath(t, 0, 1)
    assert ss.is_idempotent(t, ss.Triple(a, 0, a)) and z.comparisons == 0
    a0, a1 = epath(t, 0, 1, 0), epath(t, 0, 1, 1)
    assert ss.is_cover(t, [ss.Triple(a0, 0, a0), ss.Triple(a1, 0, a1)], ss.Triple(a, 0, a))
    assert z.comparisons == 0
    assert not ss.is_idempotent(t, ss.Triple(a, 1, a)) and z.comparisons == 1
    assert ss.is_idempotent(t, ss.Triple(a, Zero_(0), a)) and z.comparisons == 2  # equal, not identical
    assert not ss.is_idempotent(t, ss.Triple(a, 0, epath(t, 0, 0))) and z.comparisons == 2
    # False == 0 but is no integer: it goes to eq, which refuses it, wherever an idempotent is asked for.
    bad, e = ss.Triple(a, False, a), ss.unit_idempotent(odo, a)
    for call in (lambda: ss.is_cover(odo, [e], bad), lambda: ss.is_cover(odo, [bad], e),
                 lambda: ss.idempotent_order(odo, bad, e), lambda: ss.idempotent_order(odo, e, bad)):
        with pytest.raises(BackendMismatchError, match="^False is not an element of integers$"):
            call()


def test_a_word_is_idempotent_as_far_as_eq_decides_it():
    # Two copies of the adding machine: a.b' acts as the identity, a reduced word all the same.
    faithful = load_spec_text(TWIN_MACHINE_SPEC + "faithful_depth = true\n").triple
    unfaithful = load_spec_text(TWIN_MACHINE_SPEC).triple
    for t, proved in ((faithful, True), (unfaithful, False)):
        v = vpath(t)
        word = t.group.parse("a.b'")
        assert word != t.group.identity() and t.group.eq(word, ()).is_equal == proved
        assert t.group.eq(word, ()).is_unknown != proved
        s, unit = ss.Triple(v, word, v), ss.unit_idempotent(t, v)
        assert ss.is_idempotent(t, s) == proved
        if proved:
            assert ss.is_cover(t, [s], unit) and ss.is_cover(t, [unit], s)
            assert ss.idempotent_order(t, s, unit) == ss.IdempotentOrder.EQUAL
            continue
        for call in (lambda: ss.is_cover(t, [s], unit), lambda: ss.is_cover(t, [unit], s),
                     lambda: ss.idempotent_order(t, s, unit), lambda: ss.idempotent_order(t, unit, s)):
            with pytest.raises(NotIdempotentError):
                call()


def test_idempotent_order_consistent_with_mul(odo):
    paths = ss.all_paths_upto(odo.graph, 3)
    for a in paths:
        for b in paths:
            e, f = ss.unit_idempotent(odo, a), ss.unit_idempotent(odo, b)
            rel = ss.idempotent_order(odo, e, f)
            prod = ss.mul(odo, e, f)
            if rel == ss.IdempotentOrder.ORTHOGONAL:
                assert prod == ss.ZERO
            elif rel in (ss.IdempotentOrder.LEQ, ss.IdempotentOrder.EQUAL):
                assert ss.element_eq(odo, prod, e).is_equal
            else:
                assert ss.element_eq(odo, prod, f).is_equal
            # commutes
            assert ss.element_eq(odo, prod, ss.mul(odo, f, e)).is_equal


def test_idempotents_intersect_their_range_vertex(odo):
    for a in ss.all_paths_upto(odo.graph, 4):
        e = ss.unit_idempotent(odo, a)
        ev = ss.unit_idempotent(odo, vpath(odo, a.range_vertex))
        assert ss.mul(odo, e, ev) != ss.ZERO


def test_cover_examples(odo):
    ev = ss.unit_idempotent(odo, vpath(odo))
    e0 = ss.unit_idempotent(odo, epath(odo, 0))
    e1 = ss.unit_idempotent(odo, epath(odo, 1))
    assert ss.is_cover(odo, [e0, e1], ev)
    assert not ss.is_cover(odo, [e0], ev)
    assert ss.is_cover(odo, [ev], ev)
    assert ss.is_cover(odo, [e0], e0)


def test_cover_vs_oracle_random(odo):
    rng = random.Random(11)
    paths = ss.all_paths_upto(odo.graph, 2)
    deeper = ss.all_paths_upto(odo.graph, 4)
    for target_path in paths:
        family = [
            p
            for p in deeper
            if ss.prefix_compare(target_path, p) in (ss.PrefixRel.EQUAL, ss.PrefixRel.A_PROPER)
        ]
        for _ in range(40):
            chosen = rng.sample(family, rng.randint(0, min(5, len(family))))
            members = [ss.unit_idempotent(odo, p) for p in chosen]
            target = ss.unit_idempotent(odo, target_path)
            assert ss.is_cover(odo, members, target) == cover_oracle(odo, members, target)


def test_cover_branch_ending_at_a_source_is_a_witness():
    # e_y lies below e_@a and meets neither member: y stops at the source b.
    t = source_vertex_triple()

    def path(*labels):
        return ss.edge_path(t.graph, [t.graph.edge_id(x) for x in labels])

    target = ss.unit_idempotent(t, ss.vertex_path(t.graph, t.graph.vertex_id("a")))
    members = [ss.unit_idempotent(t, path("x", "x")), ss.unit_idempotent(t, path("x", "y"))]
    assert not ss.is_cover(t, members, target)
    assert not cover_oracle(t, members, target)
    assert enumeration_cover(t, members, target)  # the enumeration never reaches y
    members.append(ss.unit_idempotent(t, path("y")))
    assert ss.is_cover(t, members, target)
    # A target at the source itself has no member below it.
    b = ss.unit_idempotent(t, ss.vertex_path(t.graph, t.graph.vertex_id("b")))
    assert not ss.is_cover(t, members, b)
    assert ss.is_cover(t, [b], b)


def test_cover_descent_needs_no_recursion(odo):
    # The comb e1, e0.e1, ..., e0^(n-1).e1, e0^n covers @v; it is deeper than
    # the interpreter's recursion limit.
    n = 1500
    target = ss.unit_idempotent(odo, vpath(odo))
    comb = [ss.unit_idempotent(odo, epath(odo, *([0] * k), 1)) for k in range(n)]
    tip = ss.unit_idempotent(odo, epath(odo, *([0] * n)))
    assert ss.is_cover(odo, comb + [tip], target)
    assert not ss.is_cover(odo, comb, target)


COVER_GRAPHS = spec_triples() + [("source_vertex", source_vertex_triple())]


@pytest.mark.parametrize("name,t", COVER_GRAPHS, ids=[name for name, _ in COVER_GRAPHS])
def test_cover_descent_vs_definition(name, t):
    rng = random.Random(f"cover-definition-{name}")
    targets = ss.all_paths_upto(t.graph, 2)
    paths = ss.all_paths_upto(t.graph, 3)
    outcomes = Counter()
    for _ in range(2000):
        members, target = random_cover_case(rng, t, targets, paths, depth=2)
        expected = cover_oracle(t, members, target, slack=1)
        assert ss.is_cover(t, members, target) == expected, [render(t, m) for m in members]
        outcomes[expected] += 1
    assert min(outcomes.values()) >= 300, outcomes  # both answers well represented


@pytest.mark.parametrize("name,t", spec_triples(), ids=[name for name, _ in spec_triples()])
def test_cover_descent_vs_enumeration(name, t):
    assert ss.validate_graph(t.graph).ok  # no sources: the enumeration is exact
    rng = random.Random(f"cover-enumeration-{name}")
    targets = ss.all_paths_upto(t.graph, 3)
    paths = ss.all_paths_upto(t.graph, 4)
    for _ in range(2000):
        members, target = random_cover_case(rng, t, targets, paths)
        expected = enumeration_cover(t, members, target)
        assert ss.is_cover(t, members, target) == expected, [render(t, m) for m in members]


def test_cover_refusals_match_enumeration(odo):
    ev = ss.unit_idempotent(odo, vpath(odo))
    e0 = ss.unit_idempotent(odo, epath(odo, 0))
    bad = ss.Triple(epath(odo, 0), 1, epath(odo, 0))
    for cover in (ss.is_cover, enumeration_cover):
        with pytest.raises(NotIdempotentError):
            cover(odo, [e0], ss.ZERO)
        with pytest.raises(NotIdempotentError):
            cover(odo, [e0], bad)
        with pytest.raises(NotIdempotentError):
            cover(odo, [e0, bad], ev)
        # A member at or above the target answers before later members are read.
        assert cover(odo, [ev, bad], e0)


def apply_element(t, s, eta, depth=64):
    """The partial map of a triple on path space: beta.xi -> alpha.(g xi)."""
    if isinstance(s, ss.Zero):
        return None
    if eta.truncate(len(s.beta)) != s.beta:
        return None
    xi = eta.drop(len(s.beta))
    return ss.act_inf_path(t, s.g, xi, depth).prepend(s.alpha)


def test_mul_matches_partial_map_composition(odo):
    """The product formula mirrors composition of the associated partial maps,
    and a zero product means the composite domain is empty."""
    window = ss.default_window(odo.group, 2)
    elems = elements_upto(odo, window, 2)
    points = [
        ss.periodic_path(odo.graph, pre, cyc)
        for pre in ((), (0,), (1,), (0, 1), (1, 1))
        for cyc in ((0,), (1,), (0, 1))
    ]
    rng = random.Random(19)
    for _ in range(800):
        s, u = rng.choice(elems), rng.choice(elems)
        prod = ss.mul(odo, s, u)
        for eta in points:
            inner = apply_element(odo, u, eta)
            both = apply_element(odo, s, inner) if inner is not None else None
            direct = apply_element(odo, prod, eta)
            if both is None:
                assert direct is None
            else:
                assert direct is not None
                assert ss.inf_path_eq(both, direct, 32).is_equal


def test_mul_composition_multi_vertex():
    t = ss.from_katsura(ss.KatsuraData.make([[1, 1], [2, 1]], [[1, 1], [1, -1]]))
    g = t.graph
    window = ss.default_window(t.group, 2)
    elems = elements_upto(t, window, 2)
    cycles = [
        p for p in ss.all_paths_upto(g, 2)
        if not p.is_vertex and p.range_vertex == p.source_vertex
    ]
    points = [ss.periodic_path(g, (), c.edges) for c in cycles]
    rng = random.Random(23)
    for _ in range(600):
        s, u = rng.choice(elems), rng.choice(elems)
        prod = ss.mul(t, s, u)
        for eta in points:
            inner = apply_element(t, u, eta)
            both = apply_element(t, s, inner) if inner is not None else None
            direct = apply_element(t, prod, eta)
            if both is None:
                assert direct is None
            else:
                assert direct is not None and ss.inf_path_eq(both, direct, 32).is_equal


def test_e_star_unitary_counterexample(kat20):
    report = ss.check_e_star_unitary(kat20, ss.default_window(kat20.group, 2), path_bound=2)
    assert report.kind == "counterexample"
    s, e = report.counterexample
    assert not ss.is_idempotent(kat20, s)
    assert ss.element_eq(kat20, ss.mul(kat20, s, e), e).is_equal


def test_e_star_unitary_odometer_unknown(odo):
    report = ss.check_e_star_unitary(odo, ss.default_window(odo.group, 3), path_bound=3)
    assert report.kind == "unknown"
    assert report.counterexample is None


def test_e_star_unitary_finite_holds(swap2):
    report = ss.check_e_star_unitary(swap2, ss.default_window(swap2.group, 1), path_bound=3)
    assert report.kind == "holds"


def test_e_star_unitary_refuses_the_windows_the_freeness_sweep_refuses(odo, swap2):
    with pytest.raises(ValueError, match="window must contain the identity"):
        ss.check_e_star_unitary(swap2, [1], 1)
    with pytest.raises(ValueError, match="window must be closed under inverses"):
        ss.check_e_star_unitary(odo, [0, 1], 1)


def test_e_star_unitary_trivial_group_holds():
    graph = ss.make_graph(["v"], [("e0", "v", "v"), ("e1", "v", "v")])
    group = ss.FiniteGroup(["e"], [[0]])
    t = ss.finite_triple(graph, group, [[0]], [[0, 1]], [[0, 0]], description="trivial group")
    report = ss.check_e_star_unitary(t, [0], path_bound=3)
    assert report.kind == "holds"
    assert ss.check_residually_free(t, [0]).kind == "holds"


def report_or_error(t, search, window, bound):
    try:
        return search(t, window, bound)
    except Exception as err:
        return err


def spec_parity_grid(name):
    """(radius, bound) pairs on which a spec's search is checked against the cube.

    Radius 0-4 x bound 0-3, with bound 4 at radius 0-1, and katsura_3_2 only
    at radius + bound <= 4 below bound 4: the cube costs up to |W|·|P|^3
    products, and the full 5 x 5 grid (katsura_3_2 at radius + bound <= 5)
    took about 74 s on a 2-vCPU machine.
    """
    if name == "katsura_3_2":
        return [(r, b) for r in range(5) for b in range(4) if r + b <= 4]
    return [(r, b) for r in range(5) for b in range(5) if b < 4 or r <= 1]


def assert_matches_cube(t, got, expected, window, bound):
    """The search answers as the cube does, but for a counterexample out of the cube's reach.

    The cube sees only window elements on paths up to the bound, so at bound
    0 it meets no edge. A counterexample at bound 0, or with its element
    outside the window, stands on its witness; any other verdict is the
    cube's, and a counterexample may carry another valid witness.
    """
    if got.kind == "counterexample":
        assert_dominates(t, got.counterexample)
        if bound == 0 or got.counterexample[0].g not in window:
            return
        assert expected.kind == "counterexample"
        assert got.window_size == expected.window_size
    else:
        assert got == expected


@pytest.mark.parametrize("name,t", spec_triples(), ids=[name for name, _ in spec_triples()])
def test_e_star_unitary_matches_cube_on_specs(name, t):
    if name == "broken_cocycle":  # outside the reduction to freeness: refused before any search
        with pytest.raises(SourceConditionError, match=r"cocycle-identity violated: \(g=1, h=1\) at e0"):
            ss.check_e_star_unitary(t, ss.default_window(t.group, 1), 1)
        return
    seen = set()  # a finite group's window is the whole group at every radius
    for radius, bound in spec_parity_grid(name):
        window = ss.default_window(t.group, radius)
        if (tuple(window), bound) in seen:
            continue
        seen.add((tuple(window), bound))
        assert_matches_cube(t, ss.check_e_star_unitary(t, window, bound), cube_e_star_unitary(t, window, bound),
                            window, bound)


def cyclic_group(n):
    return ss.FiniteGroup([str(i) for i in range(n)], [[(a + b) % n for b in range(n)] for a in range(n)])


def power_of(perm, k):
    result = tuple(range(len(perm)))
    for _ in range(k):
        result = tuple(perm[x] for x in result)
    return result


def random_finite_triple(rng):
    """A seeded Cayley triple over Z/2 or Z/3 on one or two vertices.

    Built to satisfy the axioms: the generator permutes the vertices (a swap
    only over Z/2) and the edges compatibly, with order dividing n, and its
    cocycle sums to 0 around every orbit of length n (1 on every edge under
    the swap, so that sigma_phi(g, e) = sigma_g on vertices). Half the
    triples then get one table entry changed at random (a no-op where
    the entry has one possible value).
    """
    n = rng.choice([2, 3])
    n_vertices = rng.choice([1, 2, 2])
    n_edges = rng.randint(1, 3)
    names = "uw"[:n_vertices]
    edges = [(f"e{i}", rng.choice(names), rng.choice(names)) for i in range(n_edges)]
    graph = ss.make_graph(list(names), edges)
    swap = n == 2 and n_vertices == 2 and rng.random() < 0.5
    pi = [1, 0] if swap else list(range(n_vertices))
    sigmas = [
        sigma
        for sigma in itertools.permutations(range(n_edges))
        if all(
            (graph.range_of[sigma[e]], graph.source_of[sigma[e]]) == (pi[graph.range_of[e]], pi[graph.source_of[e]])
            for e in graph.edges()
        )
        and power_of(sigma, n) == tuple(range(n_edges))
    ]
    if not sigmas:  # no edge permutation follows the swap
        pi = list(range(n_vertices))
        sigmas = [tuple(range(n_edges))]
    sigma = rng.choice(sigmas)
    if pi != list(range(n_vertices)):
        c = [1] * n_edges
    else:
        c = [rng.randrange(n) for _ in range(n_edges)]
        for e in graph.edges():
            orbit = [power_of(sigma, i)[e] for i in range(n)]
            if len(set(orbit)) == n and e == min(orbit):
                c[orbit[-1]] = -sum(c[x] for x in orbit[:-1]) % n
    vertex_table = [[power_of(pi, g)[v] for v in graph.vertices()] for g in range(n)]
    edge_table = [list(power_of(sigma, g)) for g in range(n)]
    cocycle_table = [
        [sum(c[power_of(sigma, i)[e]] for i in range(g)) % n for e in graph.edges()] for g in range(n)
    ]
    if rng.random() < 0.5:
        table, size, values = rng.choice(
            [(vertex_table, n_vertices, n_vertices), (edge_table, n_edges, n_edges)] * 2
            + [(cocycle_table, n_edges, n)]
        )
        row, col = rng.randrange(n), rng.randrange(size)
        if values > 1:
            table[row][col] = (table[row][col] + rng.randrange(1, values)) % values
    group = cyclic_group(n)
    return ss.finite_triple(graph, group, vertex_table, edge_table, cocycle_table)


def test_e_star_unitary_matches_cube_on_random_triples():
    rng = random.Random("e-star-random")
    outcomes = Counter()
    past_the_cube = 0  # edge counterexamples at bound 0, where the cube sees no edge
    for _ in range(1000):
        t = random_finite_triple(rng)
        window = list(t.group.elements()) if rng.random() < 0.7 else [0]
        bound = rng.randint(0, 2)
        expected = report_or_error(t, cube_e_star_unitary, window, bound)
        got = report_or_error(t, ss.check_e_star_unitary, window, bound)
        axioms_ok = ss.verify_axioms(t, ss.default_window(t.group, 1)).ok
        if isinstance(expected, Exception):
            assert isinstance(got, SourceConditionError), (expected, got)
            outcomes["cube raised"] += 1
        elif isinstance(got, SourceConditionError):
            assert not axioms_ok
            outcomes["refused past the cube"] += 1
        else:
            # Wherever the search answers, it answers as the cube does, up to what the cube cannot reach.
            assert_matches_cube(t, got, expected, window, bound)
            assert got.kind == expected.kind or bound == 0
            outcomes[("axioms ok" if axioms_ok else "axioms broken", got.kind)] += 1
            past_the_cube += got.kind != expected.kind
        if axioms_ok:
            assert not isinstance(got, Exception)
    assert sum(outcomes.values()) == 1000
    for kind in ["holds", "counterexample", "unknown"]:
        assert outcomes[("axioms ok", kind)] >= 100, outcomes
    assert outcomes["cube raised"] >= 50, outcomes
    assert past_the_cube >= 50, past_the_cube


def two_loop_triple(vertex_table, edge_table, cocycle_table=None, group=None):
    """Z/2 (or the given group) on loops a at u and b at w, trivial cocycle by default."""
    graph = ss.make_graph(["u", "w"], [("a", "u", "u"), ("b", "w", "w")])
    group = group or cyclic_group(2)
    cocycle_table = cocycle_table or [[0, 0] for _ in vertex_table]
    return ss.finite_triple(graph, group, vertex_table, edge_table, cocycle_table)


def test_e_star_unitary_refuses_an_identity_moving_a_vertex():
    # Both elements swap u and w, and the loops with them: sigma_0 sigma_0 != sigma_0.
    t = two_loop_triple([[1, 0], [1, 0]], [[1, 0], [1, 0]])
    with pytest.raises(SourceConditionError, match=r"action-hom-vertices violated: \(g=0, h=0\) at u"):
        ss.check_e_star_unitary(t, [0, 1], 2)
    with pytest.raises(SourceConditionError):  # the cube fails inside unit_idempotent
        cube_e_star_unitary(t, [0, 1], 2)


def test_e_star_unitary_refuses_a_step_breaking_range_equivariance():
    # 1 fixes both vertices but sends the loop at u to the loop at w.
    t = two_loop_triple([[0, 1], [0, 1]], [[0, 1], [1, 0]])
    with pytest.raises(SourceConditionError, match=r"range-equivariance violated: r\(sigma_1\(a\)\)"):
        ss.check_e_star_unitary(t, [0, 1], 2)
    with pytest.raises(CompositionError):  # the cube fails inside concat
        cube_e_star_unitary(t, [0, 1], 2)


def test_e_star_unitary_refuses_a_step_breaking_source_equivariance():
    # 1 fixes both vertices but swaps x (from u) with y (from w), both into u.
    graph = ss.make_graph(["u", "w"], [("x", "u", "u"), ("y", "u", "w"), ("z", "w", "w")])
    t = ss.finite_triple(graph, cyclic_group(2), [[0, 1], [0, 1]], [[0, 1, 2], [1, 0, 2]], [[0] * 3] * 2)
    with pytest.raises(SourceConditionError, match=r"source-equivariance violated: d\(sigma_1\(x\)\)"):
        ss.check_e_star_unitary(t, [0, 1], 2)


def test_e_star_unitary_certifies_no_element_moving_the_range_past_the_window():
    # 1 swaps u and w but fixes the loop a at u with cocycle 0: the cycle of a
    # has length 1 and sum 0, yet (@u, 1, @u) is no triple. The window [0]
    # checks no equivariance of 1, so both sweeps check the axioms on the
    # generators and refuse the triple.
    graph = ss.make_graph(["u", "w"], [("a", "u", "u"), ("b", "w", "w")])
    t = ss.integer_triple_from_generator(graph, [1, 0], [0, 1], [0, 0])
    for sweep in (ss.check_residually_free, ss.check_e_star_unitary):
        with pytest.raises(SourceConditionError, match=r"range-equivariance violated: r\(sigma_1\(a\)\)"):
            sweep(t, [0], 2)


class BlindGroup(ss.FiniteGroup):
    """A finite group that cannot decide whether one element is the identity."""

    def __init__(self, n, blind):
        super().__init__([str(i) for i in range(n)], [[(a + b) % n for b in range(n)] for a in range(n)])
        self.blind = blind

    def eq(self, a, b):
        if {a, b} == {self.blind, 0}:
            return unknown(1)
        return super().eq(a, b)


@pytest.mark.parametrize(
    "t",
    [
        # Whether the element 1, which fixes both vertices, is the identity is undecided.
        two_loop_triple([[0, 1], [0, 1]], [[0, 1], [0, 1]], group=BlindGroup(2, 1)),
        # 1 fixes both loops with cocycle 2, which cannot be told from the identity.
        two_loop_triple([[0, 1]] * 3, [[0, 1]] * 3, [[0, 0], [2, 2], [1, 1]], group=BlindGroup(3, 2)),
    ],
    ids=["element", "cocycle"],
)
def test_e_star_unitary_undecided_comparison_blocks_holds(t):
    window = list(t.group.elements())
    assert ss.verify_axioms(t, window).ok
    report = ss.check_e_star_unitary(t, window, 1)
    assert report == cube_e_star_unitary(t, window, 1)
    assert report.kind == "unknown"
    assert "(g=1, e=a) undecided at depth" in ss.check_residually_free(t, window, 1).undecided


def count_path_actions(t, monkeypatch):
    """Wrap t.act_path with a call counter; returns a one-element list holding the count."""
    calls = [0]
    act_path = t.act_path

    def counting(g, a):
        calls[0] += 1
        return act_path(g, a)

    monkeypatch.setattr(t, "act_path", counting)
    return calls


@pytest.mark.parametrize("name,t", spec_triples(), ids=[name for name, _ in spec_triples()])
def test_e_star_unitary_costs_one_action_per_element_and_path(name, t, monkeypatch):
    window = ss.default_window(t.group, 4)
    paths = ss.all_paths_upto(t.graph, 4)
    calls = count_path_actions(t, monkeypatch)
    if name == "broken_cocycle":  # refused by the axiom check, before any path action
        with pytest.raises(SourceConditionError, match="cocycle-identity violated"):
            ss.check_e_star_unitary(t, window, 4)
        assert calls[0] == 0
        return
    ss.check_e_star_unitary(t, window, 4)
    assert calls[0] <= len(window) * len(paths)


def test_e_star_unitary_holds_when_no_element_fixes_a_vertex():
    # 1 swaps u and w, and its cocycle 1 swaps them too: no (v, 1, v) exists.
    t = two_loop_triple([[0, 1], [1, 0]], [[0, 1], [1, 0]], [[0, 0], [1, 1]])
    assert ss.verify_axioms(t, [0, 1]).ok
    report = ss.check_e_star_unitary(t, [0, 1], 3)
    assert report == cube_e_star_unitary(t, [0, 1], 3)
    assert report.kind == "holds"
