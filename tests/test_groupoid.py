"""Germ equality, representatives, composition, lag, model, open sets."""

import copy
import inspect
import pickle
import random
import re
import sys
import threading
import time
import tracemalloc
from math import lcm

import pytest

import selfsim as ss
from selfsim import groupoid, groups
from selfsim.errors import (
    BackendMismatchError,
    DepthExceededError,
    EmptySetError,
    FreenessNotVerifiedError,
    NotComposableError,
    SelfSimError,
    SourceConditionError,
    UndecidedError,
)
from selfsim.groups import MAX_ENUMERATION, _Memo
from selfsim.infinite import _carry_walk
from selfsim.specfile import load_spec_file, load_spec_text
from conftest import (
    SPECS,
    TEST_SPECS,
    TWIN_MACHINE_SPEC,
    _full_depth_conditions,
    all_spec_triples,
    germ_coincidence_level,
    random_composable_pair,
    random_germ,
    random_inf_path,
    reference_open_set_member,
    split_loop_model_check,
)


@pytest.fixture(scope="module")
def ctx(odo):
    return ss.GermContext(odo, window=ss.default_window(odo.group, 4))


@pytest.fixture(scope="module")
def xi0(odo):
    return ss.periodic_path(odo.graph, [], [0])


@pytest.fixture(scope="module")
def xi1(odo):
    return ss.periodic_path(odo.graph, [], [1])


def vp(t):
    return ss.vertex_path(t.graph, 0)


def ep(t, *ids):
    return ss.edge_path(t.graph, ids)


def test_context_refuses_unfree_triple(kat20):
    with pytest.raises(FreenessNotVerifiedError) as refused:
        ss.GermContext(kat20)
    assert str(refused.value) == "freeness counterexample (m=1, e=(1,1,0)); pass allow_unverified to proceed"
    ctx = ss.GermContext(kat20, allow_unverified=True)
    assert ctx.freeness.found_counterexample


def contexts_by_depth(ctx):
    """depth -> a GermContext like ctx that answers at that depth, each built once."""
    cache = {ctx.depth: ctx}

    def at(depth):
        if depth not in cache:
            cache[depth] = ss.GermContext(ctx.triple, window=ctx.window, depth=depth)
        return cache[depth]

    return at


def test_depth_below_one_is_refused(ctx, odo):
    for depth in (0, -5):
        with pytest.raises(ValueError, match=f"^depth must be at least 1, got {depth}$"):
            ss.GermContext(odo, window=ctx.window, depth=depth)


def test_no_germ_operation_takes_a_depth():
    # A GermContext answers at the depth given to its constructor, and only there.
    for name, member in vars(ss.GermContext).items():
        if callable(member) and not name.startswith("_"):
            assert "depth" not in inspect.signature(member).parameters, name
    assert "depth" in inspect.signature(ss.GermContext).parameters


def test_depth_and_triple_stay_those_given_to_the_constructor(ctx, odo, swap2):
    # The freeness gate and the walk table hold for them alone.
    for name, value in (("depth", 1), ("triple", swap2)):
        with pytest.raises(AttributeError):
            setattr(ctx, name, value)
    assert (ctx.depth, ctx.triple) == (64, odo)


def test_make_validates(ctx, odo, xi0):
    with pytest.raises(SourceConditionError):
        # mismatched cylinder on a two-vertex graph (trivial action: not free,
        # so the context needs the explicit override)
        g = ss.make_graph(["u", "w"], [("a", "u", "w"), ("b", "w", "u")])
        t2 = ss.integer_triple_from_generator(g, [0, 1], [0, 1], [0, 0])
        ctx2 = ss.GermContext(t2, window=[0, 1, -1], allow_unverified=True)
        ctx2.make(ss.vertex_path(g, 0), 0, ss.vertex_path(g, 0), ss.periodic_path(g, [], [1, 0]))
    u = ctx.make(vp(odo), 1, vp(odo), xi0)
    assert u.alpha == vp(odo)


def test_source_and_range(ctx, odo, xi0):
    u = ctx.make(vp(odo), 1, vp(odo), xi0)
    assert ctx.range_prefix(u, 3).edges == (1, 0, 0)
    assert ctx.source_prefix(u, 3).edges == (0, 0, 0)
    unit = ctx.unit(ep(odo, 0), xi0)
    assert ctx.range_prefix(unit, 4) == ctx.source_prefix(unit, 4)
    w = ctx.make(ep(odo, 0), 0, ep(odo, 1), ss.periodic_path(odo.graph, [1], [0]))
    assert ctx.source_prefix(w, 3).edges == (1, 1, 0)


def test_germ_eq_absorption(ctx, odo, xi0):
    """[a,g,b; b gamma xi] equals the gamma-absorbed representative."""
    for g in (-2, 1, 3):
        for gamma_ids in ((0,), (1, 0), (1, 1)):
            gamma = ep(odo, *gamma_ids)
            u = ctx.make(vp(odo), g, vp(odo), xi0.prepend(gamma))
            img, coc = odo.act_path(g, gamma)
            w = ctx.make(img, coc, gamma, xi0)
            assert ctx.germ_eq(u, w).is_equal
            assert ctx.germ_eq(w, u).is_equal


def test_germ_eq_distinct_examples(ctx, odo, xi0, xi1):
    u = ctx.make(vp(odo), 1, vp(odo), xi0)
    assert ctx.germ_eq(u, ctx.make(ep(odo, 1), 1, ep(odo, 0), xi0)).is_distinct
    assert ctx.germ_eq(u, ctx.make(ep(odo, 1), 0, ep(odo, 0), xi0)).is_equal
    # different source points
    assert ctx.germ_eq(u, ctx.make(vp(odo), 1, vp(odo), xi1)).is_distinct


def test_germ_eq_is_equivalence_on_samples(ctx):
    rng = random.Random(3)
    germs = [random_germ(rng, ctx, 2) for _ in range(40)]
    for u in germs:
        assert ctx.germ_eq(u, u).is_equal
    for u in germs:
        for v in germs:
            uv = ctx.germ_eq(u, v)
            vu = ctx.germ_eq(v, u)
            assert uv.verdict == vu.verdict
    for u in germs:
        for v in germs:
            if not ctx.germ_eq(u, v).is_equal:
                continue
            for w in germs:
                if ctx.germ_eq(v, w).is_equal:
                    assert ctx.germ_eq(u, w).is_equal


def test_reparametrize(ctx, odo, xi0):
    u = ctx.make(vp(odo), 1, vp(odo), xi0)
    r = ctx.reparametrize(u, 2, "beta")
    assert r.alpha.edges == (1, 0) and r.g == 0 and r.beta.edges == (0, 0)
    assert ctx.germ_eq(u, r).is_equal
    assert ctx.reparametrize(u, 0, "beta") is u
    r2 = ctx.reparametrize(u, 3, "alpha")
    assert len(r2.alpha) == 3 and ctx.germ_eq(u, r2).is_equal
    with pytest.raises(ValueError):
        ctx.reparametrize(r, 1, "beta")


def test_compose_unit_laws(ctx, odo, xi0):
    u = ctx.make(ep(odo, 0), 1, ep(odo, 1), ss.periodic_path(odo.graph, [1], [0]))
    src_unit = ctx.unit(ep(odo, 1), u.xi)
    rng_unit = ctx.unit(ss.vertex_path(odo.graph, 0), ctx.range_point(u))
    assert ctx.germ_eq(ctx.compose(u, src_unit), u).is_equal
    assert ctx.germ_eq(ctx.compose(rng_unit, u), u).is_equal


def test_compose_integer_addition(ctx, odo, xi0, xi1):
    u = ctx.make(vp(odo), 1, vp(odo), xi1)
    w = ctx.make(vp(odo), 1, vp(odo), xi0)
    # source(u) = (e1)*; range(w) = 1 . (e0)* = e1 (e0)*  -- not composable
    with pytest.raises(NotComposableError):
        ctx.compose(u, w)
    # u acts at (e1)*: compose w' with source matching
    w2 = ctx.make(vp(odo), 1, vp(odo), ss.act_inf_path(odo, 1, xi1))
    prod = ctx.compose(w2, u)
    assert prod.g == 2
    assert ctx.germ_eq(prod, ctx.make(vp(odo), 2, vp(odo), xi1)).is_equal


def test_compose_refuses_diverging_prefixes_and_undecided_tails(ctx, odo, xi0):
    u1, u2 = ctx.make(vp(odo), 0, ep(odo, 0), xi0), ctx.make(ep(odo, 1), 0, vp(odo), xi0)
    with pytest.raises(NotComposableError, match="source and range prefixes diverge"):
        ctx.compose(u1, u2)
    stream = ss.stream_path(odo.graph, [0, 0, 0])
    with pytest.raises(UndecidedError, match="composability undecided at depth 64"):
        ctx.compose(ctx.unit(vp(odo), stream), ctx.unit(vp(odo), stream))


def test_compose_with_inverse_gives_unit(ctx):
    rng = random.Random(5)
    for _ in range(25):
        u = random_germ(rng, ctx, 2)
        inv = ctx.inverse(u)
        unit = ctx.compose(u, inv)
        assert ctx.germ_eq(unit, ctx.unit(u.alpha, ss.act_inf_path(ctx.triple, u.g, u.xi))).is_equal


def test_compose_associative_sampled(ctx):
    rng = random.Random(9)
    count = 0
    while count < 20:
        u2, u3 = random_composable_pair(rng, ctx, 2)
        # build u1 composable with u2
        u1, _ = random_composable_pair(rng, ctx, 2)
        # retarget: make u1's source equal u2's range by construction
        t = ctx.triple
        xi = ss.act_inf_path(t, u2.g, u2.xi)
        g1 = rng.choice(ctx.window)
        alphas = [
            p
            for p in ss.all_paths_upto(t.graph, 2)
            if p.source_vertex == t.act_vertex(g1, u2.alpha.source_vertex)
        ]
        u1 = ctx.make(rng.choice(alphas), g1, u2.alpha, xi)
        lhs = ctx.compose(ctx.compose(u1, u2), u3)
        rhs = ctx.compose(u1, ctx.compose(u2, u3))
        assert ctx.germ_eq(lhs, rhs).is_equal
        count += 1


def test_lag_examples(ctx, odo, xi0, xi1):
    u = ctx.make(vp(odo), 1, vp(odo), xi0)
    lag = ctx.lag(u)
    assert lag.shift == 0
    assert ss.corona_eq(lag.corona, ss.corona_identity(odo.group)).is_equal
    ones = ctx.lag(ctx.make(vp(odo), 1, vp(odo), xi1))
    assert ss.corona_eq(ones.corona, ss.PeriodicSeq.make(odo.group, (), (1,))).is_equal
    unit = ctx.unit(ep(odo, 0, 1), xi0.prepend(ep(odo, 0)))
    lag_u = ctx.lag(unit)
    assert lag_u.shift == 0
    assert ss.corona_eq(lag_u.corona, ss.corona_identity(odo.group)).is_equal
    shifted = ctx.lag(ctx.make(ep(odo, 0, 1), 0, vp(odo), xi1))
    assert shifted.shift == 2


def test_lag_respects_germ_equality(ctx):
    rng = random.Random(13)
    for _ in range(30):
        u = random_germ(rng, ctx, 2)
        r = ctx.reparametrize(u, len(u.beta) + rng.randint(1, 3), "beta")
        assert ss.lag_eq(ctx.lag(u), ctx.lag(r)).is_equal


def test_lag_multiplicative_sampled(ctx):
    rng = random.Random(17)
    for _ in range(60):
        u1, u2 = random_composable_pair(rng, ctx, 2)
        prod = ctx.compose(u1, u2)
        lhs = ctx.lag(prod)
        rhs = ss.lag_mul(ctx.lag(u1), ctx.lag(u2))
        assert ss.lag_eq(lhs, rhs).is_equal


def test_f_map_unit(ctx, odo, xi0):
    unit = ctx.unit(ep(odo, 0), xi0)
    rng_pt, lag, src_pt = ctx.f_map(unit)
    assert rng_pt == src_pt
    assert lag.shift == 0
    assert ss.corona_eq(lag.corona, ss.corona_identity(odo.group)).is_equal


def test_f_map_example(ctx, odo, xi0):
    u = ctx.make(vp(odo), 1, vp(odo), xi0)
    rng_pt, lag, src_pt = ctx.f_map(u)
    assert str(rng_pt) == "e1(e0)*"
    assert str(src_pt) == "(e0)*"
    assert lag.shift == 0


def test_f_map_constant_on_germ_classes(ctx):
    rng = random.Random(23)
    for _ in range(25):
        u = random_germ(rng, ctx, 2)
        r = ctx.reparametrize(u, len(u.beta) + rng.randint(1, 2), "beta")
        fu, fr = ctx.f_map(u), ctx.f_map(r)
        assert fu[0] == fr[0] and fu[2] == fr[2]
        assert ss.lag_eq(fu[1], fr[1]).is_equal


def test_model_check_of_f_map_and_pullback(ctx):
    rng = random.Random(29)
    for _ in range(30):
        u = random_germ(rng, ctx, 2)
        rng_pt, lag, src_pt = ctx.f_map(u)
        split = (len(u.alpha), len(u.beta))
        assert ctx.model_check(rng_pt, lag.corona, lag.shift, src_pt, split=split).is_equal
        assert ctx.model_check(rng_pt, lag.corona, lag.shift, src_pt).is_equal
        back = ctx.model_to_germ(rng_pt, lag.corona, lag.shift, src_pt, split)
        assert ctx.germ_eq(u, back).is_equal


def test_model_check_and_pullback_refuse_a_split_off_the_shift(ctx, odo, xi0):
    u = ctx.make(ep(odo, 0), 1, ep(odo, 1), xi0)
    eta, lag, zeta = ctx.f_map(u)
    message = "^split must be nonnegative with p - q = k$"
    # (1, 1) has p - q = 0, not the shift 5; (-1, -1) is negative.
    for k, split in ((5, (1, 1)), (0, (-1, -1))):
        with pytest.raises(ValueError, match=message):
            ctx.model_check(eta, lag.corona, k, zeta, split=split)
        with pytest.raises(ValueError, match=message):
            ctx.model_to_germ(eta, lag.corona, k, zeta, split)


def test_model_check_detects_mutation(ctx, odo, xi0):
    u = ctx.make(ep(odo, 0), 1, ep(odo, 1), xi0)
    rng_pt, lag, src_pt = ctx.f_map(u)
    p = len(u.alpha)
    # mutate the range point at position p + 2
    letters = list(rng_pt.truncate(p + 4).edges)
    letters[p + 1] ^= 1
    mutated = ss.periodic_path(odo.graph, letters, rng_pt.drop(p + 4).cycle_edges)
    split = (len(u.alpha), len(u.beta))
    assert ctx.model_check(mutated, lag.corona, lag.shift, src_pt, split=split).is_distinct


def test_model_check_search_finds_split(ctx, odo, xi0):
    u = ctx.make(ep(odo, 0, 1), -2, ep(odo, 1), xi0)
    rng_pt, lag, src_pt = ctx.f_map(u)
    assert ctx.model_check(rng_pt, lag.corona, lag.shift, src_pt).is_equal


def test_f_injectivity_random(ctx):
    rng = random.Random(31)
    germs = [random_germ(rng, ctx, 2) for _ in range(60)]
    for u in germs:
        for v in germs:
            fu, fv = ctx.f_map(u), ctx.f_map(v)
            if fu[0] == fv[0] and fu[2] == fv[2] and ss.lag_eq(fu[1], fv[1]).is_equal:
                assert ctx.germ_eq(u, v).is_equal


def test_normalize_basic(ctx, odo, xi0):
    alpha, beta = vp(odo), vp(odo)
    eps = ep(odo, 0, 0)
    norm = ctx.normalize_basic(alpha, 1, beta, eps)
    assert norm[0].edges == (1, 0) and norm[1] == 0 and norm[2] == eps
    # idempotent
    again = ctx.normalize_basic(*norm, norm[2])
    assert again == norm
    # vacuous restriction
    assert ctx.normalize_basic(ep(odo, 0), 0, ep(odo, 1), vp(odo))[2] == ep(odo, 1)
    with pytest.raises(EmptySetError):
        ctx.normalize_basic(ep(odo, 0), 0, ep(odo, 1), ep(odo, 0))


def test_open_set_membership(ctx, odo, xi0, xi1):
    u = ctx.make(ep(odo, 0), 1, ep(odo, 1), xi0)
    assert ctx.open_set_member(u, ep(odo, 0), 1, ep(odo, 1)).is_equal
    # germ-equal representative is also a member
    r = ctx.reparametrize(u, 2, "beta")
    assert ctx.open_set_member(r, ep(odo, 0), 1, ep(odo, 1)).is_equal
    # source outside the cylinder
    w = ctx.make(ep(odo, 0), 1, ep(odo, 0), xi0)
    assert ctx.open_set_member(w, ep(odo, 0), 1, ep(odo, 1)).is_distinct
    # four-component form restricts the source cylinder
    assert ctx.open_set_member(u, ep(odo, 0), 1, ep(odo, 1), ep(odo, 1, 0)).is_equal
    assert ctx.open_set_member(u, ep(odo, 0), 1, ep(odo, 1), ep(odo, 1, 1)).is_distinct


def test_open_set_membership_past_a_short_stream_is_unknown(ctx, odo):
    shallow = contexts_by_depth(ctx)(8)
    u = shallow.unit(vp(odo), ss.stream_path(odo.graph, [0, 1]))
    beta = ep(odo, 0, 1, 0)
    assert str(shallow.open_set_member(u, beta, 0, beta)) == "unknown@8"


def test_germ_eq_past_the_carry_budget_raises_and_open_set_membership_is_unknown():
    # a acts as 1 on doubling, but its carry words double at every letter: no walk decides it.
    doubling = load_spec_file(str(TEST_SPECS / "doubling.spec")).triple
    ctx = ss.GermContext(doubling, window=ss.default_window(doubling.group, 1))
    v = vp(doubling)
    u = ctx.make(v, doubling.group.generator(0), v, ss.periodic_path(doubling.graph, [], [0]))
    with pytest.raises(DepthExceededError, match="pass 100000 letters"):
        ctx.germ_eq(u, ctx.unit(v, u.xi))
    assert str(ctx.open_set_member(u, v, doubling.group.identity(), v)) == "unknown@64"


def test_a_stream_member_whose_elements_agree_is_equal(ctx, odo):
    # Its source point is u's own, so the tails need no comparison; germ_eq cannot confirm two streams.
    u = ctx.make(ep(odo, 0), 1, ep(odo, 1), ss.stream_path(odo.graph, [0, 1] * 20))
    reparametrized = ctx.reparametrize(u, 3, "beta")
    for germ in (u, reparametrized):
        assert str(ctx.open_set_member(germ, ep(odo, 0), 1, ep(odo, 1))) == "equal"
        assert str(reference_open_set_member(ctx, germ, ep(odo, 0), 1, ep(odo, 1))) == "unknown@40"


def test_an_exhausted_stream_is_answered_from_its_own_paths(ctx, odo, exhausted_stream_germ):
    # No letter is known past u.beta; the oracle reads one for the source point and raises.
    u = exhausted_stream_germ
    cases = (((vp(odo), 3, vp(odo)), "equal"), ((u.alpha, u.g, u.beta), "unknown@64"),
             ((vp(odo), 3, ep(odo, 1)), "distinct"))
    for (alpha, g, beta), expected in cases:
        assert str(ctx.open_set_member(u, alpha, g, beta)) == expected
        with pytest.raises(DepthExceededError):
            reference_open_set_member(ctx, u, alpha, g, beta)


def test_open_set_membership_tests_the_cylinder_before_the_element():
    t = ss.from_katsura(ss.KatsuraData.make([[1, 1], [2, 1]], [[1, 1], [1, -1]]))
    ctx = ss.GermContext(t, window=ss.default_window(t.group, 3))
    graph = t.graph
    v1, v2 = ss.vertex_path(graph, 0), ss.vertex_path(graph, 1)
    inside, outside = ss.edge_path(graph, [graph.edge_id("(1,1,0)")]), ss.edge_path(graph, [graph.edge_id("(1,2,0)")])
    u = ctx.make(v1, 0, v1, ss.periodic_path(graph, [], [graph.edge_id("(1,1,0)")]))
    assert ctx.open_set_member(u, inside, 0, inside).is_equal
    # Outside the cylinder neither g nor d(alpha) = g d(beta) is checked.
    for alpha, g in ((v2, 0), (v1, "x"), (v2, "x")):
        assert ctx.open_set_member(u, alpha, g, outside).is_distinct
    with pytest.raises(SourceConditionError, match=r"^d\(alpha\) != g d\(beta\)$"):
        ctx.open_set_member(u, v2, 0, inside)
    with pytest.raises(BackendMismatchError):
        ctx.open_set_member(u, v2, "x", inside)
    # An empty set is refused before any of them.
    with pytest.raises(EmptySetError):
        ctx.open_set_member(u, v2, "x", inside, outside)


def test_model_round_trip_multi_vertex():
    # carries stay bounded here (entries of B do not exceed those of A)
    t = ss.from_katsura(ss.KatsuraData.make([[1, 1], [2, 1]], [[1, 1], [1, -1]]))
    ctx = ss.GermContext(t, window=ss.default_window(t.group, 3))
    rng = random.Random(41)
    for _ in range(20):
        u = random_germ(rng, ctx, 2)
        rng_pt, lag, src_pt = ctx.f_map(u)
        split = (len(u.alpha), len(u.beta))
        assert ctx.model_check(rng_pt, lag.corona, lag.shift, src_pt, split=split).is_equal
        back = ctx.model_to_germ(rng_pt, lag.corona, lag.shift, src_pt, split)
        assert ctx.germ_eq(u, back).is_equal


def test_unbounded_carry_orbit_degrades_honestly():
    """When the carry orbit never closes (B entry above A), the lag corona
    becomes a bounded stream and answers turn unknown instead of wrong."""
    t = ss.from_katsura(ss.KatsuraData.make([[1, 1], [2, 1]], [[1, 1], [3, -1]]))
    ctx = ss.GermContext(t, window=ss.default_window(t.group, 3))
    g = t.graph
    # cycle through the expanding edge (2,1,1): carries follow c -> (3c+1) div 2
    xi = ss.periodic_path(g, [], [g.edge_id("(1,2,0)"), g.edge_id("(2,1,1)")])
    u = ctx.make(ss.vertex_path(g, xi.range_vertex), 2, ss.vertex_path(g, xi.range_vertex), xi)
    lag = ctx.lag(u)
    assert isinstance(lag.corona, ss.BoundedSeq)
    rng_pt, lagv, src_pt = ctx.f_map(u)
    assert ctx.model_check(rng_pt, lagv.corona, lagv.shift, src_pt, split=(0, 0)).is_unknown


def test_germ_rendering(ctx, odo, xi0):
    u = ctx.make(ep(odo, 0), 1, ep(odo, 1), ss.periodic_path(odo.graph, [1], [0]))
    assert ctx.render(u) == "[e0, 1, e1; e1(e0)*]"
    unit = ctx.unit(ss.vertex_path(odo.graph, 0), xi0)
    assert ctx.render(unit) == "[@v, 0, @v; (e0)*]"


def test_hausdorff_reports(odo, kat20, swap2):
    ok = ss.hausdorff_report(odo, ss.default_window(odo.group, 4))
    assert ok.kind == "hausdorff"
    bad = ss.hausdorff_report(kat20, ss.default_window(kat20.group, 4))
    assert bad.kind == "not-implied" and bad.freeness.counterexample == (1, 0)
    fin = ss.hausdorff_report(swap2, ss.default_window(swap2.group, 1))
    assert fin.kind == "hausdorff" and fin.freeness.kind == "holds"


def test_second_hausdorff_sweep_computes_no_step(monkeypatch):
    # The doubling automaton's comparisons never close, so each one walks to
    # the comparison budget; the backend's memo answers the repeat.
    t = load_spec_file(str(TEST_SPECS / "doubling.spec")).triple
    group = t.group
    window = ss.default_window(group, 4)
    first = ss.hausdorff_report(t, window)
    sizes = (len(group._steps), group._steps.held, len(group._verdicts), group._verdicts.held)
    assert group._verdicts.held < MAX_ENUMERATION  # every comparison was kept
    computed = [0]
    keep = type(group._steps).keep

    def counting(memo, key, value, letters):
        computed[0] += 1
        keep(memo, key, value, letters)

    monkeypatch.setattr(type(group._steps), "keep", counting)  # called on each step or comparison worked out
    assert ss.hausdorff_report(t, window) == first
    assert computed[0] == 0
    assert (len(group._steps), group._steps.held, len(group._verdicts), group._verdicts.held) == sizes


def _path_actions(t, monkeypatch):
    """Wrap t.act_path; returns a list that counts the calls on vertex paths, single edges and longer paths."""
    calls = [0, 0, 0]
    act_path = t.act_path

    def counting(g, a):
        calls[min(len(a), 2)] += 1
        return act_path(g, a)

    monkeypatch.setattr(t, "act_path", counting)
    return calls


@pytest.mark.parametrize("name", sorted(p.stem for p in SPECS.glob("*.spec")))
def test_germ_gate_and_hausdorff_sweep_no_paths(name, monkeypatch):
    # Both run the sweep at path bound 1: each window element acts at most once
    # on each single-edge path per sweep, and no vertex path or longer path is acted on.
    t = load_spec_file(str(SPECS / f"{name}.spec")).triple
    calls = _path_actions(t, monkeypatch)
    window = ss.default_window(t.group, 4)
    if name == "broken_cocycle":  # the axiom check refuses it before any path action
        with pytest.raises(SourceConditionError, match="cocycle-identity violated"):
            ss.GermContext(t, window=window, allow_unverified=True)
        with pytest.raises(SourceConditionError, match="cocycle-identity violated"):
            ss.hausdorff_report(t, window)
        assert calls == [0, 0, 0]
        return
    ctx = ss.GermContext(t, window=window, allow_unverified=True)
    report = ss.hausdorff_report(t, window)
    assert calls[0] == 0
    assert calls[1] <= 2 * len(window) * t.graph.n_edges
    assert calls[2] == 0
    assert ctx.freeness.kind == report.freeness.kind == ss.check_residually_free(t, window).kind


def test_germ_eq_on_adding_machine_powers_is_exact_at_every_depth(machine):
    ctx = ss.GermContext(machine, window=ss.default_window(machine.group, 2))
    point = ss.periodic_path(machine.graph, [], [0])
    vertex = ss.vertex_path(machine.graph, 0)
    rng = random.Random(11)
    at = contexts_by_depth(ctx)

    def germ(n):
        return ctx.make(vertex, (1,) * n if n >= 0 else (-1,) * -n, vertex, point)

    for _ in range(12):
        n, m = rng.randint(-200, 200), rng.randint(-200, 200)
        moved = ((n - m) & (m - n)).bit_length()  # the first letter of 0^w that a^(n-m) moves
        for depth in range(1, 65):
            verdict = at(depth).germ_eq(germ(n), germ(m))
            if n == m:
                assert verdict.is_equal
            else:  # a shallower walk cannot tell the germs apart
                assert verdict.is_distinct if moved <= depth else verdict.is_unknown
            assert at(depth).germ_eq(germ(n), germ(n)).is_equal


# -- fast paths against their oracles -------------------------------------------


def test_germ_eq_matches_its_definition_on_every_spec():
    # Each germ [alpha, g, beta; xi] mostly meets [alpha, g.h, beta; xi] for h in the window,
    # reparametrized by up to two letters: the two are equal iff h strongly fixes
    # a prefix of xi. On a non-free triple that prefix may lie past the aligned level, where the
    # elements differ. Every decided verdict must agree with the definition up to 24 levels.
    past_aligned = {}
    for name, t in all_spec_triples():
        radius = 5 if isinstance(t.group, ss.IntegerGroup) else 1  # c5's counterexample is m = 5
        window = ss.default_window(t.group, radius)
        if name == "broken_cocycle":  # no germ groupoid: the axiom check refuses the triple
            with pytest.raises(SourceConditionError):
                ss.GermContext(t, window=window, allow_unverified=True)
            continue
        ctx = ss.GermContext(t, window=window, allow_unverified=True)
        group, rng = t.group, random.Random(17)
        decided = past_aligned[name] = 0
        for _ in range(80):
            u = random_germ(rng, ctx, 2)
            h = rng.choice(window)
            try:
                v = ctx.make(u.alpha, group.mul(u.g, h), u.beta, u.xi) if rng.random() < 0.8 else None
            except SourceConditionError:  # h moves the vertex of the point
                v = None
            if v is None:
                v = random_germ(rng, ctx, 2)
            v = ctx.reparametrize(v, len(v.beta) + rng.randint(0, 2))
            try:
                verdict = ctx.germ_eq(u, v)
            except DepthExceededError:  # doubling's carry words pass the letter budget
                continue
            if verdict.is_unknown:
                continue
            decided += 1
            level = germ_coincidence_level(t, u, v, 24)
            assert verdict.is_equal == (level is not None), (name, ctx.render(u), ctx.render(v), str(verdict))
            past_aligned[name] += bool(level)
        assert decided >= 30, name
    assert {name for name, count in past_aligned.items() if count} == {
        "c5", "grigorchuk", "katsura_2_0", "swap_zero_sum"
    }


def unfaithful_machine():
    """The adding machine without its faithfulness flag: words that act alike compare unknown."""
    text = (SPECS / "adding_machine.spec").read_text(encoding="utf-8")
    return load_spec_text(text.replace("faithful_depth = true", "faithful_depth = false")).triple


@pytest.fixture(scope="module")
def bench_contexts():
    """GermContexts at window radius 4 over the four germ benchmark triples."""
    triples = [load_spec_file(str(SPECS / f"{name}.spec")).triple
               for name in ("odometer", "katsura_3_2", "adding_machine")]
    triples.append(unfaithful_machine())
    return [ss.GermContext(t, window=ss.default_window(t.group, 4)) for t in triples]


@pytest.fixture(scope="module")
def oracle_contexts(bench_contexts, swap2):
    twin = load_spec_text(TWIN_MACHINE_SPEC).triple
    return bench_contexts + [
        ss.GermContext(swap2, window=ss.default_window(swap2.group, 4)),
        # Radius 2 keeps the two-generator window at 17 words.
        ss.GermContext(twin, window=ss.default_window(twin.group, 2)),
    ]


def outcome(call):
    """The value of call(), or the type of what it raised."""
    try:
        return call()
    except Exception as err:  # noqa: BLE001 - the exception type is the outcome
        return type(err)


def as_stream(xi, n):
    """The stream path of the first n letters of xi."""
    return ss.stream_path(xi.graph, [xi.letter(i) for i in range(1, n + 1)])


def random_periodic_seq(rng, ctx):
    def entries(lo, hi):
        return [rng.choice(ctx.window) for _ in range(rng.randint(lo, hi))]

    return ss.PeriodicSeq.make(ctx.triple.group, entries(0, 2), entries(1, 2))


def mutate(rng, ctx, eta, gseq):
    """Change one letter of eta (to a parallel edge), or one entry of gseq
    before or in its cycle."""
    graph, group = ctx.triple.graph, ctx.triple.group
    n = len(eta.prefix_edges) + len(eta.cycle_edges) + rng.randint(1, 3)
    letters = [eta.letter(i) for i in range(1, n + 1)]
    i = rng.randrange(n)
    parallel = [e for e in graph.edges()
                if e != letters[i] and graph.range_of[e] == graph.range_of[letters[i]]
                and graph.source_of[e] == graph.source_of[letters[i]]]
    if parallel and rng.random() < 0.4:
        letters[i] = rng.choice(parallel)
        return ss.periodic_path(graph, letters, eta.drop(n).cycle_edges), gseq
    m = len(gseq.prefix) + rng.randint(1, 3)
    entries = [gseq.entry(j) for j in range(1, m + 1)]
    cycle = list(ss.shift_left(gseq, m).cycle)
    values = entries if rng.random() < 0.5 else cycle
    j = rng.randrange(len(values))
    # Prefer an element the backend cannot tell apart from the entry, if any.
    blurred = [g for g in ctx.window if group.eq(g, values[j]).is_unknown]
    values[j] = rng.choice(blurred or [g for g in ctx.window if g != values[j]])
    return eta, ss.PeriodicSeq.make(gseq.backend, entries, cycle)


def random_model_input(rng, ctx):
    """(eta, gseq, k, zeta): random, F(u)-derived, mutated, some stream-backed."""
    t = ctx.triple
    roll = rng.random()
    if roll < 0.3:
        eta, zeta = random_inf_path(rng, t), random_inf_path(rng, t)
        gseq, k = random_periodic_seq(rng, ctx), rng.randint(-3, 3)
    else:
        eta, lag, zeta = ctx.f_map(random_germ(rng, ctx, 3))
        gseq, k = lag.corona, lag.shift
        if roll < 0.55 and isinstance(eta, ss.PeriodicPath) and isinstance(gseq, ss.PeriodicSeq):
            eta, gseq = mutate(rng, ctx, eta, gseq)
        if rng.random() < 0.3:
            k = rng.randint(-3, 3)
    if rng.random() < 0.25:
        # Stream-backed: bound one or more of the three to a known prefix.
        if isinstance(eta, ss.PeriodicPath) and rng.random() < 0.6:
            eta = as_stream(eta, rng.randint(1, 40))
        if isinstance(zeta, ss.PeriodicPath) and rng.random() < 0.6:
            zeta = as_stream(zeta, rng.randint(1, 40))
        if isinstance(gseq, ss.PeriodicSeq) and rng.random() < 0.6:
            gseq = ss.BoundedSeq(gseq.backend, tuple(gseq.entry(n) for n in range(1, rng.randint(1, 40) + 1)))
    return eta, gseq, k, zeta


def random_split(rng, k):
    p = max(k, 0) + rng.randint(0, 4)
    return p, p - k


def test_model_check_matches_split_loop(oracle_contexts):
    rng = random.Random(41)
    verdicts = set()
    for ctx in oracle_contexts:
        at = contexts_by_depth(ctx)
        for _ in range(400):
            eta, gseq, k, zeta = random_model_input(rng, ctx)
            c = at(rng.randint(1, 80))
            split = random_split(rng, k) if rng.random() < 0.5 else None
            fast = outcome(lambda: c.model_check(eta, gseq, k, zeta, split=split))
            slow = outcome(lambda: split_loop_model_check(c, eta, gseq, k, zeta, split=split))
            assert fast == slow, (ctx.triple, str(eta), str(gseq), k, str(zeta), c.depth, split)
            periodic = all(isinstance(x, (ss.PeriodicPath, ss.PeriodicSeq)) for x in (eta, gseq, zeta))
            verdicts.add((periodic, fast.verdict))
    # Every verdict is reached on periodic inputs, undecided carries included.
    assert {v for periodic, v in verdicts if periodic} == {"equal", "distinct", "unknown"}


def counting_context(ctx):
    """A GermContext like ctx over a copy of its triple whose step counts its calls."""
    t = ctx.triple
    calls = [0]

    def step(g, e):
        calls[0] += 1
        return t.step(g, e)

    counted = ss.SelfSimilarTriple(t.graph, t.group, t.act_vertex, step, t.description)
    return ss.GermContext(counted, window=ctx.window), calls


def test_model_check_walks_preperiods_plus_one_period(oracle_contexts):
    rng = random.Random(43)
    for base_ctx in oracle_contexts:
        ctx, calls = counting_context(base_ctx)
        for _ in range(40):
            eta, lag, zeta = ctx.f_map(random_germ(rng, ctx, 3))
            gseq, k = lag.corona, lag.shift
            if not (isinstance(eta, ss.PeriodicPath) and isinstance(gseq, ss.PeriodicSeq)):
                continue
            period = lcm(len(gseq.cycle), len(zeta.cycle_edges), len(eta.cycle_edges))
            p, q = random_split(rng, k)
            base = max(len(gseq.prefix) - p, len(zeta.prefix_edges) - q, len(eta.prefix_edges) - p, 0)
            calls[0] = 0
            walked = outcome(lambda: _carry_walk(ctx.triple, gseq.entry(p + 1), zeta.drop(q), ctx.depth))
            walk, calls[0] = calls[0], 0
            # The walk of g_(p+1) along zeta from q, then at most the window, stepped.
            ctx.model_check(eta, gseq, k, zeta, split=(p, q))
            assert calls[0] <= walk + base + period
            # A kept walk is read from the table: at most the window is stepped.
            calls[0] = 0
            ctx.model_check(eta, gseq, k, zeta, split=(p, q))
            assert calls[0] <= base + period + (walk if isinstance(walked, type) else 0)
            # Without a split only the top split is walked, past every preperiod.
            calls[0] = 0
            ctx.model_check(eta, gseq, k, zeta)
            assert calls[0] <= period


def test_model_check_without_split_on_bounded_input_walks_nothing(oracle_contexts):
    rng = random.Random(47)
    for base_ctx in oracle_contexts:
        ctx, calls = counting_context(base_ctx)
        for _ in range(20):
            eta, lag, zeta = ctx.f_map(random_germ(rng, ctx, 3))
            zeta = as_stream(zeta, rng.randint(1, 40))
            calls[0] = 0
            assert ctx.model_check(eta, lag.corona, lag.shift, zeta) == ss.Tri("unknown", 64)
            assert calls[0] == 0


def test_model_check_of_f_map_reads_the_kept_walk(oracle_contexts):
    # F(u) at the split (|alpha|, |beta|) is read back from the walk that f_map kept:
    # no step, the first time or again, on periodic and on stream germs.
    rng = random.Random(61)
    for base_ctx in oracle_contexts:
        ctx, calls = counting_context(base_ctx)
        read = {"periodic": 0, "stream": 0}
        for _ in range(40):
            u = random_germ(rng, ctx, 3)
            kind = "stream" if rng.random() < 0.5 else "periodic"
            if kind == "stream":
                u = ctx.make(u.alpha, u.g, u.beta, as_stream(u.xi, rng.randint(20, 60)))
            try:
                eta, lag, zeta = ctx.f_map(u)
            except DepthExceededError:  # a walk past the letter budget is not kept
                continue
            split = (len(u.alpha), len(u.beta))
            for _ in range(2):
                calls[0] = 0
                verdict = ctx.model_check(eta, lag.corona, lag.shift, zeta, split=split)
                assert calls[0] == 0, (ctx.triple, ctx.render(u))
            assert verdict == split_loop_model_check(ctx, eta, lag.corona, lag.shift, zeta, split=split)
            read[kind] += 1
        assert min(read.values()) >= 10, (ctx.triple, read)


def test_carries_spelled_otherwise_are_stepped_from_where_they_differ():
    # On the twin machine a and b act alike but compare unknown. Along 1^n the walk of a
    # carries a; gseq carries a for m conditions, then b: from there every condition is
    # stepped from gseq's own entries, each once, and the verdict is the full-depth walk's.
    twin = load_spec_text(TWIN_MACHINE_SPEC).triple
    calls = [0]

    def step(g, e):
        calls[0] += 1
        return twin.step(g, e)

    n, m = 20_000, 100
    t = ss.SelfSimilarTriple(twin.graph, twin.group, twin.act_vertex, step, twin.description)
    ctx = ss.GermContext(t, window=ss.default_window(t.group, 1), depth=n)
    a, b = (1,), (2,)
    zeta, eta = ss.stream_path(t.graph, [1] * n), ss.stream_path(t.graph, [0] * n)
    gseq = ss.BoundedSeq(t.group, (a,) * (m + 1) + (b,) * (n - m))
    for walk in (n, 0):  # the first call walks n letters; the second reads the kept walk
        calls[0] = 0
        start = time.perf_counter()
        verdict = ctx.model_check(eta, gseq, 0, zeta, split=(0, 0))
        took = time.perf_counter() - start
        assert calls[0] == walk + n - m and took < 2.0, (calls[0], took)
    calls[0] = 0
    assert verdict == _full_depth_conditions(t, eta, gseq, 0, 0, zeta, n) == ss.Tri("unknown", n)
    assert calls[0] == n


def stream_model_input(rng, ctx):
    """(eta, gseq, k, zeta) = F(u) of a germ u on a stream of 20 to 60 letters: all three bounded."""
    u = random_germ(rng, ctx, 3)
    eta, lag, zeta = ctx.f_map(ctx.make(u.alpha, u.g, u.beta, as_stream(u.xi, rng.randint(20, 60))))
    return eta, lag.corona, lag.shift, zeta


def trivial_from(gseq, one):
    """The least index M with every known entry of gseq from M on the identity one, in value and type."""
    m = len(gseq.values)
    while m and gseq.values[m - 1] == one and type(gseq.values[m - 1]) is type(one):
        m -= 1
    return m + 1


def test_model_check_cuts_a_trivial_carry_as_the_full_depth_walk(oracle_contexts):
    """Past the point where the carries turn trivial, the model pass still steps and
    compares every condition, and answers as the full-depth walk."""
    rng = random.Random(59)
    past_trivial = changed_past = blurred_earlier = 0
    for base_ctx in oracle_contexts:
        ctx, calls = counting_context(base_ctx)
        t = ctx.triple
        graph, group, one = t.graph, t.group, t.group.identity()
        for _ in range(60):
            eta, gseq, k, zeta = stream_model_input(rng, ctx)
            p, q = random_split(rng, k)
            steps = min(ctx.depth, gseq.depth_limit - p - 1, zeta.depth_limit - q, eta.depth_limit - p)
            start = max(trivial_from(gseq, one), p + 1)  # eta letters from here on meet identity carries
            after, blurred = None, False
            roll = rng.random()
            if roll < 0.4 and start <= p + steps:
                # Change a letter of eta that the loop compares after the carry turned trivial.
                after = rng.randint(start, p + steps)
                letters = list(eta.letters)
                e = letters[after - 1]
                parallel = [f for f in graph.edges() if f != e and graph.range_of[f] == graph.range_of[e]
                            and graph.source_of[f] == graph.source_of[e]]
                if not parallel:
                    continue
                letters[after - 1] = rng.choice(parallel)
                eta = ss.stream_path(graph, letters)
            elif roll < 0.7:
                # Swap an earlier entry for one the backend cannot tell apart from it, if any.
                values = list(gseq.values)
                earlier = [m for m in range(p + 2, min(start, p + steps + 2)) if values[m - 1] != one]
                twins = [(m, w) for m in earlier for w in ctx.window if group.eq(w, values[m - 1]).is_unknown]
                if twins:
                    m, w = rng.choice(twins)
                    values[m - 1] = w
                    gseq, blurred = ss.BoundedSeq(group, tuple(values)), True
            calls[0] = 0
            fast = outcome(lambda: ctx.model_check(eta, gseq, k, zeta, split=(p, q)))
            fast_steps, calls[0] = calls[0], 0
            slow = outcome(lambda: _full_depth_conditions(t, eta, gseq, p, q, zeta, ctx.depth))
            slow_steps, calls[0] = calls[0], 0
            # The walk of g_(p+1) reads at most zeta's known letters from q; the conditions it
            # does not meet are stepped as the full-depth walk steps them.
            assert fast_steps <= min(ctx.depth, zeta.depth_limit - q) + slow_steps, (
                t, str(eta), str(gseq), k, str(zeta), (p, q))
            # Again, the walk is read from the table.
            assert outcome(lambda: ctx.model_check(eta, gseq, k, zeta, split=(p, q))) == fast
            assert calls[0] <= slow_steps, (t, str(eta), str(gseq), k, str(zeta), (p, q))
            assert fast == slow == split_loop_model_check(ctx, eta, gseq, k, zeta, split=(p, q)), (
                t, str(eta), str(gseq), k, str(zeta), (p, q))
            if after is not None:
                assert fast.is_distinct
            past_trivial += start <= p + steps
            changed_past += after is not None
            blurred_earlier += blurred
    assert past_trivial >= 100 and changed_past >= 30 and blurred_earlier >= 3, (past_trivial, changed_past, blurred_earlier)


def test_a_trivial_carry_ends_the_model_loop(odo):
    """Once the carry turns trivial the model loop still steps every condition to the
    largest depth, answers as the full-depth walk, and finishes in time."""
    calls = [0]

    def step(g, e):
        calls[0] += 1
        return odo.step(g, e)

    n = MAX_ENUMERATION
    t = ss.SelfSimilarTriple(odo.graph, odo.group, odo.act_vertex, step, odo.description)
    ctx = ss.GermContext(t, window=[0], depth=n)
    u = ctx.make(vp(t), 1, vp(t), ss.stream_path(t.graph, [0] * (n + 1)))
    eta, lag, zeta = ctx.f_map(u)
    calls[0] = 0
    start = time.perf_counter()
    verdict = ctx.model_check(eta, lag.corona, lag.shift, zeta, split=(0, 0))
    took = time.perf_counter() - start
    assert calls[0] <= n and took < 2.0, (calls[0], took)  # the walk is too long to keep
    assert verdict == _full_depth_conditions(t, eta, lag.corona, 0, 0, zeta, n) == ss.Tri("unknown", n - 1)


def test_a_split_far_past_the_preperiods_builds_no_entry_before_it(odo, xi0):
    ctx = ss.GermContext(odo, window=[0], depth=10**7)
    eta, lag, zeta = ctx.f_map(ctx.make(vp(odo), 3, vp(odo), xi0))
    tracemalloc.start()
    try:
        verdicts = [ctx.model_check(eta, lag.corona, lag.shift, zeta, split=(10**7, 10**7)),
                    ctx.model_check(eta, lag.corona, lag.shift, zeta)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [v.is_equal for v in verdicts] == [True, True]
    assert peak < 1_000_000, f"peak {peak} bytes traced"


def test_a_long_window_failing_at_its_first_condition_builds_no_window(odo):
    # Cycles of 211, 227 and 223 letters: a window of 10,681,031 conditions, checked up to the
    # limit; condition 1 fails, and no window of the limit's length is built before it.
    eta = ss.periodic_path(odo.graph, [], [1] + [0] * 210)
    gseq = ss.PeriodicSeq.make(odo.group, (), (1,) + (0,) * 226)
    zeta = ss.periodic_path(odo.graph, [], [1] + [0] * 222)
    ctx = ss.GermContext(odo, window=[0])
    tracemalloc.start()
    try:
        verdict = ctx.model_check(eta, gseq, 0, zeta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.is_distinct
    assert peak < 500_000, f"peak {peak} bytes traced"


@pytest.fixture
def exhausted_stream_germ(ctx, odo):
    """A stream germ reparametrized over all five of its known letters."""
    xi = ss.stream_path(odo.graph, [0, 1, 0, 1, 1])
    u = ctx.make(vp(odo), 3, vp(odo), xi)
    return ctx.reparametrize(u, 5, "beta")


@pytest.mark.parametrize("operation", ["inverse", "range_point", "f_map"])
def test_exhausted_stream_is_undecided(ctx, exhausted_stream_germ, operation):
    with pytest.raises(DepthExceededError):
        getattr(ctx, operation)(exhausted_stream_germ)


def test_exhausted_stream_lag_needs_no_letter(ctx, exhausted_stream_germ):
    # Phi starts with the element itself: a bounded corona of alpha's five identities and g.
    assert str(ctx.lag(exhausted_stream_germ)) == "(0,0,0,0,0,0~, 0)"


def test_exhausted_stream_compose_is_undecided(ctx, odo, xi0, exhausted_stream_germ):
    u = exhausted_stream_germ
    left = ctx.unit(u.alpha, xi0)
    with pytest.raises(DepthExceededError):
        ctx.compose(left, u)


def same_inf_path(a, b) -> bool:
    if isinstance(a, ss.PeriodicPath) or isinstance(b, ss.PeriodicPath):
        return a == b
    return a.depth_limit == b.depth_limit and a.truncate(a.depth_limit) == b.truncate(b.depth_limit)


def same_lag(a, b) -> bool:
    if a.shift != b.shift or type(a.corona) is not type(b.corona):
        return False
    if isinstance(a.corona, ss.PeriodicSeq):
        return a.corona == b.corona
    return a.corona.values == b.corona.values


def test_f_map_matches_separate_calls(bench_contexts):
    rng = random.Random(53)
    for ctx in bench_contexts:
        at = contexts_by_depth(ctx)
        for _ in range(60):
            u = random_germ(rng, ctx, 3)
            if rng.random() < 0.4:
                u = ss.Germ(u.alpha, u.g, u.beta, as_stream(u.xi, rng.randint(1, 40)))
            c = at(rng.randint(1, 80))
            # Every germ here has a known letter, so both sides give values to compare.
            fused = c.f_map(u)
            separate = (c.range_point(u), c.lag(u), c.source_point(u))
            assert same_inf_path(fused[0], separate[0])
            assert same_lag(fused[1], separate[1])
            assert same_inf_path(fused[2], separate[2])


@pytest.fixture(scope="module")
def open_set_triples(oracle_contexts, kat20):
    """(triple, window, depths) for the open-set parity test: the oracle contexts, katsura_2_0
    past its freeness gate, a two-vertex Katsura triple (so that d(alpha) can miss g d(beta)),
    and doubling, whose walks of a nontrivial carry all end at the letter budget."""
    doubling = load_spec_file(str(TEST_SPECS / "doubling.spec")).triple
    two_vertex = ss.from_katsura(ss.KatsuraData.make([[1, 1], [2, 1]], [[1, 1], [1, -1]]))
    rows = [(c.triple, c.window, (1, 8, 64)) for c in oracle_contexts]
    rows.append((kat20, ss.default_window(kat20.group, 4), (1, 8, 64)))
    rows.append((two_vertex, ss.default_window(two_vertex.group, 3), (1, 8, 64)))
    rows.append((doubling, ss.default_window(doubling.group, 1), (64,)))
    return rows


def answer(call) -> str:
    """The verdict of call() as printed, or the type and message of what it raised."""
    try:
        return str(call())
    except Exception as err:  # noqa: BLE001 - the exception is the answer
        return f"{type(err).__name__}: {err}"


GAMMA_KINDS = ("absent", "at beta", "above beta", "below along the point", "below", "apart")


def random_open_set_case(rng, ctx):
    """(u, alpha, g, beta, gamma, kind of gamma) around a random germ w.

    u is w reparametrized over 0-3 letters, one in three stream-backed; (alpha, g, beta)
    is w's own triple reparametrized over 0-4 letters of w's periodic point, so |beta| falls
    below, at or above |u.beta| and may pass what a stream knows. One case in three then
    changes g (to a window element or a value outside the group), alpha or beta.
    """
    t = ctx.triple
    w = random_germ(rng, ctx, 2)
    u = ctx.reparametrize(w, len(w.beta) + rng.randint(0, 3))
    if rng.random() < 0.35:
        u = ss.Germ(u.alpha, u.g, u.beta, as_stream(u.xi, rng.choice((1, 2, 5, 8, 40))))
    s = ctx.reparametrize(w, len(w.beta) + rng.randint(0, 4))
    alpha, g, beta, point = s.alpha, s.g, s.beta, s.xi
    paths = ss.all_paths_upto(t.graph, 2)
    roll = rng.random()
    if roll < 0.1:
        g = rng.choice(ctx.window)
    elif roll < 0.14:
        g = "x"
    elif roll < 0.28:
        alpha = rng.choice(paths)
    elif roll < 0.36:
        beta = rng.choice(paths)
        point = None
    kind = rng.choice(GAMMA_KINDS)
    if kind == "at beta":
        gamma = beta
    elif kind == "above beta":
        gamma = beta.prefix(rng.randint(0, len(beta)))
    elif kind == "below along the point" and point is not None:
        gamma = ss.concat(beta, point.truncate(rng.randint(1, 3)))
    elif kind in ("below", "below along the point"):
        kind, gamma = "below", rng.choice(ss.extensions(beta, rng.randint(1, 2)))
    elif kind == "apart":
        apart = [p for p in paths if ss.prefix_compare(p, beta) is ss.PrefixRel.INCOMPARABLE]
        gamma = rng.choice(apart) if apart else None
        kind = kind if apart else "absent"
    else:
        gamma = None
    return u, alpha, g, beta, gamma, kind


def test_open_set_member_matches_make_and_germ_eq(open_set_triples):
    """Every answer, depth and error as the germ at u's source point compared by germ_eq,
    and the same walks kept. The one change: a stream member whose elements agree is equal
    (its source point is u's own), where germ_eq cannot confirm two stream tails."""
    rng = random.Random(27)
    answers, members, kinds, declared = set(), set(), set(), 0
    for triple, window, depths in open_set_triples:
        for depth in depths:
            fast, slow = (ss.GermContext(triple, window, depth, allow_unverified=True) for _ in range(2))
            for _ in range(60):
                u, alpha, g, beta, gamma, kind = random_open_set_case(rng, fast)
                got = answer(lambda: fast.open_set_member(u, alpha, g, beta, gamma))
                expected = answer(lambda: reference_open_set_member(slow, u, alpha, g, beta, gamma))
                stream = isinstance(u.xi, ss.StreamPath)
                if got != expected:
                    assert stream and expected.startswith("unknown@") and got == "equal", (
                        triple, depth, fast.render(u), str(alpha), g, str(beta), str(gamma), got, expected)
                    declared += 1
                answers.add((stream, got.split("@")[0].split(":")[0]))
                kinds.add(kind)
                if got == "equal":
                    n = len(fast.normalize_basic(alpha, g, beta, gamma)[2])
                    members.add((stream, (n > len(u.beta)) - (n < len(u.beta)), n == 0))
            # u first on ties, as germ_eq orients: every walk reads the key germ_eq's would.
            assert set(fast._walks) == set(slow._walks)
    assert declared > 0
    assert {(False, v) for v in ("equal", "distinct", "unknown")} <= answers
    assert {(True, v) for v in ("equal", "distinct", "unknown")} <= answers
    errors = {"EmptySetError", "BackendMismatchError", "SourceConditionError"}
    assert {(stream, e) for stream in (False, True) for e in errors} <= answers
    assert {(False, rel) for rel in (-1, 0, 1)} <= {(stream, rel) for stream, rel, _ in members}
    assert {(True, rel) for rel in (-1, 0, 1)} <= {(stream, rel) for stream, rel, _ in members}
    assert any(vertex for _, _, vertex in members)
    assert kinds == set(GAMMA_KINDS)


def test_repeated_window_elements_do_not_cover_the_group():
    # Z/2 acting trivially on one loop: 1 fixes it with trivial cocycle. The
    # window [0, 0] has two entries but not the element 1, so no consumer holds.
    graph = ss.make_graph(["v"], [("e", "v", "v")])
    t = ss.finite_triple(graph, ss.FiniteGroup(["0", "1"], [[0, 1], [1, 0]]), [[0], [0]], [[0], [0]], [[0], [0]])
    assert ss.check_residually_free(t, [0, 1]).counterexample == (1, 0)
    assert ss.check_residually_free(t, [0, 0]).kind == "unknown"
    assert ss.check_e_star_unitary(t, [0, 0]).kind == "unknown"
    assert ss.hausdorff_report(t, [0, 0]).freeness.kind == "unknown"
    assert ss.GermContext(t, window=[0, 0]).freeness.kind == "unknown"


# -- the walk table ----------------------------------------------------------------


def fresh_answers(ctx, u):
    """(range point, inverse point, lag) of u from a fresh walk of its carry orbit."""
    gxi, seq = _carry_walk(ctx.triple, u.g, u.xi, ctx.depth)
    lag = ss.LagValue(ss.shift_right(seq, len(u.alpha)), len(u.alpha) - len(u.beta))
    return gxi.prepend(u.alpha), gxi, lag


def reference_compose(ctx, u1, u2):
    """compose(u1, u2) with its tails checked against a fresh walk: (alpha, g, beta, xi) or an error type."""
    n = max(len(u1.beta), len(u2.alpha))
    r1, r2 = ctx.reparametrize(u1, n, "beta"), ctx.reparametrize(u2, n, "alpha")
    if r1.beta != r2.alpha:
        return NotComposableError
    gxi = _carry_walk(ctx.triple, r2.g, r2.xi, ctx.depth)[0]
    tails = ss.inf_path_eq(r1.xi, gxi, ctx.depth)
    if not tails.is_equal:
        return NotComposableError if tails.is_distinct else UndecidedError
    return r1.alpha, ctx.triple.group.mul(r1.g, r2.g), r2.beta, r2.xi


def composed(ctx, u1, u2):
    w = outcome(lambda: ctx.compose(u1, u2))
    return w if isinstance(w, type) else (w.alpha, w.g, w.beta, w.xi)


def walk_letters(table):
    """The letters the entries of a walk table hold, counted as GermContext._walk counts them.

    A key is (g, prefix, cycle) for a periodic path, (g, letters) for a stream.
    """
    total = 0
    for (g, *read), (gxi, seq) in table.items():
        if isinstance(gxi, ss.PeriodicPath):
            image, carries = gxi.prefix_edges + gxi.cycle_edges, seq.prefix + seq.cycle
        else:
            image, carries = gxi.letters, seq.values
        total += sum(len(letters) for letters in read) + len(image)
        total += sum(len(c) if type(c) is tuple else 1 for c in (g, *carries))
    return total


def counted_orbits(monkeypatch):
    """Patch the context's carry walk to record each (g, xi) it walks."""
    walked = []
    walk = groupoid._carry_walk

    def counting(t, g, xi, depth, image=True):
        walked.append((g, xi))
        return walk(t, g, xi, depth, image)

    monkeypatch.setattr(groupoid, "_carry_walk", counting)
    return walked


def test_walk_table_answers_as_a_fresh_walk(oracle_contexts, monkeypatch):
    rng = random.Random(15)
    walked = counted_orbits(monkeypatch)
    for base in oracle_contexts:
        ctx = ss.GermContext(base.triple, window=base.window)  # a cold table
        germs = []
        for _ in range(40):
            u = random_germ(rng, ctx, 2)
            if rng.random() < 0.25:
                u = ss.Germ(u.alpha, u.g, u.beta, as_stream(u.xi, rng.randint(1, 40)))
            germs.append(u)
        others = [random_germ(rng, ctx, 2) for _ in germs]
        for rounds in ("cold", "warm"):
            walked.clear()
            for u, other in zip(germs, others):
                range_point, moved, lag = fresh_answers(ctx, u)
                assert same_inf_path(ctx.range_point(u), range_point)
                inverse = ctx.inverse(u)
                assert same_inf_path(inverse.xi, moved) and (inverse.alpha, inverse.beta) == (u.beta, u.alpha)
                assert same_lag(ctx.lag(u), lag)
                f_range, f_lag, f_source = ctx.f_map(u)
                assert same_inf_path(f_range, range_point) and same_lag(f_lag, lag)
                assert same_inf_path(f_source, ctx.source_point(u))
                for u1 in (inverse, other):
                    got, expected = composed(ctx, u1, u), reference_compose(ctx, u1, u)
                    if isinstance(expected, type):
                        assert got is expected
                    else:
                        assert got[:3] == expected[:3] and same_inf_path(got[3], expected[3])
            if rounds == "warm":
                # Streams and orbits that did not close are read back too: only walks that
                # raised (an exhausted stream's, say) are walked again.
                for g, xi in walked:
                    assert outcome(lambda: _carry_walk(ctx.triple, g, xi, ctx.depth)) is DepthExceededError
        assert len(ctx._walks) > 0
        assert ctx._walks.held == walk_letters(ctx._walks) <= MAX_ENUMERATION


def test_walk_table_checks_every_element_before_reading_it(odo, monkeypatch):
    xi = ss.periodic_path(odo.graph, [1], [0, 1])
    ctx = ss.GermContext(odo, window=ss.default_window(odo.group, 4))
    v = vp(odo)
    u = ctx.make(v, 1, v, xi)
    checked = []
    monkeypatch.setattr(odo.group, "check", lambda x: checked.append(x) or ss.IntegerGroup.check(odo.group, x))
    for rounds in ("cold", "warm"):
        expected = fresh_answers(ctx, u)[2]
        checked.clear()
        assert ctx.lag(u) == expected
        if rounds == "cold":
            # The element before the table, then the walk: g, every carry it reaches (1, 1, 0, 0, 0:
            # the state of step 2 recurs at step 4), and each distinct carry compared with itself.
            assert checked[:7] == [1, 1, 1, 1, 0, 0, 0] and sorted(checked[7:]) == [0, 0, 1, 1]
        else:
            assert checked == [1]  # a hit checks the element alone
        assert (1, xi.prefix_edges, xi.cycle_edges) in ctx._walks
    # A refused element neither reads nor writes the table, which holds the walk of the equal 1.
    reads, writes = [], []

    class Watched(_Memo):
        __slots__ = ()

        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

        def keep(self, key, value, letters):
            writes.append(key)
            super().keep(key, value, letters)

    ctx._walks, held = Watched(), dict(ctx._walks)
    ctx._walks.update(held)
    for bad in (True, 1.0, "1", [1]):
        for operation in ("range_point", "inverse", "lag", "f_map"):
            with pytest.raises(BackendMismatchError, match=f"^{re.escape(repr(bad))} is not an element of integers$"):
                getattr(ctx, operation)(ss.Germ(v, bad, v, xi))
    assert reads == writes == [] and dict(ctx._walks) == held


def test_walk_table_keeps_its_letter_budget(odo):
    ctx = ss.GermContext(odo, window=ss.default_window(odo.group, 4))
    v = vp(odo)
    xis = [ss.periodic_path(odo.graph, p, c) for p, c in [((), (0,)), ((), (1,)), ((1,), (0, 1)), ((0, 1), (1, 1, 0))]]
    germs = [ctx.make(v, g, v, xi) for g in range(-30000, 30000, 11) for xi in xis]
    for u in germs:
        ctx.lag(u)
    table = ctx._walks
    assert 0 < len(table) < len(germs)  # the walks filled it
    assert table.held == walk_letters(table) <= MAX_ENUMERATION
    assert table.held > MAX_ENUMERATION - 100
    # Full, it answers as before: kept walks from the table, the others afresh.
    for u in germs[::37] + germs[-40:]:
        range_point, moved, lag = fresh_answers(ctx, u)
        assert ctx.range_point(u) == range_point and ctx.f_map(u)[1] == lag
    assert table.held == walk_letters(table) <= MAX_ENUMERATION
    assert len(copy.deepcopy(ctx)._walks) == 0  # a copy starts empty


def _answer(op, *args) -> str:
    """op(*args) as printed, or the error it raised (a carry walk past its letter budget, say)."""
    try:
        return str(op(*args))
    except SelfSimError as err:
        return f"{type(err).__name__}: {err}"


def test_every_spec_triple_and_context_pickles():
    # Triples and contexts can be sent to a worker process; a copied context starts with an empty walk table.
    contexts = filled = 0
    for name, t in all_spec_triples():
        clone = pickle.loads(pickle.dumps(t))
        window = ss.default_window(t.group, 1)
        for a in ss.all_paths_upto(t.graph, 3):
            for g in window:
                assert clone.act_path(g, a) == t.act_path(g, a), (name, g, a)
        if name == "broken_cocycle":
            continue  # breaks the cocycle identity: no context is built over it
        ctx = ss.GermContext(t, window=window, allow_unverified=True)
        rng = random.Random(f"pickle-{name}")
        germs = [random_germ(rng, ctx) for _ in range(8)]
        pairs = list(zip(germs, germs[1:] + germs[:1])) + [(u, u) for u in germs]

        def answers(c):
            return [(_answer(c.germ_eq, u, v), _answer(c.lag, u)) for u, v in pairs]

        expected = answers(ctx)
        filled += len(ctx._walks) > 0
        copied = pickle.loads(pickle.dumps(ctx))
        assert len(copied._walks) == 0 and copied.depth == ctx.depth and copied.window == ctx.window
        assert answers(copied) == expected, name
        assert {"equal", "distinct"} <= {eq for eq, _ in expected}, name
        contexts += 1
    assert contexts == 11 and filled >= 8


def same_walk(a, b) -> bool:
    """Two (g.xi, Phi(g, xi)) pairs agree: streams and bounded sequences by their letters and entries."""
    (gxi_a, seq_a), (gxi_b, seq_b) = a, b
    return same_inf_path(gxi_a, gxi_b) and same_lag(ss.LagValue(seq_a, 0), ss.LagValue(seq_b, 0))


def test_streams_and_unclosed_orbits_are_kept(odo):
    doubling = load_spec_file(str(TEST_SPECS / "doubling.spec")).triple
    v = vp(doubling)
    zero = ss.periodic_path(doubling.graph, [], [0])
    window = ss.default_window(doubling.group, 1)
    a = doubling.group.generator(0)
    shallow = ss.GermContext(doubling, window=window, depth=3)
    u = shallow.make(v, a, v, zero)
    fresh = _carry_walk(doubling, a, zero, 3)
    assert isinstance(fresh[1], ss.BoundedSeq)  # the orbit does not close by depth 3
    for rounds in ("cold", "warm"):
        assert same_lag(shallow.lag(u), ss.LagValue(fresh[1], 0))
        assert same_inf_path(shallow.f_map(u)[0], fresh[0])
    assert same_walk(shallow._walks[(a, (), (0,))], fresh)
    deep = ss.GermContext(doubling, window=window)
    with pytest.raises(DepthExceededError):
        deep.lag(deep.make(v, a, v, zero))  # the carry words pass the letter budget
    assert len(shallow._walks) == 1 and len(deep._walks) == 0
    ctx = ss.GermContext(odo, window=ss.default_window(odo.group, 4))
    letters = (0, 1, 1, 0, 1)
    stream = ss.stream_path(odo.graph, letters)
    for g in (0, 3, -2):
        u = ctx.make(vp(odo), g, vp(odo), stream)
        fresh = _carry_walk(odo, g, stream, ctx.depth)
        for rounds in ("cold", "warm"):
            # The lag comes first: its walk builds and keeps the image too.
            assert same_lag(ctx.lag(u), ss.LagValue(fresh[1], 0))
            assert same_walk(ctx._walks[(g, letters)], fresh)
            assert same_inf_path(ctx.inverse(u).xi, fresh[0]) and same_inf_path(ctx.range_point(u), fresh[0])
            assert same_inf_path(ctx.f_map(u)[0], fresh[0])
        # An image read from one kept walk is one object, so two reads compare equal.
        assert ctx.inverse(u).xi is ctx.inverse(u).xi
    assert len(ctx._walks) == 3
    assert ctx._walks.held == walk_letters(ctx._walks)


def test_a_stream_walk_is_keyed_by_the_letters_it_reads(odo):
    ctx = ss.GermContext(odo, window=[0, 1, -1])
    rng = random.Random(24)
    letters = [rng.randrange(2) for _ in range(10**5)]
    u = ctx.make(vp(odo), 1, vp(odo), ss.stream_path(odo.graph, letters))
    gxi = ctx.inverse(u).xi
    ((g, read),) = ctx._walks
    assert g == 1 and read == tuple(letters[: ctx.depth])
    # A stream that differs only past the depth reads the same letters: its walk is read back.
    other = ctx.make(vp(odo), 1, vp(odo), ss.stream_path(odo.graph, letters[: ctx.depth] + [1 - letters[-1]]))
    assert ctx.inverse(other).xi is gxi and len(ctx._walks) == 1


def test_an_exhausted_stream_is_not_kept(odo, exhausted_stream_germ):
    ctx = ss.GermContext(odo, window=ss.default_window(odo.group, 4))
    u = exhausted_stream_germ
    for rounds in ("cold", "warm"):
        assert str(ctx.lag(u)) == "(0,0,0,0,0,0~, 0)"
        with pytest.raises(DepthExceededError):
            ctx.inverse(u)
    assert len(ctx._walks) == 0


@pytest.mark.parametrize("budget", [MAX_ENUMERATION, 600])
def test_threads_sharing_a_context_keep_the_walk_table_bound(budget, monkeypatch):
    machine = load_spec_file(str(SPECS / "adding_machine.spec")).triple  # cold backend memos too
    ctx = ss.GermContext(machine, window=ss.default_window(machine.group, 4))
    rng = random.Random(16)
    germs = [random_germ(rng, ctx, 2) for _ in range(80)]
    # A quarter on streams, whose walks the table keeps too.
    germs = [ss.Germ(u.alpha, u.g, u.beta, as_stream(u.xi, rng.randint(1, 40))) if i % 4 == 0 else u
             for i, u in enumerate(germs)]
    expected = [(fresh_answers(ctx, u), ctx.source_point(u)) for u in germs]
    ctx = ss.GermContext(machine, window=ctx.window)
    # A small budget makes the threads race for its last letters.
    monkeypatch.setattr(groups, "MAX_ENUMERATION", budget)
    failures = []
    deadline = time.monotonic() + 1.0

    def flood(seed):
        order = random.Random(seed)
        while time.monotonic() < deadline:
            i = order.randrange(len(germs))
            u, ((range_point, moved, lag), source) = germs[i], expected[i]
            f_range, f_lag, f_source = ctx.f_map(u)
            if not (same_inf_path(f_range, range_point) and same_lag(f_lag, lag)
                    and same_inf_path(f_source, source) and same_inf_path(ctx.inverse(u).xi, moved)):
                failures.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=flood, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    # A lost update would leave the count apart from the letters held.
    assert 0 < len(ctx._walks) and ctx._walks.held == walk_letters(ctx._walks) <= budget
    assert budget < MAX_ENUMERATION or any(len(key) == 2 for key in ctx._walks)  # stream walks were kept
