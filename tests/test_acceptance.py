"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Stated runtime budgets are asserted where the criterion gives one.
"""

import itertools
import random
import time

import pytest

import selfsim as ss
from selfsim.errors import SourceConditionError
from selfsim.specfile import load_spec_file
from conftest import (
    TEST_SPECS,
    checked_extensions,
    cover_oracle,
    example,
    generator,
    labeled_odometer,
    odometer_oracle,
    power,
    random_composable_pair,
    random_germ,
    spec_triples,
)
from test_semigroup import elements_upto


def report(number: int, text: str):
    print(f"PASS criterion {number}: {text}")


@pytest.fixture(scope="module")
def builtins():
    return {
        "odometer": example("odometer_katsura"),
        "katsura_3_2": example("katsura_3_2"),
        "z2_swap": example("z2_swap"),
    }


@pytest.fixture(scope="module")
def odo():
    return labeled_odometer()


@pytest.fixture(scope="module")
def odo_ctx(odo):
    return ss.GermContext(odo, window=ss.default_window(odo.group, 4))


def test_criterion_01_axiom_suite(builtins):
    start = time.monotonic()
    for name, triple in builtins.items():
        window = ss.default_window(triple.group, 4)
        rep = ss.verify_axioms(triple, window)
        assert not rep.violations, (name, rep.violations[:3])
        assert not rep.undecided, (name, rep.undecided[:3])
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"axiom suite took {elapsed:.1f}s"
    report(1, f"axioms hold on all three builtin triples ({elapsed:.2f}s)")


def test_criterion_02_extension_laws(odo):
    start = time.monotonic()
    window = [m for m in range(-4, 5)]
    paths = ss.all_paths_upto(odo.graph, 5)
    checks = 0
    group = odo.group
    for g in window:
        assert odo.act_path(g, ss.vertex_path(odo.graph, 0))[1] == g  # (c) phi(g, v) = g
        for a in paths:
            img, coc = odo.act_path(g, a)
            checks += 1
            assert len(img) == len(a)  # (iv)
            assert img.range_vertex == odo.act_vertex(g, a.range_vertex)  # (v)/(d)
            assert img.source_vertex == odo.act_vertex(g, a.source_vertex)  # (vi)/(e)
            for v in odo.graph.vertices():  # (vii)/(f)
                assert odo.act_vertex(coc, v) == odo.act_vertex(g, v)
            for n in range(len(a) + 1):  # (ix)/(g) and (x)/(h)
                left, right = a.prefix(n), a.drop(n)
                li, lc = odo.act_path(g, left)
                assert ss.concat(li, odo.act_path(lc, right)[0]) == img
                assert odo.act_path(lc, right)[1] == coc
    for a in paths:  # (viii)
        assert odo.act_path(0, a)[0] == a
    for g in window:
        for h in window:
            gh = group.mul(g, h)
            for a in paths:
                ha, phi_h = odo.act_path(h, a)
                checks += 1
                assert odo.act_path(gh, a)[0] == odo.act_path(g, ha)[0]  # (a)
                assert odo.act_path(gh, a)[1] == group.mul(odo.act_path(g, ha)[1], phi_h)  # (b)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"extension laws took {elapsed:.1f}s"
    report(2, f"recursion laws exhaustive on {checks} (g, path) combinations ({elapsed:.2f}s)")


def test_criterion_03_odometer_oracle(odo):
    mismatches = 0
    checks = 0
    for m in range(-8, 9):
        for a in ss.all_paths_upto(odo.graph, 10):
            if a.is_vertex:
                continue
            img, coc = odo.act_path(m, a)
            bits, carry = odometer_oracle(m, a.edges)
            checks += 1
            if img.edges != bits or coc != carry:
                mismatches += 1
    assert mismatches == 0
    report(3, f"binary addition oracle agrees on {checks} cases, |m| <= 8, |path| <= 10")


def test_criterion_04_semigroup_laws(odo):
    """Semigroup laws at the stated window; the associativity cube is run
    exhaustively at path length <= 1 and by seeded random cover at length 3,
    because the full 1575^3 cube is hours of CPython time (see ledger)."""
    start = time.monotonic()
    window = ss.default_window(odo.group, 3)
    full = elements_upto(odo, window, 3) + [ss.ZERO]

    for s in full:  # s s* s = s
        sss = ss.mul(odo, ss.mul(odo, s, ss.star(odo, s)), s)
        assert ss.element_eq(odo, sss, s).is_equal

    idems = [ss.unit_idempotent(odo, p) for p in ss.all_paths_upto(odo.graph, 3)] + [ss.ZERO]
    for e in idems:  # idempotents commute
        for f in idems:
            assert ss.element_eq(odo, ss.mul(odo, e, f), ss.mul(odo, f, e)).is_equal

    small = elements_upto(odo, window, 2) + [ss.ZERO]
    for s in small:  # star anti-multiplicativity, exhaustive at length <= 2
        for u in small:
            lhs = ss.star(odo, ss.mul(odo, s, u))
            rhs = ss.mul(odo, ss.star(odo, u), ss.star(odo, s))
            assert ss.element_eq(odo, lhs, rhs).is_equal
    rng = random.Random(404)
    for _ in range(60000):  # seeded cover of the full anti-multiplicativity domain
        s, u = rng.choice(full), rng.choice(full)
        lhs = ss.star(odo, ss.mul(odo, s, u))
        rhs = ss.mul(odo, ss.star(odo, u), ss.star(odo, s))
        assert ss.element_eq(odo, lhs, rhs).is_equal

    tiny = elements_upto(odo, window, 1) + [ss.ZERO]
    for x, y, z in itertools.product(tiny, repeat=3):  # associativity, exhaustive cube
        lhs = ss.mul(odo, ss.mul(odo, x, y), z)
        rhs = ss.mul(odo, x, ss.mul(odo, y, z))
        assert ss.element_eq(odo, lhs, rhs).is_equal
    for _ in range(120000):  # seeded cover of the stated cube
        x, y, z = rng.choice(full), rng.choice(full), rng.choice(full)
        lhs = ss.mul(odo, ss.mul(odo, x, y), z)
        rhs = ss.mul(odo, x, ss.mul(odo, y, z))
        assert ss.element_eq(odo, lhs, rhs).is_equal

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"semigroup laws took {elapsed:.1f}s"
    report(4, f"semigroup laws hold over {len(full)} elements ({elapsed:.1f}s)")


def _cover_test_graphs():
    g1 = ss.make_graph(["v"], [("e0", "v", "v"), ("e1", "v", "v")])
    g2 = ss.make_graph(["u", "w"], [("p", "u", "w"), ("q", "w", "u"), ("l", "u", "u")])
    g3 = ss.make_graph(
        ["u", "w", "x"],
        [("a", "u", "w"), ("b", "w", "x"), ("c", "x", "u"), ("d", "u", "u"), ("f", "w", "w")],
    )
    out = []
    for g in (g1, g2, g3):
        out.append(
            ss.integer_triple_from_generator(
                g, list(range(g.n_vertices)), list(range(g.n_edges)), [0] * g.n_edges
            )
        )
    return out


def test_criterion_05_cover_checker_vs_oracle():
    rng = random.Random(505)
    disagreements = 0
    cases = 0
    for t in _cover_test_graphs():
        for target_path in ss.all_paths_upto(t.graph, 2):
            target = ss.unit_idempotent(t, target_path)
            near = checked_extensions(target_path, 1) + checked_extensions(target_path, 2)
            # every subset of the short extension family
            for r in range(len(near) + 1):
                for chosen in itertools.combinations(near, min(r, 6)):
                    members = [ss.unit_idempotent(t, p) for p in chosen]
                    cases += 1
                    if ss.is_cover(t, members, target) != cover_oracle(t, members, target):
                        disagreements += 1
                if r >= 6:
                    break
            # seeded random families over paths of length <= 4
            family = [
                p
                for p in ss.all_paths_upto(t.graph, 4)
                if ss.prefix_compare(target_path, p)
                in (ss.PrefixRel.EQUAL, ss.PrefixRel.A_PROPER)
            ]
            for _ in range(40):
                chosen = rng.sample(family, rng.randint(0, min(6, len(family))))
                members = [ss.unit_idempotent(t, p) for p in chosen]
                cases += 1
                if ss.is_cover(t, members, target) != cover_oracle(t, members, target):
                    disagreements += 1
    assert disagreements == 0
    report(5, f"cover checker agrees with the brute-force oracle on {cases} cases")


def test_criterion_06_freeness_unitarity_bridge(odo):
    k20 = example("katsura_2_0")
    free_k20 = ss.check_residually_free(k20, ss.default_window(k20.group, 4), path_bound=4)
    unit_k20 = ss.check_e_star_unitary(k20, ss.default_window(k20.group, 4), path_bound=4)
    assert free_k20.kind == "counterexample" and unit_k20.kind == "counterexample"

    free_odo = ss.check_residually_free(odo, ss.default_window(odo.group, 4), path_bound=4)
    unit_odo = ss.check_e_star_unitary(odo, ss.default_window(odo.group, 4), path_bound=4)
    assert free_odo.kind == "unknown" and free_odo.counterexample is None
    assert unit_odo.kind == "unknown" and unit_odo.counterexample is None

    swap = example("z2_swap")
    free_swap = ss.check_residually_free(swap, ss.default_window(swap.group, 1))
    unit_swap = ss.check_e_star_unitary(swap, ss.default_window(swap.group, 1), path_bound=3)
    assert free_swap.kind == "holds" and unit_swap.kind == "holds"

    # At window 4 and bound 4 the two sweeps agree on every shipped spec that
    # keeps the axioms; both refuse broken_cocycle, which breaks one.
    kinds = {}
    for name, triple in spec_triples():
        window = ss.default_window(triple.group, 4)
        if name == "broken_cocycle":
            for sweep in (ss.check_residually_free, ss.check_e_star_unitary):
                with pytest.raises(SourceConditionError, match=r"cocycle-identity violated: \(g=1, h=1\) at e0"):
                    sweep(triple, window, path_bound=4)
            continue
        free = ss.check_residually_free(triple, window, path_bound=4)
        kinds[name] = free.kind
        unit = ss.check_e_star_unitary(triple, window, path_bound=4)
        assert free.kind == unit.kind, name
    assert kinds == {
        "adding_machine": "unknown",
        "katsura_2_0": "counterexample",
        "katsura_3_2": "unknown",
        "odometer": "unknown",
        "odometer_katsura": "unknown",
        "z2_swap": "holds",
    }
    # Test specs whose counterexamples lie outside the window: the E* witness
    # is the freeness certificate (h, f), as s = (r(f), h, r(f)) over e_f.
    for name, radius, bound in [("c5", 4, 4), ("swap_zero_sum", 4, 4), ("chain40", 1, 1), ("grigorchuk", 2, 2)]:
        triple = load_spec_file(str(TEST_SPECS / f"{name}.spec")).triple
        window = ss.default_window(triple.group, radius)
        free = ss.check_residually_free(triple, window, path_bound=bound)
        unit = ss.check_e_star_unitary(triple, window, path_bound=bound)
        assert free.kind == unit.kind == "counterexample", name
        h, f = free.counterexample
        s, e = unit.counterexample
        assert s.g == h and s.alpha == s.beta == ss.vertex_path(triple.graph, triple.graph.range_of[f]), name
        assert e == ss.unit_idempotent(triple, ss.edge_path(triple.graph, [f])), name
        kinds[name] = unit.kind
    report(6, f"freeness and E*-unitarity verdicts agree on three test pairs and all {len(kinds)} specs")


def test_criterion_07_lag_multiplicative(builtins):
    rng = random.Random(707)
    for name, triple in builtins.items():
        radius = 3 if name != "z2_swap" else 1
        ctx = ss.GermContext(triple, window=ss.default_window(triple.group, radius), depth=64)
        decided = 0
        failures = 0
        for _ in range(200):
            u1, u2 = random_composable_pair(rng, ctx, 2, depth=64)
            prod = ctx.compose(u1, u2)
            verdict = ss.lag_eq(ctx.lag(prod), ss.lag_mul(ctx.lag(u1), ctx.lag(u2)))
            if verdict.is_unknown:
                continue
            decided += 1
            if verdict.is_distinct:
                failures += 1
        assert failures == 0, name
        if name == "odometer":
            assert decided >= 190, f"only {decided}/200 decided"
    report(7, "lag is multiplicative on 200 composable pairs per builtin triple")


def test_criterion_08_model_round_trip(builtins):
    rng = random.Random(808)
    total = 0
    for name, triple in builtins.items():
        radius = 3 if name != "z2_swap" else 1
        ctx = ss.GermContext(triple, window=ss.default_window(triple.group, radius), depth=64)
        count = 68 if name != "z2_swap" else 64
        for _ in range(count):
            u = random_germ(rng, ctx, 2)
            rng_pt, lag, src_pt = ctx.f_map(u)
            split = (len(u.alpha), len(u.beta))
            assert ctx.model_check(rng_pt, lag.corona, lag.shift, src_pt, split=split).is_equal
            back = ctx.model_to_germ(rng_pt, lag.corona, lag.shift, src_pt, split)
            assert ctx.germ_eq(u, back).is_equal
            total += 1
    assert total == 200
    report(8, "concrete-model round trip holds for 200 sampled germs at depth 64")


def _all_short_inf_paths(graph):
    seen = {}
    for plen in range(0, 3):
        for prefix in checked_extensions(ss.vertex_path(graph, 0), plen):
            for clen in range(1, 4 - plen):
                for cycle in checked_extensions(ss.vertex_path(graph, prefix.source_vertex), clen):
                    if cycle.range_vertex != cycle.source_vertex:
                        continue
                    xi = ss.periodic_path(graph, prefix.edges, cycle.edges)
                    seen[(xi.prefix_edges, xi.cycle_edges)] = xi
    return list(seen.values())


def test_criterion_09_f_injectivity_exhaustive(odo):
    ctx = ss.GermContext(odo, window=ss.default_window(odo.group, 2), depth=64)
    paths = ss.all_paths_upto(odo.graph, 2)
    xis = _all_short_inf_paths(odo.graph)
    germs = []
    for alpha in paths:
        for g in ctx.window:
            for beta in paths:
                for xi in xis:
                    germs.append(ctx.make(alpha, g, beta, xi))
    buckets = {}
    for u in germs:
        rng_pt, lag, src_pt = ctx.f_map(u)
        buckets.setdefault((rng_pt, src_pt, lag.shift), []).append((u, lag))
    checked = 0
    for bucket in buckets.values():
        for (u, lu), (v, lv) in itertools.combinations(bucket, 2):
            if ss.corona_eq(lu.corona, lv.corona).is_equal:
                checked += 1
                assert ctx.germ_eq(u, v).is_equal
    report(9, f"equal F-images imply equal germs: {len(germs)} germs, {checked} coincident pairs")


def test_criterion_10_cross_constructor(builtins):
    machine = example("adding_machine")
    katsura = builtins["odometer"]
    a = generator(machine.group, 0)
    mismatches = 0
    cases = 0
    for m in (-3, -2, -1, 1, 2, 3):
        word = power(machine.group, a, m)
        for path in ss.all_paths_upto(katsura.graph, 10):
            if path.is_vertex:
                continue
            img_k, coc_k = katsura.act_path(m, path)
            img_a, coc_a = machine.act_path(word, ss.edge_path(machine.graph, path.edges))
            cases += 1
            if img_a.edges != img_k.edges or coc_a != power(machine.group, a, coc_k):
                mismatches += 1
    assert mismatches == 0
    report(10, f"adding machine matches the two-matrix odometer on {cases} path actions")


def test_criterion_11_cli_golden(capsys):
    from test_cli import CASES, GOLDEN
    from selfsim.cli import main

    for name, argv, expected_exit in CASES:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == expected_exit, name
        assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8"), name
    with capsys.disabled():
        report(11, f"CLI reports byte-identical on {len(CASES)} golden cases with exit codes")
