"""Axioms, the path recursion, infinite-path action, and freeness sweeps."""

import argparse
import random
import time

import pytest

import selfsim as ss
from selfsim import cli
from selfsim.automaton import AutomatonGroup
from selfsim.errors import InvalidMatricesError, SourceConditionError
from selfsim.sweeps import check_path_bound, require_axioms
from conftest import (
    TEST_SPECS,
    TWIN_MACHINE_SPEC,
    all_spec_triples,
    assert_certified,
    odometer_oracle,
    pairwise_freeness,
    spec_triples,
)
from selfsim.specfile import load_spec_file, load_spec_text


def edges_of(triple, *ids):
    return ss.edge_path(triple.graph, ids)


def test_verify_axioms_odometer(odo):
    report = ss.verify_axioms(odo, ss.default_window(odo.group, 2))
    assert report.ok


def test_verify_axioms_trivial_action(swap2):
    # trivial cocycle, all laws degenerate
    report = ss.verify_axioms(swap2, ss.default_window(swap2.group, 1))
    assert report.ok


def test_verify_axioms_detects_patched_cocycle(odo):
    broken = ss.SelfSimilarTriple(
        odo.graph,
        odo.group,
        vertex_act=odo.act_vertex,
        step=lambda m, e: (odo.step(m, e)[0], 1) if (m, e) == (1, 0) else odo.step(m, e),
    )
    report = ss.verify_axioms(broken, ss.default_window(odo.group, 2))
    assert any(v.law == "cocycle-identity" for v in report.violations)


def test_laws_the_backend_cannot_decide_are_undecided_not_violated():
    # a acts as the identity, but the backend is not flagged faithful: a word is never proved equal to 1.
    group = AutomatonGroup(["a"], 2, [[0, 1]], [[(), ()]])
    graph = ss.make_graph(["v"], [("0", "v", "v"), ("1", "v", "v")])
    t = ss.SelfSimilarTriple(graph, group, lambda g, v: v,
                             lambda g, e: (e, (1, 1)) if g == () else group.step(g, e))
    report = ss.verify_axioms(t, group.window(1))
    assert report.violations == () and not report.ok
    assert {v.law for v in report.undecided} == {"cocycle-at-one", "cocycle-identity"}
    require_axioms(t)  # undecided laws pass
    printed = []
    assert cli._cmd_validate(t, argparse.Namespace(), printed.append) == 2  # exit 2: undecided
    assert printed[:2] == ["graph: ok", "axioms: cocycle-at-one undecided: phi(1, 0) != 1"]


def test_verify_axioms_rejects_bad_window(odo):
    with pytest.raises(ValueError):
        ss.verify_axioms(odo, [1, 2])  # no identity
    with pytest.raises(ValueError):
        ss.verify_axioms(odo, [0, 1])  # not inverse-closed


def random_generator_triple(rng):
    """Up to three vertices and five edges, each moved by a random generator: most break a law."""
    vertices = [f"v{i}" for i in range(rng.randint(1, 3))]
    edges = [(f"e{i}", rng.choice(vertices), rng.choice(vertices)) for i in range(rng.randint(1, 5))]
    vperm, eperm = list(range(len(vertices))), list(range(len(edges)))
    rng.shuffle(vperm)
    rng.shuffle(eperm)
    cocycles = [rng.choice([-1, 0, 0, 1]) for _ in edges]
    return ss.integer_triple_from_generator(ss.make_graph(vertices, edges), vperm, eperm, cocycles)


def random_katsura_triple(rng):
    while True:
        n = rng.randint(1, 3)
        a = [[rng.choice([0, 1, 2, 3]) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-3, 3) if x else 0 for x in row] for row in a]
        try:
            return ss.from_katsura(ss.KatsuraData.make(a, b))
        except InvalidMatricesError:
            continue


def random_automaton_triple(rng):
    """One or two states over two or three letters, restrictions of up to two letters."""
    k, n = rng.randint(1, 2), rng.randint(2, 3)
    outputs = [rng.sample(range(n), n) for _ in range(k)]
    letters = [s for s in range(-k, k + 1) if s]
    restrictions = [[[rng.choice(letters) for _ in range(rng.randint(0, 2))] for _ in range(n)] for _ in range(k)]
    data = ss.AutomatonData.make([str(x) for x in range(n)], [f"s{i}" for i in range(k)], outputs, restrictions)
    return ss.from_automaton(data, faithful_to_depth=rng.random() < 0.5)


def axiom_verdict(t, radius):
    report = ss.verify_axioms(t, ss.default_window(t.group, radius))
    return report.ok, {v.law for v in report.violations}, len(report.undecided)


@pytest.mark.parametrize(
    "make,count",
    [(random_generator_triple, 300), (random_katsura_triple, 100), (random_automaton_triple, 100)],
    ids=["integer_generator", "katsura", "automaton"],
)
def test_generating_window_decides_the_axioms(make, count):
    # Triples extended from generators: the radius-1 window gives the verdict of
    # every window of radius 2-4 up to 20 elements (all three but for two automaton states).
    rng = random.Random(f"generating-window-{make.__name__}")
    broken = compared = 0
    for _ in range(count):
        t = make(rng)
        verdict = axiom_verdict(t, 1)
        broken += not verdict[0]
        for radius in (r for r in (2, 3, 4) if t.group.window_size(r) <= 20):
            compared += 1
            assert axiom_verdict(t, radius) == verdict, (t.description, radius)
    assert compared >= count
    if make is random_generator_triple:
        assert 100 <= broken <= 250, broken


def test_verify_axioms_refuses_a_window_of_too_many_pairs(odo):
    # 317 elements make 100489 pairs; 315 make 99225, within the limit.
    window = ss.default_window(odo.group, 158)
    with pytest.raises(ValueError, match="more than 100000 pairs in the axiom check of a window of 317"):
        ss.verify_axioms(odo, window)
    assert ss.verify_axioms(odo, ss.default_window(odo.group, 2)).checked_pairs == 25


def test_act_examples(odo):
    img, coc = odo.act_path(1, edges_of(odo, 0, 0))
    assert (img.edges, coc) == ((1, 0), 0)
    img, coc = odo.act_path(1, edges_of(odo, 1, 1))
    assert (img.edges, coc) == ((0, 0), 1)


def test_act_identity_fixes_everything(odo):
    for a in ss.all_paths_upto(odo.graph, 4):
        img, coc = odo.act_path(0, a)
        assert img == a and coc == 0


def test_act_on_vertex_returns_g(odo):
    v = ss.vertex_path(odo.graph, 0)
    for m in range(-3, 4):
        img, coc = odo.act_path(m, v)
        assert img == v and coc == m


def test_odometer_matches_binary_addition(odo):
    for m in range(-6, 7):
        for a in ss.all_paths_upto(odo.graph, 6):
            if a.is_vertex:
                continue
            img, coc = odo.act_path(m, a)
            expect_bits, expect_carry = odometer_oracle(m, a.edges)
            assert img.edges == expect_bits
            assert coc == expect_carry


def test_action_and_cocycle_laws(odo):
    """The extension laws: products, concatenations, equivariance."""
    window = ss.default_window(odo.group, 3)
    paths = ss.all_paths_upto(odo.graph, 4)
    for g in window:
        for h in window:
            gh = odo.group.mul(g, h)
            for a in paths:
                ha, phi_h = odo.act_path(h, a)
                gha, phi_g = odo.act_path(g, ha)
                img, coc = odo.act_path(gh, a)
                assert img == gha
                assert coc == odo.group.mul(phi_g, phi_h)
    for g in window:
        for a in ss.all_paths_upto(odo.graph, 6):  # concat laws over every factorization
            img, coc = odo.act_path(g, a)
            assert len(img) == len(a)
            assert img.range_vertex == odo.act_vertex(g, a.range_vertex)
            assert img.source_vertex == odo.act_vertex(g, a.source_vertex)
            for n in range(len(a) + 1):
                left, right = a.prefix(n), a.drop(n)
                li, lc = odo.act_path(g, left)
                ri, rc = odo.act_path(lc, right)
                assert ss.concat(li, ri) == img
                assert rc == coc


def image_prefix(t, g, xi, n):
    """(g.xi)|n by definition: the image of the truncation xi|n."""
    return t.act_path(g, xi.truncate(n))[0]


def phi_entry(t, g, xi, n):
    """Phi(g, xi)_n by definition: the cocycle along the truncation xi|(n-1)."""
    return t.act_path(g, xi.truncate(n - 1))[1]


def test_inverse_cocycle_sweep(odo):
    # phi(g^-1, a) = phi(g, g^-1 a)^-1 on paths, and entrywise along infinite paths.
    xis = [ss.periodic_path(odo.graph, [1], [0, 1]), ss.periodic_path(odo.graph, [], [1])]
    for g in ss.default_window(odo.group, 3):
        ginv = odo.group.inv(g)
        for a in ss.all_paths_upto(odo.graph, 4):
            image, coc = odo.act_path(ginv, a)
            assert coc == odo.group.inv(odo.act_path(g, image)[1])
        for xi in xis:
            lhs = ss.phi_corona(odo, ginv, xi)
            rhs = ss.phi_corona(odo, g, ss.act_inf_path(odo, ginv, xi))
            assert lhs == ss.corona_inv(rhs)  # both periodic: equal as whole sequences
            for n in range(1, 9):
                assert lhs.entry(n) == -rhs.entry(n) == phi_entry(odo, ginv, xi, n)


def test_act_infinite(odo):
    xi0 = ss.periodic_path(odo.graph, [], [0])
    xi1 = ss.periodic_path(odo.graph, [], [1])
    assert ss.act_inf_path(odo, 1, xi0) == ss.periodic_path(odo.graph, [1], [0])
    assert ss.act_inf_path(odo, 1, xi1) == ss.periodic_path(odo.graph, [], [0])
    assert ss.act_inf_path(odo, 0, xi1) == xi1
    assert image_prefix(odo, 1, xi0, 3).edges == ss.act_inf_path(odo, 1, xi0).truncate(3).edges == (1, 0, 0)
    assert image_prefix(odo, 1, xi1, 3).edges == (0, 0, 0)
    assert image_prefix(odo, 0, xi1, 5) == xi1.truncate(5)


def test_act_infinite_coherent(odo):
    xi = ss.periodic_path(odo.graph, [1], [0, 1])
    for m in (-2, 1, 3):
        full = ss.act_inf_path(odo, m, xi)
        for n in range(9):
            assert image_prefix(odo, m, xi, n) == full.truncate(n) == image_prefix(odo, m, xi, 8).prefix(n)


def test_capital_phi_examples(odo):
    xi0 = ss.periodic_path(odo.graph, [], [0])
    xi1 = ss.periodic_path(odo.graph, [], [1])
    seq0, seq1, trivial = (ss.phi_corona(odo, m, xi) for m, xi in ((1, xi0), (1, xi1), (0, xi1)))
    assert seq0.entry(1) == phi_entry(odo, 1, xi0, 1) == 1
    for n in range(2, 8):
        assert seq0.entry(n) == phi_entry(odo, 1, xi0, n) == 0
    for n in range(1, 8):
        assert seq1.entry(n) == phi_entry(odo, 1, xi1, n) == 1
        assert trivial.entry(n) == phi_entry(odo, 0, xi1, n) == 0


def test_capital_phi_letter_law(odo):
    # (g.xi)_n = phi(g, xi|(n-1)) . xi_n
    xi = ss.periodic_path(odo.graph, [0, 1], [1, 0])
    for m in (-3, -1, 1, 2):
        img, seq = ss.act_inf_path(odo, m, xi), ss.phi_corona(odo, m, xi)
        assert img.truncate(64) == image_prefix(odo, m, xi, 64)
        for n in range(1, 65):
            assert seq.entry(n) == phi_entry(odo, m, xi, n)
            assert img.letter(n) == odo.step(seq.entry(n), xi.letter(n))[0]


def test_capital_phi_shift_law(odo):
    # Phi(phi(g, a), xi) = leftshift^|a|(Phi(g, a.xi))
    alpha = ss.edge_path(odo.graph, [1, 0])
    xi = ss.periodic_path(odo.graph, [], [1])
    axi = xi.prepend(alpha)
    for m in (-2, 1, 3):
        restricted = odo.act_path(m, alpha)[1]
        seq, shifted = ss.phi_corona(odo, restricted, xi), ss.phi_corona(odo, m, axi)
        assert seq == ss.shift_left(shifted, len(alpha))
        for n in range(1, 10):
            assert seq.entry(n) == shifted.entry(n + len(alpha)) == phi_entry(odo, m, axi, n + len(alpha))


def test_capital_phi_cocycle_law(odo):
    # Phi(gh, xi) = Phi(g, h.xi) Phi(h, xi) entrywise
    xi = ss.periodic_path(odo.graph, [1], [0])
    for g in (-2, 1, 2):
        for h in (-1, 1, 3):
            hxi = ss.act_inf_path(odo, h, xi)
            lhs = ss.phi_corona(odo, g + h, xi)
            rhs = ss.corona_mul(ss.phi_corona(odo, g, hxi), ss.phi_corona(odo, h, xi))
            assert lhs == rhs
            for n in range(1, 10):
                assert lhs.entry(n) == phi_entry(odo, g + h, xi, n) == rhs.entry(n)
                assert rhs.entry(n) == phi_entry(odo, g, hxi, n) + phi_entry(odo, h, xi, n)


def test_phi_corona_representations(odo):
    xi0 = ss.periodic_path(odo.graph, [], [0])
    xi1 = ss.periodic_path(odo.graph, [], [1])
    seq0 = ss.phi_corona(odo, 1, xi0)
    seq1 = ss.phi_corona(odo, 1, xi1)
    assert isinstance(seq0, ss.PeriodicSeq) and seq0.cycle == (0,)
    assert isinstance(seq1, ss.PeriodicSeq) and seq1.cycle == (1,) and seq1.prefix == ()
    assert ss.corona_eq(seq0, ss.corona_identity(odo.group)).is_equal
    assert ss.corona_eq(seq1, ss.corona_identity(odo.group)).is_distinct


def test_act_inf_path_stream_degrades(odo):
    s = ss.stream_path(odo.graph, [1, 1, 1, 1])
    img = ss.act_inf_path(odo, 1, s, depth=16)
    assert isinstance(img, ss.StreamPath)
    assert img.truncate(4).edges == (0, 0, 0, 0)


def test_residually_free_odometer(odo):
    report = ss.check_residually_free(odo, ss.default_window(odo.group, 4))
    assert report.kind == "unknown"
    assert report.counterexample is None
    assert not report.consistency_failures


def test_residually_free_counterexample(kat20):
    report = ss.check_residually_free(kat20, ss.default_window(kat20.group, 4))
    assert report.kind == "counterexample"
    assert report.counterexample == (1, 0)


def test_residually_free_finite_holds(swap2):
    report = ss.check_residually_free(swap2, ss.default_window(swap2.group, 1))
    assert report.kind == "holds"


def loops_with_rigidity_failures():
    """One vertex, loops a b c d; the generator cycles a -> b -> c and adds 1 along d.

    Window elements 3k fix a, b and c with cocycle 0, so at radius 2 the
    window's edge sweep sees nothing, and the pairwise oracle only
    rigidity failures; radius 3 reaches the counterexample.
    """
    graph = ss.make_graph(["v"], [(x, "v", "v") for x in "abcd"])
    return ss.integer_triple_from_generator(graph, [0], [1, 2, 0, 3], [0, 0, 0, 1])


BROKEN_COCYCLE = r"cocycle-identity violated: \(g=1, h=1\) at e0"
GATE_TRIPLES = spec_triples() + [("loops", loops_with_rigidity_failures())]


@pytest.mark.parametrize("name,t", GATE_TRIPLES, ids=[name for name, _ in GATE_TRIPLES])
def test_freeness_gate_matches_pairwise_sweep(name, t):
    # Past the oracle: a certified counterexample outside the window, where the oracle has none.
    for radius in range(5):
        window = ss.default_window(t.group, radius)
        for bound in range(4):
            if name == "broken_cocycle":
                with pytest.raises(SourceConditionError, match=BROKEN_COCYCLE):
                    ss.check_residually_free(t, window, bound)
                continue
            report = ss.check_residually_free(t, window, bound)
            expected = pairwise_freeness(t, window, bound)
            if report.counterexample is not None and report.counterexample[0] not in window:
                assert expected.counterexample is None, (radius, bound)
                assert_certified(t, report.counterexample)
            else:
                assert report == expected, (radius, bound)


def test_freeness_gate_matches_pairwise_sweep_with_undecided_words():
    t = load_spec_text(TWIN_MACHINE_SPEC).triple
    for radius in range(3):
        window = ss.default_window(t.group, radius)
        for bound in range(4):
            assert ss.check_residually_free(t, window, bound) == pairwise_freeness(t, window, bound), (radius, bound)


def test_freeness_gate_certifies_past_the_window():
    t = loops_with_rigidity_failures()
    report = ss.check_residually_free(t, ss.default_window(t.group, 2), path_bound=2)
    assert report.kind == "counterexample" and report.counterexample == (3, t.graph.edge_id("a"))
    assert not report.consistency_failures
    assert_certified(t, report.counterexample)
    found = ss.check_residually_free(t, ss.default_window(t.group, 3), path_bound=2)
    assert found.counterexample == (3, t.graph.edge_id("a"))


def test_freeness_gate_refuses_a_broken_cocycle_identity():
    # Over Z/3, 1 and 2 both fix the loop with cocycle 1, but
    # phi(2, e) = 1 != phi(1, e) phi(1, e) = 2: the sweep refuses before it looks.
    graph = ss.make_graph(["v"], [("e", "v", "v")])
    group = ss.FiniteGroup(["0", "1", "2"], [[(a + b) % 3 for b in range(3)] for a in range(3)])
    t = ss.finite_triple(graph, group, [[0]] * 3, [[0]] * 3, [[0], [1], [1]])
    for bound in (1, 2):
        with pytest.raises(SourceConditionError, match=r"^cocycle-identity violated: \(g=1, h=1\) at e$"):
            ss.check_residually_free(t, [0, 1, 2], path_bound=bound)


def test_an_agreement_without_a_certificate_is_noted_undecided():
    # A hand-built Z action on one loop, fixed by every m, with cocycle f(m) = m
    # but f(+-3) = +-1. The generators keep the axioms, so the gate passes;
    # 1 and 3 agree on a, yet h = 2 fixes a with cocycle 2 and certifies nothing.
    graph = ss.make_graph(["v"], [("a", "v", "v")])
    t = ss.SelfSimilarTriple(graph, ss.IntegerGroup(), lambda m, v: v,
                             lambda m, e: (e, m // 3 if abs(m) == 3 else m))
    require_axioms(t)
    report = ss.check_residually_free(t, ss.default_window(t.group, 4), path_bound=1)
    assert (report.kind, report.counterexample, report.consistency_failures) == ("unknown", None, ())
    assert sorted(report.undecided) == sorted(
        f"(g1={g1}, g2={g2}) agree on a, no certificate" for g1, g2 in ((1, 3), (3, 1), (-1, -3), (-3, -1))
    )


AXIOM_TRIPLES = [(name, t) for name, t in all_spec_triples() if name != "broken_cocycle"]


@pytest.mark.parametrize("name,t", AXIOM_TRIPLES, ids=[name for name, _ in AXIOM_TRIPLES])
def test_no_sweep_of_a_triple_keeping_the_axioms_reports_a_consistency_failure(name, t):
    for radius in range(4):
        if t.group.window_size(radius) > 500:
            break
        window = ss.default_window(t.group, radius)
        for bound in range(4):
            report = ss.check_residually_free(t, window, bound)
            # Under the axioms every agreement of two window elements reduces to a certificate.
            assert report.consistency_failures == (), (radius, bound)
            assert not any(note.endswith("no certificate") for note in report.undecided), (radius, bound)


@pytest.mark.parametrize("name,t", all_spec_triples(), ids=[name for name, _ in all_spec_triples()])
def test_every_freeness_counterexample_is_certified(name, t):
    for radius in range(4):
        if t.group.window_size(radius) > 500:
            break
        window = ss.default_window(t.group, radius)
        for bound in range(3):
            if name == "broken_cocycle":
                with pytest.raises(SourceConditionError, match=BROKEN_COCYCLE):
                    ss.check_residually_free(t, window, bound)
                continue
            report = ss.check_residually_free(t, window, bound)
            assert (report.kind == "counterexample") == (report.counterexample is not None)
            if report.counterexample is not None:
                assert_certified(t, report.counterexample)


def test_freeness_sweep_checks_a_large_window_in_linear_time():
    # 22409 words at radius 5: the identity and inverse checks look members up in a set.
    t = load_spec_file(str(TEST_SPECS / "grigorchuk.spec")).triple
    window = ss.default_window(t.group, 5)
    start = time.perf_counter()
    report = ss.check_residually_free(t, window, path_bound=1)
    elapsed = time.perf_counter() - start
    g, e = report.counterexample
    assert (t.group.render(g), t.graph.edge_labels[e]) == ("d", "0")
    assert elapsed < 2.0, f"the sweep over {len(window)} words took {elapsed:.2f}s"


def random_integer_triple(rng):
    """One vertex and up to six loops, cycled by a random permutation with cocycles in {-1, 0, 1}."""
    n = rng.randint(1, 6)
    graph = ss.make_graph(["v"], [(f"e{i}", "v", "v") for i in range(n)])
    perm = list(range(n))
    rng.shuffle(perm)
    return ss.integer_triple_from_generator(graph, [0], perm, [rng.choice([-1, 0, 0, 1]) for _ in range(n)])


def test_integer_closed_form_matches_the_window_edge_sweep():
    rng = random.Random("integer-closed-form")
    found = 0
    for _ in range(300):
        t = random_integer_triple(rng)
        closed = ss.check_residually_free(t, [0], 0).counterexample  # only the closed form can answer
        # Every cycle has length at most |E|, so this window holds every L.
        swept = pairwise_freeness(t, ss.default_window(t.group, t.graph.n_edges), 0).counterexample
        assert (closed is None) == (swept is None)
        if closed is not None:
            found += 1
            m, e = closed
            assert_certified(t, closed)
            assert m == min(k for k in range(1, t.graph.n_edges + 1) if t.step(k, e)[0] == e)
            report = ss.check_residually_free(t, ss.default_window(t.group, m), 0)
            assert report.counterexample is not None and report.counterexample[0] in range(-m, m + 1)
    assert 50 <= found <= 250, found


@pytest.mark.parametrize(
    "refuse",
    [
        lambda t: check_path_bound(t.graph, -2),
        lambda t: ss.all_paths_upto(t.graph, -2),
        lambda t: ss.check_residually_free(t, [0], path_bound=-2),
        lambda t: ss.check_e_star_unitary(t, [0], path_bound=-2),
    ],
    ids=["check_path_bound", "all_paths_upto", "check_residually_free", "check_e_star_unitary"],
)
def test_negative_path_bound_is_refused(refuse, odo):
    with pytest.raises(ValueError, match="path bound must be at least 0, got -2"):
        refuse(odo)


@pytest.mark.parametrize("sweep", [ss.check_residually_free, ss.check_e_star_unitary],
                         ids=["residually_free", "e_star_unitary"])
def test_oversize_path_bound_is_refused_before_any_step(sweep, monkeypatch):
    # The edge sweep alone finds (1, e) on katsura_2_0: the bound is refused all the same.
    t = ss.katsura_2_0()
    steps = []
    step, walk = t.step, t.walk
    monkeypatch.setattr(t, "step", lambda g, e: steps.append((g, e)) or step(g, e))
    monkeypatch.setattr(t, "walk", lambda g, edges: steps.append((g, edges)) or walk(g, edges))  # act_path
    with pytest.raises(ValueError, match="more than 100000 paths of length <= 1000000000"):
        sweep(t, ss.default_window(t.group, 4), path_bound=10**9)
    assert steps == []
    assert sweep(t, ss.default_window(t.group, 4), path_bound=4).counterexample is not None


@pytest.mark.parametrize(
    "refuse",
    [
        lambda t, xi, seq: ss.inf_path_eq(xi, xi, -4),
        lambda t, xi, seq: ss.act_inf_path(t, 1, xi, -4),
        lambda t, xi, seq: ss.phi_corona(t, 1, xi, -4),
    ],
    ids=["inf_path_eq", "act_inf_path", "phi_corona"],
)
def test_negative_depth_is_refused(refuse, odo):
    xi, seq = ss.stream_path(odo.graph, [1, 0, 1]), ss.BoundedSeq(odo.group, (1, 0))
    with pytest.raises(ValueError, match="depth must be at least 0, got -4"):
        refuse(odo, xi, seq)
    # Depth 0 stays an answer that knows nothing; a corona answers at the entries known.
    assert str(ss.inf_path_eq(xi, xi, 0)) == "unknown@0"
    assert str(ss.corona_eq(seq, seq)) == "unknown@2"
