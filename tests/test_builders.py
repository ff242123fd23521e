"""Two-matrix and automaton builders, and their cross-checks."""

import random
import time
import tracemalloc

import pytest

import selfsim as ss
from selfsim.errors import InvalidMatricesError
from conftest import generator, katsura_division, power


def test_katsura_graph_shape(kat32):
    g = kat32.graph
    assert g.vertex_labels == ("1",)
    assert g.edge_labels == ("(1,1,0)", "(1,1,1)", "(1,1,2)")
    assert ss.validate_graph(g).ok


def test_katsura_division_examples(odo_katsura, kat32):
    # m=1 on edge counter 1 with A=2,B=1: 1*1+1 = 1*2+0
    assert odo_katsura.step(1, 1) == (0, 1)
    # m=1 on counter 1 with A=3,B=2: 2+1 = 1*3+0
    assert kat32.step(1, 1) == (0, 1)
    # m=0 everywhere trivial
    for e in kat32.graph.edges():
        assert kat32.step(0, e) == (e, 0)


def test_katsura_negative_m_floored_division(kat32):
    # remainders stay in [0, A) for negative m
    for m in range(-6, 7):
        for e in kat32.graph.edges():
            image, k = kat32.step(m, e)
            assert 0 <= image < 3
            # reconstruct the division: m*B + n = k*A + n'
            n = int(kat32.graph.edge_labels[e].split(",")[2][:-1])
            n2 = int(kat32.graph.edge_labels[image].split(",")[2][:-1])
            assert m * 2 + n == k * 3 + n2


def test_katsura_inverse_relations(kat32):
    for m in range(-4, 5):
        for e in kat32.graph.edges():
            assert kat32.step(-m, kat32.step(m, e)[0])[0] == e
            assert kat32.step(-m, e)[1] == -kat32.step(m, kat32.step(-m, e)[0])[1]


def test_katsura_invalid_matrices():
    with pytest.raises(InvalidMatricesError):
        ss.from_katsura(ss.KatsuraData.make([[0]], [[0]]))  # zero row
    with pytest.raises(InvalidMatricesError):
        ss.from_katsura(ss.KatsuraData.make([[2, 0], [1, 1]], [[1, 2], [0, 0]]))  # B != 0 where A = 0
    with pytest.raises(InvalidMatricesError):
        ss.from_katsura(ss.KatsuraData.make([[-1]], [[0]]))


def test_oversize_katsura_is_refused_before_building():
    # The entries of A count the edges; one over MAX_ENUMERATION is refused, at any size.
    for a in ([[100_001]], [[60_000, 1], [1, 40_000]], [[99_999_999_999]]):
        data = ss.KatsuraData.make(a, [[1] * len(a)] * len(a))
        tracemalloc.start()
        try:
            with pytest.raises(InvalidMatricesError, match=r"edges, more than 100000 \(the enumeration limit\)"):
                ss.from_katsura(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"peak {peak} bytes traced before the refusal"


def test_katsura_at_the_limit_builds_in_linear_time():
    start = time.perf_counter()
    t = ss.from_katsura(ss.KatsuraData.make([[100_000]], [[1]]))
    elapsed = time.perf_counter() - start
    assert t.graph.n_edges == 100_000 and t.step(1, 99_999) == (0, 1)
    assert elapsed < 2.0, f"a 100000-edge Katsura triple took {elapsed:.2f}s"


def test_katsura_multi_vertex_axioms():
    t = ss.from_katsura(ss.KatsuraData.make([[1, 1], [2, 1]], [[0, 1], [3, -1]]))
    assert ss.validate_graph(t.graph).ok
    report = ss.verify_axioms(t, ss.default_window(t.group, 4))
    assert report.ok


def test_builtins_pass_axioms(odo_katsura, kat32, swap2, machine):
    for t, radius in ((odo_katsura, 4), (kat32, 4), (swap2, 1), (machine, 3)):
        report = ss.verify_axioms(t, ss.default_window(t.group, radius))
        assert report.ok, t.description


def test_katsura_matches_division_formula():
    """The generator's closed form agrees with the division formula on random valid pairs."""
    rng = random.Random("katsura-division")
    ms = [*range(-50, 51), 10**6, -(10**6), 10**9, -(10**9)]
    pairs = 0
    while pairs < 60:
        size = rng.randint(1, 3)
        a = [[rng.randint(0, 3) for _ in range(size)] for _ in range(size)]
        if not all(any(row) for row in a):
            continue
        data = ss.KatsuraData.make(a, [[rng.randint(-3, 3) if x else 0 for x in row] for row in a])
        t = ss.from_katsura(data)
        labels = t.graph.edge_labels
        for m in ms:
            for e, label in enumerate(labels):
                image, k = t.step(m, e)
                assert (labels[image], k) == katsura_division(data, label, m), (a, data.b, m, label)
            assert all(t.act_vertex(m, v) == v for v in t.graph.vertices())
        pairs += 1


def iterated(perm, row, m, x):
    """(sigma_m x, phi(m, x)) by the defining recursion, one generator step at a time.

    phi(m, e) = phi(1, sigma_(m-1) e) + phi(m-1, e) for m > 0, and
    phi(-m, e) = -phi(m, sigma_(-m) e).
    """
    if m < 0:
        inverse = {y: z for z, y in enumerate(perm)}
        start = x
        for _ in range(-m):
            start = inverse[start]
        return start, -iterated(perm, row, -m, start)[1]
    coc = 0
    for _ in range(m):
        coc += row[x]
        x = perm[x]
    return x, coc


def test_integer_closed_form_matches_recursion():
    rng = random.Random(2013)
    for _ in range(100):
        n_v, n_e = rng.randint(1, 4), rng.randint(1, 9)
        vertices = [f"v{i}" for i in range(n_v)]
        edges = [(f"e{i}", rng.choice(vertices), rng.choice(vertices)) for i in range(n_e)]
        graph = ss.make_graph(vertices, edges)
        vperm = rng.sample(range(n_v), n_v)
        eperm = rng.sample(range(n_e), n_e)
        row = [rng.randint(-3, 3) for _ in range(n_e)]
        t = ss.integer_triple_from_generator(graph, vperm, eperm, row)
        for _ in range(40):
            m = rng.randint(-400, 400)
            e, v = rng.randrange(n_e), rng.randrange(n_v)
            assert t.step(m, e) == iterated(eperm, row, m, e)
            assert t.act_vertex(m, v) == iterated(vperm, [0] * n_v, m, v)[0]


def test_integer_generator_tables_must_be_permutations():
    graph = ss.make_graph(["v"], [("e0", "v", "v"), ("e1", "v", "v")])
    with pytest.raises(ValueError):
        ss.integer_triple_from_generator(graph, [0], [0, 0], [0, 1])


def test_adding_machine_action(machine):
    a = generator(machine.group, 0)
    path = ss.edge_path(machine.graph, [0, 0])
    img, rest = machine.act_path(a, path)
    assert img.edges == (1, 0)
    assert rest == ()


def test_adding_machine_matches_katsura(odo_katsura, machine):
    """Cross-constructor check under the generator <-> 1 correspondence."""
    a = generator(machine.group, 0)
    for m in range(-3, 4):
        word = power(machine.group, a, m)
        for path in ss.all_paths_upto(odo_katsura.graph, 6):
            if path.is_vertex:
                continue
            img_k, coc_k = odo_katsura.act_path(m, path)
            img_a, coc_a = machine.act_path(word, ss.edge_path(machine.graph, path.edges))
            assert img_a.edges == img_k.edges
            assert coc_a == power(machine.group, a, coc_k)


def test_swap_automaton_with_trivial_restrictions():
    data = ss.AutomatonData.make(
        alphabet=["x", "y"],
        states=["s"],
        output=[[1, 0]],
        restriction=[[(), ()]],
    )
    t = ss.from_automaton(data)
    assert t.step(generator(t.group, 0), 0) == (1, ())
    report = ss.verify_axioms(t, ss.default_window(t.group, 2))
    assert report.ok


def test_identity_state_acts_trivially():
    data = ss.AutomatonData.make(
        alphabet=["x", "y"],
        states=["e"],
        output=[[0, 1]],
        restriction=[[(), ()]],
    )
    t = ss.from_automaton(data)
    assert ss.verify_axioms(t, ss.default_window(t.group, 2)).ok


def test_z2_swap_shape(swap2):
    assert swap2.group.is_finite
    assert swap2.step(1, 0) == (1, swap2.group.identity())
    assert swap2.step(1, 1)[0] == 0


def test_labeled_odometer_matches_builder(odo, odo_katsura):
    for m in range(-5, 6):
        for e in (0, 1):
            assert odo.step(m, e) == odo_katsura.step(m, e)
