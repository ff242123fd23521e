"""Graph, path, and infinite-path behavior."""

import copy
import pickle
import random
import time
from itertools import product

import pytest
from hypothesis import given, strategies as st

import selfsim as ss
from selfsim import periodic
from selfsim.groups import MAX_ENUMERATION
from selfsim.sweeps import count_paths_upto
from selfsim.errors import CompositionError, DepthExceededError
from conftest import all_spec_triples, example


@pytest.fixture
def graph(odo):
    return odo.graph


def test_validate_odometer_graph_ok(graph):
    assert ss.validate_graph(graph).ok


def test_validate_reports_source_vertex():
    g = ss.make_graph(["a", "b"], [("e", "b", "a")])
    report = ss.validate_graph(g)
    assert not report.ok
    assert any("a" in p and "no incoming" in p for p in report.problems)


def test_validate_reports_vertex_with_no_edges():
    g = ss.Graph(("v",), (), (), ())
    report = ss.validate_graph(g)
    assert not report.ok


def test_concat_vertex_identities(graph):
    v = ss.vertex_path(graph, 0)
    e0 = ss.edge_path(graph, [0])
    assert ss.concat(v, e0) == e0
    assert ss.concat(e0, v) == e0
    assert ss.concat(e0, ss.edge_path(graph, [1])).edges == (0, 1)


def test_concat_mismatch_raises():
    g = ss.make_graph(["a", "b"], [("p", "b", "a"), ("q", "a", "b")])
    p = ss.edge_path(g, [0])  # d = a
    with pytest.raises(CompositionError):
        ss.concat(p, p)
    assert ss.concat(p, ss.edge_path(g, [1])).edges == (0, 1)


def test_concat_associative(graph):
    paths = ss.all_paths_upto(graph, 3)
    for a in paths:
        for b in paths:
            for c in paths:
                lhs = ss.concat(ss.concat(a, b), c)
                assert lhs == ss.concat(a, ss.concat(b, c))


def test_prefix_compare(graph):
    e0 = ss.edge_path(graph, [0])
    e1 = ss.edge_path(graph, [1])
    e0e1 = ss.edge_path(graph, [0, 1])
    v = ss.vertex_path(graph, 0)
    assert ss.prefix_compare(e0, e0e1) == ss.PrefixRel.A_PROPER
    assert ss.prefix_compare(e0, e1) == ss.PrefixRel.INCOMPARABLE
    assert ss.prefix_compare(v, e0) == ss.PrefixRel.A_PROPER
    assert ss.prefix_compare(e0e1, e0) == ss.PrefixRel.B_PROPER
    assert ss.prefix_compare(e0, e0) == ss.PrefixRel.EQUAL


def test_truncate_periodic(graph):
    xi = ss.periodic_path(graph, [], [0])
    assert str(xi.truncate(0)) == "@v"
    assert xi.truncate(3).edges == (0, 0, 0)
    eta = ss.periodic_path(graph, [1], [0])
    assert eta.truncate(2).edges == (1, 0)


def test_truncate_hits_unrolled_cycle(graph):
    mu = ss.edge_path(graph, [1, 1])
    nu = ss.edge_path(graph, [0, 1])
    xi = ss.periodic_path(graph, mu.edges, nu.edges)
    for k in range(4):
        expected = mu
        for _ in range(k):
            expected = ss.concat(expected, nu)
        assert xi.truncate(len(mu) + k * len(nu)) == expected


def test_truncate_coherence(graph):
    xi = ss.periodic_path(graph, [1, 0], [0, 1])
    for m in range(8):
        for n in range(m, 8):
            rel = ss.prefix_compare(xi.truncate(m), xi.truncate(n))
            assert rel in (ss.PrefixRel.EQUAL, ss.PrefixRel.A_PROPER)


def test_periodic_normal_form(graph):
    # e0 . (e1 e0)* == (e0 e1)*
    a = ss.periodic_path(graph, [0], [1, 0])
    b = ss.periodic_path(graph, [], [0, 1])
    assert a == b
    # cycle is reduced to its primitive root
    c = ss.periodic_path(graph, [], [0, 1, 0, 1])
    assert c.cycle_edges == (0, 1)


@given(
    prefix=st.lists(st.integers(0, 1), max_size=4),
    cycle=st.lists(st.integers(0, 1), min_size=1, max_size=4),
    other_prefix=st.lists(st.integers(0, 1), max_size=4),
    other_cycle=st.lists(st.integers(0, 1), min_size=1, max_size=4),
)
def test_periodic_equality_matches_letters(prefix, cycle, other_prefix, other_cycle):
    graph = ss.make_graph(["v"], [("e0", "v", "v"), ("e1", "v", "v")])
    a = ss.periodic_path(graph, prefix, cycle)
    b = ss.periodic_path(graph, other_prefix, other_cycle)
    horizon = 2 * (len(prefix) + len(cycle) + len(other_prefix) + len(other_cycle)) + 4
    same_letters = all(a.letter(n) == b.letter(n) for n in range(1, horizon + 1))
    assert (a == b) == same_letters
    assert ss.inf_path_eq(a, b, 16).is_equal == (a == b)


def test_stream_path_depth(graph):
    s = ss.stream_path(graph, [0, 1, 0])
    assert s.truncate(3).edges == (0, 1, 0)
    with pytest.raises(DepthExceededError):
        s.letter(4)
    xi = ss.periodic_path(graph, [0, 1], [0])
    verdict = ss.inf_path_eq(s, xi, 16)
    assert verdict.is_unknown and verdict.depth == 3
    assert ss.inf_path_eq(s, ss.periodic_path(graph, [], [1]), 16).is_distinct


def test_a_stream_path_prints_its_first_12_labels_and_its_depth(graph):
    assert str(ss.stream_path(graph, [0, 1, 0])) == "e0.e1.e0..[3]"
    letters = [1] * 12 + [0] * 8
    assert str(ss.stream_path(graph, letters)) == ".".join(["e1"] * 12) + "..[20]"


def test_streams_differing_at_a_known_letter_or_in_their_graph_are_distinct(graph):
    a, b = ss.stream_path(graph, [0, 1, 0]), ss.stream_path(graph, [0, 1, 1, 0])
    assert ss.inf_path_eq(a, b, 16).is_distinct
    assert str(ss.inf_path_eq(a, b, 2)) == "unknown@2"
    other = ss.stream_path(ss.make_graph(["v"], [("x", "v", "v"), ("y", "v", "v")]), [0, 1, 0])
    assert ss.inf_path_eq(a, other, 16).is_distinct


LOOPS = ss.make_graph(["v"], [("e0", "v", "v"), ("e1", "v", "v")])
ODOMETER = example("odometer_katsura")


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=10),
    st.integers(0, 12),
    st.lists(st.integers(0, 1), max_size=3),
    st.lists(st.integers(0, 1), min_size=1, max_size=10),
    st.integers(0, 14),
)
def test_stream_path_follows_its_letter_tuple(letters, k, front, other, depth):
    seq = tuple(letters)
    s = ss.stream_path(LOOPS, seq)
    assert s.letters == seq and s.depth_limit == len(seq)
    assert s.truncate(0) == ss.vertex_path(LOOPS, 0)
    for n in range(1, len(seq) + 3):
        if n <= len(seq):
            assert s.letter(n) == seq[n - 1] and s.truncate(n).edges == seq[:n]
        else:
            with pytest.raises(DepthExceededError):
                s.letter(n)
            with pytest.raises(DepthExceededError):
                s.truncate(n)
    head = ss.edge_path(LOOPS, front) if front else ss.vertex_path(LOOPS, 0)
    assert s.prepend(head).letters == tuple(front) + seq
    if k > len(seq):
        with pytest.raises(DepthExceededError):
            s.drop(k)
    else:
        rest = s.drop(k)
        assert rest.letters == seq[k:] and rest.depth_limit == len(seq) - k
        if not rest.letters:
            # Nothing is known past the end, not even the range vertex.
            for query in (lambda: rest.letter(1), lambda: rest.truncate(0), lambda: rest.prepend(head)):
                with pytest.raises(DepthExceededError):
                    query()
    # Distinct exactly when the letters both know, up to the depth, differ.
    horizon = min(depth, len(seq), len(other))
    verdict = ss.inf_path_eq(s, ss.stream_path(LOOPS, other), depth)
    assert verdict.is_distinct == (seq[:horizon] != tuple(other)[:horizon])
    assert verdict.is_distinct or (verdict.is_unknown and verdict.depth == horizon)
    xi = ss.periodic_path(LOOPS, [], other)
    horizon = min(depth, len(seq))
    expected = horizon > 0 and seq[:horizon] != xi.truncate(horizon).edges
    assert ss.inf_path_eq(xi, s, depth).is_distinct == expected


@given(st.lists(st.integers(0, 1), min_size=1, max_size=10), st.integers(-6, 6), st.integers(0, 14))
def test_act_inf_path_on_a_stream_acts_on_its_letters(letters, g, depth):
    odo = ODOMETER
    s = ss.stream_path(odo.graph, letters)
    known = min(depth, len(letters))
    if not known:
        with pytest.raises(DepthExceededError):
            ss.act_inf_path(odo, g, s, depth)
        return
    image = ss.act_inf_path(odo, g, s, depth)
    assert isinstance(image, ss.StreamPath)
    assert image.letters == odo.act_path(g, ss.edge_path(odo.graph, letters[:known]))[0].edges


def test_drop_and_prepend(graph):
    xi = ss.periodic_path(graph, [1, 0], [0, 1])
    assert xi.drop(2).letter(1) == xi.letter(3)
    back = xi.drop(2).prepend(xi.truncate(2))
    assert back == xi


# Two vertices a, b: the loop x at a, y from b to a (r(y) = a, d(y) = b), the loop z at b.
TWO = ss.make_graph(["a", "b"], [("x", "a", "a"), ("y", "a", "b"), ("z", "b", "b")])


def test_prepending_a_vertex_path_returns_the_point_itself():
    for xi in (ss.periodic_path(TWO, [1], [2]), ss.periodic_path(TWO, [], [0]), ss.stream_path(TWO, [1, 2, 2])):
        v = ss.vertex_path(TWO, xi.range_vertex)
        assert xi.prepend(v) is xi and xi.drop(0) is xi
        if isinstance(xi, ss.PeriodicPath):  # what absorb gave before: the same normal form
            assert xi.prepend(v) == ss.PeriodicPath(TWO, *periodic.absorb(xi.prefix_edges, xi.cycle_edges))
        else:
            assert xi.prepend(v).letters == xi.letters
        # The endpoint check still runs first: the other vertex, and an edge ending there, are refused.
        for wrong in (ss.vertex_path(TWO, 1 - xi.range_vertex), ss.edge_path(TWO, [2] if xi.range_vertex == 0 else [1])):
            with pytest.raises(CompositionError, match="^cannot prepend: endpoints do not match$"):
                xi.prepend(wrong)
    # An edge path still builds the normal form; a vertex path returns a bare-built point as it was built.
    loose = ss.PeriodicPath(TWO, (0,), (0,))
    assert loose.prepend(ss.vertex_path(TWO, 0)) is loose
    assert loose.prepend(ss.edge_path(TWO, [0])) == ss.periodic_path(TWO, [], [0])


def test_the_range_vertex_is_read_from_the_letters():
    for xi in (ss.periodic_path(TWO, [1], [2]), ss.periodic_path(TWO, [], [2]), ss.stream_path(TWO, [0, 1, 2])):
        assert xi.range_vertex == TWO.range_of[xi.letter(1)] == xi.truncate(1).range_vertex
    with pytest.raises(DepthExceededError, match="^stream path only declared to depth 0$"):
        ss.StreamPath(TWO, ()).range_vertex


def test_vertex_paths_are_shared_per_graph():
    for name, t in all_spec_triples():
        g = t.graph
        for v in g.vertices():
            shared = ss.vertex_path(g, v)
            built = ss.Path(g, v, ())
            assert shared == built and hash(shared) == hash(built) and shared.graph is g, name
            assert ss.vertex_path(g, v) is shared
        for v in (-1, -2, g.n_vertices, g.n_vertices + 3):
            for _ in range(2):  # a refusal keeps nothing
                with pytest.raises(ValueError, match=f"^no vertex {v}$"):
                    ss.vertex_path(g, v)
    # Every vertex path an operation returns is the shared one.
    t = example("odometer_katsura")
    g, shared = t.graph, ss.vertex_path(t.graph, 0)
    path = ss.edge_path(g, [0, 1])
    xi = ss.periodic_path(g, [1], [0])
    assert path.prefix(0) is path.drop(2) is xi.truncate(0) is ss.stream_path(g, [1, 0]).truncate(0) is shared
    assert t.act_path(1, shared)[0] is shared


def test_a_graph_copy_carries_its_own_vertex_paths():
    g = ss.Graph(TWO.vertex_labels, TWO.edge_labels, TWO.range_of, TWO.source_of)
    before = ss.vertex_path(g, 1)  # built before the copies, vertex 0 after
    for copied in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert copied == g and "_vertex_paths" not in repr(copied)
        for v in g.vertices():
            path = ss.vertex_path(copied, v)
            assert path == ss.vertex_path(g, v) and path.graph is copied and ss.vertex_path(copied, v) is path
    assert ss.vertex_path(g, 1) is before


@pytest.mark.parametrize("k", [-1, -2, -5])
def test_periodic_drop_refuses_a_negative_length(k):
    # drop(-1) once gave e1(e0)*, the same path as drop(1).
    xi = ss.periodic_path(LOOPS, [0, 1], [0])
    with pytest.raises(ValueError, match="drop length must be >= 0"):
        xi.drop(k)
    with pytest.raises(ValueError, match="drop length must be >= 0"):
        periodic.drop((0, 1), (0,), k)
    assert str(xi.drop(0)) == "e0.e1(e0)*" and str(xi.drop(1)) == "e1(e0)*"
    assert periodic.drop((0, 1), (0,), 1) == ((1,), (0,))


def reference_normalize(prefix, cycle):
    """The normal form by its definition: the primitive cycle, then the prefix's last symbol
    moved into the cycle while it equals the cycle's last one."""
    pre, cyc = list(prefix), list(periodic.primitive_root(cycle))
    while pre and pre[-1] == cyc[-1]:
        pre.pop()
        cyc.insert(0, cyc.pop())
    return tuple(pre), tuple(cyc)


def test_a_normal_form_stays_normal_without_normalizing_again():
    # drop cuts a normal form, and prepend and shift_right put symbols before one: each
    # answers the normal form of the raw sequence while only absorbing the new prefix.
    # absorb answers at once for a prefix that ends off the cycle's last symbol, as a
    # normal form's does; prepend and shift_right equal the value built afresh.
    rng = random.Random(61)
    for _ in range(400):
        pre = tuple(rng.randrange(2) for _ in range(rng.randrange(6)))
        cyc = tuple(rng.randrange(2) for _ in range(rng.randint(1, 4))) * rng.randint(1, 3)
        nf = periodic.normalize(pre, cyc)
        assert nf == reference_normalize(pre, cyc)
        assert periodic.absorb(pre, periodic.primitive_root(cyc)) == nf
        assert periodic.absorb(*nf) == nf
        for k in range(len(pre) + 2 * len(cyc) + 1):
            assert periodic.drop(*nf, k) == reference_normalize((pre + cyc * (k + 1))[k:], cyc), (pre, cyc, k)
        head = tuple(rng.randrange(2) for _ in range(rng.randrange(5)))
        # e0 and e1 are loops on one vertex: any letters compose.
        path = ss.edge_path(LOOPS, head) if head else ss.vertex_path(LOOPS, 0)
        xi = ss.periodic_path(LOOPS, pre, cyc).prepend(path)
        assert (xi.prefix_edges, xi.cycle_edges) == reference_normalize(head + pre, cyc), (head, pre, cyc)
        assert xi == ss.periodic_path(LOOPS, head + pre, cyc)
        seq = ss.PeriodicSeq.make(ss.IntegerGroup(), pre, cyc)
        pad = rng.randrange(4)
        assert ss.shift_right(seq, pad) == ss.PeriodicSeq(seq.backend, *reference_normalize((0,) * pad + pre, cyc))
        assert ss.shift_right(seq, pad) == ss.PeriodicSeq.make(seq.backend, (0,) * pad + pre, cyc)


def test_edges_into_is_precomputed_with_dangling_ranges():
    # Edge f's range 5 is not a vertex; the graph keeps it, validate reports it.
    g = ss.Graph(("v", "w"), ("e", "f", "h"), (0, 5, 0), (1, 0, 0))
    assert g.edges_into(0) == (0, 2)
    assert g.edges_into(5) == (1,)
    assert g.edges_into(1) == () and g.edges_into(7) == ()
    assert "edge f: range is not a vertex" in ss.validate_graph(g).problems
    same = ss.Graph(("v", "w"), ("e", "f", "h"), (0, 5, 0), (1, 0, 0))
    assert same == g and hash(same) == hash(g) and "_into" not in repr(g)


def random_rows(rng):
    """Vertex labels and (edge, range, source) rows of a graph: 1 to 3 vertices, 1 to 5 edges at random."""
    vertices = [f"v{i}" for i in range(rng.randint(1, 3))]
    return vertices, [(f"e{i}", rng.choice(vertices), rng.choice(vertices)) for i in range(rng.randint(1, 5))]


_COUNT_RNG = random.Random("count-paths")


@pytest.mark.parametrize(
    "rows",
    [
        [("e0", "v", "v"), ("e1", "v", "v")],
        [("a", "u", "w"), ("b", "w", "u"), ("c", "u", "u")],
        [("x", "u", "u"), ("y", "u", "w")],  # w is a source
        [("p", "u", "w"), ("q", "w", "x")],  # every path dies out
        # Seeded random graphs; a vertex no edge names is left out.
        *(pytest.param(random_rows(_COUNT_RNG)[1], id=f"random{i}") for i in range(60)),
    ],
)
def test_count_paths_matches_enumeration(rows):
    vertices = sorted({v for _, r, s in rows for v in (r, s)})
    g = ss.make_graph(vertices, rows)
    for bound in range(7):
        assert count_paths_upto(g, bound) == len(ss.all_paths_upto(g, bound))
    # A huge bound costs the layers up to the enumeration limit, or stops at the first empty layer:
    # a graph whose paths die out has none longer than |V| - 1 edges, whatever the bound.
    start = time.perf_counter()
    total = count_paths_upto(g, 10**7)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"counting to the bound 10**7 took {elapsed:.2f}s"
    assert total > MAX_ENUMERATION or total == count_paths_upto(g, 10**9) == count_paths_upto(g, len(vertices))


def test_all_paths_upto_order_matches_brute_force():
    # The order the sweeps' first counterexamples and the bench domains rest on:
    # every composable edge sequence, sorted by (length, range vertex, edge ids).
    rng = random.Random("all-paths-order")
    for _ in range(60):
        g = ss.make_graph(*random_rows(rng))
        bound = rng.randint(0, 4)
        brute = [ss.vertex_path(g, v) for v in g.vertices()]
        for length in range(1, bound + 1):
            for seq in product(g.edges(), repeat=length):
                if all(g.source_of[e] == g.range_of[f] for e, f in zip(seq, seq[1:])):
                    brute.append(ss.edge_path(g, seq))
        brute.sort(key=lambda p: (len(p), p.range_vertex, p.edges))
        assert ss.all_paths_upto(g, bound) == brute


def test_all_paths_refuses_oversize_before_building(graph):
    # 2^(b+1) - 1 paths on two loops: bound 15 gives 65535, bound 16 131071.
    assert count_paths_upto(graph, 16) == 131071
    with pytest.raises(ValueError, match="more than 100000 paths of length <= 16 "):
        ss.all_paths_upto(graph, 16)
    with pytest.raises(ValueError, match="paths of length <= 1000000000 "):
        ss.all_paths_upto(graph, 10**9)


def test_label_ids_match_the_first_occurrence():
    g = ss.Graph(("v", "w", "v"), ("e", "f", "e"), (0, 1, 2), (0, 1, 2))
    assert (g.vertex_id("v"), g.vertex_id("w"), g.edge_id("e"), g.edge_id("f")) == (0, 1, 0, 1)
    with pytest.raises(ValueError, match="no vertex labelled 'x'"):
        g.vertex_id("x")
    with pytest.raises(ValueError, match="no edge labelled 'x'"):
        g.edge_id("x")


def test_graph_with_100000_loops_builds_in_linear_time():
    rows = [(f"e{i}", "v", "v") for i in range(100_000)]
    start = time.perf_counter()
    g = ss.make_graph(["v"], rows)
    elapsed = time.perf_counter() - start
    assert len(g.edges_into(0)) == 100_000 and g.edge_id("e99999") == 99_999
    assert elapsed < 2.0, f"a 100000-edge one-vertex graph took {elapsed:.2f}s"
