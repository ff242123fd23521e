"""Library refusals: each bad input raises its own exception type with its own message."""

import re

import pytest

import selfsim as ss
from selfsim.errors import BackendMismatchError, CompositionError, SourceConditionError, SpecFileError
from selfsim.graph import Path, edge_path, extensions, vertex_path
from selfsim.semigroup import make_triple
from selfsim.specfile import load_spec_file, load_spec_text
from conftest import SPECS, labeled_odometer


class Windowless(ss.GroupBackend):
    """A backend with no default window."""

    def __str__(self):
        return "windowless"


def two_graphs():
    """The odometer triple, and a graph like its own with the edges renamed."""
    odo = labeled_odometer()
    return odo, ss.make_graph(["v"], [("f0", "v", "v"), ("f1", "v", "v")])


def two_vertex_graph():
    """Vertices a and b, with x: a -> a and y: b -> a (x's source a is y's range)."""
    return ss.make_graph(["a", "b"], [("x", "a", "a"), ("y", "a", "b")])


def reparametrize_sideways():
    odo = labeled_odometer()
    ctx = ss.GermContext(odo, window=[0, 1, -1], depth=8)
    germ = ctx.make(vertex_path(odo.graph, 0), 0, vertex_path(odo.graph, 0), ss.periodic_path(odo.graph, (), (0,)))
    ctx.reparametrize(germ, 1, side="gamma")


def action_row_of_three_fields():
    load_spec_text("[graph]\nvertices = v\nedge = e v v\n\n[group]\nkind = integer\n\n"
                   "[action]\nedge = 1 e e\n")


def act_on_a_foreign_path():
    odo, other = two_graphs()
    odo.act_path(1, edge_path(other, [0]))


def triple_of_a_foreign_path():
    odo, other = two_graphs()
    make_triple(odo, edge_path(other, [0]), 0, vertex_path(odo.graph, 0))


def odometer_and_katsura_3_2():
    """Two one-vertex specs, two loops and three: every endpoint test between their paths passes."""
    return (load_spec_file(str(SPECS / f"{name}.spec")).triple for name in ("odometer", "katsura_3_2"))


def germ_with_a_foreign(part):
    """GermContext.make on the odometer with alpha, beta or xi taken from katsura_3_2's graph,
    the others its own; the foreign alpha or beta is the edge (1,1,2), which no odometer path has."""
    odo, k32 = odometer_and_katsura_3_2()
    own, foreign = edge_path(odo.graph, [0]), edge_path(k32.graph, [2])
    alpha, beta = (foreign, own) if part == "alpha" else (own, foreign) if part == "beta" else (own, own)
    xi = ss.periodic_path(k32.graph if part == "xi" else odo.graph, (), (0,))
    ss.GermContext(odo).make(alpha, 0, beta, xi)


def prepend_a_foreign_path(kind):
    odo, k32 = odometer_and_katsura_3_2()
    point = ss.periodic_path(odo.graph, (), (0,)) if kind == "periodic" else ss.stream_path(odo.graph, (0,))
    point.prepend(edge_path(k32.graph, [2]))


def loops():
    return labeled_odometer().graph


def periodic():
    return ss.periodic_path(loops(), (), (0,))


def stream():
    return ss.stream_path(loops(), (0, 1))


REFUSALS = [
    # graph
    ("graph_short_maps", lambda: ss.Graph(("v",), ("e0", "e1"), (0,), (0,)),
     ValueError, "range/source maps must cover every edge"),
    ("graph_duplicate_edge", lambda: ss.make_graph(["v"], [("e", "v", "v"), ("e", "v", "v")]),
     ValueError, "duplicate edge label"),
    ("path_vertex_and_edges", lambda: Path(loops(), 0, (0,)),
     ValueError, "exactly one of vertex / edges must be set"),
    ("path_neither", lambda: Path(loops(), None, ()),
     ValueError, "exactly one of vertex / edges must be set"),
    ("vertex_path_no_vertex", lambda: vertex_path(loops(), 1), ValueError, "no vertex 1"),
    ("edge_path_empty", lambda: edge_path(loops(), []),
     ValueError, "edge_path needs at least one edge; use vertex_path"),
    ("edge_path_no_edge", lambda: edge_path(loops(), [0, 2]), ValueError, "no edge 2"),
    ("extensions_negative", lambda: extensions(vertex_path(loops(), 0), -1), ValueError, "count must be >= 0"),
    # infinite
    ("truncate_negative", lambda: periodic().truncate(-1), ValueError, "truncation length must be >= 0"),
    ("periodic_letter_0", lambda: periodic().letter(0), ValueError, "letters are 1-indexed"),
    ("stream_letter_0", lambda: stream().letter(0), ValueError, "letters are 1-indexed"),
    ("periodic_prepend_mismatch",
     lambda: ss.periodic_path(two_vertex_graph(), (), (0,)).prepend(edge_path(two_vertex_graph(), [1])),
     CompositionError, "cannot prepend: endpoints do not match"),
    ("stream_prepend_mismatch",
     lambda: ss.stream_path(two_vertex_graph(), (0,)).prepend(edge_path(two_vertex_graph(), [1])),
     CompositionError, "cannot prepend: endpoints do not match"),
    ("periodic_path_empty_cycle", lambda: ss.periodic_path(loops(), (0,), ()),
     ValueError, "cycle must have length >= 1"),
    ("stream_drop_negative", lambda: stream().drop(-1), ValueError, "drop length must be >= 0"),
    ("stream_path_empty", lambda: ss.stream_path(loops(), []),
     ValueError, "stream path needs at least one known letter"),
    # corona
    ("periodic_seq_entry_0", lambda: ss.PeriodicSeq.make(ss.IntegerGroup(), (), (1,)).entry(0),
     ValueError, "entries are 1-indexed"),
    ("bounded_seq_entry_0", lambda: ss.BoundedSeq(ss.IntegerGroup(), (1,)).entry(0),
     ValueError, "entries are 1-indexed"),
    # cayley
    ("cayley_duplicate_name", lambda: ss.FiniteGroup(["1", "1"], [[0, 1], [1, 0]]),
     ValueError, "duplicate element name"),
    ("cayley_not_square", lambda: ss.FiniteGroup(["1", "s"], [[0, 1], [1]]),
     ValueError, "Cayley table must be square over the element list"),
    ("cayley_entry_out_of_range", lambda: ss.FiniteGroup(["1", "s"], [[0, 1], [1, 2]]),
     ValueError, "Cayley table entry out of range"),
    # automaton
    ("automaton_outputs_short", lambda: ss.AutomatonGroup(["a", "b"], 2, [[1, 0]], [[(), (1,)], [(), ()]]),
     ValueError, "outputs/restrictions must cover every generator"),
    # a path from another graph
    ("act_path_foreign", act_on_a_foreign_path, ValueError, "path does not belong to this triple's graph"),
    ("make_triple_foreign", triple_of_a_foreign_path,
     SourceConditionError, "paths do not belong to the triple's graph"),
    ("germ_foreign_alpha", lambda: germ_with_a_foreign("alpha"),
     SourceConditionError, "paths do not belong to the triple's graph"),
    ("germ_foreign_beta", lambda: germ_with_a_foreign("beta"),
     SourceConditionError, "paths do not belong to the triple's graph"),
    ("germ_foreign_xi", lambda: germ_with_a_foreign("xi"),
     SourceConditionError, "xi does not belong to the triple's graph"),
    ("periodic_prepend_foreign", lambda: prepend_a_foreign_path("periodic"),
     CompositionError, "paths live on different graphs"),
    ("stream_prepend_foreign", lambda: prepend_a_foreign_path("stream"),
     CompositionError, "paths live on different graphs"),
    # groupoid
    ("reparametrize_side", reparametrize_sideways, ValueError, "side must be 'alpha' or 'beta'"),
    # specfile
    ("action_edge_row_3_fields", action_row_of_three_fields,
     SpecFileError, "line 9: edge rows are 'g edge image cocycle'"),
    # sweeps
    ("verify_axioms_empty_window", lambda: ss.verify_axioms(labeled_odometer(), []),
     ValueError, "window must not be empty"),
    # groups
    ("window_none", lambda: Windowless().window(1), BackendMismatchError, "no default window for windowless"),
    ("window_size_none", lambda: Windowless().window_size(1),
     BackendMismatchError, "no default window for windowless"),
]


@pytest.mark.parametrize("call, error, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_a_bad_input_is_refused_by_name(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
        call()
    assert type(refused.value) is error


def test_validate_graph_names_a_dangling_source():
    # Only the raw constructor builds an edge whose source id is no vertex.
    report = ss.validate_graph(ss.Graph(("v",), ("e",), (0,), (1,)))
    assert not report.ok and report.problems == ("edge e: source is not a vertex",)


def test_a_germ_and_a_prepend_on_an_equal_twin_graph_are_accepted():
    # A twin graph equal to the triple's, built apart from it, passes every graph test.
    odo = labeled_odometer()
    twin = ss.make_graph(["v"], [("e0", "v", "v"), ("e1", "v", "v")])
    assert twin is not odo.graph and twin == odo.graph
    ctx = ss.GermContext(odo)
    own = ctx.make(edge_path(odo.graph, [1]), 0, edge_path(odo.graph, [1]), ss.periodic_path(odo.graph, (), (0,)))
    alike = ctx.make(edge_path(twin, [1]), 0, edge_path(twin, [1]), ss.periodic_path(twin, (), (0,)))
    assert ctx.germ_eq(own, alike).is_equal and ctx.render(alike) == ctx.render(own) == "[e1, 0, e1; (e0)*]"
    for point, printed in ((ss.periodic_path(odo.graph, (), (0,)), "e1(e0)*"),
                           (ss.stream_path(odo.graph, (0, 1)), "e1.e0.e1..[3]")):
        assert str(point.prepend(edge_path(twin, [1]))) == printed
