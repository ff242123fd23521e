"""The graph-membership rule: every public callable refuses a path of another graph.

Every callable in ``selfsim.__all__`` (public methods and constructors of its classes
included) with a parameter annotated ``Path``, ``InfPath`` or ``Germ`` is found with ``inspect``.
Handed a path of another spec's graph at that parameter, or a bare germ whose paths lie there,
it must raise its own refusal; handed the same on an equal twin graph, it must answer as it
does on the triple's own graph.
The exemptions the README names are rows of their own, each with the answer it gives and
why. A callable in neither table fails the test, so a new one gets the rule by test.
"""

import inspect
import re

import pytest

import selfsim as ss
from conftest import SPECS
from selfsim.errors import CompositionError, SourceConditionError
from selfsim.specfile import load_spec_file, parse_corona, parse_inf_path
from selfsim.tri import DISTINCT

ODO = load_spec_file(str(SPECS / "odometer.spec")).triple
OWN = ODO.graph
# One vertex and three loops, ids 0 to 2: every odometer edge id names one of its edges,
# and every endpoint test between the two graphs' paths passes.
FOREIGN = load_spec_file(str(SPECS / "katsura_3_2.spec")).triple.graph
TWIN = ss.Graph(OWN.vertex_labels, OWN.edge_labels, OWN.range_of, OWN.source_of)  # equal, not identical
CTX = ss.GermContext(ODO)
GSEQ = parse_corona(ODO.group, "1(0)*")
OFF_TRIPLE = (ValueError, "path does not belong to this triple's graph")
OFF_ELEMENT = (SourceConditionError, "paths do not belong to the triple's graph")
APART = (CompositionError, "paths live on different graphs")


def e1(graph=OWN):
    return ss.edge_path(graph, [1])


def point(graph=OWN):
    """e1(e0)*, the model check's eta."""
    return ss.periodic_path(graph, (1,), (0,))


def zeros(graph=OWN):
    return ss.periodic_path(graph, (), (0,))


def germ():
    """[e1, 0, e1; (e0)*], in the open set of (e1, 0, e1) and of its restriction to e1.e0."""
    return CTX.make(e1(), 0, e1(), zeros())


def bare(graph=OWN):
    """germ()'s data on graph, through the bare constructor, which checks nothing."""
    return ss.Germ(e1(graph), 0, e1(graph), zeros(graph))


# 'callable:parameter' -> (the call with a path of ``graph`` at that parameter, the refusal).
REFUSED = {
    "SelfSimilarTriple.act_path:a": (lambda graph: ODO.act_path(1, e1(graph)), OFF_TRIPLE),
    "SelfSimilarTriple.act_behind:alpha": (lambda graph: ODO.act_behind(e1(graph), 1, e1()), APART),
    "SelfSimilarTriple.act_behind:b": (lambda graph: ODO.act_behind(e1(), 1, e1(graph)), OFF_TRIPLE),
    "SelfSimilarTriple.check_element:alpha": (lambda graph: ODO.check_element(e1(graph), 1, e1()), OFF_ELEMENT),
    "SelfSimilarTriple.check_element:beta": (lambda graph: ODO.check_element(e1(), 1, e1(graph)), OFF_ELEMENT),
    "make_triple:alpha": (lambda graph: ss.make_triple(ODO, e1(graph), 1, e1()), OFF_ELEMENT),
    "make_triple:beta": (lambda graph: ss.make_triple(ODO, e1(), 1, e1(graph)), OFF_ELEMENT),
    "unit_idempotent:alpha": (lambda graph: ss.unit_idempotent(ODO, e1(graph)), OFF_ELEMENT),
    "concat:a": (lambda graph: ss.concat(e1(graph), e1()), APART),
    "concat:b": (lambda graph: ss.concat(e1(), e1(graph)), APART),
    "periodic_path:prefix": (lambda graph: ss.periodic_path(OWN, e1(graph), e1()), APART),
    "periodic_path:cycle": (lambda graph: ss.periodic_path(OWN, e1(), e1(graph)), APART),
    "InfPath.prepend:path": (lambda graph: ss.InfPath.prepend(zeros(), e1(graph)), APART),
    "PeriodicPath.prepend:path": (lambda graph: zeros().prepend(e1(graph)), APART),
    "StreamPath.prepend:path": (lambda graph: ss.stream_path(OWN, (0, 1)).prepend(e1(graph)), APART),
    "act_inf_path:xi": (lambda graph: ss.act_inf_path(ODO, 1, point(graph)), OFF_TRIPLE),
    "phi_corona:xi": (lambda graph: ss.phi_corona(ODO, 1, point(graph)), OFF_TRIPLE),
    "GermContext.make:alpha": (lambda graph: CTX.make(e1(graph), 0, e1(), zeros()), OFF_ELEMENT),
    "GermContext.make:beta": (lambda graph: CTX.make(e1(), 0, e1(graph), zeros()), OFF_ELEMENT),
    "GermContext.make:xi": (lambda graph: CTX.make(e1(), 0, e1(), zeros(graph)),
                            (SourceConditionError, "xi does not belong to the triple's graph")),
    "GermContext.unit:beta": (lambda graph: CTX.unit(e1(graph), zeros()), OFF_ELEMENT),
    "GermContext.unit:xi": (lambda graph: CTX.unit(e1(), zeros(graph)),
                            (SourceConditionError, "xi does not belong to the triple's graph")),
    "GermContext.model_check:eta": (lambda graph: CTX.model_check(point(graph), GSEQ, 0, zeros()), OFF_TRIPLE),
    "GermContext.model_check:zeta": (lambda graph: CTX.model_check(point(), GSEQ, 0, zeros(graph)), OFF_TRIPLE),
    "GermContext.model_to_germ:eta": (lambda graph: CTX.model_to_germ(point(graph), GSEQ, 0, zeros(), (0, 0)),
                                      OFF_ELEMENT),
    "GermContext.model_to_germ:zeta": (lambda graph: CTX.model_to_germ(point(), GSEQ, 0, zeros(graph), (0, 0)),
                                       OFF_ELEMENT),
    "GermContext.normalize_basic:beta": (lambda graph: CTX.normalize_basic(e1(), 0, e1(graph)), OFF_ELEMENT),
    "GermContext.normalize_basic:gamma": (lambda graph: CTX.normalize_basic(e1(), 0, e1(), ss.edge_path(graph, [1, 0])),
                                          OFF_ELEMENT),
    "GermContext.open_set_member:beta": (lambda graph: CTX.open_set_member(germ(), e1(), 0, e1(graph)), OFF_ELEMENT),
    "GermContext.open_set_member:gamma": (
        lambda graph: CTX.open_set_member(germ(), e1(), 0, e1(), ss.edge_path(graph, [1, 0])), OFF_ELEMENT),
    # A bare germ of another graph: the walk of xi refuses it, or GermContext._own where no walk comes first,
    # as compose, which finds its prefixes apart before it walks, checks both germs before it says so.
    "GermContext.open_set_member:u": (lambda graph: CTX.open_set_member(bare(graph), e1(), 0, e1()), OFF_TRIPLE),
    "GermContext.source_point:u": (lambda graph: CTX.source_point(bare(graph)), OFF_TRIPLE),
    "GermContext.source_prefix:u": (lambda graph: CTX.source_prefix(bare(graph), 2), OFF_TRIPLE),
    "GermContext.range_point:u": (lambda graph: CTX.range_point(bare(graph)), OFF_TRIPLE),
    "GermContext.range_prefix:u": (lambda graph: CTX.range_prefix(bare(graph), 2), OFF_TRIPLE),
    "GermContext.reparametrize:u": (lambda graph: CTX.reparametrize(bare(graph), 1), OFF_TRIPLE),  # absorbs nothing
    "GermContext.inverse:u": (lambda graph: CTX.inverse(bare(graph)), OFF_TRIPLE),
    "GermContext.lag:u": (lambda graph: CTX.lag(bare(graph)), OFF_TRIPLE),
    "GermContext.f_map:u": (lambda graph: CTX.f_map(bare(graph)), OFF_TRIPLE),
    "GermContext.compose:u1": (lambda graph: CTX.compose(bare(graph), germ()), OFF_TRIPLE),
    "GermContext.compose:u2": (lambda graph: CTX.compose(germ(), bare(graph)), OFF_TRIPLE),
}

# 'callable:parameter' -> (the call, its answer on the foreign graph, why it is no refusal).
EXEMPT = {
    "Triple.__init__:alpha": (lambda graph: ss.Triple(e1(graph), 1, e1()).alpha.graph, FOREIGN,
                              "a bare constructor checks nothing; make_triple is the checked one"),
    "Triple.__init__:beta": (lambda graph: ss.Triple(e1(), 1, e1(graph)).beta.graph, FOREIGN,
                             "a bare constructor checks nothing; make_triple is the checked one"),
    "Germ.__init__:alpha": (lambda graph: ss.Germ(e1(graph), 0, e1(), zeros()).alpha.graph, FOREIGN,
                            "a bare constructor checks nothing; GermContext.make is the checked one"),
    "Germ.__init__:beta": (lambda graph: ss.Germ(e1(), 0, e1(graph), zeros()).beta.graph, FOREIGN,
                           "a bare constructor checks nothing; GermContext.make is the checked one"),
    "Germ.__init__:xi": (lambda graph: ss.Germ(e1(), 0, e1(), zeros(graph)).xi.graph, FOREIGN,
                         "a bare constructor checks nothing; GermContext.make is the checked one"),
    "prefix_compare:a": (lambda graph: ss.prefix_compare(e1(graph), e1()), ss.PrefixRel.INCOMPARABLE,
                         "a relation: paths of two graphs are no prefix of each other"),
    "prefix_compare:b": (lambda graph: ss.prefix_compare(e1(), e1(graph)), ss.PrefixRel.INCOMPARABLE,
                         "a relation: paths of two graphs are no prefix of each other"),
    "inf_path_eq:a": (lambda graph: ss.inf_path_eq(point(graph), point(), 8), DISTINCT,
                      "a relation: points of two graphs are distinct"),
    "inf_path_eq:b": (lambda graph: ss.inf_path_eq(point(), point(graph), 8), DISTINCT,
                      "a relation: points of two graphs are distinct"),
    "GermContext.open_set_member:alpha": (
        lambda graph: CTX.open_set_member(germ(), e1(graph), 0, ss.edge_path(OWN, [0])), DISTINCT,
        "alpha is read only once u lies in the cylinder of beta; outside it the answer is distinct"),
    "GermContext.germ_eq:u1": (lambda graph: CTX.germ_eq(bare(graph), germ()), DISTINCT,
                               "a relation: germs of two graphs are distinct"),
    "GermContext.germ_eq:u2": (lambda graph: CTX.germ_eq(germ(), bare(graph)), DISTINCT,
                               "a relation: germs of two graphs are distinct"),
    "GermContext.render:u": (lambda graph: CTX.render(bare(graph)), "[(1,1,1), 0, (1,1,1); ((1,1,0))*]",
                             "a rendering: u's paths print with their own graph's labels, and nothing is computed"),
    "GermContext.normalize_basic:alpha": (
        lambda graph: CTX.normalize_basic(e1(graph), 0, e1())[0].graph, FOREIGN,
        "alpha is folded only when gamma lies below beta, where act_behind refuses it; else it is passed on"),
}


def path_parameters() -> set[str]:
    """'callable:parameter' for each parameter annotated Path, InfPath or Germ of a callable in
    selfsim.__all__, the public methods and the constructor of each class included."""
    found = set()
    for name in ss.__all__:
        value = getattr(ss, name)
        if inspect.isclass(value):
            callables = [(f"{name}.{attr}", member) for attr, member in inspect.getmembers(value, inspect.isfunction)
                         if attr == "__init__" or not attr.startswith("_")]
        else:
            callables = [(name, value)] if inspect.isfunction(value) else []
        for qualified, function in callables:
            for parameter in inspect.signature(function).parameters.values():
                annotation = parameter.annotation
                if re.search(r"\b(Path|InfPath|Germ)\b", annotation if isinstance(annotation, str) else str(annotation)):
                    found.add(f"{qualified}:{parameter.name}")
    return found


def test_every_path_parameter_is_refused_or_a_named_exemption():
    assert not REFUSED.keys() & EXEMPT.keys()
    assert path_parameters() == REFUSED.keys() | EXEMPT.keys()
    assert len({key.split(":")[0] for key in path_parameters()}) == 33


@pytest.mark.parametrize("key", sorted(REFUSED))
def test_a_path_of_another_graph_is_refused_and_an_equal_twin_answers_as_the_own(key):
    call, (error, message) = REFUSED[key]
    assert repr(call(TWIN)) == repr(call(OWN))
    with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
        call(FOREIGN)
    assert type(refused.value) is error


@pytest.mark.parametrize("key", sorted(EXEMPT))
def test_an_exemption_gives_its_pinned_answer_on_another_graph(key):
    call, pinned, reason = EXEMPT[key]
    assert reason and call(TWIN) == call(OWN)
    assert call(FOREIGN) == pinned


@pytest.mark.parametrize("zeta", ["((1,1,0))*", "((1,1,2))*"])
@pytest.mark.parametrize("split", [None, (0, 0)])
def test_the_model_check_refuses_a_point_of_another_graph(zeta, split):
    # (1,1,0) has the id of e0, so the walk along it once answered equal; (1,1,2) has no odometer id.
    eta = parse_inf_path(OWN, "e1(e0)*")
    with pytest.raises(ValueError, match="^path does not belong to this triple's graph$"):
        CTX.model_check(eta, GSEQ, 0, parse_inf_path(FOREIGN, zeta), split=split)
    answers = [CTX.model_check(parse_inf_path(graph, "e1(e0)*"), GSEQ, 0, parse_inf_path(graph, "(e0)*"), split=split)
               for graph in (OWN, TWIN)]
    assert answers[0] == answers[1] and answers[0].is_equal
