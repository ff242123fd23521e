"""Value types: equality, hashing, immutability and repr as the frozen dataclasses they replaced.

Each type is checked against a reference built with dataclasses.make_dataclass
from the old field list, over seeded draws of field values from small pools,
so that equal and unequal pairs both occur.
"""

import copy
import dataclasses
import pickle
import random

import pytest

import selfsim as ss
from selfsim.sweeps import AxiomReport, FreenessReport, HausdorffReport, Violation
from selfsim.graph import GraphReport
from selfsim.semigroup import UnitaryReport
from selfsim.specfile import LoadedSpec, _Section

G1 = ss.make_graph(["v"], [("e0", "v", "v"), ("e1", "v", "v")])
G1_TWIN = ss.make_graph(["v"], [("e0", "v", "v"), ("e1", "v", "v")])  # equal, not the same object
G2 = ss.make_graph(["v", "w"], [("e0", "v", "w"), ("e1", "w", "v")])
Z1, Z2 = ss.IntegerGroup(), ss.IntegerGroup()  # backends compare by identity


def _path(rng):
    if rng.random() < 0.3:
        return rng.choice([G1, G1_TWIN, G2]), rng.choice([0, 1]), ()
    return rng.choice([G1, G1_TWIN, G2]), None, rng.choice([(0,), (1,), (0, 1)])


PATHS = [ss.Path(*_path(random.Random(i))) for i in range(6)]
SMALL = [None, (0, "a")]

# type -> (old fields in order, fields the old repr left out, draw of constructor arguments)
HOT = {
    ss.Path: (("graph", "vertex", "edges"), {"graph"}, _path),
    ss.PeriodicPath: (("graph", "prefix_edges", "cycle_edges"), {"graph"}, lambda rng: (
        rng.choice([G1, G1_TWIN, G2]), rng.choice([(), (0,), (1, 0)]), rng.choice([(0,), (1,), (0, 1)]))),
    ss.PeriodicSeq: (("backend", "prefix", "cycle"), {"backend"}, lambda rng: (
        rng.choice([Z1, Z1, Z2]), rng.choice([(), (0,), (2, 1)]), rng.choice([(0,), (1,), (0, 1)]))),
    ss.Tri: (("verdict", "depth"), set(), lambda rng: (
        rng.choice(["equal", "distinct", "unknown"]), rng.choice([None, 1, 2]))),
    ss.Triple: (("alpha", "g", "beta"), set(), lambda rng: (
        rng.choice(PATHS), rng.choice([0, 1, (1,)]), rng.choice(PATHS))),
    ss.Graph: (("vertex_labels", "edge_labels", "range_of", "source_of"), set(), lambda rng: (
        rng.choice([("v",), ("w",), ("v", "w")]), rng.choice([("e0", "e1"), ("a", "b")]),
        rng.choice([(0, 0), (0, 1)]), rng.choice([(0, 0), (1, 0)]))),
}
REPORTS = {
    GraphReport: ("ok", "problems"),
    Violation: ("law", "detail"),
    AxiomReport: ("violations", "undecided", "checked_pairs"),
    FreenessReport: ("kind", "counterexample", "consistency_failures", "undecided", "window_size"),
    UnitaryReport: ("kind", "counterexample", "window_size"),
    HausdorffReport: ("kind", "freeness"),
    ss.LagValue: ("corona", "shift"),
    ss.KatsuraData: ("a", "b"),
    ss.AutomatonData: ("alphabet", "states", "output", "restriction"),
    LoadedSpec: ("triple", "source"),
    _Section: ("name", "line", "rows", "read"),
    ss.Zero: (),
}
CASES = {cls: spec for cls, spec in HOT.items()}
CASES.update({cls: (names, set(), lambda rng, n=len(names): tuple(rng.choice(SMALL) for _ in range(n)))
              for cls, names in REPORTS.items()})


def _reference(cls, names, hidden):
    fields = [(name, object, dataclasses.field(repr=name not in hidden)) for name in names]
    return dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__qualname__)
def test_value_type_matches_its_frozen_dataclass(cls):
    names, hidden, draw = CASES[cls]
    reference = _reference(cls, names, hidden)
    rng = random.Random(f"value-types-{cls.__qualname__}")
    equal_pairs = 0
    for _ in range(300):
        va, vb = draw(rng), draw(rng)
        a, b = cls(*va), cls(*vb)
        assert (a == b) == (va == vb) == (reference(*va) == reference(*vb)), (va, vb)
        assert (a != b) == (va != vb)
        if va == vb:
            equal_pairs += 1
            assert hash(a) == hash(b)
        assert repr(a) == repr(reference(*va))
        assert copy.copy(a) == a
        for name in (*names, "unknown_field"):
            with pytest.raises(AttributeError):
                setattr(a, name, 0)
        for name in names:
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert not hasattr(a, "__dict__")
    assert cls is ss.Zero or 0 < equal_pairs < 300
    assert a != object() and a != va


def test_fixed_reprs_keep_the_dataclass_format():
    path = ss.edge_path(G1, [0, 1])
    assert repr(path) == "Path(vertex=None, edges=(0, 1))"
    assert repr(ss.vertex_path(G1, 0)) == "Path(vertex=0, edges=())"
    assert repr(ss.periodic_path(G1, [1], [0])) == "PeriodicPath(prefix_edges=(1,), cycle_edges=(0,))"
    assert repr(ss.PeriodicSeq.make(Z1, (3,), (0,))) == "PeriodicSeq(prefix=(3,), cycle=(0,))"
    assert repr(ss.Tri("unknown", 3)) == "Tri(verdict='unknown', depth=3)"
    assert repr(ss.Triple(path, 2, path)) == (
        "Triple(alpha=Path(vertex=None, edges=(0, 1)), g=2, beta=Path(vertex=None, edges=(0, 1)))")
    assert repr(G1) == "Graph(vertex_labels=('v',), edge_labels=('e0', 'e1'), range_of=(0, 0), source_of=(0, 0))"
    assert repr(ss.ZERO) == "Zero()" and repr(Violation("law", "at e0")) == "Violation(law='law', detail='at e0')"
    assert repr(ss.BoundedSeq(Z1, (1, 2))) == f"BoundedSeq(backend={Z1!r}, values=(1, 2))"
    stream = ss.stream_path(G1, [0, 1])
    assert repr(stream) == f"StreamPath(graph={G1!r}, letters=(0, 1))"
    germ = ss.Germ(path, 0, path, ss.periodic_path(G1, [], [0]))
    assert repr(germ) == f"Germ(alpha={path!r}, g=0, beta={path!r}, xi={germ.xi!r})"


def test_identity_types_compare_by_identity():
    xi = ss.periodic_path(G1, [], [0])
    path = ss.edge_path(G1, [0])
    for make in (lambda: ss.stream_path(G1, [0, 1]), lambda: ss.BoundedSeq(Z1, (1,)),
                 lambda: ss.Germ(path, 0, path, xi)):
        a, b = make(), make()
        assert a == a and a != b and len({a, b}) == 2


def test_identity_values_are_read_only():
    # A GermContext hands one kept stream walk to every caller, so its values cannot change.
    for value in (ss.stream_path(G1, [0, 1]), ss.BoundedSeq(Z1, (1, 2))):
        for name in (*type(value).__slots__, "unknown_field"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
        for name in type(value).__slots__:
            with pytest.raises(AttributeError):
                delattr(value, name)
        entries = type(value).__slots__[-1]  # the letters or the values
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value)):
            assert clone != value and getattr(clone, entries) == getattr(value, entries)


def test_frozen_values_survive_pickle():
    values = [ss.edge_path(G1, [0, 1]), ss.periodic_path(G1, [1], [0]), ss.Tri("unknown", 2),
              ss.Triple(ss.edge_path(G1, [0]), 1, ss.vertex_path(G1, 0)), G1, ss.ZERO,
              ss.KatsuraData.make([[2]], [[1]])]
    for value in values:
        clone = pickle.loads(pickle.dumps(value))
        assert clone == value and hash(clone) == hash(value) and repr(clone) == repr(value)
    assert pickle.loads(pickle.dumps(G1)).edges_into(0) == (0, 1)


def test_record_refuses_a_wrong_field_count():
    with pytest.raises(TypeError):
        Violation("law")
    with pytest.raises(TypeError):
        ss.LagValue(1, 2, 3)
