"""Each example spec in specs/ builds the triple of the builder call that once defined it in the package."""

import pytest

import selfsim as ss
from conftest import example

BUILDS = {
    "odometer_katsura": lambda: ss.from_katsura(ss.KatsuraData.make([[2]], [[1]])),
    "katsura_3_2": lambda: ss.from_katsura(ss.KatsuraData.make([[3]], [[2]])),
    "katsura_2_0": lambda: ss.from_katsura(ss.KatsuraData.make([[2]], [[0]])),
    "z2_swap": lambda: ss.finite_triple(
        ss.make_graph(["v"], [("e0", "v", "v"), ("e1", "v", "v")]),
        ss.FiniteGroup(["0", "1"], [[0, 1], [1, 0]]),
        vertex_table=[[0], [0]],
        edge_table=[[0, 1], [1, 0]],
        cocycle_table=[[0, 0], [0, 0]],
    ),
    "adding_machine": lambda: ss.from_automaton(
        ss.AutomatonData.make(alphabet=["0", "1"], states=["a"], output=[[1, 0]], restriction=[[(), (1,)]]),
        faithful_to_depth=True,
    ),
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_the_spec_builds_the_triple_of_its_builder_call(name):
    spec, built = example(name), BUILDS[name]()
    assert spec.graph == built.graph and spec.group == built.group
    assert spec.description == built.description
    graph = spec.graph
    window = ss.default_window(spec.group, 3)
    for g in window:
        assert [spec.act_vertex(g, v) for v in graph.vertices()] == [built.act_vertex(g, v) for v in graph.vertices()]
        assert [spec.step(g, e) for e in range(graph.n_edges)] == [built.step(g, e) for e in range(graph.n_edges)]
        for path in ss.all_paths_upto(graph, 4):
            assert spec.act_path(g, path) == built.act_path(g, path), (g, path)
