"""Spec-file parsing and the literal grammar."""

import time

import pytest

import selfsim as ss
from conftest import generator
from selfsim.errors import SpecFileError
from selfsim.specfile import (
    load_spec_text,
    parse_corona,
    parse_germ_parts,
    parse_inf_path,
    parse_path,
    parse_semigroup_element,
    split_top,
)

ODOMETER = """
[graph]
vertices = v
edge = e0 v v
edge = e1 v v

[group]
kind = integer

[action]
edge = 1 e0 e1 0
edge = 1 e1 e0 1
"""


def test_split_top_respects_parens():
    assert split_top("(1,1,0),1,(1,1,1)", ",") == ["(1,1,0)", "1", "(1,1,1)"]
    assert split_top("a.b", ".") == ["a", "b"]


def test_load_explicit_integer():
    loaded = load_spec_text(ODOMETER)
    t = loaded.triple
    assert loaded.source == "explicit"
    img, coc = t.act_path(1, ss.edge_path(t.graph, [0, 0]))
    assert img.edges == (1, 0) and coc == 0


def test_load_katsura_builder():
    loaded = load_spec_text("[katsura]\na = 2\nb = 1\n")
    assert loaded.source == "katsura"
    assert loaded.triple.graph.edge_labels == ("(1,1,0)", "(1,1,1)")


def test_load_multirow_katsura():
    loaded = load_spec_text("[katsura]\na = 1 1 ; 2 1\nb = 0 1 ; 3 -1\n")
    assert loaded.triple.graph.n_vertices == 2
    assert loaded.triple.graph.n_edges == 5


def test_load_automaton_builder():
    text = "[automaton]\nalphabet = 0 1\nmap = a 0 1 1\nmap = a 1 0 a\nfaithful_depth = true\n"
    t = load_spec_text(text).triple
    a = generator(t.group, 0)
    assert t.step(a, 0)[0] == 1
    assert t.step(a, 1)[1] == a


def test_load_two_state_automaton():
    text = """
[automaton]
alphabet = 0 1
map = a 0 1 1
map = a 1 0 a
map = b 0 1 1
map = b 1 0 1
"""
    t = load_spec_text(text).triple
    a, b = generator(t.group, 0), generator(t.group, 1)
    assert t.step(a, 1) == (0, a)
    assert t.step(b, 1) == (0, ())
    assert ss.verify_axioms(t, ss.default_window(t.group, 2)).violations == ()


def test_load_cayley():
    text = """
[graph]
vertices = v
edge = e0 v v
edge = e1 v v

[group]
kind = cayley
elements = 0 1
row = 0 1
row = 1 0

[action]
edge = 1 e0 e1 0
edge = 1 e1 e0 0
"""
    t = load_spec_text(text).triple
    assert t.group.is_finite
    assert t.step(1, 0)[0] == 1


def test_explicit_spec_with_20000_edges_loads_in_linear_time():
    n = 20_000
    text = "\n".join([
        "[graph]", "vertices = v", *(f"edge = e{i} v v" for i in range(n)),
        "[group]", "kind = integer",
        "[action]", *(f"edge = 1 e{i} e{(i + 1) % n} {int(i == n - 1)}" for i in range(n)),
    ])
    start = time.perf_counter()
    t = load_spec_text(text).triple
    elapsed = time.perf_counter() - start
    assert t.step(1, n - 1) == (0, 1) and t.step(n, 5) == (5, 1)
    assert parse_path(t.graph, f"e{n - 1}.e0").edges == (n - 1, 0)
    assert elapsed < 2.0, f"a {n}-edge explicit spec took {elapsed:.2f}s"


MAP_SPEC = "[automaton]\nalphabet = 0 1\nmap = a 0 1 1\nmap = a 1 0 a\n"


def test_an_automaton_section_builds_one_vertex_v_with_the_alphabet_as_its_edges():
    t = load_spec_text("[automaton]\nalphabet = x y\nmap = a x y 1\nmap = a y x a\nfaithful_depth = TRUE\n").triple
    assert t.graph.vertex_labels == ("v",) and t.graph.edge_labels == ("x", "y")
    assert t.group.faithful_to_depth  # faithful_depth is true or false in any case
    img, coc = t.act_path(generator(t.group, 0), ss.edge_path(t.graph, [1, 0]))
    assert img.edges == (0, 1)


def test_automaton_states_are_numbered_in_order_of_first_appearance():
    t = load_spec_text("[automaton]\nalphabet = 0 1\nmap = b 0 0 b\nmap = a 0 1 b\nmap = a 1 0 a\n"
                       "map = b 1 1 a\n").triple
    assert t.group.generator_names == ("b", "a")
    assert t.step((2,), 0) == (1, (1,)) and t.step((1,), 1) == (1, (2,))


@pytest.mark.parametrize(
    "text, message",
    [
        (MAP_SPEC + "map = a 0 1\n", "line 5: map rows are 'state letter image restriction'"),
        (MAP_SPEC + "map =\n", "line 5: map rows are 'state letter image restriction'"),
        (MAP_SPEC + "map = b 2 0 1\n", "line 5: unknown letter in map row: 'b 2 0 1'"),
        (MAP_SPEC + "map = b 0 1 c\n", "line 5: unknown generator 'c' in word 'c'"),
        (MAP_SPEC + "map = b 0 1 1\n", "line 1: state 'b' is missing a map row"),
        (MAP_SPEC.replace("alphabet = 0 1\n", ""), "line 1: missing key 'alphabet' in [automaton]"),
        (MAP_SPEC + "map = a 0 1 1 a\n", "line 5: map rows are 'state letter image restriction'"),
        (MAP_SPEC + "map = a 0 z 1\n", "line 5: unknown letter in map row: 'a 0 z 1'"),
        (MAP_SPEC + "map = a 0 1 a.c'\n", "line 5: unknown generator 'c' in word \"a.c'\""),
        # The graph of an automaton is its one vertex v and its alphabet; [automaton] takes no vertex key.
        (MAP_SPEC + "vertices = v w\n", "line 5: unknown key 'vertices' in [automaton]"),
    ],
    ids=["map_short_row", "map_empty_row", "map_letter", "map_word", "map_missing_row", "map_no_alphabet",
         "map_long_row", "map_image", "map_inverse_word", "map_vertices"],
)
def test_automaton_spec_errors_keep_their_text_and_line(text, message):
    with pytest.raises(SpecFileError) as err:
        load_spec_text(text)
    assert str(err.value) == message


# A later [action] or map row for an edge replaces an earlier one, in every kind of spec with rows.


def test_a_later_integer_row_replaces_an_earlier_one():
    assert load_spec_text(ODOMETER).triple.step(1, 0) == (1, 0)
    assert load_spec_text(ODOMETER + "edge = 1 e0 e1 7\n").triple.step(1, 0) == (1, 7)


CAYLEY = """[graph]
vertices = v
edge = e0 v v
edge = e1 v v
[group]
kind = cayley
elements = 0 1
row = 0 1
row = 1 0
[action]
edge = 1 e0 e1 0
edge = 1 e1 e0 0
"""


def test_a_later_cayley_row_replaces_an_earlier_one_and_the_identity_default():
    t = load_spec_text(CAYLEY + "edge = 1 e0 e1 1\n").triple
    assert [t.step(1, e) for e in (0, 1)] == [(1, 1), (0, 0)]
    assert [t.step(0, e) for e in (0, 1)] == [(0, 0), (1, 0)]  # the identity fixes every edge by default
    t = load_spec_text(CAYLEY + "edge = 0 e0 e1 1\n").triple
    assert [t.step(0, e) for e in (0, 1)] == [(1, 1), (1, 0)]


def test_a_later_automaton_row_replaces_an_earlier_one():
    assert [load_spec_text(MAP_SPEC).triple.step((1,), x) for x in (0, 1)] == [(1, ()), (0, (1,))]
    rows = "map = a 0 0 a\nmap = a 1 1 1\n"
    assert [load_spec_text(MAP_SPEC + rows).triple.step((1,), x) for x in (0, 1)] == [(0, (1,)), (1, ())]


def test_parse_errors_report_lines():
    with pytest.raises(SpecFileError):
        load_spec_text("vertices = v\n")  # content before section
    with pytest.raises(SpecFileError):
        load_spec_text("[graph]\nvertices = v\n")  # no edges / missing sections
    with pytest.raises(SpecFileError, match="line 4"):
        load_spec_text(ODOMETER.replace("edge = e0 v v", "edge = e0 v"))
    with pytest.raises(SpecFileError):
        load_spec_text(ODOMETER + "\n[katsura]\na = 2\nb = 1\n")
    with pytest.raises(SpecFileError):
        load_spec_text(ODOMETER.replace("edge = 1 e1 e0 1", ""))  # missing row


def test_unknown_labels():
    with pytest.raises(SpecFileError):
        load_spec_text(ODOMETER.replace("e0 v v", "e0 v w"))


def test_path_literals():
    t = load_spec_text(ODOMETER).triple
    g = t.graph
    assert parse_path(g, "@v").is_vertex
    assert parse_path(g, "e0.e1").edges == (0, 1)
    with pytest.raises(SpecFileError):
        parse_path(g, "@w")
    with pytest.raises(SpecFileError):
        parse_path(g, "e2")


def test_katsura_label_literals():
    t = load_spec_text("[katsura]\na = 2\nb = 1\n").triple
    p = parse_path(t.graph, "(1,1,0).(1,1,1)")
    assert p.edges == (0, 1)
    s = parse_semigroup_element(t, "(1,1,0),1,(1,1,1)")
    assert s.alpha.edges == (0,) and s.g == 1


def test_inf_path_literals():
    g = load_spec_text(ODOMETER).triple.graph
    xi = parse_inf_path(g, "(e0)*")
    assert xi.truncate(2).edges == (0, 0)
    eta = parse_inf_path(g, "e1(e0.e1)*")
    assert eta.truncate(3).edges == (1, 0, 1)
    with pytest.raises(SpecFileError):
        parse_inf_path(g, "e1.e0")
    with pytest.raises(SpecFileError):
        parse_inf_path(g, "(@v)*")


def test_germ_literals():
    t = load_spec_text(ODOMETER).triple
    alpha, g, beta, xi = parse_germ_parts(t, "e0,1,e1;(e0)*")
    assert alpha.edges == (0,) and g == 1 and beta.edges == (1,)
    assert xi.truncate(1).edges == (0,)
    with pytest.raises(SpecFileError):
        parse_germ_parts(t, "e0,1,e1")


def test_semigroup_literals():
    t = load_spec_text(ODOMETER).triple
    assert parse_semigroup_element(t, "0") == ss.ZERO
    s = parse_semigroup_element(t, "@v,1,@v")
    assert s.alpha.is_vertex
    with pytest.raises(SpecFileError):
        parse_semigroup_element(t, "e0,1")


def test_corona_literals():
    z = ss.IntegerGroup()
    a = parse_corona(z, "1(0)*")
    assert isinstance(a, ss.PeriodicSeq)
    assert a.entry(1) == 1 and a.entry(5) == 0
    b = parse_corona(z, "1,2,3")
    assert isinstance(b, ss.BoundedSeq)
    assert b.entry(3) == 3
    c = parse_corona(z, "(4,5)*")
    assert c.entry(1) == 4 and c.entry(2) == 5 and c.entry(3) == 4
    with pytest.raises(SpecFileError):
        parse_corona(z, "()*")
