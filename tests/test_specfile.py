"""Spec-file parsing and the literal grammar."""

import time

import pytest

import selfsim as ss
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
    a = t.group.generator(0)
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
    a, b = t.group.generator(0), t.group.generator(1)
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


def test_load_explicit_automaton_group():
    text = """
[graph]
vertices = v
edge = x v v
edge = y v v

[group]
kind = automaton
generators = a
faithful_depth = true

[action]
edge = a x y 1
edge = a y x a
"""
    t = load_spec_text(text).triple
    assert t.graph.edge_labels == ("x", "y")
    img, coc = t.act_path(t.group.generator(0), ss.edge_path(t.graph, [1, 0]))
    assert img.edges == (0, 1)


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
ACTION_SPEC = """[graph]
vertices = v
edge = x v v
edge = y v v
[group]
kind = automaton
generators = a
[action]
edge = a x y 1
edge = a y x a
"""


@pytest.mark.parametrize(
    "text, message",
    [
        (MAP_SPEC + "map = a 0 1\n", "line 5: map rows are 'state letter image restriction'"),
        (MAP_SPEC + "map =\n", "line 5: map rows are 'state letter image restriction'"),
        (MAP_SPEC + "map = b 2 0 1\n", "line 5: unknown letter in map row: 'b 2 0 1'"),
        (MAP_SPEC + "map = b 0 1 c\n", "line 5: unknown generator 'c' in word 'c'"),
        (MAP_SPEC + "map = b 0 1 1\n", "line 1: state 'b' is missing a map row"),
        (MAP_SPEC.replace("alphabet = 0 1\n", ""), "line 1: missing key 'alphabet' in [automaton]"),
        (ACTION_SPEC.replace("vertices = v", "vertices = v w"),
         "line 5: automaton backend requires a single-vertex graph"),
        (ACTION_SPEC + "vertex = a v v\n", "line 8: automaton backend takes no vertex rows"),
        (ACTION_SPEC + "edge = b x y 1\n", "line 11: unknown generator 'b'"),
        (ACTION_SPEC + "edge = a z w 1\n", "line 11: unknown edge label 'z'"),
        (ACTION_SPEC + "edge = a x y a.c'\n", "line 11: unknown generator 'c' in word \"a.c'\""),
        (ACTION_SPEC.replace("edge = a y x a\n", ""), "line 8: missing edge action rows for generator 'a'"),
    ],
    ids=["map_short_row", "map_empty_row", "map_letter", "map_word", "map_missing_row", "map_no_alphabet",
         "rows_two_vertices", "rows_vertex_row", "rows_generator", "rows_edge", "rows_word", "rows_missing_row"],
)
def test_automaton_spec_errors_keep_their_text_and_line(text, message):
    with pytest.raises(SpecFileError) as err:
        load_spec_text(text)
    assert str(err.value) == message


def test_both_automaton_forms_build_the_same_action():
    by_map = load_spec_text(MAP_SPEC).triple
    by_rows = load_spec_text(ACTION_SPEC).triple
    for word in by_map.group.window(3):
        for letter in (0, 1):
            assert by_map.step(word, letter) == by_rows.step(word, letter)


# A later [action] row for an edge replaces an earlier one, in every kind of explicit spec.


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
    for spec, rows in ((ACTION_SPEC, "edge = a x x a\nedge = a y y 1\n"), (MAP_SPEC, "map = a 0 0 a\nmap = a 1 1 1\n")):
        assert [load_spec_text(spec).triple.step((1,), x) for x in (0, 1)] == [(1, ()), (0, (1,))]
        assert [load_spec_text(spec + rows).triple.step((1,), x) for x in (0, 1)] == [(0, (1,)), (1, ())]


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
