"""The unchecked path builds and the fused walks agree with the checked ones they replace.

Path.prefix, Path.drop, concat, complement, extensions, prefix_compare,
act_path and mul are compared with the versions in conftest, whose every
path goes through the checked Path constructor and whose act_path steps one
edge at a time, on seeded random paths of every spec graph and of random
Katsura, Cayley and automaton triples.
"""

import pickle
import random

import pytest

import selfsim as ss
from selfsim.action import step_walk
from selfsim.automaton import AutomatonData, from_automaton, reduce_word
from selfsim.builders import KatsuraData, from_katsura
from selfsim.cayley import FiniteGroup, finite_triple
from selfsim.groups import MAX_ENUMERATION
from conftest import (
    all_spec_triples,
    checked_act_path,
    checked_complement,
    checked_concat,
    checked_drop,
    checked_extensions,
    checked_mul,
    checked_prefix,
    checked_prefix_compare,
)
from selfsim.errors import BackendMismatchError, CompositionError

TRIPLES = dict(all_spec_triples())
ACTION_SPECS = ("odometer", "katsura_3_2", "adding_machine", "grigorchuk", "z2_swap")


def random_path(rng, graph, max_len, v=None):
    """A random path of at most max_len edges with range v (random when None), built by edge_path."""
    v = rng.randrange(graph.n_vertices) if v is None else v
    edges = []
    w = v
    for _ in range(rng.randint(0, max_len)):
        into = graph.edges_into(w)
        if not into:
            break
        e = rng.choice(into)
        edges.append(e)
        w = graph.source_of[e]
    return ss.edge_path(graph, edges) if edges else ss.vertex_path(graph, v)


def assert_built_alike(got, expected):
    """got equals the oracle's path and hashes, prints and pickles like the checked build of its data."""
    assert type(got) is ss.Path
    checked = ss.edge_path(got.graph, got.edges) if got.edges else ss.vertex_path(got.graph, got.vertex)
    assert got == expected == checked and got.graph == expected.graph
    assert hash(got) == hash(expected) == hash(checked)
    assert repr(got) == repr(checked) and str(got) == str(checked)
    assert pickle.dumps(got) == pickle.dumps(checked)
    assert pickle.loads(pickle.dumps(got)) == checked


def outcome(f, *args):
    try:
        return True, f(*args)
    except (ValueError, CompositionError) as err:
        return False, (type(err), str(err))


def assert_same_outcome(f, oracle, *args):
    (ok, got), (oracle_ok, expected) = outcome(f, *args), outcome(oracle, *args)
    assert ok == oracle_ok, (args, got, expected)
    if not ok:
        assert got == expected
    elif isinstance(got, list):
        assert len(got) == len(expected)
        for p, q in zip(got, expected):  # in order
            assert_built_alike(p, q)
    elif isinstance(got, ss.PrefixRel):
        assert got is expected, args
    else:
        assert_built_alike(got, expected)


def second_operand(rng, a, others):
    """A path to pair with a: an extension, a prefix, a path from d(a), any path, or one on another graph."""
    graph = a.graph
    roll = rng.randrange(6)
    if roll == 0:
        tail = random_path(rng, graph, 3, a.source_vertex)
        return checked_concat(a, tail)
    if roll == 1:
        return checked_prefix(a, rng.randint(0, len(a)))
    if roll == 2:
        return random_path(rng, graph, 3, a.source_vertex)
    if roll == 3:
        return random_path(rng, graph, 4)
    return random_path(rng, rng.choice(others), 4)


@pytest.mark.parametrize("name", sorted(TRIPLES))
def test_path_algebra_matches_the_checked_builds(name):
    rng = random.Random(f"path-parity-{name}")
    graph = TRIPLES[name].graph
    twin = ss.Graph(graph.vertex_labels, graph.edge_labels, graph.range_of, graph.source_of)  # equal, not identical
    others = [t.graph for n, t in TRIPLES.items() if n != name] + [twin]
    for _ in range(120):
        a = random_path(rng, graph, 5)
        b = second_operand(rng, a, others)
        for x, y in ((a, b), (b, a)):
            assert_same_outcome(ss.prefix_compare, checked_prefix_compare, x, y)
            assert_same_outcome(ss.complement, checked_complement, x, y)
            assert_same_outcome(ss.concat, checked_concat, x, y)
        for n in range(-1, len(a) + 2):
            assert_same_outcome(a.prefix, lambda k: checked_prefix(a, k), n)
            assert_same_outcome(a.drop, lambda k: checked_drop(a, k), n)
        for count in (0, 1, 2, 3):
            assert_same_outcome(ss.extensions, checked_extensions, a, count)


@pytest.mark.parametrize("name", ACTION_SPECS)
def test_act_path_and_mul_match_the_checked_builds(name):
    rng = random.Random(f"action-parity-{name}")
    t = TRIPLES[name]
    graph, group = t.graph, t.group
    window = group.window(2)
    for _ in range(150):
        g, a = rng.choice(window), random_path(rng, graph, 6)
        (image, coc), (expected, expected_coc) = t.act_path(g, a), checked_act_path(t, g, a)
        assert_built_alike(image, expected)
        assert coc == expected_coc
    by_source = {}
    for p in ss.all_paths_upto(graph, 3):
        by_source.setdefault(p.source_vertex, []).append(p)

    def element(beta, g):
        return ss.make_triple(t, rng.choice(by_source[t.act_vertex(g, beta.source_vertex)]), g, beta)

    nonzero = 0
    for _ in range(300):
        s = element(random_path(rng, graph, 3), rng.choice(window))
        roll = rng.randrange(3)
        if roll == 0:  # gamma a prefix of beta
            gamma = checked_prefix(s.beta, rng.randint(0, len(s.beta)))
        elif roll == 1:  # beta a prefix of gamma
            gamma = checked_concat(s.beta, random_path(rng, graph, 3, s.beta.source_vertex))
        else:
            gamma = random_path(rng, graph, 3)
        h = rng.choice(window)
        u = ss.make_triple(t, gamma, h, rng.choice(by_source[t.act_vertex(group.inv(h), gamma.source_vertex)]))
        for x, y in ((s, u), (u, s), (s, ss.ZERO)):
            got, expected = ss.mul(t, x, y), checked_mul(t, x, y)
            if isinstance(expected, ss.Zero):
                assert got is ss.ZERO
                continue
            nonzero += 1
            assert_built_alike(got.alpha, expected.alpha)
            assert_built_alike(got.beta, expected.beta)
            assert got.g == expected.g and got == expected
    assert nonzero >= 200, nonzero


# -- the fused walks against the step loop -----------------------------------------


def walk_outcome(f, *args):
    """("ok", image edges, carry, carry type) or ("raised", exception type, message)."""
    try:
        image, carry = f(*args)
    except Exception as err:  # noqa: BLE001 - the exception itself is compared
        return "raised", type(err), str(err)
    return "ok", image.edges if image.vertex is None else image.vertex, carry, type(carry)


def elements(rng, group):
    """Elements of the radius-3 window (sampled where the window is too large to build),
    and for the integers entries up to 10^6 in magnitude."""
    if isinstance(group, ss.IntegerGroup):
        return [rng.randint(-3, 3) for _ in range(4)] + [rng.randint(-10**6, 10**6) for _ in range(4)]
    if group.window_size(3) <= 2000:
        return group.window(3)
    letters = [s for g in range(len(group.generator_names)) for s in (g + 1, -g - 1)]
    return [reduce_word([rng.choice(letters) for _ in range(rng.randint(0, 3))]) for _ in range(40)]


def bad_elements(group):
    """Values each backend refuses with BackendMismatchError."""
    if isinstance(group, ss.IntegerGroup):
        return [True, 1.0, "1", (1,)]
    if isinstance(group, FiniteGroup):
        return [len(group.names), -1, True, "0"]
    return [(0,), (len(group.generator_names) + 1,), (1, -1), [1], 1]


def assert_walks_as_it_steps(rng, t, cases, others=()):
    """act_path through t.walk against conftest's step loop, on a pickled twin whose
    automaton memo starts empty, as t's does: the memos must fill alike."""
    walked, stepped = pickle.loads(pickle.dumps(t)), pickle.loads(pickle.dumps(t))
    window = elements(rng, t.group)
    for _ in range(cases):
        roll = rng.randrange(20)
        g = rng.choice(bad_elements(t.group)) if roll == 0 else rng.choice(window)
        a = random_path(rng, rng.choice(others), 12) if roll == 1 and others else random_path(rng, t.graph, 12)
        got, expected = walk_outcome(walked.act_path, g, a), walk_outcome(checked_act_path, stepped, g, a)
        assert got == expected, (t.description, g, a)
    memo = getattr(walked.group, "_steps", None)
    if memo is not None:
        assert list(memo.items()) == list(stepped.group._steps.items()) and memo.held == stepped.group._steps.held


@pytest.mark.parametrize("name", sorted(TRIPLES))
def test_every_spec_walks_as_it_steps(name):
    rng = random.Random(f"walk-parity-{name}")
    t = TRIPLES[name]
    twin = ss.Graph(t.graph.vertex_labels, t.graph.edge_labels, t.graph.range_of, t.graph.source_of)
    others = [u.graph for n, u in TRIPLES.items() if n != name] + [twin]
    assert_walks_as_it_steps(rng, t, 400, others)


def random_katsura(rng):
    n = rng.randint(1, 3)
    a = [[rng.choice((0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
    for row in a:
        if not any(row):
            row[rng.randrange(n)] = rng.randint(1, 3)
    b = [[rng.randint(-5, 5) if x else 0 for x in row] for row in a]
    return from_katsura(KatsuraData.make(a, b))


def random_cayley(rng):
    """A relabelled Z/n1 x Z/n2 acting on one or two vertices, each edge sent to a random
    edge with its range and source, and a random cocycle: act_path reads only the tables."""
    n1, n2 = rng.randint(1, 4), rng.randint(1, 3)
    order = n1 * n2
    label = list(range(order))
    rng.shuffle(label)
    pair = [(x // n2, x % n2) for x in range(order)]
    table = [[0] * order for _ in range(order)]
    for x in range(order):
        for y in range(order):
            (a1, a2), (b1, b2) = pair[x], pair[y]
            table[label[x]][label[y]] = label[((a1 + b1) % n1) * n2 + (a2 + b2) % n2]
    group = FiniteGroup([f"g{i}" for i in range(order)], table)
    vertices = ["v", "w"][: rng.randint(1, 2)]
    edges = [(f"e{i}", rng.choice(vertices), rng.choice(vertices)) for i in range(rng.randint(1, 4))]
    edges.append(("loop", "v", "v"))
    graph = ss.make_graph(vertices, edges)
    alike = {e: [f for f in graph.edges() if (graph.range_of[f], graph.source_of[f])
                 == (graph.range_of[e], graph.source_of[e])] for e in graph.edges()}
    edge_table = [[rng.choice(alike[e]) for e in graph.edges()] for _ in range(order)]
    cocycle_table = [[rng.randrange(order) for _ in graph.edges()] for _ in range(order)]
    vertex_table = [list(range(graph.n_vertices)) for _ in range(order)]
    return finite_triple(graph, group, vertex_table, edge_table, cocycle_table)


def random_automaton(rng):
    n_states, n_letters = rng.randint(1, 3), rng.randint(2, 3)
    letters = [s for g in range(n_states) for s in (g + 1, -g - 1)]
    output = []
    for _ in range(n_states):
        row = list(range(n_letters))
        rng.shuffle(row)
        output.append(row)
    restriction = [[[rng.choice(letters) for _ in range(rng.randint(0, 2))] for _ in range(n_letters)]
                   for _ in range(n_states)]
    data = AutomatonData.make([str(x) for x in range(n_letters)], [f"s{g}" for g in range(n_states)],
                              output, restriction)
    return from_automaton(data)


@pytest.mark.parametrize("build", [random_katsura, random_cayley, random_automaton])
def test_random_triples_walk_as_they_step(build):
    rng = random.Random(f"walk-parity-{build.__name__}")
    for _ in range(30):
        assert_walks_as_it_steps(rng, build(rng), 60, [TRIPLES["odometer"].graph])


def test_the_walk_refuses_an_oversize_restriction_at_the_letter_the_steps_do():
    # a restricts to a.a at every letter: after 17 letters its restriction holds 2^17 letters.
    t = TRIPLES["doubling"]
    letters = MAX_ENUMERATION.bit_length()
    assert 2 ** (letters - 1) <= MAX_ENUMERATION < 2 ** letters
    for length in range(letters - 2, letters + 3):
        a = ss.edge_path(t.graph, [0] * length)
        got = walk_outcome(pickle.loads(pickle.dumps(t)).act_path, (1,), a)
        assert got == walk_outcome(checked_act_path, pickle.loads(pickle.dumps(t)), (1,), a)
        if length < letters:
            assert got[0] == "ok" and len(got[2]) == 2 ** length
        else:
            assert got == ("raised", ValueError, f"more than {MAX_ENUMERATION} letters in the restriction "
                           "along the path (the enumeration limit)")


def test_a_triple_built_by_hand_walks_by_its_step():
    odo = TRIPLES["odometer"]
    steps = []

    def step(g, e):
        steps.append((g, e))
        return odo.step(g, e)

    t = ss.SelfSimilarTriple(odo.graph, odo.group, odo.act_vertex, step, "counted")
    assert t.walk.func is step_walk and t.walk.args == (step,) and not t.walk.keywords
    a = ss.edge_path(odo.graph, [1, 1, 0, 1])
    assert t.act_path(5, a) == odo.act_path(5, a) == checked_act_path(odo, 5, a)
    assert steps == [(5, 1), (3, 1), (2, 0), (1, 1)]
    with pytest.raises(BackendMismatchError, match="True is not an element of integers"):
        t.act_path(True, a)
    assert len(steps) == 4
    doubling = TRIPLES["doubling"]
    by_hand = ss.SelfSimilarTriple(doubling.graph, doubling.group, doubling.act_vertex, doubling.step)
    assert pickle.loads(pickle.dumps(by_hand)).act_path((1,), ss.edge_path(doubling.graph, [1] * 5))[1] == (1,) * 32
    with pytest.raises(ValueError, match="letters in the restriction along the path"):
        by_hand.act_path((1,), ss.edge_path(doubling.graph, [1] * 17))
