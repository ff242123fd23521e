"""The carry walk steps one letter at a time, and the model check reads its conditions from it.

infinite._orbit steps every known letter (a stream's letters, a periodic path's
prefix) and then the cycle until the carry state recurs. GermContext.model_check
reads one split's conditions from the walk of g_(p+1) along zeta from q, and steps
in turn, from gseq's own entries, those the walk does not meet. These tests compare
both with the letter-by-letter oracles of conftest, step for step, on every spec and
on triples whose identity breaks the identity law or whose step raises (through a
context that skips the axiom gate), and time the longest walk and window that the
letter budget allows.
"""

import random
import time

import pytest

import selfsim as ss
from selfsim import infinite
from selfsim.errors import BackendMismatchError, DepthExceededError
from selfsim.groups import MAX_ENUMERATION, _Memo
from selfsim.tri import DISTINCT, from_bool
from selfsim.specfile import load_spec_file
from conftest import TEST_SPECS, _full_depth_conditions, all_spec_triples, labeled_odometer, reference_orbit


def loops_graph():
    return ss.make_graph(["v"], [("e0", "v", "v"), ("e1", "v", "v")])


def swapping_identity_triple():
    """A Cayley-table triple over Z/2 whose identity row sends e0 to e1: the identity law fails."""
    group = ss.FiniteGroup(["1", "s"], [[0, 1], [1, 0]])
    return ss.finite_triple(loops_graph(), group, [[0], [0]], [[1, 0], [0, 1]], [[0, 0], [0, 0]],
                            description="swapping identity")


def bool_carry_triple():
    """Integer carries that count down to False, which equals the identity 0 but swaps the
    edges: no map on G x E, so the walk refuses the carry False."""

    def step(g, e):
        if g is False:
            return 1 - e, False
        return e, (g - 1 if g > 1 else False) if g > 0 else g

    return ss.SelfSimilarTriple(loops_graph(), ss.IntegerGroup(), lambda g, v: v, step, "bool carry")


def half_identity_triple():
    """A Cayley-table triple over Z/2 whose identity fixes e0 with trivial restriction but
    restricts to the swap at e1: the identity law holds on some edges only."""
    group = ss.FiniteGroup(["1", "s"], [[0, 1], [1, 0]])
    return ss.finite_triple(loops_graph(), group, [[0], [0]], [[0, 1], [1, 0]], [[0, 1], [0, 0]],
                            description="half identity")


def countdown_triple(at_one, description):
    """Integer carries that fix every edge and count down (or up) to 0; the identity steps e to at_one(e)."""

    def step(g, e):
        if g == 0:
            return at_one(e)
        return e, g - 1 if g > 0 else g + 1

    return ss.SelfSimilarTriple(loops_graph(), ss.IntegerGroup(), lambda g, v: v, step, description)


def raising_triple(at_e1):
    """Integer carries that fix every edge and count down to 0; the identity cannot step e0
    and steps e1 to at_e1."""

    def step(g, e):
        if g == 0:
            if e == 0:
                raise ValueError("the identity cannot step e0")
            return at_e1
        return e, g - 1

    return ss.SelfSimilarTriple(loops_graph(), ss.IntegerGroup(), lambda g, v: v, step, "raising")


WALK_TRIPLES = all_spec_triples() + [
    ("swapping_identity", swapping_identity_triple()),
    ("half_identity", half_identity_triple()),
    ("bool_carry", bool_carry_triple()),
    # The identity's step equals (e, 0) in value, not in type: in its restriction, or in its image.
    ("false_restriction", countdown_triple(lambda e: (e, False), "false restriction")),
    ("bool_image", countdown_triple(lambda e: (bool(e), 0), "bool image")),
]
# The model conditions meet a step that raises too.
MODEL_TRIPLES = WALK_TRIPLES + [("raising", raising_triple((1, 0)))]


def unchecked_context(t, depth):
    """A GermContext over t at depth without the constructor's axiom gate, which refuses most
    triples here: the model check must answer as the full-depth walk on them too."""
    ctx = object.__new__(ss.GermContext)
    ctx._triple, ctx._depth, ctx._walks = t, depth, _Memo()
    return ctx


def model_check(t, eta, gseq, p, q, zeta, depth):
    """GermContext.model_check of the split (p, q), through a fresh unchecked context."""
    return unchecked_context(t, depth).model_check(eta, gseq, p - q, zeta, split=(p, q))


def outcome(call):
    """The value of call(), or the type and text of what it raised, as one string."""
    try:
        return call()
    except Exception as err:  # noqa: BLE001 - the exception is the outcome
        return f"{type(err).__name__}: {err}"


def typed(result):
    """An orbit with the type of each image and carry, so an equal value of another type shows."""
    if isinstance(result, tuple) and len(result) == 3:
        images, carries, closure = result
        return images, carries, closure, [type(x) for x in images], [type(c) for c in carries]
    return result


def typed_steps(stepped):
    """Recorded (carry, letter) steps with the type of each carry, so an equal value of another type shows."""
    return [(c, type(c), e) for c, e in stepped]


def plain(result):
    """A carry walk's (g.xi, Phi) as comparable values: streams and bounded sequences compare by identity."""
    if not isinstance(result, tuple) or len(result) != 2:
        return result
    gxi, seq = result
    path = gxi if isinstance(gxi, ss.PeriodicPath) else gxi.letters
    if isinstance(seq, ss.PeriodicSeq):
        return path, seq, [type(c) for c in seq.prefix + seq.cycle]
    return path, seq.values, [type(c) for c in seq.values]


def random_letters(rng, graph, n):
    """Up to n composable letters from a random first edge, stopping early at a source."""
    letters = [rng.randrange(graph.n_edges)]
    while len(letters) < n:
        into = graph.edges_into(graph.source_of[letters[-1]])
        if not into:
            break
        letters.append(rng.choice(into))
    return letters


def elements(rng, t):
    """The identity and up to 24 more of the radius-2 window, and for an automaton backend six longer words."""
    group = t.group
    window = ss.default_window(group, 2)
    out = window[:1] + rng.sample(window[1:], min(24, len(window) - 1))
    if isinstance(group, ss.AutomatonGroup):
        k = len(group.generator_names)
        for _ in range(6):
            word = group.identity()
            for _ in range(rng.randint(5, 12)):
                word = group.mul(word, (rng.choice([1, -1]) * rng.randint(1, k),))
            out.append(word)
    return out


def inf_paths(rng, t):
    """Three periodic paths, and five streams: periodic letters, random letters, long and short."""
    graph = t.graph
    cycles = [p for p in ss.all_paths_upto(graph, 2) if not p.is_vertex and p.range_vertex == p.source_vertex]
    out = []
    for _ in range(3):
        cycle = rng.choice(cycles)
        prefix = rng.choice([p for p in ss.all_paths_upto(graph, 2) if p.source_vertex == cycle.range_vertex])
        out.append(ss.periodic_path(graph, prefix.edges, cycle.edges))
    for n in (3, 40, 90):
        xi = rng.choice(out[:3])
        out.append(ss.stream_path(graph, [xi.letter(i) for i in range(1, n + 1)]))
    for n in (7, 80):
        out.append(ss.stream_path(graph, random_letters(rng, graph, n)))
    return out


@pytest.mark.parametrize("name, t", WALK_TRIPLES, ids=[name for name, _ in WALK_TRIPLES])
def test_the_walk_answers_as_the_letter_by_letter_walk(name, t, monkeypatch):
    rng = random.Random(f"walk {name}")
    t, stepped = recorded(t)
    walks = []
    for g in elements(rng, t):
        for xi in inf_paths(rng, t):
            for depth in (1, 5, 64):
                walks.append((g, xi, depth))
                stepped.clear()
                expected = typed(outcome(lambda: reference_orbit(t, g, xi, depth)))
                oracle = typed_steps(stepped)
                stepped.clear()
                assert typed(outcome(lambda: infinite._orbit(t, g, xi, depth))) == expected, (name, g, str(xi), depth)
                assert typed_steps(stepped) == oracle, (name, g, str(xi), depth)
    walked = [plain(outcome(lambda: infinite._carry_walk(t, g, xi, depth))) for g, xi, depth in walks]
    monkeypatch.setattr(infinite, "_orbit", reference_orbit)
    for (g, xi, depth), answer in zip(walks, walked):
        assert answer == plain(outcome(lambda: infinite._carry_walk(t, g, xi, depth))), (name, g, str(xi), depth)


def test_an_unchecked_stream_image_composes():
    # The walk builds its stream image without re-validating it: the letters must compose.
    unclosed = 0
    # Every spec graph but one has one vertex, where any letters compose: add two vertices
    # that only one cell of edges joins.
    katsura = ss.from_katsura(ss.KatsuraData.make([[2, 1], [0, 3]], [[1, 0], [0, 2]]))
    for name, t in all_spec_triples() + [("katsura_two_vertices", katsura)]:
        rng = random.Random(f"image {name}")
        streams = 0
        for g in elements(rng, t):
            for xi in inf_paths(rng, t):
                for depth in (1, 5, 64):
                    try:
                        gxi = infinite._carry_walk(t, g, xi, depth)[0]
                    except DepthExceededError:
                        continue
                    if isinstance(gxi, ss.StreamPath):
                        assert ss.edge_path(t.graph, gxi.letters).edges == gxi.letters, (name, g, str(xi), depth)
                        streams += isinstance(xi, ss.StreamPath)
                        unclosed += isinstance(xi, ss.PeriodicPath)
        assert streams, name
    assert unclosed >= 100, unclosed  # periodic walks that did not close by the depth


@pytest.mark.parametrize("name, t", MODEL_TRIPLES, ids=[name for name, _ in MODEL_TRIPLES])
def test_the_model_conditions_answer_as_the_full_depth_walk(name, t):
    rng = random.Random(f"model {name}")
    counting, steps = recorded(t)
    graph = t.graph
    verdicts, changed = set(), False
    for g in elements(rng, t):
        paths = inf_paths(rng, t)
        for zeta in paths:
            if isinstance(zeta, ss.PeriodicPath):
                walked = outcome(lambda: infinite._carry_walk(t, g, zeta, 64))
                if not (isinstance(walked, tuple) and isinstance(walked[1], ss.PeriodicSeq)):
                    continue
                eta, gseq = walked  # all three periodic: the window is decisive
                p = rng.randint(0, 3)
                cases = [(eta, gseq, p, p), (eta, gseq, p, rng.randint(0, 3))]
                if rng.random() < 0.5:
                    cases.append((rng.choice(paths[:3]), gseq, p, p))  # another eta
            else:
                try:
                    images, carries, _ = reference_orbit(t, g, zeta, 64)
                except (DepthExceededError, ValueError):
                    continue
                if not images:
                    continue
                i = rng.randrange(len(images))
                e = images[i]
                parallel = [f for f in graph.edges() if f != e and graph.range_of[f] == graph.range_of[e]
                            and graph.source_of[f] == graph.source_of[e]]
                if parallel and rng.random() < 0.5:
                    images[i], changed = rng.choice(parallel), True  # a letter of g.zeta changed
                if rng.random() < 0.3:
                    # A carry sequence that turns trivial too early: the carry condition fails past it.
                    j = rng.randrange(len(carries))
                    carries[j:] = [t.group.identity()] * (len(carries) - j)
                gseq = outcome(lambda: ss.BoundedSeq.make(t.group, carries))
                if isinstance(gseq, str):  # a carry outside the group is refused where it enters
                    assert gseq == "BackendMismatchError: False is not an element of integers", name
                    continue
                eta = ss.stream_path(graph, images)
                p = rng.randint(0, 3)
                cases = [(eta, gseq, p, p if rng.random() < 0.8 else rng.randint(0, 3))]
            for eta, gseq, p, q in cases:
                for depth in (1, 5, 64):
                    steps.clear()
                    ctx = unchecked_context(counting, depth)
                    verdict = outcome(lambda: ctx.model_check(eta, gseq, p - q, zeta, split=(p, q)))
                    taken = typed_steps(steps)
                    steps.clear()
                    assert verdict == outcome(lambda: _full_depth_conditions(counting, eta, gseq, p, q, zeta, depth)), (
                        name, g, str(zeta), str(eta), p, q, depth)
                    oracle = typed_steps(steps)
                    steps.clear()
                    outcome(lambda: infinite._carry_walk(counting, gseq.entry(p + 1), zeta.drop(q), depth))
                    walk = typed_steps(steps)
                    # The walk's steps, then the last steps of the full-depth walk: those of the
                    # conditions from the first that the walk does not meet. No walk where no
                    # condition is known.
                    rest = len(taken) - len(walk)
                    assert taken == [] == oracle or taken[: len(walk)] == walk and taken[len(walk):] == oracle[
                        len(oracle) - rest:], (name, g, str(zeta), str(eta), p, q, depth)
                    # Again: a kept walk is read from the table, and only the last steps are taken.
                    steps.clear()
                    assert outcome(lambda: ctx.model_check(eta, gseq, p - q, zeta, split=(p, q))) == verdict
                    assert typed_steps(steps) in (taken, taken[len(walk):]), (name, g, str(zeta), str(eta), p, q, depth)
                    verdicts.add(str(verdict).split("@")[0])
    if name == "false_restriction":  # every condition meets the carry False, which the integers refuse
        assert verdicts == {"BackendMismatchError: False is not an element of integers"}, verdicts
    else:
        assert "unknown" in verdicts and ("distinct" in verdicts or not changed), (name, verdicts)


def test_the_identity_law_is_checked_in_the_order_the_letters_come():
    # The identity restricts to 2 at e1, so the walk along e1.e0 never steps e0 from it.
    t = raising_triple((1, 2))
    xi = ss.stream_path(t.graph, [1, 0])
    assert infinite._orbit(t, 0, xi, 64) == reference_orbit(t, 0, xi, 64) == ([1, 0], [0, 2, 1], None)
    # The walk raises at e0; stepped in turn, the conditions fail at the first, before e0.
    t = raising_triple((1, 0))
    eta, gseq, zeta = ss.stream_path(t.graph, [0, 0]), ss.BoundedSeq(t.group, (0, 0, 0)), xi
    assert model_check(t, eta, gseq, 0, 0, zeta, 64).is_distinct
    assert _full_depth_conditions(t, eta, gseq, 0, 0, zeta, 64).is_distinct


class SelfDistinctIntegers(ss.IntegerGroup):
    """Integers whose comparison finds every pair distinct, the identity with itself too."""

    def eq(self, a, b):
        return DISTINCT


class LenientIntegers(ss.IntegerGroup):
    """Integers whose comparison takes any values, bools too; check still refuses bools."""

    def eq(self, a, b):
        return from_bool(a == b)


def test_the_model_pass_fails_where_the_full_depth_walk_fails():
    # The identity fixes e0 but restricts to the swap at e1: the carry condition fails at e1.
    t = half_identity_triple()
    zeta = ss.stream_path(t.graph, [0, 1, 0])
    gseq = ss.BoundedSeq(t.group, (0, 0, 0, 0))
    for p in (0, 1):
        assert model_check(t, zeta, gseq, p, p, zeta, 64).is_distinct
        assert _full_depth_conditions(t, zeta, gseq, p, p, zeta, 64).is_distinct
    # A backend that finds the identity distinct from itself fails the carry condition at once.
    odo = labeled_odometer()
    t = ss.SelfSimilarTriple(odo.graph, SelfDistinctIntegers(), odo.act_vertex, odo.step)
    zeta = ss.stream_path(t.graph, [0, 1, 0])
    assert model_check(t, zeta, gseq, 0, 0, zeta, 64).is_distinct
    assert _full_depth_conditions(t, zeta, gseq, 0, 0, zeta, 64).is_distinct
    # The carry False equals 0 in value only, and swaps e0: the step is no map on G x E. Even where
    # the backend's eq takes bools, its check refuses False, in gseq and in the walk that reaches it.
    bool_carry = bool_carry_triple()
    t = ss.SelfSimilarTriple(bool_carry.graph, LenientIntegers(), bool_carry.act_vertex, bool_carry.step)
    with pytest.raises(BackendMismatchError, match="^False is not an element of integers$"):
        ss.BoundedSeq.make(t.group, (0, 0, False, False))
    with pytest.raises(BackendMismatchError, match="^False is not an element of integers$"):
        infinite._carry_walk(t, 1, ss.stream_path(t.graph, [0, 0, 0]), 64)


def test_an_entry_equal_in_value_only_is_refused_where_it_enters():
    # A gseq holding False where the walk of 0 carries 0 (equal in value, but False swaps e0) is
    # refused by the checked constructors, on streams and periodic alike, before any condition
    # is compared by ==.
    bool_carry = bool_carry_triple()
    t = ss.SelfSimilarTriple(bool_carry.graph, LenientIntegers(), bool_carry.act_vertex, bool_carry.step)
    for make in (lambda: ss.BoundedSeq.make(t.group, (0, 0, False, False, False)),
                 lambda: ss.PeriodicSeq.make(t.group, (0,), (False,))):
        with pytest.raises(BackendMismatchError, match="^False is not an element of integers$"):
            make()


def test_each_stepped_entry_is_checked_though_the_comparison_takes_it():
    # The gseq 0, False, (0)* is no normal form, so the walk of 0 along (e0)* meets none of its
    # conditions and they are stepped. The lenient eq takes False as the carry 0 of condition 1;
    # check refuses it before condition 2 steps it.
    odo = labeled_odometer()
    t = ss.SelfSimilarTriple(odo.graph, LenientIntegers(), odo.act_vertex, odo.step)
    zeta = ss.periodic_path(t.graph, [], [0])
    with pytest.raises(BackendMismatchError, match="^False is not an element of integers$"):
        model_check(t, zeta, ss.PeriodicSeq(t.group, (0, False), (0,)), 0, 0, zeta, 64)
    assert model_check(t, zeta, ss.PeriodicSeq(t.group, (0, 0), (0,)), 0, 0, zeta, 64).is_equal


def test_a_broken_identity_law_keeps_the_letter_by_letter_walk():
    t = swapping_identity_triple()
    xi = ss.stream_path(t.graph, [0, 0, 1, 0])
    images, carries, closure = infinite._orbit(t, 0, xi, 64)
    assert (images, carries, closure) == ([1, 1, 0, 1], [0] * 5, None)


def test_a_carry_equal_in_value_only_is_stepped_apart():
    # False equals 0 but swaps the edge: along e0 the carry alternates between the two.
    t = ss.SelfSimilarTriple(loops_graph(), ss.IntegerGroup(), lambda g, v: v,
                             lambda g, e: (1 - e, 0) if g is False else (e, False), "alternating")
    xi = ss.stream_path(t.graph, [0] * 6)
    walked = infinite._orbit(t, 0, xi, 64)
    assert typed(walked) == typed(reference_orbit(t, 0, xi, 64))
    assert walked[0] == [0, 1, 0, 1, 0, 1]


def test_a_walk_through_carries_of_several_types_does_not_close():
    # Along (e0)* the carry alternates between 0 and False, and so does the image. A closure
    # that compares carries by == finds the state of 0 again at the second letter and would
    # claim g.xi = (e0)*: the walk checks every carry it reaches, and refuses False instead.
    t = ss.SelfSimilarTriple(loops_graph(), LenientIntegers(), lambda g, v: v,
                             lambda g, e: (1 - e, 0) if g is False else (e, False), "alternating")
    for xi in (ss.periodic_path(t.graph, [], [0]), ss.stream_path(t.graph, [0] * 6)):
        with pytest.raises(BackendMismatchError, match="^False is not an element of integers$"):
            infinite._carry_walk(t, 0, xi, 6)


def test_a_walk_refuses_a_carry_outside_the_group():
    # Each carry the walk reaches is checked as g is, then compared with itself: the integers
    # refuse the carry False, and a backend that finds 0 distinct from itself refuses 0.
    xi = ss.stream_path(loops_graph(), [0, 0, 0])
    with pytest.raises(BackendMismatchError, match="^False is not an element of integers$"):
        infinite._carry_walk(bool_carry_triple(), 1, xi, 64)
    odo = labeled_odometer()
    t = ss.SelfSimilarTriple(odo.graph, SelfDistinctIntegers(), odo.act_vertex, odo.step)
    with pytest.raises(BackendMismatchError, match="^the carry 0 does not compare equal to itself$"):
        infinite._carry_walk(t, 0, ss.stream_path(t.graph, [0, 0, 0]), 64)


def test_the_letter_budget_ends_the_walk_where_the_letter_by_letter_walk_ends(monkeypatch):
    monkeypatch.setattr(ss.groups, "MAX_ENUMERATION", 50)
    odo = labeled_odometer()
    letters = [1, 1, 0] + [0] * 60  # the carry 1 is 0 from the third letter on; each int costs 1
    xi = ss.stream_path(odo.graph, letters)
    with pytest.raises(DepthExceededError) as walked:
        infinite._orbit(odo, 1, xi, 64)
    with pytest.raises(DepthExceededError) as reference:
        reference_orbit(odo, 1, xi, 64)
    assert str(walked.value) == str(reference.value) == "the carry words along the path pass 50 letters at depth 51"
    # Fifty letters spend the budget exactly.
    xi = ss.stream_path(odo.graph, letters[:50])
    assert infinite._orbit(odo, 1, xi, 64) == reference_orbit(odo, 1, xi, 64)
    # Word carries cost their letters, and the trivial word costs none.
    machine = ss.adding_machine()
    xi = ss.stream_path(machine.graph, letters)
    assert infinite._orbit(machine, (1,), xi, 64) == reference_orbit(machine, (1,), xi, 64)


def recorded(t):
    """A copy of t whose step records the (carry, letter) of each call."""
    stepped = []

    def step(g, e):
        stepped.append((g, e))
        return t.step(g, e)

    return ss.SelfSimilarTriple(t.graph, t.group, t.act_vertex, step, t.description), stepped


def timed(call):
    """(call(), the seconds it took)."""
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def test_a_trivial_carry_ends_the_walk():
    # The odometer's carry 1 turns 0 at the first e0 and stays 0: every letter is still
    # stepped, as far as the letter budget lets a walk go, and the walk finishes in time.
    n = MAX_ENUMERATION  # each int carry costs one letter of the budget
    t, stepped = recorded(labeled_odometer())
    xi = ss.stream_path(t.graph, [0] * n)
    (gxi, seq), took = timed(lambda: infinite._carry_walk(t, 1, xi, n))
    assert gxi.letters == (1,) + (0,) * (n - 1) and seq.values == (1,) + (0,) * (n - 1)
    assert len(stepped) == n and took < 2.0, took
    walked = typed_steps(stepped)
    stepped.clear()
    reference_orbit(t, 1, xi, n)
    assert typed_steps(stepped) == walked  # the letter-by-letter walk steps every letter too


def test_each_distinct_model_condition_is_stepped_once():
    # Past the carry's turn to 0 every condition repeats (0, 0, e0, e0). Over the largest
    # window the letter budget allows, the walk steps each letter once, the last condition,
    # whose carry a bounded walk does not keep, is stepped on its own, and the check
    # finishes in time.
    n = MAX_ENUMERATION
    t, stepped = recorded(labeled_odometer())
    zeta = ss.stream_path(t.graph, [0] * n)
    eta = ss.stream_path(t.graph, [1] + [0] * (n - 1))
    gseq = ss.BoundedSeq(t.group, (1,) + (0,) * n)
    verdict, took = timed(lambda: model_check(t, eta, gseq, 0, 0, zeta, n))
    assert str(verdict) == f"unknown@{n}" and len(stepped) <= n + 1 and took < 2.0, (len(stepped), took)
    stepped.clear()
    assert _full_depth_conditions(t, eta, gseq, 0, 0, zeta, n) == verdict
    assert len(stepped) == n  # the full-depth walk steps every condition too


class HashCounted(int):
    """Integers that count the hashes taken of them."""

    hashes = 0

    def __hash__(self):
        HashCounted.hashes += 1
        return int.__hash__(self)


def test_the_model_pass_stops_at_its_first_failing_condition():
    t = labeled_odometer()
    zeta = ss.stream_path(t.graph, [0] * 100_000)
    eta = ss.stream_path(t.graph, [0] * 100_000)  # the carry 1 sends e0 to e1: condition 1 fails
    gseq = ss.BoundedSeq(t.group, (HashCounted(1),) + (HashCounted(0),) * 100_000)
    HashCounted.hashes = 0
    assert model_check(t, eta, gseq, 0, 0, zeta, 100_000).is_distinct
    assert HashCounted.hashes <= 4  # no more than condition 1's carries: the window is read lazily


def multiplying_cayley(rng):
    """Z/n, n in 2..7, fixing the loops at one vertex, each loop e multiplying the carry by its
    own c_e: phi(g, e) = c_e.g, which keeps the laws for any choice of the c_e."""
    n, loops = rng.randint(2, 7), rng.randint(1, 3)
    group = ss.FiniteGroup([f"g{i}" for i in range(n)], [[(a + b) % n for b in range(n)] for a in range(n)])
    graph = ss.make_graph(["v"], [(f"e{i}", "v", "v") for i in range(loops)])
    c = [rng.randrange(n) for _ in range(loops)]
    return ss.finite_triple(graph, group, [[0]] * n, [list(range(loops))] * n,
                            [[c[e] * g % n for e in range(loops)] for g in range(n)])


def test_a_walk_over_a_finite_group_closes_within_p_plus_order_times_q():
    # (carry, phase) takes at most |G|.q values on a cycle of q letters, so a periodic walk over
    # a finite group closes by step p + |G|.q, whatever the depth: the walk answers as the
    # letter-by-letter walk run to that bound, on every Cayley spec and random valid Cayley triples.
    rng = random.Random("finite orbits")
    triples = [t for _, t in all_spec_triples() if t.group.is_finite]
    for _ in range(8):
        t = multiplying_cayley(rng)
        ss.sweeps.require_axioms(t)
        triples.append(t)
    past_the_depth = 0
    for t in triples:
        order = len(t.group.elements())
        cycles = [p for p in ss.all_paths_upto(t.graph, 4) if not p.is_vertex and p.range_vertex == p.source_vertex]
        for g in t.group.elements():
            for _ in range(6):
                cycle = rng.choice(cycles)
                prefix = rng.choice([p for p in ss.all_paths_upto(t.graph, 3) if p.source_vertex == cycle.range_vertex])
                xi = ss.periodic_path(t.graph, prefix.edges, cycle.edges)
                p, q = len(xi.prefix_edges), len(xi.cycle_edges)
                expected = reference_orbit(t, g, xi, p + order * q)
                assert expected[2] is not None and expected[2][1] <= p + order * q, (t.description, g, str(xi))
                for depth in (1, 64):
                    assert infinite._orbit(t, g, xi, depth) == expected, (t.description, g, str(xi), depth)
                past_the_depth += expected[2][1] > 1 + p + q  # where a depth-1 walk used to stop
    assert past_the_depth >= 20, past_the_depth


def test_a_finite_group_walk_past_the_enumeration_limit_stays_bounded(monkeypatch):
    # Along (e1^29.e0)* the carry 1 of Z/5 recurs after 120 letters: exact at the default
    # depth, bounded at that depth once the limit cuts the walk at 100 letters.
    t = load_spec_file(str(TEST_SPECS / "z5_doubling.spec")).triple
    zeta = ss.periodic_path(t.graph, [], [1] * 29 + [0])
    assert infinite._orbit(t, 1, zeta, 64)[2] == (0, 120)
    gxi, seq = infinite._carry_walk(t, 1, zeta, 64)
    assert gxi == zeta and str(seq) == "(" + ",".join(c for c in "1243" for _ in range(30)) + ")*"
    monkeypatch.setattr(ss.groups, "MAX_ENUMERATION", 100)
    assert infinite._orbit(t, 1, zeta, 64) == reference_orbit(t, 1, zeta, 64)
    gxi, seq = infinite._carry_walk(t, 1, zeta, 64)
    assert isinstance(gxi, ss.StreamPath) and len(seq.values) == 64
