"""Group backend behavior: exact backends, Cayley validation, word equality."""

import inspect
import itertools
import pickle
import random
import re
import sys
import threading
import time

import pytest
from hypothesis import given, strategies as st

import selfsim as ss
from conftest import INVERSE_LETTER_SPEC, SPECS, TEST_SPECS, all_spec_triples, fold_step, stack_step
from selfsim.errors import BackendMismatchError, NonBijectiveOutputError
from selfsim.automaton import invert_word, reduce_word
from selfsim.groups import MAX_ENUMERATION, check_window_radius
from selfsim.infinite import _carry_walk
from selfsim.specfile import load_spec_file, load_spec_text


def test_integer_ops():
    z = ss.IntegerGroup()
    assert z.mul(3, -1) == 2
    assert z.inv(5) == -5
    assert z.identity() == 0
    assert z.eq(2, 2).is_equal and z.eq(2, 3).is_distinct
    with pytest.raises(BackendMismatchError):
        z.mul(1, "x")


def test_check_fast_path_keeps_refusing_non_elements():
    z = ss.IntegerGroup()
    c3 = ss.FiniteGroup(["0", "1", "2"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]])

    class Wide(int):
        pass

    assert z.check(5) == 5 and z.check(-7) == -7 and z.check(Wide(4)) == 4
    assert [c3.check(x) for x in range(3)] == [0, 1, 2] and c3.check(Wide(2)) == 2
    for backend, bad in [(z, True), (z, False), (z, "1"), (z, 1.0), (c3, True), (c3, 3), (c3, -1),
                         (c3, Wide(3)), (c3, "0")]:
        with pytest.raises(BackendMismatchError):
            backend.check(bad)


CONTRACT_BACKENDS = [("integers", ss.IntegerGroup())] + [
    (name, t.group) for name, t in all_spec_triples() if not isinstance(t.group, ss.IntegerGroup)]


@pytest.mark.parametrize("name, group", CONTRACT_BACKENDS, ids=[name for name, _ in CONTRACT_BACKENDS])
def test_every_backend_keeps_the_equality_contract(name, group):
    # A checked value hashes, and a == b implies eq(a, b) is equal: the library compares checked
    # values by == alone. Words are paired with their spelling by bool letters, equal to them.
    window = ss.default_window(group, 2)
    words = isinstance(group, ss.AutomatonGroup)
    spelled = [tuple(True if s == 1 else s for s in x) for x in window] if words else []
    buckets = {}
    for x in window + spelled:
        buckets.setdefault(group.check(x), []).append(x)
    assert len(buckets) == len(window)
    for bucket in buckets.values():
        assert all(group.eq(a, b).is_equal for a, b in itertools.product(bucket, repeat=2)), bucket
    if not words:  # integers and Cayley groups keep it as "iff"
        assert all(group.eq(a, b).is_equal is (a == b) for a, b in itertools.product(window, repeat=2))
    refused = [True, 1.0, "1", (1, -1)] + ([len(group.names)] if isinstance(group, ss.FiniteGroup) else [])
    for x in refused:
        with pytest.raises(BackendMismatchError, match="^" + re.escape(f"{x!r} is not an element of {group}") + "$"):
            group.check(x)


def test_a_word_of_bool_letters_acts_as_its_word_of_ints():
    # (True,) is an element, equal to (1,): it renders, walks and hits the walk table as (1,) does.
    machine = ss.adding_machine()
    group = machine.group
    assert group.check((True,)) == (1,) and group.render((True,)) == group.render((1,)) == "a"
    xi = ss.periodic_path(machine.graph, [], [1])
    assert _carry_walk(machine, (True,), xi, 64) == _carry_walk(machine, (1,), xi, 64)
    ctx = ss.GermContext(machine, window=ss.default_window(group, 2))
    w = ss.vertex_path(machine.graph, 0)
    answer = ctx.f_map(ctx.make(w, (1,), w, xi))[:2]
    held = dict(ctx._walks)
    gxi, lag, _ = ctx.f_map(ctx.make(w, (True,), w, xi))
    assert (gxi, lag) == answer and dict(ctx._walks) == held
    assert type(lag.corona.entry(1)[0]) is int  # read from the table: a fresh walk would carry True


@pytest.mark.parametrize("spec", [SPECS / "adding_machine.spec", TEST_SPECS / "grigorchuk.spec"],
                         ids=lambda p: p.stem)
def test_word_check_refuses_exactly_the_non_members(spec):
    group = load_spec_file(str(spec)).triple.group  # a fresh backend
    k = len(group.generator_names)
    rng = random.Random(15)

    def letter():
        s = rng.randint(-k - 1, k + 1)
        return rng.choice([s, s, s, float(s), s == 1, str(s)])

    fixed = [[1], (1.0,), (0,), (k + 1,), (-k - 1,), (1, -1), (1, 1, -1), (-1, 1), (True,), (1, True),
             (True, -1), (1, 1.0), ((1,),), "1", 1, None, ()]
    drawn = [tuple(letter() for _ in range(rng.randint(0, 5))) for _ in range(400)]
    drawn += [reduce_word(rng.choice([s, -s]) for s in rng.choices(range(1, k + 1), k=rng.randint(1, 5)))
              for _ in range(100)]

    def refused(x):
        try:
            assert group.check(x) is x
        except BackendMismatchError:
            return True
        return False

    def reduced_word(x):  # the definition: int letters in +-1..k that free reduction leaves as they are
        return (isinstance(x, tuple) and all(isinstance(s, int) and 0 < abs(s) <= k for s in x)
                and x == reduce_word(x))

    group.check((1,))
    for rounds in ("cold", "warm"):
        for x in fixed + drawn:
            assert refused(x) is not group.contains(x), (rounds, x)
            assert group.contains(x) is reduced_word(x), x


def test_cyclic_two():
    g = ss.FiniteGroup(["0", "1"], [[0, 1], [1, 0]])
    assert g.mul(1, 1) == 0
    assert g.identity() == 0
    assert g.inv(1) == 1
    assert g.render(1) == "1"


def test_cayley_rejects_no_identity():
    with pytest.raises(ValueError):
        ss.FiniteGroup(["a", "b"], [[0, 0], [0, 0]])


def test_cayley_rejects_non_associative():
    # A quasigroup table without associativity.
    table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    with pytest.raises(ValueError):
        ss.FiniteGroup(["e", "a", "b"], table)


@given(st.lists(st.integers(0, 2), min_size=9, max_size=9))
def test_cayley_validation_matches_brute_force(flat):
    table = [flat[0:3], flat[3:6], flat[6:9]]

    def is_group():
        ident = None
        for e in range(3):
            if all(table[e][x] == x == table[x][e] for x in range(3)):
                ident = e
        if ident is None:
            return False
        for a in range(3):
            if not any(table[a][b] == ident == table[b][a] for b in range(3)):
                return False
        return all(
            table[table[a][b]][c] == table[a][table[b][c]]
            for a, b, c in itertools.product(range(3), repeat=3)
        )

    try:
        ss.FiniteGroup(["e", "a", "b"], table)
        built = True
    except ValueError:
        built = False
    assert built == is_group()


def test_reduce_and_invert():
    assert reduce_word((1, -1)) == ()
    assert reduce_word((1, 2, -2, -1, 1)) == (1,)
    assert invert_word((1, 2)) == (-2, -1)


@pytest.fixture
def machine_group(machine):
    return machine.group


def test_word_ops(machine_group):
    a = machine_group.generator(0)
    assert machine_group.mul(a, machine_group.inv(a)) == ()
    assert machine_group.eq(machine_group.mul(a, machine_group.inv(a)), ()).is_equal
    assert machine_group.render(machine_group.mul(a, a)) == "a.a"
    assert machine_group.parse("a.a'") == ()
    assert machine_group.parse("1") == ()
    with pytest.raises(BackendMismatchError, match=r"^unknown generator: 'x'$"):
        machine_group.parse("a.x'")


def test_word_action_equality(machine_group):
    g = machine_group
    a = g.generator(0)
    # a * a^-1 reduces to the identity word; a vs a.a act differently at depth 1
    assert g.eq(a, g.mul(g.mul(a, a), g.inv(a))).is_equal
    assert g.eq(a, g.mul(a, a)).is_distinct


def test_word_equality_unknown_without_faithful_flag():
    # Trivial automaton: the generator acts as the identity everywhere, but
    # the word stays distinct from the empty word without the faithful flag.
    g = ss.AutomatonGroup(["t"], 2, [[0, 1]], [[(), ()]], faithful_to_depth=False)
    verdict = g.eq(g.generator(0), ())
    assert verdict.is_unknown
    faithful = ss.AutomatonGroup(["t"], 2, [[0, 1]], [[(), ()]], faithful_to_depth=True)
    assert faithful.eq(faithful.generator(0), ()).is_equal


def test_non_bijective_output_rejected():
    with pytest.raises(NonBijectiveOutputError):
        ss.AutomatonGroup(["a"], 2, [[0, 0]], [[(), ()]])


def test_group_laws_sampled(odo, swap2, machine):
    for triple, window in (
        (odo, ss.default_window(odo.group, 3)),
        (swap2, ss.default_window(swap2.group, 3)),
        (machine, ss.default_window(machine.group, 2)),
    ):
        g = triple.group
        for a in window:
            assert g.eq(g.mul(a, g.identity()), a).is_equal
            assert g.eq(g.mul(a, g.inv(a)), g.identity()).is_equal
            for b in window:
                for c in window:
                    lhs = g.mul(g.mul(a, b), c)
                    rhs = g.mul(a, g.mul(b, c))
                    assert g.eq(lhs, rhs).is_equal


def test_default_window_shape(odo, swap2, machine):
    w = ss.default_window(odo.group, 4)
    assert w[0] == 0 and set(w) == set(range(-4, 5))
    assert set(ss.default_window(swap2.group, 1)) == {0, 1}
    words = ss.default_window(machine.group, 2)
    assert () in words and (1,) in words and (-1,) in words and (1, 1) in words


def _free_generator_group(k):
    return ss.AutomatonGroup([f"s{i}" for i in range(k)], 2, [[1, 0]] * k, [[(), ()]] * k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_window_size_closed_form_matches_window(k):
    group = _free_generator_group(k)
    for radius in range(6):
        assert group.window_size(radius) == len(group.window(radius))
    integers = ss.IntegerGroup()
    for radius in range(6):
        assert integers.window_size(radius) == len(integers.window(radius))


@pytest.mark.parametrize("make,top", [
    (lambda: _free_generator_group(1), 4),
    (lambda: _free_generator_group(2), 4),
    (lambda: _free_generator_group(3), 4),
    (lambda: load_spec_file(str(TEST_SPECS / "grigorchuk.spec")).triple.group, 3),
], ids=["k1", "k2", "k3", "grigorchuk"])
def test_window_lists_reduced_words_by_length_then_letter(make, top):
    # The sweeps' first counterexamples rest on this order: every signed word
    # that free reduction leaves as it is, by length, then letter by letter in
    # the order 1, 1', 2, 2', ...
    group = make()
    k = len(group.generator_names)
    letters = [s for g in range(1, k + 1) for s in (g, -g)]
    for radius in range(top + 1):
        brute = [w for n in range(radius + 1) for w in itertools.product(letters, repeat=n) if reduce_word(w) == w]
        assert group.window(radius) == brute, radius


def test_window_refuses_oversize_before_building():
    group = ss.AutomatonGroup(["a", "b"], 2, [[1, 0], [0, 1]], [[(), ()], [(), ()]])
    # 1 + 4 (3^r - 1) / 2 words: radius 10 gives 118097, past the limit.
    assert group.window_size(9) == 39365 <= MAX_ENUMERATION < group.window_size(10)
    assert group.window_size(10**9) > MAX_ENUMERATION  # summing stops past the limit
    with pytest.raises(ValueError, match="more than 100000 elements in the window of radius 10 "):
        group.window(10)
    with pytest.raises(ValueError, match="radius 1000000000 "):
        ss.IntegerGroup().window(10**9)
    # The integer window at radius r has 2r + 1 elements.
    assert len(ss.IntegerGroup().window(49999)) == 99999
    with pytest.raises(ValueError, match="radius 50000 "):
        ss.IntegerGroup().window(50000)


def test_equality_takes_no_depth():
    for method in (
        ss.GroupBackend.eq,
        ss.GroupBackend.is_identity,
        ss.IntegerGroup.eq,
        ss.FiniteGroup.eq,
        ss.AutomatonGroup.eq,
        ss.element_eq,
    ):
        assert "depth" not in inspect.signature(method).parameters, method


def _test_group(name):
    return load_spec_file(str(TEST_SPECS / f"{name}.spec")).triple.group


def test_step_matches_the_fold(machine_group):
    rng = random.Random(61)
    inverse_letters = load_spec_text(INVERSE_LETTER_SPEC).triple.group
    for group in (machine_group, _test_group("grigorchuk"), inverse_letters):
        syms = [s for g in range(len(group.generator_names)) for s in (g + 1, -(g + 1))]
        for _ in range(400):
            word = reduce_word([rng.choice(syms) for _ in range(rng.randint(0, 40))])
            for letter in range(group.n_letters):
                assert group.step(word, letter) == fold_step(group, word, letter), (word, letter)


def _signed_word(rng, group, max_len):
    syms = [s for g in range(len(group.generator_names)) for s in (g + 1, -(g + 1))]
    return reduce_word([rng.choice(syms) for _ in range(rng.randint(0, max_len))])


def _memo_letters(memo):
    return sum(len(word) + len(rest) for (word, _), (_, rest) in memo.items())


@pytest.mark.parametrize("spec", [SPECS / "adding_machine.spec", TEST_SPECS / "grigorchuk.spec",
                                  TEST_SPECS / "doubling.spec"], ids=lambda p: p.stem)
def test_memoised_step_matches_the_stack_recursion(spec):
    group = load_spec_file(str(spec)).triple.group
    rng = random.Random(67)
    for _ in range(300):
        word = _signed_word(rng, group, 50)
        for letter in range(group.n_letters):
            expected = stack_step(group, word, letter)
            # The first call fills the memo, the second reads it.
            assert group.step(word, letter) == expected, (word, letter)
            assert group._steps[(word, letter)] == expected
            assert group.step(word, letter) == expected
    assert group._steps.held == _memo_letters(group._steps) <= MAX_ENUMERATION


def test_step_memo_stops_growing_at_its_letter_budget():
    group = _test_group("grigorchuk")
    rng = random.Random(71)
    words = {_signed_word(rng, group, 400) for _ in range(700)}
    for word in words:
        for letter in range(group.n_letters):
            group.step(word, letter)
    memo = group._steps
    assert len(memo) < len(words) * group.n_letters  # the flood filled it
    assert memo.held == _memo_letters(memo) <= MAX_ENUMERATION
    for _ in range(50):
        word = _signed_word(rng, group, 400)
        for letter in range(group.n_letters):
            assert group.step(word, letter) == stack_step(group, word, letter)
    assert memo.held == _memo_letters(memo) <= MAX_ENUMERATION
    for (word, letter), answer in list(memo.items())[::25]:
        assert answer == stack_step(group, word, letter)


def test_comparison_memo_stops_growing_at_its_letter_budget():
    group = _test_group("grigorchuk")
    rng = random.Random(73)
    for _ in range(120):
        a, b = _signed_word(rng, group, 1200), _signed_word(rng, group, 1200)
        assert group.eq(a, b) == group._compare(a, b)  # the memo's answer is the walk's
    memo = group._verdicts
    assert 0 < len(memo) < 120
    assert memo.held == sum(len(a) + len(b) for a, b in memo) <= MAX_ENUMERATION


def test_a_pickled_backend_answers_alike_with_an_empty_memo(machine_group):
    a = machine_group.generator(0)
    assert machine_group.eq(a * 3, a).is_distinct
    stepped = machine_group.step(a * 3, 1)
    clone = pickle.loads(pickle.dumps(machine_group))
    assert len(clone._steps) == len(clone._verdicts) == clone._steps.held == 0
    assert clone.eq(a * 3, a).is_distinct and clone.step(a * 3, 1) == stepped


def test_threads_sharing_a_backend_keep_the_memo_bound():
    group = _test_group("grigorchuk")
    failures = []

    def flood(seed):
        rng = random.Random(seed)
        for _ in range(150):
            word = _signed_word(rng, group, 400)
            for letter in range(group.n_letters):
                if group.step(word, letter) != stack_step(group, word, letter):
                    failures.append((word, letter))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=flood, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    # A lost update would leave the count apart from the letters held.
    assert group._steps.held == _memo_letters(group._steps) <= MAX_ENUMERATION


def test_power_2048_of_adding_machine_is_not_identity(machine_group):
    a = machine_group.generator(0)
    # a * 2048 repeats the one-letter word: the reduced word a^2048.
    assert machine_group.eq(a * 2048, ()).is_distinct
    assert machine_group.is_identity(a * 2048).is_distinct


def test_adding_machine_powers_equal_only_when_exponents_do(machine_group):
    rng = random.Random(7)

    def power(n):
        return (1,) * n if n >= 0 else (-1,) * -n

    for _ in range(300):
        n, m = rng.randint(-200, 200), rng.randint(-200, 200)
        if rng.random() < 0.2:
            m = n
        verdict = machine_group.eq(power(n), power(m))
        assert not verdict.is_unknown
        assert verdict.is_equal == (n == m), (n, m)


@pytest.mark.parametrize(
    "word,n,expected",
    [
        ("a", 2, "equal"),
        ("b.c.d", 1, "equal"),
        ("a.d", 4, "equal"),
        ("a.b", 16, "equal"),
        ("a.c", 8, "equal"),
        ("a.d", 2, "distinct"),
        ("a.b", 8, "distinct"),
        ("a.c", 4, "distinct"),
    ],
)
def test_grigorchuk_relations(word, n, expected):
    g = _test_group("grigorchuk")
    assert g.eq(g.parse(".".join([word] * n)), ()).verdict == expected


def test_chain_is_decided_below_the_old_depth():
    # s1 fixes every letter down to level 39 and moves one at level 40.
    g = _test_group("chain40")
    assert g.eq(g.parse("s1"), ()).is_distinct
    assert g.eq(g.parse("s1"), g.parse("s2")).is_distinct


def test_non_faithful_closure_reports_levels_compared():
    g = ss.AutomatonGroup(["t"], 2, [[0, 1]], [[(), ()]])
    assert str(g.eq(g.generator(0), ())) == "unknown@1"


def test_comparison_budget_ends_a_walk_that_never_closes():
    # The doubling automaton's a acts trivially, but the restrictions of a
    # double at every level, so the walk only ends at the budget.
    g = _test_group("doubling")
    start = time.perf_counter()
    verdict = g.eq(g.parse("a"), ())
    assert verdict.is_unknown
    assert time.perf_counter() - start < 1.0


def test_comparison_budget_bounds_the_letters_stepped(monkeypatch):
    g = _test_group("doubling")
    stepped = [0]
    step = g.step

    def counting(word, letter):
        stepped[0] += len(word)
        return step(word, letter)

    monkeypatch.setattr(g, "step", counting)
    for word in ("a", "a'", "a.a.a"):
        stepped[0] = 0
        assert g.is_identity(g.parse(word)).is_unknown
        # Every word stepped belongs to a pair the budget admitted.
        assert 0 < stepped[0] <= g.n_letters * MAX_ENUMERATION


@pytest.mark.parametrize(
    "backend",
    [ss.IntegerGroup(), ss.adding_machine().group, ss.z2_swap().group],
    ids=["integer", "automaton", "cayley"],
)
def test_negative_window_radius_is_refused(backend):
    with pytest.raises(ValueError, match="window radius must be at least 0, got -3"):
        check_window_radius(backend, -3)
    with pytest.raises(ValueError, match="window radius must be at least 0, got -3"):
        ss.default_window(backend, -3)
    assert ss.default_window(backend, 0)[0] == backend.identity()


@pytest.mark.parametrize("sweep", [ss.verify_axioms, ss.check_residually_free],
                         ids=["verify_axioms", "check_residually_free"])
@pytest.mark.parametrize("triple,window", [(ss.odometer(), [0, [1]]), (ss.adding_machine(), [(), [1]])],
                         ids=["integer", "automaton"])
def test_a_non_element_in_the_window_is_refused(sweep, triple, window):
    with pytest.raises(BackendMismatchError, match=r"^\[1\] is not an element of "):
        sweep(triple, window)
