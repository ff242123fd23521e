"""Corona sequences, shifts, and the lag group."""

import inspect
import random
import re
from math import lcm

import pytest

import selfsim as ss
from selfsim.errors import BackendMismatchError, DepthExceededError
from selfsim.specfile import load_spec_text, parse_corona
from selfsim.tri import DISTINCT, EQUAL
from conftest import TWIN_MACHINE_SPEC


@pytest.fixture
def z():
    return ss.IntegerGroup()


def seq(z, prefix, cycle):
    return ss.PeriodicSeq.make(z, tuple(prefix), tuple(cycle))


def test_finitely_supported_difference_is_trivial(z):
    a = seq(z, (5,), (0,))
    assert ss.corona_eq(a, ss.corona_identity(z)).is_equal


def test_all_ones_distinct_from_identity(z):
    ones = seq(z, (), (1,))
    assert ss.corona_eq(ones, ss.corona_identity(z)).is_distinct


def test_shift_round_trip(z):
    a = seq(z, (3, 1), (2, 5))
    # left shift then right shift drops nothing modulo tail equality
    assert ss.corona_eq(ss.shift_right(ss.shift_left(a)), a).is_equal
    assert ss.corona_eq(ss.shift_left(ss.shift_right(a)), a).is_equal
    for k in range(4):
        shifted = ss.shift_right(a, k)
        for n in range(1, 12):
            assert shifted.entry(n + k) == a.entry(n)


def test_a_negative_shift_shifts_the_other_way(z):
    a, bounded = seq(z, (3, 1), (2, 5)), ss.BoundedSeq(z, (4, 6, 7))
    for k in range(3):
        assert ss.shift_left(a, -k) == ss.shift_right(a, k)
        assert ss.shift_left(bounded, -k).values == ss.shift_right(bounded, k).values


class CountingIntegers(ss.IntegerGroup):
    """Integers that count their products and comparisons."""

    def __init__(self):
        self.products = self.comparisons = 0

    def mul(self, a, b):
        self.products += 1
        return super().mul(a, b)

    def eq(self, a, b):
        self.comparisons += 1
        return super().eq(a, b)


def test_a_joint_window_past_the_limit_is_refused_before_any_entry():
    z = CountingIntegers()
    a, b = seq(z, (), (1,) + (0,) * 1008), seq(z, (), (1,) + (0,) * 1012)  # primitive cycles of 1009 and 1013
    with pytest.raises(ValueError, match="more than 100000 entries in a joint window"):
        ss.corona_mul(a, b)
    assert z.products == 0
    small = ss.corona_mul(a, seq(z, (2,), (3,)))
    assert z.products == 1010 and small.entry(1) == 3 and small.entry(1010) == 4


def test_a_long_joint_period_is_compared_up_to_the_limit(z, monkeypatch):
    a, b = seq(z, (), (0,) * 5 + (1,)), seq(z, (), (0,) * 6 + (1,))  # they first differ at entry 6
    assert ss.corona_eq(a, b).is_distinct
    monkeypatch.setattr(ss.corona, "MAX_ENUMERATION", 5)
    assert str(ss.corona_eq(a, b)) == "unknown@5"
    assert ss.corona_eq(a, seq(z, (), (1,) + (0,) * 6)).is_distinct  # a difference within the limit decides
    assert ss.corona_eq(seq(z, (), (0, 1)), seq(z, (1,), (1, 0))).is_equal  # a joint period within the limit


def test_a_difference_at_the_first_entry_ends_the_comparison():
    z = CountingIntegers()
    a, b = seq(z, (), (1,) + (0,) * 1008), seq(z, (), (2,) + (0,) * 1012)  # primitive cycles of 1009 and 1013
    assert ss.corona_eq(a, b).is_distinct
    assert z.comparisons == 1


def eager_corona_eq(a, b):
    """corona_eq of two periodic sequences with every entry of the joint window compared first."""
    p = max(len(a.prefix), len(b.prefix))
    verdicts = [a.backend.eq(a.entry(n), b.entry(n)) for n in range(p + 1, p + lcm(len(a.cycle), len(b.cycle)) + 1)]
    if any(v.is_distinct for v in verdicts):
        return DISTINCT
    return next((v for v in verdicts if v.is_unknown), EQUAL)


@pytest.mark.parametrize("backend", ["integer", "cayley", "twin_machine"])
def test_the_comparison_answers_as_the_eager_conjunction(backend):
    rng = random.Random(f"corona_eq {backend}")
    if backend == "integer":
        group, pool = ss.IntegerGroup(), [0, 1, -1, 2]
    elif backend == "cayley":
        group, pool = ss.FiniteGroup(["e", "r", "r2"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]]), [0, 1, 2]
    else:
        # Two copies of the adding machine: a word of a against the same word of b is undecided at some depth.
        group = load_spec_text(TWIN_MACHINE_SPEC).triple.group
        pool = [(), (1,), (2,), (1, 1), (2, 2), (1, -2), (-2,), (1, 1, 1, 1), (2, 1, 1, 2)]
    draw = lambda n: [rng.choice(pool) for _ in range(n)]  # noqa: E731
    verdicts = set()
    for _ in range(300):
        a = ss.PeriodicSeq.make(group, draw(rng.randint(0, 3)), draw(rng.randint(1, 4)))
        cycle = list(a.cycle) if rng.random() < 0.5 else draw(rng.randint(1, 4))
        if rng.random() < 0.5:
            cycle[rng.randrange(len(cycle))] = rng.choice(pool)  # a tail that may differ in one entry
        b = ss.PeriodicSeq.make(group, draw(rng.randint(0, 3)), cycle)
        verdict = ss.corona_eq(a, b)
        assert verdict == eager_corona_eq(a, b), (str(a), str(b))
        verdicts.add(str(verdict))
    unknowns = {v for v in verdicts if v.startswith("unknown")}
    assert {"equal", "distinct"} <= verdicts and (len(unknowns) >= 2) == (backend == "twin_machine"), verdicts


def test_entries_equal_in_value_only_are_refused_or_merged(z):
    # The backend contract: values are checked where they enter, and then compared by == alone.
    # Built unchecked, (False)* compared equal to, and hashed like, (0)*; only corona_eq refused it.
    for prefix in ((), (0,)):
        with pytest.raises(BackendMismatchError, match="^False is not an element of integers$"):
            seq(z, prefix, (False,))
    # The normal form of unchecked values merges entries equal in value, whatever their types.
    assert ss.periodic.normalize((1,), (True, 1)) == ((), (1,))
    assert ss.periodic.primitive_root((True, 1, True, 1)) == (True,)
    assert ss.periodic.absorb((1, True), (True,)) == ((), (True,))
    assert ss.periodic.normalize((1,), (0, 1, 0, 1)) == ((), (1, 0))


CHECKED_BACKENDS = [
    ("integers", ss.IntegerGroup(), "5", 1.0),
    ("cayley", ss.FiniteGroup(["1", "s"], [[0, 1], [1, 0]]), "s", 2),
    ("automaton", ss.adding_machine().group, "a", (1, -1)),
]


@pytest.mark.parametrize("name, group, text, bad", CHECKED_BACKENDS, ids=[c[0] for c in CHECKED_BACKENDS])
def test_the_checked_constructors_refuse_a_non_element(name, group, text, bad, monkeypatch):
    refused = f"^{re.escape(repr(bad))} is not an element of {re.escape(str(group))}$"
    good = group.parse(text)
    for make in (lambda: ss.PeriodicSeq.make(group, (bad,), (good,)), lambda: ss.PeriodicSeq.make(group, (), (bad,)),
                 lambda: ss.BoundedSeq.make(group, (good, bad))):
        with pytest.raises(BackendMismatchError, match=refused):
            make()
    assert ss.BoundedSeq.make(group, [good]).values == (good,)
    assert ss.PeriodicSeq.make(group, [good], [good, good]) == ss.PeriodicSeq(group, (), (good,))

    # parse_corona builds through both: a parse that lets the non-element through is still refused.
    parse = group.parse
    monkeypatch.setattr(group, "parse", lambda literal: bad if literal == "bad" else parse(literal))
    for literal in (f"{text},bad({text})*", f"bad({text})*", f"{text},bad", f"{text},bad~"):
        with pytest.raises(BackendMismatchError, match=refused):
            parse_corona(group, literal)
    assert parse_corona(group, f"{text},{text}~").values == (good, good)


def test_pointwise_mul_and_inv(z):
    a = seq(z, (1,), (2, 3))
    b = seq(z, (0, 4), (5,))
    prod = ss.corona_mul(a, b)
    for n in range(1, 16):
        assert prod.entry(n) == a.entry(n) + b.entry(n)
    inv = ss.corona_inv(a)
    for n in range(1, 16):
        assert inv.entry(n) == -a.entry(n)


def test_eq_periodic_alignment(z):
    # same tail, different preperiods and period lengths
    a = seq(z, (9, 9), (1, 2, 1, 2))
    b = seq(z, (7,), (2, 1))
    # a tail: 1,2,1,2,...  starting index 3; b tail: 2,1,2,1... from index 2
    assert ss.corona_eq(a, b).is_equal
    c = seq(z, (), (1, 2, 2))
    assert ss.corona_eq(a, c).is_distinct


def test_bounded_stream_is_tri_state(z):
    bounded = ss.BoundedSeq(z, (1, 0, 0, 0))
    assert ss.corona_eq(bounded, ss.corona_identity(z)).is_unknown
    with pytest.raises(DepthExceededError):
        bounded.entry(5)
    with pytest.raises(DepthExceededError):
        ss.shift_left(bounded, 9)


def test_bounded_sequences_multiply_invert_and_shift(z):
    a, b = ss.BoundedSeq(z, (1, 2, 3)), ss.BoundedSeq(z, (4, 5))
    assert ss.corona_mul(a, b).values == (5, 7)
    assert ss.corona_mul(a, seq(z, (), (1,))).values == (2, 3, 4)
    assert ss.corona_inv(a).values == (-1, -2, -3)
    assert ss.shift_left(a, 2).values == (3,)


def test_lag_group_law(z):
    a = ss.LagValue(seq(z, (1,), (2,)), 2)
    b = ss.LagValue(seq(z, (), (3,)), -1)
    prod = ss.lag_mul(a, b)
    assert prod.shift == 1
    rho_b = ss.shift_right(b.corona, a.shift)
    for n in range(1, 65):
        assert prod.corona.entry(n) == a.corona.entry(n) + rho_b.entry(n)


def test_lag_inverse_and_identity(z):
    a = ss.LagValue(seq(z, (4,), (2, 7)), 3)
    prod = ss.lag_mul(a, ss.lag_inv(a))
    assert ss.lag_eq(prod, ss.lag_identity(z)).is_equal
    prod = ss.lag_mul(ss.lag_inv(a), a)
    assert ss.lag_eq(prod, ss.lag_identity(z)).is_equal


def test_lag_associativity_sampled(z):
    vals = [
        ss.LagValue(seq(z, (1,), (0,)), 0),
        ss.LagValue(seq(z, (), (1,)), 2),
        ss.LagValue(seq(z, (2, 1), (3,)), -1),
        ss.LagValue(seq(z, (), (0, 1)), 1),
    ]
    for a in vals:
        for b in vals:
            for c in vals:
                lhs = ss.lag_mul(ss.lag_mul(a, b), c)
                rhs = ss.lag_mul(a, ss.lag_mul(b, c))
                assert lhs.shift == rhs.shift
                # only modulo tails: mixed-sign shifts disturb finitely many entries
                assert ss.corona_eq(lhs.corona, rhs.corona).is_equal


def test_corona_word_entries(machine):
    g = machine.group
    a = g.generator(0)
    x = ss.PeriodicSeq.make(g, (a,), ((),))
    assert ss.corona_eq(x, ss.corona_identity(g)).is_equal
    y = ss.PeriodicSeq.make(g, (), (a,))
    assert ss.corona_eq(y, ss.corona_identity(g)).is_distinct


def test_corona_eq_and_lag_eq_take_no_depth():
    for fn in (ss.corona_eq, ss.lag_eq):
        assert list(inspect.signature(fn).parameters) == ["a", "b"]


def test_bounded_operands_answer_at_the_entries_known(z):
    short, long = ss.BoundedSeq(z, (1, 2)), ss.BoundedSeq(z, (1, 2, 3, 4, 5))
    assert str(ss.corona_eq(short, long)) == str(ss.corona_eq(long, short)) == "unknown@2"
    assert str(ss.corona_eq(long, ss.corona_identity(z))) == "unknown@5"
    assert str(ss.lag_eq(ss.LagValue(short, 0), ss.LagValue(long, 0))) == "unknown@2"


@pytest.mark.parametrize("backend", ["integer", "cayley", "automaton"])
def test_a_printed_periodic_corona_reads_back(backend, machine):
    rng = random.Random(14)
    if backend == "integer":
        group, draw = ss.IntegerGroup(), lambda: rng.randint(-12, 12)
    elif backend == "cayley":
        group = ss.FiniteGroup(["e", "r", "r2"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        draw = lambda: rng.randrange(3)  # noqa: E731
    else:
        group = machine.group
        draw = lambda: group.power(group.generator(0), rng.randint(-3, 3))  # noqa: E731
    for _ in range(40):
        prefix = [draw() for _ in range(rng.randint(0, 3))]
        cycle = [draw() for _ in range(rng.randint(1, 3))]
        seq = ss.PeriodicSeq.make(group, prefix, cycle)
        assert parse_corona(group, str(seq)) == seq


@pytest.mark.parametrize("backend", ["integer", "cayley", "automaton"])
def test_a_printed_bounded_corona_reads_back(backend, machine):
    rng = random.Random(15)
    if backend == "integer":
        group, draw = ss.IntegerGroup(), lambda: rng.randint(-12, 12)
    elif backend == "cayley":
        group = ss.FiniteGroup(["e", "r", "r2"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        draw = lambda: rng.randrange(3)  # noqa: E731
    else:
        group = machine.group
        draw = lambda: group.power(group.generator(0), rng.randint(-3, 3))  # noqa: E731
    for _ in range(40):
        seq = ss.BoundedSeq(group, tuple(draw() for _ in range(rng.randint(1, 6))))
        assert str(seq).endswith("~")
        for text in (str(seq), str(seq)[:-1]):
            back = parse_corona(group, text)
            assert isinstance(back, ss.BoundedSeq) and back.values == seq.values
