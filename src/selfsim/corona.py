"""Corona arithmetic: G-sequences modulo eventually trivial ones, and lag values.

A corona element is represented either by an eventually periodic sequence
(class membership then decidable) or by a bounded stream of known entries
(answers degrade to unknown). Two representatives are corona-equal when the
sequences agree from some index on. The lag group pairs a corona element
with an integer shift, multiplying semidirectly through the right-shift
automorphism.
"""

from __future__ import annotations

from math import lcm

from .errors import DepthExceededError, Frozen, Record
from .groups import MAX_ENUMERATION, GroupBackend, refuse_oversize
from .periodic import absorb, drop, entry, normalize
from .tri import Tri, DISTINCT, all_of, unknown


class CoronaSeq:
    """Common interface: 1-indexed entries in the group backend."""

    __slots__ = ()
    backend: GroupBackend

    def entry(self, n: int):
        raise NotImplementedError

    @property
    def depth_limit(self) -> int | None:
        raise NotImplementedError


class PeriodicSeq(CoronaSeq, Frozen):
    __slots__ = ("backend", "prefix", "cycle")
    _hidden = ("backend",)  # compared, not shown

    def __init__(self, backend: GroupBackend, prefix: tuple, cycle: tuple):
        set_backend, set_prefix, set_cycle = self._setters
        set_backend(self, backend)
        set_prefix(self, prefix)
        set_cycle(self, cycle)

    def __eq__(self, other):
        return (other.__class__ is self.__class__ and self.prefix == other.prefix and self.cycle == other.cycle
                and self.backend == other.backend)

    def __hash__(self):
        return hash((self.backend, self.prefix, self.cycle))

    @staticmethod
    def make(backend: GroupBackend, prefix, cycle) -> "PeriodicSeq":
        """The normal form of (prefix, cycle), every entry first passed through backend.check: values
        enter here. PeriodicSeq(...) takes values already checked, and neither checks nor normalizes."""
        prefix, cycle = tuple(map(backend.check, prefix)), tuple(map(backend.check, cycle))
        return PeriodicSeq(backend, *normalize(prefix, cycle))

    def entry(self, n: int):
        if n < 1:
            raise ValueError("entries are 1-indexed")
        return entry(self.prefix, self.cycle, n - 1)

    @property
    def depth_limit(self) -> int | None:
        return None

    def __str__(self) -> str:
        r = self.backend.render
        head = ",".join(r(x) for x in self.prefix)
        body = ",".join(r(x) for x in self.cycle)
        return f"{head}({body})*"


class BoundedSeq(CoronaSeq, Frozen):
    """The entries 1..len(values) of a sequence, the rest unknown; compared by identity."""

    __slots__ = ("backend", "values")

    def __init__(self, backend: GroupBackend, values: tuple):
        set_backend, set_values = self._setters
        set_backend(self, backend)
        set_values(self, values)

    @staticmethod
    def make(backend: GroupBackend, values) -> "BoundedSeq":
        """The sequence once backend.check passes every entry; BoundedSeq(...) checks nothing."""
        return BoundedSeq(backend, tuple(map(backend.check, values)))

    def entry(self, n: int):
        if n < 1:
            raise ValueError("entries are 1-indexed")
        if n > len(self.values):
            raise DepthExceededError(f"sequence known only to depth {len(self.values)}")
        return self.values[n - 1]

    @property
    def depth_limit(self) -> int | None:
        return len(self.values)

    def __str__(self) -> str:
        r = self.backend.render
        return ",".join(r(x) for x in self.values) + "~"


def _known(a: CoronaSeq, b: CoronaSeq) -> int:
    """The entries known of both, one of them bounded: the depth limit of the shorter bounded one."""
    return min(x.depth_limit for x in (a, b) if x.depth_limit is not None)


def corona_identity(backend: GroupBackend) -> PeriodicSeq:
    return PeriodicSeq(backend, (), (backend.identity(),))


def _pointwise(op, a: CoronaSeq, b: CoronaSeq | None = None) -> CoronaSeq:
    backend = a.backend
    if b is None:
        if isinstance(a, PeriodicSeq):
            return PeriodicSeq(backend, *normalize(tuple(map(op, a.prefix)), tuple(map(op, a.cycle))))
        return BoundedSeq(backend, tuple(op(x) for x in a.values))
    if isinstance(a, PeriodicSeq) and isinstance(b, PeriodicSeq):
        p = max(len(a.prefix), len(b.prefix))
        q = lcm(len(a.cycle), len(b.cycle))
        refuse_oversize(p + q, "entries in a joint window")
        entries = [op(a.entry(n), b.entry(n)) for n in range(1, p + q + 1)]
        return PeriodicSeq(backend, *normalize(tuple(entries[:p]), tuple(entries[p:])))
    return BoundedSeq(backend, tuple(op(a.entry(n), b.entry(n)) for n in range(1, _known(a, b) + 1)))


def corona_mul(a: CoronaSeq, b: CoronaSeq) -> CoronaSeq:
    return _pointwise(a.backend.mul, a, b)


def corona_inv(a: CoronaSeq) -> CoronaSeq:
    return _pointwise(a.backend.inv, a)


def shift_right(a: CoronaSeq, k: int = 1) -> CoronaSeq:
    """Right shift: prepend k identities (k >= 0)."""
    if k < 0:
        return shift_left(a, -k)
    pad = (a.backend.identity(),) * k
    if isinstance(a, PeriodicSeq):
        return PeriodicSeq(a.backend, *absorb(pad + a.prefix, a.cycle))
    return BoundedSeq(a.backend, pad + a.values)


def shift_left(a: CoronaSeq, k: int = 1) -> CoronaSeq:
    """Left shift: drop the first k entries (k >= 0)."""
    if k < 0:
        return shift_right(a, -k)
    if isinstance(a, PeriodicSeq):
        pre, cyc = drop(a.prefix, a.cycle, k)
        return PeriodicSeq(a.backend, pre, cyc)
    if k >= len(a.values):
        raise DepthExceededError("cannot shift a bounded sequence past its depth")
    return BoundedSeq(a.backend, a.values[k:])


def corona_eq(a: CoronaSeq, b: CoronaSeq) -> Tri:
    """Tail equality: do the sequences agree from some index on?

    Exact for two periodic representatives (one combined period past both
    preperiods decides every later index) of at most MAX_ENUMERATION entries;
    a longer period is compared that far, and answers unknown unless an entry
    differs. Otherwise unknown at the entries known, since a finite window can
    neither confirm nor refute eventual agreement.
    """
    if isinstance(a, PeriodicSeq) and isinstance(b, PeriodicSeq):
        p = max(len(a.prefix), len(b.prefix))
        q = lcm(len(a.cycle), len(b.cycle))
        checked = min(q, MAX_ENUMERATION)
        verdict = all_of(a.backend.eq(a.entry(n), b.entry(n)) for n in range(p + 1, p + checked + 1))
        return verdict if checked == q else all_of((verdict, unknown(p + checked)))
    return unknown(_known(a, b))


class LagValue(Record):
    """Element of the lag group: corona part and integer shift."""

    __slots__ = ("corona", "shift")  # CoronaSeq, int

    def __str__(self) -> str:
        return f"({self.corona}, {self.shift})"


def lag_identity(backend: GroupBackend) -> LagValue:
    return LagValue(corona_identity(backend), 0)


def lag_mul(a: LagValue, b: LagValue) -> LagValue:
    """Semidirect product law: (x, m)(y, n) = (x . rho^m(y), m + n)."""
    return LagValue(corona_mul(a.corona, shift_right(b.corona, a.shift)), a.shift + b.shift)


def lag_inv(a: LagValue) -> LagValue:
    return LagValue(shift_right(corona_inv(a.corona), -a.shift), -a.shift)


def lag_eq(a: LagValue, b: LagValue) -> Tri:
    if a.shift != b.shift:
        return DISTINCT
    return corona_eq(a.corona, b.corona)
