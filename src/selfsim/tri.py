"""Three-valued verdicts for comparisons that may be undecidable at finite depth."""

from __future__ import annotations

from collections.abc import Iterable

from .errors import Frozen


class Tri(Frozen):
    """Outcome of an equality test: equal, distinct, or unknown at some depth.

    Exact backends (integers, Cayley tables) only ever produce equal/distinct.
    Automaton words answer unknown when the automaton is not flagged faithful
    or their comparison spends its budget, stream paths past their known
    depth; unknown carries the depth to which the comparison was pushed.
    """

    __slots__ = ("verdict", "depth")

    def __init__(self, verdict: str, depth: int | None = None):  # "equal" | "distinct" | "unknown"
        set_verdict, set_depth = self._setters
        set_verdict(self, verdict)
        set_depth(self, depth)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.verdict == other.verdict and self.depth == other.depth

    def __hash__(self):
        return hash((self.verdict, self.depth))

    @property
    def is_equal(self) -> bool:
        return self.verdict == "equal"

    @property
    def is_distinct(self) -> bool:
        return self.verdict == "distinct"

    @property
    def is_unknown(self) -> bool:
        return self.verdict == "unknown"

    def __str__(self) -> str:
        if self.is_unknown and self.depth is not None:
            return f"unknown@{self.depth}"
        return self.verdict


EQUAL = Tri("equal")
DISTINCT = Tri("distinct")


def unknown(depth: int | None = None) -> Tri:
    return Tri("unknown", depth)


def from_bool(value: bool) -> Tri:
    return EQUAL if value else DISTINCT


def all_of(parts: Iterable[Tri]) -> Tri:
    """Conjunction: the first distinct part (read no further), then the first unknown, else equal."""
    pending: Tri | None = None
    for part in parts:
        if part.is_distinct:
            return part
        if part.is_unknown and pending is None:
            pending = part
    return pending if pending is not None else EQUAL
