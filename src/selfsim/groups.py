"""Group backends with a uniform element interface, and the integers.

Three backends: the integers under addition (here), finite groups given by
a Cayley table (``cayley``), and automaton groups whose elements are reduced
words over the generators (``automaton``). The first two decide equality
exactly; automaton words are compared through the action they induce on
letter sequences, walked to closure, which is exact on a faithful automaton
unless the walk outgrows its budget. Each backend answers its own test
window, so the window guards here name none of them.
"""

from __future__ import annotations

import threading

from .errors import BackendMismatchError
from .tri import Tri, from_bool

# The most elements a window, or paths a path family, may hold, the budget
# of an automaton word comparison, and the letters a memo table may hold (an
# automaton backend's or a GermContext's). Far above every shipped default
# (9 window elements at radius 4, 121 paths to length 4 on three loops), far
# below what exhausts memory.
MAX_ENUMERATION = 100_000


class _Memo(dict):
    """Memo table of pure answers that stops growing before its entries hold
    more than MAX_ENUMERATION letters; ``held`` counts them. The lock makes a
    budget check and its insert one step, so threads sharing a table keep
    the bound."""

    __slots__ = ("held", "_lock")

    def __init__(self):
        super().__init__()
        self.held = 0
        self._lock = threading.Lock()

    def keep(self, key, value, letters: int) -> None:
        if self.held + letters <= MAX_ENUMERATION:
            with self._lock:
                if self.held + letters <= MAX_ENUMERATION and key not in self:
                    self[key] = value
                    self.held += letters

    def __reduce__(self):
        return _Memo, ()  # a copy or pickle starts empty: the lock cannot travel


# The defaults of the three limits a caller may set: the window radius, the
# path bound of the sweeps, and the depth at which infinite computations
# answer unknown. Every module and the CLI read them here.
DEFAULT_RADIUS, DEFAULT_PATH_BOUND, DEFAULT_DEPTH = 4, 4, 64


def at_least(name: str, value: int, least: int) -> int:
    """value when it is least or more; else a ValueError that names the limit."""
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def refuse_oversize(count: int, noun: str) -> None:
    """Raise ValueError when an enumeration would pass MAX_ENUMERATION."""
    if count > MAX_ENUMERATION:
        raise ValueError(f"more than {MAX_ENUMERATION} {noun} (the enumeration limit)")


class GroupBackend:
    """The contract every backend keeps: a value that passes ``check`` is hashable, and
    ``a == b`` implies ``eq(a, b)`` is equal, so the library compares checked values by ==."""

    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def eq(self, a, b) -> Tri:
        raise NotImplementedError

    def contains(self, x) -> bool:
        raise NotImplementedError

    def check(self, x):
        if not self.contains(x):
            raise BackendMismatchError(f"{x!r} is not an element of {self}")
        return x

    def is_identity(self, x) -> Tri:
        return self.eq(x, self.identity())

    def render(self, x) -> str:
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    @property
    def is_finite(self) -> bool:
        return False

    def window_size(self, radius: int) -> int:
        """len(self.window(radius)), without building it; past MAX_ENUMERATION, some size above it."""
        raise BackendMismatchError(f"no default window for {self}")

    def window(self, radius: int) -> list:
        """Identity-containing, inverse-closed test window of the given radius."""
        raise BackendMismatchError(f"no default window for {self}")

    def power(self, x, n: int):
        out = self.identity()
        step = x if n >= 0 else self.inv(x)
        for _ in range(abs(n)):
            out = self.mul(out, step)
        return out


class IntegerGroup(GroupBackend):
    """The integers under addition; identity 0."""

    def identity(self) -> int:
        return 0

    def check(self, x):
        return x if type(x) is int else GroupBackend.check(self, x)  # bool takes the full test

    def mul(self, a: int, b: int) -> int:
        return self.check(a) + self.check(b)

    def inv(self, a: int) -> int:
        return -self.check(a)

    def eq(self, a, b) -> Tri:
        return from_bool(self.check(a) == self.check(b))

    def contains(self, x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool)

    def render(self, x) -> str:
        return str(x)

    def parse(self, text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise BackendMismatchError(f"not an integer: {text!r}") from None

    def window_size(self, radius: int) -> int:
        """2 radius + 1, exact at once."""
        return 2 * radius + 1

    def window(self, radius: int) -> list[int]:
        """Identity first, then by increasing magnitude: 0, 1, -1, 2, -2, ..."""
        check_window_radius(self, radius)
        out = [0]
        for m in range(1, radius + 1):
            out.extend((m, -m))
        return out

    def __str__(self) -> str:
        return "integers"


def check_window_radius(backend: GroupBackend, radius: int) -> None:
    """Refuse a negative radius, or one whose window would pass MAX_ENUMERATION, before building it."""
    at_least("window radius", radius, 0)
    refuse_oversize(backend.window_size(radius), f"elements in the window of radius {radius}")


def default_window(backend: GroupBackend, radius: int):
    """Identity-containing, inverse-closed test window for any backend."""
    return backend.window(radius)
