"""Group backends with a uniform element interface.

Three backends: the integers under addition, finite groups given by a Cayley
table, and automaton groups whose elements are reduced words over the
generators. The first two decide equality exactly; automaton words are
compared through the action they induce on letter sequences, walked to
closure, which is exact on a faithful automaton unless the walk outgrows
its budget.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import BackendMismatchError, NonBijectiveOutputError
from .tri import Tri, DISTINCT, EQUAL, from_bool, unknown

# The most elements a window, or paths a path family, may hold, and the
# budget of an automaton word comparison. Far above every shipped default (9
# window elements at radius 4, 121 paths to length 4 on three loops), far
# below what exhausts memory.
MAX_ENUMERATION = 100_000


def refuse_oversize(count: int, noun: str) -> None:
    """Raise ValueError when an enumeration would pass MAX_ENUMERATION."""
    if count > MAX_ENUMERATION:
        raise ValueError(f"more than {MAX_ENUMERATION} {noun} (the enumeration limit)")


class GroupBackend:
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

    def window_size(self, radius: int, stop: int | None = None) -> int:
        """2 radius + 1, exact at once (``stop`` is there for the common signature)."""
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


class FiniteGroup(GroupBackend):
    """Finite group presented by a Cayley table over element names.

    The table is validated at construction: identity, inverses, and full
    associativity (cube over the order, fine at desk scale).
    """

    def __init__(self, names: Sequence[str], table: Sequence[Sequence[int]]):
        self.names = tuple(names)
        n = len(self.names)
        if len(set(self.names)) != n:
            raise ValueError("duplicate element name")
        self.table = tuple(tuple(row) for row in table)
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("Cayley table must be square over the element list")
        for row in self.table:
            for x in row:
                if not 0 <= x < n:
                    raise ValueError("Cayley table entry out of range")
        self._identity = self._find_identity()
        self._inverse = self._find_inverses()
        self._check_associativity()

    def _find_identity(self) -> int:
        for e in range(len(self.names)):
            if all(self.table[e][x] == x == self.table[x][e] for x in range(len(self.names))):
                return e
        raise ValueError("Cayley table has no identity")

    def _find_inverses(self) -> tuple[int, ...]:
        inv = []
        e = self._identity
        for a in range(len(self.names)):
            for b in range(len(self.names)):
                if self.table[a][b] == e == self.table[b][a]:
                    inv.append(b)
                    break
            else:
                raise ValueError(f"element {self.names[a]} has no inverse")
        return tuple(inv)

    def _check_associativity(self):
        n = len(self.names)
        t = self.table
        for a in range(n):
            for b in range(n):
                ab = t[a][b]
                for c in range(n):
                    if t[ab][c] != t[a][t[b][c]]:
                        raise ValueError(
                            f"Cayley table not associative at ({self.names[a]}, {self.names[b]}, {self.names[c]})"
                        )

    def identity(self) -> int:
        return self._identity

    def check(self, x):
        return x if type(x) is int and 0 <= x < len(self.names) else GroupBackend.check(self, x)

    def mul(self, a: int, b: int) -> int:
        return self.table[self.check(a)][self.check(b)]

    def inv(self, a: int) -> int:
        return self._inverse[self.check(a)]

    def eq(self, a, b) -> Tri:
        return from_bool(self.check(a) == self.check(b))

    def contains(self, x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < len(self.names)

    def render(self, x) -> str:
        return self.names[x]

    def parse(self, text: str) -> int:
        if text in self.names:
            return self.names.index(text)
        raise BackendMismatchError(f"unknown element name: {text!r}")

    @property
    def is_finite(self) -> bool:
        return True

    def elements(self) -> range:
        return range(len(self.names))

    def __str__(self) -> str:
        return f"finite group of order {len(self.names)}"


def reduce_word(word: Sequence[int]) -> tuple[int, ...]:
    """Free reduction: cancel adjacent x, -x. Letters are nonzero signed ints."""
    out: list[int] = []
    for sym in word:
        if out and out[-1] == -sym:
            out.pop()
        else:
            out.append(sym)
    return tuple(out)


def invert_word(word: Sequence[int]) -> tuple[int, ...]:
    return tuple(-sym for sym in reversed(word))


class AutomatonGroup(GroupBackend):
    """Group of reduced words over the states of an invertible automaton.

    Each state (generator) permutes the letter alphabet and restricts to a
    word at every letter. Words act on letter sequences by the usual wreath
    recursion; equality compares the induced actions on all finite sequences,
    so it is three-valued: a mismatch certifies distinctness, while agreement
    everywhere certifies equality only when the backend is flagged faithful
    (words that act alike are equal).
    """

    def __init__(
        self,
        generator_names: Sequence[str],
        n_letters: int,
        outputs: Sequence[Sequence[int]],
        restrictions: Sequence[Sequence[Sequence[int]]],
        faithful_to_depth: bool = False,
    ):
        self.generator_names = tuple(generator_names)
        self.n_letters = n_letters
        self.outputs = tuple(tuple(row) for row in outputs)
        self.restrictions = tuple(tuple(reduce_word(w) for w in rows) for rows in restrictions)
        self.faithful_to_depth = faithful_to_depth
        if len(self.outputs) != len(self.generator_names) or len(self.restrictions) != len(self.generator_names):
            raise ValueError("outputs/restrictions must cover every generator")
        # (image letter, restriction word) of each signed generator at each letter.
        self._moves: dict[int, tuple[tuple[int, tuple[int, ...]], ...]] = {}
        for g, row in enumerate(self.outputs):
            if sorted(row) != list(range(n_letters)):
                raise NonBijectiveOutputError(
                    f"state {self.generator_names[g]} does not permute the alphabet"
                )
            inv = [0] * n_letters
            for x, y in enumerate(row):
                inv[y] = x
            self._moves[g + 1] = tuple(zip(row, self.restrictions[g]))
            self._moves[-g - 1] = tuple((pre, invert_word(self.restrictions[g][pre])) for pre in inv)

    def identity(self) -> tuple[int, ...]:
        return ()

    def mul(self, a, b) -> tuple[int, ...]:
        return reduce_word(tuple(self.check(a)) + tuple(self.check(b)))

    def inv(self, a) -> tuple[int, ...]:
        return invert_word(self.check(a))

    def contains(self, x) -> bool:
        if not isinstance(x, tuple):
            return False
        k = len(self.generator_names)
        return all(isinstance(s, int) and s != 0 and abs(s) <= k for s in x) and x == reduce_word(x)

    def generator(self, index: int) -> tuple[int, ...]:
        return (index + 1,)

    def step(self, word, letter: int) -> tuple[int, tuple[int, ...]]:
        """Act on one letter: returns (image letter, restriction word).

        The word acts as the composite of its generators, rightmost first;
        restrictions compose by the cocycle rule. Each restriction is reduced,
        so prepending one cancels only at the junction: the restriction is
        kept reversed on a stack, in time linear in the letters pushed.
        """
        img = letter
        stack: list[int] = []
        moves = self._moves
        for sym in reversed(word):
            img, r = moves[sym][img]
            for s in reversed(r):
                if stack and stack[-1] == -s:
                    stack.pop()
                else:
                    stack.append(s)
        return img, tuple(reversed(stack))

    def eq(self, a, b) -> Tri:
        a = self.check(a)
        b = self.check(b)
        if a == b:
            return EQUAL
        # Breadth-first walk of the restriction pairs, each pair once. Reduced
        # words restrict to words no longer than themselves, so the walk
        # closes; it gives up only when the pairs and their letters pass the budget.
        seen = {(a, b)}
        spent = 1 + len(a) + len(b)
        frontier = [(a, b)]
        levels = 0
        while frontier:
            nxt = []
            for u, v in frontier:
                for letter in range(self.n_letters):
                    iu, ru = self.step(u, letter)
                    iv, rv = self.step(v, letter)
                    if iu != iv:
                        return DISTINCT
                    if ru != rv and (ru, rv) not in seen:
                        seen.add((ru, rv))
                        spent += 1 + len(ru) + len(rv)
                        if spent > MAX_ENUMERATION:
                            return unknown(levels)
                        nxt.append((ru, rv))
            frontier = nxt
            levels += 1
        # Closed: the actions agree on every finite sequence.
        return EQUAL if self.faithful_to_depth else unknown(levels)

    def render(self, x) -> str:
        if not x:
            return "1"
        parts = []
        for sym in x:
            name = self.generator_names[abs(sym) - 1]
            parts.append(name if sym > 0 else name + "'")
        return ".".join(parts)

    def parse(self, text: str) -> tuple[int, ...]:
        if text == "1":
            return ()
        word = []
        for part in text.split("."):
            inv = part.endswith("'")
            name = part[:-1] if inv else part
            if name not in self.generator_names:
                raise BackendMismatchError(f"unknown generator: {name!r}")
            sym = self.generator_names.index(name) + 1
            word.append(-sym if inv else sym)
        return reduce_word(word)

    def window_size(self, radius: int, stop: int | None = None) -> int:
        """Reduced words of length <= radius: 1 + sum_(1<=i<=radius) 2k (2k-1)^(i-1).

        Summing stops once the total passes ``stop``, so a huge radius costs
        a few steps.
        """
        k2 = 2 * len(self.generator_names)
        if k2 <= 2:
            return 1 + k2 * radius
        total, layer = 1, k2
        for _ in range(radius):
            total += layer
            if stop is not None and total > stop:
                break
            layer *= k2 - 1
        return total

    def window(self, radius: int) -> list[tuple[int, ...]]:
        """All reduced words of length <= radius, identity first."""
        check_window_radius(self, radius)
        out = [()]
        frontier: list[tuple[int, ...]] = [()]
        syms = [s for g in range(len(self.generator_names)) for s in (g + 1, -(g + 1))]
        for _ in range(radius):
            nxt = []
            for w in frontier:
                for s in syms:
                    r = reduce_word(w + (s,))
                    if len(r) == len(w) + 1:
                        nxt.append(r)
            out.extend(nxt)
            frontier = nxt
        return out

    def __str__(self) -> str:
        return f"automaton group on {len(self.generator_names)} generator(s)"


def check_window_radius(backend: GroupBackend, radius: int) -> None:
    """Refuse a radius whose window would pass MAX_ENUMERATION, before building it.

    A finite group's window is the whole group, whatever the radius.
    """
    if isinstance(backend, (IntegerGroup, AutomatonGroup)):
        size = backend.window_size(radius, stop=MAX_ENUMERATION)
        refuse_oversize(size, f"elements in the window of radius {radius}")


def default_window(backend: GroupBackend, radius: int):
    """Identity-containing, inverse-closed test window for any backend."""
    if isinstance(backend, FiniteGroup):
        return list(backend.elements())
    if isinstance(backend, (IntegerGroup, AutomatonGroup)):
        return backend.window(radius)
    raise BackendMismatchError(f"no default window for {backend}")
