"""Automaton groups: reduced words over the states of an invertible automaton.

The backend, the single-vertex triple it acts on, and the loader of both
automaton spec forms: an ``[automaton]`` section of ``map`` rows, and an
explicit spec with ``kind = automaton`` and ``[action]`` edge rows. Both
forms fill their tables through the spec reader's one table builder.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import neg

from . import groups
from .action import SelfSimilarTriple
from .errors import BackendMismatchError, NonBijectiveOutputError, Record, SpecFileError
from .graph import Graph, label_ids, make_graph
from .groups import GroupBackend, _Memo, check_window_radius, refuse_oversize
from .tri import Tri, DISTINCT, EQUAL, unknown

# _Section (annotations) lives in specfile, which calls the loaders below.


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
    return tuple(map(neg, reversed(word)))


class AutomatonGroup(GroupBackend):
    """Group of reduced words over the states of an invertible automaton.

    Each state (generator) permutes the letter alphabet and restricts to a
    word at every letter. Words act on letter sequences by the usual wreath
    recursion; equality compares the induced actions on all finite sequences,
    so it is three-valued: a mismatch certifies distinctness, while agreement
    everywhere certifies equality only when the backend is flagged faithful
    (words that act alike are equal).
    """

    _fields = ("generator_names", "n_letters", "outputs", "restrictions", "faithful_to_depth")  # not the memos

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
        self._ids = label_ids(self.generator_names)  # name -> index, for parse
        if len(self.outputs) != len(self.generator_names) or len(self.restrictions) != len(self.generator_names):
            raise ValueError("outputs/restrictions must cover every generator")
        # (image letter, restriction word reversed) of each signed generator at each letter.
        self._moves: dict[int, tuple[tuple[int, tuple[int, ...]], ...]] = {}
        for g, row in enumerate(self.outputs):
            if sorted(row) != list(range(n_letters)):
                raise NonBijectiveOutputError(
                    f"state {self.generator_names[g]} does not permute the alphabet"
                )
            inv = [0] * n_letters
            for x, y in enumerate(row):
                inv[y] = x
            self._moves[g + 1] = tuple((y, self.restrictions[g][x][::-1]) for x, y in enumerate(row))
            self._moves[-g - 1] = tuple((pre, invert_word(self.restrictions[g][pre])[::-1]) for pre in inv)
        self._steps = _Memo()  # (word, letter) -> step(word, letter)
        self._verdicts = _Memo()  # (a, b) -> eq(a, b)

    def identity(self) -> tuple[int, ...]:
        return ()

    def mul(self, a, b) -> tuple[int, ...]:
        a, b, i = self.check(a), self.check(b), 0
        while i < len(a) and i < len(b) and a[-1 - i] == -b[i]:
            i += 1
        return a[: len(a) - i] + b[i:]  # reduce_word(a + b): reduced words cancel only where they meet

    def inv(self, a) -> tuple[int, ...]:
        return tuple(map(neg, reversed(self.check(a))))

    def check(self, x):  # one pass over a word of int letters; at the first that fails, contains decides
        letters, last = self._moves, 0  # keyed by the letters +-1..k
        for s in x if type(x) is tuple else (None,):  # anything but a tuple fails at once
            if type(s) is not int or s not in letters or s == -last:
                return GroupBackend.check(self, x)
            last = s
        return x

    def contains(self, x) -> bool:
        """x is a tuple of int letters in +-1..k with no letter beside its inverse: a reduced word."""
        k = len(self.generator_names)
        return (isinstance(x, tuple) and all(isinstance(s, int) and 0 < abs(s) <= k for s in x)
                and all(s != -last for last, s in zip(x, x[1:])))

    def generator(self, index: int) -> tuple[int, ...]:
        return (index + 1,)

    def step(self, word, letter: int) -> tuple[int, tuple[int, ...]]:
        """Act on one letter: returns (image letter, restriction word).

        The word acts as the composite of its generators, rightmost first;
        restrictions compose by the cocycle rule. Each restriction is reduced,
        so prepending one cancels only at the junction: the restriction is
        kept reversed on a stack, in time linear in the letters pushed.

        Answers are memoised: the words a query reaches recur, and for a
        contracting automaton their restrictions fall into a finite nucleus.
        The memo stops growing once its words and restrictions would hold
        more than MAX_ENUMERATION letters; later steps are computed afresh.
        """
        key = (word, letter)
        known = self._steps.get(key)
        if known is not None:
            return known
        img = letter
        stack: list[int] = []
        moves = self._moves
        for sym in reversed(word):
            img, r = moves[sym][img]
            if r and stack and stack[-1] == -r[0]:
                # r is reduced, so only its first letters can cancel.
                i = 0
                while i < len(r) and stack and stack[-1] == -r[i]:
                    stack.pop()
                    i += 1
                stack += r[i:]
            else:
                stack += r
        out = img, tuple(reversed(stack))
        self._steps.keep(key, out, len(word) + len(stack))
        return out

    def walk(self, word, letters) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """step along letters, read from the memo where it holds the step: (image letters, restriction)."""
        images = []
        known = self._steps.get
        for letter in letters:
            letter, word = known((word, letter)) or self.step(word, letter)
            images.append(letter)
            if len(word) > groups.MAX_ENUMERATION:
                refuse_oversize(len(word), "letters in the restriction along the path")
        return tuple(images), word

    def eq(self, a, b) -> Tri:
        a = self.check(a)
        b = self.check(b)
        if a == b:
            return EQUAL
        key = (a, b)
        known = self._verdicts.get(key)
        if known is None:
            known = self._compare(a, b)
            self._verdicts.keep(key, known, len(a) + len(b))
        return known

    def _compare(self, a: tuple[int, ...], b: tuple[int, ...]) -> Tri:
        # Breadth-first walk of the restriction pairs, each pair once. Reduced
        # words restrict to words no longer than themselves, so the walk
        # closes; it gives up only when the pairs and their letters pass the budget.
        seen = {(a, b)}
        spent, limit = 1 + len(a) + len(b), groups.MAX_ENUMERATION
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
                        if spent > limit:
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
        return reduce_word(_parse_word(
            self._ids, text, lambda name: BackendMismatchError(f"unknown generator: {name!r}")))

    def window_size(self, radius: int) -> int:
        """Reduced words of length <= radius: 1 + sum_(1<=i<=radius) 2k (2k-1)^(i-1).

        Summing stops once the total passes MAX_ENUMERATION, so a huge radius
        costs a few steps.
        """
        k2 = 2 * len(self.generator_names)
        if k2 <= 2:
            return 1 + k2 * radius
        total, layer, limit = 1, k2, groups.MAX_ENUMERATION
        for _ in range(radius):
            total += layer
            if total > limit:
                break
            layer *= k2 - 1
        return total

    def window(self, radius: int) -> list[tuple[int, ...]]:
        """All reduced words of length <= radius: by length, then letter by letter in the order 1, 1', 2, 2', ..."""
        check_window_radius(self, radius)
        out, frontier = [()], [()]
        syms = [s for g in range(len(self.generator_names)) for s in (g + 1, -(g + 1))]
        for _ in range(radius):
            frontier = [w + (s,) for w in frontier for s in syms if not w or w[-1] != -s]
            out.extend(frontier)
        return out

    def __str__(self) -> str:
        return f"automaton group on {len(self.generator_names)} generator(s)"


class AutomatonData(Record):
    # alphabet and states are label tuples; output[state][letter] is a letter,
    # restriction[state][letter] a word.
    __slots__ = ("alphabet", "states", "output", "restriction")

    @staticmethod
    def make(alphabet, states, output, restriction) -> "AutomatonData":
        return AutomatonData(
            tuple(alphabet),
            tuple(states),
            tuple(tuple(row) for row in output),
            tuple(tuple(tuple(w) for w in row) for row in restriction),
        )


def _fixed_vertex(g, v: int) -> int:
    return v


def _triple(graph: Graph, group: AutomatonGroup, description: str) -> SelfSimilarTriple:
    return SelfSimilarTriple(graph, group, vertex_act=_fixed_vertex, step=group.step,
                             description=description, walk=group.walk)


def from_automaton(data: AutomatonData, faithful_to_depth: bool = False) -> SelfSimilarTriple:
    """Single-vertex triple whose group is the automaton group of the data."""
    group = AutomatonGroup(
        data.states,
        len(data.alphabet),
        data.output,
        data.restriction,
        faithful_to_depth=faithful_to_depth,
    )
    graph = make_graph(["v"], [(lab, "v", "v") for lab in data.alphabet])
    return _triple(graph, group, f"automaton on {len(data.alphabet)} letters")


def _parse_word(ids: dict[str, int], text: str, unknown_name) -> tuple[int, ...]:
    """A word `a.b'.a` (or `1`) over generators numbered by ``ids``, unreduced.

    ``unknown_name(name)`` is the error raised for a name ``ids`` lacks.
    """
    if text == "1":
        return ()
    word = []
    for part in text.split("."):
        inv = part.endswith("'")
        name = part[:-1] if inv else part
        if name not in ids:
            raise unknown_name(name)
        sym = ids[name] + 1
        word.append(-sym if inv else sym)
    return tuple(word)


def _spec_word(ids: dict[str, int], text: str, line: int) -> tuple[int, ...]:
    return _parse_word(
        ids, text, lambda name: SpecFileError(f"unknown generator {name!r} in word {text!r}", line))


def _faithful(section: _Section) -> bool:
    """faithful_depth: true or false, in any case; false when absent."""
    value = section.get("faithful_depth", "false")
    if value.lower() not in ("true", "false"):
        raise SpecFileError(f"faithful_depth must be true or false, got {value!r}", section.all("faithful_depth")[0][1])
    return value.lower() == "true"


def load_map_section(section: _Section) -> SelfSimilarTriple:
    """``[automaton]``: alphabet = letters; map = state letter image restriction; faithful_depth."""
    from .specfile import _edge_tables
    alphabet = section.require("alphabet").split()
    rows = section.all("map")
    # States in order of first appearance; a row too short to name one fails below.
    states = tuple(dict.fromkeys(parts[0] for parts in (value.split() for value, _ in rows) if parts))
    state_ids = label_ids(states)
    letters = label_ids(alphabet)

    def resolved():
        for value, line in rows:
            parts = value.split()
            if len(parts) != 4:
                raise SpecFileError("map rows are 'state letter image restriction'", line)
            state, letter, image, word = parts
            if letter not in letters or image not in letters:
                raise SpecFileError(f"unknown letter in map row: {value!r}", line)
            yield state_ids[state], letters[letter], letters[image], _spec_word(state_ids, word, line)

    outputs, restrictions = _edge_tables(
        states, alphabet, resolved(),
        lambda state, _: SpecFileError(f"state {state!r} is missing a map row", section.line))
    data = AutomatonData.make(alphabet, states, outputs, restrictions)
    return from_automaton(data, faithful_to_depth=_faithful(section))


def load_action_sections(graph: Graph, grpsec: _Section, asec: _Section) -> SelfSimilarTriple:
    """``kind = automaton``: generators = names; [action] edge = generator letter image restriction."""
    from .specfile import _action_rows, _edge_tables, _resolve
    if graph.n_vertices != 1:
        raise SpecFileError("automaton backend requires a single-vertex graph", grpsec.line)
    names = tuple(grpsec.require("generators").split())
    vrows, erows = _action_rows(asec)
    if vrows:
        raise SpecFileError("automaton backend takes no vertex rows", asec.line)
    ids = label_ids(names)

    def resolved():
        for (g, e, f, k), line in erows:
            if g not in ids:
                raise SpecFileError(f"unknown generator {g!r}", line)
            yield ids[g], _resolve(graph, "edge", e, line), _resolve(graph, "edge", f, line), _spec_word(ids, k, line)

    outputs, restrictions = _edge_tables(
        names, graph.edge_labels, resolved(),
        lambda name, _: SpecFileError(f"missing edge action rows for generator {name!r}", asec.line))
    group = AutomatonGroup(names, graph.n_edges, outputs, restrictions, faithful_to_depth=_faithful(grpsec))
    return _triple(graph, group, "automaton triple")
