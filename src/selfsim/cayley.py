"""Finite groups given by a Cayley table, and triples over them.

The backend, the triple built from full (element x vertex/edge) tables, and
the loader of an explicit spec with ``kind = cayley``.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial
from itertools import chain

from .action import SelfSimilarTriple
from .errors import BackendMismatchError, SpecFileError
from .graph import Graph, label_ids
from .groups import GroupBackend, check_window_radius
from .tri import Tri, from_bool

# _Section (annotations) lives in specfile, which calls the loader below.


class FiniteGroup(GroupBackend):
    """Finite group presented by a Cayley table over element names.

    The table is validated at construction: identity, inverses, and full
    associativity (cube over the order, fine at desk scale).
    """

    _fields = ("names", "table")

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

    def window_size(self, radius: int) -> int:
        """The order: the window is the whole group, whatever the radius."""
        return len(self.names)

    def window(self, radius: int) -> list[int]:
        check_window_radius(self, radius)
        return list(self.elements())

    def __str__(self) -> str:
        return f"finite group of order {len(self.names)}"


def finite_triple(
    graph: Graph,
    group: FiniteGroup,
    vertex_table: Sequence[Sequence[int]],
    edge_table: Sequence[Sequence[int]],
    cocycle_table: Sequence[Sequence[int]],
    description: str = "finite triple",
) -> SelfSimilarTriple:
    """Triple over a finite group given by full (element x vertex/edge) tables."""
    vt = tuple(tuple(r) for r in vertex_table)
    steps = tuple(tuple(zip(er, cr)) for er, cr in zip(edge_table, cocycle_table))
    return SelfSimilarTriple(graph, group, vertex_act=partial(_entry, vt), step=partial(_entry, steps),
                             description=description, walk=partial(_table_walk, steps))


def _entry(table: tuple, g: int, x: int):
    """table[g][x]: a table bound by partial, so the triple pickles."""
    return table[g][x]


def _table_walk(steps: tuple, g: int, edges) -> tuple[tuple, int]:
    """The (image, cocycle) entries of steps along edges in one loop: (image edges, carry)."""
    images = []
    for e in edges:
        image, g = steps[g][e]
        images.append(image)
    return tuple(images), g


def load_action_sections(graph: Graph, grpsec: _Section, asec: _Section) -> SelfSimilarTriple:
    """``kind = cayley``: elements = names; row = ... per element; [action] rows for every element."""
    from .specfile import _action_rows, _edge_tables, _resolve
    names = grpsec.require("elements").split()
    rows = grpsec.all("row")
    if len(rows) != len(names):
        raise SpecFileError("cayley group needs one 'row' per element", grpsec.line)
    ids = label_ids(names)
    table = []
    for value, line in rows:
        entries = value.split()
        if len(entries) != len(names) or any(x not in ids for x in entries):
            raise SpecFileError(f"bad cayley row: {value!r}", line)
        table.append([ids[x] for x in entries])
    try:
        group = FiniteGroup(names, table)
    except ValueError as err:
        raise SpecFileError(str(err), grpsec.line) from None

    vrows, erows = _action_rows(asec)
    vt = [list(range(graph.n_vertices)) for _ in names]
    for (g, v, w), line in vrows:
        if g not in ids:
            raise SpecFileError(f"unknown element {g!r}", line)
        vt[ids[g]][_resolve(graph, "vertex", v, line)] = _resolve(graph, "vertex", w, line)

    def resolved():
        for (g, e, f, k), line in erows:
            if g not in ids or k not in ids:
                raise SpecFileError(f"unknown element in edge row: {g!r} / {k!r}", line)
            image = _resolve(graph, "edge", f, line)  # the image label first: a row's first error stays
            yield ids[g], _resolve(graph, "edge", e, line), image, ids[k]

    ident = group.identity()  # fixes every edge with trivial cocycle unless its own rows say otherwise
    et, ct = _edge_tables(
        names, graph.edge_labels, chain(((ident, e, e, ident) for e in range(graph.n_edges)), resolved()),
        lambda name, missing: SpecFileError(
            f"missing edge action rows for element {name!r}: {', '.join(missing)}", asec.line))
    return finite_triple(graph, group, vt, et, ct, description="finite triple")
