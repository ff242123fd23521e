"""Finite directed graphs and finite paths.

Conventions follow the categorical composition order: a path a1 a2 ... an
requires d(ai) = r(ai+1), its range is r(a1) and its source is d(an).
Graphs are expected to have no sources, i.e. every vertex receives at least
one edge; ``validate_graph`` reports violations instead of raising.
Infinite paths live in ``infinite``.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence

from .errors import CompositionError, Frozen, Record
from .groups import refuse_oversize


class Graph(Frozen):
    """Finite directed graph with dense integer ids and string labels, holding its vertex paths."""

    __slots__ = ("vertex_labels", "edge_labels", "range_of", "source_of",
                 "_into", "_vertex_ids", "_edge_ids", "_vertex_paths")
    _hidden = ("_into", "_vertex_ids", "_edge_ids", "_vertex_paths")

    def __init__(self, vertex_labels: tuple[str, ...], edge_labels: tuple[str, ...],
                 range_of: tuple[int, ...], source_of: tuple[int, ...]):  # edge -> vertex maps
        if len(range_of) != len(edge_labels) or len(source_of) != len(edge_labels):
            raise ValueError("range/source maps must cover every edge")
        # Keyed by range id, dangling ids included: validate_graph reports those.
        into: dict[int, list[int]] = {}
        for e, v in enumerate(range_of):
            into.setdefault(v, []).append(e)
        into = {v: tuple(es) for v, es in into.items()}
        values = (vertex_labels, edge_labels, range_of, source_of, into,
                  label_ids(vertex_labels), label_ids(edge_labels), {})
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def _key(self) -> tuple:
        return (self.vertex_labels, self.edge_labels, self.range_of, self.source_of)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_labels)

    @property
    def n_edges(self) -> int:
        return len(self.edge_labels)

    def vertices(self) -> range:
        return range(self.n_vertices)

    def edges(self) -> range:
        return range(self.n_edges)

    def edges_into(self, v: int) -> tuple[int, ...]:
        """Edges e with r(e) = v, in id order."""
        return self._into.get(v, ())

    def vertex_id(self, label: str) -> int:
        """Id of the first vertex with this label; ValueError when there is none."""
        try:
            return self._vertex_ids[label]
        except KeyError:
            raise ValueError(f"no vertex labelled {label!r}") from None

    def edge_id(self, label: str) -> int:
        """Id of the first edge with this label; ValueError when there is none."""
        try:
            return self._edge_ids[label]
        except KeyError:
            raise ValueError(f"no edge labelled {label!r}") from None


def label_ids(labels: Sequence[str]) -> dict[str, int]:
    """label -> id of its first occurrence (what tuple.index gives), in one pass."""
    return dict(zip(reversed(labels), range(len(labels) - 1, -1, -1)))


def make_graph(vertices: Sequence[str], edges: Sequence[tuple[str, str, str]]) -> Graph:
    """Build a graph from vertex labels and (edge label, range label, source label) rows."""
    vlabels = tuple(vertices)
    elabels = tuple(e[0] for e in edges)
    if len(set(vlabels)) != len(vlabels):
        raise ValueError("duplicate vertex label")
    if len(set(elabels)) != len(elabels):
        raise ValueError("duplicate edge label")
    index = {lab: i for i, lab in enumerate(vlabels)}
    try:
        rng = tuple(index[e[1]] for e in edges)
        src = tuple(index[e[2]] for e in edges)
    except KeyError as missing:
        raise ValueError(f"edge endpoint references unknown vertex {missing}") from None
    return Graph(vlabels, elabels, rng, src)


class GraphReport(Record):
    __slots__ = ("ok", "problems")  # bool, tuple[str, ...]


def validate_graph(g: Graph) -> GraphReport:
    """Report vertices with no incoming edge and dangling edge endpoints."""
    problems = []
    for e in g.edges():
        if not 0 <= g.range_of[e] < g.n_vertices:
            problems.append(f"edge {g.edge_labels[e]}: range is not a vertex")
        if not 0 <= g.source_of[e] < g.n_vertices:
            problems.append(f"edge {g.edge_labels[e]}: source is not a vertex")
    for v in g.vertices():
        if not g.edges_into(v):
            problems.append(f"vertex {g.vertex_labels[v]}: no incoming edge (source)")
    return GraphReport(not problems, tuple(problems))


class Path(Frozen):
    """Finite path: either a vertex (length 0) or a composable edge sequence.

    Vertex paths carry their vertex explicitly so range and source need no
    graph lookup.
    """

    __slots__ = ("graph", "vertex", "edges")
    _hidden = ("graph",)  # compared, not shown

    def __init__(self, graph: Graph, vertex: int | None, edges: tuple[int, ...]):
        if (vertex is None) == (not edges):
            raise ValueError("exactly one of vertex / edges must be set")
        _set_graph(self, graph)
        _set_vertex(self, vertex)
        _set_edges(self, edges)

    def __eq__(self, other):
        return (other.__class__ is self.__class__ and self.edges == other.edges and self.vertex == other.vertex
                and (self.graph is other.graph or self.graph == other.graph))

    def __hash__(self):  # not the graph's: hashing its tables would cost O(|V| + |E|) a path
        return hash((self.vertex, self.edges))

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    @property
    def range_vertex(self) -> int:
        if self.vertex is not None:
            return self.vertex
        return self.graph.range_of[self.edges[0]]

    @property
    def source_vertex(self) -> int:
        if self.vertex is not None:
            return self.vertex
        return self.graph.source_of[self.edges[-1]]

    def prefix(self, n: int) -> "Path":
        """Truncation to the first n edges (n = 0 gives the range vertex)."""
        if not 0 <= n <= len(self.edges):
            raise ValueError(f"prefix length {n} out of range")
        if n == 0:
            return vertex_path(self.graph, self.range_vertex)
        return _edge_path(self.graph, self.edges[:n])

    def drop(self, n: int) -> "Path":
        """Remainder after the first n edges (the gamma with self = prefix(n) . gamma)."""
        edges = self.edges
        if not 0 <= n <= len(edges):
            raise ValueError(f"drop length {n} out of range")
        if n == 0:
            return self
        if n == len(edges):
            return vertex_path(self.graph, self.graph.source_of[edges[-1]])
        return _edge_path(self.graph, edges[n:])

    def __str__(self) -> str:
        if self.vertex is not None:
            return "@" + self.graph.vertex_labels[self.vertex]
        return ".".join(self.graph.edge_labels[e] for e in self.edges)


_set_graph, _set_vertex, _set_edges = Path._setters


def _edge_path(graph: Graph, edges: tuple[int, ...]) -> Path:
    """Path on a non-empty edge tuple cut or joined from paths of this graph: built unchecked."""
    path = object.__new__(Path)
    _set_graph(path, graph)
    _set_vertex(path, None)
    _set_edges(path, edges)
    return path


def vertex_path(graph: Graph, v: int) -> Path:
    """The graph's own vertex path at v, built and checked on first use, then returned on every call."""
    path = graph._vertex_paths.get(v)
    if path is None and not 0 <= v < graph.n_vertices:
        raise ValueError(f"no vertex {v}")
    return path if path is not None else graph._vertex_paths.setdefault(v, Path(graph, v, ()))


def edge_path(graph: Graph, edges: Iterable[int]) -> Path:
    seq = tuple(edges)
    if not seq:
        raise ValueError("edge_path needs at least one edge; use vertex_path")
    n_edges, source_of, range_of = graph.n_edges, graph.source_of, graph.range_of
    for e in seq:
        if not 0 <= e < n_edges:
            raise ValueError(f"no edge {e}")
    for a, b in zip(seq, seq[1:]):
        if source_of[a] != range_of[b]:
            raise CompositionError(
                f"edges {graph.edge_labels[a]} and {graph.edge_labels[b]} do not compose"
            )
    return Path(graph, None, seq)


def concat(a: Path, b: Path) -> Path:
    """Concatenation a.b, defined when d(a) = r(b)."""
    graph = a.graph
    if graph is not b.graph and graph != b.graph:
        raise CompositionError("paths live on different graphs")
    ea, eb = a.edges, b.edges
    if (graph.source_of[ea[-1]] if ea else a.vertex) != (graph.range_of[eb[0]] if eb else b.vertex):
        raise CompositionError(
            f"cannot concatenate: d({a}) = {graph.vertex_labels[a.source_vertex]}"
            f" but r({b}) = {graph.vertex_labels[b.range_vertex]}"
        )
    if not ea:
        return b
    if not eb:
        return a
    return _edge_path(graph, ea + eb)


class PrefixRel(enum.Enum):
    EQUAL = "equal"
    A_PROPER = "a-proper-prefix"
    B_PROPER = "b-proper-prefix"
    INCOMPARABLE = "incomparable"


_EQUAL, _A_PROPER, _B_PROPER, _INCOMPARABLE = PrefixRel  # in definition order


def prefix_compare(a: Path, b: Path) -> PrefixRel:
    """Compare two paths in the prefix order.

    A vertex path is a prefix of every path it is the range of; edge paths
    whose first edges agree share their range.
    """
    graph = a.graph
    if graph is not b.graph and graph != b.graph:
        return _INCOMPARABLE
    ea, eb = a.edges, b.edges
    na, nb = len(ea), len(eb)
    if not na:
        if a.vertex != (graph.range_of[eb[0]] if nb else b.vertex):
            return _INCOMPARABLE
        return _A_PROPER if nb else _EQUAL
    if not nb:
        return _B_PROPER if b.vertex == graph.range_of[ea[0]] else _INCOMPARABLE
    if na <= nb:
        return (_A_PROPER if na < nb else _EQUAL) if eb[:na] == ea else _INCOMPARABLE
    return _B_PROPER if ea[:nb] == eb else _INCOMPARABLE


def complement(a: Path, b: Path) -> Path:
    """The unique gamma with a.gamma = b; requires a to be a prefix of b."""
    rel = prefix_compare(a, b)
    if rel is not _EQUAL and rel is not _A_PROPER:
        raise CompositionError(f"{a} is not a prefix of {b}")
    return b.drop(len(a.edges))


def extensions(b: Path, count: int) -> list[Path]:
    """All paths extending b by exactly ``count`` edges at the source end.

    Nonempty for count >= 1 whenever every vertex along the way receives an
    edge (the no-sources hypothesis). A layer of more than MAX_ENUMERATION
    paths, counted per source vertex, is refused before any path is built.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    graph = b.graph
    for size in layer_sizes(graph, {b.source_vertex: 1}, count):
        refuse_oversize(size, "paths in one layer of extensions")
    if count == 0:
        return [b]
    # Depth first, each vertex's edges in edges_into order: the layers' order, and only the last is built.
    into, source_of, base = graph.edges_into, graph.source_of, len(b.edges)
    trail, stack, out = list(b.edges), [iter(into(b.source_vertex))], []
    while stack:
        e = next(stack[-1], None)
        if e is None:
            stack.pop()
        elif len(stack) < count:
            trail[base + len(stack) - 1:] = (e,)  # the edge at this depth; deeper ones are stale
            stack.append(iter(into(source_of[e])))
        else:
            out.append(_edge_path(graph, (*trail, e)))
    return out


def layer_sizes(graph: Graph, layer: dict[int, int], count: int):
    """Sizes of up to ``count`` layers of one-edge extensions of {source vertex: paths}, to an empty layer."""
    into, source_of = graph.edges_into, graph.source_of
    for _ in range(count):
        nxt: dict[int, int] = {}
        for v, n in layer.items():
            for e in into(v):
                w = source_of[e]
                nxt[w] = nxt.get(w, 0) + n
        if not nxt:
            return
        layer = nxt
        yield sum(nxt.values())
