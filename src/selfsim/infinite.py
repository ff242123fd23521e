"""Infinite paths and the action on them: the orbit half of the triple.

Eventually periodic paths are exact (normal form prefix.(cycle)*); stream
paths are known only to a declared depth. By definition (g.xi)|n and
Phi(g, xi)_(n+1) are the image and cocycle of t.act_path(g, xi.truncate(n)).
One walk of the carry orbit along xi, _carry_walk, gives the whole path and
the whole sequence, closing on periodic inputs: act_inf_path, phi_corona and
the germ walks of groupoid all call it. It steps one letter at a time, as the
paper defines g.xi and Phi(g, xi); the GermContext walk table keeps its walks.
"""

from __future__ import annotations

from collections.abc import Sequence

from .corona import BoundedSeq, CoronaSeq, PeriodicSeq
from .errors import BackendMismatchError, CompositionError, DepthExceededError, Frozen
from .graph import Graph, Path, _edge_path, _same_graph, edge_path, vertex_path
from . import groups
from .groups import DEFAULT_DEPTH, at_least
from .periodic import absorb, drop, entry, normalize
from .tri import Tri, DISTINCT, from_bool, unknown

# SelfSimilarTriple (annotations) lives in action, loaded with every triple.


class InfPath:
    """Right-infinite path; subclasses: PeriodicPath (exact), StreamPath (bounded)."""

    __slots__ = ()
    graph: Graph

    def letter(self, n: int) -> int:
        """1-indexed n-th edge."""
        raise NotImplementedError

    @property
    def depth_limit(self) -> int | None:
        """Largest queryable index, or None when unbounded."""
        raise NotImplementedError

    def head(self, n: int) -> tuple[int, ...]:
        """The first n >= 0 letters as one tuple."""
        raise NotImplementedError

    def truncate(self, n: int) -> Path:
        """The finite prefix of length n (n = 0 gives the range vertex)."""
        if n < 0:
            raise ValueError("truncation length must be >= 0")
        if n == 0:
            return vertex_path(self.graph, self.range_vertex)
        return _edge_path(self.graph, self.head(n))

    def drop(self, k: int) -> "InfPath":
        raise NotImplementedError

    def prepend(self, path: Path) -> "InfPath":
        """path.self, once path lies on this graph and d(path) = r(self); self itself for a vertex path."""
        if not _same_graph(path.graph, self.graph):
            raise CompositionError("paths live on different graphs")
        if path.source_vertex != self.range_vertex:
            raise CompositionError("cannot prepend: endpoints do not match")
        return self._prepended(path.edges) if path.edges else self

    def _prepended(self, edges: tuple[int, ...]) -> "InfPath":
        """The path edges.self, the edges checked to lie on this graph and to meet r(self)."""
        raise NotImplementedError


class PeriodicPath(InfPath, Frozen):
    """Eventually periodic infinite path in normal form.

    Normal form (minimal prefix, primitive cycle) makes structural equality
    agree with equality of the underlying infinite words.
    """

    __slots__ = ("graph", "prefix_edges", "cycle_edges")
    _hidden = ("graph",)  # compared, not shown

    def __init__(self, graph: Graph, prefix_edges: tuple[int, ...], cycle_edges: tuple[int, ...]):
        set_graph, set_prefix, set_cycle = self._setters
        set_graph(self, graph)
        set_prefix(self, prefix_edges)
        set_cycle(self, cycle_edges)

    def __eq__(self, other):
        return (other.__class__ is self.__class__ and self.prefix_edges == other.prefix_edges
                and self.cycle_edges == other.cycle_edges and _same_graph(self.graph, other.graph))

    def __hash__(self):
        return hash((self.graph, self.prefix_edges, self.cycle_edges))

    def letter(self, n: int) -> int:
        if n < 1:
            raise ValueError("letters are 1-indexed")
        return entry(self.prefix_edges, self.cycle_edges, n - 1)

    @property
    def depth_limit(self) -> int | None:
        return None

    def head(self, n: int) -> tuple[int, ...]:
        pre, cyc = self.prefix_edges, self.cycle_edges
        if n <= len(pre):
            return pre[:n]
        cycles = -((len(pre) - n) // len(cyc))  # ceil((n - len(pre)) / len(cyc))
        return (pre + cyc * cycles)[:n]

    def drop(self, k: int) -> "PeriodicPath":
        pre, cyc = drop(self.prefix_edges, self.cycle_edges, k)
        return PeriodicPath(self.graph, pre, cyc) if k else self

    @property
    def range_vertex(self) -> int:
        return self.graph.range_of[(self.prefix_edges or self.cycle_edges)[0]]

    def _prepended(self, edges: tuple[int, ...]) -> "PeriodicPath":
        return PeriodicPath(self.graph, *absorb(edges + self.prefix_edges, self.cycle_edges))

    def __str__(self) -> str:
        labels = self.graph.edge_labels
        head = ".".join(labels[e] for e in self.prefix_edges)
        body = ".".join(labels[e] for e in self.cycle_edges)
        return f"{head}({body})*"


def periodic_path(graph: Graph, prefix: Sequence[int] | Path, cycle: Sequence[int] | Path) -> PeriodicPath:
    """Validated, normalized eventually periodic path prefix.(cycle)*; a Path part must lie on graph."""
    if not all(_same_graph(part.graph, graph) for part in (prefix, cycle) if isinstance(part, Path)):
        raise CompositionError("paths live on different graphs")
    pre = tuple(prefix.edges) if isinstance(prefix, Path) else tuple(prefix)
    cyc = tuple(cycle.edges) if isinstance(cycle, Path) else tuple(cycle)
    if not cyc:
        raise ValueError("cycle must have length >= 1")
    cyc_path = edge_path(graph, cyc)
    if cyc_path.source_vertex != cyc_path.range_vertex:
        raise CompositionError("cycle does not close up")
    if pre:
        pre_path = edge_path(graph, pre)
        if pre_path.source_vertex != cyc_path.range_vertex:
            raise CompositionError("prefix does not meet the cycle")
    pre, cyc = normalize(pre, cyc)
    return PeriodicPath(graph, pre, cyc)


class StreamPath(InfPath, Frozen):
    """Infinite path known only through its first letters, the tuple ``letters``; compared by identity."""

    __slots__ = ("graph", "letters")

    def __init__(self, graph: Graph, letters: Sequence[int]):
        set_graph, set_letters = self._setters
        set_graph(self, graph)
        set_letters(self, tuple(letters))

    def _exceeded(self) -> DepthExceededError:
        return DepthExceededError(f"stream path only declared to depth {len(self.letters)}")

    def letter(self, n: int) -> int:
        if n < 1:
            raise ValueError("letters are 1-indexed")
        if n > len(self.letters):
            raise self._exceeded()
        return self.letters[n - 1]

    @property
    def depth_limit(self) -> int:
        return len(self.letters)

    @property
    def range_vertex(self) -> int:
        if not self.letters:
            raise self._exceeded()
        return self.graph.range_of[self.letters[0]]

    def head(self, n: int) -> tuple[int, ...]:
        if n > len(self.letters):
            raise self._exceeded()
        return self.letters[:n]

    def drop(self, k: int) -> "StreamPath":
        if k < 0:
            raise ValueError("drop length must be >= 0")
        if k > len(self.letters):
            raise DepthExceededError("cannot drop beyond the declared depth")
        return StreamPath(self.graph, self.letters[k:]) if k else self

    def _prepended(self, edges: tuple[int, ...]) -> "StreamPath":
        return StreamPath(self.graph, edges + self.letters)

    def __str__(self) -> str:
        labels = self.graph.edge_labels
        head = ".".join(labels[e] for e in self.letters[:12])
        return f"{head}..[{len(self.letters)}]"


def stream_path(graph: Graph, letters: Sequence[int]) -> StreamPath:
    """Stream path backed by a concrete list of known letters."""
    seq = tuple(letters)
    if not seq:
        raise ValueError("stream path needs at least one known letter")
    edge_path(graph, seq)  # validates composability
    return StreamPath(graph, seq)


def inf_path_eq(a: InfPath, b: InfPath, depth: int) -> Tri:
    """Equality of infinite paths: exact for two periodic paths, else depth-bounded.

    A definite letter mismatch always decides distinctness; only the
    confirmation of equality is unavailable for streams.
    """
    at_least("depth", depth, 0)
    if not _same_graph(a.graph, b.graph):
        return DISTINCT
    if isinstance(a, PeriodicPath) and isinstance(b, PeriodicPath):
        return from_bool(a == b)
    horizon = depth
    for lim in (a.depth_limit, b.depth_limit):
        if lim is not None:
            horizon = min(horizon, lim)
    if horizon > 0 and a.head(horizon) != b.head(horizon):
        return DISTINCT
    return unknown(horizon)


def _orbit(t: SelfSimilarTriple, g, xi: InfPath, depth: int):
    """(images, carries, closure) along xi: carries[n] = phi(g, xi|_n), images[n-1] = (g.xi)_n.

    Every known letter (a stream's, a periodic prefix's) is stepped in turn, then
    the cycle until closure is (start, end): the state (carry, cycle phase) of
    step start recurs at step end; else closure is None. Over a finite group G
    the state takes at most |G|.q values on a cycle of q letters, so the walk goes
    on to p + |G|.q letters, up to MAX_ENUMERATION, and closes there. A carry
    word costs its letters, any other carry 1; past MAX_ENUMERATION carry
    letters the walk raises DepthExceededError.
    """
    at_least("depth", depth, 0)
    images: list[int] = []
    carries = [g]
    step, state = t.step, g
    if isinstance(xi, PeriodicPath):
        prefix, cycle = xi.prefix_edges, xi.cycle_edges
        end = depth + len(prefix) + len(cycle) + 1
        if t.group.is_finite:
            end = max(end, min(len(prefix) + len(t.group.elements()) * len(cycle) + 1, groups.MAX_ENUMERATION))
    else:
        # A stream path is all prefix: its known letters, up to the depth.
        prefix, cycle = xi.head(min(depth, xi.depth_limit)), ()
        end = len(prefix)
    p, q = len(prefix), len(cycle)
    seen: dict = {}  # (carry, phase) -> n, for the cycle letters
    phase, spent, limit = 0, 0, groups.MAX_ENUMERATION
    for n in range(end):
        if n < p:
            image, state = step(state, prefix[n])
        else:
            key = (state, phase)
            if key in seen:
                return images, carries, (seen[key], n)
            seen[key] = n
            image, state = step(state, cycle[phase])
            phase = phase + 1 if phase + 1 < q else 0
        spent += len(state) if type(state) is tuple else 1
        if spent > limit:
            raise DepthExceededError(f"the carry words along the path pass {limit} letters at depth {n + 1}")
        images.append(image)
        carries.append(state)
    return images[:depth], carries[: depth + 1], None


def _carry_walk(t: SelfSimilarTriple, g, xi: InfPath, depth: int, image: bool = True):
    """(g.xi, Phi(g, xi)) from one walk of the carry orbit, after checking xi's graph, as act_path does, and g.

    Each carry reached is checked as g is, so closure and the normal form may compare carries
    by == (the backend contract), and each distinct one must compare equal to itself, as the
    model check skips group.eq between equal values. A closed walk gives both eventually
    periodic. Otherwise g.xi is a stream of the images, whose letters compose as the path's do;
    with no letter seen it is undecided: None, or DepthExceededError when ``image`` asks for it.
    """
    if not _same_graph(xi.graph, t.graph):
        raise ValueError("path does not belong to this triple's graph")
    t.group.check(g)
    images, carries, closure = _orbit(t, g, xi, depth)
    for carry in set(map(t.group.check, carries)):
        if not t.group.eq(carry, carry).is_equal:
            raise BackendMismatchError(f"the carry {carry!r} does not compare equal to itself")
    if closure is not None:
        start, end = closure
        pre, cyc = normalize(tuple(images[:start]), tuple(images[start:end]))
        # Phi_n = carries[n-1]: shift the detected closure by one index.
        return PeriodicPath(t.graph, pre, cyc), PeriodicSeq(t.group, *normalize(carries[:start], carries[start:end]))
    if image and not images:
        raise DepthExceededError("no letter of the path is known: its image is undecided")
    return (StreamPath(t.graph, images) if images else None), BoundedSeq(t.group, tuple(carries[:-1] or carries))


def act_inf_path(t: SelfSimilarTriple, g, xi: InfPath, depth: int = DEFAULT_DEPTH) -> InfPath:
    """The infinite path g.xi; eventually periodic when the carry orbit closes. A xi on a graph
    neither the triple's nor equal to it is refused with act_path's ValueError."""
    return _carry_walk(t, g, xi, depth)[0]


def phi_corona(t: SelfSimilarTriple, g, xi: InfPath, depth: int = DEFAULT_DEPTH) -> CoronaSeq:
    """The cocycle sequence Phi(g, xi) as a corona representative.

    Eventually periodic whenever the carry orbit closes within the depth bound; otherwise a bounded
    stream, and downstream equality answers degrade to unknown rather than being silently wrong.
    A xi on a graph other than the triple's is refused as act_inf_path refuses it.
    """
    return _carry_walk(t, g, xi, depth, image=False)[1]
