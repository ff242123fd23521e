"""Self-similar actions on graphs: the triple (G, E, sigma, phi).

The triple packages a group action by graph automorphisms together with an
edge cocycle, and extends both to finite paths by the one-step recursion,
one backend walk per path. The action on infinite paths lives in
``infinite``, the sweeps over a window of elements in ``sweeps``.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

from . import groups
from .errors import SourceConditionError
from .graph import Graph, Path, _edge_path, concat, vertex_path
from .groups import GroupBackend, refuse_oversize


class SelfSimilarTriple:
    """Action + cocycle data; all evaluation goes through three callables.

    act_vertex(g, v) -> g.v, and step(g, e) -> (g.e, phi(g, e)): the pair
    an element leaves an edge as, action and cocycle in one evaluation (the
    wreath recursion). walk(g, edges) -> (image edges, carry) runs the steps
    of a path in one call, by ``step_walk`` when none is given. All are pure.
    act_path(g, b) walks a path, act_behind(alpha, g, b) walks it behind alpha.
    """

    def __init__(
        self,
        graph: Graph,
        group: GroupBackend,
        vertex_act: Callable,
        step: Callable,
        description: str = "triple",
        walk: Callable | None = None,
    ):
        self.graph = graph
        self.group = group
        self.act_vertex = vertex_act
        self.step = step
        self.walk = partial(step_walk, step) if walk is None else walk
        self.description = description

    def act_path(self, g, a: Path) -> tuple[Path, object]:
        """The pair (g.a, phi(g, a)) via the one-step recursion, one walk call per path.

        On a vertex path the cocycle is g itself; on longer paths the group
        element mutates edge by edge as it passes through. A restriction word
        of more than MAX_ENUMERATION letters is refused with ValueError.
        """
        if a.graph is not self.graph and a.graph != self.graph:
            raise ValueError("path does not belong to this triple's graph")
        self.group.check(g)
        if a.vertex is not None:
            return vertex_path(self.graph, self.act_vertex(g, a.vertex)), g
        images, carry = self.walk(g, a.edges)
        return _edge_path(self.graph, images), carry

    def act_behind(self, alpha: Path, g, b: Path, start: int = 0) -> tuple[Path, object]:
        """(alpha.(g.c), phi(g, c)) for c = b.drop(start): drop's, act_path's and concat's checks in
        that order, one walk along b past start, one path built; concat raises where they do not meet."""
        graph = self.graph
        if not 0 <= start <= len(b.edges):
            raise ValueError(f"drop length {start} out of range")
        if b.graph is not graph and b.graph != graph:
            raise ValueError("path does not belong to this triple's graph")
        self.group.check(g)
        if start == len(b.edges):  # the vertex case: alpha.(g.d(b)), carry g
            return concat(alpha, vertex_path(graph, self.act_vertex(g, b.source_vertex))), g
        images, carry = self.walk(g, b.edges[start:] if start else b.edges)
        if alpha.graph is graph:
            ea = alpha.edges
            if (graph.source_of[ea[-1]] if ea else alpha.vertex) == graph.range_of[images[0]]:
                return _edge_path(graph, ea + images), carry
        return concat(alpha, _edge_path(graph, images)), carry  # joined across an equal graph, or refused

    def check_element(self, alpha: Path, g, beta: Path) -> None:
        """Raise unless (alpha, g, beta) is a semigroup element: g checked, both paths on this graph
        (or an equal one), d(alpha) = g d(beta), in that order; make_triple and GermContext share it."""
        self.group.check(g)
        graph = self.graph
        if (alpha.graph is not graph and alpha.graph != graph) or (beta.graph is not graph and beta.graph != graph):
            raise SourceConditionError("paths do not belong to the triple's graph")
        if alpha.source_vertex != self.act_vertex(g, beta.source_vertex):
            raise SourceConditionError(f"d({alpha}) != g d({beta}) for g = {self.group.render(g)}")

    def __str__(self) -> str:
        return self.description


def step_walk(step: Callable, g, edges) -> tuple[tuple, object]:
    """(image edges, carry) of g along edges by one step per edge, each restriction word bounded."""
    images = []
    for e in edges:
        image, g = step(g, e)
        images.append(image)
        if type(g) is tuple and len(g) > groups.MAX_ENUMERATION:
            refuse_oversize(len(g), "letters in the restriction along the path")
    return tuple(images), g
