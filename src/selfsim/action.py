"""Self-similar actions on graphs: the triple (G, E, sigma, phi).

The triple packages a group action by graph automorphisms together with an
edge cocycle, and extends both to finite paths by the one-step recursion.
The action on infinite paths lives in ``infinite``, the sweeps over a
window of elements in ``sweeps``.
"""

from __future__ import annotations

from collections.abc import Callable

from .graph import Graph, Path, _edge_path, vertex_path
from .groups import GroupBackend, refuse_oversize


class SelfSimilarTriple:
    """Action + cocycle data; all evaluation goes through two callables.

    act_vertex(g, v) -> g.v, and step(g, e) -> (g.e, phi(g, e)): the pair
    an element leaves an edge as, action and cocycle in one evaluation (the
    wreath recursion). Both are pure.
    """

    def __init__(
        self,
        graph: Graph,
        group: GroupBackend,
        vertex_act: Callable,
        step: Callable,
        description: str = "triple",
    ):
        self.graph = graph
        self.group = group
        self.act_vertex = vertex_act
        self.step = step
        self.description = description

    def act_path(self, g, a: Path) -> tuple[Path, object]:
        """The pair (g.a, phi(g, a)) via the one-step recursion.

        On a vertex path the cocycle is g itself; on longer paths the group
        element mutates edge by edge as it passes through. A restriction word
        of more than MAX_ENUMERATION letters is refused with ValueError.
        """
        if a.graph is not self.graph and a.graph != self.graph:
            raise ValueError("path does not belong to this triple's graph")
        self.group.check(g)
        if a.vertex is not None:
            return vertex_path(self.graph, self.act_vertex(g, a.vertex)), g
        images = []
        append = images.append
        state = g
        step = self.step
        for e in a.edges:
            image, state = step(state, e)
            append(image)
            if type(state) is tuple:  # a restriction word may double per letter: bound it
                refuse_oversize(len(state), "letters in the restriction along the path")
        return _edge_path(self.graph, tuple(images)), state

    def __str__(self) -> str:
        return self.description
