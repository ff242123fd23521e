"""Builders of integer-backed triples, and the builtin examples.

An integer triple is its generator's tables, extended to every m in closed
form on the generator's cycles. The two-matrix generator takes nonnegative A
(no zero rows) and integer B vanishing wherever A does, and adds B[i][j] to
the edge counter modulo A[i][j] with the Euclidean quotient as cocycle.
An explicit spec with ``kind = integer`` gives the generator's tables in its
``[action]`` rows. Automaton triples are built in ``automaton``, Cayley ones
in ``cayley``.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial
from itertools import accumulate, chain

from .action import SelfSimilarTriple
from .errors import InvalidMatricesError, Record, SpecFileError
from .graph import Graph, make_graph
from . import groups
from .groups import IntegerGroup

# _Section (annotations) lives in specfile, which calls the loader of integer specs.


class KatsuraData(Record):
    __slots__ = ("a", "b")  # square matrices as tuples of row tuples

    @staticmethod
    def make(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> "KatsuraData":
        return KatsuraData(tuple(tuple(row) for row in a), tuple(tuple(row) for row in b))

    @property
    def size(self) -> int:
        return len(self.a)

    def validate(self):
        n = self.size
        if n == 0 or len(self.b) != n or any(len(r) != n for r in self.a) or any(len(r) != n for r in self.b):
            raise InvalidMatricesError("matrices must be square and of equal size")
        for i, row in enumerate(self.a):
            if any(x < 0 for x in row):
                raise InvalidMatricesError(f"A row {i + 1} has a negative entry")
            if all(x == 0 for x in row):
                raise InvalidMatricesError(f"A row {i + 1} is zero")
            for j, x in enumerate(row):
                if x == 0 and self.b[i][j] != 0:
                    raise InvalidMatricesError(
                        f"A[{i + 1}][{j + 1}] = 0 forces B[{i + 1}][{j + 1}] = 0"
                    )
        # The entries of A count the edges: refuse the graph before building any.
        edges, limit = sum(map(sum, self.a)), groups.MAX_ENUMERATION
        if edges > limit:
            raise InvalidMatricesError(f"A has {edges} edges, more than {limit} (the enumeration limit)")


def katsura_graph(data: KatsuraData) -> Graph:
    """Vertices 1..N; A[i][j] edges with range i and source j, labeled (i,j,n)."""
    n = data.size
    vertices = [str(i + 1) for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            for c in range(data.a[i][j]):
                edges.append((f"({i + 1},{j + 1},{c})", str(i + 1), str(j + 1)))
    return make_graph(vertices, edges)


def from_katsura(data: KatsuraData) -> SelfSimilarTriple:
    """Integer action on the two-matrix graph: the closed form of its generator.

    The generator fixes every vertex and moves edge (i,j,n) to
    (i,j,(n+B[i][j]) mod A[i][j]) with cocycle floor((n+B[i][j])/A[i][j]),
    so m acts by the division m*B[i][j] + n = k*A[i][j] + n' with cocycle k
    (floored, so n' stays in range for negative m as well).
    """
    data.validate()
    perm, row = [], []
    for a, b in zip(chain.from_iterable(data.a), chain.from_iterable(data.b)):
        base = len(perm)  # katsura_graph numbers the edges (i,j,n) of a cell in a run
        perm.extend(base + (n + b) % a for n in range(a))
        row.extend((n + b) // a for n in range(a))
    description = f"katsura A={list(map(list, data.a))} B={list(map(list, data.b))}"
    return integer_triple_from_generator(katsura_graph(data), range(data.size), perm, row, description)


def _cycles(perm: Sequence[int], weights: Sequence[int]) -> list[tuple]:
    """For each point x the record (cycle, place, length, weight, sums, own).

    cycle is perm's cycle through x and place x's index in it; sums[j] is
    the total weight of the cycle's first j points, so weight = sums[length]
    is the cycle's and own = sums[place] x's.
    """
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("generator tables must be permutations")
    where: list = [None] * len(perm)
    for start in range(len(perm)):
        if where[start] is not None:
            continue
        cycle = [start]
        while perm[cycle[-1]] != start:
            cycle.append(perm[cycle[-1]])
        sums = (0, *accumulate(weights[x] for x in cycle))
        cycle = tuple(cycle)
        for k, x in enumerate(cycle):
            where[x] = (cycle, k, len(cycle), sums[-1], sums, sums[k])
    return where


def _cycle_vertex(records: list, m: int, v: int) -> int:
    cycle, k, length, _, _, _ = records[v]
    return cycle[(k + m) % length]


def _cycle_step(records: list, m: int, e: int) -> tuple[int, int]:
    cycle, k, length, weight, sums, own = records[e]
    quot, rem = divmod(k + m, length)
    return cycle[rem], quot * weight + sums[rem] - own


def _cycle_walk(records: list, m: int, edges) -> tuple[tuple, int]:
    """_cycle_step along edges in one loop: (image edges, carry)."""
    images = []
    for e in edges:
        cycle, k, length, weight, sums, own = records[e]
        quot, rem = divmod(k + m, length)
        images.append(cycle[rem])
        m = quot * weight + sums[rem] - own
    return tuple(images), m


def integer_triple_from_generator(
    graph: Graph,
    vertex_perm: Sequence[int],
    edge_perm: Sequence[int],
    cocycle_row: Sequence[int],
    description: str = "integer triple",
) -> SelfSimilarTriple:
    """Integer-backend triple from the generator's tables, in closed form.

    sigma_m is the m-th power of the generator permutation, and the cocycle
    is the one the rules phi(m, e) = phi(1, sigma_(m-1) e) + phi(m-1, e) and
    phi(-m, e) = -phi(m, sigma_(-m) e) force: the sum of phi(1, .) over the
    m steps of e's orbit (negated going backwards). With e at place k of a
    cycle of length L and q, r = divmod(k + m, L), the image is the cycle's
    r-th point and phi(m, e) = q*sums[L] + sums[r] - sums[k], sums[j] being
    the total of phi(1, .) over the first j points of the cycle. The maps
    are module functions bound to the cycle records, so the triple pickles.
    """
    vertex_act = partial(_cycle_vertex, _cycles(vertex_perm, [0] * graph.n_vertices))
    records = _cycles(edge_perm, cocycle_row)
    return SelfSimilarTriple(graph, IntegerGroup(), vertex_act, partial(_cycle_step, records), description,
                             walk=partial(_cycle_walk, records))


def load_action_sections(graph: Graph, grpsec: _Section, asec: _Section) -> SelfSimilarTriple:
    """``kind = integer``: [action] rows for the generator m = 1, which must describe bijections."""
    from .specfile import _action_rows, _edge_tables, _resolve
    vrows, erows = _action_rows(asec)
    vperm = list(range(graph.n_vertices))
    for (g, v, w), line in vrows:
        if g != "1":
            raise SpecFileError("integer backend takes rows for the generator m = 1 only", line)
        vperm[_resolve(graph, "vertex", v, line)] = _resolve(graph, "vertex", w, line)

    def resolved():
        for (g, e, f, k), line in erows:
            if g != "1":
                raise SpecFileError("integer backend takes rows for the generator m = 1 only", line)
            edge, image = _resolve(graph, "edge", e, line), _resolve(graph, "edge", f, line)
            try:
                cocycle = int(k)
            except ValueError:
                raise SpecFileError(f"cocycle entry must be an integer: {k!r}", line) from None
            yield 0, edge, image, cocycle

    (eperm,), (crow,) = _edge_tables(
        ("1",), graph.edge_labels, resolved(),
        lambda _, missing: SpecFileError(f"missing edge action rows for: {', '.join(missing)}", asec.line))
    if sorted(eperm) != list(range(graph.n_edges)) or sorted(vperm) != list(range(graph.n_vertices)):
        raise SpecFileError("generator rows must describe bijections", asec.line)
    return integer_triple_from_generator(graph, vperm, eperm, crow, description="integer triple")


# -- builtin examples --------------------------------------------------------


def odometer() -> SelfSimilarTriple:
    """Binary odometer: one vertex, two loops, integers adding with carry."""
    return from_katsura(KatsuraData.make([[2]], [[1]]))


def katsura_3_2() -> SelfSimilarTriple:
    return from_katsura(KatsuraData.make([[3]], [[2]]))


def katsura_2_0() -> SelfSimilarTriple:
    """Degenerate pair: the action and cocycle are trivial, freeness fails."""
    return from_katsura(KatsuraData.make([[2]], [[0]]))


def z2_swap() -> SelfSimilarTriple:
    """Z/2 swapping two parallel loops with trivial cocycle."""
    from .cayley import FiniteGroup, finite_triple
    graph = make_graph(["v"], [("e0", "v", "v"), ("e1", "v", "v")])
    group = FiniteGroup(["0", "1"], [[0, 1], [1, 0]])
    return finite_triple(
        graph,
        group,
        vertex_table=[[0], [0]],
        edge_table=[[0, 1], [1, 0]],
        cocycle_table=[[0, 0], [0, 0]],
        description="z2 edge swap",
    )


def adding_machine() -> SelfSimilarTriple:
    """Binary adding machine automaton: a(0) = 1, a(1) = 0 with restriction a."""
    from .automaton import AutomatonData, from_automaton
    data = AutomatonData.make(
        alphabet=["0", "1"],
        states=["a"],
        output=[[1, 0]],
        restriction=[[(), (1,)]],
    )
    return from_automaton(data, faithful_to_depth=True)
