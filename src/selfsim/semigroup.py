"""The inverse semigroup of triples (alpha, g, beta) with d(alpha) = g d(beta).

Multiplication follows the two-case prefix split, with zero absorbing;
the adjoint swaps the paths and inverts the group element. Idempotents are
the elements (alpha, 1, alpha); their order reverses the prefix order on
paths, and two idempotents either intersect comparably or are orthogonal,
which is what makes the finite cover check below complete.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from .action import SelfSimilarTriple
from .errors import CompositionError, Frozen, NotIdempotentError, Record
from .graph import _A_PROPER, _B_PROPER, _EQUAL, _INCOMPARABLE, Path, PrefixRel, prefix_compare, vertex_path
from .groups import DEFAULT_PATH_BOUND
from .tri import Tri, DISTINCT, from_bool


class Zero(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "0"


ZERO = Zero()


class Triple(Frozen):
    __slots__ = ("alpha", "g", "beta")

    def __init__(self, alpha: Path, g, beta: Path):
        set_alpha, set_g, set_beta = self._setters
        set_alpha(self, alpha)
        set_g(self, g)
        set_beta(self, beta)

    def __eq__(self, other):
        return (other.__class__ is self.__class__ and self.alpha == other.alpha and self.g == other.g
                and self.beta == other.beta)

    def __hash__(self):
        return hash((self.alpha, self.g, self.beta))


SemigroupElement = Triple | Zero


def make_triple(t: SelfSimilarTriple, alpha: Path, g, beta: Path) -> Triple:
    """Validated triple; raises unless it is an element (SelfSimilarTriple.check_element)."""
    t.check_element(alpha, g, beta)
    return Triple(alpha, g, beta)


def unit_idempotent(t: SelfSimilarTriple, alpha: Path) -> Triple:
    """The idempotent e_alpha = (alpha, 1, alpha)."""
    return make_triple(t, alpha, t.group.identity(), alpha)


def star(t: SelfSimilarTriple, s: SemigroupElement) -> SemigroupElement:
    if isinstance(s, Zero):
        return ZERO
    return Triple(s.beta, t.group.inv(s.g), s.alpha)


def mul(t: SelfSimilarTriple, s: SemigroupElement, u: SemigroupElement) -> SemigroupElement:
    """Product of semigroup elements; zero absorbs.

    With s = (alpha, g, beta) and u = (gamma, h, delta): when gamma = beta.eps
    the product is (alpha.(g eps), phi(g, eps) h, delta); when beta = gamma.eps
    it is (alpha, g phi(h^-1, eps)^-1, delta.(h^-1 eps)), the adjoint of the
    first case applied to the adjoint operands; otherwise zero.
    """
    if isinstance(s, Zero) or isinstance(u, Zero):
        return ZERO
    rel = prefix_compare(s.beta, u.alpha)
    if rel is _INCOMPARABLE:
        return ZERO
    group = t.group
    if rel is _B_PROPER:
        try:
            beta, coc = t.act_behind(u.beta, group.inv(u.g), s.beta, len(u.alpha.edges))
        except CompositionError:  # the product checks s.g before the paths are joined
            group.check(s.g)
            raise
        return Triple(s.alpha, group.mul(s.g, group.inv(coc)), beta)
    alpha, coc = t.act_behind(s.alpha, s.g, u.alpha, len(s.beta.edges))
    return Triple(alpha, group.mul(coc, u.g), u.beta)


def element_eq(t: SelfSimilarTriple, s: SemigroupElement, u: SemigroupElement) -> Tri:
    """Equality of semigroup elements; tri-state via the group backend."""
    if isinstance(s, Zero) or isinstance(u, Zero):
        return from_bool(isinstance(s, Zero) and isinstance(u, Zero))
    if s.alpha != u.alpha or s.beta != u.beta:
        return DISTINCT
    return t.group.eq(s.g, u.g)


def is_idempotent(t: SelfSimilarTriple, s: SemigroupElement) -> bool:
    """Exact-form test: zero, or (alpha, g, alpha) with g the identity itself or equal to it by the backend's ``eq``."""
    if isinstance(s, Zero):
        return True
    one = t.group.identity()
    return (s.alpha is s.beta or s.alpha == s.beta) and (s.g is one or t.group.eq(s.g, one).is_equal)


def render(t: SelfSimilarTriple, s: SemigroupElement) -> str:
    if isinstance(s, Zero):
        return "0"
    return f"({s.alpha}, {t.group.render(s.g)}, {s.beta})"


class IdempotentOrder(enum.Enum):
    EQUAL = "equal"
    LEQ = "leq"
    GEQ = "geq"
    ORTHOGONAL = "orthogonal"


# e <= f when f's path is a prefix of e's: the prefix relation of (e's path, f's path), reversed.
_ORDER_OF = {PrefixRel.EQUAL: IdempotentOrder.EQUAL, PrefixRel.A_PROPER: IdempotentOrder.GEQ,
             PrefixRel.B_PROPER: IdempotentOrder.LEQ, PrefixRel.INCOMPARABLE: IdempotentOrder.ORTHOGONAL}


def idempotent_order(t: SelfSimilarTriple, e: SemigroupElement, f: SemigroupElement) -> IdempotentOrder:
    """Order relation between idempotents: e <= f iff f's path is a prefix of e's.

    Intersecting idempotents are always comparable, so the answer is one of
    equal / below / above / orthogonal; zero sits below everything.
    """
    for x in (e, f):
        if not is_idempotent(t, x):
            raise NotIdempotentError(f"{render(t, x)} is not an idempotent")
    if isinstance(e, Zero) and isinstance(f, Zero):
        return IdempotentOrder.EQUAL
    if isinstance(e, Zero):
        return IdempotentOrder.LEQ
    if isinstance(f, Zero):
        return IdempotentOrder.GEQ
    return _ORDER_OF[prefix_compare(e.alpha, f.alpha)]


_MEMBER = None  # trie key marking where a member's path ends; edge keys are ints


def is_cover(t: SelfSimilarTriple, members: Iterable[SemigroupElement], target: SemigroupElement) -> bool:
    """Does the family cover the idempotent target?

    A cover means every nonzero idempotent e_delta below the target e_beta
    meets some member. Intersecting idempotents are comparable, so e_delta
    meets a member exactly when one of their paths is a prefix of the other.
    A member at or above the target covers it outright, orthogonal members
    are dropped, and the rest go into a trie of their suffixes below beta.

    The check descends from beta with an explicit stack. A node carrying a
    member's path is covered. A node with no member at it or below it is a
    witness against the cover: no member lies above it either, since the
    descent stops at the first member on each branch, so its idempotent is
    nonzero and orthogonal to every member. Any other node is covered when
    each child delta.e, one per edge e into d(delta), is. The walk visits
    only trie nodes and their children: O(total member length x in-degree),
    against O(in-degree^L x members) for enumerating every extension of beta
    by L edges. A branch ending at a source vertex with no member on it is a
    witness like any other, so graphs with sources need no special case.
    """
    if not is_idempotent(t, target) or isinstance(target, Zero):
        raise NotIdempotentError("cover target must be a nonzero idempotent")
    beta = target.alpha
    below: dict = {}  # trie of the member suffixes below beta
    for m in members:
        if not is_idempotent(t, m):
            raise NotIdempotentError(f"{render(t, m)} is not an idempotent")
        if isinstance(m, Zero):
            continue
        rel = prefix_compare(beta, m.alpha)
        if rel is _EQUAL or rel is _B_PROPER:
            # Member at or above the target: covers it outright.
            return True
        if rel is _A_PROPER:
            node = below
            for e in m.alpha.edges[len(beta.edges):]:
                node = node.setdefault(e, {})
            node[_MEMBER] = True
    into, source_of = beta.graph._into, beta.graph.source_of  # edges_into(v) is into.get(v, ())
    stack = [(below, beta.source_vertex)]
    while stack:
        node, v = stack.pop()
        if _MEMBER in node:
            continue
        if not node:  # no member below beta at all
            return False
        for e in into.get(v, ()):
            child = node.get(e)
            if child is None:
                return False
            stack.append((child, source_of[e]))
    return True


class UnitaryReport(Record):
    # kind: "holds" | "counterexample" | "unknown"; counterexample: (element, idempotent) or None
    __slots__ = ("kind", "counterexample", "window_size")


def check_e_star_unitary(
    t: SelfSimilarTriple, window: Iterable, path_bound: int = DEFAULT_PATH_BOUND
) -> UnitaryReport:
    """Search for a non-idempotent element dominating a nonzero idempotent.

    E*-unitarity and freeness are one question for a triple that keeps the
    axioms: this runs the freeness sweep once and renders its certificate
    (h, f), h != 1 fixing f and r(f) with trivial cocycle, as
    s = (r(f), h, r(f)) dominating e_f by the definition of mul. The
    verdict and the refusals are the sweep's.
    """
    from .sweeps import check_residually_free
    report = check_residually_free(t, window, path_bound)
    witness = None
    if report.counterexample is not None:
        h, f = report.counterexample
        vertex, edge = vertex_path(t.graph, t.graph.range_of[f]), Path(t.graph, None, (f,))
        witness = (Triple(vertex, h, vertex), Triple(edge, t.group.identity(), edge))
    return UnitaryReport(report.kind, witness, report.window_size)
