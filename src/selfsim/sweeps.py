"""Sweeps over a window of group elements: the axioms, freeness, and path families.

Each sweep takes a triple and a finite, identity-containing, inverse-closed
window of its group and reports what it examined; hausdorff_report reads a
freeness sweep as the Hausdorffness it implies. Path families are counted
in closed form before they are built, so an oversize bound is refused first,
and then built one edge at a time along graph.edges_into.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import permutations

from .errors import Record, SourceConditionError
from .graph import Graph, Path, _edge_path, layer_sizes, vertex_path
from .groups import DEFAULT_PATH_BOUND, MAX_ENUMERATION, IntegerGroup, at_least, default_window, refuse_oversize
from .tri import Tri

# SelfSimilarTriple (annotations) lives in action, loaded with every triple.


class Violation(Record):
    __slots__ = ("law", "detail")  # str, str


class AxiomReport(Record):
    __slots__ = ("violations", "undecided", "checked_pairs")  # Violation tuples, int

    @property
    def ok(self) -> bool:
        return not self.violations and not self.undecided


def _check_window(t: SelfSimilarTriple, window: Sequence) -> list:
    window = list(window)
    if not window:
        raise ValueError("window must not be empty")
    group = t.group
    members = {group.check(g) for g in window}  # each an element; a literal member is equal at once
    ident = group.identity()
    if ident not in members and not any(group.eq(g, ident).is_equal for g in window):
        raise ValueError("window must contain the identity")
    for g in window:
        ginv = group.inv(g)
        if ginv not in members and not any(group.eq(ginv, h).is_equal for h in window):
            raise ValueError("window must be closed under inverses")
    return window


def verify_axioms(t: SelfSimilarTriple, window: Iterable) -> AxiomReport:
    """Check the automorphism and cocycle axioms over a finite window.

    Laws: sigma_g bijective on vertices and edges, r/d equivariance,
    sigma_(gh) = sigma_g sigma_h, the cocycle identity, phi(1, e) = 1, and
    sigma_phi(g,e) = sigma_g on vertices. On the radius-1 window of a triple
    extended from its generators, the verdict holds for the whole group: the
    extension makes the product laws hold, and the others pass from the
    generators and their inverses to every product. The check is quadratic in
    the window, so more than MAX_ENUMERATION pairs are refused before any step.
    """
    window = list(window)
    refuse_oversize(len(window) ** 2, f"pairs in the axiom check of a window of {len(window)} elements")
    window = _check_window(t, window)
    graph, group = t.graph, t.group
    bad: list[Violation] = []
    open_: list[Violation] = []

    def record(tri: Tri, law: str, detail: str):
        if tri.is_distinct:
            bad.append(Violation(law, detail))
        elif tri.is_unknown:
            open_.append(Violation(law, detail))

    ident = group.identity()
    for e in graph.edges():
        record(
            group.is_identity(t.step(ident, e)[1]),
            "cocycle-at-one",
            f"phi(1, {graph.edge_labels[e]}) != 1",
        )

    # steps[i][e] = (g.e, phi(g, e)) for the i-th window element g.
    steps = [[t.step(g, e) for e in graph.edges()] for g in window]
    for g, g_steps in zip(window, steps):
        gname = group.render(g)
        v_img = [t.act_vertex(g, v) for v in graph.vertices()]
        if sorted(v_img) != list(graph.vertices()):
            bad.append(Violation("vertex-bijection", f"sigma_{gname} is not a vertex bijection"))
        if sorted(image for image, _ in g_steps) != list(graph.edges()):
            bad.append(Violation("edge-bijection", f"sigma_{gname} is not an edge bijection"))
        for e, (image, coc) in enumerate(g_steps):
            ename = graph.edge_labels[e]
            if graph.range_of[image] != t.act_vertex(g, graph.range_of[e]):
                bad.append(Violation("range-equivariance", f"r(sigma_{gname}({ename}))"))
            if graph.source_of[image] != t.act_vertex(g, graph.source_of[e]):
                bad.append(Violation("source-equivariance", f"d(sigma_{gname}({ename}))"))
            for v in graph.vertices():
                if t.act_vertex(coc, v) != t.act_vertex(g, v):
                    bad.append(
                        Violation(
                            "cocycle-on-vertices",
                            f"sigma_phi({gname},{ename}) != sigma_{gname} at {graph.vertex_labels[v]}",
                        )
                    )

    pairs = 0
    for g, g_steps in zip(window, steps):
        for h, h_steps in zip(window, steps):
            pairs += 1
            gh = group.mul(g, h)
            detail = f"(g={group.render(g)}, h={group.render(h)})"
            for v in graph.vertices():
                if t.act_vertex(gh, v) != t.act_vertex(g, t.act_vertex(h, v)):
                    bad.append(Violation("action-hom-vertices", f"{detail} at {graph.vertex_labels[v]}"))
            for e, (h_image, h_coc) in enumerate(h_steps):
                gh_image, gh_coc = t.step(gh, e)
                g_image, g_coc = g_steps[h_image]
                if gh_image != g_image:
                    bad.append(Violation("action-hom-edges", f"{detail} at {graph.edge_labels[e]}"))
                record(
                    group.eq(gh_coc, group.mul(g_coc, h_coc)),
                    "cocycle-identity",
                    f"{detail} at {graph.edge_labels[e]}",
                )
    return AxiomReport(tuple(bad), tuple(open_), pairs)


def generating_axioms(t: SelfSimilarTriple) -> tuple[list, AxiomReport]:
    """The radius-1 window and verify_axioms over it, which decides the axioms for the whole group."""
    window = default_window(t.group, 1)
    return window, verify_axioms(t, window)


def require_axioms(t: SelfSimilarTriple) -> None:
    """Raise SourceConditionError naming the first axiom violation, as validate prints it; undecided laws pass."""
    violations = generating_axioms(t)[1].violations
    if violations:
        raise SourceConditionError(f"{violations[0].law} violated: {violations[0].detail}")


def render_certificate(t: SelfSimilarTriple, certificate) -> str:
    """A freeness certificate (g, e) as "(g=..., e=...)"; an integer is named m."""
    g, e = certificate
    name = "m" if isinstance(t.group, IntegerGroup) else "g"
    return f"({name}={t.group.render(g)}, e={t.graph.edge_labels[e]})"


class FreenessReport(Record):
    """Outcome of the freeness sweep over a window of group elements.

    kind is "holds" (every element of a finite group in the window, nothing found),
    "counterexample" (some g != 1 fixes an edge with trivial cocycle), or
    "unknown" (nothing found within the window, but the window is not all
    of the group or some comparison stayed undecided). counterexample is
    (g, edge id), g perhaps outside the window, or None; undecided holds strings.
    consistency_failures is always (), kept only for the benchmark's sweep check.
    """

    __slots__ = ("kind", "counterexample", "consistency_failures", "undecided", "window_size")

    @property
    def found_counterexample(self) -> bool:
        return self.kind == "counterexample"


def count_paths_upto(graph: Graph, max_len: int) -> int:
    """len(all_paths_upto(graph, max_len)) counted layer by layer; stops once past MAX_ENUMERATION."""
    total = graph.n_vertices
    for size in layer_sizes(graph, dict.fromkeys(graph.vertices(), 1), max_len):
        if total > MAX_ENUMERATION:
            break
        total += size
    return total


def check_path_bound(graph: Graph, max_len: int) -> None:
    """Refuse a negative bound, or one whose path family would pass MAX_ENUMERATION, before building it."""
    at_least("path bound", max_len, 0)
    refuse_oversize(count_paths_upto(graph, max_len), f"paths of length <= {max_len}")


def all_paths_upto(graph: Graph, max_len: int) -> list[Path]:
    """Every path of length <= max_len, layer by layer, one edge added at each path's source.

    The order is that of (length, range vertex, edge ids): vertex paths
    first, then each layer extends the last one's paths in turn.
    """
    check_path_bound(graph, max_len)
    into = graph.edges_into
    layer = [vertex_path(graph, v) for v in graph.vertices()]
    result = list(layer)
    for _ in range(max_len):
        layer = [_edge_path(graph, p.edges + (e,)) for p in layer for e in into(p.source_vertex)]
        result.extend(layer)
    return result


def _certifies(t: SelfSimilarTriple, h, e: int) -> bool:
    """Is (h, e) a freeness counterexample: h != 1 fixing e and r(e) with trivial cocycle?"""
    (image, coc), r = t.step(h, e), t.graph.range_of[e]  # h may lie past any equivariance check
    return (image == e and t.act_vertex(h, r) == r and t.group.is_identity(coc).is_equal
            and t.group.is_identity(h).is_distinct)


def _integer_certificates(t: SelfSimilarTriple):
    """(L, e) for each edge e first on a cycle of sigma_1 of length L and cocycle sum 0.

    For an action of the integers, m fixes e with trivial cocycle exactly
    when L divides m and the sum is 0: one walk over the cycles, O(|E|)
    steps, decides every m.
    """
    seen: set[int] = set()
    for e in t.graph.edges():
        f, length, total = e, 0, 0
        while f not in seen:
            seen.add(f)
            f, coc = t.step(1, f)
            length, total = length + 1, total + coc
        if length and f == e and total == 0 and _certifies(t, length, e):  # f != e: sigma_1 no bijection
            yield length, e


def _reduce_agreement(t: SelfSimilarTriple, h, image: Path):
    """The edge certificate of h = g2 g1^-1, where g1 != g2 agree on a path with this image.

    h fixes the image with trivial cocycle, so its last restriction along
    the image that is not 1 fixes its edge with trivial cocycle: None when
    that is not certified (h = 1, an undecided comparison, a broken axiom).
    """
    last = None
    for e in image.edges:
        if not t.group.is_identity(h).is_equal:
            last = (h, e)
        h = t.step(h, e)[1]
    return last if last is not None and _certifies(t, *last) else None


def _certificates(t: SelfSimilarTriple, window: list, path_bound: int, undecided: list):
    """Freeness counterexamples (h, e) in search order; notes undecided steps and agreements on the way."""
    group, graph = t.group, t.graph
    for g in window:
        g_is_id = group.is_identity(g)
        if g_is_id.is_equal:
            continue
        for e in graph.edges():
            image, coc = t.step(g, e)
            if image != e:
                continue
            coc_trivial = group.is_identity(coc)
            if g_is_id.is_distinct and coc_trivial.is_equal:
                yield g, e
            elif coc_trivial.is_unknown or g_is_id.is_unknown:
                undecided.append(f"{render_certificate(t, (g, e))} undecided at depth")
    if isinstance(group, IntegerGroup):
        yield from _integer_certificates(t)
    # A vertex path's cocycle is the element itself, so its buckets never hold two: skip them.
    for a in all_paths_upto(graph, path_bound)[graph.n_vertices:]:
        buckets: dict = {}  # (image, cocycle) -> the window elements leaving a as that value
        for g in window:
            buckets.setdefault(t.act_path(g, a), []).append(g)
        for (image, _), agreeing in buckets.items():
            for g1, g2 in permutations(agreeing, 2):
                h = group.mul(g2, group.inv(g1))
                certificate = _reduce_agreement(t, h, image)
                if certificate is not None:
                    yield certificate
                elif group.is_identity(h).is_distinct:
                    undecided.append(f"(g1={group.render(g1)}, g2={group.render(g2)}) agree on {a}, no certificate")


def check_residually_free(
    t: SelfSimilarTriple, window: Iterable, path_bound: int = DEFAULT_PATH_BOUND
) -> FreenessReport:
    """Search for g != 1 fixing an edge with trivial cocycle; report the first found.

    The searches, in order: the window's edge sweep; for an integer triple,
    the cycles of sigma_1; agreements on edge paths of length <= path_bound.
    Each window element acts once on each path, bucketed by (image, cocycle),
    as equal values are equal elements: |W|·|P| actions, no pairwise comparison.
    With 1 in the window, fixing a path with trivial cocycle is agreeing
    with 1. Under the axioms, agreeing g1 != g2 reduce to a certificate of
    g2 g1^-1, perhaps past the window and re-checked by _certifies; one that
    does not is noted undecided. Refused first, in this order: an oversize or
    negative path_bound, a triple breaking an axiom on its generators
    (SourceConditionError naming the law), a window without the identity or
    not closed under inverses (ValueError).
    """
    check_path_bound(t.graph, path_bound)
    require_axioms(t)
    window = _check_window(t, window)
    group = t.group
    undecided: list[str] = []
    counterexample = next(_certificates(t, window, path_bound, undecided), None)
    if counterexample is not None:
        kind = "counterexample"
    elif group.is_finite and set(group.elements()) <= set(window) and not undecided:
        kind = "holds"
    else:
        kind = "unknown"
    return FreenessReport(kind, counterexample, (), tuple(undecided), len(window))


class HausdorffReport(Record):
    __slots__ = ("kind", "freeness")  # "hausdorff" | "not-implied", FreenessReport


def hausdorff_report(t: SelfSimilarTriple, window) -> HausdorffReport:
    """Freeness implies a Hausdorff germ groupoid; the converse is not claimed. GermContext gates on it.

    The theorem assumes the axioms: the sweep raises SourceConditionError on a triple breaking one.
    """
    fr = check_residually_free(t, window, path_bound=1)  # agreements on single edges: |W|·|E| path actions
    return HausdorffReport("not-implied" if fr.found_counterexample else "hausdorff", fr)
