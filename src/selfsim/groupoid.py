"""Groupoid of germs over infinite paths, with the corona-valued lag.

A germ [alpha, g, beta; xi] is the equivalence class of the semigroup
element (alpha, g, beta) acting at the point beta.xi of path space. Germ
equality needs no freeness; the context object that gathers the germ
operations is gated on sweeps.hausdorff_report: the axioms, and, as a
policy, no freeness counterexample in a window unless overridden.
"""

from __future__ import annotations

from math import lcm

from .action import SelfSimilarTriple
from .corona import CoronaSeq, LagValue, PeriodicSeq, corona_eq, shift_right
from .errors import (
    DepthExceededError,
    EmptySetError,
    FreenessNotVerifiedError,
    NotComposableError,
    SourceConditionError,
    UndecidedError,
    Value,
)
from .graph import _A_PROPER, _B_PROPER, _EQUAL, _INCOMPARABLE, Path, concat, prefix_compare
from .groups import DEFAULT_DEPTH, DEFAULT_RADIUS, MAX_ENUMERATION, _Memo, at_least, default_window
from .infinite import InfPath, PeriodicPath, _carry_walk, inf_path_eq
from .periodic import drop
from .sweeps import hausdorff_report, render_certificate
from .tri import Tri, DISTINCT, EQUAL, all_of, unknown


class Germ(Value):
    """[alpha, g, beta; xi]: source point beta.xi, range point alpha.(g xi).

    Compared by identity; GermContext.germ_eq decides germ equality.
    """

    __slots__ = ("alpha", "g", "beta", "xi")

    def __init__(self, alpha: Path, g, beta: Path, xi: InfPath):
        self.alpha = alpha
        self.g = g
        self.beta = beta
        self.xi = xi


class GermContext:
    """Germ operations over one triple, gated on the axioms and a freeness sweep.

    Construction runs hausdorff_report over the window: it refuses a triple
    that breaks an axiom on its generators, whatever allow_unverified says,
    and, as a policy, a known freeness counterexample unless allow_unverified.
    Every operation answers at the constructor's depth, so a carry walk
    depends only on g and the letters of xi it reads: the walks of an exact
    element are kept in one table, bounded like an automaton backend's memo,
    and threads may share a context.
    """

    def __init__(
        self,
        triple: SelfSimilarTriple,
        window=None,
        depth: int = DEFAULT_DEPTH,
        allow_unverified: bool = False,
    ):
        self._triple = triple
        self.window = list(default_window(triple.group, DEFAULT_RADIUS) if window is None else window)
        self._depth = at_least("depth", depth, 1)
        self.freeness = hausdorff_report(triple, self.window).freeness
        if self.freeness.found_counterexample and not allow_unverified:
            raise FreenessNotVerifiedError(render_certificate(triple, self.freeness.counterexample))
        self._walks = _Memo()  # (g, letters of xi read) -> (g.xi, Phi(g, xi)), see _walk

    @property
    def triple(self) -> SelfSimilarTriple:
        """The triple, fixed at construction: the gate and the walk table hold for it alone."""
        return self._triple

    @property
    def depth(self) -> int:
        """The depth every operation answers at, fixed at construction."""
        return self._depth

    # -- the carry walk ----------------------------------------------------

    def _walk(self, g, xi: InfPath, image: bool = True) -> tuple[InfPath | None, CoronaSeq]:
        """_carry_walk at the context's depth, after checking g, so one kept walk serves every
        value equal to g. The table keys a walk on g and the letters it reads, a periodic xi's
        prefix and cycle or a stream's first depth letters, and keeps every walk that reads a
        letter, closed or not, while its letter budget lasts. A walk that raised is not kept, nor
        one that read no letter: its image is undecided, None or DepthExceededError as ``image`` asks."""
        g = self.triple.group.check(g)
        key = (g, xi.prefix_edges, xi.cycle_edges) if isinstance(xi, PeriodicPath) else (g, xi.letters[: self.depth])
        known = self._walks.get(key) if key[-1] else None
        if known is not None:
            return known
        gxi, seq = pair = _carry_walk(self.triple, g, xi, self.depth, image)
        if key[-1]:
            if isinstance(gxi, PeriodicPath):
                path, carries = gxi.prefix_edges + gxi.cycle_edges, seq.prefix + seq.cycle
            else:
                path, carries = gxi.letters, seq.values
            letters = sum(map(len, key[1:])) + len(path)
            letters += sum(len(c) if type(c) is tuple else 1 for c in (g, *carries))
            self._walks.keep(key, pair, letters)
        return pair

    # -- construction ------------------------------------------------------

    def _check(self, alpha: Path, g, beta: Path) -> None:
        """The checks of (alpha, g, beta) that make and open_set_member share, in this order."""
        self.triple.group.check(g)
        if alpha.source_vertex != self.triple.act_vertex(g, beta.source_vertex):
            raise SourceConditionError("d(alpha) != g d(beta)")

    def make(self, alpha: Path, g, beta: Path, xi: InfPath) -> Germ:
        self._check(alpha, g, beta)
        if beta.source_vertex != xi.range_vertex:
            raise SourceConditionError("d(beta) != r(xi): point is not in the cylinder of beta")
        return Germ(alpha, g, beta, xi)

    def unit(self, beta: Path, xi: InfPath) -> Germ:
        return self.make(beta, self.triple.group.identity(), beta, xi)

    def render(self, u: Germ) -> str:
        return f"[{u.alpha}, {self.triple.group.render(u.g)}, {u.beta}; {u.xi}]"

    # -- source and range --------------------------------------------------

    def source_point(self, u: Germ) -> InfPath:
        return u.xi.prepend(u.beta)

    def range_point(self, u: Germ) -> InfPath:
        return self._walk(u.g, u.xi)[0].prepend(u.alpha)

    def source_prefix(self, u: Germ, n: int) -> Path:
        return self.source_point(u).truncate(n)

    def range_prefix(self, u: Germ, n: int) -> Path:
        """Length-n prefix of alpha.(g xi), computed through the path action."""
        k = max(n - len(u.alpha), 0)
        g_img = self.triple.act_path(u.g, u.xi.truncate(k))[0]
        return concat(u.alpha, g_img).prefix(n)

    # -- equality and representatives --------------------------------------

    def germ_eq(self, u1: Germ, u2: Germ) -> Tri:
        """Germ equality from its definition, oriented by |beta|; no freeness is assumed.

        Aligned on beta, the elements must agree in image and restriction from some prefix
        of xi on: at once if equal there, else as both carry walks decide, each raising
        DepthExceededError past the carry-letter budget.
        """
        if len(u1.beta) > len(u2.beta):
            u1, u2 = u2, u1
        rel = prefix_compare(u1.beta, u2.beta)
        if rel is not _EQUAL and rel is not _A_PROPER:
            return DISTINCT
        gamma = u2.beta.drop(len(u1.beta))
        tails = inf_path_eq(u1.xi, u2.xi.prepend(gamma), self.depth)
        if tails.is_distinct:
            return DISTINCT
        return self._aligned(u1.alpha, u1.g, gamma, u2.alpha, u2.g, u2.xi, 0, tails)

    def _aligned(self, alpha1: Path, g1, gamma: Path, alpha2: Path, g2, xi: InfPath, k: int, tails: Tri) -> Tri:
        """The rest of germ_eq, aligned on beta.gamma: (alpha1, g1) along gamma against (alpha2, g2), at xi
        past its first k letters, which only the carry walks read. tails is the points' verdict."""
        img, coc = self.triple.act_path(g1, gamma)
        if alpha2 != concat(alpha1, img):
            return DISTINCT
        if self.triple.group.eq(g2, coc).is_equal:
            return tails
        xi = xi.drop(k) if k else xi
        (image1, carries1), (image2, carries2) = self._walk(coc, xi), self._walk(g2, xi)
        return all_of((tails, inf_path_eq(image1, image2, self.depth), corona_eq(carries1, carries2)))

    def reparametrize(self, u: Germ, n: int, side: str = "beta") -> Germ:
        """Equal germ whose alpha (or beta) component has length n >= current.

        Absorbs a prefix of xi: [a, g, b; gxi] = [a.(g gamma), phi(g, gamma),
        b.gamma; xi'] for gamma the absorbed prefix.
        """
        if side not in ("alpha", "beta"):
            raise ValueError("side must be 'alpha' or 'beta'")
        current = len(u.alpha) if side == "alpha" else len(u.beta)
        k = n - current
        if k < 0:
            raise ValueError(f"cannot shorten {side} from {current} to {n}")
        if k == 0:
            return u
        gamma = u.xi.truncate(k)
        img, coc = self.triple.act_path(u.g, gamma)
        return Germ(concat(u.alpha, img), coc, concat(u.beta, gamma), u.xi.drop(k))

    # -- groupoid structure --------------------------------------------------

    def compose(self, u1: Germ, u2: Germ) -> Germ:
        """Product u1 u2, defined when source(u1) = range(u2).

        Reparametrizes so the middle paths align; raises when the sources
        provably diverge, and refuses (rather than guessing) when the tails
        cannot be decided at this depth.
        """
        depth = self.depth
        n = max(len(u1.beta), len(u2.alpha))
        r1 = self.reparametrize(u1, n, "beta")
        r2 = self.reparametrize(u2, n, "alpha")
        if r1.beta != r2.alpha:
            raise NotComposableError("source and range prefixes diverge")
        tails = inf_path_eq(r1.xi, self._walk(r2.g, r2.xi)[0], depth)
        if tails.is_distinct:
            raise NotComposableError("source and range tails diverge")
        if tails.is_unknown:
            raise UndecidedError(f"composability undecided at depth {depth}")
        return Germ(r1.alpha, self.triple.group.mul(r1.g, r2.g), r2.beta, r2.xi)

    def inverse(self, u: Germ) -> Germ:
        return Germ(u.beta, self.triple.group.inv(u.g), u.alpha, self._walk(u.g, u.xi)[0])

    # -- lag and the concrete model ----------------------------------------

    def lag(self, u: Germ) -> LagValue:
        """(right-shift^|alpha| of the cocycle sequence class, |alpha| - |beta|)."""
        seq = self._walk(u.g, u.xi, image=False)[1]
        return LagValue(shift_right(seq, len(u.alpha)), len(u.alpha) - len(u.beta))

    def f_map(self, u: Germ) -> tuple[InfPath, LagValue, InfPath]:
        """(range point, lag, source point): injective, as germs are equal exactly when these agree."""
        gxi, seq = self._walk(u.g, u.xi)
        lag = LagValue(shift_right(seq, len(u.alpha)), len(u.alpha) - len(u.beta))
        return (gxi.prepend(u.alpha), lag, self.source_point(u))

    def model_check(
        self,
        eta: InfPath,
        gseq: CoronaSeq,
        k: int,
        zeta: InfPath,
        split: tuple[int, int] | None = None,
    ) -> Tri:
        """Membership test for the concrete groupoid model.

        A split k = p - q (supplied, or searched) holds when, for all n >= 1, the
        carry recursion g_(n+p+1) = phi(g_(n+p), zeta_(n+q)) and the letter law
        eta_(n+p) = g_(n+p) zeta_(n+q) hold: when eta from p is g_(p+1).(zeta from q)
        and gseq from p + 2 is the rest of Phi(g_(p+1), zeta from q). Fully decided
        when all three sequences are eventually periodic.
        """
        depth = self.depth
        if split is not None:
            p, q = _split(split, k)
            return self._split_holds(eta, gseq, p, q, zeta)
        if not (isinstance(eta, PeriodicPath) and isinstance(zeta, PeriodicPath) and isinstance(gseq, PeriodicSeq)):
            # Bounded inputs never decide a split, so no split search can either.
            return unknown(depth)
        # The conditions for split p + 1 are those for split p from n = 2 on,
        # so holding at some split means holding at every larger one, and
        # past every preperiod the splits repeat. The top split of the range
        # p = max(k, 0) .. p_hi decides the whole range.
        period = lcm(len(eta.cycle_edges), len(zeta.cycle_edges), len(gseq.cycle))
        p_hi = max(depth, len(eta.prefix_edges) + len(zeta.prefix_edges) + len(gseq.prefix) + period + abs(k) + 1)
        verdict = self._split_holds(eta, gseq, p_hi, p_hi - k, zeta)
        return unknown(depth) if verdict.is_unknown else verdict

    def _split_holds(self, eta: InfPath, gseq: CoronaSeq, p: int, q: int, zeta: InfPath) -> Tri:
        """The conditions n = 1 .. the horizon of one split, condition n reading (g_(n+p),
        g_(n+p+1), zeta_(n+q), eta_(n+p)): the preperiods plus one period decide periodic inputs,
        bounded ones cap the horizon, and past MAX_ENUMERATION a split is distinct or unknown.
        Those that the walk of g_(p+1) along zeta from q (read from the table) meets, from the first
        on, cost no step; the rest, or all where the walk raises, are stepped from gseq's entries."""
        decisive = isinstance(eta, PeriodicPath) and isinstance(zeta, PeriodicPath) and isinstance(gseq, PeriodicSeq)
        if decisive:
            period = lcm(len(gseq.cycle), len(zeta.cycle_edges), len(eta.cycle_edges))
            horizon = max(len(gseq.prefix) - p, len(zeta.prefix_edges) - q, len(eta.prefix_edges) - p, 0) + period
            reported = max(self.depth, horizon)
        else:
            limits = ((gseq.depth_limit, p + 1), (zeta.depth_limit, q), (eta.depth_limit, p))
            horizon = min(self.depth, *(lim - offset for lim, offset in limits if lim is not None))
            if horizon < 1:
                return unknown(0)
            reported = horizon
        if horizon > MAX_ENUMERATION:
            horizon = reported = MAX_ENUMERATION
            decisive = False
        t, pending = self.triple, False
        try:
            gxi, phi = self._walk(gseq.entry(p + 1), zeta.drop(q) if q else zeta)
        except Exception:  # noqa: BLE001 - the steps below meet what raised in its turn
            met = 0
        else:
            met = _met(gxi, phi, eta, gseq, p, horizon)
        for n in range(met + 1, horizon + 1):
            image, coc = t.step(gseq.entry(n + p), zeta.letter(n + q))
            verdict = t.group.eq(gseq.entry(n + p + 1), coc)
            if verdict.is_distinct or eta.letter(n + p) != image:
                return DISTINCT
            pending = pending or verdict.is_unknown
        return EQUAL if decisive and not pending else unknown(reported)

    def model_to_germ(self, eta: InfPath, gseq: CoronaSeq, k: int, zeta: InfPath, split: tuple[int, int]) -> Germ:
        """Proof-recipe pullback: g = g_(p+1), alpha = eta|_p, beta = zeta|_q."""
        p, q = _split(split, k)
        return self.make(eta.truncate(p), gseq.entry(p + 1), zeta.truncate(q), zeta.drop(q))

    # -- basic open sets -----------------------------------------------------

    def normalize_basic(
        self, alpha: Path, g, beta: Path, gamma: Path | None = None
    ) -> tuple[Path, object, Path]:
        """Fold the cylinder restriction into the semigroup element.

        The set is unchanged when gamma is at or above beta; when beta.eps =
        gamma the element absorbs eps; incomparable data denotes the empty
        set. Idempotent by construction.
        """
        if gamma is None:
            return (alpha, g, beta)
        rel = prefix_compare(gamma, beta)
        if rel is _EQUAL or rel is _A_PROPER:
            return (alpha, g, beta)
        if rel is _B_PROPER:
            eps = gamma.drop(len(beta))
            img, coc = self.triple.act_path(g, eps)
            return (concat(alpha, img), coc, gamma)
        raise EmptySetError(f"cylinder {gamma} does not meet the domain cylinder {beta}")

    def open_set_member(self, u: Germ, alpha: Path, g, beta: Path, gamma: Path | None = None) -> Tri:
        """Is u in the basic open set of (alpha, g, beta) restricted to gamma?

        u's source point must lie in the cylinder of beta, tested on u's own paths; then, once
        (alpha, g, beta) passes make's checks, one aligned comparison with u, oriented as germ_eq
        orients, decides, its tails equal by construction. Undecided answers carry germ_eq's depth.
        """
        alpha, g, beta = self.normalize_basic(alpha, g, beta, gamma)
        n, m = len(beta), len(u.beta)
        try:
            if (n > m and u.xi.head(n - m) != beta.edges[m:]) or prefix_compare(beta, u.beta) is _INCOMPARABLE:
                return DISTINCT
            self._check(alpha, g, beta)
            if u.xi.depth_limit == n - m:  # no letter known past beta: d(beta) = r(point) is undecided
                return unknown(self.depth)
            sides = (u.alpha, u.g, beta.drop(m), alpha, g) if m <= n else (alpha, g, u.beta.drop(n), u.alpha, u.g)
            verdict = self._aligned(*sides, u.xi, max(n - m, 0), EQUAL)
        except DepthExceededError:
            return unknown(self.depth)
        if verdict.is_unknown and not isinstance(u.xi, PeriodicPath):  # germ_eq's depth: letters past the shorter beta
            return unknown(min(self.depth, u.xi.depth_limit + max(m - n, 0)))
        return verdict


def _split(split: tuple[int, int], k: int) -> tuple[int, int]:
    p, q = split
    if p < 0 or q < 0 or p - q != k:
        raise ValueError("split must be nonnegative with p - q = k")
    return p, q


def _met(gxi: InfPath, phi: CoronaSeq, eta: InfPath, gseq: CoronaSeq, p: int, horizon: int) -> int:
    """How many of conditions 1 .. horizon the walk (gxi, phi) meets from the first on, as far as it
    knows them: its image letter is eta's, its carry gseq's entry (checked values, compared by ==). Periodic
    sides meet all or none, as normal forms; bounded ones are compared as tuples; mixed ones meet none."""
    if isinstance(phi, PeriodicSeq) and isinstance(eta, PeriodicPath) and isinstance(gseq, PeriodicSeq):
        # gseq's entry p + 1 is the walk's first carry: compare the carries from there.
        (pre, cyc), images = drop(gseq.prefix, gseq.cycle, p), drop(eta.prefix_edges, eta.cycle_edges, p)
        met = images == (gxi.prefix_edges, gxi.cycle_edges) and (phi.prefix, phi.cycle) == (pre, cyc)
        return horizon if met else 0
    if isinstance(phi, PeriodicSeq) or isinstance(eta, PeriodicPath) or isinstance(gseq, PeriodicSeq):
        return 0
    n = min(horizon, phi.depth_limit - 1, gxi.depth_limit)
    images, letters = gxi.letters[:n], eta.letters[p : p + n]
    carries, entries = phi.values[1 : n + 1], gseq.values[p + 1 : p + n + 1]
    if images == letters and carries == entries:
        return n
    differ = zip(images, letters, carries, entries)
    return next(m for m, (a, b, c, d) in enumerate(differ) if a != b or c != d)
