"""Inequality verification: energies, test families, checks, and reports.

Each check is a ratio of the two sides of its inequality and a constant:
`_verdict` sweeps the ratio over a deterministic family of test functions
and judges the worst one against the constant that `pilab.constants`
assembles from measured profile data; the report carries both.  A member
is finished only when a cheap upper bound on its ratio beats the best so far,
and a function of d(o, .) is bounded on o's distance classes before it is built.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, fields
from functools import cached_property, partial

import numpy as np

from .constants import (
    Constant,
    ahlfors_factor,
    annulus_constant,
    hardy_factor,
    local_sobolev_constant,
    weighted_constant,
)
from .covering import expand_covering, kappa_decomposition, validate_covering
from .errors import EmptyPiece, NotAhlfors, NotConnected, NotInAnnulus
from .gallery import space_document
from .graph_ineq import build_covering_graph, graph_profile, isoperimetric_constant
from .space import FiniteMetricMeasureSpace
from .weights import weight_density

REL_TOL = 1e-6
# Relative slack of the sweep's bounds: sums of n < 2^31 terms >= 0 in two orders
# differ by < 2^-20; it also absorbs the few ulps per term of the floor's reordered
# product m / d^s |df|^s
SLACK = 2.0**-16
# Largest Ahlfors regularity constant C_A that `ahlfors_fit` accepts.
AHLFORS_CAP = 100.0


@dataclass
class InequalityReport:
    inequality: str
    s: float
    t: float
    kappa: float
    Q1: float
    Q2: float
    C1: float
    C2: float
    empirical_best: float
    theoretical: float
    witness: str
    passed: bool
    hypotheses_violated: str = ""
    seconds: float = 0.0


def lip(space, f):
    """Local slope max |f(x) - f(y)| / d(x, y) over the neighbours y of x
    (zero at a vertex with none), scattered from the edge list."""
    f = np.asarray(f, dtype=float)
    a, b = space.edges.T
    return _edge_max(space.n, a, b, np.abs(f[a] - f[b]) / space.lengths)


def _edge_max(n, a, b, q):
    """The largest q[e] over the edges e = (a[e], b[e]) at each of the n
    vertices, zero at a vertex on none."""
    out = np.zeros(n)
    np.maximum.at(out, a, q)
    np.maximum.at(out, b, q)
    return out


def _slope_on(space, at):
    """f -> lip(space, f) at the vertices `at`, or everywhere when None; f is
    read only at `at` and their neighbours."""
    if at is None:
        return lambda f: lip(space, f)
    inside = np.zeros(space.n, dtype=bool)
    inside[at] = True
    a, b = space.edges.T
    e = np.flatnonzero(inside[a] | inside[b])
    a, b, ell = a[e], b[e], space.lengths[e]
    return lambda f: _edge_max(space.n, a, b, np.abs(f[a] - f[b]) / ell)[at]


def cheeger_energy(space, f, s):
    return float((lip(space, f) ** s * space.measure).sum())


def _first_neighbours(space, s):
    """(x, y, w): the vertices x that have a neighbour, the first neighbour y
    of each in space.adjacency, and m(x) / d(x, y)^s."""
    ptr = space.adjacency.indptr
    x = np.flatnonzero(ptr[:-1] < ptr[1:])
    return x, space.adjacency.indices[ptr[x]], space.measure[x] / space.adjacency.data[ptr[x]] ** s


def _energy_floor(profile, at=None):
    """f -> a lower bound on the float slope energy sum m lip(f)^s over `at`
    (all vertices when None), s = profile.s: it adds m(x) / d(x, y)^s
    |f(x) - f(y)|^s, y the first neighbour of x in space.adjacency, one of the
    quotients that lip(f)(x) maximizes, its terms gathered from profile.first
    at `at`.  An `at` holds two or more vertices of a connected space, so
    every vertex has a neighbour and the table is indexed by vertex."""
    x, y, w = profile.first
    every = at is None and len(x) == profile.space.n  # x is 0..n-1
    if at is not None:
        x, y, w = at, y[at], w[at]
    return lambda f: float(np.abs((f if every else f.take(x)) - f.take(y)) ** profile.s @ w) * (1.0 - SLACK)


def _slope_ratio(profile, num, at=None, scale=1.0):
    """f -> num(f) / (scale ||lip f||_{L^s(at)}), s = profile.s, the norm over
    every vertex when `at` is None and in the base measure; 0.0 when the
    denominator is not positive.  f is read where num reads it, at `at` and
    at the neighbours of `at`.

    This is the sweep's skip rule for a built member: given a `best`, as
    _verdict passes it, the ratio returns 0.0 when num(f) over the energy
    floor shows that it cannot exceed best.  It returns 0.0 rather than the
    bound, which a caller that rescales the ratio could round above its
    best.  _radial_bound takes the same bound on o's distance classes.
    """
    space, s = profile.space, profile.s
    m = space.measure if at is None else space.measure[at]
    floor = slope = None  # each built when first needed

    def ratio(f, best=None):
        nonlocal floor, slope
        f = np.asarray(f, dtype=float)
        if best is not None:
            floor = floor or _energy_floor(profile, at)
            den = scale * floor(f) ** (1.0 / s)
            if (num(f) / den if den > 0 else math.inf) <= best:
                return 0.0
        slope = slope or _slope_on(space, at)
        den = scale * float((slope(f) ** s * m).sum()) ** (1.0 / s)
        return num(f) / den if den > 0 else 0.0

    return ratio


def _radial_bound(profile, mu, t):
    """f -> _slope_ratio's bound on (sum |f|^t mu)^(1/t) / ||lip f||_{L^s} at a
    lazy member f = partial(g, d) of Family.members, read from g(u) at the
    distinct values u of d, the row f reads (taken again when it changes):
    |g(u)|^t times each class's mu-mass, over _energy_floor's terms summed per
    class pair (of x, of y) of profile.first.  Both regroup sums of terms
    >= 0, so they differ from the dense ones far below SLACK."""
    (x, y, w), s = profile.first, profile.s
    row = classes = None

    def bound(f):
        nonlocal row, classes
        if f.args[0] is not row:
            u, cls = np.unique(row := f.args[0], return_inverse=True)
            pairs, at = np.unique(cls[x] * len(u) + cls[y], return_inverse=True)
            classes = u, np.bincount(cls, mu), *np.divmod(pairs, len(u)), np.bincount(at, w)
        u, mass, a, b, weight = classes
        v = f.func(u)
        den = (float(np.abs(v[a] - v[b]) ** s @ weight) * (1.0 - SLACK)) ** (1.0 / s)
        num = float((np.abs(v) ** t * mass).sum()) ** (1.0 / t)
        return num / den if den > 0 else math.inf

    return bound


def _verdict(name, profile, t, kappa, family, ratio, constant, tol, flags, t0,
             radial=lambda f: math.inf):
    """Report of a check begun at perf_counter() = t0: the largest ratio(f)
    over the (id, f) pairs of the family, witnessed by its id (0 and "" when
    no ratio is positive), judged against the Constant constant(Q, C_P)
    within relative tolerance `tol`.  Q and C_P come from one pass of the
    check's Profile(space, s), whose rows the family's tents and indicators
    read as the pass reads them; reading the fits finishes the pass.

    `ratio(f, best=b)` may return any value <= b once a bound shows the
    ratio is <= b: a ratio counts only when strictly above the best, so
    this is exact.  NaN or inf never skips.  So a lazy member f
    (Family.members) whose bound `radial(f)` is <= best is skipped unbuilt.

    A non-finite constant certifies nothing, so the check fails and is
    flagged `constant_nonfinite`; a check flagged `covering_axiom_failed`
    fails too.
    """
    best, witness = 0.0, ""
    for fid, f in family.members(profile):
        if callable(f) and radial(f) <= best:
            continue
        r = ratio(f() if callable(f) else f, best=best)
        if r > best:
            best, witness = r, fid
    const = constant(*profile.fits)
    finite = math.isfinite(const.value)
    if not finite:
        flags.append("constant_nonfinite")
    passed = finite and "covering_axiom_failed" not in flags and best <= const.value * (1 + tol)
    # the fields in the order of the CSV columns
    return InequalityReport(
        name, profile.s, t, kappa, const.Q1, const.Q2, const.C1, const.C2, best, const.value,
        witness, passed, ";".join(flags), time.perf_counter() - t0,
    )


def _oscillation_ratio(profile, A, E, R, t):
    """f -> ||f - f_A||_{L^t(A)} / (R m(A)^(1/t - 1/s) ||lip f||_{L^s(E)}),
    s = profile.s, a _slope_ratio: the mean f_A and both norms use the base
    measure, and f is read only at A, E and the neighbours of E."""
    mA = profile.space.measure[A]
    mass = float(mA.sum())

    def num(f):
        fA = float((f[A] * mA).sum() / mass)
        return float((np.abs(f[A] - fA) ** t * mA).sum()) ** (1.0 / t)

    return _slope_ratio(profile, num, E, R * mass ** (1.0 / t - 1.0 / profile.s))


# -- test-function families ------------------------------------------------


def make_family(space, o, seed, count=200):
    """Deterministic family of (id, values) test functions, as a Family.

    The family is lazy and re-iterable.
    """
    return Family(space, o, seed, count)


@dataclass(frozen=True)
class Family:
    """Four generators: radial powers d(o,.)^beta near the critical
    exponents take two fifths; annulus cutoffs at dyadic radii, tents and
    smoothed ball indicators take a fifth each.  Iterating the family
    yields (id, values) pairs; `members` yields the first two lazily.

    The k-th tent and the k-th indicator sit at the (k mod count)-th center
    of a Profile's pass, with a width and a radius that `seed` draws from
    the profile radii, so that each reads its center's row no farther than
    the profile does.  Each pass reruns the generators from `seed`, so a
    sweep holds one test function at a time and every pass yields the same
    (id, values) pairs.
    """

    space: FiniteMetricMeasureSpace
    o: int
    seed: int
    count: int = 200

    def __len__(self):
        return 5 * max(1, self.count // 5)

    def __iter__(self):
        for fid, f in self.members(Profile(self.space)):
            yield fid, f() if callable(f) else f

    def members(self, profile):
        """The (id, values) pairs, the tents and indicators read from the
        rows of `profile`, a Profile of the space, as its pass reads them.
        A radial member g(d), d = d(o, .), comes as partial(g, d): calling it
        builds its values, and g(u) equals them bit for bit where d = u."""
        space = self.space
        rng = np.random.default_rng(self.seed)
        d = space.dist_from(self.o)
        diam = max(space.diameter(), space.resolution)
        per = len(self) // 5

        for beta in np.linspace(0.25, 2.5, 2 * per):
            yield f"radial_power[{beta:.4f}]", partial(lambda v, beta=beta: v**beta, d)

        dyadic = [space.resolution * 2**j for j in range(int(math.log2(diam / space.resolution)) + 1)]
        for _ in range(per):
            if len(dyadic) < 2:
                r, R = space.resolution, 2 * space.resolution
            else:
                i = int(rng.integers(len(dyadic) - 1))
                j = int(rng.integers(i + 1, len(dyadic)))
                r, R = dyadic[i], dyadic[j]
            yield f"annulus_cutoff[{r:.4f},{R:.4f}]", partial(
                lambda v, r=r, R=R: np.clip((R - v) / (R - r), 0.0, 1.0), d)

        radii = profile.radii
        # the doubled radius too: 2 max(radii) is still within the row limit
        widths = [*radii, 2 * radii[-1]]
        for i, (c, dc) in zip(range(per), profile):
            for _ in range(i, per, profile.count):
                w = float(rng.choice(widths))
                yield f"tent[{c},{w:.4f}]", np.maximum(0.0, 1.0 - dc / w)
                r, width = (float(v) for v in rng.choice(radii, 2))
                vals = np.clip((r + width - dc) / width, 0.0, 1.0)
                yield f"indicator_smooth[{c},{r:.4f},{width:.4f}]", vals


# -- the profile record -----------------------------------------------------


@dataclass(frozen=True)
class SpaceProfile:
    """Doubling estimate: C_D = sup m(B_2r)/m(B_r) over the sample grid."""

    C_D: float
    Q: float

    def __post_init__(self):
        assert self.C_D >= 1.0 and self.Q >= 0.0


@dataclass(frozen=True)
class AhlforsParams:
    Q: float
    C_A: float

    def __post_init__(self):
        assert self.C_A >= 1.0


class Profile:
    """The profile data of a space from one pass over its rows, on one grid:
    `count` centers, n / max(1, n // 64) rounded up (65 on the gallery's
    benchmark spaces), and dyadic `radii` from 4x the resolution (smaller
    radii alias the lattice) up to a quarter of the diameter, so that the
    doubled ball stays below diameter/2.  The radii are positive, so every
    ball holds its center and has positive mass.  Each center's row is read
    up to `limit` = 2 max(radii) + the longest edge of the adjacency, as far
    as the doubled balls and the neighbours of every doubled ball reach.

    Given s, `first` is the sweep's one floor table, the _first_neighbours of
    the space.  Iterating the record yields each center's (x, row) once the
    row has fed its line of `masses`, m(B_r(x)) at r in radii + [2 max(radii)],
    and, given s, at every j-th center, j = max(1, count // 16), its Poincare
    balls (17 centers on the gallery's benchmark spaces).  Reading a result
    finishes the pass.
    """

    def __init__(self, space, s=None):
        self.space, self.s = space, s
        self.first = None if s is None else _first_neighbours(space, s)
        diam = space.diameter()
        r, radii = 4.0 * space.resolution, []
        while r <= diam / 4 + 1e-12:
            radii.append(r)
            r *= 2.0
        self.radii = radii or [max(space.resolution, diam / 4)]
        self.limit = 2.0 * self.radii[-1] + float(space.adjacency.data.max(initial=0.0))
        self.count = -(-space.n // max(1, space.n // 64))
        self._lines, self._best = [], 0.0
        self._pass = self._read()

    def __iter__(self):
        return self._pass

    def rows(self):
        """(x, row of x) for each center x, every row read once, to `limit`.

        The centers come in farthest-point order from vertex 0: each next one
        is the first vertex farthest from those before, as their rows read it
        (past the limit a distance counts as inf), so the centers spread over
        the space within 2x of the best covering radius (T. Gonzalez, Theor.
        Comput. Sci. 1985).  The order is a running minimum over the rows.
        """
        near = np.full(self.space.n, np.inf)
        x = 0
        for _ in range(self.count):
            d = self.space.dist_from(x, limit=self.limit)
            yield x, d
            np.minimum(near, d, out=near)
            far = near > self.limit  # each is farthest: past the limit a distance counts as inf
            x = int(np.argmax(far if far.any() else near))

    def _read(self):
        grid = self.radii + [2 * self.radii[-1]]
        for i, (x, d) in enumerate(self.rows()):
            self._lines.append(_row_masses(self.space, d, grid))
            if self.s is not None and i % max(1, self.count // 16) == 0:
                self._best = _poincare_balls(self, d, self._lines[-1], self._best)
            yield x, d

    def _finish(self):
        for _ in self._pass:
            pass

    @cached_property
    def masses(self):
        self._finish()
        return np.array(self._lines)

    @cached_property
    def doubling(self):
        """SpaceProfile; m(B_2r) is the next column, each radius twice the last."""
        masses = self.masses
        best = max(1.0, float((masses[:, 1:] / masses[:, :-1]).max()))
        return SpaceProfile(best, math.log2(best))

    @property
    def poincare(self):
        """The empirical weak (s, s) Poincare constant at lam = 2, unfloored:
        the largest ratio of _poincare_balls."""
        self._finish()
        return self._best

    @property
    def fits(self):
        """(Q, C_P) as the checks read them, C_P floored at 1.0 so that the
        constants downstream stay conservative."""
        return self.doubling.Q, max(self.poincare, 1.0)

    def ahlfors(self):
        """Least-squares Ahlfors exponent Q and regularity constant C_A over
        the grid, the masses at the doubled radius left out.

        Raises NotAhlfors when the fitted C_A exceeds `AHLFORS_CAP` or the
        grid is degenerate (fewer than two radii).
        """
        if len(self.radii) < 2:
            raise NotAhlfors("degenerate sample set")
        rs = self.radii * self.count
        ms = self.masses[:, :-1].ravel().tolist()
        Q = float(np.polyfit(np.log(rs), np.log(ms), 1)[0])
        C_A = max(1.0, max(max(m / r**Q, r**Q / m) for r, m in zip(rs, ms)))
        if C_A > AHLFORS_CAP:
            raise NotAhlfors(f"C_A={C_A:.3g} exceeds cap {AHLFORS_CAP}")
        return AhlforsParams(Q=Q, C_A=C_A)


def doubling_profile(space):
    """C_D and Q = log2 C_D of the Profile (a single vertex gives C_D = 1)."""
    return Profile(space).doubling


def ahlfors_fit(space):
    """The Profile's Ahlfors fit; raises NotAhlfors."""
    return Profile(space).ahlfors()


def measure_poincare(space, s):
    """The Profile's weak (s, s) Poincare constant, floored at 1.0."""
    return Profile(space, s).fits[1]


def _row_masses(space, d, radii):
    """m(B_r(x)) at each increasing positive radius r, from the row d of x:
    each sums the same elements in the same order as measure[d < r].sum(),
    from the ball of the largest radius, gathered once."""
    ball = np.flatnonzero(d < radii[-1])
    dB, mB = d[ball], space.measure[ball]
    return [mB[dB < r].sum() for r in radii]


def _poincare_balls(profile, dx, line, best):
    """The larger of `best` and the ratios on the balls B = B_r(x), r in
    profile.radii, s = profile.s, read from the row dx of x and its mass line
    (Profile.masses): the oscillation ratio on (B, 2B) times
    (m(2B)/m(B))^(1/s), both masses taken from the line, which turns both
    norms into averages, swept over the row d(x, .), the tent 1 - d(x, .)/r
    and, when the space has coordinates, their sum x + y.  As in _verdict, a candidate is finished
    only when its bound can beat the best so far, and only a larger ratio
    counts, so NaN never does."""
    space, s = profile.space, profile.s
    coord_sum = [] if space.coords is None else [space.coords[:, 0] + space.coords[:, 1]]
    for r, mB, m2B in zip(profile.radii, line, line[1:]):
        B = np.flatnonzero(dx < r)
        if len(B) < 2:
            continue
        B2 = np.flatnonzero(dx < 2.0 * r)
        scale = float(m2B / mB) ** (1.0 / s)
        osc = _oscillation_ratio(profile, B, B2, r, s)
        for f in [dx, np.maximum(0.0, 1.0 - dx / r), *coord_sum]:
            ratio = scale * osc(f, best=best / scale)
            if ratio > best:
                best = ratio
    return best


def _radial_masses(space, o):
    """Dyadic radii from the resolution up to the eccentricity of o, and
    m(B_r(o)) at each, from o's row read once."""
    d = space.dist_from(o)
    rmax = float(d.max())
    radii = []
    r = space.resolution
    while r <= rmax:
        radii.append(r)
        r *= 2.0
    if radii and radii[-1] < rmax:
        radii.append(rmax)
    return radii, _row_masses(space, d, radii) if radii else []


def reverse_doubling_fit(space, o, eta):
    """Largest C_o with m(B_R(o))/m(B_r(o)) >= C_o (R/r)^eta over the
    increasing radii of `_radial_masses`, each ball holding o.

    Returns the raw infimum, which honestly approaches 0 when reverse
    doubling with exponent eta fails.
    """
    radii, masses = _radial_masses(space, o)
    best = math.inf
    for i, (r, mr) in enumerate(zip(radii, masses)):
        for R, mR in zip(radii[i:], masses[i:]):
            best = min(best, (mR / mr) * (r / R) ** eta)
    return best if best < math.inf else 0.0


def eta_fit(space, o):
    """Least-squares volume-growth exponent at o.

    Every sample radius is at least the resolution, so every ball holds o
    and has positive mass.
    """
    radii, masses = _radial_masses(space, o)
    if len(radii) < 2:
        return 0.0
    return float(np.polyfit(np.log(radii), np.log(masses), 1)[0])


# -- local inequality checks ----------------------------------------------


def local_sobolev_check(space, a, R, s, t, family):
    """Local (s, t) Sobolev inequality on the ball B_R(a), with the chain
    constants at lam = 2."""
    t0 = time.perf_counter()
    B = space.ball(a, R)
    if len(B) < 2:
        raise EmptyPiece("B_R(a) holds fewer than two vertices, on which every oscillation is zero")
    flags = []

    def constant(Q, C_P):
        C_s = local_sobolev_constant(Q, C_P, 2.0, s, flags)
        return Constant(C_P, C_s, 0.0, 0.0, C_s)

    profile = Profile(space, s)
    ratio = _oscillation_ratio(profile, B, B, R, t)
    tol = REL_TOL + 3.0 * space.resolution / R
    return _verdict("local-sobolev", profile, t, 0.0, family, ratio, constant, tol, flags, t0)


def _require_in_annulus(space, o, R, alpha, A):
    """Raise NotInAnnulus unless the vertex set A is non-empty and inside
    the annulus [R, alpha R) around o, up to a tolerance relative to R."""
    d = space.dist_from(o)[A]
    if len(A) == 0 or d.min() < R * (1 - REL_TOL) or d.max() >= alpha * R:
        raise NotInAnnulus("A is not inside the annulus [R, alpha R)")


def annulus_piece_check(space, o, R, alpha, delta, A, s, t, family, flavor="poincare"):
    """Sobolev/Poincare inequality on a connected annulus piece A.

    The right side integrates the slope over the delta*R fattening of A.
    The constant is annulus_constant's closed form in Q: N = (4(6a + 1))^Q,
    K = (1 + 2a)^Q, Q1 = 60^Q and Q2 = 18^Q with a = alpha/delta.  No net
    covering of A is built.
    """
    t0 = time.perf_counter()
    A = np.unique(np.asarray(A, dtype=np.int64))
    _require_in_annulus(space, o, R, alpha, A)
    if len(A) < 2:
        raise EmptyPiece("A is a single vertex, on which every oscillation is zero")
    ncomp, _ = space.induced_components(A)
    if ncomp != 1:
        raise NotConnected(f"A has {ncomp} components")

    rho = delta * R
    fat = np.flatnonzero(space.dist_to_set(A, limit=rho) < rho)
    profile = Profile(space, s)
    ratio = _oscillation_ratio(profile, A, fat, R, t)
    flags = []

    def constant(Q, C_P):
        return annulus_constant(Q, C_P, alpha, delta, s, t, flavor, flags)

    tol = REL_TOL + 3.0 * space.resolution / R
    return _verdict(f"annulus-{flavor}", profile, t, 0.0, family, ratio, constant, tol, flags, t0)


# -- headline weighted checks ---------------------------------------------


def _weighted_check(space, o, s, t, family, kappa, weight, name, **scale):
    """Shared pipeline: decompose, validate, graph constants, sweep.
    `scale` is the local_scale or global_scale of weighted_constant."""
    t0 = time.perf_counter()
    # eta = s is the borderline case, where the fit is s up to rounding
    flags = ["eta_not_above_s"] if eta_fit(space, o) <= s * (1 + REL_TOL) else []
    mu = weight * space.measure
    covering = expand_covering(space, kappa_decomposition(space, o, kappa))
    val = validate_covering(covering, space, mu=mu)
    # the patching argument holds only on a good covering
    if not val.all_pass:
        flags.append("covering_axiom_failed")
    graph = build_covering_graph(space, covering, mu=mu)
    gp = graph_profile(graph)
    # masses beyond the float range leave the LP nothing to certify
    finite = np.isfinite(graph.vmass).all()
    C_disc = 1.0 / isoperimetric_constant(graph).I if finite else math.inf

    def constant(Q, C_P):
        return weighted_constant(
            Q, C_P, kappa, C_disc, gp.A, gp.B, val.Q1_emp, val.Q2_emp, s, t, flags, **scale
        )

    profile = Profile(space, s)
    ratio = _slope_ratio(profile, lambda f: float((np.abs(f) ** t * mu).sum()) ** (1.0 / t))
    return _verdict(name, profile, t, kappa, family, ratio, constant, REL_TOL, flags, t0,
                    _radial_bound(profile, mu, t))


def weighted_sobolev_check(space, o, s, t, family, kappa=2.0):
    """Weighted (s, t) Sobolev inequality with the mixed radial weight."""
    w = weight_density(space, o, "mu_st", s=s, t=t)
    return _weighted_check(space, o, s, t, family, kappa, w, "weighted-sobolev")


def hardy_check(space, o, s, family, kappa=2.0):
    """Hardy inequality with weight d(o, .)^(-s); the local constant
    carries the extra 2^s kappa^(2s) factor of the annulus estimate."""
    w = weight_density(space, o, "mu_s", s=s)
    scale = hardy_factor(s, kappa)
    return _weighted_check(space, o, s, s, family, kappa, w, "hardy", local_scale=scale)


def ahlfors_sobolev_check(space, o, s, t, family, kappa=2.0):
    """Sobolev inequality with the pure power-of-distance weight.

    For t = s the weight collapses to the Hardy weight, so the check
    delegates to hardy_check (constants included) and fits no Ahlfors
    parameters.  Otherwise the weight needs the Ahlfors exponent before the
    sweep's first member, and a check holds one profile row at a time, so
    ahlfors_fit runs a Profile pass of its own before the check's.
    """
    if t == s:
        rep = hardy_check(space, o, s, family, kappa=kappa)
        rep.inequality = "ahlfors-sobolev"
        return rep
    params = ahlfors_fit(space)
    w = weight_density(space, o, "ahlfors", s=s, t=t, Q=params.Q)
    scale = ahlfors_factor(params.C_A, s, t)
    return _weighted_check(space, o, s, t, family, kappa, w, "ahlfors-sobolev", global_scale=scale)


# -- report output ---------------------------------------------------------

CSV_COLUMNS = ["pass" if f.name == "passed" else f.name for f in fields(InequalityReport)]


def _row(rep, zero_seconds):
    cells = []
    for name, v in asdict(rep).items():
        if name == "seconds":
            cells.append("0" if zero_seconds else f"{v:.6f}")
        else:
            cells.append(f"{v:.12g}" if isinstance(v, float) else str(v))
    return cells


def write_reports_csv(reports, path, zero_seconds=False):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rep in reports:
            writer.writerow(_row(rep, zero_seconds))


def space_hash(space):
    """SHA-256 of the space's schema document, coordinates left out."""
    return hashlib.sha256(json.dumps(space_document(space), sort_keys=True).encode()).hexdigest()


def write_reports_json(reports, path, provenance=None, zero_seconds=False):
    """Reports as strict JSON: non-finite floats become the CSV's strings."""
    docs = []
    for rep in reports:
        doc = {
            k: f"{v:.12g}" if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in asdict(rep).items()
        }
        if zero_seconds:
            doc["seconds"] = 0
        docs.append(doc)
    payload = {"provenance": provenance or {}, "reports": docs}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
