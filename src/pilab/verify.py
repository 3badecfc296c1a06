"""Inequality verification: energies, test families, checks, and reports.

Each check is a ratio of the two sides of its inequality and a constant:
`_verdict` sweeps the ratio over a deterministic family of test functions
and judges the worst one against the constant that `pilab.constants`
assembles from measured profile data; the report carries both.  A member
is finished only when a cheap upper bound on its ratio beats the best so far.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .constants import (
    Constant,
    ahlfors_factor,
    annulus_constant,
    hardy_factor,
    local_sobolev_constant,
    weighted_constant,
)
from .covering import _require_in_annulus, expand_covering, kappa_decomposition, validate_covering
from .errors import EmptyPiece, NotConnected
from .gallery import space_document
from .graph_ineq import build_covering_graph, graph_profile, isoperimetric_constant
from .space import (
    FiniteMetricMeasureSpace,
    _doubling,
    _radial_masses,
    _row_masses,
    ahlfors_fit,
    default_profile_samples,
    doubling_profile,  # noqa: F401  (re-exported: perfbench's tracer wraps it here)
    profile_rows,
)
from .weights import weight_density

REL_TOL = 1e-6
# Relative slack of the sweep's bounds: sums of n < 2^31 terms >= 0 in two orders
# differ by < 2^-20; it also absorbs the few ulps per term of the floor's reordered
# product m / d^s |df|^s
SLACK = 2.0**-16


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


def _first_neighbours(space, s, at):
    """(x, y, w): the vertices x of the index array `at` that have a
    neighbour, the first neighbour y of each in space.adjacency, and
    m(x) / d(x, y)^s."""
    ptr = space.adjacency.indptr
    x = at[ptr[at] < ptr[at + 1]]
    return x, space.adjacency.indices[ptr[x]], space.measure[x] / space.adjacency.data[ptr[x]] ** s


def _energy_floor(space, s, at=None, terms=None):
    """f -> a lower bound on the float slope energy sum m lip(f)^s over `at`
    (all vertices when None): it adds m(x) / d(x, y)^s |f(x) - f(y)|^s, y the
    first neighbour of x in space.adjacency, one of the quotients that
    lip(f)(x) maximizes.  `terms`, when given, are _first_neighbours at `at`."""
    x, y, w = terms or _first_neighbours(space, s, np.arange(space.n) if at is None else np.asarray(at))
    every = at is None and len(x) == space.n  # x is 0..n-1
    return lambda f: float(np.abs((f if every else f.take(x)) - f.take(y)) ** s @ w) * (1.0 - SLACK)


def _slope_ratio(space, num, s, at=None, scale=1.0, terms=None):
    """f -> num(f) / (scale ||lip f||_{L^s(at)}), the norm over every vertex
    when `at` is None and in the base measure; 0.0 when the denominator is
    not positive.  f is read where num reads it, at `at` and at the
    neighbours of `at`; `terms` are passed to _energy_floor.

    This is the sweep's one skip rule: given a `best`, as _verdict passes
    it, the ratio returns 0.0 when num(f) over the energy floor shows that
    it cannot exceed best.  It returns 0.0 rather than the bound, which a
    caller that rescales the ratio could round above its best.
    """
    m = space.measure if at is None else space.measure[at]
    floor = slope = None  # each built when first needed

    def ratio(f, best=None):
        nonlocal floor, slope
        f = np.asarray(f, dtype=float)
        if best is not None:
            floor = floor or _energy_floor(space, s, at, terms)
            den = scale * floor(f) ** (1.0 / s)
            if (num(f) / den if den > 0 else math.inf) <= best:
                return 0.0
        slope = slope or _slope_on(space, at)
        den = scale * float((slope(f) ** s * m).sum()) ** (1.0 / s)
        return num(f) / den if den > 0 else 0.0

    return ratio


def _verdict(name, space, s, t, kappa, family, ratio, constant, tol, flags, t0):
    """Report of a check begun at perf_counter() = t0: the largest ratio(f)
    over the (id, f) pairs of the family, witnessed by its id (0 and "" when
    no ratio is positive), judged against the Constant constant(Q, C_P)
    within relative tolerance `tol`.  Q and C_P come from one _Profile pass
    over the space, whose rows a Family's tents and indicators read too.

    `ratio(f, best=b)` may return any value <= b once a bound shows the
    ratio is <= b: a ratio counts only when strictly above the best, so
    this is exact.  NaN or inf never skips.

    A non-finite constant certifies nothing, so the check fails and is
    flagged `constant_nonfinite`; a check flagged `covering_axiom_failed`
    fails too.
    """
    profile = _Profile(space, s)
    rows = iter(profile)
    best, witness = 0.0, ""
    for fid, f in family.members(rows) if isinstance(family, Family) else family:
        r = ratio(f, best=best)
        if r > best:
            best, witness = r, fid
    for _ in rows:  # the rows that no member read
        pass
    const = constant(*profile.fits)
    finite = math.isfinite(const.value)
    if not finite:
        flags.append("constant_nonfinite")
    passed = finite and "covering_axiom_failed" not in flags and best <= const.value * (1 + tol)
    # the fields in the order of the CSV columns
    return InequalityReport(
        name, s, t, kappa, const.Q1, const.Q2, const.C1, const.C2, best, const.value,
        witness, passed, ";".join(flags), time.perf_counter() - t0,
    )


def _oscillation_ratio(space, A, E, R, s, t, terms=None):
    """f -> ||f - f_A||_{L^t(A)} / (R m(A)^(1/t - 1/s) ||lip f||_{L^s(E)}),
    a _slope_ratio: the mean f_A and both norms use the base measure, and f
    is read only at A, E and the neighbours of E."""
    mA = space.measure[A]
    mass = float(mA.sum())

    def num(f):
        fA = float((f[A] * mA).sum() / mass)
        return float((np.abs(f[A] - fA) ** t * mA).sum()) ** (1.0 / t)

    return _slope_ratio(space, num, s, E, R * mass ** (1.0 / t - 1.0 / s), terms)


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
    smoothed ball indicators take a fifth each.

    The k-th tent and the k-th indicator sit at the (k mod count)-th center
    of profile_rows, with a width and a radius that `seed` draws from the
    profile radii, so that each reads its center's row no farther than the
    profile does.  Each pass reruns the generators from `seed`, so a sweep
    holds one test function at a time and every pass yields the same
    (id, values) pairs.
    """

    space: FiniteMetricMeasureSpace
    o: int
    seed: int
    count: int = 200

    def __len__(self):
        return 5 * max(1, self.count // 5)

    def __iter__(self):
        return self.members(profile_rows(self.space))

    def members(self, rows):
        """The (id, values) pairs, the tents and indicators read from `rows`,
        the (x, row) pairs of profile_rows(space) or a pass over the same."""
        space = self.space
        rng = np.random.default_rng(self.seed)
        d = space.dist_from(self.o)
        diam = max(space.diameter(), space.resolution)
        per = len(self) // 5

        for beta in np.linspace(0.25, 2.5, 2 * per):
            yield f"radial_power[{beta:.4f}]", d**beta

        dyadic = [space.resolution * 2**j for j in range(int(math.log2(diam / space.resolution)) + 1)]
        for _ in range(per):
            if len(dyadic) < 2:
                r, R = space.resolution, 2 * space.resolution
            else:
                i = int(rng.integers(len(dyadic) - 1))
                j = int(rng.integers(i + 1, len(dyadic)))
                r, R = dyadic[i], dyadic[j]
            yield f"annulus_cutoff[{r:.4f},{R:.4f}]", np.clip((R - d) / (R - r), 0.0, 1.0)

        count, radii, _ = default_profile_samples(space)
        # the doubled radius too: 2 max(radii) is still within the row limit
        widths = [*radii, 2 * radii[-1]]
        for i, (c, dc) in zip(range(per), rows):
            for _ in range(i, per, count):
                w = float(rng.choice(widths))
                yield f"tent[{c},{w:.4f}]", np.maximum(0.0, 1.0 - dc / w)
                r, width = (float(v) for v in rng.choice(radii, 2))
                vals = np.clip((r + width - dc) / width, 0.0, 1.0)
                yield f"indicator_smooth[{c},{r:.4f},{width:.4f}]", vals


# -- measured profile helpers ---------------------------------------------


def measure_poincare(space, s):
    """Empirical weak (s, s) Poincare constant, lam = 2, over every j-th
    profile center, j = max(1, count // 16): 16 to 31 centers once n >= 16
    (17 on the gallery's benchmark spaces), all n below.

    Maximizes the mean-oscillation to gradient-average ratio over a small
    canonical family; floored at 1.0 so downstream constants stay
    conservative.
    """
    return _Profile(space, s).run().fits[1]


class _Profile:
    """One pass over profile_rows(space) that fits Q and C_P as every check
    reads them.  Iterating it yields each center's (x, row) once the row has
    fed the center's doubling masses and, at every j-th center (as in
    measure_poincare), its Poincare balls; when the rows run out, `fits` is
    (doubling_profile(space).Q, measure_poincare(space, s)) bit for bit, and
    `poincare` the unfloored C_P."""

    def __init__(self, space, s):
        self.space, self.s = space, s

    def __iter__(self):
        space = self.space
        count, radii, _ = default_profile_samples(space)
        # every vertex has a first neighbour once a ball holds two vertices
        first = _first_neighbours(space, self.s, np.arange(space.n))[1:]
        masses, best = [], 0.0
        for i, (x, d) in enumerate(profile_rows(space)):
            masses.append(_row_masses(space, d, radii + [2 * radii[-1]]))
            if i % max(1, count // 16) == 0:
                best = _poincare_balls(space, self.s, d, radii, best, first)
            yield x, d
        self.poincare = best
        self.fits = (_doubling(np.array(masses)).Q, max(best, 1.0))

    def run(self):
        for _ in self:
            pass
        return self


def _poincare_balls(space, s, dx, radii, best, first):
    """The larger of `best` and the ratios on the balls B = B_r(x), r in
    radii, read from the row dx of x: the oscillation ratio on (B, 2B) times
    (m(2B)/m(B))^(1/s), which turns both norms into averages, swept over
    the row d(x, .), the tent 1 - d(x, .)/r and, when the space has
    coordinates, their sum x + y.  As in _verdict, a candidate is finished
    only when its bound can beat the best so far, and only a larger ratio
    counts, so NaN never does.  The energy floor of each 2B gathers its
    terms from `first`, the (y, w) of _first_neighbours at every vertex."""
    coord_sum = [] if space.coords is None else [space.coords[:, 0] + space.coords[:, 1]]
    y, w = first
    for r in radii:
        B = np.flatnonzero(dx < r)
        if len(B) < 2:
            continue
        B2 = np.flatnonzero(dx < 2.0 * r)
        scale = float(space.measure[B2].sum() / space.measure[B].sum()) ** (1.0 / s)
        osc = _oscillation_ratio(space, B, B2, r, s, s, (B2, y[B2], w[B2]))
        for f in [dx, np.maximum(0.0, 1.0 - dx / r), *coord_sum]:
            ratio = scale * osc(f, best=best / scale)
            if ratio > best:
                best = ratio
    return best


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

    ratio = _oscillation_ratio(space, B, B, R, s, t)
    tol = REL_TOL + 3.0 * space.resolution / R
    return _verdict("local-sobolev", space, s, t, 0.0, family, ratio, constant, tol, flags, t0)


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
    ratio = _oscillation_ratio(space, A, fat, R, s, t)
    flags = []

    def constant(Q, C_P):
        return annulus_constant(Q, C_P, alpha, delta, s, t, flavor, flags)

    tol = REL_TOL + 3.0 * space.resolution / R
    return _verdict(f"annulus-{flavor}", space, s, t, 0.0, family, ratio, constant, tol, flags, t0)


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

    ratio = _slope_ratio(space, lambda f: float((np.abs(f) ** t * mu).sum()) ** (1.0 / t), s)
    return _verdict(name, space, s, t, kappa, family, ratio, constant, REL_TOL, flags, t0)


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
    parameters.
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
