"""Inequality verification: energies, test families, checks, and reports.

Each check is a ratio of the two sides of its inequality and a constant:
`_verdict` sweeps the ratio over a deterministic family of test functions
and judges the worst one against the constant that `pilab.constants`
assembles from measured profile data; the report carries both.
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
    _radial_masses,
    ahlfors_fit,
    default_profile_samples,
    doubling_profile,
)
from .weights import weight_density

REL_TOL = 1e-6


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


def lip(space, f, at=None):
    """Local slope max |f(x) - f(y)| / d(x, y) over the neighbours y of x,
    at each vertex x of `at` (all when None) and zero elsewhere; f is read
    only at `at` and its neighbours."""
    f = np.asarray(f, dtype=float)
    tab = space.neighbours
    pos = None if at is None else np.sort(tab.position[at])
    x = tab.order if at is None else tab.order[pos]
    fx = f.take(x)
    slope = np.zeros(len(x))
    for a, b in tab.slots:
        # the vertices x with more than k neighbours are a prefix by position
        j = b - a if at is None else int(np.searchsorted(pos, b - a))
        e = slice(a, b) if at is None else a + pos[:j]
        fy = f.take(tab.nbr[e])  # take(): [] would first copy the int32 nbr to intp
        np.subtract(fx[:j], fy, out=fy)
        np.divide(np.abs(fy, out=fy), tab.length[e], out=fy)
        np.maximum(slope[:j], fy, out=slope[:j])
    out = np.zeros(space.n)
    out[x] = slope
    return out


def cheeger_energy(space, f, s):
    return float((lip(space, f) ** s * space.measure).sum())


def _verdict(name, s, t, kappa, family, ratio, const, tol, flags, t0):
    """Report of a check begun at perf_counter() = t0: the largest ratio(f)
    over the (id, f) pairs of the family, witnessed by its id (0 and "" when
    no ratio is positive), judged against the Constant `const` within
    relative tolerance `tol`.

    A non-finite constant certifies nothing, so the check fails and is
    flagged `constant_nonfinite`; a check flagged `covering_axiom_failed`
    fails too.
    """
    best, witness = 0.0, ""
    for fid, vals in family:
        r = ratio(np.asarray(vals, dtype=float))
        if r > best:
            best, witness = r, fid
    finite = math.isfinite(const.value)
    if not finite:
        flags.append("constant_nonfinite")
    passed = finite and "covering_axiom_failed" not in flags and best <= const.value * (1 + tol)
    # the fields in the order of the CSV columns
    return InequalityReport(
        name, s, t, kappa, const.Q1, const.Q2, const.C1, const.C2, best, const.value,
        witness, passed, ";".join(flags), time.perf_counter() - t0,
    )


def _oscillation_ratio(space, A, E, R, s, t):
    """f -> ||f - f_A||_{L^t(A)} / (R m(A)^(1/t - 1/s) ||lip f||_{L^s(E)}).

    The mean f_A and both norms use the base measure; the ratio is 0 when
    the slope energy on E vanishes.  The slope is read at E only, so f is
    read only at A, E and the neighbours of E.  The ratio takes an optional
    precomputed `slope` of f, read on E only.
    """
    mA, mE = space.measure[A], space.measure[E]
    mass = float(mA.sum())

    def ratio(f, slope=None):
        fA = float((f[A] * mA).sum() / mass)
        num = float((np.abs(f[A] - fA) ** t * mA).sum()) ** (1.0 / t)
        if slope is None:
            slope = lip(space, f, E)
        energy = float((slope[E] ** s * mE).sum())
        den = R * mass ** (1.0 / t - 1.0 / s) * energy ** (1.0 / s)
        return num / den if den > 0 else 0.0

    return ratio


# -- test-function families ------------------------------------------------


def make_family(space, o, seed, count=200):
    """Deterministic family of (id, values) test functions, as a Family.

    The family is lazy and re-iterable; `list(make_family(...))` keeps the
    values.
    """
    return Family(space, o, seed, count)


@dataclass(frozen=True)
class Family:
    """Five generators in equal shares: radial powers d(o,.)^beta near the
    critical exponents, tents, annulus cutoffs at dyadic radii, random
    Lipschitz functions (noise v0 relaxed to its fixed point, the exact
    projection min_w v0(w) + L d(., w)), and smoothed ball indicators.

    Each pass reruns the generators from `seed`, so a sweep holds one test
    function at a time and every pass yields the same (id, values) pairs.
    """

    space: FiniteMetricMeasureSpace
    o: int
    seed: int
    count: int = 200

    def __len__(self):
        return 5 * max(1, self.count // 5)

    def __iter__(self):
        space = self.space
        rng = np.random.default_rng(self.seed)
        d = space.dist_from(self.o)
        diam = max(space.diameter(), space.resolution)
        per = len(self) // 5

        for beta in np.linspace(0.25, 2.5, per):
            yield f"radial_power[{beta:.4f}]", d**beta

        for _ in range(per):
            c = int(rng.integers(space.n))
            width = float(rng.uniform(2 * space.resolution, max(diam / 2, 4 * space.resolution)))
            dc = space.dist_from(c, limit=width)
            yield f"tent[{c},{width:.4f}]", np.maximum(0.0, 1.0 - dc / width)

        dyadic = [space.resolution * 2**j for j in range(int(math.log2(diam / space.resolution)) + 1)]
        for _ in range(per):
            if len(dyadic) < 2:
                r, R = space.resolution, 2 * space.resolution
            else:
                i = int(rng.integers(len(dyadic) - 1))
                j = int(rng.integers(i + 1, len(dyadic)))
                r, R = dyadic[i], dyadic[j]
            yield f"annulus_cutoff[{r:.4f},{R:.4f}]", np.clip((R - d) / (R - r), 0.0, 1.0)

        tab = space.neighbours
        nbr = tab.position[tab.nbr]
        for k in range(per):
            L = float(rng.uniform(0.1, 2.0))
            vals = rng.uniform(0.0, L * diam / 8.0, space.n)
            # v <- min(v, v[nbr] + L len) until a pass changes nothing: any order, same bits
            v, caps, before = vals[tab.order], L * tab.length, None
            while not np.array_equal(v, before):
                before = v.copy()
                for a, b in tab.slots:
                    np.minimum(v[: b - a], v[nbr[a:b]] + caps[a:b], out=v[: b - a])
            vals[tab.order] = v
            yield f"random_lipschitz[{k},{L:.4f}]", vals

        for _ in range(per):
            c = int(rng.integers(space.n))
            r = float(rng.uniform(space.resolution, max(diam / 2, 2 * space.resolution)))
            width = float(rng.uniform(space.resolution, max(diam / 4, 2 * space.resolution)))
            dc = space.dist_from(c, limit=r + width)
            vals = np.clip((r + width - dc) / width, 0.0, 1.0)
            yield f"indicator_smooth[{c},{r:.4f},{width:.4f}]", vals


# -- measured profile helpers ---------------------------------------------


def measure_poincare(space, s):
    """Empirical weak (s, s) Poincare constant, lam = 2, over the centers
    of default_profile_samples(space, 16): every max(1, n // 16)-th vertex,
    which makes 16 to 31 centers for n >= 16 (17 on the gallery's benchmark
    spaces), not 16.

    Maximizes the mean-oscillation to gradient-average ratio over a small
    canonical family; floored at 1.0 so downstream constants stay
    conservative.
    """
    return max(_sampled_poincare(space, s), 1.0)


def _sampled_poincare(space, s):
    """The unfloored maximum of measure_poincare.

    On each ball B = B_r(x) this is the oscillation ratio on (B, 2B) times
    (m(2B)/m(B))^(1/s), which turns both norms into averages.  Each row is
    read to twice the largest radius plus the longest edge, which covers
    every neighbour of 2B.  So the slope of the row, taken once per center
    on the largest 2B, is exact on every 2B; the slope of the coordinate
    sum is taken once.
    """
    best = 0.0
    longest = float(space.lengths.max()) if len(space.lengths) else 0.0
    centers, radii = default_profile_samples(space, max_centers=16)
    fixed = []
    if space.coords is not None:
        coord_sum = space.coords[:, 0] + space.coords[:, 1]
        fixed.append((coord_sum, lip(space, coord_sum)))
    for x in centers:
        dx = space.dist_from(x, limit=2.0 * radii[-1] + longest)
        row = (dx, lip(space, dx, np.flatnonzero(dx < 2.0 * radii[-1])))
        for r in radii:
            B = np.flatnonzero(dx < r)
            if len(B) < 2:
                continue
            B2 = np.flatnonzero(dx < 2.0 * r)
            scale = float(space.measure[B2].sum() / space.measure[B].sum()) ** (1.0 / s)
            osc = _oscillation_ratio(space, B, B2, r, s, s)
            for f, slope in [row, (np.maximum(0.0, 1.0 - dx / r), None), *fixed]:
                # as in _verdict: only a larger ratio counts, so NaN never does
                ratio = scale * osc(f, slope)
                if ratio > best:
                    best = ratio
    return best


def _profile(space, s):
    """(Q, C_P): the raw doubling and Poincare fits, as every check reads them."""
    return doubling_profile(space).Q, measure_poincare(space, s)


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
    Q, C_P = _profile(space, s)
    C_s = local_sobolev_constant(Q, C_P, 2.0, s, flags)
    ratio = _oscillation_ratio(space, B, B, R, s, t)
    tol = REL_TOL + 3.0 * space.resolution / R
    const = Constant(C_P, C_s, 0.0, 0.0, C_s)
    return _verdict("local-sobolev", s, t, 0.0, family, ratio, const, tol, flags, t0)


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
    const = annulus_constant(*_profile(space, s), alpha, delta, s, t, flavor, flags)
    tol = REL_TOL + 3.0 * space.resolution / R
    return _verdict(f"annulus-{flavor}", s, t, 0.0, family, ratio, const, tol, flags, t0)


# -- headline weighted checks ---------------------------------------------


def _weighted_check(space, o, s, t, family, kappa, weight, name, **scale):
    """Shared pipeline: decompose, validate, graph constants, sweep.
    `scale` is the local_scale or global_scale of weighted_constant."""
    t0 = time.perf_counter()
    flags = ["eta_not_above_s"] if eta_fit(space, o) <= s else []
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
    Q, C_P = _profile(space, s)
    const = weighted_constant(
        Q, C_P, kappa, C_disc, gp.A, gp.B, val.Q1_emp, val.Q2_emp, s, t, flags, **scale
    )

    def ratio(f):
        en = cheeger_energy(space, f, s)
        if en <= 0:
            return 0.0
        return float((np.abs(f) ** t * mu).sum()) ** (1.0 / t) / en ** (1.0 / s)

    return _verdict(name, s, t, kappa, family, ratio, const, REL_TOL, flags, t0)


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
