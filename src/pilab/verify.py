"""Inequality verification: energies, test families, checks, and reports.

Each headline check sweeps a deterministic family of test functions,
records the worst ratio of the two sides, assembles the matching
theoretical constant from measured profile data, and reports both.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, asdict

import numpy as np
from scipy.optimize import minimize_scalar

from .constants import (
    annulus_constant,
    local_sobolev_constant,
    patching_constant,
    upgrade_constant,
)
from .covering import expand_covering, kappa_decomposition, validate_covering
from .errors import EmptyPiece, NotConnected, NotInAnnulus, ZeroMass
from .gallery import space_document
from .graph_ineq import build_covering_graph, graph_profile, isoperimetric_constant
from .space import (
    default_profile_samples,
    default_radial_samples,
    doubling_profile,
    rows_by_center,
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


def lip(space, f, edges=slice(None)):
    """Per-vertex local slope: max |df|/length over incident edges.

    `edges` indexes the edges read: f is read only at their ends, and the
    slope is exact where all incident edges are kept.
    """
    f = np.asarray(f, dtype=float)
    out = np.zeros(space.n)
    e, lengths = space.edges[edges], space.lengths[edges]
    if len(e):
        slopes = np.abs(f[e[:, 0]] - f[e[:, 1]]) / lengths
        np.maximum.at(out, e[:, 0], slopes)
        np.maximum.at(out, e[:, 1], slopes)
    return out


def cheeger_energy(space, f, s):
    return float((lip(space, f) ** s * space.measure).sum())


def _passes(best, theoretical, tol, flags):
    """Verdict of a check: a non-finite constant certifies nothing, so it
    fails and is flagged `constant_nonfinite`."""
    if not math.isfinite(theoretical):
        flags.append("constant_nonfinite")
        return False
    return best <= theoretical * (1 + tol)


def mean_comparison_check(space, f, A, weight, p):
    """||f - f_A||_p^p over A is within 2^p of the best-constant version."""
    f = np.asarray(f, dtype=float)
    A = np.asarray(A, dtype=np.int64)
    mu = (np.ones(space.n) if weight is None else np.asarray(weight)) * space.measure
    mass = float(mu[A].sum())
    if mass <= 0:
        raise ZeroMass("weighted mass of A is zero")
    fa, wa = f[A], mu[A]
    mean = float((fa * wa).sum() / mass)
    lhs = float((np.abs(fa - mean) ** p * wa).sum())

    def cost(c):
        return float((np.abs(fa - c) ** p * wa).sum())

    if p == 2:
        inf = cost(mean)
    elif p == 1:
        order = np.argsort(fa, kind="stable")
        cum = np.cumsum(wa[order])
        median = fa[order][int(np.searchsorted(cum, mass / 2.0))]
        inf = cost(float(median))
    else:
        res = minimize_scalar(cost, bounds=(float(fa.min()), float(fa.max())), method="bounded")
        inf = min(float(res.fun), cost(mean))
    rhs = 2.0**p * inf
    return lhs, rhs, lhs <= rhs * (1 + 1e-9)


def _sweep(family, ratio):
    """Largest ratio(f) over the (name, f) pairs of a family, with its name.

    Returns (0.0, "") when no ratio is positive.
    """
    best, witness = 0.0, ""
    for name, vals in family:
        r = ratio(np.asarray(vals, dtype=float))
        if r > best:
            best, witness = r, name
    return best, witness


def _oscillation_ratio(space, A, E, R, s, t):
    """f -> ||f - f_A||_{L^t(A)} / (R m(A)^(1/t - 1/s) ||lip f||_{L^s(E)}).

    The mean f_A and both norms use the base measure; the ratio is 0 when
    the slope energy on E vanishes.
    """
    mA, mE = space.measure[A], space.measure[E]
    mass = float(mA.sum())

    def ratio(f):
        fA = float((f[A] * mA).sum() / mass)
        num = float((np.abs(f[A] - fA) ** t * mA).sum()) ** (1.0 / t)
        energy = float((lip(space, f)[E] ** s * mE).sum())
        den = R * mass ** (1.0 / t - 1.0 / s) * energy ** (1.0 / s)
        return num / den if den > 0 else 0.0

    return ratio


# -- test-function families ------------------------------------------------


def make_family(space, o, seed, count=200):
    """Deterministic family of (id, values) test functions.

    Five generators in equal shares: radial powers d(o,.)^beta near the
    critical exponents, tents, annulus cutoffs at dyadic radii, random
    Lipschitz functions (noise followed by iterated edge-slope projection),
    and smoothed ball indicators.
    """
    rng = np.random.default_rng(seed)
    d = space.dist_from(o)
    diam = max(space.diameter(), space.resolution)
    per = max(1, count // 5)
    family = []

    for beta in np.linspace(0.25, 2.5, per):
        family.append((f"radial_power[{beta:.4f}]", d**beta))

    for _ in range(per):
        c = int(rng.integers(space.n))
        width = float(rng.uniform(2 * space.resolution, max(diam / 2, 4 * space.resolution)))
        dc = space.dist_from(c, limit=width)
        family.append((f"tent[{c},{width:.4f}]", np.maximum(0.0, 1.0 - dc / width)))

    dyadic = [space.resolution * 2**j for j in range(int(math.log2(diam / space.resolution)) + 1)]
    for _ in range(per):
        if len(dyadic) < 2:
            i, j = 0, 0
            r, R = space.resolution, 2 * space.resolution
        else:
            i = int(rng.integers(len(dyadic) - 1))
            j = int(rng.integers(i + 1, len(dyadic)))
            r, R = dyadic[i], dyadic[j]
        vals = np.clip((R - d) / (R - r), 0.0, 1.0)
        family.append((f"annulus_cutoff[{r:.4f},{R:.4f}]", vals))

    for k in range(per):
        L = float(rng.uniform(0.1, 2.0))
        vals = rng.uniform(0.0, L * diam / 8.0, space.n)
        # iterated projection onto the L-Lipschitz edge constraints
        e0, e1 = space.edges[:, 0], space.edges[:, 1]
        caps = L * space.lengths
        for _ in range(10):
            np.minimum.at(vals, e0, vals[e1] + caps)
            np.minimum.at(vals, e1, vals[e0] + caps)
        family.append((f"random_lipschitz[{k},{L:.4f}]", vals))

    for _ in range(per):
        c = int(rng.integers(space.n))
        r = float(rng.uniform(space.resolution, max(diam / 2, 2 * space.resolution)))
        width = float(rng.uniform(space.resolution, max(diam / 4, 2 * space.resolution)))
        dc = space.dist_from(c, limit=r + width)
        vals = np.clip((r + width - dc) / width, 0.0, 1.0)
        family.append((f"indicator_smooth[{c},{r:.4f},{width:.4f}]", vals))

    return family


# -- measured profile helpers ---------------------------------------------


def measure_poincare(space, s, lam=2.0):
    """Empirical weak (s, s) Poincare constant over 16 sampled centers.

    Maximizes the mean-oscillation to gradient-average ratio over a small
    canonical family; floored at 1.0 so downstream constants stay
    conservative.
    """
    return max(_sampled_poincare(space, s, lam), 1.0)


def _sampled_poincare(space, s, lam):
    """The unfloored maximum of measure_poincare.

    Each center's row is read to lam * r plus the longest edge, which
    covers every edge touching lamB, and the slope is taken on those edges
    only.
    """
    best = 0.0
    e0, e1 = space.edges[:, 0], space.edges[:, 1]
    longest = float(space.lengths.max()) if len(space.lengths) else 0.0
    samples = default_profile_samples(space, max_centers=16)
    for dx, picks in rows_by_center(space, samples, lambda r: lam * r + longest):
        for _, r in picks:
            B = np.flatnonzero(dx < r)
            if len(B) < 2:
                continue
            in_lam = dx < lam * r
            lamB = np.flatnonzero(in_lam)
            touching = np.flatnonzero(in_lam[e0] | in_lam[e1])
            mB, mlamB = space.measure[B], space.measure[lamB]

            def ratio(f):
                g = lip(space, f, touching)
                fB = float((f[B] * mB).sum() / mB.sum())
                num = float((np.abs(f[B] - fB) ** s * mB).sum() / mB.sum()) ** (1.0 / s)
                den = r * float((g[lamB] ** s * mlamB).sum() / mlamB.sum()) ** (1.0 / s)
                return num / den if den > 0 else 0.0

            cands = [dx, np.maximum(0.0, 1.0 - dx / r)]
            if space.coords is not None:
                cands.append(space.coords[:, 0] + space.coords[:, 1])
            best = max(best, _sweep(enumerate(cands), ratio)[0])
    return best


def eta_fit(space, o):
    """Least-squares volume-growth exponent at o."""
    radii = [r for r in default_radial_samples(space, o) if space.ball_mass(o, r) > 0]
    if len(set(radii)) < 2:
        return 0.0
    logs = np.log(radii)
    masses = np.log([space.ball_mass(o, r) for r in radii])
    return float(np.polyfit(logs, masses, 1)[0])


# -- local inequality checks ----------------------------------------------


def local_sobolev_check(space, a, R, s, t, family, lam=2.0):
    """Local (s, t) Sobolev inequality on the ball B_R(a)."""
    t0 = time.perf_counter()
    B = space.ball(a, R)
    flags = []
    best, witness = _sweep(family, _oscillation_ratio(space, B, B, R, s, t))

    prof = doubling_profile(space)
    C_P = measure_poincare(space, s, lam)
    C_s = local_sobolev_constant(prof.Q, C_P, lam, s, flags)
    tol = REL_TOL + 3.0 * space.resolution / R
    passed = _passes(best, C_s, tol, flags)
    return InequalityReport(
        inequality="local-sobolev",
        s=s,
        t=t,
        kappa=0.0,
        Q1=0.0,
        Q2=0.0,
        C1=C_P,
        C2=C_s,
        empirical_best=best,
        theoretical=C_s,
        witness=witness,
        passed=passed,
        hypotheses_violated=";".join(flags),
        seconds=time.perf_counter() - t0,
    )


def annulus_piece_check(space, o, R, alpha, delta, A, s, t, family, flavor="poincare"):
    """Sobolev/Poincare inequality on a connected annulus piece A.

    The right side integrates the slope over the delta*R fattening of A;
    the theoretical constant patches per-ball estimates through the net
    covering of A with the counting Neumann constant of the net graph.
    """
    t0 = time.perf_counter()
    A = np.asarray(sorted(set(int(v) for v in A)), dtype=np.int64)
    d = space.dist_from(o)[A]
    if len(A) == 0 or d.min() < R - 1e-9 or d.max() >= alpha * R:
        raise NotInAnnulus("A is not inside [R, alpha R)")
    if len(A) < 2:
        raise EmptyPiece("A is a single vertex, on which every oscillation is zero")
    ncomp, _ = space.induced_components(A)
    if ncomp != 1:
        raise NotConnected(f"A has {ncomp} components")

    rho = delta * R
    fat = np.flatnonzero(space.dist_to_set(A, limit=rho) < rho)
    best, witness = _sweep(family, _oscillation_ratio(space, A, fat, R, s, t))

    prof = doubling_profile(space)
    Q = max(prof.Q, 1.0)
    C_P = measure_poincare(space, s)
    flags = []
    ann = annulus_constant(Q, C_P, alpha, delta, s, t, flavor, flags)
    tol = REL_TOL + 3.0 * space.resolution / R
    passed = _passes(best, ann.value, tol, flags)
    return InequalityReport(
        inequality=f"annulus-{flavor}",
        s=s,
        t=t,
        kappa=0.0,
        Q1=ann.Q1,
        Q2=ann.Q2,
        C1=ann.C_ball,
        C2=ann.C_neu,
        empirical_best=best,
        theoretical=ann.value,
        witness=witness,
        passed=passed,
        hypotheses_violated=";".join(flags),
        seconds=time.perf_counter() - t0,
    )


# -- headline weighted checks ---------------------------------------------


def _weighted_check(
    space, o, s, t, family, kappa, weight, name, local_scale=1.0, global_scale=1.0
):
    """Shared pipeline: decompose, validate, graph constants, sweep.

    `global_scale` multiplies the assembled theoretical constant.
    """
    t0 = time.perf_counter()
    flags = []
    eta = eta_fit(space, o)
    if eta <= s:
        flags.append("eta_not_above_s")
    prof = doubling_profile(space)
    Q = max(prof.Q, 1.0)

    decomp = kappa_decomposition(space, o, kappa)
    covering = expand_covering(space, decomp)
    val = validate_covering(covering, space, weight=weight)
    graph = build_covering_graph(space, covering, weight=weight)
    gp = graph_profile(graph)
    # masses beyond the float range leave the LP nothing to certify
    finite = np.isfinite(graph.vmass).all()
    C_disc = 1.0 / isoperimetric_constant(graph).I if finite else math.inf
    C2 = C_disc if t <= 1 else upgrade_constant(C_disc, gp.A, gp.B, t)
    C_P = measure_poincare(space, s)
    # The annulus pieces are sobolev pieces at delta = 1/2 and alpha =
    # kappa^2; the patching step multiplies their constant by 2 kappa^3.
    ann = annulus_constant(Q, C_P, kappa**2, 0.5, s, t, "sobolev", flags)
    C1 = local_scale * (ann.value * 2.0 * kappa**3)
    theoretical = patching_constant(C1, C2, val.Q1_emp, val.Q2_emp, s, t) ** (1.0 / t)
    theoretical *= global_scale

    mu = weight * space.measure

    def ratio(f):
        en = cheeger_energy(space, f, s)
        if en <= 0:
            return 0.0
        return float((np.abs(f) ** t * mu).sum()) ** (1.0 / t) / en ** (1.0 / s)

    best, witness = _sweep(family, ratio)
    passed = _passes(best, theoretical, REL_TOL, flags)
    return InequalityReport(
        inequality=name,
        s=s,
        t=t,
        kappa=kappa,
        Q1=float(val.Q1_emp),
        Q2=float(val.Q2_emp),
        C1=C1,
        C2=C2,
        empirical_best=best,
        theoretical=theoretical,
        witness=witness,
        passed=passed,
        hypotheses_violated=";".join(flags),
        seconds=time.perf_counter() - t0,
    )


def weighted_sobolev_check(space, o, s, t, family, kappa=2.0):
    """Weighted (s, t) Sobolev inequality with the mixed radial weight."""
    w = weight_density(space, o, "mu_st", s=s, t=t)
    return _weighted_check(space, o, s, t, family, kappa, w, "weighted-sobolev")


def hardy_check(space, o, s, family, kappa=2.0):
    """Hardy inequality with weight d(o, .)^(-s); the local constant
    carries the extra 2^s kappa^(2s) factor of the annulus estimate."""
    w = weight_density(space, o, "mu_s", s=s)
    scale = 2.0**s * kappa ** (2.0 * s)
    return _weighted_check(space, o, s, s, family, kappa, w, "hardy", local_scale=scale)


def ahlfors_sobolev_check(space, o, s, t, family, kappa=2.0, printed_variant=False):
    """Sobolev inequality with the pure power-of-distance weight.

    For t = s the weight collapses to the Hardy weight, so the check
    delegates to hardy_check (constants included).
    """
    from .space import ahlfors_fit

    params = ahlfors_fit(space)
    if t == s and not printed_variant:
        rep = hardy_check(space, o, s, family, kappa=kappa)
        rep.inequality = "ahlfors-sobolev"
        return rep
    w = weight_density(space, o, "ahlfors", s=s, t=t, Q=params.Q, printed_variant=printed_variant)
    return _weighted_check(
        space, o, s, t, family, kappa, w, "ahlfors-sobolev",
        global_scale=params.C_A ** (1.0 / s - 1.0 / t),
    )


# -- report output ---------------------------------------------------------

CSV_COLUMNS = [
    "inequality",
    "s",
    "t",
    "kappa",
    "Q1",
    "Q2",
    "C1",
    "C2",
    "empirical_best",
    "theoretical",
    "witness",
    "pass",
    "hypotheses_violated",
    "seconds",
]


def _row(rep, zero_seconds):
    vals = {
        "inequality": rep.inequality,
        "s": f"{rep.s:.12g}",
        "t": f"{rep.t:.12g}",
        "kappa": f"{rep.kappa:.12g}",
        "Q1": f"{rep.Q1:.12g}",
        "Q2": f"{rep.Q2:.12g}",
        "C1": f"{rep.C1:.12g}",
        "C2": f"{rep.C2:.12g}",
        "empirical_best": f"{rep.empirical_best:.12g}",
        "theoretical": f"{rep.theoretical:.12g}",
        "witness": rep.witness,
        "pass": str(rep.passed),
        "hypotheses_violated": rep.hypotheses_violated,
        "seconds": "0" if zero_seconds else f"{rep.seconds:.6f}",
    }
    return [vals[c] for c in CSV_COLUMNS]


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
    docs = []
    for rep in reports:
        doc = asdict(rep)
        if zero_seconds:
            doc["seconds"] = 0
        docs.append(doc)
    payload = {"provenance": provenance or {}, "reports": docs}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
