"""Chains of balls, discrete Riesz-type potentials, and the pointwise
representation estimate.

A chain connects the center a of a ball B = B_R(a) to a point x through
balls whose radii decay geometrically with ratio c = (2 lam - 1) / (2 lam).
Averaging an upper gradient over the chain bounds |f(x) - mean_B f|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import _chain_C1, c_lambda
from .errors import GNotUpperGradient, SphereEmpty, XEqualsCenter, XOutsideBall

MAX_CHAIN_STEPS = 10_000


@dataclass
class BallChain:
    a: int
    x: int
    R: float
    lam: float
    case: str  # "A" if d(a, x) >= R/2 else "B"
    i_o: int
    indices: list
    centers: dict
    radii: dict
    terminal: int
    resolution: float

    @property
    def c_lambda(self):
        return c_lambda(self.lam)

    @property
    def sum_radii(self):
        return sum(self.radii[i] for i in self.indices)


def _fuzzy_sphere(space, center, r):
    d = space.dist_from(center)
    cand = np.flatnonzero(np.abs(d - r) <= space.resolution)
    if len(cand) == 0:
        raise SphereEmpty(f"no vertex near distance {r} from {center}")
    return cand


def ball_chain(space, a, R, x, lam):
    """Chain of balls from a toward x inside B_R(a).

    Forward steps pick the candidate on the fuzzy sphere of the current
    ball nearest to x and shrink the radius to d(., x) / (2 lam); the walk
    stops once the radius drops below the resolution, recording that final
    vertex as the terminal.  When x is deep inside the ball (d < R/2) the
    chain is first extended backward with radii growing by 1/c while the
    lam-dilated balls stay inside B.
    """
    d_ax = space.dist(a, x)
    res = space.resolution
    if d_ax == 0:
        raise XEqualsCenter(f"x={x} equals center")
    if d_ax >= R:
        raise XOutsideBall(f"d(a, x)={d_ax} >= R={R}")
    c = c_lambda(lam)
    dist_to_x = space.dist_from(x)

    centers = {0: int(a)}
    radii = {0: d_ax / (2.0 * lam)}
    i = 0
    while radii[i] >= res and i < MAX_CHAIN_STEPS:
        cand = _fuzzy_sphere(space, centers[i], radii[i])
        dx = dist_to_x[cand]
        nxt = int(cand[np.lexsort((cand, dx))[0]])
        r_next = dist_to_x[nxt] / (2.0 * lam)
        centers[i + 1] = nxt
        radii[i + 1] = r_next
        i += 1
        if nxt == x or r_next < res:
            break
    terminal = centers[i]
    forward_top = i

    case = "A" if d_ax >= R / 2.0 else "B"
    i_o = 0
    if case == "B":
        # containment lam*B_{i-1} inside B is certified by the triangle
        # inequality; the vertex-set test alone holds vacuously when the
        # dilated ball runs past the edge of the space
        tol = 1e-9 * max(R, 1.0)
        dist_a = space.dist_from(a)
        j = 0
        while j > -MAX_CHAIN_STEPS:
            r_prev = radii[j] / c
            try:
                cand = _fuzzy_sphere(space, centers[j], radii[j])
            except SphereEmpty:
                break
            prev = int(cand[np.lexsort((cand, -dist_to_x[cand]))[0]])
            if dist_a[prev] + lam * r_prev >= R - tol:
                break
            j -= 1
            centers[j] = prev
            radii[j] = r_prev
        i_o = j

    indices = [i for i in range(i_o, forward_top + 1) if radii[i] >= res]
    if not indices:
        indices = [0]
    return BallChain(
        a=int(a),
        x=int(x),
        R=float(R),
        lam=float(lam),
        case=case,
        i_o=i_o,
        indices=indices,
        centers=centers,
        radii=radii,
        terminal=terminal,
        resolution=res,
    )


def _s_mean(space, members, h_abs_s, s):
    m = space.measure[members]
    return float((h_abs_s[members] * m).sum() / m.sum()) ** (1.0 / s)


def riesz_potential(space, a, R, lam, s, h, x, chain=None):
    """J(x) = sum_i r_i (avg_{B_i} |h|^s)^(1/s) + R (avg_B |h|^s)^(1/s)."""
    if chain is None:
        chain = ball_chain(space, a, R, x, lam)
    h_abs_s = np.abs(np.asarray(h, dtype=float)) ** s
    total = 0.0
    for i in chain.indices:
        ball = space.ball(chain.centers[i], chain.radii[i])
        if len(ball) == 0:
            ball = np.array([chain.centers[i]], dtype=np.int64)
        total += chain.radii[i] * _s_mean(space, ball, h_abs_s, s)
    big = space.ball(a, R)
    total += R * _s_mean(space, big, h_abs_s, s)
    return total


def maximal_function(space, h, s, x):
    """Centered s-maximal function sup_r (avg_{B_r(x)} |h|^s)^(1/s).

    Balls are nested prefixes of the distance ordering, so a single sorted
    prefix-sum pass covers every radius.
    """
    h_abs_s = np.abs(np.asarray(h, dtype=float)) ** s
    d = space.dist_from(x)
    order = np.argsort(d, kind="stable")
    ds = d[order]
    m = space.measure[order]
    num = np.cumsum(h_abs_s[order] * m)
    den = np.cumsum(m)
    ends = np.flatnonzero(np.r_[ds[1:] > ds[:-1], True])
    return float(np.max((num[ends] / den[ends]) ** (1.0 / s)))


@dataclass
class RepresentationResult:
    max_ratio: float
    C1: float
    worst_x: int
    passed: bool


def representation_check(space, a, R, lam, s, f, g, sample, C_P, Q, tol=1e-9):
    """Check |f(x) - mean_B f| <= C1 * J_g(x) over sampled x in B.

    g must dominate the local slope of f on the dilated ball (upper
    gradient surrogate); C1 is the chain constant built from the measured
    Q and C_P.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    big = space.ball(a, lam * R)
    in_big = np.zeros(space.n, dtype=bool)
    in_big[big] = True
    eu, ev = space.edges[:, 0], space.edges[:, 1]
    touch = in_big[eu] | in_big[ev]
    slope = np.abs(f[eu] - f[ev]) / space.lengths
    bad = touch & (g[eu] + tol < slope) & (g[ev] + tol < slope)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise GNotUpperGradient(f"edge ({eu[k]}, {ev[k]})")
    B = space.ball(a, R)
    mB = space.measure[B]
    f_B = float((f[B] * mB).sum() / mB.sum())
    C1 = _chain_C1(Q, C_P, lam)
    worst, worst_x = 0.0, int(a)
    for x in sample:
        x = int(x)
        if x == a or space.dist(a, x) >= R:
            continue
        J = riesz_potential(space, a, R, lam, s, g, x)
        if J <= 0:
            continue
        ratio = abs(f[x] - f_B) / J
        if ratio > worst:
            worst, worst_x = ratio, x
    # an overflowed C1 certifies nothing
    return RepresentationResult(worst, C1, worst_x, math.isfinite(C1) and worst <= C1)

