"""Radial weight densities used by the weighted inequalities.

The densities are evaluated per vertex from the distance to a base point o.
The mixed weight couples ball mass and distance; o itself is excluded from
its support (the continuum density is singular there).
"""

from __future__ import annotations

import numpy as np


def weight_density(space, o, kind, s=2.0, t=2.0, Q=2.0):
    """Per-vertex density w for the measure mu = w * m.

    kind="mu_st": m(B_{d(o,x)}(o))^(t/s - 1) * d(o,x)^(-t), zero at o.
    kind="mu_s": d(o,x)^(-s), zero at o.
    kind="ahlfors": d(o,x)^e with e = Q*(t/s - 1) - t, the exponent the
        mixed weight reduces to on an Ahlfors Q-regular space, zero at o.
    """
    d = space.dist_from(o)
    w = np.zeros(space.n)
    pos = d > 0
    if kind == "mu_st":
        # m(B_r(o)) for every r = d(o, x) in one sorted prefix-sum pass
        order = np.argsort(d, kind="stable")
        csum = np.cumsum(space.measure[order])
        below = np.searchsorted(d[order], d[pos], side="left")
        bm = np.where(below > 0, csum[np.maximum(below - 1, 0)], 0.0)
        w[pos] = bm ** (t / s - 1.0) * d[pos] ** (-t)
    elif kind == "mu_s":
        w[pos] = d[pos] ** (-s)
    elif kind == "ahlfors":
        w[pos] = d[pos] ** (Q * (t / s - 1.0) - t)
    else:
        raise ValueError(f"unknown weight kind {kind!r}")
    return w
