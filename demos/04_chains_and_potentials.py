"""Ball chains, Riesz-type potentials, and the representation estimate.

A chain of balls connects the center of B = B_R(a) to any x in B with
radii decaying geometrically at ratio c = (2 lam - 1)/(2 lam); points deep
inside the ball (d < R/2) first extend the chain backward with growing
radii.  Averaging an upper gradient g over the chain gives the potential
J g(x) which dominates |f(x) - mean_B f| up to the constant C1.
"""

import numpy as np

from pilab.gallery import path_space
from pilab.riesz import ball_chain, representation_check, riesz_potential
from pilab.verify import Profile, lip


def main():
    # the line [-1, 1] at step 0.001, ball of radius 1 about 0
    sp = path_space(2001, step=0.001, x0=-1.0)
    a = 1000

    for target in (0.6, 0.2):
        x = int(round((target + 1.0) / 0.001))
        ch = ball_chain(sp, a, 1.0, x, 1.0)
        print(f"x = {target}: case {ch.case}, i_o = {ch.i_o}, "
              f"{len(ch.indices)} balls, sum of radii = {ch.sum_radii:.3f}")
        shown = [f"({sp.coords[ch.centers[i]][0]:+.3f}, r={ch.radii[i]:.3f})" for i in ch.indices[:5]]
        print("  first balls:", " ".join(shown))

    x = int(round((0.6 + 1.0) / 0.001))
    J = riesz_potential(sp, a, 1.0, 1.0, 1.0, np.ones(sp.n), x)
    print(f"\nJ(h=1) at x=0.6: {J:.3f} (sum of radii plus R)")

    f = np.abs(sp.coords[:, 0])
    g = lip(sp, f)
    Q, C_P = Profile(sp, 1.0).fits
    sample = [800, 900, 1100, 1300, 1600]
    res = representation_check(sp, a, 1.0, 1.0, 1.0, f, g, sample, C_P=C_P, Q=Q)
    print(f"representation check for f = |x|: max ratio {res.max_ratio:.3f} "
          f"<= C1 = {res.C1:.1f} -> {'ok' if res.passed else 'VIOLATED'}")


if __name__ == "__main__":
    main()
