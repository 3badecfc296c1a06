"""Decompose a space into connected annulus pieces and validate the covering.

The kappa-decomposition splits the space into connected components of the
annuli A(o, kappa^(i-1), kappa^i); thin components are merged into an
adjacent lower-level piece.  Fattening each piece through the piece graph
produces the nested sets U within U* within U#, one row per piece of three
membership matrices, whose overlap (Q1) and measure-comparison (Q2)
constants drive the global patching step.
"""

import collections

from pilab.constants import layer_bound, theoretical_Q1, theoretical_Q2
from pilab.covering import expand_covering, kappa_decomposition, validate_covering
from pilab.gallery import grid_quadrant
from pilab.verify import doubling_profile


def main():
    sp = grid_quadrant(48)
    o, kappa = 0, 2.0
    decomp = kappa_decomposition(sp, o, kappa)
    covering = expand_covering(sp, decomp)

    levels = covering.levels.tolist()
    per_level = collections.Counter(levels)
    piece_sizes = covering.U.getnnz(axis=1).tolist()
    print(f"grid_quadrant(48), o = corner, kappa = {kappa}")
    print(f"  {covering.n_pieces} pieces over levels {sorted(per_level)}")
    for lv in sorted(per_level):
        sizes = [k for k, l in zip(piece_sizes, levels) if l == lv]
        print(f"  level {lv:2d}: {per_level[lv]} piece(s), sizes {sizes}")

    val = validate_covering(covering, sp)
    Q = doubling_profile(sp).Q
    print(f"\n  empirical Q1 = {val.Q1_emp} (surrogate bound {theoretical_Q1(Q, kappa):.0f})")
    print(f"  empirical Q2 = {val.Q2_emp:.2f} (bound {theoretical_Q2(Q, kappa, 0.0, 0.0):.0f})")
    print(f"  pieces per level bound: {layer_bound(Q, kappa):.0f}")
    for axiom, ok in val.axioms_pass.items():
        print(f"  {axiom}: {'ok' if ok else 'VIOLATED'}")


if __name__ == "__main__":
    main()
