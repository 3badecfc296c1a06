"""Discrete inequalities on the covering graph.

Collapsing each covering piece to a weighted graph vertex reduces the
global step of the patching argument to finite graph theory: the
isoperimetric constant I equals the reciprocal of the best discrete
1-Poincare constant, and that constant self-improves to any exponent tau
at the price of 2*tau*(A*B)^(1-1/tau).  The best tau-constant printed
beside that bound comes from the generalized eigenvalue at tau = 2 and, at
tau = 3, from one descent per interior component of the tau-quotient, which
is convex in f^tau.
"""

from pilab.constants import upgrade_constant
from pilab.covering import expand_covering, kappa_decomposition
from pilab.gallery import grid_quadrant
from pilab.graph_ineq import (
    build_covering_graph,
    graph_profile,
    isoperimetric_constant,
    poincare_constant,
)


def main():
    sp = grid_quadrant(48)
    covering = expand_covering(sp, kappa_decomposition(sp, 0, 2.0))
    graph = build_covering_graph(sp, covering)
    print(f"covering graph: {graph.n} pieces, {len(graph.edges)} edges, "
          f"{int(graph.boundary.sum())} boundary piece(s)")

    iso = isoperimetric_constant(graph)
    print(f"  isoperimetric constant I = {iso.I:.4f} (witness {sorted(iso.witness)})")

    C1 = poincare_constant(graph, 1.0)
    print(f"  best 1-Poincare constant = {C1:.4f}  (1/I = {1.0 / iso.I:.4f})")

    gp = graph_profile(graph)
    for tau in (2.0, 3.0):
        best = poincare_constant(graph, tau)
        bound = upgrade_constant(C1, gp.A, gp.B, tau)
        print(f"  tau = {tau}: best constant {best:.4f} <= upgraded bound {bound:.4f}")


if __name__ == "__main__":
    main()
