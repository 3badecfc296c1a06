import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from pilab.constants import (
    excess_constant,
    rca_kappa,
    upgrade_constant,
)
from pilab.covering import expand_covering, kappa_decomposition
from pilab.errors import EtaNotAboveP, NoBoundary, ZeroMass
from pilab.gallery import build_space, cone_grid, grid_quadrant, path_space
from pilab.graph_ineq import (
    CoveringGraph,
    build_covering_graph,
    dirichlet_energy,
    dirichlet_incidence,
    graph_profile,
    isoperimetric_constant,
    neumann_check,
    poincare_constant,
    rca_check,
)


def make_graph(n, edges, vmass=None, emass=None, boundary=None):
    vmass = np.ones(n) if vmass is None else np.asarray(vmass, dtype=float)
    emass = np.ones(len(edges)) if emass is None else np.asarray(emass, dtype=float)
    if boundary is None:
        b = np.zeros(n, dtype=bool)
        b[-1] = True
    else:
        b = np.asarray(boundary, dtype=bool)
    return CoveringGraph(n=n, edges=list(edges), vmass=vmass, emass=emass, boundary=b, levels=[0] * n)


def test_isoperimetric_path():
    # path 0-1-2 with vertex 2 as boundary: best set is {0, 1}, cut 1, mass 2
    g = make_graph(3, [(0, 1), (1, 2)])
    res = isoperimetric_constant(g)
    assert res.exact
    assert res.I == pytest.approx(0.5, abs=1e-12)
    assert res.witness == frozenset({0, 1})


def test_poincare_one_is_inverse_iso():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert poincare_constant(g, 1) == pytest.approx(2.0, abs=1e-12)


def test_poincare_two_eigen():
    # interior Dirichlet Laplacian [[2,-1],[-1,2]] wait: vertex 0 has one
    # edge, vertex 1 has two, so L = [[1,-1],[-1,2]]; largest generalized
    # eigenvalue of I vs L is (3+sqrt(5))/2
    g = make_graph(3, [(0, 1), (1, 2)])
    expected = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)
    assert poincare_constant(g, 2) == pytest.approx(expected, rel=1e-10)


def test_poincare_general_t_lower_bound():
    g = make_graph(3, [(0, 1), (1, 2)])
    c3 = poincare_constant(g, 3)
    # indicator of {0, 1}: num = 2^(1/3), den = 1
    assert c3 >= 2 ** (1.0 / 3.0) - 1e-12
    assert c3 <= upgrade_constant(2.0, 2.0, 1.0, 3.0)


def test_no_boundary_raises():
    g = make_graph(3, [(0, 1), (1, 2)], boundary=[False, False, False])
    with pytest.raises(NoBoundary):
        isoperimetric_constant(g)


def test_upgrade_constant_formula():
    assert upgrade_constant(1.0, 1.0, 1.0, 2.0) == 4.0
    assert upgrade_constant(2.0, 4.0, 9.0, 2.0) == pytest.approx(2 * 2 * 2 * 6.0)


def test_isoperimetric_path_30_exact():
    n = 30
    edges = [(i, i + 1) for i in range(n - 1)]
    g = make_graph(n, edges)
    res = isoperimetric_constant(g)
    assert res.exact
    # path with one boundary end: best set is everything, cut 1 / mass 29
    assert res.I == pytest.approx(1.0 / 29.0, rel=1e-12)
    assert res.witness == frozenset(range(29))


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_isoperimetric_independent_of_mass_scale(scale):
    # {0} (cut 0.01, mass 1) beats the whole interior {0, 1} (cut 1, mass 2)
    g = make_graph(3, [(0, 1), (1, 2)], vmass=[scale] * 3, emass=[0.01 * scale, scale])
    res = isoperimetric_constant(g)
    assert res.I == pytest.approx(0.01, rel=1e-12)
    assert res.witness == frozenset({0})


def test_interior_cut_off_from_boundary_raises():
    # vertex 3 has no edge, so its indicator has cut 0 and I = 0
    g = make_graph(5, [(0, 1), (1, 2), (2, 4)])
    with pytest.raises(NoBoundary):
        isoperimetric_constant(g)


def test_neumann_examples():
    # P3, f = (1, 0, -1), s = 2: support mean 0, lhs 2, rhs N(N-1) * 2 = 12
    g = make_graph(3, [(0, 1), (1, 2)])
    res = neumann_check(g, [1.0, 0.0, -1.0], 2)
    assert res.lhs == pytest.approx(2.0)
    assert res.rhs == pytest.approx(12.0)
    assert res.passed
    # K2, f = (1, 0), s = 1: support mean 1, lhs 1, rhs 2
    g2 = make_graph(2, [(0, 1)])
    res2 = neumann_check(g2, [1.0, 0.0], 1)
    assert res2.lhs == pytest.approx(1.0)
    assert res2.rhs == pytest.approx(2.0)
    # constant f: support mean equals the constant, lhs 0
    res3 = neumann_check(g, [3.0, 3.0, 3.0], 2)
    assert res3.lhs == 0.0
    assert res3.passed


def test_neumann_weighted_constant():
    g = make_graph(2, [(0, 1)], vmass=[1.0, 4.0], emass=[2.0])
    res = neumann_check(g, [1.0, 0.0], 1)
    K = 2.0  # masses in [1, 4]: K = sqrt(4 / 1)
    assert res.constant == pytest.approx(2.0 * 2.0 * K**2)
    assert res.passed


def test_graph_profile():
    g = make_graph(3, [(0, 1), (1, 2)], vmass=[1.0, 4.0, 1.0], emass=[1.0, 1.0])
    prof = graph_profile(g)
    assert prof.A == 2.0
    assert prof.B == 4.0


def test_covering_graph_from_decomposition():
    sp = grid_quadrant(16)
    cov = expand_covering(sp, kappa_decomposition(sp, 0, 2.0))
    g = build_covering_graph(sp, cov)
    assert g.n == cov.n_pieces
    assert g.boundary.sum() >= 1
    for (a, b), w in zip(g.edges, g.emass):
        assert w == pytest.approx(min(g.vmass[a], g.vmass[b]))
    total = g.vmass.sum()
    assert total == pytest.approx(sp.total_mass - sp.measure[0] - sp.measure[kappa_trunc(sp)].sum())


def kappa_trunc(sp):
    return kappa_decomposition(sp, 0, 2.0).truncated


def test_excess_constant():
    assert excess_constant(2.0, 2.0) == 1024.0


def test_rca_kappa():
    assert rca_kappa(2.0, 1.0, 2.0, 1.0, 2.0, 1.0) == pytest.approx(3_748_096.0, rel=1e-12)
    with pytest.raises(EtaNotAboveP):
        rca_kappa(2.0, 2.0, 2.0, 1.0, 2.0, 1.0)


def test_rca_check_cone_passes():
    sp = cone_grid(32, 2.0)
    assert rca_check(sp, 0, 2.0).passed


def test_rca_check_without_radii_fails():
    # at kappa=4 the first radius, 16, has kappa R = 64 beyond the
    # eccentricity 50, so no annulus is tested and nothing is shown
    res = rca_check(cone_grid(50, 2.0), 0, 4.0)
    assert res.radii == [] and not res.passed


def test_rca_check_cycle_fails():
    # on a long cycle the annulus around the base point splits into two
    # arcs separated at the antipode, so spheres disconnect
    n = 40
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    sp = build_space(n, edges, np.ones(n))
    res = rca_check(sp, 0, 2.0, radii=[10.0])
    assert not res.passed


def test_zero_mass_guard():
    sp = grid_quadrant(4)
    cov = expand_covering(sp, kappa_decomposition(sp, 0, 2.0))
    with pytest.raises(ZeroMass):
        build_covering_graph(sp, cov, mu=np.zeros(sp.n))


def random_covering_graph(seed, n=11, n_boundary=3, p=0.3):
    """Connected random graph with random masses and a random boundary.

    Edges come in shuffled order with random orientation, so interior and
    boundary edges are mixed and a boundary edge's interior end is first
    or second at random; at least one boundary-boundary edge is present.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    pairs = {tuple(sorted(p_)) for p_ in zip(perm[:-1].tolist(), perm[1:].tolist())}
    pairs |= {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p}
    boundary = np.zeros(n, dtype=bool)
    bnd = rng.choice(n, n_boundary, replace=False)
    boundary[bnd] = True
    pairs.add(tuple(sorted(bnd[:2].tolist())))
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in sorted(pairs)]
    edges = [edges[i] for i in rng.permutation(len(edges))]
    return make_graph(
        n,
        edges,
        vmass=rng.uniform(0.1, 10.0, n),
        emass=rng.uniform(0.1, 10.0, len(edges)),
        boundary=boundary,
    )


def loop_gradient(g, f):
    """Per-edge slopes of f (on the interior) extended by 0 to the boundary:
    interior-interior edges as f(a) - f(b), then interior-boundary edges as
    the value at the interior end; boundary-boundary edges are skipped."""
    F = np.zeros(g.n)
    F[g.interior] = f
    inner, outer = [], []
    for (a, b), w in zip(g.edges, g.emass):
        if not g.boundary[a] and not g.boundary[b]:
            inner.append((w, F[a] - F[b]))
        elif not g.boundary[a]:
            outer.append((w, F[a]))
        elif not g.boundary[b]:
            outer.append((w, F[b]))
    return inner + outer


def loop_energy(g, f, t):
    total = 0.0
    for w, slope in loop_gradient(g, f):
        total += w * abs(slope) ** t
    return total


def loop_cut(g, S):
    total = 0.0
    for (a, b), w in zip(g.edges, g.emass):
        if (a in S) != (b in S):
            total += w
    return total


def loop_laplacian(g):
    pos = {int(v): i for i, v in enumerate(g.interior)}
    L = np.zeros((len(pos), len(pos)))
    for (a, b), w in zip(g.edges, g.emass):
        if a in pos and b in pos:
            L[pos[a], pos[a]] += w
            L[pos[b], pos[b]] += w
            L[pos[a], pos[b]] -= w
            L[pos[b], pos[a]] -= w
        elif a in pos or b in pos:
            u = pos[a] if a in pos else pos[b]
            L[u, u] += w
    return L


@pytest.mark.parametrize("seed", range(6))
def test_dirichlet_incidence_matches_edge_loops(seed):
    g = random_covering_graph(seed)
    interior = g.interior
    k = len(interior)
    assert any(g.boundary[a] and g.boundary[b] for a, b in g.edges)
    D, w = dirichlet_incidence(g)
    rng = np.random.default_rng(100 + seed)

    # signed slopes and weights, edge by edge
    f = rng.standard_normal(k)
    grad = loop_gradient(g, f)
    assert D.shape == (len(grad), k)
    np.testing.assert_array_equal(w, [wt for wt, _ in grad])
    np.testing.assert_allclose(D @ f, [slope for _, slope in grad], rtol=0, atol=1e-14)

    # cuts of random interior vertex sets
    sets = [set(interior[rng.random(k) < 0.5].tolist()) for _ in range(8)]
    bits = np.array([[v in S for v in interior] for S in sets], dtype=float)
    np.testing.assert_allclose(
        dirichlet_energy(D, w, bits.T, 1), [loop_cut(g, S) for S in sets], rtol=1e-12
    )

    # t-energies of random functions, one at a time and as columns
    F = rng.standard_normal((k, 5))
    for t in (1, 2, 3):
        expected = [loop_energy(g, F[:, j], t) for j in range(5)]
        np.testing.assert_allclose(dirichlet_energy(D, w, F, t), expected, rtol=1e-12)
        (one,) = dirichlet_energy(D, w, F[:, 0], t)
        assert one == pytest.approx(expected[0], rel=1e-12)

    # the Laplacian behind the t=2 constant
    vals = scipy.linalg.eigh(np.diag(g.vmass[interior]), loop_laplacian(g), eigvals_only=True)
    assert poincare_constant(g, 2) == pytest.approx(math.sqrt(vals[-1]), rel=1e-12)

    # the exact isoperimetric constant against every interior set
    best = min(
        loop_cut(g, set(S)) / g.vmass[list(S)].sum()
        for r in range(1, k + 1)
        for S in itertools.combinations(interior.tolist(), r)
    )
    assert isoperimetric_constant(g).I == pytest.approx(best, rel=1e-9)
