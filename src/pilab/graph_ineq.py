"""Weighted graphs over covering pieces and their discrete inequalities.

Each covering piece becomes a graph vertex weighted by the mu-mass of its
U set; adjacent pieces are joined by an edge weighted by the smaller of the
two vertex masses.  The outermost levels act as a Dirichlet boundary, which
makes finitely supported functions on the infinite model space meaningful
on its truncation.

The isoperimetric constant I over interior sets is exact at every size: it
comes from one linear program (HiGHS through scipy), the coarea dual of
the best discrete 1-Poincare constant 1/I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
from scipy.optimize import linprog

from .constants import excess_constant, neumann_constant
from .errors import NoBoundary, PilabError, ZeroMass
from .weights import weight_density


@dataclass
class CoveringGraph:
    n: int
    edges: list  # unordered vertex pairs
    vmass: np.ndarray
    emass: np.ndarray
    boundary: np.ndarray  # bool mask, Dirichlet layer
    levels: list

    @property
    def interior(self):
        return np.flatnonzero(~self.boundary)


@dataclass
class GraphProfile:
    """Degree/mass statistics feeding the discrete Poincare bounds.

    A bounds the vertex degree, B the mass ratio across any edge, and K the
    two-sided comparability of all vertex and edge masses with a common
    level L (chosen to minimize K).
    """

    A: float
    B: float
    N: int
    K: float
    L: float


@dataclass
class IsoperimetricResult:
    I: float
    witness: frozenset
    exact: bool  # always True; kept for callers that read it

    def __float__(self):
        return self.I


@dataclass
class NeumannResult:
    lhs: float
    rhs: float
    constant: float
    mean: float
    passed: bool


@dataclass
class RcaResult:
    radii: list
    passes: list
    passed: bool


def build_covering_graph(space, covering, weight=None):
    """Weighted graph on covering pieces with a designated boundary layer.

    Vertex mass is the mu-mass of the piece's U set; edge mass is the
    smaller endpoint mass.  The outermost decomposition level is marked as
    boundary.
    """
    w = np.ones(space.n) if weight is None else np.asarray(weight, dtype=float)
    mu = w * space.measure
    vmass = np.array([mu[U].sum() for U, _, _ in covering.triples])
    if np.any(vmass <= 0):
        raise ZeroMass("a covering piece has zero mu-mass")
    edges = list(covering.adjacency)
    emass = np.array([min(vmass[a], vmass[b]) for a, b in edges])
    levels = list(covering.levels)
    top = max(levels, default=None)
    boundary = np.array([lv == top for lv in levels], dtype=bool)
    return CoveringGraph(
        n=covering.n_pieces,
        edges=edges,
        vmass=vmass,
        emass=emass,
        boundary=boundary,
        levels=levels,
    )


def graph_profile(graph):
    deg = np.zeros(graph.n)
    B = 1.0
    for (a, b), _ in zip(graph.edges, graph.emass):
        deg[a] += 1
        deg[b] += 1
        ratio = graph.vmass[a] / graph.vmass[b]
        B = max(B, ratio, 1.0 / ratio)
    masses = np.concatenate([graph.vmass, graph.emass]) if len(graph.emass) else graph.vmass
    lo, hi = float(masses.min()), float(masses.max())
    L = math.sqrt(lo * hi)
    K = math.sqrt(hi / lo)
    return GraphProfile(A=float(deg.max()) if graph.n else 0.0, B=B, N=graph.n, K=K, L=L)


def _cut_volume_arrays(graph):
    """Interior indexing plus edge lists split by boundary contact."""
    interior = graph.interior
    pos = {int(v): i for i, v in enumerate(interior)}
    ii_edges, ib_edges = [], []
    for (a, b), w in zip(graph.edges, graph.emass):
        ain, bin_ = int(a) in pos, int(b) in pos
        if ain and bin_:
            ii_edges.append((pos[a], pos[b], w))
        elif ain:
            ib_edges.append((pos[a], w))
        elif bin_:
            ib_edges.append((pos[b], w))
    return interior, ii_edges, ib_edges


def _coarea_lp(vm, ii_edges, ib_edges):
    """Optimal f of max sum m*f over f >= 0 with sum_e w_e |grad f|_e <= 1.

    Variables are f on the interior and one slack per edge bounding the
    edge's slope (|f_u - f_v| inside, f_u on a boundary edge).  All masses
    are divided by the largest vertex mass, which leaves the optimal level
    sets unchanged.
    """
    k, n_ii = len(vm), len(ii_edges)
    edges = ii_edges + ib_edges
    m = len(edges)
    scale = float(vm.max())
    w = np.array([e[-1] for e in edges]) / scale
    # signed edge-vertex incidence; a boundary edge has only its interior end
    rows = np.r_[np.arange(m), np.arange(n_ii)]
    cols = [e[0] for e in edges] + [e[1] for e in ii_edges]
    signs = np.r_[np.ones(m), -np.ones(n_ii)]
    D = sparse.csr_matrix((signs, (rows, cols)), shape=(m, k))
    slack = -sparse.identity(m)
    A = sparse.bmat([[D, slack], [-D, slack], [None, w[None, :]]], format="csr")
    b = np.r_[np.zeros(2 * m), 1.0]
    c = np.r_[-vm / scale, np.zeros(m)]
    res = linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    if res.status == 3:
        raise NoBoundary("an interior vertex has no path to the boundary layer")
    if res.status != 0:
        raise PilabError(f"isoperimetric LP: {res.message}")
    return res.x[:k]


def isoperimetric_constant(graph):
    """Isoperimetric constant over sets avoiding the boundary layer.

    Exact: by the coarea formula the LP of `_coarea_lp` has optimum 1/I,
    attained on a level set {f >= theta} of its optimal f.  The best such
    set is the witness, and I is its cut over its volume.
    """
    if not graph.boundary.any():
        raise NoBoundary("graph has no designated boundary layer")
    interior, ii_edges, ib_edges = _cut_volume_arrays(graph)
    if len(interior) == 0:
        raise NoBoundary("graph has no interior vertices")
    vm = graph.vmass[interior]
    f = _coarea_lp(vm, ii_edges, ib_edges)
    bits = f[None, :] >= np.unique(f)[:, None]
    vol = bits @ vm
    cut = np.zeros(len(bits))
    for u, v, w in ii_edges:
        cut += w * (bits[:, u] != bits[:, v])
    for u, w in ib_edges:
        cut += w * bits[:, u]
    ratios = cut / vol
    j = int(np.argmin(ratios))
    witness = frozenset(int(v) for v in interior[bits[j]])
    return IsoperimetricResult(float(ratios[j]), witness, True)


def _dirichlet_ratio(graph, interior, ii_edges, ib_edges, f, t):
    num = float((graph.vmass[interior] * np.abs(f) ** t).sum()) ** (1.0 / t)
    den = 0.0
    for u, v, w in ii_edges:
        den += w * abs(f[u] - f[v]) ** t
    for u, w in ib_edges:
        den += w * abs(f[u]) ** t
    if den <= 0:
        return 0.0
    return num / den ** (1.0 / t)


def _indicator_ratios(graph, interior, ii_edges, ib_edges, t):
    """Dirichlet ratio of every nonempty interior indicator, vectorized."""
    k = len(interior)
    bits = ((np.arange(1, 1 << k)[:, None] >> np.arange(k)) & 1).astype(float)
    num = (bits @ graph.vmass[interior]) ** (1.0 / t)
    den = np.zeros(len(bits))
    for u, v, w in ii_edges:
        den += w * (bits[:, u] != bits[:, v])
    for u, w in ib_edges:
        den += w * bits[:, u]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(den > 0, num / den ** (1.0 / t), 0.0)
    best = int(np.argmax(ratios))
    return float(ratios[best]), bits[best]


def poincare_constant(graph, t, seed=0, refine_iters=400):
    """Best constant in ||f||_t <= C ||grad f||_t over boundary-vanishing f.

    t=1 equals 1/I by the coarea identity, t=2 is the generalized
    eigenvalue of mass versus Dirichlet Laplacian; other t return the best
    candidate found (indicators, the t=2 eigenvector, and seeded local
    refinement), a certified lower bound.
    """
    interior, ii_edges, ib_edges = _cut_volume_arrays(graph)
    k = len(interior)
    if k == 0:
        raise NoBoundary("graph has no interior vertices")
    if t == 1:
        return 1.0 / isoperimetric_constant(graph).I
    L = np.zeros((k, k))
    for u, v, w in ii_edges:
        L[u, u] += w
        L[v, v] += w
        L[u, v] -= w
        L[v, u] -= w
    for u, w in ib_edges:
        L[u, u] += w
    M = np.diag(graph.vmass[interior])
    vals, vecs = scipy.linalg.eigh(M, L)
    if t == 2:
        return float(math.sqrt(vals[-1]))
    if k <= 14:
        best, f = _indicator_ratios(graph, interior, ii_edges, ib_edges, t)
    else:
        cands = [np.ones(k)]
        for s in range(k):
            g = np.zeros(k)
            g[s] = 1.0
            cands.append(g)
        ratios = [_dirichlet_ratio(graph, interior, ii_edges, ib_edges, c, t) for c in cands]
        best = max(ratios)
        f = cands[int(np.argmax(ratios))]
    eig_r = _dirichlet_ratio(graph, interior, ii_edges, ib_edges, vecs[:, -1], t)
    if eig_r > best:
        best, f = eig_r, vecs[:, -1]
    f = np.asarray(f, dtype=float).copy()
    rng = np.random.default_rng(seed)
    step = 0.5
    for _ in range(refine_iters):
        u = int(rng.integers(k))
        old = f[u]
        f[u] = old + step * (rng.random() - 0.5)
        r = _dirichlet_ratio(graph, interior, ii_edges, ib_edges, f, t)
        if r > best:
            best = r
        else:
            f[u] = old
        step *= 0.995
    return float(best)


def neumann_check(graph, f, s):
    """Discrete Neumann s-Poincare inequality on the whole graph.

    The mean is taken over the support of f, the convention that makes
    constant functions trivially pass.  Uniform masses use the sharp
    counting constant N(N-1)^(s-1); otherwise `neumann_constant` applies.
    """
    f = np.asarray(f, dtype=float)
    N = graph.n
    masses = np.concatenate([graph.vmass, graph.emass]) if len(graph.emass) else graph.vmass
    uniform = float(masses.max() - masses.min()) <= 1e-12 * float(masses.max())
    K = graph_profile(graph).K
    const = N * (N - 1) ** (s - 1.0) if uniform else neumann_constant(N, K, s)
    supp = np.abs(f) > 0
    denom = float(graph.vmass[supp].sum())
    mean = float((f * graph.vmass).sum() / denom) if denom > 0 else 0.0
    lhs = float((np.abs(f - mean) ** s * graph.vmass).sum())
    grad = sum(
        w * abs(f[a] - f[b]) ** s for (a, b), w in zip(graph.edges, graph.emass)
    )
    rhs = const * grad
    return NeumannResult(lhs, rhs, const, mean, lhs <= rhs * (1 + 1e-9))


def layer_weight_bounds(space, covering, piece_idx, s, t, Q, weight=None):
    """Two-sided bound on the mu_{s,t}-mass of a decomposition piece.

    Sandwiches mu(U) between central ball masses at the adjacent scales;
    returns (lower, upper, mu, ok).
    """
    kappa, o = covering.kappa, covering.o
    if weight is None:
        weight = weight_density(space, o, "mu_st", s=s, t=t)
    mu = float((weight * space.measure)[covering.triples[piece_idx][0]].sum())
    i = covering.levels[piece_idx]
    C_e = excess_constant(Q, kappa)
    lower = space.ball_mass(o, kappa ** (i - 1)) ** (t / s) / (C_e * kappa ** ((i + 1) * t))
    upper = space.ball_mass(o, kappa ** (i + 1)) ** (t / s) / kappa ** ((i - 1) * t)
    return lower, upper, mu, bool(lower <= mu <= upper)


def rca_check(space, o, kappa, radii=None):
    """Test relative connectedness of annuli at scale kappa around o.

    For each radius R, every vertex of the fuzzy sphere at R must lie in a
    single connected component of the induced annulus [R/kappa, kappa R).
    """
    from scipy.sparse import csgraph

    ecc = space.eccentricity(o)
    res = space.resolution
    if radii is None:
        radii = []
        R = res * kappa**2
        while kappa * R <= ecc:
            radii.append(R)
            R *= kappa
    d = space.dist_from(o)
    passes = []
    for R in radii:
        ann = np.flatnonzero((d >= R / kappa) & (d < kappa * R))
        shell = np.flatnonzero(np.abs(d - R) <= res)
        shell = np.intersect1d(shell, ann)
        if len(shell) <= 1:
            passes.append(True)
            continue
        sub = space.adjacency[np.ix_(ann, ann)]
        _, labels = csgraph.connected_components(sub, directed=False)
        pos = {int(v): i for i, v in enumerate(ann)}
        lab = {labels[pos[int(v)]] for v in shell}
        passes.append(len(lab) == 1)
    return RcaResult(list(radii), passes, all(passes))
