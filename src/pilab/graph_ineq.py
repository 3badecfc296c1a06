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

from .constants import neumann_constant
from .errors import NoBoundary, PilabError, ZeroMass


@dataclass
class CoveringGraph:
    n: int
    edges: np.ndarray  # (m, 2) int64 vertex pairs
    vmass: np.ndarray
    emass: np.ndarray
    boundary: np.ndarray  # bool mask, Dirichlet layer
    levels: list

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)

    @property
    def interior(self):
        return np.flatnonzero(~self.boundary)


@dataclass
class GraphProfile:
    """Degree/mass statistics feeding the discrete Poincare bounds: A
    bounds the vertex degree and B the mass ratio across any edge."""

    A: float
    B: float


@dataclass
class IsoperimetricResult:
    I: float
    witness: frozenset
    exact: bool  # always True; kept for callers that read it


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


def build_covering_graph(space, covering, mu=None):
    """Weighted graph on covering pieces with a designated boundary layer.

    Vertex mass is the mu-mass (base measure if None) of the piece's U set;
    edge mass is the smaller endpoint mass.  The outermost decomposition
    level is marked as boundary.
    """
    if covering.n_pieces == 0:
        raise NoBoundary("the covering has no pieces")
    mu = space.measure if mu is None else mu
    vmass = np.array([mu[U].sum() for U, _, _ in covering.triples])
    if np.any(vmass <= 0):
        raise ZeroMass("a covering piece has zero mu-mass")
    a, b = covering.adjacency.T
    levels = list(covering.levels)
    return CoveringGraph(
        n=covering.n_pieces,
        edges=covering.adjacency,
        vmass=vmass,
        emass=np.minimum(vmass[a], vmass[b]),
        boundary=np.asarray(levels) == max(levels),
        levels=levels,
    )


def graph_profile(graph):
    a, b = graph.edges.T
    deg = np.bincount(np.r_[a, b], minlength=graph.n)
    ratio = graph.vmass[a] / graph.vmass[b]
    B = float(np.max(np.r_[1.0, ratio, 1.0 / ratio]))
    return GraphProfile(A=float(deg.max()) if graph.n else 0.0, B=B)


def dirichlet_incidence(graph):
    """Signed edge-vertex incidence D of the interior, with edge weights w.

    Rows are the interior-interior edges (+1 at the first end, -1 at the
    second), then the interior-boundary edges with only their interior end
    (+1); boundary-boundary edges are dropped.  Columns follow
    `graph.interior`.  Every cut and Dirichlet energy is read from (D, w).
    """
    interior = graph.interior
    pos = np.full(graph.n, -1, dtype=np.int64)
    pos[interior] = np.arange(len(interior))
    ends = pos[graph.edges]
    inside = ends >= 0
    ii = inside.all(axis=1)
    ib = inside[:, 0] != inside[:, 1]
    heads = np.r_[ends[ii, 0], ends[ib].max(axis=1)]
    tails = ends[ii, 1]
    m, n_ii = len(heads), len(tails)
    rows = np.r_[np.arange(m), np.arange(n_ii)]
    signs = np.r_[np.ones(m), -np.ones(n_ii)]
    D = sparse.csr_matrix((signs, (rows, np.r_[heads, tails])), shape=(m, len(interior)))
    return D, np.r_[graph.emass[ii], graph.emass[ib]]


def dirichlet_energy(D, w, F, t):
    """sum_e w_e |(D f)_e|^t for each column f of F (a vector is one column).

    With two or more columns the terms are added row by row, in edge order;
    numpy sums a single column pairwise.
    """
    F = np.reshape(F, (D.shape[1], -1))
    return (w[:, None] * np.abs(D @ F) ** t).sum(axis=0)


def _coarea_lp(vm, D, w):
    """Optimal f of max sum m*f over f >= 0 with sum_e w_e |(D f)_e| <= 1.

    Variables are f on the interior and one slack per edge bounding the
    edge's slope.  All masses are divided by the largest vertex mass, which
    leaves the optimal level sets unchanged.
    """
    m, k = D.shape
    scale = float(vm.max())
    slack = -sparse.identity(m)
    A = sparse.bmat([[D, slack], [-D, slack], [None, w[None, :] / scale]], format="csr")
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
    interior = graph.interior
    if len(interior) == 0:
        raise NoBoundary("graph has no interior vertices")
    vm = graph.vmass[interior]
    D, w = dirichlet_incidence(graph)
    f = _coarea_lp(vm, D, w)
    bits = f[None, :] >= np.unique(f)[:, None]
    ratios = dirichlet_energy(D, w, bits.T, 1) / (bits @ vm)
    j = int(np.argmin(ratios))
    witness = frozenset(int(v) for v in interior[bits[j]])
    return IsoperimetricResult(float(ratios[j]), witness, True)


def poincare_constant(graph, t, refine_iters=400):
    """Best constant in ||f||_t <= C ||grad f||_t over boundary-vanishing f.

    t=1 equals 1/I by the coarea identity, t=2 is the generalized
    eigenvalue of mass versus Dirichlet Laplacian D^T diag(w) D; other t
    return the best candidate found (indicators, the t=2 eigenvector, and
    local refinement seeded with 0), a certified lower bound.
    """
    interior = graph.interior
    k = len(interior)
    if k == 0:
        raise NoBoundary("graph has no interior vertices")
    if t == 1:
        return 1.0 / isoperimetric_constant(graph).I
    vm = graph.vmass[interior]
    D, w = dirichlet_incidence(graph)
    L = (D.T @ sparse.diags(w) @ D).toarray()
    vals, vecs = scipy.linalg.eigh(np.diag(vm), L)
    if t == 2:
        return float(math.sqrt(vals[-1]))

    def ratios(F):
        """||f||_t / ||grad f||_t per column f of F (0 where grad f = 0)."""
        F = np.reshape(F, (k, -1))
        num = (vm[:, None] * np.abs(F) ** t).sum(axis=0) ** (1.0 / t)
        den = dirichlet_energy(D, w, F, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den > 0, num / den ** (1.0 / t), 0.0)

    if k <= 14:  # every nonempty interior indicator
        cands = ((np.arange(1, 1 << k)[None, :] >> np.arange(k)[:, None]) & 1).astype(float)
    else:
        cands = np.c_[np.ones(k), np.eye(k)]
    cands = np.c_[cands, vecs[:, -1]]
    r = ratios(cands)
    j = int(np.argmax(r))
    best, f = float(r[j]), cands[:, j].copy()
    rng = np.random.default_rng(0)
    step = 0.5
    for _ in range(refine_iters):
        u = int(rng.integers(k))
        old = f[u]
        f[u] = old + step * (rng.random() - 0.5)
        r = float(ratios(f)[0])
        if r > best:
            best = r
        else:
            f[u] = old
        step *= 0.995
    return best


def neumann_check(graph, f, s):
    """Discrete Neumann s-Poincare inequality on the whole graph.

    The mean is taken over the support of f, the convention that makes
    constant functions trivially pass.  Uniform masses use the sharp
    counting constant N(N-1)^(s-1); otherwise `neumann_constant` applies,
    with K = sqrt(max / min) over all vertex and edge masses.
    """
    f = np.asarray(f, dtype=float)
    N = graph.n
    masses = np.concatenate([graph.vmass, graph.emass])
    lo, hi = float(masses.min()), float(masses.max())
    uniform = hi - lo <= 1e-12 * hi
    const = N * (N - 1) ** (s - 1.0) if uniform else neumann_constant(N, math.sqrt(hi / lo), s)
    supp = np.abs(f) > 0
    denom = float(graph.vmass[supp].sum())
    mean = float((f * graph.vmass).sum() / denom) if denom > 0 else 0.0
    lhs = float((np.abs(f - mean) ** s * graph.vmass).sum())
    a, b = graph.edges.T
    rhs = const * float((graph.emass * np.abs(f[a] - f[b]) ** s).sum())
    return NeumannResult(lhs, rhs, const, mean, lhs <= rhs * (1 + 1e-9))


def rca_check(space, o, kappa, radii=None):
    """Test relative connectedness of annuli at scale kappa around o.

    For each radius R, every vertex of the fuzzy sphere at R must lie in a
    single connected component of the induced annulus [R/kappa, kappa R).
    With no radius tested the check fails: it has shown nothing.
    """
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
        _, labels = space.induced_components(ann)
        passes.append(len(np.unique(labels[np.searchsorted(ann, shell)])) == 1)
    return RcaResult(list(radii), passes, bool(passes) and all(passes))
