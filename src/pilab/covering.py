"""Annular decompositions and good coverings.

The decomposition splits a space into connected components of dyadic-like
shells A(o, kappa^(i-1), kappa^i) (half-open, so shells partition the
space), then merges components that never reach the outer radius of their
shell into an adjacent piece one level down.  It is held as one label
array `owner` (vertex -> piece, -1 for o and truncated vertices) and one
level per piece.
Expanding each piece by its closure-neighbors yields a good covering:
membership matrices whose row i marks the nested sets U_i, U*_i, U#_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph, csr_matrix, identity, triu

from .errors import KappaOutOfRange


@dataclass
class KappaDecomposition:
    owner: np.ndarray  # vertex -> piece index; -1 for o and truncated vertices
    pieces: np.ndarray  # (k,) int64, the level of each piece
    kappa: float


@dataclass
class GoodCovering:
    """Nested sets U, U*, U# per piece with piece adjacency.

    `adjacency` holds the pairs (i, j), i < j, of pieces whose closures
    touch (share a vertex or an ambient edge), one per row.  The designated
    piece k(i, j) of an adjacent pair is always the smaller index min(i, j);
    U*_k contains both U_i and U_j.  Axiom (2) counts the `excluded`
    vertices (o and the truncated tail of a decomposition) as covered.
    `hops` holds the hop distances between pieces in the piece graph,
    computed from `adjacency` when not given; `kappa` is the decomposition's.
    """

    U: csr_matrix  # (pieces x n) bool; row i marks U_i, indices ascending
    star: csr_matrix  # likewise U*_i
    sharp: csr_matrix  # likewise U#_i
    levels: np.ndarray  # (pieces,) int64, the decomposition's piece levels
    adjacency: np.ndarray
    excluded: np.ndarray = ()
    hops: np.ndarray = None
    kappa: float = None

    def __post_init__(self):
        self.levels = np.asarray(self.levels, dtype=np.int64)
        self.adjacency = np.asarray(self.adjacency, dtype=np.int64).reshape(-1, 2)
        self.excluded = np.asarray(self.excluded, dtype=np.int64)
        if self.hops is None:
            self.hops = _piece_distances(self.n_pieces, self.adjacency)

    @property
    def n_pieces(self):
        return self.U.shape[0]


@dataclass
class CoveringValidation:
    Q1_emp: int
    Q2_emp: float
    axioms_pass: dict
    uncovered: np.ndarray

    @property
    def all_pass(self):
        return all(self.axioms_pass.values())


def _vertex_levels(d, kappa):
    """Level i of each vertex: kappa^(i-1) <= d < kappa^i (o gets None)."""
    lev = np.full(len(d), np.iinfo(np.int64).min, dtype=np.int64)
    pos = d > 0
    lev[pos] = np.floor(np.log(d[pos]) / math.log(kappa) + 1e-9).astype(np.int64) + 1
    return lev


def kappa_decomposition(space, o, kappa):
    """Decompose the space into merged shell components centered at o.

    Levels whose outer radius exceeds the eccentricity of o are dropped:
    they are truncation artifacts of the finite space, not genuinely thin
    components.  Components that stay more than one resolution short of
    their outer shell radius are merged into the adjacent piece one level
    down (ties: most connecting edges, then smallest index).
    """
    if kappa <= 1:
        raise KappaOutOfRange(f"kappa={kappa}")
    n = space.n
    d = space.dist_from(o)
    d_max = float(d.max())
    lev = _vertex_levels(d, kappa)
    i_top = int(math.floor(math.log(d_max) / math.log(kappa) + 1e-9)) if d_max > 0 else 0
    keep = (d > 0) & (lev <= i_top)
    kept = np.flatnonzero(keep)
    owner = np.full(n, -1, dtype=np.int64)
    if len(kept) == 0:
        return KappaDecomposition(owner, np.zeros(0, dtype=np.int64), kappa)
    levels = np.unique(lev[kept]).tolist()

    # Raw pieces are the components of each shell, numbered by (level,
    # smallest vertex); `kept` is ascending, so a component's first kept
    # vertex is its smallest.
    u, v = space.edges.T
    same = keep[u] & keep[v] & (lev[u] == lev[v])
    shells = csr_matrix((np.ones(int(same.sum())), (u[same], v[same])), shape=(n, n))
    comp = csgraph.connected_components(shells, directed=False)[1][kept]
    _, first, comp = np.unique(comp, return_index=True, return_inverse=True)
    start = kept[first]
    order = np.lexsort((start, lev[start]))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    owner[kept] = rank[comp]
    plevel = lev[start][order]

    # A piece is thin when it stops short of its outer radius; the bottom
    # level has nothing below and always counts as full.
    n_raw = len(plevel)
    reach = np.full(n_raw, -np.inf)
    np.maximum.at(reach, owner[kept], d[kept])
    outer = np.array([kappa**i - space.resolution for i in levels])
    thin = (reach < outer[np.searchsorted(levels, plevel)]) & (plevel != levels[0])

    # Edges leaving thin pieces.  Shell components share no edge and every
    # target sits below the level being merged, so the thin pieces of one
    # level merge independently of each other; `target` maps each raw piece
    # to the piece that absorbs it.
    thin_vertices = kept[thin[owner[kept]]]
    rows = space.adjacency[thin_vertices]
    src = np.repeat(owner[thin_vertices], np.diff(rows.indptr))
    dst = owner[rows.indices]
    src, dst = src[dst >= 0], dst[dst >= 0]
    target = np.arange(n_raw)
    for i in levels[1:]:
        at = plevel[src] == i
        p, t = src[at], target[dst[at]]
        below = plevel[t] < i
        pairs, counts = np.unique(p[below] * n_raw + t[below], return_counts=True)
        p, t = np.divmod(pairs, n_raw)
        # prefer the level just below, then most edges, then the smallest piece
        pick = np.lexsort((t, -counts, plevel[t] != i - 1, p))
        p, t = p[pick], t[pick]
        best = np.diff(p, prepend=-1) != 0
        target[p[best]] = t[best]

    alive = np.flatnonzero(target == np.arange(n_raw))
    owner[kept] = np.searchsorted(alive, target[owner[kept]])
    return KappaDecomposition(owner, plevel[alive], kappa)


def _within(X, Y):
    """Per row i of the membership matrices X and Y: is X_i a subset of Y_i?"""
    return np.asarray(X.multiply(Y).sum(axis=1)).ravel() == np.diff(X.indptr)


def set_masses(M, meas):
    """Per row of the membership matrix M, numpy's sum of meas over its indices: bit for
    bit meas[U_i].sum() for a row marking U_i, which a CSR mat-vec is not."""
    return np.array([meas[M.indices[a:b]].sum() for a, b in zip(M.indptr[:-1], M.indptr[1:])])


def _touching_pairs(space, M):
    """(m, 2) array of the pairs (i, j), i < j, of rows of M whose sets touch.

    Two sets touch when they share a vertex or an ambient edge joins them,
    i.e. when entry (i, j) of M (A + I) M^T is nonzero, with M the
    membership matrix and A the adjacency.  Sorted by i, then j.
    """
    closure = space.adjacency.astype(bool) + identity(space.n, dtype=bool)
    touch = triu(M @ closure @ M.T, k=1, format="csr")
    touch.sort_indices()
    return np.column_stack(touch.nonzero())


def _piece_distances(n, adjacency):
    """Hop distances between pieces in the piece graph."""
    a, b = adjacency.T
    mat = csr_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    return csgraph.shortest_path(mat, unweighted=True, directed=False)


def expand_covering(space, decomp):
    """Read U from `owner` and grow each piece U_i into U*_i and U#_i.

    U* is the union of U over closure-adjacent pieces (including itself),
    and U# the union of pieces within 4 hops, which contains the U* of
    every piece whose U* touches U*_i: each is a hop mask times U.
    """
    n = len(decomp.pieces)
    kept = np.flatnonzero(decomp.owner >= 0)
    U = csr_matrix((np.ones(len(kept), dtype=bool), (decomp.owner[kept], kept)), shape=(n, space.n))
    adj = _touching_pairs(space, U)
    hops = _piece_distances(n, adj)
    # (U^T H)^T is H U for the symmetric hop mask H; converting it to CSR sorts each row
    star, sharp = ((U.T.tocsr() @ csr_matrix(hops <= h)).T.tocsr() for h in (1, 4))
    return GoodCovering(U, star, sharp, decomp.pieces, adj, np.flatnonzero(decomp.owner < 0),
                        hops, decomp.kappa)


def validate_covering(covering, space, mu=None):
    """Check good-covering axioms (1), (2) and (4) plus the overlap-sum
    corollaries.

    Axiom (4) is checked with both the base measure m and mu (m if None).
    U# sets are unions of pieces within piece-graph distance 4, so two U#
    closures touch exactly when their pieces are within distance 9; the
    overlap count Q1 is computed from that distance matrix, `covering.hops`.
    """
    m = space.measure
    mu = m if mu is None else mu
    n = covering.n_pieces
    U, star, sharp = covering.U, covering.star, covering.sharp
    a, b = covering.adjacency.T
    k = np.minimum(a, b)
    ends, ks = np.concatenate([a, b]), np.concatenate([k, k])

    ax1 = bool(_within(U, star).all() and _within(star, sharp).all())
    ax4 = bool(_within(U[ends], star[ks]).all())

    covered = np.asarray(U.sum(axis=0)).ravel() > 0
    covered[covering.excluded] = True
    uncovered = np.flatnonzero(~covered)
    ax2 = len(uncovered) == 0

    Q1_emp = int((covering.hops <= 9).sum(axis=1).max()) if n else 0

    # Q2 = max over adjacent pairs of meas(U*_k) / min(meas(U_a), meas(U_b));
    # the min keeps U_a on ties and NaN, and fmax skips NaN ratios.
    Q2_emp = 0.0
    for meas in (m, mu):
        mass, star_mass = set_masses(U, meas), set_masses(star, meas)
        denom = np.where(mass[b] < mass[a], mass[b], mass[a])
        pos = denom > 0
        Q2_emp = np.fmax.reduce(star_mass[k][pos] / denom[pos], initial=Q2_emp)

    q1_sum = int(np.asarray(star.sum(axis=0)).max())
    # each adjacent pair counts twice, once per orientation
    q12_sum = int((star.T @ (2 * np.bincount(k, minlength=n))).max())

    axioms_pass = {
        "axiom1_nested": ax1,
        "axiom2_cover": ax2,
        "axiom4_measure": ax4,
        "eq_Q1": q1_sum <= Q1_emp,
        "eq_Q12": q12_sum <= Q1_emp**3,
    }
    return CoveringValidation(
        Q1_emp=Q1_emp,
        Q2_emp=float(Q2_emp),
        axioms_pass=axioms_pass,
        uncovered=uncovered,
    )
