"""Annular decompositions, good coverings, and metric nets.

The decomposition splits a space into connected components of dyadic-like
shells A(o, kappa^(i-1), kappa^i) (half-open, so shells partition the
space), then merges components that never reach the outer radius of their
shell into an adjacent piece one level down.  It is held as one label
array `owner` (vertex -> piece, -1 for o and truncated vertices).
Expanding each piece by its closure-neighbors yields the (U, U*, U#)
triples of a good covering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph, csr_matrix, identity, triu

from .errors import KappaOutOfRange, NotInAnnulus, RhoBelowResolution


@dataclass
class Piece:
    level: int
    members: np.ndarray


@dataclass
class KappaDecomposition:
    pieces: list
    owner: np.ndarray  # vertex -> index into pieces; -1 for o and truncated
    truncated: np.ndarray  # vertices beyond the last complete level


@dataclass
class GoodCovering:
    """Triples (U, U*, U#) with piece adjacency.

    `adjacency` holds the pairs (i, j), i < j, of pieces whose closures
    touch (share a vertex or an ambient edge), one per row.  The designated
    piece k(i, j) of an adjacent pair is always the smaller index min(i, j);
    U*_k contains both U_i and U_j.  Axiom (2) counts the `excluded`
    vertices (o and the truncated tail of a decomposition) as covered.
    """

    triples: list  # list of (U, Ustar, Usharp) index arrays
    levels: list
    adjacency: np.ndarray
    excluded: np.ndarray = ()

    def __post_init__(self):
        self.adjacency = np.asarray(self.adjacency, dtype=np.int64).reshape(-1, 2)
        self.excluded = np.asarray(self.excluded, dtype=np.int64)

    @property
    def n_pieces(self):
        return len(self.triples)


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
    truncated = np.flatnonzero((d > 0) & (lev > i_top))
    kept = np.flatnonzero(keep)
    owner = np.full(n, -1, dtype=np.int64)
    if len(kept) == 0:
        return KappaDecomposition([], owner, truncated)
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
    by_owner = np.argsort(owner, kind="stable")[n - len(kept):]
    sizes = np.bincount(owner[kept], minlength=len(alive))
    members = np.split(by_owner, np.cumsum(sizes)[:-1])
    pieces = [Piece(level=i, members=m) for i, m in zip(plevel[alive].tolist(), members)]
    return KappaDecomposition(pieces, owner, truncated)


def _membership(n, sets):
    """Binary (len(sets), n) matrix whose row i marks the vertices of sets[i]."""
    rows = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    cols = np.concatenate([np.empty(0, dtype=np.int64), *sets])
    return csr_matrix((np.ones(len(cols), dtype=bool), (rows, cols)), shape=(len(sets), n))


def _within(X, Y):
    """Per row i of the membership matrices X and Y: is X_i a subset of Y_i?"""
    return np.asarray(X.multiply(Y).sum(axis=1)).ravel() == np.diff(X.indptr)


def _touching_pairs(space, sets):
    """(m, 2) array of the pairs (i, j), i < j, of sets whose closures touch.

    Two sets touch when they share a vertex or an ambient edge joins them,
    i.e. when entry (i, j) of M (A + I) M^T is nonzero, with M the
    membership matrix and A the adjacency.  Sorted by i, then j.
    """
    M = _membership(space.n, sets)
    closure = space.adjacency.astype(bool) + identity(space.n, dtype=bool)
    touch = triu(M @ closure @ M.T, k=1, format="csr")
    touch.sort_indices()
    rows = np.repeat(np.arange(len(sets)), np.diff(touch.indptr))
    return np.column_stack((rows, touch.indices))


def _piece_distances(n, adjacency):
    """Hop distances between pieces in the piece graph."""
    a, b = adjacency.T
    mat = csr_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    return csgraph.shortest_path(mat, unweighted=True, directed=False)


def expand_covering(space, decomp):
    """Grow each piece into (U, U*, U#) triples.

    U* is the union of U over closure-adjacent pieces (including itself),
    and U# the union of pieces within 4 hops, which contains the U* of
    every piece whose U* touches U*_i.
    """
    n = len(decomp.pieces)
    adj = _touching_pairs(space, [p.members for p in decomp.pieces])
    # the appended column, read by owner -1 (o and truncated), is never near
    hops = np.hstack([_piece_distances(n, adj), np.full((n, 1), np.inf)])
    triples = []
    for i, p in enumerate(decomp.pieces):
        near = hops[i][decomp.owner]
        triples.append((p.members, np.flatnonzero(near <= 1), np.flatnonzero(near <= 4)))
    levels = [p.level for p in decomp.pieces]
    return GoodCovering(triples, levels, adj, excluded=np.flatnonzero(decomp.owner < 0))


def validate_covering(covering, space, mu=None):
    """Check good-covering axioms (1), (2) and (4) plus the overlap-sum
    corollaries.

    Axiom (4) is checked with both the base measure m and mu (m if None).
    U# sets are unions of pieces within piece-graph distance 4, so two U#
    closures touch exactly when their pieces are within distance 9; the
    overlap count Q1 is computed from that distance matrix.
    """
    m = space.measure
    mu = m if mu is None else mu
    n = covering.n_pieces
    U, star, sharp = (_membership(space.n, [t[j] for t in covering.triples]) for j in range(3))
    a, b = covering.adjacency.T
    k = np.minimum(a, b)
    ends, ks = np.concatenate([a, b]), np.concatenate([k, k])

    ax1 = bool(_within(U, star).all() and _within(star, sharp).all())
    ax4 = bool(_within(U[ends], star[ks]).all())

    covered = np.asarray(U.sum(axis=0)).ravel() > 0
    covered[covering.excluded] = True
    uncovered = np.flatnonzero(~covered)
    ax2 = len(uncovered) == 0

    Q1_emp = int((_piece_distances(n, covering.adjacency) <= 9).sum(axis=1).max()) if n else 0

    # Q2 = max over adjacent pairs of meas(U*_k) / min(meas(U_a), meas(U_b));
    # the min keeps U_a on ties and NaN, and fmax skips NaN ratios.
    Q2_emp = 0.0
    for meas in (m, mu):
        mass = np.array([meas[Ui].sum() for Ui, _, _ in covering.triples])
        star_mass = np.array([meas[Us].sum() for _, Us, _ in covering.triples])
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


def greedy_net(space, subset, radius):
    """Greedy farthest-point net of `subset`.

    Points are pairwise at distance >= radius/2 and the (radius/2)-balls
    around them cover the subset (so radius-balls certainly do); greedy
    insertion stops when no point is farther than radius/2 from the net.
    Deterministic: starts at the smallest index, ties break by index.
    """
    subset = np.sort(np.asarray(subset, dtype=np.int64))
    if len(subset) == 0:
        return []
    net = [int(subset[0])]
    dmin = space.dist_from(net[0])[subset].copy()
    while True:
        k = int(np.argmax(dmin))
        if dmin[k] < radius / 2:
            break
        v = int(subset[k])
        net.append(v)
        dmin = np.minimum(dmin, space.dist_from(v)[subset])
    return net


def _require_in_annulus(space, o, R, alpha, A):
    """Raise NotInAnnulus unless the vertex set A is non-empty and inside
    the annulus [R, alpha R) around o."""
    d = space.dist_from(o)[A]
    if len(A) == 0 or d.min() < R - 1e-9 or d.max() >= alpha * R:
        raise NotInAnnulus("A is not inside the annulus [R, alpha R)")


def annulus_piece_covering(space, o, R, alpha, delta, A, flavor):
    """Ball covering of a connected subset A of the annulus A(o, R, alpha R).

    flavor="sobolev": net radius rho/3 with triples (B_rho/3, B_rho, B_rho);
    flavor="poincare": net radius rho/2 with triples (B_rho/2, B_rho, B_2rho),
    where rho = delta * R.  The union of U's covers A and every U# stays
    inside the rho- (resp. 2rho-) fattening of A.
    """
    rho = delta * R
    if rho < space.resolution:
        raise RhoBelowResolution(f"rho={rho} < resolution={space.resolution}")
    A = np.sort(np.asarray(A, dtype=np.int64))
    _require_in_annulus(space, o, R, alpha, A)
    if flavor == "sobolev":
        net_r, radii = rho / 3, (rho / 3, rho, rho)
    elif flavor == "poincare":
        net_r, radii = rho / 2, (rho / 2, rho, 2 * rho)
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    net = greedy_net(space, A, net_r)
    triples = []
    for x in net:
        row = space.dist_from(x)
        U = np.flatnonzero(row < radii[0])
        if len(U) == 0:
            U = np.array([x], dtype=np.int64)
        triples.append((U, np.flatnonzero(row < radii[1]), np.flatnonzero(row < radii[2])))
    return GoodCovering(triples, [0] * len(net), _touching_pairs(space, [U for U, _, _ in triples]))
