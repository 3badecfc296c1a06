"""Annular decompositions, good coverings, and metric nets.

The decomposition splits a space into connected components of dyadic-like
shells A(o, kappa^(i-1), kappa^i) (half-open, so shells partition the
space), then merges components that never reach the outer radius of their
shell into an adjacent piece one level down.  Expanding each piece by its
closure-neighbors yields the (U, U*, U#) triples of a good covering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from .errors import (
    KappaOutOfRange,
    NoBasePoint,
    PieceNotInAnnulus,
    RhoBelowResolution,
)


@dataclass
class Piece:
    level: int
    index: int
    members: np.ndarray
    touches_inner: bool
    touches_outer: bool


@dataclass
class KappaDecomposition:
    o: int
    kappa: float
    pieces: list
    merged_from: dict
    truncated: np.ndarray  # vertices beyond the last complete level
    levels: list


@dataclass
class GoodCovering:
    """Triples (U, U*, U#) with piece adjacency and designated k(i,j).

    `adjacency` lists unordered piece-index pairs whose closures touch
    (share a vertex or an ambient edge); `k_map` assigns each adjacent pair
    the piece whose U* contains both U's.
    """

    triples: list  # list of (U, Ustar, Usharp) index arrays
    labels: list  # (level, index) per piece
    levels: list
    adjacency: list
    k_map: dict
    o: int = -1
    kappa: float = 0.0

    @property
    def n_pieces(self):
        return len(self.triples)


@dataclass
class CoveringValidation:
    Q1_emp: int
    Q2_emp: float
    Q1_bound: float
    Q2_bound: float
    axioms_pass: dict
    overlap_sums: dict
    uncovered: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

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
    if not (0 <= o < space.n):
        raise NoBasePoint(str(o))
    d = space.dist_from(o)
    res = space.resolution
    d_max = float(d.max())
    if d_max == 0:
        return KappaDecomposition(o, kappa, [], {}, np.empty(0, dtype=np.int64), [])
    lev = _vertex_levels(d, kappa)
    i_top = int(math.floor(math.log(d_max) / math.log(kappa) + 1e-9))
    keep = (d > 0) & (lev <= i_top)
    truncated = np.flatnonzero((d > 0) & (lev > i_top))

    raw = {}  # (level, a) -> member array
    levels = sorted(set(int(l) for l in lev[keep]))
    for i in levels:
        shell = np.flatnonzero(keep & (lev == i))
        n_comp, labels = space.induced_components(shell)
        comps = sorted((shell[labels == k] for k in range(n_comp)), key=lambda c: int(c.min()))
        for a, comp in enumerate(comps):
            raw[(i, a)] = comp

    is_lambda = {
        key: bool(d[members].max() >= kappa ** key[0] - res)
        for key, members in raw.items()
    }
    # Bottom-most level pieces always count as full pieces: there is no
    # level below to merge into.
    for key in raw:
        if key[0] == levels[0]:
            is_lambda[key] = True

    owner = np.full(space.n, -1, dtype=np.int64)
    keys = sorted(raw)
    key_id = {k: idx for idx, k in enumerate(keys)}
    for k, members in raw.items():
        owner[members] = key_id[k]

    members_now = {k: list(v) for k, v in raw.items()}
    merged_from = {}
    for key in keys:
        if is_lambda[key]:
            continue
        i, a = key
        # count ambient edges from this piece to candidate pieces one level
        # down that reach their outer shell
        counts = {}
        for u in raw[key]:
            for v in space.vertex_degree_neighbors(u):
                ok = owner[v]
                if ok < 0 or ok == key_id[key]:
                    continue
                tgt = keys[ok]
                if tgt[0] < i and is_lambda.get(tgt, False):
                    counts[tgt] = counts.get(tgt, 0) + 1
        preferred = {k: c for k, c in counts.items() if k[0] == i - 1}
        pool = preferred or counts
        if not pool:
            # no merge target: keep the thin piece as its own (flagged by
            # touches_outer=False downstream)
            is_lambda[key] = True
            continue
        target = min(pool, key=lambda k: (-pool[k], k))
        members_now[target].extend(raw[key])
        for u in raw[key]:
            owner[u] = key_id[target]
        merged_from[key] = target

    pieces = []
    for key in keys:
        if not is_lambda[key] or key in merged_from:
            continue
        i, a = key
        members = np.array(sorted(members_now[key]), dtype=np.int64)
        dm = d[members]
        pieces.append(
            Piece(
                level=i,
                index=a,
                members=members,
                touches_inner=bool(dm.min() <= kappa ** (i - 1) + 2 * res),
                touches_outer=bool(dm.max() >= kappa**i - 2 * res),
            )
        )
    return KappaDecomposition(o, kappa, pieces, merged_from, truncated, levels)


def _piece_graph_edges(space, member_sets):
    """Unordered pairs of pieces joined by an ambient edge or shared vertex."""
    owner = np.full(space.n, -1, dtype=np.int64)
    for idx, members in enumerate(member_sets):
        owner[members] = idx
    pairs = set()
    eu = owner[space.edges[:, 0]]
    ev = owner[space.edges[:, 1]]
    mask = (eu >= 0) & (ev >= 0) & (eu != ev)
    for a, b in zip(eu[mask], ev[mask]):
        pairs.add((min(int(a), int(b)), max(int(a), int(b))))
    return sorted(pairs)


def expand_covering(space, decomp):
    """Grow each piece into (U, U*, U#) triples.

    U* is the union of U over closure-adjacent pieces (including itself),
    and U# the union of U* over pieces whose U* touch.  The designated
    k(i, j) of an adjacent pair is its lexicographically smaller piece, so
    U_i and U_j are both contained in U*_k.
    """
    member_sets = [p.members for p in decomp.pieces]
    n = len(member_sets)
    adj = _piece_graph_edges(space, member_sets)
    hops = _piece_distances(n, adj)

    def near(i, radius):
        """Union of the pieces within `radius` hops of piece i."""
        return np.unique(np.concatenate([member_sets[j] for j in np.flatnonzero(hops[i] <= radius)]))

    triples = [(member_sets[i], near(i, 1), near(i, 4)) for i in range(n)]
    labels = [(p.level, p.index) for p in decomp.pieces]
    k_map = {}
    for a, b in adj:
        k_map[(a, b)] = a if labels[a] <= labels[b] else b
    return GoodCovering(
        triples=triples,
        labels=labels,
        levels=[p.level for p in decomp.pieces],
        adjacency=adj,
        k_map=k_map,
        o=decomp.o,
        kappa=decomp.kappa,
    )


def _piece_distances(n, adj_pairs):
    if n == 0:
        return np.zeros((0, 0))
    rows = [a for a, b in adj_pairs] + [b for a, b in adj_pairs]
    cols = [b for a, b in adj_pairs] + [a for a, b in adj_pairs]
    mat = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return csgraph.shortest_path(mat, unweighted=True, directed=False)


def validate_covering(covering, space, weight=None, Q1_bound=None, Q2_bound=None):
    """Check good-covering axioms (1)-(4) plus the overlap-sum corollaries.

    Axioms are checked with both the base measure m and mu = weight * m.
    U# sets are unions of pieces within piece-graph distance 4, so two U#
    closures touch exactly when their pieces are within distance 9; the
    overlap count of axiom (3) is computed from that distance matrix.
    """
    m = space.measure
    w = np.ones(space.n) if weight is None else np.asarray(weight, dtype=float)
    mu = w * m
    n = covering.n_pieces
    dist_pg = _piece_distances(n, covering.adjacency)

    ax1 = all(
        set(U).issubset(Ustar) and set(Ustar).issubset(Usharp)
        for U, Ustar, Usharp in covering.triples
    )

    covered = (
        np.unique(np.concatenate([U for U, _, _ in covering.triples]))
        if n
        else np.empty(0, dtype=np.int64)
    )
    excluded = {covering.o} if covering.o >= 0 else set()
    uncovered = np.array(
        sorted(set(range(space.n)) - set(covered.tolist()) - excluded),
        dtype=np.int64,
    )
    # truncated tail vertices (beyond the last complete level) are declared
    # exclusions, like the base point
    if covering.kappa > 1 and covering.o >= 0 and len(uncovered):
        d = space.dist_from(covering.o)
        top = max(covering.levels) if covering.levels else 0
        uncovered = uncovered[d[uncovered] < covering.kappa**top]
    ax2 = len(uncovered) == 0

    Q1_emp = int((dist_pg <= 9).sum(axis=1).max()) if n else 0

    Q2_emp = 0.0
    ax4 = True
    for pair in covering.adjacency:
        k = covering.k_map[pair]
        Uk_star = covering.triples[k][1]
        for a in pair:
            if not set(covering.triples[a][0]).issubset(Uk_star):
                ax4 = False
        for meas in (m, mu):
            mk = meas[Uk_star].sum()
            denom = min(meas[covering.triples[a][0]].sum() for a in pair)
            if denom > 0:
                Q2_emp = max(Q2_emp, mk / denom)

    star_count = np.zeros(space.n, dtype=np.int64)
    for _, Ustar, _ in covering.triples:
        star_count[Ustar] += 1
    q1_sum = int(star_count.max()) if n else 0

    k_count = np.zeros(space.n, dtype=np.int64)
    for pair in covering.adjacency:
        Uk_star = covering.triples[covering.k_map[pair]][1]
        k_count[Uk_star] += 2  # both orientations of the adjacent pair
    q12_sum = int(k_count.max()) if n else 0

    if Q1_bound is None:
        Q1_bound = float(Q1_emp)
    if Q2_bound is None:
        Q2_bound = float(Q2_emp)
    axioms_pass = {
        "axiom1_nested": ax1,
        "axiom2_cover": ax2,
        "axiom3_overlap": Q1_emp <= Q1_bound,
        "axiom4_measure": bool(ax4) and Q2_emp <= Q2_bound,
        "eq_Q1": q1_sum <= Q1_emp,
        "eq_Q12": q12_sum <= Q1_emp**3,
    }
    return CoveringValidation(
        Q1_emp=Q1_emp,
        Q2_emp=float(Q2_emp),
        Q1_bound=float(Q1_bound),
        Q2_bound=float(Q2_bound),
        axioms_pass=axioms_pass,
        overlap_sums={"eq_Q1": q1_sum, "eq_Q12": q12_sum},
        uncovered=uncovered,
    )


def greedy_net(space, subset, radius):
    """Greedy farthest-point net of `subset`.

    Points are pairwise at distance >= radius/2 and the (radius/2)-balls
    around them cover the subset (so radius-balls certainly do); greedy
    insertion stops when no point is farther than radius/2 from the net.
    Deterministic: starts at the smallest index, ties break by index.
    """
    subset = np.array(sorted(int(v) for v in subset), dtype=np.int64)
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


def annulus_piece_covering(space, o, R, alpha, delta, A, flavor, lam=2.0):
    """Ball covering of a connected subset A of the annulus A(o, R, alpha R).

    flavor="sobolev": net radius rho/3 with triples (B_rho/3, B_rho, B_rho);
    flavor="poincare": net radius rho/lam with triples
    (B_rho/lam, B_rho, B_lam*rho), where rho = delta * R.  The union of U's
    covers A and every U# stays inside the rho- (resp. lam*rho-) fattening
    of A.
    """
    rho = delta * R
    if rho < space.resolution:
        raise RhoBelowResolution(f"rho={rho} < resolution={space.resolution}")
    A = np.array(sorted(int(v) for v in A), dtype=np.int64)
    d = space.dist_from(o)[A]
    if len(A) == 0 or d.min() < R - 1e-9 or d.max() >= alpha * R:
        raise PieceNotInAnnulus("A is not inside the annulus [R, alpha R)")
    if flavor == "sobolev":
        net_r, radii = rho / 3, (rho / 3, rho, rho)
    elif flavor == "poincare":
        net_r, radii = rho / lam, (rho / lam, rho, lam * rho)
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
    # adjacency on the U sets (closure touch = shared vertex or ambient edge)
    adj = []
    sets = [set(map(int, t[0])) for t in triples]
    for i in range(len(net)):
        for j in range(i + 1, len(net)):
            if sets[i] & sets[j]:
                adj.append((i, j))
                continue
            ui = np.fromiter(sets[i], dtype=np.int64)
            for u in ui:
                if sets[j] & set(map(int, space.vertex_degree_neighbors(u))):
                    adj.append((i, j))
                    break
    k_map = {pair: pair[0] for pair in adj}
    cov = GoodCovering(
        triples=triples,
        labels=[(0, i) for i in range(len(net))],
        levels=[0] * len(net),
        adjacency=adj,
        k_map=k_map,
        o=o,
        kappa=0.0,
    )
    cov.net = net
    cov.net_radius = net_r
    cov.rho = rho
    return cov
