"""Finite metric measure spaces with a shortest-path metric.

A space is a connected edge-weighted graph together with a positive vertex
measure.  The metric is the shortest-path distance, so every space is
graph-geodesic by construction; an edge listed twice keeps its shorter
length.  Queries (balls, annuli, ball masses) are pure and cheap.  Distances
are never materialized all-pairs: each source's row is computed on demand by
Dijkstra, run directed on the adjacency (symmetric by construction, so scipy
builds no transpose per row).  A full row is kept in a least-recently-used
cache capped in bytes, so memory stays bounded however many rows are read.
A row asked for only up to a `limit` is cut from a cached full row, or else
stops its search there and is not cached.  The profile fits and the test
family's tents and indicators read one stream of rows, `profile_rows`: the
profile centers in farthest-point order, each row read once, only as far
as the profile's balls reach.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse import csgraph

from .errors import DisconnectedGraph, NoBasePoint, NonPositiveLength, NonPositiveMass, NotAhlfors

# Byte cap of the per-source distance row cache; the least recently used
# rows are evicted first.  Truncated rows are never cached (they are cut from
# a cached row when there is one), and a check holds one profile row at a
# time, which its doubling masses, Poincare balls, tents and indicators all
# read.  So the checks hold few rows: hardy plus weighted-sobolev leave the
# diameter's rows and o's, 4, 7 and 3 full rows (0.14, 1.41 and 0.49 MB), on
# grid_quadrant(64), sector_union(0.25) and cone_grid(101, 2), and the cap
# leaves room for reuse across checks.
ROW_CACHE_BYTES = 256 * 2**20

# Largest Ahlfors regularity constant C_A that `ahlfors_fit` accepts.
AHLFORS_CAP = 100.0


class FiniteMetricMeasureSpace:
    """Vertex set with shortest-path metric and positive vertex measure.

    Attributes
    ----------
    n : int
        Vertex count.
    coords : (n, 2) ndarray or None
        Optional planar positions: rendering draws them, and the sampled
        Poincare estimate sweeps their sum x + y as a test function.
    edges : (m, 2) int ndarray
    lengths : (m,) float ndarray
    measure : (n,) float ndarray
    resolution : float
        Length of the shortest edge (1.0 for a single isolated vertex).
    """

    def __init__(self, n, edges, lengths, measure, coords=None):
        self.n = int(n)
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.lengths = np.asarray(lengths, dtype=float).reshape(-1)
        self.measure = np.asarray(measure, dtype=float).reshape(-1)
        self.coords = None if coords is None else np.asarray(coords, dtype=float)
        self._validate()
        self.resolution = float(self.lengths.min()) if len(self.lengths) else 1.0
        self.total_mass = float(self.measure.sum())
        self.adjacency = _shortest_edge_adjacency(self.n, self.edges, self.lengths)
        if self.n > 1:
            # symmetric, so its strong components are its components
            ncomp, _ = csgraph.connected_components(self.adjacency, connection="strong")
            if ncomp != 1:
                raise DisconnectedGraph(f"{ncomp} components")

        # No dense distance matrix is ever built; perfbench's tracer is the
        # only reader of _dist and counts its bytes when it is set.
        self._dist = None
        self._dist_cache: OrderedDict[int, np.ndarray] = OrderedDict()
        self._cache_bytes = 0
        self._diameter = None
        for arr in (self.edges, self.lengths, self.measure):
            arr.setflags(write=False)
        if self.coords is not None:
            self.coords.setflags(write=False)

    def _validate(self):
        if self.n < 1:
            raise NonPositiveMass("space needs at least one vertex")
        if not np.all(self.lengths > 0) or not np.all(np.isfinite(self.lengths)):
            raise NonPositiveLength("all edge lengths must be > 0 and finite")
        if np.any(self.measure <= 0) or not np.all(np.isfinite(self.measure)):
            raise NonPositiveMass("all vertex masses must be > 0 and finite")
        if len(self.measure) != self.n:
            raise NonPositiveMass("measure length does not match vertex count")
        if len(self.edges) and (self.edges.min() < 0 or self.edges.max() >= self.n):
            raise DisconnectedGraph("edge endpoint out of range")

    # -- metric queries ----------------------------------------------------

    def dist_from(self, x, limit=np.inf):
        """Distance row from vertex x.

        With `limit` = inf this is the full row, kept read-only in the LRU
        cache.  A finite `limit` gives a row whose entries with d <= limit
        are bit-identical to the full row (Dijkstra's value at v is the
        minimum over neighbours settled before v, whatever comes after) and
        whose every other entry is inf: cut from the cached full row when
        there is one, else from one Dijkstra that stops at the limit.
        Either way the cache is left as it was, so a cached row is always
        complete.  A source outside 0..n-1 raises NoBasePoint.
        """
        if not 0 <= x < self.n:
            raise NoBasePoint(f"vertex {x} is outside 0..{self.n - 1}")
        row = self._dist_cache.get(x)
        if limit != np.inf:
            if row is not None:
                return np.where(row <= limit, row, np.inf)
            return csgraph.dijkstra(self.adjacency, directed=True, indices=x, limit=limit)
        if row is not None:
            self._dist_cache.move_to_end(x)
            return row
        row = csgraph.dijkstra(self.adjacency, directed=True, indices=x)
        row.setflags(write=False)
        while self._dist_cache and self._cache_bytes + row.nbytes > ROW_CACHE_BYTES:
            _, old = self._dist_cache.popitem(last=False)
            self._cache_bytes -= old.nbytes
        self._dist_cache[x] = row
        self._cache_bytes += row.nbytes
        return row

    def dist_to_set(self, A, limit=np.inf):
        """min_{x in A} d(x, .) from one multi-source Dijkstra, not cached.

        Entries farther than `limit` from A are inf, and the search stops
        there, so the cost scales with the limit-neighbourhood of A.
        """
        sources = np.asarray(A, dtype=np.int64)
        return csgraph.dijkstra(
            self.adjacency, directed=True, indices=sources, min_only=True, limit=limit
        )

    def dist(self, x, y):
        return float(self.dist_from(x)[y])

    def eccentricity(self, x):
        return float(self.dist_from(x).max())

    def diameter(self):
        """Exact diameter (the largest eccentricity), computed once.

        Bounding eccentricities (Takes & Kosters, CIKM 2011): each row read
        from a vertex v bounds every eccentricity by
        max(ecc(v) - d(v, w), d(v, w)) <= ecc(w) <= ecc(v) + d(v, w), and
        vertices whose bounds can no longer move the diameter's bounds are
        dropped.  Sources alternate between the candidate with the largest
        upper bound and the one with the smallest lower bound.  Gallery
        spaces settle after a handful of rows.  The result is the largest
        entry of one computed row; as Dijkstra sums a path's lengths from
        its source, d(x, y) and d(y, x) can differ in the last bits, and the
        result may be the smaller of the two.
        """
        if self._diameter is None:
            lo = np.zeros(self.n)
            hi = np.full(self.n, np.inf)
            live = np.ones(self.n, dtype=bool)
            d_lo, d_hi = 0.0, np.inf
            pick_high = True
            while d_lo < d_hi and live.any():
                cand = np.flatnonzero(live)
                v = cand[np.argmax(hi[cand])] if pick_high else cand[np.argmin(lo[cand])]
                pick_high = not pick_high
                d = self.dist_from(v)
                ecc = float(d.max())
                d_lo, d_hi = max(d_lo, ecc), min(d_hi, 2.0 * ecc)
                lo = np.maximum(lo, np.maximum(ecc - d, d))
                hi = np.minimum(hi, ecc + d)
                live &= ~(((hi <= d_lo) & (lo >= d_hi / 2.0)) | (lo == hi))
                if live.any():
                    d_hi = min(d_hi, float(hi[live].max()))
            self._diameter = d_lo
        return self._diameter

    def ball(self, x, r):
        """Open ball {y : d(x, y) < r} as an index array."""
        if r <= 0:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.dist_from(x) < r)

    def annulus(self, o, r, R):
        """Half-open shell {y : r <= d(o, y) < R}.

        Half-open so that shells at consecutive radii partition the space;
        discrete spheres carry mass, unlike in the continuum.
        """
        d = self.dist_from(o)
        return np.flatnonzero((d >= r) & (d < R))

    def ball_mass(self, x, r):
        if r <= 0:
            return 0.0
        return float(self.measure[self.dist_from(x) < r].sum())

    def induced_components(self, vertices):
        """Connected components of the subgraph induced on `vertices`.

        Returns (count, labels), labels aligned with `vertices`.
        """
        sub = self.adjacency[np.ix_(vertices, vertices)]
        return csgraph.connected_components(sub, directed=False)


def _shortest_edge_adjacency(n, edges, lengths):
    """Symmetric CSR adjacency holding, for each unordered vertex pair, the
    shortest length among its edges (csr_matrix alone would sum them)."""
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    key = lo * n + hi
    order = np.lexsort((lengths, key))
    keep = order[np.diff(key[order], prepend=-1) != 0]
    lo, hi, vals = lo[keep], hi[keep], lengths[keep]
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    return csr_matrix((np.concatenate([vals, vals]), (rows, cols)), shape=(n, n))


def build_space(vertices, edges, measure, coords=None):
    """Build and validate a space from raw vertex/edge/measure data.

    `vertices` is the vertex count; `edges` is a list of (u, v, length).
    A single vertex with no edges is a valid (degenerate) space.
    """
    edges = list(edges)
    if edges:
        e = np.array([(u, v) for u, v, _ in edges], dtype=np.int64)
        lens = np.array([l for _, _, l in edges], dtype=float)
    else:
        if vertices > 1:
            raise DisconnectedGraph("multiple vertices but no edges")
        e = np.empty((0, 2), dtype=np.int64)
        lens = np.empty(0)
    return FiniteMetricMeasureSpace(vertices, e, lens, measure, coords)


@dataclass(frozen=True)
class SpaceProfile:
    """Doubling estimate: C_D = sup m(B_2r)/m(B_r) over the sample grid."""

    C_D: float
    Q: float

    def __post_init__(self):
        assert self.C_D >= 1.0 and self.Q >= 0.0


@dataclass(frozen=True)
class AhlforsParams:
    Q: float
    C_A: float

    def __post_init__(self):
        assert self.C_A >= 1.0


def default_profile_samples(space):
    """(count, radii, limit) of the profile grid.

    `count` centers, taken by `profile_rows`: n / max(1, n // 64) rounded
    up, 65 on the gallery's benchmark spaces.  Radii run dyadically from 4x
    the resolution (smaller radii alias the lattice) up to a quarter of the
    diameter, so the doubled ball stays below diameter/2.  Each center's row
    is read up to `limit` = 2 max(radii) + the longest edge, as far as the
    doubled balls and the neighbours of every doubled ball reach.
    """
    diam = space.diameter()
    r = 4.0 * space.resolution
    radii = []
    while r <= diam / 4 + 1e-12:
        radii.append(r)
        r *= 2.0
    radii = radii or [max(space.resolution, diam / 4)]
    longest = float(space.lengths.max()) if len(space.lengths) else 0.0
    return -(-space.n // max(1, space.n // 64)), radii, 2.0 * radii[-1] + longest


def profile_rows(space):
    """(x, row of x) for each profile center x, every row read once, to the
    grid's limit.

    The centers come in farthest-point order from vertex 0: each next one
    is the first vertex farthest from those before, as their rows read it
    (past the limit a distance counts as inf), so the centers spread over
    the space within 2x of the best covering radius (T. Gonzalez, Theor.
    Comput. Sci. 1985).  The order is a running minimum over the rows.
    """
    count, _, limit = default_profile_samples(space)
    near = np.full(space.n, np.inf)
    x = 0
    for _ in range(count):
        d = space.dist_from(x, limit=limit)
        yield x, d
        near = np.minimum(near, np.where(d <= limit, d, np.inf))
        x = int(np.argmax(near))


def _row_masses(space, d, radii):
    """m(B_r(x)) at each increasing positive radius r, from the row d of x:
    each sums the same elements in the same order as measure[d < r].sum(),
    from the ball of the largest radius, gathered once."""
    ball = np.flatnonzero(d < radii[-1])
    dB, mB = d[ball], space.measure[ball]
    return [mB[dB < r].sum() for r in radii]


def _ball_masses(space, radii):
    """m(B_r(x)), one row per profile center x and one column per
    increasing positive radius r."""
    return np.array([_row_masses(space, d, radii) for _, d in profile_rows(space)])


def _doubling(masses):
    """SpaceProfile of a mass matrix whose every radius is twice the one
    before, so that m(B_2r) is the next column."""
    best = max(1.0, float((masses[:, 1:] / masses[:, :-1]).max()))
    return SpaceProfile(best, math.log2(best))


def doubling_profile(space):
    """Estimate the doubling constant C_D and dimension Q = log2 C_D over
    `default_profile_samples`, whose radii are all positive: every ball
    holds its center and has positive mass (a single vertex gives C_D = 1)."""
    _, radii, _ = default_profile_samples(space)
    return _doubling(_ball_masses(space, radii + [2 * radii[-1]]))


def _radial_masses(space, o):
    """Dyadic radii from the resolution up to the eccentricity of o, and
    m(B_r(o)) at each."""
    rmax = space.eccentricity(o)
    radii = []
    r = space.resolution
    while r <= rmax:
        radii.append(r)
        r *= 2.0
    if radii and radii[-1] < rmax:
        radii.append(rmax)
    return radii, [space.ball_mass(o, r) for r in radii]


def reverse_doubling_fit(space, o, eta):
    """Largest C_o with m(B_R(o))/m(B_r(o)) >= C_o (R/r)^eta over the
    increasing radii of `_radial_masses`, each ball holding o.

    Returns the raw infimum, which honestly approaches 0 when reverse
    doubling with exponent eta fails.
    """
    radii, masses = _radial_masses(space, o)
    best = math.inf
    for i, (r, mr) in enumerate(zip(radii, masses)):
        for R, mR in zip(radii[i:], masses[i:]):
            best = min(best, (mR / mr) * (r / R) ** eta)
    return best if best < math.inf else 0.0


def ahlfors_fit(space):
    """Least-squares Ahlfors exponent Q and regularity constant C_A over
    `default_profile_samples`.

    Raises NotAhlfors when the fitted C_A exceeds `AHLFORS_CAP` or the
    sample grid is degenerate (fewer than two radii).  Every sample radius
    is positive, so every ball holds its center and has positive mass.
    """
    count, radii, _ = default_profile_samples(space)
    if len(radii) < 2:
        raise NotAhlfors("degenerate sample set")
    rs = radii * count
    ms = _ball_masses(space, radii).ravel().tolist()
    Q = float(np.polyfit(np.log(rs), np.log(ms), 1)[0])
    C_A = max(1.0, max(max(m / r**Q, r**Q / m) for r, m in zip(rs, ms)))
    if C_A > AHLFORS_CAP:
        raise NotAhlfors(f"C_A={C_A:.3g} exceeds cap {AHLFORS_CAP}")
    return AhlforsParams(Q=Q, C_A=C_A)
