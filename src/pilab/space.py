"""Finite metric measure spaces with a shortest-path metric.

A space is a connected edge-weighted graph together with a positive vertex
measure.  The metric is the shortest-path distance, so every space is
graph-geodesic by construction; an edge listed twice keeps its shorter
length, a self-loop is dropped, and the resolution, the step and every
row read the lengths that remain.  Queries (balls, annuli) are pure and cheap.
Distances are never materialized all-pairs: each source's row is computed
on demand, by breadth-first search when every edge has one length and by
Dijkstra otherwise, run directed on the adjacency (symmetric by
construction, so scipy builds no transpose per row).  A full row is kept
in a least-recently-used cache capped in bytes, so memory stays bounded
however many rows are read.  A row asked for only up to a `limit` is cut
from a cached full row, or else stops its search there and is not cached.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse import csgraph

from .errors import DisconnectedGraph, NoBasePoint, NonPositiveLength, NonPositiveMass

# Byte cap of the per-source distance row cache; the least recently used
# rows are evicted first.  Truncated rows are never cached (they are cut from
# a cached row when there is one), so only full rows count: hardy plus
# weighted-sobolev leave the diameter's rows and o's, 4, 7 and 3 full rows
# (0.14, 1.41 and 0.49 MB), on grid_quadrant(64), sector_union(0.25) and
# cone_grid(101, 2), and the cap leaves room for reuse across checks.
ROW_CACHE_BYTES = 256 * 2**20


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
        Length of the shortest edge of the adjacency (1.0 when it has none).
    step : float or None
        The length of every edge of the adjacency, None if they differ.
    """

    def __init__(self, n, edges, lengths, measure, coords=None):
        self.n = int(n)
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.lengths = np.asarray(lengths, dtype=float).reshape(-1)
        self.measure = np.asarray(measure, dtype=float).reshape(-1)
        self.coords = None if coords is None else np.asarray(coords, dtype=float)
        self._validate()
        self.total_mass = float(self.measure.sum())
        self.adjacency = _shortest_edge_adjacency(self.n, self.edges, self.lengths)
        if self.n > 1:
            # symmetric, so its strong components are its components
            ncomp, _ = csgraph.connected_components(self.adjacency, connection="strong")
            if ncomp != 1:
                raise DisconnectedGraph(f"{ncomp} components")
        data = self.adjacency.data
        self.resolution = float(data.min()) if len(data) else 1.0
        self.step = float(data[0]) if len(data) and (data == data[0]).all() else None

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
        """Distance row from vertex x, from `_search`.

        With `limit` = inf this is the full row, kept read-only in the LRU
        cache.  A finite `limit` gives a row whose entries with d <= limit
        are bit-identical to the full row (Dijkstra's value at v is the
        minimum over neighbours settled before v, whatever comes after) and
        whose every other entry is inf: cut from the cached full row when
        there is one, else from one search that stops at the limit.
        Either way the cache is left as it was, so a cached row is always
        complete.  A source outside 0..n-1 raises NoBasePoint.
        """
        if not 0 <= x < self.n:
            raise NoBasePoint(f"vertex {x} is outside 0..{self.n - 1}")
        row = self._dist_cache.get(x)
        if limit != np.inf:
            if row is not None:
                return np.where(row <= limit, row, np.inf)
            return self._search(x, limit)
        if row is not None:
            self._dist_cache.move_to_end(x)
            return row
        row = self._search(x, np.inf)
        row.setflags(write=False)
        while self._dist_cache and self._cache_bytes + row.nbytes > ROW_CACHE_BYTES:
            _, old = self._dist_cache.popitem(last=False)
            self._cache_bytes -= old.nbytes
        self._dist_cache[x] = row
        self._cache_bytes += row.nbytes
        return row

    def _search(self, x, limit):
        """Dijkstra's row from x, cut at `limit`.  When every edge has one
        length, the same row bit for bit from one breadth-first search: it
        lists vertices level by level (the levels up to h + 1 hold 1 + the
        tree children of those up to h), and level h gets s_h = s_(h-1) +
        step added in float, as Dijkstra adds it; h * step rounds otherwise.
        """
        if self.step is None:
            return csgraph.dijkstra(self.adjacency, directed=True, indices=x, limit=limit)
        order, pred = csgraph.breadth_first_order(self.adjacency, x, directed=True, return_predecessors=True)
        kids = np.cumsum(np.bincount(pred[order[1:]], minlength=self.n)[order])
        ends, vals = [1], [0.0]
        while ends[-1] < self.n and (s := vals[-1] + self.step) <= limit:
            ends.append(int(kids[ends[-1] - 1]) + 1)
            vals.append(s)
        row = np.full(self.n, np.inf)
        row[order[: ends[-1]]] = np.repeat(vals, np.diff(ends, prepend=0))
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
    keep = order[(np.diff(key[order], prepend=-1) != 0) & (lo[order] != hi[order])]
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

