"""Benchmark space generators and space-file I/O.

Four families: a unit grid quadrant (planar, volume growth ~ r^2), a planar
union of circular sectors glued through the unit ball (the stress test for
annulus decompositions), a measured half-line realizing growth ~ r^eta
through vertex masses, and a cone-like radial/angular grid that keeps every
annulus connected.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, SchemaError
from .space import FiniteMetricMeasureSpace, build_space

GALLERY_KINDS = ("grid_quadrant", "sector_union", "radial_profile", "cone_grid")


@dataclass(frozen=True)
class GallerySpec:
    kind: str
    size: int = 64
    eta: float = 2.0
    resolution: float = 0.25
    r_max: float = 40.0  # sector_union radial truncation

    def __post_init__(self):
        if self.kind not in GALLERY_KINDS:
            raise InvalidSpec(f"unknown kind {self.kind!r}")
        if self.size < 2 and self.kind != "sector_union":
            raise InvalidSpec("size must be >= 2")
        if self.eta < 1:
            raise InvalidSpec("eta must be >= 1")
        if self.resolution <= 0:
            raise InvalidSpec("resolution must be > 0")


def grid_quadrant(n):
    """(n+1)^2 unit-grid quadrant with unit edges and unit masses."""
    side = n + 1
    idx = lambda i, j: i * side + j
    edges = []
    for i in range(side):
        for j in range(side):
            if i + 1 < side:
                edges.append((idx(i, j), idx(i + 1, j), 1.0))
            if j + 1 < side:
                edges.append((idx(i, j), idx(i, j + 1), 1.0))
    coords = [(i, j) for i in range(side) for j in range(side)]
    return build_space(side * side, edges, np.ones(side * side), coords)


def _in_sector_union(x, y, r_max):
    """Membership in the closed sector-union region.

    Three sectors glued to the closed unit ball: an unbounded 90-degree
    sector around the positive x-axis (truncated at r_max), a thin
    second-quadrant sector of radius 20, and a third-quadrant sector of
    radius 17 with an open radial block removed.  Boundary points are
    included (closure convention).
    """
    r = math.hypot(x, y)
    if r <= 1.0:
        return True
    theta = math.atan2(y, x) % (2 * math.pi)
    tol = 1e-9
    # A1: theta in [-pi/4, pi/4], unbounded (truncated at r_max)
    if r <= r_max + tol:
        t = theta if theta <= math.pi else theta - 2 * math.pi
        if -math.pi / 4 - tol <= t <= math.pi / 4 + tol:
            return True
    # A2: theta in [pi/2, 3pi/4], r <= 20
    if r <= 20.0 + tol and math.pi / 2 - tol <= theta <= 3 * math.pi / 4 + tol:
        return True
    # A3: theta in [pi, 3pi/2], r <= 17, minus open block
    if r <= 17.0 + tol and math.pi - tol <= theta <= 3 * math.pi / 2 + tol:
        in_block = (3.0 + tol < r < 15.0 - tol) and (
            5 * math.pi / 4 + tol < theta < 7 * math.pi / 4 - tol
        )
        if not in_block:
            return True
    return False


def sector_union(resolution, r_max=40.0):
    """Grid discretization of the three-sector region at step `resolution`.

    Vertices are grid points whose continuum coordinates lie in the closed
    region; edges join axis-neighbors at distance `resolution`.
    """
    h = float(resolution)
    span = int(math.ceil(max(r_max, 20.0) / h)) + 1
    pts = {}
    coords = []
    for i in range(-span, span + 1):
        for j in range(-span, span + 1):
            x, y = i * h, j * h
            if _in_sector_union(x, y, r_max):
                pts[(i, j)] = len(coords)
                coords.append((x, y))
    edges = []
    for (i, j), u in pts.items():
        for di, dj in ((1, 0), (0, 1)):
            v = pts.get((i + di, j + dj))
            if v is not None:
                edges.append((u, v, h))
    # Sector boundaries can strand isolated grid points; keep the component
    # of the origin.
    from scipy.sparse import csr_matrix
    from scipy.sparse import csgraph

    m = len(coords)
    if edges:
        rows = [u for u, _, _ in edges] + [v for _, v, _ in edges]
        cols = [v for _, v, _ in edges] + [u for u, _, _ in edges]
        adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(m, m))
        _, labels = csgraph.connected_components(adj, directed=False)
        keep = labels == labels[pts[(0, 0)]]
    else:
        keep = np.ones(m, dtype=bool)
    remap = -np.ones(m, dtype=np.int64)
    remap[keep] = np.arange(int(keep.sum()))
    coords = [c for c, k in zip(coords, keep) if k]
    edges = [(int(remap[u]), int(remap[v]), l) for u, v, l in edges if keep[u] and keep[v]]
    return build_space(len(coords), edges, np.ones(len(coords)), coords)


def sector_union_origin(space):
    """Index of the grid point at the origin."""
    d = np.einsum("ij,ij->i", space.coords, space.coords)
    return int(np.argmin(d))


def radial_profile(n, eta):
    """Path 1..n with mass(k) = k^(eta-1), so m(B_r(1)) grows like r^eta."""
    masses = np.arange(1, n + 1, dtype=float) ** (eta - 1.0)
    edges = [(k, k + 1, 1.0) for k in range(n - 1)]
    coords = [(k, 0.0) for k in range(n)]
    return build_space(n, edges, masses, coords)


def cone_grid(n, eta, c=4):
    """Radial/angular grid with ceil(c * r^(eta-1)) points on ring r.

    Unit masses; ring vertices sit on a cycle (arc-length edges) and each
    connects radially to the angularly nearest vertex one ring in.  The
    angular density keeps every annulus connected, so the relatively
    connected annuli property holds by construction.
    """
    counts = [max(1, int(math.ceil(c * r ** (eta - 1.0)))) for r in range(1, n + 1)]
    coords = [(0.0, 0.0)]
    ring_start = []
    for r, cnt in enumerate(counts, start=1):
        ring_start.append(len(coords))
        for k in range(cnt):
            ang = 2 * math.pi * k / cnt
            coords.append((r * math.cos(ang), r * math.sin(ang)))
    edges = []
    for r, cnt in enumerate(counts, start=1):
        s = ring_start[r - 1]
        if cnt > 1:
            arc = 2 * math.pi * r / cnt
            for k in range(cnt):
                edges.append((s + k, s + (k + 1) % cnt, arc))
        if r == 1:
            for k in range(cnt):
                edges.append((0, s + k, 1.0))
        else:
            prev_s, prev_cnt = ring_start[r - 2], counts[r - 2]
            for k in range(cnt):
                frac = k / cnt
                nearest = int(round(frac * prev_cnt)) % prev_cnt
                edges.append((s + k, prev_s + nearest, 1.0))
    # dedupe cycle edges for cnt == 2 (both directions coincide)
    seen = set()
    uniq = []
    for u, v, l in edges:
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            uniq.append((u, v, l))
    return build_space(len(coords), uniq, np.ones(len(coords)), coords)


def path_space(n, step=1.0, x0=0.0, masses=None):
    """Uniform path of n vertices at spacing `step` (utility for tests/demos)."""
    if masses is None:
        masses = np.ones(n)
    edges = [(k, k + 1, step) for k in range(n - 1)]
    coords = [(x0 + k * step, 0.0) for k in range(n)]
    return build_space(n, edges, masses, coords)


def generate(spec):
    """Generate the space described by a GallerySpec."""
    if spec.kind == "grid_quadrant":
        return grid_quadrant(spec.size)
    if spec.kind == "sector_union":
        return sector_union(spec.resolution, spec.r_max)
    if spec.kind == "radial_profile":
        return radial_profile(spec.size, spec.eta)
    if spec.kind == "cone_grid":
        return cone_grid(spec.size, spec.eta)
    raise InvalidSpec(spec.kind)


def space_document(space):
    """The {vertices, edges, measure} document of the space-file schema."""
    return {
        "vertices": space.n,
        "edges": [[u, v, l] for (u, v), l in zip(space.edges.tolist(), space.lengths.tolist())],
        "measure": space.measure.tolist(),
    }


def save_space(space, path):
    """Write a space, with its coordinates if any, in the schema the loader reads."""
    doc = space_document(space)
    if space.coords is not None:
        doc["coords"] = space.coords.tolist()
    # json.dumps encodes in C in one pass; json.dump streams the text
    # through the pure-Python encoder
    text = json.dumps(doc)
    with open(path, "w") as fh:
        fh.write(text)


def load_space(path):
    """Load and validate a space file; raises SchemaError with the bad field.

    Arrays are built straight from the decoded lists.  Only a file that
    fails a check is walked entry by entry, to name the first bad entry.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("json", str(exc)) from exc
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise SchemaError("vertices", "missing")
    n = doc["vertices"]
    if type(n) is not int or n < 1:
        raise SchemaError("vertices", "must be a positive integer")
    # the measure first: its length bounds n, and so every valid endpoint
    measure = _number_array(doc.get("measure"), n, "measure", positive=True)
    edges, lengths = _edge_arrays(doc.get("edges", []), n)
    coords = doc.get("coords")
    if coords is not None:
        if type(coords) is not list or len(coords) != n:
            raise SchemaError("coords", "wrong length")
        if set(map(type, coords)) != {list} or set(map(len, coords)) != {2}:
            k = next(k for k, c in enumerate(coords) if type(c) is not list or len(c) != 2)
            raise SchemaError("coords", f"entry {k} is not (x, y)")
        x, y = zip(*coords)
        coords = np.column_stack([_number_array(list(c), n, "coords") for c in (x, y)])
    return FiniteMetricMeasureSpace(n, edges, lengths, measure, coords)


_NUMBER = {int, float}


def _not_number(v, positive=False):
    """True unless v is a finite JSON number (and > 0 if `positive`)."""
    if type(v) not in _NUMBER:
        return True
    try:
        v = float(v)
    except OverflowError:
        return True
    return not math.isfinite(v) or (positive and v <= 0)


def _number_array(values, n, field, positive=False):
    """`values` as a float array of n finite numbers (all > 0 if `positive`)."""
    if type(values) is not list or len(values) != n:
        raise SchemaError(field, "missing or wrong length")
    if set(map(type, values)) <= _NUMBER:
        try:
            out = np.array(values, dtype=float)
        except OverflowError:  # an int beyond the float range, found below
            pass
        else:
            if np.isfinite(out).all() and (not positive or (out > 0).all()):
                return out
    k = next(k for k, v in enumerate(values) if _not_number(v, positive))
    raise SchemaError(field, f"entry {k} is not a finite{' positive' if positive else ''} number")


def _edge_arrays(edges, n):
    """(m, 2) endpoints and (m,) lengths of the schema's edge list."""
    if type(edges) is not list:
        raise SchemaError("edges", "must be a list of (u, v, length)")
    if not edges:
        return np.empty((0, 2), dtype=np.int64), np.empty(0)
    if set(map(type, edges)) == {list} and set(map(len, edges)) == {3}:
        flat = list(itertools.chain.from_iterable(edges))
        u, v, l = flat[0::3], flat[1::3], flat[2::3]
        if set(map(type, u)) | set(map(type, v)) == {int} and set(map(type, l)) <= _NUMBER:
            try:
                ends = np.column_stack((np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)))
                lengths = np.array(l, dtype=float)
            except OverflowError:  # an int beyond the int64 or float range, found below
                pass
            else:
                in_range = ((ends >= 0) & (ends < n)).all()
                if in_range and np.isfinite(lengths).all() and (lengths > 0).all():
                    return ends, lengths
    k, why = next((k, why) for k, e in enumerate(edges) if (why := _edge_fault(e, n)))
    raise SchemaError("edges", f"entry {k} {why}")


def _edge_fault(e, n):
    """What is wrong with one edge entry, or "" if nothing is."""
    if type(e) is not list or len(e) != 3:
        return "is not (u, v, length)"
    u, v, l = e
    if type(u) is not int or type(v) is not int:
        return "has an endpoint that is not a vertex index"
    if not (0 <= u < n and 0 <= v < n):
        return "references a missing vertex"
    if _not_number(l, positive=True):
        return "has a length that is not a finite positive number"
    return ""


def spaces_equal(a, b):
    """Field-identical comparison used by round-trip tests."""
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    if not (np.array_equal(a.edges, b.edges) and np.array_equal(a.lengths, b.lengths)):
        return False
    if not np.array_equal(a.measure, b.measure):
        return False
    if (a.coords is None) != (b.coords is None):
        return False
    if a.coords is not None and not np.array_equal(a.coords, b.coords):
        return False
    return True
