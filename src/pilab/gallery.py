"""Benchmark space generators and space-file I/O.

Four families: a unit grid quadrant (planar, volume growth ~ r^2), a planar
union of circular sectors glued through the unit ball (the stress test for
annulus decompositions), a measured half-line realizing growth ~ r^eta
through vertex masses, and a cone-like radial/angular grid that keeps every
annulus connected.

Generators are array code: vertices, coordinates and edges come from whole
grids and rings at once, in the same numbering and edge order as a loop over
grid points, vertices and edges would give, so saved files do not depend on
how a space was built.  A spec that would exceed MAX_VERTICES vertices (for
sector_union, candidate grid points) raises InvalidSpec before the space's
arrays are allocated.
"""

from __future__ import annotations

import gc
import itertools
import json
import json.scanner
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from .errors import InvalidSpec, SchemaError

# build_space is imported from here by callers of the gallery
from .space import FiniteMetricMeasureSpace, build_space  # noqa: F401

GALLERY_KINDS = ("grid_quadrant", "sector_union", "radial_profile", "cone_grid")

# scipy.sparse.csgraph indexes vertices with int32
MAX_VERTICES = 2**31 - 1


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


def _check_vertex_count(count, what):
    """Refuse a space of more than MAX_VERTICES vertices before building it."""
    if not count <= MAX_VERTICES:  # NaN fails too
        raise InvalidSpec(f"{what} would have {count:.4g} vertices, more than {MAX_VERTICES}")


def _grid_edges(present):
    """(m, 2) unit-step edges between the marked points of a 2D grid.

    Vertices are the marked points numbered row-major.  Each vertex in turn
    lists its edge to (i+1, j), then to (i, j+1), where that point is marked.
    """
    index = np.cumsum(present).reshape(present.shape) - 1
    # per direction (1, 0), (0, 1): the neighbour's index and whether it is marked
    nbr = np.full((2, *present.shape), -1, dtype=np.int64)
    nbr[0, :-1] = index[1:]
    nbr[1, :, :-1] = index[:, 1:]
    has = np.zeros((2, *present.shape), dtype=bool)
    has[0, :-1] = present[:-1] & present[1:]
    has[1, :, :-1] = present[:, :-1] & present[:, 1:]
    nbr, has = nbr[:, present].T, has[:, present].T
    src = np.broadcast_to(index[present][:, None], nbr.shape)
    return np.column_stack((src[has], nbr[has]))


def grid_quadrant(n):
    """(n+1)^2 unit-grid quadrant with unit edges and unit masses."""
    side = n + 1
    _check_vertex_count(side * side, "grid_quadrant")
    edges = _grid_edges(np.ones((side, side), dtype=bool))
    coords = np.column_stack(np.divmod(np.arange(side * side), side))
    return FiniteMetricMeasureSpace(
        side * side, edges, np.ones(len(edges)), np.ones(side * side), coords
    )


def _sector_union_mask(x, y, r_max):
    """Membership of the points (x, y) in the closed sector-union region.

    Three sectors glued to the closed unit ball: an unbounded 90-degree
    sector around the positive x-axis (truncated at r_max), a thin
    second-quadrant sector of radius 20, and a third-quadrant sector of
    radius 17 with an open radial block removed.  Boundary points are
    included (closure convention) up to a tolerance of 1e-9.
    """
    tol = 1e-9
    r = np.hypot(x, y)
    theta = np.arctan2(y, x) % (2 * math.pi)
    # A1: theta in [-pi/4, pi/4], unbounded (truncated at r_max)
    t = np.where(theta <= math.pi, theta, theta - 2 * math.pi)
    in_a1 = (r <= r_max + tol) & (-math.pi / 4 - tol <= t) & (t <= math.pi / 4 + tol)
    # A2: theta in [pi/2, 3pi/4], r <= 20
    in_a2 = (r <= 20.0 + tol) & (math.pi / 2 - tol <= theta) & (theta <= 3 * math.pi / 4 + tol)
    # A3: theta in [pi, 3pi/2], r <= 17, minus open block
    in_a3 = (r <= 17.0 + tol) & (math.pi - tol <= theta) & (theta <= 3 * math.pi / 2 + tol)
    in_block = (3.0 + tol < r) & (r < 15.0 - tol)
    in_block &= (5 * math.pi / 4 + tol < theta) & (theta < 7 * math.pi / 4 - tol)
    return (r <= 1.0) | in_a1 | in_a2 | (in_a3 & ~in_block)


def sector_union(resolution, r_max=40.0):
    """Grid discretization of the three-sector region at step `resolution`.

    Vertices are grid points whose continuum coordinates lie in the closed
    region; edges join axis-neighbors at distance `resolution`.
    """
    h = float(resolution)
    extent = max(r_max, 20.0) / h
    # checked before ceil(), which raises on an infinite or NaN extent
    side = 2 * math.ceil(extent) + 3 if extent < MAX_VERTICES else math.inf
    _check_vertex_count(side * side, "sector_union candidate grid")
    span = (side - 1) // 2
    steps = np.arange(-span, span + 1) * h
    x, y = np.repeat(steps, side), np.tile(steps, side)
    present = _sector_union_mask(x, y, r_max)
    origin = int(np.count_nonzero(present[: span * side + span]))
    edges = _grid_edges(present.reshape(side, side))
    x, y = x[present], y[present]
    # Sector boundaries can strand isolated grid points; keep the component
    # of the origin.
    m = len(x)
    adj = csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(m, m))
    _, labels = csgraph.connected_components(adj, directed=False)
    keep = labels == labels[origin]
    remap = np.cumsum(keep) - 1
    edges = remap[edges[keep[edges[:, 0]]]]
    n = int(keep.sum())
    coords = np.column_stack((x[keep], y[keep]))
    return FiniteMetricMeasureSpace(n, edges, np.full(len(edges), h), np.ones(n), coords)


def sector_union_origin(space):
    """Index of the grid point at the origin."""
    d = np.einsum("ij,ij->i", space.coords, space.coords)
    return int(np.argmin(d))


def radial_profile(n, eta):
    """Path 1..n with mass(k) = k^(eta-1), so m(B_r(1)) grows like r^eta."""
    _check_vertex_count(n, "radial_profile")
    return path_space(n, masses=np.arange(1, n + 1, dtype=float) ** (eta - 1.0))


def _cone_ring_counts(n, eta, c):
    """Points on rings 1..n of cone_grid, refusing too many before counting."""
    # ring r holds max(1, ceil(c r^(eta-1))) points; for eta >= 1 their sum
    # is at least the integral of c x^(eta-1) over [0, n]
    try:
        least = max(n, c * float(n) ** eta / eta) if eta >= 1 else n
    except OverflowError:
        least = math.inf
    _check_vertex_count(1 + least, "cone_grid")
    counts = [max(1, int(math.ceil(c * r ** (eta - 1.0)))) for r in range(1, n + 1)]
    _check_vertex_count(1 + sum(counts), "cone_grid")
    return np.array(counts, dtype=np.int64)


def cone_grid(n, eta, c=4):
    """Radial/angular grid with ceil(c * r^(eta-1)) points on ring r.

    Unit masses; ring vertices sit on a cycle (arc-length edges) and each
    connects radially to the angularly nearest vertex one ring in.  The
    angular density keeps every annulus connected, so the relatively
    connected annuli property holds by construction.
    """
    counts = _cone_ring_counts(n, eta, c)
    total = 1 + int(counts.sum())
    start = 1 + np.cumsum(counts) - counts  # first vertex of each ring
    # per ring vertex: its ring r, the ring's count and start, its place k
    r = np.repeat(np.arange(1, n + 1), counts)
    cnt = np.repeat(counts, counts)
    s = np.repeat(start, counts)
    v = np.arange(1, total)
    k = v - s
    ang = 2 * math.pi * k / cnt
    coords = np.zeros((total, 2))
    coords[1:, 0] = r * np.cos(ang)
    coords[1:, 1] = r * np.sin(ang)
    # Ring r lists its cycle edges (when it has more than one point), then its
    # radial edges: from the apex on ring 1, else to the nearest point in.
    cycle = cnt > 1
    prev_cnt = np.repeat(np.concatenate(([1], counts[:-1])), counts)
    prev_s = np.repeat(np.concatenate(([0], start[:-1])), counts)
    nearest = np.rint(k / cnt * prev_cnt).astype(np.int64) % prev_cnt
    inner = prev_s + nearest
    on_first = r == 1
    u = np.concatenate((v[cycle], np.where(on_first, 0, v)))
    w = np.concatenate(((s + (k + 1) % cnt)[cycle], np.where(on_first, v, inner)))
    lengths = np.concatenate(((2 * math.pi * r / cnt)[cycle], np.ones(total - 1)))
    order = np.argsort(np.concatenate((2 * r[cycle], 2 * r + 1)), kind="stable")
    u, w, lengths = u[order], w[order], lengths[order]
    # keep the first of edges listed twice (both cycle edges of a 2-point ring)
    _, first = np.unique(np.minimum(u, w) * total + np.maximum(u, w), return_index=True)
    first.sort()
    edges = np.column_stack((u[first], w[first]))
    return FiniteMetricMeasureSpace(total, edges, lengths[first], np.ones(total), coords)


def path_space(n, step=1.0, x0=0.0, masses=None):
    """Uniform path of n vertices at spacing `step` (utility for tests/demos)."""
    _check_vertex_count(n, "path_space")
    if masses is None:
        masses = np.ones(n)
    k = np.arange(n)
    edges = np.column_stack((k[:-1], k[1:]))
    coords = np.column_stack((x0 + k * step, np.zeros(n)))
    return FiniteMetricMeasureSpace(n, edges, np.full(len(edges), step), masses, coords)


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
    u, v = space.edges.T.tolist()
    return {
        "vertices": space.n,
        "edges": list(map(list, zip(u, v, space.lengths.tolist()))),
        "measure": space.measure.tolist(),
    }


def save_space(space, path):
    """Write a space, with its coordinates if any, in the schema the loader reads."""
    doc = space_document(space)
    if space.coords is not None:
        doc["coords"] = space.coords.tolist()
    # json.dumps encodes in C in one pass; json.dump streams the text
    # through the pure-Python encoder.  The document is built above from
    # fresh lists, so it holds no cycle to check for.
    text = json.dumps(doc, check_circular=False)
    with open(path, "w") as fh:
        fh.write(text)


def load_space(path):
    """Load and validate a space file; raises SchemaError with the bad field.

    The `edges` and `coords` lists are decoded in blocks of about _BLOCK
    characters, each turned into arrays at once, so the decoded tree of
    the whole file is never held.  Only a file that the block reader
    cannot take apart, or that fails a check, is decoded whole and walked
    entry by entry, to name the first bad entry.
    """
    with open(path) as fh:
        text = fh.read()
    enabled = gc.isenabled()
    gc.disable()  # decoded JSON holds no cycle for the collector to find
    try:
        fields = _read_blocks(text) or _read_tree(text)
    finally:
        if enabled:
            gc.enable()
    del text
    return FiniteMetricMeasureSpace(*fields)


_BLOCK = 1 << 16  # characters of list text decoded at a time
_scan = json.scanner.make_scanner(json.JSONDecoder())
_skip = json.decoder.WHITESPACE.match


class _Unreadable(Exception):
    """The block reader cannot take the text apart."""


def _read_blocks(text):
    """(n, edges, lengths, measure, coords) of a valid space file, or None.

    Walks the top-level object with json's scanner.  The lists of flat
    lists under `edges` and `coords` are converted block by block;
    every other value is decoded whole.  Any fault gives None, and the
    caller decodes the file whole to name it.
    """
    fields = {}
    try:
        idx = _skip(text).end()
        if not text.startswith("{", idx):
            raise _Unreadable
        end = "{"
        while end != "}":
            idx = _skip(text, idx + 1).end()
            if not text.startswith('"', idx):
                raise _Unreadable
            key, idx = _scan(text, idx)
            idx = _skip(text, idx).end()
            if not text.startswith(":", idx):
                raise _Unreadable
            idx = _skip(text, idx + 1).end()
            if key in _BLOCK_FIELDS and text.startswith("[", idx):
                fields[key], idx = _read_list(text, idx, _BLOCK_FIELDS[key])
            else:
                fields[key], idx = _scan(text, idx)
            idx = _skip(text, idx).end()
            end = text[idx : idx + 1]
            if end not in (",", "}"):
                raise _Unreadable
        if _skip(text, idx + 1).end() != len(text):
            raise _Unreadable
        n = fields.get("vertices")
        if type(n) is not int or n < 1:
            raise _Unreadable
        measure = _number_array(fields.get("measure"), n, "measure", positive=True)
        edges, lengths = _joined(fields["edges"]) if "edges" in fields else _edge_block([])
        coords = fields.get("coords")
        if coords is not None:
            (coords,) = _joined(coords)
            if len(coords) != n:
                raise _Unreadable
        if not (edges < n).all():
            raise _Unreadable
    except (_Unreadable, SchemaError, ValueError, StopIteration):
        return None
    return n, edges, lengths, measure, coords


class _Blocks(list):
    """The converted blocks of one list field, as tuples of arrays."""


def _joined(blocks):
    """The arrays of a list field, each joined over its blocks."""
    if type(blocks) is not _Blocks:
        raise _Unreadable
    return [np.concatenate(parts) for parts in zip(*blocks)]


def _read_list(text, idx, convert):
    """(_Blocks of convert(entries), end) for the JSON list opening at text[idx].

    Each block runs from an entry's start to the first `]` after _BLOCK
    more characters and is decoded at once in brackets.  When the list
    closes inside a block, the decode stops at its closing bracket.
    """
    idx = _skip(text, idx + 1).end()
    if text.startswith("]", idx):
        return _Blocks([convert([])]), idx + 1
    blocks = _Blocks()
    while True:
        cut = text.find("]", idx + _BLOCK) + 1 or len(text)
        block = "[" + text[idx:cut] + "]"
        entries, end = _scan(block, 0)
        if not entries:  # a trailing comma
            raise _Unreadable
        blocks.append(convert(entries))
        if end < len(block):  # the list closed inside the block
            return blocks, idx + end - 1
        idx = _skip(text, cut).end()
        if text.startswith("]", idx):
            return blocks, idx + 1
        if not text.startswith(",", idx):
            raise _Unreadable
        idx = _skip(text, idx + 1).end()


def _edge_block(entries):
    """(endpoints, lengths) of a block of edges; the bound on endpoints is
    checked once the vertex count is known."""
    return _edge_arrays(entries, _ANY_VERTEX)


def _coord_block(entries):
    """((k, 2) coordinates,) of a block of k (x, y) entries."""
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        raise _Unreadable
    flat = list(itertools.chain.from_iterable(entries))
    return (_number_array(flat, len(flat), "coords").reshape(-1, 2),)


_ANY_VERTEX = np.iinfo(np.int64).max
_BLOCK_FIELDS = {"edges": _edge_block, "coords": _coord_block}


def _read_tree(text):
    """(n, edges, lengths, measure, coords) from the whole decoded file.

    Reached only for a file the block reader did not take; for one that
    fails a check, raises the SchemaError naming the field and its first
    bad entry.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int of too many digits
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
    return n, edges, lengths, measure, coords


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
