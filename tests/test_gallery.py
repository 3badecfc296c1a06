import gc
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pilab import gallery
from pilab.cli import main
from pilab.errors import InvalidSpec, SchemaError
from pilab.gallery import (
    GallerySpec,
    cone_grid,
    generate,
    grid_quadrant,
    load_space,
    path_space,
    radial_profile,
    save_space,
    sector_union,
    sector_union_origin,
    spaces_equal,
)
from pilab.space import FiniteMetricMeasureSpace, build_space


def test_grid_quadrant_counts():
    sp = grid_quadrant(8)
    assert sp.n == 81
    assert len(sp.edges) == 2 * 8 * 9
    assert sp.resolution == 1.0
    assert np.all(sp.measure == 1.0)


def test_radial_profile_masses():
    sp = radial_profile(6, 2.0)
    assert list(sp.measure) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert sp.dist(0, 5) == 5.0


def test_cone_grid_structure():
    sp = cone_grid(8, 2.0)
    # ring r carries ceil(4r) points plus the apex
    assert sp.n == 1 + sum(4 * r for r in range(1, 9))
    assert sp.dist(0, 1) == 1.0


def test_cone_grid_annuli_connected():
    from scipy.sparse import csgraph

    sp = cone_grid(16, 2.0)
    d = sp.dist_from(0)
    for R in (2.0, 4.0, 8.0):
        ann = np.flatnonzero((d >= R / 2) & (d < 2 * R))
        sub = sp.adjacency[np.ix_(ann, ann)]
        ncomp, _ = csgraph.connected_components(sub, directed=False)
        assert ncomp == 1


def test_sector_union_membership():
    sp = sector_union(1.0, r_max=10.0)
    pts = {tuple(np.round(c, 6)) for c in sp.coords}
    assert (0.0, 0.0) in pts
    assert (5.0, 0.0) in pts  # first-quadrant sector
    assert (11.0, 0.0) not in pts  # beyond r_max
    assert (-5.0, -5.0) in pts  # third-quadrant sector, r < 17 but on block edge ray
    assert (0.0, -9.0) not in pts  # inside the removed open block


def test_sector_union_origin():
    sp = sector_union(0.5, r_max=6.0)
    o = sector_union_origin(sp)
    assert np.allclose(sp.coords[o], (0.0, 0.0))


def test_generate_and_spec_validation():
    assert generate(GallerySpec("grid_quadrant", size=4)).n == 25
    with pytest.raises(InvalidSpec):
        GallerySpec("unknown")
    with pytest.raises(InvalidSpec):
        GallerySpec("grid_quadrant", size=1)
    with pytest.raises(InvalidSpec):
        GallerySpec("sector_union", resolution=0.0)
    with pytest.raises(InvalidSpec):
        GallerySpec("radial_profile", eta=0.5)


def test_generate_deterministic():
    a = generate(GallerySpec("cone_grid", size=8))
    b = generate(GallerySpec("cone_grid", size=8))
    assert spaces_equal(a, b)


def test_save_load_round_trip(tmp_path):
    sp = radial_profile(10, 1.5)
    path = tmp_path / "space.json"
    save_space(sp, path)
    assert spaces_equal(sp, load_space(path))


def test_schema_errors(tmp_path):
    path = tmp_path / "bad.json"

    def write(doc):
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))

    write("{not json")
    with pytest.raises(SchemaError) as exc:
        load_space(path)
    assert exc.value.field == "json"

    write({"edges": []})
    with pytest.raises(SchemaError) as exc:
        load_space(path)
    assert exc.value.field == "vertices"

    write({"vertices": 2, "edges": [[0, 5, 1.0]], "measure": [1, 1]})
    with pytest.raises(SchemaError) as exc:
        load_space(path)
    assert exc.value.field == "edges"

    write({"vertices": 2, "edges": [[0, 1, 1.0]], "measure": [1]})
    with pytest.raises(SchemaError) as exc:
        load_space(path)
    assert exc.value.field == "measure"

    write({"vertices": 2, "edges": [[0, 1, 1.0]], "measure": [1, 1], "coords": [[0, 0]]})
    with pytest.raises(SchemaError) as exc:
        load_space(path)
    assert exc.value.field == "coords"


def test_load_space_round_trips_gallery_spaces(tmp_path):
    path = tmp_path / "space.json"
    for sp in (grid_quadrant(12), sector_union(1.0, r_max=6.0), cone_grid(10, 2.0)):
        save_space(sp, path)
        assert spaces_equal(sp, load_space(path))


# A valid three-vertex path; each malformed case replaces some of its fields.
PATH_DOC = {
    "vertices": 3,
    "edges": [[0, 1, 1.0], [1, 2, 1.0]],
    "measure": [1, 1, 1],
    "coords": [[0, 0], [1, 0], [2, 0]],
}
# (fields replaced, field named by the SchemaError, index of the first bad entry)
MALFORMED = {
    "endpoint_string": ({"edges": [[0, 1, 1.0], [1, "a", 1.0]]}, "edges", 1),
    "endpoint_float": ({"edges": [[0, 1, 1.0], [1.5, 2, 1.0]]}, "edges", 1),
    "endpoint_bool": ({"edges": [[0, 1, 1.0], [True, 2, 1.0]]}, "edges", 1),
    "endpoint_beyond_int64": ({"edges": [[0, 1, 1.0], [1, 10**30, 1.0]]}, "edges", 1),
    "length_null": ({"edges": [[0, 1, 1.0], [1, 2, None]]}, "edges", 1),
    "length_nan": ({"edges": [[0, 1, 1.0], [1, 2, math.nan]]}, "edges", 1),
    "length_infinity": ({"edges": [[0, 1, 1.0], [1, 2, math.inf]]}, "edges", 1),
    "length_beyond_float": ({"edges": [[0, 1, 1.0], [1, 2, 10**400]]}, "edges", 1),
    "length_zero_after_bad_endpoint": ({"edges": [[0, 3, 1.0], [1, 2, 0]]}, "edges", 0),
    "edge_not_a_list": ({"edges": [[0, 1, 1.0], 7]}, "edges", 1),
    "edge_a_string": ({"edges": [[0, 1, 1.0], "abc"]}, "edges", 1),
    "edge_too_short": ({"edges": [[0, 1, 1.0], [1, 2]]}, "edges", 1),
    "edges_not_a_list": ({"edges": 7}, "edges", None),
    "measure_null": ({"measure": [1, None, 1]}, "measure", 1),
    "measure_nan": ({"measure": [1, math.nan, 1]}, "measure", 1),
    "measure_not_a_list": ({"measure": 7}, "measure", None),
    "coords_ragged": ({"coords": [[0, 0], [1], [2, 0]]}, "coords", 1),
    "coords_string": ({"coords": [[0, 0], [1, "x"], [2, 0]]}, "coords", 1),
    "vertices_bool": ({"vertices": True}, "vertices", None),
}


def test_path_document_loads(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(PATH_DOC))
    sp = load_space(path)
    assert sp.n == 3 and sp.dist(0, 2) == 2.0


@pytest.mark.parametrize("fields, field, entry", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_space_file_raises_schema_error(tmp_path, capsys, fields, field, entry):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**PATH_DOC, **fields}))
    with pytest.raises(SchemaError) as exc:
        load_space(path)
    assert exc.value.field == field
    if entry is not None:
        assert f": entry {entry} " in str(exc.value)
    assert main(["verify", "--space", str(path), "--ineq", "hardy"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


# -- block reader ---------------------------------------------------------------
# load_space decodes `edges` and `coords` about gallery._BLOCK characters at a
# time.  The oracle decodes the whole document with json.loads.


def _tree_oracle(text):
    """The space of a valid document, built from its whole decoded tree."""
    doc = json.loads(text)
    edges = doc.get("edges", [])
    coords = doc.get("coords")
    return FiniteMetricMeasureSpace(
        doc["vertices"],
        np.array([e[:2] for e in edges], dtype=np.int64).reshape(-1, 2),
        np.array([e[2] for e in edges], dtype=float),
        np.array(doc["measure"], dtype=float),
        None if coords is None else np.array(coords, dtype=float),
    )


_WS = ["", " ", "\n", "\t", "\r\n  ", " \n\n "]


def _dumps(value, rnd):
    """JSON text of `value` with random whitespace around every token."""
    if isinstance(value, (dict, list)):
        pairs = value.items() if isinstance(value, dict) else [(None, v) for v in value]
        items = [
            rnd.choice(_WS)
            + ("" if k is None else json.dumps(k) + rnd.choice(_WS) + ":" + rnd.choice(_WS))
            + _dumps(v, rnd)
            + rnd.choice(_WS)
            for k, v in pairs
        ]
        ends = "{}" if isinstance(value, dict) else "[]"
        return ends[0] + (",".join(items) or rnd.choice(_WS)) + ends[1]
    return json.dumps(value)


_LENGTHS = st.one_of(
    st.integers(1, 2**70),
    st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
)
_COORDS = st.one_of(st.integers(-(2**60), 2**60), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def space_documents(draw):
    """A valid, connected space document: a random spanning tree plus
    chords in random order and orientation, with or without coordinates,
    its keys (and sometimes one unknown key) in random order."""
    n = draw(st.integers(1, 40))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if n > 1:
        chords = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        pairs += draw(st.lists(chords, max_size=30))
    edges = [[*(p[::-1] if draw(st.booleans()) else p), draw(_LENGTHS)] for p in pairs]
    doc = {"vertices": n, "edges": draw(st.permutations(edges)), "measure": draw(st.lists(_LENGTHS, min_size=n, max_size=n))}
    if draw(st.booleans()):
        doc["coords"] = [[draw(_COORDS), draw(_COORDS)] for _ in range(n)]
    if n == 1 and draw(st.booleans()):
        del doc["edges"]
    if draw(st.booleans()):
        doc["note"] = {"made by": ["a test", [1, 2.5, None, True]]}
    keys = draw(st.permutations(list(doc)))
    return {k: doc[k] for k in keys}


def _no_fallback(text):
    raise AssertionError("a valid document reached the whole-tree decode")


@settings(max_examples=150, deadline=None)
@given(doc=space_documents(), rnd=st.randoms(use_true_random=False), block=st.integers(1, 300))
def test_block_reader_matches_whole_tree_decode(tmp_path_factory, doc, rnd, block):
    path = tmp_path_factory.mktemp("blocks") / "space.json"
    path.write_text(rnd.choice(_WS) + _dumps(doc, rnd) + rnd.choice(_WS))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gallery, "_BLOCK", block)
        mp.setattr(gallery, "_read_tree", _no_fallback)
        loaded = load_space(path)
    assert spaces_equal(loaded, _tree_oracle(path.read_text()))


# (text replaced in the path document) that makes it invalid JSON
SYNTAX = {
    "edges_trailing_comma": ("1.0]]", "1.0], ]"),
    "coords_trailing_comma": ("[2, 0]]", "[2, 0],]"),
    "missing_comma": ("1.0], [1, 2", "1.0] [1, 2"),
    "unclosed_edges": ("1.0]], ", "1.0], "),
    "extra_data": ("[2, 0]]}", "[2, 0]]} []"),
}


@pytest.mark.parametrize(
    "fields, field, entry",
    [*MALFORMED.values(), *[(text, "json", None) for text in SYNTAX.values()]],
    ids=[*MALFORMED, *SYNTAX],
)
def test_malformed_file_fails_alike_at_every_block_size(tmp_path, monkeypatch, fields, field, entry):
    if isinstance(fields, dict):
        text = json.dumps({**PATH_DOC, **fields})
    else:
        text = json.dumps(PATH_DOC)
        assert text.count(fields[0]) == 1
        text = text.replace(*fields)
    path = tmp_path / "bad.json"
    path.write_text(text)
    for block in range(1, len(text) + 1):
        monkeypatch.setattr(gallery, "_BLOCK", block)
        with pytest.raises(SchemaError) as exc:
            load_space(path)
        assert exc.value.field == field
        if entry is not None:
            assert f": entry {entry} " in str(exc.value)


# A bad entry this deep in a 12 000-vertex path lies several blocks into its list.
DEEP = 10_000
DEEP_MALFORMED = {
    "endpoint_string": ("edges", [DEEP, "a", 0.5]),
    "endpoint_float": ("edges", [DEEP, DEEP + 1.0, 0.5]),
    "endpoint_nested": ("edges", [DEEP, [DEEP + 1], 0.5]),
    "endpoint_missing_vertex": ("edges", [DEEP, 12_000, 0.5]),
    "length_nan": ("edges", [DEEP, DEEP + 1, math.nan]),
    "length_zero": ("edges", [DEEP, DEEP + 1, 0]),
    "edge_too_short": ("edges", [DEEP, DEEP + 1]),
    "edge_not_a_list": ("edges", 7),
    "edge_string_with_brackets": ("edges", "]], [[0, 1, 0.5"),
    "coords_ragged": ("coords", [DEEP]),
    "coords_string": ("coords", [DEEP, "x"]),
    "coords_infinity": ("coords", [math.inf, 0]),
}


def _long_path_doc(n=12_000):
    return {
        "vertices": n,
        "edges": [[k, k + 1, 0.5] for k in range(n - 1)],
        "measure": [1] * n,
        "coords": [[k + 0.5, -0.25] for k in range(n)],
    }


@pytest.mark.parametrize("field, entry", DEEP_MALFORMED.values(), ids=list(DEEP_MALFORMED))
def test_malformed_entry_beyond_first_block_keeps_its_index(tmp_path, field, entry):
    doc = _long_path_doc()
    assert len(json.dumps(doc[field][:DEEP])) > 2 * gallery._BLOCK
    doc[field][DEEP] = entry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as exc:
        load_space(path)
    assert exc.value.field == field
    assert f": entry {DEEP} " in str(exc.value)


def test_int_of_too_many_digits_is_a_json_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": 2, "edges": [[0, 1, 1%s]], "measure": [1, 1]}' % ("0" * 5000))
    with pytest.raises(SchemaError) as exc:
        load_space(path)
    assert exc.value.field == "json"
    assert main(["verify", "--space", str(path), "--ineq", "hardy"]) == 1
    assert capsys.readouterr().err.startswith("error: json: ")


@pytest.mark.parametrize("enabled", [True, False])
def test_load_space_restores_the_collector_state(tmp_path, enabled):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(PATH_DOC))
    bad.write_text(json.dumps({**PATH_DOC, "measure": 7}))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        load_space(good)
        assert gc.isenabled() == enabled
        with pytest.raises(SchemaError):
            load_space(bad)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_load_space_peak_memory_on_sector_file(tmp_path):
    """Loading holds one block of decoded entries at a time; decoding the
    whole 1.5 MB file at once peaked at 21.2 MB traced."""
    sp = sector_union(0.25)
    path = tmp_path / "sector.json"
    save_space(sp, path)
    assert spaces_equal(sp, load_space(path))
    tracemalloc.start()
    try:
        load_space(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13e6


def test_path_space_utility():
    sp = path_space(11, step=0.1, x0=-0.5)
    assert abs(sp.dist(0, 10) - 1.0) < 1e-12
    assert abs(sp.coords[5][0]) < 1e-12


# -- loop oracles -------------------------------------------------------------
# The gallery generators as one Python loop per grid point, vertex or edge.
# The array generators must give the same spaces and byte-identical files.


def loop_grid_quadrant(n):
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


def loop_in_sector_union(x, y, r_max):
    r = math.hypot(x, y)
    if r <= 1.0:
        return True
    theta = math.atan2(y, x) % (2 * math.pi)
    tol = 1e-9
    if r <= r_max + tol:
        t = theta if theta <= math.pi else theta - 2 * math.pi
        if -math.pi / 4 - tol <= t <= math.pi / 4 + tol:
            return True
    if r <= 20.0 + tol and math.pi / 2 - tol <= theta <= 3 * math.pi / 4 + tol:
        return True
    if r <= 17.0 + tol and math.pi - tol <= theta <= 3 * math.pi / 2 + tol:
        in_block = (3.0 + tol < r < 15.0 - tol) and (
            5 * math.pi / 4 + tol < theta < 7 * math.pi / 4 - tol
        )
        if not in_block:
            return True
    return False


def loop_sector_union(resolution, r_max=40.0):
    """The space and the number of region points pruned off the origin's component."""
    from scipy.sparse import csgraph, csr_matrix

    h = float(resolution)
    span = int(math.ceil(max(r_max, 20.0) / h)) + 1
    pts = {}
    coords = []
    for i in range(-span, span + 1):
        for j in range(-span, span + 1):
            x, y = i * h, j * h
            if loop_in_sector_union(x, y, r_max):
                pts[(i, j)] = len(coords)
                coords.append((x, y))
    edges = []
    for (i, j), u in pts.items():
        for di, dj in ((1, 0), (0, 1)):
            v = pts.get((i + di, j + dj))
            if v is not None:
                edges.append((u, v, h))
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
    space = build_space(len(coords), edges, np.ones(len(coords)), coords)
    return space, m - len(coords)


def loop_path_space(n, step=1.0, x0=0.0, masses=None):
    if masses is None:
        masses = np.ones(n)
    edges = [(k, k + 1, step) for k in range(n - 1)]
    coords = [(x0 + k * step, 0.0) for k in range(n)]
    return build_space(n, edges, masses, coords)


def loop_radial_profile(n, eta):
    masses = np.arange(1, n + 1, dtype=float) ** (eta - 1.0)
    edges = [(k, k + 1, 1.0) for k in range(n - 1)]
    coords = [(k, 0.0) for k in range(n)]
    return build_space(n, edges, masses, coords)


def loop_cone_grid(n, eta, c=4):
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
    seen = set()
    uniq = []
    for u, v, l in edges:
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            uniq.append((u, v, l))
    return build_space(len(coords), uniq, np.ones(len(coords)), coords)


def saved_bytes(space, tmp_path):
    path = tmp_path / "space.json"
    save_space(space, path)
    return path.read_bytes()


def assert_same_space(array_space, loop_space, tmp_path):
    assert spaces_equal(array_space, loop_space)
    assert saved_bytes(array_space, tmp_path) == saved_bytes(loop_space, tmp_path)


@pytest.mark.parametrize("n", [2, 7, 64])
def test_grid_quadrant_matches_loop_oracle(tmp_path, n):
    assert_same_space(grid_quadrant(n), loop_grid_quadrant(n), tmp_path)


@pytest.mark.parametrize("n, eta", [(3, 2), (8, 2), (50, 2), (64, 1.5), (40, 3)])
def test_cone_grid_matches_loop_oracle(tmp_path, n, eta):
    assert_same_space(cone_grid(n, eta), loop_cone_grid(n, eta), tmp_path)


def test_cone_grid_two_point_ring_is_deduped(tmp_path):
    # c=2, eta=1: every ring has two points, whose two cycle edges coincide;
    # each ring keeps one of them and its two radial edges
    sp = cone_grid(5, 1.0, c=2)
    assert len(sp.edges) == 5 * (1 + 2)
    assert_same_space(sp, loop_cone_grid(5, 1.0, c=2), tmp_path)


# resolution -> region points the origin-component pruning drops; at 0.2 the
# grid point (0.6000000000000001, -0.8) lies on the unit circle, outside every
# sector, so it tests the closed unit ball
SECTOR_PRUNED = {1.0: 0, 0.5: 0, 0.3: 0, 0.25: 0, 0.2: 0, 1.6: 9, 1.8: 3, 1.9: 7}


@pytest.mark.parametrize("resolution, pruned", SECTOR_PRUNED.items())
def test_sector_union_matches_loop_oracle(tmp_path, resolution, pruned):
    loop_space, loop_pruned = loop_sector_union(resolution)
    assert loop_pruned == pruned
    assert_same_space(sector_union(resolution), loop_space, tmp_path)


def test_path_spaces_match_loop_oracles(tmp_path):
    for eta in (1.0, 1.5, 2.0, 12.0):
        assert_same_space(radial_profile(30, eta), loop_radial_profile(30, eta), tmp_path)
    for args in ((1,), (11, 0.1, -0.5), (6, 2.0, 3.0, np.arange(1.0, 7.0))):
        assert_same_space(path_space(*args), loop_path_space(*args), tmp_path)


# sha256 of the files that save_space writes for the benchmark's spaces
SAVED_SHA256 = {
    (grid_quadrant, (64,)): "9cc2ae8cb70e4642c4948049bd132c2a32b887036211f83ef78401146d73c9f8",
    (sector_union, (0.25,)): "187372ca8f9ca8cdf4749cc80d80710fbc4747479ddaafe8329ffcad32773fc9",
    (cone_grid, (101, 2)): "6a9a8c92b996513cb32ea18d1ecf14f4c784340874f0d4cb9a6d245017da692e",
}


@pytest.mark.parametrize(
    "make, args, digest",
    [(make, args, digest) for (make, args), digest in SAVED_SHA256.items()],
    ids=["grid_quadrant_64", "sector_union_0.25", "cone_grid_101_2"],
)
def test_saved_benchmark_spaces_are_byte_identical(tmp_path, make, args, digest):
    assert hashlib.sha256(saved_bytes(make(*args), tmp_path)).hexdigest() == digest


@pytest.mark.parametrize(
    "spec",
    [
        GallerySpec("cone_grid", size=101, eta=20),  # ~4.8e38 ring points
        GallerySpec("cone_grid", size=10**12, eta=1),  # beyond 2**31 - 1 before any ring is counted
        GallerySpec("cone_grid", size=101, eta=1e6),  # 101.0 ** 1e6 overflows a float
        GallerySpec("sector_union", resolution=1e-6),  # ~6.4e15 candidate grid points
        GallerySpec("sector_union", resolution=1e-320),  # an infinite extent
        GallerySpec("grid_quadrant", size=10**6),  # 1e12 vertices
        GallerySpec("grid_quadrant", size=46340),  # 46341**2, just past 2**31 - 1
        GallerySpec("radial_profile", size=2**31),
    ],
    ids=lambda spec: f"{spec.kind}-{spec.size}-{spec.eta}-{spec.resolution}",
)
def test_huge_spec_raises_invalid_spec(tmp_path, capsys, spec):
    with pytest.raises(InvalidSpec, match="vertices, more than 2147483647"):
        generate(spec)
    args = ["--n", str(spec.size), "--eta", str(spec.eta), "--resolution", str(spec.resolution)]
    out = tmp_path / "huge.json"
    assert main(["gen", "--kind", spec.kind, *args, "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_gen_reports_memory_error(tmp_path, capsys, monkeypatch):
    def out_of_memory(spec):
        raise MemoryError("Unable to allocate 32.0 GiB")

    monkeypatch.setattr(gallery, "generate", out_of_memory)
    out = tmp_path / "g.json"
    assert main(["gen", "--kind", "grid_quadrant", "-o", str(out)]) == 1
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 32.0 GiB\n"
    assert not out.exists()
