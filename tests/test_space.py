import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csgraph, csr_matrix

import pilab.space as space_module

from pilab.errors import (
    DisconnectedGraph,
    EmptySample,
    NonPositiveLength,
    NonPositiveMass,
    NotAhlfors,
)
from pilab.gallery import (
    cone_grid,
    grid_quadrant,
    load_space,
    path_space,
    radial_profile,
    sector_union,
)
from pilab.space import (
    FiniteMetricMeasureSpace,
    ahlfors_fit,
    build_space,
    default_profile_samples,
    doubling_profile,
    reverse_doubling_fit,
)
from pilab.verify import _sampled_poincare, make_family


def test_single_vertex_space():
    sp = build_space(1, [], np.array([2.0]))
    assert sp.n == 1
    assert sp.total_mass == 2.0
    assert sp.diameter() == 0.0


def test_disconnected_raises():
    with pytest.raises(DisconnectedGraph):
        build_space(2, [], np.ones(2))
    with pytest.raises(DisconnectedGraph):
        build_space(4, [(0, 1, 1.0), (2, 3, 1.0)], np.ones(4))


def test_bad_lengths_and_masses():
    with pytest.raises(NonPositiveLength):
        build_space(2, [(0, 1, 0.0)], np.ones(2))
    with pytest.raises(NonPositiveMass):
        build_space(2, [(0, 1, 1.0)], np.array([1.0, -1.0]))


def test_metric_basics():
    sp = path_space(5)
    assert sp.dist(0, 4) == 4.0
    assert sp.dist(2, 2) == 0.0
    assert sp.resolution == 1.0
    assert sp.eccentricity(2) == 2.0
    assert sp.diameter() == 4.0


def test_ball_conventions():
    sp = path_space(5)
    assert list(sp.ball(2, 1.5)) == [1, 2, 3]
    # balls are open
    assert list(sp.ball(2, 1.0)) == [2]
    assert len(sp.ball(2, 0.0)) == 0
    assert sp.ball_mass(2, 1.5) == 3.0


def test_annulus_half_open():
    sp = path_space(7)
    ann = sp.annulus(0, 2.0, 4.0)
    assert list(ann) == [2, 3]


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 30), st.integers(0, 29))
def test_shells_partition(n, o):
    o = o % n
    sp = path_space(n)
    radii = [0.0, 1.5, 3.0, 10.0, float(n)]
    seen = np.concatenate([sp.annulus(o, radii[i], radii[i + 1]) for i in range(len(radii) - 1)])
    assert sorted(seen) == list(range(n))
    assert len(set(seen.tolist())) == n


def test_distance_symmetry_and_triangle():
    sp = grid_quadrant(6)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y, z = rng.integers(sp.n, size=3)
        assert sp.dist(x, y) == sp.dist(y, x)
        assert sp.dist(x, z) <= sp.dist(x, y) + sp.dist(y, z) + 1e-12


def test_doubling_profile_grid():
    prof = doubling_profile(grid_quadrant(64))
    # planar grid: volume growth exponent near 2
    assert 1.8 < prof.Q < 2.6
    assert prof.C_D == pytest.approx(2.0**prof.Q)


def test_doubling_profile_path():
    prof = doubling_profile(path_space(256))
    assert 0.9 < prof.Q < 1.4


def test_doubling_empty_sample():
    sp = path_space(4)
    with pytest.raises(EmptySample):
        doubling_profile(sp, samples=[])


def test_reverse_doubling_radial():
    sp = radial_profile(128, 2.0)
    c2 = reverse_doubling_fit(sp, 0, 2.0)
    c3 = reverse_doubling_fit(sp, 0, 3.0)
    assert c2 > 0.25
    assert c3 < c2


def test_ahlfors_fit_grid():
    params = ahlfors_fit(grid_quadrant(32))
    assert 1.6 < params.Q < 2.6
    assert params.C_A >= 1.0


def test_ahlfors_cap():
    with pytest.raises(NotAhlfors):
        ahlfors_fit(grid_quadrant(32), cap=1.0001)


def test_arrays_read_only():
    sp = path_space(4)
    with pytest.raises(ValueError):
        sp.measure[0] = 5.0


# -- exact diameter ----------------------------------------------------------


def _dense_diameter(sp):
    return float(csgraph.shortest_path(sp.adjacency, method="D", directed=False).max())


def test_diameter_exact_where_double_sweep_is_not():
    sp = sector_union(1.0, r_max=20.0)
    assert sp.n == 660
    row0 = csgraph.dijkstra(sp.adjacency, directed=False, indices=0)
    far = int(np.argmax(row0))
    double_sweep = csgraph.dijkstra(sp.adjacency, directed=False, indices=far).max()
    assert double_sweep == 65.0
    assert sp.diameter() == _dense_diameter(sp) == 67.0


@pytest.mark.parametrize(
    "make",
    [
        lambda: grid_quadrant(12),
        lambda: sector_union(0.5, r_max=6.0),
        lambda: radial_profile(40, 2.0),
        lambda: cone_grid(12, 2.0),
        lambda: path_space(9, step=0.3),
    ],
    ids=["grid_quadrant", "sector_union", "radial_profile", "cone_grid", "path"],
)
def test_diameter_exact_gallery(make):
    sp = make()
    dense = _dense_diameter(sp)
    assert sp.diameter() == dense
    # computed once
    rows = len(sp._dist_cache)
    assert sp.diameter() == dense
    assert len(sp._dist_cache) == rows


@st.composite
def connected_graphs(draw, max_n=24):
    """Random connected weighted graph: a random tree plus extra edges."""
    n = draw(st.integers(2, max_n))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    pairs |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    pairs = sorted(pairs)
    lengths = draw(st.lists(st.floats(0.01, 10.0), min_size=len(pairs), max_size=len(pairs)))
    return build_space(n, [(u, v, l) for (u, v), l in zip(pairs, lengths)], np.ones(n))


@settings(max_examples=200, deadline=None)
@given(connected_graphs())
def test_diameter_exact_random_graphs(sp):
    dense = csgraph.shortest_path(sp.adjacency, method="D", directed=False)
    diam = sp.diameter()
    # The diameter is the largest entry of some row, bit for bit.
    assert diam in set(dense.max(axis=1).tolist())
    # Rows from the two ends of a path sum its < n lengths in opposite
    # orders, so d(x, y) and d(y, x) may differ by that many roundings.
    assert diam == pytest.approx(dense.max(), rel=2 * sp.n * np.finfo(float).eps, abs=0)


# -- multi-source fattening --------------------------------------------------


def _union_of_balls(sp, A, rho):
    rows = csgraph.dijkstra(sp.adjacency, directed=False, indices=np.asarray(A))
    return np.flatnonzero((np.atleast_2d(rows) < rho).any(axis=0))


def test_fattening_cone_matches_union_of_balls():
    sp = cone_grid(12, 2.0)
    d = csgraph.dijkstra(sp.adjacency, directed=False, indices=0)
    A = np.flatnonzero((d >= 4.0) & (d < 8.0))
    full = sp.dist_to_set(A)
    attained = np.unique(full[full > 0])
    for rho in (0.5, 2.0, float(attained[3]), float(attained[-1]), np.inf):
        fat = np.flatnonzero(sp.dist_to_set(A, limit=rho) < rho)
        assert np.array_equal(fat, _union_of_balls(sp, A, rho)), rho
    # balls are open: vertices at exactly rho from A stay out
    rho = float(attained[3])
    at_rho = np.flatnonzero(full == rho)
    fat = np.flatnonzero(sp.dist_to_set(A, limit=rho) < rho)
    assert len(at_rho) and not np.isin(at_rho, fat).any()


@settings(max_examples=100, deadline=None)
@given(connected_graphs(), st.data())
def test_fattening_random_graph_matches_union_of_balls(sp, data):
    A = data.draw(st.lists(st.integers(0, sp.n - 1), min_size=1, max_size=sp.n, unique=True))
    full = sp.dist_to_set(A)
    assert np.array_equal(full, np.atleast_2d(
        csgraph.dijkstra(sp.adjacency, directed=False, indices=np.asarray(A))).min(axis=0))
    rho = data.draw(st.sampled_from(sorted(set(full.tolist())) + [0.5, 3.0]))
    fat = np.flatnonzero(sp.dist_to_set(A, limit=rho) < rho)
    assert np.array_equal(fat, _union_of_balls(sp, A, rho))


# -- bounded row cache ---------------------------------------------------------


def test_row_cache_is_bounded_and_correct(monkeypatch):
    sp = grid_quadrant(12)
    row_bytes = sp.n * 8
    cap = 5 * row_bytes
    monkeypatch.setattr(space_module, "ROW_CACHE_BYTES", cap)
    rng = np.random.default_rng(3)
    sources = rng.integers(sp.n, size=200)
    for x in sources:
        row = sp.dist_from(x)
        held = sum(r.nbytes for r in sp._dist_cache.values())
        assert held <= cap and held == sp._cache_bytes
        assert np.array_equal(row, csgraph.dijkstra(sp.adjacency, directed=False, indices=x))
    assert len(sp._dist_cache) == 5
    # least recently used goes first: a row read again survives the next miss
    recent = list(sp._dist_cache)
    again = sp.dist_from(recent[0])
    fresh = next(v for v in range(sp.n) if v not in sp._dist_cache)
    sp.dist_from(fresh)
    assert recent[0] in sp._dist_cache and recent[1] not in sp._dist_cache
    assert sp.dist_from(recent[0]) is again


# -- parallel edges ------------------------------------------------------------


def test_parallel_edges_keep_the_shortest_length():
    sp = build_space(3, [(0, 1, 1.0), (0, 1, 1.0), (1, 2, 1.0)], np.ones(3))
    assert sp.dist_from(0).tolist() == [0.0, 1.0, 2.0]
    sp = build_space(3, [(0, 1, 3.0), (1, 0, 1.0), (1, 2, 1.0)], np.ones(3))
    assert sp.dist(0, 1) == 1.0
    assert sp.dist(0, 2) == 2.0


def test_space_file_with_repeated_edge_loads_the_same_distances(tmp_path):
    edges = [[0, 1, 2.0], [1, 2, 0.5], [2, 3, 1.5], [0, 3, 4.0]]
    path = tmp_path / "repeated.json"
    doc = {"vertices": 4, "edges": edges + [[2, 1, 0.5], [3, 0, 7.0]], "measure": [1.0] * 4}
    path.write_text(json.dumps(doc))
    loaded = load_space(path)
    plain = build_space(4, [tuple(e) for e in edges], np.ones(4))
    for x in range(4):
        assert np.array_equal(loaded.dist_from(x), plain.dist_from(x))
    assert loaded.dist(0, 3) == 4.0


# -- truncated rows ------------------------------------------------------------


def _reference_graph(sp):
    """Undirected graph of sp's edges, built here (the strategy repeats no pair)."""
    e = sp.edges
    return csr_matrix((sp.lengths, (e[:, 0], e[:, 1])), shape=(sp.n, sp.n))


def test_truncated_row_limit_is_inclusive():
    sp = path_space(6, step=0.5)
    assert sp.dist_from(0, limit=1.0).tolist() == [0.0, 0.5, 1.0] + [np.inf] * 3


@settings(max_examples=200, deadline=None)
@given(connected_graphs(), st.data())
def test_truncated_row_is_the_full_row_up_to_its_limit(sp, data):
    x = data.draw(st.integers(0, sp.n - 1))
    full = csgraph.dijkstra(_reference_graph(sp), directed=False, indices=x)
    attained = st.sampled_from(sorted(set(full.tolist())))
    limit = data.draw(attained | st.floats(0.0, 1.1 * float(full.max())))
    row = sp.dist_from(x, limit=limit)
    inside = full <= limit
    assert row[inside].tobytes() == full[inside].tobytes()
    assert np.isinf(row[~inside]).all()


def test_truncated_read_leaves_the_cache_alone():
    sp = grid_quadrant(8)
    for x in (0, 5, 9):
        sp.dist_from(x)
    before = [(x, id(row)) for x, row in sp._dist_cache.items()], sp._cache_bytes
    sp.dist_from(0, limit=3.0)
    sp.dist_from(40, limit=3.0)
    assert ([(x, id(row)) for x, row in sp._dist_cache.items()], sp._cache_bytes) == before


@settings(max_examples=100, deadline=None)
@given(connected_graphs())
def test_directed_rows_equal_undirected_rows(sp):
    for x in range(sp.n):
        undirected = csgraph.dijkstra(sp.adjacency, directed=False, indices=x)
        assert sp.dist_from(x).tobytes() == undirected.tobytes()


# -- readers of truncated rows -------------------------------------------------


def _full_rows_only(mp):
    """Make dist_from ignore `limit`, so every reader gets full rows."""
    full = FiniteMetricMeasureSpace.dist_from
    mp.setattr(FiniteMetricMeasureSpace, "dist_from", lambda self, x, limit=np.inf: full(self, x))


def _reader_results(sp):
    """Everything the many-center readers return, floats compared by bits;
    the Poincare constants unfloored, as measure_poincare's floor of 1.0
    hides most ratios."""
    out = {
        "doubling": doubling_profile(sp),
        "poincare_1": _sampled_poincare(sp, 1.0, 2.0),
        "poincare_2": _sampled_poincare(sp, 2.0, 2.0),
        "family": [(name, np.asarray(v, dtype=float).tobytes()) for name, v in make_family(sp, 0, 5)],
    }
    try:
        out["ahlfors"] = ahlfors_fit(sp)
    except NotAhlfors as exc:
        out["ahlfors"] = str(exc)
    return out


SMALL_GALLERY = [
    lambda: grid_quadrant(10),
    lambda: sector_union(1.5, r_max=6.0),
    lambda: radial_profile(40, 2.0),
    lambda: cone_grid(10, 2.0),
    lambda: path_space(30, step=0.3),
]
SMALL_GALLERY_IDS = ["grid_quadrant", "sector_union", "radial_profile", "cone_grid", "path"]


def _dense_doubling(sp):
    """C_D over the default samples from a dense all-pairs matrix."""
    dense = csgraph.shortest_path(_reference_graph(sp), method="D", directed=False)
    best = 1.0
    for x, r in default_profile_samples(sp):
        best = max(best, sp.measure[dense[x] < 2 * r].sum() / sp.measure[dense[x] < r].sum())
    return best


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make", SMALL_GALLERY, ids=SMALL_GALLERY_IDS)
def test_readers_on_truncated_rows_match_full_rows_gallery(make, monkeypatch):
    truncated = _reader_results(make())
    _full_rows_only(monkeypatch)
    assert _reader_results(make()) == truncated


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_readers_on_truncated_rows_match_full_rows_random(sp):
    truncated = _reader_results(sp)
    assert truncated["doubling"].C_D == _dense_doubling(sp)
    with pytest.MonkeyPatch.context() as mp:
        _full_rows_only(mp)
        assert _reader_results(sp) == truncated


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make", SMALL_GALLERY, ids=SMALL_GALLERY_IDS)
def test_doubling_matches_dense_brute_force(make):
    sp = make()
    assert sp.n <= 300
    assert doubling_profile(sp).C_D == _dense_doubling(sp)
