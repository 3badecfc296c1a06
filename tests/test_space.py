import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csgraph, csr_matrix

import pilab.space as space_module
from pilab import verify

from pilab.errors import (
    DisconnectedGraph,
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
from pilab.space import FiniteMetricMeasureSpace, build_space
from pilab.verify import (
    _slope_on,
    ahlfors_fit,
    doubling_profile,
    eta_fit,
    hardy_check,
    lip,
    make_family,
    reverse_doubling_fit,
)


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
    for length in (0.0, math.nan, math.inf):
        with pytest.raises(NonPositiveLength):
            build_space(2, [(0, 1, length)], np.ones(2))
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
    assert sp.measure[sp.ball(2, 1.5)].sum() == 3.0


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


def test_ahlfors_cap(monkeypatch):
    monkeypatch.setattr(verify, "AHLFORS_CAP", 1.0001)
    with pytest.raises(NotAhlfors):
        ahlfors_fit(grid_quadrant(32))


def _path_with(extra):
    """A 100-vertex unit path with the (u, v, length) edges `extra` added."""
    sp = path_space(100)
    edges = [*sp.edges.tolist(), *[(u, v) for u, v, _ in extra]]
    lengths = [*sp.lengths, *[length for _, _, length in extra]]
    return FiniteMetricMeasureSpace(sp.n, edges, lengths, sp.measure, sp.coords)


def test_edges_outside_the_metric_change_no_grid_or_verdict():
    # a self-loop and a longer parallel edge leave the adjacency as it is,
    # so they set neither the resolution nor the profile grid's radii and
    # row limit, and the Hardy verdict stays the plain path's
    spaces = [_path_with([]), _path_with([(7, 7, 0.001)]), _path_with([(5, 6, 50.0)])]
    assert [sp.resolution for sp in spaces] == [1.0] * 3
    grids = [(p.count, p.radii, p.limit) for p in map(verify.Profile, spaces)]
    reports = [
        dataclasses.replace(hardy_check(sp, 0, 1.0, make_family(sp, 0, 1)), seconds=0.0)
        for sp in spaces
    ]
    assert grids == grids[:1] * 3
    assert reports == reports[:1] * 3 and reports[0].passed


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


# One edge length, as in the rows from breadth-first search: steps whose
# multiples round (0.1, 1/3, 0.7, 1e-3) and powers of two, which do not.
STEPS = [0.1, 1 / 3, 0.7, 1e-3, 2.0**-3, 1.0, 2.0**5]


@st.composite
def connected_graphs(draw, max_n=24, one_length=False):
    """Random connected weighted graph: a random tree plus extra edges.

    With `one_length` every edge has one length from STEPS, and the extra
    edges may repeat a pair or join a vertex to itself.
    """
    n = draw(st.integers(2, max_n))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    if one_length:
        step = draw(st.sampled_from(STEPS))
        return build_space(n, [(u, v, step) for u, v in sorted(pairs) + extra], np.ones(n))
    pairs |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    pairs = sorted(pairs)
    lengths = draw(st.lists(st.floats(0.01, 10.0), min_size=len(pairs), max_size=len(pairs)))
    return build_space(n, [(u, v, l) for (u, v), l in zip(pairs, lengths)], np.ones(n))


def any_lengths(max_n=24):
    """connected_graphs with lengths drawn freely or all one length."""
    return connected_graphs(max_n) | connected_graphs(max_n, one_length=True)


@settings(max_examples=200, deadline=None)
@given(any_lengths())
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
    """Undirected graph of sp's edges, built here.  Only the one-length
    strategy repeats a pair, so a repeated pair is one edge of that length;
    a self-loop is on no shortest path and is left out."""
    pairs = {(min(u, v), max(u, v)): l for (u, v), l in zip(sp.edges.tolist(), sp.lengths) if u != v}
    (u, v), lengths = zip(*pairs), list(pairs.values())
    return csr_matrix((lengths, (u, v)), shape=(sp.n, sp.n))


def test_truncated_row_limit_is_inclusive():
    sp = path_space(6, step=0.5)
    assert sp.dist_from(0, limit=1.0).tolist() == [0.0, 0.5, 1.0] + [np.inf] * 3


@settings(max_examples=200, deadline=None)
@given(any_lengths(), st.data())
def test_truncated_row_is_the_full_row_up_to_its_limit(sp, data):
    x = data.draw(st.integers(0, sp.n - 1))
    full = csgraph.dijkstra(_reference_graph(sp), directed=False, indices=x)
    attained = st.sampled_from(sorted(set(full.tolist())))
    limit = data.draw(attained | st.floats(0.0, 1.1 * float(full.max())))
    row = sp.dist_from(x, limit=limit)
    inside = full <= limit
    assert row[inside].tobytes() == full[inside].tobytes()
    assert np.isinf(row[~inside]).all()
    # once the full row is cached, the truncated row is cut from it
    sp.dist_from(x)
    assert sp.dist_from(x, limit=limit).tobytes() == row.tobytes()


def test_truncated_read_leaves_the_cache_alone():
    sp = grid_quadrant(8)
    for x in (0, 5, 9):
        sp.dist_from(x)
    before = [(x, id(row)) for x, row in sp._dist_cache.items()], sp._cache_bytes
    sp.dist_from(0, limit=3.0)
    sp.dist_from(40, limit=3.0)
    assert ([(x, id(row)) for x, row in sp._dist_cache.items()], sp._cache_bytes) == before


@settings(max_examples=100, deadline=None)
@given(any_lengths())
def test_directed_rows_equal_undirected_rows(sp):
    for x in range(sp.n):
        undirected = csgraph.dijkstra(sp.adjacency, directed=False, indices=x)
        assert sp.dist_from(x).tobytes() == undirected.tobytes()


def test_rows_of_a_long_path_at_step_tenth_equal_dijkstra():
    # Dijkstra adds 0.1 once per hop, which h * 0.1 does not round like
    sp = path_space(3000, step=0.1)
    assert sp.step == 0.1
    for x in (0, 1234, 2999):
        cut = csgraph.dijkstra(sp.adjacency, directed=True, indices=x, limit=150.0)
        assert sp.dist_from(x, limit=150.0).tobytes() == cut.tobytes()
        full = csgraph.dijkstra(sp.adjacency, directed=True, indices=x)
        assert sp.dist_from(x).tobytes() == full.tobytes()


@pytest.mark.parametrize(
    "edges, step, row0, method",
    [
        # 0-1 listed at 3.0 and 1.0 keeps 1.0; the self-loop at 2 is dropped
        ([(0, 1, 3.0), (1, 0, 1.0), (1, 2, 1.0), (2, 2, 0.5), (2, 3, 1.0), (3, 0, 1.0)],
         1.0, [0.0, 1.0, 2.0, 1.0], "breadth_first_order"),
        ([(0, 1, 3.0), (1, 0, 2.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)],
         None, [0.0, 2.0, 2.0, 1.0], "dijkstra"),
    ],
    ids=["one-shortest-length", "two-shortest-lengths"],
)
def test_row_search_is_chosen_from_the_adjacency(monkeypatch, edges, step, row0, method):
    sp = build_space(4, edges, np.ones(4))
    assert sp.step == step
    rows = [csgraph.dijkstra(sp.adjacency, directed=False, indices=x) for x in range(4)]
    used = []

    def spy(name):
        search = getattr(csgraph, name)

        def counted(*args, **kwargs):
            used.append(name)
            return search(*args, **kwargs)

        monkeypatch.setattr(csgraph, name, counted)

    spy("dijkstra")
    spy("breadth_first_order")
    assert sp.dist_from(0).tolist() == row0
    for x in range(4):
        assert sp.dist_from(x, limit=1.0).tobytes() == np.where(rows[x] <= 1.0, rows[x], np.inf).tobytes()
        assert sp.dist_from(x).tobytes() == rows[x].tobytes()
    assert set(used) == {method}


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
        "poincare_1": _sampled_poincare(sp, 1.0),
        "poincare_2": _sampled_poincare(sp, 2.0),
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


def _dense(sp):
    return csgraph.shortest_path(_reference_graph(sp), method="D", directed=False)


def _sampled_poincare(sp, s):
    """The unfloored maximum of measure_poincare."""
    return verify.Profile(sp, s).poincare


def _centers(sp):
    """(centers, radii) of the profile grid."""
    profile = verify.Profile(sp)
    return [x for x, _ in profile.rows()], profile.radii


def _dense_doubling(sp):
    """C_D over the default samples from a dense all-pairs matrix."""
    dense = _dense(sp)
    best = 1.0
    centers, radii = _centers(sp)
    for x in centers:
        for r in radii:
            best = max(best, sp.measure[dense[x] < 2 * r].sum() / sp.measure[dense[x] < r].sum())
    return best


@pytest.mark.parametrize("make", SMALL_GALLERY, ids=SMALL_GALLERY_IDS)
def test_readers_on_truncated_rows_match_full_rows_gallery(make, monkeypatch):
    truncated = _reader_results(make())
    _full_rows_only(monkeypatch)
    assert _reader_results(make()) == truncated


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_readers_on_truncated_rows_match_full_rows_random(sp):
    truncated = _reader_results(sp)
    assert truncated["doubling"].C_D == _dense_doubling(sp)
    with pytest.MonkeyPatch.context() as mp:
        _full_rows_only(mp)
        assert _reader_results(sp) == truncated


@pytest.mark.parametrize("make", SMALL_GALLERY, ids=SMALL_GALLERY_IDS)
def test_doubling_matches_dense_brute_force(make):
    sp = make()
    assert sp.n <= 300
    assert doubling_profile(sp).C_D == _dense_doubling(sp)


def _poincare_samples(sp):
    """The Poincare estimate's grid: every j-th center of the default
    profile grid, j = max(1, len(centers) // 16), at the same radii."""
    centers, radii = _centers(sp)
    return centers[:: max(1, len(centers) // 16)], radii


def _dense_poincare(sp, s):
    """Weak (s, s) Poincare sup over the Poincare centers at lam = 2, from
    full dense rows: (avg over B of |f - f_B|^s)^(1/s) over r (avg over 2B
    of lip f^s)^(1/s), the slope taken on every edge."""
    dense = _dense(sp)
    e0, e1 = sp.edges[:, 0], sp.edges[:, 1]
    m = sp.measure
    centers, radii = _poincare_samples(sp)
    best = 0.0
    for x in centers:
        d = dense[x]
        for r in radii:
            B, B2 = d < r, d < 2 * r
            if B.sum() < 2:
                continue
            cands = [d, np.maximum(0.0, 1.0 - d / r)]
            if sp.coords is not None:
                cands.append(sp.coords[:, 0] + sp.coords[:, 1])
            for f in cands:
                slope = np.zeros(sp.n)
                edge_slope = np.abs(f[e0] - f[e1]) / sp.lengths
                np.maximum.at(slope, e0, edge_slope)
                np.maximum.at(slope, e1, edge_slope)
                fB = np.average(f[B], weights=m[B])
                osc = np.average(np.abs(f[B] - fB) ** s, weights=m[B]) ** (1 / s)
                grad = np.average(slope[B2] ** s, weights=m[B2]) ** (1 / s)
                if grad > 0:
                    best = max(best, osc / (r * grad))
    return best


@pytest.mark.parametrize("s", [1.0, 2.0])
@pytest.mark.parametrize("make", SMALL_GALLERY, ids=SMALL_GALLERY_IDS)
def test_profile_pass_equals_the_standalone_fits(make, s, monkeypatch):
    """The profile pass that a check runs under its sweep gives
    doubling_profile's Q and measure_poincare's C_P bit for bit, and its
    Poincare balls see the same rows and running bests, which the floor of
    1.0 on C_P would hide."""
    calls, passes = [], []
    balls, profile = verify._poincare_balls, verify.Profile

    def recording(prof, dx, line, best):
        out = balls(prof, dx, line, best)
        calls.append((dx.tobytes(), prof.radii, line, best, out))
        return out

    def kept(space, s=None):
        passes.append(profile(space, s))
        return passes[-1]

    monkeypatch.setattr(verify, "_poincare_balls", recording)
    monkeypatch.setattr(verify, "Profile", kept)
    sp = make()
    verify.local_sobolev_check(sp, 0, sp.diameter() / 2, s, s, make_family(sp, 0, 1, 40))
    in_pass = calls[:]
    calls.clear()
    assert passes[0].fits == (doubling_profile(sp).Q, verify.measure_poincare(sp, s))
    assert in_pass == calls


def _assert_farthest_point_order(sp):
    """Each profile center after the first is a vertex farthest from the
    centers before it, by a dense all-pairs matrix cut at the row limit."""
    dense = _dense(sp)
    profile = verify.Profile(sp)
    count, limit = profile.count, profile.limit
    centers, _ = _centers(sp)
    assert centers[0] == 0
    assert len(centers) == len(set(centers)) == min(count, sp.n)
    for k in range(1, len(centers)):
        near = dense[centers[:k]].min(axis=0)
        near[near > limit] = np.inf
        assert near[centers[k]] >= near.max() * (1 - 1e-12), (k, centers[k])


@pytest.mark.parametrize(
    "make",
    [*SMALL_GALLERY, lambda: grid_quadrant(16), lambda: sector_union(1.0, r_max=12.0)],
    ids=[*SMALL_GALLERY_IDS, "grid_quadrant_16", "sector_union_1_12"],
)
def test_profile_centers_are_farthest_points_gallery(make):
    _assert_farthest_point_order(make())


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=150))
def test_profile_centers_are_farthest_points_random(sp):
    _assert_farthest_point_order(sp)


def _dense_ahlfors(sp):
    """(Q, C_A) of the log-log fit over the default grid, or the NotAhlfors
    message."""
    dense = _dense(sp)
    centers, radii = _centers(sp)
    if len(radii) < 2:
        return "degenerate sample set"
    r = np.array([r for _ in centers for r in radii])
    mass = np.array([sp.measure[dense[x] < r].sum() for x in centers for r in radii])
    Q = np.polyfit(np.log(r), np.log(mass), 1)[0]
    C_A = max(1.0, np.max(np.maximum(mass / r**Q, r**Q / mass)))
    if C_A > verify.AHLFORS_CAP:
        return f"C_A={C_A:.3g} exceeds cap {verify.AHLFORS_CAP}"
    return Q, C_A


def _dense_radial(sp, o, eta):
    """(eta fit, C_o at exponent eta) over dyadic radii from the resolution
    to the eccentricity of o, from a dense row."""
    d = _dense(sp)[o]
    radii = [sp.resolution]
    while 2 * radii[-1] <= d.max():
        radii.append(2 * radii[-1])
    if radii[-1] < d.max():
        radii.append(d.max())
    mass = [sp.measure[d < r].sum() for r in radii]
    fit = np.polyfit(np.log(radii), np.log(mass), 1)[0] if len(radii) > 1 else 0.0
    C_o = min(
        (mass[j] / mass[i]) * (radii[i] / radii[j]) ** eta
        for i in range(len(radii))
        for j in range(i, len(radii))
    )
    return fit, C_o


@pytest.mark.parametrize("s", [1.0, 2.0])
@pytest.mark.parametrize("make", SMALL_GALLERY, ids=SMALL_GALLERY_IDS)
def test_sampled_poincare_matches_dense_averages(make, s):
    sp = make()
    assert _sampled_poincare(sp, s) == pytest.approx(_dense_poincare(sp, s), rel=1e-12)


@pytest.mark.parametrize("make", SMALL_GALLERY, ids=SMALL_GALLERY_IDS)
def test_ahlfors_fit_matches_dense_fit(make):
    sp = make()
    expected = _dense_ahlfors(sp)
    if isinstance(expected, str):
        with pytest.raises(NotAhlfors) as exc:
            ahlfors_fit(sp)
        assert str(exc.value) == expected
    else:
        params = ahlfors_fit(sp)
        assert (params.Q, params.C_A) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("make", SMALL_GALLERY, ids=SMALL_GALLERY_IDS)
def test_radial_fits_match_dense_fits(make):
    sp = make()
    eta = eta_fit(sp, 0)
    assert (eta, reverse_doubling_fit(sp, 0, eta)) == pytest.approx(
        _dense_radial(sp, 0, eta), rel=1e-12
    )


def _per_radius_poincare(sp, s):
    """_sampled_poincare as the sweep of each (center, radius) on its own:
    every candidate's slope taken afresh over all edges from a full row,
    the largest ratio scaled once per ball."""
    best = 0.0
    centers, radii = _poincare_samples(sp)
    for x in centers:
        dx = sp.dist_from(x)
        for r in radii:
            B, B2 = np.flatnonzero(dx < r), np.flatnonzero(dx < 2.0 * r)
            if len(B) < 2:
                continue
            mB, m2B = sp.measure[B], sp.measure[B2]
            scale = float(m2B.sum() / mB.sum()) ** (1.0 / s)
            cands = [dx, np.maximum(0.0, 1.0 - dx / r)]
            if sp.coords is not None:
                cands.append(sp.coords[:, 0] + sp.coords[:, 1])
            ball_best = 0.0
            for f in cands:
                fA = float((f[B] * mB).sum() / float(mB.sum()))
                num = float((np.abs(f[B] - fA) ** s * mB).sum()) ** (1.0 / s)
                energy = float((lip(sp, f)[B2] ** s * m2B).sum())
                den = r * energy ** (1.0 / s)
                ratio = num / den if den > 0 else 0.0
                if ratio > ball_best:
                    ball_best = ratio
            best = max(best, scale * ball_best)
    return best


def _coordless_path():
    k = np.arange(29)
    return build_space(30, list(zip(k, k + 1, np.full(29, 0.5))), np.linspace(1.0, 3.0, 30))


@pytest.mark.parametrize("s", [1.0, 1.5, 2.0])
@pytest.mark.parametrize(
    "make", [*SMALL_GALLERY, _coordless_path], ids=[*SMALL_GALLERY_IDS, "coordless_path"]
)
def test_sampled_poincare_equals_per_radius_reference(make, s):
    sp = make()
    assert _sampled_poincare(sp, s) == _per_radius_poincare(make(), s)


def _adjacency_slope(sp, f):
    """lip f reduced over each row of the adjacency matrix, which keeps the
    shortest of parallel edges; it shares no code with the edge scatter of
    pilab.verify."""
    adj = sp.adjacency
    deg = np.diff(adj.indptr)
    q = np.abs(np.repeat(f, deg) - f[adj.indices]) / adj.data
    out = np.zeros(sp.n)
    out[deg > 0] = np.maximum.reduceat(q, adj.indptr[:-1][deg > 0])
    return out


def _multigraph():
    """Two parallel 0-1 edges of different lengths and a self-loop at 2."""
    edges = [(0, 1, 1.0), (0, 1, 0.5), (1, 2, 2.0), (2, 2, 0.7), (2, 3, 1.5), (3, 0, 0.25)]
    return build_space(4, edges, np.ones(4))


def _star():
    """1 000 leaves on one center, at lengths from 0.5 to 2."""
    edges = zip(np.zeros(1000, dtype=int), np.arange(1, 1001), np.linspace(0.5, 2.0, 1000))
    return build_space(1001, edges, np.ones(1001))


def _with_nonfinite(rng, n):
    f = rng.normal(size=n)
    special = rng.random(n) < 0.25
    f[special] = rng.choice([np.inf, -np.inf, np.nan], int(special.sum()))
    return f


SLOPE_SPACES = [*SMALL_GALLERY, _multigraph, _star]
SLOPE_SPACE_IDS = [*SMALL_GALLERY_IDS, "multigraph", "star"]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("make", SLOPE_SPACES, ids=SLOPE_SPACE_IDS)
def test_lip_equals_edge_list_slope(make):
    """lip, and the slope that verify's ratios take at a vertex set, equal
    the adjacency oracle byte for byte, infinities and NaN included."""
    sp = make()
    rng = np.random.default_rng(3)
    fixed = [np.resize([np.inf, 1.0, -np.inf, np.nan, 2.0], sp.n), np.full(sp.n, np.inf)]
    sets = [rng.choice(sp.n, size, replace=False) for size in (0, 1, max(1, sp.n // 3), sp.n)]
    # one slope per set, so that later functions reuse its edge selection
    slopes = [(at, _slope_on(sp, at)) for at in sets]
    for f in [*(_with_nonfinite(rng, sp.n) for _ in range(8)), *fixed]:
        want = _adjacency_slope(sp, f)
        assert lip(sp, f).tobytes() == want.tobytes()
        for at, slope in slopes:
            assert slope(f).tobytes() == want[at].tobytes()


@pytest.mark.parametrize("make", SLOPE_SPACES, ids=SLOPE_SPACE_IDS)
def test_lip_at_reads_f_only_at_its_vertices_and_their_neighbours(make):
    """The slope that verify's ratios take at a vertex set E reads f only at
    E and the neighbours of E."""
    sp = make()
    rng = np.random.default_rng(5)
    f = rng.normal(size=sp.n)
    E = rng.choice(sp.n, max(1, sp.n // 3), replace=False)
    near = np.zeros(sp.n, dtype=bool)
    near[E] = True
    near[sp.edges[near[sp.edges].any(axis=1)]] = True
    assert near.sum() < sp.n
    slope = _slope_on(sp, E)
    assert slope(np.where(near, f, np.nan)).tobytes() == slope(f).tobytes()
