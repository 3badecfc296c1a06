import math
import pathlib
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csgraph

from pilab import verify
from pilab.constants import (
    ahlfors_factor,
    annulus_constant,
    hardy_factor,
    patching_constant,
    weighted_constant,
)
from pilab.errors import EmptyPiece, NotAhlfors, NotConnected, NotInAnnulus
from pilab.gallery import (
    cone_grid,
    grid_quadrant,
    path_space,
    radial_profile,
    sector_union,
    sector_union_origin,
)
from pilab.space import FiniteMetricMeasureSpace, default_profile_samples
from pilab.verify import (
    ahlfors_sobolev_check,
    annulus_piece_check,
    cheeger_energy,
    hardy_check,
    lip,
    local_sobolev_check,
    make_family,
    weighted_sobolev_check,
    write_reports_csv,
)
from pilab.weights import weight_density


def test_lip_examples():
    sp = path_space(3)
    assert np.array_equal(lip(sp, [5.0, 5.0, 5.0]), np.zeros(3))
    assert np.array_equal(lip(sp, [0.0, 1.0, 2.0]), np.ones(3))
    f = np.array([0.0, 2.0, 1.0])
    assert np.allclose(lip(sp, 3 * f), 3 * lip(sp, f))


def test_cheeger_energy_examples():
    sp = path_space(3)
    assert cheeger_energy(sp, [0.0, 1.0, 2.0], 1.0) == pytest.approx(3.0)
    assert cheeger_energy(sp, [7.0, 7.0, 7.0], 2.0) == 0.0
    f = np.array([0.0, 1.0, 3.0])
    assert cheeger_energy(sp, 2 * f, 2.0) == pytest.approx(4 * cheeger_energy(sp, f, 2.0))


def test_patching_constant_values():
    assert patching_constant(1, 1, 1, 1, 2, 2) == pytest.approx(10.0, abs=1e-12)
    assert patching_constant(1, 1, 1, 1, 1, 1) == pytest.approx(3.0, abs=1e-12)
    # (2 C1 C2)^t beyond the float range is inf, not OverflowError
    assert patching_constant(1e200, 1e200, 1, 1, 1, 2) == math.inf
    # every overflowing factor of the annulus constant is inf, not an error
    ann = annulus_constant(200.0, 1.0, 2.0, 0.5, 1.0, 1.0, "sobolev", [])
    assert ann.C1 == ann.Q1 == ann.value == math.inf


def test_weighted_constant_factors_overflow_to_inf():
    # 2^s kappa^(2s) at s = 600, kappa = 2 and (1e300)^3 leave the float
    # range: inf, not OverflowError, and an infinite factor makes the
    # constant infinite
    assert hardy_factor(600.0, 2.0) == math.inf
    assert ahlfors_factor(1e300, 0.25, 1.0) == math.inf
    flags = []
    const = weighted_constant(
        2.0, 1.0, 2.0, 1.0, 1.0, 1.0, 6, 8.0, 600.0, 600.0, flags, local_scale=math.inf
    )
    assert const.C1 == const.value == math.inf
    assert (const.Q1, const.Q2) == (6.0, 8.0)
    assert flags == ["s_not_below_Q"]


@pytest.mark.parametrize(
    "constant",
    [
        lambda Q, flags: annulus_constant(Q, 1.5, 2.0, 0.5, 1.0, 2.0, "poincare", flags),
        lambda Q, flags: annulus_constant(Q, 1.5, 2.0, 0.5, 1.0, 2.0, "sobolev", flags),
        lambda Q, flags: weighted_constant(Q, 1.5, 2.0, 3.0, 4.0, 2.0, 6, 8.0, 1.0, 2.0, flags),
    ],
    ids=["annulus-poincare", "annulus-sobolev", "weighted"],
)
def test_patched_constants_floor_Q_at_one(constant):
    # the checks pass the raw doubling dimension; the constants floor it
    low, one = [], []
    assert constant(0.5, low) == constant(1.0, one)
    assert low == one


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.5, 5.0),
    st.floats(0.5, 5.0),
    st.floats(1.0, 10.0),
    st.floats(1.0, 10.0),
    st.floats(1.0, 3.0),
)
def test_patching_monotone(C1, C2, Q1, Q2, s):
    t = s + 0.5
    base = patching_constant(C1, C2, Q1, Q2, s, t)
    assert patching_constant(C1 * 1.1, C2, Q1, Q2, s, t) > base
    assert patching_constant(C1, C2, Q1 * 1.1, Q2, s, t) > base
    assert patching_constant(C1, C2, Q1, Q2 * 1.1, s, t) > base


def test_weight_density_collapse_and_values():
    sp = radial_profile(64, 2.0)
    w_st = weight_density(sp, 0, "mu_st", s=1.0, t=1.0)
    w_s = weight_density(sp, 0, "mu_s", s=1.0)
    assert np.allclose(w_st, w_s)
    assert w_st[0] == 0.0  # base point excluded
    # direct ball-mass check at distance 8
    w2 = weight_density(sp, 0, "mu_st", s=1.0, t=2.0)
    assert w2[8] == pytest.approx(sp.measure[sp.ball(0, 8.0)].sum() * 8.0**-2)


def test_weight_density_ahlfors_exponents():
    sp = path_space(9)
    w = weight_density(sp, 0, "ahlfors", s=1.0, t=2.0, Q=2.0)
    # substitution-consistent exponent Q(t/s-1) - t = 0
    assert np.allclose(w[1:], 1.0)


def test_make_family_deterministic_and_finite():
    sp = grid_quadrant(10)
    fam1 = make_family(sp, 0, seed=42, count=40)
    fam2 = make_family(sp, 0, seed=42, count=40)
    assert [n for n, _ in fam1] == [n for n, _ in fam2]
    for (_, a), (_, b) in zip(fam1, fam2):
        assert np.array_equal(a, b)
    for _, vals in fam1:
        assert np.all(np.isfinite(vals))
    fam3 = make_family(sp, 0, seed=43, count=40)
    assert any(not np.array_equal(a, b) for (_, a), (_, b) in zip(fam1, fam3))


def test_family_is_sized_and_reiterable():
    sp = grid_quadrant(10)
    for count in (0, 7, 40):
        fam = make_family(sp, 0, seed=11, count=count)
        kept = [(name, _bytes(vals)) for name, vals in list(fam)]
        assert len(fam) == len(kept) == 5 * max(1, count // 5)
        names = [name for name, _ in kept]
        assert not any(name.startswith("random_lipschitz") for name in names)
        assert sum(name.startswith("radial_power") for name in names) == 2 * max(1, count // 5)
        for _ in range(2):
            assert [(name, _bytes(vals)) for name, vals in fam] == kept
        # two passes at once draw from separate generators
        for (n1, v1), (n2, v2) in zip(fam, fam):
            assert n1 == n2 and _bytes(v1) == _bytes(v2)


def _bytes(vals):
    """A member's values as bytes; a tent's are computed by np.asarray."""
    return np.asarray(vals, dtype=float).tobytes()


def test_family_memory_does_not_grow_with_count():
    # a sweep holds one test function at a time: 400 functions on 4225
    # vertices would hold 13.5 MB at once
    sp = grid_quadrant(64)
    hardy_check(sp, 0, 1.0, make_family(sp, 0, 1, 5))  # fill the row cache first
    peaks = {}
    for count in (40, 400):
        tracemalloc.start()
        try:
            hardy_check(sp, 0, 1.0, make_family(sp, 0, 1, count))
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[400] <= peaks[40] + 0.5 * 2**20


def test_bounded_sweep_finishes_few_members(monkeypatch):
    # grid_quadrant(32), seed 1, count 200: the slope bound leaves 1 of 200
    # members to finish, the first, and each finished member takes one
    # full-space slope; the Poincare estimate takes only slopes on balls.
    # A full sweep makes 200.
    sp = grid_quadrant(32)
    slopes = []
    full_lip = verify.lip

    def counting_lip(space, f):
        slopes.append(f)
        return full_lip(space, f)

    monkeypatch.setattr(verify, "lip", counting_lip)
    rep = hardy_check(sp, 0, 1.0, make_family(sp, 0, 1, 200))
    assert rep.witness == "radial_power[0.2500]"
    assert 1 <= len(slopes) <= 10


def test_weighted_sweep_builds_few_radial_members(monkeypatch):
    # grid_quadrant(32), hardy, seed 1: the bound on o's distance classes
    # builds at most 2 of the 120 radial powers and annulus cutoffs, and the
    # sweep reads each member it builds through the check's ratio; a sweep
    # that builds every member passes all 120 to it
    sp = grid_quadrant(32)
    radial = {
        f.tobytes() for fid, f in make_family(sp, 0, 1, 200)
        if fid.startswith(("radial_power", "annulus_cutoff"))
    }
    swept = []
    slope_ratio = verify._slope_ratio

    def recording_ratio(*args, **kwargs):
        ratio = slope_ratio(*args, **kwargs)
        return lambda f, best=None: swept.append(np.asarray(f).tobytes()) or ratio(f, best=best)

    monkeypatch.setattr(verify, "_slope_ratio", recording_ratio)
    rep = hardy_check(sp, 0, 1.0, make_family(sp, 0, 1, 200))
    assert rep.witness == "radial_power[0.2500]"
    assert 1 <= sum(f in radial for f in swept) <= 2


# The RuntimeWarnings, as (file, message), of weighted-sobolev on
# radial_profile(256, 120), whose weighted masses overflow in float64: the
# same kinds as when the sweep built every member.
OVERFLOW_WARNINGS = {
    ("verify.py", "overflow encountered in multiply"),
    ("verify.py", "invalid value encountered in multiply"),
    ("covering.py", "invalid value encountered in divide"),
    ("graph_ineq.py", "invalid value encountered in divide"),
    ("graph_ineq.py", "divide by zero encountered in divide"),
}


def test_overflowing_weight_warns_as_before():
    sp = radial_profile(256, 120.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = weighted_sobolev_check(sp, 0, 1.0, 2.0, make_family(sp, 0, 1, 200))
    assert (rep.empirical_best, rep.witness) == (math.inf, "radial_power[0.2500]")
    assert all(w.category is RuntimeWarning for w in caught)
    assert {(pathlib.Path(w.filename).name, str(w.message)) for w in caught} <= OVERFLOW_WARNINGS


# grid_quadrant's edges have one length, so its rows come from breadth-first
# search; cone_grid's lengths differ, so its rows come from Dijkstra
SEARCH_SPACES = [lambda: grid_quadrant(32), lambda: cone_grid(20, 2.0)]
SEARCH_IDS = ["grid_quadrant-bfs", "cone_grid-dijkstra"]


def _count_searches(monkeypatch, searches):
    """Append the source of every row search, by either method, to `searches`."""
    dijkstra, bfs = csgraph.dijkstra, csgraph.breadth_first_order

    def counting_dijkstra(*args, **kwargs):
        searches.append(int(kwargs["indices"]))
        return dijkstra(*args, **kwargs)

    def counting_bfs(graph, start, *args, **kwargs):
        searches.append(int(start))
        return bfs(graph, start, *args, **kwargs)

    monkeypatch.setattr(csgraph, "dijkstra", counting_dijkstra)
    monkeypatch.setattr(csgraph, "breadth_first_order", counting_bfs)


@pytest.mark.parametrize("make", SEARCH_SPACES, ids=SEARCH_IDS)
def test_profile_searches_each_center_once(monkeypatch, make):
    # one row per profile center feeds the doubling masses, at every
    # Poincare center its balls, and the family's tents and indicators at
    # it; a center whose full row is cached (0, the base point, and the
    # diameter's rows, read here first) takes none, and the sweep reads no
    # other row while the pass runs
    sp = make()
    sp.diameter()
    searches, passes = [], []
    rows = verify.profile_rows

    def counting_rows(space):
        cached = set(space._dist_cache)
        searches.clear()
        centers = []
        for x, d in rows(space):
            centers.append(x)
            yield x, d
        passes.append((cached, centers, list(searches)))

    _count_searches(monkeypatch, searches)
    monkeypatch.setattr(verify, "profile_rows", counting_rows)
    weighted_sobolev_check(sp, 0, 1.0, 2.0, make_family(sp, 0, 1, 200))
    ((cached, centers, searched),) = passes
    assert 0 in cached and len(centers) == default_profile_samples(sp)[0]
    assert searched == [x for x in centers if x not in cached]


@pytest.mark.parametrize("make", SEARCH_SPACES, ids=SEARCH_IDS)
@pytest.mark.parametrize("check", ["hardy", "weighted-sobolev"])
def test_family_starts_no_search_of_its_own(monkeypatch, check, make):
    # every row search of a call is a profile center's row, one of the
    # diameter's rows or o's row: the 40 tents and 40 indicators read the
    # rows of the profile centers as the profile pass reads them
    probe = make()
    probe.diameter()
    count, _, _ = default_profile_samples(probe)
    searches = []
    _count_searches(monkeypatch, searches)
    sp = make()
    fam = make_family(sp, 0, 1, 200)
    if check == "hardy":
        hardy_check(sp, 0, 1.0, fam)
    else:
        weighted_sobolev_check(sp, 0, 1.0, 2.0, fam)
    assert len(searches) <= count + len(probe._dist_cache) + 1


def test_slope_ratio_returns_zero_for_a_member_it_skips():
    # returning the bound instead could round above the best once the
    # sampled Poincare estimate multiplies the ratio by a ball's scale
    sp = grid_quadrant(8)
    ratio = verify._slope_ratio(sp, lambda f: 1.0, 1.0, scale=3.0)
    d = sp.dist_from(0)
    assert ratio(d) > 0.0
    assert ratio(d, best=0.0) == ratio(d)
    assert ratio(d, best=2.0 * ratio(d)) == 0.0


def test_family_tent_lip_bound():
    sp = grid_quadrant(10)
    fam = make_family(sp, 0, seed=5, count=40)
    for name, vals in fam:
        if name.startswith("tent["):
            # width is rounded to 4 decimals in the id string
            width = float(name[:-1].split(",")[1])
            assert lip(sp, vals).max() <= 1.0 / width * (1 + 1e-3)


def test_family_annulus_cutoff_shape():
    sp = path_space(40)
    fam = make_family(sp, 0, seed=9, count=40)
    d = sp.dist_from(0)
    for name, vals in fam:
        if name.startswith("annulus_cutoff["):
            r, R = (float(v) for v in name[len("annulus_cutoff["):-1].split(","))
            assert np.all(vals[d <= r] == 1.0)
            assert np.all(vals[d >= R] == 0.0)


def test_local_sobolev_grid():
    sp = grid_quadrant(24)
    fam = make_family(sp, 0, seed=1, count=60)
    center = sp.n // 2
    rep = local_sobolev_check(sp, center, 8.0, 1.0, 2.0, fam)
    assert rep.passed
    assert rep.empirical_best > 0
    assert rep.theoretical > 10 * rep.empirical_best  # generous slack expected


def test_local_sobolev_t_equals_s():
    sp = grid_quadrant(16)
    fam = make_family(sp, 0, seed=2, count=40)
    rep = local_sobolev_check(sp, 0, 6.0, 1.0, 1.0, fam)
    assert rep.passed


@pytest.mark.parametrize("R", [0.5, 1.0])
def test_local_sobolev_on_one_vertex_ball_raises(R):
    # B_R(40) is {40} for R <= 1 on the unit grid: every oscillation on it is zero
    sp = grid_quadrant(8)
    with pytest.raises(EmptyPiece, match="fewer than two vertices"):
        local_sobolev_check(sp, 40, R, 1.0, 1.0, make_family(sp, 0, 1, 20))


def test_annulus_piece_check_poincare():
    sp = grid_quadrant(20)
    d = sp.dist_from(0)
    A = np.flatnonzero((d >= 6) & (d < 12))
    fam = make_family(sp, 0, seed=3, count=40)
    rep = annulus_piece_check(sp, 0, 6.0, 2.0, 0.5, A, 1.0, 1.0, fam, flavor="poincare")
    assert rep.passed
    rep2 = annulus_piece_check(sp, 0, 6.0, 2.0, 0.5, A, 1.0, 2.0, fam, flavor="sobolev")
    assert rep2.passed


def _annulus_piece(sp, A):
    """annulus_piece_check on A of grid_quadrant(16) around 0 at R = 4, alpha = 2."""
    return annulus_piece_check(sp, 0, 4.0, 2.0, 0.5, A, 1.0, 1.0, make_family(sp, 0, 1, 20))


@pytest.mark.parametrize(
    "pick, error",
    [
        (lambda sp: [], NotInAnnulus),
        (lambda sp: sp.annulus(0, 3.0, 8.0), NotInAnnulus),  # reaches inside R
        (lambda sp: sp.annulus(0, 4.0, 8.0)[[0, -1]], NotConnected),  # two vertices 11 apart
        (lambda sp: sp.annulus(0, 4.0, 8.0)[:1], EmptyPiece),
    ],
    ids=["empty", "inside_R", "disconnected", "single_vertex"],
)
def test_annulus_piece_check_refusals(pick, error):
    sp = grid_quadrant(16)
    with pytest.raises(error):
        _annulus_piece(sp, pick(sp))


@pytest.mark.parametrize("scale", [1.0, 1e-12])
def test_annulus_piece_tolerance_is_relative_to_R(scale):
    # the same space and sets with every length and R scaled: [3, 8) reaches
    # inside R and is refused at both scales, [4, 8) is scored alike
    sp = grid_quadrant(16)
    scaled = FiniteMetricMeasureSpace(sp.n, sp.edges, scale * sp.lengths, sp.measure)
    d = scaled.dist_from(0) / scale
    fam = make_family(scaled, 0, 1, 20)

    def check(A):
        return annulus_piece_check(scaled, 0, 4.0 * scale, 2.0, 0.5, A, 1.0, 1.0, fam)

    with pytest.raises(NotInAnnulus):
        check(np.flatnonzero((d >= 3) & (d < 8)))
    best = check(np.flatnonzero((d >= 4) & (d < 8))).empirical_best
    assert best == pytest.approx(_annulus_piece(sp, sp.annulus(0, 4.0, 8.0)).empirical_best, rel=1e-9)


def test_ratio_homogeneity():
    sp = grid_quadrant(12)
    w = weight_density(sp, 0, "mu_s", s=1.0)
    mu = w * sp.measure
    f = sp.dist_from(0) ** 0.5
    base = (np.abs(f) * mu).sum() / cheeger_energy(sp, f, 1.0)
    for a in (2.0, 0.3, 7.5):
        scaled = (np.abs(a * f) * mu).sum() / cheeger_energy(sp, a * f, 1.0)
        assert scaled == pytest.approx(base, rel=1e-12)


def test_hardy_and_sobolev_pass_small_grid():
    sp = grid_quadrant(24)
    fam = make_family(sp, 0, seed=4, count=60)
    rh = hardy_check(sp, 0, 1.0, fam)
    assert rh.passed
    assert rh.hypotheses_violated == ""
    rs = weighted_sobolev_check(sp, 0, 1.0, 2.0, fam)
    assert rs.passed


def test_measure_scaling_invariance_t_equals_s():
    from pilab.gallery import build_space

    sp = grid_quadrant(12)
    sp2 = build_space(
        sp.n,
        [(int(u), int(v), float(l)) for (u, v), l in zip(sp.edges, sp.lengths)],
        5.0 * sp.measure,
        sp.coords,
    )
    fam = make_family(sp, 0, seed=6, count=40)
    r1 = hardy_check(sp, 0, 1.0, fam)
    r2 = hardy_check(sp2, 0, 1.0, fam)
    assert r1.empirical_best == pytest.approx(r2.empirical_best, rel=1e-9)
    assert r1.passed == r2.passed


def test_failed_covering_axiom_fails_the_check(monkeypatch):
    sp = grid_quadrant(16)
    fam = make_family(sp, 0, seed=4, count=20)
    good = hardy_check(sp, 0, 1.0, fam)
    validate = verify.validate_covering

    def one_axiom_fails(*args, **kwargs):
        val = validate(*args, **kwargs)
        val.axioms_pass["axiom2_cover"] = False
        return val

    monkeypatch.setattr(verify, "validate_covering", one_axiom_fails)
    bad = hardy_check(sp, 0, 1.0, fam)
    assert good.passed and good.hypotheses_violated == ""
    assert not bad.passed and bad.hypotheses_violated == "covering_axiom_failed"
    assert (bad.empirical_best, bad.theoretical) == (good.empirical_best, good.theoretical)


@pytest.mark.parametrize("n", [32, 64, 128, 256, 512, 1024, 2048])
def test_eta_flag_on_uniform_path(n):
    # eta_fit is 1 up to a few ulp here, on either side of s = 1
    sp = radial_profile(n, 1.0)
    fam = make_family(sp, 0, seed=8, count=40)
    rep = hardy_check(sp, 0, 1.0, fam)
    assert "eta_not_above_s" in rep.hypotheses_violated


def test_no_iso_not_exact_flag_on_large_covering_graph():
    # kappa 1.5 gives 36 interior covering pieces; the isoperimetric
    # constant is exact at any size, so nothing is flagged for it.
    sp = sector_union(1.0)
    o = sector_union_origin(sp)
    fam = make_family(sp, o, seed=2, count=20)
    rep = hardy_check(sp, o, 1.0, fam, kappa=1.5)
    assert "iso_not_exact" not in rep.hypotheses_violated.split(";")


def test_ahlfors_matches_hardy_when_t_equals_s():
    sp = grid_quadrant(16)
    fam = make_family(sp, 0, seed=10, count=40)
    rh = hardy_check(sp, 0, 1.0, fam)
    ra = ahlfors_sobolev_check(sp, 0, 1.0, 1.0, fam)
    assert ra.empirical_best == pytest.approx(rh.empirical_best, abs=1e-9)
    assert ra.theoretical == pytest.approx(rh.theoretical, rel=1e-9)


def test_ahlfors_at_t_equals_s_needs_no_ahlfors_fit():
    # radial_profile(256, 12) is far from Ahlfors regular (C_A ~ 1e26): at
    # t = s the weight is the Hardy weight and the fit is never read, so
    # only t != s may raise
    sp = radial_profile(256, 12.0)
    fam = make_family(sp, 0, seed=1, count=20)
    rh = asdict(hardy_check(sp, 0, 1.0, fam))
    ra = asdict(ahlfors_sobolev_check(sp, 0, 1.0, 1.0, fam))
    assert ra["inequality"] == "ahlfors-sobolev"
    for rep in (rh, ra):
        del rep["inequality"], rep["seconds"]
    assert ra == rh
    with pytest.raises(NotAhlfors, match="exceeds cap"):
        ahlfors_sobolev_check(sp, 0, 1.0, 2.0, fam)


def test_csv_deterministic(tmp_path):
    sp = grid_quadrant(12)
    fam = make_family(sp, 0, seed=12, count=30)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_reports_csv([hardy_check(sp, 0, 1.0, fam)], p1, zero_seconds=True)
    write_reports_csv([hardy_check(sp, 0, 1.0, fam)], p2, zero_seconds=True)
    assert p1.read_bytes() == p2.read_bytes()
