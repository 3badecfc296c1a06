"""The bounded sweep of `verify._verdict` against a full-sweep oracle.

The oracle finishes every member of `make_family(...)` and takes its
slopes row by row from the space's adjacency matrix, not from its edge
list, so it shares neither the bounds nor the slope code with the code
under test.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy.sparse import csgraph
from test_space import SMALL_GALLERY, SMALL_GALLERY_IDS, connected_graphs

from pilab import verify
from pilab.cli import _largest_annulus_component
from pilab.covering import kappa_decomposition
from pilab.errors import NoBoundary, NotAhlfors
from pilab.gallery import cone_grid, grid_quadrant, radial_profile
from pilab.space import FiniteMetricMeasureSpace
from pilab.verify import Profile, _radial_bound, ahlfors_fit
from pilab.weights import weight_density


def _slopes(sp, f):
    """lip f: the largest |f(x) - f(y)| / d(x, y) over the neighbours y of
    x, reduced over each row of the adjacency matrix."""
    adj = sp.adjacency
    deg = np.diff(adj.indptr)
    q = np.abs(np.repeat(f, deg) - f[adj.indices]) / adj.data
    out = np.zeros(sp.n)
    out[deg > 0] = np.maximum.reduceat(q, adj.indptr[:-1][deg > 0])
    return out


def _weighted(sp, mu, s, t):
    def ratio(f):
        en = float((_slopes(sp, f) ** s * sp.measure).sum())
        return float((np.abs(f) ** t * mu).sum()) ** (1 / t) / en ** (1 / s) if en > 0 else 0.0

    return ratio


def _oscillation(sp, A, E, R, s, t):
    m = sp.measure

    def ratio(f):
        fA = (f[A] * m[A]).sum() / m[A].sum()
        num = float((np.abs(f[A] - fA) ** t * m[A]).sum()) ** (1 / t)
        en = float((_slopes(sp, f)[E] ** s * m[E]).sum())
        den = R * float(m[A].sum()) ** (1 / t - 1 / s) * en ** (1 / s)
        return num / den if den > 0 else 0.0

    return ratio


def _cases(sp, o, kappa=2.0):
    """(name, run, oracle ratio) per check: run(family) is the check's report."""
    m = sp.measure
    yield (
        "hardy",
        lambda fam: verify.hardy_check(sp, o, 1.0, fam, kappa=kappa),
        _weighted(sp, weight_density(sp, o, "mu_s", s=1.0) * m, 1.0, 1.0),
    )
    for s, t in [(1.0, 2.0), (1.5, 3.0)]:
        yield (
            f"weighted-sobolev-{s:g}-{t:g}",
            lambda fam, s=s, t=t: verify.weighted_sobolev_check(sp, o, s, t, fam, kappa=kappa),
            _weighted(sp, weight_density(sp, o, "mu_st", s=s, t=t) * m, s, t),
        )
    try:
        Q = ahlfors_fit(sp).Q
    except NotAhlfors:
        Q = None
    if Q is not None:
        yield (
            "ahlfors",
            lambda fam: verify.ahlfors_sobolev_check(sp, o, 1.0, 2.0, fam, kappa=kappa),
            _weighted(sp, weight_density(sp, o, "ahlfors", s=1.0, t=2.0, Q=Q) * m, 1.0, 2.0),
        )
    # the radii and the annulus piece of `pilab verify`
    diam = sp.diameter()
    R = max(diam / 8.0, 4 * sp.resolution)
    A = _largest_annulus_component(sp, o, R, 2.0) if len(sp.annulus(o, R, 2 * R)) else []
    if len(A) >= 2:
        fat = np.flatnonzero(sp.dist_to_set(A, limit=R / 2) < R / 2)
        yield (
            "annulus",
            lambda fam: verify.annulus_piece_check(sp, o, R, 2.0, 0.5, A, 1.0, 1.0, fam),
            _oscillation(sp, A, fat, R, 1.0, 1.0),
        )
    r = max(diam / 4.0, 2 * sp.resolution)
    B = sp.ball(o, r)
    if len(B) >= 2:
        yield (
            "local-sobolev",
            lambda fam: verify.local_sobolev_check(sp, o, r, 1.0, 2.0, fam),
            _oscillation(sp, B, B, r, 1.0, 2.0),
        )


def _mismatches(sp, o, seed, count, family=verify.Family, base=None):
    """The checks at o whose (empirical_best, witness) differ from the
    oracle's, and those that refuse the space, or fail to, against
    expectation: a covering whose pieces all sit on one level has no
    interior, so every weighted check raises NoBoundary on it, and only
    there.  The family's radial members read the row of `base` (o when None)."""
    base = o if base is None else base
    members = [(fid, np.asarray(f, dtype=float)) for fid, f in family(sp, base, seed, count)]
    one_level = len(np.unique(kappa_decomposition(sp, o, 2.0).pieces)) == 1
    bad = []
    for name, run, ratio in _cases(sp, o):
        refuses = one_level and name not in ("annulus", "local-sobolev")
        try:
            rep = run(family(sp, base, seed, count))
        except NoBoundary:
            if not refuses:
                bad.append((name, "NoBoundary"))
            continue
        if refuses:
            bad.append((name, "no NoBoundary"))
            continue
        ratios = {fid: ratio(f) for fid, f in members}
        best = max([0.0, *ratios.values()])
        # the witness is a maximizer; rounding may reorder near ties
        same = rep.empirical_best == pytest.approx(best, rel=1e-9) and (
            ratios[rep.witness] == pytest.approx(best, rel=1e-9) if best > 0 else rep.witness == ""
        )
        if not same:
            bad.append((name, rep.empirical_best, rep.witness, best))
    return bad


GALLERY = {
    "grid_quadrant_16": lambda: grid_quadrant(16),
    "cone_grid_20_1": lambda: cone_grid(20, 1.0),
    "radial_profile_256_2": lambda: radial_profile(256, 2.0),
}


@pytest.mark.parametrize("family", [verify.Family], ids=["family"])
@pytest.mark.parametrize("seed", [1, 17])
@pytest.mark.parametrize("make", list(GALLERY.values()), ids=list(GALLERY))
def test_bounded_sweep_matches_full_sweep_oracle(make, seed, family):
    assert _mismatches(make(), 0, seed, 200, family) == []


@pytest.mark.parametrize("make", list(GALLERY.values()), ids=list(GALLERY))
def test_bounded_sweep_matches_oracle_on_a_family_made_elsewhere(make):
    # the checks at 0 sweep the radial members of a family made at the far
    # end, so each member must be bounded on the row it reads, not on 0's
    sp = make()
    assert _mismatches(sp, 0, 1, 200, base=sp.n - 1) == []


@st.composite
def connected_spaces(draw):
    """A k x k grid, some diagonals added, with random lengths and masses."""
    k = draw(st.integers(5, 10))
    idx = np.arange(k * k).reshape(k, k)
    edges = [*zip(idx[:, :-1].ravel(), idx[:, 1:].ravel()), *zip(idx[:-1].ravel(), idx[1:].ravel())]
    diagonals = list(zip(idx[:-1, :-1].ravel(), idx[1:, 1:].ravel()))
    edges += draw(st.lists(st.sampled_from(diagonals), max_size=k))
    lengths = draw(st.lists(st.floats(0.5, 2.0), min_size=len(edges), max_size=len(edges)))
    masses = draw(st.lists(st.floats(0.25, 4.0), min_size=k * k, max_size=k * k))
    return FiniteMetricMeasureSpace(k * k, edges, lengths, masses)


def _grid_far_from_o():
    """A 5 x 5 grid whose two edges at o = 0 are 2 long and all others 0.5:
    every vertex closer than 2^2 to o lies in [2, 4), so the pieces of the
    kappa = 2 decomposition all sit on level 2."""
    idx = np.arange(25).reshape(5, 5)
    edges = [*zip(idx[:, :-1].ravel(), idx[:, 1:].ravel()), *zip(idx[:-1].ravel(), idx[1:].ravel())]
    lengths = [2.0 if 0 in e else 0.5 for e in edges]
    return FiniteMetricMeasureSpace(25, edges, lengths, np.ones(25))


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(connected_spaces(), st.integers(0, 2**16))
@example(_grid_far_from_o(), 1)
def test_bounded_sweep_matches_full_sweep_oracle_random(sp, seed):
    assert _mismatches(sp, 0, seed, 40) == []


# -- the tents and indicators at the profile centers -----------------------------


def _centered_excess(sp, o=0, seed=1, count=200):
    """The family's tents and smoothed indicators that are not their ids'
    functions of the distance to their center, by a dense all-pairs matrix
    (Floyd-Warshall, not Dijkstra), with widths and radii drawn from the
    profile radii; or that are nonzero past their center's row limit."""
    dense = csgraph.shortest_path(sp.adjacency, method="FW", directed=False)
    profile = Profile(sp)
    radii, limit = profile.radii, profile.limit
    exact = {f"{r:.4f}": r for r in [*radii, 2 * radii[-1]]}
    bad = []
    for fid, f in verify.make_family(sp, o, seed, count):
        kind, _, args = fid[:-1].partition("[")
        if kind not in ("tent", "indicator_smooth"):
            continue
        c, *widths = args.split(",")
        d = dense[int(c)]
        if kind == "tent":
            want = np.maximum(0.0, 1.0 - d / exact[widths[0]])
        else:
            r, w = exact[widths[0]], exact[widths[1]]
            want = np.clip((r + w - d) / w, 0.0, 1.0)
        if not np.allclose(f, want, rtol=0, atol=1e-9) or f[d > limit].any():
            bad.append(fid)
    return bad


def _heavy_looped_end():
    """A path 0 - 1 - 2 whose end 2 carries most of the mass and a self-loop
    shorter than its edge."""
    return FiniteMetricMeasureSpace(3, [(0, 1), (1, 2), (2, 2)], [1.0, 1.0, 0.1], [1.0, 1.0, 1e6])


@pytest.mark.parametrize(
    "make", [*SMALL_GALLERY, _heavy_looped_end], ids=[*SMALL_GALLERY_IDS, "heavy_looped_end"]
)
def test_tent_bound_holds_gallery(make):
    # the row limit bounds every tent's and indicator's support
    assert _centered_excess(make()) == []


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_tent_bound_holds_random(sp):
    assert _centered_excess(sp) == []


def test_tent_bound_is_not_for_other_members():
    # the radial powers read o's full row, past the row limit
    sp = grid_quadrant(8)
    far = sp.dist_from(0) > Profile(sp).limit
    powers = [f for fid, f in verify.make_family(sp, 0, 1, 200) if fid.startswith("radial_power")]
    assert far.any() and len(powers) == 80
    assert all((f[far] > 0).all() for f in powers)


def _radial_class_mismatches(sp, o=0, seed=1, count=200):
    """The lazy members partial(g, d) of make_family(...).members, the radial
    powers and annulus cutoffs, and the ids of those whose values g(u) at the
    distinct distances u of o's row, gathered back to the vertices, differ in
    any bit from g(d), the values the sweep builds, or from the family's
    iteration."""
    d = sp.dist_from(o)
    u, cls = np.unique(d, return_inverse=True)
    family = verify.make_family(sp, o, seed, count)
    built = dict(family)
    lazy = [(fid, g) for fid, g in family.members(Profile(sp)) if callable(g)]
    bad = [
        fid for fid, g in lazy
        if g.func(u)[cls].tobytes() != g().tobytes() or g().tobytes() != built[fid].tobytes()
    ]
    return [fid for fid, _ in lazy], bad


@pytest.mark.parametrize(
    "make", [*SMALL_GALLERY, _heavy_looped_end], ids=[*SMALL_GALLERY_IDS, "heavy_looped_end"]
)
def test_radial_members_on_classes_are_bit_identical_gallery(make):
    lazy, bad = _radial_class_mismatches(make())
    assert len(lazy) == 120 and all(fid.startswith(("radial_power", "annulus_cutoff")) for fid in lazy)
    assert bad == []


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_radial_members_on_classes_are_bit_identical_random(sp):
    assert _radial_class_mismatches(sp)[1] == []


def _scaled_floor(factor):
    floor = verify._energy_floor
    return lambda *args, **kw: (lambda g: lambda f: factor * g(f))(floor(*args, **kw))


class _ShortRows(Profile):
    """verify.Profile with its row limit cut to the largest profile radius,
    short of the doubled balls and of the widest tents."""

    def __init__(self, space, s=None):
        super().__init__(space, s)
        self.limit = self.radii[-1]


def _heavy_class_pairs(profile, mu, t):
    """verify._radial_bound with every first-neighbour weight, and so every
    class-pair weight of its floor, taken 4 times."""
    x, y, w = profile.first
    return _radial_bound(SimpleNamespace(s=profile.s, first=(x, y, 4.0 * w)), mu, t)


MUTANTS = {
    "slope_bound_x4": ("_energy_floor", _scaled_floor(4.0)),
    "class_floor_x4": ("_radial_bound", _heavy_class_pairs),
    "row_limit_short": ("Profile", _ShortRows),
}


@pytest.mark.parametrize("name, mutant", list(MUTANTS.values()), ids=list(MUTANTS))
def test_oracle_catches_a_bound_too_small(monkeypatch, name, mutant):
    monkeypatch.setattr(verify, name, mutant)
    found = []
    for make in GALLERY.values():
        found += _mismatches(make(), 0, 1, 200) + _centered_excess(make(), 0)
    assert found
