"""The bounded sweep of `verify._verdict` against a full-sweep oracle.

The oracle finishes every member of `make_family(...)` and takes its
slopes row by row from the space's adjacency matrix, not from its edge
list, so it shares neither the bounds nor the slope code with the code
under test.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from test_space import SMALL_GALLERY, SMALL_GALLERY_IDS, connected_graphs

from pilab import verify
from pilab.cli import _largest_annulus_component
from pilab.covering import kappa_decomposition
from pilab.errors import NoBoundary, NotAhlfors
from pilab.gallery import cone_grid, grid_quadrant, radial_profile
from pilab.space import FiniteMetricMeasureSpace, ahlfors_fit
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


def _mismatches(sp, o, seed, count, family=verify.Family):
    """The checks whose (empirical_best, witness) differ from the oracle's,
    and those that refuse the space, or fail to, against expectation: a
    covering whose pieces all sit on one level has no interior, so every
    weighted check raises NoBoundary on it, and only there."""
    members = [(fid, np.asarray(f, dtype=float)) for fid, f in family(sp, o, seed, count)]
    one_level = len({p.level for p in kappa_decomposition(sp, o, 2.0).pieces}) == 1
    bad = []
    for name, run, ratio in _cases(sp, o):
        refuses = one_level and name not in ("annulus", "local-sobolev")
        try:
            rep = run(family(sp, o, seed, count))
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


# -- the row-free tent bound of the Hardy sweep ---------------------------------


def _shortest_edge(sp, c):
    """The shortest edge between c and another vertex, from the edge list."""
    at = (sp.edges == c).any(axis=1) & (sp.edges[:, 0] != sp.edges[:, 1])
    return float(sp.lengths[at].min())


def _tents(sp, o):
    """Tents (c, w) at every vertex c != o, with widths on both sides of the
    shortest edge at c and up to d(o, c)."""
    d = sp.dist_from(o)
    for c in range(sp.n):
        if c != o:
            ell = _shortest_edge(sp, c)
            near = (ell / 16, ell / 2, ell, 2 * ell)
            for w in (*near, *(q * d[c] for q in (0.25, 0.5, 0.9, 0.999, 1.0))):
                yield c, w


def _hardy_tent_ratio(sp, o, s, c, w):
    """The Hardy ratio of the tent (c, w), from a full row of c and lip."""
    d = sp.dist_from(o)
    mu = np.where(d > 0, d, np.inf) ** -s * sp.measure
    f = np.maximum(0.0, 1.0 - sp.dist_from(c) / w)
    energy = float((verify.lip(sp, f) ** s * sp.measure).sum())
    return (float((f**s * mu).sum()) / energy) ** (1 / s)


def _tent_bound_excess(sp, o):
    """Tents whose Hardy ratio at s = 1 or 2 exceeds verify's row-free bound."""
    bound = verify._tent_bound(sp, o)
    bad = []
    for c, w in _tents(sp, o):
        b = bound(verify.Tent(sp, c, w))
        bad += [(c, w, s, r, b) for s in (1.0, 2.0) if (r := _hardy_tent_ratio(sp, o, s, c, w)) > b]
    return bad


def _tent_bound_oracle(sp, o=0):
    """The tents where verify's bound is not max(w, shortest edge at c) /
    d(o, c) (1 + SLACK) for d(o, c) > w and inf otherwise, and those whose
    ratio exceeds it."""
    bound = verify._tent_bound(sp, o)
    d = sp.dist_from(o)
    bad = _tent_bound_excess(sp, o)
    for c, w in _tents(sp, o):
        want = max(w, _shortest_edge(sp, c)) / d[c] * (1 + verify.SLACK) if d[c] > w else math.inf
        if (got := bound(verify.Tent(sp, c, w))) != want:
            bad.append((c, w, got, want))
    return bad


def _heavy_looped_end():
    """A path 0 - 1 - 2 whose end 2 carries most of the mass and a self-loop
    shorter than its edge, so that a narrow tent at 2 has a Hardy ratio near
    (edge at 2) / d(0, 2), and the loop must not count as that edge."""
    return FiniteMetricMeasureSpace(3, [(0, 1), (1, 2), (2, 2)], [1.0, 1.0, 0.1], [1.0, 1.0, 1e6])


@pytest.mark.parametrize(
    "make", [*SMALL_GALLERY, _heavy_looped_end], ids=[*SMALL_GALLERY_IDS, "heavy_looped_end"]
)
def test_tent_bound_holds_gallery(make):
    assert _tent_bound_oracle(make()) == []


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_tent_bound_holds_random(sp):
    assert _tent_bound_oracle(sp) == []


def test_tent_bound_is_not_for_other_members():
    sp = grid_quadrant(8)
    bound = verify._tent_bound(sp, 0)
    tent = verify.Tent(sp, 40, 2.0)
    assert bound(tent) < math.inf
    assert bound(np.asarray(tent, dtype=float)) == math.inf


def _scaled_floor(factor):
    floor = verify._energy_floor
    return lambda *args, **kw: (lambda g: lambda f: factor * g(f))(floor(*args, **kw))


def _tent_bound_mutant(u_over_d):
    """verify._tent_bound with u / d(o, c) replaced by u_over_d(space, tent, d(o, c))."""

    def tent_bound(space, o):
        d = space.dist_from(o)

        def bound(f):
            if not isinstance(f, verify.Tent) or d[f.c] <= f.w:
                return math.inf
            return u_over_d(space, f, d[f.c]) * (1 + verify.SLACK)

        return bound

    return tent_bound


MUTANTS = {
    "slope_bound_x4": ("_energy_floor", _scaled_floor(4.0)),
    # d(o, .) on the support's far side, not its near side
    "tent_bound_far_side": (
        "_tent_bound",
        _tent_bound_mutant(lambda sp, f, dc: max(f.w, _shortest_edge(sp, f.c)) / (dc + f.w)),
    ),
    # w / d(o, c) even when every edge at c is longer than w
    "tent_bound_long_edge": ("_tent_bound", _tent_bound_mutant(lambda sp, f, dc: f.w / dc)),
}


@pytest.mark.parametrize("name, mutant", list(MUTANTS.values()), ids=list(MUTANTS))
def test_oracle_catches_a_bound_too_small(monkeypatch, name, mutant):
    monkeypatch.setattr(verify, name, mutant)
    found = []
    for make in GALLERY.values():
        found += _mismatches(make(), 0, 1, 200) + _tent_bound_excess(make(), 0)
    assert found
