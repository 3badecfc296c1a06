import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from pilab import covering
from pilab.constants import layer_bound, theoretical_Q1, theoretical_Q2
from pilab.covering import (
    GoodCovering,
    expand_covering,
    kappa_decomposition,
    set_masses,
    validate_covering,
)
from pilab.errors import KappaOutOfRange, NoBasePoint
from pilab.gallery import (
    build_space,
    cone_grid,
    grid_quadrant,
    path_space,
    radial_profile,
    sector_union,
    sector_union_origin,
)


def _membership(n, sets):
    """Boolean CSR matrix whose row i marks the vertices of sets[i]."""
    rows = [i for i, s in enumerate(sets) for _ in s]
    cols = [int(v) for s in sets for v in s]
    return csr_matrix((np.ones(len(cols), dtype=bool), (rows, cols)), shape=(len(sets), n))


def _rows(M):
    """The column indices of each row of the CSR matrix M."""
    return [M.indices[a:b] for a, b in zip(M.indptr[:-1], M.indptr[1:])]


def _members(dec):
    """The vertices of each piece of a decomposition, ascending."""
    return [np.flatnonzero(dec.owner == i) for i in range(len(dec.pieces))]


def _truncated(dec, o):
    """The vertices beyond the last complete level: owner < 0, without o."""
    return np.setdiff1d(np.flatnonzero(dec.owner < 0), [o])


def test_kappa_and_base_point_validation():
    sp = path_space(8)
    with pytest.raises(KappaOutOfRange):
        kappa_decomposition(sp, 0, 1.0)
    with pytest.raises(NoBasePoint):
        kappa_decomposition(sp, 99, 2.0)


def test_pieces_partition_vertices():
    for sp, o in ((grid_quadrant(16), 0), (radial_profile(100, 2.0), 0)):
        dec = kappa_decomposition(sp, o, 2.0)
        seen = [o] + list(_truncated(dec, o))
        for members in _members(dec):
            seen.extend(int(v) for v in members)
        assert sorted(seen) == list(range(sp.n))


def test_level_assignment_half_open():
    sp = path_space(10)
    dec = kappa_decomposition(sp, 0, 2.0)
    for level, members in zip(dec.pieces, _members(dec)):
        d = sp.dist_from(0)[members]
        # merged members may sit one level up, but never below the level floor
        assert d.min() >= 2.0 ** (level - 1)


def test_thin_component_merged_inward():
    # two branches from o: a long one reaching the outer shell and a stub
    # whose level-2 component stops short and must merge into level 1
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 5, 1.0), (5, 6, 1.0)]
    sp = build_space(7, edges, np.ones(7))
    dec = kappa_decomposition(sp, 0, 2.0)
    piece = dec.owner[6]
    # stub vertex 6 sits at distance 2 (level 2) but cannot reach distance
    # near 4, so it merges into the level-1 piece of vertex 5
    assert dec.pieces[piece] == 1
    assert 5 in set(int(v) for v in np.flatnonzero(dec.owner == piece))
    assert 4 in _truncated(dec, 0)  # distance 4 lies beyond the last full level


def _random_tree_graph(seed):
    # a random tree plus a few chords: many thin branches, so many merges
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 80))
    edges = {(int(rng.integers(k)), k) for k in range(1, n)}
    for _ in range(n // 8):
        u, v = sorted(int(x) for x in rng.integers(n, size=2))
        if u != v:
            edges.add((u, v))
    lengths = rng.uniform(0.5, 2.0, len(edges))
    sp = build_space(n, [(u, v, float(l)) for (u, v), l in zip(sorted(edges), lengths)],
                     rng.uniform(0.5, 2.0, n))
    return sp, int(rng.integers(n)), float(rng.choice([1.5, 2.0, 3.0]))


def _is_connected(sp, members):
    inside = set(int(v) for v in members)
    nbrs = {v: [] for v in inside}
    for u, v in sp.edges:
        if int(u) in inside and int(v) in inside:
            nbrs[int(u)].append(int(v))
            nbrs[int(v)].append(int(u))
    seen, stack = set(), [min(inside)]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(nbrs[v])
    return seen == inside


def test_merged_pieces_partition_and_stay_connected():
    merging = 0
    for seed in range(40):
        sp, o, kappa = _random_tree_graph(seed)
        dec = kappa_decomposition(sp, o, kappa)
        d = sp.dist_from(o)
        seen = [o] + [int(v) for v in _truncated(dec, o)]
        for members in _members(dec):
            seen.extend(int(v) for v in members)
            assert _is_connected(sp, members)
        assert sorted(seen) == list(range(sp.n))
        # a piece holding a vertex beyond its own shell absorbed a thin one
        merging += any(d[members].max() >= kappa**level
                       for level, members in zip(dec.pieces, _members(dec)))
    assert merging >= 20


@pytest.mark.parametrize(
    "case",
    [*range(40), "grid16", "cone20", "radial100", "sector1"],
)
def test_piece_level_is_its_lowest_vertex_level(case):
    # a merge only absorbs higher levels, so a piece keeps the level of its
    # nearest vertex: the smallest floor(log_kappa d(o, v)) + 1 over v
    if isinstance(case, int):
        sp, o, kappa = _random_tree_graph(case)
    else:
        sp, o, kappa = {
            "grid16": (grid_quadrant(16), 0, 2.0),
            "cone20": (cone_grid(20, 2), 0, 2.0),
            "radial100": (radial_profile(100, 2.0), 0, 2.0),
            "sector1": (sector_union(1.0), None, 1.2),
        }[case]
        o = sector_union_origin(sp) if o is None else o
    dec = kappa_decomposition(sp, o, kappa)
    d = sp.dist_from(o)
    assert len(dec.pieces) > 0 and dec.pieces.dtype == np.int64
    for level, members in zip(dec.pieces.tolist(), _members(dec)):
        assert level == min(math.floor(math.log(d[v]) / math.log(kappa)) + 1 for v in members)


def test_truncation_drop():
    sp = path_space(9)  # distances 0..8, levels 1..3 complete
    dec = kappa_decomposition(sp, 0, 2.0)
    assert list(_truncated(dec, 0)) == [8]
    assert max(dec.pieces) == 3


def test_layer_bound_values():
    assert layer_bound(1.0, 2.0) == 32.0
    assert layer_bound(2.0, 2.0) == 1024.0
    with pytest.raises(KappaOutOfRange):
        layer_bound(1.0, 1.0)


def test_theoretical_q_values():
    # 2^(Q(a+1)) k^(3aQ+4b) (8k/(k-1))^Q at Q=1, k=2, a=b=1
    assert theoretical_Q2(1.0, 2.0, 1.0, 1.0) == 2.0**2 * 2.0**7 * 16.0
    assert theoretical_Q1(1.0, 2.0) == 19.0 * 32.0


def test_expand_nesting_and_validation():
    sp = grid_quadrant(16)
    dec = kappa_decomposition(sp, 0, 2.0)
    cov = expand_covering(sp, dec)
    for U, Ustar, Usharp in zip(_rows(cov.U), _rows(cov.star), _rows(cov.sharp)):
        assert set(U) <= set(Ustar) <= set(Usharp)
    val = validate_covering(cov, sp)
    assert val.all_pass
    assert len(val.uncovered) == 0
    assert val.Q1_emp >= 1
    assert val.Q2_emp >= 1.0


def test_validation_with_weight():
    sp = grid_quadrant(8)
    dec = kappa_decomposition(sp, 0, 2.0)
    cov = expand_covering(sp, dec)
    w = 1.0 / (1.0 + sp.dist_from(0))
    val = validate_covering(cov, sp, mu=w * sp.measure)
    assert val.all_pass


@pytest.mark.parametrize("sp", [path_space(9), grid_quadrant(16)], ids=["path9", "grid16"])
def test_covering_excludes_what_the_decomposition_leaves_out(sp):
    dec = kappa_decomposition(sp, 0, 2.0)
    cov = expand_covering(sp, dec)
    assert set(cov.excluded.tolist()) == {0, *_truncated(dec, 0).tolist()}
    val = validate_covering(cov, sp)
    assert val.all_pass and len(val.uncovered) == 0
    # every other vertex counts only through its U
    for i, U in enumerate(_rows(cov.U)):
        sets = _rows(cov.U)
        sets[i] = U[:-1]
        dropped = GoodCovering(_membership(sp.n, sets), cov.star, cov.sharp, cov.levels,
                               cov.adjacency, cov.excluded)
        val = validate_covering(dropped, sp)
        assert not val.axioms_pass["axiom2_cover"]
        assert val.uncovered.tolist() == [U[-1]]


def test_adjacent_pieces_share_star():
    sp = grid_quadrant(16)
    cov = expand_covering(sp, kappa_decomposition(sp, 0, 2.0))
    for pair in cov.adjacency:
        k = min(pair)
        star = set(_rows(cov.star)[k])
        for a in pair:
            assert set(_rows(cov.U)[a]) <= star


def _hand_covering(**change):
    # path 0-1-2-3 split into U_0 = {0, 1} and U_1 = {2, 3}, stars and
    # sharps everything; `change` replaces single sets by name
    sets = {"U0": [0, 1], "U1": [2, 3], "S0": [0, 1, 2, 3], "S1": [0, 1, 2, 3]}
    sets.update(change)
    full = [0, 1, 2, 3]
    return GoodCovering(
        U=_membership(4, [sets["U0"], sets["U1"]]),
        star=_membership(4, [sets["S0"], sets["S1"]]),
        sharp=_membership(4, [sets.get("H0", full), sets.get("H1", full)]),
        levels=[1, 1],
        adjacency=[(0, 1)],
    )


@pytest.mark.parametrize(
    "change, failing",
    [
        ({}, set()),
        ({"H1": [2]}, {"axiom1_nested"}),  # U*_1 not inside U#_1
        ({"U1": [2]}, {"axiom2_cover"}),  # vertex 3 in no U
        ({"S0": [0, 1]}, {"axiom4_measure"}),  # U*_k, k = min(0, 1), misses U_1
    ],
)
def test_validation_reports_each_failing_axiom(change, failing):
    sp = path_space(4)
    val = validate_covering(_hand_covering(**change), sp)
    assert {name for name, ok in val.axioms_pass.items() if not ok} == failing
    assert val.uncovered.tolist() == ([3] if "axiom2_cover" in failing else [])


def test_annulus_piece_adjacency_matches_pairwise_oracle():
    # _touching_pairs against a loop over every pair of U sets and every edge
    sp = grid_quadrant(16)
    cov = expand_covering(sp, kappa_decomposition(sp, 0, 2.0))
    sets = [set(int(v) for v in U) for U in _rows(cov.U)]
    edges = [(int(u), int(v)) for u, v in sp.edges]
    expected = []
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            joined = any(
                (u in sets[i] and v in sets[j]) or (v in sets[i] and u in sets[j])
                for u, v in edges
            )
            if sets[i] & sets[j] or joined:
                expected.append([i, j])
    assert len(expected) > 0
    assert cov.adjacency.tolist() == expected


def test_piece_hops_are_computed_once_per_covering(monkeypatch):
    # validation reads Q1 from the hop matrix the covering was built from;
    # a covering built by hand computes its own
    sp = grid_quadrant(16)
    decomp = kappa_decomposition(sp, 0, 2.0)
    calls, hops = [], covering._piece_distances
    monkeypatch.setattr(covering, "_piece_distances", lambda *a: calls.append(a) or hops(*a))
    cov = expand_covering(sp, decomp)
    val = validate_covering(cov, sp)
    assert len(calls) == 1
    hand = GoodCovering(cov.U, cov.star, cov.sharp, cov.levels, cov.adjacency, cov.excluded)
    assert len(calls) == 2 and np.array_equal(hand.hops, cov.hops)
    assert validate_covering(hand, sp).Q1_emp == val.Q1_emp
    assert np.array_equal(cov.hops, hops(cov.n_pieces, cov.adjacency))


@pytest.mark.parametrize(
    "sp, base",
    [(grid_quadrant(16), 0), (cone_grid(20, 2), 0), (sector_union(1.0), sector_union_origin)],
    ids=["grid16", "cone20", "sector1"],
)
def test_membership_matrices_match_piece_unions(sp, base):
    # row i of U is piece i; rows of U* and U# are unions of the pieces
    # within 1 and 4 hops, built here one piece at a time; a set's mass is
    # numpy's sum over its ascending vertices, bit for bit
    o = base(sp) if callable(base) else base
    dec = kappa_decomposition(sp, o, 1.2)
    cov = expand_covering(sp, dec)
    n = len(dec.pieces)
    assert n > 1
    for M in (cov.U, cov.star, cov.sharp):
        assert M.shape == (n, sp.n) and M.dtype == bool and M.has_sorted_indices
    mu = sp.measure / (1.0 + sp.dist_from(o))
    U, star, sharp = _rows(cov.U), _rows(cov.star), _rows(cov.sharp)
    U_mass, star_mass, sharp_mass = (set_masses(M, mu) for M in (cov.U, cov.star, cov.sharp))
    members = _members(dec)
    for i in range(n):
        assert U[i].tolist() == members[i].tolist()
        assert U_mass[i] == mu[members[i]].sum()
        for rows, mass, reach in ((star, star_mass, 1), (sharp, sharp_mass, 4)):
            union = set()
            for j in range(n):
                if cov.hops[i, j] <= reach:
                    union |= set(members[j].tolist())
            assert rows[i].tolist() == sorted(union)
            assert mass[i] == mu[sorted(union)].sum()
