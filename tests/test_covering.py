import numpy as np
import pytest

from pilab.constants import layer_bound, theoretical_Q1, theoretical_Q2
from pilab.covering import (
    GoodCovering,
    annulus_piece_covering,
    expand_covering,
    greedy_net,
    kappa_decomposition,
    validate_covering,
)
from pilab.errors import (
    KappaOutOfRange,
    NoBasePoint,
    NotInAnnulus,
    RhoBelowResolution,
)
from pilab.gallery import build_space, grid_quadrant, path_space, radial_profile


def test_kappa_and_base_point_validation():
    sp = path_space(8)
    with pytest.raises(KappaOutOfRange):
        kappa_decomposition(sp, 0, 1.0)
    with pytest.raises(NoBasePoint):
        kappa_decomposition(sp, 99, 2.0)


def test_pieces_partition_vertices():
    for sp, o in ((grid_quadrant(16), 0), (radial_profile(100, 2.0), 0)):
        dec = kappa_decomposition(sp, o, 2.0)
        seen = [o] + list(dec.truncated)
        for p in dec.pieces:
            seen.extend(int(v) for v in p.members)
        assert sorted(seen) == list(range(sp.n))


def test_level_assignment_half_open():
    sp = path_space(10)
    dec = kappa_decomposition(sp, 0, 2.0)
    for p in dec.pieces:
        d = sp.dist_from(0)[p.members]
        # merged members may sit one level up, but never below the level floor
        assert d.min() >= 2.0 ** (p.level - 1)


def test_thin_component_merged_inward():
    # two branches from o: a long one reaching the outer shell and a stub
    # whose level-2 component stops short and must merge into level 1
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 5, 1.0), (5, 6, 1.0)]
    sp = build_space(7, edges, np.ones(7))
    dec = kappa_decomposition(sp, 0, 2.0)
    by_vertex = {}
    for p in dec.pieces:
        for v in p.members:
            by_vertex[int(v)] = p
    # stub vertex 6 sits at distance 2 (level 2) but cannot reach distance
    # near 4, so it merges into the level-1 piece of vertex 5
    assert by_vertex[6].level == 1
    assert 5 in set(int(v) for v in by_vertex[6].members)
    assert 4 in dec.truncated  # distance 4 lies beyond the last full level


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
        seen = [o] + [int(v) for v in dec.truncated]
        for p in dec.pieces:
            seen.extend(int(v) for v in p.members)
            assert _is_connected(sp, p.members)
        assert sorted(seen) == list(range(sp.n))
        # a piece holding a vertex beyond its own shell absorbed a thin one
        merging += any(d[p.members].max() >= kappa**p.level for p in dec.pieces)
    assert merging >= 20


def test_truncation_drop():
    sp = path_space(9)  # distances 0..8, levels 1..3 complete
    dec = kappa_decomposition(sp, 0, 2.0)
    assert list(dec.truncated) == [8]
    assert max(p.level for p in dec.pieces) == 3


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
    for U, Ustar, Usharp in cov.triples:
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
    assert set(cov.excluded.tolist()) == {0, *dec.truncated.tolist()}
    val = validate_covering(cov, sp)
    assert val.all_pass and len(val.uncovered) == 0
    # every other vertex counts only through its U
    for i, (U, Ustar, Usharp) in enumerate(cov.triples):
        triples = list(cov.triples)
        triples[i] = (U[:-1], Ustar, Usharp)
        dropped = GoodCovering(triples, cov.levels, cov.adjacency, cov.excluded)
        val = validate_covering(dropped, sp)
        assert not val.axioms_pass["axiom2_cover"]
        assert val.uncovered.tolist() == [U[-1]]


def test_adjacent_pieces_share_star():
    sp = grid_quadrant(16)
    cov = expand_covering(sp, kappa_decomposition(sp, 0, 2.0))
    for pair in cov.adjacency:
        k = min(pair)
        star = set(cov.triples[k][1])
        for a in pair:
            assert set(cov.triples[a][0]) <= star


def _hand_covering(**change):
    # path 0-1-2-3 split into U_0 = {0, 1} and U_1 = {2, 3}, stars and
    # sharps everything; `change` replaces single sets by name
    sets = {"U0": [0, 1], "U1": [2, 3], "S0": [0, 1, 2, 3], "S1": [0, 1, 2, 3]}
    sets.update(change)
    full = [0, 1, 2, 3]
    triples = [
        (np.array(sets["U0"]), np.array(sets["S0"]), np.array(sets.get("H0", full))),
        (np.array(sets["U1"]), np.array(sets["S1"]), np.array(sets.get("H1", full))),
    ]
    return GoodCovering(triples=triples, levels=[1, 1], adjacency=[(0, 1)])


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
    sp = grid_quadrant(16)
    d = sp.dist_from(0)
    A = np.flatnonzero((d >= 4) & (d < 8))
    edges = [(int(u), int(v)) for u, v in sp.edges]
    for flavor in ("sobolev", "poincare"):
        cov = annulus_piece_covering(sp, 0, 4.0, 2.0, 0.5, A, flavor)
        sets = [set(int(v) for v in U) for U, _, _ in cov.triples]
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


def test_greedy_net_separation_and_coverage():
    sp = path_space(33)
    net = greedy_net(sp, range(33), 8.0)
    assert net[0] == 0
    for i, u in enumerate(net):
        for v in net[i + 1:]:
            assert sp.dist(u, v) >= 4.0
    d = np.min([sp.dist_from(u) for u in net], axis=0)
    assert d.max() < 4.0


def test_annulus_piece_covering_errors():
    sp = grid_quadrant(16)
    d = sp.dist_from(0)
    A = np.flatnonzero((d >= 4) & (d < 8))
    with pytest.raises(RhoBelowResolution):
        annulus_piece_covering(sp, 0, 4.0, 2.0, 0.1, A, "sobolev")
    with pytest.raises(NotInAnnulus):
        annulus_piece_covering(sp, 0, 4.0, 2.0, 0.5, [0, 1], "sobolev")


def test_annulus_piece_covering_covers():
    sp = grid_quadrant(16)
    d = sp.dist_from(0)
    A = np.flatnonzero((d >= 4) & (d < 8))
    for flavor, reach in (("sobolev", 2.0), ("poincare", 4.0)):
        cov = annulus_piece_covering(sp, 0, 4.0, 2.0, 0.5, A, flavor)
        covered = set()
        for U, _, _ in cov.triples:
            covered |= set(int(v) for v in U)
        assert set(int(v) for v in A) <= covered
        # U# stays inside the fattening of A at the flavor's outer radius
        fat = set()
        for x in A:
            fat |= set(int(v) for v in sp.ball(int(x), reach))
        for _, _, Usharp in cov.triples:
            assert set(int(v) for v in Usharp) <= fat
