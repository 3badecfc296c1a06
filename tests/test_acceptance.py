"""End-to-end acceptance checks, one test per headline guarantee.

Each test prints a single PASS/FAIL line (visible with -s or on failure).
Oracles are computed independently here: exact linear programs for best
discrete constants and exhaustive enumeration over small graph families.
"""

import collections
import itertools
import time

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.optimize import linprog

from pilab.constants import (
    annulus_constant,
    excess_constant,
    layer_bound,
    local_sobolev_constant,
    patching_constant,
    rca_kappa,
    riesz_constants,
    theoretical_Q1,
    theoretical_Q2,
    upgrade_constant,
)
from pilab.covering import expand_covering, kappa_decomposition, validate_covering
from pilab.gallery import (
    build_space,
    cone_grid,
    grid_quadrant,
    path_space,
    radial_profile,
    sector_union,
    sector_union_origin,
)
from pilab.graph_ineq import (
    CoveringGraph,
    build_covering_graph,
    graph_profile,
    isoperimetric_constant,
    poincare_constant,
)
from pilab.riesz import ball_chain, representation_check
from pilab.space import doubling_profile
from pilab.verify import (
    hardy_check,
    lip,
    local_sobolev_check,
    make_family,
    measure_poincare,
    weighted_sobolev_check,
    write_reports_csv,
)
from pilab.weights import weight_density


def _verdict(num, name, ok):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


# -- shared graph machinery -------------------------------------------------


def _graph(n, edges, vmass, emass, boundary):
    b = np.zeros(n, dtype=bool)
    b[list(boundary)] = True
    return CoveringGraph(
        n=n,
        edges=[tuple(e) for e in edges],
        vmass=np.asarray(vmass, dtype=float),
        emass=np.asarray(emass, dtype=float),
        boundary=b,
        levels=[0] * n,
    )


def _unit_graph_classes(n_int):
    """Representatives of connected unit-weight graphs with n_int interior
    vertices and one boundary vertex, up to interior relabeling."""
    n = n_int + 1
    pairs = list(itertools.combinations(range(n), 2))
    npairs = len(pairs)
    pair_idx = {p: i for i, p in enumerate(pairs)}
    perms = list(itertools.permutations(range(n_int)))
    col_perm = np.empty((len(perms), npairs), dtype=np.int64)
    for pi, p in enumerate(perms):
        full = list(p) + [n_int]
        for j, (u, v) in enumerate(pairs):
            a, b = sorted((full[u], full[v]))
            col_perm[pi, j] = pair_idx[(a, b)]
    masks = np.arange(1 << npairs, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(npairs)) & 1).astype(bool)
    conn = np.zeros(len(masks), dtype=bool)
    for m in range(len(masks)):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        cnt, mm, j = n, m, 0
        while mm:
            if mm & 1:
                ra, rb = find(pairs[j][0]), find(pairs[j][1])
                if ra != rb:
                    parent[ra] = rb
                    cnt -= 1
            mm >>= 1
            j += 1
        conn[m] = cnt == 1
    cbits = bits[conn]
    weights = 1 << np.arange(npairs, dtype=np.int64)
    canon = None
    for pi in range(len(perms)):
        key = cbits[:, col_perm[pi]] @ weights
        canon = key if canon is None else np.minimum(canon, key)
    out = []
    for rep in np.unique(canon):
        edges = [pairs[j] for j in range(npairs) if (int(rep) >> j) & 1]
        out.append(_graph(n, edges, np.ones(n), np.ones(len(edges)), [n_int]))
    return out


def _random_weighted_graph(rng):
    n = int(rng.integers(3, 9))
    edges = {(int(rng.integers(k)), k) for k in range(1, n)}
    for _ in range(int(rng.integers(0, n))):
        u, v = (int(x) for x in rng.integers(n, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    vmass = rng.uniform(0.5, 2.0, n)
    emass = rng.uniform(0.5, 2.0, len(edges))
    return _graph(n, edges, vmass, emass, [int(rng.integers(n))])


@pytest.fixture(scope="module")
def graph_family():
    classes = []
    for n_int in range(1, 6):
        classes += _unit_graph_classes(n_int)
    rng = np.random.default_rng(2024)
    randoms = [_random_weighted_graph(rng) for _ in range(200)]
    return classes, randoms


def _cut_over_vol(graph, S):
    cut = sum(w for (u, v), w in zip(graph.edges, graph.emass) if (u in S) != (v in S))
    return cut / sum(graph.vmass[v] for v in S)


def _brute_force_iso(graph):
    """Minimum cut/vol over every nonempty set of interior vertices."""
    interior = [int(v) for v in np.flatnonzero(~graph.boundary)]
    return min(
        _cut_over_vol(graph, set(S))
        for r in range(1, len(interior) + 1)
        for S in itertools.combinations(interior, r)
    )


@pytest.fixture(scope="module")
def sector_covering_graphs():
    """Covering graphs of sector_union(1.0) at kappa 1.5 (36 interior
    pieces) under the Hardy weight and the (s, t) = (1, 2) weight."""
    sp = sector_union(1.0)
    o = sector_union_origin(sp)
    covering = expand_covering(sp, kappa_decomposition(sp, o, 1.5))
    weights = [
        weight_density(sp, o, "mu_s", s=1.0),
        weight_density(sp, o, "mu_st", s=1.0, t=2.0),
    ]
    return [build_covering_graph(sp, covering, mu=w * sp.measure) for w in weights]


def _lp_best_poincare_1(graph):
    """Exact best constant in sum m|f| <= C sum emass*t with t dominating
    every incident slope, f = 0 on the boundary.  Variables (f, t)."""
    interior = np.flatnonzero(~graph.boundary)
    k = len(interior)
    pos = -np.ones(graph.n, dtype=int)
    pos[interior] = np.arange(k)
    m = len(graph.edges)
    rows, cols, vals = [], [], []
    r = 0
    for e, (u, v) in enumerate(graph.edges):
        for sgn in (1.0, -1.0):
            if pos[u] >= 0:
                rows.append(r)
                cols.append(pos[u])
                vals.append(sgn)
            if pos[v] >= 0:
                rows.append(r)
                cols.append(pos[v])
                vals.append(-sgn)
            rows.append(r)
            cols.append(k + e)
            vals.append(-1.0)
            r += 1
    for e in range(m):
        rows.append(r)
        cols.append(k + e)
        vals.append(float(graph.emass[e]))
    r += 1
    A = sparse.csr_matrix((vals, (rows, cols)), shape=(r, k + m))
    b = np.zeros(r)
    b[-1] = 1.0
    c = np.zeros(k + m)
    c[:k] = -graph.vmass[interior]
    res = linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return -res.fun


# -- 1: closed-form constants ----------------------------------------------


def test_c01_constant_formulas():
    ok = True
    ok &= abs(layer_bound(1.0, 2.0) - 32.0) <= 1e-12
    rc = riesz_constants(2.0, 1.0, 1.0, 1.0)
    ok &= abs(rc.c_lambda - 0.5) <= 1e-12
    ok &= abs(rc.C1 - 128.0) <= 1e-12
    ok &= abs(rc.C2 - 400.0) <= 1e-12
    ok &= abs(patching_constant(1, 1, 1, 1, 2, 2) - 10.0) <= 1e-12
    ok &= abs(rca_kappa(2.0, 1.0, 2.0, 1.0, 2.0, 1.0) - 3_748_096.0) <= 1e-6
    ok &= abs(excess_constant(2.0, 2.0) - 1024.0) <= 1e-12
    # Q=1, alpha=2, delta=1/2: N = 100, K = 9, C2 = 2*100*81 = 16200, and
    # the patching constant is 60 + (2*16200)*18*60^3 at s = t = 1
    ann = annulus_constant(1.0, 1.0, 2.0, 0.5, 1.0, 1.0, "poincare", [])
    ok &= abs(ann.C2 - 16_200.0) <= 1e-12
    ok &= abs(ann.value - 125_971_200_060.0) <= 1e-12 * 125_971_200_060.0
    # s >= Q: the fallback C_P (4 lam)^max(Q, 1), flagged
    flags = []
    ok &= abs(local_sobolev_constant(2.0, 3.0, 2.0, 2.0, flags) - 192.0) <= 1e-12
    ok &= flags == ["s_not_below_Q"]
    _verdict(1, "constant formulas", bool(ok))


# -- 2: discrete 1-Poincare x isoperimetric = 1 -----------------------------


def test_c02_poincare_isoperimetric_exactness(graph_family, sector_covering_graphs):
    classes, randoms = graph_family
    worst, worst_brute = 0.0, 0.0
    for g in classes + randoms + sector_covering_graphs:
        res = isoperimetric_constant(g)
        C = _lp_best_poincare_1(g)
        worst = max(worst, abs(C * res.I - 1.0))
        worst_brute = max(worst_brute, abs(_cut_over_vol(g, res.witness) / res.I - 1.0))
        if g.n <= 8:
            worst_brute = max(worst_brute, abs(_brute_force_iso(g) / res.I - 1.0))
    print(
        f"  {len(classes)} unit classes + {len(randoms)} random + "
        f"{len(sector_covering_graphs)} sector covering graphs "
        f"({[len(g.interior) for g in sector_covering_graphs]} interior), "
        f"worst |C*I-1| = {worst:.2e}, worst I vs enumeration and witness = {worst_brute:.2e}"
    )
    ok = worst <= 1e-9 and worst_brute <= 1e-12
    _verdict(2, "1-Poincare x isoperimetric exactness", ok)


# -- 3: soundness of the exponent upgrade -----------------------------------


def test_c03_exponent_upgrade_soundness(graph_family):
    classes, randoms = graph_family
    violations = 0
    for g in classes + randoms:
        C1 = 1.0 / isoperimetric_constant(g).I
        gp = graph_profile(g)
        for tau in (2.0, 3.0):
            bound = upgrade_constant(C1, gp.A, gp.B, tau)
            measured = poincare_constant(g, tau, refine_iters=60)
            if measured > bound * (1 + 1e-9):
                violations += 1
    _verdict(3, "tau-upgrade soundness (tau in {2,3})", violations == 0)


# -- 4: ball-chain invariants ----------------------------------------------


def test_c04_chain_invariants():
    spaces = [path_space(1000), grid_quadrant(63)]
    rng = np.random.default_rng(99)
    checked, bad = 0, 0
    while checked < 500:
        sp = spaces[checked % 2]
        a = int(rng.integers(sp.n))
        ecc = sp.eccentricity(a)
        if ecc < 20:
            continue
        R = float(rng.uniform(16.0, max(17.0, 0.9 * ecc)))
        d = sp.dist_from(a)
        cand = np.flatnonzero((d >= 4.0) & (d < R))
        if len(cand) == 0:
            continue
        x = int(cand[rng.integers(len(cand))])
        lam = float(rng.choice([1.0, 2.0]))
        ch = ball_chain(sp, a, R, x, lam)
        checked += 1
        r0 = d[x] / (2.0 * lam)
        c = ch.c_lambda
        if any(abs(ch.radii[i] - c**i * r0) > 3 * sp.resolution for i in ch.indices):
            bad += 1
        elif ch.case == "B" and not c**ch.i_o > _omega(lam) * R / d[x]:
            bad += 1
        elif not ch.sum_radii < 2.0 * R:
            bad += 1
    _verdict(4, f"chain invariants over {checked} chains", bad == 0)


def _omega(lam):
    c = (2.0 * lam - 1.0) / (2.0 * lam)
    return 2.0 * lam / (1.0 / (1.0 - c) + lam / c)


# -- 5: pointwise representation through the chain potential ----------------


def test_c05_representation_formula():
    cases = [
        (grid_quadrant(32), 0),
        (radial_profile(256, 2.0), 0),
        (cone_grid(24, 2.0), 0),
    ]
    lam, s = 2.0, 1.0
    violations = 0
    for sp, a in cases:
        R = sp.eccentricity(a) / 3.0
        Q = doubling_profile(sp).Q
        C_P = measure_poincare(sp, s)
        rng = np.random.default_rng(17)
        ball = sp.ball(a, R)
        sample = rng.choice(ball[ball != a], size=min(12, len(ball) - 1), replace=False)
        fam = list(make_family(sp, a, seed=5, count=100))
        for _, f in fam[:100]:
            g = lip(sp, f)
            res = representation_check(sp, a, R, lam, s, f, g, sample, C_P=C_P, Q=Q)
            if not res.passed:
                violations += 1
    _verdict(5, "representation |f - f_B| <= C1 Jg", violations == 0)


# -- 6: covering axioms and overlap bounds ----------------------------------


def test_c06_covering_axioms():
    ok = True
    for sp, o in ((sector_union(0.25), None), (grid_quadrant(64), 0)):
        if o is None:
            o = sector_union_origin(sp)
        Q_fit = doubling_profile(sp).Q
        cov = expand_covering(sp, kappa_decomposition(sp, o, 2.0))
        val = validate_covering(cov, sp)
        per_level = max(collections.Counter(cov.levels).values())
        ok &= val.all_pass
        ok &= val.Q1_emp <= theoretical_Q1(Q_fit, 2.0)
        ok &= val.Q2_emp <= theoretical_Q2(Q_fit, 2.0, 0.0, 0.0)
        ok &= per_level <= layer_bound(Q_fit, 2.0)
    _verdict(6, "covering axioms and overlap bounds", bool(ok))


# -- 7: headline weighted inequalities --------------------------------------


def test_c07_headline_inequalities():
    t0 = time.perf_counter()
    spaces = [grid_quadrant(64), cone_grid(128, 2.0), radial_profile(512, 2.0)]
    violations = 0
    for sp in spaces:
        fam = make_family(sp, 0, seed=0, count=200)
        reports = [
            weighted_sobolev_check(sp, 0, 1.0, 1.5, fam),
            weighted_sobolev_check(sp, 0, 1.0, 2.0, fam),
            hardy_check(sp, 0, 1.0, fam),
        ]
        for rep in reports:
            if not rep.passed or rep.hypotheses_violated:
                violations += 1
    print(f"  9 reports in {time.perf_counter() - t0:.1f}s")
    _verdict(7, "headline weighted Sobolev and Hardy inequalities", violations == 0)


# -- 8: growth of the exact 1D best Hardy constant --------------------------


def _exact_1d_hardy_best(space, o=0):
    """Exact sup of sum m|f|/d over sum m*lip(f) <= 1 with f(o)=0, via LP.

    Nonnegative f is no loss: |f| has no larger slopes.  Variables (f, t)
    with t dominating both endpoint slopes of every edge."""
    n = space.n
    d = space.dist_from(o)
    mu = space.measure / np.where(d > 0, d, 1.0)
    mu[o] = 0.0
    rows, cols, vals = [], [], []
    r = 0
    for e, (u, v) in enumerate(space.edges):
        le = float(space.lengths[e])
        for w in (u, v):
            for sgn in (1.0, -1.0):
                rows += [r, r, r]
                cols += [u, v, n + w]
                vals += [sgn / le, -sgn / le, -1.0]
                r += 1
    rows += [r] * n
    cols += list(range(n, 2 * n))
    vals += [float(m) for m in space.measure]
    r += 1
    A = sparse.csr_matrix((vals, (rows, cols)), shape=(r, 2 * n))
    b = np.zeros(r)
    b[-1] = 1.0
    c = np.zeros(2 * n)
    c[:n] = -mu
    bounds = [(0, None)] * (2 * n)
    bounds[o] = (0.0, 0.0)
    res = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return -res.fun


def _closed_form_1d_hardy(n):
    """(V(n), L*) with V(n) = max_{1<=L<n} L (1 + H_{n-1} - H_L) / (L + 1).

    On the unit path 0..n-1 the exact optimum of _exact_1d_hardy_best is
    this maximum, reached by f(k) = min(k, L*):
      1. replacing f by its running maximum lowers no slope and raises the
         sum, so some non-decreasing f is optimal;
      2. for such f the cost sum_k lip f(k) is convex and 1-homogeneous in
         the edge increments;
      3. the extreme points of its unit ball are blocks of L equal
         increments, and a block costs L + 1 (its L + 1 vertices);
      4. the weight of edge j, H_{n-1} - H_{j-1}, decreases in j, so the
         best block starts at the first edge.
    """
    H = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, n))])
    L = np.arange(1, n)
    v = L * (1.0 + H[n - 1] - H[L]) / (L + 1)
    i = int(np.argmax(v))
    return float(v[i]), int(L[i])


def test_c08_hardy_constant_growth_1d():
    """The critical 1D Hardy constant (eta = s = 1) grows without bound.

    The exact LP optimum V(n) on radial_profile(n, 1) must equal its closed
    form, increase strictly, and gain more than ln(2)/2 per doubling of n:
    with L* the maximiser for n, V(2n) - V(n) >= L*/(L*+1) (H_{2n-1} -
    H_{n-1}) > ln(2)/2, so V(n) >= (ln 2 / 2) log2(n) - O(1).  The witness
    min(k, L*) scored with the library's own lip and Hardy weight must
    reach V(n) too, tying the LP to the ratio that hardy_check sweeps.
    (V(1024)/V(16) = 2.764: the growth is logarithmic, not a fixed factor.)
    """
    values = []
    for k in range(4, 11):
        n = 2**k
        space = radial_profile(n, 1.0)
        best = _exact_1d_hardy_best(space)
        V, L_star = _closed_form_1d_hardy(n)
        assert best == pytest.approx(V, rel=1e-9), (n, best, V)
        f = np.minimum(np.arange(n), L_star).astype(float)
        mu = weight_density(space, 0, "mu_s", s=1) * space.measure
        ratio = float((mu * np.abs(f)).sum() / (space.measure * lip(space, f)).sum())
        assert ratio == pytest.approx(V, rel=1e-9), (n, ratio, V)
        values.append(best)
    steps = np.diff(values)
    increasing = bool(np.all(steps > 0))
    growth = values[-1] / values[0]
    print(
        f"  values {['%.4f' % v for v in values]}, growth x{growth:.3f}, "
        f"per-doubling gain {steps.min():.3f}..{steps.max():.3f} (> ln2/2 = {np.log(2) / 2:.3f})"
    )
    _verdict(
        8,
        "1D Hardy optimum equals its closed form, strictly increasing, > ln(2)/2 gain per doubling",
        increasing and bool(np.all(steps > np.log(2) / 2)),
    )


# -- 9: family sweep matches the exact LP optimum ---------------------------


def _sign_pattern_lp_best(space):
    """Exact sup of sum m|f - f_mean| over sum m*lip(f) <= 1 by enumerating
    the sign pattern of f - f_mean; each pattern is a linear program."""
    n = space.n
    m = space.measure
    M = float(m.sum())
    best = 0.0
    base_rows, base_cols, base_vals = [], [], []
    r = n
    for e, (u, v) in enumerate(space.edges):
        le = float(space.lengths[e])
        for w in (u, v):
            for sgn in (1.0, -1.0):
                base_rows += [r, r, r]
                base_cols += [u, v, n + w]
                base_vals += [sgn / le, -sgn / le, -1.0]
                r += 1
    base_rows += [r] * n
    base_cols += list(range(n, 2 * n))
    base_vals += [float(x) for x in m]
    nrows = r + 1
    for bitmask in range(1 << n):
        sig = np.where((bitmask >> np.arange(n)) & 1, 1.0, -1.0)
        rows, cols, vals = list(base_rows), list(base_cols), list(base_vals)
        # sigma_v (f_v - f_mean) >= 0, written row by row
        for v in range(n):
            coef = m / M * sig[v]
            coef = coef.copy()
            coef[v] -= sig[v]
            nz = np.flatnonzero(coef)
            rows += [v] * len(nz)
            cols += [int(j) for j in nz]
            vals += [float(coef[j]) for j in nz]
        A = sparse.csr_matrix((vals, (rows, cols)), shape=(nrows, 2 * n))
        b = np.zeros(nrows)
        b[-1] = 1.0
        c = np.zeros(2 * n)
        c[:n] = -(m * sig - float((m * sig).sum()) * m / M)
        bounds = [(None, None)] * n + [(0, None)] * n
        bounds[0] = (0.0, 0.0)  # translation gauge
        res = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
        if res.status == 0 and -res.fun > best:
            best = -res.fun
    return best


def test_c09_oracle_equivalence_tiny_spaces():
    rng = np.random.default_rng(3)
    tree_edges = [(int(rng.integers(k)), k, float(rng.uniform(0.5, 2.0))) for k in range(1, 12)]
    spaces = [
        path_space(7),
        grid_quadrant(2),
        build_space(8, [(0, k, 1.0) for k in range(1, 8)], np.ones(8)),
        build_space(12, tree_edges, rng.uniform(0.5, 2.0, 12)),
    ]
    worst = 0.0
    for sp in spaces:
        oracle = _sign_pattern_lp_best(sp)
        R = sp.diameter() + 1.0
        fam = list(make_family(sp, 0, seed=1, count=200))
        for mask in range(1, 1 << sp.n):
            fam.append((f"cut[{mask}]", ((mask >> np.arange(sp.n)) & 1).astype(float)))
        rep = local_sobolev_check(sp, 0, R, 1.0, 1.0, fam)
        emp = rep.empirical_best * R
        rel = abs(emp - oracle) / oracle
        worst = max(worst, rel)
        assert emp <= oracle * (1 + 1e-6)
    print(f"  worst relative gap to LP optimum: {worst:.2e}")
    _verdict(9, "family sweep within 5% of exact LP optimum", worst <= 0.05)


# -- 10: byte-identical reports ---------------------------------------------


def test_c10_determinism(tmp_path):
    from pilab.cli import main

    sp_path = tmp_path / "g.json"
    assert main(["gen", "--kind", "grid_quadrant", "--n", "16", "-o", str(sp_path)]) == 0
    outs = []
    for name, threads in (("a.csv", "1"), ("b.csv", "4")):
        rep = tmp_path / name
        code = main([
            "verify", "--space", str(sp_path), "--ineq", "hardy", "--seed", "5",
            "--count", "60", "--threads", threads, "--deterministic-output",
            "--out", str(rep),
        ])
        assert code == 0
        outs.append(rep.read_bytes())
    sp = grid_quadrant(16)
    csvs = []
    for name in ("c.csv", "d.csv"):
        fam = make_family(sp, 0, seed=9, count=60)
        p = tmp_path / name
        write_reports_csv([hardy_check(sp, 0, 1.0, fam)], p, zero_seconds=True)
        csvs.append(p.read_bytes())
    _verdict(10, "byte-identical reports across reruns and thread counts",
             outs[0] == outs[1] and csvs[0] == csvs[1])
