import math

import numpy as np
import pytest

from pilab.constants import riesz_constants
from pilab.errors import (
    ExponentOutOfRange,
    GNotUpperGradient,
    XEqualsCenter,
    XOutsideBall,
)
from pilab.gallery import grid_quadrant, path_space
from pilab.riesz import (
    ball_chain,
    maximal_function,
    representation_check,
    riesz_potential,
)
from pilab.verify import lip


def fine_line():
    return path_space(2001, step=0.001, x0=-1.0)


def vx(coord):
    return int(round((coord + 1.0) / 0.001))


def test_chain_case_a_line():
    sp = fine_line()
    ch = ball_chain(sp, vx(0.0), 1.0, vx(0.6), 1.0)
    assert ch.case == "A"
    assert ch.i_o == 0
    assert ch.radii[0] == pytest.approx(0.3, abs=1e-9)
    for i in ch.indices:
        assert abs(ch.radii[i] - 0.3 * 0.5**i) <= 3 * sp.resolution


def test_chain_case_b_line():
    sp = fine_line()
    ch = ball_chain(sp, vx(0.0), 1.0, vx(0.2), 1.0)
    assert ch.case == "B"
    assert ch.i_o == -2
    assert sp.coords[ch.centers[-1]][0] == pytest.approx(-0.1, abs=0.01)
    assert ch.radii[-1] == pytest.approx(0.2, abs=0.01)
    assert sp.coords[ch.centers[-2]][0] == pytest.approx(-0.3, abs=0.01)
    assert ch.radii[-2] == pytest.approx(0.4, abs=0.01)
    # eq:pratique
    c, om = ch.c_lambda, 0.5
    assert c**ch.i_o > om * ch.R / sp.dist(ch.a, ch.x)


def test_chain_validation():
    sp = path_space(11)
    with pytest.raises(XEqualsCenter):
        ball_chain(sp, 5, 3.0, 5, 1.0)
    with pytest.raises(XOutsideBall):
        ball_chain(sp, 0, 2.0, 9, 1.0)


def test_chain_sum_bound():
    sp = fine_line()
    for target in (0.1, 0.3, 0.45, 0.7, 0.95):
        for lam in (1.0, 2.0):
            ch = ball_chain(sp, vx(0.0), 1.0, vx(target), lam)
            assert ch.sum_radii < 2.0


def test_riesz_potential_constant_h():
    sp = fine_line()
    # h = 1: J = sum of radii + R; geometric series gives about 0.6 + 1
    val = riesz_potential(sp, vx(0.0), 1.0, 1.0, 1.0, np.ones(sp.n), vx(0.6))
    assert val == pytest.approx(1.6, abs=0.02)
    assert riesz_potential(sp, vx(0.0), 1.0, 1.0, 1.0, np.zeros(sp.n), vx(0.6)) == 0.0


def test_riesz_potential_homogeneous_and_monotone():
    sp = path_space(101, step=0.1)
    rng = np.random.default_rng(3)
    h1 = rng.uniform(0.0, 1.0, sp.n)
    h2 = h1 + rng.uniform(0.0, 1.0, sp.n)
    a, R, x = 50, 3.0, 60
    j1 = riesz_potential(sp, a, R, 1.0, 1.0, h1, x)
    assert riesz_potential(sp, a, R, 1.0, 1.0, 2.5 * h1, x) == pytest.approx(2.5 * j1)
    assert riesz_potential(sp, a, R, 1.0, 1.0, h2, x) >= j1


def test_maximal_function_examples():
    sp = path_space(5)
    assert maximal_function(sp, 3.0 * np.ones(5), 1.0, 2) == pytest.approx(3.0)
    assert maximal_function(sp, np.array([0, 0, 1, 0, 0.0]), 1.0, 2) == pytest.approx(1.0)
    # s = 2 of a constant: means of |c|^2, root gives |c|
    assert maximal_function(sp, 2.0 * np.ones(5), 2.0, 0) == pytest.approx(2.0)


def test_riesz_constants_values():
    rc = riesz_constants(2.0, 1.0, 1.0, 1.0)
    assert rc.c_lambda == pytest.approx(0.5)
    assert rc.omega_lambda == pytest.approx(0.5)
    assert rc.C1 == pytest.approx(128.0, abs=1e-12)
    assert rc.C2 == pytest.approx(400.0, abs=1e-12)
    assert rc.C_s == pytest.approx(51200.0, abs=1e-12)
    assert rc.C5 == pytest.approx(rc.C2 / 2.0)
    assert rc.C5 == pytest.approx(2.0 * max(rc.C3, rc.C4))


def test_riesz_constants_exponent_guard():
    with pytest.raises(ExponentOutOfRange):
        riesz_constants(2.0, 1.0, 1.0, 2.0)


def test_representation_distance_function():
    sp = path_space(1001, step=0.01)
    a = 500
    f = sp.dist_from(a).copy()
    g = np.ones(sp.n)
    sample = [480, 520, 450, 550, 505]
    res = representation_check(sp, a, 2.0, 1.0, 1.0, f, g, sample, C_P=1.0, Q=1.2)
    assert res.passed
    assert res.max_ratio > 0


def test_representation_upper_gradient_guard():
    sp = path_space(21)
    f = sp.dist_from(10).astype(float)
    with pytest.raises(GNotUpperGradient):
        representation_check(sp, 10, 5.0, 1.0, 1.0, f, np.zeros(sp.n), [12], C_P=1.0, Q=1.2)


def test_representation_constant_f():
    sp = path_space(51)
    f = np.ones(sp.n)
    res = representation_check(sp, 25, 10.0, 1.0, 1.0, f, lip(sp, f), [20, 30], C_P=1.0, Q=1.2)
    assert res.max_ratio == 0.0
    assert res.passed


def test_chain_decay_on_grid():
    sp = grid_quadrant(40)
    rng = np.random.default_rng(11)
    for _ in range(30):
        a = int(rng.integers(sp.n))
        ecc = sp.eccentricity(a)
        R = float(rng.uniform(4.0, max(5.0, ecc / 1.5)))
        ball = sp.ball(a, R)
        cand = ball[ball != a]
        if len(cand) == 0:
            continue
        x = int(cand[rng.integers(len(cand))])
        lam = float(rng.choice([1.0, 2.0]))
        ch = ball_chain(sp, a, R, x, lam)
        r0 = sp.dist(a, x) / (2 * lam)
        for i in ch.indices:
            assert abs(ch.radii[i] - ch.c_lambda**i * r0) <= 3 * sp.resolution
        assert ch.sum_radii < 2 * R
