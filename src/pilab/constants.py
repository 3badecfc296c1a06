"""Closed-form constants of the patching argument, each written once:
local ball constants from chains of balls, annulus constants, the
decomposition's counting constants, the upgrade of a 1-Poincare constant,
the RCA scale factor, and the patching step that joins them into the
weighted constants.

Overflow policy: a constant beyond the float range is math.inf.  Every
power that can overflow is taken inside `_inf_on_overflow`, and a check
that meets an infinite constant fails with the flag `constant_nonfinite`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import EtaNotAboveP, ExponentOutOfRange, KappaOutOfRange


def _inf_on_overflow(formula):
    @functools.wraps(formula)
    def guarded(*args, **kwargs):
        try:
            return formula(*args, **kwargs)
        except OverflowError:
            return math.inf

    return guarded


_power = _inf_on_overflow(pow)


def c_lambda(lam):
    """Radius ratio (2 lam - 1) / (2 lam) of consecutive balls in a chain."""
    return (2.0 * lam - 1.0) / (2.0 * lam)


def _omega(lam):
    c = c_lambda(lam)
    return 2.0 * lam / (1.0 / (1.0 - c) + lam / c)


@_inf_on_overflow
def _chain_C1(Q, C_P, lam):
    """Constant of the chain representation |f(x) - f_B| <= C1 J(x)."""
    return max(2.0 * (2.0 * lam) ** (3.0 * Q), (2.0 / _omega(lam)) ** Q) * C_P


@dataclass
class RieszConstants:
    """Constants of the chain representation and local Sobolev estimates."""

    Q: float
    C_P: float
    lam: float
    s: float
    c_lambda: float
    omega_lambda: float
    C1: float
    C2: float
    C3: float
    C4: float
    C5: float
    C_s: float


def riesz_constants(Q, C_P, lam, s):
    """Constants of the chain representation; requires s < Q."""
    if s >= Q:
        raise ExponentOutOfRange(f"s={s} >= Q={Q}")
    c = c_lambda(lam)
    C1 = _chain_C1(Q, C_P, lam)
    C3 = _power(8.0, Q / s) / (2.0 * (1.0 - c ** (Q / s - 1.0)))
    C4 = _power(2.0, Q / s) * _power(4.0 * lam + 1.0, Q / s) / (2.0 * (1.0 - c))
    C5 = 2.0 * max(C3, C4)
    C2 = 2.0 * C5
    return RieszConstants(Q, C_P, lam, s, c, _omega(lam), C1, C2, C3, C4, C5, C1 * C2)


def local_sobolev_constant(Q, C_P, lam, s, flags):
    """Constant C_s of the local Sobolev inequality on a ball.  For s >= Q,
    where the chain estimate does not apply, it is the fallback
    C_P (4 lam)^max(Q, 1), flagged `s_not_below_Q`."""
    if s >= Q:
        flags.append("s_not_below_Q")
        return C_P * _power(4.0 * lam, max(Q, 1.0))
    return riesz_constants(Q, C_P, lam, s).C_s


@_inf_on_overflow
def patching_constant(C1, C2, Q1, Q2, s, t):
    """Global constant from local constants plus the discrete inequality."""
    return 2.0 ** (t - 1.0) * (
        C1**t * Q1 ** (t / s) + (2.0 * C1 * C2) ** t * Q2 * Q1 ** (3.0 * t / s)
    )


@_inf_on_overflow
def neumann_constant(N, K, s):
    """Counting constant 2^s N (N-1)^(s-1) K^2 of the discrete Neumann
    s-Poincare inequality on N vertices whose masses are K-comparable."""
    return 2.0**s * N * max(N - 1.0, 1.0) ** (s - 1.0) * K**2


@dataclass
class Constant:
    """Constant `value` of a check and the factors patched into it."""

    C1: float
    C2: float
    Q1: float
    Q2: float
    value: float


def annulus_constant(Q, C_P, alpha, delta, s, t, flavor, flags):
    """Constant of a piece of A(o, R, alpha R) fattened by delta R.

    The ball constant C1 is the local Sobolev constant (lam = 2) for
    flavor="sobolev" and C_P otherwise.  The net graph has N balls meeting
    any one, K-comparable masses, Neumann constant C2, and overlap and
    measure-comparison numbers 60^Q and 18^Q, with Q floored at 1.
    """
    Q = max(Q, 1.0)
    C1 = local_sobolev_constant(Q, C_P, 2.0, s, flags) if flavor == "sobolev" else C_P
    N = _power(4.0 * (6.0 * alpha / delta + 1.0), Q)
    K = _power(1.0 + 2.0 * alpha / delta, Q)
    C2 = neumann_constant(N, K, s)
    Q1, Q2 = _power(60.0, Q), _power(18.0, Q)
    value = _power(patching_constant(C1, C2, Q1, Q2, s, t), 1.0 / t)
    return Constant(C1, C2, Q1, Q2, value)


def weighted_constant(
    Q, C_P, kappa, C_disc, A, B, Q1, Q2, s, t, flags, local_scale=1.0, global_scale=1.0
):
    """Constant of a weighted (s, t) inequality patched over a kappa-covering
    with overlap numbers Q1, Q2.  C1 is local_scale * 2 kappa^3 times the
    constant of sobolev annulus pieces at alpha = kappa^2, delta = 1/2; C2
    is the covering graph's 1-Poincare constant C_disc, upgraded to t > 1
    with the graph's profile (A, B); `global_scale` multiplies the value."""
    C2 = C_disc if t <= 1 else upgrade_constant(C_disc, A, B, t)
    ann = annulus_constant(Q, C_P, _power(kappa, 2), 0.5, s, t, "sobolev", flags)
    C1 = local_scale * (ann.value * 2.0 * _power(kappa, 3))
    value = _power(patching_constant(C1, C2, Q1, Q2, s, t), 1.0 / t) * global_scale
    return Constant(C1, C2, float(Q1), float(Q2), value)


def hardy_factor(s, kappa):
    """Extra factor 2^s kappa^(2s) of the Hardy annulus estimate."""
    return _power(2.0, s) * _power(kappa, 2.0 * s)


def ahlfors_factor(C_A, s, t):
    """Factor C_A^(1/s - 1/t) of the pure power-of-distance weight."""
    return _power(C_A, 1.0 / s - 1.0 / t)


@_inf_on_overflow
def layer_bound(Q, kappa):
    """Upper bound 2^Q (8 kappa / (kappa - 1))^Q on pieces per level."""
    if kappa <= 1:
        raise KappaOutOfRange(f"kappa={kappa}")
    return 2.0**Q * (8.0 * kappa / (kappa - 1.0)) ** Q


# The bound (16 kappa / (kappa - 1))^Q on ball mass over piece mass is the
# same number.
excess_constant = layer_bound


def theoretical_Q1(Q, kappa):
    """Overlap-count surrogate: U# closures touch only within 19 levels,
    each holding at most layer_bound(Q, kappa) pieces."""
    return 19.0 * layer_bound(Q, kappa)


@_inf_on_overflow
def theoretical_Q2(Q, kappa, alpha, beta):
    """Measure-comparability bound for densities m(B_d(o))^alpha d^-beta."""
    return layer_bound(Q, kappa) * 2.0 ** (Q * alpha) * kappa ** (3 * alpha * Q + 4 * beta)


@_inf_on_overflow
def upgrade_constant(C, A, B, tau):
    """Self-improvement of a 1-Poincare constant to exponent tau."""
    return 2.0 * C * tau * (A * B) ** (1.0 - 1.0 / tau)


@_inf_on_overflow
def rca_kappa(Q, p, lam, C_P, eta, C_o):
    """Scale factor above which annuli of a PI space stay relatively
    connected.  Requires eta > p."""
    if eta <= p:
        raise EtaNotAboveP(f"eta={eta} <= p={p}")
    return (4.0**eta * C_o * C_P * 484.0**Q) ** (1.0 / (eta - p))
