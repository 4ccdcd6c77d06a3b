"""Special functions used by the closed form and its oracles.

Laguerre polynomials (stable float evaluation), integer-order upper
incomplete gamma, and the exponential integral Ei(-t).

All functions here are pure and share no state, so everything is safe
to call concurrently.
"""

from __future__ import annotations

import math

import mpmath

# Crossover for Ei(-t): at or below it mpmath's E1 at 40 digits; above
# it the Lentz continued fraction is both fast and cancellation-free.
_EI_MPMATH_CUTOFF = 8.0


def _check_t(t: float) -> None:
    """Raise ValueError unless t is a finite inverse SNR t > 0."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"need finite t > 0, got t={t}")


def laguerre_eval(k: int, alpha: int, x: float) -> float:
    """L_k^(alpha)(x) by the three-term recurrence in the degree.

    The recurrence is numerically stable, unlike summing the monomial
    series, whose terms grow like x^k/k! and cancel.
    """
    if k < 0 or alpha < 0:
        raise ValueError(f"need k >= 0 and alpha >= 0, got k={k}, alpha={alpha}")
    if k == 0:
        return 1.0
    prev = 1.0
    cur = 1.0 + alpha - x
    for j in range(1, k):
        prev, cur = cur, ((2 * j + 1 + alpha - x) * cur - (j + alpha) * prev) / (j + 1)
    return cur


def upper_gamma_int(s: int, t: float) -> float:
    """Upper incomplete gamma Gamma(s, t) for integer s >= 0, t > 0.

    For s >= 1 uses the finite sum (s-1)! e^-t sum_i t^i/i! (all terms
    positive, no cancellation).  Gamma(0, t) = -Ei(-t) shares the Ei
    code path exactly.
    """
    _check_t(t)
    if s < 0:
        raise ValueError(f"need s >= 0, got s={s}")
    if s == 0:
        return -exp_integral_ei_neg(t)
    term = 1.0
    acc = 1.0
    for i in range(1, s):
        term *= t / i
        acc += term
    return math.factorial(s - 1) * math.exp(-t) * acc


def _ei_neg_mpmath(t: float) -> tuple[float, float]:
    """(Ei(-t), e^t Ei(-t)) = (-E1(t), -e^t E1(t)), t in (0, cutoff].

    Evaluated with mpmath's E1 in 40-digit arithmetic and rounded once
    at the end, since the float64 series loses ~e^t to cancellation.
    """
    with mpmath.workdps(40):
        mt = mpmath.mpf(t)
        e1 = mpmath.e1(mt)
        return float(-e1), float(-mpmath.exp(mt) * e1)


def _ei_neg_lentz(t: float) -> float:
    """e^t Ei(-t) = -t^0 * CF via the modified Lentz continued fraction
    for Gamma(0, t); accurate for t above the series cutoff."""
    tiny = 1e-300
    b = t + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -float(i) * i
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    # h = e^t Gamma(0, t)
    return -h


def exp_integral_ei_neg(t: float) -> float:
    """Ei(-t) for t > 0 (always negative).

    Positive arguments of Ei are deliberately unsupported; nothing in
    this package needs them.
    """
    _check_t(t)
    if t <= _EI_MPMATH_CUTOFF:
        return _ei_neg_mpmath(t)[0]
    return _ei_neg_lentz(t) * math.exp(-t)


def ei_exp_scaled(t: float) -> float:
    """e^t * Ei(-t) for t > 0, computed without overflow for large t."""
    _check_t(t)
    if t <= _EI_MPMATH_CUTOFF:
        return _ei_neg_mpmath(t)[1]
    return _ei_neg_lentz(t)

