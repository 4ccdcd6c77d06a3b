"""Special functions used by the closed form and its oracles.

Laguerre polynomials (stable float evaluation), integer-order upper
incomplete gamma, and the scaled exponential integral e^t Ei(-t).

All functions here are pure and share no state, so everything is safe
to call concurrently.
"""

from __future__ import annotations

import math

# Working precision in bits of the float e^t Ei(-t): what mpmath gives 40
# digits.
_EI_PREC = 136
# Bits beyond the requested precision for the exact (man, exp) value:
# e^t, E1(t) and their product are each within a few units of the last
# of these bits, so their error stays below 2^-prec.
_EI_GUARD_BITS = 3


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
    positive, no cancellation).  Gamma(0, t) = -Ei(-t) = -e^-t (e^t Ei(-t)).
    """
    _check_t(t)
    if s < 0:
        raise ValueError(f"need s >= 0, got s={s}")
    if s == 0:
        return -ei_exp_scaled(t) * math.exp(-t)
    term = 1.0
    acc = 1.0
    for i in range(1, s):
        term *= t / i
        acc += term
    return math.factorial(s - 1) * math.exp(-t) * acc


def ei_exp_scaled(t: float, prec: int | None = None):
    """e^t Ei(-t) = -e^t E1(t) for t > 0, rounded once to a float.

    With `prec`, returns instead the integers (man, exp) with
    e^t E1(t) = man 2^exp to a relative error below 2^-prec, for callers
    that combine it exactly with other terms; e^t Ei(-t) = -man 2^exp.

    mpmath's E1 and exp are called through mpmath.libmp with an explicit
    precision, so mpmath's global context is neither read nor changed,
    and the value never overflows.  Positive arguments of Ei are
    deliberately unsupported; nothing in this package needs them.
    """
    _check_t(t)
    # imported here so that only callers of this function load mpmath
    from mpmath import libmp

    x = libmp.from_float(t)
    rnd = libmp.round_nearest
    work = _EI_PREC if prec is None else prec + _EI_GUARD_BITS
    scaled = libmp.mpf_mul(
        libmp.mpf_exp(x, work, rnd), libmp.mpf_e1(x, work, rnd), work, rnd
    )
    if prec is None:
        return -libmp.to_float(scaled, rnd=rnd)
    _, man, exp, _ = scaled
    return man, exp
