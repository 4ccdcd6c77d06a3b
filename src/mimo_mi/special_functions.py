"""Special functions used by the closed form and its oracles.

Laguerre polynomials (exact rational coefficients and stable float
evaluation), integer-order upper incomplete gamma, the exponential
integral Ei(-t), and harmonic numbers.

All functions here are pure; the only shared state is read-only
memoization, so everything is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

# Crossover for Ei(-t): at or below it mpmath's E1 at 40 digits; above
# it the Lentz continued fraction is both fast and cancellation-free.
_EI_MPMATH_CUTOFF = 8.0


@dataclass(frozen=True)
class PolyRational:
    """Polynomial with exact rational coefficients, coeffs[i] * x**i.

    Stored in canonical form: the trailing (highest-index) coefficient
    is nonzero unless the polynomial is identically zero.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        c = list(self.coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(Fraction(x) for x in c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Horner evaluation; exact if x is a Fraction or int."""
        acc = 0 if not self.coeffs else self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc


@lru_cache(maxsize=None)
def laguerre_coeffs(k: int, alpha: int) -> PolyRational:
    """Exact coefficients of the generalized Laguerre polynomial L_k^(alpha).

    coeff of x^i is (-1)^i * C(alpha + k, k - i) / i!.  Degree is exactly
    k with leading coefficient (-1)^k / k!.
    """
    if k < 0 or alpha < 0:
        raise ValueError(f"need k >= 0 and alpha >= 0, got k={k}, alpha={alpha}")
    coeffs = tuple(
        Fraction((-1) ** i * math.comb(alpha + k, k - i), math.factorial(i))
        for i in range(k + 1)
    )
    return PolyRational(coeffs)


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
    if t <= 0:
        raise ValueError(f"need t > 0, got t={t}")
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
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"need finite t > 0, got t={t}")
    if t <= _EI_MPMATH_CUTOFF:
        return _ei_neg_mpmath(t)[0]
    return _ei_neg_lentz(t) * math.exp(-t)


def ei_exp_scaled(t: float) -> float:
    """e^t * Ei(-t) for t > 0, computed without overflow for large t."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"need finite t > 0, got t={t}")
    if t <= _EI_MPMATH_CUTOFF:
        return _ei_neg_mpmath(t)[1]
    return _ei_neg_lentz(t)


@lru_cache(maxsize=None)
def harmonic(l: int) -> Fraction:
    """Exact harmonic number H_l = sum_{k=1}^{l} 1/k; harmonic(0) = 0."""
    if l < 0:
        raise ValueError(f"need l >= 0, got l={l}")
    if l == 0:
        return Fraction(0)
    return harmonic(l - 1) + Fraction(1, l)
