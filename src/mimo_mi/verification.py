"""Bundled self-verification: every cross-check the package promises.

Each check compares two independent routes and reports the worst observed error
against a fixed tolerance.  Each gate is defined here alone: the CLI `verify`
command and the acceptance test suite are thin wrappers around these.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .coefficients import ChannelDims, build_table, coeff_c
from .evaluator import evaluate_closed_form, render_expression
from .oracles import (
    _check_mc_request,
    _quad,
    _root_weight,
    density_moment,
    monte_carlo_mi,
    one_point_density,
    telatar_quadrature,
)
from .special_functions import _check_t, ei_exp_scaled

# Closed-form expressions for small arrays, frozen after independent
# verification against the quadrature and Monte Carlo oracles.  Note the
# 2220 t^4 term in the (4, 6) row: both oracles confirm it (a commonly
# quoted value of 2200 fails them by ~1e-2 nats at t=1).
REFERENCE_EXPRESSIONS = {
    (2, 2): "1 - t - e^t Ei(-t) (2 + t^2)",
    (2, 4): "1/6 (20 - 6 t - t^2 - t^3"
    " - e^t Ei(-t) (12 - 12 t + 6 t^2 + 2 t^3 + t^4))",
    (2, 6): "1/120 (524 - 180 t + 48 t^2 - 8 t^3 - 3 t^4 - t^5"
    " - e^t Ei(-t) (240 - 240 t + 120 t^2 - 40 t^3 + 10 t^4 + 4 t^5 + t^6))",
    (4, 4): "1/36 (156 - 156 t - 96 t^2 - 56 t^3 - 11 t^4 - t^5"
    " - e^t Ei(-t) (144 + 216 t^2 + 144 t^3 + 66 t^4 + 12 t^5 + t^6))",
    (4, 6): "1/720 (5544 - 1440 t - 720 t^2 - 1600 t^3 - 756 t^4 - 186 t^5"
    " - 21 t^6 - t^7 - e^t Ei(-t) (2880 - 2880 t + 1440 t^2 + 1920 t^3"
    " + 2220 t^4 + 924 t^5 + 206 t^6 + 22 t^7 + t^8))",
}

_LEMMA1_TOL = 1e-10
_LEMMA1_K_MAX = 12
_LNT_TOL = 1e-9
_LNT_M_MAX = 4
_LNT_N_MAX = 8
# The three-way check fails a point whose quadrature differs from the
# closed form by more than this, relative.
_THREE_WAY_REL_TOL = 1e-8
# The three-way check fails a point whose Monte Carlo mean is more than
# this many standard errors from the closed form.
_MC_SIGMA = 4.0
_MC_WORKERS = 4
# The three-way check's default grid: every m <= 4 with m <= n <= m + 3.
_THREE_WAY_DIMS = tuple(
    ChannelDims(m, n) for m in range(1, 5) for n in range(m, m + 4)
)
_THREE_WAY_TS = (0.1, 1.0, 10.0)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _norm_ws(s: str) -> str:
    return "".join(s.split())


def check_reference_expressions() -> CheckResult:
    """Exact symbolic match of the rendered closed form for the frozen dims."""
    bad = []
    for (m, n), expected in REFERENCE_EXPRESSIONS.items():
        got = render_expression(build_table(ChannelDims(m, n)))
        if _norm_ws(got) != _norm_ws(expected):
            bad.append(f"({m},{n}): got {got!r}")
    if bad:
        return CheckResult("reference expressions", False, "; ".join(bad))
    return CheckResult(
        "reference expressions", True, f"{len(REFERENCE_EXPRESSIONS)} dims exact"
    )


def _laguerre(k: int, alpha: int, x: float) -> float:
    """L_k^(alpha)(x) by the three-term recurrence in the degree.

    The recurrence is numerically stable, unlike summing the monomial
    series, whose terms grow like x^k/k! and cancel.
    """
    if k < 0 or alpha < 0:
        raise ValueError(f"need k >= 0 and alpha >= 0, got k={k}, alpha={alpha}")
    if k == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + alpha - x
    for j in range(1, k):
        prev, cur = cur, ((2 * j + 1 + alpha - x) * cur - (j + alpha) * prev) / (j + 1)
    return cur


def check_orthogonality() -> CheckResult:
    """Laguerre orthogonality under the x^alpha e^-x weight by quadrature."""
    worst = 0.0
    for alpha in (0, 1, 2, 4):
        for k in range(7):
            for l in range(k, 7):
                val, _ = _quad(
                    lambda x: x**alpha
                    * np.exp(-x)
                    * _laguerre(k, alpha, x)
                    * _laguerre(l, alpha, x),
                    0.0,
                    rel_tol=1e-11,
                    abs_tol=1e-11,
                )
                target = (
                    math.factorial(alpha + k) / math.factorial(k) if k == l else 0.0
                )
                scale = math.sqrt(
                    math.factorial(alpha + k)
                    / math.factorial(k)
                    * math.factorial(alpha + l)
                    / math.factorial(l)
                )
                worst = max(worst, abs(val - target) / scale)
    return CheckResult("laguerre orthogonality", worst <= 1e-9, f"max err {worst:.3e}")


def _upper_gamma(s: int, t: float) -> float:
    """Upper incomplete gamma Gamma(s, t) for integer s >= 0, t > 0.

    For s >= 1 uses the finite sum (s-1)! e^-t sum_i t^i/i! (all terms
    positive, no cancellation).  Gamma(0, t) = -Ei(-t) = -e^-t (e^t Ei(-t)).
    """
    t = _check_t(t)
    if s < 0:
        raise ValueError(f"need s >= 0, got s={s}")
    if s == 0:
        return -ei_exp_scaled(t) * math.exp(-t)
    term = acc = 1.0
    for i in range(1, s):
        term *= t / i
        acc += term
    return math.factorial(s - 1) * math.exp(-t) * acc


def _log_gamma_integral(k: int, t: float) -> float:
    """Closed form of int_t^inf x^k e^-x ln x dx:
    Gamma(k+1, t) ln t + k! sum_{s=0}^{k} Gamma(s, t)/s!."""
    tail = sum(_upper_gamma(s, t) / math.factorial(s) for s in range(k + 1))
    return _upper_gamma(k + 1, t) * math.log(t) + math.factorial(k) * tail


def check_lemma1() -> CheckResult:
    """Log-weighted gamma integral identity, quadrature vs closed form."""
    worst = 0.0
    for t in (0.25, 1.0, 4.0):
        for k in range(_LEMMA1_K_MAX + 1):

            def integrand(x):
                # x^k overflows only where e^-x has underflowed: the product
                # is 0 there.
                damp = np.exp(-x)
                return np.where(damp > 0, x**k * np.log(x) * damp, 0.0)

            lhs, _ = _quad(integrand, t)
            rhs = _log_gamma_integral(k, t)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return CheckResult(
        "log-weighted gamma integral identity",
        worst <= _LEMMA1_TOL,
        f"max rel err {worst:.3e}",
    )


def _two_term_density(dims: ChannelDims, lam: float) -> float:
    """one_point_density by the Christoffel-Darboux style expression: three
    Laguerre factors (L of negative degree taken as zero), each scaled by
    the float64 root weight before multiplying.  An independent float64
    cross-check of the sum form, 0.0 where that weight underflows and at
    lam = inf.  Raises ValueError for a negative or NaN lam."""
    if not lam >= 0:
        raise ValueError(f"need lambda >= 0, got {lam}")
    m, n, alpha = dims.m, dims.n, dims.n - dims.m
    root_weight = float(_root_weight(alpha, lam)) if lam < math.inf else 0.0
    if root_weight == 0.0:
        # the Laguerre factors may overflow, and 0 * inf is nan
        return 0.0
    pref = math.factorial(m - 1) * math.factorial(alpha) / math.factorial(n - 1)
    lm1 = root_weight * _laguerre(m - 1, alpha + 1, lam)
    cross = 0.0
    if m >= 2:
        cross = (root_weight * _laguerre(m - 2, alpha + 1, lam)) * (
            root_weight * _laguerre(m, alpha + 1, lam)
        )
    return pref * (lm1 * lm1 - cross)


def check_density() -> CheckResult:
    """Density form equivalence, normalization, and first moment = n, at
    every m <= 5, m <= n <= 9."""
    worst_pt = worst_norm = worst_mom = 0.0
    for m in range(1, 6):
        for n in range(m, 10):
            dims = ChannelDims(m, n)
            for lam in (0.01, 0.1, 1.0, 5.0, 20.0, 50.0):
                p1 = one_point_density(dims, lam)
                p2 = _two_term_density(dims, lam)
                worst_pt = max(worst_pt, abs(p1 - p2) / max(abs(p1), 1e-300))
            worst_norm = max(worst_norm, abs(density_moment(dims, 0) - 1.0))
            worst_mom = max(worst_mom, abs(density_moment(dims, 1) - n) / n)
    ok = worst_pt <= 1e-11 and worst_norm <= 1e-10 and worst_mom <= 1e-8
    return CheckResult(
        "eigenvalue density",
        ok,
        f"form diff {worst_pt:.3e}, norm err {worst_norm:.3e}, "
        f"moment err {worst_mom:.3e}",
    )


def _lnt_value(dims: ChannelDims, cs: list, t: float) -> float:
    """e^t sum_ij c_ij sum_k C(i+n-m, k) (-t)^(i+n-m-k) Gamma(k+1, t), which
    the log-term cancellation identity sets to m; cs lists (i, c_ij)."""
    gammas = [_upper_gamma(k + 1, t) for k in range(dims.m + dims.n - 1)]
    terms = []
    for i, c in cs:
        c = float(c)
        if c == 0.0:
            continue
        d = i + dims.n - dims.m
        for k in range(d + 1):
            terms.append(c * math.comb(d, k) * (-t) ** (d - k) * gammas[k])
    return math.exp(t) * math.fsum(terms)


def check_lnt_identity() -> CheckResult:
    """Exact and numerical forms of the log-term cancellation identity.

    The exact form, sum_{i<2m-1} (i+n-m)! sum_{j<=i} c_ij = m, is summed
    in Fractions from coeff_c; the first dims where it fails fail the check.
    The numerical form is _lnt_value on the same c_ij at three t.
    """
    worst = 0.0
    for m in range(1, _LNT_M_MAX + 1):
        for n in range(m, _LNT_N_MAX + 1):
            dims = ChannelDims(m, n)
            cs = [
                (i, coeff_c(i, j, dims)) for i in range(2 * m - 1) for j in range(i + 1)
            ]
            exact = sum(math.factorial(i + n - m) * c for i, c in cs)
            if exact != m:
                detail = f"exact sum {exact} at m={m} n={n}, not {m}"
                return CheckResult("log-term cancellation identity", False, detail)
            for t in (0.3, 1.0, 3.0):
                worst = max(worst, abs(_lnt_value(dims, cs, t) - m) / m)
    return CheckResult(
        "log-term cancellation identity", worst <= _LNT_TOL, f"max rel err {worst:.3e}"
    )


def _check_mc_args(mc_samples: int, seed: int, dims) -> None:
    for d in dims:
        _check_mc_request(d, mc_samples, seed, _MC_WORKERS)


def check_three_way(
    mc_samples: int = 200_000,
    seed: int = 20240817,
    dims: list[ChannelDims] | None = None,
    ts: tuple[float, ...] = _THREE_WAY_TS,
) -> CheckResult:
    """Closed form vs quadrature vs Monte Carlo at every dims x ts point.

    The default grid is _THREE_WAY_DIMS x _THREE_WAY_TS.  The detail gives the
    largest relative difference between the closed form and the quadrature, and
    how far Monte Carlo strays from the closed form, each with the point
    where it occurs.  Raises ValueError unless Monte Carlo can take
    mc_samples and seed at every dims, before any point is computed.
    """
    if dims is None:
        dims = _THREE_WAY_DIMS
    _check_mc_args(mc_samples, seed, dims)
    worst_quad = (0.0, "")
    worst_mc = (0.0, "")
    for d in dims:
        table = build_table(d)
        for t in ts:
            point = f"m={d.m} n={d.n} t={t!r}"
            exact = evaluate_closed_form(table, t).value
            quad = telatar_quadrature(d, t).value
            diff = abs(quad - exact) / abs(exact)
            if diff >= worst_quad[0]:
                worst_quad = (diff, point)
            rep = monte_carlo_mi(d, t, mc_samples, seed=seed, workers=_MC_WORKERS)
            sigma = abs(rep.mean - exact) / rep.std_error
            if sigma >= worst_mc[0]:
                worst_mc = (sigma, point)
    ok = worst_quad[0] <= _THREE_WAY_REL_TOL and worst_mc[0] <= _MC_SIGMA
    return CheckResult(
        "three-way agreement",
        ok,
        f"closed form vs quadrature rel diff {worst_quad[0]:.3e} at {worst_quad[1]}, "
        f"MC worst {worst_mc[0]:.2f} sigma at {worst_mc[1]}",
    )


def run_all(mc_samples: int = 200_000, seed: int = 20240817) -> list[CheckResult]:
    # before the checks that do not use them
    _check_mc_args(mc_samples, seed, _THREE_WAY_DIMS)
    return [
        check_reference_expressions(),
        check_orthogonality(),
        check_lemma1(),
        check_density(),
        check_lnt_identity(),
        check_three_way(mc_samples=mc_samples, seed=seed),
    ]
