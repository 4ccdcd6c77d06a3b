"""Bundled self-verification: every cross-check the package promises.

Each check compares two independent computation routes and reports the
worst observed error against a fixed tolerance.  The CLI `verify`
command and the acceptance test suite are thin wrappers around these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coefficients import ChannelDims, build_table
from .evaluator import evaluate_closed_form, render_expression
from .oracles import (
    QuadratureConfig,
    _quad,
    density_moment,
    lemma1_check,
    lnt_identity_check,
    monte_carlo_mi,
    one_point_density,
    telatar_quadrature,
)
from .special_functions import laguerre_eval

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
# The three-way check fails a point whose Monte Carlo mean is more than
# this many standard errors from the closed form.
_MC_SIGMA = 4.0
_MC_WORKERS = 4


@dataclass(frozen=True)
class CheckResult:
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


def check_orthogonality(tol: float = 1e-9) -> CheckResult:
    """Laguerre orthogonality under the x^alpha e^-x weight by quadrature."""
    import numpy as np

    cfg = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-11, max_subdivisions=200)
    worst = 0.0
    for alpha in (0, 1, 2, 4):
        for k in range(7):
            for l in range(k, 7):
                # finite cutoff: the weight is ~1e-40 by x=150, far below tol.
                val, _ = _quad(
                    lambda x: x**alpha
                    * np.exp(-x)
                    * laguerre_eval(k, alpha, x)
                    * laguerre_eval(l, alpha, x),
                    0.0,
                    150.0,
                    cfg,
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
    return CheckResult("laguerre orthogonality", worst <= tol, f"max err {worst:.3e}")


def check_lemma1() -> CheckResult:
    """Log-weighted gamma integral identity, quadrature vs closed form."""
    worst = 0.0
    for t in (0.25, 1.0, 4.0):
        for k in range(_LEMMA1_K_MAX + 1):
            lhs, rhs = lemma1_check(k, t)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return CheckResult(
        "log-weighted gamma integral identity",
        worst <= _LEMMA1_TOL,
        f"max rel err {worst:.3e}",
    )


def check_density(
    pointwise_tol: float = 1e-11,
    norm_tol: float = 1e-10,
    moment_tol: float = 1e-8,
    m_max: int = 5,
    n_max: int = 9,
) -> CheckResult:
    """Density form equivalence, normalization, and first moment = n."""
    worst_pt = worst_norm = worst_mom = 0.0
    for m in range(1, m_max + 1):
        for n in range(m, n_max + 1):
            dims = ChannelDims(m, n)
            for lam in (0.01, 0.1, 1.0, 5.0, 20.0, 50.0):
                p1 = one_point_density(dims, lam, "sum_form")
                p2 = one_point_density(dims, lam, "two_term_form")
                worst_pt = max(worst_pt, abs(p1 - p2) / max(abs(p1), 1e-300))
            worst_norm = max(worst_norm, abs(density_moment(dims, 0) - 1.0))
            worst_mom = max(worst_mom, abs(density_moment(dims, 1) - n) / n)
    ok = worst_pt <= pointwise_tol and worst_norm <= norm_tol and worst_mom <= moment_tol
    return CheckResult(
        "eigenvalue density",
        ok,
        f"form diff {worst_pt:.3e}, norm err {worst_norm:.3e}, "
        f"moment err {worst_mom:.3e}",
    )


def check_lnt_identity() -> CheckResult:
    """Exact and numerical forms of the log-term cancellation identity.

    The exact form is build_table's guard on the column sums, so a table
    that fails to build fails the check.
    """
    worst = 0.0
    for m in range(1, _LNT_M_MAX + 1):
        for n in range(m, _LNT_N_MAX + 1):
            dims = ChannelDims(m, n)
            try:
                build_table(dims)
            except AssertionError as exc:
                return CheckResult("log-term cancellation identity", False, str(exc))
            for t in (0.3, 1.0, 3.0):
                worst = max(worst, abs(lnt_identity_check(dims, t) - m) / m)
    return CheckResult(
        "log-term cancellation identity", worst <= _LNT_TOL, f"max rel err {worst:.3e}"
    )


def check_three_way(
    rel_tol: float = 1e-8,
    mc_samples: int = 200_000,
    seed: int = 20240817,
    dims: list[ChannelDims] | None = None,
    ts: tuple[float, ...] = (0.1, 1.0, 10.0),
) -> CheckResult:
    """Closed form vs quadrature vs Monte Carlo at every dims x ts point.

    The default grid is every m <= 4 with m <= n <= m + 3.  The detail
    gives the largest relative difference between the closed form and the
    quadrature, and how far Monte Carlo strays from the closed form, each
    with the point where it occurs.
    """
    if dims is None:
        dims = [ChannelDims(m, n) for m in range(1, 5) for n in range(m, m + 4)]
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
    ok = worst_quad[0] <= rel_tol and worst_mc[0] <= _MC_SIGMA
    return CheckResult(
        "three-way agreement",
        ok,
        f"closed form vs quadrature rel diff {worst_quad[0]:.3e} at {worst_quad[1]}, "
        f"MC worst {worst_mc[0]:.2f} sigma at {worst_mc[1]}",
    )


def run_all(
    rel_tol: float = 1e-8, mc_samples: int = 200_000, seed: int = 20240817
) -> list[CheckResult]:
    return [
        check_reference_expressions(),
        check_orthogonality(),
        check_lemma1(),
        check_density(),
        check_lnt_identity(),
        check_three_way(rel_tol=rel_tol, mc_samples=mc_samples, seed=seed),
    ]
