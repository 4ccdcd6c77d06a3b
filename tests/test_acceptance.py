"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with the measured error (run with -s to see them all)."""

import math
from fractions import Fraction

import pytest

from mimo_mi import (
    ChannelDims,
    build_table,
    coeff_c,
    evaluate_closed_form,
    lemma1_check,
    lnt_identity_check,
    monte_carlo_mi,
    one_point_density,
    render_expression,
    telatar_quadrature,
)
from mimo_mi.verification import (
    REFERENCE_EXPRESSIONS,
    check_density,
    check_orthogonality,
)

MI_2X2_T1 = 1.78904  # frozen reference, quadrature-derived (5 decimals)


def report(name, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'}  acceptance: {name} ({detail})")
    assert passed, f"{name}: {detail}"


def test_criterion_1_reference_expression_reproduction():
    bad = []
    for (m, n), expected in REFERENCE_EXPRESSIONS.items():
        got = render_expression(build_table(ChannelDims(m, n)))
        if "".join(got.split()) != "".join(expected.split()):
            bad.append((m, n, got))
    report(
        "exact symbolic reproduction of the five reference rows",
        not bad,
        f"{len(REFERENCE_EXPRESSIONS) - len(bad)}/{len(REFERENCE_EXPRESSIONS)} exact",
    )


def test_criterion_2_closed_form_vs_quadrature():
    worst = 0.0
    for m in range(1, 5):
        for n in range(m, m + 4):
            dims = ChannelDims(m, n)
            table = build_table(dims)
            for t in (0.1, 1.0, 10.0):
                exact = evaluate_closed_form(table, t).value
                oracle = telatar_quadrature(dims, t).value
                worst = max(worst, abs(oracle - exact) / abs(exact))
    report(
        "closed form vs density-integral quadrature",
        worst <= 1e-8,
        f"max rel err {worst:.3e} over 48 grid points",
    )


def test_criterion_3_monte_carlo_consistency():
    rep = monte_carlo_mi(ChannelDims(2, 2), 1.0, 10**6, seed=20240817, workers=4)
    sigma = abs(rep.mean - MI_2X2_T1) / rep.std_error
    report(
        "Monte Carlo consistency at 2x2, t=1, 1e6 samples",
        sigma <= 4.0,
        f"|mean - {MI_2X2_T1}| = {sigma:.2f} std errors",
    )


def test_criterion_4_log_weighted_gamma_identity():
    worst = 0.0
    for t in (0.25, 1.0, 4.0):
        for k in range(13):
            lhs, rhs = lemma1_check(k, t)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    report(
        "log-weighted gamma integral identity (k <= 12)",
        worst <= 1e-10,
        f"max rel err {worst:.3e}",
    )


def test_criterion_5_density_checks():
    result = check_density()
    report("one-point density equivalence and moments", result.passed, result.detail)


def test_criterion_6_log_cancellation_identity():
    worst = 0.0
    for m in range(1, 5):
        for n in range(m, 9):
            dims = ChannelDims(m, n)
            exact_sum = sum(
                math.factorial(i + n - m) * coeff_c(i, j, dims)
                for i in range(2 * m - 1)
                for j in range(i + 1)
            )
            assert exact_sum == m and isinstance(exact_sum, (int, Fraction))
            for t in (0.3, 1.0, 3.0):
                worst = max(worst, abs(lnt_identity_check(dims, t) - m) / m)
    report(
        "log-term cancellation (exact and numerical)",
        worst <= 1e-9,
        f"exact sums all equal m; numerical max rel err {worst:.3e}",
    )


def test_criterion_7_laguerre_orthogonality():
    result = check_orthogonality()
    report("Laguerre orthogonality (k,l <= 6)", result.passed, result.detail)


def test_criterion_8_monte_carlo_determinism():
    a = monte_carlo_mi(ChannelDims(2, 2), 1.0, 10**5, seed=42, workers=4)
    b = monte_carlo_mi(ChannelDims(2, 2), 1.0, 10**5, seed=42, workers=4)
    report(
        "Monte Carlo determinism (seed=42, 1e5 samples, 4 workers)",
        a.to_json() == b.to_json(),
        "bit-identical JSON reports",
    )
