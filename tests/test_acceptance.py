"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with the measured error (run with -s to see them all)."""

from mimo_mi import (
    ChannelDims,
    build_table,
    evaluate_closed_form,
    monte_carlo_mi,
    telatar_quadrature,
)
from mimo_mi import verification

MI_2X2_T1 = 1.78904  # frozen reference, quadrature-derived (5 decimals)


def report(name, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'}  acceptance: {name} ({detail})")
    assert passed, f"{name}: {detail}"


def test_criterion_1_reference_expression_reproduction():
    result = verification.check_reference_expressions()
    report(
        "exact symbolic reproduction of the five reference rows",
        result.passed,
        result.detail,
    )


def test_criterion_2_closed_form_vs_quadrature():
    # the quadrature half of verify's three-way check, on its grid
    worst = 0.0
    for dims in verification._THREE_WAY_DIMS:
        table = build_table(dims)
        for t in verification._THREE_WAY_TS:
            exact = evaluate_closed_form(table, t).value
            oracle = telatar_quadrature(dims, t).value
            worst = max(worst, abs(oracle - exact) / abs(exact))
    points = len(verification._THREE_WAY_DIMS) * len(verification._THREE_WAY_TS)
    report(
        "closed form vs density-integral quadrature",
        worst <= verification._THREE_WAY_REL_TOL,
        f"max rel err {worst:.3e} over {points} grid points",
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
    result = verification.check_lemma1()
    report("log-weighted gamma integral identity (k <= 12)", result.passed, result.detail)


def test_criterion_5_density_checks():
    result = verification.check_density()
    report("one-point density equivalence and moments", result.passed, result.detail)


def test_criterion_6_log_cancellation_identity():
    result = verification.check_lnt_identity()
    report("log-term cancellation (exact and numerical)", result.passed, result.detail)


def test_criterion_7_laguerre_orthogonality():
    result = verification.check_orthogonality()
    report("Laguerre orthogonality (k,l <= 6)", result.passed, result.detail)


def test_criterion_8_monte_carlo_determinism():
    a = monte_carlo_mi(ChannelDims(2, 2), 1.0, 10**5, seed=42, workers=4)
    b = monte_carlo_mi(ChannelDims(2, 2), 1.0, 10**5, seed=42, workers=4)
    report(
        "Monte Carlo determinism (seed=42, 1e5 samples, 4 workers)",
        a.to_json() == b.to_json(),
        "bit-identical JSON reports",
    )
