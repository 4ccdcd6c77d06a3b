import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from mimo_mi import (
    ChannelDims,
    QuadratureConfig,
    a_pq_check,
    build_table,
    density_moment,
    evaluate_closed_form,
    lemma1_check,
    lnt_identity_check,
    monte_carlo_mi,
    one_point_density,
    telatar_quadrature,
)

MI_2X2_T1 = 1.789042086969582
MI_1X1_T1 = 0.596347362323194  # e * Gamma(0,1), quadrature-derived


class TestOnePointDensity:
    def test_1x1_at_zero(self):
        assert one_point_density(ChannelDims(1, 1), 0.0) == pytest.approx(1.0)

    def test_2x2_at_zero(self):
        assert one_point_density(ChannelDims(2, 2), 0.0) == pytest.approx(1.0)

    def test_normalization_2x4(self):
        assert density_moment(ChannelDims(2, 4), 0) == pytest.approx(1.0, abs=1e-10)

    def test_negative_lambda_errors(self):
        with pytest.raises(ValueError):
            one_point_density(ChannelDims(2, 2), -0.1)

    def test_unknown_form_errors(self):
        with pytest.raises(ValueError):
            one_point_density(ChannelDims(2, 2), 1.0, "nope")

    @pytest.mark.parametrize("m", range(1, 6))
    def test_form_equivalence(self, m):
        for n in range(m, 10):
            d = ChannelDims(m, n)
            for lam in (0.01, 0.1, 1.0, 5.0, 20.0, 50.0):
                p1 = one_point_density(d, lam, "sum_form")
                p2 = one_point_density(d, lam, "two_term_form")
                assert p2 == pytest.approx(p1, rel=1e-11, abs=1e-300)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 4), (3, 3), (5, 9)])
    def test_moments(self, m, n):
        d = ChannelDims(m, n)
        assert density_moment(d, 0) == pytest.approx(1.0, abs=1e-10)
        assert density_moment(d, 1) == pytest.approx(n, rel=1e-8)


class TestTelatarQuadrature:
    def test_2x2(self):
        r = telatar_quadrature(ChannelDims(2, 2), 1.0)
        assert r.value == pytest.approx(MI_2X2_T1, abs=1e-10)
        assert r.err_estimate < 1e-8

    def test_1x1(self):
        r = telatar_quadrature(ChannelDims(1, 1), 1.0)
        assert r.value == pytest.approx(MI_1X1_T1, abs=1e-12)

    def test_4x6_matches_closed_form(self):
        d = ChannelDims(4, 6)
        exact = evaluate_closed_form(build_table(d), 0.5).value
        assert telatar_quadrature(d, 0.5).value == pytest.approx(exact, rel=1e-8)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            telatar_quadrature(ChannelDims(2, 2), 0.0)
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                telatar_quadrature(ChannelDims(2, 2), t)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=1e-15)
        with pytest.raises(ValueError):
            QuadratureConfig(max_subdivisions=10**7)
        with pytest.raises(ValueError):
            QuadratureConfig(tail_cutoff_multiplier=0.0)


class TestThreeWayAgreement:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_quadrature_grid(self, m):
        for n in range(m, m + 4):
            d = ChannelDims(m, n)
            table = build_table(d)
            for t in (0.1, 1.0, 10.0):
                exact = evaluate_closed_form(table, t).value
                oracle = telatar_quadrature(d, t).value
                assert oracle == pytest.approx(exact, rel=1e-8)


class TestMonteCarlo:
    def test_2x2_consistency(self):
        rep = monte_carlo_mi(ChannelDims(2, 2), 1.0, 200_000, seed=11, workers=4)
        assert abs(rep.mean - MI_2X2_T1) <= 4 * rep.std_error

    def test_1x1_consistency(self):
        rep = monte_carlo_mi(ChannelDims(1, 1), 1.0, 200_000, seed=12, workers=2)
        assert abs(rep.mean - MI_1X1_T1) <= 4 * rep.std_error

    def test_minimal_report_well_formed(self):
        rep = monte_carlo_mi(ChannelDims(3, 5), 2.0, 100, seed=5)
        assert rep.samples == 100
        assert rep.std_error > 0
        assert rep.mean >= 0
        assert rep.worker_count == 1

    def test_determinism_across_runs(self):
        kw = dict(t=1.0, samples=10_000, seed=42, workers=4)
        a = monte_carlo_mi(ChannelDims(2, 2), **kw)
        b = monte_carlo_mi(ChannelDims(2, 2), **kw)
        assert a.to_json() == b.to_json()
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_worker_count_changes_stream(self):
        a = monte_carlo_mi(ChannelDims(2, 2), 1.0, 10_000, seed=42, workers=1)
        b = monte_carlo_mi(ChannelDims(2, 2), 1.0, 10_000, seed=42, workers=4)
        # different chunking, different streams, but statistically compatible
        assert a.mean != b.mean
        assert abs(a.mean - b.mean) < 5 * math.hypot(a.std_error, b.std_error)

    def test_json_fields(self):
        rep = monte_carlo_mi(ChannelDims(2, 3), 0.5, 1000, seed=9, workers=2)
        obj = json.loads(rep.to_json())
        assert obj["m"] == 2 and obj["n"] == 3
        assert obj["samples"] == 1000
        assert obj["seed"] == 9
        assert obj["worker_count"] == 2

    def test_validation(self):
        d = ChannelDims(2, 2)
        with pytest.raises(ValueError):
            monte_carlo_mi(d, 1.0, 50)
        with pytest.raises(ValueError):
            monte_carlo_mi(d, 0.0, 1000)
        with pytest.raises(ValueError):
            monte_carlo_mi(d, 1.0, 1000, workers=0)
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                monte_carlo_mi(d, t, 1000)

    def test_unit_variance_entries(self):
        # at huge t, ln det(I + H H*/t) ~ tr(H H*)/t, so t * mean estimates
        # E tr(H H*) = m n and checks the Box-Muller variance convention
        t = 1e9
        rep = monte_carlo_mi(ChannelDims(2, 3), t, 200_000, seed=123)
        assert t * rep.mean == pytest.approx(6.0, abs=0.05)


class TestLemma1:
    def test_k0_t1(self):
        lhs, rhs = lemma1_check(0, 1.0)
        assert rhs == pytest.approx(0.21938393439552026, rel=1e-13)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_k3_t_half(self):
        lhs, rhs = lemma1_check(3, 0.5)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-10

    def test_k0_t_e(self):
        lhs, rhs = lemma1_check(0, math.e)
        expected = math.exp(-math.e) + quad(
            lambda x: math.exp(-x) / x, math.e, np.inf
        )[0]
        assert rhs == pytest.approx(expected, rel=1e-10)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_grid(self, t):
        for k in range(13):
            lhs, rhs = lemma1_check(k, t)
            assert abs(lhs - rhs) / abs(rhs) <= 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            lemma1_check(25, 1.0)
        with pytest.raises(ValueError):
            lemma1_check(1, 0.0)


class TestAPQCheck:
    def test_trivial_1x1(self):
        integral, expansion = a_pq_check(0, 0, ChannelDims(1, 1), 1.0)
        assert integral == pytest.approx(MI_1X1_T1, rel=1e-10)
        assert expansion == pytest.approx(integral, rel=1e-10)

    def test_mixed_2x3(self):
        integral, expansion = a_pq_check(0, 1, ChannelDims(2, 3), 1.0)
        assert abs(integral - expansion) <= 1e-9 * abs(integral)

    def test_top_degree_2x2(self):
        integral, expansion = a_pq_check(1, 1, ChannelDims(2, 2), 2.0)
        assert abs(integral - expansion) <= 1e-9 * abs(integral)

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            a_pq_check(3, 0, ChannelDims(2, 2), 1.0)


class TestLnTIdentity:
    @pytest.mark.parametrize(
        "m,n,t,tol",
        [(2, 2, 1.0, 1e-10), (3, 5, 0.3, 1e-9), (1, 1, 7.0, 1e-10)],
    )
    def test_examples(self, m, n, t, tol):
        val = lnt_identity_check(ChannelDims(m, n), t)
        assert val == pytest.approx(m, rel=tol)

    def test_grid(self):
        for m in range(1, 5):
            for n in range(m, 9):
                for t in (0.3, 1.0, 3.0):
                    val = lnt_identity_check(ChannelDims(m, n), t)
                    assert abs(val - m) / m <= 1e-9
