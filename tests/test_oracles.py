import json
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from mimo_mi import oracles
from mimo_mi import (
    ChannelDims,
    ConvergenceError,
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


class TestQuad:
    """The adaptive Gauss-Kronrod integrator, against exact values and
    scipy's QUADPACK."""

    def test_polynomial_exact(self):
        # degree 19 is within the Gauss rule's exactness, so one pass suffices
        coeffs = [Fraction((-1) ** i * (i + 2), i + 1) for i in range(20)]
        exact = sum(c * Fraction(3) ** (i + 1) / (i + 1) for i, c in enumerate(coeffs))
        val, err = oracles._quad(
            lambda x: np.polynomial.polynomial.polyval(x, [float(c) for c in coeffs]),
            0.0,
            3.0,
            QuadratureConfig(max_subdivisions=1),
        )
        assert type(val) is float and type(err) is float
        assert val == pytest.approx(float(exact), rel=1e-14)
        assert abs(val - float(exact)) <= err <= 1e-12 * abs(val)

    @pytest.mark.parametrize("k", [0, 3, 12])
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_log_gamma_integral(self, k, t):
        val, err = oracles._quad(
            lambda x: x**k * np.exp(-x) * np.log(x), t, math.inf, QuadratureConfig()
        )
        exact = oracles._log_gamma_integral(k, t)
        assert abs(val - exact) <= max(err, 1e-13 * abs(exact))
        assert err <= 1e-11 * abs(exact)
        ref = quad(lambda x: x**k * math.exp(-x) * math.log(x), t, np.inf, epsabs=0)
        assert val == pytest.approx(ref[0], rel=1e-11)

    @pytest.mark.parametrize(
        "f,exact",
        [
            (np.sqrt, 2 / 3),
            (lambda x: np.sqrt(np.abs(x - 1 / 3)), 2 / 3 * ((1 / 3) ** 1.5 + (2 / 3) ** 1.5)),
        ],
    )
    def test_err_estimate_covers_error_within_tolerance(self, f, exact):
        # kinks need many subintervals; the estimate must still cover the
        # actual error (roundoff included) and sum to within the tolerance
        cfg = QuadratureConfig()
        val, err = oracles._quad(f, 0.0, 1.0, cfg)
        roundoff = oracles._ROUNDOFF_ULPS * np.finfo(float).eps * exact
        assert abs(val - exact) <= err <= cfg.rel_tol * exact + roundoff

    def test_exact_zero_meets_abs_tol(self):
        cfg = QuadratureConfig(abs_tol=1e-12)
        val, err = oracles._quad(
            lambda x: x**2
            * np.exp(-x)
            * oracles.laguerre_eval(2, 2, x)
            * oracles.laguerre_eval(5, 2, x),
            0.0,
            math.inf,
            cfg,
        )
        assert abs(val) <= err <= cfg.abs_tol

    def test_too_few_subdivisions(self):
        with pytest.raises(ConvergenceError, match="subintervals"):
            oracles._quad(np.sqrt, 0.0, 1.0, QuadratureConfig(max_subdivisions=3))

    def test_non_finite_integrand(self):
        with pytest.raises(ConvergenceError, match="not finite"):
            oracles._quad(
                lambda x: np.where(x > 0.5, np.inf, x), 0.0, 1.0, QuadratureConfig()
            )
        with pytest.raises(ConvergenceError, match="not finite"):
            oracles._quad(lambda x: np.full_like(x, np.nan), 0.0, math.inf, QuadratureConfig())

    def test_kernel_finite_where_weight_underflows(self):
        lam = np.array([1e-300, 1.0, 1e3, 1e6, 1e300])
        for m, alpha in ((1, 0), (16, 16), (64, 64)):
            got = oracles._weighted_kernel(m, alpha, lam, oracles._root_weight(alpha, lam))
            assert np.all(np.isfinite(got)) and np.all(got >= 0)
            assert got[-2:].tolist() == [0.0, 0.0]


def _closed_form_reference(table, t):
    """A(t) - e^t E1(t) B(t) from the exact table at 200 digits."""
    tq = Fraction(t)

    def horner(coeffs):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * tq + c
        return mpmath.mpf(acc.numerator) / acc.denominator

    with mpmath.workdps(200):
        mt = mpmath.mpf(t)
        return horner(table.a) - mpmath.exp(mt) * mpmath.e1(mt) * horner(table.b)


_rng = random.Random(20260418)
_REGRESSION_DIMS = [(1, 1), (12, 24), (16, 32)] + sorted(
    {(m, _rng.randint(m, 32)) for m in _rng.sample(range(2, 17), 5)}
)


class TestTelatarAgainstReference:
    @pytest.mark.parametrize("m,n", _REGRESSION_DIMS)
    def test_within_err_estimate(self, m, n):
        dims = ChannelDims(m, n)
        table = build_table(dims)
        for t in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4):
            r = telatar_quadrature(dims, t)
            ref = _closed_form_reference(table, t)
            assert abs(mpmath.mpf(r.value) - ref) <= r.err_estimate, (t, r)
            assert r.err_estimate <= 1e-8 * abs(r.value), (t, r)

    def test_one_integral_per_call(self, monkeypatch):
        calls = []
        real = oracles._quad

        def counting(*args):
            calls.append(args[1:3])
            return real(*args)

        monkeypatch.setattr(oracles, "_quad", counting)
        telatar_quadrature(ChannelDims(8, 12), 1.0)
        assert calls == [(0.0, math.inf)]


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
        with pytest.raises(ValueError, match="workers <= samples"):
            monte_carlo_mi(d, 1.0, 1000, workers=1001)
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                monte_carlo_mi(d, t, 1000)

    def test_unit_variance_entries(self):
        # at huge t, ln det(I + H H*/t) ~ tr(H H*)/t, so t * mean estimates
        # E tr(H H*) = m n and checks that the bidiagonal model's gamma
        # draws carry the unit entry variance
        t = 1e9
        rep = monte_carlo_mi(ChannelDims(2, 3), t, 200_000, seed=123)
        assert t * rep.mean == pytest.approx(6.0, abs=0.05)


class _SerialPool:
    """Stands in for ThreadPoolExecutor: records the pool size it was
    asked for and runs map in the calling thread."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestMonteCarloWorkers:
    def test_pool_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(_SerialPool, "sizes", [])
        monkeypatch.setattr(oracles, "ThreadPoolExecutor", _SerialPool)
        monkeypatch.setattr(oracles.os, "cpu_count", lambda: 2)
        rep = monte_carlo_mi(ChannelDims(2, 2), 1.0, 2000, seed=3, workers=2000)
        assert _SerialPool.sizes == [2]
        assert rep.worker_count == 2000 and rep.samples == 2000
        assert abs(rep.mean - MI_2X2_T1) <= 4 * rep.std_error

    def test_unknown_cpu_count_means_one_thread(self, monkeypatch):
        monkeypatch.setattr(_SerialPool, "sizes", [])
        monkeypatch.setattr(oracles, "ThreadPoolExecutor", _SerialPool)
        monkeypatch.setattr(oracles.os, "cpu_count", lambda: None)
        monte_carlo_mi(ChannelDims(2, 2), 1.0, 1000, seed=3, workers=8)
        assert _SerialPool.sizes == [1]

    def test_pool_size_does_not_change_report(self, monkeypatch):
        kw = dict(t=1.0, samples=10_000, seed=42, workers=4)
        threaded = monte_carlo_mi(ChannelDims(3, 4), **kw)
        monkeypatch.setattr(oracles, "ThreadPoolExecutor", _SerialPool)
        monkeypatch.setattr(oracles.os, "cpu_count", lambda: 1)
        assert monte_carlo_mi(ChannelDims(3, 4), **kw) == threaded


def _seeded_bidiagonal(m, n, samples, seed):
    gen = np.random.default_rng(seed)
    d2 = gen.standard_gamma(np.arange(n, n - m, -1.0)[:, None], (m, samples))
    s2 = gen.standard_gamma(np.arange(m - 1, 0, -1.0)[:, None], (m - 1, samples))
    return d2, s2


def _dense_mc(dims, t, samples, seed):
    """The dense sampler: complex Gaussian H (unit variance, by Box-Muller)
    and ln det(I + H H*/t) from the Cholesky factor.  Returns (mean,
    standard error)."""
    m, n = dims.m, dims.n
    gen = np.random.Generator(np.random.Philox(key=seed))
    u = gen.random((samples, m, n, 2))
    h = np.sqrt(-np.log1p(-u[..., 0])) * np.exp(2j * np.pi * u[..., 1])
    gram = np.eye(m) + h @ h.conj().swapaxes(-1, -2) / t
    diag = np.diagonal(np.linalg.cholesky(gram), axis1=-2, axis2=-1).real
    mi = 2.0 * np.sum(np.log(diag), axis=-1)
    return float(np.mean(mi)), float(np.std(mi, ddof=1)) / math.sqrt(samples)


class TestBidiagonalSampler:
    @pytest.mark.parametrize("m,n", [(1, 1), (4, 4), (32, 64)])
    def test_recurrence_matches_mpmath_log_det(self, m, n):
        d2, s2 = _seeded_bidiagonal(m, n, 3, seed=1000 * m + n)
        for t in (1e-6, 1.0, 1e6):
            got = oracles._log_det_bidiagonal(d2, s2, t)
            with mpmath.workdps(50):
                for j in range(d2.shape[1]):
                    b = mpmath.zeros(m)
                    for i in range(m):
                        b[i, i] = mpmath.sqrt(d2[i, j])
                    for i in range(1, m):
                        b[i, i - 1] = mpmath.sqrt(s2[i - 1, j])
                    ref = mpmath.log(mpmath.det(mpmath.eye(m) + b * b.T / t))
                    assert abs(got[j] - ref) <= 1e-14 * abs(ref), (t, j)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 5)])
    def test_agrees_with_dense_sampler(self, m, n):
        dims = ChannelDims(m, n)
        dense_mean, dense_se = _dense_mc(dims, 1.0, 50_000, seed=77)
        rep = monte_carlo_mi(dims, 1.0, 50_000, seed=77)
        assert abs(rep.mean - dense_mean) <= 5 * math.hypot(rep.std_error, dense_se)

    def test_32x64_matches_closed_form(self):
        dims = ChannelDims(32, 64)
        exact = evaluate_closed_form(build_table(dims), 1.0)
        assert exact.err_estimate < 1e-10
        rep = monte_carlo_mi(dims, 1.0, 100_000, seed=5)
        assert abs(rep.mean - exact.value) <= 4 * rep.std_error

    def test_blocks_reduce_like_one_pass(self, monkeypatch):
        blocks = []
        log_det = oracles._log_det_bidiagonal

        def recording(d2, s2, t):
            blocks.append(log_det(d2, s2, t))
            return blocks[-1]

        monkeypatch.setattr(oracles, "_MC_BLOCK", 100)
        monkeypatch.setattr(oracles, "_log_det_bidiagonal", recording)
        count, mean, m2 = oracles._mc_chunk(ChannelDims(2, 3), 1.0, 250, 9, 0)
        assert [len(b) for b in blocks] == [100, 100, 50]
        mi = np.concatenate(blocks)
        assert count == 250
        assert mean == pytest.approx(np.mean(mi), rel=1e-14)
        assert m2 == pytest.approx(np.sum((mi - np.mean(mi)) ** 2), rel=1e-12)

    def test_chunk_memory_bounded_by_block(self):
        dims = ChannelDims(2, 2)
        oracles._mc_chunk(dims, 1.0, 1000, 1, 0)  # warm numpy up
        peaks = []
        for count in (oracles._MC_BLOCK, 8 * oracles._MC_BLOCK):
            tracemalloc.start()
            try:
                oracles._mc_chunk(dims, 1.0, count, 1, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


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
