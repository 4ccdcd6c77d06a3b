import hashlib
import inspect
import json
import math
import os
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from mimo_mi import oracles, special_functions, verification
from mimo_mi import (
    ChannelDims,
    ConvergenceError,
    build_table,
    coeff_c,
    density_moment,
    evaluate_closed_form,
    monte_carlo_mi,
    one_point_density,
    telatar_quadrature,
)
from test_evaluator import _assert_pinned, _cli_output, _reference

MI_2X2_T1 = 1.789042086969582
MI_1X1_T1 = 0.596347362323194  # e * Gamma(0,1), quadrature-derived
# The density oracle and the float64 form verification checks it against.
_DENSITY_FORMS = {
    "sum_form": one_point_density,
    "two_term_form": verification._two_term_density,
}


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

    @pytest.mark.parametrize("form", list(_DENSITY_FORMS))
    def test_nan_errors_and_inf_is_zero(self, form):
        density = _DENSITY_FORMS[form]
        for m, n in ((1, 1), (2, 5), (4, 4)):
            with pytest.raises(ValueError, match="need lambda >= 0, got nan"):
                density(ChannelDims(m, n), math.nan)
            assert density(ChannelDims(m, n), math.inf) == 0.0
            assert density(ChannelDims(m, n), 1e300) == 0.0

    def test_matches_gamma_density_at_1xn(self):
        # at m = 1 the density is e^-lam lam^alpha / alpha!, whose log has
        # terms of size ~lam: summed in float64 they cost ~lam ulps
        worst = 0.0
        with mpmath.workdps(40):
            for alpha in (0, 3, 7, 40):
                for lam in (0.5, 5.0, 50.0, 300.0, 600.0):
                    ref = mpmath.exp(-lam) * mpmath.mpf(lam) ** alpha
                    ref /= mpmath.factorial(alpha)
                    got = one_point_density(ChannelDims(1, 1 + alpha), lam)
                    worst = max(worst, float(abs(got - ref) / ref))
        assert worst <= 5e-16

    @pytest.mark.parametrize("form", list(_DENSITY_FORMS))
    def test_zero_where_alpha_is_positive(self, form):
        assert _DENSITY_FORMS[form](ChannelDims(2, 4), 0.0) == 0.0

    def test_large_table(self):
        # the float64 root weight underflowed to 0 above lam ~ 1,490, inside
        # the spectrum (edge (sqrt m + sqrt n)^2 = 2,400), and the moments
        # raised ConvergenceError
        d = ChannelDims(600, 600)
        assert density_moment(d, 0) == pytest.approx(1.0, abs=1e-10)
        assert density_moment(d, 1) / 600 == pytest.approx(1.0, abs=1e-10)
        assert one_point_density(d, 1500.0) > 0

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 4), (3, 3), (5, 9)])
    def test_moments(self, m, n):
        d = ChannelDims(m, n)
        assert density_moment(d, 0) == pytest.approx(1.0, abs=1e-10)
        assert density_moment(d, 1) == pytest.approx(n, rel=1e-8)


class TestQuad:
    """The double-exponential integrator on [a, inf), against exact values
    and scipy's QUADPACK."""

    def test_polynomial_exact(self, monkeypatch):
        # sum c_i x^i e^-x integrates to sum c_i i!; level 0 suffices
        monkeypatch.setattr(oracles, "_MAX_LEVELS", 0)
        coeffs = [Fraction((-1) ** i * (i + 2), i + 1) for i in range(20)]
        exact = sum(c * math.factorial(i) for i, c in enumerate(coeffs))
        val, err = oracles._quad(
            lambda x: np.polynomial.polynomial.polyval(x, [float(c) for c in coeffs])
            * np.exp(-x),
            0.0,
        )
        assert type(val) is float and type(err) is float
        assert val == pytest.approx(float(exact), rel=1e-14)
        assert abs(val - float(exact)) <= err <= 1e-12 * abs(val)

    @pytest.mark.parametrize(
        "t,k",
        [(t, k) for t in (0.25, 1.0, 4.0) for k in (0, 3, 12)]
        + [(0.5, 3), (math.e, 0)],
    )
    def test_log_gamma_integral(self, t, k):
        val, err = oracles._quad(lambda x: x**k * np.exp(-x) * np.log(x), t)
        exact = verification._log_gamma_integral(k, t)
        assert abs(val - exact) <= max(err, 1e-13 * abs(exact))
        assert err <= 1e-11 * abs(exact)
        ref = quad(lambda x: x**k * math.exp(-x) * math.log(x), t, np.inf, epsabs=0)
        assert val == pytest.approx(ref[0], rel=1e-11)

    def test_log_gamma_integral_at_k0(self):
        # int_t^inf e^-x ln x dx = e^-t ln t + E1(t): E1(1) at t = 1
        exact = verification._log_gamma_integral(0, 1.0)
        assert exact == pytest.approx(0.21938393439552026, rel=1e-13)
        e1 = quad(lambda x: math.exp(-x) / x, math.e, np.inf)[0]
        exact = verification._log_gamma_integral(0, math.e)
        assert exact == pytest.approx(math.exp(-math.e) + e1, rel=1e-10)

    @pytest.mark.parametrize(
        "f,exact",
        [
            (lambda x: np.exp(-x) / np.sqrt(x), math.sqrt(math.pi)),
            (lambda x: np.log(x) * np.exp(-x), -np.euler_gamma),
        ],
        ids=["inv_sqrt", "log"],
    )
    def test_err_estimate_covers_error_within_tolerance(self, f, exact):
        # integrable singularities at a converge, and the estimate covers
        # the actual error (roundoff included) within the tolerance
        val, err = oracles._quad(f, 0.0, rel_tol=1e-12)
        roundoff = oracles._ROUNDOFF_ULPS * np.finfo(float).eps * abs(exact)
        assert abs(val - exact) <= 1e-13 * abs(exact)
        assert abs(val - exact) <= err <= 1e-12 * abs(exact) + roundoff

    def test_interior_kink_is_a_convergence_error(self):
        # the rule converges only algebraically across a kink inside
        # (a, inf): an error, not a wrong value
        with pytest.raises(ConvergenceError, match="needs more than 6 levels"):
            oracles._quad(lambda x: np.sqrt(np.abs(x - 1 / 3)) * np.exp(-x), 0.0)

    def test_exact_zero_meets_abs_tol(self):
        val, err = oracles._quad(
            lambda x: x**2
            * np.exp(-x)
            * verification._laguerre(2, 2, x)
            * verification._laguerre(5, 2, x),
            0.0,
            abs_tol=1e-12,
        )
        assert abs(val) <= err <= 1e-12

    def test_too_few_subdivisions(self, monkeypatch):
        # e^-x cos(20 x) needs four levels after level 0
        def f(x):
            return np.exp(-x) * np.cos(20 * x)

        val, _ = oracles._quad(f, 0.0)
        assert val == pytest.approx(1 / 401, rel=1e-13)
        monkeypatch.setattr(oracles, "_MAX_LEVELS", 3)
        with pytest.raises(ConvergenceError, match="needs more than 3 levels"):
            oracles._quad(f, 0.0)

    @pytest.mark.parametrize("decay", [300.0, 1e4])
    def test_fixed_range_ends_must_be_negligible(self, decay):
        # the range is u in [-5, 7] whatever f is: e^-x/300 and e^-x/1e4
        # are far from negligible at u = 7 (x = 1096)
        with pytest.raises(ConvergenceError, match="not negligible at u = -5.0 or 7.0"):
            oracles._quad(lambda x: np.exp(-x / decay), 0.0)

    def test_non_finite_integrand(self):
        with pytest.raises(ConvergenceError, match="not finite"):
            oracles._quad(lambda x: np.where(x > 0.5, np.inf, x), 0.0)
        with pytest.raises(ConvergenceError, match="not finite"):
            oracles._quad(lambda x: np.full_like(x, np.nan), 0.0)

    def test_subnormal_t_agrees_with_closed_form(self):
        # lam / t overflows at the nodes, where ln(1 + lam/t) is taken as
        # ln lam - ln t, with no numpy warning (pytest turns warnings into
        # errors); ln(1 + lam/t) was inf there, a ConvergenceError
        for m, n in ((1, 1), (2, 2), (4, 6)):
            d = ChannelDims(m, n)
            table = build_table(d)
            for t in (1e-300, 1e-310, 1e-320, 5e-324):
                exact = evaluate_closed_form(table, t).value
                assert telatar_quadrature(d, t).value == pytest.approx(exact, rel=2e-16)
        assert telatar_quadrature(ChannelDims(2, 2), 5e-324).value == 1488.7257125129595

    def test_kernel_finite_where_weight_underflows(self):
        lam = np.array([1e-300, 1.0, 1e3, 1e6, 1e300])
        for m, alpha in ((1, 0), (16, 16), (64, 64)):
            got = oracles._weighted_kernel(m, alpha, lam)
            assert np.all(np.isfinite(got)) and np.all(got >= 0)
            assert got[-2:].tolist() == [0.0, 0.0]

    def test_kernel_at_zero(self):
        # log(0) in the weight: finite, and no numpy warning (pytest turns
        # warnings into errors)
        for m, alpha in ((1, 0), (3, 0), (3, 2), (16, 16)):
            got = oracles._weighted_kernel(m, alpha, np.array([0.0, 1.0]))
            assert np.all(np.isfinite(got))
            assert (got[0] > 0) == (alpha == 0)


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
            ref = _reference(table, t, dps=200)
            assert abs(mpmath.mpf(r.value) - ref) <= r.err_estimate, (t, r)
            assert r.err_estimate <= 1e-8 * abs(r.value), (t, r)

    def test_worst_error_over_small_dims(self):
        # every m <= n <= 8 at t = 0.1 ... 10 in eighths of a decade
        worst = 0.0
        with mpmath.workdps(50):
            for m in range(1, 9):
                for n in range(m, 9):
                    dims = ChannelDims(m, n)
                    table = build_table(dims)
                    for k in range(17):
                        t = 0.1 * 10 ** (k / 8)
                        ref = _reference(table, t, dps=200)
                        err = abs(telatar_quadrature(dims, t).value - ref) / ref
                        worst = max(worst, float(err))
        assert worst <= 5e-16

    @pytest.mark.parametrize("n", [2000, 4927])
    @pytest.mark.parametrize("t", [1e-3, 1.0, 100.0])
    def test_mass_far_from_zero(self, n, t):
        # at 1xn the density is Gamma(n), whose mass lies near lam = n, far
        # beyond lam = 1096 where the unscaled u range would end.  The
        # reference is E[I] = e^t sum_{k=1}^n E_k(t), with E_(k+1)(t) =
        # (e^-t - t E_k(t)) / k, stable for k > t.
        r = telatar_quadrature(ChannelDims(1, n), t)
        with mpmath.workdps(40):
            mt = mpmath.mpf(t)
            ek = total = mpmath.e1(mt)
            for k in range(1, n):
                ek = (mpmath.exp(-mt) - mt * ek) / k
                total += ek
            err = abs(r.value - mpmath.exp(mt) * total)
            assert err <= r.err_estimate <= 1e-11 * r.value
            assert err <= 1e-15 * r.value

    @pytest.mark.parametrize("m,n", [(360, 360), (600, 600)])
    def test_large_tables(self, m, n):
        # the quadrature failed from 355x355 up, where the float64 root
        # weight underflowed inside the spectrum
        dims = ChannelDims(m, n)
        table = build_table(dims)
        for t in (1e-3, 1.0, 1e3, 1e6):
            exact = evaluate_closed_form(table, t)
            r = telatar_quadrature(dims, t)
            assert abs(r.value - exact.value) <= r.err_estimate + exact.err_estimate, t

    @pytest.mark.parametrize("m,n", [(1145, 1145), (800, 1600)])
    def test_large_tables_at_large_t(self, m, n):
        # mn/t - mn(m+n)/(2t^2) <= E[I] <= mn/t, from ln(1 + x) <= x and
        # E[tr (H H*)^2] = mn(m+n): no table needed
        t, mn = 1e9, m * n
        value = telatar_quadrature(ChannelDims(m, n), t).value
        assert mn / t - mn * (m + n) / (2 * t * t) <= value <= mn / t

    def test_one_integral_per_call(self, monkeypatch):
        calls = []
        real = oracles._quad

        def counting(f, a, *args):
            calls.append(a)
            return real(f, a, *args)

        monkeypatch.setattr(oracles, "_quad", counting)
        telatar_quadrature(ChannelDims(8, 12), 1.0)
        assert calls == [0.0]


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

    def test_dims_beyond_build_table_refused_first(self, monkeypatch):
        # past build_table's cap the rule stepped over the narrow density (the
        # 1x100000 norm was 1.8e-27), and the root weight took n - m long doubles
        monkeypatch.setattr(oracles, "_quad", lambda *a, **k: pytest.fail("_quad ran"))
        tracemalloc.start()
        try:
            for call in (
                lambda: telatar_quadrature(ChannelDims(1, 4928), 1.0),
                lambda: density_moment(ChannelDims(1, 100000), 0),
                lambda: one_point_density(ChannelDims(1, 10**12), 1.0),
            ):
                with pytest.raises(ValueError, match="table is too large to build"):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    @pytest.mark.parametrize(
        "m,n,t",
        [(2, 2, 1e12), (4, 6, 1e14), (4, 6, 1e16), (2, 2, 1e200), (1, 1, 1e307)],
    )
    def test_relative_accuracy_at_large_t(self, m, n, t):
        # with a fixed abs_tol of 1e-13, 2x2 at t = 1e12 was 1.4e-4 off
        # and 4x6 at t = 1e14 6.2% off, as E[I] ~ mn/t fell below it
        d = ChannelDims(m, n)
        exact = evaluate_closed_form(build_table(d), t).value
        r = telatar_quadrature(d, t)
        assert r.value == pytest.approx(exact, rel=1e-8)
        assert r.err_estimate < 1e-6 * r.value


# The oracle documents tests/data/oracle_sha256.json pins, by key: the
# quadrature oracle's `eval --quadrature` JSON over the small-dims grid
# of test_worst_error_over_small_dims and at three bench-sized tables,
# and the reprs of both density forms (the two-term one is verification's)
# and the first two moments.
_FROZEN_QUAD_TS = tuple(repr(0.1 * 10 ** (k / 8)) for k in range(17))
_FROZEN_DENSITY_LAMS = (0.0, 0.01, 1.0, 5.0, 50.0)


def _oracle_documents() -> dict:
    """key: document text, for every document the golden file pins."""
    docs = {}
    quad_points = [((m, n), _FROZEN_QUAD_TS) for m in range(1, 9) for n in range(m, 9)]
    quad_points += [(d, ("1e-3", "1", "1e3")) for d in ((12, 24), (16, 32), (1, 2000))]
    for (m, n), ts in quad_points:
        docs[f"eval --quadrature {m}x{n}"] = _cli_output(
            "eval", "-m", str(m), "-n", str(n), "--quadrature", "--t", *ts,
            "--format", "json",
        )
    for m in range(1, 6):
        for n in range(m, 6):
            d = ChannelDims(m, n)
            lines = [
                f"{form} {lam!r} {density(d, lam)!r}\n"
                for form, density in _DENSITY_FORMS.items()
                for lam in _FROZEN_DENSITY_LAMS
            ]
            lines += [f"moment {p} {density_moment(d, p)!r}\n" for p in (0, 1)]
            docs[f"density {m}x{n}"] = "".join(lines)
    return docs


class TestFrozenOracles:
    """Every byte of the oracle documents above is pinned by its SHA-256,
    so a change to how the density or its quadrature is computed must
    keep each value and err_estimate exact."""

    def test_documents_unchanged(self):
        _assert_pinned("oracle_sha256.json", _oracle_documents())


def _mc_documents() -> dict:
    """key: `mc --format json` text, for every report mc_sha256.json pins."""
    return {
        f"mc {m}x{n} t={t} workers={w}": _cli_output(
            "mc", "-m", str(m), "-n", str(n), "--t", t, "--samples", "3000",
            "--seed", "7", "--workers", str(w), "--format", "json",
        )
        for m, n in ((1, 1), (1, 2), (1, 4), (2, 2), (2, 3), (2, 4))
        for t in ("0.1", "1", "10", "1e6")
        for w in (1, 3)
    }


class TestFrozenMonteCarlo:
    """Every byte of the m <= 2 Monte Carlo reports above is pinned by its
    SHA-256: a change to how a block is drawn or reduced must keep their
    gamma draws in the same stream order and their reduction exact."""

    def test_documents_unchanged(self):
        path = os.path.join(os.path.dirname(__file__), "data", "mc_sha256.json")
        with open(path) as fh:
            frozen = json.load(fh)
        docs = _mc_documents()
        assert sorted(frozen) == sorted(docs)
        for key, text in docs.items():
            assert hashlib.sha256(text.encode()).hexdigest() == frozen[key], text


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
        # ln det(I + H H*/t) overflows a float: no report, and no numpy warning
        with pytest.raises(ValueError, match="mean=inf"):
            monte_carlo_mi(d, 1e-320, 1000)
        for kwargs, name in (
            ({"samples": 1000.0}, "samples"),
            ({"workers": 2.0}, "workers"),
            ({"seed": 1.5}, "seed"),
            ({"seed": "1"}, "seed"),
        ):
            with pytest.raises(TypeError, match=f"{name} must be an integer"):
                monte_carlo_mi(d, 1.0, **{"samples": 1000, **kwargs})

    def test_numpy_integer_counts_are_stored_as_int(self):
        rep = monte_carlo_mi(
            ChannelDims(2, 2), 1.0, np.int64(1000), seed=np.uint64(7), workers=np.int32(2)
        )
        assert rep == monte_carlo_mi(ChannelDims(2, 2), 1.0, 1000, seed=7, workers=2)
        assert [type(x) for x in (rep.samples, rep.seed, rep.worker_count)] == [int] * 3
        assert json.loads(rep.to_json())["samples"] == 1000

    def test_golden_report(self):
        # pins the PCG64DXSM streams: a change of stream must be deliberate
        rep = monte_carlo_mi(ChannelDims(2, 2), 1.0, 10_000, seed=42, workers=4)
        assert (rep.mean, rep.std_error) == (1.785188390008108, 0.0055079406637351756)

    def test_golden_report_4x4(self):
        # the streams at m >= 3 changed when blocks began to draw B row by
        # row (d2_i, then s2_i) into its pivot recurrence, where they had
        # drawn every d2_i and then every s2_i; m <= 2 kept its order
        rep = monte_carlo_mi(ChannelDims(4, 4), 1.0, 10_000, seed=42, workers=4)
        assert (rep.mean, rep.std_error) == (5.095131049397985, 0.00688444550452365)

    def test_std_error_scales_with_t(self):
        # ln det(I + H H*/t) ~ tr(H H*)/t: unscaled, its squared deviations
        # underflow past t ~ 1e154 and std_error came out 0.0 at 1e170
        ref = monte_carlo_mi(ChannelDims(2, 2), 1e100, 10_000, seed=8, workers=2)
        rep = monte_carlo_mi(ChannelDims(2, 2), 1e200, 10_000, seed=8, workers=2)
        assert 1e200 * rep.std_error == pytest.approx(1e100 * ref.std_error, rel=1e-6)
        assert 1e200 * rep.mean == pytest.approx(1e100 * ref.mean, rel=1e-6)

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
        cap = oracles._MC_MAX_WORKERS
        rep = monte_carlo_mi(ChannelDims(2, 2), 1.0, 2 * cap, seed=3, workers=cap)
        assert _SerialPool.sizes == [2]
        assert rep.worker_count == cap and rep.samples == 2 * cap
        assert abs(rep.mean - MI_2X2_T1) <= 4 * rep.std_error

    def test_unknown_cpu_count_means_one_thread(self, monkeypatch):
        monkeypatch.setattr(_SerialPool, "sizes", [])
        monkeypatch.setattr(oracles, "ThreadPoolExecutor", _SerialPool)
        monkeypatch.setattr(oracles.os, "cpu_count", lambda: None)
        monte_carlo_mi(ChannelDims(2, 2), 1.0, 1000, seed=3, workers=8)
        assert _SerialPool.sizes == [1]

    def test_worker_cap_rejected_before_any_chunk(self, monkeypatch):
        class NoPool:
            def __init__(self, max_workers):
                raise AssertionError("pool built before validation")

        monkeypatch.setattr(oracles, "ThreadPoolExecutor", NoPool)
        cap = oracles._MC_MAX_WORKERS
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"need workers <= {cap}, got {10**6}"):
                monte_carlo_mi(ChannelDims(2, 2), 1.0, 10**6, workers=10**6)
            # a 10^6-entry chunk list alone would take 8 MB
            assert tracemalloc.get_traced_memory()[1] < 10**6
        finally:
            tracemalloc.stop()
        with pytest.raises(ValueError, match=f"need workers <= {cap}"):
            monte_carlo_mi(ChannelDims(2, 2), 1.0, 4 * cap, workers=cap + 1)

    @pytest.mark.parametrize(
        "m,samples",
        # 3e20 draws at 2x2, and 2e11 at m = 10^9, whose first block alone
        # would take 8 GB
        [(2, 99999999999999999999), (10**9, 100), (4, 10**10 // 7 + 1)],
    )
    def test_draw_cap_rejected_before_any_chunk(self, monkeypatch, m, samples):
        def no_chunk(*args):
            raise AssertionError("sampled before validation")

        monkeypatch.setattr(oracles, "_mc_chunk", no_chunk)
        draws = samples * (2 * m - 1)
        with pytest.raises(ValueError, match=f"take {draws} gamma draws"):
            monte_carlo_mi(ChannelDims(m, m), 1.0, samples)

    def test_draw_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(oracles, "_mc_chunk", lambda *args: (args[2], 1.0, 1.0))
        cap = oracles._MC_MAX_DRAWS
        rep = monte_carlo_mi(ChannelDims(3, 3), 1.0, cap // 5, workers=2)
        assert rep.samples * 5 == cap

    @pytest.mark.parametrize(
        "m,samples,workers,steps",
        # 8.0e9 draws, but 1,000 one-sample blocks of 4 x 10^6 row steps;
        # 50,001 row steps in each of 1,000 blocks
        [(4 * 10**6, 1000, 1000, 4 * 10**9), (50_001, 1001, 1000, 50_001_000)],
    )
    def test_row_step_cap_rejected_before_any_chunk(
        self, monkeypatch, m, samples, workers, steps
    ):
        def no_chunk(*args):
            raise AssertionError("sampled before validation")

        monkeypatch.setattr(oracles, "_mc_chunk", no_chunk)
        with pytest.raises(ValueError, match=f"take {steps} row steps"):
            monte_carlo_mi(ChannelDims(m, m), 1.0, samples, workers=workers)

    def test_row_step_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(oracles, "_mc_chunk", lambda *args: (args[2], 1.0, 1.0))
        cap = oracles._MC_MAX_ROW_STEPS
        # 1,000 chunks of one block each: 1,000 m row steps
        m = cap // 1000
        rep = monte_carlo_mi(ChannelDims(m, m), 1.0, 1000, workers=1000)
        assert rep.samples * m == cap

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
            got = oracles._log_det_bidiagonal(zip(d2, [None, *s2]), t)
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

        def recording(rows, t):
            blocks.append(log_det(rows, t))
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

    def test_chunk_memory_bounded_whatever_m(self):
        # a block draws B row by row into two _MC_BLOCK buffers, so its
        # memory does not grow with m; whole blocks of 2m - 1 rows of
        # draws would take 64 KiB per row, 512 MiB at m = 4096
        oracles._mc_chunk(ChannelDims(2, 2), 1.0, 1000, 1, 0)  # warm numpy up
        peaks = []
        for m in (2, 4096):
            tracemalloc.start()
            try:
                oracles._mc_chunk(ChannelDims(m, m), 1.0, oracles._MC_BLOCK, 1, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_block_is_full_size_whatever_m(self, monkeypatch):
        sizes = []
        log_det = oracles._log_det_bidiagonal

        def recording(rows, t):
            mi = log_det(rows, t)
            sizes.append(len(mi))
            return mi

        monkeypatch.setattr(oracles, "_log_det_bidiagonal", recording)
        for m in (128, 129, 4096):
            sizes.clear()
            oracles._mc_chunk(ChannelDims(m, m), 1.0, oracles._MC_BLOCK + 5, 1, 0)
            assert sizes == [oracles._MC_BLOCK, 5], m
            sizes.clear()
            oracles._mc_chunk(ChannelDims(m, m), 1.0, 100, 1, 0)
            assert sizes == [100], m

    @pytest.mark.parametrize("m,n", [(3, 3), (5, 7)])
    def test_rows_drawn_in_order(self, m, n):
        # one sample: for each row i, d2_i ~ Gamma(n - i), then for i >= 1
        # s2_i ~ Gamma(m - i), from chunk 0's stream
        seed = 31
        stream = np.random.SeedSequence(seed, spawn_key=(0,))
        gen = np.random.Generator(np.random.PCG64DXSM(stream))
        b = mpmath.zeros(m)
        with mpmath.workdps(50):
            for i in range(m):
                b[i, i] = mpmath.sqrt(gen.standard_gamma(n - i))
                if i:
                    b[i, i - 1] = mpmath.sqrt(gen.standard_gamma(m - i))
            ref = mpmath.log(mpmath.det(mpmath.eye(m) + b * b.T))
        count, mean, m2 = oracles._mc_chunk(ChannelDims(m, n), 1.0, 1, seed, 0)
        assert (count, m2) == (1, 0.0)
        assert abs(mean - ref) <= 1e-14 * abs(ref)

    def test_request_memory(self):
        # each of the two chunks holds one pair of 8,192-sample buffers
        # (448 KiB at 4x4) and a few 64 KiB recurrence vectors at a time,
        # whatever its 28,000 samples
        monte_carlo_mi(ChannelDims(2, 2), 1.0, 1000, seed=1)  # warm numpy up
        tracemalloc.start()
        try:
            monte_carlo_mi(ChannelDims(4, 4), 0.7, 56_000, seed=3, workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 10**6


class TestLnTIdentity:
    @pytest.mark.parametrize(
        "m,n,t,tol",
        [(2, 2, 1.0, 1e-10), (3, 5, 0.3, 1e-9), (1, 1, 7.0, 1e-10)],
    )
    def test_examples(self, m, n, t, tol):
        d = ChannelDims(m, n)
        cs = [(i, coeff_c(i, j, d)) for i in range(2 * m - 1) for j in range(i + 1)]
        assert verification._lnt_value(d, cs, t) == pytest.approx(m, rel=tol)

    def test_check_names_a_perturbed_coefficient(self, monkeypatch):
        # the exact half sums coeff_c itself, not build_table's cached table
        def perturbed(i, j, dims):
            c = coeff_c(i, j, dims)
            return c + Fraction(1, 10**6) if (dims, i, j) == ((3, 5), 2, 1) else c

        monkeypatch.setattr(verification, "coeff_c", perturbed)
        result = verification.check_lnt_identity()
        assert not result.passed and "m=3 n=5" in result.detail


def test_oracles_bind_nothing_of_the_closed_form():
    # the oracles share no code path with the exact-coefficient route
    closed_form = {
        "coeff_c", "build_table", "CoefficientTable", "evaluate_closed_form",
        "_closed_form_rows", "ei_exp_scaled", "upper_gamma_int",
    }
    assert closed_form & vars(oracles).keys() == set()


def test_check_helpers_stay_out_of_the_library():
    # the Laguerre recurrence, Gamma(s, t) and the two-term density serve
    # only verification's checks
    assert "laguerre_eval" not in vars(oracles)
    public = {
        name
        for name, obj in vars(special_functions).items()
        if inspect.isfunction(obj)
        and obj.__module__ == special_functions.__name__
        and not name.startswith("_")
    }
    assert public == {"ei_exp_scaled"}
    assert "form" not in inspect.signature(one_point_density).parameters
