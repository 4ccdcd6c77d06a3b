import math
import random

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from mimo_mi import (
    ei_exp_scaled,
    exp_integral_ei_neg,
    laguerre_eval,
    upper_gamma_int,
)

_XS = (0.0, 0.5, 1.0, 3.0, 7.25)


class TestLaguerreCoeffs:
    """The coefficients of L_k^(alpha), seen through laguerre_eval."""

    def test_degree_zero_is_one(self):
        for x in _XS:
            assert laguerre_eval(0, 3, x) == 1.0

    def test_k1_alpha3(self):
        # C(4,1) - x
        for x in _XS:
            assert laguerre_eval(1, 3, x) == 4.0 - x

    def test_k2_alpha0(self):
        for x in _XS:
            assert laguerre_eval(2, 0, x) == pytest.approx(1 - 2 * x + x * x / 2, rel=1e-15)

    @pytest.mark.parametrize("k,alpha", [(3, 0), (5, 2), (10, 4), (15, 1)])
    def test_degree_and_leading_coeff(self, k, alpha):
        # The k-th forward difference of a degree-k polynomial with unit
        # steps is k! times its leading coefficient (-1)^k / k!, and the
        # (k+1)-th is zero.
        def diff(order):
            return math.fsum(
                (-1) ** (order - i) * math.comb(order, i) * laguerre_eval(k, alpha, float(i))
                for i in range(order + 1)
            )

        assert diff(k) == pytest.approx((-1) ** k, rel=1e-8)
        assert abs(diff(k + 1)) <= 1e-8

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            laguerre_eval(-1, 0, 1.0)
        with pytest.raises(ValueError):
            laguerre_eval(2, -1, 1.0)


class TestLaguerreEval:
    def test_trivial(self):
        assert laguerre_eval(0, 0, 7.3) == 1.0

    def test_root_of_linear(self):
        assert laguerre_eval(1, 3, 4.0) == pytest.approx(0.0, abs=1e-14)

    def test_degree_two(self):
        assert laguerre_eval(2, 0, 2.0) == pytest.approx(-1.0, rel=1e-14)

    @pytest.mark.parametrize("k", range(11))
    @pytest.mark.parametrize("alpha", [0, 1, 3])
    def test_matches_exact_coefficients(self, k, alpha):
        rng = np.random.default_rng(1234 + k + 100 * alpha)
        with mpmath.workdps(50):
            for x in rng.uniform(0.0, 50.0, size=20):
                exact = float(mpmath.laguerre(k, alpha, mpmath.mpf(float(x))))
                got = laguerre_eval(k, alpha, float(x))
                assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)


class TestUpperGammaInt:
    def test_s1(self):
        assert upper_gamma_int(1, 1.0) == pytest.approx(math.exp(-1), rel=1e-15)

    def test_s3(self):
        # 2! e^-1 (1 + 1 + 1/2) = 5/e
        assert upper_gamma_int(3, 1.0) == pytest.approx(5 / math.e, rel=1e-14)

    def test_s0_against_quadrature(self):
        # independent oracle: quad of int_1^inf e^-x / x dx
        assert upper_gamma_int(0, 1.0) == pytest.approx(
            0.21938393439552026, rel=1e-13
        )

    @pytest.mark.parametrize("s", range(1, 16))
    @pytest.mark.parametrize("t", [0.25, 1.0, 5.0])
    def test_recurrence(self, s, t):
        lhs = upper_gamma_int(s + 1, t)
        rhs = s * upper_gamma_int(s, t) + t**s * math.exp(-t)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            upper_gamma_int(1, 0.0)
        with pytest.raises(ValueError):
            upper_gamma_int(1, -2.0)
        for s in (0, 2):
            for t in (math.nan, math.inf):
                with pytest.raises(ValueError, match="need finite t > 0"):
                    upper_gamma_int(s, t)


class TestExpIntegral:
    def test_matches_neg_gamma0_bitwise(self):
        for t in (0.3, 1.0, 4.0, 8.0, 9.0, 50.0):
            assert exp_integral_ei_neg(t) == -upper_gamma_int(0, t)

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 3.0, 7.9, 8.1, 10.0, 30.0])
    def test_against_defining_integral(self, t):
        oracle, err = quad(
            lambda s: math.exp(-s) / s, t, np.inf, epsabs=1e-300, epsrel=1e-13
        )
        assert exp_integral_ei_neg(t) == pytest.approx(-oracle, rel=1e-12)

    def test_known_values(self):
        assert exp_integral_ei_neg(1.0) == pytest.approx(
            -0.21938393439552026, rel=1e-14
        )
        assert exp_integral_ei_neg(10.0) == pytest.approx(
            -4.156968929685324e-06, rel=1e-13
        )

    @pytest.mark.parametrize("t", [20.0, 100.0, 500.0])
    def test_large_t_bracketing(self, t):
        val = -exp_integral_ei_neg(t)
        assert math.exp(-t) / (t + 1) < val < math.exp(-t) / t

    def test_scaled_variant(self):
        for t in (0.5, 8.0, 50.0, 1000.0):
            expected = exp_integral_ei_neg(t) * math.exp(t) if t < 700 else None
            got = ei_exp_scaled(t)
            assert got < 0
            if expected is not None:
                assert got == pytest.approx(expected, rel=1e-12)

    def test_correctly_rounded_below_cutoff(self):
        rng = random.Random("ei/60-digit")
        ts = [10.0 ** rng.uniform(-9.0, math.log10(8.0)) for _ in range(400)] + [8.0]
        with mpmath.workdps(60):
            for t in ts:
                e1 = mpmath.e1(mpmath.mpf(t))
                assert exp_integral_ei_neg(t) == float(-e1), t
                assert ei_exp_scaled(t) == float(-mpmath.exp(mpmath.mpf(t)) * e1), t

    def test_domain_error(self):
        with pytest.raises(ValueError):
            exp_integral_ei_neg(0.0)
        with pytest.raises(ValueError):
            ei_exp_scaled(-1.0)
        for t in (math.nan, math.inf):
            for f in (exp_integral_ei_neg, ei_exp_scaled):
                with pytest.raises(ValueError, match="finite"):
                    f(t)


class TestIdentities:
    @pytest.mark.parametrize("alpha", [0, 1, 2, 4])
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_orthogonality(self, alpha):
        for k in range(7):
            for l in range(k, 7):
                val, _ = quad(
                    lambda x: x**alpha
                    * math.exp(-x)
                    * laguerre_eval(k, alpha, x)
                    * laguerre_eval(l, alpha, x),
                    0,
                    150.0,
                    epsabs=1e-11,
                    epsrel=1e-11,
                )
                norm = math.factorial(alpha + k) / math.factorial(k)
                if k == l:
                    assert val == pytest.approx(norm, rel=1e-9)
                else:
                    assert abs(val) <= 1e-9 * norm

    @pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("N", range(9))
    def test_binomial_gamma_summation(self, N, t):
        lhs = math.fsum(
            math.comb(N, k) * (-t) ** (-k) * upper_gamma_int(k + 1, t)
            for k in range(N + 1)
        )
        rhs = (-1 / t) ** N * math.factorial(N) * math.exp(-t)
        assert lhs == pytest.approx(rhs, rel=1e-11)

