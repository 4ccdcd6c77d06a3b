import collections
import math
import random

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from mimo_mi import ei_exp_scaled, special_functions
from mimo_mi.verification import _laguerre, _upper_gamma

_XS = (0.0, 0.5, 1.0, 3.0, 7.25)


class TestLaguerreCoeffs:
    """The coefficients of L_k^(alpha), seen through _laguerre."""

    def test_degree_zero_is_one(self):
        for x in _XS:
            assert _laguerre(0, 3, x) == 1.0

    def test_k1_alpha3(self):
        # C(4,1) - x
        for x in _XS:
            assert _laguerre(1, 3, x) == 4.0 - x

    def test_k2_alpha0(self):
        for x in _XS:
            assert _laguerre(2, 0, x) == pytest.approx(1 - 2 * x + x * x / 2, rel=1e-15)

    @pytest.mark.parametrize("k,alpha", [(3, 0), (5, 2), (10, 4), (15, 1)])
    def test_degree_and_leading_coeff(self, k, alpha):
        # The k-th forward difference of a degree-k polynomial with unit
        # steps is k! times its leading coefficient (-1)^k / k!, and the
        # (k+1)-th is zero.
        def diff(order):
            return math.fsum(
                (-1) ** (order - i) * math.comb(order, i) * _laguerre(k, alpha, float(i))
                for i in range(order + 1)
            )

        assert diff(k) == pytest.approx((-1) ** k, rel=1e-8)
        assert abs(diff(k + 1)) <= 1e-8

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            _laguerre(-1, 0, 1.0)
        with pytest.raises(ValueError):
            _laguerre(2, -1, 1.0)


class TestLaguerreEval:
    def test_trivial(self):
        assert _laguerre(0, 0, 7.3) == 1.0

    def test_root_of_linear(self):
        assert _laguerre(1, 3, 4.0) == pytest.approx(0.0, abs=1e-14)

    def test_degree_two(self):
        assert _laguerre(2, 0, 2.0) == pytest.approx(-1.0, rel=1e-14)

    @pytest.mark.parametrize("k", range(11))
    @pytest.mark.parametrize("alpha", [0, 1, 3])
    def test_matches_exact_coefficients(self, k, alpha):
        rng = np.random.default_rng(1234 + k + 100 * alpha)
        with mpmath.workdps(50):
            for x in rng.uniform(0.0, 50.0, size=20):
                exact = float(mpmath.laguerre(k, alpha, mpmath.mpf(float(x))))
                got = _laguerre(k, alpha, float(x))
                assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)


class TestUpperGammaInt:
    def test_s1(self):
        assert _upper_gamma(1, 1.0) == pytest.approx(math.exp(-1), rel=1e-15)

    def test_s3(self):
        # 2! e^-1 (1 + 1 + 1/2) = 5/e
        assert _upper_gamma(3, 1.0) == pytest.approx(5 / math.e, rel=1e-14)

    def test_s0_against_quadrature(self):
        # independent oracle: quad of int_1^inf e^-x / x dx
        assert _upper_gamma(0, 1.0) == pytest.approx(
            0.21938393439552026, rel=1e-13
        )

    @pytest.mark.parametrize("s", range(1, 16))
    @pytest.mark.parametrize("t", [0.25, 1.0, 5.0])
    def test_recurrence(self, s, t):
        lhs = _upper_gamma(s + 1, t)
        rhs = s * _upper_gamma(s, t) + t**s * math.exp(-t)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            _upper_gamma(1, 0.0)
        with pytest.raises(ValueError):
            _upper_gamma(1, -2.0)
        for s in (0, 2):
            for t in (math.nan, math.inf):
                with pytest.raises(ValueError, match="need finite t > 0"):
                    _upper_gamma(s, t)


class TestExpIntegral:
    """e^t Ei(-t) through ei_exp_scaled, and Ei(-t) = -Gamma(0, t)
    through _upper_gamma(0, t)."""

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 3.0, 7.9, 8.1, 10.0, 30.0])
    def test_against_defining_integral(self, t):
        oracle, err = quad(
            lambda s: math.exp(-s) / s, t, np.inf, epsabs=1e-300, epsrel=1e-13
        )
        assert _upper_gamma(0, t) == pytest.approx(oracle, rel=1e-12)
        assert ei_exp_scaled(t) == pytest.approx(-oracle * math.exp(t), rel=1e-12)

    def test_known_values(self):
        assert _upper_gamma(0, 1.0) == pytest.approx(0.21938393439552026, rel=1e-14)
        assert _upper_gamma(0, 10.0) == pytest.approx(
            4.156968929685324e-06, rel=1e-13
        )

    @pytest.mark.parametrize("t", [20.0, 100.0, 500.0])
    def test_large_t_bracketing(self, t):
        assert math.exp(-t) / (t + 1) < _upper_gamma(0, t) < math.exp(-t) / t
        assert -1 / t < ei_exp_scaled(t) < -1 / (t + 1)

    def test_scaled_variant(self):
        with mpmath.workdps(40):
            for t in (0.5, 8.0, 50.0, 1000.0):
                mt = mpmath.mpf(t)
                expected = float(-mpmath.exp(mt) * mpmath.e1(mt))
                got = ei_exp_scaled(t)
                assert got < 0
                assert got == pytest.approx(expected, rel=1e-14)

    def test_correctly_rounded_below_cutoff(self):
        rng = random.Random("ei/60-digit")
        ts = [10.0 ** rng.uniform(-9.0, math.log10(8.0)) for _ in range(400)] + [8.0]
        with mpmath.workdps(60):
            for t in ts:
                e1 = mpmath.e1(mpmath.mpf(t))
                assert ei_exp_scaled(t) == float(-mpmath.exp(mpmath.mpf(t)) * e1), t
                # one more rounding, in the product with e^-t
                assert _upper_gamma(0, t) == pytest.approx(float(e1), rel=5e-16), t

    def test_leaves_mpmath_context_alone(self, monkeypatch):
        """Any thread may set mpmath's global precision at any time, so
        the value must neither depend on it nor change it."""
        ts = (1e-6, 0.1, 1.0, 7.9, 8.0)
        expected = [ei_exp_scaled(t) for t in ts]
        monkeypatch.setattr(mpmath.mp, "dps", 5)
        ctx = type(mpmath.mp)

        def frozen(self, value):
            raise AssertionError("mpmath's global precision was changed")

        for name in ("prec", "dps"):
            monkeypatch.setattr(ctx, name, property(getattr(ctx, name).fget, frozen))
        assert [ei_exp_scaled(t) for t in ts] == expected

    def test_float_widens_until_rounding_is_certain(self, monkeypatch):
        # at 56 bits about half of all values straddle a rounding boundary,
        # and at 64 bits a few
        monkeypatch.setattr(special_functions, "_FLOAT_BITS", (56, 64, 128))
        rng = random.Random("ei/widen")
        with mpmath.workdps(60):
            for t in [10.0 ** rng.uniform(-9.0, 3.0) for _ in range(200)]:
                mt = mpmath.mpf(t)
                assert ei_exp_scaled(t) == float(-mpmath.exp(mt) * mpmath.e1(mt)), t

    @pytest.mark.parametrize("t", [1.3e308, 1.7976931348623157e308])
    def test_near_the_largest_double(self, t):
        # e^t E1(t) = 1/t - 1/t^2 + ... rounds as the subnormal 1/t does;
        # mpmath's float() rounds a subnormal twice, 1 ulp off at 1.3e308.
        # The series' bit count, ceil(t log2 e), overflows an int here, so
        # only the series branch may compute it.
        assert ei_exp_scaled(t) == -(1 / int(t))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            _upper_gamma(0, 0.0)
        with pytest.raises(ValueError):
            ei_exp_scaled(-1.0)
        for t in (math.nan, math.inf):
            for f in (lambda t: _upper_gamma(0, t), ei_exp_scaled):
                with pytest.raises(ValueError, match="finite"):
                    f(t)


def _units_off(man: int, exp: int, t: float, prec: int):
    """|man 2^exp / (e^t E1(t)) - 1| in units of 2^-prec, against mpmath's
    exp and E1 at prec + 20 bits."""
    with mpmath.workprec(prec + 20):
        mt = mpmath.mpf(t)
        ref = mpmath.exp(mt) * mpmath.e1(mt)
    with mpmath.workprec(prec + 40):
        return mpmath.ldexp(abs(mpmath.ldexp(man, exp) / ref - 1), prec)


@pytest.fixture
def branches(monkeypatch):
    """Counts the calls of each branch of the integer e^t E1(t)."""
    counts = collections.Counter()
    for name in ("_e1_series", "_e1_cf"):
        branch = getattr(special_functions, name)

        def counted(*args, _branch=branch, _name=name):
            counts[_name] += 1
            return _branch(*args)

        monkeypatch.setattr(special_functions, name, counted)
    return counts


class TestIntegerExpIntegral:
    """e^t E1(t) = man 2^exp from ei_exp_scaled(t, prec), against mpmath."""

    def test_constants_are_mpmath_values_rounded(self):
        bits = special_functions._CONST_BITS
        with mpmath.workprec(bits + 64):

            def fixed(x):
                return int(mpmath.nint(mpmath.ldexp(x, bits)))

            assert special_functions._EULER_GAMMA == fixed(mpmath.euler)
            assert special_functions._LN2 == fixed(mpmath.log(2))
            assert special_functions._LN_1P_J32 == tuple(
                fixed(mpmath.log(1 + mpmath.mpf(j) / 32)) for j in range(32)
            )

    def test_within_prec_on_both_branches(self, branches):
        rng = random.Random("ei/both-branches")
        # t over the whole float range, and over the range of the crossover
        ts = [2.0 ** rng.uniform(-1074.0, 996.0) for _ in range(60)]
        ts += [2.0 ** rng.uniform(-12.0, 8.0) for _ in range(60)]
        # below t = 8 the series fits prec <= 960 in its 1013 bits; at
        # t >= 8 the fraction needs under 4096 steps for prec <= 1000
        cases = [(t, rng.randint(53, 1000 if t >= 8.0 else 960)) for t in ts]
        # the ends of the float range, and t = 50 in the fraction
        cases += [(5e-324, 64), (1.0, 64), (50.0, 1000), (1e300, 1000)]
        for t, prec in cases:
            man, exp = ei_exp_scaled(t, prec)
            assert _units_off(man, exp, t, prec) < 1, (t, prec)
            # the closed form's exact route relies on this
            assert exp < 0, (t, prec)
        assert branches["_e1_series"] >= 30 and branches["_e1_cf"] >= 30

    @pytest.mark.parametrize("prec", [53, 64, 80, 160, 347, 700])
    def test_both_sides_of_the_crossover(self, branches, prec):
        crossover = prec / 5.0 - 3.0
        below, above = crossover * (1 - 1e-9), crossover * (1 + 1e-9)
        for t, branch in ((below, "_e1_series"), (above, "_e1_cf")):
            branches.clear()
            assert _units_off(*ei_exp_scaled(t, prec), t, prec) < 1, (t, prec)
            assert list(branches) == [branch]

    @pytest.mark.parametrize("t, prec", [(1e30, 2**12), (1e60, 2**14), (2.0**300, 2**16)])
    def test_continued_fraction_at_many_bits(self, branches, t, prec):
        assert _units_off(*ei_exp_scaled(t, prec), t, prec) < 1
        assert list(branches) == ["_e1_cf"]

    @pytest.mark.parametrize("t", [1.3e308, 1.7976931348623157e308])
    @pytest.mark.parametrize("prec", [53, 1000])
    def test_near_the_largest_double(self, branches, t, prec):
        assert _units_off(*ei_exp_scaled(t, prec), t, prec) < 1
        assert list(branches) == ["_e1_cf"]

    @pytest.mark.parametrize("t, prec", [(1e-6, 2000), (3.7, 1000)])
    def test_beyond_both_branches_is_a_value_error(self, t, prec):
        with pytest.raises(ValueError, match="continued fraction more than 4096 steps"):
            ei_exp_scaled(t, prec)


class TestIdentities:
    @pytest.mark.parametrize("alpha", [0, 1, 2, 4])
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_orthogonality(self, alpha):
        for k in range(7):
            for l in range(k, 7):
                val, _ = quad(
                    lambda x: x**alpha
                    * math.exp(-x)
                    * _laguerre(k, alpha, x)
                    * _laguerre(l, alpha, x),
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
            math.comb(N, k) * (-t) ** (-k) * _upper_gamma(k + 1, t)
            for k in range(N + 1)
        )
        rhs = (-1 / t) ** N * math.factorial(N) * math.exp(-t)
        assert lhs == pytest.approx(rhs, rel=1e-11)

