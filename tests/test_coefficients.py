import contextlib
import hashlib
import io
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest

import mimo_mi.coefficients as coefficients
from mimo_mi import ChannelDims, build_table, coeff_c
from mimo_mi.cli import run


def _harmonic(l):
    return sum((Fraction(1, k) for k in range(1, l + 1)), Fraction(0))


class TestChannelDims:
    def test_normalization_swaps(self):
        d = ChannelDims(4, 2)
        assert (d.m, d.n) == (2, 4)

    def test_valid_order_kept(self):
        d = ChannelDims(2, 4)
        assert (d.m, d.n) == (2, 4)

    @pytest.mark.parametrize("m,n", [(0, 1), (1, 0), (-2, 3)])
    def test_rejects_non_positive(self, m, n):
        with pytest.raises(ValueError):
            ChannelDims(m, n)

    @pytest.mark.parametrize("m,n", [(2.5, 3), (2.0, 3), (3, 4.0), ("2", 3), (None, 1)])
    def test_rejects_non_integers(self, m, n):
        # a float pair was accepted, and build_table, telatar_quadrature
        # and monte_carlo_mi then failed deep inside
        with pytest.raises(TypeError, match=rf"must be integers, got \({m!r}, {n!r}\)"):
            ChannelDims(m, n)

    def test_integer_types_are_stored_as_int(self):
        d = ChannelDims(np.int64(4), np.uint8(2))
        assert d == (2, 4) and type(d.m) is int and type(d.n) is int
        assert repr(d) == "ChannelDims(m=2, n=4)"

    def test_order_does_not_matter(self):
        assert ChannelDims(5, 3) == ChannelDims(3, 5)
        assert hash(ChannelDims(5, 3)) == hash(ChannelDims(3, 5))
        assert ChannelDims(n=3, m=5) == ChannelDims(3, 5)

    def test_replace_validates(self):
        assert ChannelDims(2, 3)._replace(m=5) == ChannelDims(3, 5)
        with pytest.raises(ValueError):
            ChannelDims(2, 3)._replace(m=0)

    def test_repr(self):
        assert repr(ChannelDims(5, 3)) == "ChannelDims(m=3, n=5)"
        assert repr(build_table(ChannelDims(2, 2))) == (
            "CoefficientTable(dims=ChannelDims(m=2, n=2), denominator=1, "
            "a_num=(1, -1), b_num=(-2, 0, -1))"
        )

    @pytest.mark.parametrize("field", ["m", "n", "extra"])
    def test_immutable(self, field):
        d = ChannelDims(2, 3)
        with pytest.raises(AttributeError):
            setattr(d, field, 7)
        assert (d.m, d.n) == (2, 3)

    def test_table_immutable(self):
        t = build_table(ChannelDims(2, 2))
        for field in ("dims", "denominator", "a_num", "b_num", "a", "b"):
            with pytest.raises(AttributeError):
                setattr(t, field, None)


class TestCoeffC:
    def test_values_2x2(self):
        d = ChannelDims(2, 2)
        assert coeff_c(0, 0, d) == 2
        assert coeff_c(2, 1, d) == 2

    def test_out_of_support_is_zero(self):
        d = ChannelDims(2, 2)
        assert coeff_c(1, 2, d) == 0  # i - j < 0
        assert coeff_c(5, 0, d) == 0  # m - i + j < 0
        assert coeff_c(0, -1, d) == 0


class TestCoeffAB:
    def test_a_2x2(self):
        t = build_table(ChannelDims(2, 2))
        assert t.a[0] == 1
        assert t.a[1] == -1

    def test_a0_2x4(self):
        assert build_table(ChannelDims(2, 4)).a[0] == Fraction(10, 3)

    def test_b_2x2(self):
        t = build_table(ChannelDims(2, 2))
        assert t.b[0] == -2
        assert t.b[1] == 0
        assert t.b[2] == -1

    def test_b4_2x4(self):
        assert build_table(ChannelDims(2, 4)).b[4] == Fraction(-1, 6)

    def test_first_branch_b(self):
        # b_k = -(-1)^k m / k! for k <= n - m
        t = build_table(ChannelDims(2, 6))
        for k in range(5):
            assert t.b[k] == Fraction(-((-1) ** k) * 2, math.factorial(k))

    def test_index_errors(self):
        # a_k exists for 0 <= k <= n+m-3 and b_k for 0 <= k <= n+m-2
        t = build_table(ChannelDims(2, 2))
        with pytest.raises(IndexError):
            t.a[2]
        with pytest.raises(IndexError):
            t.b[3]

    def test_a0_is_harmonic_for_large_n(self):
        # a_0 = H_{n-1} for m = 1; n = 1200 once overflowed the recursion
        # limit of a recursive harmonic number
        assert build_table(ChannelDims(1, 1200)).a[0] == _harmonic(1199)


class TestBuildTable:
    def test_2x2(self):
        t = build_table(ChannelDims(2, 2))
        assert t.a == (1, -1)
        assert t.b == (-2, 0, -1)

    def test_2x6_b(self):
        t = build_table(ChannelDims(2, 6))
        assert [str(x) for x in t.b] == [
            "-2",
            "2",
            "-1",
            "1/3",
            "-1/12",
            "-1/30",
            "-1/120",
        ]

    def test_4x4_a(self):
        t = build_table(ChannelDims(4, 4))
        assert [str(x) for x in t.a] == [
            "13/3",
            "-13/3",
            "-8/3",
            "-14/9",
            "-11/36",
            "-1/36",
        ]

    def test_lengths(self):
        for m in range(1, 5):
            for n in range(m, 8):
                t = build_table(ChannelDims(m, n))
                assert len(t.a) == n + m - 2
                assert len(t.b) == n + m - 1

    def test_degenerate_1x1(self):
        t = build_table(ChannelDims(1, 1))
        assert t.a == ()
        assert t.b == (-1,)

    def test_argument_order_invariance(self):
        assert build_table(ChannelDims(4, 2)) == build_table(ChannelDims(2, 4))

    def test_denominator_bound(self):
        # denominators divide lcm(1..n+m) * ((n+m)!)^2
        for m in range(1, 5):
            for n in range(m, 8):
                t = build_table(ChannelDims(m, n))
                bound = math.lcm(*range(1, n + m + 1)) * math.factorial(n + m) ** 2
                for c in t.a + t.b:
                    assert bound % c.denominator == 0


class TestDimsCap:
    """build_table refuses a table past its work cap before any work."""

    @pytest.fixture
    def no_build(self, monkeypatch):
        def refuse(dims):
            raise RuntimeError("building")

        monkeypatch.setattr(coefficients, "_column_sums", refuse)
        return build_table.__wrapped__  # past the cache

    # the boundary: 1x4927 and 1145x1145 are the largest of their shapes
    @pytest.mark.parametrize(
        "m,n",
        [(1200, 1200), (1146, 1146), (1000, 2000), (1, 4928), (1, 6000), (2, 10**30)],
    )
    def test_too_large_rejected(self, no_build, m, n):
        with pytest.raises(ValueError, match=r"too large to build.* above 1\.2e\+11"):
            no_build(ChannelDims(m, n))

    @pytest.mark.parametrize(
        "m,n",
        [
            (64, 128),
            (1, 1200),
            (1, 1700),
            (500, 500),
            (600, 600),
            (800, 1600),
            (1145, 1145),
            (1, 4800),
            (1, 4927),
        ],
    )
    def test_accepted(self, no_build, m, n):
        with pytest.raises(RuntimeError, match="building"):
            no_build(ChannelDims(m, n))


class TestExactIdentity:
    @pytest.mark.parametrize("m", range(1, 6))
    def test_cij_sum_equals_m(self, m):
        for n in range(m, 10):
            d = ChannelDims(m, n)
            total = sum(
                math.factorial(i + n - m) * coeff_c(i, j, d)
                for i in range(2 * m - 1)
                for j in range(i + 1)
            )
            assert total == m


def _table_json(m: int, n: int) -> str:
    """The table's JSON as `mimo-mi coeffs --format json` writes it, less
    its final newline."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["coeffs", "-m", str(m), "-n", str(n), "--format", "json"]) == 0
    text = out.getvalue()
    assert text.endswith("}\n")
    return text[:-1]


class TestSerialization:
    def test_json_round_trip(self):
        t = build_table(ChannelDims(2, 4))
        obj = json.loads(_table_json(2, 4))
        assert ChannelDims(obj["m"], obj["n"]) == t.dims
        assert tuple(map(Fraction, obj["a"])) == t.a
        assert tuple(map(Fraction, obj["b"])) == t.b

    def test_json_shape(self):
        obj = json.loads(_table_json(2, 2))
        assert obj == {"m": 2, "n": 2, "a": ["1", "-1"], "b": ["-2", "0", "-1"]}

    def test_rationals_lowest_terms(self):
        obj = json.loads(_table_json(2, 6))
        assert obj["b"][3] == "1/3"
        assert obj["b"][-1] == "-1/120"


class TestFrozenTables:
    """Every table with m <= 16, n <= 32 is pinned by the SHA-256 of the
    JSON `coeffs --format json` writes for it, so any change to how
    tables are built must keep them exact."""

    def test_json_hashes_unchanged(self):
        path = os.path.join(os.path.dirname(__file__), "data", "table_sha256.json")
        with open(path) as fh:
            frozen = json.load(fh)
        assert len(frozen) == sum(33 - m for m in range(1, 17))
        for key, digest in frozen.items():
            m, n = map(int, key.split("x"))
            text = _table_json(m, n)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, key

    def test_single_coefficients_match_table(self):
        # each coefficient on its own, in Fractions, from the full c_ij
        # triangle: b_k = -(-1)^k / k! sum_{i >= k-d} (i+d)! C_i for every k,
        # a_0 = sum_i (i+d)! H_{i+d} C_i and, for k >= 1,
        # a_k = (-1)^k / (k k!) sum_{i > k-d} ((i+d)! - k! (i+d-k)!) C_i
        d = ChannelDims(5, 9)
        m, n, dd = d.m, d.n, d.n - d.m
        C = [sum(coeff_c(i, j, d) for j in range(i + 1)) for i in range(2 * m - 1)]
        f = math.factorial

        def a(k):
            if k == 0:
                return sum(f(i + dd) * _harmonic(i + dd) * c for i, c in enumerate(C))
            acc = sum(
                (f(i + dd) - f(k) * f(i + dd - k)) * C[i]
                for i in range(max(0, k - dd + 1), len(C))
            )
            return Fraction((-1) ** k, k * f(k)) * acc

        def b(k):
            acc = sum(f(i + dd) * C[i] for i in range(max(0, k - dd), len(C)))
            return Fraction(-((-1) ** k), f(k)) * acc

        t = build_table(d)
        assert tuple(a(k) for k in range(n + m - 2)) == t.a
        assert tuple(b(k) for k in range(n + m - 1)) == t.b

    @pytest.mark.parametrize(
        "m,n",
        [(m, n) for n in range(1, 13) for m in range(1, n + 1)] + [(48, 64)],
    )
    def test_stepped_column_sums_equal_c_scaled(self, m, n):
        """The column sums step the binomials of c_ij along each row; they
        equal the sums of _c_scaled, which takes each from math.comb."""
        nums, den = coefficients._column_sums(ChannelDims(m, n))
        top = math.factorial(2 * m - 2)
        assert den == top * math.factorial(n + 1)
        for i, num in enumerate(nums):
            row = sum(coefficients._c_scaled(i, j, m, n) for j in range(i + 1))
            scale = math.factorial(m) * top // math.factorial(i)
            assert num == (-1) ** i * scale * row, i


class TestIntegerForm:
    def test_common_denominator(self):
        assert build_table(ChannelDims(4, 6)).denominator == 720
        for m in range(1, 17):
            for n in range(m, 33):
                t = build_table(ChannelDims(m, n))
                assert math.gcd(t.denominator, *t.a_num, *t.b_num) == 1, (m, n)
                assert t.a == tuple(Fraction(x, t.denominator) for x in t.a_num)
                assert t.b == tuple(Fraction(x, t.denominator) for x in t.b_num)
