import hashlib
import json
import math
import os
from fractions import Fraction

import pytest

import mimo_mi.coefficients as coefficients
from mimo_mi import (
    ChannelDims,
    CoefficientTable,
    build_table,
    coeff_a,
    coeff_b,
    coeff_c,
)


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
        d = ChannelDims(2, 2)
        assert coeff_a(0, d) == 1
        assert coeff_a(1, d) == -1

    def test_a0_2x4(self):
        assert coeff_a(0, ChannelDims(2, 4)) == Fraction(10, 3)

    def test_b_2x2(self):
        d = ChannelDims(2, 2)
        assert coeff_b(0, d) == -2
        assert coeff_b(1, d) == 0
        assert coeff_b(2, d) == -1

    def test_b4_2x4(self):
        assert coeff_b(4, ChannelDims(2, 4)) == Fraction(-1, 6)

    def test_first_branch_b(self):
        # b_k = -(-1)^k m / k! for k <= n - m
        d = ChannelDims(2, 6)
        for k in range(5):
            assert coeff_b(k, d) == Fraction(-((-1) ** k) * 2, math.factorial(k))

    def test_index_errors(self):
        d = ChannelDims(2, 2)
        with pytest.raises(IndexError):
            coeff_a(2, d)
        with pytest.raises(IndexError):
            coeff_a(-1, d)
        with pytest.raises(IndexError):
            coeff_b(3, d)


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


class TestSerialization:
    def test_json_round_trip(self):
        t = build_table(ChannelDims(2, 4))
        back = CoefficientTable.from_json(t.to_json())
        assert back == t

    def test_json_shape(self):
        import json

        obj = json.loads(build_table(ChannelDims(2, 2)).to_json())
        assert obj == {"m": 2, "n": 2, "a": ["1", "-1"], "b": ["-2", "0", "-1"]}

    def test_rationals_lowest_terms(self):
        import json

        obj = json.loads(build_table(ChannelDims(2, 6)).to_json())
        assert obj["b"][3] == "1/3"
        assert obj["b"][-1] == "-1/120"


class TestFrozenTables:
    """Every table with m <= 16, n <= 32 is pinned by the SHA-256 of its
    JSON, so any change to how tables are built must keep them exact."""

    def test_json_hashes_unchanged(self):
        path = os.path.join(os.path.dirname(__file__), "data", "table_sha256.json")
        with open(path) as fh:
            frozen = json.load(fh)
        assert len(frozen) == sum(33 - m for m in range(1, 17))
        for key, digest in frozen.items():
            m, n = map(int, key.split("x"))
            text = build_table(ChannelDims(m, n)).to_json()
            assert hashlib.sha256(text.encode()).hexdigest() == digest, key

    def test_single_coefficients_match_table(self):
        d = ChannelDims(5, 9)
        t = build_table(d)
        assert tuple(coeff_a(k, d) for k in range(len(t.a))) == t.a
        assert tuple(coeff_b(k, d) for k in range(len(t.b))) == t.b

    def test_build_uses_each_c_once(self, monkeypatch):
        calls = []
        real = coefficients.coeff_c

        def counting(i, j, dims):
            calls.append((i, j))
            return real(i, j, dims)

        monkeypatch.setattr(coefficients, "coeff_c", counting)
        d = ChannelDims(48, 64)
        build_table.__wrapped__(d)
        assert 0 < len(calls) <= d.m * (2 * d.m - 1)
        assert len(set(calls)) == len(calls)


class TestIntegerForm:
    def test_common_denominator(self):
        t = build_table(ChannelDims(4, 6))
        assert t.denominator == 720
        for c, num in zip(t.a + t.b, t.a_num + t.b_num):
            assert c == Fraction(num, t.denominator)

    def test_derived_on_json_load(self):
        t = build_table(ChannelDims(3, 7))
        back = CoefficientTable.from_json(t.to_json())
        assert (back.denominator, back.a_num, back.b_num) == (
            t.denominator,
            t.a_num,
            t.b_num,
        )
