import json
import math
import random
from fractions import Fraction

import pytest

from mimo_mi import (
    ChannelDims,
    GridMode,
    Method,
    build_table,
    ei_exp_scaled,
    evaluate_closed_form,
    render_expression,
    results_to_csv,
    results_to_json,
    sweep,
    telatar_quadrature,
)
from mimo_mi.evaluator import _EI_REL_ERR

# 3 e Gamma(0,1), Gamma(0,1) frozen from quadrature of int_1^inf e^-x/x dx
MI_2X2_T1 = 1.789042086969582


class TestEvaluateClosedForm:
    def test_2x2_at_t1(self):
        r = evaluate_closed_form(build_table(ChannelDims(2, 2)), 1.0)
        assert r.value == pytest.approx(MI_2X2_T1, abs=1e-10)
        assert r.method is Method.CLOSED_FORM
        assert r.err_estimate >= 0

    def test_matches_quadrature_2x4(self):
        d = ChannelDims(2, 4)
        exact = evaluate_closed_form(build_table(d), 1.0).value
        oracle = telatar_quadrature(d, 1.0).value
        assert exact == pytest.approx(oracle, rel=1e-8)

    def test_large_t_decays_to_zero(self):
        table = build_table(ChannelDims(2, 2))
        vals = [evaluate_closed_form(table, t).value for t in (10, 100, 1000, 10000)]
        assert all(v > 0 for v in vals)
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] < 1e-3

    def test_domain_error(self):
        table = build_table(ChannelDims(2, 2))
        with pytest.raises(ValueError):
            evaluate_closed_form(table, 0.0)
        with pytest.raises(ValueError):
            evaluate_closed_form(table, -1.0)
        for t in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                evaluate_closed_form(table, t)

    def test_overflow_is_a_value_error(self):
        with pytest.raises(ValueError, match="overflow"):
            evaluate_closed_form(build_table(ChannelDims(2, 2)), 1e300)

    def test_monotone_decreasing_in_t(self):
        for dims in (ChannelDims(1, 1), ChannelDims(2, 2), ChannelDims(3, 5)):
            table = build_table(dims)
            grid = [0.01 * 1.26**i for i in range(41)]  # 0.01 .. ~100
            vals = [evaluate_closed_form(table, t).value for t in grid]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_monotone_increasing_in_n(self):
        for m in range(1, 5):
            for t in (0.1, 1.0, 10.0):
                vals = [
                    evaluate_closed_form(build_table(ChannelDims(m, n)), t).value
                    for n in range(m, 9)
                ]
                assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_small_t_log_offset_converges(self):
        # value - m ln(1/t) approaches a constant as t -> 0
        table = build_table(ChannelDims(2, 2))
        offsets = [
            evaluate_closed_form(table, t).value - 2 * math.log(1 / t)
            for t in (1e-2, 1e-3, 1e-4)
        ]
        d1 = abs(offsets[1] - offsets[0])
        d2 = abs(offsets[2] - offsets[1])
        assert d2 < d1

    def test_dimension_symmetry(self):
        for t in (0.1, 1.0, 10.0):
            a = evaluate_closed_form(build_table(ChannelDims(2, 4)), t).value
            b = evaluate_closed_form(build_table(ChannelDims(4, 2)), t).value
            assert a == b


class TestRenderExpression:
    def test_2x2(self):
        assert (
            render_expression(build_table(ChannelDims(2, 2)))
            == "1 - t - e^t Ei(-t) (2 + t^2)"
        )

    def test_2x4(self):
        assert render_expression(build_table(ChannelDims(2, 4))) == (
            "1/6 (20 - 6 t - t^2 - t^3 - e^t Ei(-t) "
            "(12 - 12 t + 6 t^2 + 2 t^3 + t^4))"
        )

    def test_1x1(self):
        assert render_expression(build_table(ChannelDims(1, 1))) == "- e^t Ei(-t) (1)"

    def test_deterministic(self):
        t = build_table(ChannelDims(4, 6))
        assert render_expression(t) == render_expression(t)


class TestSweep:
    def test_single_point_0db(self):
        rs = sweep(ChannelDims(2, 2), [0.0], GridMode.SNR_DB)
        assert len(rs) == 1
        assert rs[0].t == pytest.approx(1.0)
        assert rs[0].value == pytest.approx(MI_2X2_T1, abs=1e-9)

    def test_10db_matches_quadrature(self):
        rs = sweep(ChannelDims(2, 2), [10.0], GridMode.SNR_DB)
        oracle = telatar_quadrature(ChannelDims(2, 2), rs[0].t).value
        assert rs[0].value == pytest.approx(oracle, rel=1e-8)

    def test_linear_mode(self):
        rs = sweep(ChannelDims(2, 2), [10.0], GridMode.SNR_LINEAR)
        assert rs[0].t == pytest.approx(0.1)

    def test_preserves_order(self):
        rs = sweep(ChannelDims(2, 2), [5.0, -3.0, 12.0], GridMode.SNR_DB)
        assert [r.snr_db for r in rs] == pytest.approx([5.0, -3.0, 12.0])

    def test_empty_grid_errors(self):
        with pytest.raises(ValueError):
            sweep(ChannelDims(2, 2), [])

    def test_non_positive_linear_snr_errors(self):
        with pytest.raises(ValueError):
            sweep(ChannelDims(2, 2), [-1.0], GridMode.SNR_LINEAR)

    @pytest.mark.parametrize(
        "grid,mode",
        [
            ([math.nan], GridMode.SNR_DB),
            ([-math.inf], GridMode.SNR_DB),
            ([math.nan], GridMode.SNR_LINEAR),
            ([1.0, math.inf], GridMode.INVERSE_SNR),
            ([-4000.0], GridMode.SNR_DB),
        ],
    )
    def test_non_finite_grid_errors(self, grid, mode):
        with pytest.raises(ValueError, match="finite"):
            sweep(ChannelDims(2, 2), grid, mode)


def _fraction_closed_form(table, t):
    """The closed form with exact Fraction Horner sums, rounded once each."""
    tf = Fraction(t)
    poly_a = poly_b = Fraction(0)
    for c in reversed(table.a):
        poly_a = poly_a * tf + c
    for c in reversed(table.b):
        poly_b = poly_b * tf + c
    s = ei_exp_scaled(t)
    fa, fb = float(poly_a), float(poly_b)
    err = max(
        2.0 * max(abs(fa), abs(s * fb)) * 2.2e-16,
        abs(s) * _EI_REL_ERR * abs(fb),
    )
    return fa + s * fb, err


class TestIntegerHorner:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (2, 7), (4, 6), (8, 8), (16, 32)])
    def test_matches_fraction_horner(self, m, n):
        table = build_table(ChannelDims(m, n))
        rng = random.Random(f"horner/{m}x{n}")
        ts = [10.0 ** rng.uniform(-6.0, 6.0) for _ in range(150)] + [1.0, 0.1, 8.0]
        for t in ts:
            r = evaluate_closed_form(table, t)
            assert (r.value, r.err_estimate) == _fraction_closed_form(table, t), t


class TestSerialization:
    def test_csv_round_trip_floats(self):
        rs = sweep(ChannelDims(2, 3), [0.0, 10.0], GridMode.SNR_DB)
        text = results_to_csv(rs)
        lines = text.strip().split("\n")
        assert lines[0] == "m,n,snr_db,t,mi_nats,method,err_estimate"
        for line, r in zip(lines[1:], rs):
            fields = line.split(",")
            assert int(fields[0]) == 2 and int(fields[1]) == 3
            assert float(fields[3]) == r.t
            assert float(fields[4]) == r.value  # round-trip exact
            assert fields[5] == "closed_form"

    def test_json(self):
        rs = sweep(ChannelDims(2, 2), [0.0], GridMode.SNR_DB)
        data = json.loads(results_to_json(rs))
        assert data[0]["m"] == 2
        assert data[0]["mi_nats"] == rs[0].value
        assert data[0]["method"] == "closed_form"
