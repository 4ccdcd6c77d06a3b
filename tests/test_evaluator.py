import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import math
import random
from fractions import Fraction

import mpmath
import pytest

from mimo_mi import cli, evaluator
from mimo_mi import (
    ChannelDims,
    Method,
    build_table,
    ei_exp_scaled,
    evaluate_closed_form,
    render_expression,
    telatar_quadrature,
)
from mimo_mi._gauss_laguerre import NODES, WEIGHTS

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

    def test_huge_t_is_about_mn_over_t(self):
        table = build_table(ChannelDims(2, 2))
        r = evaluate_closed_form(table, 1e300)
        ref = _reference(table, 1e300, dps=700)
        assert r.value == pytest.approx(4e-300, rel=1e-15)
        assert abs(mpmath.mpf(r.value) - ref) <= r.err_estimate < r.value

    def test_precision_cap_is_a_value_error(self):
        # beyond the Stieltjes route's degree, the exact route at t = 1e300
        # would need about 300,000 bits
        table = build_table(ChannelDims(1, 300))
        assert evaluate_closed_form(table, 1e3).value == pytest.approx(
            0.2622755743961585, rel=1e-15
        )
        with pytest.raises(ValueError, match="too large"):
            evaluate_closed_form(table, 1e300)

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


def _fraction_poly(coeffs, t):
    tf = Fraction(t)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * tf + c
    return acc


def _reference(table, t, dps=400):
    """A(t) - e^t E1(t) B(t) from the exact table at `dps` digits."""
    with mpmath.workdps(dps):
        a, b = _fraction_poly(table.a, t), _fraction_poly(table.b, t)
        mt = mpmath.mpf(t)
        return mpmath.mpf(a.numerator) / a.denominator - mpmath.exp(mt) * mpmath.e1(
            mt
        ) * mpmath.mpf(b.numerator) / b.denominator


class TestIntegerHorner:
    """The exact route equals a Fraction evaluation of the table with the
    same dyadic e^t E1(t), rounded once."""

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (2, 7), (4, 6), (8, 8), (16, 32)])
    def test_matches_fraction_horner(self, m, n, monkeypatch):
        table = build_table(ChannelDims(m, n))
        rng = random.Random(f"horner/{m}x{n}")
        ts = [10.0 ** rng.uniform(-6.0, 6.0) for _ in range(150)] + [1.0, 0.1, 8.0]
        used = []

        def recording(t, prec=None):
            used.append(ei_exp_scaled(t, prec))
            return used[-1]

        monkeypatch.setattr(evaluator, "ei_exp_scaled", recording)
        for t in ts:
            value, _ = evaluator._exact(table, t, m * n / (t + (m + n) / 2))
            man, exp = used[-1]
            scaled_e1 = man * Fraction(2) ** exp
            want = _fraction_poly(table.a, t) - scaled_e1 * _fraction_poly(table.b, t)
            assert value == float(want), t


# Every dims with m <= 16 and n <= 32 the regression covers, including the
# degree extremes, and t log-spaced over [1e-6, 1e6] plus a fine grid over
# [0.3, 10], where the two routes meet.
_ACCURACY_DIMS = [
    (1, 1), (2, 2), (8, 8), (15, 16), (16, 16), (16, 17), (12, 24), (16, 32), (1, 32)
]
_ACCURACY_TS = [10.0 ** (k / 8) for k in range(-48, 49)] + [
    0.3 * 10.0 ** (k / 80) for k in range(122)
]


class TestAccuracy:
    @pytest.mark.parametrize("m,n", _ACCURACY_DIMS)
    def test_within_err_estimate_of_reference(self, m, n):
        table = build_table(ChannelDims(m, n))
        for t in _ACCURACY_TS:
            r = evaluate_closed_form(table, t)
            ref = _reference(table, t)
            with mpmath.workdps(30):
                actual = abs(mpmath.mpf(r.value) - ref)
                assert actual <= 1e-13 * abs(ref), (t, r)
            assert actual <= r.err_estimate < abs(r.value), (t, r)
            # a bound rounded up to two significant digits
            assert float(f"{r.err_estimate:.1e}") == r.err_estimate, (t, r)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (4, 4), (16, 32)])
    def test_tiny_t(self, m, n):
        # e^t E1(t) < 1/t asked Ei for about log2(1/t) bits, which it refused
        # below t ~ 1e-276
        table = build_table(ChannelDims(m, n))
        for t in (5e-324, 1e-320, 1e-280, 1e-100):
            r = evaluate_closed_form(table, t)
            ref = _reference(table, t)
            with mpmath.workdps(30):
                actual = abs(mpmath.mpf(r.value) - ref)
            assert actual <= r.err_estimate < abs(r.value), (t, r)

    def test_6x9_at_t300(self):
        # the float combination of the parent returned 0.0 here
        r = evaluate_closed_form(build_table(ChannelDims(6, 9)), 300.0)
        assert r.value == pytest.approx(0.17567742220097761, rel=1e-13)

    def test_both_routes_are_taken(self):
        table = build_table(ChannelDims(8, 8))
        rule = evaluator._stieltjes_rule(table.dims, table.b_num, table.denominator)
        routed = [
            evaluator._stieltjes(rule, table.dims, t, 64 / (t + 8)) is not None
            for t in (1e-3, 0.5, 2.0, 1e3)
        ]
        assert routed == [False, False, True, True]


class TestCertificate:
    """The point loop skips the Stieltjes remainder test only where that
    test fails."""

    @staticmethod
    def _tested(table, ts, monkeypatch):
        """The t of `ts` whose remainder test the point loop runs."""
        tested = []
        real = evaluator._stieltjes

        def recording(rule, dims, t, lower):
            tested.append(t)
            return real(rule, dims, t, lower)

        monkeypatch.setattr(evaluator, "_stieltjes", recording)
        list(evaluator._closed_form_rows(table, ts))
        monkeypatch.undo()
        return tested

    @pytest.mark.parametrize("m,n", _ACCURACY_DIMS)
    def test_skips_only_tests_that_fail(self, m, n, monkeypatch):
        table = build_table(ChannelDims(m, n))
        # an int t, as library callers may pass, takes the same loop
        ts = _ACCURACY_TS + [5e-324, 1e-300, 1, 10]
        tested = set(self._tested(table, ts, monkeypatch))
        skipped = [t for t in ts if t not in tested]
        assert skipped and 5e-324 in skipped and 1 in tested
        rule = evaluator._stieltjes_rule(table.dims, table.b_num, table.denominator)
        for t in skipped:
            lower = m * n / (t + (m + n) / 2)
            assert evaluator._stieltjes(rule, table.dims, t, lower) is None, t

    def test_sweep_runs_133_remainder_tests(self, monkeypatch):
        # without the certificate, all 281 points of the sweep run it
        ts = cli._grid_ts(argparse.Namespace(t=None, snr_db="-30:40:0.25"))
        assert len(ts) == 281
        assert len(self._tested(build_table(ChannelDims(16, 16)), ts, monkeypatch)) == 133


class TestRouteDomain:
    @pytest.mark.parametrize(
        "m,n,has_rule",
        # n + m <= 256, but each of the first three has a |b_k| that
        # underflows a float (1x181's b_180 = -1/180!, about 5e-330)
        [(127, 127, False), (100, 150, False), (1, 181, False), (60, 60, True)],
    )
    def test_tables_without_a_stieltjes_rule(self, m, n, has_rule):
        table = build_table(ChannelDims(m, n))
        rule = evaluator._stieltjes_rule(table.dims, table.b_num, table.denominator)
        assert (rule is not None) == has_rule


class TestGaussLaguerreRule:
    def test_constants_are_mpmath_rule_rounded(self):
        with mpmath.workdps(40):
            nodes, weights = mpmath.gauss_quadrature(128, "laguerre")
            assert NODES == tuple(float(x) for x in nodes)
            assert WEIGHTS == tuple(float(w) for w in weights)

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (3, 7), (16, 16), (16, 32)])
    def test_terms_are_w_beta_rounded_once(self, m, n):
        """The rule's inline Horner sums give w_i beta(x_i) as a separate
        exact Horner sum does."""
        table = build_table(ChannelDims(m, n))
        rule = evaluator._stieltjes_rule.__wrapped__(
            table.dims, table.b_num, table.denominator
        )
        beta = [c if k % 2 else -c for k, c in enumerate(table.b_num)]

        def horner(nums, p, q):
            # (num, den) with num / den == sum nums[k] (p/q)^k exactly, for q
            # a power of two
            step = q.bit_length() - 1
            num, shift = 0, 0
            for c in reversed(nums):
                shift += step
                num = num * p + (c << shift)
            return num, 1 << shift

        want = []
        for x, w in zip(rule.nodes, WEIGHTS):
            num, den = horner(beta, *x.as_integer_ratio())
            w_num, w_den = w.as_integer_ratio()
            want.append(num * w_num / (den * w_den * table.denominator))
        assert rule.terms == tuple(want)

    @pytest.mark.parametrize("t", [1e-3, 0.01, 0.1, 0.3])
    def test_remainder_bound(self, t):
        """0 <= e^t E1(t) - sum_i w_i / (t + x_i) <= 1 / (t L_128(-t)^2)."""
        with mpmath.workdps(60):
            mt = mpmath.mpf(t)
            rule = mpmath.fsum(
                mpmath.mpf(w) / (mt + mpmath.mpf(x)) for x, w in zip(NODES, WEIGHTS)
            )
            remainder = mpmath.exp(mt) * mpmath.e1(mt) - rule
            laguerre = mpmath.laguerre(128, 0, -mt)
            assert 0 <= remainder <= 1 / (mt * laguerre**2)
            # the route's bound uses the largest term of L_128(-t)
            assert math.exp(evaluator._ln_laguerre_lower(t)) <= laguerre


def _cli_output(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(list(argv)) == 0
    return out.getvalue()


def _as_dict(r) -> dict:
    """The row the CLI writes for result r, as a dict in its key order."""
    return {
        "m": r.dims.m,
        "n": r.dims.n,
        "snr_db": -10.0 * math.log10(r.t) + 0.0,
        "t": r.t,
        "mi_nats": r.value,
        "method": r.method.value,
        "err_estimate": r.err_estimate,
    }


class TestSerialization:
    def test_csv_round_trip_floats(self):
        table = build_table(ChannelDims(2, 3))
        rs = [evaluate_closed_form(table, t) for t in (1.0, 0.1)]
        text = _cli_output(
            "sweep", "-m", "2", "-n", "3", "--snr-db", "0:10:10", "--format", "csv"
        )
        lines = list(csv.reader(io.StringIO(text)))
        assert lines[0] == "m,n,snr_db,t,mi_nats,method,err_estimate".split(",")
        assert len(lines) == 1 + len(rs)
        for fields, r in zip(lines[1:], rs):
            assert int(fields[0]) == 2 and int(fields[1]) == 3
            assert float(fields[3]) == r.t
            assert float(fields[4]) == r.value  # round-trip exact
            assert fields[5] == "closed_form"

    def test_json(self):
        r = evaluate_closed_form(build_table(ChannelDims(2, 2)), 1.0)
        text = _cli_output(
            "sweep", "-m", "2", "-n", "2", "--snr-db", "0", "--format", "json"
        )
        data = json.loads(text)
        assert data[0]["m"] == 2
        assert data[0]["mi_nats"] == r.value
        assert data[0]["method"] == "closed_form"

    def test_json_bytes_equal_json_dumps(self):
        rng = random.Random(13)
        rs = []
        for _ in range(6):
            dims = ChannelDims(rng.randint(1, 6), rng.randint(1, 9))
            table = build_table(dims)
            ts = [10.0 ** rng.uniform(-3, 3), 1.0]
            rs += [evaluate_closed_form(table, t) for t in ts + [5e-324, 1e300]]
            rs += [telatar_quadrature(dims, t) for t in ts]
        assert {r.method for r in rs} == set(Method)
        for chosen in ([], rs[:1], rs):
            want = json.dumps([_as_dict(r) for r in chosen], indent=2) + "\n"
            assert "".join(cli._format_rows(chosen, "json")) == want


# The closed-form documents tests/data/closed_form_sha256.json pins, by key:
# sweeps over the ROADMAP range in every format, and single points from the
# smallest positive float to 1e300.  1x181 has no Stieltjes rule, and at
# t = 1e300 it needs more bits than the exact route allows, so that point
# exits 1 and is left out.
_FROZEN_SWEEP_DIMS = (
    (1, 1), (1, 3), (2, 2), (3, 7), (8, 8), (11, 11), (16, 16), (12, 24), (16, 32)
)
_FROZEN_EVAL_TS = (
    "5e-324", "1e-300", "1e-6", "0.37", "0.5", "0.9", "1.3", "10", "1e6", "1e100",
    "1e300",
)
_FROZEN_EVAL_POINTS = (
    ((1, 1), _FROZEN_EVAL_TS),
    ((2, 2), _FROZEN_EVAL_TS),
    ((16, 32), _FROZEN_EVAL_TS),
    ((1, 181), _FROZEN_EVAL_TS[:-1]),
)


def _frozen_requests() -> dict:
    """key: CLI argv, for every document the golden file pins."""
    requests = {}
    for m, n in _FROZEN_SWEEP_DIMS:
        for fmt in ("csv", "json", "text"):
            requests[f"sweep {m}x{n} {fmt}"] = (
                "sweep", "-m", str(m), "-n", str(n), "--snr-db=-30:40:0.25",
                "--format", fmt,
            )
    for (m, n), ts in _FROZEN_EVAL_POINTS:
        for t in ts:
            requests[f"eval {m}x{n} t={t}"] = (
                "eval", "-m", str(m), "-n", str(n), "--t", t, "--format", "json"
            )
    return requests


def _line_hashes(text: str) -> str:
    """The first 4 hex digits of each line's SHA-256, run together: enough
    to find the first line that changed once the document's hash differs."""
    return "".join(
        hashlib.sha256(line.encode()).hexdigest()[:4]
        for line in text.splitlines(keepends=True)
    )


def _frozen_digest(text: str) -> dict:
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "lines": _line_hashes(text)}


def _assert_pinned(name: str, docs: dict) -> None:
    """Fail unless each document's SHA-256 is its pin in tests/data/`name`,
    naming the first changed line of the first that differs."""
    with open(os.path.join(os.path.dirname(__file__), "data", name)) as fh:
        frozen = json.load(fh)
    assert sorted(frozen) == sorted(docs)
    for key, text in docs.items():
        want = frozen[key]
        if hashlib.sha256(text.encode()).hexdigest() == want["sha256"]:
            continue
        lines = text.splitlines(keepends=True)
        got = _line_hashes(text)
        for i, line in enumerate(lines):
            if got[4 * i : 4 * i + 4] != want["lines"][4 * i : 4 * i + 4]:
                pytest.fail(f"{key}: line {i + 1} differs: {line!r}")
        pytest.fail(f"{key}: {len(lines)} lines, {len(want['lines']) // 4} frozen")


class TestFrozenClosedForm:
    """Every byte of the closed-form documents above is pinned by its
    SHA-256, so a faster point loop or row writer must keep each value,
    err_estimate and format exact."""

    def test_documents_unchanged(self):
        docs = {key: _cli_output(*argv) for key, argv in _frozen_requests().items()}
        _assert_pinned("closed_form_sha256.json", docs)
