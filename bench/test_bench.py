"""Tests of the benchmark itself: tiny smoke runs and its output checks."""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import mpmath
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

mimo_mi = run._import_package()
pytestmark = pytest.mark.skipif(mimo_mi is None, reason="mimo_mi not importable from src/")


def _result(capsys, workload, trace, tmp_path):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        tiny=True,
        setup_repeats=1,
        out_dir=str(tmp_path),
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(capsys, tmp_path, workload, trace):
    result = _result(capsys, workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(wanted)
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert os.path.exists(tmp_path / f"spans-{workload}-seed3.jsonl")
    else:
        assert result["metrics"]["setup_s"]["value"] > 0


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_missing_package_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    code = run.main(["--workload", "sweep_grid", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_same_seed_same_requests(tmp_path):
    for build in workloads.BUILDERS.values():
        assert build(7, str(tmp_path)) == build(7, str(tmp_path))
        assert build(7, str(tmp_path)) != build(8, str(tmp_path))


def _table(m, n):
    table = mimo_mi.build_table(mimo_mi.ChannelDims(m, n))
    return list(table.a), list(table.b)


def _eval_outcomes(tmp_path):
    """One tiny eval request, its real outcome and a copy to tamper with."""
    harness = run.Harness(mimo_mi)
    req = next(r for r in workloads.oracle_requests(1, tiny=True) if r.kind == "eval")
    good = harness.request(req)
    return req, good, json.loads(good.stdout)


def _tally(req, outcome):
    return run.check_passes(checks.Checker(_table), [req], [[outcome]])


def test_inaccurate_value_counts_as_miss(tmp_path):
    req, good, rows = _eval_outcomes(tmp_path)
    rows[0]["mi_nats"] *= 1.0 + 1e-9
    good_tally = _tally(req, good)
    bad_tally = _tally(req, run.Outcome(good.latency, 0, None, json.dumps(rows), None))
    assert bad_tally.misses == good_tally.misses + 1
    assert bad_tally.wrong == good_tally.wrong + 1
    assert bad_tally.points == good_tally.points == len(rows)
    assert bad_tally.max_rel_err >= 1e-10
    # An inaccurate value is measured, not a failed request.
    assert bad_tally.failed == good_tally.failed == 0
    assert not bad_tally.errors


def test_non_finite_value_fails_the_request(tmp_path):
    req, good, rows = _eval_outcomes(tmp_path)
    rows[0]["mi_nats"] = float("nan")
    tally = _tally(req, run.Outcome(good.latency, 0, None, json.dumps(rows), None))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.errors


def test_crashed_request_fails(tmp_path):
    req, _, _ = _eval_outcomes(tmp_path)
    tally = _tally(req, run.Outcome(0.01, 1, "exit 1: boom", "", None))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.errors


@pytest.mark.parametrize("dims", [(1, 1), (1, 4), (2, 2), (3, 7), (4, 6), (6, 6)])
def test_identities_hold_and_reject_any_perturbed_coefficient(dims):
    a, b = _table(*dims)
    assert checks.table_identity_errors(*dims, a, b) == []
    for which in ("a", "b"):
        coeffs = a if which == "a" else b
        for k in range(len(coeffs)):
            bumped = list(coeffs)
            bumped[k] += Fraction(1, 10**9)
            args = (bumped, b) if which == "a" else (a, bumped)
            assert checks.table_identity_errors(*dims, *args), (which, k)


def test_render_check_matches_and_rejects():
    a, b = _table(5, 7)
    expr = mimo_mi.render_expression(mimo_mi.build_table(mimo_mi.ChannelDims(5, 7)))
    assert checks.render_matches_table(expr, a, b)
    bumped = list(b)
    bumped[3] += 1
    assert not checks.render_matches_table(expr, a, bumped)
    for (m, n), frozen in checks.REFERENCE_EXPRESSIONS.items():
        assert checks.render_matches_table(frozen, *_table(m, n))


def test_closed_form_reference_is_exact_for_m1_n1():
    # E[I] for 1x1 is -e^t Ei(-t) = e^t E1(t).
    ref = checks.reference_value((), (Fraction(-1),), 0.5)
    with mpmath.workdps(60):
        want = mpmath.exp(mpmath.mpf(0.5)) * mpmath.e1(mpmath.mpf(0.5))
        assert abs(ref - want) < mpmath.mpf(10) ** -55


def test_tracer_counts_calls_and_restores_globals(tmp_path):
    harness = run.Harness(mimo_mi)
    originals = {name: getattr(harness.modules["coefficients"], name) for name in ("build_table", "coeff_c")}
    tracer = run.Tracer()
    tracer.install(mimo_mi, harness.modules)
    try:
        for clear in harness.cache_clears:
            clear()
        tracer.request = "r"
        harness.cli.run(["coeffs", "-m", "3", "-n", "3", "--format", "json", "-o", str(tmp_path / "t.json")])
        stats = tracer.take_stats()
    finally:
        tracer.uninstall()
    assert stats["coefficients.build_table"][0] == 1
    assert stats["coefficients.coeff_c"][0] > 0
    assert stats["cli.run"][2] <= stats["cli.run"][1]
    names = {span[0] for span in tracer.spans}
    assert {"cli.run", "coefficients.build_table"} <= names
    assert "coefficients.coeff_c" not in names
    for name, fn in originals.items():
        assert getattr(harness.modules["coefficients"], name) is fn
