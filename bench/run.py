#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the mimo-mi CLI.

    python3 bench/run.py --workload sweep_grid --seed 1 --seconds 45 --trace 0

Runs the seeded workload as a closed loop: one client issues one
in-process `mimo_mi.cli.run(argv)` call at a time, and each call starts
after the previous one returns.  Before every call the package's memo
caches are cleared, because every real CLI invocation pays for them.
The fixed request list (one pass) repeats until --seconds have passed.
Every output is checked against an independent reference after the
timed loop.

--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced for
half the time, then with every public layer function wrapped (see
tracer.py), and prints the per-layer metrics.  The last stdout line is
the JSON result; the line before it holds the run's details and
metadata, which are also written under .bench_out/ with the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 7

if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("max_rel_err", "rel"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("coefficients.build_table.calls", "count"),
    ("coefficients.build_table.time_s", "s"),
    ("coefficients.coeff_c.calls", "count"),
    ("special_functions.ei_exp_scaled.calls", "count"),
    ("special_functions.ei_exp_scaled.time_s", "s"),
    ("special_functions.ei_series_frac", "fraction"),
    ("evaluator.evaluate_closed_form.calls", "count"),
    ("evaluator.evaluate_closed_form.self_s", "s"),
    ("evaluator.sweep.time_s", "s"),
    ("evaluator.format.time_s", "s"),
    ("evaluator.miss_frac", "fraction"),
    ("evaluator.wrong_points", "count"),
    ("evaluator.flagged_points", "count"),
    ("evaluator.uncovered_points", "count"),
    ("oracles.monte_carlo_mi.calls", "count"),
    ("oracles.mc.samples_per_s.w1", "1/s"),
    ("oracles.mc.samples_per_s.w2", "1/s"),
    ("oracles.mc.scaling_eff", "ratio"),
    ("oracles.mc.bytes_per_sample", "B/sample"),
    ("oracles.telatar_quadrature.calls", "count"),
    ("oracles.quadrature.evals_per_s", "1/s"),
    ("oracles.laguerre_eval.calls", "count"),
    ("cli.run.self_s", "s"),
    ("cli.output_bytes", "B"),
    ("trace_overhead_frac", "fraction"),
)

MC_SPAN = "oracles.monte_carlo_mi"
# Output formatting in evaluator; every workload calls one of them.
FORMATTERS = (
    "evaluator.render_expression",
    "evaluator.results_to_csv",
    "evaluator.results_to_json",
)


@dataclass
class Outcome:
    latency: float
    rc: int | None
    error: str | None
    stdout: str
    file_text: str | None

    @property
    def ok(self) -> bool:
        return self.rc == 0 and self.error is None


class Harness:
    """Issues requests against the package imported from src/."""

    def __init__(self, package):
        self.cli = importlib.import_module(package.__name__ + ".cli")
        self.modules = {
            layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS
        }
        # Captured before any tracing wrapper replaces the module globals.
        self.cache_clears = [
            obj.cache_clear
            for module in self.modules.values()
            for obj in vars(module).values()
            if hasattr(obj, "cache_clear")
        ]
        self.tracer: Tracer | None = None

    def request(self, req, request_id=None) -> Outcome:
        for clear in self.cache_clears:
            clear()
        if req.output_file and os.path.exists(req.output_file):
            os.unlink(req.output_file)
        if self.tracer is not None:
            self.tracer.request = request_id
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.run(list(req.argv))
        except Exception as exc:  # a crash is a failed request, not a failed run
            error = repr(exc)
        latency = perf_counter() - start
        if rc not in (0, None):
            error = f"exit {rc}: {err.getvalue().strip()[:200]}"
        file_text = None
        if req.output_file and os.path.exists(req.output_file):
            with open(req.output_file) as fh:
                file_text = fh.read()
        return Outcome(latency, rc, error, out.getvalue(), file_text)

    def run_pass(self, requests, pass_id: int) -> list[Outcome]:
        return [self.request(req, f"{pass_id}.{i}") for i, req in enumerate(requests)]

    def run_for(self, requests, seconds: float) -> list[list[Outcome]]:
        """Whole passes until `seconds` have elapsed, at least one."""
        passes = []
        start = perf_counter()
        while not passes or perf_counter() - start < seconds:
            passes.append(self.run_pass(requests, len(passes)))
        return passes


def measure_setup(repeats: int) -> list[float]:
    """Seconds from starting a fresh interpreter to `import mimo_mi.cli` done."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import mimo_mi.cli"]
    times = []
    for _ in range(repeats):
        start = perf_counter()
        # No timeout: with one, Popen.wait polls in steps of up to 50 ms.
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def check_passes(checker, requests, passes, cache=None) -> checks.Tally:
    """Tally every outcome; identical outputs are checked once."""
    cache = {} if cache is None else cache
    total = checks.Tally()
    errors: dict[str, None] = {}
    # Coefficient tables first: their checked outputs feed the references.
    order = sorted(range(len(requests)), key=lambda i: requests[i].kind != "coeffs")
    for i in order:
        req = requests[i]
        label = " ".join(req.argv[:5])
        seen = set()
        for outcomes in passes:
            rec = outcomes[i]
            total.attempted += 1
            if not rec.ok:
                total.failed += 1
                errors[f"{label}: {rec.error}"] = None
                continue
            key = (i, rec.stdout, rec.file_text)
            seen.add(key)
            if key not in cache:
                try:
                    cache[key] = checker.check(req, rec.stdout, rec.file_text)
                except (checks.CheckError, ValueError, KeyError, TypeError) as exc:
                    cache[key] = f"{label}: {exc}"
            if isinstance(cache[key], str):
                total.failed += 1
                errors[cache[key]] = None
            else:
                total.add(cache[key])
        if len(seen) > 1:
            errors[f"{label}: output differs between passes"] = None
    total.errors = list(errors) + list(dict.fromkeys(checker.table_errors))
    return total


def _tail(latencies):
    """Highest percentile with ten requests beyond it, or the slowest
    request when that percentile would not lie above the median."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count < 22:
        return ordered[-1], 100.0, 0
    return ordered[count - 11], 100.0 * (count - 10) / count, 10


def _git_commit(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "commit": _git_commit(ROOT),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        # Unset means the BLAS library's default (one thread per CPU).
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _mc_bytes_per_sample(m: int, n: int) -> int:
    """Bytes of the per-sample arrays the dense sampler allocates, from
    their shapes: uniforms (m, n, 2), radius and angle (m, n) float64,
    H (m, n) complex, Gram matrix and Cholesky factor (m, m) complex."""
    return 8 * (2 * m * n) + 8 * m * n * 2 + 16 * m * n + 16 * m * m * 2


def _p90_latencies(passes) -> list[float]:
    """Each request's 90th-percentile time over the passes.

    The speed of a shared host moves by up to 2x, in spells of seconds
    to minutes, and its slow states are the common ones.  The median of
    a request's times moves with the share of fast spells in a run, and
    its minimum jumps when a run has none; its 90th percentile reads the
    common state.  NOTES.md gives the measured spreads.
    """
    out = []
    for i in range(len(passes[0])):
        times = [outcomes[i].latency for outcomes in passes]
        if len(times) > 1:
            out.append(statistics.quantiles(times, n=10, method="inclusive")[8])
        else:
            out.append(times[0])
    return out


def end_to_end_metrics(passes, tally, setup_times) -> tuple[dict, dict]:
    p90 = _p90_latencies(passes)
    tail, tail_pct, beyond = _tail(p90)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(p90),
        "max_rel_err": tally.max_rel_err,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "setup_samples_s": setup_times,
        "requests": len(p90),
        "samples_per_request": len(passes),
        "req_p90_ms": 1000.0 * statistics.median(p90),
        "req_tail_ms": 1000.0 * tail,
        "req_tail_percentile": tail_pct,
        "req_tail_beyond": beyond,
        "all_latencies_p50_ms": 1000.0
        * statistics.median(rec.latency for outcomes in passes for rec in outcomes),
        "pass_wall_s": [sum(r.latency for r in outcomes) for outcomes in passes],
        "latency_s": [[r.latency for r in outcomes] for outcomes in passes],
    }
    return values, detail


def per_layer_metrics(requests, traced, stats, plain_passes, pass_tally) -> dict:
    first = stats[0]

    def calls(name):
        return first.get(name, (0, 0.0, 0.0))[0]

    def seconds(*names, index=1):
        return statistics.median(
            sum(s.get(name, (0, 0.0, 0.0))[index] for name in names) for s in stats
        )

    ei_calls = calls("special_functions.ei_exp_scaled")
    quad_s = seconds("oracles.telatar_quadrature")
    mc_time = {}
    for name, _sid, start, end, _parent, request_id in traced.spans:
        if name == MC_SPAN:
            mc_time[request_id] = mc_time.get(request_id, 0.0) + end - start
    rates = {}
    for workers in (1, 2):
        samples = spent = 0.0
        for pass_id in traced.pass_ids:
            for i, req in enumerate(requests):
                if req.kind == "mc" and req.workers == workers:
                    samples += req.samples
                    spent += mc_time.get(f"{pass_id}.{i}", 0.0)
        rates[workers] = samples / spent if spent else 0.0
    mc_reqs = [r for r in requests if r.kind == "mc"]
    mc_samples = sum(r.samples for r in mc_reqs)
    first_pass = traced.passes[0]
    return {
        "coefficients.build_table.calls": calls("coefficients.build_table"),
        "coefficients.build_table.time_s": seconds("coefficients.build_table"),
        "coefficients.coeff_c.calls": calls("coefficients.coeff_c"),
        "special_functions.ei_exp_scaled.calls": ei_calls,
        "special_functions.ei_exp_scaled.time_s": seconds("special_functions.ei_exp_scaled"),
        "special_functions.ei_series_frac": first["ei_series_calls"] / ei_calls if ei_calls else 0.0,
        "evaluator.evaluate_closed_form.calls": calls("evaluator.evaluate_closed_form"),
        "evaluator.evaluate_closed_form.self_s": seconds(
            "evaluator.evaluate_closed_form", index=2
        ),
        "evaluator.sweep.time_s": seconds("evaluator.sweep"),
        "evaluator.format.time_s": seconds(*FORMATTERS),
        "evaluator.miss_frac": (
            pass_tally.wrong / pass_tally.closed_points if pass_tally.closed_points else 0.0
        ),
        "evaluator.wrong_points": pass_tally.wrong,
        "evaluator.flagged_points": pass_tally.flagged,
        "evaluator.uncovered_points": pass_tally.uncovered,
        "oracles.monte_carlo_mi.calls": calls(MC_SPAN),
        "oracles.mc.samples_per_s.w1": rates[1],
        "oracles.mc.samples_per_s.w2": rates[2],
        "oracles.mc.scaling_eff": rates[2] / (2.0 * rates[1]) if rates[1] else 0.0,
        "oracles.mc.bytes_per_sample": (
            sum(r.samples * _mc_bytes_per_sample(r.m, r.n) for r in mc_reqs) / mc_samples
            if mc_samples
            else 0.0
        ),
        "oracles.telatar_quadrature.calls": calls("oracles.telatar_quadrature"),
        "oracles.quadrature.evals_per_s": (
            calls("special_functions.laguerre_eval") / quad_s if quad_s else 0.0
        ),
        "oracles.laguerre_eval.calls": calls("special_functions.laguerre_eval"),
        "cli.run.self_s": seconds("cli.run", index=2),
        "cli.output_bytes": sum(
            len(r.stdout.encode()) + len((r.file_text or "").encode()) for r in first_pass
        ),
        "trace_overhead_frac": (
            sum(_p90_latencies(traced.passes)) / sum(_p90_latencies(plain_passes)) - 1.0
        ),
    }


@dataclass
class TracedRun:
    passes: list
    pass_ids: list
    spans: list


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """mimo_mi from this checkout's src/, or None when it is missing."""
    if not os.path.isfile(os.path.join(SRC, "mimo_mi", "__init__.py")):
        return None
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    package = importlib.import_module("mimo_mi")
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != SRC:
        return None
    return package


def main(argv=None, *, tiny=False, setup_repeats=SETUP_REPEATS, out_dir=OUT_DIR) -> int:
    args = _parse_args(argv)
    package = _import_package()
    if package is None:
        print(f"bench: no mimo_mi package under {SRC}", file=sys.stderr)
        return 2
    harness = Harness(package)
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        return _run(args, harness, workdir, tiny, setup_repeats, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, harness, workdir, tiny, setup_repeats, out_dir) -> int:
    build = workloads.BUILDERS[args.workload]
    requests = build(args.seed, workdir, tiny)
    # Warm-up: lazy imports and first-call set-up, untimed.
    harness.run_pass(build(args.seed, workdir, True), -1)
    setup_times = [] if args.trace else measure_setup(setup_repeats)

    if args.trace:
        plain = harness.run_for(requests, args.seconds / 2.0)
        tracer = Tracer()
        tracer.install(package=sys.modules["mimo_mi"], modules=harness.modules)
        harness.tracer = tracer
        traced_passes, stats = [], []
        start = perf_counter()
        try:
            while not traced_passes or perf_counter() - start < args.seconds / 2.0:
                traced_passes.append(harness.run_pass(requests, len(plain) + len(traced_passes)))
                stats.append(tracer.take_stats())
        finally:
            tracer.uninstall()
            harness.tracer = None
        traced = TracedRun(
            traced_passes, list(range(len(plain), len(plain) + len(traced_passes))), tracer.spans
        )
        passes = plain + traced_passes
    else:
        passes = harness.run_for(requests, args.seconds)

    # Everything below is outside the timed region.
    mc = [i for i, r in enumerate(requests) if r.kind == "mc"]
    repeat_error = None
    if mc:
        again = harness.request(requests[mc[0]])
        if again.stdout != passes[0][mc[0]].stdout:
            repeat_error = "repeated mc request is not bit-identical"

    def table_source(m, n):
        table = harness.modules["coefficients"].build_table(
            harness.modules["coefficients"].ChannelDims(m, n)
        )
        return table.a, table.b

    checker = checks.Checker(table_source)
    cache = {}
    tally = check_passes(checker, requests, passes, cache)
    if repeat_error:
        tally.errors.append(repeat_error)
    correct = not tally.errors

    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "requests_per_pass": len(requests),
        "requests_attempted": tally.attempted,
        "requests_failed": tally.failed,
        "values_checked": tally.points,
        "values_missed": tally.misses,
        "errors": tally.errors[:20],
        "metadata": metadata(args.seed),
    }
    if args.trace:
        pass_tally = check_passes(checker, requests, traced.passes[:1], cache)
        values = per_layer_metrics(
            requests,
            traced,
            stats,
            plain,
            pass_tally,
        )
        units = dict(PER_LAYER)
        detail["traced_passes"] = len(traced.passes)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        detail["spans_file"] = os.path.relpath(spans_path, ROOT)
        detail["mc_bytes_per_sample"] = "computed from array shapes, not measured"
    else:
        values, extra = end_to_end_metrics(passes, tally, setup_times)
        units = dict(END_TO_END)
        detail.update(extra)

    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(
        os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w"
    ) as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    if tally.errors:
        print("\n".join(tally.errors[:20]), file=sys.stderr)
    # Per-request latencies are long; they stay in the result file.
    print(json.dumps({"detail": {k: v for k, v in detail.items() if k != "latency_s"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
