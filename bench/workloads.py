"""Seeded request lists for the two benchmark workloads.

Each workload is a fixed list of CLI requests (one pass); the benchmark
repeats the pass until its time is up.  The seed draws the inputs, but
every workload is stratified so that the cost of a pass, and the share
of inputs in each numerical regime, hardly depend on the seed: a seed
changes *which* point of a stratum is run, not how many points of each
kind there are.  NOTES.md says why each workload exists.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("sweep_grid", "tables_oracles")

# The whole ROADMAP sweep range.  Written with "=" because argparse reads a
# separate "-30:40:0.25" argument as an option.
SWEEP_SPEC = "-30:40:0.25"
TINY_SWEEP_SPEC = "-30:40:10"
# One sweep per m + n stratum; (16, 16) is the only pair of the last one.
# An odd count puts the median request inside one stratum (m + n = 16)
# instead of between two.  Five sweeps keep a pass near one second, so a
# run times each request many times.
SWEEP_DEGREES = (4, 10, 16, 22, 32)
SWEEP_MAX_DIM = 16

# A fixed ladder: table cost grows roughly like m^4, so a seeded size would
# make the pass cost depend on the seed.  The seed picks orientation, order
# and the evaluation points.  The ladder stops at 16x32 so that a pass takes
# under two seconds and a run times each request many times.
TABLE_LADDER = ((12, 12), (16, 16), (12, 24), (16, 32))
TINY_TABLE_LADDER = ((3, 3), (2, 5))
# Dims whose rendered closed form is frozen (see checks.REFERENCE_EXPRESSIONS).
REFERENCE_RENDER_DIMS = ((2, 2), (2, 4), (2, 6), (4, 4), (4, 6))
# Point evaluations cover t in [0.1, 10]: one seeded point in each of
# `count` equal log10 bins of [0.1, 8), plus t = 10 itself, where the float
# closed form cancels most.  Stratifying keeps the share of points in each
# regime, and so the share of inaccurate points, nearly independent of the
# seed; keeping the seeded points below 8 (the end of the Ei series region)
# lets the t = 10 point set max_rel_err instead of the luck of a seeded
# point near it.
T_MIN, T_SEEDED_MAX, T_MAX = 0.1, 8.0, 10.0
TABLE_EVAL_POINTS = 63
# 16 points per oracle eval request: 36 of them at 64 points would take
# as long as the rest of the oracle requests together.
ORACLE_EVAL_POINTS = 15

# The oracle requests enumerate every m <= n <= 8 rather than drawing dims,
# for the same reason.
ORACLE_MAX_DIM = 8
# Monte Carlo shapes (m, n, samples with 1 worker, samples with 2 workers).
# The 2-worker request draws more samples so both take about the same time,
# which keeps the latency tail made of like requests; samples * m * n stays
# at or below about 9e5 (about 170 MB peak RSS), so they take under a
# second of a pass.
MC_SHAPES = ((2, 4, 60_000, 84_000), (4, 4, 40_000, 56_000))
TINY_MC_SHAPES = ((2, 2, 2_000, 3_000),)


@dataclass(frozen=True)
class Request:
    """One CLI call.  (m, n) are normalized to m <= n; argv may give them
    in either order."""

    kind: str  # sweep | coeffs | render | eval | quadrature | mc
    m: int
    n: int
    argv: tuple[str, ...]
    ts: tuple[float, ...] = ()
    samples: int = 0
    workers: int = 0
    output_file: str | None = None


def _dims_args(rng: random.Random, m: int, n: int) -> tuple[str, ...]:
    """-m/-n in a seeded order; the CLI normalizes either order."""
    a, b = (n, m) if rng.random() < 0.5 else (m, n)
    return ("-m", str(a), "-n", str(b))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return float(f"{10.0 ** rng.uniform(lo, hi):.6g}")


def _eval_ts(rng: random.Random, count: int) -> tuple[float, ...]:
    lo, hi = math.log10(T_MIN), math.log10(T_SEEDED_MAX)
    width = (hi - lo) / count
    bins = [lo + k * width for k in range(count)]
    return tuple(_log_uniform(rng, b, b + width) for b in bins) + (T_MAX,)


def sweep_grid(seed: int, workdir: str, tiny: bool = False) -> list[Request]:
    rng = random.Random(f"sweep_grid/{seed}")
    spec = TINY_SWEEP_SPEC if tiny else SWEEP_SPEC
    degrees = (4, 6) if tiny else SWEEP_DEGREES
    reqs = []
    for i, s in enumerate(degrees):
        m = rng.randint(max(1, s - SWEEP_MAX_DIM), s // 2)
        n = s - m
        path = os.path.join(workdir, f"sweep-{i}.csv")
        argv = (
            ("sweep",)
            + _dims_args(rng, m, n)
            + (f"--snr-db={spec}", "--format", "csv", "-o", path)
        )
        reqs.append(Request("sweep", m, n, argv, output_file=path))
    rng.shuffle(reqs)
    return reqs


def table_requests(seed: int, tiny: bool = False) -> list[Request]:
    """coeffs, render and eval for each table of the ladder, plus the
    frozen renders."""
    rng = random.Random(f"tables/{seed}")
    reqs = []
    for m, n in TINY_TABLE_LADDER if tiny else TABLE_LADDER:
        dims = _dims_args(rng, m, n)
        ts = _eval_ts(rng, 3 if tiny else TABLE_EVAL_POINTS)
        reqs.append(Request("coeffs", m, n, ("coeffs",) + dims + ("--format", "json")))
        reqs.append(Request("render", m, n, ("render",) + dims + ("--format", "text")))
        reqs.append(
            Request(
                "eval",
                m,
                n,
                ("eval",) + dims + ("--t",) + tuple(map(repr, ts)) + ("--format", "json"),
                ts=ts,
            )
        )
    for m, n in REFERENCE_RENDER_DIMS:
        reqs.append(
            Request("render", m, n, ("render", "-m", str(m), "-n", str(n), "--format", "text"))
        )
    rng.shuffle(reqs)
    return reqs


def oracle_requests(seed: int, tiny: bool = False) -> list[Request]:
    """Closed form, quadrature and Monte Carlo for every m <= n <= 8."""
    rng = random.Random(f"oracles/{seed}")
    reqs = []
    top = 2 if tiny else ORACLE_MAX_DIM
    for m in range(1, top + 1):
        for n in range(m, top + 1):
            ts = _eval_ts(rng, 1 if tiny else ORACLE_EVAL_POINTS)
            argv = ("eval",) + _dims_args(rng, m, n) + ("--t",) + tuple(map(repr, ts))
            reqs.append(Request("eval", m, n, argv + ("--format", "json"), ts=ts))
            # Two quadrature requests, one per half of [0.1, 10] in log t: with
            # more quadrature than eval requests, the median request is a
            # quadrature one rather than the edge between the two kinds.
            for lo, hi in ((T_MIN, 1.0), (1.0, T_MAX)):
                t = _log_uniform(rng, math.log10(lo), math.log10(hi))
                argv = ("eval",) + _dims_args(rng, m, n)
                argv += ("--t", repr(t), "--quadrature", "--format", "json")
                reqs.append(Request("quadrature", m, n, argv, ts=(t,)))
    for m, n, s1, s2 in TINY_MC_SHAPES if tiny else MC_SHAPES:
        t = _log_uniform(rng, math.log10(T_MIN), math.log10(T_MAX))
        mc_seed = rng.getrandbits(32)
        for workers, samples in ((1, s1), (2, s2)):
            argv = ("mc",) + _dims_args(rng, m, n) + (
                "--t",
                repr(t),
                "--samples",
                str(samples),
                "--seed",
                str(mc_seed),
                "--workers",
                str(workers),
                "--format",
                "json",
            )
            reqs.append(
                Request("mc", m, n, argv, ts=(t,), samples=samples, workers=workers)
            )
    rng.shuffle(reqs)
    return reqs


def tables_oracles(seed: int, workdir: str, tiny: bool = False) -> list[Request]:
    reqs = table_requests(seed, tiny) + oracle_requests(seed, tiny)
    random.Random(f"tables_oracles/{seed}").shuffle(reqs)
    return reqs


BUILDERS = {
    "sweep_grid": sweep_grid,
    "tables_oracles": tables_oracles,
}
