"""Command-line front end.

Subcommands: coeffs (exact coefficient table), render (symbolic closed
form), eval (point evaluation), sweep (SNR grid), mc (Monte Carlo), and
verify (the full cross-validation suite).  Exit codes: 0 success, 1 bad
input or usage, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile

from .coefficients import ChannelDims, build_table
from .evaluator import (
    GridMode,
    evaluate_closed_form,
    render_expression,
    results_to_csv,
    results_to_json,
    sweep,
)
from .oracles import ConvergenceError, monte_carlo_mi, telatar_quadrature
from .verification import check_three_way, run_all

FORMAT_ENV_VAR = "MIMO_MI_FORMAT"


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _default_format() -> str:
    fmt = os.environ.get(FORMAT_ENV_VAR, "text")
    return fmt if fmt in ("csv", "json", "text") else "text"


def _parse_grid(spec: str) -> list[float]:
    """'start:stop:step' in dB, inclusive of both ends when step divides
    the range; a bare number is a one-point grid."""
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise ValueError(f"grid spec must be 'start:stop:step', got {spec!r}")
    values = [float(p) for p in parts]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"SNR grid values must be finite, got {spec!r}")
    if len(values) == 1:
        return values
    start, stop, step = values
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    count = int(round((stop - start) / step))
    grid = [start + i * step for i in range(count + 1)]
    return [g for g in grid if g <= stop + 1e-9 * max(1.0, abs(stop))]


def _emit(text: str, path: str | None) -> None:
    """Write to stdout, or atomically to a file (temp + rename) so a
    failure never leaves partial output behind."""
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mimo-mi-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _build_parser() -> _Parser:
    parser = _Parser(prog="mimo-mi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_dims=True):
        if with_dims:
            p.add_argument("-m", type=int, required=True, help="receive antennas")
            p.add_argument("-n", type=int, required=True, help="transmit antennas")
        p.add_argument(
            "--format",
            choices=("csv", "json", "text"),
            default=_default_format(),
            help=f"output format (default from ${FORMAT_ENV_VAR} or text)",
        )
        p.add_argument("-o", "--output", default=None, help="write output to file")

    p = sub.add_parser("coeffs", help="exact coefficient table")
    add_common(p)

    p = sub.add_parser("render", help="symbolic closed-form expression")
    add_common(p)

    for name in ("eval", "sweep"):
        p = sub.add_parser(
            name,
            help="closed-form E[I] at given points"
            if name == "eval"
            else "closed-form E[I] over an SNR grid",
        )
        add_common(p)
        p.add_argument("--t", type=float, nargs="+", help="inverse-SNR values")
        p.add_argument(
            "--snr-db", dest="snr_db", help="SNR grid in dB: value or start:stop:step"
        )
        if name == "eval":
            p.add_argument(
                "--quadrature",
                action="store_true",
                help="use the density-integral oracle instead of the closed form",
            )

    p = sub.add_parser("mc", help="Monte Carlo estimate of E[I]")
    add_common(p)
    p.add_argument("--t", type=float, required=True, help="inverse SNR")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("verify", help="cross-validation suite (exit 2 on failure)")
    p.add_argument("-m", type=int, default=None)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--t", type=float, nargs="+", default=None)
    p.add_argument("--rel-tol", type=float, default=1e-8)
    p.add_argument("--mc-samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=20240817)
    p.add_argument("-o", "--output", default=None)

    return parser


def _resolve_ts(args) -> list[float]:
    if args.t is not None and args.snr_db is not None:
        raise ValueError("give either --t or --snr-db, not both")
    if args.t is not None:
        if not args.t:
            raise ValueError("empty t list")
        for t in args.t:
            if not (math.isfinite(t) and t > 0):
                raise ValueError(f"t must be finite and positive, got {t}")
        return list(args.t)
    if args.snr_db is not None:
        grid = _parse_grid(args.snr_db)
        if not grid:
            raise ValueError("empty SNR grid")
        try:
            return [10.0 ** (-g / 10.0) for g in grid]
        except OverflowError:
            raise ValueError(
                f"SNR grid {args.snr_db!r} dB maps to t beyond float range"
            ) from None
    raise ValueError("one of --t or --snr-db is required")


def _format_results(results, fmt: str) -> str:
    if fmt == "csv":
        return results_to_csv(results)
    if fmt == "json":
        return results_to_json(results)
    lines = [
        f"m={r.dims.m} n={r.dims.n} snr_db={r.snr_db:.6g} t={r.t!r} "
        f"mi_nats={r.value!r} method={r.method.value} err<={r.err_estimate:.3e}"
        for r in results
    ]
    return "\n".join(lines)


def _cmd_coeffs(args) -> int:
    table = build_table(ChannelDims(args.m, args.n))
    if args.format == "json":
        text = table.to_json()
    elif args.format == "csv":
        rows = ["k,a,b"]
        for k in range(len(table.b)):
            a_k = str(table.a[k]) if k < len(table.a) else ""
            rows.append(f"{k},{a_k},{table.b[k]}")
        text = "\n".join(rows)
    else:
        text = (
            f"dims: m={table.dims.m} n={table.dims.n}\n"
            f"a: {' '.join(str(x) for x in table.a)}\n"
            f"b: {' '.join(str(x) for x in table.b)}"
        )
    _emit(text, args.output)
    return 0


def _cmd_render(args) -> int:
    table = build_table(ChannelDims(args.m, args.n))
    expr = render_expression(table)
    if args.format == "json":
        text = json.dumps(
            {"m": table.dims.m, "n": table.dims.n, "expression": expr}
        )
    else:
        text = expr
    _emit(text, args.output)
    return 0


def _cmd_eval_sweep(args) -> int:
    dims = ChannelDims(args.m, args.n)
    ts = _resolve_ts(args)
    if getattr(args, "quadrature", False):
        results = [telatar_quadrature(dims, t) for t in ts]
    else:
        results = sweep(dims, ts, GridMode.INVERSE_SNR)
    _emit(_format_results(results, args.format), args.output)
    return 0


def _cmd_mc(args) -> int:
    dims = ChannelDims(args.m, args.n)
    report = monte_carlo_mi(
        dims, args.t, args.samples, seed=args.seed, workers=args.workers
    )
    if args.format == "json":
        text = report.to_json()
    elif args.format == "csv":
        text = (
            "m,n,t,samples,mean,std_error,seed,worker_count\n"
            f"{dims.m},{dims.n},{report.t!r},{report.samples},"
            f"{report.mean!r},{report.std_error!r},{report.seed},"
            f"{report.worker_count}"
        )
    else:
        text = (
            f"m={dims.m} n={dims.n} t={report.t!r} samples={report.samples} "
            f"mean={report.mean!r} std_error={report.std_error!r} "
            f"seed={report.seed} workers={report.worker_count}"
        )
    _emit(text, args.output)
    return 0


def _cmd_verify(args) -> int:
    if (args.m is None) != (args.n is None):
        raise ValueError("verify needs both -m and -n, or neither")
    if args.m is not None:
        dims = ChannelDims(args.m, args.n)
        ts = args.t or [0.1, 1.0, 10.0]
        lines = []
        ok = True
        table = build_table(dims)
        for t in ts:
            exact = evaluate_closed_form(table, t)
            quad = telatar_quadrature(dims, t)
            rep = monte_carlo_mi(
                dims, t, args.mc_samples, seed=args.seed, workers=4
            )
            rel = abs(quad.value - exact.value) / abs(exact.value)
            sigma = abs(rep.mean - exact.value) / rep.std_error
            point_ok = rel <= args.rel_tol and sigma <= 4.0
            ok = ok and point_ok
            lines.append(
                f"{'PASS' if point_ok else 'FAIL'}  t={t}: closed={exact.value!r} "
                f"quadrature rel err {rel:.3e}, MC {sigma:.2f} sigma"
            )
        _emit("\n".join(lines), args.output)
        return 0 if ok else 2
    results = run_all(
        rel_tol=args.rel_tol, mc_samples=args.mc_samples, seed=args.seed
    )
    _emit("\n".join(r.line() for r in results), args.output)
    return 0 if all(r.passed for r in results) else 2


def _join_negative_grid(argv: list[str]) -> list[str]:
    """'--snr-db -10:40:1' -> '--snr-db=-10:40:1'.

    argparse takes a separate argument that starts with '-' and is not a
    plain negative number for an option, so a grid with a negative start
    would otherwise only parse when written with '='.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--snr-db" and re.match(r"-[\d.]", arg):
            out[-1] = f"--snr-db={arg}"
        else:
            out.append(arg)
    return out


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_negative_grid(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "coeffs": _cmd_coeffs,
        "render": _cmd_render,
        "eval": _cmd_eval_sweep,
        "sweep": _cmd_eval_sweep,
        "mc": _cmd_mc,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, IndexError) as exc:
        print(f"mimo-mi: error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"mimo-mi: quadrature failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
