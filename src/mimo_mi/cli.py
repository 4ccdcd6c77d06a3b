"""Command-line front end.

Subcommands: coeffs (exact coefficient table), render (symbolic closed
form), eval (point evaluation), sweep (SNR grid), mc (Monte Carlo), and
verify (the full cross-validation suite).  Exit codes: 0 success, 1 bad
input or usage, 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import shutil
import stat
import sys
from typing import Iterable, Iterator

from .coefficients import ChannelDims, build_table
from .evaluator import _closed_form_rows, render_expression
from .special_functions import _check_t

FORMAT_ENV_VAR = "MIMO_MI_FORMAT"
# Most points a 'start:stop:step' SNR grid may expand to.
_MAX_GRID_POINTS = 10**6


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
    the range, with at most _MAX_GRID_POINTS points; a bare number is a
    one-point grid."""
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
    steps = (stop - start) / step
    if not math.isfinite(steps) or round(steps) + 1 > _MAX_GRID_POINTS:
        raise ValueError(f"grid {spec!r} has more than {_MAX_GRID_POINTS} points")
    count = round(steps)
    grid = [start + i * step for i in range(count + 1)]
    return [g for g in grid if g <= stop + 1e-9 * max(1.0, abs(stop))]


def _create_temp(directory: str) -> tuple[int, str]:
    """(fd, path) of a new, empty file in `directory`, open for writing.

    It is created with mode 0666, from which the kernel takes away the
    umask, just as for a file that open(path, "w") creates.
    (tempfile.mkstemp would create it 0600.)
    """
    while True:
        path = os.path.join(directory, f".mimo-mi-{os.urandom(8).hex()}")
        try:
            return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), path
        except FileExistsError:
            continue


def _emit(chunks: Iterable[str], path: str | None) -> None:
    """Write the chunks, which join to text that ends in a newline, to
    stdout or to a file.  Stdout gets them joined, in one write once the
    last has been computed, so a failure on the way prints nothing.  A
    file gets each as it comes, in a temp file renamed over it at the
    end, so a failure never leaves partial output behind and memory does
    not grow with the output.  A new file gets the mode 0666 less the
    umask, and a replaced one keeps its mode.  Symlinks are followed,
    and a target that exists but is no regular file (a FIFO, a device)
    is written in place.  A file that cannot be written is a ValueError
    naming it."""
    if path is None:
        sys.stdout.write("".join(chunks))
        return
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w") as fh:
                fh.writelines(chunks)
            return
        target = os.path.realpath(path)
        fd, tmp = _create_temp(os.path.dirname(target))
        try:
            with os.fdopen(fd, "w") as fh:
                fh.writelines(chunks)
            if os.path.exists(target):
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_str_digits(dims: ChannelDims, ints) -> None:
    """Raise ValueError if any of `ints` has more decimal digits than this
    interpreter converts to a string (sys.get_int_max_str_digits())."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    biggest = max(map(abs, ints), default=0)
    # 10**limit has more than 3.32 * limit bits, so a shorter int needs no
    # exact comparison (nor 10**limit built, which is slow for a huge limit)
    if biggest.bit_length() > 3.32 * limit and biggest >= 10**limit:
        raise ValueError(
            f"the {dims.m} x {dims.n} table has integers of more than {limit} "
            "digits, Python's limit for converting an int to text; "
            "PYTHONINTMAXSTRDIGITS=0 lifts the limit"
        )


def _table_json(dims: ChannelDims, a, b) -> str:
    """The JSON of the table with coefficients a and b, as Fractions."""
    import json

    a, b = [str(x) for x in a], [str(x) for x in b]
    return json.dumps({"m": dims.m, "n": dims.n, "a": a, "b": b})


CSV_HEADER = "m,n,snr_db,t,mi_nats,method,err_estimate"


def _format_rows(rows: Iterable[tuple], fmt: str) -> Iterator[str]:
    """The `fmt` ("csv", "json" or "text") document of `rows`, each the
    fields of an EvaluationResult, as one chunk per row plus any header
    and footer, each formatted as its row comes.  The chunks join to
    text that ends in a newline.

    Floats are written round-trip exact, except in the text format's
    snr_db and err.  No field is NaN or infinite, so repr writes each
    number as json.dumps does.  snr_db is -10 log10(t) + 0.0, where the
    + 0.0 turns the negative zero at t = 1 into 0.0, and a method is
    written as its _value_, which skips the enum's value property."""
    log10 = math.log10
    if fmt == "csv":
        yield CSV_HEADER + "\n"
        for dims, t, value, method, err in rows:
            yield (
                f"{dims.m},{dims.n},{-10.0 * log10(t) + 0.0!r},{t!r},{value!r},"
                f"{method._value_},{err!r}\n"
            )
    elif fmt == "json":
        # each row's object as json.dumps(..., indent=2) writes it in a list
        sep = "[\n"
        for dims, t, value, method, err in rows:
            yield (
                f'{sep}  {{\n    "m": {dims.m!r},\n'
                f'    "n": {dims.n!r},\n'
                f'    "snr_db": {-10.0 * log10(t) + 0.0!r},\n'
                f'    "t": {t!r},\n'
                f'    "mi_nats": {value!r},\n'
                f'    "method": "{method._value_}",\n'
                f'    "err_estimate": {err!r}\n  }}'
            )
            sep = ",\n"
        yield "[]\n" if sep == "[\n" else "\n]\n"
    else:
        for dims, t, value, method, err in rows:
            yield (
                f"m={dims.m} n={dims.n} snr_db={-10.0 * log10(t) + 0.0:.6g} t={t!r} "
                f"mi_nats={value!r} method={method._value_} err<={err:.3e}\n"
            )


def _grid_ts(args) -> list[float]:
    """The inverse SNR t of each --t value or --snr-db grid point, in
    order; each must be finite and positive."""
    if args.t is not None and args.snr_db is not None:
        raise ValueError("give either --t or --snr-db, not both")
    if args.t is None and args.snr_db is None:
        raise ValueError("one of --t or --snr-db is required")
    grid = ts = args.t
    if args.snr_db is not None:
        grid, ts = _parse_grid(args.snr_db), []
        for g in grid:
            try:
                ts.append(10.0 ** (-g / 10.0))
            except OverflowError:
                ts.append(math.inf)
    if not ts:
        raise ValueError("empty SNR grid")
    for g, t in zip(grid, ts):
        # false for 0, negatives, infinities and NaN, which _check_t names
        if not 0.0 < t < math.inf:
            try:
                _check_t(t)
            except ValueError as exc:
                raise ValueError(f"grid point {g}: {exc}") from None
    return ts


def _cmd_coeffs(args) -> int:
    table = build_table(ChannelDims(args.m, args.n))
    a, b = table.a, table.b
    _check_str_digits(table.dims, (x for c in a + b for x in c.as_integer_ratio()))
    if args.format == "json":
        text = _table_json(table.dims, a, b)
    elif args.format == "csv":
        rows = ["k,a,b"]
        for k in range(len(b)):
            a_k = str(a[k]) if k < len(a) else ""
            rows.append(f"{k},{a_k},{b[k]}")
        text = "\n".join(rows)
    else:
        text = (
            f"dims: m={table.dims.m} n={table.dims.n}\n"
            f"a: {' '.join(str(x) for x in a)}\n"
            f"b: {' '.join(str(x) for x in b)}"
        )
    _emit([text + "\n"], args.output)
    return 0


def _cmd_render(args) -> int:
    table = build_table(ChannelDims(args.m, args.n))
    _check_str_digits(table.dims, (table.denominator, *table.a_num, *table.b_num))
    expr = render_expression(table)
    if args.format == "json":
        import json

        text = json.dumps(
            {"m": table.dims.m, "n": table.dims.n, "expression": expr}
        )
    else:
        text = expr
    _emit([text + "\n"], args.output)
    return 0


def _cmd_eval_sweep(args) -> int:
    dims = ChannelDims(args.m, args.n)
    ts = _grid_ts(args)
    if getattr(args, "quadrature", False):
        from .oracles import telatar_quadrature

        rows = (telatar_quadrature(dims, t) for t in ts)
    else:
        rows = _closed_form_rows(build_table(dims), ts)
    _emit(_format_rows(rows, args.format), args.output)
    return 0


def _cmd_mc(args) -> int:
    from .oracles import monte_carlo_mi

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
    _emit([text + "\n"], args.output)
    return 0


def _cmd_verify(args) -> int:
    from .verification import _THREE_WAY_TS, check_three_way, run_all

    if (args.m is None) != (args.n is None):
        raise ValueError("verify needs both -m and -n, or neither")
    if args.t is not None and args.m is None:
        raise ValueError("verify --t needs -m and -n")
    if args.m is not None:
        dims = ChannelDims(args.m, args.n)
        results = [
            check_three_way(
                mc_samples=args.mc_samples, seed=args.seed, dims=[dims], ts=(t,)
            )
            for t in args.t or _THREE_WAY_TS
        ]
    else:
        results = run_all(mc_samples=args.mc_samples, seed=args.seed)
    _emit([r.line() + "\n" for r in results], args.output)
    return 0 if all(r.passed for r in results) else 2


def _add_common_args(p) -> None:
    p.add_argument("-m", type=int, required=True, help="receive antennas")
    p.add_argument("-n", type=int, required=True, help="transmit antennas")
    p.add_argument(
        "--format",
        choices=("csv", "json", "text"),
        default=_default_format(),
        help=f"output format (default from ${FORMAT_ENV_VAR} or text)",
    )
    p.add_argument("-o", "--output", default=None, help="write output to file")


def _add_sweep_args(p) -> None:
    _add_common_args(p)
    p.add_argument("--t", type=float, nargs="+", help="inverse-SNR values")
    p.add_argument(
        "--snr-db", dest="snr_db", help="SNR grid in dB: value or start:stop:step"
    )


def _add_eval_args(p) -> None:
    _add_sweep_args(p)
    p.add_argument(
        "--quadrature",
        action="store_true",
        help="use the density-integral oracle instead of the closed form",
    )


def _add_mc_args(p) -> None:
    _add_common_args(p)
    p.add_argument("--t", type=float, required=True, help="inverse SNR")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)


def _add_verify_args(p) -> None:
    p.add_argument("-m", type=int, default=None)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--t", type=float, nargs="+", default=None)
    p.add_argument("--mc-samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=20240817)
    p.add_argument("-o", "--output", default=None)


# name: (help, add_arguments, handler), in the order help lists them.
_COMMANDS = {
    "coeffs": ("exact coefficient table", _add_common_args, _cmd_coeffs),
    "render": ("symbolic closed-form expression", _add_common_args, _cmd_render),
    "eval": ("closed-form E[I] at given points", _add_eval_args, _cmd_eval_sweep),
    "sweep": ("closed-form E[I] over an SNR grid", _add_sweep_args, _cmd_eval_sweep),
    "mc": ("Monte Carlo estimate of E[I]", _add_mc_args, _cmd_mc),
    "verify": (
        "cross-validation suite (exit 2 on failure)",
        _add_verify_args,
        _cmd_verify,
    ),
}


def _help_formatter():
    """argparse's HelpFormatter at the width it reads for itself, read once.

    argparse makes a formatter for every add_argument call, and each
    stock one asks for the terminal size again.
    """
    width = shutil.get_terminal_size().columns - 2
    return functools.partial(argparse.HelpFormatter, width=width)


def _build_parser() -> _Parser:
    """The full parser, with every command's subparser.

    run() builds it only where no single command applies: no arguments,
    -h, an unknown command, or arguments the named command leaves over.
    """
    formatter = _help_formatter()
    parser = _Parser(prog="mimo-mi", description=__doc__, formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text, formatter_class=formatter))
    return parser


def _command_parser(name: str) -> _Parser:
    """`name`'s parser on its own, as the full parser's subparser for it.

    Building one parser instead of seven is most of a short request's
    parse time.
    """
    parser = _Parser(prog=f"mimo-mi {name}", formatter_class=_help_formatter())
    _COMMANDS[name][1](parser)
    return parser


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
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_negative_grid(argv)
    try:
        if argv and argv[0] in _COMMANDS:
            args, extra = _command_parser(argv[0]).parse_known_args(argv[1:])
            if extra:
                # as the full parser reports them, under its usage line
                _build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
            args.command = argv[0]
        else:
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command][2](args)
    except (ValueError, OverflowError) as exc:
        print(f"mimo-mi: error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # only the oracles raise ConvergenceError, so they are loaded by now
        from .oracles import ConvergenceError

        if not isinstance(exc, ConvergenceError):
            raise
        print(f"mimo-mi: quadrature failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
