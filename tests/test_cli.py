import argparse
import errno
import json
import math
import os
import random
import stat
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest

import mimo_mi
from mimo_mi import (
    ChannelDims,
    CoefficientTable,
    build_table,
    cli,
    evaluator,
    evaluate_closed_form,
    monte_carlo_mi,
    render_expression,
    telatar_quadrature,
)
from mimo_mi.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCoeffs:
    def test_json_output(self, capsys):
        code, out, _ = invoke(capsys, "coeffs", "-m", "2", "-n", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "m": 2,
            "n": 2,
            "a": ["1", "-1"],
            "b": ["-2", "0", "-1"],
        }

    def test_text_output(self, capsys):
        code, out, _ = invoke(capsys, "coeffs", "-m", "2", "-n", "2")
        assert code == 0
        assert "a: 1 -1" in out
        assert "b: -2 0 -1" in out

    def test_csv_output(self, capsys):
        code, out, _ = invoke(capsys, "coeffs", "-m", "2", "-n", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "k,a,b"
        assert out.splitlines()[1] == "0,1,-2"
        assert out.splitlines()[3] == "2,,-1"

    def test_bad_dims_exit_1(self, capsys):
        code, _, err = invoke(capsys, "coeffs", "-m", "0", "-n", "2")
        assert code == 1
        assert "error" in err

    def test_large_n(self, capsys):
        code, out, _ = invoke(capsys, "coeffs", "-m", "1", "-n", "1200", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert (obj["m"], obj["n"], len(obj["a"]), len(obj["b"])) == (1, 1200, 1199, 1200)

    def test_json_derives_the_fractions_once(self, capsys, monkeypatch):
        reads = []
        for name in ("a", "b"):

            def counting(table, fget=getattr(CoefficientTable, name).fget, name=name):
                reads.append(name)
                return fget(table)

            monkeypatch.setattr(CoefficientTable, name, property(counting))
        code, out, _ = invoke(capsys, "coeffs", "-m", "16", "-n", "32", "--format", "json")
        assert code == 0
        assert sorted(reads) == ["a", "b"]
        table = build_table(ChannelDims(16, 32))
        want = {
            "m": 16,
            "n": 32,
            "a": [str(x) for x in table.a],
            "b": [str(x) for x in table.b],
        }
        assert out == json.dumps(want) + "\n"


class TestRender:
    def test_2x4(self, capsys):
        code, out, _ = invoke(capsys, "render", "-m", "2", "-n", "4")
        assert code == 0
        assert out.strip() == (
            "1/6 (20 - 6 t - t^2 - t^3 - e^t Ei(-t) "
            "(12 - 12 t + 6 t^2 + 2 t^3 + t^4))"
        )

    def test_round_trip_coeffs_to_render(self, capsys):
        code, out, _ = invoke(capsys, "coeffs", "-m", "4", "-n", "6", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        a, b = ([Fraction(x) for x in obj[key]] for key in "ab")
        den = math.lcm(*(c.denominator for c in a + b))
        table = CoefficientTable(
            ChannelDims(obj["m"], obj["n"]),
            den,
            tuple(c.numerator * (den // c.denominator) for c in a),
            tuple(c.numerator * (den // c.denominator) for c in b),
        )
        code, rendered, _ = invoke(capsys, "render", "-m", "4", "-n", "6")
        assert rendered.strip() == render_expression(table)


class TestEvalSweep:
    def test_eval_t(self, capsys):
        code, out, _ = invoke(
            capsys,
            "eval", "-m", "2", "-n", "2", "--t", "1.0", "0.25", "4", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert [row["t"] for row in data] == [1.0, 0.25, 4.0]  # in the order given
        assert data[0]["mi_nats"] == pytest.approx(1.789042086969582, abs=1e-9)

    def test_eval_quadrature(self, capsys):
        code, out, _ = invoke(
            capsys,
            "eval",
            "-m", "2", "-n", "2",
            "--t", "1.0",
            "--quadrature",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data[0]["method"] == "quadrature"
        assert data[0]["mi_nats"] == pytest.approx(1.789042086969582, abs=1e-9)

    def test_eval_quadrature_large_table(self, capsys):
        # the root weight underflowed inside the spectrum here, and the
        # quadrature failed with exit 2
        code, out, err = invoke(
            capsys,
            "eval", "-m", "600", "-n", "600", "--t", "1", "--quadrature",
            "--format", "json",
        )
        assert (code, err) == (0, "")
        (row,) = json.loads(out)
        assert row["method"] == "quadrature" and math.isfinite(row["mi_nats"])

    def test_sweep_csv(self, capsys):
        code, out, _ = invoke(
            capsys,
            "sweep",
            "-m", "2", "-n", "3",
            "--snr-db", "0:10:5",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,n,snr_db,t,mi_nats,method,err_estimate"
        # inclusive endpoints, in order: 0, 5, 10 dB
        ts = [float(line.split(",")[3]) for line in lines[1:]]
        assert ts == [1.0, 10.0**-0.5, 0.1]

    def test_missing_grid_exit_1(self, capsys):
        code, _, err = invoke(capsys, "eval", "-m", "2", "-n", "2")
        assert code == 1

    def test_both_grids_exit_1(self, capsys):
        code, _, _ = invoke(
            capsys, "eval", "-m", "2", "-n", "2", "--t", "1", "--snr-db", "0"
        )
        assert code == 1

    def test_bad_t_exit_1(self, capsys):
        code, _, _ = invoke(capsys, "eval", "-m", "2", "-n", "2", "--t", "-1")
        assert code == 1

    # argv after "-m 2 -n 2": the whole of its stderr
    BAD_GRIDS = {
        ("eval", "--t", "inf"): "grid point inf: need finite t > 0, got t=inf",
        ("eval", "--t", "nan"): "grid point nan: need finite t > 0, got t=nan",
        ("eval", "--t", "1", "inf"): "grid point inf: need finite t > 0, got t=inf",
        ("sweep", "--snr-db=nan"): "SNR grid values must be finite, got 'nan'",
        ("sweep", "--snr-db=-inf"): "SNR grid values must be finite, got '-inf'",
        ("sweep", "--snr-db=0:nan:1"): "SNR grid values must be finite, got '0:nan:1'",
        # 10^400 overflows to t = inf
        ("sweep", "--snr-db", "-4000"): (
            "grid point -4000.0: need finite t > 0, got t=inf"
        ),
        ("eval", "--t", "0"): "grid point 0.0: need finite t > 0, got t=0.0",
        ("eval", "--t", "inf", "--quadrature"): (
            "grid point inf: need finite t > 0, got t=inf"
        ),
        ("mc", "--t", "inf"): "need finite t > 0, got t=inf",
        ("mc", "--t", "nan"): "need finite t > 0, got t=nan",
        ("sweep", "--snr-db=5:0:1"): "empty SNR grid",
        ("sweep", "--snr-db=inf"): "SNR grid values must be finite, got 'inf'",
        # 10^-400 underflows to t = 0
        ("sweep", "--snr-db", "4000"): (
            "grid point 4000.0: need finite t > 0, got t=0.0"
        ),
    }

    @pytest.mark.parametrize("argv", list(BAD_GRIDS))
    def test_non_finite_or_out_of_range_exit_1(self, capsys, argv):
        code, out, err = invoke(capsys, argv[0], "-m", "2", "-n", "2", *argv[1:])
        assert (code, out) == (1, "")
        assert err == f"mimo-mi: error: {self.BAD_GRIDS[argv]}\n"

    @pytest.mark.parametrize(
        "m,n,t,want",
        [
            # about mn/t; both were a float overflow or 0.0 before the
            # closed form was combined exactly
            (2, 2, "1e300", 4e-300),
            (6, 9, "300", 0.17567742220097761),
        ],
    )
    def test_eval_low_snr_value(self, capsys, m, n, t, want):
        code, out, _ = invoke(
            capsys, "eval", "-m", str(m), "-n", str(n), "--t", t, "--format", "json"
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["mi_nats"] == pytest.approx(want, rel=1e-13)
        assert row["err_estimate"] < 1e-13 * row["mi_nats"]

    def test_quadrature_failure_exit_2(self, capsys, monkeypatch):
        from mimo_mi import oracles

        def failing(*args, **kwargs):
            raise oracles.ConvergenceError("integrand not finite on [0.0, inf]")

        monkeypatch.setattr(oracles, "_quad", failing)
        code, out, err = invoke(
            capsys, "eval", "-m", "2", "-n", "2", "--t", "1", "--quadrature"
        )
        assert code == 2
        assert out == ""
        assert err == "mimo-mi: quadrature failure: integrand not finite on [0.0, inf]\n"

    def test_quadrature_at_subnormal_t(self, capsys):
        # lam/t overflows at every node; the quadrature exited 2 here
        values = []
        for extra in ((), ("--quadrature",)):
            code, out, _ = invoke(
                capsys, "eval", "-m", "2", "-n", "2", "--t", "5e-324", *extra,
                "--format", "json",
            )
            assert code == 0
            values.append(json.loads(out)[0]["mi_nats"])
        assert values == [1488.7257125129595] * 2

    def test_eval_tiny_t(self, capsys):
        # -gamma - ln t; the closed form used to need 1,139 bits of Ei here
        code, out, _ = invoke(
            capsys, "eval", "-m", "1", "-n", "1", "--t", "5e-324", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)[0]["mi_nats"] == 743.8628562564797

    def test_negative_grid_after_space(self, capsys):
        base = ("sweep", "-m", "8", "-n", "8", "--format", "csv")
        code, spaced, _ = invoke(capsys, *base, "--snr-db", "-10:40:0.25")
        assert code == 0
        code, joined, _ = invoke(capsys, *base, "--snr-db=-10:40:0.25")
        assert code == 0
        assert spaced == joined
        assert len(spaced.splitlines()) == 1 + 201


class TestMc:
    def test_deterministic_json(self, capsys):
        args = (
            "mc", "-m", "2", "-n", "2",
            "--t", "1.0", "--samples", "1000", "--seed", "42", "--workers", "2",
            "--format", "json",
        )
        code1, out1, _ = invoke(capsys, *args)
        code2, out2, _ = invoke(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        obj = json.loads(out1)
        assert obj["samples"] == 1000 and obj["seed"] == 42

    def test_csv(self, capsys):
        code, out, err = invoke(
            capsys,
            "mc", "-m", "3", "-n", "2",
            "--t", "1.5", "--samples", "4000", "--seed", "11", "--format", "csv",
        )
        assert (code, err) == (0, "")
        report = monte_carlo_mi(ChannelDims(2, 3), 1.5, 4000, seed=11, workers=1)
        header, row = out.splitlines()
        assert header == "m,n,t,samples,mean,std_error,seed,worker_count"
        fields = row.split(",")
        assert fields == [
            "2", "3", "1.5", "4000",
            repr(report.mean), repr(report.std_error), "11", "1",
        ]
        assert float(fields[4]) == report.mean
        assert float(fields[5]) == report.std_error
        assert out.endswith("\n")

    def test_too_few_samples_exit_1(self, capsys):
        code, _, _ = invoke(
            capsys, "mc", "-m", "2", "-n", "2", "--t", "1", "--samples", "10"
        )
        assert code == 1

    def test_workers_beyond_samples_exit_1(self, capsys):
        code, out, err = invoke(
            capsys,
            "mc", "-m", "2", "-n", "2", "--t", "1",
            "--samples", "100", "--workers", "101",
        )
        assert code == 1
        assert out == ""
        assert err == "mimo-mi: error: need 1 <= workers <= samples=100, got 101\n"

    def test_workers_beyond_cap_exit_1(self, capsys):
        code, out, err = invoke(
            capsys,
            "mc", "-m", "2", "-n", "2", "--t", "1",
            "--samples", "100000000", "--workers", "100000000",
        )
        assert code == 1
        assert out == ""
        assert err == "mimo-mi: error: need workers <= 1024, got 100000000\n"


class TestLimits:
    @pytest.mark.parametrize(
        "argv",
        [
            # (stop - start) / step overflows to inf
            ("sweep", "-m", "1", "-n", "1", "--snr-db", "0:1e308:1e-300"),
            # far past the table's dims cap
            ("coeffs", "-m", "2", "-n", "99999999999999999999"),
            # ln det(I + H H*/t) overflows: nan, then inf, mean
            ("mc", "-m", "4", "-n", "6", "--t", "1e-307", "--samples", "200000"),
            ("mc", "-m", "4", "-n", "6", "--t", "1e-320", "--samples", "100"),
            ("verify", "-m", "2", "-n", "2", "--t", "1e-320"),
            # within the draw cap, but billions of row steps in tiny blocks
            (
                "mc", "-m", "4000000", "-n", "4000000", "--t", "1",
                "--samples", "1000", "--workers", "1000",
            ),
            (
                "verify", "-m", "20000000", "-n", "20000000", "--t", "1",
                "--mc-samples", "100",
            ),
        ],
    )
    def test_hostile_input_exit_1(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("mimo-mi: error: ")

    @pytest.mark.parametrize("command", ["coeffs", "render", "eval", "quadrature"])
    def test_dims_cap_exit_1(self, capsys, command):
        argv = {
            "eval": ("eval", "--t", "1"),
            "quadrature": ("eval", "--t", "1", "--quadrature"),
        }.get(command, (command,))
        code, out, err = invoke(capsys, *argv, "-m", "1200", "-n", "1200")
        assert code == 1
        assert out == ""
        assert err == (
            "mimo-mi: error: the 1200 x 1200 table is too large to build: "
            "(n+m-2)^2 ((n+m-2) + 18m) is above 1.2e+11, about 10 s of work\n"
        )

    @pytest.mark.parametrize(
        "m, n", [(1, 90000), (1, 100000), (2, 100000), (5, 100000), (1, 10**12)]
    )
    def test_quadrature_beyond_dims_cap_exit_1(self, capsys, monkeypatch, m, n):
        # the rule stepped over the narrow density and printed about 1e-26,
        # or (1 x 10^12) tried to allocate 14.6 TiB
        monkeypatch.setattr(mimo_mi.oracles, "_quad", lambda *a: pytest.fail("_quad ran"))
        code, out, err = invoke(
            capsys, "eval", "-m", str(m), "-n", str(n), "--t", "1e-3", "1", "1e3",
            "--quadrature",
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"mimo-mi: error: the {m} x {n} table is too large")

    def test_grid_point_cap(self):
        with pytest.raises(ValueError, match="more than 1000000 points"):
            cli._parse_grid("0:1000000:1")
        assert len(cli._parse_grid("0:999999:1")) == 10**6


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
class TestDigitLimit:
    """A table whose integers exceed the interpreter's int-to-str limit is
    a plain exit 1 that names the limit, not CPython's advice to call
    sys.set_int_max_str_digits()."""

    @pytest.fixture
    def limit_640(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("command", ["coeffs", "render"])
    def test_table_beyond_limit_exit_1(self, capsys, limit_640, command):
        code, out, err = invoke(capsys, command, "-m", "1", "-n", "400")
        assert code == 1
        assert out == ""
        assert err == (
            "mimo-mi: error: the 1 x 400 table has integers of more than 640 "
            "digits, Python's limit for converting an int to text; "
            "PYTHONINTMAXSTRDIGITS=0 lifts the limit\n"
        )

    def test_check_is_exact(self, limit_640):
        dims = ChannelDims(1, 1)
        cli._check_str_digits(dims, [1, -(10**640 - 1)])
        str(10**640 - 1)  # which Python does print at this limit
        with pytest.raises(ValueError, match="more than 640 digits"):
            cli._check_str_digits(dims, [1, -(10**640)])


class TestOutputFile:
    def test_atomic_write(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code, out, _ = invoke(
            capsys,
            "coeffs", "-m", "2", "-n", "2", "--format", "json",
            "-o", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["m"] == 2
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".mimo-mi-")]
        assert leftovers == []

    @pytest.mark.parametrize(
        "command, target, error",
        [
            pytest.param(
                ("eval", "--t", "1"), "missing/x.csv", errno.ENOENT, id="no-such-dir"
            ),
            pytest.param(("coeffs",), "a_directory", errno.EISDIR, id="a-directory"),
        ],
    )
    def test_unwritable_path_exit_1(self, tmp_path, capsys, command, target, error):
        (tmp_path / "a_directory").mkdir()
        path = str(tmp_path / target)
        code, out, err = invoke(
            capsys, command[0], "-m", "2", "-n", "2", *command[1:], "-o", path
        )
        assert code == 1
        assert out == ""
        assert err == f"mimo-mi: error: cannot write {path}: {os.strerror(error)}\n"
        assert sorted(os.listdir(tmp_path)) == ["a_directory"]
        assert os.listdir(tmp_path / "a_directory") == []

    def test_symlink_keeps_link_and_writes_its_target(self, tmp_path, capsys):
        (tmp_path / "data").mkdir()
        real = tmp_path / "data" / "real.json"
        real.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(real)
        code, out, _ = invoke(
            capsys,
            "coeffs", "-m", "2", "-n", "2", "--format", "json", "-o", str(link),
        )
        assert code == 0
        assert out == ""
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert json.loads(real.read_text())["m"] == 2
        # the temp file went next to the resolved file and was renamed away
        assert sorted(os.listdir(tmp_path)) == ["data", "link.json"]
        assert os.listdir(tmp_path / "data") == ["real.json"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_fifo_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        # daemon: a reader left blocked on a FIFO must not hold up exit
        reader = threading.Thread(
            target=lambda: got.append(fifo.read_text()), daemon=True
        )
        reader.start()
        code, out, _ = invoke(
            capsys,
            "coeffs", "-m", "2", "-n", "2", "--format", "json", "-o", str(fifo),
        )
        reader.join(timeout=10)
        assert code == 0
        assert out == ""
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert len(got) == 1 and json.loads(got[0])["m"] == 2
        assert os.listdir(tmp_path) == ["pipe"]

    @pytest.mark.parametrize(
        "umask, before, after",
        [
            (0o022, None, 0o644),
            (0o077, None, 0o600),
            (0o022, 0o644, 0o644),
            (0o022, 0o640, 0o640),
        ],
        ids=["new-umask-022", "new-umask-077", "replaced-0644", "replaced-0640"],
    )
    def test_file_mode(self, tmp_path, capsys, umask, before, after):
        """A new file gets 0666 less the umask, as open() gives it, and a
        file that is replaced keeps its mode."""
        target = tmp_path / "out.txt"
        if before is not None:
            target.write_text("old\n")
            target.chmod(before)
        old_umask = os.umask(umask)
        try:
            code, _, _ = invoke(capsys, "coeffs", "-m", "2", "-n", "2", "-o", str(target))
        finally:
            os.umask(old_umask)
        assert code == 0
        assert target.read_text().startswith("dims: m=2 n=2")
        assert stat.S_IMODE(target.stat().st_mode) == after

    def test_format_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("MIMO_MI_FORMAT", "json")
        code, out, _ = invoke(capsys, "coeffs", "-m", "2", "-n", "2")
        assert code == 0
        assert json.loads(out)["m"] == 2
        # read again on every call in the same process
        monkeypatch.setenv("MIMO_MI_FORMAT", "csv")
        code, out, _ = invoke(capsys, "coeffs", "-m", "2", "-n", "2")
        assert code == 0
        assert out.splitlines()[0] == "k,a,b"


def _parent_bytes(results, fmt: str) -> str:
    """The output the CLI wrote for `results` before it formatted rows as
    they came: one CSV line per result under the header, json.dumps's
    bytes, or one text line per result, each with the newline the CLI
    ends its output with."""
    rows = [
        {
            "m": r.dims.m,
            "n": r.dims.n,
            # + 0.0 normalizes the negative zero at t = 1
            "snr_db": -10.0 * math.log10(r.t) + 0.0,
            "t": r.t,
            "mi_nats": r.value,
            "method": r.method.value,
            "err_estimate": r.err_estimate,
        }
        for r in results
    ]
    if fmt == "csv":
        return "m,n,snr_db,t,mi_nats,method,err_estimate\n" + "".join(
            f"{d['m']},{d['n']},{d['snr_db']!r},{d['t']!r},"
            f"{d['mi_nats']!r},{d['method']},{d['err_estimate']!r}\n"
            for d in rows
        )
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    return "".join(
        f"m={d['m']} n={d['n']} snr_db={d['snr_db']:.6g} t={d['t']!r} "
        f"mi_nats={d['mi_nats']!r} method={d['method']} "
        f"err<={d['err_estimate']:.3e}\n"
        for d in rows
    )


def _random_ts(m: int, n: int) -> list[float]:
    rng = random.Random(f"streamed/{m}x{n}")
    return [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(10)] + [5e-324, 1.0, 1e300]


class TestStreamedOutput:
    """eval and sweep format each row as it is computed, and write it to
    an -o file as it comes; every byte stays what the whole-list route
    gave."""

    CASES = [
        pytest.param("eval", 1, 1, (), id="eval-1x1"),
        pytest.param("eval", 2, 2, (), id="eval-2x2"),
        pytest.param("eval", 16, 32, (), id="eval-16x32"),
        pytest.param("sweep", 2, 2, ("--snr-db", "-30:40:2.5"), id="sweep-2x2"),
        pytest.param("sweep", 16, 32, ("--snr-db", "-40:40:7"), id="sweep-16x32"),
        pytest.param(
            "eval", 2, 3, ("--t", "0.3", "1", "40", "--quadrature"), id="quadrature"
        ),
    ]

    @pytest.mark.parametrize("command, m, n, extra", CASES)
    def test_bytes_equal_the_whole_list_route(self, tmp_path, capsys, command, m, n, extra):
        dims = ChannelDims(m, n)
        table = build_table(dims)
        if "--quadrature" in extra:
            results = [telatar_quadrature(dims, float(t)) for t in extra[1:-1]]
        elif command == "sweep":
            ts = [10.0 ** (-g / 10.0) for g in cli._parse_grid(extra[1])]
            results = [evaluate_closed_form(table, t) for t in ts]
        else:
            ts = _random_ts(m, n)
            extra = ("--t", *map(repr, ts))
            results = [evaluate_closed_form(table, t) for t in ts]
            rule = evaluator._stieltjes_rule(dims, table.b_num, table.denominator)
            routes = {
                evaluator._stieltjes(rule, dims, t, m * n / (t + (m + n) / 2)) is None
                for t in ts
            }
            assert routes == {True, False}
        target = tmp_path / "out"
        for fmt in ("csv", "json", "text"):
            want = _parent_bytes(results, fmt)
            argv = (command, "-m", str(m), "-n", str(n), *extra, "--format", fmt)
            code, out, _ = invoke(capsys, *argv)
            assert code == 0
            assert out == want, fmt
            code, out, _ = invoke(capsys, *argv, "-o", str(target))
            assert (code, out) == (0, "")
            assert target.read_text() == want, fmt

    # t = 1 is computed first; the 1x181 table has no Stieltjes rule, so
    # t = 1e300 then needs more bits than the exact route allows.
    LATE_FAILURE = ("eval", "-m", "1", "-n", "181", "--t", "1", "1e300")

    def test_late_failure_prints_nothing(self, capsys):
        code, out, err = invoke(capsys, *self.LATE_FAILURE)
        assert code == 1
        assert out == ""
        assert err.startswith("mimo-mi: error: t=1e+300 is too large for 1x181")

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    @pytest.mark.parametrize("old", [None, "old bytes\n"], ids=["new", "existing"])
    def test_late_failure_leaves_the_file_as_it_was(self, tmp_path, capsys, fmt, old):
        target = tmp_path / "out"
        if old is not None:
            target.write_text(old)
        code, out, _ = invoke(
            capsys, *self.LATE_FAILURE, "--format", fmt, "-o", str(target)
        )
        assert (code, out) == (1, "")
        assert os.listdir(tmp_path) == ([] if old is None else ["out"])
        if old is not None:
            assert target.read_text() == old

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_file_output_memory_does_not_grow_with_the_grid(self, tmp_path, fmt):
        """What is left per point is the grid's floats, about 70 B; the
        rows and the text took about 410 B (csv) and 800 B (json)."""

        def peak(spec):
            argv = ["sweep", "-m", "2", "-n", "2", "--snr-db", spec]
            tracemalloc.start()
            try:
                assert run(argv + ["--format", fmt, "-o", str(tmp_path / "out")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("-20:29.9:0.1")  # the first call loads what later ones reuse
        small, large = peak("-20:29.9:0.1"), peak("-20:29.98:0.02")  # 500, 2,500
        assert (large - small) / 2000 < 100

    @pytest.mark.parametrize(
        "dims,samples,draws",
        [
            (("-m", "2", "-n", "2"), "99999999999999999999", 299999999999999999997),
            (("-m", "1000000000", "-n", "1000000000"), "100", 199999999900),
        ],
    )
    def test_samples_beyond_draw_cap_exit_1(self, capsys, dims, samples, draws):
        code, out, err = invoke(capsys, "mc", *dims, "--t", "1", "--samples", samples)
        assert (code, out) == (1, "")
        m = dims[1]
        assert err == (
            f"mimo-mi: error: {samples} samples at m={m} take {draws} gamma draws"
            " (2m - 1 each), more than the 10000000000 allowed\n"
        )

    @pytest.mark.parametrize(
        "argv,samples,chunks,m,steps",
        [
            (
                ("mc", "-m", "4000000", "-n", "4000000", "--t", "1",
                 "--samples", "1000", "--workers", "1000"),
                1000, 1000, 4000000, 4000000000,
            ),
            # verify runs Monte Carlo in 4 chunks
            (
                ("verify", "-m", "20000000", "-n", "20000000", "--t", "1",
                 "--mc-samples", "100"),
                100, 4, 20000000, 80000000,
            ),
        ],
    )
    def test_row_steps_beyond_cap_exit_1(
        self, capsys, monkeypatch, argv, samples, chunks, m, steps
    ):
        from mimo_mi import oracles

        def no_chunk(*args):
            raise AssertionError("sampled before validation")

        monkeypatch.setattr(oracles, "_mc_chunk", no_chunk)
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (
            f"mimo-mi: error: {samples} samples in {chunks} chunks at m={m} take"
            f" {steps} row steps (m per block of 8192), more than the 50000000"
            " allowed\n"
        )


class TestVerify:
    def test_targeted_verify_passes(self, capsys):
        code, out, err = invoke(
            capsys, "verify", "-m", "2", "-n", "2", "--t", "1", "--mc-samples", "50000"
        )
        assert (code, err) == (0, "")
        assert out == (
            "PASS  three-way agreement: closed form vs quadrature rel diff 0.000e+00"
            " at m=2 n=2 t=1.0, MC worst 0.32 sigma at m=2 n=2 t=1.0\n"
        )

    def test_large_table_passes(self, capsys):
        code, out, err = invoke(
            capsys, "verify", "-m", "600", "-n", "600", "--t", "1", "--mc-samples", "2000"
        )
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1
        assert out.startswith("PASS  three-way agreement")

    def test_full_suite_passes(self, capsys):
        """Without -m and -n, verify runs each of the six checks once."""
        code, out, err = invoke(capsys, "verify", "--mc-samples", "20000")
        assert (code, err) == (0, "")
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "PASS  reference expressions",
            "PASS  laguerre orthogonality",
            "PASS  log-weighted gamma integral identity",
            "PASS  eigenvalue density",
            "PASS  log-term cancellation identity",
            "PASS  three-way agreement",
        ]
        assert out == (
            "PASS  reference expressions: 5 dims exact\n"
            "PASS  laguerre orthogonality: max err 2.776e-16\n"
            "PASS  log-weighted gamma integral identity: max rel err 7.848e-16\n"
            "PASS  eigenvalue density: form diff 5.315e-15, norm err 2.220e-16,"
            " moment err 2.961e-16\n"
            "PASS  log-term cancellation identity: max rel err 3.966e-12\n"
            "PASS  three-way agreement: closed form vs quadrature rel diff 3.068e-16"
            " at m=2 n=4 t=1.0, MC worst 1.32 sigma at m=2 n=2 t=10.0\n"
        )

    def test_huge_t_gives_a_verdict(self, capsys):
        # the Monte Carlo std_error underflowed to 0.0 here, and the sigma
        # it divides was a ZeroDivisionError
        code, out, err = invoke(
            capsys,
            "verify", "-m", "2", "-n", "2", "--t", "1e200", "--mc-samples", "1000",
        )
        assert code in (0, 2)
        assert "three-way agreement" in out and err == ""

    def test_huge_t_passes(self, capsys):
        # the quadrature oracle was 1.4e-4 off here, and the check failed
        code, out, err = invoke(
            capsys,
            "verify", "-m", "2", "-n", "2", "--t", "1e200", "--mc-samples", "1000",
        )
        assert (code, err) == (0, "")
        assert out.startswith("PASS  three-way agreement")

    @pytest.mark.parametrize("dims", [(), ("-m", "2", "-n", "2", "--t", "1")])
    def test_samples_beyond_draw_cap_exit_1(self, capsys, monkeypatch, dims):
        from mimo_mi import verification

        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran before validation")

        # every oracle the checks call
        oracles = (
            "_quad", "density_moment", "one_point_density", "telatar_quadrature",
            "_upper_gamma",
        )
        for name in oracles:
            monkeypatch.setattr(verification, name, no_quadrature)
        code, out, err = invoke(
            capsys, "verify", *dims, "--mc-samples", "99999999999999999999"
        )
        assert (code, out) == (1, "")
        assert "gamma draws (2m - 1 each), more than the 10000000000 allowed" in err

    def test_usage_error_exit_1(self, capsys):
        for argv, message in [
            (("-m", "2"), "verify needs both -m and -n, or neither"),
            # --t alone ran the whole suite, ignoring it, and exited 0
            (("--t", "5", "--mc-samples", "1000"), "verify --t needs -m and -n"),
        ]:
            code, out, err = invoke(capsys, "verify", *argv)
            assert (code, out, err) == (1, "", f"mimo-mi: error: {message}\n")

    def test_unknown_command_exit_1(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err


_VALID_CALLS = {
    "coeffs": ("-m", "2", "-n", "3"),
    "render": ("-m", "2", "-n", "4", "--format", "json"),
    "eval": ("-m", "2", "-n", "3", "--t", "0.5", "2", "--quadrature"),
    "sweep": ("-m", "3", "-n", "2", "--snr-db", "-10:10:5", "--format", "csv"),
    "mc": ("-m", "2", "-n", "2", "--t", "1", "--samples", "2000", "--seed", "3"),
    "verify": ("-m", "2", "-n", "2", "--t", "1", "--mc-samples", "20000"),
}


def _run_full_parser(argv):
    """run(argv) as if it parsed with the parser of every command."""
    try:
        args = cli._build_parser().parse_args(cli._join_negative_grid(list(argv)))
        return cli._COMMANDS[args.command][2](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"mimo-mi: error: {exc}", file=sys.stderr)
        return 1


# The progs of the parsers the full parser is built from, in order.
_FULL_PARSER = ["mimo-mi", *(f"mimo-mi {name}" for name in cli._COMMANDS)]


class TestParser:
    """run() builds only the parser argv[0] names, and that must not show
    in any output."""

    @pytest.mark.parametrize("command", list(_VALID_CALLS))
    @pytest.mark.parametrize(
        "case",
        [
            ("-h",),
            ("-m", "2"),  # missing -n (verify: a usage error of its own)
            ("-m",),
            ("-m", "2", "-n", "2", "--format", "xml"),
            ("-m", "2", "-n", "2", "--t", "1", "stray"),  # top-level usage line
            ("stray", "--other", "-m", "2", "-n", "2", "--t", "1"),
            ("-m", "2", "-n", "2", "--snr-db", "-10:10:5"),
            "valid",
        ],
    )
    def test_same_as_full_parser(self, capsys, monkeypatch, command, case):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [command, *(_VALID_CALLS[command] if case == "valid" else case)]
        one = invoke(capsys, *argv)
        code = _run_full_parser(argv)
        out = capsys.readouterr()
        assert (code, out.out, out.err) == one

    @pytest.mark.parametrize(
        "argv, built",
        [
            (("eval", "-m", "2", "-n", "2", "--t", "1"), 1),
            (("verify", "-h"), 1),
            # the full parser, with all six command parsers
            (("frobnicate",), 6),
            (("-h",), 6),
            ((), 6),
            # coeffs's parser, then the full one to report the stray "x"
            (("coeffs", "-m", "2", "-n", "2", "x"), 7),
        ],
    )
    def test_builds_only_the_named_subparser(self, capsys, monkeypatch, argv, built):
        """`built` counts the command parsers that run() builds."""
        progs = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            progs.append(kwargs["prog"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        invoke(capsys, *argv)
        assert len([p for p in progs if p != "mimo-mi"]) == built
        if built == 1:
            assert progs == [f"mimo-mi {argv[0]}"]
        else:
            assert progs[-len(_FULL_PARSER) :] == _FULL_PARSER

    @pytest.mark.parametrize("columns", [None, "50", "200"])
    @pytest.mark.parametrize("command", [None, *_VALID_CALLS])
    def test_help_matches_stock_formatter(self, capsys, monkeypatch, command, columns):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        argv = ["-h"] if command is None else [command, "-h"]
        ours = invoke(capsys, *argv)
        monkeypatch.setattr(cli, "_help_formatter", lambda: argparse.HelpFormatter)
        assert invoke(capsys, *argv) == ours


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(mimo_mi.__file__)))
# What only some commands need: none of these may load with the CLI.
_LAZY = (
    "numpy",
    "scipy",
    "mpmath",
    "concurrent.futures",
    "mimo_mi.oracles",
    "mimo_mi.verification",
)


def _fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter importing this package."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


# dataclasses, and inspect, which it loads along with ast, dis and tokenize:
# the record types need neither.
_RECORD_MODULES = ("dataclasses", "inspect")


def test_import_loads_neither_numpy_nor_scipy():
    """Importing the package or the CLI loads none of _LAZY, and neither
    json, fractions, decimal nor _RECORD_MODULES."""
    unloaded = _LAZY + _RECORD_MODULES + ("json", "fractions", "decimal")
    out = _fresh(
        "import sys, mimo_mi, mimo_mi.cli; "
        "assert set(mimo_mi.__all__) <= set(dir(mimo_mi)); "
        f"print(sorted(m for m in {unloaded!r} "
        "if m in sys.modules))"
    )
    assert out.strip() == "[]"
    # the oracles need numpy alone
    out = _fresh(
        "import sys, mimo_mi.cli as cli; "
        "assert cli.run(['eval', '-m', '3', '-n', '5', '--t', '0.5', '--quadrature']) == 0; "
        "assert cli.run(['verify', '-m', '2', '-n', '2', '--t', '1']) == 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert out.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "argv, exact_route",
    [
        (["coeffs", "-m", "4", "-n", "4"], False),
        (["render", "-m", "4", "-n", "6"], False),
        (["mc", "-m", "2", "-n", "4", "--t", "1", "--samples", "2000"], False),
        (["eval", "-m", "4", "-n", "4", "--t", "1", "--quadrature"], False),
        # the Stieltjes route takes t = 10, the exact route (and so Ei) 0.01
        (["eval", "-m", "4", "-n", "4", "--t", "10"], False),
        (["eval", "-m", "4", "-n", "4", "--t", "0.01"], True),
    ],
)
def test_mpmath_loads_only_for_the_exact_route(argv, exact_route):
    """Only the exact route calls Ei, and even it loads no mpmath: Ei is
    computed in-house."""
    out = _fresh(
        "import sys, mimo_mi.cli as cli, mimo_mi.evaluator as ev\n"
        "calls = []\n"
        "ei = ev.ei_exp_scaled\n"
        "ev.ei_exp_scaled = lambda *a: calls.append(a) or ei(*a)\n"
        f"assert cli.run({argv!r}) == 0\n"
        "print(bool(calls), 'mpmath' in sys.modules)"
    )
    assert out.strip().splitlines()[-1] == f"{exact_route} False"


# One call of every command, each route of eval among them: the
# Stieltjes route takes t = 10, the exact route (and so Ei) t = 0.01.
_EVERY_COMMAND = (
    ["coeffs", "-m", "4", "-n", "4"],
    ["render", "-m", "4", "-n", "6"],
    ["eval", "-m", "4", "-n", "4", "--t", "10"],
    ["eval", "-m", "4", "-n", "4", "--t", "0.01"],
    ["eval", "-m", "4", "-n", "4", "--t", "1", "--quadrature"],
    ["sweep", "-m", "2", "-n", "3", "--snr-db", "-10:40:5"],
    ["mc", "-m", "2", "-n", "4", "--t", "1", "--samples", "2000"],
    ["verify", "-m", "2", "-n", "2", "--t", "1", "--mc-samples", "2000"],
)


def test_no_command_loads_mpmath():
    """mpmath is a test dependency only; and numpy loads inspect for the
    oracles, but nothing loads dataclasses."""
    out = _fresh(
        "import sys, mimo_mi.cli as cli\n"
        "loaded_by = []\n"
        f"for argv in {_EVERY_COMMAND!r}:\n"
        "    assert cli.run(argv) == 0, argv\n"
        "    for m in ('mpmath', 'dataclasses'):\n"
        "        if m in sys.modules:\n"
        "            loaded_by.append((argv[0], m))\n"
        "print(loaded_by)"
    )
    assert out.strip().splitlines()[-1] == "[]"


def test_closed_form_commands_load_no_dataclasses_or_inspect():
    """eval and sweep print JSON without the json module, in every format;
    coeffs and render import json only for --format json."""
    cases = [
        (argv + ["--format", fmt], _RECORD_MODULES + ("json",))
        for argv in (
            ["eval", "-m", "4", "-n", "4", "--t", "10", "0.01"],
            ["sweep", "-m", "2", "-n", "3", "--snr-db", "-10:40:5"],
        )
        for fmt in ("csv", "json", "text")
    ] + [
        ([command, "-m", "4", "-n", "6", "--format", fmt], _RECORD_MODULES)
        for command in ("coeffs", "render")
        for fmt in ("csv", "text", "json")
    ]
    out = _fresh(
        "import sys, mimo_mi.cli as cli\n"
        "loaded_by = []\n"
        f"for argv, modules in {cases!r}:\n"
        "    assert cli.run(argv) == 0, argv\n"
        "    loaded = [m for m in modules if m in sys.modules]\n"
        "    if loaded:\n"
        "        loaded_by.append((argv[0], argv[-1], loaded))\n"
        "print(loaded_by)"
    )
    assert out.strip().splitlines()[-1] == "[]"
