import json
import os
import subprocess
import sys

import pytest

import mimo_mi
from mimo_mi import ChannelDims, build_table, render_expression
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


class TestRender:
    def test_2x4(self, capsys):
        code, out, _ = invoke(capsys, "render", "-m", "2", "-n", "4")
        assert code == 0
        assert out.strip() == (
            "1/6 (20 - 6 t - t^2 - t^3 - e^t Ei(-t) "
            "(12 - 12 t + 6 t^2 + 2 t^3 + t^4))"
        )

    def test_round_trip_coeffs_to_render(self, capsys):
        from mimo_mi import CoefficientTable

        code, out, _ = invoke(capsys, "coeffs", "-m", "4", "-n", "6", "--format", "json")
        assert code == 0
        table = CoefficientTable.from_json(out)
        code, rendered, _ = invoke(capsys, "render", "-m", "4", "-n", "6")
        assert rendered.strip() == render_expression(table)


class TestEvalSweep:
    def test_eval_t(self, capsys):
        code, out, _ = invoke(
            capsys, "eval", "-m", "2", "-n", "2", "--t", "1.0", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
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
        assert len(lines) == 4  # inclusive endpoints: 0, 5, 10 dB

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--t", "inf"),
            ("eval", "--t", "nan"),
            ("eval", "--t", "1", "inf"),
            ("sweep", "--snr-db=nan"),
            ("sweep", "--snr-db=-inf"),
            ("sweep", "--snr-db=0:nan:1"),
            ("sweep", "--snr-db", "-4000"),
            ("eval", "--t", "1e300"),
            ("eval", "--t", "inf", "--quadrature"),
            ("mc", "--t", "inf"),
            ("mc", "--t", "nan"),
        ],
    )
    def test_non_finite_or_out_of_range_exit_1(self, capsys, argv):
        code, out, err = invoke(capsys, argv[0], "-m", "2", "-n", "2", *argv[1:])
        assert code == 1
        assert out == ""
        assert err.startswith("mimo-mi: error: ")
        assert "integer ratio" not in err

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

    def test_format_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("MIMO_MI_FORMAT", "json")
        code, out, _ = invoke(capsys, "coeffs", "-m", "2", "-n", "2")
        assert code == 0
        assert json.loads(out)["m"] == 2


class TestVerify:
    def test_targeted_verify_passes(self, capsys):
        code, out, _ = invoke(
            capsys,
            "verify", "-m", "2", "-n", "2",
            "--t", "1", "--rel-tol", "1e-8", "--mc-samples", "50000",
        )
        assert code == 0
        assert "PASS" in out

    def test_usage_error_exit_1(self, capsys):
        code, _, err = invoke(capsys, "verify", "-m", "2")
        assert code == 1

    def test_unknown_command_exit_1(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err


def test_import_loads_neither_numpy_nor_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mimo_mi.__file__)))
    code = (
        "import sys, mimo_mi.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
    # the oracles need numpy alone
    code = (
        "import sys, mimo_mi.cli as cli; "
        "assert cli.run(['eval', '-m', '3', '-n', '5', '--t', '0.5', '--quadrature']) == 0; "
        "assert cli.run(['verify', '-m', '2', '-n', '2', '--t', '1']) == 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"
