"""Tests for the command line interface."""

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import fracqsl
from fracqsl.cli import _parse_grid, _resolve_threads, main
from fracqsl.errors import InvalidParams


class TestGridParsing:
    def test_range_spec(self):
        np.testing.assert_allclose(_parse_grid("0:1:5"), np.linspace(0.0, 1.0, 5))

    def test_single_point_range(self):
        np.testing.assert_allclose(_parse_grid("2:2:1"), [2.0])

    def test_comma_list(self):
        np.testing.assert_allclose(_parse_grid("0.1,0.5,2"), [0.1, 0.5, 2.0])

    def test_trailing_comma_tolerated(self):
        np.testing.assert_allclose(_parse_grid("1,2,"), [1.0, 2.0])

    def test_malformed_range(self):
        with pytest.raises(InvalidParams):
            _parse_grid("1:2")

    def test_zero_count(self):
        with pytest.raises(InvalidParams):
            _parse_grid("0:1:0")

    def test_malformed_values(self):
        with pytest.raises(InvalidParams):
            _parse_grid("1,two,3")


class TestThreadResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("FRACQSL_THREADS", "4")
        assert _resolve_threads(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("FRACQSL_THREADS", "6")
        assert _resolve_threads(None) == 6

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("FRACQSL_THREADS", raising=False)
        assert _resolve_threads(None) == 1

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("FRACQSL_THREADS", "many")
        with pytest.raises(InvalidParams):
            _resolve_threads(None)

    def test_nonpositive_env_value(self, monkeypatch):
        monkeypatch.setenv("FRACQSL_THREADS", "0")
        with pytest.raises(InvalidParams):
            _resolve_threads(None)


class TestMlCommand:
    def test_exponential_value(self, capsys):
        rc = main(["ml", "-1", "--beta", "1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert repr(math.exp(-1.0)) in out

    def test_two_parameter_value(self, capsys):
        rc = main(["ml", "0", "--beta", "0.5", "--gamma", "2.0"])
        out = capsys.readouterr().out
        assert rc == 0
        value = complex(out.strip().split(" = ")[-1])
        assert value == pytest.approx(1.0 / math.gamma(2.0), abs=1e-15)

    def test_rejects_garbage_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["ml", "one", "--beta", "0.5"])
        assert exc.value.code == 2

    def test_rejects_bad_order(self, capsys):
        rc = main(["ml", "1.0", "--beta", "-0.5"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestEvolveCommand:
    def test_populations_sum_to_one(self, capsys):
        rc = main(["evolve", "--beta", "0.5", "--lambda", "0.5", "--n", "20",
                   "--tau", "1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        total = float(fields["rho_ee"]) + float(fields["rho_gg"])
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_classical_limit(self, capsys):
        rc = main(["evolve", "--beta", "1.0", "--lambda", "0.5", "--n", "0",
                   "--tau", "1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(fields["rho_ee"]) == pytest.approx(math.cos(0.5) ** 2, abs=1e-10)


class TestVerifyCommand:
    def test_passing_residual(self, capsys):
        rc = main(["verify", "--beta", "1.0", "--lambda", "0.5", "--n", "20",
                   "--tau", "1.0", "--grid", "4001", "--tol", "1e-4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ok" in out

    def test_failing_residual_sets_exit_code(self, capsys):
        rc = main(["verify", "--beta", "0.5", "--lambda", "0.5", "--n", "20",
                   "--tau", "1.0", "--grid", "201", "--tol", "1e-12"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out

    def test_unbalanced_weights_note(self, capsys):
        rc = main(["verify", "--beta", "1.0", "--lambda", "0.5", "--n", "0",
                   "--a", "0.8", "--b", "0.6", "--grid", "2001", "--tol", "1e3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "formal superposition" in out

    def test_rejects_tiny_grid(self, capsys):
        rc = main(["verify", "--beta", "0.5", "--grid", "8"])
        assert rc == 2


class TestQslCommand:
    def test_point_fields_as_json(self, capsys):
        rc = main(["qsl", "--beta", "0.7", "--lambda", "0.5", "--n", "20",
                   "--tau", "1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert list(doc) == ["tau", "sin2_bures", "lambda_tr", "lambda_hs",
                             "lambda_op", "ratio_op", "ratio_max"]
        assert doc["lambda_op"] <= doc["lambda_hs"] + 1e-9
        assert doc["lambda_hs"] <= doc["lambda_tr"] + 1e-9
        assert 0.0 <= doc["ratio_op"] <= 1.0 + 1e-9

    def test_window_bound_included_on_request(self, capsys):
        rc = main(["qsl", "--beta", "0.7", "--lambda", "0.5", "--n", "20",
                   "--tau", "1.0", "--tau-d", "0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert 0.0 <= doc["window"]["tau_qsl"] <= 0.5

    def test_invalid_params_exit_code(self, capsys):
        rc = main(["qsl", "--beta", "1.5", "--tau", "1.0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestSweepCommand:
    def test_csv_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "scan.csv"
        rc = main(["sweep", "--axis", "lambda", "--grid", "0:1:5",
                   "--beta", "0.5", "--n", "2", "--tau", "1.0",
                   "--out", str(out_file)])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out_file.read_text())))
        assert rows[0][0] == "axis"
        assert len(rows) == 6

    def test_csv_to_stdout(self, capsys):
        rc = main(["sweep", "--axis", "tau", "--grid", "0.5,1.0",
                   "--beta", "0.8", "--lambda", "0.4", "--n", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("axis,axis_value,tau")
        assert len(out.strip().splitlines()) == 3

    def test_json_format(self, tmp_path):
        out_file = tmp_path / "scan.json"
        rc = main(["sweep", "--axis", "beta", "--grid", "0.5,1.0",
                   "--lambda", "0.4", "--n", "1", "--tau", "1.0",
                   "--format", "json", "--out", str(out_file)])
        assert rc == 0
        doc = json.loads(out_file.read_text())
        assert len(doc["records"]) == 2

    def test_failed_points_set_exit_code(self, tmp_path, capsys):
        out_file = tmp_path / "scan.csv"
        rc = main(["sweep", "--axis", "lambda", "--grid", "0.5,2.0",
                   "--beta", "0.5", "--n", "1", "--tau", "1.0",
                   "--out", str(out_file)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "1 of 2 points failed" in err
        assert "InvalidParams" in out_file.read_text()

    def test_missing_fixed_parameter(self, capsys):
        rc = main(["sweep", "--axis", "lambda", "--grid", "0:1:3",
                   "--beta", "0.5", "--n", "1"])
        assert rc == 2
        assert "--tau is required" in capsys.readouterr().err

    def test_value_for_swept_axis_rejected(self, capsys):
        rc = main(["sweep", "--axis", "tau", "--grid", "0.5,1.0",
                   "--beta", "0.8", "--lambda", "0.4", "--n", "1", "--tau", "7"])
        assert rc == 2
        assert "sweep axis and cannot be fixed" in capsys.readouterr().err
        rc = main(["sweep", "--axis", "n", "--grid", "1,2",
                   "--beta", "0.8", "--lambda", "0.4", "--n", "3", "--tau", "1.0"])
        assert rc == 2
        assert "sweep axis and cannot be fixed" in capsys.readouterr().err

    def test_env_threads_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACQSL_THREADS", "3")
        out_file = tmp_path / "scan.csv"
        rc = main(["sweep", "--axis", "lambda", "--grid", "0:1:4",
                   "--beta", "0.5", "--n", "1", "--tau", "1.0",
                   "--out", str(out_file)])
        assert rc == 0


class TestFigureCommand:
    def test_fig4_batch(self, tmp_path, capsys):
        out_dir = tmp_path / "fig4"
        rc = main(["figure", "fig4", "--out", str(out_dir), "--threads", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wrote 4 files" in out
        assert (out_dir / "manifest.json").exists()
        assert (out_dir / "fig4_lam0p3.csv").exists()

    def test_unknown_figure_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig7"])
        assert exc.value.code == 2


class TestEntryPoint:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "fracqsl" in capsys.readouterr().out

    def test_console_script(self):
        # Without an installed script, run the same entry point it wraps.
        command = ["fracqsl"]
        env = None
        if shutil.which("fracqsl") is None:
            command = [sys.executable, "-c", "from fracqsl.cli import run; run()"]
            src = os.path.dirname(os.path.dirname(fracqsl.__file__))
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
        proc = subprocess.run(
            command + ["ml", "0", "--beta", "0.5"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0
        assert "1.0" in proc.stdout
