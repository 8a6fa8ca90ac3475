"""Tests of the benchmark itself: inputs, declared names, and the gate.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_query_stream_is_a_function_of_the_seed():
    assert workloads.make_queries(7, 3) == workloads.make_queries(7, 3)
    assert workloads.make_queries(7, 3) != workloads.make_queries(8, 3)
    assert workloads.make_queries(7, 3) != workloads.make_queries(7, 4)
    kinds = [q.kind for q in workloads.make_queries(7, 3)]
    for kind, pct in workloads.QUERY_MIX:
        assert kinds.count(kind) == workloads.QUERIES_PER_PASS * pct // 100


def test_workloads_are_the_declared_ones():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_emitted_name_is_declared(trace):
    proc = _bench("--workload", "point_queries", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = run.declared()[int(trace)]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tau_sweeps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_failed_check_reports_no_numbers(monkeypatch, capsys):
    def broken(*args):
        return {"wall_s": 1.0}, ["ratio_op off"], 10, 0, {}

    monkeypatch.setattr(run, "measure", broken)
    assert run.main(["--workload", "point_queries", "--seed", "1", "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 10, "failed": 0, "metrics": {}}


def test_gate_rejects_a_wrong_ratio():
    q = workloads.make_queries(5, 0)
    point_q = next(x for x in q if x.kind == "qsl")
    good = workloads.RUNNERS["qsl"](point_q)
    assert workloads._check_query(point_q, good) is None
    bad = dataclasses.replace(good, ratio_op=good.ratio_op * (1.0 - 1e-6))
    assert "closed form" in workloads._check_query(point_q, bad)
    assert workloads._check_query(point_q, bad, closed_form=False) is None


def test_gate_checks_every_fourth_qsl_query_against_the_closed_form(monkeypatch):
    checked = []
    monkeypatch.setattr(workloads, "_check_query",
                        lambda q, result, closed_form=True: checked.append(closed_form))
    queries = [q for q in workloads.make_queries(5, 0) if q.kind == "qsl"][:8]
    p = workloads.Pass(0, 0.0, [], len(queries), 0, outputs=[(q, None) for q in queries])
    assert workloads.PointQueries(5).check([p]) == []
    assert checked == [True, False, False, False] * 2


def test_gate_rejects_a_drifted_curve():
    blob = b"axis,axis_value,tau,sin2_bures,lambda_tr,lambda_hs,lambda_op,ratio_op,ratio_max,error\n"
    blob += b"lambda,0.5,1.0,0.25,1.0,0.7,0.5,0.5,0.5,\n"
    ref = {"axis_value": [0.5], "sin2_bures": [0.25], "lambda_op": [0.5], "ratio_op": [0.5]}
    assert workloads._compare_curve("c", blob, ref) == []
    drifted = dict(ref, ratio_op=[0.5 + 2e-8])
    assert workloads._compare_curve("c", blob, drifted)


def test_only_lambda_sweeps_use_the_pool():
    assert workloads.PresetWorkload("lambda_sweeps", "unused").pooled
    assert not workloads.PresetWorkload("tau_sweeps", "unused").pooled
    assert not workloads.PointQueries(1).pooled


def test_every_preset_pass_writes_its_own_directory(tmp_path, monkeypatch):
    from fracqsl import sweep

    def fake_run_figure(figure, out_dir, threads=1):
        os.makedirs(out_dir)
        with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump({"files": []}, fh)
        return [], 0

    monkeypatch.setattr(sweep, "run_figure", fake_run_figure)
    workload = workloads.PresetWorkload("tau_sweeps", str(tmp_path))
    first, replay = workload.run_pass(0), workload.run_pass(0)
    assert first.outputs != replay.outputs
