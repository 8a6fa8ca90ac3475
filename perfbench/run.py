"""fracqsl benchmark: one workload per process, tracing off or on.

    python3 perfbench/run.py --workload lambda_sweeps --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  With ``--trace 0`` it prints the end-to-end metrics declared in
``BENCHMARK.json``; with ``--trace 1`` it reruns the same passes under spans
and prints the per-layer metrics.  The line before the result carries the
environment and run details.  Exit status: 0 when every output passed the
gate, 1 when a check failed (the result then carries no numbers), 2 when
the package source is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("lambda_sweeps", "tau_sweeps", "point_queries")
PROBES = 3
# The probe's query, E_{0.8}(-1.5), summed here from its defining series.
PROBE_VALUE = sum((-1.5) ** k / math.gamma(0.8 * k + 1.0) for k in range(80))


def declared() -> dict:
    """BENCHMARK.json's metric units, keyed by trace mode (0 or 1) and name."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {
        mode: {m["name"]: m["unit"] for m in doc[key]}
        for mode, key in ((0, "end_to_end"), (1, "per_layer"))
    }


def _blas() -> tuple[str | None, int | None]:
    """OpenBLAS build string and thread count of the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None, None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            try:
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                get_config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            return get_config().decode(), int(get_threads())
    return None, None


def _git_commit() -> str | None:
    try:
        # The ceiling keeps git from searching directories above the checkout.
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None


def _src_digest() -> str:
    """SHA-256 over the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "fracqsl").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import scipy

    blas_config, blas_threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def probe() -> tuple[float, dict, list[str]]:
    """Wall time of one cold CLI start, the child's own timings, problems."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    wall = perf_counter() - start
    if proc.returncode != 0:
        return wall, {}, [f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if Path(doc["module"]).resolve().parent.parent != SRC.resolve():
        problems.append(f"setup probe imported {doc['module']}, not the package under {SRC}")
    value = complex(doc["output"].rsplit("=", 1)[-1].strip())
    if doc["status"] != 0 or not abs(value - PROBE_VALUE) <= 1e-10 * abs(PROBE_VALUE):
        problems.append(f"setup probe answered {doc['output'].strip()!r}, want {PROBE_VALUE!r}")
    return wall, doc, problems


def run_passes(workload, budget: float, min_passes: int) -> list:
    """At least ``min_passes`` passes, then until the next would overrun ``budget`` s."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(workload.run_pass(len(passes)))
        spent = perf_counter() - start
        if len(passes) >= min_passes and spent * (1.0 + 1.0 / len(passes)) > budget:
            return passes


def _percentile_ms(values, q: float) -> float:
    return 1e3 * float(np.percentile(np.asarray(values), q))


def measure(name: str, seed: int, seconds: float, trace: bool, work_dir: str):
    """Run one workload; returns (metrics, problems, attempted, failed, details)."""
    if name == "point_queries":
        workload = workloads.PointQueries(seed)
    else:
        workload = workloads.PresetWorkload(name, work_dir)

    probes = [probe() for _ in range(PROBES)]
    problems = [p for _, _, probs in probes for p in probs]
    if problems:
        return {}, problems, PROBES, PROBES, {}

    if not trace:
        passes = run_passes(workload, seconds, min_passes=2)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        latencies = [x for p in passes for x in p.latencies]
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        metrics = {
            "setup_s": statistics.median(wall for wall, _, _ in probes),
            "wall_s": statistics.median(p.elapsed for p in passes),
            "latency_p50_ms": _percentile_ms(latencies, 50),
            "latency_p90_ms": _percentile_ms(latencies, 90),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - failed) / attempted,
        }
        details = {"passes": len(passes), "latency_samples": len(latencies),
                   "pass_s": [p.elapsed for p in passes]}
        problems = workload.check(passes)
        return metrics, problems, attempted, failed, details

    # Traced run: untraced passes, then, where a sweep can use the pool,
    # pooled and serial passes, and last the untraced passes replayed
    # under spans.
    untraced = run_passes(workload, seconds / 2.0, min_passes=1)
    pool = []
    speedup = 0.0
    if workload.pooled:
        # Serial, pooled, pooled, serial: the first serial pass is the last
        # untraced one, and the order cancels a linear drift of host speed.
        pool = [workload.run_pass(len(untraced) + i, threads=t) for i, t in enumerate((2, 2, 1))]
        serial_s = untraced[-1].elapsed + pool[2].elapsed
        speedup = serial_s / (pool[0].elapsed + pool[1].elapsed)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = [workload.run_pass(p.index) for p in untraced]
    gate = tracing.Tracer()
    with gate.installed():
        problems = workload.check(untraced + pool + traced)
    untraced_s = statistics.median(p.elapsed for p in untraced)
    metrics = tracing.summarize(tracer.spans, len(traced))
    # The closed-form ratio route runs only in the gate, on every fourth qsl
    # query of each checked pass.
    gate_layers = tracing.summarize(gate.spans, len(untraced))
    for key in ("qsl.formula_calls", "qsl.formula_s"):
        metrics[key] = gate_layers[key]
    metrics["sweep.pool2_speedup"] = speedup
    metrics["cli.import_s"] = statistics.median(doc["import_s"] for _, doc, _ in probes)
    metrics["cli.first_query_s"] = statistics.median(doc["first_query_s"] for _, doc, _ in probes)
    metrics["trace.overhead_frac"] = statistics.median(p.elapsed for p in traced) / untraced_s - 1.0
    every = untraced + pool + traced
    details = {
        "untraced_pass_s": [p.elapsed for p in untraced],
        "traced_pass_s": [p.elapsed for p in traced],
        "pool_pass_s": [[p.threads, p.elapsed] for p in pool],
        "spans": len(tracer.spans),
    }
    return metrics, problems, sum(p.attempted for p in every), sum(p.failed for p in every), details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.seconds > 0.0):
        parser.error("--seconds must be positive")
    if not (SRC / "fracqsl" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'fracqsl'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import fracqsl.cli  # noqa: F401  (binds the CLI's names for the tracer)

    env = environment()
    work_dir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    runs_dir = HERE / "_runs"
    work_dir.mkdir(parents=True, exist_ok=True)
    runs_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        metrics, problems, attempted, failed, details = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), str(work_dir)
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if not any(work_dir.parent.iterdir()):
            work_dir.parent.rmdir()
    env["loadavg_end"] = list(os.getloadavg())

    units = declared()[args.trace]
    correct = not problems
    if correct and metrics.keys() != units.keys():
        raise RuntimeError(f"measured and declared metrics differ: {sorted(metrics.keys() ^ units.keys())}")
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()} if correct else {},
    }
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, "details": details, "problems": problems[:50]}
    with open(runs_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    for line in problems[:50]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
