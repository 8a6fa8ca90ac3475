"""The benchmark's workloads and the correctness gate for each.

``lambda_sweeps`` and ``tau_sweeps`` run published presets through
``run_figure``; ``point_queries`` issues a seeded mix of the single-point
requests behind the ``ml``, ``evolve``, ``qsl`` and ``verify`` commands.
Every call into the package goes through a module attribute at call time,
so the tracer's rebinding sees it.
"""

from __future__ import annotations

import cmath
import csv
import gzip
import hashlib
import json
import math
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Gate tolerances: 1e-8 on ratio_op is the acceptance gate's (criterion 08);
# the same relative bound applies to the other stored columns and routes.
RATIO_TOL = 1e-8
REL_TOL = 1e-8

QUERY_MIX = (("ml", 40), ("evolve", 20), ("qsl", 30), ("verify", 10))
QUERIES_PER_PASS = 200
VERIFY_NODES = 2001
# The CLI's default pass threshold for ``verify``.
VERIFY_TOL = 1e-3
# ``qsl_ratio_formula`` costs more than the ``qsl_point`` it checks, so the
# gate compares every fourth ``qsl`` query of a pass with it; checking all
# of them would double the length of a run.
FORMULA_EVERY = 4

PRESETS = {"lambda_sweeps": ("fig5",), "tau_sweeps": ("fig2", "fig4")}
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json.gz")
REFERENCE_COLUMNS = ("sin2_bures", "lambda_op", "ratio_op")


@dataclass
class Pass:
    """One pass of a workload: its wall time, request latencies and outputs."""

    index: int
    elapsed: float
    latencies: list[float]
    attempted: int
    failed: int
    threads: int = 1
    outputs: object = None


# --------------------------------------------------------------------------
# Preset sweeps


class PresetWorkload:
    """Figure presets run serially through ``run_figure`` into a work dir."""

    def __init__(self, name: str, work_dir: str) -> None:
        from fracqsl import sweep

        self.figures = PRESETS[name]
        self.work_dir = work_dir
        # ``run_sweep`` hands tau-axis sweeps to its shared pass, which
        # ignores ``threads``; only sweeps along another axis use the pool.
        self.pooled = any(
            spec.axis != "tau" for fig in self.figures for spec in sweep.figure_preset(fig)
        )
        self._calls = 0

    def run_pass(self, index: int, threads: int = 1) -> Pass:
        from fracqsl import sweep

        # Every call writes to a directory of its own, so that the gate
        # compares distinct outputs, a replay of a pass included.
        out = os.path.join(self.work_dir, f"call{self._calls}-pass{index}-threads{threads}")
        self._calls += 1
        failed = 0
        start = perf_counter()
        for fig in self.figures:
            _, failures = sweep.run_figure(fig, os.path.join(out, fig), threads=threads)
            failed += failures
        elapsed = perf_counter() - start
        attempted = 0
        for fig in self.figures:
            with open(os.path.join(out, fig, "manifest.json"), encoding="utf-8") as fh:
                attempted += sum(e["spec"]["points"] for e in json.load(fh)["files"])
        # The request is the whole batch of presets, as one user waits for it.
        return Pass(index, elapsed, [elapsed], attempted, failed, threads, outputs=out)

    def check(self, passes: list[Pass]) -> list[str]:
        """Failures, cross-pass byte identity, manifests, reference values."""
        problems = []
        for p in passes:
            if p.failed:
                problems.append(f"pass {p.index} (threads {p.threads}): {p.failed} points failed")
        first = passes[0]
        with gzip.open(REFERENCE, "rt", encoding="utf-8") as fh:
            reference = json.load(fh)["curves"]
        for fig in self.figures:
            files = _data_files(os.path.join(first.outputs, fig))
            for p in passes:
                problems += _check_manifest(os.path.join(p.outputs, fig))
                other = _data_files(os.path.join(p.outputs, fig))
                if other != files:
                    changed = sorted(k for k in files.keys() | other.keys()
                                     if files.get(k) != other.get(k))
                    problems.append(
                        f"pass {p.index} (threads {p.threads}) {fig}: bytes differ "
                        f"from pass {first.index} in {changed}"
                    )
            curves = {name.rsplit(".", 1)[0]: blob for name, blob in files.items()}
            expected = {label for label in reference if label.startswith(fig + "_")}
            if curves.keys() != expected:
                problems.append(f"{fig}: curves {sorted(curves)} differ from the reference's {sorted(expected)}")
            for label in sorted(curves.keys() & expected):
                problems += _compare_curve(f"{fig}/{label}", curves[label], reference[label])
        return problems


def _data_files(directory: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".csv"):
            with open(os.path.join(directory, name), "rb") as fh:
                out[name] = fh.read()
    return out


def _check_manifest(directory: str) -> list[str]:
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    problems = []
    for entry in manifest["files"]:
        with open(os.path.join(directory, entry["file"]), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if digest != entry["sha256"]:
            problems.append(f"{directory}/{entry['file']}: manifest digest mismatch")
        if entry["errors"]:
            problems.append(f"{directory}/{entry['file']}: manifest reports {entry['errors']} errors")
    return problems


def _compare_curve(where: str, blob: bytes, ref: dict) -> list[str]:
    rows = list(csv.DictReader(blob.decode("utf-8").splitlines()))
    if [float(r["axis_value"]) for r in rows] != ref["axis_value"]:
        return [f"{where}: axis values differ from the reference"]
    problems = []
    for i, row in enumerate(rows):
        if row["error"]:
            problems.append(f"{where} row {i}: {row['error']}")
            continue
        for col in REFERENCE_COLUMNS:
            got, want = float(row[col]), ref[col][i]
            tol = RATIO_TOL if col == "ratio_op" else REL_TOL * max(1.0, abs(want))
            if not abs(got - want) <= tol:
                problems.append(f"{where} row {i}: {col} {got!r} vs reference {want!r}")
    return problems


# --------------------------------------------------------------------------
# Point queries


@dataclass(frozen=True)
class Query:
    """One single-point request; ``gamma`` and ``z`` are used by ``ml`` only."""

    kind: str
    beta: float
    lam: float
    n: int
    tau: float
    a: float = math.sqrt(0.5)
    b: float = math.sqrt(0.5)
    gamma: float = 1.0
    z: complex = 0j

    def params(self):
        from fracqsl import jcmodel

        return jcmodel.JCParams(beta=self.beta, lam=self.lam, n=self.n, a=self.a, b=self.b)


def _model_draw(
    rng, max_growth: float = 400.0, max_coupling: float = math.inf
) -> tuple[float, float, int, float]:
    """(beta, lam, n, tau) from criterion 08's domain of the acceptance gate.

    ``max_growth`` caps g**(1/beta) * tau, the radians of population cycle
    the window covers (criterion 08 uses 400); ``max_coupling`` caps
    g = lam * sqrt(n + 1).
    """
    while True:
        beta = float(rng.uniform(0.2, 1.0))
        if abs(beta - 2.0 / 3.0) < 0.005:
            continue
        lam = float(rng.uniform(0.05, 1.0))
        n = int(rng.integers(0, 41))
        tau = float(rng.uniform(0.2, 2.0))
        g = lam * math.sqrt(n + 1.0)
        if g <= max_coupling and g ** (1.0 / beta) * tau <= max_growth:
            return beta, lam, n, tau


def _weights_draw(rng) -> tuple[float, float]:
    if rng.uniform() < 0.3:
        a = float(rng.uniform(0.35, 0.93))
        return a, math.sqrt(1.0 - a * a)
    return math.sqrt(0.5), math.sqrt(0.5)


def _draw(kind: str, rng) -> Query:
    if kind == "ml":
        # z = g * tau**beta * e^{i theta}: then Re z**(1/beta) <= 400, so
        # the true value stays below e^400 and fits in a double.
        beta, lam, n, tau = _model_draw(rng)
        gamma = 1.0 if rng.uniform() < 0.5 else beta
        theta = float(rng.uniform(-math.pi, math.pi))
        z = lam * math.sqrt(n + 1.0) * tau**beta * cmath.exp(1j * theta)
        return Query(kind, beta, lam, n, tau, gamma=gamma, z=z)
    if kind == "verify":
        # Balanced weights propagate a true state.  A window of at most one
        # radian (2000 L1 nodes per radian) at g <= 2 keeps the L1
        # discretisation error near half the CLI's 1e-3 threshold (5.5e-4
        # over 2500 draws), so the residual is a pass, not a coin toss.
        return Query(kind, *_model_draw(rng, max_growth=1.0, max_coupling=2.0))
    beta, lam, n, tau = _model_draw(rng)
    a, b = _weights_draw(rng)
    return Query(kind, beta, lam, n, tau, a=a, b=b)


def make_queries(seed: int, index: int) -> list[Query]:
    """Pass ``index`` of the query stream for ``seed``: the exact mix, shuffled."""
    rng = np.random.default_rng([seed % 2**64, index])
    kinds = [kind for kind, pct in QUERY_MIX for _ in range(QUERIES_PER_PASS * pct // 100)]
    rng.shuffle(kinds)
    return [_draw(kind, rng) for kind in kinds]


def _run_ml(q: Query):
    from fracqsl import mlfun

    return mlfun.ml_global(mlfun.MLOrder(q.beta, q.gamma), q.z)


def _run_evolve(q: Query):
    from fracqsl import jcmodel

    engine = jcmodel.QubitDynamics(q.params())
    ts = np.array([q.tau])
    amps = engine.amplitudes(ts)
    rho_ee, rho_gg = engine.populations(ts)
    return complex(amps[0, 0]), complex(amps[0, 1]), float(rho_ee[0]), float(rho_gg[0])


def _run_qsl(q: Query):
    from fracqsl import qsl

    return qsl.qsl_point(q.params(), q.tau)


def _run_verify(q: Query):
    from fracqsl import caputo, jcmodel

    params = q.params()
    engine = jcmodel.QubitDynamics(params)
    times = np.linspace(0.0, q.tau, VERIFY_NODES)
    states = engine.amplitudes(times)
    ham = jcmodel.interaction_hamiltonian(params.lam, params.n)
    defect = caputo.tfse_residual(params.beta, ham, caputo.SampledSignal(times, states))
    return float(defect), complex(states[-1, 0]), complex(states[-1, 1])


RUNNERS = {"ml": _run_ml, "evolve": _run_evolve, "qsl": _run_qsl, "verify": _run_verify}


class PointQueries:
    """Closed loop, one client: each request is issued when the last returns."""

    pooled = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def run_pass(self, index: int) -> Pass:
        from fracqsl.errors import FracQslError

        queries = make_queries(self.seed, index)
        latencies = []
        outputs = []
        failed = 0
        start = perf_counter()
        for q in queries:
            t0 = perf_counter()
            try:
                result = RUNNERS[q.kind](q)
            except FracQslError as exc:
                result = exc
            latencies.append(perf_counter() - t0)
            outputs.append(result)
            # A refused query, or a residual over the verify threshold (the
            # CLI's exit status 1), counts as failed.
            if isinstance(result, Exception) or (q.kind == "verify" and not result[0] <= VERIFY_TOL):
                failed += 1
        elapsed = perf_counter() - start
        return Pass(index, elapsed, latencies, len(queries), failed,
                    outputs=list(zip(queries, outputs)))

    def check(self, passes: list[Pass]) -> list[str]:
        """Each distinct pass against independent routes; replays must match."""
        problems = []
        first = {}
        for p in passes:
            if p.index in first:
                if _comparable(p.outputs) != _comparable(first[p.index].outputs):
                    problems.append(f"pass {p.index}: replay gave different results")
                continue
            first[p.index] = p
            qsl_seen = 0
            for q, result in p.outputs:
                if q.kind == "qsl":
                    qsl_seen += 1
                if isinstance(result, Exception):
                    continue
                problem = _check_query(q, result, closed_form=qsl_seen % FORMULA_EVERY == 1)
                if problem:
                    problems.append(f"pass {p.index} {q}: {problem}")
        return problems


def _comparable(outputs):
    return [(q, repr(r) if isinstance(r, Exception) else r) for q, r in outputs]


def _close(got: complex, want: complex, scale: float) -> bool:
    return abs(got - want) <= REL_TOL * scale


def _check_query(q: Query, result, closed_form: bool = True) -> str | None:
    """What is wrong with ``result``, or None.

    ``closed_form`` asks for a ``qsl`` result to be compared with
    ``qsl_ratio_formula``.
    """
    from fracqsl import jcmodel, mlfun, qsl

    if q.kind == "ml":
        # The batched evaluator: a branch-cut mesh where the scalar route
        # uses its contour, and vectorised Horner where it sums the series.
        want = complex(mlfun.ml_linear_batch(q.beta, [(q.z, q.gamma)], np.array([1.0]))[0, 0])
        if not _close(result, want, abs(want)):
            return f"value {result!r} vs batched route {want!r}"
        return None
    if q.kind == "qsl":
        if closed_form:
            want = qsl.qsl_ratio_formula(q.params(), q.tau)
            if not abs(result.ratio_op - want) <= RATIO_TOL:
                return f"ratio_op {result.ratio_op!r} vs closed form {want!r}"
        if not 0.0 <= result.ratio_op <= 1.0 + RATIO_TOL:
            return f"ratio_op {result.ratio_op!r} outside [0, 1]"
        return None
    # evolve and verify: the final amplitudes against the scalar route.
    ref = jcmodel.evolve(q.params(), q.tau)
    c_g, c_e = result[0:2] if q.kind == "evolve" else result[1:3]
    scale = max(abs(ref.c_g), abs(ref.c_e))
    if not (_close(c_g, ref.c_g, scale) and _close(c_e, ref.c_e, scale)):
        return f"amplitudes ({c_g!r}, {c_e!r}) vs scalar route ({ref.c_g!r}, {ref.c_e!r})"
    if q.kind == "evolve":
        rho_ee, rho_gg = result[2:4]
        want_ee = abs(c_e) ** 2 / (abs(c_g) ** 2 + abs(c_e) ** 2)
        if not (abs(rho_ee + rho_gg - 1.0) <= 1e-12 and abs(rho_ee - want_ee) <= 1e-10):
            return f"populations ({rho_ee!r}, {rho_gg!r}) inconsistent with the amplitudes"
    elif not (math.isfinite(result[0]) and result[0] >= 0.0):
        return f"residual {result[0]!r} is not a finite nonnegative number"
    return None
