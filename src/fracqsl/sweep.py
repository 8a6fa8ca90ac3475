"""Parameter sweeps of the speed-limit bounds and figure-style presets.

A sweep varies one axis (tau, lambda, n, or beta) while the remaining
model parameters stay fixed.  ``SweepSpec`` is the sweep's data: its
``echo`` and ``fingerprint`` identify it, and the output files carry
them.  Results are plain records that keep their row of a checked
``qsl_curve`` table as floats; they serialize to CSV or JSON with
repr-exact floats and no ``QslPoint`` per row, so rerunning a sweep
with the same inputs reproduces the output byte for byte regardless of
the thread count: each group's arithmetic is independent.

Grid values that share (beta, a, b) form one group, answered by one
``qsl_curve`` pass over that group's unit-coupling curve: a tau, lambda
or n sweep is a single group, and every value of a beta sweep is a group
of its own.  ``run_sweep`` spreads the groups over a thread pool when
asked for more than one thread; a failing point is recorded as data
instead of aborting the run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from datetime import datetime, timezone

import numpy as np

from ._version import VERSION
from .errors import InvalidParams, TooFewPoints, UnknownFigure
from .jcmodel import JCParams, scaled_time
from .mlfun import check_time, is_real
from .qsl import QslPoint, qsl_curve

__all__ = [
    "SweepSpec",
    "CurveRecord",
    "run_sweep",
    "figure_preset",
    "detect_revivals",
    "write_records",
    "run_figure",
    "CSV_COLUMNS",
]

_AXES = ("tau", "lambda", "n", "beta")
_AXIS_PARAM = {"tau": "tau", "lambda": "lam", "n": "n", "beta": "beta"}
_FIXED_KEYS = ("beta", "lam", "n", "a", "b", "tau")

_POINT_FIELDS = tuple(f.name for f in fields(QslPoint))
CSV_COLUMNS = ("axis", "axis_value", *_POINT_FIELDS, "error")
_RATIO_OP = _POINT_FIELDS.index("ratio_op")


def _integer(value) -> int:
    """Photon number from an integer-valued real; fractions are rejected."""
    if not (math.isfinite(value) and value == int(value)):
        raise InvalidParams(f"n must be integer-valued, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: the axis, its grid, and the frozen remaining parameters.

    ``grid`` is the explicit, strictly increasing sequence of axis values
    (at least two, all finite); build a linear grid with ``np.linspace``.
    ``fixed`` holds every model parameter the axis does not vary, as real
    numbers; the key for the coupling is ``lam``.  ``n`` must be
    integer-valued and is stored as an int, every other value as a float.
    ``label`` names the output file when the sweep belongs to a figure
    preset.
    """

    axis: str
    grid: np.ndarray
    fixed: dict
    label: str = ""

    def __post_init__(self) -> None:
        if self.axis not in _AXES:
            raise InvalidParams(f"axis must be one of {_AXES}, got {self.axis!r}")
        # Per raw element: float() would take a bool as 0 or 1.
        raw = np.asarray(self.grid, dtype=object)
        if not all(is_real(v) and math.isfinite(v) for v in raw.flat):
            raise InvalidParams("grid values must be finite real numbers")
        grid = raw.astype(float)
        if grid.ndim != 1 or grid.size < 2:
            raise InvalidParams("grid must be a 1-d array of at least 2 values")
        if not np.all(np.diff(grid) > 0.0):
            raise InvalidParams("grid must be strictly increasing")
        if not isinstance(self.fixed, dict):
            raise InvalidParams("fixed must be a dict")
        varied = _AXIS_PARAM[self.axis]
        unknown = set(self.fixed) - set(_FIXED_KEYS)
        if unknown:
            raise InvalidParams(f"unknown fixed parameters: {sorted(unknown)}")
        if varied in self.fixed:
            raise InvalidParams(f"{varied!r} is the sweep axis and cannot be fixed")
        needed = {"beta", "lam", "n", "tau"} - {varied}
        missing = needed - set(self.fixed)
        if missing:
            raise InvalidParams(f"missing fixed parameters: {sorted(missing)}")
        fixed = {}
        for key, value in self.fixed.items():
            if not is_real(value):
                raise InvalidParams(f"fixed {key!r} must be a real number, got {value!r}")
            fixed[key] = _integer(value) if key == "n" else float(value)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "fixed", fixed)

    def params_at(self, value: float) -> tuple[JCParams, float]:
        """Materialize (model parameters, tau) for one axis value."""
        kw, tau = self._inputs_at(value)
        return JCParams(**kw), tau

    def _inputs_at(self, value: float) -> tuple[dict, float]:
        """The ``JCParams`` keywords and the checked tau for one axis value."""
        varied = _AXIS_PARAM[self.axis]
        value = float(value)
        kw = {**self.fixed, varied: value}
        tau = check_time(kw.pop("tau"))
        if varied == "n":
            kw["n"] = _integer(value)
        return kw, tau

    def echo(self) -> dict:
        """JSON-ready echo of the sweep definition."""
        fixed = {k: self.fixed[k] for k in sorted(self.fixed)}
        eigen = abs(
            self.fixed.get("a", math.sqrt(0.5)) - math.sqrt(0.5)
        ) < 1e-12 and abs(self.fixed.get("b", math.sqrt(0.5)) - math.sqrt(0.5)) < 1e-12
        return {
            "axis": self.axis,
            "fixed": fixed,
            "eigenweighted": eigen,
            "points": int(self.grid.size),
            "grid_start": float(self.grid[0]),
            "grid_stop": float(self.grid[-1]),
            "version": VERSION,
        }

    def fingerprint(self) -> str:
        """Hash of the exact inputs: echo, full grid, and label."""
        payload = self.echo()
        payload["grid"] = [repr(float(v)) for v in self.grid]
        payload["label"] = self.label
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class CurveRecord:
    """One sweep point: the axis value and its bound summary.

    ``row`` holds its ``qsl_curve`` row as floats (``QslPoint`` field
    order), or None exactly when ``error`` is set; failures travel as
    data so one bad point cannot abort a long sweep.
    """

    axis_value: float
    row: tuple[float, ...] | None
    error: str | None = None

    @property
    def point(self) -> QslPoint | None:
        """The row as a ``QslPoint``, built on each access."""
        return None if self.row is None else QslPoint(*self.row)


def _error_text(exc: Exception) -> str:
    text = f"{type(exc).__name__}: {exc}"
    return " ".join(text.split())


def run_sweep(spec: SweepSpec, threads: int = 1) -> list[CurveRecord]:
    """Evaluate the sweep, one record per grid value, in grid order.

    Grid values whose parameters share (beta, a, b) form one group,
    answered by one ``qsl_curve`` pass over their unit-coupling curve; a
    tau, lambda or n sweep is one group.  A value whose parameters are
    invalid, or whose scaled time g**(1/beta) * tau is past the grid cap,
    fails alone; a group that raises fails its own values only.
    ``threads`` (a positive integer) sizes the pool the groups are spread
    over; it changes no output bit.
    """
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
        raise InvalidParams(f"threads must be a positive integer, got {threads!r}")
    records: dict[float, CurveRecord] = {}
    groups: dict[tuple[float, float, float], list[tuple[float, JCParams, float]]] = {}
    last_kw = None
    for value in map(float, spec.grid):
        try:
            kw, tau = spec._inputs_at(value)
            # Neighbours with equal model parameters (a whole tau sweep) share one.
            if kw != last_kw:
                params, last_kw = JCParams(**kw), kw
            # Checked per value, so a value past the grid cap fails alone.
            scaled_time(params, tau)
        except Exception as exc:
            records[value] = CurveRecord(axis_value=value, row=None, error=_error_text(exc))
        else:
            key = (params.beta, params.a, params.b)
            groups.setdefault(key, []).append((value, params, tau))

    def run_group(members: list[tuple[float, JCParams, float]]) -> list[CurveRecord]:
        try:
            table = qsl_curve([p for _, p, _ in members], [tau for _, _, tau in members])
        except Exception as exc:
            text = _error_text(exc)
            return [CurveRecord(axis_value=v, row=None, error=text) for v, _, _ in members]
        rows = map(tuple, table.tolist())  # plain floats, printed with repr
        return [CurveRecord(axis_value=v, row=r) for (v, _, _), r in zip(members, rows)]

    if threads > 1 and len(groups) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(run_group, groups.values()))
    else:
        done = [run_group(members) for members in groups.values()]
    for group in done:
        records.update((rec.axis_value, rec) for rec in group)
    return [records[value] for value in map(float, spec.grid)]


def detect_revivals(curve) -> tuple[int, list[tuple[float, float]]]:
    """Count bound-ratio revivals on a sweep curve.

    ``curve`` is the record list from ``run_sweep`` (the ratio_op
    column is examined, and every record must have succeeded) or a bare
    1-d series.  A revival is a strict local minimum followed by a rise
    above 1e-6, measured to the highest later value before the
    next minimum.  Returns the count and the turning points as
    (axis value, rise) pairs; a monotone curve counts zero.  The count
    is only meaningful when the grid resolves the oscillation; an
    aliased curve (cycles comparable to the point count) miscounts at
    any resolution.  Needs at least 8 points.
    """
    if isinstance(curve, np.ndarray) or not (len(curve) and isinstance(curve[0], CurveRecord)):
        vals = np.asarray(curve, dtype=float)
        if vals.ndim != 1:
            raise InvalidParams("series must be 1-d")
        axis_vals = np.arange(vals.size, dtype=float)
    else:
        bad = [r for r in curve if r.error is not None]
        if bad:
            raise InvalidParams(
                f"curve has {len(bad)} failed points; revivals need a clean curve"
            )
        axis_vals = np.array([r.axis_value for r in curve], dtype=float)
        vals = np.array([r.row[_RATIO_OP] for r in curve], dtype=float)
        if not np.all(np.diff(axis_vals) > 0.0):
            raise InvalidParams("curve axis must be strictly increasing")
    if vals.size < 8:
        raise TooFewPoints(f"need at least 8 samples, got {vals.size}")
    if not np.all(np.isfinite(vals)):
        raise InvalidParams("values must be finite")
    interior = np.arange(1, vals.size - 1)
    is_min = (vals[interior] < vals[interior - 1]) & (vals[interior] < vals[interior + 1])
    minima = interior[is_min]
    turns: list[tuple[float, float]] = []
    for pos, idx in enumerate(minima):
        stop = minima[pos + 1] if pos + 1 < minima.size else vals.size
        rise = float(vals[idx:stop].max() - vals[idx])
        if rise > 1e-6:
            turns.append((float(axis_vals[idx]), rise))
    return len(turns), turns


def _fmt_tag(value: float) -> str:
    text = repr(float(value))
    if text.endswith(".0"):
        text = text[:-2]
    return text.replace(".", "p").replace("-", "m")


def figure_preset(figure: str) -> list[SweepSpec]:
    """Sweep collection reproducing one of the four parameter studies.

    fig2: population bound along tau for several fractional orders.
    fig3: bound along the coupling for (order, tau) combinations.
    fig4: bound along tau for several couplings at order 1/2.
    fig5: bound along the coupling for (photon number, order) pairs.
    """
    tau_axis = np.linspace(3.0 / 400.0, 3.0, 400)
    lam_axis = np.linspace(0.0, 1.0, 81)
    if figure == "fig2":
        return [
            SweepSpec(
                axis="tau",
                grid=tau_axis,
                fixed={"beta": beta, "lam": 0.5, "n": 20},
                label=f"fig2_beta{_fmt_tag(beta)}",
            )
            for beta in (0.1, 0.4, 0.7, 1.0)
        ]
    if figure == "fig3":
        return [
            SweepSpec(
                axis="lambda",
                grid=lam_axis,
                fixed={"beta": beta, "n": 40, "tau": tau},
                label=f"fig3_beta{_fmt_tag(beta)}_tau{_fmt_tag(tau)}",
            )
            for beta in (0.2, 0.5, 0.8, 1.0)
            for tau in (0.1, 0.4, 0.7, 1.0)
        ]
    if figure == "fig4":
        return [
            SweepSpec(
                axis="tau",
                grid=tau_axis,
                fixed={"beta": 0.5, "lam": lam, "n": 20},
                label=f"fig4_lam{_fmt_tag(lam)}",
            )
            for lam in (0.3, 0.5, 0.8, 1.0)
        ]
    if figure == "fig5":
        return [
            SweepSpec(
                axis="lambda",
                grid=lam_axis,
                fixed={"beta": beta, "n": n, "tau": 1.0},
                label=f"fig5_n{n}_beta{_fmt_tag(beta)}",
            )
            for n in (0, 5, 10, 20)
            for beta in (0.2, 0.5, 0.8, 1.0)
        ]
    raise UnknownFigure(f"no preset named {figure!r}; know fig2, fig3, fig4, fig5")


def _row(spec: SweepSpec, rec: CurveRecord) -> dict:
    """One output row; a failed record carries no point fields."""
    row = {"axis": spec.axis, "axis_value": rec.axis_value, "error": rec.error}
    if rec.row is not None:
        row.update(zip(_POINT_FIELDS, rec.row))
    return row


def records_to_csv(spec: SweepSpec, records: list[CurveRecord]) -> str:
    """RFC-4180 text; the csv module writes floats as repr, None as empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    blank = (None,) * len(_POINT_FIELDS)
    writer.writerows(
        [spec.axis, rec.axis_value, *(blank if rec.row is None else rec.row), rec.error]
        for rec in records
    )
    return buf.getvalue()


def records_to_json(spec: SweepSpec, records: list[CurveRecord]) -> str:
    rows = [_row(spec, rec) for rec in records]
    doc = {"spec": spec.echo(), "records": rows}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _serializer(fmt: str):
    if fmt not in ("csv", "json"):
        raise InvalidParams(f"unknown format {fmt!r}")
    return records_to_csv if fmt == "csv" else records_to_json


def write_records(
    path: str, spec: SweepSpec, records: list[CurveRecord], fmt: str = "csv"
) -> None:
    text = _serializer(fmt)(spec, records)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _spec_fingerprint(specs: list[SweepSpec]) -> str:
    blob = json.dumps([s.fingerprint() for s in specs]).encode()
    return hashlib.sha256(blob).hexdigest()


def run_figure(
    figure: str,
    out_dir: str,
    threads: int = 1,
    fmt: str = "csv",
) -> tuple[list[str], int]:
    """Run every sweep of a figure preset and write one file per sweep.

    A ``manifest.json`` beside the data files echoes the sweep
    definitions, their content hashes, and a configuration fingerprint
    (timestamp excluded, so reruns agree on it).  Returns the list of
    written data files and the number of failed points.
    """
    specs = figure_preset(figure)
    _serializer(fmt)  # refuses an unknown format before any work
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    paths = []
    for spec in specs:
        records = run_sweep(spec, threads)
        name = f"{spec.label}.{fmt}"
        path = os.path.join(out_dir, name)
        write_records(path, spec, records, fmt)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        entries.append(
            {
                "file": name,
                "sha256": digest,
                "spec": spec.echo(),
                "errors": sum(1 for r in records if r.error is not None),
            }
        )
        paths.append(path)
    manifest = {
        "figure": figure,
        "version": VERSION,
        "config_hash": _spec_fingerprint(specs),
        "created": datetime.now(timezone.utc).isoformat(),
        "files": entries,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths, sum(e["errors"] for e in entries)
