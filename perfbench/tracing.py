"""Spans around fracqsl's public functions, installed from outside the package.

Each traced function is rebound at every module attribute of the package
that refers to it (``ml_linear_batch`` is bound in both ``mlfun`` and
``jcmodel``; ``qsl_point`` in ``qsl``, ``sweep`` and ``cli``), so calls
between layers go through the wrapper without any edit to the source.
Spans stay in memory; ``summarize`` turns them into per-layer totals and
self times (span duration minus the time its direct child spans cover).

The tracer keeps one span stack and is meant for single-threaded runs.
"""

from __future__ import annotations

import functools
import os
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Layer span names, in the order they are reported.
BATCH = "mlfun.batch"
SCALAR = "mlfun.scalar"
SAMPLE = "jcmodel.sample"
POINT = "qsl.point"
FORMULA = "qsl.formula"
RESIDUAL = "caputo.residual"
SWEEP = "sweep.sweep"
WRITE = "sweep.write"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _batch_evals(args, kwargs):
    pairs = _arg(args, kwargs, 1, "pairs")
    ts = _arg(args, kwargs, 2, "ts")
    return len(pairs) * np.asarray(ts).size


def _sample_nodes(args, kwargs):
    return np.asarray(_arg(args, kwargs, 1, "times")).size


def _residual_nodes(args, kwargs):
    return np.asarray(_arg(args, kwargs, 2, "trajectory").times).size


def _bytes_written(args, kwargs):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def layer_targets():
    """(span name, owner, attribute, work counter) for every traced entry point.

    The counter runs after the call and returns the work done in it.
    """
    from fracqsl import caputo, jcmodel, mlfun, qsl, sweep

    return [
        (BATCH, mlfun, "ml_linear_batch", _batch_evals),
        (SCALAR, mlfun, "ml_global", None),
        (SAMPLE, jcmodel.QubitDynamics, "population_sample", _sample_nodes),
        (POINT, qsl, "qsl_point", None),
        (FORMULA, qsl, "qsl_ratio_formula", None),
        (RESIDUAL, caputo, "tfse_residual", _residual_nodes),
        (SWEEP, sweep, "run_sweep", None),
        (WRITE, sweep, "write_records", _bytes_written),
    ]


def _bindings(owner, attr):
    """Every (namespace, name) in the package bound to ``owner.attr``."""
    fn = getattr(owner, attr)
    if isinstance(owner, type):
        return [(owner, attr)]
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fracqsl" or mod_name.startswith("fracqsl.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is fn:
                found.append((mod, name))
    return found


class Tracer:
    """Records one span per traced call: [name, start, end, parent, work]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, span, fn, counter):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [span, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if counter is not None:
                    rec[4] = counter(args, kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced function to its span wrapper; restore on exit."""
        saved = []
        try:
            for span, owner, attr, counter in layer_targets():
                wrapper = self.wrap(span, getattr(owner, attr), counter)
                for ns, name in _bindings(owner, attr):
                    saved.append((ns, name, getattr(ns, name)))
                    setattr(ns, name, wrapper)
            yield self
        finally:
            for ns, name, value in reversed(saved):
                setattr(ns, name, value)


def summarize(spans, passes: int) -> dict[str, float]:
    """Per-layer work and time per pass, with self times and ratios."""
    n = len(spans)
    dur = np.array([s[2] - s[1] for s in spans]) if n else np.empty(0)
    child = np.zeros(n)
    parent_name = []
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
        parent_name.append(spans[parent][0] if parent >= 0 else None)

    def select(name):
        return np.array([s[0] == name for s in spans], dtype=bool)

    def calls(name):
        return int(select(name).sum()) / passes

    def total(name):
        return float(dur[select(name)].sum()) / passes

    def self_time(name):
        sel = select(name)
        return float((dur[sel] - child[sel]).sum()) / passes

    def work(name):
        return sum(s[4] for s in spans if s[0] == name) / passes

    point_samples = sum(1 for s, p in zip(spans, parent_name) if s[0] == SAMPLE and p == POINT)
    batch_evals = work(BATCH)
    point_calls = calls(POINT)
    return {
        "mlfun.batch_calls": calls(BATCH),
        "mlfun.batch_evals": batch_evals,
        "mlfun.batch_s": total(BATCH),
        "mlfun.batch_ns_per_eval": 1e9 * total(BATCH) / batch_evals if batch_evals else 0.0,
        "mlfun.scalar_calls": calls(SCALAR),
        "mlfun.scalar_s": total(SCALAR),
        "jcmodel.sample_calls": calls(SAMPLE),
        "jcmodel.sample_nodes": work(SAMPLE),
        "jcmodel.sample_s": total(SAMPLE),
        "jcmodel.sample_self_s": self_time(SAMPLE),
        "qsl.point_calls": point_calls,
        "qsl.point_s": total(POINT),
        "qsl.point_self_s": self_time(POINT),
        "qsl.samples_per_point": point_samples / passes / point_calls if point_calls else 0.0,
        "qsl.formula_calls": calls(FORMULA),
        "qsl.formula_s": total(FORMULA),
        "caputo.residual_calls": calls(RESIDUAL),
        "caputo.residual_nodes": work(RESIDUAL),
        "caputo.residual_s": total(RESIDUAL),
        "sweep.sweep_s": total(SWEEP),
        "sweep.sweep_self_s": self_time(SWEEP),
        "sweep.write_s": total(WRITE),
        "sweep.bytes_written": work(WRITE),
    }
