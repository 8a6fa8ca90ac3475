"""Acceptance gate: one test per shipped guarantee.

Each test pins the tolerance it enforces; run with ``-v`` to get one
pass/fail line per criterion.  These checks exercise the public API
only, end to end: special-function identities, the two independent
evaluation routes, the equation-of-motion residual, the classical
limit, closed-form bound ratios, norm ordering, the algebraic ratio
route, revival structure, short-time scaling, and byte-level
reproducibility of the batch sweeps.
"""

import math
import time
from time import perf_counter

import numpy as np
import pytest
from scipy.special import erfc

from fracqsl.caputo import SampledSignal, tfse_residual
from fracqsl.jcmodel import JCParams, QubitDynamics, interaction_hamiltonian
from fracqsl.mlfun import (
    MLOrder,
    ml_global,
    ml_series,
    ml_split,
    ml_time_derivative,
    series_radius,
)
from fracqsl.qsl import qsl_point, qsl_ratio_formula
from fracqsl.sweep import SweepSpec, detect_revivals, figure_preset, run_figure, run_sweep


def test_criterion_01_classical_reductions_and_recurrence():
    """Order-1 limit, the erfc closed form, and the index recurrence."""
    rng = np.random.default_rng(11)
    radii = rng.uniform(0.0, 10.0, 100)
    angles = rng.uniform(-math.pi, math.pi, 100)
    for r, phi in zip(radii, angles):
        z = complex(r * math.cos(phi), r * math.sin(phi))
        ref = np.exp(z)
        val = ml_global(MLOrder(1.0), z)
        assert abs(val - ref) <= 1e-10 * (1.0 + abs(ref))
        if abs(z) <= series_radius(1.0):
            val_series = ml_series(MLOrder(1.0), z)
            assert abs(val_series - ref) <= 1e-10 * (1.0 + abs(ref))

    for x in np.linspace(-3.0, 3.0, 61):
        ref = math.exp(x * x) * erfc(-x)
        val = ml_global(MLOrder(0.5), complex(x))
        assert abs(val - ref) <= 1e-8 * (1.0 + abs(ref))

    arg_grid = [
        complex(r * math.cos(phi), r * math.sin(phi))
        for r in (0.3, 1.0, 2.0, 3.0)
        for phi in np.linspace(-math.pi, math.pi, 9)[:-1]
    ]
    for beta in (0.3, 0.5, 0.8):
        for gamma in (0.5, 1.0):
            inv_gamma = 1.0 / math.gamma(gamma)
            for z in arg_grid:
                lhs = ml_global(MLOrder(beta, gamma), z)
                rhs = z * ml_global(MLOrder(beta, beta + gamma), z) + inv_gamma
                assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))


def test_criterion_02_series_vs_split_and_derivative():
    """The two evaluation routes agree; the rate matches differencing."""
    compared = 0
    for beta in (0.3, 0.5, 0.8):
        radius = series_radius(beta)
        for alpha in (0.5, 1.0, 2.0):
            for t in np.linspace(0.1, 2.0, 12):
                z = alpha * (-1j * t) ** beta
                if abs(z) > radius:
                    continue
                series_val = ml_series(MLOrder(beta), z)
                split_val = ml_split(beta, alpha, float(t))
                assert abs(series_val - split_val) <= 1e-6
                compared += 1
    assert compared >= 50

    for beta in (0.3, 0.5, 0.8, 1.0):
        for g in (0.5, 2.0):
            c = g * (-1j) ** beta
            for t in (0.5, 1.5):
                rate = ml_time_derivative(beta, c, t)
                h = 1e-5 * t
                f_hi = ml_global(MLOrder(beta), c * (t + h) ** beta)
                f_lo = ml_global(MLOrder(beta), c * (t - h) ** beta)
                fd = (f_hi - f_lo) / (2.0 * h)
                assert abs(rate - fd) <= 1e-5 * (1.0 + abs(fd))


def test_criterion_03_equation_of_motion_residual():
    """Sampled trajectories satisfy the fractional equation of motion."""
    times = np.linspace(0.0, 1.0, 10001)
    ham = interaction_hamiltonian(0.5, 20)
    for beta, tol in ((1.0, 1e-6), (0.5, 1e-3)):
        engine = QubitDynamics(JCParams(beta=beta, lam=0.5, n=20))
        states = engine.amplitudes(times)
        defect = tfse_residual(beta, ham, SampledSignal(times, states))
        assert defect <= tol, f"beta={beta}: residual {defect} above {tol}"


def test_criterion_04_classical_population_formula():
    """At order 1 the excited population is the squared cosine."""
    ts = np.linspace(0.0, 3.0, 301)
    for lam in (0.3, 0.5, 1.0):
        for n in (0, 20):
            g = lam * math.sqrt(n + 1.0)
            engine = QubitDynamics(JCParams(beta=1.0, lam=lam, n=n))
            rho_ee, _ = engine.populations(ts)
            worst = np.max(np.abs(rho_ee - np.cos(g * ts) ** 2))
            assert worst <= 1e-8, f"lam={lam} n={n}: {worst}"


def _rabi_total_variation(g: float, tau: float) -> float:
    # Closed form of the path length of cos(g t)^2 on [0, tau].
    x = 2.0 * g * tau
    m = math.floor(x / math.pi)
    r = x - m * math.pi
    return 0.5 * (2.0 * m + 1.0 - math.cos(r))


def test_criterion_05_classical_ratio_closed_form():
    """Order-1 bound ratio equals displacement over path length."""
    params = JCParams(beta=1.0, lam=0.5, n=20)
    g = params.coupling
    for tau in (0.5, 1.0, 2.0):
        point = qsl_point(params, tau)
        expected = math.sin(g * tau) ** 2 / _rabi_total_variation(g, tau)
        assert abs(point.ratio_op - expected) <= 1e-6, f"tau={tau}"


def test_criterion_06_monotone_saturation():
    """Monotone population decay saturates the operator-norm bound."""
    presets = [
        JCParams(beta=1.0, lam=0.3, n=0),
        JCParams(beta=0.9, lam=0.1, n=3),
        JCParams(beta=0.8, lam=0.05, n=0),
    ]
    taus = (1.0, 2.0, 2.0)
    for params, tau in zip(presets, taus):
        point = qsl_point(params, tau)
        assert point.ratio_op == pytest.approx(1.0, abs=1e-9), params


def test_criterion_07_norm_ordering_on_presets():
    """Every preset point orders the norms and the max ratio is the
    operator one, bit for bit."""
    checked = 0
    for fig in ("fig2", "fig3", "fig4", "fig5"):
        for spec in figure_preset(fig):
            grid = spec.grid if spec.axis == "tau" else spec.grid[::8]
            sub = SweepSpec(axis=spec.axis, grid=grid, fixed=spec.fixed)
            for rec in run_sweep(sub):
                assert rec.error is None, rec.error
                p = rec.point
                slack = 1e-9 * (1.0 + p.lambda_tr)
                assert 0.0 <= p.lambda_op <= p.lambda_hs + slack
                assert p.lambda_hs <= p.lambda_tr + slack
                assert p.ratio_max == p.ratio_op
                checked += 1
    assert checked >= 1500


def test_criterion_08_algebraic_ratio_route():
    """The closed-form ratio agrees with the pipeline."""
    rng = np.random.default_rng(20240817)
    accepted = 0
    worst = 0.0
    while accepted < 100:
        beta = float(rng.uniform(0.2, 1.0))
        if abs(beta - 2.0 / 3.0) < 0.005:
            continue
        lam = float(rng.uniform(0.05, 1.0))
        n = int(rng.integers(0, 41))
        tau = float(rng.uniform(0.2, 2.0))
        g = lam * math.sqrt(n + 1.0)
        if g > 0.0 and g ** (1.0 / beta) * tau > 400.0:
            continue
        if rng.uniform() < 0.3:
            a = float(rng.uniform(0.35, 0.93))
            b = math.sqrt(1.0 - a * a)
        else:
            a = b = math.sqrt(0.5)
        params = JCParams(beta=beta, lam=lam, n=n, a=a, b=b)
        pipeline = qsl_point(params, tau)
        formula = qsl_ratio_formula(params, tau)
        diff = abs(pipeline.ratio_op - formula)
        worst = max(worst, diff)
        assert diff <= 1e-8, f"{params} tau={tau}: diff {diff}"
        accepted += 1
    assert worst <= 1e-8


def test_criterion_09_revival_structure():
    """Bound-ratio revivals appear and deepen as the order grows."""
    curves = {}
    for spec in figure_preset("fig2"):
        recs = run_sweep(spec)
        assert all(r.error is None for r in recs)
        curves[spec.fixed["beta"]] = recs
    for beta in (1.0, 0.7):
        count, _ = detect_revivals(curves[beta])
        assert count >= 1, f"beta={beta}"

    def amplitude(recs):
        _, turns = detect_revivals(recs)
        return max((rise for _, rise in turns), default=0.0)

    assert amplitude(curves[1.0]) > amplitude(curves[0.4])


def test_criterion_10_short_time_scaling():
    """The ground population grows as t**(2 beta) at early times.

    The fit window [1e-4, 1e-2] probes the leading power only when the
    correction term g**2 * t**(2 beta) has decayed across it, so the
    coupling is kept small; larger g just narrows the asymptotic window
    without changing the law.
    """
    ts = np.logspace(-4.0, -2.0, 25)
    for beta in (0.3, 0.5, 0.8):
        engine = QubitDynamics(JCParams(beta=beta, lam=0.5, n=0))
        _, rho_gg = engine.populations(ts)
        slope = float(np.polyfit(np.log(ts), np.log(rho_gg), 1)[0])
        assert abs(slope - 2.0 * beta) <= 0.05 * 2.0 * beta, f"beta={beta}: {slope}"


def test_criterion_11_sweep_reproducibility(tmp_path):
    """The largest preset batch is byte-stable across thread counts."""
    start = perf_counter()
    paths1, failures1 = run_figure("fig5", str(tmp_path / "serial"), threads=1)
    paths2, failures2 = run_figure("fig5", str(tmp_path / "pooled"), threads=8)
    elapsed = perf_counter() - start
    assert failures1 == 0 and failures2 == 0
    assert len(paths1) == len(paths2) == 16
    for p1, p2 in zip(paths1, paths2):
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read(), f"{p1} differs from {p2}"
    assert elapsed <= 60.0, f"two batch runs took {elapsed:.1f}s"
