"""Tests for the speed-limit bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracqsl.errors import GridTooCoarse, InvalidParams, NotPure
from fracqsl.jcmodel import JCParams, QubitDynamics, make_trajectory, reduced_density, evolve
from fracqsl.qsl import (
    MLMTResult,
    QslPoint,
    bures_overlap_term,
    qsl_curve,
    qsl_ml,
    qsl_mlmt,
    qsl_point,
    qsl_ratio_formula,
    schatten_norm,
)


def rabi_variation(g: float, tau: float) -> float:
    # Closed form of int_0^tau |d/dt cos^2(g t)| dt.
    x = 2.0 * g * tau
    m = math.floor(x / math.pi)
    return 0.5 * (2.0 * m + 1.0 - math.cos(x - m * math.pi))


class TestSchattenNorm:
    def test_against_svd(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            s = np.linalg.svd(m, compute_uv=False)
            assert schatten_norm(m, "op") == pytest.approx(s[0], rel=1e-12)
            assert schatten_norm(m, "hs") == pytest.approx(
                math.sqrt(float(np.sum(s**2))), rel=1e-12
            )
            assert schatten_norm(m, "tr") == pytest.approx(float(np.sum(s)), rel=1e-12)

    def test_diagonal_rate_matrix(self):
        # The bound routines rely on these closed forms for diag(-r, r);
        # include population rates of a real trajectory.
        engine = QubitDynamics(JCParams(beta=0.5, lam=0.5, n=20))
        sampled = engine.population_sample(np.linspace(0.0, 2.0, 9))[2][1:]
        for r in [0.0, 1e-300, 1e-160, -0.37, 1e3, 1e200, *sampled]:
            m = np.diag([-r, r])
            assert schatten_norm(m, "op") == pytest.approx(abs(r), rel=1e-14)
            assert schatten_norm(m, "hs") == pytest.approx(math.sqrt(2.0) * abs(r), rel=1e-14)
            assert schatten_norm(m, "tr") == pytest.approx(2.0 * abs(r), rel=1e-14)
        # Without the absolute floor a vanished norm cannot pass for 1e-300.
        tiny = np.diag([-1e-300, 1e-300])
        assert schatten_norm(tiny, "op") == pytest.approx(1e-300, rel=1e-14, abs=0.0)
        assert schatten_norm(tiny, "tr") == pytest.approx(2e-300, rel=1e-14, abs=0.0)

    def test_ordering(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            op = schatten_norm(m, "op")
            hs = schatten_norm(m, "hs")
            tr = schatten_norm(m, "tr")
            assert op <= hs + 1e-12 <= tr + 2e-12

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidParams):
            schatten_norm(np.zeros((3, 3)), "op")
        with pytest.raises(InvalidParams):
            schatten_norm(np.zeros((2, 2)), "nuclear")


class TestBuresTerm:
    def test_excited_start(self):
        rho0 = np.diag([0.0, 1.0])
        rho_tau = np.diag([0.3, 0.7])
        assert bures_overlap_term(rho0, rho_tau) == pytest.approx(0.3, abs=1e-14)

    def test_accepts_model_density(self):
        p = JCParams(beta=1.0, lam=0.5, n=20)
        rho_tau = reduced_density(evolve(p, 1.0))
        rho0 = reduced_density(evolve(p, 0.0))
        got = bures_overlap_term(rho0, rho_tau)
        assert got == pytest.approx(math.sin(p.coupling) ** 2, abs=1e-12)

    def test_rejects_mixed_start(self):
        with pytest.raises(NotPure):
            bures_overlap_term(np.diag([0.5, 0.5]), np.diag([0.3, 0.7]))

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidParams):
            bures_overlap_term(np.diag([0.0, 0.9]), np.diag([0.3, 0.7]))


class TestPointValidation:
    def test_norm_ordering_enforced(self):
        with pytest.raises(InvalidParams):
            QslPoint(
                tau=1.0,
                sin2_bures=0.5,
                lambda_tr=1.0,
                lambda_hs=2.0,
                lambda_op=0.5,
                ratio_op=0.5,
                ratio_max=0.5,
            )

    def test_ratio_bounds_enforced(self):
        with pytest.raises(InvalidParams):
            QslPoint(
                tau=1.0,
                sin2_bures=0.5,
                lambda_tr=2.0,
                lambda_hs=1.5,
                lambda_op=1.0,
                ratio_op=1.5,
                ratio_max=1.5,
            )

    def test_mlmt_validation(self):
        with pytest.raises(InvalidParams):
            MLMTResult(
                tau_qsl=-0.1, relative_purity=1.0, avg_sv=0.1, avg_hs=0.14
            )


class TestGeometricBound:
    def test_integer_order_oracle(self):
        # Piecewise closed form of the variation at beta = 1.
        for lam, tau in [(0.5, 0.5), (0.5, 1.0), (0.5, 2.0), (1.0, 1.7)]:
            p = JCParams(beta=1.0, lam=lam, n=20)
            g = p.coupling
            pt = qsl_point(p, tau)
            want_tv = rabi_variation(g, tau)
            want_sin2 = math.sin(g * tau) ** 2
            assert pt.lambda_op * tau == pytest.approx(want_tv, abs=1e-10)
            assert pt.sin2_bures == pytest.approx(want_sin2, abs=1e-12)
            assert pt.ratio_op == pytest.approx(want_sin2 / want_tv, rel=1e-9)

    def test_monotone_segment_is_exact(self):
        # Inside the first monotone stretch the ratio is exactly 1.
        cases = [
            JCParams(beta=1.0, lam=0.1, n=0),
            JCParams(beta=0.9, lam=0.05, n=0),
            JCParams(beta=0.5, lam=0.1, n=2),
        ]
        for p in cases:
            pt = qsl_point(p, 1.0)
            assert pt.ratio_op == 1.0
            assert pt.ratio_max == 1.0

    def test_norm_scaling(self):
        p = JCParams(beta=0.5, lam=0.5, n=20)
        pt = qsl_point(p, 1.5)
        assert pt.lambda_hs == pytest.approx(math.sqrt(2.0) * pt.lambda_op, rel=1e-14)
        assert pt.lambda_tr == pytest.approx(2.0 * pt.lambda_op, rel=1e-14)
        assert pt.lambda_op <= pt.lambda_hs <= pt.lambda_tr

    def test_zero_coupling_point(self):
        pt = qsl_point(JCParams(beta=0.5, lam=0.0, n=4), 1.0)
        assert pt.ratio_op == 0.0
        assert pt.lambda_op == 0.0
        assert pt.sin2_bures == 0.0

    def test_tau_validation(self):
        p = JCParams(beta=0.5, lam=0.5, n=1)
        with pytest.raises(InvalidParams):
            qsl_point(p, 0.0)
        with pytest.raises(InvalidParams):
            qsl_point(p, -1.0)
        for taus in ([0.5, 0.0], [0.5, math.nan], [], [[0.5]]):
            with pytest.raises(InvalidParams):
                qsl_curve(p, taus)

    @settings(max_examples=15, deadline=None)
    @given(
        beta=st.floats(0.3, 1.0),
        lam=st.floats(0.05, 0.9),
        n=st.integers(0, 30),
        tau=st.floats(0.2, 2.0),
    )
    def test_invariants_hold_generically(self, beta, lam, n, tau):
        if abs(beta - 2.0 / 3.0) < 0.01:
            beta = 0.7
        g = lam * math.sqrt(n + 1)
        if g ** (1.0 / beta) * tau > 300.0:
            return
        pt = qsl_point(JCParams(beta=beta, lam=lam, n=n), tau)
        assert 0.0 <= pt.ratio_op <= 1.0 + 1e-9
        assert pt.lambda_op <= pt.lambda_hs <= pt.lambda_tr
        assert pt.ratio_max == pt.ratio_op

    @settings(max_examples=30, deadline=None)
    @given(
        beta=st.floats(0.2, 1.0),
        lam=st.floats(0.05, 1.0),
        n=st.integers(0, 40),
        tau=st.floats(0.2, 2.0),
    )
    def test_coupling_time_scale_invariance(self, beta, lam, n, tau):
        # The coupling enters only through g**(1/beta) * t, so the point at
        # coupling g equals the unit-coupling point at the rescaled time.
        assume(abs(beta - 2.0 / 3.0) >= 0.005)
        scale = (lam * math.sqrt(n + 1.0)) ** (1.0 / beta)
        assume(scale * tau <= 400.0)
        pt = qsl_point(JCParams(beta=beta, lam=lam, n=n), tau)
        unit = qsl_point(JCParams(beta=beta, lam=1.0, n=0), scale * tau)
        assert 0.0 <= pt.ratio_op <= 1.0
        assert pt.ratio_op == pytest.approx(unit.ratio_op, rel=0.0, abs=1e-10)
        assert pt.lambda_op == pytest.approx(scale * unit.lambda_op, rel=1e-10, abs=0.0)


class TestTrajectoryBound:
    def test_matches_direct_point(self):
        p = JCParams(beta=0.5, lam=0.5, n=20)
        traj = make_trajectory(p, 1.3)
        pt_traj = qsl_ml(traj)
        pt_direct = qsl_point(p, 1.3)
        assert pt_traj.ratio_op == pytest.approx(pt_direct.ratio_op, abs=1e-10)
        assert pt_traj.lambda_op == pytest.approx(pt_direct.lambda_op, abs=1e-10)

    def test_max_rule_identifies_op(self):
        p = JCParams(beta=0.8, lam=0.6, n=10)
        traj = make_trajectory(p, 2.0)
        pt = qsl_ml(traj)
        assert pt.ratio_max == pt.ratio_op


class TestWindowBound:
    def test_bound_below_window(self):
        p = JCParams(beta=0.5, lam=0.5, n=20)
        for tau, tau_d in [(0.0, 0.5), (0.5, 1.0), (1.5, 1.5)]:
            res = qsl_mlmt(p, tau, tau_d)
            assert res.tau_qsl <= tau_d * (1.0 + 1e-9)
            assert res.avg_hs == pytest.approx(
                math.sqrt(2.0) * res.avg_sv, rel=1e-14
            )

    def test_integer_order_window(self):
        # At beta = 1 every window quantity has a closed form.
        p = JCParams(beta=1.0, lam=0.3, n=3)
        g = p.coupling
        tau, tau_d = 0.4, 0.6
        res = qsl_mlmt(p, tau, tau_d)
        ee = lambda t: math.cos(g * t) ** 2
        gg = lambda t: math.sin(g * t) ** 2
        tr_sq = ee(tau) ** 2 + gg(tau) ** 2
        overlap = ee(tau + tau_d) * ee(tau) + gg(tau + tau_d) * gg(tau)
        tv = rabi_variation(g, tau + tau_d) - rabi_variation(g, tau)
        want = abs(overlap / tr_sq - 1.0) * tr_sq / (tv / tau_d)
        assert res.relative_purity == pytest.approx(overlap / tr_sq, rel=1e-10)
        assert res.tau_qsl == pytest.approx(want, rel=1e-8)

    def test_window_validation(self):
        p = JCParams(beta=0.5, lam=0.5, n=2)
        with pytest.raises(InvalidParams):
            qsl_mlmt(p, -0.1, 0.5)
        with pytest.raises(InvalidParams):
            qsl_mlmt(p, 0.1, 0.0)


class TestFormulaRoute:
    def test_agrees_with_pipeline(self):
        cases = [
            JCParams(beta=0.5, lam=0.5, n=20),
            JCParams(beta=0.8, lam=0.3, n=5),
            JCParams(beta=0.35, lam=0.9, n=12),
            JCParams(beta=1.0, lam=0.7, n=8),
            JCParams(beta=0.45, lam=0.6, n=15, a=0.8, b=0.6),
            JCParams(beta=0.75, lam=0.5, n=3, a=0.5, b=math.sqrt(0.75)),
        ]
        for p in cases:
            for tau in (0.4, 1.2):
                r_pipeline = qsl_point(p, tau).ratio_op
                r_formula = qsl_ratio_formula(p, tau)
                assert abs(r_pipeline - r_formula) < 1e-9

    def test_zero_coupling(self):
        assert qsl_ratio_formula(JCParams(beta=0.5, lam=0.0, n=2), 1.0) == 0.0

    def test_tau_validation(self):
        with pytest.raises(InvalidParams):
            qsl_ratio_formula(JCParams(beta=0.5, lam=0.5, n=2), 0.0)


class TestGridStability:
    def test_ratio_invariant_under_grid_doubling(self):
        # Extrema are refined to bracket convergence, so the ratio must
        # not depend on the initial sampling density.
        cases = [
            (JCParams(beta=0.5, lam=0.5, n=20), 1.0),
            (JCParams(beta=0.8, lam=0.9, n=40), 2.0),
            (JCParams(beta=0.3, lam=0.4, n=5), 1.5),
        ]
        for params, tau in cases:
            omega = params.coupling ** (1.0 / params.beta)
            base_n = max(600, int(math.ceil(2.55 * omega * tau)))
            coarse = qsl_ml(make_trajectory(params, tau, num_points=base_n))
            dense = qsl_ml(make_trajectory(params, tau, num_points=2 * base_n))
            assert abs(coarse.ratio_op - dense.ratio_op) < 1e-10

    def test_grid_cap_raises(self):
        # g**(1/beta) * tau ~ 4.3e5 rad needs ~1.1e6 nodes to bracket every
        # extremum; a clamped grid used to alias them without a signal.
        p = JCParams(beta=0.1, lam=0.8, n=20)
        with pytest.raises(GridTooCoarse):
            qsl_point(p, 1.0)
        with pytest.raises(GridTooCoarse):
            qsl_ratio_formula(p, 1.0)
        with pytest.raises(GridTooCoarse):
            make_trajectory(p, 1.0)
