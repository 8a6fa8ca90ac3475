"""Tests for the speed-limit bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracqsl import jcmodel
from fracqsl.errors import GridTooCoarse, InvalidParams
from fracqsl.jcmodel import JCParams, QubitDynamics
from fracqsl.qsl import MLMTResult, QslPoint, qsl_curve, qsl_mlmt, qsl_point, qsl_ratio_formula


# (beta, s1): first extremum of the eigenweighted unit-coupling population
# in scaled time g**(1/beta) * tau; pi/2 is the Rabi quarter period.
FIRST_EXTREMUM = [
    (0.2, 3.112996588900212),
    (0.5, 2.2974395736081386),
    (0.8, 1.5396049216536074),
    (1.0, math.pi / 2),
]


def rabi_variation(g: float, tau: float) -> float:
    # Closed form of int_0^tau |d/dt cos^2(g t)| dt.
    x = 2.0 * g * tau
    m = math.floor(x / math.pi)
    return 0.5 * (2.0 * m + 1.0 - math.cos(x - m * math.pi))


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
        # Those multiples are the trace, HS and operator norms of the rate
        # matrix diag(-r, r) of a diagonal qubit state.
        for r in (pt.lambda_op, -0.37, 1e3):
            sv = np.linalg.svd(np.diag([-r, r]), compute_uv=False)
            norms = (float(np.sum(sv)), math.hypot(*sv), float(sv[0]))
            want = (2.0 * abs(r), math.sqrt(2.0) * abs(r), abs(r))
            assert norms == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_zero_coupling_point(self):
        pt = qsl_point(JCParams(beta=0.5, lam=0.0, n=4), 1.0)
        assert pt.ratio_op == 0.0
        assert pt.lambda_op == 0.0
        assert pt.sin2_bures == 0.0
        # Here g**(1/beta) * tau underflows a double; the state moves by
        # about g**2, below double resolution, so the point reads as frozen.
        assert qsl_point(JCParams(beta=0.5, lam=1e-160, n=4), 1.0) == pt

    def test_tau_validation(self):
        p = JCParams(beta=0.5, lam=0.5, n=1)
        with pytest.raises(InvalidParams):
            qsl_point(p, 0.0)
        with pytest.raises(InvalidParams):
            qsl_point(p, -1.0)
        with pytest.raises(InvalidParams):
            qsl_point(p, True)
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

    @settings(max_examples=30, deadline=None)
    @given(
        beta=st.floats(0.2, 1.0),
        a=st.one_of(st.none(), st.floats(0.35, 0.93)),
        draws=st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
                st.integers(0, 40),
                st.floats(0.2, 2.0),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_grouped_curve_matches_pointwise_property(self, beta, a, draws):
        # Criterion 08's domain, non-eigen weights and zero coupling
        # included: one unit-curve pass answers points of different
        # couplings with the bits of their own ``qsl_point``.
        assume(abs(beta - 2.0 / 3.0) >= 0.005)
        weights = {} if a is None else {"a": a, "b": math.sqrt(1.0 - a * a)}
        params = [JCParams(beta=beta, lam=lam, n=n, **weights) for lam, n, _ in draws]
        taus = [tau for _, _, tau in draws]
        assume(max(p.coupling ** (1.0 / beta) * t for p, t in zip(params, taus)) <= 400.0)
        for p, tau, pt in zip(params, taus, qsl_curve(params, taus)):
            assert pt == qsl_point(p, tau)

    def test_grouped_curve_refuses_mixed_groups(self):
        p = JCParams(beta=0.5, lam=0.5, n=2)
        with pytest.raises(InvalidParams):
            qsl_curve([p, JCParams(beta=0.6, lam=0.5, n=2)], [1.0, 1.0])
        with pytest.raises(InvalidParams):
            qsl_curve([p, JCParams(beta=0.5, lam=0.5, n=2, a=0.6, b=0.8)], [1.0, 1.0])
        with pytest.raises(InvalidParams):
            qsl_curve([p], [1.0, 2.0])

    @settings(max_examples=30, deadline=None)
    @given(
        order=st.sampled_from(FIRST_EXTREMUM),
        lam=st.floats(0.05, 1.0),
        n=st.integers(0, 40),
    )
    def test_acceleration_condition(self, order, lam, n):
        # The bound is saturated (ratio 1) exactly until the scaled time
        # g**(1/beta) * tau reaches the unit curve's first extremum s1.
        beta, s1 = order
        p = JCParams(beta=beta, lam=lam, n=n)
        scale = p.coupling ** (1.0 / beta)
        below, above = 0.999 * s1 / scale, 1.001 * s1 / scale
        assume(1e-3 <= below and above <= 1e3)
        assert qsl_point(p, below).ratio_op == 1.0
        assert qsl_point(p, above).ratio_op < 1.0


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

    def test_late_window_matches_rabi_closed_form(self):
        # A window far from 0 whose first lattice cell holds an extremum;
        # a grid that started at the window's start skipped that cell.
        p = JCParams(beta=1.0, lam=1.0, n=0)
        tau, tau_d = 157.0, 1.0
        res = qsl_mlmt(p, tau, tau_d)
        ee = lambda t: math.cos(t) ** 2
        gg = lambda t: math.sin(t) ** 2
        tr_sq = ee(tau) ** 2 + gg(tau) ** 2
        overlap = ee(tau + tau_d) * ee(tau) + gg(tau + tau_d) * gg(tau)
        tv = rabi_variation(1.0, tau + tau_d) - rabi_variation(1.0, tau)
        want = abs(overlap / tr_sq - 1.0) * tr_sq / (tv / tau_d)
        assert res.relative_purity == pytest.approx(overlap / tr_sq, rel=1e-10)
        assert res.avg_sv == pytest.approx(tv / tau_d, rel=1e-10)
        assert res.tau_qsl == pytest.approx(want, rel=1e-10)

    def test_fractional_window_matches_dense_sampling(self):
        # The window variation was about half the dense-sampling value
        # when the window's first cell went unsearched.
        a = 0.35967
        p = JCParams(beta=0.79717, lam=0.95756, n=1, a=a, b=math.sqrt(1.0 - a * a))
        tau, tau_d = 0.88699, 0.55981
        res = qsl_mlmt(p, tau, tau_d)
        ts = np.linspace(tau, tau + tau_d, 400001)
        rho_ee, _ = QubitDynamics(p).populations(ts)
        dense = float(np.sum(np.abs(np.diff(rho_ee))))
        assert res.avg_sv * tau_d == pytest.approx(dense, rel=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        beta=st.floats(0.2, 1.0),
        lam=st.floats(0.05, 1.0),
        n=st.integers(0, 40),
        a=st.one_of(st.none(), st.floats(0.35, 0.93)),
        tau=st.one_of(st.just(0.0), st.floats(0.05, 2.0)),
        tau_d=st.floats(0.05, 1.0),
    )
    def test_window_coupling_time_scale_invariance(self, beta, lam, n, a, tau, tau_d):
        # The window at coupling g is the unit-coupling window at the
        # rescaled times: same purity, speeds times the scale, bound time
        # over it.
        assume(abs(beta - 2.0 / 3.0) >= 0.005)
        scale = (lam * math.sqrt(n + 1.0)) ** (1.0 / beta)
        assume(scale * (tau + tau_d) <= 400.0)
        a = math.sqrt(0.5) if a is None else a
        b = math.sqrt(1.0 - a * a)
        res = qsl_mlmt(JCParams(beta=beta, lam=lam, n=n, a=a, b=b), tau, tau_d)
        unit = qsl_mlmt(JCParams(beta=beta, lam=1.0, n=0, a=a, b=b), scale * tau, scale * tau_d)
        assert res.relative_purity == pytest.approx(unit.relative_purity, rel=0.0, abs=1e-10)
        assert res.avg_sv == pytest.approx(scale * unit.avg_sv, rel=1e-10, abs=0.0)
        assert scale * res.tau_qsl == pytest.approx(
            unit.tau_qsl, rel=1e-10, abs=1e-10 * scale * tau_d
        )

    def test_window_end_past_the_cap_is_refused(self):
        # The window end decides, as for qsl_point at tau + tau_d: the cap
        # of 60000 nodes at 2.55 per radian ends at s = 23529.41...
        p = JCParams(beta=1.0, lam=1.0, n=0)
        for tau, tau_d in [(20000.0, 3529.41), (20000.0, 3529.42), (0.0, 23529.42)]:
            try:
                qsl_point(p, tau + tau_d)
            except GridTooCoarse:
                with pytest.raises(GridTooCoarse):
                    qsl_mlmt(p, tau, tau_d)
            else:
                assert qsl_mlmt(p, tau, tau_d).tau_qsl <= tau_d
        with pytest.raises(GridTooCoarse):
            qsl_point(p, 23529.42)
        # The window start fits under the cap, its end does not.
        p = JCParams(beta=0.2, lam=1.0, n=40)
        for tau in (2.0, 5.0):
            with pytest.raises(GridTooCoarse):
                qsl_mlmt(p, tau, 0.3)

    def test_zero_coupling_window(self):
        # Frozen dynamics: the state never leaves |e, n>.
        res = qsl_mlmt(JCParams(beta=0.5, lam=0.0, n=4), 0.5, 1.0)
        assert res.tau_qsl == 0.0
        assert res.relative_purity == 1.0
        assert res.avg_sv == 0.0

    def test_window_validation(self):
        p = JCParams(beta=0.5, lam=0.5, n=2)
        with pytest.raises(InvalidParams):
            qsl_mlmt(p, -0.1, 0.5)
        with pytest.raises(InvalidParams):
            qsl_mlmt(p, 0.1, 0.0)
        with pytest.raises(InvalidParams):
            qsl_mlmt(p, 0.5, True)
        with pytest.raises(InvalidParams):
            qsl_mlmt(p, True, 0.5)


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
        with pytest.raises(InvalidParams):
            qsl_ratio_formula(JCParams(beta=0.5, lam=0.5, n=2), True)


class TestGridStability:
    def test_ratio_invariant_under_grid_doubling(self, monkeypatch):
        # Extrema are refined to bracket convergence, so the ratio must
        # not depend on the initial sampling density.
        cases = [
            (JCParams(beta=0.5, lam=0.5, n=20), 1.0),
            (JCParams(beta=0.8, lam=0.9, n=40), 2.0),
            (JCParams(beta=0.3, lam=0.4, n=5), 1.5),
        ]
        coarse = [qsl_point(params, tau) for params, tau in cases]
        def interior_nodes():
            nodes = jcmodel.cycle_lattice(1.0, 101.0)
            return nodes[(nodes > 1.0) & (nodes < 101.0)].size

        coarse_nodes = interior_nodes()
        monkeypatch.setattr(jcmodel, "_NODES_PER_RADIAN", 5.1)
        assert interior_nodes() >= 2 * coarse_nodes
        dense = [qsl_point(params, tau) for params, tau in cases]
        for c, d in zip(coarse, dense):
            assert abs(c.ratio_op - d.ratio_op) < 1e-10

    @pytest.mark.parametrize(
        "beta, a, z, s",
        [
            # Two extrema 0.144 rad apart at s = 36.9, 1.1e-6 deep.
            (0.9418401651184181, 0.6913436293422952, 36.9, 39.9),
            # Two extrema 0.126 rad apart at s = 12.
            (0.8786, 0.5858, 12.0, 15.0),
        ],
    )
    def test_extrema_closer_than_a_cell_are_found(self, monkeypatch, beta, a, z, s):
        # Both extrema of such a pair can fall inside one lattice cell,
        # where the rate has one sign at both ends; missing them loses
        # twice the pair's depth from the variation.  A lattice twenty
        # times as dense brackets each pair directly.
        p = JCParams(beta=beta, lam=1.0, n=0, a=a, b=math.sqrt(1.0 - a * a))
        pt = qsl_point(p, s)
        # Points next to the pair read the same probes alone and together.
        taus = [z - 0.3, z - 0.05, z, z + 0.05, z + 0.3, s]
        for tau, got in zip(taus, qsl_curve(p, taus)):
            assert got == qsl_point(p, tau)
        monkeypatch.setattr(jcmodel, "_NODES_PER_RADIAN", 51.0)
        dense = qsl_point(p, s)
        assert pt.lambda_op == pytest.approx(dense.lambda_op, rel=1e-10, abs=0.0)
        assert pt.ratio_op == pytest.approx(dense.ratio_op, rel=1e-10, abs=0.0)

    def test_grid_cap_raises(self):
        # g**(1/beta) * tau ~ 4.3e5 rad needs ~1.1e6 nodes to bracket every
        # extremum; a clamped grid used to alias them without a signal.
        p = JCParams(beta=0.1, lam=0.8, n=20)
        with pytest.raises(GridTooCoarse):
            qsl_point(p, 1.0)
        with pytest.raises(GridTooCoarse):
            qsl_ratio_formula(p, 1.0)
        # Here g**(1/beta) itself overflows a double.
        p = JCParams(beta=0.002, lam=1.0, n=40)
        for bound in (qsl_point, qsl_ratio_formula):
            with pytest.raises(GridTooCoarse):
                bound(p, 1.0)
        with pytest.raises(GridTooCoarse):
            qsl_mlmt(p, 1.0, 1.0)
