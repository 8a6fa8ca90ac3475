"""Tests for the Mittag-Leffler evaluation routes."""

from __future__ import annotations

import cmath
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, gamma as gamma_fn

from fracqsl.errors import (
    BranchDomain,
    InvalidOrder,
    InvalidParams,
    NonConvergence,
    QuadratureFailure,
)
from fracqsl.mlfun import (
    MLOrder,
    ml_global,
    ml_linear_batch,
    ml_series,
    ml_split,
    ml_time_derivative,
    rgamma,
    series_radius,
)

from oracles import ml_ray_quad, ml_reference


def rel_err(got: complex, want: complex) -> float:
    return abs(got - want) / (1.0 + abs(want))


class TestOrderValidation:
    def test_beta_range(self):
        with pytest.raises(InvalidOrder):
            MLOrder(0.0)
        with pytest.raises(InvalidOrder):
            MLOrder(1.2)
        with pytest.raises(InvalidOrder):
            MLOrder(float("nan"))
        with pytest.raises(InvalidOrder):
            MLOrder(True)

    def test_gamma_range(self):
        with pytest.raises(InvalidOrder):
            MLOrder(0.5, 0.0)
        with pytest.raises(InvalidOrder):
            MLOrder(0.5, -1.0)
        with pytest.raises(InvalidOrder):
            MLOrder(0.5, True)

    def test_defaults(self):
        o = MLOrder(0.5)
        assert o.gamma == 1.0


class TestKnownValues:
    def test_exponential_case(self):
        assert rel_err(ml_global(MLOrder(1.0), 1.0), math.e) < 1e-14

    def test_half_order_real_axis(self):
        # E_{1/2}(x) = exp(x^2) * erfc(-x) on the real line.
        for x in (-2.0, -1.0, -0.25, 0.5, 1.5):
            want = math.exp(x * x) * erfc(-x)
            assert rel_err(ml_global(MLOrder(0.5), x), want) < 1e-10

    def test_half_order_minus_one(self):
        want = math.e * erfc(1.0)
        assert rel_err(ml_global(MLOrder(0.5), -1.0), want) < 1e-12

    def test_zero_argument(self):
        for gamma in (0.4, 1.0, 2.5):
            want = 1.0 / gamma_fn(gamma)
            assert ml_global(MLOrder(0.7, gamma), 0.0) == pytest.approx(want, rel=1e-14)

    def test_small_order_regression(self):
        # Frozen from the high-precision series; exercises a small beta
        # with gamma = beta, the conditioning-critical corner.
        beta = 0.12265198685078257
        z = 1.6964283366802024 - 0.3309409034953064j
        want = 408.5483044653111 - 9.175640463492796j
        got = ml_global(MLOrder(beta, beta), z)
        assert abs(got - want) <= 1e-9 * abs(want)


class TestReciprocalGamma:
    @staticmethod
    def want(x: float) -> float:
        with mp.workdps(40):
            return float(mp.rgamma(mp.mpf(x)))

    def test_matches_mpmath_below_overflow(self):
        # Tiny arguments (math.gamma overflows below ~5.6e-309), a spread
        # over the whole range, and both sides of 171, where 1/Gamma(x)
        # nears the subnormal range.
        rng = np.random.default_rng(17)
        xs = [5e-324, 1e-310, 1e-300, 0.5, 1.0, 2.0, 170.99, 171.0, 171.01, 171.3, 171.59]
        xs += [float(x) for x in np.geomspace(1e-12, 171.5, 60)]
        xs += [float(x) for x in rng.uniform(0.0, 171.6, 200) if x > 0.0]
        for x in xs:
            want = self.want(x)
            assert abs(rgamma(x) - want) <= 2e-15 * want, x

    def test_past_gamma_overflow_is_subnormal_or_zero(self):
        with pytest.raises(OverflowError):
            math.gamma(171.7)
        tiny = sys.float_info.min
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (171.6, 171.7, 172.0, 175.0, 178.0, 180.0, 1e4, 1e300):
                got = rgamma(x)
                assert math.isfinite(got) and 0.0 <= got < tiny, x
                # Absolute error far below the smallest normal double.
                assert abs(got - self.want(x)) <= 1e-12 * tiny, x


class TestSeries:
    def test_matches_reference_inside_radius(self):
        rng = np.random.default_rng(7)
        for beta in (0.3, 0.5, 0.8, 1.0):
            cap = series_radius(beta)
            for _ in range(6):
                r = cap * rng.uniform(0.1, 0.999)
                th = rng.uniform(-math.pi, math.pi)
                z = r * cmath.exp(1j * th)
                for gamma in (0.5, 1.0, beta):
                    want = ml_reference(beta, gamma, z)
                    got = ml_series(MLOrder(beta, gamma), z)
                    assert rel_err(got, want) < 5e-11

    def test_radius_shrinks_with_beta(self):
        assert series_radius(1.0) == 5.0
        assert series_radius(0.3) == pytest.approx(9.0**0.3)
        assert series_radius(0.3) < series_radius(0.5) < series_radius(0.8)

    def test_nonconvergence_far_outside(self):
        with pytest.raises(NonConvergence):
            ml_series(MLOrder(0.3), 30.0 + 0.0j)

    def test_max_terms_budget(self):
        with pytest.raises(NonConvergence, match="did not converge in 600 terms"):
            ml_series(MLOrder(0.1), 2.9)

    def test_rejects_nonfinite_argument(self):
        with pytest.raises(InvalidParams):
            ml_series(MLOrder(0.5), complex("inf"))


class TestGlobalDispatch:
    def test_seam_continuity(self):
        # Both routes must hit the reference on their own side of the
        # series radius, so the dispatch seam introduces no jump beyond
        # the function's own variation.
        for beta in (0.4, 0.7, 1.0):
            cap = series_radius(beta)
            for th in (-2.5, -1.0, 0.4, 2.0, math.pi):
                z_in = 0.9999 * cap * cmath.exp(1j * th)
                z_out = 1.0001 * cap * cmath.exp(1j * th)
                inner = ml_global(MLOrder(beta, 0.8), z_in)
                outer = ml_global(MLOrder(beta, 0.8), z_out)
                want_in = ml_reference(beta, 0.8, z_in)
                want_out = ml_reference(beta, 0.8, z_out)
                assert rel_err(inner, want_in) < 1e-9
                assert rel_err(outer, want_out) < 1e-9

    def test_contour_against_reference_grid(self):
        rng = np.random.default_rng(11)
        for beta in (0.35, 0.6, 0.85):
            for _ in range(8):
                r = rng.uniform(1.2, 2.5) * series_radius(beta)
                th = rng.uniform(-math.pi, math.pi)
                z = r * cmath.exp(1j * th)
                for gamma in (1.0, beta):
                    want = ml_reference(beta, gamma, z)
                    got = ml_global(MLOrder(beta, gamma), z)
                    assert rel_err(got, want) < 1e-10

    def test_exp_overflow_guard(self):
        with pytest.raises(NonConvergence):
            ml_global(MLOrder(1.0), 800.0 + 0.0j)

    @pytest.mark.parametrize("r, frac", [(6.4, 0.9), (6.4, -0.9), (20.0, 0.6)])
    def test_pole_past_double_range_left_of_axis(self, r, frac):
        # At beta = 0.002 the pole |z|**(1/beta) is past double range, but
        # with |arg z| = frac * beta * pi its phase frac * pi lies past
        # pi/2: the residue underflows to 0 and the contour alone is the
        # value.  Oracle: the asymptotic sum -sum z**-k / Gamma(1 - beta*k).
        beta = 0.002
        z = r * cmath.exp(1j * frac * beta * math.pi)
        with mp.workdps(40):
            zm = mp.mpc(z)
            want = complex(-mp.fsum(zm**-k * mp.rgamma(1 - beta * k) for k in range(1, 200)))
        assert abs(ml_global(MLOrder(beta), z) - want) < 1e-13 * abs(want)

    @settings(max_examples=60, deadline=None)
    @given(
        beta=st.floats(0.2, 1.0),
        gamma=st.floats(0.5, 1.5),
        r=st.floats(0.05, 3.0),
        th=st.floats(-math.pi, math.pi),
    )
    def test_recurrence_property(self, beta, gamma, r, th):
        # E_{b,g}(z) = z * E_{b,b+g}(z) + 1/Gamma(g)
        z = r * cmath.exp(1j * th)
        lhs = ml_global(MLOrder(beta, gamma), z)
        rhs = z * ml_global(MLOrder(beta, beta + gamma), z) + 1.0 / gamma_fn(gamma)
        assert abs(lhs - rhs) < 1e-8 * (1.0 + abs(lhs))


class TestSplit:
    def test_beta_one_is_plane_wave(self):
        got = ml_split(1.0, 1.0, 1.0)
        assert got == pytest.approx(cmath.exp(-1j), abs=1e-15)
        assert got.real == pytest.approx(0.5403023058681398, abs=1e-15)
        assert got.imag == pytest.approx(-0.8414709848078965, abs=1e-15)

    @pytest.mark.parametrize("beta", [0.2, 0.4, 0.68, 0.7, 0.9])
    @pytest.mark.parametrize("alpha", [2.2912878474779195, 0.5])
    def test_positive_alpha_grid(self, beta, alpha):
        for t in (0.3, 1.0, 2.7):
            want = ml_ray_quad(beta, 1.0, alpha, t)
            got = ml_split(beta, alpha, t)
            assert rel_err(got, want) < 2e-9

    @pytest.mark.parametrize("beta", [0.7, 0.8, 0.95])
    def test_negative_alpha_grid(self, beta):
        for t in (0.5, 1.5):
            want = ml_ray_quad(beta, 1.0, -1.7, t)
            got = ml_split(beta, -1.7, t)
            assert rel_err(got, want) < 2e-9

    def test_branch_domain_for_low_beta_negative_alpha(self):
        with pytest.raises(BranchDomain):
            ml_split(0.5, -1.0, 1.0)
        with pytest.raises(BranchDomain):
            ml_split(2.0 / 3.0, -1.0, 1.0)

    def test_quadrature_refusal_near_corner(self):
        with pytest.raises(QuadratureFailure):
            ml_split(2.0 / 3.0 + 1e-4, -1.0, 1.0)

    def test_agrees_with_global(self):
        for beta, alpha, t in [(0.5, 2.0, 1.3), (0.8, -1.2, 2.0), (0.3, 0.7, 0.4)]:
            z = alpha * (-1j) ** beta * t**beta
            got = ml_split(beta, alpha, t)
            want = ml_global(MLOrder(beta), z)
            assert rel_err(got, want) < 1e-9

    def test_cut_part_decays(self):
        # The non-oscillatory part must decay monotonically in t.
        from fracqsl.mlfun import _split_parts

        ts = np.linspace(0.2, 4.0, 12)
        mags = []
        for t in ts:
            _, cut = _split_parts(0.5, 1.0, float(t))
            mags.append(abs(cut))
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_input_validation(self):
        with pytest.raises(InvalidParams):
            ml_split(0.5, 0.0, 1.0)
        with pytest.raises(InvalidParams):
            ml_split(0.5, 1.0, 0.0)
        with pytest.raises(InvalidParams):
            ml_split(0.5, 1.0, -2.0)
        with pytest.raises(InvalidOrder):
            ml_split(1.5, 1.0, 1.0)


class TestTimeDerivative:
    def test_exponential_anchor(self):
        # d/dt exp(t) at t = 2.
        got = ml_time_derivative(1.0, 1.0 + 0.0j, 2.0)
        assert rel_err(got, math.e**2) < 1e-12

    def test_zero_coefficient(self):
        assert ml_time_derivative(0.6, 0.0j, 1.0) == 0.0

    @pytest.mark.parametrize("beta", [0.4, 0.7, 1.0])
    def test_matches_finite_difference(self, beta):
        c = 1.3 * cmath.exp(-1j * beta * math.pi / 2.0)
        t = 0.9
        h = 1e-6
        order = MLOrder(beta)
        num = (
            ml_global(order, c * (t + h) ** beta)
            - ml_global(order, c * (t - h) ** beta)
        ) / (2.0 * h)
        got = ml_time_derivative(beta, c, t)
        assert abs(got - num) < 1e-7 * (1.0 + abs(num))

    def test_rejects_nonpositive_time(self):
        with pytest.raises(InvalidParams):
            ml_time_derivative(0.5, 1.0 + 0.0j, 0.0)


class TestLinearBatch:
    def test_matches_scalar_on_physics_ray(self):
        g = 0.5 * math.sqrt(21.0)
        for beta in (0.3, 0.5, 0.8, 1.0):
            cp = g * (-1j) ** beta
            cm = -g * (-1j) ** beta
            ts = np.linspace(0.0, 3.0, 40)
            pairs = [(cp, 1.0), (cm, 1.0), (cp, beta), (cm, beta)]
            got = ml_linear_batch(beta, pairs, ts)
            assert got.shape == (4, 40)
            for row, (c, gamma) in zip(got, pairs):
                order = MLOrder(beta, gamma)
                for k, t in enumerate(ts):
                    want = ml_global(order, c * t**beta)
                    assert rel_err(row[k], want) < 5e-9

    def test_time_zero_value(self):
        got = ml_linear_batch(0.6, [(1.0 + 0.0j, 1.0), (2.0j, 0.6)], np.array([0.0]))
        assert got[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert got[1, 0] == pytest.approx(1.0 / gamma_fn(0.6), abs=1e-12)

    def test_near_corner_uses_contour(self):
        # Root angle ~0.016 rad: the shared mesh refuses this coefficient
        # and the batch falls back to the contour per point.
        beta = 0.67
        c = -1.5 * (-1j) ** beta
        ts = np.array([0.8, 1.6, 2.4])
        got = ml_linear_batch(beta, [(c, 1.0)], ts)
        for k, t in enumerate(ts):
            want = ml_ray_quad(beta, 1.0, -1.5, float(t))
            assert rel_err(got[0, k], want) < 1e-8

    def test_zoom_panel_region(self):
        # Root angle ~0.063 rad: stays on the mesh with zoom panels.
        beta = 0.68
        ts = np.geomspace(0.3, 3.0, 17)
        got = ml_linear_batch(beta, [(-2.0 * (-1j) ** beta, 1.0)], ts)
        for k, t in enumerate(ts):
            want = ml_ray_quad(beta, 1.0, -2.0, float(t))
            assert rel_err(got[0, k], want) < 1e-8

    def test_zero_coefficient_row(self):
        got = ml_linear_batch(0.5, [(0.0j, 1.0)], np.linspace(0.0, 2.0, 5))
        assert np.allclose(got[0], 1.0)

    def test_beta_one_rows(self):
        ts = np.linspace(0.0, 2.0, 9)
        got = ml_linear_batch(1.0, [(1.5j, 1.0), (-0.5 + 0.0j, 1.0)], ts)
        assert np.allclose(got[0], np.exp(1.5j * ts))
        assert np.allclose(got[1], np.exp(-0.5 * ts))

    def test_rejects_nonpositive_gamma(self):
        for gamma in (0.0, -0.5, math.nan):
            with pytest.raises(InvalidOrder):
                ml_linear_batch(0.5, [(1.0j, 1.0), (1.0j, gamma)], [1.0])

    def test_rejects_negative_times(self):
        with pytest.raises(InvalidParams):
            ml_linear_batch(0.5, [(1.0j, 1.0)], np.array([-0.1, 1.0]))

    def test_residue_overflow_is_refused_without_warnings(self):
        # exp(8**(1/0.3) * 30) is far beyond double range: the mesh route
        # refuses the residue before numpy overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonConvergence, match="residue"):
                ml_linear_batch(0.3, [(8.0, 1.0)], [30.0])

    def test_residue_prefactor_overflow_is_refused(self):
        # exp(699) fits in double range, but the gamma = beta prefactor
        # pole**(1 - beta) / beta ~ 9e4 carries the product past it; the
        # gamma = 1 row at the same time stays finite.
        c = 2e6**0.3
        t = [699.0 / 2e6]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert ml_linear_batch(0.3, [(c, 1.0)], t)[0, 0].real == pytest.approx(
                1.2437e304, rel=1e-4
            )
            with pytest.raises(NonConvergence, match="residue"):
                ml_linear_batch(0.3, [(c, 0.3)], t)

    @pytest.mark.parametrize("beta", [0.15, 0.25])
    def test_mesh_rows_at_small_order(self, beta):
        # gamma = beta and gamma = 1 rows below beta 0.3, on the cut mesh at
        # every time.  A negative alpha has no residue here, so each value
        # is the cut integral alone, whose head starts with one panel from 0.
        # A time alone gets the narrowest mesh (t_lo = t_hi); there the head
        # used to overshoot x_hi at beta 0.15 and cut the integral short.
        alpha = -6.0
        pairs = [(alpha * (-1j) ** beta, gamma) for gamma in (beta, 1.0)]
        ts = np.geomspace(1e-2, 30.0, 9)
        assert np.all(abs(alpha) * ts**beta > series_radius(beta))
        got = ml_linear_batch(beta, pairs, ts)
        for k, t in enumerate(ts):
            alone = ml_linear_batch(beta, pairs, ts[k : k + 1])[:, 0]
            for i, (_, gamma) in enumerate(pairs):
                want = ml_ray_quad(beta, gamma, alpha, float(t))
                assert rel_err(got[i, k], want) < 1e-8
                assert rel_err(alone[i], want) < 1e-8

    @settings(max_examples=40, deadline=None)
    @given(
        beta=st.floats(0.15, 1.0, exclude_max=True),
        polar=st.lists(
            st.tuples(st.floats(0.05, 6.0), st.floats(-math.pi, math.pi)),
            min_size=2,
            max_size=4,
        ),
        fracs=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=12),
    )
    def test_series_values_ignore_batch_mates_property(self, beta, polar, fracs):
        # Pairs alternate gamma = 1 and gamma = beta, so their series tables
        # differ in length; every time lies inside the series radius.
        pairs = [
            (mag * cmath.exp(1j * th), 1.0 if k % 2 == 0 else beta)
            for k, (mag, th) in enumerate(polar)
        ]
        c_max = max(mag for mag, _ in polar)
        ts = np.array([(f * series_radius(beta) / c_max) ** (1.0 / beta) for f in fracs])
        assert np.all(c_max * ts**beta <= series_radius(beta))
        got = ml_linear_batch(beta, pairs, ts)
        for k in range(ts.size):
            assert np.array_equal(got[:, k], ml_linear_batch(beta, pairs, ts[k : k + 1])[:, 0])
        for i, pair in enumerate(pairs):
            assert np.array_equal(got[i], ml_linear_batch(beta, [pair], ts)[0])

    @settings(max_examples=40, deadline=None)
    @given(
        beta=st.floats(0.15, 1.0, exclude_max=True),
        polar=st.lists(
            st.tuples(st.floats(0.05, 6.0), st.floats(-math.pi, math.pi)),
            min_size=1,
            max_size=4,
        ),
        growth=st.lists(st.floats(1.0, 60.0), min_size=1, max_size=12),
        mates=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=12),
    )
    def test_mesh_values_ignore_batch_mates_property(self, beta, polar, growth, mates):
        # Times past the series radius, at up to 60 units of max|c|**(1/beta)
        # * t: every column comes from a cut-mesh window (or the contour for
        # a coefficient near the axis) and must not depend on the batch.
        pairs = [
            (mag * cmath.exp(1j * th), 1.0 if k % 2 == 0 else beta)
            for k, (mag, th) in enumerate(polar)
        ]
        c_max = max(mag for mag, _ in polar)
        radius_time = (series_radius(beta) / c_max) ** (1.0 / beta)
        ts = np.array([radius_time * 1.01 * u for u in growth])
        others = np.array([radius_time * 1.01 * (1.0 + u) for u in mates])
        assert np.all(c_max * ts**beta > series_radius(beta))
        got = ml_linear_batch(beta, pairs, ts)
        mixed = ml_linear_batch(beta, pairs, np.concatenate([others, ts[::-1]]))
        mixed = mixed[:, others.size :][:, ::-1]
        for k in range(ts.size):
            alone = ml_linear_batch(beta, pairs, ts[k : k + 1])[:, 0]
            assert np.array_equal(got[:, k], alone)
            assert np.array_equal(got[:, k], mixed[:, k])

    def test_series_table_is_shared_and_read_only(self):
        from fracqsl.mlfun import _series_coefficients, _window_mesh

        table = _series_coefficients(0.3, 1.0)
        assert _series_coefficients(0.3, 1.0) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0
        # The cut mesh of a time window and its weight columns likewise.
        mesh = _window_mesh(0.3, ((1.5j, 1.0), (-1.5j, 0.3)), 3)
        assert _window_mesh(0.3, ((1.5j, 1.0), (-1.5j, 0.3)), 3) is mesh
        for arr in mesh:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        beta=st.floats(0.25, 1.0),
        mag=st.floats(0.5, 3.0),
        th=st.floats(-2.9, 2.9),
    )
    def test_batch_scalar_agreement_property(self, beta, mag, th):
        c = mag * cmath.exp(1j * th)
        ts = np.array([0.5, 1.1, 2.3])
        got = ml_linear_batch(beta, [(c, 1.0)], ts)
        for k, t in enumerate(ts):
            want = ml_global(MLOrder(beta), c * t**beta)
            assert rel_err(got[0, k], want) < 1e-7
