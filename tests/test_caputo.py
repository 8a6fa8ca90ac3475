"""Tests for the L1 Caputo derivative and the evolution residual."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from fracqsl.caputo import (
    SampledSignal,
    caputo_derivative,
    caputo_derivative_all,
    tfse_residual,
)
from fracqsl.errors import GridTooCoarse, InvalidOrder, InvalidParams
from fracqsl.mlfun import ml_linear_batch


def power_signal(n_nodes: int, t_end: float = 1.0, p: float = 2.0) -> SampledSignal:
    times = np.linspace(0.0, t_end, n_nodes)
    return SampledSignal(times, times**p)


def power_caputo(beta: float, t: np.ndarray, p: float = 2.0) -> np.ndarray:
    # D^beta t**p = Gamma(p+1)/Gamma(p+1-beta) * t**(p-beta)
    return gamma_fn(p + 1.0) / gamma_fn(p + 1.0 - beta) * t ** (p - beta)


class TestSignalValidation:
    def test_must_start_at_zero(self):
        with pytest.raises(InvalidParams):
            SampledSignal(np.array([0.1, 0.2, 0.3]), np.zeros(3))

    def test_must_increase(self):
        with pytest.raises(InvalidParams):
            SampledSignal(np.array([0.0, 0.2, 0.2]), np.zeros(3))

    def test_shape_mismatch(self):
        for times, values in [
            (np.array([0.0, 0.1]), np.zeros(3)),
            (np.array([0.0, 1.0, 2.0]), 5.0),
        ]:
            with pytest.raises(InvalidParams):
                SampledSignal(times, values)

    def test_minimum_nodes(self):
        with pytest.raises(InvalidParams):
            SampledSignal(np.array([0.0]), np.zeros(1))


class TestPointwiseL1:
    def test_linear_function_is_exact(self):
        # Piecewise-linear interpolation reproduces f(t) = t exactly, so
        # the only error is rounding.
        sig = power_signal(41, p=1.0)
        for idx in (5, 20, 40):
            t = sig.times[idx]
            want = t**0.6 / gamma_fn(1.6)
            got = caputo_derivative(sig, 0.4, idx)
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.9])
    def test_quadratic_converges(self, beta):
        errs = []
        for n_nodes in (101, 201):
            sig = power_signal(n_nodes)
            idx = n_nodes - 1
            want = power_caputo(beta, sig.times[idx])
            errs.append(abs(caputo_derivative(sig, beta, idx) - want))
        assert errs[0] / errs[1] > 1.8

    def test_beta_one_is_backward_difference(self):
        sig = power_signal(11)
        got = caputo_derivative(sig, 1.0, 10)
        want = (sig.values[10] - sig.values[9]) / (sig.times[10] - sig.times[9])
        assert got == pytest.approx(want, rel=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        times = np.linspace(0.0, 2.0, 33)
        f = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        g = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        a, b = 1.7, -0.4 + 0.2j
        lhs = caputo_derivative(SampledSignal(times, a * f + b * g), 0.6, 20)
        rhs = a * caputo_derivative(SampledSignal(times, f), 0.6, 20) + b * (
            caputo_derivative(SampledSignal(times, g), 0.6, 20)
        )
        assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))

    def test_nonuniform_grid(self):
        # Geometric grids are coarsest near the endpoint, so the local
        # O(h**1.5) truncation dominates there.
        errs = []
        for n_nodes in (400, 800):
            times = np.concatenate([[0.0], np.geomspace(1e-3, 1.0, n_nodes)])
            sig = SampledSignal(times, times**2)
            idx = times.size - 1
            want = power_caputo(0.5, times[idx])
            errs.append(abs(caputo_derivative(sig, 0.5, idx) - want))
        assert errs[1] < 1e-3
        assert errs[0] / errs[1] > 1.8

    def test_history_requirement(self):
        sig = power_signal(11)
        with pytest.raises(GridTooCoarse):
            caputo_derivative(sig, 0.5, 1)
        with pytest.raises(GridTooCoarse):
            caputo_derivative(sig, 0.5, 0)

    def test_index_bounds(self):
        sig = power_signal(11)
        with pytest.raises(InvalidParams):
            caputo_derivative(sig, 0.5, 11)
        with pytest.raises(InvalidParams):
            caputo_derivative(sig, 0.5, 2.5)

    def test_order_validation(self):
        sig = power_signal(11)
        with pytest.raises(InvalidOrder):
            caputo_derivative(sig, 0.0, 5)
        with pytest.raises(InvalidOrder):
            caputo_derivative(sig, 1.1, 5)


class TestBatchL1:
    def test_matches_pointwise_uniform(self):
        # The FFT convolution route must agree with the direct sum.
        rng = np.random.default_rng(5)
        times = np.linspace(0.0, 1.5, 64)
        vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        sig = SampledSignal(times, vals)
        all_vals = caputo_derivative_all(sig, 0.7)
        for idx in (2, 17, 40, 63):
            want = caputo_derivative(sig, 0.7, idx)
            assert abs(all_vals[idx - 1] - want) < 1e-11 * (1.0 + abs(want))

    @pytest.mark.parametrize("n", [3, 4, 5, 64, 2001])
    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.93])
    def test_fft_route_matches_pointwise_at_every_node(self, n, beta):
        # Odd sizes and the smallest grids pin the zero-padding length of
        # the FFT convolution; scalar and (n, 2) complex values share it.
        # The signals are sums of random complex plane waves: smooth like
        # the trajectories the route serves.  White noise on 2001 nodes
        # would be ill-conditioned enough for the direct sum's own
        # rounding to reach the bound.
        rng = np.random.default_rng(n)
        times = np.linspace(0.0, 1.5, n)
        waves = np.exp(1j * np.outer(times, rng.uniform(-6.0, 6.0, 3)))
        for cols in ((), (2,)):
            amps = rng.standard_normal((3, *cols)) + 1j * rng.standard_normal((3, *cols))
            vals = np.tensordot(waves, amps, axes=1)
            sig = SampledSignal(times, vals)
            all_vals = caputo_derivative_all(sig, beta)
            assert all_vals.shape == vals[1:].shape
            for idx in range(2, n):
                want = caputo_derivative(sig, beta, idx)
                assert np.all(np.abs(all_vals[idx - 1] - want) < 1e-11 * (1.0 + np.abs(want)))

    def test_vector_valued(self):
        times = np.linspace(0.0, 1.0, 33)
        vals = np.stack([times**2, np.sin(times)], axis=1)
        got = caputo_derivative_all(SampledSignal(times, vals), 0.5)
        assert got.shape == (32, 2)
        want0 = power_caputo(0.5, times[-1])
        assert abs(got[-1, 0] - want0) < 5e-3

    def test_eigenfunction_property(self):
        # D^beta E_beta(c t^beta) = c E_beta(c t^beta)
        beta = 0.6
        c = -0.8 + 0.0j
        times = np.linspace(0.0, 1.0, 2001)
        vals = ml_linear_batch(beta, [(c, 1.0)], times)[0]
        deriv = caputo_derivative_all(SampledSignal(times, vals), beta)
        sel = times[1:] >= 0.3
        err = np.abs(deriv[sel] - c * vals[1:][sel]).max()
        assert err < 2e-4


class TestResidual:
    @staticmethod
    def jc_hamiltonian(g: float) -> np.ndarray:
        return np.array([[0.0, g], [g, 0.0]], dtype=complex)

    @staticmethod
    def exact_states(beta: float, g: float, times: np.ndarray) -> np.ndarray:
        # psi0 = (1, 0); spectral split over eigenvalues +-g.
        cp = g * (-1j) ** beta
        cm = -g * (-1j) ** beta
        rows = ml_linear_batch(beta, [(cp, 1.0), (cm, 1.0)], times)
        plus = rows[0][:, None] * (np.array([1.0, 1.0]) / 2.0)
        minus = rows[1][:, None] * (np.array([1.0, -1.0]) / 2.0)
        return plus + minus

    def test_integer_order_plane_wave(self):
        g = 0.5 * math.sqrt(21.0)
        times = np.linspace(0.0, 1.0, 1001)
        states = self.exact_states(1.0, g, times)
        res = tfse_residual(1.0, self.jc_hamiltonian(g), SampledSignal(times, states))
        assert res < 1e-5

    def test_fractional_order(self):
        g = 0.5 * math.sqrt(21.0)
        times = np.linspace(0.0, 1.0, 1001)
        states = self.exact_states(0.5, g, times)
        res = tfse_residual(0.5, self.jc_hamiltonian(g), SampledSignal(times, states))
        assert res < 5e-3

    def test_wrong_dynamics_is_flagged(self):
        # A beta = 1 trajectory checked against beta = 0.5 must show a
        # large defect; the residual is a real discriminator.
        g = 0.5 * math.sqrt(21.0)
        times = np.linspace(0.0, 1.0, 1001)
        states = self.exact_states(1.0, g, times)
        res = tfse_residual(0.5, self.jc_hamiltonian(g), SampledSignal(times, states))
        assert res > 0.1

    def test_nonuniform_grid_checks_every_node(self):
        beta = 0.5
        g = 0.5 * math.sqrt(21.0)
        times = np.unique(
            np.concatenate([np.geomspace(1e-6, 1e-2, 40), np.linspace(0.0, 1.0, 1500)])
        )
        ham = self.jc_hamiltonian(g)
        sig = SampledSignal(times, self.exact_states(beta, g, times))
        t_min = 0.05 * times[-1]
        want = max(
            np.linalg.norm((1j) ** beta * caputo_derivative(sig, beta, k) - ham @ sig.values[k])
            for k in range(2, times.size)
            if times[k] >= t_min
        )
        assert tfse_residual(beta, ham, sig) == pytest.approx(want, rel=1e-12)

    def test_shape_guard(self):
        times = np.linspace(0.0, 1.0, 33)
        sig = SampledSignal(times, np.zeros((33, 2), dtype=complex))
        with pytest.raises(InvalidParams):
            tfse_residual(0.5, np.zeros((3, 3)), sig)

    def test_requires_sampled_signal(self):
        times = np.linspace(0.0, 1.0, 33)
        states = np.zeros((33, 2), dtype=complex)
        with pytest.raises(InvalidParams):
            tfse_residual(0.5, self.jc_hamiltonian(1.0), (times, states))
