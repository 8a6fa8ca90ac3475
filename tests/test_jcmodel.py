"""Tests for the single-excitation qubit-cavity model."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracqsl.errors import (
    DegenerateState,
    GridTooCoarse,
    InvalidOrder,
    InvalidParams,
    NotHermitian,
    StepTooSmall,
)
from fracqsl.jcmodel import (
    CompositeAmplitudes,
    DensityMatrix2,
    JCParams,
    QubitDynamics,
    density_derivative,
    evolve,
    interaction_hamiltonian,
    make_trajectory,
    reduced_density,
    spectral_decomposition,
)

HALF = math.sqrt(0.5)


class TestParams:
    def test_defaults_are_eigenweights(self):
        p = JCParams(beta=0.5, lam=0.5, n=20)
        assert p.is_eigenweighted()
        assert p.coupling == pytest.approx(0.5 * math.sqrt(21.0))

    def test_coupling_value(self):
        p = JCParams(beta=1.0, lam=0.5, n=20)
        assert p.coupling == pytest.approx(2.2912878474779195, rel=1e-12)

    def test_beta_bounds(self):
        with pytest.raises(InvalidOrder):
            JCParams(beta=0.0, lam=0.5, n=1)
        with pytest.raises(InvalidOrder):
            JCParams(beta=1.01, lam=0.5, n=1)

    def test_lam_bounds(self):
        with pytest.raises(InvalidParams):
            JCParams(beta=0.5, lam=-0.1, n=1)
        with pytest.raises(InvalidParams):
            JCParams(beta=0.5, lam=1.5, n=1)

    def test_n_must_be_nonnegative_integer(self):
        with pytest.raises(InvalidParams):
            JCParams(beta=0.5, lam=0.5, n=-1)
        with pytest.raises(InvalidParams):
            JCParams(beta=0.5, lam=0.5, n=1.5)

    def test_weights_normalized(self):
        with pytest.raises(InvalidParams):
            JCParams(beta=0.5, lam=0.5, n=1, a=0.9, b=0.9)
        JCParams(beta=0.5, lam=0.5, n=1, a=0.6, b=0.8)


class TestHamiltonian:
    def test_resonant_matrix(self):
        h = interaction_hamiltonian(0.5, 20)
        g = 0.5 * math.sqrt(21.0)
        assert h[0, 1] == pytest.approx(g)
        assert h[1, 0] == pytest.approx(g)
        assert h[0, 0] == 0 and h[1, 1] == 0

    def test_validation(self):
        with pytest.raises(InvalidParams):
            interaction_hamiltonian(2.0, 1)
        with pytest.raises(InvalidParams):
            interaction_hamiltonian(0.5, -3)


class TestSpectral:
    def test_eigensystem_of_coupling_block(self):
        g = 1.3
        h = np.array([[0.0, g], [g, 0.0]])
        evals, evecs = spectral_decomposition(h)
        assert evals == pytest.approx([-g, g])
        # First-nonzero-positive convention fixes both columns.
        assert evecs[:, 0] == pytest.approx(np.array([1.0, -1.0]) / math.sqrt(2.0))
        assert evecs[:, 1] == pytest.approx(np.array([1.0, 1.0]) / math.sqrt(2.0))

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = m + m.conj().T
        evals, evecs = spectral_decomposition(h)
        recon = (evecs * evals) @ evecs.conj().T
        assert np.allclose(recon, h, atol=1e-12)
        assert np.all(np.diff(evals) >= 0)

    def test_phase_convention_complex(self):
        h = np.array([[0.0, 1j], [-1j, 0.0]])
        _, evecs = spectral_decomposition(h)
        for k in range(2):
            pivot = evecs[np.flatnonzero(np.abs(evecs[:, k]) > 1e-12)[0], k]
            assert pivot.imag == pytest.approx(0.0, abs=1e-14)
            assert pivot.real > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            spectral_decomposition(np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestEvolve:
    def test_time_zero(self):
        p = JCParams(beta=0.5, lam=0.5, n=20, a=0.6, b=0.8)
        amps = evolve(p, 0.0)
        assert amps.c_g == pytest.approx(0.0)
        assert amps.c_e == pytest.approx(2.0 * 0.8**2)

    def test_integer_order_closed_form(self):
        # beta = 1: c_e = cos(g*t), c_g = -i*sin(g*t) at eigenweights.
        p = JCParams(beta=1.0, lam=0.5, n=20)
        g = p.coupling
        for tau in (0.4, 1.0, 2.3):
            amps = evolve(p, tau)
            assert amps.c_e == pytest.approx(math.cos(g * tau), abs=1e-12)
            assert amps.c_g == pytest.approx(-1j * math.sin(g * tau), abs=1e-12)

    def test_reference_population_value(self):
        # g = 0.5*sqrt(21), tau = 1, beta = 1: population cos(g)^2.
        p = JCParams(beta=1.0, lam=0.5, n=20)
        amps = evolve(p, 1.0)
        rho = reduced_density(amps)
        assert amps.c_e.real == pytest.approx(-0.659754120370861, abs=1e-12)
        assert rho.p_excited == pytest.approx(0.43527549934632853, abs=1e-12)

    def test_negative_time_rejected(self):
        p = JCParams(beta=0.5, lam=0.5, n=2)
        with pytest.raises(InvalidParams):
            evolve(p, -0.1)

    def test_matches_engine(self):
        p = JCParams(beta=0.6, lam=0.7, n=5)
        ts = np.array([0.0, 0.5, 1.7])
        engine = QubitDynamics(p)
        batch = engine.amplitudes(ts)
        for k, t in enumerate(ts):
            amps = evolve(p, float(t))
            assert abs(batch[k, 0] - amps.c_g) < 5e-10
            assert abs(batch[k, 1] - amps.c_e) < 5e-10


class TestReducedDensity:
    def test_structure(self):
        rho = reduced_density(CompositeAmplitudes(0.3 + 0.1j, 0.8))
        m = rho.matrix
        assert m[0, 1] == 0 and m[1, 0] == 0
        assert m[0, 0].real + m[1, 1].real == pytest.approx(1.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateState):
            reduced_density(CompositeAmplitudes(0.0, 0.0))

    def test_density_validation(self):
        with pytest.raises(InvalidParams):
            DensityMatrix2(np.array([[0.5, 0.1], [0.1, 0.5]]))
        with pytest.raises(InvalidParams):
            DensityMatrix2(np.diag([0.7, 0.7]))


class TestEngine:
    def test_rejects_b_zero(self):
        p = JCParams(beta=0.5, lam=0.5, n=2, a=1.0, b=0.0)
        with pytest.raises(DegenerateState):
            QubitDynamics(p)

    def test_rabi_populations(self):
        p = JCParams(beta=1.0, lam=0.5, n=20)
        g = p.coupling
        ts = np.linspace(0.0, 3.0, 50)
        rho_ee, rho_gg = QubitDynamics(p).populations(ts)
        assert np.allclose(rho_ee, np.cos(g * ts) ** 2, atol=1e-12)
        assert np.allclose(rho_ee + rho_gg, 1.0, atol=1e-14)

    def test_rabi_rate(self):
        p = JCParams(beta=1.0, lam=0.5, n=20)
        g = p.coupling
        ts = np.linspace(0.1, 3.0, 30)
        rate = QubitDynamics(p).population_rate(ts)
        want = -g * np.sin(2.0 * g * ts)
        assert np.allclose(rate, want, atol=1e-10)

    def test_rate_matches_finite_difference(self):
        p = JCParams(beta=0.5, lam=0.5, n=20)
        engine = QubitDynamics(p)
        ts = np.array([0.3, 0.9, 2.1])
        rate = engine.population_rate(ts)
        h = 1e-6
        hi, _ = engine.populations(ts + h)
        lo, _ = engine.populations(ts - h)
        fd = (hi - lo) / (2.0 * h)
        assert np.allclose(rate, fd, atol=1e-6)

    def test_oscillation_rate(self):
        p = JCParams(beta=0.5, lam=0.5, n=20)
        g = p.coupling
        assert QubitDynamics(p).oscillation_rate() == pytest.approx(g**2)
        p1 = JCParams(beta=1.0, lam=0.5, n=20)
        assert QubitDynamics(p1).oscillation_rate() == pytest.approx(g)

    def test_zero_coupling(self):
        p = JCParams(beta=0.5, lam=0.0, n=20)
        engine = QubitDynamics(p)
        ts = np.linspace(0.0, 2.0, 9)
        rho_ee, rho_gg = engine.populations(ts)
        assert np.allclose(rho_ee, 1.0)
        assert np.allclose(rho_gg, 0.0)
        assert np.allclose(engine.population_rate(ts), 0.0)

    def test_short_time_power_law(self):
        # rho_gg ~ (g * t**beta / Gamma(1+beta))**2 for small t at
        # eigenweights: the leading difference of the two eigenfactors.
        p = JCParams(beta=0.6, lam=0.5, n=20)
        g = p.coupling
        engine = QubitDynamics(p)
        ts = np.array([1e-5, 1e-4, 1e-3])
        _, rho_gg = engine.populations(ts)
        want = (g * ts**0.6 / math.gamma(1.6)) ** 2
        assert np.allclose(rho_gg, want, rtol=2e-3)


class TestDensityDerivative:
    def test_analytic_vs_finite_difference(self):
        p = JCParams(beta=0.7, lam=0.6, n=10)
        for t in (0.4, 1.2):
            da = density_derivative(p, t, method="analytic")
            df = density_derivative(p, t, method="finite_difference")
            assert abs(np.trace(da)) < 1e-10
            assert abs(np.trace(df)) < 1e-10
            assert np.allclose(da, df, atol=5e-6)

    def test_step_guard(self):
        p = JCParams(beta=0.7, lam=0.6, n=10)
        with pytest.raises(StepTooSmall):
            density_derivative(p, 1.0, method="finite_difference", step=1e-16)
        with pytest.raises(InvalidParams):
            density_derivative(p, 0.5, method="finite_difference", step=0.6)

    def test_unknown_method(self):
        p = JCParams(beta=0.7, lam=0.6, n=10)
        with pytest.raises(InvalidParams):
            density_derivative(p, 1.0, method="spectral")

    def test_requires_positive_time(self):
        p = JCParams(beta=0.7, lam=0.6, n=10)
        with pytest.raises(InvalidParams):
            density_derivative(p, 0.0)


class TestTrajectory:
    def test_default_sampling(self):
        p = JCParams(beta=0.5, lam=0.5, n=20)
        traj = make_trajectory(p, 3.0)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(3.0)
        assert traj.rho_ee[0] == pytest.approx(1.0)
        assert traj.rho_dot[0] == 0.0
        assert traj.states.shape == (traj.times.size, 2)
        # Cycle-aware density: omega = g^2 here.
        omega = p.coupling ** 2
        assert traj.times.size >= 2.55 * omega * 3.0

    def test_minimum_points(self):
        p = JCParams(beta=0.5, lam=0.5, n=20)
        with pytest.raises(GridTooCoarse):
            make_trajectory(p, 1.0, num_points=8)

    def test_population_consistency(self):
        p = JCParams(beta=0.8, lam=0.4, n=5)
        traj = make_trajectory(p, 2.0, num_points=256)
        pg = np.abs(traj.states[:, 0]) ** 2
        pe = np.abs(traj.states[:, 1]) ** 2
        assert np.allclose(traj.rho_ee, pe / (pg + pe), atol=1e-12)


class TestDensityPropertySampled:
    @given(
        beta=st.floats(0.1, 1.0),
        lam=st.floats(0.0, 1.0),
        n=st.integers(0, 40),
        t=st.floats(0.0, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_reduced_density_is_diagonal_unit_trace_psd(self, beta, lam, n, t):
        params = JCParams(beta=beta, lam=lam, n=n)
        rho = reduced_density(evolve(params, t))
        m = rho.matrix
        assert m[0, 1] == 0.0 and m[1, 0] == 0.0
        assert m[0, 0].imag == 0.0 and m[1, 1].imag == 0.0
        assert m[0, 0].real >= -1e-12 and m[1, 1].real >= -1e-12
        assert abs(m[0, 0].real + m[1, 1].real - 1.0) <= 1e-12
