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
    NonConvergence,
)
from fracqsl.jcmodel import (
    JCParams,
    QubitDynamics,
    cycle_lattice,
    evolve,
    interaction_hamiltonian,
    scaled_time,
)
from fracqsl.mlfun import MLOrder, ml_global
from fracqsl.qsl import qsl_point

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
        with pytest.raises(InvalidOrder):
            JCParams(beta=True, lam=0.5, n=1)

    def test_lam_bounds(self):
        with pytest.raises(InvalidParams):
            JCParams(beta=0.5, lam=-0.1, n=1)
        with pytest.raises(InvalidParams):
            JCParams(beta=0.5, lam=1.5, n=1)
        with pytest.raises(InvalidParams):
            JCParams(beta=0.5, lam=True, n=1)

    def test_n_must_be_nonnegative_integer(self):
        with pytest.raises(InvalidParams):
            JCParams(beta=0.5, lam=0.5, n=-1)
        with pytest.raises(InvalidParams):
            JCParams(beta=0.5, lam=0.5, n=1.5)

    def test_weights_normalized(self):
        with pytest.raises(InvalidParams):
            JCParams(beta=0.5, lam=0.5, n=1, a=0.9, b=0.9)
        # True and False would pass as the normalized pair (1, 0).
        with pytest.raises(InvalidParams):
            JCParams(beta=0.5, lam=0.5, n=1, a=True, b=0.0)
        with pytest.raises(InvalidParams):
            JCParams(beta=0.5, lam=0.5, n=1, a=0.0, b=True)
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
        with pytest.raises(InvalidParams):
            interaction_hamiltonian(0.5, True)
        with pytest.raises(InvalidParams):
            interaction_hamiltonian(True, 1)

    def test_eigensystem_of_coupling_block(self):
        # The engine never diagonalizes: it builds in the eigenvalues +-g
        # and the eigenvector weights (1, +-1)/sqrt(2) of this block.
        p = JCParams(beta=0.5, lam=0.65, n=3)
        g = p.coupling
        evals, evecs = np.linalg.eigh(interaction_hamiltonian(p.lam, p.n))
        assert evals == pytest.approx([-g, g])
        assert abs(evecs[:, 0] @ np.array([p.a, -p.b])) == pytest.approx(1.0)
        assert abs(evecs[:, 1] @ np.array([p.a, p.b])) == pytest.approx(1.0)


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
        p_excited = abs(amps.c_e) ** 2 / (abs(amps.c_g) ** 2 + abs(amps.c_e) ** 2)
        assert amps.c_e.real == pytest.approx(-0.659754120370861, abs=1e-12)
        assert p_excited == pytest.approx(0.43527549934632853, abs=1e-12)

    def test_negative_time_rejected(self):
        p = JCParams(beta=0.5, lam=0.5, n=2)
        with pytest.raises(InvalidParams):
            evolve(p, -0.1)
        with pytest.raises(InvalidParams):
            evolve(p, True)

    def test_pole_past_double_range_is_refused(self):
        # At beta = 0.002 the residue pole |z|**(1/beta) of z ~ 6.4 is
        # e**928, past the largest double: a typed refusal, not Python's
        # OverflowError from the complex power.
        with pytest.raises(NonConvergence, match="pole"):
            ml_global(MLOrder(0.002), 6.4)
        with pytest.raises(NonConvergence, match="pole"):
            evolve(JCParams(beta=0.002, lam=1.0, n=40), 1.0)

    def test_matches_engine(self):
        p = JCParams(beta=0.6, lam=0.7, n=5)
        ts = np.array([0.0, 0.5, 1.7])
        engine = QubitDynamics(p)
        batch = engine.amplitudes(ts)
        for k, t in enumerate(ts):
            amps = evolve(p, float(t))
            assert abs(batch[k, 0] - amps.c_g) < 5e-10
            assert abs(batch[k, 1] - amps.c_e) < 5e-10


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

    @pytest.mark.parametrize("beta", [0.01, 0.03, 0.05, 0.08])
    def test_tiny_order_batch_matches_scalar_route(self, beta):
        # Below beta ~ 0.085 the batch's series table used to run out of
        # terms at every time, so amplitudes and qsl_point raised
        # NonConvergence while evolve answered.
        params = JCParams(beta=beta, lam=0.5, n=0)
        ts = np.array([1e-6, 1e-3, 0.05, 0.3, 1.0, 2.0, 5.0, 20.0])
        amps = QubitDynamics(params).amplitudes(ts)
        for k, t in enumerate(ts):
            want = evolve(params, float(t))
            assert abs(amps[k, 0] - want.c_g) <= 1e-10
            assert abs(amps[k, 1] - want.c_e) <= 1e-10
        assert 0.0 <= qsl_point(params, 1.0).ratio_op <= 1.0

    def test_population_consistency(self):
        p = JCParams(beta=0.8, lam=0.4, n=5)
        engine = QubitDynamics(p)
        times = cycle_lattice(engine.oscillation_rate(), 2.0)
        rho_ee, _, _ = engine.population_sample(times)
        amps = engine.amplitudes(times)
        pg = np.abs(amps[:, 0]) ** 2
        pe = np.abs(amps[:, 1]) ** 2
        assert np.allclose(rho_ee, pe / (pg + pe), atol=1e-12)


class TestTrajectory:
    def test_default_sampling(self):
        p = JCParams(beta=0.5, lam=0.5, n=20)
        engine = QubitDynamics(p)
        times = cycle_lattice(engine.oscillation_rate(), 3.0)
        rho_ee, _, rate = engine.population_sample(times)
        assert times[0] == 0.0
        # One node past the first node at or past the end.
        assert times[-2] >= 3.0
        assert rho_ee[0] == pytest.approx(1.0)
        assert rate[0] == 0.0
        # Cycle-aware density: omega = g^2 here.
        omega = p.coupling ** 2
        assert times.size >= 2.55 * omega * 3.0

    @settings(max_examples=50, deadline=None)
    @given(
        omega=st.floats(0.01, 100.0),
        t1=st.floats(1e-3, 50.0),
        later=st.floats(1e-9, 50.0),
    )
    def test_lattice_prefix_property(self, omega, t1, later):
        # A node's position does not depend on the window end: the nodes up
        # to t1 are a bitwise prefix of the grid to any later end, so every
        # bracket a short window sees is a bracket of the longer one.
        t2 = t1 + later
        short, long_ = cycle_lattice(omega, t1), cycle_lattice(omega, t2)
        assert short[-1] >= t1
        kept = short[short <= t1]
        assert np.array_equal(kept, long_[: kept.size])
        assert np.array_equal(short, long_[: short.size])


class TestScaledTime:
    def test_unit_coupling_time(self):
        p = JCParams(beta=0.5, lam=0.5, n=20)
        assert scaled_time(p, 2.0) == (p.coupling**2 * 2.0, p.coupling * 2.0**0.5)
        assert scaled_time(JCParams(beta=0.5, lam=0.0, n=3), 1.0) == (0.0, 0.0)

    def test_underflowing_time_keeps_its_power(self):
        # 1e-160**(1/0.5) is below the smallest normal double, but the
        # Mittag-Leffler argument only needs s**beta = g * tau**beta.
        assert scaled_time(JCParams(beta=0.5, lam=1e-160, n=0), 4.0) == (0.0, 2e-160)

    def test_refusals(self):
        p = JCParams(beta=0.5, lam=0.5, n=2)
        for tau in (0.0, -1.0, math.nan, True):
            with pytest.raises(InvalidParams):
                scaled_time(p, tau)
        # g**(1/beta) overflows a double: no grid can bracket that cycle.
        with pytest.raises(GridTooCoarse):
            scaled_time(JCParams(beta=0.002, lam=1.0, n=40), 1.0)
