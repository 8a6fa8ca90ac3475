"""Resonant two-level atom exchanging one excitation with a cavity mode.

States live in the two-dimensional single-excitation sector spanned by
{|g, n+1>, |e, n>}.  On resonance the coupling block is a constant
Hermitian matrix with eigenvalues +-g, g = lam * sqrt(n+1), and the
fractional-order evolution acts on each eigenprojection through
E_beta(alpha * (-i*t)**beta).  The (a, b) weights parameterize the
projector pair used in that split; for a = b = sqrt(1/2) they are the
true eigenvectors and the dynamics is the fractional evolution generated
by the coupling block.  Other weights are accepted and propagated through
the same algebra, but the resulting amplitudes are then a formal
construction rather than an evolution under this Hamiltonian; downstream
consumers flag that case in their metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateState, GridTooCoarse, InvalidOrder, InvalidParams
from .mlfun import MLOrder, ml_global, ml_linear_batch

__all__ = [
    "JCParams",
    "CompositeAmplitudes",
    "DensityMatrix2",
    "Trajectory",
    "QubitDynamics",
    "interaction_hamiltonian",
    "evolve",
    "reduced_density",
    "make_trajectory",
    "cycle_grid",
]

_HALF_SQRT2 = math.sqrt(0.5)
# Grid nodes per radian of the population cycle when bracketing extrema.
_NODES_PER_RADIAN = 2.55
_MIN_GRID = 600
_MAX_GRID = 60000


@dataclass(frozen=True)
class JCParams:
    """Model parameters: fractional order, coupling, photon number, weights.

    ``a`` and ``b`` are the projector weights described in the module
    docstring; the default (sqrt(1/2), sqrt(1/2)) is the physical
    eigenvector pair.
    """

    beta: float
    lam: float
    n: int
    a: float = _HALF_SQRT2
    b: float = _HALF_SQRT2

    def __post_init__(self) -> None:
        if not (
            isinstance(self.beta, (int, float))
            and math.isfinite(self.beta)
            and 0.0 < self.beta <= 1.0
        ):
            raise InvalidOrder(f"beta must lie in (0, 1], got {self.beta!r}")
        if not (
            isinstance(self.lam, (int, float))
            and math.isfinite(self.lam)
            and 0.0 <= self.lam <= 1.0
        ):
            raise InvalidParams(f"lam must lie in [0, 1], got {self.lam!r}")
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise InvalidParams(f"n must be an integer, got {self.n!r}")
        if self.n < 0:
            raise InvalidParams(f"n must be nonnegative, got {self.n!r}")
        for name, w in (("a", self.a), ("b", self.b)):
            if not (isinstance(w, (int, float)) and math.isfinite(w) and 0.0 <= w <= 1.0):
                raise InvalidParams(f"{name} must lie in [0, 1], got {w!r}")
        if abs(self.a**2 + self.b**2 - 1.0) > 1e-12:
            raise InvalidParams(
                f"weights must satisfy a^2 + b^2 = 1, got {self.a**2 + self.b**2!r}"
            )
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))

    @property
    def coupling(self) -> float:
        """Effective coupling g = lam * sqrt(n + 1)."""
        return self.lam * math.sqrt(self.n + 1.0)

    def is_eigenweighted(self) -> bool:
        """True when (a, b) is the physical eigenvector pair."""
        return abs(self.a - _HALF_SQRT2) < 1e-12 and abs(self.b - _HALF_SQRT2) < 1e-12


@dataclass(frozen=True)
class CompositeAmplitudes:
    """Unnormalized amplitudes on |g, n+1> and |e, n|."""

    c_g: complex
    c_e: complex


@dataclass(frozen=True)
class DensityMatrix2:
    """Diagonal qubit density matrix with validated structure."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise InvalidParams(f"density matrix must be 2x2, got shape {m.shape}")
        if m[0, 1] != 0 or m[1, 0] != 0:
            raise InvalidParams("density matrix must be diagonal in this model")
        if abs(m[0, 0].imag) > 0 or abs(m[1, 1].imag) > 0:
            raise InvalidParams("diagonal entries must be real")
        if m[0, 0].real < -1e-12 or m[1, 1].real < -1e-12:
            raise InvalidParams("diagonal entries must be nonnegative")
        if abs(m[0, 0].real + m[1, 1].real - 1.0) > 1e-12:
            raise InvalidParams("trace must equal 1")
        object.__setattr__(self, "matrix", m)

    @property
    def p_ground(self) -> float:
        return float(self.matrix[0, 0].real)

    @property
    def p_excited(self) -> float:
        return float(self.matrix[1, 1].real)


@dataclass(frozen=True)
class Trajectory:
    """Sampled dynamics: excited-state population and its rate on a grid.

    ``rho_dot[0]`` is stored as 0 by convention; for beta < 1 the
    population rate can diverge at t = 0 and no consumer reads it there.
    """

    params: JCParams
    times: np.ndarray
    rho_ee: np.ndarray
    rho_dot: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        rho_ee = np.asarray(self.rho_ee, dtype=float)
        rho_dot = np.asarray(self.rho_dot, dtype=float)
        if times.ndim != 1 or times.size < 16:
            raise GridTooCoarse("trajectory needs at least 16 nodes")
        if times[0] != 0.0 or np.any(np.diff(times) <= 0.0):
            raise InvalidParams("times must increase strictly from 0")
        if rho_ee.shape != times.shape or rho_dot.shape != times.shape:
            raise InvalidParams("population arrays must match the time grid")
        if not (np.all(np.isfinite(rho_ee)) and np.all(np.isfinite(rho_dot))):
            raise InvalidParams("trajectory samples must be finite")
        if np.any(rho_ee < -1e-12) or np.any(rho_ee > 1.0 + 1e-12):
            raise InvalidParams("rho_ee must lie in [0, 1]")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "rho_ee", rho_ee)
        object.__setattr__(self, "rho_dot", rho_dot)


def interaction_hamiltonian(lam: float, n: int) -> np.ndarray:
    """Resonant coupling block in the {|g, n+1>, |e, n>} basis.

    Both off-diagonal entries equal lam * sqrt(n+1).
    """
    if not (math.isfinite(lam) and 0.0 <= lam <= 1.0):
        raise InvalidParams(f"lam must lie in [0, 1], got {lam!r}")
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise InvalidParams(f"n must be a nonnegative integer, got {n!r}")
    g = lam * math.sqrt(n + 1.0)
    return np.array([[0.0, g], [g, 0.0]], dtype=complex)


class QubitDynamics:
    """Vectorized evaluator of the model dynamics on time grids.

    Precomputes the per-eigenvalue evolution coefficients
    c = +-g * (-i)**beta and shares the Mittag-Leffler quadrature mesh
    across all requested quantities.
    """

    def __init__(self, params: JCParams) -> None:
        if params.b == 0.0:
            raise DegenerateState(
                "b = 0 gives identically vanishing amplitudes; no state to track"
            )
        self.params = params
        g = params.coupling
        rot = (-1j) ** params.beta
        self._c_plus = g * rot
        self._c_minus = -g * rot

    def oscillation_rate(self) -> float:
        """Angular rate g**(1/beta) of the asymptotic population cycle."""
        g = self.params.coupling
        if g == 0.0:
            return 0.0
        return g ** (1.0 / self.params.beta)

    def eigenfactors(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """E_beta(c * t**beta) for c = +g*(-i)**beta and -g*(-i)**beta."""
        beta = self.params.beta
        rows = ml_linear_batch(beta, [(self._c_plus, 1.0), (self._c_minus, 1.0)], times)
        return rows[0], rows[1]

    def amplitudes(self, times: np.ndarray) -> np.ndarray:
        """Unnormalized (c_g, c_e) rows for each time."""
        e2, e1 = self.eigenfactors(times)
        a, b = self.params.a, self.params.b
        out = np.empty((np.asarray(times).size, 2), dtype=complex)
        out[:, 0] = a * b * (e2 - e1)
        out[:, 1] = b * b * (e2 + e1)
        return out

    def populations(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Normalized (rho_ee, rho_gg) along the grid."""
        u, v, norm = self._population_weights(*self.eigenfactors(times))
        return u / norm, v / norm

    def population_rate(self, times: np.ndarray) -> np.ndarray:
        """d rho_ee / dt along the grid; any t = 0 entry is set to 0."""
        return self.population_sample(times)[2]

    def population_sample(
        self, times: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rho_ee, rho_gg, d rho_ee/dt) from one shared evaluation.

        All four Mittag-Leffler rows reuse the same quadrature mesh, so
        sampling value and rate together costs one pass.  Rate entries at
        t = 0 are set to 0 by the trajectory convention.

        Quotient rule on rho_ee = u / (u + v) gives the rate
        (u' v - u v') / (u + v)**2 with u, v the unnormalized weights.
        """
        times = np.asarray(times, dtype=float)
        beta = self.params.beta
        rows = ml_linear_batch(
            beta,
            [
                (self._c_plus, 1.0),
                (self._c_minus, 1.0),
                (self._c_plus, beta),
                (self._c_minus, beta),
            ],
            times,
        )
        e2, e1, f2, f1 = rows
        a, b = self.params.a, self.params.b
        u, v, norm = self._population_weights(e2, e1)
        rate = np.zeros(times.size, dtype=float)
        pos = times > 0.0
        if np.any(pos):
            s = e2[pos] + e1[pos]
            d = e2[pos] - e1[pos]
            pref = times[pos] ** (beta - 1.0)
            sdot = pref * (self._c_plus * f2[pos] + self._c_minus * f1[pos])
            ddot = pref * (self._c_plus * f2[pos] - self._c_minus * f1[pos])
            udot = b**4 * 2.0 * np.real(np.conj(s) * sdot)
            vdot = (a * b) ** 2 * 2.0 * np.real(np.conj(d) * ddot)
            rate[pos] = (udot * v[pos] - u[pos] * vdot) / norm[pos] ** 2
        return u / norm, v / norm, rate

    def _population_weights(
        self, e2: np.ndarray, e1: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unnormalized weights u, v of (rho_ee, rho_gg) and their sum."""
        a, b = self.params.a, self.params.b
        u = b**4 * np.abs(e2 + e1) ** 2
        v = (a * b) ** 2 * np.abs(e2 - e1) ** 2
        norm = u + v
        if np.any(norm < 1e-300):
            raise DegenerateState("population normalization vanished")
        return u, v, norm


def evolve(params: JCParams, tau: float) -> CompositeAmplitudes:
    """Amplitudes at time tau from the two eigenfactor values.

    Scalar route: each eigenfactor is an independent ``ml_global`` call,
    so this does not share state with the vectorized engine.
    """
    if not (isinstance(tau, (int, float)) and math.isfinite(tau) and tau >= 0.0):
        raise InvalidParams(f"tau must be nonnegative, got {tau!r}")
    beta = params.beta
    g = params.coupling
    rot = (-1j) ** beta
    order = MLOrder(beta)
    zp = g * rot * tau**beta
    e2 = ml_global(order, zp)
    e1 = ml_global(order, -zp)
    a, b = params.a, params.b
    return CompositeAmplitudes(c_g=a * b * (e2 - e1), c_e=b * b * (e2 + e1))


def reduced_density(amps: CompositeAmplitudes) -> DensityMatrix2:
    """Qubit density matrix after tracing the cavity: diag(p_g, p_e)."""
    pg = abs(amps.c_g) ** 2
    pe = abs(amps.c_e) ** 2
    norm = pg + pe
    if norm < 1e-300:
        raise DegenerateState("amplitudes vanish; reduced state undefined")
    return DensityMatrix2(np.diag([pg / norm, pe / norm]).astype(complex))


def cycle_grid(
    omega: float, t_start: float, t_end: float, count: int | None = None
) -> np.ndarray:
    """Sampling grid on [t_start, t_end] for a population cycling at rate omega.

    By default the node count is 2.55 per radian of the cycle, at least
    600, so that every extremum of the population is bracketed; a window
    that would need more than 60000 nodes raises GridTooCoarse rather
    than alias its extrema.  A window starting at 0 gets a geometric
    head that resolves the t**(2*beta) short-time layer a uniform grid
    would step over.
    """
    if count is None:
        wanted = math.ceil(_NODES_PER_RADIAN * omega * (t_end - t_start))
        if wanted > _MAX_GRID:
            raise GridTooCoarse(
                f"window of {omega * (t_end - t_start):.4g} rad needs {wanted} grid "
                f"nodes, above the {_MAX_GRID}-node cap"
            )
        count = max(wanted, _MIN_GRID)
    body = np.linspace(t_start, t_end, count)
    if t_start > 0.0:
        return body
    head = []
    x = t_end * 1e-9
    while x < body[1]:
        head.append(x)
        x *= 3.0
    return np.unique(np.concatenate([body, np.asarray(head)]))


def make_trajectory(
    params: JCParams,
    t_end: float,
    num_points: int | None = None,
) -> Trajectory:
    """Sample the excited-state population and its rate on [0, t_end].

    The default node count is that of ``cycle_grid``; an explicit
    ``num_points`` below 16 raises GridTooCoarse.
    """
    if not (isinstance(t_end, (int, float)) and math.isfinite(t_end) and t_end > 0.0):
        raise InvalidParams(f"t_end must be positive, got {t_end!r}")
    engine = QubitDynamics(params)
    if num_points is not None:
        if num_points < 16:
            raise GridTooCoarse(f"trajectory needs at least 16 points, got {num_points}")
        num_points = int(num_points)
    times = cycle_grid(engine.oscillation_rate(), 0.0, float(t_end), num_points)
    rho_ee, _, rho_dot = engine.population_sample(times)
    return Trajectory(params=params, times=times, rho_ee=rho_ee, rho_dot=rho_dot)
