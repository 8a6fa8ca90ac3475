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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateState, GridTooCoarse, InvalidOrder, InvalidParams
from .mlfun import MLOrder, is_real, ml_global, ml_linear_batch

__all__ = [
    "JCParams",
    "CompositeAmplitudes",
    "QubitDynamics",
    "interaction_hamiltonian",
    "evolve",
    "cycle_lattice",
    "scaled_time",
    "check_time",
]

_HALF_SQRT2 = math.sqrt(0.5)
# Grid nodes per radian of the population cycle when bracketing extrema:
# the lattice step is 1 / 2.55 rad.
_NODES_PER_RADIAN = 2.55
# Geometric head below the first lattice step, each node a third of the next.
_HEAD_NODES = 20
_MAX_GRID = 60000


def check_time(value, name: str = "tau", allow_zero: bool = False) -> float:
    """``value`` as a float if it is a finite positive time, else InvalidParams.

    ``allow_zero`` admits 0.  A bool is refused: True would pass as 1.
    """
    if not (
        is_real(value)
        and math.isfinite(value)
        and (value > 0.0 or (allow_zero and value == 0.0))
    ):
        kind = "nonnegative" if allow_zero else "positive"
        raise InvalidParams(f"{name} must be {kind}, got {value!r}")
    return float(value)


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
        if not (is_real(self.beta) and math.isfinite(self.beta) and 0.0 < self.beta <= 1.0):
            raise InvalidOrder(f"beta must lie in (0, 1], got {self.beta!r}")
        if not (is_real(self.lam) and math.isfinite(self.lam) and 0.0 <= self.lam <= 1.0):
            raise InvalidParams(f"lam must lie in [0, 1], got {self.lam!r}")
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise InvalidParams(f"n must be an integer, got {self.n!r}")
        if self.n < 0:
            raise InvalidParams(f"n must be nonnegative, got {self.n!r}")
        for name, w in (("a", self.a), ("b", self.b)):
            if not (is_real(w) and math.isfinite(w) and 0.0 <= w <= 1.0):
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


def interaction_hamiltonian(lam: float, n: int) -> np.ndarray:
    """Resonant coupling block in the {|g, n+1>, |e, n>} basis.

    Both off-diagonal entries equal lam * sqrt(n+1).
    """
    if not (is_real(lam) and math.isfinite(lam) and 0.0 <= lam <= 1.0):
        raise InvalidParams(f"lam must lie in [0, 1], got {lam!r}")
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
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
        return _cycle_rate(self.params.coupling, self.params.beta)

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
        self, times: np.ndarray, powers: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rho_ee, rho_gg, d rho_ee/dt) from one shared evaluation.

        All four Mittag-Leffler rows reuse the same quadrature mesh, so
        sampling value and rate together costs one pass.  Rate entries at
        t = 0 are set to 0: for beta < 1 the rate can diverge there.
        ``powers`` is passed on to ``ml_linear_batch`` (times**beta as the
        caller rounds it).

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
            powers,
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
    tau = check_time(tau, allow_zero=True)
    beta = params.beta
    g = params.coupling
    rot = (-1j) ** beta
    order = MLOrder(beta)
    zp = g * rot * tau**beta
    e2 = ml_global(order, zp)
    e1 = ml_global(order, -zp)
    a, b = params.a, params.b
    return CompositeAmplitudes(c_g=a * b * (e2 - e1), c_e=b * b * (e2 + e1))


def _cycle_rate(g: float, beta: float) -> float:
    """g**(1/beta), the angular rate of the population cycle; inf past the
    double range, which every grid refuses."""
    try:
        return g ** (1.0 / beta)
    except OverflowError:
        return math.inf


def _check_nodes(span: float) -> None:
    """Refuse a window of ``span`` radians that needs more than the node cap."""
    wanted = _NODES_PER_RADIAN * span
    if wanted > _MAX_GRID:
        count = math.ceil(wanted) if math.isfinite(wanted) else wanted
        raise GridTooCoarse(
            f"window of {span:.4g} rad needs {count} grid "
            f"nodes, above the {_MAX_GRID}-node cap"
        )


def scaled_time(params: JCParams, tau: float) -> tuple[float, float]:
    """Time s = g**(1/beta) * tau on the unit-coupling curve, and s**beta.

    The coupling enters the dynamics only through g**(1/beta) * t, so the
    state at (params, tau) is the state of JCParams(beta, 1, 0, a, b) at s.
    The Mittag-Leffler argument needs s**beta, which is returned as
    g * tau**beta: it stays a normal number where s itself underflows (a
    tiny order or coupling), so such a point is still answered, with s
    carried as 0.  Raises GridTooCoarse when bracketing the extrema up to
    s would need more than the grid's node cap.
    """
    tau = check_time(tau)
    g = params.coupling
    s = _cycle_rate(g, params.beta) * tau
    _check_nodes(s)
    if s < sys.float_info.min:
        s = 0.0
    return s, g * tau**params.beta


def cycle_lattice(omega: float, t_end: float) -> np.ndarray:
    """Sampling lattice from 0 for a population cycling at rate omega > 0.

    Nodes sit at k * h / omega with h = 1/2.55 rad, after a fixed
    geometric head below the first step that resolves the t**(2*beta)
    short-time layer, and run one node past the first node at or past
    t_end, so that every window of two cells that starts below t_end is
    whole.  A node's position never depends on t_end: the lattice up to
    t1 is a bitwise prefix of the lattice up to any later t2, and every
    cell between two nodes is the same cell in both.  A lattice that
    would need more than 60000 nodes raises GridTooCoarse rather than
    alias its extrema.
    """
    _check_nodes(omega * t_end)
    step = 1.0 / _NODES_PER_RADIAN
    k_hi = max(math.ceil(t_end * omega / step), 1)
    while k_hi * step / omega < t_end:
        k_hi += 1
    body = np.arange(k_hi + 2) * step / omega
    head = step / omega * 3.0 ** -np.arange(_HEAD_NODES, 0, -1)
    return np.concatenate([body[:1], head, body[1:]])
