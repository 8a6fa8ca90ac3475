"""Caputo fractional derivatives of sampled signals and evolution residuals.

The L1 scheme approximates the Caputo derivative of order beta in (0, 1]
from samples by integrating the kernel exactly against a piecewise-linear
interpolant:

    D^beta f(t_n) ~ 1/Gamma(2-beta) * sum_k (f_{k+1}-f_k)/h_k
                    * ((t_n-t_k)**(1-beta) - (t_n-t_{k+1})**(1-beta))

On uniform grids the sum is a causal convolution and all nodes are
evaluated at once through an FFT.  ``tfse_residual`` applies this to a
state trajectory to measure how well it satisfies the fractional
evolution equation (i)**beta * D^beta psi = H psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, InvalidParams
from .mlfun import check_order

__all__ = [
    "SampledSignal",
    "caputo_derivative",
    "caputo_derivative_all",
    "tfse_residual",
]


@dataclass(frozen=True)
class SampledSignal:
    """Signal samples on a strictly increasing time grid starting at zero.

    ``values`` may be scalar per node (shape (n,)) or vector per node
    (shape (n, d)); complex entries are allowed.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values)
        if times.ndim != 1 or times.size < 2:
            raise InvalidParams("times must be a 1-d grid with at least 2 nodes")
        if not np.all(np.isfinite(times)):
            raise InvalidParams("times must be finite")
        if times[0] != 0.0:
            raise InvalidParams(f"time grid must start at 0, got {times[0]!r}")
        if np.any(np.diff(times) <= 0.0):
            raise InvalidParams("times must be strictly increasing")
        if values.ndim not in (1, 2):
            raise InvalidParams("values must have shape (n,) or (n, d)")
        if values.shape[0] != times.size:
            raise InvalidParams(
                f"values first axis ({values.shape[0]}) must match times ({times.size})"
            )
        if not np.all(np.isfinite(values.real)) or not np.all(
            np.isfinite(np.asarray(values, dtype=complex).imag)
        ):
            raise InvalidParams("values must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def _l1_sum(times: np.ndarray, values: np.ndarray, beta: float, idx: int) -> np.ndarray:
    """L1 history sum at node ``idx`` (idx >= 1), scaled by 1/Gamma(2-beta)."""
    tn = times[idx]
    tk = times[:idx]
    tk1 = times[1 : idx + 1]
    per_node = (slice(None),) + (None,) * (values.ndim - 1)
    slopes = (values[1 : idx + 1] - values[:idx]) / (tk1 - tk)[per_node]
    ker = ((tn - tk) ** (1.0 - beta) - (tn - tk1) ** (1.0 - beta))[per_node]
    return np.sum(slopes * ker, axis=0) / math.gamma(2.0 - beta)


def caputo_derivative(signal: SampledSignal, beta: float, t_index: int) -> complex:
    """L1 value of the Caputo derivative at node ``t_index``.

    Needs at least two earlier nodes so the piecewise-linear interpolant
    has history to integrate over; beta = 1 reduces to the backward
    difference over the last interval.
    """
    beta = check_order(beta)[0]
    times = signal.times
    values = np.asarray(signal.values, dtype=complex)
    if not isinstance(t_index, (int, np.integer)):
        raise InvalidParams(f"t_index must be an integer, got {t_index!r}")
    t_index = int(t_index)
    if t_index < 0 or t_index >= times.size:
        raise InvalidParams(f"t_index {t_index} outside grid of {times.size} nodes")
    if t_index < 2:
        raise GridTooCoarse(
            f"L1 derivative at node {t_index} has fewer than 2 preceding points"
        )
    if beta == 1.0:
        h = times[t_index] - times[t_index - 1]
        return (values[t_index] - values[t_index - 1]) / h
    total = _l1_sum(times, values, beta, t_index)
    return total if total.ndim else complex(total)


def _is_uniform(times: np.ndarray) -> bool:
    h = np.diff(times)
    return bool(np.all(np.abs(h - h[0]) <= 1e-9 * h[0]))


def caputo_derivative_all(signal: SampledSignal, beta: float) -> np.ndarray:
    """L1 Caputo derivative at every node from index 1 on.

    Uniform grids use the convolution form of the L1 sum through one FFT;
    other grids fall back to the direct sum per node.  Returns an array
    shaped like ``values[1:]``.
    """
    beta = check_order(beta)[0]
    times = signal.times
    values = np.asarray(signal.values, dtype=complex)
    n = times.size
    if beta == 1.0:
        h = np.diff(times)
        return np.diff(values, axis=0) / h[(slice(None),) + (None,) * (values.ndim - 1)]
    if _is_uniform(times):
        h = times[1] - times[0]
        m = np.arange(1, n)
        w = m ** (1.0 - beta) - (m - 1) ** (1.0 - beta)
        w = w[(slice(None),) + (None,) * (values.ndim - 1)]
        # Zero padding to 2 * (n - 1) makes the cyclic product a linear one.
        size = 2 * (n - 1)
        spec = np.fft.fft(np.diff(values, axis=0), size, axis=0) * np.fft.fft(w, size, axis=0)
        conv = np.fft.ifft(spec, axis=0)[: n - 1]
        return conv * (h ** (-beta) / math.gamma(2.0 - beta))
    out = np.empty_like(values[1:])
    for idx in range(1, n):
        out[idx - 1] = _l1_sum(times, values, beta, idx)
    return out


def tfse_residual(beta: float, hamiltonian: np.ndarray, trajectory: SampledSignal) -> float:
    """Largest nodewise defect of (i)**beta * D^beta psi - H psi.

    ``trajectory`` is a ``SampledSignal`` whose values are the state
    vectors (shape (n,) for a one-dimensional state).  For beta < 1 every
    node goes through ``caputo_derivative_all``.  The first 5 % of the
    span is excluded: the L1 history starts from a single interval there,
    so its truncation error is dominated by startup rather than by the
    trajectory being tested.  At beta = 1 the defect uses central
    differences instead.
    """
    beta = check_order(beta)[0]
    if not isinstance(trajectory, SampledSignal):
        raise InvalidParams(
            f"trajectory must be a SampledSignal, got {type(trajectory).__name__}"
        )
    times = trajectory.times
    states = np.asarray(trajectory.values, dtype=complex)
    if states.ndim == 1:
        states = states[:, None]
    ham = np.asarray(hamiltonian, dtype=complex)
    if ham.ndim != 2 or ham.shape[0] != ham.shape[1] or ham.shape[1] != states.shape[1]:
        raise InvalidParams("hamiltonian shape does not match the state dimension")
    if times.size < 5:
        raise GridTooCoarse("residual check needs at least 5 nodes")

    rhs = states @ ham.T
    t_min = times[0] + 0.05 * (times[-1] - times[0])
    if beta == 1.0:
        dpsi = (states[2:] - states[:-2]) / (times[2:] - times[:-2])[:, None]
        defect = 1j * dpsi - rhs[1:-1]
        mask = times[1:-1] >= t_min
    else:
        deriv = caputo_derivative_all(SampledSignal(times, states), beta)
        defect = (1j) ** beta * deriv - rhs[1:]
        mask = times[1:] >= t_min
    if not np.any(mask):
        raise GridTooCoarse("no interior node past the first 5 % of the span to check")
    return float(np.linalg.norm(defect[mask], axis=1).max())
