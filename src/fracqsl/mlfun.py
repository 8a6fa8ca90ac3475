"""Mittag-Leffler functions E_{beta,gamma}(z) for complex arguments.

Three complementary evaluation routes are provided:

* ``ml_series``: compensated Taylor summation with reciprocal-gamma terms.
  Reliable while the growth scale |z|**(1/beta) stays small; the dispatch
  radius below keeps the summation's cancellation under control.
* ``ml_split``: residue-plus-branch-cut form of the inverse Laplace
  transform for arguments on the ray z = alpha * (-i*t)**beta.  The pure
  phase factor exp(alpha**(1/beta) * (-i) * t) carries the oscillation and
  the cut integral along the negative axis carries the algebraic decay.
* ``_ml_contour``: numerical Bromwich inversion on a parabolic contour,
  uniformly valid in the argument plane; used by ``ml_global`` outside the
  series radius and as a fallback when the cut integrand is ill-placed.

``ml_linear_batch`` evaluates E_{beta,gamma}(c * t**beta) for several
(c, gamma) pairs on a shared time grid.  Small arguments go through one
Horner pass over all pairs at once, with Taylor tables cached per
(beta, gamma).  The rest go through branch-cut meshes, one per dyadic
time window [2**(e-1), 2**e), cached with the pairs' weight columns: the
exponential factor of the cut integral depends only on the quadrature
nodes and the time and is real, so it is computed once per time and
multiplied by every pair's (re, im) weights.  Every value depends only
on its own time, never on the batch it was evaluated in.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    BranchDomain,
    InvalidOrder,
    InvalidParams,
    NonConvergence,
    QuadratureFailure,
)

__all__ = [
    "MLOrder",
    "ml_series",
    "ml_split",
    "ml_global",
    "ml_time_derivative",
    "ml_linear_batch",
    "series_radius",
    "is_real",
]

# Decay budget of the cut integral: e^{-45} ~ 3e-20 truncation.
_EFOLDS = 45.0
# Geometric head panels resolving the x**((1-gamma)/beta) endpoint behavior
# between 1e-9 * x_break and x_break, at a ratio of at most 1.9.
_HEAD_PANELS = math.ceil(9.0 * math.log(10.0) / math.log(1.9))
# Tail panels advance ~5 e-folds of the exponential factor each.
_TAIL_EFOLDS = 5.0
# Trapezoid points per half-contour of the parabolic Bromwich inversion.
_CONTOUR_NODES = 300
# Minimum angular distance of a cut-integrand root from the positive axis
# before the quadrature refuses (the two roots sit at arg(c) +- beta*pi).
_MIN_ROOT_ANGLE = 5e-3
# Below this angle the shared-mesh batch evaluator switches the affected
# coefficient to the contour route instead of refining panels further.
_BATCH_CONTOUR_ANGLE = 2e-2
# Root angles below this get extra zoom panels around |c| in the mesh.
_ZOOM_ANGLE = 0.45
# Series term budget before NonConvergence is raised.
_MAX_TERMS = 600
# Safety cap on the radial variable of the cut integral, on top of the
# decay-budget bound.
_QUAD_CUTOFF = 1e8
# Gauss-Legendre rule of every cut-mesh panel.
_GAUSS_X, _GAUSS_W = leggauss(15)


def rgamma(x: float) -> float:
    """1/Gamma(x) for x > 0, without overflow at either end.

    ``math.gamma`` overflows below x ~ 5.6e-309, where 1/Gamma(x) is x to
    double precision, and above x ~ 171.62, where 1/Gamma(x) is already
    subnormal; exp(-lgamma(x)) takes it from there down to 0.
    """
    if x < 1e-300:
        return x
    if x < 171.6:
        return 1.0 / math.gamma(x)
    return math.exp(-math.lgamma(x))


def is_real(value) -> bool:
    """A real number that is not a bool (True would pass as 1)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class MLOrder:
    """Order pair (beta, gamma) of the two-parameter Mittag-Leffler function."""

    beta: float
    gamma: float = 1.0

    def __post_init__(self) -> None:
        beta, gamma = self.beta, self.gamma
        if not (is_real(beta) and math.isfinite(beta) and 0.0 < beta <= 1.0):
            raise InvalidOrder(f"beta must lie in (0, 1], got {self.beta!r}")
        if not (is_real(gamma) and math.isfinite(gamma) and gamma > 0.0):
            raise InvalidOrder(f"gamma must be positive, got {self.gamma!r}")


def series_radius(beta: float) -> float:
    """Dispatch radius of the Taylor series.

    The summation loses roughly 0.434 * |z|**(1/beta) digits to
    cancellation, so the admissible |z| shrinks with beta; nine e-folds of
    growth keep the relative error near 1e-11 in double precision.
    """
    return min(5.0, 9.0**beta)


def _check_finite(z: complex, what: str = "argument") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InvalidParams(f"{what} must be finite, got {z!r}")
    return z


def _ensure_value(val: complex, context: str) -> complex:
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise NonConvergence(f"{context} produced a non-finite value")
    return val


def ml_series(order: MLOrder, z: complex) -> complex:
    """Taylor series sum_j z**j / Gamma(beta*j + gamma).

    Compensated (Neumaier) summation; reciprocal-gamma term evaluation
    underflows to zero for huge denominators instead of overflowing.
    Intended for |z| <= series_radius(beta); larger arguments either lose
    accuracy to cancellation or fail to converge within 600 terms.
    """
    z = _check_finite(z)
    beta, gamma = order.beta, order.gamma
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    zp = 1.0 + 0.0j
    small_run = 0
    for j in range(_MAX_TERMS):
        term = zp * complex(rgamma(beta * j + gamma))
        # Neumaier update keeps the rounding error of the running sum.
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        zp = zp * z
        if abs(zp) > 1e280:
            raise NonConvergence(
                f"series terms exceed double range for |z|={abs(z):.3g}, beta={beta}"
            )
        if abs(term) <= 1e-16 * (1.0 + abs(total)) + 1e-14:
            small_run += 1
            if small_run >= 3:
                return _ensure_value(total, "ml_series")
        else:
            small_run = 0
    raise NonConvergence(
        f"series did not converge in {_MAX_TERMS} terms for |z|={abs(z):.3g}"
    )


def _cut_roots(beta: float, c: complex) -> tuple[complex, complex]:
    """Roots of x**2 - 2*c*cos(beta*pi)*x + c**2, i.e. c*exp(+-i*beta*pi)."""
    return c * cmath.exp(1j * beta * math.pi), c * cmath.exp(-1j * beta * math.pi)


def _min_root_angle(beta: float, cs: Sequence[complex]) -> float:
    """Smallest |arg(root)| over the cut-integrand roots of all coefficients."""
    d = math.inf
    for c in cs:
        for r in _cut_roots(beta, c):
            d = min(d, abs(cmath.phase(r)))
    return d


def _cut_mesh(
    beta: float,
    t_lo: float,
    t_hi: float,
    cs: Sequence[complex],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre mesh in x = r**beta for the branch-cut integral.

    The integrand carries exp(-x**(1/beta) * t) times a rational factor
    whose roots sit at c*exp(+-i*beta*pi).  One panel spans [0, 1e-9 *
    x_break] with x_break = t_hi**(-beta); geometric head panels above it
    resolve the algebraic endpoint behavior up to x_break, e-fold-budgeted
    tail panels track the exponential over the whole [t_lo, t_hi] range,
    and zoom panels are inserted around |c| whenever a root approaches the
    integration axis.
    Returns (nodes, weights, nodes**(1/beta)).
    """
    if not (0.0 < t_lo <= t_hi):
        raise InvalidParams("cut mesh needs 0 < t_lo <= t_hi")
    r_hi = min(_EFOLDS / t_lo, _QUAD_CUTOFF)
    x_hi = r_hi**beta
    x_break = min((1.0 / t_hi) ** beta, x_hi)
    # A single panel from 0 covers x < 1e-9 * x_break: for gamma <= 1 the
    # integrand there is a nonnegative power of x times a nearly constant
    # factor, so its share of the integral is of order 1e-9 or below.
    # The graded panels above it end exactly at x_break, so none of them
    # reaches into the decay region that the tail panels budget by e-folds.
    x_head = 1e-9 * x_break
    edges = [0.0, *np.geomspace(x_head, x_break, _HEAD_PANELS + 1)]
    r_tail = 1.0 + _TAIL_EFOLDS * beta / _EFOLDS
    while edges[-1] < x_hi:
        edges.append(edges[-1] * r_tail)
    edge_arr = [np.asarray(edges)]

    d_min = _min_root_angle(beta, cs)
    if d_min < _ZOOM_ANGLE:
        if d_min < _MIN_ROOT_ANGLE:
            raise QuadratureFailure(
                "cut-integrand root within "
                f"{d_min:.2e} rad of the positive axis; refine budget exceeded"
            )
        ratio = math.exp(max(d_min, 0.02) / 3.0)
        for ac in sorted({abs(c) for c in cs}):
            lo = max(ac * math.exp(-1.5), x_head)
            hi = min(ac * math.exp(1.5), x_hi)
            if lo < hi:
                count = int(math.ceil(math.log(hi / lo) / math.log(ratio))) + 1
                edge_arr.append(np.geomspace(lo, hi, count + 1))
    all_edges = np.unique(np.concatenate(edge_arr))
    all_edges = all_edges[all_edges <= x_hi]

    a = all_edges[:-1]
    b = all_edges[1:]
    xm = (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _GAUSS_X[None, :]).ravel()
    wm = (0.5 * (b - a)[:, None] * _GAUSS_W[None, :]).ravel()
    return xm, wm, xm ** (1.0 / beta)


def _cut_weight_vector(
    beta: float, gamma: float, c: complex, xm: np.ndarray, wm: np.ndarray
) -> np.ndarray:
    """Quadrature weights of the branch-cut integral for one (c, gamma)."""
    s1 = math.sin(math.pi * (1.0 + beta - gamma))
    s2 = math.sin(math.pi * (1.0 - gamma))
    r1, r2 = _cut_roots(beta, c)
    rational = (c * s1 - xm * s2) / ((xm - r1) * (xm - r2))
    return -wm * (xm ** ((1.0 - gamma) / beta)) * rational / (beta * math.pi)


def _has_residue(beta: float, c: complex) -> bool:
    return abs(cmath.phase(c)) < beta * math.pi - 1e-13


def _pole(beta: float, c: complex) -> complex:
    """Residue pole c**(1/beta), refused before its modulus leaves double range.

    At a tiny order a moderate |c| already puts |c|**(1/beta) past the
    largest double, so the modulus is sized by its logarithm first.
    """
    log_rho = math.log(abs(c)) / beta
    if log_rho > 709.0:
        raise NonConvergence(
            f"residue pole |c|**(1/beta) = e**{log_rho:.4g} exceeds double range"
        )
    return c ** (1.0 / beta)


def _residue_factor(beta: float, gamma: float, c: complex) -> tuple[complex, complex]:
    """Pole c**(1/beta) and prefactor of the residue exp(pole*t)*pref."""
    pole = _pole(beta, c)
    return pole, pole ** (1.0 - gamma) / beta


def _ml_contour(beta: float, gamma: float, z: complex) -> complex:
    """Bromwich inversion of s**(beta-gamma) / (s**beta - z) on a parabola.

    Midpoint trapezoid on s = mu*(1+i*u)**2; the pole z**(1/beta), when it
    exists on the principal sheet, is either enclosed (and its residue
    added) or left outside, decided by its position relative to the
    contour.  Marginal placements move mu instead.  A pole past double
    range whose phase is past pi/2 by far more than rounding has a real
    part below -1e299, so its residue is exactly 0 and is skipped; on the
    ray |arg z| = beta*pi/2 the phase is unresolved and ``_pole`` refuses.
    """
    z = complex(z)
    mu = 3.0
    residue = None
    if _has_residue(beta, z) and not (
        math.log(abs(z)) / beta > 709.0
        and abs(cmath.phase(z)) / beta > 0.5 * math.pi * (1.0 + 1e-9)
    ):
        pole = _pole(beta, z)
        rho = abs(pole)
        phi = abs(cmath.phase(pole))
        x_rel = math.sqrt(rho / mu) * math.cos(phi / 2.0)
        if 0.7 < x_rel < 1.4:
            # Move the contour so the pole is clearly inside or outside.
            mu_try = rho * math.cos(phi / 2.0) ** 2 / 4.0
            mu = mu_try if mu_try > 0.05 else rho * math.cos(phi / 2.0) ** 2 / 0.25
        if math.sqrt(rho / mu) * math.cos(phi / 2.0) > 1.0:
            if pole.real > 700.0:
                raise NonConvergence(
                    f"residue exp({pole.real:.3g}) exceeds double range"
                )
            residue = cmath.exp(pole) * pole ** (1.0 - gamma) / beta

    n = _CONTOUR_NODES
    h = 2.0 * math.sqrt(1.0 + 37.0 / mu) / n
    u = (np.arange(n) + 0.5) * h
    u = np.concatenate([-u[::-1], u])
    s = mu * (1.0 + 1j * u) ** 2
    ds = mu * 2j * (1.0 + 1j * u)
    vals = np.exp(s) * s ** (beta - gamma) / (s**beta - z) * ds
    total = complex(np.sum(vals)) * h / (2j * math.pi)
    if residue is not None:
        total += residue
    return _ensure_value(total, "contour inversion")


def ml_global(order: MLOrder, z: complex) -> complex:
    """Uniformly valid evaluation of E_{beta,gamma}(z).

    Dispatch: exact exponential for (1, 1); Taylor series inside
    ``series_radius(beta)``; parabolic-contour inversion outside.  The
    regime choice depends only on (order, z), never on intermediate
    values, so results are deterministic for fixed inputs.
    """
    z = _check_finite(z)
    beta, gamma = order.beta, order.gamma
    if z == 0:
        return complex(rgamma(gamma))
    if beta == 1.0 and gamma == 1.0:
        if z.real > 709.0:
            raise NonConvergence("exp overflow: Re z too large")
        return cmath.exp(z)
    if abs(z) <= series_radius(beta):
        return ml_series(order, z)
    return _ml_contour(beta, gamma, z)


def _split_parts(beta: float, alpha: float, t: float) -> tuple[complex, complex]:
    """Oscillation and decay parts of E_beta(alpha * (-i*t)**beta).

    Returns (residue_term, cut_term); their sum is the function value.
    """
    c = alpha * (-1j) ** beta
    if alpha < 0.0:
        # The residue needs |arg c| < beta*pi, i.e. beta > 2/3 here; below
        # that the principal-branch power alpha**(1/beta) has left the
        # first sheet and the representation does not apply.
        if not _has_residue(beta, c):
            raise BranchDomain(
                "negative eigenvalue with beta <= 2/3: principal branch leaves "
                "the first sheet; use ml_global instead"
            )
    xm, wm, y = _cut_mesh(beta, t, t, [c])
    pole, pref = _residue_factor(beta, 1.0, c)
    osc = cmath.exp(pole * t) * pref
    w = _cut_weight_vector(beta, 1.0, c, xm, wm)
    cut = complex(np.exp(-y * t) @ w)
    return osc, cut


def ml_split(beta: float, alpha: float, t: float) -> complex:
    """Residue-plus-cut evaluation of E_beta(alpha * (-i*t)**beta).

    ``alpha`` is a real eigenvalue; the argument of the Mittag-Leffler
    function is alpha * (-i*t)**beta under principal branches.  At beta=1
    the cut vanishes analytically and the value is exactly exp(-i*alpha*t).

    Raises BranchDomain for alpha < 0 with beta <= 2/3 (no principal-sheet
    residue) and QuadratureFailure when the cut integrand's roots crowd
    the integration axis.
    """
    if not (math.isfinite(beta) and 0.0 < beta <= 1.0):
        raise InvalidOrder(f"beta must lie in (0, 1], got {beta!r}")
    if not (math.isfinite(alpha) and alpha != 0.0):
        raise InvalidParams(f"alpha must be real and nonzero, got {alpha!r}")
    if not (math.isfinite(t) and t > 0.0):
        raise InvalidParams(f"t must be positive, got {t!r}")
    if beta == 1.0:
        return cmath.exp(-1j * alpha * t)
    osc, cut = _split_parts(beta, alpha, t)
    return _ensure_value(osc + cut, "ml_split")


def ml_time_derivative(beta: float, c: complex, t: float) -> complex:
    """d/dt E_beta(c * t**beta) = c * t**(beta-1) * E_{beta,beta}(c * t**beta).

    For beta < 1 the magnitude diverges as t -> 0+; that is the correct
    behavior of the derivative, not an error.
    """
    if not (math.isfinite(beta) and 0.0 < beta <= 1.0):
        raise InvalidOrder(f"beta must lie in (0, 1], got {beta!r}")
    if not (math.isfinite(t) and t > 0.0):
        raise InvalidParams(f"t must be positive, got {t!r}")
    c = _check_finite(c, "coefficient")
    if c == 0:
        return 0.0 + 0.0j
    val = ml_global(MLOrder(beta, beta), c * t**beta)
    return _ensure_value(c * t ** (beta - 1.0) * val, "ml_time_derivative")


@functools.lru_cache(maxsize=256)
def _series_coefficients(beta: float, gamma: float) -> np.ndarray:
    """Taylor coefficients rgamma(beta*j + gamma) truncated for |z| <= series_radius(beta).

    Cached per order pair; the table is shared by every caller, so it is
    returned read-only.
    """
    z_max = series_radius(beta)
    coeffs = []
    zp = 1.0
    small_run = 0
    for j in range(_MAX_TERMS):
        a_j = rgamma(beta * j + gamma)
        coeffs.append(a_j)
        bound = abs(a_j) * zp
        zp = zp * z_max
        if zp > 1e280:
            raise NonConvergence("batch series bound exceeded double range")
        if bound <= 1e-18:
            small_run += 1
            if small_run >= 3:
                table = np.asarray(coeffs)
                table.flags.writeable = False
                return table
        else:
            small_run = 0
    raise NonConvergence(f"batch series truncation not reached in {_MAX_TERMS} terms")


@functools.lru_cache(maxsize=64)
def _window_mesh(
    beta: float, pairs: tuple[tuple[complex, float], ...], e: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cut mesh of the time window [2**(e-1), 2**e] and the pairs' weights.

    Returns (-nodes**(1/beta), real view of the complex weight columns).
    The mesh depends only on (beta, pairs, e), so it is cached and shared
    by every batch; both arrays are read-only.
    """
    cs = [c for c, _ in pairs if c != 0]
    xm, wm, y = _cut_mesh(beta, math.ldexp(1.0, e - 1), math.ldexp(1.0, e), cs)
    weight_mat = np.zeros((xm.size, len(pairs)), dtype=complex)
    for k, (c, gamma) in enumerate(pairs):
        if c != 0:
            weight_mat[:, k] = _cut_weight_vector(beta, gamma, c, xm, wm)
    neg_y = -y
    weight_real = weight_mat.view(np.float64)
    neg_y.flags.writeable = False
    weight_real.flags.writeable = False
    return neg_y, weight_real


def ml_linear_batch(
    beta: float,
    pairs: Sequence[tuple[complex, float]],
    ts: np.ndarray,
    powers: np.ndarray | None = None,
) -> np.ndarray:
    """E_{beta,gamma}(c * t**beta) for each (c, gamma) pair over a time grid.

    Times must be nonnegative; t = 0 rows evaluate to 1/Gamma(gamma).
    ``powers``, when given, holds ts**beta as the caller rounds it.  The
    series route below reads the power only, so a time too small for a
    double may be passed as 0 with its positive power.
    Times with max|c| * t**beta inside ``series_radius(beta)`` go through
    one Horner pass over every pair, the cached Taylor tables stacked and
    zero-padded to a common length.  The other times are split into
    dyadic windows [2**(e-1), 2**e), each with its own cached branch-cut
    mesh: the real factor exp(-x**(1/beta) * t) of a time is multiplied
    by the (re, im) weight columns of every pair in one matrix-vector
    product per time.  Coefficients whose cut roots fall too close to the
    integration axis are evaluated by the contour route point by point
    instead.  Each value therefore depends only on its own time and pair,
    not on the batch.

    Returns a complex array of shape (len(pairs), len(ts)).
    """
    if not (math.isfinite(beta) and 0.0 < beta <= 1.0):
        raise InvalidOrder(f"beta must lie in (0, 1], got {beta!r}")
    # rgamma and the cut weights need gamma > 0, as MLOrder requires.
    if not all(gamma > 0.0 for _, gamma in pairs):
        raise InvalidOrder(f"gamma must be positive, got {[g for _, g in pairs]!r}")
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise InvalidParams("ts must be a one-dimensional array")
    if ts.size and (not np.all(np.isfinite(ts)) or ts.min() < 0.0):
        raise InvalidParams("ts must be finite and nonnegative")
    tb = ts**beta if powers is None else np.asarray(powers, dtype=float)
    if tb.shape != ts.shape or (tb.size and (not np.all(np.isfinite(tb)) or tb.min() < 0.0)):
        raise InvalidParams("powers must be finite, nonnegative and match ts")
    out = np.empty((len(pairs), ts.size), dtype=complex)
    if ts.size == 0:
        return out

    if beta == 1.0:
        for i, (c, gamma) in enumerate(pairs):
            order = MLOrder(1.0, gamma)
            if gamma == 1.0:
                out[i] = np.exp(np.asarray(c) * tb)
            else:
                out[i] = [ml_global(order, c * t) for t in tb]
        _ensure_batch(out)
        return out

    radius = series_radius(beta)
    c_max = max((abs(c) for c, _ in pairs), default=0.0)
    if c_max == 0.0:
        for i, (_, gamma) in enumerate(pairs):
            out[i] = complex(rgamma(gamma))
        return out
    series_mask = c_max * tb <= radius
    mesh_mask = ~series_mask

    if np.any(series_mask):
        tables = [_series_coefficients(beta, gamma) for _, gamma in pairs]
        coef = np.zeros((len(pairs), max(len(table) for table in tables)))
        for i, table in enumerate(tables):
            coef[i, : len(table)] = table
        z = np.multiply.outer(np.array([c for c, _ in pairs], dtype=complex), tb[series_mask])
        acc = np.zeros_like(z)
        # Out of place on purpose: numpy's in-place complex multiply rounds
        # differently with the array length, which would make a value depend
        # on its batch-mates.  Zero padding leaves acc exactly 0 until a
        # row's own leading coefficient.
        for j in range(coef.shape[1] - 1, -1, -1):
            acc = acc * z + coef[:, j : j + 1]
        out[:, series_mask] = acc

    if np.any(mesh_mask):
        t_mesh = ts[mesh_mask]
        t_hi = float(t_mesh.max())
        mesh_pairs = []
        contour_pairs = []
        for i, (c, gamma) in enumerate(pairs):
            if c != 0 and _min_root_angle(beta, [c]) < _BATCH_CONTOUR_ANGLE:
                contour_pairs.append((i, c, gamma))
            else:
                mesh_pairs.append((i, c, gamma))
        if mesh_pairs:
            key = tuple((complex(c), float(gamma)) for _, c, gamma in mesh_pairs)
            vals = np.empty((t_mesh.size, len(mesh_pairs)), dtype=complex)
            vals_real = vals.view(np.float64)
            window = np.frexp(t_mesh)[1]
            for e in np.unique(window):
                neg_y, weight_real = _window_mesh(beta, key, int(e))
                rows = np.flatnonzero(window == e)
                # Chunks of about 2 MB keep the factor in cache and the
                # peak memory low.
                chunk = max(1, int(2.5e5 // neg_y.size))
                for lo in range(0, rows.size, chunk):
                    sel = rows[lo : lo + chunk]
                    expm = np.multiply.outer(t_mesh[sel], neg_y)
                    np.exp(expm, out=expm)
                    # A stack of matrix-vector products, one per time: a
                    # blocked matrix product would round a row differently
                    # depending on how many rows share the call.
                    vals_real[sel] = np.matmul(expm[:, None, :], weight_real)[:, 0, :]
            for k, (i, c, gamma) in enumerate(mesh_pairs):
                v = vals[:, k]
                if c == 0:
                    v = np.full(t_mesh.size, complex(rgamma(gamma)))
                else:
                    if _has_residue(beta, c):
                        pole, pref = _residue_factor(beta, gamma, c)
                        # Bound the whole term exp(pole*t) * pref * t**(1-gamma):
                        # a large prefactor overflows it below the exponent bound.
                        size = pole.real * t_hi + math.log(abs(pref))
                        size += max(0.0, (1.0 - gamma) * math.log(t_hi))
                        if pole.real * t_hi > 700.0 or size > 709.0:
                            raise NonConvergence(
                                f"residue e**{size:.4g} of c = {c!r} exceeds double range"
                            )
                        v = v + np.exp(pole * t_mesh) * pref
                    v = v * t_mesh ** (1.0 - gamma)
                out[i, mesh_mask] = v
        for i, c, gamma in contour_pairs:
            out[i, mesh_mask] = [_ml_contour(beta, gamma, c * x) for x in tb[mesh_mask]]

    _ensure_batch(out)
    return out


def _ensure_batch(out: np.ndarray) -> None:
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise NonConvergence("batch Mittag-Leffler evaluation produced non-finite values")
