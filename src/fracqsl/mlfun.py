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
  series radius.

``ml_linear_batch`` evaluates E_{beta,gamma}(c * t**beta) for several
(c, gamma) pairs on a shared time grid.  Small arguments go through the
Taylor series as one matrix-vector product per time: each pair has a
cached weight column a_j * (c/|c|)**j, and each time a row of real powers
(|c| * t**beta)**j, shared by the pairs of one |c|.  The rest go through
Bromwich contours of their own, one parabola per dyadic time window
[2**(e-1), 2**e), cached with the pairs' weight columns.  A window's
contour is sized from the window bounds and the pairs' poles alone: each
pole is either enclosed, and its residue added, or left outside.  The
factor exp(s_k * t) of the trapezoid sum depends only on the nodes and
the time, so it is computed once per time (one complex exp, then powers
of it) and multiplied by every pair's weights.  Both routes build their
powers by the same doubling.  A value depends on its own time and the
call's list of pairs, never on the other times.  The batch shares no
code with ``_ml_contour`` or with the cut mesh of ``ml_split``.

Each input decision has one home here: ``check_order`` refuses an order
pair outside beta in (0, 1], gamma > 0 with ``InvalidOrder``, and
``check_time`` a time that is not finite and positive with
``InvalidParams``; every layer above calls them.
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
    "check_order",
    "check_time",
]

# Decay budget of the cut integral: e^{-45} ~ 3e-20 truncation.
_EFOLDS = 45.0
# Geometric head panels resolving the cut integrand's endpoint behavior
# between 1e-9 * x_break and x_break, at a ratio of at most 1.9.
_HEAD_PANELS = math.ceil(9.0 * math.log(10.0) / math.log(1.9))
# Tail panels advance ~5 e-folds of the exponential factor each.
_TAIL_EFOLDS = 5.0
# Trapezoid points per half-contour of the parabolic Bromwich inversion.
_CONTOUR_NODES = 300
# Minimum angular distance of a cut-integrand root from the positive axis
# before the quadrature refuses (the two roots sit at arg(c) +- beta*pi).
_MIN_ROOT_ANGLE = 5e-3
# E-folds of the batch's window contours: truncation, discretisation and
# pole errors of their trapezoid sums are each held to e**-36 ~ 2e-16.
_WINDOW_EFOLDS = 36.0
# Largest growth of a window contour's terms over the value it sums, for
# gamma - beta > 1: e**9 ~ 8e3 keeps their rounding near 1e-12.
_ROUNDING_EFOLDS = 9.0
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
    # A float is answered before the slower abstract-class check: every
    # batch call checks each of its pairs.
    if type(value) is float:
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_order(beta, gamma=1.0) -> tuple[float, float]:
    """(beta, gamma) as floats if beta lies in (0, 1] and gamma is positive.

    Both must be finite reals, else InvalidOrder.  A bool is refused (True
    would pass as 1); a numpy scalar is taken as its float.
    """
    if not (is_real(beta) and math.isfinite(beta) and 0.0 < beta <= 1.0):
        raise InvalidOrder(f"beta must lie in (0, 1], got {beta!r}")
    if not (is_real(gamma) and math.isfinite(gamma) and gamma > 0.0):
        raise InvalidOrder(f"gamma must be positive and finite, got {gamma!r}")
    return float(beta), float(gamma)


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
class MLOrder:
    """Order pair (beta, gamma) of the two-parameter Mittag-Leffler function."""

    beta: float
    gamma: float = 1.0

    def __post_init__(self) -> None:
        beta, gamma = check_order(self.beta, self.gamma)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)


def series_radius(beta: float) -> float:
    """Dispatch radius of the Taylor series.

    The summation loses roughly 0.434 * |z|**(1/beta) digits to
    cancellation, so the admissible |z| shrinks with beta; nine e-folds of
    growth keep the relative error near 1e-9 in double precision.
    Below beta ~ 0.09 the terms decay too slowly for that: the radius is
    then the largest |z| whose terms fall below 1e-18 within the 600-term
    budget for every gamma, using 1/Gamma(x) <= 1/Gamma(max(x, 1.4616)).
    """
    last = _MAX_TERMS - 3
    reach = math.exp((math.log(1e-18) + math.lgamma(max(beta * last, 1.4616))) / last)
    return min(5.0, 9.0**beta, reach)


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
    Terms are cut relative to the largest coefficient so far, capped at 1,
    so that a large gamma, whose coefficients all lie far below 1, is
    summed to full relative precision.
    Intended for |z| <= series_radius(beta); larger arguments either lose
    accuracy to cancellation or fail to converge within 600 terms.
    """
    z = _check_finite(z)
    beta, gamma = order.beta, order.gamma
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    zp = 1.0 + 0.0j
    scale = 0.0
    small_run = 0
    for j in range(_MAX_TERMS):
        a_j = rgamma(beta * j + gamma)
        scale = min(1.0, max(scale, a_j))
        term = zp * complex(a_j)
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
        if abs(term) <= 1e-16 * (scale + abs(total)) + 1e-14 * scale:
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


def _cut_mesh(beta: float, t: float, c: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre mesh in x = r**beta for the branch-cut integral at time t.

    The integrand carries exp(-x**(1/beta) * t) times a rational factor
    whose roots sit at c*exp(+-i*beta*pi).  One panel spans [0, 1e-9 *
    x_break] with x_break = t**(-beta); geometric head panels above it
    resolve the algebraic endpoint behavior up to x_break, e-fold-budgeted
    tail panels track the exponential, and zoom panels are inserted around
    |c| whenever a root approaches the integration axis.
    Returns (nodes, weights, nodes**(1/beta)).
    """
    r_hi = min(_EFOLDS / t, _QUAD_CUTOFF)
    x_hi = r_hi**beta
    x_break = min((1.0 / t) ** beta, x_hi)
    # A single panel from 0 covers x < 1e-9 * x_break: the integrand there
    # is nearly constant, so its share of the integral is of order 1e-9 or
    # below.
    # The graded panels above it end exactly at x_break, so none of them
    # reaches into the decay region that the tail panels budget by e-folds.
    x_head = 1e-9 * x_break
    edges = [0.0, *np.geomspace(x_head, x_break, _HEAD_PANELS + 1)]
    r_tail = 1.0 + _TAIL_EFOLDS * beta / _EFOLDS
    while edges[-1] < x_hi:
        edges.append(edges[-1] * r_tail)
    edge_arr = [np.asarray(edges)]

    d_min = min(abs(cmath.phase(r)) for r in _cut_roots(beta, c))
    if d_min < _ZOOM_ANGLE:
        if d_min < _MIN_ROOT_ANGLE:
            raise QuadratureFailure(
                "cut-integrand root within "
                f"{d_min:.2e} rad of the positive axis; refine budget exceeded"
            )
        ratio = math.exp(max(d_min, 0.02) / 3.0)
        lo = max(abs(c) * math.exp(-1.5), x_head)
        hi = min(abs(c) * math.exp(1.5), x_hi)
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


def _cut_weight_vector(beta: float, c: complex, xm: np.ndarray, wm: np.ndarray) -> np.ndarray:
    """Quadrature weights of the branch-cut integral of E_beta(c * t**beta)."""
    r1, r2 = _cut_roots(beta, c)
    rational = c * math.sin(math.pi * beta) / ((xm - r1) * (xm - r2))
    return -wm * rational / (beta * math.pi)


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
    xm, wm, y = _cut_mesh(beta, t, c)
    osc = cmath.exp(_pole(beta, c) * t) / beta
    w = _cut_weight_vector(beta, c, xm, wm)
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
    beta = check_order(beta)[0]
    if not (is_real(alpha) and math.isfinite(alpha) and alpha != 0.0):
        raise InvalidParams(f"alpha must be real and nonzero, got {alpha!r}")
    alpha, t = float(alpha), check_time(t, "t")
    if beta == 1.0:
        return cmath.exp(-1j * alpha * t)
    osc, cut = _split_parts(beta, alpha, t)
    return _ensure_value(osc + cut, "ml_split")


def ml_time_derivative(beta: float, c: complex, t: float) -> complex:
    """d/dt E_beta(c * t**beta) = c * t**(beta-1) * E_{beta,beta}(c * t**beta).

    For beta < 1 the magnitude diverges as t -> 0+; that is the correct
    behavior of the derivative, not an error.
    """
    beta = check_order(beta)[0]
    t = check_time(t, "t")
    c = _check_finite(c, "coefficient")
    if c == 0:
        return 0.0 + 0.0j
    val = ml_global(MLOrder(beta, beta), c * t**beta)
    return _ensure_value(c * t ** (beta - 1.0) * val, "ml_time_derivative")


def _digamma(x: np.ndarray) -> np.ndarray:
    """psi(x) for x > 0 to about 1e-5: six recurrence steps, then Stirling."""
    y = x + 6.0
    total = np.log(y) - 0.5 / y - 1.0 / (12.0 * y * y)
    for k in range(6):
        total = total - 1.0 / (x + k)
    return total


@functools.lru_cache(maxsize=256)
def _series_coefficients(beta: float, gamma: float) -> np.ndarray:
    """Taylor coefficients rgamma(beta*j + gamma) truncated for |z| <= series_radius(beta).

    The table ends at the third term in a row below 1e-18 times the largest
    coefficient so far, capped at 1, as ``ml_series`` cuts its terms.
    Rounding beta*j + gamma to a double moves 1/Gamma by psi(x) times the
    rounding, hundreds of ulp at x ~ 50; in a series that cancels, that
    noise is the largest error of the sum.  The rounding is recovered
    exactly (Dekker's product of beta with the integer j, Knuth's sum with
    gamma) and removed to first order, 1/Gamma(x + dx) = (1 - psi(x)*dx) /
    Gamma(x), which leaves each coefficient within a few ulp.
    Cached per order pair; the table is shared by every caller, so it is
    returned read-only.
    """
    z_max = series_radius(beta)
    coeffs = []
    zp = 1.0
    scale = 0.0
    small_run = 0
    for j in range(_MAX_TERMS):
        a_j = rgamma(beta * j + gamma)
        coeffs.append(a_j)
        scale = min(1.0, max(scale, a_j))
        bound = a_j * zp
        zp = zp * z_max
        if zp > 1e280:
            raise NonConvergence("batch series bound exceeded double range")
        if bound <= 1e-18 * scale:
            small_run += 1
            if small_run >= 3:
                break
        else:
            small_run = 0
    else:
        raise NonConvergence(f"batch series truncation not reached in {_MAX_TERMS} terms")
    table = np.asarray(coeffs)
    j = np.arange(table.size, dtype=float)
    prod = beta * j
    split = 134217729.0 * beta
    b_hi = split - (split - beta)
    arg = prod + gamma
    back = arg - prod
    rounding = ((b_hi * j - prod) + (beta - b_hi) * j) + ((prod - (arg - back)) + (gamma - back))
    table = table - table * (_digamma(arg) * rounding)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=64)
def _series_column(beta: float, c: complex, gamma: float) -> np.ndarray:
    """Series weights a_j * u**j of E_{beta,gamma}(c * t**beta), u = c / |c|.

    With x = |c| * t**beta, the value is sum_j a_j * u**j * x**j: a
    complex weight column times real powers, which every pair of the same
    |c| shares.  The phases u**j are sequential products, whose rounding
    grows like j ulp at worst; exp(i*j*arg u) or a complex power would
    carry the rounding of j * arg(u), which is larger.  Cached per
    (beta, c, gamma) and returned read-only, as a real (terms, 2) view.
    """
    table = _series_coefficients(beta, gamma)
    steps = np.full(table.size, c / abs(c))
    steps[0] = 1.0
    column = (table * np.multiply.accumulate(steps)).view(np.float64).reshape(-1, 2)
    column.flags.writeable = False
    return column


def _contour_shape(
    beta: float, pairs: tuple[tuple[complex, float], ...], t0: float
) -> tuple[float, float, int, list[bool]]:
    """(mu, h, node count, enclosed flags) of the contour for times in [t0, 2*t0).

    The parabola s(u) = mu * (1 + i*u)**2 meets the branch cut at Im u = 1
    and a pole p = rho * exp(i*phi) at Im u = 1 - x, x = sqrt(rho/mu) *
    cos(phi/2); the pole is enclosed when x > 1.  With a = mu * t0, the
    trapezoid rule of step h on |u| <= U errs by about exp(-2*pi*d/h) for
    each singularity at distance d from the real u axis (the cut at 1, a
    pole at |1 - x|), by exp(2*a*(1 + d)**2 - 2*pi*d/h) on the outer side
    of the strip, which ends at the nearest enclosed pole, and by
    exp(a*(1 - U**2)) from truncation at the window start (Weideman and
    Trefethen, Math. Comp. 76, 2007).  Each is held to e**-36.  a runs
    down a fixed grid from 1, so that no term of the sum exceeds e**2 and
    its rounding stays near the ulp of O(1) values; the grid point with
    the fewest nodes wins, the smaller a on a tie.

    A pair with nu = gamma - beta > 1 needs more.  Its factor
    s**(beta-gamma) * ds/du grows like (1 - d)**(2 - 2*nu) towards the cut,
    so the cut's strip is used only up to the d that keeps that growth
    inside the budget.  And its terms exceed its value, about
    t**(nu-1) / (|c| * Gamma(nu)), by up to (mu*t)**(1-nu) * e**(mu*t) *
    Gamma(nu): a grid point where that exceeds e**_ROUNDING_EFOLDS is
    skipped, and a gamma too large for every point (gamma - beta above
    about 7.9) is refused.
    """
    efolds = _WINDOW_EFOLDS
    # (log rho, cos(phi/2)) of each pair's pole on the principal sheet.
    poles = [
        (math.log(abs(c)) / beta, math.cos(0.5 * cmath.phase(c) / beta))
        if _has_residue(beta, c)
        else None
        for c, _ in pairs
    ]
    nu = max([1.0] + [gamma - beta for _, gamma in pairs])
    # The cut's strip is used up to d, where (1 - d)**-grow costs its share
    # of e-folds; reach is that d scaled by the e-folds left for the step.
    reach = 1.0
    if nu > 1.0:
        grow = 2.0 * (nu - 1.0)
        d = efolds / (efolds + grow)
        reach = d * efolds / (efolds + grow * math.log1p(efolds / grow))
    best = None
    least = math.inf
    for j in range(24):
        a = 2.0 ** (-0.25 * j)
        if nu > 1.0:
            # Times in the window span mu * t in [a, 2a).
            growth = math.lgamma(nu) + max(
                (1.0 - nu) * math.log(a) + a, (1.0 - nu) * math.log(2.0 * a) + 2.0 * a
            )
            least = min(least, growth)
            if growth > _ROUNDING_EFOLDS:
                continue
        log_mu = math.log(a / t0)
        # A pair without a pole counts as x = 0: its distance is the cut's.
        xs = [
            math.exp(min(0.5 * (pole[0] - log_mu), 700.0)) * pole[1] if pole else 0.0
            for pole in poles
        ]
        d_near = min([reach] + [abs(1.0 - x) for x in xs])
        d_out = min([math.sqrt(1.0 + efolds / (2.0 * a))] + [x - 1.0 for x in xs if x > 1.0])
        h = 2.0 * math.pi * min(d_near / efolds, d_out / (efolds + 2.0 * a * (1.0 + d_out) ** 2))
        steps = math.sqrt(1.0 + efolds / a) / h if h > 0.0 else math.inf
        if steps < math.inf and (best is None or math.ceil(steps) + 1 <= best[2]):
            best = (a / t0, h, math.ceil(steps) + 1, [x > 1.0 for x in xs])
    if best is None and least > _ROUNDING_EFOLDS:
        raise QuadratureFailure(
            f"gamma - beta = {nu:.4g}: window contour terms exceed the value by "
            f"e**{least:.3g} or more, past the rounding budget"
        )
    if best is None:
        raise QuadratureFailure("every window contour passes through a pole")
    return best


@functools.lru_cache(maxsize=64)
def _window_contour(
    beta: float, pairs: tuple[tuple[complex, float], ...], e: int
) -> tuple[np.ndarray, float, np.ndarray, tuple[tuple[int, complex, complex], ...]]:
    """Bromwich contour of the time window [2**(e-1), 2**e) and the pairs' weights.

    t**(gamma-1) * E_{beta,gamma}(c * t**beta) is the inverse Laplace
    transform of s**(beta-gamma) / (s**beta - c).  The trapezoid nodes of
    the window's parabola are s_k = mu * (1 + i*k*h)**2, k = 0..K-1, and
    their conjugates.  As exp(conj(s_k) * t) = conj(exp(s_k * t)), each
    node pair is one (Re, Im) pair of exp(s_k * t) times two weight rows.
    Returns (Re s_k, Im s_1 = 2*mu*h, real view of the (2K, pairs) weight
    matrix, (index, pole, prefactor) of each enclosed residue).  The
    contour depends only on (beta, pairs, e), so it is cached and shared
    by every batch; both arrays are read-only.
    """
    mu, h, count, enclosed = _contour_shape(beta, pairs, math.ldexp(1.0, e - 1))
    u = np.arange(count) * h
    if not math.isfinite(mu * (1.0 + u[-1] ** 2)):
        raise NonConvergence(f"contour of the time window 2**{e} exceeds double range")
    decay = mu * (1.0 - u * u)
    step = 2.0 * mu * h
    upper = decay + 1j * step * np.arange(count)
    lower = np.conj(upper)
    # ds / (2*pi*i) = mu * (1 + i*u) / pi du; the real node s_0 is its own
    # conjugate, so each half carries half of its weight.
    du = h * mu * (1.0 + 1j * u) / math.pi
    du[0] = 0.5 * du[0]
    weight_mat = np.zeros((2 * count, len(pairs)), dtype=complex)
    for k, (c, gamma) in enumerate(pairs):
        w_up = du * upper ** (beta - gamma) / (upper**beta - c)
        w_lo = np.conj(du) * lower ** (beta - gamma) / (lower**beta - c)
        weight_mat[0::2, k] = w_up + w_lo
        weight_mat[1::2, k] = 1j * (w_up - w_lo)
    residues = tuple(
        (k, *_residue_factor(beta, gamma, c))
        for k, ((c, gamma), inside) in enumerate(zip(pairs, enclosed))
        if inside
    )
    weight_real = weight_mat.view(np.float64)
    decay.flags.writeable = False
    weight_real.flags.writeable = False
    return decay, step, weight_real, residues


def _doubling_powers(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (len(z), count) with the powers z**0 .. z**(count-1) and return it.

    Built by doubling: the block [k, 2k) is the block [0, k) times z**k,
    and z**k comes from repeated squaring, so z**j takes one product per
    binary digit of j.  Each entry is the same sequence of products
    whatever the count and the length of ``z`` are.
    """
    count = out.shape[1]
    out[:, 0] = 1.0
    zk = z[:, None]
    k = 1
    while k < count:
        m = min(k, count - k)
        np.multiply(out[:, :m], zk, out=out[:, k : k + m])
        zk = zk * zk
        k = 2 * k
    return out


def _node_exponentials(t: np.ndarray, decay: np.ndarray, step: float) -> np.ndarray:
    """exp(s_k * t) at the nodes s_k = decay[k] + i*k*step, as (Re, Im) pairs.

    The phase factor exp(i*k*step*t) is the k-th power of one complex exp
    per time, built by doubling; its rounding grows like k ulp, as that of
    the phase k*step*t itself does.  The modulus is one real exp per node.
    Returns a real (len(t), 2K) array.
    """
    phases = _doubling_powers(np.exp(1j * (t * step)), np.empty((t.size, decay.size), complex))
    return (np.exp(np.multiply.outer(t, decay)) * phases).view(np.float64)


def _window_values(
    beta: float, pairs: Sequence[tuple[complex, float]], ts: np.ndarray
) -> np.ndarray:
    """E_{beta,gamma}(c * t**beta) for every pair from the window contours of ``ts``."""
    key = tuple((complex(c), float(gamma)) for c, gamma in pairs)
    vals = np.empty((ts.size, len(pairs)), dtype=complex)
    vals_real = vals.view(np.float64)
    window = np.frexp(ts)[1]
    for e in np.unique(window):
        decay, step, weight_real, residues = _window_contour(beta, key, int(e))
        rows = np.flatnonzero(window == e)
        # Chunks of about 1 MB of complex factors keep them in cache and the
        # peak memory low.
        chunk = max(1, int(6.25e4 // decay.size))
        for lo in range(0, rows.size, chunk):
            sel = rows[lo : lo + chunk]
            factors = _node_exponentials(ts[sel], decay, step)
            # A stack of matrix-vector products, one per time: a blocked
            # matrix product would round a row differently depending on how
            # many rows share the call.
            vals_real[sel] = np.matmul(factors[:, None, :], weight_real)[:, 0, :]
        t_win = ts[rows]
        t_hi = float(t_win.max())
        for k, pole, pref in residues:
            c, gamma = key[k]
            # Bound the whole term exp(pole*t) * pref * t**(1-gamma): a large
            # prefactor overflows it below the exponent bound.
            size = pole.real * t_hi + math.log(abs(pref))
            size += max(0.0, (1.0 - gamma) * math.log(t_hi))
            if pole.real * t_hi > 700.0 or size > 709.0:
                raise NonConvergence(f"residue e**{size:.4g} of c = {c!r} exceeds double range")
            vals[rows, k] = vals[rows, k] + np.exp(pole * t_win) * pref
    out = np.empty((len(pairs), ts.size), dtype=complex)
    for k, (_, gamma) in enumerate(key):
        out[k] = vals[:, k] * ts ** (1.0 - gamma)
    return out


def _series_values(
    beta: float, pairs: Sequence[tuple[complex, float]], tb: np.ndarray
) -> np.ndarray:
    """E_{beta,gamma}(c * t**beta) for every pair from its cached series weights.

    Pairs of the same |c| share the real powers (|c| * t**beta)**j; each
    pair's value is one matrix-vector product per time over its own table
    length, so neither the times nor the other pairs change its rounding.
    """
    out = np.empty((len(pairs), tb.size), dtype=complex)
    groups: dict[float, list[tuple[int, np.ndarray]]] = {}
    for k, (c, gamma) in enumerate(pairs):
        groups.setdefault(abs(c), []).append((k, _series_column(beta, c, gamma)))
    for modulus, members in groups.items():
        count = max(column.shape[0] for _, column in members)
        x = modulus * tb
        # Chunks of about 1 MB of powers, in one buffer, keep them in cache
        # and the peak memory low.
        chunk = max(1, int(1.25e5 // count))
        buffer = np.empty((min(chunk, tb.size), count))
        for lo in range(0, tb.size, chunk):
            rows = x[lo : lo + chunk]
            powers = _doubling_powers(rows, buffer[: rows.size])
            for k, column in members:
                vals = np.matmul(powers[:, None, : column.shape[0]], column)[:, 0, :]
                out[k, lo : lo + chunk] = vals.view(complex)[:, 0]
    return out


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
    Rows with c = 0 are 1/Gamma(gamma) at every time, and at beta = 1,
    gamma = 1 rows are exp(c * t).  Other rows at times with
    max|c| * t**beta inside ``series_radius(beta)`` are Taylor sums: one
    matrix-vector product per time of the real powers (|c| * t**beta)**j
    with the pair's cached weight column a_j * (c/|c|)**j, over the
    pair's own table length.  The remaining times are split into dyadic
    windows [2**(e-1), 2**e), each with its own cached Bromwich contour:
    the factors exp(s_k * t) of a time are multiplied by the weight
    columns of every pair in one matrix-vector product per time, and the
    residues of the poles the contour encloses are added.  A value thus
    depends on its own time and the list of pairs, not on other times.
    A non-finite coefficient raises ``InvalidParams``; an order that
    ``check_order`` refuses (a bool included) raises ``InvalidOrder``.

    Returns a complex array of shape (len(pairs), len(ts)).
    """
    beta = check_order(beta)[0]
    # rgamma and the contour weights need a finite gamma > 0, as MLOrder
    # requires, and a finite coefficient.
    pairs = [
        (_check_finite(c, "coefficient"), check_order(beta, gamma)[1]) for c, gamma in pairs
    ]
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
    # Every routing decision is made here: a zero coefficient is the
    # constant 1/Gamma(gamma) and never reaches a route, so it moves no
    # contour; the rest go by time to the series or the window contours.
    rest = []
    for i, (c, gamma) in enumerate(pairs):
        if c == 0:
            out[i] = rgamma(gamma)
        elif beta == 1.0 and gamma == 1.0:
            out[i] = np.exp(np.asarray(c) * tb)
        else:
            rest.append(i)
    if rest:
        kept = [pairs[i] for i in rest]
        rows = np.empty((len(rest), ts.size), dtype=complex)
        series = max(abs(c) for c, _ in kept) * tb <= series_radius(beta)
        if np.any(series):
            rows[:, series] = _series_values(beta, kept, tb[series])
        if not np.all(series):
            rows[:, ~series] = _window_values(beta, kept, ts[~series])
        out[rest] = rows
    if not np.all(np.isfinite(out)):
        raise NonConvergence("batch Mittag-Leffler evaluation produced non-finite values")
    return out
