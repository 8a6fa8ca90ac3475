"""Speed-limit bounds on the qubit population dynamics.

The geometric bound compares the Bures-angle displacement sin^2(B) of the
reduced state over [0, tau] against time-averaged norms of its rate of
change.  Because the reduced state stays diagonal, each Schatten norm of
the derivative is an explicit multiple of |d rho_ee/dt|, so the exact
time average is the total variation of the excited-state population
divided by tau.  The total variation is assembled from the population
values at the extrema (located by sign changes of the rate and refined
by a bracketing secant iteration), which keeps the bound free of
quadrature error: within a monotone segment the integral of |rate| is
the endpoint difference.  ``qsl_curve`` answers a whole tau grid from
one such pass, with the variation up to each tau a prefix sum over the
extrema; ``qsl_point`` is its one-tau case.

``qsl_ratio_formula`` recomputes the same ratio through a second route:
a closed-form numerator from the two eigenfactor values at tau, and a
panelwise Gauss-Legendre quadrature of |rate| for the denominator.  Only
the numerator is independent of the pipeline: the quadrature panels
reuse its sampling grid, extremum search and population rate.
``qsl_mlmt`` bounds the time a state needs to reach the relative purity
observed a window tau_D later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gamma as gamma_fn

from .errors import InvalidParams, NotPure
from .jcmodel import JCParams, QubitDynamics, Trajectory, cycle_grid, evolve, reduced_density

__all__ = [
    "QslPoint",
    "MLMTResult",
    "schatten_norm",
    "bures_overlap_term",
    "qsl_curve",
    "qsl_point",
    "qsl_ml",
    "qsl_mlmt",
    "qsl_ratio_formula",
]

_SQRT2 = math.sqrt(2.0)
# Gauss-Legendre points per panel of the closed-form route's |rate|
# integral; a choice of its own, not the cut-mesh rule of ``mlfun``.
_PANEL_POINTS = 15


@dataclass(frozen=True)
class QslPoint:
    """Speed-limit summary of one (parameters, tau) evaluation.

    ``ratio_op`` is the tightest bound ratio (operator norm);
    ``ratio_max`` is the best ratio over the three norms, which the
    norm ordering makes coincide with the operator one.  Ratios are 0 by
    convention when the state never moves (zero coupling).
    """

    tau: float
    sin2_bures: float
    lambda_tr: float
    lambda_hs: float
    lambda_op: float
    ratio_op: float
    ratio_max: float

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise InvalidParams("speed-limit fields must be finite numbers")
            object.__setattr__(self, f.name, float(v))
        if self.tau <= 0.0:
            raise InvalidParams(f"tau must be positive, got {self.tau!r}")
        if not (-1e-12 <= self.sin2_bures <= 1.0 + 1e-12):
            raise InvalidParams(f"sin2_bures outside [0, 1]: {self.sin2_bures!r}")
        slack = 1e-9 * (1.0 + self.lambda_tr)
        if not (0.0 <= self.lambda_op <= self.lambda_hs + slack):
            raise InvalidParams("norm ordering violated: op above hs")
        if not (self.lambda_hs <= self.lambda_tr + slack):
            raise InvalidParams("norm ordering violated: hs above tr")
        for name, r in (("ratio_op", self.ratio_op), ("ratio_max", self.ratio_max)):
            if not (0.0 <= r <= 1.0 + 1e-9):
                raise InvalidParams(f"{name} outside [0, 1]: {r!r}")


@dataclass(frozen=True)
class MLMTResult:
    """Window bound: minimal time to realize the observed purity change."""

    tau_qsl: float
    relative_purity: float
    avg_sv: float
    avg_hs: float

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise InvalidParams("window-bound fields must be finite numbers")
            object.__setattr__(self, f.name, float(v))
        if self.tau_qsl < 0.0:
            raise InvalidParams(f"tau_qsl must be nonnegative, got {self.tau_qsl!r}")
        if self.avg_sv < 0.0 or self.avg_hs < 0.0:
            raise InvalidParams("averaged norms must be nonnegative")


def schatten_norm(matrix: np.ndarray, kind: str) -> float:
    """Schatten norm of a 2x2 matrix: 'tr', 'hs', or 'op'.

    Uses the closed-form singular values of the 2x2 Gram matrix, so no
    iterative factorization is involved.  The entries are divided by the
    largest magnitude first, so the squares neither underflow nor overflow.
    """
    if kind not in ("tr", "hs", "op"):
        raise InvalidParams(f"unknown norm kind {kind!r}")
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise InvalidParams(f"matrix must be 2x2, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise InvalidParams("matrix entries must be finite")
    scale = float(np.abs(m).max())
    if scale == 0.0:
        return 0.0
    m = m / scale
    tr_gram = float(np.sum(np.abs(m) ** 2))
    abs_det = abs(complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))
    if kind == "hs":
        return scale * math.sqrt(tr_gram)
    if kind == "tr":
        return scale * math.sqrt(max(tr_gram + 2.0 * abs_det, 0.0))
    # Largest singular value from the Gram eigenvalues.
    disc = max(tr_gram * tr_gram - 4.0 * abs_det * abs_det, 0.0)
    return scale * math.sqrt(0.5 * (tr_gram + math.sqrt(disc)))


def bures_overlap_term(rho0: np.ndarray, rho_tau: np.ndarray) -> float:
    """sin^2 of the Bures angle from a pure start: |tr(rho0 rho_tau) - 1|."""
    r0 = np.asarray(getattr(rho0, "matrix", rho0), dtype=complex)
    rt = np.asarray(getattr(rho_tau, "matrix", rho_tau), dtype=complex)
    for name, r in (("rho0", r0), ("rho_tau", rt)):
        if r.shape != (2, 2):
            raise InvalidParams(f"{name} must be 2x2, got shape {r.shape}")
        if abs(complex(np.trace(r)) - 1.0) > 1e-10:
            raise InvalidParams(f"{name} must have unit trace")
    purity = float(np.real(np.trace(r0 @ r0)))
    if purity < 1.0 - 1e-10:
        raise NotPure(f"rho0 purity {purity!r} is below the pure-state tolerance")
    return abs(complex(np.trace(r0 @ rt)) - 1.0)


def _refine_crossings(
    engine: QubitDynamics,
    lo: np.ndarray,
    hi: np.ndarray,
    f_lo: np.ndarray,
    f_hi: np.ndarray,
) -> np.ndarray:
    """Bracketed secant (Illinois) zero search on the population rate.

    All brackets advance together; each iteration costs one vectorized
    rate evaluation.  Stops when every bracket has shrunk by 1e-8
    relative to its initial width.
    """
    a = lo.astype(float).copy()
    b = hi.astype(float).copy()
    fa = f_lo.astype(float).copy()
    fb = f_hi.astype(float).copy()
    width0 = np.abs(b - a)
    live = width0 > 0.0
    for _ in range(40):
        if not np.any(live):
            break
        denom = fb - fa
        safe = live & (denom != 0.0)
        m = np.where(safe, (a * fb - b * fa) / np.where(denom == 0.0, 1.0, denom), 0.5 * (a + b))
        inside = (m > np.minimum(a, b)) & (m < np.maximum(a, b))
        m = np.where(inside, m, 0.5 * (a + b))
        fm = np.zeros_like(m)
        fm[live] = engine.population_rate(m[live])
        exact = live & (fm == 0.0)
        same_side = fm * fb > 0.0
        keep_a = live & ~same_side & ~exact
        halve = live & same_side & ~exact
        # Illinois step: replace the repeated endpoint's value by half.
        a = np.where(keep_a, b, a)
        fa = np.where(keep_a, fb, np.where(halve, 0.5 * fa, fa))
        b = np.where(live & ~exact, m, b)
        fb = np.where(live & ~exact, fm, fb)
        a = np.where(exact, m, a)
        b = np.where(exact, m, b)
        live = live & (np.abs(b - a) > 1e-8 * width0) & ~exact
    return 0.5 * (a + b)


def _extrema_times(
    engine: QubitDynamics, times: np.ndarray, rates: np.ndarray
) -> np.ndarray:
    """Interior times where the population rate changes sign."""
    # Node 0 carries the conventional rate 0; skip it in sign logic.
    t = times[1:]
    f = rates[1:]
    exact = np.flatnonzero(f[:-1] == 0.0)
    prod = f[:-1] * f[1:]
    idx = np.flatnonzero(prod < 0.0)
    pieces = []
    if idx.size:
        pieces.append(
            _refine_crossings(engine, t[idx], t[idx + 1], f[idx], f[idx + 1])
        )
    if exact.size:
        pieces.append(t[exact])
    if not pieces:
        return np.empty(0)
    zs = np.concatenate(pieces)
    zs = zs[(zs > times[0]) & (zs < times[-1])]
    return np.unique(zs)


def _variation_to(
    engine: QubitDynamics,
    times: np.ndarray,
    rho_ee: np.ndarray,
    rates: np.ndarray,
    ends: np.ndarray,
) -> np.ndarray:
    """Exact total variation of rho_ee from times[0] to each of ``ends``.

    Every end must be one of the sampled ``times``.  Between consecutive
    extrema the population is monotone, so the variation of each segment
    is the difference of its endpoint values: a prefix sum over the
    extrema plus one endpoint term answers every end.
    """
    zs = _extrema_times(engine, times, rates)
    if zs.size:
        rho_z, _, _ = engine.population_sample(zs)
    else:
        rho_z = np.empty(0)
    node_vals = np.concatenate([[rho_ee[0]], rho_z])
    cum = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(node_vals)))])
    j = np.searchsorted(zs, ends, side="left")
    return cum[j] + np.abs(rho_ee[np.searchsorted(times, ends)] - node_vals[j])


def _point_from_variation(tau: float, sin2: float, tv: float) -> QslPoint:
    """Bound summary from sin^2(B) and the total variation over [0, tau].

    The Schatten norms of diag(-r, r) are (2, sqrt 2, 1) * |r|, so the
    operator-norm ratio is the largest of the three and is ``ratio_max``.
    """
    lam_op = tv / tau
    if tv == 0.0:
        # Frozen dynamics: no displacement, no average speed.
        return QslPoint(
            tau=tau,
            sin2_bures=sin2,
            lambda_tr=0.0,
            lambda_hs=0.0,
            lambda_op=0.0,
            ratio_op=0.0,
            ratio_max=0.0,
        )
    ratio_op = sin2 / tv
    return QslPoint(
        tau=tau,
        sin2_bures=sin2,
        lambda_tr=2.0 * lam_op,
        lambda_hs=_SQRT2 * lam_op,
        lambda_op=lam_op,
        ratio_op=ratio_op,
        ratio_max=ratio_op,
    )


def qsl_curve(params: JCParams, taus) -> list[QslPoint]:
    """Speed-limit ratios at every tau in ``taus`` from one dynamics pass.

    The population is sampled once on [0, max(taus)] with every tau
    among the nodes, its extrema are located once, and each tau is
    answered by a prefix sum of the variation plus one endpoint term.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size == 0 or not np.all(np.isfinite(taus) & (taus > 0.0)):
        raise InvalidParams(f"taus must be finite positive times, got {taus!r}")
    engine = QubitDynamics(params)
    base = cycle_grid(engine.oscillation_rate(), 0.0, float(taus.max()))
    times = np.unique(np.concatenate([base, taus]))
    rho_ee, _, rates = engine.population_sample(times)
    tvs = _variation_to(engine, times, rho_ee, rates, taus)
    sin2s = np.abs(rho_ee[np.searchsorted(times, taus)] - 1.0)
    return [
        _point_from_variation(float(tau), float(sin2), float(tv))
        for tau, sin2, tv in zip(taus, sin2s, tvs)
    ]


def qsl_point(params: JCParams, tau: float) -> QslPoint:
    """Speed-limit ratios for the dynamics run up to time tau."""
    if not (isinstance(tau, (int, float)) and math.isfinite(tau) and tau > 0.0):
        raise InvalidParams(f"tau must be positive, got {tau!r}")
    return qsl_curve(params, [tau])[0]


def qsl_ml(trajectory: Trajectory) -> QslPoint:
    """Speed-limit ratios from a precomputed trajectory."""
    engine = QubitDynamics(trajectory.params)
    times = trajectory.times
    rho_ee = trajectory.rho_ee
    tv = _variation_to(engine, times, rho_ee, trajectory.rho_dot, times[-1:])[0]
    sin2 = abs(rho_ee[-1] - 1.0)
    return _point_from_variation(float(times[-1]), float(sin2), float(tv))


def qsl_mlmt(params: JCParams, tau: float, tau_d: float) -> MLMTResult:
    """Window bound from the relative purity drop across [tau, tau+tau_d].

    The bound divides the purity displacement |f - 1| * tr(chi_tau^2) by
    the window average of the singular values of the state derivative
    paired (descending) with those of chi_tau.  For this diagonal model
    that pairing collapses to |d rho_ee/dt| times the unit trace of
    chi_tau, so the window average is the total variation over tau_d.
    """
    if not (isinstance(tau, (int, float)) and math.isfinite(tau) and tau >= 0.0):
        raise InvalidParams(f"tau must be nonnegative, got {tau!r}")
    if not (isinstance(tau_d, (int, float)) and math.isfinite(tau_d) and tau_d > 0.0):
        raise InvalidParams(f"tau_d must be positive, got {tau_d!r}")
    engine = QubitDynamics(params)
    t0, t1 = float(tau), float(tau + tau_d)
    # The window grid starts at t0 and ends at t1, so one sample serves
    # both the purity and the variation.
    times = cycle_grid(engine.oscillation_rate(), t0, t1)
    rho_e, rho_g, rates = engine.population_sample(times)
    chi_tau = np.array([rho_g[0], rho_e[0]])
    chi_later = np.array([rho_g[-1], rho_e[-1]])
    tr_sq = float(np.sum(chi_tau**2))
    overlap = float(np.sum(chi_later * chi_tau))
    rel_purity = overlap / tr_sq
    tv = float(_variation_to(engine, times, rho_e, rates, times[-1:])[0])

    avg_sv = tv / tau_d
    avg_hs = _SQRT2 * avg_sv
    if avg_sv == 0.0:
        tau_qsl = 0.0
    else:
        tau_qsl = abs(rel_purity - 1.0) * tr_sq / avg_sv
    return MLMTResult(
        tau_qsl=tau_qsl,
        relative_purity=rel_purity,
        avg_sv=avg_sv,
        avg_hs=avg_hs,
    )


def qsl_ratio_formula(params: JCParams, tau: float) -> float:
    """Operator-norm bound ratio through the closed-form route.

    Numerator: sin^2(B) is the ground population of ``reduced_density``
    applied to ``evolve(params, tau)``, the scalar route that takes each
    eigenfactor E_beta(+-g (-i tau)**beta) from its own ``ml_global``
    call.  With P = |E2|^2 + |E1|^2 and R = 2 Re(E2 conj(E1)) this is

        sin^2(B) = a^2 (P - R) / (b^2 (P + R) + a^2 (P - R)).

    Denominator: integral of |d rho_ee/dt| by 15-point Gauss-Legendre on
    each monotone segment, with the first segment graded geometrically
    down to a cutoff below which the closed-form power law
    rho_gg ~ K t**(2 beta) supplies the remaining sliver.
    """
    if not (isinstance(tau, (int, float)) and math.isfinite(tau) and tau > 0.0):
        raise InvalidParams(f"tau must be positive, got {tau!r}")
    tau = float(tau)
    engine = QubitDynamics(params)
    beta = params.beta
    g = params.coupling
    a, b = params.a, params.b
    if g == 0.0:
        return 0.0

    numer = reduced_density(evolve(params, tau)).p_ground

    times = cycle_grid(engine.oscillation_rate(), 0.0, tau)
    _, _, rates = engine.population_sample(times)
    zs = _extrema_times(engine, times, rates)
    bounds = np.concatenate([[0.0], zs, [tau]])

    k_coef = (a / b) ** 2 * (g / gamma_fn(1.0 + beta)) ** 2
    eps = min(0.5 * bounds[1], (1e-13 / k_coef) ** (1.0 / (2.0 * beta)))
    sliver = k_coef * eps ** (2.0 * beta)

    # Panel list: graded subdivision of (eps, first extremum], then one
    # panel per monotone segment.
    panels = []
    edge = eps
    while edge < bounds[1]:
        nxt = min(edge * 4.0, bounds[1])
        panels.append((edge, nxt, 0))
        edge = nxt
    for seg in range(1, bounds.size - 1):
        panels.append((bounds[seg], bounds[seg + 1], seg))

    xg, wg = leggauss(_PANEL_POINTS)
    nodes = []
    weights = []
    for lo, hi, _ in panels:
        half = 0.5 * (hi - lo)
        nodes.append(0.5 * (lo + hi) + half * xg)
        weights.append(half * wg)
    all_nodes = np.concatenate(nodes)
    all_weights = np.concatenate(weights)
    rate_vals = engine.population_rate(all_nodes)

    seg_ids = np.concatenate([np.full(_PANEL_POINTS, sid) for _, _, sid in panels])
    denom = sliver
    for sid in range(bounds.size - 1):
        sel = seg_ids == sid
        denom += abs(float(np.sum(rate_vals[sel] * all_weights[sel])))
    if denom == 0.0:
        return 0.0
    return numer / denom
