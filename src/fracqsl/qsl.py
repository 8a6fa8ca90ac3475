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
the endpoint difference.

The coupling enters the dynamics only through s = g**(1/beta) * t, so
every (params, tau) with the same (beta, a, b) reads one unit-coupling
curve: the state at tau is the unit curve's state at s, and the
variation over [0, tau] is the unit curve's variation over [0, s].
``qsl_curve`` answers any number of such pairs from one pass over that
curve, with the variation up to each s a prefix sum over the extrema;
``qsl_point`` is its one-pair case.  Extrema are bracketed on the fixed
lattice of ``cycle_lattice`` and at probe times fixed inside its cells
(where two extrema may share a cell), and every Mittag-Leffler value
depends on its own time only, so a point's bits do not depend on which
other points share the pass.  Zero coupling is frozen dynamics.
``qsl_mlmt`` bounds the time a state needs to reach the relative purity
observed a window tau_D later; it reads both window ends from the same
kind of pass, and its variation is the difference of their prefix sums.

``qsl_ratio_formula`` recomputes the same ratio through a second route:
a closed-form numerator from the two eigenfactor values at tau, and a
panelwise Gauss-Legendre quadrature of |rate| for the denominator.  Only
the numerator is independent of the pipeline: the quadrature panels
reuse its lattice (at the actual coupling's rate rather than in scaled
time), extremum search and population rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DegenerateState, InvalidParams
from .jcmodel import (
    JCParams,
    QubitDynamics,
    check_time,
    cycle_lattice,
    evolve,
    scaled_time,
)

__all__ = [
    "QslPoint",
    "MLMTResult",
    "qsl_curve",
    "qsl_point",
    "qsl_mlmt",
    "qsl_ratio_formula",
]

_SQRT2 = math.sqrt(2.0)
# Gauss-Legendre points per panel of the closed-form route's |rate|
# integral; a choice of its own, not the cut-mesh rule of ``mlfun``.
_PANEL_POINTS = 15
# Probe times per two-cell window in which the rate keeps its sign; see
# ``_hidden_crossings``.
_PROBES = 15


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


def _hidden_crossings(
    engine: QubitDynamics, t: np.ndarray, f: np.ndarray, before: float
) -> tuple[np.ndarray, ...]:
    """Sign changes of the rate that the nodes ``t`` step over.

    Two extrema closer than a cell leave the rate with one sign at both
    of its ends while it dips through zero and back between them.  Such a
    dip shows on the nodes as a rate of one sign at three consecutive
    nodes, smallest in magnitude at the middle one.  Each such window of
    two cells is probed at ``_PROBES`` evenly spaced interior times; where
    no sign change shows, the span around the probe of smallest |rate|
    is probed once more the same way.  Pairs are found down to the second
    level's probe spacing, 4 * cell / (_PROBES + 1)**2 = cell / 64, apart.
    Every probe time is a function of the window's two outer nodes only,
    so what is found does not depend on how far the nodes run past the
    window.  Only windows that start before ``before`` are probed.

    Returns the (lo, hi, f_lo, f_hi) brackets of the sign changes and the
    probe times where the rate is exactly 0.
    """
    k = np.flatnonzero(
        (f[:-2] * f[1:-1] > 0.0)
        & (f[1:-1] * f[2:] > 0.0)
        & (np.abs(f[1:-1]) < np.abs(f[:-2]))
        & (np.abs(f[1:-1]) <= np.abs(f[2:]))
        & (t[:-2] < before)
    )
    lo, hi, f_lo, f_hi = t[k], t[k + 2], f[k], f[k + 2]
    frac = np.arange(1, _PROBES + 1) / (_PROBES + 1)
    found = []
    for _ in range(2):
        if lo.size == 0:
            break
        probes = lo[:, None] + (hi - lo)[:, None] * frac
        rates = engine.population_rate(probes.ravel()).reshape(probes.shape)
        xs = np.column_stack([lo, probes, hi])
        fs = np.column_stack([f_lo, rates, f_hi])
        signs = fs[:, :-1] * fs[:, 1:]
        rows, cols = np.nonzero(signs < 0.0)
        lo_, hi_ = (rows, cols), (rows, cols + 1)
        found.append((xs[lo_], xs[hi_], fs[lo_], fs[hi_], probes[rates == 0.0]))
        quiet = np.flatnonzero(np.all(signs > 0.0, axis=1))
        m = 1 + np.argmin(np.abs(rates[quiet]), axis=1)
        lo, hi = xs[quiet, m - 1], xs[quiet, m + 1]
        f_lo, f_hi = fs[quiet, m - 1], fs[quiet, m + 1]
    if not found:
        return (np.empty(0),) * 5
    return tuple(np.concatenate(parts) for parts in zip(*found))


def _extrema_times(
    engine: QubitDynamics, times: np.ndarray, rates: np.ndarray, before: float = math.inf
) -> np.ndarray:
    """Interior times where the population rate changes sign.

    ``times`` must start at 0, where the rate carries the conventional
    value 0 (see ``population_sample``); node 0 is left out of the sign
    logic.  Cells that start at or after ``before`` are left unsearched.
    """
    t = times[1:]
    f = rates[1:]
    idx = np.flatnonzero((f[:-1] * f[1:] < 0.0) & (t[:-1] < before))
    lo, hi, f_lo, f_hi, exact = _hidden_crossings(engine, t, f, before)
    lo = np.concatenate([t[idx], lo])
    hi = np.concatenate([t[idx + 1], hi])
    f_lo = np.concatenate([f[idx], f_lo])
    f_hi = np.concatenate([f[idx + 1], f_hi])
    zs = np.concatenate([t[:-1][f[:-1] == 0.0], exact])
    if lo.size:
        zs = np.concatenate([_refine_crossings(engine, lo, hi, f_lo, f_hi), zs])
    zs = zs[(zs > times[0]) & (zs < times[-1])]
    return np.unique(zs)


def _variation_to(
    engine: QubitDynamics,
    times: np.ndarray,
    rho_ee: np.ndarray,
    rates: np.ndarray,
    ends: np.ndarray,
    rho_ends: np.ndarray,
) -> np.ndarray:
    """Exact total variation of rho_ee from times[0] to each of ``ends``.

    ``rho_ends`` holds the population at the ends, which must lie within
    the sampled ``times``.  Between consecutive extrema the population is
    monotone, so the variation of each segment is the difference of its
    endpoint values: a prefix sum over the extrema plus one endpoint term
    answers every end.
    """
    zs = _extrema_times(engine, times, rates, before=float(ends.max()))
    if zs.size:
        rho_z, _, _ = engine.population_sample(zs)
    else:
        rho_z = np.empty(0)
    node_vals = np.concatenate([[rho_ee[0]], rho_z])
    cum = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(node_vals)))])
    j = np.searchsorted(zs, ends, side="left")
    return cum[j] + np.abs(rho_ends - node_vals[j])


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


def _unit_curve(
    params: JCParams, scaled: np.ndarray, powers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """rho_ee and its total variation from 0 at each scaled time.

    The unit-coupling dynamics share (beta, a, b) with ``params``, and
    ``powers`` holds each scaled time's s**beta.  A time whose power is 0
    (zero coupling, or the window start tau = 0) is frozen: rho_ee 1,
    variation 0.  The lattice runs past the largest scaled time; the
    scaled times are sampled in the same pass, after the lattice nodes,
    but only lattice cells bracket extrema.
    """
    engine = QubitDynamics(JCParams(beta=params.beta, lam=1.0, n=0, a=params.a, b=params.b))
    rho = np.ones(scaled.size)
    tvs = np.zeros(scaled.size)
    moving = powers > 0.0
    if not np.any(moving):
        return rho, tvs
    scaled, powers = scaled[moving], powers[moving]
    lattice = cycle_lattice(1.0, float(scaled.max()))
    times = np.concatenate([lattice, scaled])
    tb = np.concatenate([lattice**params.beta, powers])
    rho_ee, _, rates = engine.population_sample(times, tb)
    n = lattice.size
    rho_at = rho_ee[n:]
    rho[moving] = rho_at
    tvs[moving] = _variation_to(engine, lattice, rho_ee[:n], rates[:n], scaled, rho_at)
    return rho, tvs


def qsl_curve(params, taus) -> list[QslPoint]:
    """Speed-limit ratios at every tau in ``taus`` from one unit-curve pass.

    ``params`` is one ``JCParams`` for every tau, or a sequence of them,
    one per tau, that all share (beta, a, b).  Each pair is answered on
    the unit-coupling curve at s = g**(1/beta) * tau: the population is
    sampled once on the lattice up to the largest s, its extrema are
    located once, and each s reads a prefix sum of the variation plus one
    endpoint term; ``lambda_op`` is that variation over tau.  Pairs with
    zero coupling are frozen.  Every point equals its own ``qsl_point``
    bit for bit.
    """
    if np.ndim(taus) != 1 or len(taus) == 0:
        raise InvalidParams(f"taus must be a nonempty list of times, got {taus!r}")
    plist = [params] * len(taus) if isinstance(params, JCParams) else list(params)
    if len(plist) != len(taus):
        raise InvalidParams(f"need one JCParams per tau, got {len(plist)} for {len(taus)}")
    beta, a, b = plist[0].beta, plist[0].a, plist[0].b
    if any((p.beta, p.a, p.b) != (beta, a, b) for p in plist):
        raise InvalidParams("the parameters of one curve must share (beta, a, b)")
    scaled, powers = np.array([scaled_time(p, tau) for p, tau in zip(plist, taus)]).T
    rho, tvs = _unit_curve(plist[0], scaled, powers)
    return [
        _point_from_variation(float(tau), float(sin2), float(tv))
        for tau, sin2, tv in zip(taus, np.abs(rho - 1.0), tvs)
    ]


def qsl_point(params: JCParams, tau: float) -> QslPoint:
    """Speed-limit ratios for the dynamics run up to time tau."""
    return qsl_curve(params, [tau])[0]


def qsl_mlmt(params: JCParams, tau: float, tau_d: float) -> MLMTResult:
    """Window bound from the relative purity drop across [tau, tau+tau_d].

    The bound divides the purity displacement |f - 1| * tr(chi_tau^2) by
    the window average of the singular values of the state derivative
    paired (descending) with those of chi_tau.  For this diagonal model
    that pairing collapses to |d rho_ee/dt| times the unit trace of
    chi_tau, so the window average is the total variation over tau_d.

    Both window ends are read from one pass over the unit-coupling curve,
    as ``qsl_curve`` reads its points: the window's variation is the
    variation up to s1 = g**(1/beta) * (tau + tau_d) less that up to s0,
    and the purity comes from the same samples.  Raises GridTooCoarse
    where ``qsl_point(params, tau + tau_d)`` does.
    """
    tau = check_time(tau, allow_zero=True)
    tau_d = check_time(tau_d, "tau_d")
    # The end first: where it is past the node cap, so is the window.
    end = scaled_time(params, tau + tau_d)
    start = scaled_time(params, tau) if tau > 0.0 else (0.0, 0.0)
    scaled, powers = np.array([start, end]).T
    (rho0, rho1), (tv0, tv1) = _unit_curve(params, scaled, powers)
    chi_tau = np.array([1.0 - rho0, rho0])
    chi_later = np.array([1.0 - rho1, rho1])
    tr_sq = float(np.sum(chi_tau**2))
    overlap = float(np.sum(chi_later * chi_tau))
    rel_purity = overlap / tr_sq
    tv = float(tv1 - tv0)

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

    Numerator: sin^2(B) is the ground population |c_g|^2 / (|c_g|^2 +
    |c_e|^2) of ``evolve(params, tau)``, the scalar route that takes each
    eigenfactor E_beta(+-g (-i tau)**beta) from its own ``ml_global``
    call.  With P = |E2|^2 + |E1|^2 and R = 2 Re(E2 conj(E1)) this is

        sin^2(B) = a^2 (P - R) / (b^2 (P + R) + a^2 (P - R)).

    Denominator: integral of |d rho_ee/dt| by 15-point Gauss-Legendre on
    each monotone segment, with the first segment graded geometrically
    down to a cutoff below which the closed-form power law
    rho_gg ~ K t**(2 beta) supplies the remaining sliver.
    """
    tau = check_time(tau)
    engine = QubitDynamics(params)
    beta = params.beta
    g = params.coupling
    a, b = params.a, params.b
    if g == 0.0:
        return 0.0

    # The lattice first: it refuses a cycle too fast to bracket.
    times = cycle_lattice(engine.oscillation_rate(), tau)
    amps = evolve(params, tau)
    pg = abs(amps.c_g) ** 2
    norm = pg + abs(amps.c_e) ** 2
    if norm < 1e-300:
        raise DegenerateState("amplitudes vanish; reduced state undefined")
    numer = pg / norm

    _, _, rates = engine.population_sample(times)
    zs = _extrema_times(engine, times, rates, before=tau)
    zs = zs[zs < tau]
    bounds = np.concatenate([[0.0], zs, [tau]])

    k_coef = (a / b) ** 2 * (g / math.gamma(1.0 + beta)) ** 2
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
