"""Evaluation configuration shared by every numerical routine."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParams


@dataclass(frozen=True)
class EvalConfig:
    """Tolerance and budget knobs for series, quadrature and dispatch.

    Attributes
    ----------
    abs_tol : float
        Absolute floor below which contributions are considered converged.
    max_terms : int
        Series term budget before NonConvergence is raised.
    quad_points : int
        Gauss-Legendre points per quadrature panel.
    quad_cutoff : float
        Upper truncation of improper integrals in the original (radial)
        variable; acts as a safety cap on top of the decay-budget bound.
    """

    abs_tol: float = 1e-12
    max_terms: int = 600
    quad_points: int = 15
    quad_cutoff: float = 1e8

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise InvalidParams("abs_tol must be positive and finite")
        if self.max_terms < 1:
            raise InvalidParams("max_terms must be at least 1")
        if self.quad_points < 2:
            raise InvalidParams("quad_points must be at least 2")
        if not (math.isfinite(self.quad_cutoff) and self.quad_cutoff > 0.0):
            raise InvalidParams("quad_cutoff must be positive and finite")


DEFAULT_CONFIG = EvalConfig()
