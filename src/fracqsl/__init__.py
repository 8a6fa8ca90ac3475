"""Fractional-order qubit dynamics and quantum-speed-limit bounds.

Layers, bottom up: ``mlfun`` evaluates the two-parameter special
function that propagates fractional dynamics, ``caputo`` provides the
fractional derivative and an equation-of-motion residual check,
``jcmodel`` builds the resonant two-level dynamics, ``qsl`` turns it
into speed-limit bounds, and ``sweep`` scans parameters into
machine-readable tables.  ``cli`` exposes the same layers as the
``fracqsl`` command.
"""

from ._version import VERSION as __version__
from .caputo import SampledSignal, caputo_derivative, caputo_derivative_all, tfse_residual
from .errors import (
    BranchDomain,
    DegenerateState,
    FracQslError,
    GridTooCoarse,
    InvalidOrder,
    InvalidParams,
    NonConvergence,
    QuadratureFailure,
    TooFewPoints,
    UnknownFigure,
)
from .jcmodel import (
    CompositeAmplitudes,
    JCParams,
    QubitDynamics,
    evolve,
    interaction_hamiltonian,
)
from .mlfun import (
    MLOrder,
    ml_global,
    ml_linear_batch,
    ml_series,
    ml_split,
    ml_time_derivative,
    series_radius,
)
from .qsl import (
    MLMTResult,
    QslPoint,
    qsl_curve,
    qsl_mlmt,
    qsl_point,
    qsl_ratio_formula,
)
from .sweep import (
    CSV_COLUMNS,
    CurveRecord,
    SweepSpec,
    detect_revivals,
    figure_preset,
    run_figure,
    run_sweep,
    write_records,
)

__all__ = [
    "__version__",
    "BranchDomain",
    "CSV_COLUMNS",
    "CompositeAmplitudes",
    "CurveRecord",
    "DegenerateState",
    "FracQslError",
    "GridTooCoarse",
    "InvalidOrder",
    "InvalidParams",
    "JCParams",
    "MLMTResult",
    "MLOrder",
    "NonConvergence",
    "QslPoint",
    "QuadratureFailure",
    "QubitDynamics",
    "SampledSignal",
    "SweepSpec",
    "TooFewPoints",
    "UnknownFigure",
    "caputo_derivative",
    "caputo_derivative_all",
    "detect_revivals",
    "evolve",
    "figure_preset",
    "interaction_hamiltonian",
    "ml_global",
    "ml_linear_batch",
    "ml_series",
    "ml_split",
    "ml_time_derivative",
    "qsl_curve",
    "qsl_mlmt",
    "qsl_point",
    "qsl_ratio_formula",
    "run_figure",
    "run_sweep",
    "series_radius",
    "write_records",
]
