"""Fractional-order qubit dynamics and quantum-speed-limit bounds.

Layers, bottom up: ``mlfun`` evaluates the two-parameter special
function that propagates fractional dynamics, ``caputo`` provides the
fractional derivative and an equation-of-motion residual check,
``jcmodel`` builds the resonant two-level dynamics, ``qsl`` turns a
trajectory into speed-limit bounds, and ``sweep`` scans parameters into
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
    NotHermitian,
    NotPure,
    QuadratureFailure,
    StepTooSmall,
    TooFewPoints,
    UnknownFigure,
)
from .jcmodel import (
    CompositeAmplitudes,
    DensityMatrix2,
    JCParams,
    QubitDynamics,
    Trajectory,
    density_derivative,
    evolve,
    interaction_hamiltonian,
    make_trajectory,
    reduced_density,
    spectral_decomposition,
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
    bures_overlap_term,
    qsl_curve,
    qsl_ml,
    qsl_mlmt,
    qsl_point,
    qsl_ratio_formula,
    schatten_norm,
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
    "DensityMatrix2",
    "FracQslError",
    "GridTooCoarse",
    "InvalidOrder",
    "InvalidParams",
    "JCParams",
    "MLMTResult",
    "MLOrder",
    "NonConvergence",
    "NotHermitian",
    "NotPure",
    "QslPoint",
    "QuadratureFailure",
    "QubitDynamics",
    "SampledSignal",
    "StepTooSmall",
    "SweepSpec",
    "TooFewPoints",
    "Trajectory",
    "UnknownFigure",
    "bures_overlap_term",
    "caputo_derivative",
    "caputo_derivative_all",
    "density_derivative",
    "detect_revivals",
    "evolve",
    "figure_preset",
    "interaction_hamiltonian",
    "make_trajectory",
    "ml_global",
    "ml_linear_batch",
    "ml_series",
    "ml_split",
    "ml_time_derivative",
    "qsl_curve",
    "qsl_ml",
    "qsl_mlmt",
    "qsl_point",
    "qsl_ratio_formula",
    "reduced_density",
    "run_figure",
    "run_sweep",
    "schatten_norm",
    "series_radius",
    "spectral_decomposition",
    "write_records",
]
