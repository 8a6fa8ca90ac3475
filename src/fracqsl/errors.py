"""Error taxonomy shared by all fracqsl modules.

Every failure mode surfaces as a typed exception; numerical routines never
return NaN or infinity as a value.
"""


class FracQslError(Exception):
    """Base class for all fracqsl errors."""


class InvalidOrder(FracQslError, ValueError):
    """Fractional order or second parameter outside the valid domain."""


class InvalidParams(FracQslError, ValueError):
    """Model or evaluation parameters violate their invariants."""


class NonConvergence(FracQslError, ArithmeticError):
    """Series or special-function evaluation failed to reach tolerance."""


class QuadratureFailure(FracQslError, ArithmeticError):
    """An integral estimate could not be stabilized within budget."""


class BranchDomain(FracQslError, ValueError):
    """A principal-branch complex power left the first Riemann sheet.

    Raised by the split representation for negative eigenvalues where the
    residue term has no principal-branch meaning; callers should fall back
    to the uniformly valid dispatcher.
    """


class GridTooCoarse(FracQslError, ValueError):
    """Too few samples for the requested discrete operation."""


class DegenerateState(FracQslError, ArithmeticError):
    """State normalization vanished; populations are undefined."""


class UnknownFigure(FracQslError, KeyError):
    """Figure preset identifier is not recognized."""


class TooFewPoints(FracQslError, ValueError):
    """Curve has too few points for the requested analysis."""
