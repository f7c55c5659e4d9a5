"""Exception types and the tolerance check shared across the package."""
import math


def check_tol(tol: float, name: str = "tolerance") -> None:
    """Reject a tolerance, named ``name`` in the message, that is not positive and finite."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be positive and finite, got {tol!r}")


class QhfocusError(Exception):
    """Base class for all package errors."""


class InvalidFieldError(QhfocusError):
    """A vector field does not satisfy the weighted-homogeneity contract."""


class PolarChartError(QhfocusError):
    """The polar chart broke down (denominator vanished or radius too large)."""


class SingularDivisionError(QhfocusError):
    """Jet division by a series with no usable leading coefficient."""


class StiffnessError(QhfocusError):
    """The ODE integrator failed (step-size underflow or solver abort)."""


class NoReturnError(QhfocusError):
    """An orbit did not come back to the Poincare section within the time cap."""


class AlternationError(QhfocusError):
    """No parameter point realizing the requested sign chain inside the box."""


class QuadratureError(QhfocusError):
    """A quadrature failed: its tolerance is unreachable at the node cap, or schemes disagree."""


class ReproductionError(QhfocusError):
    """A documented reference value could not be reproduced."""


class SchemeDisagreementError(QuadratureError, ReproductionError):
    """Two independent quadrature schemes disagree on one reference integral."""
