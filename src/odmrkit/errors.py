"""Exception and warning types shared across the package."""

from __future__ import annotations


class OdmrError(Exception):
    """Base class for all package-specific errors."""


class DegenerateSystem(OdmrError):
    """Steady-state system has no unique solution for the given rates."""


class GridTooCoarse(OdmrError):
    """Frequency grid cannot resolve (or contain) the requested lineshape."""


class NoConvergence(OdmrError):
    """Iterative fit exhausted its iteration budget without converging."""


class NonFiniteResidual(OdmrError):
    """Fit residual is NaN or infinite at the starting point.

    A numerical failure of the model at the given start, not bad input: the
    data and weights passed their own checks.
    """


class SingularJacobian(OdmrError):
    """Fit Jacobian is structurally singular.

    Carries the names of the parameters whose columns vanish so callers can
    tell which parameters the data carry no information about.
    """

    def __init__(self, message: str, parameters: tuple[str, ...] = ()):
        super().__init__(message)
        self.parameters = tuple(parameters)


class InsufficientData(OdmrError):
    """Not enough usable points to attempt the requested operation."""


class UnidentifiableParameter(OdmrError):
    """Requested fit cannot distinguish one or more parameters from the data."""


class ParseError(OdmrError):
    """Malformed content in a data file; carries a 1-based line and column."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SchemaError(OdmrError):
    """File parsed but its structure or values violate the format contract."""


class RegimeViolation(UserWarning):
    """Closed-form approximation used outside its validity regime.

    Emitted as a warning, never raised: results are still returned, the
    caller decides whether the accuracy loss matters.
    """
