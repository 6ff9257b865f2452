"""Exception hierarchy.

Validation-type errors (bad input, unphysical state, malformed file) derive from
``ValueError``; numeric-type errors (solver breakdown, non-convergence) derive
from ``RuntimeError``.  The CLI maps the first group to exit code 2 and the
second to exit code 3.
"""


class GaussDaemonError(Exception):
    """Base class for all package errors."""


class SymmetryError(GaussDaemonError, ValueError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class UnphysicalStateError(GaussDaemonError, ValueError):
    """A covariance matrix violates the uncertainty principle."""


class SymplecticityError(GaussDaemonError, ValueError):
    """A matrix claimed to be symplectic does not preserve the symplectic form."""


class NoSteadyStateError(GaussDaemonError, ValueError):
    """The drift matrix is not Hurwitz, so no steady state exists."""


class ParseError(GaussDaemonError, ValueError):
    """Malformed input file."""


class NumericError(GaussDaemonError, RuntimeError):
    """A numeric operation failed (singular matrix, negative determinant, ...)."""


class ConvergenceError(NumericError):
    """A solver's result missed its residual gate."""
