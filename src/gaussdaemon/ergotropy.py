"""Ergotropy of Gaussian states under Gaussian unitaries.

The maximal work extractable from an n-mode Gaussian state by Gaussian
unitaries is the gap between its mean energy and the energy of its passive
state (same symplectic spectrum, zero mean, normal form):

    ergotropy = tr(sigma)/4 + |mean|^2/2 - (1/2) sum_j nu_j.

For a single mode this reduces to E - 1/(2 mu) with mu the purity, and for
sigma = nu R_phi diag(z^2, 1/z^2) R_phi^T it equals
nu (z^2 + 1/z^2 - 2)/4 + |mean|^2/2, independent of the rotation phase.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericError
from .symplectic import GaussianState, energy, symplectic_eigenvalues, williamson_single_mode

# Round-off guard: negative ergotropies down to -max(CLAMP_NEG, CLAMP_RTOL * energy) are clamped
# to 0 (see clamp_ergotropy); up to an energy of 1e3 the floor is CLAMP_NEG itself.
CLAMP_NEG = 1e-9
CLAMP_RTOL = 1e-12
# Largest allowed gap between a closed form and its independent route (see _cross_check):
# absolute up to magnitudes of 1e3, relative to the larger magnitude above that.
_CROSS_CHECK_TOL = 1e-9
_CROSS_CHECK_RTOL = 1e-12


@dataclass(frozen=True)
class ErgotropyReport:
    """Energy bookkeeping: ergotropy = energy - passive_energy."""

    ergotropy: float
    energy: float
    passive_energy: float


def clamp_ergotropy(value: float, what: str = "ergotropy", energy: float = 0.0) -> float:
    """Clamp a round-off negative to 0; raise NumericError below -max(CLAMP_NEG, CLAMP_RTOL * energy).

    An ergotropy is an energy minus a passive energy, so its round-off grows
    with ``energy``: the floor has the shape of _cross_check's gate.
    """
    if value < 0.0:
        floor = max(CLAMP_NEG, CLAMP_RTOL * energy)
        if value < -floor:
            raise NumericError(f"{what} evaluated to {value:.3e} < -{floor:.1e}")
        return 0.0
    return value


def _single_mode_ergotropy(energy: float, det: float, what: str = "ergotropy") -> float:
    """Ergotropy E - sqrt(det sigma)/2 = E - 1/(2 mu) of one mode from its energy and purity.

    A non-positive (or NaN) determinant raises NumericError; round-off
    negatives of the result go through :func:`clamp_ergotropy`.
    """
    if not det > 0.0:
        raise NumericError(f"{what}: covariance determinant {det:.3e} is not positive")
    return clamp_ergotropy(energy - 0.5 * math.sqrt(det), what, energy)


def _cross_check(closed: float, independent: float, what: str | Callable[[], str], cancelled: float = 0.0) -> None:
    """Raise NumericError if a closed form and its independent route differ beyond round-off.

    The allowed gap is max(_CROSS_CHECK_TOL, _CROSS_CHECK_RTOL max(|closed|, |independent|, cancelled)),
    so the check keeps its meaning for large but valid values.  ``cancelled``
    is the size of the terms that cancel down to the values, where the
    routes form them by cancellation: their round-off is what the routes carry.
    ``what`` labels the error: a string, or a zero-argument callable returning
    one, which hot callers pass so that the label is formatted only on failure.
    """
    scale = max(abs(closed), abs(independent), cancelled)
    if abs(closed - independent) > max(_CROSS_CHECK_TOL, _CROSS_CHECK_RTOL * scale):
        label = what() if callable(what) else what
        raise NumericError(f"{label}: closed form {closed!r} and independent route {independent!r} disagree")


def ergotropy_report(state: GaussianState) -> ErgotropyReport:
    """Full energy/passive-energy/ergotropy report for a state.

    The passive energy is summed over 0.5 nu_j, term by term, as the energy
    is over 0.25 sigma_ii.  Either one that still overflows raises NumericError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e = energy(state)
        passive = float((0.5 * symplectic_eigenvalues(state.cm)).sum())
    if not (math.isfinite(e) and math.isfinite(passive)):
        raise NumericError(f"energy {e!r} or passive energy {passive!r} is not finite")
    return ErgotropyReport(ergotropy=clamp_ergotropy(e - passive, energy=e), energy=e, passive_energy=passive)


def ergotropy(state: GaussianState) -> float:
    """Maximal Gaussian-unitary-extractable work of the state."""
    return ergotropy_report(state).ergotropy


@dataclass(frozen=True)
class ExtractionUnitary:
    """Phase-space form of the work-extraction unitary: symplectic, then displacement."""

    symplectic: np.ndarray
    displacement: np.ndarray


def extraction_unitary(state: GaussianState) -> ExtractionUnitary:
    """Gaussian unitary realizing the extraction, single mode only.

    The result ``(S, d)`` maps the state to its passive state:
    S sigma S^T = nu I and S mean + d = 0.
    """
    if state.n != 1:
        raise ValueError(f"extraction unitary is only available for one mode, got {state.n} modes")
    _, S = williamson_single_mode(state.cm)
    return ExtractionUnitary(symplectic=S, displacement=-S @ state.mean)
