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
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericError
from .symplectic import GaussianState, symplectic_eigenvalues, williamson_single_mode

# Round-off guard: tiny negative ergotropies in [-CLAMP_NEG, 0) are clamped to 0.
CLAMP_NEG = 1e-9
# Largest allowed gap between a closed form and its independent route (see _cross_check).
_CROSS_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class ErgotropyReport:
    """Energy bookkeeping: ergotropy = energy - passive_energy."""

    ergotropy: float
    energy: float
    passive_energy: float


def clamp_ergotropy(value: float, what: str = "ergotropy") -> float:
    """Clamp a round-off negative in [-CLAMP_NEG, 0) to 0; raise NumericError below it."""
    if value < 0.0:
        if value < -CLAMP_NEG:
            raise NumericError(f"{what} evaluated to {value:.3e} < -{CLAMP_NEG:.1e}")
        return 0.0
    return value


def _single_mode_ergotropy(energy: float, det: float, what: str = "ergotropy") -> float:
    """Ergotropy E - sqrt(det sigma)/2 = E - 1/(2 mu) of one mode from its energy and purity.

    A non-positive (or NaN) determinant raises NumericError; round-off
    negatives of the result go through :func:`clamp_ergotropy`.
    """
    if not det > 0.0:
        raise NumericError(f"{what}: covariance determinant {det:.3e} is not positive")
    return clamp_ergotropy(energy - 0.5 * math.sqrt(det), what)


def _cross_check(closed: float, independent: float, what: str) -> None:
    """Raise NumericError if a closed form and its independent route differ by more than _CROSS_CHECK_TOL."""
    if abs(closed - independent) > _CROSS_CHECK_TOL:
        raise NumericError(f"{what}: closed form {closed!r} and independent route {independent!r} disagree")


def ergotropy_report(state: GaussianState) -> ErgotropyReport:
    """Full energy/passive-energy/ergotropy report for a state."""
    e = 0.5 * float(state.mean @ state.mean) + 0.25 * float(np.trace(state.cm))
    passive = 0.5 * float(symplectic_eigenvalues(state.cm).sum())
    return ErgotropyReport(ergotropy=clamp_ergotropy(e - passive), energy=e, passive_energy=passive)


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
