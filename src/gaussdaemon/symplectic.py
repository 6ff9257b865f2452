"""Gaussian states, the symplectic form, and basic symplectic linear algebra.

Conventions
-----------
Quadratures are ordered (x_1, p_1, ..., x_n, p_n).  The covariance matrix is
defined through the anticommutator without a 1/2, so the vacuum covariance
matrix is the identity and the uncertainty principle reads

    sigma + i Omega >= 0,

with Omega the direct sum of n blocks [[0, 1], [-1, 0]].  First moments are
collected in the 2n-vector mean.  The free Hamiltonian is the sum of
(x^2 + p^2)/2 over the modes, so the mean energy of a state is
|mean|^2 / 2 + tr(sigma) / 4 (the vacuum contributes 1/2 per mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .exceptions import NumericError, SymmetryError, SymplecticityError, UnphysicalStateError

# Tolerances used across the package.
TOL_SYM = 1e-10         # symmetry of covariance matrices
TOL_PSD = 1e-9          # uncertainty-principle slack and eigenvalue clamping
TOL_SYMPLECTIC = 1e-10  # symplecticity check S Omega S^T = Omega
TOL_HURWITZ = 1e-12     # strict-stability margin for drift matrices

_OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@lru_cache(maxsize=None)
def _omega(n: int) -> np.ndarray:
    """Read-only 2n x 2n symplectic form, built once per n."""
    if n < 1:
        raise ValueError(f"number of modes must be positive, got {n}")
    form = np.kron(np.eye(n), _OMEGA_1)
    form.flags.writeable = False
    return form


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form for n modes (a fresh, writable array)."""
    return _omega(n).copy()


def rotation(phi: float) -> np.ndarray:
    """Single-mode phase rotation [[cos, sin], [-sin, cos]]."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


def squeezer(z: float) -> np.ndarray:
    """Single-mode squeezer diag(z, 1/z); z > 0."""
    if z <= 0:
        raise ValueError(f"squeezing parameter must be positive, got {z}")
    return np.diag([z, 1.0 / z])


@dataclass(frozen=True)
class GaussianState:
    """An n-mode Gaussian state: first moments and covariance matrix.

    Construction checks shapes only; physical validity is checked by
    :func:`validate_state`.
    """

    mean: np.ndarray
    cm: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cm = np.asarray(self.cm, dtype=float)
        if mean.size == 0 or mean.size % 2:
            raise ValueError(f"mean must have even positive length, got {mean.size}")
        if cm.shape != (mean.size, mean.size):
            raise ValueError(f"covariance matrix shape {cm.shape} does not match mean length {mean.size}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cm", cm)
        object.__setattr__(self, "n", mean.size // 2)


def validate_state(mean, cm) -> GaussianState:
    """Build a :class:`GaussianState` after checking physical validity.

    Parameters
    ----------
    mean : array_like, shape (2n,)
    cm : array_like, shape (2n, 2n)

    Raises
    ------
    ValueError
        Non-finite (NaN or infinite) entries in the mean or covariance matrix.
    SymmetryError
        Covariance matrix asymmetric beyond ``TOL_SYM`` (the maximum
        asymmetry is reported).
    UnphysicalStateError
        sigma + i Omega has an eigenvalue below ``-TOL_PSD`` (the most
        negative eigenvalue is reported).
    """
    state = GaussianState(mean, cm)
    if not (np.isfinite(state.mean).all() and np.isfinite(state.cm).all()):
        raise ValueError("mean and covariance matrix must be finite")
    asym = np.abs(state.cm - state.cm.T).max()
    if asym > TOL_SYM:
        raise SymmetryError(f"covariance matrix asymmetric: max |sigma - sigma^T| = {asym:.3e} > {TOL_SYM:.1e}")
    ws = np.linalg.eigvalsh(0.5 * (state.cm + state.cm.T))
    if ws.min() <= 0:
        raise UnphysicalStateError(f"covariance matrix not positive definite: min eig = {ws.min():.3e}")
    w = np.linalg.eigvalsh(state.cm + 1j * _omega(state.n))
    if w.min() < -TOL_PSD:
        raise UnphysicalStateError(
            f"uncertainty principle violated: min eig(sigma + i Omega) = {w.min():.3e} < -{TOL_PSD:.1e}"
        )
    return state


def vacuum(n: int = 1) -> GaussianState:
    """Vacuum state of n modes."""
    return GaussianState(np.zeros(2 * n), np.eye(2 * n))


def thermal(nu: float, n: int = 1) -> GaussianState:
    """Thermal state with symplectic eigenvalue nu on each of n modes."""
    if nu < 1.0:
        raise UnphysicalStateError(f"thermal parameter must satisfy nu >= 1, got {nu}")
    return GaussianState(np.zeros(2 * n), nu * np.eye(2 * n))


def check_symplectic(S: np.ndarray) -> None:
    """Raise SymplecticityError unless S Omega S^T = Omega within TOL_SYMPLECTIC."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2:
        raise SymplecticityError(f"symplectic matrix must be square of even size, got {S.shape}")
    omega = _omega(S.shape[0] // 2)
    dev = np.abs(S @ omega @ S.T - omega).max()
    if dev > TOL_SYMPLECTIC:
        raise SymplecticityError(f"matrix is not symplectic: max |S Omega S^T - Omega| = {dev:.3e}")


def apply_symplectic(state: GaussianState, S: np.ndarray) -> GaussianState:
    """Apply a Gaussian unitary with symplectic matrix S: mean -> S mean, sigma -> S sigma S^T."""
    S = np.asarray(S, dtype=float)
    check_symplectic(S)
    if S.shape[0] != 2 * state.n:
        raise ValueError(f"symplectic size {S.shape[0]} does not match state with {state.n} modes")
    return GaussianState(S @ state.mean, S @ state.cm @ S.T)


def displace(state: GaussianState, d) -> GaussianState:
    """Displace the state: mean -> mean + d."""
    d = np.asarray(d, dtype=float).reshape(-1)
    if d.size != 2 * state.n:
        raise ValueError(f"displacement length {d.size} does not match state with {state.n} modes")
    return GaussianState(state.mean + d, state.cm)


def _mode_indices(modes) -> np.ndarray:
    modes = tuple(modes)
    return np.array([2 * m + q for m in modes for q in (0, 1)], dtype=int)


def reduce(state: GaussianState, modes) -> GaussianState:
    """Marginal (reduced) state on the given mode indices, in the given order."""
    modes = tuple(modes)
    if len(set(modes)) != len(modes) or any(m < 0 or m >= state.n for m in modes):
        raise ValueError(f"invalid mode subset {modes} for a state with {state.n} modes")
    idx = _mode_indices(modes)
    return GaussianState(state.mean[idx], state.cm[np.ix_(idx, idx)])


def _require_positive_definite(w: np.ndarray) -> None:
    """Raise UnphysicalStateError unless every eigenvalue in w (shape (..., 2n)) is positive."""
    if w.min() <= 0:
        where = "" if w.ndim == 1 else f" at stack index {int(np.argmin(w.min(axis=-1)))}"
        raise UnphysicalStateError(f"covariance matrix not positive definite{where}: min eig = {w.min():.3e}")


def symplectic_eigenvalues(cm: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted descending.

    Computed from the symmetric matrix sigma^{1/2} (Omega sigma Omega^T) sigma^{1/2},
    whose eigenvalues are the squared symplectic eigenvalues, each doubly
    degenerate; pairs are matched by sorting.  Values within ``TOL_PSD`` below 1
    are clamped to exactly 1 so that pure states report unit eigenvalues.

    ``cm`` may also be a stack of shape (k, 2n, 2n); the spectra are then
    computed in one batched pass and returned as a (k, n) array, row i being
    the spectrum of ``cm[i]``.  A stack with any non-positive member raises.
    For one mode the spectrum is the closed form sqrt(det sigma).
    """
    cm = np.asarray(cm, dtype=float)
    n = cm.shape[-1] // 2
    sym = 0.5 * (cm + np.swapaxes(cm, -1, -2))
    if n == 1:
        a, b, d = sym[..., 0, 0], sym[..., 0, 1], sym[..., 1, 1]
        det = a * d - b * b
        # Sylvester's criterion.  The smaller eigenvalue tr/2 - radius would cancel to 0 once the
        # eigenvalues are ~1e16 apart, so where the larger one is positive it is det / lam_max.
        if not ((a > 0.0) & (det > 0.0)).all():
            half_tr, radius = 0.5 * (a + d), np.hypot(0.5 * (a - d), b)
            pos = half_tr + radius > 0.0
            lam_min = np.where(pos, det, half_tr - radius) / np.where(pos, half_tr + radius, 1.0)
            _require_positive_definite(lam_min[..., None])
        nus = np.sqrt(det)[..., None]
    else:
        w, Q = np.linalg.eigh(sym)
        _require_positive_definite(w)
        root = (Q * np.sqrt(w)[..., None, :]) @ np.swapaxes(Q, -1, -2)
        m = root @ _omega(n) @ root
        w2 = np.sort(np.linalg.eigvalsh(-m @ m), axis=-1)  # = (Omega sigma)^2 spectrum, made symmetric
        nus = np.sqrt(0.5 * (w2[..., 0::2] + w2[..., 1::2]))
    nus = np.where((nus < 1.0) & (nus > 1.0 - TOL_PSD), 1.0, nus)
    return np.sort(nus, axis=-1)[..., ::-1]


def energy(state: GaussianState) -> float:
    """Mean energy |mean|^2/2 + tr(sigma)/4 for the free Hamiltonian sum (x^2+p^2)/2."""
    return 0.5 * float(state.mean @ state.mean) + 0.25 * float(np.trace(state.cm))


def purity(state: GaussianState) -> float:
    """Purity 1/sqrt(det sigma)."""
    det = np.linalg.det(state.cm)
    if det <= 0:
        raise NumericError(f"covariance matrix has non-positive determinant {det:.3e}")
    return 1.0 / np.sqrt(det)


def williamson_single_mode(cm: np.ndarray) -> tuple[float, np.ndarray]:
    """Single-mode normal-mode decomposition: return (nu, S) with S sigma S^T = nu I.

    Closed form: nu = sqrt(det sigma) and S = sqrt(nu) sigma^{-1/2}
    = (adj sigma + nu I) / sqrt(nu (tr sigma + 2 nu)), symmetric with unit
    determinant, hence symplectic.  Positive definiteness is Sylvester's
    criterion (sigma_00 > 0, det sigma > 0).  Only the one-mode case is
    supported; multimode reduction to normal form is not needed anywhere (the
    symplectic spectrum alone suffices there).
    """
    cm = np.asarray(cm, dtype=float)
    if cm.shape != (2, 2):
        raise ValueError(f"normal-form symplectic factor is only available for one mode, got shape {cm.shape}")
    (s00, s01), (s10, s11) = cm.tolist()
    if abs(s01 - s10) > TOL_SYM:
        raise SymmetryError("covariance matrix asymmetric")
    off = 0.5 * (s01 + s10)
    det = s00 * s11 - off * off
    if not (s00 > 0.0 and det > 0.0):
        half_tr, radius = 0.5 * (s00 + s11), math.hypot(0.5 * (s00 - s11), off)
        lam_min = det / (half_tr + radius) if half_tr + radius > 0.0 else half_tr - radius
        raise UnphysicalStateError(f"covariance matrix not positive definite: min eig = {lam_min:.3e}")
    nu = math.sqrt(det)
    norm = math.sqrt(nu * (s00 + s11 + 2.0 * nu))
    if not 0.0 < norm < math.inf:
        raise NumericError(f"normal-form symplectic factor overflows: nu = {nu:.3e}, tr sigma = {s00 + s11:.3e}")
    S = np.array([[(s11 + nu) / norm, -off / norm], [-off / norm, (s00 + nu) / norm]])
    return nu, S
