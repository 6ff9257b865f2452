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

import contextlib
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

_TINY = np.finfo(float).tiny  # the smallest normal double
_ROUNDOFF = 4.0 * math.ulp(1.0)  # the unit of round-off of the closed-form physicality checks

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
        sigma is not positive definite, or sigma + i Omega has an eigenvalue
        below ``-TOL_PSD`` (:func:`_physicality_violation`).  Up to two modes
        this is decided in closed form, and the message reports det sigma and
        Delta; otherwise it reports the most negative eigenvalue.
    """
    state = GaussianState(mean, cm)
    _check_moments(state.mean, state.cm)
    return state


def _check_moments(mean: np.ndarray, cm: np.ndarray) -> None:
    """The checks of :func:`validate_state` on a float mean of length 2n and a (2n, 2n) CM.

    One mode takes them in float arithmetic on the entries (_check_one_mode).
    """
    if cm.shape == (2, 2):
        return _check_one_mode(*mean.tolist(), *cm.ravel().tolist())
    if not (np.isfinite(mean).all() and np.isfinite(cm).all()):
        raise ValueError("mean and covariance matrix must be finite")
    _require_symmetric(np.abs(cm - cm.T).max())
    if (violation := _physicality_violation(0.5 * cm + 0.5 * cm.T)) is not None:
        raise UnphysicalStateError(violation)


def _check_one_mode(m0: float, m1: float, s00: float, s01: float, s10: float, s11: float) -> None:
    """_check_moments for one mode, on the entries of its mean and its row-major CM (small numpy calls cost more).

    The values are the general route's: sigma is symmetrized as 0.5 sigma + 0.5 sigma^T.
    """
    if not all(map(math.isfinite, (m0, m1, s00, s01, s10, s11))):
        raise ValueError("mean and covariance matrix must be finite")
    _require_symmetric(abs(s01 - s10))
    violation = _one_mode_violation(0.5 * s00 + 0.5 * s00, 0.5 * s01 + 0.5 * s10, 0.5 * s11 + 0.5 * s11)
    if violation is not None:
        raise UnphysicalStateError(violation)


def _require_symmetric(asym: float) -> None:
    if asym > TOL_SYM:
        raise SymmetryError(f"covariance matrix asymmetric: max |sigma - sigma^T| = {asym:.3e} > {TOL_SYM:.1e}")


def _indefinite_min_eig(s00: float, s01: float, s11: float) -> float | None:
    """None if the symmetric [[s00, s01], [s01, s11]] passes Sylvester's criterion, else its smallest eigenvalue.

    tr/2 - radius would cancel to 0 once the eigenvalues are ~1e16 apart, so
    where the larger one is positive the smaller is taken as det / lam_max.
    """
    det = s00 * s11 - s01 * s01
    if s00 > 0.0 and det > 0.0:
        return None
    half_tr, radius = 0.5 * (s00 + s11), math.hypot(0.5 * (s00 - s11), s01)
    return det / (half_tr + radius) if half_tr + radius > 0.0 else half_tr - radius


def _smallest_eigenvalue(evd, a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric (evd = dsyevd) or Hermitian (zheevd) a, from its lower triangle.

    The values np.linalg.eigvalsh gives, bit for bit, without its wrapper;
    a nonzero LAPACK info is a numeric failure, NumericError with eigvalsh's text.
    """
    w, _, info = evd(a, compute_v=0, lower=1)
    if info:
        raise NumericError("Eigenvalues did not converge")
    return float(w[0])


def _physicality_violation(sigma: np.ndarray) -> str | None:
    """What fails of sigma > 0 and sigma' + i Omega >= 0, sigma' = sigma + TOL_PSD I, for a symmetric CM; else None.

    Once the last mode's block (sigma_B; sigma itself for one mode) passes
    Sylvester's criterion, sigma' + i Omega >= 0 iff sigma' > 0, det sigma' >= 1 and
    Delta' <= 1 + det sigma', with Delta = sum_j nu_j^2, for two modes
    det sigma_A + det sigma_B + 2 det sigma_AB (Serafini, Illuminati and De Siena,
    J. Phys. B 37, L21 (2004)).  There det sigma' = det M, and sigma' > 0 iff
    tr M > 0, for the Schur complement M = s sigma_A' - sigma_AB adj(sigma_B') sigma_AB^T / s,
    s^2 = det sigma_B' (b sigma_A' - sigma_AB sigma_AB^T for sigma_B = b I), whose
    entries cancel before the product is taken.  Each inequality allows the
    round-off of its own terms.  The smallest eigenvalues of sigma and
    sigma + i Omega decide the rest, and are reported: three or more modes,
    terms that overflow, and a sigma or sigma' that is not positive definite.
    One mode takes the closed form on its entries (_one_mode_violation).  The
    eigenvalues come from LAPACK's dsyevd and zheevd called directly (_smallest_eigenvalue),
    as np.linalg.eigvalsh computes them.  A non-finite sigma never passes
    the closed form (NaN fails Sylvester's criterion, and any other non-finite
    entry makes the round-off bound non-finite), so it is reported by its
    entries just before the eigensolvers would run on it.
    """
    n = sigma.shape[0] // 2
    (b00, b01), (_, b11) = sigma[-2:, -2:].tolist()
    if n == 1:
        return _one_mode_violation(b00, b01, b11)
    if n == 2 and _indefinite_min_eig(b00, b01, b11) is None:
        t, u = TOL_PSD, _ROUNDOFF
        q00, q11 = b00 + t, b11 + t
        det_b = q00 * q11 - b01 * b01
        err = u * (q00 * q11 + b01 * b01)
        (a00, a01, c00, c01), (_, a11, c10, c11) = sigma[:2].tolist()
        p00, p11, s, v0, v1 = a00 + t, a11 + t, math.sqrt(det_b), math.sqrt(q11), math.sqrt(q00)
        g00, g01 = c00 * q11 - c01 * b01, c01 * q00 - c00 * b01  # rows of sigma_AB adj(sigma_B')
        g10, g11 = c10 * q11 - c11 * b01, c11 * q00 - c10 * b01
        m00, m11 = s * p00 - (g00 * c00 + g01 * c01) / s, s * p11 - (g10 * c10 + g11 * c11) / s
        m01 = s * a01 - (g00 * c10 + g01 * c11) / s
        # Round-off of the m's: |sigma_AB| |adj sigma_B'| |sigma_AB|^T <= r r^T, and s carries det sigma_B''s.
        k, r0, r1 = u + err / det_b, abs(c00) * v0 + abs(c01) * v1, abs(c10) * v0 + abs(c11) * v1
        e00, e11, e01 = k * (s * p00 + r0 * r0 / s), k * (s * p11 + r1 * r1 / s), k * (s * abs(a01) + r0 * r1 / s)
        det, delta = m00 * m11 - m01 * m01, p00 * p11 - a01 * a01 + det_b + 2.0 * (c00 * c11 - c01 * c10)
        err += u * (abs(m00 * m11) + m01 * m01 + p00 * p11 + a01 * a01 + 2.0 * (abs(c00 * c11) + abs(c01 * c10)))
        err += e00 * (abs(m11) + e11) + abs(m00) * e11 + e01 * (2.0 * abs(m01) + e01)  # carried from the m's
        if math.isfinite(err) and m00 + m11 > -(e00 + e11) and det > -err:
            ok = det >= 1.0 - err and delta <= 1.0 + det + err
            return None if ok else f"uncertainty principle violated: det sigma' = {det:.6e}, Delta' = {delta:.6e}"
    return _spectral_violation(sigma)


def _one_mode_violation(s00: float, s01: float, s11: float) -> str | None:
    """_physicality_violation of the one-mode CM [[s00, s01], [s01, s11]], from its entries.

    Where sigma passes Sylvester's criterion and the round-off bound is
    finite, the closed form decides in float arithmetic: Delta' = det sigma'
    for one mode, so det sigma' >= 1 is the whole test.  Otherwise the CM is
    built as an array for _spectral_violation.
    """
    if _indefinite_min_eig(s00, s01, s11) is None:
        q00, q11 = s00 + TOL_PSD, s11 + TOL_PSD
        det, err = q00 * q11 - s01 * s01, _ROUNDOFF * (q00 * q11 + s01 * s01)
        if math.isfinite(err):
            ok = det >= 1.0 - err
            return None if ok else f"uncertainty principle violated: det sigma' = {det:.6e}, Delta' = {det:.6e}"
    return _spectral_violation(np.array([[s00, s01], [s01, s11]]))


def _spectral_violation(sigma: np.ndarray) -> str | None:
    """_physicality_violation from the entries and the smallest eigenvalues, where the closed form does not decide."""
    if not np.isfinite(sigma).all():
        return f"covariance matrix not finite: {_non_finite_entries(sigma)}"
    # Imported here: the package loads scipy with dynamics; loading it first, from this module, raised the
    # package's peak RSS at import by about 3 MB.
    from scipy.linalg.lapack import dsyevd, zheevd

    omega = _omega(sigma.shape[0] // 2)
    ws, w = _smallest_eigenvalue(dsyevd, sigma), _smallest_eigenvalue(zheevd, sigma + 1j * omega)
    if not ws > 0.0:
        return f"covariance matrix not positive definite: min eig = {ws:.3e}"
    t = TOL_PSD
    return None if w >= -t else f"uncertainty principle violated: min eig(sigma + i Omega) = {w:.3e} < -{t:.1e}"


def _non_finite_entries(sigma: np.ndarray) -> str:
    return ", ".join(f"sigma[{i}, {j}] = {sigma[i, j]}" for i, j in np.argwhere(~np.isfinite(sigma)).tolist())


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


def symplectic_eigenvalues(cm: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted descending.

    One mode takes sqrt(det sigma); where det sigma over- or underflows, that of sigma
    scaled by a power of two, scaled back.  From two modes on, with sigma = L L^T by
    Cholesky, it is one value of each equal pair of singular values of the real
    antisymmetric L^T Omega L, which is similar to i Omega sigma: exact to working
    precision relative to nu_max.  Values within ``TOL_PSD`` below 1 are clamped to 1.

    ``cm`` may also be a (*lead, 2n, 2n) stack, computed in one batched pass into a (*lead, n)
    array, entry idx the spectrum of ``cm[idx]``.  A non-finite member raises with its
    non-finite entries; if none is, one that Sylvester's criterion (one mode) or Cholesky
    rejects raises with its smallest eigenvalue.  The first (in C order) is named by its
    index, a tuple where lead has more than one axis.
    """
    cm = np.asarray(cm, dtype=float)
    lead, n = cm.shape[:-2], cm.shape[-1] // 2
    if n == 1:  # symmetrizing leaves the diagonal as it is; halves first, so that no sum overflows
        a, b, d = cm[..., 0, 0], 0.5 * cm[..., 0, 1] + 0.5 * cm[..., 1, 0], cm[..., 1, 1]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            det, shift = a * d - b * b, None
        ok = (a > 0.0) & (det >= _TINY) & (det < math.inf)  # Sylvester's, det normal: a non-finite entry fails
    if n == 1 and ok.all():
        ok = np.True_  # checked once, as Cholesky's below
    elif not np.isfinite(cm).all():  # the first non-finite member is named below, before any positivity test
        ok = np.isfinite(cm).all(axis=(-2, -1))
    elif n == 1:  # with a > 0 and det not normal, det sigma = 4^k det(sigma 2^-k), 2^k near max(a, d)
        mag = np.abs(det)
        shift = np.where((a > 0.0) & ~((mag >= _TINY) & (mag < math.inf)), np.frexp(np.maximum(a, d))[1], 0)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # exact where a, b, d stay normal
            a_k, b_k, d_k = (np.ldexp(x, -shift) for x in (a, b, d))
            det = a_k * d_k - b_k * b_k
        ok = (a > 0.0) & (det > 0.0)
    else:
        sym = 0.5 * cm + 0.5 * np.swapaxes(cm, -1, -2)
        try:
            chol, ok = np.linalg.cholesky(sym), np.True_
        except np.linalg.LinAlgError:  # ok: the members before the first that Cholesky rejects
            ok = np.zeros(lead, dtype=bool)
            with contextlib.suppress(np.linalg.LinAlgError):
                for i in np.ndindex(lead):
                    np.linalg.cholesky(sym[i])
                    ok[i] = True
    if not ok.all():
        i = next(i for i in np.ndindex(lead) if not ok[i])  # the first member that fails
        where = f" at stack index {i if len(lead) > 1 else i[0]}" if lead else ""
        if not np.isfinite(cm[i]).all():
            raise UnphysicalStateError(f"covariance matrix not finite{where}: {_non_finite_entries(cm[i])}")
        lam = _indefinite_min_eig(a[i], b[i], d[i]) if n == 1 else np.linalg.eigvalsh(sym[i])[0]
        raise UnphysicalStateError(f"covariance matrix not positive definite{where}: min eig = {lam:.3e}")
    if n == 1:
        nus = (np.sqrt(det) if shift is None else np.ldexp(np.sqrt(det), shift))[..., None]  # nothing to sort
    else:
        nus = np.linalg.svd(np.swapaxes(chol, -1, -2) @ _omega(n) @ chol, compute_uv=False)[..., ::2]
    return np.where((nus < 1.0) & (nus > 1.0 - TOL_PSD), 1.0, nus)  # monotone, so the order stands


def energy(state: GaussianState) -> float:
    """Mean energy |mean|^2/2 + tr(sigma)/4 for the free Hamiltonian sum (x^2+p^2)/2.

    The trace is summed over 0.25 sigma_ii, term by term: a trace beyond the float range does not overflow
    while tr(sigma)/4 is within it.
    """
    return 0.5 * float(state.mean @ state.mean) + float((0.25 * state.cm.diagonal()).sum())


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
    determinant, hence symplectic.  A non-finite entry is named first;
    positive definiteness is Sylvester's criterion (:func:`_indefinite_min_eig`).
    Only the one-mode case is supported; multimode reduction to normal form is
    not needed anywhere (the symplectic spectrum alone suffices there).
    """
    cm = np.asarray(cm, dtype=float)
    if cm.shape != (2, 2):
        raise ValueError(f"normal-form symplectic factor is only available for one mode, got shape {cm.shape}")
    (s00, s01), (s10, s11) = cm.tolist()
    if not all(map(math.isfinite, (s00, s01, s10, s11))):
        raise UnphysicalStateError(f"covariance matrix not finite: {_non_finite_entries(cm)}")
    if abs(s01 - s10) > TOL_SYM:
        raise SymmetryError("covariance matrix asymmetric")
    off = 0.5 * (s01 + s10)
    if (lam := _indefinite_min_eig(s00, off, s11)) is not None:
        raise UnphysicalStateError(f"covariance matrix not positive definite: min eig = {lam:.3e}")
    nu = math.sqrt(s00 * s11 - off * off)
    norm = math.sqrt(nu * (s00 + s11 + 2.0 * nu))
    if not 0.0 < norm < math.inf:
        raise NumericError(f"normal-form symplectic factor overflows: nu = {nu:.3e}, tr sigma = {s00 + s11:.3e}")
    S = np.array([[(s11 + nu) / norm, -off / norm], [-off / norm, (s00 + nu) / norm]])
    return nu, S
