"""General-dyne measurements on Gaussian states and Gaussian conditioning.

A general-dyne measurement of a single mode is parametrized by the covariance
matrix of the (generally noisy) pure-state pointer,

    sigma_m = nu_m R_theta diag(z_m, 1/z_m) R_theta^T,

with nu_m = 1 for an efficient measurement.  z_m = 1 is heterodyne; z_m = 0 is
homodyne, which measures the quadrature u = R_theta (1, 0)^T with infinite
precision.  It is the exact w = z_m / nu_m = 0 member of the pointer-frame
formulas, never a tiny z_m plugged in.

Measuring subsystem B of a bipartite state with outcome r_m updates subsystem
A according to

    sigma_A -> sigma_A - sigma_AB (sigma_B + sigma_m)^{-1} sigma_AB^T,
    mean_A  -> mean_A + sigma_AB (sigma_B + sigma_m)^{-1} (r_m - mean_B).

The conditional covariance matrix does not depend on the outcome.  Outcomes
are Gaussian with mean mean_B; with the convention used here for covariance
matrices, their sampling covariance is (sigma_B + sigma_m)/2.

Everything about the measured mode is computed from the entries of
S = R_theta^T sigma_B R_theta in scalar arithmetic (_pointer_frame_entries):
(sigma_B + sigma_m)^{-1} = R (N / det) R^T with (det, N) from
_pointer_inverse.  condition applies that inverse as a 2x2 matrix
(inverse_sum) to a subsystem A of any size; the bipartite pipeline, where A
is one mode, writes the same update as sigma_A - G N G^T / det with
G = sigma_AB R in scalars.  The outcome sampling works in the same frame, and
so do the monitored filter terms of the dynamics module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import NumericError
from .symplectic import GaussianState, _mode_indices, rotation


@dataclass(frozen=True)
class GeneralDyneSetting:
    """A single-mode general-dyne measurement.

    Parameters
    ----------
    nu_m : float
        Pointer noise, >= 1; 1 means efficient detection.
    theta_m : float
        Measurement phase.  The pointer covariance is pi-periodic in the
        phase, so it is stored reduced to [0, pi).
    z_m : float
        Pointer squeezing in [0, 1].  z_m = 0 is homodyne, the exact limit
        that measures the u = R_theta (1,0)^T quadrature sharply (nu_m then
        drops out).  Values above 1 describe no new measurements (they are
        equivalent under theta_m -> theta_m + pi/2) and are rejected.
    """

    nu_m: float = 1.0
    theta_m: float = 0.0
    z_m: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.nu_m) and math.isfinite(self.theta_m)):
            raise ValueError(f"nu_m and theta_m must be finite, got nu_m = {self.nu_m}, theta_m = {self.theta_m}")
        if self.nu_m < 1.0:
            raise ValueError(f"measurement noise must satisfy nu_m >= 1, got {self.nu_m}")
        if not 0.0 <= self.z_m <= 1.0:
            raise ValueError(
                f"z_m must lie in [0, 1] (0 = homodyne), got {self.z_m}; z_m > 1 is equivalent to "
                "1/z_m with the phase shifted by pi/2"
            )
        object.__setattr__(self, "theta_m", float(self.theta_m) % math.pi)

    @property
    def homodyne(self) -> bool:
        """Whether this is the homodyne limit z_m = 0."""
        return self.z_m == 0.0


def heterodyne() -> GeneralDyneSetting:
    """Efficient heterodyne detection (sigma_m = identity)."""
    return GeneralDyneSetting(nu_m=1.0, theta_m=0.0, z_m=1.0)


def homodyne(theta_m: float = 0.0) -> GeneralDyneSetting:
    """Efficient homodyne detection of the quadrature at phase theta_m."""
    return GeneralDyneSetting(nu_m=1.0, theta_m=theta_m, z_m=0.0)


def measurement_cm(setting: GeneralDyneSetting) -> np.ndarray:
    """Pointer covariance matrix nu_m R diag(z_m, 1/z_m) R^T (finite z_m only)."""
    if setting.homodyne:
        raise ValueError("the homodyne limit has no finite pointer covariance; use inverse_sum")
    r = rotation(setting.theta_m)
    return setting.nu_m * (r @ np.diag([setting.z_m, 1.0 / setting.z_m]) @ r.T)


def measured_quadrature(setting: GeneralDyneSetting) -> np.ndarray:
    """Unit vector u = R_theta (1, 0)^T along the sharply measured quadrature."""
    return rotation(setting.theta_m) @ np.array([1.0, 0.0])


def inverse_sum(sigma_b: np.ndarray, setting: GeneralDyneSetting) -> np.ndarray:
    """(sigma_B + sigma_m)^{-1} for a 2x2 sigma_B: the entries of _pointer_inverse, rotated back in scalar arithmetic.

    No entry grows like 1/z_m, so it keeps full precision as z_m -> 0 and
    meets the homodyne limit u u^T / (u^T sigma_B u) continuously.
    """
    sigma_b = np.asarray(sigma_b, dtype=float)
    if sigma_b.shape != (2, 2):
        raise ValueError(f"sigma_B must be the 2x2 covariance matrix of the measured mode, got shape {sigma_b.shape}")
    (b11, b12), (_, b22) = sigma_b.tolist()
    c, s, s11, s12, s22 = _pointer_frame_entries(b11, b12, b22, setting.theta_m)
    (det, n11, n12, n22), _ = _pointer_inverse(s11, s12, s22, setting)
    return np.array(_from_pointer_frame(c, s, n11 / det, n12 / det, n22 / det)).reshape(2, 2)


def _pointer_inverse(s11: float, s12: float, s22: float, setting: GeneralDyneSetting):
    """((det, *N), K) with M = (S + sigma_m)^{-1} = N / det and M sigma_m = K / det, S = R^T sigma_B R.

    With x = nu_m z_m, w = z_m / nu_m, a = S11 + x, p = 1 + w S22, q = w S12:
    det = a p - q S12, N = (p, -q, w a) (entries 11, 12, 22), K = (x p, -S12, -x q, a) (11, 12, 21, 22).
    Nothing divides by w: homodyne (x = w = 0; nu_m drops out) is the exact member N = (1, 0, 0), det = S11.
    """
    x, w = setting.nu_m * setting.z_m, setting.z_m / setting.nu_m
    a = s11 + x
    p, q = 1.0 + w * s22, w * s12
    det = a * p - q * s12
    if not det > 0.0:
        raise NumericError(f"sigma_B + sigma_m is singular: scaled determinant {det:.3e}")
    return (det, p, -q, w * a), (x * p, -s12, -x * q, a)


def _from_pointer_frame(c: float, s: float, m11: float, m12: float, m22: float) -> tuple:
    """Entries (row-major) of R [[m11, m12], [m12, m22]] R^T for R = R_theta, c = cos theta, s = sin theta."""
    cc, cs, ss = c * c, c * s, s * s
    x01 = cs * (m22 - m11) + (cc - ss) * m12
    return cc * m11 + 2.0 * cs * m12 + ss * m22, x01, x01, ss * m11 - 2.0 * cs * m12 + cc * m22


def _pointer_frame_entries(
    b11: float, b12: float, b22: float, theta_m: float
) -> tuple[float, float, float, float, float]:
    """(c, s, S11, S12, S22): c = cos theta_m, s = sin theta_m and S = R^T sigma_B R with R = R_theta.

    sigma_B = [[b11, b12], [b12, b22]].  R is the frame in which sigma_m is
    diagonal; S11 = u^T sigma_B u is the variance of the measured quadrature
    u = (c, -s).
    """
    c, s = math.cos(theta_m), math.sin(theta_m)
    cc, cs, ss = c * c, c * s, s * s
    s11 = cc * b11 - 2.0 * cs * b12 + ss * b22
    s12 = cs * (b11 - b22) + (cc - ss) * b12
    s22 = ss * b11 + 2.0 * cs * b12 + cc * b22
    return c, s, s11, s12, s22


@dataclass(frozen=True)
class Partition:
    """Split of an n-mode state into a kept subsystem A and a measured mode B.

    The quadrature index arrays of both subsystems and the block selectors
    of sigma_A, sigma_B and sigma_AB are computed once, at construction.
    """

    a_modes: tuple
    b_modes: tuple
    a_idx: np.ndarray = field(init=False, repr=False, compare=False)
    b_idx: np.ndarray = field(init=False, repr=False, compare=False)
    _ix: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = tuple(int(m) for m in self.a_modes)
        b = tuple(int(m) for m in self.b_modes)
        if len(b) != 1:
            raise ValueError(f"exactly one measured mode is supported, got {len(b)}")
        if min(a + b) < 0:
            raise ValueError(f"mode indices must be non-negative, got a_modes={a}, b_modes={b}")
        if set(a) & set(b):
            raise ValueError(f"subsystems overlap: {set(a) & set(b)}")
        if len(set(a)) != len(a) or not a:
            raise ValueError(f"kept modes must be a non-empty set, got {a}")
        ia, ib = _mode_indices(a), _mode_indices(b)
        ia.flags.writeable = ib.flags.writeable = False
        object.__setattr__(self, "a_modes", a)
        object.__setattr__(self, "b_modes", b)
        object.__setattr__(self, "a_idx", ia)
        object.__setattr__(self, "b_idx", ib)
        object.__setattr__(self, "_ix", (np.ix_(ia, ia), np.ix_(ib, ib), np.ix_(ia, ib)))


def _blocks(state: GaussianState, partition: Partition):
    if max(partition.a_modes + partition.b_modes) >= state.n:
        raise ValueError(f"partition refers to modes outside the {state.n}-mode state")
    aa, bb, ab = partition._ix
    return state.cm[aa], state.cm[bb], state.cm[ab], state.mean[partition.a_idx], state.mean[partition.b_idx]


def condition(
    state: GaussianState,
    partition: Partition,
    setting: GeneralDyneSetting,
    outcome,
) -> GaussianState:
    """State of subsystem A after measuring mode B with the given outcome.

    ``outcome`` is the 2-vector of pointer readings; in the homodyne limit only
    its component along the measured quadrature enters (the rank-one update
    annihilates the orthogonal component).  The gain is
    sigma_AB (sigma_B + sigma_m)^{-1} from :func:`inverse_sum`, and the
    conditional CM is returned symmetrized.
    """
    sa, sb, sab, ma, mb = _blocks(state, partition)
    outcome = np.asarray(outcome, dtype=float).reshape(-1)
    if outcome.size != 2:
        raise ValueError(f"outcome must be a 2-vector, got length {outcome.size}")
    gain = sab @ inverse_sum(sb, setting)
    cm = sa - gain @ sab.T
    return GaussianState(ma + gain @ (outcome - mb), 0.5 * (cm + cm.T))


def sample_outcome(
    state: GaussianState,
    partition: Partition,
    setting: GeneralDyneSetting,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw a general-dyne outcome for measuring mode B of the state.

    Finite z_m: Gaussian with mean mean_B and covariance (sigma_B + sigma_m)/2, factored in the pointer frame.
    Homodyne: the measured quadrature u carries a Gaussian of variance
    u^T sigma_B u / 2; the orthogonal component is reported at its mean
    projection (it is unobserved and does not affect conditioning).
    """
    _, sb, _, _, mb = _blocks(state, partition)
    (b11, b12), (_, b22) = sb.tolist()
    c, s, s11, s12, s22 = _pointer_frame_entries(b11, b12, b22, setting.theta_m)
    if setting.homodyne:
        u = np.array([c, -s])
        y = float(mb @ u) + math.sqrt(0.5 * s11) * rng.standard_normal()
        return u * y + (mb - u * float(mb @ u))
    # Cholesky factor of (S + diag(nu_m z_m, nu_m / z_m)) / 2, then rotated back by R.
    l11 = math.sqrt(0.5 * (s11 + setting.nu_m * setting.z_m))
    l21 = 0.5 * s12 / l11
    l22 = math.sqrt(0.5 * (s22 + setting.nu_m / setting.z_m) - l21 * l21)
    g1, g2 = rng.standard_normal(2).tolist()
    y1, y2 = l11 * g1, l21 * g1 + l22 * g2
    return mb + np.array([c * y1 + s * y2, c * y2 - s * y1])
