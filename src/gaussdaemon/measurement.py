"""General-dyne measurements on Gaussian states and Gaussian conditioning.

A general-dyne measurement of a single mode is parametrized by the covariance
matrix of the (generally noisy) pure-state pointer,

    sigma_m = nu_m R_theta diag(z_m, 1/z_m) R_theta^T,

with nu_m = 1 for an efficient measurement.  z_m = 1 is heterodyne; the
homodyne limit z_m -> 0 measures the quadrature u = R_theta (1, 0)^T with
infinite precision.  Homodyne is the exact w = z_m / nu_m = 0 member of the
pointer-frame formulas, never a tiny z_m plugged in.

Measuring subsystem B of a bipartite state with outcome r_m updates subsystem
A according to

    sigma_A -> sigma_A - sigma_AB (sigma_B + sigma_m)^{-1} sigma_AB^T,
    mean_A  -> mean_A + sigma_AB (sigma_B + sigma_m)^{-1} (r_m - mean_B).

The conditional covariance matrix does not depend on the outcome.  Outcomes
are Gaussian with mean mean_B; with the convention used here for covariance
matrices, their sampling covariance is (sigma_B + sigma_m)/2.
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
        Pointer squeezing in (0, 1].  Values above 1 describe no new
        measurements (they are equivalent under theta_m -> theta_m + pi/2)
        and are rejected.  Ignored when ``homodyne`` is set.
    homodyne : bool
        Exact z_m -> 0 limit: sharp measurement of the u = R_theta (1,0)^T
        quadrature.
    """

    nu_m: float = 1.0
    theta_m: float = 0.0
    z_m: float = 1.0
    homodyne: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.nu_m) and math.isfinite(self.theta_m)):
            raise ValueError(f"nu_m and theta_m must be finite, got nu_m = {self.nu_m}, theta_m = {self.theta_m}")
        if self.nu_m < 1.0:
            raise ValueError(f"measurement noise must satisfy nu_m >= 1, got {self.nu_m}")
        if not self.homodyne:
            if not 0.0 < self.z_m <= 1.0:
                raise ValueError(
                    f"z_m must lie in (0, 1], got {self.z_m}; z_m > 1 is equivalent to "
                    "1/z_m with the phase shifted by pi/2"
                )
        else:
            object.__setattr__(self, "z_m", 0.0)
        object.__setattr__(self, "theta_m", float(self.theta_m) % math.pi)


def heterodyne() -> GeneralDyneSetting:
    """Efficient heterodyne detection (sigma_m = identity)."""
    return GeneralDyneSetting(nu_m=1.0, theta_m=0.0, z_m=1.0)


def homodyne(theta_m: float = 0.0) -> GeneralDyneSetting:
    """Efficient homodyne detection of the quadrature at phase theta_m."""
    return GeneralDyneSetting(nu_m=1.0, theta_m=theta_m, homodyne=True)


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
    """(sigma_B + sigma_m)^{-1}, exact in the homodyne limit.

    In the pointer frame, with S = R^T sigma_B R, a = S11 + nu_m z_m and
    w = z_m / nu_m, the inverse is

        R [[1 + w S22, -w S12], [-w S12, w a]] R^T / (a (1 + w S22) - w S12^2),

    whose w = 0 member is the homodyne limit u u^T / (u^T sigma_B u); nu_m
    drops out of it.  No entry grows like 1/z_m, so the result keeps full
    precision as z_m -> 0 and meets the limit continuously.
    """
    r, s = _pointer_frame(np.asarray(sigma_b, dtype=float), setting)
    w = setting.z_m / setting.nu_m
    a = s[0, 0] + setting.nu_m * setting.z_m
    p, q = 1.0 + w * s[1, 1], w * s[0, 1]
    det = a * p - q * s[0, 1]
    if not det > 0.0:
        raise NumericError(f"sigma_B + sigma_m is singular: scaled determinant {det:.3e}")
    return r @ (np.array([[p, -q], [-q, w * a]]) / det) @ r.T


def _pointer_frame(sigma_b: np.ndarray, setting: GeneralDyneSetting) -> tuple[np.ndarray, np.ndarray]:
    """(R, R^T sigma_B R) with R = R_theta, the frame in which sigma_m is diagonal."""
    r = rotation(setting.theta_m)
    return r, r.T @ sigma_b @ r


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
    annihilates the orthogonal component).
    """
    sa, sb, sab, ma, mb = _blocks(state, partition)
    inv = inverse_sum(sb, setting)
    gain = sab @ inv
    outcome = np.asarray(outcome, dtype=float).reshape(-1)
    if outcome.size != 2:
        raise ValueError(f"outcome must be a 2-vector, got length {outcome.size}")
    cm = sa - gain @ sab.T
    cm = 0.5 * (cm + cm.T)
    return GaussianState(ma + gain @ (outcome - mb), cm)


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
    r, t = _pointer_frame(sb, setting)
    if setting.homodyne:
        u = r[:, 0]
        y = float(mb @ u) + math.sqrt(0.5 * t[0, 0]) * rng.standard_normal()
        return u * y + (mb - u * float(mb @ u))
    t[0, 0] += setting.nu_m * setting.z_m
    t[1, 1] += setting.nu_m / setting.z_m
    return mb + r @ np.linalg.cholesky(0.5 * t) @ rng.standard_normal(2)
