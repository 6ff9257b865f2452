"""Daemonic ergotropy of two-mode Gaussian states under general-dyne measurements.

Measuring mode B of a bipartite Gaussian state and feeding the outcome forward
to the work-extraction unitary on mode A raises the extractable work from the
unconditional ergotropy to the daemonic ergotropy

    E_dae = tr(sigma_A)/4 + |mean_A|^2/2 - (1/2) sum_j nu_j(sigma_A^c),

where sigma_A^c is the (outcome-independent) conditional covariance matrix.
Averaging over outcomes leaves the mean energy of A unchanged, so only the
passive energy drops; daemonic ergotropy therefore never falls below the
unconditional ergotropy of the reduced state.

Every two-mode covariance matrix can be brought by local symplectics (a pure
rotation on A, so the ergotropy bookkeeping of A is untouched) to the standard
form

    sigma_A  = a diag(z_A, 1/z_A),   z_A >= 1,
    sigma_B  = b I,
    sigma_AB = R_eta diag(c_+, c_-),  c_+ >= |c_-|,  sign(c_-) = sign(det sigma_AB).

In this form the conditional determinant under an efficient general-dyne
measurement (phase theta, squeezing z_m) is an exact trigonometric polynomial

    det sigma_A^c(theta, z_m) = C0(z_m) + P(z_m) cos(2 theta) + Q(z_m) sin(2 theta),

where the pointer enters only through g1 = 1/(b + z_m) and g2 = z_m/(1 + b z_m):

    C0 = a^2 - (g1 + g2) S/2 + w g1 g2,   P = (g1 - g2) P0,   Q = (g1 - g2) Q0,

with (S/2, P0, Q0, w) independent of the measurement (:func:`_det_invariants`).
Two useful consequences drive the optimizers below:

* the optimal phase 2 theta* = atan2(-Q, -P) does not depend on z_m (P and Q
  share their full z_m dependence through the factor g1 - g2 >= 0);
* at theta* the determinant is a rational function of z_m whose stationary
  points solve a quadratic, so the maximum over the measurement is that
  quadratic's root in (0, 1), the exact homodyne limit z_m = 0 or
  heterodyne z_m = 1.

The closed forms and the generic conditioning pipeline are kept as two
independent routes and are cross-checked against each other at every
closed-form evaluation.  A single mode's daemonic ergotropy depends only on
its energy and conditional purity, E - 1/(2 mu_c) with mu_c = 1/sqrt(det
sigma_A^c), which both routes evaluate through the ergotropy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ergotropy import _cross_check, _single_mode_ergotropy, ergotropy_report
from .exceptions import UnphysicalStateError
from .measurement import GeneralDyneSetting, Partition, condition, heterodyne, homodyne
from .symplectic import (
    TOL_PSD,
    GaussianState,
    _omega,
    williamson_single_mode,
)

_PARTITION = Partition(a_modes=(0,), b_modes=(1,))

_TIE_TOL = 1e-12
# Log of the largest covariance entry whose fourth power, the scale of a
# two-mode determinant, is still a finite float (about 1.2e77).
_LOG_MAX_CM_ENTRY = 0.25 * math.log(np.finfo(float).max)


@dataclass(frozen=True)
class TwoModeStandardForm:
    """Standard-form parameters (a, z_a, b, c_plus, c_minus, eta) of a two-mode state.

    ``cm`` is the read-only 4x4 covariance matrix of the form, built once.
    """

    a: float
    z_a: float
    b: float
    c_plus: float
    c_minus: float
    eta: float
    cm: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.a < 1.0 - TOL_PSD or self.b < 1.0 - TOL_PSD:
            raise UnphysicalStateError(f"local purities require a, b >= 1, got a={self.a}, b={self.b}")
        if self.z_a <= 0:
            raise UnphysicalStateError(f"local squeezing must be positive, got z_a={self.z_a}")
        if self.c_plus < -TOL_PSD or abs(self.c_minus) > self.c_plus + TOL_PSD:
            raise UnphysicalStateError(
                f"correlation ordering violated: need c_plus >= |c_minus| >= 0, got "
                f"c_plus={self.c_plus}, c_minus={self.c_minus}"
            )
        ce, se = np.cos(self.eta), np.sin(self.eta)
        cm = np.zeros((4, 4))
        cm[0, 0], cm[1, 1] = self.a * self.z_a, self.a * (1.0 / self.z_a)
        cm[2, 2] = cm[3, 3] = self.b
        # sigma_AB = R_eta diag(c_plus, c_minus)
        cm[0, 2] = cm[2, 0] = ce * self.c_plus
        cm[0, 3] = cm[3, 0] = se * self.c_minus
        cm[1, 2] = cm[2, 1] = -se * self.c_plus
        cm[1, 3] = cm[3, 1] = ce * self.c_minus
        cm.flags.writeable = False
        object.__setattr__(self, "cm", cm)
        w = np.linalg.eigvalsh(cm + 1j * _omega(2))
        if w.min() < -TOL_PSD:
            raise UnphysicalStateError(
                f"standard form is unphysical: min eig(sigma + i Omega) = {w.min():.3e}"
            )

    def to_state(self, mean_a=(0.0, 0.0)) -> GaussianState:
        """The two-mode state (mode 0 = A, mode 1 = B, B with zero mean); its CM is read-only."""
        mean = np.concatenate([np.asarray(mean_a, dtype=float).reshape(2), np.zeros(2)])
        return GaussianState(mean, self.cm)


def standard_form(state: GaussianState) -> tuple[TwoModeStandardForm, np.ndarray, np.ndarray]:
    """Reduce a two-mode state to standard form by local symplectics.

    Returns ``(sf, s_a, s_b)`` with ``s_a`` a pure rotation on A (so A's energy
    accounting is preserved) and ``s_b`` a single-mode symplectic on B, such
    that ``(s_a + s_b) sigma (s_a + s_b)^T`` has the standard-form blocks.
    """
    if state.n != 2:
        raise ValueError(f"standard form requires a two-mode state, got {state.n} modes")
    sa = state.cm[:2, :2]
    sb = state.cm[2:, 2:]
    sab = state.cm[:2, 2:]

    b, s_b0 = williamson_single_mode(sb)

    # Rotation on A diagonalizing sigma_A with the larger variance first.
    w, q = np.linalg.eigh(0.5 * (sa + sa.T))
    a = float(np.sqrt(w[0] * w[1]))
    z_a = float(np.sqrt(w[1] / w[0]))
    r_a = q[:, ::-1].T  # rows: eigenvectors, larger eigenvalue first
    if np.linalg.det(r_a) < 0:
        r_a = np.diag([1.0, -1.0]) @ r_a

    # Rotation freedom left on B: absorb the right factor of the signed SVD.
    sab1 = r_a @ sab @ s_b0.T
    u, s, vt = np.linalg.svd(sab1)
    s = s.copy()
    if np.linalg.det(u) < 0:
        u = u @ np.diag([1.0, -1.0])
        s[1] = -s[1]
    if np.linalg.det(vt) < 0:
        vt = np.diag([1.0, -1.0]) @ vt
        s[1] = -s[1]
    c_plus, c_minus = float(s[0]), float(s[1])
    eta = float(math.atan2(u[0, 1], u[0, 0]))
    if c_plus < 0:  # only possible when both are ~0; keep the convention anyway
        c_plus, c_minus, eta = -c_plus, -c_minus, eta + math.pi

    s_b = vt @ s_b0
    sf = TwoModeStandardForm(a=a, z_a=z_a, b=float(b), c_plus=c_plus, c_minus=c_minus, eta=eta)
    return sf, r_a, s_b


class _DetCoefficients(NamedTuple):
    c0: float
    p: float
    q: float


def _det_invariants(sf: TwoModeStandardForm) -> tuple[float, float, float, float]:
    """The z_m-independent parts (S/2, P0, Q0, w) of C0, P and Q (see the module docstring).

    Derived by expanding the Schur complement of the measured block in the
    standard form; w = c_+^2 c_-^2 and S, P0, Q0 are quadratic in the
    correlations.
    """
    a, z_a = sf.a, sf.z_a
    cp2, cm2 = sf.c_plus * sf.c_plus, sf.c_minus * sf.c_minus
    ce, se = math.cos(sf.eta), math.sin(sf.eta)
    s_half = 0.5 * a * (z_a * (cp2 * se * se + cm2 * ce * ce) + (cp2 * ce * ce + cm2 * se * se) / z_a)
    p0 = 0.5 * a * (cm2 * (z_a * ce * ce + se * se / z_a) - cp2 * (z_a * se * se + ce * ce / z_a))
    q0 = -sf.c_plus * sf.c_minus * a * (z_a - 1.0 / z_a) * ce * se
    return s_half, p0, q0, cp2 * cm2


def _det_coefficients(sf: TwoModeStandardForm, z_m: float) -> _DetCoefficients:
    """Coefficients of det sigma_A^c = C0 + P cos(2 theta) + Q sin(2 theta).

    ``z_m = 0`` gives the exact homodyne limit; ``z_m = 1`` is heterodyne
    (g1 = g2, so P = Q = 0).  See :func:`_det_invariants`.
    """
    s_half, p0, q0, w = _det_invariants(sf)
    g1 = 1.0 / (sf.b + z_m)
    g2 = z_m / (1.0 + sf.b * z_m)
    dlt = g1 - g2
    return _DetCoefficients(sf.a * sf.a - (g1 + g2) * s_half + w * g1 * g2, dlt * p0, dlt * q0)


def conditional_determinant(sf: TwoModeStandardForm, theta_m: float, z_m: float) -> float:
    """Closed-form det sigma_A^c after an efficient general-dyne measurement on B.

    ``z_m = 0`` selects the exact homodyne limit.
    """
    if not 0.0 <= z_m <= 1.0:
        raise ValueError(f"z_m must lie in [0, 1] (0 = homodyne), got {z_m}")
    c0, p, q = _det_coefficients(sf, z_m)
    return c0 + p * math.cos(2.0 * theta_m) + q * math.sin(2.0 * theta_m)


class OptimalPhase(NamedTuple):
    angle: float
    degenerate: bool


def optimal_phase(sf: TwoModeStandardForm, z_m: float) -> OptimalPhase:
    """Measurement phase minimizing the conditional determinant.

    The minimizer of C0 + P cos(2 theta) + Q sin(2 theta) is
    2 theta* = atan2(-Q, -P), reduced to [0, pi); it is independent of z_m.
    Phase-invariant cases set the ``degenerate`` flag: no correlations
    (c_+ = 0, reported at angle pi/2 by convention), heterodyne z_m = 1,
    and z_A = 1 with |c_+| = |c_-| (both reported at angle 0).
    """
    if not 0.0 <= z_m <= 1.0:
        raise ValueError(f"z_m must lie in [0, 1] (0 = homodyne), got {z_m}")
    if sf.c_plus == 0.0:
        return OptimalPhase(0.5 * math.pi, True)
    c0, p, q = _det_coefficients(sf, z_m)
    amp = math.hypot(p, q)
    if amp <= _TIE_TOL * max(1.0, abs(c0)):
        return OptimalPhase(0.0, True)
    return OptimalPhase(0.5 * math.atan2(-q, -p) % math.pi, False)


@dataclass(frozen=True)
class DaemonicResult:
    """Daemonic ergotropy together with the measurement that achieves it."""

    value: float
    setting: GeneralDyneSetting
    conditional_purity: float


def daemonic_ergotropy(state: GaussianState, setting: GeneralDyneSetting) -> DaemonicResult:
    """Daemonic ergotropy of mode A when mode B is measured with ``setting``.

    Generic conditioning pipeline: works for any (possibly noisy) setting and
    any valid two-mode state.
    """
    if state.n != 2:
        raise ValueError(f"daemonic ergotropy requires a two-mode state, got {state.n} modes")
    conditional = condition(state, _PARTITION, setting, outcome=np.zeros(2))
    det_c = float(np.linalg.det(conditional.cm))
    mean_a = state.mean[:2]
    energy = 0.5 * float(mean_a @ mean_a) + 0.25 * float(np.trace(state.cm[:2, :2]))
    value = _single_mode_ergotropy(energy, det_c, "daemonic ergotropy")
    return DaemonicResult(value=value, setting=setting, conditional_purity=1.0 / math.sqrt(det_c))


def unconditional_ergotropy_a(state: GaussianState) -> float:
    """Ergotropy of the reduced state of mode A (no measurement)."""
    return ergotropy_report(GaussianState(state.mean[:2], state.cm[:2, :2])).ergotropy


def _setting_for(theta: float, z_m: float) -> GeneralDyneSetting:
    if z_m == 1.0:
        return heterodyne()
    if z_m == 0.0:
        return homodyne(theta)
    return GeneralDyneSetting(nu_m=1.0, theta_m=theta, z_m=z_m)


def _energy_a(sf: TwoModeStandardForm, mean_a) -> float:
    mean_a = np.asarray(mean_a, dtype=float).reshape(2)
    return 0.25 * sf.a * (sf.z_a + 1.0 / sf.z_a) + 0.5 * float(mean_a @ mean_a)


def _closed_form(sf: TwoModeStandardForm, mean_a, setting: GeneralDyneSetting) -> tuple[DaemonicResult, float]:
    """Closed-form daemonic result at an efficient setting, with the pipeline value it was checked against."""
    det_c = conditional_determinant(sf, setting.theta_m, setting.z_m)
    value = _single_mode_ergotropy(_energy_a(sf, mean_a), det_c, "daemonic ergotropy")
    pipeline = daemonic_ergotropy(sf.to_state(mean_a), setting).value
    _cross_check(value, pipeline, f"daemonic ergotropy at theta={setting.theta_m}, z_m={setting.z_m}")
    return DaemonicResult(value=value, setting=setting, conditional_purity=1.0 / math.sqrt(det_c)), pipeline


def daemonic_heterodyne(sf: TwoModeStandardForm, mean_a=(0.0, 0.0)) -> DaemonicResult:
    """Closed-form daemonic ergotropy under efficient heterodyne detection."""
    return _closed_form(sf, mean_a, heterodyne())[0]


def max_daemonic_homodyne(sf: TwoModeStandardForm, mean_a=(0.0, 0.0)) -> DaemonicResult:
    """Closed-form daemonic ergotropy under phase-optimized efficient homodyne."""
    return _closed_form(sf, mean_a, homodyne(optimal_phase(sf, 0.0).angle))[0]


def _optimal_det_coefficients(sf: TwoModeStandardForm) -> tuple[float, float, float]:
    """(u, v, w) with det sigma_A^c(theta*, z_m) = a^2 - u g1 - v g2 + w g1 g2.

    Since g1 - g2 >= 0, the phase-minimized determinant C0 - hypot(P, Q) has
    u = S/2 + K and v = S/2 - K with K = hypot(P0, Q0) (see :func:`_det_invariants`).
    """
    s_half, p0, q0, w = _det_invariants(sf)
    k = math.hypot(p0, q0)
    return s_half + k, s_half - k, w


def _interior_minimum(sf: TwoModeStandardForm) -> float | None:
    """The z_m in (0, 1) minimizing det sigma_A^c(theta*, z_m), if there is one.

    Multiplying d det*/d z_m by (b + z)^2 (1 + b z)^2 leaves the quadratic
    f(z) = u (1 + b z)^2 - v (b + z)^2 + w b (1 - z^2) = qa z^2 + qb z + qc.
    Since f(1) = 2K (1 + b)^2 >= 0, f(-1) = 2K (b - 1)^2 >= 0 and the roots
    sum to -qb/qa = -4bK/qa, f has a root in (0, 1) only when f(0) = qc < 0,
    and then exactly one, where det* stops falling and starts rising.  It is
    taken in the cancellation-free form -2 qc / (qb + sqrt(qb^2 - 4 qa qc)),
    which also covers the linear case qa = 0.  For c_+ = 0 every coefficient
    vanishes and the landscape is flat.
    """
    u, v, w = _optimal_det_coefficients(sf)
    b = sf.b
    qa = u * b * b - v - w * b
    qb = 2.0 * b * (u - v)
    qc = u - v * b * b + w * b
    disc = qb * qb - 4.0 * qa * qc
    if qc >= 0.0 or disc <= 0.0:  # with qc < 0, disc <= 0 only through roundoff
        return None
    z = -2.0 * qc / (qb + math.sqrt(disc))
    return z if z < 1.0 else None


def max_daemonic(sf: TwoModeStandardForm, mean_a=(0.0, 0.0)) -> DaemonicResult:
    """Daemonic ergotropy maximized over efficient general-dyne measurements.

    The phase is set to the closed-form optimum (z_m-independent).  At that
    phase the stationary points of the determinant in z_m are the roots of a
    quadratic (see :func:`_interior_minimum`), so the candidates are its root
    in (0, 1), the exact homodyne limit z_m = 0 and heterodyne z_m = 1.  Ties
    against heterodyne resolve toward z_m = 1; homodyne wins only when
    strictly better.  The returned value is cross-checked against the
    conditioning pipeline.
    """
    theta = optimal_phase(sf, 0.0).angle
    energy = _energy_a(sf, mean_a)

    def value_at(z: float) -> float:
        return _single_mode_ergotropy(energy, conditional_determinant(sf, theta, z), "daemonic ergotropy")

    z_m, value = 1.0, value_at(1.0)
    z_int = _interior_minimum(sf)
    if z_int is not None:
        v_int = value_at(z_int)
        if v_int > value + _TIE_TOL:
            z_m, value = z_int, v_int
    if value_at(0.0) > value:
        z_m = 0.0
    return _closed_form(sf, mean_a, _setting_for(theta, z_m))[0]


def tmsts(n_th: float, r: float) -> GaussianState:
    """Two-mode squeezed thermal state: squeezing r on two thermal modes (2 n_th + 1).

    Standard form: a = b = (2 n_th + 1) cosh(2r), c_+ = -c_- = (2 n_th + 1) sinh(2r),
    z_A = 1, eta = 0.  Phase-invariant under general-dyne measurements of B.
    The largest entry, bounded by (2 n_th + 1) e^{2|r|}, must stay below about
    1.2e77 so that the determinant invariants do not overflow.
    """
    if not (math.isfinite(n_th) and math.isfinite(r)):
        raise ValueError(f"n_th and r must be finite, got n_th = {n_th}, r = {r}")
    if n_th < 0:
        raise ValueError(f"thermal occupation must be non-negative, got {n_th}")
    nu = 2.0 * n_th + 1.0
    if math.log(nu) + 2.0 * abs(r) > _LOG_MAX_CM_ENTRY:
        raise ValueError(
            f"n_th = {n_th}, r = {r} is out of range: the covariance entries (2 n_th + 1) cosh(2r) "
            f"would exceed about 1.2e77, where the two-mode determinant overflows"
        )
    ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    za = np.diag([1.0, -1.0])
    cm = nu * np.block([[ch * np.eye(2), sh * za], [sh * za, ch * np.eye(2)]])
    return GaussianState(np.zeros(4), cm)


def tmsts_heterodyne(n_th: float, r: float) -> float:
    """Closed-form heterodyne daemonic ergotropy of the two-mode squeezed thermal state."""
    nu = 2.0 * n_th + 1.0
    return nu**2 * math.sinh(2.0 * r) ** 2 / (2.0 + 2.0 * nu * math.cosh(2.0 * r))


def tmsts_homodyne(n_th: float, r: float) -> float:
    """Closed-form homodyne daemonic ergotropy of the two-mode squeezed thermal state."""
    return (2.0 * n_th + 1.0) * math.sinh(r) ** 2
