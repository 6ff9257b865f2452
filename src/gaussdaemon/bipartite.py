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

from .ergotropy import _cross_check, _single_mode_ergotropy
from .exceptions import NumericError, UnphysicalStateError
from .measurement import GeneralDyneSetting, _pointer_frame_entries, _pointer_inverse, heterodyne, homodyne
from .symplectic import TOL_PSD, GaussianState, _indefinite_min_eig, _physicality_violation, williamson_single_mode

_TIE_TOL = 1e-12
# Log of the largest covariance entry whose fourth power, the scale of a
# two-mode determinant, is still a finite float (about 1.2e77).
_LOG_MAX_CM_ENTRY = 0.25 * math.log(np.finfo(float).max)


@dataclass(frozen=True)
class TwoModeStandardForm:
    """Standard-form parameters (a, z_a, b, c_plus, c_minus, eta) of a two-mode state.

    ``cm`` is the read-only 4x4 covariance matrix of the form and
    ``_invariants`` the measurement-independent terms of its conditional
    determinant (:func:`_det_invariants`); both are built once.  ``cm`` must pass
    symplectic._physicality_violation, and a, b, c_+ above about 1.2e77 (where
    the invariants overflow) raise NumericError.
    """

    a: float
    z_a: float
    b: float
    c_plus: float
    c_minus: float
    eta: float
    cm: np.ndarray = field(init=False, repr=False, compare=False)
    _invariants: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, z_a, b, c_plus, c_minus, eta = self.a, self.z_a, self.b, self.c_plus, self.c_minus, self.eta
        if (top := max(a, b, c_plus)) > math.exp(_LOG_MAX_CM_ENTRY):
            raise NumericError(f"standard form too large: its symplectic invariants overflow (a, b or c_+ = {top:.3e})")
        if not (a >= 1.0 - TOL_PSD and b >= 1.0 - TOL_PSD):
            raise UnphysicalStateError(f"local purities require a, b >= 1, got a={a}, b={b}")
        if not z_a > 0:
            raise UnphysicalStateError(f"local squeezing must be positive, got z_a={z_a}")
        if not (c_plus >= -TOL_PSD and abs(c_minus) <= c_plus + TOL_PSD):
            raise UnphysicalStateError(
                f"correlation ordering violated: need c_plus >= |c_minus| >= 0, got "
                f"c_plus={c_plus}, c_minus={c_minus}"
            )
        if not math.isfinite(eta):
            raise ValueError(f"eta must be finite, got {eta}")
        ce, se = math.cos(eta), math.sin(eta)
        # sigma_A = a diag(z_a, 1/z_a), sigma_B = b I, sigma_AB = R_eta diag(c_plus, c_minus)
        x00, x01, x10, x11 = ce * c_plus, se * c_minus, -se * c_plus, ce * c_minus
        alpha, beta = a * z_a, a * (1.0 / z_a)
        cm = np.array([[alpha, 0.0, x00, x01], [0.0, beta, x10, x11], [x00, x10, b, 0.0], [x01, x11, 0.0, b]])
        cm.flags.writeable = False
        object.__setattr__(self, "cm", cm)
        if (violation := _physicality_violation(cm)) is not None:
            raise UnphysicalStateError(f"standard form is unphysical: {violation}")
        object.__setattr__(self, "_invariants", _det_invariants(self))

    def to_state(self, mean_a=(0.0, 0.0)) -> GaussianState:
        """The two-mode state (mode 0 = A, mode 1 = B, B with zero mean); its CM is read-only."""
        mean = np.concatenate([np.asarray(mean_a, dtype=float).reshape(2), np.zeros(2)])
        return GaussianState(mean, self.cm)


def standard_form(state: GaussianState) -> tuple[TwoModeStandardForm, np.ndarray, np.ndarray]:
    """Reduce a two-mode state to standard form by local symplectics, in closed form.

    Returns ``(sf, s_a, s_b)`` with ``s_a`` a pure rotation on A (so A's energy
    accounting is preserved) and ``s_b`` a single-mode symplectic on B, such
    that ``(s_a + s_b) sigma (s_a + s_b)^T`` has the standard-form blocks.
    Every step is 2x2 arithmetic on the block entries:

    * ``s_a = R_phi`` with phi = atan2(2 sigma_01, sigma_00 - sigma_11) / 2 puts
      the larger variance of sigma_A first (phi = pi/2 when sigma_A is
      proportional to I); a = sqrt(det sigma_A) and z_A = lambda_max / a.
    * (b, S_B) is the one-mode Williamson form of sigma_B
      (:func:`~gaussdaemon.symplectic.williamson_single_mode`).
    * X = s_a sigma_AB S_B^T = R_eta diag(c_+, c_-) V is the signed SVD of X,
      with V a rotation and ``s_b = V S_B``.  From E, F = (X_00 +- X_11)/2 and
      G, H = (X_10 +- X_01)/2: c_+- = hypot(E, H) +- hypot(F, G) (so c_- has
      the sign of det sigma_AB), eta = -(atan2(H, E) + atan2(G, F))/2 and
      V = R_{(atan2(G, F) - atan2(H, E))/2}.  When hypot(E, H) or hypot(F, G)
      vanishes only one of the two angles is defined, and V = I.

    eta is only defined modulo pi (the local symplectic -I on B flips the sign
    of sigma_AB), so it is reported in [-pi/2, pi/2), ``s_b`` changing sign
    with it.
    """
    if state.n != 2:
        raise ValueError(f"standard form requires a two-mode state, got {state.n} modes")
    (p, q0, x00, x01), (q1, r, x10, x11) = state.cm[:2].tolist()
    b, s_b0 = williamson_single_mode(state.cm[2:, 2:])
    (k00, k01), (_, k11) = s_b0.tolist()

    q = 0.5 * (q0 + q1)
    if (lam := _indefinite_min_eig(p, q, r)) is not None:
        raise UnphysicalStateError(f"sigma_A is not positive definite: min eig = {lam:.3e}")
    a = math.sqrt(p * r - q * q)
    z_a = (0.5 * (p + r) + math.hypot(0.5 * (p - r), q)) / a
    if q == 0.0 and p == r:
        cp, sp = 0.0, 1.0
    else:
        phi = 0.5 * math.atan2(2.0 * q, p - r)
        cp, sp = math.cos(phi), math.sin(phi)

    # X = R_phi sigma_AB S_B^T (S_B is symmetric)
    t00, t01, t10, t11 = cp * x00 + sp * x10, cp * x01 + sp * x11, cp * x10 - sp * x00, cp * x11 - sp * x01
    m00, m01 = t00 * k00 + t01 * k01, t00 * k01 + t01 * k11
    m10, m11 = t10 * k00 + t11 * k01, t10 * k01 + t11 * k11
    e, f, g, h = 0.5 * (m00 + m11), 0.5 * (m00 - m11), 0.5 * (m10 + m01), 0.5 * (m10 - m01)
    rot, ref = math.hypot(e, h), math.hypot(f, g)
    a_rot, a_ref = math.atan2(h, e), math.atan2(g, f)
    if rot == 0.0:
        a_rot = a_ref
    elif ref == 0.0:
        a_ref = a_rot
    eta = -0.5 * (a_rot + a_ref)
    psi = 0.5 * (a_ref - a_rot)
    sign = 1.0
    if eta >= 0.5 * math.pi:
        eta, sign = eta - math.pi, -1.0
    elif eta < -0.5 * math.pi:
        eta, sign = eta + math.pi, -1.0
    cv, sv = sign * math.cos(psi), sign * math.sin(psi)
    s_b = np.array([[cv * k00 + sv * k01, cv * k01 + sv * k11], [cv * k01 - sv * k00, cv * k11 - sv * k01]])
    # + 0.0 reports eta = -0.0 as 0.0
    sf = TwoModeStandardForm(a=a, z_a=z_a, b=b, c_plus=rot + ref, c_minus=rot - ref, eta=eta + 0.0)
    return sf, np.array([[cp, sp], [-sp, cp]]), s_b


def _det_invariants(sf: TwoModeStandardForm) -> tuple[float, float, float, float]:
    """The z_m-independent parts (S/2, P0, Q0, w) of C0, P and Q (see the module docstring).

    Derived by expanding the Schur complement of the measured block in the
    standard form; w = c_+^2 c_-^2 and S, P0, Q0 are quadratic in the
    correlations.  Evaluated once per form, at construction (``sf._invariants``).
    """
    a, z_a = sf.a, sf.z_a
    cp2, cm2 = sf.c_plus * sf.c_plus, sf.c_minus * sf.c_minus
    ce, se = math.cos(sf.eta), math.sin(sf.eta)
    s_half = 0.5 * a * (z_a * (cp2 * se * se + cm2 * ce * ce) + (cp2 * ce * ce + cm2 * se * se) / z_a)
    p0 = 0.5 * a * (cm2 * (z_a * ce * ce + se * se / z_a) - cp2 * (z_a * se * se + ce * ce / z_a))
    q0 = -sf.c_plus * sf.c_minus * a * (z_a - 1.0 / z_a) * ce * se
    return s_half, p0, q0, cp2 * cm2


def _det_coefficients(sf: TwoModeStandardForm, z_m: float) -> tuple[float, float, float]:
    """Coefficients (C0, P, Q) of det sigma_A^c = C0 + P cos(2 theta) + Q sin(2 theta).

    ``z_m = 0`` gives the exact homodyne limit; ``z_m = 1`` is heterodyne
    (g1 = g2, so P = Q = 0).  See :func:`_det_invariants`.
    """
    s_half, p0, q0, w = sf._invariants
    g1 = 1.0 / (sf.b + z_m)
    g2 = z_m / (1.0 + sf.b * z_m)
    dlt = g1 - g2
    return sf.a * sf.a - (g1 + g2) * s_half + w * g1 * g2, dlt * p0, dlt * q0


def conditional_determinant(sf: TwoModeStandardForm, theta_m: float, z_m: float) -> float:
    """Closed-form det sigma_A^c after an efficient general-dyne measurement on B.

    ``z_m = 0`` selects the exact homodyne limit.
    """
    if not 0.0 <= z_m <= 1.0:
        raise ValueError(f"z_m must lie in [0, 1] (0 = homodyne), got {z_m}")
    return _det_at(sf, z_m, math.cos(2.0 * theta_m), math.sin(2.0 * theta_m))


def _det_at(sf: TwoModeStandardForm, z_m: float, cos2: float, sin2: float) -> float:
    """C0 + P cos2 + Q sin2 at a z_m already in [0, 1], given cos(2 theta) and sin(2 theta)."""
    c0, p, q = _det_coefficients(sf, z_m)
    return c0 + p * cos2 + q * sin2


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


class DaemonicResult(NamedTuple):
    """Daemonic ergotropy together with the measurement that achieves it."""

    value: float
    setting: GeneralDyneSetting
    conditional_purity: float


def _pipeline(cm: np.ndarray, m0: float, m1: float, setting: GeneralDyneSetting) -> tuple[float, float]:
    """(daemonic ergotropy, det sigma_A^c) of mode 0 of a two-mode CM, mode 1 measured with ``setting``.

    One scalar Schur complement in the pointer frame: with (det, N) from
    _pointer_inverse and G = sigma_AB R_theta, sigma_A^c = sigma_A - G N G^T / det
    (the update :func:`~gaussdaemon.measurement.condition` writes).  It shares
    nothing with the closed forms (_det_invariants), which it cross-checks.
    """
    (a00, a01, x00, x01), (a10, a11, x10, x11), (_, _, b11, b12), (_, _, _, b22) = cm.tolist()
    c, s, s11, s12, s22 = _pointer_frame_entries(b11, b12, b22, setting.theta_m)
    (det, n11, n12, n22), _ = _pointer_inverse(s11, s12, s22, setting)
    g00, g01, g10, g11 = c * x00 - s * x01, s * x00 + c * x01, c * x10 - s * x11, s * x10 + c * x11
    h00, h01 = n11 * g00 + n12 * g01, n12 * g00 + n22 * g01  # rows of G N
    h10, h11 = n11 * g10 + n12 * g11, n12 * g10 + n22 * g11
    c00 = a00 - (h00 * g00 + h01 * g01) / det
    c11 = a11 - (h10 * g10 + h11 * g11) / det
    c01 = 0.5 * (a01 + a10) - (h00 * g10 + h01 * g11) / det
    det_c = c00 * c11 - c01 * c01
    energy = 0.5 * (m0 * m0 + m1 * m1) + 0.25 * (a00 + a11)
    return _single_mode_ergotropy(energy, det_c, "daemonic ergotropy"), det_c


def daemonic_ergotropy(state: GaussianState, setting: GeneralDyneSetting) -> DaemonicResult:
    """Daemonic ergotropy of mode A when mode B is measured with ``setting``.

    Generic conditioning pipeline: works for any (possibly noisy) setting and
    any valid two-mode state.  Mode 0 is A and mode 1 is B; the conditional
    CM is one scalar Schur complement in the pointer frame (:func:`_pipeline`),
    and its 2x2 determinant and the energy of A are evaluated in closed form.
    """
    if state.n != 2:
        raise ValueError(f"daemonic ergotropy requires a two-mode state, got {state.n} modes")
    m0, m1 = state.mean[:2].tolist()
    value, det_c = _pipeline(state.cm, m0, m1, setting)
    return DaemonicResult(value, setting, 1.0 / math.sqrt(det_c))


def unconditional_ergotropy_a(state: GaussianState) -> float:
    """Ergotropy E_A - sqrt(det sigma_A) / 2 of the reduced state of mode A (no measurement)."""
    (s00, s01), (s10, s11) = state.cm[:2, :2].tolist()
    off = 0.5 * (s01 + s10)
    det = s00 * s11 - off * off
    if (lam := _indefinite_min_eig(s00, off, s11)) is not None:
        raise UnphysicalStateError(f"sigma_A is not positive definite: min eig = {lam:.3e}")
    m0, m1 = state.mean[:2].tolist()
    return _single_mode_ergotropy(0.5 * (m0 * m0 + m1 * m1) + 0.25 * (s00 + s11), det, "unconditional ergotropy")


def _pair(mean_a) -> tuple[float, float]:
    m0, m1 = np.asarray(mean_a, dtype=float).reshape(2).tolist()
    return m0, m1


def _energy_a(sf: TwoModeStandardForm, m0: float, m1: float) -> float:
    return 0.25 * sf.a * (sf.z_a + 1.0 / sf.z_a) + 0.5 * (m0 * m0 + m1 * m1)


def _closed_form(sf: TwoModeStandardForm, mean_a, setting: GeneralDyneSetting) -> tuple[DaemonicResult, float]:
    """Closed-form daemonic result at an efficient setting, with the pipeline value it was checked against.

    The pipeline conditions the form's CM (:func:`_pipeline`), not the closed-form coefficients.
    The check's label, naming the setting, is formatted only if the check fails.
    """
    m0, m1 = _pair(mean_a)
    det_c = conditional_determinant(sf, setting.theta_m, setting.z_m)
    value = _single_mode_ergotropy(_energy_a(sf, m0, m1), det_c, "daemonic ergotropy")
    pipeline = _pipeline(sf.cm, m0, m1, setting)[0]
    purity = 1.0 / math.sqrt(det_c)

    def what() -> str:
        return f"daemonic ergotropy at theta={setting.theta_m}, z_m={setting.z_m}"

    _cross_check(value, pipeline, what, _cancelled(sf, purity))
    return DaemonicResult(value, setting, purity), pipeline


def _cancelled(sf: TwoModeStandardForm, conditional_purity: float) -> float:
    """max(a^2 z_A, b^2, c_+^2) / sqrt(det sigma_A^c): the size of what cancels in a daemonic value of the form.

    Both routes build det sigma_A^c from products as large as
    max(a^2 z_A, b^2, c_+^2), which cancel down to it (to 1 at pure states),
    so E - sqrt(det sigma_A^c) / 2 carries about eps times the returned size.
    """
    return max(sf.a * sf.a * sf.z_a, sf.b * sf.b, sf.c_plus * sf.c_plus) * conditional_purity


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
    s_half, p0, q0, w = sf._invariants
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
    conditioning pipeline.  The candidates are :func:`conditional_determinant`'s
    bits at theta*, with the phase's cosine and sine taken once (:func:`_det_at`).
    """
    theta = optimal_phase(sf, 0.0).angle
    cos2, sin2 = math.cos(2.0 * theta), math.sin(2.0 * theta)
    energy = _energy_a(sf, *_pair(mean_a))

    def value_at(z: float) -> float:
        return _single_mode_ergotropy(energy, _det_at(sf, z, cos2, sin2), "daemonic ergotropy")

    z_m, value = 1.0, value_at(1.0)
    z_int = _interior_minimum(sf)
    if z_int is not None:
        v_int = value_at(z_int)
        if v_int > value + _TIE_TOL:
            z_m, value = z_int, v_int
    if value_at(0.0) > value:
        z_m = 0.0
    # heterodyne is phase-free and reported at theta = 0
    return _closed_form(sf, mean_a, GeneralDyneSetting(nu_m=1.0, theta_m=theta if z_m < 1.0 else 0.0, z_m=z_m))[0]


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
