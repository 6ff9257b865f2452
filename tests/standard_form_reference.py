"""Eigensolver reference for the two-mode standard form, and the degenerate states to test it on.

A cross-check of ``standard_form``, which works in closed form: this helper
reduces the state the earlier way, with ``eigh`` for sigma_A and sigma_B and
a determinant-fixed ``svd`` for sigma_AB, through the public API only.
"""

import math

import numpy as np
from scipy.linalg import block_diag

from gaussdaemon import GaussianState, random_rotation, random_state, random_symplectic, rotation, tmsts


def reference_standard_form(state: GaussianState) -> tuple[tuple[float, ...], np.ndarray, np.ndarray]:
    """((a, z_a, b, c_plus, c_minus, eta), s_a, s_b) by eigendecompositions and an SVD."""
    sa, sb, sab = state.cm[:2, :2], state.cm[2:, 2:], state.cm[:2, 2:]

    wb, qb = np.linalg.eigh(0.5 * (sb + sb.T))
    b = float(np.sqrt(wb[0] * wb[1]))
    s_b0 = qb @ np.diag(np.sqrt(b / wb)) @ qb.T

    w, q = np.linalg.eigh(0.5 * (sa + sa.T))
    a = float(np.sqrt(w[0] * w[1]))
    z_a = float(np.sqrt(w[1] / w[0]))
    r_a = q[:, ::-1].T  # rows: eigenvectors, larger eigenvalue first
    if np.linalg.det(r_a) < 0:
        r_a = np.diag([1.0, -1.0]) @ r_a

    u, s, vt = np.linalg.svd(r_a @ sab @ s_b0.T)
    s = s.copy()
    if np.linalg.det(u) < 0:
        u = u @ np.diag([1.0, -1.0])
        s[1] = -s[1]
    if np.linalg.det(vt) < 0:
        vt = np.diag([1.0, -1.0]) @ vt
        s[1] = -s[1]
    c_plus, c_minus = float(s[0]), float(s[1])
    eta = float(math.atan2(u[0, 1], u[0, 0]))
    if c_plus < 0:
        c_plus, c_minus, eta = -c_plus, -c_minus, eta + math.pi
    return (a, z_a, b, c_plus, c_minus, eta), r_a, vt @ s_b0


def _local(rng: np.random.Generator, cm: np.ndarray, squeeze_a: bool) -> np.ndarray:
    """cm after a random rotation (or, with squeeze_a, a random symplectic) on A and a random symplectic on B."""
    s_a = random_symplectic(rng, 1) if squeeze_a else random_rotation(rng)
    s = block_diag(s_a, random_symplectic(rng, 1))
    cm = s @ cm @ s.T
    return 0.5 * (cm + cm.T)


def form_cm(a: float, z_a: float, b: float, c_plus: float, c_minus: float, eta: float) -> np.ndarray:
    """The standard-form CM, written out by hand (sigma_AB = R_eta diag(c_plus, c_minus))."""
    sab = rotation(eta) @ np.diag([c_plus, c_minus])
    return np.block([[a * np.diag([z_a, 1.0 / z_a]), sab], [sab.T, b * np.eye(2)]])


def degenerate_states(rng: np.random.Generator):
    """(family, state) for each two-mode family whose standard form is degenerate, all physical by construction.

    * ``tmsts``: sigma_A = a I and c_+ = -c_-, no further transformation;
    * ``sigma_a-isotropic``: a TMSTS after a rotation on A and a symplectic on B;
    * ``uncorrelated``: c_+ = 0, a product of two random one-mode states;
    * ``c_plus=c_minus`` and ``c_plus=-c_minus``: forms with z_A > 1 and
      c^2 <= lam0 (b - 1), where lam0 = min eig(sigma_A + i Omega), which
      keeps sigma + i Omega >= 0; then local symplectics.
    """
    zeros = np.zeros(4)
    n_th, r = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
    yield "tmsts", tmsts(n_th, r)
    yield "sigma_a-isotropic", GaussianState(zeros, _local(rng, tmsts(n_th, r).cm, squeeze_a=False))
    yield "uncorrelated", GaussianState(zeros, block_diag(random_state(rng, 1).cm, random_state(rng, 1).cm))
    a, z_a, b = rng.uniform(1.0, 4.0), rng.uniform(1.0, 3.0), rng.uniform(1.1, 4.0)
    lam0 = 0.5 * (a * (z_a + 1.0 / z_a) - math.sqrt(a * a * (z_a - 1.0 / z_a) ** 2 + 4.0))
    c = rng.uniform(0.0, 1.0) * math.sqrt(lam0 * (b - 1.0))
    for name, sign in (("c_plus=c_minus", 1.0), ("c_plus=-c_minus", -1.0)):
        cm = form_cm(a, z_a, b, c, sign * c, rng.uniform(-math.pi, math.pi))
        yield name, GaussianState(zeros, _local(rng, cm, squeeze_a=False))
