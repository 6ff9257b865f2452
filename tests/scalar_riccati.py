"""Closed-form transient of a scalar Riccati equation, one OPO quadrature at a time.

An independent check of the matrix propagator behind ``evolve_conditional_cm``
and of the monitored filter's data: at measurement phase 0 or pi/2, or with
z_m = 1, the OPO's conditional covariance stays diagonal and each quadrature
variance follows

    s' = 2 a s + d - (e - s b)^2,

whose deviation delta = s - s_inf from the stable stationary point s_inf obeys
the Bernoulli equation delta' = 2 f delta - b^2 delta^2 with
f = a + e b - s_inf b^2 < 0.  It is solved exactly here, so it shares no code
with the Hamiltonian-exponential propagator of the library.
"""

import math

import numpy as np


_STRATEGIES = {"hom0": (0.0, 0.0, 1.0), "hom90": (0.5 * math.pi, 0.0, 1.0), "het": (0.0, 1.0, 1.0)}


def _pointer(setting):
    """Pointer variance y / x along each quadrature, as (x, y) pairs (x = 0: that quadrature is unobserved).

    ``setting`` is hom0, hom90, het or a general-dyne setting (fields theta_m,
    z_m, nu_m; homodyne has z_m = 0) at phase 0, phase pi/2 or with z_m = 1.
    Along the measured quadrature the pointer variance is nu_m z_m, across it nu_m / z_m.
    """
    theta, z, nu_m = _STRATEGIES[setting] if isinstance(setting, str) else (setting.theta_m, setting.z_m, setting.nu_m)
    measured, across = (1.0, nu_m * z), (z, nu_m)
    k = round(theta / (0.5 * math.pi))
    if z != 1.0 and abs(theta - 0.5 * math.pi * k) > 1e-12:
        raise ValueError(f"the pointer is not diagonal in the quadrature basis at phase {theta}")
    return (measured, across) if k % 2 == 0 else (across, measured)


def opo_quadrature_gains(chi_tilde: float, nu_in: float, setting):
    """Per-quadrature (a, b, e, d) of the monitored OPO for hom0, hom90, het or a diagonal setting (see _pointer).

    In units of kappa = 1: a = -1/2 -+ chi_tilde/2, b = -g, e = nu_in b and d = nu_in with
    g = (nu_in + p)^(-1/2) for pointer variance p: homodyne measures one
    quadrature sharply (p = 0) and leaves the other unobserved (g = 0);
    heterodyne has p = 1 on both.
    """
    chi = 0.5 * chi_tilde
    a = (-0.5 - chi, -0.5 + chi)
    g = [math.sqrt(x / (nu_in * x + y)) for x, y in _pointer(setting)]
    return [(a_i, -g_i, -nu_in * g_i, nu_in) for a_i, g_i in zip(a, g)]


def opo_filter_diagonals(chi_tilde: float, nu_in: float, setting):
    """Per-quadrature (At, Dt, B B^T) of the monitored OPO, i.e. (a + e b, d - e^2, b^2), without cancellation.

    In units of kappa = 1, with pointer variance y / x: b^2 = x / (nu_in x + y), At = a + nu_in b^2
    and Dt = nu_in y / (nu_in x + y), which is exactly 0 along a
    quadrature an efficient homodyne measures.
    """
    chi = 0.5 * chi_tilde
    out = []
    for chi_i, (x, y) in zip((-chi, chi), _pointer(setting)):
        b2 = x / (nu_in * x + y)
        out.append((chi_i - 0.5 + nu_in * b2, nu_in * y / (nu_in * x + y), b2))
    return out


def scalar_riccati_transient(a: float, b: float, e: float, d: float, s0: float, s_inf: float, t) -> np.ndarray:
    """s(t) for s' = 2 a s + d - (e - s b)^2 from s(0) = s0, given the stable stationary value s_inf.

    delta(t) = delta0 e^{2 f t} / (1 + delta0 b^2 (1 - e^{2 f t}) / (-2 f)),
    with f = a + e b - s_inf b^2 and delta0 = s0 - s_inf.
    """
    f = a + e * b - s_inf * b * b
    if not f < 0.0:
        raise ValueError(f"s_inf = {s_inf} is not the stable stationary point (f = {f})")
    growth = np.exp(2.0 * f * np.asarray(t, dtype=float))
    delta0 = s0 - s_inf
    return s_inf + delta0 * growth / (1.0 + delta0 * b * b * (1.0 - growth) / (-2.0 * f))
