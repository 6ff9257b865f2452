"""Closed-form transient of a scalar Riccati equation, one OPO quadrature at a time.

An independent check of the matrix propagator behind ``evolve_conditional_cm``:
at measurement phase 0 or pi/2 the OPO's conditional covariance stays diagonal
and each quadrature variance follows

    s' = 2 a s + d - (e - s b)^2,

whose deviation delta = s - s_inf from the stable stationary point s_inf obeys
the Bernoulli equation delta' = 2 f delta - b^2 delta^2 with
f = a + e b - s_inf b^2 < 0.  It is solved exactly here, so it shares no code
with the Hamiltonian-exponential propagator of the library.
"""

import math

import numpy as np


def opo_quadrature_gains(chi_tilde: float, nu_in: float, strategy: str, kappa: float = 1.0):
    """Per-quadrature (a, b, e, d) of the monitored OPO for hom0, hom90 or het.

    a = -kappa/2 -+ chi, b = -sqrt(kappa) g, e = nu_in b and d = kappa nu_in with
    g = (nu_in + p)^(-1/2) for pointer variance p: homodyne measures one
    quadrature sharply (p = 0) and leaves the other unobserved (g = 0);
    heterodyne has p = 1 on both.
    """
    chi = 0.5 * chi_tilde * kappa
    g = {
        "hom0": (1.0 / math.sqrt(nu_in), 0.0),
        "hom90": (0.0, 1.0 / math.sqrt(nu_in)),
        "het": (1.0 / math.sqrt(nu_in + 1.0),) * 2,
    }[strategy]
    a = (-0.5 * kappa - chi, -0.5 * kappa + chi)
    return [(a_i, -math.sqrt(kappa) * g_i, -math.sqrt(kappa) * nu_in * g_i, kappa * nu_in) for a_i, g_i in zip(a, g)]


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
