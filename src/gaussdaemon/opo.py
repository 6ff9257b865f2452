"""Optical parametric oscillator below threshold under general-dyne monitoring.

Single mode with squeezing Hamiltonian of strength chi and loss kappa into an
environment of thermal noise nu_in = 2 n_th + 1.  With the coupling choice
C = sqrt(kappa) Omega the drift and diffusion are

    A = diag(-kappa/2 - chi, -kappa/2 + chi),   D = kappa nu_in I,

stable for chi_tilde = 2 chi / kappa < 1.  The unconditional steady state is
sigma = nu_in diag(1/(1 + chi_tilde), 1/(1 - chi_tilde)) with ergotropy
(nu_in/2) (1/(1 - chi_tilde^2) - 1/sqrt(1 - chi_tilde^2)).

At measurement phase 0 or pi/2, or for z_m = 1, the pointer is diagonal in the
quadrature basis and each conditional variance solves the scalar Riccati equation
2 a_i s + kappa nu_in - (e_i - s b_i)^2 = 0 with a_i = -kappa/2 -+ chi, e_i = nu_in b_i
and b_i = -sqrt(kappa) (nu_in + p_i)^(-1/2), p_i being the pointer variance along
quadrature i (zero where a homodyne measures, infinite across it); other settings
go to the Riccati solver.  Efficient homodyne always leaves det sigma_c = nu_in^2
while heterodyne does strictly better for nu_in > 1; the steady-state daemonic
ergotropy at measurement phase 0 is maximized at the general-dyne parameter

    z_opt = (1 - chi_tilde) / (1 + chi_tilde),

independently of nu_in (for nu_in = 1 every efficient setting purifies
completely and the sweep is flat).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import (
    DiffusiveModel,
    _daemonic_curve,
    _uniform_steps,
    drift_diffusion,
    monitored,
    steady_state_conditional,
    unconditional_path,
)
from .ergotropy import _cross_check, _single_mode_ergotropy
from .exceptions import NoSteadyStateError
from .measurement import GeneralDyneSetting, heterodyne, homodyne
from .symplectic import GaussianState, _omega

_THETA_TOL = 1e-12
_Z_SWEEP_FLOOR = 1e-6


@dataclass(frozen=True)
class OpoParams:
    """OPO rates: squeezing chi, loss kappa, environment occupation n_th.

    ``nu_0`` scales the initial thermal covariance used by transient sweeps.
    Derived quantities: chi_tilde = 2 chi / kappa (stability requires
    chi_tilde < 1) and nu_in = 2 n_th + 1.
    """

    chi: float
    kappa: float = 1.0
    n_th: float = 0.0
    nu_0: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.chi, self.kappa, self.n_th, self.nu_0)):
            raise ValueError(
                f"OPO parameters must be finite, got chi = {self.chi}, kappa = {self.kappa}, "
                f"n_th = {self.n_th}, nu_0 = {self.nu_0}"
            )
        if self.kappa <= 0:
            raise ValueError(f"loss rate must be positive, got kappa = {self.kappa}")
        if self.chi < 0:
            raise ValueError(f"squeezing strength must be non-negative, got chi = {self.chi}")
        if self.chi_tilde >= 1.0:
            raise NoSteadyStateError(
                f"unstable above threshold: chi_tilde = {self.chi_tilde:.6g} >= 1 (requires 2 chi < kappa)"
            )
        if self.n_th < 0:
            raise ValueError(f"thermal occupation must be non-negative, got n_th = {self.n_th}")
        if self.nu_0 < 1.0:
            raise ValueError(f"initial thermal scale must satisfy nu_0 >= 1, got {self.nu_0}")

    @property
    def chi_tilde(self) -> float:
        return 2.0 * self.chi / self.kappa

    @property
    def nu_in(self) -> float:
        return 2.0 * self.n_th + 1.0

    @classmethod
    def from_tilde(cls, chi_tilde: float, nu_in: float = 1.0, kappa: float = 1.0, nu_0: float = 1.0) -> "OpoParams":
        """Build from the dimensionless chi_tilde and nu_in used throughout."""
        return cls(chi=0.5 * chi_tilde * kappa, kappa=kappa, n_th=0.5 * (nu_in - 1.0), nu_0=nu_0)


def opo_model(params: OpoParams) -> DiffusiveModel:
    """Diffusive model of the OPO; reproduces A = diag(-k/2 - chi, -k/2 + chi), D = k nu_in I."""
    h_s = -params.chi * np.array([[0.0, 1.0], [1.0, 0.0]])
    c = math.sqrt(params.kappa) * _omega(1)
    return DiffusiveModel(h_s=h_s, c=c, sigma_in=params.nu_in * np.eye(2), mean_in=np.zeros(2))


def strategy_setting(name: str, z_m: float | None = None, theta_m: float = 0.0) -> GeneralDyneSetting:
    """Named monitoring strategies: hom0, hom90, het, gendyne (needs z_m; z_m = 0 is homodyne)."""
    if name == "hom0":
        return homodyne(0.0)
    if name == "hom90":
        return homodyne(0.5 * math.pi)
    if name == "het":
        return heterodyne()
    if name == "gendyne":
        if z_m is None:
            raise ValueError("strategy 'gendyne' requires z_m")
        if z_m == 0.0:
            return homodyne(theta_m)
        return GeneralDyneSetting(nu_m=1.0, theta_m=theta_m, z_m=z_m)
    raise ValueError(f"unknown strategy {name!r}; expected hom0, hom90, het or gendyne")


def opo_unconditional_ss(params: OpoParams) -> GaussianState:
    """Unconditional steady state nu_in diag(1/(1 + chi~), 1/(1 - chi~)), zero mean."""
    ct = params.chi_tilde
    cm = params.nu_in * np.diag([1.0 / (1.0 + ct), 1.0 / (1.0 - ct)])
    return GaussianState(np.zeros(2), cm)


def opo_unconditional_ergotropy(params: OpoParams) -> float:
    """Steady-state ergotropy without monitoring: (nu_in/2)(1/(1 - chi~^2) - 1/sqrt(1 - chi~^2))."""
    ct2 = params.chi_tilde**2
    return 0.5 * params.nu_in * (1.0 / (1.0 - ct2) - 1.0 / math.sqrt(1.0 - ct2))


def _riccati_ss(params: OpoParams, setting: GeneralDyneSetting) -> np.ndarray:
    return steady_state_conditional(monitored(opo_model(params), setting))


def opo_conditional_ss(params: OpoParams, setting: GeneralDyneSetting) -> np.ndarray:
    """Steady-state conditional CM: per-quadrature roots where the pointer is diagonal (see module), else Riccati."""
    k = round(setting.theta_m / (0.5 * math.pi))
    if setting.z_m != 1.0 and abs(setting.theta_m - 0.5 * math.pi * k) >= _THETA_TOL:
        return _riccati_ss(params, setting)
    # Pointer variance y / x along the measured quadrature and across it (x = 0: unobserved).
    measured, across = (1.0, setting.nu_m * setting.z_m), (setting.z_m, setting.nu_m)
    nu, kappa = params.nu_in, params.kappa
    roots = []
    for chi, (x, y) in zip((-params.chi, params.chi), (measured, across) if k % 2 == 0 else (across, measured)):
        # b^2 s^2 - 2 at s - dt = 0 with at = a + e b, dt = kappa nu_in - e^2 >= 0; the stable root, cancellation-free.
        b2 = kappa * x / (nu * x + y)
        at = chi - 0.5 * kappa + nu * b2
        dt = kappa * nu * y / (nu * x + y)
        r = math.sqrt(at * at + b2 * dt)
        roots.append((at + r) / b2 if at > 0.0 else dt / (r - at))
    return np.diag(roots)


def opo_steady_daemonic(params: OpoParams, setting: GeneralDyneSetting) -> float:
    """Steady-state daemonic ergotropy tr sigma_unc / 4 - (1/2) sqrt(det sigma_c^ss)."""
    sig_c = opo_conditional_ss(params, setting)
    e = 0.25 * float(np.trace(opo_unconditional_ss(params).cm))
    return _single_mode_ergotropy(e, float(np.linalg.det(sig_c)), "daemonic ergotropy")


def opo_zopt(params: OpoParams) -> float:
    """Optimal general-dyne parameter (1 - chi~)/(1 + chi~) at measurement phase 0."""
    ct = params.chi_tilde
    return (1.0 - ct) / (1.0 + ct)


class ZSweepData(NamedTuple):
    """Steady-state daemonic ergotropy sweep over the general-dyne parameter."""

    table: np.ndarray  # columns (z_m, ergotropy)
    z_opt: float
    z_opt_value: float
    het_value: float


def zsweep_table(params: OpoParams | None = None, z_grid=None) -> ZSweepData:
    """Ergotropy-vs-z_m sweep at theta = 0 (defaults: chi_tilde = 0.99, nu_in = 3).

    Returns the raw table in ascending z plus the closed-form z_opt marker and
    the heterodyne reference value, whose conditional determinants are checked against the Riccati solver.
    """
    if params is None:
        params = OpoParams.from_tilde(0.99, nu_in=3.0)
    if z_grid is None:
        z_grid = np.logspace(math.log10(_Z_SWEEP_FLOOR), 0.0, 120)
    z_grid = np.asarray(z_grid, dtype=float)
    if z_grid.ndim != 1 or z_grid.size < 1 or np.any(z_grid <= 0) or np.any(z_grid > 1):
        raise ValueError("z grid must be one-dimensional with entries in (0, 1]")
    z_grid = np.sort(z_grid)
    values = [opo_steady_daemonic(params, GeneralDyneSetting(nu_m=1.0, theta_m=0.0, z_m=float(z))) for z in z_grid]
    z_opt = opo_zopt(params)
    references = (GeneralDyneSetting(nu_m=1.0, theta_m=0.0, z_m=z_opt), heterodyne())
    z_opt_value, het_value = (opo_steady_daemonic(params, setting) for setting in references)
    for setting in references:
        closed, riccati = (float(np.linalg.det(solve(params, setting))) for solve in (opo_conditional_ss, _riccati_ss))
        _cross_check(closed, riccati, f"OPO conditional determinant at {setting}")
    return ZSweepData(np.column_stack([z_grid, values]), z_opt=z_opt, z_opt_value=z_opt_value, het_value=het_value)


class TransientTable(NamedTuple):
    """Daemonic ergotropy transients for the three monitoring strategies."""

    times: np.ndarray
    hom0: np.ndarray
    hom90: np.ndarray
    het: np.ndarray


def transient_table(params: OpoParams, t_max: float = 10.0, dt: float = 1e-3) -> TransientTable:
    """Transient daemonic ergotropy from a thermal state nu_0 I for hom0/hom90/het.

    Uniform grid with spacing dt up to t_max (in units of 1/kappa when
    kappa = 1); t_max must be an integer multiple of dt.  Every flow is
    exact, so dt sets only the resolution of the table.  The unconditional
    moments do not depend on the strategy and are propagated once for all
    three curves; each conditional flow is expanded about its steady state
    from opo_conditional_ss, so no Riccati solver runs.
    """
    n_steps = _uniform_steps(t_max, dt, "t_max")
    grid = np.linspace(0.0, t_max, n_steps + 1)
    state0 = GaussianState(np.zeros(2), params.nu_0 * np.eye(2))
    model = opo_model(params)
    means, cms = unconditional_path(drift_diffusion(model), state0, grid)
    curves = {}
    for name in ("hom0", "hom90", "het"):
        setting = strategy_setting(name)
        sigma_inf = opo_conditional_ss(params, setting)
        curves[name] = _daemonic_curve(monitored(model, setting), means, cms, state0.cm, grid, sigma_inf)
    return TransientTable(times=grid, **curves)
