"""Optical parametric oscillator below threshold under general-dyne monitoring.

Single mode with squeezing Hamiltonian of strength chi and loss kappa into an
environment of thermal noise nu_in.  kappa is the unit of rate (time is
kappa t), so the model depends only on the pump ratio chi_tilde = 2 chi / kappa
and nu_in.  With H_S = -(chi_tilde/2) sigma_x and the coupling C = Omega the
drift and diffusion are

    A = diag(-(1 + chi_tilde)/2, -(1 - chi_tilde)/2),   D = nu_in I,

stable for chi_tilde < 1.  The unconditional steady state is
sigma = nu_in diag(1/(1 + chi_tilde), 1/(1 - chi_tilde)) with ergotropy
(nu_in/2) (1/(1 - chi_tilde^2) - 1/sqrt(1 - chi_tilde^2)).

At measurement phase 0 or pi/2, or for z_m = 1, the pointer is diagonal in the
quadrature basis, and so are the terms of the monitored filter
(dynamics.MonitoredModel): each conditional variance is then the stabilizing
root of its own scalar Riccati equation, read off the filter's diagonals
(dynamics._decoupled_roots), and the transient conditional CM is the closed
form of the two scalar Riccati flows (dynamics._decoupled_flow), with no
steady state, at any horizon and near threshold alike.  Other settings go to
the Riccati solver, and their transient flows walk the grid by interval maps.
Efficient homodyne always leaves det sigma_c = nu_in^2 while heterodyne
does strictly better for nu_in > 1; the steady-state daemonic ergotropy at
measurement phase 0 is maximized at the general-dyne parameter

    z_opt = (1 - chi_tilde) / (1 + chi_tilde),

independently of nu_in (for nu_in = 1 every efficient setting purifies
completely and the sweep is flat).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bipartite import _LOG_MAX_CM_ENTRY
from .dynamics import (
    DiffusiveModel,
    _conditional_steady_state,
    _daemonic_curve,
    _decoupled_roots,
    _uniform_steps,
    monitored,
    steady_state_conditional,
)
from .ergotropy import _cross_check, _single_mode_ergotropy
from .exceptions import NoSteadyStateError
from .measurement import GeneralDyneSetting, heterodyne, homodyne
from .symplectic import GaussianState, _omega

_Z_SWEEP_FLOOR = 1e-6


@dataclass(frozen=True)
class OpoParams:
    """OPO in units of kappa = 1: pump ratio chi_tilde = 2 chi / kappa, bath noise nu_in.

    Stability requires 0 <= chi_tilde < 1; nu_in = 2 n_th + 1 >= 1.  ``nu_0``
    scales the initial thermal covariance used by transient sweeps.
    """

    chi_tilde: float
    nu_in: float = 1.0
    nu_0: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.chi_tilde, self.nu_in, self.nu_0)):
            raise ValueError(
                f"OPO parameters must be finite, got chi_tilde = {self.chi_tilde}, "
                f"nu_in = {self.nu_in}, nu_0 = {self.nu_0}"
            )
        if self.chi_tilde < 0:
            raise ValueError(f"pump ratio must be non-negative, got chi_tilde = {self.chi_tilde}")
        if self.chi_tilde >= 1.0:
            raise NoSteadyStateError(f"unstable above threshold: chi_tilde = {self.chi_tilde:.6g} >= 1")
        if self.nu_in < 1.0:
            raise ValueError(f"bath noise must satisfy nu_in >= 1, got {self.nu_in}")
        if self.nu_0 < 1.0:
            raise ValueError(f"initial thermal scale must satisfy nu_0 >= 1, got {self.nu_0}")
        if max(math.log(self.nu_in) - math.log1p(-self.chi_tilde), math.log(self.nu_0)) > _LOG_MAX_CM_ENTRY:
            raise ValueError(
                f"nu_in = {self.nu_in:.6g}, nu_0 = {self.nu_0:.6g} is out of range: "
                "nu_in / (1 - chi_tilde) and nu_0 must stay below about 1.2e77"
            )

    @classmethod
    def from_tilde(cls, chi_tilde: float, nu_in: float = 1.0, nu_0: float = 1.0) -> "OpoParams":
        """Alias of the constructor, kept for callers written against it."""
        return cls(chi_tilde, nu_in, nu_0)


def opo_model(params: OpoParams) -> DiffusiveModel:
    """Diffusive model of the OPO (kappa = 1): A = diag(-(1 + chi~)/2, -(1 - chi~)/2), D = nu_in I."""
    h, nu = -0.5 * params.chi_tilde, params.nu_in
    return DiffusiveModel(h_s=[[0.0, h], [h, 0.0]], c=_omega(1), sigma_in=[[nu, 0.0], [0.0, nu]], mean_in=[0.0, 0.0])


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


def opo_conditional_ss(params: OpoParams, setting: GeneralDyneSetting) -> np.ndarray:
    """Steady-state conditional CM: per-quadrature roots where the pointer is diagonal (see module), else Riccati."""
    return _conditional_steady_state(monitored(opo_model(params), setting))


def _unconditional_energy(params: OpoParams) -> float:
    """tr sigma_unc / 4, the steady-state energy of the OPO with or without monitoring."""
    return 0.25 * float(np.trace(opo_unconditional_ss(params).cm))


def _daemonic(energy: float, sig_c: np.ndarray) -> float:
    return _single_mode_ergotropy(energy, float(np.linalg.det(sig_c)), "daemonic ergotropy")


def opo_steady_daemonic(params: OpoParams, setting: GeneralDyneSetting) -> float:
    """Steady-state daemonic ergotropy tr sigma_unc / 4 - (1/2) sqrt(det sigma_c^ss)."""
    return _daemonic(_unconditional_energy(params), opo_conditional_ss(params, setting))


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


def zsweep_table(params: OpoParams, z_grid=None) -> ZSweepData:
    """Ergotropy-vs-z_m sweep at theta = 0.

    Returns the raw table in ascending z plus the closed-form z_opt marker and
    the heterodyne reference value.  The conditional determinants behind those
    two are checked against the Riccati solver on the same filter.
    """
    if z_grid is None:
        z_grid = np.logspace(math.log10(_Z_SWEEP_FLOOR), 0.0, 120)
    z_grid = np.asarray(z_grid, dtype=float)
    if z_grid.ndim != 1 or z_grid.size < 1 or not np.all((z_grid > 0) & (z_grid <= 1)):
        raise ValueError("z grid must be one-dimensional with entries in (0, 1]")
    z_grid = np.sort(z_grid)
    model, energy = opo_model(params), _unconditional_energy(params)
    settings = [GeneralDyneSetting(nu_m=1.0, theta_m=0.0, z_m=float(z)) for z in z_grid]
    values = [_daemonic(energy, _conditional_steady_state(monitored(model, s))) for s in settings]
    z_opt = opo_zopt(params)
    references = []
    for setting in (GeneralDyneSetting(nu_m=1.0, theta_m=0.0, z_m=z_opt), heterodyne()):
        mm = monitored(model, setting)
        closed, riccati = np.diag(_decoupled_roots(mm)), steady_state_conditional(mm)
        dets = (float(np.linalg.det(x)) for x in (closed, riccati))
        _cross_check(*dets, f"OPO conditional determinant at {setting}")
        references.append(_daemonic(energy, closed))
    z_opt_value, het_value = references
    return ZSweepData(np.column_stack([z_grid, values]), z_opt=z_opt, z_opt_value=z_opt_value, het_value=het_value)


class TransientTable(NamedTuple):
    """Daemonic ergotropy transients for the three monitoring strategies."""

    times: np.ndarray
    hom0: np.ndarray
    hom90: np.ndarray
    het: np.ndarray


def transient_table(params: OpoParams, t_max: float = 10.0, dt: float = 1e-3) -> TransientTable:
    """Transient daemonic ergotropy from a thermal state nu_0 I for hom0/hom90/het.

    Uniform grid with spacing dt up to t_max (in units of 1/kappa); t_max
    must be an integer multiple of dt.  Every flow is exact, so dt sets only
    the resolution of the table.  The three curves run in one pass over
    blocks of the grid (dynamics._daemonic_curve).  The unconditional moments
    do not depend on the strategy: each block takes them once, in closed form
    per quadrature (the drift is diagonal), with no matrix exponential.  The
    three filters decouple, so each conditional flow takes the closed form of
    its per-quadrature scalar Riccati flows, near threshold too, and no
    steady state or Riccati solver is needed.  Each point is then the energy
    minus half of nu = sqrt(det sigma_c), both read off the closed forms'
    entries with no 2x2 CM stack.  Each curve is the same bits as that
    filter's own daemonic_ergotropy_path.
    """
    n_steps = _uniform_steps(t_max, dt, "t_max")
    grid = np.linspace(0.0, t_max, n_steps + 1)
    state0 = GaussianState(np.zeros(2), params.nu_0 * np.eye(2))
    model = opo_model(params)
    mms = [monitored(model, strategy_setting(name)) for name in ("hom0", "hom90", "het")]
    hom0, hom90, het = _daemonic_curve(mms, state0, grid)
    return TransientTable(times=grid, hom0=hom0, hom90=hom90, het=het)
