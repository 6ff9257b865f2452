"""Benchmark workloads: seeded inputs, timed operations and their checks.

Each workload builds its inputs from a seed with its own numpy code (so the
inputs do not move when ``gaussdaemon.randomized`` changes) and returns a
cycle of operations.  An operation is one closed-loop call sequence into the
public ``gaussdaemon`` API; its check runs outside the timed region and
compares the result with a reference that does not depend on the solution
method (closed forms, analytic identities, exact propagators computed here).

Only names in ``gaussdaemon.__all__`` are called, ``n_threads`` is never
passed, and only ``GaussDaemonError`` is treated as an operation failure, so
later changes to the library's internals need no edit here.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import scipy.linalg

import gaussdaemon as gd


class CheckFailed(Exception):
    """An operation returned a result that contradicts its reference."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    """One timed operation: ``run()`` is timed, ``check(result)`` is not.

    ``items`` is the work the operation completes (states, grid points,
    steady solves, curve points or trajectory steps); ``tag`` labels the
    regime for the traced run.
    """

    run: Callable[[], Any]
    check: Callable[[Any], None]
    items: int
    tag: str = ""


def _interleave(groups: list[list[Op]]) -> list[Op]:
    """Round-robin merge, so every group shows up early in the cycle."""
    out: list[Op] = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


# -- seeded inputs ---------------------------------------------------------------


def _passive(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random passive symplectic: a Haar unitary in quadrature form."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    out = np.empty((2 * n, 2 * n))
    out[0::2, 0::2] = q.real
    out[0::2, 1::2] = -q.imag
    out[1::2, 0::2] = q.imag
    out[1::2, 1::2] = q.real
    return out


def two_mode_state(rng: np.random.Generator) -> gd.GaussianState:
    """Random two-mode state S (nu_1 I + nu_2 I) S^T with a Gaussian mean."""
    z = np.exp(rng.uniform(-math.log(2.0), math.log(2.0), size=2))
    squeeze = np.diag([z[0], 1.0 / z[0], z[1], 1.0 / z[1]])
    s = _passive(rng, 2) @ squeeze @ _passive(rng, 2)
    cm = s @ np.kron(np.diag(rng.uniform(1.0, 3.0, size=2)), np.eye(2)) @ s.T
    return gd.validate_state(rng.standard_normal(4), 0.5 * (cm + cm.T))


def _reduced_ergotropy(mean_a: np.ndarray, sigma_a: np.ndarray) -> float:
    """Single-mode ergotropy |mean|^2/2 + tr/4 - sqrt(det)/2, written out here."""
    return 0.5 * float(mean_a @ mean_a) + 0.25 * float(np.trace(sigma_a)) - 0.5 * math.sqrt(
        float(np.linalg.det(sigma_a))
    )


def stable_model(rng: np.random.Generator, n: int) -> gd.DiffusiveModel:
    """Random n-mode model with unit loss per mode and a bounded stability margin.

    The coupling C = Omega P (P a random passive symplectic) gives the
    damping -I/2; a random quadratic Hamiltonian is accepted when the drift's
    spectral abscissa lies in [-0.35, -0.2], which keeps the stiffness, and so
    the cost of one steady solve, within a narrow band across seeds.
    """
    omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    c = omega @ _passive(rng, n)
    sigma_in = np.kron(np.diag(rng.uniform(1.0, 3.0, size=n)), np.eye(2))
    while True:
        h = 0.35 * rng.standard_normal((2 * n, 2 * n))
        h = 0.5 * (h + h.T)
        abscissa = float(np.linalg.eigvals(omega @ h).real.max()) - 0.5
        if -0.35 <= abscissa <= -0.2:
            return gd.DiffusiveModel(h_s=h, c=c, sigma_in=sigma_in, mean_in=np.zeros(2 * n))


def dyne_setting(rng: np.random.Generator) -> gd.GeneralDyneSetting:
    """Efficient general-dyne setting at a generic phase; homodyne one time in four."""
    theta = float(rng.uniform(0.0, math.pi))
    if rng.uniform() < 0.25:
        return gd.homodyne(theta)
    return gd.GeneralDyneSetting(nu_m=1.0, theta_m=theta, z_m=float(math.exp(rng.uniform(math.log(0.02), 0.0))))


def generic_phase(rng: np.random.Generator) -> float:
    """Phase at least 0.1 away from 0 and pi/2, where the OPO has no closed form."""
    return float(rng.uniform(0.1, 0.5 * math.pi - 0.1) + 0.5 * math.pi * rng.integers(2))


# -- bipartite -------------------------------------------------------------------

N_STATES = 256
_EFFICIENT_Z = (1e-3, 1e-2, 0.1, 0.4, 1.0)
_NOISY = ((1.5, 0.1), (1.5, 1.0), (4.0, 0.1), (4.0, 1.0))  # (nu_m, z_m)


def _states(seed: int) -> list[gd.GaussianState]:
    rng = np.random.default_rng([seed, 1])
    return [two_mode_state(rng) for _ in range(N_STATES)]


def bipartite_optimum(seed: int) -> list[Op]:
    """Per state, the ``daemonic`` CLI task: standard form and the three maxima."""
    refs: dict[int, tuple[float, float]] = {}
    thetas = np.linspace(0.0, math.pi, 8, endpoint=False)
    grid = [gd.homodyne(float(t)) for t in thetas] + [
        gd.GeneralDyneSetting(nu_m=1.0, theta_m=float(t), z_m=float(z))
        for t in thetas
        for z in np.logspace(-3, 0, 4)
    ]

    def op(k: int, state: gd.GaussianState) -> Op:
        def run():
            sf, s_a, _ = gd.standard_form(state)
            mean_a = s_a @ state.mean[:2]
            return (
                gd.unconditional_ergotropy_a(state),
                gd.optimal_phase(sf, 0.0),
                gd.max_daemonic(sf, mean_a),
                gd.max_daemonic_homodyne(sf, mean_a),
                gd.daemonic_heterodyne(sf, mean_a),
            )

        def check(result):
            unc, _, best, hom, het = result
            if k not in refs:
                # The efficient (and homodyne) settings are closed under local
                # symplectics on B, so a pipeline grid in the original basis
                # bounds the standard-form maxima from below.
                vals = [gd.daemonic_ergotropy(state, s).value for s in grid]
                refs[k] = (max(vals[: len(thetas)]), max(vals))
            hom_grid, all_grid = refs[k]
            mean_a, sigma_a = state.mean[:2], state.cm[:2, :2]
            _require(abs(unc - _reduced_ergotropy(mean_a, sigma_a)) <= 1e-9, f"state {k}: unconditional ergotropy")
            _require(best.value >= all_grid - 1e-9, f"state {k}: max_daemonic below a grid point")
            _require(hom.value >= hom_grid - 1e-9, f"state {k}: homodyne maximum below a grid point")
            _require(best.value >= max(hom.value, het.value) - 1e-12, f"state {k}: optimum below an endpoint")
            _require(hom.value >= unc - 1e-12, f"state {k}: daemonic below unconditional")
            ceiling = 0.5 * float(mean_a @ mean_a) + 0.25 * float(np.trace(sigma_a)) - 0.5
            _require(best.value <= ceiling + 1e-12, f"state {k}: optimum above the pure-state ceiling")

        return Op(run, check, items=1)

    return [op(k, st) for k, st in enumerate(_states(seed))]


def landscape_settings() -> tuple[list[gd.GeneralDyneSetting], int]:
    """Fixed (theta, z, nu_m) grid; the first ``n_eff`` settings are efficient."""
    thetas = np.linspace(0.0, math.pi, 6, endpoint=False) + 0.05
    eff = [gd.homodyne(float(t)) for t in thetas]
    eff += [gd.GeneralDyneSetting(nu_m=1.0, theta_m=float(t), z_m=z) for t in thetas for z in _EFFICIENT_Z]
    noisy = [gd.GeneralDyneSetting(nu_m=nu, theta_m=float(t), z_m=z) for t in thetas for nu, z in _NOISY]
    return eff + noisy, len(eff)


def bipartite_landscape(seed: int) -> list[Op]:
    """Per standard-form state, the conditioning pipeline over the fixed grid."""
    settings, n_eff = landscape_settings()
    refs: dict[int, tuple[np.ndarray, float, float]] = {}

    def op(k: int, state: gd.GaussianState) -> Op:
        sf, s_a, _ = gd.standard_form(state)
        mean_a = s_a @ state.mean[:2]
        std = sf.to_state(mean_a)

        def run():
            unc = gd.unconditional_ergotropy_a(std)
            return unc, np.array([gd.daemonic_ergotropy(std, s).value for s in settings])

        def check(result):
            unc, vals = result
            if k not in refs:
                base = 0.25 * sf.a * (sf.z_a + 1.0 / sf.z_a) + 0.5 * float(mean_a @ mean_a)
                closed = np.array(
                    [
                        base - 0.5 * math.sqrt(max(gd.conditional_determinant(sf, s.theta_m, s.z_m), 0.0))
                        for s in settings[:n_eff]
                    ]
                )
                refs[k] = (closed, gd.max_daemonic(sf, mean_a).value, _reduced_ergotropy(std.mean[:2], std.cm[:2, :2]))
            closed, best, unc_ref = refs[k]
            _require(abs(unc - unc_ref) <= 1e-9, f"state {k}: unconditional ergotropy")
            gap = float(np.abs(vals[:n_eff] - closed).max())
            _require(gap <= 1e-6, f"state {k}: pipeline and closed form differ by {gap:.3e}")
            _require(float(vals[:n_eff].max()) <= best + 1e-9, f"state {k}: grid point above max_daemonic")
            _require(float(vals[n_eff:].min()) >= unc - 1e-12, f"state {k}: noisy point below unconditional")

        return Op(run, check, items=len(settings))

    return [op(k, st) for k, st in enumerate(_states(seed))]


# -- opo-steady ------------------------------------------------------------------

CHI_TILDES = (0.3, 0.6, 0.9, 0.99)
N_MULTIMODE = 10


def _check_steady(mm: gd.MonitoredModel, sigma: np.ndarray, label: str) -> None:
    res = gd.riccati_residual(mm, sigma)
    _require(res <= 1e-9, f"{label}: Riccati residual {res:.3e}")
    gd.validate_state(np.zeros(sigma.shape[0]), sigma)


def opo_steady(seed: int) -> list[Op]:
    """Conditional steady states: OPO at generic phases, a warm sweep, random models."""
    rng = np.random.default_rng([seed, 2])
    groups: dict[str, list[Op]] = {"generic": [], "near_homodyne": [], "homodyne": [], "near_threshold": []}

    def opo_op(ct: float, nu: float, kind: str) -> Op:
        p = gd.OpoParams.from_tilde(ct, nu_in=nu)
        theta = generic_phase(rng)
        if kind == "homodyne":
            setting = gd.homodyne(theta)
        else:
            z = 1e-5 if kind == "near_homodyne" else float(math.exp(rng.uniform(math.log(0.02), math.log(0.9))))
            setting = gd.GeneralDyneSetting(nu_m=1.0, theta_m=theta, z_m=z)
        mm = gd.monitored(gd.opo_model(p), setting)
        label = f"OPO chi~={ct} nu_in={nu} {kind}"

        def check(sigma):
            _check_steady(mm, sigma, label)
            det = float(np.linalg.det(sigma))
            if nu == 1.0:
                _require(abs(det - 1.0) <= 1e-7, f"{label}: det {det!r} != 1")
            if kind == "homodyne":
                _require(abs(det - nu * nu) <= 1e-7, f"{label}: det {det!r} != nu_in^2")

        tag = "near_threshold" if ct >= 0.99 else kind
        return Op(lambda: gd.opo_conditional_ss(p, setting), check, items=1, tag=tag)

    for ct in CHI_TILDES:
        for nu in (1.0, 3.0):
            for kind in ("generic", "near_homodyne", "homodyne"):
                op = opo_op(ct, nu, kind)
                groups[op.tag].append(op)

    p99 = gd.OpoParams.from_tilde(0.99, nu_in=3.0)
    z_grid = np.logspace(-4.0, 0.0, 6)

    def check_sweep(data):
        _require(np.array_equal(data.table[:, 0], z_grid), "zsweep: z column differs from the grid")
        _require(data.z_opt == (1.0 - 0.99) / (1.0 + 0.99), "zsweep: z_opt differs from (1 - chi~)/(1 + chi~)")
        top = float(data.table[:, 1].max())
        _require(top <= data.z_opt_value + 1e-7, f"zsweep: grid value {top!r} above E(z_opt) {data.z_opt_value!r}")
        _require(data.het_value <= data.z_opt_value + 1e-7, "zsweep: heterodyne above E(z_opt)")

    # The sweep solves at every grid z and once more at z_opt.
    groups["near_threshold"].append(
        Op(lambda: gd.zsweep_table(p99, z_grid), check_sweep, items=z_grid.size + 1, tag="near_threshold")
    )

    def multimode_op(i: int) -> Op:
        model = stable_model(rng, 2 + i % 2)
        settings = [dyne_setting(rng) for _ in range(model.m)]
        dd = gd.drift_diffusion(model)
        sigma_unc = scipy.linalg.solve_continuous_lyapunov(dd.a, -dd.d)

        def run():
            mm = gd.monitored(model, settings)
            return mm, gd.steady_state_conditional(mm)

        def check(result):
            mm, sigma = result
            label = f"{model.n}-mode model {i}"
            _check_steady(mm, sigma, label)
            gap = float(np.linalg.eigvalsh(sigma_unc - sigma).min())
            _require(gap >= -1e-9, f"{label}: sigma_unc - sigma_c has eigenvalue {gap:.3e}")

        return Op(run, check, items=1, tag="multimode")

    groups["multimode"] = [multimode_op(i) for i in range(N_MULTIMODE)]
    return _interleave(list(groups.values()))


# -- opo-dynamics ----------------------------------------------------------------

CHI_T_FIG = 0.8
NU_0_FIG = 5.0
# (horizon, grid step): a short fine table carries 7a and the 7b crossing, a
# full-horizon coarse table the equilibrated endpoints.  Every operation stays
# well under a second, so a run repeats it and the median of its repeats is steady.
TRANSIENT_GRIDS = ((1.5, 1e-2), (10.0, 5e-2))


def opo_transient(seed: int) -> list[Op]:
    """Criterion-7 transients (chi~ = 0.8, nu_0 = 5) at nu_in = 1 and 3.

    The inputs do not depend on the seed.
    """
    del seed

    def op(nu: float, t_max: float, dt: float) -> Op:
        p = gd.OpoParams.from_tilde(CHI_T_FIG, nu_in=nu, nu_0=NU_0_FIG)
        steady = (gd.opo_steady_daemonic(p, gd.homodyne(0.5 * math.pi)), gd.opo_steady_daemonic(p, gd.heterodyne()))
        n_points = int(round(t_max / dt)) + 1
        label = f"nu_in={nu} T={t_max}"

        def check(tb):
            curves = np.stack([tb.hom0, tb.hom90, tb.het])
            _require(curves.shape == (3, n_points) and np.isfinite(curves).all(), f"{label}: bad table")
            _require(float(curves.min()) >= 0.0, f"{label}: negative ergotropy")
            _require(float((tb.het - tb.hom0).min()) >= -1e-12, f"{label}: hom0 above heterodyne")
            if nu != 1.0:
                return
            _require(float((tb.hom90 - tb.hom0).min()) >= -1e-12, f"7a ({label}): hom0 above hom90")
            if t_max < 10.0:
                d = tb.het - tb.hom90
                flips = np.where(np.diff(np.sign(d[1:])))[0] + 1
                t_cross = float(tb.times[flips[0]]) if flips.size else math.nan
                _require(abs(t_cross - 0.96) <= 0.05, f"7b ({label}): crossing at {t_cross}")
            else:
                gap = max(abs(float(tb.hom90[-1]) - steady[0]), abs(float(tb.het[-1]) - steady[1]))
                _require(gap <= 1e-4, f"7 diagnostic ({label}): endpoint gap {gap:.3e}")

        return Op(lambda: gd.transient_table(p, t_max=t_max, dt=dt), check, items=3 * n_points)

    return [op(nu, t_max, dt) for t_max, dt in TRANSIENT_GRIDS for nu in (1.0, 3.0)]


# Criterion-8 model: OPO at chi~ = 0.6, nu_in = 3, heterodyne monitoring.
_TRAJ_CHI_T = 0.6
_TRAJ_NU_IN = 3.0
TRAJ_SHAPES = {  # tag: (n_traj, T, store_stride)
    "wide": (2048, 0.3, 30),
    "long": (128, 2.0, 20),
}
TRAJ_DT = 1e-3
# Five standard errors: with five statistics per ensemble, 3 SE would fail about
# 1.3 % of correct random ensembles; 5 SE fails about one in 10^5.
MOMENT_SE = 5.0


def _exact_moments(state0: gd.GaussianState, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Unconditional moments of the OPO at time t by the exact propagator."""
    chi = 0.5 * _TRAJ_CHI_T
    a = np.diag([-0.5 - chi, -0.5 + chi])
    d = _TRAJ_NU_IN * np.eye(2)
    prop = scipy.linalg.expm(a * t)
    sigma_inf = scipy.linalg.solve_continuous_lyapunov(a, -d)
    return prop @ state0.mean, prop @ (state0.cm - sigma_inf) @ prop.T + sigma_inf


def _digest(batch) -> str:
    h = hashlib.sha256()
    for arr in (batch.times, batch.means, batch.records, batch.sigma_c):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def opo_trajectories(seed: int, tag: str, out_dir: str) -> list[Op]:
    """Heterodyne ensembles of the criterion-8 model, summarised to CSV.

    Two master seeds alternate, so every ensemble is repeated and its digest
    must match the first run of the same seed.
    """
    n_traj, t_end, stride = TRAJ_SHAPES[tag]
    rng = np.random.default_rng([seed, 3])
    mm = gd.monitored(gd.opo_model(gd.OpoParams.from_tilde(_TRAJ_CHI_T, nu_in=_TRAJ_NU_IN)), gd.heterodyne())
    state0 = gd.GaussianState(rng.standard_normal(2), NU_0_FIG * np.eye(2))
    exact_mean, exact_cm = _exact_moments(state0, t_end)
    n_steps = int(round(t_end / TRAJ_DT))
    columns = ["kappa_t", "mean_0", "mean_1", "sc_0_0", "sc_0_1", "sc_1_1", "ex_0_0", "ex_0_1", "ex_1_1"]
    digests: dict[int, str] = {}

    def op(master_seed: int) -> Op:
        path = os.path.join(out_dir, f"traj-{tag}-{master_seed}.csv")

        def run():
            batch = gd.simulate_trajectories(
                mm, state0, dt=TRAJ_DT, T=t_end, n_traj=n_traj, master_seed=master_seed, store_stride=stride
            )
            ensemble = batch.means.mean(axis=0)
            rows = []
            for t in range(batch.times.size):
                sc, ex = batch.sigma_c[t], gd.excess_noise(batch, t)
                rows.append([batch.times[t], *ensemble[t], sc[0, 0], sc[0, 1], sc[1, 1], ex[0, 0], ex[0, 1], ex[1, 1]])
            gd.write_csv(path, columns, rows, comments=[f"{tag} ensemble, master seed {master_seed}"])
            return batch, rows

        def check(result):
            batch, rows = result
            digest = _digest(batch)
            if master_seed in digests:
                _require(digest == digests[master_seed], f"{tag} seed {master_seed}: ensemble changed on repeat")
            else:
                # Standard errors from the exact excess noise Sigma = sigma_unc - sigma_c:
                # the means scatter with covariance Sigma / 2, and the sample excess
                # noise entry (i, j) has variance (S_ii S_jj + S_ij^2) / (n - 1).
                n = batch.n_traj
                sigma = exact_cm - batch.sigma_c[-1]
                se_m = np.sqrt(0.5 * np.diag(sigma) / n)
                mean_dev = float((np.abs(batch.means[:, -1, :].mean(axis=0) - exact_mean) / se_m).max())
                ex = np.array([[rows[-1][6], rows[-1][7]], [rows[-1][7], rows[-1][8]]])
                se_cov = np.sqrt((np.outer(np.diag(sigma), np.diag(sigma)) + sigma**2) / (n - 1))
                cm_dev = float((np.abs(ex - sigma) / se_cov).max())
                _require(
                    mean_dev <= MOMENT_SE and cm_dev <= MOMENT_SE,
                    f"{tag} seed {master_seed}: moments off by {mean_dev:.2f} / {cm_dev:.2f} SE",
                )
                digests[master_seed] = digest
            with open(path, encoding="utf-8") as fh:
                n_lines = sum(1 for _ in fh)
            _require(n_lines == len(rows) + 2, f"{tag} seed {master_seed}: CSV has {n_lines} lines")

        return Op(run, check, items=n_traj * n_steps, tag=tag)

    seeds = [int(s) for s in rng.integers(0, 2**31, size=2)]
    return [op(s) for s in seeds]


# -- registry --------------------------------------------------------------------

WORKLOADS = (
    "bipartite-optimum",
    "bipartite-landscape",
    "opo-steady",
    "opo-dynamics-transient",
    "opo-dynamics-wide",
    "opo-dynamics-long",
)


def build(name: str, seed: int, out_dir: str) -> list[Op]:
    """The operation cycle of a workload."""
    if name == "bipartite-optimum":
        return bipartite_optimum(seed)
    if name == "bipartite-landscape":
        return bipartite_landscape(seed)
    if name == "opo-steady":
        return opo_steady(seed)
    if name == "opo-dynamics-transient":
        return opo_transient(seed)
    if name == "opo-dynamics-wide":
        return opo_trajectories(seed, "wide", out_dir)
    if name == "opo-dynamics-long":
        return opo_trajectories(seed, "long", out_dir)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")


def warmup(name: str, out_dir: str) -> None:
    """One small operation on the workload's code path, run once during set-up."""
    if name.startswith("bipartite"):
        state = two_mode_state(np.random.default_rng(0))
        sf, _, _ = gd.standard_form(state)
        gd.max_daemonic(sf)
        gd.daemonic_ergotropy(state, gd.heterodyne())
    elif name == "opo-steady":
        gd.opo_conditional_ss(gd.OpoParams.from_tilde(0.6, nu_in=3.0), gd.GeneralDyneSetting(theta_m=0.7, z_m=0.3))
    elif name == "opo-dynamics-transient":
        gd.transient_table(gd.OpoParams.from_tilde(CHI_T_FIG, nu_in=1.0, nu_0=NU_0_FIG), t_max=0.1, dt=1e-2)
    else:
        mm = gd.monitored(gd.opo_model(gd.OpoParams.from_tilde(_TRAJ_CHI_T, nu_in=_TRAJ_NU_IN)), gd.heterodyne())
        batch = gd.simulate_trajectories(mm, gd.vacuum(1), dt=TRAJ_DT, T=0.05, n_traj=256, master_seed=0)
        gd.excess_noise(batch)
        gd.write_csv(os.path.join(out_dir, "warmup.csv"), ["t"], batch.times[:, None])
