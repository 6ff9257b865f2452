"""Open Gaussian dynamics under continuous general-dyne monitoring.

A system of n modes coupled to m white-noise environment modes through a
Hamiltonian matrix H_S and a coupling matrix C undergoes unconditional
diffusive dynamics with

    A = Omega H_S + Omega C Omega_m C^T / 2   (drift),
    D = Omega C sigma_in C^T Omega^T          (diffusion),
    d = Omega C mean_in                       (drive),

where sigma_in and mean_in describe the environment state.  Continuously
measuring the output with a general-dyne setting per environment mode turns
the evolution into a Gaussian filter: the conditional covariance matrix obeys
the deterministic Riccati equation

    d sigma_c / dt = A sigma_c + sigma_c A^T + D - (E - sigma_c B)(E - sigma_c B)^T,

with B = C Omega_m (sigma_in + sigma_m)^(-1/2) and
E = Omega C sigma_in (sigma_in + sigma_m)^(-1/2), while the conditional means
diffuse as

    d mean_c = (A mean_c + d) dt + (E - sigma_c B) dw,
    dy = -B^T mean_c dt + dw,

with dy the measurement record.  The Wiener increments used here have
per-component variance dt/2: second moments of this package's covariance
matrices are anticommutator-based without the conventional 1/2, which doubles
the innovation covariance to E[{dw, dw^T}] = I dt.  This is the single place
the convention enters; it is guarded by the ensemble identity
sigma_unc = sigma_c + Sigma with Sigma the excess noise of the conditional
means across trajectories.

Covariances are propagated exactly, not by a fixed-step integrator: both
flows are Riccati flows (the unconditional Lyapunov flow has no quadratic
term) and are stepped through the exponential of their Hamiltonian matrix,
so the results do not depend on the time grid.  The conditional steady state
solves the continuous algebraic Riccati equation (Schur method), refined by
Newton-Kleinman steps (at least one, at most SS_NEWTON_STEPS).

The input modes are uncorrelated, so (sigma_in + sigma_m)^(-1/2) is formed
one mode at a time as the PSD square root of measurement.inverse_sum, the
single place the homodyne limit is handled.  There (sigma_in + sigma_m)^(-1)
tends to the rank-one u u^T / s with s = u^T sigma_in u, whose root is
u u^T / sqrt(s): the diverging pointer direction drops out of B and E.

The environment is normalized at model construction: a symplectic pre-pass
brings sigma_in to thermal-diagonal form (nu_j I per mode), folding the
transformation into C and mean_in; (A, D, d) are invariant under the fold and
measurement settings are interpreted in the normalized basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm, solve_continuous_are, solve_continuous_lyapunov

from .ergotropy import clamp_ergotropy
from .exceptions import ConvergenceError, NoSteadyStateError, NumericError, SymmetryError
from .measurement import GeneralDyneSetting, inverse_sum
from .symplectic import (
    TOL_HURWITZ,
    TOL_PSD,
    TOL_SYM,
    GaussianState,
    _omega,
    symplectic_eigenvalues,
    validate_state,
    williamson_single_mode,
)

# Gate on the algebraic Riccati residual of a conditional steady state.
SS_RESIDUAL_TOL = 1e-9
# Newton-Kleinman refinements of the Schur CARE solution: each squares the
# error, so a residual still above the gate after this many is a failure.
SS_NEWTON_STEPS = 3
# Trajectories advanced together per vectorized chunk.
_TRAJ_CHUNK = 256


@dataclass(frozen=True)
class DiffusiveModel:
    """System-environment model (H_S, C, sigma_in, mean_in) for n system and m input modes.

    The constructor validates shapes, finiteness and physicality and normalizes the
    environment to thermal-diagonal form; the stored ``c``, ``sigma_in`` and
    ``mean_in`` refer to the normalized basis.  Correlations between input
    modes are not supported.
    """

    h_s: np.ndarray
    c: np.ndarray
    sigma_in: np.ndarray
    mean_in: np.ndarray
    n: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self):
        h_s = np.asarray(self.h_s, dtype=float)
        c = np.asarray(self.c, dtype=float)
        sigma_in = np.asarray(self.sigma_in, dtype=float)
        mean_in = np.asarray(self.mean_in, dtype=float).reshape(-1)
        if h_s.ndim != 2 or h_s.shape[0] != h_s.shape[1] or h_s.shape[0] % 2:
            raise ValueError(f"H_S must be square of even size, got {h_s.shape}")
        n = h_s.shape[0] // 2
        if not (np.isfinite(h_s).all() and np.isfinite(c).all()):
            raise ValueError("H_S and the coupling matrix must be finite")
        if np.abs(h_s - h_s.T).max() > TOL_SYM:
            raise SymmetryError("Hamiltonian matrix H_S must be symmetric")
        if c.ndim != 2 or c.shape[0] != 2 * n or c.shape[1] % 2 or c.shape[1] == 0:
            raise ValueError(f"coupling matrix must be 2n x 2m with n = {n}, got {c.shape}")
        m = c.shape[1] // 2
        if sigma_in.shape != (2 * m, 2 * m):
            raise ValueError(f"input CM shape {sigma_in.shape} does not match m = {m} input modes")
        if mean_in.size != 2 * m:
            raise ValueError(f"input mean length {mean_in.size} does not match m = {m} input modes")
        validate_state(mean_in, sigma_in)

        c, sigma_in, mean_in = _normalize_environment(c, sigma_in, mean_in, m)
        object.__setattr__(self, "h_s", 0.5 * (h_s + h_s.T))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "sigma_in", sigma_in)
        object.__setattr__(self, "mean_in", mean_in)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)


def _normalize_environment(c, sigma_in, mean_in, m):
    """Fold a per-mode symplectic into (c, mean_in) so that sigma_in = nu_j I per mode.

    Leaves A, D and d invariant: C sigma_in C^T, C Omega_m C^T and C mean_in
    are unchanged when C -> C S^{-1}, sigma_in -> S sigma_in S^T,
    mean_in -> S mean_in with S symplectic.
    """
    blocks = [sigma_in[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] for j in range(m)]
    off = sigma_in.copy()
    for j in range(m):
        off[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = 0.0
    if np.abs(off).max() > 1e-12:
        raise ValueError("correlated input modes are not supported; sigma_in must be block-diagonal")
    needs_fold = any(np.abs(b - 0.5 * np.trace(b) * np.eye(2)).max() > 1e-13 for b in blocks)
    if not needs_fold:
        return c, 0.5 * (sigma_in + sigma_in.T), mean_in
    s_blocks = []
    nus = []
    for b in blocks:
        nu, s = williamson_single_mode(b)
        s_blocks.append(s)
        nus.append(nu)
    s_full = np.zeros((2 * m, 2 * m))
    for j, s in enumerate(s_blocks):
        s_full[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = s
    c_new = c @ np.linalg.inv(s_full)
    sigma_new = np.kron(np.diag(nus), np.eye(2))
    return c_new, sigma_new, s_full @ mean_in


@dataclass(frozen=True)
class DriftDiffusion:
    """Unconditional dynamics: drift matrix ``a``, diffusion matrix ``d``, drive vector."""

    a: np.ndarray
    d: np.ndarray
    drive: np.ndarray


def drift_diffusion(model: DiffusiveModel) -> DriftDiffusion:
    """Drift, diffusion and drive of the unconditional diffusive dynamics."""
    om_n = _omega(model.n)
    om_m = _omega(model.m)
    a = om_n @ model.h_s + 0.5 * om_n @ model.c @ om_m @ model.c.T
    d = om_n @ model.c @ model.sigma_in @ model.c.T @ om_n.T
    drive = om_n @ model.c @ model.mean_in
    return DriftDiffusion(a=a, d=0.5 * (d + d.T), drive=drive)


def is_hurwitz(a: np.ndarray, tol: float = TOL_HURWITZ) -> bool:
    """True iff every eigenvalue of a has real part below -tol."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"drift matrix must be square, got {a.shape}")
    return bool(np.linalg.eigvals(a).real.max() < -tol)


def steady_state_unconditional(dd: DriftDiffusion) -> GaussianState:
    """Steady state of the unconditional dynamics (Lyapunov equation + linear solve)."""
    if not is_hurwitz(dd.a):
        raise NoSteadyStateError("drift matrix is not Hurwitz; the unconditional dynamics has no steady state")
    sigma = solve_continuous_lyapunov(dd.a, -dd.d)
    sigma = 0.5 * (sigma + sigma.T)
    res = np.abs(dd.a @ sigma + sigma @ dd.a.T + dd.d).max()
    if res > 1e-10:
        raise NumericError(f"Lyapunov solve left residual {res:.3e} > 1e-10")
    mean = np.linalg.solve(dd.a, -dd.drive)
    return GaussianState(mean, sigma)


def _inverse_sqrt_sum(sigma_in: np.ndarray, settings) -> np.ndarray:
    """(sigma_in + sigma_m)^(-1/2), one 2x2 block per (uncorrelated) input mode.

    Each block is the PSD square root (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M))
    of M = inverse_sum(sigma_in,j, setting_j), which owns the homodyne limit.
    """
    out = np.zeros_like(sigma_in)
    for j, setting in enumerate(settings):
        sl = slice(2 * j, 2 * j + 2)
        m = inverse_sum(sigma_in[sl, sl], setting)
        # det M is exactly 0 for homodyne; clamp its round-off negatives.
        sd = math.sqrt(max(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0], 0.0))
        out[sl, sl] = (m + sd * np.eye(2)) / math.sqrt(m[0, 0] + m[1, 1] + 2.0 * sd)
    return out


@dataclass(frozen=True)
class MonitoredModel:
    """A diffusive model together with its measurement matrices B and E."""

    base: DiffusiveModel
    settings: tuple
    b: np.ndarray
    e: np.ndarray


def monitored(model: DiffusiveModel, setting) -> MonitoredModel:
    """Attach a general-dyne setting (one per input mode, or one broadcast) to a model."""
    if isinstance(setting, GeneralDyneSetting):
        settings = (setting,) * model.m
    else:
        settings = tuple(setting)
    if len(settings) != model.m:
        raise ValueError(f"expected {model.m} measurement settings, got {len(settings)}")
    isq = _inverse_sqrt_sum(model.sigma_in, settings)
    om_n = _omega(model.n)
    om_m = _omega(model.m)
    b = model.c @ om_m @ isq
    e = om_n @ model.c @ model.sigma_in @ isq
    return MonitoredModel(base=model, settings=settings, b=b, e=e)


def _riccati_terms(dd: DriftDiffusion, mm: MonitoredModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(At, Dt, B B^T) of the rearranged flow At s + s At^T + Dt - s B B^T s.

    At = A + E B^T and Dt = D - E E^T make this algebraically identical to
    the filter's right-hand side A s + s A^T + D - (E - s B)(E - s B)^T.
    """
    return dd.a + mm.e @ mm.b.T, dd.d - mm.e @ mm.e.T, mm.b @ mm.b.T


def _require_modes(n_state: int, n_model: int) -> None:
    if n_state != n_model:
        raise ValueError(f"initial state has {n_state} modes, model has {n_model}")


def _grid_steps(t_grid) -> np.ndarray:
    """Step lengths of a one-dimensional, strictly increasing time grid."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1 or (t.size > 1 and np.diff(t).min() <= 0):
        raise ValueError("time grid must be one-dimensional and strictly increasing")
    return np.diff(t)


def _propagate_riccati(a, q, r, sigma0, t_grid) -> np.ndarray:
    """Exact solution of sigma' = A sigma + sigma A^T + Q - sigma R sigma on a time grid.

    The linear system [X; Y]' = H [X; Y] with H = [[-A^T, R], [Q, A]] carries
    sigma = Y X^-1 along the flow (Radon's lemma), so a step of length h is
    sigma <- (P21 + P22 sigma)(P11 + P12 sigma)^-1 with P = expm(H h).  Each
    grid interval is split into k = ceil(h ||H||_2) equal sub-steps, which
    keeps X well conditioned over long intervals; one exponential is computed
    per distinct step length.  R = 0 gives the linear Lyapunov flow.
    """
    steps = _grid_steps(t_grid)
    dim = a.shape[0]
    ham = np.block([[-a.T, r], [q, a]])
    norm = float(np.linalg.norm(ham, 2))
    n_sub = {h: max(1, math.ceil(h * norm)) for h in set(steps.tolist())}
    props = {h: expm(ham * (h / k)) for h, k in n_sub.items()}
    sigma = np.asarray(sigma0, dtype=float)
    out = np.empty((steps.size + 1, dim, dim))
    out[0] = sigma
    for i, h in enumerate(steps.tolist()):
        p = props[h]
        for _ in range(n_sub[h]):
            x = p[:dim, :dim] + p[:dim, dim:] @ sigma
            y = p[dim:, :dim] + p[dim:, dim:] @ sigma
            sigma = np.linalg.solve(x.T, y.T)
            sigma = 0.5 * (sigma + sigma.T)
        out[i + 1] = sigma
    return out


def evolve_conditional_cm(mm: MonitoredModel, sigma0: np.ndarray, t_grid) -> np.ndarray:
    """Conditional CM along a time grid, from the exact Riccati-flow propagator.

    The result does not depend on the grid spacing: every grid point carries
    the exact flow value up to round-off, however coarse the grid.
    """
    sigma = np.asarray(sigma0, dtype=float)
    validate_state(np.zeros(sigma.shape[0]), sigma)
    _require_modes(sigma.shape[0] // 2, mm.base.n)
    at, dtilde, bbt = _riccati_terms(drift_diffusion(mm.base), mm)
    return _propagate_riccati(at, dtilde, bbt, sigma, t_grid)


def riccati_residual(mm: MonitoredModel, sigma: np.ndarray) -> float:
    """Max-norm residual of the algebraic Riccati equation At s + s At^T + Dt - s B B^T s at sigma."""
    at, dtilde, bbt = _riccati_terms(drift_diffusion(mm.base), mm)
    return float(np.abs(at @ sigma + sigma @ at.T + dtilde - sigma @ bbt @ sigma).max())


def steady_state_conditional(mm: MonitoredModel) -> np.ndarray:
    """Steady-state conditional CM from the continuous algebraic Riccati equation.

    Solves At s + s At^T + Dt - s B B^T s = 0 by the Schur method, as the
    standard CARE A^T X + X A - X B B^T X + Q = 0 with A = At^T and Q = Dt,
    then refines it by Newton-Kleinman steps, each a Lyapunov solve with the
    closed-loop matrix At - s B B^T.  One step is always taken: the Schur
    solution alone can leave residuals of 1e-7 in the rank-deficient homodyne
    limit, and 6e-5 on the OPO at chi~ = 0 under homodyne at phase pi/2,
    where one quadrature is unobserved up to round-off (that case needs a
    second step).  Steps stop once the residual passes SS_RESIDUAL_TOL, at
    most SS_NEWTON_STEPS of them.
    The result must be the stabilizing solution (Hurwitz closed loop), pass
    the residual gate and be a physical covariance matrix.
    """
    dd = drift_diffusion(mm.base)
    if not is_hurwitz(dd.a):
        raise NoSteadyStateError("drift matrix is not Hurwitz; conditional steady state undefined")
    at, dtilde, bbt = _riccati_terms(dd, mm)
    try:
        sigma = solve_continuous_are(at.T, mm.b, dtilde, np.eye(mm.b.shape[1]))
        for _ in range(SS_NEWTON_STEPS):
            sigma = solve_continuous_lyapunov(at - sigma @ bbt, -(dtilde + sigma @ bbt @ sigma))
            sigma = 0.5 * (sigma + sigma.T)
            res = riccati_residual(mm, sigma)
            if res <= SS_RESIDUAL_TOL:
                break
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"algebraic Riccati solve failed: {exc}") from exc
    if not is_hurwitz(at - sigma @ bbt):
        raise NumericError("Riccati solution is not stabilizing: At - sigma B B^T is not Hurwitz")
    if res > SS_RESIDUAL_TOL:
        raise ConvergenceError(f"Riccati steady state has algebraic residual {res:.3e} > {SS_RESIDUAL_TOL:.1e}")
    wmin = float(np.linalg.eigvalsh(sigma + 1j * _omega(mm.base.n)).min())
    if wmin < -TOL_PSD:
        raise NumericError(f"Riccati steady state is unphysical: min eig(sigma + i Omega) = {wmin:.3e}")
    return sigma


def unconditional_path(dd: DriftDiffusion, state0: GaussianState, t_grid) -> tuple[np.ndarray, np.ndarray]:
    """Unconditional first and second moments along a time grid, exactly.

    The CM follows sigma' = A sigma + sigma A^T + D through the shared
    propagator; the mean follows r' = A r + d through the exponential of the
    augmented matrix [[A, d], [0, 0]] (Van Loan), one per distinct step.
    """
    _require_modes(state0.n, dd.a.shape[0] // 2)
    cms = _propagate_riccati(dd.a, dd.d, np.zeros_like(dd.a), state0.cm, t_grid)
    steps = _grid_steps(t_grid).tolist()
    dim = dd.a.shape[0]
    aug = np.zeros((dim + 1, dim + 1))
    aug[:dim, :dim] = dd.a
    aug[:dim, dim] = dd.drive
    props = {h: expm(aug * h) for h in set(steps)}
    means = np.empty((len(steps) + 1, dim))
    means[0] = state0.mean
    for i, h in enumerate(steps):
        means[i + 1] = props[h][:dim, :dim] @ means[i] + props[h][:dim, dim]
    return means, cms


@dataclass(frozen=True)
class TrajectoryBatch:
    """Ensemble of monitored trajectories sharing one deterministic CM path.

    ``means`` has shape (n_traj, n_stored, 2n); ``records`` holds the measured
    dy increments summed over each storage window, shape
    (n_traj, n_stored - 1, 2m); ``sigma_c`` is the common conditional CM path.
    """

    times: np.ndarray
    means: np.ndarray
    records: np.ndarray
    sigma_c: np.ndarray
    seed: int

    @property
    def n_traj(self) -> int:
        return self.means.shape[0]


def simulate_trajectories(
    mm: MonitoredModel,
    state0: GaussianState,
    dt: float,
    T: float,
    n_traj: int,
    master_seed: int,
    *,
    store_stride: int = 1,
) -> TrajectoryBatch:
    """Euler-Maruyama ensemble of conditional means with the shared Riccati CM path.

    Trajectory k draws its Wiener increments from an independent substream
    keyed by (master_seed, k), so results are byte-identical for a fixed seed
    regardless of chunking.  Increments have per-component variance dt/2 (see
    module docstring).  ``store_stride`` decimates storage: means are stored
    every ``store_stride`` steps and records are summed over each storage
    window.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if n_traj < 1:
        raise ValueError(f"need at least one trajectory, got {n_traj}")
    n_steps = int(round(T / dt))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError(f"T = {T} must be a positive integer multiple of dt = {dt}")
    stride = int(store_stride)
    if stride < 1 or n_steps % stride:
        raise ValueError(f"store_stride = {store_stride} must divide the {n_steps} steps")
    validate_state(state0.mean, state0.cm)
    _require_modes(state0.n, mm.base.n)

    dd = drift_diffusion(mm.base)
    two_n = 2 * mm.base.n
    two_m = mm.b.shape[1]
    n_stored = n_steps // stride + 1

    # Shared deterministic CM path and per-step noise gains at full resolution.
    full_times = np.arange(n_steps + 1) * dt
    sigma_path = _propagate_riccati(*_riccati_terms(dd, mm), state0.cm, full_times)
    gains = mm.e - sigma_path[:-1] @ mm.b

    means = np.empty((n_traj, n_stored, two_n))
    records = np.empty((n_traj, n_stored - 1, two_m))
    a_t = dd.a.T
    b = mm.b
    drive = dd.drive
    root = math.sqrt(0.5 * dt)

    def run_chunk(k0: int, k1: int) -> None:
        nt = k1 - k0
        dw = np.empty((nt, n_steps, two_m))
        for i, k in enumerate(range(k0, k1)):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(k,)))
            dw[i] = rng.standard_normal((n_steps, two_m))
        dw *= root
        r = np.tile(state0.mean, (nt, 1))
        means[k0:k1, 0] = r
        acc = np.zeros((nt, two_m))
        for t in range(n_steps):
            inc = dw[:, t, :]
            acc += inc - (r @ b) * dt
            r = r + (r @ a_t + drive) * dt + inc @ gains[t].T
            if (t + 1) % stride == 0:
                j = (t + 1) // stride
                means[k0:k1, j] = r
                records[k0:k1, j - 1] = acc
                acc[:] = 0.0

    for k0 in range(0, n_traj, _TRAJ_CHUNK):
        run_chunk(k0, min(k0 + _TRAJ_CHUNK, n_traj))

    # Slices of the full step grid, so runs with different strides share times.
    return TrajectoryBatch(
        times=full_times[::stride],
        means=means,
        records=records,
        sigma_c=sigma_path[::stride],
        seed=master_seed,
    )


def excess_noise(batch: TrajectoryBatch, t_index: int = -1) -> np.ndarray:
    """Excess noise Sigma at a stored time: twice the sample covariance of the means.

    The anticommutator convention doubles the classical covariance, so the
    ensemble identity reads sigma_unc = sigma_c + Sigma.
    """
    if batch.n_traj < 2:
        raise ValueError("excess noise needs at least two trajectories")
    x = batch.means[:, t_index, :]
    return 2.0 * np.cov(x, rowvar=False)


def daemonic_ergotropy_path(mm: MonitoredModel, state0: GaussianState, t_grid) -> np.ndarray:
    """Daemonic ergotropy of the monitored system along a time grid.

    At each time: tr sigma_unc / 4 + |mean_unc|^2 / 2 - (1/2) sum_j nu_j(sigma_c).
    The outcome-averaged conditional energy equals the unconditional energy,
    so only the passive energy reflects the monitoring.
    """
    means, cms = unconditional_path(drift_diffusion(mm.base), state0, t_grid)
    return _daemonic_curve(mm, means, cms, state0.cm, t_grid)


def _daemonic_curve(mm: MonitoredModel, means, cms, sigma0, t_grid) -> np.ndarray:
    """Daemonic ergotropy on t_grid from the unconditional moments on that grid.

    The unconditional path does not depend on the measurement, so callers
    comparing strategies compute it once and pass it to each.  The passive
    energies come from one stacked symplectic-spectrum call.
    """
    sig_c = evolve_conditional_cm(mm, sigma0, t_grid)
    energy = 0.25 * np.trace(cms, axis1=1, axis2=2) + 0.5 * np.einsum("ij,ij->i", means, means)
    out = energy - 0.5 * symplectic_eigenvalues(sig_c).sum(axis=-1)
    for i in np.flatnonzero(out < 0.0):
        out[i] = clamp_ergotropy(float(out[i]), f"daemonic ergotropy at t = {t_grid[i]:.6g}")
    return out


def daemonic_ergotropy_t(mm: MonitoredModel, state0: GaussianState, t: float) -> float:
    """Daemonic ergotropy at a single time t, from the exact propagators on the grid [0, t]."""
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    grid = [0.0] if t == 0 else [0.0, t]
    return float(daemonic_ergotropy_path(mm, state0, grid)[-1])
