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

Covariances are propagated exactly, not by a fixed-step integrator.  Both
flows are Riccati flows sigma' = A sigma + sigma A^T + Q - sigma R sigma.  The
unconditional one has R = 0 and is linear: sigma(t) = e^{At} sigma0 e^{A^T t}
+ G(t) with the Gramian G(t) = int_0^t e^{As} D e^{A^T s} ds, built on the
whole grid together with e^{At} and the means (see _grid_flow).  The
conditional one is written in closed form about its stabilizing steady state
sigma_inf: with F = A - sigma_inf R (Hurwitz), W_inf solving
F^T W + W F + R = 0 and Delta0 = sigma0 - sigma_inf,

    sigma(t) = sigma_inf + e^{Ft} (I + Delta0 W(t))^-1 Delta0 e^{F^T t},
    W(t) = W_inf - e^{F^T t} W_inf e^{Ft},

so a whole time grid takes a few stacked numpy calls.  Where the steady state
is missing or large (a non-Hurwitz drift, or one near threshold; see
_expandable) the conditional flow is stepped through the exponential of its
Hamiltonian matrix instead.  Either way the results do not depend on the
time grid.  The conditional steady state solves the continuous algebraic
Riccati equation (Schur method), refined by Newton-Kleinman steps (at least
one, at most SS_NEWTON_STEPS).

The gains are written in the pointer frame, where homodyne is the exact
w = z_m / nu_m = 0 member of the general-dyne family (see _inverse_sqrt_sum).

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
from .measurement import GeneralDyneSetting
from .symplectic import (
    TOL_HURWITZ,
    TOL_PSD,
    TOL_SYM,
    GaussianState,
    _omega,
    rotation,
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
# A time grid whose points lie within this fraction of its largest |t| of an
# exactly uniform grid is propagated as uniform (about 45 ulp).
_UNIFORM_TOL = 1e-14
# Largest estimated steady-state CM scale |D| / (2 |alpha(A)|) for which the
# conditional flow is expanded about its steady state (see _expandable).
_EXPAND_MAX_SCALE = 1e4


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
    mean_in -> S mean_in with S symplectic.  Blocks within 1e-13 of isotropic
    need no fold and are stored as exactly nu_j I, nu_j = tr / 2.
    """
    blocks = [sigma_in[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] for j in range(m)]
    off = sigma_in.copy()
    for j in range(m):
        off[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = 0.0
    if np.abs(off).max() > 1e-12:
        raise ValueError("correlated input modes are not supported; sigma_in must be block-diagonal")
    nus = [0.5 * float(np.trace(b)) for b in blocks]
    if any(np.abs(b - nu * np.eye(2)).max() > 1e-13 for b, nu in zip(blocks, nus)):
        s_full = np.zeros((2 * m, 2 * m))
        for j, b in enumerate(blocks):
            nus[j], s = williamson_single_mode(b)
            s_full[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = s
        c, mean_in = c @ np.linalg.inv(s_full), s_full @ mean_in
    return c, np.kron(np.diag(nus), np.eye(2)), mean_in


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

    The normalized input is nu_j I, so in the pointer frame R = R_theta each
    block is R diag((nu_j + nu_m z_m)^(-1/2), sqrt(w / (1 + w nu_j))) R^T with
    w = z_m / nu_m.  Homodyne is w = 0: the unmeasured quadrature drops out
    exactly.
    """
    out = np.zeros_like(sigma_in)
    for j, setting in enumerate(settings):
        nu, w = sigma_in[2 * j, 2 * j], setting.z_m / setting.nu_m
        r = rotation(setting.theta_m)
        roots = [1.0 / math.sqrt(nu + setting.nu_m * setting.z_m), math.sqrt(w / (1.0 + w * nu))]
        out[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = (r * roots) @ r.T
    return out


@dataclass(frozen=True)
class MonitoredModel:
    """A diffusive model together with its measurement matrices B and E.

    The unconditional dynamics ``dd`` and the terms of the rearranged filter
    flow At s + s At^T + Dt - s B B^T s are computed once, at construction:
    At = A + E B^T and Dt = D - E E^T make it algebraically identical to
    A s + s A^T + D - (E - s B)(E - s B)^T.
    """

    base: DiffusiveModel
    settings: tuple
    b: np.ndarray
    e: np.ndarray
    dd: DriftDiffusion = field(init=False, repr=False, compare=False)
    at: np.ndarray = field(init=False, repr=False, compare=False)
    dtilde: np.ndarray = field(init=False, repr=False, compare=False)
    bbt: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dd = drift_diffusion(self.base)
        object.__setattr__(self, "dd", dd)
        object.__setattr__(self, "at", dd.a + self.e @ self.b.T)
        object.__setattr__(self, "dtilde", dd.d - self.e @ self.e.T)
        object.__setattr__(self, "bbt", self.b @ self.b.T)


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


def _require_modes(n_state: int, n_model: int) -> None:
    if n_state != n_model:
        raise ValueError(f"initial state has {n_state} modes, model has {n_model}")


def _grid_steps(t_grid) -> np.ndarray:
    """Step lengths of a one-dimensional, finite, strictly increasing time grid."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1 or not np.isfinite(t).all() or (t.size > 1 and np.diff(t).min() <= 0):
        raise ValueError("time grid must be one-dimensional, finite and strictly increasing")
    return np.diff(t)


def _uniform_steps(T: float, dt: float, what: str = "T") -> int:
    """Number of steps of length dt in a uniform grid on [0, T]; T must be a positive integer multiple of dt."""
    if not (math.isfinite(T) and math.isfinite(dt) and T > 0 and dt > 0):
        raise ValueError(f"{what} = {T} and dt = {dt} must be finite and positive")
    n_steps = int(round(T / dt))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"{what} = {T} must be a positive integer multiple of dt = {dt}")
    return n_steps


def _grid_flow(a: np.ndarray, t_grid, d=None) -> tuple[np.ndarray, np.ndarray | None]:
    """e^{A (t_i - t_0)} at every point of a time grid and, given D, the Gramians there.

    The Gramian G(t) = int_0^t e^{As} D e^{A^T s} ds moves a CM along
    sigma' = A sigma + sigma A^T + D as sigma(t) = e^{At} sigma0 e^{A^T t} + G(t);
    it is None without D.  Flows compose as G(t + s) = G(t) + e^{At} G(s) e^{A^T t},
    a sum of terms with no cancellation and no solve.  A uniform grid is
    filled by doubling, e^{A t_{m+j}} = e^{A t_j} e^{A t_m} for j < m with one
    expm per doubling, so N points take about log2 N exponentials and stacked
    matmuls.  Grids within _UNIFORM_TOL of uniform count as uniform
    (np.linspace grids are not bitwise uniform).  Other grids chain their
    steps: one expm per distinct step length, a few matmuls per step.  The
    Gramian of one step comes from the Van Loan exponential of [[A, D], [0, -A^T]].
    """
    steps = _grid_steps(t_grid)
    t = np.asarray(t_grid, dtype=float)
    dim, n = a.shape[0], steps.size
    exps = np.empty((n + 1, dim, dim))
    exps[0] = np.eye(dim)
    grams = None if d is None else np.zeros((n + 1, dim, dim))

    def step_gramian(h: float) -> np.ndarray:
        # e^{-A^T h} in the Van Loan block grows with h, so take it over
        # h / 2^k with |A| h / 2^k <= 1 and compose the result k times.
        k = max(0, math.ceil(math.log2(max(h * float(np.linalg.norm(a, 1)), 1.0))))
        van_loan = expm(np.block([[a, d], [np.zeros_like(a), -a.T]]) * (h / 2**k))
        e, g = van_loan[:dim, :dim], van_loan[:dim, dim:] @ van_loan[:dim, :dim].T
        for _ in range(k):
            g, e = g + e @ g @ e.T, e @ e
        return g

    h = (t[-1] - t[0]) / max(n, 1)
    if n and np.abs(t - t[0] - h * np.arange(n + 1)).max() <= _UNIFORM_TOL * np.abs(t).max():
        m = 1
        while m <= n:
            k = min(m, n + 1 - m)
            e_m = expm(a * (m * h))
            exps[m : m + k] = exps[:k] @ e_m
            if grams is not None:
                half = m // 2
                g_m = step_gramian(h) if m == 1 else grams[half] + exps[half] @ grams[half] @ exps[half].T
                grams[m : m + k] = g_m + e_m @ grams[:k] @ e_m.T
            m += k
        return exps, grams
    props = {s: (expm(a * s), None if d is None else step_gramian(s)) for s in set(steps.tolist())}
    for i, s in enumerate(steps.tolist()):
        e_s, g_s = props[s]
        exps[i + 1] = e_s @ exps[i]
        if grams is not None:
            grams[i + 1] = g_s + e_s @ grams[i] @ e_s.T
    return exps, grams


def _expandable(dd: DriftDiffusion) -> bool:
    """Whether the conditional flow of a model with drift dd.a is expanded about its steady state.

    The expansion sigma_inf + e^{Ft} (...) e^{F^T t} cancels sigma_inf against
    itself and so loses about eps |sigma_inf| / |sigma(t)| of relative
    precision, where |sigma(t)| >= 1 for a physical CM.  The conditional
    steady state lies below the unconditional one, which is about
    |D| / (2 |alpha|) with alpha the spectral abscissa of A.  Drifts without
    a steady state (alpha >= 0), or whose estimate exceeds _EXPAND_MAX_SCALE
    (near threshold: about 2e-12 lost at the bound), are stepped instead.
    Decided from A and D alone, before any solve.
    """
    alpha = float(np.linalg.eigvals(dd.a).real.max())
    return alpha < -TOL_HURWITZ and float(np.abs(dd.d).max()) <= -2.0 * alpha * _EXPAND_MAX_SCALE


def _check_steady_state(mm: MonitoredModel, sigma_inf: np.ndarray) -> None:
    """Raise ValueError unless sigma_inf is the stabilizing solution of the algebraic Riccati equation.

    The residual is gated relative to the largest of its terms, so the gate
    holds for a correctly rounded sigma_inf of any size.
    """
    terms = (mm.dtilde, mm.at @ sigma_inf, sigma_inf @ mm.bbt @ sigma_inf)
    scale = max(float(np.abs(x).max()) for x in terms)
    res = riccati_residual(mm, sigma_inf)
    if res > SS_RESIDUAL_TOL * scale:
        raise ValueError(f"steady state has algebraic residual {res:.3e}; it does not solve the Riccati equation")
    if not is_hurwitz(mm.at - sigma_inf @ mm.bbt):
        raise ValueError("steady state is not stabilizing: A - sigma_inf R is not Hurwitz")


def _expand_about(a, r, sigma_inf, sigma0, t_grid) -> np.ndarray:
    """Exact solution of sigma' = A sigma + sigma A^T + Q - sigma R sigma, expanded about its steady state.

    sigma_inf must solve the algebraic equation and make F = A - sigma_inf R
    Hurwitz (the callers make sure of both).  The flow is the closed form of
    the module docstring on the stack of e^{F t}.
    """
    f = a - sigma_inf @ r
    exps, _ = _grid_flow(f, t_grid)
    exps_t = np.swapaxes(exps, 1, 2)
    # F^T W + W F = -R in row-major vec form; one small dense solve.
    eye = np.eye(f.shape[0])
    w_inf = np.linalg.solve(np.kron(f.T, eye) + np.kron(eye, f.T), -r.ravel()).reshape(r.shape)
    delta0 = sigma0 - sigma_inf
    core = np.linalg.solve(eye + delta0 @ (w_inf - exps_t @ w_inf @ exps), delta0)
    out = sigma_inf + exps @ core @ exps_t
    return 0.5 * (out + np.swapaxes(out, 1, 2))


def _propagate_riccati(a, q, r, sigma0, t_grid) -> np.ndarray:
    """Exact solution of sigma' = A sigma + sigma A^T + Q - sigma R sigma, stepped along a time grid.

    The route for a conditional flow with no steady state to expand about,
    or one too large to expand about in precision (see _expandable).  The
    linear system [X; Y]' = H [X; Y] with H = [[-A^T, R], [Q, A]] carries
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


def evolve_conditional_cm(mm: MonitoredModel, sigma0: np.ndarray, t_grid, *, sigma_inf=None) -> np.ndarray:
    """Conditional CM along a time grid, from the exact Riccati flow.

    Where _expandable(mm.dd) holds the flow is expanded about the conditional
    steady state: ``sigma_inf`` if given (checked to be the stabilizing
    solution), else steady_state_conditional(mm).  Otherwise it is stepped
    and ``sigma_inf`` is not used.  The result does not depend on the grid
    spacing: every grid point carries the exact flow value up to round-off,
    however coarse the grid.
    """
    sigma = np.asarray(sigma0, dtype=float)
    validate_state(np.zeros(sigma.shape[0]), sigma)
    _require_modes(sigma.shape[0] // 2, mm.base.n)
    if not _expandable(mm.dd):
        return _propagate_riccati(mm.at, mm.dtilde, mm.bbt, sigma, t_grid)
    if sigma_inf is None:
        sigma_inf = steady_state_conditional(mm)
    else:
        sigma_inf = np.asarray(sigma_inf, dtype=float)
        _check_steady_state(mm, sigma_inf)
    return _expand_about(mm.at, mm.bbt, sigma_inf, sigma, t_grid)


def riccati_residual(mm: MonitoredModel, sigma: np.ndarray) -> float:
    """Max-norm residual of the algebraic Riccati equation At s + s At^T + Dt - s B B^T s at sigma."""
    return float(np.abs(mm.at @ sigma + sigma @ mm.at.T + mm.dtilde - sigma @ mm.bbt @ sigma).max())


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
    if not is_hurwitz(mm.dd.a):
        raise NoSteadyStateError("drift matrix is not Hurwitz; conditional steady state undefined")
    at, dtilde, bbt = mm.at, mm.dtilde, mm.bbt
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
    """Unconditional first and second moments along a time grid, exactly, for any drift.

    One _grid_flow of the augmented drift [[A, d], [0, 0]] (Van Loan) gives
    the means, r(t) = e^{At} r0 + int_0^t e^{As} d ds, and with the diffusion
    padded alike the CMs, sigma(t) = e^{At} sigma0 e^{A^T t} + G(t).
    """
    _require_modes(state0.n, dd.a.shape[0] // 2)
    dim = dd.a.shape[0]
    aug = np.zeros((dim + 1, dim + 1))
    aug[:dim, :dim] = dd.a
    aug[:dim, dim] = dd.drive
    diff = np.zeros_like(aug)
    diff[:dim, :dim] = dd.d
    exps, grams = _grid_flow(aug, t_grid, diff)
    means = exps[:, :dim, :dim] @ state0.mean + exps[:, :dim, dim]
    e = exps[:, :dim, :dim]
    cms = e @ state0.cm @ np.swapaxes(e, 1, 2) + grams[:, :dim, :dim]
    return means, 0.5 * (cms + np.swapaxes(cms, 1, 2))


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
    if n_traj < 1:
        raise ValueError(f"need at least one trajectory, got {n_traj}")
    n_steps = _uniform_steps(T, dt)
    stride = int(store_stride)
    if stride < 1 or n_steps % stride:
        raise ValueError(f"store_stride = {store_stride} must divide the {n_steps} steps")
    validate_state(state0.mean, state0.cm)
    _require_modes(state0.n, mm.base.n)

    two_n = 2 * mm.base.n
    two_m = mm.b.shape[1]
    n_stored = n_steps // stride + 1

    # Shared deterministic CM path and per-step noise gains at full resolution.
    full_times = np.arange(n_steps + 1) * dt
    sigma_path = evolve_conditional_cm(mm, state0.cm, full_times)
    gains = mm.e - sigma_path[:-1] @ mm.b

    means = np.empty((n_traj, n_stored, two_n))
    records = np.empty((n_traj, n_stored - 1, two_m))
    a_t = mm.dd.a.T
    b = mm.b
    drive = mm.dd.drive
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


def daemonic_ergotropy_path(mm: MonitoredModel, state0: GaussianState, t_grid, *, sigma_inf=None) -> np.ndarray:
    """Daemonic ergotropy of the monitored system along a time grid.

    At each time: tr sigma_unc / 4 + |mean_unc|^2 / 2 - (1/2) sum_j nu_j(sigma_c).
    The outcome-averaged conditional energy equals the unconditional energy,
    so only the passive energy reflects the monitoring.  ``sigma_inf`` is
    passed on to evolve_conditional_cm.
    """
    means, cms = unconditional_path(mm.dd, state0, t_grid)
    return _daemonic_curve(mm, means, cms, state0.cm, t_grid, sigma_inf)


def _daemonic_curve(mm: MonitoredModel, means, cms, sigma0, t_grid, sigma_inf=None) -> np.ndarray:
    """Daemonic ergotropy on t_grid from the unconditional moments on that grid.

    The unconditional path does not depend on the measurement, so callers
    comparing strategies compute it once and pass it to each; a caller that
    knows the conditional steady state passes it as ``sigma_inf``.  The
    passive energies come from one stacked symplectic-spectrum call.
    """
    sig_c = evolve_conditional_cm(mm, sigma0, t_grid, sigma_inf=sigma_inf)
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
