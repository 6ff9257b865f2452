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
flows are Riccati flows sigma' = A sigma + sigma A^T + Q - sigma R sigma, and
the flow over an interval h is the linear-fractional map

    sigma(h) = Q_h + Phi_h sigma(0) (I + G_h sigma(0))^-1 Phi_h^T,

read off the exponential of the flow's Hamiltonian matrix over a short
interval and doubled up to h (the doubling algorithm, _interval_map), so a
horizon costs log2 of its length.  Maps compose with one solve, G and Q
staying positive semidefinite (_compose), and _grid_maps gives the maps from
the first point of a time grid to every point.  The unconditional flow has
R = 0, so Phi = e^{At}, G = 0 and Q is the Gramian
int_0^t e^{As} D e^{A^T s} ds; the means ride along in the drift augmented by
the drive (unconditional_path).  One mode takes e^{At} in closed form at every
grid point instead (_one_mode_moments).  The conditional flow of one mode
whose steady state sigma_inf is not too large (_expandable) is written in
closed form about it: with F = A - sigma_inf R (Hurwitz), W_inf solving
F^T W + W F + R = 0 and Delta0 = sigma0 - sigma_inf,

    sigma(t) = sigma_inf + e^{Ft} (I + Delta0 W(t))^-1 Delta0 e^{F^T t},
    W(t) = W_inf - e^{F^T t} W_inf e^{Ft},

on arrays of the four entries over the grid: e^{Ft} in closed form from the
eigenvalues of F (_grid_exp2), W_inf in closed form and the inverse as the
adjugate, with no expm, solve or stacked matmul.  The k filters of one model
(a table of strategies) share one pass (_conditional_blocks): sigma0 and the
grid are checked once, each filter's steady state and scalars (F, W_inf,
Delta0) are computed once and stacked as (k, 1) columns, and the closed form
runs on (k, block) arrays in blocks of at most _BLOCK_FLOATS values, where
numpy's temporaries stay small; every operation is elementwise, so each point
is the same bits whatever the blocking or k.  One filter (evolve_conditional_cm)
is k = 1.  Every other conditional
flow (two or more modes, a non-Hurwitz drift, one near threshold) takes the
interval maps, about a tiny multiple of sigma0 (_MAP_BASE), filter by
filter, and needs no steady state.  Either way the results do not
depend on the time grid.  The conditional steady state is the stable
invariant subspace of the same Hamiltonian (in closed form for one mode, with
no LAPACK call; from one ordered Schur decomposition for more, where the
Schur form and the spectral abscissae come from LAPACK's dgees and dgeev
called directly, _stable_schur and _spectral_abscissa; Newton-Kleinman steps
refine it only when its residual is above round-off).  That Hamiltonian is built in
one place (_hamiltonian), balanced so that its norm does not grow with the environment
noise.  Where the filter terms are diagonal, the one-mode closed form takes
the stabilizing root of each coordinate's scalar Riccati equation as its
steady state (_decoupled_roots).

The filter terms are written in the pointer frame, where homodyne is the exact
w = z_m / nu_m = 0 member of the general-dyne family (see MonitoredModel).

The environment is normalized at model construction: a symplectic pre-pass
brings sigma_in to thermal-diagonal form (nu_j I per mode), folding the
transformation into C and mean_in; (A, D, d) are invariant under the fold and
measurement settings are interpreted in the normalized basis.  A model and
its filter store read-only copies of their arrays.  One system and one input
mode (n = m = 1, the OPO among them) are built in float arithmetic on the 2x2
entries, with the checks and messages of the general route and the products
it takes (_one_mode_model, MonitoredModel); the zeros numpy's matmul leaves as
+0.0 stay +0.0, and B B^T is numpy's product for every n.  The steady solve
of one mode builds its Hamiltonian as a nested list alike.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import expm
from scipy.linalg.lapack import dgees, dgeev

from .ergotropy import clamp_ergotropy
from .exceptions import ConvergenceError, NoSteadyStateError, NumericError, SymmetryError
from .measurement import GeneralDyneSetting, _from_pointer_frame, _pointer_inverse
from .symplectic import (
    TOL_HURWITZ,
    TOL_SYM,
    GaussianState,
    _check_moments,
    _omega,
    _physicality_violation,
    symplectic_eigenvalues,
    validate_state,
    williamson_single_mode,
)

# Gate on the residual of a steady state (Lyapunov or Riccati) relative to its largest term (_relative_residual).
SS_RESIDUAL_TOL = 1e-9
# A Schur solution whose relative residual exceeds this is refined by
# Newton-Kleinman steps; a correctly rounded solution sits near 1e-14.
SS_REFINE_RTOL = 1e-12
# Most Newton-Kleinman refinements of the Hamiltonian Schur solution (none
# when it already passes SS_REFINE_RTOL): each squares the error, so a
# residual still above the gate after this many is a failure.
SS_NEWTON_STEPS = 3
# Trajectories advanced together per vectorized chunk.
_TRAJ_CHUNK = 256
# A time grid whose points lie within this fraction of its largest |t| of an
# exactly uniform grid is propagated as uniform (about 45 ulp).
_UNIFORM_TOL = 1e-14
# Largest estimated steady-state CM scale |D| / (2 |alpha(A)|) for which the
# conditional flow is expanded about its steady state (see _expandable).
_EXPAND_MAX_SCALE = 1e4
# Interval maps of a conditional flow start from this multiple of sigma0, not from 0: where Dt is 0
# along an unstable direction of At (an efficient homodyne of an unstable quadrature), the flow from
# 0 rests there for ever and its maps overflow; from any positive definite start it moves off.
_MAP_BASE = 2.0**-52
# Filter data whose off-diagonal entries are within this fraction of each matrix's largest entry decouple.
_DECOUPLED_TOL = 1e-12
# A sigma_in block within this of nu I (entrywise) is stored as exactly nu I (_normalize_environment).
_ISOTROPIC_TOL = 1e-13
# Grid points times filters in one block of the one-mode closed form (_conditional_blocks), so that each
# array of matrix entries holds at most 64 KB.  Larger ones page-fault on every call: on a 2-core AMD
# EPYC VM (numpy 2.4, resource.getrusage) transient_table at 30001 points took 5371 minor faults and
# 7.7 ms per call in one stacked pass, 1316 faults and 5.4 ms in these blocks.
_BLOCK_FLOATS = 8192
# Column pairs of a 4x4 matrix, in the order the one-mode stable basis tries them (_one_mode_basis).
_COLUMN_PAIRS = tuple(itertools.combinations(range(4), 2))


@dataclass(frozen=True, eq=False)
class DiffusiveModel:
    """System-environment model (H_S, C, sigma_in, mean_in) for n system and m input modes.

    The constructor validates shapes, finiteness and physicality and normalizes the
    environment to thermal-diagonal form; the stored ``c``, ``sigma_in`` and
    ``mean_in`` refer to the normalized basis.  Correlations between input
    modes are not supported.  ``dd``, the unconditional dynamics, is derived
    once.  Every stored array is a read-only copy, so a caller that later
    writes to its own arrays leaves the model as it was.  One system and one
    input mode (n = m = 1) take the same checks and products in float
    arithmetic on the 2x2 entries (_one_mode_model).
    """

    h_s: np.ndarray
    c: np.ndarray
    sigma_in: np.ndarray
    mean_in: np.ndarray
    n: int = field(init=False)
    m: int = field(init=False)
    dd: DriftDiffusion = field(init=False, repr=False)

    def __post_init__(self):
        h_s, c, sigma_in = (np.array(x, dtype=float) for x in (self.h_s, self.c, self.sigma_in))
        mean_in = np.array(self.mean_in, dtype=float).reshape(-1)
        build = _one_mode_model if h_s.shape == c.shape == (2, 2) else _model
        h_s, c, sigma_in, mean_in, dd = build(h_s, c, sigma_in, mean_in)
        n, m = h_s.shape[0] // 2, c.shape[1] // 2
        self.__dict__.update(h_s=h_s, c=c, sigma_in=sigma_in, mean_in=mean_in, n=n, m=m, dd=dd)


def _require_environment_shapes(sigma_in, mean_in, m: int) -> None:
    if sigma_in.shape != (2 * m, 2 * m):
        raise ValueError(f"input CM shape {sigma_in.shape} does not match m = {m} input modes")
    if mean_in.size != 2 * m:
        raise ValueError(f"input mean length {mean_in.size} does not match m = {m} input modes")


def _model(h_s, c, sigma_in, mean_in) -> tuple:
    """(h_s, c, sigma_in, mean_in, dd) of DiffusiveModel: checks, normalization and the unconditional dynamics."""
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
    _require_environment_shapes(sigma_in, mean_in, m)
    validate_state(mean_in, sigma_in)

    c, sigma_in, mean_in = _normalize_environment(c, sigma_in, mean_in, m)
    h_s = 0.5 * (h_s + h_s.T)
    # Products with the symplectic forms only permute and negate entries, so they are exact in any order.
    oc = _omega(n) @ c
    d = oc @ sigma_in @ oc.T
    dd = DriftDiffusion(a=_omega(n) @ h_s + 0.5 * (oc @ _omega(m)) @ c.T, d=0.5 * (d + d.T), drive=oc @ mean_in)
    for x in (h_s, c, sigma_in, mean_in, dd.a, dd.d, dd.drive):
        x.flags.writeable = False
    return h_s, c, sigma_in, mean_in, dd


def _normalize_environment(c, sigma_in, mean_in, m):
    """Fold a per-mode symplectic into (c, mean_in) so that sigma_in = nu_j I per mode.

    Leaves A, D and d invariant: C sigma_in C^T, C Omega_m C^T and C mean_in
    are unchanged when C -> C S^{-1}, sigma_in -> S sigma_in S^T,
    mean_in -> S mean_in with S symplectic.  Blocks within _ISOTROPIC_TOL of
    isotropic need no fold and are stored as exactly nu_j I, nu_j = tr / 2.  Both
    decisions are float arithmetic on the entries (small numpy calls cost more).
    """
    rows = sigma_in.tolist()
    if any(abs(v) > 1e-12 for i, row in enumerate(rows) for j, v in enumerate(row) if i // 2 != j // 2):
        raise ValueError("correlated input modes are not supported; sigma_in must be block-diagonal")
    blocks = [(*rows[2 * j][2 * j : 2 * j + 2], *rows[2 * j + 1][2 * j : 2 * j + 2]) for j in range(m)]
    nus = [0.5 * (b00 + b11) for b00, _, _, b11 in blocks]
    if any(_anisotropy(block, nu) > _ISOTROPIC_TOL for block, nu in zip(blocks, nus)):
        s_full = np.zeros((2 * m, 2 * m))
        for j in range(m):
            block = slice(2 * j, 2 * j + 2)
            nus[j], s_full[block, block] = williamson_single_mode(sigma_in[block, block])
        c, mean_in = c @ np.linalg.inv(s_full), s_full @ mean_in
    return c, np.diag([nu for nu in nus for _ in range(2)]), mean_in


def _anisotropy(block, nu: float) -> float:
    """Largest entry of |B - nu I| for a 2x2 block B given as four row-major floats."""
    b00, b01, b10, b11 = block
    return max(abs(b00 - nu), abs(b01), abs(b10), abs(b11 - nu))


def _one_mode_model(h_s, c, sigma_in, mean_in) -> tuple:
    """_model for n = m = 1 in float arithmetic on the entries (small numpy calls cost more).

    The checks, their order and their messages are _model's, and sigma_in is
    checked by the same predicates (symplectic._check_moments).  A non-isotropic
    sigma_in is folded by _normalize_environment, as on that route.  The
    products are _model's, written out: Omega X permutes and negates rows,
    C Omega C^T = det(C) Omega, so the coupling adds -det(C) / 2 to the diagonal
    of A, and D = (nu Omega C) (Omega C)^T.  Adding 0.0 to the derived entries
    leaves a zero as +0.0, as numpy's matmul does.
    """
    (h00, h01), (h10, h11) = h_s.tolist()
    (c00, c01), (c10, c11) = c.tolist()
    if not all(map(math.isfinite, (h00, h01, h10, h11, c00, c01, c10, c11))):
        raise ValueError("H_S and the coupling matrix must be finite")
    if abs(h01 - h10) > TOL_SYM:
        raise SymmetryError("Hamiltonian matrix H_S must be symmetric")
    _require_environment_shapes(sigma_in, mean_in, 1)
    _check_moments(mean_in, sigma_in)
    (s00, s01), (s10, s11) = sigma_in.tolist()
    nu = 0.5 * (s00 + s11)
    if _anisotropy((s00, s01, s10, s11), nu) > _ISOTROPIC_TOL:
        c, sigma_in, mean_in = _normalize_environment(c, sigma_in, mean_in, 1)
        ((c00, c01), (c10, c11)), nu = c.tolist(), float(sigma_in[0, 0])
    r0, r1 = mean_in.tolist()
    h00, h01, h11 = 0.5 * (h00 + h00), 0.5 * (h01 + h10), 0.5 * (h11 + h11)  # H_S symmetrized
    k = 0.5 * (c01 * c10 - c00 * c11)
    g00, g01, g10, g11 = c10 * nu, c11 * nu, -c00 * nu, -c01 * nu  # nu Omega C
    d00, d11 = g00 * c10 + g01 * c11, g10 * -c00 + g11 * -c01
    d01 = 0.5 * ((g00 * -c00 + g01 * -c01) + (g10 * c10 + g11 * c11))
    a_d = (h01 + k, h11, -h00, k - h01, 0.5 * (d00 + d00), d01, d01, 0.5 * (d11 + d11))
    entries = [h00, h01, h01, h11, c00, c01, c10, c11, nu, 0.0, 0.0, nu, *(x + 0.0 for x in a_d)]
    matrices = np.array(entries).reshape(5, 2, 2)
    vectors = np.array([r0, r1, c10 * r0 + c11 * r1 + 0.0, -c00 * r0 - c01 * r1 + 0.0]).reshape(2, 2)
    matrices.flags.writeable = vectors.flags.writeable = False  # and so are the views unpacked from them
    (h_s, c, sigma_in, a, d), (mean_in, drive) = matrices, vectors
    return h_s, c, sigma_in, mean_in, DriftDiffusion(a=a, d=d, drive=drive)


@dataclass(frozen=True, eq=False)
class DriftDiffusion:
    """Unconditional dynamics: drift matrix ``a``, diffusion matrix ``d``, drive vector."""

    a: np.ndarray
    d: np.ndarray
    drive: np.ndarray


def drift_diffusion(model: DiffusiveModel) -> DriftDiffusion:
    """Drift, diffusion and drive of the unconditional diffusive dynamics (built with the model)."""
    return model.dd


def _spectral_abscissa(a: np.ndarray) -> float:
    """Largest real part of the eigenvalues of a square matrix.

    A 2x2 [[a, b], [c, d]] takes the closed form tr / 2 + sqrt(max(disc, 0)),
    disc = ((a - d) / 2)^2 + b c, in float arithmetic; larger matrices, and a 2x2
    whose closed form is not finite, take LAPACK's dgeev without eigenvectors,
    called directly: the eigenvalues np.linalg.eigvals gives, bit for bit,
    with its LinAlgError on a non-finite matrix or a nonzero info.
    """
    if a.shape == (2, 2):
        (a00, a01), (a10, a11) = a.tolist()
        half = 0.5 * (a00 - a11)
        alpha = 0.5 * (a00 + a11) + math.sqrt(max(half * half + a01 * a10, 0.0))
        if math.isfinite(alpha):
            return alpha
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    wr, _, _, _, info = dgeev(a, compute_vl=0, compute_vr=0)
    if info:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return float(wr.max())


def is_hurwitz(a: np.ndarray) -> bool:
    """True iff every eigenvalue of a has real part below -TOL_HURWITZ (_spectral_abscissa)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"drift matrix must be square, got {a.shape}")
    return _spectral_abscissa(a) < -TOL_HURWITZ


def _lyapunov(a, q) -> np.ndarray:
    """X with A X + X A^T + Q = 0: one small dense solve of (A kron I + I kron A) vec X = -vec Q (row-major vec)."""
    eye = np.eye(a.shape[0])
    return np.linalg.solve(np.kron(a, eye) + np.kron(eye, a), -q.ravel()).reshape(q.shape)


def steady_state_unconditional(dd: DriftDiffusion) -> GaussianState:
    """Steady state of the unconditional dynamics (Lyapunov equation, gated by _relative_residual, + linear solve)."""
    if not is_hurwitz(dd.a):
        raise NoSteadyStateError("drift matrix is not Hurwitz; the unconditional dynamics has no steady state")
    sigma = _lyapunov(dd.a, dd.d)
    sigma = 0.5 * (sigma + sigma.T)
    rel = _relative_residual(dd.a, dd.d, np.zeros_like(dd.a), sigma)
    if rel > SS_RESIDUAL_TOL:
        raise NumericError(f"Lyapunov solve left relative residual {rel:.3e} > {SS_RESIDUAL_TOL:.1e}")
    mean = np.linalg.solve(dd.a, -dd.drive)
    return GaussianState(mean, sigma)


@dataclass(frozen=True, eq=False)
class MonitoredModel:
    """A diffusive model with a general-dyne setting per input mode (one setting is broadcast).

    The unconditional dynamics ``dd`` and the terms of the filter flow
    At s + s At^T + Dt - s B B^T s are built once, as read-only arrays, from
    M = (sigma_in + sigma_m)^-1 per input mode in the pointer frame
    (measurement._pointer_inverse, _pointer_blocks):
    B = C Omega_m M^(1/2), E = Omega C sigma_in M^(1/2),
    At = A + Omega C (sigma_in M) Omega_m^T C^T, Dt = Omega C (sigma_in M sigma_m) C^T Omega^T.
    These are A + E B^T and D - E E^T without the cancellation: a quadrature
    an efficient homodyne measures has exactly zero in Dt, and sigma_in M =
    I - sigma_m M is within a rounding of 1, as close as At can hold it.
    One system and one input mode take the same products in float arithmetic
    on the 2x2 entries, zeros left as +0.0 as numpy's matmul leaves them.
    """

    base: DiffusiveModel
    settings: tuple
    dd: DriftDiffusion = field(init=False, repr=False)
    b: np.ndarray = field(init=False, repr=False)
    e: np.ndarray = field(init=False, repr=False)
    at: np.ndarray = field(init=False, repr=False)
    dtilde: np.ndarray = field(init=False, repr=False)
    bbt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, m = self.base.n, self.base.m
        settings = (self.settings,) * m if isinstance(self.settings, GeneralDyneSetting) else tuple(self.settings)
        if len(settings) != m:
            raise ValueError(f"expected {m} measurement settings, got {len(settings)}")
        dd = self.base.dd
        if n == m == 1:
            # Omega C and C Omega_m permute and negate the entries of C; so do their transposes.
            c00, c01, c10, c11 = self.base.c.ravel().tolist()
            oc, oc_t = (c10, c11, -c00, -c01), (c10, -c00, c11, -c01)
            co, co_t = (-c01, c00, -c11, c10), (-c01, -c11, c00, c10)
            p0, p1, p2, p3 = _pointer_blocks(float(self.base.sigma_in[0, 0]), settings[0])
            at = [x + y for x, y in zip(dd.a.ravel().tolist(), _mul2(_mul2(oc, p3), co_t))]
            x00, x01, x10, x11 = _mul2(_mul2(oc, p2), oc_t)
            dtilde = (0.5 * (x00 + x00), 0.5 * (x01 + x10), 0.5 * (x10 + x01), 0.5 * (x11 + x11))
            stack = (np.array([*_mul2(co, p0), *_mul2(oc, p1), *at, *dtilde]) + 0.0).reshape(4, 2, 2)
            stack.flags.writeable = False  # and so are the views unpacked from it
        else:
            # Per mode, the pointer-frame diagonals of M^(1/2), sigma_in M^(1/2), sigma_in M sigma_m and sigma_in M.
            blocks = np.zeros((4, 2 * m, 2 * m))
            for j, setting in enumerate(settings):
                nu, sl = float(self.base.sigma_in[2 * j, 2 * j]), slice(2 * j, 2 * j + 2)
                blocks[:, sl, sl] = np.reshape(_pointer_blocks(nu, setting), (4, 2, 2))
            oc, co = _omega(n) @ self.base.c, self.base.c @ _omega(m)
            b, (e, in_m_m, in_m) = co @ blocks[0], oc @ blocks[1:]
            dtilde = in_m_m @ oc.T
            stack = (b, e, dd.a + in_m @ co.T, 0.5 * (dtilde + dtilde.T))
            for x in stack:
                x.flags.writeable = False
        b, e, at, dtilde = stack
        bbt = b @ b.T  # numpy's matmul for every n, which may fuse multiply-adds: B B^T is b @ b.T bit for bit
        bbt.flags.writeable = False
        self.__dict__.update(settings=settings, dd=dd, b=b, e=e, at=at, dtilde=dtilde, bbt=bbt)


def _pointer_blocks(nu: float, setting: GeneralDyneSetting) -> list:
    """M^(1/2), sigma_in M^(1/2), sigma_in M sigma_m and sigma_in M for sigma_in = nu I, each as four row-major floats.

    Each is diagonal in the pointer frame (measurement._pointer_inverse) and
    rotated back by R_theta (measurement._from_pointer_frame).
    """
    (det, n11, _, n22), (k11, _, _, k22) = _pointer_inverse(nu, 0.0, nu, setting)
    c, s = math.cos(setting.theta_m), math.sin(setting.theta_m)
    r11, r22, k11, k22 = math.sqrt(n11 / det), math.sqrt(n22 / det), k11 / det, k22 / det
    diagonals = ((r11, r22), (nu * r11, nu * r22), (nu * k11, nu * k22), (1.0 - k11, 1.0 - k22))
    return [_from_pointer_frame(c, s, d1, 0.0, d2) for d1, d2 in diagonals]


def monitored(model: DiffusiveModel, setting) -> MonitoredModel:
    """Attach a general-dyne setting (one per input mode, or one broadcast) to a model."""
    return MonitoredModel(model, setting)


def _require_modes(n_state: int, n_model: int) -> None:
    if n_state != n_model:
        raise ValueError(f"initial state has {n_state} modes, model has {n_model}")


def _grid_steps(t_grid) -> np.ndarray:
    """Step lengths of a one-dimensional, finite, strictly increasing time grid."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1 or not np.isfinite(t).all() or ((steps := np.diff(t)).size and steps.min() <= 0):
        raise ValueError("time grid must be one-dimensional, finite and strictly increasing")
    return steps


def _uniform_steps(T: float, dt: float, what: str = "T") -> int:
    """Number of steps of length dt in a uniform grid on [0, T]; T must be a positive integer multiple of dt."""
    if not (math.isfinite(T) and math.isfinite(dt) and T > 0 and dt > 0):
        raise ValueError(f"{what} = {T} and dt = {dt} must be finite and positive")
    n_steps = int(round(T / dt))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"{what} = {T} must be a positive integer multiple of dt = {dt}")
    return n_steps


def _uniform_step(t: np.ndarray, n: int) -> float | None:
    """The step of a grid of n steps within _UNIFORM_TOL of uniform, else None (np.linspace is not bitwise uniform)."""
    h = (t[-1] - t[0]) / max(n, 1)
    return h if n and np.abs(t - t[0] - h * np.arange(n + 1)).max() <= _UNIFORM_TOL * np.abs(t).max() else None


def _compose(first: tuple, second: tuple) -> tuple:
    """The interval map (Phi, G, Q) of the flow over `first`'s interval and then over `second`'s.

    A map takes X to Q + Phi X (I + G X)^-1 Phi^T.  With W = (I + Q1 G2)^-1,
    the composite is Phi = Phi2 W Phi1, G = G1 + Phi1^T G2 W Phi1 and
    Q = Q2 + Phi2 W Q1 Phi2^T: one solve, and G and Q stay sums of positive
    semidefinite terms.  Either argument may be a stack of maps; the result
    is the stack of composites.
    """
    (phi1, g1, q1), (phi2, g2, q2) = first, second
    dim = phi1.shape[-1]
    lhs = np.eye(dim) + q1 @ g2
    w = np.linalg.solve(lhs, np.broadcast_to(np.concatenate((phi1, q1), -1), (*lhs.shape[:-1], 2 * dim)))
    w_phi, w_q = w[..., :dim], w[..., dim:]
    g = g1 + np.swapaxes(phi1, -1, -2) @ g2 @ w_phi
    q = q2 + phi2 @ w_q @ np.swapaxes(phi2, -1, -2)
    return phi2 @ w_phi, 0.5 * (g + np.swapaxes(g, -1, -2)), 0.5 * (q + np.swapaxes(q, -1, -2))


def _interval_map(a, q, r, h: float) -> tuple:
    """The interval map (Phi, G, Q) of sigma' = A sigma + sigma A^T + Q - sigma R sigma over a time h.

    It takes sigma(0) to sigma(h) = Q + Phi sigma(0) (I + G sigma(0))^-1 Phi^T.
    With (c, H) from _hamiltonian, [U; V]' = H [U; V] carries X = V U^-1 = sigma / c
    along the flow (Radon's lemma), so with P = expm(H h) the map on X is read
    off P as G = P11^-1 P12, Phi = P22 - P21 G (= P11^-T) and Q = P21 Phi^T
    (= P21 P11^-1), G and Q symmetric up to rounding.  P is taken over
    h0 = h / 2^k with h0 _flow_norm <= 1, where P11 is well conditioned, and
    the map is doubled k times (_compose), so a horizon costs log2 of its
    length and not a step per unit of time.  This is the doubling algorithm
    for Riccati flows (Anderson and Moore, Optimal Filtering, 1979).  R = 0
    gives G = 0, Phi = e^{Ah} and the Gramian Q = int_0^h e^{As} Q e^{A^T s} ds,
    which doubles as Q + e^{Ah} Q e^{A^T h}.  The map on sigma is that on X
    with G / c and c Q (c is a power of two).
    """
    c, ham = _hamiltonian(a, q, r)
    dim, norm = a.shape[0], _flow_norm(ham)
    k = max(0, math.ceil(math.log2(h) + math.log2(norm))) if norm > 0.0 else 0
    p = expm(ham * (h / 2.0**k))
    g = np.linalg.solve(p[:dim, :dim], p[:dim, dim:])
    phi = p[dim:, dim:] - p[dim:, :dim] @ g
    maps = phi, g, p[dim:, :dim] @ phi.T
    for _ in range(k):
        maps = _compose(maps, maps)
    return maps[0], maps[1] / c, c * maps[2]


def _flow_norm(ham: np.ndarray) -> float:
    """|A|_1 + sqrt(|Q|_1 |R|_1) from _hamiltonian's H: about |H|_1 with its coupling blocks scaled to one size.

    Unlike |H|_1 it does not grow with Q where R = 0, where the map is linear in Q.
    """
    (_, nr), (nq, na) = np.abs(ham).reshape(2, ham.shape[0] // 2, 2, -1).sum(axis=1).max(axis=2).tolist()
    return na + math.sqrt(nq * nr)


def _grid_maps(a, q, r, t_grid) -> tuple:
    """Stacks (Phi, G, Q) of the interval maps (_interval_map) from the first point of a time grid to each point.

    The first map is the identity (I, 0, 0).  A uniform grid is filled by
    doubling: the maps to points m..2m - 1 are those to points 0..m - 1
    composed after _interval_map(m h), which up to m h _flow_norm = 1 takes an
    expm of its own and past it is the map over m h / 2 composed with itself.
    (Each squaring doubles the relative error of the slow modes, so squaring
    up from the grid step would lose digits in proportion to the number of
    points.)  Grids within _UNIFORM_TOL of uniform count as uniform (np.linspace
    grids are not bitwise uniform).  Other grids chain their steps, one expm
    per distinct step length.
    """
    steps = _grid_steps(t_grid)
    dim, n = a.shape[0], steps.size
    maps = (np.tile(np.eye(dim), (n + 1, 1, 1)), np.zeros((n + 1, dim, dim)), np.zeros((n + 1, dim, dim)))
    h = _uniform_step(np.asarray(t_grid, dtype=float), n)
    if h is not None:
        norm = _flow_norm(_hamiltonian(a, q, r)[1])
        step, m = _interval_map(a, q, r, h), 1
        while True:
            k = min(m, n + 1 - m)
            for stack, new in zip(maps, _compose(step, [x[:k] for x in maps])):
                stack[m : m + k] = new
            m += k
            if m > n:
                return maps
            step = _interval_map(a, q, r, m * h) if m * h * norm <= 1.0 else _compose(step, step)
    props = {s: _interval_map(a, q, r, s) for s in set(steps.tolist())}
    for i, s in enumerate(steps.tolist()):
        for stack, new in zip(maps, _compose([x[i] for x in maps], props[s])):
            stack[i + 1] = new
    return maps


def _expandable(dd: DriftDiffusion) -> bool:
    """Whether a one-mode conditional flow with drift dd.a takes the closed form about its steady state.

    The expansion sigma_inf + e^{Ft} (...) e^{F^T t} cancels sigma_inf against
    itself and so loses about eps |sigma_inf| / |sigma(t)| of relative
    precision, where |sigma(t)| >= 1 for a physical CM.  The conditional
    steady state lies below the unconditional one, which is about
    |D| / (2 |alpha|) with alpha the spectral abscissa of A.  Drifts without
    a steady state (alpha >= 0), or whose estimate exceeds _EXPAND_MAX_SCALE
    (near threshold: about 2e-12 lost at the bound), take the interval maps
    instead (_grid_maps), as every flow of two or more modes does.  Decided
    from A and D alone, before any solve.
    """
    alpha = _spectral_abscissa(dd.a)
    return alpha < -TOL_HURWITZ and float(np.abs(dd.d).max()) <= -2.0 * alpha * _EXPAND_MAX_SCALE


def _dot2(*pairs) -> float:
    """The sum of x * y over the (x, y) pairs, correctly rounded: Dekker's exact products, summed by math.fsum."""
    terms = []
    for x, y in pairs:
        p = x * y
        xh, yh = x * 134217729.0, y * 134217729.0  # Veltkamp's split at 2^27 + 1
        xh, yh = xh - (xh - x), yh - (yh - y)
        xl, yl = x - xh, y - yh
        terms += (p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl)
    return math.fsum(terms)


def _grid_exp2(f: np.ndarray, tau: np.ndarray) -> tuple:
    """Entries (e00, e01, e10, e11) of e^{F tau} for a 2x2 F, each an array over the times tau >= 0.

    With m = tr F / 2, N = F - m I and d2 = ((f00 - f11) / 2)^2 + f01 f10,
    N^2 = d2 I, so e^{F tau} = e^{lam tau} (c0 I + c1 N) with lam the eigenvalue
    of largest real part (Moler and Van Loan, SIAM Rev. 45, 2003):

        d2 > 0 (real, delta = sqrt(d2)): lam = m + delta, c0 = (1 + e^{-2 delta tau}) / 2,
                                          c1 = (1 - e^{-2 delta tau}) / (2 delta);
        d2 < 0 (complex pair, w = sqrt(-d2)): lam = m, c0 = cos(w tau), c1 = sin(w tau) / w;
        d2 = 0 (repeated): lam = m, c0 = 1, c1 = tau.

    c0 and c1 are bounded by 1 and by tau, and e^{lam tau} multiplies them
    before N does, so a factor that underflows to 0 never meets an inf.  The
    scalars of F come from _exp2_scalars and the arrays from _exp2_entries,
    which also takes k matrices at once.
    """
    kind, *scalars = _exp2_scalars(f.tolist())
    return _exp2_entries((kind,), *scalars, tau)


def _exp2_scalars(f) -> tuple:
    """(kind, lam, delta, cap, half, f01, f10) of _grid_exp2 for a 2x2 F given as nested lists, in float arithmetic.

    kind is the sign of d2 and delta = sqrt(|d2|).  Near a double eigenvalue
    d2 is a difference of large terms and e^{F tau} moves by about tau^2 times
    its error, so d2 is summed exactly from f00 - f11 = s + e (Knuth's
    two-sum) and the products (_dot2), as is det F.  For m < 0,
    lam = det F / (m - delta) avoids the cancellation of m + delta (stiff F),
    and times past cap = 1000 / |lam|, where e^{lam tau} is 0, are clamped
    there (cap is inf for lam >= 0).
    """
    (f00, f01), (f10, f11) = f
    s = f00 - f11
    v = s - f00
    e = (f00 - (s - v)) - (f11 + v)  # s + e = f00 - f11 exactly
    m, half = 0.5 * (f00 + f11), 0.5 * s
    d2 = 0.25 * _dot2((s, s), (2.0 * s, e), (e, e), (4.0 * f01, f10))
    delta = math.sqrt(abs(d2))
    lam = m
    if d2 > 0.0:
        lam = m + delta if m >= 0.0 else _dot2((f00, f11), (-f01, f10)) / (m - delta)
    cap = 1e3 / -lam if lam < 0.0 else math.inf
    return (d2 > 0.0) - (d2 < 0.0), lam, delta, cap, half, f01, f10


def _exp2_entries(kinds, lam, delta, cap, half, f01, f10, tau) -> tuple:
    """The entries of e^{F tau} from the scalars of _exp2_scalars, as floats for one F or as (k, 1) columns for k.

    For k matrices the entries are (k, len(tau)) arrays, row i that of the
    i-th F, bit for bit: every operation is elementwise.  Rows whose kinds
    differ take their own formula for c0 and c1.
    """
    tau, groups = np.minimum(tau, cap), set(kinds)
    if len(groups) == 1:
        c0, c1 = _exp2_coefficients(kinds[0], delta, tau)
    else:
        c0, c1 = np.empty_like(tau), np.empty_like(tau)
        for kind in groups:
            rows = [i for i, x in enumerate(kinds) if x == kind]
            c0[rows], c1[rows] = _exp2_coefficients(kind, delta[rows], tau[rows])
    g = np.exp(lam * tau)
    a, b = g * c0, g * c1
    return a + b * half, b * f01, b * f10, a - b * half


def _exp2_coefficients(kind: int, delta, tau) -> tuple:
    """c0 and c1 of _grid_exp2 for the sign kind of d2."""
    if kind > 0:
        x = np.expm1(-2.0 * delta * tau)
        return 1.0 + 0.5 * x, x / (-2.0 * delta)
    if kind < 0:
        return np.cos(delta * tau), np.sin(delta * tau) / delta
    return 1.0, tau


def _expansion_scalars(a, r, sigma_inf, sigma0) -> tuple:
    """(kind, scalars) of one filter for _one_mode_expansion, in float arithmetic.

    kind and the first six scalars are _exp2_scalars of F = A - sigma_inf R,
    then come the entries (00, 01, 11) of W_inf, sigma_inf and
    Delta0 = sigma0 - sigma_inf.  W_inf = -(det F R + adj(F)^T R adj(F)) / (2 tr F det F)
    solves F^T W + W F + R = 0 in closed form.
    """
    f = (a - sigma_inf @ r).tolist()
    (f00, f01), (f10, f11) = f
    (r00, r01), (r10, r11) = r.tolist()
    r01 = 0.5 * (r01 + r10)
    det = f00 * f11 - f01 * f10
    p00, p01 = r00 * f11 - r01 * f10, r01 * f00 - r00 * f01  # R adj(F)
    p10, p11 = r01 * f11 - r11 * f10, r11 * f00 - r01 * f01
    k = -0.5 / ((f00 + f11) * det)
    w00, w01 = k * (det * r00 + f11 * p00 - f10 * p10), k * (det * r01 + f11 * p01 - f10 * p11)
    w11 = k * (det * r11 + f00 * p11 - f01 * p01)
    (s00, s01), (s10, s11) = sigma_inf.tolist()
    (d00, d01), (d10, d11) = (sigma0 - sigma_inf).tolist()
    kind, *exp2 = _exp2_scalars(f)
    return kind, (*exp2, w00, w01, w11, s00, 0.5 * (s01 + s10), s11, d00, 0.5 * (d01 + d10), d11)


def _one_mode_expansion(kinds, columns, tau) -> np.ndarray:
    """Exact flows sigma' = A sigma + sigma A^T + Q - sigma R sigma of k one-mode filters, about their steady states.

    Each filter's steady state sigma_inf must solve its algebraic equation
    and make F = A - sigma_inf R Hurwitz (_conditional_steady_state makes
    sure of both).  kinds and columns are _expansion_scalars of the k
    filters, the columns stacked to (k, 1) arrays.  The flows are the closed
    form of the module docstring at the times tau (from the first grid
    point) of one block, with every 2x2 product written out on (k, len(tau))
    arrays of entries and e^{Ft} in closed form (_exp2_entries), and
    (I + Delta0 W(t))^-1 as the adjugate over the determinant.  Every
    operation is elementwise, so a point's CM depends on its own tau alone,
    bit for bit.  Returns the (k, len(tau), 2, 2) CMs.
    """
    *exp2, w00, w01, w11, s00, s01, s11, d00, d01, d11 = columns
    e00, e01, e10, e11 = _exp2_entries(kinds, *exp2, tau)
    # W(t) = W_inf - E^T W_inf E
    p00, p01 = w00 * e00 + w01 * e10, w00 * e01 + w01 * e11
    p10, p11 = w01 * e00 + w11 * e10, w01 * e01 + w11 * e11
    v00, v01, v11 = w00 - (e00 * p00 + e10 * p10), w01 - (e00 * p01 + e10 * p11), w11 - (e01 * p01 + e11 * p11)
    # M = I + Delta0 W(t); the core (I + Delta0 W)^-1 Delta0 = adj(M) Delta0 / det M is symmetric
    m00, m01 = 1.0 + d00 * v00 + d01 * v01, d00 * v01 + d01 * v11
    m10, m11 = d01 * v00 + d11 * v01, 1.0 + d01 * v01 + d11 * v11
    inv = 1.0 / (m00 * m11 - m01 * m10)
    k00, k01, k11 = (m11 * d00 - m01 * d01) * inv, (m11 * d01 - m01 * d11) * inv, (m00 * d11 - m10 * d01) * inv
    # sigma_inf + E core E^T
    y00, y01 = e00 * k00 + e01 * k01, e00 * k01 + e01 * k11
    y10, y11 = e10 * k00 + e11 * k01, e10 * k01 + e11 * k11
    o00, o01, o11 = s00 + (y00 * e00 + y01 * e01), s01 + (y00 * e10 + y01 * e11), s11 + (y10 * e10 + y11 * e11)
    return np.stack((o00, o01, o01, o11), axis=-1).reshape(len(kinds), -1, 2, 2)


def _hamiltonian(a, q, r) -> tuple[float, np.ndarray]:
    """(c, H = [[-A^T, c R], [Q / c, A]]), the Hamiltonian of sigma' = A sigma + sigma A^T + Q - sigma R sigma.

    It carries X = sigma / c, whose flow has Q / c and c R in place of Q and R.  c is
    sqrt(|Q| / |R|) (max-norms) truncated to a power of two towards 1 (1 if Q or R is 0): exact,
    and it leaves the coupling blocks within a factor 4, where unbalanced |H| grows with nu_in.
    Its exponential gives the interval maps of the flow (_interval_map), and
    its stable invariant subspace the steady state (steady_state_conditional).
    """
    c = _balance(*(max(map(abs, x.ravel().tolist())) for x in (q, r)))  # float arithmetic: small numpy calls cost more
    return c, np.concatenate((np.concatenate((-a.T, c * r), 1), np.concatenate((q / c, a), 1)))  # np.block is slower


def _balance(nq: float, nr: float) -> float:
    """The c of _hamiltonian from the max-norms of Q and R."""
    return 2.0 ** int(0.5 * (math.log2(nq) - math.log2(nr))) if nq > 0.0 and nr > 0.0 else 1.0


def _decoupled_roots(mm: MonitoredModel) -> np.ndarray | None:
    """Per-coordinate stabilizing steady state where the filter decouples, else None.

    The filter decouples when At, Dt and B B^T are diagonal: off-diagonal
    entries within _DECOUPLED_TOL of each matrix's largest entry.  Coordinate
    i then solves b s^2 - 2 a s - d = 0 (a, d, b its diagonal entries), and
    the stabilizing root, with closed loop a - s b = -sqrt(a^2 + b d), is taken
    in its cancellation-free form.  The drift must be Hurwitz, so that an
    unobserved coordinate (b = 0) has a < 0.
    """
    # Row-major flat entries, whose diagonal has stride dim + 1 (float arithmetic: small numpy calls cost more).
    data, stride = [x.ravel().tolist() for x in (mm.at, mm.dtilde, mm.bbt)], mm.at.shape[0] + 1
    for x in data:
        if max(abs(v) for k, v in enumerate(x) if k % stride) > _DECOUPLED_TOL * max(map(abs, x)):
            return None
    roots = []
    for a, d, b in zip(*(x[::stride] for x in data)):
        r = math.sqrt(a * a + b * d)
        roots.append((a + r) / b if a > 0.0 else d / (r - a))
    return np.array(roots)


def _conditional_steady_state(mm: MonitoredModel) -> np.ndarray:
    """The steady state a conditional flow expands about: _decoupled_roots(mm), else steady_state_conditional(mm)."""
    roots = _decoupled_roots(mm)
    return steady_state_conditional(mm) if roots is None else np.diag(roots)


def evolve_conditional_cm(mm: MonitoredModel, sigma0: np.ndarray, t_grid) -> np.ndarray:
    """Conditional CM along a time grid, from the exact Riccati flow.

    The k = 1 case of _conditional_blocks: one mode for which _expandable(mm.dd)
    holds takes the closed form about the conditional steady state, which it
    finds itself (_conditional_steady_state, _one_mode_expansion), block by
    block.  Every other flow takes the interval maps from the first grid
    point (_mapped_flow), with no steady state.  The result does not depend
    on the grid spacing: every grid point carries the exact flow value up to
    round-off, however coarse the grid.  A flow that leaves the
    floating-point range raises NumericError.
    """
    blocks = [cms[0] for _, cms in _conditional_blocks((mm,), *_flow_start(mm, sigma0, t_grid))]
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _flow_start(mm: MonitoredModel, sigma0, t_grid) -> tuple[np.ndarray, np.ndarray]:
    """sigma0 checked as a state of mm's modes, and the time grid checked (_grid_steps), both as float arrays."""
    sigma = np.asarray(sigma0, dtype=float)
    validate_state(np.zeros(sigma.shape[0]), sigma)
    _require_modes(sigma.shape[0] // 2, mm.base.n)
    _grid_steps(t_grid)
    return sigma, np.asarray(t_grid, dtype=float)


def _conditional_blocks(mms, sigma: np.ndarray, t: np.ndarray):
    """Conditional CMs of the filters mms of one model from sigma along the grid t (checked by _flow_start).

    Yields (lo, cms), cms of shape (k, b, 2n, 2n) holding the k flows at
    t[lo : lo + b].  One mode for which _expandable holds takes the closed
    form (_one_mode_expansion), each filter's steady state and scalars
    computed once, on equal blocks of at most _BLOCK_FLOATS / k points; the first
    grid point carries sigma itself.  Every other flow takes its interval
    maps (_mapped_flow), one filter at a time, all points in one block.  A
    flow that leaves the floating-point range raises NumericError.
    """
    if sigma.shape == (2, 2) and _expandable(mms[0].dd):
        kinds, columns = zip(*(_expansion_scalars(mm.at, mm.bbt, _conditional_steady_state(mm), sigma) for mm in mms))
        # (k, 1) columns broadcast over a block; one filter keeps floats, which numpy applies faster.
        columns = columns[0] if len(mms) == 1 else np.array(columns).T[..., None]
        blocks = -(-t.size * len(mms) // _BLOCK_FLOATS)  # as few as fit, of equal size
        tau, size = t - t[0], -(-t.size // blocks)
        for lo in range(0, t.size, size):
            cms = _one_mode_expansion(kinds, columns, tau[lo : lo + size])
            if lo == 0:
                cms[:, 0] = sigma  # sigma_inf + (sigma0 - sigma_inf) need not round back to sigma0
            yield lo, _finite(cms)
    else:
        flows = [_finite(_mapped_flow(mm, sigma, t)) for mm in mms]
        yield 0, np.stack(flows)


def _mapped_flow(mm: MonitoredModel, sigma: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The conditional CM along t from the interval maps (_grid_maps), with no steady state.

    The maps carry the flow of sigma - B from B = _MAP_BASE sigma0:
    sigma(t) = B + Q_t + Phi_t S (I + G_t S)^-1 Phi_t^T with S = sigma0 - B,
    one stacked solve.
    """
    # sigma - B follows the flow with drift At - B R and source the Riccati right-hand side at B.
    base = _MAP_BASE * sigma
    q = mm.at @ base + base @ mm.at.T + mm.dtilde - base @ mm.bbt @ base
    phis, gs, qs = _grid_maps(mm.at - base @ mm.bbt, 0.5 * (q + q.T), mm.bbt, t)
    start = sigma - base
    core = np.linalg.solve(np.eye(sigma.shape[0]) + start @ gs, np.broadcast_to(start, gs.shape))
    out = base + qs + phis @ core @ np.swapaxes(phis, 1, 2)
    out = 0.5 * (out + np.swapaxes(out, 1, 2))
    out[0] = sigma
    return out


def _finite(cms: np.ndarray) -> np.ndarray:
    if not np.isfinite(cms).all():
        raise NumericError("the conditional CM flow left the floating-point range")
    return cms


def riccati_residual(mm: MonitoredModel, sigma: np.ndarray) -> float:
    """Max-norm residual of the algebraic Riccati equation At s + s At^T + Dt - s B B^T s at sigma."""
    return float(np.abs(mm.at @ sigma + sigma @ mm.at.T + mm.dtilde - sigma @ mm.bbt @ sigma).max())


def _mul2(x, y) -> tuple:
    """Product of two 2x2 matrices given as row-major sequences of four floats."""
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return x00 * y00 + x01 * y10, x00 * y01 + x01 * y11, x10 * y00 + x11 * y10, x10 * y01 + x11 * y11


def _relative_residual(a, q, r, sigma) -> float:
    """Max-norm residual of A s + s A^T + Q - s R s at sigma over the largest max-norm of its terms Q, A s and s R s.

    That scale is positive for a Hurwitz drift; a correctly rounded sigma leaves about 1e-14.
    2x2 data, as arrays or as row-major sequences of four floats, take the same products in float arithmetic.
    """
    if not isinstance(sigma, np.ndarray) or sigma.shape == (2, 2):
        a, q, r, s = (x.ravel().tolist() if isinstance(x, np.ndarray) else x for x in (a, q, r, sigma))
        a_s, s_at, s_r_s = _mul2(a, s), _mul2(s, (a[0], a[2], a[1], a[3])), _mul2(_mul2(s, r), s)
        return max(abs(x + y + z - w) for x, y, z, w in zip(a_s, s_at, q, s_r_s)) / max(map(abs, (*q, *a_s, *s_r_s)))
    a_s, s_r_s = a @ sigma, sigma @ r @ sigma
    residual = float(np.abs(a_s + sigma @ a.T + q - s_r_s).max())
    return residual / max(float(np.abs(x).max()) for x in (q, a_s, s_r_s))


def _one_mode_basis(h: list) -> list:
    """Rows of [U; V], two columns spanning the stable invariant subspace of -H for a 4x4 Hamiltonian H.

    H is a nested list and the arithmetic is float arithmetic (no LAPACK).
    H's characteristic polynomial is l^4 + p l^2 + s, p = -tr(H^2) / 2 and
    s = det H.  With l1, l2 the eigenvalues of H of positive real part (those
    of -H of negative real part), l1 l2 = sqrt(s) and l1 + l2 = sqrt(-p + 2 sqrt(s))
    are real, also for a complex pair, and M = (H + l1)(H + l2) =
    H^2 + (l1 + l2) H + l1 l2 I maps onto their invariant subspace.  Of M's
    columns the two whose upper 2x2 block has the largest |det| are taken.
    s <= 0 or -p + 2 sqrt(s) <= 0 puts eigenvalues on the imaginary axis
    (one pair for s < 0, both otherwise): LinAlgError, worded as the Schur
    route words a stable subspace of the wrong dimension.
    """
    cols = tuple(zip(*h))
    h2 = [[r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3 for c0, c1, c2, c3 in cols] for r0, r1, r2, r3 in h]
    p = -0.5 * (h2[0][0] + h2[1][1] + h2[2][2] + h2[3][3])
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = h
    # Laplace expansion along the upper two rows: 2x2 minors of rows (0, 1) times their complements in rows (2, 3).
    s = (
        (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
        - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
        + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
        + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
        - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
        + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
    )
    if s <= 0.0 or -p + 2.0 * math.sqrt(s) <= 0.0:
        stable = 1 if s < 0.0 or (s == 0.0 and p < 0.0) else 0
        raise np.linalg.LinAlgError(f"the Riccati Hamiltonian has {stable} stable eigenvalues, expected 2")
    prod = math.sqrt(s)
    total = math.sqrt(-p + 2.0 * prod)
    m = [[x + total * y for x, y in zip(row2, row)] for row2, row in zip(h2, h)]
    for i in range(4):
        m[i][i] += prod
    m0, m1 = m[0], m[1]
    dets = [abs(m0[j] * m1[k] - m0[k] * m1[j]) for j, k in _COLUMN_PAIRS]
    j, k = _COLUMN_PAIRS[dets.index(max(dets))]
    return [[row[j], row[k]] for row in m]


# scipy's schur messages for a nonzero dgees info, by info - n (anything else: "Schur form not found. ...").
_GEES_FAILURES = {
    1: "Eigenvalues could not be separated for reordering.",
    2: "Leading eigenvalues do not satisfy sort condition.",
}


@lru_cache(maxsize=None)
def _gees_lwork(dim: int) -> int:
    """dgees's optimal workspace for a dim x dim matrix, queried once per dim as scipy's schur queries it per call."""
    return int(dgees(lambda x, y: None, np.zeros((dim, dim)), lwork=-1)[-2][0])


def _stable_schur(h: np.ndarray) -> tuple[np.ndarray, int]:
    """(Z, sdim): Schur vectors of h's real Schur form with its sdim eigenvalues of negative real part leading.

    One direct LAPACK dgees call with the select, workspace and checks of
    scipy's schur(h, output="real", sort="lhp"), so Z is schur's bit for bit:
    a non-finite h raises its ValueError and a nonzero info its LinAlgError.
    """
    if not np.isfinite(h).all():
        raise ValueError("array must not contain infs or NaNs")
    dim = h.shape[0]
    _, sdim, _, _, z, _, info = dgees(lambda x, y: x < 0.0, h, lwork=_gees_lwork(dim), sort_t=1)
    if info:
        raise np.linalg.LinAlgError(_GEES_FAILURES.get(info - dim, "Schur form not found. Possibly ill-conditioned."))
    return z, sdim


def steady_state_conditional(mm: MonitoredModel) -> np.ndarray:
    """Steady-state conditional CM from the continuous algebraic Riccati equation.

    Solves At s + s At^T + Dt - s B B^T s = 0 from a basis [U; V] of the
    stable invariant subspace of -H, with (c, H) from _hamiltonian, as
    s = c V U^-1.  One mode takes the basis in closed form
    (_one_mode_basis, float arithmetic on H built as a nested list, no LAPACK
    call) and takes the residual and closed loop below in float arithmetic
    too; from two modes on the basis is the first n vectors of one ordered
    real Schur decomposition of -H, a direct LAPACK call (_stable_schur), and
    the Hurwitz checks of the drift and the closed loop call dgeev directly
    (_spectral_abscissa).  A stable subspace of any other dimension, or a
    singular U, raises NumericError, and so does a U so nearly singular that
    sigma is not finite.  The solve with U loses precision with its condition
    number, so a solution whose relative residual (_relative_residual)
    is above SS_REFINE_RTOL is refined by at most SS_NEWTON_STEPS
    Newton-Kleinman steps, Lyapunov solves with the closed loop At - s B B^T.
    The result must be the stabilizing solution, have a relative residual
    within SS_RESIDUAL_TOL and pass symplectic._physicality_violation.
    """
    if not is_hurwitz(mm.dd.a):
        raise NoSteadyStateError("drift matrix is not Hurwitz; conditional steady state undefined")
    at, dtilde, bbt = mm.at, mm.dtilde, mm.bbt
    try:
        dim = at.shape[0]
        if dim == 2:
            # _hamiltonian's H as a nested list, built from the entries.
            a00, a01, a10, a11 = a = at.ravel().tolist()
            q00, q01, q10, q11 = q = dtilde.ravel().tolist()
            r00, r01, r10, r11 = r = bbt.ravel().tolist()
            c = _balance(max(abs(q00), abs(q01), abs(q10), abs(q11)), max(abs(r00), abs(r01), abs(r10), abs(r11)))
            ham = [
                [-a00, -a10, c * r00, c * r01],
                [-a01, -a11, c * r10, c * r11],
                [q00 / c, q01 / c, a00, a01],
                [q10 / c, q11 / c, a10, a11],
            ]
            (u00, u01), (u10, u11), (v00, v01), (v10, v11) = _one_mode_basis(ham)
            det = u00 * u11 - u01 * u10
            if det == 0.0 or not math.isfinite(det):
                raise np.linalg.LinAlgError(f"the stable basis has a singular upper block (det U = {det})")
            k = c / det  # sigma = c V U^-1, symmetrized
            off = 0.5 * k * ((v01 * u00 - v00 * u01) + (v10 * u11 - v11 * u10))
            s00, s11 = k * (v00 * u11 - v01 * u10), k * (v11 * u00 - v10 * u01)
            sigma, rel = np.array([[s00, off], [off, s11]]), _relative_residual(a, q, r, (s00, off, off, s11))
        else:
            c, ham = _hamiltonian(at, dtilde, bbt)
            z, sdim = _stable_schur(-ham)
            if sdim != dim:
                raise np.linalg.LinAlgError(f"the Riccati Hamiltonian has {sdim} stable eigenvalues, expected {dim}")
            sigma = c * np.linalg.solve(z[:dim, :dim].T, z[dim:, :dim].T)
            if not np.isfinite(sigma).all():
                raise np.linalg.LinAlgError("the stable basis has a nearly singular upper block (sigma not finite)")
            sigma = 0.5 * (sigma + sigma.T)
            rel = _relative_residual(at, dtilde, bbt, sigma)
        for _ in range(SS_NEWTON_STEPS):
            if rel <= SS_REFINE_RTOL:
                break
            sigma = _lyapunov(at - sigma @ bbt, dtilde + sigma @ bbt @ sigma)
            sigma = 0.5 * (sigma + sigma.T)
            rel = _relative_residual(at, dtilde, bbt, sigma)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"algebraic Riccati solve failed: {exc}") from exc
    if dim == 2:  # the closed loop At - sigma B B^T in float arithmetic
        f00, f01, f10, f11 = (x - y for x, y in zip(a, _mul2(sigma.ravel().tolist(), r)))
        closed = [[f00, f01], [f10, f11]]
    else:
        closed = at - sigma @ bbt
    if not is_hurwitz(closed):
        raise NumericError("Riccati solution is not stabilizing: At - sigma B B^T is not Hurwitz")
    if rel > SS_RESIDUAL_TOL:
        raise ConvergenceError(f"Riccati steady state has relative residual {rel:.3e} > {SS_RESIDUAL_TOL:.1e}")
    if (violation := _physicality_violation(sigma)) is not None:
        raise NumericError(f"Riccati steady state is unphysical: {violation}")
    return sigma


def _lift(e00, e01, e10, e11) -> np.ndarray:
    """The map G -> E G E^T, p -> E p of a 2x2 E on columns (G00, G01, G11, p0, p1)."""
    return np.array(
        [
            [e00 * e00, 2.0 * e00 * e01, e01 * e01, 0.0, 0.0],
            [e00 * e10, e00 * e11 + e01 * e10, e01 * e11, 0.0, 0.0],
            [e10 * e10, 2.0 * e10 * e11, e11 * e11, 0.0, 0.0],
            [0.0, 0.0, 0.0, e00, e01],
            [0.0, 0.0, 0.0, e10, e11],
        ]
    )


def _one_mode_moments(dd: DriftDiffusion, state0: GaussianState, t_grid) -> tuple[np.ndarray, np.ndarray]:
    """unconditional_path for one mode, on arrays of entries over the grid.

    e^{At} comes in closed form at every point (_grid_exp2).  The Gramian and
    the drive integral p(t) = int_0^t e^{As} d ds, as columns
    x = (G00, G01, G11, p0, p1), compose as x(t + s) = x(s) + _lift(e^{As}) x(t),
    so the Gramian stays a sum of positive terms; sigma_inf - e^{At} sigma_inf e^{A^T t}
    would cancel.  x of one step comes from the R = 0 interval map of the
    drift augmented by the drive (_interval_map).  A uniform grid doubles:
    with x known on points 0..m, points m+1..2m are x_m + _lift(e^{A t_m}) x_{1..m},
    one 5x5 product each.  Other grids chain their steps.
    """
    steps = _grid_steps(t_grid)
    t = np.asarray(t_grid, dtype=float)
    n = steps.size
    exps = np.stack(_grid_exp2(dd.a, t - t[0]))
    aug, diff = _augmented(dd)

    def step(s: float) -> np.ndarray:
        e, _, g = _interval_map(aug, diff, np.zeros_like(aug), s)
        return np.array([g[0, 0], 0.5 * (g[0, 1] + g[1, 0]), g[1, 1], e[0, 2], e[1, 2]])

    x = np.zeros((5, n + 1))
    h = _uniform_step(t, n)
    if h is not None:
        x[:, 1] = step(h)
        m = 1
        while m < n:
            k = min(m, n - m)
            x[:, m + 1 : m + k + 1] = x[:, m : m + 1] + _lift(*exps[:, m].tolist()) @ x[:, 1 : k + 1]
            m += k
    else:
        props = {}
        for i, (s, e_s) in enumerate(zip(steps.tolist(), np.stack(_grid_exp2(dd.a, steps), 1).tolist())):
            if s not in props:
                props[s] = step(s), _lift(*e_s)
            x_s, lift_s = props[s]
            x[:, i + 1] = x_s + lift_s @ x[:, i]
    e00, e01, e10, e11 = exps
    (r0, r1), ((s00, s01), (s10, s11)) = state0.mean.tolist(), state0.cm.tolist()
    s01 = 0.5 * (s01 + s10)
    means = np.stack((e00 * r0 + e01 * r1 + x[3], e10 * r0 + e11 * r1 + x[4]), axis=-1)
    y00, y01, y10, y11 = e00 * s00 + e01 * s01, e00 * s01 + e01 * s11, e10 * s00 + e11 * s01, e10 * s01 + e11 * s11
    c01 = y00 * e10 + y01 * e11 + x[1]
    cms = np.stack((y00 * e00 + y01 * e01 + x[0], c01, c01, y10 * e10 + y11 * e11 + x[2]), axis=-1)
    return means, cms.reshape(-1, 2, 2)


def _augmented(dd: DriftDiffusion) -> tuple[np.ndarray, np.ndarray]:
    """The drift augmented by the drive, [[A, d], [0, 0]], and the diffusion padded alike."""
    dim = dd.a.shape[0]
    aug, diff = np.zeros((dim + 1, dim + 1)), np.zeros((dim + 1, dim + 1))
    aug[:dim, :dim], aug[:dim, dim], diff[:dim, :dim] = dd.a, dd.drive, dd.d
    return aug, diff


def unconditional_path(dd: DriftDiffusion, state0: GaussianState, t_grid) -> tuple[np.ndarray, np.ndarray]:
    """Unconditional first and second moments along a time grid, exactly, for any drift.

    One mode takes _one_mode_moments.  More modes take the R = 0 interval maps
    (_grid_maps) of the augmented drift [[A, d], [0, 0]], whose Phi = e^{At}
    gives the means, r(t) = e^{At} r0 + int_0^t e^{As} d ds, and whose Q, with
    the diffusion padded alike, the Gramians: sigma(t) = e^{At} sigma0 e^{A^T t} + G(t).
    """
    _require_modes(state0.n, dd.a.shape[0] // 2)
    if dd.a.shape == (2, 2):
        return _one_mode_moments(dd, state0, t_grid)
    dim = dd.a.shape[0]
    aug, diff = _augmented(dd)
    exps, _, grams = _grid_maps(aug, diff, np.zeros_like(aug), t_grid)
    e = exps[:, :dim, :dim]
    means = e @ state0.mean + exps[:, :dim, dim]
    cms = e @ state0.cm @ np.swapaxes(e, 1, 2) + grams[:, :dim, :dim]
    return means, 0.5 * (cms + np.swapaxes(cms, 1, 2))


@dataclass(frozen=True, eq=False)
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


def _window_maps(mm: MonitoredModel, sigma_path: np.ndarray, dt: float, s: int) -> np.ndarray:
    """Transposed maps of the Euler-Maruyama scheme over each storage window of s steps.

    The scheme is the row recursion r_{j+1} = r_j P^T + d dt + dW_j G_j^T with
    P = I + A dt and gains G_j = E - sigma_c(t_j) B, and records
    dy_j = dW_j - dt r_j B.  Over a window both are affine in the start mean r_0
    and the window's s draws: with S_j = sum_{i<j} P^T^i (so P^T^s - I = dt S_s A^T),

        r_s - r_0 = r_0 dt S_s A^T + dt d S_s + sum_k dW_k G_k^T P^T^(s-1-k),
        sum_k dy_k = -r_0 dt S_s B - dt^2 d (sum_{j<s} S_j) B + sum_k dW_k (I - dt G_k^T S_{s-1-k} B).

    Row w of the result, C-contiguous and transposed, maps [r_0, 1, z_0, ..., z_{s-1}]
    (unit normal draws z_k = dW_k / sqrt(dt / 2); the 1 carries the drive) to
    (r_s - r_0, sum_k dy_k).
    """
    two_n, two_m = mm.dd.a.shape[0], mm.b.shape[1]
    a_t, b, drive = mm.dd.a.T, mm.b, mm.dd.drive
    # powers[j] = P^T^j, each an Euler step of the last so the identity is never rounded; sums[j] = S_j.
    powers = np.empty((s + 1, two_n, two_n))
    powers[0] = np.eye(two_n)
    for j in range(s):
        powers[j + 1] = powers[j] + (powers[j] @ a_t) * dt
    sums = np.concatenate((np.zeros((1, two_n, two_n)), np.cumsum(powers[:-1], axis=0)))
    g_t = np.swapaxes(mm.e - sigma_path[:-1] @ b, 1, 2).reshape(-1, s, two_m, two_n)
    to_mean = g_t @ powers[s - 1 :: -1]
    to_record = np.eye(two_m) - (g_t @ (sums[s - 1 :: -1] @ b)) * dt
    noise = math.sqrt(0.5 * dt) * np.concatenate((to_mean, to_record), 3).reshape(g_t.shape[0], s * two_m, -1)
    start = np.concatenate((sums[s] @ a_t, -(sums[s] @ b)), 1) * dt
    drive_row = np.concatenate((drive @ sums[s] * dt, -((drive @ sums[:s].sum(axis=0)) @ b) * dt**2))
    fixed = np.concatenate((start, drive_row[None]))  # the rows for r_0 and the 1, alike in every window
    maps = np.concatenate((np.broadcast_to(fixed, (noise.shape[0], *fixed.shape)), noise), 1)
    return np.ascontiguousarray(np.swapaxes(maps, 1, 2))


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
    keyed by (master_seed, k).  Increments have per-component variance dt/2
    (see module docstring).  ``store_stride`` decimates storage: means are
    stored every ``store_stride`` steps and records are summed over each
    storage window.

    Over a storage window the scheme is affine in the start mean and the
    window's draws, so its maps are built once per call (_window_maps) and
    each window is one product of [start mean, 1, draws] with its map instead
    of ``store_stride`` steps; stride 1 runs the same lines.  The product is
    an einsum rather than a BLAS matmul because each of its rows then does
    not depend on how many trajectories share it: results are byte-identical
    for a fixed seed whatever the chunk size.
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
    n_windows = n_steps // stride

    # Shared deterministic CM path at full resolution; the per-step gains enter the window maps.
    full_times = np.arange(n_steps + 1) * dt
    sigma_path = evolve_conditional_cm(mm, state0.cm, full_times)
    maps_t = _window_maps(mm, sigma_path, dt, stride)

    means = np.empty((n_traj, n_windows + 1, two_n))
    records = np.empty((n_traj, n_windows, two_m))

    def run_chunk(k0: int, k1: int) -> None:
        # Row w of a trajectory is [mean at stored time w, 1, draws of window w], so each
        # product writes the start of the next one in place; the last writes the final mean.
        x = np.empty((k1 - k0, n_windows, two_n + 1 + stride * two_m))
        for i, k in enumerate(range(k0, k1)):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(k,)))
            x[i, :, two_n + 1 :] = rng.standard_normal((n_steps, two_m)).reshape(n_windows, -1)
        x[:, 0, :two_n] = state0.mean
        x[:, :, two_n] = 1.0
        for w in range(n_windows):
            out = np.einsum("ik,jk->ij", x[:, w], maps_t[w])
            start = x[:, w + 1, :two_n] if w + 1 < n_windows else means[k0:k1, -1]
            np.add(x[:, w, :two_n], out[:, :two_n], out=start)
            records[k0:k1, w] = out[:, two_n:]
        means[k0:k1, :-1] = x[:, :, :two_n]

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
    means, cms = unconditional_path(mm.dd, state0, t_grid)
    return _daemonic_curve((mm,), means, cms, state0.cm, t_grid)[0]


def _daemonic_curve(mms, means, cms, sigma0, t_grid) -> np.ndarray:
    """Daemonic ergotropy on t_grid of the k filters mms of one model, from the unconditional moments on that grid.

    The unconditional path does not depend on the measurement, so callers
    comparing strategies compute it once and pass all the filters at once:
    sigma0 and the grid are checked and the energy taken once, and the
    conditional CMs of each block of _conditional_blocks go to one stacked
    symplectic-spectrum call.  Returns a (k, len(t_grid)) array, row i the
    curve of mms[i].  A negative beyond round-off raises NumericError
    naming the time and the filter's settings (theta_m, z_m).
    """
    sigma, t = _flow_start(mms[0], sigma0, t_grid)
    energy = 0.25 * np.trace(cms, axis1=1, axis2=2) + 0.5 * np.einsum("ij,ij->i", means, means)
    out = np.empty((len(mms), t.size))
    for lo, sig_c in _conditional_blocks(mms, sigma, t):
        hi = lo + sig_c.shape[1]
        out[:, lo:hi] = energy[lo:hi] - 0.5 * symplectic_eigenvalues(sig_c).sum(axis=-1)
    for row, i in (divmod(j, t.size) for j in np.flatnonzero(out < 0.0).tolist()):
        settings = ", ".join(f"theta_m = {x.theta_m:.6g}, z_m = {x.z_m:.6g}" for x in mms[row].settings)
        what = f"daemonic ergotropy at t = {t[i]:.6g} ({settings})"
        out[row, i] = clamp_ergotropy(float(out[row, i]), what, float(energy[i]))
    return out


def daemonic_ergotropy_t(mm: MonitoredModel, state0: GaussianState, t: float) -> float:
    """Daemonic ergotropy at a single time t, from the exact propagators on the grid [0, t]."""
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    grid = [0.0] if t == 0 else [0.0, t]
    return float(daemonic_ergotropy_path(mm, state0, grid)[-1])
