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
means across trajectories.  Trajectories are sampled exactly in distribution,
with no time step inside a stored window: given the mean at a stored time,
the next mean and the window's summed record are jointly Gaussian, with the
covariance of one interval map of the state and the record, corrected by
sigma_c at the window's two ends (_window_maps).  An ensemble therefore
depends on dt only through its stored grid.

Covariances are propagated exactly, not by a fixed-step integrator.  Both
flows are Riccati flows sigma' = A sigma + sigma A^T + Q - sigma R sigma, and
the flow over an interval h is the linear-fractional map

    sigma(h) = Q_h + Phi_h sigma(0) (I + G_h sigma(0))^-1 Phi_h^T,

read off the exponential of the flow's Hamiltonian matrix over a short
interval and doubled up to h (the doubling algorithm, _interval_map), so a
horizon costs log2 of its length.  Maps compose with one solve, G and Q
staying positive semidefinite (_compose).  A time grid is walked with states,
not maps (_grid_walk): the map over each doubled span carries the states
already computed at points 0..m - 1 to points m..2m - 1, one solve per point.
The unconditional flow has R = 0, so Phi = e^{At}, G = 0 and Q is the Gramian
int_0^t e^{As} D e^{A^T s} ds; it is walked in the drift augmented by the
drive, and the means ride along as vectors carried by each span's Phi
(unconditional_path).

Both flows follow one rule: a one-mode flow that decouples into one scalar
flow per coordinate takes their closed form, elementwise over the grid with
no expm, no doubling and no steady state; every other flow walks the grid.
The two closed forms share one kernel (_relaxation): x' = a x + s gives
x(t) = e^{at} x0 + s expm1(at) / a (s t at a = 0).  Every moment of a one-mode
diagonal drift (_uncoupled: the OPO at any chi~, driven or not) takes it
(_uncoupled_moments): a = a_i and the drive for the mean r_i, a = a_i + a_j
and D_ij for sigma_ij.  The conditional flow of a filter whose At, Dt and
B B^T are diagonal (_decoupled, as in the OPO at phase 0 or pi/2 or
heterodyne) is s' = 2 a s + d - b s^2 per coordinate, whose Hamiltonian
[[-a, b], [d, a]] squares to k^2 = a^2 + b d: sigma = V U^-1 is then a ratio
of sums of non-negative terms on the kernel at rate -2k (_decoupled_flow).
Both are exact at any horizon, near threshold and on a non-Hurwitz drift
alike.  The k filters of one model (a table of strategies) share one pass
(_conditional_blocks): sigma0 and the grid are checked once, each filter's
scalars (_riccati_scalars) are stacked as (k, 1) columns, and the closed
form runs on (k, block) arrays in blocks of at most _BLOCK_FLOATS values,
where numpy's temporaries stay small; every operation is elementwise, so
each point is the same bits whatever the blocking or k.  A block is the
filters' entry rows sigma00, sigma01 and sigma11, as the unconditional closed
form gives five moment rows (r0, r1, sigma00, sigma01, sigma11); a daemonic
ergotropy curve (_daemonic_curve) reads the energy and nu = sqrt(det sigma_c)
(symplectic._one_mode_spectrum) off them, with no 2x2 stack.  CM stacks are
built only where a public function returns them (_conditional_path for k = 1,
unconditional_path).  Every other conditional flow (a coupled filter, two or
more modes) walks the grid from sigma0, about a tiny multiple of it
(_MAP_BASE), filter by filter.  Either way the results do not depend on the
time grid.

The conditional steady state is the stable invariant subspace of the same
Hamiltonian (in closed form for one mode, with no LAPACK call; from one
ordered Schur decomposition for more, where the Schur form and the spectral
abscissae come from LAPACK's dgees and dgeev called directly, _stable_schur
and _spectral_abscissa; Newton-Kleinman steps refine it only when its
residual is above round-off).  That Hamiltonian is balanced so that its
norm does not grow with the environment noise (_hamiltonian; the steady
solve builds -H from the same blocks negated, with the balance read off the
filter's float entries).  Where the filter decouples, the steady state is the
stabilizing root of each coordinate's scalar Riccati equation
(_decoupled_roots).  Both routes test the drift with the same Hurwitz margin
(_require_hurwitz_drift), so just below threshold they give one verdict; a
model's read-only drift keeps it (DriftDiffusion._hurwitz), so the steady
solves of every filter of one model, and its unconditional steady state,
share one test.

The filter terms are written in the pointer frame, where homodyne is the exact
w = z_m / nu_m = 0 member of the general-dyne family (see MonitoredModel).

The environment is taken as given: each input mode's sigma_in block may be
any physical 2x2 CM, and a measurement setting refers to that mode's own
basis, the one sigma_in and C are written in.  A model and
its filter store read-only copies of their arrays.  One system and one input
mode (n = m = 1, the OPO among them) are built in float arithmetic on the 2x2
entries, with the checks and messages of the general route and the products
it takes (_one_mode_model, MonitoredModel); the zeros numpy's matmul leaves as
+0.0 stay +0.0, and B B^T is numpy's product for every n.  A filter keeps the
float entries of At, Dt and B B^T (MonitoredModel.entries), read once; the
steady solve of one mode builds its Hamiltonian from them as a nested list
and takes its basis and residual in float arithmetic, then the closed-loop
and physicality checks that every mode count takes.
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
from .measurement import GeneralDyneSetting, _from_pointer_frame, _pointer_frame_entries, _pointer_inverse
from .symplectic import (
    TOL_HURWITZ,
    TOL_SYM,
    GaussianState,
    _check_one_mode,
    _omega,
    _one_mode_spectrum,
    _physicality_violation,
    symplectic_eigenvalues,
    validate_state,
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
# A window covariance eigenvalue below -_WINDOW_CLIP times the size of its terms is not round-off (_window_maps).
_WINDOW_CLIP = 1e-12
# A time grid whose points lie within this fraction of its largest |t| of an
# exactly uniform grid is propagated as uniform (about 45 ulp).
_UNIFORM_TOL = 1e-14
# Interval maps of a conditional flow start from this multiple of sigma0, not from 0: where Dt is 0
# along an unstable direction of At (an efficient homodyne of an unstable quadrature), the flow from
# 0 rests there for ever and its maps overflow; from any positive definite start it moves off.
_MAP_BASE = 2.0**-52
# Filter data whose off-diagonal entries are within this fraction of each matrix's largest entry decouple
# (_decoupled): each coordinate then has its own scalar Riccati flow and steady state.
_DECOUPLED_TOL = 1e-12
# Grid points times filters in one block of the per-coordinate closed form (_conditional_blocks), so that each
# array of matrix entries holds at most 64 KB.  Larger ones page-fault on every call: on a 2-core AMD
# EPYC VM (numpy 2.4, resource.getrusage) transient_table at 30001 points took 5371 minor faults and
# 7.7 ms per call in one stacked pass, 1316 faults and 5.4 ms in these blocks.
_BLOCK_FLOATS = 8192
# Column pairs of a 4x4 matrix, in the order the one-mode stable basis tries them (_one_mode_basis).
_COLUMN_PAIRS = tuple(itertools.combinations(range(4), 2))


@dataclass(frozen=True, eq=False)
class DiffusiveModel:
    """System-environment model (H_S, C, sigma_in, mean_in) for n system and m input modes.

    The constructor validates shapes, finiteness and physicality, and stores
    ``c``, ``sigma_in`` and ``mean_in`` as given.  Each input mode's sigma_in
    block may be any physical CM, squeezed or not; correlations between input
    modes are not supported.  ``dd``, the unconditional dynamics, is derived
    once.  Every stored array is a read-only copy, so a caller that later
    writes to its own arrays leaves the model as it was.  One system and one
    input mode (n = m = 1) take the same checks and products in float
    arithmetic on the 2x2 entries (_one_mode_model).  ``_filter_inputs``
    holds what every filter of the model (MonitoredModel) reads and no
    setting changes, taken once here, as three items whose kind depends on
    the mode count, as MonitoredModel's two branches do: for one mode the
    row-major float entries of C, sigma_in and A, four each; for more modes
    the read-only Omega C and C Omega_m and a list of each bath's four
    row-major sigma_in entries.
    """

    h_s: np.ndarray
    c: np.ndarray
    sigma_in: np.ndarray
    mean_in: np.ndarray
    n: int = field(init=False)
    m: int = field(init=False)
    dd: DriftDiffusion = field(init=False, repr=False)
    _filter_inputs: tuple = field(init=False, repr=False)

    def __post_init__(self):
        h_s, c = np.array(self.h_s, dtype=float), np.array(self.c, dtype=float)
        sigma_in = np.array(self.sigma_in, dtype=float)
        mean_in = np.array(self.mean_in, dtype=float).reshape(-1)
        build = _one_mode_model if h_s.shape == c.shape == (2, 2) else _model
        h_s, c, sigma_in, mean_in, dd, inputs = build(h_s, c, sigma_in, mean_in)
        n, m = h_s.shape[0] // 2, c.shape[1] // 2
        self.__dict__.update(h_s=h_s, c=c, sigma_in=sigma_in, mean_in=mean_in, n=n, m=m, dd=dd, _filter_inputs=inputs)


def _require_environment_shapes(sigma_in, mean_in, m: int) -> None:
    if sigma_in.shape != (2 * m, 2 * m):
        raise ValueError(f"input CM shape {sigma_in.shape} does not match m = {m} input modes")
    if mean_in.size != 2 * m:
        raise ValueError(f"input mean length {mean_in.size} does not match m = {m} input modes")


def _model(h_s, c, sigma_in, mean_in) -> tuple:
    """(h_s, c, sigma_in, mean_in, dd, _filter_inputs) of DiffusiveModel: the checks and the unconditional dynamics."""
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
    rows = sigma_in.tolist()
    if any(v != 0.0 for i, row in enumerate(rows) for j, v in enumerate(row) if i // 2 != j // 2):
        raise ValueError("correlated input modes are not supported; sigma_in must be block-diagonal")
    h_s = 0.5 * (h_s + h_s.T)
    # Products with the symplectic forms only permute and negate entries, so they are exact in any order.
    oc, co = _omega(n) @ c, c @ _omega(m)
    d = oc @ sigma_in @ oc.T
    dd = DriftDiffusion(a=_omega(n) @ h_s + 0.5 * (oc @ _omega(m)) @ c.T, d=0.5 * (d + d.T), drive=oc @ mean_in)
    for x in (h_s, c, sigma_in, mean_in, oc, co, dd.a, dd.d, dd.drive):
        x.flags.writeable = False
    return h_s, c, sigma_in, mean_in, dd, (oc, co, sigma_in.take(_block_positions(m)[1]).tolist())


def _one_mode_model(h_s, c, sigma_in, mean_in) -> tuple:
    """_model for n = m = 1 in float arithmetic on the entries (small numpy calls cost more).

    The checks, their order and their messages are _model's, and sigma_in is
    checked by the same predicates, on the entries unpacked here
    (symplectic._check_one_mode).  The products are _model's, written out:
    Omega X permutes and negates rows, C Omega C^T = det(C) Omega, so the
    coupling adds -det(C) / 2 to the diagonal of A, and
    D = (Omega C sigma_in) (Omega C)^T.  Adding 0.0 to the derived entries
    leaves a zero as +0.0, as numpy's matmul does.
    """
    (h00, h01), (h10, h11) = h_s.tolist()
    (c00, c01), (c10, c11) = c.tolist()
    if not all(map(math.isfinite, (h00, h01, h10, h11, c00, c01, c10, c11))):
        raise ValueError("H_S and the coupling matrix must be finite")
    if abs(h01 - h10) > TOL_SYM:
        raise SymmetryError("Hamiltonian matrix H_S must be symmetric")
    _require_environment_shapes(sigma_in, mean_in, 1)
    (r0, r1), ((s00, s01), (s10, s11)) = mean_in.tolist(), sigma_in.tolist()
    _check_one_mode(r0, r1, s00, s01, s10, s11)
    h00, h01, h11 = 0.5 * (h00 + h00), 0.5 * (h01 + h10), 0.5 * (h11 + h11)  # H_S symmetrized
    k = 0.5 * (c01 * c10 - c00 * c11)
    g00, g01 = c10 * s00 + c11 * s10, c10 * s01 + c11 * s11  # Omega C sigma_in
    g10, g11 = -c00 * s00 - c01 * s10, -c00 * s01 - c01 * s11
    d00, d11 = g00 * c10 + g01 * c11, g10 * -c00 + g11 * -c01
    d01 = 0.5 * ((g00 * -c00 + g01 * -c01) + (g10 * c10 + g11 * c11))
    a_d = (h01 + k, h11, -h00, k - h01, 0.5 * (d00 + d00), d01, d01, 0.5 * (d11 + d11))
    entries = [h00, h01, h01, h11, c00, c01, c10, c11, s00, s01, s10, s11, *[x + 0.0 for x in a_d]]
    flat = np.array([*entries, r0, r1, c10 * r0 + c11 * r1 + 0.0, -c00 * r0 - c01 * r1 + 0.0])
    flat.flags.writeable = False  # and so are the views taken from it (indexed: unpacking a stack is slower)
    matrices, vectors = flat[:20].reshape(5, 2, 2), flat[20:].reshape(2, 2)
    h_s, c, sigma_in, a, d = matrices[0], matrices[1], matrices[2], matrices[3], matrices[4]
    inputs = entries[4:8], entries[8:12], entries[12:16]  # C, sigma_in and A
    return h_s, c, sigma_in, vectors[0], DriftDiffusion(a=a, d=d, drive=vectors[1]), inputs


@dataclass(frozen=True, eq=False)
class DriftDiffusion:
    """Unconditional dynamics: drift matrix ``a``, diffusion matrix ``d``, drive vector.

    ``_hurwitz`` is is_hurwitz(a).  Where ``a`` is a read-only array, as
    every model's is, the verdict is kept on first read, so the steady solves
    of every filter of one model share one test; a writeable ``a`` is tested
    on every read, so a caller that edits it in place gets a fresh verdict.
    A test that raises keeps nothing and raises again on the next read.
    """

    a: np.ndarray
    d: np.ndarray
    drive: np.ndarray

    @property
    def _hurwitz(self) -> bool:
        verdict = self.__dict__.get("_verdict")
        if verdict is None:
            verdict = is_hurwitz(self.a)
            if isinstance(self.a, np.ndarray) and not self.a.flags.writeable:
                self.__dict__["_verdict"] = verdict
        return verdict


def drift_diffusion(model: DiffusiveModel) -> DriftDiffusion:
    """Drift, diffusion and drive of the unconditional diffusive dynamics (built with the model)."""
    return model.dd


def _spectral_abscissa(a: np.ndarray) -> float:
    """Largest real part of the eigenvalues of a square matrix.

    A 2x2 [[a, b], [c, d]] takes the closed form tr / 2 + sqrt(max(disc, 0)),
    disc = ((a - d) / 2)^2 + b c, in float arithmetic; larger matrices, and a 2x2
    whose closed form is not finite, take LAPACK's dgeev without eigenvectors,
    called directly: the eigenvalues np.linalg.eigvals gives, bit for bit,
    with its LinAlgError on a non-finite matrix.  A nonzero info is a numeric
    failure, NumericError with eigvals' text.
    """
    if a.shape == (2, 2) and math.isfinite(alpha := _abscissa2(*a.ravel().tolist())):
        return alpha
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    wr, _, _, _, info = dgeev(a, compute_vl=0, compute_vr=0)
    if info:
        raise NumericError("Eigenvalues did not converge")
    return max(wr.tolist())


def _abscissa2(a00: float, a01: float, a10: float, a11: float) -> float:
    """_spectral_abscissa's closed form for the 2x2 [[a00, a01], [a10, a11]], inf or NaN where it is not finite."""
    half = 0.5 * (a00 - a11)
    return 0.5 * (a00 + a11) + math.sqrt(max(half * half + a01 * a10, 0.0))


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
    if not dd._hurwitz:
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
    M = (sigma_in + sigma_m)^-1 per input mode, with sigma_m in that mode's own
    basis, in the pointer frame (measurement._pointer_inverse, _pointer_blocks):
    B = C Omega_m M^(1/2), E = Omega C sigma_in M^(1/2),
    At = A + Omega C (sigma_in M) Omega_m^T C^T, Dt = Omega C (sigma_in M sigma_m) C^T Omega^T.
    These are A + E B^T and D - E E^T without the cancellation: a quadrature
    an efficient homodyne measures has exactly zero in Dt, and sigma_in M =
    I - sigma_m M is within a rounding of 1, as close as At can hold it.
    One system and one input mode take the same products in float arithmetic
    on the 2x2 entries, zeros left as +0.0 as numpy's matmul leaves them.
    From two modes on, the pointer blocks of all input modes are placed in
    their block-diagonal matrices by one indexed assignment (_block_positions),
    and each product is one matmul.  What does not depend on the setting
    (the entries of C, sigma_in and A for one mode; Omega C, C Omega_m and
    the bath blocks' entries for more) is read from the model
    (DiffusiveModel._filter_inputs), which takes it once for all its
    filters; those products only permute and negate entries, so the bits
    are those of forming them here.  ``entries`` holds the row-major entries
    of At, Dt and B B^T as float lists: one mode has At and Dt as floats
    already and reads B B^T off its array, more modes read all three, once,
    here.  The steady solves (_decoupled, steady_state_conditional) read
    these instead of converting arrays.
    """

    base: DiffusiveModel
    settings: tuple
    dd: DriftDiffusion = field(init=False, repr=False)
    b: np.ndarray = field(init=False, repr=False)
    e: np.ndarray = field(init=False, repr=False)
    at: np.ndarray = field(init=False, repr=False)
    dtilde: np.ndarray = field(init=False, repr=False)
    bbt: np.ndarray = field(init=False, repr=False)
    entries: tuple = field(init=False, repr=False)

    def __post_init__(self):
        n, m = self.base.n, self.base.m
        settings = (self.settings,) * m if isinstance(self.settings, GeneralDyneSetting) else tuple(self.settings)
        if len(settings) != m:
            raise ValueError(f"expected {m} measurement settings, got {len(settings)}")
        dd, inputs = self.base.dd, self.base._filter_inputs
        if n == m == 1:
            # Omega C and C Omega_m permute and negate the entries of C; so do their transposes.
            (c00, c01, c10, c11), bath, a = inputs
            oc, oc_t = (c10, c11, -c00, -c01), (c10, -c00, c11, -c01)
            co, co_t = (-c01, c00, -c11, c10), (-c01, -c11, c00, c10)
            p0, p1, p2, p3 = _pointer_blocks(bath, settings[0])
            at = [x + y for x, y in zip(a, _mul2(_mul2(oc, p3), co_t))]
            x00, x01, x10, x11 = _mul2(_mul2(oc, p2), oc_t)
            dtilde = (0.5 * (x00 + x00), 0.5 * (x01 + x10), 0.5 * (x10 + x01), 0.5 * (x11 + x11))
            flat = [x + 0.0 for x in (*_mul2(co, p0), *_mul2(oc, p1), *at, *dtilde)]
            stack = np.array(flat).reshape(4, 2, 2)
            stack.flags.writeable = False  # and so are the views taken from it
            stack, at_dt = (stack[0], stack[1], stack[2], stack[3]), (flat[8:12], flat[12:])
        else:
            # Per bath mode, M^(1/2), sigma_in M^(1/2), sigma_in M sigma_m and sigma_in M from its sigma_in block.
            oc, co, baths = inputs
            blocks = np.zeros(16 * m * m)
            blocks[_block_positions(m)[0]] = [
                x for bath, st in zip(baths, settings) for block in _pointer_blocks(bath, st) for x in block
            ]
            blocks = blocks.reshape(4, 2 * m, 2 * m)
            b, (e, in_m_m, in_m) = co @ blocks[0], oc @ blocks[1:]
            dtilde = in_m_m @ oc.T
            stack = (b, e, dd.a + in_m @ co.T, 0.5 * (dtilde + dtilde.T))
            for x in stack:
                x.flags.writeable = False
            at_dt = stack[2].ravel().tolist(), stack[3].ravel().tolist()
        b, e, at, dtilde = stack
        bbt = b @ b.T  # numpy's matmul for every n, which may fuse multiply-adds: B B^T is b @ b.T bit for bit
        bbt.flags.writeable = False
        entries = (*at_dt, bbt.ravel().tolist())
        self.__dict__.update(settings=settings, dd=dd, b=b, e=e, at=at, dtilde=dtilde, bbt=bbt, entries=entries)


@lru_cache(maxsize=None)
def _block_positions(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions in the (4, 2m, 2m) block-diagonal matrices of MonitoredModel of each mode's four pointer blocks.

    In the order of their entries: mode by mode, block by block, row-major
    within a block; (row, col) index the stack as a (4 * 2m, 2m) matrix.
    A mode's first block sits where its sigma_in block sits in a 2m x 2m
    matrix, so those positions, as an (m, 4) array, come second.
    """
    dim = 2 * m
    rows = [(k * dim + 2 * j + i // 2, 2 * j + i % 2) for j, k, i in itertools.product(range(m), range(4), range(4))]
    out = np.array([row * dim + col for row, col in rows])
    baths = out.reshape(m, 4, 4)[:, 0].copy()
    out.flags.writeable = baths.flags.writeable = False
    return out, baths


def _pointer_blocks(block, setting: GeneralDyneSetting) -> list:
    """M^(1/2), sigma_in M^(1/2), sigma_in M sigma_m and sigma_in M for one bath block, each as four row-major floats.

    block holds the bath's 2x2 sigma_in entries, row-major, and
    M = (sigma_in + sigma_m)^-1 with sigma_m in the bath's own basis.  All
    four are formed in the pointer frame, S = R^T sigma_in R
    (measurement._pointer_inverse), and rotated back by R_theta
    (measurement._from_pointer_frame).  A block that is exactly nu I is the
    same in every frame, and there the four are diagonal.  Any other takes
    the symmetric root M^(1/2) = (M + t I) / sqrt(tr M + 2 t), t = sqrt(det M)
    = sqrt(w / det) (det N = w det, nothing cancels), and S M^(1/2),
    S M sigma_m = S K / det and S M = I - K^T / det as 2x2 products.  Their
    antisymmetric part a J, J = [[0, 1], [-1, 0]], is the same in every frame
    (R J R^T = J), so only the symmetric part is rotated.
    """
    b11, b12, b21, b22 = block
    c, s = math.cos(setting.theta_m), math.sin(setting.theta_m)
    if b12 == b21 == 0.0 and b11 == b22:
        (det, n11, _, n22), (k11, _, _, k22) = _pointer_inverse(b11, 0.0, b11, setting)
        r11, r22, k11, k22 = math.sqrt(n11 / det), math.sqrt(n22 / det), k11 / det, k22 / det
        diagonals = ((r11, r22), (b11 * r11, b11 * r22), (b11 * k11, b11 * k22), (1.0 - k11, 1.0 - k22))
        return [_from_pointer_frame(c, s, d1, 0.0, d2) for d1, d2 in diagonals]
    _, _, s11, s12, s22 = _pointer_frame_entries(b11, 0.5 * (b12 + b21), b22, setting.theta_m)
    (det, n11, n12, n22), k = _pointer_inverse(s11, s12, s22, setting)
    t = math.sqrt(setting.z_m / setting.nu_m / det)
    norm = math.sqrt((n11 + n22) / det + 2.0 * t)
    r12 = n12 / det / norm
    root = ((n11 / det + t) / norm, r12, r12, (n22 / det + t) / norm)
    pointer_s = (s11, s12, s12, s22)
    blocks = (root, _mul2(pointer_s, root), [x / det for x in _mul2(pointer_s, k)],
              (1.0 - k[0] / det, -k[2] / det, -k[1] / det, 1.0 - k[3] / det))
    rotated = [(_from_pointer_frame(c, s, w, 0.5 * (x + y), z), 0.5 * (x - y)) for w, x, y, z in blocks]
    return [(y00, y01 + a, y01 - a, y11) for (y00, y01, _, y11), a in rotated]


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
    semidefinite terms.
    """
    (phi1, g1, q1), (phi2, g2, q2) = first, second
    dim = phi1.shape[0]
    w = np.linalg.solve(np.eye(dim) + q1 @ g2, np.concatenate((phi1, q1), 1))
    w_phi, w_q = w[:, :dim], w[:, dim:]
    g = g1 + phi1.T @ g2 @ w_phi
    q = q2 + phi2 @ w_q @ phi2.T
    return phi2 @ w_phi, 0.5 * (g + g.T), 0.5 * (q + q.T)


def _interval_map(a, q, r, h: float) -> tuple:
    """The interval map (Phi, G, Q) of sigma' = A sigma + sigma A^T + Q - sigma R sigma over a time h.

    It takes sigma(0) to sigma(h) = Q + Phi sigma(0) (I + G sigma(0))^-1 Phi^T.
    With (c, H) from _hamiltonian, [U; V]' = H [U; V] carries X = V U^-1 = sigma / c
    along the flow (Radon's lemma), so with P = expm(H h) the map on X is read
    off P as G = P11^-1 P12, Phi = P22 - P21 G (= P11^-T) and Q = P21 Phi^T
    (= P21 P11^-1), G and Q symmetric up to rounding.  P is taken over
    h0 = h / 2^k with h0 _flow_norm <= 1, where P11 is well conditioned, and
    the map is composed with itself k times (_compose), so a horizon costs
    log2 of its length and not a step per unit of time; _grid_walk applies
    it to states.  This is the doubling algorithm for Riccati flows
    (Anderson and Moore, Optimal Filtering, 1979).  R = 0
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


@np.errstate(all="ignore")
def _grid_walk(a, q, r, t: np.ndarray, x0: np.ndarray, v0: np.ndarray | None = None) -> tuple:
    """(states, vectors) of _interval_map's flow from x0 at the first point of a checked time grid, at every point.

    Each span's map carries states already computed, one solve per point,
    symmetrized.  A uniform grid doubles: the map over m h carries points
    0..m - 1 to m..2m - 1; it is a fresh _interval_map(m h) up to
    m h _flow_norm = 1 and the map over m h / 2 composed with itself past it
    (each squaring doubles the relative error of the slow modes, so squaring
    up from the grid step would lose digits in proportion to the number of
    points).  Grids within _UNIFORM_TOL of uniform count as uniform
    (np.linspace grids are not bitwise uniform); other grids chain their
    steps, one expm per distinct step length.  The vectors v0 (or None) ride
    along by each span's Phi, for R = 0 the linear flow.  t is checked by
    _flow_start.  A flow that overflows comes out inf or NaN, with no warning.
    """
    steps = np.diff(t)
    n, eye = steps.size, np.eye(a.shape[0])
    states = np.repeat(x0[None], n + 1, axis=0)
    vectors = None if v0 is None else np.repeat(v0[None], n + 1, axis=0)

    def carry(maps, src: slice, dst: slice) -> None:
        (phi, g, q_s), x = maps, states[src]
        y = q_s + phi @ np.linalg.solve(eye + x @ g, x) @ phi.T  # (I + X G)^-1 X = X (I + G X)^-1
        states[dst] = 0.5 * (y + np.swapaxes(y, 1, 2))
        if vectors is not None:
            vectors[dst] = vectors[src] @ phi.T

    h = _uniform_step(t, n)
    if h is not None:
        norm = _flow_norm(_hamiltonian(a, q, r)[1])
        step, m = _interval_map(a, q, r, h), 1
        while True:
            k = min(m, n + 1 - m)
            carry(step, slice(0, k), slice(m, m + k))
            m += k
            if m > n:
                return states, vectors
            step = _interval_map(a, q, r, m * h) if m * h * norm <= 1.0 else _compose(step, step)
    props = {s: _interval_map(a, q, r, s) for s in set(steps.tolist())}
    for i, s in enumerate(steps.tolist()):
        carry(props[s], slice(i, i + 1), slice(i + 1, i + 2))
    return states, vectors


def _hamiltonian(a, q, r) -> tuple[float, np.ndarray]:
    """(c, H = [[-A^T, c R], [Q / c, A]]), the Hamiltonian of sigma' = A sigma + sigma A^T + Q - sigma R sigma.

    It carries X = sigma / c, whose flow has Q / c and c R in place of Q and R.  c is
    sqrt(|Q| / |R|) (max-norms) truncated to a power of two towards 1 (1 if Q or R is 0): exact,
    and it leaves the coupling blocks within a factor 4, where unbalanced |H| grows with nu_in.
    Its exponential gives the interval maps of the flow (_interval_map), and
    its stable invariant subspace the steady state (steady_state_conditional, which builds -H itself).
    """
    c = _balance(*(max(map(abs, x.ravel().tolist())) for x in (q, r)))  # float arithmetic: small numpy calls cost more
    return c, _block_matrix(-a.T, c * r, q / c, a)


def _block_matrix(x00, x01, x10, x11) -> np.ndarray:
    """[[x00, x01], [x10, x11]] from four equal square blocks (np.block is slower)."""
    return np.concatenate((np.concatenate((x00, x01), 1), np.concatenate((x10, x11), 1)))


def _balance(nq: float, nr: float) -> float:
    """The c of _hamiltonian from the max-norms of Q and R."""
    return 2.0 ** int(0.5 * (math.log2(nq) - math.log2(nr))) if nq > 0.0 and nr > 0.0 else 1.0


def _decoupled(mm: MonitoredModel) -> list | None:
    """Per coordinate (a, d, b), the diagonal entries of At, Dt and B B^T, where the filter decouples, else None.

    The filter decouples when At, Dt and B B^T are diagonal: off-diagonal
    entries within _DECOUPLED_TOL of each matrix's largest entry.  Each
    coordinate then follows its own scalar Riccati flow s' = 2 a s + d - b s^2,
    whose steady state _decoupled_roots takes and whose transient one mode
    runs in closed form (_decoupled_flow).
    """
    # The row-major entries MonitoredModel keeps, whose diagonal has stride dim + 1 (float arithmetic).
    data, stride = mm.entries, 2 * mm.base.n + 1
    for x in data:
        mags = list(map(abs, x))
        scale = _DECOUPLED_TOL * max(mags)
        del mags[::stride]  # the off-diagonal magnitudes remain
        if max(mags) > scale:
            return None
    return list(zip(*(x[::stride] for x in data)))


def _decoupled_roots(mm: MonitoredModel) -> np.ndarray | None:
    """Per-coordinate stabilizing steady state where the filter decouples (_decoupled), else None.

    Coordinate i solves b s^2 - 2 a s - d = 0, and the stabilizing root, with
    closed loop a - s b = -sqrt(a^2 + b d), is taken in its cancellation-free
    form.  The drift must be Hurwitz, so that an unobserved coordinate
    (b = 0) has a < 0; it is tested as steady_state_conditional tests it
    (_require_hurwitz_drift), so the two routes agree just below threshold,
    and only where the filter decouples, so each route tests it once.
    """
    if (coordinates := _decoupled(mm)) is None:
        return None
    _require_hurwitz_drift(mm)
    roots = []
    for a, d, b in coordinates:
        r = math.sqrt(a * a + b * d)
        roots.append((a + r) / b if a > 0.0 else d / (r - a))
    return np.array(roots)


def _conditional_steady_state(mm: MonitoredModel) -> np.ndarray:
    """The conditional steady state: _decoupled_roots(mm), else steady_state_conditional(mm)."""
    roots = _decoupled_roots(mm)
    return steady_state_conditional(mm) if roots is None else np.diag(roots)


def _riccati_scalars(coordinates) -> list:
    """(k, c+, c-, b, d) of each coordinate (a, d, b) of _decoupled for _decoupled_flow, in float arithmetic.

    k = sqrt(a^2 + b d) and c+- = (k +- a) / 2k, with k + a = b d / (k - a)
    for a < 0 and k - a = b d / (k + a) for a > 0, so neither cancels; at
    k = 0, c+ = c- = 1/2.
    """
    out = []
    for a, d, b in coordinates:
        k = math.sqrt(a * a + b * d)
        plus, minus = k + a, k - a
        if a < 0.0:
            plus = b * d / minus
        elif a > 0.0:
            minus = b * d / plus
        c_plus, c_minus = (plus / (2.0 * k), minus / (2.0 * k)) if k > 0.0 else (0.5, 0.5)
        out += (k, c_plus, c_minus, b, d)
    return out


def _decoupled_flow(columns, start, tau) -> np.ndarray:
    """Exact flows of k one-mode filters that decouple (_decoupled) from one sigma0, at the times tau >= 0.

    columns are the filters' _riccati_scalars as (k, 1) arrays, start is
    (s00, s01, s11, det) of sigma0.  Per coordinate e^{H tau} scaled by
    e^{-k tau} is [[u, b h], [d h, v]], of determinant e = e^{-2k tau}, with
    h = -expm1(-2k tau) / 2k (tau at k = 0), u = c- + c+ e and v = c+ + c- e.
    [U; V] = e^{H tau} [I; sigma0] carries sigma = V U^-1 (Radon's lemma),
    which the adjugate of the 2x2 U gives as

        Delta = u0 u1 + u0 b1 h1 s11 + u1 b0 h0 s00 + b0 h0 b1 h1 det,
        sigma00 = (d0 h0 (u1 + b1 h1 s11) + v0 (s00 u1 + b1 h1 det)) / Delta, sigma11 alike,
        sigma01 = s01 e^{-(k0 + k1) tau} / Delta:

    every term is non-negative but for the sign of s01, so nothing cancels.
    Every operation is elementwise on (k, len(tau)) arrays, so a point's CM
    depends on its own tau alone, bit for bit.  A flow that leaves the
    floating-point range comes out inf or NaN, with no warning.  Returns the
    entry rows sigma00, sigma01 and sigma11 as one (3, k, len(tau)) array.
    """
    (k0, cp0, cm0, b0, d0, k1, cp1, cm1, b1, d1), (s00, s01, s11, det) = columns, start
    rows = np.empty((3, k0.shape[0], tau.size))
    with np.errstate(all="ignore"):
        (e0, h0), (e1, h1) = _relaxation(-2.0 * k0, tau), _relaxation(-2.0 * k1, tau)
        u0, u1, g0, g1 = cm0 + cp0 * e0, cm1 + cp1 * e1, b0 * h0, b1 * h1
        w0, w1 = u0 + g0 * s00, u1 + g1 * s11
        y0, y1 = s11 * u0 + g0 * det, s00 * u1 + g1 * det
        delta = u0 * w1 + g0 * y1
        np.divide(d0 * h0 * w1 + (cp0 + cm0 * e0) * y1, delta, out=rows[0])
        np.divide(d1 * h1 * w0 + (cp1 + cm1 * e1) * y0, delta, out=rows[2])
        rows[1] = s01 * np.exp(-(k0 + k1) * tau) / delta if s01 else 0.0
    return rows


def _relaxation(rate, tau) -> tuple:
    """(e, h) = (e^{rate tau}, expm1(rate tau) / rate) for (k, 1) columns of rates, under the caller's errstate.

    x' = rate x + s relaxes as x(tau) = e x0 + h s, of any sign of rate;
    where the rate is 0 the quotient is 0 / 0, and h is tau.
    """
    x = rate * tau
    h = np.expm1(x)
    h /= rate
    return np.exp(x, out=x), h if rate.all() else np.where(rate != 0.0, h, tau)


def evolve_conditional_cm(mm: MonitoredModel, sigma0: np.ndarray, t_grid) -> np.ndarray:
    """Conditional CM along a time grid, from the exact Riccati flow.

    The k = 1 case of _conditional_blocks: one mode whose filter decouples
    (_decoupled) takes the closed form per coordinate (_decoupled_flow),
    block by block, and every other flow walks the grid with interval maps
    from its first point (_mapped_flow); neither needs a steady state.  The
    result does not depend on the grid spacing: every grid point carries the
    exact flow value up to round-off, however coarse the grid.  A flow that
    leaves the floating-point range raises NumericError.
    """
    sigma = np.asarray(sigma0, dtype=float)
    return _conditional_path(mm, sigma, _flow_start(mm.base.n, GaussianState(np.zeros(sigma.shape[0]), sigma), t_grid))


def _flow_start(n: int, state0: GaussianState, t_grid) -> np.ndarray:
    """The time grid as a float array, once state0 is checked as a state of n modes (validate_state) and the grid too."""
    validate_state(state0.mean, state0.cm)
    _require_modes(state0.n, n)
    _grid_steps(t_grid)
    return np.asarray(t_grid, dtype=float)


def _conditional_blocks(mms, sigma: np.ndarray, t: np.ndarray):
    """Conditional CMs of the filters mms of one model from sigma along the grid t (checked by _flow_start).

    Yields (span, flows), flows the k flows at t[span], a slice of the grid.
    One mode whose k filters all decouple takes the closed form per
    coordinate (_decoupled_flow), each filter's scalars computed once, on
    equal blocks of at most _BLOCK_FLOATS / k points: flows is its tuple of
    (k, b) entry rows (sigma00, sigma01, sigma11), whose first point is sigma,
    symmetrized as symplectic_eigenvalues takes it.  Every other flow (a
    coupled filter among them, two or more modes) walks the grid with its
    interval maps (_mapped_flow), one filter at a time, all points in one
    block of (k, len(t), 2n, 2n) CMs.  A flow that leaves the floating-point
    range raises NumericError.
    """
    coordinates = [_decoupled(mm) for mm in mms] if sigma.shape == (2, 2) else [None]  # two or more modes walk
    if None in coordinates:
        flows = [_finite("conditional CM", _mapped_flow(mm, sigma, t)) for mm in mms]
        yield slice(0, t.size), np.stack(flows)
        return
    columns = np.array([_riccati_scalars(x) for x in coordinates]).T[..., None]  # (k, 1) columns
    (s00, s01), (s10, s11) = sigma.tolist()
    first = [[s00], [0.5 * s01 + 0.5 * s10], [s11]]  # the closed form at tau = 0 need not round back to sigma0
    s01 = 0.5 * (s01 + s10)
    start = s00, s01, s11, s00 * s11 - s01 * s01
    blocks = -(-t.size * len(mms) // _BLOCK_FLOATS)  # as few as fit, of equal size
    tau, size = t - t[0], -(-t.size // blocks)
    for lo in range(0, t.size, size):
        rows = _decoupled_flow(columns, start, tau[lo : lo + size])
        if lo == 0:
            rows[:, :, 0] = first
        yield slice(lo, lo + rows.shape[2]), tuple(_finite("conditional CM", rows))


def _conditional_path(mm: MonitoredModel, sigma: np.ndarray, t: np.ndarray) -> np.ndarray:
    """evolve_conditional_cm on a grid t that _flow_start has checked, the closed form's CMs written from its rows."""
    out = np.empty((t.size, *sigma.shape))
    entries = out.reshape(t.size, -1)
    for span, flows in _conditional_blocks((mm,), sigma, t):
        if isinstance(flows, tuple):
            ((o00,), (o01,), (o11,)), block = flows, entries[span]
            block[:, 0], block[:, 1], block[:, 2], block[:, 3] = o00, o01, o01, o11
        else:
            out[span] = flows[0]
    out[0] = sigma
    return out


def _mapped_flow(mm: MonitoredModel, sigma: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The conditional CM along t from the interval maps (_grid_walk), with no steady state.

    The walk carries S = sigma - B from sigma0 - B, B = _MAP_BASE sigma0.
    """
    # sigma - B follows the flow with drift At - B R and source the Riccati right-hand side at B.
    base = _MAP_BASE * sigma
    q = mm.at @ base + base @ mm.at.T + mm.dtilde - base @ mm.bbt @ base
    out = base + _grid_walk(mm.at - base @ mm.bbt, 0.5 * (q + q.T), mm.bbt, t, sigma - base)[0]
    out = 0.5 * (out + np.swapaxes(out, 1, 2))
    out[0] = sigma
    return out


def _finite(flow: str, x: np.ndarray) -> np.ndarray:
    """x, unless it holds an inf or NaN: then NumericError naming the flow."""
    if not np.isfinite(x).all():
        raise NumericError(f"the {flow} flow left the floating-point range")
    return x


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
    sigma is symmetric on every call, so s A^T is taken as (A s)^T, the same bits (each entry sums the
    same products in the same order, in BLAS as in _mul2), and the four max-norms come from one stacked array.
    2x2 data, as arrays or all four as row-major sequences of four floats, take the same products in float arithmetic.
    """
    if isinstance(sigma, np.ndarray) and sigma.shape == (2, 2):
        a, q, r, sigma = (x.ravel().tolist() for x in (a, q, r, sigma))
    if not isinstance(sigma, np.ndarray):
        a_s, s_r_s = _mul2(a, sigma), _mul2(_mul2(sigma, r), sigma)
        s_at = a_s[0], a_s[2], a_s[1], a_s[3]
        return max(abs(x + y + z - w) for x, y, z, w in zip(a_s, s_at, q, s_r_s)) / max(map(abs, (*q, *a_s, *s_r_s)))
    a_s, s_r_s = a @ sigma, sigma @ r @ sigma
    terms = np.concatenate((a_s + a_s.T + q - s_r_s, q, a_s, s_r_s))
    residual, *scale = np.abs(terms).reshape(4, -1).max(1).tolist()
    return residual / max(scale)


def _one_mode_basis(h: list) -> list:
    """Rows of [U; V], two columns spanning the stable invariant subspace of -H for a 4x4 Hamiltonian H.

    H is a nested list and the arithmetic is float arithmetic (no LAPACK).
    H's characteristic polynomial is l^4 + p l^2 + s, p = -tr(H^2) / 2 and
    s = det H.  With l1, l2 the eigenvalues of H of positive real part (those
    of -H of negative real part), l1 l2 = sqrt(s) and l1 + l2 = sqrt(-p + 2 sqrt(s))
    are real, also for a complex pair, and M = (H + l1)(H + l2) =
    H^2 + (l1 + l2) H + l1 l2 I maps onto their invariant subspace.  Of M's
    columns the two whose upper 2x2 block has the largest |det| are taken;
    of H^2 only the entries these need are formed (rows 0 and 1, the
    diagonal, rows 2 and 3 at the two columns taken), each as the full
    product would form it.
    s <= 0 or -p + 2 sqrt(s) <= 0 puts eigenvalues on the imaginary axis
    (one pair for s < 0, both otherwise): LinAlgError, worded as the Schur
    route words a stable subspace of the wrong dimension.
    """
    h0, h1, h2, h3 = h
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = h
    cols = (a0, b0, c0, d0), (a1, b1, c1, d1), (a2, b2, c2, d2), (a3, b3, c3, d3)
    # Rows 0 and 1 of H^2 and its two other diagonal entries, each a row of H times a column summed left to right.
    sq0 = [a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3 for x0, x1, x2, x3 in cols]
    sq1 = [b0 * x0 + b1 * x1 + b2 * x2 + b3 * x3 for x0, x1, x2, x3 in cols]
    p = -0.5 * (sq0[0] + sq1[1] + (c0 * a2 + c1 * b2 + c2 * c2 + c3 * d2) + (d0 * a3 + d1 * b3 + d2 * c3 + d3 * d3))
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
    m0, m1 = [x + total * y for x, y in zip(sq0, h0)], [x + total * y for x, y in zip(sq1, h1)]
    m0[0] += prod
    m1[1] += prod
    dets = [abs(m0[j] * m1[k] - m0[k] * m1[j]) for j, k in _COLUMN_PAIRS]
    j, k = _COLUMN_PAIRS[dets.index(max(dets))]
    # Rows 2 and 3 of M at the two columns taken: H^2 there, then + total H, then + prod on the diagonal, as above.
    (x0, x1, x2, x3), (y0, y1, y2, y3) = cols[j], cols[k]
    m2 = [c0 * x0 + c1 * x1 + c2 * x2 + c3 * x3 + total * h2[j], c0 * y0 + c1 * y1 + c2 * y2 + c3 * y3 + total * h2[k]]
    m3 = [d0 * x0 + d1 * x1 + d2 * x2 + d3 * x3 + total * h3[j], d0 * y0 + d1 * y1 + d2 * y2 + d3 * y3 + total * h3[k]]
    for i, row in ((2, m2), (3, m3)):
        if j == i:
            row[0] += prod
        if k == i:
            row[1] += prod
    return [[m0[j], m0[k]], [m1[j], m1[k]], m2, m3]


# scipy's schur messages for a nonzero dgees info, by info - n (anything else: "Schur form not found. ...").
_GEES_FAILURES = {
    1: "Eigenvalues could not be separated for reordering.",
    2: "Leading eigenvalues do not satisfy sort condition.",
}


def _stable_schur(h: np.ndarray) -> tuple[np.ndarray, int]:
    """(Z, sdim): Schur vectors of h's real Schur form with its sdim eigenvalues of negative real part leading.

    One direct LAPACK dgees call with the select and checks of scipy's
    schur(h, output="real", sort="lhp"), at the wrapper's default workspace
    (3 dim) where schur queries the optimal one; on the Hamiltonians of one
    to six modes the two give the same Z, schur's bit for bit.  A non-finite
    h raises schur's ValueError and a nonzero info its LinAlgError.
    """
    if not np.isfinite(h).all():
        raise ValueError("array must not contain infs or NaNs")
    dim = h.shape[0]
    _, sdim, _, _, z, _, info = dgees(lambda x, y: x < 0.0, h, sort_t=1)
    if info:
        raise np.linalg.LinAlgError(_GEES_FAILURES.get(info - dim, "Schur form not found. Possibly ill-conditioned."))
    return z, sdim


def steady_state_conditional(mm: MonitoredModel) -> np.ndarray:
    """Steady-state conditional CM from the continuous algebraic Riccati equation.

    Solves At s + s At^T + Dt - s B B^T s = 0 from a basis [U; V] of the
    stable invariant subspace of -H, with (c, H) as _hamiltonian gives them,
    as s = c V U^-1.  The balance c comes from the float entries of Dt and
    B B^T that MonitoredModel keeps.  One mode reads all of At, Dt and B B^T
    there, builds H as a nested list and takes the basis in closed form
    (_one_mode_basis, no LAPACK call) and the residual in float arithmetic.
    From two modes on, -H is built entry by entry negated, the same bits as
    negating H, and the basis is the first n vectors of one ordered real
    Schur decomposition of -H, a direct LAPACK call (_stable_schur).  A
    stable subspace of any other dimension, or a singular U, raises
    NumericError, and so does a U so nearly singular that sigma is not
    finite.  The solve with U loses precision with its condition number, so
    a solution whose relative residual (_relative_residual) is above
    SS_REFINE_RTOL is refined by at most SS_NEWTON_STEPS Newton-Kleinman
    steps, Lyapunov solves with the closed loop At - s B B^T.  Every mode
    count then takes the same checks: the drift must be Hurwitz
    (_require_hurwitz_drift), and the result must be the stabilizing
    solution, have a relative residual within SS_RESIDUAL_TOL and pass
    symplectic._physicality_violation.  The Hurwitz checks take
    _spectral_abscissa's closed form for one mode and call dgeev directly
    from two modes on.
    """
    _require_hurwitz_drift(mm)
    at, dtilde, bbt = mm.at, mm.dtilde, mm.bbt
    a, q, r = mm.entries
    dim = at.shape[0]
    c = _balance(max(map(abs, q)), max(map(abs, r)))
    try:
        if dim == 2:
            # _hamiltonian's H as a nested list, built from the entries.
            (a00, a01, a10, a11), (q00, q01, q10, q11), (r00, r01, r10, r11) = a, q, r
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
            if not all(map(math.isfinite, (s00, off, s11))):
                raise np.linalg.LinAlgError("the stable basis has a nearly singular upper block (sigma not finite)")
            sigma, rel = np.array([[s00, off], [off, s11]]), _relative_residual(a, q, r, (s00, off, off, s11))
        else:
            # -H: each entry of _hamiltonian's H negated, exactly (-(c R) = R (-c), -(Q / c) = Q / (-c)).
            z, sdim = _stable_schur(_block_matrix(at.T, bbt * -c, dtilde / -c, -at))
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
    if not is_hurwitz(at - sigma @ bbt):
        raise NumericError("Riccati solution is not stabilizing: At - sigma B B^T is not Hurwitz")
    if rel > SS_RESIDUAL_TOL:
        raise ConvergenceError(f"Riccati steady state has relative residual {rel:.3e} > {SS_RESIDUAL_TOL:.1e}")
    if (violation := _physicality_violation(sigma)) is not None:
        raise NumericError(f"Riccati steady state is unphysical: {violation}")
    return sigma


def _require_hurwitz_drift(mm: MonitoredModel) -> None:
    """NoSteadyStateError unless the drift is Hurwitz: no conditional steady state exists otherwise.

    It reads DriftDiffusion._hurwitz, which a model's read-only drift keeps,
    so the filters of one model share one is_hurwitz test of it.
    """
    if not mm.dd._hurwitz:
        raise NoSteadyStateError("drift matrix is not Hurwitz; conditional steady state undefined")


def _uncoupled(dd: DriftDiffusion) -> bool:
    """Whether unconditional_path takes the closed form (_uncoupled_moments): one mode, a diagonal drift."""
    return dd.a.shape == (2, 2) and dd.a.ravel().tolist()[1:3] == [0.0, 0.0]


def _uncoupled_moments(dd: DriftDiffusion, state0: GaussianState, tau: np.ndarray) -> np.ndarray:
    """The moment rows (r0, r1, sigma00, sigma01, sigma11) of a flow that _uncoupled admits, at the times tau >= 0.

    tau counts from the first grid point.  Each moment is e x0 + h s, (e, h)
    from _relaxation on the five stacked rates of the module docstring: a
    variance of rate a < 0 is a sum of two non-negative terms, near threshold
    too.  Every operation is elementwise, so a point's moments depend on its
    own tau alone, bit for bit, and tau = 0 gives state0.  Returns a
    (5, len(tau)) array, once it is checked finite (_finite_moments).
    """
    (a0, _), (_, a1) = dd.a.tolist()
    (s00, s01), (s10, s11), (d00, d01), (_, d11) = *state0.cm.tolist(), *dd.d.tolist()
    rates = [a0, a1, a0 + a0, a0 + a1, a1 + a1]
    starts, sources = [*state0.mean.tolist(), s00, 0.5 * (s01 + s10), s11], [*dd.drive.tolist(), d00, d01, d11]
    rates, starts, sources = np.array([rates, starts, sources])[..., None]  # (5, 1) columns
    with np.errstate(all="ignore"):
        x, h = _relaxation(rates, tau)
        x *= starts
        h *= sources
        x += h
    del h  # freed before the checks' temporaries, which would add to the peak of x and h (3 MB at 1e6 points)
    _finite_moments(x[:2], x[2:])
    return x


def _finite_moments(means: np.ndarray, cms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(means, cms) unless either is not finite (_finite), the CM first: its inf times 0 can make a mean of 0 NaN."""
    _finite("unconditional CM", cms)
    return _finite("unconditional mean", means), cms


def unconditional_path(dd: DriftDiffusion, state0: GaussianState, t_grid) -> tuple[np.ndarray, np.ndarray]:
    """Unconditional first and second moments along a time grid, exactly, for any drift.

    One mode with a diagonal drift (_uncoupled: the OPO at any chi~, driven
    or not) takes the closed form per coordinate (_uncoupled_moments).  Every
    other drift walks the R = 0 flow of the augmented drift [[A, d], [0, 0]]
    and padded diffusion (_grid_walk) from [[sigma0, 0], [0, 0]], whose upper
    block is e^{At} sigma0 e^{A^T t} + G(t), and the means
    r(t) = e^{At} r0 + int_0^t e^{As} d ds ride along as the vectors
    [r(t); 1] = Phi [r0; 1], so r0 enters no matrix and cannot overflow one.
    state0 must be a valid state (validate_state).  Moments that leave the
    floating-point range raise NumericError, the CM's first.  Either way the
    means and the CMs are arrays of their own, not views that would keep a
    route's larger moment array alive.
    """
    return _unconditional_path(dd, state0, _flow_start(dd.a.shape[0] // 2, state0, t_grid))


def _unconditional_path(dd: DriftDiffusion, state0: GaussianState, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """unconditional_path on a grid t that _flow_start has checked with state0."""
    if _uncoupled(dd):
        x = _uncoupled_moments(dd, state0, t - t[0])
        return x[:2].T.copy(), np.stack((x[2], x[3], x[3], x[4]), axis=-1).reshape(-1, 2, 2)
    dim = dd.a.shape[0]
    aug, diff = np.zeros((dim + 1, dim + 1)), np.zeros((dim + 1, dim + 1))
    aug[:dim, :dim], aug[:dim, dim], diff[:dim, :dim] = dd.a, dd.drive, dd.d
    start = np.pad(0.5 * (state0.cm + state0.cm.T), (0, 1))  # [[sigma0, 0], [0, 0]]
    cms, vectors = _grid_walk(aug, diff, np.zeros_like(aug), t, start, np.append(state0.mean, 1.0))
    means, cms = _finite_moments(vectors[:, :dim], cms[:, :dim, :dim])
    return means.copy(), cms.copy()


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Ensemble of monitored trajectories sharing one deterministic CM path.

    ``means`` has shape (n_traj, n_stored, 2n); ``records`` holds the measured
    dy increments summed over each storage window, shape
    (n_traj, n_stored - 1, 2m); ``sigma_c`` is the common conditional CM path.
    ``seed`` is the master seed: trajectory k is driven by the standard
    normals [k W D, (k + 1) W D) of default_rng(seed), with W = n_stored - 1
    windows and D = 2n + 2m normals per window (simulate_trajectories).
    """

    times: np.ndarray
    means: np.ndarray
    records: np.ndarray
    sigma_c: np.ndarray
    seed: int

    @property
    def n_traj(self) -> int:
        return self.means.shape[0]


def _window_maps(mm: MonitoredModel, sigma_c: np.ndarray, h: float) -> np.ndarray:
    """Exact maps of the conditional means and records over each storage window of length h.

    In the innovations picture the state x that the filter estimates, the
    record Y and a constant input c (the drive d) follow a linear SDE with
    constant coefficients: z = (x, Y, c) has dz = F z dt plus noise of
    covariance N dt / 2, with

        F = [[A, 0, I], [-B^T, 0, 0], [0, 0, 0]],   N = [[D, E, 0], [E^T, I, 0], [0, 0, 0]].

    One R = 0 interval map of this flow (_interval_map, doubled up to h)
    gives Phi = e^{Fh} and the Gramian Q.  Phi's c columns hold
    S = int_0^h e^{As} ds, so the window moves a start [x; 0; 0] by
    [A; -B^T] S x, with none of the rounding of e^{Ah} - I.  Given the record
    up to the stored time t_w, x(t_w) has mean r_w and covariance
    sigma_c(t_w) / 2, and x(t_w+1) is r_w+1 plus an error of covariance
    sigma_c(t_w+1) / 2 independent of the record.  So (r_w+1, sum dy) has
    mean Phi [r_w; 0; d] and covariance

        C_w = (Q - diag(sigma_c(t_w+1), 0) + Phi diag(sigma_c(t_w), 0) Phi^T) / 2,

    exactly, however many steps the window holds.  sigma_c(t_w) - sigma_c(t_w+1)
    is one difference and the rest comes from [A; -B^T] S, so C_w is off by
    about eps s_w, s_w half the largest max-norm of its terms (on a short
    window, that of sigma_c).  It is factored rank-revealingly, by its
    symmetric square root from one stacked eigh, which does not depend on
    how a repeated eigenspace is split: an eigenvalue below 2n eps s_w is
    taken as 0 (hom0 leaves one quadrature of the mean deterministic), and
    one below -_WINDOW_CLIP s_w, or a map that leaves the floating-point
    range, raises NumericError.  Row w of the result, C-contiguous, maps
    [r_w, 1, z_w] (z_w: 2n + 2m unit normals) to (r_w+1 - r_w, sum dy).
    """
    two_n, two_m = mm.dd.a.shape[0], mm.b.shape[1]
    dim = two_n + two_m
    f, diffusion = np.zeros((2, dim + two_n, dim + two_n))
    f[:two_n, :two_n], f[two_n:dim, :two_n], f[:two_n, dim:] = mm.dd.a, -mm.b.T, np.eye(two_n)
    diffusion[:two_n, :two_n], diffusion[:two_n, two_n:dim] = mm.dd.d, mm.e
    diffusion[two_n:dim, :dim] = np.concatenate((mm.e.T, np.eye(two_m)), 1)
    with np.errstate(all="ignore"):
        phi, _, q = _interval_map(f, diffusion, np.zeros_like(f), h)
        response = phi[:dim, dim:]
        step = f[:dim, :two_n] @ response[:two_n]  # Phi [x; 0; 0] - [x; 0; 0] = [A; -B^T] S x
        spread = step @ sigma_c[:-1]
        cov = spread @ step.T + q[:dim, :dim]
        terms = (sigma_c[:-1], sigma_c[1:], spread, cov)
        scale = 0.5 * np.max([np.abs(x).max((1, 2)) for x in terms], axis=0)[:, None]
        cov[:, :, :two_n] += spread
        cov[:, :two_n] += np.swapaxes(spread, 1, 2)
        cov[:, :two_n, :two_n] += sigma_c[:-1] - sigma_c[1:]
        drive = response @ mm.dd.drive
    _finite("trajectory window", np.append(cov, drive))
    lam, vec = np.linalg.eigh(0.25 * (cov + np.swapaxes(cov, 1, 2)))
    if (lam < -_WINDOW_CLIP * scale).any():
        w = int(np.argmin((lam / scale).min(1)))
        raise NumericError(
            f"the window covariance from t = {w * h:.6g} has eigenvalue {lam[w].min():.3e}, beyond the "
            f"round-off of its terms ({scale[w, 0]:.3e})"
        )
    root = np.sqrt(np.where(lam > (two_n * np.finfo(float).eps) * scale, lam, 0.0))
    factor = (vec * root[:, None, :]) @ np.swapaxes(vec, 1, 2)
    fixed = np.concatenate((step, drive[:, None]), 1)  # the rows for r_w and the 1
    return np.concatenate((np.broadcast_to(fixed, (factor.shape[0], *fixed.shape)), factor), 2)


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
    """Ensemble of conditional means and records with the shared Riccati CM path, exact in distribution.

    The ensemble draws from one stream, numpy's default_rng(master_seed):
    with W stored windows and D = 2n + 2m, trajectory k takes its standard
    normals [k W D, (k + 1) W D), window w the D of them from k W D + w D.
    Each chunk of trajectories draws its block in one call, chunks in
    trajectory order, so trajectory k depends on (master_seed, k, W) and not
    on n_traj or the chunk size.  ``store_stride`` sets the stored grid:
    means are stored every ``store_stride`` steps of dt and records are the
    measured dy summed over each storage window.

    Over a storage window of length h = store_stride dt the means and the
    summed records are Gaussian given the start mean, with a mean affine in
    it and a covariance that the CM path at the window's two ends fixes
    exactly (_window_maps, one interval map per call).  So each window draws
    2n + 2m normals and takes one product of [start mean, 1, draws] with its
    map; sigma_c is computed at the stored times only, and the distribution
    depends on dt only through the stored grid.  The product is an einsum
    rather than a BLAS matmul because each of its rows then does not depend
    on how many trajectories share it: results are byte-identical for a fixed
    seed whatever the chunk size.
    """
    if n_traj < 1:
        raise ValueError(f"need at least one trajectory, got {n_traj}")
    n_steps = _uniform_steps(T, dt)
    stride = int(store_stride)
    if stride < 1 or n_steps % stride:
        raise ValueError(f"store_stride = {store_stride} must divide the {n_steps} steps")
    # Points of the full step grid, so runs with different strides share times.
    times = _flow_start(mm.base.n, state0, np.arange(0, n_steps + 1, stride) * dt)

    two_n = 2 * mm.base.n
    dim = two_n + mm.b.shape[1]
    n_windows = n_steps // stride

    sigma_c = _conditional_path(mm, state0.cm, times)
    maps = _window_maps(mm, sigma_c, stride * dt)

    means = np.empty((n_traj, n_windows + 1, two_n))
    records = np.empty((n_traj, n_windows, dim - two_n))

    rng = np.random.default_rng(np.random.SeedSequence(master_seed))  # numpy's own checks of the seed

    def run_chunk(k0: int, k1: int) -> None:
        # Row w of a trajectory is [mean at stored time w, 1, draws of window w], so each
        # product writes the start of the next one in place; the last writes the final mean.
        x = np.empty((k1 - k0, n_windows, two_n + 1 + dim))
        x[:, :, two_n + 1 :] = rng.standard_normal((k1 - k0, n_windows, dim))
        x[:, 0, :two_n] = state0.mean
        x[:, :, two_n] = 1.0
        for w in range(n_windows):
            out = np.einsum("ik,jk->ij", x[:, w], maps[w])
            start = x[:, w + 1, :two_n] if w + 1 < n_windows else means[k0:k1, -1]
            np.add(x[:, w, :two_n], out[:, :two_n], out=start)
            records[k0:k1, w] = out[:, two_n:]
        means[k0:k1, :-1] = x[:, :, :two_n]

    for k0 in range(0, n_traj, _TRAJ_CHUNK):
        run_chunk(k0, min(k0 + _TRAJ_CHUNK, n_traj))

    return TrajectoryBatch(times=times, means=means, records=records, sigma_c=sigma_c, seed=master_seed)


def excess_noise(batch: TrajectoryBatch, t_index: int | slice = -1) -> np.ndarray:
    """Excess noise Sigma at stored times: twice the sample covariance of the means.

    The anticommutator convention doubles the classical covariance, so the
    ensemble identity reads sigma_unc = sigma_c + Sigma.  ``t_index`` picks
    stored times as the second axis of batch.means does: an int (negative
    counts from the end) gives one (2n, 2n) matrix, a slice a (k, 2n, 2n)
    stack, and only the times picked are computed.  Each time's value is the
    bits of 2 np.cov(batch.means[:, t, :], rowvar=False): np.cov's arithmetic
    written out (centre, one product, scale by 1 / (n - 1)), with the centre
    the sum over n in trajectory order, as ndarray.mean takes it.  That sum is
    the last row of an accumulate, which numpy runs as one loop along n per
    coordinate rather than one loop over the coordinates per trajectory.  (It
    keeps the sign of a sum of -0.0s, which a reduce makes +0.0; the centred
    coordinate's products are zeros either way.)
    """
    if batch.n_traj < 2:
        raise ValueError("excess noise needs at least two trajectories")
    x = batch.means[:, t_index, :]
    xc = x - np.add.accumulate(x, axis=0)[-1] / batch.n_traj
    c = xc.transpose(*range(1, xc.ndim), 0) @ xc.swapaxes(0, -2)  # per time, centred^T centred
    c *= 1.0 / (batch.n_traj - 1)
    return 2.0 * c


def daemonic_ergotropy_path(mm: MonitoredModel, state0: GaussianState, t_grid) -> np.ndarray:
    """Daemonic ergotropy of the monitored system along a time grid.

    At each time: tr sigma_unc / 4 + |mean_unc|^2 / 2 - (1/2) sum_j nu_j(sigma_c).
    The outcome-averaged conditional energy equals the unconditional energy,
    so only the passive energy reflects the monitoring.
    """
    return _daemonic_curve((mm,), state0, t_grid)[0]


def _daemonic_curve(mms, state0: GaussianState, t_grid) -> np.ndarray:
    """Daemonic ergotropy on t_grid of the k filters mms of one model, from state0.

    The unconditional moments do not depend on the measurement, so callers
    comparing strategies pass all the filters at once: state0 (validate_state)
    and the grid are checked and the energy taken once, in the blocks of
    _conditional_blocks.  nu = sqrt(det sigma_c) comes off the closed form's
    entry rows where every filter decouples (symplectic._one_mode_spectrum),
    else from one stacked symplectic_eigenvalues call on the walked CMs.
    Where _uncoupled admits the drift (one mode, a diagonal drift, as the
    OPO's at any chi~), the energy comes off the closed form's moment rows in
    the same blocks (_uncoupled_moments, which checks each block's moments
    are finite); otherwise the whole grid is walked first
    (_unconditional_path, with no second check of state0).  Either way each
    point is the bits of unconditional_path and evolve_conditional_cm.
    Returns a (k, len(t_grid)) array, row i the curve of mms[i].  A negative
    beyond round-off raises NumericError naming the time and the filter's
    settings (theta_m, z_m).
    """
    t, dd = _flow_start(mms[0].base.n, state0, t_grid), mms[0].dd
    uncoupled = _uncoupled(dd)
    if uncoupled:
        energy = np.empty(t.size)
    else:
        means, cms = _unconditional_path(dd, state0, t)
        energy = 0.25 * np.trace(cms, axis1=1, axis2=2) + 0.5 * np.einsum("ij,ij->i", means, means)
    out = np.empty((len(mms), t.size))
    for span, flows in _conditional_blocks(mms, state0.cm, t):
        if uncoupled:
            r0, r1, s00, _, s11 = _uncoupled_moments(dd, state0, t[span] - t[0])
            energy[span] = 0.25 * (s00 + s11) + 0.5 * (r0 * r0 + r1 * r1)
        if isinstance(flows, tuple):
            # The closed form's entry rows.  symplectic_eigenvalues takes b = 0.5 sigma01 + 0.5 sigma01, which is
            # sigma01 but below 2 tiny, where b b underflows to 0 either way (det sigma_c >= 1 is never scaled up).
            # Where a member fails, symplectic_eigenvalues decides on the stack and names it.
            passive, ok = _one_mode_spectrum(*flows)
            if not ok.all():
                o00, o01, o11 = flows
                passive = symplectic_eigenvalues(np.stack((o00, o01, o01, o11), -1).reshape(*o00.shape, 2, 2))[..., 0]
        else:
            passive = symplectic_eigenvalues(flows).sum(axis=-1)
        out[:, span] = energy[span] - 0.5 * passive
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
