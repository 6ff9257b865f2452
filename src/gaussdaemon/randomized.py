"""Randomized generators for states, settings and models, plus the invariant suite.

The generators take an explicit ``numpy.random.Generator`` and produce valid
inputs with generic parameters (random symplectics built from the
rotation-squeezer-rotation decomposition, thermal spectra away from the pure
boundary, measurement settings covering homodyne and finite squeezing).  The
invariant suite replays the package's structural guarantees on randomized
cases and backs the command-line ``validate`` command: each suite is a case
function returning (violated, margin), and one runner counts the violations
and reports as ``worst`` the largest margin any case gave (0.0 at least).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .bipartite import daemonic_ergotropy, standard_form, unconditional_ergotropy_a
from .dynamics import DiffusiveModel, drift_diffusion, is_hurwitz
from .exceptions import NumericError, UnphysicalStateError
from .measurement import GeneralDyneSetting, Partition, condition, homodyne
from .symplectic import GaussianState, rotation, symplectic_eigenvalues, validate_state

# Draws random_stable_model makes before it gives up.
_STABLE_MODEL_TRIES = 1000


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform single-mode phase rotation."""
    return rotation(rng.uniform(0.0, 2.0 * np.pi))


def random_orthogonal_symplectic(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random passive (energy-preserving) symplectic on n modes.

    Drawn Haar-like from the unitary group via QR of a complex Gaussian
    matrix, then mapped to its real quadrature representation: the (j, k)
    mode block is [[Re U_jk, -Im U_jk], [Im U_jk, Re U_jk]].
    """
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    out = np.empty((2 * n, 2 * n))
    out[0::2, 0::2] = q.real
    out[0::2, 1::2] = -q.imag
    out[1::2, 0::2] = q.imag
    out[1::2, 1::2] = q.real
    return out


def random_symplectic(rng: np.random.Generator, n: int, max_squeeze: float = 2.0) -> np.ndarray:
    """Random symplectic: passive, per-mode squeezers, passive (Euler decomposition)."""
    z = np.exp(rng.uniform(-np.log(max_squeeze), np.log(max_squeeze), size=n))
    zz = np.diag(np.column_stack((z, 1.0 / z)).ravel())  # squeezer(z_j) on each mode's block
    return random_orthogonal_symplectic(rng, n) @ zz @ random_orthogonal_symplectic(rng, n)


def random_state(
    rng: np.random.Generator,
    n: int,
    max_squeeze: float = 2.0,
    max_thermal: float = 3.0,
    mean_scale: float = 1.0,
) -> GaussianState:
    """Random valid n-mode state S (diag nu_j I) S^T with Gaussian means."""
    s = random_symplectic(rng, n, max_squeeze)
    nus = rng.uniform(1.0, max_thermal, size=n)
    core = np.kron(np.diag(nus), np.eye(2))
    cm = s @ core @ s.T
    mean = mean_scale * rng.standard_normal(2 * n)
    return validate_state(mean, 0.5 * (cm + cm.T))


def random_two_mode_state(rng: np.random.Generator, **kwargs) -> GaussianState:
    """Random valid two-mode state (see random_state)."""
    return random_state(rng, 2, **kwargs)


def random_standard_form(rng: np.random.Generator):
    """Random valid two-mode standard form, by reducing a random two-mode state."""
    return standard_form(random_two_mode_state(rng))[0]


def random_setting(
    rng: np.random.Generator,
    efficient: bool = True,
    allow_homodyne: bool = True,
) -> GeneralDyneSetting:
    """Random general-dyne setting; homodyne with probability 1/4 when allowed."""
    theta = rng.uniform(0.0, np.pi)
    if allow_homodyne and rng.uniform() < 0.25:
        return homodyne(theta)
    z = np.exp(rng.uniform(np.log(1e-3), 0.0))
    nu_m = 1.0 if efficient else 1.0 + rng.exponential(0.5)
    return GeneralDyneSetting(nu_m=nu_m, theta_m=theta, z_m=z)


def random_stable_model(rng: np.random.Generator, nu_in: float = 1.0) -> DiffusiveModel:
    """Random single-mode diffusive model with a Hurwitz drift matrix (at most _STABLE_MODEL_TRIES draws)."""
    for _ in range(_STABLE_MODEL_TRIES):
        h_s = rng.standard_normal((2, 2))
        h_s = 0.5 * (h_s + h_s.T)
        c = rng.standard_normal((2, 2))
        model = DiffusiveModel(h_s=h_s, c=c, sigma_in=nu_in * np.eye(2), mean_in=np.zeros(2))
        if is_hurwitz(drift_diffusion(model).a):
            return model
    raise NumericError(f"no Hurwitz model found in {_STABLE_MODEL_TRIES} draws")


class SuiteResult(NamedTuple):
    """Outcome of one invariant suite: case count, violations, worst margin."""

    name: str
    cases: int
    violations: int
    worst: float


# A margin above this bound is a violation (symplectic-invariance deviation, daemonic shortfall).
_TOL = 1e-9
_SPLIT = Partition(a_modes=(0,), b_modes=(1,))


def _case_symplectic_invariance(rng):
    n = int(rng.integers(1, 4))
    state = random_state(rng, n)
    s = random_symplectic(rng, n)
    dev = float(np.abs(symplectic_eigenvalues(state.cm) - symplectic_eigenvalues(s @ state.cm @ s.T)).max())
    return dev > _TOL, dev


def _case_heisenberg_validation(rng):
    n = int(rng.integers(1, 4))
    state = random_state(rng, n)
    # Shrinking below the smallest symplectic eigenvalue must be rejected.
    shrink = 0.9 / float(symplectic_eigenvalues(state.cm).min())
    try:
        validate_state(state.mean, shrink * state.cm)
    except UnphysicalStateError:
        return False, 0.0
    return True, shrink


def _case_outcome_independence(rng):
    state = random_two_mode_state(rng)
    setting = random_setting(rng, efficient=bool(rng.uniform() < 0.5))
    c1 = condition(state, _SPLIT, setting, rng.standard_normal(2))
    c2 = condition(state, _SPLIT, setting, rng.standard_normal(2))
    return not np.array_equal(c1.cm, c2.cm), float(np.abs(c1.cm - c2.cm).max())


def _case_daemonic_convexity(rng):
    state = random_two_mode_state(rng)
    setting = random_setting(rng, efficient=bool(rng.uniform() < 0.5))
    gap = daemonic_ergotropy(state, setting).value - unconditional_ergotropy_a(state)
    return gap < -_TOL, -gap


# (name, case) in spawn-key order; a case draws from its suite's stream and returns (violated, margin).
_SUITES = (
    ("symplectic-invariance", _case_symplectic_invariance),
    ("heisenberg-validation", _case_heisenberg_validation),
    ("outcome-independence", _case_outcome_independence),
    ("daemonic-convexity", _case_daemonic_convexity),
)


def invariant_suite(n_cases: int = 1000, seed: int = 0) -> list[SuiteResult]:
    """Run all invariant suites on fresh randomized cases; zero violations expected."""
    if n_cases < 1:
        raise ValueError(f"need at least one case per suite, got n_cases = {n_cases}")
    results = []
    for i, (name, case) in enumerate(_SUITES):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        violations, worst = 0, 0.0
        for _ in range(n_cases):
            violated, margin = case(rng)
            violations += violated
            worst = max(worst, margin)  # first argument wins ties, so a clean run reports 0.0, not -0.0
        results.append(SuiteResult(name, n_cases, violations, worst))
    return results
