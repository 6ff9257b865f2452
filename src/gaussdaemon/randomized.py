"""Randomized generators for states, settings and models, plus the invariant suite.

The generators take an explicit ``numpy.random.Generator`` and produce valid
inputs with generic parameters (random symplectics built from the
rotation-squeezer-rotation decomposition, thermal spectra away from the pure
boundary, measurement settings covering homodyne and finite squeezing).  The
invariant suite replays the package's structural guarantees on randomized
cases and reports violation counts; it backs the command-line ``validate``
command.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .bipartite import daemonic_ergotropy, standard_form, unconditional_ergotropy_a
from .dynamics import DiffusiveModel, drift_diffusion, is_hurwitz
from .exceptions import NumericError, UnphysicalStateError
from .measurement import GeneralDyneSetting, Partition, condition, homodyne
from .symplectic import (
    GaussianState,
    rotation,
    squeezer,
    symplectic_eigenvalues,
    validate_state,
)


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
    zz = np.zeros((2 * n, 2 * n))
    for j in range(n):
        zz[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = squeezer(z[j])
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


def random_stable_model(
    rng: np.random.Generator,
    nu_in: float = 1.0,
    max_tries: int = 1000,
) -> DiffusiveModel:
    """Random single-mode diffusive model with a Hurwitz drift matrix."""
    for _ in range(max_tries):
        h_s = rng.standard_normal((2, 2))
        h_s = 0.5 * (h_s + h_s.T)
        c = rng.standard_normal((2, 2))
        model = DiffusiveModel(h_s=h_s, c=c, sigma_in=nu_in * np.eye(2), mean_in=np.zeros(2))
        if is_hurwitz(drift_diffusion(model).a):
            return model
    raise NumericError(f"no Hurwitz model found in {max_tries} draws")


class SuiteResult(NamedTuple):
    """Outcome of one invariant suite: case count, violations, worst margin."""

    name: str
    cases: int
    violations: int
    worst: float


def _suite_symplectic_invariance(rng, n_cases, tol=1e-9):
    violations = 0
    worst = 0.0
    for _ in range(n_cases):
        n = int(rng.integers(1, 4))
        state = random_state(rng, n)
        s = random_symplectic(rng, n)
        nus = symplectic_eigenvalues(state.cm)
        nus_t = symplectic_eigenvalues(s @ state.cm @ s.T)
        dev = float(np.abs(nus - nus_t).max())
        worst = max(worst, dev)
        if dev > tol:
            violations += 1
    return SuiteResult("symplectic-invariance", n_cases, violations, worst)


def _suite_heisenberg_validation(rng, n_cases):
    violations = 0
    worst = 0.0
    for _ in range(n_cases):
        n = int(rng.integers(1, 4))
        state = random_state(rng, n)
        try:
            validate_state(state.mean, state.cm)
        except ValueError:
            violations += 1
            continue
        # Shrinking below the smallest symplectic eigenvalue must be rejected.
        shrink = 0.9 / float(symplectic_eigenvalues(state.cm).min())
        try:
            validate_state(state.mean, shrink * state.cm)
        except UnphysicalStateError:
            pass
        else:
            violations += 1
            worst = max(worst, shrink)
    return SuiteResult("heisenberg-validation", n_cases, violations, worst)


def _suite_outcome_independence(rng, n_cases):
    partition = Partition(a_modes=(0,), b_modes=(1,))
    violations = 0
    worst = 0.0
    for _ in range(n_cases):
        state = random_two_mode_state(rng)
        setting = random_setting(rng, efficient=bool(rng.uniform() < 0.5))
        c1 = condition(state, partition, setting, rng.standard_normal(2))
        c2 = condition(state, partition, setting, rng.standard_normal(2))
        if not np.array_equal(c1.cm, c2.cm):
            violations += 1
            worst = max(worst, float(np.abs(c1.cm - c2.cm).max()))
    return SuiteResult("outcome-independence", n_cases, violations, worst)


def _suite_daemonic_convexity(rng, n_cases, tol=1e-9):
    violations = 0
    worst = 0.0
    for _ in range(n_cases):
        state = random_two_mode_state(rng)
        setting = random_setting(rng, efficient=bool(rng.uniform() < 0.5))
        gap = daemonic_ergotropy(state, setting).value - unconditional_ergotropy_a(state)
        worst = min(worst, float(gap))
        if gap < -tol:
            violations += 1
    return SuiteResult("daemonic-convexity", n_cases, violations, -worst)


def invariant_suite(n_cases: int = 1000, seed: int = 0) -> list[SuiteResult]:
    """Run all invariant suites on fresh randomized cases; zero violations expected."""
    if n_cases < 1:
        raise ValueError(f"need at least one case per suite, got n_cases = {n_cases}")
    suites = (
        _suite_symplectic_invariance,
        _suite_heisenberg_validation,
        _suite_outcome_independence,
        _suite_daemonic_convexity,
    )
    results = []
    for i, suite in enumerate(suites):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        results.append(suite(rng, n_cases))
    return results
