"""Unit tests for monitored Gaussian dynamics: drift/diffusion, Riccati, trajectories."""

import collections
import itertools
import math
import re
import signal
from contextlib import contextmanager

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_
from scipy.linalg import block_diag, expm, schur, solve_continuous_are, solve_continuous_lyapunov
from scipy.linalg.lapack import dsyevd, zheevd

import gaussdaemon as gd
from gaussdaemon import (
    ConvergenceError,
    DiffusiveModel,
    GaussianState,
    GeneralDyneSetting,
    NoSteadyStateError,
)
from gaussdaemon.cli import main
from gaussdaemon.dynamics import _grid_walk, _interval_map
from gaussdaemon.measurement import _from_pointer_frame, _pointer_inverse
from gaussdaemon.symplectic import TOL_HURWITZ, _omega, _smallest_eigenvalue
from euler_reference import euler_window_covariance
from riccati_oracle import DPS, riccati_data, steady_state, transient
from scalar_riccati import opo_filter_diagonals


def care_steady_state(mm):
    """Independent algebraic-Riccati oracle for the conditional steady state.

    The flow At s + s At^T + Dt - s B B^T s = 0 maps onto the standard CARE
    A^T X + X A - X B R^-1 B^T X + Q = 0 with A = At^T, Q = Dt, R = identity.
    """
    dd = gd.drift_diffusion(mm.base)
    at = dd.a + mm.e @ mm.b.T
    dt = dd.d - mm.e @ mm.e.T
    r = np.eye(mm.b.shape[1])
    return solve_continuous_are(at.T, mm.b, dt, r)


def test_opo_drift_diffusion_closed_form():
    """The OPO (kappa = 1) has exactly A = diag(-(1 + chi~)/2, -(1 - chi~)/2), D = nu_in I and no drive."""
    for ct, nu_in in [(0.0, 1.0), (0.3, 2.0), (0.6, 3.0), (0.99, 1.7), (1.0 - 1e-7, 1e8)]:
        dd = gd.opo_model(gd.OpoParams(ct, nu_in=nu_in)).dd
        assert np.array_equal(dd.a, np.diag([-(1.0 + ct) / 2, -(1.0 - ct) / 2])), (ct, dd.a)
        assert np.array_equal(dd.d, nu_in * np.eye(2)), (nu_in, dd.d)
        assert np.array_equal(dd.drive, np.zeros(2))


def test_model_validation():
    """Shape and symmetry violations are rejected."""
    with pytest.raises(ValueError, match="square of even size"):
        DiffusiveModel(np.zeros((3, 3)), np.eye(2), np.eye(2), np.zeros(2))
    with pytest.raises(gd.SymmetryError, match="must be symmetric"):
        DiffusiveModel(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="2n x 2m"):
        DiffusiveModel(np.zeros((2, 2)), np.eye(3), np.eye(2), np.zeros(2))
    with pytest.raises(gd.UnphysicalStateError):
        DiffusiveModel(np.zeros((2, 2)), np.eye(2), 0.3 * np.eye(2), np.zeros(2))


def _two_by_two(kind, p, q, r, s):
    """A 2x2 drift of the given kind from four floats in [-10, 10]."""
    k = abs(s) + 0.1
    if kind == "complex":  # p +- i sqrt(q^2 + r^2 + 0.01)
        return [[p + q, k], [-(q * q + r * r + 0.01) / k, p - q]]
    if kind == "repeated":  # disc = q^2 + b c = 0 up to rounding: a double root p, defective unless q = 0
        return [[p + q, k], [-q * q / k, p - q]]
    if kind == "jordan":
        return [[p, q], [0.0, p]]
    return [[p, q], [r, s]]


_ENTRY = st_.floats(-10.0, 10.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(kind=st_.sampled_from(["any", "complex", "repeated", "jordan"]), p=_ENTRY, q=_ENTRY, r=_ENTRY, s=_ENTRY)
@example(kind="jordan", p=0.0, q=0.0, r=0.0, s=0.0)
@example(kind="repeated", p=-1.0, q=3.0, r=0.0, s=0.0)
def test_two_by_two_abscissa_matches_eigvals(kind, p, q, r, s):
    """The 2x2 closed-form spectral abscissa agrees with np.linalg.eigvals, and so does is_hurwitz.

    Both lose about eps |A|^2 / sqrt(|disc|), up to sqrt(eps) |A| at a double
    root, so the tolerance grows as disc = ((a - d)/2)^2 + b c goes to 0.
    """
    a = np.array(_two_by_two(kind, p, q, r, s))
    (a00, a01), (a10, a11) = a.tolist()
    eps, norm = np.finfo(float).eps, max(float(np.abs(a).max()), 1.0)
    disc = 0.25 * (a00 - a11) ** 2 + a01 * a10
    tol = 64.0 * eps * norm * (1.0 + norm / math.sqrt(abs(disc) + eps * norm * norm))
    reference = float(np.linalg.eigvals(a).real.max())
    assert abs(gd.dynamics._spectral_abscissa(a) - reference) <= tol, (a, reference)
    if abs(reference + TOL_HURWITZ) > tol:
        assert gd.is_hurwitz(a) == (reference < -TOL_HURWITZ)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(complex_pair=st_.booleans(), side=st_.sampled_from([-1.0, 1.0]), q=_ENTRY, r=st_.floats(0.0, 10.0))
def test_two_by_two_hurwitz_at_the_margin(complex_pair, side, q, r):
    """A largest real part of -TOL_HURWITZ (1 +- 1e-3), real or of a complex pair, is decided as eigvals decides it."""
    alpha = -TOL_HURWITZ * (1.0 + 1e-3 * side)
    a = np.array([[alpha, r + 0.1], [-(r + 0.1), alpha]] if complex_pair else [[alpha, q], [0.0, alpha - r]])
    assert gd.is_hurwitz(a) is (side > 0)
    assert (float(np.linalg.eigvals(a).real.max()) < -TOL_HURWITZ) is (side > 0)


def test_direct_lapack_calls_match_the_wrappers():
    """The multi-mode route's direct LAPACK calls give the wrappers' values bit for bit, and their input errors.

    On random two- and three-mode filters: _stable_schur against scipy's
    schur(output="real", sort="lhp") of -H, _spectral_abscissa against
    np.linalg.eigvals on the drift and on H, and _smallest_eigenvalue against
    np.linalg.eigvalsh on the steady state and on sigma + i Omega.
    """
    rng = np.random.default_rng(7)
    for n in (2, 3, 2, 3):
        mm = gd.monitored(_random_hurwitz_model(rng, n, driven=False), _mixed_settings(rng, n))
        _, ham = gd.dynamics._hamiltonian(mm.at, mm.dtilde, mm.bbt)
        _, z, sdim = schur(-ham, output="real", sort="lhp")
        got_z, got_sdim = gd.dynamics._stable_schur(-ham)
        assert np.array_equal(got_z, z) and got_sdim == sdim == 2 * n
        for a in (mm.dd.a, ham):
            assert gd.dynamics._spectral_abscissa(a) == float(np.linalg.eigvals(a).real.max())
        sigma = gd.steady_state_conditional(mm)
        for evd, x in ((dsyevd, sigma), (zheevd, sigma + 1j * _omega(n))):
            assert _smallest_eigenvalue(evd, x) == np.linalg.eigvalsh(x)[0]
    bad = np.eye(4)
    bad[1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="Array must not contain infs or NaNs"):
        gd.is_hurwitz(bad)
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        gd.dynamics._stable_schur(bad)


@pytest.mark.parametrize(
    "info, message",
    [
        (9, "Eigenvalues could not be separated for reordering."),
        (10, "Leading eigenvalues do not satisfy sort condition."),
        (3, "Schur form not found. Possibly ill-conditioned."),
    ],
)
def test_schur_failure_keeps_scipys_message(monkeypatch, info, message):
    """A nonzero dgees info on the 8x8 two-mode Hamiltonian fails the solve with scipy schur's message for it."""
    dgees = gd.dynamics.dgees
    monkeypatch.setattr(gd.dynamics, "dgees", lambda *args, **kwargs: (*dgees(*args, **kwargs)[:-1], info))
    with pytest.raises(gd.NumericError, match=f"algebraic Riccati solve failed: {message}"):
        gd.steady_state_conditional(_two_mode_generic())


def test_eigenvalue_non_convergence_is_a_numeric_error(monkeypatch):
    """A nonzero dgeev info in the drift's Hurwitz test fails both steady solves with NumericError, not LinAlgError.

    A non-finite matrix is still numpy's LinAlgError: that is invalid input.
    """
    mm = _two_mode_generic()
    dgeev = gd.dynamics.dgeev
    monkeypatch.setattr(gd.dynamics, "dgeev", lambda *args, **kwargs: (*dgeev(*args, **kwargs)[:-1], 3))
    with pytest.raises(gd.NumericError, match="^Eigenvalues did not converge$"):
        gd.steady_state_conditional(mm)
    with pytest.raises(gd.NumericError, match="^Eigenvalues did not converge$"):
        gd.steady_state_unconditional(mm.dd)
    with pytest.raises(np.linalg.LinAlgError, match="Array must not contain infs or NaNs"):
        gd.is_hurwitz(np.full((4, 4), np.nan))


def test_model_rejects_non_finite():
    """NaN or infinite entries in H_S, C, sigma_in or mean_in are rejected."""
    good = (np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros(2))
    for k in range(4):
        for bad in (np.nan, np.inf):
            args = [np.array(x, dtype=float) for x in good]
            args[k].flat[0] = bad
            with pytest.raises(ValueError, match="finite"):
                DiffusiveModel(*args)


def test_environment_normalization_preserves_dynamics():
    """A squeezed-thermal input is stored as given, and A, D and the drive are the products of the inputs."""
    rng = np.random.default_rng(61)
    h_s = np.array([[0.4, 0.1], [0.1, -0.2]])
    for _ in range(20):
        s_env = gd.random_symplectic(rng, 1)
        nu = 1.0 + rng.exponential(1.0)
        sigma_in = nu * s_env @ s_env.T
        c = rng.normal(size=(2, 2))
        mean_in = rng.normal(size=2)
        model = DiffusiveModel(h_s, c, sigma_in, mean_in)
        # stored as given
        assert np.array_equal(model.sigma_in, sigma_in)
        dd = gd.drift_diffusion(model)
        omega = gd.symplectic_form(1)
        a_ref = omega @ h_s + 0.5 * omega @ c @ omega @ c.T
        d_ref = omega @ c @ sigma_in @ c.T @ omega.T
        assert np.allclose(dd.a, a_ref, atol=1e-10)
        assert np.allclose(dd.d, d_ref, atol=1e-10)
        assert np.allclose(dd.drive, omega @ c @ mean_in, atol=1e-10)


def test_correlated_input_rejected():
    """Cross-mode input correlations are not supported (physical CM required first)."""
    c = np.hstack([np.eye(2), np.eye(2)])
    sigma_in = gd.tmsts(0.0, 0.3).cm  # physical, but correlated across modes
    with pytest.raises(ValueError, match="correlated input modes"):
        DiffusiveModel(np.zeros((2, 2)), c, sigma_in, np.zeros(4))
    # However small: D would keep an off-block pair that the filter, built from the blocks, drops.
    sigma_in = np.diag([2.0, 2.0, 3.0, 3.0])
    sigma_in[0, 2] = sigma_in[2, 0] = 9e-13
    with pytest.raises(ValueError, match="correlated input modes"):
        DiffusiveModel(np.zeros((4, 4)), np.eye(4), sigma_in, np.zeros(4))


def _filter_products(h_s, c, sigma_in, mean_in, blocks, omega):
    """dd.a, dd.d, dd.drive, b, e, at, dtilde and bbt of a model as numpy products, the route n >= 2 takes.

    blocks are the four pointer-frame matrices M^(1/2), sigma_in M^(1/2),
    sigma_in M sigma_m and sigma_in M of dynamics._pointer_blocks.  The
    products only add, so on the absolute values of the inputs they give the
    size of the terms each entry sums.
    """
    oc, co = omega @ c, c @ omega
    d = oc @ sigma_in @ oc.T
    a = omega @ h_s + 0.5 * (oc @ omega) @ c.T
    m_root, in_root, in_m_m, in_m = blocks
    b = co @ m_root
    dt = (oc @ in_m_m) @ oc.T
    return a, 0.5 * (d + d.T), oc @ mean_in, b, oc @ in_root, a + (oc @ in_m) @ co.T, 0.5 * (dt + dt.T), b @ b.T


def _one_mode_arrays(model, setting):
    """The eight arrays of _filter_products as the model and its filter store them, and as numpy products."""
    mm = gd.monitored(model, setting)
    got = (mm.dd.a, mm.dd.d, mm.dd.drive, mm.b, mm.e, mm.at, mm.dtilde, mm.bbt)
    blocks = [np.reshape(x, (2, 2)) for x in gd.dynamics._pointer_blocks(model.sigma_in.ravel().tolist(), setting)]
    inputs = (model.h_s, model.c, model.sigma_in, model.mean_in, blocks, gd.symplectic_form(1))
    want = _filter_products(*inputs)
    scale = _filter_products(*(np.abs(x) if isinstance(x, np.ndarray) else [np.abs(y) for y in x] for x in inputs))
    return got, want, scale


_UNIT = st_.floats(-2.0, 2.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    h=st_.tuples(_UNIT, _UNIT, _UNIT),
    c=st_.tuples(_UNIT, _UNIT, _UNIT, _UNIT),
    nu=st_.floats(1.0, 5.0),
    squeeze=st_.sampled_from([None, 0.2, 0.7, 3.0]),
    phi=st_.floats(0.0, math.pi),
    mean=st_.tuples(_UNIT, _UNIT),
    kind=st_.sampled_from(["homodyne", "heterodyne", "generic"]),
    theta=st_.floats(0.0, math.pi),
    z=st_.floats(1e-6, 1.0),
    nu_m=st_.floats(1.0, 3.0),
)
def test_one_mode_model_matches_numpy_products(h, c, nu, squeeze, phi, mean, kind, theta, z, nu_m):
    """One mode is built in float arithmetic; every array agrees with the numpy products of the n >= 2 route.

    Two roundings of a sum of products, with and without the fused
    multiply-add numpy's matmul may use, differ by a few ulp of the terms
    summed, not of the sum: each entry lies within 4 ulp of the largest entry
    of the same products taken on absolute values.  B B^T is numpy's own
    product of the stored B.  The input is thermal (nu I) or squeezed thermal,
    stored as given, and its mean is drawn like the other entries.
    """
    h_s = np.array([[h[0], h[1]], [h[1], h[2]]])
    sigma_in = nu * np.eye(2)
    if squeeze is not None:
        r = gd.rotation(phi)
        sigma_in = nu * r @ np.diag([squeeze, 1.0 / squeeze]) @ r.T
    model = DiffusiveModel(h_s, np.reshape(c, (2, 2)), sigma_in, np.array(mean))
    if kind == "homodyne":
        setting = gd.homodyne(theta)
    else:
        setting = gd.heterodyne() if kind == "heterodyne" else GeneralDyneSetting(nu_m=nu_m, theta_m=theta, z_m=z)
    got, want, scale = _one_mode_arrays(model, setting)
    for name, x, y, size in zip(("a", "d", "drive", "b", "e", "at", "dtilde", "bbt"), got, want, scale):
        assert np.abs(x - y).max() <= 4.0 * np.spacing(size.max()), (name, x, y)
    assert np.array_equal(model.sigma_in, sigma_in)


def test_opo_model_matches_numpy_products_bit_for_bit():
    """For the OPO (C = Omega) the float route's products are exact: its arrays are numpy's bit for bit.

    Signed zeros included, and at generic phases too, where B B^T is numpy's own product of an exact B.
    """
    settings = [gd.homodyne(0.0), gd.homodyne(0.5 * math.pi), gd.heterodyne(), GeneralDyneSetting(z_m=0.3),
                GeneralDyneSetting(theta_m=0.7, z_m=0.3), GeneralDyneSetting(nu_m=1.7, theta_m=2.1, z_m=1e-5)]
    for ct in (0.0, 0.3, 0.6, 0.99, 1.0 - 1e-7):
        for nu_in in (1.0, 3.0, 1e20):
            model = gd.opo_model(gd.OpoParams(ct, nu_in=nu_in))
            for setting in settings:
                got, want, _ = _one_mode_arrays(model, setting)
                for x, y in zip(got, want):
                    assert x.tobytes() == y.tobytes(), (ct, nu_in, setting, x, y)


def _raised(build, *args):
    """(type, message) of what build(*args) raises, or None if it returns."""
    try:
        build(*args)
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)
    return None


def _general_route(h_s, c, sigma_in, mean_in):
    """The model checks of the route n >= 2 takes, run on the same inputs."""
    return gd.dynamics._model(*(np.array(x, dtype=float) for x in (h_s, c, sigma_in)), np.array(mean_in, float).ravel())


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "h_s, c, sigma_in, mean_in",
    [
        ([[_NAN, 0.0], [0.0, 0.0]], np.eye(2), np.eye(2), [0.0, 0.0]),
        ([[0.0, _INF], [_INF, 0.0]], np.eye(2), np.eye(2), [0.0, 0.0]),
        (np.zeros((2, 2)), [[1.0, _NAN], [0.0, 1.0]], np.eye(2), [0.0, 0.0]),
        (np.zeros((2, 2)), [[1.0, 0.0], [0.0, -_INF]], np.eye(2), [0.0, 0.0]),
        (np.zeros((2, 2)), np.eye(2), [[_NAN, 0.0], [0.0, 1.0]], [0.0, 0.0]),
        (np.zeros((2, 2)), np.eye(2), [[1.0, 0.0], [0.0, _INF]], [0.0, 0.0]),
        (np.zeros((2, 2)), np.eye(2), np.eye(2), [_NAN, 0.0]),
        (np.zeros((2, 2)), np.eye(2), np.eye(2), [0.0, -_INF]),
        ([[0.0, 1.0], [0.0, 0.0]], np.eye(2), np.eye(2), [0.0, 0.0]),
        ([[0.0, 1.0], [1.0 + 1e-9, 0.0]], np.eye(2), np.eye(2), [0.0, 0.0]),
        (np.zeros((2, 2)), np.eye(2), 0.3 * np.eye(2), [0.0, 0.0]),
        (np.zeros((2, 2)), np.eye(2), [[1.0, 2.0], [2.0, 1.0]], [0.0, 0.0]),
        (np.zeros((2, 2)), np.eye(2), -np.eye(2), [0.0, 0.0]),
        (np.zeros((2, 2)), np.eye(2), [[2.0, 0.1], [0.0, 2.0]], [0.0, 0.0]),
        (np.zeros((2, 2)), np.eye(2), (1.0 - 2.0 * gd.symplectic.TOL_PSD) * np.eye(2), [0.0, 0.0]),
        (np.zeros((2, 2)), np.eye(2), np.eye(4), [0.0, 0.0]),
        (np.zeros((2, 2)), np.eye(2), np.eye(2), [0.0, 0.0, 0.0]),
        (np.zeros((2, 2)), np.eye(2), np.eye(2), [0.0, 0.0, 0.0, 0.0]),
        (np.zeros((2, 2)), np.eye(2), np.ones((2, 3)), [0.0, 0.0]),
    ],
)
def test_one_mode_model_errors_are_the_general_routes(h_s, c, sigma_in, mean_in):
    """For n = m = 1 every rejected input raises the type and message the general route raises for it."""
    raised = _raised(DiffusiveModel, h_s, c, sigma_in, mean_in)
    assert raised is not None
    assert raised == _raised(_general_route, h_s, c, sigma_in, mean_in)


def test_one_mode_model_accepts_the_tolerance_below_the_vacuum():
    """nu I is accepted down to nu = 1 - TOL_PSD: 1 - TOL_PSD / 2 passes on both routes, 1 - 2 TOL_PSD fails on both."""
    tol = gd.symplectic.TOL_PSD
    inputs = (np.zeros((2, 2)), np.eye(2), (1.0 - 0.5 * tol) * np.eye(2), np.zeros(2))
    assert DiffusiveModel(*inputs).sigma_in[0, 0] == 1.0 - 0.5 * tol
    assert _raised(_general_route, *inputs) is None
    inputs = (np.zeros((2, 2)), np.eye(2), (1.0 - 2.0 * tol) * np.eye(2), np.zeros(2))
    assert _raised(DiffusiveModel, *inputs)[0] is gd.UnphysicalStateError
    assert _raised(DiffusiveModel, *inputs) == _raised(_general_route, *inputs)


def test_monitored_rejects_the_wrong_number_of_settings():
    """A one-mode model takes one setting: a list of two, or of none, is rejected as for more modes."""
    model = gd.opo_model(gd.OpoParams(0.5, nu_in=2.0))
    for settings in ([gd.heterodyne(), gd.heterodyne()], []):
        with pytest.raises(ValueError, match=f"expected 1 measurement settings, got {len(settings)}"):
            gd.monitored(model, settings)


@pytest.mark.parametrize("n", [1, 2])
def test_model_keeps_copies_of_its_inputs(n):
    """Writing to the caller's arrays after construction leaves the model and its dynamics as they were.

    With H_S = 0, C = I, sigma_in = I one mode has A = -I / 2 and the
    heterodyne filter drift At = A + det(C) I / 2 = 0; a model that kept C by
    reference would, after c[0, 0] = 7, keep that A but hand monitored() a C
    that gives At = 3 I.
    """
    h_s, c, sigma_in, mean_in = np.zeros((2 * n, 2 * n)), np.eye(2 * n), np.eye(2 * n), np.arange(2.0 * n)
    model = DiffusiveModel(h_s, c, sigma_in, mean_in)
    stored = (model.h_s, model.c, model.sigma_in, model.mean_in, model.dd.a, model.dd.d, model.dd.drive)
    before = [x.copy() for x in stored]
    at = gd.monitored(model, gd.heterodyne()).at.copy()
    for x in (h_s, c, sigma_in, mean_in):
        assert not any(np.shares_memory(x, y) for y in stored)
    c[0, 0] = 7.0
    for x in (h_s, c, sigma_in, mean_in):
        x += 1.0
    for x, y in zip(before, stored):
        assert x.tobytes() == y.tobytes()
    assert np.array_equal(model.dd.a, -0.5 * np.eye(2 * n))
    assert np.array_equal(gd.monitored(model, gd.heterodyne()).at, at)


@pytest.mark.parametrize("n", [1, 2])
def test_model_and_filter_arrays_are_read_only(n):
    """Every array a model or its filter stores refuses writes."""
    model = DiffusiveModel(np.zeros((2 * n, 2 * n)), np.eye(2 * n), 2.0 * np.eye(2 * n), np.ones(2 * n))
    mm = gd.monitored(model, GeneralDyneSetting(theta_m=0.7, z_m=0.3))
    with pytest.raises(ValueError, match="read-only"):
        mm.at[0, 0] = 1.0
    arrays = [model.h_s, model.c, model.sigma_in, model.mean_in, model.dd.a, model.dd.d, model.dd.drive]
    for x in arrays + [mm.b, mm.e, mm.at, mm.dtilde, mm.bbt]:
        assert not x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 1.0


@pytest.mark.parametrize("n", [1, 2])
def test_models_compare_by_identity(n):
    """Models, filters, their dynamics and trajectory batches support == and hash, by identity.

    Their fields are arrays, which have no single truth value and no hash: a
    generated __eq__ raised ValueError and a generated __hash__ TypeError.
    """
    p = gd.OpoParams(0.6, nu_in=3.0)
    build = (lambda: gd.opo_model(p)) if n == 1 else (lambda: _random_hurwitz_model(np.random.default_rng(7)))
    model, other = build(), build()
    mm, other_mm = (gd.monitored(m, gd.heterodyne()) for m in (model, other))
    batch = gd.simulate_trajectories(mm, gd.thermal(1.0, n), dt=0.1, T=0.2, n_traj=2, master_seed=0)
    other_batch = gd.simulate_trajectories(mm, gd.thermal(1.0, n), dt=0.1, T=0.2, n_traj=2, master_seed=0)
    for x, y in ((model, other), (model.dd, other.dd), (mm, other_mm), (batch, other_batch)):
        assert x == x and hash(x) == hash(x)
        assert x != y and len({x, y}) == 2


def test_is_hurwitz():
    """Stability check on the drift matrix."""
    assert gd.is_hurwitz(-np.eye(2))
    assert not gd.is_hurwitz(np.diag([-1.0, 0.5]))
    assert not gd.is_hurwitz(np.zeros((2, 2)))


def test_unconditional_steady_state_by_integration():
    """The Lyapunov steady state agrees with long-time integration of the moments."""
    rng = np.random.default_rng(67)
    for _ in range(10):
        model = gd.random_stable_model(rng)
        dd = gd.drift_diffusion(model)
        ss = gd.steady_state_unconditional(dd)
        state0 = gd.vacuum(model.n)
        t_grid = np.linspace(0.0, 60.0, 6001)
        means, cms = gd.unconditional_path(dd, state0, t_grid)
        assert np.allclose(cms[-1], ss.cm, atol=1e-7)
        assert np.allclose(means[-1], ss.mean, atol=1e-7)
    with pytest.raises(NoSteadyStateError, match="not Hurwitz"):
        gd.steady_state_unconditional(gd.DriftDiffusion(np.eye(2), np.eye(2), np.zeros(2)))


def test_random_stable_model_gives_up_after_its_draws(monkeypatch):
    """random_stable_model raises once every one of its draws has a drift that is not Hurwitz."""
    monkeypatch.setattr(gd.randomized, "is_hurwitz", lambda a: False)
    with pytest.raises(gd.NumericError, match="no Hurwitz model found in 1000 draws"):
        gd.random_stable_model(np.random.default_rng(0))


def test_unconditional_steady_state_at_large_noise():
    """The Lyapunov residual is gated relative to its largest term, so large but valid noise solves.

    The OPO at chi~ = 0.3, nu_in = 1e8 matches its closed form, and random
    models at nu_in = 1e7 match scipy's Bartels-Stewart solve.  An absolute
    gate of 1e-10 rejected all six (residuals 5e-9 to 3e-7).
    """
    p = gd.OpoParams(0.3, nu_in=1e8)
    ref = gd.opo_unconditional_ss(p).cm
    assert np.abs(gd.steady_state_unconditional(gd.drift_diffusion(gd.opo_model(p))).cm - ref).max() <= 1e-15 * 1e8
    rng = np.random.default_rng(0)
    for _ in range(5):
        dd = gd.drift_diffusion(gd.random_stable_model(rng, nu_in=1e7))
        ref = solve_continuous_lyapunov(dd.a, -dd.d)
        assert np.abs(gd.steady_state_unconditional(dd).cm - ref).max() <= 1e-13 * np.abs(ref).max()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(seed=st_.integers(0, 2**32 - 1), log_nu=st_.floats(0.0, math.log(1e9)))
def test_unconditional_steady_state_matches_scipy(seed, log_nu):
    """The Kronecker Lyapunov solve agrees with scipy's within 1e-12 relative for nu_in up to 1e9."""
    dd = gd.drift_diffusion(gd.random_stable_model(np.random.default_rng(seed), nu_in=math.exp(log_nu)))
    ref = solve_continuous_lyapunov(dd.a, -dd.d)
    assert np.abs(gd.steady_state_unconditional(dd).cm - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("nu_in", [1.0, 1e8])
def test_unconditional_residual_gate_is_relative(monkeypatch, nu_in):
    """A Lyapunov solution 1e-8 off (relative) fails the gate at any noise scale; one 1e-12 off passes."""
    dd = gd.drift_diffusion(gd.opo_model(gd.OpoParams(0.3, nu_in=nu_in)))
    lyapunov = gd.dynamics._lyapunov
    for factor, passes in ((1.0 + 1e-12, True), (1.0 + 1e-8, False)):
        monkeypatch.setattr(gd.dynamics, "_lyapunov", lambda a, q, factor=factor: lyapunov(a, q) * factor)
        if passes:
            gd.steady_state_unconditional(dd)
        else:
            with pytest.raises(gd.NumericError, match="relative residual"):
                gd.steady_state_unconditional(dd)


def test_conditional_steady_state_against_care():
    """The Hamiltonian Schur solution agrees with scipy's CARE solver on random one-mode models."""
    rng = np.random.default_rng(71)
    for _ in range(20):
        model = gd.random_stable_model(rng, nu_in=1.0 + rng.exponential(1.0))
        setting = GeneralDyneSetting(
            theta_m=rng.uniform(0, np.pi), z_m=float(np.exp(rng.uniform(np.log(1e-2), 0.0)))
        )
        mm = gd.monitored(model, setting)
        sigma = gd.steady_state_conditional(mm)
        ref = care_steady_state(mm)
        assert np.allclose(sigma, ref, atol=1e-8), (sigma, ref)
        assert gd.riccati_residual(mm, sigma) < 1e-9


def _assert_matches_care_oracle(mm):
    sigma = gd.steady_state_conditional(mm)
    ref = care_steady_state(mm)
    assert np.abs(sigma - ref).max() <= 1e-12 * np.abs(ref).max(), np.abs(sigma - ref).max()


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(
    chi_t=st_.sampled_from([0.0, 0.3, 0.9, 0.99]),
    nu_in=st_.floats(1.0, 10.0),
    theta=st_.floats(0.02, 0.5 * math.pi - 0.02),
    quarter=st_.integers(0, 1),
    log_z=st_.floats(math.log(1e-12), 0.0),
    nu_m=st_.floats(1.0, 5.0),
    sharp=st_.booleans(),
)
@example(chi_t=0.0, nu_in=1.0, theta=0.3, quarter=1, log_z=math.log(1e-12), nu_m=1.0, sharp=True)
@example(chi_t=0.99, nu_in=3.0, theta=0.7, quarter=0, log_z=math.log(1e-12), nu_m=4.0, sharp=False)
def test_opo_steady_state_matches_care_oracle(chi_t, nu_in, theta, quarter, log_z, nu_m, sharp):
    """At generic phases (where opo_conditional_ss solves it) the OPO steady state is scipy's CARE solution.

    Exact homodyne, z_m down to 1e-12 and noisy pointers (nu_m > 1)
    included; within 1e-12 of |sigma|.
    """
    p = gd.OpoParams(chi_t, nu_in=nu_in)
    phase = theta + 0.5 * math.pi * quarter
    setting = GeneralDyneSetting(nu_m=nu_m, theta_m=phase, z_m=0.0 if sharp else min(math.exp(log_z), 1.0))
    _assert_matches_care_oracle(gd.monitored(gd.opo_model(p), setting))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(seed=st_.integers(0, 2**32 - 1), n=st_.sampled_from([2, 3]), mixed=st_.booleans())
def test_multimode_steady_state_matches_care_oracle(seed, n, mixed):
    """Random 2- and 3-mode models: the steady state is scipy's CARE solution within 1e-12 of |sigma|.

    Mixed settings put an exact homodyne (and often a z_m = 1e-12 or noisy
    pointer) on some input mode; the others are random, possibly noisy.
    """
    rng = np.random.default_rng(seed)
    model = _random_hurwitz_model(rng, n, driven=False)
    settings_ = _mixed_settings(rng, n) if mixed else [gd.random_setting(rng, efficient=False) for _ in range(n)]
    _assert_matches_care_oracle(gd.monitored(model, settings_))


def _assert_det_matches_60_digit_oracle(model, settings, closed=None):
    """det of steady_state_conditional within 1e-11 relative of the oracle's, and det closed within 1e-12 if given.

    Each float result's det is taken exactly.
    """
    sigma = gd.steady_state_conditional(gd.monitored(model, settings))
    oracle = steady_state(gd.drift_diffusion(model).a, model.c, model.sigma_in, settings)
    with mp.workdps(DPS):
        exact = mp.det(oracle)
        gaps = [float(abs(mp.det(mp.matrix(x.tolist())) - exact) / exact) for x in (sigma, closed) if x is not None]
    assert gaps[0] <= 1e-11, gaps
    assert all(gap <= 1e-12 for gap in gaps[1:]), gaps


_NEAR_THRESHOLD = (0.99, 1.0 - 1e-5, 1.0 - 1e-7, 1.0 - 1e-9)


@pytest.mark.parametrize("nu_in", [1.0, 3.0])
@pytest.mark.parametrize("chi_tilde", _NEAR_THRESHOLD)
def test_opo_steady_state_matches_60_digit_oracle(chi_tilde, nu_in):
    """Up to 1e-9 from threshold, det sigma_c (the paper's purity) holds to 1e-11 of a 60-digit solve of the same data.

    Diagonal phases (hom0, hom90, z_opt at phase 0, heterodyne) and generic
    ones (general-dyne and homodyne at 0.7).  Near threshold the small root of
    the measured quadrature is where Dt formed as D - E E^T in floats loses
    up to 5 % (hom0, chi~ = 1 - 1e-7, nu_in = 3).  At the diagonal phases
    opo_conditional_ss, the per-quadrature roots, holds to 1e-12.
    """
    p = gd.OpoParams(chi_tilde, nu_in=nu_in)
    diagonal = (gd.homodyne(0.0), gd.homodyne(0.5 * np.pi), GeneralDyneSetting(z_m=gd.opo_zopt(p)), gd.heterodyne())
    for setting in diagonal:
        _assert_det_matches_60_digit_oracle(gd.opo_model(p), [setting], gd.opo_conditional_ss(p, setting))
    for setting in (GeneralDyneSetting(theta_m=0.7, z_m=0.3), gd.homodyne(0.7)):
        _assert_det_matches_60_digit_oracle(gd.opo_model(p), [setting])


@pytest.mark.parametrize("n", [2, 3])
def test_multimode_steady_state_matches_60_digit_oracle(n):
    """Random 2- and 3-mode models with mixed (homodyne, z_m = 1e-12, noisy) settings agree with the oracle too."""
    rng = np.random.default_rng(700 + n)
    for _ in range(3):
        _assert_det_matches_60_digit_oracle(_random_hurwitz_model(rng, n, driven=False), _mixed_settings(rng, n))


# 4x4 Hamiltonian matrices [[-A^T, R], [Q, A]] with eigenvalues +-1, +-i (one stable) and +-i twice (none).
_ONE_STABLE = [[-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0], [0.0, -1.0, 0.0, 0.0]]
_NONE_STABLE = [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], [-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]]


def _two_mode_generic():
    """A two-mode model at generic settings: its steady state takes the Schur route."""
    rng = np.random.default_rng(131)
    return gd.monitored(_random_hurwitz_model(rng, 2, driven=False), _mixed_settings(rng, 2))


@pytest.mark.parametrize("nu_in", [1e20, 1e30])
def test_generic_phase_solves_at_large_bath_noise(nu_in, capsys):
    """At nu_in = 1e20 and 1e30 a generic phase solves to the oracle's det sigma_c, and opo-ss exits 0."""
    setting = GeneralDyneSetting(theta_m=0.7, z_m=0.3)
    _assert_det_matches_60_digit_oracle(gd.opo_model(gd.OpoParams(0.6, nu_in=nu_in)), [setting])
    args = ["opo-ss", "--chi-tilde", "0.6", "--nu-in", f"{nu_in:g}", "--strategy", "gendyne", "--z-m", "0.3"]
    assert main(args + ["--theta-m", "0.7"]) == 0, capsys.readouterr().err


def test_wrong_stable_subspace_dimension_is_a_numeric_error(monkeypatch):
    """A Hamiltonian whose stable invariant subspace is not n-dimensional gives no steady state: NumericError.

    The one-mode basis step reads the dimension off s = det H and
    p = -tr H^2 / 2, and names how many eigenvalues have negative real part.
    It is handed Hamiltonians with one stable eigenvalue and with none:
    s < 0 (+-1 and +-i, two ways), s > 0 with -p + 2 sqrt(s) <= 0 (+-i twice,
    and +-i and +-2i), and s = 0 with p < 0 (+-1 and a double 0).
    """
    basis = gd.dynamics._one_mode_basis
    mm = gd.monitored(gd.opo_model(gd.OpoParams(0.6, nu_in=3.0)), GeneralDyneSetting(theta_m=0.7, z_m=0.4))
    swapped = [[1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]]
    two_pairs = block_diag([[0.0, 1.0], [-1.0, 0.0]], [[0.0, 2.0], [-2.0, 0.0]]).tolist()
    singular = np.diag([1.0, -1.0, 0.0, 0.0]).tolist()
    for h, stable in [(_ONE_STABLE, 1), (swapped, 1), (_NONE_STABLE, 0), (two_pairs, 0), (singular, 1)]:
        assert sum(x.real < 0.0 for x in np.linalg.eigvals(np.array(h))) == stable
        monkeypatch.setattr(gd.dynamics, "_one_mode_basis", lambda _, h=h: basis(h))
        with pytest.raises(gd.NumericError, match=f"solve failed: .* has {stable} stable eigenvalues, expected 2"):
            gd.steady_state_conditional(mm)


def test_wrong_stable_subspace_dimension_on_the_schur_route(monkeypatch):
    """The same failure on the Schur route (two modes): a stable subspace of dimension 3, not 4."""
    stable_schur = gd.dynamics._stable_schur

    def short_schur(h):
        z, sdim = stable_schur(h)
        return z, sdim - 1

    monkeypatch.setattr(gd.dynamics, "_stable_schur", short_schur)
    with pytest.raises(gd.NumericError, match="algebraic Riccati solve failed: .* 3 stable eigenvalues, expected 4"):
        gd.steady_state_conditional(_two_mode_generic())


def test_one_mode_generic_route_makes_no_schur_call(monkeypatch):
    """The one-mode steady state at a generic phase is found without a Schur decomposition or eigenvalue call."""

    def forbidden(*args, **kwargs):
        raise AssertionError("LAPACK eigensolver called on the one-mode route")

    p, setting = gd.OpoParams(0.6, nu_in=3.0), GeneralDyneSetting(theta_m=0.7, z_m=0.3)
    expected = gd.opo_conditional_ss(p, setting)
    monkeypatch.setattr(gd.dynamics, "_stable_schur", forbidden)
    monkeypatch.setattr(gd.dynamics, "dgeev", forbidden)
    monkeypatch.setattr(gd.dynamics.np.linalg, "eigvals", forbidden)
    assert np.array_equal(gd.opo_conditional_ss(p, setting), expected)
    _assert_det_matches_60_digit_oracle(gd.opo_model(p), [setting])


def test_unphysical_riccati_solution_is_a_numeric_error(monkeypatch, capsys):
    """A steady state that passes the residual and stabilizing gates but is 0.5 I raises NumericError (exit 3).

    The one-mode basis step is replaced so that the solve returns 0.5 I, and
    the two gates before the physicality check are made to pass; the message
    names the failing quantity, det(sigma + TOL_PSD I) = 0.25.
    """
    mm = gd.monitored(gd.opo_model(gd.OpoParams(0.6, nu_in=3.0)), GeneralDyneSetting(theta_m=0.7, z_m=0.4))
    c, _ = gd.dynamics._hamiltonian(mm.at, mm.dtilde, mm.bbt)  # sigma = c V U^-1
    basis = [[1.0, 0.0], [0.0, 1.0], [0.5 / c, 0.0], [0.0, 0.5 / c]]
    monkeypatch.setattr(gd.dynamics, "_one_mode_basis", lambda h: basis)
    monkeypatch.setattr(gd.dynamics, "_relative_residual", lambda *args: 0.0)
    monkeypatch.setattr(gd.dynamics, "is_hurwitz", lambda a: True)
    monkeypatch.setattr(gd.dynamics, "_is_hurwitz2", lambda *entries: True)  # the one-mode closed loop, on floats
    message = r"Riccati steady state is unphysical: uncertainty principle violated: det sigma' = 2\.5"
    with pytest.raises(gd.NumericError, match=message):
        gd.steady_state_conditional(mm)
    args = ["opo-ss", "--chi-tilde", "0.6", "--nu-in", "3", "--strategy", "gendyne", "--z-m", "0.4", "--theta-m", "0.7"]
    assert main(args) == 3
    assert "Riccati steady state is unphysical" in capsys.readouterr().err


def test_unphysical_riccati_solution_on_the_schur_route(monkeypatch):
    """The same physicality gate on the Schur route: Schur vectors that give 0.5 I for two modes raise NumericError."""
    mm = _two_mode_generic()
    c, _ = gd.dynamics._hamiltonian(mm.at, mm.dtilde, mm.bbt)  # sigma = c Z21 Z11^-1
    z = np.zeros((8, 8))
    z[:4, :4], z[4:, :4] = np.eye(4), 0.5 / c * np.eye(4)
    monkeypatch.setattr(gd.dynamics, "_stable_schur", lambda h: (z, 4))
    monkeypatch.setattr(gd.dynamics, "_relative_residual", lambda *args: 0.0)
    monkeypatch.setattr(gd.dynamics, "is_hurwitz", lambda a: True)
    with pytest.raises(gd.NumericError, match="Riccati steady state is unphysical: "):
        gd.steady_state_conditional(mm)


@pytest.mark.parametrize(
    "n, scale, cause",
    [
        pytest.param(2, 1e-320, "nearly singular upper block", id="1e-320-nearly singular upper block"),
        pytest.param(2, 0.0, "Singular matrix", id="0.0-Singular matrix"),
        pytest.param(1, 1e-160, "nearly singular upper block", id="one-mode-1e-160-nearly singular upper block"),
        pytest.param(1, 0.0, "singular upper block (det U = 0.0", id="one-mode-0.0-singular upper block"),
    ],
)
def test_degenerate_schur_basis_is_a_numeric_error(monkeypatch, capsys, n, scale, cause):
    """A stable basis whose upper block is scale I with sigma not finite, or singular, fails the solve with NumericError.

    Two modes take a Schur basis with upper block 1e-320 I (sigma overflows)
    or 0.  One mode takes a closed-form basis with upper block 1e-160 I, whose
    determinant 1e-320 is not 0, or 0; there opo-ss exits 3.  The non-finite sigma
    is caught right after the solve, before the closed loop's eigenvalues
    would raise numpy's LinAlgError (a ValueError) on it, and with no
    RuntimeWarning.
    """
    if n == 1:
        basis = [[scale, 0.0], [0.0, scale], [1.0, 0.0], [0.0, 1.0]]
        monkeypatch.setattr(gd.dynamics, "_one_mode_basis", lambda h: basis)
        mm = gd.monitored(gd.opo_model(gd.OpoParams(0.6, nu_in=3.0)), GeneralDyneSetting(theta_m=0.7, z_m=0.4))
        args = ["opo-ss", "--chi-tilde", "0.6", "--nu-in", "3", "--strategy", "gendyne", "--z-m", "0.4"]
        assert main(args + ["--theta-m", "0.7"]) == 3
        assert cause in capsys.readouterr().err
    else:
        z = np.zeros((8, 8))
        z[:4, :4], z[4:, :4] = scale * np.eye(4), np.eye(4)
        monkeypatch.setattr(gd.dynamics, "_stable_schur", lambda h: (z, 4))
        mm = _two_mode_generic()
    with pytest.raises(gd.NumericError, match=f"algebraic Riccati solve failed: .*{re.escape(cause)}"):
        gd.steady_state_conditional(mm)


@pytest.mark.parametrize("n", [1, 2])
def test_anti_stabilizing_riccati_solution_is_a_numeric_error(monkeypatch, capsys, n):
    """A basis of the anti-stable subspace of -H solves the Riccati equation, but its closed loop is not Hurwitz.

    The basis is patched into _one_mode_basis (one mode, which is handed H)
    or _stable_schur (two modes, handed -H); opo-ss exits 3 on it.
    """
    if n == 1:
        monkeypatch.setattr(gd.dynamics, "_one_mode_basis", lambda h: schur(np.array(h), sort="lhp")[0][:, :2].tolist())
        mm = gd.monitored(gd.opo_model(gd.OpoParams(0.6, nu_in=3.0)), GeneralDyneSetting(theta_m=0.7, z_m=0.4))
        args = ["opo-ss", "--chi-tilde", "0.6", "--nu-in", "3", "--strategy", "gendyne", "--z-m", "0.4"]
        assert main(args + ["--theta-m", "0.7"]) == 3
        assert "Riccati solution is not stabilizing" in capsys.readouterr().err
    else:
        monkeypatch.setattr(gd.dynamics, "_stable_schur", lambda h: (schur(h, sort="rhp")[0], 4))
        mm = _two_mode_generic()
    with pytest.raises(gd.NumericError, match="Riccati solution is not stabilizing"):
        gd.steady_state_conditional(mm)


def _count_lyapunov_calls(monkeypatch) -> list:
    """Route the Newton-Kleinman step's Lyapunov solver (dynamics._lyapunov) through a call log."""
    calls = []
    lyapunov = gd.dynamics._lyapunov

    def counted(*args, **kwargs):
        calls.append(args)
        return lyapunov(*args, **kwargs)

    monkeypatch.setattr(gd.dynamics, "_lyapunov", counted)
    return calls


@pytest.mark.parametrize("setting", [GeneralDyneSetting(theta_m=0.7, z_m=0.4), gd.homodyne(1.1)])
def test_accurate_schur_solution_takes_no_newton_step(monkeypatch, setting):
    """At a generic phase the Schur solution is already at round-off, so no Lyapunov solve runs."""
    calls = _count_lyapunov_calls(monkeypatch)
    _assert_matches_care_oracle(gd.monitored(gd.opo_model(gd.OpoParams(0.6, nu_in=3.0)), setting))
    assert calls == []


def _scaled_basis(monkeypatch, factor):
    """Route the one-mode basis step and the Schur route through copies whose sigma = c V U^-1 scales by factor."""
    basis, stable_schur = gd.dynamics._one_mode_basis, gd.dynamics._stable_schur

    def scaled_basis(h):
        u0, u1, v0, v1 = basis(h)
        return [u0, u1, [x * factor for x in v0], [x * factor for x in v1]]

    def scaled_schur(h):
        z, sdim = stable_schur(h)
        dim = h.shape[0] // 2
        z = z.copy()
        z[dim:, :dim] *= factor  # sigma = c Z21 Z11^-1 scales by the same factor
        return z, sdim

    monkeypatch.setattr(gd.dynamics, "_one_mode_basis", scaled_basis)
    monkeypatch.setattr(gd.dynamics, "_stable_schur", scaled_schur)


def test_perturbed_schur_solution_is_refined(monkeypatch):
    """A solution 1e-9 off (relative) is refined by Newton-Kleinman back to the CARE oracle within 1e-12 |sigma|.

    The one-mode models take the closed-form basis step, the three-mode model
    the Schur route; both are perturbed.
    """
    _scaled_basis(monkeypatch, 1.0 + 1e-9)
    calls = _count_lyapunov_calls(monkeypatch)
    rng = np.random.default_rng(97)
    models = [
        gd.monitored(gd.opo_model(gd.OpoParams(0.6, nu_in=3.0)), GeneralDyneSetting(theta_m=0.7, z_m=0.4)),
        gd.monitored(gd.opo_model(gd.OpoParams(0.99, nu_in=3.0)), gd.homodyne(0.3)),
        gd.monitored(_random_hurwitz_model(rng, 3, driven=False), _mixed_settings(rng, 3)),
    ]
    for mm in models:
        before = len(calls)
        _assert_matches_care_oracle(mm)
        assert len(calls) > before


@pytest.mark.parametrize("nu_in", [3.0, 1e8])
def test_residual_gate_is_relative_to_the_riccati_scale(monkeypatch, nu_in):
    """The residual gate compares the residual with the largest Riccati term, and holds on both sides.

    Scaling the solution by 1 + 1e-10 and by 1 + 1e-8 leaves relative
    residuals on either side of the gate: steady_state_conditional (Newton
    steps off) passes the first and fails the second.  At nu_in = 1e8 the
    first one's absolute residual (about 3e-2) is far above SS_RESIDUAL_TOL,
    but only about 1e-10 of the scale, so it passes.
    """
    model = gd.opo_model(gd.OpoParams(0.6, nu_in=nu_in))
    mm = gd.monitored(model, GeneralDyneSetting(theta_m=0.7, z_m=0.3))
    sigma = gd.steady_state_conditional(mm)
    if nu_in > 1e6:
        assert gd.riccati_residual(mm, sigma * (1.0 + 1e-10)) > gd.dynamics.SS_RESIDUAL_TOL
    below, above = (gd.dynamics._relative_residual(mm.at, mm.dtilde, mm.bbt, sigma * (1.0 + d)) for d in (1e-10, 1e-8))
    assert below < gd.dynamics.SS_RESIDUAL_TOL < above
    assert gd.dynamics._decoupled(mm) is None
    _assert_residual_gate_holds_on_both_sides(monkeypatch, mm)


def _assert_residual_gate_holds_on_both_sides(monkeypatch, mm):
    """With Newton steps off, a solution scaled by 1 + 1e-10 passes the gate and one scaled by 1 + 1e-8 fails it."""
    monkeypatch.setattr(gd.dynamics, "SS_NEWTON_STEPS", 0)
    for factor, passes in ((1.0 + 1e-10, True), (1.0 + 1e-8, False)):
        _scaled_basis(monkeypatch, factor)
        if passes:
            gd.steady_state_conditional(mm)
        else:
            with pytest.raises(ConvergenceError, match="relative residual"):
                gd.steady_state_conditional(mm)


def test_residual_gate_on_the_schur_route(monkeypatch):
    """The relative residual gate holds on both sides on the Schur route (two modes) too."""
    mm = _two_mode_generic()
    sigma = gd.steady_state_conditional(mm)
    below, above = (gd.dynamics._relative_residual(mm.at, mm.dtilde, mm.bbt, sigma * (1.0 + d)) for d in (1e-10, 1e-8))
    assert below < gd.dynamics.SS_RESIDUAL_TOL < above
    _assert_residual_gate_holds_on_both_sides(monkeypatch, mm)


def _interval_map_flow(monkeypatch, mm, sigma0, t_grid):
    """evolve_conditional_cm on the interval-map route, also for a filter that decouples."""
    with monkeypatch.context() as patch:
        patch.setattr(gd.dynamics, "_decoupled", lambda mm: None)
        return gd.evolve_conditional_cm(mm, sigma0, t_grid)


def test_steady_state_is_the_flow_limit(monkeypatch):
    """The algebraic steady state is where the Riccati flow ends, with a Hurwitz closed loop.

    The reference needs no algebraic Riccati solver: the interval maps (the
    route evolve_conditional_cm takes for every filter that does not
    decouple, and here for those that do too) run from the unconditional
    steady state over a long horizon.  The OPO homodyne cases
    are the rank-deficient limit: at phase 0 and nu_in = 3 they also have the
    closed form nu diag(1 - chi~, 1/(1 - chi~)), and at chi~ = 0 and phase
    pi/2 the x quadrature is unobserved up to round-off.
    """
    rng = np.random.default_rng(89)
    cases = [(gd.opo_model(gd.OpoParams(ct, nu_in=3.0)), gd.homodyne(0.0)) for ct in (0.3, 0.6)]
    cases.append((gd.opo_model(gd.OpoParams(0.0)), gd.homodyne(0.5 * np.pi)))
    cases += [
        (gd.random_stable_model(rng, nu_in=1.0 + rng.exponential(1.0)), gd.random_setting(rng)) for _ in range(8)
    ]
    for model, setting in cases:
        mm = gd.monitored(model, setting)
        sigma = gd.steady_state_conditional(mm)
        dd = gd.drift_diffusion(model)
        start = gd.steady_state_unconditional(dd).cm
        flow = _interval_map_flow(monkeypatch, mm, start, np.linspace(0.0, 2000.0, 9))[-1]
        assert np.abs(sigma - flow).max() <= 1e-8, np.abs(sigma - flow).max()
        closed = dd.a + mm.e @ mm.b.T - sigma @ mm.b @ mm.b.T
        assert np.linalg.eigvals(closed).real.max() < 0.0
    for ct in (0.3, 0.6):
        mm = gd.monitored(gd.opo_model(gd.OpoParams(ct, nu_in=3.0)), gd.homodyne(0.0))
        exact = 3.0 * np.diag([1.0 - ct, 1.0 / (1.0 - ct)])
        assert np.abs(gd.steady_state_conditional(mm) - exact).max() <= 1e-9


def test_homodyne_limit_matches_small_z():
    """The exact homodyne steady state is the z_m -> 0 limit of general-dyne."""
    rng = np.random.default_rng(73)
    for _ in range(10):
        model = gd.random_stable_model(rng, nu_in=1.5)
        theta = rng.uniform(0, np.pi)
        exact = gd.steady_state_conditional(gd.monitored(model, gd.homodyne(theta)))
        near = gd.steady_state_conditional(
            gd.monitored(model, GeneralDyneSetting(theta_m=theta, z_m=1e-6))
        )
        assert np.allclose(exact, near, atol=1e-4), np.abs(exact - near).max()


def _mixed_settings(rng, m):
    """One setting per input mode: homodyne, z_m = 1e-12 or a random finite (possibly noisy) setting."""
    kinds = rng.integers(0, 3, size=m)
    kinds[rng.integers(m)] = 0  # at least one homodyne
    out = []
    for kind in kinds:
        theta = rng.uniform(0.0, np.pi)
        if kind == 0:
            out.append(gd.homodyne(theta))
        elif kind == 1:
            out.append(GeneralDyneSetting(theta_m=theta, z_m=1e-12))
        else:
            out.append(gd.random_setting(rng, efficient=False, allow_homodyne=False))
    return out


@pytest.mark.parametrize("m", [1, 2, 3])
def test_monitored_gains_are_the_root_of_inverse_sum(m):
    """B and E come from the per-mode PSD root of measurement.inverse_sum, homodyne included.

    B B^T = C Omega_m (sigma_in + sigma_m)^-1 Omega_m^T C^T and
    E = Omega C sigma_in (sigma_in + sigma_m)^(-1/2), block by block, and the
    z_m = 1e-12 root lies within 1e-6 of the homodyne root (the exact gap is
    (nu_j + 1e12)^(-1/2) < 1e-6 along the unmeasured quadrature).  B is
    linear in C, so the root itself is read off the gain B = Omega_m root of
    the same input under the identity coupling.
    """
    rng = np.random.default_rng(400 + m)
    om_m = gd.symplectic_form(m)

    def root_of(sigma_in, settings):
        probe = DiffusiveModel(np.zeros((2 * m, 2 * m)), np.eye(2 * m), sigma_in, np.zeros(2 * m))
        return om_m.T @ gd.monitored(probe, settings).b

    for _ in range(20):
        n = int(rng.integers(1, 3))
        h_s = rng.standard_normal((2 * n, 2 * n))
        sigma_in = block_diag(*[gd.random_state(rng, 1).cm for _ in range(m)])
        model = DiffusiveModel(0.5 * (h_s + h_s.T), rng.standard_normal((2 * n, 2 * m)), sigma_in, np.zeros(2 * m))
        settings = _mixed_settings(rng, m)
        mm = gd.monitored(model, settings)
        blocks = [slice(2 * j, 2 * j + 2) for j in range(m)]
        invs = [gd.inverse_sum(model.sigma_in[sl, sl], s) for sl, s in zip(blocks, settings)]
        bbt = model.c @ om_m @ block_diag(*invs) @ om_m.T @ model.c.T
        assert np.abs(mm.b @ mm.b.T - bbt).max() <= 1e-12 * np.abs(bbt).max()

        root = root_of(model.sigma_in, settings)
        assert np.array_equal(root, block_diag(*[root[sl, sl] for sl in blocks]))
        for sl, inv in zip(blocks, invs):
            r = root[sl, sl]
            scale = np.abs(r).max()
            assert np.abs(r - r.T).max() <= 1e-15 * scale
            assert np.linalg.eigvalsh(0.5 * (r + r.T)).min() >= -1e-14 * scale
            assert np.abs(r @ r - inv).max() <= 1e-12 * np.abs(inv).max()
        b = model.c @ om_m @ root
        e = gd.symplectic_form(n) @ model.c @ model.sigma_in @ root
        assert np.abs(mm.b - b).max() <= 1e-12 * np.abs(b).max()
        assert np.abs(mm.e - e).max() <= 1e-12 * np.abs(e).max()

        near = [GeneralDyneSetting(theta_m=s.theta_m, z_m=1e-12) if s.homodyne else s for s in settings]
        gap = np.abs(root_of(model.sigma_in, near) - root).max()
        assert gap <= 1e-6, gap


def test_zero_temperature_purifies():
    """With a pure input and efficient monitoring the conditional state purifies."""
    rng = np.random.default_rng(79)
    for _ in range(15):
        model = gd.random_stable_model(rng, nu_in=1.0)
        setting = gd.random_setting(rng, efficient=True)
        sigma = gd.steady_state_conditional(gd.monitored(model, setting))
        nus = gd.symplectic_eigenvalues(sigma)
        assert np.allclose(nus, 1.0, atol=1e-7), nus


def test_conditioning_never_hurts_steady_state():
    """det sigma_c^ss <= det sigma_unc^ss for any setting."""
    rng = np.random.default_rng(83)
    for _ in range(15):
        model = gd.random_stable_model(rng, nu_in=1.0 + rng.exponential(1.0))
        setting = gd.random_setting(rng)
        mm = gd.monitored(model, setting)
        det_c = np.linalg.det(gd.steady_state_conditional(mm))
        det_u = np.linalg.det(gd.steady_state_unconditional(gd.drift_diffusion(model)).cm)
        assert det_c <= det_u + 1e-9


def test_transient_reaches_steady_state():
    """evolve_conditional_cm converges to the algebraic steady state."""
    p = gd.OpoParams(0.7, nu_in=2.0)
    mm = gd.monitored(gd.opo_model(p), gd.heterodyne())
    t_grid = np.linspace(0.0, 30.0, 3001)
    path = gd.evolve_conditional_cm(mm, 4.0 * np.eye(2), t_grid)
    ss = gd.steady_state_conditional(mm)
    assert np.allclose(path[-1], ss, atol=1e-9)
    assert path.shape == (3001, 2, 2)
    with pytest.raises(ValueError, match="strictly increasing"):
        gd.evolve_conditional_cm(mm, np.eye(2), [0.0, 0.0, 1.0])


def test_conditional_cm_is_grid_independent():
    """Two 20-unit steps land on the values of a 40 001-point grid."""
    p = gd.OpoParams(0.9, nu_in=1.0)
    mm = gd.monitored(gd.opo_model(p), gd.homodyne(0.0))
    coarse = gd.evolve_conditional_cm(mm, 100.0 * np.eye(2), [0.0, 20.0, 40.0])
    fine = gd.evolve_conditional_cm(mm, 100.0 * np.eye(2), np.linspace(0.0, 40.0, 40001))
    assert np.abs(coarse[1] - fine[20000]).max() <= 1e-9
    assert np.abs(coarse[2] - fine[-1]).max() <= 1e-9


def _random_hurwitz_model(rng, n=2, driven=True):
    """Random Hurwitz n-mode model with a thermal n-mode environment, driven unless told otherwise."""
    while True:
        h_s = rng.standard_normal((2 * n, 2 * n))
        model = DiffusiveModel(
            0.5 * (h_s + h_s.T),
            rng.standard_normal((2 * n, 2 * n)),
            np.kron(np.diag(rng.uniform(1.0, 3.0, size=n)), np.eye(2)),
            rng.standard_normal(2 * n) if driven else np.zeros(2 * n),
        )
        if gd.is_hurwitz(gd.drift_diffusion(model).a):
            return model


def test_unconditional_path_carries_large_means():
    """A driven two-mode path from mean entries of 1e200 stays finite and matches expm.

    The means ride along as vectors and enter no matrix (r0 r0^T would
    overflow from about 1e154 on).  They are checked against the exponential
    of the augmented drift [[A, d], [0, 0]] applied to [r0; 1], the CMs against
    e^{At} (s0 - s_inf) e^{A^T t} + s_inf.
    """
    rng = np.random.default_rng(211)
    dd = gd.drift_diffusion(_random_hurwitz_model(rng, 2))
    state0 = GaussianState(np.full(4, 1e200), 3.0 * np.eye(4))
    grid = np.linspace(0.0, 5.0, 101)
    means, cms = gd.unconditional_path(dd, state0, grid)
    assert np.isfinite(means).all() and np.isfinite(cms).all()
    aug, sigma_inf = np.zeros((5, 5)), solve_continuous_lyapunov(dd.a, -dd.d)
    aug[:4, :4], aug[:4, 4] = dd.a, dd.drive
    for t, mean, cm in zip(grid, means, cms):
        e = expm(t * aug)
        exact = e[:4, :4] @ state0.mean + e[:4, 4]
        assert np.abs(mean - exact).max() <= 1e-13 * 1e200, (t, np.abs(mean - exact).max())
        exact = e[:4, :4] @ (state0.cm - sigma_inf) @ e[:4, :4].T + sigma_inf
        assert np.abs(cm - exact).max() <= 1e-12 * np.abs(exact).max(), (t, np.abs(cm - exact).max())


def _random_two_mode_model(rng):
    """Random Hurwitz two-mode model with a driven, thermal two-mode environment."""
    return _random_hurwitz_model(rng)


def test_unconditional_path_returns_means_of_their_own():
    """The public means own their memory on both routes, so keeping them does not keep the route's moment arrays.

    The OPO's closed form stacks five moment rows and a coupled drift walks
    the augmented flow; a view of either kept its whole array alive.
    """
    state0 = GaussianState(np.array([0.7, -1.2]), 3.0 * np.eye(2))
    rotated = gd.DriftDiffusion(a=np.array([[-0.5, 0.2], [-0.1, -0.8]]), d=np.eye(2), drive=np.array([0.3, 0.0]))
    for dd in (gd.opo_model(gd.OpoParams(0.6, nu_in=3.0)).dd, rotated):
        means, cms = gd.unconditional_path(dd, state0, np.linspace(0.0, 2.0, 21))
        assert means.flags.owndata and means.shape == (21, 2)
        assert np.array_equal(means, gd.dynamics._unconditional_path(dd, state0, np.linspace(0.0, 2.0, 21))[0])


def test_unconditional_path_is_grid_independent():
    """A single step of any length gives F (s0 - s_inf) F^T + s_inf and F (r0 - r_inf) + r_inf.

    On the OPO's drift (one mode, diagonal, undriven) each point depends on
    its own time alone: the grid [0, t] gives point t of a 10001-point grid
    bit for bit.
    """
    rng = np.random.default_rng(97)
    model = _random_two_mode_model(rng)
    dd = gd.drift_diffusion(model)
    state0 = GaussianState(rng.standard_normal(4), 3.0 * np.eye(4))
    sigma_inf = solve_continuous_lyapunov(dd.a, -dd.d)
    mean_inf = -np.linalg.solve(dd.a, dd.drive)
    for t in (2.5, 200.0):
        means, cms = gd.unconditional_path(dd, state0, [0.0, t])
        f = expm(t * dd.a)
        assert np.abs(cms[-1] - (f @ (state0.cm - sigma_inf) @ f.T + sigma_inf)).max() <= 1e-9
        assert np.abs(means[-1] - (f @ (state0.mean - mean_inf) + mean_inf)).max() <= 1e-9
    dd = gd.opo_model(gd.OpoParams(0.8, nu_in=3.0)).dd
    state0 = GaussianState(np.array([0.7, -1.2]), np.array([[4.0, 0.5], [0.5, 2.0]]))
    grid = np.linspace(0.0, 10.0, 10001)
    fine = gd.unconditional_path(dd, state0, grid)
    for i in (1, 4321, 10000):
        for x, y in zip(gd.unconditional_path(dd, state0, [0.0, grid[i]]), fine):
            assert np.array_equal(x[-1], y[i]), i


# Uniform from 0 and non-uniform from t = 0.25.
_CROSS_CHECK_GRIDS = (np.linspace(0.0, 6.0, 61), 0.25 + np.concatenate([[0.0], np.geomspace(1e-3, 6.0, 30)]))


def _oracle_gap(mm, sigma0, t, x) -> float:
    """Max-norm distance of x from the 60-digit transient at time t from sigma0, relative to that transient's largest entry."""
    exact = transient(mm.dd.a, mm.base.c, mm.base.sigma_in, mm.settings, sigma0, t)
    with mp.workdps(DPS):
        scale = max(abs(v) for v in exact)
        return float(max(abs(mp.mpf(v) - w) for v, w in zip(x.ravel().tolist(), exact)) / scale)


@pytest.mark.parametrize("start", ["below", "above"])
@pytest.mark.parametrize("driven", [False, True])
@pytest.mark.parametrize("n", [1, 2])
def test_shift_route_matches_stepping(n, driven, start):
    """The conditional and unconditional flows equal independent references on two grids.

    Random Hurwitz models; sigma0 = c sigma_inf with c = 1 / nu_min(sigma_inf) (physical, below
    sigma_inf) or c = 3 (above); every other model measures with at least one
    exact homodyne.  No filter decouples, so every conditional flow takes the
    interval maps, which are checked against the 60-digit transient
    (tests/riccati_oracle.py) at the middle point of each grid.  The unconditional CMs are checked
    against e^{At} (sigma0 - s_inf) e^{A^T t} + s_inf from scipy (s_inf the
    Lyapunov steady state), and the means against one expm per grid point.
    """
    rng = np.random.default_rng([181, n, driven, start == "above"])
    for i in range(4):
        model = _random_hurwitz_model(rng, n, driven)
        settings = _mixed_settings(rng, n) if i % 2 else [gd.random_setting(rng) for _ in range(n)]
        mm = gd.monitored(model, settings)
        assert gd.dynamics._decoupled(mm) is None, i
        sigma_inf = gd.steady_state_conditional(mm)
        scale = 3.0 if start == "above" else 1.0 / gd.symplectic_eigenvalues(sigma_inf).min()
        state0 = GaussianState(rng.standard_normal(2 * n), scale * sigma_inf)
        dd = mm.dd
        aug = np.block([[dd.a, dd.drive[:, None]], [np.zeros((1, 2 * n + 1))]])
        unc_inf = solve_continuous_lyapunov(dd.a, -dd.d)
        for grid in _CROSS_CHECK_GRIDS:
            flow = gd.evolve_conditional_cm(mm, state0.cm, grid)
            mid = grid.size // 2
            assert _oracle_gap(mm, state0.cm, grid[mid] - grid[0], flow[mid]) <= 1e-12, i
            means, cms = gd.unconditional_path(dd, state0, grid)
            exps = np.array([expm(dd.a * (t - grid[0])) for t in grid])
            exact = exps @ (state0.cm - unc_inf) @ np.swapaxes(exps, 1, 2) + unc_inf
            assert np.abs(cms - exact).max() <= 1e-12 * np.abs(exact).max(), i
            exact = [expm(aug * (t - grid[0]))[:-1] @ np.append(state0.mean, 1.0) for t in grid]
            assert np.abs(means - exact).max() <= 1e-12 * max(1.0, np.abs(exact).max()), i


def test_non_hurwitz_drift_is_stepped(monkeypatch):
    """Without a steady state the conditional flow is exact in closed form and by the interval maps; all flows stay finite.

    Above threshold (chi = 0.8 > kappa / 2) with homodyne at phase 0 the
    growing quadrature is never measured, so no stabilizing solution exists.
    The filter decouples: the measured x quadrature has At = -0.3, Dt = 0 and
    B B^T = 1, so s' = -0.6 s - s^2, and the p quadrature grows as it does
    unconditionally.  The closed form per coordinate takes no interval map,
    and the interval maps agree with it.
    """
    model = DiffusiveModel(-0.8 * np.array([[0.0, 1.0], [1.0, 0.0]]), gd.symplectic_form(1), np.eye(2), np.zeros(2))
    mm = gd.monitored(model, gd.homodyne(0.0))
    assert not gd.is_hurwitz(mm.dd.a) and gd.dynamics._decoupled(mm) is not None
    state0 = GaussianState(np.array([0.5, -0.5]), 2.0 * np.eye(2))
    grid = np.linspace(0.0, 5.0, 51)
    maps = _interval_map_flow(monkeypatch, mm, state0.cm, grid)
    counts = _count_calls(monkeypatch, "_grid_walk")
    flow = gd.evolve_conditional_cm(mm, state0.cm, grid)
    assert not counts and np.isfinite(flow).all()
    assert np.abs(flow - maps).max() <= 1e-12 * flow[-1, 1, 1]
    means, cms = gd.unconditional_path(mm.dd, state0, grid)
    assert np.isfinite(means).all() and np.isfinite(cms).all()
    growth = np.exp(0.6 * grid)  # the p quadrature has a = 0.3 and D = 1: s' = 0.6 s + 1
    assert np.abs(cms[:, 1, 1] - (2.0 * growth + (growth - 1.0) / 0.6)).max() <= 1e-12 * cms[-1, 1, 1]
    decay = np.exp(-0.6 * grid)
    exact = np.zeros_like(flow)
    exact[:, 0, 0] = 2.0 * decay / (1.0 + 2.0 * (1.0 - decay) / 0.6)
    exact[:, 1, 1] = 2.0 * growth + (growth - 1.0) / 0.6
    assert np.abs(flow - exact).max() <= 1e-12 * flow[-1, 1, 1]
    batch = gd.simulate_trajectories(mm, state0, dt=0.1, T=5.0, n_traj=2, master_seed=0)
    assert np.array_equal(batch.sigma_c, flow)


def test_unstable_drift_keeps_its_decaying_quadrature_exact():
    """Above threshold, A = diag(-1.3, 0.3): the decaying quadrature's moments hold along 201-point grids to T = 1000.

    At every point sigma_xx is within 1e-14 relative of the 60-digit
    2 e^{2at} + (e^{2at} - 1) / (2a), a = A00, and mean_x within
    (1e-14 + eps |a| t) relative of 0.5 e^{at}, or of the smallest normal
    float where that underflows: eps |a t| is the conditioning of e^{at},
    whose exponent a t itself rounds.  A closed-form e^{At} = e^{0.3 t} (c0 I + c1 N)
    cancels terms of size e^{0.3 t} in the decaying entries: it gave
    sigma_xx = 8.4e6 at T = 150 and 3.0e228 at T = 1000.
    """
    model = DiffusiveModel(-0.8 * np.array([[0.0, 1.0], [1.0, 0.0]]), gd.symplectic_form(1), np.eye(2), np.zeros(2))
    a = float(model.dd.a[0, 0])
    assert a == -1.3 and model.dd.a[0, 1] == model.dd.a[1, 0] == 0.0 and model.dd.a[1, 1] > 0.0
    state0 = GaussianState(np.array([0.5, -0.5]), 2.0 * np.eye(2))
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    for horizon in (150.0, 1000.0):
        grid = np.linspace(0.0, horizon, 201)
        means, cms = gd.unconditional_path(model.dd, state0, grid)
        with mp.workdps(DPS):
            for t, mean, var in zip(grid.tolist(), means[:, 0].tolist(), cms[:, 0, 0].tolist()):
                decay = mp.exp(mp.mpf(a) * mp.mpf(t))
                exact = 2 * decay**2 + (decay**2 - 1) / (2 * mp.mpf(a))
                assert abs(var - exact) <= 1e-14 * exact, (horizon, t, var)
                assert abs(mean - decay / 2) <= (1e-14 + eps * abs(a) * t) * decay / 2 + tiny, (horizon, t, mean)


# Diagonal drifts (a0, a1) for test_diagonal_drifts_match_60_digit_moments: unstable, zero-rate, a zero cross
# rate a0 + a1, and rates inside the Hurwitz margin; 24 random ones follow.
_DIAGONAL_RATES = ((-1.3, 0.3), (0.0, 0.0), (0.4, -0.4), (0.0, -0.7), (2.2, 1e-3), (-5e-13, -1.0), (1e-13, 5e-14))


def test_diagonal_drifts_match_60_digit_moments(monkeypatch):
    """Every one-mode diagonal drift takes the closed form per moment, to 1e-15 max(1, |a| t) of 60 digits.

    Each moment obeys x' = a x + s (the mean r_i: a = a_i, s = d_i; sigma_ij:
    a = a_i + a_j, s = D_ij), so x(t) = e^{at} x0 + s (e^{at} - 1) / a, and
    x0 + s t at a = 0.  31 drifts, driven or not, stable, unstable, of zero
    rate and within the Hurwitz margin, from random states on a 31-point
    grid to t = 150 and on [0, 0.3, 0.35, 2, 9], and none walks the grid.
    The error is relative to the sum of the magnitudes of the two terms,
    which may cancel, and may grow as |a| t, the conditioning of e^{at}
    whose exponent a t is itself rounded.
    """
    monkeypatch.setattr(gd.dynamics, "_grid_walk", lambda *args: pytest.fail("a diagonal drift walked the grid"))
    rng = np.random.default_rng(331)
    rates = [*_DIAGONAL_RATES, *(tuple(rng.uniform(-2.3, 2.3, 2)) for _ in range(24))]
    for i, (a0, a1) in enumerate(rates):
        x = rng.standard_normal((2, 2))
        drive = rng.standard_normal(2) if i % 2 else np.zeros(2)
        dd = gd.DriftDiffusion(a=np.diag([a0, a1]), d=x @ x.T, drive=drive)
        y = rng.standard_normal((2, 2))
        state0 = gd.validate_state(rng.standard_normal(2), y @ y.T + 2.0 * np.eye(2))
        starts = [*state0.mean.tolist(), state0.cm[0, 0], state0.cm[0, 1], state0.cm[1, 1]]
        moments = list(zip([a0, a1, a0 + a0, a0 + a1, a1 + a1], starts, [*drive.tolist(), *dd.d[[0, 0, 1], [0, 1, 1]]]))
        for grid in (np.linspace(0.0, 150.0, 31), np.array([0.0, 0.3, 0.35, 2.0, 9.0])):
            means, cms = gd.unconditional_path(dd, state0, grid)
            got = [means[:, 0], means[:, 1], cms[:, 0, 0], cms[:, 0, 1], cms[:, 1, 1]]
            assert np.array_equal(cms[:, 0, 1], cms[:, 1, 0]), i
            with mp.workdps(DPS):
                for values, (a, x0, src) in zip(got, moments):
                    for t, v in zip(grid.tolist(), values.tolist()):
                        growth, rate, src = mp.exp(mp.mpf(a) * t), mp.mpf(a), mp.mpf(src)
                        gain = (growth - 1) / rate if a else mp.mpf(t)
                        bound = 1e-15 * max(1.0, abs(a) * t) * (abs(growth * x0) + abs(gain * src))
                        assert abs(v - (growth * x0 + gain * src)) <= bound, (i, a, t)


def _mp_unconditional(dd, state0, grid) -> list:
    """(mean, CM) at each point of grid in 60 digits, from state0 at grid[0], as mpmath matrices.

    The means are mpmath's expm of the augmented drift [[A, d], [0, 0]]
    applied to [r0; 1], and the CMs sigma_inf + e^{At} (sigma0 - sigma_inf) e^{A^T t},
    e^{At} that exponential's upper block and sigma_inf the Lyapunov steady
    state.  The exponential is chained along the grid, one expm per
    distinct step (the steps of float points are exact in 60 digits).
    """
    with mp.workdps(DPS):
        (a00, a01), (a10, a11) = ((mp.mpf(x) for x in row) for row in dd.a.tolist())
        (d00, d01), (_, d11) = dd.d.tolist()
        lyapunov = mp.matrix([[2 * a00, 2 * a01, 0], [a10, a00 + a11, a01], [0, 2 * a10, 2 * a11]])
        s00, s01, s11 = mp.lu_solve(lyapunov, -mp.matrix([d00, d01, d11]))
        sigma_inf = mp.matrix([[s00, s01], [s01, s11]])
        aug = mp.matrix([[a00, a01, dd.drive[0]], [a10, a11, dd.drive[1]], [0, 0, 0]])
        delta, start = mp.matrix(state0.cm.tolist()) - sigma_inf, mp.matrix([*state0.mean.tolist(), 1.0])
        exp, props, out = mp.eye(3), {}, []
        for t0, t1 in zip(grid[:1].tolist() + grid[:-1].tolist(), grid.tolist()):
            if (step := mp.mpf(t1) - mp.mpf(t0)) not in props:
                props[step] = mp.expm(aug * step)
            exp = exp * props[step]
            phi = exp[:2, :2]
            out.append(((exp * start)[:2, 0], sigma_inf + phi * delta * phi.T))
    return out


@pytest.mark.parametrize("driven", [False, True])
def test_coupled_one_mode_moments_match_60_digit_references(driven):
    """One-mode drifts that _uncoupled rejects walk the grid to within 1e-14 of mpmath's moments.

    Six random Hurwitz models with a coupled drift, driven or not, from a
    random displaced state, on a 201-point uniform grid and on
    [0, 0.3, 0.35, 2, 9]: at each point the CM within 1e-14 of
    _mp_unconditional relative to its largest entry (worst 4.3e-15), and the
    mean relative to max(1, its largest entry), the vacuum noise being 1 in
    these units (worst 2.8e-15).  An undriven mean that decays gains about
    eps |A| t relative to its own size from the doubling: 2.2e-14 at worst here.
    """
    rng = np.random.default_rng([227, driven])
    for i in range(6):
        dd = _random_hurwitz_model(rng, 1, driven).dd
        assert not gd.dynamics._uncoupled(dd), i
        x = rng.standard_normal((2, 2))
        state0 = GaussianState(rng.standard_normal(2), x @ x.T + 2.0 * np.eye(2))
        for grid in (np.linspace(0.0, 10.0, 201), np.array([0.0, 0.3, 0.35, 2.0, 9.0])):
            means, cms = gd.unconditional_path(dd, state0, grid)
            with mp.workdps(DPS):
                for t, mean, cm, (exact_mean, exact_cm) in zip(grid, means, cms, _mp_unconditional(dd, state0, grid)):
                    for got, exact, floor in ((mean, exact_mean, 1), (cm.ravel(), exact_cm, 0)):
                        scale = max(floor, *(abs(v) for v in exact))
                        assert max(abs(mp.mpf(v) - w) for v, w in zip(got.tolist(), exact)) <= 1e-14 * scale, (i, t)


def _count_calls(monkeypatch, *names):
    """A Counter of the calls to the named functions of gaussdaemon.dynamics, each still run."""
    counts = collections.Counter()

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(gd.dynamics, name, counted(name, getattr(gd.dynamics, name)))
    return counts


def test_uncoupled_flows_take_the_closed_form(monkeypatch):
    """The OPO's diagonal-phase flows reach neither _grid_walk nor _interval_map, near threshold too.

    transient_table runs with both patched to raise at chi~ = 0.8, 1 - 1e-6
    and 1 - 1e-10: its unconditional moments and its three conditional flows
    (hom0, hom90, het, whose filters decouple) all take their closed forms
    per coordinate.  A generic-phase setting couples the filter, so its
    daemonic_ergotropy_path walks the grid once, for the conditional CM.  A
    driven OPO (a displaced input) still has a diagonal drift: its moments
    take the closed form too, and it walks nowhere.  A coupled random drift
    walks twice, for both flows.
    """
    p = gd.OpoParams(0.8, nu_in=3.0, nu_0=5.0)
    model, state0, grid = gd.opo_model(p), gd.thermal(5.0), np.linspace(0.0, 2.0, 201)

    def forbidden(*args, **kwargs):
        raise AssertionError("a flow with a closed form per coordinate took the doubling")

    with monkeypatch.context() as patch:
        for name in ("_grid_walk", "_interval_map"):
            patch.setattr(gd.dynamics, name, forbidden)
        for chi_tilde in (0.8, 1.0 - 1e-6, 1.0 - 1e-10):
            table = gd.transient_table(gd.OpoParams(chi_tilde, nu_in=3.0, nu_0=5.0), t_max=2.0, dt=1e-2)
            assert all(np.isfinite(getattr(table, name)).all() for name in ("hom0", "hom90", "het")), chi_tilde
    counts = _count_calls(monkeypatch, "_grid_walk", "_uncoupled_moments")
    generic = gd.monitored(model, GeneralDyneSetting(theta_m=0.7, z_m=0.3))
    assert gd.dynamics._decoupled(generic) is None
    gd.daemonic_ergotropy_path(generic, state0, grid)
    assert counts["_grid_walk"] == 1 and counts["_uncoupled_moments"] > 0, counts
    counts.clear()
    driven = DiffusiveModel(model.h_s, model.c, model.sigma_in, np.array([0.3, -0.2]))
    coupled = _random_one_mode_complex_pair(np.random.default_rng(5))
    assert not gd.dynamics._uncoupled(coupled.dd)
    assert gd.dynamics._uncoupled(driven.dd) and driven.dd.drive.all()
    for mm, want in ((gd.monitored(driven, gd.heterodyne()), {"_uncoupled_moments": 1}), (coupled, {"_grid_walk": 2})):
        gd.daemonic_ergotropy_path(mm, state0, grid)
        assert counts == want, counts
        counts.clear()


@pytest.mark.parametrize("chi_tilde", [0.8, 1.0 - 1e-6])
def test_daemonic_path_is_energy_minus_passive_energy(chi_tilde):
    """daemonic_ergotropy_path is tr sigma_unc / 4 + |r|^2 / 2 - nu(sigma_c) / 2 from the public flows, bit for bit.

    At both chi~ the unconditional moments come in closed form in the blocks
    of the conditional flows, which the generic setting walks instead of
    taking the closed form; either way the curve must be unconditional_path and
    evolve_conditional_cm combined, here from a displaced state on a grid of
    several blocks, for the three strategies and a generic setting.
    """
    model = gd.opo_model(gd.OpoParams(chi_tilde, nu_in=3.0))
    state0 = GaussianState(np.array([0.7, -1.2]), np.array([[4.0, 0.5], [0.5, 2.0]]))
    grid = np.linspace(0.0, 20.0, 20001)
    means, cms = gd.unconditional_path(model.dd, state0, grid)
    energy = 0.25 * (cms[:, 0, 0] + cms[:, 1, 1]) + 0.5 * (means[:, 0] * means[:, 0] + means[:, 1] * means[:, 1])
    settings = [gd.strategy_setting(name) for name in ("hom0", "hom90", "het")]
    for setting in [*settings, GeneralDyneSetting(theta_m=0.7, z_m=0.3)]:
        mm = gd.monitored(model, setting)
        passive = 0.5 * gd.symplectic_eigenvalues(gd.evolve_conditional_cm(mm, state0.cm, grid))[:, 0]
        assert np.array_equal(gd.daemonic_ergotropy_path(mm, state0, grid), energy - passive), setting


def test_unconditional_opo_variances_hold_near_threshold_at_any_horizon():
    """Near threshold the unconditional variances reach nu_in / (1 +- chi~) to round-off, also at t = 1e300.

    The closed forms per coordinate, unconditional and conditional, have no
    doubling, whose squarings lost about the horizon times the rate times
    eps on the slow quadrature, so the last row of
    `opo-transient --T 1e300 --dt 1e299` is the steady daemonic ergotropy of
    each strategy to 1e-15 (2.0e-7 off through the doubling at
    chi~ = 1 - 1e-10; 3.8e-16 off with only the conditional flows walked,
    0 with both in closed form).  Within 2e-12 of threshold the slow rate is
    inside the Hurwitz margin, where the unconditional moments once walked:
    sigma_pp was 1.1e-4 and 1.0e-3 off at chi~ = 1 - 1e-12 and 1 - 1e-13.
    There no steady solve exists (NoSteadyStateError), and each last row is
    checked against the 60-digit steady daemonic ergotropy of the same
    float data (_steady_daemonic_60), as it is at every chi~.
    """
    for chi_tilde in (1.0 - 1e-6, 1.0 - 1e-10, 1.0 - 1e-12, 1.0 - 1e-13):
        dd = gd.opo_model(gd.OpoParams(chi_tilde, nu_in=3.0)).dd
        _, cms = gd.unconditional_path(dd, gd.thermal(5.0), [0.0, 1e3, 1e300])
        with mp.workdps(DPS):
            for a, variance in zip(np.diag(dd.a).tolist(), (cms[-1, 0, 0], cms[-1, 1, 1])):
                exact = 3 / (-2 * mp.mpf(a))
                assert abs(variance - exact) <= 2e-16 * exact, (chi_tilde, a)
        p = gd.OpoParams(chi_tilde, nu_in=1.0, nu_0=5.0)
        table = gd.transient_table(p, t_max=1e300, dt=1e299)
        for name in ("hom0", "hom90", "het"):
            last = getattr(table, name)[-1]
            exact = _steady_daemonic_60(gd.monitored(gd.opo_model(p), gd.strategy_setting(name)))
            assert abs(last - exact) <= 1e-15 * exact, (chi_tilde, name, float(abs(last - exact) / exact))
            if chi_tilde > 1.0 - 1e-11:
                continue
            steady = gd.opo_steady_daemonic(p, gd.strategy_setting(name))
            assert abs(last - steady) <= 1e-15 * steady, (chi_tilde, name)


def _steady_daemonic_60(mm) -> mp.mpf:
    """The steady daemonic ergotropy of a zero-mean filter that decouples, in 60 digits, from its float data.

    sigma_unc is diag(D_ii / (-2 a_i)) for the diagonal drift A, and sigma_c
    takes per coordinate the stabilizing root of b s^2 - 2 a s - d = 0 from
    the diagonals (a, d, b) of At, Dt and B B^T: (a + sqrt(a^2 + b d)) / b,
    or d / (-2 a) where b = 0.  The value is tr sigma_unc / 4 - sqrt(det sigma_c) / 2.
    """
    with mp.workdps(DPS):
        energy = sum(mp.mpf(d) / (-2 * mp.mpf(a)) for a, d in zip(np.diag(mm.dd.a).tolist(), np.diag(mm.dd.d).tolist()))
        roots = []
        for a, d, b in gd.dynamics._decoupled(mm):
            a, d, b = mp.mpf(a), mp.mpf(d), mp.mpf(b)
            roots.append((a + mp.sqrt(a * a + b * d)) / b if b else d / (-2 * a))
        return energy / 4 - mp.sqrt(roots[0] * roots[1]) / 2


def test_decoupled_roots():
    """Coupled filter data give None; decoupled data give the stabilizing root of each coordinate, not the other one.

    The OPO decouples at phase 0 and pi/2 and at z_m = 1; a generic phase,
    a phase 1e-9 off 0 and a random two-mode model couple.
    """
    p = gd.OpoParams(0.7, nu_in=2.0)
    rng = np.random.default_rng(61)
    coupled = [
        gd.monitored(gd.opo_model(p), GeneralDyneSetting(theta_m=0.7, z_m=0.3)),
        gd.monitored(gd.opo_model(p), GeneralDyneSetting(theta_m=1e-9, z_m=0.3)),
        gd.monitored(_random_hurwitz_model(rng, 2, driven=False), [gd.random_setting(rng) for _ in range(2)]),
    ]
    for mm in coupled:
        assert gd.dynamics._decoupled_roots(mm) is None
    for setting in (gd.homodyne(0.0), gd.homodyne(0.5 * np.pi), gd.heterodyne(), GeneralDyneSetting(nu_m=2.0, z_m=0.1)):
        mm = gd.monitored(gd.opo_model(p), setting)
        roots = np.diag(gd.dynamics._decoupled_roots(mm))
        assert np.abs(roots - gd.steady_state_conditional(mm)).max() <= 1e-13 * np.abs(roots).max(), setting
        assert gd.is_hurwitz(mm.at - roots @ mm.bbt)
        if not setting.homodyne:
            # Both quadratures are observed: the other root of each solves the equation but destabilizes.
            at, bbt, dtilde = (np.diag(x) for x in (mm.at, mm.bbt, mm.dtilde))
            anti = np.diag((at - np.sqrt(at * at + bbt * dtilde)) / bbt)
            assert gd.riccati_residual(mm, anti) <= 1e-12
            assert not gd.is_hurwitz(mm.at - anti @ mm.bbt)


def test_grid_walk(monkeypatch):
    """The grid walk from the first point of a grid: doubling on (linspace-)uniform grids, chaining otherwise.

    A chained grid takes one expm per distinct step length.  A uniform grid
    of step h takes one for each doubled span m h (m = 1, 2, 4, ...) up to
    m h _flow_norm = 1, and composes the longer ones.  With R = 0 the states
    are e^{F (t - t_0)} s0 e^{F^T (t - t_0)} + G(t - t_0), checked against
    scipy's expm and the Gramian G(t) = s_inf - e^{Ft} s_inf e^{F^T t}, and the
    carried vectors are e^{F (t - t_0)} v.  With R != 0 each state equals the
    interval map over its span, built on its own, applied to s0.
    """
    rng = np.random.default_rng(191)
    f = rng.standard_normal((4, 4)) - 2.0 * np.eye(4)
    c, b = rng.standard_normal((4, 4)), rng.standard_normal((4, 2))
    d, r = c @ c.T, b @ b.T
    s0, v0 = d + np.eye(4), rng.standard_normal(4)
    calls = []

    def counted(m):
        calls.append(m)
        return expm(m)

    monkeypatch.setattr(gd.dynamics, "expm", counted)
    uniform, offset = np.linspace(0.0, 10.0, 10001), np.linspace(0.3, 2.3, 7)
    uneven = np.array([0.0, 0.125, 0.375, 0.5, 1.0, 1.125])  # three distinct steps, exact in binary
    sigma_inf = solve_continuous_lyapunov(f, -d)

    def n_expm(grid, r):
        if grid is uneven:
            return 3
        norm, steps = gd.dynamics._flow_norm(gd.dynamics._hamiltonian(f, d, r)[1]), grid.size - 1
        h = (grid[-1] - grid[0]) / max(steps, 1)
        return sum(1 for j in range(64) if 2**j <= steps and (j == 0 or 2**j * h * norm <= 1.0))

    assert n_expm(uniform, np.zeros_like(f)) > 1 and n_expm(offset, r) == 1
    for grid in (uniform, offset, uneven, np.array([1.5])):
        calls.clear()
        states, vectors = _grid_walk(f, d, np.zeros_like(f), grid, s0, v0)
        assert len(calls) == n_expm(grid, np.zeros_like(f)), grid
        exact = np.array([expm(f * (t - grid[0])) for t in grid])
        flow = exact @ s0 @ np.swapaxes(exact, 1, 2) + sigma_inf - exact @ sigma_inf @ np.swapaxes(exact, 1, 2)
        assert np.abs(states - flow).max() <= 1e-13 * np.abs(flow).max(), np.abs(states - flow).max()
        assert np.abs(vectors - exact @ v0).max() <= 1e-13 * np.abs(v0).max(), np.abs(vectors - exact @ v0).max()
        calls.clear()
        states, vectors = _grid_walk(f, d, r, grid, s0)
        assert len(calls) == n_expm(grid, r) and vectors is None, grid
        for i in range(1, grid.size, max(1, grid.size // 8)):
            phi, g, q = _interval_map(f, d, r, grid[i] - grid[0])
            y = q + phi @ s0 @ np.linalg.inv(np.eye(4) + g @ s0) @ phi.T
            assert np.abs(states[i] - y).max() <= 1e-13 * max(1.0, np.abs(y).max()), (grid[i], np.abs(states[i] - y).max())


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(seed=st_.integers(0, 2**32 - 1), n=st_.sampled_from([1, 2]), log_h=st_.floats(-3.0, 2.0), observed=st_.booleans())
def test_interval_maps_compose(seed, n, log_h, observed):
    """Two interval maps over h composed equal the interval map over 2 h, with R = 0 and R != 0.

    Random Hurwitz drifts of one or two modes, Q = C C^T and R = B B^T or 0,
    h from 1e-3 to 100.  Phi, G and Q each agree within 1e-13 of the larger
    of 1 and their largest entry; with R = 0, G is exactly 0.
    """
    rng = np.random.default_rng(seed)
    dim = 2 * n
    while True:
        a = rng.standard_normal((dim, dim)) - rng.uniform(0.0, 2.0) * np.eye(dim)
        if gd.is_hurwitz(a):
            break
    c, b = rng.standard_normal((dim, dim)), rng.standard_normal((dim, n)) if observed else np.zeros((dim, n))
    q, r, h = c @ c.T, b @ b.T, 10.0**log_h
    one = _interval_map(a, q, r, h)
    composed = gd.dynamics._compose(one, one)
    for x, y in zip(composed, _interval_map(a, q, r, 2.0 * h)):
        assert np.abs(x - y).max() <= 1e-13 * max(1.0, np.abs(y).max())
    if not observed:
        assert not one[1].any() and not composed[1].any()


@pytest.mark.parametrize("n, seeds", [(2, (900, 901, 902)), (3, (906, 908))])
def test_multi_mode_transients_match_60_digit_oracle(n, seeds):
    """The interval-map flows of random two- and three-mode models lie within 1e-13 of the 60-digit transient.

    Random Hurwitz models measured with at least one exact homodyne, from 3 I,
    on _ORACLE_TIMES and at sampled points of a 3001-point uniform grid on
    [0, 6], whose late points the walk reaches through the deepest doubling;
    tests/riccati_oracle.py exponentiates the flow's Hamiltonian in 60 digits
    and shares no code with the library.
    """
    deep = np.linspace(0.0, 6.0, 3001)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        mm = gd.monitored(_random_hurwitz_model(rng, n), _mixed_settings(rng, n))
        _assert_flow_matches_transient_oracle(mm, 3.0 * np.eye(2 * n), tol=1e-13)
        _assert_flow_matches_transient_oracle(mm, 3.0 * np.eye(2 * n), 1e-13, deep, (1, 1023, 2047, 2049, 3000))


_ORACLE_TIMES = (0.0, 0.05, 0.25, 2.0, 10.0)


def _assert_flow_matches_transient_oracle(mm, sigma0, tol=2e-14, grid=_ORACLE_TIMES, points=None):
    """evolve_conditional_cm on grid within tol (max-norm, relative) of the 60-digit transient at the given points.

    points are indices into grid, by default every point after the first.
    """
    flow = gd.evolve_conditional_cm(mm, sigma0, grid)
    for i in points or range(1, len(grid)):
        gap = _oracle_gap(mm, sigma0, grid[i], flow[i])
        assert gap <= tol, (mm.settings, grid[i], gap)


@pytest.mark.parametrize("nu_in", [1.0, 3.0, 100.0])
@pytest.mark.parametrize("chi_tilde", [0.3, 0.8, 0.99])
def test_one_mode_transient_matches_60_digit_oracle(chi_tilde, nu_in):
    """The OPO's conditional flow from 5 I, at hom90, het, (theta 0.7, z 0.3) and (theta 1.2, nu_m 2, z 0.05).

    The oracle (tests/riccati_oracle.py) takes the 60-digit exponential of
    the flow's Hamiltonian matrix and shares no code with the library.
    """
    settings_ = (
        gd.homodyne(0.5 * np.pi),
        gd.heterodyne(),
        GeneralDyneSetting(theta_m=0.7, z_m=0.3),
        GeneralDyneSetting(theta_m=1.2, nu_m=2.0, z_m=0.05),
    )
    model = gd.opo_model(gd.OpoParams(chi_tilde, nu_in=nu_in))
    for setting in settings_:
        _assert_flow_matches_transient_oracle(gd.monitored(model, setting), 5.0 * np.eye(2))


def _random_one_mode_complex_pair(rng):
    """A random monitored one-mode model whose closed loop F = At - sigma_inf B B^T has a complex pair."""
    while True:
        h_s, c = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        model = DiffusiveModel(0.5 * (h_s + h_s.T), c, rng.uniform(1.0, 3.0) * np.eye(2), np.zeros(2))
        if not gd.is_hurwitz(model.dd.a):
            continue
        mm = gd.monitored(model, gd.random_setting(rng))
        (f00, f01), (f10, f11) = (mm.at - gd.dynamics._conditional_steady_state(mm) @ mm.bbt).tolist()
        if 0.25 * (f00 - f11) ** 2 + f01 * f10 < 0.0:
            return mm


def test_complex_pair_transients_match_60_digit_oracle():
    """Random one-mode models whose closed loop has a complex pair, from 2 I, within 2e-14 of the oracle."""
    rng = np.random.default_rng(211)
    for _ in range(4):
        _assert_flow_matches_transient_oracle(_random_one_mode_complex_pair(rng), 2.0 * np.eye(2))


@pytest.mark.parametrize("chi_tilde", [0.3, 0.8, 0.99, 1.0 - 1.1e-4])
def test_unconditional_opo_moments_match_exact_scalar_form(chi_tilde):
    """Each quadrature variance e^{2at} nu_0 + nu_in (e^{2at} - 1) / (2a), in 60 digits, within 2e-15 along the grid.

    The OPO drift is diagonal, a = -(1 +- chi~)/2; the grids are the two of
    the transient workload and a non-uniform one.
    """
    for nu_in in (1.0, 3.0, 100.0):
        dd = gd.opo_model(gd.OpoParams(chi_tilde, nu_in=nu_in)).dd
        for grid in (np.linspace(0.0, 10.0, 201), np.linspace(0.0, 1.5, 151), np.array([0.0, 0.3, 0.35, 2.0, 9.0])):
            means, cms = gd.unconditional_path(dd, gd.thermal(5.0), grid)
            assert not means.any() and not cms[:, 0, 1].any() and not cms[:, 1, 0].any()
            with mp.workdps(DPS):
                for a, variances in zip(np.diag(dd.a).tolist(), (cms[:, 0, 0], cms[:, 1, 1])):
                    for t, v in zip(grid.tolist(), variances.tolist()):
                        growth = mp.exp(2 * mp.mpf(a) * mp.mpf(t))
                        exact = 5 * growth + nu_in * (growth - 1) / (2 * mp.mpf(a))
                        assert abs(v - exact) <= 2e-15 * exact, (nu_in, t, a)


def test_one_mode_route_matches_two_uncoupled_copies():
    """Two uncoupled copies of a one-mode model take the stacked route; each diagonal block matches the one-mode route.

    The OPO at a generic setting and a random model whose closed loop has a
    complex pair, on a uniform and a non-uniform grid, within 1e-13
    relative.  A grid starting at t0 = 5 gives the values of the grid
    starting at 0, and a one-point grid returns sigma0 exactly.
    """
    rng = np.random.default_rng(223)
    one_modes = [gd.monitored(gd.opo_model(gd.OpoParams(0.8, nu_in=3.0)), GeneralDyneSetting(theta_m=0.7, z_m=0.3))]
    one_modes.append(_random_one_mode_complex_pair(rng))
    for mm in one_modes:
        base = mm.base
        pair = DiffusiveModel(*(block_diag(x, x) for x in (base.h_s, base.c, base.sigma_in)), np.zeros(4))
        mm2 = gd.monitored(pair, [mm.settings[0]] * 2)
        sigma0 = np.array([[4.0, 0.5], [0.5, 2.0]])
        for grid in _CROSS_CHECK_GRIDS:
            flow = gd.evolve_conditional_cm(mm, sigma0, grid)
            stacked = gd.evolve_conditional_cm(mm2, block_diag(sigma0, sigma0), grid)
            scale = np.abs(flow).max()
            for block in (stacked[:, :2, :2], stacked[:, 2:, 2:]):
                assert np.abs(block - flow).max() <= 1e-13 * scale
            assert np.abs(stacked[:, :2, 2:]).max() <= 1e-13 * scale
            from_zero = gd.evolve_conditional_cm(mm, sigma0, grid - grid[0])
            assert np.abs(gd.evolve_conditional_cm(mm, sigma0, 5.0 + grid - grid[0]) - from_zero).max() <= 1e-13 * scale
        for x0, model in ((sigma0, mm), (block_diag(sigma0, sigma0), mm2)):
            assert np.array_equal(gd.evolve_conditional_cm(model, x0, [5.0]), x0[None])


def test_long_horizons_stay_finite(tmp_path, capsys):
    """At t = 1e46 and 1e300 both routes reach their steady states, finite, and opo-transient exits 0.

    scipy's expm returns NaN once |F t|_1 passes about 3e38, which made the
    conditional CM NaN from t of about 1e40 on and opo-transient exit 2.
    The OPO's filters that decouple (hom0, hom90, het, and gendyne at phase 0)
    take the closed form per coordinate, constant to the bit once
    e^{-2k t} is 0; a generic phase and a random two-mode model take the
    interval maps, whose cost grows with log2 of the horizon.  Near
    threshold (chi~ = 1 - 1e-6) opo-transient reaches 1e300 within 5 s,
    where a flow stepped at a fixed length never ended.
    """
    model = gd.opo_model(gd.OpoParams(0.8, nu_in=3.0))
    horizons = [0.0, 1e36, 1e46, 1e300]
    settings_ = [*(gd.strategy_setting(name) for name in ("hom0", "hom90", "het")), GeneralDyneSetting(z_m=0.3)]
    for setting in settings_:
        mm = gd.monitored(model, setting)
        assert gd.dynamics._decoupled(mm) is not None
        for sigma0 in (5.0 * np.eye(2), np.array([[4.0, 1.5], [1.5, 2.0]])):
            flow = gd.evolve_conditional_cm(mm, sigma0, horizons)
            assert np.array_equal(flow[1:], np.broadcast_to(flow[-1], (3, 2, 2))), setting
            steady = gd.steady_state_conditional(mm)
            assert np.abs(flow[-1] - steady).max() <= 1e-14 * np.abs(steady).max(), setting
    mm = gd.monitored(model, GeneralDyneSetting(theta_m=0.7, z_m=0.3))
    flow = gd.evolve_conditional_cm(mm, 5.0 * np.eye(2), horizons)
    steady = gd.steady_state_conditional(mm)
    assert np.abs(flow[1:] - steady).max() <= 1e-14 * np.abs(steady).max()
    rng = np.random.default_rng(3)
    mm2 = gd.monitored(_random_hurwitz_model(rng, 2), [gd.random_setting(rng) for _ in range(2)])
    assert gd.dynamics._decoupled(mm2) is None
    flow2 = gd.evolve_conditional_cm(mm2, 3.0 * np.eye(4), [0.0, 1e100, 1e300])
    steady2 = gd.steady_state_conditional(mm2)
    assert np.abs(flow2[1:] - steady2).max() <= 1e-12 * np.abs(steady2).max()
    out = tmp_path / "t.csv"
    for chi_tilde in ("0.8", "0.999999"):
        args = ["opo-transient", "--chi-tilde", chi_tilde, "--T", "1e300", "--dt", "1e299", "--out", str(out)]
        with _wall_time_bound(5):
            assert main(args) == 0, capsys.readouterr().err
        table = np.loadtxt(out, delimiter=",", comments="#", skiprows=3)
        assert table.shape == (11, 4) and np.isfinite(table).all()


@contextmanager
def _wall_time_bound(seconds: int):
    """Fail with AssertionError if the block runs past the given number of seconds (SIGALRM)."""

    def expire(signum, frame):
        raise AssertionError(f"ran past its {seconds} s bound")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_flow_past_the_float_range_is_a_numeric_error():
    """A stepped flow that overflows raises NumericError (exit 3) naming the flow instead of returning inf or NaN.

    Above threshold the unmeasured quadrature's variance grows as e^{0.6 t}
    and passes the float range before t = 2000, conditionally and unconditionally.
    """
    model = DiffusiveModel(-0.8 * np.array([[0.0, 1.0], [1.0, 0.0]]), gd.symplectic_form(1), np.eye(2), np.zeros(2))
    mm = gd.monitored(model, gd.homodyne(0.0))
    flows = (
        ("conditional CM", lambda: gd.evolve_conditional_cm(mm, 2.0 * np.eye(2), [0.0, 2000.0])),
        ("unconditional CM", lambda: gd.unconditional_path(mm.dd, gd.thermal(2.0), np.linspace(0.0, 2000.0, 11))),
    )
    for name, flow in flows:
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(gd.NumericError, match=f"the {name} flow left"):
            flow()


def _scalar_flow_60(a, d, r, s0, t) -> np.ndarray:
    """s(t) on s' = 2 a s + d - r s^2 from s0 at each t, in 60 digits, as floats.

    With lam = sqrt(a^2 + r d), e = e^{-2 lam t} and tau = (1 - e) / (2 lam), the
    exponential of the flow's 2x2 Hamiltonian gives
    s(t) = (s0 (e + (lam + a) tau) + d tau) / (e + (lam - a) tau + r s0 tau).
    """
    with mp.workdps(DPS):
        a, d, r, s0 = (mp.mpf(float(x)) for x in (a, d, r, s0))
        lam = mp.sqrt(a * a + r * d)
        out = []
        for x in np.asarray(t, dtype=float).tolist():
            e = mp.exp(-2 * lam * mp.mpf(x))
            tau = (1 - e) / (2 * lam)
            out.append(float((s0 * (e + (lam + a) * tau) + d * tau) / (e + (lam - a) * tau + r * s0 * tau)))
    return np.array(out)


@pytest.mark.parametrize("chi_tilde", [0.999, 1.0 - 1e-6, 1.0 - 1e-9])
def test_near_threshold_flows_match_stepping(chi_tilde):
    """Near threshold all flows stay exact.

    There the steady state (about nu_in / (1 - chi~)) dwarfs the CM along the
    flow, and an expansion about it would cancel away the digits.  At
    chi~ = 0.999 (steady-state scale 3000) and closer to threshold, the
    conditional flows, the unconditional flows and the transient table agree
    with the per-quadrature closed forms in 60 digits: at hom0, hom90 and het
    the filter is diagonal (tests/scalar_riccati.py gives its entries
    without cancellation), and so is the OPO drift.
    """
    p = gd.OpoParams(chi_tilde, nu_in=3.0, nu_0=5.0)
    model = gd.opo_model(p)
    dd = gd.drift_diffusion(model)
    state0 = gd.thermal(5.0)
    grid = np.linspace(0.0, 10.0, 201)
    tab = gd.transient_table(p, t_max=10.0, dt=5e-2)
    means, cms = gd.unconditional_path(dd, state0, grid)
    exact = np.zeros_like(cms)
    for i, a in enumerate((-(1.0 + chi_tilde) / 2, -(1.0 - chi_tilde) / 2)):
        exact[:, i, i] = _scalar_flow_60(a, 3.0, 0.0, 5.0, grid)
    assert np.abs(cms - exact).max() <= 1e-12 * np.abs(exact).max(), np.abs(cms - exact).max()
    assert not means.any()
    energy = 0.25 * np.trace(exact, axis1=1, axis2=2)
    for name in ("hom0", "hom90", "het"):
        mm = gd.monitored(model, gd.strategy_setting(name))
        assert gd.dynamics._decoupled(mm) is not None
        flow = gd.evolve_conditional_cm(mm, state0.cm, grid)
        reference = np.zeros_like(flow)
        for i, (at, dt, bbt) in enumerate(opo_filter_diagonals(chi_tilde, 3.0, name)):
            reference[:, i, i] = _scalar_flow_60(at, dt, bbt, 5.0, grid)
        assert np.abs(flow - reference).max() <= 1e-12 * np.abs(reference).max(), name
        curve = energy - 0.5 * gd.symplectic_eigenvalues(reference).sum(axis=-1)
        assert np.abs(getattr(tab, name) - curve).max() <= 1e-12 * np.abs(curve).max(), name


class TestTrajectories:
    """Stochastic ensemble behavior."""

    def setup_method(self):
        p = gd.OpoParams(0.6, nu_in=2.0)
        self.mm = gd.monitored(gd.opo_model(p), gd.heterodyne())
        self.state0 = GaussianState(np.array([1.0, -0.5]), 3.0 * np.eye(2))

    def test_reproducibility(self, monkeypatch):
        """Same master seed gives byte-identical batches for any chunk size."""
        kw = dict(dt=1e-3, T=0.5, n_traj=64, master_seed=11)
        b1 = gd.simulate_trajectories(self.mm, self.state0, **kw)
        b2 = gd.simulate_trajectories(self.mm, self.state0, **kw)
        monkeypatch.setattr(gd.dynamics, "_TRAJ_CHUNK", 5)
        b5 = gd.simulate_trajectories(self.mm, self.state0, **kw)
        for field in ("times", "means", "records", "sigma_c"):
            assert np.array_equal(getattr(b1, field), getattr(b2, field))
            assert np.array_equal(getattr(b1, field), getattr(b5, field))
        b3 = gd.simulate_trajectories(self.mm, self.state0, dt=1e-3, T=0.5, n_traj=64, master_seed=12)
        assert not np.array_equal(b1.means, b3.means)

    def test_stride_decimation(self, monkeypatch):
        """The stored grid and sigma_c do not depend on the stride, and 25 stride-1 windows compose to one of stride 25.

        Both properties hold whatever the sampling method.  The filter
        decouples, so sigma_c at the common times is the same bits.  Over 25
        windows the joint (mean, summed record) state is affine in the start
        mean with a covariance that composes as C <- K C K^T + C_w; composed
        from the kernel's stride-1 maps it must be the stride-25 map.
        """
        kw = dict(dt=1e-3, T=0.5, n_traj=8, master_seed=3)
        full, one = _trajectories_and_maps(monkeypatch, self.mm, self.state0, **kw)
        dec, many = _trajectories_and_maps(monkeypatch, self.mm, self.state0, store_stride=25, **kw)
        assert gd.dynamics._decoupled(self.mm) is not None
        assert np.array_equal(dec.times, full.times[::25])
        assert np.array_equal(dec.sigma_c, full.sigma_c[::25])
        assert dec.means.shape == (8, 21, 2) and dec.records.shape == (8, 20, 2)
        for w in range(20):
            affine, cov = _compose_windows(one[25 * w : 25 * w + 25])
            exact_affine, noise = many[w, :, :3], many[w, :, 3:]
            assert np.abs(affine - exact_affine).max() <= 1e-13 * np.abs(exact_affine).max(), w
            exact = noise @ noise.T
            assert np.abs(cov - exact).max() <= 1e-13 * np.abs(exact).max(), w

    def test_moment_consistency(self):
        """Ensemble mean and sigma_c + Sigma track the unconditional moments."""
        batch = gd.simulate_trajectories(
            self.mm, self.state0, dt=1e-3, T=2.0, n_traj=2000, master_seed=5, store_stride=100
        )
        dd = gd.drift_diffusion(self.mm.base)
        means_unc, cms_unc = gd.unconditional_path(dd, self.state0, batch.times)
        m_emp = batch.means.mean(axis=0)
        se = batch.means.std(axis=0, ddof=1) / np.sqrt(batch.n_traj)
        assert np.all(np.abs(m_emp[1:] - means_unc[1:]) < 5 * se[1:] + 1e-12)
        recon = batch.sigma_c[-1] + gd.excess_noise(batch, -1)
        assert np.allclose(recon, cms_unc[-1], atol=0.2)

    def test_record_mean_tracks_minus_bt_r(self):
        """Ensemble-averaged records reproduce -B^T r_unc integrated over windows."""
        batch = gd.simulate_trajectories(
            self.mm, self.state0, dt=1e-3, T=1.0, n_traj=4000, master_seed=9, store_stride=200
        )
        dd = gd.drift_diffusion(self.mm.base)
        t_fine = np.linspace(0.0, 1.0, 1001)
        means_unc, _ = gd.unconditional_path(dd, self.state0, t_fine)
        drift = -(means_unc @ self.mm.b) * 1e-3  # per-step record drift
        window = drift[:-1].reshape(5, 200, 2).sum(axis=1)
        emp = batch.records.mean(axis=0)
        assert np.allclose(emp, window, atol=0.05), np.abs(emp - window).max()

    def test_validation(self):
        """Grid mismatch, bad stride and tiny ensembles are rejected."""
        with pytest.raises(ValueError, match="integer multiple"):
            gd.simulate_trajectories(self.mm, self.state0, dt=0.3, T=1.0, n_traj=2, master_seed=0)
        with pytest.raises(ValueError, match="must divide"):
            gd.simulate_trajectories(
                self.mm, self.state0, dt=0.1, T=1.0, n_traj=2, master_seed=0, store_stride=3
            )
        with pytest.raises(ValueError, match="at least one trajectory"):
            gd.simulate_trajectories(self.mm, self.state0, dt=0.1, T=1.0, n_traj=0, master_seed=0)
        batch = gd.simulate_trajectories(self.mm, self.state0, dt=0.1, T=1.0, n_traj=1, master_seed=0)
        with pytest.raises(ValueError, match="at least two"):
            gd.excess_noise(batch)


_CHUNK_SETTINGS = (gd.GeneralDyneSetting(theta_m=0.4, z_m=0.2), gd.heterodyne(), gd.homodyne(0.3))


@pytest.mark.parametrize("setting", _CHUNK_SETTINGS, ids=["gendyne", "het", "hom"])
def test_trajectories_do_not_depend_on_chunk_size(monkeypatch, setting):
    """701 trajectories give the same bytes whether advanced 1, 5, 256 or 700 at a time."""
    mm = gd.monitored(gd.opo_model(gd.OpoParams(0.6, nu_in=3.0)), setting)
    state0 = GaussianState(np.array([1.0, -0.5]), 3.0 * np.eye(2))
    for stride in (1, 20, 50):
        kw = dict(dt=1e-2, T=1.0, n_traj=701, master_seed=3, store_stride=stride)
        batches = []
        for chunk in (1, 5, 256, 700):
            monkeypatch.setattr(gd.dynamics, "_TRAJ_CHUNK", chunk)
            batches.append(gd.simulate_trajectories(mm, state0, **kw))
        for other in batches[1:]:
            for field in ("times", "means", "records", "sigma_c"):
                assert np.array_equal(getattr(batches[0], field), getattr(other, field)), (stride, field)


@pytest.mark.parametrize("stride", [1, 20])
def test_trajectories_take_consecutive_blocks_of_one_normal_stream(monkeypatch, stride):
    """Trajectory k is driven by the normals [k W D, (k + 1) W D) of default_rng(seed), across a chunk boundary.

    With window maps that copy the draws to the outputs (zero columns for the
    start mean and the 1, I on the draws), the records are the last 2m draws
    of each window bit for bit, and the means the start mean plus the running
    sum of the first 2n, added one window at a time.
    """
    mm = gd.monitored(gd.opo_model(gd.OpoParams(0.6, nu_in=3.0)), gd.heterodyne())
    state0 = GaussianState(np.array([1.0, -0.5]), 3.0 * np.eye(2))
    two_n, dim = 2, 4

    def copy_maps(mm_, sigma_c, h):
        maps = np.zeros((sigma_c.shape[0] - 1, dim, two_n + 1 + dim))
        maps[:, :, two_n + 1 :] = np.eye(dim)
        return maps

    monkeypatch.setattr(gd.dynamics, "_window_maps", copy_maps)
    monkeypatch.setattr(gd.dynamics, "_TRAJ_CHUNK", 256)
    batch = gd.simulate_trajectories(mm, state0, dt=1e-2, T=1.0, n_traj=300, master_seed=17, store_stride=stride)
    n_windows = 100 // stride
    z = np.random.default_rng(17).standard_normal((300, n_windows, dim))
    assert np.array_equal(batch.records, z[:, :, two_n:])
    means = np.empty((300, n_windows + 1, two_n))
    means[:, 0] = state0.mean
    for w in range(n_windows):
        means[:, w + 1] = means[:, w] + z[:, w, :two_n]
    assert np.array_equal(batch.means, means)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    seed=st_.integers(0, 2**32 - 1),
    n=st_.integers(2, 3000),
    modes=st_.integers(1, 3),
    n_stored=st_.integers(1, 12),
    log_scale=st_.floats(-8.0, 8.0),
)
def test_excess_noise_is_twice_numpy_cov(seed, n, modes, n_stored, log_scale):
    """excess_noise is 2 np.cov(means, rowvar=False) bit for bit, offset means and any ensemble size.

    Int, negative and slice indices pick stored times as means' second axis does.
    """
    rng = np.random.default_rng(seed)
    dim = 2 * modes
    means = (rng.standard_normal((n, n_stored, dim)) + 100.0 * rng.standard_normal(dim)) * 10.0**log_scale
    batch = gd.TrajectoryBatch(
        np.arange(float(n_stored)), means, np.zeros((n, n_stored - 1, 2)), np.zeros((n_stored, dim, dim)), seed
    )
    expected = np.stack([2.0 * np.cov(means[:, t, :], rowvar=False) for t in range(n_stored)])
    for t in range(n_stored):
        assert np.array_equal(gd.excess_noise(batch, t), expected[t])
        assert np.array_equal(gd.excess_noise(batch, t - n_stored), expected[t])
    assert np.array_equal(gd.excess_noise(batch), expected[-1])
    for index in (slice(None), slice(1, None), slice(None, None, -2), slice(-1, None)):
        assert np.array_equal(gd.excess_noise(batch, index), expected[index])
    assert gd.excess_noise(batch, slice(None)).shape == (n_stored, dim, dim)


def _small_batch(means):
    n, n_stored, dim = means.shape
    times, records, sigma_c = np.arange(float(n_stored)), np.zeros((n, n_stored - 1, 2)), np.zeros((n_stored, dim, dim))
    return gd.TrajectoryBatch(times, means, records, sigma_c, 0)


def test_excess_noise_needs_two_trajectories():
    """One trajectory has no sample covariance, at any index; two have one."""
    batch = _small_batch(np.ones((1, 3, 2)))
    for index in (0, -1, slice(None)):
        with pytest.raises(ValueError, match="at least two trajectories"):
            gd.excess_noise(batch, index)
    assert np.array_equal(gd.excess_noise(_small_batch(np.ones((2, 3, 2))), slice(None)), np.zeros((3, 2, 2)))


def test_excess_noise_reads_the_batch_as_it_stands():
    """Each call computes from the batch's means as they are then; it writes to neither them nor a past result."""
    rng = np.random.default_rng(4)
    means = rng.standard_normal((50, 4, 2))
    means[:, 1, 0] = -0.0  # a centre of -0.0, where np.cov's is +0.0: the covariance is the same
    frozen = means.copy()
    frozen.flags.writeable = False
    batch, fixed = _small_batch(means), _small_batch(frozen)
    first = gd.excess_noise(batch, slice(None))
    expected = np.stack([2.0 * np.cov(frozen[:, t, :], rowvar=False) for t in range(4)])
    assert np.array_equal(first, expected) and np.array_equal(gd.excess_noise(fixed, slice(None)), expected)
    assert np.array_equal(np.signbit(first), np.signbit(expected))
    assert np.array_equal(means, frozen)
    means += 1e3
    moved = np.stack([2.0 * np.cov(means[:, t, :], rowvar=False) for t in range(4)])
    assert np.array_equal(gd.excess_noise(batch, slice(None)), moved)
    assert np.array_equal(gd.excess_noise(batch, 2), moved[2]) and np.array_equal(first, expected)


def _driven_mixed_case():
    rng = np.random.default_rng(23)
    model = _random_two_mode_model(rng)
    assert np.abs(gd.drift_diffusion(model).drive).min() > 0.1
    mm = gd.monitored(model, (gd.random_setting(rng), gd.homodyne(0.7)))
    return mm, GaussianState(rng.standard_normal(4), 2.0 * np.eye(4))


def test_daemonic_curve_checks_the_start_state_once(monkeypatch):
    """A drift whose unconditional moments are walked checks state0 once per curve, not again in the walk."""
    mm, state0 = _driven_mixed_case()
    assert not gd.dynamics._uncoupled(mm.dd)
    check, calls = gd.dynamics.validate_state, []
    monkeypatch.setattr(gd.dynamics, "validate_state", lambda *args: calls.append(args) or check(*args))
    gd.daemonic_ergotropy_path(mm, state0, [0.0, 0.5, 1.0])
    assert len(calls) == 1


@pytest.mark.parametrize("flow", ["trajectories", "conditional", "unconditional"])
def test_walked_flows_check_the_start_state_and_grid_once(monkeypatch, flow):
    """Each walked flow checks state0 (validate_state) and its grid (_grid_steps) once, not again in the walk.

    simulate_trajectories checked state0 itself and again through
    evolve_conditional_cm, and _grid_walk checked the grid _flow_start had
    checked.  A generic phase couples the OPO's filter and a random drift its
    unconditional flow, so each takes _grid_walk once.
    """
    mm = gd.monitored(gd.opo_model(gd.OpoParams(0.6, nu_in=3.0)), GeneralDyneSetting(theta_m=0.7, z_m=0.3))
    state0 = GaussianState(np.array([1.0, -0.5]), 3.0 * np.eye(2))
    dd = _random_hurwitz_model(np.random.default_rng(7), 1).dd
    calls = {
        "trajectories": lambda: gd.simulate_trajectories(mm, state0, dt=0.1, T=1.0, n_traj=3, master_seed=0),
        "conditional": lambda: gd.evolve_conditional_cm(mm, state0.cm, np.linspace(0.0, 1.0, 11)),
        "unconditional": lambda: gd.unconditional_path(dd, state0, np.linspace(0.0, 1.0, 11)),
    }
    counts = _count_calls(monkeypatch, "validate_state", "_grid_steps", "_grid_walk")
    calls[flow]()
    assert counts == {"validate_state": 1, "_grid_steps": 1, "_grid_walk": 1}, counts


def test_flows_past_the_float_range_warn_nothing():
    """A walked flow and the closed-form energy of a curve that overflow raise NumericError, with no RuntimeWarning.

    The suite turns every warning into an error.  The coupled drift
    [[0.3, 0.2], [0, -1]] is walked: its CM overflowed in matmul with three
    warnings, and inf 0 made its mean NaN, so the mean, exactly 0, was named.
    Above threshold (chi~ = 1.2, built as a model) heterodyne keeps the
    conditional CM finite while the unconditional energy takes the closed
    form and overflows by t = 4000: the curve must raise, not return inf.
    """
    dd = gd.DriftDiffusion(a=np.array([[0.3, 0.2], [0.0, -1.0]]), d=np.eye(2), drive=np.zeros(2))
    assert not gd.dynamics._uncoupled(dd)
    with pytest.raises(gd.NumericError, match="the unconditional CM flow left"):
        gd.unconditional_path(dd, gd.vacuum(1), [0.0, 4000.0])
    model = gd.DiffusiveModel([[0.0, -0.6], [-0.6, 0.0]], gd.symplectic_form(1), 3.0 * np.eye(2), np.zeros(2))
    mm = gd.monitored(model, gd.heterodyne())
    assert gd.dynamics._uncoupled(mm.dd) and not gd.is_hurwitz(mm.dd.a)
    assert np.isfinite(gd.evolve_conditional_cm(mm, 2.0 * np.eye(2), [0.0, 4000.0])).all()
    for grid in ([0.0, 4000.0], np.linspace(0.0, 4000.0, 9)):
        with pytest.raises(gd.NumericError, match="the unconditional CM flow left"):
            gd.daemonic_ergotropy_path(mm, gd.thermal(2.0), grid)


def _trajectories_and_maps(monkeypatch, mm, state0, **kw):
    """(batch, maps): simulate_trajectories' result and the window maps it drew with (_window_maps)."""
    build, maps = gd.dynamics._window_maps, []
    monkeypatch.setattr(gd.dynamics, "_window_maps", lambda *args: maps.append(build(*args)) or maps[-1])
    batch = gd.simulate_trajectories(mm, state0, **kw)
    return batch, maps[0]


def _compose_windows(maps):
    """(affine rows, covariance) of consecutive windows composed: the joint (mean, summed record) state.

    Each map sends (r, 1, z) to (r' - r, y), so the state (r, y) moves by
    K = I + [step, 0] plus the drive column and the noise L z.
    """
    dim = maps.shape[1]
    two_n = maps.shape[2] - dim - 1
    affine, cov = np.zeros((dim, two_n + 1)), np.zeros((dim, dim))
    affine[:two_n, :two_n] = np.eye(two_n)
    for x in maps:
        k = np.eye(dim)
        k[:, :two_n] += x[:, :two_n]
        affine = k @ affine
        affine[:, two_n] += x[:, two_n]
        cov = k @ cov @ k.T + x[:, two_n + 1 :] @ x[:, two_n + 1 :].T
    affine[:two_n, :two_n] -= np.eye(two_n)
    return affine, cov


def _trajectory_cases():
    """(name, filter, start state): the OPO under het, hom0 and a generic phase, and a driven two-mode filter."""
    opo = gd.opo_model(gd.OpoParams(0.6, nu_in=3.0))
    state0 = GaussianState(np.array([1.0, -0.5]), 3.0 * np.eye(2))
    yield "het", gd.monitored(opo, gd.heterodyne()), state0
    yield "hom0", gd.monitored(opo, gd.homodyne(0.0)), state0
    yield "generic", gd.monitored(opo, GeneralDyneSetting(theta_m=0.7, z_m=0.3)), state0
    yield "driven", *_driven_mixed_case()


@pytest.mark.parametrize("case", ["opo", "driven"])
@pytest.mark.parametrize("window", [1, 7, 50])
def test_windows_match_stepwise_euler(case, window):
    """The Euler-Maruyama covariance of a window converges to the kernel's at first order in dt.

    Window `window` of length h = 0.03 of the OPO under het, hom0 and a
    generic phase ("opo"), or of a driven two-mode filter ("driven"): the
    means block and the records block of the scheme's covariance
    (euler_reference, stepped through the exact sigma_c) differ from the
    kernel's by a gap that falls 10 +- 0.5 times per decade of dt, from
    dt = 1e-3 to 1e-5.
    """
    h, names = 0.03, ("het", "hom0", "generic") if case == "opo" else ("driven",)
    for name, mm, state0 in (x for x in _trajectory_cases() if x[0] in names):
        two_n = 2 * mm.base.n
        stored = np.arange(window + 2) * h
        sigma_c = gd.evolve_conditional_cm(mm, state0.cm, stored)
        noise = gd.dynamics._window_maps(mm, sigma_c, h)[window, :, two_n + 1 :]
        exact, gaps = noise @ noise.T, []
        for dt in (1e-3, 1e-4, 1e-5):
            fine = gd.evolve_conditional_cm(mm, sigma_c[window], stored[window] + np.arange(round(h / dt) + 1) * dt)
            euler = euler_window_covariance(mm, fine, dt)
            blocks = (np.s_[:two_n, :two_n], np.s_[two_n:, two_n:])
            gaps.append([np.abs(euler[b] - exact[b]).max() / np.abs(exact[b]).max() for b in blocks])
        gaps = np.array(gaps)
        ratios = gaps[:-1] / gaps[1:]
        assert np.all(np.abs(ratios - 10.0) <= 0.5), (name, gaps)


@pytest.mark.parametrize("case", ["het", "hom0", "generic", "driven"])
def test_window_maps_give_the_exact_excess_noise(case):
    """The covariance of the means that the window maps imply is (sigma_unc - sigma_c) / 2 at every stored time.

    Cov(r_w+1) = K Cov(r_w) K^T + L L^T with K = I + step and L the noise
    rows of the mean, from Cov(r_0) = 0; within 1e-12 of sigma_unc's scale,
    for dt from 1e-2 to 1e-4 and strides 1, 7 and 50 over T = 3.5.
    """
    name, mm, state0 = next(x for x in _trajectory_cases() if x[0] == case)
    for dt, stride in itertools.product((1e-2, 1e-3, 1e-4), (1, 7, 50)):
        _check_excess_noise(mm, state0, dt, stride, round(3.5 / dt))


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(seed=st_.integers(0, 2**32 - 1), dt=st_.sampled_from([1e-2, 1e-3, 1e-4]), stride=st_.sampled_from([1, 7, 50]))
def test_window_maps_give_the_exact_excess_noise_on_random_two_mode_filters(seed, dt, stride):
    """As above, for random driven two-mode models under random settings, whose flows walk the grid, over 350 steps."""
    rng = np.random.default_rng(seed)
    mm = gd.monitored(_random_two_mode_model(rng), (gd.random_setting(rng), gd.random_setting(rng)))
    _check_excess_noise(mm, GaussianState(rng.standard_normal(4), 2.0 * np.eye(4)), dt, stride, 350)


def _check_excess_noise(mm, state0, dt, stride, n_steps):
    two_n = 2 * mm.base.n
    times = np.arange(0, n_steps + 1, stride) * dt
    sigma_c = gd.evolve_conditional_cm(mm, state0.cm, times)
    _, sigma_unc = gd.unconditional_path(mm.dd, state0, times)
    cov = np.zeros((two_n, two_n))
    for w, x in enumerate(gd.dynamics._window_maps(mm, sigma_c, stride * dt), start=1):
        # The increment form of K C K^T, K = I + step, as the kernel adds the step to the mean: I + step
        # rounded once and applied 35000 times would drift by about 35000 eps.
        step, noise = x[:two_n, :two_n], x[:two_n, two_n + 1 :]
        moved = step @ cov
        cov = cov + (moved + moved.T + moved @ step.T + noise @ noise.T)
        gap = np.abs(cov - 0.5 * (sigma_unc[w] - sigma_c[w])).max() / np.abs(sigma_unc[w]).max()
        assert gap <= 1e-12, (dt, stride, w, gap)


@pytest.mark.parametrize("case", ["het", "hom0", "generic", "driven"])
def test_trajectories_depend_on_dt_only_through_the_stored_grid(case):
    """(dt, stride s) and (dt s, stride 1) draw the same normals and give the same means and records to 1e-12."""
    name, mm, state0 = next(x for x in _trajectory_cases() if x[0] == case)
    for dt, stride in ((1e-2, 7), (1e-3, 50)):
        kw = dict(T=10 * stride * dt, n_traj=20, master_seed=6)
        fine = gd.simulate_trajectories(mm, state0, dt=dt, store_stride=stride, **kw)
        coarse = gd.simulate_trajectories(mm, state0, dt=dt * stride, **kw)
        assert np.abs(fine.times - coarse.times).max() <= 1e-15 * coarse.times[-1]
        for field in ("means", "records"):
            x, y = getattr(fine, field), getattr(coarse, field)
            assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max(), (name, dt, field)


def test_window_covariance_beyond_round_off_is_a_numeric_error():
    """A sigma_c path that no filter produces (its CM at t = 0.2 doubled) makes a window covariance negative: NumericError."""
    _, mm, state0 = next(_trajectory_cases())
    sigma_c = gd.evolve_conditional_cm(mm, state0.cm, [0.0, 0.1, 0.2])
    sigma_c[2] *= 2.0
    with pytest.raises(gd.NumericError, match=r"window covariance from t = 0.1 has eigenvalue .* beyond"):
        gd.dynamics._window_maps(mm, sigma_c, 0.1)


def test_trajectory_windows_past_the_float_range_are_a_numeric_error():
    """Above threshold one window of 1e4 grows a quadrature by e^1000: NumericError, with no RuntimeWarning.

    Heterodyne keeps the conditional CM finite, so only the window's
    interval map overflows.  A window of 1000 (growth e^100) still samples.
    """
    model = gd.DiffusiveModel([[0.0, -0.6], [-0.6, 0.0]], gd.symplectic_form(1), 3.0 * np.eye(2), np.zeros(2))
    mm = gd.monitored(model, gd.heterodyne())
    assert not gd.is_hurwitz(mm.dd.a)
    batch = gd.simulate_trajectories(mm, gd.vacuum(1), dt=1e3, T=5e3, n_traj=3, master_seed=0)
    assert np.isfinite(batch.means).all() and np.isfinite(batch.records).all()
    with pytest.raises(gd.NumericError, match="the trajectory window flow left the floating-point range"):
        gd.simulate_trajectories(mm, gd.vacuum(1), dt=1e4, T=1e5, n_traj=3, master_seed=0)


def test_hom0_leaves_the_unmeasured_mean_deterministic():
    """hom0 at phase 0 never moves the p mean at random, so its window covariance is singular.

    The rank-revealing factor draws no noise along it: every trajectory's p
    mean is the same up to round-off, and its ensemble spread is not noise.
    """
    _, mm, state0 = next(x for x in _trajectory_cases() if x[0] == "hom0")
    batch = gd.simulate_trajectories(mm, state0, dt=1e-3, T=1.0, n_traj=50, master_seed=2, store_stride=10)
    assert np.ptp(batch.means[:, :, 1], axis=0).max() <= 1e-13
    assert np.ptp(batch.means[:, -1, 0]) > 0.1


def test_daemonic_path_reaches_steady_value():
    """daemonic_ergotropy_path approaches the steady daemonic ergotropy."""
    p = gd.OpoParams(0.6, nu_in=3.0)
    mm = gd.monitored(gd.opo_model(p), gd.heterodyne())
    # Slowest mode relaxes at kappa (1 - chi~) = 0.4, so t = 40 leaves < 1e-6.
    t_grid = np.linspace(0.0, 40.0, 4001)
    path = gd.daemonic_ergotropy_path(mm, gd.thermal(5.0), t_grid)
    target = gd.opo_steady_daemonic(p, gd.heterodyne())
    assert path[0] == pytest.approx(0.0, abs=1e-12)  # thermal start is passive
    assert path[-1] == pytest.approx(target, abs=1e-6)
    assert gd.daemonic_ergotropy_t(mm, gd.thermal(5.0), 40.0) == pytest.approx(target, abs=1e-5)


def test_daemonic_path_matches_per_step_loop():
    """The batched curve equals energy minus passive energy evaluated one time step at a time."""
    rng = np.random.default_rng(131)
    model = _random_two_mode_model(rng)
    mm = gd.monitored(model, (gd.random_setting(rng), gd.random_setting(rng)))
    state0 = GaussianState(rng.standard_normal(4), 2.0 * np.eye(4))
    t_grid = np.linspace(0.0, 3.0, 61)
    means, cms = gd.unconditional_path(gd.drift_diffusion(model), state0, t_grid)
    sig_c = gd.evolve_conditional_cm(mm, state0.cm, t_grid)
    loop = [
        0.25 * np.trace(cms[i]) + 0.5 * means[i] @ means[i] - 0.5 * gd.symplectic_eigenvalues(sig_c[i]).sum()
        for i in range(t_grid.size)
    ]
    assert np.abs(gd.daemonic_ergotropy_path(mm, state0, t_grid) - loop).max() <= 1e-13


def _at_threshold_opo() -> DiffusiveModel:
    """The OPO at threshold, chi~ = 1 and nu_in = 3: A = diag(-1, 0), not Hurwitz (OpoParams admits chi~ < 1 only)."""
    return DiffusiveModel([[0.0, -0.5], [-0.5, 0.0]], _omega(1), 3.0 * np.eye(2), np.zeros(2))


def test_one_mode_closed_form_does_not_depend_on_blocking():
    """Each point of the per-coordinate closed form depends on its own time alone: a decimated grid gives the same bits.

    The 20001-point flows of filters that decouple run in several blocks,
    their decimations in one, from a start with an off-diagonal entry.
    """
    grid, sigma0 = np.linspace(0.0, 40.0, 20001), np.array([[4.0, 1.5], [1.5, 2.0]])
    opo = gd.opo_model(gd.OpoParams(0.8, nu_in=3.0))
    settings_ = (gd.homodyne(0.0), gd.heterodyne(), GeneralDyneSetting(theta_m=0.5 * np.pi, nu_m=2.0, z_m=0.1))
    cases = [(opo, setting) for setting in settings_] + [(_at_threshold_opo(), gd.homodyne(0.0))]
    for model, setting in cases:
        mm = gd.monitored(model, setting)
        assert gd.dynamics._decoupled(mm) is not None
        flow = gd.evolve_conditional_cm(mm, sigma0, grid)
        assert np.array_equal(flow[::7], gd.evolve_conditional_cm(mm, sigma0, grid[::7])), setting


def test_stacked_filters_match_their_own_curves():
    """Filters of one model in one pass give the bits of their own curves, also where their rates k differ in kind.

    At threshold (A = diag(-1, 0)) the efficient homodyne at phase 0 has
    k = 0 on both quadratures and the three general-dyne settings k > 0, so
    the rows of one block take both forms of h; the OPO's four settings all
    have k > 0.  From a displaced start with an off-diagonal entry.
    """
    at_phase_0 = (gd.homodyne(0.0), gd.heterodyne(), GeneralDyneSetting(z_m=0.5))
    cases = [
        (_at_threshold_opo(), (*at_phase_0, GeneralDyneSetting(theta_m=0.5 * np.pi, z_m=0.5))),
        (gd.opo_model(gd.OpoParams(0.8, nu_in=3.0)), (*at_phase_0, GeneralDyneSetting(nu_m=2.0, z_m=0.05))),
    ]
    state0 = GaussianState(np.array([0.3, -0.2]), np.array([[4.0, 1.5], [1.5, 2.0]]))
    for model, settings_ in cases:
        mms = [gd.monitored(model, setting) for setting in settings_]
        rates = [gd.dynamics._riccati_scalars(gd.dynamics._decoupled(mm))[::5] for mm in mms]
        assert (0.0 in rates[0]) == (not gd.is_hurwitz(model.dd.a)), rates
        for grid in (np.linspace(0.0, 20.0, 201), np.linspace(0.0, 20.0, 9001)):
            curves = gd.dynamics._daemonic_curve(mms, state0, grid)
            for mm, curve in zip(mms, curves):
                assert np.array_equal(curve, gd.daemonic_ergotropy_path(mm, state0, grid)), mm.settings


def _mp_transients(mm, sigma0s, times) -> list:
    """For each sigma0 of sigma0s, the 60-digit CMs at times (tests/riccati_oracle.py's transient, one expm per time)."""
    with mp.workdps(DPS):
        at, dt, r = riccati_data(mm.dd.a, mm.base.c, mm.base.sigma_in, mm.settings)
        ham = mp.zeros(4, 4)
        ham[:2, :2], ham[:2, 2:], ham[2:, :2], ham[2:, 2:] = -at.T, r, dt, at
        props = [mp.expm(ham * mp.mpf(float(t))) for t in times]
        out = []
        for sigma0 in sigma0s:
            x0 = mp.matrix(sigma0.tolist())
            flows = [(p[2:, :2] + p[2:, 2:] * x0) * mp.inverse(p[:2, :2] + p[:2, 2:] * x0) for p in props]
            out.append([(x + x.T) / 2 for x in flows])
    return out


@pytest.mark.parametrize("chi_tilde", [0.3, 0.8, 0.99, 1.0 - 1e-6])
def test_decoupled_flows_match_60_digit_oracle(chi_tilde):
    """The per-coordinate closed form is within 1e-15 of the 60-digit transient (max-norm, relative), near threshold too.

    hom0, hom90 and het at nu_in = 1 and 3, from 5 I and from a start with
    an off-diagonal entry, on six points of [0, 30].  The expansion about
    the steady state that this form replaced was 3.3e-15 off on this grid.
    """
    times = np.linspace(0.0, 30.0, 6)
    sigma0s = (5.0 * np.eye(2), np.array([[4.0, 1.5], [1.5, 2.0]]))
    for nu_in in (1.0, 3.0):
        model = gd.opo_model(gd.OpoParams(chi_tilde, nu_in=nu_in))
        for name in ("hom0", "hom90", "het"):
            mm = gd.monitored(model, gd.strategy_setting(name))
            assert gd.dynamics._decoupled(mm) is not None
            for sigma0, exact in zip(sigma0s, _mp_transients(mm, sigma0s, times[1:])):
                flow = gd.evolve_conditional_cm(mm, sigma0, times)
                with mp.workdps(DPS):
                    for t, x, y in zip(times[1:], flow[1:], exact):
                        gap = max(abs(mp.mpf(v) - w) for v, w in zip(x.ravel().tolist(), y)) / max(abs(w) for w in y)
                        assert gap <= 1e-15, (nu_in, name, t, float(gap))


def test_zero_rate_flow_is_the_scalar_closed_form():
    """With no drift the per-coordinate rate k is 0, and the flow is s00 / (1 + b s00 t) and s11 + d t, to 4 ulp.

    H_S = 0 and C = [[1, 0], [0, 0]] give A = 0; the general-dyne setting
    z_m = 0.5 at phase 0 observes x (B B^T = diag(b, 0)) and leaves diffusion
    on p only (Dt = diag(0, d)).  From a start with an off-diagonal entry,
    sigma01 = s01 / (1 + b s00 t) and sigma11 gains -b t s01^2 / (1 + b s00 t).
    """
    model = DiffusiveModel(np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, 0.0]]), 2.0 * np.eye(2), np.zeros(2))
    mm = gd.monitored(model, GeneralDyneSetting(z_m=0.5))
    assert not mm.dd.a.any()
    [(a0, d0, b), (a1, d, b1)] = gd.dynamics._decoupled(mm)
    assert a0 == a1 == d0 == b1 == 0.0 < min(b, d)
    grid = np.array([0.0, 1e-3, 0.5, 2.0, 40.0, 1e6])
    for s00, s01, s11 in ((3.0, 0.0, 2.0), (3.0, 1.2, 2.0)):
        flow = gd.evolve_conditional_cm(mm, np.array([[s00, s01], [s01, s11]]), grid)
        shrink = 1.0 + b * s00 * grid
        exact = np.stack((s00 / shrink, s01 / shrink, s11 + d * grid - b * grid * s01 * s01 / shrink), -1)
        got = np.stack((flow[:, 0, 0], flow[:, 0, 1], flow[:, 1, 1]), -1)
        assert np.abs(got - exact).max() <= 4 * np.finfo(float).eps * np.abs(exact).max(axis=-1).max(), (s01, got)


def test_decoupled_flow_past_the_float_range_warns_nothing():
    """An unobserved unstable quadrature leaves the float range: NumericError, with no RuntimeWarning on the way.

    Above threshold (A = diag(-1.3, 0.3)) the homodyne at phase 0 leaves p
    unobserved, so its variance grows as e^{0.6 t}; the filter decouples and
    takes the closed form.  The suite turns every warning into an error, so
    an overflow or a division by zero in the closed form would fail here.
    """
    model = DiffusiveModel(-0.8 * np.array([[0.0, 1.0], [1.0, 0.0]]), gd.symplectic_form(1), np.eye(2), np.zeros(2))
    mm = gd.monitored(model, gd.homodyne(0.0))
    assert gd.dynamics._decoupled(mm) is not None
    for grid in ([0.0, 2000.0], [0.0, 1e300], np.linspace(0.0, 3000.0, 31)):
        with pytest.raises(gd.NumericError, match="the conditional CM flow left"):
            gd.evolve_conditional_cm(mm, 2.0 * np.eye(2), grid)


def test_daemonic_clamp_names_time_and_setting(monkeypatch):
    """A curve value negative beyond round-off raises NumericError naming its time and its filter's (theta_m, z_m).

    The three OPO filters share one pass; the unconditional CM of that pass
    (_uncoupled_moments) is forged at t = 1.5 to an energy between the two
    largest passive energies there, so that only the filter with the largest
    one, hom0 and the last row, goes negative.
    """
    model = gd.opo_model(gd.OpoParams(0.8, nu_in=3.0, nu_0=5.0))
    mms = [gd.monitored(model, gd.strategy_setting(name)) for name in ("het", "hom90", "hom0")]
    state0, grid, i = gd.thermal(5.0), np.linspace(0.0, 2.0, 201), 150
    flows = [gd.evolve_conditional_cm(mm, state0.cm, grid[: i + 1]) for mm in mms]
    passive = [0.5 * gd.symplectic_eigenvalues(flow[i])[0] for flow in flows]
    _, middle, top = np.argsort(passive)
    assert top == 2 and passive[top] - passive[middle] > 1e-3
    moments = gd.dynamics._uncoupled_moments

    def forged(dd, state, tau):
        means, cms = moments(dd, state, tau)
        cms[tau == grid[i] - grid[0]] = (passive[middle] + passive[top]) * np.eye(2)  # energy tr / 4 halfway between
        return means, cms

    monkeypatch.setattr(gd.dynamics, "_uncoupled_moments", forged)
    with pytest.raises(gd.NumericError, match="daemonic ergotropy at t = ") as info:
        gd.dynamics._daemonic_curve(mms, state0, grid)
    setting = mms[top].settings[0]
    assert f"at t = {grid[i]:.6g} (theta_m = {setting.theta_m:.6g}, z_m = {setting.z_m:.6g})" in str(info.value)


@pytest.mark.parametrize("func", ["evolve_conditional_cm", "unconditional_path", "daemonic_ergotropy_path"])
def test_mode_count_mismatch_is_named(func):
    """A two-mode initial state on a one-mode model is rejected with both mode counts."""
    mm = gd.monitored(gd.opo_model(gd.OpoParams(0.5)), gd.heterodyne())
    state0 = gd.vacuum(2)
    calls = {
        "evolve_conditional_cm": lambda: gd.evolve_conditional_cm(mm, state0.cm, [0.0, 1.0]),
        "unconditional_path": lambda: gd.unconditional_path(gd.drift_diffusion(mm.base), state0, [0.0, 1.0]),
        "daemonic_ergotropy_path": lambda: gd.daemonic_ergotropy_path(mm, state0, [0.0, 1.0]),
    }
    with pytest.raises(ValueError, match="initial state has 2 modes, model has 1"):
        calls[func]()


@pytest.mark.parametrize("case", ["daemonic path, NaN mean", "unconditional path, NaN mean", "unphysical sigma0"])
def test_flow_entries_validate_the_start_state(case):
    """Each flow entry checks the whole start state (validate_state): an invalid one is a ValueError (exit 2).

    A NaN mean made daemonic_ergotropy_path return NaN curves and
    unconditional_path raise NumericError (exit 3, a float-range failure),
    and unconditional_path accepted sigma0 = 0.1 I.
    """
    mm = gd.monitored(gd.opo_model(gd.OpoParams(0.5, nu_in=2.0)), gd.heterodyne())
    nan_mean, unphysical = GaussianState([np.nan, 0.0], np.eye(2)), GaussianState(np.zeros(2), 0.1 * np.eye(2))
    calls = {
        "daemonic path, NaN mean": lambda: gd.daemonic_ergotropy_path(mm, nan_mean, [0.0, 1.0]),
        "unconditional path, NaN mean": lambda: gd.unconditional_path(mm.dd, nan_mean, [0.0, 1.0]),
        "unphysical sigma0": lambda: gd.unconditional_path(mm.dd, unphysical, [0.0, 1.0]),
    }
    with pytest.raises(ValueError, match="finite" if "NaN" in case else "uncertainty principle"):
        calls[case]()


@pytest.mark.parametrize("case", ["non-Hurwitz steady state", "non-square drift", "negative time"])
def test_dynamics_entries_reject_invalid_input(case):
    """A conditional steady state of a non-Hurwitz drift, a non-square drift and a negative time are rejected."""
    above = DiffusiveModel(-0.8 * np.array([[0.0, 1.0], [1.0, 0.0]]), gd.symplectic_form(1), np.eye(2), np.zeros(2))
    mm = gd.monitored(gd.opo_model(gd.OpoParams(0.5)), gd.heterodyne())
    calls = {
        "non-Hurwitz steady state": (
            NoSteadyStateError,
            "conditional steady state undefined",
            lambda: gd.steady_state_conditional(gd.monitored(above, gd.heterodyne())),
        ),
        "non-square drift": (ValueError, r"drift matrix must be square, got \(2, 3\)", lambda: gd.is_hurwitz(np.ones((2, 3)))),
        "negative time": (ValueError, "time must be non-negative", lambda: gd.daemonic_ergotropy_t(mm, gd.thermal(2.0), -1.0)),
    }
    error, message, call = calls[case]
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("nu_in", [1.0, 2.0, 3.0])
def test_homodyne_gains_are_exact(nu_in):
    """Homodyne B is C Omega u u^T / sqrt(nu_in) to round-off: the unmeasured quadrature drops out exactly."""
    model = gd.opo_model(gd.OpoParams(0.6, nu_in=nu_in))
    omega = gd.symplectic_form(1)
    for theta in np.linspace(0.0, np.pi, 97, endpoint=False):
        u = gd.measured_quadrature(gd.homodyne(theta))
        ref = model.c @ omega @ np.outer(u, u) / np.sqrt(nu_in)
        b = gd.monitored(model, gd.homodyne(theta)).b
        assert np.abs(b - ref).max() <= 1e-14 * np.abs(ref).max(), (theta, np.abs(b - ref).max())


def test_near_isotropic_input_is_stored_as_given():
    """Input blocks within 1e-14 of isotropic are stored as given, and filtered as their isotropic neighbours are.

    An exactly isotropic block takes the diagonal pointer-frame arithmetic, any
    other the general 2x2 products: across that seam the filter terms move by
    round-off, not by a jump.
    """
    jitter = np.array([[4e-15, 3e-15], [3e-15, -2e-15]])
    sigma_in = block_diag(2.5 * np.eye(2) + jitter, np.eye(2) - jitter)
    c = np.array([[1.0, 0.3, -0.2, 0.5], [0.1, 1.0, 0.4, -0.6]])
    model = DiffusiveModel(np.zeros((2, 2)), c, sigma_in, np.zeros(4))
    assert np.array_equal(model.sigma_in, sigma_in)
    isotropic = DiffusiveModel(np.zeros((2, 2)), c, block_diag(2.5 * np.eye(2), np.eye(2)), np.zeros(4))
    for setting in (gd.homodyne(0.3), gd.heterodyne(), GeneralDyneSetting(nu_m=1.5, theta_m=2.0, z_m=0.2)):
        mm, iso = gd.monitored(model, setting), gd.monitored(isotropic, setting)
        for got, want in zip((mm.b, mm.e, mm.at, mm.dtilde), (iso.b, iso.e, iso.at, iso.dtilde)):
            assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max()), (setting, got, want)


def _squeezed_bath(rng, m):
    """Block-diagonal sigma_in of m independent squeezed thermal modes nu R diag(z, 1/z) R^T, none isotropic."""
    blocks = []
    for _ in range(m):
        r, z = gd.rotation(rng.uniform(0.0, np.pi)), math.exp(rng.uniform(-1.0, 1.0))
        blocks.append((1.0 + rng.exponential(1.0)) * r @ np.diag([z, 1.0 / z]) @ r.T)
    return block_diag(*blocks)


def _setting_of_kind(rng, kind):
    theta = float(rng.uniform(0.0, np.pi))
    if kind == "homodyne":
        return gd.homodyne(theta)
    if kind == "heterodyne":
        return gd.heterodyne()
    nu_m = 1.0 if kind == "efficient" else float(rng.uniform(1.5, 3.0))
    return GeneralDyneSetting(nu_m=nu_m, theta_m=theta, z_m=float(rng.uniform(0.05, 0.9)))


def _max_rel(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("kind", ["homodyne", "heterodyne", "efficient", "noisy"])
@pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_squeezed_baths_match_the_60_digit_oracle(n, m, kind):
    """A squeezed bath is stored as given and filtered in its own basis: the 60-digit oracle agrees to 1e-12.

    tests/riccati_oracle.py builds (sigma_in + sigma_m)^-1 from the stored
    sigma_in and C, with sigma_m in the same basis.  The steady state and the
    flow from a thermal state at t = 0.7 are compared in max-norm, relative to
    the oracle's largest entry.
    """
    rng = np.random.default_rng([n, m, ["homodyne", "heterodyne", "efficient", "noisy"].index(kind)])
    while True:
        h_s = rng.standard_normal((2 * n, 2 * n))
        h_s, c = 0.5 * (h_s + h_s.T), rng.standard_normal((2 * n, 2 * m))
        sigma_in, mean_in = _squeezed_bath(rng, m), rng.standard_normal(2 * m)
        model = DiffusiveModel(h_s, c, sigma_in, mean_in)
        if gd.is_hurwitz(model.dd.a):
            break
    for got, want in ((model.c, c), (model.sigma_in, sigma_in), (model.mean_in, mean_in)):
        assert np.array_equal(got, want)
    mm = gd.monitored(model, [_setting_of_kind(rng, kind) for _ in range(m)])
    want = np.array(steady_state(model.dd.a, c, sigma_in, mm.settings).tolist(), dtype=float)
    assert _max_rel(gd.steady_state_conditional(mm), want) <= 1e-12
    sigma0 = 1.5 * np.eye(2 * n)
    want = np.array(transient(model.dd.a, c, sigma_in, mm.settings, sigma0, 0.7).tolist(), dtype=float)
    assert _max_rel(gd.evolve_conditional_cm(mm, sigma0, [0.0, 0.7])[-1], want) <= 1e-12


def test_heterodyne_on_a_squeezed_bath_is_heterodyne():
    """The chi~ = 0.6 OPO on the bath 2 R(0.4) diag(0.5, 2) R(0.4)^T: det sigma_c = 3.65226980224512 under heterodyne.

    Read in a folded basis, as a Williamson pre-pass would, the same setting
    measures another pointer and gives det sigma_c = 3.5707; homodyne at phase 0
    then keeps det sigma_c = 4 but moves sigma_c by 2.7.
    """
    opo = gd.opo_model(gd.OpoParams(0.6))
    r = gd.rotation(0.4)
    model = DiffusiveModel(opo.h_s, opo.c, 2.0 * r @ np.diag([0.5, 2.0]) @ r.T, np.zeros(2))
    for setting, det in ((gd.heterodyne(), "3.65226980224512"), (gd.homodyne(0.0), "4")):
        sigma_c = gd.steady_state_conditional(gd.monitored(model, setting))
        with mp.workdps(DPS):
            oracle = steady_state(model.dd.a, model.c, model.sigma_in, [setting])
            assert abs(mp.det(oracle) - mp.mpf(det)) <= 1e-14
        assert abs(np.linalg.det(sigma_c) - float(mp.det(oracle))) <= 1e-12 * float(mp.det(oracle))
        assert _max_rel(sigma_c, np.array(oracle.tolist(), dtype=float)) <= 1e-12


def test_monitored_model_holds_the_filter_terms():
    """MonitoredModel carries drift_diffusion(base), A + E B^T, D - E E^T and B B^T.

    At and Dt are built in the pointer frame, not from E, so they agree with
    the E-based forms to round-off of |A| and |D|.
    """
    rng = np.random.default_rng(83)
    for _ in range(10):
        model = gd.random_stable_model(rng, nu_in=1.0 + rng.exponential(1.0))
        mm = gd.monitored(model, gd.random_setting(rng, efficient=False))
        dd = gd.drift_diffusion(model)
        for got, want in zip((mm.dd.a, mm.dd.d, mm.dd.drive), (dd.a, dd.d, dd.drive)):
            assert np.array_equal(got, want)
        assert np.abs(mm.at - (dd.a + mm.e @ mm.b.T)).max() <= 1e-14 * np.abs(dd.a).max()
        assert np.abs(mm.dtilde - (dd.d - mm.e @ mm.e.T)).max() <= 1e-14 * np.abs(dd.d).max()
        assert np.array_equal(mm.dtilde, mm.dtilde.T)
        assert np.array_equal(mm.bbt, mm.b @ mm.b.T)


def _efficient_noisy_or_homodyne(rng, m):
    """One setting per input mode, each an efficient general-dyne, a noisy one (nu_m > 1) or an exact homodyne."""
    out = []
    for kind in rng.integers(0, 3, size=m):
        theta = float(rng.uniform(0.0, np.pi))
        if kind == 0:
            out.append(gd.homodyne(theta))
        else:
            nu_m, z_m = 1.0 if kind == 1 else float(rng.uniform(1.0, 5.0)), float(math.exp(rng.uniform(-14.0, 0.0)))
            out.append(GeneralDyneSetting(nu_m=nu_m, theta_m=theta, z_m=z_m))
    return out


def _filter_terms_by_mode(model, settings):
    """B, E, At, Dt and B B^T of MonitoredModel's docstring, from measurement._pointer_inverse, mode by mode.

    Per input mode, with M = (sigma_in + sigma_m)^-1 = N / det and M sigma_m = K / det in the pointer
    frame: M^(1/2) = sqrt(N / det), sigma_in M^(1/2) = nu M^(1/2), sigma_in M sigma_m = nu K / det and
    sigma_in M = I - K / det, each rotated back by R_theta and placed on the block diagonal by a slice.
    """
    n, m = model.n, model.m
    blocks = np.zeros((4, 2 * m, 2 * m))
    for j, setting in enumerate(settings):
        nu, mode = float(model.sigma_in[2 * j, 2 * j]), slice(2 * j, 2 * j + 2)
        (det, n11, _, n22), (k11, _, _, k22) = _pointer_inverse(nu, 0.0, nu, setting)
        r11, r22, k11, k22 = math.sqrt(n11 / det), math.sqrt(n22 / det), k11 / det, k22 / det
        c, s = math.cos(setting.theta_m), math.sin(setting.theta_m)
        diagonals = ((r11, r22), (nu * r11, nu * r22), (nu * k11, nu * k22), (1.0 - k11, 1.0 - k22))
        for k, (d1, d2) in enumerate(diagonals):
            blocks[k, mode, mode] = np.reshape(_from_pointer_frame(c, s, d1, 0.0, d2), (2, 2))
    oc, co = _omega(n) @ model.c, model.c @ _omega(m)  # Omega C and C Omega_m
    b, e, dtilde = co @ blocks[0], oc @ blocks[1], (oc @ blocks[2]) @ oc.T
    return b, e, model.dd.a + (oc @ blocks[3]) @ co.T, 0.5 * (dtilde + dtilde.T), b @ b.T


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(seed=st_.integers(0, 2**32 - 1), n=st_.sampled_from([2, 3]))
def test_monitored_multimode_filter_terms_bit_for_bit(seed, n):
    """From two modes on, b, e, at, dtilde and bbt are the docstring's products byte for byte; entries are their floats.

    The model places every mode's pointer blocks with one indexed assignment;
    the reference places them mode by mode (_filter_terms_by_mode).
    Efficient, noisy and homodyne settings are mixed over the input modes.
    """
    rng = np.random.default_rng(seed)
    model = _random_hurwitz_model(rng, n, driven=False)
    mm = gd.monitored(model, _efficient_noisy_or_homodyne(rng, n))
    for got, want in zip((mm.b, mm.e, mm.at, mm.dtilde, mm.bbt), _filter_terms_by_mode(model, mm.settings)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert mm.entries == tuple(x.ravel().tolist() for x in (mm.at, mm.dtilde, mm.bbt))


def _kronecker_lyapunov(f, q):
    """X with F X + X F^T + Q = 0 from the Kronecker-sum solve, as the Newton-Kleinman steps take it."""
    eye = np.eye(f.shape[0])
    return np.linalg.solve(np.kron(f, eye) + np.kron(eye, f), -q.ravel()).reshape(q.shape)


def _refined(mm, sigma, residual) -> tuple:
    """(sigma, steps): Newton-Kleinman steps while residual(sigma) > SS_REFINE_RTOL, at most SS_NEWTON_STEPS."""
    at, q, r = mm.at, mm.dtilde, mm.bbt
    steps = 0
    while steps < gd.dynamics.SS_NEWTON_STEPS and residual(sigma) > gd.dynamics.SS_REFINE_RTOL:
        sigma = _kronecker_lyapunov(at - sigma @ r, q + sigma @ r @ sigma)
        sigma, steps = 0.5 * (sigma + sigma.T), steps + 1
    return sigma, steps


def _balance(q, r) -> float:
    nq, nr = float(np.abs(q).max()), float(np.abs(r).max())
    return 2.0 ** int(0.5 * (math.log2(nq) - math.log2(nr))) if nq > 0.0 and nr > 0.0 else 1.0


def _schur_reference(mm) -> tuple:
    """(sigma, Newton steps) of the n >= 2 solve spelled out: balance, schur of -H, solve, symmetrize, refine."""
    at, q, r = mm.at, mm.dtilde, mm.bbt
    dim, c = at.shape[0], _balance(q, r)
    _, z, sdim = schur(-np.block([[-at.T, c * r], [q / c, at]]), output="real", sort="lhp")
    assert sdim == dim
    sigma = c * np.linalg.solve(z[:dim, :dim].T, z[dim:, :dim].T)

    def residual(s):
        terms = (q, at @ s, s @ r @ s)
        return float(np.abs(at @ s + s @ at.T + q - s @ r @ s).max()) / max(float(np.abs(x).max()) for x in terms)

    return _refined(mm, 0.5 * (sigma + sigma.T), residual)


def _two_opos(chi_tildes, nu_in, settings):
    """Two uncoupled OPOs (kappa = 1) in one bath, as a two-mode model: its steady state takes the Schur route."""
    h_s = block_diag(*([[0.0, -0.5 * ct], [-0.5 * ct, 0.0]] for ct in chi_tildes))
    return gd.monitored(DiffusiveModel(h_s, _omega(2), nu_in * np.eye(4), np.zeros(4)), settings)


def test_multimode_steady_states_pinned_to_the_spelled_out_route():
    """From two modes on, steady_state_conditional gives the bytes of the solve written out in _schur_reference.

    40 random 2- and 3-mode models with mixed settings, and pairs of OPOs at
    generic phases at nu_in = 1e8, where Newton-Kleinman steps refine the
    Schur solution.
    """
    rng = np.random.default_rng(2029)
    for i in range(40):
        n = 2 + i % 2
        mm = gd.monitored(_random_hurwitz_model(rng, n, driven=False), _efficient_noisy_or_homodyne(rng, n))
        assert gd.steady_state_conditional(mm).tobytes() == _schur_reference(mm)[0].tobytes()
    refined = 0
    for chi_tildes in ((0.3, 0.9), (0.6, 0.99), (0.99, 0.6)):
        for theta in (0.3, 0.7, 1.2, 2.5):
            for z_m in (0.0, 1e-5, 0.02, 0.3):
                pair = [GeneralDyneSetting(theta_m=theta, z_m=z_m), GeneralDyneSetting(theta_m=theta + 0.4, z_m=0.3)]
                mm = _two_opos(chi_tildes, 1e8, pair)
                sigma, steps = _schur_reference(mm)
                assert gd.steady_state_conditional(mm).tobytes() == sigma.tobytes()
                refined += steps > 0
    assert refined >= 3


def _mul2(x, y):
    """Row-major 2x2 product in float arithmetic, each entry x_i0 y_0j + x_i1 y_1j."""
    return [x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3], x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3]]


def _full_one_mode_basis(h):
    """[U; V] of dynamics._one_mode_basis from every entry of H^2 and of M = H^2 + (l1 + l2) H + l1 l2 I."""
    cols = list(zip(*h))
    h2 = [[r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3 for c0, c1, c2, c3 in cols] for r0, r1, r2, r3 in h]
    p = -0.5 * (h2[0][0] + h2[1][1] + h2[2][2] + h2[3][3])
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = h
    s = (
        (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
        - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
        + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
        + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
        - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
        + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
    )
    if s <= 0.0 or -p + 2.0 * math.sqrt(s) <= 0.0:
        return None
    prod = math.sqrt(s)
    total = math.sqrt(-p + 2.0 * prod)
    m = [[x + total * y for x, y in zip(row2, row)] for row2, row in zip(h2, h)]
    for i in range(4):
        m[i][i] += prod
    pairs = list(itertools.combinations(range(4), 2))
    dets = [abs(m[0][j] * m[1][k] - m[0][k] * m[1][j]) for j, k in pairs]
    j, k = pairs[dets.index(max(dets))]
    return [[row[j], row[k]] for row in m]


def _one_mode_hamiltonian(mm) -> tuple:
    """(c, H) of _hamiltonian as a nested list, from the filter's arrays."""
    a, q, r = (x.ravel().tolist() for x in (mm.at, mm.dtilde, mm.bbt))
    (a00, a01, a10, a11), (q00, q01, q10, q11), (r00, r01, r10, r11) = a, q, r
    c = _balance(mm.dtilde, mm.bbt)
    return c, [
        [-a00, -a10, c * r00, c * r01],
        [-a01, -a11, c * r10, c * r11],
        [q00 / c, q01 / c, a00, a01],
        [q10 / c, q11 / c, a10, a11],
    ]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(entries=st_.lists(st_.floats(-1e3, 1e3), min_size=16, max_size=16))
def test_one_mode_basis_forms_the_entries_the_full_product_forms(entries):
    """_one_mode_basis forms only the entries of H^2 it needs, each with the bits the full product gives it."""
    h = [entries[4 * i : 4 * i + 4] for i in range(4)]
    want = _full_one_mode_basis(h)
    if want is None:
        with pytest.raises(np.linalg.LinAlgError, match="stable eigenvalues, expected 2"):
            gd.dynamics._one_mode_basis(h)
    else:
        got = gd.dynamics._one_mode_basis(h)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def _one_mode_reference(mm) -> tuple:
    """(sigma, Newton steps) of the one-mode solve spelled out: the full-product basis, c V U^-1, float residual."""
    c, h = _one_mode_hamiltonian(mm)
    (u00, u01), (u10, u11), (v00, v01), (v10, v11) = _full_one_mode_basis(h)
    k = c / (u00 * u11 - u01 * u10)
    off = 0.5 * k * ((v01 * u00 - v00 * u01) + (v10 * u11 - v11 * u10))
    sigma = np.array([[k * (v00 * u11 - v01 * u10), off], [off, k * (v11 * u00 - v10 * u01)]])
    a, q, r = (x.ravel().tolist() for x in (mm.at, mm.dtilde, mm.bbt))

    def residual(sigma):
        s = sigma.ravel().tolist()
        a_s, s_at, s_r_s = _mul2(a, s), _mul2(s, [a[0], a[2], a[1], a[3]]), _mul2(_mul2(s, r), s)
        return max(abs(x + y + z - w) for x, y, z, w in zip(a_s, s_at, q, s_r_s)) / max(map(abs, (*q, *a_s, *s_r_s)))

    return _refined(mm, sigma, residual)


def test_one_mode_steady_states_pinned_to_the_spelled_out_route():
    """The OPO at generic phases gives the bytes of the one-mode solve written out in _one_mode_reference.

    At nu_in = 3 and 1e8, over efficient, noisy and homodyne settings.  The
    closed form leaves every residual here within SS_REFINE_RTOL, so no
    Newton-Kleinman step runs; those are pinned on the Schur route, with two
    OPOs at nu_in = 1e8 (test_multimode_steady_states_pinned_to_the_spelled_out_route).
    """
    for nu_in in (3.0, 1e8):
        for chi_tilde in (0.3, 0.6, 0.9, 0.99):
            for theta in (0.3, 0.7, 1.2, 2.5):
                for nu_m, z_m in ((1.0, 0.0), (1.0, 1e-5), (1.0, 0.3), (5.0, 0.02)):
                    model = gd.opo_model(gd.OpoParams(chi_tilde, nu_in))
                    mm = gd.monitored(model, GeneralDyneSetting(nu_m, theta, z_m))
                    sigma, steps = _one_mode_reference(mm)
                    assert steps == 0 and gd.steady_state_conditional(mm).tobytes() == sigma.tobytes()


@pytest.mark.parametrize("nu_in", [1.0, 3.0])
def test_sharply_measured_quadrature_has_no_filter_diffusion(nu_in):
    """An efficient homodyne leaves no diffusion on the quadrature it measures: Dt there is exactly kappa nu_in cos^2.

    Along the measured quadrature D - E E^T cancels to zero in exact
    arithmetic (in floats it leaves -1.3e-15 at nu_in = 3).  At phase 0 the
    entry is exactly 0; at float(pi/2) it is kappa nu_in cos^2(theta_m),
    about 4e-33 nu_in, the exact value for that float phase.
    """
    model = gd.opo_model(gd.OpoParams(0.99, nu_in=nu_in))
    assert gd.monitored(model, gd.strategy_setting("hom0")).dtilde[0, 0] == 0.0
    hom90 = gd.strategy_setting("hom90")
    exact = nu_in * math.cos(hom90.theta_m) ** 2
    assert abs(gd.monitored(model, hom90).dtilde[1, 1] - exact) <= 4e-16 * exact


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_grids_rejected(bad):
    """Time grids and uniform-grid (T, dt) pairs must be finite; NaN and inf raise ValueError."""
    mm = gd.monitored(gd.opo_model(gd.OpoParams(0.5)), gd.heterodyne())
    state0 = GaussianState(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        gd.evolve_conditional_cm(mm, state0.cm, [0.0, bad])
    with pytest.raises(ValueError, match="finite"):
        gd.unconditional_path(mm.dd, state0, [0.0, bad])
    with pytest.raises(ValueError, match="finite and positive"):
        gd.simulate_trajectories(mm, state0, dt=1e-3, T=bad, n_traj=2, master_seed=0)
    with pytest.raises(ValueError, match="finite and positive"):
        gd.simulate_trajectories(mm, state0, dt=0.0, T=1.0, n_traj=2, master_seed=0)
