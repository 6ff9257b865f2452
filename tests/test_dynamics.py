"""Unit tests for monitored Gaussian dynamics: drift/diffusion, Riccati, trajectories."""

import numpy as np
import pytest
from scipy.linalg import block_diag, expm, solve_continuous_are, solve_continuous_lyapunov

import gaussdaemon as gd
from gaussdaemon import (
    ConvergenceError,
    DiffusiveModel,
    GaussianState,
    GeneralDyneSetting,
    NoSteadyStateError,
)
from gaussdaemon.dynamics import _grid_flow, _inverse_sqrt_sum, _propagate_riccati


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
    """The OPO drift is diag(-k/2 - chi, -k/2 + chi) and diffusion is k nu_in I."""
    p = gd.OpoParams(chi=0.3, kappa=1.2, n_th=0.5)
    dd = gd.drift_diffusion(gd.opo_model(p))
    assert np.allclose(dd.a, np.diag([-0.6 - 0.3, -0.6 + 0.3]), atol=1e-12)
    assert np.allclose(dd.d, 1.2 * p.nu_in * np.eye(2), atol=1e-12)
    assert np.allclose(dd.drive, 0.0)


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
    """A squeezed-thermal input folds to nu I without changing A, D or the drive."""
    rng = np.random.default_rng(61)
    h_s = np.array([[0.4, 0.1], [0.1, -0.2]])
    for _ in range(20):
        s_env = gd.random_symplectic(rng, 1)
        nu = 1.0 + rng.exponential(1.0)
        sigma_in = nu * s_env @ s_env.T
        c = rng.normal(size=(2, 2))
        mean_in = rng.normal(size=2)
        model = DiffusiveModel(h_s, c, sigma_in, mean_in)
        # normalized input is thermal-diagonal
        assert np.allclose(model.sigma_in, model.sigma_in[0, 0] * np.eye(2), atol=1e-10)
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


def test_conditional_steady_state_against_care():
    """Riccati integration agrees with scipy's algebraic CARE solver."""
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


def test_steady_state_is_the_flow_limit():
    """The algebraic steady state is where the Riccati flow ends, with a Hurwitz closed loop.

    The reference needs no CARE solver: the stepping propagator (the route
    evolve_conditional_cm keeps where it cannot expand about a steady state;
    elsewhere it expands about the CARE solution itself) run from the
    unconditional steady state over a long horizon.  The OPO homodyne
    phase-0 cases at nu_in = 3 are where a bare Schur solve leaves residuals
    above the 1e-9 gate; they also have the closed form nu diag(1 - chi~, 1/(1 - chi~)).
    The chi~ = 0 phase-pi/2 case, whose x quadrature is unobserved up to
    round-off, needs a second Newton step.
    """
    rng = np.random.default_rng(89)
    cases = [(gd.opo_model(gd.OpoParams.from_tilde(ct, nu_in=3.0)), gd.homodyne(0.0)) for ct in (0.3, 0.6)]
    cases.append((gd.opo_model(gd.OpoParams.from_tilde(0.0)), gd.homodyne(0.5 * np.pi)))
    cases += [
        (gd.random_stable_model(rng, nu_in=1.0 + rng.exponential(1.0)), gd.random_setting(rng)) for _ in range(8)
    ]
    for model, setting in cases:
        mm = gd.monitored(model, setting)
        sigma = gd.steady_state_conditional(mm)
        dd = gd.drift_diffusion(model)
        start = gd.steady_state_unconditional(dd).cm
        flow = _propagate_riccati(mm.at, mm.dtilde, mm.bbt, start, np.linspace(0.0, 2000.0, 9))[-1]
        assert np.abs(sigma - flow).max() <= 1e-8, np.abs(sigma - flow).max()
        closed = dd.a + mm.e @ mm.b.T - sigma @ mm.b @ mm.b.T
        assert np.linalg.eigvals(closed).real.max() < 0.0
    for ct in (0.3, 0.6):
        mm = gd.monitored(gd.opo_model(gd.OpoParams.from_tilde(ct, nu_in=3.0)), gd.homodyne(0.0))
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
    (nu_j + 1e12)^(-1/2) < 1e-6 along the unmeasured quadrature).
    """
    rng = np.random.default_rng(400 + m)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        h_s = rng.standard_normal((2 * n, 2 * n))
        sigma_in = block_diag(*[gd.random_state(rng, 1).cm for _ in range(m)])
        model = DiffusiveModel(0.5 * (h_s + h_s.T), rng.standard_normal((2 * n, 2 * m)), sigma_in, np.zeros(2 * m))
        settings = _mixed_settings(rng, m)
        mm = gd.monitored(model, settings)
        blocks = [slice(2 * j, 2 * j + 2) for j in range(m)]
        invs = [gd.inverse_sum(model.sigma_in[sl, sl], s) for sl, s in zip(blocks, settings)]
        om_m = gd.symplectic_form(m)
        bbt = model.c @ om_m @ block_diag(*invs) @ om_m.T @ model.c.T
        assert np.abs(mm.b @ mm.b.T - bbt).max() <= 1e-12 * np.abs(bbt).max()

        root = _inverse_sqrt_sum(model.sigma_in, settings)
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
        gap = np.abs(_inverse_sqrt_sum(model.sigma_in, near) - root).max()
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
    p = gd.OpoParams.from_tilde(0.7, nu_in=2.0)
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
    p = gd.OpoParams.from_tilde(0.9, nu_in=1.0)
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


def _random_two_mode_model(rng):
    """Random Hurwitz two-mode model with a driven, thermal two-mode environment."""
    return _random_hurwitz_model(rng)


def test_unconditional_path_is_grid_independent():
    """A single step of any length gives F (s0 - s_inf) F^T + s_inf and F (r0 - r_inf) + r_inf."""
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


# Uniform from 0 and non-uniform from t = 0.25.
_CROSS_CHECK_GRIDS = (np.linspace(0.0, 6.0, 61), 0.25 + np.concatenate([[0.0], np.geomspace(1e-3, 6.0, 30)]))


@pytest.mark.parametrize("start", ["below", "above"])
@pytest.mark.parametrize("driven", [False, True])
@pytest.mark.parametrize("n", [1, 2])
def test_shift_route_matches_stepping(n, driven, start):
    """The expanded conditional flows and the Gramian unconditional flows equal the stepped flows.

    Random Hurwitz models, all on the expansion route; sigma0 = c sigma_inf with c = 1 / nu_min(sigma_inf) (physical, below
    sigma_inf) or c = 3 (above); every other model measures with at least one
    exact homodyne.  The means are checked against one expm per grid point.
    """
    rng = np.random.default_rng([181, n, driven, start == "above"])
    for i in range(4):
        model = _random_hurwitz_model(rng, n, driven)
        settings = _mixed_settings(rng, n) if i % 2 else [gd.random_setting(rng) for _ in range(n)]
        mm = gd.monitored(model, settings)
        assert gd.dynamics._expandable(mm.dd), i
        sigma_inf = gd.steady_state_conditional(mm)
        scale = 3.0 if start == "above" else 1.0 / gd.symplectic_eigenvalues(sigma_inf).min()
        state0 = GaussianState(rng.standard_normal(2 * n), scale * sigma_inf)
        dd = mm.dd
        aug = np.block([[dd.a, dd.drive[:, None]], [np.zeros((1, 2 * n + 1))]])
        for grid in _CROSS_CHECK_GRIDS:
            flow = gd.evolve_conditional_cm(mm, state0.cm, grid)
            stepped = _propagate_riccati(mm.at, mm.dtilde, mm.bbt, state0.cm, grid)
            assert np.abs(flow - stepped).max() <= 1e-12 * np.abs(stepped).max(), (i, np.abs(flow - stepped).max())
            means, cms = gd.unconditional_path(dd, state0, grid)
            stepped = _propagate_riccati(dd.a, dd.d, np.zeros_like(dd.a), state0.cm, grid)
            assert np.abs(cms - stepped).max() <= 1e-12 * np.abs(stepped).max(), i
            exact = [expm(aug * (t - grid[0]))[:-1] @ np.append(state0.mean, 1.0) for t in grid]
            assert np.abs(means - exact).max() <= 1e-12 * max(1.0, np.abs(exact).max()), i


def test_non_hurwitz_drift_is_stepped(monkeypatch):
    """Without a steady state the conditional flow takes the stepping route; all flows stay finite.

    Above threshold (chi = 0.8 > kappa / 2) with homodyne at phase 0 the
    growing quadrature is never measured, so no stabilizing solution exists.
    """
    model = DiffusiveModel(-0.8 * np.array([[0.0, 1.0], [1.0, 0.0]]), gd.symplectic_form(1), np.eye(2), np.zeros(2))
    mm = gd.monitored(model, gd.homodyne(0.0))
    assert not gd.is_hurwitz(mm.dd.a)

    def forbidden(*args, **kwargs):
        raise AssertionError("the steady-state expansion ran on a non-Hurwitz drift")

    monkeypatch.setattr(gd.dynamics, "_expand_about", forbidden)
    state0 = GaussianState(np.array([0.5, -0.5]), 2.0 * np.eye(2))
    grid = np.linspace(0.0, 5.0, 51)
    flow = gd.evolve_conditional_cm(mm, state0.cm, grid)
    assert np.isfinite(flow).all()
    assert np.array_equal(flow, _propagate_riccati(mm.at, mm.dtilde, mm.bbt, state0.cm, grid))
    means, cms = gd.unconditional_path(mm.dd, state0, grid)
    assert np.isfinite(means).all() and np.isfinite(cms).all()
    growth = np.exp(0.6 * grid)  # the p quadrature has a = 0.3 and D = 1: s' = 0.6 s + 1
    assert np.abs(cms[:, 1, 1] - (2.0 * growth + (growth - 1.0) / 0.6)).max() <= 1e-12 * cms[-1, 1, 1]
    batch = gd.simulate_trajectories(mm, state0, dt=0.1, T=5.0, n_traj=2, master_seed=0)
    assert np.array_equal(batch.sigma_c, flow)


def test_supplied_steady_state_is_checked():
    """A supplied sigma_inf is used as given, but must solve the algebraic equation and be stabilizing."""
    p = gd.OpoParams.from_tilde(0.7, nu_in=2.0)
    mm = gd.monitored(gd.opo_model(p), gd.heterodyne())
    grid = np.linspace(0.0, 3.0, 31)
    closed = gd.opo_conditional_ss(p, gd.heterodyne())
    flow = gd.evolve_conditional_cm(mm, 4.0 * np.eye(2), grid, sigma_inf=closed)
    assert np.abs(flow - gd.evolve_conditional_cm(mm, 4.0 * np.eye(2), grid)).max() <= 1e-13 * np.abs(flow).max()
    with pytest.raises(ValueError, match="algebraic residual"):
        gd.evolve_conditional_cm(mm, 4.0 * np.eye(2), grid, sigma_inf=1.001 * closed)
    # The other root of each decoupled quadrature solves the equation but destabilizes.
    at, bbt, dtilde = (np.diag(x) for x in (mm.at, mm.bbt, mm.dtilde))
    anti = np.diag((at - np.sqrt(at * at + bbt * dtilde)) / bbt)
    assert gd.riccati_residual(mm, anti) <= 1e-12
    with pytest.raises(ValueError, match="not stabilizing"):
        gd.evolve_conditional_cm(mm, 4.0 * np.eye(2), grid, sigma_inf=anti)


def test_grid_flow(monkeypatch):
    """e^{F (t - t_0)} and the Gramians on a grid: doubling on (linspace-)uniform grids, chaining otherwise."""
    rng = np.random.default_rng(191)
    f = rng.standard_normal((4, 4)) - 2.0 * np.eye(4)
    c = rng.standard_normal((4, 4))
    d = c @ c.T
    calls = []

    def counted(m):
        calls.append(m)
        return expm(m)

    monkeypatch.setattr(gd.dynamics, "expm", counted)
    uniform, offset = np.linspace(0.0, 10.0, 10001), np.linspace(0.3, 2.3, 7)
    uneven = np.array([0.0, 0.125, 0.375, 0.5, 1.0, 1.125])  # three distinct steps, exact in binary
    for grid, n_expm in ((uniform, 14), (offset, 3), (uneven, 3), (np.array([1.5]), 0)):
        calls.clear()
        exps, grams = _grid_flow(f, grid)
        assert len(calls) == n_expm and grams is None, grid
        exact = np.array([expm(f * (t - grid[0])) for t in grid])
        assert np.abs(exps - exact).max() <= 1e-13 * np.abs(exact).max(), np.abs(exps - exact).max()
        calls.clear()
        exps_d, grams = _grid_flow(f, grid, d)
        assert np.array_equal(exps_d, exps)
        assert len(calls) == n_expm + min(n_expm, 1 if grid is uniform or grid is offset else 3), grid
        # G(t) = sigma_inf - e^{Ft} sigma_inf e^{F^T t} with F sigma_inf + sigma_inf F^T + D = 0.
        sigma_inf = solve_continuous_lyapunov(f, -d)
        gram = sigma_inf - exact @ sigma_inf @ np.swapaxes(exact, 1, 2)
        assert np.abs(grams - gram).max() <= 1e-13 * np.abs(sigma_inf).max(), np.abs(grams - gram).max()


@pytest.mark.parametrize("chi_tilde", [0.999, 1.0 - 1e-6, 1.0 - 1e-9])
def test_near_threshold_flows_match_stepping(chi_tilde):
    """Near threshold the conditional flows are stepped and the unconditional ones stay exact.

    There the steady state (about nu_in / (1 - chi~)) dwarfs the CM along the
    flow, and an expansion about it would cancel away the digits.  At
    chi~ = 0.999 (steady-state scale 3000, still expanded) and closer to
    threshold (stepped), the conditional flows, the Gramian unconditional
    flows and the transient table all agree with the stepping propagator.
    """
    p = gd.OpoParams.from_tilde(chi_tilde, nu_in=3.0, nu_0=5.0)
    model = gd.opo_model(p)
    dd = gd.drift_diffusion(model)
    expanded = chi_tilde == 0.999
    assert gd.dynamics._expandable(dd) == expanded
    state0 = gd.thermal(5.0)
    grid = np.linspace(0.0, 10.0, 201)
    tab = gd.transient_table(p, t_max=10.0, dt=5e-2)
    means, cms = gd.unconditional_path(dd, state0, grid)
    stepped = _propagate_riccati(dd.a, dd.d, np.zeros_like(dd.a), state0.cm, grid)
    assert np.abs(cms - stepped).max() <= 1e-12 * np.abs(stepped).max(), np.abs(cms - stepped).max()
    assert not means.any()
    energy = 0.25 * np.trace(stepped, axis1=1, axis2=2)
    for name in ("hom0", "hom90", "het"):
        mm = gd.monitored(model, gd.strategy_setting(name))
        flow = gd.evolve_conditional_cm(mm, state0.cm, grid)
        reference = _propagate_riccati(mm.at, mm.dtilde, mm.bbt, state0.cm, grid)
        if expanded:
            assert np.abs(flow - reference).max() <= 1e-12 * np.abs(reference).max(), name
        else:
            assert np.array_equal(flow, reference), name
        curve = energy - 0.5 * gd.symplectic_eigenvalues(reference).sum(axis=-1)
        assert np.abs(getattr(tab, name) - curve).max() <= 1e-12 * np.abs(curve).max(), name


class TestTrajectories:
    """Stochastic ensemble behavior."""

    def setup_method(self):
        p = gd.OpoParams.from_tilde(0.6, nu_in=2.0)
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

    def test_stride_decimation(self):
        """Strided storage matches the stride-1 run at the common times."""
        kw = dict(dt=1e-3, T=0.5, n_traj=8, master_seed=3)
        full = gd.simulate_trajectories(self.mm, self.state0, **kw)
        dec = gd.simulate_trajectories(self.mm, self.state0, store_stride=25, **kw)
        assert np.array_equal(dec.times, full.times[::25])
        assert np.array_equal(dec.means, full.means[:, ::25, :])
        assert np.array_equal(dec.sigma_c, full.sigma_c[::25])
        # records sum over each storage window
        summed = full.records.reshape(8, 20, 25, 2).sum(axis=2)
        assert np.allclose(dec.records, summed, atol=1e-12)

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


def test_daemonic_path_reaches_steady_value():
    """daemonic_ergotropy_path approaches the steady daemonic ergotropy."""
    p = gd.OpoParams.from_tilde(0.6, nu_in=3.0)
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


@pytest.mark.parametrize("func", ["evolve_conditional_cm", "unconditional_path", "daemonic_ergotropy_path"])
def test_mode_count_mismatch_is_named(func):
    """A two-mode initial state on a one-mode model is rejected with both mode counts."""
    mm = gd.monitored(gd.opo_model(gd.OpoParams.from_tilde(0.5)), gd.heterodyne())
    state0 = gd.vacuum(2)
    calls = {
        "evolve_conditional_cm": lambda: gd.evolve_conditional_cm(mm, state0.cm, [0.0, 1.0]),
        "unconditional_path": lambda: gd.unconditional_path(gd.drift_diffusion(mm.base), state0, [0.0, 1.0]),
        "daemonic_ergotropy_path": lambda: gd.daemonic_ergotropy_path(mm, state0, [0.0, 1.0]),
    }
    with pytest.raises(ValueError, match="initial state has 2 modes, model has 1"):
        calls[func]()


@pytest.mark.parametrize("nu_in", [1.0, 2.0, 3.0])
def test_homodyne_gains_are_exact(nu_in):
    """Homodyne B is C Omega u u^T / sqrt(nu_in) to round-off: the unmeasured quadrature drops out exactly."""
    model = gd.opo_model(gd.OpoParams.from_tilde(0.6, nu_in=nu_in))
    omega = gd.symplectic_form(1)
    for theta in np.linspace(0.0, np.pi, 97, endpoint=False):
        u = gd.measured_quadrature(gd.homodyne(theta))
        ref = model.c @ omega @ np.outer(u, u) / np.sqrt(nu_in)
        b = gd.monitored(model, gd.homodyne(theta)).b
        assert np.abs(b - ref).max() <= 1e-14 * np.abs(ref).max(), (theta, np.abs(b - ref).max())


def test_near_isotropic_input_is_stored_as_nu_identity():
    """Input blocks within 1e-14 of isotropic are stored as exactly nu_j I, nu_j = trace / 2."""
    jitter = np.array([[4e-15, 3e-15], [3e-15, -2e-15]])
    sigma_in = block_diag(2.5 * np.eye(2) + jitter, np.eye(2) - jitter)
    model = DiffusiveModel(np.zeros((2, 2)), np.ones((2, 4)), sigma_in, np.zeros(4))
    nus = [0.5 * np.trace(sigma_in[:2, :2]), 0.5 * np.trace(sigma_in[2:, 2:])]
    assert np.array_equal(model.sigma_in, block_diag(nus[0] * np.eye(2), nus[1] * np.eye(2)))


def test_monitored_model_holds_the_filter_terms():
    """MonitoredModel carries drift_diffusion(base), A + E B^T, D - E E^T and B B^T."""
    rng = np.random.default_rng(83)
    for _ in range(10):
        model = gd.random_stable_model(rng, nu_in=1.0 + rng.exponential(1.0))
        mm = gd.monitored(model, gd.random_setting(rng, efficient=False))
        dd = gd.drift_diffusion(model)
        for got, want in zip((mm.dd.a, mm.dd.d, mm.dd.drive), (dd.a, dd.d, dd.drive)):
            assert np.array_equal(got, want)
        assert np.array_equal(mm.at, dd.a + mm.e @ mm.b.T)
        assert np.array_equal(mm.dtilde, dd.d - mm.e @ mm.e.T)
        assert np.array_equal(mm.bbt, mm.b @ mm.b.T)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_grids_rejected(bad):
    """Time grids and uniform-grid (T, dt) pairs must be finite; NaN and inf raise ValueError."""
    mm = gd.monitored(gd.opo_model(gd.OpoParams.from_tilde(0.5)), gd.heterodyne())
    state0 = GaussianState(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        gd.evolve_conditional_cm(mm, state0.cm, [0.0, bad])
    with pytest.raises(ValueError, match="finite"):
        gd.unconditional_path(mm.dd, state0, [0.0, bad])
    with pytest.raises(ValueError, match="finite and positive"):
        gd.simulate_trajectories(mm, state0, dt=1e-3, T=bad, n_traj=2, master_seed=0)
    with pytest.raises(ValueError, match="finite and positive"):
        gd.simulate_trajectories(mm, state0, dt=0.0, T=1.0, n_traj=2, master_seed=0)
