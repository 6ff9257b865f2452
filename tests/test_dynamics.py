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
from gaussdaemon.dynamics import _inverse_sqrt_sum


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

    The reference needs no CARE solver: evolve_conditional_cm run from the
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
        flow = gd.evolve_conditional_cm(mm, start, np.linspace(0.0, 2000.0, 9))[-1]
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


def _random_two_mode_model(rng):
    """Random Hurwitz two-mode model with a driven, thermal two-mode environment."""
    while True:
        h_s = rng.standard_normal((4, 4))
        model = DiffusiveModel(
            0.5 * (h_s + h_s.T),
            rng.standard_normal((4, 4)),
            np.kron(np.diag(rng.uniform(1.0, 3.0, size=2)), np.eye(2)),
            rng.standard_normal(4),
        )
        if gd.is_hurwitz(gd.drift_diffusion(model).a):
            return model


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
