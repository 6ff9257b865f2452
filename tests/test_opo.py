"""Unit tests for the monitored optical parametric oscillator."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_

import gaussdaemon as gd
from gaussdaemon import GeneralDyneSetting, NoSteadyStateError, NumericError, OpoParams
from scalar_riccati import opo_quadrature_gains, scalar_riccati_transient
from zopt_search import opo_zopt_numeric


def test_params_validation():
    """Parameter domain: kappa > 0, 0 <= chi, below threshold, nu_0 >= 1."""
    with pytest.raises(ValueError, match="kappa"):
        OpoParams(chi=0.1, kappa=0.0)
    with pytest.raises(ValueError, match="chi"):
        OpoParams(chi=-0.1)
    with pytest.raises(NoSteadyStateError, match="threshold"):
        OpoParams(chi=0.6, kappa=1.0)
    with pytest.raises(ValueError, match="n_th"):
        OpoParams(chi=0.1, n_th=-0.5)
    with pytest.raises(ValueError, match="nu_0"):
        OpoParams(chi=0.1, nu_0=0.5)
    p = OpoParams.from_tilde(0.8, nu_in=3.0, kappa=2.0)
    assert p.chi_tilde == pytest.approx(0.8)
    assert p.chi == pytest.approx(0.8)  # 2 chi / kappa = 0.8 with kappa = 2
    assert p.nu_in == pytest.approx(3.0)
    assert p.n_th == pytest.approx(1.0)


@pytest.mark.parametrize("field", ["chi", "kappa", "n_th", "nu_0"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_params_reject_non_finite(field, bad):
    """Every OPO rate must be finite; NaN slipped past each range check."""
    kwargs = {"chi": 0.1, "kappa": 1.0, "n_th": 0.5, "nu_0": 1.0, field: bad}
    with pytest.raises(ValueError, match="must be finite"):
        OpoParams(**kwargs)


def test_strategy_settings():
    """Strategy names map to the intended general-dyne settings."""
    assert gd.strategy_setting("hom0") == gd.homodyne(0.0)
    assert gd.strategy_setting("hom90") == gd.homodyne(np.pi / 2)
    assert gd.strategy_setting("het") == gd.heterodyne()
    s = gd.strategy_setting("gendyne", z_m=0.3, theta_m=0.2)
    assert s.z_m == pytest.approx(0.3) and not s.homodyne
    assert gd.strategy_setting("gendyne", z_m=0.0, theta_m=0.2).homodyne
    with pytest.raises(ValueError, match="z_m"):
        gd.strategy_setting("gendyne")
    with pytest.raises(ValueError, match="unknown strategy"):
        gd.strategy_setting("dyne")


def test_unconditional_steady_state():
    """sigma_unc^ss = nu_in diag(1/(1+chi_t), 1/(1-chi_t)) and its ergotropy."""
    for chi_t in (0.3, 0.8):
        for nu_in in (1.0, 2.5):
            p = OpoParams.from_tilde(chi_t, nu_in=nu_in)
            ss = gd.opo_unconditional_ss(p)
            ref = nu_in * np.diag([1.0 / (1.0 + chi_t), 1.0 / (1.0 - chi_t)])
            assert np.allclose(ss.cm, ref, atol=1e-12)
            target = 0.5 * nu_in * (1.0 / (1.0 - chi_t**2) - 1.0 / np.sqrt(1.0 - chi_t**2))
            assert gd.opo_unconditional_ergotropy(p) == pytest.approx(target, abs=1e-12)
            assert gd.ergotropy(ss) == pytest.approx(target, abs=1e-12)


def test_analytic_branches_satisfy_riccati():
    """Closed-form homodyne and heterodyne steady states have zero Riccati residual."""
    for chi_t in (0.2, 0.5, 0.8, 0.95):
        for nu_in in (1.0, 2.0, 4.0):
            p = OpoParams.from_tilde(chi_t, nu_in=nu_in)
            for name in ("hom0", "hom90", "het"):
                setting = gd.strategy_setting(name)
                sigma = gd.opo_conditional_ss(p, setting)
                mm = gd.monitored(gd.opo_model(p), setting)
                assert gd.riccati_residual(mm, sigma) < 1e-10, (chi_t, nu_in, name)


def test_homodyne_determinant_theta_independent():
    """det sigma_c^ss = nu_in^2 for homodyne at any phase."""
    rng = np.random.default_rng(97)
    for _ in range(10):
        chi_t = rng.uniform(0.1, 0.9)
        nu_in = 1.0 + rng.exponential(1.0)
        p = OpoParams.from_tilde(chi_t, nu_in=nu_in)
        theta = rng.uniform(0, np.pi)
        sigma = gd.opo_conditional_ss(p, gd.homodyne(theta))
        assert np.linalg.det(sigma) == pytest.approx(nu_in**2, rel=1e-8)


def test_homodyne_scaling_in_nu_in():
    """sigma_c^ss scales linearly in nu_in for homodyne monitoring."""
    for theta in (0.0, 0.7, np.pi / 2):
        base = gd.opo_conditional_ss(OpoParams.from_tilde(0.7, nu_in=1.0), gd.homodyne(theta))
        for nu_in in (2.0, 3.0, 5.0):
            sigma = gd.opo_conditional_ss(OpoParams.from_tilde(0.7, nu_in=nu_in), gd.homodyne(theta))
            assert np.allclose(sigma, nu_in * base, atol=1e-7)


def test_heterodyne_beats_homodyne_at_finite_temperature():
    """For nu_in > 1 the heterodyne steady daemonic ergotropy exceeds homodyne's."""
    for chi_t in (0.3, 0.6, 0.9):
        for nu_in in (1.5, 3.0):
            p = OpoParams.from_tilde(chi_t, nu_in=nu_in)
            e_het = gd.opo_steady_daemonic(p, gd.heterodyne())
            e_hom = gd.opo_steady_daemonic(p, gd.homodyne(0.0))
            assert e_het > e_hom


def test_zopt_closed_form():
    """Numeric golden-section optimum matches (1 - chi_t)/(1 + chi_t) at nu_in > 1."""
    for chi_t in (0.3, 0.7):
        p = OpoParams.from_tilde(chi_t, nu_in=2.0)
        assert opo_zopt_numeric(p) == pytest.approx(gd.opo_zopt(p), abs=1e-5)


def test_zero_temperature_landscape_is_flat():
    """At nu_in = 1 every efficient strategy reaches det sigma_c^ss = 1."""
    p = OpoParams.from_tilde(0.6, nu_in=1.0)
    dets = []
    for z in (1e-4, 0.02, 0.3, 1.0):
        sigma = gd.opo_conditional_ss(p, GeneralDyneSetting(theta_m=0.0, z_m=z))
        dets.append(np.linalg.det(sigma))
    assert np.allclose(dets, 1.0, atol=1e-9)


def test_zsweep_table_shape():
    """The z sweep brackets its maximum at z_opt and carries the references."""
    p = OpoParams.from_tilde(0.9, nu_in=2.0)
    data = gd.zsweep_table(p, z_grid=np.logspace(-5, 0, 40))
    assert data.table.shape == (40, 2)
    assert np.all(np.diff(data.table[:, 0]) > 0)
    assert data.z_opt == pytest.approx(gd.opo_zopt(p))
    assert data.z_opt_value >= data.table[:, 1].max() - 1e-9
    assert data.het_value == pytest.approx(gd.opo_steady_daemonic(p, gd.heterodyne()), abs=1e-9)


def test_transient_table_consistency():
    """Transient curves start at zero and reach their steady values."""
    p = OpoParams.from_tilde(0.8, nu_in=1.0, nu_0=5.0)
    tab = gd.transient_table(p, t_max=0.5, dt=1e-3)
    assert tab.times.size == 501
    assert tab.hom0[0] == tab.hom90[0] == tab.het[0] == 0.0
    assert np.all(np.diff(tab.hom90) > -1e-9)  # monotone rise at these parameters
    with pytest.raises(ValueError, match="integer multiple"):
        gd.transient_table(p, t_max=0.5, dt=0.3)


def test_transient_table_matches_daemonic_paths():
    """Sharing one unconditional path leaves each curve equal to its own daemonic_ergotropy_path.

    The table expands each conditional flow about the closed-form steady
    state, so the path is given the same one.
    """
    for nu_in in (1.0, 3.0):
        p = OpoParams.from_tilde(0.8, nu_in=nu_in, nu_0=5.0)
        tab = gd.transient_table(p, t_max=2.0, dt=1e-2)
        state0 = gd.thermal(5.0)
        for name in ("hom0", "hom90", "het"):
            setting = gd.strategy_setting(name)
            mm = gd.monitored(gd.opo_model(p), setting)
            path = gd.daemonic_ergotropy_path(mm, state0, tab.times, sigma_inf=gd.opo_conditional_ss(p, setting))
            assert np.array_equal(getattr(tab, name), path), name


def test_transient_table_matches_care_expansion():
    """The closed-form steady states and the CARE solver give the same curves up to round-off.

    The CARE solution is about 1e-12 off the closed form (at hom90, nu_in = 3),
    and the flow carries that gap into the curve.
    """
    for nu_in in (1.0, 3.0):
        p = OpoParams.from_tilde(0.8, nu_in=nu_in, nu_0=5.0)
        tab = gd.transient_table(p, t_max=2.0, dt=1e-2)
        for name in ("hom0", "hom90", "het"):
            mm = gd.monitored(gd.opo_model(p), gd.strategy_setting(name))
            path = gd.daemonic_ergotropy_path(mm, gd.thermal(5.0), tab.times)
            assert np.abs(getattr(tab, name) - path).max() <= 1e-12 * np.abs(path).max(), name


def _riccati_solver_ss(p, setting):
    return gd.steady_state_conditional(gd.monitored(gd.opo_model(p), setting))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    chi_t=st_.floats(0.0, 0.995, exclude_max=True),
    nu_in=st_.floats(1.0, 10.0),
    log_z=st_.floats(math.log(1e-12), 0.0),
    nu_m=st_.floats(1.0, 5.0),
    quarter=st_.integers(0, 1),
    sharp=st_.booleans(),
)
@example(chi_t=0.0, nu_in=1.0, log_z=0.0, nu_m=1.0, quarter=1, sharp=True)
def test_closed_form_matches_riccati_solver(chi_t, nu_in, log_z, nu_m, quarter, sharp):
    """At phase 0 and pi/2 the per-quadrature root is the Riccati solver's steady state, for every setting."""
    p = OpoParams.from_tilde(chi_t, nu_in=nu_in)
    theta = 0.5 * math.pi * quarter
    setting = GeneralDyneSetting(nu_m=nu_m, theta_m=theta, z_m=min(math.exp(log_z), 1.0), homodyne=sharp)
    closed = gd.opo_conditional_ss(p, setting)
    reference = _riccati_solver_ss(p, setting)
    assert closed[0, 1] == closed[1, 0] == 0.0
    assert np.abs(closed - reference).max() <= 1e-10 * np.abs(reference).max()
    assert gd.riccati_residual(gd.monitored(gd.opo_model(p), setting), closed) <= 1e-10


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(chi_t=st_.floats(0.01, 0.995, exclude_max=True), nu_in=st_.floats(1.01, 10.0))
def test_zopt_is_stationary(chi_t, nu_in):
    """The closed-form value at opo_zopt is at least its value nearby and on a log z grid.

    Needs nu_in > 1 and chi~ > 0: otherwise the landscape is flat.
    """
    p = OpoParams.from_tilde(chi_t, nu_in=nu_in)
    z_opt = gd.opo_zopt(p)

    def value(z):
        return gd.opo_steady_daemonic(p, GeneralDyneSetting(theta_m=0.0, z_m=float(z)))

    top = value(z_opt)
    nearby = [z for z in (z_opt * (1.0 - 1e-4), z_opt * (1.0 + 1e-4)) if z <= 1.0]
    assert all(top >= value(z) for z in nearby + list(np.logspace(-12, 0, 60)))


def test_diagonal_phase_detected_modulo_pi():
    """Phases within _THETA_TOL below pi reach the closed form of phase 0 (settings store theta mod pi)."""
    p = OpoParams.from_tilde(0.7, nu_in=2.5)
    assert gd.homodyne(-1e-15).theta_m > 3.0
    assert np.array_equal(gd.opo_conditional_ss(p, gd.homodyne(-1e-15)), gd.opo_conditional_ss(p, gd.homodyne(0.0)))
    for theta in (0.0, 0.5 * math.pi):
        below, at = (GeneralDyneSetting(nu_m=1.5, theta_m=t, z_m=0.3) for t in (theta - 1e-15, theta))
        assert np.array_equal(gd.opo_conditional_ss(p, below), gd.opo_conditional_ss(p, at))
    # At z_m = 1 the pointer is isotropic, so every phase is diagonal.
    isotropic = gd.opo_conditional_ss(p, GeneralDyneSetting(nu_m=2.0, theta_m=0.0, z_m=1.0))
    for theta in (0.4, 2.0):
        setting = GeneralDyneSetting(nu_m=2.0, theta_m=theta, z_m=1.0)
        assert np.array_equal(gd.opo_conditional_ss(p, setting), isotropic)
        assert np.abs(_riccati_solver_ss(p, setting) - isotropic).max() <= 1e-12


def test_zsweep_guard_compares_with_riccati_solver(monkeypatch):
    """zsweep_table checks the conditional determinants behind its z_opt and heterodyne values against the CARE."""
    calls = []

    def perturbed(params, setting):
        calls.append(setting)
        return _riccati_solver_ss(params, setting) * (1.0 + 1e-6)

    p = OpoParams.from_tilde(0.9, nu_in=2.0)
    monkeypatch.setattr(gd.opo, "_riccati_ss", perturbed)
    message = r"at GeneralDyneSetting\(.*z_m=.*\): closed form .* and independent route .* disagree"
    with pytest.raises(NumericError, match=message):
        gd.zsweep_table(p, z_grid=np.logspace(-3, 0, 5))
    assert calls == [GeneralDyneSetting(theta_m=0.0, z_m=gd.opo_zopt(p))]


@pytest.mark.parametrize("nu_in", [1.0, 3.0])
def test_transients_match_scalar_riccati(nu_in):
    """hom0, hom90 and het from evolve_conditional_cm equal the scalar closed form on the criterion-7 grid."""
    p = OpoParams.from_tilde(0.8, nu_in=nu_in, nu_0=5.0)
    times = np.linspace(0.0, 10.0, 10001)
    for name in ("hom0", "hom90", "het"):
        mm = gd.monitored(gd.opo_model(p), gd.strategy_setting(name))
        flow = gd.evolve_conditional_cm(mm, 5.0 * np.eye(2), times)
        s_inf = np.diag(gd.steady_state_conditional(mm))
        for i, gains in enumerate(opo_quadrature_gains(0.8, nu_in, name)):
            exact = scalar_riccati_transient(*gains, 5.0, s_inf[i], times)
            assert np.abs(flow[:, i, i] - exact).max() <= 1e-11 * np.abs(exact).max(), (name, i)
        assert np.abs(flow[:, 0, 1]).max() <= 1e-11 * np.abs(flow).max(), name


@pytest.mark.parametrize("t_max, dt", [(np.inf, 1e-3), (1.0, 0.0), (1.0, np.nan), (np.nan, 0.1)])
def test_transient_table_rejects_degenerate_grids(t_max, dt):
    """A zero step or a non-finite span is a ValueError, not an arithmetic crash."""
    with pytest.raises(ValueError, match="finite and positive"):
        gd.transient_table(OpoParams.from_tilde(0.5), t_max=t_max, dt=dt)
