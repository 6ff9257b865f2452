"""Unit tests for the monitored optical parametric oscillator."""

import numpy as np
import pytest

import gaussdaemon as gd
from gaussdaemon import GeneralDyneSetting, NoSteadyStateError, OpoParams
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
