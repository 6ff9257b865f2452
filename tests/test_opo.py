"""Unit tests for the monitored optical parametric oscillator."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.linalg import expm, solve_continuous_lyapunov
from hypothesis import strategies as st_

import gaussdaemon as gd
from gaussdaemon import GeneralDyneSetting, NoSteadyStateError, NumericError, OpoParams
from gaussdaemon.cli import main
from scalar_riccati import opo_filter_diagonals, opo_quadrature_gains, scalar_riccati_transient
from zopt_search import opo_zopt_numeric


def test_params_validation():
    """Parameter domain: 0 <= chi~ < 1 (below threshold), nu_in >= 1, nu_0 >= 1; the fields are exactly these three."""
    with pytest.raises(ValueError, match="chi_tilde"):
        OpoParams(-0.1)
    for ct in (1.0, 1.2):
        with pytest.raises(NoSteadyStateError, match="threshold"):
            OpoParams(ct)
    with pytest.raises(ValueError, match="nu_in"):
        OpoParams(0.1, nu_in=0.5)
    with pytest.raises(ValueError, match="nu_0"):
        OpoParams(0.1, nu_0=0.5)
    p = OpoParams(0.8, nu_in=3.0, nu_0=2.0)
    assert [f.name for f in dataclasses.fields(p)] == ["chi_tilde", "nu_in", "nu_0"]
    assert (p.chi_tilde, p.nu_in, p.nu_0) == (0.8, 3.0, 2.0)
    assert OpoParams(0.0) == OpoParams(0.0, nu_in=1.0, nu_0=1.0)


@pytest.mark.parametrize("field", ["chi_tilde", "nu_in", "nu_0", "chi", "kappa", "n_th"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_params_reject_non_finite(field, bad):
    """Every OPO parameter must be finite (NaN slips past a range check); the rates chi, kappa, n_th are no keywords."""
    kwargs = {"chi_tilde": 0.1, "nu_in": 2.0, "nu_0": 1.0, field: bad}
    if field in ("chi", "kappa", "n_th"):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
            OpoParams(**kwargs)
    else:
        with pytest.raises(ValueError, match="must be finite"):
            OpoParams(**kwargs)


@pytest.mark.parametrize("ct, nu_in, nu_0", [(0.6, 3.0, 1.0), (0.99, 1.0, 5.0), (1.0 - 1e-7, 1e8, 1.0)])
def test_from_tilde_is_the_constructor(ct, nu_in, nu_0):
    """from_tilde(ct, nu_in=...) and from_tilde(ct, nu_in=..., nu_0=...) build the same parameters as OpoParams."""
    assert OpoParams.from_tilde(ct, nu_in=nu_in) == OpoParams(ct, nu_in=nu_in)
    assert OpoParams.from_tilde(ct, nu_in=nu_in, nu_0=nu_0) == OpoParams(ct, nu_in=nu_in, nu_0=nu_0)
    assert OpoParams.from_tilde(ct) == OpoParams(ct)


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
            p = OpoParams(chi_t, nu_in=nu_in)
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
            p = OpoParams(chi_t, nu_in=nu_in)
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
        p = OpoParams(chi_t, nu_in=nu_in)
        theta = rng.uniform(0, np.pi)
        sigma = gd.opo_conditional_ss(p, gd.homodyne(theta))
        assert np.linalg.det(sigma) == pytest.approx(nu_in**2, rel=1e-8)


def test_homodyne_scaling_in_nu_in():
    """sigma_c^ss scales linearly in nu_in for homodyne monitoring."""
    for theta in (0.0, 0.7, np.pi / 2):
        base = gd.opo_conditional_ss(OpoParams(0.7, nu_in=1.0), gd.homodyne(theta))
        for nu_in in (2.0, 3.0, 5.0):
            sigma = gd.opo_conditional_ss(OpoParams(0.7, nu_in=nu_in), gd.homodyne(theta))
            assert np.allclose(sigma, nu_in * base, atol=1e-7)


def test_heterodyne_beats_homodyne_at_finite_temperature():
    """For nu_in > 1 the heterodyne steady daemonic ergotropy exceeds homodyne's."""
    for chi_t in (0.3, 0.6, 0.9):
        for nu_in in (1.5, 3.0):
            p = OpoParams(chi_t, nu_in=nu_in)
            e_het = gd.opo_steady_daemonic(p, gd.heterodyne())
            e_hom = gd.opo_steady_daemonic(p, gd.homodyne(0.0))
            assert e_het > e_hom


def test_zopt_closed_form():
    """Numeric golden-section optimum matches (1 - chi_t)/(1 + chi_t) at nu_in > 1."""
    for chi_t in (0.3, 0.7):
        p = OpoParams(chi_t, nu_in=2.0)
        assert opo_zopt_numeric(p) == pytest.approx(gd.opo_zopt(p), abs=1e-5)


def test_zero_temperature_landscape_is_flat():
    """At nu_in = 1 every efficient strategy reaches det sigma_c^ss = 1."""
    p = OpoParams(0.6, nu_in=1.0)
    dets = []
    for z in (1e-4, 0.02, 0.3, 1.0):
        sigma = gd.opo_conditional_ss(p, GeneralDyneSetting(theta_m=0.0, z_m=z))
        dets.append(np.linalg.det(sigma))
    assert np.allclose(dets, 1.0, atol=1e-9)


def test_zsweep_table_shape():
    """The z sweep brackets its maximum at z_opt and carries the references."""
    p = OpoParams(0.9, nu_in=2.0)
    data = gd.zsweep_table(p, z_grid=np.logspace(-5, 0, 40))
    assert data.table.shape == (40, 2)
    assert np.all(np.diff(data.table[:, 0]) > 0)
    assert data.z_opt == pytest.approx(gd.opo_zopt(p))
    assert data.z_opt_value >= data.table[:, 1].max() - 1e-9
    assert data.het_value == pytest.approx(gd.opo_steady_daemonic(p, gd.heterodyne()), abs=1e-9)


def test_transient_table_consistency():
    """Transient curves start at zero and reach their steady values."""
    p = OpoParams(0.8, nu_in=1.0, nu_0=5.0)
    tab = gd.transient_table(p, t_max=0.5, dt=1e-3)
    assert tab.times.size == 501
    assert tab.hom0[0] == tab.hom90[0] == tab.het[0] == 0.0
    assert np.all(np.diff(tab.hom90) > -1e-9)  # monotone rise at these parameters
    with pytest.raises(ValueError, match="integer multiple"):
        gd.transient_table(p, t_max=0.5, dt=0.3)


def test_transient_table_matches_daemonic_paths():
    """Sharing one unconditional path and one pass leaves each curve equal to its own daemonic_ergotropy_path.

    The 30001-point grid spans several blocks of the three-filter pass and
    of each one-filter path, with their boundaries at different points.
    """
    for (t_max, dt), nu_in in itertools.product([(2.0, 1e-2), (30.0, 1e-3)], (1.0, 3.0)):
        p = OpoParams(0.8, nu_in=nu_in, nu_0=5.0)
        tab = gd.transient_table(p, t_max=t_max, dt=dt)
        state0 = gd.thermal(5.0)
        for name in ("hom0", "hom90", "het"):
            setting = gd.strategy_setting(name)
            mm = gd.monitored(gd.opo_model(p), setting)
            path = gd.daemonic_ergotropy_path(mm, state0, tab.times)
            assert np.array_equal(getattr(tab, name), path), (name, t_max, nu_in)


def test_transient_table_matches_care_expansion():
    """The curves equal the flows expanded about the Riccati solver's steady state, to 1e-12 relative.

    With s_inf from steady_state_conditional, F = At - s_inf B B^T (Hurwitz),
    W_inf solving F^T W + W F + B B^T = 0 and Delta0 = sigma0 - s_inf, the
    conditional CM is s_inf + e^{Ft} (I + Delta0 W(t))^-1 Delta0 e^{F^T t} with
    W(t) = W_inf - e^{F^T t} W_inf e^{Ft}: scipy's expm and Lyapunov solve,
    independent of the per-coordinate closed form the table takes.
    """
    for nu_in in (1.0, 3.0):
        p = OpoParams(0.8, nu_in=nu_in, nu_0=5.0)
        tab = gd.transient_table(p, t_max=2.0, dt=1e-2)
        means, cms = gd.unconditional_path(gd.opo_model(p).dd, gd.thermal(5.0), tab.times)
        energy = 0.25 * np.trace(cms, axis1=1, axis2=2)
        for name in ("hom0", "hom90", "het"):
            mm = gd.monitored(gd.opo_model(p), gd.strategy_setting(name))
            s_inf = gd.steady_state_conditional(mm)
            f = mm.at - s_inf @ mm.bbt
            w_inf = solve_continuous_lyapunov(f.T, -mm.bbt)
            delta0 = 5.0 * np.eye(2) - s_inf
            exps = np.array([expm(f * t) for t in tab.times])
            w = w_inf - np.swapaxes(exps, 1, 2) @ w_inf @ exps
            core = np.linalg.solve(np.eye(2) + delta0 @ w, np.broadcast_to(delta0, w.shape))
            sigma = s_inf + exps @ core @ np.swapaxes(exps, 1, 2)
            curve = energy - 0.5 * gd.symplectic_eigenvalues(0.5 * (sigma + np.swapaxes(sigma, 1, 2)))[:, 0]
            assert np.abs(getattr(tab, name) - curve).max() <= 1e-12 * np.abs(curve).max(), (nu_in, name)


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
    p = OpoParams(chi_t, nu_in=nu_in)
    theta = 0.5 * math.pi * quarter
    setting = GeneralDyneSetting(nu_m=nu_m, theta_m=theta, z_m=0.0 if sharp else min(math.exp(log_z), 1.0))
    closed = gd.opo_conditional_ss(p, setting)
    reference = _riccati_solver_ss(p, setting)
    assert closed[0, 1] == closed[1, 0] == 0.0
    assert np.abs(closed - reference).max() <= 1e-10 * np.abs(reference).max()
    assert gd.riccati_residual(gd.monitored(gd.opo_model(p), setting), closed) <= 1e-10


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    chi_t=st_.floats(0.0, 0.995, exclude_max=True),
    log_nu=st_.floats(0.0, math.log(1e8)),
    log_z=st_.floats(math.log(1e-12), 0.0),
    nu_m=st_.floats(1.0, 5.0),
    phase=st_.sampled_from([0.0, 0.5 * math.pi, "any"]),
    theta=st_.floats(0.0, math.pi),
    sharp=st_.booleans(),
)
@example(chi_t=0.5, log_nu=0.0, log_z=0.0, nu_m=1.0, phase="any", theta=0.4, sharp=False)
def test_filter_data_match_pointer_variance_reference(chi_t, log_nu, log_z, nu_m, phase, theta, sharp):
    """The diagonals of At, Dt and B B^T are the per-quadrature pointer-variance formulas of tests/scalar_riccati.py.

    Phase 0 and pi/2 with any setting, exact homodyne included, and z_m = 1 at
    any phase; within 1e-14 of each matrix's largest entry.  The diagonal of At
    sums A and terms of order 1 that cancel, so it is held to 1e-14 of the larger of |A| and |At|.
    """
    p = OpoParams(chi_t, nu_in=math.exp(log_nu))
    if phase == "any":
        setting = GeneralDyneSetting(nu_m=nu_m, theta_m=theta)
    else:
        setting = GeneralDyneSetting(nu_m=nu_m, theta_m=phase, z_m=0.0 if sharp else min(math.exp(log_z), 1.0))
    mm = gd.monitored(gd.opo_model(p), setting)
    reference = np.array(opo_filter_diagonals(p.chi_tilde, p.nu_in, setting)).T
    scales = (max(np.abs(mm.dd.a).max(), np.abs(reference[0]).max()), *np.abs(reference[1:]).max(axis=1))
    for name, got, want, scale in zip(("At", "Dt", "B B^T"), (mm.at, mm.dtilde, mm.bbt), reference, scales):
        assert np.abs(np.diag(got) - want).max() <= 1e-14 * scale, (name, np.diag(got), want)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(log_gap=st_.floats(-10.0, -1.0), log_nu=st_.floats(0.0, 15.0))
@example(log_gap=math.log10(1.0 - 0.9999814993294961), log_nu=4.0)
def test_zsweep_near_threshold_never_raises(log_gap, log_nu):
    """The sweep's guards hold up to 1e-10 from threshold and nu_in up to 1e15 (chi~ = 1 - 10^log_gap)."""
    p = OpoParams(1.0 - 10.0**log_gap, nu_in=10.0**log_nu)
    data = gd.zsweep_table(p, z_grid=np.logspace(-6, 0, 7))
    assert np.isfinite(data.table).all() and np.isfinite(data.z_opt_value) and np.isfinite(data.het_value)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(chi_t=st_.floats(0.01, 0.995, exclude_max=True), nu_in=st_.floats(1.01, 10.0))
def test_zopt_is_stationary(chi_t, nu_in):
    """The closed-form value at opo_zopt is at least its value nearby and on a log z grid.

    Needs nu_in > 1 and chi~ > 0: otherwise the landscape is flat.
    """
    p = OpoParams(chi_t, nu_in=nu_in)
    z_opt = gd.opo_zopt(p)

    def value(z):
        return gd.opo_steady_daemonic(p, GeneralDyneSetting(theta_m=0.0, z_m=float(z)))

    top = value(z_opt)
    nearby = [z for z in (z_opt * (1.0 - 1e-4), z_opt * (1.0 + 1e-4)) if z <= 1.0]
    assert all(top >= value(z) for z in nearby + list(np.logspace(-12, 0, 60)))


def test_diagonal_phase_detected_modulo_pi():
    """Phases 1e-15 below pi reach the closed form of phase 0 (settings store theta mod pi)."""
    p = OpoParams(0.7, nu_in=2.5)
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
    """zsweep_table checks the determinants behind its z_opt and heterodyne values against the Riccati solver."""
    calls = []

    def perturbed(mm):
        calls.append(mm.settings[0])
        return gd.steady_state_conditional(mm) * (1.0 + 1e-6)

    p = OpoParams(0.9, nu_in=2.0)
    monkeypatch.setattr(gd.opo, "steady_state_conditional", perturbed)
    message = r"at GeneralDyneSetting\(.*z_m=.*\): closed form .* and independent route .* disagree"
    with pytest.raises(NumericError, match=message):
        gd.zsweep_table(p, z_grid=np.logspace(-3, 0, 5))
    assert calls == [GeneralDyneSetting(theta_m=0.0, z_m=gd.opo_zopt(p))]


@pytest.mark.parametrize("nu_in", [1.0, 3.0])
def test_transients_match_scalar_riccati(nu_in):
    """hom0, hom90 and het from evolve_conditional_cm equal the scalar closed form on the criterion-7 grid."""
    p = OpoParams(0.8, nu_in=nu_in, nu_0=5.0)
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
        gd.transient_table(OpoParams(0.5), t_max=t_max, dt=dt)


@pytest.mark.parametrize("z", [0.0, -0.5, 1.0 + 1e-12, math.nan])
def test_zsweep_table_rejects_z_outside_the_unit_interval(z):
    """A sweep point z_m outside (0, 1] (the homodyne endpoint 0 included) or NaN is a ValueError naming the sweep grid."""
    with pytest.raises(ValueError, match=r"entries in \(0, 1\]"):
        gd.zsweep_table(OpoParams(0.5), z_grid=[0.5, z])


def test_opo_params_range_check():
    """nu_in / (1 - chi~) and nu_0 may reach the largest covariance entry the two-mode code admits (about 1.2e77)."""
    bound = math.exp(gd.bipartite._LOG_MAX_CM_ENTRY)
    OpoParams(0.5, nu_in=0.999 * 0.5 * bound)
    OpoParams(0.0, nu_in=0.999 * bound, nu_0=0.999 * bound)
    for kwargs in ({"nu_in": 1.001 * 0.5 * bound}, {"nu_in": 1e300}, {"nu_in": 3.0, "nu_0": 1.001 * bound}):
        with pytest.raises(ValueError, match="is out of range"):
            OpoParams(0.5, **kwargs)


@pytest.mark.parametrize("gap, solves", [(1e-12, False), (3e-12, True)])
def test_one_verdict_just_below_threshold(gap, solves, tmp_path, capsys):
    """At chi~ = 1 - gap the slow rate (1 - chi~) / 2 is 5e-13 or 1.5e-12, against TOL_HURWITZ = 1e-12.

    Every steady-state route gives the same verdict: the per-quadrature roots
    (hom0, hom90, het) and the Riccati solver (a generic phase) all raise
    NoSteadyStateError below the margin and all solve above it, and opo-ss and
    opo-zsweep exit 2 or 0 alike.  The transient table needs no steady state
    and is computed either way.
    """
    p, chi_tilde = OpoParams(1.0 - gap, nu_in=3.0), repr(1.0 - gap)
    strategies = {name: gd.strategy_setting(name) for name in ("hom0", "hom90", "het")}
    strategies["gendyne"] = gd.strategy_setting("gendyne", z_m=0.3, theta_m=0.7)
    for name, setting in strategies.items():
        if solves:
            assert np.isfinite(gd.opo_conditional_ss(p, setting)).all()
        else:
            with pytest.raises(NoSteadyStateError, match="drift matrix is not Hurwitz"):
                gd.opo_conditional_ss(p, setting)
        args = ["opo-ss", "--chi-tilde", chi_tilde, "--nu-in", "3", "--strategy", name]
        assert main(args + (["--z-m", "0.3", "--theta-m", "0.7"] if name == "gendyne" else [])) == (0 if solves else 2)
    sweep = ["opo-zsweep", "--chi-tilde", chi_tilde, "--nu-in", "3", "--out", str(tmp_path / "z.csv")]
    assert main(sweep) == (0 if solves else 2)
    if not solves:
        assert capsys.readouterr().err.count("drift matrix is not Hurwitz") == len(strategies) + 1
    args = ["opo-transient", "--chi-tilde", chi_tilde, "--nu-in", "3", "--T", "1", "--dt", "0.1"]
    assert main(args + ["--out", str(tmp_path / "t.csv")]) == 0


@pytest.mark.parametrize("chi_tilde, nu_in", [(0.0, 1.0), (0.6, 3.0), (0.99, 3.0), (1.0 - 1e-6, 1e4)])
def test_filters_of_one_model_give_the_bits_of_fresh_models(chi_tilde, nu_in):
    """Steady states of filters of one OPO model are the bits of those opo_conditional_ss builds a model for.

    zsweep_table solves every setting on one model, whose drift keeps its
    Hurwitz verdict after the first solve; opo_conditional_ss builds a model
    per call.
    """
    model = gd.opo_model(OpoParams(chi_tilde, nu_in=nu_in))
    settings = [gd.strategy_setting(name) for name in ("hom0", "hom90", "het")]
    settings += [GeneralDyneSetting(theta_m=0.7, z_m=0.3), GeneralDyneSetting(nu_m=2.0, theta_m=1.3, z_m=1e-3)]
    for _ in range(2):
        for setting in settings:
            shared = gd.dynamics._conditional_steady_state(gd.monitored(model, setting))
            assert shared.tobytes() == gd.opo_conditional_ss(OpoParams(chi_tilde, nu_in=nu_in), setting).tobytes()
    assert "_verdict" in model.dd.__dict__


def test_decoupled_roots_refuse_a_drift_that_is_not_hurwitz():
    """Above threshold (chi~ = 1.2, built as a model) the per-coordinate roots refuse, as the Riccati solve does.

    Under hom0 the unstable quadrature is unobserved (b = 0 with a > 0), where
    the root's formula divides by zero; under hom90 and heterodyne it would
    return roots of a filter with no steady state.
    """
    model = gd.DiffusiveModel([[0.0, -0.6], [-0.6, 0.0]], gd.symplectic_form(1), 3.0 * np.eye(2), np.zeros(2))
    for name in ("hom0", "hom90", "het"):
        mm = gd.monitored(model, gd.strategy_setting(name))
        for solve in (gd.dynamics._decoupled_roots, gd.dynamics._conditional_steady_state, gd.steady_state_conditional):
            with pytest.raises(NoSteadyStateError, match="drift matrix is not Hurwitz"):
                solve(mm)
