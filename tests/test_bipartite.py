"""Unit tests for two-mode standard forms and daemonic ergotropy closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from scipy.linalg import block_diag

import gaussdaemon as gd
from gaussdaemon import GeneralDyneSetting, UnphysicalStateError
from gaussdaemon.bipartite import _optimal_det_coefficients

N_RANDOM = 100


def test_standard_form_reconstruction():
    """(s_a + s_b) sigma (s_a + s_b)^T equals the standard-form blocks."""
    rng = np.random.default_rng(101)
    for _ in range(N_RANDOM):
        st = gd.random_two_mode_state(rng)
        sf, s_a, s_b = gd.standard_form(st)
        S = block_diag(s_a, s_b)
        gd.check_symplectic(S)
        # s_a is a pure rotation: orthogonal with det +1
        assert np.allclose(s_a @ s_a.T, np.eye(2), atol=1e-12)
        assert np.linalg.det(s_a) == pytest.approx(1.0)
        assert np.allclose(S @ st.cm @ S.T, sf.to_state().cm, atol=1e-9)


def test_standard_form_canonical_ranges():
    """Standard-form parameters respect their canonical ordering."""
    rng = np.random.default_rng(103)
    for _ in range(N_RANDOM):
        sf = gd.random_standard_form(rng)
        assert sf.a >= 1.0 - 1e-9 and sf.b >= 1.0 - 1e-9
        assert sf.z_a >= 1.0 - 1e-12
        assert sf.c_plus >= abs(sf.c_minus) - 1e-9


def test_standard_form_validation():
    """Unphysical parameter combinations are rejected at construction."""
    with pytest.raises(UnphysicalStateError, match="a, b >= 1"):
        gd.TwoModeStandardForm(a=0.8, z_a=1.0, b=1.0, c_plus=0.0, c_minus=0.0, eta=0.0)
    with pytest.raises(UnphysicalStateError, match="ordering"):
        gd.TwoModeStandardForm(a=2.0, z_a=1.0, b=2.0, c_plus=0.5, c_minus=0.9, eta=0.0)
    # correlations too strong for the local mixedness
    with pytest.raises(UnphysicalStateError, match="unphysical"):
        gd.TwoModeStandardForm(a=1.2, z_a=1.0, b=1.2, c_plus=1.19, c_minus=-1.19, eta=0.0)
    with pytest.raises(ValueError, match="two-mode"):
        gd.standard_form(gd.vacuum(1))


def test_standard_form_cm_is_read_only():
    """The form's CM is built once; writing through to_state() raises and leaves it intact."""
    sf = gd.TwoModeStandardForm(a=2.0, z_a=1.5, b=3.0, c_plus=1.0, c_minus=-0.5, eta=0.4)
    before = sf.cm.copy()
    with pytest.raises(ValueError, match="read-only"):
        sf.to_state().cm[0, 0] = 100.0
    assert np.array_equal(sf.cm, before)
    assert np.array_equal(sf.to_state().cm, before)
    r = gd.rotation(0.4) @ np.diag([1.0, -0.5])
    expected = np.block([[2.0 * np.diag([1.5, 1.0 / 1.5]), r], [r.T, 3.0 * np.eye(2)]])
    assert np.array_equal(before, expected)


def test_conditional_determinant_matches_pipeline():
    """Closed-form det sigma_A^c equals the conditioning pipeline everywhere."""
    rng = np.random.default_rng(107)
    for _ in range(N_RANDOM):
        sf = gd.random_standard_form(rng)
        st = sf.to_state()
        theta = rng.uniform(0, np.pi)
        z = float(np.exp(rng.uniform(np.log(1e-4), 0.0)))
        for setting, z_arg in (
            (GeneralDyneSetting(theta_m=theta, z_m=z), z),
            (gd.homodyne(theta), 0.0),
            (gd.heterodyne(), 1.0),
        ):
            cond = gd.condition(st, gd.Partition((0,), (1,)), setting, np.zeros(2))
            det_pipe = np.linalg.det(cond.cm)
            det_closed = gd.conditional_determinant(sf, setting.theta_m, z_arg)
            assert det_closed == pytest.approx(det_pipe, abs=1e-9), (sf, setting)
    with pytest.raises(ValueError, match=r"z_m must lie in \[0, 1\]"):
        gd.conditional_determinant(sf, 0.0, 1.5)


def test_optimal_phase_against_grid():
    """The closed-form phase beats a dense grid of the determinant."""
    rng = np.random.default_rng(109)
    thetas = np.linspace(0, np.pi, 720, endpoint=False)
    for _ in range(50):
        sf = gd.random_standard_form(rng)
        z = float(np.exp(rng.uniform(np.log(1e-3), 0.0)))
        phase = gd.optimal_phase(sf, z)
        det_star = gd.conditional_determinant(sf, phase.angle, z)
        grid_min = min(gd.conditional_determinant(sf, t, z) for t in thetas)
        assert det_star <= grid_min + 1e-10


def test_optimal_phase_z_independence():
    """The optimal phase does not depend on the general-dyne parameter z_m."""
    rng = np.random.default_rng(113)
    count = 0
    for _ in range(50):
        sf = gd.random_standard_form(rng)
        phases = [gd.optimal_phase(sf, z) for z in (0.0, 0.1, 0.5, 0.9)]
        if any(p.degenerate for p in phases):
            continue
        count += 1
        angles = [p.angle for p in phases]
        assert np.allclose(angles, angles[0], atol=1e-9), angles
    assert count > 25  # most random forms are non-degenerate


def test_degenerate_phase_cases():
    """Uncorrelated states and symmetric z_A = 1 states are phase invariant."""
    sf0 = gd.TwoModeStandardForm(a=2.0, z_a=1.3, b=1.5, c_plus=0.0, c_minus=0.0, eta=0.0)
    assert gd.optimal_phase(sf0, 0.5).degenerate
    sf_tm, _, _ = gd.standard_form(gd.tmsts(1.0, 0.5))
    assert gd.optimal_phase(sf_tm, 0.0).degenerate
    # heterodyne never depends on the phase
    sf = gd.TwoModeStandardForm(a=2.0, z_a=1.4, b=2.0, c_plus=1.0, c_minus=0.5, eta=0.2)
    assert gd.optimal_phase(sf, 1.0).degenerate
    assert not gd.optimal_phase(sf, 0.0).degenerate


def test_max_daemonic_dominates_random_settings():
    """The reported maximum beats every sampled efficient setting."""
    rng = np.random.default_rng(127)
    for _ in range(25):
        sf = gd.random_standard_form(rng)
        st = sf.to_state()
        best = gd.max_daemonic(sf)
        assert best.value >= gd.max_daemonic_homodyne(sf).value - 1e-9
        assert best.value >= gd.daemonic_heterodyne(sf).value - 1e-9
        for _ in range(20):
            setting = gd.random_setting(rng, efficient=True)
            assert best.value >= gd.daemonic_ergotropy(st, setting).value - 1e-9


def _det_star(sf, z):
    """Phase-minimized determinant a^2 - u g1 - v g2 + w g1 g2 from the reduced coefficients."""
    u, v, w = _optimal_det_coefficients(sf)
    g1, g2 = 1.0 / (sf.b + z), z / (1.0 + sf.b * z)
    return sf.a**2 - u * g1 - v * g2 + w * g1 * g2


def test_reduced_determinant_identity():
    """The reduced det*(z) equals the full closed form at the optimal phase."""
    rng = np.random.default_rng(149)
    for _ in range(N_RANDOM):
        sf = gd.random_standard_form(rng)
        theta = gd.optimal_phase(sf, 0.0).angle
        for z in (0.0, 1e-9, 0.3, 1.0):
            assert _det_star(sf, z) == pytest.approx(gd.conditional_determinant(sf, theta, z), rel=1e-12, abs=0)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st_.integers(min_value=0, max_value=2**32 - 1))
def test_max_daemonic_dominates_z_grid(seed):
    """The closed-form optimum beats every z_m on a dense grid at the optimal phase."""
    sf = gd.random_standard_form(np.random.default_rng(seed))
    theta = gd.optimal_phase(sf, 0.0).angle
    trace_term = 0.25 * sf.a * (sf.z_a + 1.0 / sf.z_a)
    zs = np.concatenate([[0.0], np.logspace(-12, 0, 400), [1.0]])
    grid = max(trace_term - 0.5 * math.sqrt(gd.conditional_determinant(sf, theta, float(z))) for z in zs)
    assert gd.max_daemonic(sf).value >= grid - 1e-12


def test_interior_optimum_is_stationary():
    """An interior z_m* is a local minimum of the determinant at the optimal phase."""
    rng = np.random.default_rng(151)
    count = 0
    for _ in range(N_RANDOM):
        sf = gd.random_standard_form(rng)
        best = gd.max_daemonic(sf).setting
        if best.homodyne or best.z_m == 1.0:
            continue
        count += 1
        det_star = gd.conditional_determinant(sf, best.theta_m, best.z_m)
        for factor in (1.0 - 1e-4, 1.0 + 1e-4):
            assert gd.conditional_determinant(sf, best.theta_m, min(best.z_m * factor, 1.0)) >= det_star - 1e-12
    assert count > 25  # interior optima are common among random forms


class TestOptimumSelection:
    """Which measurement max_daemonic reports, including its tie rule."""

    def test_uncorrelated_is_heterodyne(self):
        """c_+ = 0 makes every setting equal; the tie goes to heterodyne."""
        sf = gd.TwoModeStandardForm(a=2.0, z_a=1.3, b=1.5, c_plus=0.0, c_minus=0.0, eta=0.0)
        assert gd.max_daemonic(sf).setting == gd.heterodyne()

    def test_pure_tmsts_is_heterodyne(self):
        """A pure TMSTS purifies under every efficient setting, so all settings tie.

        At these squeezings roundoff leaves a spurious stationary point in
        (0, 1), at r = 1.8404 about 2e-15 above heterodyne; neither it nor
        homodyne may win the tie.
        """
        for r in (0.7, 1.0324, 1.8404):
            sf, _, _ = gd.standard_form(gd.tmsts(0.0, r))
            assert gd.max_daemonic(sf).setting == gd.heterodyne(), r

    def test_thermal_tmsts_is_heterodyne(self):
        """The README example: heterodyne is optimal for TMSTS(1, 0.5)."""
        sf, _, _ = gd.standard_form(gd.tmsts(1.0, 0.5))
        best = gd.max_daemonic(sf)
        assert best.setting == gd.heterodyne()
        assert best.value == pytest.approx(gd.tmsts_heterodyne(1.0, 0.5), abs=1e-12)

    def test_homodyne_strictly_optimal(self):
        """Correlations in one quadrature only (c_- = 0): homodyne at z_m = 0 wins."""
        sf = gd.TwoModeStandardForm(a=2.0, z_a=1.0, b=1.5, c_plus=1.0, c_minus=0.0, eta=0.0)
        best = gd.max_daemonic(sf)
        assert best.setting.homodyne
        assert best.setting == gd.homodyne(gd.optimal_phase(sf, 0.0).angle)
        assert best.value == pytest.approx(gd.max_daemonic_homodyne(sf).value, abs=1e-15)
        assert best.value > gd.daemonic_heterodyne(sf).value + 0.05

    def test_interior_optimum(self):
        """A state whose optimum is a proper general-dyne measurement, 0 < z_m < 1."""
        sf = gd.TwoModeStandardForm(a=2.0, z_a=1.0, b=3.0, c_plus=1.0, c_minus=-0.5, eta=0.0)
        best = gd.max_daemonic(sf)
        assert isinstance(best.setting, GeneralDyneSetting)
        assert not best.setting.homodyne and 0.0 < best.setting.z_m < 1.0
        assert best.value > gd.max_daemonic_homodyne(sf).value + 1e-3
        assert best.value > gd.daemonic_heterodyne(sf).value + 1e-3


def test_daemonic_beats_unconditional():
    """Daemonic ergotropy never falls below the unconditional ergotropy of A."""
    rng = np.random.default_rng(131)
    for _ in range(N_RANDOM):
        st = gd.random_two_mode_state(rng)
        setting = gd.random_setting(rng)
        dae = gd.daemonic_ergotropy(st, setting).value
        assert dae >= gd.unconditional_ergotropy_a(st) - 1e-9


def test_daemonic_mean_term():
    """A displacement of mode A adds exactly |mean_A|^2/2 to all closed forms."""
    rng = np.random.default_rng(137)
    sf = gd.random_standard_form(rng)
    mean_a = np.array([0.8, -1.1])
    shift = 0.5 * float(mean_a @ mean_a)
    for fn in (gd.daemonic_heterodyne, gd.max_daemonic_homodyne, gd.max_daemonic):
        assert fn(sf, mean_a).value == pytest.approx(fn(sf).value + shift, abs=1e-9)


def test_noisy_measurement_reduces_daemonic():
    """Extra pointer noise nu_m > 1 cannot increase the daemonic ergotropy."""
    rng = np.random.default_rng(139)
    for _ in range(50):
        st = gd.random_two_mode_state(rng)
        theta = rng.uniform(0, np.pi)
        z = rng.uniform(0.1, 1.0)
        clean = gd.daemonic_ergotropy(st, GeneralDyneSetting(theta_m=theta, z_m=z)).value
        noisy = gd.daemonic_ergotropy(st, GeneralDyneSetting(nu_m=2.0, theta_m=theta, z_m=z)).value
        assert noisy <= clean + 1e-9


class TestTMSTS:
    """Two-mode squeezed thermal state benchmarks."""

    def test_construction(self):
        """Reduced states are thermal with nu = (2N+1) cosh 2r; global spectrum is flat."""
        for n_th, r in ((0.0, 0.7), (1.0, 0.5), (2.5, 1.2)):
            st = gd.tmsts(n_th, r)
            gd.validate_state(st.mean, st.cm)
            nu_red = (2 * n_th + 1) * np.cosh(2 * r)
            assert np.allclose(gd.reduce(st, (0,)).cm, nu_red * np.eye(2))
            assert np.allclose(gd.symplectic_eigenvalues(st.cm), 2 * n_th + 1)
        with pytest.raises(ValueError, match="non-negative"):
            gd.tmsts(-0.1, 0.5)

    def test_reduced_state_is_passive(self):
        """The reduced state of a TMSTS is thermal, so unconditional ergotropy is 0."""
        assert abs(gd.unconditional_ergotropy_a(gd.tmsts(1.0, 0.8))) <= 1e-12

    def test_closed_forms_vs_pipeline(self):
        """Heterodyne and homodyne closed forms match the conditioning pipeline."""
        for n_th in (0.0, 0.5, 2.0):
            for r in (0.3, 1.0):
                st = gd.tmsts(n_th, r)
                het = gd.daemonic_ergotropy(st, gd.heterodyne()).value
                hom = gd.daemonic_ergotropy(st, gd.homodyne(0.0)).value
                assert het == pytest.approx(gd.tmsts_heterodyne(n_th, r), abs=1e-10)
                assert hom == pytest.approx(gd.tmsts_homodyne(n_th, r), abs=1e-10)

    def test_pure_state_equality(self):
        """At N = 0 heterodyne and homodyne extract the same work."""
        for r in (0.2, 0.5, 1.5):
            assert gd.tmsts_heterodyne(0.0, r) == pytest.approx(gd.tmsts_homodyne(0.0, r), rel=1e-12)

    def test_thermal_noise_favors_heterodyne(self):
        """For N > 0 heterodyne strictly beats homodyne."""
        for n_th in (0.5, 1.0, 3.0):
            assert gd.tmsts_heterodyne(n_th, 0.6) > gd.tmsts_homodyne(n_th, 0.6)

    def test_homodyne_phase_invariance(self):
        """TMSTS conditioning is invariant under the homodyne phase."""
        st = gd.tmsts(1.0, 0.5)
        vals = [gd.daemonic_ergotropy(st, gd.homodyne(t)).value for t in (0.0, 0.5, 1.2)]
        assert np.allclose(vals, vals[0], atol=1e-12)


@pytest.mark.parametrize("n_th, r", [(np.nan, 0.5), (np.inf, 0.5), (1.0, np.nan), (1.0, -np.inf)])
def test_tmsts_rejects_non_finite(n_th, r):
    """NaN or infinite n_th and r are rejected by name, before any matrix is built."""
    with pytest.raises(ValueError, match=r"n_th and r must be finite, got n_th = .*, r = "):
        gd.tmsts(n_th, r)
