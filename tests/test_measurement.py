"""Unit tests for general-dyne measurements and Gaussian conditioning."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

import gaussdaemon as gd
from gaussdaemon import GeneralDyneSetting, Partition

PART = Partition((0,), (1,))


def test_setting_validation():
    """nu_m >= 1 and z_m in [0, 1] are enforced, z_m = 0 being homodyne; phases are reduced mod pi."""
    with pytest.raises(ValueError, match="nu_m >= 1"):
        GeneralDyneSetting(nu_m=0.5)
    with pytest.raises(ValueError, match=r"z_m must lie in \[0, 1\] \(0 = homodyne\)"):
        GeneralDyneSetting(z_m=1.5)
    assert GeneralDyneSetting(z_m=0.0).homodyne
    s = GeneralDyneSetting(theta_m=np.pi + 0.3)
    assert s.theta_m == pytest.approx(0.3)
    h = gd.homodyne(0.4)
    assert h.homodyne and h.z_m == 0.0


def test_setting_fields_are_nu_m_theta_m_z_m():
    """z_m alone says what a setting measures: there is no separate homodyne field."""
    assert [f.name for f in dataclasses.fields(GeneralDyneSetting)] == ["nu_m", "theta_m", "z_m"]
    with pytest.raises(TypeError):
        GeneralDyneSetting(theta_m=0.3, **{"homodyne": True})


@pytest.mark.parametrize("theta", [0.0, 0.4, 0.5 * np.pi, np.pi + 0.2, -1.0])
def test_homodyne_is_z_m_zero(theta):
    """homodyne(theta) is the z_m = 0 setting at that phase, and .homodyne reads z_m == 0."""
    setting = GeneralDyneSetting(theta_m=theta, z_m=0.0)
    assert setting == gd.homodyne(theta)
    assert setting.homodyne and gd.homodyne(theta).homodyne
    assert not GeneralDyneSetting(theta_m=theta, z_m=1e-300).homodyne
    assert not gd.heterodyne().homodyne
    noisy = GeneralDyneSetting(nu_m=3.0, theta_m=theta, z_m=0.0)
    assert noisy.homodyne and noisy.nu_m == 3.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        setting.z_m = 0.5
    with pytest.raises(AttributeError):
        setting.homodyne = False


@pytest.mark.parametrize("z_m", [-1e-300, -0.5, 1.0 + 1e-15, 2.0, np.nan])
def test_z_m_outside_the_unit_interval_is_rejected(z_m):
    """z_m < 0, z_m > 1 and NaN are no measurement."""
    with pytest.raises(ValueError, match=r"z_m must lie in \[0, 1\] \(0 = homodyne\)"):
        GeneralDyneSetting(z_m=z_m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_setting_rejects_non_finite(bad):
    """NaN or infinite nu_m and theta_m are rejected, as z_m already was."""
    with pytest.raises(ValueError, match="must be finite"):
        GeneralDyneSetting(nu_m=bad)
    with pytest.raises(ValueError, match="must be finite"):
        GeneralDyneSetting(theta_m=bad)
    with pytest.raises(ValueError, match="must be finite"):
        gd.homodyne(bad)
    with pytest.raises(ValueError, match="z_m must lie"):
        GeneralDyneSetting(z_m=bad)


def test_measurement_cm_properties():
    """Pointer CM has determinant nu_m^2; heterodyne is the identity."""
    assert np.allclose(gd.measurement_cm(gd.heterodyne()), np.eye(2))
    rng = np.random.default_rng(13)
    for _ in range(50):
        s = GeneralDyneSetting(
            nu_m=1.0 + rng.exponential(1.0),
            theta_m=rng.uniform(0, np.pi),
            z_m=rng.uniform(0.05, 1.0),
        )
        cm = gd.measurement_cm(s)
        assert np.linalg.det(cm) == pytest.approx(s.nu_m**2, rel=1e-12)
        gd.validate_state(np.zeros(2), cm)
    with pytest.raises(ValueError, match="no finite pointer covariance"):
        gd.measurement_cm(gd.homodyne())


def test_homodyne_limit_of_inverse_sum():
    """The rank-one homodyne inverse matches the z_m -> 0 limit of the finite form."""
    rng = np.random.default_rng(19)
    for _ in range(30):
        sb = gd.random_state(rng, 1).cm
        theta = rng.uniform(0, np.pi)
        exact = gd.inverse_sum(sb, gd.homodyne(theta))
        approx = gd.inverse_sum(sb, GeneralDyneSetting(theta_m=theta, z_m=1e-9))
        assert np.allclose(exact, approx, atol=1e-6), (theta, exact, approx)
        # rank one along the measured quadrature
        assert np.linalg.matrix_rank(exact, tol=1e-12) == 1


def test_conditioning_basics():
    """Conditioning is outcome independent in the CM and never increases det."""
    rng = np.random.default_rng(37)
    for _ in range(50):
        st = gd.random_two_mode_state(rng)
        setting = gd.random_setting(rng)
        out1 = gd.condition(st, PART, setting, rng.normal(size=2))
        out2 = gd.condition(st, PART, setting, rng.normal(size=2))
        assert np.array_equal(out1.cm, out2.cm)
        det_a = np.linalg.det(st.cm[:2, :2])
        assert np.linalg.det(out1.cm) <= det_a + 1e-12
        gd.validate_state(out1.mean, out1.cm)


def test_conditioning_product_state_is_trivial():
    """With no correlations the conditional state equals the marginal."""
    rng = np.random.default_rng(41)
    a = gd.random_state(rng, 1)
    b = gd.random_state(rng, 1)
    cm = np.block([[a.cm, np.zeros((2, 2))], [np.zeros((2, 2)), b.cm]])
    st = gd.GaussianState(np.concatenate([a.mean, b.mean]), cm)
    out = gd.condition(st, PART, gd.heterodyne(), [0.3, -0.8])
    assert np.allclose(out.cm, a.cm)
    assert np.allclose(out.mean, a.mean)


def test_condition_validation():
    """Bad partitions and outcomes raise ValueError."""
    st = gd.vacuum(2)
    with pytest.raises(ValueError, match="exactly one measured mode"):
        Partition((0,), (1, 2))
    with pytest.raises(ValueError, match="overlap"):
        Partition((0, 1), (1,))
    with pytest.raises(ValueError, match="kept modes must be a non-empty set"):
        Partition((), (1,))
    with pytest.raises(ValueError, match="outside"):
        gd.condition(st, Partition((0,), (2,)), gd.heterodyne(), [0.0, 0.0])
    with pytest.raises(ValueError, match="2-vector"):
        gd.condition(st, PART, gd.heterodyne(), [0.0, 0.0, 0.0])


def test_partition_indices():
    """Index arrays are computed at construction, in mode order, and are read-only."""
    part = Partition((2, 0), (1,))
    assert np.array_equal(part.a_idx, [4, 5, 0, 1])
    assert np.array_equal(part.b_idx, [2, 3])
    with pytest.raises(ValueError, match="read-only"):
        part.a_idx[0] = 0
    assert part == Partition([2, 0], [1])


def test_partition_rejects_negative_modes():
    """A negative index would wrap around to the last mode, so it is rejected."""
    with pytest.raises(ValueError, match="non-negative"):
        Partition((1,), (-1,))
    with pytest.raises(ValueError, match="non-negative"):
        Partition((-2, 0), (1,))


def test_inverse_sum_is_accurate_near_homodyne():
    """Finite z_m keeps full precision as z_m -> 0: at 1e-12 it meets the rank-one homodyne limit."""
    rng = np.random.default_rng(23)
    for _ in range(30):
        sb = gd.random_state(rng, 1).cm
        theta = rng.uniform(0, np.pi)
        moderate = GeneralDyneSetting(nu_m=1.5, theta_m=theta, z_m=0.3)
        direct = np.linalg.inv(sb + gd.measurement_cm(moderate))
        assert np.abs(gd.inverse_sum(sb, moderate) - direct).max() <= 1e-12 * np.abs(direct).max()
        near = gd.inverse_sum(sb, GeneralDyneSetting(theta_m=theta, z_m=1e-12))
        exact = gd.inverse_sum(sb, gd.homodyne(theta))
        assert np.abs(near - exact).max() <= 1e-9 * np.abs(exact).max()


def test_sample_outcome_statistics():
    """Outcome samples have mean mean_B and covariance (sigma_B + sigma_m)/2."""
    rng = np.random.default_rng(43)
    st = gd.displace(gd.tmsts(0.5, 0.6), [0.0, 0.0, 1.0, -2.0])
    setting = gd.heterodyne()
    draws = np.array([gd.sample_outcome(st, PART, setting, rng) for _ in range(20000)])
    target_cov = 0.5 * (st.cm[2:, 2:] + np.eye(2))
    assert np.allclose(draws.mean(axis=0), [1.0, -2.0], atol=0.05)
    assert np.allclose(np.cov(draws, rowvar=False), target_cov, atol=0.1)


def test_sample_outcome_homodyne_is_one_dimensional():
    """Homodyne outcomes only fluctuate along the measured quadrature."""
    rng = np.random.default_rng(47)
    st = gd.tmsts(1.0, 0.5)
    u = gd.measured_quadrature(gd.homodyne(0.3))
    draws = np.array([gd.sample_outcome(st, PART, gd.homodyne(0.3), rng) for _ in range(200)])
    perp = draws @ np.array([-u[1], u[0]])
    assert np.allclose(perp, 0.0, atol=1e-12)


def test_conditioning_averages_to_marginal_mean():
    """Averaging conditional means over sampled outcomes recovers the marginal mean."""
    rng = np.random.default_rng(53)
    st = gd.displace(gd.tmsts(0.5, 0.8), [0.7, -0.2, 0.1, 0.4])
    setting = GeneralDyneSetting(theta_m=0.9, z_m=0.4)
    means = []
    for _ in range(20000):
        out = gd.sample_outcome(st, PART, setting, rng)
        means.append(gd.condition(st, PART, setting, out).mean)
    assert np.allclose(np.mean(means, axis=0), st.mean[:2], atol=0.05)


class _UnitDraws:
    """Stand-in generator whose successive standard_normal(2) draws are the unit vectors e_1, e_2."""

    def __init__(self):
        self.k = 0

    def standard_normal(self, size):
        self.k += 1
        return np.eye(2)[self.k - 1]


def test_sample_outcome_variance_near_homodyne():
    """At z_m = 1e-12 the outcome variance along the measured quadrature is (u^T sigma_B u + z_m)/2 to round-off.

    The two draws with unit-vector noise are the columns of the sampling
    covariance's square-root factor; summing the squares of their u components
    gives u^T cov u.  Forming sigma_B + sigma_m in the lab frame loses about
    1e-4 of it to the rounding of the 1e12 pointer variance.
    """
    rng = np.random.default_rng(59)
    worst = 0.0
    for _ in range(50):
        st = gd.random_state(rng, 2)
        setting = GeneralDyneSetting(theta_m=rng.uniform(0, np.pi), z_m=1e-12)
        u = gd.measured_quadrature(setting)
        draws = _UnitDraws()
        cols = [gd.sample_outcome(st, PART, setting, draws) - st.mean[2:] for _ in range(2)]
        var = sum(float(u @ c) ** 2 for c in cols)
        target = 0.5 * (float(u @ st.cm[2:, 2:] @ u) + 1e-12)
        worst = max(worst, abs(var - target) / target)
    assert worst <= 1e-12


def test_sample_outcome_factor_is_the_outcome_covariance():
    """The square-root factor sample_outcome applies to its draws squares to (sigma_B + sigma_m)/2, off-diagonal included.

    With unit-vector noise the two draws are the factor's columns, so the sum
    of their outer products is the sampling covariance itself.
    """
    rng = np.random.default_rng(61)
    for _ in range(50):
        st = gd.random_state(rng, 2)
        setting = gd.random_setting(rng, efficient=False, allow_homodyne=False)
        draws = _UnitDraws()
        cols = [gd.sample_outcome(st, PART, setting, draws) - st.mean[2:] for _ in range(2)]
        cov = sum(np.outer(c, c) for c in cols)
        target = 0.5 * (st.cm[2:, 2:] + gd.measurement_cm(setting))
        assert np.abs(cov - target).max() <= 1e-12 * np.abs(target).max()


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    seed=st_.integers(min_value=0, max_value=2**32 - 1),
    theta=st_.floats(0.0, np.pi, exclude_max=True),
    log_z=st_.floats(-3.0, 0.0),
    nu_m=st_.floats(1.0, 5.0),
)
def test_inverse_sum_is_one_formula(seed, theta, log_z, nu_m):
    """The pointer-frame formula is the direct inverse at finite z_m and u u^T / (u^T sigma_B u) at homodyne."""
    sb = gd.random_state(np.random.default_rng(seed), 1).cm
    setting = GeneralDyneSetting(nu_m=nu_m, theta_m=theta, z_m=10.0**log_z)
    direct = np.linalg.inv(sb + gd.measurement_cm(setting))
    assert np.abs(gd.inverse_sum(sb, setting) - direct).max() <= 1e-12 * np.abs(direct).max()
    u = gd.measured_quadrature(gd.homodyne(theta))
    limit = np.outer(u, u) / (u @ sb @ u)
    hom = gd.inverse_sum(sb, GeneralDyneSetting(nu_m=nu_m, theta_m=theta, z_m=0.0))
    assert np.abs(hom - limit).max() <= 1e-14 * np.abs(limit).max()


@pytest.mark.parametrize("shape", [(4, 4), (1, 1), (2,), (2, 3)])
def test_inverse_sum_requires_a_2x2_block(shape):
    """sigma_B is the measured mode's 2x2 CM; any other shape is rejected rather than read in part."""
    with pytest.raises(ValueError, match="2x2"):
        gd.inverse_sum(np.full(shape, 2.0), gd.heterodyne())


@pytest.mark.parametrize(
    "sigma_b, setting",
    [
        (np.diag([-2.0, 1.0]), gd.heterodyne()),
        (np.diag([-2.0, 1.0]), gd.homodyne(0.0)),
        (np.zeros((2, 2)), gd.homodyne(0.0)),
    ],
    ids=["indefinite-het", "indefinite-hom0", "zero-hom0"],
)
def test_inverse_sum_of_a_singular_sum_is_a_numeric_error(sigma_b, setting):
    """A sigma_B + sigma_m that is not positive definite raises instead of returning an inverse."""
    with pytest.raises(gd.NumericError, match="sigma_B \\+ sigma_m is singular"):
        gd.inverse_sum(sigma_b, setting)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    seed=st_.integers(min_value=0, max_value=2**32 - 1),
    theta=st_.floats(0.0, np.pi, exclude_max=True),
    log_z=st_.floats(-12.0, 0.0),
    nu_m=st_.floats(1.0, 5.0),
    sharp=st_.booleans(),
)
def test_daemonic_pipeline_matches_condition(seed, theta, log_z, nu_m, sharp):
    """daemonic_ergotropy is E - sqrt(det)/2 of condition's conditional CM, within 1e-13 of the energy E.

    Random two-mode states with exact homodyne, z_m down to 1e-12 and noisy
    pointers; E = |mean_A|^2 / 2 + tr(sigma_A) / 4 and the determinant are
    taken here from numpy, so the test pins the Schur complement both share.
    """
    state = gd.random_two_mode_state(np.random.default_rng(seed))
    setting = GeneralDyneSetting(nu_m=nu_m, theta_m=theta, z_m=0.0 if sharp else 10.0**log_z)
    energy = 0.5 * float(state.mean[:2] @ state.mean[:2]) + 0.25 * float(np.trace(state.cm[:2, :2]))
    det = float(np.linalg.det(gd.condition(state, PART, setting, np.zeros(2)).cm))
    result = gd.daemonic_ergotropy(state, setting)
    assert abs(result.value - (energy - 0.5 * math.sqrt(det))) <= 1e-13 * energy, (result.value, energy, det)
    assert result.conditional_purity == pytest.approx(1.0 / math.sqrt(det), rel=1e-13)
