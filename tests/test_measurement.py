"""Unit tests for general-dyne measurements and Gaussian conditioning."""

import numpy as np
import pytest

import gaussdaemon as gd
from gaussdaemon import GeneralDyneSetting, Partition

PART = Partition((0,), (1,))


def test_setting_validation():
    """nu_m >= 1 and z_m in (0, 1] are enforced; phases are reduced mod pi."""
    with pytest.raises(ValueError, match="nu_m >= 1"):
        GeneralDyneSetting(nu_m=0.5)
    with pytest.raises(ValueError, match=r"z_m must lie in \(0, 1\]"):
        GeneralDyneSetting(z_m=1.5)
    with pytest.raises(ValueError, match=r"z_m must lie in \(0, 1\]"):
        GeneralDyneSetting(z_m=0.0)
    s = GeneralDyneSetting(theta_m=np.pi + 0.3)
    assert s.theta_m == pytest.approx(0.3)
    h = gd.homodyne(0.4)
    assert h.homodyne and h.z_m == 0.0


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
