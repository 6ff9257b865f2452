"""Unit tests for Gaussian states and symplectic linear algebra."""

import math
import re
import warnings

import numpy as np
import pytest

import gaussdaemon as gd
from gaussdaemon import (
    GaussianState,
    SymmetryError,
    SymplecticityError,
    UnphysicalStateError,
)
from gaussdaemon.symplectic import TOL_PSD

N_RANDOM = 50


def test_symplectic_form_blocks():
    """Omega is the direct sum of 2x2 blocks [[0, 1], [-1, 0]]."""
    omega = gd.symplectic_form(3)
    assert omega.shape == (6, 6)
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for k in range(3):
        assert np.array_equal(omega[2 * k : 2 * k + 2, 2 * k : 2 * k + 2], block)
    assert np.array_equal(omega.T, -omega)
    with pytest.raises(ValueError, match="must be positive"):
        gd.symplectic_form(0)


def test_symplectic_form_is_a_fresh_copy():
    """Writing into a returned form does not change later calls."""
    omega = gd.symplectic_form(2)
    omega[0, 1] = 7.0
    assert gd.symplectic_form(2)[0, 1] == 1.0
    assert np.array_equal(gd.symplectic_form(2), np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]))


def test_rotation_and_squeezer_are_symplectic():
    """Phase rotations and squeezers satisfy S Omega S^T = Omega."""
    rng = np.random.default_rng(7)
    for _ in range(N_RANDOM):
        gd.check_symplectic(gd.rotation(rng.uniform(-10, 10)))
        gd.check_symplectic(gd.squeezer(np.exp(rng.uniform(-2, 2))))
    with pytest.raises(ValueError, match="must be positive"):
        gd.squeezer(0.0)


def test_check_symplectic_rejects():
    """Non-symplectic matrices are rejected with the deviation reported."""
    with pytest.raises(SymplecticityError, match="not symplectic"):
        gd.check_symplectic(2.0 * np.eye(2))
    with pytest.raises(SymplecticityError, match="square of even size"):
        gd.check_symplectic(np.eye(3))


def test_state_shape_validation():
    """GaussianState checks shapes at construction."""
    with pytest.raises(ValueError, match="even positive length"):
        GaussianState(np.zeros(3), np.eye(3))
    with pytest.raises(ValueError, match="does not match mean length"):
        GaussianState(np.zeros(2), np.eye(4))
    st = GaussianState([0.0, 0.0], np.eye(2))
    assert st.n == 1 and st.mean.shape == (2,)


def test_validate_state_physicality():
    """validate_state enforces symmetry, positivity and the uncertainty relation."""
    gd.validate_state(np.zeros(2), np.eye(2))
    bad_sym = np.array([[1.0, 0.3], [0.0, 1.0]])
    with pytest.raises(SymmetryError, match="asymmetric"):
        gd.validate_state(np.zeros(2), bad_sym)
    with pytest.raises(UnphysicalStateError, match="not positive definite"):
        gd.validate_state(np.zeros(2), np.diag([1.0, -0.5]))
    # positive definite but below the Heisenberg bound
    with pytest.raises(UnphysicalStateError, match="uncertainty principle"):
        gd.validate_state(np.zeros(2), 0.5 * np.eye(2))
    # squeezed vacuum saturates the bound and must pass
    z = 0.1
    gd.validate_state(np.zeros(2), np.diag([z, 1.0 / z]))
    # det sigma' - 1 = -2.2e-16 with sigma' = sigma + TOL_PSD I: within the closed form's round-off allowance
    s = math.sqrt(1.0 - 2.0**-53) - TOL_PSD
    assert (s + TOL_PSD) ** 2 - 1.0 == -(2.0**-52)
    gd.validate_state(np.zeros(2), s * np.eye(2))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("c", [1e40, 1e100, 1e160, 1e300])
def test_validate_state_accepts_large_isotropic_states(n, c):
    """c I is physical at any c >= 1; where the closed-form invariants overflow, eigvalsh decides."""
    state = gd.validate_state(np.zeros(2 * n), c * np.eye(2 * n))
    assert state.cm[0, 0] == c


def test_validate_state_rejects_non_finite():
    """An infinite variance or a NaN anywhere in the moments is rejected, for one mode and from two modes on."""
    multimode = [np.diag([1.0, 1.0, 1.0, -np.inf]), np.eye(6)]
    multimode[1][0, 5] = multimode[1][5, 0] = np.nan
    for cm in (np.diag([np.inf, 1.0]), np.array([[1.0, np.nan], [np.nan, 1.0]]), *multimode):
        with pytest.raises(ValueError, match="must be finite"):
            gd.validate_state(np.zeros(cm.shape[0]), cm)
    for mean in ([np.nan, 0.0], [0.0, -np.inf], [0.0, np.inf, 0.0, 0.0], [0.0] * 5 + [np.nan]):
        with pytest.raises(ValueError, match="must be finite"):
            gd.validate_state(mean, np.eye(len(mean)))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
def test_physicality_violation_names_non_finite_entries(n, bad, where):
    """A non-finite CM is reported by its entries, not by a closed-form or eigvalsh verdict on garbage."""
    sigma = 2.0 * np.eye(2 * n)
    i, j = (0, 0) if where == "diagonal" else (0, 2 * n - 1)
    sigma[i, j] = sigma[j, i] = bad
    expected = {(i, j), (j, i)}
    violation = gd.symplectic._physicality_violation(sigma)
    assert violation is not None and violation.startswith("covariance matrix not finite: ")
    assert violation.count("sigma[") == len(expected)
    for a, b in expected:
        assert f"sigma[{a}, {b}] = {bad}" in violation


@pytest.mark.parametrize("n", [1, 2, 3])
def test_validate_state_accepts_entries_near_the_float_maximum(n):
    """The symmetrization before the physicality check does not overflow: 1e308 I is finite and physical."""
    state = gd.validate_state(np.zeros(2 * n), 1e308 * np.eye(2 * n))
    assert np.array_equal(state.cm, 1e308 * np.eye(2 * n))


def test_vacuum_and_thermal():
    """Vacuum is the identity CM; thermal scales it and requires nu >= 1."""
    assert np.array_equal(gd.vacuum(2).cm, np.eye(4))
    th = gd.thermal(3.0, 1)
    assert np.array_equal(th.cm, 3.0 * np.eye(2))
    assert gd.purity(th) == pytest.approx(1.0 / 3.0)
    with pytest.raises(UnphysicalStateError, match="nu >= 1"):
        gd.thermal(0.9)


def test_apply_symplectic_and_displace():
    """Transforms act as mean -> S mean + d, sigma -> S sigma S^T."""
    rng = np.random.default_rng(11)
    st = GaussianState(rng.normal(size=2), 2.0 * np.eye(2))
    S = gd.rotation(0.7) @ gd.squeezer(1.5)
    out = gd.apply_symplectic(st, S)
    assert np.allclose(out.mean, S @ st.mean)
    assert np.allclose(out.cm, S @ st.cm @ S.T)
    out2 = gd.displace(out, [1.0, -2.0])
    assert np.allclose(out2.mean, out.mean + np.array([1.0, -2.0]))
    assert np.array_equal(out2.cm, out.cm)
    with pytest.raises(ValueError, match="does not match state"):
        gd.apply_symplectic(st, np.eye(4))
    with pytest.raises(ValueError, match="does not match state"):
        gd.displace(st, np.zeros(4))


def test_reduce_marginals():
    """Reduction keeps the selected modes in the requested order."""
    rng = np.random.default_rng(3)
    st = gd.random_state(rng, 3)
    sub = gd.reduce(st, (2, 0))
    assert sub.n == 2
    assert np.allclose(sub.mean, np.concatenate([st.mean[4:6], st.mean[0:2]]))
    assert np.allclose(sub.cm[:2, :2], st.cm[4:6, 4:6])
    assert np.allclose(sub.cm[2:, 2:], st.cm[0:2, 0:2])
    with pytest.raises(ValueError, match="invalid mode subset"):
        gd.reduce(st, (0, 3))
    with pytest.raises(ValueError, match="invalid mode subset"):
        gd.reduce(st, (1, 1))


def test_symplectic_eigenvalues_known_cases():
    """Closed-form spectra: thermal, squeezed thermal, two-mode squeezed vacuum."""
    assert np.allclose(gd.symplectic_eigenvalues(np.eye(4)), [1.0, 1.0])
    nu = 2.5
    z = 1.7
    cm = nu * gd.squeezer(z) @ gd.squeezer(z).T
    assert np.allclose(gd.symplectic_eigenvalues(cm), [nu])
    # two-mode squeezed vacuum is pure: both eigenvalues exactly 1
    tm = gd.tmsts(0.0, 1.0)
    assert np.array_equal(gd.symplectic_eigenvalues(tm.cm), [1.0, 1.0])
    with pytest.raises(UnphysicalStateError, match="not positive definite"):
        gd.symplectic_eigenvalues(np.diag([1.0, 0.0]))


def test_symplectic_eigenvalues_invariance():
    """The symplectic spectrum is invariant under symplectic congruence."""
    rng = np.random.default_rng(42)
    for _ in range(N_RANDOM):
        n = int(rng.integers(1, 4))
        st = gd.random_state(rng, n)
        S = gd.random_symplectic(rng, n)
        nus = gd.symplectic_eigenvalues(st.cm)
        nus_t = gd.symplectic_eigenvalues(S @ st.cm @ S.T)
        assert np.allclose(nus, nus_t, atol=1e-9), (n, nus, nus_t)
        assert np.all(nus >= 1.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_symplectic_eigenvalues(n):
    """A (k, 2n, 2n) stack gives row i = the spectrum of member i."""
    rng = np.random.default_rng(300 + n)
    cms = np.stack([gd.random_state(rng, n).cm for _ in range(40)])
    stacked = gd.symplectic_eigenvalues(cms)
    single = np.stack([gd.symplectic_eigenvalues(cm) for cm in cms])
    assert stacked.shape == (40, n)
    assert single.shape == (40, n)
    assert np.abs(stacked - single).max() <= 1e-13


def test_stacked_symplectic_eigenvalues_reject_nonpositive_member():
    """One non-positive member makes the whole stack raise, naming its index."""
    cms = np.stack([np.eye(2), np.diag([1.0, 0.0]), 2.0 * np.eye(2)])
    with pytest.raises(UnphysicalStateError, match="stack index 1"):
        gd.symplectic_eigenvalues(cms)


@pytest.mark.parametrize("n", [1, 2])
def test_multi_axis_stacks_name_members_by_index_tuple(n):
    """(a, 2n, 2n) and (a, b, 2n, 2n) stacks give each member's spectrum; a failing member is named by its index."""
    rng = np.random.default_rng(320 + n)
    cms = np.stack([gd.random_state(rng, n).cm for _ in range(15)]).reshape(3, 5, 2 * n, 2 * n)
    single = np.stack([gd.symplectic_eigenvalues(cm) for cm in cms.reshape(15, 2 * n, 2 * n)])
    assert np.array_equal(gd.symplectic_eigenvalues(cms), single.reshape(3, 5, n))
    assert np.array_equal(gd.symplectic_eigenvalues(cms[1]), single[5:10])
    assert np.array_equal(gd.symplectic_eigenvalues(cms[None]), single.reshape(1, 3, 5, n))
    bad = cms.copy()
    bad[1, 3] = -np.eye(2 * n)
    with pytest.raises(UnphysicalStateError, match=r"at stack index \(1, 3\): min eig = -1\.000e\+00"):
        gd.symplectic_eigenvalues(bad)
    with pytest.raises(UnphysicalStateError, match=r"at stack index 3: min eig"):
        gd.symplectic_eigenvalues(bad[1])
    bad[2, 0] = -np.eye(2 * n)  # a later member fails too: the first in C order is named
    with pytest.raises(UnphysicalStateError, match=r"at stack index \(0, 1, 3\):"):
        gd.symplectic_eigenvalues(bad[None])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("ratio", [1e2, 1e4, 1e6, 1e8, 1e10])
def test_symplectic_spectrum_is_exact_across_wide_spectra(n, ratio):
    """nu_j within 1e-13 nu_max, with no warning, for nu_max / nu_min up to 1e10 and squeezing up to 1.5.

    The states are S (diag nu_j I) S^T with nu_min = 1 and nu_max = ratio.  A
    route through the squared spectrum loses (nu_max / nu_min)^2 eps on nu_min,
    and takes the square root of a negative number once that passes 1.
    """
    rng = np.random.default_rng(340 + n)
    inner = np.exp(rng.uniform(0.0, math.log(ratio), size=(200, n - 2)))
    nus = -np.sort(-np.column_stack([np.full(200, ratio), np.ones(200), inner]), axis=1)
    maps = [gd.random_symplectic(rng, n, max_squeeze=1.5) for _ in nus]
    cms = np.stack([s @ np.diag(np.repeat(nu, 2)) @ s.T for nu, s in zip(nus, maps)])
    cms = 0.5 * (cms + np.swapaxes(cms, 1, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spectra = gd.symplectic_eigenvalues(cms)
    assert np.abs(spectra - nus).max() <= 1e-13 * ratio


def test_cholesky_rejection_at_round_off_names_the_first_rejected_member():
    """The first member Cholesky rejects is named, with eigvalsh's smallest eigenvalue, round-off rejections included.

    The members before -I have eigenvalues 1 and 1e15 to 1e18: positive
    definite, but Cholesky may reject them at round-off, and eigvalsh's
    smallest eigenvalue may come out on either side of 0.  With numpy 2.4's
    OpenBLAS, 3e16 is the first rejected, with a positive eigvalsh value 1.341.
    """
    q = gd.random_orthogonal_symplectic(np.random.default_rng(10), 2)
    cms = [np.eye(4)] + [q @ np.diag([big, big, 1.0, 1.0]) @ q.T for big in (1e15, 1e16, 3e16, 1e17, 1e18)]
    cms = np.stack([0.5 * (cm + cm.T) for cm in cms] + [-np.eye(4)])
    rejected = []
    for k, cm in enumerate(cms):
        try:
            np.linalg.cholesky(cm)
        except np.linalg.LinAlgError:
            rejected.append(k)
    k = rejected[0]
    lam = np.linalg.eigvalsh(cms[k])[0]
    with pytest.raises(UnphysicalStateError, match=re.escape(f"at stack index {k}: min eig = {lam:.3e}")):
        gd.symplectic_eigenvalues(cms)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
def test_symplectic_eigenvalues_name_non_finite_members(n, bad, where):
    """A non-finite member is named by its stack index and entries, before any positivity test, with no warning."""
    i, j = (0, 0) if where == "diagonal" else (0, 2 * n - 1)
    cms = np.stack([(k + 1.0) * np.eye(2 * n) for k in range(6)]).reshape(2, 3, 2 * n, 2 * n)
    cms[1, 2] = -np.eye(2 * n)  # not positive definite, but after the non-finite member in C order
    cms[1, 0, i, j] = cms[1, 0, j, i] = bad
    entries = ", ".join(f"sigma[{a}, {b}] = {bad}" for a, b in sorted({(i, j), (j, i)}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stack, index in ((cms, " at stack index (1, 0)"), (cms[1], " at stack index 0"), (cms[1, 0], "")):
            with pytest.raises(UnphysicalStateError) as info:
                gd.symplectic_eigenvalues(stack)
            assert str(info.value) == f"covariance matrix not finite{index}: {entries}"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
def test_williamson_single_mode_names_non_finite_entries(bad, where):
    """A non-finite entry is named before the symmetry and positivity checks, with no warning."""
    cm = 2.0 * np.eye(2)
    pairs = [(0, 0)] if where == "diagonal" else [(0, 1), (1, 0)]
    for i, j in pairs:
        cm[i, j] = bad
    entries = ", ".join(f"sigma[{i}, {j}] = {bad}" for i, j in pairs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnphysicalStateError) as info:
            gd.williamson_single_mode(cm)
    assert str(info.value) == f"covariance matrix not finite: {entries}"


def test_symplectic_eigenvalues_near_the_float_maximum():
    """Entries of 1e308 are symmetrized without overflow: 1e308 I on two modes has nu = 1e308 and energy 1e308."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(gd.symplectic_eigenvalues(1e308 * np.eye(4)), [1e308, 1e308])
        assert gd.energy(gd.validate_state(np.zeros(4), 1e308 * np.eye(4))) == 1e308


@pytest.mark.parametrize("k", [-1000, -540, -520, -500, 500, 510, 520, 1000, 1021])
def test_one_mode_spectrum_beyond_the_determinant_range_scales_exactly(k):
    """Scaling sigma by 2^k scales nu by 2^k bit for bit, also where det sigma over- or underflows.

    det sigma leaves the normal range from about 2^511 and 2^-511 entries; there the
    determinant is taken of sigma scaled by a power of two, and no warning is raised.
    """
    r, squeeze = np.array([[0.6, -0.8], [0.8, 0.6]]), np.diag([1.7, 0.3])
    cms = np.stack([r @ squeeze @ r.T, np.array([[2.5, 0.75], [0.75, 1.25]]), 3.0 * np.eye(2)])
    ref = gd.symplectic_eigenvalues(cms)
    assert np.array_equal(ref, np.sqrt(cms[:, 0, 0] * cms[:, 1, 1] - cms[:, 0, 1] ** 2)[:, None])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(gd.symplectic_eigenvalues(np.ldexp(cms, k)), np.ldexp(ref, k))
        assert np.array_equal(gd.symplectic_eigenvalues(np.ldexp(cms[1], k)), np.ldexp(ref[1], k))
        mixed = np.stack([cms[0], np.ldexp(cms[1], k), cms[2]])  # only the far member is scaled
        assert np.array_equal(gd.symplectic_eigenvalues(mixed), [ref[0], np.ldexp(ref[1], k), ref[2]])


def test_one_and_two_modes_near_the_float_maximum_give_one_verdict():
    """1e308 I on one mode, whose det overflows, has nu = 1e308 and ergotropy 0, as on two modes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(gd.symplectic_eigenvalues(1e308 * np.eye(2)), [1e308])
        for n in (1, 2):
            report = gd.ergotropy_report(gd.validate_state(np.zeros(2 * n), 1e308 * np.eye(2 * n)))
            assert (report.energy, report.passive_energy, report.ergotropy) == (n * 5e307, n * 5e307, 0.0)
    with pytest.raises(UnphysicalStateError, match="not positive definite"):
        gd.symplectic_eigenvalues(np.array([[1e-200, 0.0], [0.0, -1e-200]]))


@pytest.mark.parametrize(
    "cm",
    [
        [[1e-200, 1e150], [1e150, 1e-200]],  # det -1e300: normal, so not rescaled
        [[1e-300, 1e-300], [1e-300, 1e-300]],  # det underflows to 0: singular after the scaling
    ],
)
def test_one_mode_indefinite_far_from_one_is_unphysical_without_a_warning(cm):
    """Indefinite one-mode members far from 1 raise UnphysicalStateError, not a floating-point warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnphysicalStateError, match="not positive definite"):
            gd.symplectic_eigenvalues(np.stack([np.eye(2), np.array(cm)]))


@pytest.mark.parametrize("cm", [[[1e308, 1e308], [1e308, 1e308]], [[1e308, 2e307], [2e307, -1e308]]])
def test_one_mode_rejection_near_the_float_maximum_reports_validate_states_eigenvalue(cm):
    """A rejected one-mode member near the float maximum reports validate_state's smallest eigenvalue, with no warning."""
    cm = np.array(cm)
    with pytest.raises(UnphysicalStateError) as info:
        gd.validate_state(np.zeros(2), cm)
    lam = str(info.value).rpartition("min eig = ")[2]
    assert lam in ("0.000e+00", "-1.020e+308")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stack, where in ((cm, ""), (np.stack([np.eye(2), cm]), " at stack index 1")):
            with pytest.raises(UnphysicalStateError) as info:
                gd.symplectic_eigenvalues(stack)
            assert str(info.value) == f"covariance matrix not positive definite{where}: min eig = {lam}"


@pytest.mark.parametrize("name", ["dsyevd", "zheevd"])
def test_eigenvalue_non_convergence_in_the_physicality_check_is_a_numeric_error(monkeypatch, name):
    """A nonzero dsyevd or zheevd info is a numeric failure (NumericError), not numpy's LinAlgError (a ValueError)."""
    import scipy.linalg.lapack

    evd = getattr(scipy.linalg.lapack, name)
    monkeypatch.setattr(scipy.linalg.lapack, name, lambda *args, **kwargs: (*evd(*args, **kwargs)[:-1], 3))
    with pytest.raises(gd.NumericError, match="^Eigenvalues did not converge$"):
        gd.validate_state(np.zeros(6), np.eye(6))


def test_one_mode_positivity_survives_widely_spread_eigenvalues():
    """Eigenvalues 1e24 apart pass the one-mode check, which tr/2 - hypot((a - d)/2, b) cancelled to 0."""
    cms = np.stack([np.eye(2), np.diag([1e-4, 1e20]), np.diag([1e20, 1e-4])])
    assert np.abs(gd.symplectic_eigenvalues(cms) - [[1.0], [1e8], [1e8]]).max() <= 1e-8
    indefinite = np.stack([np.eye(2), 3.0 * np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])])
    with pytest.raises(UnphysicalStateError, match=r"stack index 2: min eig = -1\.000e\+00"):
        gd.symplectic_eigenvalues(indefinite)
    with pytest.raises(UnphysicalStateError, match="stack index 1"):
        gd.symplectic_eigenvalues(np.stack([np.eye(2), -np.eye(2)]))


def test_energy_and_purity():
    """Energy is |mean|^2/2 + tr(sigma)/4; purity is 1/sqrt(det sigma)."""
    st = GaussianState([2.0, 0.0], 3.0 * np.eye(2))
    assert gd.energy(st) == pytest.approx(2.0 + 1.5)
    assert gd.purity(st) == pytest.approx(1.0 / 3.0)
    # pure squeezed state: purity 1 regardless of squeezing
    sq = gd.apply_symplectic(gd.vacuum(1), gd.squeezer(2.0))
    assert gd.purity(sq) == pytest.approx(1.0)
    # det sigma <= 0 raises instead of returning nan or inf
    for cm in (np.diag([1.0, -1.0]), np.diag([1.0, 0.0]), np.diag([1.0, 1.0, 1.0, -2.0])):
        with pytest.raises(gd.NumericError, match="non-positive determinant"):
            gd.purity(GaussianState(np.zeros(cm.shape[0]), cm))


def test_williamson_single_mode():
    """williamson_single_mode returns (nu, S) with S sigma S^T = nu I."""
    rng = np.random.default_rng(5)
    for _ in range(N_RANDOM):
        st = gd.random_state(rng, 1)
        nu, S = gd.williamson_single_mode(st.cm)
        gd.check_symplectic(S)
        assert np.allclose(S @ st.cm @ S.T, nu * np.eye(2), atol=1e-10)
        assert nu == pytest.approx(gd.symplectic_eigenvalues(st.cm)[0], abs=1e-10)
    with pytest.raises(ValueError, match="one mode"):
        gd.williamson_single_mode(np.eye(4))
    with pytest.raises(gd.SymmetryError, match="asymmetric"):
        gd.williamson_single_mode(np.array([[2.0, 0.5], [0.4, 2.0]]))
    # The smallest eigenvalue is reported as det / lam_max where tr / 2 - radius cancels (eigenvalues 1e16
    # apart), and as tr / 2 - radius where lam_max is 0.
    for cm in ([[1e16, 0.0], [0.0, -1.0]], [[0.0, 0.0], [0.0, -1.0]]):
        with pytest.raises(UnphysicalStateError, match=r"not positive definite: min eig = -1\.000e\+00$"):
            gd.williamson_single_mode(np.array(cm))
