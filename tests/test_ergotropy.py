"""Unit tests for Gaussian ergotropy and the extraction unitary."""

import numpy as np
import pytest

import gaussdaemon as gd
from gaussdaemon import GaussianState

N_RANDOM = 100


def test_passive_states_have_zero_ergotropy():
    """Vacuum and thermal states are passive."""
    assert gd.ergotropy(gd.vacuum(1)) == 0.0
    assert gd.ergotropy(gd.vacuum(3)) == 0.0
    assert gd.ergotropy(gd.thermal(4.2, 2)) == 0.0


def test_displaced_state_ergotropy():
    """A displacement stores |d|^2/2 of extractable work on any passive CM."""
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = rng.normal(size=2)
        nu = 1.0 + rng.exponential(1.0)
        st = gd.displace(gd.thermal(nu), d)
        assert gd.ergotropy(st) == pytest.approx(0.5 * float(d @ d), abs=1e-12)


def test_squeezed_vacuum_ergotropy():
    """Squeezed vacuum: ergotropy = (cosh 2r - 1)/2 = sinh^2 r."""
    for r in (0.2, 0.5, 1.0, 2.0):
        st = gd.apply_symplectic(gd.vacuum(1), gd.squeezer(np.exp(r)))
        assert gd.ergotropy(st) == pytest.approx(np.sinh(r) ** 2, rel=1e-12)


def test_squeezed_thermal_ergotropy():
    """Squeezed thermal: nu (z^2 + 1/z^2 - 2)/4, phase independent."""
    nu, z = 2.0, 1.6
    target = nu * (z * z + 1.0 / (z * z) - 2.0) / 4.0
    for phi in (0.0, 0.4, 1.1):
        S = gd.rotation(phi) @ gd.squeezer(z)
        st = gd.apply_symplectic(gd.thermal(nu), S)
        assert gd.ergotropy(st) == pytest.approx(target, rel=1e-12)


def test_report_decomposition():
    """energy = passive_energy + ergotropy, with passive = half the spectrum sum."""
    rng = np.random.default_rng(23)
    for _ in range(N_RANDOM):
        n = int(rng.integers(1, 4))
        st = gd.random_state(rng, n)
        rep = gd.ergotropy_report(st)
        assert rep.energy == pytest.approx(gd.energy(st))
        assert rep.passive_energy == pytest.approx(0.5 * gd.symplectic_eigenvalues(st.cm).sum())
        assert rep.ergotropy == pytest.approx(rep.energy - rep.passive_energy, abs=1e-10)
        assert rep.ergotropy >= 0.0


def test_passive_energy_symplectic_invariant():
    """The passive energy depends only on the symplectic spectrum."""
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        st = gd.random_state(rng, n, mean_scale=0.0)
        S = gd.random_symplectic(rng, n)
        a = gd.ergotropy_report(st).passive_energy
        b = gd.ergotropy_report(gd.apply_symplectic(st, S)).passive_energy
        assert a == pytest.approx(b, rel=1e-9)


def test_extraction_unitary_reaches_passive_state():
    """Applying (S, d) maps the state to its zero-mean normal form."""
    rng = np.random.default_rng(31)
    for _ in range(N_RANDOM):
        st = gd.random_state(rng, 1)
        u = gd.extraction_unitary(st)
        gd.check_symplectic(u.symplectic)
        out = gd.displace(gd.apply_symplectic(st, u.symplectic), u.displacement)
        assert np.allclose(out.mean, 0.0, atol=1e-12)
        nu = gd.symplectic_eigenvalues(st.cm)[0]
        assert np.allclose(out.cm, nu * np.eye(2), atol=1e-9)
        # the energy released equals the ergotropy
        assert gd.energy(st) - gd.energy(out) == pytest.approx(gd.ergotropy(st), abs=1e-9)
    with pytest.raises(ValueError, match="one mode"):
        gd.extraction_unitary(gd.vacuum(2))


def test_cross_check_gate_covers_cancelled_terms():
    """Given terms of size C that cancel down to the values, the gate is 1e-12 C where that is the largest scale."""
    from gaussdaemon.ergotropy import _cross_check

    _cross_check(1.0, 1.0 + 0.9e-3, "x", 1e9)
    with pytest.raises(gd.NumericError, match="disagree"):
        _cross_check(1.0, 1.0 + 1.1e-3, "x", 1e9)
    _cross_check(1e9, 1e9 * (1.0 + 0.9e-12), "x", 1.0)
    with pytest.raises(gd.NumericError, match="disagree"):
        _cross_check(1e9, 1e9 * (1.0 + 1.1e-12), "x", 1.0)


def test_cross_check_gate_is_absolute_then_relative():
    """Gaps above 1e-9 fail up to magnitudes of 1e3; above that the gate is 1e-12 of the larger value."""
    from gaussdaemon.ergotropy import _cross_check

    for value in (0.0, 1.0, 1e3):
        _cross_check(value, value + 0.9e-9, "x")
        with pytest.raises(gd.NumericError, match="disagree"):
            _cross_check(value, value + 1.1e-9, "x")
    for value in (1e9, -1e70):
        _cross_check(value, value * (1.0 + 0.9e-12), "x")
        with pytest.raises(gd.NumericError, match="disagree"):
            _cross_check(value * (1.0 + 1.1e-12), value, "x")


def test_cross_check_label_callable_is_called_only_on_failure():
    """A callable label is formatted only when the check raises, into the text a string label gives."""
    from gaussdaemon.ergotropy import _cross_check

    calls = []

    def label():
        calls.append(None)
        return "x at theta=0.5"

    _cross_check(1.0, 1.0 + 0.9e-9, label)
    _cross_check(1.0, 1.0 + 0.9e-3, label, 1e9)
    assert calls == []
    with pytest.raises(gd.NumericError) as from_callable:
        _cross_check(1.0, 1.5, label)
    assert len(calls) == 1
    with pytest.raises(gd.NumericError) as from_string:
        _cross_check(1.0, 1.5, "x at theta=0.5")
    assert str(from_callable.value) == str(from_string.value)
    assert str(from_string.value) == "x at theta=0.5: closed form 1.0 and independent route 1.5 disagree"


def test_clamp_floor_is_absolute_then_relative():
    """Negatives down to max(CLAMP_NEG, 1e-12 E) are round-off and clamp to 0; below that they raise."""
    from gaussdaemon.ergotropy import CLAMP_NEG, clamp_ergotropy

    with pytest.raises(gd.NumericError, match=r"< -1\.0e-09"):
        clamp_ergotropy(-1e-6, "x", 1.0)
    for energy in (0.0, 1.0, 1e3):  # the old absolute floor, to the bit
        assert clamp_ergotropy(-CLAMP_NEG, "x", energy) == 0.0
        with pytest.raises(gd.NumericError):
            clamp_ergotropy(-np.nextafter(CLAMP_NEG, 1.0), "x", energy)
    for energy in (1e9, 5.5e76):
        assert clamp_ergotropy(-0.9e-12 * energy, "x", energy) == 0.0
        with pytest.raises(gd.NumericError):
            clamp_ergotropy(-1.1e-12 * energy, "x", energy)
