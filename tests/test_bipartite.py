"""Unit tests for two-mode standard forms and daemonic ergotropy closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from scipy.linalg import block_diag

import gaussdaemon as gd
from gaussdaemon import GeneralDyneSetting, NumericError, UnphysicalStateError
from gaussdaemon import bipartite
from gaussdaemon.bipartite import _optimal_det_coefficients
from gaussdaemon.symplectic import TOL_PSD
from standard_form_reference import degenerate_states, form_cm, reference_standard_form

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


def _same_up_to_sign(x, ref):
    """The sign s in {1, -1} with x = s ref, and the relative gap |x - s ref| / |ref|."""
    sign = 1.0 if np.abs(x - ref).max() <= np.abs(x + ref).max() else -1.0
    return sign, np.abs(x - sign * ref).max() / np.abs(ref).max()


def _compare_with_reference(st, compare_eta):
    """Parameters within 1e-12 of the eigensolver reference; with compare_eta, eta mod pi and signs too."""
    sf, s_a, s_b = gd.standard_form(st)
    ref, r_a, r_b = reference_standard_form(st)
    params = (sf.a, sf.z_a, sf.b, sf.c_plus, sf.c_minus)
    scale = max(abs(x) for x in ref[:5])
    assert max(abs(x - y) for x, y in zip(params, ref[:5])) <= 1e-12 * scale, (params, ref)
    S = block_diag(s_a, s_b)
    assert np.abs(S @ st.cm @ S.T - sf.cm).max() <= 1e-12 * scale
    assert -0.5 * math.pi <= sf.eta < 0.5 * math.pi
    if compare_eta:
        turns = (sf.eta - ref[5]) / math.pi
        assert abs(turns - round(turns)) <= 1e-10, (sf.eta, ref[5])
        sign_a, gap_a = _same_up_to_sign(s_a, r_a)
        sign_b, gap_b = _same_up_to_sign(s_b, r_b)
        assert gap_a <= 1e-10 and gap_b <= 1e-10
        assert sign_a * sign_b == (-1.0) ** round(turns)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    st_.integers(min_value=0, max_value=2**32 - 1),
    st_.floats(min_value=0.0, max_value=math.log(20.0)),
    st_.floats(min_value=0.0, max_value=math.log(20.0)),
)
def test_standard_form_matches_eigensolver_reference(seed, log_squeeze, log_thermal):
    """The closed-form reduction reproduces the eigh/svd reduction of tests/standard_form_reference.py.

    (a, z_A, b, c_+, c_-) agree within 1e-12 of their scale, eta modulo pi,
    and s_a, s_b up to signs whose product is the parity of that multiple of
    pi.  eta is compared only away from the degenerate forms (z_A = 1 or
    c_+ = |c_-|), where it is not determined.
    """
    rng = np.random.default_rng(seed)
    squeeze, thermal = math.exp(log_squeeze) + 1e-3, math.exp(log_thermal) + 1.0
    st = gd.random_two_mode_state(rng, max_squeeze=squeeze, max_thermal=thermal)
    sf, _, _ = gd.standard_form(st)
    generic = sf.z_a - 1.0 > 1e-4 and sf.c_plus - abs(sf.c_minus) > 1e-4 * sf.c_plus
    _compare_with_reference(st, compare_eta=generic)


def test_standard_form_matches_reference_on_degenerate_states():
    """sigma_A proportional to I, c_+ = 0 and c_+ = |c_-|: same parameters as the reference, any valid eta.

    The TMSTS itself is reduced exactly as the reference does it, eta included
    (the README example prints eta = -pi/2).
    """
    rng = np.random.default_rng(211)
    for _ in range(200):
        for family, st in degenerate_states(rng):
            _compare_with_reference(st, compare_eta=family == "tmsts")
    sf, s_a, _ = gd.standard_form(gd.tmsts(1.0, 0.5))
    assert sf.eta == -0.5 * math.pi
    assert np.array_equal(s_a, [[0.0, 1.0], [-1.0, 0.0]])


def _eigenvalue_test_accepts(cm):
    """The eigenvalue physicality test: eig(sigma) > 0 and eig(sigma + i Omega) >= -TOL_PSD."""
    omega = gd.symplectic_form(cm.shape[0] // 2)
    return np.linalg.eigvalsh(cm).min() > 0.0 and np.linalg.eigvalsh(cm + 1j * omega).min() >= -TOL_PSD


def _accepts(build, *args, **kwargs):
    """Whether build(*args, **kwargs) returns rather than raising UnphysicalStateError."""
    try:
        build(*args, **kwargs)
    except UnphysicalStateError:
        return False
    return True


def test_physicality_check_matches_eigenvalue_test_at_the_boundary():
    """Forms scaled to nu_- = 1 + delta, |delta| >= 2e-8, are accepted exactly when eig(sigma + i Omega) >= -1e-9.

    Scaling sigma by s scales its symplectic spectrum by s, so each random
    form straddles the boundary; within +-1e-8 of it the two tests may round
    differently.  Strongly squeezed forms are accepted a little below
    nu_- = 1, since their sigma + i Omega has its smallest eigenvalue far
    below nu_- - 1.  The form's CM given to validate_state gets the same verdict.
    """
    rng = np.random.default_rng(223)
    outcomes = set()
    for k in range(200):
        sf, _, _ = gd.standard_form(gd.random_two_mode_state(rng, max_squeeze=20.0 if k % 2 else 2.0))
        nu_min = gd.symplectic_eigenvalues(sf.cm)[-1]
        for delta in (-1e-4, -1e-6, -1e-7, -2e-8, 2e-8, 1e-7, 1e-6, 1e-4):
            s = (1.0 + delta) / nu_min
            params = dict(a=s * sf.a, z_a=sf.z_a, b=s * sf.b, c_plus=s * sf.c_plus, c_minus=s * sf.c_minus, eta=sf.eta)
            expected = _eigenvalue_test_accepts(form_cm(**params))
            accepted = _accepts(gd.TwoModeStandardForm, **params)
            assert accepted == expected == _accepts(gd.validate_state, np.zeros(4), form_cm(**params)), (params, delta)
            outcomes.add((delta, accepted))
    assert {(-1e-4, False), (-1e-7, True), (-1e-7, False), (2e-8, True)} <= outcomes


@settings(derandomize=True, database=None, deadline=None, max_examples=1500)
@given(
    st_.integers(min_value=0, max_value=2**32 - 1),
    st_.sampled_from([1, 2, 3]),
    st_.floats(min_value=0.0, max_value=math.log(3.0)),
    st_.sampled_from([-1.0, 1.0]),
    st_.floats(min_value=math.log(2e-8), max_value=math.log(1e-3)),
)
def test_validate_state_matches_eigenvalue_test_at_the_boundary(seed, n, log_squeeze, sign, log_delta):
    """Random states of 1, 2 and 3 modes scaled to nu_- = 1 + delta get the eigenvalue test's verdict.

    validate_state decides up to two modes in closed form, from det sigma and
    Delta, and from three modes on by eigvalsh; squeezing is at most 3 and
    |delta| at least 2e-8, outside the band where the two may round differently.
    """
    state = gd.random_state(np.random.default_rng(seed), n, max_squeeze=math.exp(log_squeeze))
    cm = (1.0 + sign * math.exp(log_delta)) / gd.symplectic_eigenvalues(state.cm)[-1] * state.cm
    assert _accepts(gd.validate_state, state.mean, cm) == _eigenvalue_test_accepts(cm), (seed, n, log_delta)


def test_pure_states_are_physical():
    """Pure states pass the invariant test, whose det sigma = 1 and Delta = 2 cancel from much larger terms.

    Pure TMSTS up to r = 5, and pure states S S^T with local squeezing up to
    200 whenever validate_state accepts them; without the round-off allowance
    a third of the latter were rejected.
    """
    for r in np.linspace(0.0, 5.0, 101):
        sf, _, _ = gd.standard_form(gd.tmsts(0.0, float(r)))
        assert sf.c_minus == -sf.c_plus
    rng = np.random.default_rng(233)
    for _ in range(300):
        s = gd.random_symplectic(rng, 2, max_squeeze=math.exp(rng.uniform(0.0, math.log(200.0))))
        cm = s @ s.T
        gd.standard_form(gd.validate_state(np.zeros(4), 0.5 * (cm + cm.T)))


def test_reduction_errors_are_typed():
    """Unphysical blocks raise UnphysicalStateError; invariants past the float range raise NumericError."""
    with pytest.raises(UnphysicalStateError, match="sigma_A is not positive definite"):
        gd.standard_form(gd.GaussianState(np.zeros(4), np.diag([-1.0, 1.0, 1.0, 1.0])))
    with pytest.raises(UnphysicalStateError, match="not positive definite: min eig = -1"):
        gd.standard_form(gd.GaussianState(np.zeros(4), np.diag([1.0, 1.0, 1.0, -1.0])))
    with pytest.raises(UnphysicalStateError, match="unphysical"):
        gd.standard_form(gd.GaussianState(np.zeros(4), form_cm(1.2, 1.0, 1.2, 1.19, -1.19, 0.3)))
    with pytest.raises(UnphysicalStateError, match="unphysical"):  # det sigma = 99^2 and Delta = 202, but sigma < 0
        gd.TwoModeStandardForm(a=1.0, z_a=1.0, b=1.0, c_plus=10.0, c_minus=10.0, eta=0.0)
    with pytest.raises(UnphysicalStateError, match="sigma_A is not positive definite"):
        gd.unconditional_ergotropy_a(gd.GaussianState(np.zeros(4), np.diag([1.0, -1.0, 1.0, 1.0])))
    for cm in (1e100 * np.eye(4), 1e160 * np.eye(4), np.diag([1e160, 1e160, 1.0, 1.0])):
        with pytest.raises(NumericError, match="overflow"):
            gd.standard_form(gd.GaussianState(np.zeros(4), cm))
    with pytest.raises(ValueError, match="eta must be finite"):
        gd.TwoModeStandardForm(a=2.0, z_a=1.0, b=2.0, c_plus=0.5, c_minus=0.5, eta=math.inf)
    with pytest.raises(UnphysicalStateError):
        gd.TwoModeStandardForm(a=math.nan, z_a=1.0, b=2.0, c_plus=0.5, c_minus=0.5, eta=0.0)


def _forbid(*_, **__):
    raise AssertionError("numpy.linalg called on the two-mode path")


def test_two_mode_path_uses_no_numpy_linear_algebra(monkeypatch):
    """standard_form, the reduced ergotropy, the phase, the three maxima and the pipeline run without np.linalg."""
    rng = np.random.default_rng(227)
    states = [gd.random_two_mode_state(rng) for _ in range(30)]
    settings_ = [gd.random_setting(rng, efficient=bool(k % 2)) for k in range(30)]
    for name in ("eigh", "eigvalsh", "svd", "det", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, _forbid)
    for st, setting in zip(states, settings_):
        sf, s_a, _ = gd.standard_form(st)
        mean_a = s_a @ st.mean[:2]
        gd.unconditional_ergotropy_a(st)
        gd.optimal_phase(sf, 0.0)
        gd.max_daemonic(sf, mean_a)
        gd.max_daemonic_homodyne(sf, mean_a)
        gd.daemonic_heterodyne(sf, mean_a)
        gd.daemonic_ergotropy(st, setting)


def test_pipeline_routes_do_not_touch_the_closed_forms(monkeypatch):
    """The pipeline of _closed_form and criterion 3's pipeline route run with the closed forms disabled.

    Forms are built first (their construction evaluates _det_invariants);
    then _det_invariants, _det_coefficients and conditional_determinant raise,
    and both pipeline routes must still agree with the closed forms computed
    afterwards.  _closed_form must check against _pipeline on the form's CM.
    """
    rng = np.random.default_rng(229)
    sfs = [gd.random_standard_form(rng) for _ in range(10)]
    grid = [GeneralDyneSetting(theta_m=th, z_m=z) for th in (0.0, 0.7, 2.0) for z in (1e-6, 0.05, 1.0)]
    grid += [gd.homodyne(0.4), gd.heterodyne()]
    mean_a = (0.3, -0.2)
    for name in ("_det_invariants", "_det_coefficients", "conditional_determinant"):
        monkeypatch.setattr(bipartite, name, _forbid)
    pipeline = [
        (bipartite._pipeline(sf.cm, *mean_a, s)[0], gd.daemonic_ergotropy(sf.to_state(mean_a), s).value)
        for sf in sfs
        for s in grid
    ]
    monkeypatch.undo()
    conditioned = []

    def spy(cm, *args):
        conditioned.append(cm)
        return pipeline_route(cm, *args)

    pipeline_route = bipartite._pipeline
    monkeypatch.setattr(bipartite, "_pipeline", spy)
    closed = []
    for sf in sfs:
        for s in grid:
            result, checked_against = bipartite._closed_form(sf, mean_a, s)
            assert conditioned.pop() is sf.cm
            closed.append((result.value, checked_against))
    for (route, criterion_3), (value, checked_against) in zip(pipeline, closed):
        assert route == criterion_3 == checked_against
        assert abs(route - value) <= 1e-9


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
    with pytest.raises(UnphysicalStateError, match="local squeezing must be positive"):
        gd.TwoModeStandardForm(a=2.0, z_a=0.0, b=3.0, c_plus=1.0, c_minus=-0.5, eta=0.0)
    with pytest.raises(ValueError, match="two-mode"):
        gd.standard_form(gd.vacuum(1))
    with pytest.raises(ValueError, match="daemonic ergotropy requires a two-mode state, got 1 modes"):
        gd.daemonic_ergotropy(gd.vacuum(1), gd.heterodyne())


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
    for z_m in (-0.1, 1.5):
        with pytest.raises(ValueError, match=r"z_m must lie in \[0, 1\]"):
            gd.conditional_determinant(sf, 0.0, z_m)
        with pytest.raises(ValueError, match=r"z_m must lie in \[0, 1\]"):
            gd.optimal_phase(sf, z_m)


def test_optimal_phase_against_grid():
    """The closed-form phase beats a dense grid of the determinant, at homodyne and at a random z_m."""
    rng = np.random.default_rng(109)
    thetas = np.linspace(0, np.pi, 720, endpoint=False)
    for _ in range(50):
        sf = gd.random_standard_form(rng)
        for z in (0.0, float(np.exp(rng.uniform(np.log(1e-3), 0.0)))):
            phase = gd.optimal_phase(sf, z)
            det_star = gd.conditional_determinant(sf, phase.angle, z)
            grid_min = min(gd.conditional_determinant(sf, t, z) for t in thetas)
            assert det_star <= grid_min + 1e-10, (sf, z)


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


def test_maxima_measure_at_the_optimal_phase():
    """max_daemonic_homodyne, and max_daemonic unless it reports heterodyne, measure at optimal_phase(sf, 0)."""
    rng = np.random.default_rng(233)
    for _ in range(50):
        sf = gd.random_standard_form(rng)
        theta = gd.optimal_phase(sf, 0.0).angle
        assert gd.max_daemonic_homodyne(sf).setting == gd.homodyne(theta)
        best = gd.max_daemonic(sf).setting
        assert best.theta_m == (theta if best.z_m < 1.0 else 0.0), sf


def test_daemonic_result_is_an_immutable_named_tuple():
    """DaemonicResult keeps its fields, keyword constructor, repr and equality, and refuses assignment."""
    sf, _, _ = gd.standard_form(gd.tmsts(1.0, 0.5))
    assert gd.DaemonicResult._fields == ("value", "setting", "conditional_purity")
    best = gd.max_daemonic(sf)
    value, setting, purity = best
    assert (value, setting, purity) == (best.value, best.setting, best.conditional_purity)
    same = gd.DaemonicResult(value=value, setting=setting, conditional_purity=purity)
    assert same == best and hash(same) == hash(best)
    assert repr(same) == f"DaemonicResult(value={value!r}, setting={setting!r}, conditional_purity={purity!r})"
    assert repr(best) == repr(same)
    with pytest.raises(AttributeError):
        best.value = 0.0
    st = gd.tmsts(1.0, 0.5)
    setting = GeneralDyneSetting(theta_m=0.3, z_m=0.2)
    assert gd.daemonic_ergotropy(st, setting) == gd.daemonic_ergotropy(st, setting)


def test_closed_form_labels_its_check_with_a_callable(monkeypatch):
    """_closed_form hands its cross-check a callable label that names the setting, with the text it always had."""
    sf = gd.TwoModeStandardForm(a=2.0, z_a=1.4, b=2.0, c_plus=1.0, c_minus=0.5, eta=0.2)
    setting = GeneralDyneSetting(theta_m=0.7, z_m=0.25)
    labels = []
    check = bipartite._cross_check

    def spy(closed, independent, what, cancelled):
        labels.append(what)
        check(closed, independent, what, cancelled)

    monkeypatch.setattr(bipartite, "_cross_check", spy)
    result, pipeline = bipartite._closed_form(sf, (0.1, 0.2), setting)
    assert callable(labels[0])
    assert labels[0]() == "daemonic ergotropy at theta=0.7, z_m=0.25"
    pipeline_route = bipartite._pipeline
    monkeypatch.setattr(bipartite, "_pipeline", lambda *args: (pipeline_route(*args)[0] + 1e-6, None))
    message = f"daemonic ergotropy at theta=0.7, z_m=0.25: closed form {result.value!r} and independent route "
    with pytest.raises(NumericError) as info:
        bipartite._closed_form(sf, (0.1, 0.2), setting)
    assert str(info.value) == message + f"{pipeline + 1e-6!r} disagree"


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

    def test_interior_tie_goes_to_heterodyne(self, monkeypatch):
        """An interior candidate that only ties heterodyne does not win, by the _TIE_TOL margin.

        Every efficient setting purifies a pure TMSTS, so an interior point
        forced at z_m = 0.5 ties heterodyne to round-off; comparing against
        value - _TIE_TOL instead would report it.
        """
        monkeypatch.setattr(bipartite, "_interior_minimum", lambda sf: 0.5)
        for r in (0.3, 0.7, 1.8404):
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
