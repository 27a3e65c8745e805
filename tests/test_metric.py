import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dirac_covariance,
    dirac_expect,
    dirac_variance,
    gb_closed,
    good_observable_for,
    gs_closed,
    metric_gb,
    metric_gs,
    metric_sqrt,
    random_operator,
    random_state,
)
from nhur import (
    EigenSystem,
    Example2Config,
    MetricValidationError,
    NotNormalizedError,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    broken_eigensystem,
    build_example2,
    commutator,
    g_covariance,
    g_expectation,
    g_variance,
    identity_metric,
    is_good_observable,
    metric_from_matrix,
    metric_from_right_eigenvectors,
    pt_hamiltonian,
    symmetric_eigensystem,
    validate_metric,
)

E0 = np.array([1.0, 0.0], dtype=complex)


@pytest.mark.parametrize("gamma", [0.3, 0.6, 0.9])
def test_eigenframe_metric_matches_closed_form_symmetric(gamma):
    metric = metric_from_right_eigenvectors(symmetric_eigensystem(gamma))
    npt.assert_allclose(metric.g, gs_closed(gamma), atol=1e-10)
    assert metric.validation.ok
    assert metric.provenance == "eigenframe"


@pytest.mark.parametrize("gamma", [1.2, 1.5, 2.0])
def test_eigenframe_metric_matches_closed_form_broken(gamma):
    metric = metric_from_right_eigenvectors(broken_eigensystem(gamma))
    npt.assert_allclose(metric.g, gb_closed(gamma), atol=1e-10)
    assert metric.validation.ok


def test_orthonormal_frame_gives_identity_metric():
    # the eigenframe of sigma_z
    values = np.array([1.0, -1.0])
    metric = metric_from_right_eigenvectors(EigenSystem.from_right(values, np.eye(2)))
    npt.assert_allclose(metric.g, np.eye(2), atol=1e-14)


def test_validate_metric_symmetric_phase_stationary():
    report = validate_metric(gs_closed(0.9), pt_hamiltonian(0.9))
    assert report.hermitian
    assert report.positive_definite
    assert report.stationarity_residual <= 1e-10


def test_validate_metric_broken_phase_not_stationary():
    # G of the broken phase does not commute with H(gamma) in the
    # intertwined sense; the residual is 2 sqrt(2) lambda.
    gamma = 1.2
    lam = np.sqrt(gamma * gamma - 1.0)
    report = validate_metric(gb_closed(gamma), pt_hamiltonian(gamma))
    assert report.stationarity_residual > 0.1
    npt.assert_allclose(
        report.stationarity_residual, 2.0 * np.sqrt(2.0) * lam, rtol=1e-10
    )


def test_validate_metric_identity_with_hermitian():
    h = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -0.5]])
    report = validate_metric(np.eye(2), h)
    assert report.stationarity_residual == 0.0


def test_validate_metric_flags_failures():
    report = validate_metric(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert not report.hermitian
    report = validate_metric(np.diag([1.0, -2.0]))
    assert report.hermitian
    assert not report.positive_definite
    assert report.min_eigenvalue == -2.0


def test_metric_from_matrix_rejects_invalid():
    with pytest.raises(MetricValidationError):
        metric_from_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(MetricValidationError):
        metric_from_matrix(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_metric_matrix_is_read_only():
    metric = metric_gs()
    with pytest.raises(ValueError):
        metric.g[0, 0] = 5.0


@pytest.mark.parametrize(
    "op,metric_name,expected",
    [
        ("h", "gs", True),
        ("sy", "gs", True),
        ("h", "gb", False),
        ("hinv", "gb", True),
        ("sy", "gb", True),
    ],
)
def test_good_observable_truth_table(op, metric_name, expected):
    gamma_s, gamma_b = 0.9, 1.2
    ops = {
        "h": pt_hamiltonian(gamma_s if metric_name == "gs" else gamma_b),
        "hinv": pt_hamiltonian(1.0 / gamma_b),
        "sy": np.array(SIGMA_Y),
    }
    metric = metric_gs(gamma_s) if metric_name == "gs" else metric_gb(gamma_b)
    check = is_good_observable(ops[op], metric)
    assert bool(check) is expected


def test_good_observable_residual_is_relative():
    metric = metric_gb(1.2)
    h = pt_hamiltonian(1.2)
    base = is_good_observable(h, metric).residual
    scaled = is_good_observable(1e6 * h, metric).residual
    npt.assert_allclose(base, scaled, rtol=1e-12)


def test_g_expectation_trivial_cases():
    ident = identity_metric(2)
    assert g_expectation(np.eye(2), E0, ident) == pytest.approx(1.0)
    assert g_expectation(np.array(SIGMA_Z), E0, ident) == pytest.approx(1.0)
    metric = metric_gs()
    psi = random_state(np.random.default_rng(3), metric)
    # <I>_G is the metric norm itself
    assert g_expectation(np.eye(2), psi, metric) == pytest.approx(1.0, abs=1e-12)


def test_good_observable_expectation_is_real():
    cfg = Example2Config.symmetric_default(alpha=0.0)
    a, _, psi, metric = build_example2(cfg)
    val = g_expectation(a, psi, metric)
    assert abs(val.imag) <= 1e-12


def test_g_expectation_requires_normalization():
    with pytest.raises(NotNormalizedError):
        g_expectation(np.eye(2), 2.0 * E0, identity_metric(2))


def test_g_variance_basic():
    ident = identity_metric(2)
    assert g_variance(np.array(SIGMA_Z), E0, ident) == 0.0
    assert g_variance(np.array(SIGMA_X), E0, ident) == pytest.approx(1.0)


def test_g_variance_matches_weighted_norm_oracle(rng):
    # Var_G(X) equals |G^(1/2) (X - <X>_G) psi|^2 for any X
    metric = metric_gs(0.9)
    root = metric_sqrt(np.asarray(metric.g))
    cfg = Example2Config.symmetric_default(alpha=np.pi)
    _, _, psi, _ = build_example2(cfg)
    for _ in range(50):
        x = random_operator(rng)
        mean = complex(np.vdot(psi, metric.g @ (x @ psi)))
        shifted = root @ ((x - mean * np.eye(2)) @ psi)
        oracle = float(np.vdot(shifted, shifted).real)
        npt.assert_allclose(g_variance(x, psi, metric), oracle, atol=1e-12)


def test_g_covariance_of_operator_with_itself_is_variance(rng):
    for metric in (identity_metric(2), metric_gs(), metric_gb()):
        psi = random_state(rng, metric)
        a = random_operator(rng)
        cov = g_covariance(a, a, psi, metric)
        assert abs(cov.imag) <= 1e-12
        npt.assert_allclose(cov.real, g_variance(a, psi, metric), atol=1e-12)


def test_g_covariance_pauli_case():
    cov = g_covariance(
        np.array(SIGMA_X), np.array(SIGMA_Y), E0, identity_metric(2)
    )
    npt.assert_allclose(cov, 1j, atol=1e-14)


def test_good_pair_bracket_identities(rng):
    # For good observables: 2 Im Cov = Re(i<[B,A]>_G) and
    # 2 Re Cov = <{A,B}>_G - 2<A>_G<B>_G, both real up to roundoff.
    for metric in (metric_gs(), metric_gb()):
        for _ in range(30):
            a = good_observable_for(rng, metric)
            b = good_observable_for(rng, metric)
            psi = random_state(rng, metric)
            cov = g_covariance(a, b, psi, metric)
            bracket = 1j * g_expectation(commutator(b, a), psi, metric)
            assert abs(bracket.imag) <= 1e-9
            npt.assert_allclose(2.0 * cov.imag, bracket.real, atol=1e-9)
            anti = g_expectation(a @ b + b @ a, psi, metric)
            prod = g_expectation(a, psi, metric) * g_expectation(b, psi, metric)
            npt.assert_allclose(
                2.0 * cov.real, (anti - 2.0 * prod).real, atol=1e-9
            )


def test_identity_metric_reduces_to_dirac_statistics(rng):
    ident = identity_metric(2)
    for _ in range(50):
        a = random_operator(rng)
        b = random_operator(rng)
        psi = random_state(rng, ident)
        npt.assert_allclose(
            g_expectation(a, psi, ident), dirac_expect(a, psi), atol=1e-13
        )
        npt.assert_allclose(
            g_variance(a, psi, ident), dirac_variance(a, psi), atol=1e-13
        )
        npt.assert_allclose(
            g_covariance(a, b, psi, ident),
            dirac_covariance(a, b, psi),
            atol=1e-13,
        )


@given(scale=st.floats(min_value=0.5, max_value=10.0))
@settings(max_examples=40, deadline=None)
def test_scale_gauge_invariance(scale):
    # replacing G by c G (with the state renormalized) changes nothing:
    # verdicts, expectations, variances, covariances all stay put
    rng = np.random.default_rng(11)
    base = metric_gs(0.9)
    scaled = metric_from_matrix(scale * np.asarray(base.g))
    a = random_operator(rng)
    b = random_operator(rng)
    psi = random_state(rng, base)
    psi_scaled = psi / np.sqrt(scale)
    assert bool(is_good_observable(a, scaled)) == bool(
        is_good_observable(a, base)
    )
    good = good_observable_for(rng, base)
    assert bool(is_good_observable(good, scaled)) == bool(
        is_good_observable(good, base)
    )
    npt.assert_allclose(
        g_variance(a, psi_scaled, scaled), g_variance(a, psi, base), atol=1e-10
    )
    npt.assert_allclose(
        g_covariance(a, b, psi_scaled, scaled),
        g_covariance(a, b, psi, base),
        atol=1e-10,
    )
