import math

import numpy as np
import numpy.testing as npt
import pytest

from helpers import good_observable_for, metric_gb, metric_gs, random_operator, random_state
from nhur import (
    Example1Config,
    Example2Config,
    Formalism,
    NotGoodObservableError,
    NotOrthogonalError,
    SIGMA_X,
    SIGMA_Y,
    build_example1,
    build_example2,
    evaluate_all,
    g_covariance,
    g_variance,
    identity_metric,
    pt_hamiltonian,
    ur1,
    ur2,
    ur3,
    ur4,
)
from nhur.tolerances import ur_tolerance

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
SX = np.array(SIGMA_X)
SY = np.array(SIGMA_Y)


def test_ur1_pauli_pair_saturates():
    ev = ur1(SX, SY, E0)
    assert ev.relation == "ur1"
    assert ev.formalism is Formalism.PLAIN
    npt.assert_allclose(ev.lhs, 2.0, atol=1e-14)
    npt.assert_allclose(ev.rhs, 2.0, atol=1e-14)
    npt.assert_allclose(ev.gap, 0.0, atol=1e-14)
    assert ev.holds
    assert ev.sign_branch is None
    assert not ev.degenerate


def test_ur2_pauli_pair():
    ev = ur2(SX, SY, E0)
    assert ev.relation == "ur2"
    npt.assert_allclose(ev.lhs, 2.0, atol=1e-14)
    npt.assert_allclose(ev.rhs, 0.0, atol=1e-14)
    npt.assert_allclose(ev.gap, 2.0, atol=1e-14)


def test_shared_eigenstate_collapses_everything():
    cfg = Example1Config(theta0=math.pi / 4)
    a, b, psi, metric = build_example1(cfg)
    for ev in evaluate_all(a, b, psi, metric):
        npt.assert_allclose(ev.lhs, 0.0, atol=1e-12)
        npt.assert_allclose(ev.rhs, 0.0, atol=1e-12)
        assert ev.holds


def test_ur2_identical_hermitian_operators_saturate(rng):
    h = random_operator(rng)
    h = h + h.conj().T
    psi = random_state(rng, identity_metric(2))
    ev = ur2(h, h, psi)
    npt.assert_allclose(ev.gap, 0.0, atol=1e-12)


def test_ur3_pauli_pair_branch_values():
    # A + iB annihilates the state here, so the plus branch bound is pure
    # covariance while the minus branch trades sign for the matrix element
    for sign, expected in (("plus", 2.0), ("minus", 2.0)):
        ev = ur3(SX, SY, E0, psi_perp=E1, sign=sign)
        assert ev.sign_branch == sign
        npt.assert_allclose(ev.rhs, expected, atol=1e-14)
        npt.assert_allclose(ev.gap, 0.0, atol=1e-14)
    ev = ur3(SX, SY, E0, psi_perp=E1, sign="max")
    npt.assert_allclose(ev.rhs, 2.0, atol=1e-14)


def test_ur3_saturates_in_two_dimensions(rng):
    # the complement of a 2d state is unique, which forces equality
    for metric, formalism in (
        (identity_metric(2), Formalism.PLAIN),
        (metric_gs(), Formalism.GMETRIC),
        (metric_gb(), Formalism.GMETRIC),
    ):
        for _ in range(40):
            a = random_operator(rng)
            b = random_operator(rng)
            psi = random_state(rng, metric)
            ev = ur3(a, b, psi, metric, formalism)
            npt.assert_allclose(ev.gap, 0.0, atol=1e-9)


def test_ur3_rejects_non_orthogonal_override():
    with pytest.raises(NotOrthogonalError):
        ur3(SX, SY, E0, psi_perp=np.array([1.0, 1.0]) / math.sqrt(2.0))


def test_ur3_rejects_unknown_sign():
    with pytest.raises(ValueError):
        ur3(SX, SY, E0, sign="bogus")


def test_ur4_degenerate_branches_report_zero():
    cfg = Example1Config(theta0=math.pi / 4)
    a, b, psi, metric = build_example1(cfg)
    ev = ur4(a, b, psi, metric)
    assert ev.degenerate
    npt.assert_allclose(ev.rhs, 0.0, atol=1e-14)
    assert ev.holds


def test_ur4_equals_half_variance_of_sum(rng):
    # the auxiliary-state construction makes each branch bound equal to
    # half the variance of A plus-or-minus B
    metric = metric_gs()
    for _ in range(30):
        a = good_observable_for(rng, metric)
        b = good_observable_for(rng, metric)
        psi = random_state(rng, metric)
        ev = ur4(a, b, psi, metric, Formalism.GOOD)
        vp = g_variance(a + b, psi, metric)
        vm = g_variance(a - b, psi, metric)
        npt.assert_allclose(ev.rhs, 0.5 * max(vp, vm), atol=1e-10)
        expected = "plus" if vp >= vm else "minus"
        assert ev.sign_branch == expected


def test_evaluate_all_order_and_equivalence(rng):
    metric = metric_gs()
    a = good_observable_for(rng, metric)
    b = good_observable_for(rng, metric)
    psi = random_state(rng, metric)
    evs = evaluate_all(a, b, psi, metric, Formalism.GOOD)
    assert [e.relation for e in evs] == ["ur1", "ur2", "ur3", "ur4"]
    singles = (
        ur1(a, b, psi, metric, Formalism.GOOD),
        ur2(a, b, psi, metric, Formalism.GOOD),
        ur3(a, b, psi, metric, Formalism.GOOD),
        ur4(a, b, psi, metric, Formalism.GOOD),
    )
    for got, want in zip(evs, singles):
        assert got.lhs == want.lhs
        assert got.rhs == want.rhs
        assert got.sign_branch == want.sign_branch


def test_evaluate_all_broken_phase_defaults_hold():
    a, b, psi, metric = build_example2(Example2Config.broken_default())
    for ev in evaluate_all(a, b, psi, metric, Formalism.GOOD):
        assert ev.holds
        assert ev.gap >= -1e-9


def test_parallelogram_identity(rng):
    for metric in (identity_metric(2), metric_gs(), metric_gb()):
        for _ in range(60):
            a = random_operator(rng)
            b = random_operator(rng)
            psi = random_state(rng, metric)
            va = g_variance(a, psi, metric)
            vb = g_variance(b, psi, metric)
            vp = g_variance(a + b, psi, metric)
            vm = g_variance(a - b, psi, metric)
            npt.assert_allclose(2 * va + 2 * vb, vp + vm, atol=1e-10)


def test_quadratic_certificates_stay_nonnegative(rng):
    # Var A + t^2 Var B + 2 t Re/Im Cov is a squared norm for every real t
    for metric in (identity_metric(2), metric_gs(), metric_gb()):
        for _ in range(40):
            a = random_operator(rng)
            b = random_operator(rng)
            psi = random_state(rng, metric)
            va = g_variance(a, psi, metric)
            vb = g_variance(b, psi, metric)
            cov = g_covariance(a, b, psi, metric)
            for t in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
                qi = va + t * t * vb + 2 * t * cov.imag
                qr = va + t * t * vb + 2 * t * cov.real
                assert qi >= -1e-10
                assert qr >= -1e-10


def test_good_formalism_agrees_with_direct_weighting(rng):
    # for operators compatible with the metric the bracket identities give
    # the same bounds as the covariance form
    for metric in (metric_gs(), metric_gb()):
        for _ in range(40):
            a = good_observable_for(rng, metric)
            b = good_observable_for(rng, metric)
            psi = random_state(rng, metric)
            gm = evaluate_all(a, b, psi, metric, Formalism.GMETRIC)
            gd = evaluate_all(a, b, psi, metric, Formalism.GOOD)
            for x, y in zip(gm, gd):
                npt.assert_allclose(x.rhs, y.rhs, atol=1e-9)
                npt.assert_allclose(x.lhs, y.lhs, atol=1e-12)


def test_good_formalism_rejects_incompatible_operator():
    metric = metric_gb()
    psi = random_state(np.random.default_rng(0), metric)
    with pytest.raises(NotGoodObservableError):
        ur1(pt_hamiltonian(1.2), SY, psi, metric, Formalism.GOOD)


def test_plain_formalism_ignores_supplied_metric(rng):
    a = random_operator(rng)
    b = random_operator(rng)
    psi = random_state(rng, identity_metric(2))
    plain = evaluate_all(a, b, psi)
    weighted = evaluate_all(a, b, psi, metric_gs(), Formalism.PLAIN)
    for x, y in zip(plain, weighted):
        assert x.lhs == y.lhs
        assert x.rhs == y.rhs


def test_tolerance_env_override(monkeypatch):
    monkeypatch.delenv("NHUR_TOLERANCE_UR", raising=False)
    base = ur_tolerance()
    monkeypatch.setenv("NHUR_TOLERANCE_UR", "0.125")
    assert ur_tolerance() == 0.125
    monkeypatch.setenv("NHUR_TOLERANCE_UR", "abc")
    assert ur_tolerance() == base
    monkeypatch.setenv("NHUR_TOLERANCE_UR", "-3")
    assert ur_tolerance() == base


def test_holds_respects_explicit_tolerance():
    a, b, psi, metric = build_example1(Example1Config(theta0=0.3))
    strict = ur2(a, b, psi, metric, ur_tol=1e-300)
    loose = ur2(a, b, psi, metric, ur_tol=1e6)
    assert loose.holds
    # gap here is strictly positive so both verdicts agree; flip the pair to
    # force a negative gap and check the huge tolerance still accepts it
    swapped = ur2(b, a, psi, metric, ur_tol=1e6)
    assert swapped.holds
    assert strict.gap == loose.gap
