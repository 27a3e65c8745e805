import json
import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from helpers import (good_observable_for, metric_gb, metric_gs, problem_payload,
                     random_operator, random_state)
from nhur import (
    DimensionMismatchError,
    Example1Config,
    Example2Config,
    Formalism,
    NotGoodObservableError,
    NotOrthogonalError,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    build_example1,
    build_example2,
    evaluate_all,
    example1_sweep,
    example2_sweep,
    g_covariance,
    g_variance,
    identity_metric,
    pt_hamiltonian,
    sweep,
    ur1,
    ur2,
    ur3,
    ur4,
)
from nhur import relations
from nhur.cli import main

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
    # a joint eigenstate, and A = B = 0, where S = |A psi|^2 + |B psi|^2 is 0
    cfg = Example1Config(theta0=math.pi / 4)
    a, b, psi, metric = build_example1(cfg)
    for a, b in ((a, b), (np.zeros((2, 2)), np.zeros((2, 2)))):
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
    # covariance while the minus branch trades sign for the matrix element;
    # both are exactly 2, a tie that goes to plus
    ev = ur3(SX, SY, E0, psi_perp=E1)
    assert (ev.rhs, ev.gap, ev.sign_branch) == (2.0, 0.0, "plus")


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



@pytest.fixture
def faulty_ur3(monkeypatch):
    """A kernel fault in one bound: ur3's rhs, which equals lhs for the
    default auxiliary state, reaches the verdict inflated by 1 + 1e-6."""
    rule = relations.ur_holds
    inflate = np.array([[1.0], [1.0], [1.0 + 1e-6], [1.0]])
    monkeypatch.setattr(relations, "ur_holds",
                        lambda lhs, rhs, scale: rule(lhs, rhs * inflate, scale))


def _scale(a, b, psi, g) -> float:
    """S = |A psi|_G^2 + |B psi|_G^2, formed directly."""
    return sum(np.vdot(x @ psi, g @ (x @ psi)).real for x in (a, b))


@pytest.mark.parametrize("scenario, exempt", [
    (None, 10), (Example2Config.symmetric_default(), 0),
    (Example2Config.broken_default(), 0)], ids=["example1", "symmetric", "broken"])
def test_a_fault_in_a_bound_fails_the_verdict(faulty_ur3, scenario, exempt):
    # ur3 with the default auxiliary state is tight, so its inflated bound
    # passes lhs by 1e-6 lhs: beyond EPS_UR S wherever lhs >= 1e-3 S, which
    # misses only example1's near joint eigenstates
    if scenario is None:
        sw = example1_sweep(points=721)
        points = [build_example1(Example1Config(theta0=x)) for x in sw.param.tolist()]
    else:
        sw = example2_sweep(scenario, 721)
        points = [build_example2(replace(scenario, alpha=x)) for x in sw.param.tolist()]
    assert sw.ok.all() and sw.holds[[0, 1, 3]].all()
    scale = np.array([_scale(a, b, psi, g.g) for a, b, psi, g in points])
    faulted = sw.lhs >= 1e-3 * scale
    assert not sw.holds[2, faulted].any()
    assert np.count_nonzero(~faulted) == exempt


def test_a_fault_in_a_bound_fails_the_cli(faulty_ur3, tmp_path, capsys):
    a, b, psi, g = build_example2(Example2Config.symmetric_default(alpha=1.0))
    inp, rep = tmp_path / "problem.json", tmp_path / "report.json"
    inp.write_text(json.dumps(problem_payload(a, b, psi, g, "good")))
    assert main(["check", "--input", str(inp), "--out", str(rep)]) == 1
    report = json.loads(rep.read_text())
    assert report["all_hold"] is False
    assert [ev["holds"] for ev in report["evaluations"]] == [True, True, False, True]
    assert "inequality violation beyond tolerance 1e-09" in capsys.readouterr().out
    out = tmp_path / "sweep.csv"
    argv = ["example2", "--phase", "symmetric", "--points", "181", "--out", str(out)]
    assert main(argv) == 1
    stdout = capsys.readouterr().out
    assert stdout.count("VIOLATION: ur3 ") == stdout.count("VIOLATION") == 181
    assert "181 inequality violations beyond tolerance 1e-09" in stdout


def test_metric_of_another_size_is_rejected_at_the_boundary():
    with pytest.raises(DimensionMismatchError,
                       match="^metric is 3x3 but the operators are 2x2$"):
        evaluate_all(SIGMA_X, SIGMA_Z, E0, identity_metric(3), Formalism.GMETRIC)


# ---- the formalism and metric arguments at the public entries -----------

def _symmetric(alpha, formalism=Formalism.GOOD):
    return build_example2(Example2Config.symmetric_default(alpha), formalism)


def _sweep_values(result):
    """Everything a Sweep holds, in comparable form."""
    return (result.formalism, [None if e is None else str(e) for e in result.errors],
            *(x.tolist() for x in (result.param, result.lhs, result.rhs, result.gap,
                                   result.holds, result.minus, result.degenerate)))


# each public entry that takes a formalism f, run on the symmetric PT
# problem with its state normalized in the statistics of formalism m
ENTRIES = {
    "evaluate_all": lambda f, m: evaluate_all(*_symmetric(0.7, m), f),
    **{fn.__name__: lambda f, m, fn=fn: fn(*_symmetric(0.7, m), f)
       for fn in (ur1, ur2, ur3, ur4)},
    "sweep": lambda f, m: _sweep_values(
        sweep(lambda x: _symmetric(x, m), (0.0, 1.0), 5, f)),
    "example2_sweep": lambda f, m: _sweep_values(
        example2_sweep(Example2Config.symmetric_default(), 9, f)),
    "build_example2": lambda f, m: [
        x.tolist() for x in (*_symmetric(0.7, f)[:3], _symmetric(0.7, f)[3].g)],
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("formalism", list(Formalism), ids=lambda f: f.value)
def test_a_formalism_given_by_name_is_its_member(entry, formalism):
    run = ENTRIES[entry]
    assert run(formalism.value, formalism) == run(formalism, formalism)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_an_unknown_formalism_is_refused(entry):
    with pytest.raises(ValueError, match="'nonsense' is not a valid Formalism"):
        ENTRIES[entry]("nonsense", Formalism.GOOD)


def test_good_by_name_keeps_the_gate():
    a, b, psi, g = _symmetric(0.7)
    for fn in (evaluate_all, ur1, ur2, ur3, ur4):
        with pytest.raises(NotGoodObservableError):
            fn(1j * a, b, psi, g, "good")
    result = sweep(lambda x: (1j * a, b, psi, g), (0.0, 1.0), 3, "good")
    assert all(isinstance(e, NotGoodObservableError) for e in result.errors)


@pytest.mark.parametrize("formalism", list(Formalism), ids=lambda f: f.value)
@pytest.mark.parametrize("g", [np.eye(2), [[1.0, 0.0], [0.0, 1.0]]],
                         ids=["array", "list"])
def test_a_metric_that_is_no_metric_is_refused(g, formalism):
    a, b, psi, _ = _symmetric(0.7)
    with pytest.raises(TypeError, match="metric_from_matrix"):
        evaluate_all(a, b, psi, g, formalism)
    with pytest.raises(TypeError, match="metric_from_matrix"):
        sweep(lambda x: (a, b, psi, g), (0.0, 1.0), 3, formalism)
