"""Each tolerance rule has one home.

The normalization and conditioning rules are relative, so a verdict does
not depend on the units of G or on the distance to the exceptional
point.  Moving a rule's constant in its one module moves every check that
applies it: the kernel, the public validators and the CLI alike.
"""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import nhur.linalg
import nhur.metric
from helpers import good_observable_for, metric_gs, random_hermitian, random_operator
from nhur import (
    BROKEN,
    SYMMETRIC,
    DegenerateEigenstateError,
    EigenSystem,
    Example2Config,
    Formalism,
    InternalInconsistencyError,
    MetricValidationError,
    NotGoodObservableError,
    NonFiniteError,
    NotOrthogonalError,
    NotNormalizedError,
    SIGMA_X,
    SIGMA_Z,
    SingularFrameError,
    ZeroVectorError,
    av_orthogonal_state,
    broken_eigensystem,
    build_example2,
    evaluate_all,
    example2_sweep,
    g_complement_projection,
    g_covariance,
    g_variance,
    identity_metric,
    is_good_observable,
    metric_from_matrix,
    metric_from_right_eigenvectors,
    pt_hamiltonian,
    require_normalized,
    superposition_state,
    symmetric_eigensystem,
    validate_metric,
)
from nhur.cli import main
from nhur.relations import relation_batch
from nhur.states import _normalized

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
NEAR_EP = 1.0 - 1e-8

# a normalized state under a widely spread G: |psi| |G psi| is about 4.3e3,
# so the normalization limit is about 4.3e-5
G_WIDE = np.diag([1e4, 1e-4]).astype(complex)
PSI_WIDE = np.array([0.5e-2, math.sqrt(0.75e4)], dtype=complex)


def _norm_limit(v, g):
    return 1e-8 * max(1.0, np.linalg.norm(v) * np.linalg.norm(g @ v))


def test_normalization_limit_scales_with_the_state():
    metric = metric_from_matrix(G_WIDE)
    within = PSI_WIDE * (1.0 + 5e-7)  # norm^2 off by 1e-6
    require_normalized(within, metric)
    evaluate_all(SIGMA_X, SIGMA_Z, within, metric, Formalism.GMETRIC)
    beyond = PSI_WIDE * (1.0 + 1e-4)
    limit = f"within {_norm_limit(beyond, G_WIDE):.3g})"
    assert limit == "within 4.33e-05)"
    with pytest.raises(NotNormalizedError, match=re.escape(limit)):
        require_normalized(beyond, metric)
    with pytest.raises(NotNormalizedError, match=re.escape(limit)):
        evaluate_all(SIGMA_X, SIGMA_Z, beyond, metric, Formalism.GMETRIC)


def test_unit_scale_state_off_by_2e_8_still_fails():
    psi = E0 * math.sqrt(1.0 + 2e-8)
    for call in (lambda: require_normalized(psi, identity_metric(2)),
                 lambda: evaluate_all(SIGMA_X, SIGMA_Z, psi),
                 lambda: evaluate_all(SIGMA_X, SIGMA_Z, E1, psi_perp=psi)):
        with pytest.raises(NotNormalizedError, match=re.escape("within 1e-08)")):
            call()


@pytest.mark.parametrize("g", [np.eye(2, dtype=complex), G_WIDE],
                         ids=["identity", "wide"])
def test_cli_rescales_exactly_the_states_the_kernel_rejects(g):
    metric = metric_from_matrix(g)
    base = E0 if g is not G_WIDE else PSI_WIDE
    outcomes = set()
    for off in (0.0, 1e-9, 4.9e-9, 1e-7, 1e-5, 1e-3):
        psi = base * (1.0 + off)
        try:
            require_normalized(psi, metric)
            accepted = True
        except NotNormalizedError:
            accepted = False
        out = _normalized(psi, g, "psi")
        assert (out is psi) == accepted
        require_normalized(out, metric)
        outcomes.add(accepted)
    assert outcomes == {True, False}


@pytest.mark.parametrize("formalism", [Formalism.GOOD, Formalism.GMETRIC])
def test_near_ep_sweep_has_no_failed_point(formalism):
    # cond(G) is about 2e8; at alpha = 0.253 the package-built state has
    # norm^2 off by 8.6e-9, within EPS_NORM |psi| |G psi|, about 4.5e-5
    sw = example2_sweep(Example2Config(NEAR_EP, 0.5), 721, formalism)
    assert sw.errors == (None,) * 721


def test_near_ep_cli_sweep_writes_every_row(tmp_path, capsys):
    out = tmp_path / "near-ep.csv"
    argv = ["example2", "--phase", "symmetric", "--gamma", "0.99999999",
            "--out", str(out)]
    assert main(argv) == 0
    assert len(out.read_text().splitlines()) == 1 + 721
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("formalism", [Formalism.GOOD, Formalism.GMETRIC],
                         ids=lambda f: f.value)
@pytest.mark.parametrize("gamma, phase", [(1.0 - 6e-9, SYMMETRIC), (1.0 + 6e-9, BROKEN)],
                         ids=[SYMMETRIC, BROKEN])
def test_sweep_at_6e_9_from_the_ep_has_no_failed_point(gamma, phase, formalism):
    # cond(G) is about 3e8 here.  One symmetric point's variance rounded to
    # an imaginary part that was read as an internal inconsistency, and the
    # kernel re-checked one broken point's state, which `_unit` had built,
    # against the absolute normalization limit; neither check is left
    sw = example2_sweep(Example2Config(gamma, 1.0, phase=phase), 721, formalism)
    assert sw.errors == (None,) * 721
    assert sw.holds.all()


def test_a_built_state_is_caller_input_to_evaluate_all():
    # the asymmetry that remains: the sweep trusts the state it built at
    # alpha = 3 pi / 2, but build_example2 returns that state as an array,
    # which evaluate_all checks as caller input against a limit set by
    # |psi| |G psi|, not by the operands that cancelled in G psi.  A limit
    # scaled by those operands would flip this test
    cfg = Example2Config(1.0 + 6e-9, 1.0, phase=BROKEN)
    sw = example2_sweep(cfg, 721, Formalism.GOOD)
    assert sw.param[540] == 1.5 * math.pi and sw.ok[540]
    with pytest.raises(NotNormalizedError, match=r"= 0\.99999998806 \(must be 1 within 1e-08\)"):
        evaluate_all(*build_example2(replace(cfg, alpha=sw.param[540])), Formalism.GOOD)


def test_check_accepts_a_variance_that_rounds_complex(tmp_path):
    # d = 1, so every variance is 0 exactly; with operators near 1e12 its
    # rounding reads 2.4e-7 + 1.5e-8i against S of about 1.8e24, which
    # `check` once refused as not real and nonnegative
    inp, out = tmp_path / "dim1.json", tmp_path / "report.json"
    inp.write_text(json.dumps({
        "dim": 1, "A": [[1122940761236.1492, 703671667544.4933]],
        "B": [[70184831008.89781, -32885344346.55387]],
        "psi": [[0.6494444258288717, 0.7604090594935112]],
        "formalism": "gmetric", "G": [[1.0000000000000004, 0.0]]}))
    assert main(["check", "--input", str(inp), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["all_hold"] is True


def _ill_conditioned(rng, cond):
    q, _ = np.linalg.qr(random_operator(rng, 3))
    g = q @ np.diag([1.0, 0.5, 1.0 / cond]) @ q.conj().T
    return (g + g.conj().T) / 2.0


@pytest.mark.parametrize("c", [1e-20, 1e-10, 1.0, 1e10])
def test_metric_validity_does_not_depend_on_units(c, rng):
    g = c * (random_hermitian(rng, 3) + 3.0 * np.eye(3))
    metric = metric_from_matrix(g)
    assert metric.validation.ok
    assert metric.validation.min_eigenvalue == np.linalg.eigvalsh(g)[0]
    for bad in (c * np.diag([1.0, 1e-10]), c * _ill_conditioned(rng, 1e12)):
        report = validate_metric(bad)
        assert report.hermitian and not report.positive_definite
        # rejected for its conditioning: every eigenvalue is positive
        assert report.min_eigenvalue == np.linalg.eigvalsh(bad)[0] > 0.0
        with pytest.raises(MetricValidationError):
            metric_from_matrix(bad)


@pytest.mark.parametrize("k", [0, 500, -500, 660, -660])
def test_the_hermiticity_test_does_not_depend_on_units(k):
    # both norms are formed on G scaled exactly by one power of two:
    # unscaled, at 1e200 each would be inf, inf <= EPS_HERM * inf would pass
    # a non-Hermitian G, and a RuntimeWarning would escape (an error here)
    c = 2.0 ** k
    skew = c * np.array([[1.0, 1.0], [0.0, 1.0]])
    assert not validate_metric(skew).hermitian
    with pytest.raises(MetricValidationError):
        metric_from_matrix(skew)
    g = c * np.array([[2.0, 0.5j], [-0.5j, 1.0]])
    assert metric_from_matrix(g).validation.ok
    assert metric_from_matrix(g).g.tolist() == g.tolist()


@pytest.mark.parametrize("k", [300, -300])
def test_the_stationarity_residual_scales_exactly(k):
    # |GH - H^dag G|_F is formed on G and H each scaled exactly by a power
    # of two and scaled back: unscaled, at 2^300 its squares overflow and at
    # 2^-300 they underflow, so c G and c H must give exactly c^2 times it
    g = metric_from_right_eigenvectors(broken_eigensystem(1.2)).g
    h = pt_hamiltonian(1.2)
    base = validate_metric(g, h).stationarity_residual
    assert base > 0.1
    c = 2.0 ** k
    assert validate_metric(c * g, c * h).stationarity_residual == base * c * c


def test_a_stationarity_residual_beyond_double_range_reads_inf():
    # at 1e200 the true residual, about 1e400, leaves double range: it reads
    # inf, with no RuntimeWarning (an error here), and the metric still builds
    sys_ = symmetric_eigensystem(0.5)
    g = metric_from_right_eigenvectors(sys_).g
    metric = metric_from_matrix(1e200 * g, hamiltonian=1e200 * pt_hamiltonian(0.5))
    assert metric.validation.ok
    assert metric.validation.stationarity_residual == math.inf


def test_one_conditioning_rule(monkeypatch):
    # each check passes iff its smallest/largest ratio exceeds EPS_PD: 1/2
    # for the gamma = 0.6 frame, 1/4 for its metric L^dag L, which the
    # metric's own positive-definiteness check refuses
    system = symmetric_eigensystem(0.6)
    g = np.asarray(metric_from_right_eigenvectors(system).g)
    builds = ((lambda: EigenSystem(system.values, system.right), 0.5,
               SingularFrameError, "frame is numerically singular"),
              (lambda: metric_from_right_eigenvectors(system), 0.25,
               MetricValidationError, "not Hermitian positive definite"))
    for eps in (0.2, 0.3, 0.6):
        monkeypatch.setattr(nhur.linalg, "EPS_PD", eps)
        assert validate_metric(g).positive_definite is (0.25 > eps)
        for build, ratio, error, match in builds:
            if ratio > eps:
                build()
            else:
                with pytest.raises(error, match=match):
                    build()


def test_one_normalization_rule(monkeypatch):
    psi = E0 * math.sqrt(1.0 + 1e-6)
    calls = (lambda: require_normalized(psi, identity_metric(2)),
             lambda: evaluate_all(SIGMA_X, SIGMA_Z, psi),
             lambda: evaluate_all(SIGMA_X, SIGMA_Z, E1, psi_perp=psi))
    monkeypatch.setattr(nhur.metric, "EPS_NORM", 1e-5)
    for call in calls:
        call()
    assert _normalized(psi, np.eye(2), "psi") is psi
    monkeypatch.setattr(nhur.metric, "EPS_NORM", 1e-7)
    for call in calls:
        with pytest.raises(NotNormalizedError, match=re.escape("within 1e-07)")):
            call()
    assert _normalized(psi, np.eye(2), "psi") is not psi


def test_one_good_observable_comparison(monkeypatch, rng):
    metric = metric_gs(0.6)
    good = good_observable_for(rng, metric)
    x = good + 1e-6 * random_operator(rng)
    residual = is_good_observable(x, metric).residual
    psi = np.linalg.inv(np.linalg.cholesky(np.asarray(metric.g))).conj().T @ E0
    for eps, ok in ((residual, True), (residual / 2.0, False)):
        monkeypatch.setattr(nhur.metric, "EPS_GOOD", eps)
        check = is_good_observable(x, metric)
        assert check.is_good is ok and check.threshold == eps
        if ok:
            evaluate_all(x, good, psi, metric, Formalism.GOOD)
        else:
            with pytest.raises(NotGoodObservableError):
                evaluate_all(x, good, psi, metric, Formalism.GOOD)


def test_one_eigenstate_rule(monkeypatch):
    # at E0, A + B and A - B have standard deviation 1e-6
    a, b = SIGMA_Z, 1e-6 * SIGMA_X
    metric = identity_metric(2)
    for eps, flat in ((1e-9, False), (1e-5, True)):
        monkeypatch.setattr(nhur.metric, "EPS_DEGEN", eps)
        assert evaluate_all(a, b, E0)[3].degenerate is flat
        calls = (lambda: av_orthogonal_state(a + b, E0, metric),
                 lambda: g_complement_projection(E0 + 1e-6 * E1, E0, metric))
        for call, error in zip(calls, (DegenerateEigenstateError, ZeroVectorError)):
            if flat:
                with pytest.raises(error):
                    call()
            else:
                call()


def test_gate_and_check_agree_where_a_square_overflows():
    # |X|_F^2 overflows, so the residual is formed on X scaled exactly: it
    # reads the unit-scale 1, not good, in both and with no warning
    x = 1e200 * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    metric = identity_metric(2)
    check = is_good_observable(x, metric)
    with pytest.raises(NotGoodObservableError, match=r"a=1\.000e\+00"):
        evaluate_all(x, SIGMA_Z, E0, metric, Formalism.GOOD)
    assert check.residual == 1.0 and not check


TALL = 1e200 * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def test_overflow_is_no_verdict():
    # lhs overflows to inf, which would read as holding; no np.errstate
    # here, so the suite's warning filter also checks that none is raised
    metric = identity_metric(2)
    for formalism in (Formalism.PLAIN, Formalism.GMETRIC):
        with pytest.raises(NonFiniteError, match="lhs = inf"):
            evaluate_all(TALL, SIGMA_Z, E1, metric, formalism)
    with pytest.raises(NonFiniteError, match="lhs = inf"):
        evaluate_all(1e155 * SIGMA_X, SIGMA_Z, [0.6, 0.8])
    with pytest.raises(NotGoodObservableError, match=r"a=1\.000e\+00"):
        evaluate_all(TALL, SIGMA_Z, E1, metric, Formalism.GOOD)
    # the check comes last: an error found before it keeps its class
    with pytest.raises(NotNormalizedError):
        evaluate_all(TALL, SIGMA_Z, 2.0 * E1)
    # in a batch only the point that overflowed fails
    batch = relation_batch(np.array([TALL, SIGMA_X]), SIGMA_Z, np.array([E1, E1]),
                           np.eye(2))
    assert isinstance(batch.errors[0], NonFiniteError) and batch.errors[1] is None
    assert np.isnan(batch.gap[:, 0]).all() and batch.holds[:, 1].all()


def test_a_product_overflow_is_no_value_overflow():
    # at A = B = 2^513 sigma_x every value is within double range, but
    # Var(A + B), whose half is ur4's bound, is not: the kernel evaluates
    # the point again with A and B scaled exactly, and each value is the
    # unit-scale one times 2^1026, bit for bit, with the same verdict
    big = evaluate_all(2.0 ** 513 * SIGMA_X, 2.0 ** 513 * SIGMA_X, [0.6, 0.8])
    unit = evaluate_all(SIGMA_X, SIGMA_X, [0.6, 0.8])
    for x, y in zip(big, unit):
        assert [x.lhs, x.rhs, x.gap] == np.ldexp([y.lhs, y.rhs, y.gap], 1026).tolist()
        assert x._replace(lhs=0, rhs=0, gap=0) == y._replace(lhs=0, rhs=0, gap=0)
    assert big[0].lhs > 1e308
    # in a batch, the point evaluated again reads as its own call
    ab = np.array([2.0 ** 513 * SIGMA_X, SIGMA_X])
    batch = relation_batch(ab, ab, np.array([[0.6, 0.8]] * 2, dtype=complex), np.eye(2))
    assert batch.errors == (None, None)
    assert batch.lhs.tolist() == [big[0].lhs, unit[0].lhs]


def test_perp_overlap_limit_is_relative():
    # |perp| |G psi| is about 2.5e3 here, so overlaps between EPS_ORTH and
    # 2.5e-7 pass; past that the message names the overlap and the limit
    metric = metric_from_matrix(G_WIDE)
    gpsi = G_WIDE @ PSI_WIDE
    perp = np.array([-gpsi[1], gpsi[0]]).conj()  # G-normalized and orthogonal
    args = (SIGMA_X, SIGMA_Z, PSI_WIDE, metric, Formalism.GMETRIC)
    assert evaluate_all(*args, psi_perp=perp + 1e-8 * PSI_WIDE)[2].holds
    bad = perp + 1e-6 * PSI_WIDE
    overlap = abs(np.vdot(bad, gpsi))
    limit = 1e-10 * np.linalg.norm(bad) * np.linalg.norm(gpsi)
    with pytest.raises(NotOrthogonalError) as caught:
        evaluate_all(*args, psi_perp=bad)
    assert str(caught.value) == (f"auxiliary state has metric overlap {overlap:.3e} "
                                 f"with the state (limit {limit:.3g})")


def test_a_norm_that_is_not_finite_fails_and_names_no_limit():
    # the truth table of the normalization rule in its excess |nsq - 1|:
    # a finite excess fails past its limit, an inf or NaN one always,
    # whether its limit overflowed with it (the last two states) or not
    v = np.array([[1.0, 0.0]] * 5 + [[1e200, 0.0]] * 2, dtype=complex)
    nsq = np.array([1.0, 1.0 + 2e-8, 4.0, math.inf, math.nan, math.inf, math.nan]) + 0j
    assert [nhur.metric._is_normalized(n, u, u) for n, u in zip(nsq, v)] == [
        True, False, False, False, False, False, False]

    def error(i):
        with pytest.raises(NotNormalizedError) as caught:
            nhur.metric._require_norm("state", nsq[i], v[i], v[i])
        return str(caught.value)

    assert error(2) == "state has metric norm^2 = 4 (must be 1 within 1e-08)"
    for i, text in ((3, "inf"), (4, "nan"), (5, "inf"), (6, "nan")):
        assert error(i) == f"state has metric norm^2 = {text} (must be 1)"
    with pytest.raises(NotNormalizedError) as caught:
        require_normalized([1e200, 0], identity_metric(2))
    assert str(caught.value) == "state has metric norm^2 = inf (must be 1)"


def test_each_rule_words_its_own_failure():
    # the overlap rule words a supplied and a constructed state alike, in
    # the class its caller names
    psi = np.array([0.6, 0.8j])
    perp = np.array([0.8, -0.6j + 1e-6])  # overlap about 8e-7
    with pytest.raises(NotOrthogonalError) as supplied:
        evaluate_all(SIGMA_X, SIGMA_Z, psi, psi_perp=perp)
    with pytest.raises(InternalInconsistencyError) as constructed:
        nhur.metric._require_orthogonal("complement", perp, psi,
                                        InternalInconsistencyError)
    assert str(supplied.value) == ("auxiliary state has metric overlap 8.000e-07 "
                                   "with the state (limit 1e-10)")
    assert str(constructed.value) == str(supplied.value).replace(
        "auxiliary state", "complement")


def test_an_overflowed_statistic_is_typed():
    # a variance or covariance beyond double range raises NonFiniteError,
    # while an orthogonal state, a superposition and a complement
    # projection scale their operands exactly first and do not overflow; a
    # superposition's norm^2 overflows only where G's own scale pushes it
    # past double range, and such a G is accepted, its Hermitian part halved
    # before it is summed.  No np.errstate, so the suite's warning filter
    # checks that no RuntimeWarning escapes on the way
    metric, psi = identity_metric(2), [0.6, 0.8]
    for call in (lambda: g_variance(1e200 * SIGMA_X, psi, metric),
                 lambda: g_covariance(1e200 * SIGMA_X, 1e200 * SIGMA_Z, psi, metric)):
        with pytest.raises(NonFiniteError, match="variance|covariance"):
            call()
    assert (av_orthogonal_state(1e200 * SIGMA_X, psi, metric).psi_perp.tolist()
            == av_orthogonal_state(SIGMA_X, psi, metric).psi_perp.tolist())
    assert (superposition_state([[1, 0], [0, 1]], [1e200, 1e200], metric).tolist()
            == superposition_state([[1, 0], [0, 1]], [1, 1], metric).tolist())
    huge = metric_from_matrix(1.7e308 * np.eye(8))
    assert huge.g.tolist() == (1.7e308 * np.eye(8)).tolist()
    with pytest.raises(NonFiniteError, match="superposition norm\\^2 overflows"):
        superposition_state(np.eye(8), np.ones(8), huge)
    assert g_complement_projection([1e200, 1e200], [1, 0], metric).tolist() == [0, 1]


def test_the_normalization_limit_does_not_overflow():
    # |psi| = 1e160 and |G psi| = 1e51: squared unscaled, |psi|^2 overflowed
    # and the limit was inf, which accepted this norm^2 of 1e211
    metric = metric_from_matrix(np.diag([1e-109, 1e-100]))
    with pytest.raises(NotNormalizedError, match=r"1e\+211 \(must be 1 within 1e\+203\)"):
        require_normalized([1e160, 0], metric)
    with pytest.raises(NotNormalizedError):
        evaluate_all(SIGMA_X, SIGMA_Z, [1e160, 0], metric, Formalism.GMETRIC)


def test_an_overflowed_state_is_not_normalized():
    # norm^2 = inf, whose relative limit is inf too; norm^2 = 1e160, whose
    # limit overflowed as |v|^2 |G v|^2; inf - inf under a metric, which the
    # BLAS dot kernel behind np.vecdot may read as inf or NaN; and 0 * inf,
    # NaN under any summation.
    # No np.errstate: the suite's warning filter checks that none escapes
    metric = identity_metric(2)
    for psi in ([1e200, 0], [1e80, 0]):
        with pytest.raises(NotNormalizedError, match="state has metric norm"):
            require_normalized(psi, metric)
        with pytest.raises(NotNormalizedError, match="state has metric norm"):
            evaluate_all(SIGMA_X, SIGMA_Z, psi)
    with pytest.raises(NotNormalizedError, match=r"norm\^2 = (inf|nan) \(must be 1\)"):
        evaluate_all(SIGMA_X, SIGMA_Z, [1e200, 0.5e200],
                     metric_from_matrix([[2, -1.9], [-1.9, 2]]), Formalism.GMETRIC)
    with pytest.raises(NotNormalizedError, match="norm\\^2 = nan \\(must be 1\\)"):
        evaluate_all(SIGMA_X, SIGMA_Z, [1e308, 0],
                     metric_from_matrix([[1.5, 2], [2, 3]]), Formalism.GMETRIC)
    with pytest.raises(NotNormalizedError, match="auxiliary state"):
        evaluate_all(SIGMA_X, SIGMA_Z, E0, psi_perp=[0, 1e200])
    # the kernel is unchecked: in a batch only that point's values
    # overflow, and the other keeps its values
    batch = relation_batch(SIGMA_X, SIGMA_Z, np.array([[1e200, 0], E0]),
                           np.eye(2))
    assert isinstance(batch.errors[0], NonFiniteError) and batch.errors[1] is None
    ev = evaluate_all(SIGMA_X, SIGMA_Z, E0)
    assert batch.gap[:, 1].tolist() == [e.gap for e in ev]
