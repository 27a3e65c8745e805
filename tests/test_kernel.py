"""The batched relation kernel and the public statistics helpers against
the per-point reference, plus the invariances the physics guarantees, the
sign-branch tie rule and the public surface."""

import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhur
import reference
from helpers import good_observable_for, metric_gs, random_operator, random_state
from nhur import (
    BROKEN,
    Example1Config,
    Example2Config,
    Formalism,
    InternalInconsistencyError,
    Metric,
    MetricReport,
    MetricValidationError,
    NhurError,
    NotGoodObservableError,
    NotNormalizedError,
    NotOrthogonalError,
    build_example1,
    av_orthogonal_state,
    build_example2,
    evaluate_all,
    example1_sweep,
    example2_sweep,
    g_covariance,
    g_expectation,
    g_variance,
    identity_metric,
    metric_from_matrix,
    pt_hamiltonian,
    sweep,
    ur1,
    ur2,
    ur3,
    ur4,
)
from nhur import scenarios
from nhur.relations import relation_batch

EPS = np.finfo(float).eps
FORMALISMS = (Formalism.PLAIN, Formalism.GMETRIC, Formalism.GOOD)


def random_metric(rng, dim):
    """A Hermitian positive-definite metric with condition number below 10."""
    m = random_operator(rng, dim)
    h = m @ m.conj().T
    return metric_from_matrix(h + 0.5 * np.linalg.norm(h, 2) * np.eye(dim))


def random_problem(rng, dim, formalism, with_perp):
    metric = random_metric(rng, dim)
    if formalism is Formalism.GOOD:
        a, b = good_observable_for(rng, metric), good_observable_for(rng, metric)
    else:
        a, b = random_operator(rng, dim), random_operator(rng, dim)
    stats = identity_metric(dim) if formalism is Formalism.PLAIN else metric
    psi = random_state(rng, stats)
    perp = None
    if with_perp:
        v = random_state(rng, stats)
        v = v - complex(np.vdot(psi, stats.g @ v)) * psi
        perp = v / math.sqrt(complex(np.vdot(v, stats.g @ v)).real)
    return a, b, psi, metric, perp, stats


def second_moments(a, b, psi, g):
    """<A psi|G|A psi> + <B psi|G|B psi>: the size of the terms whose
    difference is lhs, which sets the rounding of every result."""
    return sum(complex(np.vdot(x @ psi, g @ (x @ psi))).real for x in (a, b))


def assert_matches(got, want, tol):
    for x, y in zip(got, want):
        assert (x.relation, x.formalism, x.degenerate) == (
            y.relation, y.formalism, y.degenerate)
        assert abs(x.lhs - y.lhs) <= tol
        assert abs(x.rhs - y.rhs) <= tol
        assert abs(x.gap - y.gap) <= tol
        assert x.holds == y.holds


def branch_is_clear(a, b, psi, stats, tol, psi_perp=None):
    """Whether ur3 (with psi_perp) and ur4 have branch values apart by more
    than tol, so that rounding cannot decide the reported branch."""
    if psi_perp is None:
        gap3 = math.inf
    else:
        plus, minus = (reference.ur3_branch(a, b, psi, stats, Formalism.GMETRIC,
                                            s, psi_perp).rhs
                       for s in ("plus", "minus"))
        gap3 = abs(plus - minus)
    gap4 = abs(g_variance(a + b, psi, stats) - g_variance(a - b, psi, stats))
    return gap3 > tol, gap4 > tol


@pytest.mark.parametrize("with_perp", [False, True])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("formalism", FORMALISMS, ids=lambda f: f.value)
def test_kernel_matches_reference(formalism, dim, with_perp):
    """The batched kernel against the per-point reference.  The good cases
    are also the differential test of the compatible forms: the reference
    takes ur1/ur2's rhs from the commutator and anticommutator brackets,
    the kernel from 2 Im Cov_G and 2 Re Cov_G."""
    rng = np.random.default_rng(1000 * dim + 10 * with_perp
                                + FORMALISMS.index(formalism))
    for _ in range(25):
        a, b, psi, metric, perp, stats = random_problem(rng, dim, formalism,
                                                        with_perp)
        got = evaluate_all(a, b, psi, metric, formalism, psi_perp=perp)
        want = reference.evaluate_all(a, b, psi, metric, formalism,
                                      psi_perp=perp)
        cond = np.linalg.cond(stats.g)
        tol = 256 * EPS * cond * second_moments(a, b, psi, stats.g)
        assert_matches(got, want, tol)
        clear3, clear4 = branch_is_clear(a, b, psi, stats, tol, perp)
        if perp is None:
            assert got[2].sign_branch == "plus"
        elif clear3:
            assert got[2].sign_branch == want[2].sign_branch
        if clear4:
            assert got[3].sign_branch == want[3].sign_branch


@pytest.mark.parametrize("plain", [False, True], ids=["gmetric", "plain"])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_public_statistics_match_scalar_reference(dim, plain):
    # the helpers run the batched einsum kernel, the reference np.vdot:
    # only the summation order differs
    rng = np.random.default_rng(100 * dim + plain)
    for _ in range(25):
        metric = identity_metric(dim) if plain else random_metric(rng, dim)
        a, b = random_operator(rng, dim), random_operator(rng, dim)
        psi = random_state(rng, metric)
        g = metric.g
        tol = 32 * EPS * (1.0 + second_moments(a, b, psi, g))
        assert abs(g_expectation(a, psi, metric)
                   - reference._expect(a, psi, g)) <= tol
        var = g_variance(a, psi, metric)
        assert abs(var - reference._as_real_variance(
            reference._variance_raw(a, psi, g))) <= tol
        assert abs(g_covariance(a, b, psi, metric)
                   - reference._covariance_raw(a, b, psi, g)) <= tol
        diff = (av_orthogonal_state(a, psi, metric).psi_perp
                - reference.av_orthogonal_state(a, psi, metric).psi_perp)
        assert math.sqrt(abs(np.vdot(diff, g @ diff))) <= tol / var


def test_public_surface():
    assert set(nhur.__all__) == {
        "BROKEN", "DegenerateEigenstateError", "DimensionMismatchError",
        "EigenSystem", "Example1Config", "Example2Config",
        "ExceptionalPointError", "Formalism", "GoodObservableCheck",
        "IDENTITY2", "InternalInconsistencyError", "Metric", "MetricReport",
        "MetricValidationError", "NegativeNormError", "NhurError",
        "NonFiniteError", "NotGoodObservableError", "NotNormalizedError",
        "NotOrthogonalError", "OrthogonalPair", "PhaseMismatchError",
        "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "SYMMETRIC", "ScenarioPoint",
        "SingularFrameError", "UrEvaluation", "ZeroVectorError",
        "anticommutator", "as_operator", "as_state", "av_orthogonal_state",
        "broken_eigensystem", "build_example1", "build_example2",
        "commutator", "evaluate_all", "example1_sweep", "example2_sweep",
        "g_complement_projection", "g_covariance", "g_expectation",
        "g_orthogonal_complement_2d", "g_variance", "identity_metric",
        "is_good_observable", "metric_from_matrix",
        "metric_from_right_eigenvectors", "pt_hamiltonian",
        "require_normalized", "superposition_state", "sweep",
        "symmetric_eigensystem", "ur1", "ur2", "ur3", "ur3_default_perp",
        "ur4", "validate_metric",
    }
    assert len(nhur.__all__) == len(set(nhur.__all__))
    for name in nhur.__all__:
        getattr(nhur, name)


def _fake_metric(g):
    g = np.array(g, dtype=complex)
    g.setflags(write=False)
    return Metric(g=g, provenance="explicit",
                  validation=MetricReport(False, False, 0.0))


E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]])


@pytest.mark.parametrize(
    "case,error",
    [
        (dict(psi=2.0 * E0), NotNormalizedError),
        (dict(a=pt_hamiltonian(1.2), g=metric_gs(0.9), formalism=Formalism.GOOD,
              psi=E0 / math.sqrt(1.0 / math.sqrt(1.0 - 0.81))),
         NotGoodObservableError),
        (dict(psi_perp=(E0 + E1) / math.sqrt(2.0)), NotOrthogonalError),
        (dict(psi_perp=2.0 * E1), NotNormalizedError),
        # a non-Hermitian "metric" makes Var(A) complex: 1 - 0.01i
        (dict(g=_fake_metric([[1.0, 0.1], [0.1j, 1.0]]),
              formalism=Formalism.GMETRIC), InternalInconsistencyError),
    ],
    ids=["state-norm", "not-good", "perp-overlap", "perp-norm", "complex-variance"],
)
def test_kernel_raises_the_reference_errors(case, error):
    args = dict(a=SX, b=SY, psi=E0, g=None, formalism=Formalism.PLAIN,
                psi_perp=None)
    args.update(case)
    perp = args.pop("psi_perp")
    with pytest.raises(error):
        reference.evaluate_all(**args, psi_perp=perp)
    with pytest.raises(error):
        evaluate_all(**args, psi_perp=perp)


def test_checks_fail_only_the_relations_they_guard():
    # a non-orthogonal override breaks ur3 and nothing else
    bad = (E0 + E1) / math.sqrt(2.0)
    args = (SX, SY, E0[None], np.eye(2), Formalism.PLAIN, bad[None])
    for relations in ({2}, {0, 1, 2, 3}):
        batch = relation_batch(*args, tol=1e-9, relations=relations)
        (err,) = batch.errors
        assert isinstance(err, NotOrthogonalError)
        assert np.isnan(batch.gap).all() and not batch.holds.any()
    for k in (0, 1, 3):
        batch = relation_batch(*args, tol=1e-9, relations={k})
        assert batch.errors == (None,)
        assert batch.holds[k, 0]
    with pytest.raises(NotOrthogonalError):
        ur3(SX, SY, E0, psi_perp=bad)


def _coupled_sum_problem():
    # a non-Hermitian "metric" that couples A psi = e1 and B psi = e2:
    # Var(A) = Var(B) = 1 stay real, Var(A +- B) = 2 +- (0.1 + 0.1i) do not
    g = _fake_metric([[1.0, 0.0, 0.0], [0.0, 1.0, 0.1], [0.0, 0.1j, 1.0]])
    a, b = np.zeros((3, 3)), np.zeros((3, 3))
    a[1, 0] = b[2, 0] = 1.0
    return a, b, np.array([1.0, 0.0, 0.0]), g, Formalism.GMETRIC


def test_variance_of_the_sum_guards_only_ur4():
    args = _coupled_sum_problem()
    for fn in (reference.evaluate_all, evaluate_all, ur4):
        with pytest.raises(InternalInconsistencyError):
            fn(*args)
    for fn in (ur1, ur2, ur3):
        assert fn(*args).lhs == 2.0


def test_first_error_follows_the_check_order():
    # the perp checks come before the Var(A +- B) checks: with a perp that
    # is G-normalized but not orthogonal to psi, a call that needs ur3
    # fails on the perp, ur4 still fails on its variance, and ur1 and ur2
    # evaluate
    args = _coupled_sum_problem()
    perp = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    for fn in (evaluate_all, ur3):
        with pytest.raises(NotOrthogonalError):
            fn(*args, psi_perp=perp)
    with pytest.raises(InternalInconsistencyError):
        ur4(*args)
    for fn in (ur1, ur2):
        assert fn(*args).lhs == 2.0


# The benchmark's five sweep command lines: (config, formalism), with None
# standing for example1.
BENCH_SWEEPS = [
    (None, Formalism.PLAIN),
    (Example2Config(0.9, 0.5), Formalism.GOOD),
    (Example2Config(1.2, 1.5, phase=BROKEN), Formalism.GOOD),
    (Example2Config(0.9, 0.5), Formalism.GMETRIC),
    (Example2Config(0.9999999, 0.5), Formalism.GOOD),
]


@pytest.mark.parametrize("cfg,formalism", BENCH_SWEEPS,
                         ids=["example1", "symmetric-good", "broken-good",
                              "symmetric-gmetric", "near-ep"])
def test_sweeps_match_reference_point_by_point(cfg, formalism):
    if cfg is None:
        points = example1_sweep(points=181)
        build = lambda x: build_example1(Example1Config(theta0=x))  # noqa: E731
    else:
        points = example2_sweep(cfg, points=181, formalism=formalism)
        build = lambda x: build_example2(replace(cfg, alpha=x))  # noqa: E731
    near_ep = cfg is not None and abs(cfg.gamma * cfg.gamma - 1.0) < 1e-3
    compared = 0
    for pt in points:
        a, b, psi, metric = build(pt.param)
        try:
            want = reference.evaluate_all(a, b, psi, metric, formalism)
        except NhurError:
            # the reference's own near-EP failures (ROADMAP item 3)
            assert near_ep
            continue
        assert pt.ok, pt.error
        stats = metric.g
        tol = 256 * EPS * np.linalg.cond(stats) * second_moments(a, b, psi, stats)
        assert_matches(pt.evaluations, want, tol)
        compared += 1
    assert compared == len(points) or near_ep
    assert all(pt.ok for pt in points)


def test_plain_example2_sweep_fails_like_reference():
    # the scenario's state is normalized under G, not the Dirac product
    cfg = Example2Config.symmetric_default()
    for pt in example2_sweep(cfg, points=9, formalism=Formalism.PLAIN):
        with pytest.raises(NotNormalizedError):
            reference.evaluate_all(*build_example2(replace(cfg, alpha=pt.param)),
                                   Formalism.PLAIN)
        assert pt.error.startswith("NotNormalizedError: ")


def test_generic_sweep_matches_closed_form_sweep():
    def builder(theta0):
        return build_example1(Example1Config(theta0=theta0))

    stacked = sweep(builder, (0.0, math.pi), 61)
    closed = example1_sweep(points=61)
    for p, q in zip(stacked, closed):
        assert p.param == q.param
        assert p.evaluations == q.evaluations


def test_generic_sweep_groups_dimensions():
    rng = np.random.default_rng(5)
    problems = {}

    def builder(value):
        dim = 2 if value < 0.5 else 3
        metric = identity_metric(dim)
        problems[value] = (random_operator(rng, dim), random_operator(rng, dim),
                           random_state(rng, metric), metric)
        return problems[value]

    for pt in sweep(builder, (0.0, 1.0), 6):
        assert pt.ok
        assert pt.evaluations == evaluate_all(*problems[pt.param])


def test_example2_sweep_builds_its_metric_once(monkeypatch):
    calls = []
    build = scenarios.metric_from_right_eigenvectors

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(scenarios, "metric_from_right_eigenvectors", counting)
    points = example2_sweep(Example2Config.symmetric_default(), points=181)
    assert all(p.ok for p in points)
    assert len(calls) == 1


def test_metric_failure_is_recorded_on_every_point(monkeypatch):
    def failing(*args, **kwargs):
        raise MetricValidationError("metric rejected for the test")

    monkeypatch.setattr(scenarios, "metric_from_right_eigenvectors", failing)
    points = example2_sweep(Example2Config.broken_default(), points=7)
    assert [p.error for p in points] == [
        "MetricValidationError: metric rejected for the test"] * 7


def test_metric_validation_error_carries_its_report():
    with pytest.raises(MetricValidationError) as info:
        metric_from_matrix(np.diag([1.0, -2.0]))
    assert info.value.report.min_eigenvalue == -2.0
    assert not info.value.report.positive_definite


# ---- sign-branch tie rule -------------------------------------------------

def test_ur3_default_auxiliary_state_reports_plus(rng):
    for formalism in FORMALISMS:
        for dim in (2, 4):
            a, b, psi, metric, _, _ = random_problem(rng, dim, formalism, False)
            ev = ur3(a, b, psi, metric, formalism)
            assert ev.sign_branch == "plus"
            assert ev.rhs == ev.lhs
            for sign in ("plus", "minus"):
                one = ur3(a, b, psi, metric, formalism, sign=sign)
                assert (one.sign_branch, one.rhs) == (sign, one.lhs)


def test_ur3_sign_reports_that_branch(rng):
    for formalism in FORMALISMS:
        for dim in (2, 4):
            a, b, psi, metric, perp, stats = random_problem(rng, dim, formalism,
                                                            True)
            tol = 256 * EPS * second_moments(a, b, psi, stats.g)
            for sign in ("plus", "minus"):
                one = ur3(a, b, psi, metric, formalism, psi_perp=perp, sign=sign)
                want = reference.ur3_branch(a, b, psi, metric, formalism, sign,
                                            perp)
                assert one.sign_branch == sign
                assert abs(one.rhs - want.rhs) <= tol
                assert abs(one.gap - want.gap) <= tol


def test_ur4_tie_reports_plus(rng):
    # B = 0 makes A + B and A - B the same operator, an exact tie
    for dim in (2, 3):
        a = random_operator(rng, dim)
        psi = random_state(rng, identity_metric(dim))
        ev = ur4(a, np.zeros((dim, dim)), psi)
        assert ev.sign_branch == "plus"
        npt.assert_allclose(ev.rhs, 0.5 * g_variance(a, psi, identity_metric(dim)),
                            rtol=1e-13)
        # both branches degenerate: both count as 0, still a tie
        zero = np.zeros((dim, dim))
        ev = ur4(zero, zero, psi)
        assert (ev.sign_branch, ev.rhs, ev.degenerate) == ("plus", 0.0, True)
        # sd of A +- B near 1e-12, far below EPS_DEGEN, but not zero
        tiny = 1e-12 * random_operator(rng, dim)
        ev = ur4(tiny, 0.5 * tiny.conj().T, psi)
        assert (ev.sign_branch, ev.rhs, ev.degenerate) == ("plus", 0.0, True)


@pytest.mark.parametrize("coef,k", [(1j, 0), (-1, 1), (1, 3), (-1, 3)],
                         ids=["ur1", "ur2", "ur4-sum", "ur4-difference"])
def test_an_eigenstate_of_a_combination_closes_its_gap(coef, k):
    # psi an eigenvector of A + coef*B zeroes that relation's gap.  Taken as
    # one G-norm, the gap's rounding scales with that norm, not with lhs,
    # and ur4 flags the branch as degenerate whatever the rounding
    rng = np.random.default_rng(40 + k + int(coef.imag))
    for formalism in FORMALISMS:
        for dim in (2, 3, 4):
            for _ in range(25):
                a, b, _, metric, _, stats = random_problem(rng, dim, formalism,
                                                           False)
                v = np.linalg.eig(a + coef * b)[1][:, 0]
                psi = v / math.sqrt(complex(np.vdot(v, stats.g @ v)).real)
                ev = (ur1, ur2, ur3, ur4)[k](a, b, psi, metric, formalism)
                assert 0.0 <= ev.gap <= 1e-24 * ev.lhs
                assert ev.degenerate == (k == 3)


# ---- metamorphic properties ---------------------------------------------

@st.composite
def problems(draw):
    """(a, b, psi, metric, formalism, psi_perp) from a drawn seed."""
    formalism = draw(st.sampled_from(FORMALISMS))
    dim = draw(st.integers(2, 4))
    with_perp = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b, psi, metric, perp, _ = random_problem(rng, dim, formalism, with_perp)
    return a, b, psi, metric, formalism, perp


def _values(evs):
    return np.array([[ev.lhs, ev.rhs, ev.gap] for ev in evs])


def _assert_same(got, want, a, b, psi, g, factor=1.0):
    """got == factor * want to rounding, relative to lhs: the absolute part
    covers lhs that cancel far below the second moments."""
    want = factor * _values(want)
    scale = factor * (np.linalg.cond(g) * second_moments(a, b, psi, g))
    npt.assert_allclose(_values(got), want, rtol=1e-9, atol=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(problems(), st.floats(0.0, 2.0 * math.pi))
def test_global_phase_changes_nothing(problem, phi):
    a, b, psi, metric, formalism, perp = problem
    phase = np.exp(1j * phi)
    base = evaluate_all(a, b, psi, metric, formalism, psi_perp=perp)
    turned = evaluate_all(a, b, phase * psi, metric, formalism,
                          psi_perp=None if perp is None else phase * perp)
    g = metric.g if formalism is not Formalism.PLAIN else np.eye(len(psi))
    _assert_same(turned, base, a, b, psi, g)


@settings(max_examples=60, deadline=None)
@given(problems(), st.floats(1e-3, 1e3))
def test_scaling_scales_every_value_by_c_squared(problem, c):
    a, b, psi, metric, formalism, perp = problem
    base = evaluate_all(a, b, psi, metric, formalism, psi_perp=perp)
    scaled = evaluate_all(c * a, c * b, psi, metric, formalism, psi_perp=perp)
    g = metric.g if formalism is not Formalism.PLAIN else np.eye(len(psi))
    _assert_same(scaled, base, a, b, psi, g, factor=c * c)
    assert [(ev.holds, ev.degenerate) for ev in scaled] == [
        (ev.holds, ev.degenerate) for ev in base]


@pytest.mark.parametrize("c", [1e-4, 1e4, 1e6])
def test_verdicts_do_not_depend_on_units(c):
    # beyond the property's range: the variance checks and the ur3 gap with
    # an explicit auxiliary state must scale with the data
    rng = np.random.default_rng(round(math.log10(c)) + 10)
    for formalism in FORMALISMS:
        for dim, with_perp in ((2, False), (2, True), (4, False), (4, True)):
            for _ in range(5):
                a, b, psi, metric, perp, _ = random_problem(rng, dim, formalism,
                                                            with_perp)
                base = evaluate_all(a, b, psi, metric, formalism, psi_perp=perp)
                scaled = evaluate_all(c * a, c * b, psi, metric, formalism,
                                      psi_perp=perp)
                assert [(ev.holds, ev.degenerate) for ev in scaled] == [
                    (ev.holds, ev.degenerate) for ev in base]


@settings(max_examples=60, deadline=None)
@given(problems(), st.integers(0, 2**32 - 1))
def test_joint_similarity_changes_nothing(problem, seed):
    a, b, psi, metric, formalism, perp = problem
    dim = len(psi)
    rng = np.random.default_rng(seed)
    if formalism is Formalism.PLAIN:
        # the Dirac product is kept only by unitary S
        s, _ = np.linalg.qr(random_operator(rng, dim))
        g2 = None
    else:
        m = random_operator(rng, dim)
        s = np.eye(dim) + 0.5 * m / np.linalg.norm(m, 2)
        g2 = metric_from_matrix(s.conj().T @ metric.g @ s)
    s_inv = np.linalg.inv(s)
    base = evaluate_all(a, b, psi, metric, formalism, psi_perp=perp)
    moved = evaluate_all(s_inv @ a @ s, s_inv @ b @ s, s_inv @ psi, g2, formalism,
                         psi_perp=None if perp is None else s_inv @ perp)
    g = metric.g if formalism is not Formalism.PLAIN else np.eye(dim)
    _assert_same(moved, base, a, b, psi, g)
