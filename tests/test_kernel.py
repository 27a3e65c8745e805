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
    DimensionMismatchError,
    Example1Config,
    Example2Config,
    Formalism,
    Metric,
    MetricReport,
    MetricValidationError,
    NhurError,
    NonFiniteError,
    NotGoodObservableError,
    NotNormalizedError,
    NotOrthogonalError,
    ZeroVectorError,
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
    is_good_observable,
    metric_from_matrix,
    metric_from_right_eigenvectors,
    pt_hamiltonian,
    require_normalized,
    superposition_state,
    sweep,
    symmetric_eigensystem,
    ur1,
    ur2,
    ur3,
    ur4,
    validate_metric,
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
    psi, perp = random_states(rng, stats, with_perp)
    return a, b, psi, metric, perp, stats


def random_states(rng, stats, with_perp):
    """A G-normalized psi and, if asked for, a perp G-orthogonal to it."""
    psi = random_state(rng, stats)
    perp = None
    if with_perp:
        v = random_state(rng, stats)
        v = v - complex(np.vdot(psi, stats.g @ v)) * psi
        perp = v / math.sqrt(complex(np.vdot(v, stats.g @ v)).real)
    return psi, perp


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


def assert_n_invariant(batch, a, b, psi, g, psi_perp=None, **kwargs):
    """batch, the relation_batch of N points, equals the N calls of one
    point each, bit for bit: a stacked (N, d, d) operator or metric is cut
    to its (1, d, d) slice, a shared (d, d) one passed as it is."""
    for i in range(len(psi)):
        def cut(x):
            return x[i:i + 1] if x.ndim == 3 else x
        one = relation_batch(cut(a), cut(b), psi[i:i + 1], cut(g),
                             None if psi_perp is None else psi_perp[i:i + 1],
                             **kwargs)
        for name in ("lhs", "rhs", "gap", "holds", "minus", "degenerate"):
            got, want = getattr(one, name)[..., 0], getattr(batch, name)[..., i]
            assert got.tobytes() == want.tobytes(), (i, name, got, want)
        assert repr(one.errors[0]) == repr(batch.errors[i]), i


@pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
@pytest.mark.parametrize("with_perp", [False, True], ids=["default-perp", "perp"])
@pytest.mark.parametrize("formalism", FORMALISMS, ids=lambda f: f.value)
@pytest.mark.parametrize("dim", [2, 3, 4, 6, 8, 64])
def test_kernel_is_n_invariant(dim, formalism, with_perp, stacked):
    # the kernel has no one-point path: each point of a batch, passing or
    # failing (the last state's values overflow), reads as its own call
    rng = np.random.default_rng(1000 * dim + 10 * FORMALISMS.index(formalism)
                                + 2 * with_perp + stacked)
    if stacked:
        problems = [random_problem(rng, dim, formalism, with_perp) for _ in range(5)]
        a, b, psi, _, perp, stats = (list(x) for x in zip(*problems))
        a, b, g = np.array(a), np.array(b), np.array([m.g for m in stats])
    else:
        a, b, _, _, _, stats = random_problem(rng, dim, formalism, with_perp)
        psi, perp = zip(*(random_states(rng, stats, with_perp) for _ in range(5)))
        g = stats.g
    psi = np.array(psi)
    psi[-1] *= 1e200
    perp = None if not with_perp else np.array(perp)
    batch = relation_batch(a, b, psi, g, perp)
    assert [e is None for e in batch.errors] == [True] * 4 + [False]
    assert isinstance(batch.errors[-1], NonFiniteError)
    assert_n_invariant(batch, a, b, psi, g, perp)


@pytest.mark.parametrize("plain", [False, True], ids=["gmetric", "plain"])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_public_statistics_match_scalar_reference(dim, plain):
    # the helpers run the batched gufunc kernel, the reference np.vdot:
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
        "InternalInconsistencyError", "Metric", "MetricReport",
        "MetricValidationError", "NegativeNormError", "NhurError",
        "NonFiniteError", "NotGoodObservableError", "NotNormalizedError",
        "NotOrthogonalError", "OrthogonalPair", "PhaseMismatchError",
        "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "SYMMETRIC",
        "SingularFrameError", "UrEvaluation", "ZeroVectorError",
        "as_operator", "as_state", "av_orthogonal_state",
        "broken_eigensystem", "build_example1", "build_example2",
        "evaluate_all", "example1_sweep", "example2_sweep",
        "g_complement_projection", "g_covariance", "g_expectation",
        "g_orthogonal_complement_2d", "g_variance", "identity_metric",
        "is_good_observable", "metric_from_matrix",
        "metric_from_right_eigenvectors", "pt_hamiltonian",
        "require_normalized", "superposition_state", "sweep",
        "symmetric_eigensystem", "ur1", "ur2", "ur3", "ur3_default_perp",
        "ur4", "validate_metric",
    }
    assert len(nhur.__all__) == len(set(nhur.__all__)) == 57
    for name in nhur.__all__:
        getattr(nhur, name)


# a non-Hermitian "metric" would make Var(A) complex: 1 - 0.01i
SKEW = [[1.0, 0.1], [0.1j, 1.0]]


@pytest.mark.parametrize("g, flags", [
    (np.diag([1.0, -1.0]), (True, False)), (SKEW, (False, True)),
    ([[1.0, 0.1], [0.1j, -1.0]], (False, False)), (np.diag([1.0, 0.0]), (True, False)),
], ids=["indefinite", "not-hermitian", "skew-and-indefinite", "singular"])
def test_a_metric_outside_the_contract_is_refused(g, flags):
    # the contract is checked once, when the Metric is built, on the report
    # of its own matrix: no report can be handed in, so one no factory would
    # return cannot exist, and no function that computes with a Metric's
    # matrix checks it again.  Accepted, the indefinite matrix would give
    # ur2 a false verdict
    with pytest.raises(MetricValidationError) as caught:
        Metric(g)
    report = caught.value.report
    assert report == validate_metric(g)
    assert (report.hermitian, report.positive_definite) == flags


def test_a_metric_owns_a_read_only_matrix():
    # the caller's array is copied, so mutating it later moves nothing;
    # so is another metric's read-only matrix: every build takes a copy
    g = np.array([[2.0, 0.5j], [-0.5j, 1.0]])
    metric = Metric(g)
    assert metric.validation == validate_metric(g)
    g[0, 0] = 7.0
    assert metric.g.tolist() == [[2.0, 0.5j], [-0.5j, 1.0]]
    assert metric.g.dtype == complex and not metric.g.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        metric.g[0, 0] = 7.0
    again = Metric(metric.g).g
    assert again.tolist() == metric.g.tolist() and again is not metric.g


def test_a_metric_copies_a_read_only_view():
    # a read-only view changes with its writable base, which would let an
    # indefinite matrix into a built Metric
    base = np.diag([2.0, 1.0]).astype(complex)
    view = base.view()
    view.setflags(write=False)
    metric = Metric(view)
    base[0, 0] = -1.0
    assert metric.g.tolist() == [[2.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("build", [
    Metric, metric_from_matrix, lambda g: replace(metric_from_matrix(np.eye(2)), g=g),
], ids=["direct", "factory", "replace"])
def test_a_metric_copies_a_read_only_array_its_owner_makes_writable(build):
    # an array that owns its data can be made writable again: kept, it
    # would leave a built Metric whose report reads positive definite over
    # an indefinite matrix
    g = np.array([[2.0, 0.5j], [-0.5j, 1.0]])
    g.setflags(write=False)
    metric = build(g)
    g.setflags(write=True)
    g[0, 0] = -5.0
    assert metric.g.tolist() == [[2.0, 0.5j], [-0.5j, 1.0]]
    assert metric.validation == validate_metric(metric.g)
    assert metric.validation.positive_definite


def test_replace_cannot_break_the_metric_contract():
    metric = metric_from_matrix([[2.0, 0.5j], [-0.5j, 1.0]])
    for bad in (SKEW, np.diag([1.0, -1.0])):
        with pytest.raises(MetricValidationError) as caught:
            replace(metric, g=bad)
        assert caught.value.report == validate_metric(bad)
    with pytest.raises(ValueError, match="init=False"):
        replace(metric, validation=MetricReport(True, True, 1.0))


def test_the_factories_meet_the_metric_contract():
    frame = symmetric_eigensystem(0.9)
    for metric in (identity_metric(2), metric_from_matrix([[2.0, 0.5j], [-0.5j, 1.0]]),
                   metric_from_right_eigenvectors(frame, pt_hamiltonian(0.9))):
        psi = superposition_state([E0, E1], [1.0, 0.5], metric)
        assert require_normalized(psi, metric) is not None
        assert evaluate_all(SX, SY, psi, metric, Formalism.GMETRIC)[0].holds
        assert is_good_observable(SX, metric).residual >= 0.0


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
    ],
    ids=["state-norm", "not-good", "perp-overlap", "perp-norm"],
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
    # a non-orthogonal override breaks the calls that take it; ur1, ur2
    # and ur4 take no psi_perp
    bad = (E0 + E1) / math.sqrt(2.0)
    for fn in (ur3, evaluate_all):
        with pytest.raises(NotOrthogonalError):
            fn(SX, SY, E0, psi_perp=bad)


@pytest.mark.parametrize("formalism", FORMALISMS, ids=lambda f: f.value)
def test_each_relation_is_a_record_of_evaluate_all(formalism):
    # ur1..ur4 are records of one evaluate_all call, bit for bit, and
    # raise the error it raises
    rng = np.random.default_rng(21 + FORMALISMS.index(formalism))
    for dim in (2, 3, 4):
        for _ in range(5):
            a, b, psi, metric, _, _ = random_problem(rng, dim, formalism, False)
            records = evaluate_all(a, b, psi, metric, formalism)
            assert [fn(a, b, psi, metric, formalism)
                    for fn in (ur1, ur2, ur3, ur4)] == list(records)
    errors = set()
    for fn in (evaluate_all, ur1, ur2, ur3, ur4):
        with pytest.raises(NotNormalizedError) as caught:
            fn(SX, SY, 2.0 * E0, None, formalism)
        errors.add(str(caught.value))
    assert errors == {"state has metric norm^2 = 4 (must be 1 within 4e-08)"}


# Problems that each fail two boundary rules, with the error of the first.
TWO_FAILURES = [
    # shapes first: a 3x3 metric under 2x2 operators, the gate failing too
    (dict(g=identity_metric(3), formalism=Formalism.GOOD, a=pt_hamiltonian(1.2)),
     DimensionMismatchError),
    # the gate, then psi's normalization
    (dict(g=metric_gs(0.9), formalism=Formalism.GOOD, a=pt_hamiltonian(1.2),
          psi=2.0 * E0), NotGoodObservableError),
    # psi's normalization, then psi_perp's
    (dict(psi=2.0 * E0, psi_perp=2.0 * E1), "state has"),
    # psi_perp's normalization, then its overlap
    (dict(psi_perp=2.0 * E0), "auxiliary state has metric norm"),
    # the overlap, then the kernel's finite rule
    (dict(a=1e200 * SX, psi_perp=E0), NotOrthogonalError),
]


def test_first_error_follows_the_check_order():
    # the boundary raises the first failed rule in its order: shapes, the
    # good-observable gate, psi's normalization, psi_perp's normalization
    # and its overlap; the kernel's finite rule comes last
    for case, error in TWO_FAILURES:
        args = dict(a=SX, b=SY, psi=E0, g=None, formalism=Formalism.GMETRIC,
                    psi_perp=None)
        args.update(case)
        for fn in (evaluate_all, ur3):
            if isinstance(error, str):
                with pytest.raises(NotNormalizedError, match=f"^{error}"):
                    fn(**args)
            else:
                with pytest.raises(error):
                    fn(**args)


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
        result = example1_sweep(points=181)
        build = lambda x: build_example1(Example1Config(theta0=x))  # noqa: E731
    else:
        result = example2_sweep(cfg, points=181, formalism=formalism)
        build = lambda x: build_example2(replace(cfg, alpha=x))  # noqa: E731
    points = reference.points(result)
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
    assert result.ok.all()


@pytest.mark.parametrize("cfg,formalism", BENCH_SWEEPS,
                         ids=["example1", "symmetric-good", "broken-good",
                              "symmetric-gmetric", "near-ep"])
def test_sweeps_are_n_invariant(monkeypatch, cfg, formalism):
    calls = []

    def recording(*args, **kwargs):
        calls.append((relation_batch(*args, **kwargs), args, kwargs))
        return calls[-1][0]

    monkeypatch.setattr(scenarios, "relation_batch", recording)
    if cfg is None:
        example1_sweep(points=181)
    else:
        example2_sweep(cfg, points=181, formalism=formalism)
    ((batch, args, kwargs),) = calls
    assert len(batch.errors) == 181
    assert_n_invariant(batch, *args, **kwargs)


def test_plain_example2_sweep_matches_reference():
    # under plain the superposition is normalized in the Dirac product
    for cfg, _ in BENCH_SWEEPS[1:3]:
        result = example2_sweep(cfg, points=181, formalism=Formalism.PLAIN)
        for pt in reference.points(result):
            a, b, psi, metric = build_example2(replace(cfg, alpha=pt.param),
                                               Formalism.PLAIN)
            want = reference.evaluate_all(a, b, psi, metric, Formalism.PLAIN)
            assert pt.ok, pt.error
            tol = 256 * EPS * second_moments(a, b, psi, np.eye(2))
            assert_matches(pt.evaluations, want, tol)


SCENARIOS = [(None, Formalism.PLAIN)] + [
    (cfg, formalism) for cfg in (Example2Config.symmetric_default(),
                                 Example2Config.broken_default())
    for formalism in FORMALISMS]


@pytest.mark.parametrize("cfg,formalism", SCENARIOS, ids=["example1"] + [
    f"{cfg.phase}-{formalism.value}" for cfg, formalism in SCENARIOS[1:]])
def test_generic_sweep_matches_closed_form_sweep(cfg, formalism):
    # each scenario's single point is the one-point slice of its sweep, so
    # every row of the closed-form and the generic sweep is evaluate_all on
    # that point's builder output, bit for bit
    if cfg is None:
        grid, closed = (0.0, math.pi), example1_sweep(points=721)
        build = lambda x: build_example1(Example1Config(theta0=x))  # noqa: E731
    else:
        grid = (0.0, 2 * math.pi)
        closed = example2_sweep(cfg, points=721, formalism=formalism)
        build = lambda x: build_example2(replace(cfg, alpha=x), formalism)  # noqa: E731
    stacked = sweep(build, grid, 721, formalism)
    for p, q in zip(reference.points(stacked), reference.points(closed), strict=True):
        assert p.ok and q.ok, (p.error, q.error)
        assert p.param == q.param
        assert p.evaluations == q.evaluations == evaluate_all(*build(p.param), formalism)


def test_generic_sweep_groups_dimensions():
    rng = np.random.default_rng(5)
    problems = {}

    def builder(value):
        dim = 2 if value < 0.5 else 3
        metric = identity_metric(dim)
        problems[value] = (random_operator(rng, dim), random_operator(rng, dim),
                           random_state(rng, metric), metric)
        return problems[value]

    for pt in reference.points(sweep(builder, (0.0, 1.0), 6)):
        assert pt.ok
        assert pt.evaluations == evaluate_all(*problems[pt.param])


def test_example2_sweep_builds_its_metric_once(monkeypatch):
    calls = []
    build = scenarios.metric_from_right_eigenvectors

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(scenarios, "metric_from_right_eigenvectors", counting)
    result = example2_sweep(Example2Config.symmetric_default(), points=181)
    assert result.ok.all()
    assert len(calls) == 1


def test_good_example2_sweep_checks_the_gate_once(monkeypatch):
    # the gate is a condition on (A, B, G) alone: a good sweep forms it
    # once, one residual for A and one for B, and a gmetric sweep not at all
    calls = []
    residual = nhur.metric._good_residual

    def counting(x, g):
        calls.append(x.shape)
        return residual(x, g)

    monkeypatch.setattr(nhur.metric, "_good_residual", counting)
    result = example2_sweep(Example2Config.symmetric_default(), points=181)
    assert result.ok.all()
    assert calls == [(2, 2), (2, 2)]
    example2_sweep(Example2Config.symmetric_default(), points=181,
                   formalism=Formalism.GMETRIC)
    assert calls == [(2, 2), (2, 2)]


def test_a_failed_gate_fails_every_point_whose_state_built(monkeypatch):
    # a point whose state failed keeps that error, every other point
    # records the gate's, and the kernel is not called
    superpose = scenarios._superpose

    def one_failed(*args):
        psi, errors = superpose(*args)
        errors[3] = ZeroVectorError("superposition cancels")
        return psi, errors

    def forbidden(*args, **kwargs):
        raise AssertionError("the kernel ran behind a failed gate")

    monkeypatch.setattr(scenarios, "_superpose", one_failed)
    monkeypatch.setattr(nhur.metric, "_good_residual",
                        lambda x, g: 2e-9)
    monkeypatch.setattr(scenarios, "relation_batch", forbidden)
    points = reference.points(example2_sweep(Example2Config.symmetric_default(),
                                             points=7))
    gate = ("NotGoodObservableError: good-observable formalism requires both "
            "operators to satisfy X^dag G = G X; residuals a=2.000e-09, "
            "b=2.000e-09 (threshold 1e-09)")
    state = "ZeroVectorError: superposition cancels"
    assert [p.error for p in points] == [gate] * 3 + [state] + [gate] * 3


def test_metric_failure_is_recorded_on_every_point(monkeypatch):
    def failing(*args, **kwargs):
        raise MetricValidationError("metric rejected for the test",
                                    validate_metric(np.diag([1.0, -1.0])))

    monkeypatch.setattr(scenarios, "metric_from_right_eigenvectors", failing)
    points = reference.points(example2_sweep(Example2Config.broken_default(), points=7))
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


def test_ur3_explicit_perp_reports_the_larger_branch(rng):
    for formalism in FORMALISMS:
        for dim in (2, 4):
            a, b, psi, metric, perp, stats = random_problem(rng, dim, formalism,
                                                            True)
            tol = 256 * EPS * second_moments(a, b, psi, stats.g)
            for b in (b, -b):  # -B swaps the two branches, so each one wins
                one = ur3(a, b, psi, metric, formalism, psi_perp=perp)
                want = max((reference.ur3_branch(a, b, psi, metric, formalism, sign, perp)
                            for sign in ("plus", "minus")), key=lambda ev: ev.rhs)
                assert abs(one.rhs - want.rhs) <= tol
                assert abs(one.gap - want.gap) <= tol
                if branch_is_clear(a, b, psi, stats, tol, perp)[0]:
                    assert one.sign_branch == want.sign_branch


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
        # a near-joint eigenstate at unit scale: sd of A +- B near 1e-12,
        # far below EPS_DEGEN (|A psi| + |B psi|), but not zero
        eye = np.eye(dim)
        a = eye + 1e-12 * random_operator(rng, dim)
        ev = ur4(a, 2.0 * eye + 1e-12 * random_operator(rng, dim), psi)
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
@given(problems(), st.floats(1e-12, 1e12))
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


@pytest.mark.parametrize("c", [1e-12, 1e-9, 1e12])
def test_ur4_does_not_depend_on_units(c):
    # the eigenstate rule takes its scale from |A psi|_G + |B psi|_G, so no
    # branch turns flat as the operators shrink, and none stays flat as
    # they grow
    rng = np.random.default_rng(33)
    for _ in range(100):
        a, b = (rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
                for _ in "ab")
        psi = random_state(rng, identity_metric(2))
        base, scaled = ur4(a, b, psi), ur4(c * a, c * b, psi)
        assert scaled.degenerate == base.degenerate
        npt.assert_allclose([scaled.rhs, scaled.gap],
                            [c * c * base.rhs, c * c * base.gap], rtol=1e-9)


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
