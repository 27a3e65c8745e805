"""Every input the validators accept evaluates or fails typed.

A property over a wide space of problems: d from 1 to 4, the plain and
gmetric formalisms, operators at 10^U(-160, 160), a metric from
`metric_from_matrix` at 10^U(-150, 150) with cond(G) up to 10^9.5, and psi
normalized in the metric of the statistics.  Through `evaluate_all`,
`require_normalized`, `g_variance` and `g_covariance` each draw must
evaluate or raise an NhurError other than InternalInconsistencyError, which
would be a fault of the package's own; a warning fails the test through
the suite's warning filter.  An overflow oracle checks that NonFiniteError
is raised only where a true value overflows: scaling A and B by 2^-k, G by
2^-2m and psi by 2^m, where that is exact, scales every value by 2^-2k (the
expectation, linear in A, by 2^-k), so the rescaled values, scaled back,
must leave double range.

The same problems, in all three formalisms and written with
`helpers.problem_payload`, through an in-process `nhur check`: no exception
escapes `main`, the exit code is 0, 1 or 2, and an exit of 2 comes with a
report whose error names an NhurError other than InternalInconsistencyError.

A second, metamorphic property: scaling an operand by c = 2^k, an exact
operation for k over +-700, moves no bit of what the state constructions
return or of the good-observable residual, and no flag of `validate_metric`.

A third: ur3's verdict holds for the tight auxiliary state of either
branch scaled to a norm^2 that the normalization rule accepts, 1 + delta
with |delta| <= 9e-9, wherever cond(G) <= 1e6.

A fourth: every gamma, the exceptional point and NaN included, builds the
PT model's eigensystems, configs and scenario or fails typed, and every
broken-phase gamma up to double range that the config admits builds.
"""

import json
import math
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import problem_payload
from nhur import (
    BROKEN,
    SYMMETRIC,
    Example2Config,
    Formalism,
    InternalInconsistencyError,
    NhurError,
    NonFiniteError,
    av_orthogonal_state,
    broken_eigensystem,
    build_example2,
    evaluate_all,
    g_covariance,
    g_expectation,
    g_orthogonal_complement_2d,
    g_variance,
    identity_metric,
    is_good_observable,
    metric_from_matrix,
    require_normalized,
    superposition_state,
    symmetric_eigensystem,
    ur3_default_perp,
    validate_metric,
)
from nhur.cli import main


def boundary_problem(d, seed, a_exp, b_exp, g_exp, cond_exp):
    """(A, B, v, G): A and B complex Gaussian times 10^a_exp and 10^b_exp,
    v complex Gaussian, and G Hermitian with largest eigenvalue 10^g_exp
    and, for d > 1, smallest 10^(g_exp - cond_exp)."""
    rng = np.random.default_rng(seed)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    q = np.linalg.qr(gauss(d, d))[0]
    spread = rng.uniform(0.0, cond_exp, d)
    spread[0], spread[-1] = cond_exp, 0.0
    g = (q * 10.0 ** (g_exp - spread)) @ q.conj().T
    return (gauss(d, d) * 10.0 ** a_exp, gauss(d, d) * 10.0 ** b_exp, gauss(d),
            (g + g.conj().T) / 2.0)


def typed(call):
    """call's result, or None where it raised an NhurError a caller may see."""
    try:
        return call()
    except InternalInconsistencyError:
        raise
    except NhurError:
        return None


@settings(max_examples=500, deadline=None, database=None)
@given(st.integers(1, 4), st.sampled_from([Formalism.PLAIN, Formalism.GMETRIC]),
       st.integers(0, 2**32 - 1), st.floats(-160.0, 160.0), st.floats(-160.0, 160.0),
       st.floats(-150.0, 150.0), st.floats(0.0, 9.5))
def test_every_accepted_input_evaluates_or_fails_typed(d, formalism, seed, a_exp,
                                                       b_exp, g_exp, cond_exp):
    a, b, v, g = boundary_problem(d, seed, a_exp, b_exp, g_exp, cond_exp)
    metric = typed(lambda: metric_from_matrix(g))
    if metric is None:
        return
    stats = metric if formalism is Formalism.GMETRIC else identity_metric(d)
    psi = v / np.sqrt(np.vdot(v, stats.g @ v).real)
    typed(lambda: evaluate_all(a, b, psi, metric, formalism))
    typed(lambda: require_normalized(psi, stats))
    typed(lambda: g_variance(a, psi, stats))
    typed(lambda: g_covariance(a, b, psi, stats))


def exactly(x, exp):
    """x * 2^exp, or None where scaling it back does not return x's bits."""
    scaled = x * 2.0 ** exp
    return scaled if (scaled * 2.0 ** -exp).tobytes() == x.tobytes() else None


def error_of(call):
    """The NhurError call raised, or None."""
    try:
        call()
    except InternalInconsistencyError:
        raise
    except NhurError as exc:
        return exc
    return None


def statistics(a, b, psi, metric, formalism) -> dict:
    """evaluate_all's values, g_expectation, g_variance and g_covariance of
    one problem, each a call, in the metric of the statistics."""
    stats = metric if formalism is Formalism.GMETRIC else identity_metric(len(psi))
    return {
        "evaluate_all": lambda: [x for ev in evaluate_all(a, b, psi, metric, formalism)
                                 for x in (ev.lhs, ev.rhs, ev.gap)],
        "g_expectation": lambda: g_expectation(a, psi, stats),
        "g_variance": lambda: g_variance(a, psi, stats),
        "g_covariance": lambda: g_covariance(a, b, psi, stats),
    }


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 4), st.sampled_from([Formalism.PLAIN, Formalism.GMETRIC]),
       st.integers(0, 2**32 - 1), st.floats(-160.0, 160.0), st.floats(-160.0, 160.0),
       st.floats(-150.0, 150.0), st.floats(0.0, 9.5))
# a variance within double range whose products, summed, overflowed
@example(3, Formalism.GMETRIC, 1397358228, 154.22345288650098, 136.3851689080629,
         -58.836344142405224, 6.362067574460317)
def test_nonfinite_only_where_a_true_value_overflows(d, formalism, seed, a_exp, b_exp,
                                                     g_exp, cond_exp):
    a, b, v, g = boundary_problem(d, seed, a_exp, b_exp, g_exp, cond_exp)
    metric = typed(lambda: metric_from_matrix(g))
    if metric is None:
        return
    gmetric = formalism is Formalism.GMETRIC
    stats = metric if gmetric else identity_metric(d)
    psi = v / np.sqrt(np.vdot(v, stats.g @ v).real)
    failed = [name for name, call in statistics(a, b, psi, metric, formalism).items()
              if isinstance(error_of(call), NonFiniteError)]
    k = int(np.frexp(max(np.abs(a).max(), np.abs(b).max()))[1])
    m = int(np.frexp(np.abs(g).max())[1]) // 2 if gmetric else 0
    scaled = [exactly(x, exp) for x, exp in ((a, -k), (b, -k), (psi, m), (g, -2 * m))]
    if not failed or any(x is None for x in scaled):
        return
    # every value of the rescaled problem is the true one times 2^-2k, and
    # the expectation, linear in A, times 2^-k
    a2, b2, psi2, g2 = scaled
    rescaled = statistics(a2, b2, psi2, metric_from_matrix(g2), formalism)
    for name in failed:
        values = np.array(rescaled[name](), dtype=complex, ndmin=1).view(float)
        shift = k if name == "g_expectation" else 2 * k
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.ldexp(values, shift)).all(), (name, values, k)


def error_names() -> set:
    """The name of every NhurError class a caller may see."""
    names, todo = set(), [NhurError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo += cls.__subclasses__()
    return names - {"InternalInconsistencyError"}


def good_for(x, g, exp):
    """G^-1 (x + x^dag), formed at unit scale and scaled to a largest entry
    of 10^exp: X^dag G = G X up to rounding, so it can pass the
    good-observable gate."""
    x = x / np.abs(x).max()
    good = np.linalg.solve(g / np.abs(g).max(), x + x.conj().T)
    return good * (10.0 ** exp / np.abs(good).max())


def run_check(payload) -> tuple:
    """(exit code, --out report) of `nhur check` on the payload, in process."""
    with tempfile.TemporaryDirectory() as tmp:
        problem, out = os.path.join(tmp, "problem.json"), os.path.join(tmp, "report.json")
        with open(problem, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        code = main(["check", "--input", problem, "--out", out])
        with open(out, encoding="utf-8") as fh:
            return code, json.load(fh)


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(1, 4), st.sampled_from(list(Formalism)), st.integers(0, 2**32 - 1),
       st.floats(-160.0, 160.0), st.floats(-160.0, 160.0), st.floats(-150.0, 150.0),
       st.floats(0.0, 9.5), st.booleans())
def test_check_gives_a_verdict_or_a_typed_error(d, formalism, seed, a_exp, b_exp,
                                                g_exp, cond_exp, with_perp):
    a, b, v, g = boundary_problem(d, seed, a_exp, b_exp, g_exp, cond_exp)
    metric = metric_from_matrix(g)  # cond(G) <= 10^9.5 is always accepted
    if formalism is Formalism.GOOD:
        a, b = good_for(a, g, a_exp), good_for(b, g, b_exp)
    stats = identity_metric(d) if formalism is Formalism.PLAIN else metric
    psi = v / np.sqrt(np.vdot(v, stats.g @ v).real)
    perp = None
    if with_perp and d > 1:  # psi's G-orthogonal complement of a second draw
        w = boundary_problem(d, seed + 1, 0.0, 0.0, 0.0, 0.0)[2]
        w = w - psi * np.vdot(psi, stats.g @ w)
        perp = w / np.sqrt(np.vdot(w, stats.g @ w).real)
    code, report = run_check(problem_payload(a, b, psi, metric, formalism.value, perp))
    assert code in (0, 1, 2)
    assert ("error" in report) == (code == 2)
    if code == 2:
        assert report["error"].split(":")[0] in error_names(), report["error"]


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(2, 4), st.sampled_from([Formalism.PLAIN, Formalism.GMETRIC]),
       st.integers(0, 2**32 - 1), st.floats(-100.0, 100.0), st.floats(-100.0, 100.0),
       st.floats(-100.0, 100.0), st.floats(0.0, 6.0), st.sampled_from([1, -1]),
       st.floats(-9e-9, 9e-9))
@example(2, Formalism.PLAIN, 0, 0.0, 0.0, 0.0, 0.0, 1, 9e-9)
@example(3, Formalism.GMETRIC, 1, 0.0, 0.0, 0.0, 6.0, -1, 9e-9)
def test_ur3_holds_for_a_perp_the_normalization_rule_accepts(d, formalism, seed, a_exp,
                                                             b_exp, g_exp, cond_exp,
                                                             sign, delta):
    # ur3's bound is taken on perp's ray, |e|^2 / <perp|G perp>, so a perp
    # at norm^2 1 + delta, which the normalization rule accepts, gives its
    # unit vector's bound: even a branch's tight perp, so scaled, yields no
    # false violation
    a, b, v, g = boundary_problem(d, seed, a_exp, b_exp, g_exp, cond_exp)
    metric = metric_from_matrix(g)
    stats = metric if formalism is Formalism.GMETRIC else identity_metric(d)
    psi = v / np.sqrt(np.vdot(v, stats.g @ v).real)
    perp = typed(lambda: ur3_default_perp(a, b, psi, stats, sign))
    if perp is None:
        return
    ur3 = evaluate_all(a, b, psi, metric, formalism,
                       psi_perp=perp * math.sqrt(1.0 + delta))[2]
    assert ur3.holds, (ur3, delta)


@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(st.floats(-3.0, 3.0), st.sampled_from([1.0, -1.0, math.nan])))
def test_every_gamma_builds_or_fails_typed(gamma):
    # the one gamma rule runs first in each eigensystem builder and in the
    # config, so a builder returns exactly where its phase's config builds
    for phase, builder in ((SYMMETRIC, symmetric_eigensystem),
                           (BROKEN, broken_eigensystem)):
        cfg = typed(lambda: Example2Config(gamma=gamma, p=0.5, phase=phase))
        assert (typed(lambda: builder(gamma)) is None) == (cfg is None)
        if cfg is not None:
            for formalism in Formalism:
                typed(lambda: build_example2(cfg, formalism))


@settings(max_examples=100, deadline=None, database=None)
@given(st.floats(0.0, 308.0))
@example(8.0)
@example(154.0)
@example(200.0)
@example(308.0)
def test_a_broken_gamma_up_to_double_range_builds(exponent):
    # the broken-phase closed form cancels and overflows nowhere, so
    # wherever the config builds, the frame and the scenario build too,
    # with no warning
    gamma = 10.0 ** exponent
    cfg = typed(lambda: Example2Config(gamma=gamma, p=0.5, phase=BROKEN))
    if cfg is not None:
        broken_eigensystem(gamma)
        for formalism in Formalism:
            build_example2(cfg, formalism)


def flags(report):
    return report.hermitian, report.positive_definite


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.integers(-700, 700),
       st.floats(0.0, 3.0), st.floats(-12.0, 0.0), st.floats(-1.0, 1.0))
def test_a_power_of_two_scale_moves_no_bit(d, seed, k, cond_exp, skew_exp, shift):
    # each construction scales its operand exactly before it forms a norm^2
    # or a variance, so c = 2^k changes nothing but the units: a state
    # built from c * basis or c * x is the one built at c = 1, the
    # complement of psi / c under c^2 G is the one of psi under G over c,
    # and the good-observable residual of c * x, or of x under c G, is the
    # one at c = 1
    _, _, v, g = boundary_problem(d, seed, 0.0, 0.0, 0.0, cond_exp)
    rng = np.random.default_rng(seed + 1)
    basis, x = (rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d)))
    metric, c = metric_from_matrix(g), 2.0 ** k
    psi = superposition_state(basis, v, metric)
    scaled = superposition_state(c * basis, v, metric)
    assert scaled.tobytes() == psi.tobytes()
    perp = av_orthogonal_state(x, psi, metric).psi_perp
    assert av_orthogonal_state(c * x, psi, metric).psi_perp.tobytes() == perp.tobytes()
    for state in (psi, perp):
        require_normalized(state, metric)
    if d == 2:
        h = 2.0 ** (k // 2)  # so that h^2 G stays within double range
        scaled_metric = metric_from_matrix(h * h * g)
        comp = g_orthogonal_complement_2d(psi / h, scaled_metric)
        assert (comp * h).tobytes() == g_orthogonal_complement_2d(psi, metric).tobytes()
        require_normalized(comp, scaled_metric)
    residual = is_good_observable(x, metric).residual
    for x_c, g_c in ((exactly(x, k), g), (x, exactly(g, k))):
        if x_c is not None and g_c is not None:
            check = is_good_observable(x_c, metric_from_matrix(g_c))
            assert check.residual == residual, (check.residual, residual)
    # a candidate that may be skew or indefinite flags alike at every scale
    candidate = g + 10.0 ** skew_exp * x - shift * np.eye(d)
    assert flags(validate_metric(c * candidate)) == flags(validate_metric(candidate))
