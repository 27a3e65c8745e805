import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import metric_gb, metric_gs, random_operator, random_state
from nhur import (
    DegenerateEigenstateError,
    DimensionMismatchError,
    Example1Config,
    Example2Config,
    Formalism,
    InternalInconsistencyError,
    Metric,
    MetricValidationError,
    NegativeNormError,
    NonFiniteError,
    OrthogonalPair,
    SIGMA_X,
    SIGMA_Z,
    ZeroVectorError,
    av_orthogonal_state,
    build_example1,
    build_example2,
    example2_sweep,
    g_complement_projection,
    g_orthogonal_complement_2d,
    identity_metric,
    metric_from_matrix,
    superposition_state,
    symmetric_eigensystem,
    ur3,
    ur3_default_perp,
)
from nhur.states import _one, _unit

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)


def test_superposition_single_weight_returns_basis_vector():
    out = superposition_state([E0, E1], [1.0, 0.0], identity_metric(2))
    npt.assert_allclose(out, E0, atol=1e-15)


def test_superposition_normalization_coefficient():
    # with a metric-orthonormal basis the coefficient of the first vector
    # is 1/sqrt(1 + p^2) regardless of the relative phase
    p = 0.5
    metric = metric_gs(0.9)
    sys_ = symmetric_eigensystem(0.9)
    for alpha in (0.0, 1.0, np.pi):
        psi = superposition_state(
            [sys_.right[:, 0], sys_.right[:, 1]],
            [1.0, p * np.exp(1j * alpha)],
            metric,
        )
        nsq = complex(np.vdot(psi, metric.g @ psi)).real
        npt.assert_allclose(nsq, 1.0, atol=1e-12)
        coeff = complex(np.vdot(sys_.right[:, 0], metric.g @ psi))
        npt.assert_allclose(abs(coeff), 1.0 / math.sqrt(1.0 + p * p), atol=1e-12)


def test_superposition_real_planar_state_is_already_unit():
    for theta0 in (0.1, 0.7, 2.0):
        w = [math.cos(2 * theta0), math.sin(2 * theta0)]
        out = superposition_state([E0, E1], w, identity_metric(2))
        npt.assert_allclose(out, np.array(w, dtype=complex), atol=1e-15)


def test_superposition_rejects_cancellation():
    with pytest.raises(ZeroVectorError):
        superposition_state([E0, E0], [1.0, -1.0], identity_metric(2))
    with pytest.raises(ZeroVectorError):
        superposition_state([E0, E1], [0.0, 0.0], identity_metric(2))


def test_superposition_rejects_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        superposition_state([E0, E1], [1.0], identity_metric(2))


def test_superposition_rejects_non_finite_weights():
    # a NaN weight is non-finite input, not a cancelled combination
    with pytest.raises(NonFiniteError, match="^weights contains non-finite entries$"):
        superposition_state([E0, E1], [np.nan, 1.0], identity_metric(2))


def test_superposition_negative_norm_flags_invalid_metric():
    bad = np.diag([-1.0, -1.0]).astype(complex)
    # a Metric of this matrix cannot be built; the normalizer behind
    # superposition_state still flags a norm^2 that is not positive
    with pytest.raises(MetricValidationError) as caught:
        Metric(bad)
    assert not caught.value.report.positive_definite
    with pytest.raises(NegativeNormError):
        _one(*_unit(np.array([E0 + E1]), bad, np.zeros(1, dtype=bool), "superposition"))


def test_complement_basis_case():
    out = g_orthogonal_complement_2d(E0, identity_metric(2))
    npt.assert_allclose(out, E1, atol=1e-15)


def test_complement_diagonal_superposition():
    psi = (E0 + E1) / math.sqrt(2.0)
    out = g_orthogonal_complement_2d(psi, identity_metric(2))
    npt.assert_allclose(out, (E0 - E1) / math.sqrt(2.0), atol=1e-14)
    # phase gauge: first significant amplitude real positive
    assert out[0].real > 0.0
    assert abs(out[0].imag) <= 1e-15


def test_complement_under_pt_metric():
    a, b, psi, metric = build_example2(Example2Config.symmetric_default())
    perp = g_orthogonal_complement_2d(psi, metric)
    overlap = abs(complex(np.vdot(perp, metric.g @ psi)))
    assert overlap <= 1e-12
    nsq = complex(np.vdot(perp, metric.g @ perp)).real
    npt.assert_allclose(nsq, 1.0, atol=1e-12)


def test_complement_rejects_other_dims():
    with pytest.raises(DimensionMismatchError):
        g_orthogonal_complement_2d(np.array([1.0, 0.0, 0.0]), identity_metric(3))


def test_complement_projection_removes_state_component(rng):
    for metric in (identity_metric(2), metric_gs(), metric_gb()):
        psi = random_state(rng, metric)
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        out = g_complement_projection(vec, psi, metric)
        assert abs(complex(np.vdot(out, metric.g @ psi))) <= 1e-12


def test_complement_projection_rejects_parallel_vector():
    with pytest.raises(ZeroVectorError):
        g_complement_projection(3.0 * E0, E0, identity_metric(2))


def test_complement_projection_does_not_depend_on_units(rng):
    metric = identity_metric(3)
    e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    vec = np.array([0.3, 1.0, 0.5j])
    want = g_complement_projection(vec, e0, metric)
    npt.assert_allclose(want, [0.0, 2.0 / math.sqrt(5.0), 1j / math.sqrt(5.0)],
                        atol=1e-15)
    npt.assert_allclose(g_complement_projection(1e-10 * vec, e0, metric), want,
                        rtol=0, atol=1e-15)
    # so ur3's default state follows (A + iB) psi at any scale, not the
    # basis fallback (0, 1, 0)
    a, b = random_operator(rng, 3), random_operator(rng, 3)
    psi = random_state(rng, metric)
    want = g_complement_projection((a + 1j * b) @ psi, psi, metric)
    npt.assert_allclose(ur3_default_perp(1e-10 * a, 1e-10 * b, psi, metric, 1),
                        want, rtol=0, atol=1e-14)
    # and (A + iB) e0 = e2 stays e2 where its norm^2 underflows or
    # overflows, neither the basis fallback e1 nor a NonFiniteError
    a = np.zeros((3, 3))
    a[0, 2] = a[2, 0] = 1.0
    for c in (1.0, 1e-150, 1e-170, 1e170):
        npt.assert_array_equal(ur3_default_perp(c * a, 0 * a, e0, metric, 1), [0, 0, 1])


def test_av_state_ladder_case():
    pair = av_orthogonal_state(np.array(SIGMA_X), E0, identity_metric(2))
    npt.assert_allclose(pair.psi_perp, E1, atol=1e-14)
    assert pair.overlap_residual <= 1e-12


@pytest.mark.parametrize("build", [
    lambda psi: av_orthogonal_state(SIGMA_X, psi, identity_metric(2)),
    lambda psi: OrthogonalPair(psi, E1, identity_metric(2), 0.0),
    lambda psi: replace(av_orthogonal_state(SIGMA_X, E0, identity_metric(2)), psi=psi),
], ids=["av_orthogonal_state", "direct", "replace"])
def test_an_orthogonal_pair_holds_read_only_copies(build):
    # av_orthogonal_state returned the caller's psi itself, so a change to
    # that array after the call changed the pair's state
    psi = E0.copy()
    pair = build(psi)
    psi[0] = 5.0
    assert pair.psi.tolist() == [1, 0]
    assert not (pair.psi.flags.writeable or pair.psi_perp.flags.writeable)


def test_av_state_rejects_eigenstate():
    with pytest.raises(DegenerateEigenstateError):
        av_orthogonal_state(np.array(SIGMA_Z), E0, identity_metric(2))


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
def test_av_eigenstate_rule_does_not_depend_on_units(c):
    # psi the eigenvector of M for lambda0 lies in the numerical null space
    # of X = c (M - lambda0 I), where |X psi|_G is itself rounding noise;
    # on the scale |X|_F such psi raise in any units, and random psi do not
    rng = np.random.default_rng(11)
    for metric in (identity_metric(2), metric_gs(0.6)):
        g = np.asarray(metric.g)
        for _ in range(40):
            m = random_operator(rng, 2)
            lam, vecs = np.linalg.eig(m)
            x = c * (m - lam[0] * np.eye(2))
            psi = vecs[:, 0] / np.sqrt(np.vdot(vecs[:, 0], g @ vecs[:, 0]).real)
            with pytest.raises(DegenerateEigenstateError):
                av_orthogonal_state(x, psi, metric)
            av_orthogonal_state(x, random_state(rng, metric), metric)


def test_av_state_example1_combination():
    cfg = Example1Config(theta0=math.pi / 8)
    a, b, psi, metric = build_example1(cfg)
    comb = a + b
    pair = av_orthogonal_state(comb, psi, metric)
    assert abs(complex(np.vdot(pair.psi_perp, psi))) <= 1e-10
    # reconstruction of the defining identity
    mean = complex(np.vdot(psi, comb @ psi))
    w = comb @ psi
    var = complex(np.vdot(w, w)).real - abs(mean) ** 2
    resid = np.linalg.norm(
        comb @ psi - mean * psi - math.sqrt(var) * pair.psi_perp
    )
    assert resid <= 1e-10


def test_av_state_near_the_exceptional_point():
    # cond(G) = 2e7 at this gamma, and the overlap's rounding grows with
    # |perp| |G psi|; the postcondition is relative to that product
    cfg = Example2Config(1.0 - 1e-7, 0.5)
    for alpha in np.linspace(0.0, 2.0 * math.pi, 73).tolist():
        a, b, psi, metric = build_example2(replace(cfg, alpha=alpha))
        gpsi = metric.g @ psi
        for x in (a, b, a + b, a - b):
            pair = av_orthogonal_state(x, psi, metric)
            scale = np.linalg.norm(pair.psi_perp) * np.linalg.norm(gpsi)
            assert pair.overlap_residual <= 1e-11 * scale


angles = st.floats(min_value=0.0, max_value=2 * math.pi)
entries = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
cmat = st.lists(st.builds(complex, entries, entries), min_size=4, max_size=4).map(
    lambda v: np.array(v, dtype=complex).reshape(2, 2)
)


@given(m=cmat, seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_av_reconstruction_property(m, seed):
    rng = np.random.default_rng(seed)
    for metric in (identity_metric(2), metric_gs(), metric_gb()):
        psi = random_state(rng, metric)
        g = np.asarray(metric.g)
        mean = complex(np.vdot(psi, g @ (m @ psi)))
        w = (m - mean * np.eye(2)) @ psi
        var = complex(np.vdot(w, g @ w)).real
        assume(var > 1e-10)
        pair = av_orthogonal_state(m, psi, metric)
        resid = np.linalg.norm(
            m @ psi - mean * psi - math.sqrt(var) * pair.psi_perp
        )
        assert resid <= 1e-10
        assert pair.overlap_residual <= 1e-10


def test_overlap_of_auxiliary_states_obeys_cauchy_schwarz(rng):
    # |<perp|G|perp_(A+iB)>| <= 1 for unit vectors
    for metric in (identity_metric(2), metric_gs(), metric_gb()):
        for _ in range(100):
            a = random_operator(rng)
            b = random_operator(rng)
            psi = random_state(rng, metric)
            comb = a + 1j * b
            try:
                pair = av_orthogonal_state(comb, psi, metric)
            except DegenerateEigenstateError:
                continue
            perp = g_orthogonal_complement_2d(psi, metric)
            overlap = abs(complex(np.vdot(perp, metric.g @ pair.psi_perp)))
            assert overlap <= 1.0 + 1e-12


def test_ur3_default_perp_is_the_unique_complement(rng):
    metric = metric_gs()
    psi = random_state(rng, metric)
    a = random_operator(rng)
    b = random_operator(rng)
    perp = g_orthogonal_complement_2d(psi, metric)
    for sign in (1, -1):
        npt.assert_array_equal(ur3_default_perp(a, b, psi, metric, sign), perp)


def test_ur3_default_perp_has_no_state_in_dimension_one():
    # no state is metric-orthogonal to psi in d = 1: a typed dimension
    # error, not an internal inconsistency
    with pytest.raises(DimensionMismatchError, match="dimension 1"):
        ur3_default_perp([[2.0]], [[1.0]], [1.0], identity_metric(1), 1)


def test_package_states_pass_ur3_near_the_exceptional_point():
    # the kernel's psi_perp check applies the same relative overlap limit
    # as the constructions, so their own output is never rejected there
    cfg = Example2Config(1.0 - 1e-7, 0.5)
    for alpha in np.linspace(0.0, 2.0 * math.pi, 73).tolist():
        a, b, psi, metric = build_example2(replace(cfg, alpha=alpha))
        perps = [av_orthogonal_state(x, psi, metric).psi_perp
                 for x in (a, b, a + b, a - b, a + 1j * b)]
        perps += [ur3_default_perp(a, b, psi, metric, sign) for sign in (1, -1)]
        for perp in perps:
            ev = ur3(a, b, psi, metric, Formalism.GMETRIC, psi_perp=perp)
            assert ev.holds and math.isfinite(ev.gap)


@pytest.mark.parametrize("formalism", [Formalism.GOOD, Formalism.GMETRIC])
def test_near_ep_superpositions_do_not_leak(formalism):
    # cond(G) is about 2e8 here: a superposition's norm^2 carries an
    # imaginary part up to about 1e-8, within the relative limit
    # EPS_VAR * |v| |G v| though not within EPS_VAR * max(|norm^2|, 1)
    sw = example2_sweep(Example2Config(1.0 - 1e-8, 0.5), 721, formalism)
    assert not any(isinstance(e, InternalInconsistencyError) for e in sw.errors)


@pytest.mark.parametrize("c", [1e20, 1e26, 1e30])
@pytest.mark.parametrize("tail", [0.0, 1e-3])
def test_phase_gauge_does_not_depend_on_units(c, tail):
    # under G = c I every constructed state is the c = 1 state over sqrt(c)
    raw = np.array([1j, tail])

    def states(scale):
        metric = metric_from_matrix(scale * np.eye(2))
        psi = raw / math.sqrt(scale * float(np.vdot(raw, raw).real))
        return [g_orthogonal_complement_2d(psi, metric),
                g_complement_projection(np.array([1, 1j]), psi, metric)]

    for got, want in zip(states(c), states(1.0)):
        npt.assert_allclose(got * math.sqrt(c), want, rtol=0, atol=1e-14)
