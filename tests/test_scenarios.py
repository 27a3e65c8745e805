import math

import numpy as np
import numpy.testing as npt
import pytest

import reference
from helpers import eigen_residual
from nhur import (
    BROKEN,
    SYMMETRIC,
    Example1Config,
    Example2Config,
    ExceptionalPointError,
    Formalism,
    NonFiniteError,
    NotGoodObservableError,
    PhaseMismatchError,
    broken_eigensystem,
    build_example1,
    build_example2,
    commutator,
    evaluate_all,
    example1_sweep,
    example2_sweep,
    is_good_observable,
    pt_hamiltonian,
    sweep,
    symmetric_eigensystem,
)


def _example1_oracle(theta0):
    s2, c2 = math.sin(2 * theta0), math.cos(2 * theta0)
    a = np.array([[0.5 * s2, 0.5 * c2], [c2, -s2]], dtype=complex)
    b = np.array([[0.0, 0.0], [c2, -s2]], dtype=complex)
    psi = np.array([c2, s2], dtype=complex)
    return a, b, psi


def test_example1_assembly_matches_closed_forms(rng):
    for theta0 in rng.uniform(0.0, math.pi, size=100):
        a, b, psi, metric = build_example1(Example1Config(theta0=theta0))
        ea, eb, epsi = _example1_oracle(theta0)
        npt.assert_allclose(a, ea, atol=1e-12)
        npt.assert_allclose(b, eb, atol=1e-12)
        npt.assert_allclose(psi, epsi, atol=1e-12)
        assert metric.is_identity


def test_example1_quarter_turn_point():
    a, b, psi, _ = build_example1(Example1Config(theta0=math.pi / 4))
    npt.assert_allclose(a, np.diag([0.5, -1.0]), atol=1e-15)
    npt.assert_allclose(b, np.diag([0.0, -1.0]), atol=1e-15)
    npt.assert_allclose(commutator(a, b), np.zeros((2, 2)), atol=1e-15)
    npt.assert_allclose(psi, [0.0, 1.0], atol=1e-15)


def test_example1_trivial_stretch_gives_reflection():
    # theta7 = pi/2 turns the polar stretch of B into the identity, leaving
    # a pure reflection: Hermitian and involutive
    a, b, psi, _ = build_example1(Example1Config(theta0=0.2, theta7=math.pi / 2))
    npt.assert_allclose(b, b.conj().T, atol=1e-14)
    npt.assert_allclose(b @ b, np.eye(2), atol=1e-14)


def test_example1_rejects_non_finite_angle():
    with pytest.raises(NonFiniteError):
        build_example1(Example1Config(theta0=math.nan))


@pytest.mark.parametrize(
    "gamma,phase",
    [(0.9, BROKEN), (1.2, SYMMETRIC), (-1.5, BROKEN)],
)
def test_example2_config_rejects_phase_mismatch(gamma, phase):
    with pytest.raises(PhaseMismatchError):
        Example2Config(gamma=gamma, p=1.0, phase=phase)


@pytest.mark.parametrize("gamma", [1.0, -1.0, 1.0 + 1e-10])
def test_example2_config_rejects_exceptional_point(gamma):
    phase = BROKEN if gamma > 1.0 else SYMMETRIC
    with pytest.raises(ExceptionalPointError):
        Example2Config(gamma=gamma, p=1.0, phase=phase)


def test_example2_config_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        Example2Config(gamma=math.nan, p=1.0)
    with pytest.raises(NonFiniteError):
        Example2Config(gamma=0.9, p=math.inf)


def test_example2_config_rejects_unknown_phase():
    with pytest.raises(PhaseMismatchError):
        Example2Config(gamma=0.9, p=1.0, phase="weird")


def test_example2_defaults():
    sym = Example2Config.symmetric_default(alpha=0.25)
    assert (sym.gamma, sym.p, sym.alpha, sym.phase) == (0.9, 0.5, 0.25, SYMMETRIC)
    bro = Example2Config.broken_default()
    assert (bro.gamma, bro.p, bro.phase) == (1.2, 1.5, BROKEN)


@pytest.mark.parametrize("gamma", [0.3, 0.6, 0.9])
def test_symmetric_eigensystem(gamma):
    sys_ = symmetric_eigensystem(gamma)
    h = pt_hamiltonian(gamma)
    assert eigen_residual(sys_, h) <= 1e-12
    c = math.sqrt(1.0 - gamma * gamma)
    npt.assert_allclose(sys_.values, [c, -c], atol=1e-14)


@pytest.mark.parametrize("gamma", [1.2, 1.5, 2.0])
def test_broken_eigensystem(gamma):
    sys_ = broken_eigensystem(gamma)
    h = pt_hamiltonian(gamma)
    assert eigen_residual(sys_, h) <= 1e-12
    lam = math.sqrt(gamma * gamma - 1.0)
    npt.assert_allclose(sys_.values, [1j * lam, -1j * lam], atol=1e-14)


@pytest.mark.parametrize(
    "builder,gamma",
    [(symmetric_eigensystem, 0.9), (broken_eigensystem, 1.2)],
)
def test_eigenvectors_are_orthonormal_under_frame_metric(builder, gamma):
    from nhur import metric_from_right_eigenvectors

    sys_ = builder(gamma)
    g = metric_from_right_eigenvectors(sys_).g
    for i in range(2):
        for j in range(2):
            got = complex(np.vdot(sys_.right_vector(i), g @ sys_.right_vector(j)))
            want = 1.0 if i == j else 0.0
            npt.assert_allclose(got, want, atol=1e-12)


def test_build_example2_operator_choice():
    a_s, b_s, _, _ = build_example2(Example2Config.symmetric_default())
    npt.assert_allclose(a_s, pt_hamiltonian(0.9), atol=1e-15)
    npt.assert_allclose(b_s, [[0.0, -1j], [1j, 0.0]], atol=1e-15)
    a_b, _, _, _ = build_example2(Example2Config.broken_default())
    npt.assert_allclose(a_b, pt_hamiltonian(1.0 / 1.2), atol=1e-15)


@pytest.mark.parametrize(
    "cfg",
    [
        Example2Config(0.3, 0.25, 0.0),
        Example2Config(0.9, 0.5, 1.7),
        Example2Config(0.9, 2.0, 4.0),
        Example2Config(1.2, 1.5, 0.0, BROKEN),
        Example2Config(2.0, 0.75, 3.1, BROKEN),
    ],
)
def test_build_example2_state_is_unit_and_operators_good(cfg):
    a, b, psi, g = build_example2(cfg)
    nsq = complex(np.vdot(psi, g.g @ psi)).real
    npt.assert_allclose(nsq, 1.0, atol=1e-12)
    assert is_good_observable(a, g)
    assert is_good_observable(b, g)


def test_sweep_rejects_tiny_grids():
    with pytest.raises(ValueError):
        example1_sweep(points=1)


def test_sweep_grid_is_inclusive():
    result = example1_sweep(points=5)
    assert len(result.errors) == 5 and result.lhs.shape == (5,)
    npt.assert_allclose(result.param, np.linspace(0.0, math.pi, 5), atol=0)
    result2 = example2_sweep(Example2Config.symmetric_default(), points=5)
    npt.assert_allclose(result2.param, np.linspace(0.0, 2 * math.pi, 5), atol=0)


def test_sweep_is_deterministic():
    runs = [example2_sweep(Example2Config.broken_default(), points=21)
            for _ in range(2)]
    p, q = runs
    for name in ("param", "lhs", "rhs", "gap", "minus"):
        assert getattr(p, name).tolist() == getattr(q, name).tolist()


def test_sweep_records_per_point_failures():
    def shaky_builder(value):
        a, b, psi, g = build_example1(Example1Config(theta0=value))
        if value > 1.0:
            psi = 2.0 * psi  # breaks normalization on purpose
        return a, b, psi, g

    pts = reference.points(sweep(shaky_builder, (0.0, 2.0), 9))
    good = [p for p in pts if p.ok]
    bad = [p for p in pts if not p.ok]
    assert good and bad
    assert all(p.param <= 1.0 for p in good)
    for p in bad:
        assert p.evaluations == ()
        assert "NotNormalized" in p.error


def test_generic_good_sweep_records_the_gate_at_its_point():
    # the builder's A is not good at one grid point: the gate fails that
    # point alone, and every other row is evaluate_all on its builder output
    grid = np.linspace(0.0, 1.0, 5)

    def builder(alpha):
        a, b, psi, g = build_example2(Example2Config.symmetric_default(alpha))
        return (1j * a if alpha == grid[2] else a), b, psi, g

    result = sweep(builder, (0.0, 1.0), 5, Formalism.GOOD)
    assert result.formalism is Formalism.GOOD
    pts = reference.points(result)
    with pytest.raises(NotGoodObservableError) as caught:
        evaluate_all(*builder(grid[2]), Formalism.GOOD)
    assert [p.error for p in pts] == [None, None, f"NotGoodObservableError: "
                                      f"{caught.value}", None, None]
    for p in pts:
        if p.ok:
            assert p.evaluations == evaluate_all(*builder(p.param), Formalism.GOOD)


def test_example_sweeps_hold_everywhere():
    result1 = example1_sweep(points=181)
    assert result1.ok.all()
    assert result1.gap.min() >= -1e-9

    result2 = example2_sweep(Example2Config.symmetric_default(), points=181)
    assert result2.ok.all()
    assert result2.formalism is Formalism.GOOD
    assert result2.gap.min() >= -1e-9


def test_sweep_respects_formalism_argument():
    result = example2_sweep(Example2Config.broken_default(), points=5,
                            formalism=Formalism.GMETRIC)
    assert result.ok.all() and result.formalism is Formalism.GMETRIC
    assert all(ev.formalism is Formalism.GMETRIC
               for p in reference.points(result) for ev in p.evaluations)
