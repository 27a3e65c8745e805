import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from nhur import (
    DimensionMismatchError,
    EigenSystem,
    IDENTITY2,
    NonFiniteError,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SingularFrameError,
    anticommutator,
    as_operator,
    as_state,
    commutator,
    evaluate_all,
    identity_metric,
    metric_from_matrix,
    pt_hamiltonian,
    superposition_state,
    validate_metric,
)

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)


def test_validators_reject_bad_shapes():
    with pytest.raises(DimensionMismatchError):
        as_operator(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError):
        as_operator(np.eye(3), dim=2)
    with pytest.raises(DimensionMismatchError):
        as_state(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        as_state(np.zeros(3), dim=2)


def test_validators_reject_empty_input():
    for call in (lambda: as_operator(np.zeros((0, 0))), lambda: as_state([])):
        with pytest.raises(DimensionMismatchError, match="must not be empty$"):
            call()


EMPTY = np.zeros((0, 0))


@pytest.mark.parametrize("call, name", [
    (lambda: metric_from_matrix(EMPTY), "metric"),
    (lambda: validate_metric(EMPTY), "metric"),
    (lambda: evaluate_all(EMPTY, EMPTY, np.zeros(0)), "first operator"),
    (lambda: superposition_state([], [], identity_metric(2)), "weights"),
], ids=["metric_from_matrix", "validate_metric", "evaluate_all", "superposition_state"])
def test_an_empty_problem_fails_typed(call, name):
    # each once failed untyped, deep in its computation
    with pytest.raises(DimensionMismatchError, match=f"^{name} must not be empty$"):
        call()


def test_validators_reject_non_finite():
    with pytest.raises(NonFiniteError):
        as_operator(np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(NonFiniteError):
        as_operator(np.array([[1j * np.inf, 0], [0, 0]]))
    with pytest.raises(NonFiniteError):
        as_state(np.array([np.inf, 0]))


def test_identity_multiplication():
    m = np.array([[1 + 2j, 3], [0, -1j]])
    npt.assert_array_equal(IDENTITY2 @ m, m)


def test_pauli_product():
    npt.assert_allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z, atol=1e-15)


def test_pt_hamiltonian_square():
    # H(gamma)^2 = (1 - gamma^2) I, by direct 2x2 multiplication
    for gamma in (0.3, 0.9, 1.7):
        h = pt_hamiltonian(gamma)
        npt.assert_allclose(h @ h, (1.0 - gamma * gamma) * np.eye(2), atol=1e-14)


def test_inner_skews_for_pt_eigenvectors():
    # The two right eigenvectors are not Dirac-orthogonal; their overlap
    # has modulus gamma / sqrt(1 - gamma^2).
    from nhur import symmetric_eigensystem

    gamma = 0.9
    sys_ = symmetric_eigensystem(gamma)
    overlap = np.vdot(sys_.right_vector(0), sys_.right_vector(1))
    assert abs(overlap) > 1.0
    npt.assert_allclose(
        abs(overlap), gamma / np.sqrt(1.0 - gamma * gamma), atol=1e-12
    )


def test_commutator_and_anticommutator():
    npt.assert_allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z, atol=1e-15)
    npt.assert_allclose(
        anticommutator(SIGMA_X, SIGMA_X), 2.0 * np.eye(2), atol=1e-15
    )


def test_eigensystem_from_right_rejects_singular_frame():
    cols = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
    with pytest.raises(SingularFrameError):
        EigenSystem(np.array([1.0, 2.0]), cols)


def test_eigensystem_from_right_biorthonormal():
    cols = np.column_stack([E0 + E1, E0 - E1])
    sys_ = EigenSystem(np.array([1.0, -1.0]), cols)
    npt.assert_allclose(sys_.left @ sys_.right, np.eye(2), atol=1e-14)


def test_an_eigensystem_holds_read_only_copies():
    # a caller's array, changed after the build, changes nothing: the
    # frame and its inverse stay a biorthonormal pair
    values, right = np.array([1, 2], dtype=complex), np.eye(2, dtype=complex)
    sys_ = EigenSystem(values, right)
    right[0, 1], values[0] = 5, 7
    assert (sys_.left @ sys_.right).tolist() == np.eye(2).tolist()
    assert sys_.values.tolist() == [1, 2]
    # nor does the base of a read-only view
    base = np.eye(2, dtype=complex)
    view = base.view()
    view.setflags(write=False)
    sys_ = EigenSystem(values, view)
    base[0, 1] = 5
    assert (sys_.left @ sys_.right).tolist() == np.eye(2).tolist()
    # nor a read-only array whose owner makes it writable again
    right = np.eye(2, dtype=complex)
    right.setflags(write=False)
    sys_ = EigenSystem(values, right)
    right.setflags(write=True)
    right[0, 1] = 5
    assert (sys_.left @ sys_.right).tolist() == np.eye(2).tolist()
    for built in (sys_, dataclasses.replace(sys_, right=np.eye(2) * 2)):
        for arr in (built.values, built.right, built.left):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
