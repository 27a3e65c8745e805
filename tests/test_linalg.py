import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from nhur import (
    DimensionMismatchError,
    EigenSystem,
    Metric,
    NonFiniteError,
    OrthogonalPair,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SingularFrameError,
    as_operator,
    as_state,
    av_orthogonal_state,
    evaluate_all,
    identity_metric,
    metric_from_matrix,
    pt_hamiltonian,
    superposition_state,
    symmetric_eigensystem,
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
    overlap = np.vdot(sys_.right[:, 0], sys_.right[:, 1])
    assert abs(overlap) > 1.0
    npt.assert_allclose(
        abs(overlap), gamma / np.sqrt(1.0 - gamma * gamma), atol=1e-12
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


# Each value type built from a caller's array, by route: (type, input value,
# build); the input is a metric matrix, a right frame or a state
BUILDS = {
    "Metric-direct": ("g", Metric),
    "Metric-factory": ("g", metric_from_matrix),
    "Metric-replace": ("g", lambda g: dataclasses.replace(identity_metric(2), g=g)),
    "EigenSystem-direct": ("right", lambda right: EigenSystem([1, -1], right)),
    "EigenSystem-replace": ("right", lambda right: dataclasses.replace(
        symmetric_eigensystem(0.6), right=right)),
    "OrthogonalPair-direct": ("psi", lambda psi: OrthogonalPair(
        psi, E1, identity_metric(2), 0.0)),
    "OrthogonalPair-builder": ("psi", lambda psi: av_orthogonal_state(
        SIGMA_X, psi, identity_metric(2))),
    "OrthogonalPair-replace": ("psi", lambda psi: dataclasses.replace(
        av_orthogonal_state(SIGMA_X, E0, identity_metric(2)), psi=psi)),
}
INPUTS = {"g": [[2, 0.5j], [-0.5j, 1]], "right": [[1, 1], [1, -1]], "psi": [1, 0]}


@pytest.mark.parametrize("source", ["writable", "owner-made-writable", "read-only-view"])
@pytest.mark.parametrize("route", BUILDS)
def test_every_value_type_holds_read_only_copies(route, source):
    # one ownership rule, linalg._read_only, for every value type: however
    # the caller's array came and whatever its owner does to it afterwards,
    # no field changes and none can be written
    what, build = BUILDS[route]
    base = np.array(INPUTS[what], dtype=complex)
    arr = base.view() if source == "read-only-view" else base
    if source != "writable":
        arr.setflags(write=False)
    built = build(arr)
    fields = {f.name: getattr(built, f.name) for f in dataclasses.fields(built)
              if isinstance(getattr(built, f.name), np.ndarray)}
    before = {name: value.copy() for name, value in fields.items()}
    base.setflags(write=True)
    base[...] = 9
    for name, value in fields.items():
        assert value.tobytes() == before[name].tobytes(), name
        assert not value.flags.writeable, name
