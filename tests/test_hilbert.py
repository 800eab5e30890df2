import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    eig2_hermitian,
    kron_loops,
    projector_family_residuals,
    random_hermitian,
    random_state,
)
from seplab import hilbert
from seplab.errors import InvalidArgument, NotHermitian
from seplab.hilbert import (
    SIGMA_X,
    SIGMA_Z,
    Operator,
    StateVector,
    basis_vector,
    identity,
    normalize,
    projector_onto,
    spectral_decomposition,
    tensor_op,
    tensor_vec,
)

PLUS = StateVector(np.array([1, 1]) / math.sqrt(2))


def _commutator(a: Operator, b: Operator) -> float:
    """Max-entry magnitude of AB - BA."""
    return float(np.abs(a.entries @ b.entries - b.entries @ a.entries).max())


def _spectral_pairs(op: Operator) -> list[tuple[float, np.ndarray]]:
    """(eigenvalue, projector) pairs, each projector rebuilt as B_k B_k^H from
    its block of ``sizes[k]`` eigenbasis columns."""
    values, basis, sizes = spectral_decomposition(op)
    ends = np.cumsum(sizes)
    blocks = [basis[:, end - size:end] for size, end in zip(sizes, ends)]
    return [(v, b @ b.conj().T) for v, b in zip(values, blocks)]


def test_tensor_vec_basis_states():
    e01 = tensor_vec(basis_vector(2, 0), basis_vector(2, 1))
    np.testing.assert_allclose(e01.amplitudes, [0, 1, 0, 0])
    e10 = tensor_vec(basis_vector(2, 1), basis_vector(2, 0))
    np.testing.assert_allclose(e10.amplitudes, [0, 0, 1, 0])


def test_tensor_vec_superposition_left_factor():
    out = tensor_vec(PLUS, basis_vector(2, 0))
    root_half = 1 / math.sqrt(2)
    np.testing.assert_allclose(out.amplitudes, [root_half, 0, root_half, 0])


def test_tensor_matches_loop_kronecker():
    rng = np.random.default_rng(5)
    a = StateVector(random_state(3, rng))
    b = StateVector(random_state(2, rng))
    np.testing.assert_allclose(
        tensor_vec(a, b).amplitudes, kron_loops(a.amplitudes, b.amplitudes), atol=1e-14
    )
    A = Operator(random_hermitian(3, rng))
    B = Operator(random_hermitian(2, rng))
    np.testing.assert_allclose(
        tensor_op(A, B).entries, kron_loops(A.entries, B.entries), atol=1e-14
    )


def test_tensor_op_diagonals():
    np.testing.assert_allclose(
        tensor_op(SIGMA_Z, identity(2)).entries, np.diag([1, 1, -1, -1]), atol=1e-15
    )
    np.testing.assert_allclose(
        tensor_op(identity(2), SIGMA_Z).entries, np.diag([1, -1, 1, -1]), atol=1e-15
    )


def test_tensor_op_of_projectors_is_projector():
    p = projector_onto(PLUS)
    q = projector_onto(basis_vector(2, 1))
    residuals = projector_family_residuals([tensor_op(p, q).entries])
    assert residuals["hermiticity"] <= hilbert.PROJECTOR_TOL
    assert residuals["idempotency"] <= hilbert.PROJECTOR_TOL


def test_spectral_sigma_z():
    values, projectors = zip(*_spectral_pairs(SIGMA_Z))
    assert values == (-1.0, 1.0)
    np.testing.assert_allclose(projectors[0], np.diag([0, 1]), atol=1e-12)
    np.testing.assert_allclose(projectors[1], np.diag([1, 0]), atol=1e-12)


def test_spectral_identity_merges_degenerate_eigenvalues():
    pairs = _spectral_pairs(identity(2))
    assert len(pairs) == 1
    value, projector = pairs[0]
    assert value == pytest.approx(1.0)
    np.testing.assert_allclose(projector, np.eye(2), atol=1e-12)


def test_spectral_sigma_x_against_closed_form_eigensolve():
    oracle = eig2_hermitian(SIGMA_X.entries)
    values, projectors = zip(*_spectral_pairs(SIGMA_X))
    assert values == pytest.approx([v for v, _ in oracle], abs=1e-12)
    for (_, vec), proj in zip(oracle, projectors):
        np.testing.assert_allclose(proj, np.outer(vec, vec.conj()), atol=1e-12)
    # frozen values: projectors onto (1, -1)/sqrt(2) and (1, 1)/sqrt(2)
    np.testing.assert_allclose(
        projectors[0], [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12
    )
    np.testing.assert_allclose(
        projectors[1], [[0.5, 0.5], [0.5, 0.5]], atol=1e-12
    )


def test_spectral_groups_degenerate_pairs():
    values, projectors = zip(*_spectral_pairs(tensor_op(SIGMA_Z, SIGMA_Z)))
    assert values == pytest.approx([-1.0, 1.0], abs=1e-12)
    ranks = [int(round(np.trace(p).real)) for p in projectors]
    assert ranks == [2, 2]


def test_spectral_requires_hermitian():
    with pytest.raises(NotHermitian):
        spectral_decomposition(Operator(np.array([[0, 1], [0, 0]])))


def test_commutator_norm_examples():
    assert _commutator(tensor_op(SIGMA_Z, identity(2)), tensor_op(identity(2), SIGMA_Z)) == 0.0
    # [sigma_z, sigma_x] has entries {0, +/-2} by direct 2x2 multiplication
    assert _commutator(SIGMA_Z, SIGMA_X) == pytest.approx(2.0, abs=1e-15)
    p = projector_onto(PLUS)
    assert _commutator(p, p) == 0.0


def test_normalize_gives_unit_norm_and_rejects_zero():
    v = normalize(StateVector(np.array([3.0, 4.0])))
    assert v.norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        normalize(StateVector(np.zeros(2)))


def test_values_are_immutable():
    v = basis_vector(2, 0)
    with pytest.raises(ValueError):
        v.amplitudes[0] = 5.0
    with pytest.raises(ValueError):
        SIGMA_Z.entries[0, 0] = 5.0


@pytest.mark.parametrize(
    "amplitudes, indices",
    [
        ([0.5, math.nan, 0.5, 0.5], [1]),
        ([math.inf, 0.5, 0.5, math.inf], [0, 3]),
        ([0.5, 0.5, complex(-math.inf, 0.5)], [2]),
    ],
)
def test_state_vector_names_non_finite_amplitudes(amplitudes, indices):
    message = f"non-finite amplitudes at indices {indices}"
    with pytest.raises(InvalidArgument, match=re.escape(message)):
        StateVector(np.array(amplitudes))


def test_dimension_cap_enforced():
    with pytest.raises(ValueError):
        StateVector(np.zeros(hilbert.DIM_CAP + 1))
    with pytest.raises(ValueError):
        Operator(np.zeros((hilbert.DIM_CAP + 1, hilbert.DIM_CAP + 1)))


@given(seed=st.integers(0, 10_000), dim=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_spectral_reconstruction_and_projector_family(seed, dim):
    rng = np.random.default_rng(seed)
    op = Operator(random_hermitian(dim, rng))
    pairs = _spectral_pairs(op)
    values, projectors = zip(*pairs)
    assert all(b > a for a, b in zip(values, values[1:]))
    residuals = projector_family_residuals(projectors)
    assert residuals["hermiticity"] <= hilbert.PROJECTOR_TOL
    assert residuals["idempotency"] <= hilbert.PROJECTOR_TOL
    assert residuals["orthogonality"] <= 1e-10
    assert residuals["completeness"] <= 1e-10
    rebuilt = sum(v * p for v, p in pairs)
    assert np.abs(rebuilt - op.entries).max() <= 1e-9


@given(seed=st.integers(0, 10_000), da=st.integers(1, 5), db=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_tensor_norm_multiplicative(seed, da, db):
    rng = np.random.default_rng(seed)
    a = StateVector(rng.normal(size=da) + 1j * rng.normal(size=da))
    b = StateVector(rng.normal(size=db) + 1j * rng.normal(size=db))
    assert tensor_vec(a, b).norm() == pytest.approx(a.norm() * b.norm(), abs=1e-12)


@given(seed=st.integers(0, 10_000), da=st.integers(2, 4), db=st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_embedded_projectors_commute(seed, da, db):
    rng = np.random.default_rng(seed)
    p = projector_onto(StateVector(random_state(da, rng)))
    q = projector_onto(StateVector(random_state(db, rng)))
    assert _commutator(tensor_op(p, identity(db)), tensor_op(identity(da), q)) <= 1e-12
