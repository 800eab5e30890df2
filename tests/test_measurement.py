import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_hermitian, random_state
from seplab.errors import DimensionMismatch
from seplab.hilbert import SIGMA_X, SIGMA_Z, Operator, StateVector, basis_vector
from seplab.measurement import Outcome, Pvm, all_probabilities, binary_pvm, pvm_from_operator

Z_PVM = pvm_from_operator(SIGMA_Z)
X_PVM = pvm_from_operator(SIGMA_X)
ZERO = basis_vector(2, 0)
PLUS = StateVector(np.array([1, 1]) / math.sqrt(2))


def test_pvm_from_operator_outcome_labels_carry_eigenvalues():
    assert Z_PVM.labels == ("-1", "+1")
    assert [o.value for o in Z_PVM.outcomes] == [-1.0, 1.0]


def test_pvm_rejects_non_projector_and_incomplete_families():
    outcomes = (Outcome("a"), Outcome("b"))
    with pytest.raises(ValueError):
        Pvm(outcomes, (Operator(np.diag([1.0, 0.5])), Operator(np.diag([0.0, 0.5]))))
    half = Operator(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        Pvm(outcomes, (half, half))  # not orthogonal, not complete


@pytest.mark.parametrize("levels", [64, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pvm_orthogonality_check_at_dim_64(seed, levels):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    unitary = np.linalg.qr(g)[0]
    spectrum = np.repeat(np.arange(levels), 64 // levels)
    m = pvm_from_operator(Operator((unitary * spectrum) @ unitary.conj().T))
    assert len(m.outcomes) == levels
    outcomes = tuple(Outcome(str(k)) for k in range(levels))
    width = 64 // levels

    def family(eps):
        """Block projectors of the unitary's columns, the first column turned
        by ``eps`` toward the first column of block 1."""
        cols = unitary.copy()
        cols[:, 0] = math.cos(eps) * unitary[:, 0] + math.sin(eps) * unitary[:, width]
        return tuple(Operator(b @ b.conj().T) for b in np.split(cols, levels, axis=1))

    Pvm(outcomes, family(0.0))
    Pvm(outcomes, family(1e-11))
    with pytest.raises(ValueError, match="projectors 0 and 1 are not orthogonal"):
        Pvm(outcomes, family(1e-8))


def test_outcome_labels_must_be_distinct():
    family = (Operator(np.diag([1.0, 0.0])), Operator(np.diag([0.0, 1.0])))
    with pytest.raises(ValueError, match="distinct"):
        Pvm((Outcome("x"), Outcome("x")), family)


def test_born_probability_examples():
    # outcomes in eigenvalue order: index 0 is -1, index 1 is +1
    assert all_probabilities(Z_PVM, ZERO) == pytest.approx((0.0, 1.0), abs=1e-12)
    assert all_probabilities(Z_PVM, PLUS) == pytest.approx((0.5, 0.5), abs=1e-12)
    # |<+|0>|^2 = 1/2 by direct inner product with (1,1)/sqrt(2)
    assert all_probabilities(X_PVM, ZERO)[1] == pytest.approx(0.5, abs=1e-12)


def test_born_probability_errors():
    with pytest.raises(DimensionMismatch):
        all_probabilities(Z_PVM, basis_vector(4, 0))


def test_binary_pvm_structure():
    p = Operator(np.diag([1.0, 0.0]))
    m = binary_pvm(p)
    assert m.labels == ("+", "-")
    np.testing.assert_allclose(m.projectors[1].entries, np.diag([0, 1]), atol=1e-12)
    with pytest.raises(ValueError):
        binary_pvm(SIGMA_X)


@given(seed=st.integers(0, 10_000), dim=st.integers(2, 8))
@settings(max_examples=50, deadline=None)
def test_probabilities_sum_to_one_and_coarse_additivity(seed, dim):
    rng = np.random.default_rng(seed)
    m = pvm_from_operator(Operator(random_hermitian(dim, rng)))
    psi = StateVector(random_state(dim, rng))
    probs = all_probabilities(m, psi)
    assert sum(probs) == pytest.approx(1.0, abs=1e-10)
    half = len(m.outcomes) // 2 + 1
    proj = sum(p.entries for p in m.projectors[:half])
    coarse_prob = float(np.real(np.vdot(proj @ psi.amplitudes, proj @ psi.amplitudes)))
    assert coarse_prob == pytest.approx(sum(probs[:half]), abs=1e-10)


@given(seed=st.integers(0, 10_000), dim=st.integers(2, 8))
@settings(max_examples=50, deadline=None)
def test_expectation_round_trip_through_spectral_pvm(seed, dim):
    rng = np.random.default_rng(seed)
    op = Operator(random_hermitian(dim, rng))
    m = pvm_from_operator(op)
    psi = StateVector(random_state(dim, rng))
    direct = float(np.real(np.vdot(psi.amplitudes, op.entries @ psi.amplitudes)))
    spectral = sum(o.value * p for o, p in zip(m.outcomes, all_probabilities(m, psi)))
    assert spectral == pytest.approx(direct, abs=1e-9)
