import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import projector_family_residuals, random_hermitian, random_state
from seplab.errors import DimensionMismatch
from seplab.hilbert import (
    PROJECTOR_TOL,
    SIGMA_X,
    SIGMA_Z,
    Operator,
    StateVector,
    basis_vector,
    haar_projector,
)
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
        binary_pvm(Operator(np.diag([1.0, 0.5])))
    half = np.array([[1.0, 1.0], [0.0, 0.0]])  # both blocks span e_0
    with pytest.raises(ValueError):
        Pvm(outcomes, half, (1, 1))  # not orthogonal, not complete


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
        """The unitary's columns, the first turned by ``eps`` toward the first
        column of block 1."""
        cols = unitary.copy()
        cols[:, 0] = math.cos(eps) * unitary[:, 0] + math.sin(eps) * unitary[:, width]
        return cols

    sizes = (width,) * levels
    Pvm(outcomes, family(0.0), sizes)
    Pvm(outcomes, family(1e-11), sizes)
    with pytest.raises(ValueError, match="projectors 0 and 1 are not orthogonal"):
        Pvm(outcomes, family(1e-8), sizes)


def test_outcome_labels_must_be_distinct():
    with pytest.raises(ValueError, match="distinct"):
        Pvm((Outcome("x"), Outcome("x")), np.eye(2), (1, 1))


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


@pytest.mark.parametrize("sizes", [[1, 1], np.array([1, 1]), (np.int64(1), True)])
def test_pvm_stores_its_sizes_as_a_tuple_of_ints(sizes):
    m = Pvm((Outcome("a"), Outcome("b")), np.eye(2), sizes)
    assert m.sizes == (1, 1) and all(type(k) is int for k in m.sizes)
    assert [b.shape for b in m.blocks] == [(2, 1), (2, 1)]


def test_a_pvm_keeps_its_basis_not_its_projectors():
    """A non-degenerate dim-64 PVM holds one 64 KB basis; its 64 dense
    projectors (4 MB) are rebuilt on each read and not kept."""
    rng = np.random.default_rng(0)
    unitary = np.linalg.qr(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))[0]
    observable = Operator((unitary * np.arange(64.0)) @ unitary.conj().T)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        m = pvm_from_operator(observable)
        assert len(m.projectors) == 64
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 256 * 1024, f"a dim-64 PVM retains {retained // 1024} KB"


@given(seed=st.integers(0, 10_000), dim=st.integers(1, 64), data=st.data())
@settings(max_examples=25, deadline=None)
def test_pvm_projectors_form_a_projector_family(seed, dim, data):
    """Spectral PVMs with 1 to d levels, and binary PVMs of Haar projectors
    at every rank 0..d (zero-size blocks included), against the dense
    oracle: every projector identity holds, and the Born rule is ||P_k psi||^2."""
    rng = np.random.default_rng(seed)
    levels = data.draw(st.integers(1, dim), label="levels")
    counts = 1 + rng.multinomial(dim - levels, np.full(levels, 1.0 / levels))
    unitary = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    observable = (unitary * np.repeat(np.arange(float(levels)), counts)) @ unitary.conj().T
    spectral = pvm_from_operator(Operator((observable + observable.conj().T) / 2.0))
    assert len(spectral.outcomes) == levels
    binaries = [binary_pvm(haar_projector(dim, rank, rng)) for rank in range(dim + 1)]
    psi = random_state(dim, rng)
    for m in (spectral, *binaries):
        projs = [p.entries for p in m.projectors]
        residuals = projector_family_residuals(projs)
        assert max(residuals.values()) <= PROJECTOR_TOL, residuals
        expected = [float(np.vdot(p @ psi, p @ psi).real) for p in projs]
        assert all_probabilities(m, StateVector(psi)) == pytest.approx(expected, abs=1e-12)
