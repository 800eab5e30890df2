import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    dense_couple_projectors,
    dense_joint_table,
    dense_marginals,
    random_hermitian,
    random_state,
    schmidt_coefficients_2x2,
)
from seplab.bipartite import (
    BipartiteSpace,
    commuting_joint,
    joint_measurement,
    schmidt,
)
from seplab.errors import DimensionMismatch, InvalidArgument, NonCommuting
from seplab.hilbert import (
    SIGMA_X,
    SIGMA_Z,
    Operator,
    StateVector,
    basis_vector,
    haar_projector,
    identity,
    tensor_op,
    tensor_vec,
)
from seplab.measurement import SIGNS, Outcome, Pvm, all_probabilities, binary_pvm, pvm_from_operator
from seplab.separation import construct_witness, separation_verdict, witness_joint

Z_PVM = pvm_from_operator(SIGMA_Z)
X_PVM = pvm_from_operator(SIGMA_X)
QUBIT_PAIR = BipartiteSpace(2, 2)
ROOT_HALF = 1 / math.sqrt(2)


def two_qubit(amplitudes) -> StateVector:
    return StateVector(np.array(amplitudes, dtype=complex))


def test_joint_measurement_z_z():
    joint = joint_measurement(Z_PVM, Z_PVM)
    assert len(joint.label_pairs) == 4
    # each basis state fires exactly one couple: e_1 = |0>|1> gives (+1, -1)
    fired = []
    for k in range(4):
        table = joint.probability_table(basis_vector(4, k))
        assert sorted(table.values()) == pytest.approx([0, 0, 0, 1], abs=1e-12)
        fired.append(max(table, key=table.get))
    assert fired == [("+1", "+1"), ("+1", "-1"), ("-1", "+1"), ("-1", "-1")]


def test_commuting_joint_rejects_non_commuting_sides():
    with pytest.raises(NonCommuting):
        commuting_joint(Z_PVM, X_PVM)
    with pytest.raises(DimensionMismatch):
        commuting_joint(Z_PVM, pvm_from_operator(Operator(np.diag([0.0, 1.0, 2.0]))))


def test_schmidt_product_state():
    triples = schmidt(tensor_vec(basis_vector(2, 0), basis_vector(2, 1)), QUBIT_PAIR)
    coeffs = [c for c, _, _ in triples]
    assert coeffs[0] == pytest.approx(1.0, abs=1e-12)
    assert all(c <= 1e-12 for c in coeffs[1:])


@pytest.mark.parametrize(
    "amplitudes",
    [
        [0, ROOT_HALF, ROOT_HALF, 0],
        [0, ROOT_HALF, -ROOT_HALF, 0],  # singlet
    ],
)
def test_schmidt_maximally_entangled_pairs(amplitudes):
    psi = two_qubit(amplitudes)
    expected = schmidt_coefficients_2x2(psi.amplitudes)
    coeffs = [c for c, _, _ in schmidt(psi, QUBIT_PAIR)]
    assert coeffs == pytest.approx(expected, abs=1e-12)
    assert coeffs == pytest.approx([ROOT_HALF, ROOT_HALF], abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_schmidt_names_non_finite_amplitudes(bad):
    with pytest.raises(InvalidArgument, match=r"non-finite amplitudes at indices \[1, 3\]"):
        schmidt(two_qubit([0.5, bad, 0.5, bad]), QUBIT_PAIR)


@given(seed=st.integers(0, 10_000), da=st.integers(2, 4), db=st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_schmidt_reconstructs_the_state(seed, da, db):
    rng = np.random.default_rng(seed)
    space = BipartiteSpace(da, db)
    psi = StateVector(random_state(space.dim, rng))
    triples = schmidt(psi, space)
    coeffs = [c for c, _, _ in triples]
    assert all(b <= a for a, b in zip(coeffs, coeffs[1:]))
    assert sum(c * c for c in coeffs) == pytest.approx(1.0, abs=1e-10)
    rebuilt = np.zeros(space.dim, dtype=complex)
    for c, left, right in triples:
        rebuilt += c * np.kron(left.amplitudes, right.amplitudes)
    assert np.linalg.norm(rebuilt - psi.amplitudes) <= 1e-9


def _flatten(joint, blocks_a, blocks_b) -> Pvm:
    """The couple family of ``joint`` as one PVM over labels ``x|y``, from the
    factor blocks: couple (x, y) spans the columns of B_x (x) B_y.  The Pvm
    constructor checks that the couple blocks make one orthonormal basis."""
    outcomes = tuple(Outcome(f"{x}|{y}") for x, y in joint.label_pairs)
    couples = [np.kron(a, b) for a in blocks_a for b in blocks_b]
    return Pvm(outcomes, np.hstack(couples), tuple(c.shape[1] for c in couples))


def test_joint_flattens_to_a_valid_pvm():
    psi = two_qubit([0.5, 0.5j, -0.5, 0.5])
    z, x = Z_PVM.blocks, X_PVM.blocks
    joint = joint_measurement(Z_PVM, X_PVM)
    flat = _flatten(joint, z, x)
    assert flat.labels == ("-1|-1", "-1|+1", "+1|-1", "+1|+1")
    table = list(joint.probability_table(psi).values())
    assert table == pytest.approx(all_probabilities(flat, psi), abs=1e-12)
    lifted_z = [np.kron(b, np.eye(2)) for b in z]
    lifted_x = [np.kron(np.eye(2), b) for b in x]
    commuting = commuting_joint(
        Pvm(Z_PVM.outcomes, np.hstack(lifted_z), tuple(b.shape[1] for b in lifted_z)),
        Pvm(X_PVM.outcomes, np.hstack(lifted_x), tuple(b.shape[1] for b in lifted_x)),
    )
    flat_commuting = _flatten(commuting, z, x)
    assert len(flat_commuting.outcomes) == 4
    table = list(commuting.probability_table(psi).values())
    assert table == pytest.approx(all_probabilities(flat_commuting, psi), abs=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_marginal_consistency(seed):
    rng = np.random.default_rng(seed)
    da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    ma = pvm_from_operator(Operator(random_hermitian(da, rng)))
    mb = pvm_from_operator(Operator(random_hermitian(db, rng)))
    joint = joint_measurement(ma, mb)
    psi = StateVector(random_state(da * db, rng))
    exp_a, exp_b = dense_marginals(
        [p.entries for p in ma.projectors],
        [q.entries for q in mb.projectors],
        psi.amplitudes,
        tensor=True,
    )
    table = joint.table(psi)
    for i, expected in enumerate(exp_a):
        total = sum(table[i, j] for j in range(len(mb.outcomes)))
        assert total == pytest.approx(expected, abs=1e-10)
    for j, expected in enumerate(exp_b):
        total = sum(table[i, j] for i in range(len(ma.outcomes)))
        assert total == pytest.approx(expected, abs=1e-10)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_product_states_factorize(seed):
    rng = np.random.default_rng(seed)
    da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    ma = pvm_from_operator(Operator(random_hermitian(da, rng)))
    mb = pvm_from_operator(Operator(random_hermitian(db, rng)))
    joint = joint_measurement(ma, mb)
    phi_a = StateVector(random_state(da, rng))
    phi_b = StateVector(random_state(db, rng))
    psi = tensor_vec(phi_a, phi_b)
    table = joint.table(psi)
    for i, p_x in enumerate(all_probabilities(ma, phi_a)):
        for j, p_y in enumerate(all_probabilities(mb, phi_b)):
            assert table[i, j] == pytest.approx(p_x * p_y, abs=1e-10)


# Factor dimensions with dim_a * dim_b <= 64, trivial factors included.
FACTOR_DIMS = tuple((da, db) for da in range(1, 65) for db in range(1, 64 // da + 1))
# None: every eigenvalue distinct; k: min(k, d) levels, degenerate when below d.
LEVELS = st.one_of(st.none(), st.integers(1, 64))
# "identity" and "zero" are binary_pvm(1) and binary_pvm(0): one block is empty.
SIDES = st.sampled_from(("spectral", "spectral", "identity", "zero"))


def _unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(g)[0]


def _observable(basis: np.ndarray, levels: int | None, rng: np.random.Generator) -> Operator:
    """Hermitian operator diagonal in ``basis`` with ``levels`` distinct
    eigenvalues at least 0.5 apart (None: every eigenvalue distinct)."""
    dim = basis.shape[0]
    count = dim if levels is None else min(levels, dim)
    values = np.arange(count) + 0.5 * rng.random(count)
    spectrum = np.concatenate([values, values[rng.integers(0, count, size=dim - count)]])
    return Operator((basis * spectrum) @ basis.conj().T)


def _side(basis: np.ndarray, kind: str, levels: int | None, rng: np.random.Generator) -> Pvm:
    """A PVM diagonal in ``basis``: the spectral PVM of ``_observable``, or
    the binary PVM of the identity or of zero (see ``SIDES``)."""
    if kind == "spectral":
        return pvm_from_operator(_observable(basis, levels, rng))
    return binary_pvm(Operator(np.eye(len(basis)) * (kind == "identity")))


def _assert_matches_dense(joint, psi: np.ndarray, tensor: bool) -> None:
    state = StateVector(psi)
    projs_a = [p.entries for p in joint.pvm_a.projectors]
    projs_b = [q.entries for q in joint.pvm_b.projectors]
    expected = dense_joint_table(projs_a, projs_b, psi, tensor)
    table = joint.probability_table(state)
    assert list(table) == [(x, y) for x in joint.pvm_a.labels for y in joint.pvm_b.labels]
    np.testing.assert_allclose(
        np.array(list(table.values())).reshape(expected.shape), expected, rtol=0, atol=1e-12
    )
    probs = joint.table(state)
    np.testing.assert_allclose(probs, expected, rtol=0, atol=1e-12)
    # the marginals are the row and column sums of the table
    exp_a, exp_b = dense_marginals(projs_a, projs_b, psi, tensor)
    np.testing.assert_allclose(probs.sum(axis=1), exp_a, rtol=0, atol=1e-12)
    np.testing.assert_allclose(probs.sum(axis=0), exp_b, rtol=0, atol=1e-12)
    # project is the state under every couple projector; ranks are their traces
    couples = dense_couple_projectors(projs_a, projs_b, tensor)
    projected = joint.project(state)
    assert projected.shape == (*expected.shape, len(psi))
    np.testing.assert_allclose(
        projected.reshape(len(couples), -1), [c @ psi for c in couples], rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(
        joint.ranks.ravel(), [np.trace(c).real for c in couples], rtol=0, atol=1e-12
    )


@given(
    seed=st.integers(0, 10_000),
    dims=st.sampled_from(FACTOR_DIMS),
    levels=LEVELS,
    kinds=st.tuples(SIDES, SIDES),
)
@example(seed=0, dims=(8, 8), levels=None, kinds=("spectral", "spectral"))
@example(seed=0, dims=(4, 16), levels=3, kinds=("zero", "spectral"))
@settings(max_examples=60, deadline=None)
def test_tensor_joint_matches_dense_oracle(seed, dims, levels, kinds):
    rng = np.random.default_rng(seed)
    ma, mb = (_side(_unitary(d, rng), kind, levels, rng) for d, kind in zip(dims, kinds))
    _assert_matches_dense(joint_measurement(ma, mb), random_state(dims[0] * dims[1], rng), tensor=True)


@given(
    seed=st.integers(0, 10_000),
    dim=st.integers(1, 64),
    levels=LEVELS,
    levels_b=st.integers(1, 8),
    kind=SIDES,
)
@example(seed=0, dim=64, levels=None, levels_b=8, kind="spectral")
@example(seed=0, dim=64, levels=5, levels_b=1, kind="identity")
@settings(max_examples=40, deadline=None)
def test_commuting_joint_matches_dense_oracle(seed, dim, levels, levels_b, kind):
    rng = np.random.default_rng(seed)
    basis = _unitary(dim, rng)
    psi = random_state(dim, rng)
    # binary witness joints on projectors diagonal in one common basis
    mask_a = rng.integers(0, 2, size=dim).astype(bool)
    mask_b = rng.integers(0, 2, size=dim).astype(bool)
    p_a = Operator(basis[:, mask_a] @ basis[:, mask_a].conj().T)
    p_b = Operator(basis[:, mask_b] @ basis[:, mask_b].conj().T)
    _assert_matches_dense(witness_joint(p_a, p_b), psi, tensor=False)
    # PVMs sharing that eigenbasis: side A has 1 to d levels, side B at most 8,
    # which bounds the oracle's k_A * k_B dense couple projectors
    ma = _side(basis, kind, levels, rng)
    mb = pvm_from_operator(_observable(basis, levels_b, rng))
    _assert_matches_dense(commuting_joint(ma, mb), psi, tensor=False)


@pytest.mark.parametrize("dim", [2, 64])
def test_commutation_tolerance_is_read_in_the_eigenbasis_of_side_a(dim):
    """Side B is side A's basis with column 0 (in A's + block) and column
    d - 1 (in its - block) turned by an angle t.  In A's eigenbasis the
    largest commutator entry is sin t cos t, so t = 1e-12 passes
    ``COMMUTATION_TOL`` = 1e-10 and t = 1e-8 does not."""
    basis = _unitary(dim, np.random.default_rng(dim))
    side_a = Pvm(SIGNS, basis, (dim // 2, dim - dim // 2))
    for angle, commutes in ((1e-12, True), (1e-8, False)):
        c, s = math.cos(angle), math.sin(angle)
        turn = np.eye(dim)
        turn[[0, -1, 0, -1], [0, -1, -1, 0]] = c, c, -s, s
        side_b = Pvm(SIGNS, basis @ turn, (dim // 2, dim - dim // 2))
        if commutes:
            commuting_joint(side_a, side_b)
        else:
            with pytest.raises(NonCommuting, match=r"1\.000e-08"):
                commuting_joint(side_a, side_b)


@given(seed=st.integers(0, 10_000), dims=st.sampled_from(FACTOR_DIMS[1:]))
@settings(max_examples=20, deadline=None)
def test_witness_joint_on_tensor_embedded_projectors_matches_dense_oracle(seed, dims):
    rng = np.random.default_rng(seed)
    da, db = dims
    p_a = tensor_op(haar_projector(da, max(1, da // 2), rng), identity(db))
    p_b = tensor_op(identity(da), haar_projector(db, max(1, db // 2), rng))
    _assert_matches_dense(witness_joint(p_a, p_b), random_state(da * db, rng), tensor=False)


def test_table_and_verdict_never_lift_the_factor_pvms(monkeypatch):
    joint = joint_measurement(Z_PVM, X_PVM)
    psi = two_qubit([0.5, 0.5j, -0.5, 0.5])
    built = []
    check = Pvm.__post_init__

    def spy(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Pvm, "__post_init__", spy)
    monkeypatch.setattr(Pvm, "projectors", property(lambda self: pytest.fail("dense projectors")))
    joint.probability_table(psi)
    separation_verdict(joint, psi)
    construct_witness(joint, np.random.default_rng(0))
    commuting, zero = commuting_joint(Z_PVM, Z_PVM), basis_vector(2, 0)
    separation_verdict(commuting, zero)
    commuting.project(zero)
    assert built == []


def test_contraction_rejects_a_state_of_the_wrong_dimension():
    joint = joint_measurement(Z_PVM, X_PVM)
    psi = StateVector(np.ones(3) / math.sqrt(3))
    for call in (joint.table, joint.probability_table):
        with pytest.raises(DimensionMismatch):
            call(psi)
