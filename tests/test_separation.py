import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_joint_table, kron_loops, random_state
from seplab import cli
from seplab.bipartite import joint_measurement
from seplab.errors import EmptySubspace, InvalidArgument, NonCommuting
from seplab.hilbert import (
    SIGMA_X,
    SIGMA_Z,
    Operator,
    StateVector,
    basis_vector,
    haar_projector,
    identity,
    projector_onto,
    tensor_op,
    tensor_vec,
)
from seplab.measurement import SIGNS, Pvm, binary_pvm, pvm_from_operator
from seplab.separation import (
    AertsWitness,
    construct_witness,
    no_cloning_witness,
    separation_verdict,
    verify_witness,
    witness_joint,
)

ROOT_HALF = 1 / math.sqrt(2)

P_A_QUBIT = tensor_op(projector_onto(basis_vector(2, 0)), identity(2))
P_B_QUBIT = tensor_op(identity(2), projector_onto(basis_vector(2, 0)))


def qubit_witness(seed: int = 42) -> AertsWitness:
    return construct_witness(witness_joint(P_A_QUBIT, P_B_QUBIT), np.random.default_rng(seed))


def test_qubit_witness_subspaces_are_forced():
    w = qubit_witness()
    # both subspaces are one-dimensional, so the draws are forced up to phase
    assert abs(np.vdot(w.phi.amplitudes, [0, 1, 0, 0])) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(w.chi.amplitudes, [0, 0, 1, 0])) == pytest.approx(1.0, abs=1e-12)
    target = np.array([0, ROOT_HALF, ROOT_HALF, 0])
    assert abs(np.vdot(w.psi.amplitudes, target)) == pytest.approx(1.0, abs=1e-12)


def test_qubit_witness_residuals_vanish():
    w = qubit_witness()
    assert max(w.residuals.values()) <= 1e-12
    # the (+,+) couple projects onto |00>, which has zero amplitude in psi
    assert w.residuals["blocked_both"] <= 1e-12
    assert w.residuals["blocked_neither"] <= 1e-12


def test_witness_swap_symmetry():
    w = qubit_witness()
    swapped_residuals = verify_witness(witness_joint(P_B_QUBIT, P_A_QUBIT), w.chi, w.phi, w.psi)
    assert sorted(swapped_residuals.values()) == pytest.approx(
        sorted(w.residuals.values()), abs=1e-12
    )
    assert max(swapped_residuals.values()) <= 1e-12


def test_empty_subspace_for_trivial_pairs():
    eye4 = identity(4)
    with pytest.raises(EmptySubspace):
        construct_witness(witness_joint(eye4, eye4), np.random.default_rng(0))
    p = P_A_QUBIT
    with pytest.raises(EmptySubspace):
        construct_witness(witness_joint(p, p), np.random.default_rng(0))  # p (1 - p) H = 0
    # the complement pair keeps both cross subspaces nonzero
    complement = Operator(np.eye(4) - p.entries)
    w = construct_witness(witness_joint(p, complement), np.random.default_rng(0))
    assert max(w.residuals.values()) <= 1e-10


def test_non_commuting_projectors_rejected():
    pz = projector_onto(basis_vector(2, 0))  # sigma_z eigenprojector
    px = projector_onto(StateVector(np.array([1, 1]) / math.sqrt(2)))
    with pytest.raises(NonCommuting):
        witness_joint(pz, px)


def test_verdict_on_correlated_state_z_z():
    psi = StateVector(np.array([0, ROOT_HALF, ROOT_HALF, 0]))
    joint = joint_measurement(pvm_from_operator(SIGMA_Z), pvm_from_operator(SIGMA_Z))
    verdict = separation_verdict(joint, psi)
    # Born-rule enumeration: amplitudes sit on |01> and |10> only
    expected = {
        ("+1", "+1"): 0.0,
        ("+1", "-1"): 0.5,
        ("-1", "+1"): 0.5,
        ("-1", "-1"): 0.0,
    }
    for couple, value in expected.items():
        assert verdict.probabilities[couple] == pytest.approx(value, abs=1e-12)
    assert set(verdict.missing_couples) == {("+1", "+1"), ("-1", "-1")}
    assert not verdict.separate


def test_verdict_on_product_eigenstate():
    psi = tensor_vec(basis_vector(2, 0), basis_vector(2, 0))
    joint = joint_measurement(pvm_from_operator(SIGMA_Z), pvm_from_operator(SIGMA_Z))
    verdict = separation_verdict(joint, psi)
    assert verdict.separate
    assert verdict.possible_a == ("+1",)
    assert verdict.possible_b == ("+1",)
    assert verdict.missing_couples == ()


def test_verdict_rejects_a_state_with_no_possible_outcome():
    joint = joint_measurement(pvm_from_operator(SIGMA_Z), pvm_from_operator(SIGMA_Z))
    with pytest.raises(ValueError, match="no possible outcome"):
        separation_verdict(joint, StateVector(np.zeros(4)))


def test_verdict_probability_oracle_agreement():
    # independent path: joint probabilities from a loop-built Kronecker matrix
    rng = np.random.default_rng(4)
    psi = StateVector(random_state(4, rng))
    ma = pvm_from_operator(SIGMA_Z)
    mb = pvm_from_operator(SIGMA_X)
    joint = joint_measurement(ma, mb)
    verdict = separation_verdict(joint, psi)
    for i, x in enumerate(ma.outcomes):
        for j, y in enumerate(mb.outcomes):
            proj = kron_loops(ma.projectors[i].entries, mb.projectors[j].entries)
            vec = proj @ psi.amplitudes
            assert verdict.probabilities[(x.label, y.label)] == pytest.approx(
                float(np.real(np.vdot(vec, vec))), abs=1e-12
            )


def _random_tensor_pair(rng):
    da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    ra = int(rng.integers(1, da))
    rb = int(rng.integers(1, db))
    ga = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
    gb = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
    qa, _ = np.linalg.qr(ga)
    qb, _ = np.linalg.qr(gb)
    proj_a = qa[:, :ra] @ qa[:, :ra].conj().T
    proj_b = qb[:, :rb] @ qb[:, :rb].conj().T
    p_a = tensor_op(Operator(proj_a), identity(db))
    p_b = tensor_op(identity(da), Operator(proj_b))
    return p_a, p_b


def _random_common_eigenbasis_pair(rng):
    dim = int(rng.integers(4, 17))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    while True:
        mask_a = rng.integers(0, 2, size=dim).astype(bool)
        mask_b = rng.integers(0, 2, size=dim).astype(bool)
        if (mask_a & ~mask_b).any() and (~mask_a & mask_b).any():
            break
    p_a = Operator(q[:, mask_a] @ q[:, mask_a].conj().T)
    p_b = Operator(q[:, mask_b] @ q[:, mask_b].conj().T)
    return p_a, p_b


@given(seed=st.integers(0, 100_000), tensor=st.booleans())
@settings(max_examples=40, deadline=None)
def test_every_admissible_pair_yields_a_nonseparable_witness(seed, tensor):
    rng = np.random.default_rng(seed)
    p_a, p_b = _random_tensor_pair(rng) if tensor else _random_common_eigenbasis_pair(rng)
    joint = witness_joint(p_a, p_b)
    w = construct_witness(joint, rng)
    assert max(w.residuals.values()) <= 1e-10
    verdict = separation_verdict(joint, w.psi)
    assert not verdict.separate
    assert set(verdict.missing_couples) == {("+", "+"), ("-", "-")}
    assert verdict.possible_a == ("+", "-")
    assert verdict.possible_b == ("+", "-")


def _ranked_joints(rng, tensor):
    """Binary joints of one commuting projector pair with ranks that may be
    zero or full, and the ranks of its cross couples P_A (1 - P_B) H and
    (1 - P_A) P_B H.  The first joint is the commuting form; a tensor pair
    adds its tensor form at the factor dimensions."""
    if tensor:  # unequal factor dimensions, dim_a * dim_b <= 64
        da = int(rng.integers(1, 9))
        db = int(rng.choice([d for d in range(1, 64 // da + 1) if d != da]))
        ra, rb = int(rng.integers(0, da + 1)), int(rng.integers(0, db + 1))
        proj_a, proj_b = haar_projector(da, ra, rng), haar_projector(db, rb, rng)
        joints = [
            witness_joint(tensor_op(proj_a, identity(db)), tensor_op(identity(da), proj_b)),
            joint_measurement(binary_pvm(proj_a), binary_pvm(proj_b)),
        ]
        return joints, ra * (db - rb), (da - ra) * rb
    dim = int(rng.integers(1, 65))
    mask_a = rng.integers(0, 2, size=dim).astype(bool)
    mask_b = rng.integers(0, 2, size=dim).astype(bool)
    p_a = Operator(np.diag(mask_a.astype(complex)))
    p_b = Operator(np.diag(mask_b.astype(complex)))
    return [witness_joint(p_a, p_b)], int((mask_a & ~mask_b).sum()), int((~mask_a & mask_b).sum())


@given(seed=st.integers(0, 100_000), tensor=st.booleans())
@settings(max_examples=60, deadline=None)
def test_witness_exists_iff_both_cross_couples_are_nonzero(seed, tensor):
    joints, rank_phi, rank_chi = _ranked_joints(np.random.default_rng(seed), tensor)
    witnesses = []
    for joint in joints:
        np.testing.assert_allclose(joint.ranks[[0, 1], [1, 0]], [rank_phi, rank_chi], atol=1e-9)
        if rank_phi == 0 or rank_chi == 0:
            with pytest.raises(EmptySubspace):
                construct_witness(joint, np.random.default_rng(seed))
            continue
        w = construct_witness(joint, np.random.default_rng(seed))
        assert max(w.residuals.values()) < 1e-10
        assert not separation_verdict(joint, w.psi).separate
        witnesses.append(w)
    # both forms of one pair draw the same witness from the same seed, up to phase
    for a, b in zip(witnesses, witnesses[1:]):
        for name in ("phi", "chi", "psi"):
            overlap = abs(np.vdot(getattr(a, name).amplitudes, getattr(b, name).amplitudes))
            assert overlap == pytest.approx(1.0, abs=1e-10)


def test_aerts_scenario_lifts_nothing(monkeypatch):
    eighs, dims = [], []
    eigh, check = np.linalg.eigh, Pvm.__post_init__

    def spy_eigh(*args, **kwargs):
        eighs.append(args)
        return eigh(*args, **kwargs)

    def spy_pvm(self):
        check(self)
        dims.append(self.dim)

    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    monkeypatch.setattr(Pvm, "__post_init__", spy_pvm)
    params = {"dim_a": 8, "dim_b": 8, "rank_a": 3, "rank_b": 5, "random_pair": True}
    results = cli.run(cli.build_config("aerts", seed=11, params=params)).results
    assert results["max_residual"] < 1e-10 and results["separate"] is False
    assert eighs == []
    assert dims and max(dims) <= 8


@given(seed=st.integers(0, 100_000), tensor=st.booleans())
@settings(max_examples=60, deadline=None)
def test_verdict_sets_match_the_dense_table(seed, tensor):
    rng = np.random.default_rng(seed)
    if tensor:
        da, db = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        ranks = [int(rng.integers(0, d + 1)) for d in (da, db)]
        pvms = [
            binary_pvm(identity(d) if r == d else haar_projector(d, r, rng))
            for d, r in zip((da, db), ranks)
        ]
        joint, dim = joint_measurement(*pvms), da * db
    else:  # ranks 0 and full included
        joints, rank_phi, rank_chi = _ranked_joints(rng, bool(rng.integers(2)))
        joint, dim = joints[0], joints[0].dim
    states = [random_state(dim, rng)]
    if not tensor and rank_phi and rank_chi:  # a state with missing couples
        states.append(construct_witness(joint, rng).psi.amplitudes)
    projs_a = [p.entries for p in joint.pvm_a.projectors]
    projs_b = [q.entries for q in joint.pvm_b.projectors]
    labels_a, labels_b = joint.pvm_a.labels, joint.pvm_b.labels
    for psi in states:
        dense = dense_joint_table(projs_a, projs_b, psi, tensor)
        possible_a = {labels_a[i] for i in range(len(labels_a)) if dense[i].sum() > 1e-10}
        possible_b = {labels_b[j] for j in range(len(labels_b)) if dense[:, j].sum() > 1e-10}
        missing = {
            (x, y)
            for i, x in enumerate(labels_a)
            for j, y in enumerate(labels_b)
            if x in possible_a and y in possible_b and dense[i, j] <= 1e-10
        }
        verdict = separation_verdict(joint, StateVector(psi))
        assert set(verdict.possible_a) == possible_a
        assert set(verdict.possible_b) == possible_b
        assert set(verdict.missing_couples) == missing
        assert verdict.separate == (not missing)


def test_verdict_counts_a_couple_at_exactly_tol_as_missing():
    # a uniform product state on computational-basis PVMs puts exactly 0.25 on
    # each couple; a couple at tol is not possible
    z = Pvm(SIGNS, np.eye(2), (1, 1))
    joint = joint_measurement(z, z)
    psi = StateVector(np.full(4, 0.5))
    assert joint.table(psi).tolist() == [[0.25, 0.25], [0.25, 0.25]]
    verdict = separation_verdict(joint, psi, tol=0.25)
    assert not verdict.separate
    assert set(verdict.missing_couples) == {(x, y) for x in "+-" for y in "+-"}


@given(seed=st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_verdict_tolerance_monotonicity_and_consistency(seed):
    rng = np.random.default_rng(seed)
    from oracles import random_hermitian

    da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    ma = pvm_from_operator(Operator(random_hermitian(da, rng)))
    mb = pvm_from_operator(Operator(random_hermitian(db, rng)))
    joint = joint_measurement(ma, mb)
    psi = StateVector(random_state(da * db, rng))
    low = separation_verdict(joint, psi, tol=1e-10)
    high = separation_verdict(joint, psi, tol=1e-3)
    assert set(high.possible_a) <= set(low.possible_a)
    assert set(high.possible_b) <= set(low.possible_b)
    for verdict in (low, high):
        assert verdict.separate == (not verdict.missing_couples)
        for x, y in verdict.missing_couples:
            assert x in verdict.possible_a and y in verdict.possible_b
            assert verdict.probabilities[(x, y)] <= verdict.tol


@pytest.mark.parametrize("tol", [0.0, 1e-300, 9e-13, math.nan])
def test_verdict_rejects_a_tol_below_probability_tol(tol):
    joint, psi = witness_joint(P_A_QUBIT, P_B_QUBIT), qubit_witness().psi
    with pytest.raises(InvalidArgument, match="PROBABILITY_TOL"):
        separation_verdict(joint, psi, tol=tol)
    assert separation_verdict(joint, psi, tol=1e-12).missing_couples == (("+", "+"), ("-", "-"))


def test_no_cloning_certificates():
    zero, one = basis_vector(2, 0), basis_vector(2, 1)
    plus = StateVector(np.array([1, 1]) / math.sqrt(2))
    same = no_cloning_witness(zero, zero)
    assert same.overlap == pytest.approx(1.0, abs=1e-12)
    assert same.defect <= 1e-12 and not same.impossible
    orth = no_cloning_witness(zero, one)
    assert orth.overlap == pytest.approx(0.0, abs=1e-12)
    assert orth.defect <= 1e-12 and not orth.impossible
    mixed = no_cloning_witness(zero, plus)
    assert mixed.overlap == pytest.approx(ROOT_HALF, abs=1e-12)
    assert mixed.defect == pytest.approx(ROOT_HALF - 0.5, abs=1e-12)
    assert mixed.impossible


def test_no_cloning_divides_the_overlap_by_both_norms():
    # a norm within UNIT_TOL of 1 is accepted, so the pair must read as identical
    v = StateVector([1 + 5e-10, 0])
    same = no_cloning_witness(v, v)
    assert same.overlap == pytest.approx(1.0, abs=1e-15)
    assert not same.impossible
