"""Separability of joint measurements, witness states, and a cloning obstruction.

Two measurements executed together count as separate when every couple of
individually possible outcomes stays jointly possible.  For any commuting
projector pair (P_A, P_B) whose subspaces ``P_A (1-P_B) H`` and
``(1-P_A) P_B H`` are both nonzero, the superposition

    psi = (phi + chi) / sqrt(2),   phi in P_A (1-P_B) H,  chi in (1-P_A) P_B H

has both outcomes possible on each side while the couples (+,+) and (-,-)
carry zero probability, so the verdict is never "separate".  This module
builds such witnesses, checks the defining identities numerically, and
renders the verdict for arbitrary states and joint measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .bipartite import JointMeasurement, commuting_joint
from .errors import DimensionMismatch, EmptySubspace, InvalidArgument, NonCommuting
from .hilbert import CLONING_DEFECT_TOL, COMMUTATION_TOL, POSSIBILITY_TOL, UNIT_TOL
from .hilbert import Operator, StateVector, commutator_norm
from .measurement import binary_pvm


@dataclass(frozen=True, eq=False)
class AertsWitness:
    """Witness tuple for non-separability of a commuting projector pair.

    ``residuals`` holds the named magnitudes computed by :func:`verify_witness`;
    each is ~0 for a valid witness, and no bound is enforced here: a caller
    compares them against its own tolerance.
    """

    phi: StateVector
    chi: StateVector
    psi: StateVector
    residuals: Mapping[str, float]


@dataclass(frozen=True)
class SeparationVerdict:
    """Outcome of the separate-measurements check on one state.

    ``missing_couples`` lists couples that are possible marginally on each
    side but carry joint probability at most ``tol``; the measurements are
    separate on this state iff that list is empty.
    """

    separate: bool
    possible_a: tuple[str, ...]
    possible_b: tuple[str, ...]
    missing_couples: tuple[tuple[str, str], ...]
    probabilities: dict[tuple[str, str], float]
    tol: float


@dataclass(frozen=True)
class CloningCertificate:
    """Obstruction to cloning a state pair with one unitary machine.

    A unitary copier preserves inner products, which forces the overlap
    ``c = |<psi|phi>|`` to satisfy ``c = c^2``, i.e. the pair must be
    identical or orthogonal.  A positive ``defect = |c - c^2|`` therefore
    certifies that no such machine exists for the pair.
    """

    overlap: float
    defect: float
    impossible: bool


def _canonical_phase(amps: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude entry is real positive."""
    k = int(np.argmax(np.abs(amps)))
    pivot = amps[k]
    return amps * (pivot.conjugate() / abs(pivot))


def _random_unit_in(basis: np.ndarray, rng: np.random.Generator) -> StateVector:
    """Haar-random unit vector in the span of the basis columns, with the
    global phase fixed canonically so repeated runs are comparable."""
    rank = basis.shape[1]
    coeffs = rng.normal(size=rank) + 1j * rng.normal(size=rank)
    v = basis @ coeffs
    v = v / np.linalg.norm(v)
    return StateVector(_canonical_phase(v))


def construct_witness(p_a: Operator, p_b: Operator, rng: np.random.Generator) -> AertsWitness:
    """Build a witness state for the commuting projector pair (p_a, p_b).

    Both halves come from one eigendecomposition of ``p_a - p_b``.  For
    commuting projectors its spectrum lies in {-1, 0, +1}: the +1
    eigenspace is ``p_a (1-p_b) H`` and the -1 eigenspace is
    ``(1-p_a) p_b H``.  phi is drawn Haar-uniformly inside the first and chi
    inside the second (deterministically from ``rng``, phases canonical),
    then ``psi = (phi + chi)/sqrt(2)``.  Raises :class:`NonCommuting` when
    the projectors fail to commute within tolerance and
    :class:`EmptySubspace` when either subspace has rank zero.  That means
    only that this cross-diagonal construction does not apply, not that the
    pair admits no witness: for ``p_a = p_b = p`` both subspaces are zero,
    yet with p = |0><0| (x) 1 the joint is non-separate on
    (e_0 + e_2)/sqrt(2), whose couples lie on the (+,+)/(-,-) diagonal.
    """
    for name, p in (("p_a", p_a), ("p_b", p_b)):
        if not p.is_projector():
            raise InvalidArgument(f"{name} fails the projector check")
    if p_a.dim != p_b.dim:
        raise DimensionMismatch(f"dims {p_a.dim} and {p_b.dim}")
    comm = commutator_norm(p_a, p_b)
    if comm > COMMUTATION_TOL:
        raise NonCommuting(f"[p_a, p_b] max entry {comm:.3e}")

    # 0.5 is the midpoint between neighbouring eigenvalues, not a tolerance
    values, vectors = np.linalg.eigh(p_a.entries - p_b.entries)
    basis_phi = vectors[:, values > 0.5]
    basis_chi = vectors[:, values < -0.5]
    if basis_phi.shape[1] == 0:
        raise EmptySubspace("p_a (1 - p_b) H has rank zero")
    if basis_chi.shape[1] == 0:
        raise EmptySubspace("(1 - p_a) p_b H has rank zero")

    phi = _random_unit_in(basis_phi, rng)
    chi = _random_unit_in(basis_chi, rng)
    psi = StateVector((phi.amplitudes + chi.amplitudes) / np.sqrt(2.0))
    return AertsWitness(phi, chi, psi, verify_witness(phi, chi, psi, p_a, p_b))


def verify_witness(
    phi: StateVector, chi: StateVector, psi: StateVector, p_a: Operator, p_b: Operator
) -> dict[str, float]:
    """Residual report for the witness identities of the halves phi, chi and
    the state psi; every entry must be ~0.

    The halves: applying p_a (or the complement of p_b) to psi returns
    phi/sqrt(2), and symmetrically chi/sqrt(2).  The crosses: the couple
    projectors for (+,-) and (-,+) return the same halves.  The blocked
    couples: the projectors for (+,+) and (-,-) annihilate psi.
    """
    eye = np.eye(p_a.dim)
    pa, pb = p_a.entries, p_b.entries
    ca, cb = eye - pa, eye - pb
    phi, chi, psi = phi.amplitudes, chi.amplitudes, psi.amplitudes
    root2 = np.sqrt(2.0)

    def dist(vec: np.ndarray, target: np.ndarray) -> float:
        return float(np.linalg.norm(vec - target))

    half_phi = phi / root2
    half_chi = chi / root2
    return {
        "phi_membership": dist(pa @ (cb @ phi), phi),
        "chi_membership": dist(ca @ (pb @ chi), chi),
        "phi_chi_overlap": float(abs(np.vdot(phi, chi))),
        "psi_norm": float(abs(np.linalg.norm(psi) - 1.0)),
        "a_half": dist(pa @ psi, half_phi),
        "a_complement_half": dist(ca @ psi, half_chi),
        "b_half": dist(pb @ psi, half_chi),
        "b_complement_half": dist(cb @ psi, half_phi),
        "cross_a_notb": dist(pa @ (cb @ psi), half_phi),
        "cross_nota_b": dist(ca @ (pb @ psi), half_chi),
        "blocked_both": float(np.linalg.norm(pa @ (pb @ psi))),
        "blocked_neither": float(np.linalg.norm(ca @ (cb @ psi))),
    }


def witness_joint(p_a: Operator, p_b: Operator) -> JointMeasurement:
    """Binary coarse-grained joint measurement {p_a, 1-p_a} x {p_b, 1-p_b}."""
    return commuting_joint(binary_pvm(p_a), binary_pvm(p_b))


def separation_verdict(
    joint: JointMeasurement, psi: StateVector, tol: float = POSSIBILITY_TOL
) -> SeparationVerdict:
    """Decide whether the two sides of ``joint`` act as separate measurements
    on ``psi``: every couple of marginally possible outcomes must be jointly
    possible above ``tol``."""
    table = joint.table(psi)
    # both PVMs are complete, so the row and column sums are the marginals
    labels_a, labels_b = joint.pvm_a.labels, joint.pvm_b.labels
    rows = [i for i, p in enumerate(table.sum(axis=1).tolist()) if p > tol]
    cols = [j for j, p in enumerate(table.sum(axis=0).tolist()) if p > tol]
    if not rows or not cols:
        raise InvalidArgument(f"no possible outcome above tol={tol:g}: is the state normalized?")
    values = table.tolist()
    missing = tuple(
        (labels_a[i], labels_b[j]) for i in rows for j in cols if values[i][j] <= tol
    )
    return SeparationVerdict(
        separate=not missing,
        possible_a=tuple(labels_a[i] for i in rows),
        possible_b=tuple(labels_b[j] for j in cols),
        missing_couples=missing,
        probabilities={
            (x, y): p for x, row in zip(labels_a, values) for y, p in zip(labels_b, row)
        },
        tol=tol,
    )


def no_cloning_witness(psi: StateVector, phi: StateVector) -> CloningCertificate:
    """Certificate for the pair (psi, phi): cloning both with one unitary
    machine is impossible iff the overlap defect ``|c - c^2|`` is positive."""
    if psi.dim != phi.dim:
        raise DimensionMismatch(f"dims {psi.dim} and {phi.dim}")
    for name, v in (("psi", psi), ("phi", phi)):
        if abs(v.norm() - 1.0) > UNIT_TOL:
            raise InvalidArgument(f"{name} must be normalized")
    c = float(abs(np.vdot(psi.amplitudes, phi.amplitudes))) / (psi.norm() * phi.norm())
    defect = abs(c - c * c)
    return CloningCertificate(overlap=c, defect=defect, impossible=defect > CLONING_DEFECT_TOL)
