"""Separability of joint measurements, witness states, and a cloning obstruction.

Two measurements executed together count as separate when every couple of
individually possible outcomes stays jointly possible.  For a joint
measurement of two binary experiments {P_A, 1-P_A} and {P_B, 1-P_B} whose
cross couple subspaces ``P_A (1-P_B) H`` and ``(1-P_A) P_B H`` are both
nonzero, the superposition

    psi = (phi + chi) / sqrt(2),   phi in P_A (1-P_B) H,  chi in (1-P_A) P_B H

has both outcomes possible on each side while the couples (+,+) and (-,-)
carry zero probability, so the verdict is never "separate".  The witness and
the verdict read one ``JointMeasurement``: its couple ranks decide whether
the witness exists, its couple projections draw the halves and check the
identities, and its table renders the verdict for arbitrary states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import bipartite
from .bipartite import JointMeasurement
from .errors import DimensionMismatch, EmptySubspace, InvalidArgument
from .hilbert import CLONING_DEFECT_TOL, POSSIBILITY_TOL, PROBABILITY_TOL, UNIT_TOL, StateVector


@dataclass(frozen=True, eq=False)
class AertsWitness:
    """Witness tuple for non-separability of a binary joint measurement.

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


def _canonical_unit(v: np.ndarray) -> StateVector:
    """v normalised, with the global phase rotated so that the
    largest-magnitude entry is real positive; repeated runs are comparable."""
    pivot = v[int(np.argmax(np.abs(v)))]
    return StateVector(v * (pivot.conjugate() / abs(pivot)) / np.linalg.norm(v))


def construct_witness(joint: JointMeasurement, rng: np.random.Generator) -> AertsWitness:
    """Build a witness state for a joint of two binary measurements.

    One complex Gaussian vector drawn from ``rng`` is passed through the
    cross couples: phi is its part in P_0 Q_1 H and chi its part in
    P_1 Q_0 H.  The ranges are orthogonal, so the parts are independent and
    each, normalised with a canonical phase, is Haar-uniform in its
    subspace.  Then ``psi = (phi + chi)/sqrt(2)``.  The joint's PVMs and
    commutation check carry every projector condition.  Raises
    :class:`InvalidArgument` unless each side has two outcomes and
    :class:`EmptySubspace` when either cross couple has rank zero.  That
    means only that this cross-diagonal construction does not apply, not
    that the pair admits no witness: for p_a = p_b = p both couples are
    zero, yet with p = |0><0| (x) 1 the joint is non-separate on
    (e_0 + e_2)/sqrt(2), whose couples lie on the (+,+)/(-,-) diagonal.
    """
    if len(joint.pvm_a.outcomes) != 2 or len(joint.pvm_b.outcomes) != 2:
        raise InvalidArgument("the witness needs two outcomes on each side")
    # 0.5 lies halfway between integer ranks; it is not a tolerance
    for x, y in ((0, 1), (1, 0)):
        if joint.ranks[x, y] < 0.5:
            raise EmptySubspace(f"couple ({x}, {y}) has rank zero")

    gaussian = rng.normal(size=joint.dim) + 1j * rng.normal(size=joint.dim)
    parts = joint.project(StateVector(gaussian))
    phi, chi = _canonical_unit(parts[0, 1]), _canonical_unit(parts[1, 0])
    psi = StateVector((phi.amplitudes + chi.amplitudes) / np.sqrt(2.0))
    return AertsWitness(phi, chi, psi, verify_witness(joint, phi, chi, psi))


def verify_witness(
    joint: JointMeasurement, phi: StateVector, chi: StateVector, psi: StateVector
) -> dict[str, float]:
    """Residual report for the witness identities of the halves phi, chi and
    the state psi under the binary ``joint``; every entry must be ~0.

    The halves: the side-A outcome 0 (or side-B outcome 1) applied to psi
    returns phi/sqrt(2), and symmetrically chi/sqrt(2).  The crosses: the
    couples (0, 1) and (1, 0) return the same halves.  The blocked couples:
    (0, 0) and (1, 1) annihilate psi.  A one-side projection is a row or
    column sum of the couple parts, since both PVMs are complete.
    """
    on_phi, on_chi, on_psi = (joint.project(v) for v in (phi, chi, psi))
    phi, chi, psi = phi.amplitudes, chi.amplitudes, psi.amplitudes
    half_phi, half_chi = phi / np.sqrt(2.0), chi / np.sqrt(2.0)

    def dist(vec: np.ndarray, target: np.ndarray) -> float:
        return float(np.linalg.norm(vec - target))

    side_a, side_b = on_psi.sum(axis=1), on_psi.sum(axis=0)
    return {
        "phi_membership": dist(on_phi[0, 1], phi),
        "chi_membership": dist(on_chi[1, 0], chi),
        "phi_chi_overlap": float(abs(np.vdot(phi, chi))),
        "psi_norm": float(abs(np.linalg.norm(psi) - 1.0)),
        "a_half": dist(side_a[0], half_phi),
        "a_complement_half": dist(side_a[1], half_chi),
        "b_half": dist(side_b[0], half_chi),
        "b_complement_half": dist(side_b[1], half_phi),
        "cross_a_notb": dist(on_psi[0, 1], half_phi),
        "cross_nota_b": dist(on_psi[1, 0], half_chi),
        "blocked_both": float(np.linalg.norm(on_psi[0, 0])),
        "blocked_neither": float(np.linalg.norm(on_psi[1, 1])),
    }


witness_joint = bipartite.witness_joint  # the binary joint a witness is built on


def separation_verdict(
    joint: JointMeasurement, psi: StateVector, tol: float = POSSIBILITY_TOL
) -> SeparationVerdict:
    """Decide whether the two sides of ``joint`` act as separate measurements
    on ``psi``: every couple of marginally possible outcomes must be jointly
    possible above ``tol``.  A ``tol`` below ``PROBABILITY_TOL`` raises
    :class:`InvalidArgument`: it would count rounding residue as possible."""
    if not tol >= PROBABILITY_TOL:
        raise InvalidArgument(f"tol={tol:g} is below PROBABILITY_TOL={PROBABILITY_TOL:g}")
    table = joint.table(psi)
    # both PVMs are complete, so the row and column sums are the marginals
    labels_a, labels_b = joint.pvm_a.labels, joint.pvm_b.labels
    rows = [i for i, p in enumerate(table.sum(axis=1).tolist()) if p > tol]
    cols = [j for j, p in enumerate(table.sum(axis=0).tolist()) if p > tol]
    if not rows or not cols:
        raise InvalidArgument(f"no possible outcome above tol={tol:g}: is the state normalized?")
    values = table.tolist()
    missing = tuple((labels_a[i], labels_b[j]) for i in rows for j in cols if values[i][j] <= tol)
    return SeparationVerdict(
        separate=not missing,
        possible_a=tuple(labels_a[i] for i in rows),
        possible_b=tuple(labels_b[j] for j in cols),
        missing_couples=missing,
        probabilities=dict(zip(joint.label_pairs, table.ravel().tolist())),
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
