"""Bipartite structure: joint measurements and Schmidt analysis.

A joint measurement pairs two PVMs whose projectors commute on a common
space; couple outcomes (x, y) get the product projector P_x Q_y.  In tensor
form the sides are factor PVMs acting as P (x) 1 and 1 (x) Q, which makes
the commutation automatic, but any commuting pair of same-space PVMs works
via ``commuting_joint``.

Born probabilities are computed by contraction, never through a dense couple
projector or a lifted PVM.  In tensor form the state is reshaped row-major
into the dim_a x dim_b matrix Psi (component k = i * dim_b + j becomes
Psi[i, j]), so that (P (x) Q) psi is the row-major flattening of P Psi Q^T and

    P(x, y) = ||P_x Psi Q_y^T||_F^2.

In commuting form the PVMs act on psi itself: P(x, y) = ||P_x (Q_y psi)||^2.

Before the squared norm, the same contraction is ``project``: the state under
every couple projector.  ``ranks`` holds tr(P_x Q_y) for every couple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, NonCommuting
from .hilbert import COMMUTATION_TOL, Operator, StateVector, commutator_norm
from .hilbert import tensor_op  # noqa: F401  bench/test_bench.py traces this binding
from .measurement import Outcome, Pvm, binary_pvm


@dataclass(frozen=True)
class BipartiteSpace:
    dim_a: int
    dim_b: int

    def __post_init__(self) -> None:
        if self.dim_a < 1 or self.dim_b < 1:
            raise InvalidArgument("factor dimensions must be >= 1")

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


@dataclass(frozen=True, eq=False)
class JointMeasurement:
    """Two one-side measurements executed together; outcomes are couples.

    ``pvm_a`` and ``pvm_b`` are the factor PVMs when built through
    ``joint_measurement`` (``space`` set), or same-space commuting PVMs when
    built through ``commuting_joint`` (``space`` is None).  Born
    probabilities (``table``, indexed by outcome position, and
    ``probability_table``, keyed by label) contract the state with the
    projectors of each side; a marginal is a row or column sum of ``table``,
    since both PVMs are complete.
    """

    pvm_a: Pvm
    pvm_b: Pvm
    space: BipartiteSpace | None

    @property
    def dim(self) -> int:
        return self.space.dim if self.space else self.pvm_a.dim

    @cached_property
    def couples(self) -> tuple[tuple[Outcome, Outcome], ...]:
        return tuple((x, y) for x in self.pvm_a.outcomes for y in self.pvm_b.outcomes)

    @cached_property
    def _stack_a(self) -> np.ndarray:
        """Side-A projectors B_x B_x^H stacked on axis 0."""
        return np.stack([b @ b.conj().T for b in self.pvm_a.blocks])

    @cached_property
    def _stack_b(self) -> np.ndarray:
        """Side-B projectors stacked on axis 0, transposed in tensor form so
        that ``Psi @ _stack_b`` applies every Q_y at once."""
        q = np.stack([b @ b.conj().T for b in self.pvm_b.blocks])
        return q.transpose(0, 2, 1) if self.space else q

    def _matrix(self, psi: StateVector) -> np.ndarray:
        """The state as the matrix both sides act on: Psi in tensor form, the
        column psi in commuting form."""
        if psi.dim != self.dim:
            raise DimensionMismatch(f"state dim {psi.dim}, joint dim {self.dim}")
        if self.space:
            return psi.amplitudes.reshape(self.space.dim_a, self.space.dim_b)
        return psi.amplitudes.reshape(self.dim, 1)

    @cached_property
    def ranks(self) -> np.ndarray:
        """tr(P_x Q_y), the rank of every couple projector, indexed [x, y]; in
        tensor form the product tr(P_x) tr(Q_y) of the factor traces."""
        subscripts = "xii,yjj->xy" if self.space else "xij,yji->xy"
        ranks = np.einsum(subscripts, self._stack_a, self._stack_b).real
        ranks.setflags(write=False)
        return ranks

    def _applied(self, psi: StateVector) -> np.ndarray:
        """P_x (Q_y applied to the state matrix) indexed [x, y, ...]: every Q_y
        is applied at once, as Psi Q_y^T or Q_y psi."""
        m = self._matrix(psi)
        applied_b = m @ self._stack_b if self.space else self._stack_b @ m
        return self._stack_a[:, None] @ applied_b

    def project(self, psi: StateVector) -> np.ndarray:
        """The unnormalised state under every couple projector, indexed
        [x, y, k] in PVM outcome order; k follows the amplitudes of psi."""
        applied = self._applied(psi)
        return applied.reshape(*applied.shape[:2], self.dim)

    def table(self, psi: StateVector) -> np.ndarray:
        """Born probability of every couple, indexed [x, y] in PVM outcome
        order: the squared norms of ``project``."""
        return _squared_norms(self._applied(psi))

    def probability_table(self, psi: StateVector) -> dict[tuple[str, str], float]:
        """``table`` as a dict keyed by the labels of ``couples``, in order."""
        values = self.table(psi).ravel().tolist()
        return {(x.label, y.label): p for (x, y), p in zip(self.couples, values)}


def _squared_norms(v: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms over the last two axes.  The float view puts
    each entry's real and imaginary parts side by side on the last axis."""
    return np.square(np.ascontiguousarray(v).view(np.float64)).sum(axis=(-2, -1))


def joint_measurement(m_a: Pvm, m_b: Pvm) -> JointMeasurement:
    """Tensor-form joint measurement of two factor PVMs."""
    return JointMeasurement(m_a, m_b, BipartiteSpace(m_a.dim, m_b.dim))


def commuting_joint(m_a: Pvm, m_b: Pvm) -> JointMeasurement:
    """Joint measurement from two PVMs on one common space.

    Every projector of one side must commute with every projector of the
    other within ``COMMUTATION_TOL``; otherwise the couple projectors would
    not form a PVM.  ``commutator_norm`` rejects unequal dimensions.
    """
    projs_a, projs_b = m_a.projectors, m_b.projectors
    worst = max(commutator_norm(p, q) for p in projs_a for q in projs_b)
    if worst > COMMUTATION_TOL:
        raise NonCommuting(f"max projector commutator {worst:.3e}")
    return JointMeasurement(m_a, m_b, None)


def witness_joint(p_a: Operator, p_b: Operator) -> JointMeasurement:
    """Binary coarse-grained joint measurement {p_a, 1-p_a} x {p_b, 1-p_b}."""
    return commuting_joint(binary_pvm(p_a), binary_pvm(p_b))


def schmidt(psi: StateVector, space: BipartiteSpace) -> list[tuple[float, StateVector, StateVector]]:
    """Schmidt triples (coefficient, left vector, right vector), descending.

    Reshapes the amplitudes into a dim_a x dim_b matrix and takes its SVD;
    coefficients are the singular values, so sum of squares equals the
    squared norm of the state.
    """
    if psi.dim != space.dim:
        raise DimensionMismatch(f"state dim {psi.dim}, space dim {space.dim}")
    matrix = psi.amplitudes.reshape(space.dim_a, space.dim_b)
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    return [
        (float(s[k]), StateVector(u[:, k]), StateVector(vh[k, :]))
        for k in range(len(s))
    ]
