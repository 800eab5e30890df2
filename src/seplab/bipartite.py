"""Bipartite structure: joint measurements and Schmidt analysis.

A joint measurement pairs two PVMs whose projectors commute on a common
space; couple outcomes (x, y) get the product projector P_x Q_y.  In tensor
form the sides are factor PVMs acting as P (x) 1 and 1 (x) Q, which makes
the commutation automatic, but any commuting pair of same-space PVMs works
via ``commuting_joint``.

Born probabilities (``table``), the state under every couple projector
(``project``) and the couple ranks tr(P_x Q_y) (``ranks``) are contractions
with the PVM bases B_A and B_B; no projector B_x B_x^H is formed.  A side's
owner matrix S (S[x, i] = 1 iff basis column i belongs to outcome x) sums
over each outcome's columns.

In tensor form the state is reshaped row-major into the dim_a x dim_b matrix
Psi (component k = i * dim_b + j becomes Psi[i, j]), so that (P (x) Q) psi is
the row-major flattening of P Psi Q^T.  With C = B_A^H Psi conj(B_B), that
flattens B_x C_xy B_y^T for P_x (x) Q_y, and P(x, y) = (S_A |C|^2 S_B^T)[x, y].

In commuting form the PVMs act on psi itself.  With U = B_A^H B_B and
c = B_B^H psi, column y of V = U (c S_B^T) is Q_y psi in A's basis, so
P_x Q_y psi = B_x V_xy and P(x, y) = (S_A |V|^2)[x, y].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, NonCommuting
from .hilbert import COMMUTATION_TOL, Operator, StateVector, _readonly
from .hilbert import tensor_op  # noqa: F401  bench/test_bench.py traces this binding
from .measurement import Pvm, binary_pvm


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
    ``probability_table``, keyed by ``label_pairs``) contract the state with
    both bases (see the module docstring); a marginal is a row or column sum
    of ``table``, since both PVMs are complete.
    """

    pvm_a: Pvm
    pvm_b: Pvm
    space: BipartiteSpace | None

    @property
    def dim(self) -> int:
        return self.space.dim if self.space else self.pvm_a.dim

    @cached_property
    def label_pairs(self) -> tuple[tuple[str, str], ...]:
        """The couples' label pairs in row-major [x, y] table order."""
        return tuple((x, y) for x in self.pvm_a.labels for y in self.pvm_b.labels)

    @cached_property
    def _owners(self) -> tuple[np.ndarray, np.ndarray]:
        """The owner matrices S_A (k_A x d_A) and S_B (k_B x d_B)."""
        return tuple(np.repeat(np.eye(len(m.sizes)), m.sizes, 1) for m in (self.pvm_a, self.pvm_b))

    @cached_property
    def _conjugates(self) -> tuple[np.ndarray, np.ndarray]:
        """conj(B_A) and conj(B_B), copied once per joint."""
        return self.pvm_a.basis.conj(), self.pvm_b.basis.conj()

    @cached_property
    def _overlap(self) -> np.ndarray:
        """U = B_A^H B_B, side B's basis in side A's (commuting form)."""
        return self._conjugates[0].T @ self.pvm_b.basis

    @cached_property
    def ranks(self) -> np.ndarray:
        """tr(P_x Q_y), the rank of every couple projector, indexed [x, y]:
        S_A W S_B^T with W = |U|^2 in commuting form, all ones in tensor form."""
        s_a, s_b = self._owners
        weights = np.ones((s_a.shape[1], s_b.shape[1])) if self.space else np.abs(self._overlap) ** 2
        return _readonly(s_a @ weights @ s_b.T)

    def _coefficients(self, psi: StateVector) -> np.ndarray:
        """C (d_A x d_B) in tensor form, V (d x k_B) in commuting form."""
        if psi.dim != self.dim:
            raise DimensionMismatch(f"state dim {psi.dim}, joint dim {self.dim}")
        conj_a, conj_b = self._conjugates
        if self.space:
            return conj_a.T @ psi.amplitudes.reshape(self.space.dim_a, self.space.dim_b) @ conj_b
        return self._overlap @ ((conj_b.T @ psi.amplitudes)[:, None] * self._owners[1].T)

    def project(self, psi: StateVector) -> np.ndarray:
        """The unnormalised state under every couple projector, indexed
        [x, y, k] in outcome order (k as in psi); B * S[x] pads B_x to d x d."""
        s_a, s_b = self._owners
        left = (self.pvm_a.basis * s_a[:, None]) @ self._coefficients(psi)
        if self.space:
            parts = left[:, None] @ (self.pvm_b.basis * s_b[:, None]).transpose(0, 2, 1)
            return parts.reshape(*parts.shape[:2], self.dim)
        return left.transpose(0, 2, 1)

    def table(self, psi: StateVector) -> np.ndarray:
        """Born probability of every couple, indexed [x, y] in PVM outcome
        order: the squared norms of ``project``."""
        s_a, s_b = self._owners
        weights = np.abs(self._coefficients(psi)) ** 2
        return s_a @ weights @ s_b.T if self.space else s_a @ weights

    def probability_table(self, psi: StateVector) -> dict[tuple[str, str], float]:
        """``table`` as a dict keyed by ``label_pairs``, in order."""
        return dict(zip(self.label_pairs, self.table(psi).ravel().tolist()))


def joint_measurement(m_a: Pvm, m_b: Pvm) -> JointMeasurement:
    """Tensor-form joint measurement of two factor PVMs."""
    return JointMeasurement(m_a, m_b, BipartiteSpace(m_a.dim, m_b.dim))


def commuting_joint(m_a: Pvm, m_b: Pvm) -> JointMeasurement:
    """Joint measurement from two PVMs on one common space, whose projectors
    must commute pairwise for the couple projectors to form a PVM.

    With U_y the y-block columns of U = B_A^H B_B, G_y = U_y U_y^H is Q_y in
    A's eigenbasis.  Its entries joining two different A blocks are the
    entries of the commutators [P_x, Q_y] in that basis, so ``COMMUTATION_TOL``
    bounds the max-entry commutator up to that change of basis.
    """
    if m_a.dim != m_b.dim:
        raise DimensionMismatch(f"dims {m_a.dim} and {m_b.dim}")
    joint = JointMeasurement(m_a, m_b, None)
    s_a = joint._owners[0]
    across = 1.0 - s_a.T @ s_a  # 1 where two A basis columns belong to different outcomes
    blocks = np.split(joint._overlap, np.cumsum(m_b.sizes)[:-1], axis=1)
    worst = max(float(np.abs((u @ u.conj().T) * across).max()) for u in blocks)
    if worst > COMMUTATION_TOL:
        raise NonCommuting(f"max projector commutator {worst:.3e} in A's eigenbasis")
    return joint


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
