"""Projection-valued measures and Born probabilities.

A ``Pvm`` is an orthonormal basis split into one block of columns per
outcome.  Its outcomes are a tuple of labelled ``Outcome`` values; a label
optionally carries a real value so that +/-1-valued observables support
correlation arithmetic downstream.  ``all_probabilities`` is the Born rule of
one PVM; joint tables of two measurements are computed in ``bipartite``.
Nothing here draws outcomes or collapses states.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import hilbert
from .errors import DimensionMismatch, InvalidArgument
from .hilbert import DIM_CAP, PROJECTOR_TOL, Operator, StateVector


@dataclass(frozen=True)
class Outcome:
    """Measurement outcome: a printable label plus an optional real value."""

    label: str
    value: float | None = None

    def __str__(self) -> str:
        return self.label


SIGNS = (Outcome("+", +1.0), Outcome("-", -1.0))  # a binary PVM's outcomes, + first


@dataclass(frozen=True, eq=False)
class Pvm:
    """Projection-valued measure: a d x d orthonormal ``basis`` B whose columns
    are grouped by outcome, ``sizes[k]`` (possibly 0) for outcome k, which
    projects onto P_k = B_k B_k^H.  Besides labels and shapes, the one check
    is max|B^H B - I| <= ``PROJECTOR_TOL``: with B^H B = I + F and B square,
    P_i P_j = B_i F_ij B_j^H, so every projector identity holds to that order."""

    outcomes: tuple[Outcome, ...]
    basis: np.ndarray
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        labels = self.labels
        try:
            sizes = tuple(map(operator.index, self.sizes))
        except TypeError:
            raise InvalidArgument(f"outcome sizes must be integers: {self.sizes}") from None
        if len(set(labels)) != len(labels):
            raise InvalidArgument(f"outcome labels must be distinct, got {list(labels)}")
        b = np.array(self.basis, dtype=complex)
        if b.ndim != 2 or b.shape[0] != b.shape[1] or not 1 <= len(b) <= DIM_CAP:
            raise InvalidArgument(f"basis must be square, of dimension 1 to {DIM_CAP}: {b.shape}")
        if not labels or len(sizes) != len(labels) or min(sizes) < 0 or sum(sizes) != len(b):
            raise InvalidArgument(f"need a size >= 0 per outcome, summing to {len(b)}: {sizes}")
        gram = np.abs(b.conj().T @ b - np.eye(len(b)))
        if not gram.max() <= PROJECTOR_TOL:  # a NaN fails too
            worst = np.unravel_index(np.argmax(gram), gram.shape)
            i, j = sorted(np.searchsorted(np.cumsum(sizes), worst, side="right").tolist())
            raise InvalidArgument(f"projectors {i} and {j} are not orthogonal" if i != j
                                  else f"projector {i} is not idempotent")
        object.__setattr__(self, "basis", hilbert._readonly(b))
        object.__setattr__(self, "sizes", sizes)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(o.label for o in self.outcomes)

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """Each outcome's basis columns B_k, in outcome order (views of ``basis``)."""
        ends = accumulate(self.sizes)
        return tuple(self.basis[:, end - size:end] for size, end in zip(self.sizes, ends))

    @property
    def projectors(self) -> tuple[Operator, ...]:
        """Every P_k = B_k B_k^H, rebuilt on each read: a PVM keeps only its basis."""
        return tuple(Operator(b @ b.conj().T) for b in self.blocks)


def pvm_from_operator(O: Operator) -> Pvm:
    """Spectral PVM of a hermitian operator; outcomes carry the eigenvalues.

    Degenerate eigenvalues are merged (see ``spectral_decomposition``), so one
    outcome per distinct eigenvalue.
    """
    values, basis, sizes = hilbert.spectral_decomposition(O)
    return Pvm(tuple(Outcome(f"{v:+.12g}", v) for v in values), basis, sizes)


def binary_pvm(p: Operator) -> Pvm:
    """Two-outcome PVM {p, 1-p} with outcomes ``SIGNS``: one ``eigh`` of p,
    whose eigenvalues above 0.5 span the + block.  ``eigh`` reads one
    triangle, so p must pass p^H = p as well as p = B_+ B_+^H."""
    m = p.entries
    values, vectors = np.linalg.eigh(m)
    rank = int(np.count_nonzero(values > 0.5))
    b = vectors[:, len(m) - rank:]  # B_+: eigh sorts ascending
    if not max(np.abs(m - m.conj().T).max(), np.abs(m - b @ b.conj().T).max()) <= PROJECTOR_TOL:
        raise InvalidArgument("binary_pvm needs a projector, p^H = p = p p")
    return Pvm(SIGNS, vectors[:, ::-1], (rank, p.dim - rank))


def all_probabilities(m: Pvm, psi: StateVector) -> tuple[float, ...]:
    """Born probability ||B_k^H psi||^2 of every outcome, in outcome order."""
    if m.dim != psi.dim:
        raise DimensionMismatch(f"pvm dim {m.dim}, state dim {psi.dim}")
    owners = np.repeat(np.arange(len(m.sizes)), m.sizes)
    weights = np.abs(m.basis.conj().T @ psi.amplitudes) ** 2
    return tuple(np.bincount(owners, weights, len(m.sizes)).tolist())
