"""Projection-valued measures and Born probabilities.

A ``Pvm`` assigns one orthogonal projector per outcome, with the family
summing to the identity.  Its outcomes are a tuple of labelled ``Outcome``
values; a label optionally carries a real value so that +/-1-valued
observables support correlation arithmetic downstream.  ``all_probabilities``
is the Born rule of one PVM; joint tables of two measurements are computed in
``bipartite``.  Nothing here draws outcomes or collapses states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import DimensionMismatch, InvalidArgument
from .hilbert import PROJECTOR_TOL, Operator, StateVector


@dataclass(frozen=True)
class Outcome:
    """Measurement outcome: a printable label plus an optional real value."""

    label: str
    value: float | None = None

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True, eq=False)
class Pvm:
    """Projection-valued measure: one orthogonal projector per outcome.

    Construction validates that the outcome labels are distinct, the
    projector property of each element, mutual orthogonality, and
    completeness (sum equals the identity), all within ``PROJECTOR_TOL``.
    """

    outcomes: tuple[Outcome, ...]
    projectors: tuple[Operator, ...]

    def __post_init__(self) -> None:
        labels = self.labels
        if len(set(labels)) != len(labels):
            raise InvalidArgument(f"outcome labels must be distinct, got {list(labels)}")
        if len(self.outcomes) != len(self.projectors):
            raise InvalidArgument("one projector per outcome required")
        if len(self.projectors) == 0:
            raise InvalidArgument("a measurement needs at least one outcome")
        dim = self.projectors[0].dim
        total = np.zeros((dim, dim), dtype=complex)
        for k, p in enumerate(self.projectors):
            if p.dim != dim:
                raise DimensionMismatch("all projectors must share one dimension")
            if not p.is_projector():
                raise InvalidArgument(f"element {k} fails the projector check")
            total += p.entries
        for i in range(len(self.projectors)):
            for j in range(i + 1, len(self.projectors)):
                cross = self.projectors[i].entries @ self.projectors[j].entries
                if float(np.abs(cross).max()) > PROJECTOR_TOL:
                    raise InvalidArgument(f"projectors {i} and {j} are not orthogonal")
        if float(np.abs(total - np.eye(dim)).max()) > PROJECTOR_TOL:
            raise InvalidArgument("projectors do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.projectors[0].dim

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(o.label for o in self.outcomes)


def pvm_from_operator(O: Operator) -> Pvm:
    """Spectral PVM of a hermitian operator; outcomes carry the eigenvalues.

    Degenerate eigenvalues are merged (see ``spectral_decomposition``), so one
    outcome per distinct eigenvalue.
    """
    values, projectors = zip(*hilbert.spectral_decomposition(O))
    return Pvm(tuple(Outcome(f"{v:+.12g}", v) for v in values), projectors)


def binary_pvm(p: Operator, labels: tuple[str, str] = ("+", "-")) -> Pvm:
    """Two-outcome PVM {p, 1-p}; first label fires on the range of p."""
    complement = Operator(np.eye(p.dim) - p.entries)
    outcomes = (Outcome(labels[0], +1.0), Outcome(labels[1], -1.0))
    return Pvm(outcomes, (p, complement))


def all_probabilities(m: Pvm, psi: StateVector) -> tuple[float, ...]:
    """Born probability ||P_k psi||^2 of every outcome, in outcome order."""
    if m.dim != psi.dim:
        raise DimensionMismatch(f"pvm dim {m.dim}, state dim {psi.dim}")
    projected = (p.entries @ psi.amplitudes for p in m.projectors)
    return tuple(float(np.real(np.vdot(v, v))) for v in projected)
