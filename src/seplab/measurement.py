"""Projection-valued measures and Born probabilities.

A ``Pvm`` assigns one orthogonal projector per outcome, with the family
summing to the identity.  Outcome labels optionally carry a real value so
that +/-1-valued observables support correlation arithmetic downstream.
Joint tables of two measurements are computed in ``bipartite``; nothing here
draws outcomes or collapses states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import hilbert
from .errors import DimensionMismatch, InvalidArgument, UnknownOutcome
from .hilbert import PROJECTOR_TOL, Operator, StateVector


@dataclass(frozen=True)
class Outcome:
    """Measurement outcome: a printable label plus an optional real value."""

    label: str
    value: float | None = None

    def __str__(self) -> str:
        return self.label


OutcomeLike = Union[Outcome, str]


@dataclass(frozen=True)
class OutcomeSet:
    """Finite ordered set of distinct outcomes."""

    outcomes: tuple[Outcome, ...]

    def __post_init__(self) -> None:
        labels = [o.label for o in self.outcomes]
        if len(set(labels)) != len(labels):
            raise InvalidArgument(f"outcome labels must be distinct, got {labels}")

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(o.label for o in self.outcomes)

    def index(self, x: OutcomeLike) -> int:
        label = x.label if isinstance(x, Outcome) else x
        for k, o in enumerate(self.outcomes):
            if o.label == label:
                return k
        raise UnknownOutcome(f"outcome {label!r} not in {self.labels}")


@dataclass(frozen=True, eq=False)
class Pvm:
    """Projection-valued measure: one orthogonal projector per outcome.

    Construction validates the projector property of each element, mutual
    orthogonality, and completeness (sum equals the identity), all within
    ``PROJECTOR_TOL``.
    """

    outcomes: OutcomeSet
    projectors: tuple[Operator, ...]

    def __post_init__(self) -> None:
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

    def projector_for(self, x: OutcomeLike) -> Operator:
        return self.projectors[self.outcomes.index(x)]


def pvm_from_operator(O: Operator) -> Pvm:
    """Spectral PVM of a hermitian operator; outcomes carry the eigenvalues.

    Degenerate eigenvalues are merged (see ``spectral_decomposition``), so one
    outcome per distinct eigenvalue.
    """
    dec = hilbert.spectral_decomposition(O)
    outcomes = tuple(Outcome(f"{v:+.12g}", v) for v, _ in dec.pairs)
    return Pvm(OutcomeSet(outcomes), dec.projectors)


def binary_pvm(p: Operator, labels: tuple[str, str] = ("+", "-")) -> Pvm:
    """Two-outcome PVM {p, 1-p}; first label fires on the range of p."""
    complement = Operator(np.eye(p.dim) - p.entries)
    outcomes = OutcomeSet((Outcome(labels[0], +1.0), Outcome(labels[1], -1.0)))
    return Pvm(outcomes, (p, complement))


def born_probability(m: Pvm, psi: StateVector, x: OutcomeLike) -> float:
    """||P_x psi||^2."""
    if m.dim != psi.dim:
        raise DimensionMismatch(f"pvm dim {m.dim}, state dim {psi.dim}")
    projected = m.projector_for(x).entries @ psi.amplitudes
    return float(np.real(np.vdot(projected, projected)))


def all_probabilities(m: Pvm, psi: StateVector) -> tuple[float, ...]:
    return tuple(born_probability(m, psi, o) for o in m.outcomes)
