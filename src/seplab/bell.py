"""Correlation functions and CHSH evaluation over coincidence experiments.

A coincidence experiment is anything with two stations, a finite list of
settings per station, and +/-1 outcomes per trial.  Every model, quantum
state or macroscopic classical experiment, is given by one thing: its exact
joint distribution over the four outcome pairs for each setting pair.  The
exact CHSH value, the sampled CHSH value and the no-signalling residual are
all read from those tables, so one evaluator demarcates every model and one
sampler serves them all: the counts of n i.i.d. outcome pairs are a single
multinomial draw from the cell's table.  The sign convention is fixed
project-wide:

    S = E(1,1) + E(1,2) + E(2,1) - E(2,2)

(1-based setting indices; the minus sits on the last cell).  Reports compare
|S| against the classical bound 2, the quantum bound 2*sqrt(2), and the
algebraic bound 4, so the convention never changes a verdict.  With this
convention the singlet maximizer used as default is A in {0, pi/2},
B in {pi/4, -pi/4}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bipartite import joint_measurement
from .errors import BadSpectrum, DimensionMismatch, MissingDistribution, NotHermitian
from .hilbert import SIGMA_X, SIGMA_Z, Operator, StateVector, tensor_op
from .measurement import pvm_from_operator

CHSH_CONVENTION = "S = E(1,1) + E(1,2) + E(2,1) - E(2,2)"
CLASSICAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
ALGEBRAIC_BOUND = 4.0

# Default singlet-optimal settings under the convention above.
DEFAULT_ANGLES_A = (0.0, math.pi / 2)
DEFAULT_ANGLES_B = (math.pi / 4, -math.pi / 4)

Pair = tuple[int, int]
Distribution = dict[Pair, float]

_OUTCOME_PAIRS: tuple[Pair, ...] = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))
_PAIR_PRODUCTS = np.array([a * b for a, b in _OUTCOME_PAIRS])


class CoincidenceModel:
    """Two-station experiment: setting pair in, (+/-1, +/-1) out.

    A model is its table: ``exact_distribution(i, j)`` gives the probability
    of each outcome pair for setting pair (i, j); a pair it leaves out has
    probability 0.  A model without a table returns None, and every CHSH
    evaluation of it raises ``MissingDistribution``.
    """

    settings_a: Sequence[object] = ()
    settings_b: Sequence[object] = ()

    def exact_distribution(self, i: int, j: int) -> Distribution | None:
        return None


def _table(model: CoincidenceModel, i: int, j: int) -> Distribution:
    dist = model.exact_distribution(i, j)
    if dist is None:
        raise MissingDistribution(f"no exact distribution for cell ({i}, {j})")
    return dist


@dataclass(frozen=True)
class ChshReport:
    """2x2 correlation table plus the CHSH combination and bound comparisons."""

    e_table: tuple[tuple[float, float], tuple[float, float]]
    s: float
    convention: str = CHSH_CONVENTION
    bounds: dict[str, float] = field(
        default_factory=lambda: {
            "classical": CLASSICAL_BOUND,
            "tsirelson": TSIRELSON_BOUND,
            "algebraic": ALGEBRAIC_BOUND,
        }
    )
    samples_per_cell: int | None = None
    stderr: tuple[tuple[float, float], tuple[float, float]] | None = None

    @property
    def violates_classical(self) -> bool:
        return abs(self.s) > CLASSICAL_BOUND

    @property
    def violates_tsirelson(self) -> bool:
        return abs(self.s) > TSIRELSON_BOUND


def chsh_combination(e: Sequence[Sequence[float]]) -> float:
    return e[0][0] + e[0][1] + e[1][0] - e[1][1]


def spin_observable(theta: float) -> Operator:
    """+/-1-valued qubit observable at angle theta in the z-x plane:
    cos(theta) sigma_z + sin(theta) sigma_x."""
    return Operator(
        math.cos(theta) * SIGMA_Z.entries + math.sin(theta) * SIGMA_X.entries
    )


def _check_pm1_spectrum(O: Operator, tol: float = 1e-9) -> None:
    if not O.is_hermitian():
        raise NotHermitian("observable must be hermitian")
    values = np.linalg.eigvalsh(O.entries)
    if float(np.abs(np.abs(values) - 1.0).max()) > tol:
        raise BadSpectrum(f"eigenvalues {values} are not +/-1")


def expectation(psi: StateVector, A: Operator, B: Operator) -> float:
    """<psi| A (x) B |psi> for +/-1-valued observables A and B."""
    _check_pm1_spectrum(A)
    _check_pm1_spectrum(B)
    joint = tensor_op(A, B)
    if joint.dim != psi.dim:
        raise DimensionMismatch(f"A(x)B dim {joint.dim}, state dim {psi.dim}")
    value = np.vdot(psi.amplitudes, joint.entries @ psi.amplitudes)
    return float(value.real)


class QuantumCoincidenceModel(CoincidenceModel):
    """Coincidence experiment on a two-qubit state with spin settings given
    as angles in the z-x plane; each cell's table is the joint measurement's
    Born probability table."""

    def __init__(
        self,
        psi: StateVector,
        settings_a: Sequence[float],
        settings_b: Sequence[float],
    ):
        if psi.dim != 4:
            raise DimensionMismatch(f"need a qubit pair (dim 4), got dim {psi.dim}")
        self.psi = psi
        self.settings_a = tuple(float(t) for t in settings_a)
        self.settings_b = tuple(float(t) for t in settings_b)
        pvms_a = [pvm_from_operator(spin_observable(t)) for t in self.settings_a]
        pvms_b = [pvm_from_operator(spin_observable(t)) for t in self.settings_b]
        self._joints = {
            (i, j): joint_measurement(ma, mb)
            for i, ma in enumerate(pvms_a)
            for j, mb in enumerate(pvms_b)
        }

    def exact_distribution(self, i: int, j: int) -> Distribution:
        joint = self._joints[(i, j)]
        table = joint.probability_table(self.psi)
        return {
            (int(round(x.value)), int(round(y.value))): table[(x.label, y.label)]
            for x, y in joint.couples
        }


def quantum_coincidence_model(
    psi: StateVector,
    settings_a: Sequence[float],
    settings_b: Sequence[float],
) -> QuantumCoincidenceModel:
    return QuantumCoincidenceModel(psi, settings_a, settings_b)


def _require_2x2(model: CoincidenceModel) -> None:
    if len(model.settings_a) != 2 or len(model.settings_b) != 2:
        raise ValueError("CHSH needs exactly 2 settings per side")


def correlation_from_distribution(dist: Distribution) -> float:
    return sum(a * b * p for (a, b), p in dist.items())


def chsh_exact(model: CoincidenceModel) -> ChshReport:
    """CHSH from the model's exact joint distributions."""
    _require_2x2(model)
    e = [
        [correlation_from_distribution(_table(model, i, j)) for j in range(2)]
        for i in range(2)
    ]
    e_table = (tuple(e[0]), tuple(e[1]))
    return ChshReport(e_table=e_table, s=chsh_combination(e))


def chsh_sampled(model: CoincidenceModel, n: int, rng: np.random.Generator) -> ChshReport:
    """CHSH from n Monte Carlo trials per cell.

    A cell's n trials are i.i.d. draws from its exact table, so their
    outcome-pair counts are one multinomial draw: cost and memory do not
    depend on n.  Table entries are clipped at 0 and renormalized, which
    absorbs rounding-level negatives.  Each cell gets its own child generator
    (spawned in row-major cell order), so estimates do not depend on
    evaluation order and the whole report is deterministic given the parent
    generator's seed.  E = (n++ + n-- - n+- - n-+)/n, and the per-cell
    standard error is sqrt((1 - E^2)/n).
    """
    if n < 1:
        raise ValueError("need at least one sample per cell")
    _require_2x2(model)
    streams = rng.spawn(4)
    e = [[0.0, 0.0], [0.0, 0.0]]
    se = [[0.0, 0.0], [0.0, 0.0]]
    for i in range(2):
        for j in range(2):
            dist = _table(model, i, j)
            probs = np.array([max(dist.get(pair, 0.0), 0.0) for pair in _OUTCOME_PAIRS])
            counts = streams[2 * i + j].multinomial(n, probs / probs.sum())
            est = int(counts @ _PAIR_PRODUCTS) / n
            e[i][j] = est
            se[i][j] = math.sqrt(max(1.0 - est * est, 0.0) / n)
    return ChshReport(
        e_table=(tuple(e[0]), tuple(e[1])),
        s=chsh_combination(e),
        samples_per_cell=n,
        stderr=(tuple(se[0]), tuple(se[1])),
    )


def no_signaling_residual(model: CoincidenceModel) -> float:
    """Largest shift of a one-side marginal when the other side's setting
    changes, computed from the exact distributions."""
    rows = range(len(model.settings_a))
    cols = range(len(model.settings_b))
    tables = {(i, j): _table(model, i, j) for i in rows for j in cols}

    def marg_a(i: int, j: int, a: int) -> float:
        return sum(p for (x, _), p in tables[(i, j)].items() if x == a)

    def marg_b(i: int, j: int, b: int) -> float:
        return sum(p for (_, y), p in tables[(i, j)].items() if y == b)

    worst = 0.0
    for i in rows:
        for a in (+1, -1):
            vals = [marg_a(i, j, a) for j in cols]
            worst = max(worst, max(vals) - min(vals))
    for j in cols:
        for b in (+1, -1):
            vals = [marg_b(i, j, b) for i in rows]
            worst = max(worst, max(vals) - min(vals))
    return worst
