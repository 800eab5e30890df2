"""Correlation functions and CHSH evaluation over coincidence experiments.

A coincidence experiment is anything with two stations, a finite list of
settings per station, and +/-1 outcomes per trial.  Every model, quantum
state or macroscopic classical experiment, is one value: ``settings_a``,
``settings_b`` and ``tables``, where ``tables[i, j, a, b]`` is the exact
probability of outcome pair (a, b) for setting pair (i, j) and index 0 is the
outcome +1, index 1 the outcome -1.  The exact CHSH value, the sampled CHSH
value and the no-signalling residual are all read from that array, so one
evaluator demarcates every model and one sampler serves them all: the counts
of n i.i.d. outcome pairs are a single multinomial draw from the cell's
table.  The sign convention is fixed project-wide:

    S = E(1,1) + E(1,2) + E(2,1) - E(2,2)

(1-based setting indices; the minus sits on the last cell).  Reports compare
|S| against the classical bound 2, the quantum bound 2*sqrt(2), and the
algebraic bound 4, so flipping the overall sign (S -> -S) never changes a
verdict.  Which cell carries the minus can: with B's two default angles
swapped the singlet reads |S| = 0 here, yet 2*sqrt(2) with the minus on
E(2,1) (ROADMAP item 11).  With this convention the singlet maximizer used
as default is A in {0, pi/2}, B in {pi/4, -pi/4}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bipartite import joint_measurement
from .errors import InvalidArgument
from .hilbert import CHSH_BOUND_MARGIN, PROBABILITY_TOL
from .hilbert import SIGMA_X, SIGMA_Z, Operator, StateVector
from .measurement import SIGNS, Pvm

CHSH_CONVENTION = "S = E(1,1) + E(1,2) + E(2,1) - E(2,2)"
CLASSICAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
ALGEBRAIC_BOUND = 4.0
BOUNDS = {"classical": CLASSICAL_BOUND, "tsirelson": TSIRELSON_BOUND, "algebraic": ALGEBRAIC_BOUND}

# Default singlet-optimal settings under the convention above.
DEFAULT_ANGLES_A = (0.0, math.pi / 2)
DEFAULT_ANGLES_B = (math.pi / 4, -math.pi / 4)

# a * b for the outcome pairs in ``tables[i, j].ravel()`` order: ++, +-, -+, --;
# integers, so that ``counts @ _PAIR_PRODUCTS`` is exact for any count < 2**63
_PAIR_PRODUCTS = np.array([1, -1, -1, 1])


@dataclass(frozen=True, eq=False)
class CoincidenceModel:
    """Two-station experiment: setting pair in, (+/-1, +/-1) out.

    A model is its table: ``tables[i, j, a, b]`` is the probability of
    outcome pair (a, b) for setting pair (i, j), with index 0 the outcome +1
    and index 1 the outcome -1.  The array is a read-only float copy of the
    one passed in; each cell is a distribution to within ``PROBABILITY_TOL``.
    """

    settings_a: tuple[object, ...]
    settings_b: tuple[object, ...]
    tables: np.ndarray

    def __post_init__(self) -> None:
        for name in ("settings_a", "settings_b"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        tables = np.array(self.tables, dtype=float)
        if not self.settings_a or not self.settings_b:
            raise InvalidArgument("need at least one setting per side")
        shape = (len(self.settings_a), len(self.settings_b), 2, 2)
        if tables.shape != shape:
            raise InvalidArgument(f"tables have shape {tables.shape}, the settings need {shape}")
        if not np.isfinite(tables).all():
            raise InvalidArgument("table entries must be finite")
        sums = tables.sum(axis=(2, 3))
        if (tables < -PROBABILITY_TOL).any() or (abs(sums - 1.0) > PROBABILITY_TOL).any():
            raise InvalidArgument("each cell's table must be a probability distribution")
        tables.flags.writeable = False
        object.__setattr__(self, "tables", tables)


@dataclass(frozen=True)
class ChshReport:
    """2x2 correlation table plus the CHSH combination and bound comparisons;
    |S| violates a bound when it exceeds it by more than ``CHSH_BOUND_MARGIN``."""

    e_table: tuple[tuple[float, float], tuple[float, float]]
    s: float
    samples_per_cell: int | None = None
    stderr: tuple[tuple[float, float], tuple[float, float]] | None = None

    @property
    def violates_classical(self) -> bool:
        return abs(self.s) > CLASSICAL_BOUND + CHSH_BOUND_MARGIN

    @property
    def violates_tsirelson(self) -> bool:
        return abs(self.s) > TSIRELSON_BOUND + CHSH_BOUND_MARGIN


def chsh_combination(e: Sequence[Sequence[float]]) -> float:
    return e[0][0] + e[0][1] + e[1][0] - e[1][1]


def spin_observable(theta: float) -> Operator:
    """+/-1-valued qubit observable at angle theta in the z-x plane:
    cos(theta) sigma_z + sin(theta) sigma_x."""
    return Operator(
        math.cos(theta) * SIGMA_Z.entries + math.sin(theta) * SIGMA_X.entries
    )


def _spin_pvm(theta: float) -> Pvm:
    """PVM of ``spin_observable(theta)`` in closed form, + first: the +1
    eigenvector is (cos theta/2, sin theta/2), the -1 eigenvector
    (-sin theta/2, cos theta/2)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return Pvm(SIGNS, np.array([[c, -s], [s, c]]), (1, 1))


def quantum_coincidence_model(
    psi: StateVector,
    settings_a: Sequence[float],
    settings_b: Sequence[float],
) -> CoincidenceModel:
    """Coincidence experiment on a two-qubit state with spin settings given
    as angles in the z-x plane.  Each setting's PVM is the closed-form
    eigenbasis of cos(theta) sigma_z + sin(theta) sigma_x (``_spin_pvm``, +1
    first), so no eigendecomposition runs; each cell's table is the joint
    measurement's Born probability table, which raises DimensionMismatch
    unless psi is a qubit pair."""
    settings_a = tuple(float(t) for t in settings_a)
    settings_b = tuple(float(t) for t in settings_b)
    pvms_a = [_spin_pvm(t) for t in settings_a]
    pvms_b = [_spin_pvm(t) for t in settings_b]
    tables = [[joint_measurement(ma, mb).table(psi) for mb in pvms_b] for ma in pvms_a]
    return CoincidenceModel(settings_a, settings_b, tables)


def _require_2x2(model: CoincidenceModel) -> None:
    if len(model.settings_a) != 2 or len(model.settings_b) != 2:
        raise InvalidArgument("CHSH needs exactly 2 settings per side")


def correlation(tables: np.ndarray) -> np.ndarray | float:
    """E = P(+,+) - P(+,-) - P(-,+) + P(-,-) over the last two axes: a float
    for one cell's 2x2 table, an (A, B) array for a model's ``tables``.  The
    terms are added from the (-1, -1) corner, in ascending outcome order."""
    t = np.asarray(tables)
    return ((t[..., 1, 1] - t[..., 1, 0]) - t[..., 0, 1]) + t[..., 0, 0]


def chsh_exact(model: CoincidenceModel) -> ChshReport:
    """CHSH from the model's exact tables."""
    _require_2x2(model)
    e = correlation(model.tables).tolist()
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
        raise InvalidArgument("need at least one sample per cell")
    _require_2x2(model)
    e, se = [], []
    # one row per cell, in row-major cell order; columns ++, +-, -+, --
    for stream, probs in zip(rng.spawn(4), np.maximum(model.tables, 0.0).reshape(4, 4)):
        est = int(stream.multinomial(n, probs / probs.sum()) @ _PAIR_PRODUCTS) / n
        e.append(est)
        se.append(math.sqrt(max(1.0 - est * est, 0.0) / n))
    return ChshReport(
        e_table=(tuple(e[:2]), tuple(e[2:])),
        s=chsh_combination((e[:2], e[2:])),
        samples_per_cell=n,
        stderr=(tuple(se[:2]), tuple(se[2:])),
    )


def no_signaling_residual(model: CoincidenceModel) -> float:
    """Largest shift of a one-side marginal when the other side's setting
    changes, computed from the exact tables."""
    marginals_a = model.tables.sum(axis=3)  # [i, j, a]: varies with j iff signalling
    marginals_b = model.tables.sum(axis=2)  # [i, j, b]: varies with i iff signalling
    return float(max(np.ptp(marginals_a, axis=1).max(), np.ptp(marginals_b, axis=0).max()))
