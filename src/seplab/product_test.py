"""Operational property tests, meet certification, and the prediction protocol.

An entity is a little stochastic machine: executing a named test on it draws
a (positive/negative, next state) branch and transitions it, possibly
destructively.  A property is *actual* when the positive outcome is certain
in advance, which is decided by inspecting the branch distribution without
executing anything.  The meet of several properties is certified by the
product test: pick one constituent test uniformly at random and execute it;
the positive outcome is certain iff every constituent is individually
certain.

The prediction protocol plays the same certification game on a qubit pair:
per trial, pick one of two incompatible observables at random, measure it on
station B, predict station A's outcome from the exact conditional
distribution, then measure A and score the prediction.  On a maximally
correlated state the prediction is certain for both observables, so the hit
rate is exactly 1 for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .bipartite import joint_measurement
from .errors import DimensionMismatch, InvalidArgument, SeplabError, UnknownTest
from .hilbert import PROBABILITY_TOL, SIGMA_X, SIGMA_Y, SIGMA_Z, StateVector
from .measurement import pvm_from_operator


@dataclass(frozen=True)
class Branch:
    probability: float
    positive: bool
    next_state: str


# test name -> current state -> branch distribution
TestTable = Mapping[str, Mapping[str, tuple[Branch, ...]]]


@dataclass
class TestableEntity:
    """Mutable state machine with named, possibly destructive tests."""

    __test__ = False  # not a pytest case, despite the name

    name: str
    current: str
    tests: TestTable

    def __post_init__(self) -> None:
        for test, by_state in self.tests.items():
            for state, branches in by_state.items():
                if any(b.probability < -PROBABILITY_TOL for b in branches):
                    raise InvalidArgument(f"test {test!r} on state {state!r} has a branch below 0")
                total = sum(b.probability for b in branches)
                if abs(total - 1.0) > PROBABILITY_TOL:
                    raise InvalidArgument(
                        f"test {test!r} on state {state!r} sums to {total}"
                    )

    def branches(self, test: str) -> tuple[Branch, ...]:
        if test not in self.tests:
            raise UnknownTest(f"{self.name} has no test {test!r}")
        by_state = self.tests[test]
        if self.current not in by_state:
            raise UnknownTest(
                f"test {test!r} undefined on state {self.current!r} of {self.name}"
            )
        return by_state[self.current]


@dataclass(frozen=True)
class PropertyCertificate:
    properties: tuple[str, ...]
    actual: bool
    method: str  # "direct" or "product-test"
    trials: int = 0
    positives: int = 0


class ProductTestResult(NamedTuple):
    selected: str
    positive: bool
    state: str


def is_actual(entity: TestableEntity, test: str) -> PropertyCertificate:
    """Certify one property by inspection: actual iff every branch with
    positive probability is positive.  Never transitions the entity; the
    certification is counterfactual."""
    branches = entity.branches(test)
    actual = all(b.positive for b in branches if b.probability > PROBABILITY_TOL)
    return PropertyCertificate((test,), actual, method="direct")


def _pick(weights: Sequence[float], u: float) -> int:
    """Inverse-CDF draw: the first index whose running sum of ``weights``
    exceeds ``u``, else the last index."""
    acc = 0.0
    for k, w in enumerate(weights):
        acc += w
        if u < acc:
            return k
    return len(weights) - 1


def _require_tests(tests: Sequence[str]) -> None:
    if len(tests) < 1:
        raise InvalidArgument("product test needs at least one constituent test")


def _draw(
    entity: TestableEntity, tests: Sequence[str], rng: np.random.Generator
) -> tuple[str, Branch]:
    """One product-test draw on the entity's current state: a constituent
    test chosen uniformly at random, then one of its branches.  The entity
    does not move."""
    selected = tests[int(rng.integers(len(tests)))]
    branches = entity.branches(selected)
    return selected, branches[_pick([b.probability for b in branches], rng.random())]


def product_test(
    entity: TestableEntity, tests: Sequence[str], rng: np.random.Generator
) -> ProductTestResult:
    """Select one of the tests uniformly at random and execute it once,
    transitioning the entity.  A single-entry list degenerates to direct
    execution."""
    _require_tests(tests)
    selected, chosen = _draw(entity, tests, rng)
    entity.current = chosen.next_state
    return ProductTestResult(selected, chosen.positive, chosen.next_state)


def meet_actual(
    entity: TestableEntity,
    tests: Sequence[str],
    trials: int,
    rng: np.random.Generator,
) -> PropertyCertificate:
    """Certify the meet of the named properties via the product test.

    The verdict is the conjunction of the individual certifications; every
    trial draws the product test on the entity's current state, which no
    trial moves, and double-checks the equivalence (a positive verdict with
    any failing trial is a corpus bug and raises).
    """
    _require_tests(tests)
    actual = all(is_actual(entity, t).actual for t in tests)
    positives = sum(_draw(entity, tests, rng)[1].positive for _ in range(trials))
    if actual and positives != trials:
        raise SeplabError(
            f"corpus bug: {entity.name}: {list(tests)} actual, {trials - positives} trials failed"
        )
    return PropertyCertificate(
        tuple(tests), actual, method="product-test", trials=trials, positives=positives
    )


# ---------------------------------------------------------------------------
# entity corpus

_CUBE_TESTS: TestTable = {
    "burn": {
        "intact": (Branch(1.0, True, "burned"),),
        "wet": (Branch(1.0, False, "wet"),),
        "burned": (Branch(1.0, False, "burned"),),
    },
    "float": {
        "intact": (Branch(1.0, True, "wet"),),
        "wet": (Branch(1.0, True, "wet"),),
        "burned": (Branch(1.0, False, "burned"),),
    },
}


def wooden_cube(state: str = "intact") -> TestableEntity:
    """The wooden cube: burnable and floatable while intact, with mutually
    destructive tests (burning ends floatability, wetting ends burnability)."""
    if state not in ("intact", "wet", "burned"):
        raise InvalidArgument(f"unknown cube state {state!r}")
    return TestableEntity("wooden-cube", state, _CUBE_TESTS)


def flaky_entity(p_second: float = 0.5) -> TestableEntity:
    """Two-test entity whose first test is certain and second succeeds with
    probability ``p_second``; the meet is never actual for p_second < 1 and
    product-test trials fail with frequency (1 - p_second) / 2."""
    tests: TestTable = {
        "t1": {"ready": (Branch(1.0, True, "spent"),)},
        "t2": {
            "ready": (
                Branch(p_second, True, "spent"),
                Branch(1.0 - p_second, False, "spent"),
            )
        },
    }
    return TestableEntity("flaky", "ready", tests)


ENTITY_CORPUS = {
    "cube-intact": lambda: wooden_cube("intact"),
    "cube-wet": lambda: wooden_cube("wet"),
    "cube-burned": lambda: wooden_cube("burned"),
    "flaky": flaky_entity,
}


# ---------------------------------------------------------------------------
# prediction protocol on a qubit pair

QUBIT_OBSERVABLES = {
    "Z": SIGMA_Z,
    "X": SIGMA_X,
    "Y": SIGMA_Y,
}


@dataclass(frozen=True)
class EprReport:
    """Scorecard of the measure-on-B-predict-A protocol."""

    trials: int
    hits: int
    hit_rate: float
    per_observable: dict[str, dict[str, float]]
    min_confidence: float


def epr_protocol(
    psi: StateVector,
    observables: Sequence[str] = ("Z", "X"),
    trials: int = 10_000,
    rng: np.random.Generator | None = None,
) -> EprReport:
    """Run the prediction protocol on a two-qubit state.

    Per trial: pick an observable name uniformly at random, draw side B's
    outcome from the exact joint table of that observable on both sides,
    predict side A's outcome as the argmax of the exact conditional
    distribution given the B result (ties break to the first outcome in PVM
    order), then draw A from that conditional and score a hit iff the
    prediction came true.  ``min_confidence`` is the smallest argmax
    conditional probability encountered; it equals 1 exactly when every
    prediction was certain in advance.
    """
    if rng is None:
        raise InvalidArgument("pass an explicit numpy Generator")
    if psi.dim != 4:
        raise DimensionMismatch(f"need a qubit pair (dim 4), got dim {psi.dim}")
    if not observables:
        raise InvalidArgument("need at least one observable name")
    # Per observable, the exact (A outcome, B outcome) table fixes everything
    # a trial needs: each possible B outcome's weight, and the conditional
    # distribution of A given it with its argmax prediction and confidence.
    plans = []
    for name in observables:
        if name not in QUBIT_OBSERVABLES:
            raise UnknownTest(f"no qubit observable named {name!r}")
        pvm = pvm_from_operator(QUBIT_OBSERVABLES[name])
        weights, branches = [], []
        for column in joint_measurement(pvm, pvm).table(psi).T:
            weight = float(column.sum())
            if weight <= PROBABILITY_TOL:
                continue  # a negligible B outcome is never drawn
            cond = (column / weight).tolist()
            predicted = int(np.argmax(cond))
            weights.append(weight)
            branches.append((cond, predicted, cond[predicted]))
        if not weights:
            raise InvalidArgument(
                f"observable {name}: no B outcome above {PROBABILITY_TOL:g}: "
                "is the state normalized?"
            )
        plans.append((name, weights, sum(weights), branches))

    hits = 0
    per_obs = {name: {"trials": 0, "hits": 0} for name in observables}
    min_confidence = 1.0
    for _ in range(trials):
        name, weights, total, branches = plans[int(rng.integers(len(plans)))]
        cond, predicted, confidence = branches[_pick(weights, rng.random() * total)]
        min_confidence = min(min_confidence, confidence)
        hit = _pick(cond, rng.random()) == predicted
        hits += int(hit)
        per_obs[name]["trials"] += 1
        per_obs[name]["hits"] += int(hit)

    per_observable = {
        name: {
            "trials": stats["trials"],
            "hits": stats["hits"],
            "hit_rate": stats["hits"] / stats["trials"] if stats["trials"] else 0.0,
        }
        for name, stats in per_obs.items()
    }
    return EprReport(
        trials=trials,
        hits=hits,
        hit_rate=hits / trials if trials else 0.0,
        per_observable=per_observable,
        min_confidence=min_confidence,
    )
