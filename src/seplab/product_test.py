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

from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import measurement
from .bipartite import BipartiteSpace, embed_left, embed_right
from .errors import DimensionMismatch, SeplabError, UnknownTest
from .hilbert import SIGMA_X, SIGMA_Y, SIGMA_Z, StateVector
from .measurement import pvm_from_operator

CERTAINTY_TOL = 1e-12


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
                total = sum(b.probability for b in branches)
                if abs(total - 1.0) > 1e-12:
                    raise ValueError(
                        f"test {test!r} on state {state!r} sums to {total}"
                    )

    @property
    def states(self) -> frozenset[str]:
        found = {self.current}
        for by_state in self.tests.values():
            found.update(by_state)
            for branches in by_state.values():
                found.update(b.next_state for b in branches)
        return frozenset(found)

    def branches(self, test: str) -> tuple[Branch, ...]:
        if test not in self.tests:
            raise UnknownTest(f"{self.name} has no test {test!r}")
        by_state = self.tests[test]
        if self.current not in by_state:
            raise UnknownTest(
                f"test {test!r} undefined on state {self.current!r} of {self.name}"
            )
        return by_state[self.current]

    def copy(self) -> "TestableEntity":
        return replace(self)


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
    actual = all(b.positive for b in branches if b.probability > CERTAINTY_TOL)
    return PropertyCertificate((test,), actual, method="direct")


def product_test(
    entity: TestableEntity, tests: Sequence[str], rng: np.random.Generator
) -> ProductTestResult:
    """Select one of the tests uniformly at random and execute it once,
    transitioning the entity.  A single-entry list degenerates to direct
    execution."""
    if len(tests) < 1:
        raise ValueError("product test needs at least one constituent test")
    selected = tests[int(rng.integers(len(tests)))]
    branches = entity.branches(selected)
    u = rng.random()
    acc = 0.0
    chosen = branches[-1]
    for b in branches:
        acc += b.probability
        if u < acc:
            chosen = b
            break
    entity.current = chosen.next_state
    return ProductTestResult(selected, chosen.positive, chosen.next_state)


def meet_actual(
    entity: TestableEntity,
    tests: Sequence[str],
    trials: int,
    rng: np.random.Generator,
) -> PropertyCertificate:
    """Certify the meet of the named properties via the product test.

    The verdict is the conjunction of the individual certifications; the
    trials execute the product test on fresh copies and double-check the
    equivalence (a positive verdict with any failing trial is a corpus bug
    and raises).
    """
    actual = all(is_actual(entity, t).actual for t in tests)
    positives = 0
    for _ in range(trials):
        result = product_test(entity.copy(), tests, rng)
        positives += int(result.positive)
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
        raise ValueError(f"unknown cube state {state!r}")
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

    Per trial: pick an observable name uniformly at random, measure it on
    side B (with collapse), predict side A's outcome as the argmax of the
    exact conditional distribution given the B result (ties break to the
    first outcome in PVM order), then measure A and score a hit iff the
    prediction came true.  ``min_confidence`` is the smallest argmax
    conditional probability encountered; it equals 1 exactly when every
    prediction was certain in advance.
    """
    if rng is None:
        raise ValueError("pass an explicit numpy Generator")
    if psi.dim != 4:
        raise DimensionMismatch(f"need a qubit pair (dim 4), got dim {psi.dim}")
    if not observables:
        raise ValueError("need at least one observable name")
    space = BipartiteSpace(2, 2)

    # Collapse outcomes and conditionals depend only on (observable, B result),
    # so precompute them once per observable with the measurement-module path.
    plans = []
    for name in observables:
        if name not in QUBIT_OBSERVABLES:
            raise UnknownTest(f"no qubit observable named {name!r}")
        pvm = pvm_from_operator(QUBIT_OBSERVABLES[name])
        side_b = embed_right(pvm, space)
        side_a = embed_left(pvm, space)
        b_probs = list(measurement.all_probabilities(side_b, psi))
        branches = []
        for k, outcome_b in enumerate(side_b.outcomes):
            if b_probs[k] <= 1e-12:
                # Skipped branches get no weight, so the draw never lands on one.
                b_probs[k] = 0.0
                branches.append(None)
                continue
            post = measurement.collapse(side_b, psi, outcome_b)
            cond = measurement.all_probabilities(side_a, post)
            predicted = int(np.argmax(cond))
            branches.append((cond, predicted, float(cond[predicted])))
        last = max(k for k, branch in enumerate(branches) if branch is not None)
        plans.append((name, b_probs, branches, last))

    hits = 0
    per_obs = {name: {"trials": 0, "hits": 0} for name in observables}
    min_confidence = 1.0
    for _ in range(trials):
        name, b_probs, branches, last = plans[int(rng.integers(len(plans)))]
        u = rng.random() * sum(b_probs)
        acc, pick = 0.0, last
        for k, p in enumerate(b_probs):
            acc += p
            if u < acc:
                pick = k
                break
        cond, predicted, confidence = branches[pick]
        min_confidence = min(min_confidence, confidence)
        u = rng.random()
        acc, measured = 0.0, len(cond) - 1
        for k, p in enumerate(cond):
            acc += p
            if u < acc:
                measured = k
                break
        hit = measured == predicted
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
