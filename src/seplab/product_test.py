"""Operational property tests, meet certification, and the prediction protocol.

An entity sits in one state, and each of its named tests comes out positive
on that state with a fixed probability.  A property is *actual* when the
positive outcome is certain in advance, which is read off that probability
without executing anything.  The meet of several properties is certified by
the product test: pick one constituent test uniformly at random and execute
it; the positive outcome is certain iff every constituent is individually
certain.

The prediction protocol plays the same certification game on a qubit pair:
per trial, pick one of the observables at random, measure it on station B,
predict station A's outcome from the exact conditional distribution, then
measure A and score the prediction; the trials' tallies are counted draws
from the exact tables.  On a maximally correlated state the prediction is
certain for every observable, so the hit rate is exactly 1 for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bipartite import joint_measurement
from .errors import InvalidArgument, SeplabError, UnknownTest
from .hilbert import PROBABILITY_TOL, SIGMA_X, SIGMA_Y, SIGMA_Z, StateVector
from .measurement import pvm_from_operator


@dataclass(frozen=True)
class TestableEntity:
    """An entity in one state, with the probability that each named test
    comes out positive on it."""

    __test__ = False  # not a pytest case, despite the name

    name: str
    state: str
    tests: Mapping[str, float]  # test name -> P(positive) on ``state``

    def __post_init__(self) -> None:
        for test, p in self.tests.items():
            # NaN fails both comparisons, so only finite values pass
            if not -PROBABILITY_TOL <= p <= 1.0 + PROBABILITY_TOL:
                raise InvalidArgument(
                    f"test {test!r} on state {self.state!r} is positive with probability {p}"
                )

    def probability(self, test: str) -> float:
        """P(positive) of ``test`` on the entity's state."""
        if test not in self.tests:
            raise UnknownTest(f"{self.name} has no test {test!r}")
        return self.tests[test]


@dataclass(frozen=True)
class PropertyCertificate:
    actual: bool
    trials: int
    positives: int


def is_actual(entity: TestableEntity, test: str) -> bool:
    """Certify one property by inspection: actual iff the positive outcome is
    certain.  Executes nothing; the certification is counterfactual."""
    return entity.probability(test) >= 1.0 - PROBABILITY_TOL


def meet_actual(
    entity: TestableEntity,
    tests: Sequence[str],
    trials: int,
    rng: np.random.Generator,
) -> PropertyCertificate:
    """Certify the meet of the named properties via the product test.

    The verdict is the conjunction of the individual certifications.  Each
    trial draws the product test on the entity's state: a constituent index
    from ``rng.integers``, then ``u = rng.random()``, positive iff ``u`` is
    below that test's probability.  A positive verdict with any failing
    trial is a corpus bug and raises.
    """
    if len(tests) < 1:
        raise InvalidArgument("product test needs at least one constituent test")
    if trials < 1:
        raise InvalidArgument("need at least one trial")
    probabilities = [entity.probability(t) for t in tests]
    actual = all(is_actual(entity, t) for t in tests)
    positives = 0
    for _ in range(trials):
        p = probabilities[int(rng.integers(len(tests)))]  # the index is drawn before u
        positives += rng.random() < p
    if actual and positives != trials:
        raise SeplabError(
            f"corpus bug: {entity.name}: {list(tests)} actual, {trials - positives} trials failed"
        )
    return PropertyCertificate(actual, trials, positives)


# ---------------------------------------------------------------------------
# entity corpus

# The wooden cube's tests are mutually destructive: burning an intact cube
# leaves it burned, where it no longer floats, and floating it leaves it wet,
# where it no longer burns.  No run executes both, which is why the product
# test picks one at random.  state -> test -> P(positive)
_CUBE_TESTS: Mapping[str, Mapping[str, float]] = {
    "intact": {"burn": 1.0, "float": 1.0},
    "wet": {"burn": 0.0, "float": 1.0},
    "burned": {"burn": 0.0, "float": 0.0},
}


def wooden_cube(state: str = "intact") -> TestableEntity:
    """The wooden cube: burnable and floatable while intact."""
    if state not in _CUBE_TESTS:
        raise InvalidArgument(f"unknown cube state {state!r}")
    return TestableEntity("wooden-cube", state, _CUBE_TESTS[state])


def flaky_entity(p_second: float = 0.5) -> TestableEntity:
    """Two-test entity whose first test is certain and second succeeds with
    probability ``p_second``; the meet is never actual for p_second < 1 and
    product-test trials fail with frequency (1 - p_second) / 2."""
    return TestableEntity("flaky", "ready", {"t1": 1.0, "t2": p_second})


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
    prediction came true.  The trials are i.i.d., so their tallies are
    counted draws whose time and memory do not grow with ``trials``: one
    multinomial over the observables, then per observable in order one
    multinomial over its kept B outcomes and one binomial of hits, at the
    argmax confidence, per B outcome drawn at least once.  ``min_confidence``
    is the smallest argmax confidence over the B outcomes drawn; it equals 1
    exactly when every prediction was certain in advance.
    """
    if rng is None:
        raise InvalidArgument("pass an explicit numpy Generator")
    if not observables:
        raise InvalidArgument("need at least one observable name")
    if len(set(observables)) != len(observables):
        raise InvalidArgument(f"observable names must be distinct: {list(observables)}")
    if trials < 1:
        raise InvalidArgument("need at least one trial")
    # Per observable, the exact (A, B) table gives each kept B outcome's
    # weight and the probability that A comes out at its predicted argmax.
    plans = []
    for name in observables:
        if name not in QUBIT_OBSERVABLES:
            raise UnknownTest(f"no qubit observable named {name!r}")
        pvm = pvm_from_operator(QUBIT_OBSERVABLES[name])
        table = joint_measurement(pvm, pvm).table(psi)
        weights = table.sum(axis=0)
        kept = weights > PROBABILITY_TOL  # a negligible B outcome is never drawn
        if not kept.any():
            raise InvalidArgument(
                f"observable {name}: no B outcome above {PROBABILITY_TOL:g}: "
                "is the state normalized?"
            )
        confidences = table.max(axis=0)[kept] / weights[kept]
        plans.append((name, weights[kept] / weights[kept].sum(), confidences))

    hits, per_observable, drawn_confidences = 0, {}, []
    picks = rng.multinomial(trials, [1 / len(plans)] * len(plans)).tolist()
    for (name, weights, confidences), n_obs in zip(plans, picks):
        counts = rng.multinomial(n_obs, weights)
        drawn = counts > 0  # one binomial of hits per B outcome drawn, in order
        obs_hits = int(rng.binomial(counts[drawn], confidences[drawn]).sum())
        drawn_confidences += confidences[drawn].tolist()
        hits += obs_hits
        per_observable[name] = {
            "trials": n_obs,
            "hits": obs_hits,
            "hit_rate": obs_hits / n_obs if n_obs else 0.0,
        }
    return EprReport(
        trials=trials,
        hits=hits,
        hit_rate=hits / trials,
        per_observable=per_observable,
        min_confidence=min(drawn_confidences),
    )
