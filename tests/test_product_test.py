import math

import numpy as np
import pytest

from seplab.errors import DimensionMismatch, InvalidArgument, SeplabError, UnknownTest
from seplab.hilbert import PROBABILITY_TOL, StateVector
from seplab.measurement import Pvm
from seplab.product_test import (
    TestableEntity,
    epr_protocol,
    flaky_entity,
    is_actual,
    meet_actual,
    wooden_cube,
)

ROOT_HALF = 1 / math.sqrt(2)
SINGLET = StateVector(np.array([0, ROOT_HALF, -ROOT_HALF, 0]))
FLIP_CORRELATED = StateVector(np.array([0, ROOT_HALF, ROOT_HALF, 0]))
ZERO_ZERO = StateVector(np.array([1, 0, 0, 0]))


def test_intact_cube_properties_are_actual():
    cube = wooden_cube()
    assert is_actual(cube, "burn") is True
    assert is_actual(cube, "float") is True
    assert cube.state == "intact"


def test_disturbed_cubes_lose_properties():
    assert not is_actual(wooden_cube("wet"), "burn")
    assert is_actual(wooden_cube("wet"), "float")
    assert not is_actual(wooden_cube("burned"), "float")


def test_unknown_test_raises():
    with pytest.raises(UnknownTest):
        is_actual(wooden_cube(), "taste")
    with pytest.raises(UnknownTest):
        meet_actual(wooden_cube(), ["burn", "taste"], 1, np.random.default_rng(0))


def test_branch_distributions_must_normalize():
    """A test's positive and negative branches, p and 1 - p, must both be
    probabilities, to within PROBABILITY_TOL."""
    for p in (1.0 + 1e-11, -1e-11):
        with pytest.raises(ValueError):
            TestableEntity("bad", "s", {"t": p})
    # rounding within PROBABILITY_TOL is accepted, and a near-certain test is actual
    assert is_actual(TestableEntity("edge", "s", {"t": 1.0 + 1e-13, "u": -1e-13}), "t")


def test_a_test_at_the_probability_tolerance_is_actual():
    edge = 1.0 - PROBABILITY_TOL
    assert is_actual(TestableEntity("edge", "s", {"t": edge}), "t")
    assert not is_actual(TestableEntity("below", "s", {"t": math.nextafter(edge, 0.0)}), "t")


def test_meet_actual_intact_cube_full_trials_positive():
    cert = meet_actual(wooden_cube(), ["burn", "float"], 1000, np.random.default_rng(1))
    assert cert.actual
    assert (cert.trials, cert.positives) == (1000, 1000)


def test_meet_actual_flaky_entity_quarter_failure_rate():
    trials = 2000
    cert = meet_actual(flaky_entity(), ["t1", "t2"], trials, np.random.default_rng(2))
    assert not cert.actual
    failure = (cert.trials - cert.positives) / cert.trials
    stderr = math.sqrt(0.25 * 0.75 / trials)
    assert abs(failure - 0.25) < 4 * stderr


def test_meet_over_one_test_equals_direct_certification():
    for state in ("intact", "wet", "burned"):
        direct = is_actual(wooden_cube(state), "float")
        meet = meet_actual(wooden_cube(state), ["float"], 50, np.random.default_rng(3))
        assert meet.actual == direct


def test_meet_actual_corpus_bug_is_a_seplab_error():
    class HighRng:
        """Draws the top of every range: past the 1 - 1e-13 positive
        probability, which inspection counts as certain."""

        def integers(self, n):
            return 0

        def random(self):
            return math.nextafter(1.0, 0.0)

    entity = TestableEntity("leaky", "ready", {"t": 1.0 - 1e-13})
    assert is_actual(entity, "t")
    with pytest.raises(SeplabError, match=r"leaky: \['t'\] actual, 3 trials failed"):
        meet_actual(entity, ["t"], 3, HighRng())


def test_meet_actual_neither_moves_nor_copies_the_entity(monkeypatch):
    entity = flaky_entity()
    built = []
    check = TestableEntity.__post_init__

    def spy(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(TestableEntity, "__post_init__", spy)
    meet_actual(entity, ["t1", "t2"], 200, np.random.default_rng(4))
    assert (entity.state, entity.tests) == ("ready", {"t1": 1.0, "t2": 0.5})
    assert built == []


def test_meet_actual_draws_as_product_tests_on_fresh_entities():
    """Each trial draws the test index with ``integers`` first, then
    ``u = random()``, and is positive iff u < P(positive); the golden
    product-test reports depend on that order."""
    for p_second in (0.5, 0.25, 1.0):
        entity = flaky_entity(p_second)
        for seed in range(5):
            cert = meet_actual(entity, ["t1", "t2"], 300, np.random.default_rng(seed))
            rng, probabilities = np.random.default_rng(seed), [1.0, p_second]
            replay = 0
            for _ in range(300):
                p = probabilities[rng.integers(2)]
                replay += rng.random() < p
            assert cert.positives == replay


@pytest.mark.parametrize("state", ["intact", "wet", "burned"])
def test_piron_equivalence_over_cube_corpus(state):
    cube = wooden_cube(state)
    tests = ["burn", "float"]
    conjunction = all(is_actual(cube, t) for t in tests)
    cert = meet_actual(cube, tests, 400, np.random.default_rng(7))
    assert cert.actual == conjunction
    if conjunction:
        assert cert.positives == cert.trials


def test_epr_singlet_certain_for_both_observables():
    report = epr_protocol(SINGLET, ("Z", "X"), trials=4000, rng=np.random.default_rng(11))
    assert report.hit_rate == 1.0
    assert report.min_confidence == pytest.approx(1.0, abs=1e-10)
    for stats in report.per_observable.values():
        assert stats["hit_rate"] == 1.0


def test_epr_product_state_z_certain_x_uninformative():
    report = epr_protocol(ZERO_ZERO, ("Z", "X"), trials=10_000, rng=np.random.default_rng(5))
    assert report.per_observable["Z"]["hit_rate"] == 1.0
    x_rate = report.per_observable["X"]["hit_rate"]
    n_x = report.per_observable["X"]["trials"]
    assert abs(x_rate - 0.5) < 4 * math.sqrt(0.25 / n_x)
    assert report.min_confidence == pytest.approx(0.5, abs=1e-10)


def test_epr_flip_correlated_state_with_single_observable():
    report = epr_protocol(FLIP_CORRELATED, ("Z",), trials=2000, rng=np.random.default_rng(9))
    assert report.hit_rate == 1.0


def test_epr_protocol_argument_errors():
    with pytest.raises(DimensionMismatch):
        epr_protocol(StateVector(np.array([1, 0])), ("Z",), 10, np.random.default_rng(0))
    with pytest.raises(UnknownTest):
        epr_protocol(SINGLET, ("Q",), 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        epr_protocol(SINGLET, (), 10, np.random.default_rng(0))


def test_epr_reproducible_for_fixed_seed():
    a = epr_protocol(ZERO_ZERO, ("Z", "X"), 500, np.random.default_rng(31))
    b = epr_protocol(ZERO_ZERO, ("Z", "X"), 500, np.random.default_rng(31))
    assert a == b


def test_epr_draw_skips_negligible_b_branch():
    class LowRng:
        """Puts every count at the bottom of the range, where the Z PVM puts
        the B outcome -1, whose branch here carries probability 1e-13, and
        scores a hit whenever one is possible."""

        def __init__(self):
            self.pvals = []

        def multinomial(self, n, pvals):
            self.pvals.append(list(pvals))
            return np.array([n] + [0] * (len(pvals) - 1))

        def binomial(self, n, p):
            return np.where(p > 0, n, 0)

    tiny = 1e-13
    psi = StateVector(np.array([math.sqrt(1.0 - tiny), math.sqrt(tiny), 0, 0]))
    rng = LowRng()
    report = epr_protocol(psi, ("Z",), trials=3, rng=rng)
    assert report.trials == 3
    assert report.hit_rate == 1.0
    observables, b_outcomes = rng.pvals
    assert observables == [1.0]
    assert b_outcomes == [1.0]  # the 1e-13 outcome is not among the B outcomes drawn over


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_epr_draws_counts_in_a_fixed_order(seed):
    """One multinomial over the observables; then, per observable in order,
    one multinomial over its kept B outcomes and one binomial of hits per B
    outcome drawn, at its argmax confidence.  The golden epr reports depend
    on that order.  On |00>, Z keeps one B outcome predicted with certainty,
    and X and Y keep two, each predicted with confidence 1/2."""
    trials = 1000
    report = epr_protocol(ZERO_ZERO, ("Z", "X", "Y"), trials, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    plans = {"Z": ([1.0], [1.0]), "X": ([0.5, 0.5], [0.5, 0.5]), "Y": ([0.5, 0.5], [0.5, 0.5])}
    per_observable = {}
    picks = rng.multinomial(trials, [1 / 3] * 3)
    for (name, (weights, confidences)), n in zip(plans.items(), picks):
        counts = rng.multinomial(n, weights)
        hits = sum(rng.binomial(c, q) for c, q in zip(counts, confidences) if c > 0)
        per_observable[name] = {"trials": n, "hits": hits, "hit_rate": hits / n}
    assert report.per_observable == per_observable
    assert report.hits == sum(stats["hits"] for stats in per_observable.values())
    assert report.min_confidence == 0.5


@pytest.mark.parametrize(
    "amplitudes, observables, trials, message",
    [
        ([math.nan, 0, 0, 1], ("Z",), 10, r"non-finite amplitudes at indices \[0\]"),
        ([1, 0, math.inf, 0], ("Z", "X"), 10, r"non-finite amplitudes at indices \[2\]"),
        ([1, 0, 0, 0], ("Z", "Z"), 100, "observable names must be distinct"),
        ([1, 0, 0, 0], ("X", "Y", "X"), 100, "observable names must be distinct"),
        ([1, 0, 0, 0], ("Z",), 0, "at least one trial"),
        ([1, 0, 0, 0], ("Z", "X"), -5, "at least one trial"),
    ],
    ids=["nan", "inf", "repeated-name", "repeated-name-of-three", "zero-trials", "negative-trials"],
)
def test_epr_rejects_bad_input(amplitudes, observables, trials, message):
    with pytest.raises(InvalidArgument, match=message):
        psi = StateVector(np.array(amplitudes, dtype=complex))
        epr_protocol(psi, observables, trials, np.random.default_rng(0))


@pytest.mark.parametrize("amplitudes", [[0, 0, 0, 0], [1e-7, 0, 0, 0]])
def test_epr_rejects_a_state_with_no_possible_b_outcome(amplitudes):
    psi = StateVector(np.array(amplitudes, dtype=complex))
    with pytest.raises(InvalidArgument, match="is the state normalized"):
        epr_protocol(psi, ("Z", "X"), trials=10, rng=np.random.default_rng(0))


def test_epr_builds_pvms_on_one_qubit_only(monkeypatch):
    built = []
    check = Pvm.__post_init__

    def spy(self):
        built.append(self.projectors[0].dim)
        check(self)

    monkeypatch.setattr(Pvm, "__post_init__", spy)
    epr_protocol(SINGLET, ("Z", "X", "Y"), trials=50, rng=np.random.default_rng(0))
    assert built == [2, 2, 2]
