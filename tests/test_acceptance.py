"""Acceptance gate: one test per contract criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is pinned here; nothing is deferred to calibration.  The
``no_signaling_all_models`` check is expected to fail: the connected-vessels
table that yields S = 4 (lone siphon drains all 20 L, so E(siphon, reference)
= +1 deterministically) forces the siphon-side marginal to shift from 1 to
1/2 when the partner switches to its own siphon, so no tolerance can make
that model non-signalling.  The check is asserted as stated rather than
weakened.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from seplab import bell, cli
from seplab.bipartite import joint_measurement
from seplab.classical_models import rock_model, rod_dice_model, vessels_model
from seplab.hilbert import (
    Operator,
    StateVector,
    basis_vector,
    haar_projector,
    identity,
    projector_onto,
    tensor_op,
    tensor_vec,
)
from seplab.measurement import pvm_from_operator
from seplab.product_test import epr_protocol, flaky_entity, meet_actual, wooden_cube
from seplab.separation import (
    construct_witness,
    no_cloning_witness,
    separation_verdict,
    witness_joint,
)

ROOT_HALF = 1 / math.sqrt(2)
SINGLET = StateVector(np.array([0, ROOT_HALF, -ROOT_HALF, 0]))


@contextmanager
def criterion(name: str):
    try:
        yield
    except Exception:
        print(f"[acceptance] FAIL  {name}")
        raise
    print(f"[acceptance] PASS  {name}")


def test_qubit_witness_instance():
    with criterion("qubit witness: forced state, vanishing residuals, verdict"):
        p_a = tensor_op(projector_onto(basis_vector(2, 0)), identity(2))
        p_b = tensor_op(identity(2), projector_onto(basis_vector(2, 0)))
        joint = witness_joint(p_a, p_b)
        witness = construct_witness(joint, np.random.default_rng(42))

        target = np.array([0, ROOT_HALF, ROOT_HALF, 0])
        overlap = abs(np.vdot(witness.psi.amplitudes, target))
        assert overlap >= 1.0 - 1e-12  # equal up to a global phase

        assert max(witness.residuals.values()) <= 1e-12

        verdict = separation_verdict(joint, witness.psi)
        expected = {("+", "+"): 0.0, ("+", "-"): 0.5, ("-", "+"): 0.5, ("-", "-"): 0.0}
        for couple, value in expected.items():
            assert verdict.probabilities[couple] == pytest.approx(value, abs=1e-12)
        assert verdict.possible_a == ("+", "-")  # both marginal outcomes possible
        assert verdict.possible_b == ("+", "-")
        assert not verdict.separate
        assert set(verdict.missing_couples) == {("+", "+"), ("-", "-")}


def _tensor_pair(rng):
    d_a = int(rng.integers(2, 5))
    d_b = int(rng.integers(2, 5))
    r_a = int(rng.integers(1, d_a))
    r_b = int(rng.integers(1, d_b))
    p_a = tensor_op(haar_projector(d_a, r_a, rng), identity(d_b))
    p_b = tensor_op(identity(d_a), haar_projector(d_b, r_b, rng))
    return p_a, p_b


def _common_eigenbasis_pair(rng):
    dim = int(rng.integers(4, 17))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    while True:
        mask_a = rng.integers(0, 2, size=dim).astype(bool)
        mask_b = rng.integers(0, 2, size=dim).astype(bool)
        if (mask_a & ~mask_b).any() and (~mask_a & mask_b).any():
            break
    p_a = Operator(q[:, mask_a] @ q[:, mask_a].conj().T)
    p_b = Operator(q[:, mask_b] @ q[:, mask_b].conj().T)
    return p_a, p_b


def test_witness_generality_sweep():
    with criterion("witness sweep: 100/100 commuting pairs fail separability"):
        verified = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            p_a, p_b = _tensor_pair(rng) if seed % 2 == 0 else _common_eigenbasis_pair(rng)
            joint = witness_joint(p_a, p_b)
            witness = construct_witness(joint, rng)
            assert max(witness.residuals.values()) <= 1e-10
            verdict = separation_verdict(joint, witness.psi)
            assert not verdict.separate
            verified += 1
        assert verified == 100

    with criterion("witness sweep: 100/100 product states stay separable"):
        separable = 0
        for seed in range(100):
            rng = np.random.default_rng(1_000 + seed)
            d_a, d_b = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            from oracles import random_hermitian, random_state

            m_a = pvm_from_operator(Operator(random_hermitian(d_a, rng)))
            m_b = pvm_from_operator(Operator(random_hermitian(d_b, rng)))
            psi = tensor_vec(
                StateVector(random_state(d_a, rng)), StateVector(random_state(d_b, rng))
            )
            verdict = separation_verdict(joint_measurement(m_a, m_b), psi)
            assert verdict.separate, (seed, verdict.missing_couples)
            separable += 1
        assert separable == 100


def test_chsh_singlet_quantum():
    with criterion("singlet CHSH: exact 2*sqrt(2), sampled within 0.05"):
        model = bell.quantum_coincidence_model(
            SINGLET, bell.DEFAULT_ANGLES_A, bell.DEFAULT_ANGLES_B
        )
        exact = bell.chsh_exact(model)
        assert abs(abs(exact.s) - 2 * math.sqrt(2)) <= 1e-9
        sampled = bell.chsh_sampled(model, 100_000, np.random.default_rng(2024))
        assert abs(abs(sampled.s) - 2 * math.sqrt(2)) < 0.05

    with criterion("quantum sweep never exceeds the Tsirelson bound"):
        from oracles import random_state

        for seed in range(200):
            rng = np.random.default_rng(seed)
            psi = StateVector(random_state(4, rng))
            angles = rng.uniform(0, 2 * math.pi, size=4)
            report = bell.chsh_exact(
                bell.quantum_coincidence_model(psi, angles[:2], angles[2:])
            )
            assert abs(report.s) <= 2 * math.sqrt(2) + 1e-9


def test_chsh_classical_demarcation():
    with criterion("rod-dice exact S = 4"):
        assert bell.chsh_exact(rod_dice_model()).s == pytest.approx(4.0, abs=1e-12)

    with criterion("vessels exact S = 4"):
        assert bell.chsh_exact(vessels_model()).s == pytest.approx(4.0, abs=1e-12)

    with criterion("rock |S| <= 2 + 1e-6 over the full 17^4 angle grid, max = 2"):
        angles = np.linspace(0.0, 2 * math.pi, 17)
        delta = np.abs(angles[:, None] - angles[None, :]) % (2 * math.pi)
        delta = np.minimum(delta, 2 * math.pi - delta)
        e_grid = 2 * delta / math.pi - 1
        s = (
            e_grid[:, None, :, None]
            + e_grid[:, None, None, :]
            + e_grid[None, :, :, None]
            - e_grid[None, :, None, :]
        )
        grid_max = float(np.abs(s).max())
        assert grid_max <= 2.0 + 1e-6
        assert grid_max >= 2.0 - 1e-6
        # the default settings already sit on the saw-tooth optimum
        assert abs(bell.chsh_exact(rock_model()).s) == pytest.approx(2.0, abs=1e-6)


def _sampled_marginal_shift(mechanism, n, rng):
    from oracles import mechanism_pairs

    worst = 0.0
    for i in range(2):
        freqs = []
        for j in range(2):
            pairs = mechanism_pairs(mechanism, i, j, n, rng)
            freqs.append(float((pairs[:, 0] == 1).mean()))
        worst = max(worst, abs(freqs[0] - freqs[1]))
    for j in range(2):
        freqs = []
        for i in range(2):
            pairs = mechanism_pairs(mechanism, i, j, n, rng)
            freqs.append(float((pairs[:, 1] == 1).mean()))
        worst = max(worst, abs(freqs[0] - freqs[1]))
    return worst


def test_no_signaling_rock_and_dice():
    with criterion("rock and rod-dice no-signaling, exact and sampled"):
        n = 20_000
        budget = 4 * math.sqrt(0.5 / n)
        for factory, mechanism in ((rock_model, "rock"), (rod_dice_model, "rod-dice")):
            model = factory()
            assert bell.no_signaling_residual(model) <= 1e-12
            shift = _sampled_marginal_shift(mechanism, n, np.random.default_rng(6))
            assert shift <= budget


def test_no_signaling_vessels():
    with criterion("vessels no-signaling (unattainable: lone siphon drains 20 L)"):
        model = vessels_model()
        assert bell.no_signaling_residual(model) <= 1e-12, (
            "the vessels table that yields S = 4 is signalling: "
            "p(siphon=+1 | partner reference) = 1 but "
            "p(siphon=+1 | partner siphon) = 1/2"
        )


def test_wooden_cube_product_certification():
    with criterion("intact cube meet certified with 1000/1000 positive trials"):
        cert = meet_actual(
            wooden_cube(), ["burn", "float"], 1000, np.random.default_rng(0)
        )
        assert cert.actual and cert.positives == 1000

    with criterion("burned and wet cubes certify false"):
        for state in ("burned", "wet"):
            cert = meet_actual(
                wooden_cube(state), ["burn", "float"], 200, np.random.default_rng(1)
            )
            assert not cert.actual

    with criterion("half-reliable second test fails ~1/4 of product trials"):
        trials = 1000
        cert = meet_actual(
            flaky_entity(), ["t1", "t2"], trials, np.random.default_rng(2)
        )
        failure = (cert.trials - cert.positives) / cert.trials
        assert abs(failure - 0.25) < 4 * math.sqrt(0.25 * 0.75 / trials)


def test_epr_hit_rates():
    with criterion("singlet prediction certain: hit rate 1.0 for 10 seeds"):
        for seed in range(10):
            report = epr_protocol(
                SINGLET, ("Z", "X"), trials=10_000, rng=np.random.default_rng(seed)
            )
            assert report.hit_rate == 1.0
            assert report.min_confidence >= 1.0 - 1e-10

    with criterion("product state: X-branch hit rate within 0.5 +/- 0.02"):
        product = tensor_vec(basis_vector(2, 0), basis_vector(2, 0))
        report = epr_protocol(
            product, ("Z", "X"), trials=10_000, rng=np.random.default_rng(7)
        )
        assert abs(report.per_observable["X"]["hit_rate"] - 0.5) <= 0.02
        assert report.per_observable["Z"]["hit_rate"] == 1.0


def test_no_cloning_certificates():
    with criterion("cloning defect: 0, 0, and 0.2071 for the |0>/|+> pair"):
        zero = basis_vector(2, 0)
        one = basis_vector(2, 1)
        plus = StateVector(np.array([1, 1]) / math.sqrt(2))
        assert no_cloning_witness(zero, zero).defect <= 1e-12
        assert no_cloning_witness(zero, one).defect <= 1e-12
        cert = no_cloning_witness(zero, plus)
        assert cert.defect == pytest.approx(ROOT_HALF - 0.5, abs=1e-9)
        assert cert.impossible


def test_report_determinism(tmp_path):
    with criterion("byte-identical JSON for every scenario at fixed config"):
        for scenario in cli.SCENARIOS:
            config = cli.build_config(scenario, seed=314, samples=300)
            first = cli.emit(cli.run(config), "json")
            second = cli.emit(cli.run(config), "json")
            assert first == second, scenario
        # the same holds end to end through the command line
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["chsh", "--seed", "314", "--samples", "300"]
        assert cli.main(argv + ["--out", str(out_a)]) == 0
        assert cli.main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
