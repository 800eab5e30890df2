"""Seeded workloads for the seplab benchmark.

An op is generated from ``(workload seed, op index)`` alone, so the same seed
gives the same op list however long a run lasts.  Op kinds repeat in a fixed
pattern and categorical choices (entity, state, model, dimensions, spectrum
shape) cycle in a fixed order.  The k-th op of a kind takes its position in
the log-size range from the golden-ratio sequence 1 - frac(k * 0.618..):
every prefix of it, and every subsequence that a categorical cycle picks
out, spreads evenly over the range.  It starts at the top of the range, so
the largest op of each kind runs first and peak memory does not depend on
how many ops a run gets through.  Sizes are the same for every seed, so
runs of different seeds load the program with the same mix and their spread
is the machine's own; the seed draws every matrix, state, angle, rank,
format and scenario seed.

Each workload separates ``make`` (untimed input generation), ``execute``
(the timed calls into seplab) and ``check`` (untimed physics checks that
return a list of problems; empty means the op is correct).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from seplab import bipartite, cli, measurement, separation
from seplab.hilbert import Operator, StateVector


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

TWO_QUBIT_STATES = ("singlet", "psi-plus", "phi-plus", "product")
ENTANGLED = ("singlet", "psi-plus", "phi-plus")
ENTITIES = ("cube-intact", "cube-wet", "cube-burned", "flaky")
OBSERVABLE_SUBSETS = (("Z",), ("X",), ("Y",), ("Z", "X"), ("Z", "Y"), ("X", "Y"), ("Z", "X", "Y"))
MODELS = ("rock", "rod-dice", "vessels", "all")
FORMATS = ("json", "text", "csv")

# Product-space factor dimensions with dim_a * dim_b <= 64: balanced and
# lopsided splits at every size up to the cap.
PAIR_DIMS = (
    (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 8), (8, 2), (3, 5), (4, 4),
    (2, 16), (16, 2), (4, 8), (8, 4), (5, 7), (2, 32), (32, 2), (4, 16), (16, 4), (8, 8),
)
# Single observables: every dimension with a non-degenerate spectrum (None)
# and with 2, 3 and 4 levels.
SINGLE_CASES = tuple((d, levels) for d in (8, 16, 32, 64) for levels in (2, 3, 4, None))

# Physics constants the checks compare against, derived independently of seplab.
FLAKY_P_SECOND = 0.5  # the corpus builds flaky_entity() at its default
EXPECTED_ACTUAL = {
    "cube-intact": {"burn": True, "float": True},
    "cube-wet": {"burn": False, "float": True},
    "cube-burned": {"burn": False, "float": False},
    "flaky": {"t1": True, "t2": False},
}
DEFAULT_ANGLES_A = (0.0, math.pi / 2)
DEFAULT_ANGLES_B = (math.pi / 4, -math.pi / 4)
Z_SIGMA = 5.0
TABLE_TOL = 1e-10

_S = 1.0 / math.sqrt(2.0)
_STATE_VECTORS = {
    "singlet": np.array([0, _S, -_S, 0], dtype=complex),
    "psi-plus": np.array([0, _S, _S, 0], dtype=complex),
    "phi-plus": np.array([_S, 0, 0, _S], dtype=complex),
    "product": np.array([1, 0, 0, 0], dtype=complex),
}
_PAULI = {
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
}


@dataclass
class Op:
    index: int
    kind: str
    params: dict[str, Any]
    probe: bool = False  # fingerprinted in every pass; the passes must agree


def log_uniform(lo: float, hi: float, u: float) -> int:
    return int(round(lo * (hi / lo) ** u))


def cycle(choices, k: int):
    return choices[k % len(choices)]


class Workload:
    name = ""
    pattern: tuple[str, ...] = ()
    # Ops in one pass of a timed run: whole cycles of the op pattern and the
    # categorical choices, about 5 s on a 2-vCPU Xeon KVM guest.
    pass_ops = 0
    probe_rate = 1.0 / 64.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def op(self, index: int) -> Op:
        """The index-th op of this workload's list."""
        turn, place = divmod(index, len(self.pattern))
        kind = self.pattern[place]
        kind_index = turn * self.pattern.count(kind) + self.pattern[:place].count(kind)
        u = 1.0 - (kind_index * GOLDEN) % 1.0
        rng = np.random.default_rng([self.seed, index])
        probe = bool(rng.random() < self.probe_rate) or index == 0
        return Op(index, kind, self.make(kind, kind_index, u, rng), probe)

    def warmup_ops(self) -> list[Op]:
        """One op of each kind at the smallest size, to fill lazy state."""
        rng = np.random.default_rng([self.seed, 2**32])
        kinds = dict.fromkeys(self.pattern)
        return [Op(-1, kind, self.make(kind, 0, 0.0, rng)) for kind in kinds]

    def make(self, kind: str, k: int, u: float, rng: np.random.Generator) -> dict[str, Any]:
        raise NotImplementedError

    def execute(self, op: Op) -> Any:
        raise NotImplementedError

    def check(self, op: Op, output: Any) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, op: Op, output: Any) -> bytes:
        """Canonical bytes of an op's output for the determinism probe."""
        report, text = output[0], output[1]
        return cli.emit(report, "json").encode() + text.encode()


def _cli_op(scenario: str, seed: int, samples: int, params: dict[str, Any], fmt: str = "json"):
    config = cli.build_config(scenario, seed=seed, samples=samples, params=params)
    report = cli.run(config)
    return report, cli.emit(report, fmt)


def _scenario_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


# ---------------------------------------------------------------------------
# trials: product-test and epr trial loops


def epr_hit_rate(state: str, observables) -> float:
    """Expected hit rate of the argmax predictor, from plain numpy: for each
    observable, sum over B outcomes of P(b) * max_a P(a | b)."""
    psi = _STATE_VECTORS[state]
    eye = np.eye(2)
    rates = []
    for name in observables:
        _, vecs = np.linalg.eigh(_PAULI[name])
        projs = [np.outer(vecs[:, k], vecs[:, k].conj()) for k in range(2)]
        rate = 0.0
        for pb in projs:
            post = np.kron(eye, pb) @ psi
            p_b = float(np.vdot(post, post).real)
            if p_b <= 1e-12:
                continue
            post = post / math.sqrt(p_b)
            cond = [float(np.linalg.norm(np.kron(pa, eye) @ post) ** 2) for pa in projs]
            rate += p_b * max(cond)
        rates.append(rate)
    return sum(rates) / len(rates)


class Trials(Workload):
    name = "trials"
    pattern = ("pt", "epr", "pt", "epr", "pt", "epr", "pt", "epr", "pt", "epr", "pt-all", "epr")
    pass_ops = 5 * len(pattern)

    def make(self, kind, k, u, rng):
        samples = log_uniform(1e3, 3e4, u)
        seed = _scenario_seed(rng)
        if kind == "epr":
            return {
                "scenario": "epr",
                "seed": seed,
                "samples": samples,
                "params": {
                    "state": cycle(TWO_QUBIT_STATES, k),
                    "observables": list(cycle(OBSERVABLE_SUBSETS, k)),
                },
            }
        entity = "all" if kind == "pt-all" else cycle(ENTITIES, k)
        return {"scenario": "product-test", "seed": seed, "samples": samples, "params": {"entity": entity}}

    def execute(self, op):
        p = op.params
        return _cli_op(p["scenario"], p["seed"], p["samples"], p["params"])

    def check(self, op, output):
        # Read from the canonical JSON report (12 significant digits), the
        # output a user sees; the Report object holds min_confidence 1 - 4e-16.
        p, results, problems = op.params, json.loads(output[1])["results"], []
        n = p["samples"]
        if p["scenario"] == "epr":
            state, obs = p["params"]["state"], p["params"]["observables"]
            if results["trials"] != n:
                problems.append(f"epr ran {results['trials']} trials, asked {n}")
            if state in ENTANGLED:
                if results["hit_rate"] != 1.0 or results["min_confidence"] != 1.0:
                    problems.append(
                        f"epr {state}: hit_rate {results['hit_rate']}, "
                        f"min_confidence {results['min_confidence']}, both must be 1"
                    )
            else:
                expected = epr_hit_rate(state, obs)
                sigma = math.sqrt(expected * (1.0 - expected) / n)
                if abs(results["hit_rate"] - expected) > Z_SIGMA * sigma + 1e-12:
                    problems.append(f"epr {state} {obs}: hit_rate {results['hit_rate']} vs {expected}")
            return problems
        expected_entities = ENTITIES if p["params"]["entity"] == "all" else (p["params"]["entity"],)
        if set(results) != set(expected_entities):
            return [f"product-test reported entities {list(results)}"]
        for name, block in results.items():
            tests = block["tests"]
            if tests != EXPECTED_ACTUAL[name]:
                problems.append(f"{name}: individual certifications {tests}")
            if block["meet_actual"] != all(tests.values()):
                problems.append(f"{name}: meet {block['meet_actual']} is not the conjunction of {tests}")
            if block["trials"] != n or not 0 <= block["positives"] <= n:
                problems.append(f"{name}: {block['positives']} positives of {block['trials']} trials")
            if block["meet_actual"] and block["positives"] != n:
                problems.append(f"{name}: actual meet with failing trials")
            if name == "flaky":
                q = (1.0 - FLAKY_P_SECOND) / 2.0
                sigma = math.sqrt(q * (1.0 - q) / n)
                if abs(block["failure_frequency"] - q) > Z_SIGMA * sigma:
                    problems.append(f"flaky failure frequency {block['failure_frequency']} vs {q}")
        return problems


# ---------------------------------------------------------------------------
# coincidence: CHSH for quantum states and the macroscopic models


def quantum_correlation(state: str, a: float, b: float) -> float:
    """Closed-form E(a, b) for spin observables cos(t) Z + sin(t) X."""
    if state == "singlet":
        return -math.cos(a - b)
    if state == "psi-plus":
        return -math.cos(a + b)
    if state == "phi-plus":
        return math.cos(a - b)
    return math.cos(a) * math.cos(b)


def rock_correlation(a: float, b: float) -> float:
    """Exploding rock: E = 2 * Delta / pi - 1, Delta the angular distance."""
    d = abs(a - b) % (2.0 * math.pi)
    return 2.0 * min(d, 2.0 * math.pi - d) / math.pi - 1.0


def _chsh(e) -> float:
    return e[0][0] + e[0][1] + e[1][0] - e[1][1]


def _check_chsh_block(label: str, block: dict[str, Any], n: int, s_expected: float | None) -> list[str]:
    problems = []
    s_exact, s_sampled = block["s_exact"], block["s_sampled"]
    if s_expected is not None and abs(s_exact - s_expected) > 1e-9:
        problems.append(f"{label}: s_exact {s_exact} vs closed form {s_expected}")
    if block["samples_per_cell"] != n:
        problems.append(f"{label}: {block['samples_per_cell']} samples per cell, asked {n}")
    # The reported stderr is 0 when a cell's sample happens to be unanimous;
    # the exact-table stderr keeps the 5 sigma test meaningful then.
    var = sum(
        max(block["stderr"][i][j] ** 2, (1.0 - block["e_exact"][i][j] ** 2) / n)
        for i in range(2)
        for j in range(2)
    )
    if abs(s_sampled - s_exact) > Z_SIGMA * math.sqrt(var) + 1e-12:
        problems.append(f"{label}: s_sampled {s_sampled} is beyond 5 sigma of s_exact {s_exact}")
    return problems


class Coincidence(Workload):
    name = "coincidence"
    pattern = ("chsh", "models")
    pass_ops = 8 * 16  # a cycle is 16 ops: 4 states x 2 angle sets; 4 models

    def make(self, kind, k, u, rng):
        samples = log_uniform(1e3, 1e6, u)
        seed = _scenario_seed(rng)
        random_angles = [float(x) for x in rng.uniform(-math.pi, math.pi, size=4)]
        if kind == "chsh":
            state = cycle(TWO_QUBIT_STATES, k)
            if (k // len(TWO_QUBIT_STATES)) % 2 == 0:
                angles_a, angles_b = list(DEFAULT_ANGLES_A), list(DEFAULT_ANGLES_B)
            else:
                angles_a, angles_b = random_angles[:2], random_angles[2:]
            params = {"state": state, "angles_a": angles_a, "angles_b": angles_b}
        else:
            params = {"model": cycle(MODELS, k), "angles_a": random_angles[:2], "angles_b": random_angles[2:]}
        return {"scenario": kind, "seed": seed, "samples": samples, "params": params}

    def execute(self, op):
        p = op.params
        return _cli_op(p["scenario"], p["seed"], p["samples"], p["params"])

    def check(self, op, output):
        p, results = op.params, output[0].results
        n, params = p["samples"], p["params"]
        angles_a, angles_b = params["angles_a"], params["angles_b"]
        if p["scenario"] == "chsh":
            state = params["state"]
            e = [[quantum_correlation(state, a, b) for b in angles_b] for a in angles_a]
            problems = _check_chsh_block(f"chsh {state}", results, n, _chsh(e))
            if state == "singlet" and angles_a == list(DEFAULT_ANGLES_A) and angles_b == list(DEFAULT_ANGLES_B):
                if abs(abs(results["s_exact"]) - 2.0 * math.sqrt(2.0)) > 1e-9:
                    problems.append(f"singlet |S| {results['s_exact']} is not 2 sqrt 2")
            return problems
        chosen = MODELS[:3] if params["model"] == "all" else (params["model"],)
        if tuple(results) != chosen:
            return [f"models reported {list(results)}, expected {list(chosen)}"]
        problems = []
        for name, block in results.items():
            if name == "rock":
                e = [[rock_correlation(a, b) for b in angles_b] for a in angles_a]
                expected = _chsh(e)
                if abs(block["s_exact"]) > 2.0 + 1e-12:
                    problems.append(f"rock |S| {block['s_exact']} exceeds 2")
            else:
                expected = 4.0
            problems += _check_chsh_block(name, block, n, expected)
        return problems


# ---------------------------------------------------------------------------
# spectral: observable construction (PVM build and validation)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_observable(dim: int, levels: int | None, rng: np.random.Generator):
    """Hermitian matrix with ``levels`` distinct eigenvalues (``None``: all
    distinct), each at least 0.1 apart; returns (matrix, level count)."""
    count = dim if levels is None else min(levels, dim)
    values = np.cumsum(0.1 + rng.random(count))
    values = values - values.mean()
    multiplicity = 1 + rng.multinomial(dim - count, np.full(count, 1.0 / count))
    u = haar_unitary(dim, rng)
    m = (u * np.repeat(values, multiplicity)) @ u.conj().T
    return (m + m.conj().T) / 2.0, count


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _check_pvm(label: str, pvm, matrix: np.ndarray, levels: int) -> list[str]:
    problems = []
    if len(pvm.outcomes) != levels:
        problems.append(f"{label}: {len(pvm.outcomes)} outcomes for {levels} levels")
    rebuilt = sum(o.value * p.entries for o, p in zip(pvm.outcomes, pvm.projectors))
    scale = float(np.abs(np.linalg.eigvalsh(matrix)).max())
    if float(np.abs(rebuilt - matrix).max()) > 1e-9 * scale:
        problems.append(f"{label}: sum of value * projector does not rebuild the operator")
    return problems


class Spectral(Workload):
    name = "spectral"
    pattern = ("single", "pair")
    pass_ops = 15 * 2 * len(SINGLE_CASES)  # the single observables carry most of the time

    def make(self, kind, k, u, rng):
        if kind == "single":
            dim, levels = cycle(SINGLE_CASES, k)
            matrix, count = random_observable(dim, levels, rng)
            return {"factors": [(matrix, count)], "psi": random_state(dim, rng)}
        dims = cycle(PAIR_DIMS, k)
        levels = None if (k // len(PAIR_DIMS)) % 2 == 0 else 2 + k % 3
        factors = [random_observable(d, levels, rng) for d in dims]
        return {"factors": factors, "psi": random_state(dims[0] * dims[1], rng)}

    def execute(self, op):
        p = op.params
        pvms = [measurement.pvm_from_operator(Operator(m)) for m, _ in p["factors"]]
        psi = StateVector(p["psi"])
        if len(pvms) == 1:
            return pvms, list(measurement.all_probabilities(pvms[0], psi))
        return pvms, list(bipartite.joint_measurement(*pvms).probability_table(psi).values())

    def check(self, op, output):
        pvms, table = output
        problems = []
        for side, (pvm, (matrix, count)) in enumerate(zip(pvms, op.params["factors"])):
            problems += _check_pvm(f"op {op.index} factor {side}", pvm, matrix, count)
        if abs(sum(table) - 1.0) > TABLE_TOL:
            problems.append(f"op {op.index}: probability table sums to {sum(table)}")
        return problems

    def fingerprint(self, op, output):
        pvms, table = output
        parts = [np.array([o.value for o in pvm.outcomes]).tobytes() for pvm in pvms]
        return b"".join(parts) + np.array(table).tobytes()


# ---------------------------------------------------------------------------
# witness: the aerts scenario plus batches of separation verdict reads


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    block = haar_unitary(dim, rng)[:, :rank]
    return block @ block.conj().T


class Witness(Workload):
    name = "witness"
    pattern = ("witness",)
    pass_ops = 3 * 2 * len(PAIR_DIMS)  # every dimension pair, basis and random
    reads_per_joint = 12

    def make(self, kind, k, u, rng):
        da, db = cycle(PAIR_DIMS, k)
        rank_a, rank_b = int(rng.integers(1, da)), int(rng.integers(1, db))
        random_pair = (k // len(PAIR_DIMS)) % 2 == 1
        p_a = np.kron(random_projector(da, rank_a, rng), np.eye(db))
        p_b = np.kron(np.eye(da), random_projector(db, rank_b, rng))
        observables = [random_observable(d, None, rng)[0] for d in (da, db)]
        states = [random_state(da * db, rng) for _ in range(2 * self.reads_per_joint)]
        return {
            "seed": _scenario_seed(rng),
            "params": {
                "dim_a": da,
                "dim_b": db,
                "rank_a": rank_a,
                "rank_b": rank_b,
                "random_pair": random_pair,
            },
            "format": cycle(FORMATS, k),
            "projectors": (p_a, p_b),
            "observables": observables,
            "states": states,
        }

    def execute(self, op):
        p = op.params
        report, text = _cli_op("aerts", p["seed"], 10_000, p["params"], p["format"])
        joint_w = separation.witness_joint(*(Operator(m) for m in p["projectors"]))
        joint_t = bipartite.joint_measurement(
            *(measurement.pvm_from_operator(Operator(m)) for m in p["observables"])
        )
        states = [StateVector(s) for s in p["states"]]
        r = self.reads_per_joint
        verdicts = [separation.separation_verdict(joint_w, s) for s in states[:r]]
        verdicts += [separation.separation_verdict(joint_t, s) for s in states[r:]]
        return report, text, verdicts

    def check(self, op, output):
        report, text, verdicts = output
        results, problems = report.results, []
        if not results["max_residual"] < 1e-10:
            problems.append(f"witness residual {results['max_residual']}")
        if results["separate"] is not False:
            problems.append("aerts verdict says separate")
        if set(results["missing_couples"]) != {"+,+", "-,-"}:
            problems.append(f"missing couples {results['missing_couples']}")
        if abs(sum(results["probabilities"].values()) - 1.0) > TABLE_TOL:
            problems.append("aerts probability table does not sum to 1")
        if op.params["format"] == "json" and json.loads(text)["results"]["separate"] is not False:
            problems.append("json report disagrees with the report object")
        for v in verdicts:
            if abs(sum(v.probabilities.values()) - 1.0) > TABLE_TOL:
                problems.append(f"verdict table sums to {sum(v.probabilities.values())}")
        return problems

    def fingerprint(self, op, output):
        tables = [list(v.probabilities.values()) for v in output[2]]
        return super().fingerprint(op, output) + repr(tables).encode()


WORKLOADS = {w.name: w for w in (Trials, Coincidence, Spectral, Witness)}
