"""Scenario runner: every experiment in the package as a seeded, reproducible
command with canonical JSON / text / CSV reports.

Config schema (version 1, see docs/schemas.md): a JSON document with keys
``schema_version``, ``scenario``, ``seed``, ``samples``, ``params``; unknown
keys anywhere are rejected.  Command-line flags override file values, the
``SEPLAB_SEED`` environment variable is the seed fallback.  Randomness is
PCG64 (numpy default_rng) seeded once per run, with child streams spawned in
fixed order wherever cells or models sample independently, so a (config,
seed, version) triple maps to byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import __version__, bell, classical_models, measurement, product_test
from .bipartite import BipartiteSpace, schmidt
from .errors import ConfigError, IoError, ScenarioError, SeplabError
from .hilbert import DIM_CAP, Operator, StateVector, haar_projector, identity, tensor_op
from .separation import construct_witness, no_cloning_witness, separation_verdict, witness_joint

SCHEMA_VERSION = 1
SEED_ENV_VAR = "SEPLAB_SEED"

SCENARIOS = ("aerts", "chsh", "models", "product-test", "epr", "no-cloning")

_DEFAULT_PARAMS: dict[str, dict[str, Any]] = {
    "aerts": {
        "dim_a": 2,
        "dim_b": 2,
        "rank_a": 1,
        "rank_b": 1,
        "random_pair": False,
        "tol": measurement.POSSIBILITY_TOL,
    },
    "chsh": {
        "state": "singlet",
        "angles_a": list(bell.DEFAULT_ANGLES_A),
        "angles_b": list(bell.DEFAULT_ANGLES_B),
    },
    "models": {
        "model": "all",
        "angles_a": list(bell.DEFAULT_ANGLES_A),
        "angles_b": list(bell.DEFAULT_ANGLES_B),
    },
    "product-test": {"entity": "all"},
    "epr": {"state": "singlet", "observables": ["Z", "X"]},
    "no-cloning": {"state_a": "zero", "state_b": "plus"},
}

_MODEL_NAMES = ("rock", "rod-dice", "vessels")

_SQ2 = 1.0 / math.sqrt(2.0)
NAMED_STATES: dict[str, list[complex]] = {
    # single qubit
    "zero": [1, 0],
    "one": [0, 1],
    "plus": [_SQ2, _SQ2],
    "minus": [_SQ2, -_SQ2],
    # qubit pairs
    "singlet": [0, _SQ2, -_SQ2, 0],
    "psi-plus": [0, _SQ2, _SQ2, 0],
    "phi-plus": [_SQ2, 0, 0, _SQ2],
    "product": [1, 0, 0, 0],
}

TWO_QUBIT_STATES = ("singlet", "psi-plus", "phi-plus", "product")


def named_state(name: str) -> StateVector:
    if name not in NAMED_STATES:
        raise ConfigError(f"unknown state name {name!r} (known: {sorted(NAMED_STATES)})")
    return StateVector(np.array(NAMED_STATES[name], dtype=complex))


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    seed: int
    samples: int
    params: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "seed": self.seed,
            "samples": self.samples,
            "params": dict(self.params),
        }


@dataclass(frozen=True)
class Report:
    scenario: str
    config: dict[str, Any]
    results: dict[str, Any]
    version: str
    seed: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "config": self.config,
            "results": self.results,
            "version": self.version,
            "seed": self.seed,
        }


def build_config(
    scenario: str,
    seed: int | None = None,
    samples: int | None = None,
    params: dict[str, Any] | None = None,
) -> ScenarioConfig:
    """Validate and resolve a configuration against the scenario defaults.

    Unknown parameter names are rejected (the error names the field), so a
    resolved config round-trips through ``to_dict``/``config_from_dict``
    unchanged.
    """
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r} (known: {SCENARIOS})")
    if params is not None and not isinstance(params, dict):
        raise ConfigError("'params' must be an object of parameter values")
    resolved = dict(_DEFAULT_PARAMS[scenario])
    for key, value in (params or {}).items():
        if key not in resolved:
            raise ConfigError(f"unknown parameter {key!r} for scenario {scenario!r}")
        resolved[key] = value
    if seed is None:
        seed = os.environ.get(SEED_ENV_VAR) or 0
    try:
        seed = int(seed)
    except (TypeError, ValueError):
        raise ConfigError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must fit in an unsigned 64-bit integer")
    try:
        samples = int(samples) if samples is not None else 10_000
    except (TypeError, ValueError):
        raise ConfigError(f"samples must be an integer, got {samples!r}") from None
    if not 1 <= samples < 2**63:
        raise ConfigError("samples must be a positive integer below 2**63")
    _validate_params(scenario, resolved)
    return ScenarioConfig(scenario, seed, samples, resolved)


def config_from_dict(doc: dict[str, Any]) -> ScenarioConfig:
    allowed = {"schema_version", "scenario", "seed", "samples", "params"}
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown config field(s) {sorted(unknown)}")
    if doc.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {doc.get('schema_version')}")
    if "scenario" not in doc:
        raise ConfigError("config is missing the 'scenario' field")
    return build_config(
        doc["scenario"],
        seed=doc.get("seed"),
        samples=doc.get("samples"),
        params=doc.get("params"),
    )


def _validate_params(scenario: str, p: dict[str, Any]) -> None:
    def positive_int(key: str) -> int:
        try:
            v = int(p[key])
        except (TypeError, ValueError):
            raise ConfigError(f"parameter {key!r} must be an integer") from None
        if v < 1:
            raise ConfigError(f"parameter {key!r} must be >= 1")
        p[key] = v
        return v

    def angle_list(key: str) -> None:
        try:
            p[key] = [float(x) for x in p[key]]
        except (TypeError, ValueError):
            raise ConfigError(f"parameter {key!r} must be a list of angles") from None
        if len(p[key]) != 2:
            raise ConfigError(f"parameter {key!r} needs exactly 2 angles")
        if not all(math.isfinite(x) for x in p[key]):
            raise ConfigError(f"parameter {key!r} must hold finite angles")

    if scenario == "aerts":
        da, db = positive_int("dim_a"), positive_int("dim_b")
        ra, rb = positive_int("rank_a"), positive_int("rank_b")
        if ra >= da or rb >= db:
            raise ConfigError("rank_a/rank_b must be strictly below dim_a/dim_b")
        if da * db > DIM_CAP:
            raise ConfigError(f"dim_a * dim_b must be at most {DIM_CAP}")
        if not isinstance(p["random_pair"], bool):
            raise ConfigError("parameter 'random_pair' must be true or false")
        try:
            p["tol"] = float(p["tol"])
        except (TypeError, ValueError):
            raise ConfigError("parameter 'tol' must be a number") from None
        if not (math.isfinite(p["tol"]) and p["tol"] >= 0.0):
            raise ConfigError("parameter 'tol' must be finite and >= 0")
    elif scenario in ("chsh", "models"):
        angle_list("angles_a")
        angle_list("angles_b")
        if scenario == "chsh" and p["state"] not in TWO_QUBIT_STATES:
            raise ConfigError(f"parameter 'state' must be one of {TWO_QUBIT_STATES}")
        if scenario == "models" and p["model"] not in _MODEL_NAMES + ("all",):
            raise ConfigError(f"parameter 'model' must be one of {_MODEL_NAMES + ('all',)}")
    elif scenario == "product-test":
        known = tuple(product_test.ENTITY_CORPUS) + ("all",)
        if p["entity"] not in known:
            raise ConfigError(f"parameter 'entity' must be one of {known}")
    elif scenario == "epr":
        if p["state"] not in TWO_QUBIT_STATES:
            raise ConfigError(f"parameter 'state' must be one of {TWO_QUBIT_STATES}")
        names = list(p["observables"])
        if not names or any(n not in product_test.QUBIT_OBSERVABLES for n in names):
            raise ConfigError(
                f"parameter 'observables' must be a non-empty subset of "
                f"{sorted(product_test.QUBIT_OBSERVABLES)}"
            )
        p["observables"] = names
    elif scenario == "no-cloning":
        for key in ("state_a", "state_b"):
            if p[key] not in NAMED_STATES:
                raise ConfigError(f"parameter {key!r} must be one of {sorted(NAMED_STATES)}")


# ---------------------------------------------------------------------------
# scenario implementations

def _basis_projector(dim: int, rank: int) -> Operator:
    m = np.zeros((dim, dim), dtype=complex)
    for k in range(rank):
        m[k, k] = 1.0
    return Operator(m)


def _run_aerts(config: ScenarioConfig, rng: np.random.Generator) -> dict[str, Any]:
    p = config.params
    da, db = p["dim_a"], p["dim_b"]
    if p["random_pair"]:
        proj_a = haar_projector(da, p["rank_a"], rng)
        proj_b = haar_projector(db, p["rank_b"], rng)
    else:
        proj_a = _basis_projector(da, p["rank_a"])
        proj_b = _basis_projector(db, p["rank_b"])
    p_a = tensor_op(proj_a, identity(db))
    p_b = tensor_op(identity(da), proj_b)
    witness = construct_witness(p_a, p_b, rng)
    verdict = separation_verdict(witness_joint(p_a, p_b), witness.psi, tol=p["tol"])
    coeffs = [c for c, _, _ in schmidt(witness.psi, BipartiteSpace(da, db))]
    return {
        "dims": {"a": da, "b": db},
        "ranks": {"a": p["rank_a"], "b": p["rank_b"]},
        "random_pair": p["random_pair"],
        "residuals": dict(witness.residuals),
        "max_residual": max(witness.residuals.values()),
        "probabilities": {f"{x},{y}": v for (x, y), v in verdict.probabilities.items()},
        "possible_a": list(verdict.possible_a),
        "possible_b": list(verdict.possible_b),
        "missing_couples": [f"{x},{y}" for x, y in verdict.missing_couples],
        "separate": verdict.separate,
        "tolerance": verdict.tol,
        "schmidt_coefficients": coeffs,
    }


def _chsh_block(model: bell.CoincidenceModel, samples: int, rng: np.random.Generator) -> dict[str, Any]:
    exact = bell.chsh_exact(model)
    sampled = bell.chsh_sampled(model, samples, rng)
    return {
        "convention": bell.CHSH_CONVENTION,
        "bounds": dict(exact.bounds),
        "e_exact": [list(row) for row in exact.e_table],
        "s_exact": exact.s,
        "abs_s_exact": abs(exact.s),
        "e_sampled": [list(row) for row in sampled.e_table],
        "stderr": [list(row) for row in sampled.stderr],
        "s_sampled": sampled.s,
        "samples_per_cell": sampled.samples_per_cell,
        "bound_line": _bound_line(exact.s),
    }


def _bound_line(s: float) -> str:
    magnitude = abs(s)
    if magnitude > bell.TSIRELSON_BOUND + 1e-9:
        return (
            f"|S| = {magnitude:.4f} exceeds classical 2 and "
            f"Tsirelson {bell.TSIRELSON_BOUND:.4f}"
        )
    if magnitude > bell.CLASSICAL_BOUND + 1e-9:
        return (
            f"|S| = {magnitude:.4f} exceeds classical 2, within "
            f"Tsirelson {bell.TSIRELSON_BOUND:.4f}"
        )
    return f"|S| = {magnitude:.4f} within classical 2"


def _run_chsh(config: ScenarioConfig, rng: np.random.Generator) -> dict[str, Any]:
    p = config.params
    psi = named_state(p["state"])
    model = bell.quantum_coincidence_model(psi, p["angles_a"], p["angles_b"])
    block = _chsh_block(model, config.samples, rng)
    block.update(
        state=p["state"],
        angles_a=list(p["angles_a"]),
        angles_b=list(p["angles_b"]),
        no_signaling_residual=bell.no_signaling_residual(model),
    )
    return block


def _make_model(name: str, params: dict[str, Any]) -> bell.CoincidenceModel:
    if name == "rock":
        return classical_models.rock_model(params["angles_a"], params["angles_b"])
    if name == "rod-dice":
        return classical_models.rod_dice_model()
    return classical_models.vessels_model()


def _run_models(config: ScenarioConfig, rng: np.random.Generator) -> dict[str, Any]:
    chosen = _MODEL_NAMES if config.params["model"] == "all" else (config.params["model"],)
    streams = rng.spawn(len(chosen))
    results: dict[str, Any] = {}
    for name, stream in zip(chosen, streams):
        model = _make_model(name, config.params)
        block = _chsh_block(model, config.samples, stream)
        block["settings_a"] = [str(s) for s in model.settings_a]
        block["settings_b"] = [str(s) for s in model.settings_b]
        block["no_signaling_residual"] = bell.no_signaling_residual(model)
        results[name] = block
    return results


def _run_product_test(config: ScenarioConfig, rng: np.random.Generator) -> dict[str, Any]:
    name = config.params["entity"]
    chosen = tuple(product_test.ENTITY_CORPUS) if name == "all" else (name,)
    streams = rng.spawn(len(chosen))
    results: dict[str, Any] = {}
    for entity_name, stream in zip(chosen, streams):
        entity = product_test.ENTITY_CORPUS[entity_name]()
        tests = sorted(entity.tests)
        individual = {t: product_test.is_actual(entity, t).actual for t in tests}
        cert = product_test.meet_actual(entity, tests, config.samples, stream)
        results[entity_name] = {
            "state": entity.current,
            "tests": individual,
            "meet_actual": cert.actual,
            "trials": cert.trials,
            "positives": cert.positives,
            "failure_frequency": (cert.trials - cert.positives) / cert.trials,
        }
    return results


def _run_epr(config: ScenarioConfig, rng: np.random.Generator) -> dict[str, Any]:
    p = config.params
    report = product_test.epr_protocol(
        named_state(p["state"]), p["observables"], config.samples, rng
    )
    return {
        "state": p["state"],
        "observables": list(p["observables"]),
        "trials": report.trials,
        "hits": report.hits,
        "hit_rate": report.hit_rate,
        "min_confidence": report.min_confidence,
        "per_observable": report.per_observable,
    }


def _run_no_cloning(config: ScenarioConfig, rng: np.random.Generator) -> dict[str, Any]:
    p = config.params
    cert = no_cloning_witness(named_state(p["state_a"]), named_state(p["state_b"]))
    return {
        "state_a": p["state_a"],
        "state_b": p["state_b"],
        "overlap": cert.overlap,
        "defect": cert.defect,
        "impossible": cert.impossible,
    }


_RUNNERS = {
    "aerts": _run_aerts,
    "chsh": _run_chsh,
    "models": _run_models,
    "product-test": _run_product_test,
    "epr": _run_epr,
    "no-cloning": _run_no_cloning,
}


def run(config: ScenarioConfig) -> Report:
    """Execute the configured scenario and assemble the report."""
    rng = np.random.default_rng(config.seed)
    try:
        results = _RUNNERS[config.scenario](config, rng)
    except ConfigError:
        raise
    except SeplabError as exc:
        raise ScenarioError(f"{config.scenario}: {exc}") from exc
    return Report(
        scenario=config.scenario,
        config=config.to_dict(),
        results=results,
        version=__version__,
        seed=config.seed,
    )


# ---------------------------------------------------------------------------
# emitters

def _canonical(obj: Any) -> Any:
    """Round floats to 12 significant digits and strip numpy types so the
    JSON encoding of equal reports is byte-identical."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    return obj


def emit(report: Report, fmt: str = "json") -> str:
    """Render a report: canonical JSON (sorted keys, 12-significant-digit
    floats), human-readable text, or flattened CSV."""
    if fmt == "json":
        doc = _canonical(report.to_dict())
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "text":
        return _emit_text(report)
    if fmt == "csv":
        return _emit_csv(report)
    raise ConfigError(f"unknown format {fmt!r}")


def _fmt(v: Any) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "yes" if v else "no"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.6g}"
    return str(v)


def _text_lines(prefix: str, obj: Any, lines: list[str]) -> None:
    for k, v in obj.items():
        if isinstance(v, dict):
            _text_lines(f"{prefix}{k}.", v, lines)
        elif isinstance(v, list) and v and isinstance(v[0], list):
            for i, row in enumerate(v):
                lines.append(f"  {prefix}{k}[{i}] = " + "  ".join(_fmt(x) for x in row))
        elif isinstance(v, list):
            lines.append(f"  {prefix}{k} = " + ", ".join(_fmt(x) for x in v))
        else:
            lines.append(f"  {prefix}{k} = {_fmt(v)}")


def _emit_text(report: Report) -> str:
    lines = [
        f"scenario: {report.scenario}   seed: {report.seed}   "
        f"samples: {report.config['samples']}   version: {report.version}"
    ]
    _text_lines("", _canonical(report.results), lines)
    return "\n".join(lines) + "\n"


def _csv_rows(section: str, obj: Any, rows: list[tuple[str, str, str, str]]) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            key = f"{section}.{k}" if section else str(k)
            _csv_rows(key, v, rows)
    elif isinstance(obj, list) and obj and isinstance(obj[0], list):
        for i, row in enumerate(obj):
            for j, v in enumerate(row):
                rows.append((section, str(i), str(j), _csv_value(v)))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            rows.append((section, str(i), "", _csv_value(v)))
    else:
        rows.append((section, "", "", _csv_value(obj)))


def _csv_value(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _csv_escape(field: str) -> str:
    if "," in field or '"' in field or "\n" in field:
        return '"' + field.replace('"', '""') + '"'
    return field


def _emit_csv(report: Report) -> str:
    rows: list[tuple[str, str, str, str]] = []
    _csv_rows("", _canonical(report.results), rows)
    out = ["section,row,col,value"]
    for fields in rows:
        out.append(",".join(_csv_escape(f) for f in fields))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# command line

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE", help="JSON config file (flags override)")
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (64-bit unsigned)")
    sub.add_argument("--samples", type=int, default=None, help="samples / trials per run")
    sub.add_argument("--format", choices=("json", "text", "csv"), default="json")
    sub.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seplab",
        description="seeded separability / CHSH / product-test scenario runner",
    )
    parser.add_argument("--version", action="version", version=f"seplab {__version__}")
    subs = parser.add_subparsers(dest="scenario", required=True)

    aerts = subs.add_parser("aerts", help="build and verify a non-separability witness")
    aerts.add_argument("--dim-a", type=int, dest="dim_a")
    aerts.add_argument("--dim-b", type=int, dest="dim_b")
    aerts.add_argument("--rank-a", type=int, dest="rank_a")
    aerts.add_argument("--rank-b", type=int, dest="rank_b")
    aerts.add_argument("--random-pair", action="store_true", dest="random_pair", default=None)
    aerts.add_argument("--tol", type=float, dest="tol")

    chsh = subs.add_parser("chsh", help="CHSH for a named two-qubit state")
    chsh.add_argument("--state", choices=TWO_QUBIT_STATES)
    chsh.add_argument("--angles-a", dest="angles_a", help="comma-separated pair, radians")
    chsh.add_argument("--angles-b", dest="angles_b", help="comma-separated pair, radians")

    models = subs.add_parser("models", help="CHSH for the macroscopic models")
    models.add_argument("--model", choices=_MODEL_NAMES + ("all",))
    models.add_argument("--angles-a", dest="angles_a", help="rock analyzer angles")
    models.add_argument("--angles-b", dest="angles_b", help="rock analyzer angles")

    ptest = subs.add_parser("product-test", help="meet-property certification corpus")
    ptest.add_argument("--entity", choices=tuple(product_test.ENTITY_CORPUS) + ("all",))

    epr = subs.add_parser("epr", help="measure-on-B-predict-A protocol")
    epr.add_argument("--state", choices=TWO_QUBIT_STATES)
    epr.add_argument("--observables", help="comma-separated subset of Z,X,Y")

    nc = subs.add_parser("no-cloning", help="cloning obstruction for a state pair")
    nc.add_argument("--state-a", dest="state_a", choices=tuple(NAMED_STATES))
    nc.add_argument("--state-b", dest="state_b", choices=tuple(NAMED_STATES))

    for sub in (aerts, chsh, models, ptest, epr, nc):
        _add_common(sub)
    return parser


_PARAM_FLAGS = {
    "aerts": ("dim_a", "dim_b", "rank_a", "rank_b", "random_pair", "tol"),
    "chsh": ("state", "angles_a", "angles_b"),
    "models": ("model", "angles_a", "angles_b"),
    "product-test": ("entity",),
    "epr": ("state", "observables"),
    "no-cloning": ("state_a", "state_b"),
}


def _parse_angles(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"cannot parse angle list {text!r}") from None


def config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    file_doc: dict[str, Any] = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_doc, dict):
            raise ConfigError("config file must hold a JSON object")
        base = config_from_dict(file_doc)
        if base.scenario != args.scenario:
            raise ConfigError(
                f"config file names scenario {base.scenario!r}, "
                f"command line says {args.scenario!r}"
            )
        params = dict(base.params)
        seed: int | None = base.seed
        samples: int | None = base.samples
    else:
        params = {}
        seed = None
        samples = None

    for key in _PARAM_FLAGS[args.scenario]:
        value = getattr(args, key, None)
        if value is None:
            continue
        if key in ("angles_a", "angles_b") and isinstance(value, str):
            value = _parse_angles(value)
        if key == "observables" and isinstance(value, str):
            value = [x.strip() for x in value.split(",") if x.strip()]
        params[key] = value
    if args.seed is not None:
        seed = args.seed
    if args.samples is not None:
        samples = args.samples
    return build_config(args.scenario, seed=seed, samples=samples, params=params)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        report = run(config)
        text = emit(report, args.format)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise IoError(f"cannot write report to {args.out}: {exc}") from exc
        else:
            sys.stdout.write(text)
    except ConfigError as exc:
        print(f"seplab: config error: {exc}", file=sys.stderr)
        return 2
    except (ScenarioError, IoError, SeplabError) as exc:
        print(f"seplab: error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
