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
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from . import __version__, bell, classical_models, hilbert, product_test
from .bipartite import joint_measurement, schmidt
from .errors import ConfigError, IoError, ScenarioError, SeplabError
from .hilbert import DIM_CAP, StateVector
from .measurement import SIGNS, Pvm
from .separation import construct_witness, no_cloning_witness, separation_verdict

SCHEMA_VERSION = 1
SEED_ENV_VAR = "SEPLAB_SEED"

# name -> factory taking the resolved params; the order fixes each model's child stream
_MODELS = {
    "rock": lambda p: classical_models.rock_model(p["angles_a"], p["angles_b"]),
    "rod-dice": lambda p: classical_models.rod_dice_model(),
    "vessels": lambda p: classical_models.vessels_model(),
}

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


def named_state(name: str) -> StateVector:
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


@dataclass(frozen=True)
class Param:
    """One configurable value, declared once.  Its kind fixes the JSON type it
    accepts, the check it must pass and the command-line flag that sets it:

    - ``int``: a JSON integer >= ``lo``, and below 2**``bits`` when set;
    - ``float``: a finite JSON number >= 0;
    - ``bool``: a JSON boolean, set by a flag that takes no value;
    - ``choice``: one of ``choices``;
    - ``angles``: a list of exactly 2 finite JSON numbers (radians);
    - ``subset``: a non-empty list of distinct ``choices``.

    The flag is ``--`` plus the name with ``_`` turned into ``-``; a list
    flag takes its elements comma-separated.
    """

    name: str
    kind: str
    default: Any
    help: str
    choices: tuple[str, ...] = ()
    lo: int = 1
    bits: int | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def expected(self) -> str:
        if self.kind == "int":
            return f"an integer >= {self.lo}" + (f" and below 2**{self.bits}" if self.bits else "")
        return {
            "float": "a finite number >= 0",
            "bool": "true or false",
            "choice": f"one of {self.choices}",
            "angles": "a list of exactly 2 finite angles",
            "subset": f"a non-empty list of distinct {self.choices}",
        }[self.kind]


SEED = Param("seed", "int", 0, "RNG seed (64-bit unsigned)", lo=0, bits=64)
SAMPLES = Param("samples", "int", 10_000, "samples / trials per run", bits=63)

_STATE = Param("state", "choice", "singlet", "named two-qubit state",
               ("singlet", "psi-plus", "phi-plus", "product"))
_ANGLES_A = Param("angles_a", "angles", bell.DEFAULT_ANGLES_A, "comma-separated pair, radians")
_ANGLES_B = Param("angles_b", "angles", bell.DEFAULT_ANGLES_B, "comma-separated pair, radians")

PARAMS: dict[str, tuple[Param, ...]] = {
    "aerts": (
        Param("dim_a", "int", 2, "dimension of side A"),
        Param("dim_b", "int", 2, "dimension of side B"),
        Param("rank_a", "int", 1, "rank of the side A projector, below dim_a"),
        Param("rank_b", "int", 1, "rank of the side B projector, below dim_b"),
        Param("random_pair", "bool", False, "Haar-random projectors instead of basis ones"),
        Param("tol", "float", hilbert.POSSIBILITY_TOL,
              f"verdict possibility threshold, from {hilbert.PROBABILITY_TOL:g} to below 0.5"),
    ),
    "chsh": (_STATE, _ANGLES_A, _ANGLES_B),
    "models": (
        Param("model", "choice", "all", "macroscopic model", (*_MODELS, "all")),
        _ANGLES_A,
        _ANGLES_B,
    ),
    "product-test": (
        Param("entity", "choice", "all", "corpus entity", (*product_test.ENTITY_CORPUS, "all")),
    ),
    "epr": (
        _STATE,
        Param("observables", "subset", ("Z", "X"), "comma-separated subset of Z,X,Y",
              tuple(product_test.QUBIT_OBSERVABLES)),
    ),
    "no-cloning": (
        Param("state_a", "choice", "zero", "named state", tuple(NAMED_STATES)),
        Param("state_b", "choice", "plus", "named state", tuple(NAMED_STATES)),
    ),
}

SCENARIOS = tuple(PARAMS)


def _finite(value: Any) -> float | None:
    """``value`` as a float when it is a finite JSON number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        x = float(value)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _check(param: Param, value: Any) -> Any:
    """Return ``value`` in canonical form, or raise a ConfigError naming the
    field.  Nothing is coerced: a float is no integer and a string no list."""
    kind, ok = param.kind, False
    if kind == "int":
        ok = type(value) is int and param.lo <= value
        ok = ok and (param.bits is None or value < 2**param.bits)
    elif kind == "float":
        value = _finite(value)
        ok = value is not None and value >= 0.0
    elif kind == "bool":
        ok = isinstance(value, bool)
    elif kind == "choice":
        ok = isinstance(value, str) and value in param.choices
    elif isinstance(value, (list, tuple)):
        if kind == "angles":
            value = [_finite(x) for x in value]
            ok = len(value) == 2 and None not in value
        else:
            value = list(value)
            ok = bool(value) and all(isinstance(x, str) and x in param.choices for x in value)
            ok = ok and len(set(value)) == len(value)
    if not ok:
        raise ConfigError(f"{param.name!r} must be {param.expected()}")
    return value


def _check_aerts(p: dict[str, Any]) -> None:
    """The aerts checks beyond each parameter's own."""
    if p["rank_a"] >= p["dim_a"] or p["rank_b"] >= p["dim_b"]:
        raise ConfigError("rank_a/rank_b must be strictly below dim_a/dim_b")
    if p["dim_a"] * p["dim_b"] > DIM_CAP:
        raise ConfigError(f"dim_a * dim_b must be at most {DIM_CAP}")
    if p["tol"] >= 0.5:
        raise ConfigError("'tol' must be below 0.5: every marginal of the witness is 1/2")
    if p["tol"] < hilbert.PROBABILITY_TOL:
        raise ConfigError(
            f"'tol' must be at least {hilbert.PROBABILITY_TOL:g}, or rounding residue counts as possible"
        )


def build_config(
    scenario: str,
    seed: int | None = None,
    samples: int | None = None,
    params: dict[str, Any] | None = None,
) -> ScenarioConfig:
    """Validate and resolve a configuration against the scenario's spec.

    ``None`` means the default (for ``seed``: ``$SEPLAB_SEED``, else 0).
    Unknown parameter names are rejected (the error names the field), so a
    resolved config round-trips through ``to_dict``/``config_from_dict``
    unchanged.
    """
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r} (known: {SCENARIOS})")
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object of parameter values")
    spec = {param.name: param for param in PARAMS[scenario]}
    for key in params:
        if key not in spec:
            raise ConfigError(f"unknown parameter {key!r} for scenario {scenario!r}")
    env_seed = os.environ.get(SEED_ENV_VAR)
    if seed is None and env_seed:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must hold an integer seed") from None
    seed = _check(SEED, SEED.default if seed is None else seed)
    samples = _check(SAMPLES, SAMPLES.default if samples is None else samples)
    resolved = {name: _check(p, params.get(name, p.default)) for name, p in spec.items()}
    if scenario == "aerts":
        _check_aerts(resolved)
    return ScenarioConfig(scenario, seed, samples, resolved)


def config_from_dict(doc: dict[str, Any]) -> ScenarioConfig:
    allowed = {"schema_version", "scenario", "seed", "samples", "params"}
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown config field(s) {sorted(unknown)}")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}")
    if "scenario" not in doc:
        raise ConfigError("config is missing the 'scenario' field")
    return build_config(
        doc["scenario"],
        seed=doc.get("seed"),
        samples=doc.get("samples"),
        params=doc.get("params"),
    )


# ---------------------------------------------------------------------------
# scenario implementations

def _run_aerts(config: ScenarioConfig, rng: np.random.Generator) -> dict[str, Any]:
    """Build and verify a non-separability witness."""
    p = config.params
    da, db = p["dim_a"], p["dim_b"]
    # one tensor-form joint at the factor dimensions; a basis's first rank columns span +
    joint = joint_measurement(*(
        Pvm(SIGNS, hilbert.haar_unitary(d, rng) if p["random_pair"] else np.eye(d), (r, d - r))
        for d, r in ((da, p["rank_a"]), (db, p["rank_b"]))
    ))
    witness = construct_witness(joint, rng)
    verdict = separation_verdict(joint, witness.psi, tol=p["tol"])
    coeffs = [c for c, _, _ in schmidt(witness.psi, joint.space)]
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
        "bounds": dict(bell.BOUNDS),
        "e_exact": [list(row) for row in exact.e_table],
        "s_exact": exact.s,
        "abs_s_exact": abs(exact.s),
        "e_sampled": [list(row) for row in sampled.e_table],
        "stderr": [list(row) for row in sampled.stderr],
        "s_sampled": sampled.s,
        "samples_per_cell": sampled.samples_per_cell,
        "bound_line": _bound_line(exact),
    }


def _bound_line(report: bell.ChshReport) -> str:
    """The report's bound verdict in words, read from its violation flags."""
    head, tsirelson = f"|S| = {abs(report.s):.4f}", f"Tsirelson {bell.TSIRELSON_BOUND:.4f}"
    if report.violates_tsirelson:
        return f"{head} exceeds classical 2 and {tsirelson}"
    if report.violates_classical:
        return f"{head} exceeds classical 2, within {tsirelson}"
    return f"{head} within classical 2"


def _run_chsh(config: ScenarioConfig, rng: np.random.Generator) -> dict[str, Any]:
    """CHSH for a named two-qubit state."""
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


def _chosen(choice: str, names: Iterable[str], rng: np.random.Generator) -> Iterator[tuple]:
    """(name, child stream) for ``choice``, or for every name in order when it is "all"."""
    chosen = tuple(names) if choice == "all" else (choice,)
    return zip(chosen, rng.spawn(len(chosen)))


def _run_models(config: ScenarioConfig, rng: np.random.Generator) -> dict[str, Any]:
    """CHSH for the macroscopic models."""
    results: dict[str, Any] = {}
    for name, stream in _chosen(config.params["model"], _MODELS, rng):
        model = _MODELS[name](config.params)
        block = _chsh_block(model, config.samples, stream)
        block["settings_a"] = [str(s) for s in model.settings_a]
        block["settings_b"] = [str(s) for s in model.settings_b]
        block["no_signaling_residual"] = bell.no_signaling_residual(model)
        results[name] = block
    return results


def _run_product_test(config: ScenarioConfig, rng: np.random.Generator) -> dict[str, Any]:
    """Meet-property certification corpus."""
    results: dict[str, Any] = {}
    for entity_name, stream in _chosen(config.params["entity"], product_test.ENTITY_CORPUS, rng):
        entity = product_test.ENTITY_CORPUS[entity_name]()
        tests = sorted(entity.tests)
        individual = {t: product_test.is_actual(entity, t) for t in tests}
        cert = product_test.meet_actual(entity, tests, config.samples, stream)
        results[entity_name] = {
            "state": entity.state,
            "tests": individual,
            "meet_actual": cert.actual,
            "trials": cert.trials,
            "positives": cert.positives,
            "failure_frequency": (cert.trials - cert.positives) / cert.trials,
        }
    return results


def _run_epr(config: ScenarioConfig, rng: np.random.Generator) -> dict[str, Any]:
    """Measure-on-B-predict-A protocol."""
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
    """Cloning obstruction for a state pair."""
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


def _walk(tree: dict[str, Any], prefix: str = "") -> Iterator[tuple[str, int | None, Any]]:
    """In key order, ``(path, None, value)`` for a scalar leaf, ``(path, None, list)``
    for a flat list and ``(path, i, row)`` for row i of a list of rows."""
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _walk(value, path + ".")
        elif isinstance(value, list) and value and isinstance(value[0], list):
            for i, row in enumerate(value):
                yield path, i, row
        else:
            yield path, None, value


def _fmt(v: Any) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _emit_text(report: Report) -> str:
    lines = [f"scenario: {report.scenario}   seed: {report.seed}   "
             f"samples: {report.config['samples']}   version: {report.version}"]
    for path, row, values in _walk(_canonical(report.results)):
        index = "" if row is None else f"[{row}]"
        if isinstance(values, list):  # a row is space-separated, a flat list comma-separated
            values = ("  " if row is not None else ", ").join(map(_fmt, values))
        lines.append(f"  {path}{index} = {_fmt(values)}")
    return "\n".join(lines) + "\n"


def _emit_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("section", "row", "col", "value"))
    for path, row, values in _walk(_canonical(report.results)):
        cells = enumerate(values) if isinstance(values, list) else [("", values)]  # a scalar: no index
        for i, v in cells:
            index = (i, "") if row is None else (row, i)  # the entries of a row are its columns
            writer.writerow((path, *index, str(v).lower() if isinstance(v, bool) else str(v)))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# command line

def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _names(text: str) -> list[str]:
    return [x.strip() for x in text.split(",")]


def _flag_options(param: Param) -> dict[str, Any]:
    if param.kind == "bool":
        return {"action": "store_true", "default": None}
    if param.kind == "choice":
        return {"choices": param.choices}
    return {"type": {"int": int, "float": float, "angles": _floats, "subset": _names}[param.kind]}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seplab",
        description="seeded separability / CHSH / product-test scenario runner",
    )
    parser.add_argument("--version", action="version", version=f"seplab {__version__}")
    subs = parser.add_subparsers(dest="scenario", required=True)
    for scenario, params in PARAMS.items():
        sub = subs.add_parser(scenario, help=_RUNNERS[scenario].__doc__)
        sub.add_argument("--config", metavar="FILE", help="JSON config file (flags override)")
        sub.add_argument("--format", choices=("json", "text", "csv"), default="json")
        sub.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
        for param in (SEED, SAMPLES, *params):
            sub.add_argument(param.flag, dest=param.name, help=param.help, **_flag_options(param))
    return parser


def config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    """Overlay the flags on the config file's document (if any) and validate
    the result once."""
    doc: Any = {"scenario": args.scenario}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # malformed JSON or UTF-8, deep nesting
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        if doc.get("scenario", args.scenario) != args.scenario:
            raise ConfigError(
                f"config file names scenario {doc['scenario']!r}, "
                f"command line says {args.scenario!r}"
            )
    flags = {
        param.name: getattr(args, param.name)
        for param in PARAMS[args.scenario]
        if getattr(args, param.name) is not None
    }
    params = doc.get("params")
    if flags and (params is None or isinstance(params, dict)):
        doc["params"] = {**(params or {}), **flags}
    for param in (SEED, SAMPLES):
        if getattr(args, param.name) is not None:
            doc[param.name] = getattr(args, param.name)
    return config_from_dict(doc)


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
    except SeplabError as exc:
        print(f"seplab: error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
