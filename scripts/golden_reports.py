#!/usr/bin/env python3
"""Golden report corpus: one sha256 per (config, format) over a fixed grid.

The (config, seed, version) contract says a report's bytes change only with
``__version__``.  ``tests/golden_reports.json`` records the digests of a fixed
grid of configs in every output format, with the package and numpy versions
they were taken under, and ``tests/test_golden_reports.py`` checks them.

    python scripts/golden_reports.py           # print the digests, write nothing
    python scripts/golden_reports.py --write   # regenerate tests/golden_reports.json

Regenerate only together with a version bump.
"""

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np

from seplab import __version__, cli

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden_reports.json"
FORMATS = ("json", "text", "csv")
OFF_GRID = {"angles_a": [0.3, 1.1], "angles_b": [0.7, 2.9]}


def grid() -> list[dict]:
    """Config documents: every scenario at its defaults at three seeds, aerts
    with random and larger pairs and with basis projectors at unequal dims,
    chsh on every named state, each model at off-grid angles, epr on
    ``product`` with Z,X,Y, and three more no-cloning pairs."""
    configs = [
        {"scenario": s, "seed": seed, "params": {}} for s in cli.SCENARIOS for seed in (0, 7, 123)
    ]
    aerts = [
        {"random_pair": True},
        {"random_pair": True, "dim_a": 3, "dim_b": 4, "rank_a": 2, "rank_b": 1},
        {"random_pair": True, "dim_a": 8, "dim_b": 8, "rank_a": 3, "rank_b": 5},
        {"dim_a": 2, "dim_b": 5, "rank_b": 3},
        {"dim_a": 6, "dim_b": 3, "rank_a": 4, "rank_b": 2},
        {"dim_a": 8, "dim_b": 8, "rank_a": 7, "rank_b": 1},
    ]
    configs += [{"scenario": "aerts", "seed": 11, "params": p} for p in aerts]
    configs += [
        {"scenario": "chsh", "seed": 5, "params": {"state": s}}
        for s in cli.PARAMS["chsh"][0].choices
    ]
    configs += [
        {"scenario": "models", "seed": 5, "params": {"model": m, **OFF_GRID}}
        for m in cli.PARAMS["models"][0].choices
    ]
    configs.append(
        {"scenario": "epr", "seed": 5, "params": {"state": "product", "observables": ["Z", "X", "Y"]}}
    )
    configs += [
        {"scenario": "no-cloning", "seed": 0, "params": {"state_a": a, "state_b": b}}
        for a, b in (("plus", "minus"), ("singlet", "psi-plus"), ("one", "plus"))
    ]
    return configs


def digests(config: dict) -> dict[str, str]:
    """sha256 of the config's report in every format."""
    report = cli.run(cli.config_from_dict(config))
    return {f: hashlib.sha256(cli.emit(report, f).encode()).hexdigest() for f in FORMATS}


def corpus() -> dict:
    reports = [
        {"config": config, "format": fmt, "sha256": digest}
        for config in grid()
        for fmt, digest in digests(config).items()
    ]
    return {"version": __version__, "numpy": np.__version__, "reports": reports}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help=f"write {GOLDEN.name}")
    args = parser.parse_args()
    doc = corpus()
    if args.write:
        GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(doc['reports'])} digests to {GOLDEN}")
        return
    recorded = {}
    if GOLDEN.exists():
        recorded = {
            (json.dumps(r["config"], sort_keys=True), r["format"]): r["sha256"]
            for r in json.loads(GOLDEN.read_text(encoding="utf-8"))["reports"]
        }
    changed: dict[str, list[str]] = {}  # config -> formats whose digest differs
    for r in doc["reports"]:
        key = json.dumps(r["config"], sort_keys=True)
        print(r["sha256"], r["format"], key)
        if recorded.get((key, r["format"])) != r["sha256"]:
            changed.setdefault(key, []).append(r["format"])
    for key, formats in changed.items():
        print("changed", ",".join(formats), key)
    same = len(doc["reports"]) - sum(len(formats) for formats in changed.values())
    print(f"{same} of {len(doc['reports'])} digests match {GOLDEN.name}, "
          f"{len(changed)} configs changed (seplab {__version__}, numpy {np.__version__})")

if __name__ == "__main__":
    main()
