"""The determinism contract as a check: a fixed (config, seed, version) triple
gives the bytes recorded in ``golden_reports.json``.

A change to any recorded report's bytes must come with a ``__version__``
bump and a regenerated corpus (``python scripts/golden_reports.py --write``).
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from seplab import __version__, cli

GOLDEN = json.loads(Path(__file__).with_name("golden_reports.json").read_text(encoding="utf-8"))
FORMATS = ("json", "text", "csv")


def test_golden_reports_are_byte_identical():
    assert GOLDEN["version"] == __version__, (
        f"golden corpus recorded at {GOLDEN['version']}, package is {__version__}: "
        "regenerate it with scripts/golden_reports.py --write"
    )
    reports, changed = {}, []
    for entry in GOLDEN["reports"]:
        key = json.dumps(entry["config"], sort_keys=True)
        if key not in reports:
            reports[key] = cli.run(cli.config_from_dict(entry["config"]))
        text = cli.emit(reports[key], entry["format"])
        if hashlib.sha256(text.encode()).hexdigest() != entry["sha256"]:
            changed.append(f"{entry['format']} {key}")
    numpy_note = ""
    if GOLDEN["numpy"] != np.__version__:
        numpy_note = f" (recorded under numpy {GOLDEN['numpy']}, running numpy {np.__version__})"
    assert not changed, (
        f"output bytes changed without a version bump{numpy_note} in {len(changed)} reports: "
        + "; ".join(changed)
    )


def test_golden_grid_covers_every_scenario_and_format():
    covered = {(e["config"]["scenario"], e["format"]) for e in GOLDEN["reports"]}
    assert covered == {(s, f) for s in cli.SCENARIOS for f in FORMATS}
    per_config = {}
    for e in GOLDEN["reports"]:
        per_config.setdefault(json.dumps(e["config"], sort_keys=True), set()).add(e["format"])
    assert all(formats == set(FORMATS) for formats in per_config.values())


def test_golden_aerts_reports_keep_the_witness_verdict():
    configs = {json.dumps(e["config"], sort_keys=True) for e in GOLDEN["reports"]}
    aerts = [json.loads(c) for c in configs if json.loads(c)["scenario"] == "aerts"]
    assert aerts
    for config in aerts:
        results = cli.run(cli.config_from_dict(config)).results
        assert results["max_residual"] < 1e-10, config
        assert results["separate"] is False, config
        assert set(results["missing_couples"]) == {"+,+", "-,-"}, config
