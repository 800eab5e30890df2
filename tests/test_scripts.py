import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS, "no scripts/*.py found"


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_runs_and_prints(script):
    # the scripts import seplab from the source tree, not an installed copy
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


SWEEP = ROOT / "scripts" / "witness_dimension_sweep.py"


def test_witness_sweep_passes_up_to_dim_64():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(SWEEP), "--max-dim", "8", "--trials", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].split()[:2] == ["8x", "8"]  # both forms at dim 64


def test_witness_sweep_exits_1_on_a_residual_over_its_bound(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("witness_dimension_sweep", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    monkeypatch.setattr(sweep, "RESIDUAL_BOUND", 0.0)
    monkeypatch.setattr(sys, "argv", [str(SWEEP), "--max-dim", "2", "--trials", "1"])
    assert sweep.main() == 1
    assert capsys.readouterr().err.startswith("FAIL: worst residual")
