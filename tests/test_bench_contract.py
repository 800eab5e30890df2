"""The benchmark's workloads still run on the package as it stands.

``bench/workloads.py`` calls seplab by name (scenarios, PVM builders, joint
tables, witness and verdict functions) and checks each op's physics.  This
runs every workload's warm-up ops and its op 0 (the largest op of its first
kind) through ``execute``, ``check`` and ``fingerprint``, so a change to the
package that breaks a name or a result the benchmark relies on fails here.
The module is loaded from its file and nothing under ``bench/`` is modified.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_ops_run_and_pass_their_checks(name):
    workload = WORKLOADS[name](seed=0)
    for op in workload.warmup_ops() + [workload.op(0)]:
        output = workload.execute(op)
        assert workload.check(op, output) == [], (name, op.index, op.kind)
        assert isinstance(workload.fingerprint(op, output), bytes)
