"""The benchmark's workloads still run on the package as it stands.

``bench/workloads.py`` calls seplab by name (scenarios, PVM builders, joint
tables, witness and verdict functions) and checks each op's physics.  This
runs every workload's warm-up ops and its op 0 (the largest op of its first
kind) through ``execute``, ``check`` and ``fingerprint``, so a change to the
package that breaks a name or a result the benchmark relies on fails here.
The traced run of ``bench/run.py --trace 1`` wraps seplab's functions and
methods with ``bench/tracing.py``, and its wrapper of ``Pvm.__post_init__``
reads ``.projectors`` before the PVM is validated; the same ops run under an
installed ``Tracer`` too.  The modules are loaded from their files and
nothing under ``bench/`` is modified.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads").WORKLOADS
Tracer = _load("tracing").Tracer


def _ops(workload):
    return workload.warmup_ops() + [workload.op(0)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_ops_run_and_pass_their_checks(name):
    workload = WORKLOADS[name](seed=0)
    for op in _ops(workload):
        output = workload.execute(op)
        assert workload.check(op, output) == [], (name, op.index, op.kind)
        assert isinstance(workload.fingerprint(op, output), bytes)


def _bindings() -> dict:
    """Every object bound in a seplab module namespace or class dict."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "seplab" or name.startswith("seplab."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for key, member in vars(value).items():
                        out[(name, attr, key)] = member
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_ops_pass_their_checks_when_traced(name):
    workload = WORKLOADS[name](seed=0)
    ops = _ops(workload)
    untraced = [workload.fingerprint(op, workload.execute(op)) for op in ops]
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        for op, fingerprint in zip(ops, untraced):
            output = tracer.time_op(op.index, workload.execute, op)
            assert workload.check(op, output) == [], (name, op.index, op.kind)
            assert workload.fingerprint(op, output) == fingerprint, (name, op.index, op.kind)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.calls["measurement.Pvm.__post_init__"] > 0
