"""Self-tests of the benchmark itself (not of seplab).

    python3 -m pytest bench/test_bench.py -q

They sit outside the package's test paths, so the package's own suite does
not collect them.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _describe(op) -> bytes:
    """Every input of an op, arrays included, as bytes."""

    def flat(x):
        if hasattr(x, "tobytes"):
            return x.tobytes()
        if isinstance(x, dict):
            return b"{" + b",".join(flat(k) + b":" + flat(v) for k, v in sorted(x.items())) + b"}"
        if isinstance(x, (list, tuple)):
            return b"[" + b",".join(flat(v) for v in x) + b"]"
        return repr(x).encode()

    return flat((op.index, op.kind, op.params, op.probe))


def test_runner_knows_every_workload():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_op_list(name):
    cls = workloads.WORKLOADS[name]
    first = [_describe(cls(7).op(i)) for i in range(40)]
    again = [_describe(cls(7).op(i)) for i in range(40)]
    other = [_describe(cls(8).op(i)) for i in range(40)]
    assert first == again
    assert first != other
    assert sum(a != b for a, b in zip(first, other)) == len(first)


def test_sizes_spread_over_the_range():
    # Every model of the coincidence cycle gets sizes across the whole range.
    w = workloads.Coincidence(3)
    for model in range(4):
        ops = [w.op(2 * (4 * j + model) + 1).params["samples"] for j in range(16)]
        slices = {min(7, int(8 * math.log(n / 1e3) / math.log(1e3))) for n in ops}
        assert slices == set(range(8))
    assert w.op(1).params["samples"] == 10**6  # largest op first: peak memory is fixed early


@pytest.mark.parametrize("n", [100, 101, 109, 110, 150, 257, 1000])
def test_p90_leaves_ten_beyond(n):
    values = [float(v) for v in range(n)]
    cut = run.p90(values)
    assert run.beyond_p90(values) == n - math.ceil(0.9 * n) >= 10
    assert sum(v <= cut for v in values) >= 0.9 * n


def test_smallest_run_satisfies_p90_rule():
    n = run.MIN_PASSES * min(w.pass_ops for w in workloads.WORKLOADS.values())
    assert n - math.ceil(0.9 * n) >= 10


def test_self_times_on_nested_tree():
    # op 0: root [0, 100] with children a [10, 40] and b [50, 90];
    # a has child c [20, 30]; b has children d [55, 70] and e [75, 80].
    spans = [
        (2, 1, 0, "hilbert", "c", 20, 30),
        (1, 0, 0, "measurement", "a", 10, 40),
        (4, 3, 0, "hilbert", "d", 55, 70),
        (5, 3, 0, "hilbert", "e", 75, 80),
        (3, 0, 0, "bipartite", "b", 50, 90),
        (0, None, 0, "bench", "op", 0, 100),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 30, 1: 20, 2: 10, 3: 20, 4: 15, 5: 5}
    assert sum(selfs.values()) == 100
    assert tracing.inclusive_ns(spans, {"a", "c"}) == 30
    assert tracing.inclusive_ns(spans, {"c", "d"}) == 25


def test_overlapping_children_count_once():
    spans = [(1, 0, 0, "x", "d", 10, 30), (2, 0, 0, "x", "e", 20, 40), (0, None, 0, "bench", "op", 0, 50)]
    assert tracing.self_times(spans)[0] == 20


def _bindings():
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


def test_traced_run_restores_every_binding():
    w = workloads.Witness(5)
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _bindings() != before
        for i in range(3):
            tracer.time_op(i, w.execute, w.op(i))
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # each op: one verdict inside the aerts scenario plus the batch of reads
    assert tracer.calls["separation.separation_verdict"] == 3 * (1 + 2 * w.reads_per_joint)


def test_wrappers_reach_every_binding_site():
    import seplab.bipartite
    import seplab.hilbert

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert seplab.bipartite.tensor_op is seplab.hilbert.tensor_op
        assert seplab.bipartite.tensor_op.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(seplab.bipartite.tensor_op, "__wrapped__")


def test_layer_shares_account_for_op_time():
    w = workloads.Spectral(2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i in range(4):
            tracer.time_op(i, w.execute, w.op(i))
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer, 4, 1)
    shares = sum(v for k, (v, _) in m.items() if k.endswith(".share"))
    assert shares == pytest.approx(1.0, abs=1e-12)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "trials", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_names_what_the_run_prints():
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    w = workloads.Trials(1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.time_op(0, w.execute, w.op(0))
    finally:
        tracer.uninstall()
    layer = tracing.layer_metrics(tracer, 1, 1)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb"
    }
