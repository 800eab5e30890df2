"""seplab benchmark runner: one process, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a seplab checkout; the package is imported from
``src/``.  The client generates each op from the workload seed, times the
calls into seplab's public entry points, checks every output against physics
invariants, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the op list
runs in passes, a seeded sample of ops must give the same bytes in every
pass, and the metrics are the end-to-end ones.  With ``--trace 1`` each
stretch of ops runs once untraced and once with every seplab layer wrapped,
and the metrics are the per-layer ones.  A line before the result holds the
run record (versions, thread settings, code size, sample counts).

Workloads and the reasons for them are in WORKLOADS.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Matrices are at most 64x64: more BLAS threads only add scheduler noise.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = ("trials", "coincidence", "spectral", "witness")
MIN_PASSES = 3  # passes over the op list in an untraced run, at least
SETUP_SAMPLES = 5  # this process plus four fresh probe processes
MAX_RUN_S = 150.0  # stop adding ops past this, whatever --seconds says
CHUNK = 16  # ops generated ahead of each timed stretch


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile: n - ceil(0.9 n) values lie beyond it."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def beyond_p90(values: list[float]) -> int:
    cut = p90(values)
    return sum(1 for v in values if v > cut)


def _setup(workload_name: str, seed: int):
    """Import seplab and run the warm-up ops; returns (seconds, workload)."""
    t0 = time.perf_counter()
    import seplab  # noqa: F401  (timed: the import is part of set-up)

    import_s = time.perf_counter() - t0
    import workloads  # bench code, not timed

    workload = workloads.WORKLOADS[workload_name](seed)
    t1 = time.perf_counter()
    for op in workload.warmup_ops():
        workload.execute(op)
    return import_s + time.perf_counter() - t1, workload


def _probe_setup(workload_name: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload_name, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _run_record(args) -> dict:
    import numpy
    import seplab

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "seplab").glob("*.py"))
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seplab_version": seplab.__version__,
        "git_commit": _git_commit(),
        "src_seplab_lines": src_lines,
        "load": "closed loop, 1 client, 1 process",
    }


class Run:
    """One pass over the op list: timings, checks and probe fingerprints."""

    def __init__(self, workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.latencies_ns: list[int] = []
        self.wall_ns = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.probes: dict[int, bytes] = {}

    def fail(self, op_index: int, kind: str, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{self.workload.name} op {op_index} ({kind}): {message}")

    def chunk(self, ops) -> None:
        """Execute ops back to back, timing each, then check them."""
        workload, tracer = self.workload, self.tracer
        done = []
        clock = time.perf_counter_ns
        start = clock()
        for op in ops:
            t0 = clock()
            try:
                if tracer is None:
                    output = workload.execute(op)
                else:
                    output = tracer.time_op(op.index, workload.execute, op)
                error = None
            except Exception as exc:  # a failed op is counted, not fatal
                output, error = None, f"raised {type(exc).__name__}: {exc}"
            self.latencies_ns.append(clock() - t0)
            done.append((op, output, error))
        self.wall_ns += clock() - start
        for op, output, error in done:
            self.attempted += 1
            if error is None:
                try:
                    found = workload.check(op, output)
                    if op.probe:
                        self.probes[op.index] = workload.fingerprint(op, output)
                except Exception as exc:
                    found = [f"check raised {type(exc).__name__}: {exc}"]
                if found:
                    self.fail(op.index, op.kind, "; ".join(found))
            else:
                self.fail(op.index, op.kind, error)

    def stretches(self):
        """The workload's pass, as lists of up to CHUNK ops generated ahead."""
        count = self.workload.pass_ops
        for start in range(0, count, CHUNK):
            yield [self.workload.op(i) for i in range(start, min(start + CHUNK, count))]

    def compare_probes(self, first: "Run") -> None:
        """Determinism probe: a sampled op that gave other bytes than in
        ``first``, from the same config and seed, fails."""
        for index, fingerprint in self.probes.items():
            if first.probes.get(index, fingerprint) != fingerprint:
                self.fail(index, "probe", "same config and seed gave different bytes")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    if not (SRC / "seplab" / "__init__.py").is_file():
        print(f"bench: no seplab package under {SRC}; run from a seplab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    started = time.perf_counter()

    setup_s, workload = _setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    import seplab

    if not Path(seplab.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported seplab from {seplab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import gc

    import tracing

    record = _run_record(args)
    gc.collect()
    if args.trace == 0:
        # The same fixed op list runs pass after pass, seconds apart, until
        # the timed wall reaches --seconds; the throughput is the median over
        # passes.  On a shared 2-vCPU KVM guest, CPU-bound code ran up to
        # twice as slow for seconds at a time: a slow stretch then costs one
        # pass, not the result.  A pass has a fixed length, not a time
        # budget, so a slow machine cannot change the op mix it measures.
        runs: list[Run] = []
        while len(runs) < MIN_PASSES or (
            sum(r.wall_ns for r in runs) < args.seconds * 1e9
            and time.perf_counter() - started < MAX_RUN_S
        ):
            run = Run(workload)
            for ops in run.stretches():
                run.chunk(ops)
            if runs:
                run.compare_probes(runs[0])
            runs.append(run)
        setups = [setup_s] + [_probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        lat_ms = [ns / 1e6 for run in runs for ns in run.latencies_ns]
        rates = [(run.attempted - run.failed) / (run.wall_ns / 1e9) for run in runs]
        metrics = {
            "throughput_ops_s": _metric(statistics.median(rates), "ops/s"),
            "latency_p50_ms": _metric(statistics.median(lat_ms), "ms"),
            "latency_p90_ms": _metric(p90(lat_ms), "ms"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        record.update(
            latency_samples=len(lat_ms),
            samples_beyond_p90=beyond_p90(lat_ms),
            passes=len(runs),
            pass_throughputs=rates,
            setup_samples_s=setups,
            determinism_probes=len(runs[0].probes) * (len(runs) - 1),
        )
    else:
        # Each stretch of ops runs twice, once untraced and once traced, and
        # the side that runs first alternates: the second run of an op finds
        # warm caches, which must favour neither side of the overhead ratio.
        tracer = tracing.Tracer()
        plain, traced = Run(workload), Run(workload, tracer)

        def traced_chunk(ops):
            tracer.install()
            try:
                traced.chunk(ops)
            finally:
                tracer.uninstall()

        number = 0
        while not plain.attempted or (
            plain.wall_ns < args.seconds * 0.5e9 and time.perf_counter() - started < MAX_RUN_S
        ):
            for ops in plain.stretches():
                sides = [plain.chunk, traced_chunk]
                for side in sides[::-1] if number % 2 else sides:
                    side(ops)
                number += 1
        traced.compare_probes(plain)
        layer = tracing.layer_metrics(tracer, traced.attempted, sum(plain.latencies_ns))
        metrics = {name: _metric(value, unit) for name, (value, unit) in layer.items()}
        shares = sum(v for k, (v, _) in layer.items() if k.endswith(".share"))
        record.update(
            spans=len(tracer.spans),
            shares_total=shares,
            trace_file=str(_write_spans(args, tracer).relative_to(ROOT)),
        )
        runs = [plain, traced]

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    record["ops_per_pass"] = workload.pass_ops
    record["fail_ratio"] = _metric(failed / attempted, "ratio")
    record["problems"] = [p for r in runs for p in r.problems]
    for problem in record["problems"]:
        print(problem, file=sys.stderr)
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def _write_spans(args, tracer) -> Path:
    """Write the traced run's spans and call counts as one JSON file."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-{args.seed}.json"
    fields = ("id", "parent", "op", "layer", "name", "t0_ns", "t1_ns")
    with path.open("w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": fields,
                "spans": tracer.spans,
                "calls": dict(tracer.calls),
                "tallies": dict(tracer.tallies),
            },
            fh,
        )
    return path


if __name__ == "__main__":
    sys.exit(main())
