"""In-memory span tracing of seplab's layers, installed from outside the package.

seplab modules import names directly (``from .hilbert import tensor_op``), so
a wrapper placed only in a function's home module would miss most calls.
``Tracer.install`` therefore replaces every binding of a traced function in
every loaded ``seplab.*`` module namespace, plus the class methods listed in
``METHODS``, and ``uninstall`` puts every original object back.

A span is ``(span_id, parent_id, op_id, layer, name, t0_ns, t1_ns)``; spans
of one benchmark op share its ``op_id``.  A layer is the home module of the
traced callable.  Calls listed in ``COUNT_ONLY`` happen once per trial or per
outcome inside their own layer: they are counted, not timed, so the cost of a
span does not swamp the work it measures.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "cli",
    "product_test",
    "bell",
    "classical_models",
    "separation",
    "bipartite",
    "measurement",
    "hilbert",
)
BENCH_LAYER = "bench"

# (module, class, method) wrapped on the class itself.  Missing entries are
# skipped, so the tracer keeps working when a later version drops a method.
METHODS = (
    ("product_test", "TestableEntity", "__post_init__"),
    ("measurement", "Pvm", "__post_init__"),
    ("bipartite", "JointMeasurement", "probability_table"),
    ("bipartite", "JointMeasurement", "projector"),
    ("bell", "QuantumCoincidenceModel", "__init__"),
)
# Every coincidence-model class also gets these methods wrapped where it
# defines them itself.
MODEL_METHODS = ("sample_many", "exact_distribution")

# Called once per trial inside its own layer; meet_actual's ``trials``
# argument already counts it, so it is left unwrapped.
UNTRACED = frozenset({"product_test.product_test"})

COUNT_ONLY = frozenset(
    {
        "product_test.TestableEntity.__post_init__",
        "bipartite.JointMeasurement.projector",
        "measurement.born_probability",
    }
)


def _outcome_pairs(args, kwargs) -> int:
    k = len(args[0].projectors)
    return k * (k - 1) // 2


def _arg(position: int, keyword: str):
    def read(args, kwargs) -> int:
        if keyword in kwargs:
            return int(kwargs[keyword])
        return int(args[position]) if len(args) > position else 0

    return read


# Counts taken from a call's arguments: traced name -> (counter, reader).
ARG_COUNTS = {
    "measurement.Pvm.__post_init__": ("measurement.ortho_pairs", _outcome_pairs),
    "product_test.meet_actual": ("product_test.pt_trials", _arg(2, "trials")),
    "product_test.epr_protocol": ("product_test.epr_trials", _arg(2, "trials")),
}
# Model sample_many(self, i, j, n, rng): n draws.
_DRAWS = _arg(3, "n")


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, int, str, str, int, int]] = []
        self.calls: Counter[str] = Counter()  # traced name -> calls
        self.tallies: Counter[str] = Counter()  # quantities read from calls
        self.op_id = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def end(self, sid: int, parent: int | None, layer: str, name: str, t0: int, t1: int) -> None:
        self._stack.pop()
        self.spans.append((sid, parent, self.op_id, layer, name, t0, t1))

    def time_op(self, op_id: int, fn, *args):
        """Run one benchmark op as a root span of the bench layer."""
        self.op_id = op_id
        sid, parent = self.begin()
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.end(sid, parent, BENCH_LAYER, "op", t0, time.perf_counter_ns())

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        calls, tallies = self.calls, self.tallies
        arg_count = ARG_COUNTS.get(name)
        if name.endswith(".sample_many"):
            arg_count = ("bell.draws", _DRAWS)

        if name in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        begin, end, clock = self.begin, self.end, time.perf_counter_ns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[name] += 1
            if arg_count is not None:
                tallies[arg_count[0]] += arg_count[1](args, kwargs)
            sid, parent = begin()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end(sid, parent, layer, name, t0, clock())
            if name == "cli.emit":
                tallies["cli.report_bytes"] += len(result.encode())
            return result

        return spanned

    def _targets(self, modules: dict[str, object]):
        """(owner, attribute, original, layer, traced name) for every target."""
        by_function: dict[int, tuple[str, str]] = {}
        for layer in LAYERS:
            module = modules.get(f"seplab.{layer}")
            if module is None:
                continue
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and f"{layer}.{attr}" not in UNTRACED
                ):
                    by_function[id(value)] = (layer, f"{layer}.{attr}")
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in by_function and inspect.isfunction(value):
                    layer, name = by_function[id(value)]
                    yield module, attr, value, layer, name

        methods = list(METHODS)
        base = getattr(modules.get("seplab.bell"), "CoincidenceModel", None)
        for layer in ("bell", "classical_models"):
            module = modules.get(f"seplab.{layer}")
            for cls in vars(module).values() if module and base else ():
                if inspect.isclass(cls) and issubclass(cls, base) and cls.__module__ == module.__name__:
                    methods += [(layer, cls.__name__, m) for m in MODEL_METHODS]
        for layer, cls_name, method in dict.fromkeys(methods):
            cls = getattr(modules.get(f"seplab.{layer}"), cls_name, None)
            if cls is not None and method in vars(cls):
                yield cls, method, vars(cls)[method], layer, f"{layer}.{cls_name}.{method}"

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "seplab" or name.startswith("seplab."))
        }
        wrappers: dict[int, object] = {}
        for owner, attr, original, layer, name in list(self._targets(modules)):
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = wrappers[id(original)] = self._wrap(original, layer, name)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic

def self_times(spans) -> dict[int, int]:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (overlapping children count once)."""
    children: dict[int | None, list[tuple[int, int]]] = defaultdict(list)
    for _sid, parent, _op, _layer, _name, t0, t1 in spans:
        children[parent].append((t0, t1))
    out: dict[int, int] = {}
    for sid, _parent, _op, _layer, _name, t0, t1 in spans:
        covered, reach = 0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (t1 - t0) - covered
    return out


def inclusive_ns(spans, names) -> int:
    """Total duration of spans named in ``names``, counting a span only when
    no ancestor also carries one of those names (no double counting)."""
    names = frozenset(names)
    by_id = {s[0]: s for s in spans}
    total = 0
    for sid, parent, _op, _layer, name, t0, t1 in spans:
        if name not in names:
            continue
        nested = False
        while parent is not None:
            ancestor = by_id[parent]
            if ancestor[4] in names:
                nested = True
                break
            parent = ancestor[1]
        if not nested:
            total += t1 - t0
    return total


def layer_metrics(tracer: Tracer, n_ops: int, untraced_ns: int) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics from one traced run of ``n_ops`` ops whose
    untraced run of the same ops took ``untraced_ns`` of op time."""
    spans, calls, tallies = tracer.spans, tracer.calls, tracer.tallies
    selfs = self_times(spans)
    op_ns = sum(t1 - t0 for _s, parent, _o, _l, _n, t0, t1 in spans if parent is None)
    self_by_layer: Counter[str] = Counter()
    calls_by_layer: Counter[str] = Counter()
    for sid, _p, _o, layer, _n, _t0, _t1 in spans:
        self_by_layer[layer] += selfs[sid]
    for name, value in calls.items():
        calls_by_layer[name.partition(".")[0]] += value

    def per_op(x: float) -> float:
        return x / n_ops

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def ms(names) -> float:
        return per_op(inclusive_ns(spans, names) / 1e6)

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (per_op(calls_by_layer[layer]), "calls/op")
        m[f"{layer}.self_ms"] = (per_op(self_by_layer[layer] / 1e6), "ms/op")
        m[f"{layer}.share"] = (ratio(self_by_layer[layer], op_ns), "ratio")
    m["bench.self_ms"] = (per_op(self_by_layer[BENCH_LAYER] / 1e6), "ms/op")
    m["bench.share"] = (ratio(self_by_layer[BENCH_LAYER], op_ns), "ratio")

    names = {s[4] for s in spans}
    sample_many = {n for n in names if n.endswith(".sample_many")}
    pt_trials = tallies["product_test.pt_trials"]
    trials = pt_trials + tallies["product_test.epr_trials"]
    trial_ns = inclusive_ns(spans, {"product_test.meet_actual", "product_test.epr_protocol"})
    draws = tallies["bell.draws"]
    tables = calls["bipartite.JointMeasurement.probability_table"]
    m.update(
        {
            "product_test.trials": (per_op(trials), "trials/op"),
            "product_test.us_per_trial": (ratio(trial_ns / 1e3, trials), "us/trial"),
            "product_test.validations_per_trial": (
                ratio(calls["product_test.TestableEntity.__post_init__"], pt_trials),
                "calls/trial",
            ),
            "bell.draws": (per_op(draws), "draws/op"),
            "bell.ns_per_draw": (ratio(inclusive_ns(spans, sample_many), draws), "ns/draw"),
            "classical_models.sample_ms": (
                ms({n for n in sample_many if n.startswith("classical_models.")}),
                "ms/op",
            ),
            "bell.exact_ms": (ms({"bell.chsh_exact", "bell.no_signaling_residual"}), "ms/op"),
            "measurement.pvm_builds": (per_op(calls["measurement.Pvm.__post_init__"]), "calls/op"),
            "measurement.pvm_build_ms": (ms({"measurement.Pvm.__post_init__"}), "ms/op"),
            "measurement.ortho_pairs": (per_op(tallies["measurement.ortho_pairs"]), "pairs/op"),
            "measurement.born_calls": (per_op(calls["measurement.born_probability"]), "calls/op"),
            "hilbert.eigh_calls": (per_op(calls["hilbert.spectral_decomposition"]), "calls/op"),
            "hilbert.spectral_ms": (ms({"hilbert.spectral_decomposition"}), "ms/op"),
            "hilbert.kron_calls": (
                per_op(calls["hilbert.tensor_op"] + calls["hilbert.tensor_vec"]),
                "calls/op",
            ),
            "hilbert.kron_ms": (ms({"hilbert.tensor_op", "hilbert.tensor_vec"}), "ms/op"),
            "bipartite.table_ms": (ms({"bipartite.JointMeasurement.probability_table"}), "ms/op"),
            "bipartite.couple_projectors_per_table": (
                ratio(calls["bipartite.JointMeasurement.projector"], tables),
                "calls/table",
            ),
            "separation.witness_ms": (ms({"separation.construct_witness"}), "ms/op"),
            "separation.verdict_ms": (ms({"separation.separation_verdict"}), "ms/op"),
            "cli.config_ms": (ms({"cli.build_config"}), "ms/op"),
            "cli.emit_ms": (ms({"cli.emit"}), "ms/op"),
            "cli.report_bytes": (per_op(tallies["cli.report_bytes"]), "bytes/op"),
            "trace.overhead": (ratio(op_ns, untraced_ns), "ratio"),
        }
    )
    return m
