"""Layer attribution from outside the program: wrappers, spans, self time.

The traced run patches the entry points of each ``repro.*`` layer where
their callers look them up, records one span per call (name, start, end,
parent span, op id) in memory, and folds the spans into per-layer self
time: a span's duration minus the part of it that its child spans cover.
Nothing under ``src/`` changes; the wrappers are removed after the run.

Class attributes are patched before the traced ops build any ``Network``
or agent, because the program caches bound methods (delivery plans hold
``self._deliver``, the trace holds ``collector.on_record``).
"""

from __future__ import annotations

import functools
import gc
import gzip
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

#: Module -> layer, by longest matching dotted prefix. Every ``repro``
#: module the four workloads import must resolve here, and so must each
#: wrapped callable's ``module.qualname`` to its bucket's layer
#: (selftest.py checks both). ``repro.net.network`` holds both delivery
#: and routing, so its routing queries are listed by name.
MODULE_LAYERS: Dict[str, str] = {
    "repro": "runner",
    "repro.env": "runner",
    "repro.runner": "runner",
    "repro.fleet": "runner",          # spec/v1 wire encode, the fingerprint
    "repro.experiments": "experiments",
    "repro.analysis": "experiments",
    "repro.oracle.fuzz": "experiments",  # runs one fuzz case
    "repro.topology": "topology",
    "repro.net": "net.delivery",
    "repro.net.routing": "net.routing",
    "repro.net.network.Network.source_tree": "net.routing",
    "repro.net.network.Network.distance": "net.routing",
    "repro.net.network.Network.rtt": "net.routing",
    "repro.net.network.Network.hops": "net.routing",
    "repro.mcast": "net.delivery",
    "repro.sim": "sim.scheduler",
    "repro.sim.trace": "sim.trace",
    "repro.sim.rng": "core.agent",
    "repro.core": "core.agent",
    "repro.metrics": "metrics",
    "repro.oracle": "oracle",
    "repro.herd": "herd",
    "repro.herd.metrics": "metrics",
}

#: "gc" is the interpreter's cyclic collector: its pauses are taken out
#: of whichever span they interrupt (the ops' Network/agent cycles make
#: them a sizeable share of the wall clock).
LAYERS = ("topology", "net.routing", "net.delivery", "sim.scheduler",
          "core.agent", "sim.trace", "metrics", "oracle", "herd",
          "experiments", "runner", "gc")

#: Self-time buckets (reported metric names) and the layer of each.
BUCKETS: Dict[str, str] = {
    "topology.build_s": "topology",
    "net.routing.self_s": "net.routing",
    "net.delivery.self_s": "net.delivery",
    "sim.scheduler.self_s": "sim.scheduler",
    "core.agent.self_s": "core.agent",
    "sim.trace.self_s": "sim.trace",
    "metrics.stream_s": "metrics",
    "metrics.rescan_s": "metrics",
    "metrics.merge_s": "metrics",
    "oracle.self_s": "oracle",
    "herd.construct_s": "herd",
    "herd.round_s": "herd",
    "experiments.construct_s": "experiments",
    "experiments.self_s": "experiments",
    "runner.fingerprint_s": "runner",
    "runner.self_s": "runner",
    "gc.collect_s": "gc",
}

AGENT = frozenset({"tree_fresh", "star_rounds", "fuzz_checked"})
SPEC = frozenset({"tree_fresh", "star_rounds", "herd_mega"})
ROUNDS = frozenset({"tree_fresh", "star_rounds"})
ALL = frozenset({"tree_fresh", "star_rounds", "fuzz_checked", "herd_mega"})
FUZZ = frozenset({"fuzz_checked"})
HERD = frozenset({"herd_mega"})
NONE: FrozenSet[str] = frozenset()


def layer_of(dotted: str) -> Optional[str]:
    """The layer of a module or ``module.qualname``, by longest prefix.

    The bare ``repro`` entry matches only the package itself, so a new
    subpackage is unmapped until the table names it.
    """
    parts = dotted.split(".")
    for end in range(len(parts), 1, -1):
        layer = MODULE_LAYERS.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return MODULE_LAYERS.get(dotted)


@dataclass(frozen=True)
class Wrap:
    """One patched callable: ``module.attr`` (``attr`` may be Class.meth)."""

    module: str
    attr: str
    bucket: str
    #: Workloads on which the call must fire; a silent wrapper there
    #: (e.g. after a rename) fails the traced run instead of reading 0.
    expect: FrozenSet[str]
    #: Extra bookkeeping: "record" counts retained trace rows and
    #: request/repair rows; "round_end" samples the retained trace size.
    hook: str = ""


# Besides the public entry points, the callbacks each layer hands to the
# scheduler (delivery events, agent timer expiries, herd wave handlers)
# are wrapped too; otherwise their time would read as scheduler time.
WRAPS: Tuple[Wrap, ...] = (
    Wrap("repro.topology.spec", "TopologySpec.build", "topology.build_s",
         AGENT),
    Wrap("repro.net.network", "Network.source_tree", "net.routing.self_s",
         AGENT),
    Wrap("repro.net.network", "Network.distance", "net.routing.self_s",
         AGENT),
    Wrap("repro.net.network", "Network.rtt", "net.routing.self_s", NONE),
    Wrap("repro.net.network", "Network.hops", "net.routing.self_s", NONE),
    Wrap("repro.net.network", "build_source_tree", "net.routing.self_s",
         AGENT),
    Wrap("repro.net.network", "Network.send", "net.delivery.self_s", AGENT),
    Wrap("repro.net.network", "Network.send_multicast",
         "net.delivery.self_s", AGENT),
    Wrap("repro.net.network", "Network.send_unicast", "net.delivery.self_s",
         NONE),
    Wrap("repro.net.network", "Network._deliver", "net.delivery.self_s",
         FUZZ),
    Wrap("repro.net.network", "Network._deliver_many",
         "net.delivery.self_s", ROUNDS),
    Wrap("repro.sim.scheduler", "EventScheduler.run", "sim.scheduler.self_s",
         NONE),
    Wrap("repro.sim.scheduler", "CalendarScheduler.run",
         "sim.scheduler.self_s", ALL),
    Wrap("repro.core.agent", "SrmAgent.receive", "core.agent.self_s", AGENT),
    Wrap("repro.core.agent", "SrmAgent.send_data", "core.agent.self_s",
         AGENT),
    Wrap("repro.core.agent", "SrmAgent.on_loss_detected",
         "core.agent.self_s", AGENT),
    Wrap("repro.core.agent", "SrmAgent.reset_recovery_state",
         "core.agent.self_s", ROUNDS),
    Wrap("repro.core.agent", "SrmAgent._request_timer_expired",
         "core.agent.self_s", AGENT),
    Wrap("repro.core.agent", "SrmAgent._repair_timer_expired",
         "core.agent.self_s", AGENT),
    Wrap("repro.sim.trace", "Trace.record", "sim.trace.self_s", ALL,
         hook="record"),
    Wrap("repro.metrics.collector", "MetricsCollector.on_record",
         "metrics.stream_s", ROUNDS),
    Wrap("repro.metrics.collector", "MetricsCollector.begin_round",
         "metrics.stream_s", ROUNDS),
    Wrap("repro.metrics.collector", "MetricsCollector.snapshot",
         "metrics.stream_s", ROUNDS),
    Wrap("repro.experiments.common", "analyze_loss_event",
         "metrics.rescan_s", ROUNDS),
    Wrap("repro.herd.engine", "analyze_loss_event", "metrics.rescan_s",
         NONE),
    Wrap("repro.metrics.bundle", "RunMetrics.merged", "metrics.merge_s",
         SPEC),
    Wrap("repro.oracle.base", "SessionOracleSuite._on_record",
         "oracle.self_s", FUZZ),
    Wrap("repro.oracle.base", "SessionOracleSuite.verify", "oracle.self_s",
         FUZZ, hook="round_end"),
    Wrap("repro.oracle.checkers", "SchedulerMonotonicityOracle.on_record",
         "oracle.self_s", FUZZ),
    Wrap("repro.oracle.checkers", "ScopeTtlOracle.on_record",
         "oracle.self_s", FUZZ),
    Wrap("repro.oracle.checkers", "RequestTimerOracle.on_record",
         "oracle.self_s", FUZZ),
    Wrap("repro.oracle.checkers", "RepairHolddownOracle.on_record",
         "oracle.self_s", FUZZ),
    Wrap("repro.oracle.checkers", "SuppressionOracle.on_record",
         "oracle.self_s", FUZZ),
    Wrap("repro.oracle.checkers", "DeliveryConsistencyOracle.on_record",
         "oracle.self_s", FUZZ),
    Wrap("repro.herd.engine", "HerdSimulation.__init__", "herd.construct_s",
         HERD),
    Wrap("repro.herd.engine", "HerdSimulation.run_round", "herd.round_s",
         HERD, hook="round_end"),
    Wrap("repro.herd.engine", "HerdSimulation._send_payload",
         "herd.round_s", HERD),
    Wrap("repro.herd.engine", "HerdSimulation._send_trigger",
         "herd.round_s", HERD),
    Wrap("repro.herd.engine", "HerdSimulation._payload_arrive",
         "herd.round_s", HERD),
    Wrap("repro.herd.engine", "HerdSimulation._trigger_arrive",
         "herd.round_s", HERD),
    Wrap("repro.herd.engine", "HerdSimulation._request_fire",
         "herd.round_s", HERD),
    Wrap("repro.herd.engine", "HerdSimulation._request_arrive",
         "herd.round_s", HERD),
    Wrap("repro.herd.engine", "HerdSimulation._repair_fire",
         "herd.round_s", HERD),
    Wrap("repro.herd.engine", "HerdSimulation._repair_arrive",
         "herd.round_s", HERD),
    Wrap("repro.experiments.common", "LossRecoverySimulation.__init__",
         "experiments.construct_s", ROUNDS),
    Wrap("repro.experiments.common", "LossRecoverySimulation.run_round",
         "experiments.self_s", ROUNDS, hook="round_end"),
    Wrap("repro.experiments.common", "run_experiment", "experiments.self_s",
         SPEC),
    Wrap("repro.oracle.fuzz", "run_fuzz_case", "experiments.self_s", FUZZ),
    Wrap("repro.runner.task", "Task.fingerprint", "runner.fingerprint_s",
         ALL),
    Wrap("repro.runner.executor", "ExperimentRunner.run", "runner.self_s",
         ALL),
)

#: Trace rows the record hook tallies per (op, ADU name): the fuzz
#: workload's useful-request/repair ratios come from these.
_RECOVERY_ROWS = {"send_request": 0, "send_repair": 1}


def _retained(instance: Any) -> int:
    """Rows a round's trace holds when the round ends."""
    trace = (instance.trace if hasattr(instance, "trace")
             else instance.network.trace)
    return len(trace.records)


def resolve(wrap: Wrap) -> Tuple[Any, str, Any]:
    """(owner object, attribute name, attribute as stored) of a Wrap."""
    owner: Any = importlib.import_module(wrap.module)
    *path, name = wrap.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name] if path else getattr(owner, name)


class Tracer:
    """Spans and per-bucket self time for one traced pass."""

    def __init__(self) -> None:
        self.bucket_names = list(BUCKETS)
        self.self_time = [0.0] * len(self.bucket_names)
        self.calls = [0] * len(WRAPS)
        #: Calls entering a bucket from outside it (e.g. routing queries
        #: not made by another routing call).
        self.entries = [0] * len(self.bucket_names)
        #: (span id, wrap index, start, end, parent span id, op id)
        self.spans: List[Tuple[int, int, float, float, int, int]] = []
        #: Sentinel frame: [span id, bucket, time covered by child spans].
        self.stack: List[List[Any]] = [[-1, -1, 0.0]]
        self.next_id = 0
        self.op = -1
        self.records = 0
        self.retained_peak = 0
        #: (op, row kind index, name) -> rows; for the fuzz ratios.
        self.recovery_rows: Dict[Tuple[int, int, Any], int] = {}
        self.gc_collections = 0
        self._gc_bucket = self.bucket_names.index("gc.collect_s")
        self._gc_started = 0.0
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Patch every WRAPS entry; a missing name raises (loudly)."""
        for index, wrap in enumerate(WRAPS):
            owner, name, raw = resolve(wrap)
            bucket = self.bucket_names.index(wrap.bucket)
            if isinstance(raw, classmethod):
                patched: Any = classmethod(
                    self._wrap(raw.__func__, index, bucket, wrap.hook))
            else:
                patched = self._wrap(raw, index, bucket, wrap.hook)
            self._saved.append((owner, name, raw))
            setattr(owner, name, patched)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        """Charge a collector pause to "gc", not to the span it hit."""
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_started
        self.gc_collections += 1
        self.self_time[self._gc_bucket] += pause
        self.stack[-1][2] += pause

    def _wrap(self, fn: Callable[..., Any], index: int, bucket: int,
              hook: str) -> Callable[..., Any]:
        tracer = self
        clock = time.perf_counter
        stack = self.stack
        spans_append = self.spans.append
        self_time = self.self_time
        calls = self.calls
        entries = self.entries
        recovery_rows = self.recovery_rows

        count_rows = hook == "record"
        round_end = hook == "round_end"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            if parent[1] != bucket:
                entries[bucket] += 1
            calls[index] += 1
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            frame = [span_id, bucket, 0.0]
            stack.append(frame)
            start = clock()
            try:
                if count_rows and args[0].enabled:
                    tracer.records += 1
                    kind = args[3] if len(args) > 3 else kwargs["kind"]
                    row = _RECOVERY_ROWS.get(kind)
                    if row is not None:
                        key = (tracer.op, row, kwargs.get("name"))
                        recovery_rows[key] = recovery_rows.get(key, 0) + 1
                return fn(*args, **kwargs)
            finally:
                if round_end:
                    retained = _retained(args[0])
                    if retained > tracer.retained_peak:
                        tracer.retained_peak = retained
                end = clock()
                stack.pop()
                duration = end - start
                self_time[bucket] += duration - frame[2]
                parent[2] += duration
                spans_append((span_id, index, start, end, parent[0],
                              tracer.op))

        return wrapper

    # -- results --------------------------------------------------------

    def covered(self) -> float:
        """Wall time spent inside any span (the sentinel's child time)."""
        return self.stack[0][2]

    def bucket_times(self) -> Dict[str, float]:
        return dict(zip(self.bucket_names, self.self_time))

    def layer_times(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.bucket_times().items():
            totals[BUCKETS[name]] += seconds
        return totals

    def calls_of(self, attr: str) -> int:
        return sum(self.calls[index] for index, wrap in enumerate(WRAPS)
                   if wrap.attr == attr)

    def call_counts(self) -> Dict[str, int]:
        return {f"{wrap.module}:{wrap.attr}": self.calls[index]
                for index, wrap in enumerate(WRAPS)}

    def silent(self, workload: str) -> List[str]:
        """Wrapped callables expected to fire on ``workload`` that did not."""
        return [f"{wrap.module}:{wrap.attr}"
                for index, wrap in enumerate(WRAPS)
                if workload in wrap.expect and self.calls[index] == 0]

    def useful_rows(self) -> Tuple[int, int, int, int]:
        """(requests, useful requests, repairs, useful repairs) from rows."""
        totals = [0, 0, 0, 0]
        for (_, row, _), count in self.recovery_rows.items():
            totals[2 * row] += count
            totals[2 * row + 1] += 1
        return totals[0], totals[1], totals[2], totals[3]

    def write_spans(self, path: Any) -> None:
        """Gzipped TSV, one line per span in end order; times in ns from
        the first span's start, names as indexes into the header lines."""
        if not self.spans:
            return
        origin = min(span[2] for span in self.spans)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for index, wrap in enumerate(WRAPS):
                out.write(f"# {index}\t{wrap.module}:{wrap.attr}\t"
                          f"{wrap.bucket}\n")
            out.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            out.writelines(
                f"{span_id}\t{parent}\t{op}\t{index}\t"
                f"{round((start - origin) * 1e9)}\t"
                f"{round((end - origin) * 1e9)}\n"
                for span_id, index, start, end, parent, op in self.spans)
