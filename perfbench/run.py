#!/usr/bin/env python3
"""The repository benchmark: SRM loss-recovery workloads, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tree_fresh --seed 1 --seconds 12
    python3 perfbench/run.py --workload star_rounds --trace 1
    python3 perfbench/run.py            # all four workloads, one table

Each workload runs in its own process as a closed loop: one op at a
time, in one thread, through ``ExperimentRunner(jobs=1)`` with the
result cache off. ``--trace 0`` measures the end-to-end metrics, with
times scaled to a nominal host speed by a reference computation timed
next to the ops (see calibrate.py; raw wall figures are printed too);
``--trace 1`` runs a fixed op list untraced once and traced twice, and
reports per-layer self time and counts (see layers.py). The last line
of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
#: Everything a run leaves behind (byte-code cache, span files).
OUT_DIR = os.path.abspath(".perfbench-out")

# Byte code is cached under OUT_DIR, not next to the sources, whatever
# the caller's PYTHONDONTWRITEBYTECODE says: set-up then measures imports
# from cached byte code. Set before any import below compiles a module.
sys.pycache_prefix = os.path.join(OUT_DIR, "pycache")
sys.dont_write_bytecode = False
sys.path.insert(0, os.path.abspath("src"))

import workloads as wl  # noqa: E402
from calibrate import NEIGHBOURS, SpeedProbe, speed  # noqa: E402

#: End-to-end set-up is measured this many times, in fresh processes.
SETUP_SAMPLES = 7
#: Ops in the traced run, per workload (a fixed list, so counts repeat).
TRACE_OPS = {"tree_fresh": 40, "star_rounds": 12, "fuzz_checked": 300,
             "herd_mega": 15}
#: Knobs that would change what is measured; the benchmark measures the
#: defaults.
CLEARED_ENV = ("SRM_CHECK", "SRM_SCHED_BACKEND", "SRM_CACHE_SALT")

E2E_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def load_pins() -> Dict[str, Any]:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as f:
        return json.load(f)


def percentile(ordered: List[float], q: float) -> float:
    """Linear-interpolated quantile of an ascending list."""
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def child_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if key not in CLEARED_ENV + ("PYTHONDONTWRITEBYTECODE",)}
    env["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix or ""
    return env


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

def set_up(name: str, seed: int) -> List[Any]:
    wl.preload()
    return wl.build_inputs(name, seed)


def measure_setup(name: str, seed: int) -> List[float]:
    """Process start -> first op ready, in fresh interpreters.

    Each sample is scaled to nominal host speed by reference samples the
    child takes right after it is ready, on the core it ran on.
    """
    samples = []
    command = [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
               "--workload", name, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              env=child_env(), text=True) as child:
            assert child.stdout is not None
            line = child.stdout.readline()
            ready = time.perf_counter()
            reference = child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child failed (exit {code})")
        samples.append((ready - started) * speed(json.loads(reference)))
    return samples


# ----------------------------------------------------------------------
# Timed run (--trace 0)
# ----------------------------------------------------------------------

def run_timed(name: str, seed: int, seconds: float,
              pinned: Optional[str]) -> Dict[str, Any]:
    """Closed loop for ``seconds``, at least MIN_OPS ops, whole passes.

    Times are reported at nominal host speed (see calibrate.py): each
    op's wall time is scaled by the reference samples taken around it.
    """
    inputs = set_up(name, seed)
    runner = wl.make_runner()
    op = wl.op_function(name)
    per_pass = wl.OPS_PER_PASS.get(name, 1)
    probe = SpeedProbe()
    spans: List[Tuple[float, float]] = []
    results: List[wl.OpResult] = []
    clock = time.perf_counter
    began = clock()
    deadline = began + seconds
    index = 0
    while True:
        probe.maybe_sample()
        item = inputs[index % len(inputs)]
        start = clock()
        result = op(runner, item)
        end = clock()
        spans.append((start, end))
        if index < wl.MIN_OPS or result.failed:
            results.append(result)
        index += 1
        if (end >= deadline and index >= wl.MIN_OPS
                and index % per_pass == 0):
            break
    wall = end - began
    for _ in range(NEIGHBOURS):
        probe.sample()
    latencies = [probe.nominal(start, end) for start, end in spans]
    failed = sum(1 for result in results if result.failed)
    digest = wl.outcome_digest(results[:wl.MIN_OPS])
    digest_ok = pinned is None or digest == pinned
    ordered = sorted(latencies)
    setup = sorted(measure_setup(name, seed))
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms_p50": 1e3 * percentile(ordered, 0.5),
        "op_ms_p90": 1e3 * percentile(ordered, 0.9),
        "setup_s": setup[len(setup) // 2],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{name} seed={seed}: {len(latencies)} ops in {wall:.2f} s "
          f"of wall clock ({len(latencies) / wall:.4g} raw ops/s); "
          f"failed {failed}/{len(latencies)} "
          f"(failed_frac {failed / len(latencies):g})")
    print(f"  host speed {probe.median_speed():.3f} x nominal "
          f"(median of {len(probe.seconds)} reference samples); "
          "times below are at nominal speed")
    for key, value in metrics.items():
        print(f"  {key:<12} {value:12.4f} {E2E_UNITS[key]}")
    print(f"  latency samples n={len(latencies)}; set-up samples "
          + ", ".join(f"{value:.3f}" for value in setup))
    print(f"  outcome digest of ops 0..{wl.MIN_OPS - 1}: {digest} "
          + ("(no pin for this seed)" if pinned is None else
             "(matches the pin)" if digest_ok else
             f"(MISMATCH, pinned {pinned})"))
    return {"correct": failed == 0 and digest_ok,
            "attempted": len(latencies), "failed": failed,
            "metrics": {key: {"value": value, "unit": E2E_UNITS[key]}
                        for key, value in metrics.items()}}


# ----------------------------------------------------------------------
# Traced run (--trace 1)
# ----------------------------------------------------------------------

def _perf_numbers() -> Dict[str, int]:
    from repro.sim import perf

    return {key: value for key, value in perf.counters().as_dict().items()
            if isinstance(value, int)}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _traced_pass(name: str, runner: Any, items: List[Any]) -> Dict[str, Any]:
    from layers import Tracer

    op = wl.op_function(name)
    tracer = Tracer()
    before = _perf_numbers()
    tracer.install()
    try:
        began = time.perf_counter()
        results = []
        for index, item in enumerate(items):
            tracer.op = index
            results.append(op(runner, item))
        wall = time.perf_counter() - began
    finally:
        tracer.uninstall()
    after = _perf_numbers()
    perf = {key: after[key] - before[key] for key in after}
    return {"tracer": tracer, "results": results, "wall": wall,
            "perf": perf}


def layer_metrics(name: str, run: Dict[str, Any],
                  untraced_wall: float) -> Dict[str, float]:
    tracer = run["tracer"]
    perf = run["perf"]
    results = run["results"]
    times = tracer.bucket_times()
    buckets = tracer.bucket_names
    if any(result.useful_requests is None for result in results):
        requests, useful_req, repairs, useful_rep = tracer.useful_rows()
    else:
        requests = sum(result.requests for result in results)
        repairs = sum(result.repairs for result in results)
        useful_req = sum(result.useful_requests for result in results)
        useful_rep = sum(result.useful_repairs for result in results)
    queries = tracer.entries[buckets.index("net.routing.self_s")]
    trees = tracer.calls_of("build_source_tree")
    copies = perf["arrival_copies"] + perf["arrival_copies_shared"]
    plans = perf["plan_cache_hits"] + perf["plan_cache_misses"]
    unattributed = run["wall"] - tracer.covered()
    metrics = {
        "topology.build_s": times["topology.build_s"],
        "topology.builds": tracer.calls_of("TopologySpec.build"),
        "net.routing.self_s": times["net.routing.self_s"],
        "net.routing.queries": queries,
        "net.routing.trees_built": trees,
        "net.routing.reuse_ratio": 1.0 - trees / queries if queries else 0.0,
        "net.delivery.self_s": times["net.delivery.self_s"],
        "net.delivery.sends": tracer.calls_of("Network.send"),
        "net.delivery.plan_hit_ratio": _ratio(perf["plan_cache_hits"], plans),
        "net.delivery.shared_copy_ratio":
            _ratio(perf["arrival_copies_shared"], copies),
        "net.delivery.batched_deliveries": perf["batched_deliveries"],
        "sim.scheduler.self_s": times["sim.scheduler.self_s"],
        "sim.scheduler.events_executed": perf["events_executed"],
        "sim.scheduler.events_cancelled": perf["events_cancelled"],
        "sim.scheduler.scan_per_event":
            _ratio(perf["bucket_scan_len"], perf["events_executed"]),
        "core.agent.self_s": times["core.agent.self_s"],
        "core.agent.receives": tracer.calls_of("SrmAgent.receive"),
        "core.agent.requests": requests,
        "core.agent.repairs": repairs,
        "core.agent.useful_request_ratio": _ratio(useful_req, requests),
        "core.agent.useful_repair_ratio": _ratio(useful_rep, repairs),
        "sim.trace.self_s": times["sim.trace.self_s"],
        "sim.trace.records": tracer.records,
        "sim.trace.retained_peak": tracer.retained_peak,
        "metrics.stream_s": times["metrics.stream_s"],
        "metrics.rescan_s": times["metrics.rescan_s"],
        "metrics.merge_s": times["metrics.merge_s"],
        "oracle.self_s": times["oracle.self_s"],
        "oracle.checks": sum(
            count for key, count in tracer.call_counts().items()
            if key.startswith("repro.oracle.checkers:")),
        "herd.construct_s": times["herd.construct_s"],
        "herd.round_s": times["herd.round_s"],
        "experiments.construct_s": times["experiments.construct_s"],
        "experiments.self_s": times["experiments.self_s"],
        "runner.fingerprint_s": times["runner.fingerprint_s"],
        "runner.self_s": times["runner.self_s"],
        "gc.collect_s": times["gc.collect_s"],
        "gc.collections": tracer.gc_collections,
        "unattributed_s": unattributed,
        "traced_wall_s": run["wall"],
        "tracing_overhead": run["wall"] / untraced_wall,
    }
    return metrics


def layer_unit(metric: str) -> str:
    if metric == "tracing_overhead":
        return "x"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("scan_per_event"):
        return "scans/event"
    if metric.endswith("_s"):
        return "s"
    return "count"


#: Counts that must repeat exactly between two traced passes.
EXACT_COUNTS = ("sim.scheduler.events_executed", "net.routing.trees_built",
                "sim.trace.records", "core.agent.requests",
                "core.agent.repairs")


def count_mismatches(first: Dict[str, Any],
                     second: Dict[str, Any]) -> List[str]:
    """EXACT_COUNTS that differ between two passes over the same ops."""
    return [f"nondeterminism: {key} read {first[key]} then {second[key]} "
            "on the same ops" for key in EXACT_COUNTS
            if first[key] != second[key]]


def run_traced(name: str, seed: int,
               ops: Optional[int] = None) -> Dict[str, Any]:
    from layers import LAYERS, BUCKETS

    inputs = set_up(name, seed)
    runner = wl.make_runner()
    items = [inputs[index % len(inputs)]
             for index in range(ops or TRACE_OPS[name])]
    op = wl.op_function(name)
    # The first traced pass also warms the process up (allocator, first
    # calls); the untraced reference and the reported pass both follow it.
    first = _traced_pass(name, runner, items)
    began = time.perf_counter()
    untraced = [op(runner, item) for item in items]
    untraced_wall = time.perf_counter() - began
    second = _traced_pass(name, runner, items)
    repeat = layer_metrics(name, first, untraced_wall)
    metrics = layer_metrics(name, second, untraced_wall)

    problems = count_mismatches(repeat, metrics)
    if first["tracer"].call_counts() != second["tracer"].call_counts():
        problems.append("nondeterminism: wrapped call counts differ "
                        "between the two traced passes")
    digests = {wl.outcome_digest(run) for run in
               (untraced, first["results"], second["results"])}
    if len(digests) != 1:
        problems.append("tracing changed the ops' outcomes")
    for callable_name in second["tracer"].silent(name):
        problems.append(f"wrapped callable {callable_name} never fired "
                        f"on {name}, where work is expected")
    self_total = sum(metrics[bucket] for bucket in BUCKETS)
    residue = self_total + metrics["unattributed_s"] - metrics["traced_wall_s"]
    if abs(residue) > 1e-6 * metrics["traced_wall_s"] or \
            min(metrics[bucket] for bucket in BUCKETS) < -1e-9:
        problems.append(f"self times + unattributed_s miss the traced wall "
                        f"by {residue:.3g} s")

    spans_dir = os.path.join(OUT_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, f"{name}-seed{seed}.tsv.gz")
    second["tracer"].write_spans(spans_path)

    wall = metrics["traced_wall_s"]
    layer_times = second["tracer"].layer_times()
    print(f"{name} seed={seed}: {len(items)} traced ops, traced wall "
          f"{wall:.3f} s, untraced {untraced_wall:.3f} s, overhead "
          f"{metrics['tracing_overhead']:.2f}x; spans in {spans_path}")
    for layer in sorted(LAYERS, key=lambda key: -layer_times[key]):
        print(f"  {layer:<14} {layer_times[layer]:9.4f} s "
              f"{100.0 * layer_times[layer] / wall:6.2f} %")
    print(f"  {'unattributed':<14} {metrics['unattributed_s']:9.4f} s "
          f"{100.0 * metrics['unattributed_s'] / wall:6.2f} %")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    failed = sum(1 for result in second["results"] if result.failed)
    return {"correct": not problems and failed == 0,
            "attempted": len(items), "failed": failed,
            "metrics": {key: {"value": value, "unit": layer_unit(key)}
                        for key, value in metrics.items()}}


# ----------------------------------------------------------------------
# All workloads, each in its own process
# ----------------------------------------------------------------------

def run_all(args: argparse.Namespace) -> int:
    rows = []
    for name in wl.WORKLOAD_NAMES:
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              env=child_env(), text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if done.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {done.returncode}",
                  file=sys.stderr)
            return 1
        rows.append((name, json.loads(lines[-1])))
    print()
    print(f"{'workload':<13} {'ok':>3} {'failed_frac':>11} " + " ".join(
        f"{key}[{E2E_UNITS[key]}]".rjust(15) for key in E2E_UNITS))
    merged: Dict[str, Any] = {}
    for name, result in rows:
        metrics = result["metrics"]
        line = (f"{name:<13} {'yes' if result['correct'] else 'NO':>3} "
                f"{result['failed'] / result['attempted']:>11g}")
        if not args.trace:
            line += " " + " ".join(f"{metrics[key]['value']:15.4f}"
                                   for key in E2E_UNITS)
        print(line)
        for key, value in metrics.items():
            merged[f"{name}.{key}"] = value
    print(json.dumps({
        "correct": all(result["correct"] for _, result in rows),
        "attempted": sum(result["attempted"] for _, result in rows),
        "failed": sum(result["failed"] for _, result in rows),
        "metrics": merged}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + wl.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the pinned one)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    for key in CLEARED_ENV:
        os.environ.pop(key, None)
    pins = load_pins()
    if args.seed is None:
        args.seed = pins["default_seed"]
    if args.seconds is None:
        with open("BENCHMARK.json", encoding="utf-8") as handle:
            args.seconds = json.load(handle)["run_seconds"]
    if args.setup_only:
        set_up(args.workload, args.seed)
        wl.make_runner()
        print("ready", flush=True)
        probe = SpeedProbe()
        for _ in range(2 * NEIGHBOURS):
            probe.sample()
        print(json.dumps(probe.seconds))
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        result = run_traced(args.workload, args.seed)
    else:
        pinned = (pins["workloads"][args.workload]["digest"]
                  if args.seed == pins["default_seed"] else None)
        result = run_timed(args.workload, args.seed, args.seconds, pinned)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
