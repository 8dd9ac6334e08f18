"""Kernel microbenchmarks: the perf trajectory of the simulation core.

Unlike the ``bench_figure*.py`` suite (which reproduces the paper's
figures under pytest-benchmark), this is a standalone script that times
the *kernel* hot paths — event heap churn, cancellation-heavy timer
workloads, multicast fan-out through the direct delivery engine, and a
full session-heavy SRM scenario on a random tree — and writes the
numbers to ``BENCH_kernel.json`` so successive PRs can be compared.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick
    PYTHONPATH=src python benchmarks/bench_kernel.py \
        --compare BENCH_kernel.json --output BENCH_kernel.json

``--compare OLD.json`` embeds the old run as ``baseline`` and reports
per-bench speedups; committing the result keeps the repo's perf history
in one file. The workloads are seeded and deterministic — only the
wall-clock varies between machines.

The JSON schema (``bench-kernel/v4``)::

    {
      "schema": "bench-kernel/v4",
      "python": "3.11.7",
      "created": "2026-08-05T12:00:00",
      "benches": {
        "<name>": {"wall_s": float,      # best-of-N wall clock
                    "events": int,        # scheduler events executed
                    "events_per_s": float,
                    "kernel": {...},      # repro.sim.perf counter deltas,
                                          # same shape as a RunMetrics
                                          # bundle's "kernel" section
                    "meta": {...}},       # workload-specific facts
      },
      "baseline": {... same shape, from --compare ...},
      "speedup_vs_baseline": {"<name>": float}   # old wall / new wall
    }

v2 added the per-bench ``kernel`` section (``docs/metrics.md``): the
deterministic counter deltas that explain a wall-clock movement —
events scheduled vs executed, heap peaks, plan-cache hits, arrival
copies. v3 resets the perf counters before every attempt (so high-water
marks like ``heap_peak`` are per-bench, not cumulative). v4 drops the
``backend`` field (the binary heap is the only scheduler) and arms
``cancel_heavy``'s timers as plain :class:`repro.sim.timers.Timer`
objects, the way :class:`repro.core.agent.SrmAgent` arms its request
and repair timers. Older files are still accepted by ``--compare``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.core.config import SrmConfig
from repro.experiments.common import LossRecoverySimulation, Scenario
from repro.net.node import Agent
from repro.sim import perf
from repro.sim.rng import RandomSource
from repro.sim.scheduler import EventScheduler
from repro.sim.timers import Timer
from repro.topology.random_tree import random_labeled_tree

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_kernel.json"


# ----------------------------------------------------------------------
# Workloads. Each returns (events_executed, meta) and is timed outside.
# ----------------------------------------------------------------------


def scheduler_churn(n: int) -> tuple[int, dict]:
    """Push n trivial events through the scheduler in shuffled time order."""
    sched = EventScheduler()
    rng = RandomSource(1)
    times = [rng.uniform(0.0, 1000.0) for _ in range(n)]
    noop = lambda: None
    for t in times:
        sched.schedule_at(t, noop)
    executed = sched.run()
    return executed, {"scheduled": n}


def cancel_heavy(n: int, cancel_fraction: float = 0.9) -> tuple[int, dict]:
    """Timer workload where suppression cancels most pending timers.

    Models SRM request/repair suppression: timers are set in waves, the
    earliest few fire, and the rest are cancelled in bulk — exactly how
    a suppression round plays out (the first expiring member's multicast
    suppresses everyone else's pending timer). Each member holds one
    :class:`Timer`, armed per wave and cancelled if still pending at the
    suppression horizon, as :class:`repro.core.agent.SrmAgent` does.
    """
    sched = EventScheduler()
    rng = RandomSource(2)
    fired = 0

    def on_fire() -> None:
        nonlocal fired
        fired += 1

    wave = 2000
    waves = max(1, n // wave)
    lo, hi = 0.5, 2.0
    # Delays are uniform on [lo, hi): running each wave to this horizon
    # lets the earliest (1 - cancel_fraction) of the wave fire.
    horizon = lo + (hi - lo) * (1.0 - cancel_fraction)
    cancelled = 0
    span = hi - lo
    # Draw through the raw generator: random.uniform is exactly
    # lo + span * random(), so the stream is unchanged, but the two
    # wrapper frames per draw would otherwise be a visible slice of a
    # bench whose kernel work is this cheap.
    u = rng._rng.random
    timers = [Timer(sched, on_fire) for _ in range(wave)]
    for _ in range(waves):
        for timer in timers:
            timer.start(lo + span * u())
        sched.run(until=sched.now + horizon)
        for timer in timers:
            if timer.pending:
                timer.cancel()
                cancelled += 1
    return sched.events_processed, {
        "timers": waves * wave,
        "fired": fired,
        "cancelled": cancelled,
        "cancel_fraction": cancel_fraction,
    }


class _CountingAgent(Agent):
    """Delivery sink for the fan-out bench."""

    received = 0

    def receive(self, packet) -> None:  # noqa: ANN001
        _CountingAgent.received += 1


def multicast_fanout(sends: int, nodes: int = 100) -> tuple[int, dict]:
    """Repeated multicasts from a few origins on a random tree.

    Stresses the direct delivery engine: eligibility scans (or the plan
    cache), arrival-copy allocation and per-receiver event scheduling.
    """
    rng = RandomSource(3)
    spec = random_labeled_tree(nodes, rng)
    network = spec.build(delivery="direct")
    group = network.groups.allocate("bench")
    _CountingAgent.received = 0
    for node in range(nodes):
        network.attach(node, _CountingAgent())
        network.join(node, group)
    origins = [0, nodes // 3, (2 * nodes) // 3]
    for index in range(sends):
        origin = origins[index % len(origins)]
        network.scheduler.schedule_at(
            float(index), network.send_multicast, origin, group, "data",
            None, 32)
    executed = network.run()
    return executed, {
        "sends": sends,
        "nodes": nodes,
        "deliveries": _CountingAgent.received,
    }


def session_random_tree(rounds: int, nodes: int = 100) -> tuple[int, dict]:
    """The acceptance scenario: session-heavy SRM on a random tree.

    Every node is a session member, session messages are enabled (so the
    event stream is dominated by periodic session multicasts fanning out
    to the whole group), and each "round" is one drop/request/repair
    recovery riding on top of that session traffic — the figure-5/6-style
    workload this repo's sweeps are made of. Session timers reschedule
    forever, so the clock (not heap exhaustion) bounds each round.
    """
    from repro.net.link import NthPacketDropFilter

    rng = RandomSource(4)
    spec = random_labeled_tree(nodes, rng)
    members = list(range(nodes))
    source = members[0]
    config = SrmConfig(session_enabled=True, session_min_interval=5.0,
                       distance_oracle=True)
    simulation = LossRecoverySimulation(
        Scenario(spec=spec, members=members, source=source,
                 drop_edge=(source, 0)), config=config, seed=11)
    network = simulation.network
    child = max(network.source_tree(source).children[source])
    agent = simulation.source_agent
    period = 60.0
    for index in range(rounds):
        network.clear_drop_filters()
        network.add_drop_filter(source, child, NthPacketDropFilter(
            lambda packet: (packet.kind == "srm-data"
                            and packet.origin == source)))
        network.scheduler.schedule(0.0, agent.send_data,
                                   f"round-{index}-payload")
        network.scheduler.schedule(1.0, agent.send_data,
                                   f"round-{index}-trigger")
        network.run(until=network.scheduler.now + period)
    executed = network.scheduler.events_processed
    return executed, {
        "rounds": rounds,
        "nodes": nodes,
        "members": len(members),
        "horizon": rounds * period,
        "packets_dropped": network.packets_dropped,
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

BenchFn = Callable[[], tuple[int, dict]]


def _bench_set(quick: bool) -> Dict[str, BenchFn]:
    if quick:
        return {
            "scheduler_churn": lambda: scheduler_churn(30_000),
            "cancel_heavy": lambda: cancel_heavy(20_000),
            "multicast_fanout": lambda: multicast_fanout(60, nodes=60),
            "session_random_tree": lambda: session_random_tree(3, nodes=40),
        }
    return {
        "scheduler_churn": lambda: scheduler_churn(200_000),
        "cancel_heavy": lambda: cancel_heavy(120_000),
        "multicast_fanout": lambda: multicast_fanout(400, nodes=100),
        "session_random_tree": lambda: session_random_tree(15, nodes=100),
    }


def run_bench(fn: BenchFn, repeat: int) -> dict:
    """Best-of-``repeat`` wall clock around one workload.

    Each attempt also captures the :mod:`repro.sim.perf` counter deltas
    (via the same snapshot helpers the metrics collector uses), so the
    committed JSON explains *why* a wall-clock number moved. The global
    counters are reset before every attempt: high-water marks such as
    ``heap_peak`` are *not* deltas, so without the reset every bench
    would report the largest peak seen by any earlier bench in the
    process.
    """
    from repro.metrics.collector import _perf_delta, _perf_snapshot

    best: Optional[dict] = None
    for _ in range(repeat):
        perf.GLOBAL.reset()
        before = _perf_snapshot()
        start = time.perf_counter()
        events, meta = fn()
        wall = time.perf_counter() - start
        if best is None or wall < best["wall_s"]:
            best = {
                "wall_s": round(wall, 6),
                "events": events,
                "events_per_s": round(events / wall) if wall > 0 else None,
                "kernel": _perf_delta(before, _perf_snapshot()),
                "meta": meta,
            }
    assert best is not None
    return best


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Kernel microbenchmarks -> BENCH_kernel.json")
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT),
                        help="where to write the JSON (default: %(default)s)")
    parser.add_argument("--compare", default=None, metavar="OLD.json",
                        help="embed OLD.json as the baseline and report "
                             "speedups against it")
    parser.add_argument("--repeat", type=int, default=3,
                        help="best-of-N timing (default: %(default)s)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny workloads (smoke test / CI)")
    args = parser.parse_args(argv)

    benches: Dict[str, dict] = {}
    for name, fn in _bench_set(args.quick).items():
        benches[name] = run_bench(fn, args.repeat)
        row = benches[name]
        print(f"{name:>22}: {row['wall_s']*1000.0:9.1f} ms   "
              f"{row['events']:>9} events   "
              f"{row['events_per_s'] or 0:>9} ev/s")

    payload = {
        "schema": "bench-kernel/v4",
        "python": platform.python_version(),
        "created": datetime.datetime.now().isoformat(timespec="seconds"),
        "quick": args.quick,
        "repeat": args.repeat,
        "benches": benches,
    }

    if args.compare:
        old = json.loads(Path(args.compare).read_text())
        old_benches = old.get("benches", {})
        payload["baseline"] = old_benches
        speedups = {}
        for name, row in benches.items():
            old_row = old_benches.get(name)
            if old_row and row["wall_s"] > 0:
                speedups[name] = round(old_row["wall_s"] / row["wall_s"], 3)
        payload["speedup_vs_baseline"] = speedups
        for name, factor in speedups.items():
            print(f"{name:>22}: {factor:5.2f}x vs baseline")

    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
