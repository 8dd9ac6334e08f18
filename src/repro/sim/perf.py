"""Cheap performance counters for the simulation kernel.

The kernel's hot paths (event loop, direct delivery engine) maintain a
handful of integer counters so that a profiling run can explain *where*
the events went — without the 2-3x slowdown of a real profiler. All
counters accumulate into a process-wide :data:`GLOBAL` instance that
:class:`~repro.sim.scheduler.EventScheduler` and
:class:`~repro.net.network.Network` update directly; increments are
plain ``int`` additions and batch updates, so the overhead is
unmeasurable against the event loop itself.

Typical use (this is exactly what ``python -m repro <figure> --profile``
does)::

    from repro.sim import perf

    perf.reset()
    with perf.measure() as timing:
        run_experiment()
    print(perf.counters().format_report(timing.wall_s))

Worker processes keep their own counters: a ``--jobs N`` sweep reports
only the in-process share of the work, so profile with serial execution
(``--jobs 1``, the default) for complete numbers.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Dict, Iterator, Optional


class PerfCounters:
    """A bag of kernel counters; one global instance aggregates a run."""

    __slots__ = (
        "events_scheduled",
        "events_executed",
        "events_cancelled",
        "heap_rebuilds",
        "heap_peak",
        "bucket_scan_len",
        "batched_deliveries",
        "plan_cache_hits",
        "plan_cache_misses",
        "arrival_copies",
        "arrival_copies_shared",
        "packets_by_kind",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.events_scheduled = 0     # Event objects pushed onto heaps
        self.events_executed = 0      # callbacks actually fired
        self.events_cancelled = 0     # cancels of still-pending events
        self.heap_rebuilds = 0        # compactions of cancel-heavy heaps
        self.heap_peak = 0            # largest heap observed (entries)
        # Heap entries popped by drains, live or cancelled. The name is
        # from the removed calendar queue; the traced benchmark reads it.
        self.bucket_scan_len = 0
        self.batched_deliveries = 0   # delivery events saved by batching
        self.plan_cache_hits = 0      # delivery plans served from cache
        self.plan_cache_misses = 0    # delivery plans (re)computed
        self.arrival_copies = 0       # Packet copies built for receivers
        self.arrival_copies_shared = 0  # receivers served a shared copy
        self.packets_by_kind: Dict[str, int] = {}  # sends, by packet.kind

    def count_packet(self, kind: str) -> None:
        by_kind = self.packets_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1

    def as_dict(self) -> Dict[str, Any]:
        """Flat dict snapshot (stable keys; used by tests and tooling)."""
        return {
            "events_scheduled": self.events_scheduled,
            "events_executed": self.events_executed,
            "events_cancelled": self.events_cancelled,
            "heap_rebuilds": self.heap_rebuilds,
            "heap_peak": self.heap_peak,
            "bucket_scan_len": self.bucket_scan_len,
            "batched_deliveries": self.batched_deliveries,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "arrival_copies": self.arrival_copies,
            "arrival_copies_shared": self.arrival_copies_shared,
            "packets_by_kind": dict(self.packets_by_kind),
        }

    def merge(self, other: "PerfCounters") -> None:
        """Fold another counter set into this one (multi-run aggregation)."""
        self.events_scheduled += other.events_scheduled
        self.events_executed += other.events_executed
        self.events_cancelled += other.events_cancelled
        self.heap_rebuilds += other.heap_rebuilds
        self.heap_peak = max(self.heap_peak, other.heap_peak)
        self.bucket_scan_len += other.bucket_scan_len
        self.batched_deliveries += other.batched_deliveries
        self.plan_cache_hits += other.plan_cache_hits
        self.plan_cache_misses += other.plan_cache_misses
        self.arrival_copies += other.arrival_copies
        self.arrival_copies_shared += other.arrival_copies_shared
        for kind, count in other.packets_by_kind.items():
            self.count_packet(kind)
            self.packets_by_kind[kind] += count - 1

    def format_report(self, wall_s: Optional[float] = None) -> str:
        """Human-readable profile summary, one counter per line."""
        lines = ["-- kernel profile --"]
        if wall_s is not None and wall_s > 0:
            lines.append(f"wall clock          {wall_s:12.3f} s")
            lines.append(f"events/sec          "
                         f"{self.events_executed / wall_s:12.0f}")
        lines.append(f"events scheduled    {self.events_scheduled:12d}")
        lines.append(f"events executed     {self.events_executed:12d}")
        lines.append(f"events cancelled    {self.events_cancelled:12d}")
        lines.append(f"heap rebuilds       {self.heap_rebuilds:12d}")
        lines.append(f"heap peak           {self.heap_peak:12d}")
        scan = self.bucket_scan_len
        if scan and self.events_executed:
            avg = scan / self.events_executed
            lines.append(f"heap pops           {scan:12d} "
                         f"({avg:.2f}/event)")
        if self.batched_deliveries:
            lines.append(f"batched deliveries  {self.batched_deliveries:12d}")
        plan_total = self.plan_cache_hits + self.plan_cache_misses
        if plan_total:
            rate = 100.0 * self.plan_cache_hits / plan_total
            lines.append(f"plan cache          {self.plan_cache_hits:12d} "
                         f"hits / {self.plan_cache_misses} misses "
                         f"({rate:.1f}% hit)")
        copies_total = self.arrival_copies + self.arrival_copies_shared
        if copies_total:
            rate = 100.0 * self.arrival_copies_shared / copies_total
            lines.append(f"arrival copies      {self.arrival_copies:12d} "
                         f"built / {self.arrival_copies_shared} shared "
                         f"({rate:.1f}% deduped)")
        if self.packets_by_kind:
            lines.append("packets sent by kind:")
            for kind in sorted(self.packets_by_kind):
                lines.append(f"  {kind:<20} {self.packets_by_kind[kind]:10d}")
        return "\n".join(lines)


#: Process-wide counters, updated in place by schedulers and networks.
GLOBAL = PerfCounters()


def counters() -> PerfCounters:
    """The process-wide counter set."""
    return GLOBAL


def reset() -> None:
    """Zero the process-wide counters (start of a profiled run)."""
    GLOBAL.reset()


class _Timing:
    """Mutable wall-clock holder yielded by :func:`measure`."""

    __slots__ = ("wall_s",)

    def __init__(self) -> None:
        self.wall_s = 0.0


@contextlib.contextmanager
def measure() -> Iterator[_Timing]:
    """Context manager timing a block; pairs with :meth:`format_report`."""
    timing = _Timing()
    start = time.perf_counter()
    try:
        yield timing
    finally:
        timing.wall_s = time.perf_counter() - start
