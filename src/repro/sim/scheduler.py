"""Event scheduler: the heart of the discrete-event kernel.

A simulation is a single scheduler plus callbacks. Events are ordered by
(time, sequence number) so that simultaneous events fire in the order
they were scheduled, which keeps runs exactly reproducible for a given
random seed.

:class:`EventScheduler` keeps a binary heap of ``(time, seq, event)``
tuples with lazy deletion: a cancelled event stays in the heap and is
skipped when popped, and the heap is *compacted* when dead entries
become the majority. Tuple entries keep heap comparisons at C speed;
compaction keeps long cancel-heavy sessions (SRM suppression cancels
most of the request and repair timers it arms) from paying a log-factor
on dead weight.
"""

from __future__ import annotations

import heapq
import os
from typing import Any, Callable, List, Optional, Tuple

from repro.sim import perf

#: Compact only when the heap holds more cancelled entries than this
#: *and* they are the majority — small heaps never pay a rebuild.
COMPACT_MIN_CANCELLED = 256

_INF = float("inf")

#: The retired backend switch. It stays declared because its name is part
#: of the fleet wire schema; the heap is the only backend, so only
#: ``heap`` (or unset) is accepted.
SCHED_BACKEND_ENV = "SRM_SCHED_BACKEND"

#: A same-instant tie batch as handed to a :data:`TiePermuter`: the
#: ``(seq, event)`` pairs of every pending event at one simulated
#: instant, in contract (seq-ascending) order.
TieBatch = List[Tuple[int, "Event"]]

#: Drain-order hook for the tie-order race detector
#: (``repro.lint.races``): receives a seq-sorted same-instant batch and
#: returns the order to actually fire it in. Production runs never
#: install one — the contract order *is* (time, seq) — the detector
#: uses it to replay a scenario under permuted drain orders and prove
#: the trace does not depend on them.
TiePermuter = Callable[[TieBatch], TieBatch]


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling in the past, running twice, ...)."""


class Event:
    """A handle for a scheduled callback.

    Events are created by :meth:`EventScheduler.schedule` and may be
    cancelled. A cancelled event stays in the heap but is skipped when
    popped (lazy deletion), which makes cancellation O(1); the owning
    scheduler compacts the heap when cancelled entries dominate.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sched")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: Tuple[Any, ...],
                 sched: Optional["EventScheduler"] = None) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sched = sched

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sched is not None:
            self._sched._note_cancelled(self)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.4f} {name} {state}>"


class EventScheduler:
    """A discrete-event scheduler with a monotonic simulated clock.

    Typical use::

        sched = EventScheduler()
        sched.schedule(1.5, node.receive, packet)
        sched.run(until=100.0)
    """

    __slots__ = ("_heap", "_next_seq", "_now", "_running",
                 "_events_processed", "_cancelled_in_heap",
                 "_heap_rebuilds", "_tie_permuter", "perf")

    def __init__(self) -> None:
        backend = os.environ.get(SCHED_BACKEND_ENV, "").strip().lower()
        if backend not in ("", "heap"):
            raise SimulationError(
                f"{SCHED_BACKEND_ENV}={backend!r}: the calendar scheduler "
                f"backend was removed; the binary heap is the only one "
                f"(unset the variable or set it to 'heap')")
        self._heap: list[tuple[float, int, Event]] = []
        self._next_seq = 0
        self._now = 0.0
        self._running = False
        self._events_processed = 0
        #: Cancelled events still sitting in the heap (lazy deletion).
        self._cancelled_in_heap = 0
        self._heap_rebuilds = 0
        self._tie_permuter: Optional[TiePermuter] = None
        self.perf = perf.GLOBAL

    def set_tie_permuter(self, permuter: Optional[TiePermuter]) -> None:
        """Install (or clear) a same-instant drain-order hook.

        With a permuter installed, :meth:`run` switches to a drain loop
        that gathers each same-time tie group off the heap before firing
        any member and lets the hook choose the firing order. Only the
        race detector does this; ``None`` restores the contract order.
        """
        self._tie_permuter = permuter

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for instrumentation)."""
        return self._events_processed

    @property
    def heap_rebuilds(self) -> int:
        """Number of compactions performed (for instrumentation)."""
        return self._heap_rebuilds

    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events. O(1)."""
        return len(self._heap) - self._cancelled_in_heap

    def heap_size(self) -> int:
        """Total heap entries, including cancelled ones awaiting removal."""
        return len(self._heap)

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` units from now.

        ``delay`` must be finite and non-negative: a NaN time compares
        false against everything and would corrupt the heap order.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"cannot schedule {delay} units from now={self._now}: "
                f"the delay must be finite and non-negative")
        time = self._now + delay
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, seq, callback, args, self)
        heapq.heappush(self._heap, (time, seq, event))
        self.perf.events_scheduled += 1
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        ``time`` must be finite and not before the clock.
        """
        if not self._now <= time < _INF:
            raise SimulationError(
                f"cannot schedule at {time}, clock already at {self._now}"
                f" (the time must be finite and not in the past)")
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, seq, callback, args, self)
        heapq.heappush(self._heap, (time, seq, event))
        self.perf.events_scheduled += 1
        return event

    def run_plan(self, base: float, entries: Tuple[Any, ...],
                 deliver_one: Callable[..., Any],
                 deliver_run: Callable[..., Any],
                 arrivals: List[Any]) -> None:
        """Schedule one delivery event per plan entry, in one frame.

        ``entries`` are (delay, hops, target) delivery-plan rows; each
        becomes an event at ``base + delay`` calling ``deliver_one`` for
        scalar targets or ``deliver_run`` for tuple runs, with the
        positionally matching packet from ``arrivals``. Equivalent to a
        :meth:`schedule_at` per row — same seq order, same counters.
        """
        seq = self._next_seq
        heap = self._heap
        push = heapq.heappush
        count = 0
        for (delay, _, target), arrival in zip(entries, arrivals):
            time = base + delay
            event = Event(
                time, seq,
                deliver_run if type(target) is tuple else deliver_one,
                (target, arrival), self)
            push(heap, (time, seq, event))
            seq += 1
            count += 1
        self._next_seq = seq
        self.perf.events_scheduled += count

    def _note_cancelled(self, event: Event) -> None:
        """Bookkeeping for a cancel; compacts when dead entries dominate."""
        self._cancelled_in_heap += 1
        self.perf.events_cancelled += 1
        cancelled = self._cancelled_in_heap
        if (cancelled >= COMPACT_MIN_CANCELLED
                and cancelled * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, preserving order.

        Mutates the heap list in place so a concurrently-executing
        :meth:`run` loop (which holds a reference to it) sees the
        compacted heap.
        """
        heap = self._heap
        if len(heap) > self.perf.heap_peak:
            self.perf.heap_peak = len(heap)
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled_in_heap = 0
        self._heap_rebuilds += 1
        self.perf.heap_rebuilds += 1

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Run events in time order.

        Stops when the heap empties, when the clock would pass ``until``
        (the clock is then advanced to exactly ``until``), or after
        ``max_events`` events. Returns the number of events executed by
        this call.
        """
        if self._tie_permuter is not None:
            return self._run_permuted(until, max_events)
        if self._running:
            raise SimulationError("scheduler is already running")
        self._running = True
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        counters = self.perf
        dead = 0  # cancelled entries popped; with executed, the pop count
        if len(heap) > counters.heap_peak:
            counters.heap_peak = len(heap)
        try:
            while heap:
                if max_events is not None and executed >= max_events:
                    break
                time, _, event = heap[0]
                if event.cancelled:
                    pop(heap)
                    self._cancelled_in_heap -= 1
                    dead += 1
                    continue
                if until is not None and time > until:
                    break
                pop(heap)
                # A fired event is out of the heap: a late cancel() on its
                # handle must not touch the in-heap cancellation counter.
                event._sched = None
                self._now = time
                event.callback(*event.args)
                executed += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
            self._events_processed += executed
            counters.events_executed += executed
            counters.bucket_scan_len += executed + dead
        return executed

    def _run_permuted(self, until: Optional[float],
                      max_events: Optional[int]) -> int:
        """The :meth:`run` drain with a tie permuter installed.

        Pops every entry sharing the next pending time off the heap
        before firing any of them (the lazy-deletion pop only exposes
        ties one at a time), hands the seq-sorted batch to the permuter,
        and fires in the order it returns. A batch member cancelled by
        an earlier member is skipped, exactly as in the contract drain;
        events a callback schedules at the same instant get fresh seqs
        and form the *next* batch, exactly where the contract drain
        would fire them. Cold path: only the race detector runs it.
        """
        permuter = self._tie_permuter
        assert permuter is not None
        if self._running:
            raise SimulationError("scheduler is already running")
        self._running = True
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        counters = self.perf
        popped = 0
        try:
            while heap:
                if max_events is not None and executed >= max_events:
                    break
                time, _, head = heap[0]
                if head.cancelled:
                    pop(heap)
                    self._cancelled_in_heap -= 1
                    popped += 1
                    continue
                if until is not None and time > until:
                    break
                batch: TieBatch = []
                while heap and heap[0][0] == time:
                    _, _, event = pop(heap)
                    popped += 1
                    if event.cancelled:
                        self._cancelled_in_heap -= 1
                        continue
                    # Out of the heap: late cancels must not touch the
                    # in-heap cancellation counter.
                    event._sched = None
                    batch.append((event.seq, event))
                order = permuter(batch) if len(batch) > 1 else batch
                for position, (_, event) in enumerate(order):
                    if max_events is not None and executed >= max_events:
                        # Unfired members go back on the heap so a later
                        # run() call resumes without losing them.
                        for _, rest in order[position:]:
                            if not rest.cancelled:
                                rest._sched = self
                                heapq.heappush(
                                    heap, (rest.time, rest.seq, rest))
                        break
                    if event.cancelled:
                        continue
                    self._now = time
                    event.callback(*event.args)
                    executed += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
            self._events_processed += executed
            counters.events_executed += executed
            counters.bucket_scan_len += popped
        return executed

    def step(self) -> bool:
        """Execute the single next pending event. Returns False if none."""
        heap = self._heap
        counters = self.perf
        while heap:
            time, _, event = heapq.heappop(heap)
            counters.bucket_scan_len += 1
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            event._sched = None
            self._now = time
            event.callback(*event.args)
            self._events_processed += 1
            counters.events_executed += 1
            return True
        return False

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the heap is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled_in_heap -= 1
        if heap:
            return heap[0][0]
        return None

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero."""
        if self._running:
            raise SimulationError("cannot reset a running scheduler")
        for _, _, event in self._heap:
            event._sched = None  # late cancels must not corrupt counters
        self._heap.clear()
        self._cancelled_in_heap = 0
        self._now = 0.0
        self._events_processed = 0


#: The traced benchmark (``perfbench/layers.py``) patches
#: ``CalendarScheduler.run`` by name, from when the calendar queue was
#: the default backend; the alias keeps that wrap on the one drain loop.
CalendarScheduler = EventScheduler
