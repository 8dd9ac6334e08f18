"""A sorted-list reference scheduler for model-based scheduler tests.

Deliberately naive and structurally unlike :class:`EventScheduler`:
pending events sit in one list kept sorted by (time, seq), a cancel
removes its entry at once, and the drain pops the head. It keeps the
lifecycle counters the kernel keeps, in a plain dict.
"""

from __future__ import annotations

import bisect

from repro.sim.scheduler import SimulationError


class ModelScheduler:
    def __init__(self):
        self.now = 0.0
        self.queue = []  # sorted (time, seq, callback, args)
        self.seq = 0
        self.counts = dict.fromkeys(
            ("events_scheduled", "events_executed", "events_cancelled"), 0)

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        if not self.now <= time < float("inf"):
            raise SimulationError(f"bad time {time} at now={self.now}")
        key = (time, self.seq)
        self.seq += 1
        bisect.insort(self.queue, key + (callback, args))
        self.counts["events_scheduled"] += 1
        return _Handle(self, key)

    def run_plan(self, base, entries, deliver_one, deliver_run, arrivals):
        for (delay, _, target), arrival in zip(entries, arrivals):
            self.schedule_at(base + delay, deliver_run if type(target)
                             is tuple else deliver_one, target, arrival)

    def cancel(self, key):
        i = bisect.bisect_left(self.queue, key)
        if i < len(self.queue) and self.queue[i][:2] == key:
            del self.queue[i]
            self.counts["events_cancelled"] += 1

    def run(self, until=None, max_events=None):
        executed = 0
        while self.queue and executed != max_events:
            if until is not None and self.queue[0][0] > until:
                break
            self.now, _, callback, args = self.queue.pop(0)
            self.counts["events_executed"] += 1
            callback(*args)
            executed += 1
        if until is not None and self.now < until:
            self.now = until
        return executed

    def step(self):
        return self.run(max_events=1) == 1

    def peek_time(self):
        return self.queue[0][0] if self.queue else None

    def pending(self):
        return len(self.queue)


class _Handle:
    def __init__(self, sched, key):
        self.sched, self.key = sched, key

    def cancel(self):
        self.sched.cancel(self.key)
