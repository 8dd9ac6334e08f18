"""Host speed probe: a fixed reference computation, timed next to the ops.

The benchmark runs on shared virtual machines whose speed drifts by up to
1.8x within seconds while process CPU time still equals wall time and no
time is stolen (the physical cores are shared with other guests). Raw
wall times then spread by about 30% between runs of the same code, which
hides any change smaller than that.

So every run also times ``reference_unit``, a fixed pure-Python
computation that uses the interpreter the way the workloads do: a
Dijkstra over a fixed graph (dicts, tuples, heapq, ``__slots__`` objects,
a keyed sort) and a drained event heap of objects and dict records (the
allocation the cyclic collector sees). It never touches the repository's
code, so a change to the program cannot move it. Each op's wall time is
scaled by ``REF_NOMINAL_S`` over the reference times measured around it:
the benchmark reports seconds on a nominal host on which one reference
unit takes ``REF_NOMINAL_S``. On a host of steady speed that is the wall
time times one constant.
"""

from __future__ import annotations

import bisect
import heapq
import random
import statistics
import time
from typing import List, Tuple

#: Seconds one reference unit takes on the nominal host: about its median
#: on the shared 2-vCPU cloud VM (CPython 3.11) the benchmark was defined on.
REF_NOMINAL_S = 0.005
#: A run takes a reference sample before an op once this many seconds
#: have passed since the last one.
REF_EVERY_S = 0.05
#: An op's speed is the median of this many samples on each side of it.
NEIGHBOURS = 2
#: Untimed reference units run before the first sample.
WARM_UNITS = 5

_NODES = 300
_SOURCES = range(0, _NODES, 100)
_RECORDS = 800


def _graph() -> List[List[Tuple[int, float]]]:
    """A fixed random tree plus as many random chords, weighted."""
    rng = random.Random(12345)
    adjacency: List[List[Tuple[int, float]]] = [[] for _ in range(_NODES)]
    edges = [(rng.randrange(v), v) for v in range(1, _NODES)]
    edges += [(rng.randrange(_NODES), rng.randrange(_NODES))
              for _ in range(_NODES)]
    for u, v in edges:
        weight = rng.random()
        adjacency[u].append((v, weight))
        adjacency[v].append((u, weight))
    return adjacency


_ADJACENCY = _graph()
_DELAYS = [random.Random(54321).random() for _ in range(_RECORDS)]


class _Visit:
    __slots__ = ("time", "node", "kind")

    def __init__(self, time: float, node: int, kind: str) -> None:
        self.time = time
        self.node = node
        self.kind = kind


class _Packet:
    def __init__(self, time: float, node: int, kind: str, seq: int) -> None:
        self.time = time
        self.node = node
        self.kind = kind
        self.seq = seq
        self.fields = {"node": node, "kind": kind}


def _shortest_paths() -> float:
    """Dijkstra from a few sources, recording and sorting each visit."""
    total = 0.0
    for source in _SOURCES:
        dist = {source: 0.0}
        heap = [(0.0, source)]
        visits = []
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            visits.append(_Visit(d, u, "visit"))
            for v, weight in _ADJACENCY[u]:
                nd = d + weight
                if nd < dist.get(v, 1e9):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        visits.sort(key=lambda visit: (visit.time, visit.node))
        total += sum(visit.time for visit in visits)
    return total


def _event_records() -> int:
    """Schedule packets on a heap, drain it into per-packet dict records."""
    heap = []
    by_key = {}
    for seq, delay in enumerate(_DELAYS):
        packet = _Packet(delay, seq % 100, "request" if seq & 1 else "repair",
                         seq)
        heapq.heappush(heap, (packet.time, seq, packet))
        by_key[(packet.node, packet.seq)] = packet
    records = []
    while heap:
        when, seq, packet = heapq.heappop(heap)
        records.append({"time": when, "node": packet.node,
                        "kind": packet.kind, "fields": packet.fields})
    return len(records) + len(by_key)


def reference_unit() -> float:
    """The fixed computation whose time defines the host's speed."""
    return _shortest_paths() + _event_records()


def speed(seconds: List[float]) -> float:
    """Host speed relative to nominal (1.0 = nominal) from unit times."""
    return REF_NOMINAL_S / statistics.median(seconds)


class SpeedProbe:
    """Reference samples of one run, and the op times scaled by them."""

    def __init__(self) -> None:
        self.mids: List[float] = []
        self.seconds: List[float] = []
        self._last = float("-inf")
        for _ in range(WARM_UNITS):
            reference_unit()

    def sample(self) -> None:
        start = time.perf_counter()
        reference_unit()
        end = time.perf_counter()
        self.mids.append((start + end) / 2)
        self.seconds.append(end - start)
        self._last = end

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= REF_EVERY_S:
            self.sample()

    def speed_at(self, moment: float) -> float:
        """Host speed at ``moment`` relative to nominal (1.0 = nominal)."""
        at = bisect.bisect(self.mids, moment)
        return speed(self.seconds[max(0, at - NEIGHBOURS):at + NEIGHBOURS])

    def nominal(self, start: float, end: float) -> float:
        """Wall seconds from ``start`` to ``end``, at nominal speed."""
        return (end - start) * self.speed_at((start + end) / 2)

    def median_speed(self) -> float:
        return speed(self.seconds)
