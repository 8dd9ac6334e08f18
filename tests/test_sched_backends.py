"""The event scheduler against a sorted-list reference model.

:class:`EventScheduler` (a binary heap with lazy deletion and
compaction) must behave exactly like ``sched_model.ModelScheduler``, a
naive scheduler that keeps pending events in one sorted list. These
tests drive that promise three ways — a hypothesis property over random
op sequences, a seed x topology golden replay of full SRM sessions, and
targeted regressions for the perf-counter plumbing the benchmarks rely
on.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.names import AduName, DEFAULT_PAGE
from repro.net.link import NthPacketDropFilter
from repro.sim import perf
from repro.sim.rng import RandomSource
from repro.sim.scheduler import EventScheduler
from repro.sim.timers import Timer
from repro.topology.chain import chain
from repro.topology.random_tree import random_labeled_tree
from repro.topology.star import star

from conftest import build_srm_session, examples
from sched_model import ModelScheduler

BENCH_DIR = str(Path(__file__).resolve().parent.parent / "benchmarks")


# ----------------------------------------------------------------------
# Property: any op sequence executes exactly as the model does
# ----------------------------------------------------------------------

# Delays drawn from a small grid *and* the continuum: the grid forces
# exact same-instant ties, the continuum exercises general heap order.
_delay = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=5.0,
              allow_nan=False, allow_infinity=False))

# (op code, delay, pick): ``pick`` chooses among the most recent
# handles and timers, which are the ones most likely still pending.
_op = st.tuples(st.integers(0, 9), _delay, st.integers(0, 5))


def _permuted_heap():
    """The heap on the race detector's drain, with an identity permuter."""
    sched = EventScheduler()
    sched.set_tie_permuter(lambda batch: batch)
    return sched


def _drive(sched, ops):
    """Interpret an op list against a scheduler; return the event log."""
    log = []
    handles = []
    timers = []

    def fire(tag):
        log.append(("fire", sched.now, tag))

    for i, (op, value, pick) in enumerate(ops):
        if op <= 1:
            handles.append(sched.schedule(value, fire, i))
        elif op == 2:
            handles.append(sched.schedule_at(sched.now + value, fire, -i))
        elif op == 3 and handles:
            handles[-1 - pick % len(handles)].cancel()
        elif op == 4:
            timer = Timer(sched, lambda i=i: fire(f"t{i}"), name=f"t{i}")
            timer.start(value)
            timers.append(timer)
        elif op == 5 and timers:
            timer = timers[-1 - pick % len(timers)]
            if pick % 3 == 0:
                timer.start(value)
            elif pick % 3 == 1:
                timer.reschedule(value * 0.5)
            else:
                timer.cancel()
        elif op == 6:
            ran = sched.run(until=sched.now + value)
            log.append(("ran", sched.now, ran, sched.pending()))
        elif op == 7:
            ran = sched.run(max_events=int(value * 2.0))
            log.append(("ran", sched.now, ran, sched.pending()))
        elif op == 8:
            log.append(("step", sched.step(), sched.now, sched.peek_time()))
        else:
            log.append(("peek", sched.now, sched.peek_time()))
    sched.run(until=sched.now + 30.0)
    log.append(("end", sched.now, sched.pending()))
    return log


@settings(max_examples=examples(40))
@given(ops=st.lists(_op, min_size=10, max_size=80))
def test_backends_execute_any_op_sequence_identically(ops):
    model_log = _drive(ModelScheduler(), ops)
    assert _drive(EventScheduler(), ops) == model_log
    assert _drive(_permuted_heap(), ops) == model_log


@settings(max_examples=examples(20))
@given(ops=st.lists(_op, min_size=10, max_size=60))
def test_backends_agree_on_lifecycle_counters(ops):
    model = ModelScheduler()
    _drive(model, ops)
    perf.GLOBAL.reset()
    _drive(EventScheduler(), ops)
    heap_counts = perf.GLOBAL.as_dict()
    for key, count in model.counts.items():
        assert heap_counts[key] == count, key


# ----------------------------------------------------------------------
# Golden replay: full SRM sessions are identical on heap and model
# ----------------------------------------------------------------------

def _session_trace(make, seed, spec_name, monkeypatch):
    # Packet uids flow into trace details and come from a process-global
    # counter; restart it so both runs see identical ids.
    import itertools

    from repro.net import packet as packet_module
    monkeypatch.setattr(packet_module, "_packet_uids", itertools.count(1))
    rng = RandomSource(seed)
    if spec_name == "chain":
        spec = chain(6)
    elif spec_name == "star":
        spec = star(6)
    else:
        spec = random_labeled_tree(8, rng)
    members = list(range(spec.num_nodes))
    network, agents, _ = build_srm_session(spec, members, seed=seed,
                                           scheduler=make())
    source = members[0]
    drop_link = rng.choice(spec.edges)
    network.add_drop_filter(*drop_link, NthPacketDropFilter(
        lambda p: p.kind == "srm-data" and p.origin == source, n=1))
    for i in range(4):
        network.scheduler.schedule(
            float(i), lambda i=i: agents[source].send_data(f"p{i}"))
    network.run(max_events=500_000)
    for member in members:
        assert agents[member].store.have(AduName(source, DEFAULT_PAGE, 4))
    return [(r.time, r.node, r.kind, repr(r.detail))
            for r in network.trace]


@pytest.mark.parametrize("spec_name", ["chain", "star", "tree"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_seed_matrix_replay_is_identical_across_backends(
        seed, spec_name, monkeypatch):
    heap_trace = _session_trace(EventScheduler, seed, spec_name, monkeypatch)
    model_trace = _session_trace(ModelScheduler, seed, spec_name,
                                 monkeypatch)
    assert heap_trace == model_trace
    assert len(heap_trace) > 0


# ----------------------------------------------------------------------
# Perf-counter regressions the benchmarks rely on
# ----------------------------------------------------------------------

def test_bench_resets_counters_between_benches():
    """``heap_peak`` is a high-water mark, not a delta: without a reset
    before every bench attempt, each bench reports the largest peak any
    *earlier* bench left in the process-global counters (the bug that
    once stamped 200,000 on all four benches)."""
    sys.path.insert(0, BENCH_DIR)
    try:
        from bench_kernel import run_bench
    finally:
        sys.path.remove(BENCH_DIR)

    def tiny_workload():
        sched = EventScheduler()
        for i in range(10):
            sched.schedule(float(i), lambda: None)
        return sched.run(), {}

    perf.GLOBAL.reset()
    perf.GLOBAL.heap_peak = 200_000  # stale residue from a "previous bench"
    result = run_bench(tiny_workload, repeat=2)
    assert result["kernel"]["heap_peak"] <= 10


def test_batched_deliveries_counter_counts_merged_events():
    perf.GLOBAL.reset()
    network, agents, _ = build_srm_session(star(8), range(1, 9))
    network.scheduler.schedule(0.0, lambda: agents[1].send_data("x"))
    network.run(max_events=100_000)
    # The 7 leaf receivers sit at equal distance: their deliveries merge
    # into batched events, each saving all-but-one scheduler event.
    assert perf.GLOBAL.batched_deliveries > 0


@pytest.mark.parametrize("make", [EventScheduler, _permuted_heap],
                         ids=["contract", "permuted"])
def test_scan_counter_counts_every_popped_entry(make):
    """``bucket_scan_len`` (the traced benchmark's scans per event) counts
    each heap entry a drain pops, live or lazily cancelled."""
    perf.GLOBAL.reset()
    sched = make()
    events = [sched.schedule(float(i % 4), lambda: None) for i in range(10)]
    for event in events[:3]:
        event.cancel()
    assert sched.step() is True
    assert sched.run() == 6
    assert perf.GLOBAL.events_executed == 7
    assert perf.GLOBAL.bucket_scan_len == 10
