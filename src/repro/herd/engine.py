"""The herd: a struct-of-arrays SRM member engine for mega-sessions.

The agent engine (:mod:`repro.core.agent` over :mod:`repro.net`) keeps a
Python object per member, a scheduler event per pending timer and a
trace row per protocol action — perfect for figure-scale sessions,
hopeless for 10^5 members. :class:`HerdSimulation` simulates the *same*
protocol over the same unit-delay trees as array operations:

* member state lives in parallel numpy arrays indexed by membership
  position (the struct-of-arrays layout);
* each timer class (request, repair) is one :class:`HerdWave` — a single
  scheduler event armed at the array minimum, draining each exact-tie
  batch of member expiries in one callback;
* multicast delivery is one :meth:`TreeIndex.dist_row_to` per send plus
  a stable radix sort, producing one scheduler event per distinct
  distance — the same per-distance merging the network layer performs;
* timer draws replay each member's :class:`RandomSource` fork from
  :class:`DrawPools`, so every draw is bit-identical to the draw the
  member's agent would have made, and all shared arithmetic lives in
  :mod:`repro.core.timer_math`.

Equivalence contract (enforced by ``tests/test_herd_equivalence.py``):
request/repair/suppression *counts* are exact against the agent engine,
per-member delays and ratios are exact, and trace-row order matches up
to same-instant batches from distinct senders (see ``docs/herd.md``).

Two observation modes share one decision path. In **full** mode (small
sessions, or always under ``SRM_CHECK=1``) the herd emits the agent
engine's protocol trace rows member by member and reuses
:class:`MetricsCollector` unchanged. In **aggregate** mode it counts in
place and renders the same bundle shape via
:func:`repro.herd.metrics.aggregate_snapshot`. The vectorized state
mutation is identical in both; full mode only *adds* an ordered emission
pass driven by the same decision masks, so the modes cannot drift apart.

A few members stay "interesting" and are promoted to
:class:`HerdMember` views in :attr:`HerdSimulation.actors` — the source,
members adjacent to the dropped edge, the nearest affected member, and
the first member to fire in each wave. These are windows into the
arrays (not parallel state) used by the oracle facade and by tests.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core import timer_math
from repro.core.config import SrmConfig
from repro.core.names import DEFAULT_PAGE, AduName
from repro.experiments.common import (ROUND_EVENT_LIMIT, DropEdge,
                                      RoundOutcome, Scenario)
from repro.herd.metrics import aggregate_snapshot
from repro.herd.rngpool import DEFAULT_DEPTH, DrawPools
from repro.herd.topo import TreeIndex
from repro.herd.wave import HerdWave
from repro.metrics.bundle import RunMetrics
from repro.metrics.collector import (MetricsCollector, _perf_snapshot)
from repro.metrics.events import LossEventReport, analyze_loss_event
from repro.net.packet import DEFAULT_TTL
from repro.oracle.base import check_mode_enabled
from repro.sim.rng import RandomSource
from repro.sim.scheduler import EventScheduler
from repro.sim.trace import Trace

FloatArray = Any
IntArray = Any

_EMPTY = np.empty(0, dtype=np.int64)

#: Sessions at or below this size default to full-trace mode, where the
#: herd is row-for-row comparable with the agent engine; larger sessions
#: default to aggregate counting.
FULL_TRACE_THRESHOLD = 512

#: Config features the herd does not vectorize. Sessions needing them
#: use the agent engine; :class:`HerdSimulation` refuses loudly rather
#: than silently diverging.
_UNSUPPORTED = (
    ("adaptive", False), ("session_enabled", False),
    ("local_repair_mode", None), ("request_scope_zone", None),
    ("request_ttl", None), ("rate_limit", None), ("fec_block", None),
    ("adopt_streams", False), ("distance_oracle", True),
)


class HerdUnsupportedError(RuntimeError):
    """The scenario or config needs the full agent engine."""


class HerdMember:
    """A per-member window into the herd's arrays.

    Promoted for "interesting" members only; carries no state of its
    own, so it can never disagree with the arrays. The oracle facade
    resolves every member to one of these (or to the shared
    config-bearing view, ``node is None``).
    """

    __slots__ = ("_sim", "node", "reason")

    def __init__(self, sim: "HerdSimulation", node: Optional[int],
                 reason: str) -> None:
        self._sim = sim
        self.node = node
        self.reason = reason

    @property
    def config(self) -> SrmConfig:
        return self._sim.config

    def _index(self) -> Optional[int]:
        if self.node is None:
            return None
        return self._sim.member_index.get(self.node)

    @property
    def distance_to_source(self) -> Optional[float]:
        i = self._index()
        return None if i is None else float(self._sim._dist_src[i])

    @property
    def holds_data(self) -> bool:
        i = self._index()
        return False if i is None else bool(self._sim._have[i])

    @property
    def request_pending(self) -> bool:
        i = self._index()
        if i is None:
            return False
        sim = self._sim
        return bool(sim._r_exists[i] and not sim._r_done[i]
                    and math.isfinite(sim._r_expiry[i]))

    @property
    def request_backoff_count(self) -> Optional[int]:
        i = self._index()
        return None if i is None else int(self._sim._r_backoff[i])

    @property
    def repair_pending(self) -> bool:
        i = self._index()
        return False if i is None else bool(self._sim._p_pending[i])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HerdMember node={self.node} reason={self.reason!r}>"


class HerdSimulation:
    """Vectorized loss-recovery rounds, duck-typing the agent simulation.

    Drop-in for :class:`repro.experiments.common.LossRecoverySimulation`
    from :func:`run_experiment`'s point of view: same constructor shape,
    same ``run_round`` contract, same ``last_round_metrics`` bundle.
    """

    def __init__(self, scenario: Scenario,
                 config: Optional[SrmConfig] = None, seed: int = 0,
                 trace_mode: str = "auto",
                 full_trace_threshold: int = FULL_TRACE_THRESHOLD,
                 pool_depth: int = DEFAULT_DEPTH,
                 inject: Optional[str] = None,
                 scheduler: Optional[EventScheduler] = None) -> None:
        if trace_mode not in ("auto", "full", "aggregate"):
            raise ValueError(f"unknown trace_mode {trace_mode!r}")
        self.scenario = scenario
        self.config = config if config is not None else SrmConfig()
        self._reject_unsupported(self.config)
        self.master_rng = RandomSource(seed)
        self._inject = inject

        try:
            self._topo = TreeIndex(scenario.spec)
        except ValueError as exc:
            raise HerdUnsupportedError(str(exc)) from None
        if scenario.source not in scenario.members:
            raise ValueError("scenario source is not a member")
        members = list(scenario.members)
        count = len(members)
        self._nodes = np.asarray(members, dtype=np.int64)
        self.member_index: Dict[int, int] = {
            node: i for i, node in enumerate(members)}
        self._source = scenario.source
        self._source_i = self.member_index[scenario.source]
        try:
            self._dist_src = self._topo.dist_row_to(
                scenario.source, self._nodes).astype(np.float64)
        except KeyError as exc:
            raise HerdUnsupportedError(
                f"member {exc.args[0]} unreachable from the source"
            ) from None
        # Hoist the per-member LCA gathers out of the delivery hot path.
        self._topo.attach_targets(self._nodes)
        self._params = self.config.fixed_params(count)

        #: Same fork labels, same membership order, same master draws as
        #: LossRecoverySimulation's agent loop — member streams align.
        self._pools = DrawPools.from_master(self.master_rng, members,
                                            depth=pool_depth)

        # Check mode always runs full-trace: the oracles read rows.
        self._full = (trace_mode == "full" or check_mode_enabled()
                      or (trace_mode == "auto"
                          and count <= full_trace_threshold))
        self.scheduler = (scheduler if scheduler is not None
                          else EventScheduler())
        self.trace = Trace(enabled=self._full)
        self.collector: Optional[MetricsCollector] = None
        if self._full:
            self.collector = MetricsCollector(
                control_packet_size=self.config.control_packet_size
            ).attach(self.trace)

        # ---- struct-of-arrays member state (membership-position index)
        shape = (count,)
        self._have = np.zeros(shape, dtype=bool)
        self._affected = np.zeros(shape, dtype=bool)
        # request context
        self._r_exists = np.zeros(shape, dtype=bool)
        self._r_done = np.zeros(shape, dtype=bool)
        self._r_expiry = np.full(shape, math.inf, dtype=np.float64)
        self._r_detected = np.zeros(shape, dtype=np.float64)
        self._r_backoff = np.zeros(shape, dtype=np.int64)
        self._r_ignore = np.full(shape, -math.inf, dtype=np.float64)
        self._r_rounds = np.zeros(shape, dtype=np.int64)
        self._r_observed = np.zeros(shape, dtype=np.int64)
        self._r_first = np.zeros(shape, dtype=bool)
        self._wait_at = np.zeros(shape, dtype=np.float64)
        self._wait_ratio = np.zeros(shape, dtype=np.float64)
        # repair context
        self._p_exists = np.zeros(shape, dtype=bool)
        self._p_done = np.zeros(shape, dtype=bool)
        self._p_pending = np.zeros(shape, dtype=bool)
        self._p_expiry = np.full(shape, math.inf, dtype=np.float64)
        self._p_set_at = np.zeros(shape, dtype=np.float64)
        self._p_requester = np.zeros(shape, dtype=np.int64)
        self._p_observed = np.zeros(shape, dtype=np.int64)
        # suppression / recovery bookkeeping
        self._holddown = np.full(shape, -math.inf, dtype=np.float64)
        self._rec_mask = np.zeros(shape, dtype=bool)
        self._rec_at = np.zeros(shape, dtype=np.float64)
        self._rec_ratio = np.zeros(shape, dtype=np.float64)

        #: The waves hold *references* to the expiry arrays; handlers
        #: mutate them in place and resync — never rebind.
        self._req_wave = HerdWave(self.scheduler, self._r_expiry,
                                  self._request_fire, label="request")
        self._rep_wave = HerdWave(self.scheduler, self._p_expiry,
                                  self._repair_fire, label="repair")

        self._n_requests = 0
        self._n_repairs = 0
        self._n_detected = 0
        self._agg_timers: Dict[str, int] = {}
        self._agg_control: Dict[int, int] = {}
        self._perf_before = _perf_snapshot()
        self._payload_name: Optional[AduName] = None
        self._last_recovered = True
        self._promoted_request = True
        self._promoted_repair = True

        self.rounds_run = 0
        self.last_round_metrics: Optional[RunMetrics] = None
        #: inject="tie-order" shared state: see :meth:`_tie_order_arrive`.
        self._tie_claims: set[int] = set()
        self.actors: Dict[int, HerdMember] = {}
        self.shared_member = HerdMember(self, None, "shared-config")
        self.oracle = None
        if check_mode_enabled():
            from repro.herd.oracles import attach_herd_oracles
            self.oracle = attach_herd_oracles(self)

    # ------------------------------------------------------------------
    # Validation / views
    # ------------------------------------------------------------------

    @staticmethod
    def _reject_unsupported(config: SrmConfig) -> None:
        bad = [field for field, allowed in _UNSUPPORTED
               if getattr(config, field) != allowed]
        if bad:
            raise HerdUnsupportedError(
                "herd engine does not support config feature(s) "
                f"{', '.join(bad)}; use the agent engine")

    @property
    def full_trace(self) -> bool:
        return self._full

    @property
    def session_size(self) -> int:
        return len(self._nodes)

    def node_distance(self, a: int, b: int) -> float:
        """One-way delay between any two nodes (inf when unroutable)."""
        try:
            return self._topo.dist(a, b)
        except KeyError:
            return math.inf

    def affected_members(self, drop_edge: Optional[DropEdge] = None
                         ) -> List[int]:
        """Members below the congested link (the agent engine's view)."""
        drop_edge = drop_edge if drop_edge is not None else \
            self.scenario.drop_edge
        below = self._topo.below(drop_edge[0], drop_edge[1])
        mask = below[self._nodes]
        mask[self._source_i] = False
        return sorted(int(node) for node in self._nodes[mask])

    def _promote(self, i: int, reason: str) -> None:
        node = int(self._nodes[i])
        if node not in self.actors:
            self.actors[node] = HerdMember(self, node, reason)

    # ------------------------------------------------------------------
    # Trace plumbing
    # ------------------------------------------------------------------

    def _emit(self, node: int, kind: str, **detail: Any) -> None:
        self.trace.record(self.scheduler.now, node, kind, **detail)

    def _bump(self, kind: str, count: int = 1) -> None:
        if count:
            self._agg_timers[kind] = self._agg_timers.get(kind, 0) + count

    def _control(self, node: int, count: int = 1) -> None:
        self._agg_control[node] = self._agg_control.get(node, 0) + count

    # ------------------------------------------------------------------
    # Multicast delivery
    # ------------------------------------------------------------------

    def _deliver(self, origin: int, handler: Any,
                 extra: Tuple[Any, ...] = (),
                 targets: Optional[IntArray] = None) -> None:
        """Schedule one arrival batch per distinct origin distance.

        Mirrors the network layer's per-distance delivery merging: each
        batch arrives ``d`` units after the send, members within a batch
        in membership order (the stable sort preserves position order
        within equal keys), batches scheduled in ascending distance so
        same-instant ties against other events resolve in the same
        sequence order as the agent engine's deliveries.
        """
        dists = self._topo.dist_row(origin)
        if targets is not None:
            dists = dists[targets]
        order = np.argsort(dists, kind="stable")
        ds = dists[order]
        start = int(np.searchsorted(ds, 1))  # drop the origin (d == 0)
        if start >= len(ds):
            return
        positions = order[start:]
        ds = ds[start:]
        cuts = np.flatnonzero(np.diff(ds)) + 1
        for segment in np.split(positions, cuts):
            delay = float(dists[segment[0]])
            batch = segment if targets is None else targets[segment]
            if self._inject == "tie-order":
                # Planted bug for the race-detector canary: split the
                # batch into one scheduler event per member, so the
                # same-instant arrivals become a permutable tie group
                # feeding the shared-set leader election below.
                for position in batch:
                    self.scheduler.schedule(
                        delay, self._tie_order_arrive, handler,
                        np.asarray([position]), delay, extra)
                continue
            self.scheduler.schedule(delay, handler, batch, delay, *extra)

    def _tie_order_arrive(self, handler: Any, idx: IntArray, delay: float,
                          extra: Tuple[Any, ...]) -> None:
        """Planted tie-order bug (``inject="tie-order"``; canary only).

        A timer callback that iterates mutable *shared* state — a plain
        unordered set — and lets its iteration order elect a leader:
        the leader's arrival is processed now, everyone else's is
        deferred by a tiny skew. Which members the set holds when a
        callback fires depends on same-instant drain order, so the
        trace diverges under permuted drains — exactly what
        ``repro lint --races --inject tie-order`` must catch.
        """
        tag = (int(idx[0]) * 2654435761) % 1021
        self._tie_claims.add(tag)
        leader = next(iter(self._tie_claims))  # lint: ignore[SRM002, SRM008]
        if leader == tag:
            handler(idx, delay, *extra)
        else:
            self.scheduler.schedule(1e-9, handler, idx, delay, *extra)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def _send_payload(self, name: AduName) -> None:
        self._have[self._source_i] = True
        if self._full:
            self._emit(self._source, "send_data", name=name)
        # The congested link eats this packet: members below the drop
        # edge never see a delivery for it.
        reached = np.flatnonzero(~self._affected)
        self._deliver(self._source, self._payload_arrive, targets=reached)

    def _payload_arrive(self, idx: IntArray, dist: float) -> None:
        self._have[idx] = True

    def _send_trigger(self, name: AduName) -> None:
        if self._full:
            self._emit(self._source, "send_data", name=name)
        self._deliver(self._source, self._trigger_arrive)

    def _trigger_arrive(self, idx: IntArray, dist: float) -> None:
        """Gap detection: the trigger reveals the missing payload."""
        detect = idx[~self._have[idx]]
        if detect.size == 0:
            return
        now = self.scheduler.now
        us = self._pools.take_many(detect)
        low, high = timer_math.request_delay_bounds_vec(
            self._dist_src[detect], self._params.c1, self._params.c2,
            self._r_backoff[detect], self.config.backoff_factor())
        delays = timer_math.draw_timers_vec(low, high, us)
        self._r_exists[detect] = True
        self._r_detected[detect] = now
        self._r_expiry[detect] = now + delays
        self._n_detected += int(detect.size)
        if self._full:
            name = self._payload_name
            for k, i in enumerate(detect):
                node = int(self._nodes[i])
                self._emit(node, "loss_detected", name=name)
                self._emit(node, "request_timer_set", name=name,
                           delay=float(delays[k]), backoff=0,
                           ignore_until=None)
        else:
            self._bump("request_timer_set", int(detect.size))
        self._req_wave.resync()

    # ------------------------------------------------------------------
    # Request wave
    # ------------------------------------------------------------------

    def _backoff_member(self, i: int, node: int) -> int:
        """Double (or, injected-buggy, fail to double) one timer."""
        if self._inject != "no-backoff":
            self._r_backoff[i] += 1
        count = int(self._r_backoff[i])
        low, high = timer_math.request_delay_bounds(
            float(self._dist_src[i]), self._params.c1, self._params.c2,
            count, self.config.backoff_factor())
        delay = timer_math.draw_timer(low, high, self._pools.take(i))
        now = self.scheduler.now
        self._r_expiry[i] = now + delay
        ignore: Optional[float] = None
        if self.config.ignore_backoff_enabled:
            ignore = timer_math.ignore_backoff_until(now, delay)
            self._r_ignore[i] = ignore
        else:
            self._r_ignore[i] = -math.inf
        if self._full:
            self._emit(node, "request_timer_set", name=self._payload_name,
                       delay=delay, backoff=count, ignore_until=ignore)
        else:
            self._bump("request_timer_set")
        return count

    def _request_fire(self, idx: IntArray) -> None:
        now = self.scheduler.now
        name = self._payload_name
        for i in map(int, idx):
            if self._r_done[i] or not self._r_exists[i]:
                self._r_expiry[i] = math.inf
                continue
            node = int(self._nodes[i])
            if self._r_rounds[i] >= self.config.max_request_rounds:
                self._r_done[i] = True
                self._r_expiry[i] = math.inf
                if self._full:
                    self._emit(node, "request_abandoned", name=name)
                else:
                    self._bump("request_abandoned")
                continue
            self._r_rounds[i] += 1
            self._n_requests += 1
            self._r_observed[i] += 1
            if not self._r_first[i]:
                self._r_first[i] = True
                delay = now - self._r_detected[i]
                rtt = 2.0 * float(self._dist_src[i])
                ratio = delay / rtt if rtt > 0 else 0.0
                self._wait_at[i] = now
                self._wait_ratio[i] = ratio
                if self._full:
                    self._emit(node, "first_request_event", name=name,
                               delay=delay, rtt=rtt, ratio=ratio,
                               via="sent")
            if self._full:
                self._emit(node, "send_request", name=name,
                           round=int(self._r_rounds[i]), ttl=DEFAULT_TTL)
            else:
                self._bump("send_request")
                self._control(node)
            # "multicasts a request ... and doubles the request timer".
            self._backoff_member(i, node)
            if self._promoted_request is False:
                self._promoted_request = True
                self._promote(i, "first-request-fire")
            self._deliver(node, self._request_arrive, extra=(node,))
        # The wave's head-fire resyncs after this returns; the explicit
        # resync here covers calls landing through tie batches that
        # mutated other members' expiries.
        self._req_wave.resync()

    def _request_arrive(self, idx: IntArray, dist: float,
                        requester: int) -> None:
        """One request-arrival batch: suppression, backoff, repair."""
        now = self.scheduler.now
        name = self._payload_name
        have = self._have[idx]
        holders = idx[have]
        others = idx[~have]
        # Full-mode emission plan: member position -> ordered rows.
        # Populated only in full mode; the vectorized mutations above it
        # are the single decision path both modes share.
        rows: Dict[int, List[Tuple[str, Dict[str, Any]]]] = {}

        def plan(member: int, kind: str, **detail: Any) -> None:
            rows.setdefault(member, []).append((kind, detail))

        held = busy = fresh = _EMPTY
        if holders.size:
            # Agent order: hold-down first, then a pending repair timer,
            # then a fresh repair context (Section III-B).
            in_hold = now < self._holddown[holders]
            held = holders[in_hold]
            rest = holders[~in_hold]
            pending = self._p_pending[rest]
            busy = rest[pending]
            fresh = rest[~pending]
            if fresh.size:
                us = self._pools.take_many(fresh)
                # Every batch member sits at the same distance from the
                # requester (that is what defines the batch).
                low, high = timer_math.repair_delay_bounds(
                    dist, self._params.d1, self._params.d2)
                delays_p = timer_math.draw_timers_vec(low, high, us)
                self._p_exists[fresh] = True
                self._p_done[fresh] = False
                self._p_pending[fresh] = True
                self._p_observed[fresh] = 0
                self._p_set_at[fresh] = now
                self._p_requester[fresh] = requester
                self._p_expiry[fresh] = now + delays_p
                self._rep_wave.resync()

        go = stay = firsts = active = dups = _EMPTY
        if others.size:
            if not np.all(self._r_exists[others]):
                # Guarded impossible in supported scenarios: the trigger
                # reaches every affected member no later than any
                # request (triangle inequality), so detection precedes
                # request arrival and the context always exists.
                raise RuntimeError(
                    "herd member received a request before detecting "
                    "the loss; scenario outside the herd's invariants")
            active = others[~self._r_done[others]]
            if active.size:
                self._r_observed[active] += 1
                first_mask = ~self._r_first[active]
                firsts = active[first_mask]
                dups = active[~first_mask]
                if firsts.size:
                    self._r_first[firsts] = True
                    delays_w = now - self._r_detected[firsts]
                    rtts = 2.0 * self._dist_src[firsts]
                    ratios = np.divide(delays_w, rtts,
                                       out=np.zeros_like(delays_w),
                                       where=rtts > 0)
                    self._wait_at[firsts] = now
                    self._wait_ratio[firsts] = ratios
                backoff_mask = now >= self._r_ignore[active]
                go = active[backoff_mask]
                stay = active[~backoff_mask]
                if go.size:
                    # Vectorized _backoff_member: same ops, elementwise.
                    if self._inject != "no-backoff":
                        self._r_backoff[go] += 1
                    counts = self._r_backoff[go]
                    us_b = self._pools.take_many(go)
                    low_b, high_b = timer_math.request_delay_bounds_vec(
                        self._dist_src[go], self._params.c1,
                        self._params.c2, counts,
                        self.config.backoff_factor())
                    delays_b = timer_math.draw_timers_vec(
                        low_b, high_b, us_b)
                    self._r_expiry[go] = now + delays_b
                    if self.config.ignore_backoff_enabled:
                        ignores = now + delays_b / 2.0
                        self._r_ignore[go] = ignores
                    else:
                        self._r_ignore[go] = -math.inf
                    self._req_wave.resync()

        if not self._full:
            self._bump("request_ignored_holddown", int(held.size))
            self._bump("request_while_repair_pending", int(busy.size))
            self._bump("repair_scheduled", int(fresh.size))
            self._bump("dup_request_observed", int(dups.size))
            self._bump("request_timer_set", int(go.size))
            self._bump("request_backoff", int(go.size))
            self._bump("request_dup_ignored", int(stay.size))
            return

        # Ordered emission, exactly the agent's per-member row sequence.
        for position in map(int, held):
            plan(position, "request_ignored_holddown", name=name)
        for position in map(int, busy):
            plan(position, "request_while_repair_pending", name=name)
        for position in map(int, fresh):
            plan(position, "repair_scheduled", name=name,
                 requester=requester)
        for k, position in enumerate(map(int, firsts)):
            plan(position, "first_request_event", name=name,
                 delay=float(delays_w[k]), rtt=float(rtts[k]),
                 ratio=float(ratios[k]), via="heard")
        for position in map(int, dups):
            plan(position, "dup_request_observed", name=name,
                 requester=requester)
        ignore_on = self.config.ignore_backoff_enabled
        for k, position in enumerate(map(int, go)):
            plan(position, "request_timer_set", name=name,
                 delay=float(delays_b[k]),
                 backoff=int(counts[k]),
                 ignore_until=float(ignores[k]) if ignore_on else None)
            plan(position, "request_backoff", name=name,
                 count=int(counts[k]))
        for position in map(int, stay):
            plan(position, "request_dup_ignored", name=name)
        for position in map(int, idx):
            planned = rows.get(position)
            if planned:
                node = int(self._nodes[position])
                for kind, detail in planned:
                    self._emit(node, kind, **detail)

    # ------------------------------------------------------------------
    # Repair wave
    # ------------------------------------------------------------------

    def _repair_fire(self, idx: IntArray) -> None:
        now = self.scheduler.now
        name = self._payload_name
        for i in map(int, idx):
            if self._p_done[i] or not self._p_exists[i] \
                    or not self._have[i]:
                self._p_expiry[i] = math.inf
                self._p_pending[i] = False
                continue
            node = int(self._nodes[i])
            requester = int(self._p_requester[i])
            self._p_pending[i] = False
            self._p_done[i] = True
            self._p_expiry[i] = math.inf
            self._n_repairs += 1
            self._p_observed[i] += 1  # our own repair; never a dup row
            rtt = 2.0 * self._topo.dist(node, requester)
            delay = now - self._p_set_at[i]
            ratio = delay / rtt if rtt > 0 else 0.0
            if self._full:
                self._emit(node, "send_repair", name=name, two_step=False,
                           delay=delay, ratio=ratio, answering=requester)
            else:
                self._bump("send_repair")
                self._control(node)
            anchor = self._source if requester == node else requester
            self._holddown[i] = timer_math.holddown_until(
                now, self._topo.dist(node, anchor),
                self.config.holddown_factor)
            if self._promoted_repair is False:
                self._promoted_repair = True
                self._promote(i, "first-repair-fire")
            self._deliver(node, self._repair_arrive,
                          extra=(node, requester))
        self._rep_wave.resync()

    def _repair_arrive(self, idx: IntArray, dist: float, replier: int,
                       answering: int) -> None:
        """One repair-arrival batch: cancel, recover, hold down."""
        now = self.scheduler.now
        name = self._payload_name

        contexts = idx[self._p_exists[idx]]
        cancel = np.empty(0, dtype=np.int64)
        dup = np.empty(0, dtype=np.int64)
        if contexts.size:
            cancel = contexts[~self._p_done[contexts]
                              & self._p_pending[contexts]]
            if cancel.size:
                self._p_pending[cancel] = False
                self._p_done[cancel] = True
                self._p_expiry[cancel] = math.inf
                self._rep_wave.resync()
            self._p_observed[contexts] += 1
            dup = contexts[self._p_observed[contexts] >= 2]

        recovering = idx[~self._have[idx]]
        active = np.empty(0, dtype=np.int64)
        firsts = np.empty(0, dtype=np.int64)
        if recovering.size:
            if not np.all(self._r_exists[recovering]):
                raise RuntimeError(
                    "herd member received a repair before detecting "
                    "the loss; scenario outside the herd's invariants")
            active = recovering[~self._r_done[recovering]]
            if active.size:
                self._r_done[active] = True
                self._r_expiry[active] = math.inf
                delays = now - self._r_detected[active]
                rtts = 2.0 * self._dist_src[active]
                ratios = np.divide(delays, rtts,
                                   out=np.zeros_like(delays),
                                   where=rtts > 0)
                self._rec_mask[active] = True
                self._rec_at[active] = now
                self._rec_ratio[active] = ratios
                first_mask = ~self._r_first[active]
                firsts = active[first_mask]
                if firsts.size:
                    self._r_first[firsts] = True
                    self._wait_at[firsts] = now
                    self._wait_ratio[firsts] = ratios[first_mask]
                self._req_wave.resync()
            self._have[recovering] = True

        # Receiving a repair starts the 3*d hold-down for *everyone* —
        # recovered and already-holding members alike — anchored at the
        # member the repair answers (the source, for that member itself).
        anchor_dist = self._topo.dist_row(answering)[idx].astype(np.float64)
        self_mask = self._nodes[idx] == answering
        anchor_dist[self_mask] = self._dist_src[idx[self_mask]]
        self._holddown[idx] = now + \
            self.config.holddown_factor * anchor_dist

        if self._full:
            cancel_set = set(map(int, cancel))
            dup_set = set(map(int, dup))
            active_set = set(map(int, active))
            first_set = set(map(int, firsts))
            ratio_at = {int(position): k
                        for k, position in enumerate(active)}
            for position in map(int, idx):
                node = int(self._nodes[position])
                if position in cancel_set:
                    self._emit(node, "repair_cancelled", name=name)
                if position in dup_set:
                    self._emit(node, "dup_repair_observed", name=name,
                               replier=replier)
                if position in active_set:
                    k = ratio_at[position]
                    if position in first_set:
                        self._emit(node, "first_request_event", name=name,
                                   delay=float(delays[k]),
                                   rtt=float(rtts[k]),
                                   ratio=float(ratios[k]), via="data")
                    self._emit(node, "data_recovered", name=name,
                               delay=float(delays[k]), rtt=float(rtts[k]),
                               ratio=float(ratios[k]), via="repair")
        else:
            self._bump("repair_cancelled", int(cancel.size))
            self._bump("dup_repair_observed", int(dup.size))

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------

    def _reset_round(self, below: FloatArray) -> None:
        self._have.fill(False)
        self._affected[:] = below[self._nodes]
        self._affected[self._source_i] = False
        self._r_exists.fill(False)
        self._r_done.fill(False)
        self._r_expiry.fill(math.inf)
        self._r_detected.fill(0.0)
        self._r_backoff.fill(0)
        self._r_ignore.fill(-math.inf)
        self._r_rounds.fill(0)
        self._r_observed.fill(0)
        self._r_first.fill(False)
        self._wait_at.fill(0.0)
        self._wait_ratio.fill(0.0)
        self._p_exists.fill(False)
        self._p_done.fill(False)
        self._p_pending.fill(False)
        self._p_expiry.fill(math.inf)
        self._p_set_at.fill(0.0)
        self._p_requester.fill(0)
        self._p_observed.fill(0)
        self._holddown.fill(-math.inf)
        self._rec_mask.fill(False)
        self._rec_at.fill(0.0)
        self._rec_ratio.fill(0.0)
        self._req_wave.cancel()
        self._rep_wave.cancel()
        self._n_requests = 0
        self._n_repairs = 0
        self._n_detected = 0
        self._agg_timers = {}
        self._agg_control = {}
        self._perf_before = _perf_snapshot()

    def run_round(self, drop_edge: Optional[DropEdge] = None,
                  trigger_gap: float = 1.0) -> RoundOutcome:
        """Drop one packet, run recovery to quiescence, return metrics."""
        scenario = self.scenario
        drop_edge = drop_edge if drop_edge is not None else \
            scenario.drop_edge
        if trigger_gap <= 0:
            raise HerdUnsupportedError(
                "herd rounds need trigger_gap > 0 (detection must "
                "precede request arrivals)")
        if not self._last_recovered:
            raise HerdUnsupportedError(
                "previous herd round left members unrecovered; "
                "carry-over loss state needs the agent engine")
        try:
            below = self._topo.below(drop_edge[0], drop_edge[1])
        except ValueError as exc:
            raise HerdUnsupportedError(str(exc)) from None
        if below[scenario.source]:
            raise HerdUnsupportedError(
                f"drop edge {drop_edge} is not oriented away from "
                "the source")

        self.trace.clear()
        if self.collector is not None:
            self.collector.begin_round()
        self._tie_claims.clear()
        self._reset_round(below)
        if self._full:
            now = self.scheduler.now
            for node in scenario.members:
                self.trace.record(now, node, "recovery_reset")
        if self.oracle is not None:
            self.oracle.reset()

        self.actors.clear()
        self._promote(self._source_i, "source")
        for end in drop_edge:
            i = self.member_index.get(end)
            if i is not None:
                self._promote(i, "drop-edge")
        affected = np.flatnonzero(self._affected)
        if affected.size:
            nearest = affected[int(np.argmin(self._dist_src[affected]))]
            self._promote(int(nearest), "nearest-affected")
        self._promoted_request = False
        self._promoted_repair = False

        name = AduName(source=scenario.source, page=DEFAULT_PAGE,
                       seq=2 * self.rounds_run + 1)
        trigger = AduName(source=scenario.source, page=DEFAULT_PAGE,
                         seq=2 * self.rounds_run + 2)
        self._payload_name = name
        self.scheduler.schedule(0.0, self._send_payload, name)
        self.scheduler.schedule(trigger_gap, self._send_trigger, trigger)
        self.scheduler.run(max_events=ROUND_EVENT_LIMIT)
        self.rounds_run += 1
        if self.oracle is not None:
            self.oracle.verify(context=f"round {self.rounds_run}")

        if self.collector is not None:
            report = analyze_loss_event(self.trace, name)
            if self.oracle is not None:
                self.collector.verify(self.trace)
            self.last_round_metrics = self.collector.snapshot(rounds=1)
        else:
            self.last_round_metrics, report = aggregate_snapshot(
                name=name, requests=self._n_requests,
                repairs=self._n_repairs,
                losses_detected=self._n_detected,
                rec_nodes=self._nodes[self._rec_mask],
                rec_ratios=self._rec_ratio[self._rec_mask],
                rec_ats=self._rec_at[self._rec_mask],
                wait_nodes=self._nodes[self._r_first],
                wait_ratios=self._wait_ratio[self._r_first],
                wait_ats=self._wait_at[self._r_first],
                timers=self._agg_timers, control=self._agg_control,
                control_packet_size=self.config.control_packet_size,
                perf_before=self._perf_before)
        return self._outcome(report, name)

    # ------------------------------------------------------------------
    # Outcome (computed from the arrays, identically in both modes)
    # ------------------------------------------------------------------

    def _outcome(self, report: LossEventReport,
                 name: AduName) -> RoundOutcome:
        recovered = bool(self._have.all())
        self._last_recovered = recovered
        requests = self._n_requests
        repairs = self._n_repairs
        last_ratio: Optional[float] = None
        rec = np.flatnonzero(self._rec_mask)
        if rec.size:
            # Last member by (recovery time, node id) — the collector's
            # tie-break, exactly.
            order = np.lexsort((self._nodes[rec], self._rec_at[rec]))
            last_ratio = float(self._rec_ratio[rec[order[-1]]])
        closest: Optional[float] = None
        waited = np.flatnonzero(self._r_first)
        if waited.size:
            dists = self._dist_src[waited]
            at_minimum = waited[dists == dists.min()]
            closest = float(self._wait_ratio[at_minimum].min())
        return RoundOutcome(
            report=report, name=name, requests=requests, repairs=repairs,
            duplicate_requests=max(0, requests - 1),
            duplicate_repairs=max(0, repairs - 1),
            last_member_ratio=last_ratio,
            closest_request_ratio=closest,
            recovered=recovered)
