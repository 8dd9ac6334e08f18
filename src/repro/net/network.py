"""The network container: topology + delivery engines.

:class:`Network` owns the scheduler, the graph of nodes and links, the
multicast group membership, and the per-origin shortest-path trees. It
offers two delivery engines with identical semantics:

* ``hop`` — reference implementation: packets are forwarded link by link,
  consuming one event per hop. Used by unit tests and small examples.
* ``direct`` — fast implementation: a send is expanded into one arrival
  event per receiver at the correct shortest-path delay, with drop filters,
  TTL thresholds and scope zones applied analytically against the source
  tree. Used by the paper-scale experiments.

A dedicated equivalence test (tests/test_delivery_equivalence.py) checks
that the two engines deliver the same packets at the same times.

One documented difference: the direct engine consults drop filters at
*send* time, the hop engine at *link-crossing* time. For stateless
filters, and for stateful (counting) filters whose predicate matches
packets from a single origin — the paper's "drop the first data packet
from source S" model — the engines are exactly equivalent, because
packets from one origin cross any given link in send order. A counting
filter matching several origins may pick a different victim when two
packets race toward the same link.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, \
    Sequence, Set, Tuple, Union

from repro.mcast.groups import GroupManager
from repro.net.link import DropFilter, Link
from repro.net.node import Agent, Node
from repro.net.packet import DEFAULT_TTL, GroupAddress, NodeId, Packet
from repro.net.routing import SourceTree, build_source_tree
from repro.sim import perf
from repro.sim.scheduler import EventScheduler
from repro.sim.trace import Trace

#: One delivery-plan entry: (one-way delay, hop count, target), where
#: target is a single member id or a tuple of member ids that share the
#: same delay and hop count and are therefore delivered by one event.
PlanTarget = Union[NodeId, Tuple[NodeId, ...]]
PlanEntry = Tuple[float, int, PlanTarget]


class Network:
    """A simulated internetwork."""

    def __init__(self, scheduler: Optional[EventScheduler] = None,
                 trace: Optional[Trace] = None,
                 delivery: str = "direct") -> None:
        if delivery not in ("direct", "hop"):
            raise ValueError(f"unknown delivery mode {delivery!r}")
        self.scheduler = (scheduler if scheduler is not None
                          else EventScheduler())
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.delivery = delivery
        self.nodes: Dict[NodeId, Node] = {}
        self.links: List[Link] = []
        self.adjacency: Dict[NodeId, Dict[NodeId, Link]] = {}
        self.groups = GroupManager()
        self.scope_zones: Dict[str, Set[NodeId]] = {}
        self.account_bandwidth = False
        self.packets_dropped = 0
        self._trees: Dict[NodeId, SourceTree] = {}
        self._filtered_links: Set[Link] = set()
        self._queueing_links: Set[Link] = set()
        #: (origin, gid) -> (membership version, nodes with members at or
        #: below them) — the DVMRP-style pruned forwarding state.
        self._prune_cache: Dict[Tuple[NodeId, int], Tuple[int, Set[NodeId]]] = {}
        #: Direct-engine delivery plans: (origin, gid, initial_ttl,
        #: scope_zone) -> (tree identity, membership version, zone version,
        #: delivery entries, receiver count). The tree identity entry
        #: invalidates on any topology change (trees are rebuilt), the
        #: versions on membership / zone changes. Drop-filter changes do
        #: NOT invalidate: plans exclude filters by design (cuts are
        #: applied per send on top of the cached plan).
        self._plan_cache: Dict[
            Tuple[NodeId, int, int, Optional[str]],
            Tuple[SourceTree, int, int, Tuple[PlanEntry, ...], int]] = {}
        self._zone_version = 0
        #: node -> bound ``receive`` of that node's sole agent; built
        #: lazily by :meth:`_deliver_many` and cleared whenever
        #: :meth:`attach`/:meth:`detach` changes any node's agent list
        #: (the only mutation paths — ``Node.attach`` is not called
        #: directly anywhere else).
        self._receive_cache: Dict[NodeId, Callable[[Packet], None]] = {}
        #: When True (and tracing is enabled), every packet handed to a
        #: node emits a "deliver" trace record. Off by default: delivery
        #: is the hottest path and check mode (repro.oracle) opts in.
        self.trace_deliveries = False
        self.perf = perf.GLOBAL

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------

    def add_node(self, node_id: Optional[NodeId] = None) -> Node:
        """Create a node; ids default to consecutive integers."""
        if node_id is None:
            node_id = len(self.nodes)
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} already exists")
        node = Node(node_id)
        self.nodes[node_id] = node
        self.adjacency[node_id] = {}
        self._trees.clear()
        return node

    def add_link(self, a: NodeId, b: NodeId, delay: float = 1.0,
                 threshold: int = 1) -> Link:
        for end in (a, b):
            if end not in self.nodes:
                raise KeyError(f"node {end} does not exist")
        if b in self.adjacency[a]:
            raise ValueError(f"link {a}<->{b} already exists")
        link = Link(a, b, delay=delay, threshold=threshold)
        self.links.append(link)
        self.adjacency[a][b] = link
        self.adjacency[b][a] = link
        self._trees.clear()
        return link

    def link_between(self, a: NodeId, b: NodeId) -> Link:
        try:
            return self.adjacency[a][b]
        except KeyError:
            raise KeyError(f"no link between {a} and {b}") from None

    def add_drop_filter(self, a: NodeId, b: NodeId,
                        drop_filter: DropFilter) -> None:
        """Arm a drop filter on the link between a and b."""
        link = self.link_between(a, b)
        link.add_filter(drop_filter)
        self._filtered_links.add(link)

    def clear_drop_filters(self) -> None:
        for link in self._filtered_links:
            link.clear_filters()
        self._filtered_links.clear()

    def define_scope_zone(self, name: str, nodes: Iterable[NodeId]) -> None:
        """Declare an administrative scope zone (Section VII-B1)."""
        self.scope_zones[name] = set(nodes)
        self._zone_version += 1

    def set_link_bandwidth(self, a: NodeId, b: NodeId, bandwidth: float,
                           queue_limit: Optional[int] = None) -> Link:
        """Give a link finite bandwidth and a FIFO buffer.

        Queueing links are only supported by the hop-by-hop delivery
        engine (the direct engine precomputes arrival times and cannot
        model queueing).
        """
        if self.delivery != "hop":
            raise ValueError(
                "queueing links require delivery='hop'; rebuild the "
                "network with spec.build(delivery='hop')")
        link = self.link_between(a, b)
        link.set_bandwidth(bandwidth, queue_limit)
        self._queueing_links.add(link)
        return link

    # ------------------------------------------------------------------
    # Agents and groups
    # ------------------------------------------------------------------

    def attach(self, node_id: NodeId, agent: Agent) -> Agent:
        self.nodes[node_id].attach(agent)
        agent.attached(self, node_id)
        self._receive_cache.clear()
        return agent

    def detach(self, node_id: NodeId, agent: Agent) -> None:
        self.nodes[node_id].detach(agent)
        self._receive_cache.clear()

    def join(self, node_id: NodeId, group: GroupAddress) -> None:
        self.groups.join(node_id, group)

    def leave(self, node_id: NodeId, group: GroupAddress) -> None:
        self.groups.leave(node_id, group)

    def group_size(self, group: GroupAddress) -> int:
        """Member count (floored at 1, the way SRM timer math needs it).

        Part of the engine surface (:class:`repro.live.engine.Engine`):
        the sim answers from exact membership; a live engine answers from
        local membership plus the remote peers it has heard from.
        """
        return max(1, self.groups.size(group))

    # ------------------------------------------------------------------
    # Routing queries (also the oracle used by experiments)
    # ------------------------------------------------------------------

    def source_tree(self, origin: NodeId) -> SourceTree:
        tree = self._trees.get(origin)
        if tree is None:
            tree = build_source_tree(self.adjacency, origin)
            self._trees[origin] = tree
        return tree

    def distance(self, a: NodeId, b: NodeId) -> float:
        """One-way shortest-path delay between two nodes."""
        if a == b:
            return 0.0
        return self.source_tree(a).dist[b]

    def hops(self, a: NodeId, b: NodeId) -> int:
        if a == b:
            return 0
        return self.source_tree(a).hops[b]

    def rtt(self, a: NodeId, b: NodeId) -> float:
        """Round-trip delay, assuming symmetric paths as the paper does."""
        return 2.0 * self.distance(a, b)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Inject a packet at its origin node."""
        packet.sent_at = self.scheduler.now
        self.perf.count_packet(packet.kind)
        if packet.is_multicast:
            if self.delivery == "direct":
                self._multicast_direct(packet)
            else:
                self._multicast_hop_start(packet)
        else:
            if self.delivery == "direct":
                self._unicast_direct(packet)
            else:
                self._unicast_hop(packet.origin, packet)

    def send_unicast(self, src: NodeId, dst: NodeId, kind: str,
                     payload: Any = None, size: int = 1000) -> Packet:
        packet = Packet(origin=src, dst=dst, kind=kind, payload=payload,
                        size=size)
        self.send(packet)
        return packet

    def send_multicast(self, src: NodeId, group: GroupAddress, kind: str,
                       payload: Any = None, ttl: int = DEFAULT_TTL,
                       size: int = 1000,
                       scope_zone: Optional[str] = None) -> Packet:
        packet = Packet(origin=src, dst=group, kind=kind, payload=payload,
                        ttl=ttl, size=size, scope_zone=scope_zone)
        self.send(packet)
        return packet

    # ------------------------------------------------------------------
    # Direct delivery engine
    # ------------------------------------------------------------------

    def _dropped_subtrees(self, tree: SourceTree,
                          packet: Packet) -> List[Set[NodeId]]:
        """Consult armed drop filters against the packet's source tree."""
        subtrees: List[Set[NodeId]] = []
        oriented_links: List[Tuple[int, NodeId, NodeId, Link]] = []
        for link in self._filtered_links:
            oriented = tree.on_tree_edge(link.a, link.b)
            if oriented is None:
                continue
            parent, child = oriented
            oriented_links.append((tree.hops[parent], parent, child, link))
        # Consult filters upstream-first so a drop high in the tree shields
        # filters (and their counters) below it, as hop-by-hop delivery would.
        for _, parent, child, link in sorted(oriented_links,
                                             key=lambda item: item[:3]):
            # Only consult the filter if the packet actually attempts to
            # cross this link: it must reach the upstream end with enough
            # TTL for the threshold (matching hop-by-hop semantics, where
            # a packet that dies upstream never touches the filter).
            if packet.initial_ttl < tree.ttl_required[child]:
                continue
            if any(parent in cut for cut in subtrees):
                continue
            if link.drops_packet(packet, parent):
                self.packets_dropped += 1
                if self.trace.enabled:
                    self.trace.record(self.scheduler.now, parent, "drop",
                                      packet=packet.uid,
                                      packet_kind=packet.kind,
                                      link=(parent, child))
                subtrees.append(tree.subtree(child))
        return subtrees

    def _zone_allows(self, tree: SourceTree, packet: Packet,
                     target: NodeId) -> bool:
        zone = self.scope_zones.get(packet.scope_zone or "", None)
        if packet.scope_zone is None:
            return True
        if zone is None:
            raise KeyError(f"unknown scope zone {packet.scope_zone!r}")
        return all(node in zone for node in tree.path(target))

    def _multicast_plan(self, tree: SourceTree,
                        packet: Packet) -> Tuple[Tuple[PlanEntry, ...], int]:
        """TTL/zone-eligible receivers for this (origin, group, ttl, zone).

        Returns ``(entries, receiver_count)``. Receivers sharing the same
        (delay, hop count) are merged into one entry delivered by a single
        event. Two same-send arrivals tie in time exactly when they tie in
        delay, so a stable sort by delay followed by merging preserves the
        per-receiver firing order the unmerged engine produced: receivers
        at distinct delays were already ordered by time, and receivers at
        equal delay keep their membership-iteration order inside the run.

        Drop filters are deliberately *not* folded in: their verdict can
        change per send (counting filters), so cuts are applied on top of
        the plan at send time.
        """
        initial_ttl = packet.initial_ttl
        origin = packet.origin
        scoped = packet.scope_zone is not None
        dist = tree.dist
        hops = tree.hops
        ttl_required = tree.ttl_required
        eligible: List[Tuple[float, int, NodeId]] = []
        order = 0
        for member in self.groups.members(packet.dst):  # type: ignore[arg-type]
            if member == origin:
                continue
            if initial_ttl < ttl_required[member]:
                continue
            if scoped and not self._zone_allows(tree, packet, member):
                continue
            eligible.append((dist[member], order, member))
            order += 1
        eligible.sort()  # by delay; order index keeps the sort stable
        entries: List[PlanEntry] = []
        # -1 sentinels (no member has negative delay/hops) keep the run
        # state monomorphic floats/ints.
        run_dist, run_hops = -1.0, -1
        run_members: List[NodeId] = []
        for member_dist, _, member in eligible:
            member_hops = hops[member]
            if run_members and member_dist == run_dist \
                    and member_hops == run_hops:
                run_members.append(member)
                continue
            if run_members:
                entries.append((run_dist, run_hops,
                                run_members[0] if len(run_members) == 1
                                else tuple(run_members)))
            run_dist, run_hops = member_dist, member_hops
            run_members = [member]
        if run_members:
            entries.append((run_dist, run_hops,
                            run_members[0] if len(run_members) == 1
                            else tuple(run_members)))
        return tuple(entries), len(eligible)

    def _multicast_direct(self, packet: Packet) -> None:
        origin = packet.origin
        tree = self._trees.get(origin)
        if tree is None:
            tree = self.source_tree(origin)
        key = (origin, packet.dst.gid,  # type: ignore[union-attr]
               packet.initial_ttl, packet.scope_zone)
        cached = self._plan_cache.get(key)
        if (cached is not None and cached[0] is tree
                and cached[1] == self.groups.version
                and cached[2] == self._zone_version):
            plan, receivers = cached[3], cached[4]
            self.perf.plan_cache_hits += 1
        else:
            plan, receivers = self._multicast_plan(tree, packet)
            self._plan_cache[key] = (tree, self.groups.version,
                                     self._zone_version, plan, receivers)
            self.perf.plan_cache_misses += 1
        # Filters must be consulted on every send (their counters advance
        # with traffic), but the common case — no filter armed anywhere —
        # skips the scan entirely.
        cuts = (self._dropped_subtrees(tree, packet)
                if self._filtered_links else ())
        scheduler = self.scheduler
        schedule = scheduler.schedule
        deliver = self._deliver
        deliver_many = self._deliver_many
        copies: Dict[int, Packet] = {}
        scheduled = 0
        if cuts:
            for dist, hops, target in plan:
                if type(target) is tuple:
                    kept = [member for member in target
                            if not any(member in cut for cut in cuts)]
                    if not kept:
                        continue
                    count = len(kept)
                    target = kept[0] if count == 1 else tuple(kept)
                else:
                    if any(target in cut for cut in cuts):
                        continue
                    count = 1
                arrival = copies.get(hops)
                if arrival is None:
                    copies[hops] = arrival = _arrived_copy(packet, hops)
                if count == 1:
                    schedule(dist, deliver, target, arrival)
                else:
                    schedule(dist, deliver_many, target, arrival)
                scheduled += count
        else:
            # Hot branch: one scheduler call arms the whole plan (one
            # event per entry, exactly as the per-entry loop would).
            arrivals: List[Packet] = []
            append_arrival = arrivals.append
            get_copy = copies.get
            for _, hops, _ in plan:
                arrival = get_copy(hops)
                if arrival is None:
                    copies[hops] = arrival = _arrived_copy(packet, hops)
                append_arrival(arrival)
            scheduler.run_plan(scheduler.now, plan, deliver, deliver_many,
                               arrivals)
            scheduled = receivers
        counters = self.perf
        counters.arrival_copies += len(copies)
        counters.arrival_copies_shared += scheduled - len(copies)
        if self.account_bandwidth:
            members = self.groups.members(packet.dst)  # type: ignore[arg-type]
            self._account_multicast(tree, packet, members, cuts)

    def _account_multicast(self, tree: SourceTree, packet: Packet,
                           members: Sequence[NodeId],
                           cuts: Sequence[Set[NodeId]]) -> None:
        """Charge each traversed link once, on the pruned member tree.

        The multicast flows along the source tree pruned to the members
        (DVMRP-style): a tree edge carries the packet iff some member lies
        at or below its child end, the TTL admits the child, the child is
        not cut off by a drop, and the scope zone admits the child.
        """
        needed: Set[NodeId] = set()
        for member in members:
            if member == packet.origin:
                continue
            for node in tree.path(member):
                needed.add(node)
        for node in needed:
            parent = tree.parent[node]
            if parent is None:
                continue
            if packet.initial_ttl < tree.ttl_required[node]:
                continue
            if any(node in cut for cut in cuts):
                continue
            if packet.scope_zone is not None and not self._zone_allows(
                    tree, packet, node):
                continue
            self.adjacency[parent][node].account(packet)

    def _unicast_direct(self, packet: Packet) -> None:
        dst: NodeId = packet.dst  # type: ignore[assignment]
        if dst == packet.origin:
            self.scheduler.schedule(0.0, self._deliver, dst, packet)
            return
        tree = self.source_tree(packet.origin)
        if dst not in tree.dist:
            raise KeyError(f"no route from {packet.origin} to {dst}")
        for parent, child in tree.path_edges(dst):
            link = self.adjacency[parent][child]
            if link.filters and link.drops_packet(packet, parent):
                self.packets_dropped += 1
                if self.trace.enabled:
                    self.trace.record(self.scheduler.now, parent, "drop",
                                      packet=packet.uid,
                                      packet_kind=packet.kind,
                                      link=(parent, child))
                return
            if self.account_bandwidth:
                link.account(packet)
        arrival = _arrived_copy(packet, tree.hops[dst])
        self.scheduler.schedule(tree.dist[dst], self._deliver, dst, arrival)

    # ------------------------------------------------------------------
    # Hop-by-hop delivery engine
    # ------------------------------------------------------------------

    def _multicast_hop_start(self, packet: Packet) -> None:
        tree = self.source_tree(packet.origin)
        self._multicast_forward(packet.origin, packet, tree)

    def _on_tree_toward_members(self, tree: SourceTree,
                                group: GroupAddress) -> Set[NodeId]:
        """Nodes with group members at or below them on this tree.

        Forwarding only into this set models DVMRP-style pruning: leaving
        a group takes its traffic off the subtree, which matters when
        links have finite bandwidth (receiver-driven layering relies on
        it). Cached per (origin, group) and invalidated on any
        membership change.
        """
        key = (tree.origin, group.gid)
        version = self.groups.version
        cached = self._prune_cache.get(key)
        if cached is not None and cached[0] == version:
            return cached[1]
        needed: Set[NodeId] = set()
        for member in self.groups.members(group):
            node: Optional[NodeId] = member
            while node is not None and node not in needed:
                needed.add(node)
                node = tree.parent[node]
        self._prune_cache[key] = (version, needed)
        return needed

    def _multicast_forward(self, at: NodeId, packet: Packet,
                           tree: SourceTree) -> None:
        needed = self._on_tree_toward_members(
            tree, packet.dst)  # type: ignore[arg-type]
        for child in tree.children[at]:
            if child not in needed:
                continue
            link = self.adjacency[at][child]
            if packet.ttl < link.threshold:
                continue
            if (packet.scope_zone is not None
                    and (at not in self.scope_zones[packet.scope_zone]
                         or child not in self.scope_zones[packet.scope_zone])):
                continue
            if link.filters and link.drops_packet(packet, at):
                self.packets_dropped += 1
                if self.trace.enabled:
                    self.trace.record(self.scheduler.now, at, "drop",
                                      packet=packet.uid,
                                      packet_kind=packet.kind,
                                      link=(at, child))
                continue
            arrival = link.arrival_time(self.scheduler, packet, at)
            if arrival is None:
                self.packets_dropped += 1
                if self.trace.enabled:
                    self.trace.record(self.scheduler.now, at, "queue_drop",
                                      packet=packet.uid,
                                      packet_kind=packet.kind,
                                      link=(at, child))
                continue
            if self.account_bandwidth:
                link.account(packet)
            self.scheduler.schedule_at(arrival, self._multicast_arrive,
                                       child, packet.forwarded_copy(), tree)

    def _multicast_arrive(self, at: NodeId, packet: Packet,
                          tree: SourceTree) -> None:
        if self.groups.is_member(at, packet.dst):  # type: ignore[arg-type]
            self._deliver(at, packet)
        self._multicast_forward(at, packet, tree)

    def _unicast_hop(self, at: NodeId, packet: Packet) -> None:
        dst: NodeId = packet.dst  # type: ignore[assignment]
        if at == dst:
            self._deliver(at, packet)
            return
        tree = self.source_tree(at)
        next_hop = tree.next_hop_toward(dst)
        link = self.adjacency[at][next_hop]
        if link.filters and link.drops_packet(packet, at):
            self.packets_dropped += 1
            if self.trace.enabled:
                self.trace.record(self.scheduler.now, at, "drop",
                                  packet=packet.uid, packet_kind=packet.kind,
                                  link=(at, next_hop))
            return
        arrival = link.arrival_time(self.scheduler, packet, at)
        if arrival is None:
            self.packets_dropped += 1
            if self.trace.enabled:
                self.trace.record(self.scheduler.now, at, "queue_drop",
                                  packet=packet.uid, packet_kind=packet.kind,
                                  link=(at, next_hop))
            return
        if self.account_bandwidth:
            link.account(packet)
        self.scheduler.schedule_at(arrival, self._unicast_hop, next_hop,
                                   packet.forwarded_copy())

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def _deliver(self, node_id: NodeId, packet: Packet) -> None:
        if self.trace_deliveries and self.trace.enabled:
            self.trace.record(self.scheduler.now, node_id, "deliver",
                              packet=packet.uid, packet_kind=packet.kind,
                              origin=packet.origin, ttl=packet.ttl,
                              initial_ttl=packet.initial_ttl,
                              zone=packet.scope_zone,
                              mcast=packet.dst.__class__ is GroupAddress)
        self.nodes[node_id].deliver(packet)

    def _deliver_many(self, members: Tuple[NodeId, ...],
                      packet: Packet) -> None:
        """Deliver one arrival to a same-(delay, hops) run of receivers.

        One scheduler event replaces ``len(members)`` individual ones;
        ``batched_deliveries`` counts the events saved. When delivery
        tracing is off and ``_deliver`` is not overridden or wrapped, the
        per-member hop through :meth:`_deliver` is skipped too. Otherwise
        delivery routes through ``_deliver``, resolved at fire time (not
        schedule time), so mid-run attachment changes — and tests that
        wrap ``_deliver`` to observe deliveries — behave exactly as they
        did when every receiver had its own event.
        """
        self.perf.batched_deliveries += len(members) - 1
        if (not self.trace_deliveries
                and type(self)._deliver is Network._deliver
                and "_deliver" not in self.__dict__):
            # Node.deliver's single-agent fast path, inlined and memoized:
            # this loop body runs once per receiver per packet, so the
            # node lookup / agent-count check / method bind is cached per
            # member (invalidated by attach/detach).
            cache = self._receive_cache
            nodes = self.nodes
            for member in members:
                receive = cache.get(member)
                if receive is None:
                    agents = nodes[member].agents
                    if len(agents) != 1:
                        nodes[member].deliver(packet)
                        continue
                    receive = agents[0].receive
                    cache[member] = receive
                receive(packet)
            return
        deliver = self._deliver
        for member in members:
            deliver(member, packet)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Convenience passthrough to the scheduler."""
        return self.scheduler.run(until=until, max_events=max_events)

    def __repr__(self) -> str:
        return (f"<Network {len(self.nodes)} nodes, {len(self.links)} links, "
                f"delivery={self.delivery}>")


def _arrived_copy(packet: Packet, hops: int) -> Packet:
    """The packet as seen by a receiver ``hops`` away from the origin.

    Clones by direct slot assignment rather than the dataclass
    constructor: this allocation runs once per (send, hop-distance), and
    skipping argument marshalling and ``__post_init__`` (delivery plans
    only admit receivers with ``ttl >= hops``, so the TTL checks cannot
    fire) is a measurable share of the delivery hot path.
    """
    if hops == 0:
        return packet
    copy = object.__new__(Packet)
    copy.origin = packet.origin
    copy.dst = packet.dst
    copy.kind = packet.kind
    copy.payload = packet.payload
    copy.ttl = packet.ttl - hops
    copy.initial_ttl = packet.initial_ttl
    copy.size = packet.size
    copy.scope_zone = packet.scope_zone
    copy.uid = packet.uid
    copy.sent_at = packet.sent_at
    return copy
