"""Tie-order race detector: replay scenarios under permuted drain orders.

SRM's determinism contract says events firing at the same simulated
instant must produce the *same protocol behavior* regardless of the
order the scheduler drains them in — that is the invariant the herd
engine's vectorized waves lean on for byte-identical equivalence with
the agent engine.

This module checks the invariant dynamically: it re-runs a scenario
``N`` times, once in the contract (time, seq) order and ``N - 1`` times
under seeded permutations of every same-instant tie batch (via
``set_tie_permuter`` on the event scheduler), canonicalizes each
run's trace stream, and diffs every permuted stream against the
contract one. Any divergence is a tie-order race: some callback read
state whose value depended on its same-instant neighbors' firing order.

Trace canonicalization sorts rows *within* one instant (their emission
order legitimately tracks drain order) but preserves cross-instant
order and every row's content — so a race surfaces as soon as it
perturbs what happens, when it happens, or any traced value.

``repro lint --races`` drives this; ``--inject tie-order`` swaps in the
canary scenarios that carry a deliberately planted unordered-set bug
and must therefore *fail*, proving end to end that the detector can
catch what it exists to catch (the same pattern as ``repro fuzz
--inject no-holddown``).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.scheduler import EventScheduler, TieBatch
from repro.sim.trace import Trace, TraceRecord

DEFAULT_PERMUTATIONS = 8

#: Trace-detail keys masked during canonicalization.
#:
#: * ``packet`` — uids come from a process-global ``itertools.count``,
#:   so two replays see different absolute uids even when behavior is
#:   identical.
#: * ``requester`` / ``answering`` — the algorithm arms one repair
#:   timer per loss in
#:   response to "the first request received" (Section IV); when
#:   several requests arrive at the *exact same instant*, which of them
#:   is "first" is inherently drain-order bookkeeping. Its behavioral
#:   consequences — the repair timer's bounds, expiry, and the repair
#:   itself — are still compared exactly via the timer and send rows,
#:   so a requester pick that *changes behavior* (e.g. a
#:   different-distance requester shifting the repair delay) is still
#:   caught. ``answering`` is the same pick echoed on the repair rows.
VOLATILE_DETAIL_KEYS = frozenset({"packet", "requester", "answering"})

#: Context lines shown on either side of the first divergence.
EXCERPT_CONTEXT = 3
#: Cap on excerpt length so a badly divergent run stays readable.
EXCERPT_LIMIT = 24


class TiePermutation:
    """Deterministic per-batch shuffles derived from one seed.

    A 64-bit LCG stream (no ``random`` import: the SRM001 rng boundary
    stays intact) drives a Fisher-Yates shuffle of each tie batch.
    Permutation index 0 is reserved for the identity (contract) order
    and never constructs one of these. ``batches`` counts how many
    groups were actually shuffled — a replay that never permutes
    anything proves nothing, and callers surface that.
    """

    __slots__ = ("_state", "batches")

    _MULT = 6364136223846793005
    _INC = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self._state = (seed * 0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03) \
            & self._MASK
        self.batches = 0

    def _below(self, bound: int) -> int:
        self._state = (self._state * self._MULT + self._INC) & self._MASK
        return (self._state >> 33) % bound

    def __call__(self, batch: TieBatch) -> TieBatch:
        self.batches += 1
        shuffled = list(batch)
        for i in range(len(shuffled) - 1, 0, -1):
            j = self._below(i + 1)
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        return shuffled


# ----------------------------------------------------------------------
# Trace canonicalization
# ----------------------------------------------------------------------


def canonical_stream(records: Sequence[TraceRecord]) -> List[str]:
    """Render a trace with same-instant rows in a drain-order-free form.

    Rows are grouped by timestamp; within one group the rendered lines
    are sorted, because their emission order tracks the (permuted)
    drain order even when the protocol behavior is identical. Group
    boundaries, timestamps, and every rendered field survive intact,
    so any behavioral difference still produces a line difference.
    """
    lines: List[str] = []
    group: List[str] = []
    group_time: Optional[float] = None
    for record in records:
        if group and record.time != group_time:
            group.sort()
            lines.extend(group)
            group = []
        group_time = record.time
        detail = " ".join(
            f"{key}=*" if key in VOLATILE_DETAIL_KEYS
            else f"{key}={record.detail[key]!r}"
            for key in sorted(record.detail))
        group.append(f"t={record.time!r} node={record.node} "
                     f"{record.kind} {detail}".rstrip())
    group.sort()
    lines.extend(group)
    return lines


def diff_excerpt(contract: Sequence[str], permuted: Sequence[str]) -> str:
    """A unified-diff excerpt around the streams' first divergence."""
    diff = list(difflib.unified_diff(
        list(contract), list(permuted), lineterm="",
        fromfile="contract-order", tofile="permuted-order",
        n=EXCERPT_CONTEXT))
    if len(diff) > EXCERPT_LIMIT:
        omitted = len(diff) - EXCERPT_LIMIT
        diff = diff[:EXCERPT_LIMIT] + [f"... ({omitted} more diff lines)"]
    return "\n".join(diff)


def first_divergence(contract: Sequence[str],
                     permuted: Sequence[str]) -> int:
    """Index of the first differing canonical-stream line."""
    for index, (a, b) in enumerate(zip(contract, permuted)):
        if a != b:
            return index
    return min(len(contract), len(permuted))


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

#: A scenario runner: permuter (None = contract order) -> canonical stream.
ScenarioRunner = Callable[[Optional[TiePermutation]], List[str]]


@dataclass(frozen=True)
class RaceScenario:
    """One replayable scenario the detector can permute."""

    name: str
    description: str
    runner: ScenarioRunner


def _replay_spec(spec: "ExperimentSpec",  # noqa: F821
                 permuter: Optional[TiePermutation],
                 inject: Optional[str] = None) -> List[str]:
    """One full replay of an experiment spec."""
    from repro.experiments.common import LossRecoverySimulation

    scheduler = EventScheduler()
    if permuter is not None:
        scheduler.set_tie_permuter(permuter)
    if spec.engine == "herd":
        from repro.herd import HerdSimulation
        simulation = HerdSimulation(
            spec.scenario, config=spec.config, seed=spec.seed,
            trace_mode="full", inject=inject, scheduler=scheduler)
        trace = simulation.trace
    else:
        simulation = LossRecoverySimulation(
            spec.scenario, config=spec.config, seed=spec.seed,
            delivery=spec.engine, scheduler=scheduler)
        trace = simulation.network.trace
    stream: List[str] = []
    for round_index in range(spec.rounds):
        simulation.run_round(trigger_gap=spec.trigger_gap)
        stream.append(f"== round {round_index} ==")
        stream.extend(canonical_stream(trace.records))
    return stream


def _spec_runner(build: Callable[[], "ExperimentSpec"],  # noqa: F821
                 inject: Optional[str] = None) -> ScenarioRunner:
    """Build the spec once, lazily, and replay it per permutation."""
    cache: Dict[str, object] = {}

    def run(permuter: Optional[TiePermutation]) -> List[str]:
        if "spec" not in cache:
            cache["spec"] = build()
        return _replay_spec(cache["spec"], permuter,  # type: ignore[arg-type]
                            inject=inject)

    return run


def _figure3_small_spec() -> "ExperimentSpec":  # noqa: F821
    """Figure 3's smallest cell: size-10 random tree, first sim, seed 3."""
    from repro.core.config import SrmConfig
    from repro.experiments.common import ExperimentSpec, choose_scenario
    from repro.sim.rng import RandomSource
    from repro.topology.random_tree import random_labeled_tree

    master = RandomSource(3)
    rng = master.fork("fig3-10-0")
    spec = random_labeled_tree(10, rng)
    scenario = choose_scenario(spec, session_size=10, rng=rng)
    return ExperimentSpec(scenario=scenario, config=SrmConfig(),
                          seed=hash((3, 10, 0)) & 0xFFFF,
                          experiment="figure3")


def _figure5_small_spec() -> "ExperimentSpec":  # noqa: F821
    """A reduced figure 5 cell at C2=0: star of 20, every equidistant
    request timer expires at the exact same instant — the paper's
    worst-case implosion point and the tie-richest drain there is."""
    from repro.core.config import SrmConfig
    from repro.experiments.common import ExperimentSpec
    from repro.experiments.figure5 import star_scenario

    return ExperimentSpec(scenario=star_scenario(20),
                          config=SrmConfig(c1=2.0, c2=0.0),
                          seed=5 * 104729, experiment="figure5")


def _figure8_small_spec() -> "ExperimentSpec":  # noqa: F821
    """A reduced figure 8 cell: depth-3 degree-4 tree, sparse session."""
    from repro.core.config import SrmConfig
    from repro.experiments.common import ExperimentSpec, Scenario
    from repro.experiments.figure7 import drop_edge_at_hops
    from repro.sim.rng import RandomSource
    from repro.topology.btree import balanced_tree

    spec = balanced_tree(85, 4)
    rng = RandomSource(8)
    members = sorted(rng.sample(range(85), 24))
    source = rng.choice(members)
    drop_edge = drop_edge_at_hops(spec, source, 2, members)
    scenario = Scenario(spec=spec, members=members, source=source,
                        drop_edge=drop_edge)
    return ExperimentSpec(scenario=scenario,
                          config=SrmConfig(c1=2.0, c2=8.0),
                          seed=8 * 131071 + 2 * 7919 + 8 * 613,
                          experiment="figure8")


def _herd_star_spec() -> "ExperimentSpec":  # noqa: F821
    """A star session on the vectorized herd engine, full-trace mode.

    C2=0 matters doubly here: the herd's waves serialize exact timer
    ties *inside* one scheduler callback (structurally immune to drain
    order), so the permutable surface is the same-instant arrival
    batches that simultaneous request sends produce — only a
    deterministic-timer burst creates them at all.
    """
    from repro.core.config import SrmConfig
    from repro.experiments.common import ExperimentSpec
    from repro.experiments.figure5 import star_scenario

    return ExperimentSpec(scenario=star_scenario(32),
                          config=SrmConfig(c1=2.0, c2=0.0),
                          seed=11, engine="herd", experiment="scaling")


def _canary_runner(permuter: Optional[TiePermutation]) -> List[str]:
    """The planted bug: unordered-set iteration in a timer callback.

    Twelve timers fire at the same instant. Each callback adds its tag
    to a *shared mutable set* and lets the set's iteration order elect
    a leader — the leader claims the repair, everyone else defers.
    Which tags the set holds when a given callback fires depends on the
    same-instant drain order, so permuted replays diverge. This is the
    defect SRM suppression code must never contain, kept here so the
    detector's catch rate is itself under test.
    """
    scheduler = EventScheduler()
    if permuter is not None:
        scheduler.set_tie_permuter(permuter)
    trace = Trace(enabled=True)
    claimed: set[int] = set()

    def request_timer(member: int) -> None:
        tag = (member * 2654435761) % 1021
        claimed.add(tag)
        leader = next(iter(claimed))  # lint: ignore[SRM002, SRM008]
        if leader == tag:
            trace.record(scheduler.now, member, "claim", leader=leader)
            scheduler.schedule(0.5, respond, member)
        else:
            trace.record(scheduler.now, member, "defer", leader=leader)

    def respond(member: int) -> None:
        trace.record(scheduler.now, member, "send_repair")

    for member in range(12):
        scheduler.schedule(1.0, request_timer, member)
    scheduler.run()
    return canonical_stream(trace.records)


#: The clean replay set: real paper scenarios that must be tie-order
#: invariant (the acceptance gate for the detector).
SCENARIOS: Tuple[RaceScenario, ...] = (
    RaceScenario("figure3-small",
                 "figure 3's smallest scenario (size-10 random tree)",
                 _spec_runner(_figure3_small_spec)),
    RaceScenario("figure5-small",
                 "reduced figure 5 (star of 20, C2=8)",
                 _spec_runner(_figure5_small_spec)),
    RaceScenario("figure8-small",
                 "reduced figure 8 (85-node tree, sparse session)",
                 _spec_runner(_figure8_small_spec)),
    RaceScenario("herd-star",
                 "star of 32 on the herd engine, full trace",
                 _spec_runner(_herd_star_spec)),
)

#: The canary set (``--inject tie-order``): scenarios carrying a
#: deliberately planted tie-order bug; the detector must flag them.
INJECT_SCENARIOS: Tuple[RaceScenario, ...] = (
    RaceScenario("canary",
                 "planted unordered-set leader election in timer "
                 "callbacks",
                 _canary_runner),
    RaceScenario("herd-canary",
                 "herd engine with inject='tie-order' split arrivals",
                 _spec_runner(_herd_star_spec, inject="tie-order")),
)

INJECTIONS: Tuple[str, ...] = ("tie-order",)


# ----------------------------------------------------------------------
# The check
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RaceFinding:
    """One divergent permuted replay."""

    scenario: str
    permutation: int
    divergence_line: int
    excerpt: str

    def format(self) -> str:
        head = (f"RACE {self.scenario} "
                f"permutation {self.permutation}: trace diverges from "
                f"contract order at canonical line "
                f"{self.divergence_line}")
        return head + "\n" + self.excerpt


@dataclass
class RaceReport:
    """Everything one race-detector run learned."""

    findings: List[RaceFinding]
    scenarios: List[str]
    permutations: int
    replays: int
    permuted_batches: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def format(self) -> str:
        lines = [finding.format() for finding in self.findings]
        lines.append(
            f"race check: {len(self.scenarios)} scenario(s) x "
            f"{self.permutations} permutations = {self.replays} replays, "
            f"{self.permuted_batches} tie batches permuted: "
            f"{len(self.findings)} divergence(s)")
        if not self.permuted_batches and not self.findings:
            lines.append("race check: WARNING: no tie batch was ever "
                         "permuted; the replay proved nothing")
        return "\n".join(lines)


def resolve_scenarios(names: Optional[Sequence[str]] = None,
                      inject: Optional[str] = None
                      ) -> List[RaceScenario]:
    """The scenario set for a run; unknown names raise ``ValueError``."""
    if inject is not None and inject not in INJECTIONS:
        raise ValueError(
            f"unknown injection {inject!r} "
            f"(expected one of {', '.join(INJECTIONS)})")
    pool = INJECT_SCENARIOS if inject is not None else SCENARIOS
    if not names:
        return list(pool)
    by_name = {scenario.name: scenario for scenario in pool}
    missing = [name for name in names if name not in by_name]
    if missing:
        raise ValueError(
            f"unknown race scenario(s): {', '.join(sorted(missing))} "
            f"(expected one of {', '.join(sorted(by_name))})")
    return [by_name[name] for name in names]


def check_races(scenarios: Optional[Sequence[str]] = None,
                permutations: int = DEFAULT_PERMUTATIONS,
                inject: Optional[str] = None) -> RaceReport:
    """Replay each scenario under permuted drain orders and diff traces.

    Permutation 0 is the contract (time, seq) order and becomes the
    reference stream; permutations 1..N-1 install a seeded
    :class:`TiePermutation` and must reproduce it exactly. Divergent
    permutations keep replaying (each becomes its own finding) so the
    report shows whether a race is narrow or systemic.
    """
    if permutations < 2:
        raise ValueError("need at least 2 permutations (the contract "
                         "order plus one shuffle)")
    chosen = resolve_scenarios(scenarios, inject=inject)
    findings: List[RaceFinding] = []
    replays = 0
    permuted_batches = 0
    for scenario in chosen:
        contract = scenario.runner(None)
        replays += 1
        for index in range(1, permutations):
            permuter = TiePermutation(index)
            permuted = scenario.runner(permuter)
            replays += 1
            permuted_batches += permuter.batches
            if permuted != contract:
                findings.append(RaceFinding(
                    scenario=scenario.name, permutation=index,
                    divergence_line=first_divergence(contract, permuted),
                    excerpt=diff_excerpt(contract, permuted)))
    return RaceReport(findings=findings,
                      scenarios=[s.name for s in chosen],
                      permutations=permutations, replays=replays,
                      permuted_batches=permuted_batches)
