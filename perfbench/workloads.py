"""The four benchmark workloads: inputs from a seed, and one op each.

Every op goes through ``ExperimentRunner(jobs=1)`` with the result cache
off, the path ``repro figureN --no-cache`` takes. Inputs (experiment
specs and fuzz cases) are generated from the seed during set-up with the
repository's public generators; an op receives only its input.

Each workload keeps op cost uniform or spreads it over a fixed, odd
number of input classes, so the median and p90 of a run do not jump
between classes when the op count changes by one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Session size of every ``tree_fresh`` op (Fig. 3's largest).
TREE_SIZE = 100
#: Distinct random trees generated per run; ops cycle through them.
TREE_POOL = 256

#: Fig. 5's persistent star: G members, C1 = 2, C2 fixed at 10.
STAR_SIZE = 100
STAR_C1 = 2.0
STAR_C2 = 10.0
STAR_ROUNDS = 5
STAR_POOL = 128

#: Fuzz cases generated per run: more than a run's ops on the host the
#: benchmark was defined on, so the mix a run measures varies less between
#: seeds (with 1000 cases, p90 spread 12% across seeds; with 3000, 9%).
FUZZ_POOL = 3000

#: herd_mega input classes: sizes log-spaced over 10^3..10^4, the kind
#: alternating star (C2 = G/10) and degree-4 tree. An odd count keeps
#: p50 and p90 inside a class rather than on a boundary between two.
HERD_CLASSES = 15
HERD_MIN, HERD_MAX = 1_000, 10_000
HERD_ROUNDS = 3
#: Member draws per tree class (stars differ only in their spec seed):
#: one draw can cost twice another, so a run cycles through several.
HERD_VARIANTS = 5

#: A run measures at least this many ops, so ten samples lie beyond p90;
#: the outcome digest covers exactly the first MIN_OPS ops.
MIN_OPS = 100

WORKLOAD_NAMES = ("tree_fresh", "star_rounds", "fuzz_checked", "herd_mega")

#: A run ends on a multiple of this many ops, so every herd class weighs
#: the same in it.
OPS_PER_PASS = {"herd_mega": HERD_CLASSES}


@dataclass
class OpResult:
    """What one op produced, reduced to plain data."""

    failed: bool
    #: Requests, repairs, duplicates and delay ratios, per round; hashed
    #: into the run's outcome digest.
    outcome: Any
    requests: int
    repairs: int
    #: Loss events that saw at least one request / repair. None when the
    #: op's result carries no per-event split (fuzz cases); the traced
    #: run then counts them from trace records.
    useful_requests: Optional[int]
    useful_repairs: Optional[int]


def herd_sizes() -> List[int]:
    span = HERD_MAX / HERD_MIN
    return [round(HERD_MIN * span ** (j / (HERD_CLASSES - 1)))
            for j in range(HERD_CLASSES)]


def tree_variant(first: Any, seed: int) -> Any:
    """``tree_scaling_scenario(size, seed)``, reusing ``first``'s topology.

    Only the member draw is repeated (building the tree again would cost
    set-up time); selftest.py holds it equal to the generator.
    """
    from repro.sim.rng import RandomSource

    size = first.session_size
    rng = RandomSource(seed).fork(f"scaling-tree-{size}")
    members = sorted({0} | set(rng.sample(range(1, first.spec.num_nodes),
                                          size - 1)))
    return dataclasses.replace(first, members=members)


def build_inputs(name: str, seed: int) -> List[Any]:
    """The workload's input pool, a deterministic function of ``seed``."""
    from repro.core.config import SrmConfig
    from repro.experiments.common import ExperimentSpec, choose_scenario
    from repro.sim.rng import RandomSource

    master = RandomSource(seed)
    if name == "tree_fresh":
        from repro.topology.random_tree import random_labeled_tree

        specs = []
        for index in range(TREE_POOL):
            rng = master.fork(f"tree_fresh-{index}")
            topo = random_labeled_tree(TREE_SIZE, rng)
            scenario = choose_scenario(topo, session_size=TREE_SIZE,
                                       rng=rng)
            specs.append(ExperimentSpec(
                scenario=scenario, config=SrmConfig(),
                seed=rng.randint(0, 0xFFFF), experiment="tree_fresh"))
        return specs
    if name == "star_rounds":
        from repro.experiments.figure5 import star_scenario

        scenario = star_scenario(STAR_SIZE)
        config = SrmConfig(c1=STAR_C1, c2=STAR_C2)
        return [ExperimentSpec(scenario=scenario, config=config,
                               rounds=STAR_ROUNDS,
                               seed=master.randint(0, 2**31),
                               experiment="star_rounds")
                for _ in range(STAR_POOL)]
    if name == "fuzz_checked":
        from repro.oracle.fuzz import case_seed, generate_case

        base = master.randint(0, 2**31)
        return [generate_case(case_seed(base, index))
                for index in range(FUZZ_POOL)]
    if name == "herd_mega":
        from repro.experiments.scaling import (star_c2,
                                               star_scaling_scenario,
                                               tree_scaling_scenario)

        classes = []  # (scenario per variant, config), one per class
        for index, size in enumerate(herd_sizes()):
            if index % 2 == 0:
                classes.append(([star_scaling_scenario(size)]
                                * HERD_VARIANTS, SrmConfig(c2=star_c2(size))))
                continue
            first = tree_scaling_scenario(size, seed=master.randint(0, 2**31))
            variants = [first] + [
                tree_variant(first, master.randint(0, 2**31))
                for _ in range(HERD_VARIANTS - 1)]
            classes.append((variants, SrmConfig()))
        return [ExperimentSpec(scenario=variants[variant], config=config,
                               rounds=HERD_ROUNDS,
                               seed=master.randint(0, 2**31), engine="herd",
                               experiment="herd_mega")
                for variant in range(HERD_VARIANTS)
                for variants, config in classes]
    raise ValueError(f"unknown workload {name!r}")


def preload() -> None:
    """Import everything an op touches, so set-up pays for it, not op 1."""
    import repro.experiments.common  # noqa: F401
    import repro.fleet.wire  # noqa: F401  (Task.fingerprint encodes specs)
    import repro.herd  # noqa: F401
    import repro.oracle.fuzz  # noqa: F401
    import repro.runner  # noqa: F401


def make_runner() -> Any:
    from repro.runner import ExperimentRunner

    # The `repro figureN --no-cache` runner: serial, no cache, no
    # manifest, no metrics file.
    return ExperimentRunner(jobs=1, cache=None)


def _round_outcome(outcome: Any) -> Tuple[Any, ...]:
    return (outcome.requests, outcome.repairs, outcome.duplicate_requests,
            outcome.duplicate_repairs, outcome.last_member_ratio,
            outcome.closest_request_ratio, outcome.recovered)


def _run_spec(runner: Any, name: str, spec: Any) -> OpResult:
    from repro.experiments import common

    # Looked up at call time, so the traced run's wrapper is the one run.
    [result] = runner.map(name, common.run_experiment, [{"spec": spec}])
    rounds = [_round_outcome(outcome) for outcome in result.outcomes]
    requests = sum(row[0] for row in rounds)
    repairs = sum(row[1] for row in rounds)
    return OpResult(
        failed=not all(outcome.recovered for outcome in result.outcomes),
        outcome=rounds, requests=requests, repairs=repairs,
        useful_requests=requests - sum(row[2] for row in rounds),
        useful_repairs=repairs - sum(row[3] for row in rounds))


def _run_fuzz(runner: Any, name: str, case: Dict[str, Any]) -> OpResult:
    from repro.core.messages import KIND_REPAIR, KIND_REQUEST
    from repro.oracle import fuzz
    from repro.sim import perf

    sent = perf.counters().packets_by_kind
    before = (sent.get(KIND_REQUEST, 0), sent.get(KIND_REPAIR, 0))
    [result] = runner.map(name, fuzz.run_fuzz_case, [{"case": case}])
    requests = sent.get(KIND_REQUEST, 0) - before[0]
    repairs = sent.get(KIND_REPAIR, 0) - before[1]
    violations = [(row["oracle"], row["time"], row["node"])
                  for row in result["violations"]]
    failed = bool(violations) or result["error"] is not None
    return OpResult(
        failed=failed,
        outcome=(result["ok"], result.get("events"), violations,
                 result["error"] is not None, requests, repairs),
        requests=requests, repairs=repairs,
        useful_requests=None, useful_repairs=None)


def op_function(name: str) -> Callable[[Any, Any], OpResult]:
    """``op(runner, item)`` for the workload; exceptions count as failed."""
    run = _run_fuzz if name == "fuzz_checked" else _run_spec

    def op(runner: Any, item: Any) -> OpResult:
        try:
            return run(runner, name, item)
        except Exception as exc:  # noqa: BLE001 - a failed op, counted
            return OpResult(failed=True,
                            outcome=("raised", type(exc).__name__),
                            requests=0, repairs=0, useful_requests=0,
                            useful_repairs=0)

    return op


def outcome_digest(results: List[OpResult]) -> str:
    """sha256 over the ops' outcomes, in op order (floats exact)."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(json.dumps(result.outcome, sort_keys=True,
                                 default=str).encode())
        digest.update(b"\n")
    return digest.hexdigest()
