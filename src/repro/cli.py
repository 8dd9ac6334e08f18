"""Command-line entry point: regenerate any experiment from a shell.

Usage::

    python -m repro list
    python -m repro figure3 [--sims 20] [--seed 3]
    python -m repro figure4 --jobs 8 --manifest results/fig4.jsonl
    python -m repro figure13 [--runs 3] [--rounds 60]
    python -m repro robustness [--rounds 5]
    python -m repro congestion
    python -m repro fuzz --rounds 100 --seed 7 --jobs 4
    python -m repro report figure3 --sims 4 --save metrics.json
    python -m repro report metrics.json
    python -m repro compare baseline.json candidate.json --threshold 0.1
    python -m repro live wb --members 3 --loss 0.05
    python -m repro live soak --packets 80 --loss 0.1 --check

Each command prints the same series its benchmark asserts against.

``repro live`` runs the same SRM core in real time on the asyncio
engine (:mod:`repro.live`): ``wb`` spawns one OS process per whiteboard
member over UDP loopback and checks byte-identical convergence, and
``soak`` cross-validates live metrics bundles against a matched
simulator run (``--tolerance`` is accepted as an alias of
``--threshold`` on ``repro compare`` for the same gate).

``--check`` (available on every command) attaches the protocol oracles
of :mod:`repro.oracle` to each simulation: every run is validated online
against the paper's invariants, and any break aborts the command with a
structured violation report and trace excerpts. ``repro fuzz`` hunts for
violations in random scenarios and shrinks failures to minimized,
seed-reproducible cases; see ``docs/oracles.md``.

The figure sweeps execute on :class:`repro.runner.ExperimentRunner`:
``--jobs N`` fans independent rounds out to N worker processes,
results land in a content-addressed cache under ``results/.cache`` (so
an identical re-run is nearly free; disable with ``--no-cache``), and
``--manifest PATH`` appends a JSONL row per task for observability.
Parallel and serial runs print byte-identical tables: results are merged
in task order, never completion order.

``--metrics PATH`` persists the run's merged
:class:`~repro.metrics.bundle.RunMetrics` bundle as JSON; ``repro
report`` renders a bundle (or runs a figure and reports it), and
``repro compare`` gates a candidate bundle against a baseline with a
threshold-based regression exit code (see ``docs/metrics.md``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro import env

# ----------------------------------------------------------------------
# Shared option groups.
#
# Each command function is decorated with the option installers its
# subparser needs; build_parser() applies them. Adding a flag for every
# sweep command (or a new command inheriting the standard set, like
# report/compare) is a one-line change here.
# ----------------------------------------------------------------------


def with_options(*installers: Callable) -> Callable:
    """Attach argparse option installers to a command function."""
    def decorate(fn: Callable) -> Callable:
        fn.option_installers = installers
        return fn
    return decorate


def base_options(sub: argparse.ArgumentParser, defaults: dict) -> None:
    """--seed/--sims/--runs/--rounds/--profile/--check for every sweep."""
    sub.add_argument("--seed", type=int, default=None,
                     help="random seed (default: the figure's own)")
    sub.add_argument("--sims", type=int, default=20,
                     help="simulations per point")
    sub.add_argument("--runs", type=int, default=defaults.get("runs", 10))
    sub.add_argument("--rounds", type=int,
                     default=defaults.get("rounds", 100))
    sub.add_argument("--profile", action="store_true",
                     help="print kernel perf counters and events/sec "
                          "to stderr after the run (serial runs "
                          "report complete numbers; workers keep "
                          "their own counters)")
    sub.add_argument("--check", action="store_true",
                     help="attach the protocol oracles to every "
                          "simulation; abort with a violation "
                          "report on any invariant break")


def runner_options(sub: argparse.ArgumentParser, defaults: dict) -> None:
    """--jobs/--no-cache/--cache-dir/--manifest/--metrics (runner knobs)."""
    from repro.runner import default_cache_dir

    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the sweep "
                          "(1 = in-process serial)")
    sub.add_argument("--no-cache", action="store_true",
                     help="skip the on-disk result cache")
    sub.add_argument("--cache-dir", default=default_cache_dir(),
                     help="result cache location (default: %(default)s)")
    sub.add_argument("--manifest", default=None, metavar="PATH",
                     help="append a JSONL run manifest here")
    sub.add_argument("--metrics", default=None, metavar="PATH",
                     help="write the run's merged metrics bundle "
                          "(JSON) here")


def report_options(sub: argparse.ArgumentParser, defaults: dict) -> None:
    sub.add_argument("target",
                     help="a figure command to run and report on, or the "
                          "path of a saved metrics bundle (JSON)")
    sub.add_argument("--save", default=None, metavar="PATH",
                     help="also save the metrics bundle (JSON) here")


def compare_options(sub: argparse.ArgumentParser, defaults: dict) -> None:
    sub.add_argument("baseline", help="baseline metrics bundle (JSON)")
    sub.add_argument("candidate", help="candidate metrics bundle (JSON)")
    sub.add_argument("--threshold", "--tolerance", type=float,
                     default=None, dest="threshold",
                     help="relative regression tolerance per gated "
                          "metric (default: 0.10)")


def fuzz_options(sub: argparse.ArgumentParser, defaults: dict) -> None:
    sub.add_argument("--rounds", type=int, default=50,
                     help="number of random scenarios (default: "
                          "%(default)s)")
    sub.add_argument("--seed", type=int, default=7,
                     help="campaign seed; case N runs with seed "
                          "seed + N * %d, so any failing case is "
                          "reproducible via --rounds 1 --seed "
                          "<case_seed> (default: %%(default)s)"
                          % 1_000_003)
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes (1 = in-process serial)")
    sub.add_argument("--no-shrink", action="store_true",
                     help="report failures as generated, skip "
                          "minimization")
    sub.add_argument("--shrink-limit", type=int, default=3,
                     help="minimize at most this many failing cases")
    sub.add_argument("--inject", default=None, metavar="BUG",
                     choices=["no-holddown"],
                     help="deliberately break an invariant inside the "
                          "run (sanity-check that the oracles catch "
                          "it)")
    sub.add_argument("--manifest", default=None, metavar="PATH",
                     help="append a JSONL run manifest here")


def scaling_options(sub: argparse.ArgumentParser, defaults: dict) -> None:
    sub.add_argument("--sizes", default=None, metavar="N[,N...]",
                     help="comma-separated session sizes (default: "
                          "100,1000,10000,100000)")
    sub.add_argument("--smoke", action="store_true",
                     help="CI subset: drop the 10^5 point")
    sub.add_argument("--rounds", type=int, default=3,
                     help="loss-recovery rounds per point "
                          "(default: %(default)s)")
    sub.add_argument("--kinds", default="star,tree",
                     help="topology kinds to sweep (default: %(default)s)")
    sub.add_argument("--seed", type=int, default=None,
                     help="random seed (default: 0)")
    sub.add_argument("--check", action="store_true",
                     help="attach the protocol oracles (forces full "
                          "per-member tracing at every size; the 10^5 "
                          "points get slow)")
    sub.add_argument("--metrics", default=None, metavar="PATH",
                     help="write the sweep's merged metrics bundle "
                          "(JSON) here")


def lint_options(sub: argparse.ArgumentParser, defaults: dict) -> None:
    from repro.lint.cli import install_options
    install_options(sub, defaults)


def live_options(sub: argparse.ArgumentParser, defaults: dict) -> None:
    from repro.live.cli import install_options
    install_options(sub, defaults)


def fleet_options(sub: argparse.ArgumentParser, defaults: dict) -> None:
    from repro.fleet.cli import install_options
    install_options(sub, defaults)


def _make_runner(args):
    """Build the ExperimentRunner a figure command was asked for."""
    from repro.runner import ExperimentRunner, ResultCache

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return ExperimentRunner(jobs=args.jobs, cache=cache,
                            manifest_path=args.manifest,
                            metrics_path=getattr(args, "metrics", None))


# ----------------------------------------------------------------------
# Commands. Each prints its table and returns its result object (the
# report command reuses both the printing and the metrics bundle).
# ----------------------------------------------------------------------


@with_options(base_options, runner_options)
def _figure3(args):
    from repro.experiments.figure3 import run_figure3
    result = run_figure3(sims=args.sims, seed=args.seed,
                         runner=_make_runner(args))
    print(result.format_table())
    return result


@with_options(base_options, runner_options)
def _figure4(args):
    from repro.experiments.figure4 import run_figure4
    result = run_figure4(sims=args.sims, seed=args.seed,
                         runner=_make_runner(args))
    print(result.format_table())
    return result


@with_options(base_options, runner_options)
def _figure5(args):
    from repro.experiments.figure5 import run_figure5
    result = run_figure5(sims=args.sims, seed=args.seed,
                         runner=_make_runner(args))
    print(result.format_table())
    return result


@with_options(base_options, runner_options)
def _figure6(args):
    from repro.experiments.figure6 import run_figure6
    result = run_figure6(sims=args.sims, seed=args.seed,
                         runner=_make_runner(args))
    print(result.format_table())
    return result


@with_options(base_options, runner_options)
def _figure7(args):
    from repro.experiments.figure7 import run_figure7
    result = run_figure7(sims=args.sims, seed=args.seed,
                         runner=_make_runner(args))
    print(result.format_table())
    return result


@with_options(base_options, runner_options)
def _figure8(args):
    from repro.experiments.figure8 import run_figure8
    result = run_figure8(sims=args.sims, seed=args.seed,
                         runner=_make_runner(args))
    print(result.format_table())
    return result


@with_options(base_options, runner_options)
def _figure12(args):
    from repro.experiments.figure12_13 import (
        find_adversarial_scenario, run_rounds_experiment)
    scenario = find_adversarial_scenario()
    result = run_rounds_experiment(scenario, adaptive=False,
                                   runs=args.runs, rounds=args.rounds,
                                   seed=args.seed,
                                   runner=_make_runner(args))
    print(result.format_table())
    return result


@with_options(base_options, runner_options)
def _figure13(args):
    from repro.experiments.figure12_13 import (
        find_adversarial_scenario, run_rounds_experiment)
    scenario = find_adversarial_scenario()
    result = run_rounds_experiment(scenario, adaptive=True,
                                   runs=args.runs, rounds=args.rounds,
                                   seed=args.seed,
                                   runner=_make_runner(args))
    print(result.format_table())
    return result


@with_options(base_options, runner_options)
def _figure14(args):
    from repro.experiments.figure14 import run_figure14
    result = run_figure14(sims=args.sims, rounds=args.rounds,
                          seed=args.seed, runner=_make_runner(args))
    print(result.format_table())
    return result


@with_options(base_options, runner_options)
def _figure15(args):
    from repro.experiments.figure15 import run_figure15
    runner = _make_runner(args)
    two_step = run_figure15(sims=args.sims, seed=args.seed,
                            runner=runner)
    print(two_step.format_table())
    print()
    one_step = run_figure15(sims=args.sims, seed=args.seed,
                            mode="one-step", runner=runner)
    print(one_step.format_table())
    return (two_step, one_step)


@with_options(base_options)
def _robustness(args):
    from repro.experiments.robustness import format_table, run_robustness
    print(format_table(run_robustness(rounds=args.rounds,
                                      seed=args.seed)))


@with_options(base_options)
def _congestion(args):
    from repro.experiments import congestion
    congestion.main()


@with_options(fuzz_options)
def _fuzz(args):
    from repro.oracle.fuzz import format_fuzz_report, run_fuzz
    from repro.runner import ExperimentRunner

    runner = ExperimentRunner(jobs=args.jobs, manifest_path=args.manifest)
    outcome = run_fuzz(rounds=args.rounds, seed=args.seed, runner=runner,
                       shrink=not args.no_shrink, inject=args.inject,
                       shrink_limit=args.shrink_limit)
    print(format_fuzz_report(outcome))
    if outcome["failures"]:
        raise SystemExit(1)


@with_options(base_options, runner_options, report_options)
def _report(args):
    from repro.metrics import format_metrics_report, load_bundle, save_bundle

    target = args.target
    if Path(target).is_file():
        print(format_metrics_report(load_bundle(target), source=target))
        return 0
    if target not in REPORTABLE:
        known = ", ".join(sorted(REPORTABLE))
        print(f"report: {target!r} is neither a metrics bundle file nor "
              f"a reportable figure (one of: {known})", file=sys.stderr)
        return 2
    result = COMMANDS[target](args)
    bundle = getattr(result, "metrics", None)
    if bundle is None:
        print(f"report: {target} produced no metrics bundle",
              file=sys.stderr)
        return 2
    print()
    print(format_metrics_report(bundle))
    if args.save:
        path = save_bundle(bundle, args.save)
        print(f"saved metrics bundle to {path}", file=sys.stderr)
    return 0


@with_options(scaling_options)
def _scaling(args):
    """Mega-session sweep on the vectorized herd engine."""
    from repro.experiments.scaling import (DEFAULT_SIZES, SMOKE_SIZES,
                                           run_scaling)

    if args.sizes is not None:
        sizes = tuple(int(part) for part in args.sizes.split(","))
    else:
        sizes = SMOKE_SIZES if args.smoke else DEFAULT_SIZES
    kinds = tuple(part.strip() for part in args.kinds.split(",") if part)
    result = run_scaling(sizes=sizes, rounds=args.rounds, seed=args.seed,
                         kinds=kinds)
    print(result.format_table())
    if args.metrics:
        from repro.metrics import save_bundle
        path = save_bundle(result.metrics, args.metrics)
        print(f"saved metrics bundle to {path}", file=sys.stderr)
    return result


@with_options(lint_options)
def _lint(args):
    """SRM-specific static analysis; see docs/static-analysis.md."""
    from repro.lint.cli import run_lint_command
    return run_lint_command(args)


@with_options(live_options)
def _live(args):
    """Real-time engine: whiteboard demo and sim-vs-live soak."""
    from repro.live.cli import run_live_command
    return run_live_command(args)


@with_options(fleet_options)
def _fleet(args):
    """Fleet service: controller, worker agents, remote sweeps."""
    from repro.fleet.cli import run_fleet_command
    return run_fleet_command(args)


@with_options(compare_options)
def _compare(args):
    from repro.metrics import DEFAULT_THRESHOLD, compare_bundles, load_bundle

    threshold = args.threshold if args.threshold is not None \
        else DEFAULT_THRESHOLD
    report = compare_bundles(load_bundle(args.baseline),
                             load_bundle(args.candidate),
                             threshold=threshold)
    print(report.format())
    return 0 if report.ok else 2


COMMANDS: Dict[str, Callable] = {
    "figure3": _figure3,
    "figure4": _figure4,
    "figure5": _figure5,
    "figure6": _figure6,
    "figure7": _figure7,
    "figure8": _figure8,
    "figure12": _figure12,
    "figure13": _figure13,
    "figure14": _figure14,
    "figure15": _figure15,
    "scaling": _scaling,
    "robustness": _robustness,
    "congestion": _congestion,
    "fuzz": _fuzz,
    "report": _report,
    "compare": _compare,
    "lint": _lint,
    "live": _live,
    "fleet": _fleet,
}

#: Figure commands whose results carry a RunMetrics bundle that
#: ``repro report`` can render (figure15 is analytic: no bundle).
REPORTABLE = frozenset({
    "figure3", "figure4", "figure5", "figure6", "figure7", "figure8",
    "figure12", "figure13", "figure14",
})

#: Commands whose sweeps run on the ExperimentRunner and therefore take
#: the --jobs/--no-cache/--cache-dir/--manifest/--metrics knobs.
#: (robustness/congestion drive their own serial loops.)
RUNNER_COMMANDS = frozenset(
    name for name, fn in COMMANDS.items()
    if runner_options in getattr(fn, "option_installers", ()))

DEFAULTS = {
    "figure12": {"runs": 3, "rounds": 60},
    "figure13": {"runs": 3, "rounds": 60},
    "figure14": {"rounds": 40},
    "robustness": {"rounds": 5},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the SRM paper's experiments.")
    subparsers = parser.add_subparsers(dest="command")
    subparsers.add_parser("list", help="list available experiments")
    for name, fn in COMMANDS.items():
        defaults = DEFAULTS.get(name, {})
        sub = subparsers.add_parser(name, help=f"run {name}")
        for installer in getattr(fn, "option_installers", ()):
            installer(sub, defaults)
    return parser


#: Each figure module's own default seed, used when --seed is omitted.
FIGURE_SEEDS = {"figure3": 3, "figure4": 4, "figure5": 5, "figure6": 6,
                "figure7": 7, "figure8": 8, "figure12": 12,
                "figure13": 13, "figure14": 4, "figure15": 15,
                "robustness": 55, "congestion": 0, "fuzz": 7, "scaling": 0,
                "report": 0, "compare": 0, "lint": 0, "live": 6,
                "fleet": 0}


def _resolve_seed(args) -> None:
    if getattr(args, "seed", None) is not None:
        return
    key = args.command
    if key == "report":
        # A report run borrows the target figure's own default seed, so
        # `repro report figure3` reproduces `repro figure3` exactly.
        key = getattr(args, "target", key)
    elif key == "fleet":
        # Likewise a fleet submit: `repro fleet submit --figure figure3`
        # must reproduce `repro figure3` byte for byte.
        key = getattr(args, "figure", key)
    args.seed = FIGURE_SEEDS.get(key, 0)


def main(argv: Optional[List[str]] = None) -> int:
    from repro.oracle.base import OracleViolationError

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        print("available experiments:")
        for name in COMMANDS:
            print(f"  {name}")
        return 0
    _resolve_seed(args)
    if getattr(args, "check", False):
        # The environment variable (not a module flag) switches the mode
        # on: runner (and fleet) worker processes inherit it, so
        # parallel sweeps are checked too.
        env.set_check(True)
    profile = getattr(args, "profile", False)
    if profile:
        from repro.sim import perf
        perf.reset()
    try:
        if profile:
            from repro.sim import perf
            with perf.measure() as timing:
                outcome = COMMANDS[args.command](args)
            # stderr, so profiled stdout stays byte-identical to a
            # plain run (and golden-output comparisons keep working).
            print(perf.counters().format_report(timing.wall_s),
                  file=sys.stderr)
        else:
            outcome = COMMANDS[args.command](args)
    except OracleViolationError as exc:
        # A protocol invariant broke under --check: show the structured
        # report (with trace excerpts) and fail the command.
        print(exc.report.format(), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into e.g. `head`; exit quietly like other CLIs.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    # report/compare return their own exit codes; figure commands return
    # result objects (or None), which map to success.
    return outcome if isinstance(outcome, int) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
