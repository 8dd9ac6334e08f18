"""Typed accessors for every ``SRM_*`` environment knob.

The repo grew one environment variable per subsystem — ``SRM_CHECK``
(oracles), ``SRM_SCHED_BACKEND`` (event core), ``SRM_CACHE_DIR`` /
``SRM_CACHE_SALT`` (result cache), ``SRM_HYPOTHESIS_PROFILE`` (test
scale) and the ``SRM_BENCH_*`` family (benchmark harness) — each read
with its own ad-hoc ``os.environ.get`` and its own parsing convention.
This module is now the single registry: every knob is declared once in
:data:`KNOBS` with its type, default and documentation (the table in
``docs/configuration.md`` mirrors it), and every call site goes through
a typed accessor. The exception is ``SRM_SCHED_BACKEND``: it selects
nothing any more, and :class:`repro.sim.scheduler.EventScheduler` only
checks that it is unset or ``heap``. It stays declared because its name
is part of the fleet wire schema.

Two properties matter beyond tidiness:

* **Fleet serialization.** A :mod:`repro.fleet` controller captures the
  determinism-relevant knobs once via :func:`snapshot` and ships them to
  every worker as a single env block; workers :func:`apply` it before
  running tasks. No call site re-reads ``os.environ`` through a side
  channel the controller cannot see.
* **Late binding.** Accessors read the environment at call time, never
  at import time, so a driver (the CLI, a test, a fleet worker) may flip
  a knob programmatically between runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "Knob",
    "KNOBS",
    "WIRE_KNOBS",
    "UnknownKnobError",
    "knob",
    "check_enabled",
    "set_check",
    "cache_dir",
    "cache_salt",
    "hypothesis_profile",
    "bench_full",
    "bench_jobs",
    "bench_cache_enabled",
    "bench_cache_dir",
    "bench_manifest",
    "snapshot",
    "apply",
]


@dataclass(frozen=True)
class Knob:
    """One declared environment knob."""

    name: str
    kind: str            # "bool" | "str" | "int" | "path"
    default: str         # rendered default for documentation
    help: str


#: Every SRM_* knob the repo honors, in documentation order. The table
#: in ``docs/configuration.md`` is generated from this tuple; adding a
#: knob anywhere else is a lint-review smell.
KNOBS: Tuple[Knob, ...] = (
    Knob("SRM_CHECK", "bool", "0",
         "Attach the protocol oracles of repro.oracle to every "
         "simulation (the --check flag exports this so runner and fleet "
         "workers inherit it)."),
    Knob("SRM_SCHED_BACKEND", "str", "heap",
         "Event-scheduler backend; 'heap' is the only one. The calendar "
         "backend was removed, and any other value (including "
         "'calendar') makes scheduler construction fail."),
    Knob("SRM_CACHE_DIR", "path", "results/.cache",
         "Root of the content-addressed result cache."),
    Knob("SRM_CACHE_SALT", "str", "repro-<version>",
         "Cache-key salt; bump to invalidate every cached result at "
         "once. Defaults to the released package version."),
    Knob("SRM_HYPOTHESIS_PROFILE", "str", "ci",
         "Hypothesis example-count profile for the test suite: "
         "ci, dev or nightly."),
    Knob("SRM_BENCH_FULL", "bool", "0",
         "Run benchmarks at the paper's full scale."),
    Knob("SRM_BENCH_JOBS", "int", "1",
         "Worker processes for benchmark sweeps."),
    Knob("SRM_BENCH_CACHE", "bool", "0",
         "Let benchmarks reuse the on-disk result cache."),
    Knob("SRM_BENCH_CACHE_DIR", "path", "results/.cache",
         "Cache location for SRM_BENCH_CACHE=1."),
    Knob("SRM_BENCH_MANIFEST", "path", "",
         "Append a JSONL run manifest per benchmark sweep here."),
)

_BY_NAME: Dict[str, Knob] = {entry.name: entry for entry in KNOBS}

#: The determinism-relevant subset a fleet controller serializes to its
#: workers: anything that changes *what a task computes* (oracles on or
#: off, cache keying), plus the retired scheduler-backend switch, whose
#: name the wire schema still pins. Worker-local knobs (cache
#: location, bench scale) deliberately stay out — each worker keeps its
#: own storage.
WIRE_KNOBS: Tuple[str, ...] = (
    "SRM_CHECK", "SRM_SCHED_BACKEND", "SRM_CACHE_SALT",
)


class UnknownKnobError(KeyError):
    """An env block named a variable outside the declared registry."""


def knob(name: str) -> Knob:
    """The declaration for one knob; raises :class:`UnknownKnobError`."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise UnknownKnobError(
            f"unknown SRM environment knob {name!r} (declared: "
            f"{', '.join(sorted(_BY_NAME))})") from None


def _raw(name: str) -> str:
    return os.environ.get(name, "")


def _bool(name: str) -> bool:
    return _raw(name) not in ("", "0")


# ----------------------------------------------------------------------
# Typed accessors, one (or two) per knob.
# ----------------------------------------------------------------------


def check_enabled() -> bool:
    """``SRM_CHECK``: protocol oracles attached to every simulation."""
    return _bool("SRM_CHECK")


def set_check(enabled: bool) -> None:
    """Export ``SRM_CHECK`` so child worker processes inherit it."""
    if enabled:
        os.environ["SRM_CHECK"] = "1"
    else:
        os.environ.pop("SRM_CHECK", None)


def cache_dir() -> str:
    """``SRM_CACHE_DIR`` or the repo default ``results/.cache``."""
    return _raw("SRM_CACHE_DIR") or "results/.cache"


def cache_salt() -> str:
    """``SRM_CACHE_SALT`` or ``repro-<package version>``.

    Keyed to the released version rather than a hash of the source tree,
    so an unrelated edit keeps the cache warm; bump the env knob (or the
    package version) when simulation semantics change.
    """
    override = _raw("SRM_CACHE_SALT")
    if override:
        return override
    from repro import __version__

    return f"repro-{__version__}"


def hypothesis_profile() -> str:
    """``SRM_HYPOTHESIS_PROFILE`` (ci/dev/nightly); default ``ci``."""
    return _raw("SRM_HYPOTHESIS_PROFILE") or "ci"


def bench_full() -> bool:
    """``SRM_BENCH_FULL``: paper-scale benchmark runs."""
    return _raw("SRM_BENCH_FULL") == "1"


def bench_jobs() -> int:
    """``SRM_BENCH_JOBS``: worker processes for benchmark sweeps."""
    return int(_raw("SRM_BENCH_JOBS") or "1")


def bench_cache_enabled() -> bool:
    """``SRM_BENCH_CACHE``: benchmarks may reuse cached results."""
    return _raw("SRM_BENCH_CACHE") == "1"


def bench_cache_dir() -> str:
    """``SRM_BENCH_CACHE_DIR`` or the shared default cache location."""
    return _raw("SRM_BENCH_CACHE_DIR") or "results/.cache"


def bench_manifest() -> Optional[str]:
    """``SRM_BENCH_MANIFEST``: manifest path, or None when unset."""
    return _raw("SRM_BENCH_MANIFEST") or None


# ----------------------------------------------------------------------
# Fleet env blocks.
# ----------------------------------------------------------------------


def snapshot(wire_only: bool = True) -> Dict[str, str]:
    """The explicitly-set knobs of this process as one env block.

    ``wire_only`` (the default) restricts the block to
    :data:`WIRE_KNOBS` — what a controller should impose on its workers.
    Unset knobs are omitted: applying the block elsewhere must not
    clobber a worker's own defaults with empty strings.
    """
    names = WIRE_KNOBS if wire_only else tuple(_BY_NAME)
    return {name: os.environ[name]
            for name in names if name in os.environ}


def apply(block: Mapping[str, str]) -> None:
    """Impose an env block produced by :func:`snapshot`.

    Every name must be a declared knob (:class:`UnknownKnobError`
    otherwise) — a controller cannot smuggle arbitrary environment into
    a worker process.
    """
    for name in block:
        knob(name)
    for name, value in block.items():
        os.environ[name] = str(value)
