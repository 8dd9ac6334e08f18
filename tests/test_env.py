"""The typed SRM_* knob registry (repro.env).

Every environment variable the repo honors is declared once in
``repro.env.KNOBS`` and read through typed accessors; the fleet ships
the determinism-relevant subset to workers as an env block. These tests
pin the registry's shape, the accessors' parsing, and the block
round-trip (snapshot -> apply) including its refusal to smuggle
undeclared variables.
"""

from __future__ import annotations

import os

import pytest

from repro import env


# ----------------------------------------------------------------------
# Registry shape
# ----------------------------------------------------------------------


def test_every_knob_is_declared_once_with_srm_prefix():
    names = [knob.name for knob in env.KNOBS]
    assert len(names) == len(set(names))
    assert all(name.startswith("SRM_") for name in names)
    assert all(knob.kind in ("bool", "str", "int", "path")
               for knob in env.KNOBS)
    assert all(knob.help for knob in env.KNOBS)


def test_wire_knobs_are_declared_knobs():
    declared = {knob.name for knob in env.KNOBS}
    assert set(env.WIRE_KNOBS) <= declared
    # The determinism-relevant three, exactly: what a task computes.
    assert set(env.WIRE_KNOBS) == {"SRM_CHECK", "SRM_SCHED_BACKEND",
                                   "SRM_CACHE_SALT"}


def test_knob_lookup_rejects_undeclared_names():
    assert env.knob("SRM_CHECK").kind == "bool"
    with pytest.raises(env.UnknownKnobError):
        env.knob("SRM_NOT_A_KNOB")
    with pytest.raises(env.UnknownKnobError):
        env.knob("PATH")


# ----------------------------------------------------------------------
# Typed accessors
# ----------------------------------------------------------------------


def test_check_accessor_and_setter(monkeypatch):
    monkeypatch.delenv("SRM_CHECK", raising=False)
    assert env.check_enabled() is False
    monkeypatch.setenv("SRM_CHECK", "0")
    assert env.check_enabled() is False
    monkeypatch.setenv("SRM_CHECK", "1")
    assert env.check_enabled() is True
    env.set_check(False)
    assert "SRM_CHECK" not in os.environ
    env.set_check(True)
    assert os.environ["SRM_CHECK"] == "1"
    env.set_check(False)


def test_sched_backend_is_normalized(monkeypatch):
    # The heap is the only backend: unset or "heap" (in any case and
    # spacing) is accepted, anything else fails scheduler construction.
    from repro.sim.scheduler import EventScheduler, SimulationError

    for value in ("", "heap", "  HEAP "):
        monkeypatch.setenv("SRM_SCHED_BACKEND", value)
        EventScheduler()
    for value in ("calendar", "quantum"):
        monkeypatch.setenv("SRM_SCHED_BACKEND", value)
        with pytest.raises(SimulationError,
                           match="calendar scheduler backend was removed"):
            EventScheduler()


def test_cache_dir_default_and_override(monkeypatch):
    monkeypatch.setenv("SRM_CACHE_DIR", "/tmp/somewhere")
    assert env.cache_dir() == "/tmp/somewhere"
    monkeypatch.delenv("SRM_CACHE_DIR", raising=False)
    assert env.cache_dir() == "results/.cache"


def test_cache_salt_defaults_to_package_version(monkeypatch):
    import repro

    monkeypatch.delenv("SRM_CACHE_SALT", raising=False)
    assert env.cache_salt() == f"repro-{repro.__version__}"
    monkeypatch.setenv("SRM_CACHE_SALT", "experiment-42")
    assert env.cache_salt() == "experiment-42"


def test_bench_accessors(monkeypatch):
    for name in ("SRM_BENCH_FULL", "SRM_BENCH_JOBS", "SRM_BENCH_CACHE",
                 "SRM_BENCH_CACHE_DIR", "SRM_BENCH_MANIFEST"):
        monkeypatch.delenv(name, raising=False)
    assert env.bench_full() is False
    assert env.bench_jobs() == 1
    assert env.bench_cache_enabled() is False
    assert env.bench_cache_dir() == "results/.cache"
    assert env.bench_manifest() is None
    monkeypatch.setenv("SRM_BENCH_FULL", "1")
    monkeypatch.setenv("SRM_BENCH_JOBS", "8")
    monkeypatch.setenv("SRM_BENCH_MANIFEST", "out.jsonl")
    assert env.bench_full() is True
    assert env.bench_jobs() == 8
    assert env.bench_manifest() == "out.jsonl"


def test_hypothesis_profile_default(monkeypatch):
    monkeypatch.delenv("SRM_HYPOTHESIS_PROFILE", raising=False)
    assert env.hypothesis_profile() == "ci"
    monkeypatch.setenv("SRM_HYPOTHESIS_PROFILE", "nightly")
    assert env.hypothesis_profile() == "nightly"


# ----------------------------------------------------------------------
# Env blocks: snapshot -> wire -> apply
# ----------------------------------------------------------------------


def test_snapshot_only_reports_explicitly_set_knobs(monkeypatch):
    for name in env.WIRE_KNOBS:
        monkeypatch.delenv(name, raising=False)
    assert env.snapshot() == {}
    monkeypatch.setenv("SRM_CHECK", "1")
    monkeypatch.setenv("SRM_SCHED_BACKEND", "heap")
    assert env.snapshot() == {"SRM_CHECK": "1",
                              "SRM_SCHED_BACKEND": "heap"}


def test_snapshot_wire_only_excludes_local_knobs(monkeypatch):
    monkeypatch.setenv("SRM_BENCH_JOBS", "4")
    assert "SRM_BENCH_JOBS" not in env.snapshot()
    assert "SRM_BENCH_JOBS" in env.snapshot(wire_only=False)


def test_apply_round_trips_a_snapshot(monkeypatch):
    monkeypatch.setenv("SRM_CHECK", "1")
    monkeypatch.setenv("SRM_CACHE_SALT", "salt-x")
    block = env.snapshot()
    monkeypatch.delenv("SRM_CHECK", raising=False)
    monkeypatch.delenv("SRM_CACHE_SALT", raising=False)
    env.apply(block)
    try:
        assert env.check_enabled() is True
        assert env.cache_salt() == "salt-x"
    finally:
        os.environ.pop("SRM_CHECK", None)
        os.environ.pop("SRM_CACHE_SALT", None)


def test_apply_refuses_undeclared_variables(monkeypatch):
    monkeypatch.delenv("SRM_CHECK", raising=False)
    with pytest.raises(env.UnknownKnobError):
        env.apply({"SRM_CHECK": "1", "LD_PRELOAD": "evil.so"})
    # Validation happens before any assignment: nothing was applied.
    assert "SRM_CHECK" not in os.environ


def test_call_sites_read_through_the_registry(monkeypatch):
    """The migrated call sites honor the knobs via repro.env."""
    from repro.oracle.base import check_mode_enabled
    from repro.runner.executor import code_version_salt
    from repro.sim.scheduler import EventScheduler, SimulationError

    monkeypatch.setenv("SRM_CHECK", "1")
    assert check_mode_enabled() is True
    monkeypatch.setenv("SRM_SCHED_BACKEND", "calendar")
    with pytest.raises(SimulationError):
        EventScheduler()
    monkeypatch.setenv("SRM_CACHE_SALT", "pinned")
    assert code_version_salt() == "pinned"
