"""SRM009 wire-schema drift checker: derived-surface digest, knobs."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.experiments.common import ExperimentSpec
from repro.fleet import wire
from repro.lint.cli import main as lint_main
from repro.lint.wiredrift import (
    DEFAULT_LOCK,
    _knob_literal_violations,
    check_wire_drift,
    load_lock,
    save_lock,
    surface_digest,
    update_lock,
)
from repro.metrics.events import MemberTiming

REPO_ROOT = Path(__file__).parent.parent


def _replace_locked(monkeypatch, old, new):
    """Swap one locked type for a look-alike in the digested surface."""
    monkeypatch.setattr(wire, "_LOCKED_TYPES", tuple(
        new if cls is old else cls for cls in wire._LOCKED_TYPES))


# ----------------------------------------------------------------------
# The committed tree is drift-free.
# ----------------------------------------------------------------------


def test_clean_tree_has_no_drift():
    assert check_wire_drift(root=REPO_ROOT) == []


def test_committed_lock_matches_the_live_surface():
    lock = load_lock(REPO_ROOT / DEFAULT_LOCK)
    assert lock is not None
    surface = wire.wire_surface()
    assert lock["schema"] == surface["schema"] == "spec/v1"
    assert lock["digest"] == surface_digest(surface)


def test_every_wired_type_is_reflected():
    types = wire.wire_surface()["types"]
    assert set(types) == {cls.__name__ for cls in wire._LOCKED_TYPES}
    assert len(types) == 8
    assert all(entry["fields"] and entry["wire"] for entry in types.values())
    # The declared layout shows up in the wire keys.
    assert "topology" in types["Scenario"]["wire"]
    assert "spec" in types["Scenario"]["fields"]
    assert "schema" in types["ExperimentSpec"]["wire"]
    assert "schema" not in types["AduName"]["wire"]


# ----------------------------------------------------------------------
# The acceptance fixture: a field added to a wired dataclass is encoded
# by construction, so it must move the digest and fail --wire-drift.
# ----------------------------------------------------------------------


def _grown_spec():
    return dataclasses.make_dataclass(
        "ExperimentSpec", [("new_knob", int, dataclasses.field(default=0))],
        bases=(ExperimentSpec,))


def test_field_added_to_a_wired_dataclass_moves_the_digest(monkeypatch):
    before = wire.wire_surface()
    _replace_locked(monkeypatch, ExperimentSpec, _grown_spec())
    after = wire.wire_surface()
    grown = after["types"]["ExperimentSpec"]
    assert set(grown["fields"]) - set(
        before["types"]["ExperimentSpec"]["fields"]) == {"new_knob"}
    assert set(grown["wire"]) - set(
        before["types"]["ExperimentSpec"]["wire"]) == {"new_knob"}
    assert surface_digest(after) != surface_digest(before)
    violations = check_wire_drift(root=REPO_ROOT)
    assert [v.code for v in violations] == ["SRM009"]
    assert "drifted from the committed lock" in violations[0].message
    target = str(REPO_ROOT / "src" / "repro" / "fleet" / "wire.py")
    assert lint_main([target, "--baseline",
                      str(REPO_ROOT / "lint-baseline.json"),
                      "--wire-drift"]) == 1


def test_field_removed_from_a_wired_dataclass_moves_the_digest(
        monkeypatch):
    shrunk = dataclasses.make_dataclass(
        "MemberTiming", [(f.name, f.type) for f in
                         dataclasses.fields(MemberTiming)
                         if f.name != "rtt"])
    _replace_locked(monkeypatch, MemberTiming, shrunk)
    assert "rtt" not in wire.wire_surface()["types"]["MemberTiming"]["wire"]
    assert any("drifted from the committed lock" in v.message
               for v in check_wire_drift(root=REPO_ROOT))


def test_update_lock_refuses_a_grown_type_under_an_unbumped_tag(
        tmp_path, monkeypatch):
    lock_path = tmp_path / "wire-schema.lock"
    lock_path.write_bytes((REPO_ROOT / DEFAULT_LOCK).read_bytes())
    _replace_locked(monkeypatch, ExperimentSpec, _grown_spec())
    code, message = update_lock(lock_path)
    assert code == 2
    assert "WIRE_SCHEMA is still 'spec/v1'" in message
    assert lock_path.read_bytes() == (REPO_ROOT / DEFAULT_LOCK).read_bytes()


# ----------------------------------------------------------------------
# Lock update workflow: the ratchet that forces spec/v2.
# ----------------------------------------------------------------------


def test_update_lock_is_idempotent(tmp_path):
    lock_path = tmp_path / "wire-schema.lock"
    code, message = update_lock(lock_path)
    assert code == 0 and "pinned" in message
    code, message = update_lock(lock_path)
    assert code == 0 and "up to date" in message


def test_update_lock_refuses_drift_under_a_frozen_tag(tmp_path):
    lock_path = tmp_path / "wire-schema.lock"
    # Same schema tag, stale digest: the surface moved without a bump.
    save_lock(lock_path, "spec/v1", "sha256:" + "0" * 64)
    code, message = update_lock(lock_path)
    assert code == 2
    assert "WIRE_SCHEMA is still 'spec/v1'" in message
    # And the lock was not touched.
    assert load_lock(lock_path)["digest"] == "sha256:" + "0" * 64


def test_update_lock_repins_after_a_schema_bump(tmp_path):
    lock_path = tmp_path / "wire-schema.lock"
    save_lock(lock_path, "spec/v0", "sha256:" + "0" * 64)
    code, message = update_lock(lock_path)
    assert code == 0 and "spec/v0 -> spec/v1" in message
    assert load_lock(lock_path)["schema"] == "spec/v1"


def test_missing_lock_is_a_violation(tmp_path):
    violations = check_wire_drift(root=REPO_ROOT,
                                  lock_path=tmp_path / "absent.lock")
    assert any("--update-wire-lock" in v.message for v in violations)


# ----------------------------------------------------------------------
# Knob-literal scan.
# ----------------------------------------------------------------------


def test_undeclared_knob_literal_is_flagged(tmp_path):
    tree = tmp_path / "src" / "repro" / "core"
    tree.mkdir(parents=True)
    (tree / "rogue.py").write_text(
        'import os\nvalue = os.environ.get("SRM_SECRET_TOGGLE", "")\n')
    violations = _knob_literal_violations(tmp_path)
    assert [v.code for v in violations] == ["SRM009"]
    assert "SRM_SECRET_TOGGLE" in violations[0].message


def test_declared_knob_literals_pass(tmp_path):
    tree = tmp_path / "src" / "repro" / "core"
    tree.mkdir(parents=True)
    (tree / "fine.py").write_text(
        'import os\nvalue = os.environ.get("SRM_CHECK", "")\n')
    assert _knob_literal_violations(tmp_path) == []


# ----------------------------------------------------------------------
# CLI plumbing.
# ----------------------------------------------------------------------


def test_cli_wire_drift_on_the_committed_tree(capsys):
    target = str(REPO_ROOT / "src" / "repro" / "fleet" / "wire.py")
    assert lint_main([target, "--baseline",
                      str(REPO_ROOT / "lint-baseline.json"),
                      "--wire-drift"]) == 0


def test_cli_update_wire_lock_round_trip(tmp_path, capsys):
    lock_path = tmp_path / "wire-schema.lock"
    assert lint_main(["--update-wire-lock",
                      "--wire-lock", str(lock_path)]) == 0
    payload = json.loads(lock_path.read_text())
    assert payload["schema"] == "spec/v1"
    assert payload["digest"].startswith("sha256:")
