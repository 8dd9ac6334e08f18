"""SRM009 — wire-schema drift against ``wire-schema.lock``, and knobs.

:mod:`repro.fleet.wire` freezes ``spec/v1``: every fleet payload and
every runner cache key flows through codecs derived from the spec
dataclasses plus a few declared layout tables. Derivation means a field
added to a wired dataclass is always encoded — and therefore silently
changes the format, so two builds could share cached results computed
from *different* effective specs. This checker makes such a change
loud, without running any fleet code path:

* **Schema digest.** :func:`repro.fleet.wire.wire_surface` (schema tag,
  the field and wire-key lists of the locked types, knob names) is
  hashed and compared with ``wire-schema.lock``. Any drift fails lint; re-pinning via
  ``repro lint --update-wire-lock`` *refuses* unless ``WIRE_SCHEMA``
  itself was bumped, so an intentional change always rides a
  ``spec/v2`` (see docs/fleet.md, "Schema evolution").
* **Knob registry.** Every ``"SRM_*"`` string literal in the source
  tree must name a knob declared in :data:`repro.env.KNOBS` — the
  registry a fleet controller serializes to workers. An undeclared
  knob is exactly the side channel the registry exists to prevent.
"""

from __future__ import annotations

import hashlib
import json
import re
import tokenize
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.lint.violations import Violation

CODE = "SRM009"

#: Default lock file, committed at the repo root.
DEFAULT_LOCK = "wire-schema.lock"

LOCK_VERSION = 1

#: The codec module (relative to the repo root); drift is reported here.
WIRE_SOURCE = Path("src") / "repro" / "fleet" / "wire.py"

#: A string-literal token whose whole value is an environment-knob name.
_KNOB_TOKEN = re.compile(
    r"\A[rRuUfF]{0,2}('''|\"\"\"|'|\")(SRM_[A-Z][A-Z0-9_]*)\1\Z")


class WireDriftError(ValueError):
    """The lock file cannot be read at all."""


# ----------------------------------------------------------------------
# Knob-literal scan.
# ----------------------------------------------------------------------


def _declared_knobs() -> Set[str]:
    from repro import env

    return {knob.name for knob in env.KNOBS}


def _knob_literal_violations(root: Path) -> List[Violation]:
    declared = _declared_knobs()
    out: List[Violation] = []
    src_root = root / "src" / "repro"
    for file in sorted(src_root.rglob("*.py")):
        if file.name == "env.py":
            continue  # the registry itself declares the names
        try:
            with tokenize.open(file) as handle:
                tokens = list(tokenize.generate_tokens(handle.readline))
        except (SyntaxError, tokenize.TokenError):
            continue  # SRM000 owns parse failures
        for token in tokens:
            match = _KNOB_TOKEN.match(token.string) \
                if token.type == tokenize.STRING else None
            if match and match.group(2) not in declared:
                out.append(Violation(
                    path=file.relative_to(root).as_posix(),
                    line=token.start[0], col=token.start[1] + 1,
                    code=CODE,
                    message=f"undeclared environment knob "
                            f"{match.group(2)!r}; declare it in "
                            f"repro.env.KNOBS so fleet controllers can "
                            f"serialize it to workers"))
    return out


# ----------------------------------------------------------------------
# Digest + lock.
# ----------------------------------------------------------------------


def surface_digest(surface: Mapping[str, object]) -> str:
    canonical = json.dumps(surface, sort_keys=True,
                           separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def _current() -> Tuple[str, str]:
    """The live schema tag and surface digest."""
    from repro.fleet.wire import WIRE_SCHEMA, wire_surface

    return WIRE_SCHEMA, surface_digest(wire_surface())


def load_lock(path: Path) -> Optional[Dict[str, str]]:
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise WireDriftError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "digest" not in payload \
            or "schema" not in payload:
        raise WireDriftError(
            f"{path}: expected an object with 'schema' and 'digest'")
    return {"schema": str(payload["schema"]),
            "digest": str(payload["digest"])}


def save_lock(path: Path, schema: str, digest: str) -> None:
    payload = {
        "version": LOCK_VERSION,
        "comment": ("Digest of the spec wire surface (codecs, dataclass "
                    "fields, env knobs). Drift fails `repro lint "
                    "--wire-drift`; re-pin with --update-wire-lock after "
                    "bumping WIRE_SCHEMA. See docs/fleet.md."),
        "schema": schema,
        "digest": digest,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


# ----------------------------------------------------------------------
# The checks.
# ----------------------------------------------------------------------


def check_wire_drift(root: Optional[Path] = None,
                     lock_path: Optional[Path] = None) -> List[Violation]:
    """All SRM009 violations for the tree rooted at ``root``."""
    root = (root if root is not None else _default_root()).resolve()
    out = _knob_literal_violations(root)
    lock_file = Path(lock_path if lock_path is not None
                     else root / DEFAULT_LOCK)
    try:
        lock = load_lock(lock_file)
    except WireDriftError as exc:
        out.append(Violation(path=lock_file.name, line=1, col=1,
                             code=CODE, message=str(exc)))
        return out
    _, digest = _current()
    wire_display = WIRE_SOURCE.as_posix()
    if lock is None:
        out.append(Violation(
            path=wire_display, line=1, col=1, code=CODE,
            message=f"no committed {DEFAULT_LOCK}; pin the wire surface "
                    f"with `repro lint --update-wire-lock`"))
    elif lock["digest"] != digest:
        out.append(Violation(
            path=wire_display, line=1, col=1, code=CODE,
            message=f"wire surface drifted from the committed lock "
                    f"({digest} != {lock['digest']}): the fields or wire "
                    f"keys of a locked type, or the knob registry, "
                    f"changed; if intentional, bump WIRE_SCHEMA (e.g. "
                    f"{lock['schema']} -> a new version) and run "
                    f"`repro lint --update-wire-lock`"))
    return out


def update_lock(lock_path: Path) -> Tuple[int, str]:
    """Re-pin the lock; refuse when the surface moved under a frozen tag.

    Returns ``(exit_code, message)`` for the CLI: 0 on success or
    no-op, 2 when the surface changed but ``WIRE_SCHEMA`` did not —
    the whole point of the lock is that an intentional schema change
    rides an explicit version bump.
    """
    schema, digest = _current()
    lock = load_lock(lock_path)
    if lock is None:
        save_lock(lock_path, schema, digest)
        return 0, f"{lock_path}: pinned {schema} ({digest})"
    if lock["digest"] == digest:
        return 0, f"{lock_path}: already up to date ({schema})"
    if lock["schema"] == schema:
        return 2, (f"{lock_path}: refusing to re-pin — the wire surface "
                   f"changed but WIRE_SCHEMA is still {schema!r}. An "
                   f"intentional schema change must bump the version "
                   f"tag (docs/fleet.md, 'Schema evolution').")
    save_lock(lock_path, schema, digest)
    return 0, f"{lock_path}: re-pinned {lock['schema']} -> {schema} ({digest})"


def _default_root() -> Path:
    """The repo root: the directory holding ``src/repro/fleet/wire.py``.

    Anchored to this module's own location so the checker works from
    any cwd, mirroring the baseline-root anchoring of the engine.
    """
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / WIRE_SOURCE).exists():
            return parent
    return Path.cwd()
