"""The frozen ``spec/v1`` wire schema for experiment specs and results.

Every fleet HTTP payload and every runner cache key goes through these
codecs. They are derived, not hand-written: each wired dataclass gets
one closed encoder/decoder pair, compiled once from
``dataclasses.fields`` and ``typing.get_type_hints``, and the few layout
choices a field list cannot express sit in the declared tables below.

* **Versioned.** ``ExperimentSpec`` and ``RunResult`` payloads carry
  ``"schema": "spec/v1"`` wherever they appear; other versions are
  rejected. :func:`wire_surface` is digested into ``wire-schema.lock``,
  and lint fails on drift until ``WIRE_SCHEMA`` is bumped.
* **Closed.** Unknown or missing fields and mistyped values (a bool is
  not an int) raise :class:`WireFormatError`, field path first.
* **Exact.** Numbers decode unchanged (an int in a float field stays an
  int), so a decoded spec re-encodes to the same bytes and fingerprints
  identically — the property the fleet's shared result cache rests on.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import reprlib
import typing
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Tuple, cast

from repro import env
from repro.core.local import LocalRecoveryOutcome
from repro.core.messages import WireFormatError
from repro.core.names import AduName, PageId
from repro.experiments.common import (
    ExperimentSpec,
    RoundOutcome,
    RunResult,
    Scenario,
)
from repro.metrics.bundle import RunMetrics
from repro.metrics.events import LossEventReport, MemberTiming
from repro.topology.spec import TopologySpec

#: The frozen schema tag carried by every versioned payload.
WIRE_SCHEMA = "spec/v1"

__all__ = [
    "WIRE_SCHEMA", "WireFormatError", "dumps_canonical",
    "spec_to_wire", "spec_from_wire", "spec_to_json", "spec_from_json",
    "result_to_wire", "result_from_wire", "result_to_json",
    "result_from_json", "wire_surface",
]

# ----------------------------------------------------------------------
# Declared layout: what the dataclass field lists cannot say.
# ----------------------------------------------------------------------

#: Types whose payload carries the ``"schema"`` tag (subclasses too).
_TAGGED: Tuple[type, ...] = (ExperimentSpec, RunResult)
#: (type, field) -> wire key, where they differ.
_RENAMED: Mapping[Tuple[type, str], str] = {(Scenario, "spec"): "topology"}
#: Types sent as a ``[field, ...]`` list instead of an object.
_AS_LIST: FrozenSet[type] = frozenset({PageId})
#: Fields a decoder may find absent; they then take the field default.
_MAY_BE_MISSING: FrozenSet[Tuple[type, str]] = frozenset({
    (TopologySpec, "metadata"), (MemberTiming, "via")})
#: Dataclasses allowed inside free-form (``Any``) values, as objects
#: tagged ``"__kind__": <name>``.
_KINDS: Mapping[str, type] = {"scoped-outcome": LocalRecoveryOutcome}
#: Types that bring their own dict codec.
_OWN_CODEC: Mapping[type, Tuple[Callable[[Any], Any],
                                Callable[[Any], Any]]] = {
    RunMetrics: (RunMetrics.to_dict, RunMetrics.from_dict)}
#: The types ``wire-schema.lock`` pins.
_LOCKED_TYPES: Tuple[type, ...] = (
    ExperimentSpec, RunResult, Scenario, TopologySpec, RoundOutcome,
    LossEventReport, MemberTiming, AduName)

_KIND_OF = {cls: kind for kind, cls in _KINDS.items()}
_SCALARS = frozenset({type(None), bool, int, float, str})

#: An encoder maps a value to JSON data; a decoder checks JSON data at a
#: field path and builds the value.
Encoder = Callable[[Any], Any]
Decoder = Callable[[Any, str], Any]


def dumps_canonical(payload: Mapping[str, Any]) -> str:
    """The canonical JSON rendering: sorted keys, no whitespace.

    Fingerprints hash this rendering, so it must stay byte-stable for a
    given payload across processes and Python versions.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _same(value: Any) -> Any:
    return value


def _fail(path: str, expected: str, value: Any) -> WireFormatError:
    return WireFormatError(
        f"{path}: expected {expected}, got {reprlib.repr(value)}")


def _checked(kinds: Tuple[type, ...], expected: str) -> Decoder:
    """A decoder accepting instances of ``kinds``; bool only if listed."""
    def decode(value: Any, path: str) -> Any:
        if not isinstance(value, kinds) \
                or (isinstance(value, bool) and bool not in kinds):
            raise _fail(path, expected, value)
        return value
    return decode


_LEAVES: Dict[Any, Decoder] = {
    int: _checked((int,), "an integer"),
    float: _checked((int, float), "a number"),
    str: _checked((str,), "a string"),
    bool: _checked((bool,), "a boolean"),
}
_as_list = _checked((list,), "a list")
_as_object = _checked((dict,), "a JSON object")


def _entries(value: Any, path: str, count: int) -> List[Any]:
    """A list of exactly ``count`` items (tuples, ``_AS_LIST`` types)."""
    if len(_as_list(value, path)) != count:
        raise _fail(path, f"a list of {count} items", value)
    return cast(List[Any], value)


def _int_key(key: Any, path: str) -> int:
    try:
        if isinstance(key, str) and str(int(key)) == key:
            return int(key)
    except ValueError:
        pass
    raise _fail(path, "an integer key", key)


def _any_to_wire(value: Any) -> Any:
    """Free-form data: JSON values, plus the declared ``_KINDS``."""
    if value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [item if type(item) in _SCALARS else _any_to_wire(item)
                for item in value]
    if isinstance(value, dict):
        return {str(key): _any_to_wire(item) for key, item in value.items()}
    kind = _KIND_OF.get(type(value))
    if kind is None:
        raise WireFormatError(
            f"{type(value).__name__} value has no spec/v1 encoding; "
            "declare it in repro.fleet.wire._KINDS")
    return {"__kind__": kind, **_codec(type(value)).encode(value)}


def _any_from_wire(value: Any, path: str) -> Any:
    if isinstance(value, list):
        return [_any_from_wire(item, f"{path}[{index}]")
                for index, item in enumerate(value)]
    if not isinstance(value, dict):
        return value
    kind = value.get("__kind__")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is not None:
        return _codec(cls).decode({key: item for key, item in value.items()
                                   if key != "__kind__"}, path)
    return {_LEAVES[str](key, path): _any_from_wire(item, f"{path}.{key}")
            for key, item in value.items()}


def _compile(hint: Any) -> Tuple[Encoder, Decoder]:
    """The encoder/decoder pair for one field type."""
    if hint in _LEAVES:
        return _same, _LEAVES[hint]
    if hint is Any or hint is object:
        return _any_to_wire, _any_from_wire
    if hint in _OWN_CODEC:
        to_dict, from_dict = _OWN_CODEC[hint]

        def own(value: Any, path: str) -> Any:
            payload = _as_object(value, path)
            try:
                return from_dict(payload)
            except (KeyError, TypeError, ValueError) as exc:
                raise WireFormatError(f"{path}: {exc}") from exc
        return to_dict, own
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        codec = _codec(hint)
        return codec.encode, codec.decode
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union and len(args) == 2 and type(None) in args:
        enc, dec = _compile(next(a for a in args if a is not type(None)))
        return ((lambda v: None if v is None else enc(v)),
                lambda v, path: None if v is None else dec(v, path))
    if origin in (list, frozenset):
        enc, dec = _compile(args[0])

        def items(value: Any, path: str) -> List[Any]:
            return [dec(item, f"{path}[{index}]")
                    for index, item in enumerate(_as_list(value, path))]
        if origin is frozenset:
            return ((lambda v: sorted(map(enc, v))),
                    lambda v, path: frozenset(items(v, path)))
        if enc is _same:
            return list, items
        return (lambda v: list(map(enc, v))), items
    if origin is tuple and Ellipsis not in args:
        pairs = [_compile(arg) for arg in args]

        def fixed(value: Any, path: str) -> Tuple[Any, ...]:
            entries = _entries(value, path, len(pairs))
            return tuple(pairs[index][1](entry, f"{path}[{index}]")
                         for index, entry in enumerate(entries))
        if all(enc is _same for enc, _ in pairs):
            return list, fixed
        return (lambda v: [enc(e) for (enc, _), e in zip(pairs, v)]), fixed
    if origin is dict and args[0] in (int, str):
        key_of = _int_key if args[0] is int else _LEAVES[str]
        enc, dec = _compile(args[1])
        return ((lambda v: {str(key): enc(item) for key, item in v.items()}),
                lambda v, path: {key_of(key, path): dec(item, f"{path}.{key}")
                                 for key, item in _as_object(v, path).items()})
    raise TypeError(f"{hint!r} has no spec/v1 layout")


class _DataclassCodec:
    """The closed encoder/decoder of one wired dataclass."""

    def __init__(self, cls: type) -> None:
        self.cls = cls
        self.tag = {"schema": WIRE_SCHEMA} if issubclass(cls, _TAGGED) \
            else {}
        self.as_list = cls in _AS_LIST
        hints = typing.get_type_hints(cls)
        #: (field name, wire key, encoder, decoder, may be missing)
        self.fields: List[Tuple[str, str, Encoder, Decoder, bool]] = [
            (f.name, _RENAMED.get((cls, f.name), f.name),
             *_compile(hints[f.name]), (cls, f.name) in _MAY_BE_MISSING)
            for f in dataclasses.fields(cls)]
        self.keys = {key for _, key, _, _, _ in self.fields} | set(self.tag)

    def encode(self, value: Any) -> Any:
        if self.as_list:
            return [enc(getattr(value, name))
                    for name, _, enc, _, _ in self.fields]
        payload: Dict[str, Any] = dict(self.tag)
        for name, key, enc, _, _ in self.fields:
            payload[key] = enc(getattr(value, name))
        return payload

    def decode(self, value: Any, path: str) -> Any:
        kwargs: Dict[str, Any] = {}
        if self.as_list:
            entries = _entries(value, path, len(self.fields))
            for index, (name, _, _, dec, _) in enumerate(self.fields):
                kwargs[name] = dec(entries[index], f"{path}[{index}]")
        else:
            payload = _as_object(value, path)
            if self.tag and payload.get("schema") != WIRE_SCHEMA:
                raise WireFormatError(
                    f"{path}: unsupported wire schema "
                    f"{payload.get('schema')!r} (this build speaks "
                    f"{WIRE_SCHEMA!r})")
            unknown = payload.keys() - self.keys
            if unknown:
                raise WireFormatError(
                    f"{path}: unknown field(s) "
                    f"{', '.join(sorted(map(str, unknown)))}")
            for name, key, _, dec, may_be_missing in self.fields:
                if key in payload:
                    kwargs[name] = dec(payload[key], f"{path}.{key}")
                elif not may_be_missing:
                    raise WireFormatError(
                        f"{path}: missing required field {key!r}")
        try:
            return self.cls(**kwargs)
        except (TypeError, ValueError) as exc:  # __post_init__ checks
            raise WireFormatError(f"{path}: {exc}") from exc


@functools.lru_cache(maxsize=None)
def _codec(cls: type) -> _DataclassCodec:
    return _DataclassCodec(cls)


# ----------------------------------------------------------------------
# Public API.
# ----------------------------------------------------------------------


def spec_to_wire(spec: ExperimentSpec) -> Dict[str, Any]:
    """Encode one :class:`ExperimentSpec` as a spec/v1 payload."""
    return cast(Dict[str, Any], _codec(ExperimentSpec).encode(spec))


def spec_from_wire(payload: Any) -> ExperimentSpec:
    """Decode a spec/v1 payload back into an :class:`ExperimentSpec`."""
    return cast(ExperimentSpec, _codec(ExperimentSpec).decode(payload,
                                                              "spec"))


def spec_to_json(spec: ExperimentSpec) -> str:
    return dumps_canonical(spec_to_wire(spec))


def spec_from_json(text: str) -> ExperimentSpec:
    return spec_from_wire(_loads(text, "spec"))


def result_to_wire(result: RunResult) -> Dict[str, Any]:
    """Encode one :class:`RunResult` as a spec/v1 payload."""
    return cast(Dict[str, Any], _codec(RunResult).encode(result))


def result_from_wire(payload: Any) -> RunResult:
    """Decode a spec/v1 payload back into a :class:`RunResult`."""
    return cast(RunResult, _codec(RunResult).decode(payload, "result"))


def result_to_json(result: RunResult) -> str:
    return dumps_canonical(result_to_wire(result))


def result_from_json(text: str) -> RunResult:
    return result_from_wire(_loads(text, "result"))


def _loads(text: str, path: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise WireFormatError(f"{path}: not valid JSON ({exc})") from exc


def wire_surface() -> Dict[str, object]:
    """What ``wire-schema.lock`` pins: the schema tag, the fields and
    wire keys of every locked type, and the knob names."""
    return {
        "schema": WIRE_SCHEMA,
        "types": {cls.__name__: {
            "fields": sorted(f.name for f in dataclasses.fields(cls)),
            "wire": sorted(_codec(cls).keys)} for cls in _LOCKED_TYPES},
        "knobs": sorted(knob.name for knob in env.KNOBS),
    }
