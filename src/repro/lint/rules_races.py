"""SRM008 — tie-order-sensitive timer callbacks.

The determinism contract (docs/determinism.md) fixes *which* order
same-instant events drain in — ``(time, seq)`` — but correct SRM code
must be stronger than that: protocol behavior may not depend on the
drain order at all, or a refactor that re-seqs events (batching, wave
merging, a new scheduler backend) silently changes results. The dynamic
detector in :mod:`repro.lint.races` replays scenarios under permuted
drain orders; this rule catches the canonical static signature of the
same bug before it ever runs:

* a method is scheduled as a **timer callback** in this file, and
* its body reads **unordered mutable shared state** — an instance
  attribute assigned from a set — in an order-sensitive way
  (``for x in self.claimed``, ``next(iter(self.claimed))``,
  ``self.claimed.pop()``),
* without a deterministic sink (``sorted(...)``, ``min``/``max``,
  order-insensitive reductions).

Two same-instant callbacks that both mutate and read such state see
each other's effects in drain order; whichever fires first wins the
"first element" race. The fix is always the same: pick by a total
order (``sorted``, ``min``) instead of arrival order.

SRM002 already polices *local* set iteration; SRM008 exists because
the racing reads are on ``self.<attr>`` shared between callbacks, which
alias tracking on bare names cannot see.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Union

from repro.lint.rules import FileContext, Rule, register
from repro.lint.violations import Violation

#: Scheduler entry points whose callable arguments become timer
#: callbacks. Matches both ``self.scheduler.schedule(...)`` and a bare
#: ``scheduler.schedule(...)``.
_SCHEDULE_METHODS = {"schedule", "schedule_at", "call_later", "call_at"}

#: Wrapping one of these around the read discards arrival order.
_ORDER_INSENSITIVE_SINKS = {"sorted", "sum", "min", "max", "len",
                            "any", "all", "set", "frozenset"}

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _is_set_valued(node: ast.expr) -> bool:
    """True for expressions that are statically a mutable set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "set"
    return False


def _self_attr(node: ast.expr) -> Optional[str]:
    """``attr`` for a ``self.attr`` expression, else None."""
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


class _ClassSurface:
    """What one class definition exposes to the rule."""

    def __init__(self, node: ast.ClassDef) -> None:
        self.node = node
        #: attributes assigned a mutable set anywhere in the class.
        self.set_attrs: set[str] = set()
        #: method name -> definition node.
        self.methods: dict[str, _FunctionNode] = {}
        #: methods passed as callbacks to a scheduler in this class.
        self.scheduled: set[str] = set()
        self._scan()

    def _scan(self) -> None:
        for node in ast.walk(self.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods.setdefault(node.name, node)
            elif isinstance(node, ast.Assign):
                if any(_self_attr(t) and _is_set_valued(node.value)
                       for t in node.targets):
                    for target in node.targets:
                        attr = _self_attr(target)
                        if attr:
                            self.set_attrs.add(attr)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                attr = _self_attr(node.target)
                if attr and _is_set_valued(node.value):
                    self.set_attrs.add(attr)
            elif isinstance(node, ast.Call):
                callee = node.func
                if isinstance(callee, ast.Attribute) \
                        and callee.attr in _SCHEDULE_METHODS:
                    for arg in node.args:
                        name = _self_attr(arg)
                        if name:
                            self.scheduled.add(name)


@register
class TieOrderSensitiveCallbackRule(Rule):
    """SRM008: timer callbacks must not race on unordered shared state."""

    code = "SRM008"
    name = "tie-order-sensitive-callback"
    summary = ("timer callbacks must not read unordered shared sets; "
               "behavior would depend on same-instant drain order")
    domain_only = True

    def check(self, ctx: FileContext) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                out.extend(self._check_class(ctx, _ClassSurface(node)))
        return out

    def _check_class(self, ctx: FileContext,
                     surface: _ClassSurface) -> Iterator[Violation]:
        racy = surface.set_attrs
        if not racy or not surface.scheduled:
            return
        for name in sorted(surface.scheduled):
            method = surface.methods.get(name)
            if method is None:
                continue
            for read, attr, how in self._unordered_reads(ctx, method,
                                                         racy):
                yield self.violation(
                    ctx, read,
                    f"timer callback '{name}' {how} the unordered "
                    f"shared set 'self.{attr}'; the result depends on "
                    f"same-instant drain order — pick via sorted()/min() "
                    f"or keep a list keyed by arrival seq")

    def _unordered_reads(self, ctx: FileContext, method: _FunctionNode,
                         racy: set[str]
                         ) -> Iterator[tuple[ast.AST, str, str]]:
        for node in ast.walk(method):
            # for x in self.claimed: ...   (and comprehensions)
            iters: list[ast.expr] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for candidate in iters:
                attr = _self_attr(candidate)
                if attr in racy and not self._sunk(ctx, node):
                    yield candidate, attr, "iterates"
            if not isinstance(node, ast.Call):
                continue
            # next(iter(self.claimed)) — "first element" of a set.
            if isinstance(node.func, ast.Name) and node.func.id == "iter" \
                    and node.args:
                attr = _self_attr(node.args[0])
                parent = ctx.parent(node)
                if attr in racy and isinstance(parent, ast.Call) \
                        and isinstance(parent.func, ast.Name) \
                        and parent.func.id == "next":
                    yield parent, attr, "takes the 'first' element of"
            # self.claimed.pop() — pops an arbitrary element.
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "pop" and not node.args:
                attr = _self_attr(node.func.value)
                if attr in racy:
                    yield node, attr, "pops an arbitrary element of"

    @staticmethod
    def _sunk(ctx: FileContext, node: ast.AST) -> bool:
        """True when the iteration feeds an order-insensitive sink."""
        parent = ctx.parent(node)
        return (isinstance(node, (ast.SetComp, ast.GeneratorExp))
                and isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in _ORDER_INSENSITIVE_SINKS)
