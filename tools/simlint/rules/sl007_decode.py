"""SL007 — no per-cycle opcode re-decode in the timing models.

The decoded-trace layer (``core/decoded.py``) resolves every per-opcode
fact — timing, FU class, memory/branch predicates — exactly once, at
import time for :data:`OP_META` and once per trace for
:class:`DecodedTrace`.  The cycle-level stage methods then read plain
slot attributes (``inst.dec.timing``).  A stray ``op_timing()`` /
``op_latency()`` call inside a stage method silently reverts that work:
the dictionary probe runs again for every dynamic instruction on every
cycle it is considered, and the decoded-trace speedup quietly erodes.

The rule flags any call to ``op_timing`` / ``op_latency`` inside a
function body in the timing-model packages (``core``, ``reuse``,
``redundancy``).  ``core/decoded.py`` is the sanctioned home for decode
resolution and is exempt; module-level calls (building tables once at
import time) are fine everywhere.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import Rule, RuleViolation, register
from ..project import ModuleInfo, ProjectIndex

#: packages whose stage methods run once per cycle
TIMING_MODEL_PACKAGES = {"core", "reuse", "redundancy"}

#: the one module allowed to resolve opcode facts inside the core
DECODE_BASENAME = "decoded.py"

#: the import-time resolvers that must not run per cycle
_DECODE_FUNCS = {"op_timing", "op_latency"}


def _called_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


class _FunctionBodyCalls(ast.NodeVisitor):
    """Collect decode-resolver calls, tagged with their enclosing function."""

    def __init__(self) -> None:
        self.hits: list = []  # (call node, innermost function name)
        self._stack: list = []

    def _visit_function(self, node: "ast.FunctionDef | ast.AsyncFunctionDef") -> None:
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        name = _called_name(node.func)
        if name in _DECODE_FUNCS and self._stack:
            self.hits.append((node, name, self._stack[-1]))
        self.generic_visit(node)


@register
class DecodeOnceRule(Rule):
    id = "SL007"
    summary = "no op_timing()/op_latency() inside per-cycle stage methods"

    def check_module(
        self, module: ModuleInfo, index: ProjectIndex
    ) -> Iterator[RuleViolation]:
        if not (set(module.parts) & TIMING_MODEL_PACKAGES):
            return
        if module.basename == DECODE_BASENAME:
            return
        collector = _FunctionBodyCalls()
        collector.visit(module.tree)
        for node, name, func_name in collector.hits:
            yield self.violation(
                module,
                node,
                f"per-cycle opcode re-decode: `{name}()` inside "
                f"`{func_name}`; read the precomputed "
                f"`OP_META`/`DecodedOp` fields instead",
            )
