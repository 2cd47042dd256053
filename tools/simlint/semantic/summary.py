"""Per-module fact extraction: one AST pass → a summary.

The summary is the *only* thing the project-level analyses read; they
never walk the AST themselves.

Facts extracted per function:

* **call sites** — callee expression text (``self._retire``,
  ``checker.check``, ``f``) with per-argument dataflow nodes;
* **dataflow IR** — a small flow graph over locals, call results,
  attribute reads (with the attribute name as an edge transform),
  returns, taint sources (``.pair`` / ``.irb_entry`` reads, ``IRBEntry``
  params) and sinks (stores to ``.result`` / ``.mem_addr``);
* **stats increments** — ``<...>.stats.X += ...`` bumps (and ``self.X``
  stores inside ``*Stats`` classes) with line numbers;
* **branch structure** — flattened if/elif/else chains with each arm's
  direct increments, call sites and terminator, for path-completeness
  checking;
* **telemetry emit sites** — every ``*.emit(...)`` and typed
  ``*.emit_<kind>(...)`` call on a tracer receiver, with the strongest
  dominating guard (identity vs truthiness vs none).

Plus per module: the import map, class summaries (bases, int class
attributes, ``self.X = Cls(...)`` attribute types), module-level
constants in *model-registry shape* (str-keyed dicts, str tuples),
``model=`` literals, and suppression pragmas.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .modgraph import module_name_for_path, resolve_relative

#: Attribute stores treated as architectural-state sinks (SL101).
SINK_ATTRS = ("result", "mem_addr")

#: Attribute reads that taint their result as a cross-stream object.
PAIR_ATTR = "pair"
IRB_ENTRY_ATTR = "irb_entry"

#: Value-carrying attributes of a cross-stream object.
PAIR_VALUE_ATTRS = ("result", "mem_addr")
PAIR_VALUE_METHODS = ("output",)

#: Value-carrying attribute of an IRB entry.
IRB_VALUE_ATTRS = ("result",)

#: Parameter annotations that type a value as an IRB entry.
IRB_ENTRY_TYPES = ("IRBEntry",)


@dataclass
class FlowEdge:
    """One dataflow edge: value at ``src`` reaches ``dst`` at ``line``.

    ``transform`` is ``""`` for plain flow, ``"attr:<name>"`` for an
    attribute read of the source object, ``"method:<name>"`` for a
    method-call result on the source object.
    """

    src: str
    dst: str
    line: int
    transform: str = ""


@dataclass
class CallSite:
    """One call expression inside a function body."""

    index: int
    callee: str  # dotted source text: "self._retire", "checker.check", "f"
    line: int
    nargs: int
    keywords: Tuple[str, ...] = ()


@dataclass
class StatIncrement:
    """One statistics-counter bump."""

    counter: str
    line: int


@dataclass
class EmitSite:
    """One telemetry ``emit``/``emit_*`` call with its strongest dominating guard."""

    line: int
    guard: str  # "identity" | "truthiness" | "none"
    receiver: str


@dataclass
class ArmSummary:
    """One arm of a flattened if/elif/else chain."""

    kind: str  # "if" | "elif" | "else"
    line: int  # header line of the arm
    stat_incs: List[StatIncrement] = field(default_factory=list)
    call_indices: List[int] = field(default_factory=list)
    terminator: str = ""  # "return" | "raise" | "continue" | "break" | ""


@dataclass
class BranchSummary:
    """One if/elif/else chain (elif nesting flattened into arms)."""

    line: int
    arms: List[ArmSummary] = field(default_factory=list)
    has_else: bool = False


@dataclass
class FunctionSummary:
    """Everything the project-level analyses need about one function."""

    qualname: str  # "<module>.<Class>.<name>" or "<module>.<name>"
    name: str
    cls: str  # declaring class name, "" for module-level functions
    line: int
    params: List[str] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    flows: List[FlowEdge] = field(default_factory=list)
    #: (node, tag, line, source text) taint seeds
    sources: List[Tuple[str, str, int, str]] = field(default_factory=list)
    #: (node, kind, line, sink text) taint sinks
    sinks: List[Tuple[str, str, int, str]] = field(default_factory=list)
    stat_incs: List[StatIncrement] = field(default_factory=list)
    branches: List[BranchSummary] = field(default_factory=list)
    emits: List[EmitSite] = field(default_factory=list)


@dataclass
class ClassSummary:
    """Declared shape of one class (any class, not just dataclasses)."""

    name: str
    line: int
    bases: List[str] = field(default_factory=list)  # dotted source text
    int_attrs: Dict[str, int] = field(default_factory=dict)
    methods: List[str] = field(default_factory=list)
    #: ``self.X = ClassName(...)`` bindings seen in any method body.
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class PragmaInfo:
    """One ``# simlint: disable...`` pragma occurrence."""

    line: int
    kind: str  # "disable" | "disable-file"
    rules: Tuple[str, ...]  # ("*",) for a bare disable


@dataclass
class ConstInfo:
    """A module-level constant in model-registry shape."""

    name: str
    kind: str  # "dict" (str keys -> name exprs) | "strs" (tuple/list of str)
    line: int
    #: dict: [(key, value expression text, line)]; strs: [(item, "", line)]
    entries: List[Tuple[str, str, int]] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """The complete fact base for one module."""

    path: str
    module: str
    imports: Dict[str, str] = field(default_factory=dict)  # alias -> dotted
    functions: List[FunctionSummary] = field(default_factory=list)
    classes: List[ClassSummary] = field(default_factory=list)
    constants: List[ConstInfo] = field(default_factory=list)
    #: ``model="..."`` keyword literals and model-position literals:
    #: (literal, line, context) with context "kwarg" | "positional" | "field"
    model_literals: List[Tuple[str, int, str]] = field(default_factory=list)
    pragmas: List[PragmaInfo] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _dotted(node: ast.expr) -> str:
    """Source text of a Name/Attribute chain; "" when not a plain chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    return ""


def _annotation_name(node: Optional[ast.expr]) -> str:
    """Rightmost identifier of an annotation (``Optional[IRBEntry]`` →
    handled by scanning for known names upstream)."""
    if node is None:
        return ""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split(".")[-1].strip("[]")
    if isinstance(node, ast.Subscript):  # Optional[X] / List[X]
        return _annotation_name(node.slice)
    return ""


def _terminator(stmts: Sequence[ast.stmt]) -> str:
    if not stmts:
        return ""
    last = stmts[-1]
    if isinstance(last, ast.Return):
        return "return"
    if isinstance(last, ast.Raise):
        return "raise"
    if isinstance(last, ast.Continue):
        return "continue"
    if isinstance(last, ast.Break):
        return "break"
    return ""


class _FunctionExtractor(ast.NodeVisitor):
    """Builds one :class:`FunctionSummary` from a function body."""

    def __init__(self, qualname: str, name: str, cls: str, node: ast.AST) -> None:
        self.fn = FunctionSummary(qualname=qualname, name=name, cls=cls, line=node.lineno)  # type: ignore[attr-defined]
        self._expr_counter = 0
        #: locals assigned from an identity test against NULL_TRACER
        self._identity_aliases: Set[str] = set()
        #: guard levels active for the statement being visited
        self._guards: List[str] = []
        self._arm_stack: List[ArmSummary] = []
        self._in_stats_class = cls.endswith("Stats")

    # -- node helpers ---------------------------------------------------

    def _fresh(self) -> str:
        self._expr_counter += 1
        return f"expr:{self._expr_counter}"

    def _edge(self, src: str, dst: str, line: int, transform: str = "") -> None:
        self.fn.flows.append(FlowEdge(src, dst, line, transform))

    def _source(self, node_id: str, tag: str, line: int, text: str) -> None:
        self.fn.sources.append((node_id, tag, line, text))

    def _sink(self, node_id: str, kind: str, line: int, text: str) -> None:
        self.fn.sinks.append((node_id, kind, line, text))

    # -- expression evaluation: returns the dataflow node for the value --

    def eval_expr(self, node: ast.expr) -> str:
        line = getattr(node, "lineno", self.fn.line)
        if isinstance(node, ast.Name):
            return f"local:{node.id}"
        if isinstance(node, ast.Attribute):
            target = self._fresh()
            base = self.eval_expr(node.value)
            if node.attr == PAIR_ATTR:
                self._source(target, "pair_obj", line, f"{ast.unparse(node)}")
            elif node.attr == IRB_ENTRY_ATTR:
                self._source(target, "irb_obj", line, f"{ast.unparse(node)}")
            self._edge(base, target, line, f"attr:{node.attr}")
            return target
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, (ast.BinOp,)):
            target = self._fresh()
            self._edge(self.eval_expr(node.left), target, line)
            self._edge(self.eval_expr(node.right), target, line)
            return target
        if isinstance(node, ast.BoolOp):
            target = self._fresh()
            for value in node.values:
                self._edge(self.eval_expr(value), target, line)
            return target
        if isinstance(node, ast.IfExp):
            target = self._fresh()
            self._edge(self.eval_expr(node.body), target, line)
            self._edge(self.eval_expr(node.orelse), target, line)
            self.eval_expr(node.test)
            return target
        if isinstance(node, ast.Subscript):
            target = self._fresh()
            self._edge(self.eval_expr(node.value), target, line)
            if isinstance(node.slice, ast.expr):
                self.eval_expr(node.slice)
            return target
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            target = self._fresh()
            for element in node.elts:
                self._edge(self.eval_expr(element), target, line)
            return target
        if isinstance(node, ast.Starred):
            return self.eval_expr(node.value)
        if isinstance(node, ast.UnaryOp):
            return self.eval_expr(node.operand)
        if isinstance(node, ast.Compare):
            # Comparisons yield booleans, not values: no taint flows out
            # (cross-stream comparisons are SL004's syntactic territory).
            self.eval_expr(node.left)
            for comparator in node.comparators:
                self.eval_expr(comparator)
            return self._fresh()
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            target = self._fresh()
            for generator in node.generators:
                self._edge(self.eval_expr(generator.iter), target, line)
            return target
        if isinstance(node, ast.DictComp):
            target = self._fresh()
            for generator in node.generators:
                self._edge(self.eval_expr(generator.iter), target, line)
            return target
        if isinstance(node, ast.Dict):
            target = self._fresh()
            for value in node.values:
                if value is not None:
                    self._edge(self.eval_expr(value), target, line)
            return target
        if isinstance(node, ast.Lambda):
            return self._fresh()
        # Constants and anything else: a fresh, untainted node.
        return self._fresh()

    def _eval_call(self, node: ast.Call) -> str:
        line = node.lineno
        callee = _dotted(node.func)
        index = len(self.fn.calls)
        keywords = tuple(kw.arg for kw in node.keywords if kw.arg)
        self.fn.calls.append(
            CallSite(index, callee or "<dynamic>", line, len(node.args), keywords)
        )
        result = f"call:{index}"
        for pos, arg in enumerate(node.args):
            self._edge(self.eval_expr(arg), f"arg:{index}:{pos}", line)
        for kw in node.keywords:
            if kw.arg:
                self._edge(self.eval_expr(kw.value), f"arg:{index}:k={kw.arg}", line)
            else:
                self.eval_expr(kw.value)
        # Method-call result on an object: the transform lets the taint
        # engine turn pair_obj --method:output--> into a duplicate value.
        if isinstance(node.func, ast.Attribute):
            receiver = self.eval_expr(node.func.value)
            self._edge(receiver, result, line, f"method:{node.func.attr}")
            if node.func.attr == "emit" or node.func.attr.startswith("emit_"):
                self._record_emit(node, line)
        # Stats bumps via dict-backed helper methods count as increments.
        if callee and self._is_stats_chain(callee.rsplit(".", 1)[0]) and "." in callee:
            method = callee.rsplit(".", 1)[1]
            if method.startswith("count_"):
                self.fn.stat_incs.append(StatIncrement(method, line))
                self._record_arm_inc(StatIncrement(method, line))
        return result

    # -- statements -----------------------------------------------------

    def visit_body(self, stmts: Sequence[ast.stmt]) -> None:
        extra_guards = 0
        for stmt in stmts:
            self.visit_stmt(stmt)
            guard = self._early_exit_guard(stmt)
            if guard:
                # ``if tracer is NULL_TRACER: return`` dominates the rest
                # of this suite with an identity guard (ditto truthiness).
                self._guards.append(guard)
                extra_guards += 1
        for _ in range(extra_guards):
            self._guards.pop()

    def _early_exit_guard(self, stmt: ast.stmt) -> str:
        if not isinstance(stmt, ast.If) or stmt.orelse:
            return ""
        if _terminator(stmt.body) not in ("return", "raise", "continue", "break"):
            return ""
        test = stmt.test
        # `if X is NULL_TRACER: return`
        if self._is_null_identity(test, isnot=False):
            return "identity"
        # `if not tracer: return`
        if (
            isinstance(test, ast.UnaryOp)
            and isinstance(test.op, ast.Not)
            and self._mentions_tracer(test.operand)
        ):
            return "truthiness"
        return ""

    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self._visit_if(stmt)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._visit_assign(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._edge(self.eval_expr(stmt.value), "ret", stmt.lineno)
        elif isinstance(stmt, ast.Expr):
            self.eval_expr(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_node = self.eval_expr(stmt.iter)
            target = stmt.target
            if isinstance(target, ast.Name):
                self._edge(iter_node, f"local:{target.id}", stmt.lineno)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        self._edge(iter_node, f"local:{element.id}", stmt.lineno)
            self.visit_body(stmt.body)
            self.visit_body(stmt.orelse)
        elif isinstance(stmt, (ast.While,)):
            self.eval_expr(stmt.test)
            self.visit_body(stmt.body)
            self.visit_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                ctx = self.eval_expr(item.context_expr)
                if item.optional_vars is not None and isinstance(
                    item.optional_vars, ast.Name
                ):
                    self._edge(ctx, f"local:{item.optional_vars.id}", stmt.lineno)
            self.visit_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.visit_body(stmt.body)
            for handler in stmt.handlers:
                self.visit_body(handler.body)
            self.visit_body(stmt.orelse)
            self.visit_body(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise,)):
            if stmt.exc is not None:
                self.eval_expr(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self.eval_expr(stmt.test)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # nested defs are summarised separately by the module walker
        elif isinstance(stmt, ast.Delete):
            pass
        # Pass/Import/Global/Nonlocal/Expr-less: nothing to extract.

    def _visit_if(self, stmt: ast.If) -> None:
        self.eval_expr(stmt.test)
        branch = BranchSummary(line=stmt.lineno)
        self._flatten_if(stmt, branch, first=True)
        if len(branch.arms) > 1:
            self.fn.branches.append(branch)

    def _flatten_if(self, stmt: ast.If, branch: BranchSummary, first: bool) -> None:
        arm = ArmSummary(
            kind="if" if first else "elif",
            line=stmt.lineno,
            terminator=_terminator(stmt.body),
        )
        branch.arms.append(arm)
        guard = self._classify_guard(stmt.test, negated=False)
        self._enter_arm(arm, guard, stmt.body)
        if not stmt.orelse:
            return
        if len(stmt.orelse) == 1 and isinstance(stmt.orelse[0], ast.If):
            self.eval_expr(stmt.orelse[0].test)
            self._flatten_if(stmt.orelse[0], branch, first=False)
            return
        branch.has_else = True
        else_arm = ArmSummary(
            kind="else",
            line=getattr(stmt.orelse[0], "lineno", stmt.lineno),
            terminator=_terminator(stmt.orelse),
        )
        branch.arms.append(else_arm)
        guard = self._classify_guard(stmt.test, negated=True)
        self._enter_arm(else_arm, guard, stmt.orelse)

    def _enter_arm(self, arm: ArmSummary, guard: str, body: Sequence[ast.stmt]) -> None:
        self._arm_stack.append(arm)
        if guard:
            self._guards.append(guard)
        calls_before = len(self.fn.calls)
        self.visit_body(body)
        arm.call_indices.extend(range(calls_before, len(self.fn.calls)))
        if guard:
            self._guards.pop()
        self._arm_stack.pop()

    # -- guards (SL103) --------------------------------------------------

    def _is_null_identity(self, test: ast.expr, isnot: bool) -> bool:
        """True if ``test`` is ``X is not NULL_TRACER`` (``isnot=True``)
        or ``X is NULL_TRACER`` (``isnot=False``)."""
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return False
        op = test.ops[0]
        names = {_annotation_name(test.left), _annotation_name(test.comparators[0])}
        if "NULL_TRACER" not in names:
            return False
        return isinstance(op, ast.IsNot) if isnot else isinstance(op, ast.Is)

    def _mentions_tracer(self, node: ast.expr) -> bool:
        text = _dotted(node)
        last = text.rsplit(".", 1)[-1] if text else ""
        return "tracer" in last or "tracing" in last

    def _classify_guard(self, test: ast.expr, negated: bool) -> str:
        """Strongest tracer guard this test establishes for the guarded arm.

        ``negated`` means the arm is the *else* branch of the test.
        """
        # X is not NULL_TRACER  (body)  /  X is NULL_TRACER  (else)
        if not negated and self._is_null_identity(test, isnot=True):
            return "identity"
        if negated and self._is_null_identity(test, isnot=False):
            return "identity"
        if negated:
            return ""
        # `if tracing:` where tracing = X is not NULL_TRACER
        if isinstance(test, ast.Name) and test.id in self._identity_aliases:
            return "identity"
        # `if tracing and other:`
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            for value in test.values:
                inner = self._classify_guard(value, negated=False)
                if inner:
                    return inner
        # `if tracer:` — relies on NullTracer.__bool__, flagged by SL103.
        if self._mentions_tracer(test):
            return "truthiness"
        return ""

    def _record_emit(self, node: ast.Call, line: int) -> None:
        assert isinstance(node.func, ast.Attribute)
        receiver = _dotted(node.func.value) or "<expr>"
        last = receiver.rsplit(".", 1)[-1]
        if "tracer" not in last:
            return  # queue.emit(...) etc. — not a telemetry sink
        guard = "none"
        if "identity" in self._guards:
            guard = "identity"
        elif "truthiness" in self._guards:
            guard = "truthiness"
        self.fn.emits.append(EmitSite(line, guard, receiver))

    # -- assignments -----------------------------------------------------

    def _is_stats_chain(self, chain: str) -> bool:
        """True for receivers like ``stats`` / ``self.stats`` / ``x.stats``."""
        return chain.rsplit(".", 1)[-1] == "stats"

    def _record_arm_inc(self, inc: StatIncrement) -> None:
        for arm in self._arm_stack:
            arm.stat_incs.append(inc)

    def _visit_assign(self, stmt: ast.stmt) -> None:
        line = stmt.lineno
        if isinstance(stmt, ast.AugAssign):
            value_node = self.eval_expr(stmt.value)
            target = stmt.target
            if isinstance(target, ast.Name):
                self._edge(value_node, f"local:{target.id}", line)
            elif isinstance(target, ast.Attribute):
                self._store_attr(target, value_node, line, stmt)
            elif isinstance(target, ast.Subscript):
                self._store_subscript(target, value_node, line)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                return
            value_node = self.eval_expr(stmt.value)
            targets: List[ast.expr] = [stmt.target]
        else:
            assert isinstance(stmt, ast.Assign)
            value_node = self.eval_expr(stmt.value)
            # Track `tracing = tracer is not NULL_TRACER` aliases.
            if (
                len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and self._is_null_identity(stmt.value, isnot=True)
            ):
                self._identity_aliases.add(stmt.targets[0].id)
            targets = list(stmt.targets)
        for target in targets:
            self._assign_target(target, value_node, line, stmt)

    def _assign_target(
        self, target: ast.expr, value_node: str, line: int, stmt: ast.stmt
    ) -> None:
        if isinstance(target, ast.Name):
            self._edge(value_node, f"local:{target.id}", line)
        elif isinstance(target, ast.Attribute):
            self._store_attr(target, value_node, line, stmt)
        elif isinstance(target, ast.Subscript):
            self._store_subscript(target, value_node, line)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign_target(element, value_node, line, stmt)

    def _store_attr(
        self, target: ast.Attribute, value_node: str, line: int, stmt: ast.stmt
    ) -> None:
        chain = _dotted(target)
        # Architectural-state sink: a store into <obj>.result / .mem_addr.
        if target.attr in SINK_ATTRS:
            sink = f"sink:{target.attr}:{line}"
            self._sink(sink, target.attr, line, ast.unparse(stmt).split("\n")[0])
            self._edge(value_node, sink, line)
        # Stats bump: <...>.stats.X or self.X inside a *Stats class.
        receiver = chain.rsplit(".", 1)[0] if "." in chain else ""
        is_inc = isinstance(stmt, ast.AugAssign)
        if receiver and self._is_stats_chain(receiver):
            if is_inc or isinstance(stmt, ast.Assign):
                inc = StatIncrement(target.attr, line)
                self.fn.stat_incs.append(inc)
                self._record_arm_inc(inc)
        elif self._in_stats_class and receiver == "self" and is_inc:
            inc = StatIncrement(target.attr, line)
            self.fn.stat_incs.append(inc)
            self._record_arm_inc(inc)
        # Generic attribute store keeps the object's taint visible.
        base = self.eval_expr(target.value)
        self._edge(value_node, base, line, f"store:{target.attr}")

    def _store_subscript(self, target: ast.Subscript, value_node: str, line: int) -> None:
        chain = _dotted(target.value)
        # Dict-backed stats counters: self.fu_issued[fu] += 1 in *Stats.
        if self._in_stats_class and chain.startswith("self."):
            counter = chain.split(".", 1)[1].split(".")[0]
            inc = StatIncrement(counter, line)
            self.fn.stat_incs.append(inc)
            self._record_arm_inc(inc)
        elif "." in chain and self._is_stats_chain(chain.rsplit(".", 1)[0]):
            inc = StatIncrement(chain.rsplit(".", 1)[1], line)
            self.fn.stat_incs.append(inc)
            self._record_arm_inc(inc)
        base = self.eval_expr(target.value)
        self._edge(value_node, base, line)

    # -- entry point ------------------------------------------------------

    def extract(self, node: ast.AST) -> FunctionSummary:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = node.args
        all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        if args.vararg:
            all_args.append(args.vararg)
        if args.kwarg:
            all_args.append(args.kwarg)
        for arg in all_args:
            self.fn.params.append(arg.arg)
            annotation = _annotation_name(arg.annotation)
            if annotation in IRB_ENTRY_TYPES:
                self._source(
                    f"local:{arg.arg}", "irb_obj", node.lineno, f"{arg.arg}: {annotation}"
                )
        self.visit_body(node.body)
        return self.fn


# ---------------------------------------------------------------------------
# Module-level extraction
# ---------------------------------------------------------------------------

import re as _re

#: Pragma syntax; the engine filters findings through the parsed pragmas.
SUPPRESS_RE = _re.compile(
    r"#\s*simlint:\s*(disable-file|disable)\s*(?:=\s*([A-Za-z0-9_,\s]+))?"
)


def _scan_pragmas(source_lines: Sequence[str]) -> List[PragmaInfo]:
    pragmas: List[PragmaInfo] = []
    for lineno, text in enumerate(source_lines, start=1):
        match = SUPPRESS_RE.search(text)
        if not match:
            continue
        kind, spec = match.group(1), match.group(2)
        rules: Tuple[str, ...]
        if spec:
            rules = tuple(
                sorted({item.strip() for item in spec.split(",") if item.strip()})
            )
        else:
            rules = ("*",)
        pragmas.append(PragmaInfo(lineno, kind, rules))
    return pragmas


def _class_summary(node: ast.ClassDef) -> ClassSummary:
    info = ClassSummary(name=node.name, line=node.lineno)
    for base in node.bases:
        text = _dotted(base)
        if text:
            info.bases.append(text)
    for stmt in node.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, int)
            and not isinstance(stmt.value.value, bool)
        ):
            info.int_attrs[stmt.targets[0].id] = stmt.value.value
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods.append(stmt.name)
            _collect_attr_types(stmt, info)
    return info


def _called_class(value: ast.expr) -> str:
    """Class name when ``value`` constructs an instance (directly or via
    the ``x if x is not None else Cls()`` idiom)."""
    if isinstance(value, ast.Call):
        name = _annotation_name(value.func)
        if name[:1].isupper():
            return name
        return ""
    if isinstance(value, ast.IfExp):
        return _called_class(value.body) or _called_class(value.orelse)
    if isinstance(value, ast.BoolOp):  # x or Cls()
        for operand in value.values:
            name = _called_class(operand)
            if name:
                return name
    return ""


def _collect_attr_types(method: ast.stmt, info: ClassSummary) -> None:
    for node in ast.walk(method):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            cls_name = _called_class(node.value)
            if cls_name and target.attr not in info.attr_types:
                info.attr_types[target.attr] = cls_name


def _module_constant(stmt: ast.stmt) -> Optional[ConstInfo]:
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target, value = stmt.targets[0], stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        target, value = stmt.target, stmt.value
    else:
        return None
    if not isinstance(target, ast.Name):
        return None
    if isinstance(value, ast.Dict):
        entries: List[Tuple[str, str, int]] = []
        for key, val in zip(value.keys, value.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                return None
            entries.append((key.value, _dotted(val) or "", key.lineno))
        return ConstInfo(target.id, "dict", stmt.lineno, entries)
    if isinstance(value, (ast.Tuple, ast.List)):
        items: List[Tuple[str, str, int]] = []
        for element in value.elts:
            if not (
                isinstance(element, ast.Constant) and isinstance(element.value, str)
            ):
                return None
            items.append((element.value, "", element.lineno))
        # An empty tuple is still a registry ("no models yet") — SL104
        # must see it to flag classes missing from it.
        return ConstInfo(target.id, "strs", stmt.lineno, items)
    return None


#: Call names whose second positional argument is a timing-model key.
_MODEL_POSITIONAL_CALLS = ("simulate", "run_model")


def _collect_model_literals(tree: ast.Module) -> List[Tuple[str, int, str]]:
    literals: List[Tuple[str, int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                if (
                    kw.arg == "model"
                    and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, str)
                ):
                    literals.append((kw.value.value, kw.value.lineno, "kwarg"))
            name = _annotation_name(node.func)
            if name in _MODEL_POSITIONAL_CALLS and len(node.args) >= 2:
                arg = node.args[1]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    literals.append((arg.value, arg.lineno, "positional"))
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "model"
                    and stmt.value is not None
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)
                ):
                    literals.append((stmt.value.value, stmt.lineno, "field"))
    return literals


def _collect_imports(tree: ast.Module, module: str) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                imports[local] = alias.name if alias.asname else alias.name.split(".")[0]
                # Record the full dotted path too (for the module graph).
                imports.setdefault(f"<import:{alias.name}>", alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = (
                resolve_relative(module, node.level, node.module)
                if node.level
                else (node.module or "")
            )
            for alias in node.names:
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


def summarize_module(
    path: str,
    source: str,
    tree: Optional[ast.Module] = None,
    module: Optional[str] = None,
) -> ModuleSummary:
    """Extract the full fact base for one source file."""
    if tree is None:
        tree = ast.parse(source, filename=path)
    mod_name = module if module is not None else module_name_for_path(path)
    summary = ModuleSummary(path=path, module=mod_name)
    summary.imports = _collect_imports(tree, mod_name)
    summary.model_literals = _collect_model_literals(tree)
    summary.pragmas = _scan_pragmas(source.splitlines())
    for stmt in tree.body:
        constant = _module_constant(stmt)
        if constant is not None:
            summary.constants.append(constant)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            extractor = _FunctionExtractor(
                f"{mod_name}.{stmt.name}", stmt.name, "", stmt
            )
            summary.functions.append(extractor.extract(stmt))
        elif isinstance(stmt, ast.ClassDef):
            summary.classes.append(_class_summary(stmt))
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    extractor = _FunctionExtractor(
                        f"{mod_name}.{stmt.name}.{item.name}",
                        item.name,
                        stmt.name,
                        item,
                    )
                    summary.functions.append(extractor.extract(item))
    return summary
