"""Core machinery shared by every simlint rule.

A rule is a class with an ``id`` (``SLxxx``), a one-line ``summary``, and a
``check_module`` generator that yields :class:`RuleViolation` objects for
one parsed module, given the project-wide :class:`ProjectIndex`.

Suppression:

* ``# simlint: disable=SL001`` (or ``disable=SL001,SL005``) on the
  offending line silences those rules for that line only.
* ``# simlint: disable`` on a line silences every rule for that line.
* ``# simlint: disable-file=SL004`` anywhere in a file silences the rule
  for the whole file (``disable-file`` with no ``=`` silences all rules —
  for generated code only; use sparingly).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from .project import ModuleInfo, ProjectIndex
from .semantic.summary import SUPPRESS_RE as _SUPPRESS_RE

if TYPE_CHECKING:
    from .engine import SemanticContext

#: Sentinel rule-set meaning "every rule".
ALL = "*"

#: One hop of a witness path: (path, line, note).
WitnessHop = Tuple[str, int, str]


@dataclass(frozen=True)
class RuleViolation:
    """One finding: where, which rule, and what went wrong.

    Semantic (SL1xx) findings additionally carry a ``witness`` — the
    chain of (path, line, note) hops that produced the finding, e.g. a
    taint path from a ``.pair`` read down to the offending store.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    witness: Tuple[WitnessHop, ...] = ()

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule_id} {self.message}"

    def render_witness(self) -> str:
        lines = [self.render()]
        for hop_path, hop_line, note in self.witness:
            lines.append(f"    {hop_path}:{hop_line}: {note}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }
        if self.witness:
            out["witness"] = [
                {"path": p, "line": ln, "note": note}
                for p, ln, note in self.witness
            ]
        return out


class Rule:
    """Base class for all simlint rules."""

    id: str = "SL000"
    summary: str = ""
    #: Semantic rules run once over the whole project, not per module.
    semantic: bool = False

    def check_module(
        self, module: ModuleInfo, index: ProjectIndex
    ) -> Iterator[RuleViolation]:
        raise NotImplementedError

    def violation(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> RuleViolation:
        """Build a violation anchored at an AST node."""
        return RuleViolation(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.id,
            message=message,
        )


class SemanticRule(Rule):
    """Base class for the SL1xx project-wide rules.

    Semantic rules run once per analysis over the summarised fact base
    (module summaries, call graph, import graph) in
    :class:`~.engine.SemanticContext`; they never see an AST.
    """

    semantic = True

    def check_module(
        self, module: ModuleInfo, index: ProjectIndex
    ) -> Iterator[RuleViolation]:
        return iter(())

    def check_project(self, context: "SemanticContext") -> Iterator[RuleViolation]:
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not re.fullmatch(r"SL\d{3}", rule_cls.id):
        raise ValueError(f"bad rule id {rule_cls.id!r} (want SLxxx)")
    if rule_cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def _ensure_rules_loaded() -> None:
    # Import for side effects: each rule module registers itself.
    from . import rules  # noqa: F401


def all_rules() -> List[Rule]:
    """Instantiate every registered rule, ordered by id."""
    _ensure_rules_loaded()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    _ensure_rules_loaded()
    try:
        return _REGISTRY[rule_id]()
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


@dataclass
class Suppressions:
    """Per-file suppression state parsed from the source text."""

    by_line: Dict[int, set] = field(default_factory=dict)
    file_wide: set = field(default_factory=set)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        if ALL in self.file_wide or rule_id in self.file_wide:
            return True
        rules = self.by_line.get(line)
        if rules is None:
            return False
        return ALL in rules or rule_id in rules


def parse_suppressions(source_lines: Sequence[str]) -> Suppressions:
    """Extract ``# simlint: disable...`` pragmas from source text."""
    supp = Suppressions()
    for lineno, text in enumerate(source_lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        kind, spec = match.group(1), match.group(2)
        rules = (
            {item.strip() for item in spec.split(",") if item.strip()}
            if spec
            else {ALL}
        )
        if kind == "disable-file":
            supp.file_wide |= rules
        else:
            supp.by_line.setdefault(lineno, set()).update(rules)
    return supp


def run_paths(
    paths: Iterable[str],
    rule_ids: Optional[Sequence[str]] = None,
) -> List[RuleViolation]:
    """Analyze ``paths`` (files or directories) with the selected rules.

    Returns all unsuppressed violations sorted by (path, line, col, rule).
    Thin wrapper over :func:`.engine.run_analysis`, kept for API
    compatibility with simlint v1 callers.
    """
    from .engine import run_analysis

    return run_analysis(paths, rule_ids=rule_ids).violations
