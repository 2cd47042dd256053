"""The analysis engine: one serial pass over the analyzed tree.

Each file is read and parsed once.  That one AST feeds both the
cross-module :class:`~.project.ProjectIndex` (dataclass shapes, the
attribute write-set) that the syntactic SL0xx rules consult, and the
:class:`~.semantic.summary.ModuleSummary` fact base that the SL1xx
semantic rules reason over.  The syntactic rules then run per module,
the semantic rules once over the project, and last come pragma
filtering, the unused-suppression rule (SL100) and the exemption
registry.  Findings are sorted, so the report depends only on the
analyzed sources.  A cold run over ``src/repro`` takes about 2 s.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .exemptions import Exemption, SANCTIONED_CHANNELS, split_exempt
from .framework import ALL, RuleViolation, all_rules, get_rule
from .project import ModuleInfo, ProjectIndex, _expand
from .semantic.callgraph import CallGraph
from .semantic.modgraph import ModuleGraph
from .semantic.summary import ModuleSummary, PragmaInfo, summarize_module

SL100 = "SL100"


@dataclass
class SemanticContext:
    """Everything a :class:`~.framework.SemanticRule` may consume."""

    summaries: Dict[str, ModuleSummary]  # dotted module name -> summary
    graph: CallGraph
    modgraph: ModuleGraph
    sanctioned: Tuple[str, ...] = ()

    def summary_for_path(self, path: str) -> Optional[ModuleSummary]:
        for summary in self.summaries.values():
            if summary.path == path:
                return summary
        return None


@dataclass
class EngineResult:
    """Outcome of one analysis run."""

    violations: List[RuleViolation]
    exempted: List[RuleViolation] = field(default_factory=list)
    unused_exemptions: List[Exemption] = field(default_factory=list)
    files: List[str] = field(default_factory=list)


# -- suppression accounting --------------------------------------------------


class _PragmaLedger:
    """Per-file suppression filter that records which pragma entries fire."""

    def __init__(self, pragmas: Sequence[PragmaInfo]) -> None:
        self.pragmas = list(pragmas)
        self.used: Set[Tuple[int, str]] = set()  # (pragma index, rule token)

    def _match(self, idx: int, pragma: PragmaInfo, rule_id: str) -> bool:
        token = None
        if ALL in pragma.rules:
            token = ALL
        elif rule_id in pragma.rules:
            token = rule_id
        if token is None:
            return False
        self.used.add((idx, token))
        return True

    def suppresses(self, violation: RuleViolation) -> bool:
        hit = False
        for idx, pragma in enumerate(self.pragmas):
            if pragma.kind == "disable-file":
                hit = self._match(idx, pragma, violation.rule_id) or hit
            elif pragma.line == violation.line:
                hit = self._match(idx, pragma, violation.rule_id) or hit
        return hit

    def unused_findings(self, path: str) -> List[RuleViolation]:
        out: List[RuleViolation] = []
        for idx, pragma in enumerate(self.pragmas):
            for token in pragma.rules:
                if (idx, token) in self.used:
                    continue
                what = (
                    "suppresses no finding of any rule"
                    if token == ALL
                    else f"suppresses no {token} finding"
                )
                scope = "file-wide " if pragma.kind == "disable-file" else ""
                out.append(
                    RuleViolation(
                        path=path,
                        line=pragma.line,
                        col=0,
                        rule_id=SL100,
                        message=(
                            f"unused {scope}suppression: this pragma {what}; "
                            f"remove it or narrow the rule list"
                        ),
                    )
                )
        return out


# -- the engine --------------------------------------------------------------


def run_analysis(
    paths: Iterable[str],
    rule_ids: Optional[Sequence[str]] = None,
) -> EngineResult:
    """Analyze ``paths`` and return deterministic, sorted findings."""
    files = _expand(paths)
    modules: List[ModuleInfo] = []
    summaries: Dict[str, ModuleSummary] = {}
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        module = ModuleInfo(path, ast.parse(source, filename=path))
        modules.append(module)
        summary = summarize_module(path, source, tree=module.tree)
        summaries[summary.module] = summary
    index = ProjectIndex.build(modules)

    # -- rule selection --------------------------------------------------
    selected = [get_rule(rule_id) for rule_id in rule_ids] if rule_ids else all_rules()
    want_sl100 = any(r.id == SL100 for r in selected)
    # SL100 (unused suppression) is only meaningful against the findings
    # of *every* rule: a pragma is "used" if any rule it names would have
    # fired.  So a selection that includes SL100 computes the full set
    # and filters the report afterwards.
    rules = all_rules() if want_sl100 else selected
    selected_ids = {r.id for r in selected}
    syntactic = [r for r in rules if not r.semantic]
    semantic = [r for r in rules if r.semantic and r.id != SL100]

    # -- syntactic rules, per module ----------------------------------------
    raw_by_path: Dict[str, List[RuleViolation]] = {
        module.path: [
            violation
            for rule in syntactic
            for violation in rule.check_module(module, index)
        ]
        for module in modules
    }

    # -- semantic rules, once over the project ------------------------------
    context = SemanticContext(
        summaries=summaries,
        graph=CallGraph(summaries),
        modgraph=ModuleGraph.build(
            [(s.path, s.module, s.imports) for s in summaries.values()]
        ),
        sanctioned=tuple(c.qualname for c in SANCTIONED_CHANNELS),
    )
    for rule in semantic:
        for violation in rule.check_project(context):
            raw_by_path.setdefault(violation.path, []).append(violation)

    # -- suppression filtering + SL100 ----------------------------------
    pragmas_by_path: Dict[str, List[PragmaInfo]] = {
        summary.path: summary.pragmas for summary in summaries.values()
    }
    filtered: List[RuleViolation] = []
    for path in sorted(raw_by_path):
        ledger = _PragmaLedger(pragmas_by_path.get(path, []))
        for violation in raw_by_path[path]:
            if not ledger.suppresses(violation):
                filtered.append(violation)
        if want_sl100:
            for finding in ledger.unused_findings(path):
                # SL100 findings honour suppression too (a pragma line may
                # carry its own ``disable=SL100``); usage of that marker is
                # deliberately not re-counted — one pass, no fixpoint.
                if not ledger.suppresses(finding):
                    filtered.append(finding)

    filtered = [v for v in filtered if v.rule_id in selected_ids]
    kept, exempted, unused = split_exempt(filtered, files)
    if rule_ids is not None:
        # A subset run cannot prove a registry entry stale.
        unused = []
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    exempted.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return EngineResult(
        violations=kept, exempted=exempted, unused_exemptions=unused, files=files
    )
