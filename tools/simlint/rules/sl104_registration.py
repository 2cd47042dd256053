"""SL104 — model-registration completeness across the three registries.

A pipeline model participates in three places that must stay in sync:

* the simulation registry (``MODELS`` in ``repro.simulation.runner``) —
  name → pipeline class, the single source of truth;
* the fuzz harness's model lists (``REDUNDANT_MODELS`` /
  ``PAIR_CHECKED_MODELS`` in ``repro.validation.harness``) — which
  models the differential campaign exercises and which invariants apply;
* every ``model="..."`` literal — experiment registry entries, campaign
  job schemas, CLI defaults.

PR 5's campaign found a whole model family that was registered but never
fuzzed; this rule makes that class of drift a lint error.  Membership is
derived from the class hierarchy, not from hand-maintained lists: a
registered class whose (inherited) ``STREAMS == 2`` must appear in
``REDUNDANT_MODELS``; one that (transitively) calls the commit checker
must appear in ``PAIR_CHECKED_MODELS``; both lists must be subsets of
the registry; and every model-name literal must be registered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

from ..framework import RuleViolation, SemanticRule, register
from ..semantic.callgraph import CallGraph, ClassKey
from ..semantic.summary import ConstInfo, ModuleSummary

if TYPE_CHECKING:
    from ..engine import SemanticContext

_CHECKER_CALL_SUFFIX = "checker.check"


def _find_consts(
    context: SemanticContext, name: str, kind: str
) -> List[Tuple[ModuleSummary, ConstInfo]]:
    out: List[Tuple[ModuleSummary, ConstInfo]] = []
    for summary in sorted(context.summaries.values(), key=lambda s: s.path):
        for const in summary.constants:
            if const.name == name and const.kind == kind:
                out.append((summary, const))
    return out


@register
class RegistrationRule(SemanticRule):
    id = "SL104"
    summary = "model registry, fuzz-harness lists and model literals out of sync"

    def check_project(self, context: SemanticContext) -> Iterator[RuleViolation]:
        graph = context.graph
        models = _find_consts(context, "MODELS", "dict")
        if not models:
            return  # tree without a model registry: nothing to check
        registered: Dict[str, Tuple[str, int, str]] = {}
        for summary, const in models:
            for key, value, line in const.entries:
                registered[key] = (summary.path, line, value)

        redundant = _find_consts(context, "REDUNDANT_MODELS", "strs")
        checked = _find_consts(context, "PAIR_CHECKED_MODELS", "strs")
        redundant_names = {e[0] for _, c in redundant for e in c.entries}
        checked_names = {e[0] for _, c in checked for e in c.entries}

        # 1. class-derived membership: STREAMS==2 -> REDUNDANT_MODELS,
        #    transitively calls the checker -> PAIR_CHECKED_MODELS.
        for name in sorted(registered):
            path, line, value = registered[name]
            module = context.modgraph.module_of.get(path, "")
            key = graph.resolve_class(module, value)
            if key is None:
                continue
            streams = graph.inherited_int_attr(key, "STREAMS")
            calls_checker = graph.class_calls(key, _CHECKER_CALL_SUFFIX)
            if redundant and streams == 2 and name not in redundant_names:
                r_summary, r_const = redundant[0]
                yield RuleViolation(
                    path=path,
                    line=line,
                    col=0,
                    rule_id=self.id,
                    message=(
                        f"model `{name}` ({value}) runs STREAMS=2 but is "
                        f"missing from REDUNDANT_MODELS "
                        f"({r_summary.path}:{r_const.line}); the fuzz "
                        f"harness will never exercise its redundant mode"
                    ),
                    witness=(
                        (path, line, f"`{name}` registered here as {value}"),
                        (
                            graph.path_of(graph.find_method(key, "__init__"))
                            if graph.find_method(key, "__init__")
                            else path,
                            key_line(graph, key),
                            f"{key[1]} inherits STREAMS == 2",
                        ),
                        (
                            r_summary.path,
                            r_const.line,
                            "REDUNDANT_MODELS defined here, entry missing",
                        ),
                    ),
                )
            if checked and calls_checker and name not in checked_names:
                c_summary, c_const = checked[0]
                yield RuleViolation(
                    path=path,
                    line=line,
                    col=0,
                    rule_id=self.id,
                    message=(
                        f"model `{name}` ({value}) reaches the commit "
                        f"checker but is missing from PAIR_CHECKED_MODELS "
                        f"({c_summary.path}:{c_const.line}); its "
                        f"pair-checking invariants go unvalidated"
                    ),
                    witness=(
                        (path, line, f"`{name}` registered here as {value}"),
                        (
                            path,
                            line,
                            f"{key[1]} (or an ancestor) calls "
                            f"`*.{_CHECKER_CALL_SUFFIX}(...)`",
                        ),
                        (
                            c_summary.path,
                            c_const.line,
                            "PAIR_CHECKED_MODELS defined here, entry missing",
                        ),
                    ),
                )

        # 2. harness lists must be subsets of the registry.
        for label, consts in (
            ("REDUNDANT_MODELS", redundant),
            ("PAIR_CHECKED_MODELS", checked),
        ):
            for summary, const in consts:
                for name, _, line in const.entries:
                    if name not in registered:
                        yield RuleViolation(
                            path=summary.path,
                            line=line,
                            col=0,
                            rule_id=self.id,
                            message=(
                                f"{label} lists `{name}`, which is not a "
                                f"registered model; the harness would crash "
                                f"(or silently skip) at campaign time"
                            ),
                            witness=(
                                (summary.path, line, f"`{name}` listed here"),
                                (
                                    models[0][0].path,
                                    models[0][1].line,
                                    "MODELS registry (no such key)",
                                ),
                            ),
                        )

        # 3. every model-name literal must be registered.
        for summary in sorted(context.summaries.values(), key=lambda s: s.path):
            for literal, line, ctx in summary.model_literals:
                if literal in registered:
                    continue
                yield RuleViolation(
                    path=summary.path,
                    line=line,
                    col=0,
                    rule_id=self.id,
                    message=(
                        f"model literal `{literal}` ({ctx}) is not in the "
                        f"MODELS registry; simulate() would raise KeyError "
                        f"at run time"
                    ),
                    witness=(
                        (summary.path, line, f"`{literal}` referenced here"),
                        (
                            models[0][0].path,
                            models[0][1].line,
                            "MODELS registry (no such key)",
                        ),
                    ),
                )


def key_line(graph: CallGraph, key: ClassKey) -> int:
    cls = graph.classes.get(key)
    return cls.line if cls is not None else 1
