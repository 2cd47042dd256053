"""SL104 — every model-name literal names a registered model.

The simulation registry (``MODELS`` in ``repro.simulation.runner``) maps
name → pipeline class and is the single source of truth.  Everything
else that enumerates models derives from it: the fuzz harness's
two-stream list is ``cls.STREAMS == 2`` over ``MODELS`` and the IRB
predicate is ``issubclass(cls, IRBFrontEnd)``, so a registered model
cannot be missed by either.  What a derivation cannot cover is a model
*name* typed at a use site — experiment registry entries, campaign job
schemas, CLI defaults — so every ``model="..."`` literal must be a
registry key.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..framework import RuleViolation, SemanticRule, register

if TYPE_CHECKING:
    from ..engine import SemanticContext


@register
class RegistrationRule(SemanticRule):
    id = "SL104"
    summary = "model-name literal not in the MODELS registry"

    def check_project(self, context: SemanticContext) -> Iterator[RuleViolation]:
        summaries = sorted(context.summaries.values(), key=lambda s: s.path)
        models = [
            (summary, const)
            for summary in summaries
            for const in summary.constants
            if const.name == "MODELS"
        ]
        if not models:
            return  # tree without a model registry: nothing to check
        registered = {key for _, const in models for key in const.keys}
        registry_path, registry_line = models[0][0].path, models[0][1].line
        for summary in summaries:
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
                            registry_path,
                            registry_line,
                            "MODELS registry (no such key)",
                        ),
                    ),
                )
