"""Documented exemptions for semantic findings.

A finding is never silently dropped — it is either fixed in
``src/repro`` or pinned here with the rationale that makes it
acceptable, so reviewers see the full list in one place and CI enforces
that nothing else slips through.

Two registries:

* :data:`SANCTIONED_CHANNELS` — the Sphere-of-Replication crossing
  points the *paper* defines.  SL101's taint engine treats sinks inside
  these functions as legal and does not propagate taint through calls
  into them.
* :data:`EXEMPTIONS` — pinned findings for the remaining rules, matched
  by ``(rule id, path suffix, message substring)``.

Unused entries are themselves reported (SL105-style hygiene is folded
into the engine: an exemption that matches nothing fails the run with a
warning in ``--format text`` output) so the registry cannot rot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from .framework import RuleViolation


@dataclass(frozen=True)
class Channel:
    """A sanctioned SoR crossing: ``Class.method`` plus its rationale."""

    qualname: str  # suffix-matched against function qualnames
    rationale: str


@dataclass(frozen=True)
class Exemption:
    """A pinned semantic finding that is acceptable as-is."""

    rule_id: str
    path_suffix: str
    message_contains: str
    rationale: str

    def matches(self, violation: RuleViolation) -> bool:
        return (
            violation.rule_id == self.rule_id
            and violation.path.endswith(self.path_suffix)
            and self.message_contains in violation.message
        )


#: The only places duplicate-stream values may legally meet other state.
SANCTIONED_CHANNELS: Tuple[Channel, ...] = (
    Channel(
        "CommitChecker.check",
        "The commit-time checker is the SoR's defined output comparator: "
        "it must observe both streams' results (Section 2 of the paper).",
    ),
    Channel(
        "DIEIRBPipeline._reuse_complete",
        "IRB reuse delivery: a duplicate instruction that hits in the "
        "Instruction Reuse Buffer receives the buffered result instead "
        "of executing — the IRB-to-duplicate channel is the paper's "
        "bandwidth-reduction mechanism and the value is still verified "
        "by the commit checker downstream.",
    ),
    Channel(
        "DIEPipeline._hook_effective_producer",
        "Memory lives outside the SoR: loads are performed once by the "
        "primary stream and the duplicate observes the primary's access "
        "(single-access memory model), so steering the duplicate to the "
        "primary producer is the defined behaviour, not a leak.",
    ),
)


#: Findings reviewed and pinned rather than fixed.  Keep this list short;
#: every entry needs a rationale a reviewer can check against the paper.
EXEMPTIONS: Tuple[Exemption, ...] = (
    Exemption(
        rule_id="SL103",
        path_suffix="telemetry/record.py",
        message_contains="in repro.telemetry.record.TeeTracer.emit",
        rationale=(
            "TeeTracer is a tracer *implementation*, not a call site: it "
            "only exists when tracing is enabled, and its constructor "
            "filters falsy children, so NULL_TRACER can never appear in "
            "self.tracers.  An identity guard inside the fan-out loop "
            "would be dead code."
        ),
    ),
    Exemption(
        rule_id="SL103",
        path_suffix="telemetry/record.py",
        message_contains="in repro.telemetry.record.replay",
        rationale=(
            "replay() feeds a recorded event stream into an aggregating "
            "tracer offline; it is never on the simulation hot path, and "
            "replaying into NULL_TRACER is a meaningful no-op the caller "
            "may legitimately request."
        ),
    ),
)


def split_exempt(
    violations: List[RuleViolation],
    analyzed_paths: Iterable[str] = (),
) -> Tuple[List[RuleViolation], List[RuleViolation], List[Exemption]]:
    """Partition into (kept, exempted) and report unused exemptions.

    An exemption only counts as *unused* when the file it pins was part
    of this run (some path in ``analyzed_paths`` ends with its suffix):
    a single-file invocation must not declare the rest of the registry
    stale.
    """
    kept: List[RuleViolation] = []
    exempted: List[RuleViolation] = []
    used = set()
    for violation in violations:
        hit = next(
            (e for e in EXEMPTIONS if e.matches(violation)), None
        )
        if hit is not None:
            used.add(hit)
            exempted.append(violation)
        else:
            kept.append(violation)
    paths = tuple(analyzed_paths)
    unused = [
        e
        for e in EXEMPTIONS
        if e not in used and any(p.endswith(e.path_suffix) for p in paths)
    ]
    return kept, exempted, unused
