"""Command-line front end: ``python -m tools.simlint [paths...]``.

Exit status: 0 clean, 1 findings (or stale exemption-registry entries),
2 usage/parse error.

``--explain SLxxx`` prints, after the run, the rule's full rationale and
each of its findings with the complete witness path.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .engine import EngineResult, run_analysis
from .framework import all_rules, get_rule
from .reporters import REPORTERS, render_rule_list


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.simlint",
        description=(
            "Project-wide semantic analysis for the simulator source "
            "(syntactic SL0xx rules plus interprocedural SL1xx rules)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(REPORTERS),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="SL001,SL002,...",
        help="comma-separated rule subset (default: all rules)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="SLxxx",
        help="explain one rule: rationale plus witness path per finding",
    )
    return parser


def _explain(rule_id: str, result: EngineResult) -> str:
    rule = get_rule(rule_id)
    doc_module = sys.modules.get(type(rule).__module__)
    rationale = (doc_module.__doc__ or rule.summary or "").strip()
    lines = [f"{rule.id} — {rule.summary}", "", rationale, ""]
    hits = [v for v in result.violations if v.rule_id == rule_id]
    exempt = [v for v in result.exempted if v.rule_id == rule_id]
    if not hits and not exempt:
        lines.append(f"No {rule_id} findings in the analyzed tree.")
    for violation in hits:
        lines.append(violation.render_witness())
        lines.append("")
    for violation in exempt:
        lines.append(f"[exempted by registry] {violation.render_witness()}")
        lines.append("")
    return "\n".join(lines).rstrip()


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.list_rules:
        print(render_rule_list(all_rules()))
        return 0
    rule_ids = (
        [item.strip() for item in options.rules.split(",") if item.strip()]
        if options.rules
        else None
    )
    try:
        result = run_analysis(options.paths, rule_ids=rule_ids)
    except (FileNotFoundError, KeyError, SyntaxError) as error:
        print(f"simlint: error: {error}", file=sys.stderr)
        return 2
    if result.exempted and options.format == "text":
        print(
            f"simlint: {len(result.exempted)} finding(s) exempted by the "
            f"registry (tools/simlint/exemptions.py)",
            file=sys.stderr,
        )
    for exemption in result.unused_exemptions:
        print(
            f"simlint: stale exemption: {exemption.rule_id} "
            f"{exemption.path_suffix} ({exemption.message_contains!r}) "
            f"matches nothing — remove it from the registry",
            file=sys.stderr,
        )
    try:
        if options.explain:
            print(_explain(options.explain, result))
        else:
            print(REPORTERS[options.format](result.violations))
    except BrokenPipeError:
        # Downstream consumer (e.g. ``| head``) closed the pipe; the
        # findings still determine the exit status.  Point stdout at
        # devnull so the interpreter's shutdown flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if (result.violations or result.unused_exemptions) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
