"""Project-wide semantic analysis layer for simlint.

Where the SL0xx rules are per-module and syntactic, the SL1xx series
reasons about the project as a whole:

* :mod:`.modgraph`   — file ↔ dotted-module mapping and the import graph.
* :mod:`.summary`    — one AST pass per module extracting a fact base:
  functions, calls, a small dataflow IR, stats increments, branch
  structure, telemetry emit sites, pragmas and module constants.
* :mod:`.callgraph`  — class hierarchy, attribute-type inference and
  call-site resolution over the summaries.
* :mod:`.taint`      — forward taint propagation over the interprocedural
  supergraph, producing witness paths for each source→sink flow.

Everything downstream of :mod:`.summary` consumes only the summaries,
never the AST.
"""

from .callgraph import CallGraph
from .modgraph import ModuleGraph, module_name_for_path
from .summary import (
    BranchSummary,
    CallSite,
    ClassSummary,
    EmitSite,
    FlowEdge,
    FunctionSummary,
    ModuleSummary,
    PragmaInfo,
    StatIncrement,
    summarize_module,
)
from .taint import TAG_DUP_VALUE, TAG_IRB_VALUE, TaintEngine, TaintFinding

__all__ = [
    "BranchSummary",
    "CallGraph",
    "CallSite",
    "ClassSummary",
    "EmitSite",
    "FlowEdge",
    "FunctionSummary",
    "ModuleGraph",
    "ModuleSummary",
    "PragmaInfo",
    "StatIncrement",
    "TAG_DUP_VALUE",
    "TAG_IRB_VALUE",
    "TaintEngine",
    "TaintFinding",
    "module_name_for_path",
    "summarize_module",
]
