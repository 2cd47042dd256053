"""Registry mapping experiment ids to their modules.

Each entry's ``run`` regenerates one table/figure of the paper (or a
reconstruction — see DESIGN.md for the source-text caveat).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType
from typing import Any, Dict

from . import (
    ablation_clustered,
    ablation_forwarding,
    ablation_srt,
    ablation_valuepred,
    ablation_latency,
    ablation_namebased,
    ablation_sie_irb,
    fault_coverage,
    fig2_resources,
    fig_alu_breakdown,
    fig_conflict,
    fig_die_irb,
    fig_irb_hitrate,
    fig_irb_ports,
    fig_irb_size,
    table1_config,
    table2_baseline,
)


@dataclass(frozen=True)
class Experiment:
    """One reproducible artifact of the paper's evaluation."""

    id: str
    title: str
    module: ModuleType
    reconstructed: bool  # True if Section 4's exact form was unavailable
    #: True for experiments that read live pipeline state (T2: cache
    #: hierarchy internals, F11: the fault injector's log) and therefore
    #: bypass the campaign store — they cannot be answered store-only
    #: and `repro serve` refuses them.
    direct: bool = False

    def run(self, *args: Any, **kwargs: Any) -> Any:
        """Regenerate this artifact (in the ambient campaign context, if any)."""
        return self.module.run(*args, **kwargs)


EXPERIMENTS: Dict[str, Experiment] = {
    e.id: e
    for e in (
        Experiment("T1", "Machine configuration", table1_config, True),
        Experiment("T2", "Baseline SIE/DIE characteristics", table2_baseline, True, direct=True),
        Experiment("F2", "Resource-doubling study (Figure 2)", fig2_resources, False),
        Experiment("F5", "DIE-IRB headline recovery", fig_die_irb, True),
        Experiment("F6", "IRB hit/reuse rates", fig_irb_hitrate, True),
        Experiment("F7", "IRB size sensitivity", fig_irb_size, True),
        Experiment("F8", "IRB read-port sensitivity", fig_irb_ports, True),
        Experiment("F9", "Conflict-miss reduction (CTR)", fig_conflict, True),
        Experiment("F10", "Duplicate-stream service breakdown", fig_alu_breakdown, True),
        Experiment("F11", "Fault-injection coverage (Sec 3.4)", fault_coverage, False, direct=True),
        Experiment("A1", "Value- vs name-based reuse", ablation_namebased, False),
        Experiment("A2", "SIE-IRB prior-work baseline", ablation_sie_irb, False),
        Experiment("A3", "IRB lookup-latency sensitivity", ablation_latency, True),
        Experiment("A4", "Clustered-DIE alternative (postponed in paper)", ablation_clustered, True),
        Experiment("A5", "IRB forwarding ablation (design-point cost)", ablation_forwarding, True),
        Experiment("A6", "Value prediction vs reuse for duplicates", ablation_valuepred, True),
        Experiment("A7", "Instruction-level vs thread-level redundancy", ablation_srt, True),
    )
}


def get_experiment(exp_id: str) -> Experiment:
    """Look up an experiment, with the valid ids in the error message."""
    try:
        return EXPERIMENTS[exp_id.upper()]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; valid: {', '.join(EXPERIMENTS)}"
        ) from None
