"""F10 — where duplicate-stream work goes, and ALU pressure relief.

For each application under DIE-IRB: the fraction of duplicate instructions
serviced by the IRB versus the functional units, and the integer-ALU
utilization of DIE versus DIE-IRB — the mechanism by which the IRB
amplifies effective ALU bandwidth without adding ALUs.
"""

from __future__ import annotations

from typing import Sequence

from ..core import MachineConfig
from ..isa import FUClass
from .common import DEFAULT_APPS, DEFAULT_N, AppRun, Table, build_table, plain


#: Both variants run the paper-baseline machine.
_ALUS = MachineConfig.baseline().int_alu


def _dup_via_irb(run: AppRun) -> float:
    """Fraction of duplicates reused (one per architected instruction)."""
    return run.stats("die-irb").irb_reuse_hits / run.n_insts


def _issue_saved(run: AppRun) -> float:
    """Fraction of issue slots the reuse hits did not consume."""
    stats = run.stats("die-irb")
    return stats.irb_reuse_hits / max(1, stats.issued + stats.irb_reuse_hits)


COLUMNS = [
    ("dup via IRB", _dup_via_irb),
    ("dup via FU", lambda run: 1.0 - _dup_via_irb(run)),
    ("ALU util DIE", lambda run: run.stats("die").fu_utilization(FUClass.INT_ALU, _ALUS)),
    ("ALU util DIE-IRB",
     lambda run: run.stats("die-irb").fu_utilization(FUClass.INT_ALU, _ALUS)),
    ("issue saved", _issue_saved),
]


def run(
    apps: Sequence[str] = DEFAULT_APPS,
    n_insts: int = DEFAULT_N,
    seed: int = 1,
) -> Table:
    """Measure duplicate-stream servicing under DIE and DIE-IRB."""
    return build_table(
        "F10: duplicate-stream service breakdown",
        [plain("die"), plain("die-irb")],
        COLUMNS,
        apps,
        n_insts,
        seed,
    )
