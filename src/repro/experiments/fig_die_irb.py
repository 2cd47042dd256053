"""F5 — the headline result: DIE-IRB vs SIE / DIE / DIE-2xALU.

Reproduces the paper's central claim (abstract / Section 1): DIE-IRB
"gains back nearly 50% of the IPC loss that occurred due to ALU bandwidth
limitations" — the DIE → DIE-2xALU gap — "and 23% of the overall IPC
loss" — the DIE → SIE gap.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from ..simulation import recovered_fraction
from .common import DEFAULT_APPS, DEFAULT_N, SIE, Table, build_table, plain
from .fig2_resources import config_for


#: Each app's IPCs, losses, and the fractions of the DIE->2xALU
#: (ALU-bandwidth) and DIE->SIE (overall) gaps that DIE-IRB recovers.
COLUMNS = [
    ("SIE", lambda run: run.ipc("sie")),
    ("DIE", lambda run: run.ipc("die")),
    ("DIE-IRB", lambda run: run.ipc("die-irb")),
    ("DIE loss%", lambda run: run.loss("die")),
    ("IRB loss%", lambda run: run.loss("die-irb")),
    ("ALU-rec", lambda run: recovered_fraction(
        run.ipc("die"), run.ipc("die-irb"), run.ipc("die2a"))),
    ("overall-rec", lambda run: recovered_fraction(
        run.ipc("die"), run.ipc("die-irb"), run.ipc("sie"))),
    ("reuse", lambda run: run.stats("die-irb").irb_reuse_rate),
]


def run(
    apps: Sequence[str] = DEFAULT_APPS,
    n_insts: int = DEFAULT_N,
    seed: int = 1,
) -> Table:
    """Measure DIE-IRB against SIE, DIE and the DIE-2xALU bound."""
    table = build_table(
        "F5: DIE-IRB headline result",
        [
            SIE,
            plain("die"),
            ("die2a", "die", config_for("DIE-2xALU"), None),
            plain("die-irb"),
        ],
        COLUMNS,
        apps,
        n_insts,
        seed,
    )
    return replace(table, note=(
        f"\nmean recovery of ALU-bandwidth loss: {table.mean('ALU-rec'):.2f}"
        f"  (paper: ~0.50)\n"
        f"mean recovery of overall loss:       {table.mean('overall-rec'):.2f}"
        f"  (paper: ~0.23)"
    ))
