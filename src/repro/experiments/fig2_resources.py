"""F2 — Figure 2: % IPC loss vs SIE for DIE and resource-doubled DIEs.

The motivating study of Section 2.2: the base DIE plus the seven
configurations that double the ALUs, the RUU/LSQ, the widths, and their
combinations.  The paper's anchors: base DIE loses ~22% on average
(1% for ammp, ~43% for art), and doubling ALUs recovers the most (13%
average remaining loss, vs 16% for 2xRUU and 21% for 2xWidths).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..core import MachineConfig
from .common import DEFAULT_APPS, DEFAULT_N, SIE, Table, build_table

#: (ALU, RUU/LSQ, widths) scale of each Figure 2 bar, in presentation order.
_SCALES: Dict[str, Tuple[int, int, int]] = {
    "DIE": (1, 1, 1),
    "DIE-2xALU": (2, 1, 1),
    "DIE-2xRUU": (1, 2, 1),
    "DIE-2xWidths": (1, 1, 2),
    "DIE-2xALU-2xRUU": (2, 2, 1),
    "DIE-2xALU-2xWidths": (2, 1, 2),
    "DIE-2xRUU-2xWidths": (1, 2, 2),
    "DIE-2xALU-2xRUU-2xWidths": (2, 2, 2),
}

#: The eight configurations of Figure 2, in presentation order.
CONFIG_KEYS: Tuple[str, ...] = tuple(_SCALES)


def config_for(key: str) -> MachineConfig:
    """Machine configuration for one Figure 2 bar."""
    alu, ruu, widths = _SCALES[key]
    return MachineConfig.baseline().scaled(alu=alu, ruu=ruu, widths=widths)


#: One column per configuration: its % IPC loss vs SIE.
COLUMNS = [
    (key.replace("DIE-", ""), lambda run, key=key: run.loss(key))
    for key in CONFIG_KEYS
]


def run(
    apps: Sequence[str] = DEFAULT_APPS,
    n_insts: int = DEFAULT_N,
    seed: int = 1,
) -> Table:
    """Reproduce Figure 2 over ``apps``."""
    models = [SIE] + [(key, "die", config_for(key), None) for key in CONFIG_KEYS]
    return build_table(
        "F2: % IPC loss vs SIE (Figure 2)",
        models,
        COLUMNS,
        apps,
        n_insts,
        seed,
        precision=1,
        average=True,
    )
