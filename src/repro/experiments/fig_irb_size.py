"""F7 — IRB size sensitivity.

Sweeps the IRB entry count (direct-mapped) and reports the mean DIE-IRB
IPC loss and reuse rate per size.  The paper settles on 1024 entries; the
curve should show diminishing returns near that point, with
capacity-pressured apps (gcc, vortex — large static footprints)
benefiting the longest.
"""

from __future__ import annotations

from typing import Sequence

from ..reuse import IRBConfig
from .common import DEFAULT_APPS, DEFAULT_N, SIE, Table, build_table

DEFAULT_SIZES = (128, 256, 512, 1024, 2048, 4096)


COLUMNS = [
    ("mean loss %", lambda run, size: run.loss(size)),
    ("mean reuse", lambda run, size: run.stats(size).irb_reuse_rate),
]


def run(
    apps: Sequence[str] = DEFAULT_APPS,
    n_insts: int = DEFAULT_N,
    seed: int = 1,
    sizes: Sequence[int] = DEFAULT_SIZES,
) -> Table:
    """Sweep IRB entry counts for every application."""
    models = [SIE] + [(s, "die-irb", None, IRBConfig(entries=s)) for s in sizes]
    return build_table(
        "F7: IRB size sensitivity (direct-mapped)",
        models,
        COLUMNS,
        apps,
        n_insts,
        seed,
        sweep=("entries", sizes),
    )
