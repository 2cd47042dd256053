"""F6 — IRB PC-hit and reuse rates per application.

The paper cites [29, 35] for the 1024-entry direct-mapped IRB's "fairly
good" hit rates.  This experiment reports, per app: the PC-hit rate of
duplicate-stream lookups, the reuse rate (PC hit AND operand match), the
trace's consecutive-repetition bound the IRB is chasing, and write-port
pressure.
"""

from __future__ import annotations

from typing import Sequence

from ..core import SimStats
from ..simulation import get_trace
from .common import DEFAULT_APPS, DEFAULT_N, AppRun, Table, build_table, plain


def _irb(run: AppRun) -> SimStats:
    return run.stats("die-irb")


COLUMNS = [
    ("lookups", lambda run: _irb(run).irb_lookups),
    ("PC-hit", lambda run: _irb(run).irb_pc_hit_rate),
    ("reuse", lambda run: _irb(run).irb_reuse_rate),
    ("port-starved",
     lambda run: _irb(run).irb_port_starved / max(1, _irb(run).irb_lookups)),
    ("wr-drop", lambda run: _irb(run).irb_write_drops / max(1, _irb(run).irb_writes)),
    ("static PCs",
     lambda run: get_trace(run.app, run.n_insts, run.seed).summary().unique_pcs),
]


def run(
    apps: Sequence[str] = DEFAULT_APPS,
    n_insts: int = DEFAULT_N,
    seed: int = 1,
) -> Table:
    """Measure IRB behaviour for every application under DIE-IRB."""
    return build_table(
        "F6: IRB hit/reuse rates (1024-entry direct-mapped)",
        [plain("die-irb")],
        COLUMNS,
        apps,
        n_insts,
        seed,
    )
