"""A2 — the prior-work baseline: classic instruction reuse on SIE [29].

Citron et al. [12] found that IR helps a balanced single-stream core only
for long-latency operations — the core is not ALU-bandwidth-bound, so
reuse of single-cycle ops buys little.  The same IRB attached to a DIE
core attacks a real bandwidth shortage.  This ablation shows the speedup
an identical IRB delivers in each setting.
"""

from __future__ import annotations

from typing import Sequence

from .common import DEFAULT_APPS, DEFAULT_N, SIE, Table, build_table, plain


COLUMNS = [
    ("SIE-IRB speedup", lambda run: run.ipc("sie-irb") / run.ipc("sie")),
    ("DIE-IRB speedup", lambda run: run.ipc("die-irb") / run.ipc("die")),
    ("reuse (SIE)", lambda run: run.stats("sie-irb").irb_reuse_rate),
    ("reuse (DIE)", lambda run: run.stats("die-irb").irb_reuse_rate),
]


def run(
    apps: Sequence[str] = DEFAULT_APPS,
    n_insts: int = DEFAULT_N,
    seed: int = 1,
) -> Table:
    """Measure IRB speedup on SIE and on DIE for every application."""
    return build_table(
        "A2: the same IRB on SIE vs on DIE",
        [SIE, plain("sie-irb"), plain("die"), plain("die-irb")],
        COLUMNS,
        apps,
        n_insts,
        seed,
        precision=3,
        average=True,
    )
