"""T2 — per-application baseline characteristics and SIE/DIE IPCs.

The paper's benchmark table: each application's dynamic characteristics
on the base machine, with its SIE and DIE IPCs side by side (the paper
quotes art's pair, 0.7316 / 0.4113, in Section 2.2).
"""

from __future__ import annotations

from typing import Sequence

from ..simulation import get_trace
from .common import DEFAULT_APPS, DEFAULT_N, SIE, Table, plain, run_models

HEADERS = (
    "app", "SIE IPC", "DIE IPC", "loss%", "br-MPKI", "L1D miss", "L2 miss", "reuse-bound",
)


def run(
    apps: Sequence[str] = DEFAULT_APPS,
    n_insts: int = DEFAULT_N,
    seed: int = 1,
) -> Table:
    """Measure baseline SIE/DIE behaviour for every application."""
    body = []
    for app in apps:
        runs = run_models(app, [SIE, plain("die")], n_insts=n_insts, seed=seed)
        sie = runs.results["sie"]
        hier = sie.pipeline.hier
        body.append(
            (
                app,
                sie.ipc,
                runs.ipc("die"),
                runs.loss("die"),
                1000.0 * sie.stats.mispredicts / n_insts,
                hier.l1d.stats.miss_rate,
                hier.l2.stats.miss_rate,
                get_trace(app, n_insts, seed).summary().value_repetition,
            )
        )
    return Table("T2: baseline characteristics (SIE vs DIE)", HEADERS, tuple(body))
