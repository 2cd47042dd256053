"""A3 — IRB access-latency sensitivity.

The paper pipelines the 1024-entry IRB lookup over 3 stages (Cacti 3.2 at
180 nm / 2 GHz) and overlaps it with fetch/decode/dispatch.  This ablation
sweeps the lookup depth to show how much slack that overlap provides: as
long as the lookup finishes inside the front end (depth <= frontend
latency) it is free; beyond that, reuse decisions wait.
"""

from __future__ import annotations

from typing import Sequence

from ..reuse import IRBConfig
from .common import DEFAULT_APPS, DEFAULT_N, SIE, Table, build_table

DEFAULT_LATENCIES = (1, 3, 5, 8, 12)


COLUMNS = [("mean loss %", lambda run, latency: run.loss(latency))]


def run(
    apps: Sequence[str] = DEFAULT_APPS,
    n_insts: int = DEFAULT_N,
    seed: int = 1,
    latencies: Sequence[int] = DEFAULT_LATENCIES,
) -> Table:
    """Sweep the pipelined IRB access depth."""
    models = [SIE] + [
        (v, "die-irb", None, IRBConfig(lookup_latency=v)) for v in latencies
    ]
    return build_table(
        "A3: IRB lookup-latency sensitivity",
        models,
        COLUMNS,
        apps,
        n_insts,
        seed,
        sweep=("lookup cycles", latencies),
    )
