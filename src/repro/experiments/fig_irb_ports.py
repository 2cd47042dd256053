"""F8 — IRB read-port sensitivity.

Section 3.2 argues that modest port counts (4R/2W/2RW) suffice because
only the duplicate stream probes the IRB and the effective dispatch width
of DIE is half of SIE's.  This sweep varies the read-port count and
reports the starvation fraction and mean IPC loss.
"""

from __future__ import annotations

from typing import Sequence

from ..reuse import IRBConfig
from .common import DEFAULT_APPS, DEFAULT_N, SIE, Table, build_table

DEFAULT_PORTS = (1, 2, 4, 6, 8)


COLUMNS = [
    ("mean loss %", lambda run, p: run.loss(p)),
    ("starved frac", lambda run, p: run.stats(p).irb_port_starved
     / max(1, run.stats(p).irb_lookups)),
]


def run(
    apps: Sequence[str] = DEFAULT_APPS,
    n_insts: int = DEFAULT_N,
    seed: int = 1,
    ports: Sequence[int] = DEFAULT_PORTS,
) -> Table:
    """Sweep IRB read-port provisioning."""
    models = [SIE] + [(p, "die-irb", None, IRBConfig(read_ports=p)) for p in ports]
    return build_table(
        "F8: IRB read-port sensitivity (RW ports fixed at 2)",
        models,
        COLUMNS,
        apps,
        n_insts,
        seed,
        sweep=("read ports", ports),
    )
