"""A1 — value-based vs name-based reuse test (Section 3.3).

The paper notes a name-based IRB (register identifiers + liveness instead
of operand values) is easier to build on a non-data-capture scheduler but
"the hit rates may decrease".  This ablation quantifies that drop.
"""

from __future__ import annotations

from typing import Sequence

from ..reuse import IRBConfig
from .common import DEFAULT_APPS, DEFAULT_N, SIE, Table, build_table


COLUMNS = [
    ("reuse (value)", lambda run: run.stats("value").irb_reuse_rate),
    ("reuse (name)", lambda run: run.stats("name").irb_reuse_rate),
    ("loss% (value)", lambda run: run.loss("value")),
    ("loss% (name)", lambda run: run.loss("name")),
]


def run(
    apps: Sequence[str] = DEFAULT_APPS,
    n_insts: int = DEFAULT_N,
    seed: int = 1,
) -> Table:
    """Compare the two reuse-test schemes on the same workloads."""
    return build_table(
        "A1: value-based vs name-based reuse test",
        [
            SIE,
            ("value", "die-irb", None, IRBConfig(name_based=False)),
            ("name", "die-irb", None, IRBConfig(name_based=True)),
        ],
        COLUMNS,
        apps,
        n_insts,
        seed,
        average=True,
    )
