"""F9 — conflict-miss reduction: CTR-guided replacement and associativity.

Section 3.1 promises "a simple mechanism that can possibly reduce conflict
misses in the IRB"; the entry format of Figure 4 carries a CTR field.  We
reconstruct the mechanism as reuse-counter-guided replacement: an entry
that has produced reuse hits defends its (direct-mapped) slot by spending
a counter tick instead of being evicted.  The experiment compares plain
direct-mapped, direct-mapped + CTR, and 2/4-way set-associative IRBs of
equal capacity.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..reuse import IRBConfig
from .common import DEFAULT_APPS, DEFAULT_N, SIE, Table, build_table

#: The compared organisations: key -> (ways, replacement).
VARIANTS: Dict[str, Tuple[int, str]] = {
    "DM": (1, "always"),
    "DM+CTR": (1, "ctr"),
    "2-way": (2, "always"),
    "4-way": (4, "always"),
}


COLUMNS = [
    *((f"reuse {v}", lambda run, v=v: run.stats(v).irb_reuse_rate) for v in VARIANTS),
    *((f"loss% {v}", lambda run, v=v: run.loss(v)) for v in VARIANTS),
]


def run(
    apps: Sequence[str] = DEFAULT_APPS,
    n_insts: int = DEFAULT_N,
    seed: int = 1,
) -> Table:
    """Compare the IRB organisations of :data:`VARIANTS`."""
    models = [SIE] + [
        (key, "die-irb", None, IRBConfig(ways=ways, replacement=replacement))
        for key, (ways, replacement) in VARIANTS.items()
    ]
    return build_table(
        "F9: IRB conflict-miss reduction (1024 entries)",
        models,
        COLUMNS,
        apps,
        n_insts,
        seed,
        average=True,
    )
