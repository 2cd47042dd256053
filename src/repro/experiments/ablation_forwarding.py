"""A5 — what would IRB result-forwarding have bought? (Section 3.3).

The paper's complexity-effectiveness rests on *not* forwarding IRB
results into the issue window (no extra buses/comparators), waking both
streams from primary results instead.  This ablation runs the forwarding
variant — duplicates wake from their own stream, so early reuse
completions propagate — and reports the IPC difference the paper forgoes.
"""

from __future__ import annotations

from typing import Sequence

from .common import DEFAULT_APPS, DEFAULT_N, SIE, Table, build_table, plain


COLUMNS = [
    ("loss% (no fwd)", lambda run: run.loss("die-irb")),
    ("loss% (fwd)", lambda run: run.loss("die-irb-fwd")),
    # Points of IPC loss forwarding would have saved.
    ("forgone (pts)", lambda run: run.loss("die-irb") - run.loss("die-irb-fwd")),
]


def run(
    apps: Sequence[str] = DEFAULT_APPS,
    n_insts: int = DEFAULT_N,
    seed: int = 1,
) -> Table:
    """Compare DIE-IRB with and without IRB result forwarding."""
    return build_table(
        "A5: IRB forwarding ablation (Section 3.3 design point)",
        [SIE, plain("die-irb"), plain("die-irb-fwd")],
        COLUMNS,
        apps,
        n_insts,
        seed,
        precision=1,
        average=True,
        note=(
            "\nThe 'forgone' column is the IPC-loss reduction the paper "
            "trades away to avoid extra\nresult buses and wakeup "
            "comparators in every issue-window slot."
        ),
    )
