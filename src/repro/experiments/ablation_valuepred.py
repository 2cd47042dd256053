"""A6 — the road not taken: value prediction instead of reuse.

Section 3.1 notes that IR research "evolved more into the study of value
prediction".  This extension pits the paper's non-speculative IRB against
a stride value predictor serving the duplicate stream (verified against
the primary, so equally safe).  VP can predict *fresh* values — strides,
induction variables — that a reuse buffer can never capture, but its hit
is only confirmed at primary completion and it carries the
confidence/stride machinery the paper's complexity argument resists.
"""

from __future__ import annotations

from typing import Sequence

from .common import DEFAULT_APPS, DEFAULT_N, SIE, Table, build_table, plain


COLUMNS = [
    ("loss% IRB", lambda run: run.loss("die-irb")),
    ("loss% VP", lambda run: run.loss("die-vp")),
    # Fraction of duplicates completed without an ALU.
    ("dup served (IRB)", lambda run: run.stats("die-irb").irb_reuse_hits / run.n_insts),
    ("dup served (VP)", lambda run: run.stats("die-vp").irb_reuse_hits / run.n_insts),
]


def run(
    apps: Sequence[str] = DEFAULT_APPS,
    n_insts: int = DEFAULT_N,
    seed: int = 1,
) -> Table:
    """Compare DIE-IRB and DIE-VP on every application."""
    return build_table(
        "A6: reuse buffer vs value prediction for the duplicate stream",
        [SIE, plain("die-irb"), plain("die-vp")],
        COLUMNS,
        apps,
        n_insts,
        seed,
        average=True,
        note=(
            "\n'dup served' = duplicates completed without an ALU.  VP also "
            "predicts fresh (stride)\nvalues the IRB cannot reuse, at the "
            "cost of the confidence/stride hardware and\nverification that "
            "waits for the primary."
        ),
    )
