"""A4 — clustered DIE vs DIE-IRB (the comparison the paper postponed).

Section 3 dismisses clustering qualitatively: a split cluster halves
per-stream ILP and pays inter-cluster communication; a replicated cluster
is spatial redundancy by another name.  This extension experiment runs
both cluster variants against DIE-IRB so the argument has numbers.
"""

from __future__ import annotations

from typing import Sequence

from .common import DEFAULT_APPS, DEFAULT_N, SIE, Table, build_table, plain

_MODELS = ("die", "die-cluster-split", "die-cluster-repl", "die-irb")
_LABELS = {
    "die": "DIE",
    "die-cluster-split": "Cluster/2",
    "die-cluster-repl": "Cluster x2",
    "die-irb": "DIE-IRB",
}


COLUMNS = [(_LABELS[m], lambda run, m=m: run.loss(m)) for m in _MODELS]


def run(
    apps: Sequence[str] = DEFAULT_APPS,
    n_insts: int = DEFAULT_N,
    seed: int = 1,
) -> Table:
    """Compare base DIE, both cluster variants, and DIE-IRB."""
    return build_table(
        "A4: clustered DIE alternatives vs DIE-IRB (% IPC loss vs SIE)",
        [SIE] + [plain(m) for m in _MODELS],
        COLUMNS,
        apps,
        n_insts,
        seed,
        precision=1,
        average=True,
        note=(
            "\nCluster/2 splits the baseline FUs+issue between the streams; "
            "Cluster x2 replicates the full\ncomplement per stream (spatial-"
            "redundancy-like).  DIE-IRB spends neither the issue logic\n"
            "nor the transistors."
        ),
    )
