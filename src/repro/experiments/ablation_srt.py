"""A7 — instruction-level vs thread-level redundancy (intro's contrast).

The paper's introduction separates temporal redundancy into thread-level
(AR-SMT/SRT, "extensively investigated with several promising proposals")
and instruction-level (DIE, "more difficult").  This extension runs an
SRT-style two-context model on the same core: the trailing thread never
mispredicts (branch-outcome queue) and never touches the cache
(load-value queue), while DIE fetches once and duplicates at decode.
Both pay the fundamental 2x execution tax; the experiment shows where
each recovers part of it, and where DIE-IRB lands.
"""

from __future__ import annotations

from typing import Sequence

from .common import DEFAULT_APPS, DEFAULT_N, SIE, Table, build_table, plain

_MODELS = ("die", "srt", "die-irb")
_LABELS = {"die": "DIE", "srt": "SRT", "die-irb": "DIE-IRB"}


COLUMNS = [(_LABELS[m], lambda run, m=m: run.loss(m)) for m in _MODELS]


def run(
    apps: Sequence[str] = DEFAULT_APPS,
    n_insts: int = DEFAULT_N,
    seed: int = 1,
) -> Table:
    """Compare DIE, SRT and DIE-IRB IPC losses on every application."""
    return build_table(
        "A7: instruction-level (DIE) vs thread-level (SRT) redundancy "
        "(% IPC loss vs SIE)",
        [SIE] + [plain(m) for m in _MODELS],
        COLUMNS,
        apps,
        n_insts,
        seed,
        precision=1,
        average=True,
        note=(
            "\nSRT's trailing context never mispredicts and never accesses "
            "the cache, but fetches\nevery instruction again; DIE fetches "
            "once and duplicates at decode.  The IRB attacks\nthe shared "
            "bottleneck both still pay: ALU bandwidth."
        ),
    )
