"""F11 — fault-injection coverage (Section 3.4, made executable).

One transient fault is injected per simulation run, and the commit-stage
checker's mismatch counter attributes detection unambiguously.  Scenarios:

* ``exec_primary`` / ``exec_dup`` — FU strike on one copy: the pair check
  must catch every one.
* ``forward_single`` — a strike on one stream's copy of a forwarded
  operand: the affected consumer's pair check catches it.
* ``forward_both`` — DIE-IRB's shared forwarding fans the same bad value
  to both streams: the pair check *cannot* see it (the paper's conceded
  escape, Figure 6(c)); coverage here is expected to be zero, with
  probability of occurrence comparable to base DIE's own escapes.
* ``irb_entry`` — a strike on an IRB cell: detected iff a duplicate later
  passes the reuse test against the corrupted entry (otherwise latent).
  This validates the claim that the IRB needs no ECC inside the SoR.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence

from ..isa import is_reusable
from ..redundancy import (
    EXEC_DUP,
    EXEC_PRIMARY,
    FORWARD_BOTH,
    FORWARD_SINGLE,
    IRB_ENTRY,
    Fault,
    FaultInjector,
)
from ..simulation import get_trace, simulate
from .common import Table

DEFAULT_FAULT_APPS = ("gzip", "gcc")
DEFAULT_FAULTS_PER_KIND = 6

_KINDS = (EXEC_PRIMARY, EXEC_DUP, FORWARD_SINGLE, FORWARD_BOTH, IRB_ENTRY)

HEADERS = ("fault kind", "injected", "detected", "latent", "coverage")


def _target_seqs(trace, count: int) -> List[int]:
    """Evenly spaced reusable instructions in the steady half of the trace."""
    candidates = [
        inst.seq
        for inst in trace
        if is_reusable(inst.opcode) and inst.seq > len(trace) // 4
    ]
    if not candidates:
        raise ValueError("trace has no reusable instructions to target")
    step = max(1, len(candidates) // count)
    return candidates[::step][:count]


def _hot_pcs(trace, count: int) -> List[int]:
    """The most frequently executed reusable PCs (IRB strike targets)."""
    freq = Counter(
        inst.pc for inst in trace if is_reusable(inst.opcode) and not inst.is_branch
    )
    return [pc for pc, _ in freq.most_common(count)]


def run(
    apps: Sequence[str] = DEFAULT_FAULT_APPS,
    n_insts: int = 20_000,
    seed: int = 1,
    model: str = "die-irb",
    faults_per_kind: int = DEFAULT_FAULTS_PER_KIND,
) -> Table:
    """Inject one fault per run; aggregate detection by kind.

    ``coverage`` is detected / injected, 1.0 for a kind never injected.
    """
    kinds = _KINDS if model == "die-irb" else _KINDS[:4]
    injected: Dict[str, int] = dict.fromkeys(kinds, 0)
    detected = dict(injected)
    latent = dict(injected)
    for app in apps:
        trace = get_trace(app, n_insts, seed)
        seqs = _target_seqs(trace, faults_per_kind)
        pcs = _hot_pcs(trace, faults_per_kind)
        for kind in kinds:
            if kind == IRB_ENTRY:
                plans = [
                    [Fault(kind=kind, pc=pc, cycle=n_insts // 2)] for pc in pcs
                ]
            else:
                plans = [[Fault(kind=kind, seq=seq)] for seq in seqs]
            for plan in plans:
                injector = FaultInjector(plan)
                result = simulate(trace, model=model, fault_injector=injector)
                injected[kind] += injector.log.injected
                latent[kind] += injector.log.latent
                detected[kind] += min(
                    injector.log.injected, result.stats.check_mismatches
                )
    body = tuple(
        (
            kind,
            injected[kind],
            detected[kind],
            latent[kind],
            detected[kind] / injected[kind] if injected[kind] else 1.0,
        )
        for kind in kinds
    )
    return Table(f"F11: fault coverage under {model.upper()}", HEADERS, body)
