"""Simulation statistics collected by the timing models."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..isa import FUClass


@dataclass
class SimStats:
    """Counters produced by one simulation run.

    ``committed`` counts *architected* instructions: a DIE run counts each
    checked (primary, duplicate) pair once, so IPC is directly comparable
    between SIE and DIE, as in the paper.
    """

    cycles: int = 0
    committed: int = 0
    fetched: int = 0
    dispatched: int = 0
    issued: int = 0

    # Stall accounting (cycles in which the stage made zero progress for
    # the given reason; diagnostic, not mutually exclusive).
    fetch_stall_mispredict: int = 0
    fetch_stall_icache: int = 0
    dispatch_stall_ruu: int = 0
    dispatch_stall_lsq: int = 0

    # Branches.
    branches: int = 0
    mispredicts: int = 0

    # Execution.
    fu_issued: Dict[FUClass, int] = field(default_factory=dict)
    fu_busy_cycles: Dict[FUClass, int] = field(default_factory=dict)

    # Instruction reuse (zero for models without an IRB).
    irb_lookups: int = 0
    irb_pc_hits: int = 0
    irb_reuse_hits: int = 0
    irb_port_starved: int = 0
    irb_writes: int = 0
    irb_write_drops: int = 0

    # Redundancy (zero for SIE).
    pairs_checked: int = 0
    check_mismatches: int = 0
    recoveries: int = 0

    # Fault injection.
    faults_injected: int = 0
    faults_detected: int = 0

    @property
    def ipc(self) -> float:
        """Architected instructions per cycle."""
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0

    @property
    def irb_pc_hit_rate(self) -> float:
        """PC hits per IRB lookup."""
        return self.irb_pc_hits / self.irb_lookups if self.irb_lookups else 0.0

    @property
    def irb_reuse_rate(self) -> float:
        """Successful reuses per IRB lookup (PC hit AND operand match)."""
        return self.irb_reuse_hits / self.irb_lookups if self.irb_lookups else 0.0

    def to_dict(self) -> dict:
        """A JSON-ready snapshot (enum keys become names, ratios included)."""
        out = {}
        for field_name, value in self.__dict__.items():
            if isinstance(value, dict):
                out[field_name] = {
                    (key.name if isinstance(key, FUClass) else key): v
                    for key, v in value.items()
                }
            else:
                out[field_name] = value
        out["ipc"] = self.ipc
        out["mispredict_rate"] = self.mispredict_rate
        out["irb_pc_hit_rate"] = self.irb_pc_hit_rate
        out["irb_reuse_rate"] = self.irb_reuse_rate
        return out

    def fu_utilization(self, fu: FUClass, count: int) -> float:
        """Mean busy fraction of the ``count`` units of class ``fu``."""
        if not self.cycles or not count:
            return 0.0
        return self.fu_busy_cycles.get(fu, 0) / (self.cycles * count)
