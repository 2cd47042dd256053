"""Instruction-level temporal redundancy: DIE, the checker, and faults."""

from .checker import CommitChecker
from .clustered import (
    DIEClusterReplicatedPipeline,
    DIEClusterSplitPipeline,
    DIEClusteredPipeline,
)
from .die import DIEPipeline
from .faults import (
    EXEC_DUP,
    EXEC_PRIMARY,
    FAULT_KINDS,
    FORWARD_BOTH,
    FORWARD_SINGLE,
    IRB_ENTRY,
    Fault,
    FaultInjector,
    InjectionLog,
    corrupt_value,
)
from .sphere import DIE_IRB_SPHERE, DIE_SPHERE, SphereOfReplication
from .srt import SRTPipeline

__all__ = [
    "CommitChecker",
    "DIEClusterReplicatedPipeline",
    "DIEClusterSplitPipeline",
    "DIEClusteredPipeline",
    "DIEPipeline",
    "DIE_IRB_SPHERE",
    "DIE_SPHERE",
    "EXEC_DUP",
    "EXEC_PRIMARY",
    "FAULT_KINDS",
    "FORWARD_BOTH",
    "FORWARD_SINGLE",
    "Fault",
    "FaultInjector",
    "IRB_ENTRY",
    "InjectionLog",
    "SRTPipeline",
    "SphereOfReplication",
    "corrupt_value",
]
