"""Clustered DIE: the alternative the paper considers and postpones.

Section 3 weighs a decentralized clustered design — separate issue logic
and ALU pools per stream — against the IRB and rejects it: a *split*
cluster (half the resources per stream) suffers limited per-cluster ILP
and inter-cluster communication delays, while a *replicated* cluster
(full resources per stream) "borders on spatial redundancy" — those
transistors could have sped up SIE instead.  The paper leaves the
quantitative comparison to future work; this module supplies it.

Two variants of :class:`DIEClusteredPipeline`, chosen by its
``REPLICATED`` class attribute:

* :class:`DIEClusterSplitPipeline` — each stream issues to its own
  cluster holding half the baseline FU complement.
* :class:`DIEClusterReplicatedPipeline` — each cluster holds the *full*
  baseline complement (the spatial-redundancy-like configuration).

Either way a cluster gets half the issue width.  Values crossing clusters
(the single memory access feeding a duplicate consumer, and any IRB-free
cross-stream communication) pay an inter-cluster forwarding delay.
"""

from __future__ import annotations

import heapq
from typing import ClassVar, Dict, Optional

from ..core import MachineConfig
from ..core.dyninst import DynInst
from ..core.fu import FUPool
from ..isa import FUClass
from ..workloads import Trace
from .die import DIEPipeline


_CLASSES = len(FUClass)


def _half_counts(config: MachineConfig) -> Dict[FUClass, int]:
    """Half the baseline complement, at least one unit per present class."""
    return {
        fu: max(1, count // 2) if count else 0
        for fu, count in config.fu_counts.items()
    }


class DIEClusteredPipeline(DIEPipeline):
    """DIE with per-stream execution clusters (declare ``REPLICATED``)."""

    name = "DIE-Clustered"

    #: True: a full FU complement per cluster; False: half of it.
    REPLICATED: ClassVar[bool]

    #: Extra wakeup cycles for a value crossing to the other cluster.
    INTERCLUSTER_DELAY = 2

    def __init__(self, trace: Trace, config: Optional[MachineConfig] = None):
        super().__init__(trace, config)
        counts = (
            self.config.fu_counts if self.REPLICATED else _half_counts(self.config)
        )
        # One FU pool and one issue width per stream: the lanes replace
        # the base class's, which drew on the shared pool.
        self.clusters = (FUPool(dict(counts)), FUPool(dict(counts)))
        self._lay_out_lanes(self.clusters, max(1, self.config.issue_width // 2))

    # ------------------------------------------------------------------

    def _hook_wake_delay(self, producer: DynInst, consumer: DynInst) -> int:
        # A value produced in one cluster takes extra cycles to reach a
        # consumer in the other (the paper's "long inter-cluster
        # communication delays").
        if producer.stream != consumer.stream:
            return self.INTERCLUSTER_DELAY
        return 0

    def _hook_on_ready(self, inst: DynInst, cycle: int) -> None:
        # A stream always issues to its own cluster.
        heapq.heappush(
            self._lanes[inst.stream * _CLASSES + inst.trace.fu], (inst.uid, inst)
        )


class DIEClusterSplitPipeline(DIEClusteredPipeline):
    """Split clustering: half the FU complement per stream."""

    name = "DIE-Cluster-Split"
    REPLICATED = False


class DIEClusterReplicatedPipeline(DIEClusteredPipeline):
    """Replicated clustering: a full FU complement per stream.

    The near-spatial-redundancy configuration the paper argues against on
    transistor-budget grounds.
    """

    name = "DIE-Cluster-Repl"
    REPLICATED = True
