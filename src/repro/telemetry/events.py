"""Typed per-instruction lifecycle events and the :class:`Tracer` protocol.

Every pipeline holds a ``tracer`` attribute whose default is the shared
:data:`NULL_TRACER`.  Hot loops in ``core/pipeline.py`` guard event
construction with one *identity* check per stage (simlint rule SL103)::

    tracer = self.tracer
    ...
    if tracer is not NULL_TRACER:
        tracer.emit_inst(STAGE_ISSUE, cycle, ...)

The identity form is required because a custom tracer is free to define
``__bool__`` (an aggregator that is falsy while empty would silently
drop events under a truthiness guard), and ``is not`` compiles to a
single pointer comparison anyway.  Event construction therefore happens
only when a real tracer is installed.  The four hot kinds (instruction
stages, IRB, pair checks, cycle samples) go through :class:`Tracer`'s
typed ``emit_*`` methods, so a tracer that reads only a few fields can
skip building the object (see :class:`Tracer`).  This module depends
on nothing but ``repro.isa`` and the standard library, so the core can
import it without cycles.

Event taxonomy (see ``docs/TELEMETRY.md``):

* :class:`InstEvent` — one instruction copy crossing a pipeline stage
  (fetch / dispatch / issue / complete / commit / squash).
* :class:`IRBEvent` — the reuse buffer's lookup→pc-hit→reuse funnel plus
  commit-side writes (lookup / pc_hit / reuse_hit / port_starved /
  write / write_drop).
* :class:`CheckEvent` — one commit-stage pair-check verdict (DIE modes).
* :class:`FaultEvent` — one planned transient fault resolving to an
  outcome (injected / latent).
* :class:`CycleEvent` — end-of-cycle occupancy sample (RUU / LSQ),
  emitted once per simulated cycle.
* :class:`DivergenceEvent` — one cross-model invariant violation found
  by the differential-fuzzing harness (``repro.validation``); emitted
  post-run, stamped with the diverging run's final cycle.
* :class:`PhaseEvent` — one representative region of a sampled run
  (``repro.sampling``) opening on the reconstructed timeline; emitted
  post-run, stamped with the region's starting cycle offset (the sum of
  the preceding regions' cycle counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..isa import FUClass, Opcode

# Instruction lifecycle stages.
STAGE_FETCH = "fetch"
STAGE_DISPATCH = "dispatch"
STAGE_ISSUE = "issue"
STAGE_COMPLETE = "complete"
STAGE_COMMIT = "commit"
STAGE_SQUASH = "squash"

STAGES = (
    STAGE_FETCH,
    STAGE_DISPATCH,
    STAGE_ISSUE,
    STAGE_COMPLETE,
    STAGE_COMMIT,
    STAGE_SQUASH,
)

# IRB funnel outcomes.
IRB_LOOKUP = "lookup"
IRB_PC_HIT = "pc_hit"
IRB_REUSE_HIT = "reuse_hit"
IRB_PORT_STARVED = "port_starved"
IRB_WRITE = "write"
IRB_WRITE_DROP = "write_drop"

IRB_KINDS = (
    IRB_LOOKUP,
    IRB_PC_HIT,
    IRB_REUSE_HIT,
    IRB_PORT_STARVED,
    IRB_WRITE,
    IRB_WRITE_DROP,
)

# Fault outcomes.
FAULT_INJECTED = "injected"
FAULT_LATENT = "latent"


@dataclass(frozen=True)
class InstEvent:
    """One instruction copy crossing one pipeline stage.

    ``stream`` is ``core.dyninst.PRIMARY`` (0) or ``DUPLICATE`` (1);
    ``seq`` is the architected (trace) position, so a DIE pair shares one
    ``seq`` and is distinguished by ``stream``.
    """

    kind: str
    cycle: int
    seq: int
    pc: int
    opcode: Opcode
    stream: int
    fu: FUClass


@dataclass(frozen=True)
class IRBEvent:
    """One reuse-buffer event (probe funnel or commit-side write)."""

    kind: str
    cycle: int
    pc: int
    opcode: Optional[Opcode] = None


@dataclass(frozen=True)
class CheckEvent:
    """One commit-stage pair comparison; ``ok`` False means a mismatch."""

    cycle: int
    seq: int
    ok: bool


@dataclass(frozen=True)
class FaultEvent:
    """One planned fault resolving; ``outcome`` is injected or latent."""

    cycle: int
    seq: int
    fault_kind: str
    outcome: str


@dataclass(frozen=True)
class CycleEvent:
    """End-of-cycle structural occupancy sample."""

    cycle: int
    ruu: int
    lsq: int


@dataclass(frozen=True)
class DivergenceEvent:
    """One invariant violation surfaced by differential validation.

    ``invariant`` names the violated check (``repro.validation``'s
    catalogue), ``model`` the timing model it implicates (empty for
    cross-model or oracle-level checks), and ``detail`` a one-line,
    human-readable account of the disagreement.
    """

    cycle: int
    invariant: str
    model: str
    detail: str


@dataclass(frozen=True)
class PhaseEvent:
    """One sampled-simulation region boundary.

    ``cycle`` is the region's start offset on the sampled run's
    reconstructed timeline; ``phase`` the cluster id from BBV phase
    analysis; ``start_seq``/``end_seq`` the half-open dynamic-instruction
    range in the *parent* trace; ``weight`` the phase's share of dynamic
    instructions (what the region's statistics are scaled by).
    """

    cycle: int
    phase: int
    start_seq: int
    end_seq: int
    weight: float


Event = Union[
    InstEvent,
    IRBEvent,
    CheckEvent,
    FaultEvent,
    CycleEvent,
    DivergenceEvent,
    PhaseEvent,
]


class Tracer:
    """Base class of event consumers.

    ``emit(event)`` is the one method a tracer must define, and it must
    accept every event kind.  The hot emit sites call the typed methods
    below with the event's fields instead of an object.  Each default
    builds the event once and hands it to :meth:`emit`, so a tracer that
    defines only ``emit`` sees exactly the objects it always saw.  A
    tracer may override a typed method to skip building the object; it
    must then get the same result from :meth:`emit` given the same event
    (``replay()`` and :class:`~.record.TeeTracer` deliver objects).

    Implementations must be truthy (the default ``object`` truthiness);
    only the null tracer may be falsy.
    """

    def emit(self, event: Event) -> None:
        raise NotImplementedError

    def emit_inst(
        self,
        kind: str,
        cycle: int,
        seq: int,
        pc: int,
        opcode: Opcode,
        stream: int,
        fu: FUClass,
    ) -> None:
        self.emit(InstEvent(kind, cycle, seq, pc, opcode, stream, fu))

    def emit_irb(
        self, kind: str, cycle: int, pc: int, opcode: Optional[Opcode] = None
    ) -> None:
        self.emit(IRBEvent(kind, cycle, pc, opcode))

    def emit_check(self, cycle: int, seq: int, ok: bool) -> None:
        self.emit(CheckEvent(cycle, seq, ok))

    def emit_cycle(self, cycle: int, ruu: int, lsq: int) -> None:
        self.emit(CycleEvent(cycle, ruu, lsq))


class NullTracer(Tracer):
    """The shared do-nothing tracer; falsy so hot loops skip event
    construction entirely when tracing is off."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def emit(self, event: Event) -> None:  # pragma: no cover - never reached
        pass


#: The process-wide default tracer (falsy, stateless, shared).
NULL_TRACER = NullTracer()
