"""Interval signature profiling: basic-block vectors plus data-locality
features.

The SimPoint/LoopPoint family characterizes a program's time-varying
behaviour by cutting its dynamic instruction stream into fixed-length
intervals and recording, per interval, how many instructions each static
*basic block* contributed.  Intervals with similar vectors execute the
same code mix and (empirically) perform alike, so clustering the vectors
recovers the program's phase structure.

Code signature alone is not enough here.  The workload suite contains
kernels whose per-interval CPI swings 10x while executing the *same*
loop body (pointer chasing over resident vs. non-resident working sets),
which a pure BBV cannot see.  Each interval's vector therefore carries
three extra feature families, all cheap functional-trace facts:

* **data lines** — accesses per touched 64-byte line, the data-side
  analogue of the code signature;
* **stride buckets** — consecutive-access distance histogram bucketed by
  bit length, separating streaming from pointer-chasing intervals;
* **working-set scalars** — distinct-line and distinct-page counts,
  scaled up so they survive the random projection.

Feature families live in disjoint key spaces of one sparse vector: code
blocks are keyed by non-negative entry PCs, data features by negative
keys (see the ``_KEY``-prefixed constants).

Here the functional executor already materialized the dynamic stream as
a value-accurate :class:`~repro.workloads.Trace`, so profiling is one
cheap pass over the trace — no second functional run.  A basic block is
identified by the PC of its first instruction: a block ends at any
control-flow instruction (taken or not — both sides of a conditional
branch start new blocks, as in SimPoint's profilers).

Everything is deterministic: fingerprints are SHA-256 over the canonical
JSON form of each vector, and the dimensionality reduction used for
clustering is a seeded random projection whose per-feature rows derive
from string-seeded :class:`random.Random` streams (stable across
processes and platforms).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..core.decoded import OP_META
from ..isa import TraceInst
from ..workloads import Trace

#: Target dimensionality of the projected vectors handed to k-means.
#: SimPoint projects its (much longer) pure-code BBVs to 15; the hybrid
#: code+data vectors here keep more dimensions so the sparser data
#: features are not crushed into the code signal.
PROJECTED_DIMS = 32

#: Cache-line and page granularities for the data-locality features.
_LINE_BYTES = 64
_PAGE_BYTES = 4096

#: Key-space bases for the negative (data-side) feature keys.  A touched
#: line ``L`` contributes at key ``-L - 1``; a consecutive-access stride
#: of bit length ``b`` at ``_KEY_STRIDE_BASE - b``; the two working-set
#: scalars at fixed keys below that.
_KEY_STRIDE_BASE = -1_000_000
_KEY_WS_LINES = -2_000_001
_KEY_WS_PAGES = -2_000_002

#: Emphasis multipliers for the working-set scalars.  The scalars are
#: single dense dimensions competing against hundreds of sparse ones;
#: without the boost the projection buries them (measured: phase
#: clusters stop separating resident from thrashing intervals).
_WS_LINES_SCALE = 4
_WS_PAGES_SCALE = 8


@dataclass(frozen=True)
class BBVInterval:
    """One profiling interval.

    Attributes:
        index: interval position (0-based).
        start: first dynamic instruction (trace index) of the interval.
        length: dynamic instructions in the interval (the last interval
            of a trace may be shorter than the plan's interval length).
        vector: the sparse hybrid signature — instructions per basic
            block (non-negative keys) plus the data-locality features
            (negative keys, see the module docstring).
        fingerprint: SHA-256 over the canonical JSON form of ``vector``
            — byte-identical across processes for identical traces.
    """

    index: int
    start: int
    length: int
    vector: Dict[int, int]
    fingerprint: str


@dataclass(frozen=True)
class BBVProfile:
    """The whole trace's phase-analysis input: one vector per interval."""

    interval_length: int
    total_insts: int
    intervals: Tuple[BBVInterval, ...]


def _fingerprint(vector: Dict[int, int]) -> str:
    payload = json.dumps(
        {format(key, "x"): count for key, count in sorted(vector.items())},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


class _IntervalBuilder:
    """Accumulates one interval's hybrid signature during the trace pass."""

    __slots__ = ("vector", "block_pc", "prev_addr", "lines", "pages")

    def __init__(self) -> None:
        self.vector: Dict[int, int] = {}
        self.block_pc = -1  # -1: the next instruction starts a new block
        self.prev_addr = -1  # -1: no memory access yet this interval
        self.lines: Set[int] = set()
        self.pages: Set[int] = set()

    def add(self, inst: TraceInst) -> None:
        vector = self.vector
        if self.block_pc < 0:
            self.block_pc = inst.pc
        vector[self.block_pc] = vector.get(self.block_pc, 0) + 1
        if inst.is_branch:
            self.block_pc = -1
        if OP_META[inst.opcode].mem:
            addr = inst.mem_addr
            line_key = -(addr // _LINE_BYTES) - 1
            vector[line_key] = vector.get(line_key, 0) + 1
            if self.prev_addr >= 0:
                stride_key = (
                    _KEY_STRIDE_BASE - abs(addr - self.prev_addr).bit_length()
                )
                vector[stride_key] = vector.get(stride_key, 0) + 1
            self.prev_addr = addr
            self.lines.add(addr // _LINE_BYTES)
            self.pages.add(addr // _PAGE_BYTES)

    def finish(self, index: int, start: int, length: int) -> BBVInterval:
        vector = self.vector
        vector[_KEY_WS_LINES] = len(self.lines) * _WS_LINES_SCALE
        vector[_KEY_WS_PAGES] = len(self.pages) * _WS_PAGES_SCALE
        return BBVInterval(
            index=index,
            start=start,
            length=length,
            vector=vector,
            fingerprint=_fingerprint(vector),
        )


def _profile(trace: Trace, interval_length: int) -> BBVProfile:
    intervals: List[BBVInterval] = []
    builder = _IntervalBuilder()
    start = 0
    insts = trace.insts
    for position, inst in enumerate(insts):
        builder.add(inst)
        filled = position - start + 1
        if filled == interval_length:
            intervals.append(builder.finish(len(intervals), start, filled))
            builder = _IntervalBuilder()  # interval boundaries cut blocks
            start = position + 1
    if start < len(insts):
        intervals.append(
            builder.finish(len(intervals), start, len(insts) - start)
        )
    return BBVProfile(
        interval_length=interval_length,
        total_insts=len(insts),
        intervals=tuple(intervals),
    )


def profile_trace(trace: Trace, interval_length: int) -> BBVProfile:
    """The (memoized) signature profile of ``trace`` at ``interval_length``.

    Memoized on the trace object (:meth:`~repro.workloads.Trace.derived`),
    so jobs sharing a trace — every model x config variant in a campaign
    group — share one profiling pass.
    """
    return trace.derived(
        ("bbv", interval_length), lambda t: _profile(t, interval_length)
    )


def _feature_row(seed: int, key: int, dims: int) -> List[float]:
    """The deterministic projection row for one feature key."""
    rng = random.Random(f"{seed}:bbv-proj:{key}")
    return [rng.uniform(-1.0, 1.0) for _ in range(dims)]


def project(
    profile: BBVProfile, seed: int, dims: int = PROJECTED_DIMS
) -> List[List[float]]:
    """Random-project each interval vector to ``dims`` dimensions.

    Vectors are first normalized by interval length (so a short final
    interval is comparable to full ones), then multiplied by a random
    {feature -> row} matrix derived from ``seed``.  Identical profiles
    and seeds yield byte-identical projections in any process.
    """
    rows: Dict[int, List[float]] = {}
    projected: List[List[float]] = []
    for interval in profile.intervals:
        point = [0.0] * dims
        scale = 1.0 / interval.length if interval.length else 0.0
        for key, count in sorted(interval.vector.items()):
            row = rows.get(key)
            if row is None:
                row = rows[key] = _feature_row(seed, key, dims)
            weight = count * scale
            point = [p + weight * r for p, r in zip(point, row)]
        projected.append(point)
    return projected
