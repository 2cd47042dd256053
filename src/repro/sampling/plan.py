"""The sampling plan: everything region selection depends on, by value.

A :class:`SamplingPlan` plays the same role for sampled simulation that
:class:`~repro.core.MachineConfig` plays for the timing models — a frozen
value object that is hashed into campaign content keys
(:mod:`repro.campaign.keys`), so a sampled result can never collide with
a full run of the same job, and two sampled runs collide only when their
plans match.

Only the instruction budget varies between callers (the exact re-check
runs at ``budget=1.0``); the remaining selection parameters are the
module constants below, and warmup is always the full-trace lap plus the
prefix up to each site.  The plan deliberately holds no trace-dependent
state.  Resolving it against a concrete trace (how many intervals, which
sites the instruction budget affords) happens in :mod:`.regions`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

#: Interval length (dynamic instructions per basic-block vector).
#: Chosen against the 40k-instruction reference traces: short enough for
#: ~270 intervals (stable clustering and regression fits), long enough
#: that one interval amortises the pipeline-fill transient of its site.
DEFAULT_INTERVAL = 150

#: Measured intervals per site (the "chunk").  Within one site only the
#: first measured interval runs behind the single functional-pad
#: interval; the rest execute with fully detailed context, which is what
#: keeps window measurements honest for backlog-sensitive apps (see
#: ``docs/SAMPLING.md``).
DEFAULT_CHUNK = 3

#: Default cap on the fraction of dynamic instructions the cycle core may
#: simulate.  1/5 is the acceptance gate: a sampled run must be at least
#: a 5x reduction in cycle-core work.
DEFAULT_BUDGET = 0.20

#: Clustering / projection seed (selection is deterministic given the
#: plan).
DEFAULT_SEED = 42


@dataclass(frozen=True)
class SamplingPlan:
    """Parameters of BBV phase analysis and site selection.

    Attributes:
        budget: maximum fraction of the trace the cycle core may
            simulate; bounds the number of sites selected.
    """

    budget: float = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if not (0.0 < self.budget <= 1.0):
            raise ValueError("budget must be in (0, 1]")

    def to_dict(self) -> dict:
        """JSON-able form (CLI output, benchmark results, CI artifacts)."""
        return asdict(self)

    def selection_key(self) -> tuple:
        """Hashable memo key for site selection on one trace."""
        return ("sampling-selection", self.budget)
