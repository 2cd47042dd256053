"""The fixed reference kernel every op is timed next to.

``op_p50_ref`` divides each op's wall time by the mean wall time of this
kernel measured just before and just after the op, so a host that runs
everything 20% slower for a few seconds moves both numbers alike and the
ratio stays.

The kernel is a pure-Python integer loop of about 40 ms.  It was chosen
by measurement over an allocation/dict/heap mix (see README.md,
"Reference kernel"): the simulator's cycle core is itself an interpreter
loop over integers and small objects, and the integer loop tracked its
speed changes more closely.

It must never import ``repro``: its cost has to stay fixed while the
program under test changes.
"""

from __future__ import annotations

import time

#: Loop trip count; about 40 ms on a shared 2-core x86-64 VM under CPython 3.11.
ITERATIONS = 400_000
#: Seconds the kernel is taken to last on the reference host.  ``setup_s``
#: is reported in seconds of such a host: set-up time ÷ kernel time × this.
NOMINAL_S = 0.040


def kernel(iterations: int = ITERATIONS) -> int:
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return acc


#: ``kernel()``'s result, checked on every timing so the loop cannot be
#: altered without failing the run.
EXPECTED = 256412992


def timed() -> float:
    """Wall seconds of one kernel run (the result is checked)."""
    start = time.perf_counter()
    acc = kernel()
    elapsed = time.perf_counter() - start
    if acc != EXPECTED:
        raise RuntimeError("reference kernel returned a wrong result")
    return elapsed
