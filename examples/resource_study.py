#!/usr/bin/env python
"""Resource-doubling study (a runnable miniature of the paper's Figure 2).

For a chosen set of workloads, measures the % IPC loss of base DIE and
the seven doubled-resource DIE configurations relative to SIE, then
prints the figure's rows — showing where the bottleneck sits per app
(ALUs for compute codes, the RUU window for memory-parallel codes like
art).

Usage::

    python examples/resource_study.py [apps,comma,separated] [n_insts]
"""

import sys

from repro.experiments import get_experiment
from repro.workloads import APP_NAMES


def main() -> None:
    apps = tuple(sys.argv[1].split(",")) if len(sys.argv) > 1 else ("gzip", "art", "ammp", "gcc")
    n_insts = int(sys.argv[2]) if len(sys.argv) > 2 else 30_000
    unknown = set(apps) - set(APP_NAMES)
    if unknown:
        raise SystemExit(f"unknown workloads: {sorted(unknown)}")

    print(f"Figure 2 study over {', '.join(apps)} ({n_insts} instructions each)\n")
    result = get_experiment("F2").run(apps=apps, n_insts=n_insts)
    print(result.render())

    print("\nReading the rows:")
    losses = {key: result.column(key) for key in result.headers[1:]}
    for app in apps:
        best = min(("2xALU", "2xRUU", "2xWidths"), key=lambda k: losses[k][app])
        print(
            f"  {app:8s} loses {losses['DIE'][app]:5.1f}% under DIE; "
            f"doubling the {best} recovers it best "
            f"({losses[best][app]:5.1f}% remaining)"
        )


if __name__ == "__main__":
    main()
