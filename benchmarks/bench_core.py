"""Core-speed benchmark: the cycle-level core against an older tree.

Times the F2 baseline cell set (the twelve SPEC-like apps on
``sie`` / ``die`` / ``die-irb``) one or two ways and writes
``results/BENCH_core.json``::

    python benchmarks/bench_core.py [--n INSTS] [--apps a,b] [--repeats K]
        [--baseline-src DIR] [--check [--tolerance PCT]]

* ``fast`` — this tree: the shipping core with its decoded-trace cache.
  ``insts_per_s`` gives, per model, simulated instructions per host
  second over all apps (``len(apps) * n_insts`` over the model's summed
  wall time).
* ``seed`` — optional: the same cells against an older checkout
  (``--baseline-src path/to/seed/src``), run in a subprocess with
  ``PYTHONPATH`` pointing at that tree.  ``speedup_vs_seed`` (seed wall
  over fast wall) is the end-to-end claim.

Noise controls follow ``bench_telemetry.py``: the two trees interleave
within each repeat and alternate which runs first (as ``e2ebench`` pairs
its runs), so host drift lands on both alike; each cell keeps its
minimum across repeats, and the timed region runs with the GC
collected-then-disabled.

``--check`` re-reads the committed ``results/BENCH_core.json`` first and
exits non-zero if the measured ``speedup_vs_seed`` regressed more than
``--tolerance`` percent below the committed value (the CI perf-smoke
gate), and fails without ``--baseline-src``; it does not overwrite the
committed file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

from repro.simulation import get_trace, simulate
from repro.workloads import APP_NAMES

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
RESULT_NAME = "BENCH_core.json"

MODELS = ("sie", "die", "die-irb")


def cell_names(apps: Sequence[str]) -> List[str]:
    return [f"{app}/{model}" for app in apps for model in MODELS]


def one_pass(apps: Sequence[str], n_insts: int) -> List[float]:
    """Wall time per (app, model) cell."""
    times: List[float] = []
    for app in apps:
        trace = get_trace(app, n_insts)  # memoized: excluded from timing
        for model in MODELS:
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                simulate(trace, model=model)
                times.append(time.perf_counter() - start)
            finally:
                gc.enable()
    return times


def seed_pass(
    baseline_src: str, apps: Sequence[str], n_insts: int
) -> List[float]:
    """One pass of the same cells against an older tree, in a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(baseline_src).resolve())
    proc = subprocess.run(
        [
            sys.executable, os.path.abspath(__file__), "--worker",
            "--n", str(n_insts), "--apps", ",".join(apps),
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"baseline pass failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout)["times"]


def _cells_payload(
    apps: Sequence[str], times: List[float], n_insts: int
) -> Dict[str, object]:
    names = cell_names(apps)
    return {
        "wall_s": round(sum(times), 4),
        "insts_per_s": {
            model: round(len(apps) * n_insts / sum(
                wall for name, wall in zip(names, times)
                if name.endswith(f"/{model}")
            ))
            for model in MODELS
        },
        "cells": {
            name: round(wall, 5)
            for name, wall in zip(names, times)
        },
    }


def check_payload(
    payload: Dict[str, object], committed_path: Path, tolerance_pct: float
) -> List[str]:
    """Compare the measured seed speedup against the committed results."""
    if not committed_path.is_file():
        return [f"no committed results at {committed_path}"]
    committed = json.loads(committed_path.read_text())
    key = "speedup_vs_seed"
    reference = committed.get(key)
    measured = payload.get(key)
    if not isinstance(measured, (int, float)):
        return [f"no {key} measured: --check needs --baseline-src"]
    if not reference:
        return [f"no committed {key} in {committed_path}"]
    floor = reference * (1.0 - tolerance_pct / 100.0)
    if measured < floor:
        return [
            f"{key} regressed: measured {measured:.3f} < committed "
            f"{reference:.3f} - {tolerance_pct}% = {floor:.3f}"
        ]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=8_000)
    parser.add_argument("--apps", default=None)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--baseline-src", default=None, metavar="DIR",
        help="src/ directory of an older checkout to race against",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="gate against the committed results instead of overwriting them",
    )
    parser.add_argument(
        "--tolerance", type=float, default=10.0, metavar="PCT",
        help="allowed regression below committed speedups with --check",
    )
    parser.add_argument(
        "--worker", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args()
    apps = tuple(args.apps.split(",")) if args.apps else APP_NAMES

    # Warm the trace cache so generation cost never pollutes pass one.
    for app in apps:
        get_trace(app, args.n)

    if args.worker:
        print(json.dumps({"times": one_pass(apps, args.n)}))
        return 0

    passes = {"fast": lambda: one_pass(apps, args.n)}
    if args.baseline_src:
        passes["seed"] = lambda: seed_pass(args.baseline_src, apps, args.n)
    runs: Dict[str, List[List[float]]] = {name: [] for name in passes}
    for repeat in range(args.repeats):
        # Alternate which tree runs first, so drift lands on both alike.
        order = list(passes)
        for name in order[::-1] if repeat % 2 else order:
            runs[name].append(passes[name]())
    minima = {
        name: [min(cell) for cell in zip(*times)] for name, times in runs.items()
    }
    fast_min, seed_min = minima["fast"], minima.get("seed")

    fast = _cells_payload(apps, fast_min, args.n)
    payload: Dict[str, object] = {
        "benchmark": "core",
        "apps": list(apps),
        "models": list(MODELS),
        "n_insts": args.n,
        "repeats": args.repeats,
        "fast": fast,
    }
    if seed_min is not None:
        seed = _cells_payload(apps, seed_min, args.n)
        payload["seed"] = seed
        payload["speedup_vs_seed"] = round(
            seed["wall_s"] / fast["wall_s"], 3
        )
        payload["speedup_vs_seed_cells"] = {
            name: round(old / new, 3)
            for name, old, new in zip(cell_names(apps), seed_min, fast_min)
        }

    print(json.dumps(payload, indent=2))
    failed = False
    if args.check:
        for failure in check_payload(
            payload, RESULTS_DIR / RESULT_NAME, args.tolerance
        ):
            print(f"ERROR: {failure}")
            failed = True
    else:
        RESULTS_DIR.mkdir(exist_ok=True)
        out_path = RESULTS_DIR / RESULT_NAME
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwritten to {out_path}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
