"""Service-tier benchmark: backend listing/lookup, serve latency.

Two measurements, written to ``results/BENCH_service.json``::

    python benchmarks/bench_service.py [--entries K] [--requests R]
        [--min-speedup X] [--check]

* **index** — a synthetic store of ``--entries`` result documents
  (default 10k) is listed and filtered through the ``dir`` and
  ``sqlite`` backends.  The directory backend must read every document
  to answer a ``workload=`` filter; the sqlite backend answers it with
  one indexed SELECT.  The measured speedup is the gate this file
  commits: **sqlite filtered listing >= ``--min-speedup`` (10x) over
  dir at 10k entries** — enforced on every write run and by
  ``--check`` against the committed results.
* **serve** — warm ``GET /result/<key>`` and ``GET /entries`` latency
  (p50/p95 over ``--requests`` requests) against a live ``repro
  serve`` instance on the sqlite store.  Warm queries execute zero
  simulations; the run aborts if the server's counter says otherwise.

Point lookups (``read`` by key) are O(1) path arithmetic on both local
backends and are reported for completeness, not gated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import tempfile
import threading
import time
import urllib.request
from pathlib import Path
from typing import Callable, List

from repro.campaign import ResultStore
from repro.service.backends import (
    KIND_RESULT,
    DirectoryBackend,
    SqliteBackend,
)
from repro.service.maintenance import migrate_index
from repro.service.server import serve
from repro.workloads import APP_NAMES

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
RESULT_NAME = "BENCH_service.json"

MODELS = ("sie", "die", "die-irb")


def synthetic_key(index: int) -> str:
    return hashlib.sha256(f"bench-service-{index}".encode()).hexdigest()


def populate(root: Path, count: int) -> None:
    """Write ``count`` plausible result documents straight to disk.

    Plain writes, not the fsync'd atomic path — this builds a fixture,
    and 10k fsyncs would measure the disk, not the backends.
    """
    for index in range(count):
        key = synthetic_key(index)
        document = {
            "format": 1,
            "key": key,
            "spec": {
                "workload": APP_NAMES[index % len(APP_NAMES)],
                "model": MODELS[index % len(MODELS)],
                "n_insts": 10_000,
                "seed": 1,
                "sampling": None,
            },
            "stats": {"cycles": 1000 + index, "committed": 10_000},
            "provenance": {"wall_time_s": 0.1, "code_version": "bench"},
        }
        path = root / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, sort_keys=True))


def timed(fn: Callable[[], object], repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_index(root: Path, count: int) -> dict:
    populate(root, count)
    plain = DirectoryBackend(root)
    index_start = time.perf_counter()
    indexed_rows = migrate_index(root)
    index_build_s = time.perf_counter() - index_start
    assert indexed_rows == count, f"index holds {indexed_rows}/{count} rows"
    indexed = SqliteBackend(root)

    filter_workload = APP_NAMES[0]
    cells = {}
    for name, backend in (("dir", plain), ("sqlite", indexed)):
        cells[name] = {
            "keys_s": round(timed(lambda b=backend: list(b.keys(KIND_RESULT))), 4),
            "filtered_entries_s": round(
                timed(
                    lambda b=backend: list(
                        b.entries(KIND_RESULT, workload=filter_workload)
                    )
                ),
                4,
            ),
            "point_lookup_s": round(
                timed(lambda b=backend: b.read(KIND_RESULT, synthetic_key(7))), 5
            ),
        }
    expected = sum(
        1 for i in range(count) if APP_NAMES[i % len(APP_NAMES)] == filter_workload
    )
    matched = len(list(indexed.entries(KIND_RESULT, workload=filter_workload)))
    assert matched == expected, f"filter returned {matched}, expected {expected}"
    return {
        "entries": count,
        "filter_workload": filter_workload,
        "index_build_s": round(index_build_s, 3),
        "dir": cells["dir"],
        "sqlite": cells["sqlite"],
        "listing_speedup": round(
            cells["dir"]["filtered_entries_s"]
            / max(cells["sqlite"]["filtered_entries_s"], 1e-9),
            1,
        ),
    }


def percentile(samples: List[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * fraction))]


def bench_serve(root: Path, requests: int) -> dict:
    store = ResultStore(backend=SqliteBackend(root))
    server = serve(store, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        keys = [synthetic_key(i) for i in range(50)]
        document_lat: List[float] = []
        for number in range(requests):
            url = f"{server.url}/result/{keys[number % len(keys)]}"
            start = time.perf_counter()
            with urllib.request.urlopen(url) as response:
                response.read()
            document_lat.append(time.perf_counter() - start)
        listing_lat: List[float] = []
        for _ in range(10):
            start = time.perf_counter()
            with urllib.request.urlopen(
                f"{server.url}/entries?kind=result&workload={APP_NAMES[0]}"
            ) as response:
                response.read()
            listing_lat.append(time.perf_counter() - start)
        assert server.simulations_executed == 0, "warm serve ran a simulation"
    finally:
        server.shutdown()
        server.server_close()
    return {
        "requests": requests,
        "document_p50_ms": round(percentile(document_lat, 0.50) * 1000, 3),
        "document_p95_ms": round(percentile(document_lat, 0.95) * 1000, 3),
        "filtered_entries_p50_ms": round(percentile(listing_lat, 0.50) * 1000, 3),
        "simulations_executed": 0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--entries", type=int, default=10_000)
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument(
        "--min-speedup", type=float, default=10.0,
        help="required sqlite-over-dir filtered-listing speedup",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="re-measure the index cells and verify the committed results "
        "file meets the speedup gate, without overwriting it",
    )
    args = parser.parse_args()
    out_path = RESULTS_DIR / RESULT_NAME

    scratch = Path(tempfile.mkdtemp(prefix="bench-service-"))
    try:
        index = bench_index(scratch / "store", args.entries)
        if args.check:
            if not out_path.is_file():
                print(f"ERROR: {out_path} is not committed")
                return 1
            committed = json.loads(out_path.read_text())
            failures = []
            if committed["index"]["listing_speedup"] < args.min_speedup:
                failures.append(
                    f"committed listing_speedup "
                    f"{committed['index']['listing_speedup']}x < "
                    f"{args.min_speedup}x"
                )
            if index["listing_speedup"] < args.min_speedup:
                failures.append(
                    f"measured listing_speedup {index['listing_speedup']}x < "
                    f"{args.min_speedup}x"
                )
            for failure in failures:
                print(f"CHECK FAILED: {failure}")
            print(
                f"check: committed {committed['index']['listing_speedup']}x, "
                f"measured {index['listing_speedup']}x "
                f"(gate {args.min_speedup}x)"
            )
            return 1 if failures else 0
        served = bench_serve(scratch / "store", args.requests)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    payload = {
        "benchmark": "service",
        "min_speedup_gate": args.min_speedup,
        "index": index,
        "serve": served,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwritten to {out_path}")
    if index["listing_speedup"] < args.min_speedup:
        print(
            f"ERROR: sqlite filtered listing only "
            f"{index['listing_speedup']}x over dir (gate {args.min_speedup}x)"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
