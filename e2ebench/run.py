"""Repository benchmark: cold F5 campaigns (full and sampled) and warm serve.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload f5-full --seed 1 --seconds 24 --trace 0

``--workload`` is ``f5-full``, ``f5-sampled`` or ``serve-warm`` (see
``scenarios.py`` and README.md).  The run sets the workload up once,
then runs a fixed number of ops in a fixed order, about ``--seconds``
worth (see ``OPS_PER_SECOND``), checking every op's outputs.  It prints a table of metrics, each with its unit and
sample count, and as its last line one JSON object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

With ``--trace 0`` the JSON metrics are the gated end-to-end ones
(``GATED``; the table also prints the raw host timings).  With
``--trace 1`` every op runs with span wrappers installed on the
program's layer boundaries, and the metrics are the per-layer medians of
those ops plus the tracing overhead: the traced ops' ``op_p50_ref``
against that of a ``--trace 0`` run over the same (app, seed) cells,
started afterwards as a child process.

Every store lives in a temporary directory under the checkout that is
removed at exit.  Nothing runs in a worker pool.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Parent of the per-run temporary directories (removed when empty).
TMP_ROOT = ROOT / ".e2ebench-tmp"
WORKLOADS = ("f5-full", "f5-sampled", "serve-warm")
#: Set-ups per run whose median is ``setup_s``: fresh interpreters
#: running this run's set-up (``--setup-only``), one at a time, spaced
#: evenly between the timed ops.  Spacing them out stretches the timed
#: ops over more of the host's slow and fast spells at no extra cost.
#: An F5 set-up takes about 0.2 s, a ``serve-warm`` one about 8.5 s.
SETUP_RUNS = {"f5-full": 7, "f5-sampled": 7, "serve-warm": 3}
#: Seconds the traced run allows its untraced ``--trace 0`` child.
CHILD_TIMEOUT = 150
#: Ops per second of ``--seconds``.  A run does a fixed number of ops,
#: not as many as fit in the time: then every run of a workload, on any
#: commit, times the same (app, seed) cells, and a faster program does
#: not also change the mix of apps its median is taken over.  The F5 rate
#: is that of a shared 2-core x86-64 VM, so F5 ops take about
#: ``--seconds``; at 24 s an F5 run is exactly one lap of the 12 apps.  At
#: 4 per second, ``serve-warm`` ops and their kernel runs take about 60%
#: of ``--seconds``, leaving room for its three 8.5 s set-ups.
OPS_PER_SECOND = {"f5-full": 0.5, "f5-sampled": 0.5, "serve-warm": 4.0}

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "setup_raw_s": "s",
    "op_p50_ref": "ratio",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
}
#: The end-to-end metrics the JSON line carries.  The raw host timings
#: are printed but not gated: they follow the shared host's speed, which
#: spread them by up to 28% over ten runs (see README.md).
GATED = ("setup_s", "op_p50_ref", "peak_rss_mb")


@dataclass
class Sample:
    """One op: its wall and CPU time, and the reference kernel's wall.

    ``ref`` is the mean of the kernel timed just before and just after the
    op: two samples taken on both sides track the host's speed during the
    op more closely than one taken before it (see README.md).
    """

    index: int
    wall: float
    cpu: float
    ref: float
    problems: List[str] = field(default_factory=list)
    out: Optional[dict] = None


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1, help="workload seed S")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="about how long the timed ops run (sets the op count)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run printing per-layer metrics")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time as JSON, exit")
    return parser.parse_args(argv)


def measure(workload, ops: int, recorder, traced: bool, pauses, pause) -> List[Sample]:
    """Run ``ops`` ops in order, recording spans around each if ``traced``.

    Before op *i*, ``pause()`` runs untimed ``pauses.count(i)`` times.
    """
    import refkernel
    from layers import OP

    samples: List[Sample] = []
    for index in range(ops):
        for _ in range(pauses.count(index)):
            pause()
        gc.collect()
        ref_before = refkernel.timed()
        if traced:
            recorder.active, recorder.op = True, index
            op_span = recorder.open(OP)
        out, problems = None, []
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            out = workload.op(index)
        except Exception:  # an op that raises counts as failed; keep going
            problems = [traceback.format_exc()]
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if traced:
            recorder.close(op_span)
            recorder.active = False
        ref = (ref_before + refkernel.timed()) / 2
        if out is not None:
            problems = workload.check(out)
        kept = out if workload.keep_outputs else None
        samples.append(Sample(index, wall, cpu, ref, problems, kept))
    return samples


def child(args: argparse.Namespace, *flags: str, timeout: float) -> dict:
    """Run this benchmark in a fresh interpreter; its last stdout line as JSON."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def timed_setup(args: argparse.Namespace) -> Tuple[float, float]:
    """One set-up in a fresh interpreter: (its seconds, reference kernel around it)."""
    import refkernel

    before = refkernel.timed()
    setup = child(args, "--setup-only", timeout=120)["setup_s"]
    return setup, (before + refkernel.timed()) / 2


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def end_to_end(
    samples: List[Sample], setups: List[Tuple[float, float]]
) -> Dict[str, Tuple[float, int]]:
    """Metric -> (value, sample count).

    ``setup_s`` is the set-up time rescaled to a host on which the
    reference kernel takes ``refkernel.NOMINAL_S``: the median over
    set-ups of (set-up seconds ÷ kernel seconds around it), times that
    constant.  ``setup_raw_s`` is the median of the set-ups' own seconds.
    """
    import refkernel

    walls = [s.wall for s in samples]
    n = len(samples)
    return {
        "setup_s": (
            statistics.median(wall / ref for wall, ref in setups) * refkernel.NOMINAL_S,
            len(setups),
        ),
        "setup_raw_s": (statistics.median(wall for wall, _ in setups), len(setups)),
        "op_p50_ref": (statistics.median(s.wall / s.ref for s in samples), n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "op_p50_ms": (statistics.median(walls) * 1000.0, n),
        "ops_per_s": (n / sum(walls), n),
        "cpu_ms_per_op": (sum(s.cpu for s in samples) * 1000.0 / n, n),
    }


def ipc_error_pct(workload, samples: List[Sample]) -> Tuple[float, int]:
    """Geomean of |sampled IPC / full IPC - 1| over the first lap's cells.

    The full-simulation reference runs here, untimed, without a store.
    Aggregated as ``repro.sampling.geomean_ipc_error`` does: the geomean
    of ``1 + error``, minus 1.
    """
    from dataclasses import replace

    from repro.campaign import campaign_context, job_key
    from repro.workloads import APP_NAMES

    errors = []
    for sample in samples[: len(APP_NAMES)]:
        if sample.out is None:
            continue
        full = {}
        with campaign_context(
            jobs_n=1,
            progress=lambda done, total, result: full.__setitem__(job_key(result.job), result),
        ):
            workload.experiment.module.run(
                apps=(sample.out["app"],), n_insts=workload.n_insts, seed=sample.out["seed"]
            )
        for result in sample.out["results"]:
            reference = full[job_key(replace(result.job, sampling=None))]
            errors.append(abs(result.stats.ipc / reference.stats.ipc - 1.0))
    if not errors:
        return 0.0, 0
    geomean = math.prod(1.0 + error for error in errors) ** (1.0 / len(errors))
    return (geomean - 1.0) * 100.0, len(errors)


def per_layer(
    workload, samples: List[Sample], recorder, untraced: dict
) -> Dict[str, Tuple[float, int]]:
    """Per-layer metric -> (median over the traced ops, sample count).

    ``untraced`` is the JSON result of the ``--trace 0`` run over the same
    cells, the base of the tracing overhead.
    """
    from layers import METRICS, op_row, route_latencies, table

    by_op: Dict[int, list] = {}
    for span in recorder.spans:
        by_op.setdefault(span.op, []).append(span)
    rows = [op_row(by_op[s.index], workload.jobs, workload.n_insts) for s in samples]
    routes = route_latencies(recorder.spans)
    values = table(rows, routes)
    counts = {name: len(rows) for name in values}
    for route, latencies in routes.items():
        counts[f"service.route_{route}_ms"] = len(latencies)
    traced_ref = statistics.median(s.wall / s.ref for s in samples)
    values["bench.traced_op_p50_ms"] = statistics.median(s.wall for s in samples) * 1000.0
    values["bench.traced_op_p50_ref"] = traced_ref
    counts["bench.traced_op_p50_ms"] = counts["bench.traced_op_p50_ref"] = len(samples)
    untraced_ref = untraced["metrics"]["op_p50_ref"]["value"]
    values["bench.trace_overhead_pct"] = (traced_ref / untraced_ref - 1.0) * 100.0
    counts["bench.trace_overhead_pct"] = len(samples) + untraced["attempted"]
    counts["service.simulations_executed"] = 1
    if workload.name == "serve-warm":
        values["service.simulations_executed"] = float(workload.simulations_executed())
    if workload.name == "f5-sampled":
        values["sampling.ipc_err_pct"], counts["sampling.ipc_err_pct"] = ipc_error_pct(
            workload, samples
        )
    # A layer the workload does not exercise reads 0.
    return {name: (values.get(name, 0.0), counts.get(name, 0)) for name in METRICS}


def report(
    args: argparse.Namespace,
    metrics: Dict[str, Tuple[float, int]],
    units: Dict[str, str],
    extra: List[str],
) -> None:
    print(f"e2ebench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  {'metric':34} {'value':>14}  {'unit':6} {'n':>5}")
    for name, (value, count) in metrics.items():
        print(f"  {name:34} {value:14.6g}  {units[name]:6} {count:5d}")
    for line in extra:
        print(f"  {line}")


def run(args: argparse.Namespace, tmp: Path) -> int:
    sys.path.insert(0, str(SRC))
    import scenarios
    from layers import METRICS, install
    from spans import Patcher, Recorder

    recorder = Recorder()
    workload = scenarios.WORKLOADS[args.workload](args.workload, args.seed, tmp, recorder)
    setup = time.perf_counter() - _START
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup}))
        return 0
    ops = max(1, round(args.seconds * OPS_PER_SECOND[args.workload]))
    setups: List[Tuple[float, float]] = []
    # The traced run reports no set-up time.
    runs = 0 if args.trace else SETUP_RUNS[args.workload]
    pauses = [ops * k // runs for k in range(runs)]
    patcher = Patcher(recorder)
    if args.trace:
        install(patcher)
    try:
        samples = measure(
            workload, ops, recorder, bool(args.trace), pauses,
            lambda: setups.append(timed_setup(args)),
        )
    finally:
        patcher.restore()
        workload.close()

    failed = [s for s in samples if s.problems]
    for sample in failed:
        for problem in sample.problems:
            print(f"op {sample.index} failed: {problem}", file=sys.stderr)
    problems = list(workload.problems)

    if args.trace:
        untraced = child(args, "--seconds", str(args.seconds), "--trace", "0",
                         timeout=CHILD_TIMEOUT)
        if not untraced["correct"]:
            problems.append("the untraced --trace 0 run failed its checks")
        metrics = per_layer(workload, samples, recorder, untraced)
        units = METRICS
        reported = list(METRICS)
        extra = [
            f"tracing overhead: {metrics['bench.trace_overhead_pct'][0]:+.2f}% on op_p50_ref "
            f"({len(samples)} traced ops at {metrics['bench.traced_op_p50_ref'][0]:.4g} vs "
            f"{untraced['attempted']} ops of an untraced run at "
            f"{untraced['metrics']['op_p50_ref']['value']:.4g})",
            f"op self time not attributed to a layer: "
            f"{metrics['bench.op_unattributed_pct'][0]:.2f}% of op wall (median)",
        ]
    else:
        metrics = end_to_end(samples, setups)
        units = END_TO_END
        reported = list(GATED)
        extra = [f"printed only, not in the JSON: {', '.join(m for m in metrics if m not in GATED)}"]
        if args.workload == "serve-warm":
            walls = [s.wall * 1000.0 for s in samples]
            beyond = len(walls) - math.ceil(0.99 * len(walls))
            extra.append(f"op_p99_ms {percentile(walls, 99):.4f} ms "
                         f"(n={len(walls)}, {beyond} ops beyond p99)")
    extra.append(f"reference kernel: median {statistics.median(s.ref for s in samples) * 1000:.2f} "
                 f"ms (n={len(samples)})")
    for problem in problems:
        print(f"run check failed: {problem}", file=sys.stderr)
    extra.append(f"ops: {len(samples) - len(failed)}/{len(samples)} correct, "
                 f"{len(failed)} failed, {workload.unpinned} without a pinned digest "
                 f"(pinned seeds: {scenarios.PINNED_SEEDS.start}-"
                 f"{scenarios.PINNED_SEEDS.stop - 1})")
    report(args, metrics, units, extra)
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]} for name in reported},
    }))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}; run from the root of "
              "a repository checkout", file=sys.stderr)
        return 2
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
