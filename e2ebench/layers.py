"""Which public callables the traced run wraps, and the per-layer table.

Layer names are the program's modules.  Methods are wrapped at their
class; functions bound by ``from ... import`` are wrapped at every
importing module whose name the workloads' call paths look up.
``memory``, ``branch`` and ``telemetry`` run inside ``OOOPipeline.run``
and are not split out; ``validation`` and ``simulation`` are not on
these paths (see README.md).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from spans import Patcher, Span, self_times

#: Per-layer metrics, in print order: name -> unit.  Every workload's
#: traced run reports all of them; a layer a workload does not exercise
#: reads 0.
METRICS: Dict[str, str] = {
    "workloads.trace_ms": "ms",
    "core.decode_ms": "ms",
    "core.warmup_ms": "ms",
    "core.run_ms": "ms",
    "core.runs_per_op": "count",
    "core.ns_per_cycle": "ns",
    "core.cycles_per_op": "count",
    "core.ff_frac": "ratio",
    "reuse.irb_reuse_rate": "ratio",
    "redundancy.pairs_checked_per_op": "count",
    "sampling.select_ms": "ms",
    "sampling.bbv_ms": "ms",
    "sampling.proxies_ms": "ms",
    "sampling.kmeans_ms": "ms",
    "sampling.run_self_ms": "ms",
    "sampling.sites_per_op": "count",
    "sampling.measured_frac": "ratio",
    "sampling.ipc_err_pct": "%",
    "campaign.key_ms": "ms",
    "campaign.store_get_ms": "ms",
    "campaign.store_put_ms": "ms",
    "campaign.self_ms": "ms",
    "experiments.replay_ms": "ms",
    "service.route_experiment_f2_ms": "ms",
    "service.route_experiment_f5_ms": "ms",
    "service.route_result_ms": "ms",
    "service.route_entries_ms": "ms",
    "service.route_stats_ms": "ms",
    "service.route_job_ms": "ms",
    "service.backend_ms": "ms",
    "service.http_self_ms": "ms",
    "service.simulations_executed": "count",
    "bench.traced_op_p50_ms": "ms",
    "bench.traced_op_p50_ref": "ratio",
    "bench.trace_overhead_pct": "%",
    "bench.op_unattributed_pct": "%",
}

#: Span name of the op itself (opened by the harness).
OP = "op"
#: Prefix of the client-side span around one HTTP request.
ROUTE = "service.route."
ROUTES = ("experiment_f2", "experiment_f5", "result", "entries", "stats", "job")


def _after_run(span: Span, args: tuple, kwargs: dict, stats) -> None:
    pipeline = args[0]
    span.attrs["cycles"] = stats.cycles
    span.attrs["ff_cycles"] = pipeline.ff_cycles
    span.attrs["insts"] = len(pipeline.trace)
    span.attrs["pairs_checked"] = stats.pairs_checked
    if stats.irb_lookups:
        span.attrs["irb_lookups"] = stats.irb_lookups
        span.attrs["irb_reuse_hits"] = stats.irb_reuse_hits


def _after_select(span: Span, args: tuple, kwargs: dict, selection) -> None:
    span.attrs["trace"] = id(args[0])
    span.attrs["sites"] = len(selection.sites)


def install(patcher: Patcher) -> None:
    """Wrap every layer boundary the three workloads cross."""
    import repro.sampling as sampling
    from repro.campaign import scheduler
    from repro.campaign import store as store_module
    from repro.campaign.store import ResultStore
    from repro.core import pipeline
    from repro.core.pipeline import OOOPipeline
    from repro.experiments import common
    from repro.sampling import extrapolate, regions
    from repro.service import server
    from repro.service.backends import SqliteBackend
    from repro.simulation import runner

    wrap = patcher.wrap
    wrap(runner, "load_workload", "workloads.trace")
    wrap(scheduler, "decode_trace", "core.decode")
    wrap(pipeline, "decode_trace", "core.decode")
    wrap(OOOPipeline, "warm_up", "core.warmup")
    wrap(OOOPipeline, "run", "core.run", on_return=_after_run)
    # The scheduler's prewarm imports select_regions and run_sampled from
    # the package at call time; run_sampled looks select_regions up in
    # its own module.
    wrap(sampling, "select_regions", "sampling.select", on_return=_after_select)
    wrap(extrapolate, "select_regions", "sampling.select", on_return=_after_select)
    wrap(regions, "profile_trace", "sampling.bbv")
    wrap(regions, "interval_proxies", "sampling.proxies")
    wrap(regions, "select_k", "sampling.kmeans")
    wrap(sampling, "run_sampled", "sampling.run")
    wrap(common, "run_campaign", "campaign.run")
    for module in (scheduler, store_module, server):
        wrap(module, "job_key", "campaign.key")
    wrap(ResultStore, "get", "campaign.store_get")
    wrap(ResultStore, "put", "campaign.store_put")
    wrap(server.ReproServer, "run_experiment", "experiments.replay")
    for method in ("read", "read_raw", "contains", "entries", "stats"):
        wrap(SqliteBackend, method, "service.backend")


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def op_row(spans: Sequence[Span], jobs: int, n_insts: int) -> Dict[str, float]:
    """The per-layer figures of one traced op, from its spans."""
    selfs = self_times(spans)
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + span.duration
        own[span.name] = own.get(span.name, 0.0) + selfs[span.id]
    runs = [s for s in spans if s.name == "core.run"]
    cycles = sum(s.attrs["cycles"] for s in runs)
    lookups = sum(s.attrs.get("irb_lookups", 0) for s in runs)
    sites = {
        s.attrs["trace"]: s.attrs["sites"] for s in spans if s.name == "sampling.select"
    }
    op_span = next(s for s in spans if s.name == OP)
    return {
        "workloads.trace_ms": _ms(total.get("workloads.trace", 0.0)),
        "core.decode_ms": _ms(total.get("core.decode", 0.0)),
        "core.warmup_ms": _ms(total.get("core.warmup", 0.0)),
        "core.run_ms": _ms(total.get("core.run", 0.0)),
        "core.runs_per_op": float(len(runs)),
        "core.ns_per_cycle": total.get("core.run", 0.0) * 1e9 / cycles if cycles else 0.0,
        "core.cycles_per_op": float(cycles),
        "core.ff_frac": sum(s.attrs["ff_cycles"] for s in runs) / cycles if cycles else 0.0,
        "reuse.irb_reuse_rate": (
            sum(s.attrs.get("irb_reuse_hits", 0) for s in runs) / lookups if lookups else 0.0
        ),
        "redundancy.pairs_checked_per_op": float(sum(s.attrs["pairs_checked"] for s in runs)),
        "sampling.select_ms": _ms(total.get("sampling.select", 0.0)),
        "sampling.bbv_ms": _ms(total.get("sampling.bbv", 0.0)),
        "sampling.proxies_ms": _ms(total.get("sampling.proxies", 0.0)),
        "sampling.kmeans_ms": _ms(total.get("sampling.kmeans", 0.0)),
        "sampling.run_self_ms": _ms(own.get("sampling.run", 0.0)),
        "sampling.sites_per_op": float(sum(sites.values())),
        "sampling.measured_frac": (
            sum(s.attrs["insts"] for s in runs) / (jobs * n_insts) if jobs and runs else 0.0
        ),
        "campaign.key_ms": _ms(total.get("campaign.key", 0.0)),
        "campaign.store_get_ms": _ms(total.get("campaign.store_get", 0.0)),
        "campaign.store_put_ms": _ms(total.get("campaign.store_put", 0.0)),
        "campaign.self_ms": _ms(own.get("campaign.run", 0.0)),
        "experiments.replay_ms": _ms(total.get("experiments.replay", 0.0)),
        "service.backend_ms": _ms(total.get("service.backend", 0.0)),
        "service.http_self_ms": _ms(
            sum(own.get(ROUTE + route, 0.0) for route in ROUTES)
        ),
        "bench.op_unattributed_pct": 100.0 * selfs[op_span.id] / op_span.duration,
    }


def route_latencies(spans: Sequence[Span]) -> Dict[str, List[float]]:
    """Client-observed latency (ms) of every request, by route."""
    out: Dict[str, List[float]] = {route: [] for route in ROUTES}
    for span in spans:
        if span.name.startswith(ROUTE):
            out[span.name[len(ROUTE):]].append(_ms(span.duration))
    return out


def table(rows: List[Dict[str, float]], routes: Dict[str, List[float]]) -> Dict[str, float]:
    """Median over traced ops of every per-op figure; routes per request."""
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]} if rows else {}
    for route, latencies in routes.items():
        out[f"service.route_{route}_ms"] = statistics.median(latencies) if latencies else 0.0
    return out
