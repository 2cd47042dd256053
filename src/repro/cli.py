"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — available workloads, models and experiments.
* ``run`` — simulate one workload on one model, print the statistics.
* ``compare`` — SIE vs DIE vs DIE-IRB side by side on one workload.
* ``experiment`` — regenerate one paper table/figure by id.
* ``campaign`` — regenerate several artifacts through the parallel,
  store-backed campaign harness (see ``docs/CAMPAIGNS.md``).
* ``trace`` — one instrumented run: Chrome trace JSON (Perfetto), an
  optional ASCII pipeview, an optional run profile
  (see ``docs/TELEMETRY.md``).
* ``profile diff`` — perun-style degradation check between two run
  profile files; exits non-zero when a metric regressed past the
  threshold.
* ``fuzz`` — differential fuzzing: seeded random programs through the
  functional oracle plus every timing model, invariant-checked, with
  divergences shrunk into a replayable corpus
  (see ``docs/VALIDATION.md``).
* ``sample report`` — phase map, chunk sites and extrapolation weights
  for one workload; ``sample validate`` — sampled-vs-full error gate
  (see ``docs/SAMPLING.md``).  ``run`` and ``campaign`` accept
  ``--sample`` to estimate statistics from selected regions instead of
  simulating whole traces.
* ``serve`` — answer result/experiment/store queries over HTTP straight
  from the store; a warm query executes zero simulations
  (see ``docs/SERVICE.md``).
* ``store stats|gc|migrate`` — store housekeeping: per-kind entry
  counts and sizes, garbage collection (stale temp files, corrupt
  documents), and the directory → sqlite index rebuild.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .campaign import DEFAULT_ROOT, ProgressPrinter, ResultStore, campaign_context
from .core import MachineConfig
from .experiments import EXPERIMENTS, get_experiment
from .isa import FUClass
from .sampling.plan import DEFAULT_CHUNK, DEFAULT_INTERVAL, SamplingPlan
from .simulation import MODELS, format_table, ipc_loss_pct, run_workload
from .workloads import APP_NAMES


def _add_sampling_args(parser: argparse.ArgumentParser) -> None:
    """Install the ``--sample`` switch (the default sampling plan)."""
    parser.add_argument(
        "--sample", action="store_true",
        help="cycle-simulate selected regions only and extrapolate "
             "(docs/SAMPLING.md)",
    )


def _sampling_plan(args: argparse.Namespace) -> Optional[SamplingPlan]:
    """The default plan when ``--sample`` is given, else ``None``."""
    return SamplingPlan() if args.sample else None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "DIE-IRB reproduction: instruction-level temporal redundancy "
            "with an instruction reuse buffer (ISCA 2004)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, models and experiments")

    run = sub.add_parser("run", help="simulate one workload")
    run.add_argument("workload", choices=APP_NAMES)
    run.add_argument("--model", choices=sorted(MODELS), default="sie")
    run.add_argument("--n", type=int, default=40_000, help="dynamic instructions")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--scale-alu", type=int, default=1, metavar="K")
    run.add_argument("--scale-ruu", type=int, default=1, metavar="K")
    run.add_argument("--scale-widths", type=int, default=1, metavar="K")
    run.add_argument("--no-warmup", action="store_true")
    run.add_argument("--json", action="store_true", help="emit raw statistics as JSON")
    _add_sampling_args(run)

    compare = sub.add_parser("compare", help="SIE vs DIE vs DIE-IRB")
    compare.add_argument("workload", choices=APP_NAMES)
    compare.add_argument("--n", type=int, default=40_000)
    compare.add_argument("--seed", type=int, default=1)
    compare.add_argument(
        "--models",
        default="sie,die,die-irb",
        help=f"comma-separated subset of: {', '.join(sorted(MODELS))}",
    )
    compare.add_argument(
        "--json", action="store_true", help="emit the comparison rows as JSON"
    )

    exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    exp.add_argument("id", help=f"one of {', '.join(EXPERIMENTS)}")
    exp.add_argument("--apps", default=None, help="comma-separated subset")
    exp.add_argument("--n", type=int, default=None, help="instructions per run")
    exp.add_argument("--seed", type=int, default=None, help="workload seed")
    exp.add_argument(
        "--json", action="store_true",
        help="emit the artifact's structured rows as JSON",
    )

    trace = sub.add_parser(
        "trace", help="instrumented run: Perfetto trace, pipeview, profile"
    )
    trace.add_argument("workload", choices=APP_NAMES)
    trace.add_argument("--model", choices=sorted(MODELS), default="sie")
    trace.add_argument("--n", type=int, default=20_000, help="dynamic instructions")
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument(
        "--out", default="trace.json", metavar="FILE",
        help="Chrome trace-event JSON output (Perfetto-loadable)",
    )
    trace.add_argument(
        "--pipeview", type=int, default=0, metavar="K",
        help="also print an ASCII lifetime view of the first K instructions",
    )
    trace.add_argument(
        "--profile", default=None, metavar="FILE",
        help="also write a run profile (for `repro profile diff`)",
    )
    trace.add_argument("--no-warmup", action="store_true")
    _add_sampling_args(trace)

    prof = sub.add_parser("profile", help="run-profile tooling")
    prof_sub = prof.add_subparsers(dest="profile_command", required=True)
    pdiff = prof_sub.add_parser(
        "diff", help="compare two run profiles (non-zero exit on regression)"
    )
    pdiff.add_argument("baseline", help="profile JSON path")
    pdiff.add_argument("target", help="profile JSON path")
    pdiff.add_argument(
        "--threshold", type=float, default=5.0, metavar="PCT",
        help="relative change (%%) tolerated before a verdict (default 5)",
    )
    pdiff.add_argument(
        "--json", action="store_true", help="emit the comparison as JSON"
    )

    camp = sub.add_parser(
        "campaign",
        help="regenerate artifacts via the parallel, store-backed harness",
    )
    camp.add_argument("ids", nargs="+", help=f"experiment ids ({', '.join(EXPERIMENTS)})")
    camp.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="worker processes (default 1 = serial)")
    camp.add_argument("--apps", default=None, help="comma-separated subset")
    camp.add_argument("--n", type=int, default=None, help="instructions per run")
    camp.add_argument("--seed", type=int, default=None, help="workload seed")
    camp.add_argument("--store-dir", default=None, metavar="DIR",
                      help="result-store root (default results/store)")
    camp.add_argument("--backend", choices=("dir", "sqlite"), default="dir",
                      help="local store backend (default dir; "
                           "sqlite adds a metadata index)")
    camp.add_argument("--no-store", action="store_true",
                      help="neither read nor write the result store")
    camp.add_argument("--clear-store", action="store_true",
                      help="empty the store before running")
    camp.add_argument("--quiet", action="store_true",
                      help="suppress per-job progress on stderr")
    _add_sampling_args(camp)

    serve = sub.add_parser(
        "serve",
        help="HTTP API over the result store; warm queries simulate nothing",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321)
    serve.add_argument("--store-dir", default=None, metavar="DIR",
                       help="result-store root (default results/store)")
    serve.add_argument("--backend", choices=("dir", "sqlite"), default="sqlite",
                       help="store backend (default sqlite: indexed listing)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request logging on stderr")

    st = sub.add_parser("store", help="result-store housekeeping")
    st_sub = st.add_subparsers(dest="store_command", required=True)
    st_stats = st_sub.add_parser(
        "stats", help="entry counts and on-disk size per kind"
    )
    st_gc = st_sub.add_parser(
        "gc",
        help="prune stale temp files and corrupt documents",
    )
    st_gc.add_argument("--dry-run", action="store_true",
                       help="report, do not delete")
    st_migrate = st_sub.add_parser(
        "migrate",
        help="(re)build the sqlite metadata index from the store files",
    )
    for st_cmd in (st_stats, st_gc, st_migrate):
        st_cmd.add_argument("--store-dir", default=None, metavar="DIR",
                            help="result-store root (default results/store)")
        st_cmd.add_argument("--backend", choices=("dir", "sqlite"),
                            default="dir", help="local store backend")
        st_cmd.add_argument("--json", action="store_true",
                            help="emit the report as JSON")

    sample = sub.add_parser(
        "sample", help="sampled-simulation tooling (docs/SAMPLING.md)"
    )
    sample_sub = sample.add_subparsers(dest="sample_command", required=True)
    sreport = sample_sub.add_parser(
        "report", help="phase map, chunk sites and region weights"
    )
    sreport.add_argument("workload", choices=APP_NAMES)
    sreport.add_argument("--n", type=int, default=40_000,
                         help="dynamic instructions")
    sreport.add_argument("--seed", type=int, default=1)
    sreport.add_argument(
        "--json", action="store_true",
        help="emit the full selection (the phase-map artifact) as JSON",
    )
    svalidate = sample_sub.add_parser(
        "validate",
        help="sampled-vs-full error gate (non-zero exit on breach)",
    )
    svalidate.add_argument("--apps", default=None,
                           help="comma-separated subset (default: all)")
    svalidate.add_argument(
        "--models", default="sie,die,die-irb",
        help=f"comma-separated subset of: {', '.join(sorted(MODELS))}",
    )
    svalidate.add_argument("--n", type=int, default=40_000,
                           help="dynamic instructions per run")
    svalidate.add_argument("--seed", type=int, default=1)
    svalidate.add_argument(
        "--max-geomean", type=float, default=0.03, metavar="FRAC",
        help="per-model geomean IPC error gate (default 0.03)",
    )
    svalidate.add_argument(
        "--max-worst", type=float, default=0.06, metavar="FRAC",
        help="worst-pair IPC error gate (default 0.06)",
    )
    svalidate.add_argument(
        "--min-reduction", type=float, default=5.0, metavar="X",
        help="every app must cycle-simulate at least X times fewer "
             "instructions than the full run (default 5)",
    )
    svalidate.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="worker processes (default 1 = serial)")
    svalidate.add_argument("--store-dir", default=None, metavar="DIR",
                           help="result-store root (default results/store)")
    svalidate.add_argument("--no-store", action="store_true",
                           help="neither read nor write the result store")
    svalidate.add_argument("--json", action="store_true",
                           help="emit the error matrix as JSON")

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing + invariant validation across all models",
    )
    fuzz.add_argument("--n", type=int, default=200, metavar="CASES",
                      help="number of random programs (default 200)")
    fuzz.add_argument("--seed", type=int, default=1, help="campaign seed")
    fuzz.add_argument(
        "--models", default=None,
        help=f"comma-separated subset of: {', '.join(sorted(MODELS))} "
             "(default: all)",
    )
    fuzz.add_argument("--n-insts", type=int, default=None, metavar="N",
                      help="dynamic instructions per case")
    fuzz.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="worker processes (default 1 = serial)")
    fuzz.add_argument("--replay", default=None, metavar="KEY",
                      help="re-run one stored corpus entry instead of fuzzing")
    fuzz.add_argument("--list", action="store_true", dest="list_corpus",
                      help="list stored corpus entries and exit")
    fuzz.add_argument("--store-dir", default=None, metavar="DIR",
                      help="result-store root (default results/store)")
    fuzz.add_argument("--no-store", action="store_true",
                      help="do not persist divergent cases")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="persist divergent cases without minimizing them")
    fuzz.add_argument(
        "--bug", action="store_true",
        help="inject a synthetic divergence (end-to-end harness self-test)",
    )
    fuzz.add_argument("--quiet", action="store_true",
                      help="suppress progress on stderr")

    return parser


def _cmd_list() -> int:
    print("workloads:", ", ".join(APP_NAMES))
    print("models:   ", ", ".join(sorted(MODELS)))
    print("experiments:")
    for exp in EXPERIMENTS.values():
        tag = " (reconstructed)" if exp.reconstructed else ""
        print(f"  {exp.id:4s} {exp.title}{tag}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = MachineConfig.baseline().scaled(
        alu=args.scale_alu, ruu=args.scale_ruu, widths=args.scale_widths
    )
    plan = _sampling_plan(args)
    sampled = None
    if plan is not None:
        from .sampling import run_sampled
        from .simulation import get_trace

        trace = get_trace(args.workload, args.n, args.seed)
        sampled = run_sampled(
            trace,
            plan,
            model=args.model,
            config=config,
            warmup=not args.no_warmup,
        )
        stats = sampled.stats
    else:
        result = run_workload(
            args.workload,
            model=args.model,
            n_insts=args.n,
            seed=args.seed,
            config=config,
            warmup=not args.no_warmup,
        )
        stats = result.stats
    if args.json:
        import json

        if sampled is not None:
            from .sampling import phase_of

            selection = sampled.selection
            payload = {
                "stats": stats.to_dict(),
                "sampling": {
                    "plan": plan.to_dict(),
                    "phases": len(set(phase_of(trace))),
                    "regions": len(selection.regions),
                    "sites": len(selection.sites),
                    "simulated_insts": selection.simulated_insts,
                    "coverage": selection.coverage,
                },
            }
            print(json.dumps(payload, indent=2, default=str))
            return 0
        print(json.dumps(stats.to_dict(), indent=2, default=str))
        return 0
    tag = "sampled, " if sampled is not None else ""
    print(f"{args.workload} on {args.model.upper()} ({tag}{args.n} instructions)")
    if sampled is not None:
        selection = sampled.selection
        print(
            f"  simulated:        {selection.simulated_insts}/{args.n} "
            f"instructions ({selection.coverage:.1%}) in "
            f"{len(selection.sites)} sites / {len(selection.regions)} regions"
        )
    print(f"  IPC:              {stats.ipc:.3f}")
    print(f"  cycles:           {stats.cycles}")
    print(f"  mispredict rate:  {stats.mispredict_rate:.3f}")
    alu_util = stats.fu_utilization(FUClass.INT_ALU, config.int_alu)
    print(f"  int-ALU util:     {alu_util:.2f}")
    if stats.irb_lookups:
        print(f"  IRB PC-hit rate:  {stats.irb_pc_hit_rate:.2f}")
        print(f"  IRB reuse rate:   {stats.irb_reuse_rate:.2f}")
    if stats.pairs_checked:
        print(f"  pairs checked:    {stats.pairs_checked}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    models = _selection("models", args.models, list(MODELS))
    if models is None:
        return 2
    if "sie" not in models:
        models.insert(0, "sie")  # the loss baseline
    rows = []
    baseline_ipc: Optional[float] = None
    for model in models:
        result = run_workload(args.workload, model=model, n_insts=args.n, seed=args.seed)
        if baseline_ipc is None:
            baseline_ipc = result.ipc
        rows.append(
            (
                model.upper(),
                result.ipc,
                ipc_loss_pct(baseline_ipc, result.ipc),
                result.stats.irb_reuse_rate,
            )
        )
    if args.json:
        import json

        payload = {
            "workload": args.workload,
            "n_insts": args.n,
            "seed": args.seed,
            "baseline": "sie",
            "models": [
                {
                    "model": name.lower(),
                    "ipc": ipc,
                    "loss_pct_vs_sie": loss,
                    "irb_reuse_rate": reuse,
                }
                for name, ipc, loss, reuse in rows
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(
        format_table(
            ["model", "IPC", "loss% vs SIE", "reuse"],
            rows,
            title=f"{args.workload} ({args.n} instructions)",
        )
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    try:
        experiment = get_experiment(args.id)
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2
    kwargs = _experiment_kwargs(args)
    if kwargs is None:
        return 2
    result = experiment.run(**kwargs)
    if args.json:
        import json

        payload = {
            "id": experiment.id,
            "title": experiment.title,
            "reconstructed": experiment.reconstructed,
            "rows": result.rows(),
        }
        print(json.dumps(payload, indent=2, default=str))
        return 0
    print(result.render())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .telemetry import (
        MetricsCollector,
        RecordingTracer,
        TeeTracer,
        build_profile,
        chrome_trace,
        render_pipeview,
        save_profile,
    )

    recorder = RecordingTracer()
    collector = MetricsCollector()
    plan = _sampling_plan(args)
    if plan is not None:
        from .sampling import run_sampled
        from .simulation import get_trace

        result = run_sampled(
            get_trace(args.workload, args.n, args.seed),
            plan,
            model=args.model,
            warmup=not args.no_warmup,
            tracer=TeeTracer(recorder, collector),
        )
    else:
        result = run_workload(
            args.workload,
            model=args.model,
            n_insts=args.n,
            seed=args.seed,
            warmup=not args.no_warmup,
            tracer=TeeTracer(recorder, collector),
        )
    meta = {
        "workload": args.workload,
        "model": args.model,
        "n_insts": args.n,
        "seed": args.seed,
        "cycles": result.stats.cycles,
        "ipc": result.stats.ipc,
    }
    if plan is not None:
        meta["sampling"] = plan.to_dict()
    document = chrome_trace(recorder.events, meta)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    print(
        f"{args.workload} on {args.model.upper()}: {result.stats.cycles} cycles, "
        f"IPC {result.stats.ipc:.3f}",
        file=sys.stderr,
    )
    print(
        f"wrote {len(document['traceEvents'])} trace events to {args.out}"
        + (f" ({recorder.dropped} dropped)" if recorder.dropped else ""),
        file=sys.stderr,
    )
    if args.pipeview:
        print(render_pipeview(recorder.events, max_insts=args.pipeview))
    profile = build_profile(
        result.stats.to_dict(), collector,
        args.workload, args.model, args.n, args.seed,
    )
    if args.profile:
        save_profile(profile, args.profile)
        print(f"wrote run profile to {args.profile}", file=sys.stderr)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from .telemetry import diff_profiles, load_profile

    try:
        baseline = load_profile(args.baseline)
        target = load_profile(args.target)
    except (OSError, ValueError) as error:
        print(error, file=sys.stderr)
        return 2
    diff = diff_profiles(baseline, target, threshold_pct=args.threshold)
    if args.json:
        print(json.dumps(diff.to_dict(), indent=2))
    else:
        print(diff.render())
    return 1 if diff.regressed else 0


def _selection(kind: str, text: str, known: Sequence[str]) -> Optional[List[str]]:
    """The names in comma-separated ``text``; ``None`` (reported) if empty or unknown."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        print(f"no {kind} given", file=sys.stderr)
        return None
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown {kind}: {', '.join(unknown)}", file=sys.stderr)
        return None
    return names


def _experiment_kwargs(args: argparse.Namespace) -> Optional[dict]:
    """Run keywords from ``--apps/--n/--seed``; ``None`` (reported) on bad apps."""
    kwargs: dict = {}
    if args.apps is not None:
        apps = _selection("workloads", args.apps, APP_NAMES)
        if apps is None:
            return None
        kwargs["apps"] = tuple(apps)
    if args.n:
        kwargs["n_insts"] = args.n
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    return kwargs


def _open_store(store_dir: Optional[str], backend: str = "dir") -> Optional[ResultStore]:
    """A dir/sqlite store over a local root; ``None`` (reported) on a bad spec."""
    from .service.backends import open_backend

    spec = store_dir if store_dir else str(DEFAULT_ROOT)
    try:
        return ResultStore(backend=open_backend(spec, backend=backend))
    except ValueError as error:
        print(error, file=sys.stderr)
        return None


def _cmd_campaign(args: argparse.Namespace) -> int:
    try:
        experiments = [get_experiment(exp_id) for exp_id in args.ids]
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2
    kwargs = _experiment_kwargs(args)
    if kwargs is None:
        return 2
    store: Optional[ResultStore] = None
    if not args.no_store:
        store = _open_store(args.store_dir, args.backend)
        if store is None:
            return 2
        if args.clear_store:
            removed = store.clear()
            print(f"store cleared ({removed} entries)", file=sys.stderr)
    progress = ProgressPrinter(enabled=not args.quiet)
    plan = _sampling_plan(args)
    if plan is not None:
        print(
            f"sampling: interval={DEFAULT_INTERVAL} chunk={DEFAULT_CHUNK} "
            f"budget={plan.budget:.0%}",
            file=sys.stderr,
        )
    with campaign_context(
        jobs_n=args.jobs, store=store, progress=progress, sampling=plan,
    ) as context:
        for experiment in experiments:
            result = experiment.run(**kwargs)
            print(result.render())
            print()
    print(
        f"campaign: {context.executed} simulation(s) run, "
        f"{context.store_hits} store hit(s)",
        file=sys.stderr,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.server import serve

    store = _open_store(args.store_dir, args.backend)
    if store is None:
        return 2
    log = None
    if not args.quiet:
        def log(line: str) -> None:
            print(line, file=sys.stderr)
    server = serve(store, host=args.host, port=args.port, log=log)
    print(f"serving {store.backend.describe()} on {server.url}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    import json

    from .service.backends import SqliteBackend
    from .service.maintenance import collect_garbage

    store = _open_store(args.store_dir, args.backend)
    if store is None:
        return 2
    if args.store_command == "migrate":
        rows = SqliteBackend(store.root).rebuild_index()
        if args.json:
            print(json.dumps({"root": str(store.root), "indexed": rows}))
        else:
            print(f"indexed {rows} entr{'y' if rows == 1 else 'ies'} in {store.root}")
        return 0

    if args.store_command == "stats":
        payload = store.backend.stats().to_dict()
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(f"store: {payload['backend']}")
        for kind, count in payload["entries"].items():
            size = payload["bytes"][kind]
            print(f"  {kind + ':':9s} {count:6d} entries, {size} bytes")
        if payload.get("index_bytes"):
            print(f"  index:    {payload['index_bytes']} bytes")
        if payload.get("tmp_files"):
            print(f"  tmp:      {payload['tmp_files']} stale temp file(s)")
        print(f"  total:    {payload['total_entries']} entries, "
              f"{payload['total_bytes']} bytes")
        return 0

    if args.store_command == "gc":
        report = collect_garbage(store.backend, dry_run=args.dry_run)
        payload = report.to_dict()
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        verb = "would remove" if args.dry_run else "removed"
        print(
            f"gc: {verb} {payload['total_removed']} item(s) "
            f"({payload['tmp_removed']} temp, "
            f"{sum(payload['corrupt'].values())} corrupt), "
            f"{payload['bytes_reclaimed']} bytes"
        )
        return 0
    raise AssertionError(f"unhandled store command {args.store_command!r}")


def _render_phase_map(selection: "object", phases: str) -> List[str]:
    """The phase map as paired text rows: phase letters over site marks."""
    measured = set()
    padded = set()
    for site in selection.sites:
        first = site.start // selection.interval_length
        last = (site.end - 1) // selection.interval_length
        for index in range(first, last + 1):
            (measured if index in site.measured else padded).add(index)
    marks = "".join(
        "^" if i in measured else "~" if i in padded else " "
        for i in range(len(phases))
    )
    lines = []
    width = 72
    for offset in range(0, len(phases), width):
        lines.append(f"  {offset:6d}  {phases[offset:offset + width]}")
        mark_row = marks[offset:offset + width]
        if mark_row.strip():
            lines.append(f"          {mark_row}")
    return lines


def _cmd_sample_report(args: argparse.Namespace) -> int:
    from .sampling import phase_of, select_regions
    from .sampling.regions import phase_letter
    from .simulation import get_trace

    plan = SamplingPlan()
    trace = get_trace(args.workload, args.n, args.seed)
    selection = select_regions(trace, plan)
    phase_map = phase_of(trace)
    phases = len(set(phase_map))
    if args.json:
        import json

        payload = {
            "workload": args.workload,
            "n_insts": args.n,
            "seed": args.seed,
            "plan": plan.to_dict(),
            "interval_length": selection.interval_length,
            "intervals": len(phase_map),
            "phases": phases,
            "phase_of": list(phase_map),
            "fingerprints": list(selection.fingerprints),
            "sites": [
                {"start": s.start, "end": s.end, "measured": sorted(s.measured)}
                for s in selection.sites
            ],
            "regions": [
                {
                    "index": r.index,
                    "phase": phase_map[r.index],
                    "start": r.start,
                    "end": r.end,
                    "weight": r.weight,
                }
                for r in selection.regions
            ],
            "simulated_insts": selection.simulated_insts,
            "measured_insts": selection.measured_insts,
            "coverage": selection.coverage,
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"{args.workload}: {args.n} instructions, "
        f"{len(phase_map)} intervals x {selection.interval_length}, "
        f"{phases} phases"
    )
    print("phase map ('^' measured interval, '~' functional pad):")
    letters = "".join(map(phase_letter, phase_map))
    for line in _render_phase_map(selection, letters):
        print(line)
    print(
        f"sites: {len(selection.sites)} "
        f"({len(selection.regions)} measured regions); cycle core simulates "
        f"{selection.simulated_insts}/{args.n} instructions "
        f"({selection.coverage:.1%})"
    )
    rows = [
        (
            region.index,
            phase_letter(phase_map[region.index]),
            f"{region.start}..{region.end}",
            region.length,
            f"{region.weight:.5f}",
        )
        for region in selection.regions
    ]
    print(
        format_table(
            ["interval", "phase", "insts", "len", "weight V_j"],
            rows,
            title="extrapolation weights (sum = 1)",
        )
    )
    return 0


def _cmd_sample_validate(args: argparse.Namespace) -> int:
    from .sampling import geomean_ipc_error, measure_errors

    models = _selection("models", args.models, list(MODELS))
    if models is None:
        return 2
    apps = (
        _selection("workloads", args.apps, APP_NAMES)
        if args.apps is not None
        else list(APP_NAMES)
    )
    if apps is None:
        return 2
    plan = SamplingPlan()
    store: Optional[ResultStore] = None
    if not args.no_store:
        store = _open_store(args.store_dir)
        if store is None:
            return 2
    with campaign_context(jobs_n=args.jobs, store=store):
        errors = measure_errors(apps, models, args.n, plan, seed=args.seed)

    breaches: List[str] = []
    per_model = {model: [e for e in errors if e.model == model] for model in models}
    for model, model_errors in per_model.items():
        geomean = geomean_ipc_error(model_errors)
        worst = max(model_errors, key=lambda e: e.ipc_error)
        if geomean > args.max_geomean:
            breaches.append(
                f"{model}: geomean IPC error {geomean:.2%} > {args.max_geomean:.2%}"
            )
        if worst.ipc_error > args.max_worst:
            breaches.append(
                f"{model}: {worst.workload} IPC error {worst.ipc_error:.2%} "
                f"> {args.max_worst:.2%}"
            )
    for error in errors:
        reduction = 1.0 / error.coverage if error.coverage else float("inf")
        if reduction < args.min_reduction:
            breaches.append(
                f"{error.workload}: only {reduction:.1f}x fewer cycle-core "
                f"instructions (< {args.min_reduction:.0f}x)"
            )

    if args.json:
        import json

        payload = {
            "plan": plan.to_dict(),
            "n_insts": args.n,
            "seed": args.seed,
            "errors": [e.to_dict() for e in errors],
            "geomean_ipc_error": {
                model: geomean_ipc_error(per_model[model]) for model in models
            },
            "breaches": breaches,
        }
        print(json.dumps(payload, indent=2))
        return 1 if breaches else 0

    rows = [
        (
            e.workload,
            e.model,
            f"{e.full_ipc:.3f}",
            f"{e.sampled_ipc:.3f}",
            f"{e.ipc_error:.2%}",
            f"{e.dup_bw_error:.3f}",
            f"{e.coverage:.1%}",
        )
        for e in errors
    ]
    print(
        format_table(
            ["app", "model", "full IPC", "sampled", "IPC err", "dup-bw err",
             "coverage"],
            rows,
            title=f"sampled vs full ({args.n} instructions)",
        )
    )
    for model in models:
        print(f"geomean IPC error [{model}]: {geomean_ipc_error(per_model[model]):.2%}")
    if breaches:
        for breach in breaches:
            print(f"GATE BREACH: {breach}", file=sys.stderr)
        return 1
    print("all gates passed", file=sys.stderr)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.sample_command == "report":
        return _cmd_sample_report(args)
    if args.sample_command == "validate":
        return _cmd_sample_validate(args)
    raise AssertionError(f"unhandled sample command {args.sample_command!r}")


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .validation import DEFAULT_CASE_INSTS, replay_case, run_fuzz
    from .validation.engine import CaseOutcome

    store: Optional[ResultStore] = None
    if not args.no_store:
        store = _open_store(args.store_dir)
        if store is None:
            return 2

    if args.list_corpus:
        if store is None:
            print("--list needs a store (drop --no-store)", file=sys.stderr)
            return 2
        count = 0
        for key in store.fuzz_keys():
            document = store.get_fuzz(key) or {}
            invariants = sorted(
                {d["invariant"] for d in document.get("divergences", ())}
            )
            meta = document.get("meta", {})
            print(
                f"{key}  family={meta.get('family', '?')} "
                f"invariants={','.join(invariants) or '?'}"
            )
            count += 1
        print(f"{count} corpus entr{'y' if count == 1 else 'ies'}", file=sys.stderr)
        return 0

    models = None
    if args.models is not None:
        models = _selection("models", args.models, list(MODELS))
        if models is None:
            return 2

    if args.replay:
        if store is None:
            print("--replay needs a store (drop --no-store)", file=sys.stderr)
            return 2
        try:
            divergences, document = replay_case(args.replay, store, models)
        except KeyError as error:
            print(error, file=sys.stderr)
            return 2
        meta = document.get("meta", {})
        print(
            f"replayed {args.replay[:16]}… "
            f"(family={meta.get('family', '?')}, "
            f"{len(document['spec']['program']['insts'])} static instructions, "
            f"{document['spec']['n_insts']} dynamic)"
        )
        if not divergences:
            print("divergence no longer reproduces (fixed)")
            return 0
        for divergence in divergences:
            print(f"  {divergence.invariant} [{divergence.model}] {divergence.detail}")
        return 1

    n_insts = args.n_insts if args.n_insts is not None else DEFAULT_CASE_INSTS

    def progress(done: int, total: int, outcome: CaseOutcome) -> None:
        if args.quiet:
            return
        if outcome.divergences:
            first = outcome.divergences[0]
            print(
                f"fuzz [{done}/{total}] case {outcome.index} "
                f"({outcome.family}): DIVERGED {first.invariant} "
                f"[{first.model}]",
                file=sys.stderr,
            )
        elif done % 50 == 0 or done == total:
            print(f"fuzz [{done}/{total}]", file=sys.stderr)

    report = run_fuzz(
        args.n,
        seed=args.seed,
        models=models,
        n_insts=n_insts,
        store=store,
        do_shrink=not args.no_shrink,
        synthetic_bug=args.bug,
        jobs_n=args.jobs,
        progress=progress,
    )
    print(
        f"fuzz: {report.cases} case(s) over {len(report.models)} model(s), "
        f"{len(report.findings)} divergence(s)"
    )
    for finding in report.findings:
        shrunk = (
            f"shrunk to {finding.shrink.static_insts} static / "
            f"{finding.shrink.n_insts} dynamic"
            if finding.shrink is not None
            else "not shrunk"
        )
        print(f"  case {finding.outcome.index} ({finding.outcome.family}): {shrunk}")
        for divergence in finding.outcome.divergences:
            print(
                f"    {divergence.invariant} [{divergence.model}] "
                f"{divergence.detail}"
            )
        if finding.key and store is not None:
            print(f"    replay: repro fuzz --replay {finding.key}")
    return 1 if report.findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "sample":
        return _cmd_sample(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    raise AssertionError(f"unhandled command {args.command!r}")
