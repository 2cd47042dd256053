"""Shared infrastructure for the per-figure experiment modules.

Every experiment module exposes ``run(apps=..., n_insts=..., seed=...)``
returning a result object with ``rows()`` (structured data) and
``render()`` (the paper-style text table).  ``n_insts`` trades fidelity
for wall-clock time; the defaults regenerate each figure in minutes on a
laptop.

The store-backed experiments are declarations for :func:`build_table`:
the model variants to simulate, one ``(header, fn)`` pair per column,
and the table's title, precision and trailing note.  Their result, and
that of the direct experiments T2 and F11, is a :class:`Table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..campaign import Job, current_context, run_campaign
from ..core import MachineConfig, SimStats
from ..reuse import IRBConfig
from ..simulation import RunResult, format_table, get_trace, ipc_loss_pct, simulate
from ..workloads import APP_NAMES

#: Default dynamic instruction count per simulation.
DEFAULT_N = 60_000

#: Default benchmark set: the paper's 12 SPEC2000 applications.
DEFAULT_APPS: Tuple[str, ...] = APP_NAMES


@dataclass
class AppRun:
    """All model results for one application under one experiment."""

    app: str
    n_insts: int
    seed: int
    results: Dict[Hashable, RunResult] = field(default_factory=dict)

    def ipc(self, key: Hashable) -> float:
        return self.results[key].ipc

    def stats(self, key: Hashable) -> SimStats:
        return self.results[key].stats

    def loss(self, key: Hashable, baseline: str = "sie") -> float:
        """% IPC loss of ``key`` relative to ``baseline`` (SIE)."""
        return ipc_loss_pct(self.ipc(baseline), self.ipc(key))


#: One experiment variant: (result key, model name, machine config, IRB
#: config).  The key is a label, usually a string; a sweep keys each
#: variant by its swept value.
ModelSpec = Tuple[Hashable, str, Optional[MachineConfig], Optional[IRBConfig]]


def plain(model: str) -> ModelSpec:
    """``model`` on the paper-baseline machine and IRB, keyed by its name."""
    return (model, model, None, None)


#: The reference every IPC loss is measured against.
SIE = plain("sie")


def run_models(
    app: str,
    models: Sequence[ModelSpec],
    n_insts: int = DEFAULT_N,
    seed: int = 1,
) -> AppRun:
    """Simulate one app under several (key, model, config, irb) variants.

    The trace is generated once and shared across all variants.  This is
    the *direct* path: results keep their live pipeline objects, for T2,
    which tabulates cache miss rates read from the live hierarchy beside
    ``SimStats``.  Everything else should go through :func:`run_apps`,
    which parallelises and hits the campaign result store.
    """
    trace = get_trace(app, n_insts, seed)
    out = AppRun(app=app, n_insts=n_insts, seed=seed)
    for key, model, config, irb_config in models:
        out.results[key] = simulate(
            trace, model=model, config=config, irb_config=irb_config
        )
    return out


def run_apps(
    apps: Sequence[str],
    models: Sequence[ModelSpec],
    n_insts: int = DEFAULT_N,
    seed: int = 1,
) -> Dict[str, AppRun]:
    """Simulate every app under every variant through the campaign layer.

    The whole (app x variant) batch is submitted as one campaign, so an
    ambient :func:`repro.campaign.campaign_context` parallelises it
    across worker processes and answers repeated specs from the result
    store.  Without a context it degrades to the serial in-process path
    with identical statistics.  Returned ``RunResult``s carry no live
    pipeline (stats only).
    """
    context = current_context()
    sampling = context.sampling if context is not None else None
    jobs: List[Job] = []
    labels: List[Tuple[str, Hashable]] = []
    for app in apps:
        for key, model, config, irb_config in models:
            jobs.append(
                Job(
                    workload=app,
                    n_insts=n_insts,
                    seed=seed,
                    model=model,
                    config=config,
                    irb_config=irb_config,
                    sampling=sampling,
                )
            )
            labels.append((app, key))
    outcome = run_campaign(jobs)
    out = {app: AppRun(app=app, n_insts=n_insts, seed=seed) for app in apps}
    for (app, key), job_result in zip(labels, outcome.results):
        out[app].results[key] = RunResult(
            model=job_result.job.model, workload=app, stats=job_result.stats
        )
    return out


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (the paper averages loss percentages this way)."""
    values = list(values)
    if not values:
        raise ValueError("mean of no values")
    return sum(values) / len(values)


#: One table column: its header and the function that computes a cell.
Column = Tuple[str, Callable[..., object]]


@dataclass(frozen=True)
class Table:
    """An experiment's result: a titled table under headers.

    ``body`` holds one row per app (or per swept value), each led by its
    label; ``rows()`` appends the column means as an ``average`` row
    when ``average`` is set.
    """

    title: str
    headers: Tuple[str, ...]
    body: Tuple[Tuple[object, ...], ...]
    precision: int = 2
    average: bool = False
    note: str = ""

    def rows(self) -> List[Tuple[object, ...]]:
        rows = list(self.body)
        if self.average:
            rows.append(("average", *(self.mean(h) for h in self.headers[1:])))
        return rows

    def column(self, header: str) -> Dict[object, object]:
        """The ``header`` column keyed by row label (app or swept value)."""
        index = self.headers.index(header)
        return {row[0]: row[index] for row in self.body}

    def mean(self, header: str) -> float:
        """Mean of the ``header`` column over the body rows."""
        index = self.headers.index(header)
        return mean([row[index] for row in self.body])

    def render(self) -> str:
        table = format_table(
            self.headers, self.rows(), precision=self.precision, title=self.title
        )
        return table + self.note


def build_table(
    title: str,
    models: Sequence[ModelSpec],
    columns: Sequence[Column],
    apps: Sequence[str],
    n_insts: int,
    seed: int,
    *,
    precision: int = 2,
    average: bool = False,
    note: str = "",
    sweep: Optional[Tuple[str, Sequence[Hashable]]] = None,
) -> Table:
    """Simulate ``models`` on ``apps`` through :func:`run_apps` and tabulate.

    Without ``sweep`` there is one row per app: the app, then each
    column's ``fn(run)`` on that app's :class:`AppRun`.  With
    ``sweep=(header, values)`` there is one row per swept value: the
    value, then each column's ``fn(run, value)`` averaged over apps.
    """
    runs = run_apps(apps, models, n_insts=n_insts, seed=seed)
    if sweep is None:
        label = "app"
        body = [(app, *(fn(runs[app]) for _, fn in columns)) for app in apps]
    else:
        label, values = sweep
        body = [
            (value, *(mean([fn(runs[app], value) for app in apps]) for _, fn in columns))
            for value in values
        ]
    headers = (label, *(header for header, _ in columns))
    return Table(title, headers, tuple(body), precision, average, note)
