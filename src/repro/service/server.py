"""``repro serve`` — answer store queries over HTTP, simulate nothing.

The server holds one open :class:`~repro.campaign.store.ResultStore`
and answers every route from it.  It never constructs a pipeline: the
experiment route runs the registry module inside a ``store_only``
campaign context, so a query whose results are not all in the store is
refused with HTTP 409 (and the count of missing jobs) instead of
simulating.  ``/store/stats`` reports ``simulations_executed`` — the
tests and the CI ``serve-smoke`` job assert it stays 0 across a warm
query replay.

Routes::

    GET  /healthz                       liveness + store backend
    GET  /result/<key>                  raw stored result document
    GET  /profile/<key>                 raw telemetry run-profile side-car
    GET  /fuzz/<key>                    raw fuzz-corpus document
    GET  /entries?kind=&workload=&model=   filtered metadata listing
    GET  /store/stats                   per-kind counts/bytes + counters
    GET  /experiment/<id>?...           store-only experiment replay
    GET  /diff?baseline=&target=&threshold=   stored-profile degradation check
    POST /job                           job spec -> content key resolution

The server has no write route: the store is written only by campaigns
running next to it, and ``BaseHTTPRequestHandler`` answers a PUT with
501.  Document routes return the store's exact bytes (``read_raw``), so
a response is byte-identical to the underlying file — the property the
CI smoke job relies on.

The handler never prints: request logging goes through the server's
``log`` callback (the CLI passes a stderr writer; tests pass ``None``).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..campaign import (
    StoreMissError,
    campaign_context,
    job_from_spec,
    job_key,
)
from ..campaign.store import ResultStore
from ..sampling.plan import SamplingPlan
from .backends import KINDS

#: Sampling query parameters accepted by ``/experiment`` (mirroring the
#: ``repro campaign`` flags) and their SamplingPlan field names.
_SAMPLING_PARAMS: Dict[str, str] = {
    "interval": "interval",
    "chunk": "chunk",
    "k": "k",
    "warmup": "warmup",
    "budget": "budget",
    "sample_seed": "seed",
}


class ServeError(Exception):
    """An HTTP-mappable request failure."""

    def __init__(self, status: int, message: str, **extra: Any):
        super().__init__(message)
        self.status = status
        self.payload = {"error": message, **extra}


def _experiment_payload(query: Dict[str, str]) -> Tuple[dict, dict]:
    """Parse an ``/experiment`` query into (run kwargs, sampling kwargs)."""
    kwargs: dict = {}
    if query.get("apps"):
        kwargs["apps"] = tuple(a for a in query["apps"].split(",") if a)
    try:
        if query.get("n"):
            kwargs["n_insts"] = int(query["n"])
        if query.get("seed"):
            kwargs["seed"] = int(query["seed"])
        sampling: dict = {}
        if query.get("sample") in ("1", "true", "yes"):
            for param, field_name in _SAMPLING_PARAMS.items():
                if query.get(param):
                    raw = query[param]
                    sampling[field_name] = (
                        float(raw) if field_name == "budget" else int(raw)
                    )
            sampling.setdefault("interval", SamplingPlan().interval)
    except ValueError as error:
        raise ServeError(400, f"bad query parameter: {error}") from None
    return kwargs, sampling


class ReproServer(ThreadingHTTPServer):
    """The serving process: one store, counters, no simulation.

    ``simulations_executed`` counts simulations run on behalf of HTTP
    requests; the store-only campaign context keeps it at zero by
    construction (misses raise instead of simulating), and the counter
    is exported via ``/store/stats`` so tests and CI can assert on it.
    """

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        store: ResultStore,
        log: Optional[Callable[[str], None]] = None,
    ):
        super().__init__(address, _Handler)
        self.store = store
        self.log = log
        self.simulations_executed = 0
        self.queries = 0
        self.query_errors = 0
        # The ambient campaign context is a module global; one experiment
        # replay at a time (document routes stay fully concurrent).
        self.experiment_lock = threading.Lock()

    @property
    def url(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"

    def run_experiment(self, exp_id: str, query: Dict[str, str]) -> dict:
        """Replay one experiment store-only; 409 when results are missing."""
        from ..experiments import get_experiment

        try:
            experiment = get_experiment(exp_id)
        except KeyError as error:
            raise ServeError(404, str(error)) from None
        if experiment.direct:
            raise ServeError(
                400,
                f"experiment {experiment.id} reads live pipeline state and "
                "cannot be answered from the store",
            )
        kwargs, sampling = _experiment_payload(query)
        plan = SamplingPlan(**sampling) if sampling else None
        with self.experiment_lock:
            with campaign_context(
                store=self.store, sampling=plan, store_only=True
            ) as context:
                try:
                    result = experiment.module.run(**kwargs)
                except StoreMissError as error:
                    raise ServeError(
                        409,
                        "cold query: results not in the store "
                        "(run the campaign first)",
                        missing=error.missing,
                        total=error.total,
                    ) from None
                finally:
                    self.simulations_executed += context.executed
        return {
            "id": experiment.id,
            "title": experiment.title,
            "reconstructed": experiment.reconstructed,
            "store_hits": context.store_hits,
            "rows": result.rows(),
        }

    def diff_profiles(self, query: Dict[str, str]) -> dict:
        """Degradation check between two stored run profiles."""
        from ..telemetry import diff_profiles

        baseline_key = query.get("baseline", "")
        target_key = query.get("target", "")
        if not baseline_key or not target_key:
            raise ServeError(400, "diff needs baseline=<key> and target=<key>")
        baseline = self.store.get_profile(baseline_key)
        target = self.store.get_profile(target_key)
        missing = [
            key
            for key, profile in (
                (baseline_key, baseline),
                (target_key, target),
            )
            if profile is None
        ]
        if missing:
            raise ServeError(404, f"no stored profile for: {', '.join(missing)}")
        try:
            threshold = float(query.get("threshold", "5.0"))
        except ValueError:
            raise ServeError(400, "threshold must be a number") from None
        assert baseline is not None and target is not None
        return diff_profiles(baseline, target, threshold_pct=threshold).to_dict()

    def stats_payload(self) -> dict:
        payload = self.store.stats().to_dict()
        payload["simulations_executed"] = self.simulations_executed
        payload["queries"] = self.queries
        payload["query_errors"] = self.query_errors
        payload["session"] = self.store.session_counts()
        return payload


class _Handler(BaseHTTPRequestHandler):
    server: ReproServer  # narrowed from BaseServer

    # -- plumbing ------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.log is not None:
            self.server.log(f"{self.address_string()} {format % args}")

    def _send(self, status: int, body: bytes, content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict) -> None:
        self._send(status, json.dumps(payload, sort_keys=True, default=str).encode("utf-8"))

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length else b""

    def _route(self) -> Tuple[str, Dict[str, str]]:
        parsed = urlparse(self.path)
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        return parsed.path.rstrip("/") or "/", query

    def _dispatch(self, handler: Callable[[str, Dict[str, str]], None]) -> None:
        path, query = self._route()
        self.server.queries += 1
        try:
            handler(path, query)
        except ServeError as error:
            self.server.query_errors += 1
            self._send_json(error.status, error.payload)
        except Exception as error:  # surface, don't kill the thread
            self.server.query_errors += 1
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})

    def _kind_key(self, path: str) -> Optional[Tuple[str, str]]:
        parts = path.strip("/").split("/")
        if len(parts) == 2 and parts[0] in KINDS:
            return parts[0], parts[1]
        return None

    # -- GET -----------------------------------------------------------

    def do_GET(self) -> None:
        self._dispatch(self._get)

    def _get(self, path: str, query: Dict[str, str]) -> None:
        if path == "/healthz":
            self._send_json(
                200, {"ok": True, "backend": self.server.store.backend.describe()}
            )
            return
        if path == "/store/stats":
            self._send_json(200, self.server.stats_payload())
            return
        if path == "/entries":
            kind = query.get("kind", "result")
            if kind not in KINDS:
                raise ServeError(400, f"unknown kind {kind!r}")
            entries = [
                meta.to_dict()
                for meta in self.server.store.backend.entries(
                    kind,
                    workload=query.get("workload"),
                    model=query.get("model"),
                )
            ]
            self._send_json(200, {"kind": kind, "count": len(entries), "entries": entries})
            return
        if path == "/diff":
            self._send_json(200, self.server.diff_profiles(query))
            return
        if path.startswith("/experiment/"):
            exp_id = path[len("/experiment/"):]
            self._send_json(200, self.server.run_experiment(exp_id, query))
            return
        kind_key = self._kind_key(path)
        if kind_key is not None:
            raw = self.server.store.backend.read_raw(*kind_key)
            if raw is None:
                raise ServeError(404, f"no {kind_key[0]} entry {kind_key[1]}")
            self._send(200, raw)
            return
        raise ServeError(404, f"unknown route {path}")

    # -- POST ----------------------------------------------------------

    def do_POST(self) -> None:
        self._dispatch(self._post)

    def _post(self, path: str, query: Dict[str, str]) -> None:
        if path != "/job":
            raise ServeError(404, f"unknown route {path}")
        try:
            spec = json.loads(self._read_body() or b"null")
        except ValueError:
            raise ServeError(400, "body is not valid JSON") from None
        if not isinstance(spec, dict):
            raise ServeError(400, "body must be a job spec object")
        try:
            job = job_from_spec(spec)
        except ValueError as error:
            raise ServeError(400, f"bad job spec: {error}") from None
        key = job_key(job)
        self._send_json(
            200,
            {
                "key": key,
                "stored": key in self.server.store,
                "trace_key": list(job.trace_key),
            },
        )


def serve(
    store: ResultStore,
    host: str = "127.0.0.1",
    port: int = 8321,
    log: Optional[Callable[[str], None]] = None,
) -> ReproServer:
    """Build a bound (not yet running) server; call ``serve_forever``."""
    return ReproServer((host, port), store, log=log)
