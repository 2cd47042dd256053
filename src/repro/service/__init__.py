"""Service tier: local store backends, HTTP read API, store housekeeping.

The campaign layer (PR 2) established the contract — declarative
:class:`~repro.campaign.jobs.Job` specs hashed into content keys, one
JSON document per result, atomic writes, warm re-runs answered without
simulating.  This package promotes that store into a service:

* :mod:`.backends` — the store's persistence layer: the original
  sharded local directory (:class:`~.backends.DirectoryBackend`) and a
  sqlite-indexed variant for O(1) metadata queries over 10k+ entries
  (:class:`~.backends.SqliteBackend`).
* :mod:`.server` — ``repro serve``, a thin stdlib HTTP API answering
  result/experiment/profile queries straight from the store; a warm
  query executes zero simulations.
* :mod:`.maintenance` — store statistics, garbage collection and the
  directory→sqlite index migration behind ``repro store``.

Only the backend layer is imported eagerly (the campaign store depends
on it); the server is imported by the CLI on demand::

    from repro.service.server import ReproServer

Campaigns themselves run through :func:`repro.campaign.run_campaign`,
the one scheduler.  See ``docs/SERVICE.md`` for the backend matrix, the
API routes and the consistency semantics.
"""

from .backends import (
    KIND_FUZZ,
    KIND_PROFILE,
    KIND_RESULT,
    KINDS,
    DirectoryBackend,
    EntryMeta,
    SqliteBackend,
    StoreStats,
    open_backend,
)

__all__ = [
    "KIND_FUZZ",
    "KIND_PROFILE",
    "KIND_RESULT",
    "KINDS",
    "DirectoryBackend",
    "EntryMeta",
    "SqliteBackend",
    "StoreStats",
    "open_backend",
]
