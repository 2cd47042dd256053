"""Persistent, content-addressed result store.

The store is a map from content key to one JSON document, persisted
in a local directory through one of two backends:

* the default :class:`~repro.service.backends.DirectoryBackend` keeps
  the original layout — one JSON document per result, fanned out over
  256 two-hex-digit shard directories::

      results/store/
          ab/abcdef....json      # key -> {format, spec, stats, provenance}
          ab/ab1234....json
          cd/cd5678....json

* :class:`~repro.service.backends.SqliteBackend` adds a derived
  ``index.sqlite`` for O(1) listing/filtering over large stores.

Writes are atomic *and durable* (fsync'd temp file + ``os.replace`` +
parent-directory fsync), so a campaign killed mid-write never leaves a
truncated entry, and concurrent campaigns sharing a store at worst both
compute the same result and one rename wins.  Entries written under a
different :data:`~.keys.CODE_VERSION` are unreachable by construction —
the version is salted into the key.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from ..core import SimStats
from ..isa import FUClass
from ..service.backends import (
    KIND_FUZZ,
    KIND_PROFILE,
    KIND_RESULT,
    DirectoryBackend,
    StoreStats,
)
from ..telemetry.profile import RunProfile
from .jobs import Job, Provenance
from .keys import job_key, job_spec

#: On-disk document schema version (bump on layout changes).
STORE_FORMAT = 1

#: Default store root, relative to the working directory.
DEFAULT_ROOT = Path("results") / "store"

_FU_DICT_FIELDS = ("fu_issued", "fu_busy_cycles")


def stats_to_dict(stats: SimStats) -> dict:
    """Serialise every declared SimStats field (and nothing derived)."""
    out: dict = {}
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if f.name in _FU_DICT_FIELDS:
            value = {fu.name: count for fu, count in value.items()}
        out[f.name] = value
    return out


def stats_from_dict(payload: dict) -> SimStats:
    """Rebuild a :class:`SimStats` from :func:`stats_to_dict` output."""
    kwargs: dict = {}
    for f in dataclasses.fields(SimStats):
        if f.name not in payload:
            continue  # field added after the entry was written: keep default
        value = payload[f.name]
        if f.name in _FU_DICT_FIELDS:
            value = {FUClass[name]: count for name, count in value.items()}
        kwargs[f.name] = value
    return SimStats(**kwargs)


def result_document(job: Job, stats: SimStats, provenance: Provenance) -> dict:
    """The JSON document a result persists as."""
    return {
        "format": STORE_FORMAT,
        "key": job_key(job),
        "spec": job_spec(job),
        "stats": stats_to_dict(stats),
        "provenance": {
            "wall_time_s": provenance.wall_time_s,
            "code_version": provenance.code_version,
        },
    }


class ResultStore:
    """Key -> (SimStats, provenance) map persisted through a backend.

    Session counters (``hits``/``misses``/``writes``) track only the
    current process, for progress reporting and the CLI summary line.
    """

    def __init__(
        self,
        root: Optional[Path] = None,
        backend: Optional[DirectoryBackend] = None,
    ):
        if backend is None:
            backend = DirectoryBackend(Path(root) if root is not None else DEFAULT_ROOT)
        self.backend = backend
        self.root: Path = backend.root
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # -- paths ---------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.backend.path_for(KIND_RESULT, key)

    def profile_path_for(self, key: str) -> Path:
        """A run profile lives next to its result, same content key."""
        return self.backend.path_for(KIND_PROFILE, key)

    def fuzz_path_for(self, key: str) -> Path:
        """A fuzz-corpus entry; standalone (no parent result entry)."""
        return self.backend.path_for(KIND_FUZZ, key)

    # -- read ----------------------------------------------------------

    def get(self, key: str) -> Optional[Tuple[SimStats, Provenance]]:
        """Look up one result; ``None`` (a miss) on absent/corrupt entries."""
        document = self.backend.read(KIND_RESULT, key)
        if document is None or document.get("format") != STORE_FORMAT:
            self.misses += 1
            return None
        self.hits += 1
        prov = document.get("provenance", {})
        return (
            stats_from_dict(document["stats"]),
            Provenance(
                source="store",
                wall_time_s=float(prov.get("wall_time_s", 0.0)),
                code_version=str(prov.get("code_version", "")),
            ),
        )

    def get_job(self, job: Job) -> Optional[Tuple[SimStats, Provenance]]:
        return self.get(job_key(job))

    # -- write ---------------------------------------------------------

    def put(self, job: Job, stats: SimStats, provenance: Provenance) -> str:
        """Persist one result atomically; returns the key written."""
        key = job_key(job)
        self.backend.write(KIND_RESULT, key, result_document(job, stats, provenance))
        self.writes += 1
        return key

    # -- profiles ------------------------------------------------------
    #
    # A telemetry run profile (repro.telemetry.profile.RunProfile) can be
    # persisted next to the result entry it describes, under the same
    # content key with a ``.profile.json`` suffix.  Profiles are optional
    # side-cars: result reads, key listings and the session counters
    # never see them.

    def put_profile(self, job: Job, profile: RunProfile) -> str:
        """Persist ``job``'s run profile atomically; returns the key."""
        key = job_key(job)
        document = profile.to_dict()
        document["key"] = key
        self.backend.write(KIND_PROFILE, key, document)
        return key

    def get_profile(self, key: str) -> Optional[RunProfile]:
        """Load the stored profile for ``key``; ``None`` when absent/corrupt."""
        document = self.backend.read(KIND_PROFILE, key)
        if document is None:
            return None
        try:
            return RunProfile.from_dict(document)
        except (ValueError, KeyError, TypeError):
            return None

    def get_profile_for_job(self, job: Job) -> Optional[RunProfile]:
        return self.get_profile(job_key(job))

    # -- fuzz corpus ---------------------------------------------------
    #
    # The validation subsystem (repro.validation) persists divergent
    # fuzz cases as ``<key>.fuzz.json`` side-cars.  Unlike profiles they
    # are standalone documents — the key is a content hash of the replay
    # spec, not of any campaign job — but they share the store's shard
    # layout and atomic-write discipline so campaigns and fuzz corpora
    # can live in one directory tree.

    def put_fuzz(self, key: str, document: dict) -> str:
        """Persist one fuzz-corpus document atomically under ``key``."""
        self.backend.write(KIND_FUZZ, key, document)
        return key

    def get_fuzz(self, key: str) -> Optional[dict]:
        """Load one fuzz-corpus document; ``None`` when absent/corrupt."""
        return self.backend.read(KIND_FUZZ, key)

    def fuzz_keys(self) -> Iterator[str]:
        """Every fuzz-corpus key in the store, in sorted shard order."""
        return self.backend.keys(KIND_FUZZ)

    # -- maintenance ---------------------------------------------------

    def keys(self) -> Iterator[str]:
        return self.backend.keys(KIND_RESULT)

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, key: str) -> bool:
        return self.backend.contains(KIND_RESULT, key)

    def clear(self) -> int:
        """Delete every entry, profile side-car and fuzz-corpus document;
        returns how many result entries were removed."""
        return self.backend.clear()

    def stats(self) -> StoreStats:
        """Entry counts and sizes per kind (see ``repro store stats``)."""
        return self.backend.stats()

    def session_counts(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "writes": self.writes}
