"""Store garbage collection behind ``repro store gc``.

``gc`` prunes exactly two classes of garbage, neither of which a correct
campaign leaves behind:

* stale ``.tmp-*`` files — a writer crashed between creating its temp
  file and the rename; readers never see these, they only waste space;
* corrupt documents — unparseable or non-object JSON of any kind.
  A corrupt result entry already reads as a miss; gc just reclaims it.

Fuzz documents are standalone by design (their key hashes a replay
spec, not a campaign job), so a fuzz document with no result beside it
is not garbage.  ``repro store stats`` and ``repro store migrate`` call
the backend directly (``stats()``, ``SqliteBackend.rebuild_index()``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from .backends import (
    KINDS,
    DirectoryBackend,
    SqliteBackend,
    classify_filename,
)


@dataclass
class GCReport:
    """What one ``repro store gc`` pass found (and, unless dry, removed)."""

    tmp_removed: int = 0
    corrupt: Dict[str, int] = field(default_factory=dict)
    bytes_reclaimed: int = 0
    dry_run: bool = False

    @property
    def total_removed(self) -> int:
        return self.tmp_removed + sum(self.corrupt.values())

    def to_dict(self) -> dict:
        return {
            "tmp_removed": self.tmp_removed,
            "corrupt": dict(self.corrupt),
            "bytes_reclaimed": self.bytes_reclaimed,
            "total_removed": self.total_removed,
            "dry_run": self.dry_run,
        }


def collect_garbage(backend: DirectoryBackend, dry_run: bool = False) -> GCReport:
    """Prune temp files and corrupt documents."""
    report = GCReport(dry_run=dry_run, corrupt={kind: 0 for kind in KINDS})

    def reclaim(path: Path) -> None:
        try:
            report.bytes_reclaimed += path.stat().st_size
        except OSError:
            pass
        if not dry_run:
            try:
                path.unlink()
            except OSError:
                pass

    for tmp in backend.temp_files():
        report.tmp_removed += 1
        reclaim(tmp)

    # One directory walk classifying every document; corruption =
    # unparseable/non-object JSON (read() returning None for a present
    # file).  Collect first, delete after — deleting while iterating a
    # shard listing is fragile.
    corrupt: List[tuple] = []
    for entry in backend.scan():
        classified = classify_filename(entry.name)
        if classified is None:
            continue
        kind, key = classified
        if backend.read(kind, key) is None:
            corrupt.append((kind, key, Path(entry.path)))

    for kind, key, path in corrupt:
        report.corrupt[kind] += 1
        reclaim(path)
        if not dry_run and isinstance(backend, SqliteBackend):
            backend.delete(kind, key)  # keep the index in step

    return report
