"""Local store backends behind one kind/key/document interface.

The campaign store (``repro.campaign.store``) speaks to its persistence
layer exclusively through :class:`DirectoryBackend`: a flat map from
``(kind, key)`` to one JSON document, where ``kind`` is one of

* ``"result"`` — a campaign result (``{format, key, spec, stats,
  provenance}``),
* ``"fuzz"`` — a standalone fuzz-corpus document.

Every key is a 64-hex-digit SHA-256 digest; any other file in a shard
(a ``<key>.profile.json`` side-car written by older code, say) is
foreign and no listing, count or ``clear()`` sees it.

Two implementations ship:

* :class:`DirectoryBackend` — the original layout: one JSON file per
  document, fanned out over 256 two-hex-digit shard directories, with
  crash-durable atomic writes (fsync'd temp file + rename + parent
  directory fsync).
* :class:`SqliteBackend` — the same file layout plus an ``index.sqlite``
  side-car holding per-entry metadata (workload, model, n_insts, seed,
  sampled, size).  Documents stay plain files — the index is purely
  derived state, built from the directory when it is missing or
  corrupt, and rebuilt on demand by ``repro store migrate`` — but key
  listing, filtered queries and store statistics become single SELECTs
  instead of a 10k-file directory walk.

Durability note (the torn-write guarantee): ``write_json_atomic`` fsyncs
the temp file *before* the rename and the parent directory *after* it,
so a crash at any point leaves either the complete old state or the
complete new state — never a truncated entry.  A crash before the rename
leaves only a ``.tmp-*`` file, which readers never look at and ``repro
store gc`` removes.
"""

from __future__ import annotations

import json
import os
import re
import sqlite3
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: One index operation run under rebuild-on-corruption protection.
OpFn = Callable[[sqlite3.Connection], object]

#: Document kinds (suffix-disambiguated in the directory layout).
KIND_RESULT = "result"
KIND_FUZZ = "fuzz"
KINDS: Tuple[str, ...] = (KIND_RESULT, KIND_FUZZ)

#: File-name suffix per kind.
_SUFFIXES: Dict[str, str] = {
    KIND_RESULT: ".json",
    KIND_FUZZ: ".fuzz.json",
}

#: A store key: a SHA-256 digest in lower-case hex.
_KEY = r"[0-9a-f]{64}"
_STORE_KEY = re.compile(_KEY)

#: A store file name: a store key, then a kind suffix.
_KIND_BY_SUFFIX: Dict[str, str] = {suffix: kind for kind, suffix in _SUFFIXES.items()}
_STORE_NAME = re.compile(
    f"({_KEY})(" + "|".join(map(re.escape, _KIND_BY_SUFFIX)) + ")"
)

#: Prefix of in-flight temp files (never visible to readers).
TMP_PREFIX = ".tmp-"


@dataclass(frozen=True)
class EntryMeta:
    """One entry's queryable metadata (no stats payload).

    ``workload``/``model``/``n_insts``/``seed``/``sampled`` are taken
    from a result document's spec; fuzz documents carry only key/size.
    """

    key: str
    kind: str
    size_bytes: int
    workload: Optional[str] = None
    model: Optional[str] = None
    n_insts: Optional[int] = None
    seed: Optional[int] = None
    sampled: bool = False

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "kind": self.kind,
            "size_bytes": self.size_bytes,
            "workload": self.workload,
            "model": self.model,
            "n_insts": self.n_insts,
            "seed": self.seed,
            "sampled": self.sampled,
        }


@dataclass
class StoreStats:
    """Entry counts and on-disk size per kind, plus housekeeping state."""

    backend: str
    entries: Dict[str, int] = field(default_factory=dict)
    bytes: Dict[str, int] = field(default_factory=dict)
    tmp_files: int = 0
    index_bytes: int = 0

    @property
    def total_entries(self) -> int:
        return sum(self.entries.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes.values()) + self.index_bytes

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "entries": dict(self.entries),
            "bytes": dict(self.bytes),
            "tmp_files": self.tmp_files,
            "index_bytes": self.index_bytes,
            "total_entries": self.total_entries,
            "total_bytes": self.total_bytes,
        }


# -- shared document plumbing ----------------------------------------------


def _fsync_directory(path: Path) -> None:
    """Flush a directory's entry table (so a rename survives a crash)."""
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(str(path), flags)
    except OSError:
        return  # platform without directory fds: rename is still atomic
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_json_atomic(path: Path, document: dict) -> int:
    """Durably write one JSON document; returns the byte size written.

    fsync discipline: the temp file is flushed to disk *before* the
    rename and the parent directory *after* it, so a crash at any point
    leaves either no entry (plus an invisible ``.tmp-*`` file) or the
    complete entry — never a truncated document under the final name.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=TMP_PREFIX, suffix=".json"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        size = os.path.getsize(tmp_name)
        os.replace(tmp_name, path)
        _fsync_directory(path.parent)
        return size
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _meta_from_document(kind: str, key: str, size: int, document: dict) -> EntryMeta:
    """Queryable metadata for one parsed document."""
    if kind != KIND_RESULT or not isinstance(document.get("spec"), dict):
        return EntryMeta(key=key, kind=kind, size_bytes=size)
    spec = document["spec"]
    return EntryMeta(
        key=key,
        kind=kind,
        size_bytes=size,
        workload=spec.get("workload"),
        model=spec.get("model"),
        n_insts=spec.get("n_insts"),
        seed=spec.get("seed"),
        sampled=spec.get("sampling") is not None,
    )


def is_store_key(key: str) -> bool:
    """Whether ``key`` has the shape of a store key (64 hex digits)."""
    return _STORE_KEY.fullmatch(key) is not None


def classify_filename(name: str) -> Optional[Tuple[str, str]]:
    """``(kind, key)`` for one store file name; ``None`` for foreign files."""
    match = _STORE_NAME.fullmatch(name)
    if match is None:
        return None
    return _KIND_BY_SUFFIX[match.group(2)], match.group(1)


class DirectoryBackend:
    """One JSON file per document under 256 two-hex-digit shards.

    :meth:`write` is atomic (a concurrent or crashed writer can never
    expose a torn document) and :meth:`read` is total (absent, foreign or
    corrupt entries read as ``None``, never raise).  ``keys``/``entries``
    iterate in sorted key order.
    """

    name = "dir"

    def __init__(self, root: Path):
        self.root = Path(root)
        self._root = str(self.root)

    # -- paths ---------------------------------------------------------

    def _file(self, kind: str, key: str) -> str:
        """The file name of ``(kind, key)``: the one place it is built."""
        return os.path.join(self._root, key[:2], key + _SUFFIXES[kind])

    def path_for(self, kind: str, key: str) -> Path:
        return Path(self._file(kind, key))

    def scan(self) -> Iterator["os.DirEntry[str]"]:
        """Every entry of every shard, in sorted shard then name order.

        One ``os.scandir`` pass, with no ``pathlib`` object per entry; key
        listings, counts, the temp-file scan and ``repro store gc`` all
        read it.
        """
        try:
            with os.scandir(self._root) as it:
                shards = sorted(entry.path for entry in it if entry.is_dir())
        except OSError:
            return
        for shard in shards:
            try:
                with os.scandir(shard) as it:
                    entries = sorted(it, key=lambda entry: entry.name)
            except OSError:
                continue
            yield from entries

    # -- document IO ---------------------------------------------------

    def _load(self, kind: str, key: str) -> Tuple[bytes, Optional[dict]]:
        """The file's bytes and the JSON object they hold (``None`` when
        the file is absent or holds no JSON object)."""
        try:
            with open(self._file(kind, key), "rb") as handle:
                raw = handle.read()
        except OSError:
            return b"", None
        try:
            document = json.loads(raw)
        except ValueError:
            return raw, None
        return raw, document if isinstance(document, dict) else None

    def read_raw(self, kind: str, key: str) -> Optional[bytes]:
        """The document's exact serialized bytes (``None`` on a miss)."""
        raw, document = self._load(kind, key)
        return raw if document is not None else None

    def read(self, kind: str, key: str) -> Optional[dict]:
        return self._load(kind, key)[1]

    def write(self, kind: str, key: str, document: dict) -> None:
        write_json_atomic(self.path_for(kind, key), document)

    def delete(self, kind: str, key: str) -> bool:
        try:
            os.unlink(self._file(kind, key))
            return True
        except OSError:
            return False

    def contains(self, kind: str, key: str) -> bool:
        return os.path.isfile(self._file(kind, key))

    # -- listing -------------------------------------------------------

    def _dir_keys(self, kind: str) -> Iterator[str]:
        """Directory-walk key listing (non-virtual: the sqlite backend's
        index rebuild must scan files even though its ``keys`` reads the
        index)."""
        for entry in self.scan():
            classified = classify_filename(entry.name)
            if classified is not None and classified[0] == kind:
                yield classified[1]

    def keys(self, kind: str) -> Iterator[str]:
        return self._dir_keys(kind)

    def _dir_entries(
        self,
        kind: str = KIND_RESULT,
        workload: Optional[str] = None,
        model: Optional[str] = None,
    ) -> Iterator[EntryMeta]:
        for key in self._dir_keys(kind):
            document = self.read(kind, key)
            if document is None:
                continue
            try:
                size = os.path.getsize(self._file(kind, key))
            except OSError:
                size = 0
            meta = _meta_from_document(kind, key, size, document)
            if workload is not None and meta.workload != workload:
                continue
            if model is not None and meta.model != model:
                continue
            yield meta

    def entries(
        self,
        kind: str = KIND_RESULT,
        workload: Optional[str] = None,
        model: Optional[str] = None,
    ) -> Iterator[EntryMeta]:
        return self._dir_entries(kind, workload=workload, model=model)

    # -- housekeeping --------------------------------------------------

    def temp_files(self) -> List[Path]:
        """In-flight / crash-leftover temp files (gc removes them)."""
        return [
            Path(entry.path)
            for entry in self.scan()
            if entry.name.startswith(TMP_PREFIX)
        ]

    def stats(self) -> StoreStats:
        stats = StoreStats(backend=self.describe())
        for kind in KINDS:
            stats.entries[kind] = 0
            stats.bytes[kind] = 0
        for entry in self.scan():
            if entry.name.startswith(TMP_PREFIX):
                stats.tmp_files += 1
                continue
            classified = classify_filename(entry.name)
            if classified is None:
                continue
            kind = classified[0]
            stats.entries[kind] += 1
            try:
                stats.bytes[kind] += entry.stat().st_size
            except OSError:
                pass
        return stats

    def clear(self) -> int:
        """Remove every document; returns how many *result* entries went."""
        removed = 0
        for kind in KINDS:
            for key in list(self.keys(kind)):
                if self.delete(kind, key) and kind == KIND_RESULT:
                    removed += 1
        return removed

    def describe(self) -> str:
        return f"{self.name}:{self.root}"


def _upsert(connection: sqlite3.Connection, meta: EntryMeta) -> None:
    """Insert or replace one entry's index row (caller commits)."""
    connection.execute(
        "INSERT OR REPLACE INTO entries"
        " (kind, key, workload, model, n_insts, seed, sampled, bytes)"
        " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        (
            meta.kind,
            meta.key,
            meta.workload,
            meta.model,
            meta.n_insts,
            meta.seed,
            1 if meta.sampled else 0,
            meta.size_bytes,
        ),
    )


class SqliteBackend(DirectoryBackend):
    """Directory layout plus a derived sqlite metadata index.

    Documents remain plain JSON files with the same crash-durable write
    discipline — reads of a known key never touch sqlite, so they are as
    robust as the directory backend's.  The index accelerates everything
    that would otherwise walk the directory: :meth:`keys`,
    :meth:`entries` (including workload/model filters) and
    :meth:`stats` become single indexed SELECTs.

    The index is *derived* state: a missing index, a foreign schema
    version or any :class:`sqlite3.DatabaseError` (corruption, partial
    write) triggers a transparent build from the directory, so a store
    filled through a plain :class:`DirectoryBackend` lists every entry on
    first open.  Drift after the index exists (another process writing
    through a plain :class:`DirectoryBackend`) is repaired by ``repro
    store migrate``, which performs the same rebuild explicitly.
    """

    name = "sqlite"

    #: Bump when the index schema changes; foreign versions rebuild.
    SCHEMA_VERSION = 1
    INDEX_NAME = "index.sqlite"

    def __init__(self, root: Path):
        super().__init__(root)
        self._local = threading.local()

    # -- connection management -----------------------------------------

    @property
    def index_path(self) -> Path:
        return self.root / self.INDEX_NAME

    def _connect(self) -> sqlite3.Connection:
        connection: Optional[sqlite3.Connection] = getattr(
            self._local, "connection", None
        )
        if connection is not None:
            return connection
        self.root.mkdir(parents=True, exist_ok=True)
        connection = sqlite3.connect(str(self.index_path), timeout=10.0)
        connection.execute("PRAGMA busy_timeout = 10000")
        self._local.connection = connection
        self._ensure_schema(connection)
        return connection

    def _ensure_schema(self, connection: sqlite3.Connection) -> None:
        """Build the index from the directory unless it already holds
        this schema version (a new, empty index file holds none)."""
        connection.execute(
            "CREATE TABLE IF NOT EXISTS meta (k TEXT PRIMARY KEY, v TEXT)"
        )
        row = connection.execute(
            "SELECT v FROM meta WHERE k = 'schema_version'"
        ).fetchone()
        if row is None or int(row[0]) != self.SCHEMA_VERSION:
            self._rebuild_locked(connection)

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            try:
                connection.close()
            except sqlite3.Error:
                pass
            self._local.connection = None

    def _run(self, operation: "OpFn") -> "object":
        """Run one index operation; rebuild-and-retry once on corruption."""
        try:
            return operation(self._connect())
        except sqlite3.DatabaseError:
            self.rebuild_index()
            return operation(self._connect())

    # -- index maintenance ---------------------------------------------

    def rebuild_index(self) -> int:
        """Re-derive the whole index from the directory; returns rows."""
        self._drop_connection()
        try:
            self.index_path.unlink()
        except OSError:
            pass
        connection = self._connect()  # builds the now-missing index
        return connection.execute("SELECT COUNT(*) FROM entries").fetchone()[0]

    def _rebuild_locked(self, connection: sqlite3.Connection) -> None:
        # One transaction: a concurrent connection sees the old index or
        # the whole new one, never a half-built table.
        connection.execute("BEGIN IMMEDIATE")
        connection.execute("DROP TABLE IF EXISTS entries")
        connection.execute("DROP TABLE IF EXISTS meta")
        connection.execute("CREATE TABLE meta (k TEXT PRIMARY KEY, v TEXT)")
        connection.execute(
            "INSERT INTO meta (k, v) VALUES ('schema_version', ?)",
            (str(self.SCHEMA_VERSION),),
        )
        connection.execute(
            "CREATE TABLE entries ("
            " kind TEXT NOT NULL,"
            " key TEXT NOT NULL,"
            " workload TEXT,"
            " model TEXT,"
            " n_insts INTEGER,"
            " seed INTEGER,"
            " sampled INTEGER NOT NULL DEFAULT 0,"
            " bytes INTEGER NOT NULL DEFAULT 0,"
            " PRIMARY KEY (kind, key))"
        )
        connection.execute(
            "CREATE INDEX idx_entries_filter ON entries (kind, workload, model)"
        )
        for kind in KINDS:
            for meta in self._dir_entries(kind):
                _upsert(connection, meta)
        connection.commit()

    # -- writes keep the index in step ---------------------------------

    def write(self, kind: str, key: str, document: dict) -> None:
        size = write_json_atomic(self.path_for(kind, key), document)
        meta = _meta_from_document(kind, key, size, document)

        def upsert(connection: sqlite3.Connection) -> None:
            _upsert(connection, meta)
            connection.commit()

        self._run(upsert)

    def delete(self, kind: str, key: str) -> bool:
        removed = super().delete(kind, key)

        def drop(connection: sqlite3.Connection) -> None:
            connection.execute(
                "DELETE FROM entries WHERE kind = ? AND key = ?", (kind, key)
            )
            connection.commit()

        self._run(drop)
        return removed

    # -- indexed queries -----------------------------------------------

    def keys(self, kind: str) -> Iterator[str]:
        def select(connection: sqlite3.Connection) -> List[str]:
            rows = connection.execute(
                "SELECT key FROM entries WHERE kind = ? ORDER BY key", (kind,)
            ).fetchall()
            return [row[0] for row in rows]

        result = self._run(select)
        assert isinstance(result, list)
        return iter(result)

    def entries(
        self,
        kind: str = KIND_RESULT,
        workload: Optional[str] = None,
        model: Optional[str] = None,
    ) -> Iterator[EntryMeta]:
        clauses = ["kind = ?"]
        params: List[object] = [kind]
        if workload is not None:
            clauses.append("workload = ?")
            params.append(workload)
        if model is not None:
            clauses.append("model = ?")
            params.append(model)

        def select(connection: sqlite3.Connection) -> List[EntryMeta]:
            rows = connection.execute(
                "SELECT key, workload, model, n_insts, seed, sampled, bytes"
                f" FROM entries WHERE {' AND '.join(clauses)} ORDER BY key",
                params,
            ).fetchall()
            return [
                EntryMeta(
                    key=row[0],
                    kind=kind,
                    size_bytes=row[6],
                    workload=row[1],
                    model=row[2],
                    n_insts=row[3],
                    seed=row[4],
                    sampled=bool(row[5]),
                )
                for row in rows
            ]

        result = self._run(select)
        assert isinstance(result, list)
        return iter(result)

    def stats(self) -> StoreStats:
        def select(connection: sqlite3.Connection) -> List[Tuple[str, int, int]]:
            return connection.execute(
                "SELECT kind, COUNT(*), COALESCE(SUM(bytes), 0)"
                " FROM entries GROUP BY kind"
            ).fetchall()

        rows = self._run(select)
        assert isinstance(rows, list)
        stats = StoreStats(backend=self.describe())
        for kind in KINDS:
            stats.entries[kind] = 0
            stats.bytes[kind] = 0
        for kind, count, size in rows:
            if kind in stats.entries:
                stats.entries[kind] = count
                stats.bytes[kind] = size
        stats.tmp_files = len(self.temp_files())
        try:
            stats.index_bytes = self.index_path.stat().st_size
        except OSError:
            stats.index_bytes = 0
        return stats

    def clear(self) -> int:
        removed = super().clear()

        def wipe(connection: sqlite3.Connection) -> None:
            connection.execute("DELETE FROM entries")
            connection.commit()

        self._run(wipe)
        return removed


#: Backend constructors by name.
BACKENDS = {
    DirectoryBackend.name: DirectoryBackend,
    SqliteBackend.name: SqliteBackend,
}


def open_backend(spec: str, backend: Optional[str] = None) -> DirectoryBackend:
    """Build a backend over the local store directory ``spec``.

    ``backend`` picks the flavour: ``"dir"`` (the default) or
    ``"sqlite"``.  An ``http(s)://`` spec is refused rather than taken as
    a relative directory name.
    """
    if spec.startswith(("http://", "https://")):
        raise ValueError(
            f"{spec}: remote (http) stores were removed; "
            "give a local store directory"
        )
    name = backend or DirectoryBackend.name
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None
    return factory(Path(spec))
