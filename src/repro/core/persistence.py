"""Disk persistence for the analysis core: caches that outlive the process.

PR 1 made a single run parse-once; this module makes the *next* run
parse-once too.  :class:`DiskArtifactStore` extends the in-memory
:class:`~repro.core.artifacts.ArtifactStore` with a SQLite-backed disk
tier: every derived artifact (AST, CPG, fingerprint, N-gram set — and
cached parse *failures*) is written through to disk the moment it is
materialized, keyed by the source's content hash.  A warm rerun over the
same corpus therefore performs **zero** parses: artifacts hydrate from
disk into the LRU memory tier in front.

Thread-safety and pickling
--------------------------
:class:`DiskArtifactStore` opens its database through
:mod:`repro.core.sqlite`, like every durable store: one connection
guarded by a lock, a WAL journal, a busy timeout and retried writes.  It
is therefore thread-safe and multi-process friendly: process-backend
executor workers rebuild the store from its
:class:`~repro.core.artifacts.ArtifactStoreSpec` — whose ``path`` field
round-trips the cache directory — and share the same on-disk tier.  The
store itself is *not* picklable; ship the spec.
"""

from __future__ import annotations

import json
import pickle
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.core.artifacts import (
    ArtifactStore,
    ArtifactStoreSpec,
    ArtifactStoreStats,
    SourceArtifact,
)
from repro.core.sqlite import Database, quarantine

#: bump when the pickled payload layout changes; mismatched caches are rejected
FORMAT_VERSION = 1

#: file name of the SQLite database inside a cache directory
DATABASE_NAME = "artifacts.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS artifacts (
    key       TEXT NOT NULL,
    field     TEXT NOT NULL,
    payload   BLOB NOT NULL,
    size      INTEGER NOT NULL,
    created   REAL NOT NULL,
    last_used REAL NOT NULL,
    PRIMARY KEY (key, field)
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS functions (
    key     TEXT PRIMARY KEY,
    digest  TEXT NOT NULL,
    created REAL NOT NULL
);
"""


def _evict(connection: Union[sqlite3.Connection, Database],
           max_entries: Optional[int],
           max_age_seconds: Optional[float]) -> int:
    """Shared eviction policy of :meth:`DiskArtifactStore.gc` and the CLI.

    Entries (= distinct content keys; all their field rows go together)
    are dropped by recency first, then trimmed to ``max_entries`` most
    recently used.  Returns the number of entries deleted.
    """
    doomed: set = set()
    if max_age_seconds is not None:
        cutoff = time.time() - max_age_seconds
        doomed.update(key for (key,) in connection.execute(
            "SELECT key FROM artifacts GROUP BY key HAVING MAX(last_used) < ?",
            (cutoff,)))
    if max_entries is not None:
        doomed.update(key for (key,) in connection.execute(
            "SELECT key FROM artifacts GROUP BY key "
            "ORDER BY MAX(last_used) DESC LIMIT -1 OFFSET ?",
            (max(0, max_entries),)))
    for key in doomed:
        connection.execute("DELETE FROM artifacts WHERE key = ?", (key,))
    return len(doomed)


class CacheConfigurationError(ValueError):
    """An on-disk cache was created with an incompatible CCD configuration."""


# ---------------------------------------------------------------------------
# the disk-backed artifact store
# ---------------------------------------------------------------------------

@dataclass
class DiskArtifactStoreStats(ArtifactStoreStats):
    """In-memory tier counters plus the disk-tier counters.

    ``hits``/``misses`` keep their memory-tier meaning, so the parse-once
    invariant of a *cold* run is still ``parse_calls == misses -
    disk_hits``; on a fully warm run ``parse_calls == 0``.
    """

    #: memory-tier misses answered from the SQLite tier (no recompute)
    disk_hits: int = 0
    #: lookups that missed both tiers and had to compute from source
    disk_misses: int = 0
    #: field write-throughs (one row per newly materialized derived value —
    #: already-persisted values are never re-serialized)
    disk_writes: int = 0
    #: corrupt rows or databases detected (and discarded) while reading
    disk_corruptions: int = 0
    #: failed writes (e.g. a locked database under heavy contention)
    disk_errors: int = 0

    def as_dict(self) -> dict:
        """All memory- and disk-tier counters as a plain dict."""
        data = super().as_dict()
        data.update({
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "disk_writes": self.disk_writes,
            "disk_corruptions": self.disk_corruptions,
            "disk_errors": self.disk_errors,
        })
        return data

    @property
    def disk_lookups(self) -> int:
        """Total disk-tier lookups (memory-tier misses that reached SQLite)."""
        return self.disk_hits + self.disk_misses

    @property
    def disk_hit_rate(self) -> float:
        """Fraction of memory-tier misses answered from disk."""
        return self.disk_hits / self.disk_lookups if self.disk_lookups else 0.0


class DiskArtifactStore(ArtifactStore):
    """A content-hash-addressed artifact cache that survives the process.

    Layout: ``directory/artifacts.sqlite`` holds one pickled value per
    ``(content hash, derived field)`` pair — a field (AST, CPG,
    fingerprint, N-gram set, or cached error) is serialized exactly once,
    when it first materializes, and never rewritten.  A ``meta`` table
    records the format version and the CCD configuration the cache was
    created with; opening a cache with a mismatched configuration raises
    :class:`CacheConfigurationError` — cached fingerprints and N-gram
    sets are only valid for one configuration.

    The in-memory LRU tier of the base class sits in front: a repeated
    ``get`` within one process never touches SQLite.  Corrupt rows (or a
    corrupt database file) are detected, counted in
    ``stats.disk_corruptions``, and silently recomputed — a damaged cache
    degrades to a cold one instead of failing the run.

    Parameters
    ----------
    directory:
        Cache directory (created on demand).
    max_entries / ngram_size / fingerprint_block_size / fingerprint_window:
        As for :class:`~repro.core.artifacts.ArtifactStore`.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        max_entries: int = 8192,
        ngram_size: int = 3,
        fingerprint_block_size: int = 2,
        fingerprint_window: int = 4,
    ):
        super().__init__(
            max_entries=max_entries,
            ngram_size=ngram_size,
            fingerprint_block_size=fingerprint_block_size,
            fingerprint_window=fingerprint_window,
        )
        self.stats = DiskArtifactStoreStats()
        self.directory = Path(directory)
        self.database_path = self.directory / DATABASE_NAME
        self._open()
        self.function_digests.attach(
            fetch=self._fetch_function_digest,
            persist=self._persist_function_digest)

    # -- connection management ------------------------------------------------
    def _configuration(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "ngram_size": self.ngram_size,
            "fingerprint_block_size": self.generator.hasher.block_size,
            "fingerprint_window": self.generator.hasher.window,
        }

    def _open(self) -> None:
        try:
            self._connection = Database(self.database_path, _SCHEMA)
        except sqlite3.DatabaseError:
            # unreadable database file: quarantine and start over
            self.stats.increment("disk_corruptions")
            quarantine(self.database_path)
            self._connection = Database(self.database_path, _SCHEMA)
        recorded = self._read_meta("configuration")
        configuration = self._configuration()
        if recorded is None:
            self._write_meta("configuration", configuration)
        elif recorded != configuration:
            self.close()
            raise CacheConfigurationError(
                f"artifact cache at {self.directory} was created with "
                f"{recorded}, which does not match {configuration}; use a "
                f"separate cache directory per CCD configuration")

    def _read_meta(self, key: str) -> Optional[dict]:
        row = self._connection.fetchone(
            "SELECT value FROM meta WHERE key = ?", (key,))
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except json.JSONDecodeError:
            return None

    def _write_meta(self, key: str, value: dict) -> None:
        self._connection.execute(
            "REPLACE INTO meta (key, value) VALUES (?, ?)", (key, json.dumps(value)))

    def close(self) -> None:
        """Close the SQLite connection (cached lookups keep working in-memory)."""
        self._connection.close()

    def __enter__(self) -> "DiskArtifactStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the disk tier --------------------------------------------------------
    def _create_artifact(self, source: str, key: str) -> SourceArtifact:
        artifact = SourceArtifact(
            source, key, self.stats, self.generator, self.ngram_size,
            on_materialize=self._persist,
            function_digests=self.function_digests)
        payload = self._load_payload(key)
        if payload is not None:
            self.stats.increment("disk_hits")
            artifact.restore(payload)
        else:
            self.stats.increment("disk_misses")
        return artifact

    def _load_payload(self, key: str) -> Optional[dict]:
        with self._connection.lock:
            if self._connection.closed:
                return None
            try:
                rows = self._connection.fetchall(
                    "SELECT field, payload FROM artifacts WHERE key = ?", (key,))
            except sqlite3.DatabaseError:
                self.stats.increment("disk_corruptions")
                return None
            if not rows:
                return None
            payload = {}
            try:
                for field, blob in rows:
                    if field not in SourceArtifact.PAYLOAD_FIELDS:
                        raise ValueError(f"unknown payload field {field!r}")
                    payload[field] = pickle.loads(blob)
            except Exception:
                # a torn or corrupted row: drop the whole entry and recompute
                self.stats.increment("disk_corruptions")
                try:
                    self._connection.execute(
                        "DELETE FROM artifacts WHERE key = ?", (key,))
                except sqlite3.DatabaseError:
                    pass
                return None
            try:
                self._connection.execute(
                    "UPDATE artifacts SET last_used = ? WHERE key = ?",
                    (time.time(), key))
            except sqlite3.DatabaseError:
                pass
            return payload

    def _write(self, sql: str, parameters: tuple) -> None:
        """One write-through; a failure is counted, never raised."""
        with self._connection.lock:
            if self._connection.closed:
                return
            try:
                self._connection.execute(sql, parameters)
                self.stats.increment("disk_writes")
            except sqlite3.DatabaseError:
                self.stats.increment("disk_errors")

    def _persist(self, artifact: SourceArtifact, field: str) -> None:
        value = getattr(artifact, "_" + field)
        if value is None:
            return
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        now = time.time()
        self._write("REPLACE INTO artifacts (key, field, payload, size, created, "
                    "last_used) VALUES (?, ?, ?, ?, ?, ?)",
                    (artifact.key, field, blob, len(blob), now, now))

    def _fetch_function_digest(self, key: str) -> Optional[str]:
        with self._connection.lock:
            if self._connection.closed:
                return None
            try:
                row = self._connection.fetchone(
                    "SELECT digest FROM functions WHERE key = ?", (key,))
            except sqlite3.DatabaseError:
                self.stats.increment("disk_corruptions")
                return None
        return row[0] if row is not None else None

    def _persist_function_digest(self, key: str, digest: str) -> None:
        self._write("REPLACE INTO functions (key, digest, created) "
                    "VALUES (?, ?, ?)", (key, digest, time.time()))

    # -- introspection / maintenance ------------------------------------------
    @property
    def spec(self) -> ArtifactStoreSpec:
        """The picklable recipe (including the cache path) for workers."""
        return ArtifactStoreSpec(
            max_entries=self.max_entries,
            ngram_size=self.ngram_size,
            fingerprint_block_size=self.generator.hasher.block_size,
            fingerprint_window=self.generator.hasher.window,
            path=str(self.directory),
        )

    def disk_entries(self) -> int:
        """Number of artifacts (distinct sources) persisted in the disk tier."""
        with self._connection.lock:
            if self._connection.closed:
                return 0
            return self._connection.fetchone(
                "SELECT COUNT(DISTINCT key) FROM artifacts")[0]

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        vacuum: bool = False,
    ) -> int:
        """Evict disk-tier entries; returns the number of entries deleted.

        ``max_age_seconds`` drops entries not used within that window;
        ``max_entries`` then keeps only the most recently used ones.
        ``vacuum`` reclaims the freed file space.
        """
        with self._connection.lock:
            if self._connection.closed:
                return 0
            deleted = _evict(self._connection, max_entries, max_age_seconds)
            if vacuum:
                self._connection.execute("VACUUM")
        return deleted

    def clear(self, disk: bool = False) -> None:
        """Drop cached artifacts; with ``disk=True`` also empty the disk tier."""
        super().clear()
        if disk:
            self.function_digests.clear()
            with self._connection.lock:
                if not self._connection.closed:
                    self._connection.execute("DELETE FROM artifacts")
                    self._connection.execute("DELETE FROM functions")

    # -- CLI entry points (no configuration match required) -------------------
    @classmethod
    def read_usage(cls, directory: Union[str, Path]) -> dict:
        """Disk usage plus recorded configuration for ``repro cache stats``.

        Unlike the constructor this never validates the CCD configuration,
        so any cache directory can be inspected.
        """
        database = Path(directory) / DATABASE_NAME
        if not database.exists():
            return {"entries": 0, "payload_bytes": 0, "configuration": None}
        try:
            connection = sqlite3.connect(str(database))
            try:
                row = connection.execute(
                    "SELECT COUNT(DISTINCT key), COALESCE(SUM(size), 0) "
                    "FROM artifacts").fetchone()
                meta = connection.execute(
                    "SELECT value FROM meta WHERE key = 'configuration'").fetchone()
            finally:
                connection.close()
        except sqlite3.DatabaseError:
            return {"entries": 0, "payload_bytes": 0, "configuration": None,
                    "corrupt": True}
        configuration = None
        if meta is not None:
            try:
                configuration = json.loads(meta[0])
            except json.JSONDecodeError:
                pass
        return {"entries": row[0], "payload_bytes": row[1],
                "file_bytes": database.stat().st_size,
                "configuration": configuration}

    @classmethod
    def collect_garbage(
        cls,
        directory: Union[str, Path],
        max_entries: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        vacuum: bool = True,
    ) -> int:
        """GC a cache directory without opening it as a store (``repro cache gc``)."""
        database = Path(directory) / DATABASE_NAME
        if not database.exists():
            return 0
        try:
            connection = sqlite3.connect(str(database))
        except sqlite3.DatabaseError:
            return 0
        deleted = 0
        try:
            deleted = _evict(connection, max_entries, max_age_seconds)
            connection.commit()
            if vacuum:
                connection.execute("VACUUM")
        except sqlite3.DatabaseError:
            pass
        finally:
            connection.close()
        return deleted


__all__ = [
    "CacheConfigurationError",
    "DATABASE_NAME",
    "DiskArtifactStore",
    "DiskArtifactStoreStats",
    "FORMAT_VERSION",
]
