"""The corpus-global sub-fingerprint score memo, with an optional disk tier.

Real corpora repeat sub-fingerprints heavily: the same withdraw/transfer
function fuzzy-hashes to the same sub-fingerprint across thousands of
contracts.  The per-pair similarity δ is a pure function of the two
strings, so each distinct (sub₁, sub₂) pair only ever needs to be scored
**once per corpus lifetime** — not once per query, which is what the
per-query memo of PR 4 did and what made the resident daemon re-score
identical pairs on every job.

:class:`ScoreMemoTable` is that corpus-lifetime memo:

* an in-memory dict keyed by the canonically ordered (sub₁, sub₂) pair
  (δ is symmetric) in front — holding exact scores (``>= 0``) and, for
  pairs the pruned verifier abandoned at a distance limit, negatively
  encoded *cutoff bounds* (``-U``: the true score is provably below
  ``U``), so a warm table answers even the pairs that were never scored
  exactly,
* an optional SQLite tier, the ``scores`` table of a saved CCD index
  (:mod:`repro.ccd.index_io`) or of a file of its own: scores are
  **written through** as they are computed and loaded back eagerly on
  open, so a restarted daemon is warm — a repeated job re-scores zero
  pairs,
* reference-counted invalidation: every indexed document *registers* its
  sub-fingerprints; when a fingerprint is retired (``release``) and a
  sub's count drops to zero, every memoized pair involving that sub is
  dropped from both tiers.  Scores are content-pure, so invalidation is
  purely a space/lifecycle bound, never a correctness requirement — which
  is also why sharing one table between backends and across jobs can
  never change reported matches.

The table is thread-safe (scheduler workers share one instance) and
picklable (the connection is dropped and reopened lazily, like the
detector's stats lock).  A table attached to a shared
:class:`~repro.core.sqlite.Database` guards itself with that database's
lock, so its writes join the owner's transactions and the two locks can
never be taken in opposite orders.
"""

from __future__ import annotations

import sqlite3
import threading
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.core.sqlite import Database, quarantine

#: bump when the scores schema changes; a tier in a file of its own with
#: another version is discarded
SCORE_MEMO_FORMAT_VERSION = 1

#: the disk tier's table, part of every database a table writes through to
SCORES_SCHEMA = """
CREATE TABLE IF NOT EXISTS scores (
    first  TEXT NOT NULL,
    second TEXT NOT NULL,
    score  REAL NOT NULL,
    PRIMARY KEY (first, second)
);
CREATE INDEX IF NOT EXISTS scores_by_second ON scores (second);
"""

#: the format stamp of a tier in a file of its own
_META_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


def _open_file(path: Path) -> Database:
    """Open a tier in a file of its own, stamped with its format version."""
    try:
        database = Database(path, SCORES_SCHEMA + _META_SCHEMA)
    except sqlite3.DatabaseError:
        # an unreadable tier degrades to a cold one, like the artifact cache
        quarantine(path)
        database = Database(path, SCORES_SCHEMA + _META_SCHEMA)
    version = database.fetchone(
        "SELECT value FROM meta WHERE key = 'format_version'")
    if version is None or version[0] != str(SCORE_MEMO_FORMAT_VERSION):
        if version is not None:
            database.execute("DELETE FROM scores")
        database.execute(
            "REPLACE INTO meta (key, value) VALUES ('format_version', ?)",
            (str(SCORE_MEMO_FORMAT_VERSION),))
    return database


def memo_key(first: str, second: str) -> Tuple[str, str]:
    """Canonical memo key: δ is symmetric, so order the pair."""
    return (first, second) if first <= second else (second, first)


@dataclass
class ScoreMemoStats:
    """Counters of one :class:`ScoreMemoTable` (for ``/v1/stats`` and tests)."""

    #: lookups answered from the table (corpus-global memo hits)
    hits: int = 0
    #: lookups that found no memoized score (the pair was then computed)
    misses: int = 0
    #: scores written into the table (and through to disk when attached)
    stores: int = 0
    #: rows hydrated from the disk tier on open (warm-restart scores)
    warm_loaded: int = 0
    #: rows dropped by refcounted invalidation (retired fingerprints)
    invalidated: int = 0
    #: stores refused because a key's sub was already retired — the
    #: write was racing an invalidation and would have resurrected a
    #: dropped row
    blocked_stores: int = 0
    #: disk-tier write/delete failures (the memory tier keeps working)
    disk_errors: int = 0

    def as_dict(self) -> dict:
        """All counters plus the derived hit rate, as a plain dict."""
        data = {field.name: getattr(self, field.name) for field in fields(self)}
        data["hit_rate"] = self.hit_rate
        return data

    @property
    def lookups(self) -> int:
        """Total memo lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered without recomputing a distance."""
        return self.hits / self.lookups if self.lookups else 0.0


class ScoreMemoTable:
    """Corpus-lifetime (sub₁, sub₂) → δ memo, optionally persisted.

    Parameters
    ----------
    database:
        The disk tier: a :class:`~repro.core.sqlite.Database` whose
        schema includes :data:`SCORES_SCHEMA` (a saved index's, shared
        with its owner), or the path of a SQLite file of its own.
        ``None`` keeps the table purely in-memory (the default of a
        standalone :class:`MatchPipeline`).  Existing rows are loaded
        eagerly, so every previously computed score is warm before the
        first query runs.
    """

    def __init__(self, database: Union[Database, str, Path, None] = None):
        self._scores: Dict[Tuple[str, str], float] = {}
        #: sub-fingerprint -> keys it participates in (for invalidation)
        self._by_sub: Dict[str, set] = {}
        #: sub-fingerprint -> number of live fingerprints carrying it
        self._refs: Dict[str, int] = {}
        #: subs whose refcount hit zero — writes touching them are
        #: refused until a re-registration, so a score computed *before*
        #: an invalidation can never resurrect a dropped row *after* it
        self._retired: set = set()
        self.stats = ScoreMemoStats()
        if database is not None and not isinstance(database, Database):
            database = _open_file(Path(database))
        #: the disk tier; ``None`` while the table is purely in-memory
        self._connection: Optional[Database] = database
        self.path = database.path if database is not None else None
        self._lock = database.lock if database is not None else threading.Lock()
        if database is not None:
            try:
                rows = database.fetchall("SELECT first, second, score FROM scores")
            except sqlite3.DatabaseError:
                rows = []
            for first, second, score in rows:
                self._remember((first, second), score)
            self.stats.warm_loaded += len(rows)

    def close(self) -> None:
        """Close the disk tier (in-memory lookups keep working)."""
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    @property
    def persistent(self) -> bool:
        """Whether this table writes scores through to a disk tier."""
        return self.path is not None

    def rows(self) -> list:
        """Every memoized ``(first, second, score)`` row, as a snapshot."""
        with self._lock:
            return [(key[0], key[1], score) for key, score in self._scores.items()]

    # -- pickling (MatchPipeline/CloneDetector round-trip through pickle) -----
    def __getstate__(self):
        """Drop the lock and connection; keep the memo contents and path."""
        state = dict(self.__dict__)
        del state["_lock"]
        del state["_connection"]
        return state

    def __setstate__(self, state):
        """Restore with a fresh lock; reattach the disk tier when configured."""
        self.__dict__.update(state)
        self.__dict__.setdefault("_retired", set())
        self._connection = None
        if self.path is not None:
            try:
                self._connection = Database(self.path, SCORES_SCHEMA)
            except sqlite3.DatabaseError:
                self.stats.disk_errors += 1
        self._lock = self._connection.lock if self._connection is not None \
            else threading.Lock()

    # -- lookups --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, key: Tuple[str, str]) -> bool:
        return key in self._scores

    def get(self, key: Tuple[str, str]) -> Optional[float]:
        """The memoized score of a canonical pair key, or ``None``.

        Dict get is atomic under the GIL, so the hot path takes no lock;
        the counters may lose an increment under a race, the score never.
        """
        score = self._scores.get(key)
        if score is not None:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        return score

    def _remember(self, key: Tuple[str, str], score: float) -> None:
        self._scores[key] = score
        self._by_sub.setdefault(key[0], set()).add(key)
        if key[1] != key[0]:
            self._by_sub.setdefault(key[1], set()).add(key)

    def __setitem__(self, key: Tuple[str, str], score: float) -> None:
        """Memoize one pair entry, writing through to the disk tier.

        Non-negative values are exact δ scores and are final (scores are
        pure).  Negative values encode a *cutoff bound*: ``-U`` records
        that the pair's true score is provably below ``U`` — the pruned
        verifier abandoned the pair at a distance limit.  Bounds may be
        tightened (a larger encoded value) or upgraded to an exact score;
        they never overwrite one.

        A store whose key touches a *retired* sub (registered once, then
        fully released) is refused: a scheduler worker may compute a
        score concurrently with an ingest that retires one of its subs,
        and honoring the late write would silently resurrect a dropped
        row in both tiers.  Re-registering the sub lifts the refusal.
        """
        with self._lock:
            if key[0] in self._retired or key[1] in self._retired:
                self.stats.blocked_stores += 1
                return
            existing = self._scores.get(key)
            if existing is not None and (existing >= 0.0 or score <= existing):
                return
            self._remember(key, score)
            self.stats.stores += 1
            if self._connection is not None:
                try:
                    self._connection.execute(
                        "REPLACE INTO scores (first, second, score) "
                        "VALUES (?, ?, ?)", (key[0], key[1], score))
                except sqlite3.DatabaseError:
                    self.stats.disk_errors += 1

    # -- fingerprint lifecycle ------------------------------------------------
    def register(self, subs: Iterable[str]) -> None:
        """Count an indexed fingerprint's sub-fingerprints as live."""
        with self._lock:
            for sub in subs:
                if sub:
                    self._refs[sub] = self._refs.get(sub, 0) + 1
                    self._retired.discard(sub)

    def release(self, subs: Iterable[str]) -> None:
        """Un-count a retired fingerprint's subs; drop orphaned pair rows.

        A sub whose reference count reaches zero no longer appears in any
        indexed document, so every memoized pair involving it is deleted
        from both tiers — retired fingerprints do not leak table rows.
        """
        with self._lock:
            for sub in subs:
                if not sub:
                    continue
                count = self._refs.get(sub)
                if count is None:
                    continue
                if count > 1:
                    self._refs[sub] = count - 1
                    continue
                del self._refs[sub]
                self._retired.add(sub)
                self._invalidate_locked(sub)

    def _invalidate_locked(self, sub: str) -> None:
        for key in self._by_sub.pop(sub, ()):
            if self._scores.pop(key, None) is not None:
                self.stats.invalidated += 1
            other = key[1] if key[0] == sub else key[0]
            if other != sub:
                siblings = self._by_sub.get(other)
                if siblings is not None:
                    siblings.discard(key)
                    if not siblings:
                        del self._by_sub[other]
        if self._connection is not None:
            try:
                self._connection.execute(
                    "DELETE FROM scores WHERE first = ? OR second = ?", (sub, sub))
            except sqlite3.DatabaseError:
                self.stats.disk_errors += 1

    def disk_rows(self) -> int:
        """Number of rows in the disk tier (0 when purely in-memory)."""
        with self._lock:
            if self._connection is None:
                return 0
            try:
                return self._connection.fetchone("SELECT COUNT(*) FROM scores")[0]
            except sqlite3.DatabaseError:
                return 0

    def as_dict(self) -> dict:
        """Stats plus size, for ``/v1/stats`` and the profile reports."""
        data = self.stats.as_dict()
        data["entries"] = len(self._scores)
        data["persistent"] = self.persistent
        return data

    def __repr__(self) -> str:
        tier = f"disk={str(self.path)!r}" if self.path is not None else "memory"
        return f"ScoreMemoTable({len(self._scores)} scores, {tier})"


__all__ = [
    "SCORES_SCHEMA",
    "SCORE_MEMO_FORMAT_VERSION",
    "ScoreMemoStats",
    "ScoreMemoTable",
    "memo_key",
]
