"""The one SQLite layer: every durable store opens, migrates and commits here.

Its users are the artifact cache (``cache/artifacts.sqlite``), the score
memo (``index/scores.sqlite``), the job queue (``jobs.sqlite``) and the
source journals (``sources.sqlite``, a coordinator's ``corpus.sqlite``).
:func:`connect` opens one thread-shared autocommit connection in WAL mode
with a :data:`BUSY_TIMEOUT_SECONDS` busy timeout; :class:`Database` adds
the lock, retried statements and ``BEGIN IMMEDIATE`` transactions.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping, Optional, Union

#: how long a statement waits on a locked database before SQLite gives up
BUSY_TIMEOUT_SECONDS = 30.0


def is_busy_error(error: sqlite3.OperationalError) -> bool:
    """Whether an :class:`sqlite3.OperationalError` is SQLITE_BUSY/LOCKED.

    The stdlib driver surfaces both as ``OperationalError`` with a
    message, not a code, so the message is what can be matched.
    """
    message = str(error).lower()
    return "database is locked" in message or "database table is locked" in message


def retry_on_busy(operation, attempts: int = 6, base_delay: float = 0.02):
    """Run ``operation()`` retrying on SQLITE_BUSY with linear backoff.

    The busy timeout already makes SQLite wait *inside* one call, but a
    writer can still lose the race the moment the timeout elapses (WAL
    checkpoints, many processes hammering one database).  This wrapper
    is the second line of defence: up to ``attempts`` tries, sleeping
    ``base_delay * try`` between them, re-raising the final error.
    """
    for attempt in range(1, attempts + 1):
        try:
            return operation()
        except sqlite3.OperationalError as error:
            if not is_busy_error(error) or attempt == attempts:
                raise
            time.sleep(base_delay * attempt)


def connect(path: Union[str, Path], schema: str,
            columns: Optional[Mapping[str, Mapping[str, str]]] = None,
            ) -> sqlite3.Connection:
    """Open one store's database in WAL mode with the busy timeout.

    ``schema`` is a ``CREATE ... IF NOT EXISTS`` script.  ``columns`` maps
    ``{table: {column: declaration}}`` for the columns added to a table
    after its first release, in order: an older database gains whichever
    it lacks, so it ends up with a fresh one's columns in the same order.
    The file and its directory are created on demand; ``synchronous``
    keeps SQLite's default.  A file that is no database raises
    :class:`sqlite3.DatabaseError`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    connection = sqlite3.connect(str(path), timeout=BUSY_TIMEOUT_SECONDS,
                                 check_same_thread=False, isolation_level=None)
    try:
        connection.execute("PRAGMA journal_mode=WAL")
        connection.executescript(schema)
        for table, declarations in (columns or {}).items():
            present = {row[1] for row in
                       connection.execute(f"PRAGMA table_info({table})")}
            for column, declaration in declarations.items():
                if column not in present:
                    connection.execute(
                        f"ALTER TABLE {table} ADD COLUMN {column} {declaration}")
    except BaseException:
        connection.close()
        raise
    return connection


def quarantine(path: Union[str, Path]) -> None:
    """Move a corrupt database and its ``-wal``/``-shm`` files to ``.corrupt``."""
    for suffix in ("", "-wal", "-shm"):
        stale = Path(f"{path}{suffix}")
        if stale.exists():
            try:
                os.replace(stale, f"{stale}.corrupt")
            except OSError:
                stale.unlink(missing_ok=True)


class Database:
    """One store's connection, behind the reentrant lock its users share.

    Every statement runs under :attr:`lock`, and :meth:`fetchone` /
    :meth:`fetchall` read its rows before releasing it; hold the lock
    yourself to keep several statements together.  After :meth:`close`,
    :attr:`closed` is true and statements raise :class:`RuntimeError`.
    """

    def __init__(self, path: Union[str, Path], schema: str,
                 columns: Optional[Mapping[str, Mapping[str, str]]] = None):
        self.path = Path(path)
        self.lock = threading.RLock()
        self.connection: Optional[sqlite3.Connection] = connect(
            self.path, schema, columns)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self.connection is None

    def execute(self, sql: str, parameters=()) -> sqlite3.Cursor:
        """Run one statement, retrying while the database is busy."""
        with self.lock:
            if self.connection is None:
                raise RuntimeError(f"{self.path.name} is closed")
            return retry_on_busy(lambda: self.connection.execute(sql, parameters))

    def fetchone(self, sql: str, parameters=()) -> Optional[tuple]:
        """The first row of one statement."""
        with self.lock:
            return self.execute(sql, parameters).fetchone()

    def fetchall(self, sql: str, parameters=()) -> list:
        """Every row of one statement."""
        with self.lock:
            return self.execute(sql, parameters).fetchall()

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Hold the lock across one ``BEGIN IMMEDIATE`` write transaction.

        The block commits when it exits normally (``return`` included)
        and rolls back on any exception, which propagates.
        """
        with self.lock:
            self.execute("BEGIN IMMEDIATE")
            try:
                yield
                self.execute("COMMIT")
            except BaseException:
                try:
                    self.connection.execute("ROLLBACK")
                except sqlite3.Error:
                    pass  # never mask the original exception
                raise

    def close(self) -> None:
        """Close the connection (idempotent)."""
        with self.lock:
            if self.connection is not None:
                self.connection.close()
                self.connection = None


__all__ = [
    "BUSY_TIMEOUT_SECONDS",
    "Database",
    "connect",
    "is_busy_error",
    "quarantine",
    "retry_on_busy",
]
