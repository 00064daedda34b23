"""Tests for the shared SQLite layer (``repro.core.sqlite``) and its stores.

Five durable stores open through one opener: the artifact cache, the
score memo, the job queue and the two source journals.  These tests pin
what every one of them gets from it (WAL, the busy timeout, SQLite's
default ``synchronous``), the on-disk layout a rewrite must not move
(the ``jobs`` columns, in order), and the opener's own contract:
column migration, quarantine, transactions and close.
"""

import sqlite3
import sys
import threading

import pytest

from repro.ccd.score_memo import SCORE_MEMO_NAME, ScoreMemoTable
from repro.core.persistence import DATABASE_NAME, DiskArtifactStore
from repro.core.sqlite import BUSY_TIMEOUT_SECONDS, Database, connect, quarantine
from repro.service.coordinator import CORPUS_DATABASE_NAME, CorpusJournal
from repro.service.delta import SOURCES_DATABASE_NAME, SourceJournal
from repro.service.jobstore import JOBS_DATABASE_NAME, JobStore

#: each durable store, opened fresh in a directory, with its file there
STORES = {
    "artifact-cache": (lambda root: DiskArtifactStore(root / "cache"),
                       f"cache/{DATABASE_NAME}"),
    "score-memo": (lambda root: ScoreMemoTable(root / "index" / SCORE_MEMO_NAME),
                   f"index/{SCORE_MEMO_NAME}"),
    "jobs": (lambda root: JobStore(root / JOBS_DATABASE_NAME),
             JOBS_DATABASE_NAME),
    "worker-sources": (lambda root: SourceJournal(root / SOURCES_DATABASE_NAME),
                       SOURCES_DATABASE_NAME),
    "coordinator-corpus": (lambda root: CorpusJournal(root / CORPUS_DATABASE_NAME),
                           CORPUS_DATABASE_NAME),
}

#: ``PRAGMA table_info(jobs)`` of a fresh database as every earlier
#: release wrote it: (name, type, notnull, default, pk), in column order
JOBS_COLUMNS = [
    ("id", "INTEGER", 0, None, 1),
    ("state", "TEXT", 1, "'queued'", 0),
    ("analyses", "TEXT", 1, None, 0),
    ("corpus", "TEXT", 1, None, 0),
    ("options", "TEXT", 1, "'{}'", 0),
    ("error", "TEXT", 0, None, 0),
    ("submitted", "REAL", 1, None, 0),
    ("started", "REAL", 0, None, 0),
    ("finished", "REAL", 0, None, 0),
    ("fanout", "TEXT", 0, None, 0),
    ("priority", "TEXT", 1, "'batch'", 0),
    ("tenant", "TEXT", 0, None, 0),
    ("workload", "TEXT", 0, None, 0),
    ("cancel_requested", "INTEGER", 1, "0", 0),
]

SCHEMA = "CREATE TABLE IF NOT EXISTS items (id INTEGER PRIMARY KEY, name TEXT);"


class TestEveryStore:
    @pytest.mark.parametrize("name", sorted(STORES))
    def test_opens_with_wal_and_the_busy_timeout(self, tmp_path, name):
        open_store, relative = STORES[name]
        store = open_store(tmp_path)
        try:
            connection = store._connection.connection
            assert connection.execute(
                "PRAGMA journal_mode").fetchone()[0] == "wal"
            assert connection.execute(
                "PRAGMA busy_timeout").fetchone()[0] == 30000
            default = sqlite3.connect(":memory:")
            assert connection.execute("PRAGMA synchronous").fetchone() == \
                default.execute("PRAGMA synchronous").fetchone()
            default.close()
        finally:
            store.close()
        # WAL is a property of the file: a plain connection sees it too
        reopened = sqlite3.connect(tmp_path / relative)
        assert reopened.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        reopened.close()

    def test_busy_timeout_constant_is_thirty_seconds(self):
        assert BUSY_TIMEOUT_SECONDS == 30.0

    def test_fresh_jobs_database_has_the_released_columns_in_order(self, tmp_path):
        JobStore(tmp_path / JOBS_DATABASE_NAME).close()
        connection = sqlite3.connect(tmp_path / JOBS_DATABASE_NAME)
        try:
            columns = [tuple(row[1:]) for row in
                       connection.execute("PRAGMA table_info(jobs)")]
            indexes = {row[0] for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index' "
                "AND tbl_name = 'jobs'")}
        finally:
            connection.close()
        assert columns == JOBS_COLUMNS
        assert indexes == {"jobs_by_state", "jobs_by_lane"}


class TestConnect:
    def test_adds_missing_columns_in_map_order(self, tmp_path):
        path = tmp_path / "legacy.sqlite"
        legacy = sqlite3.connect(path)
        legacy.execute(SCHEMA)
        legacy.execute("INSERT INTO items (name) VALUES ('old')")
        legacy.commit()
        legacy.close()
        columns = {"items": {"color": "TEXT NOT NULL DEFAULT 'red'",
                             "size": "INTEGER"}}
        connection = connect(path, SCHEMA, columns)
        try:
            assert [row[1] for row in connection.execute(
                "PRAGMA table_info(items)")] == ["id", "name", "color", "size"]
            assert connection.execute(
                "SELECT name, color, size FROM items").fetchall() == [
                    ("old", "red", None)]
        finally:
            connection.close()
        # a second open finds every column present and alters nothing
        connection = connect(path, SCHEMA, columns)
        assert len(connection.execute(
            "PRAGMA table_info(items)").fetchall()) == 4
        connection.close()

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "new.sqlite"
        connect(path, SCHEMA).close()
        assert path.exists()

    def test_corrupt_file_raises_database_error(self, tmp_path):
        path = tmp_path / "broken.sqlite"
        path.write_bytes(b"this is not a sqlite database at all......")
        with pytest.raises(sqlite3.DatabaseError):
            connect(path, SCHEMA)


class TestQuarantine:
    def test_moves_the_database_and_its_side_files(self, tmp_path):
        path = tmp_path / "store.sqlite"
        for suffix in ("", "-wal", "-shm"):
            (tmp_path / f"store.sqlite{suffix}").write_bytes(b"junk")
        quarantine(path)
        for suffix in ("", "-wal", "-shm"):
            assert not (tmp_path / f"store.sqlite{suffix}").exists()
            assert (tmp_path / f"store.sqlite{suffix}.corrupt").read_bytes() == b"junk"

    def test_missing_files_are_skipped(self, tmp_path):
        quarantine(tmp_path / "absent.sqlite")
        assert list(tmp_path.iterdir()) == []


class TestDatabase:
    def test_transaction_commits(self, tmp_path):
        database = Database(tmp_path / "db.sqlite", SCHEMA)
        with database.transaction():
            database.execute("INSERT INTO items (name) VALUES ('kept')")
        assert database.fetchall("SELECT name FROM items") == [("kept",)]
        database.close()

    def test_transaction_rolls_back_reraises_and_releases_the_lock(self, tmp_path):
        database = Database(tmp_path / "db.sqlite", SCHEMA)
        with pytest.raises(ValueError):
            with database.transaction():
                database.execute("INSERT INTO items (name) VALUES ('lost')")
                raise ValueError("abort")
        # another thread can take the lock and open the next transaction
        def insert_next():
            with database.transaction():
                database.execute("INSERT INTO items (name) VALUES ('next')")

        thread = threading.Thread(target=insert_next)
        thread.start()
        thread.join(10)
        assert not thread.is_alive()
        assert database.fetchall("SELECT name FROM items") == [("next",)]
        database.close()

    def test_transaction_holds_sqlite_write_lock(self, tmp_path):
        """Another connection cannot write while a transaction is open."""
        path = tmp_path / "db.sqlite"
        database = Database(path, SCHEMA)
        other = sqlite3.connect(path, timeout=0.0, isolation_level=None)
        entered = threading.Event()
        release = threading.Event()

        def hold():
            with database.transaction():
                entered.set()
                release.wait(10)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert entered.wait(10)
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                other.execute("INSERT INTO items (name) VALUES ('racer')")
        finally:
            release.set()
            thread.join(10)
            other.close()
            database.close()
        assert not thread.is_alive()

    def test_two_job_stores_on_one_file_never_claim_a_job_twice(self, tmp_path):
        """``claim_next`` is one transaction across connections, not just threads."""
        path = tmp_path / JOBS_DATABASE_NAME
        stores = [JobStore(path), JobStore(path)]
        for _ in range(60):
            stores[0].submit([("a", "x")], ["ccd"])
        claimed: list = []
        errors: list = []

        def drain(store):
            try:
                while (job := store.claim_next()) is not None:
                    claimed.append(job.job_id)
            except Exception as error:  # pragma: no cover - the regression
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=drain, args=(store,))
                       for store in stores for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            for store in stores:
                store.close()
        assert errors == []
        assert sorted(claimed) == list(range(1, 61))

    def test_close_is_idempotent_and_execute_after_close_raises(self, tmp_path):
        database = Database(tmp_path / "db.sqlite", SCHEMA)
        assert not database.closed
        database.close()
        database.close()
        assert database.closed
        with pytest.raises(RuntimeError, match="closed"):
            database.execute("SELECT 1")
