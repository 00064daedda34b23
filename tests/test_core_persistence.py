"""Tests for the disk-backed artifact store and the atomic file helpers."""

import pickle
import sqlite3

import pytest

from repro.core.artifacts import ArtifactStoreSpec, process_local_store
from repro.core.fileio import (
    atomic_write_bytes,
    dump_json,
    dump_pickle,
    try_load_json,
    try_load_pickle,
)
from repro.core.persistence import (
    DATABASE_NAME,
    CacheConfigurationError,
    DiskArtifactStore,
)

GOOD_SOURCE = """
contract Bank {
    mapping(address => uint) balances;
    function withdraw(uint amount) public {
        require(balances[msg.sender] >= amount);
        msg.sender.call.value(amount)();
        balances[msg.sender] -= amount;
    }
}
"""

OTHER_SOURCE = """
contract Token {
    mapping(address => uint) balances;
    function transfer(address to, uint value) public {
        balances[msg.sender] -= value;
        balances[to] += value;
    }
}
"""

BAD_SOURCE = "this is not solidity at all {{{"


# ---------------------------------------------------------------------------
# fileio
# ---------------------------------------------------------------------------

class TestFileHelpers:
    def test_atomic_write_creates_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "payload.bin"
        atomic_write_bytes(target, b"data")
        assert target.read_bytes() == b"data"

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        atomic_write_bytes(tmp_path / "x.bin", b"1")
        atomic_write_bytes(tmp_path / "x.bin", b"2")
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]
        assert (tmp_path / "x.bin").read_bytes() == b"2"

    def test_pickle_roundtrip(self, tmp_path):
        dump_pickle(tmp_path / "obj.pkl", {"a": frozenset({1, 2})})
        assert try_load_pickle(tmp_path / "obj.pkl") == {"a": frozenset({1, 2})}

    def test_pickle_corruption_returns_none(self, tmp_path):
        path = tmp_path / "obj.pkl"
        dump_pickle(path, [1, 2, 3])
        path.write_bytes(path.read_bytes()[:-4])  # truncate
        assert try_load_pickle(path) is None
        assert try_load_pickle(tmp_path / "missing.pkl") is None

    def test_json_roundtrip_and_corruption(self, tmp_path):
        dump_json(tmp_path / "m.json", {"x": 1})
        assert try_load_json(tmp_path / "m.json") == {"x": 1}
        (tmp_path / "m.json").write_text("{ not json")
        assert try_load_json(tmp_path / "m.json") is None


# ---------------------------------------------------------------------------
# DiskArtifactStore
# ---------------------------------------------------------------------------

class TestDiskArtifactStore:
    def test_cold_then_warm_roundtrip_zero_parses(self, tmp_path):
        with DiskArtifactStore(tmp_path / "cache") as store:
            artifact = store.get(GOOD_SOURCE)
            fingerprint = artifact.fingerprint
            graph_size = len(artifact.graph)
            grams = artifact.ngrams
            assert store.stats.parse_calls == 1
            assert store.stats.disk_misses == 1
            assert store.stats.disk_writes >= 1

        with DiskArtifactStore(tmp_path / "cache") as warm:
            artifact = warm.get(GOOD_SOURCE)
            assert artifact.fingerprint.text == fingerprint.text
            assert len(artifact.graph) == graph_size
            assert artifact.ngrams == grams
            assert warm.stats.parse_calls == 0
            assert warm.stats.cpg_builds == 0
            assert warm.stats.fingerprint_builds == 0
            assert warm.stats.disk_hits == 1

    def test_parse_failures_are_cached_on_disk(self, tmp_path):
        with DiskArtifactStore(tmp_path / "cache") as store:
            assert store.get(BAD_SOURCE).parse_ok is False
        with DiskArtifactStore(tmp_path / "cache") as warm:
            artifact = warm.get(BAD_SOURCE)
            assert artifact.parse_ok is False
            assert artifact.parse_error
            assert warm.stats.parse_calls == 0

    def test_memory_tier_in_front(self, tmp_path):
        with DiskArtifactStore(tmp_path / "cache") as store:
            first = store.get(GOOD_SOURCE)
            second = store.get(GOOD_SOURCE)
            assert first is second
            assert store.stats.hits == 1
            # the repeated get never consulted the disk tier again
            assert store.stats.disk_lookups == 1

    def test_memory_eviction_falls_back_to_disk(self, tmp_path):
        with DiskArtifactStore(tmp_path / "cache", max_entries=1) as store:
            store.get(GOOD_SOURCE).fingerprint
            store.get(OTHER_SOURCE).fingerprint  # evicts GOOD from memory
            assert store.stats.evictions == 1
            store.get(GOOD_SOURCE).fingerprint
            assert store.stats.disk_hits == 1
            assert store.stats.parse_calls == 2  # never re-parsed

    def test_corrupt_row_is_discarded_and_recomputed(self, tmp_path):
        directory = tmp_path / "cache"
        with DiskArtifactStore(directory) as store:
            store.get(GOOD_SOURCE).fingerprint
            key = store.get(GOOD_SOURCE).key
        connection = sqlite3.connect(str(directory / DATABASE_NAME))
        connection.execute("UPDATE artifacts SET payload = ? WHERE key = ?",
                           (b"garbage bytes", key))
        connection.commit()
        connection.close()
        with DiskArtifactStore(directory) as store:
            artifact = store.get(GOOD_SOURCE)
            assert artifact.fingerprint.text  # recomputed fine
            assert store.stats.disk_corruptions == 1
            # the surviving function-digest tier rebuilt the fingerprint
            # without a single re-parse
            assert store.stats.parse_calls == 0
            assert store.stats.delta_assemblies == 1
        # the recompute healed the cache
        with DiskArtifactStore(directory) as healed:
            healed.get(GOOD_SOURCE).fingerprint
            assert healed.stats.parse_calls == 0

    def test_corrupt_database_file_is_quarantined(self, tmp_path):
        directory = tmp_path / "cache"
        with DiskArtifactStore(directory) as store:
            store.get(GOOD_SOURCE).fingerprint
        # another process still has the cache open, so its -wal/-shm files
        # outlive the failed open below and must be moved aside with it
        holder = sqlite3.connect(str(directory / DATABASE_NAME))
        holder.execute("SELECT COUNT(*) FROM meta").fetchone()
        (directory / DATABASE_NAME).write_bytes(b"definitely not sqlite")
        try:
            with DiskArtifactStore(directory) as store:
                assert store.stats.disk_corruptions == 1
                artifact = store.get(GOOD_SOURCE)
                assert artifact.fingerprint.text
                assert store.stats.parse_calls == 1
        finally:
            holder.close()
        for suffix in ("", "-wal", "-shm"):
            assert (directory / (DATABASE_NAME + suffix + ".corrupt")).exists()

    def test_configuration_mismatch_is_rejected(self, tmp_path):
        directory = tmp_path / "cache"
        DiskArtifactStore(directory, ngram_size=3).close()
        with pytest.raises(CacheConfigurationError):
            DiskArtifactStore(directory, ngram_size=5)

    def test_gc_by_entries_and_age(self, tmp_path):
        with DiskArtifactStore(tmp_path / "cache") as store:
            store.get(GOOD_SOURCE).fingerprint
            store.get(OTHER_SOURCE).fingerprint
            assert store.disk_entries() == 2
            assert store.gc(max_entries=1) == 1
            assert store.disk_entries() == 1
            assert store.gc(max_age_seconds=0.0) == 1
            assert store.disk_entries() == 0

    def test_clear_disk(self, tmp_path):
        with DiskArtifactStore(tmp_path / "cache") as store:
            store.get(GOOD_SOURCE).fingerprint
            store.clear(disk=True)
            assert len(store) == 0
            assert store.disk_entries() == 0

    def test_spec_roundtrip_shares_disk_tier(self, tmp_path):
        with DiskArtifactStore(tmp_path / "cache") as store:
            store.get(GOOD_SOURCE).fingerprint
            spec = store.spec
        assert spec.path == str(tmp_path / "cache")
        assert pickle.loads(pickle.dumps(spec)) == spec
        with spec.build() as rebuilt:
            assert isinstance(rebuilt, DiskArtifactStore)
            rebuilt.get(GOOD_SOURCE).fingerprint
            assert rebuilt.stats.parse_calls == 0
        # process_local_store caches per spec
        worker_store = process_local_store(spec)
        assert process_local_store(spec) is worker_store

    def test_plain_spec_builds_in_memory_store(self):
        spec = ArtifactStoreSpec()
        assert spec.path is None
        assert not isinstance(spec.build(), DiskArtifactStore)

    def test_read_usage_and_collect_garbage_classmethods(self, tmp_path):
        directory = tmp_path / "cache"
        assert DiskArtifactStore.read_usage(directory)["entries"] == 0
        with DiskArtifactStore(directory) as store:
            store.get(GOOD_SOURCE).fingerprint
            store.get(OTHER_SOURCE).fingerprint
        usage = DiskArtifactStore.read_usage(directory)
        assert usage["entries"] == 2
        assert usage["payload_bytes"] > 0
        assert usage["configuration"]["ngram_size"] == 3
        assert DiskArtifactStore.collect_garbage(directory, max_entries=0) == 2
        assert DiskArtifactStore.read_usage(directory)["entries"] == 0

    def test_stats_as_dict_includes_disk_counters(self, tmp_path):
        with DiskArtifactStore(tmp_path / "cache") as store:
            store.get(GOOD_SOURCE).fingerprint
            data = store.stats.as_dict()
        for counter in ("disk_hits", "disk_misses", "disk_writes",
                        "disk_corruptions", "disk_errors"):
            assert counter in data


# ---------------------------------------------------------------------------
# busy handling under concurrent writers
# ---------------------------------------------------------------------------

class TestBusyHandling:
    def test_retry_on_busy_retries_then_succeeds(self):
        from repro.core.sqlite import retry_on_busy

        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        assert retry_on_busy(flaky, attempts=5, base_delay=0.0) == "ok"
        assert len(calls) == 3

    def test_retry_on_busy_gives_up_after_attempts(self):
        from repro.core.sqlite import retry_on_busy

        def always_locked():
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError):
            retry_on_busy(always_locked, attempts=3, base_delay=0.0)

    def test_retry_on_busy_propagates_other_errors_immediately(self):
        from repro.core.sqlite import retry_on_busy

        calls = []

        def broken():
            calls.append(1)
            raise sqlite3.OperationalError("no such table: artifacts")

        with pytest.raises(sqlite3.OperationalError):
            retry_on_busy(broken, attempts=5, base_delay=0.0)
        assert len(calls) == 1  # not a busy error: no retry

    def test_concurrent_writers_one_cache_path(self, tmp_path):
        """Two stores (two connections) hammering one cache concurrently.

        The regression this guards: without a busy timeout + retry, one
        writer hits SQLITE_BUSY mid-burst and its artifacts are silently
        dropped (counted as disk_errors).  With them, every write lands.
        """
        import threading

        directory = tmp_path / "cache"
        sources = [
            f"contract C{index} {{ function f() public returns (uint) "
            f"{{ return {index}; }} }}"
            for index in range(24)
        ]
        stores = [DiskArtifactStore(directory) for _ in range(2)]
        errors: list = []

        def hammer(store, chunk):
            try:
                for source in chunk:
                    store.get(source).fingerprint  # materialize -> write-through
            except Exception as error:  # pragma: no cover - the regression
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(stores[0], sources[:12])),
            threading.Thread(target=hammer, args=(stores[1], sources[12:])),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        try:
            assert errors == []
            assert stores[0].stats.disk_errors == 0
            assert stores[1].stats.disk_errors == 0
            assert stores[0].disk_entries() == len(sources)
        finally:
            for store in stores:
                store.close()
