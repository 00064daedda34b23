"""Tests for the serial/thread/process execution backends (repro.core.executor)."""

from __future__ import annotations

import os

import pytest

from repro.api import AnalysisSession
from repro.ccc.checker import ContractChecker
from repro.ccd.detector import CloneDetector
from repro.core.artifacts import ArtifactStore
from repro.core.executor import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)

REENTRANT = """
contract Bank {
    mapping(address => uint) balances;
    function withdraw(uint amount) public {
        require(balances[msg.sender] >= amount);
        msg.sender.call.value(amount)();
        balances[msg.sender] -= amount;
    }
}
"""

SAFE = """
contract Safe {
    uint value;
    function set(uint v) public { value = v; }
}
"""

CORPUS = [
    ("reentrant", REENTRANT),
    ("safe", SAFE),
    ("reentrant-copy", REENTRANT),
    ("garbage", "not solidity at all ==="),
    ("suicidal", "contract Kill { function die() public { selfdestruct(msg.sender); } }"),
]


def _square(value: int) -> int:
    """Module-level so the process backend can pickle it."""
    return value * value


class TestFactory:
    def test_create_each_backend(self):
        assert isinstance(Executor.create("serial"), SerialExecutor)
        assert isinstance(Executor.create("thread"), ThreadExecutor)
        assert isinstance(Executor.create("process"), ProcessExecutor)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError):
            Executor.create("gpu")

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            Executor.create("serial", chunk_size=0)
        with pytest.raises(ValueError):
            Executor.create("thread", max_workers=0)

    def test_shared_state_flags(self):
        assert SerialExecutor().supports_shared_state
        assert ThreadExecutor().supports_shared_state
        assert not ProcessExecutor().supports_shared_state


class TestMapping:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_map_preserves_order(self, backend):
        with Executor.create(backend, max_workers=2) as executor:
            assert executor.map(_square, range(17)) == [n * n for n in range(17)]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("chunk_size", [1, 3, 100])
    def test_map_batches_matches_map(self, backend, chunk_size):
        with Executor.create(backend, max_workers=2) as executor:
            expected = [n * n for n in range(11)]
            assert executor.map_batches(_square, range(11), chunk_size=chunk_size) == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_input(self, backend):
        with Executor.create(backend) as executor:
            assert executor.map(_square, []) == []
            assert executor.map_batches(_square, []) == []

    def test_close_is_idempotent_and_terminal(self):
        executor = ThreadExecutor(max_workers=1)
        assert executor.map(_square, [2]) == [4]
        executor.close()
        executor.close()
        # close is terminal: no silent pool resurrection after teardown
        # (long-lived daemons must not leak workers past shutdown)
        with pytest.raises(RuntimeError, match="closed"):
            executor.map(_square, [3])


class TestStreaming:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("chunk_size", [1, 3, 100])
    def test_imap_batches_matches_map(self, backend, chunk_size):
        with Executor.create(backend, max_workers=2) as executor:
            expected = [n * n for n in range(11)]
            assert list(executor.imap_batches(
                _square, range(11), chunk_size=chunk_size)) == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_imap_batches_empty_input(self, backend):
        with Executor.create(backend) as executor:
            assert list(executor.imap_batches(_square, [])) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_imap_batches_is_lazy(self, backend):
        """The stream can be abandoned after the first item."""
        with Executor.create(backend, max_workers=2, chunk_size=2) as executor:
            stream = executor.imap_batches(_square, range(100), window=2)
            assert next(stream) == 0
            assert next(stream) == 1
            stream.close()

    def test_serial_imap_never_runs_ahead(self):
        """The serial backend computes each item only when it is consumed."""
        computed = []

        def track(value):
            computed.append(value)
            return value

        stream = SerialExecutor().imap_batches(track, range(5))
        assert next(stream) == 0
        assert next(stream) == 1
        assert computed == [0, 1]

    def test_window_bounds_in_flight_chunks(self):
        """At most window chunks of results are materialized ahead."""
        with ThreadExecutor(max_workers=1) as executor:
            stream = executor.imap_batches(_square, range(20), chunk_size=2, window=3)
            assert next(stream) == 0
            # pool has at most window=3 chunks submitted; draining works
            assert list(stream) == [n * n for n in range(1, 20)]


def _session_payloads(items, analysis, options, store, executor=None):
    """Payloads of one analyzer run through an :class:`AnalysisSession`."""
    with AnalysisSession(store=store, executor=executor) as session:
        return [envelope.payload for envelope in session.run(
            items, analyses=[analysis], options={analysis: options})]


class TestAnalysisParity:
    """Serial, thread, and process backends must produce identical results."""

    def _sources(self):
        return [source for _, source in CORPUS]

    def test_ccc_session_parity(self):
        store = ArtifactStore()
        checker = ContractChecker(store=store)
        baseline = _session_payloads(
            self._sources(), "ccc", {"checker": checker}, store)
        for backend in ("thread", "process"):
            with Executor.create(backend, max_workers=2, chunk_size=2) as executor:
                results = _session_payloads(
                    self._sources(), "ccc", {"checker": checker}, store, executor)
            assert [r.parse_error for r in results] == [r.parse_error for r in baseline]
            assert [sorted(r.query_ids()) for r in results] == \
                   [sorted(r.query_ids()) for r in baseline]
            assert [r.findings for r in results] == [r.findings for r in baseline]

    def test_detector_add_corpus_parity(self):
        baseline = CloneDetector()
        baseline.add_corpus(CORPUS)
        for backend in BACKENDS:
            detector = CloneDetector(store=ArtifactStore())
            with Executor.create(backend, max_workers=2, chunk_size=2) as executor:
                added = detector.add_corpus(CORPUS, executor=executor)
            assert added == len(baseline)
            assert set(detector.fingerprints) == set(baseline.fingerprints)
            assert {doc: fp.text for doc, fp in detector.fingerprints.items()} == \
                   {doc: fp.text for doc, fp in baseline.fingerprints.items()}
            assert detector.parse_failures == baseline.parse_failures

    def test_ccd_session_parity(self):
        queries = [("q-reentrant", REENTRANT), ("q-garbage", "prose, not code ===")]
        baseline = CloneDetector(similarity_threshold=0.8)
        baseline.add_corpus(CORPUS)
        expected = _session_payloads(queries, "ccd", {"detector": baseline}, None)
        assert expected[0], "reentrant query should match the indexed corpus"
        assert expected[1] is None
        for backend in BACKENDS:
            detector = CloneDetector(similarity_threshold=0.8, store=ArtifactStore())
            detector.add_corpus(CORPUS)
            with Executor.create(backend, max_workers=2, chunk_size=1) as executor:
                results = _session_payloads(
                    queries, "ccd", {"detector": detector}, detector.store, executor)
            assert results == expected


@pytest.mark.skipif(os.name != "posix", reason="process backend exercised on POSIX only")
def test_process_pool_is_lazy():
    executor = ProcessExecutor(max_workers=1)
    assert executor._pool is None
    executor.close()
    assert executor._pool is None


class TestLifecycle:
    """close() is idempotent, terminal, and safe as a context manager."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_close_is_idempotent(self, backend):
        executor = Executor.create(backend, max_workers=1)
        assert not executor.closed
        executor.map(_square, [1, 2])
        executor.close()
        assert executor.closed
        executor.close()  # second close must be a no-op, not an error
        assert executor.closed

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mapping_after_close_raises(self, backend):
        executor = Executor.create(backend, max_workers=1)
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.map(_square, [1])
        with pytest.raises(RuntimeError, match="closed"):
            executor.map_batches(_square, [1])
        with pytest.raises(RuntimeError, match="closed"):
            list(executor.imap_batches(_square, [1]))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_context_manager_closes(self, backend):
        with Executor.create(backend, max_workers=1) as executor:
            assert executor.map(_square, [3]) == [9]
        assert executor.closed

    def test_close_never_started_pool(self):
        executor = ThreadExecutor(max_workers=1)
        executor.close()  # pool was never created; still clean
        assert executor.closed and executor._pool is None
