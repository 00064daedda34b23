"""Tests for the analysis service daemon (``repro.service``).

The acceptance bar of the subsystem:

* results fetched over HTTP are **byte-identical** (canonical envelopes)
  to the same requests run through ``AnalysisSession.run``,
* the daemon survives kill-and-restart with queued jobs — no lost jobs,
  no duplicated results,
* ``POST /v1/corpus`` makes new sources matchable immediately, without a
  restart or a full re-index.
"""

import threading
import urllib.error
import urllib.request

import pytest

from repro.api import AnalysisSession, SessionConfig, canonical_json
from repro.ccd.detector import CloneDetector
from repro.ccd.matcher import MyersSimilarityBackend
from repro.service import (
    AnalysisService,
    JobStore,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.jobstore import JOBS_DATABASE_NAME
from repro.datasets.sanctuary import generate_sanctuary
from repro.datasets.snippets import generate_qa_corpus
from repro.pipeline.collection import SnippetCollector


@pytest.fixture(scope="module")
def corpora():
    """One small deterministic corpus pair shared by the service tests."""
    qa_corpus = generate_qa_corpus(
        seed=3, posts_per_site={"stackoverflow": 4, "ethereum.stackexchange": 8})
    sanctuary = generate_sanctuary(qa_corpus, seed=11, independent_contracts=4)
    contracts = [(contract.address, contract.source)
                 for contract in sanctuary.contracts]
    snippets = [(snippet.snippet_id, snippet.text)
                for snippet in SnippetCollector().collect(qa_corpus).snippets]
    return contracts, snippets


def make_config(tmp_path, **overrides):
    defaults = dict(data_dir=str(tmp_path / "svc"), port=0, backend="serial")
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.fixture
def service(tmp_path):
    with AnalysisService(make_config(tmp_path)) as svc:
        yield svc


@pytest.fixture
def client(service):
    return ServiceClient(service.url)


def local_reference_envelopes(service_data_dir, sources, analyses):
    """The same job run through a plain ``AnalysisSession.run`` locally.

    The detector is reloaded from the daemon's own persisted index, so
    both sides match against the identical corpus.
    """
    with AnalysisSession(SessionConfig(backend="serial")) as session:
        detector = CloneDetector.load(service_data_dir, store=session.store)
        options = {"ccd": {"detector": detector}} if "ccd" in analyses else {}
        return [canonical_json(envelope) for envelope in
                session.run(sources, analyses=analyses, options=options)]


# ---------------------------------------------------------------------------
# the job store
# ---------------------------------------------------------------------------

class TestJobStore:
    def test_submit_claim_finish_lifecycle(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            job = store.submit([("a", "contract A {}")], ["ccd"], {"x": 1})
            assert job.state == "queued" and job.options == {"x": 1}
            claimed = store.claim_next()
            assert claimed.job_id == job.job_id and claimed.state == "running"
            assert store.claim_next() is None  # nothing else queued
            store.append_result(job.job_id, 0, '{"k":"v"}')
            store.finish(job.job_id, "done")
            final = store.get(job.job_id)
            assert final.state == "done" and final.elapsed_seconds is not None
            assert store.results(job.job_id) == [(0, '{"k":"v"}')]

    def test_fifo_claim_order(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            ids = [store.submit([("a", "x")], ["ccd"]).job_id for _ in range(5)]
            claimed = [store.claim_next().job_id for _ in range(5)]
            assert claimed == ids

    def test_finish_requires_terminal_state(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            job = store.submit([("a", "x")], ["ccd"])
            with pytest.raises(ValueError):
                store.finish(job.job_id, "queued")

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "jobs.sqlite"
        with JobStore(path) as store:
            job = store.submit([("a", "contract A {}")], ["ccd", "ccc"])
        with JobStore(path) as store:
            reloaded = store.get(job.job_id)
            assert reloaded.state == "queued"
            assert reloaded.analyses == ("ccd", "ccc")
            assert reloaded.corpus == [["a", "contract A {}"]]

    def test_recover_requeues_running_and_drops_partials(self, tmp_path):
        path = tmp_path / "jobs.sqlite"
        with JobStore(path) as store:
            done = store.submit([("a", "x")], ["ccd"])
            interrupted = store.submit([("b", "y")], ["ccd"])
            store.claim_next()
            store.append_result(done.job_id, 0, '{"a":1}')
            store.finish(done.job_id, "done")
            store.claim_next()  # the job a killed daemon would leave running
            store.append_result(interrupted.job_id, 0, '{"partial":1}')
        with JobStore(path) as store:
            assert store.recover() == 1
            requeued = store.get(interrupted.job_id)
            assert requeued.state == "queued" and requeued.started is None
            assert store.results(interrupted.job_id) == []
            # the completed job is untouched
            assert store.get(done.job_id).state == "done"
            assert store.results(done.job_id) == [(0, '{"a":1}')]

    def test_concurrent_claims_never_hand_out_a_job_twice(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            for _ in range(20):
                store.submit([("a", "x")], ["ccd"])
            claimed: list = []

            def worker():
                while True:
                    job = store.claim_next()
                    if job is None:
                        return
                    claimed.append(job.job_id)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert sorted(claimed) == list(range(1, 21))
            assert len(set(claimed)) == 20

    def test_counts_and_queue_depth(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            store.submit([("a", "x")], ["ccd"])
            store.submit([("b", "y")], ["ccd"])
            store.claim_next()
            counts = store.counts()
            assert counts == {"queued": 1, "running": 1, "done": 0,
                              "failed": 0, "cancelled": 0}
            assert store.queue_depth() == 2

    def test_closed_store_raises(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite")
        store.close()
        store.close()  # idempotent
        with pytest.raises(RuntimeError):
            store.submit([("a", "x")], ["ccd"])


# ---------------------------------------------------------------------------
# HTTP API basics
# ---------------------------------------------------------------------------

class TestHttpApi:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0

    def test_stats_counters(self, client, corpora):
        contracts, _ = corpora
        client.ingest(contracts[:3])
        stats = client.stats()
        assert stats["index"]["documents"] == 3
        assert stats["jobs"] == {"queued": 0, "running": 0, "done": 0,
                                 "failed": 0, "cancelled": 0}
        assert "hits" in stats["store"] and "hit_rate" in stats["store"]
        assert stats["config"]["backend"] == "serial"

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.status == 404

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job(999)
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v1/jobs/not-a-number")
        assert excinfo.value.status == 404

    def test_submit_validation_errors_are_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit([("a", "contract A {}")], analyses=["nope"])
        assert excinfo.value.status == 400
        assert "unknown analyzer" in excinfo.value.message
        with pytest.raises(ServiceError) as excinfo:
            client.submit([("a", "contract A {}")], analyses=["temporal"])
        assert excinfo.value.status == 400
        assert "corpus-scope" in excinfo.value.message
        with pytest.raises(ServiceError) as excinfo:
            client.submit([], analyses=["ccd"])
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit([("a",)], analyses=["ccd"])
        assert excinfo.value.status == 400

    def test_malformed_body_is_400(self, client):
        request = urllib.request.Request(
            client.base_url + "/v1/jobs", method="POST", data=b"not json")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_jobs_listing_filters_by_state(self, client, corpora):
        _, snippets = corpora
        job = client.submit(snippets[:2], analyses=["ccd"])
        client.wait(job["id"])
        assert [j["id"] for j in client.jobs(state="done")] == [job["id"]]
        assert client.jobs(state="failed") == []

    def test_failed_job_reports_error(self, service, client, monkeypatch):
        # an analyzer blowing up must fail the job, not kill the worker
        def boom(*args, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(service.session, "run_iter", boom)
        job = client.submit([("a", "contract A {}")], analyses=["ccd"])
        from repro.service import JobFailedError

        with pytest.raises(JobFailedError) as excinfo:
            client.wait(job["id"])
        assert "kaboom" in excinfo.value.job["error"]
        # and the next job still runs
        monkeypatch.undo()
        job = client.submit([("a", "contract A {}")], analyses=["ccd"])
        assert client.wait(job["id"])["job"]["state"] == "done"


# ---------------------------------------------------------------------------
# end-to-end parity with AnalysisSession.run
# ---------------------------------------------------------------------------

class TestServiceParity:
    def test_http_results_byte_identical_to_session_run(
            self, service, client, corpora, tmp_path):
        contracts, snippets = corpora
        client.ingest(contracts)
        job = client.submit(snippets, analyses=["ccd", "ccc"])
        finished = client.wait(job["id"])
        served = [canonical_json(envelope) for envelope in finished["results"]]
        expected = local_reference_envelopes(
            tmp_path / "svc", snippets, ["ccd", "ccc"])
        assert len(served) == 2 * len(snippets)
        assert served == expected

    def test_streamed_bytes_are_the_canonical_envelopes(
            self, service, client, corpora, tmp_path):
        contracts, snippets = corpora
        client.ingest(contracts)
        job = client.submit(snippets[:6], analyses=["ccd"])
        client.wait(job["id"])
        raw_lines = list(client.stream(job["id"], raw=True))
        expected = local_reference_envelopes(
            tmp_path / "svc", snippets[:6], ["ccd"])
        assert [line.decode("utf-8") for line in raw_lines] == expected

    def test_streaming_a_job_before_it_finishes(self, service, client, corpora):
        _, snippets = corpora
        job = client.submit(snippets[:4], analyses=["ccd"])
        # no wait: the stream must follow the job to completion
        streamed = list(client.stream(job["id"]))
        assert len(streamed) == 4
        assert client.job(job["id"])["job"]["state"] == "done"

    def test_resident_opt_out_self_indexes(self, service, client, corpora):
        contracts, _ = corpora
        client.ingest(contracts)
        pair = contracts[0]
        resident = client.wait(client.submit(
            [pair], analyses=["ccd"])["id"])["results"][0]
        self_indexed = client.wait(client.submit(
            [pair], analyses=["ccd"],
            options={"ccd": {"resident": False}})["id"])["results"][0]
        # against the resident index the contract matches itself (100.0);
        # self-indexed, its own id is excluded and nothing else is indexed
        assert any(match["document_id"] == pair[0]
                   for match in resident["payload"])
        assert self_indexed["payload"] == []


# ---------------------------------------------------------------------------
# durability: kill-and-restart
# ---------------------------------------------------------------------------

class TestRestartDurability:
    def test_queued_jobs_survive_restart_no_loss_no_dupes(
            self, tmp_path, corpora):
        contracts, snippets = corpora
        config = make_config(tmp_path)
        # daemon 1: ingest the corpus, accept jobs, die before running any
        # (the scheduler is never started: submissions stay queued)
        first = AnalysisService(config)
        first.ingest(contracts)
        submitted = [first.submit(snippets[:5], ["ccd", "ccc"]).job_id
                     for _ in range(3)]
        assert first.jobstore.counts()["queued"] == 3
        first.stop()
        # daemon 2 over the same data dir drains the backlog
        with AnalysisService(config) as second:
            assert second.scheduler.drain(timeout=120.0)
            client = ServiceClient(second.url)
            expected = local_reference_envelopes(
                tmp_path / "svc", snippets[:5], ["ccd", "ccc"])
            for job_id in submitted:
                status = client.job(job_id)
                assert status["job"]["state"] == "done"
                served = [canonical_json(envelope)
                          for envelope in status["results"]]
                assert served == expected  # exactly once, byte-identical

    def test_job_killed_mid_run_is_requeued_and_rerun_identically(
            self, tmp_path, corpora):
        contracts, snippets = corpora
        config = make_config(tmp_path)
        first = AnalysisService(config)
        first.ingest(contracts)
        job = first.submit(snippets[:4], ["ccd"])
        # simulate the crash: the job was claimed and half-persisted when
        # the daemon died
        claimed = first.jobstore.claim_next()
        assert claimed.job_id == job.job_id
        first.jobstore.append_result(job.job_id, 0, '{"torn": true}')
        first.stop()
        with AnalysisService(config) as second:
            assert second.recovered_jobs == 1
            assert second.scheduler.drain(timeout=120.0)
            status = ServiceClient(second.url).job(job.job_id)
            assert status["job"]["state"] == "done"
            served = [canonical_json(envelope) for envelope in status["results"]]
            assert served == local_reference_envelopes(
                tmp_path / "svc", snippets[:4], ["ccd"])
            assert '{"torn": true}' not in served  # partials were dropped

    def test_index_reloads_with_zero_parses(self, tmp_path, corpora):
        contracts, _ = corpora
        config = make_config(tmp_path)
        first = AnalysisService(config)
        first.ingest(contracts)
        documents = len(first.detector)
        first.stop()
        second = AnalysisService(config)
        try:
            assert len(second.detector) == documents
            assert second.session.stats.parse_calls == 0
        finally:
            second.stop()

    def test_restart_keeps_score_memo_warm_zero_rescoring(
            self, tmp_path, corpora):
        contracts, _ = corpora
        config = make_config(tmp_path)
        # the job queries the corpus with its own contracts: every source
        # hits the index with genuine near-clones, so the verifier scores
        # a meaningful number of sub-fingerprint pairs
        with AnalysisService(config) as first:
            first.ingest(contracts)
            client = ServiceClient(first.url)
            job = client.submit(contracts[:6], analyses=["ccd"])
            baseline = [canonical_json(envelope)
                        for envelope in client.wait(job["id"])["results"]]
            assert first.detector.match_stats.pairs_scored > 0
            warm_rows = first.detector.score_memo.disk_rows()
            assert warm_rows > 0  # scores were written through as computed
        # daemon 2 over the same data dir: the score memo is warm, so
        # the identical job is served without re-scoring a single pair
        with AnalysisService(config) as second:
            memo = second.detector.score_memo
            assert memo.stats.warm_loaded == warm_rows
            client = ServiceClient(second.url)
            job = client.submit(contracts[:6], analyses=["ccd"])
            served = [canonical_json(envelope)
                      for envelope in client.wait(job["id"])["results"]]
            assert served == baseline
            assert second.detector.match_stats.pairs_scored == 0
            assert memo.stats.stores == 0
            assert memo.stats.hit_rate > 0.9
            assert client.stats()["score_memo"]["hits"] > 0


# ---------------------------------------------------------------------------
# live corpus ingest
# ---------------------------------------------------------------------------

class TestLiveIngest:
    def test_ingest_makes_new_sources_matchable_without_restart(
            self, service, client, corpora):
        contracts, _ = corpora
        query_id, query_source = contracts[0]
        client.ingest(contracts[1:3])  # warm index without the queried one
        before = client.wait(client.submit(
            [(query_id, query_source)], analyses=["ccd"])["id"])["results"][0]
        assert not any(match["document_id"] == query_id
                       for match in before["payload"] or [])
        summary = client.ingest([(query_id, query_source)])
        assert summary["ingested"] == 1
        after = client.wait(client.submit(
            [(query_id, query_source)], analyses=["ccd"])["id"])["results"][0]
        assert any(match["document_id"] == query_id
                   and match["similarity"] == 100.0
                   for match in after["payload"])

    def test_ingest_reports_unparsable_documents(self, client):
        summary = client.ingest([
            ("good", "contract C { function f() public {} }"),
            ("bad", "]]]] not solidity [[[["),
        ])
        assert summary["ingested"] == 1
        assert summary["rejected"] == ["bad"]
        assert summary["parse_failures"] == 1

    def test_ingest_persists_incrementally(self, tmp_path, corpora):
        contracts, _ = corpora
        config = make_config(tmp_path)
        first = AnalysisService(config)
        first.ingest(contracts[:4])
        first.ingest(contracts[4:8])  # second batch appends, not re-saves
        total = len(first.detector)
        first.stop()
        second = AnalysisService(config)
        try:
            assert len(second.detector) == total == 8
        finally:
            second.stop()

    def test_ingest_validation_error_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.ingest([])
        assert excinfo.value.status == 400


# ---------------------------------------------------------------------------
# scheduler behavior
# ---------------------------------------------------------------------------

class TestScheduler:
    def test_jobs_run_fifo(self, tmp_path, corpora):
        _, snippets = corpora
        # identical submissions: keep them four distinct executions
        with AnalysisService(make_config(tmp_path, coalesce=False)) as service:
            client = ServiceClient(service.url)
            ids = [client.submit(snippets[:1], analyses=["ccd"])["id"]
                   for _ in range(4)]
            for job_id in ids:
                client.wait(job_id)
            finished = [client.job(job_id)["job"]["finished"]
                        for job_id in ids]
        assert len(set(ids)) == 4
        assert finished == sorted(finished)

    def test_close_is_idempotent_and_graceful(self, tmp_path):
        service = AnalysisService(make_config(tmp_path))
        service.start()
        service.stop()
        service.stop()  # idempotent
        # a stopped daemon has released its executor
        assert service.session.executor.closed

    def test_multi_worker_pool_completes_everything(self, tmp_path, corpora):
        _, snippets = corpora
        # identical submissions: keep them six distinct executions
        config = make_config(tmp_path, workers=3, coalesce=False)
        with AnalysisService(config) as service:
            client = ServiceClient(service.url)
            ids = [client.submit(snippets[:2], analyses=["ccd"])["id"]
                   for _ in range(6)]
            assert service.scheduler.drain(timeout=120.0)
            for job_id in ids:
                assert client.job(job_id)["job"]["state"] == "done"
            assert service.scheduler.jobs_completed == 6

    def test_job_corpus_echo_query_param(self, service, client, corpora):
        _, snippets = corpora
        job = client.submit(snippets[:1], analyses=["ccd"])
        client.wait(job["id"])
        with_corpus = client._request("GET", f"/v1/jobs/{job['id']}?corpus")
        assert with_corpus["job"]["corpus"] == [list(snippets[0])]
        without = client.job(job["id"])
        assert "corpus" not in without["job"]


class TestReviewRegressions:
    """Regression tests for the review findings on the first cut."""

    def test_empty_index_ccd_job_returns_zero_matches(self, client, corpora):
        # the resident index is authoritative even when empty: no silent
        # fallback to self-indexing the submitted sources
        _, snippets = corpora
        duplicated = [("s1", snippets[0][1]), ("s2", snippets[0][1])]
        finished = client.wait(client.submit(
            duplicated, analyses=["ccd"])["id"])
        assert [envelope["payload"] for envelope in finished["results"]] \
            == [[], []]

    def test_non_string_analysis_id_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit([("a", "contract A {}")], analyses=[["ccd"]])
        assert excinfo.value.status == 400
        assert "analyzer id strings" in excinfo.value.message

    def test_unparsable_reingest_retires_stale_fingerprint(
            self, tmp_path, corpora):
        contracts, _ = corpora
        document_id, source = contracts[0]
        config = make_config(tmp_path)
        first = AnalysisService(config)
        client = None
        try:
            first.ingest([(document_id, source)])
            assert document_id in first.detector.fingerprints
            summary = first.ingest([(document_id, "((( no longer solidity )))")])
            assert summary["rejected"] == [document_id]
            # retired live: the stale fingerprint no longer matches
            assert document_id not in first.detector.fingerprints
            assert summary["documents"] == 0
        finally:
            first.stop()
        # and retired on disk: a restarted daemon agrees
        second = AnalysisService(config)
        try:
            assert document_id not in second.detector.fingerprints
            assert second.detector.parse_failures == [document_id]
        finally:
            second.stop()

    def test_repeated_bad_ingest_records_one_failure(self, service, client):
        for _ in range(3):
            client.ingest([("bad", "]]] not solidity [[[")])
        assert client.stats()["index"]["parse_failures"] == 1

    def test_fixed_reingest_clears_failure_record(self, service, client):
        client.ingest([("doc", "]]] broken [[[")])
        assert client.stats()["index"]["parse_failures"] == 1
        summary = client.ingest(
            [("doc", "contract Fixed { function f() public {} }")])
        assert summary["ingested"] == 1
        assert client.stats()["index"]["parse_failures"] == 0

    def test_worker_survives_a_jobstore_hiccup(self, service, client, corpora,
                                               monkeypatch):
        _, snippets = corpora
        import sqlite3 as sqlite3_module

        real_claim = service.jobstore.claim_next
        calls = {"n": 0}

        def flaky_claim():
            calls["n"] += 1
            if calls["n"] == 1:
                raise sqlite3_module.OperationalError("database is locked")
            return real_claim()

        monkeypatch.setattr(service.jobstore, "claim_next", flaky_claim)
        job = client.submit(snippets[:1], analyses=["ccd"])
        assert client.wait(job["id"])["job"]["state"] == "done"

    def test_reloaded_index_follows_configured_thresholds(
            self, tmp_path, corpora):
        contracts, _ = corpora
        first = AnalysisService(make_config(tmp_path))
        first.ingest(contracts[:3])
        assert first.detector.similarity_threshold == 0.7
        first.stop()
        # restart with different query-time thresholds: the reloaded
        # detector (and /v1/stats) must follow the new configuration
        second = AnalysisService(make_config(
            tmp_path, similarity_threshold=0.9, ngram_threshold=0.6))
        try:
            assert len(second.detector) == 3
            assert second.detector.similarity_threshold == 0.9
            assert second.detector.ngram_threshold == 0.6
        finally:
            second.stop()

    def test_reloaded_index_follows_configured_backend(
            self, tmp_path, corpora):
        # δ is pure, so neither the persisted index nor the score memo
        # depends on the verification backend: a restart under another
        # backend must use it and serve byte-identical ccd results
        contracts, _ = corpora
        with AnalysisService(make_config(
                tmp_path, similarity_backend="exact")) as first:
            first.ingest(contracts)
            client = ServiceClient(first.url)
            assert client.stats()["index"]["similarity_backend"] == "exact"
            job = client.submit(contracts[:6], analyses=["ccd"])
            baseline = [canonical_json(envelope)
                        for envelope in client.wait(job["id"])["results"]]
        with AnalysisService(make_config(
                tmp_path, similarity_backend="myers")) as second:
            assert isinstance(second.detector.matcher.backend,
                              MyersSimilarityBackend)
            client = ServiceClient(second.url)
            assert client.stats()["index"]["similarity_backend"] == "myers"
            job = client.submit(contracts[:6], analyses=["ccd"])
            served = [canonical_json(envelope)
                      for envelope in client.wait(job["id"])["results"]]
            assert served == baseline
            assert second.detector.match_stats.pairs_scored > 0

    def test_malformed_analyzer_options_are_400(self, service, client):
        source = [("a", "contract A {}")]
        with pytest.raises(ServiceError) as excinfo:
            client.submit(source, analyses=["ccd"], options={"ccd": "x"})
        assert excinfo.value.status == 400
        assert "'options.ccd' must be an object" in excinfo.value.message
        with pytest.raises(ServiceError) as excinfo:
            client.submit(source, analyses=["ccd"], options={
                "ccd": {"resident": False, "similarity_backend": "bogus"}})
        assert excinfo.value.status == 400
        assert "unknown similarity backend" in excinfo.value.message
        # nothing reached the queue; the retired name still resolves
        assert client.jobs() == []
        job = client.submit(source, analyses=["ccd"], options={
            "ccd": {"resident": False, "similarity_backend": "bounded"}})
        assert client.wait(job["id"])["job"]["state"] == "done"

    def test_duplicate_ids_in_one_ingest_batch_collapse(
            self, tmp_path, corpora):
        contracts, _ = corpora
        (_, source_a), (_, source_b) = contracts[0], contracts[1]
        config = make_config(tmp_path)
        first = AnalysisService(config)
        summary = first.ingest([("dup", source_a), ("dup", source_b)])
        assert summary["ingested"] == 1 and summary["documents"] == 1
        first.stop()
        second = AnalysisService(config)  # no duplicate shard rows persisted
        try:
            assert len(second.detector) == 1
            # last occurrence won
            assert second.detector.fingerprints["dup"].text == \
                first.detector.fingerprints["dup"].text
        finally:
            second.stop()

    def test_results_0_query_param_omits_envelopes(self, client, corpora):
        _, snippets = corpora
        job = client.submit(snippets[:1], analyses=["ccd"])
        finished = client.wait(job["id"])
        assert len(finished["results"]) == 1
        cheap = client.job(job["id"], results=False)
        assert "results" not in cheap
        assert cheap["job"]["state"] == "done"

    def test_readwrite_lock_readers_share_writers_exclude(self):
        from repro.service.scheduler import ReadWriteLock
        import time as time_module

        lock = ReadWriteLock()
        order = []

        def reader(tag):
            with lock.read():
                order.append(("r-in", tag))
                time_module.sleep(0.05)
                order.append(("r-out", tag))

        readers = [threading.Thread(target=reader, args=(i,)) for i in (1, 2)]
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join()
        entries = [tag for kind, tag in order if kind == "r-in"]
        first_exit = next(i for i, (kind, _) in enumerate(order) if kind == "r-out")
        assert len(entries) == 2
        assert first_exit >= 2  # both readers entered before the first exit
        # and the write side is exclusive against a held read lock
        acquired = []

        def writer():
            with lock.write():
                acquired.append("w")

        with lock.read():
            thread = threading.Thread(target=writer)
            thread.start()
            time_module.sleep(0.05)
            assert acquired == []  # writer blocked while the read is held
        thread.join(timeout=5)
        assert acquired == ["w"]


# ---------------------------------------------------------------------------
# client connect retries (late-binding daemons) and corpus introspection
# ---------------------------------------------------------------------------
class TestClientConnectRetry:
    def test_retries_refused_connections_until_the_socket_binds(self, tmp_path):
        """A client with a connect budget rides out a daemon that binds late."""
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # reserved, now free: refused until the daemon binds

        def bind_late():
            service = AnalysisService(make_config(tmp_path, port=port))
            service.start()
            return service

        result = {}

        def late_starter():
            import time
            time.sleep(0.6)
            result["service"] = bind_late()

        thread = threading.Thread(target=late_starter)
        thread.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}",
                                   connect_timeout=15.0)
            assert client.healthz()["status"] == "ok"  # retried past refusals
        finally:
            thread.join()
            result["service"].stop()

    def test_fails_fast_with_zero_connect_budget(self):
        import socket
        import time

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(f"http://127.0.0.1:{port}")  # default budget 0
        started = time.monotonic()
        with pytest.raises(urllib.error.URLError):
            client.healthz()
        assert time.monotonic() - started < 2.0

    def test_http_errors_are_never_retried(self, service):
        import time

        client = ServiceClient(service.url, connect_timeout=10.0)
        started = time.monotonic()
        with pytest.raises(ServiceError) as excinfo:
            client.job(999999)
        assert excinfo.value.status == 404
        assert time.monotonic() - started < 2.0  # no backoff on a live 404


class TestCorpusIntrospectionAndRemoval:
    def test_corpus_endpoint_lists_resident_ids(self, client, corpora):
        contracts, _snippets = corpora
        client.ingest(contracts[:5])
        listing = client.corpus()
        assert listing["count"] == 5
        assert listing["documents"] == sorted(
            (document_id for document_id, _source in contracts[:5]), key=str)

    def test_remove_retires_documents_from_matching(self, client, corpora):
        contracts, _snippets = corpora
        (kept_id, kept_source), (gone_id, gone_source) = contracts[:2]
        client.ingest(contracts[:2])
        summary = client.ingest(remove=[gone_id])
        assert summary["removed"] == [gone_id]
        assert summary["documents"] == 1
        assert client.corpus()["documents"] == [kept_id]
        job = client.submit([["probe", gone_source]], analyses=["ccd"])
        finished = client.wait(job["id"], timeout=60)
        matched = {match["document_id"]
                   for envelope in finished["results"]
                   if envelope["payload"]
                   for match in envelope["payload"]}
        assert gone_id not in matched

    def test_remove_unknown_id_is_a_noop(self, client, corpora):
        contracts, _snippets = corpora
        client.ingest(contracts[:1])
        summary = client.ingest(remove=["0xdoes-not-exist"])
        assert summary["removed"] == []
        assert summary["documents"] == 1

    def test_remove_then_reingest_in_one_call(self, client, corpora):
        contracts, _snippets = corpora
        document_id, source = contracts[0]
        client.ingest(contracts[:1])
        summary = client.ingest(documents=[(document_id, source)],
                                remove=[document_id])
        assert summary["documents"] == 1
        assert client.corpus()["documents"] == [document_id]
