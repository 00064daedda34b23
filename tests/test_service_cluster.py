"""Cluster tests: sharded scatter-gather serving with byte parity.

The headline claim of `repro.service.coordinator` is that a cluster is
*invisible in the bytes*: a coordinator fronting N workers answers every
job byte-identically to one daemon holding the whole corpus.  These
tests assert that claim across shard counts and detector thresholds,
plus the operational half of the story — consistent-hash ingest
routing, rebalancing that touches only moved keys, kill-and-restart
durability for workers and the coordinator, and explicit degraded-mode
reporting when a shard stays down (via ``tests/cluster_harness.py``,
which spawns real subprocesses).
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

import pytest

import cluster_harness
from repro.api.envelope import canonical_json
from repro.datasets.sanctuary import generate_sanctuary
from repro.datasets.snippets import generate_qa_corpus
from repro.pipeline.collection import SnippetCollector
from repro.service import (
    AnalysisService,
    ClusterCoordinator,
    CoordinatorConfig,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.coordinator import (
    CorpusJournal,
    canonical_match_key,
    default_shard_names,
    merge_shard_results,
)
from repro.service.hashring import HashRing, partition
from repro.service.jobstore import JobStore


@pytest.fixture(scope="module")
def corpora():
    """Deterministic synthetic corpus: contracts to ingest, snippets to query."""
    qa_corpus = generate_qa_corpus(
        seed=3, posts_per_site={"stackoverflow": 4, "ethereum.stackexchange": 8})
    sanctuary = generate_sanctuary(qa_corpus, seed=11, independent_contracts=4)
    contracts = [(contract.address, contract.source)
                 for contract in sanctuary.contracts]
    snippets = [(snippet.snippet_id, snippet.text)
                for snippet in SnippetCollector().collect(qa_corpus).snippets]
    return contracts, snippets


def worker_config(tmp_path, name, **overrides) -> ServiceConfig:
    options = dict(data_dir=str(tmp_path / name), port=0, backend="serial")
    options.update(overrides)
    return ServiceConfig(**options)


@contextmanager
def in_process_cluster(tmp_path, shard_count, tag="", **worker_overrides):
    """N in-process worker daemons plus an in-process coordinator."""
    workers = []
    coordinator = None
    try:
        for index in range(shard_count):
            service = AnalysisService(
                worker_config(tmp_path, f"{tag}worker-{index}",
                              **worker_overrides))
            service.start()
            workers.append(service)
        coordinator = ClusterCoordinator(CoordinatorConfig(
            data_dir=str(tmp_path / f"{tag}coordinator"), port=0,
            workers=tuple(worker.url for worker in workers),
            connect_timeout=5.0, shard_timeout=60.0))
        coordinator.start()
        yield coordinator, workers
    finally:
        if coordinator is not None:
            coordinator.stop()
        for worker in workers:
            worker.stop()


def run_job_bytes(url, sources, analyses, options=None, timeout=180.0):
    """Submit and wait; returns the canonical bytes of every envelope."""
    client = ServiceClient(url, connect_timeout=5.0)
    job = client.submit(sources, analyses=analyses, options=options)
    finished = client.wait(job["id"], timeout=timeout)
    return [canonical_json(envelope) for envelope in finished["results"]], \
        finished["job"]


def single_node_bytes(tmp_path, tag, contracts, sources, analyses,
                      options=None, **overrides):
    """Reference run: one daemon holding the whole corpus."""
    with AnalysisService(worker_config(tmp_path, tag, **overrides)) as service:
        ServiceClient(service.url).ingest(contracts)
        lines, _job = run_job_bytes(service.url, sources, analyses, options)
        return lines


# ---------------------------------------------------------------------------
# the hash ring
# ---------------------------------------------------------------------------
class TestHashRing:
    def test_deterministic_across_instances(self):
        keys = [f"0x{i:040x}" for i in range(200)] + list(range(50))
        first = HashRing(["shard-0", "shard-1", "shard-2"])
        second = HashRing(["shard-2", "shard-0", "shard-1"])  # order-free
        assert first.assignments(keys) == second.assignments(keys)

    def test_every_key_owned_and_distribution_reasonable(self):
        ring = HashRing(default_shard_names(4))
        keys = [f"doc-{i}" for i in range(2000)]
        assignments = ring.assignments(keys)
        counts = {name: 0 for name in ring.nodes}
        for owner in assignments.values():
            counts[owner] += 1
        assert sum(counts.values()) == len(keys)
        # 64 virtual points per node keep the imbalance moderate
        assert min(counts.values()) > len(keys) / 4 / 3

    def test_adding_a_node_moves_keys_only_to_it(self):
        keys = [f"doc-{i}" for i in range(1500)]
        before = HashRing(default_shard_names(3))
        after = HashRing(default_shard_names(4))
        moved = before.moved_keys(keys, after)
        assert 0 < len(moved) < len(keys) / 2  # roughly 1/4 moves
        for key in moved:
            assert after.owner(key) == "shard-3"
        for key in set(keys) - set(moved):
            assert before.owner(key) == after.owner(key)

    def test_remove_is_inverse_of_add(self):
        ring = HashRing(default_shard_names(3))
        ring.add("shard-3")
        ring.remove("shard-3")
        reference = HashRing(default_shard_names(3))
        keys = [f"doc-{i}" for i in range(300)]
        assert ring.assignments(keys) == reference.assignments(keys)
        assert "shard-3" not in ring

    def test_empty_ring_refuses_ownership(self):
        with pytest.raises(ValueError):
            HashRing().owner("doc")

    def test_str_and_int_ids_do_not_collide(self):
        ring = HashRing(default_shard_names(5))
        # repr-hashing means "7" and 7 are distinct keys (they may land
        # anywhere, but they are hashed as different strings)
        assert ring.owner("7") == ring.owner("7")
        assert ring.owner(7) == ring.owner(7)

    def test_partition_preserves_batch_order(self):
        ring = HashRing(default_shard_names(2))
        documents = [(f"doc-{i}", f"source {i}") for i in range(40)]
        batches = partition(documents, ring)
        assert sorted(sum(batches.values(), [])) == sorted(documents)
        for name, batch in batches.items():
            assert all(ring.owner(document_id) == name
                       for document_id, _source in batch)
            indexes = [documents.index(pair) for pair in batch]
            assert indexes == sorted(indexes)


# ---------------------------------------------------------------------------
# canonical envelope merge ordering (property-based)
# ---------------------------------------------------------------------------
def _random_payload(rng, size):
    """A random ccd payload in canonical order, with similarity ties."""
    similarities = [rng.random() for _ in range(max(1, size // 2))]
    matches = [
        {"document_id": f"0x{rng.randrange(16 ** 8):08x}-{index}",
         "similarity": rng.choice(similarities)}
        for index in range(size)
    ]
    matches.sort(key=canonical_match_key)
    return matches


def _random_stream(rng):
    """A full result stream mixing ccd, ccc-style, and null payloads."""
    envelopes = []
    for position in range(rng.randrange(1, 8)):
        kind = rng.choice(["ccd", "ccd", "ccd-null", "ccc"])
        if kind == "ccd":
            payload = _random_payload(rng, rng.randrange(0, 12))
            envelopes.append({"analyzer": "ccd",
                              "contract_id": f"q{position}",
                              "payload": payload})
        elif kind == "ccd-null":
            envelopes.append({"analyzer": "ccd",
                              "contract_id": f"q{position}",
                              "payload": None})
        else:
            envelopes.append({"analyzer": "ccc",
                              "contract_id": f"q{position}",
                              "payload": {"findings": [], "vulnerable": False}})
    return envelopes


class TestMergeOrdering:
    @pytest.mark.parametrize("seed", range(12))
    def test_any_partition_in_any_arrival_order_reproduces_the_bytes(self, seed):
        rng = random.Random(seed)
        envelopes = _random_stream(rng)
        expected = [canonical_json(envelope) for envelope in envelopes]
        shard_count = rng.randrange(1, 6)
        # partition every ccd payload match-by-match across the shards;
        # corpus-independent envelopes appear identically on every shard
        shard_streams = [[] for _ in range(shard_count)]
        for envelope in envelopes:
            if envelope["analyzer"] == "ccd" and envelope["payload"] is not None:
                slices = [[] for _ in range(shard_count)]
                for match in envelope["payload"]:
                    slices[rng.randrange(shard_count)].append(match)
                for stream, piece in zip(shard_streams, slices):
                    # each shard emits its slice canonically sorted, the
                    # way a real worker does
                    piece.sort(key=canonical_match_key)
                    stream.append(canonical_json(
                        {**envelope, "payload": piece}))
            else:
                for stream in shard_streams:
                    stream.append(canonical_json(envelope))
        rng.shuffle(shard_streams)  # arrival order across shards is free too
        assert merge_shard_results(shard_streams) == expected

    def test_single_shard_stream_passes_through_verbatim(self):
        lines = [canonical_json({"analyzer": "ccd", "contract_id": "q",
                                 "payload": []})]
        assert merge_shard_results([lines]) == lines

    def test_misaligned_streams_are_refused(self):
        first = [canonical_json({"analyzer": "ccd", "contract_id": "a",
                                 "payload": []})]
        second = [canonical_json({"analyzer": "ccd", "contract_id": "b",
                                  "payload": []})]
        with pytest.raises(ValueError):
            merge_shard_results([first, second])
        with pytest.raises(ValueError):
            merge_shard_results([first, first + second])

    def test_non_scatter_analyses_pass_through_from_first_shard(self):
        envelope = {"analyzer": "ccc", "contract_id": "q",
                    "payload": {"findings": ["f"], "vulnerable": True}}
        line = canonical_json(envelope)
        assert merge_shard_results([[line], [line], [line]]) == [line]


# ---------------------------------------------------------------------------
# fan-out bookkeeping in the job store
# ---------------------------------------------------------------------------
class TestFanoutBookkeeping:
    def test_fanout_round_trips_and_recover_clears_it(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite")
        job = store.submit([["q", "x = 1"]], ["ccd"])
        claimed = store.claim_next()
        fanout = {"shards": {"shard-0": 7, "shard-1": 9}, "degraded": ["shard-2"]}
        store.set_fanout(claimed.job_id, fanout)
        assert store.get(job.job_id).fanout == fanout
        assert store.get(job.job_id).as_dict()["fanout"] == fanout
        # a killed coordinator requeues the job with the fan-out wiped:
        # the rerun dispatches fresh sub-jobs, never trusts stale ids
        assert store.recover() == 1
        recovered = store.get(job.job_id)
        assert recovered.state == "queued"
        assert recovered.fanout is None
        assert "fanout" not in recovered.as_dict()
        store.close()

    def test_pre_fanout_databases_are_migrated(self, tmp_path):
        import sqlite3

        path = tmp_path / "jobs.sqlite"
        connection = sqlite3.connect(str(path))
        connection.executescript("""
            CREATE TABLE jobs (
                id INTEGER PRIMARY KEY AUTOINCREMENT,
                state TEXT NOT NULL DEFAULT 'queued',
                analyses TEXT NOT NULL, corpus TEXT NOT NULL,
                options TEXT NOT NULL DEFAULT '{}', error TEXT,
                submitted REAL NOT NULL, started REAL, finished REAL);
            CREATE TABLE job_results (
                job_id INTEGER NOT NULL, seq INTEGER NOT NULL,
                envelope TEXT NOT NULL, PRIMARY KEY (job_id, seq));
            INSERT INTO jobs (state, analyses, corpus, options, submitted)
            VALUES ('queued', '["ccd"]', '[["q", "x = 1"]]', '{}', 1.0);
        """)
        connection.commit()
        connection.close()
        store = JobStore(path)
        job = store.get(1)
        assert job.state == "queued" and job.fanout is None
        store.set_fanout(1, {"shards": {}, "degraded": []})
        assert store.get(1).fanout == {"shards": {}, "degraded": []}
        store.close()


class TestCorpusJournal:
    def test_round_trip_reassign_and_forget(self, tmp_path):
        journal = CorpusJournal(tmp_path / "corpus.sqlite")
        journal.record("0xabc", "contract A { }", "shard-0")
        journal.record(7, "contract B { }", "shard-1")
        journal.record("7", "contract C { }", "shard-0")  # int/str distinct
        assert journal.count() == 3
        assert journal.assignments() == {"0xabc": "shard-0", 7: "shard-1",
                                         "7": "shard-0"}
        assert journal.sources([7]) == [(7, "contract B { }")]
        journal.reassign(7, "shard-0")
        assert journal.assignments()[7] == "shard-0"
        assert journal.per_shard_counts() == {"shard-0": 3}
        journal.forget("7")
        assert journal.count() == 2
        journal.close()
        # durable across a close/reopen, like every other daemon store
        reopened = CorpusJournal(tmp_path / "corpus.sqlite")
        assert reopened.assignments() == {"0xabc": "shard-0", 7: "shard-0"}
        reopened.close()


# ---------------------------------------------------------------------------
# cross-shard byte parity (in-process daemons over real HTTP)
# ---------------------------------------------------------------------------
class TestClusterParity:
    #: the η (ngram prefilter) / ε (similarity) grid of the parity sweep
    GRID = ((0.5, 0.7), (0.35, 0.85))

    @pytest.mark.parametrize("shard_count", (1, 2, 4))
    @pytest.mark.parametrize("eta,epsilon", GRID)
    def test_merged_bytes_equal_single_node(self, tmp_path, corpora,
                                            shard_count, eta, epsilon):
        contracts, snippets = corpora
        sources = snippets[:8]
        thresholds = dict(ngram_threshold=eta, similarity_threshold=epsilon)
        expected = single_node_bytes(
            tmp_path, "single", contracts, sources, ["ccd", "ccc"],
            **thresholds)
        with in_process_cluster(tmp_path, shard_count, **thresholds) as (
                coordinator, _workers):
            client = ServiceClient(coordinator.url, connect_timeout=5.0)
            summary = client.ingest(contracts)
            assert summary["documents"] == len(contracts)
            merged, job = run_job_bytes(
                coordinator.url, sources, ["ccd", "ccc"])
        assert merged == expected
        assert job["fanout"]["degraded"] == []
        assert len(job["fanout"]["shards"]) == shard_count

    def test_non_resident_ccd_is_passed_through_not_merged(self, tmp_path,
                                                           corpora):
        contracts, snippets = corpora
        sources = snippets[:6]
        options = {"ccd": {"resident": False}}
        expected = single_node_bytes(
            tmp_path, "single-nr", contracts, sources, ["ccd"], options)
        with in_process_cluster(tmp_path, 2) as (coordinator, _workers):
            ServiceClient(coordinator.url, connect_timeout=5.0).ingest(contracts)
            merged, _job = run_job_bytes(
                coordinator.url, sources, ["ccd"], options)
        # self-indexing jobs are corpus-independent: every shard computes
        # the identical payload and the coordinator must not union-merge
        # N copies of it
        assert merged == expected

    def test_ingest_routes_by_ring_and_corpus_endpoint_agrees(self, tmp_path,
                                                              corpora):
        contracts, _snippets = corpora
        with in_process_cluster(tmp_path, 3) as (coordinator, workers):
            client = ServiceClient(coordinator.url, connect_timeout=5.0)
            client.ingest(contracts)
            ring = HashRing(default_shard_names(3))
            expected = {name: sorted(
                (document_id for document_id, _source in contracts
                 if ring.owner(document_id) == name), key=str)
                for name in ring.nodes}
            routed = client.corpus()
            assert routed["shards"] == expected
            for name, worker in zip(default_shard_names(3), workers):
                held = ServiceClient(worker.url).corpus()["documents"]
                assert held == expected[name]

    def test_submit_validation_fails_fast_without_touching_workers(
            self, tmp_path):
        with in_process_cluster(tmp_path, 2) as (coordinator, workers):
            client = ServiceClient(coordinator.url, connect_timeout=5.0)
            with pytest.raises(ServiceError) as excinfo:
                client.submit([["q", "x = 1"]], analyses=["nope"])
            assert excinfo.value.status == 400
            for worker in workers:
                assert ServiceClient(worker.url).jobs() == []

    def test_malformed_analyzer_options_are_400_without_touching_workers(
            self, tmp_path):
        with in_process_cluster(tmp_path, 2) as (coordinator, workers):
            client = ServiceClient(coordinator.url, connect_timeout=5.0)
            for options in ({"ccd": "x"},
                            {"ccd": {"resident": False,
                                     "similarity_backend": "bogus"}}):
                with pytest.raises(ServiceError) as excinfo:
                    client.submit([["q", "x = 1"]], analyses=["ccd"],
                                  options=options)
                assert excinfo.value.status == 400
            assert client.jobs() == []
            for worker in workers:
                assert ServiceClient(worker.url).jobs() == []

    def test_retired_bounded_backend_option_runs_as_default(self, tmp_path,
                                                            corpora):
        # job options naming the retired "bounded" backend still pass the
        # coordinator's validation and give the default backend's bytes
        contracts, snippets = corpora
        sources = snippets[:6]
        expected = single_node_bytes(
            tmp_path, "single-nr", contracts, sources, ["ccd"],
            {"ccd": {"resident": False}})
        options = {"ccd": {"resident": False, "similarity_backend": "bounded"}}
        with in_process_cluster(tmp_path, 2) as (coordinator, _workers):
            ServiceClient(coordinator.url, connect_timeout=5.0).ingest(contracts)
            merged, job = run_job_bytes(
                coordinator.url, sources, ["ccd"], options)
        assert merged == expected
        assert job["fanout"]["degraded"] == []


class TestDegradedMode:
    def test_dead_worker_degrades_health_stats_and_jobs(self, tmp_path,
                                                        corpora):
        contracts, snippets = corpora
        workers = []
        coordinator = None
        try:
            for index in range(2):
                service = AnalysisService(
                    worker_config(tmp_path, f"dm-worker-{index}"))
                service.start()
                workers.append(service)
            coordinator = ClusterCoordinator(CoordinatorConfig(
                data_dir=str(tmp_path / "dm-coordinator"), port=0,
                workers=tuple(worker.url for worker in workers),
                connect_timeout=0.5, shard_timeout=5.0))
            coordinator.start()
            client = ServiceClient(coordinator.url, connect_timeout=5.0)
            client.ingest(contracts)
            survivors = ServiceClient(workers[0].url).corpus()["documents"]
            workers[1].stop()  # shard-1 goes dark and stays dark

            health = client.healthz()
            assert health["status"] == "degraded"
            assert health["degraded"] == ["shard-1"]
            assert health["shards"]["shard-0"]["status"] == "ok"
            stats = client.stats()
            assert "error" in stats["shards"]["shard-1"]
            cluster = client.cluster()
            assert cluster["status"] == "degraded"
            assert cluster["workers"]["shard-1"]["status"] == "unreachable"

            # the job COMPLETES, with an explicit degraded-shards report —
            # not a hang, not a silent partial result
            merged, job = run_job_bytes(
                coordinator.url, snippets[:4], ["ccd", "ccc"], timeout=60.0)
            assert job["state"] == "done"
            assert job["fanout"]["degraded"] == ["shard-1"]
            for line in merged:
                envelope = json.loads(line)
                if envelope["analyzer"] == "ccd" and envelope["payload"]:
                    assert all(match["document_id"] in survivors
                               for match in envelope["payload"])
        finally:
            if coordinator is not None:
                coordinator.stop()
            for worker in workers:
                worker.stop()

    def test_all_shards_down_fails_the_job_explicitly(self, tmp_path):
        worker = AnalysisService(worker_config(tmp_path, "ad-worker"))
        worker.start()
        coordinator = ClusterCoordinator(CoordinatorConfig(
            data_dir=str(tmp_path / "ad-coordinator"), port=0,
            workers=(worker.url,), connect_timeout=0.3, shard_timeout=2.0))
        coordinator.start()
        try:
            worker.stop()
            client = ServiceClient(coordinator.url, connect_timeout=5.0)
            job = client.submit([["q", "x = 1"]], analyses=["ccd"])
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                state = client.job(job["id"], results=False)["job"]
                if state["state"] in ("done", "failed"):
                    break
                time.sleep(0.05)
            assert state["state"] == "failed"
            assert "unreachable" in state["error"]
            assert state["fanout"]["degraded"] == ["shard-0"]
        finally:
            coordinator.stop()
            worker.stop()


# ---------------------------------------------------------------------------
# real subprocesses: kills, restarts, rebalancing (the cluster harness)
# ---------------------------------------------------------------------------
class TestClusterSubprocess:
    #: ``repro serve`` defaults ε to 0.9 (the paper's clone threshold)
    #: while ServiceConfig defaults to 0.7 — the in-process reference
    #: runs must match what the spawned CLI daemons actually use
    CLI_THRESHOLDS = dict(ngram_threshold=0.5, similarity_threshold=0.9)

    @pytest.fixture()
    def cluster(self, tmp_path):
        handle = cluster_harness.spawn_cluster(
            tmp_path / "cluster", 2,
            coordinator_extra=("--connect-timeout", "15",
                               "--shard-timeout", "120"))
        yield handle
        handle.stop()

    def test_subprocess_parity_with_single_node(self, tmp_path, corpora,
                                                cluster):
        contracts, snippets = corpora
        sources = snippets[:6]
        expected = single_node_bytes(
            tmp_path, "sp-single", contracts, sources, ["ccd", "ccc"],
            **self.CLI_THRESHOLDS)
        client = cluster.client()
        client.ingest(contracts)
        merged, job = run_job_bytes(
            cluster.coordinator.url, sources, ["ccd", "ccc"])
        assert merged == expected
        assert job["fanout"]["degraded"] == []

    def test_worker_killed_mid_job_and_restarted_still_byte_identical(
            self, tmp_path, corpora, cluster):
        contracts, snippets = corpora
        expected = single_node_bytes(
            tmp_path, "wk-single", contracts, snippets, ["ccd", "ccc"],
            **self.CLI_THRESHOLDS)
        client = cluster.client()
        client.ingest(contracts)
        job = client.submit(snippets, analyses=["ccd", "ccc"])
        # SIGKILL one worker while the fan-out is (very likely) in
        # flight; its own job store requeues the sub-job on restart
        time.sleep(0.3)
        cluster.workers[1].kill()
        time.sleep(0.5)
        cluster.restart_worker(1)
        finished = client.wait(job["id"], timeout=180.0)
        merged = [canonical_json(envelope)
                  for envelope in finished["results"]]
        assert merged == expected
        assert finished["job"]["fanout"]["degraded"] == []

    def test_coordinator_killed_mid_fanout_recovers_and_reruns(
            self, tmp_path, corpora, cluster):
        contracts, snippets = corpora
        expected = single_node_bytes(
            tmp_path, "ck-single", contracts, snippets, ["ccd", "ccc"],
            **self.CLI_THRESHOLDS)
        client = cluster.client()
        client.ingest(contracts)
        job = client.submit(snippets, analyses=["ccd", "ccc"])
        time.sleep(0.3)
        cluster.coordinator.kill()  # SIGKILL mid-fan-out
        cluster.restart_coordinator()
        client = cluster.client()
        finished = client.wait(job["id"], timeout=180.0)
        merged = [canonical_json(envelope)
                  for envelope in finished["results"]]
        assert merged == expected
        assert finished["job"]["state"] == "done"

    def test_worker_that_stays_down_yields_explicit_degraded_report(
            self, tmp_path, corpora):
        contracts, snippets = corpora
        cluster = cluster_harness.spawn_cluster(
            tmp_path / "dg-cluster", 2,
            coordinator_extra=("--connect-timeout", "1",
                               "--shard-timeout", "8"))
        try:
            client = cluster.client()
            client.ingest(contracts)
            cluster.workers[1].kill()
            finished = client.wait(
                client.submit(snippets[:4], analyses=["ccd"])["id"],
                timeout=120.0)
            assert finished["job"]["state"] == "done"
            assert finished["job"]["fanout"]["degraded"] == ["shard-1"]
        finally:
            cluster.stop()

    def test_rebalance_after_adding_a_worker_moves_only_moved_keys(
            self, tmp_path, corpora, cluster):
        contracts, _snippets = corpora
        client = cluster.client()
        client.ingest(contracts)
        ids = [document_id for document_id, _source in contracts]
        before = HashRing(default_shard_names(2))
        after = HashRing(default_shard_names(3))
        predicted_moved = sorted(before.moved_keys(ids, after), key=str)

        cluster.add_worker()
        cluster.coordinator.terminate()
        cluster.restart_coordinator()  # now fronting three workers
        client = cluster.client()
        report = client.rebalance()
        assert report["moved"] == predicted_moved
        # every moved key went to the new shard, nothing else changed
        expected = {name: sorted(
            (document_id for document_id in ids
             if after.owner(document_id) == name), key=str)
            for name in after.nodes}
        for name, worker in zip(default_shard_names(3), cluster.workers):
            held = worker.client().corpus()["documents"]
            assert held == expected[name]
        assert client.corpus()["shards"] == expected
        # a second rebalance is a no-op: owners already match the ring
        assert client.rebalance()["moved"] == []
