"""Workload engine tests: durable, resumable, fan-out evaluation jobs.

The headline claims of ``repro.service.workloads``:

* a workload submitted over HTTP produces a merged report **byte
  identical** to running the same evaluation locally (``canonical_json``
  parity);
* a job interrupted mid-sweep (graceful pause or SIGKILL) resumes from
  its completed chunks — provably skipping them, asserted on unchanged
  chunk ``finished`` timestamps;
* cancellation lands at a chunk boundary and keeps partial results;
* a coordinator fans grid cells across shards and merges to the same
  bytes as a single daemon, and a graceful coordinator stop mid-fan-out
  leaves the job for the next start instead of failing it.

The tests drive the engine at three levels: the pure
``run_workload_job`` loop over a bare :class:`JobStore`, the worker
HTTP surface, and an in-process coordinator + shards cluster.
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.api.envelope import canonical_json
from repro.service import (
    AnalysisService,
    ClusterCoordinator,
    CoordinatorConfig,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.jobstore import JOBS_DATABASE_NAME, JobStore
from repro.service.workloads import (
    WORKLOADS,
    Workload,
    WorkloadContext,
    WorkloadError,
    WorkloadRegistry,
    run_workload_job,
    validate_workload_request,
    workload_payload,
)

#: a one-function contract with one ccc finding (unguarded transfer)
PAYOUT_SOURCE = """
contract Payout {
    function pay(address to) public { to.transfer(1 ether); }
}
"""

#: a parameter sweep small enough for tests: 2 N x 1 eta x 2 eps = 4 cells
SWEEP_PARAMS = {
    "honeypot": {"seed": 7, "counts": {"balance_disorder": 2,
                                       "hidden_transfer": 2}},
    "ngram_sizes": [2, 3],
    "ngram_thresholds": [0.5],
    "similarity_thresholds": [0.6, 0.8],
}


def local_workload_bytes(kind: str, params: dict) -> str:
    """The reference run: the same workload executed inline, no daemon."""
    workload = WORKLOADS.get(kind)
    normalized = workload.normalize(params)
    context = WorkloadContext()
    results = [workload.run_chunk(normalized, spec, context)
               for spec in workload.decompose(normalized)]
    return canonical_json(workload.merge(normalized, results))


def make_config(tmp_path, name="svc", **overrides) -> ServiceConfig:
    defaults = dict(data_dir=str(tmp_path / name), port=0, backend="serial")
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@contextmanager
def in_process_cluster(tmp_path, shard_count):
    workers = []
    coordinator = None
    try:
        for index in range(shard_count):
            service = AnalysisService(
                make_config(tmp_path, f"worker-{index}"))
            service.start()
            workers.append(service)
        coordinator = ClusterCoordinator(CoordinatorConfig(
            data_dir=str(tmp_path / "coordinator"), port=0,
            workers=tuple(worker.url for worker in workers),
            connect_timeout=5.0, shard_timeout=60.0))
        coordinator.start()
        yield coordinator, workers
    finally:
        if coordinator is not None:
            coordinator.stop()
        for worker in workers:
            worker.stop()


def wait_for_fanout(coordinator, job_id, timeout=30.0):
    """Block until the coordinator recorded which shards got the job."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = coordinator.jobstore.get(job_id)
        if job.fanout and job.fanout.get("shards"):
            return job.fanout
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} was never fanned out")


def stop_mid_fanout(coordinator, worker, submit):
    """Stop ``coordinator`` while ``worker`` holds its sub-job; returns the row.

    The worker's write lock keeps the sub-job from running, so the
    stop lands while the fan-out waits on the shard.
    """
    with worker._work_lock.write():
        job = submit()
        wait_for_fanout(coordinator, job.job_id)
        coordinator.stop()
    with JobStore(Path(coordinator.config.data_dir) / JOBS_DATABASE_NAME) as store:
        return store.get(job.job_id)


class CountingWorkload(Workload):
    """A tiny instrumented workload: each chunk records its execution."""

    kind = "test_counting"
    title = "instrumented test workload"

    def __init__(self):
        self.executed = []
        self.after_chunk = None  # optional callback(chunk_index)

    def normalize(self, params: dict) -> dict:
        return {"chunks": int(params.get("chunks", 4))}

    def decompose(self, params: dict) -> list:
        return [{"index": index} for index in range(params["chunks"])]

    def run_chunk(self, params, spec, context) -> dict:
        self.executed.append(spec["index"])
        if self.after_chunk is not None:
            self.after_chunk(spec["index"])
        return {"index": spec["index"], "square": spec["index"] ** 2}

    def merge(self, params, results) -> dict:
        return {"total": sum(result["square"] for result in results),
                "count": len(results)}


@pytest.fixture
def counting():
    registry = WorkloadRegistry()
    workload = CountingWorkload()
    registry.register(workload)
    return registry, workload


# ---------------------------------------------------------------------------
# request validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_unknown_kind_is_refused(self):
        with pytest.raises(WorkloadError, match="unknown workload kind"):
            validate_workload_request({"kind": "nope"})

    def test_unknown_parameter_is_refused(self):
        with pytest.raises(WorkloadError, match="unknown parameter_sweep"):
            validate_workload_request(
                {"kind": "parameter_sweep", "params": {"seed": 1}})

    def test_normalize_is_idempotent(self):
        workload = WORKLOADS.get("parameter_sweep")
        once = workload.normalize(SWEEP_PARAMS)
        assert workload.normalize(once) == once

    def test_chunk_restriction_bounds_checked(self):
        with pytest.raises(WorkloadError, match="chunk"):
            validate_workload_request(
                {"kind": "parameter_sweep", "params": SWEEP_PARAMS,
                 "chunks": [0, 99]})

    def test_chunk_restriction_sorted_and_deduplicated(self):
        descriptor = validate_workload_request(
            {"kind": "parameter_sweep", "params": SWEEP_PARAMS,
             "chunks": [3, 1, 1, 0]})
        assert descriptor["chunks"] == [0, 1, 3]

    def test_every_builtin_kind_decomposes_deterministically(self):
        for kind in WORKLOADS.kinds():
            workload = WORKLOADS.get(kind)
            params = workload.normalize({})
            specs = workload.decompose(params)
            assert specs, kind
            assert specs == workload.decompose(params), kind


# ---------------------------------------------------------------------------
# the chunk table and the run loop
# ---------------------------------------------------------------------------

class TestRunLoop:
    def submit(self, store, kind="test_counting", params=None, chunks=None):
        descriptor = {"kind": kind, "params": params or {"chunks": 4}}
        if chunks is not None:
            descriptor["chunks"] = chunks
        return store.submit([], [], workload=descriptor)

    def test_done_merges_in_chunk_order(self, tmp_path, counting):
        registry, workload = counting
        with JobStore(tmp_path / "jobs.sqlite") as store:
            self.submit(store)
            job = store.claim_next()
            assert run_workload_job(job, store, registry=registry) == "done"
            assert workload.executed == [0, 1, 2, 3]
            results = store.results(job.job_id)
            assert json.loads(results[0][1]) == {"total": 14, "count": 4}
            progress = store.chunk_progress(job.job_id)
            assert (progress["done"], progress["total"]) == (4, 4)

    def test_pause_then_resume_skips_completed_chunks(self, tmp_path,
                                                      counting):
        registry, workload = counting
        with JobStore(tmp_path / "jobs.sqlite") as store:
            self.submit(store)
            job = store.claim_next()
            calls = iter((False, False, True, True))
            outcome = run_workload_job(job, store, registry=registry,
                                       should_stop=lambda: next(calls))
            assert outcome == "paused" and workload.executed == [0, 1]
            # the job is left running so recover() requeues it on restart
            assert store.get(job.job_id).state == "running"
            first_pass = {row["chunk"]: row["finished"]
                          for row in store.chunks(job.job_id)
                          if row["state"] == "done"}
            assert sorted(first_pass) == [0, 1]

            assert store.recover() == 1
            job = store.claim_next()
            assert run_workload_job(job, store, registry=registry) == "done"
            # chunks 0 and 1 were provably skipped: same finished stamps
            rows = {row["chunk"]: row for row in store.chunks(job.job_id)}
            assert workload.executed == [0, 1, 2, 3]
            for chunk, stamp in first_pass.items():
                assert rows[chunk]["finished"] == stamp
            assert json.loads(store.results(job.job_id)[0][1]) == {
                "total": 14, "count": 4}

    def test_cancel_lands_at_chunk_boundary(self, tmp_path, counting):
        registry, workload = counting
        with JobStore(tmp_path / "jobs.sqlite") as store:
            self.submit(store)
            job = store.claim_next()
            workload.after_chunk = (
                lambda index: store.cancel(job.job_id) if index == 1 else None)
            outcome = run_workload_job(job, store, registry=registry)
            assert outcome == "cancelled" and workload.executed == [0, 1]
            store.finish(job.job_id, "cancelled")
            states = {row["chunk"]: row["state"]
                      for row in store.chunks(job.job_id)}
            assert states == {0: "done", 1: "done",
                              2: "cancelled", 3: "cancelled"}

    def test_requeue_after_cancel_reuses_partial_results(self, tmp_path,
                                                         counting):
        registry, workload = counting
        with JobStore(tmp_path / "jobs.sqlite") as store:
            self.submit(store)
            job = store.claim_next()
            workload.after_chunk = (
                lambda index: store.cancel(job.job_id) if index == 0 else None)
            assert run_workload_job(job, store, registry=registry) == "cancelled"
            store.finish(job.job_id, "cancelled")

            workload.after_chunk = None
            store.requeue(job.job_id)
            job = store.claim_next()
            assert run_workload_job(job, store, registry=registry) == "done"
            assert workload.executed == [0, 1, 2, 3]  # chunk 0 ran once

    def test_requeue_refuses_non_terminal_and_done_jobs(self, tmp_path,
                                                        counting):
        registry, _workload = counting
        with JobStore(tmp_path / "jobs.sqlite") as store:
            queued = self.submit(store)
            with pytest.raises(ValueError):
                store.requeue(queued.job_id)
            job = store.claim_next()
            run_workload_job(job, store, registry=registry)
            store.finish(job.job_id, "done")
            with pytest.raises(ValueError):
                store.requeue(job.job_id)

    def test_restricted_run_skips_merge(self, tmp_path, counting):
        registry, workload = counting
        with JobStore(tmp_path / "jobs.sqlite") as store:
            self.submit(store, chunks=[1, 3])
            job = store.claim_next()
            assert run_workload_job(job, store, registry=registry) == "done"
            assert workload.executed == [1, 3]
            assert store.results(job.job_id) == []
            states = {row["chunk"]: row["state"]
                      for row in store.chunks(job.job_id)}
            assert states == {0: "pending", 1: "done",
                              2: "pending", 3: "done"}

    def test_cancel_semantics_by_state(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            queued = store.submit([("a", "x")], ["ccd"])
            assert store.cancel(queued.job_id) == "cancelled"
            assert store.get(queued.job_id).state == "cancelled"

            running = store.submit([("a", "x")], ["ccd"])
            store.claim_next()
            assert store.cancel(running.job_id) == "cancelling"
            assert store.is_cancel_requested(running.job_id)
            store.finish(running.job_id, "cancelled")
            assert store.cancel(running.job_id) == "cancelled"  # terminal noop
            assert store.cancel(99999) is None


# ---------------------------------------------------------------------------
# schema migration
# ---------------------------------------------------------------------------

class TestPreMigrationDatabase:
    def test_pre_workload_database_is_migrated_in_place(self, tmp_path):
        """A database from before the workload engine opens cleanly."""
        path = tmp_path / "jobs.sqlite"
        connection = sqlite3.connect(str(path))
        connection.executescript("""
            CREATE TABLE jobs (
                id        INTEGER PRIMARY KEY AUTOINCREMENT,
                state     TEXT NOT NULL DEFAULT 'queued',
                analyses  TEXT NOT NULL,
                corpus    TEXT NOT NULL,
                options   TEXT NOT NULL DEFAULT '{}',
                error     TEXT,
                submitted REAL NOT NULL,
                started   REAL,
                finished  REAL
            );
            CREATE TABLE job_results (
                job_id   INTEGER NOT NULL,
                seq      INTEGER NOT NULL,
                envelope TEXT NOT NULL,
                PRIMARY KEY (job_id, seq)
            );
        """)
        connection.execute(
            "INSERT INTO jobs (state, analyses, corpus, submitted, started, "
            "finished) VALUES ('done', '[\"ccd\"]', '[]', 1.0, 2.0, 5.5)")
        connection.commit()
        connection.close()

        with JobStore(path) as store:
            old = store.get(1)
            assert old.state == "done" and list(old.analyses) == ["ccd"]
            payload = old.as_dict()
            assert payload["created_at"] == "1970-01-01T00:00:01+00:00"
            assert payload["duration_seconds"] == 3.5
            assert "cancel_requested" not in payload  # flag never set
            # the chunk table and new columns are usable immediately
            job = store.submit([], [], workload={"kind": "test", "params": {}})
            store.add_chunks(job.job_id, ['{"i":0}', '{"i":1}'])
            assert store.chunk_progress(job.job_id)["total"] == 2
            assert store.cancel(job.job_id) == "cancelled"


# ---------------------------------------------------------------------------
# the worker HTTP surface
# ---------------------------------------------------------------------------

#: every wire-reachable evaluation kind, with parameters small enough to test
EVALUATION_PARAMS = {
    "smartbugs_ccc": {},
    "smartbugs_baselines": {},
    "honeypot_clones": {"honeypot": {"seed": 7, "counts": {
        "balance_disorder": 2, "hidden_transfer": 2}}},
    "manual_validation": {
        "qa": {"seed": 3, "posts_per_site": {"stackoverflow": 4,
                                              "ethereum.stackexchange": 8}},
        "sanctuary": {"seed": 11, "independent_contracts": 4},
        "sample_size": 5},
}


class TestHttpWorkloads:
    @pytest.fixture
    def service(self, tmp_path):
        with AnalysisService(make_config(tmp_path)) as svc:
            yield svc

    @pytest.fixture
    def client(self, service):
        return ServiceClient(service.url)

    @pytest.mark.parametrize("kind", sorted(EVALUATION_PARAMS))
    def test_evaluation_kind_matches_local_bytes(self, client, kind):
        params = EVALUATION_PARAMS[kind]
        submitted = client.submit_workload(kind, params=params)
        final = client.wait_workload(submitted["id"], timeout=300.0)
        assert final["job"]["state"] == "done"
        assert canonical_json(final["results"][0]) == \
            local_workload_bytes(kind, params)

    def test_http_sweep_matches_local_bytes(self, client):
        submitted = client.submit_workload("parameter_sweep",
                                           params=SWEEP_PARAMS)
        assert submitted["state"] == "queued" or submitted["state"] == "running"
        final = client.wait_workload(submitted["id"], timeout=120.0)
        assert final["job"]["state"] == "done"
        daemon_bytes = canonical_json(final["results"][0])
        assert daemon_bytes == local_workload_bytes("parameter_sweep",
                                                    SWEEP_PARAMS)
        status = client.workload(submitted["id"], chunks=True)
        assert status["progress"] == {"done": 4, "total": 4, "eta": None} or \
            status["progress"]["done"] == 4
        assert [row["state"] for row in status["chunks"]] == ["done"] * 4
        assert status["duration_seconds"] is not None

    def test_listing_registry_and_jobs(self, client):
        listing = client.workloads_page(state=None, limit=10, offset=0)
        assert listing["workloads"] == [] and listing["total"] == 0
        submitted = client.submit_workload("parameter_sweep",
                                           params=SWEEP_PARAMS)
        client.wait_workload(submitted["id"], timeout=120.0)
        listing = client.workloads_page(state="done", limit=10, offset=0)
        assert [entry["id"] for entry in listing["workloads"]] == \
            [submitted["id"]]
        entry = listing["workloads"][0]
        assert entry["workload"]["kind"] == "parameter_sweep"
        assert entry["progress"]["total"] == 4

    def test_submit_validation_errors_are_400(self, client):
        with pytest.raises(ServiceError, match="unknown workload kind"):
            client.submit_workload("nope")
        with pytest.raises(ServiceError, match="unknown parameter_sweep"):
            client.submit_workload("parameter_sweep", params={"bogus": 1})

    def test_workload_routes_404_for_plain_jobs(self, client, service):
        job = service.jobstore.submit([("a", "contract A {}")], [])
        with pytest.raises(ServiceError, match="not a workload"):
            client.workload(job.job_id)
        with pytest.raises(ServiceError, match="not a workload"):
            client.resume_workload(job.job_id)

    def test_cancel_queued_job_over_http(self, service):
        # scheduler is busy elsewhere: stop it claiming by flooding first
        client = ServiceClient(service.url)
        submitted = client.submit_workload("parameter_sweep",
                                           params=SWEEP_PARAMS)
        outcome = client.cancel(submitted["id"])
        assert outcome["state"] in ("cancelled", "cancelling", "done")
        final = client.wait_workload(submitted["id"], timeout=120.0)
        assert final["job"]["state"] in ("cancelled", "done")

    def test_resume_failed_workload_over_http(self, tmp_path):
        """Chunks completed before a crash survive an HTTP resume."""
        config = make_config(tmp_path)
        with AnalysisService(config) as service:
            client = ServiceClient(service.url)
            submitted = client.submit_workload("parameter_sweep",
                                               params=SWEEP_PARAMS)
            final = client.wait_workload(submitted["id"], timeout=120.0)
            assert final["job"]["state"] == "done"
            reference = canonical_json(final["results"][0])

            # forge the crash: mark the job failed, wipe two chunks and
            # the merged result, as if the daemon died mid-sweep
            store = service.jobstore
            store._connection.execute(
                "UPDATE jobs SET state='failed', error='simulated crash', "
                "finished=NULL WHERE id=?", (submitted["id"],))
            store._connection.execute(
                "UPDATE job_chunks SET state='pending', result=NULL, "
                "finished=NULL WHERE job_id=? AND chunk IN (2, 3)",
                (submitted["id"],))
            store._connection.execute(
                "DELETE FROM job_results WHERE job_id=?", (submitted["id"],))
            kept = {row["chunk"]: row["finished"]
                    for row in store.chunks(submitted["id"])
                    if row["state"] == "done"}
            assert sorted(kept) == [0, 1]

            resumed = client.resume_workload(submitted["id"])
            assert resumed["progress"]["done"] == 2
            final = client.wait_workload(submitted["id"], timeout=120.0)
            assert final["job"]["state"] == "done"
            # byte parity with the uninterrupted run, chunks 0-1 skipped
            assert canonical_json(final["results"][0]) == reference
            rows = {row["chunk"]: row
                    for row in store.chunks(submitted["id"])}
            for chunk, stamp in kept.items():
                assert rows[chunk]["finished"] == stamp

    def test_jobs_endpoint_reports_timestamps_and_duration(self, client):
        submitted = client.submit_workload("parameter_sweep",
                                           params=SWEEP_PARAMS)
        final = client.wait_workload(submitted["id"], timeout=120.0)
        job = final["job"]
        assert job["created_at"] and job["started_at"] and job["finished_at"]
        assert job["duration_seconds"] >= 0.0
        assert job["created_at"] <= job["started_at"] <= job["finished_at"]


# ---------------------------------------------------------------------------
# coordinator fan-out
# ---------------------------------------------------------------------------

class TestCoordinatorWorkloads:
    def test_fanout_merges_to_single_node_bytes(self, tmp_path):
        with in_process_cluster(tmp_path, 2) as (coordinator, workers):
            client = ServiceClient(coordinator.url, connect_timeout=5.0)
            submitted = client.submit_workload("parameter_sweep",
                                               params=SWEEP_PARAMS)
            final = client.wait_workload(submitted["id"], timeout=180.0)
            assert final["job"]["state"] == "done"
            assert canonical_json(final["results"][0]) == \
                local_workload_bytes("parameter_sweep", SWEEP_PARAMS)
            fanout = final["job"]["fanout"]
            assert sorted(fanout["shards"]) == ["shard-0", "shard-1"]
            assert fanout["degraded"] == []
            status = client.workload(submitted["id"], chunks=True)
            assert [row["state"] for row in status["chunks"]] == ["done"] * 4

    def test_shard_sub_jobs_are_restricted_and_unmerged(self, tmp_path):
        with in_process_cluster(tmp_path, 2) as (coordinator, workers):
            client = ServiceClient(coordinator.url, connect_timeout=5.0)
            submitted = client.submit_workload("parameter_sweep",
                                               params=SWEEP_PARAMS)
            client.wait_workload(submitted["id"], timeout=180.0)
            shard_chunks = []
            for worker in workers:
                for entry in ServiceClient(worker.url).workloads():
                    descriptor = entry["workload"]
                    assert descriptor["chunks"], \
                        "shard sub-jobs must be chunk-restricted"
                    shard_chunks.extend(descriptor["chunks"])
            assert sorted(shard_chunks) == [0, 1, 2, 3]

    def test_validation_fails_fast_on_the_coordinator(self, tmp_path):
        with in_process_cluster(tmp_path, 2) as (coordinator, workers):
            client = ServiceClient(coordinator.url, connect_timeout=5.0)
            with pytest.raises(ServiceError, match="unknown workload kind"):
                client.submit_workload("nope")
            for worker in workers:
                assert ServiceClient(worker.url).workloads() == []

    def test_cancel_fans_to_shards(self, tmp_path):
        with in_process_cluster(tmp_path, 2) as (coordinator, _workers):
            client = ServiceClient(coordinator.url, connect_timeout=5.0)
            submitted = client.submit_workload("parameter_sweep",
                                               params=SWEEP_PARAMS)
            outcome = client.cancel(submitted["id"])
            assert outcome["state"] in ("cancelled", "cancelling", "done")
            final = client.wait_workload(submitted["id"], timeout=180.0)
            assert final["job"]["state"] in ("cancelled", "done")

    def test_graceful_stop_mid_fanout_reruns_the_job_on_restart(self, tmp_path):
        sources = [["payout", PAYOUT_SOURCE]]
        with in_process_cluster(tmp_path, 1) as (coordinator, workers):
            worker_client = ServiceClient(workers[0].url)
            row = stop_mid_fanout(coordinator, workers[0],
                                  lambda: coordinator.submit(sources, ["ccc"]))
            assert row.state == "running"
            assert row.fanout["degraded"] == []
            assert len(worker_client.jobs()) == 1
            with ClusterCoordinator(coordinator.config) as restarted:
                assert restarted.recovered_jobs == 1
                final = ServiceClient(restarted.url).wait(row.job_id,
                                                          timeout=180.0)
            assert final["job"]["state"] == "done"
            single = worker_client.submit(sources, ["ccc"])
            expected = worker_client.wait(single["id"], timeout=180.0)
            assert [canonical_json(envelope) for envelope in final["results"]] \
                == [canonical_json(envelope) for envelope in expected["results"]]

    def test_graceful_stop_mid_workload_fanout_resumes_on_restart(
            self, tmp_path):
        with in_process_cluster(tmp_path, 1) as (coordinator, workers):
            worker_client = ServiceClient(workers[0].url)
            row = stop_mid_fanout(
                coordinator, workers[0],
                lambda: coordinator.submit_workload(
                    {"kind": "parameter_sweep", "params": SWEEP_PARAMS}))
            assert row.state == "running"
            assert row.fanout["degraded"] == []
            before_restart = [entry["id"] for entry in worker_client.workloads()]
            assert len(before_restart) == 1
            with ClusterCoordinator(coordinator.config) as restarted:
                assert restarted.recovered_jobs == 1
                final = ServiceClient(restarted.url).wait_workload(
                    row.job_id, timeout=180.0)
            assert final["job"]["state"] == "done"
            assert canonical_json(final["results"][0]) == \
                local_workload_bytes("parameter_sweep", SWEEP_PARAMS)


# ---------------------------------------------------------------------------
# payload shape
# ---------------------------------------------------------------------------

class TestWorkloadPayload:
    def test_progress_and_eta(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            job = store.submit([], [], workload={"kind": "test_counting",
                                                 "params": {"chunks": 4}})
            store.claim_next()
            store.add_chunks(job.job_id, ['{"i":0}', '{"i":1}', '{"i":2}',
                                          '{"i":3}'])
            store.start_chunk(job.job_id, 0)
            store.finish_chunk(job.job_id, 0, '{"r":0}')
            store.start_chunk(job.job_id, 1)
            store.finish_chunk(job.job_id, 1, '{"r":1}')
            payload = workload_payload(store, store.get(job.job_id),
                                       include_chunks=True)
            assert payload["progress"]["done"] == 2
            assert payload["progress"]["total"] == 4
            assert payload["progress"]["eta"] is not None
            assert payload["progress"]["eta"] >= 0.0
            assert len(payload["chunks"]) == 4
            assert payload["chunks"][0]["state"] == "done"
            assert payload["chunks"][2]["state"] == "pending"
