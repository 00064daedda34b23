"""Tests for the asyncio transport and the route tables it serves.

The acceptance bar of the subsystem:

* both daemon roles answer the full ``/v1/*`` protocol
  **byte-identically** to the golden wire transcripts
  (``tests/wire_transcript.py``) — response bodies, error messages, and
  the chunked NDJSON stream framing,
* one error mapping covers every route of both roles: an unexpected
  exception is a JSON 500, an unreachable shard a 502,
* overload degrades by **shedding** (429/503 + ``Retry-After``), never
  by hanging a request,
* per-tenant quotas isolate tenants: one tenant over budget cannot
  starve another,
* the priority lanes in the :class:`JobStore` serve interactive first,
  FIFO within a lane, with an aging credit so batch never starves,
* concurrent identical submissions **coalesce** onto one underlying
  execution, each caller streaming byte-identical envelopes.
"""

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

import wire_transcript
from repro.service import (
    AnalysisService,
    ClusterCoordinator,
    CoordinatorConfig,
    JobFailedError,
    JobStore,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.gateway import (
    TenantQuota,
    coalesce_key,
    load_tenant_quotas,
)
from repro.service.routes import COORDINATOR_ROUTES
from repro.datasets.sanctuary import generate_sanctuary
from repro.datasets.snippets import generate_qa_corpus
from repro.pipeline.collection import SnippetCollector


@pytest.fixture(scope="module")
def corpora():
    """One small deterministic corpus pair shared by the gateway tests."""
    qa_corpus = generate_qa_corpus(
        seed=3, posts_per_site={"stackoverflow": 4, "ethereum.stackexchange": 8})
    sanctuary = generate_sanctuary(qa_corpus, seed=11, independent_contracts=4)
    contracts = [(contract.address, contract.source)
                 for contract in sanctuary.contracts]
    snippets = [(snippet.snippet_id, snippet.text)
                for snippet in SnippetCollector().collect(qa_corpus).snippets]
    return contracts, snippets


def make_config(tmp_path, name="svc", **overrides):
    defaults = dict(data_dir=str(tmp_path / name), port=0, backend="serial")
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.fixture
def service(tmp_path):
    with AnalysisService(make_config(tmp_path)) as svc:
        yield svc


@pytest.fixture
def client(service):
    return ServiceClient(service.url)


def http_exchange(url, method, path, body=None, headers=None):
    """One raw request; returns ``(status, headers_dict, body_bytes)``."""
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(
        parts.hostname, parts.port, timeout=30)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def raw_exchange(url, request_bytes, timeout=30.0):
    """Send raw bytes, read to EOF; returns ``(head_bytes, body_bytes)``."""
    parts = urlsplit(url)
    with socket.create_connection(
            (parts.hostname, parts.port), timeout=timeout) as sock:
        sock.sendall(request_bytes)
        blob = b""
        while True:
            data = sock.recv(65536)
            if not data:
                break
            blob += data
    head, _, body = blob.partition(b"\r\n\r\n")
    return head, body


# ---------------------------------------------------------------------------
# priority lanes in the job store
# ---------------------------------------------------------------------------

class TestPriorityLanes:
    def test_interactive_lane_claims_first(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            batch = store.submit([("a", "x")], ["ccd"])
            urgent = store.submit([("b", "y")], ["ccd"], priority="interactive")
            assert store.claim_next().job_id == urgent.job_id
            assert store.claim_next().job_id == batch.job_id

    def test_fifo_within_each_lane(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            interactive = [store.submit([("a", "x")], ["ccd"],
                                        priority="interactive").job_id
                           for _ in range(3)]
            batch = [store.submit([("a", "x")], ["ccd"]).job_id
                     for _ in range(3)]
            claimed = [store.claim_next().job_id for _ in range(6)]
            assert [j for j in claimed if j in interactive] == interactive
            assert [j for j in claimed if j in batch] == batch

    def test_all_batch_queue_is_strict_fifo(self, tmp_path):
        # jobs submitted without a priority behave like the pre-lane store
        with JobStore(tmp_path / "jobs.sqlite") as store:
            ids = [store.submit([("a", "x")], ["ccd"]).job_id
                   for _ in range(5)]
            assert [store.claim_next().job_id for _ in range(5)] == ids

    def test_aging_credit_prevents_batch_starvation(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite", batch_aging=2) as store:
            batch = store.submit([("a", "x")], ["ccd"]).job_id
            for _ in range(4):
                store.submit([("b", "y")], ["ccd"], priority="interactive")
            # claims: interactive, interactive, then the aged batch job
            lanes = [store.claim_next().priority for _ in range(3)]
            assert lanes == ["interactive", "interactive", "batch"]
            assert store.get(batch).state == "running"

    def test_no_starvation_under_steady_interactive_stream(self, tmp_path):
        # property: while interactive jobs keep arriving, a waiting batch
        # job is passed over by at most batch_aging consecutive claims
        import random

        rng = random.Random(42)
        aging = 3
        with JobStore(tmp_path / "jobs.sqlite", batch_aging=aging) as store:
            store.submit([("seed", "x")], ["ccd"], priority="interactive")
            batch_waits = {}
            claim_log = []
            for step in range(60):
                if rng.random() < 0.7:
                    store.submit([("i", "x")], ["ccd"], priority="interactive")
                if rng.random() < 0.25:
                    job = store.submit([("b", "y")], ["ccd"])
                    batch_waits[job.job_id] = 0
                claimed = store.claim_next()
                if claimed is None:
                    continue
                claim_log.append(claimed.priority)
                if claimed.priority == "batch":
                    batch_waits.pop(claimed.job_id, None)
                else:
                    for job_id in batch_waits:
                        batch_waits[job_id] += 1
            # no batch job still waiting was passed over beyond its credit
            assert all(waited <= aging for waited in batch_waits.values())
            # and batch jobs actually ran during the interactive stream
            assert "batch" in claim_log

    def test_interactive_streak_resets_after_batch_claim(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite", batch_aging=1) as store:
            for _ in range(2):
                store.submit([("b", "y")], ["ccd"])
            for _ in range(4):
                store.submit([("i", "x")], ["ccd"], priority="interactive")
            lanes = [store.claim_next().priority for _ in range(6)]
            # with aging=1 the lanes alternate while both are populated
            assert lanes == ["interactive", "batch", "interactive", "batch",
                             "interactive", "interactive"]

    def test_invalid_priority_rejected(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            with pytest.raises(ValueError, match="priority"):
                store.submit([("a", "x")], ["ccd"], priority="urgent")
        with pytest.raises(ValueError, match="batch_aging"):
            JobStore(tmp_path / "other.sqlite", batch_aging=0)

    def test_states_bulk_lookup(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            first = store.submit([("a", "x")], ["ccd"]).job_id
            second = store.submit([("b", "y")], ["ccd"]).job_id
            store.claim_next()
            assert store.states([first, second, 999]) == {
                first: "running", second: "queued"}
            assert store.states([]) == {}


# ---------------------------------------------------------------------------
# schema migration: pre-priority databases
# ---------------------------------------------------------------------------

class TestPrePriorityMigration:
    #: the jobs schema as PR 7 wrote it — fanout, but no priority/tenant
    PRE_PRIORITY_SCHEMA = """
        CREATE TABLE jobs (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            state TEXT NOT NULL DEFAULT 'queued',
            analyses TEXT NOT NULL, corpus TEXT NOT NULL,
            options TEXT NOT NULL DEFAULT '{}', error TEXT,
            submitted REAL NOT NULL, started REAL, finished REAL,
            fanout TEXT);
        CREATE INDEX jobs_by_state ON jobs (state, id);
        CREATE TABLE job_results (
            job_id INTEGER NOT NULL, seq INTEGER NOT NULL,
            envelope TEXT NOT NULL, PRIMARY KEY (job_id, seq));
    """

    def make_pre_priority_db(self, path):
        import sqlite3

        connection = sqlite3.connect(str(path))
        connection.executescript(self.PRE_PRIORITY_SCHEMA)
        connection.execute(
            "INSERT INTO jobs (state, analyses, corpus, options, submitted) "
            "VALUES ('queued', '[\"ccd\"]', '[[\"q\", \"x = 1\"]]', '{}', 1.0)")
        connection.execute(
            "INSERT INTO jobs (state, analyses, corpus, options, submitted, "
            "started, fanout) VALUES ('running', '[\"ccd\"]', "
            "'[[\"r\", \"y = 2\"]]', '{}', 2.0, 2.5, "
            "'{\"shards\": {\"shard-0\": 3}, \"degraded\": []}')")
        connection.commit()
        connection.close()

    def test_pre_priority_database_opens_and_defaults_to_batch(self, tmp_path):
        path = tmp_path / "jobs.sqlite"
        self.make_pre_priority_db(path)
        with JobStore(path) as store:
            old = store.get(1)
            assert old.state == "queued"
            assert old.priority == "batch" and old.tenant is None
            assert old.as_dict()["priority"] == "batch"
            assert "tenant" not in old.as_dict()
            # new submissions coexist with migrated rows, lanes work
            new = store.submit([("n", "z")], ["ccd"], priority="interactive",
                               tenant="team-a")
            assert store.claim_next().job_id == new.job_id
            assert store.get(new.job_id).tenant == "team-a"

    def test_recover_still_clears_fanout_after_migration(self, tmp_path):
        path = tmp_path / "jobs.sqlite"
        self.make_pre_priority_db(path)
        with JobStore(path) as store:
            assert store.get(2).fanout == {"shards": {"shard-0": 3},
                                           "degraded": []}
            assert store.recover() == 1
            recovered = store.get(2)
            assert recovered.state == "queued"
            assert recovered.fanout is None
            assert recovered.priority == "batch"

    def test_migrated_rows_keep_their_fifo_position(self, tmp_path):
        path = tmp_path / "jobs.sqlite"
        self.make_pre_priority_db(path)
        with JobStore(path) as store:
            store.recover()
            later = store.submit([("n", "z")], ["ccd"])
            claimed = [store.claim_next().job_id for _ in range(3)]
            assert claimed == [1, 2, later.job_id]


# ---------------------------------------------------------------------------
# pagination and filtering (server-side)
# ---------------------------------------------------------------------------

class TestJobsPagination:
    def test_limit_offset_and_total(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            ids = [store.submit([("a", "x")], ["ccd"]).job_id
                   for _ in range(7)]
            page = store.list_jobs(limit=3)
            assert [job.job_id for job in page] == ids[::-1][:3]
            page = store.list_jobs(limit=3, offset=5)
            assert [job.job_id for job in page] == ids[::-1][5:7]
            assert store.count_jobs() == 7

    def test_tenant_and_state_filters(self, tmp_path):
        with JobStore(tmp_path / "jobs.sqlite") as store:
            mine = store.submit([("a", "x")], ["ccd"], tenant="team-a")
            store.submit([("b", "y")], ["ccd"], tenant="team-b")
            store.submit([("c", "z")], ["ccd"])
            assert [job.job_id for job in store.list_jobs(tenant="team-a")] \
                == [mine.job_id]
            assert store.count_jobs(tenant="team-b") == 1
            store.claim_next()  # FIFO: claims team-a's job
            assert store.count_jobs(state="running", tenant="team-a") == 1
            assert store.count_jobs(state="queued", tenant="team-a") == 0
            assert store.count_jobs(state="queued") == 2

    def test_http_paging_envelope(self, service, client):
        for index in range(5):
            client.submit([(f"s{index}", f"x = {index}")], analyses=["ccd"],
                          tenant="team-a" if index % 2 else None)
        page = client.jobs_page(limit=2, offset=1)
        assert page["limit"] == 2 and page["offset"] == 1
        assert page["total"] == 5 and len(page["jobs"]) == 2
        assert [job["id"] for job in page["jobs"]] == [4, 3]
        filtered = client.jobs_page(tenant="team-a")
        assert filtered["total"] == 2
        assert all(job["tenant"] == "team-a" for job in filtered["jobs"])

    def test_http_paging_validation(self, service):
        status, _, body = http_exchange(service.url, "GET", "/v1/jobs?limit=x")
        assert status == 400
        assert json.loads(body)["error"] == "'limit' must be an integer"
        status, _, body = http_exchange(service.url, "GET",
                                        "/v1/jobs?state=nope")
        assert status == 400
        assert json.loads(body)["error"] == \
            "'state' must be one of queued|running|done|failed|cancelled"


# ---------------------------------------------------------------------------
# the wire protocol: golden transcripts, error mapping, access log
# ---------------------------------------------------------------------------

@pytest.fixture
def lone_coordinator(tmp_path):
    """A coordinator whose only worker never comes up."""
    config = CoordinatorConfig(
        data_dir=str(tmp_path / "coordinator"), port=0,
        workers=(wire_transcript.free_port_url(),), connect_timeout=0.1)
    with ClusterCoordinator(config) as coordinator:
        yield coordinator


class TestWireTranscripts:
    @pytest.mark.parametrize("role", sorted(wire_transcript.SCENARIOS))
    def test_transcript_replays_byte_identically(self, role, tmp_path):
        expected = wire_transcript.load()[role]
        actual = wire_transcript.SCENARIOS[role](tmp_path)
        assert [entry["request"] for entry in actual] == \
            [entry["request"] for entry in expected]
        for got, want in zip(actual, expected):
            assert got == want, want["request"]

    def test_error_matrix_is_part_of_both_transcripts(self):
        for exchanges in wire_transcript.load().values():
            requests = {entry["request"] for entry in exchanges}
            for method, path, _body in wire_transcript.ERROR_MATRIX:
                assert f"{method} {path}" in requests

    def test_mask_hides_clock_values_and_ports(self):
        text = ('{"submitted": 1.5, "started": null, '
                '"created_at": "2026-01-01T00:00:00Z", '
                '"url": "http://127.0.0.1:4242", "eta": 3e-05}')
        assert wire_transcript.mask(text) == (
            '{"submitted": "<masked>", "started": null, '
            '"created_at": "<masked>", '
            '"url": "http://127.0.0.1:<port>", "eta": "<masked>"}')


def boom(*args, **kwargs):
    raise RuntimeError("boom")


class TestErrorMapping:
    def test_worker_unexpected_error_is_json_500(self, service, monkeypatch):
        monkeypatch.setattr(service, "stats", boom)
        status, headers, body = http_exchange(service.url, "GET", "/v1/stats")
        assert status == 500
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body) == {"error": "internal error: RuntimeError: boom"}
        # the daemon keeps serving
        assert http_exchange(service.url, "GET", "/v1/healthz")[0] == 200

    def test_coordinator_unexpected_error_is_json_500(self, lone_coordinator,
                                                      monkeypatch):
        monkeypatch.setattr(lone_coordinator, "corpus", boom)
        status, _, body = http_exchange(lone_coordinator.url, "GET",
                                        "/v1/corpus")
        assert status == 500
        assert json.loads(body) == {"error": "internal error: RuntimeError: boom"}
        assert http_exchange(lone_coordinator.url, "GET", "/v1/jobs")[0] == 200

    def test_service_error_is_502_on_every_coordinator_post_route(
            self, lone_coordinator, monkeypatch):
        coordinator = lone_coordinator

        def unreachable(*args, **kwargs):
            raise ServiceError(503, "worker draining")

        with coordinator._work_lock.write():  # keep the fan-out idle
            job = coordinator.submit([("a", "x = 1")], ["ccd"])
            workload = coordinator.submit_workload(
                {"kind": "parameter_sweep",
                 "params": wire_transcript.SWEEP_PARAMS})
            for operation in ("submit", "ingest", "rebalance",
                              "submit_workload", "resume_workload",
                              "cancel_job", "register_query_spec"):
                monkeypatch.setattr(coordinator, operation, unreachable)
            posts = [pattern for method, pattern in COORDINATOR_ROUTES.endpoints
                     if method == "POST"]
            assert len(posts) == 7
            for pattern in posts:
                target = workload if "workloads" in pattern else job
                path = pattern.replace("{id}", str(target.job_id))
                status, _, body = http_exchange(
                    coordinator.url, "POST", path, b"{}")
                assert status == 502, path
                assert json.loads(body)["error"] == \
                    "shard unreachable: HTTP 503: worker draining"


class TestAccessLog:
    @staticmethod
    def log_lines(capfd) -> list:
        return [line for line in capfd.readouterr().err.splitlines()
                if '"GET /' in line or '"POST /' in line]

    def test_worker_logs_one_line_per_request(self, tmp_path, capfd):
        with AnalysisService(make_config(tmp_path, log_requests=True)) as svc:
            http_exchange(svc.url, "GET", "/v1/healthz")
            http_exchange(svc.url, "POST", "/v1/nope", b"{}")
        lines = self.log_lines(capfd)
        assert len(lines) == 2
        assert '"GET /v1/healthz HTTP/1.1" 200' in lines[0]
        assert '"POST /v1/nope HTTP/1.1" 404' in lines[1]

    def test_coordinator_logs_one_line_per_request(self, tmp_path, capfd):
        config = CoordinatorConfig(
            data_dir=str(tmp_path / "coordinator"), port=0,
            workers=(wire_transcript.free_port_url(),), log_requests=True)
        with ClusterCoordinator(config) as coordinator:
            http_exchange(coordinator.url, "GET", "/v1/jobs?limit=1")
            http_exchange(coordinator.url, "POST", "/v1/jobs/x/cancel", b"{}")
        lines = self.log_lines(capfd)
        assert len(lines) == 2
        assert '"GET /v1/jobs?limit=1 HTTP/1.1" 200' in lines[0]
        assert '"POST /v1/jobs/x/cancel HTTP/1.1" 404' in lines[1]

    def test_quiet_by_default(self, service, capfd):
        http_exchange(service.url, "GET", "/v1/healthz")
        assert self.log_lines(capfd) == []


class TestTransport:
    def test_gateway_streams_jobs_before_they_finish(self, service, client,
                                                     corpora):
        _, snippets = corpora
        job = client.submit(snippets[:4], analyses=["ccd"])
        streamed = list(client.stream(job["id"]))  # no wait: follows the job
        assert len(streamed) == 4
        assert client.job(job["id"])["job"]["state"] == "done"

    def test_keepalive_reuses_one_connection(self, service, client):
        client.healthz()
        client.corpus()
        client.jobs()
        stats = client.stats()
        gateway = stats["gateway"]
        assert gateway["requests"] >= 4
        assert gateway["connections_opened"] == 1

    def test_http10_request_is_answered_and_closed(self, service):
        request = b"GET /v1/healthz HTTP/1.0\r\nHost: x\r\n\r\n"
        head, body = raw_exchange(service.url, request)
        assert b"200" in head.split(b"\r\n")[0]
        assert json.loads(body)["status"] == "ok"

    def test_malformed_request_line_is_400(self, service):
        head, body = raw_exchange(service.url, b"NONSENSE\r\n\r\n")
        assert b"400" in head.split(b"\r\n")[0]

    def test_unsupported_method_is_501(self, service):
        status, _, body = http_exchange(service.url, "DELETE", "/v1/jobs")
        assert status == 501
        assert "unsupported method" in json.loads(body)["error"]


# ---------------------------------------------------------------------------
# admission control: backpressure, quotas, isolation
# ---------------------------------------------------------------------------

def submit_raw(url, sources, analyses=("ccd",), tenant=None, priority=None,
               timeout=15.0):
    """One POST /v1/jobs via urllib; raises HTTPError with headers intact."""
    body = {"sources": [list(pair) for pair in sources],
            "analyses": list(analyses)}
    if priority is not None:
        body["priority"] = priority
    headers = {"Content-Type": "application/json"}
    if tenant is not None:
        headers["X-Repro-Tenant"] = tenant
    request = urllib.request.Request(
        url + "/v1/jobs", method="POST",
        data=json.dumps(body).encode("utf-8"), headers=headers)
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


class TestAdmissionControl:
    def test_full_queue_sheds_503_with_retry_after_never_hangs(self, tmp_path):
        config = make_config(tmp_path, max_pending_jobs=3)
        with AnalysisService(config) as service:
            # freeze the scheduler so submissions pile up deterministically
            with service._work_lock.write():
                responses = []
                error = None
                for index in range(8):
                    try:
                        responses.append(submit_raw(
                            service.url, [(f"s{index}", f"x = {index}")]))
                    except urllib.error.HTTPError as exc:
                        error = exc
                        break
                assert error is not None, "queue bound never enforced"
                assert error.code == 503
                assert int(error.headers["Retry-After"]) >= 1
                payload = json.loads(error.read())
                assert "job queue full" in payload["error"]
                # shedding, not hanging: the daemon still answers reads
                status, _, _ = http_exchange(service.url, "GET", "/v1/healthz")
                assert status == 200
            stats = ServiceClient(service.url).stats()
            assert stats["gateway"]["shed"]["queue_full"] >= 1

    def test_rate_limited_tenant_gets_429_others_unaffected(self, tmp_path):
        quotas = {"limited": {"rate": 0.5, "burst": 2}}
        config = make_config(tmp_path, tenant_quotas=quotas)
        with AnalysisService(config) as service:
            for index in range(2):  # the burst budget
                submit_raw(service.url, [(f"a{index}", f"x = {index}")],
                           tenant="limited")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                submit_raw(service.url, [("a2", "x = 2")], tenant="limited")
            assert excinfo.value.code == 429
            assert int(excinfo.value.headers["Retry-After"]) >= 1
            assert "limited" in json.loads(excinfo.value.read())["error"]
            # tenant isolation: an unlimited tenant submits right through
            accepted = submit_raw(service.url, [("b0", "y = 0")],
                                  tenant="other")
            assert accepted["job"]["state"] == "queued"
            stats = ServiceClient(service.url).stats()
            assert stats["gateway"]["shed"]["rate_limited"] == 1

    def test_inflight_quota_enforced_and_released(self, tmp_path):
        quotas = {"capped": {"max_inflight": 1}}
        config = make_config(tmp_path, tenant_quotas=quotas)
        with AnalysisService(config) as service:
            client = ServiceClient(service.url)
            with service._work_lock.write():
                first = submit_raw(service.url, [("a", "x = 1")],
                                   tenant="capped")
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    submit_raw(service.url, [("b", "y = 2")], tenant="capped")
                assert excinfo.value.code == 429
                assert "in flight" in json.loads(excinfo.value.read())["error"]
                # another tenant's budget is its own
                submit_raw(service.url, [("c", "z = 3")], tenant="free")
            client.wait(first["job"]["id"])
            # the finished job no longer counts against the quota
            again = submit_raw(service.url, [("d", "w = 4")], tenant="capped")
            assert again["job"]["state"] == "queued"

    def test_default_quota_applies_to_unlabelled_requests(self, tmp_path):
        quotas = {"default": {"rate": 0.5, "burst": 1}}
        config = make_config(tmp_path, tenant_quotas=quotas)
        with AnalysisService(config) as service:
            submit_raw(service.url, [("a", "x = 1")])  # no tenant header
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                submit_raw(service.url, [("b", "y = 2")])
            assert excinfo.value.code == 429

    def test_connection_cap_sheds_immediately(self, tmp_path):
        config = make_config(tmp_path, max_connections=1)
        with AnalysisService(config) as service:
            parts = urlsplit(service.url)
            with socket.create_connection(
                    (parts.hostname, parts.port), timeout=10) as first:
                first.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                assert b"200" in first.recv(65536)  # connection 1 is live
                # connection 2 is shed before sending a single byte
                with socket.create_connection(
                        (parts.hostname, parts.port), timeout=10) as second:
                    blob = b""
                    while True:
                        data = second.recv(65536)
                        if not data:
                            break
                        blob += data
                    assert b"503" in blob.split(b"\r\n")[0]
                    assert b"Retry-After" in blob
                    assert b"too many open connections" in blob

    def test_accept_queue_holds_a_burst_while_the_loop_is_busy(self, tmp_path):
        """Connections made while the loop is parked wait in the kernel.

        The listen backlog is ``max_connections``: with asyncio's default
        of 100, connects past the 101st were dropped until the loop ran
        again, so a burst lost connections the gateway would have
        answered (or shed with an explicit 503).
        """
        import selectors
        import time

        with AnalysisService(make_config(tmp_path)) as service:
            parts = urlsplit(service.url)
            parked = threading.Event()

            def park():
                parked.set()
                time.sleep(3.0)

            service._gateway._loop.call_soon_threadsafe(park)
            assert parked.wait(10)
            selector = selectors.DefaultSelector()
            sockets = []
            try:
                for _ in range(300):
                    sock = socket.socket()
                    sock.setblocking(False)
                    sock.connect_ex((parts.hostname, parts.port))
                    sockets.append(sock)
                    selector.register(sock, selectors.EVENT_WRITE)
                handshakes = 0
                deadline = time.monotonic() + 1.5
                while handshakes < len(sockets):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    for key, _ in selector.select(remaining):
                        selector.unregister(key.fileobj)
                        if key.fileobj.getsockopt(
                                socket.SOL_SOCKET, socket.SO_ERROR) == 0:
                            handshakes += 1
                assert handshakes == len(sockets)
            finally:
                selector.close()
                for sock in sockets:
                    sock.close()
            # once the loop runs again it takes every queued connection,
            # sees it closed and lets it go before the daemon stops
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                stats = service._gateway.gateway_stats()
                if (stats["connections_opened"] >= len(sockets)
                        and stats["open_connections"] == 0):
                    break
                time.sleep(0.05)
            assert stats["connections_opened"] >= len(sockets)
            assert stats["open_connections"] == 0

    def test_tenant_quota_file_round_trip(self, tmp_path):
        path = tmp_path / "quotas.json"
        path.write_text(json.dumps({
            "default": {"rate": 50, "burst": 100},
            "team-a": {"rate": 5, "max_inflight": 2}}), encoding="utf-8")
        quotas = load_tenant_quotas(path)
        assert quotas["team-a"] == TenantQuota(rate=5, burst=None,
                                               max_inflight=2)
        assert quotas["default"].burst == 100

    def test_tenant_quota_file_validation(self, tmp_path):
        bad = tmp_path / "quotas.json"
        bad.write_text("not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_tenant_quotas(bad)
        with pytest.raises(ValueError, match="unknown quota keys"):
            load_tenant_quotas({"t": {"rate": 1, "ceiling": 2}})
        with pytest.raises(ValueError, match="positive number"):
            load_tenant_quotas({"t": {"rate": -1}})
        with pytest.raises(ValueError, match="must be a table"):
            load_tenant_quotas({"t": 5})

    def test_toml_quota_file_parses_on_modern_python(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "quotas.toml"
        path.write_text('[team-a]\nrate = 5\nmax_inflight = 2\n',
                        encoding="utf-8")
        quotas = load_tenant_quotas(path)
        assert quotas["team-a"].max_inflight == 2


# ---------------------------------------------------------------------------
# request coalescing
# ---------------------------------------------------------------------------

class TestCoalescing:
    def test_key_ignores_tenant_but_not_content(self):
        base = {"sources": [["a", "x"]], "analyses": ["ccd"]}
        assert coalesce_key(dict(base)) == coalesce_key(dict(base))
        assert coalesce_key(base) != coalesce_key(
            {**base, "sources": [["a", "y"]]})
        assert coalesce_key(base) != coalesce_key(
            {**base, "priority": "interactive"})
        # an explicit batch priority equals the implicit default
        assert coalesce_key(base) == coalesce_key({**base, "priority": "batch"})

    def test_concurrent_identical_submissions_share_one_job(
            self, tmp_path, corpora):
        _, snippets = corpora
        sample = snippets[:3]
        with AnalysisService(make_config(tmp_path)) as service:
            with service._work_lock.write():  # hold the job in `running`
                results = []
                threads = [
                    threading.Thread(target=lambda i=i: results.append(
                        submit_raw(service.url, sample, tenant=f"t{i % 2}")))
                    for i in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            assert len(results) == 6
            job_ids = {entry["job"]["id"] for entry in results}
            assert len(job_ids) == 1  # one underlying execution
            coalesced = [entry for entry in results if entry.get("coalesced")]
            assert len(coalesced) == 5
            client = ServiceClient(service.url)
            job_id = job_ids.pop()
            client.wait(job_id)
            # every attached caller streams the byte-identical envelopes
            streams = [list(ServiceClient(service.url).stream(job_id, raw=True))
                       for _ in range(3)]
            assert streams[0] == streams[1] == streams[2]
            assert len(streams[0]) == len(sample)
            # exactly one execution happened, and /v1/stats says so
            stats = client.stats()
            assert stats["jobs_completed"] == 1
            assert stats["gateway"]["coalesce"]["hits"] == 5
            assert stats["gateway"]["coalesce"]["misses"] == 1

    def test_identical_resubmission_after_completion_runs_again(
            self, tmp_path, corpora):
        _, snippets = corpora
        with AnalysisService(make_config(tmp_path)) as service:
            client = ServiceClient(service.url)
            first = submit_raw(service.url, snippets[:1])
            client.wait(first["job"]["id"])
            second = submit_raw(service.url, snippets[:1])
            assert second["job"]["id"] != first["job"]["id"]
            assert "coalesced" not in second

    def test_coalescing_can_be_disabled(self, tmp_path, corpora):
        _, snippets = corpora
        with AnalysisService(make_config(tmp_path, coalesce=False)) as service:
            with service._work_lock.write():
                first = submit_raw(service.url, snippets[:1])
                second = submit_raw(service.url, snippets[:1])
            assert first["job"]["id"] != second["job"]["id"]
            stats = ServiceClient(service.url).stats()
            assert stats["gateway"]["coalesce"]["enabled"] is False
            assert stats["gateway"]["coalesce"]["hits"] == 0


# ---------------------------------------------------------------------------
# the gateway fronting a cluster coordinator
# ---------------------------------------------------------------------------

class TestCoordinatorGateway:
    @pytest.fixture
    def cluster(self, tmp_path):
        workers = []
        coordinator = None
        try:
            for index in range(2):
                worker = AnalysisService(make_config(
                    tmp_path, f"worker-{index}"))
                worker.start()
                workers.append(worker)
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

    def test_cluster_routes_served_and_results_merge(self, cluster, corpora):
        contracts, snippets = corpora
        coordinator, workers = cluster
        client = ServiceClient(coordinator.url, connect_timeout=5.0)
        routed = client.ingest(contracts)
        assert sum(routed["routed"].values()) == routed["ingested"]
        status = client.cluster()
        assert len(status["workers"]) == 2 and status["status"] == "ok"
        job = client.submit(snippets[:3], analyses=["ccd"],
                            priority="interactive", tenant="team-a")
        assert job["priority"] == "interactive"
        finished = client.wait(job["id"])
        assert len(finished["results"]) == 3
        assert finished["job"]["fanout"]["shards"]
        # the lane and tenant travel with the fanned-out sub-jobs
        for worker in workers:
            for sub in worker.jobstore.list_jobs():
                assert sub.priority == "interactive"
                assert sub.tenant == "team-a"

    def test_stats_count_a_completed_interactive_fanout(self, cluster,
                                                        corpora):
        _, snippets = corpora
        coordinator, _ = cluster
        client = ServiceClient(coordinator.url, connect_timeout=5.0)
        job = client.submit(snippets[:1], analyses=["ccc"],
                            priority="interactive")
        client.wait(job["id"])
        stats = client.stats()
        assert stats["jobs_completed"] == 1
        assert stats["jobs_failed"] == 0
        assert stats["jobs_by_lane"] == {"interactive": 1, "batch": 0}

    def test_stats_count_a_fanout_with_no_reachable_shard(
            self, lone_coordinator):
        client = ServiceClient(lone_coordinator.url)
        job = client.submit([["a", "contract A {}"]], analyses=["ccc"])
        with pytest.raises(JobFailedError, match="all shards unreachable"):
            client.wait(job["id"])
        stats = client.stats()
        assert stats["jobs_failed"] == 1
        assert stats["jobs_completed"] == 0

    def test_stream_endpoint_absent_on_coordinator(self, cluster):
        coordinator, _ = cluster
        status, _, body = http_exchange(coordinator.url, "GET",
                                        "/v1/jobs/1/stream")
        assert status == 404
        assert "no such endpoint" in json.loads(body)["error"]

    def test_coordinator_coalesces_identical_submissions(self, cluster,
                                                         corpora):
        _, snippets = corpora
        coordinator, _ = cluster
        with coordinator._work_lock.write():
            results = []
            threads = [
                threading.Thread(target=lambda: results.append(
                    submit_raw(coordinator.url, snippets[:2])))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len({entry["job"]["id"] for entry in results}) == 1
        assert sum(1 for entry in results if entry.get("coalesced")) == 3
        client = ServiceClient(coordinator.url, connect_timeout=5.0)
        finished = client.wait(results[0]["job"]["id"])
        assert len(finished["results"]) == 2


# ---------------------------------------------------------------------------
# client keep-alive semantics (satellite regression tests)
# ---------------------------------------------------------------------------

class TestClientKeepAlive:
    def test_pooled_connection_is_reused_across_requests(self, service):
        client = ServiceClient(service.url)
        client.healthz()
        first = client._local.connection
        client.corpus()
        assert client._local.connection is first
        assert first.sock is not None  # still open, still pooled

    def test_stale_get_is_retried_once_on_fresh_connection(self, service):
        client = ServiceClient(service.url)
        client.healthz()  # pool a live connection
        stale = client._local.connection
        original_request = stale.request
        calls = {"n": 0}

        def flaky_request(*args, **kwargs):
            calls["n"] += 1
            raise http.client.RemoteDisconnected("server dropped keep-alive")

        stale.request = flaky_request
        # the retry builds a brand-new connection, untouched by the patch
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert calls["n"] == 1
        assert client._local.connection is not stale

    def test_stale_post_is_not_retried(self, service):
        client = ServiceClient(service.url)
        client.healthz()
        stale = client._local.connection

        def flaky_request(*args, **kwargs):
            raise http.client.RemoteDisconnected("server dropped keep-alive")

        stale.request = flaky_request
        # a POST may already have executed server-side: never resent.
        # RemoteDisconnected is in the OSError family, so it propagates
        # as-is (callers already catch OSError for transport failures).
        with pytest.raises(http.client.RemoteDisconnected):
            client.submit([("a", "x = 1")], analyses=["ccd"])
        # but the client recovers on the next (fresh-connection) request
        assert client.healthz()["status"] == "ok"

    def test_fresh_connection_failure_is_not_retried(self, tmp_path):
        # a request failing on a NEVER-used connection propagates at once
        with AnalysisService(make_config(tmp_path, "short")) as service:
            url = service.url
        client = ServiceClient(url)  # daemon already stopped
        with pytest.raises((urllib.error.URLError, OSError)):
            client.healthz()

    def test_http_errors_are_never_retried(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as excinfo:
            client.job(12345)
        assert excinfo.value.status == 404
        before = client.stats()["gateway"]["requests"]
        with pytest.raises(ServiceError):
            client.job(12345)
        after = client.stats()["gateway"]["requests"]
        assert after - before == 2  # the 404 and the stats read — no retry
