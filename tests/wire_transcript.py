"""Golden wire transcripts of the ``/v1/*`` protocol, for both daemon roles.

A transcript is the exact answer to every request of a fixed scenario:
status, ``Content-Type`` and body bytes, including the chunk framing of
a streamed job.  Volatile values — timestamps, uptimes, durations and
bound ports — are masked, so two runs of the same scenario compare byte
for byte.  ``tests/data/wire_transcripts.json`` holds the reference
recording, made against the thread-per-connection HTTP server the
asyncio transport replaced; ``tests/test_service_gateway.py`` replays
both scenarios and compares them exchange by exchange.

Headers other than ``Content-Type`` are not part of the contract, and
neither is the body of an unsupported-method answer (only its status).

Re-record, when the wire protocol changes on purpose::

    PYTHONPATH=src python tests/wire_transcript.py
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import re
import socket
import sys
import tempfile
from pathlib import Path

from repro.ccc.registry import registered_queries, unregister_query
from repro.datasets.sanctuary import generate_sanctuary
from repro.datasets.snippets import generate_qa_corpus
from repro.pipeline.collection import SnippetCollector
from repro.service import (
    AnalysisService,
    ClusterCoordinator,
    CoordinatorConfig,
    ServiceClient,
    ServiceConfig,
)

#: the reference recording both scenarios are compared against
FIXTURE = Path(__file__).parent / "data" / "wire_transcripts.json"

#: wire fields whose values depend on the clock, masked before comparing
VOLATILE_FIELDS = (
    "submitted", "started", "finished", "created_at", "started_at",
    "finished_at", "duration_seconds", "elapsed_seconds", "uptime_seconds",
    "eta",
)

_VOLATILE_RE = re.compile(
    r'"(%s)": (?:"[^"]*"|-?[0-9][0-9.eE+-]*)' % "|".join(VOLATILE_FIELDS))
_PORT_RE = re.compile(r"127\.0\.0\.1:[0-9]+")

#: requests whose answers do not depend on daemon state
ERROR_MATRIX = [
    ("POST", "/v1/jobs", b"not json"),
    ("POST", "/v1/jobs", b"[1, 2]"),
    ("POST", "/v1/jobs", b'{"sources": [], "analyses": ["ccd"]}'),
    ("POST", "/v1/jobs",
     b'{"sources": [["a", "x"]], "analyses": ["nope"]}'),
    ("POST", "/v1/jobs",
     b'{"sources": [["a", "x"]], "analyses": ["ccd"], '
     b'"priority": "urgent"}'),
    ("GET", "/v1/nope", None),
    ("POST", "/v1/nope", b"{}"),
    ("GET", "/v1/jobs/not-a-number", None),
    ("GET", "/v1/jobs/999", None),
    ("GET", "/v1/jobs?limit=x", None),
    ("GET", "/v1/jobs?state=nope", None),
]

#: a small Figure-9 grid: four cells over a six-contract honeypot corpus
SWEEP_PARAMS = {
    "honeypot": {"seed": 7, "counts": {"balance_disorder": 2,
                                       "hidden_transfer": 2}},
    "ngram_sizes": [2, 3],
    "ngram_thresholds": [0.5],
    "similarity_thresholds": [0.6, 0.8],
}

#: a custom DSL query flagging every unguarded ether transfer
QUERY_SPEC = {
    "query_id": "custom-transcript-transfer",
    "category": "Access Control",
    "title": "Ether transfer reachable without access control",
    "select": "ether_transfers",
    "require": [],
    "exclude": ["access_controlled"],
}


def mask(text: str) -> str:
    """``text`` with every clock-dependent value and bound port masked."""
    text = _VOLATILE_RE.sub(lambda match: f'"{match.group(1)}": "<masked>"',
                            text)
    return _PORT_RE.sub("127.0.0.1:<port>", text)


def corpora():
    """The scenario's deterministic contracts and snippets."""
    qa_corpus = generate_qa_corpus(
        seed=3, posts_per_site={"stackoverflow": 4, "ethereum.stackexchange": 8})
    sanctuary = generate_sanctuary(qa_corpus, seed=11, independent_contracts=4)
    contracts = [[contract.address, contract.source]
                 for contract in sanctuary.contracts]
    snippets = [[snippet.snippet_id, snippet.text]
                for snippet in SnippetCollector().collect(qa_corpus).snippets]
    return contracts, snippets


class Recorder:
    """Sends scenario requests to one daemon and keeps the masked answers."""

    def __init__(self, exchanges: list, url: str):
        self.exchanges = exchanges
        host, port = url.rsplit("/", 1)[-1].split(":")
        self.address = (host, int(port))

    def __call__(self, method: str, path: str, body=None,
                 status_only: bool = False) -> dict:
        """One request; ``body`` is raw bytes or a JSON-encodable object."""
        if body is not None and not isinstance(body, bytes):
            body = json.dumps(body).encode("utf-8")
        connection = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            data = response.read()
            content_type = response.getheader("Content-Type")
            status = response.status
        finally:
            connection.close()
        return self._keep(method, path, status, content_type, data,
                          status_only)

    def stream(self, path: str) -> dict:
        """One GET read raw to EOF, so the chunk framing is kept verbatim."""
        request = (f"GET {path} HTTP/1.1\r\nHost: transcript\r\n"
                   f"Connection: close\r\n\r\n").encode("ascii")
        with socket.create_connection(self.address, timeout=60) as sock:
            sock.sendall(request)
            blob = b""
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                blob += data
        head, _, data = blob.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        headers = dict(line.split(": ", 1) for line in lines[1:])
        return self._keep("GET", path, status, headers.get("Content-Type"),
                          data, False)

    def _keep(self, method, path, status, content_type, data,
              status_only) -> dict:
        entry = {"request": f"{method} {path}", "status": status}
        if not status_only:
            entry["content_type"] = content_type
            entry["body"] = mask(data.decode("utf-8"))
        self.exchanges.append(entry)
        return entry


def free_port_url() -> str:
    """The URL of a local port nothing listens on (a dead worker)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


def _forget_new_queries(before: set) -> None:
    for query in list(registered_queries()):
        if query.query_id not in before:
            unregister_query(query.query_id)


def shared_requests(record: Recorder, url: str) -> None:
    """The requests both roles answer alike, sent to a fresh daemon at ``url``.

    They open both transcripts, and need nothing but the daemon's URL —
    so they replay against a ``repro serve`` subprocess as well.
    """
    contracts, snippets = corpora()
    record("GET", "/v1/healthz")
    for method, path, body in ERROR_MATRIX:
        record(method, path, body)
    record("DELETE", "/v1/jobs", status_only=True)
    record("POST", "/v1/corpus", {"documents": contracts})
    record("GET", "/v1/corpus")
    record("POST", "/v1/jobs",
           {"sources": snippets[:3], "analyses": ["ccd", "ccc"]})
    ServiceClient(url, connect_timeout=5.0).wait(1)
    record("GET", "/v1/jobs/1")
    record("GET", "/v1/jobs/1?results=0&corpus=1")
    record.stream("/v1/jobs/1/stream")
    record("GET", "/v1/jobs")
    record("GET", "/v1/jobs?state=done&limit=1&offset=0")
    record("POST", "/v1/jobs/1/cancel", {})
    record("POST", "/v1/jobs/99/cancel", {})
    record("POST", "/v1/jobs/x/cancel", {})
    record("GET", "/v1/queries")
    record("POST", "/v1/queries", {"query_id": "not-custom"})
    record("GET", "/v1/workloads")
    record("GET", "/v1/workloads?limit=x")
    record("GET", "/v1/workloads/1")
    record("GET", "/v1/workloads/x")
    record("POST", "/v1/workloads", {"kind": "nope"})
    record("POST", "/v1/workloads/1/resume", {})
    record("POST", "/v1/workloads/99/resume", {})


def worker_scenario(root: Path) -> list:
    """The single-node daemon's transcript."""
    contracts, snippets = corpora()
    exchanges: list = []
    before = {query.query_id for query in registered_queries()}
    config = ServiceConfig(data_dir=str(root / "worker"), port=0,
                           backend="serial")
    try:
        with AnalysisService(config) as service:
            record = Recorder(exchanges, service.url)
            shared_requests(record, service.url)
            record("GET", "/v1/jobs/1/stream?timeout=soon")
            record("GET", "/v1/jobs/99/stream")
            # hold the scheduler so the 202 shows the job before any chunk
            with service._work_lock.write():
                record("POST", "/v1/workloads",
                       {"kind": "parameter_sweep", "params": SWEEP_PARAMS})
            ServiceClient(service.url).wait_workload(2)
            record("GET", "/v1/workloads/2")
            record("GET", "/v1/workloads/2?chunks=1")
            record("GET", "/v1/workloads?state=done")
            record("POST", "/v1/workloads/2/resume", {})
            record("GET", "/v1/jobs/2")
            record("POST", "/v1/queries", QUERY_SPEC)
            record("GET", "/v1/queries")
            record("POST", "/v1/corpus",
                   {"documents": [{"id": contracts[0][0], "diff": "garbage",
                                   "base_version": "stale"}]})
            record("POST", "/v1/corpus", {"remove": [contracts[0][0]]})
            record("GET", "/v1/corpus")
    finally:
        _forget_new_queries(before)
    return exchanges


def coordinator_scenario(root: Path) -> list:
    """The cluster coordinator's transcript, over two in-process workers.

    The second half restarts the coordinator with a third worker that
    never comes up, so rebalance, routed ingest and query broadcast all
    meet an unreachable shard.
    """
    _, snippets = corpora()
    exchanges: list = []
    before = {query.query_id for query in registered_queries()}
    workers = []
    try:
        for index in range(2):
            worker = AnalysisService(ServiceConfig(
                data_dir=str(root / f"worker-{index}"), port=0,
                backend="serial"))
            worker.start()
            workers.append(worker)
        config = CoordinatorConfig(
            data_dir=str(root / "coordinator"), port=0,
            workers=tuple(worker.url for worker in workers),
            connect_timeout=5.0, shard_timeout=60.0)
        with ClusterCoordinator(config) as coordinator:
            record = Recorder(exchanges, coordinator.url)
            shared_requests(record, coordinator.url)
            record("GET", "/v1/cluster")
            record("POST", "/v1/cluster/rebalance", {})
        degraded = dataclasses.replace(
            config, workers=config.workers + (free_port_url(),),
            connect_timeout=0.2)
        with ClusterCoordinator(degraded) as coordinator:
            record = Recorder(exchanges, coordinator.url)
            record("GET", "/v1/cluster")
            record("POST", "/v1/cluster/rebalance", {})
            record("POST", "/v1/corpus", {"documents": snippets[:6]})
            record("POST", "/v1/queries", QUERY_SPEC)
            record("GET", "/v1/corpus")
    finally:
        for worker in workers:
            worker.stop()
        _forget_new_queries(before)
    return exchanges


SCENARIOS = {"worker": worker_scenario, "coordinator": coordinator_scenario}


def load() -> dict:
    """The reference recording: ``{role: [exchange, ...]}``."""
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def main() -> int:
    """Record both scenarios into :data:`FIXTURE`."""
    transcripts = {}
    for role, scenario in SCENARIOS.items():
        with tempfile.TemporaryDirectory() as tmp:
            transcripts[role] = scenario(Path(tmp))
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(transcripts, indent=1) + "\n",
                       encoding="utf-8")
    print(f"recorded {sum(map(len, transcripts.values()))} exchanges "
          f"into {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
