"""Service daemon throughput — cold vs. resident, plus a 1k-client load.

Benchmarks the analysis service (``repro.service``) end to end over real
HTTP on a loopback port, comparing the serving regimes the daemon
exists to separate:

* **cold** — every job pays the batch-world warm-up: a fresh service
  (empty artifact store, empty index), the corpus ingested, then the
  query job.  This is what each ``repro analyze`` invocation costs.
* **resident** — one long-lived daemon with the corpus ingested once;
  jobs hit the warm parse-once store and the already-loaded index.
* **frontend load** — ``BENCH_SERVICE_CLIENTS`` concurrent clients
  (default 1000) hammer ``POST /v1/jobs`` through ``tools/loadgen.py``.
  The asyncio transport sheds past ``max_pending_jobs`` with 503 +
  Retry-After.  The asserted invariant is *no hangs*: under overload the
  daemon answers every request (accept or shed), never stalls one.

The terminal summary reports jobs/sec and client-observed p50/p95/p99
latency for every mode, plus the resident speedup.  The assertion is
parity: both index regimes produce byte-identical canonical envelopes.
"""

import os
import statistics
import sys
import time
from pathlib import Path

import pytest

from repro.api import canonical_json
from repro.datasets.sanctuary import generate_sanctuary
from repro.datasets.snippets import generate_qa_corpus
from repro.service import AnalysisService, ServiceClient, ServiceConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import loadgen  # noqa: E402  (stdlib-only helper, lives in tools/)

#: sequential submit+wait cycles sampled for the latency percentiles
LATENCY_SAMPLES = 12

#: concurrent clients of the frontend-load comparison (ISSUE floor: 1k)
FRONTEND_CLIENTS = int(os.environ.get("BENCH_SERVICE_CLIENTS", "1000"))

#: submissions each simulated client issues
FRONTEND_REQUESTS = int(os.environ.get("BENCH_SERVICE_REQUESTS", "2"))


@pytest.fixture(scope="module")
def service_corpora():
    qa_corpus = generate_qa_corpus(
        seed=3, posts_per_site={"stackoverflow": 8, "ethereum.stackexchange": 20})
    sanctuary = generate_sanctuary(qa_corpus, seed=11, independent_contracts=8)
    contracts = [(contract.address, contract.source)
                 for contract in sanctuary.contracts]
    snippets = [(snippet.snippet_id, snippet.text)
                for post in qa_corpus.posts for snippet in post.snippets][:12]
    return contracts, snippets


def _service_config(tmp_path, name):
    return ServiceConfig(data_dir=str(tmp_path / name), port=0, backend="serial")


def _run_jobs(client, snippets):
    """Submit one ccd+ccc job per snippet and wait for all, FIFO."""
    latencies = []
    results = []
    for pair in snippets:
        started = time.perf_counter()
        job = client.submit([pair], analyses=["ccd", "ccc"])
        finished = client.wait(job["id"], timeout=120.0)
        latencies.append(time.perf_counter() - started)
        results.extend(canonical_json(envelope)
                       for envelope in finished["results"])
    return latencies, results


def _percentile(latencies, fraction):
    return sorted(latencies)[max(0, int(len(latencies) * fraction) - 1)]


def _register(registry, mode, wall, latencies, jobs, **extra):
    registry[mode] = {
        "jobs_per_sec": jobs / wall,
        "p50": statistics.median(latencies),
        "p95": _percentile(latencies, 0.95),
        "p99": _percentile(latencies, 0.99),
        "jobs": jobs,
        **extra,
    }


#: canonical envelopes per mode, asserted identical between the rows
_MODE_RESULTS: dict = {}


def test_service_cold_serving(benchmark, service_corpora, tmp_path_factory,
                              service_latency_registry):
    contracts, snippets = service_corpora
    sample = snippets[:LATENCY_SAMPLES]
    tmp_path = tmp_path_factory.mktemp("svc-cold")
    counter = iter(range(1_000_000))

    def cold_run():
        # a brand-new daemon per run: cold store, cold index, full ingest
        config = _service_config(tmp_path, f"run-{next(counter)}")
        with AnalysisService(config) as service:
            client = ServiceClient(service.url)
            client.ingest(contracts)
            return _run_jobs(client, sample)

    started = time.perf_counter()
    latencies, results = benchmark.pedantic(cold_run, rounds=1, iterations=1)
    wall = time.perf_counter() - started
    _register(service_latency_registry, "cold", wall, latencies, len(sample))
    _MODE_RESULTS["cold"] = results
    assert len(results) == 2 * len(sample)


def test_service_resident_serving(benchmark, service_corpora, tmp_path_factory,
                                  service_latency_registry):
    contracts, snippets = service_corpora
    sample = snippets[:LATENCY_SAMPLES]
    tmp_path = tmp_path_factory.mktemp("svc-resident")
    with AnalysisService(_service_config(tmp_path, "daemon")) as service:
        client = ServiceClient(service.url)
        client.ingest(contracts)  # paid once, outside the benchmark
        _run_jobs(client, sample[:2])  # warm the artifact store

        def resident_run():
            return _run_jobs(client, sample)

        started = time.perf_counter()
        latencies, results = benchmark.pedantic(
            resident_run, rounds=1, iterations=1)
        wall = time.perf_counter() - started
        stats = client.stats()
    _register(service_latency_registry, "resident", wall, latencies, len(sample))
    _MODE_RESULTS["resident"] = results
    assert len(results) == 2 * len(sample)
    assert stats["index"]["documents"] == len(contracts)
    # the regimes must be indistinguishable in their (canonical) results
    if "cold" in _MODE_RESULTS:
        assert _MODE_RESULTS["cold"] == results


def test_service_frontend_load(benchmark, tmp_path_factory,
                               service_latency_registry):
    """Submission throughput at FRONTEND_CLIENTS concurrent clients.

    A closed-loop burst against a bounded pending-job queue: the excess
    is shed with 503 + Retry-After.  The hard requirement under overload
    is *answer, never hang*.
    """
    tmp_path = tmp_path_factory.mktemp("svc-load")
    config = ServiceConfig(
        data_dir=str(tmp_path / "daemon"), port=0, backend="serial",
        max_connections=FRONTEND_CLIENTS + 64)
    with AnalysisService(config) as service:

        def load_run():
            return loadgen.run_load(
                service.url, clients=FRONTEND_CLIENTS,
                requests_per_client=FRONTEND_REQUESTS,
                tenant_weights=[("alpha", 3), ("beta", 1)],
                interactive_fraction=0.25, timeout=60.0)

        result = benchmark.pedantic(load_run, rounds=1, iterations=1)
    mode = f"asyncio@{FRONTEND_CLIENTS}c"
    _register(service_latency_registry, mode, result.wall,
              result.latencies or [0.0], result.accepted,
              requests=result.requests, shed=result.shed,
              errors=result.errors, hung=result.hung,
              clients=FRONTEND_CLIENTS)
    # overload must degrade by shedding, never by hanging: every request
    # got an HTTP answer, 202 accepted or 429/503 shed
    assert result.hung == 0
    assert result.errors == 0
    assert result.requests == FRONTEND_CLIENTS * FRONTEND_REQUESTS
    assert result.accepted + result.shed == result.requests
