"""``repro.service`` — the analysis service daemon.

Everything below the service was built batch-first: the CLI, the study
pipeline, and :class:`~repro.api.session.AnalysisSession` all pay index
and parse warm-up per invocation and exit.  This package turns the same
substrate into a *servable system*: a long-lived daemon holding one warm
session (parse-once artifact store + executor pool) and one live CCD
index, fed by a persistent job queue, fronted by a stdlib HTTP API.

* :mod:`repro.service.jobstore` — SQLite-backed persistent job queue
  (``queued → running → done/failed``), crash-safe: a killed daemon
  requeues its in-flight jobs on restart, with no losses or duplicates,
* :mod:`repro.service.scheduler` — the one pool draining the queue of
  either role: it hands each claimed job to the daemon's ``run`` and
  finishes and counts it by the outcome,
* :mod:`repro.service.server` — the :class:`~repro.service.server.Daemon`
  core both roles share (job store, scheduler, gateway lifecycle,
  submission), and :class:`AnalysisService`, the worker daemon, whose
  ``run`` streams envelopes from the resident session into the store,
* :mod:`repro.service.routes` — the ``/v1/*`` protocol as one route
  table per role (``POST /v1/jobs``, ``GET /v1/jobs/{id}[/stream]``,
  ``POST /v1/corpus``, ``GET /v1/healthz``, ``GET /v1/stats``, ...),
* :mod:`repro.service.gateway` — :class:`AsyncGateway`, the asyncio
  HTTP transport serving either table, with admission control: bounded
  queues, per-tenant quotas, and content-hash request coalescing,
* :mod:`repro.service.client` — the small stdlib client (pooled
  keep-alive connections) used by ``repro submit`` / ``repro jobs``
  and the tests,
* :mod:`repro.service.hashring` — the deterministic consistent-hash
  ring partitioning corpus documents across shards,
* :mod:`repro.service.coordinator` — :class:`ClusterCoordinator`, the
  daemon core as the scatter-gather front of an N-worker cluster: its
  ``run`` fans each job out and merges responses byte-identical to a
  single-node daemon over the same corpus.

Start a daemon with ``repro serve --data-dir DIR`` (see ``docs/service.md``)
or in-process::

    from repro.service import AnalysisService, ServiceConfig

    with AnalysisService(ServiceConfig(data_dir="svc", port=0)) as service:
        print(service.url)

A cluster is the same daemons plus a coordinator::

    repro serve --role coordinator --workers URL1,URL2 --data-dir coord
"""

from repro.service.client import JobFailedError, ServiceClient, ServiceError
from repro.service.coordinator import ROUTES as COORDINATOR_ROUTES
from repro.service.coordinator import ClusterCoordinator, CoordinatorConfig
from repro.service.gateway import (
    AsyncGateway,
    GatewayConfig,
    TenantQuota,
    load_tenant_quotas,
)
from repro.service.hashring import HashRing
from repro.service.jobstore import JOB_STATES, PRIORITY_LANES, Job, JobStore
from repro.service.scheduler import Scheduler
from repro.service.server import (
    ROUTES,
    AnalysisService,
    ServiceConfig,
    ServiceValidationError,
)

__all__ = [
    "AnalysisService",
    "AsyncGateway",
    "COORDINATOR_ROUTES",
    "ClusterCoordinator",
    "CoordinatorConfig",
    "GatewayConfig",
    "HashRing",
    "JOB_STATES",
    "Job",
    "JobFailedError",
    "JobStore",
    "PRIORITY_LANES",
    "ROUTES",
    "Scheduler",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceValidationError",
    "TenantQuota",
    "load_tenant_quotas",
]
