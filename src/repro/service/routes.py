"""The ``/v1/*`` protocol as data: one route table per daemon role.

Every endpoint is a plain function ``handler(service, request) ->
Response``.  It sees the parsed :class:`Request` and the daemon it runs
against — an :class:`~repro.service.server.AnalysisService` worker or a
:class:`~repro.service.coordinator.ClusterCoordinator` — and returns a
status plus a JSON body, or, for the worker's stream endpoint, a
:class:`Stream` marker that the transport turns into chunked NDJSON.
Handlers know nothing of sockets: the transport
(:class:`~repro.service.gateway.AsyncGateway`) runs them in its executor
pool and writes their responses.

:data:`WORKER_ROUTES` and :data:`COORDINATOR_ROUTES` assemble the shared
entries with each role's extras (the stream route on workers, the
``cluster`` routes on the coordinator); ``server.ROUTES`` and
``coordinator.ROUTES`` are read off them.

One error mapping covers every route (:func:`error_response`):
validation errors are 400, unknown or malformed ids 404, an unreachable
shard (:class:`~repro.service.client.ServiceError` or :class:`OSError`)
502, and anything else a JSON 500.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional
from urllib.parse import parse_qs, urlsplit

from repro.service.client import ServiceError
from repro.service.jobstore import JOB_STATES, Job
from repro.service.workloads import (
    WorkloadError,
    workload_payload,
    workloads_listing_payload,
)


class ServiceValidationError(ValueError):
    """A request body failed validation (mapped to HTTP 400)."""


class NotFound(Exception):
    """No such endpoint, or no such job (mapped to HTTP 404)."""


class Request:
    """One parsed HTTP request, as a route handler sees it.

    Header names are lower-cased.  ``params`` holds the path segments a
    route's ``{id}`` placeholders matched.
    """

    def __init__(self, method: str, target: str,
                 headers: Optional[dict] = None, body: bytes = b""):
        url = urlsplit(target)
        self.method = method
        self.path = url.path
        self.parts = [part for part in url.path.split("/") if part]
        self.query = parse_qs(url.query, keep_blank_values=True)
        self.headers = headers or {}
        self.body = body
        self.params: tuple = ()

    @property
    def tenant(self) -> Optional[str]:
        """The ``X-Repro-Tenant`` label, if the client sent one."""
        return self.headers.get("x-repro-tenant")

    @cached_property
    def payload(self) -> dict:
        """The JSON object body; a malformed one raises a 400."""
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise ServiceValidationError(
                "request body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise ServiceValidationError("request body must be a JSON object")
        return payload


@dataclass(frozen=True)
class Stream:
    """Stream a job's envelopes until it ends or ``deadline`` passes.

    ``deadline`` is a :func:`time.monotonic` instant, or ``None`` to
    follow the job to its terminal state.
    """

    job_id: int
    deadline: Optional[float] = None


@dataclass(frozen=True)
class Response:
    """A route's answer: a status plus a JSON body, or a stream."""

    status: int
    body: Optional[dict] = None
    stream: Optional[Stream] = None
    #: extra ``(name, value)`` response headers
    headers: tuple = ()
    #: close the connection after answering
    close: bool = False


def error_response(error: Exception) -> Response:
    """The one exception-to-status mapping shared by every route."""
    if isinstance(error, NotFound):
        return Response(404, {"error": str(error)})
    if isinstance(error, (ServiceValidationError, WorkloadError)):
        return Response(400, {"error": str(error)})
    if isinstance(error, (ServiceError, OSError)):
        # a worker refused or died mid-routing: the cluster is the
        # broken dependency, so answer as a bad gateway
        return Response(502, {"error": f"shard unreachable: {error}"})
    traceback.print_exception(type(error), error, error.__traceback__)
    return Response(
        500, {"error": f"internal error: {type(error).__name__}: {error}"},
        close=True)


@dataclass(frozen=True)
class Route:
    """One ``(method, pattern)`` entry; ``{id}`` matches any one segment."""

    method: str
    pattern: str
    handler: Callable[[object, Request], Response]

    def match(self, request: Request) -> Optional[tuple]:
        """The placeholder segments when ``request`` hits this route."""
        parts = [part for part in self.pattern.split("/") if part]
        if request.method != self.method or len(parts) != len(request.parts):
            return None
        params = []
        for expected, actual in zip(parts, request.parts):
            if expected == "{id}":
                params.append(actual)
            elif expected != actual:
                return None
        return tuple(params)


class RouteTable:
    """Every route one daemon role serves, plus the dispatcher over them."""

    def __init__(self, routes):
        self._routes = tuple(routes)
        #: the sorted ``(method, pattern)`` pairs, checked against the docs
        self.endpoints = tuple(sorted(
            (route.method, route.pattern) for route in self._routes))

    def dispatch(self, service, request: Request) -> Response:
        """Answer one request; never raises."""
        if request.method not in ("GET", "POST"):
            return Response(
                501, {"error": f"unsupported method {request.method}"},
                close=True)
        try:
            if request.method == "POST":
                request.payload  # a malformed body is a 400 on every POST path
            for route in self._routes:
                params = route.match(request)
                if params is not None:
                    request.params = params
                    return route.handler(service, request)
            raise NotFound(
                f"no such endpoint: {request.method} {request.path}")
        except Exception as error:  # noqa: BLE001 — every error gets a JSON answer
            return error_response(error)


# -- payload builders ---------------------------------------------------------
def _query_int(query: dict, name: str, default: int) -> int:
    """Parse one integer query parameter (400 on garbage)."""
    raw = query.get(name, [str(default)])[0]
    try:
        return int(raw)
    except ValueError:
        raise ServiceValidationError(f"'{name}' must be an integer") from None


def jobs_listing_payload(jobstore, query: dict) -> dict:
    """The ``GET /v1/jobs`` body for one parsed query string.

    Supports pagination (``limit``/``offset``) and filtering
    (``state``/``tenant``); raises :class:`ServiceValidationError` on
    malformed parameters.
    """
    state = query.get("state", [None])[0]
    if state is not None and state not in JOB_STATES:
        raise ServiceValidationError(
            f"'state' must be one of {'|'.join(JOB_STATES)}")
    tenant = query.get("tenant", [None])[0]
    limit = _query_int(query, "limit", 100)
    offset = _query_int(query, "offset", 0)
    jobs = jobstore.list_jobs(state=state, limit=limit, offset=offset,
                              tenant=tenant)
    return {
        "jobs": [job.as_dict() for job in jobs],
        "total": jobstore.count_jobs(state=state, tenant=tenant),
        "limit": limit,
        "offset": offset,
    }


def job_status_payload(jobstore, job: Job, query: dict) -> dict:
    """The ``GET /v1/jobs/{id}`` body for one parsed query string.

    ``?results=0`` is the cheap status poll: clients following a long
    job should not re-download every envelope on every poll.
    """
    payload = {"job": job.as_dict(include_corpus="corpus" in query)}
    if query.get("results", ["1"])[0] not in ("0", "false", "none"):
        rows = jobstore.results(job.job_id)
        payload["results"] = [json.loads(envelope) for _seq, envelope in rows]
    return payload


# -- handlers -----------------------------------------------------------------
def _job(service, request: Request) -> Job:
    """The job the path's ``{id}`` names (404 when malformed or unknown)."""
    raw_id = request.params[0]
    try:
        job_id = int(raw_id)
    except ValueError:
        raise NotFound(f"malformed job id {raw_id!r}") from None
    job = service.jobstore.get(job_id)
    if job is None:
        raise NotFound(f"no job {job_id}")
    return job


def _workload(service, request: Request) -> Job:
    """The workload job the path's ``{id}`` names (404 otherwise)."""
    job = _job(service, request)
    if job.workload is None:
        raise NotFound(f"job {job.job_id} is not a workload")
    return job


def _submit_job(service, request: Request) -> Response:
    payload = request.payload
    job = service.submit(
        payload.get("sources"), payload.get("analyses"),
        payload.get("options"), priority=payload.get("priority"),
        tenant=request.tenant)
    return Response(202, {"job": job.as_dict()})


def _ingest(service, request: Request) -> Response:
    payload = request.payload
    return Response(200, service.ingest(
        payload.get("documents"), payload.get("remove", ())))


def _job_status(service, request: Request) -> Response:
    job = _job(service, request)
    return Response(200, job_status_payload(
        service.jobstore, job, request.query))


def _cancel_job(service, request: Request) -> Response:
    job = _job(service, request)
    return Response(200, {"id": job.job_id,
                          "state": service.cancel_job(job.job_id)})


def _workload_status(service, request: Request) -> Response:
    job = _workload(service, request)
    return Response(200, workload_payload(
        service.jobstore, job, include_chunks="chunks" in request.query))


def _submit_workload(service, request: Request) -> Response:
    job = service.submit_workload(request.payload, tenant=request.tenant)
    return Response(202, workload_payload(service.jobstore, job))


def _resume_workload(service, request: Request) -> Response:
    job = service.resume_workload(_workload(service, request).job_id)
    return Response(202, workload_payload(service.jobstore, job))


def _stream_job(service, request: Request) -> Response:
    """Chunked NDJSON: one canonical envelope per line, as they complete.

    The stream ends when the job reaches a terminal state, or after
    ``?timeout=seconds``.
    """
    job = _job(service, request)
    try:
        timeout = (float(request.query["timeout"][0])
                   if "timeout" in request.query else None)
    except ValueError:
        raise ServiceValidationError("'timeout' must be a number") from None
    deadline = time.monotonic() + timeout if timeout is not None else None
    return Response(200, stream=Stream(job.job_id, deadline))


def _ok(operation: str) -> Callable:
    """A handler answering 200 with the service's ``operation()`` payload."""
    return lambda service, request: Response(
        200, getattr(service, operation)())


#: the routes both roles serve
SHARED_ROUTES = (
    Route("GET", "/v1/healthz", _ok("health")),
    Route("GET", "/v1/stats", _ok("stats")),
    Route("GET", "/v1/corpus", _ok("corpus")),
    Route("GET", "/v1/jobs", lambda service, request: Response(
        200, jobs_listing_payload(service.jobstore, request.query))),
    Route("GET", "/v1/jobs/{id}", _job_status),
    Route("POST", "/v1/jobs", _submit_job),
    Route("POST", "/v1/corpus", _ingest),
    # the workload engine: cancel, workloads, custom queries
    Route("POST", "/v1/jobs/{id}/cancel", _cancel_job),
    Route("GET", "/v1/workloads", lambda service, request: Response(
        200, workloads_listing_payload(service.jobstore, request.query))),
    Route("GET", "/v1/workloads/{id}", _workload_status),
    Route("POST", "/v1/workloads", _submit_workload),
    Route("POST", "/v1/workloads/{id}/resume", _resume_workload),
    Route("GET", "/v1/queries", _ok("queries_payload")),
    Route("POST", "/v1/queries", lambda service, request: Response(
        201, service.register_query_spec(request.payload))),
)

#: a single-node worker daemon: the shared routes plus result streaming
WORKER_ROUTES = RouteTable(SHARED_ROUTES + (
    Route("GET", "/v1/jobs/{id}/stream", _stream_job),
))

#: the cluster coordinator: the shared routes plus topology and rebalance
COORDINATOR_ROUTES = RouteTable(SHARED_ROUTES + (
    Route("GET", "/v1/cluster", _ok("cluster_status")),
    Route("POST", "/v1/cluster/rebalance", _ok("rebalance")),
))


__all__ = [
    "COORDINATOR_ROUTES",
    "NotFound",
    "Request",
    "Response",
    "Route",
    "RouteTable",
    "ServiceValidationError",
    "Stream",
    "WORKER_ROUTES",
    "error_response",
    "job_status_payload",
    "jobs_listing_payload",
]
