"""The asyncio transport: the one HTTP front end of both daemon roles.

:class:`AsyncGateway` serves a :class:`~repro.service.routes.RouteTable`
— the worker's or the coordinator's — over hand-rolled HTTP/1.1 on
:func:`asyncio.start_server` (stdlib only), with keep-alive and chunked
NDJSON streaming.  It does transport work only: parsing request heads,
keeping connections alive, writing the table's responses, and running
the chunked stream loop.  Route handlers are blocking service
operations (SQLite reads, job submission, corpus ingest); they run in
the loop's default thread-pool executor, while the stream loop stays on
the event loop, so a thousand idle streaming connections cost
coroutines, not threads.

Around ``POST /v1/jobs`` the gateway adds an **admission-control
layer**, so the daemon sheds load instead of hanging:

* a **connection cap** (``--max-connections``): excess connections get
  an immediate ``503`` and are closed;
* a **bounded pending-job queue** (``--max-pending-jobs``): submissions
  beyond it get ``503`` + ``Retry-After``;
* **per-tenant token buckets and in-flight quotas** keyed on the
  ``X-Repro-Tenant`` header (configured via ``--tenant-quotas``, a
  small TOML or JSON file; see :func:`load_tenant_quotas`): a tenant
  over its rate or in-flight budget gets ``429`` + ``Retry-After``
  while other tenants are untouched;
* **request coalescing**: concurrent identical submissions (same
  analyzer set, same canonicalized options/priority, same source
  content — hashed with :func:`coalesce_key`) attach to one underlying
  job, each caller receiving the byte-identical envelope stream of that
  single execution, with hit counts surfaced in ``/v1/stats``.

All admission bookkeeping lives on the event loop (single-threaded, no
locks).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.api.envelope import canonical_json
from repro.service.jobstore import DEFAULT_PRIORITY, TERMINAL_STATES
from repro.service.routes import (
    Request,
    Response,
    RouteTable,
    ServiceValidationError,
    Stream,
    error_response,
)
from repro.service.scheduler import POLL_INTERVAL

#: tenant label applied when a request carries no ``X-Repro-Tenant``
DEFAULT_TENANT = "default"

#: reason phrases of every status the gateway emits
_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    413: "Content Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits of one tenant; ``None`` fields are unlimited."""

    #: sustained job submissions per second (token-bucket refill rate)
    rate: Optional[float] = None
    #: burst capacity of the token bucket (defaults to ``rate``)
    burst: Optional[float] = None
    #: maximum queued+running jobs this tenant may have at once
    max_inflight: Optional[int] = None


#: the quota applied when neither the tenant nor ``default`` is configured
UNLIMITED_QUOTA = TenantQuota()

_QUOTA_KEYS = ("rate", "burst", "max_inflight")


def load_tenant_quotas(source: Union[str, Path, dict]) -> dict:
    """Parse a ``--tenant-quotas`` file into ``{tenant: TenantQuota}``.

    ``source`` is the path of a small TOML (``.toml``, Python 3.11+) or
    JSON file — or an already-parsed mapping — shaped like::

        {"default":  {"rate": 50, "burst": 100, "max_inflight": 32},
         "tenant-a": {"rate": 5,  "max_inflight": 2}}

    The ``default`` entry applies to every tenant without its own entry
    (including requests that send no ``X-Repro-Tenant`` header at all).
    Raises :class:`ValueError` on malformed files.
    """
    if isinstance(source, dict):
        raw = source
    else:
        path = Path(source)
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".toml":
            try:
                import tomllib
            except ImportError:
                raise ValueError(
                    f"{path}: TOML tenant-quota files need Python 3.11+ "
                    f"(tomllib); use the JSON form instead") from None
            raw = tomllib.loads(text)
        else:
            try:
                raw = json.loads(text)
            except ValueError as error:
                raise ValueError(f"{path}: not valid JSON: {error}") from None
    if not isinstance(raw, dict):
        raise ValueError(
            "tenant quotas must be a mapping of tenant name to quota table")
    quotas = {}
    for tenant, entry in raw.items():
        if not isinstance(entry, dict):
            raise ValueError(
                f"quota of tenant {tenant!r} must be a table, "
                f"not {type(entry).__name__}")
        unknown = sorted(set(entry) - set(_QUOTA_KEYS))
        if unknown:
            raise ValueError(
                f"unknown quota keys for tenant {tenant!r}: "
                f"{', '.join(unknown)} (known: {', '.join(_QUOTA_KEYS)})")
        for key in _QUOTA_KEYS:
            value = entry.get(key)
            if value is not None and (
                    not isinstance(value, (int, float))
                    or isinstance(value, bool) or value <= 0):
                raise ValueError(
                    f"quota {key!r} of tenant {tenant!r} must be a "
                    f"positive number")
        quotas[tenant] = TenantQuota(
            rate=entry.get("rate"),
            burst=entry.get("burst"),
            max_inflight=None if entry.get("max_inflight") is None
            else int(entry["max_inflight"]))
    return quotas


def coalesce_key(payload: dict) -> str:
    """The content hash under which identical submissions coalesce.

    Two ``POST /v1/jobs`` bodies coalesce exactly when their canonical
    JSON — analyzer set, options, priority lane, and the submitted
    source content itself — is identical.  Tenants deliberately do not
    participate: the underlying analysis is tenant-independent, so
    cross-tenant duplicates share one execution too (each tenant's
    *quota* is still charged at its own admission step).
    """
    material = canonical_json({
        "sources": payload.get("sources"),
        "analyses": payload.get("analyses"),
        "options": payload.get("options") or {},
        "priority": payload.get("priority") or DEFAULT_PRIORITY,
    })
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class _TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity."""

    def __init__(self, rate: float, burst: float):
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = time.monotonic()

    def acquire(self) -> float:
        """Take one token; returns 0.0, or seconds until one is available."""
        now = time.monotonic()
        self.tokens = min(self.burst,
                          self.tokens + (now - self.updated) * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


@dataclass(frozen=True)
class GatewayConfig:
    """Typed configuration of an :class:`AsyncGateway` front end."""

    host: str = "127.0.0.1"
    #: TCP port; ``0`` binds an ephemeral free port
    port: int = 0
    #: queued+running jobs beyond this are shed with 503 + Retry-After
    max_pending_jobs: int = 256
    #: open connections beyond this are shed with an immediate 503
    max_connections: int = 1024
    #: per-tenant admission limits (see :func:`load_tenant_quotas`)
    tenant_quotas: dict = field(default_factory=dict)
    #: coalesce concurrent identical job submissions
    coalesce: bool = True
    #: idle keep-alive connections are closed after this many seconds
    keepalive_timeout: float = 30.0
    #: request bodies beyond this are refused with 413
    max_body_bytes: int = 256 * 1024 * 1024
    #: request heads beyond this are refused with 431
    max_header_bytes: int = 65536
    #: ``Retry-After`` seconds suggested on a full pending-job queue
    retry_after: float = 1.0
    #: write one access-log line per request to stderr
    log_requests: bool = False

    @classmethod
    def from_service_config(cls, config) -> "GatewayConfig":
        """Build from a daemon's :class:`~repro.service.server.DaemonConfig`.

        Reads the shared daemon knobs: bind address, gateway bounds,
        quota-file path, coalescing, and access logging.
        """
        quotas = config.tenant_quotas
        if quotas and not (isinstance(quotas, dict) and all(
                isinstance(quota, TenantQuota) for quota in quotas.values())):
            # a file path, or a raw {"tenant": {"rate": ...}} mapping
            quotas = load_tenant_quotas(quotas)
        return cls(
            host=config.host,
            port=config.port,
            max_pending_jobs=config.max_pending_jobs,
            max_connections=config.max_connections,
            tenant_quotas=quotas or {},
            coalesce=config.coalesce,
            log_requests=config.log_requests,
        )


class AsyncGateway:
    """The asyncio HTTP front end of one daemon (see the module docstring).

    Parameters
    ----------
    service:
        The :class:`~repro.service.server.Daemon` the route handlers
        operate on: an ``AnalysisService`` or a ``ClusterCoordinator``.
    routes:
        That daemon role's route table.
    config:
        The gateway's own knobs; bind address and port included.

    The event loop runs in one dedicated daemon thread;
    :meth:`start` blocks until the socket is bound (so :attr:`port` is
    immediately authoritative) and :meth:`stop` joins the thread.
    """

    def __init__(self, service, routes: RouteTable,
                 config: Optional[GatewayConfig] = None):
        self.service = service
        self.routes = routes
        self.config = config if config is not None else GatewayConfig()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._admission_lock: Optional[asyncio.Lock] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._bound_port: Optional[int] = None
        self._tasks: set = set()
        self._open_connections = 0
        #: tenant -> token bucket (created on first submission)
        self._buckets: dict = {}
        #: tenant -> set of queued/running job ids (pruned via states())
        self._inflight: dict = {}
        #: coalesce_key -> job id of the live underlying job
        self._coalesce_index: dict = {}
        self._counters = {
            "connections_opened": 0,
            "requests": 0,
            "coalesce_hits": 0,
            "coalesce_misses": 0,
            "shed_connections": 0,
            "shed_queue_full": 0,
            "shed_rate_limited": 0,
            "shed_inflight": 0,
        }

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Bind the socket and start serving; blocks until bound (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-gateway", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join()
            self._thread = None
            self._startup_error = None
            raise error

    def stop(self) -> None:
        """Stop serving, cancel open handlers, join the loop (idempotent)."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join()
        self._thread = None
        self._loop = None

    @property
    def port(self) -> int:
        """The actually bound TCP port (resolves ``port=0`` requests)."""
        if self._bound_port is not None:
            return self._bound_port
        return self.config.port

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _serve(self) -> None:
        self._stop_event = asyncio.Event()
        self._admission_lock = asyncio.Lock()
        try:
            # an accept queue as deep as the connection cap: a burst waits
            # for the loop (or its explicit 503) instead of being reset
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port,
                limit=self.config.max_header_bytes,
                backlog=self.config.max_connections)
        except OSError as error:
            self._startup_error = error
            self._ready.set()
            return
        self._bound_port = self._server.sockets[0].getsockname()[1]
        self._ready.set()
        await self._stop_event.wait()
        self._server.close()
        await self._server.wait_closed()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    # -- connection handling --------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        self._counters["connections_opened"] += 1
        try:
            if self._open_connections >= self.config.max_connections:
                # shed before reading anything: an immediate, explicit 503
                # beats a connection parked in an invisible accept queue
                self._counters["shed_connections"] += 1
                await self._send(writer, Response(
                    503, {"error": "too many open connections"},
                    headers=_retry_after(self.config.retry_after)),
                    keep=False)
                return
            self._open_connections += 1
            try:
                await self._connection_loop(reader, writer)
            finally:
                self._open_connections -= 1
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass  # client hung up (or shutdown); nothing to answer
        except Exception:  # noqa: BLE001 — a crash must not kill the loop
            traceback.print_exc()
        finally:
            self._tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _connection_loop(self, reader, writer) -> None:
        """Serve requests on one connection until close or idle timeout."""
        while True:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"),
                    timeout=self.config.keepalive_timeout)
            except (asyncio.TimeoutError, TimeoutError,
                    asyncio.IncompleteReadError, ConnectionResetError):
                return  # idle keep-alive expired, or the client closed
            except asyncio.LimitOverrunError:
                await self._send(writer, Response(
                    431, {"error": "request head too large"}), keep=False)
                return
            if not await self._handle_request(head, reader, writer):
                return

    async def _handle_request(self, head: bytes, reader, writer) -> bool:
        """Read, answer and log one request; returns keep-alive?"""
        try:
            method, target, version, headers = _parse_request_head(head)
        except ValueError as error:
            await self._send(writer, Response(400, {"error": str(error)}),
                             keep=False)
            return False
        try:
            response = await self._answer(method, target, headers, reader)
        except Exception as error:  # noqa: BLE001 — fail the request, not the loop
            response = error_response(error)
        if response is None:
            return False  # the client hung up mid-body
        if self.config.log_requests:
            peer = writer.get_extra_info("peername") or ("-",)
            print(f'{peer[0]} - - [{time.strftime("%d/%b/%Y %H:%M:%S")}] '
                  f'"{method} {target} {version}" {response.status} -',
                  file=sys.stderr, flush=True)
        keep = (version == "HTTP/1.1" and not response.close
                and headers.get("connection", "").lower() != "close")
        if response.stream is not None:
            await self._stream(response.stream, writer, keep)
        else:
            await self._send(writer, response, keep)
        return keep

    async def _answer(self, method, target, headers,
                      reader) -> Optional[Response]:
        """Read the body and route the request; ``None`` if the client left."""
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            return Response(400, {"error": "malformed Content-Length"},
                            close=True)
        if length > self.config.max_body_bytes:
            return Response(413, {"error": "request body too large"},
                            close=True)
        try:
            body = await reader.readexactly(length) if length else b""
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        self._counters["requests"] += 1
        request = Request(method, target, headers, body)
        if method == "POST" and request.parts == ["v1", "jobs"]:
            return await self._submit(request)
        return await self._route(request)

    async def _call(self, func, *args):
        """Run one blocking service operation in the executor pool."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, lambda: func(*args))

    async def _route(self, request: Request) -> Response:
        """Answer one request from the route table, in the executor."""
        return await self._call(self.routes.dispatch, self.service, request)

    # -- admission-controlled submission --------------------------------------
    def _quota(self, tenant: str) -> TenantQuota:
        quotas = self.config.tenant_quotas
        quota = quotas.get(tenant)
        if quota is None:
            quota = quotas.get(DEFAULT_TENANT, UNLIMITED_QUOTA)
        return quota

    async def _prune_inflight(self, tenant: str) -> set:
        """Drop finished jobs from one tenant's in-flight set."""
        inflight = self._inflight.setdefault(tenant, set())
        if inflight:
            states = await self._call(self.service.jobstore.states,
                                      tuple(inflight))
            inflight.intersection_update(
                job_id for job_id, state in states.items()
                if state not in TERMINAL_STATES)
        return inflight

    async def _submit(self, request: Request) -> Response:
        """``POST /v1/jobs`` behind the full admission-control stack.

        Order of the checks: token bucket (cheapest, charges every
        attempt), then coalescing (a hit consumes no queue slot and no
        in-flight budget), then the global pending bound, then the
        tenant's in-flight quota, then the route table's submission.
        """
        try:
            payload = request.payload
        except ServiceValidationError:
            return await self._route(request)  # the table answers the 400
        tenant = request.tenant or DEFAULT_TENANT
        quota = self._quota(tenant)
        if quota.rate is not None:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                burst = quota.burst if quota.burst is not None else quota.rate
                bucket = self._buckets[tenant] = _TokenBucket(
                    quota.rate, burst)
            wait = bucket.acquire()
            if wait > 0.0:
                self._counters["shed_rate_limited"] += 1
                return Response(
                    429, {"error": f"tenant {tenant!r} exceeded its "
                                   f"submission rate ({quota.rate:g}/s)"},
                    headers=_retry_after(wait))
        # the remaining checks and the submission run under one lock, so
        # N concurrent identical submissions resolve to exactly one job:
        # the first creates it, the rest observe it in the coalesce index
        async with self._admission_lock:
            key = None
            if self.config.coalesce:
                key = coalesce_key(payload)
                attached = await self._attached_job(key)
                if attached is not None:
                    self._counters["coalesce_hits"] += 1
                    return Response(
                        202, {"job": attached.as_dict(), "coalesced": True})
            depth = await self._call(self.service.jobstore.queue_depth)
            if depth >= self.config.max_pending_jobs:
                self._counters["shed_queue_full"] += 1
                return Response(
                    503, {"error": f"job queue full ({depth} jobs pending)"},
                    headers=_retry_after(self.config.retry_after))
            if quota.max_inflight is not None:
                inflight = await self._prune_inflight(tenant)
                if len(inflight) >= quota.max_inflight:
                    self._counters["shed_inflight"] += 1
                    return Response(
                        429, {"error": f"tenant {tenant!r} has "
                                       f"{len(inflight)} jobs in flight "
                                       f"(limit {quota.max_inflight})"},
                        headers=_retry_after(self.config.retry_after))
            response = await self._route(request)
            if response.status != 202:
                return response
            job_id = response.body["job"]["id"]
            if key is not None:
                self._counters["coalesce_misses"] += 1
                self._coalesce_index[key] = job_id
                if len(self._coalesce_index) > 4 * self.config.max_pending_jobs:
                    await self._sweep_coalesce_index()
            if quota.max_inflight is not None:
                self._inflight.setdefault(tenant, set()).add(job_id)
        return response

    async def _attached_job(self, key: str):
        """The live job an identical submission attaches to, if any.

        Entries whose job finished (or vanished) are evicted lazily: a
        completed job's results are that execution's — a *new* identical
        submission after completion runs again, by design.
        """
        job_id = self._coalesce_index.get(key)
        if job_id is None:
            return None
        job = await self._call(self.service.jobstore.get, job_id)
        if job is None or job.state in TERMINAL_STATES:
            self._coalesce_index.pop(key, None)
            return None
        return job

    async def _sweep_coalesce_index(self) -> None:
        """Evict every finished job from the coalesce index in one query."""
        states = await self._call(self.service.jobstore.states,
                                  tuple(self._coalesce_index.values()))
        self._coalesce_index = {
            key: job_id for key, job_id in self._coalesce_index.items()
            if states.get(job_id) not in (*TERMINAL_STATES, None)}

    # -- responses ------------------------------------------------------------
    async def _stream(self, stream: Stream, writer, keep: bool) -> None:
        """Chunked NDJSON: each envelope line is one chunk.

        A chunk is ``%X\\r\\n<line>\\r\\n`` — the stored canonical JSON
        of the envelope plus a newline, so a streamed job compares byte
        for byte against a local batch run — and ``0\\r\\n\\r\\n`` ends
        the stream.
        """
        head = [b"HTTP/1.1 200 OK",
                b"Content-Type: application/x-ndjson",
                b"Transfer-Encoding: chunked"]
        if not keep:
            head.append(b"Connection: close")
        writer.write(b"\r\n".join(head) + b"\r\n\r\n")
        jobstore = self.service.jobstore
        last_seq = -1
        while True:
            # state before results: envelopes are appended before the job
            # finishes, so a terminal state observed here guarantees the
            # fetch below has the complete tail
            current = await self._call(jobstore.get, stream.job_id)
            for seq, envelope in await self._call(
                    jobstore.results, stream.job_id, last_seq):
                data = envelope.encode("utf-8") + b"\n"
                writer.write(b"%X\r\n" % len(data) + data + b"\r\n")
                last_seq = seq
            await writer.drain()
            if current is None or current.state in TERMINAL_STATES:
                break
            if (stream.deadline is not None
                    and time.monotonic() >= stream.deadline):
                break
            await asyncio.sleep(POLL_INTERVAL)
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    async def _send(self, writer, response: Response, keep: bool) -> None:
        """Write one JSON response."""
        body = json.dumps(response.body).encode("utf-8")
        lines = [f"HTTP/1.1 {response.status} "
                 f"{_REASONS.get(response.status, 'Unknown')}",
                 "Content-Type: application/json",
                 f"Content-Length: {len(body)}"]
        for name, value in response.headers:
            lines.append(f"{name}: {value}")
        if not keep:
            lines.append("Connection: close")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # -- introspection --------------------------------------------------------
    def gateway_stats(self) -> dict:
        """The ``gateway`` block of ``/v1/stats``.

        Called from executor threads while the loop runs, so the mutable
        maps are copied in one step before they are read.
        """
        counters = dict(self._counters)
        inflight = sorted(self._inflight.items())
        return {
            "open_connections": self._open_connections,
            "connections_opened": counters["connections_opened"],
            "requests": counters["requests"],
            "coalesce": {
                "enabled": self.config.coalesce,
                "hits": counters["coalesce_hits"],
                "misses": counters["coalesce_misses"],
                "tracked": len(self._coalesce_index),
            },
            "shed": {
                "connections": counters["shed_connections"],
                "queue_full": counters["shed_queue_full"],
                "rate_limited": counters["shed_rate_limited"],
                "inflight": counters["shed_inflight"],
            },
            "limits": {
                "max_pending_jobs": self.config.max_pending_jobs,
                "max_connections": self.config.max_connections,
                "tenants_configured": sorted(self.config.tenant_quotas),
            },
            "tenants": {
                tenant: {"inflight": len(ids)}
                for tenant, ids in inflight if ids
            },
        }


def _retry_after(seconds: float) -> tuple:
    """The ``Retry-After`` header: whole seconds, at least 1."""
    value = str(max(1, math.ceil(seconds))) if math.isfinite(seconds) else "60"
    return (("Retry-After", value),)


def _parse_request_head(head: bytes) -> tuple:
    """Parse a raw HTTP/1.x request head into (method, target, version, headers).

    Header names are lower-cased; values are stripped.  Raises
    :class:`ValueError` on anything malformed.
    """
    lines = head.decode("latin-1").split("\r\n")
    request_parts = lines[0].split(" ")
    if len(request_parts) != 3:
        raise ValueError(f"malformed request line {lines[0]!r}")
    method, target, version = request_parts
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise ValueError(f"unsupported protocol version {version!r}")
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method, target, version, headers


__all__ = [
    "AsyncGateway",
    "DEFAULT_TENANT",
    "GatewayConfig",
    "TenantQuota",
    "UNLIMITED_QUOTA",
    "coalesce_key",
    "load_tenant_quotas",
]
