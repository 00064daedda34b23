"""A small stdlib HTTP client for the analysis service daemon.

:class:`ServiceClient` speaks the daemon's JSON API over a pooled
keep-alive :class:`http.client.HTTPConnection` — submit jobs, poll or
stream results, ingest corpus documents, read health and stats.  It is
what ``repro submit`` / ``repro jobs`` use, what the tests drive the
daemon with, and a reference for talking to the service from any other
HTTP client::

    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8741")
    client.ingest([["0xabc...", contract_source]])
    job = client.submit([["q1", snippet]], analyses=["ccd", "ccc"])
    finished = client.wait(job["id"])
    for envelope in finished["results"]:
        print(envelope["analyzer"], envelope["contract_id"])

Connections are pooled **per thread** (the cluster coordinator shares
one client across its fan-out workers), reused across requests, and
quietly replaced when the daemon closes its side between requests: an
idempotent request that hits a stale pooled socket is retried exactly
once on a fresh connection; a non-idempotent ``POST`` is never retried.

Failures surface as :class:`ServiceError` carrying the HTTP status and
the daemon's ``error`` message; transport failures are raised in the
:class:`OSError` family (refused connections as
:class:`urllib.error.URLError`, matching the historical
``urllib.request`` behavior callers already handle).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
from typing import Iterator, Optional
from urllib.parse import quote, urlsplit

from repro.service.scheduler import POLL_INTERVAL


class ServiceError(RuntimeError):
    """An HTTP error from the daemon (status code + server message)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class JobFailedError(ServiceError):
    """A waited-on job finished in the ``failed`` state."""

    def __init__(self, job: dict):
        super().__init__(200, f"job {job.get('id')} failed: {job.get('error')}")
        self.job = job


class ServiceClient:
    """Talk to a running :class:`~repro.service.server.AnalysisService`.

    Parameters
    ----------
    base_url:
        E.g. ``http://127.0.0.1:8741`` (trailing slash tolerated).
    timeout:
        Per-request socket timeout in seconds.
    connect_timeout:
        For how many seconds a *connection-refused* failure is retried
        with bounded exponential backoff before being raised.  The
        default ``0.0`` fails immediately (a dead daemon stays a fast,
        loud error); the cluster coordinator and the test harness set a
        budget so requests racing a daemon's startup (or a worker's
        restart) wait instead of flaking.
    """

    #: first backoff sleep after a refused connection, in seconds
    RETRY_INITIAL_DELAY = 0.05
    #: backoff sleeps never exceed this, keeping retries responsive
    RETRY_MAX_DELAY = 1.0

    def __init__(self, base_url: str, timeout: float = 60.0,
                 connect_timeout: float = 0.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        split = urlsplit(self.base_url)
        self._host = split.hostname or "127.0.0.1"
        self._port = split.port if split.port is not None else 80
        # one pooled keep-alive connection per thread: HTTPConnection is
        # not thread-safe, and the coordinator shares clients across its
        # fan-out workers
        self._local = threading.local()

    # -- connection pool ------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """This thread's pooled connection, created on first use."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout)
            self._local.connection = connection
        return connection

    def _drop_connection(self) -> None:
        """Close and forget this thread's pooled connection."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    def close(self) -> None:
        """Close the calling thread's pooled connection (idempotent)."""
        self._drop_connection()

    # -- plumbing -------------------------------------------------------------
    def _open(self, method: str, path: str, body: Optional[bytes] = None,
              headers: Optional[dict] = None) -> http.client.HTTPResponse:
        """Issue one request on the pooled connection; returns the response.

        Two failure modes are retried, separately:

        * a **refused** TCP connection (the daemon is not listening
          *yet*) is retried with bounded exponential backoff for up to
          :attr:`connect_timeout` seconds, then raised as
          :class:`urllib.error.URLError` — exactly the semantics the
          ``urllib``-based client had;
        * a **stale pooled socket** (the daemon closed its keep-alive
          side between requests, surfacing as ``RemoteDisconnected`` or
          a reset) is retried exactly once on a fresh connection — and
          only for idempotent ``GET`` requests; a ``POST`` may already
          have executed, so it propagates instead.

        Every other failure — HTTP errors, timeouts, resets mid-request
        on a fresh connection — propagates immediately.
        """
        deadline = time.monotonic() + self.connect_timeout
        delay = self.RETRY_INITIAL_DELAY
        retry_stale = method == "GET"
        while True:
            connection = self._connection()
            reused = connection.sock is not None
            try:
                connection.request(method, path, body=body,
                                   headers=dict(headers or {}))
                return connection.getresponse()
            except ConnectionRefusedError as error:
                self._drop_connection()
                if time.monotonic() >= deadline:
                    raise urllib.error.URLError(error) from error
            except (http.client.HTTPException, ConnectionError) as error:
                self._drop_connection()
                if reused and retry_stale:
                    retry_stale = False
                    continue
                if isinstance(error, http.client.HTTPException) and \
                        not isinstance(error, OSError):
                    # keep transport failures in the OSError family the
                    # callers (wait_ready, the coordinator) already catch
                    raise urllib.error.URLError(error) from error
                raise
            time.sleep(min(delay, max(deadline - time.monotonic(), 0.0)))
            delay = min(delay * 2, self.RETRY_MAX_DELAY)

    def _finish(self, response: http.client.HTTPResponse) -> bytes:
        """Drain one response so the pooled connection is reusable."""
        data = response.read()
        if response.will_close:
            # the server asked for (or forced) connection close; a next
            # request on this socket would hit RemoteDisconnected
            self._drop_connection()
        return data

    def _request(self, method: str, path: str, payload: Optional[dict] = None,
                 headers: Optional[dict] = None) -> dict:
        body = json.dumps(payload).encode("utf-8") \
            if payload is not None else None
        all_headers = {"Content-Type": "application/json"}
        all_headers.update(headers or {})
        response = self._open(method, path, body=body, headers=all_headers)
        data = self._finish(response)
        if response.status >= 400:
            # HTTP errors are never retried: the request reached the
            # daemon and was answered
            raise ServiceError(
                response.status, _error_message(data, response.reason))
        return json.loads(data.decode("utf-8"))

    def wait_ready(self, timeout: float = 30.0) -> dict:
        """Poll ``/v1/healthz`` until the daemon answers; returns its payload.

        Unlike :attr:`connect_timeout` (which only covers a refused
        connection), this also rides out reset or half-open sockets of a
        daemon that is still binding.  Raises :class:`TimeoutError` when
        the daemon never comes up.
        """
        deadline = time.monotonic() + timeout
        delay = self.RETRY_INITIAL_DELAY
        while True:
            try:
                return self.healthz()
            except (ServiceError, OSError) as error:
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"daemon at {self.base_url} not ready "
                        f"after {timeout:.1f}s: {error}") from error
            time.sleep(min(delay, max(deadline - time.monotonic(), 0.0)))
            delay = min(delay * 2, self.RETRY_MAX_DELAY)

    # -- jobs -----------------------------------------------------------------
    def submit(self, sources, analyses, options: Optional[dict] = None,
               priority: Optional[str] = None,
               tenant: Optional[str] = None) -> dict:
        """Submit a job; returns the queued job's wire form (with ``id``).

        Parameters
        ----------
        sources:
            ``[id, source]`` pairs to analyze.
        analyses:
            Analyzer ids to run, in order.
        options:
            Per-analyzer option mapping.
        priority:
            Scheduling lane (``interactive`` or ``batch``; daemon
            default is batch when omitted).
        tenant:
            Sent as the ``X-Repro-Tenant`` header — the label the
            gateway meters quotas on.
        """
        body = {"sources": [list(pair) for pair in sources],
                "analyses": list(analyses)}
        if options is not None:
            body["options"] = options
        if priority is not None:
            body["priority"] = priority
        headers = {"X-Repro-Tenant": tenant} if tenant is not None else None
        return self._request("POST", "/v1/jobs", body, headers=headers)["job"]

    def job(self, job_id: int, results: bool = True) -> dict:
        """One job's status envelope: ``{"job": {...}, "results": [...]}``.

        ``results=False`` asks the daemon to omit the result envelopes
        (``?results=0``) — the cheap form :meth:`wait` polls with.
        """
        path = f"/v1/jobs/{job_id}"
        if not results:
            path += "?results=0"
        return self._request("GET", path)

    def jobs_page(self, state: Optional[str] = None, limit: int = 100,
                  offset: int = 0, tenant: Optional[str] = None) -> dict:
        """One page of the job listing, with its paging envelope.

        Returns the full ``GET /v1/jobs`` payload:
        ``{"jobs": [...], "total": N, "limit": L, "offset": O}``.
        """
        path = f"/v1/jobs?limit={limit}&offset={offset}"
        if state is not None:
            path += f"&state={quote(state)}"
        if tenant is not None:
            path += f"&tenant={quote(tenant)}"
        return self._request("GET", path)

    def jobs(self, state: Optional[str] = None, limit: int = 100,
             offset: int = 0, tenant: Optional[str] = None) -> list:
        """A page of jobs (newest first), filtered by state and/or tenant.

        Parameters
        ----------
        state:
            Keep only jobs in this state, when given.
        limit:
            Page size.
        offset:
            Number of matching jobs to skip before the page.
        tenant:
            Keep only jobs recorded under this tenant, when given.
        """
        return self.jobs_page(state=state, limit=limit, offset=offset,
                              tenant=tenant)["jobs"]

    def wait(self, job_id: int, timeout: float = 120.0) -> dict:
        """Poll until the job completes; returns its final status envelope.

        ``cancelled`` is terminal like ``done`` — the returned envelope
        carries whatever partial results the job produced before the
        cancel landed.  Raises :class:`JobFailedError` when the job
        fails and :class:`TimeoutError` when it does not finish in time.
        """
        deadline = time.monotonic() + timeout
        while True:
            # poll without results; download the envelopes exactly once
            status = self.job(job_id, results=False)
            if status["job"]["state"] in ("done", "cancelled"):
                return self.job(job_id)
            if status["job"]["state"] == "failed":
                raise JobFailedError(status["job"])
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['job']['state']} "
                    f"after {timeout:.1f}s")
            time.sleep(POLL_INTERVAL)

    def cancel(self, job_id: int) -> dict:
        """Cancel one job (``POST /v1/jobs/{id}/cancel``).

        Returns ``{"id": ..., "state": ...}`` — ``cancelled`` for a
        dropped queued job, ``cancelling`` for a running workload that
        will stop at its next chunk boundary, or the unchanged terminal
        state of an already-finished job.
        """
        return self._request("POST", f"/v1/jobs/{job_id}/cancel", {})

    def stream(self, job_id: int, timeout: Optional[float] = None,
               raw: bool = False) -> Iterator:
        """Yield result envelopes as the daemon streams them (NDJSON lines).

        With ``raw=True`` the undecoded line bytes are yielded instead —
        these are exactly the canonical-JSON bytes of each envelope,
        which is what the byte-parity tests compare.
        """
        path = f"/v1/jobs/{job_id}/stream"
        if timeout is not None:
            path += f"?timeout={timeout}"
        response = self._open("GET", path)
        if response.status >= 400:
            data = self._finish(response)
            raise ServiceError(
                response.status, _error_message(data, response.reason))
        try:
            for line in response:
                line = line.rstrip(b"\n")
                if not line:
                    continue
                yield line if raw else json.loads(line.decode("utf-8"))
        finally:
            if not response.isclosed() or response.will_close:
                # an abandoned stream leaves unread bytes on the socket;
                # it can never carry another request
                self._drop_connection()

    # -- workloads and custom queries -----------------------------------------
    def submit_workload(self, kind: str, params: Optional[dict] = None,
                        priority: Optional[str] = None,
                        tenant: Optional[str] = None,
                        chunks: Optional[list] = None) -> dict:
        """Submit a workload job (``POST /v1/workloads``).

        Returns the queued workload's wire form — the job fields plus a
        ``progress`` block.  ``chunks`` restricts execution to a subset
        of chunk indices (the coordinator's fan-out form); a restricted
        run never merges.
        """
        body: dict = {"kind": kind}
        if params is not None:
            body["params"] = params
        if priority is not None:
            body["priority"] = priority
        if chunks is not None:
            body["chunks"] = list(chunks)
        headers = {"X-Repro-Tenant": tenant} if tenant is not None else None
        return self._request("POST", "/v1/workloads", body, headers=headers)

    def workload(self, job_id: int, chunks: bool = False) -> dict:
        """One workload's status: job fields plus ``{done, total, eta}``.

        ``chunks=True`` adds the raw chunk rows (``?chunks=1``) — spec
        and result as stored canonical-JSON strings.
        """
        path = f"/v1/workloads/{job_id}"
        if chunks:
            path += "?chunks=1"
        return self._request("GET", path)

    def workloads_page(self, state: Optional[str] = None, limit: int = 100,
                       offset: int = 0) -> dict:
        """One page of the workload listing, with its paging envelope."""
        path = f"/v1/workloads?limit={limit}&offset={offset}"
        if state is not None:
            path += f"&state={quote(state)}"
        return self._request("GET", path)

    def workloads(self, state: Optional[str] = None, limit: int = 100,
                  offset: int = 0) -> list:
        """A page of workload jobs (newest first), optionally by state."""
        return self.workloads_page(state=state, limit=limit,
                                   offset=offset)["workloads"]

    def resume_workload(self, job_id: int) -> dict:
        """Requeue a failed or cancelled workload, reusing its done chunks."""
        return self._request("POST", f"/v1/workloads/{job_id}/resume", {})

    def wait_workload(self, job_id: int, timeout: float = 300.0) -> dict:
        """Poll a workload to a terminal state; returns its status envelope.

        The returned envelope is the plain job status
        (``GET /v1/jobs/{id}``), so ``results[0]`` is the merged report
        of a completed unrestricted workload.  Raises
        :class:`JobFailedError` on failure, :class:`TimeoutError` on
        timeout; ``cancelled`` is terminal and returned like ``done``.
        """
        return self.wait(job_id, timeout=timeout)

    def register_query(self, spec: dict) -> dict:
        """Register a custom DSL query (``POST /v1/queries``).

        ``spec`` is the declarative query object (see
        :mod:`repro.ccc.custom`); the daemon validates it, persists it,
        and makes it immediately usable in ccc jobs and workloads.
        """
        return self._request("POST", "/v1/queries", spec)

    def queries(self) -> list:
        """Every active ccc query (built-in and custom) the daemon serves."""
        return self._request("GET", "/v1/queries")["queries"]

    # -- corpus and introspection ---------------------------------------------
    def ingest(self, documents=None, remove=None) -> dict:
        """Ingest documents into the live CCD index.

        Each item of ``documents`` is a ``(id, source)`` pair or a delta
        object — ``{"id": ..., "source": ..., "base_version": ...}`` for
        a guarded full replacement, or ``{"id": ..., "diff": ...,
        "base_version": ...}`` to send a unified diff against the
        server's retained copy (see :func:`ingest_delta` for a
        convenience wrapper).  ``remove`` lists document ids to retire
        from the index instead; a single call may carry both (removals
        are applied first).
        """
        body: dict = {}
        if documents is not None:
            body["documents"] = [
                item if isinstance(item, dict) else list(item)
                for item in documents]
        if remove is not None:
            body["remove"] = list(remove)
        return self._request("POST", "/v1/corpus", body)

    def ingest_delta(self, document_id, *, source: Optional[str] = None,
                     diff: Optional[str] = None,
                     base_version: Optional[str] = None) -> dict:
        """Ingest one document as a delta (guarded source or unified diff)."""
        item: dict = {"id": document_id}
        if source is not None:
            item["source"] = source
        if diff is not None:
            item["diff"] = diff
        if base_version is not None:
            item["base_version"] = base_version
        return self.ingest(documents=[item])

    def corpus(self) -> dict:
        """The ids currently in the daemon's index (``GET /v1/corpus``)."""
        return self._request("GET", "/v1/corpus")

    def healthz(self) -> dict:
        """The daemon's liveness payload."""
        return self._request("GET", "/v1/healthz")

    def stats(self) -> dict:
        """The daemon's counters (cache, index, match stats, queue)."""
        return self._request("GET", "/v1/stats")

    # -- cluster coordinator ---------------------------------------------------
    def cluster(self) -> dict:
        """Cluster topology and per-shard health (coordinator only)."""
        return self._request("GET", "/v1/cluster")

    def rebalance(self) -> dict:
        """Move documents whose ring owner changed (coordinator only)."""
        return self._request("POST", "/v1/cluster/rebalance", {})


def _error_message(body: bytes, fallback: str) -> str:
    """The daemon's ``error`` field, or the raw body when not JSON."""
    try:
        text = body.decode("utf-8")
        return json.loads(text).get("error", text)
    except (ValueError, UnicodeDecodeError):
        return fallback


__all__ = ["JobFailedError", "ServiceClient", "ServiceError"]
