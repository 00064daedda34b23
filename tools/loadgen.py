"""Stdlib load generator for the analysis service daemon.

Drives ``POST /v1/jobs`` against a running daemon from N concurrent
clients, each on its own keep-alive connection, and reports what
admission control did to them:

* **closed loop** (default): every client fires its next request the
  moment the previous response lands — the classic saturation probe.
* **open loop** (``--mode open --rate R``): arrivals are scheduled at R
  requests/second spread across the clients, independent of response
  times, so queueing delay shows up as latency instead of back-off.

Each request picks a tenant from the configured weights (sent as
``X-Repro-Tenant``) and a lane (``--interactive-fraction`` of requests
submit ``priority: interactive``).  Every response is tallied by status
code — 202 accepted, 429/503 shed — and successful submissions get a
latency sample.  The summary prints throughput, a p50/p95/p99 table and
a log-bucket latency histogram.

Usable as a CLI against any daemon, or imported by the benchmarks::

    from loadgen import run_load
    result = run_load(url, clients=1000, requests_per_client=2)
    print(result.percentile(0.99), result.shed)

Stdlib only; one thread + one pooled ``http.client`` connection per
simulated client.
"""

from __future__ import annotations

import argparse
import http.client
import json
import random
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence
from urllib.parse import urlsplit

#: log-scale latency histogram bucket upper bounds, in seconds
HISTOGRAM_BUCKETS = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
                     0.1, 0.2, 0.5, 1.0, 2.0, 5.0)

#: a tiny-but-valid Solidity snippet: cheap to analyze, happy in any corpus
DEFAULT_SOURCE = (
    "pragma solidity ^0.4.24;\n"
    "contract Probe {\n"
    "    uint256 public value;\n"
    "    function set(uint256 v) public { value = v; }\n"
    "}\n")


@dataclass
class LoadResult:
    """Everything one load run observed, ready for reporting."""

    wall: float = 0.0
    #: latency samples (seconds) of accepted submissions only
    latencies: list = field(default_factory=list)
    #: HTTP status -> count over every completed request
    status_counts: dict = field(default_factory=dict)
    #: transport-level failures (refused, reset, timed out)
    errors: int = 0
    #: requests that never got a response within the client timeout
    hung: int = 0
    #: per-tenant accepted counts
    accepted_by_tenant: dict = field(default_factory=dict)
    #: per-lane accepted counts
    accepted_by_lane: dict = field(default_factory=dict)

    @property
    def requests(self) -> int:
        """Requests that completed with any HTTP status."""
        return sum(self.status_counts.values())

    @property
    def accepted(self) -> int:
        """Submissions the daemon admitted (HTTP 202)."""
        return self.status_counts.get(202, 0)

    @property
    def shed(self) -> int:
        """Submissions shed by admission control (429 + 503)."""
        return self.status_counts.get(429, 0) + self.status_counts.get(503, 0)

    @property
    def jobs_per_sec(self) -> float:
        """Accepted submissions per second of wall time."""
        return self.accepted / self.wall if self.wall > 0 else 0.0

    def percentile(self, fraction: float) -> float:
        """The latency at ``fraction`` (0..1) of accepted submissions."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        return ordered[max(0, int(len(ordered) * fraction) - 1)]

    def histogram(self) -> list:
        """``(label, count)`` rows over the log-scale latency buckets."""
        counts = [0] * (len(HISTOGRAM_BUCKETS) + 1)
        for sample in self.latencies:
            for index, bound in enumerate(HISTOGRAM_BUCKETS):
                if sample <= bound:
                    counts[index] += 1
                    break
            else:
                counts[-1] += 1
        rows = []
        lower = 0.0
        for bound, count in zip(HISTOGRAM_BUCKETS, counts):
            rows.append((f"{lower * 1000:7.1f}-{bound * 1000:7.1f} ms", count))
            lower = bound
        rows.append((f"{lower * 1000:7.1f}+        ms", counts[-1]))
        return rows

    def summary(self) -> dict:
        """The machine-readable row the benchmarks persist."""
        return {
            "wall_seconds": self.wall,
            "requests": self.requests,
            "accepted": self.accepted,
            "shed": self.shed,
            "errors": self.errors,
            "hung": self.hung,
            "jobs_per_sec": self.jobs_per_sec,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "status_counts": {str(code): count
                              for code, count in sorted(self.status_counts.items())},
        }


def _pick_weighted(rng: random.Random, weights: Sequence) -> Optional[str]:
    """One tenant name drawn from ``[(name, weight), ...]`` (or ``None``)."""
    if not weights:
        return None
    total = sum(weight for _, weight in weights)
    mark = rng.uniform(0.0, total)
    for name, weight in weights:
        mark -= weight
        if mark <= 0.0:
            return name
    return weights[-1][0]


def _client_worker(index: int, host: str, port: int, *,
                   requests_per_client: int, interval: float, start_at: float,
                   tenant_weights: Sequence, interactive_fraction: float,
                   analyses: Sequence, source: str, unique: bool, seed: int,
                   timeout: float, result: LoadResult, lock: threading.Lock,
                   barrier: threading.Barrier) -> None:
    """One simulated client: its own connection, its own request schedule."""
    rng = random.Random((seed << 20) ^ index)
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        return
    for sequence in range(requests_per_client):
        if interval > 0.0:  # open loop: wait for this arrival's slot
            slot = start_at + (sequence * interval)
            delay = slot - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        tenant = _pick_weighted(rng, tenant_weights)
        lane = ("interactive" if rng.random() < interactive_fraction
                else "batch")
        source_id = (f"probe-{index}-{sequence}" if unique else "probe")
        body = {"sources": [[source_id, source]], "analyses": list(analyses)}
        if lane == "interactive":
            body["priority"] = "interactive"
        headers = {"Content-Type": "application/json"}
        if tenant is not None:
            headers["X-Repro-Tenant"] = tenant
        payload = json.dumps(body)
        started = time.monotonic()
        try:
            connection.request("POST", "/v1/jobs", body=payload, headers=headers)
            response = connection.getresponse()
            response.read()
            status = response.status
            if response.will_close:
                connection.close()
        except TimeoutError:
            connection.close()
            with lock:
                result.hung += 1
            continue
        except (http.client.HTTPException, OSError) as error:
            connection.close()
            if isinstance(error, OSError) and "timed out" in str(error):
                with lock:
                    result.hung += 1
            else:
                with lock:
                    result.errors += 1
            continue
        elapsed = time.monotonic() - started
        with lock:
            result.status_counts[status] = result.status_counts.get(status, 0) + 1
            if status == 202:
                result.latencies.append(elapsed)
                label = tenant or "-"
                result.accepted_by_tenant[label] = (
                    result.accepted_by_tenant.get(label, 0) + 1)
                result.accepted_by_lane[lane] = (
                    result.accepted_by_lane.get(lane, 0) + 1)
    connection.close()


def run_load(url: str, *, clients: int, requests_per_client: int = 1,
             mode: str = "closed", rate: Optional[float] = None,
             tenant_weights: Optional[Sequence] = None,
             interactive_fraction: float = 0.0,
             analyses: Sequence = ("ccd",), source: str = DEFAULT_SOURCE,
             unique: bool = True, seed: int = 0,
             timeout: float = 30.0) -> LoadResult:
    """Run one load test against ``url`` and return its :class:`LoadResult`.

    Parameters
    ----------
    url:
        Base URL of the daemon (``http://host:port``).
    clients:
        Concurrent simulated clients, one thread + connection each.
    requests_per_client:
        ``POST /v1/jobs`` submissions each client issues.
    mode:
        ``closed`` (back-to-back) or ``open`` (scheduled arrivals).
    rate:
        Open-loop total arrival rate in requests/second (required for
        ``mode="open"``; each client fires at ``rate / clients``).
    tenant_weights:
        ``[(tenant, weight), ...]`` mix; ``None`` sends no tenant header.
    interactive_fraction:
        Probability a request submits on the ``interactive`` lane.
    analyses:
        Analyzer ids each job requests.
    source:
        Source text of the single-snippet job body.
    unique:
        Give every request a distinct source id so submissions do not
        coalesce; set ``False`` to measure coalescing on purpose.
    seed:
        Base seed of the per-client tenant/lane choices.
    timeout:
        Per-request client timeout; expiry counts as ``hung``.
    """
    if mode not in ("closed", "open"):
        raise ValueError(f"unknown mode: {mode!r} (closed or open)")
    if mode == "open" and (rate is None or rate <= 0):
        raise ValueError("open-loop mode needs a positive --rate")
    parts = urlsplit(url)
    host, port = parts.hostname, parts.port or 80
    interval = (clients / rate) if mode == "open" else 0.0
    result = LoadResult()
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)
    start_at = time.monotonic() + max(0.2, clients / 5000.0)
    workers = [
        threading.Thread(
            target=_client_worker, args=(index, host, port),
            kwargs=dict(requests_per_client=requests_per_client,
                        interval=interval, start_at=start_at,
                        tenant_weights=tenant_weights or (),
                        interactive_fraction=interactive_fraction,
                        analyses=analyses, source=source, unique=unique,
                        seed=seed, timeout=timeout, result=result,
                        lock=lock, barrier=barrier),
            daemon=True, name=f"loadgen-{index}")
        for index in range(clients)
    ]
    for worker in workers:
        worker.start()
    barrier.wait()  # every connection object built; release the herd at once
    started = time.monotonic()
    for worker in workers:
        worker.join()
    result.wall = time.monotonic() - started
    return result


def _parse_tenant_weights(spec: Optional[str]) -> Optional[list]:
    """``"a:3,b:1"`` -> ``[("a", 3.0), ("b", 1.0)]`` (``None`` passthrough)."""
    if not spec:
        return None
    weights = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, weight = item.partition(":")
        weights.append((name, float(weight) if weight else 1.0))
    return weights


def render_result(result: LoadResult, show_histogram: bool = True) -> str:
    """The human-readable summary block the CLI prints."""
    lines = [
        f"requests : {result.requests} completed, {result.errors} transport "
        f"errors, {result.hung} hung (wall {result.wall:.2f}s)",
        f"admitted : {result.accepted} (202) -> {result.jobs_per_sec:.1f} "
        f"jobs/sec",
        f"shed     : {result.shed} "
        f"(429: {result.status_counts.get(429, 0)}, "
        f"503: {result.status_counts.get(503, 0)})",
    ]
    if result.latencies:
        lines.append(
            f"latency  : p50 {result.percentile(0.5) * 1000:.1f} ms, "
            f"p95 {result.percentile(0.95) * 1000:.1f} ms, "
            f"p99 {result.percentile(0.99) * 1000:.1f} ms, "
            f"mean {statistics.fmean(result.latencies) * 1000:.1f} ms")
    if result.accepted_by_tenant:
        mix = ", ".join(f"{tenant}: {count}" for tenant, count
                        in sorted(result.accepted_by_tenant.items()))
        lines.append(f"tenants  : {mix}")
    if result.accepted_by_lane:
        mix = ", ".join(f"{lane}: {count}" for lane, count
                        in sorted(result.accepted_by_lane.items()))
        lines.append(f"lanes    : {mix}")
    if show_histogram and result.latencies:
        lines.append("latency histogram (accepted submissions):")
        peak = max(count for _, count in result.histogram()) or 1
        for label, count in result.histogram():
            if count == 0:
                continue
            bar = "#" * max(1, round(40 * count / peak))
            lines.append(f"  {label} {count:6d} {bar}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        description="stdlib load generator for the repro analysis daemon")
    parser.add_argument("--url", required=True,
                        help="base URL of the daemon (http://host:port)")
    parser.add_argument("--clients", type=int, default=50,
                        help="concurrent clients (default: 50)")
    parser.add_argument("--requests", type=int, default=4,
                        help="submissions per client (default: 4)")
    parser.add_argument("--mode", choices=("closed", "open"), default="closed",
                        help="closed: back-to-back; open: scheduled arrivals")
    parser.add_argument("--rate", type=float, default=None,
                        help="open-loop total arrival rate, requests/second")
    parser.add_argument("--tenants", default=None,
                        help="tenant mix as name:weight[,name:weight...]")
    parser.add_argument("--interactive-fraction", type=float, default=0.0,
                        help="fraction of requests on the interactive lane")
    parser.add_argument("--analyses", default="ccd",
                        help="comma-separated analyzer ids (default: ccd)")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="per-request client timeout seconds (default: 30)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed of tenant/lane choices (default: 0)")
    parser.add_argument("--no-histogram", action="store_true",
                        help="skip the latency histogram block")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable summary instead")
    args = parser.parse_args(argv)
    try:
        result = run_load(
            args.url, clients=args.clients, requests_per_client=args.requests,
            mode=args.mode, rate=args.rate,
            tenant_weights=_parse_tenant_weights(args.tenants),
            interactive_fraction=args.interactive_fraction,
            analyses=[item.strip() for item in args.analyses.split(",")
                      if item.strip()],
            seed=args.seed, timeout=args.timeout)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.summary(), indent=2, sort_keys=True))
    else:
        print(render_result(result, show_histogram=not args.no_histogram))
    return 0


if __name__ == "__main__":
    sys.exit(main())
