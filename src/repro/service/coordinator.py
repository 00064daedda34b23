"""Sharded scatter-gather serving: the cluster coordinator daemon.

A :class:`ClusterCoordinator` scales the analysis service past one
process without changing a single response byte.  It owns no corpus and
runs no analyzers; instead it partitions the corpus across N worker
daemons (each a plain :class:`~repro.service.server.AnalysisService`) by
consistent hashing on document id (:mod:`repro.service.hashring`), fans
every submitted job out to all shards, and scatter-gathers the partial
result envelopes back into one stream.

The merge is deterministic by construction, which is what makes a
multi-shard deployment *byte-for-byte testable* against a single node:

* every shard runs the identical job (same sources, same analyses), so
  the per-shard envelope streams are positionally aligned — envelope
  ``i`` of every shard describes the same ``(analyzer, contract_id)``;
* resident-index ``ccd`` payloads are the only corpus-dependent part;
  each shard reports the matches its slice of the corpus contributes,
  and the union re-sorted by the canonical match key
  ``(-similarity, str(document_id))`` — the exact ordering
  ``MatchPipeline.match`` applies on a single node — reproduces the
  unpartitioned payload;
* every other envelope (``ccc``, ``validate``, non-resident ``ccd``) is
  corpus-independent, identical on every shard, and passed through
  verbatim from the first live shard;
* re-encoding goes through :func:`repro.api.envelope.canonical_json`,
  whose fixed-point property (``canonical_json(json.loads(line)) ==
  line``) guarantees the merged bytes match a single-node daemon's.

The coordinator speaks the same ``/v1/*`` protocol as a worker, minus
result streaming and plus ``GET /v1/cluster`` and ``POST
/v1/cluster/rebalance``: its route table is
:data:`repro.service.routes.COORDINATOR_ROUTES`, served by the same
asyncio transport (:class:`~repro.service.gateway.AsyncGateway`).

A coordinator is the worker's :class:`~repro.service.server.Daemon`
core with a different ``run``: the same job store (rows gain fan-out
bookkeeping), the same :class:`~repro.service.scheduler.Scheduler`
draining it one fan-out at a time, the same submission and cancellation.
So durability mirrors the single-node daemon: a coordinator killed or
stopped mid-fan-out leaves the job ``running``, and the next start
requeues it and fans it out again from scratch.  A worker that dies
mid-job is polled through its restart (its own store requeues the
sub-job); a worker that stays down past ``shard_timeout`` is reported in
the job's ``fanout.degraded`` list — the job completes with the
surviving shards' results instead of hanging or silently pretending
nothing is missing.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.api.envelope import canonical_json
from repro.service.client import ServiceClient, ServiceError
from repro.service.delta import SourceJournal
from repro.service.hashring import DEFAULT_RING_REPLICAS, HashRing, partition
from repro.service.jobstore import Job
from repro.service.routes import COORDINATOR_ROUTES
from repro.service.scheduler import POLL_INTERVAL, Outcome
from repro.service.server import Daemon, DaemonConfig
from repro.service.workloads import WORKLOADS

#: every HTTP route the coordinator serves, read off its route table —
#: kept in lockstep with ``docs/service.md`` by ``tools/check_api.py``
ROUTES = COORDINATOR_ROUTES.endpoints

#: file name of the coordinator's routing journal inside its data dir
CORPUS_DATABASE_NAME = "corpus.sqlite"


def default_shard_names(count: int) -> Tuple[str, ...]:
    """Stable shard names by worker position (``shard-0``, ``shard-1``, ...).

    Names — not URLs — go on the hash ring, so a worker restarted on a
    new ephemeral port keeps its corpus slice.  Positional naming means
    the worker *order* is the identity: append new workers at the end.
    """
    return tuple(f"shard-{index}" for index in range(count))


# -- deterministic scatter-gather merge ---------------------------------------
def canonical_match_key(match: dict) -> tuple:
    """Sort key of one wire-form ccd match — the single-node ordering.

    ``MatchPipeline.match`` sorts ``(-similarity, str(document_id))``;
    the key is a pure function of the match itself, so any partition of
    a payload can be re-sorted back into the unpartitioned order.
    """
    return (-match["similarity"], str(match["document_id"]))


def merge_match_payloads(partitions: Iterable[Sequence[dict]]) -> list:
    """Union per-shard ccd payload slices back into canonical order."""
    merged = [match for part in partitions for match in part]
    merged.sort(key=canonical_match_key)
    return merged


def merge_shard_results(
    shard_lines: Sequence[Sequence[str]],
    scatter_analyses: Iterable[str] = ("ccd",),
) -> List[str]:
    """Merge aligned per-shard canonical envelope streams into one.

    ``shard_lines`` holds one list of canonical-JSON envelope lines per
    live shard, all for the *same* job, in the store's result order.
    Envelopes of analyzers in ``scatter_analyses`` carry partitioned
    payloads (one slice per shard) and are merged via
    :func:`merge_match_payloads`; everything else is corpus-independent,
    identical across shards, and passed through byte-verbatim from the
    first shard.  Raises :class:`ValueError` on mis-aligned streams.
    """
    shard_lines = [list(lines) for lines in shard_lines]
    if not shard_lines:
        return []
    length = len(shard_lines[0])
    if any(len(lines) != length for lines in shard_lines):
        raise ValueError("shard result streams have different lengths")
    scatter = set(scatter_analyses)
    merged = []
    for position in range(length):
        primary = json.loads(shard_lines[0][position])
        # a null payload (unanalyzable source) is corpus-independent and
        # identical on every shard — pass it through, never merge to []
        if (primary["analyzer"] not in scatter or primary["payload"] is None
                or len(shard_lines) == 1):
            merged.append(shard_lines[0][position])
            continue
        partitions = []
        for lines in shard_lines:
            envelope = json.loads(lines[position])
            if (envelope["analyzer"] != primary["analyzer"]
                    or envelope["contract_id"] != primary["contract_id"]):
                raise ValueError(
                    f"shard result streams mis-aligned at position {position}")
            partitions.append(envelope["payload"] or [])
        primary["payload"] = merge_match_payloads(partitions)
        merged.append(canonical_json(primary))
    return merged


# -- the durable routing journal ----------------------------------------------
class CorpusJournal(SourceJournal):
    """Durable ``document id -> (source, shard)`` routing journal.

    Workers hold fingerprints, not sources, so rebalancing a document to
    another shard needs its original source back — the coordinator keeps
    it here (``corpus.sqlite`` in its data directory), tagged with the
    shard each id was routed to.  It is a :class:`SourceJournal`, so it
    also resolves diff ingests against the journaled source.
    """

    TABLE = "documents"
    TAG = "shard"

    def shard(self, document_id: Hashable, default: str) -> str:
        """The shard one document was routed to, or ``default``."""
        row = self._connection.fetchone(
            "SELECT shard FROM documents WHERE id = ?",
            (json.dumps(document_id),))
        return row[0] if row is not None else default

    def reassign(self, document_id: Hashable, shard: str) -> None:
        """Move one journaled document to another shard."""
        self._connection.execute(
            "UPDATE documents SET shard = ? WHERE id = ?",
            (shard, json.dumps(document_id)))

    def assignments(self) -> Dict[Hashable, str]:
        """Every journaled id mapped to its recorded shard."""
        rows = self._connection.fetchall("SELECT id, shard FROM documents")
        return {json.loads(raw_id): shard for raw_id, shard in rows}

    def per_shard_counts(self) -> Dict[str, int]:
        """Documents per shard, as recorded."""
        rows = self._connection.fetchall(
            "SELECT shard, COUNT(*) FROM documents GROUP BY shard")
        return dict(rows)


# -- the coordinator daemon ---------------------------------------------------
@dataclass(frozen=True)
class CoordinatorConfig(DaemonConfig):
    """Typed configuration of a :class:`ClusterCoordinator` daemon.

    Extends the shared :class:`~repro.service.server.DaemonConfig` with
    the shard topology and the timeouts towards the workers.  The data
    directory holds ``jobs.sqlite`` and ``corpus.sqlite``.
    """

    data_dir: str = "repro-coordinator"
    port: int = 8740
    #: worker daemon base URLs, in shard order (the order is identity:
    #: ``workers[i]`` serves ring node ``shard-i`` across restarts)
    workers: Tuple[str, ...] = ()
    #: optional stable shard names overriding the positional default
    shard_names: Tuple[str, ...] = ()
    #: virtual ring points per shard
    replicas: int = DEFAULT_RING_REPLICAS
    #: per-request socket timeout towards workers
    request_timeout: float = 60.0
    #: refused-connection retry budget towards workers (rides out a
    #: worker daemon's startup or restart)
    connect_timeout: float = 10.0
    #: how long one fan-out waits for its slowest shard before the
    #: missing shards are declared degraded and the job completes
    shard_timeout: float = 300.0

    def resolved_names(self) -> Tuple[str, ...]:
        """Shard names, defaulted positionally and validated."""
        names = tuple(self.shard_names) or default_shard_names(len(self.workers))
        if len(names) != len(self.workers):
            raise ValueError(
                f"{len(self.workers)} workers but {len(names)} shard names")
        if len(set(names)) != len(names):
            raise ValueError("shard names must be unique")
        return names


class ClusterCoordinator(Daemon):
    """The scatter-gather front of an N-shard analysis cluster.

    The lifecycle, submission and cancellation are the shared
    :class:`~repro.service.server.Daemon` core; the coordinator's
    :class:`~repro.service.scheduler.Scheduler` runs one fan-out at a
    time.  Use as a context manager or pair :meth:`start`/:meth:`stop`.
    """

    route_table = COORDINATOR_ROUTES

    def __init__(self, config: CoordinatorConfig):
        if not config.workers:
            raise ValueError("a coordinator needs at least one worker URL")
        names = config.resolved_names()
        super().__init__(config)
        #: shard name -> worker base URL, in configuration order
        self.shards: Dict[str, str] = dict(zip(names, config.workers))
        self.ring = HashRing(names, replicas=config.replicas)
        self.journal = CorpusJournal(self.data_dir / CORPUS_DATABASE_NAME)
        #: per-shard clients that ride out worker restarts
        self.clients = {
            name: ServiceClient(url, timeout=config.request_timeout,
                                connect_timeout=config.connect_timeout)
            for name, url in self.shards.items()}
        #: per-shard clients that fail fast (health probes, fan-out polls)
        self.probes = {
            name: ServiceClient(url, timeout=config.request_timeout)
            for name, url in self.shards.items()}

    def _close(self) -> None:
        """Close the routing journal."""
        self.journal.close()

    # -- operations -----------------------------------------------------------
    def register_query_spec(self, spec) -> dict:
        """Register a custom DSL query cluster-wide.

        The spec is validated and persisted on the coordinator, then
        broadcast to every shard — each worker persists it in its own
        data dir, so the query survives worker restarts too.  A shard
        that cannot be reached fails the request (HTTP 502); a retry
        converges because registration is replace-on-reregister.
        """
        response = super().register_query_spec(spec)
        for name in sorted(self.shards):
            self.clients[name].register_query(response["query"])
        response["shards"] = sorted(self.shards)
        return response

    def ingest(self, documents, remove=()) -> dict:
        """Route documents to their ring-assigned shards and journal them.

        Each document goes to exactly one worker (consistent hashing on
        its id); removals are routed to the shard the journal recorded.
        Diffs resolve against the journaled sources here, so workers
        always receive full documents.  A worker that cannot be reached
        fails the whole request (mapped to HTTP 502) — shards already
        written stay written, and a retry converges because routing is
        deterministic and worker ingest is replace-on-reingest.
        """
        documents, remove = self._ingest_request(documents, remove, self.journal)
        with self._work_lock.write():  # exclusive: no fan-out during routing
            remove_batches: Dict[str, List[Hashable]] = {}
            for document_id in remove:
                shard = self.journal.shard(document_id,
                                           self.ring.owner(document_id))
                remove_batches.setdefault(shard, []).append(document_id)
            batches = partition(documents, self.ring)
            ingested = 0
            unchanged = 0
            rejected: list = []
            removed: list = []
            routed: Dict[str, int] = {}
            for name in sorted(set(batches) | set(remove_batches)):
                batch = batches.get(name, [])
                summary = self.clients[name].ingest(
                    documents=[list(pair) for pair in batch] or None,
                    remove=remove_batches.get(name) or None)
                ingested += summary["ingested"]
                unchanged += summary.get("unchanged", 0)
                rejected.extend(summary["rejected"])
                removed.extend(summary.get("removed", []))
                routed[name] = len(batch)
                rejected_here = set(summary["rejected"])
                for document_id, source in batch:
                    if document_id not in rejected_here:
                        self.journal.record(document_id, source, name)
            for document_id in removed:
                self.journal.forget(document_id)
        return {
            "ingested": ingested,
            "rejected": rejected,
            "removed": removed,
            "unchanged": unchanged,
            "documents": self.journal.count(),
            "routed": routed,
        }

    def rebalance(self) -> dict:
        """Move every document whose ring owner changed; touch nothing else.

        Run after the worker set changes (e.g. the coordinator was
        restarted with one more worker): each moved document is
        re-ingested on its new shard from the journaled source, then
        removed from its old shard.  Documents whose owner is unchanged
        are not re-sent anywhere — consistent hashing keeps the moved
        set to roughly ``1/N`` of the corpus.
        """
        with self._work_lock.write():
            assignments = self.journal.assignments()
            moves: Dict[Hashable, Tuple[str, str]] = {}
            for document_id, recorded_shard in assignments.items():
                target = self.ring.owner(document_id)
                if target != recorded_shard:
                    moves[document_id] = (recorded_shard, target)
            additions: Dict[str, List[Hashable]] = {}
            removals: Dict[str, List[Hashable]] = {}
            for document_id, (old, new) in moves.items():
                additions.setdefault(new, []).append(document_id)
                removals.setdefault(old, []).append(document_id)
            # ingest on the new owner first, then retire from the old:
            # no moment where a document is on no shard at all
            for name in sorted(additions):
                pairs = self.journal.sources(additions[name])
                self.clients[name].ingest(
                    documents=[list(pair) for pair in pairs])
            for name in sorted(removals):
                self.clients[name].ingest(remove=sorted(
                    removals[name], key=str))
            for document_id, (_old, new) in moves.items():
                self.journal.reassign(document_id, new)
        return {
            "moved": sorted(moves, key=str),
            "documents": self.journal.count(),
            "routed": self.journal.per_shard_counts(),
        }

    def corpus(self) -> dict:
        """The ``GET /v1/corpus`` payload: journaled routing by shard."""
        assignments = self.journal.assignments()
        by_shard: Dict[str, list] = {name: [] for name in self.shards}
        for document_id, shard in assignments.items():
            by_shard.setdefault(shard, []).append(document_id)
        for ids in by_shard.values():
            ids.sort(key=str)
        return {
            "count": len(assignments),
            "documents": sorted(assignments, key=str),
            "shards": by_shard,
        }

    def health(self) -> dict:
        """The ``/v1/healthz`` payload, aggregated across every shard."""
        shards = {}
        degraded = []
        for name in sorted(self.shards):
            try:
                payload = self.probes[name].healthz()
                shards[name] = {"status": payload.get("status", "ok"),
                                "queue_depth": payload.get("queue_depth")}
            except (ServiceError, OSError) as error:
                shards[name] = {"status": "unreachable", "error": str(error)}
                degraded.append(name)
        return {
            "status": "degraded" if degraded else "ok",
            "role": "coordinator",
            "uptime_seconds": time.time() - self.started_at,
            "queue_depth": self.jobstore.queue_depth(),
            "shards": shards,
            "degraded": degraded,
        }

    def _role_stats(self) -> dict:
        """The coordinator's ``/v1/stats`` fields: routing plus shard stats."""
        shards = {}
        for name in sorted(self.shards):
            try:
                shards[name] = self.probes[name].stats()
            except (ServiceError, OSError) as error:
                shards[name] = {"error": str(error)}
        return {
            "role": "coordinator",
            "documents": self.journal.count(),
            "routed": self.journal.per_shard_counts(),
            "ring": {"shards": len(self.ring), "replicas": self.ring.replicas},
            "shards": shards,
        }

    def cluster_status(self) -> dict:
        """The ``GET /v1/cluster`` payload: topology, health, routing."""
        routed = self.journal.per_shard_counts()
        workers = {}
        degraded = []
        for name in sorted(self.shards):
            entry = {"url": self.shards[name],
                     "routed_documents": routed.get(name, 0)}
            try:
                health = self.probes[name].healthz()
                entry["status"] = health.get("status", "ok")
                entry["queue_depth"] = health.get("queue_depth")
                entry["indexed_documents"] = self.probes[name].corpus()["count"]
            except (ServiceError, OSError) as error:
                entry["status"] = "unreachable"
                entry["error"] = str(error)
                degraded.append(name)
            workers[name] = entry
        return {
            "status": "degraded" if degraded else "ok",
            "workers": workers,
            "degraded": degraded,
            "documents": self.journal.count(),
            "ring": {"shards": len(self.ring), "replicas": self.ring.replicas},
            "jobs": self.jobstore.counts(),
        }

    # -- fan-out --------------------------------------------------------------
    def _scatter_analyses(self, job: Job) -> set:
        """Which of the job's analyses carry corpus-partitioned payloads.

        Only resident-index ``ccd`` depends on which shard holds which
        document; a job opting out via ``{"ccd": {"resident": false}}``
        self-indexes its submitted sources identically on every shard.
        """
        scatter = set()
        if "ccd" in job.analyses:
            ccd_options = job.options.get("ccd") or {}
            if ccd_options.get("resident", True):
                scatter.add("ccd")
        return scatter

    def _run(self, job: Job, should_stop) -> Outcome:
        """Scatter one claimed job to every shard and gather the merge.

        Returns ``None`` when ``should_stop`` interrupts the wait: the
        job stays ``running`` and the next coordinator fans it out again.
        """
        if job.workload is not None:
            return self._run_workload_fanout(job, should_stop)
        names = sorted(self.shards)
        submitted: Dict[str, int] = {}
        degraded: List[str] = []
        for name in names:
            try:
                remote = self.clients[name].submit(
                    job.corpus, list(job.analyses), job.options or None,
                    priority=job.priority, tenant=job.tenant)
            except ServiceError as error:
                if 400 <= error.status < 500:
                    # a deterministic rejection: every shard would refuse
                    # the same way, so the job fails rather than degrades
                    self.jobstore.set_fanout(
                        job.job_id, {"shards": submitted, "degraded": degraded})
                    return "failed", str(error)
                degraded.append(name)
                continue
            except OSError:
                degraded.append(name)
                continue
            submitted[name] = remote["id"]
        self.jobstore.set_fanout(
            job.job_id, {"shards": submitted, "degraded": degraded})

        deadline = time.monotonic() + self.config.shard_timeout
        shard_lines: List[List[str]] = []
        for name in names:
            if name not in submitted:
                continue
            outcome, value = self._await_shard(
                name, submitted[name], deadline, should_stop)
            if outcome == "stopped":
                return None
            if outcome == "failed":
                self.jobstore.set_fanout(
                    job.job_id,
                    {"shards": submitted, "degraded": sorted(set(degraded))})
                return "failed", f"shard {name}: {value}"
            if outcome == "unreachable":
                degraded.append(name)
                continue
            shard_lines.append(value)

        degraded = sorted(set(degraded))
        self.jobstore.set_fanout(
            job.job_id, {"shards": submitted, "degraded": degraded})
        if not shard_lines:
            return "failed", f"all shards unreachable: {', '.join(degraded)}"
        merged = merge_shard_results(shard_lines, self._scatter_analyses(job))
        for seq, line in enumerate(merged):
            self.jobstore.append_result(job.job_id, seq, line)
        return "done", None

    # -- workload fan-out ------------------------------------------------------
    def _live_shards(self) -> List[str]:
        """The shard names answering their health probe right now."""
        live = []
        for name in sorted(self.shards):
            try:
                self.probes[name].healthz()
                live.append(name)
            except (ServiceError, OSError):
                continue
        return live

    def _cancel_workload_fanout(self, job: Job, submitted: Dict[str, int]) -> Outcome:
        """Honour a cancel request: stop shard sub-jobs, keep done chunks."""
        for name in sorted(submitted):
            try:
                self.clients[name].cancel(submitted[name])
            except (ServiceError, OSError):
                pass  # the shard is gone; its sub-job dies with it
        self.jobstore.cancel_pending_chunks(job.job_id)
        return "cancelled", None

    def _run_workload_fanout(self, job: Job, should_stop) -> Outcome:
        """Farm one workload's chunk DAG across the shards and merge.

        The chunk grid is decomposed locally (decomposition is a pure
        function of the validated params, so coordinator and workers
        agree on indices), pending chunks are round-robined over the
        reachable shards as restricted sub-workloads, and finished chunk
        rows are copied back verbatim — the stored canonical-JSON
        strings — so the merged report is byte-identical to a
        single-node run.  One redistribution round re-fans the chunks of
        a shard that died mid-run to the survivors; chunks still pending
        after that fail the job (resumable: done rows are kept).
        """
        descriptor = job.workload or {}
        kind = descriptor.get("kind")
        params = descriptor.get("params") or {}
        workload = WORKLOADS.get(kind)
        specs = workload.decompose(params)
        self.jobstore.add_chunks(
            job.job_id, (canonical_json(spec) for spec in specs))
        restrict = descriptor.get("chunks")
        pending = [chunk for chunk, _spec
                   in self.jobstore.pending_chunks(job.job_id)
                   if restrict is None or chunk in restrict]
        submitted: Dict[str, int] = {}
        degraded: List[str] = []
        for round_index in range(2):  # first pass + one redistribution
            if not pending:
                break
            if should_stop():
                return None
            if self.jobstore.is_cancel_requested(job.job_id):
                return self._cancel_workload_fanout(job, submitted)
            live = self._live_shards()
            if not live:
                break
            assignment: Dict[str, List[int]] = {}
            for position, chunk in enumerate(pending):
                assignment.setdefault(
                    live[position % len(live)], []).append(chunk)
            submitted = {}
            for name in sorted(assignment):
                try:
                    remote = self.clients[name].submit_workload(
                        kind, params=params, chunks=assignment[name],
                        priority=job.priority, tenant=job.tenant)
                except ServiceError as error:
                    if 400 <= error.status < 500:
                        # deterministic rejection: every shard would
                        # refuse the same way, so fail rather than degrade
                        return "failed", str(error)
                    degraded.append(name)
                    continue
                except OSError:
                    degraded.append(name)
                    continue
                submitted[name] = remote["id"]
            self.jobstore.set_fanout(job.job_id, {
                "shards": submitted, "degraded": sorted(set(degraded)),
                "round": round_index + 1, "chunks": len(pending)})
            deadline = time.monotonic() + self.config.shard_timeout
            for name in sorted(submitted):
                outcome, value = self._await_workload_shard(
                    job, name, submitted[name], deadline, should_stop)
                if outcome == "stopped":
                    return None
                if outcome == "cancelled":
                    return self._cancel_workload_fanout(job, submitted)
                if outcome == "failed":
                    return "failed", f"shard {name}: {value}"
                if outcome == "unreachable":
                    degraded.append(name)
            pending = [chunk for chunk, _spec
                       in self.jobstore.pending_chunks(job.job_id)
                       if restrict is None or chunk in restrict]
        degraded = sorted(set(degraded))
        self.jobstore.set_fanout(
            job.job_id, {"shards": submitted, "degraded": degraded})
        if pending:
            return "failed", (f"{len(pending)} chunk(s) never completed; "
                              f"degraded shards: {', '.join(degraded) or 'none'}")
        if restrict is None:
            rows = self.jobstore.chunks(job.job_id)
            results = [json.loads(row["result"]) for row in rows]
            report = workload.merge(params, results)
            self.jobstore.append_result(job.job_id, 0, canonical_json(report))
        return "done", None

    def _await_workload_shard(self, job: Job, name: str, remote_id: int,
                              deadline: float,
                              should_stop) -> Tuple[str, Optional[str]]:
        """Poll one shard's restricted sub-workload and copy its chunk rows.

        Returns ``("done", None)`` after copying the finished rows into
        the coordinator's chunk table (result strings verbatim, so the
        bytes survive the hop), ``("failed", error)`` on a deterministic
        chunk failure, ``("cancelled", None)`` when this coordinator job
        was cancelled mid-poll, ``("stopped", None)`` once
        ``should_stop()`` is true, or ``("unreachable", None)`` when the
        worker stays down (or its sub-job vanished) past ``deadline`` —
        the chunks stay pending for the redistribution round.
        """
        probe = self.probes[name]
        while True:
            if self.jobstore.is_cancel_requested(job.job_id):
                return "cancelled", None
            try:
                status = probe.workload(remote_id)
                state = status["state"]
                if state == "done":
                    rows = probe.workload(remote_id, chunks=True)["chunks"]
                    for row in rows:
                        if row["state"] != "done":
                            continue
                        self.jobstore.start_chunk(job.job_id, row["chunk"])
                        self.jobstore.finish_chunk(
                            job.job_id, row["chunk"], row["result"])
                    return "done", None
                if state == "failed":
                    return "failed", status.get("error")
                if state == "cancelled":
                    # cancelled on the worker side (not by us): treat the
                    # shard as lost so its chunks get redistributed
                    return "unreachable", None
            except ServiceError as error:
                if error.status == 404:
                    return "unreachable", None
            except OSError:
                pass  # worker down or restarting; keep polling
            if should_stop():
                return "stopped", None
            if time.monotonic() >= deadline:
                return "unreachable", None
            time.sleep(POLL_INTERVAL)

    def _await_shard(self, name: str, remote_id: int, deadline: float,
                     should_stop) -> Tuple[str, Optional[object]]:
        """Poll one shard's sub-job to completion.

        Returns ``("done", [canonical line, ...])``, ``("failed",
        error_message)`` for a deterministic analyzer failure,
        ``("stopped", None)`` once ``should_stop()`` is true, or
        ``("unreachable", None)`` when the worker stays down (or the
        sub-job vanished) past ``deadline``.  A worker that dies and
        comes back mid-poll is ridden out: its own job store requeues
        the sub-job on restart, so polling simply resumes.
        """
        probe = self.probes[name]
        while True:
            try:
                status = probe.job(remote_id, results=False)
                state = status["job"]["state"]
                if state == "done":
                    envelopes = probe.job(remote_id)["results"]
                    return "done", [canonical_json(envelope)
                                    for envelope in envelopes]
                if state == "failed":
                    return "failed", status["job"].get("error")
            except ServiceError as error:
                if error.status == 404:
                    # the sub-job is gone (e.g. the worker came back over
                    # an emptied data dir) — treat the shard as lost
                    return "unreachable", None
            except OSError:
                pass  # worker down or restarting; keep polling
            if should_stop():
                return "stopped", None
            if time.monotonic() >= deadline:
                return "unreachable", None
            time.sleep(POLL_INTERVAL)


__all__ = [
    "CORPUS_DATABASE_NAME",
    "ClusterCoordinator",
    "CoordinatorConfig",
    "CorpusJournal",
    "ROUTES",
    "canonical_match_key",
    "default_shard_names",
    "merge_match_payloads",
    "merge_shard_results",
]
