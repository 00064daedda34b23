"""The daemon core, and the worker daemon: an HTTP API over one warm session.

:class:`Daemon` is what both daemon roles share: the durable job store
and its crash recovery, the :class:`~repro.service.scheduler.Scheduler`
draining it, the ingest/job read-write lock, the gateway lifecycle, job
submission and cancellation, custom-query registration, and the common
``/v1/stats`` counters.  Its two roles differ only in how they run a
claimed job and what they hold: the worker here, and the cluster
coordinator (:class:`~repro.service.coordinator.ClusterCoordinator`).

:class:`AnalysisService`, the worker, keeps the expensive state of the
reproduction *resident* — one :class:`~repro.api.session.AnalysisSession`
(a warm parse-once artifact store plus an executor pool) and one live
:class:`~repro.ccd.detector.CloneDetector` index — and serves analysis
jobs over HTTP.  Every batch entry point pays index/parse warm-up per
invocation; the daemon pays it once per process and amortizes it over
every request.

The endpoints (``POST /v1/jobs``, ``GET /v1/jobs/{id}[/stream]``,
``POST /v1/corpus``, ``GET /v1/stats``, ...) are the worker route table,
:data:`repro.service.routes.WORKER_ROUTES`, served by the asyncio
transport :class:`~repro.service.gateway.AsyncGateway` — stdlib only, no
third-party web framework.  ``docs/service.md`` is the full reference.

Durability: jobs live in a :class:`~repro.service.jobstore.JobStore`
(SQLite) and survive restarts — on startup, jobs a killed daemon left
``running`` are requeued and drained again.  The worker's corpus state —
source journal, CCD index rows, parse failures and pair-score memo — is
one SQLite file, ``corpus.sqlite``; each ingest commits to it in one
transaction, and a restart reloads the index from it with zero parses.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.api.envelope import canonical_json
from repro.api.registry import REGISTRY
from repro.api.session import AnalysisSession, SessionConfig
from repro.ccd.detector import CloneDetector
from repro.ccd.index_io import (
    CORPUS_DATABASE_NAME,
    SCHEMA,
    append_to_index,
    read_index,
    refuse_legacy_layout,
    write_configuration,
)
from repro.ccd.matcher import DEFAULT_SIMILARITY_BACKEND, resolve_similarity_backend
from repro.ccd.score_memo import ScoreMemoTable
from repro.core.artifacts import content_key
from repro.core.fileio import dump_json
from repro.core.sqlite import Database
from repro.service.delta import DeltaError, SourceJournal, resolve_ingest_documents
from repro.service.gateway import AsyncGateway, GatewayConfig
from repro.service.jobstore import (
    DEFAULT_BATCH_AGING,
    JOBS_DATABASE_NAME,
    PRIORITY_LANES,
    Job,
    JobStore,
)
from repro.service.routes import WORKER_ROUTES, RouteTable, ServiceValidationError
from repro.service.scheduler import Outcome, ReadWriteLock, Scheduler
from repro.service.workloads import (
    WorkloadError,
    run_workload_job,
    validate_workload_request,
)

#: every HTTP route the daemon serves, read off its route table — kept
#: in lockstep with ``docs/service.md`` by ``tools/check_api.py``
ROUTES = WORKER_ROUTES.endpoints

#: file inside the data dir persisting registered custom query specs
QUERIES_FILE_NAME = "queries.json"

#: subdirectory of the data dir holding the disk artifact cache
CACHE_DIRECTORY_NAME = "cache"


def validate_sources(sources, what: str) -> list:
    """Validate a ``[[id, source], ...]`` wire list into ``(id, source)`` pairs."""
    if not isinstance(sources, (list, tuple)) or not sources:
        raise ServiceValidationError(
            f"{what!r} must be a non-empty list of [id, source] pairs")
    validated = []
    for pair in sources:
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not isinstance(pair[0], (str, int))
                or not isinstance(pair[1], str)):
            raise ServiceValidationError(
                f"every item of {what!r} must be an [id, source] pair "
                f"(id: string or integer, source: string)")
        validated.append((pair[0], pair[1]))
    return validated


def validate_job_request(sources, analyses, options, registry) -> tuple:
    """Validate one job submission; returns ``(sources, analyses, options)``.

    Shared by the single-node daemon and the cluster coordinator (which
    validates against the global registry before fanning out), so a bad
    request is rejected with the same 400 on every topology.
    """
    sources = validate_sources(sources, what="sources")
    if not isinstance(analyses, (list, tuple)) or not analyses:
        raise ServiceValidationError(
            "'analyses' must be a non-empty list of analyzer ids")
    for analyzer_id in analyses:
        if not isinstance(analyzer_id, str):
            raise ServiceValidationError(
                "'analyses' must contain analyzer id strings")
        if analyzer_id not in registry:
            raise ServiceValidationError(
                f"unknown analyzer {analyzer_id!r}; registered: "
                f"{', '.join(registry.ids())}")
        if registry.get(analyzer_id).scope != "contract":
            raise ServiceValidationError(
                f"analyzer {analyzer_id!r} is corpus-scope and needs "
                f"typed dataset inputs; the service API only runs "
                f"contract-scope analyzers")
    if options is None:
        options = {}
    if not isinstance(options, dict):
        raise ServiceValidationError("'options' must be an object")
    for analyzer_id, analyzer_options in options.items():
        if not isinstance(analyzer_options, dict):
            raise ServiceValidationError(
                f"'options.{analyzer_id}' must be an object")
    ccd_options = options.get("ccd", {})
    if "similarity_backend" in ccd_options:
        try:
            resolve_similarity_backend(ccd_options["similarity_backend"])
        except (TypeError, ValueError) as error:
            raise ServiceValidationError(
                f"'options.ccd.similarity_backend': {error}") from None
    return sources, list(analyses), options


def validate_priority(priority) -> str:
    """Validate a wire ``priority`` field into a lane name.

    ``None`` (field omitted) means the default batch lane, so clients
    predating priority lanes keep their exact scheduling behavior.
    """
    if priority is None:
        return "batch"
    if priority not in PRIORITY_LANES:
        raise ServiceValidationError(
            f"'priority' must be one of {'|'.join(PRIORITY_LANES)}")
    return priority


def validate_document_ids(document_ids, what: str) -> list:
    """Validate a wire list of document ids (string or integer)."""
    if document_ids is None:
        return []
    if not isinstance(document_ids, (list, tuple)) or any(
            not isinstance(document_id, (str, int))
            for document_id in document_ids):
        raise ServiceValidationError(
            f"{what!r} must be a list of document ids (string or integer)")
    return list(document_ids)


@dataclass(frozen=True)
class DaemonConfig:
    """The settings both daemon roles share.

    Bind address, data directory, the gateway's admission bounds, and
    the job queue's lane aging; :class:`ServiceConfig` and
    :class:`~repro.service.coordinator.CoordinatorConfig` extend it with
    their role's own knobs.
    """

    #: directory holding ``jobs.sqlite`` and the role's own state
    data_dir: str = "repro-service"
    host: str = "127.0.0.1"
    #: TCP port; ``0`` binds an ephemeral free port (see ``port`` property)
    port: int = 8741
    #: emit one access-log line per request to stderr
    log_requests: bool = False
    #: queued+running jobs beyond this are shed with 503
    max_pending_jobs: int = 256
    #: open connections beyond this are shed with 503
    max_connections: int = 1024
    #: path of a TOML/JSON per-tenant quota file
    tenant_quotas: Optional[str] = None
    #: coalesce concurrent identical job submissions
    coalesce: bool = True
    #: interactive claims a waiting batch job tolerates before it is served
    batch_aging: int = DEFAULT_BATCH_AGING


@dataclass(frozen=True)
class ServiceConfig(DaemonConfig):
    """Typed configuration of an :class:`AnalysisService` daemon.

    Extends the shared :class:`DaemonConfig` with the session knobs of
    :class:`~repro.api.session.SessionConfig` and the worker's own
    scheduler worker count.  The data directory holds ``jobs.sqlite``,
    ``corpus.sqlite`` and ``cache/``.
    """

    #: executor backend of the resident session
    backend: str = "thread"
    max_workers: Optional[int] = None
    chunk_size: int = 8
    #: scheduler worker threads (1 = strict FIFO job execution)
    workers: int = 1
    #: disk artifact cache under ``data_dir/cache`` (warm restarts)
    cache: bool = True
    #: CCD configuration of the resident index (must match a reloaded one)
    ngram_size: int = 3
    fingerprint_block_size: int = 2
    fingerprint_window: int = 4
    ngram_threshold: float = 0.5
    similarity_threshold: float = 0.7
    similarity_backend: str = DEFAULT_SIMILARITY_BACKEND
    checker_timeout: Optional[float] = None
    stream_window: int = 4

    def session_config(self) -> SessionConfig:
        """The resident session this daemon configuration describes."""
        cache_dir = str(Path(self.data_dir) / CACHE_DIRECTORY_NAME) \
            if self.cache else None
        return SessionConfig(
            backend=self.backend,
            max_workers=self.max_workers,
            chunk_size=self.chunk_size,
            cache_dir=cache_dir,
            ngram_size=self.ngram_size,
            fingerprint_block_size=self.fingerprint_block_size,
            fingerprint_window=self.fingerprint_window,
            ngram_threshold=self.ngram_threshold,
            similarity_threshold=self.similarity_threshold,
            similarity_backend=self.similarity_backend,
            checker_timeout=self.checker_timeout,
            stream_window=self.stream_window,
        )


class Daemon:
    """The core both daemon roles share: queue, scheduler, gateway, submission.

    Constructing a daemon performs crash recovery on its job store
    (requeueing jobs a killed daemon left ``running``) and reloads the
    custom queries it registered; :meth:`start` spawns the
    :class:`~repro.service.scheduler.Scheduler` and binds the HTTP
    gateway.  Use as a context manager, or pair :meth:`start`/:meth:`stop`
    (both idempotent).

    A role sets :attr:`route_table` and implements ``_run`` (run one
    claimed job, returning its outcome) and ``_close`` (release its own
    state once the scheduler has stopped).
    """

    #: the ``/v1/*`` route table this role serves
    route_table: RouteTable

    def __init__(self, config: DaemonConfig, workers: int = 1):
        self.config = config
        self.data_dir = Path(config.data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.started_at = time.time()
        self.jobstore = JobStore(self.data_dir / JOBS_DATABASE_NAME,
                                 batch_aging=config.batch_aging)
        #: jobs requeued from a previous daemon's crash, for /v1/stats
        self.recovered_jobs = self.jobstore.recover()
        #: jobs hold the read side, ingest (and rebalance) the write side
        self._work_lock = ReadWriteLock()
        self.scheduler = Scheduler(self.jobstore, self._run, workers=workers,
                                   work_lock=self._work_lock)
        self._gateway: Optional[AsyncGateway] = None
        self._stop_requested = threading.Event()
        self._stopped = False
        self.queries_path = self.data_dir / QUERIES_FILE_NAME
        #: custom queries reloaded from a previous daemon's registrations
        self.reloaded_queries = load_custom_queries(self.queries_path)

    def _run(self, job: Job, should_stop) -> Outcome:
        """Run one claimed job; see :class:`~repro.service.scheduler.Scheduler`."""
        raise NotImplementedError

    def _close(self) -> None:
        """Release the role's own state after the scheduler has stopped."""

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Start draining the queue and bind the HTTP front end (idempotent)."""
        if self._gateway is not None:
            return
        self.scheduler.start()
        self._gateway = AsyncGateway(
            self, self.route_table, GatewayConfig.from_service_config(self.config))
        self._gateway.start()

    @property
    def port(self) -> int:
        """The actually bound TCP port (resolves ``port=0`` requests)."""
        if self._gateway is not None:
            return self._gateway.port
        return self.config.port

    @property
    def url(self) -> str:
        """Base URL of the running daemon."""
        return f"http://{self.config.host}:{self.port}"

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to return (signal-handler safe)."""
        self._stop_requested.set()

    def stop(self) -> None:
        """Graceful shutdown: HTTP first, then the scheduler, then state.

        Idempotent.  A running worker job finishes and is persisted; a
        running workload, or a coordinator fan-out, stays ``running`` and
        is requeued by the next daemon over the same data directory, as
        after a kill.  Queued jobs stay queued.
        """
        if self._stopped:
            return
        self._stopped = True
        self._stop_requested.set()
        if self._gateway is not None:
            self._gateway.stop()
            self._gateway = None
        self.scheduler.close()
        self._close()
        self.jobstore.close()

    def serve_forever(self) -> None:
        """Run until :meth:`request_stop` (or Ctrl-C), then shut down."""
        self.start()
        try:
            self._stop_requested.wait()
        except KeyboardInterrupt:
            pass
        self.stop()

    def __enter__(self) -> "Daemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- operations (shared by the route tables, the CLI, and tests) ----------
    def submit(self, sources, analyses, options: Optional[dict] = None,
               priority: Optional[str] = None,
               tenant: Optional[str] = None) -> Job:
        """Validate and enqueue a job, waking the scheduler.

        Parameters
        ----------
        sources:
            ``[[id, source], ...]`` wire pairs to analyze.
        analyses:
            Analyzer ids to run, in order.
        options:
            Per-analyzer option mapping.
        priority:
            Scheduling lane (``interactive`` or ``batch``; the default);
            a coordinator forwards it to every shard sub-job.
        tenant:
            Tenant label recorded with the job (``X-Repro-Tenant``).
        """
        sources, analyses, options = validate_job_request(
            sources, analyses, options, REGISTRY)
        priority = validate_priority(priority)
        job = self.jobstore.submit(sources, analyses, options,
                                   priority=priority, tenant=tenant)
        self.scheduler.notify()
        return job

    def submit_workload(self, body, tenant: Optional[str] = None) -> Job:
        """Validate and enqueue one workload job, waking the scheduler.

        ``body`` is the ``POST /v1/workloads`` wire object (``kind`` +
        ``params`` + optional ``priority``/``chunks``); the validated
        descriptor is persisted with the job so a restarted daemon can
        resume it from its completed chunks.  Decomposition is a pure
        function of the params, so a coordinator and its workers agree
        on the chunk grid.
        """
        try:
            descriptor = validate_workload_request(body)
        except WorkloadError as error:
            raise ServiceValidationError(str(error)) from error
        priority = validate_priority(body.get("priority"))
        job = self.jobstore.submit(
            [], [], priority=priority, tenant=tenant, workload=descriptor)
        self.scheduler.notify()
        return job

    def cancel_job(self, job_id: int) -> Optional[str]:
        """Cancel one job; returns its (possibly unchanged) state.

        Queued jobs are dropped immediately; running workloads stop at
        the next chunk boundary (a coordinator also cancels its shard
        sub-jobs), and their completed chunks stay persisted for a later
        resume; terminal jobs are left untouched.  Returns ``None`` for
        unknown ids.
        """
        return self.jobstore.cancel(job_id)

    def resume_workload(self, job_id: int) -> Job:
        """Requeue a failed/cancelled workload job, reusing done chunks."""
        job = self.jobstore.get(job_id)
        if job is None:
            raise KeyError(job_id)
        if job.workload is None:
            raise ServiceValidationError(
                f"job {job_id} is not a workload job")
        try:
            job = self.jobstore.requeue(job_id)
        except ValueError as error:
            raise ServiceValidationError(str(error)) from error
        self.scheduler.notify()
        return job

    def register_query_spec(self, spec) -> dict:
        """Validate, register, and persist one custom DSL query.

        The spec is pure data (see :mod:`repro.ccc.custom`) — nothing in
        it is executed.  Registered specs are persisted to
        ``queries.json`` in the data dir and reloaded on daemon startup,
        so a custom query survives restarts like the rest of the state.
        """
        return register_custom_query(spec, self.queries_path)

    def queries_payload(self) -> dict:
        """The ``GET /v1/queries`` body: every active ccc query."""
        return custom_queries_payload()

    def stats(self) -> dict:
        """The ``/v1/stats`` payload: queue counters plus the role's own."""
        scheduler = self.scheduler
        payload = {
            "uptime_seconds": time.time() - self.started_at,
            "jobs": self.jobstore.counts(),
            "jobs_completed": scheduler.jobs_completed,
            "jobs_failed": scheduler.jobs_failed,
            "jobs_by_lane": dict(scheduler.jobs_by_lane),
            "recovered_jobs": self.recovered_jobs,
            **self._role_stats(),
        }
        if self._gateway is not None:
            payload["gateway"] = self._gateway.gateway_stats()
        return payload

    def _role_stats(self) -> dict:
        """The role-specific ``/v1/stats`` fields."""
        raise NotImplementedError

    def _ingest_request(self, documents, remove, journal) -> tuple:
        """Validate one ingest request into ``(documents, remove)``.

        Delta objects (diffs, ``base_version`` guards) resolve against
        ``journal``'s retained sources, so the ingest path only ever sees
        full ``(id, source)`` pairs; duplicate ids within one batch
        collapse to the last occurrence.
        """
        remove = validate_document_ids(remove, what="remove")
        if documents is None and remove:
            documents = []
        else:
            try:
                documents = resolve_ingest_documents(documents, journal.get)
            except DeltaError as error:
                raise ServiceValidationError(str(error)) from error
        documents = list({document_id: (document_id, source)
                          for document_id, source in documents}.values())
        return documents, remove


class AnalysisService(Daemon):
    """The worker daemon: warm session + live index + queue + HTTP API.

    Constructing the service performs crash recovery (see
    :class:`Daemon`) and reloads the persisted CCD index with zero
    parses; :meth:`start` binds the HTTP server and spawns the scheduler
    workers.  Use as a context manager, or pair :meth:`start`/:meth:`stop`
    (both idempotent).
    """

    route_table = WORKER_ROUTES

    def __init__(self, config: Optional[ServiceConfig] = None):
        config = config if config is not None else ServiceConfig()
        # the index directory of a data dir from before corpus.sqlite
        refuse_legacy_layout(Path(config.data_dir) / "index")
        super().__init__(config, workers=config.workers)
        self.session = AnalysisSession(config.session_config())
        #: the corpus state: source journal, index rows, parse failures
        #: and score memo, written together in one transaction per ingest
        self.database = Database(self.data_dir / CORPUS_DATABASE_NAME,
                               SCHEMA + SourceJournal.schema())
        self.detector = self._open_detector()
        #: retained sources backing the diff ingest form and `repro watch`
        self.source_journal = SourceJournal(self.database)

    def _open_detector(self) -> CloneDetector:
        """Reload the persisted index (zero parses) or start an empty one."""
        config = self.config
        detector = read_index(self.database, store=self.session.store)
        if detector is not None:
            # the structural parameters (N-gram size, fuzzy-hash shape) are
            # baked into the persisted artifacts and validated by the load;
            # the thresholds and the verification backend are query-time
            # knobs (δ is pure, so neither the artifacts nor the score memo
            # depend on the backend) and follow the daemon configuration,
            # so /v1/stats never misreports the live values
            detector.ngram_threshold = config.ngram_threshold
            detector.similarity_threshold = config.similarity_threshold
            detector.matcher.backend = resolve_similarity_backend(
                config.similarity_backend)
            return detector
        detector = CloneDetector(
            ngram_size=config.ngram_size,
            ngram_threshold=config.ngram_threshold,
            similarity_threshold=config.similarity_threshold,
            fingerprint_block_size=config.fingerprint_block_size,
            fingerprint_window=config.fingerprint_window,
            store=self.session.store,
            similarity_backend=config.similarity_backend,
            # write-through from the first ingest: pair scores computed by
            # this daemon are warm for the next one over the same data dir
            score_memo=ScoreMemoTable(self.database),
        )
        with self.database.transaction():
            write_configuration(self.database, detector)
        return detector

    def _close(self) -> None:
        """Close the resident session and the corpus database."""
        self.session.close()
        self.database.close()

    @contextmanager
    def _ingest_transaction(self):
        """One ingest's transaction; a rollback rolls the live index back too."""
        try:
            with self.database.transaction():
                yield
        except BaseException:
            # the rows were rolled back: reload the live index from them, so
            # a retry is not taken for an unchanged re-ingest
            self.detector = self._open_detector()
            raise

    def _run(self, job: Job, should_stop) -> Outcome:
        """Run one claimed job through the resident session.

        Envelopes are persisted as they complete, so the stream endpoint
        serves them while the job runs.  A workload runs chunk by chunk
        and returns ``None`` when ``should_stop`` pauses it.
        """
        if job.workload is not None:
            outcome = run_workload_job(job, self.jobstore, session=self.session,
                                       should_stop=should_stop)
            return None if outcome == "paused" else (outcome, None)
        if job.cancel_requested:
            # cancelled between claim and execution: honour it here,
            # before any envelope is computed
            return "cancelled", None
        corpus = [tuple(pair) for pair in job.corpus]
        for seq, envelope in enumerate(self.session.run_iter(
                corpus, analyses=list(job.analyses),
                options=self._job_options(job))):
            self.jobstore.append_result(job.job_id, seq, canonical_json(envelope))
        return "done", None

    # -- operations (shared by the route table, the CLI, and tests) -----------
    def ingest(self, documents, remove=()) -> dict:
        """Add documents to the live CCD index and persist them incrementally.

        New sources become matchable immediately — no restart, no full
        re-index: the in-memory N-gram index is appended live, and the
        request's journal, index, parse-failure and score-memo rows
        commit in one transaction, so a crash keeps all or none of them.
        Unparsable documents are reported in ``rejected``, and
        re-ingesting a known id replaces its indexed fingerprint — a
        known id re-ingested with unparsable source is *retired* from
        the index (in memory and on disk) rather than left matchable.

        Each ``documents`` item is a classic ``[id, source]`` pair or a
        delta object (``{"id", "source"|"diff", "base_version"}``; see
        :mod:`repro.service.delta`) — diffs are applied against the
        retained copy of the source, and a stale ``base_version`` is
        rejected with 400.  Re-ingesting byte-identical source is a
        no-op (reported in ``unchanged``): zero parses, zero score-memo
        transitions, zero rows written for that document.

        ``remove`` lists document ids to drop from the index entirely
        (the cluster coordinator uses this to rebalance shards); ids the
        index never held are ignored.  Removals are applied before the
        ingests of the same call.
        """
        documents, remove = self._ingest_request(
            documents, remove, self.source_journal)
        with self._work_lock.write():  # exclusive: no matching during mutation
            detector = self.detector
            unchanged, parsed = [], []
            for document_id, source in documents:
                source_key = content_key(source)
                if (document_id not in remove
                        and detector.source_keys.get(document_id) == source_key
                        and document_id in detector.fingerprints):
                    # no-op fast path: identical bytes change nothing, so
                    # skip the retire/rebuild (and the row writes) entirely
                    unchanged.append(document_id)
                else:
                    # parse before the transaction, so the database lock
                    # (which /v1/stats takes too) is held only for the writes
                    parsed.append((document_id, source, source_key,
                                   *detector.try_fingerprint(source)))
            with self._ingest_transaction():
                ingested, rejected, retired, removed = [], [], [], []
                for document_id in remove:
                    if detector.remove_fingerprint(document_id) is not None:
                        removed.append(document_id)
                        self.source_journal.forget(document_id)
                    if document_id in detector.parse_failures:
                        detector.parse_failures.remove(document_id)
                for document_id, source, source_key, fingerprint, grams in parsed:
                    previously_indexed = document_id in detector.fingerprints
                    if detector.add_fingerprint(document_id, fingerprint,
                                                grams=grams, source_key=source_key):
                        ingested.append(document_id)
                        self.source_journal.record(document_id, source, source_key)
                        # a fixed re-ingest clears the old failure record
                        if document_id in detector.parse_failures:
                            detector.parse_failures.remove(document_id)
                        continue
                    rejected.append(document_id)
                    if previously_indexed:
                        # replace semantics: an unparsable re-ingest retires
                        # the stale fingerprint instead of leaving it matchable
                        # (and releases its subs from the score memo)
                        detector.remove_fingerprint(document_id)
                        retired.append(document_id)
                        self.source_journal.forget(document_id)
                # one failure record per document, however often it was re-posted
                detector.parse_failures[:] = dict.fromkeys(detector.parse_failures)
                append_to_index(detector, self.database,
                                [*remove, *ingested, *rejected])
        return {
            "ingested": len(ingested),
            "rejected": rejected,
            "removed": removed,
            "unchanged": len(unchanged),
            "documents": len(self.detector),
            "parse_failures": len(self.detector.parse_failures),
        }

    def corpus(self) -> dict:
        """The ``GET /v1/corpus`` payload: which ids this index holds.

        The cluster harness uses this to assert that routed ingest put
        every document on exactly the shard the hash ring predicts.
        """
        with self._work_lock.read():  # a stable snapshot against ingest
            document_ids = sorted(self.detector.fingerprints, key=str)
        return {"count": len(document_ids), "documents": document_ids}

    def health(self) -> dict:
        """The ``/v1/healthz`` payload: liveness plus queue depth."""
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self.started_at,
            "queue_depth": self.jobstore.queue_depth(),
        }

    def _role_stats(self) -> dict:
        """The worker's ``/v1/stats`` fields: cache, index, and match counters."""
        store_stats = self.session.stats.as_dict()
        store_stats["hit_rate"] = self.session.stats.hit_rate
        return {
            "store": store_stats,
            "index": {
                "documents": len(self.detector),
                "parse_failures": len(self.detector.parse_failures),
                "similarity_backend": self.detector.similarity_backend,
            },
            "score_memo": self.detector.score_memo.as_dict(),
            "match_stats": dataclasses.asdict(self.detector.match_stats),
            # the incremental-analysis counters, next to score_memo: how
            # much function-level work re-ingest and re-analysis reused
            "incremental": {
                "function_hits": self.session.stats.function_hits,
                "function_misses": self.session.stats.function_misses,
                "function_parses": self.session.stats.function_parses,
                "delta_assemblies": self.session.stats.delta_assemblies,
                "delta_fallbacks": self.session.stats.delta_fallbacks,
                "functions_reused": self.detector.match_stats.functions_reused,
                "functions_reanalyzed":
                    self.detector.match_stats.functions_reanalyzed,
                "sources_retained": self.source_journal.count(),
            },
            "config": {
                "backend": self.config.backend,
                "workers": self.config.workers,
                "ngram_size": self.config.ngram_size,
                "similarity_threshold": self.config.similarity_threshold,
            },
        }

    def _job_options(self, job: Job) -> dict:
        """Thread the resident index into ``ccd`` jobs (unless opted out).

        The resident index is authoritative even when empty — an
        un-ingested daemon answers ``ccd`` jobs with zero matches rather
        than silently switching to self-indexing the submitted sources
        (``{"ccd": {"resident": false}}`` requests that explicitly).
        """
        options = {key: dict(value) if isinstance(value, dict) else value
                   for key, value in job.options.items()}
        if "ccd" in job.analyses:
            ccd_options = options.setdefault("ccd", {})
            if ccd_options.pop("resident", True):
                ccd_options["detector"] = self.detector
        return options


def load_custom_queries(path: Path) -> int:
    """Re-register the custom DSL query specs persisted at ``path``.

    Called at daemon startup (single-node and coordinator alike) so a
    custom query registered over the API survives restarts; returns the
    number of queries reloaded (0 when the file does not exist yet).
    """
    from repro.ccc.custom import compile_query
    from repro.ccc.registry import register_query
    if not path.exists():
        return 0
    specs = json.loads(path.read_text(encoding="utf-8"))
    for spec in specs:
        register_query(compile_query(spec), replace=True)
    return len(specs)


def register_custom_query(spec, path: Path) -> dict:
    """Validate, register, and persist one custom DSL query spec.

    The spec never executes — it compiles onto the fixed predicate
    vocabulary of :mod:`repro.ccc.custom`.  The stored file at ``path``
    keeps one normalized spec per query id, so re-registering an id
    replaces its definition.  The file is written before the query is
    registered, so a failed write leaves the earlier definition live and
    on disk.  Raises :class:`ServiceValidationError` on a malformed spec
    (mapped to HTTP 400).
    """
    from repro.ccc.custom import QuerySpecError, compile_query
    from repro.ccc.registry import register_query, registered_queries
    try:
        query = compile_query(spec)
    except (QuerySpecError, ValueError) as error:
        raise ServiceValidationError(str(error)) from error
    specs = [existing.spec for existing in registered_queries()
             if hasattr(existing, "spec")
             and existing.query_id != query.query_id]
    specs.append(query.spec)
    # temp sibling + rename: a failed write leaves the previous file whole
    dump_json(path, specs)
    register_query(query, replace=True)
    return {"query": query.spec}


def custom_queries_payload() -> dict:
    """The ``GET /v1/queries`` body: every active ccc query.

    Built-ins first (paper order), then custom queries in registration
    order, each flagged ``"custom"`` so clients can tell them apart.
    """
    from repro.ccc.registry import BUILTIN_QUERY_IDS, all_queries
    return {"queries": [
        {
            "query_id": query.query_id,
            "category": query.category.value,
            "title": query.title,
            "custom": query.query_id not in BUILTIN_QUERY_IDS,
        }
        for query in all_queries()
    ]}


__all__ = [
    "AnalysisService",
    "CACHE_DIRECTORY_NAME",
    "Daemon",
    "DaemonConfig",
    "QUERIES_FILE_NAME",
    "ROUTES",
    "ServiceConfig",
    "ServiceValidationError",
    "custom_queries_payload",
    "load_custom_queries",
    "register_custom_query",
    "validate_document_ids",
    "validate_job_request",
    "validate_priority",
    "validate_sources",
]
