"""The persistent job queue of the analysis service daemon.

A :class:`JobStore` is one SQLite database (``jobs.sqlite`` inside the
service data directory) holding every submitted job and its results.
Jobs move through a fixed lifecycle::

    queued -> running -> done
                      -> failed
                      -> cancelled

and the whole lifecycle is durable: a daemon killed mid-run loses
nothing.  On startup :meth:`JobStore.recover` moves every ``running``
job back to ``queued`` and drops its partial results, so each job's
envelopes are computed exactly once per completion — no lost jobs, no
duplicated results.  :meth:`JobStore.cancel` drops a queued job
immediately; a running job only gets its ``cancel_requested`` flag set,
and the scheduler honours it at the next safe boundary.

Jobs may additionally carry a **workload** descriptor (``{"kind": ...,
"params": ...}``): instead of analyzer envelopes, such a job executes a
registered :mod:`repro.service.workloads` evaluation workload decomposed
into a deterministic sequence of **chunks** persisted in the
``job_chunks`` table (one row per chunk, canonical-JSON result).
Completed chunk rows *survive* crash recovery — that is what makes a
SIGKILLed parameter sweep resume from where it stopped instead of
recomputing the whole grid.

Jobs carry a **priority lane** (``interactive`` or ``batch``; the
default) and an optional **tenant** label.  :meth:`JobStore.claim_next`
serves the interactive lane first but keeps an *aging credit* for the
batch lane: after ``batch_aging`` consecutive interactive claims made
while a batch job was waiting, the oldest batch job is claimed instead.
Within a lane, claims are strictly FIFO — an all-batch queue (every job
submitted without an explicit priority) behaves exactly like the
pre-lane store.

Results are stored one row per envelope, in completion order, as
*canonical JSON* strings (:func:`repro.api.envelope.canonical_json`).
Storing the exact wire bytes is what lets the HTTP layer serve results
byte-identical to a local :meth:`~repro.api.session.AnalysisSession.run`
— and lets ``GET /v1/jobs/{id}/stream`` serve envelopes incrementally
while the job is still running.

The database opens, migrates and commits through :mod:`repro.core.sqlite`
like every durable store: one connection behind a lock, a WAL journal, a
busy timeout and retried statements, so concurrent daemons (or a daemon
racing the CLI) degrade to waiting instead of failing.  Every
read-then-write sequence runs in one ``BEGIN IMMEDIATE`` transaction.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.core.sqlite import Database

#: the job lifecycle, in order
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: job states that will never change again
TERMINAL_STATES = ("done", "failed", "cancelled")

#: the chunk lifecycle of workload jobs (``job_chunks.state``)
CHUNK_STATES = ("pending", "running", "done", "cancelled")

#: the two scheduling lanes, in claim-preference order
PRIORITY_LANES = ("interactive", "batch")

#: the lane given to jobs submitted without an explicit priority
DEFAULT_PRIORITY = "batch"

#: consecutive interactive claims allowed while a batch job waits
DEFAULT_BATCH_AGING = 4

#: file name of the SQLite database inside a service data directory
JOBS_DATABASE_NAME = "jobs.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id        INTEGER PRIMARY KEY AUTOINCREMENT,
    state     TEXT NOT NULL DEFAULT 'queued',
    analyses  TEXT NOT NULL,
    corpus    TEXT NOT NULL,
    options   TEXT NOT NULL DEFAULT '{}',
    error     TEXT,
    submitted REAL NOT NULL,
    started   REAL,
    finished  REAL
);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs (state, id);
CREATE TABLE IF NOT EXISTS job_results (
    job_id   INTEGER NOT NULL,
    seq      INTEGER NOT NULL,
    envelope TEXT NOT NULL,
    PRIMARY KEY (job_id, seq)
);
CREATE TABLE IF NOT EXISTS job_chunks (
    job_id   INTEGER NOT NULL,
    chunk    INTEGER NOT NULL,
    spec     TEXT NOT NULL,
    state    TEXT NOT NULL DEFAULT 'pending',
    result   TEXT,
    started  REAL,
    finished REAL,
    PRIMARY KEY (job_id, chunk)
);
"""

#: ``jobs`` columns added after its first release, in column order; an
#: older database gains whichever it lacks when it is opened
_COLUMNS = {"jobs": {
    # shard fan-out bookkeeping of the cluster coordinator
    "fanout": "TEXT",
    # pre-lane rows land in the batch lane, keeping their FIFO position
    "priority": f"TEXT NOT NULL DEFAULT '{DEFAULT_PRIORITY}'",
    "tenant": "TEXT",
    "workload": "TEXT",
    "cancel_requested": "INTEGER NOT NULL DEFAULT 0",
}}


def _isoformat(timestamp: Optional[float]) -> Optional[str]:
    """An epoch timestamp as an ISO-8601 UTC string (``None`` passes through)."""
    if timestamp is None:
        return None
    from datetime import datetime, timezone

    return datetime.fromtimestamp(timestamp, timezone.utc).isoformat()


@dataclass(frozen=True)
class Job:
    """One submitted analysis job, as read from the store."""

    job_id: int
    state: str
    #: analyzer ids to run, in order (analysis-major result ordering)
    analyses: tuple
    #: ``[id, source]`` pairs, exactly as submitted
    corpus: list
    #: per-analyzer options forwarded to :meth:`AnalysisSession.run_iter`
    options: dict
    error: Optional[str] = None
    submitted: Optional[float] = None
    started: Optional[float] = None
    finished: Optional[float] = None
    #: shard fan-out bookkeeping written by the cluster coordinator
    #: (``{"shards": {name: remote_job_id}, "degraded": [name, ...]}``);
    #: ``None`` on single-node daemons and before fan-out starts
    fanout: Optional[dict] = None
    #: scheduling lane (``interactive`` or ``batch``)
    priority: str = DEFAULT_PRIORITY
    #: tenant label recorded at submission (``X-Repro-Tenant``), if any
    tenant: Optional[str] = None
    #: workload descriptor (``{"kind": ..., "params": {...}}``) for jobs
    #: executing a registered evaluation workload; ``None`` for plain jobs
    workload: Optional[dict] = None
    #: set by :meth:`JobStore.cancel` on a running job; the scheduler
    #: stops the job at the next chunk boundary when it sees the flag
    cancel_requested: bool = False

    @property
    def elapsed_seconds(self) -> Optional[float]:
        """Wall-clock run time, once the job has started and finished."""
        if self.started is None or self.finished is None:
            return None
        return self.finished - self.started

    def as_dict(self, include_corpus: bool = False) -> dict:
        """The JSON wire form served by ``GET /v1/jobs/{id}``.

        The corpus (potentially megabytes of source) is omitted unless
        ``include_corpus`` is set; ``corpus_size`` always rides along.
        Epoch timestamps are mirrored as ISO-8601 UTC strings
        (``created_at``/``started_at``/``finished_at``) with the wall
        ``duration_seconds`` alongside, so clients need no math.
        """
        data = {
            "id": self.job_id,
            "state": self.state,
            "analyses": list(self.analyses),
            "options": self.options,
            "error": self.error,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "created_at": _isoformat(self.submitted),
            "started_at": _isoformat(self.started),
            "finished_at": _isoformat(self.finished),
            "duration_seconds": self.elapsed_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "corpus_size": len(self.corpus),
            "priority": self.priority,
        }
        if self.tenant is not None:
            data["tenant"] = self.tenant
        if self.fanout is not None:
            data["fanout"] = self.fanout
        if self.workload is not None:
            data["workload"] = self.workload
        if self.cancel_requested:
            data["cancel_requested"] = True
        if include_corpus:
            data["corpus"] = self.corpus
        return data


class JobStore:
    """SQLite-backed persistent job queue (see the module docstring).

    Parameters
    ----------
    path:
        The database file (parent directories are created on demand).
    batch_aging:
        Anti-starvation credit for the batch lane: after this many
        consecutive interactive claims made while a batch job was
        waiting, :meth:`claim_next` serves the batch lane once.
    """

    def __init__(
        self,
        path: Union[str, Path],
        batch_aging: int = DEFAULT_BATCH_AGING,
    ):
        if batch_aging < 1:
            raise ValueError("batch_aging must be >= 1")
        self.batch_aging = batch_aging
        self._interactive_streak = 0
        self.path = Path(path)
        self._connection = Database(self.path, _SCHEMA, _COLUMNS)
        # Created after the column migration: pre-priority databases do
        # not have the column yet when the schema script runs.
        self._connection.execute(
            "CREATE INDEX IF NOT EXISTS jobs_by_lane "
            "ON jobs (state, priority, id)")

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Close the database connection (idempotent)."""
        self._connection.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission and claiming ----------------------------------------------
    def submit(self, corpus: Iterable, analyses: Iterable[str],
               options: Optional[dict] = None,
               priority: Optional[str] = None,
               tenant: Optional[str] = None,
               workload: Optional[dict] = None) -> Job:
        """Enqueue a job; returns it in ``queued`` state with its id assigned.

        Parameters
        ----------
        corpus:
            ``[id, source]`` pairs, stored exactly as submitted.
        analyses:
            Analyzer ids to run, in order.
        options:
            Per-analyzer option mapping.
        priority:
            Scheduling lane; ``None`` means :data:`DEFAULT_PRIORITY`.
        tenant:
            Optional tenant label recorded with the job.
        workload:
            Workload descriptor (``{"kind": ..., "params": {...}}``);
            such a job runs a registered evaluation workload in chunks
            instead of analyzer envelopes over a corpus.
        """
        corpus = [list(pair) for pair in corpus]
        analyses = tuple(analyses)
        options = dict(options or {})
        if priority is None:
            priority = DEFAULT_PRIORITY
        if priority not in PRIORITY_LANES:
            raise ValueError(
                f"priority must be one of {'|'.join(PRIORITY_LANES)}, "
                f"not {priority!r}")
        now = time.time()
        job_id = self._connection.execute(
            "INSERT INTO jobs (state, analyses, corpus, options, "
            "submitted, priority, tenant, workload) "
            "VALUES ('queued', ?, ?, ?, ?, ?, ?, ?)",
            (json.dumps(list(analyses)), json.dumps(corpus),
             json.dumps(options), now, priority, tenant,
             None if workload is None else json.dumps(workload))).lastrowid
        return Job(job_id=job_id, state="queued", analyses=analyses,
                   corpus=corpus, options=options, submitted=now,
                   priority=priority, tenant=tenant, workload=workload)

    def claim_next(self) -> Optional[Job]:
        """Atomically move the next ``queued`` job to ``running`` and return it.

        The interactive lane is served first, FIFO within each lane, but
        a waiting batch job is passed over by at most ``batch_aging``
        consecutive interactive claims before it is served (the aging
        credit), so batch work cannot starve under a steady interactive
        stream.  An all-batch queue drains in strict submission order —
        identical to the pre-lane store.  The claim runs inside
        ``BEGIN IMMEDIATE`` so two daemons sharing one database can
        never claim the same job.
        """
        database = self._connection
        with database.lock:
            with database.transaction():
                heads = dict(database.fetchall(
                    "SELECT priority, MIN(id) FROM jobs "
                    "WHERE state = 'queued' GROUP BY priority"))
                interactive = heads.get("interactive")
                batch = heads.get("batch")
                if interactive is not None and batch is not None:
                    if self._interactive_streak >= self.batch_aging:
                        job_id = batch
                    else:
                        job_id = interactive
                elif interactive is not None:
                    job_id = interactive
                else:
                    job_id = batch
                if job_id is None:
                    return None
                if job_id == batch:
                    self._interactive_streak = 0
                elif batch is not None:
                    # Only count claims that actually pass over a
                    # waiting batch job toward the aging credit.
                    self._interactive_streak += 1
                database.execute(
                    "UPDATE jobs SET state = 'running', started = ? "
                    "WHERE id = ?", (time.time(), job_id))
            return self.get(job_id)

    # -- results --------------------------------------------------------------
    def append_result(self, job_id: int, seq: int, envelope_json: str) -> None:
        """Persist one completed envelope (canonical JSON) under ``seq``."""
        self._connection.execute(
            "REPLACE INTO job_results (job_id, seq, envelope) VALUES (?, ?, ?)",
            (job_id, seq, envelope_json))

    def results(self, job_id: int, after: int = -1) -> list:
        """``(seq, envelope_json)`` rows of a job with ``seq > after``, in order."""
        return self._connection.fetchall(
            "SELECT seq, envelope FROM job_results "
            "WHERE job_id = ? AND seq > ? ORDER BY seq",
            (job_id, after))

    def set_fanout(self, job_id: int, fanout: Optional[dict]) -> None:
        """Record (or clear) a job's shard fan-out bookkeeping.

        The cluster coordinator writes this the moment it has dispatched
        sub-jobs, so a coordinator killed mid-fan-out leaves an explicit
        trace — and :meth:`recover` can wipe it when the job requeues.
        """
        self._connection.execute(
            "UPDATE jobs SET fanout = ? WHERE id = ?",
            (None if fanout is None else json.dumps(fanout), job_id))

    def finish(self, job_id: int, state: str, error: Optional[str] = None) -> None:
        """Move a job to a terminal state (``done``/``failed``/``cancelled``)."""
        if state not in TERMINAL_STATES:
            raise ValueError(f"finish() takes a terminal state, not {state!r}")
        self._connection.execute(
            "UPDATE jobs SET state = ?, error = ?, finished = ? WHERE id = ?",
            (state, error, time.time(), job_id))

    # -- cancellation ---------------------------------------------------------
    def cancel(self, job_id: int) -> Optional[str]:
        """Cancel a job; returns the resulting state, or ``None`` if unknown.

        A ``queued`` job is dropped immediately (state ``cancelled``).
        A ``running`` job only gets its ``cancel_requested`` flag set —
        the scheduler stops it at the next chunk boundary (workloads) or
        after the in-flight run (plain jobs); the returned state is
        ``"cancelling"``.  Terminal jobs are left untouched (their state
        is returned as-is).
        """
        database = self._connection
        with database.transaction():
            row = database.fetchone(
                "SELECT state FROM jobs WHERE id = ?", (job_id,))
            if row is None:
                return None
            state = row[0]
            if state == "queued":
                database.execute(
                    "UPDATE jobs SET state = 'cancelled', finished = ?, "
                    "cancel_requested = 1 WHERE id = ?", (time.time(), job_id))
                database.execute(
                    "UPDATE job_chunks SET state = 'cancelled' "
                    "WHERE job_id = ? AND state != 'done'", (job_id,))
                return "cancelled"
            if state == "running":
                database.execute(
                    "UPDATE jobs SET cancel_requested = 1 WHERE id = ?",
                    (job_id,))
                return "cancelling"
            return state

    def is_cancel_requested(self, job_id: int) -> bool:
        """Whether :meth:`cancel` has flagged this job (chunk-boundary poll)."""
        row = self._connection.fetchone(
            "SELECT cancel_requested FROM jobs WHERE id = ?", (job_id,))
        return bool(row and row[0])

    # -- workload chunks ------------------------------------------------------
    def add_chunks(self, job_id: int, specs: Iterable[str]) -> int:
        """Insert the chunk plan of a workload job; returns rows inserted.

        Chunk indices follow the iteration order of ``specs`` (each one
        a canonical-JSON chunk spec).  Existing rows are left untouched
        (``INSERT OR IGNORE``), which is exactly what a resumed job
        needs: completed chunks keep their results, the rest stay
        pending.
        """
        inserted = 0
        with self._connection.lock:
            for chunk, spec in enumerate(specs):
                cursor = self._connection.execute(
                    "INSERT OR IGNORE INTO job_chunks (job_id, chunk, spec) "
                    "VALUES (?, ?, ?)", (job_id, chunk, spec))
                inserted += cursor.rowcount
        return inserted

    def chunks(self, job_id: int) -> list:
        """Every chunk row of a job, in chunk order, as dicts."""
        rows = self._connection.fetchall(
            "SELECT chunk, spec, state, result, started, finished "
            "FROM job_chunks WHERE job_id = ? ORDER BY chunk", (job_id,))
        return [{"chunk": row[0], "spec": row[1], "state": row[2],
                 "result": row[3], "started": row[4], "finished": row[5]}
                for row in rows]

    def pending_chunks(self, job_id: int) -> list:
        """``(chunk, spec)`` rows not yet ``done``, in chunk order."""
        return self._connection.fetchall(
            "SELECT chunk, spec FROM job_chunks "
            "WHERE job_id = ? AND state != 'done' ORDER BY chunk", (job_id,))

    def start_chunk(self, job_id: int, chunk: int) -> None:
        """Mark one chunk ``running`` and stamp its start time."""
        self._connection.execute(
            "UPDATE job_chunks SET state = 'running', started = ? "
            "WHERE job_id = ? AND chunk = ?", (time.time(), job_id, chunk))

    def finish_chunk(self, job_id: int, chunk: int, result: str,
                     state: str = "done") -> None:
        """Persist one chunk's canonical-JSON result and mark it done."""
        self._connection.execute(
            "UPDATE job_chunks SET state = ?, result = ?, finished = ? "
            "WHERE job_id = ? AND chunk = ?",
            (state, result, time.time(), job_id, chunk))

    def cancel_pending_chunks(self, job_id: int) -> int:
        """Mark every non-``done`` chunk ``cancelled``; returns how many.

        Called by the workload runner when it honours a cancel request
        at a chunk boundary — completed chunk results are kept (a later
        resume picks up from them), the rest are explicitly marked.
        """
        return self._connection.execute(
            "UPDATE job_chunks SET state = 'cancelled' "
            "WHERE job_id = ? AND state != 'done'", (job_id,)).rowcount

    def chunk_progress(self, job_id: int) -> dict:
        """``{"done", "total", "eta"}`` of a workload job's chunk plan.

        ``eta`` is the estimated remaining wall-clock in seconds — mean
        duration of completed chunks times the chunks left — or ``None``
        before the first chunk completes (or once everything is done).
        """
        rows = self._connection.fetchall(
            "SELECT state, started, finished FROM job_chunks "
            "WHERE job_id = ?", (job_id,))
        total = len(rows)
        done = sum(1 for state, _, _ in rows if state == "done")
        durations = [finished - started for state, started, finished in rows
                     if state == "done" and started is not None
                     and finished is not None]
        eta = None
        if durations and done < total:
            eta = (sum(durations) / len(durations)) * (total - done)
        return {"done": done, "total": total, "eta": eta}

    def requeue(self, job_id: int) -> Optional[Job]:
        """Requeue a failed/cancelled workload job, keeping its done chunks.

        Non-``done`` chunks are reset to ``pending`` (results and
        timestamps cleared) and the job returns to ``queued`` with its
        cancel flag cleared, so the next claim resumes the workload from
        the completed chunks.  Returns the requeued job, or ``None``
        when the id is unknown.  Raises :class:`ValueError` for jobs
        that are not in a resumable state (``failed``/``cancelled``).
        """
        database = self._connection
        with database.lock:
            with database.transaction():
                row = database.fetchone(
                    "SELECT state FROM jobs WHERE id = ?", (job_id,))
                if row is None:
                    return None
                if row[0] not in ("failed", "cancelled"):
                    raise ValueError(
                        f"job {job_id} is {row[0]}; only failed or "
                        f"cancelled jobs can be resumed")
                database.execute(
                    "DELETE FROM job_results WHERE job_id = ?", (job_id,))
                database.execute(
                    "UPDATE job_chunks SET state = 'pending', result = NULL, "
                    "started = NULL, finished = NULL "
                    "WHERE job_id = ? AND state != 'done'", (job_id,))
                database.execute(
                    "UPDATE jobs SET state = 'queued', started = NULL, "
                    "finished = NULL, error = NULL, cancel_requested = 0 "
                    "WHERE id = ?", (job_id,))
            return self.get(job_id)

    # -- introspection --------------------------------------------------------
    def get(self, job_id: int) -> Optional[Job]:
        """The job with ``job_id``, or ``None`` when unknown."""
        row = self._connection.fetchone(
            "SELECT id, state, analyses, corpus, options, error, submitted, "
            "started, finished, fanout, priority, tenant, workload, "
            "cancel_requested FROM jobs WHERE id = ?", (job_id,))
        if row is None:
            return None
        return Job(job_id=row[0], state=row[1],
                   analyses=tuple(json.loads(row[2])), corpus=json.loads(row[3]),
                   options=json.loads(row[4]), error=row[5], submitted=row[6],
                   started=row[7], finished=row[8],
                   fanout=None if row[9] is None else json.loads(row[9]),
                   priority=row[10], tenant=row[11],
                   workload=None if row[12] is None else json.loads(row[12]),
                   cancel_requested=bool(row[13]))

    @staticmethod
    def _filter_clause(state: Optional[str], tenant: Optional[str],
                       workload_only: bool = False):
        clauses, parameters = [], []
        if state is not None:
            clauses.append("state = ?")
            parameters.append(state)
        if tenant is not None:
            clauses.append("tenant = ?")
            parameters.append(tenant)
        if workload_only:
            clauses.append("workload IS NOT NULL")
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        return where, parameters

    def list_jobs(self, state: Optional[str] = None, limit: int = 100,
                  offset: int = 0, tenant: Optional[str] = None,
                  workload_only: bool = False) -> list:
        """A page of jobs (newest first), filtered by state and/or tenant.

        Parameters
        ----------
        state:
            Keep only jobs in this state, when given.
        limit:
            Page size (number of jobs returned at most).
        offset:
            Number of matching jobs to skip before the page starts.
        tenant:
            Keep only jobs recorded under this tenant, when given.
        workload_only:
            Keep only workload jobs (``GET /v1/workloads``).
        """
        where, parameters = self._filter_clause(state, tenant, workload_only)
        with self._connection.lock:
            rows = self._connection.fetchall(
                f"SELECT id FROM jobs{where} ORDER BY id DESC LIMIT ? OFFSET ?",
                (*parameters, limit, offset))
            return [self.get(row[0]) for row in rows]

    def count_jobs(self, state: Optional[str] = None,
                   tenant: Optional[str] = None,
                   workload_only: bool = False) -> int:
        """Total number of jobs matching the ``list_jobs`` filters."""
        where, parameters = self._filter_clause(state, tenant, workload_only)
        row = self._connection.fetchone(
            f"SELECT COUNT(*) FROM jobs{where}", tuple(parameters))
        return row[0]

    def states(self, job_ids: Iterable[int]) -> dict:
        """``{job_id: state}`` for every known id in ``job_ids``, in bulk.

        One query instead of one :meth:`get` per id — the gateway uses
        this to prune finished jobs from per-tenant in-flight sets on
        every admission decision.
        """
        ids = [int(job_id) for job_id in job_ids]
        if not ids:
            return {}
        placeholders = ",".join("?" for _ in ids)
        rows = self._connection.fetchall(
            f"SELECT id, state FROM jobs WHERE id IN ({placeholders})",
            tuple(ids))
        return dict(rows)

    def counts(self) -> dict:
        """Jobs per state (every state present, zero when empty)."""
        rows = self._connection.fetchall(
            "SELECT state, COUNT(*) FROM jobs GROUP BY state")
        counts = {state: 0 for state in JOB_STATES}
        counts.update(dict(rows))
        return counts

    def queue_depth(self) -> int:
        """Number of jobs still waiting or running."""
        counts = self.counts()
        return counts["queued"] + counts["running"]

    # -- crash recovery -------------------------------------------------------
    def recover(self) -> int:
        """Requeue jobs left ``running`` by a killed daemon; returns how many.

        Partial results of the interrupted run are dropped, so the rerun
        starts from envelope zero — exactly-once results per completion,
        never a duplicate row.  **Completed workload chunk rows are
        kept** (only chunks caught mid-run go back to ``pending``): the
        requeued workload resumes from its last finished chunk instead
        of recomputing the whole plan.

        Recovery assumes it runs while no other daemon is draining this
        database (the one-daemon-per-data-directory deployment): a
        ``running`` job cannot be distinguished from one a *live* peer
        is executing right now, so recovering next to an active peer
        would requeue — and duplicate — its in-flight work.
        """
        database = self._connection
        with database.transaction():
            rows = database.fetchall(
                "SELECT id FROM jobs WHERE state = 'running'")
            for (job_id,) in rows:
                database.execute(
                    "DELETE FROM job_results WHERE job_id = ?", (job_id,))
                database.execute(
                    "UPDATE job_chunks SET state = 'pending', "
                    "result = NULL, started = NULL, finished = NULL "
                    "WHERE job_id = ? AND state = 'running'", (job_id,))
                database.execute(
                    "UPDATE jobs SET state = 'queued', started = NULL, "
                    "fanout = NULL WHERE id = ?", (job_id,))
            return len(rows)


__all__ = [
    "CHUNK_STATES",
    "DEFAULT_BATCH_AGING",
    "DEFAULT_PRIORITY",
    "JOB_STATES",
    "JOBS_DATABASE_NAME",
    "Job",
    "JobStore",
    "PRIORITY_LANES",
    "TERMINAL_STATES",
]
