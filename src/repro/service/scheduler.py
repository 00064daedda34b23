"""The worker pool draining the job queue through one resident session.

A :class:`Scheduler` owns a small pool of threads, each of which loops:
claim the oldest ``queued`` job (:meth:`~repro.service.jobstore.JobStore.claim_next`),
run it through the shared resident
:class:`~repro.api.session.AnalysisSession`, persist each envelope as it
completes, and mark the job ``done`` or ``failed``.  All jobs share the
session's single warm :class:`~repro.core.artifacts.ArtifactStore` and
loaded CCD index, which is the whole point of the daemon: the corpus is
parsed and indexed once per *process*, not once per request.

Jobs run through :meth:`AnalysisSession.run_iter` (the streaming entry
point over :meth:`Executor.imap_batches`), so envelopes land in the job
store incrementally — ``GET /v1/jobs/{id}/stream`` serves them while the
job is still running.

The default is one worker, which keeps job execution strictly FIFO.
More workers run jobs concurrently (the artifact store is thread-safe
and every job gets its own analyzer state); a shared
:class:`ReadWriteLock` coordinates them with corpus ingest — jobs are
*readers* of the resident index, ingest is the exclusive *writer*,
because appending to the live N-gram index while a clone query walks
its postings is not safe.
"""

from __future__ import annotations

import contextlib
import threading
import traceback
from typing import Callable, Optional

from repro.api.envelope import canonical_json
from repro.api.session import AnalysisSession
from repro.service.jobstore import Job, JobStore


class ReadWriteLock:
    """Many concurrent readers or one exclusive writer (writer-preferring).

    Scheduler workers hold the read side while running a job (they only
    *query* the resident index); corpus ingest holds the write side (it
    mutates the index).  Writers are preferred: once an ingest is
    waiting, new jobs queue behind it instead of starving it.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writers_waiting = 0
        self._writing = False

    @contextlib.contextmanager
    def read(self):
        """Hold shared access for the duration of the ``with`` block."""
        with self._cond:
            self._cond.wait_for(
                lambda: not self._writing and not self._writers_waiting)
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @contextlib.contextmanager
    def write(self):
        """Hold exclusive access for the duration of the ``with`` block."""
        with self._cond:
            self._writers_waiting += 1
            try:
                self._cond.wait_for(
                    lambda: not self._writing and self._readers == 0)
                self._writing = True
            finally:
                self._writers_waiting -= 1
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


class Scheduler:
    """Drain a :class:`~repro.service.jobstore.JobStore` through a session.

    Parameters
    ----------
    session:
        The resident analysis session every job runs through.
    jobstore:
        The persistent queue to drain.
    resolve_options:
        Optional hook mapping a claimed :class:`Job` to the options dict
        passed to ``run_iter`` — the service uses it to inject the
        resident clone-detector index into ``ccd`` jobs.
    workers:
        Worker thread count (default 1: strict FIFO execution; more
        workers run claimed jobs concurrently).
    poll_interval:
        Idle wait between queue polls; submissions also :meth:`notify`
        the pool so the wait is a fallback, not the latency floor.
    work_lock:
        The :class:`ReadWriteLock` coordinating jobs (readers) with
        corpus ingest (the writer); the service shares one instance
        between this pool and its ingest path.
    """

    def __init__(
        self,
        session: AnalysisSession,
        jobstore: JobStore,
        resolve_options: Optional[Callable[[Job], dict]] = None,
        workers: int = 1,
        poll_interval: float = 0.1,
        work_lock: Optional[ReadWriteLock] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.session = session
        self.jobstore = jobstore
        self.resolve_options = resolve_options
        self.workers = workers
        self.poll_interval = poll_interval
        self.work_lock = work_lock if work_lock is not None else ReadWriteLock()
        self._threads: list = []
        self._stop = threading.Event()
        self._wakeup = threading.Event()
        self._idle = threading.Condition()
        self._running_jobs = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        #: completed jobs per priority lane, for /v1/stats
        self.jobs_by_lane = {"interactive": 0, "batch": 0}

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        if self._threads:
            return
        self._stop.clear()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-service-worker-{index}",
                daemon=True)
            thread.start()
            self._threads.append(thread)

    def notify(self) -> None:
        """Wake idle workers after a submission."""
        self._wakeup.set()

    def close(self) -> None:
        """Stop the pool and join every worker (idempotent, graceful).

        The job a worker is currently running finishes and is persisted;
        everything still queued stays ``queued`` for the next daemon.
        """
        self._stop.set()
        self._wakeup.set()
        for thread in self._threads:
            thread.join()
        self._threads = []

    # -- draining -------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until the queue is empty and no job is running.

        Returns ``False`` on timeout.  Used by tests, the smoke harness,
        and ``repro submit --wait`` against an in-process service.
        """
        with self._idle:
            return self._idle.wait_for(
                lambda: self._running_jobs == 0 and self.jobstore.queue_depth() == 0,
                timeout=timeout)

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            try:
                job = self.jobstore.claim_next()
            except RuntimeError:
                return  # store closed under us during shutdown
            except Exception:  # noqa: BLE001 - a worker must outlive sqlite hiccups
                # e.g. sqlite3.OperationalError after the busy retries are
                # exhausted: log, back off, and keep draining — a dead
                # worker would leave the daemon healthy-looking but inert
                traceback.print_exc()
                self._wakeup.wait(self.poll_interval)
                self._wakeup.clear()
                continue
            if job is None:
                self._wakeup.wait(self.poll_interval)
                self._wakeup.clear()
                continue
            with self._idle:
                self._running_jobs += 1
            try:
                with self.work_lock.read():
                    self._run_job(job)
            finally:
                with self._idle:
                    self._running_jobs -= 1
                    self._idle.notify_all()

    def _run_job(self, job: Job) -> None:
        """Run one claimed job; persist envelopes incrementally; finish it."""
        try:
            if job.workload is not None:
                self._run_workload(job)
                return
            if job.cancel_requested:
                # cancelled between claim and execution: honour it here,
                # before any envelope is computed
                self.jobstore.finish(job.job_id, "cancelled")
                return
            options = (self.resolve_options(job)
                       if self.resolve_options is not None else job.options)
            corpus = [tuple(pair) for pair in job.corpus]
            for seq, envelope in enumerate(self.session.run_iter(
                    corpus, analyses=list(job.analyses), options=options)):
                self.jobstore.append_result(
                    job.job_id, seq, canonical_json(envelope))
            self.jobstore.finish(job.job_id, "done")
            self.jobs_completed += 1
            if job.priority in self.jobs_by_lane:
                self.jobs_by_lane[job.priority] += 1
        except Exception as error:  # a failed job must never kill the worker
            self.jobs_failed += 1
            try:
                self.jobstore.finish(
                    job.job_id, "failed", error=f"{type(error).__name__}: {error}")
            except RuntimeError:
                pass  # store closed mid-shutdown; recovery requeues the job

    def _run_workload(self, job: Job) -> None:
        """Run one workload job chunk by chunk (see ``service.workloads``).

        A graceful pool shutdown mid-workload leaves the job ``running``
        (outcome ``paused``): crash recovery requeues it on the next
        start and the completed chunks are reused, exactly like a crash.
        """
        from repro.service.workloads import run_workload_job

        outcome = run_workload_job(
            job, self.jobstore, session=self.session,
            should_stop=self._stop.is_set)
        if outcome == "paused":
            return
        self.jobstore.finish(job.job_id, outcome)
        if outcome == "done":
            self.jobs_completed += 1
            if job.priority in self.jobs_by_lane:
                self.jobs_by_lane[job.priority] += 1


__all__ = ["ReadWriteLock", "Scheduler"]
