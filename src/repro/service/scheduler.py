"""The one queue-draining pool of both daemon roles.

A :class:`Scheduler` owns a small pool of threads, each of which loops:
claim the next ``queued`` job (:meth:`~repro.service.jobstore.JobStore.claim_next`),
hand it to the daemon's ``run`` callable, and record the outcome —
``finish`` the job ``done``, ``failed`` or ``cancelled`` and count it.
The roles differ only in ``run``: a worker
(:class:`~repro.service.server.AnalysisService`) runs the job through
its resident :class:`~repro.api.session.AnalysisSession`, persisting
each envelope as it completes; the cluster coordinator
(:class:`~repro.service.coordinator.ClusterCoordinator`) fans it out to
its shards and merges their envelopes.  ``run`` returns ``None`` when a
graceful stop interrupts it: the job stays ``running`` and the next
daemon over the same data directory requeues it, as after a kill.

The default is one worker, which keeps job execution strictly FIFO.
More workers run jobs concurrently (the artifact store is thread-safe
and every job gets its own analyzer state); a shared
:class:`ReadWriteLock` coordinates them with corpus ingest — jobs are
*readers* of the resident index (or, on a coordinator, of the shard
routing), ingest and rebalance are the exclusive *writers*.

Every loop that still sleeps while it waits on a job — this pool when
idle, the stream endpoint, the coordinator's shard waits,
:meth:`~repro.service.client.ServiceClient.wait` — sleeps
:data:`POLL_INTERVAL`; submissions also :meth:`~Scheduler.notify` the
pool, so for the pool the interval is a fallback, not the latency floor.
"""

from __future__ import annotations

import contextlib
import threading
import traceback
from typing import Callable, Optional, Tuple

from repro.service.jobstore import Job, JobStore

#: seconds every job-waiting loop sleeps between polls
POLL_INTERVAL = 0.05

#: what ``run`` returns: a terminal ``(state, error)``, or ``None`` to
#: leave the job ``running`` for crash recovery (a graceful stop)
Outcome = Optional[Tuple[str, Optional[str]]]


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
    """Drain a :class:`~repro.service.jobstore.JobStore` through ``run``.

    Parameters
    ----------
    jobstore:
        The persistent queue to drain.
    run:
        ``run(job, should_stop) -> (state, error) | None`` executes one
        claimed job.  ``should_stop()`` turns true once :meth:`close`
        was called; ``run`` then returns ``None`` at its next safe point
        and the job is left ``running`` for recovery.  Otherwise the
        pool finishes the job in the returned terminal state; an
        exception fails it with ``"{type}: {message}"``.
    workers:
        Worker thread count (default 1: strict FIFO execution; more
        workers run claimed jobs concurrently).
    work_lock:
        The :class:`ReadWriteLock` coordinating jobs (readers) with
        corpus ingest (the writer); the daemon shares one instance
        between this pool and its ingest path.
    """

    def __init__(
        self,
        jobstore: JobStore,
        run: Callable[[Job, Callable[[], bool]], Outcome],
        workers: int = 1,
        work_lock: Optional[ReadWriteLock] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.jobstore = jobstore
        self.run = run
        self.workers = workers
        self.work_lock = work_lock if work_lock is not None else ReadWriteLock()
        self._threads: list = []
        self._stop = threading.Event()
        self._wakeup = threading.Event()
        self._idle = threading.Condition()
        self._running_jobs = 0
        self._counter_lock = threading.Lock()
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

        Each running job either finishes and is persisted or, if its
        ``run`` honours the stop, stays ``running`` for the next daemon;
        everything still queued stays ``queued``.
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
                job = None
            if job is None:
                self._wakeup.wait(POLL_INTERVAL)
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
        """Run one claimed job, then finish and count it by its outcome."""
        try:
            outcome = self.run(job, self._stop.is_set)
        except Exception as error:  # a failed job must never kill the worker
            traceback.print_exc()
            outcome = ("failed", f"{type(error).__name__}: {error}")
        if outcome is None:
            return  # stopped mid-job: left running, recovery requeues it
        state, error = outcome
        try:
            self.jobstore.finish(job.job_id, state, error=error)
        except RuntimeError:
            pass  # store closed mid-shutdown; recovery requeues the job
        with self._counter_lock:
            if state == "done":
                self.jobs_completed += 1
                if job.priority in self.jobs_by_lane:
                    self.jobs_by_lane[job.priority] += 1
            elif state == "failed":
                self.jobs_failed += 1


__all__ = ["Outcome", "POLL_INTERVAL", "ReadWriteLock", "Scheduler"]
