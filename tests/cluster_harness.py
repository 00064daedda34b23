"""Subprocess harness for cluster tests: real daemons, real kills.

The in-process fixtures of ``tests/test_service.py`` are great for
byte-parity assertions, but the durability claims of the cluster — a
worker killed mid-job, a coordinator killed mid-fan-out — only mean
something against *real* operating-system processes.  This module
spawns them: each daemon is ``python -m repro serve`` run as a
subprocess on an ephemeral port, scraped from the machine-readable
``PORT=<n>`` line the CLI prints on startup.

Used by ``tests/test_service_cluster.py`` and (via a ``sys.path``
insert) by the four smoke scripts ``tools/*_smoke.py``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

#: how long to wait for a spawned daemon to print its PORT line
SPAWN_TIMEOUT = 60.0

#: refused-connection retry budget of harness clients (rides out startup)
CLIENT_CONNECT_TIMEOUT = 10.0


def _daemon_environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


class DaemonProcess:
    """One spawned daemon subprocess (worker or coordinator)."""

    def __init__(self, process: subprocess.Popen, data_dir: Path,
                 role: str, argv: List[str]):
        self.process = process
        self.data_dir = Path(data_dir)
        self.role = role
        self.argv = argv
        self.port: Optional[int] = None
        self.stdout_lines: List[str] = []
        self.stderr_lines: List[str] = []
        self._port_seen = threading.Event()
        # drain both pipes for the process lifetime so neither ever fills
        self._stdout_reader = threading.Thread(target=self._drain_stdout,
                                               daemon=True)
        self._stderr_reader = threading.Thread(target=self._drain_stderr,
                                               daemon=True)
        self._stdout_reader.start()
        self._stderr_reader.start()

    def _drain_stderr(self) -> None:
        for line in self.process.stderr:
            self.stderr_lines.append(line.rstrip("\n"))

    def _drain_stdout(self) -> None:
        for line in self.process.stdout:
            line = line.rstrip("\n")
            self.stdout_lines.append(line)
            if line.startswith("PORT="):
                try:
                    self.port = int(line.split("=", 1)[1])
                except ValueError:
                    pass
                self._port_seen.set()
        self._port_seen.set()  # EOF: unblock waiters even on crash

    def wait_port(self, timeout: float = SPAWN_TIMEOUT) -> int:
        """Block until the daemon printed ``PORT=<n>``; returns the port."""
        self._port_seen.wait(timeout)
        if self.port is None:
            if not self.alive():
                self._stderr_reader.join(timeout=5)
            raise RuntimeError(
                f"daemon never printed PORT= (argv: {self.argv!r}, "
                f"stdout: {self.stdout_lines!r}, "
                f"stderr: {self.stderr_lines!r})")
        return self.port

    @property
    def url(self) -> str:
        """Base URL (requires the port to have been scraped)."""
        return f"http://127.0.0.1:{self.port}"

    def client(self, connect_timeout: float = CLIENT_CONNECT_TIMEOUT):
        """A :class:`ServiceClient` for this daemon, retrying refusals."""
        from repro.service import ServiceClient

        return ServiceClient(self.url, connect_timeout=connect_timeout)

    def alive(self) -> bool:
        """Whether the subprocess is still running."""
        return self.process.poll() is None

    def kill(self) -> None:
        """SIGKILL — the crash the durability tests simulate."""
        if self.alive():
            self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=30)

    def terminate(self, timeout: float = 30.0) -> int:
        """SIGTERM and wait — the graceful shutdown path."""
        if self.alive():
            self.process.send_signal(signal.SIGTERM)
        self.process.wait(timeout=timeout)
        return self.process.returncode

    def close(self) -> None:
        """Ensure the process is gone and its pipes are closed."""
        try:
            self.kill()
        except Exception:  # noqa: BLE001 — teardown best-effort
            pass
        for reader in (self._stdout_reader, self._stderr_reader):
            reader.join(timeout=5)  # EOF follows the exit
        for stream in (self.process.stdout, self.process.stderr):
            if stream is not None:
                stream.close()


def spawn_daemon(data_dir, *, role: str = "worker", port: int = 0,
                 workers: Sequence[str] = (), backend: str = "serial",
                 extra: Sequence[str] = (),
                 timeout: float = SPAWN_TIMEOUT) -> DaemonProcess:
    """Spawn one ``repro serve`` subprocess and scrape its port."""
    argv = [sys.executable, "-m", "repro", "serve",
            "--data-dir", str(data_dir), "--port", str(port), "--role", role]
    if role == "coordinator":
        argv += ["--workers", ",".join(workers)]
    else:
        argv += ["--backend", backend]
    argv += list(extra)
    process = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=_daemon_environment(), cwd=str(REPO_ROOT))
    daemon = DaemonProcess(process, Path(data_dir), role, argv)
    try:
        daemon.wait_port(timeout)
    except Exception:
        daemon.close()
        raise
    return daemon


class Cluster:
    """A coordinator plus N worker subprocesses, as one handle."""

    def __init__(self, coordinator: DaemonProcess,
                 workers: List[DaemonProcess], base_dir: Path,
                 coordinator_extra: Tuple[str, ...]):
        self.coordinator = coordinator
        self.workers = workers
        self.base_dir = Path(base_dir)
        self.coordinator_extra = coordinator_extra

    def client(self, connect_timeout: float = CLIENT_CONNECT_TIMEOUT):
        """A client for the coordinator."""
        return self.coordinator.client(connect_timeout)

    def worker_urls(self) -> List[str]:
        return [worker.url for worker in self.workers]

    def restart_worker(self, index: int, timeout: float = SPAWN_TIMEOUT) -> DaemonProcess:
        """Respawn one (killed) worker on its old port and data dir.

        Workers keep their port across restarts so the coordinator's
        configured URL stays valid — exactly like a production worker
        coming back on its stable address.
        """
        old = self.workers[index]
        daemon = spawn_daemon(old.data_dir, role="worker", port=old.port,
                              timeout=timeout)
        self.workers[index] = daemon
        old.close()
        return daemon

    def restart_coordinator(self, worker_urls: Optional[Sequence[str]] = None,
                            timeout: float = SPAWN_TIMEOUT) -> DaemonProcess:
        """Respawn the (killed) coordinator over its old data dir and port."""
        old = self.coordinator
        daemon = spawn_daemon(
            old.data_dir, role="coordinator", port=old.port,
            workers=worker_urls if worker_urls is not None else self.worker_urls(),
            extra=self.coordinator_extra, timeout=timeout)
        self.coordinator = daemon
        old.close()
        return daemon

    def add_worker(self, timeout: float = SPAWN_TIMEOUT) -> DaemonProcess:
        """Spawn one more worker subprocess (not yet known to the ring)."""
        daemon = spawn_daemon(
            self.base_dir / f"worker-{len(self.workers)}", role="worker",
            timeout=timeout)
        self.workers.append(daemon)
        return daemon

    def stop(self) -> None:
        """Tear every process down (best-effort, coordinator first)."""
        for daemon in [self.coordinator] + self.workers:
            daemon.close()


def spawn_cluster(base_dir, n: int, *,
                  coordinator_extra: Sequence[str] = (),
                  worker_extra: Sequence[str] = (),
                  timeout: float = SPAWN_TIMEOUT) -> Cluster:
    """Spawn N workers plus a coordinator fronting them, all ready."""
    base_dir = Path(base_dir)
    workers = []
    try:
        for index in range(n):
            workers.append(spawn_daemon(
                base_dir / f"worker-{index}", role="worker",
                extra=worker_extra, timeout=timeout))
        coordinator = spawn_daemon(
            base_dir / "coordinator", role="coordinator",
            workers=[worker.url for worker in workers],
            extra=coordinator_extra, timeout=timeout)
    except Exception:
        for worker in workers:
            worker.close()
        raise
    cluster = Cluster(coordinator, workers, base_dir,
                      tuple(coordinator_extra))
    cluster.client().wait_ready(timeout)
    return cluster
