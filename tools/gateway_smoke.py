#!/usr/bin/env python3
"""End-to-end smoke of the asyncio transport (used by CI).

Exercises the *real* deployment shape — ``repro serve`` subprocesses on
free loopback ports — rather than in-process servers:

1. replay the shared part of the golden worker transcript
   (``tests/wire_transcript.py``) against a fresh daemon and assert
   every answer is **byte-identical** to the recording: status,
   ``Content-Type``, body, and stream chunk framing,
2. assert the gateway block of ``/v1/stats`` reports live keep-alive
   counters,
3. restart the daemon with a tiny ``--max-pending-jobs`` bound and
   drive a ``tools/loadgen.py`` burst into it: every request must be
   *answered* (202 accepted or 429/503 shed with ``Retry-After``) —
   shed load, never hang,
4. SIGTERM each daemon and assert clean exits (code 0).

Exits non-zero with a diagnostic on the first failed step.

Usage::

    python tools/gateway_smoke.py [repo-root]
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path


def start_daemon(root: Path, data_dir: str, *extra_args: str) -> tuple:
    """Start ``repro serve`` on a free port; returns (process, url)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--data-dir", data_dir,
         "--port", "0", "--backend", "serial", *extra_args],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    line = process.stdout.readline().strip()
    if "http://" not in line:
        process.kill()
        raise SystemExit(f"daemon did not announce a URL, said: {line!r}")
    url = next(part for part in line.split() if part.startswith("http://"))
    print(f"daemon up: {line}")
    return process, url


def stop_daemon(process: subprocess.Popen) -> None:
    """SIGTERM the daemon and assert a clean, prompt exit."""
    process.send_signal(signal.SIGTERM)
    try:
        code = process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        raise SystemExit("daemon did not shut down within 30s of SIGTERM")
    if code != 0:
        raise SystemExit(f"daemon exited with code {code} on SIGTERM")
    print("daemon shut down cleanly")


def main(argv: list[str]) -> int:
    """Run the smoke sequence; returns a process exit code."""
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path.cwd()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "tools"))
    sys.path.insert(0, str(root / "tests"))
    import loadgen
    import wire_transcript
    from repro.service import ServiceClient

    with tempfile.TemporaryDirectory() as tmp:
        # -- step 1+2: golden transcript replay ---------------------------
        daemon, url = start_daemon(root, str(Path(tmp) / "replay"))
        try:
            ServiceClient(url).wait_ready()
            actual: list = []
            wire_transcript.shared_requests(
                wire_transcript.Recorder(actual, url), url)
            expected = wire_transcript.load()["worker"][:len(actual)]
            for got, want in zip(actual, expected):
                if got != want:
                    raise SystemExit(
                        f"transcript diverged on {want['request']}: "
                        f"recorded {want} vs served {got}")
            print(f"transcript: {len(actual)} exchanges byte-identical "
                  f"to the recording")
            stats = ServiceClient(url).stats()["gateway"]
            assert stats["requests"] > 0, stats
            print(f"gateway stats: {stats['requests']} requests over "
                  f"{stats['connections_opened']} connection(s)")
        finally:
            stop_daemon(daemon)

        # -- step 3: shed under a deliberate burst ------------------------
        gateway, gateway_url = start_daemon(
            root, str(Path(tmp) / "burst"),
            "--max-pending-jobs", "8", "--workers", "1")
        try:
            result = loadgen.run_load(
                gateway_url, clients=64, requests_per_client=2,
                interactive_fraction=0.25, timeout=30.0)
            print(f"burst: {result.requests} requests -> "
                  f"{result.accepted} accepted, {result.shed} shed, "
                  f"{result.errors} errors, {result.hung} hung "
                  f"(p99 {result.percentile(0.99) * 1000.0:.0f} ms)")
            if result.hung or result.errors:
                raise SystemExit("gateway hung or errored under burst load")
            if result.accepted + result.shed != result.requests:
                raise SystemExit("some burst requests went unanswered")
            if not result.shed:
                raise SystemExit(
                    "burst never tripped the 8-job queue bound — "
                    "the shed path went unexercised")
            shed_stats = ServiceClient(gateway_url).stats()["gateway"]["shed"]
            assert shed_stats["queue_full"] > 0, shed_stats
            print(f"shed counters: {json.dumps(shed_stats)}")
        finally:
            stop_daemon(gateway)

    print("gateway smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
