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
import sys
import tempfile
from pathlib import Path


def main(argv: list[str]) -> int:
    """Run the smoke sequence; returns a process exit code."""
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path.cwd()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "tools"))
    sys.path.insert(0, str(root / "tests"))
    import loadgen
    import wire_transcript
    from cluster_harness import spawn_daemon
    from repro.service import ServiceClient

    with tempfile.TemporaryDirectory() as tmp:
        # -- step 1+2: golden transcript replay ---------------------------
        daemon = spawn_daemon(Path(tmp) / "replay")
        print(f"daemon up: {daemon.stdout_lines[0]}")
        url = daemon.url
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
            assert daemon.terminate(timeout=30) == 0, "unclean SIGTERM exit"
            print("daemon shut down cleanly")
        finally:
            daemon.close()

        # -- step 3: shed under a deliberate burst ------------------------
        gateway = spawn_daemon(
            Path(tmp) / "burst",
            extra=("--max-pending-jobs", "8", "--workers", "1"))
        print(f"daemon up: {gateway.stdout_lines[0]}")
        gateway_url = gateway.url
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
            assert gateway.terminate(timeout=30) == 0, "unclean SIGTERM exit"
            print("daemon shut down cleanly")
        finally:
            gateway.close()

    print("gateway smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
