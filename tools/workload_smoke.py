#!/usr/bin/env python3
"""End-to-end smoke of the workload engine (used by CI).

Exercises the *real* deployment shape — a ``repro serve`` subprocess on
a free loopback port — against the headline claims of
``repro.service.workloads``:

1. start the daemon and submit a Figure-9 parameter sweep over
   ``POST /v1/workloads``,
2. **SIGKILL** the daemon mid-sweep (after at least one chunk
   completed, before all did),
3. restart it over the same data directory: crash recovery requeues the
   workload and the run resumes from the completed chunks — asserted on
   unchanged chunk ``finished`` timestamps (provably skipped),
4. assert the merged report is **byte-identical** to the same sweep run
   inline, with no daemon (``canonical_json`` parity),
5. register a custom DSL query over ``POST /v1/queries`` and assert it
   changes ``ccc`` findings identically to local registration,
6. cancel a queued workload and assert the terminal state.

Writes ``workload_smoke.json`` (progress trace + parity verdicts) next
to the data dir or to ``$WORKLOAD_SMOKE_ARTIFACT`` for CI upload.
Exits non-zero with a diagnostic on the first failed step.

Usage::

    python tools/workload_smoke.py [repo-root]
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

#: a sweep big enough to survive a mid-run SIGKILL: 3 x 2 x 3 = 18 cells
SWEEP_PARAMS = {
    "honeypot": {"seed": 7, "counts": {"balance_disorder": 3,
                                       "hidden_transfer": 3,
                                       "skip_empty_string_literal": 3}},
    "ngram_sizes": [2, 3, 4],
    "ngram_thresholds": [0.4, 0.6],
    "similarity_thresholds": [0.5, 0.7, 0.9],
}

QUERY_SPEC = {
    "query_id": "custom-smoke-transfer",
    "category": "Access Control",
    "title": "Ether transfer reachable without access control",
    "select": "ether_transfers",
    "exclude": ["access_controlled"],
}

PAYOUT_SOURCE = """
contract Payout {
    function pay(address to) public { to.transfer(1 ether); }
}
"""


def local_sweep_bytes() -> str:
    """The reference report: the same sweep run inline, no daemon."""
    from repro.api.envelope import canonical_json
    from repro.service.workloads import WORKLOADS, WorkloadContext

    workload = WORKLOADS.get("parameter_sweep")
    params = workload.normalize(SWEEP_PARAMS)
    context = WorkloadContext()
    results = [workload.run_chunk(params, spec, context)
               for spec in workload.decompose(params)]
    return canonical_json(workload.merge(params, results))


def main(argv: list[str]) -> int:
    """Run the smoke sequence; returns a process exit code."""
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path.cwd()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "tests"))
    from cluster_harness import spawn_daemon
    from repro.api import AnalysisSession, SessionConfig, canonical_json
    from repro.ccc.custom import compile_query
    from repro.ccc.registry import register_query, unregister_query
    from repro.service import ServiceClient

    trace: dict = {"steps": []}

    with tempfile.TemporaryDirectory() as data_dir:
        process = spawn_daemon(data_dir)
        print(f"daemon up: {process.stdout_lines[0]}")
        try:
            client = ServiceClient(process.url)
            submitted = client.submit_workload("parameter_sweep",
                                               params=SWEEP_PARAMS)
            job_id = submitted["id"]
            total = None
            print(f"submitted parameter_sweep as job {job_id}")

            # wait for mid-run: >= 2 chunks done, not all — then SIGKILL
            deadline = time.monotonic() + 120.0
            while True:
                if time.monotonic() > deadline:
                    raise SystemExit("sweep never reached mid-run within 120s")
                progress = client.workload(job_id)["progress"]
                total = progress["total"]
                if 2 <= progress["done"] < total:
                    break
                # total is 0 until the scheduler has decomposed the sweep
                if total and progress["done"] >= total:
                    raise SystemExit(
                        "sweep finished before the kill; enlarge SWEEP_PARAMS")
                time.sleep(0.02)
            process.kill()
        finally:
            process.close()
        print(f"SIGKILLed the daemon at {progress['done']}/{total} chunks")
        trace["steps"].append({"killed_at": progress})

        # restart over the same data dir: recovery resumes the sweep
        process = spawn_daemon(data_dir)
        print(f"daemon up: {process.stdout_lines[0]}")
        try:
            client = ServiceClient(process.url)
            status = client.workload(job_id, chunks=True)
            survivors = {row["chunk"]: row["finished"]
                         for row in status["chunks"]
                         if row["state"] == "done"}
            if not survivors:
                raise SystemExit("no completed chunk survived the crash")
            final = client.wait_workload(job_id, timeout=300.0)
            if final["job"]["state"] != "done":
                raise SystemExit(f"resumed sweep ended {final['job']}")
            rows = {row["chunk"]: row["finished"]
                    for row in client.workload(job_id, chunks=True)["chunks"]}
            skipped = [chunk for chunk, stamp in survivors.items()
                       if rows[chunk] == stamp]
            if not skipped:
                raise SystemExit(
                    "every chunk re-ran after the crash; resume is broken")
            print(f"resume: {len(skipped)}/{total} chunk(s) provably "
                  f"skipped (unchanged finished timestamps)")
            daemon_bytes = canonical_json(final["results"][0])
            if daemon_bytes != local_sweep_bytes():
                raise SystemExit(
                    "merged report diverges from the inline run")
            print("byte parity: resumed daemon report == inline run")
            trace["steps"].append({"resume": {"skipped": len(skipped),
                                              "total": total,
                                              "parity": True}})

            # custom query: local and API registration agree byte-for-byte
            register_query(compile_query(QUERY_SPEC))
            with AnalysisSession(SessionConfig(backend="serial")) as session:
                local = [canonical_json(envelope) for envelope in
                         session.run([("payout", PAYOUT_SOURCE)],
                                     analyses=["ccc"])]
            unregister_query(QUERY_SPEC["query_id"])
            client.register_query(QUERY_SPEC)
            listed = {row["query_id"] for row in client.queries()}
            if QUERY_SPEC["query_id"] not in listed:
                raise SystemExit("registered query missing from the listing")
            job = client.submit([["payout", PAYOUT_SOURCE]],
                                analyses=["ccc"])
            finished = client.wait(job["id"], timeout=120.0)
            daemon = [canonical_json(envelope)
                      for envelope in finished["results"]]
            if daemon != local:
                raise SystemExit("custom query findings diverge from local")
            if QUERY_SPEC["query_id"] not in daemon[0]:
                raise SystemExit("custom query produced no finding")
            print("custom query: daemon findings == local registration")
            trace["steps"].append({"custom_query": {"parity": True}})

            # cancellation: a fresh workload cancelled while queued/running
            extra = client.submit_workload("parameter_sweep",
                                           params=SWEEP_PARAMS)
            outcome = client.cancel(extra["id"])
            final_extra = client.wait_workload(extra["id"], timeout=300.0)
            print(f"cancel: job {extra['id']} -> {outcome['state']} -> "
                  f"{final_extra['job']['state']}")
            if final_extra["job"]["state"] not in ("cancelled", "done"):
                raise SystemExit(f"cancel left {final_extra['job']}")
            trace["steps"].append(
                {"cancel": final_extra["job"]["state"]})
            assert process.terminate(timeout=30) == 0, "unclean SIGTERM exit"
        finally:
            process.close()

    artifact = Path(os.environ.get("WORKLOAD_SMOKE_ARTIFACT",
                                   "workload_smoke.json"))
    artifact.parent.mkdir(parents=True, exist_ok=True)
    artifact.write_text(json.dumps(trace, indent=2), encoding="utf-8")
    print(f"workload smoke: OK (trace: {artifact})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
