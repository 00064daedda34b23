#!/usr/bin/env python3
"""End-to-end smoke of the analysis service daemon (used by CI).

Exercises the *real* deployment shape — a ``repro serve`` subprocess on
a free loopback port — rather than an in-process server:

1. start the daemon (``--port 0``) and parse the bound URL from stdout,
2. ingest a small synthetic contract corpus over ``POST /v1/corpus``,
3. submit ``ccd`` + ``ccc`` jobs and assert their results,
4. assert stream/poll parity and the /v1/stats counters,
5. SIGTERM the daemon and assert a clean exit (code 0),
6. restart it over the same data directory and assert the index
   reloaded (durability smoke).

Exits non-zero with a diagnostic on the first failed step.

Usage::

    python tools/service_smoke.py [repo-root]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path


def main(argv: list[str]) -> int:
    """Run the smoke sequence; returns a process exit code."""
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path.cwd()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "tests"))
    from cluster_harness import spawn_daemon
    from repro.datasets.sanctuary import generate_sanctuary
    from repro.datasets.snippets import generate_qa_corpus
    from repro.service import ServiceClient

    qa_corpus = generate_qa_corpus(
        seed=3, posts_per_site={"stackoverflow": 4, "ethereum.stackexchange": 8})
    sanctuary = generate_sanctuary(qa_corpus, seed=11, independent_contracts=4)
    contracts = [[contract.address, contract.source]
                 for contract in sanctuary.contracts]
    snippets = [[snippet.snippet_id, snippet.text]
                for post in qa_corpus.posts for snippet in post.snippets][:8]

    with tempfile.TemporaryDirectory() as data_dir:
        daemon = spawn_daemon(data_dir, backend="thread")
        print(f"daemon up: {daemon.stdout_lines[0]}")
        try:
            client = ServiceClient(daemon.url)
            assert client.healthz()["status"] == "ok"

            summary = client.ingest(contracts)
            assert summary["ingested"] > 0, summary
            print(f"ingested {summary['ingested']} contracts "
                  f"({summary['shards_rewritten']} shard(s) written)")

            job = client.submit(snippets, analyses=["ccd", "ccc"])
            finished = client.wait(job["id"], timeout=120.0)
            results = finished["results"]
            assert finished["job"]["state"] == "done"
            assert len(results) == 2 * len(snippets), len(results)
            ccd = [r for r in results if r["analyzer"] == "ccd"]
            ccc = [r for r in results if r["analyzer"] == "ccc"]
            assert len(ccd) == len(ccc) == len(snippets)
            matched = sum(1 for r in ccd if r["payload"])
            flagged = sum(1 for r in ccc if r["payload"]
                          and r["payload"].get("findings"))
            print(f"job {job['id']}: {matched}/{len(snippets)} snippets "
                  f"clone-matched, {flagged} flagged vulnerable")
            assert matched > 0, "no snippet matched the ingested corpus"

            streamed = list(client.stream(job["id"]))
            assert streamed == results, "stream/poll results diverge"

            stats = client.stats()
            assert stats["jobs"]["done"] >= 1, stats["jobs"]
            assert stats["index"]["documents"] == summary["documents"]
            print(f"stats: {stats['jobs']['done']} done, index "
                  f"{stats['index']['documents']} documents, store hit rate "
                  f"{stats['store']['hit_rate']:.1%}")
            assert daemon.terminate(timeout=30) == 0, "unclean SIGTERM exit"
            print("daemon shut down cleanly")
        finally:
            daemon.close()

        # durability: a second daemon over the same data dir has the index
        daemon = spawn_daemon(data_dir, backend="thread")
        print(f"daemon up: {daemon.stdout_lines[0]}")
        try:
            stats = ServiceClient(daemon.url).stats()
            assert stats["index"]["documents"] == len(contracts), stats["index"]
            print(f"restart: index reloaded with "
                  f"{stats['index']['documents']} documents")
            assert daemon.terminate(timeout=30) == 0, "unclean SIGTERM exit"
            print("daemon shut down cleanly")
        finally:
            daemon.close()

    print("service smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
