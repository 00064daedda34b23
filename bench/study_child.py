"""One Figure-6 study run in a fresh process (the ``study`` workload's unit).

Prints ``READY`` once the interpreter, the package and the seeded inputs
are loaded (the parent times spawn-to-ready as set-up), then runs the
study and prints ``RESULT <json>``: its wall time, the canonical report's
sha256, accuracy against the generators' ground truth, artifact-store
counters, this process's peak resident set and, when traced, the stage
spans.

Run by ``bench/run.py``; by hand::

    python bench/study_child.py --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from harness import (
    generate_corpus,
    load_spec,
    peak_rss_mb,
    require_program,
    run_study,
    shuffled,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    require_program()
    qa, sanctuary = generate_corpus(load_spec()["inputs"]["corpus"])
    # the study's results do not depend on contract order (the pinned
    # report digest checks that), so the seed permutes it
    contracts = shuffled(sanctuary.contracts, args.seed)
    print("READY", flush=True)
    outcome = run_study(qa, contracts, sanctuary, traced=bool(args.trace))
    outcome["peak_rss_mb"] = peak_rss_mb(os.getpid())
    print("RESULT " + json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
