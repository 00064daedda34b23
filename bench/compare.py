"""Compare two sets of benchmark results, workload by workload.

    python bench/compare.py SET_A SET_B [--layers]

Each set is a directory of result files written by ``bench/run.py``, or
one such file (a single run, or the combined file of an all-workloads
run).  For every workload and end-to-end metric it prints each
set's median and quartiles and a verdict against the metric's bound, B
relative to A.  The bound is the workload's own from ``bench/spec.json``
where one is set there (steady workloads get a tighter one), else the
``BENCHMARK.json`` bound of the metric:

* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B's median is better by more than A's own spread
  (interquartile range over median), and B wins at least nine tenths of
  all (A, B) run pairs;
* ``unresolved``: a set's spread exceeds the bound and the runs do not
  all separate (every B run better, or every B run worse, than every A run);
* ``unchanged``: otherwise.

Any rise in a workload's failed ratio (failed / attempted) is ``worse``.
``--layers`` also lists per-layer medians of traced runs (no verdicts:
per-layer metrics have no bound).  Exits 1 when anything is worse or
unresolved.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK = BENCH_DIR.parent / "BENCHMARK.json"
SPEC = BENCH_DIR / "spec.json"


def load_results(path: Path) -> list:
    """Every single-run result in ``path``: a result file, a combined file, or a directory.

    A directory contributes its single-run files only: an all-workloads
    run writes those next to the combined file that repeats them.
    """
    if not path.is_dir():
        data = json.loads(path.read_text())
        return data["runs"] if "runs" in data else [data]
    results = []
    for file in sorted(path.glob("*.json")):
        data = json.loads(file.read_text())
        if "workload" in data:
            results.append(data)
    return results


def spread(values: list) -> float:
    """Interquartile range over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def summary(values: list) -> str:
    """``median [q1, q3] (n)``."""
    if len(values) < 2:
        return f"{values[0]:.4g} (n=1)" if values else "-"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}] (n={len(values)})"


def verdict(a: list, b: list, better: str, bound: float) -> str:
    """B's verdict relative to A for one metric (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worsening = sign * (median_b - median_a) / abs(median_a)
    pairs = [(x, y) for x in a for y in b]
    wins = sum(1 for x, y in pairs if sign * y < sign * x) / len(pairs)
    losses = sum(1 for x, y in pairs if sign * y > sign * x) / len(pairs)
    if max(spread(a), spread(b)) > bound:
        return "better" if wins == 1.0 else "worse" if losses == 1.0 else "unresolved"
    if worsening > bound:
        return "worse"
    if -worsening > spread(a) and wins >= 0.9:
        return "better"
    return "unchanged"


def failed_ratio(results: list) -> float:
    """Failed operations over attempted ones, across ``results``."""
    attempted = sum(result["attempted"] for result in results)
    return sum(result["failed"] for result in results) / attempted if attempted else 0.0


def compare(set_a: list, set_b: list, benchmark: dict, bounds: dict,
            layers: bool = False) -> tuple:
    """``(report lines, number of worse or unresolved verdicts)``.

    ``bounds`` maps a workload to its own ``{metric: bound}``; a metric
    without one there falls back to its ``BENCHMARK.json`` bound.
    """
    lines, bad = [], 0
    for workload in (workload["name"] for workload in benchmark["workloads"]):
        def runs(results, traced, workload=workload):
            return [r for r in results if r["workload"] == workload and bool(r["trace"]) == traced]

        runs_a, runs_b = runs(set_a, False), runs(set_b, False)
        if not runs_a or not runs_b:
            lines.append(f"{workload}: skipped (runs: A {len(runs_a)}, B {len(runs_b)})")
            continue
        lines.append(f"{workload}:")
        ratio_a, ratio_b = failed_ratio(runs_a), failed_ratio(runs_b)
        failed_verdict = "worse" if ratio_b > ratio_a else "unchanged"
        bad += failed_verdict == "worse"
        lines.append(f"  {'failed_ratio':<20} A {ratio_a:.4g}  B {ratio_b:.4g}  {failed_verdict}")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in runs_a if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in runs_b if name in r["metrics"]]
            if not a or not b:
                lines.append(f"  {name:<20} missing (A {len(a)}, B {len(b)})")
                bad += 1
                continue
            bound = bounds.get(workload, {}).get(name, metric["bound"])
            result = verdict(a, b, metric["better"], bound)
            bad += result in ("worse", "unresolved")
            change = (statistics.median(b) - statistics.median(a)) / abs(statistics.median(a))
            lines.append(f"  {name:<20} A {summary(a):<36} B {summary(b):<36} "
                         f"{change:+7.2%} (bound {bound:.0%})  {result}")
        if layers:
            traced_a, traced_b = runs(set_a, True), runs(set_b, True)
            for metric in benchmark["per_layer"]:
                name = metric["name"]
                a = [r["metrics"][name]["value"] for r in traced_a if name in r["metrics"]]
                b = [r["metrics"][name]["value"] for r in traced_b if name in r["metrics"]]
                if a and b:
                    lines.append(f"    {name:<46} A {statistics.median(a):<12.5g} "
                                 f"B {statistics.median(b):<12.5g} {metric['unit']}")
    return lines, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark results.")
    parser.add_argument("set_a", type=Path, help="set A: a directory of result files, or one file")
    parser.add_argument("set_b", type=Path, help="set B: a directory of result files, or one file")
    parser.add_argument("--layers", action="store_true",
                        help="also list per-layer medians of traced runs")
    args = parser.parse_args(argv)
    lines, bad = compare(load_results(args.set_a), load_results(args.set_b),
                         json.loads(BENCHMARK.read_text()),
                         json.loads(SPEC.read_text())["bounds"], args.layers)
    print("\n".join(lines))
    print(f"{bad} metric(s) worse or unresolved" if bad else "no metric worse or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
