"""Run the repository benchmark: one workload, or all four.

One workload (what ``BENCHMARK.json``'s ``command`` runs)::

    python3 bench/run.py --workload jobs --seed 3 --seconds 12 --trace 0

prints every metric by name with its unit and sample count, checks the
program's outputs, writes one stamped result file under
``bench/_work/results/`` (or ``--out``) and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics.  It exits non-zero
on any failed gate or operation, and with code 2 without a result when
the program or its pinned inputs are missing.

All four workloads, each in a fresh process::

    python bench/run.py [--seed N] [--trace] [--out FILE] [--quick]

``--trace`` adds a traced run of each workload after its untraced run,
so the traced result also reports the tracing overhead.  ``--quick``
shrinks every run to a smoke test (1 s, one set-up, small samples).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from harness import (
    RESULTS_DIR,
    ROOT,
    WORK_DIR,
    BenchError,
    Tracer,
    load_benchmark,
    load_spec,
    require_program,
    self_times,
    serve_flags,
)

WORKLOAD_NAMES = ("study", "jobs", "batch", "edits")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see bench/README.md).")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all four, "
                             "each in a fresh process)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed: the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json "
                             "run_seconds; 1 with --quick)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: traced run reporting per-layer metrics")
    parser.add_argument("--out", type=Path, default=None, help="result file to write")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes: short runs, one set-up, small samples")
    args = parser.parse_args(argv)
    try:
        require_program()
        benchmark = load_benchmark()
    except (BenchError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(benchmark["run_seconds"])
    if args.workload is None:
        return run_all(args)
    # SIGTERM unwinds like an exception, so every daemon is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run_one(args, benchmark)


def run_one(args, benchmark: dict) -> int:
    """Run ``args.workload`` once; print its metrics and the result line."""
    from workloads import WORKLOADS, Context

    spec = load_spec()
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    work_dir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(bool(args.trace))
    try:
        flags = serve_flags() if args.workload != "study" or args.trace else []
        ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace),
                      args.quick, spec, tracer, work_dir, flags)
        outcome = WORKLOADS[args.workload](ctx)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    base = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    out = args.out or RESULTS_DIR / f"{base}.json"
    gated = benchmark["per_layer" if args.trace else "end_to_end"]
    source = outcome.layers if args.trace else outcome.metrics
    metrics = {metric["name"]: {"value": source[metric["name"]], "unit": metric["unit"]}
               for metric in gated if source.get(metric["name"]) is not None}
    missing = [metric["name"] for metric in gated if metric["name"] not in metrics
               and metric["name"] not in outcome.dropped]
    if missing:
        outcome.check("metrics_emitted", False, f"not measured: {', '.join(missing)}")
    correct = outcome.failed == 0 and all(check["ok"] for check in outcome.checks.values())
    units = {metric["name"]: metric["unit"] for metric in benchmark["end_to_end"]}
    end_to_end = {name: {"value": value, "unit": units[name],
                         "samples": outcome.samples.get(name)}
                  for name, value in outcome.metrics.items()}
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick,
        "correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": metrics, "end_to_end": end_to_end, "report": outcome.report,
        "checks": outcome.checks, "dropped": outcome.dropped,
        "inputs_sha256": {name: inputs["sha256"] for name, inputs in spec["inputs"].items()},
        "environment": environment(args, spec),
    }
    if args.trace:
        spans_file = out.with_suffix(".spans.json")
        tracer.write(spans_file)
        result.update(layers=outcome.layers, spans_file=str(spans_file),
                      self_times=self_times(tracer.spans),
                      tracing_overhead=tracing_overhead(args, end_to_end))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))
    print_summary(result, gated)
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


def tracing_overhead(args, traced: dict) -> dict:
    """Each traced end-to-end value minus the newest untraced one (same seed)."""
    pattern = f"{args.workload}-seed{args.seed}-trace0-*.json"
    candidates = sorted(RESULTS_DIR.glob(pattern), key=lambda path: path.stat().st_mtime)
    for path in reversed(candidates):
        untraced = json.loads(path.read_text())
        if untraced.get("seconds") == args.seconds and untraced.get("quick") == args.quick:
            return {"untraced_result": path.name, **{
                name: {"delta": value["value"] - untraced["end_to_end"][name]["value"],
                       "unit": value["unit"]}
                for name, value in traced.items()
                if value["value"] is not None
                and (untraced["end_to_end"].get(name) or {}).get("value") is not None}}
    return {"untraced_result": None,
            "note": "no untraced run of this workload, seed and length to compare with"}


def print_summary(result: dict, gated: list) -> None:
    """Human-readable block: metrics with units and sample counts, then the gates."""
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']:g}  trace {result['trace']}")
    for name, value in list(result["end_to_end"].items()) + list(result["report"].items()):
        shown = "n/a (fewer than 10 samples beyond)" if value["value"] is None \
            else f"{value['value']:>14.4f} {value['unit']}"
        print(f"  {name:<28} {shown} ({value['samples']} samples)")
    if result["trace"]:
        for metric in gated:
            value = result["metrics"].get(metric["name"])
            if value is not None:
                print(f"  {metric['name']:<44} {value['value']:>14.6g} {metric['unit']}")
        for name, row in sorted(result["self_times"].items()):
            print(f"  span {name:<30} n={row['count']:<6} total {row['total_s']:.4f} s  "
                  f"self {row['self_s']:.4f} s")
        print(f"  tracing overhead: {json.dumps(result['tracing_overhead'])}")
    for name, check in result["checks"].items():
        print(f"  check {name:<18} {'ok ' if check['ok'] else 'FAIL'} {check['detail']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")


def environment(args, spec: dict) -> dict:
    """Where and how this result was measured."""
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "seeds": {"workload": args.seed,
                  "inputs": {name: {key: value for key, value in inputs.items()
                                    if key.endswith("seed")}
                             for name, inputs in spec["inputs"].items()}},
    }


def git_sha():
    """The checkout's commit, read from ``.git`` (``None`` outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_all(args) -> int:
    """Every workload in a fresh process; one combined, stamped result file."""
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    runs, status = [], 0
    for workload in WORKLOAD_NAMES:
        for trace in ((0, 1) if args.trace else (0,)):
            out = RESULTS_DIR / f"{workload}-seed{args.seed}-trace{trace}-{stamp}.json"
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--out", str(out)]
            if args.quick:
                command.append("--quick")
            code = subprocess.run(command, cwd=ROOT, timeout=600).returncode
            status = status or code
            if out.is_file():
                runs.append(json.loads(out.read_text()))
    combined = {"environment": environment(args, load_spec()), "runs": runs}
    out = args.out or RESULTS_DIR / f"all-seed{args.seed}-{stamp}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(combined, indent=1))
    print(f"results: {out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
