"""Tests of the benchmark itself: ``python -m pytest bench/``.

Covers the percentile rule, the pinned input digests, the verdict
logic of ``compare.py``, the self-time arithmetic, a ``--quick`` smoke
of all four workloads (every ``BENCHMARK.json`` metric emitted with its
unit, every correctness gate passing), and the refusal to run without
the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import compare
import harness
from harness import Span, covered, percentile, self_times

RUN = harness.BENCH_DIR / "run.py"


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90  # exactly ten samples above it
    assert percentile(values[:99], 90) is None
    assert percentile(values, 99) is None
    assert percentile(list(range(1, 1001)), 99) == 990
    assert percentile([3.0], 50) == 3.0  # the median needs no tail
    assert percentile([], 50) is None


def test_input_digests_are_deterministic_and_pinned():
    harness.require_program()
    spec = harness.load_spec()
    first, second = harness.input_digests(spec), harness.input_digests(spec)
    assert first == second
    assert first == {name: inputs["sha256"] for name, inputs in spec["inputs"].items()}


def test_self_time_subtracts_the_union_of_children():
    spans = [Span("root", 0.0, 10.0),
             Span("a", 1.0, 3.0, parent=0), Span("b", 2.0, 5.0, parent=0),
             Span("c", 8.0, 12.0, parent=0), Span("d", 2.5, 2.75, parent=1)]
    table = self_times(spans)
    assert table["root"]["self_s"] == pytest.approx(10.0 - (4.0 + 2.0))
    assert table["a"]["self_s"] == pytest.approx(2.0 - 0.25)
    assert table["b"]["total_s"] == pytest.approx(3.0)
    assert covered([(4.0, 6.0), (1.0, 2.0)], 0.0, 5.0) == pytest.approx(2.0)


@pytest.mark.parametrize("a, b, better, bound, expected", [
    ([100, 101, 99, 100, 102], [100, 101, 100, 99, 101], "lower", 0.1, "unchanged"),
    ([100, 101, 99, 100, 102], [120, 121, 119, 122, 120], "lower", 0.1, "worse"),
    ([100, 101, 99, 100, 102], [80, 81, 79, 82, 80], "lower", 0.1, "better"),
    ([100, 101, 99, 100, 102], [80, 81, 79, 82, 80], "higher", 0.1, "worse"),
    # spread beyond the bound, runs overlapping: no verdict either way
    ([60, 100, 140, 90, 110], [70, 105, 150, 95, 120], "lower", 0.1, "unresolved"),
    # spread beyond the bound, but every B run below every A run
    ([100, 150, 200, 120, 180], [40, 50, 60, 45, 55], "lower", 0.1, "better"),
    # a small gain inside A's own spread is not a gain
    ([95, 100, 105, 98, 102], [97, 99, 101, 98, 100], "lower", 0.1, "unchanged"),
])
def test_compare_verdicts(a, b, better, bound, expected):
    assert compare.verdict(a, b, better, bound) == expected


def _result(workload, value, failed=0):
    return {"workload": workload, "trace": 0, "attempted": 100, "failed": failed,
            "metrics": {"setup_s": {"value": value, "unit": "s"}}}


_BENCHMARK = {"workloads": [{"name": "jobs"}, {"name": "batch"}], "per_layer": [],
              "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower",
                              "bound": 0.25}]}


def test_compare_fails_on_any_rise_in_failures():
    same = [_result("jobs", 1.0), _result("jobs", 1.01)]
    assert compare.compare(same, same, _BENCHMARK, {})[1] == 0
    _, bad = compare.compare(same, [_result("jobs", 1.0, failed=1), _result("jobs", 1.0)],
                             _BENCHMARK, {})
    assert bad == 1


def test_compare_uses_the_workloads_own_bound():
    a = [_result(workload, value) for workload in ("jobs", "batch")
         for value in (1.0, 1.01, 0.99, 1.0)]
    b = [_result(workload, value) for workload in ("jobs", "batch")
         for value in (1.10, 1.11, 1.09, 1.10)]
    lines, bad = compare.compare(a, b, _BENCHMARK, {"jobs": {"setup_s": 0.05}})
    assert bad == 1  # 10% worse: beyond jobs' 5%, within the 25% batch falls back to
    assert any("(bound 5%)  worse" in line for line in lines)
    assert any("(bound 25%)  unchanged" in line for line in lines)


def test_workload_bounds_never_loosen_the_benchmark_bounds():
    benchmark, spec = harness.load_benchmark(), harness.load_spec()
    names = {workload["name"] for workload in benchmark["workloads"]}
    limits = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    for workload, bounds in spec["bounds"].items():
        assert workload in names
        for name, bound in bounds.items():
            assert 0 < bound <= limits[name], (workload, name)


@pytest.mark.parametrize("workload", ["study", "jobs", "batch", "edits"])
def test_quick_smoke_emits_every_metric_and_passes_the_gates(workload, tmp_path):
    benchmark = harness.load_benchmark()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out = tmp_path / f"{workload}-{trace}.json"
        completed = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", "7", "--quick",
             "--trace", str(trace), "--out", str(out)],
            cwd=harness.ROOT, capture_output=True, text=True, timeout=300)
        assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
        line = json.loads(completed.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        expected = {metric["name"]: metric["unit"] for metric in benchmark[section]}
        assert {name: value["unit"] for name, value in line["metrics"].items()} == expected
        result = json.loads(out.read_text())
        assert all(check["ok"] for check in result["checks"].values())
        if trace:
            assert json.loads(out.with_suffix(".spans.json").read_text())["spans"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "jobs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
