"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The corpora
are synthetic (see DESIGN.md) and deliberately scaled so that the complete
benchmark suite runs in a few minutes on a laptop; the *shape* of each
result (who wins, which direction metrics move) is what is reproduced.

Benchmarks that route work through the shared analysis core can register
their :class:`~repro.core.artifacts.ArtifactStore` statistics with the
session-scoped ``artifact_stats_registry`` fixture; the aggregate
artifact-cache hit rate is reported in the terminal summary.

The terminal summary also writes machine-readable perf-trajectory
artifacts — ``BENCH_fig5.json`` (staged-matcher backends),
``BENCH_service.json`` (cold vs resident serving), and
``BENCH_incremental.json`` (full vs delta re-analysis) — into
``$BENCH_ARTIFACTS_DIR`` (default: the repository root, so the committed
artifacts refresh in place), so CI uploads and future re-anchors can
track the speed curve across PRs.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.artifacts import ArtifactStore
from repro.datasets.honeypots import generate_honeypot_corpus
from repro.datasets.sanctuary import generate_sanctuary
from repro.datasets.smartbugs import generate_smartbugs_corpus
from repro.datasets.snippets import generate_qa_corpus
from repro.pipeline import StudyConfiguration, VulnerableCodeReuseStudy
from repro.pipeline.report import render_cache_stats

#: (label, ArtifactStoreStats) pairs registered during the benchmark session
_ARTIFACT_STATS: list[tuple[str, object]] = []

#: mode -> {"wall": s, "peak": bytes} rows of the batch-vs-streaming
#: session comparison (bench_fig6), reported with their delta below
_SESSION_MODES: dict[str, dict] = {}

#: backend name -> {"wall": s, "stats": MatchStats} rows of the staged
#: clone-matcher comparison (bench_fig5), reported with pruning counters
#: and the exact-vs-myers verification speedup below
_MATCHER_BACKENDS: dict[str, dict] = {}

#: mode -> {"jobs_per_sec", "p50", "p95", "p99", "jobs", ...} rows of the
#: service daemon benchmark (bench_service_throughput): cold vs resident
#: index serving, plus the 1k-client load run against the asyncio transport
_SERVICE_LATENCIES: dict[str, dict] = {}

#: mode -> {"wall": s, ...} rows of the incremental re-analysis benchmark
#: (bench_incremental): whole-corpus re-ingest vs one-function delta
_INCREMENTAL_MODES: dict[str, dict] = {}

#: rows of the workload-engine sweep benchmark (bench_table9_fig9):
#: grid size, chunks/sec, and pause+resume overhead vs uninterrupted
_SWEEP_ROWS: dict[str, dict] = {}


@pytest.fixture(scope="session")
def artifact_stats_registry():
    """Register ``(label, store.stats)`` pairs for the session cache report."""
    return _ARTIFACT_STATS


@pytest.fixture(scope="session")
def session_mode_registry():
    """Register per-mode wall/peak rows of the batch-vs-streaming benchmark."""
    return _SESSION_MODES


@pytest.fixture(scope="session")
def matcher_backend_registry():
    """Register per-backend wall/stats rows of the staged-matcher benchmark."""
    return _MATCHER_BACKENDS


@pytest.fixture(scope="session")
def service_latency_registry():
    """Register per-mode jobs/sec + latency rows of the service benchmark."""
    return _SERVICE_LATENCIES


@pytest.fixture(scope="session")
def incremental_registry():
    """Register per-mode wall-clock rows of the incremental benchmark."""
    return _INCREMENTAL_MODES


@pytest.fixture(scope="session")
def sweep_registry():
    """Register the workload-engine rows of the parameter-sweep benchmark."""
    return _SWEEP_ROWS


def _write_bench_artifact(terminalreporter, name: str, payload: dict) -> None:
    """Write one ``BENCH_*.json`` perf-trajectory artifact (best effort)."""
    # default next to the committed BENCH_*.json files (the repo root),
    # so a local benchmark run refreshes them in place
    directory = Path(os.environ.get("BENCH_ARTIFACTS_DIR")
                     or Path(__file__).resolve().parent.parent)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / name
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    except OSError as error:
        terminalreporter.write_line(f"could not write {name}: {error}")
        return
    terminalreporter.write_line(f"wrote {path}")


def _fig5_artifact() -> dict:
    """The ``BENCH_fig5.json`` payload: per-backend verify timings + stats."""
    backends = {backend: {"wall_seconds": row["wall"],
                          "stats": row["stats"].as_dict()}
                for backend, row in _MATCHER_BACKENDS.items()}
    payload = {"benchmark": "fig5_staged_matcher",
               "reduced": bool(os.environ.get("BENCH_FIG5_REDUCED")),
               "backends": backends}
    baseline = _MATCHER_BACKENDS.get("exact")
    if baseline is not None:
        for backend, row in _MATCHER_BACKENDS.items():
            backends[backend]["verify_speedup_vs_exact"] = (
                baseline["stats"].verify_seconds
                / max(row["stats"].verify_seconds, 1e-9))
    return payload


def _service_artifact() -> dict:
    """The ``BENCH_service.json`` payload: per-mode throughput + latency."""
    payload = {"benchmark": "service_throughput",
               "modes": {mode: dict(row) for mode, row in _SERVICE_LATENCIES.items()}}
    if {"cold", "resident"} <= set(_SERVICE_LATENCIES):
        payload["resident_speedup"] = (
            _SERVICE_LATENCIES["resident"]["jobs_per_sec"]
            / max(_SERVICE_LATENCIES["cold"]["jobs_per_sec"], 1e-9))
    return payload


def _incremental_artifact() -> dict:
    """The ``BENCH_incremental.json`` payload: full vs delta re-analysis."""
    payload = {"benchmark": "incremental_reanalysis",
               "reduced": bool(os.environ.get("BENCH_INCREMENTAL_REDUCED")),
               "modes": {mode: dict(row)
                         for mode, row in _INCREMENTAL_MODES.items()}}
    if {"full", "incremental"} <= set(_INCREMENTAL_MODES):
        payload["incremental_speedup"] = (
            _INCREMENTAL_MODES["full"]["wall"]
            / max(_INCREMENTAL_MODES["incremental"]["wall"], 1e-9))
    return payload


def _sweep_artifact() -> dict:
    """The ``BENCH_sweep.json`` payload: the workload-engine sweep rows."""
    return {"benchmark": "table9_fig9_sweep_engine",
            "reduced": bool(os.environ.get("BENCH_SWEEP_REDUCED")),
            "modes": {mode: dict(row) for mode, row in _SWEEP_ROWS.items()}}


def pytest_terminal_summary(terminalreporter):
    if _ARTIFACT_STATS:
        terminalreporter.section("artifact cache hit rate")
        total_lookups = total_hits = total_parses = 0
        for label, stats in _ARTIFACT_STATS:
            terminalreporter.write_line(render_cache_stats(stats, label=label))
            total_lookups += stats.lookups
            total_hits += stats.hits
            total_parses += stats.parse_calls
        if total_lookups:
            terminalreporter.write_line(
                f"overall: {total_hits}/{total_lookups} hits "
                f"({total_hits / total_lookups:.1%}), {total_parses} parses")
    if _SESSION_MODES:
        terminalreporter.section("session batch vs streaming (fig6)")
        for mode, row in _SESSION_MODES.items():
            terminalreporter.write_line(
                f"{mode:>6}: peak heap {row['peak'] / 1024.0:.0f} KiB, "
                f"wall {row['wall']:.2f}s")
        if {"batch", "stream"} <= set(_SESSION_MODES):
            batch, stream = _SESSION_MODES["batch"], _SESSION_MODES["stream"]
            saved = batch["peak"] - stream["peak"]
            terminalreporter.write_line(
                f" delta: streaming holds {saved / 1024.0:.0f} KiB less "
                f"({saved / max(batch['peak'], 1):.1%} of batch peak), "
                f"wall {stream['wall'] - batch['wall']:+.2f}s")
    if _MATCHER_BACKENDS:
        terminalreporter.section("clone matcher: staged pruning (fig5)")
        for backend, row in _MATCHER_BACKENDS.items():
            stats = row["stats"]
            terminalreporter.write_line(
                f"{backend:>8}: verify {stats.verify_seconds:.3f}s "
                f"(candidates {stats.candidate_seconds:.3f}s), "
                f"{stats.verified} candidates -> {stats.matched} matches, "
                f"{stats.pairs_scored} pair distances")
            terminalreporter.write_line(
                f"          dropped: {stats.pruned_by_length} by length bucket, "
                f"{stats.abandoned_by_mean} by mean bound, "
                f"{stats.pairs_skipped_by_bound} pairs by length bound, "
                f"{stats.pairs_cutoff} pairs by distance cutoff "
                f"({stats.memo_hits} memo hits)")
        if {"exact", "myers"} <= set(_MATCHER_BACKENDS):
            exact = _MATCHER_BACKENDS["exact"]["stats"]
            myers = _MATCHER_BACKENDS["myers"]["stats"]
            speedup = exact.verify_seconds / max(myers.verify_seconds, 1e-9)
            terminalreporter.write_line(
                f"   delta: myers verification {speedup:.1f}x faster "
                f"({exact.verify_seconds:.3f}s -> {myers.verify_seconds:.3f}s), "
                f"{myers.myers_words} bit-parallel words, "
                f"byte-identical matches")
        _write_bench_artifact(terminalreporter, "BENCH_fig5.json", _fig5_artifact())
    if _SERVICE_LATENCIES:
        terminalreporter.section("service daemon: serving modes")
        for mode, row in _SERVICE_LATENCIES.items():
            line = (f"{mode:>16}: {row['jobs_per_sec']:.1f} jobs/sec over "
                    f"{row['jobs']} jobs, latency p50 {row['p50'] * 1000.0:.1f} ms, "
                    f"p95 {row['p95'] * 1000.0:.1f} ms")
            if "p99" in row:
                line += f", p99 {row['p99'] * 1000.0:.1f} ms"
            if "shed" in row:
                line += (f" ({row['requests']} requests: {row['shed']} shed, "
                         f"{row['errors']} errors, {row['hung']} hung)")
            terminalreporter.write_line(line)
        if {"cold", "resident"} <= set(_SERVICE_LATENCIES):
            cold, resident = _SERVICE_LATENCIES["cold"], _SERVICE_LATENCIES["resident"]
            speedup = resident["jobs_per_sec"] / max(cold["jobs_per_sec"], 1e-9)
            terminalreporter.write_line(
                f"    delta: resident index serves {speedup:.1f}x more jobs/sec "
                f"(p50 {cold['p50'] * 1000.0:.1f} ms -> "
                f"{resident['p50'] * 1000.0:.1f} ms) with identical envelopes")
        _write_bench_artifact(terminalreporter, "BENCH_service.json",
                              _service_artifact())
    if _INCREMENTAL_MODES:
        terminalreporter.section("incremental re-analysis (O(change))")
        for mode, row in _INCREMENTAL_MODES.items():
            line = f"{mode:>12}: wall {row['wall']:.3f}s"
            if "functions" in row:
                line += (f" ({row.get('functions_changed', '?')} of "
                         f"{row['functions']} functions re-analyzed)")
            terminalreporter.write_line(line)
        if {"full", "incremental"} <= set(_INCREMENTAL_MODES):
            full = _INCREMENTAL_MODES["full"]
            delta = _INCREMENTAL_MODES["incremental"]
            speedup = full["wall"] / max(delta["wall"], 1e-9)
            terminalreporter.write_line(
                f"       delta: one-function edit re-analyzes {speedup:.1f}x "
                f"faster ({full['wall']:.3f}s -> {delta['wall']:.3f}s) with "
                f"byte-identical envelopes")
        _write_bench_artifact(terminalreporter, "BENCH_incremental.json",
                              _incremental_artifact())
    if _SWEEP_ROWS:
        terminalreporter.section("parameter sweep: workload engine")
        for mode, row in _SWEEP_ROWS.items():
            terminalreporter.write_line(
                f"{mode:>8}: {row['grid_cells']} grid cells at "
                f"{row['chunks_per_sec']:.1f} chunks/sec, pause+resume "
                f"overhead {row['resume_overhead']:+.1%} "
                f"({row['wall_uninterrupted']:.3f}s -> "
                f"{row['wall_with_resume']:.3f}s)")
        _write_bench_artifact(terminalreporter, "BENCH_sweep.json",
                              _sweep_artifact())


@pytest.fixture(scope="session")
def smartbugs_corpus():
    """The full-scale labelled corpus (204 labels, as in Table 1)."""
    return generate_smartbugs_corpus(seed=13)


@pytest.fixture(scope="session")
def honeypot_corpus():
    """The honeypot clone corpus (Table 3 substrate)."""
    return generate_honeypot_corpus(seed=7)


@pytest.fixture(scope="session")
def qa_corpus():
    return generate_qa_corpus(
        seed=3, posts_per_site={"stackoverflow": 60, "ethereum.stackexchange": 150})


@pytest.fixture(scope="session")
def sanctuary(qa_corpus):
    return generate_sanctuary(qa_corpus, seed=11, independent_contracts=60)


@pytest.fixture(scope="session")
def study_result(qa_corpus, sanctuary, artifact_stats_registry):
    """One full study run shared by the Table 5-8 benchmarks."""
    store = ArtifactStore()
    with VulnerableCodeReuseStudy(
        StudyConfiguration(validation_timeout_seconds=20,
                           snippet_analysis_timeout_seconds=15),
        store=store,
    ) as study:
        result = study.run(qa_corpus, sanctuary.contracts)
    artifact_stats_registry.append(("study_result (shared fixture)", store.stats))
    return result
