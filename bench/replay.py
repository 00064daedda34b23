"""Layer replay: time each layer's public entry points on a workload's sources.

The traced run cannot see inside the daemon or the study, so it calls
the same public entry points the program calls, in the program's order,
on a seeded sample of the workload's own sources:

* ``solidity``: ``tokenize``, ``parse_snippet``;
* ``ccd``: ``Normalizer.normalize_unit``, ``FingerprintGenerator.from_normalized``,
  then ``CloneDetector.add_corpus`` and ``find_clones``;
* ``cpg``: ``SolidityFrontend.collect_modifiers`` + ``translate``, then the
  ``ResolutionPass``, ``EvaluationOrderPass`` and ``DataFlowPass`` runs;
* ``ccc``: every registered query's ``run(QueryContext)``;
* ``api``: ``canonical_json`` of the resulting envelopes;
* ``service``: ``JobStore.submit``, ``claim_next``, ``append_result`` and
  ``finish`` on a temporary store.

An entry point that no longer exists drops its metrics (listed in the
result) instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import importlib
import shutil
import time
from collections import defaultdict
from pathlib import Path

from harness import median

#: the metrics each entry point feeds; a missing entry point drops them
_ENTRY_POINTS = {
    ("repro.solidity", "tokenize"): ("solidity.tokenize_s", "solidity.tokens_per_s"),
    ("repro.solidity", "parse_snippet"): ("solidity.parse_s", "solidity.parse_failures"),
    ("repro.ccd.normalizer", "Normalizer"): ("ccd.normalize_s",),
    ("repro.ccd.fingerprint", "FingerprintGenerator"): ("ccd.fuzzyhash_s",),
    ("repro.cpg.graph", "CPGGraph"): ("cpg.frontend_s", "cpg.nodes", "cpg.edges"),
    ("repro.cpg.frontend", "SolidityFrontend"): ("cpg.frontend_s", "cpg.nodes", "cpg.edges"),
    ("repro.cpg.passes", "ResolutionPass"): ("cpg.resolution_s",),
    ("repro.cpg.passes", "EvaluationOrderPass"): ("cpg.eog_s",),
    ("repro.cpg.passes", "DataFlowPass"): ("cpg.dfg_s",),
    ("repro.query", "QueryContext"): ("ccc.findings", "ccc.timeouts"),
    ("repro.query", "QueryTimeout"): ("ccc.timeouts",),
    ("repro.ccc.registry", "ALL_QUERIES"): ("ccc.findings",),
    ("repro.ccd.detector", "CloneDetector"): ("ccd.index_add_s", "ccd.match_s"),
    ("repro.api.envelope", "canonical_json"): ("api.canonical_json_s", "api.envelope_bytes"),
    ("repro.api.envelope", "AnalysisResult"): ("api.canonical_json_s", "api.envelope_bytes"),
    ("repro.ccc.checker", "AnalysisResult"): ("api.canonical_json_s", "api.envelope_bytes"),
    ("repro.service.jobstore", "JobStore"): ("service.jobstore_append_ms",),
}


def _resolve() -> tuple:
    """``(entry points by attribute name, dropped metric names)``."""
    found, dropped = {}, set()
    for (module, attribute), metrics in _ENTRY_POINTS.items():
        try:
            value = getattr(importlib.import_module(module), attribute)
        except (ImportError, AttributeError):
            dropped.update(metrics)
            continue
        found[(module, attribute)] = value
    return found, dropped


def replay_layers(sources: list, index_sources: list, spec: dict,
                  work_dir: Path, rounds: int) -> tuple:
    """Replay ``sources`` (``(id, text)`` pairs) through every layer.

    ``index_sources`` are the contracts indexed for ``find_clones``;
    ``rounds`` JobStore round trips time the job store.  Returns
    ``(metrics, dropped metric names)``.
    """
    from repro.solidity.errors import SolidityParseError

    entry, dropped = _resolve()
    get = lambda module, attribute: entry.get((module, attribute))  # noqa: E731
    tokenize = get("repro.solidity", "tokenize")
    parse_snippet = get("repro.solidity", "parse_snippet")
    normalizer_class = get("repro.ccd.normalizer", "Normalizer")
    generator_class = get("repro.ccd.fingerprint", "FingerprintGenerator")
    graph_class = get("repro.cpg.graph", "CPGGraph")
    frontend_class = get("repro.cpg.frontend", "SolidityFrontend")
    passes = [(name, get("repro.cpg.passes", cls)) for name, cls in (
        ("cpg.resolution_s", "ResolutionPass"), ("cpg.eog_s", "EvaluationOrderPass"),
        ("cpg.dfg_s", "DataFlowPass"))]
    query_context = get("repro.query", "QueryContext")
    query_timeout = get("repro.query", "QueryTimeout") or ()
    queries = get("repro.ccc.registry", "ALL_QUERIES") or ()
    detector_class = get("repro.ccd.detector", "CloneDetector")
    canonical_json = get("repro.api.envelope", "canonical_json")
    envelope_class = get("repro.api.envelope", "AnalysisResult")
    check_result_class = get("repro.ccc.checker", "AnalysisResult")

    timers: dict = defaultdict(float)
    counts: dict = defaultdict(int)
    normalizer = normalizer_class() if normalizer_class else None
    generator = generator_class() if generator_class else None
    fingerprints: list = []
    findings_by_source: dict = {}

    def timed(name, call, *args):
        start = time.perf_counter()
        value = call(*args)
        timers[name] += time.perf_counter() - start
        return value

    for source_id, source in sources:
        if tokenize is not None:
            try:
                counts["tokens"] += len(timed("solidity.tokenize_s", tokenize, source))
            except SolidityParseError:
                pass
        if parse_snippet is None:
            continue
        try:
            unit = timed("solidity.parse_s", parse_snippet, source)
        except (SolidityParseError, RecursionError):
            counts["solidity.parse_failures"] += 1
            continue
        if normalizer is not None and generator is not None:
            normalized = timed("ccd.normalize_s", normalizer.normalize_unit, unit)
            fingerprints.append((source_id, timed(
                "ccd.fuzzyhash_s", generator.from_normalized, normalized)))
        if graph_class is None or frontend_class is None:
            continue
        start = time.perf_counter()
        graph = graph_class()
        frontend = frontend_class(graph)
        frontend.collect_modifiers(unit)
        frontend.translate(unit)
        timers["cpg.frontend_s"] += time.perf_counter() - start
        for name, pass_class in passes:
            if pass_class is not None:
                timed(name, pass_class(graph).run)
        counts["cpg.nodes"] += len(graph.nodes)
        counts["cpg.edges"] += len(graph.edges)
        if query_context is None:
            continue
        context = query_context(graph)
        found = []
        for query in queries:
            start = time.perf_counter()
            try:
                found.extend(query.run(context))
            except query_timeout:
                counts["ccc.timeouts"] += 1
            timers[f"ccc.query.{query.query_id}_s"] += time.perf_counter() - start
        findings_by_source[source_id] = (found, len(graph))
        counts["ccc.findings"] += len(found)

    metrics = dict(timers)
    metrics.update(counts)
    metrics.pop("tokens", None)
    if "solidity.tokenize_s" in metrics:
        metrics["solidity.tokens_per_s"] = counts["tokens"] / metrics["solidity.tokenize_s"]
    metrics.setdefault("solidity.parse_failures", 0)
    metrics.setdefault("ccc.timeouts", 0)

    matches_by_source: dict = {}
    if detector_class is not None:
        daemon = spec["daemon"]
        detector = detector_class(ngram_threshold=daemon["ngram_threshold"],
                                  similarity_threshold=daemon["similarity_threshold"])
        timed("ccd.index_add_s", detector.add_corpus, index_sources)
        for source_id, fingerprint in fingerprints:
            start = time.perf_counter()
            matches_by_source[source_id] = detector.find_clones(fingerprint=fingerprint)
            timers["ccd.match_s"] += time.perf_counter() - start
        metrics["ccd.index_add_s"] = timers["ccd.index_add_s"]
        metrics["ccd.match_s"] = timers["ccd.match_s"]
        metrics.update(match_counters(dataclasses.asdict(detector.match_stats)))

    lines = []
    if canonical_json and envelope_class and check_result_class:
        start = time.perf_counter()
        for source_id, (found, nodes) in findings_by_source.items():
            lines.append(canonical_json(envelope_class(
                "ccd", source_id, matches_by_source.get(source_id, []))))
            lines.append(canonical_json(envelope_class(
                "ccc", source_id, check_result_class(findings=found, graph_nodes=nodes))))
        metrics["api.canonical_json_s"] = time.perf_counter() - start
        metrics["api.envelope_bytes"] = sum(len(line.encode("utf-8")) for line in lines)

    jobstore_class = get("repro.service.jobstore", "JobStore")
    if jobstore_class is not None and lines:
        metrics["service.jobstore_append_ms"] = _replay_jobstore(
            jobstore_class, sources, lines, work_dir, rounds)
    return metrics, sorted(dropped)


def match_counters(stats: dict) -> dict:
    """The ccd per-layer counters from a ``MatchStats`` field mapping."""
    verified = stats.get("verified", 0)
    memo = stats.get("memo_hits", 0) + stats.get("memo_misses", 0)
    return {
        "ccd.candidates_generated": stats.get("candidates_generated", 0),
        "ccd.pairs_scored": stats.get("pairs_scored", 0),
        "ccd.match_ratio": stats.get("matched", 0) / verified if verified else 0.0,
        "ccd.memo_hit_ratio": stats.get("memo_hits", 0) / memo if memo else 0.0,
    }


def _replay_jobstore(jobstore_class, sources, lines, work_dir: Path, rounds: int) -> float:
    """Median ``append_result`` time (ms) over ``rounds`` two-envelope jobs."""
    directory = work_dir / "jobstore-replay"
    shutil.rmtree(directory, ignore_errors=True)
    appends = []
    store = jobstore_class(directory / "jobs.sqlite")
    try:
        for index in range(rounds):
            source_id, source = sources[index % len(sources)]
            job = store.submit([(source_id, source)], ["ccd", "ccc"])
            claimed = store.claim_next()
            for seq in range(2):
                line = lines[(2 * index + seq) % len(lines)]
                start = time.perf_counter()
                store.append_result(claimed.job_id, seq, line)
                appends.append(time.perf_counter() - start)
            store.finish(job.job_id, "done")
    finally:
        store.close()
        shutil.rmtree(directory, ignore_errors=True)
    return median(appends) * 1000.0
