"""``repro`` — the unified reproduction command-line interface.

One console entry point over the analysis-session stack::

    repro analyze <corpus> ...  run registered analyzers over a corpus (streaming)
    repro analyzers list        print the analyzer registry
    repro queries list          print the CCC vulnerability-query registry
    repro index build ...       fingerprint + index a contract corpus, save it sharded
    repro index info ...        inspect a saved index (manifest, shard layout)
    repro study run ...         run the Figure 6 study (checkpointable, cached)
    repro study resume ...      resume a killed study from its checkpoint
    repro cache stats ...       inspect a disk artifact cache
    repro cache gc ...          evict old/excess cache entries
    repro serve ...             run the analysis service daemon (HTTP API);
                                --role coordinator fronts a sharded cluster
    repro submit ...            submit a job to a running daemon
    repro jobs list/show ...    inspect a running daemon's job queue
    repro cluster status ...    per-shard health and routing of a coordinator
    repro watch <dir> ...       re-submit edited files as deltas, print only
                                the changed findings
    repro version               print the package version (also --version)

The CLI is deliberately a thin shell: every subcommand is a few calls
into :mod:`repro.api`, :mod:`repro.core`, :mod:`repro.ccd`, and
:mod:`repro.pipeline`, so everything it does is equally scriptable from
Python.  Corpora are the deterministic synthetic substrates of
:mod:`repro.datasets`; the generation parameters are recorded in the
study checkpoint manifest so ``repro study resume`` can rebuild
byte-identical inputs.

See ``docs/cli.md`` for a walkthrough of every subcommand and
``docs/api.md`` for the session API the ``analyze`` command fronts.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.api import REGISTRY, AnalysisSession, SessionConfig, all_analyzers
from repro.ccc.registry import BUILTIN_QUERY_IDS, all_queries
from repro.ccd.detector import CloneDetector
from repro.ccd.index_io import IndexFormatError, read_manifest
from repro.ccd.matcher import DEFAULT_SIMILARITY_BACKEND, SIMILARITY_BACKENDS
from repro.core.executor import BACKENDS
from repro.core.artifacts import content_key
from repro.core.persistence import DATABASE_NAME, CacheConfigurationError, DiskArtifactStore
from repro.datasets.sanctuary import generate_sanctuary
from repro.datasets.snippets import generate_qa_corpus
from repro.pipeline.checkpoint import StudyCheckpoint, StudyCheckpointError
from repro.pipeline.collection import SnippetCollector
from repro.pipeline.experiment import StudyConfiguration, VulnerableCodeReuseStudy
from repro.pipeline.report import render_cache_stats, render_study_report, render_table
from repro.service import (
    AnalysisService,
    ClusterCoordinator,
    CoordinatorConfig,
    JobFailedError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    load_tenant_quotas,
)
from repro.service.delta import make_unified_diff

PROG = "repro"

#: the installed distribution queried by ``repro --version``
DISTRIBUTION_NAME = "vulnerable-code-reuse-repro"


def package_version() -> str:
    """The package version: installed metadata, or the source tree's own.

    Prefers :func:`importlib.metadata.version` (the single source of
    truth once installed); an uninstalled source checkout (e.g. plain
    ``PYTHONPATH=src``) falls back to ``repro.__version__``.
    """
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version(DISTRIBUTION_NAME)
    except PackageNotFoundError:
        import repro

        return repro.__version__


# ---------------------------------------------------------------------------
# corpus construction (shared by `index build` and `study run`)
# ---------------------------------------------------------------------------

def _add_corpus_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("synthetic corpus")
    group.add_argument("--seed", type=int, default=3,
                       help="Q&A corpus generator seed (default: 3)")
    group.add_argument("--sanctuary-seed", type=int, default=11,
                       help="contract corpus generator seed (default: 11)")
    group.add_argument("--posts-stackoverflow", type=int, default=60,
                       help="stackoverflow posts to generate (default: 60)")
    group.add_argument("--posts-ethereum", type=int, default=150,
                       help="ethereum.stackexchange posts to generate (default: 150)")
    group.add_argument("--independent-contracts", type=int, default=60,
                       help="clone-free contracts in the corpus (default: 60)")


def _corpus_metadata(args: argparse.Namespace) -> dict:
    return {
        "seed": args.seed,
        "sanctuary_seed": args.sanctuary_seed,
        "posts_stackoverflow": args.posts_stackoverflow,
        "posts_ethereum": args.posts_ethereum,
        "independent_contracts": args.independent_contracts,
    }


def _build_corpora(metadata: dict):
    qa_corpus = generate_qa_corpus(
        seed=metadata["seed"],
        posts_per_site={
            "stackoverflow": metadata["posts_stackoverflow"],
            "ethereum.stackexchange": metadata["posts_ethereum"],
        })
    sanctuary = generate_sanctuary(
        qa_corpus,
        seed=metadata["sanctuary_seed"],
        independent_contracts=metadata["independent_contracts"])
    return qa_corpus, sanctuary.contracts


def _add_detector_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("CCD configuration")
    group.add_argument("--ngram-size", type=int, default=3,
                       help="N-gram size N (default: 3)")
    group.add_argument("--ngram-threshold", type=float, default=0.5,
                       help="candidate pre-filter threshold eta (default: 0.5)")
    group.add_argument("--similarity-threshold", type=float, default=0.9,
                       help="clone decision threshold epsilon (default: 0.9)")
    group.add_argument("--similarity-backend", choices=sorted(SIMILARITY_BACKENDS),
                       default=DEFAULT_SIMILARITY_BACKEND,
                       help="clone verification backend: myers (pruned, "
                            "bit-parallel distance kernel; default) or exact "
                            "(naive reference); both produce identical matches")


def _open_cache(args: argparse.Namespace, **store_kwargs) -> Optional[DiskArtifactStore]:
    if args.cache is None:
        return None
    return DiskArtifactStore(args.cache, **store_kwargs)


# ---------------------------------------------------------------------------
# repro index
# ---------------------------------------------------------------------------

def _cmd_index_build(args: argparse.Namespace) -> int:
    metadata = _corpus_metadata(args)
    _, contracts = _build_corpora(metadata)
    try:
        store = _open_cache(args, ngram_size=args.ngram_size)
    except CacheConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    detector = CloneDetector(
        ngram_size=args.ngram_size,
        ngram_threshold=args.ngram_threshold,
        similarity_threshold=args.similarity_threshold,
        store=store,
        similarity_backend=args.similarity_backend,
    )
    started = time.perf_counter()
    indexed = detector.add_corpus(
        [(contract.address, contract.source) for contract in contracts])
    elapsed = time.perf_counter() - started
    manifest = detector.save_index(args.output)
    print(f"indexed {indexed}/{len(contracts)} contracts in {elapsed:.2f}s "
          f"({len(detector.parse_failures)} unparsable)")
    print(f"saved {manifest['documents']} fingerprints to {args.output}")
    if store is not None:
        print(render_cache_stats(store.stats))
        store.close()
    return 0


def _cmd_index_info(args: argparse.Namespace) -> int:
    try:
        manifest = read_manifest(args.index)
    except IndexFormatError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    rows = [["documents", manifest["documents"]],
            ["parse failures", manifest["parse_failures"]]]
    rows.extend([key, value] for key, value in sorted(manifest["configuration"].items()))
    print(render_table(["Field", "Value"], rows, title=f"Index at {args.index}"))
    return 0


# ---------------------------------------------------------------------------
# repro study
# ---------------------------------------------------------------------------

def _print_progress(stage: str, done: int, total: int) -> None:
    print(f"  [{stage}] {done}/{total}", file=sys.stderr)


def _run_study(configuration: StudyConfiguration, metadata: dict,
               checkpoint: Optional[StudyCheckpoint], quiet: bool) -> int:
    qa_corpus, contracts = _build_corpora(metadata)
    progress = None if quiet else _print_progress
    with VulnerableCodeReuseStudy(configuration) as study:
        result = study.run(qa_corpus, contracts, checkpoint=checkpoint, progress=progress)
        print(render_study_report(result), end="")
        print(render_cache_stats(study.store.stats,
                                 label=f"artifact cache [{configuration.executor_backend}]"))
        if isinstance(study.store, DiskArtifactStore):
            study.store.close()
    return 0


def _cmd_study_run(args: argparse.Namespace) -> int:
    configuration = StudyConfiguration(
        ngram_size=args.ngram_size,
        ngram_threshold=args.ngram_threshold,
        similarity_threshold=args.similarity_threshold,
        similarity_backend=args.similarity_backend,
        executor_backend=args.backend,
        max_workers=args.max_workers,
        checkpoint_chunk_size=args.checkpoint_chunk_size,
        artifact_cache_dir=args.cache,
    )
    checkpoint = None
    metadata = _corpus_metadata(args)
    if args.checkpoint is not None:
        try:
            checkpoint = StudyCheckpoint(args.checkpoint)
        except StudyCheckpointError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        recorded = checkpoint.metadata.get("corpus")
        if recorded is not None and recorded != metadata:
            print(f"error: checkpoint at {args.checkpoint} was created for "
                  f"different corpus parameters; resume it with "
                  f"'{PROG} study resume --checkpoint {args.checkpoint}' or "
                  f"choose a fresh directory", file=sys.stderr)
            return 1
        checkpoint.update_metadata(corpus=metadata)
    try:
        return _run_study(configuration, metadata, checkpoint, args.quiet)
    except (StudyCheckpointError, CacheConfigurationError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _cmd_study_resume(args: argparse.Namespace) -> int:
    try:
        checkpoint = StudyCheckpoint(args.checkpoint)
    except StudyCheckpointError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    metadata = checkpoint.metadata
    if "configuration" not in metadata or "corpus" not in metadata:
        print(f"error: {args.checkpoint} does not contain a resumable study "
              f"(missing configuration/corpus metadata); start one with "
              f"'{PROG} study run --checkpoint {args.checkpoint}'", file=sys.stderr)
        return 1
    if not args.quiet:
        rows = [[row["stage"], row.get("state", "pending"),
                 f"{row.get('chunks', '')}/{row.get('total', '')}"
                 if "chunks" in row else ""]
                for row in checkpoint.summary()]
        print(render_table(["Stage", "State", "Chunks"], rows,
                           title=f"Resuming study at {args.checkpoint}"), file=sys.stderr)
    configuration = StudyConfiguration(**metadata["configuration"])
    try:
        return _run_study(configuration, metadata["corpus"], checkpoint, args.quiet)
    except (StudyCheckpointError, CacheConfigurationError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# repro analyze
# ---------------------------------------------------------------------------

def _analysis_tally(payload, tally: dict) -> None:
    """Fold one per-contract payload into the analyzer's summary counters."""
    tally["items"] += 1
    if payload is None:
        tally["errors"] += 1
        return
    parse_error = getattr(payload, "parse_error", None)
    analysis_error = getattr(payload, "analysis_error", None)
    if parse_error is not None or analysis_error is not None:
        tally["errors"] += 1
    if getattr(payload, "timed_out", False):
        tally["timeouts"] += 1
    if isinstance(payload, list):
        flagged = bool(payload)  # ccd: non-empty clone-match list
    else:
        flagged = bool(getattr(payload, "findings", None)) \
            or bool(getattr(payload, "vulnerable", False))
    if flagged:
        tally["flagged"] += 1


def _render_corpus_envelope(envelope) -> str:
    """A table for one corpus-scope envelope (temporal, correlation, ...)."""
    payload = envelope.payload
    title = f"{envelope.analyzer} (corpus scope)"
    if hasattr(payload, "summary"):
        rows = sorted(payload.summary().items())
        return render_table(["Metric", "Value"], rows, title=title)
    if isinstance(payload, list) and payload and hasattr(payload[0], "as_row"):
        rows = [list(item.as_row().values()) for item in payload]
        headers = [key.replace("_", " ") for key in payload[0].as_row()]
        return render_table(headers, rows, title=title)
    return render_table(["Payload"], [[repr(payload)[:120]]], title=title)


def _cmd_analyze(args: argparse.Namespace) -> int:
    analyses = [name.strip() for name in args.analyses.split(",") if name.strip()]
    if not analyses:
        print("error: --analyses needs at least one analyzer id", file=sys.stderr)
        return 1
    unknown = [name for name in analyses if name not in REGISTRY]
    if unknown:
        print(f"error: unknown analyzer(s) {', '.join(unknown)}; registered: "
              f"{', '.join(REGISTRY.ids())} (see '{PROG} analyzers list')",
              file=sys.stderr)
        return 1
    metadata = _corpus_metadata(args)
    qa_corpus, contracts = _build_corpora(metadata)
    configuration = SessionConfig(
        backend=args.backend,
        max_workers=args.max_workers,
        cache_dir=args.cache,
        ngram_size=args.ngram_size,
        ngram_threshold=args.ngram_threshold,
        similarity_threshold=args.similarity_threshold,
        similarity_backend=args.similarity_backend,
        checker_timeout=args.timeout,
    )
    try:
        session = AnalysisSession(configuration)
    except CacheConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    with session:
        if args.corpus == "contracts":
            corpus = contracts
        else:
            corpus = SnippetCollector(store=session.store).collect(qa_corpus).snippets
        # temporal/correlation categorize the snippet corpus against the
        # deployed contracts; harmless to offer when not requested
        options = {"temporal": {"contracts": contracts},
                   "correlation": {"contracts": contracts}}
        profile_sink: list = []
        if args.profile:
            if "ccd" in analyses:
                options["ccd"] = {"profile_sink": profile_sink}
            else:
                print("note: --profile shows the clone-matcher stages and "
                      "needs 'ccd' among --analyses; no profile will be "
                      "printed", file=sys.stderr)
        started = time.perf_counter()
        tallies: dict[str, dict] = {}
        corpus_scope = []
        try:
            if args.batch:
                envelopes = iter(session.run(corpus, analyses=analyses, options=options))
            else:
                envelopes = session.run_iter(corpus, analyses=analyses, options=options)
            for envelope in envelopes:
                if envelope.contract_id is None:
                    corpus_scope.append(envelope)
                    continue
                tally = tallies.setdefault(envelope.analyzer, {
                    "items": 0, "flagged": 0, "errors": 0, "timeouts": 0})
                _analysis_tally(envelope.payload, tally)
                if args.verbose:
                    print(f"  [{envelope.analyzer}] {envelope.contract_id}: "
                          f"{'-' if envelope.payload is None else 'ok'} "
                          f"({envelope.elapsed_seconds * 1000.0:.1f} ms)", file=sys.stderr)
        except ValueError as error:
            # an analyzer rejected its inputs (e.g. temporal/correlation
            # without a snippet corpus): report it like every other CLI error
            print(f"error: {error}", file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - started
        mode = "batch" if args.batch else "streaming"
        rows = [[analyzer_id, tally["items"], tally["flagged"],
                 tally["errors"], tally["timeouts"]]
                for analyzer_id, tally in tallies.items()]
        if rows:
            print(render_table(
                ["Analyzer", "Items", "Flagged", "Errors", "Timeouts"], rows,
                title=f"Analyses over {len(corpus)} {args.corpus} ({mode})"))
        for envelope in corpus_scope:
            print(_render_corpus_envelope(envelope))
        for detector in profile_sink:
            stats = detector.match_stats
            print(render_table(
                ["Stage", "Counter", "Value"], stats.stage_rows(),
                title=f"Match pipeline profile "
                      f"[{detector.similarity_backend} backend]"))
        print(f"analyzed {len(corpus)} {args.corpus} with "
              f"{', '.join(analyses)} in {elapsed:.2f}s [{args.backend}]")
        print(render_cache_stats(session.stats,
                                 label=f"artifact cache [{args.backend}]"))
    return 0


# ---------------------------------------------------------------------------
# repro analyzers / repro queries
# ---------------------------------------------------------------------------

def _cmd_analyzers_list(args: argparse.Namespace) -> int:
    rows = [[analyzer.analyzer_id, analyzer.scope,
             analyzer.dasp_category.value if analyzer.dasp_category is not None else "-",
             analyzer.title]
            for analyzer in all_analyzers()]
    print(render_table(["Id", "Scope", "DASP Category", "Title"], rows,
                       title=f"Analyzer registry ({len(rows)} analyzers)"))
    return 0


def _cmd_queries_list(args: argparse.Namespace) -> int:
    if getattr(args, "url", None):
        client = ServiceClient(args.url)
        try:
            listed = client.queries()
        except (ServiceError, OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        rows = [[entry["query_id"], entry["category"],
                 "custom" if entry["custom"] else "built-in", entry["title"]]
                for entry in listed]
        title = f"CCC query registry at {args.url} ({len(rows)} queries)"
    else:
        rows = [[query.query_id, query.category.value,
                 "built-in" if query.query_id in BUILTIN_QUERY_IDS
                 else "custom", query.title]
                for query in all_queries()]
        title = f"CCC query registry ({len(rows)} queries)"
    print(render_table(["Id", "DASP Category", "Kind", "Title"], rows,
                       title=title))
    return 0


def _cmd_queries_register(args: argparse.Namespace) -> int:
    try:
        spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    except OSError as error:
        print(f"error: cannot read {args.spec}: {error}", file=sys.stderr)
        return 1
    except ValueError as error:
        print(f"error: {args.spec} is not valid JSON: {error}",
              file=sys.stderr)
        return 1
    client = ServiceClient(args.url)
    try:
        response = client.register_query(spec)
    except (ServiceError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    registered = response["query"]
    where = (f" on shards {', '.join(response['shards'])}"
             if "shards" in response else "")
    print(f"registered custom query {registered['query_id']} "
          f"({registered['category']}){where}")
    return 0


# ---------------------------------------------------------------------------
# repro cache
# ---------------------------------------------------------------------------

def _cmd_cache_stats(args: argparse.Namespace) -> int:
    database = Path(args.cache) / DATABASE_NAME
    if not database.is_file():
        print(f"error: no artifact cache at {args.cache} (missing "
              f"{DATABASE_NAME}); create one by passing --cache {args.cache} "
              f"to '{PROG} study run', '{PROG} index build', or "
              f"'{PROG} analyze'", file=sys.stderr)
        return 1
    usage = DiskArtifactStore.read_usage(args.cache)
    if usage.get("corrupt"):
        print(f"error: {database} is not a valid SQLite artifact cache "
              f"(corrupt or not SQLite); delete it to start fresh, or point "
              f"at a directory created with --cache", file=sys.stderr)
        return 1
    rows = [["entries", usage["entries"]],
            ["payload bytes", usage["payload_bytes"]]]
    if "file_bytes" in usage:
        rows.append(["database bytes", usage["file_bytes"]])
    configuration = usage.get("configuration") or {}
    rows.extend([key, value] for key, value in sorted(configuration.items()))
    print(render_table(["Field", "Value"], rows, title=f"Artifact cache at {args.cache}"))
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    max_age_seconds = args.max_age_days * 86400.0 if args.max_age_days is not None else None
    deleted = DiskArtifactStore.collect_garbage(
        args.cache,
        max_entries=args.max_entries,
        max_age_seconds=max_age_seconds,
        vacuum=not args.no_vacuum,
    )
    print(f"evicted {deleted} cache entries from {args.cache}")
    return 0


# ---------------------------------------------------------------------------
# repro serve / submit / jobs
# ---------------------------------------------------------------------------

def _build_daemon(args: argparse.Namespace):
    """Construct the worker service or the cluster coordinator for `serve`."""
    # parse the quota file up front so a malformed one fails before bind
    tenant_quotas = (load_tenant_quotas(args.tenant_quotas)
                     if args.tenant_quotas else None)
    if args.role == "coordinator":
        workers = tuple(url.strip() for url in (args.workers or "").split(",")
                        if url.strip())
        if not workers:
            raise ValueError(
                "--role coordinator needs --workers URL[,URL...] "
                "(the worker daemons, in stable shard order)")
        return ClusterCoordinator(CoordinatorConfig(
            data_dir=args.data_dir,
            host=args.host,
            port=args.port,
            workers=workers,
            shard_timeout=args.shard_timeout,
            connect_timeout=args.connect_timeout,
            log_requests=args.verbose,
            max_pending_jobs=args.max_pending_jobs,
            max_connections=args.max_connections,
            tenant_quotas=tenant_quotas,
            coalesce=not args.no_coalesce,
            batch_aging=args.batch_aging,
        ))
    try:
        scheduler_workers = int(args.workers)
    except ValueError:
        raise ValueError(
            "--workers takes a thread count for worker daemons "
            "(URL lists are for --role coordinator)") from None
    return AnalysisService(ServiceConfig(
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        backend=args.backend,
        max_workers=args.max_workers,
        workers=scheduler_workers,
        cache=not args.no_cache,
        ngram_size=args.ngram_size,
        ngram_threshold=args.ngram_threshold,
        similarity_threshold=args.similarity_threshold,
        similarity_backend=args.similarity_backend,
        log_requests=args.verbose,
        max_pending_jobs=args.max_pending_jobs,
        max_connections=args.max_connections,
        tenant_quotas=tenant_quotas,
        coalesce=not args.no_coalesce,
        batch_aging=args.batch_aging,
    ))


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        service = _build_daemon(args)
    except (CacheConfigurationError, IndexFormatError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: cannot start service: {error}", file=sys.stderr)
        return 1

    def _request_stop(signum, frame):
        service.request_stop()

    try:  # signal handlers only exist in the main thread (tests run elsewhere)
        signal.signal(signal.SIGINT, _request_stop)
        signal.signal(signal.SIGTERM, _request_stop)
    except ValueError:
        pass
    try:
        service.start()  # this is where the socket bind happens
    except OSError as error:
        print(f"error: cannot start service: {error}", file=sys.stderr)
        service.stop()
        return 1
    if args.role == "coordinator":
        print(f"serving on {service.url} (role: coordinator, "
              f"data dir: {args.data_dir}, "
              f"shards: {len(service.shards)}, "
              f"recovered jobs: {service.recovered_jobs})", flush=True)
    else:
        print(f"serving on {service.url} (data dir: {args.data_dir}, "
              f"index: {len(service.detector)} documents, "
              f"recovered jobs: {service.recovered_jobs})", flush=True)
    # a machine-readable line so scripts (and the cluster test harness)
    # can scrape the resolved port of a --port 0 daemon
    print(f"PORT={service.port}", flush=True)
    service.serve_forever()
    print("service stopped", flush=True)
    return 0


def _payload_flagged(payload) -> bool:
    """Whether a wire-form (canonicalized) payload flags its contract."""
    if isinstance(payload, list):
        return bool(payload)  # ccd: non-empty clone-match list
    if isinstance(payload, dict):
        return bool(payload.get("findings")) or bool(payload.get("vulnerable"))
    return False


def _summarize_envelopes(results: list, title: str) -> str:
    """The `repro submit --wait` summary table over wire-form envelopes."""
    tallies: dict[str, dict] = {}
    for envelope in results:
        tally = tallies.setdefault(
            envelope["analyzer"], {"items": 0, "flagged": 0, "errors": 0})
        tally["items"] += 1
        payload = envelope["payload"]
        if payload is None or (isinstance(payload, dict)
                               and (payload.get("parse_error")
                                    or payload.get("analysis_error"))):
            tally["errors"] += 1
        if _payload_flagged(payload):
            tally["flagged"] += 1
    rows = [[analyzer_id, tally["items"], tally["flagged"], tally["errors"]]
            for analyzer_id, tally in tallies.items()]
    return render_table(["Analyzer", "Items", "Flagged", "Errors"], rows, title=title)


def _cmd_submit(args: argparse.Namespace) -> int:
    analyses = [name.strip() for name in args.analyses.split(",") if name.strip()]
    if not analyses:
        print("error: --analyses needs at least one analyzer id", file=sys.stderr)
        return 1
    metadata = _corpus_metadata(args)
    qa_corpus, contracts = _build_corpora(metadata)
    if args.corpus == "contracts":
        sources = [(contract.address, contract.source) for contract in contracts]
    else:
        snippets = SnippetCollector().collect(qa_corpus).snippets
        sources = [(snippet.snippet_id, snippet.text) for snippet in snippets]
    client = ServiceClient(args.url)
    try:
        if args.ingest:
            summary = client.ingest(
                [(contract.address, contract.source) for contract in contracts])
            placement = ""
            if "routed" in summary:  # a coordinator routed it across shards
                placement = ", ".join(
                    f"{shard}: {count}"
                    for shard, count in sorted(summary["routed"].items()))
                placement = f", routed {{{placement}}}"
            print(f"ingested {summary['ingested']} contracts "
                  f"({len(summary['rejected'])} unparsable; index now "
                  f"{summary['documents']} documents{placement})")
        job = client.submit(sources, analyses=analyses,
                            priority=args.priority, tenant=args.tenant)
        print(f"submitted job {job['id']} ({len(sources)} {args.corpus}, "
              f"analyses: {', '.join(analyses)}, lane: {job['priority']})")
        if not args.wait:
            return 0
        started = time.perf_counter()
        finished = client.wait(job["id"], timeout=args.timeout)
        elapsed = time.perf_counter() - started
        print(_summarize_envelopes(
            finished["results"],
            title=f"Job {job['id']} over {len(sources)} {args.corpus}"))
        print(f"job {job['id']} done in {elapsed:.2f}s")
        return 0
    except JobFailedError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (ServiceError, TimeoutError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _job_rows(jobs: list) -> list:
    return [[job["id"], job["state"], job.get("priority", "batch"),
             ",".join(job["analyses"]),
             job["corpus_size"],
             f"{job['elapsed_seconds']:.2f}s" if job["elapsed_seconds"] is not None
             else "-",
             job["error"] or ""]
            for job in jobs]


def _cmd_jobs_list(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    try:
        page = client.jobs_page(state=args.state, limit=args.limit,
                                offset=args.offset, tenant=args.tenant)
        health = client.healthz()
    except (ServiceError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    shown = len(page["jobs"])
    print(render_table(
        ["Id", "State", "Lane", "Analyses", "Items", "Elapsed", "Error"],
        _job_rows(page["jobs"]),
        title=f"Jobs at {args.url} ({page['offset']}-"
              f"{page['offset'] + shown} of {page['total']}, "
              f"queue depth {health['queue_depth']})"))
    return 0


def _cmd_jobs_show(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    try:
        status = client.job(args.job_id)
    except (ServiceError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    job = status["job"]
    rows = [[key, job[key]] for key in
            ("id", "state", "analyses", "corpus_size", "created_at",
             "started_at", "finished_at", "duration_seconds", "error")]
    print(render_table(["Field", "Value"], rows, title=f"Job {args.job_id}"))
    if job.get("workload") is not None:
        print(f"workload job ({job['workload']['kind']}); inspect it with: "
              f"repro workload show {args.job_id} --url {args.url}")
        return 0
    results = status["results"]
    if results:
        print(_summarize_envelopes(
            results, title=f"Results ({len(results)} envelopes)"))
    return 0


def _cmd_jobs_cancel(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    try:
        outcome = client.cancel(args.job_id)
    except (ServiceError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"job {outcome['id']}: {outcome['state']}")
    return 0


# ---------------------------------------------------------------------------
# repro workload
# ---------------------------------------------------------------------------

def _format_eta(eta) -> str:
    return f"{eta:.1f}s" if eta is not None else "-"


def _workload_rows(workloads: list) -> list:
    return [[entry["id"], entry["state"],
             (entry.get("workload") or {}).get("kind", "-"),
             f"{entry['progress']['done']}/{entry['progress']['total']}",
             _format_eta(entry["progress"]["eta"]),
             f"{entry['duration_seconds']:.2f}s"
             if entry["duration_seconds"] is not None else "-",
             entry["error"] or ""]
            for entry in workloads]


def _cmd_workload_run(args: argparse.Namespace) -> int:
    if args.params is not None:
        try:
            params = json.loads(args.params)
        except ValueError as error:
            print(f"error: --params is not valid JSON: {error}",
                  file=sys.stderr)
            return 1
    else:
        params = None
    client = ServiceClient(args.url)
    try:
        submitted = client.submit_workload(
            args.kind, params=params, priority=args.priority,
            tenant=args.tenant)
        print(f"submitted workload {submitted['id']} ({args.kind}, "
              f"lane: {submitted['priority']})")
        if not args.wait:
            return 0
        started = time.perf_counter()
        final = client.wait_workload(submitted["id"], timeout=args.timeout)
        elapsed = time.perf_counter() - started
        progress = client.workload(submitted["id"])["progress"]
        print(f"workload {submitted['id']} {final['job']['state']} in "
              f"{elapsed:.2f}s ({progress['done']}/{progress['total']} "
              f"chunks)")
        if final["job"]["state"] == "done" and final["results"]:
            report = final["results"][0]
            if args.output is not None:
                Path(args.output).write_text(
                    json.dumps(report, indent=2, sort_keys=True),
                    encoding="utf-8")
                print(f"merged report written to {args.output}")
            else:
                print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    except JobFailedError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (ServiceError, TimeoutError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _cmd_workload_list(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    try:
        page = client.workloads_page(state=args.state, limit=args.limit,
                                     offset=args.offset)
    except (ServiceError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    shown = len(page["workloads"])
    print(render_table(
        ["Id", "State", "Kind", "Chunks", "ETA", "Elapsed", "Error"],
        _workload_rows(page["workloads"]),
        title=f"Workloads at {args.url} ({page['offset']}-"
              f"{page['offset'] + shown} of {page['total']})"))
    return 0


def _cmd_workload_show(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    try:
        entry = client.workload(args.job_id, chunks=args.chunks)
    except (ServiceError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    descriptor = entry.get("workload") or {}
    progress = entry["progress"]
    rows = [
        ["id", entry["id"]],
        ["state", entry["state"]],
        ["kind", descriptor.get("kind", "-")],
        ["progress", f"{progress['done']}/{progress['total']}"],
        ["eta", _format_eta(progress["eta"])],
        ["created_at", entry["created_at"]],
        ["started_at", entry["started_at"]],
        ["finished_at", entry["finished_at"]],
        ["duration_seconds", entry["duration_seconds"]],
        ["error", entry["error"]],
    ]
    print(render_table(["Field", "Value"], rows,
                       title=f"Workload {args.job_id}"))
    if args.chunks:
        chunk_rows = [[row["chunk"], row["state"], row["spec"]]
                      for row in entry["chunks"]]
        print(render_table(["Chunk", "State", "Spec"], chunk_rows,
                           title=f"Chunks ({len(chunk_rows)})"))
    return 0


def _cmd_workload_resume(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    try:
        entry = client.resume_workload(args.job_id)
    except (ServiceError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    progress = entry["progress"]
    print(f"workload {entry['id']} requeued "
          f"({progress['done']}/{progress['total']} chunks already done)")
    return 0


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    try:
        status = client.cluster()
    except (ServiceError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    rows = []
    for name in sorted(status["workers"]):
        worker = status["workers"][name]
        rows.append([
            name,
            worker["url"],
            worker["status"],
            worker.get("indexed_documents", "-"),
            worker["routed_documents"],
            worker.get("queue_depth", "-"),
        ])
    print(render_table(
        ["Shard", "Url", "Status", "Indexed", "Routed", "Queue"],
        rows,
        title=f"Cluster at {args.url} ({status['status']}, "
              f"{status['documents']} documents, "
              f"ring replicas: {status['ring']['replicas']})"))
    if status["degraded"]:
        print(f"degraded shards: {', '.join(status['degraded'])}")
    return 0


def _render_changed_envelope(envelope: dict) -> str:
    """One human line for a wire-form envelope of changed findings.

    Returns ``""`` for envelopes with nothing to report (no changed
    matches/findings) so ``repro watch`` prints only what the edit
    actually touched.
    """
    contract = envelope["contract_id"]
    analyzer = envelope["analyzer"]
    payload = envelope["payload"]
    if payload is None:
        return f"{contract}: {analyzer}: unanalyzable"
    if isinstance(payload, list):  # ccd: changed clone matches
        # a freshly re-ingested file always matches itself — not news
        payload = [match for match in payload
                   if match["document_id"] != contract]
        if not payload:
            return ""
        matches = ", ".join(
            f"{match['document_id']} ({match['similarity']:.2f})"
            for match in payload)
        return f"{contract}: {analyzer}: {len(payload)} changed match(es): {matches}"
    if isinstance(payload, dict):
        if payload.get("parse_error"):
            return f"{contract}: {analyzer}: parse error"
        findings = payload.get("findings") or []
        if not findings:
            return ""
        rendered = ", ".join(
            f"{finding['query_id']} @ line {finding['line']}"
            for finding in findings)
        return (f"{contract}: {analyzer}: "
                f"{len(findings)} changed finding(s): {rendered}")
    return ""


class _WatchSession:
    """The state machine behind ``repro watch``.

    Keeps the last-submitted source of every watched file; each
    :meth:`poll` rescans the directory, ships edits to the daemon as
    unified-diff deltas (new files as full sources, deleted files as
    removals), and re-runs the requested analyses with ``changed_only``
    bases so only findings touching the edited functions are printed.
    Factored out of the command handler so tests can drive cycles
    directly, without the sleep loop.
    """

    #: analyzers that understand the ``changed_only`` option
    DELTA_ANALYSES = ("ccd", "ccc")

    def __init__(self, client: ServiceClient, directory: Path,
                 analyses: Sequence[str], pattern: str = "*.sol",
                 timeout: float = 120.0, out=print) -> None:
        self.client = client
        self.directory = directory
        self.analyses = list(analyses)
        self.pattern = pattern
        self.timeout = timeout
        self.out = out
        #: document id (path relative to ``directory``) -> last source
        self.baseline: dict[str, str] = {}

    def scan(self) -> dict[str, str]:
        """Current watched files as ``{relative posix path: source}``."""
        files: dict[str, str] = {}
        for path in sorted(self.directory.rglob(self.pattern)):
            if not path.is_file():
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError):
                continue  # mid-write or binary junk; pick it up next cycle
            files[path.relative_to(self.directory).as_posix()] = text
        return files

    def start(self) -> int:
        """Initial cycle: ingest every watched file, set the baseline."""
        files = self.scan()
        if files:
            summary = self.client.ingest(sorted(files.items()))
            self.out(f"watching {len(files)} file(s) under {self.directory} "
                     f"({summary['ingested']} ingested, "
                     f"{len(summary['rejected'])} unparsable, "
                     f"{summary.get('unchanged', 0)} already current)")
        else:
            self.out(f"watching {self.directory} "
                     f"(no files match {self.pattern!r} yet)")
        self.baseline = files
        return len(files)

    def poll(self) -> int:
        """One change-detection cycle; returns the number of edited files."""
        files = self.scan()
        changed = {doc_id: text for doc_id, text in files.items()
                   if self.baseline.get(doc_id) != text}
        removed = sorted(set(self.baseline) - set(files))
        if removed:
            self.client.ingest(remove=removed)
            for doc_id in removed:
                self.out(f"{doc_id}: removed from index")
        if not changed:
            self.baseline = files
            return 0
        documents: list = []
        bases: dict[str, str] = {}
        for doc_id in sorted(changed):
            base = self.baseline.get(doc_id)
            if base is None:
                documents.append([doc_id, changed[doc_id]])
            else:
                # ship the edit as a unified diff against the daemon's
                # retained copy, guarded by the base content key
                documents.append({
                    "id": doc_id,
                    "diff": make_unified_diff(base, changed[doc_id]),
                    "base_version": content_key(base),
                })
                bases[doc_id] = base
        summary = self.client.ingest(documents)
        options = {analysis: {"changed_only": bases}
                   for analysis in self.analyses
                   if analysis in self.DELTA_ANALYSES and bases}
        job = self.client.submit(sorted(changed.items()),
                                 analyses=self.analyses,
                                 options=options or None,
                                 priority="interactive")
        finished = self.client.wait(job["id"], timeout=self.timeout)
        quiet = 0
        for envelope in finished["results"]:
            line = _render_changed_envelope(envelope)
            if line:
                self.out(line)
            else:
                quiet += 1
        self.out(f"{len(changed)} file(s) re-analyzed, "
                 f"{len(summary['rejected'])} unparsable, "
                 f"{quiet} envelope(s) unchanged")
        self.baseline = files
        return len(changed)


def _cmd_watch(args: argparse.Namespace) -> int:
    analyses = [name.strip() for name in args.analyses.split(",") if name.strip()]
    if not analyses:
        print("error: --analyses needs at least one analyzer id", file=sys.stderr)
        return 1
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 1
    session = _WatchSession(ServiceClient(args.url), directory, analyses,
                            pattern=args.pattern, timeout=args.timeout)
    try:
        session.start()
        if args.once:
            session.poll()
            return 0
        while True:
            time.sleep(args.interval)
            session.poll()
    except KeyboardInterrupt:
        print("watch stopped", flush=True)
        return 0
    except JobFailedError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (ServiceError, TimeoutError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _cmd_version(args: argparse.Namespace) -> int:
    print(f"{PROG} {package_version()}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The complete ``repro`` argument parser (exposed for the docs/tests)."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Reproduction toolchain: run analyses through the unified "
                    "session API, index corpora, run resumable studies, "
                    "manage artifact caches, serve analyses as a daemon.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {package_version()}")
    commands = parser.add_subparsers(dest="command", required=True)

    # -- analyze ------------------------------------------------------------
    analyze = commands.add_parser(
        "analyze",
        help="run registered analyzers over a corpus via the session API")
    analyze.add_argument("corpus", choices=("contracts", "snippets"),
                         help="which synthetic corpus to analyze: deployed "
                              "contracts or collected Q&A snippets")
    analyze.add_argument("--analyses", default="ccd,ccc",
                         help="comma-separated analyzer ids (default: ccd,ccc; "
                              "see 'repro analyzers list')")
    analyze.add_argument("--batch", action="store_true",
                         help="materialize all results at once via session.run "
                              "(default: stream via session.run_iter)")
    analyze.add_argument("--backend", choices=BACKENDS, default="serial",
                         help="executor backend (default: serial)")
    analyze.add_argument("--max-workers", type=int, default=None,
                         help="worker count for thread/process backends")
    analyze.add_argument("--cache", default=None,
                         help="disk artifact cache directory (warm reruns)")
    analyze.add_argument("--timeout", type=float, default=None,
                         help="CCC per-unit timeout in seconds (default: none)")
    analyze.add_argument("--verbose", action="store_true",
                         help="print one line per analyzed item to stderr")
    analyze.add_argument("--profile", action="store_true",
                         help="print the per-stage clone-matcher profile "
                              "(candidate generation vs verification: "
                              "counts, pruning, wall time)")
    _add_detector_arguments(analyze)
    _add_corpus_arguments(analyze)
    analyze.set_defaults(handler=_cmd_analyze)

    # -- analyzers / queries ------------------------------------------------
    analyzers = commands.add_parser(
        "analyzers", help="inspect the analyzer registry")
    analyzers_commands = analyzers.add_subparsers(dest="subcommand", required=True)
    analyzers_list = analyzers_commands.add_parser(
        "list", help="print every registered analyzer (id, scope, title)")
    analyzers_list.set_defaults(handler=_cmd_analyzers_list)

    queries = commands.add_parser(
        "queries", help="inspect the CCC vulnerability-query registry")
    queries_commands = queries.add_subparsers(dest="subcommand", required=True)
    queries_list = queries_commands.add_parser(
        "list", help="print every CCC query (id, DASP category, title)")
    queries_list.add_argument("--url", default=None,
                              help="base URL of a daemon; lists its registry "
                                   "(built-in plus registered custom queries) "
                                   "instead of the local one")
    queries_list.set_defaults(handler=_cmd_queries_list)
    queries_register = queries_commands.add_parser(
        "register", help="register a custom DASP-style predicate query with "
                         "a running daemon")
    queries_register.add_argument("--url", required=True,
                                  help="base URL of the daemon")
    queries_register.add_argument("--spec", required=True,
                                  help="path to a JSON query spec file")
    queries_register.set_defaults(handler=_cmd_queries_register)

    # -- index --------------------------------------------------------------
    index = commands.add_parser(
        "index", help="build or inspect a saved CCD corpus index")
    index_commands = index.add_subparsers(dest="subcommand", required=True)
    build = index_commands.add_parser(
        "build", help="fingerprint a contract corpus and save its index")
    build.add_argument("--output", required=True, help="index output directory")
    build.add_argument("--cache", default=None,
                       help="disk artifact cache directory (warm restarts)")
    _add_detector_arguments(build)
    _add_corpus_arguments(build)
    build.set_defaults(handler=_cmd_index_build)
    info = index_commands.add_parser("info", help="print a saved index's manifest")
    info.add_argument("index", help="index directory")
    info.set_defaults(handler=_cmd_index_info)

    # -- study --------------------------------------------------------------
    study = commands.add_parser(
        "study", help="run or resume the vulnerable-code-reuse study")
    study_commands = study.add_subparsers(dest="subcommand", required=True)
    run = study_commands.add_parser(
        "run", help="run the full Figure 6 study (optionally checkpointed)")
    run.add_argument("--checkpoint", default=None,
                     help="checkpoint directory (enables kill-and-resume)")
    run.add_argument("--cache", default=None,
                     help="disk artifact cache directory (warm reruns)")
    run.add_argument("--backend", choices=BACKENDS, default="serial",
                     help="executor backend for the hot loops (default: serial)")
    run.add_argument("--max-workers", type=int, default=None,
                     help="worker count for thread/process backends")
    run.add_argument("--checkpoint-chunk-size", type=int, default=32,
                     help="snippets/candidates per durable chunk (default: 32)")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-chunk progress output")
    _add_detector_arguments(run)
    _add_corpus_arguments(run)
    run.set_defaults(handler=_cmd_study_run)
    resume = study_commands.add_parser(
        "resume", help="resume a killed study from its checkpoint directory")
    resume.add_argument("--checkpoint", required=True, help="checkpoint directory")
    resume.add_argument("--quiet", action="store_true",
                        help="suppress progress and stage-state output")
    resume.set_defaults(handler=_cmd_study_resume)

    # -- cache --------------------------------------------------------------
    cache = commands.add_parser("cache", help="inspect or garbage-collect artifact caches")
    cache_commands = cache.add_subparsers(dest="subcommand", required=True)
    stats = cache_commands.add_parser("stats", help="print disk cache statistics")
    stats.add_argument("cache", help="cache directory")
    stats.set_defaults(handler=_cmd_cache_stats)
    gc = cache_commands.add_parser("gc", help="evict old or excess cache entries")
    gc.add_argument("cache", help="cache directory")
    gc.add_argument("--max-entries", type=int, default=None,
                    help="keep at most this many most-recently-used entries")
    gc.add_argument("--max-age-days", type=float, default=None,
                    help="evict entries not used within this many days")
    gc.add_argument("--no-vacuum", action="store_true",
                    help="skip reclaiming file space after eviction")
    gc.set_defaults(handler=_cmd_cache_gc)

    # -- serve ----------------------------------------------------------------
    serve = commands.add_parser(
        "serve", help="run the analysis service daemon (resident index + "
                      "persistent job queue + HTTP API)")
    serve.add_argument("--data-dir", required=True,
                       help="service state directory (job store, persisted "
                            "index, artifact cache)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8741,
                       help="TCP port; 0 picks a free port (default: 8741)")
    serve.add_argument("--backend", choices=BACKENDS, default="thread",
                       help="executor backend of the resident session "
                            "(default: thread)")
    serve.add_argument("--max-workers", type=int, default=None,
                       help="worker count for thread/process backends")
    serve.add_argument("--workers", default="1",
                       help="worker role: scheduler worker threads (1 keeps "
                            "job execution strictly FIFO; default: 1). "
                            "coordinator role: comma-separated worker daemon "
                            "URLs, in stable shard order")
    serve.add_argument("--role", choices=("worker", "coordinator"),
                       default="worker",
                       help="worker (default): one resident daemon over its "
                            "own corpus slice; coordinator: scatter-gather "
                            "front fanning jobs out across --workers URLs")
    serve.add_argument("--shard-timeout", type=float, default=300.0,
                       help="coordinator role: seconds a fan-out waits for "
                            "its slowest shard before declaring the missing "
                            "shards degraded (default: 300)")
    serve.add_argument("--connect-timeout", type=float, default=10.0,
                       help="coordinator role: seconds a refused worker "
                            "connection is retried with backoff before the "
                            "shard counts as unreachable (default: 10)")
    serve.add_argument("--tenant-quotas", default=None, metavar="PATH",
                       help="TOML/JSON file of per-tenant "
                            "rate/burst/max_inflight admission quotas keyed "
                            "by X-Repro-Tenant header")
    serve.add_argument("--max-pending-jobs", type=int, default=256,
                       help="queued-job bound beyond "
                            "which submissions are shed with 503 "
                            "(default: 256)")
    serve.add_argument("--max-connections", type=int, default=1024,
                       help="open-connection bound beyond "
                            "which new connections are shed with 503 "
                            "(default: 1024)")
    serve.add_argument("--no-coalesce", action="store_true",
                       help="disable content-hash "
                            "coalescing of concurrent identical submissions")
    serve.add_argument("--batch-aging", type=int, default=4,
                       help="serve at most this many consecutive interactive "
                            "jobs before a waiting batch job runs "
                            "(default: 4)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the disk artifact cache under the data dir")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per HTTP request to stderr")
    _add_detector_arguments(serve)
    serve.set_defaults(handler=_cmd_serve)

    # -- submit ---------------------------------------------------------------
    submit = commands.add_parser(
        "submit", help="submit an analysis job to a running daemon")
    submit.add_argument("corpus", choices=("contracts", "snippets"),
                        help="which synthetic corpus to submit: deployed "
                             "contracts or collected Q&A snippets")
    submit.add_argument("--url", required=True,
                        help="base URL of the daemon (e.g. http://127.0.0.1:8741)")
    submit.add_argument("--analyses", default="ccd,ccc",
                        help="comma-separated analyzer ids (default: ccd,ccc)")
    submit.add_argument("--ingest", action="store_true",
                        help="POST the synthetic contract corpus to /v1/corpus "
                             "first, so submitted snippets match against it")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job completes and print a summary")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="--wait timeout in seconds (default: 300)")
    submit.add_argument("--priority", choices=("interactive", "batch"),
                        default=None,
                        help="scheduling lane (daemon default: batch)")
    submit.add_argument("--tenant", default=None,
                        help="tenant label sent as X-Repro-Tenant (quota "
                             "accounting on the asyncio front end)")
    _add_corpus_arguments(submit)
    submit.set_defaults(handler=_cmd_submit)

    # -- jobs -----------------------------------------------------------------
    jobs = commands.add_parser(
        "jobs", help="inspect a running daemon's job queue")
    jobs_commands = jobs.add_subparsers(dest="subcommand", required=True)
    jobs_list = jobs_commands.add_parser("list", help="list recent jobs")
    jobs_list.add_argument("--url", required=True, help="base URL of the daemon")
    jobs_list.add_argument("--state", default=None,
                           choices=("queued", "running", "done", "failed",
                                    "cancelled"),
                           help="only jobs in this state")
    jobs_list.add_argument("--limit", type=int, default=20,
                           help="maximum jobs to list (default: 20)")
    jobs_list.add_argument("--offset", type=int, default=0,
                           help="matching jobs to skip before the page "
                                "(default: 0)")
    jobs_list.add_argument("--tenant", default=None,
                           help="only jobs submitted under this tenant label")
    jobs_list.set_defaults(handler=_cmd_jobs_list)
    jobs_show = jobs_commands.add_parser(
        "show", help="show one job's status and result summary")
    jobs_show.add_argument("job_id", type=int, help="job id")
    jobs_show.add_argument("--url", required=True, help="base URL of the daemon")
    jobs_show.set_defaults(handler=_cmd_jobs_show)
    jobs_cancel = jobs_commands.add_parser(
        "cancel", help="cancel a queued or running job")
    jobs_cancel.add_argument("job_id", type=int, help="job id")
    jobs_cancel.add_argument("--url", required=True,
                             help="base URL of the daemon")
    jobs_cancel.set_defaults(handler=_cmd_jobs_cancel)

    # -- workload -------------------------------------------------------------
    workload = commands.add_parser(
        "workload", help="submit and track durable, resumable evaluation "
                         "workloads on a daemon")
    workload_commands = workload.add_subparsers(dest="subcommand",
                                                required=True)
    workload_run = workload_commands.add_parser(
        "run", help="submit a workload job (suite, baseline, or sweep)")
    workload_run.add_argument("kind",
                              help="workload kind (see GET /v1/workloads "
                                   "for the registry)")
    workload_run.add_argument("--url", required=True,
                              help="base URL of the daemon")
    workload_run.add_argument("--params", default=None,
                              help="JSON object of workload parameters")
    workload_run.add_argument("--priority", default=None,
                              choices=("interactive", "batch"),
                              help="scheduling lane (default: batch)")
    workload_run.add_argument("--tenant", default=None,
                              help="tenant label sent as X-Repro-Tenant")
    workload_run.add_argument("--wait", action="store_true",
                              help="block until the workload finishes and "
                                   "print the merged report")
    workload_run.add_argument("--timeout", type=float, default=600.0,
                              help="seconds to wait with --wait "
                                   "(default: 600)")
    workload_run.add_argument("--output", default=None,
                              help="with --wait, write the merged report "
                                   "JSON here instead of stdout")
    workload_run.set_defaults(handler=_cmd_workload_run)
    workload_list = workload_commands.add_parser(
        "list", help="list workload jobs with chunk progress")
    workload_list.add_argument("--url", required=True,
                               help="base URL of the daemon")
    workload_list.add_argument("--state", default=None,
                               choices=("queued", "running", "done",
                                        "failed", "cancelled"),
                               help="only workloads in this state")
    workload_list.add_argument("--limit", type=int, default=20,
                               help="maximum workloads to list (default: 20)")
    workload_list.add_argument("--offset", type=int, default=0,
                               help="matching workloads to skip before the "
                                    "page (default: 0)")
    workload_list.set_defaults(handler=_cmd_workload_list)
    workload_show = workload_commands.add_parser(
        "show", help="show one workload's progress and chunk table")
    workload_show.add_argument("job_id", type=int, help="workload job id")
    workload_show.add_argument("--url", required=True,
                               help="base URL of the daemon")
    workload_show.add_argument("--chunks", action="store_true",
                               help="also print the per-chunk state table")
    workload_show.set_defaults(handler=_cmd_workload_show)
    workload_resume = workload_commands.add_parser(
        "resume", help="requeue a failed or cancelled workload; completed "
                       "chunks are kept and skipped")
    workload_resume.add_argument("job_id", type=int, help="workload job id")
    workload_resume.add_argument("--url", required=True,
                                 help="base URL of the daemon")
    workload_resume.set_defaults(handler=_cmd_workload_resume)

    # -- cluster --------------------------------------------------------------
    cluster = commands.add_parser(
        "cluster", help="inspect a running cluster coordinator")
    cluster_commands = cluster.add_subparsers(dest="subcommand", required=True)
    cluster_status = cluster_commands.add_parser(
        "status", help="per-shard health, index sizes, and routing")
    cluster_status.add_argument("--url", required=True,
                                help="base URL of the coordinator")
    cluster_status.set_defaults(handler=_cmd_cluster_status)

    # -- watch ----------------------------------------------------------------
    watch = commands.add_parser(
        "watch", help="watch a directory, re-analyze edited files via a "
                      "daemon, print only the changed findings")
    watch.add_argument("directory",
                       help="directory of Solidity sources to watch")
    watch.add_argument("--url", required=True,
                       help="base URL of the daemon (e.g. http://127.0.0.1:8741)")
    watch.add_argument("--analyses", default="ccd,ccc",
                       help="comma-separated analyzer ids (default: ccd,ccc)")
    watch.add_argument("--pattern", default="*.sol",
                       help="glob of files to watch, matched recursively "
                            "(default: *.sol)")
    watch.add_argument("--interval", type=float, default=1.0,
                       help="seconds between directory scans (default: 1)")
    watch.add_argument("--once", action="store_true",
                       help="run the initial ingest plus a single change-"
                            "detection cycle, then exit")
    watch.add_argument("--timeout", type=float, default=120.0,
                       help="per-job wait timeout in seconds (default: 120)")
    watch.set_defaults(handler=_cmd_watch)

    # -- version --------------------------------------------------------------
    version = commands.add_parser("version", help="print the package version")
    version.set_defaults(handler=_cmd_version)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro`` console script; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


__all__ = ["build_parser", "main"]
