"""`AnalysisSession` — one façade over CCD, CCC, validation, and the pipeline.

A session owns exactly one :class:`~repro.core.artifacts.ArtifactStore`
(in-memory, with an optional SQLite disk tier) and one
:class:`~repro.core.executor.Executor`, wired from a typed
:class:`SessionConfig`.  Every workload — clone detection, vulnerability
checking, two-phase validation, temporal categorisation, correlation, or
anything user-registered — runs through the same two entry points::

    from repro.api import AnalysisSession, SessionConfig

    with AnalysisSession(SessionConfig(backend="thread")) as session:
        results = session.run(contracts, analyses=["ccd", "ccc"])     # batch
        for result in session.run_iter(contracts, analyses=["ccc"]):  # streaming
            print(result.contract_id, result.payload)

Both entry points share parses: each unique source is parsed at most once
per session, no matter how many analyzers consume it.  ``run_iter``
additionally bounds memory — per-contract envelopes are yielded as their
chunks complete instead of being accumulated, which is what makes
million-contract corpora tractable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Union

from repro.api.envelope import AnalysisRequest, AnalysisResult
from repro.api.registry import REGISTRY, Analyzer, AnalyzerRegistry, get_analyzer
from repro.ccd.matcher import DEFAULT_SIMILARITY_BACKEND
from repro.core.artifacts import ArtifactStore
from repro.core.executor import Executor
from repro.core.persistence import DiskArtifactStore

#: analyzer references accepted by :meth:`AnalysisSession.run`
AnalyzerRef = Union[str, Analyzer]


@dataclass(frozen=True)
class SessionConfig:
    """Typed configuration for an :class:`AnalysisSession`.

    One object replaces the divergent constructor wiring the legacy entry
    points each carried: executor backend and fan-out, artifact-store
    sizing and disk tier, the shared CCD parameters (which the store and
    every detector must agree on), and the analyzer defaults.
    """

    #: executor backend: ``"serial"``, ``"thread"``, or ``"process"``
    backend: str = "serial"
    max_workers: Optional[int] = None
    chunk_size: int = 8
    #: LRU bound of the in-memory artifact tier
    cache_size: int = 8192
    #: directory of the optional SQLite disk tier (warm restarts)
    cache_dir: Optional[str] = None
    #: CCD configuration shared by the store and session-built detectors
    ngram_size: int = 3
    fingerprint_block_size: int = 2
    fingerprint_window: int = 4
    ngram_threshold: float = 0.5
    similarity_threshold: float = 0.7
    #: CCD verification backend: ``"myers"`` (pruned over a bit-parallel
    #: distance kernel, byte-identical results) or ``"exact"`` (the
    #: naive reference)
    similarity_backend: str = DEFAULT_SIMILARITY_BACKEND
    #: SQLite file of the corpus-global (sub₁, sub₂) score memo; ``None``
    #: keeps pair scores in memory only (still shared across the
    #: session's queries, but cold after a restart)
    score_memo_path: Optional[str] = None
    #: default CCC per-unit timeout (seconds; ``None`` = unbounded)
    checker_timeout: Optional[float] = None
    #: defaults of the two-phase validation analyzer
    validation_timeout_seconds: float = 1800.0
    reduced_flow_depths: tuple = (24, 12, 6)
    #: in-flight chunk window of :meth:`AnalysisSession.run_iter`
    stream_window: int = 4

    def build_store(self) -> ArtifactStore:
        """The artifact store this configuration describes."""
        kwargs = dict(
            max_entries=self.cache_size,
            ngram_size=self.ngram_size,
            fingerprint_block_size=self.fingerprint_block_size,
            fingerprint_window=self.fingerprint_window,
        )
        if self.cache_dir is not None:
            return DiskArtifactStore(self.cache_dir, **kwargs)
        return ArtifactStore(**kwargs)

    def build_executor(self) -> Executor:
        """The executor this configuration describes."""
        return Executor.create(
            self.backend, max_workers=self.max_workers, chunk_size=self.chunk_size)


def as_request(item: Any, index: int) -> AnalysisRequest:
    """Adapt one corpus item to an :class:`AnalysisRequest`.

    Accepted shapes: a ready request, an ``(id, source)`` pair, a plain
    source string (the position becomes the id), and the dataset types by
    duck-typing — :class:`~repro.datasets.corpus.DeployedContract`
    (``address``/``source``), :class:`~repro.datasets.corpus.Snippet`
    (``snippet_id``/``text``), and
    :class:`~repro.pipeline.validation.ValidationCandidate` (whose
    ``snippet_id``/``query_ids`` ride along in the request options).
    """
    if isinstance(item, AnalysisRequest):
        return item
    if isinstance(item, str):
        return AnalysisRequest(contract_id=index, source=item)
    if isinstance(item, (tuple, list)) and len(item) == 2:
        return AnalysisRequest(contract_id=item[0], source=item[1])
    address = getattr(item, "address", None)
    source = getattr(item, "source", None)
    if address is not None and source is not None:
        options: dict = {}
        snippet_id = getattr(item, "snippet_id", None)
        if snippet_id is not None:  # a ValidationCandidate-shaped item
            options["snippet_id"] = snippet_id
            options["query_ids"] = tuple(getattr(item, "query_ids", ()) or ())
        return AnalysisRequest(contract_id=address, source=source, options=options)
    snippet_id = getattr(item, "snippet_id", None)
    text = getattr(item, "text", None)
    if snippet_id is not None and text is not None:
        return AnalysisRequest(contract_id=snippet_id, source=text)
    raise TypeError(
        f"cannot adapt corpus item of type {type(item).__name__} to an "
        f"AnalysisRequest; pass (id, source) pairs, AnalysisRequest objects, "
        f"or dataset contract/snippet/candidate objects")


def _timed_task(task, request: AnalysisRequest) -> tuple:
    """Run a worker-side analyzer task with timing (module-level: picklable)."""
    started = time.perf_counter()
    value = task(request)
    return value, time.perf_counter() - started


class AnalysisSession:
    """Run registered analyzers over a contract corpus with shared parses.

    Parameters
    ----------
    config:
        The :class:`SessionConfig`; defaults throughout when omitted.
    store / executor:
        Pre-built components to adopt instead of building them from the
        configuration — the session then does *not* own them and will not
        close them.  This is how the study and the evaluation suites wrap
        their existing wiring in a session.
    registry:
        The analyzer registry to resolve ids against; the process-wide
        default registry (with the built-in analyzers) when omitted.
    """

    def __init__(
        self,
        config: Optional[SessionConfig] = None,
        *,
        store: Optional[ArtifactStore] = None,
        executor: Optional[Executor] = None,
        registry: Optional[AnalyzerRegistry] = None,
    ):
        self.config = config if config is not None else SessionConfig()
        self._owns_store = store is None
        self._owns_executor = executor is None
        self.store = store if store is not None else self.config.build_store()
        self.executor = executor if executor is not None else self.config.build_executor()
        self.registry = registry if registry is not None else REGISTRY

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Release the executor and disk store, if this session built them."""
        if self._owns_executor:
            self.executor.close()
        if self._owns_store and isinstance(self.store, DiskArtifactStore):
            self.store.close()

    def __enter__(self) -> "AnalysisSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"AnalysisSession(backend={self.executor.backend!r}, "
                f"store={type(self.store).__name__}, "
                f"analyzers={self.registry.ids()})")

    @property
    def stats(self):
        """The artifact-store statistics (parse-once counters, hit rates)."""
        return self.store.stats

    # -- running analyses -----------------------------------------------------
    def requests(self, corpus: Iterable[Any]) -> List[AnalysisRequest]:
        """Adapt a corpus to the uniform request list (see :func:`as_request`)."""
        return [as_request(item, index) for index, item in enumerate(corpus)]

    def run(
        self,
        corpus: Iterable[Any],
        analyses: Sequence[AnalyzerRef],
        options: Optional[dict] = None,
    ) -> List[AnalysisResult]:
        """Run the named analyses over the corpus and return all envelopes.

        Results are ordered analysis-major: every envelope of the first
        analysis (in corpus order), then the second, and so on.  The
        whole result list is materialized — use :meth:`run_iter` when the
        corpus is large enough that holding every payload hurts.
        """
        return list(self._execute(corpus, analyses, options, stream=False))

    def run_iter(
        self,
        corpus: Iterable[Any],
        analyses: Sequence[AnalyzerRef],
        options: Optional[dict] = None,
    ) -> Iterator[AnalysisResult]:
        """Stream per-contract envelopes as they complete.

        Same ordering and byte-identical canonical envelopes as
        :meth:`run` under every executor backend, but only
        ``stream_window * chunk_size`` results are in flight at any
        moment, so peak memory stays flat in the corpus size.
        """
        return self._execute(corpus, analyses, options, stream=True)

    def _execute(self, corpus, analyses, options, stream: bool) -> Iterator[AnalysisResult]:
        corpus = list(corpus)
        all_options = options or {}
        resolved = [get_analyzer(ref, self.registry) for ref in analyses]

        def generate():
            requests: Optional[List[AnalysisRequest]] = None
            for analyzer in resolved:
                opts = dict(all_options.get(analyzer.analyzer_id, {}))
                if analyzer.scope == "corpus":
                    yield self._run_corpus_analysis(analyzer, corpus, opts)
                    continue
                if requests is None:
                    requests = self.requests(corpus)
                yield from self._run_contract_analysis(analyzer, requests, opts, stream)

        return generate()

    def _run_corpus_analysis(self, analyzer: Analyzer, corpus: list, opts: dict) -> AnalysisResult:
        """One corpus-scope analysis -> one envelope with ``contract_id=None``."""
        started = time.perf_counter()
        payload = analyzer.analyze_corpus(self, corpus, opts)
        return AnalysisResult(
            analyzer=analyzer.analyzer_id,
            contract_id=None,
            payload=payload,
            elapsed_seconds=time.perf_counter() - started,
        )

    def _run_contract_analysis(
        self,
        analyzer: Analyzer,
        requests: List[AnalysisRequest],
        opts: dict,
        stream: bool,
    ) -> Iterator[AnalysisResult]:
        """Fan one contract-scope analysis out over the session executor."""
        state = analyzer.prepare(self, requests, opts)
        window = max(1, self.config.stream_window)
        if self.executor.supports_shared_state:
            store = self.store

            def shared_task(request: AnalysisRequest) -> tuple:
                cached = request.source in store
                started = time.perf_counter()
                payload = analyzer.analyze(self, state, request)
                return payload, time.perf_counter() - started, cached

            if stream:
                outputs = self.executor.imap_batches(shared_task, requests, window=window)
            else:
                outputs = iter(self.executor.map_batches(shared_task, requests))
            for request, (payload, elapsed, cached) in zip(requests, outputs):
                yield AnalysisResult(
                    analyzer=analyzer.analyzer_id,
                    contract_id=request.contract_id,
                    payload=payload,
                    elapsed_seconds=elapsed,
                    cache={"artifact_cached": cached},
                )
            return
        task = partial(_timed_task, analyzer.task(self, state, opts))
        if stream:
            outputs = self.executor.imap_batches(task, requests, window=window)
        else:
            outputs = iter(self.executor.map_batches(task, requests))
        for request, (intermediate, elapsed) in zip(requests, outputs):
            yield AnalysisResult(
                analyzer=analyzer.analyzer_id,
                contract_id=request.contract_id,
                payload=analyzer.finish(self, state, request, intermediate),
                elapsed_seconds=elapsed,
            )


__all__ = ["AnalysisSession", "AnalyzerRef", "SessionConfig", "as_request"]
