"""The built-in analyzers: CCD, CCC, validation, temporal, correlation.

Each workload is registered here as an
:class:`~repro.api.registry.Analyzer` so it runs through the uniform
:class:`~repro.api.session.AnalysisSession` entry points.  The heavy
lifting still lives in the original modules — these classes only adapt
the uniform :class:`~repro.api.envelope.AnalysisRequest` to each layer's
single-item API, reusing the existing picklable process-backend task
machinery (:func:`repro.ccd.detector._fingerprint_task`,
:func:`repro.ccc.checker._analyze_task`,
:func:`repro.pipeline.validation._validate_task`) so every executor
backend produces results identical to the serial single-item calls.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.api.envelope import AnalysisRequest
from repro.api.registry import Analyzer, register_analyzer
from repro.ccc.checker import ContractChecker, _analyze_task, _AnalysisTaskSpec
from repro.ccd.detector import CloneDetector, _fingerprint_task
from repro.ccd.score_memo import ScoreMemoTable
from repro.pipeline.correlation import correlate_views_with_adoption
from repro.pipeline.temporal import TemporalCategories, categorize_pairs
from repro.pipeline.validation import (
    ContractValidator,
    ValidationCandidate,
    _validate_task,
    _ValidationTaskSpec,
)
from repro.solidity.splitter import split_source


def _base_source(changed_only, contract_id) -> Optional[str]:
    """The base source recorded for a contract id in a ``changed_only`` map.

    Jobs travel as JSON, whose object keys are strings — integer
    contract ids are looked up under their string form too.
    """
    if not isinstance(changed_only, dict):
        return None
    if contract_id in changed_only:
        return changed_only[contract_id]
    return changed_only.get(str(contract_id))


# ---------------------------------------------------------------------------
# clone detection (CCD)
# ---------------------------------------------------------------------------

@dataclass
class _CloneDetectionState:
    """Per-run state of the CCD analyzer."""

    detector: CloneDetector
    #: drop matches of a contract against itself (self-indexed runs)
    exclude_self: bool
    similarity_threshold: Optional[float] = None
    ngram_threshold: Optional[float] = None
    #: ``{contract_id: base source}`` — report only matches that are new
    #: or changed relative to the base source's matches
    changed_only: Optional[dict] = None


@register_analyzer("ccd")
class CloneDetectionAnalyzer(Analyzer):
    """Find Type I-III clones of every corpus item (Figure 4 of the paper).

    Options: ``detector`` matches items against an existing
    :class:`~repro.ccd.detector.CloneDetector` index; without it the corpus itself is indexed
    during :meth:`prepare` and each item is matched pairwise against the
    rest (the honeypot protocol of Section 5.7.1).
    ``similarity_threshold`` / ``ngram_threshold`` override the
    detector's thresholds per run; ``similarity_backend`` selects the
    verification backend of a freshly built detector (the session
    config's by default) and ``score_memo_path`` attaches a persistent
    corpus-global score memo to it (the session config's
    ``score_memo_path`` by default).  ``profile_sink``, when given, is a mutable
    list the analyzer appends its detector to, so callers can read the
    per-stage :class:`~repro.ccd.matcher.MatchStats` afterwards (the CLI
    ``--profile`` flag uses this).  The payload is a list of
    :class:`~repro.ccd.matcher.CloneMatch` (sorted by similarity), or
    ``None`` when the item is unparsable.
    """

    title = "CCD clone detection (fingerprint + N-gram pre-filter)"

    def prepare(self, session, requests, options):
        """Adopt the optional prebuilt detector or index the corpus."""
        detector = options.get("detector")
        exclude_self = False
        if detector is None:
            config = session.config
            memo_path = options.get(
                "score_memo_path", getattr(config, "score_memo_path", None))
            detector = CloneDetector(
                ngram_size=config.ngram_size,
                ngram_threshold=config.ngram_threshold,
                similarity_threshold=config.similarity_threshold,
                fingerprint_block_size=config.fingerprint_block_size,
                fingerprint_window=config.fingerprint_window,
                store=session.store,
                similarity_backend=options.get(
                    "similarity_backend", config.similarity_backend),
                score_memo=ScoreMemoTable(memo_path) if memo_path else None,
            )
            detector.add_corpus(
                [(request.contract_id, request.source) for request in requests],
                executor=session.executor)
            exclude_self = True
        sink = options.get("profile_sink")
        if sink is not None:
            sink.append(detector)
        return _CloneDetectionState(
            detector=detector,
            exclude_self=exclude_self,
            similarity_threshold=options.get("similarity_threshold"),
            ngram_threshold=options.get("ngram_threshold"),
            changed_only=options.get("changed_only"),
        )

    def _match(self, state: _CloneDetectionState, request: AnalysisRequest, fingerprint):
        matches = state.detector.find_clones(
            fingerprint=fingerprint,
            similarity_threshold=state.similarity_threshold,
            ngram_threshold=state.ngram_threshold,
        )
        if state.exclude_self:
            matches = [match for match in matches
                       if match.document_id != request.contract_id]
        base = _base_source(state.changed_only, request.contract_id)
        if base is None:
            return matches
        return self._changed_matches(state, request, matches, base)

    def _changed_matches(self, state: _CloneDetectionState,
                         request: AnalysisRequest, matches, base: str):
        """Only the matches that differ from the base source's matches.

        A match survives when its document is new, or its similarity
        changed, relative to matching ``base`` against the same index.
        An unparsable base keeps every match (nothing to diff against).
        """
        try:
            base_fingerprint = state.detector.fingerprint_source(base)
        except Exception:
            return matches
        baseline = state.detector.find_clones(
            fingerprint=base_fingerprint,
            similarity_threshold=state.similarity_threshold,
            ngram_threshold=state.ngram_threshold,
        )
        if state.exclude_self:
            baseline = [match for match in baseline
                        if match.document_id != request.contract_id]
        before = {match.document_id: match.similarity for match in baseline}
        return [match for match in matches
                if before.get(match.document_id) != match.similarity]

    def analyze(self, session, state, request):
        """Fingerprint and match one item against the index (shared state)."""
        try:
            fingerprint = state.detector.fingerprint_source(request.source)
        except Exception:
            # pathological query snippets count as unparsable rather than
            # aborting the batch (long-standing pipeline behavior)
            return None
        return self._match(state, request, fingerprint)

    def task(self, session, state, options):
        """Worker task: fingerprint only (the index stays in the parent)."""
        return _CcdTask(spec=state.detector._store_spec())

    def finish(self, session, state, request, intermediate):
        """Score the worker-computed fingerprint against the parent index."""
        if intermediate is None:
            return None
        return self._match(state, request, intermediate)


@dataclass(frozen=True)
class _CcdTask:
    """Picklable per-request fingerprint task for the process backend."""

    spec: Any

    def __call__(self, request: AnalysisRequest):
        """Fingerprint the request source inside the worker (tolerantly)."""
        return _fingerprint_task(self.spec, request.source, strict=False)


# ---------------------------------------------------------------------------
# vulnerability checking (CCC)
# ---------------------------------------------------------------------------

@dataclass
class _VulnerabilityState:
    """Per-run state of the CCC analyzer."""

    checker: ContractChecker
    snippet: bool = True
    categories: Optional[tuple] = None
    query_ids: Optional[tuple] = None
    timeout: Optional[float] = None
    max_flow_depth: Optional[int] = None
    #: ``{contract_id: base source}`` — keep only findings in functions
    #: the edit touched (line-range filter over the function splitter)
    changed_only: Optional[dict] = None


@dataclass(frozen=True)
class _CccTask:
    """Picklable per-request CCC task for the process backend."""

    spec: _AnalysisTaskSpec

    def __call__(self, request: AnalysisRequest):
        """Analyse the request source inside the worker."""
        spec = self.spec
        query_ids = request.options.get("query_ids")
        if query_ids:
            spec = dataclasses.replace(spec, query_ids=tuple(query_ids))
        return _analyze_task(spec, request.source)


@register_analyzer("ccc")
class VulnerabilityAnalyzer(Analyzer):
    """Run the 17 DASP vulnerability queries against every corpus item.

    Options: ``checker`` adopts an existing
    :class:`~repro.ccc.checker.ContractChecker`; ``snippet``, ``categories``, ``query_ids``,
    ``timeout``, and ``max_flow_depth`` mirror
    :meth:`~repro.ccc.checker.ContractChecker.analyze`.  A per-request
    ``query_ids`` entry in :attr:`AnalysisRequest.options` overrides the
    run-level selection.  The payload is a
    :class:`~repro.ccc.checker.AnalysisResult`.
    """

    title = "CCC vulnerability checking (17 DASP queries on the CPG)"

    def prepare(self, session, requests, options):
        """Adopt the optional prebuilt checker or build one on the store."""
        checker = options.get("checker")
        if checker is None:
            checker = ContractChecker(
                timeout=options.get("timeout", session.config.checker_timeout),
                max_flow_depth=options.get("max_flow_depth"),
                store=session.store,
            )
        categories = options.get("categories")
        query_ids = options.get("query_ids")
        return _VulnerabilityState(
            checker=checker,
            snippet=options.get("snippet", True),
            categories=tuple(categories) if categories is not None else None,
            query_ids=tuple(query_ids) if query_ids is not None else None,
            timeout=options.get("timeout"),
            max_flow_depth=options.get("max_flow_depth"),
            changed_only=options.get("changed_only"),
        )

    def analyze(self, session, state, request):
        """Analyse one item through the shared checker (serial/thread path)."""
        query_ids = request.options.get("query_ids") or state.query_ids
        result = state.checker.analyze(
            request.source,
            snippet=state.snippet,
            categories=state.categories,
            query_ids=query_ids,
            timeout=state.timeout,
            max_flow_depth=state.max_flow_depth,
        )
        return self._filter_changed(state, request, result)

    def finish(self, session, state, request, intermediate):
        """Apply the ``changed_only`` filter to worker-computed results."""
        return self._filter_changed(state, request, intermediate)

    @staticmethod
    def _filter_changed(state: _VulnerabilityState, request: AnalysisRequest,
                        result):
        """Drop findings whose function the edit did not touch.

        Both sources are split into function spans; a finding inside a
        span whose content key also appears in the base source is
        unchanged and dropped.  Findings outside any span (headers,
        state variables), or any source the splitter cannot model, are
        kept — the filter only ever *narrows* when it is provably safe.
        """
        base = _base_source(state.changed_only, request.contract_id)
        if base is None or result is None or not result.ok:
            return result
        base_split = split_source(base)
        new_split = split_source(request.source)
        if base_split is None or new_split is None:
            return result
        base_keys = {span.key for span in base_split.spans}
        spans = [(span.start_line, span.end_line, span.key in base_keys)
                 for span in new_split.spans]

        def changed(finding) -> bool:
            for start, end, in_base in spans:
                if start <= finding.line <= end:
                    return not in_base
            return True

        return dataclasses.replace(
            result,
            findings=[finding for finding in result.findings
                      if changed(finding)])

    def task(self, session, state, options):
        """Worker task: full analysis worker-side via a rehydrated store."""
        checker = state.checker
        return _CccTask(_AnalysisTaskSpec(
            store_spec=checker.store.spec if checker.store is not None else None,
            snippet=state.snippet,
            categories=state.categories,
            query_ids=state.query_ids,
            timeout=state.timeout if state.timeout is not None else checker.timeout,
            max_flow_depth=state.max_flow_depth if state.max_flow_depth is not None
            else checker.max_flow_depth,
        ))


# ---------------------------------------------------------------------------
# two-phase validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ValidateTask:
    """Picklable per-request validation task for the process backend."""

    spec: _ValidationTaskSpec

    def __call__(self, request: AnalysisRequest):
        """Validate the request's candidate inside the worker."""
        return _validate_task(self.spec, _request_candidate(request))


def _request_candidate(request: AnalysisRequest) -> ValidationCandidate:
    """Rebuild the :class:`ValidationCandidate` a request was adapted from."""
    return ValidationCandidate(
        address=request.contract_id,
        source=request.source,
        snippet_id=request.options.get("snippet_id", ""),
        query_ids=tuple(request.options.get("query_ids", ()) or ()),
    )


@register_analyzer("validate")
class ValidationAnalyzer(Analyzer):
    """Two-phase CCC validation of candidate contracts (Sections 6.3/6.4).

    Options: ``validator`` adopts an existing
    :class:`~repro.pipeline.validation.ContractValidator`;
    ``timeout_seconds`` / ``reduced_flow_depths`` configure a fresh one.
    Each request's ``snippet_id`` and ``query_ids`` options restrict the
    validation to the queries that flagged the snippet (an empty
    selection validates against every query).  The payload is a
    :class:`~repro.pipeline.validation.ValidationOutcome`.
    """

    title = "two-phase CCC validation (timeout + path reduction)"

    def prepare(self, session, requests, options):
        """Adopt the optional prebuilt validator or build one on the store."""
        validator = options.get("validator")
        if validator is None:
            config = session.config
            validator = ContractValidator(
                timeout_seconds=options.get(
                    "timeout_seconds", config.validation_timeout_seconds),
                reduced_flow_depths=options.get(
                    "reduced_flow_depths", config.reduced_flow_depths),
                checker=ContractChecker(store=session.store),
            )
        return validator

    def analyze(self, session, state, request):
        """Validate one candidate through the shared validator."""
        return state.validate_candidate(_request_candidate(request))

    def task(self, session, state, options):
        """Worker task: rebuild an equivalent validator inside the worker."""
        checker = state.checker
        return _ValidateTask(_ValidationTaskSpec(
            timeout_seconds=state.timeout_seconds,
            reduced_flow_depths=state.reduced_flow_depths,
            store_spec=checker.store.spec if checker.store is not None else None,
        ))


# ---------------------------------------------------------------------------
# temporal categorisation and correlation (corpus scope)
# ---------------------------------------------------------------------------

def _snippet_items(corpus: Sequence) -> list:
    """The :class:`~repro.datasets.corpus.Snippet`-shaped items of a corpus."""
    return [item for item in corpus
            if getattr(item, "snippet_id", None) is not None
            and getattr(item, "text", None) is not None]


def _resolve_temporal(session, corpus, options, analyzer_id: str):
    """Shared input resolution of the temporal/correlation analyzers.

    An empty snippet corpus is legal (it yields empty categories, like
    the legacy ``categorize_pairs`` path); only the deployed contracts
    are strictly required.
    """
    snippets = options.get("snippets") or _snippet_items(corpus)
    contracts = options.get("contracts")
    if contracts is None:
        raise ValueError(
            f"the {analyzer_id!r} analyzer needs a snippet corpus and "
            f"options={{{analyzer_id!r}: {{'contracts': [...]}}}} with the "
            f"deployed contracts to categorize against")
    mapping = options.get("mapping")
    if mapping is None:
        from repro.pipeline.clone_mapping import map_snippets_to_contracts

        config = session.config
        mapping = map_snippets_to_contracts(
            snippets, contracts,
            ngram_size=config.ngram_size,
            ngram_threshold=config.ngram_threshold,
            similarity_threshold=config.similarity_threshold,
            fingerprint_block_size=config.fingerprint_block_size,
            session=session,
        )
    return snippets, contracts, mapping


@register_analyzer("temporal")
class TemporalAnalyzer(Analyzer):
    """All / Disseminator / Source categorisation of clone pairs (Section 6.2).

    Corpus scope: the corpus is the snippet set; ``contracts`` (required
    option) is the deployed-contract corpus, and ``mapping`` optionally
    supplies a precomputed :class:`~repro.pipeline.clone_mapping.CloneMapping`
    (it is computed through the session's CCD analyzer otherwise).  The
    payload is a :class:`~repro.pipeline.temporal.TemporalCategories`.
    """

    title = "temporal clone-pair categorisation (All/Disseminator/Source)"
    scope = "corpus"

    def analyze_corpus(self, session, corpus, options):
        """Categorize every snippet/contract clone pair temporally."""
        snippets, contracts, mapping = _resolve_temporal(
            session, corpus, options, self.analyzer_id)
        return categorize_pairs(snippets, contracts, mapping)


@register_analyzer("correlation")
class CorrelationAnalyzer(Analyzer):
    """Spearman correlation of snippet views vs. adoption (Table 5).

    Corpus scope, same inputs as the temporal analyzer; ``temporal``
    optionally supplies precomputed
    :class:`~repro.pipeline.temporal.TemporalCategories`.  The payload is
    a list of :class:`~repro.pipeline.correlation.CorrelationResult`.
    """

    title = "popularity vs. adoption correlation (Spearman rho)"
    scope = "corpus"

    def analyze_corpus(self, session, corpus, options):
        """Correlate snippet view counts with containing-contract counts."""
        temporal = options.get("temporal")
        if isinstance(temporal, TemporalCategories):
            snippets = options.get("snippets") or _snippet_items(corpus)
            contracts = options.get("contracts")
            if contracts is None:
                raise ValueError(
                    "the 'correlation' analyzer needs "
                    "options={'correlation': {'contracts': [...]}} even when "
                    "'temporal' categories are supplied")
        else:
            snippets, contracts, mapping = _resolve_temporal(
                session, corpus, options, self.analyzer_id)
            temporal = categorize_pairs(snippets, contracts, mapping)
        return correlate_views_with_adoption(snippets, contracts, temporal)


__all__ = [
    "CloneDetectionAnalyzer",
    "CorrelationAnalyzer",
    "TemporalAnalyzer",
    "ValidationAnalyzer",
    "VulnerabilityAnalyzer",
]
