"""The ContractChecker: CCC's public analysis API.

The checker optionally plugs into the shared analysis core
(:mod:`repro.core`): with an :class:`~repro.core.artifacts.ArtifactStore`
attached, the CPG of each unique source is built (and the source parsed)
at most once per process and shared with CCD and the pipeline.  Batch
analysis runs through the ``ccc`` analyzer of
:class:`repro.api.AnalysisSession`, which fans sources out over an
:class:`~repro.core.executor.Executor` (serial, thread, or process).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.ccc.dasp import DaspCategory
from repro.ccc.finding import Finding
from repro.ccc.registry import queries_for_categories, query_by_id
from repro.core.artifacts import ArtifactStore, ArtifactStoreSpec, process_local_store
from repro.cpg.builder import build_cpg
from repro.cpg.graph import CPGGraph
from repro.query import QueryContext, QueryTimeout
from repro.solidity.errors import SolidityParseError


@dataclass
class AnalysisResult:
    """The outcome of analysing one snippet or contract."""

    findings: list[Finding] = field(default_factory=list)
    timed_out: bool = False
    parse_error: Optional[str] = None
    elapsed_seconds: float = 0.0
    graph_nodes: int = 0

    @property
    def ok(self) -> bool:
        return self.parse_error is None

    def categories(self) -> set[DaspCategory]:
        return {finding.category for finding in self.findings}

    def query_ids(self) -> set[str]:
        return {finding.query_id for finding in self.findings}


class ContractChecker:
    """Analyse Solidity source (snippets or full contracts) for vulnerabilities.

    Parameters
    ----------
    timeout:
        Wall-clock budget in seconds per analysed unit (the paper uses
        1,800 s per contract in the large-scale validation, Section 6.4).
    max_flow_depth:
        Bound on explored data-flow/control-flow path lengths.  ``None``
        (default) is the unbounded phase-1 configuration; a finite value
        reproduces the phase-2 "path reduction" fallback (Section 6.3).
    store:
        Optional shared :class:`~repro.core.artifacts.ArtifactStore`; when
        set, snippet-mode analyses reuse the cached AST/CPG of each unique
        source instead of re-parsing and re-translating it.
    """

    def __init__(
        self,
        timeout: Optional[float] = None,
        max_flow_depth: Optional[int] = None,
        store: Optional[ArtifactStore] = None,
    ):
        self.timeout = timeout
        self.max_flow_depth = max_flow_depth
        self.store = store

    # -- public API ---------------------------------------------------------------
    def analyze(
        self,
        source: str,
        *,
        snippet: bool = True,
        categories: Optional[Iterable[DaspCategory]] = None,
        query_ids: Optional[Sequence[str]] = None,
        timeout: Optional[float] = None,
        max_flow_depth: Optional[int] = None,
    ) -> AnalysisResult:
        """Analyse ``source`` and return an :class:`AnalysisResult`.

        ``categories`` or ``query_ids`` restrict the executed queries — the
        validation phase of the study reruns only the query that originally
        flagged the snippet (Section 6.3).
        """
        result = AnalysisResult()
        try:
            if self.store is not None and snippet:
                # full-contract mode bypasses the store: artifacts are
                # cached for the tolerant snippet grammar only
                graph = self.store.get(source).graph
            else:
                graph = build_cpg(source, snippet=snippet)
        except SolidityParseError as exc:
            result.parse_error = str(exc)
            return result
        except RecursionError:
            result.parse_error = "recursion limit exceeded while parsing"
            return result
        return self.analyze_graph(
            graph, categories=categories, query_ids=query_ids,
            timeout=timeout, max_flow_depth=max_flow_depth, result=result,
        )

    def analyze_graph(
        self,
        graph: CPGGraph,
        *,
        categories: Optional[Iterable[DaspCategory]] = None,
        query_ids: Optional[Sequence[str]] = None,
        timeout: Optional[float] = None,
        max_flow_depth: Optional[int] = None,
        result: Optional[AnalysisResult] = None,
    ) -> AnalysisResult:
        """Run the selected queries against an already-built CPG."""
        if result is None:
            result = AnalysisResult()
        result.graph_nodes = len(graph)
        ctx = QueryContext(
            graph,
            max_flow_depth=max_flow_depth if max_flow_depth is not None else self.max_flow_depth,
            timeout=timeout if timeout is not None else self.timeout,
        )
        if query_ids is not None:
            queries = [query_by_id(query_id) for query_id in query_ids]
        else:
            queries = list(queries_for_categories(categories))
        seen: set[tuple] = set()
        for query in queries:
            try:
                findings = query.run(ctx)
            except QueryTimeout:
                result.timed_out = True
                break
            except RecursionError:
                result.timed_out = True
                break
            for finding in findings:
                key = (finding.query_id, finding.line, finding.code)
                if key in seen:
                    continue
                seen.add(key)
                result.findings.append(finding)
        result.elapsed_seconds = ctx.elapsed
        return result


@dataclass(frozen=True)
class _AnalysisTaskSpec:
    """Picklable description of one batch-analysis configuration."""

    store_spec: Optional[ArtifactStoreSpec]
    snippet: bool = True
    categories: Optional[tuple[DaspCategory, ...]] = None
    query_ids: Optional[tuple[str, ...]] = None
    timeout: Optional[float] = None
    max_flow_depth: Optional[int] = None


def _analyze_task(spec: _AnalysisTaskSpec, source: str) -> AnalysisResult:
    """Analyse one source inside a process-backend worker."""
    store = process_local_store(spec.store_spec) if spec.store_spec is not None else None
    checker = ContractChecker(
        timeout=spec.timeout, max_flow_depth=spec.max_flow_depth, store=store)
    return checker.analyze(
        source, snippet=spec.snippet, categories=spec.categories, query_ids=spec.query_ids)
