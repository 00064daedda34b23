"""Two-phase validation of candidate contracts with CCC (Sections 6.3/6.4).

Contracts identified by CCD as containing a vulnerable snippet are
re-analysed with CCC, restricted to the vulnerability (query) that was
found in the snippet.  Phase 1 runs with a per-contract timeout; contracts
that time out are retried in phase 2 with iteratively reduced data-flow
path lengths ("path reduction"), which avoids path explosion without
affecting negated mitigation sub-queries (the bound is only applied to the
positive part of the search).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.ccc.checker import AnalysisResult, ContractChecker
from repro.ccc.dasp import DaspCategory
from repro.core.artifacts import ArtifactStore, ArtifactStoreSpec, process_local_store


@dataclass(frozen=True)
class ValidationCandidate:
    """One snippet/contract pair queued for validation (picklable)."""

    address: str
    source: str
    snippet_id: str
    query_ids: tuple[str, ...] = ()


@dataclass
class ValidationOutcome:
    """The validation result for one candidate contract."""

    address: str
    snippet_id: str
    expected_queries: tuple[str, ...]
    vulnerable: bool = False
    confirmed_queries: tuple[str, ...] = ()
    timed_out: bool = False
    analysis_error: Optional[str] = None
    phase: int = 1
    elapsed_seconds: float = 0.0


@dataclass
class ValidationSummary:
    """Aggregate statistics over all validated contracts (Table 7 rows)."""

    outcomes: list[ValidationOutcome] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        """Number of snippet/contract pairs that entered validation."""
        return len(self.outcomes)

    @property
    def completed(self) -> int:
        """Pairs whose analysis finished (no timeout, no parse error)."""
        return sum(1 for outcome in self.outcomes if not outcome.timed_out and outcome.analysis_error is None)

    @property
    def completed_phase1(self) -> int:
        """Pairs that completed without needing phase-2 path reduction."""
        return sum(1 for outcome in self.outcomes
                   if outcome.phase == 1 and not outcome.timed_out and outcome.analysis_error is None)

    @property
    def vulnerable(self) -> int:
        """Pairs whose contract confirmed at least one expected query."""
        return sum(1 for outcome in self.outcomes if outcome.vulnerable)


class ContractValidator:
    """Run the two-phase CCC validation on snippet/contract candidate pairs."""

    def __init__(
        self,
        timeout_seconds: float = 1800.0,
        reduced_flow_depths: Sequence[int] = (24, 12, 6),
        checker: Optional[ContractChecker] = None,
        store: Optional[ArtifactStore] = None,
    ):
        self.timeout_seconds = timeout_seconds
        self.reduced_flow_depths = tuple(reduced_flow_depths)
        self.checker = checker if checker is not None else ContractChecker(store=store)

    def validate(
        self,
        address: str,
        source: str,
        snippet_id: str,
        query_ids: Sequence[str],
        categories: Optional[Sequence[DaspCategory]] = None,
    ) -> ValidationOutcome:
        """Validate one contract against the queries that flagged its snippet."""
        outcome = ValidationOutcome(address=address, snippet_id=snippet_id,
                                    expected_queries=tuple(query_ids))
        result = self._run(source, query_ids, categories, max_flow_depth=None)
        outcome.elapsed_seconds = result.elapsed_seconds
        if result.parse_error is not None:
            outcome.analysis_error = result.parse_error
            return outcome
        if not result.timed_out:
            self._apply(outcome, result, phase=1)
            return outcome
        # phase 2: iteratively reduce the explored data-flow path length
        for depth in self.reduced_flow_depths:
            result = self._run(source, query_ids, categories, max_flow_depth=depth)
            outcome.elapsed_seconds += result.elapsed_seconds
            if result.parse_error is not None:
                outcome.analysis_error = result.parse_error
                return outcome
            if not result.timed_out:
                self._apply(outcome, result, phase=2)
                return outcome
        outcome.timed_out = True
        outcome.phase = 2
        return outcome

    def validate_candidate(self, candidate: ValidationCandidate) -> ValidationOutcome:
        """Validate one queued :class:`ValidationCandidate`."""
        return self.validate(
            address=candidate.address,
            source=candidate.source,
            snippet_id=candidate.snippet_id,
            query_ids=candidate.query_ids,
        )

    # -- helpers -------------------------------------------------------------
    def _run(
        self,
        source: str,
        query_ids: Sequence[str],
        categories: Optional[Sequence[DaspCategory]],
        max_flow_depth: Optional[int],
    ) -> AnalysisResult:
        return self.checker.analyze(
            source,
            snippet=True,
            query_ids=list(query_ids) if query_ids else None,
            categories=list(categories) if categories else None,
            timeout=self.timeout_seconds,
            max_flow_depth=max_flow_depth,
        )

    @staticmethod
    def _apply(outcome: ValidationOutcome, result: AnalysisResult, phase: int) -> None:
        outcome.phase = phase
        confirmed = sorted(result.query_ids())
        outcome.confirmed_queries = tuple(confirmed)
        outcome.vulnerable = bool(confirmed)


@dataclass(frozen=True)
class _ValidationTaskSpec:
    """Picklable description of one validator configuration."""

    timeout_seconds: float
    reduced_flow_depths: tuple[int, ...]
    store_spec: Optional[ArtifactStoreSpec]


def _validate_task(spec: _ValidationTaskSpec, candidate: ValidationCandidate) -> ValidationOutcome:
    """Validate one candidate inside a process-backend worker."""
    store = process_local_store(spec.store_spec) if spec.store_spec is not None else None
    validator = ContractValidator(
        timeout_seconds=spec.timeout_seconds,
        reduced_flow_depths=spec.reduced_flow_depths,
        checker=ContractChecker(store=store),
    )
    return validator.validate_candidate(candidate)
