"""End-to-end vulnerable-code-reuse study (Figure 6, Tables 6 and 7).

The study combines every pipeline stage:

1. collect and filter snippets (Table 4),
2. map snippets to deployed contracts with CCD,
3. identify vulnerable snippets with CCC,
4. categorise snippet/contract pairs temporally and restrict to
   disseminator (and source) snippets, deduplicate contracts,
5. validate the flagged vulnerability in every candidate contract with CCC
   (two-phase, query-restricted), and
6. aggregate the DASP category distribution and the pipeline funnel.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from repro.ccc.checker import ContractChecker
from repro.ccc.dasp import DaspCategory
from repro.ccd.matcher import DEFAULT_SIMILARITY_BACKEND
from repro.core.artifacts import ArtifactStore
from repro.core.executor import Executor
from repro.datasets.corpus import DeployedContract, Snippet
from repro.datasets.snippets import QACorpus
from repro.pipeline.checkpoint import StudyCheckpoint, StudyCheckpointError
from repro.pipeline.clone_mapping import CloneMapping, map_snippets_to_contracts
from repro.pipeline.collection import CollectionResult, SnippetCollector, canonical_text
from repro.pipeline.correlation import CorrelationResult
from repro.pipeline.temporal import TemporalCategories
from repro.pipeline.validation import (
    ContractValidator,
    ValidationCandidate,
    ValidationOutcome,
    ValidationSummary,
)

#: signature of the optional study progress callback: ``(stage, done, total)``
ProgressCallback = Callable[[str, int, int], None]


@dataclass
class StudyConfiguration:
    """Tunable parameters of the study (the paper's Section 6.3 settings).

    The ``executor_backend`` / ``max_workers`` / ``chunk_size`` fields
    select how the hot loops (corpus fingerprinting, snippet analysis,
    contract validation) run: ``"serial"`` (default), ``"thread"``, or
    ``"process"`` — see :mod:`repro.core.executor`.  All three backends
    produce identical study results.  ``artifact_cache_size`` bounds the
    shared parse-once :class:`~repro.core.artifacts.ArtifactStore`;
    ``artifact_cache_dir`` makes that store a disk-backed
    :class:`~repro.core.persistence.DiskArtifactStore`, so a rerun over
    the same corpus starts warm (zero parses).
    ``checkpoint_chunk_size`` is the number of snippets/candidates per
    durable checkpoint chunk in the checking and validation stages — a
    killed run resumes from the last completed chunk.
    """

    ngram_size: int = 3
    ngram_threshold: float = 0.5
    similarity_threshold: float = 0.9
    #: CCD verification backend ("myers" or "exact"; identical results)
    similarity_backend: str = DEFAULT_SIMILARITY_BACKEND
    validation_timeout_seconds: float = 30.0
    snippet_analysis_timeout_seconds: float = 20.0
    restrict_to_source_snippets: bool = False
    executor_backend: str = "serial"
    max_workers: Optional[int] = None
    chunk_size: int = 8
    artifact_cache_size: int = 8192
    fingerprint_block_size: int = 2
    artifact_cache_dir: Optional[str] = None
    checkpoint_chunk_size: int = 32

    def as_dict(self) -> dict:
        """JSON-serializable form (recorded in checkpoint manifests)."""
        return asdict(self)

    def session_config(self):
        """The :class:`~repro.api.SessionConfig` equivalent of this study config."""
        from repro.api.session import SessionConfig

        return SessionConfig(
            backend=self.executor_backend,
            max_workers=self.max_workers,
            chunk_size=self.chunk_size,
            cache_size=self.artifact_cache_size,
            cache_dir=self.artifact_cache_dir,
            ngram_size=self.ngram_size,
            fingerprint_block_size=self.fingerprint_block_size,
            ngram_threshold=self.ngram_threshold,
            similarity_threshold=self.similarity_threshold,
            similarity_backend=self.similarity_backend,
            checker_timeout=self.snippet_analysis_timeout_seconds,
            validation_timeout_seconds=self.validation_timeout_seconds,
        )


@dataclass
class StudyResult:
    """Everything the study produces, feeding Tables 4–8."""

    collection: Optional[CollectionResult] = None
    clone_mapping: Optional[CloneMapping] = None
    temporal: Optional[TemporalCategories] = None
    correlations: list[CorrelationResult] = field(default_factory=list)
    #: snippet_id -> query ids found by CCC
    vulnerable_snippets: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: snippet_id -> DASP categories found by CCC
    snippet_categories: dict[str, tuple[DaspCategory, ...]] = field(default_factory=dict)
    snippet_timeouts: int = 0
    validation: ValidationSummary = field(default_factory=ValidationSummary)
    #: address -> canonical source key used for contract deduplication
    unique_contract_keys: dict[str, str] = field(default_factory=dict)

    # -- Table 7 -------------------------------------------------------------
    def funnel(self) -> dict[str, int]:
        """The pipeline funnel of Table 7."""
        unique_snippets = self.collection.total_funnel.unique if self.collection else 0
        contained = [snippet_id for snippet_id in self.vulnerable_snippets
                     if self.clone_mapping and self.clone_mapping.contracts_for(snippet_id)]
        disseminator = [snippet_id for snippet_id in contained
                        if self.temporal and snippet_id in self.temporal.disseminator]
        source = [snippet_id for snippet_id in contained
                  if self.temporal and snippet_id in self.temporal.source]
        candidate_addresses = {
            address
            for snippet_id in disseminator
            for address in (self.temporal.disseminator.get(snippet_id, []) if self.temporal else [])
        }
        unique_candidates = {self.unique_contract_keys.get(address, address)
                             for address in candidate_addresses}
        vulnerable_snippets_in_contracts = {
            outcome.snippet_id for outcome in self.validation.outcomes if outcome.vulnerable
        }
        validated_addresses = {
            outcome.address for outcome in self.validation.outcomes
            if not outcome.timed_out and outcome.analysis_error is None
        }
        vulnerable_addresses = {
            outcome.address for outcome in self.validation.outcomes if outcome.vulnerable
        }
        return {
            "unique_snippets": unique_snippets,
            "vulnerable_snippets": len(self.vulnerable_snippets),
            "vulnerable_snippets_in_contracts": len(contained),
            "disseminator_snippets": len(disseminator),
            "source_snippets": len(source),
            "candidate_contracts": len(candidate_addresses),
            "unique_candidate_contracts": len(unique_candidates),
            "validated_contracts": len(validated_addresses),
            "vulnerable_contracts": len(vulnerable_addresses),
            "vulnerable_snippets_confirmed": len(vulnerable_snippets_in_contracts),
        }

    # -- Table 6 -------------------------------------------------------------
    def dasp_distribution(self) -> dict[DaspCategory, dict[str, int]]:
        """Vulnerable snippet and contract counts per DASP category (Table 6)."""
        distribution: dict[DaspCategory, dict[str, int]] = {
            category: {"snippets": 0, "contracts": 0} for category in DaspCategory
        }
        for snippet_id, categories in self.snippet_categories.items():
            for category in categories:
                distribution[category]["snippets"] += 1
        snippet_category_index = dict(self.snippet_categories)
        for outcome in self.validation.outcomes:
            if not outcome.vulnerable:
                continue
            for category in snippet_category_index.get(outcome.snippet_id, ()):
                distribution[category]["contracts"] += 1
        return distribution


class VulnerableCodeReuseStudy:
    """Orchestrates the full study on a Q&A corpus and a deployed-contract corpus.

    The study is a thin orchestration over one
    :class:`~repro.api.AnalysisSession`: every stage runs through the
    session's registered analyzers (``ccd`` for clone mapping, ``ccc``
    for snippet checking, ``validate`` for two-phase validation,
    ``temporal``/``correlation`` for the categorisation stages), so all
    stages share the session's parse-once
    :class:`~repro.core.artifacts.ArtifactStore` and its executor.  A
    ``session`` argument adopts an existing session; ``store`` /
    ``executor`` override the session components derived from the
    configuration (with ``artifact_cache_dir`` set, the derived store is
    a disk-backed :class:`~repro.core.persistence.DiskArtifactStore`).

    Pass a :class:`~repro.pipeline.checkpoint.StudyCheckpoint` to
    :meth:`run` to make the run durable: completed stages and chunks are
    replayed from disk, so a killed run resumed with the same inputs and
    configuration produces byte-identical results.
    """

    def __init__(
        self,
        configuration: Optional[StudyConfiguration] = None,
        store: Optional[ArtifactStore] = None,
        executor: Optional[Executor] = None,
        session=None,
    ):
        from repro.api.session import AnalysisSession

        self.configuration = configuration if configuration is not None else StudyConfiguration()
        if session is not None:
            self.session = session
        else:
            self.session = AnalysisSession(
                self.configuration.session_config(), store=store, executor=executor)
        self._owns_session = session is None
        self.store = self.session.store
        self.executor = self.session.executor
        self.checker = ContractChecker(
            timeout=self.configuration.snippet_analysis_timeout_seconds, store=self.store)
        self.validator = ContractValidator(
            timeout_seconds=self.configuration.validation_timeout_seconds,
            checker=ContractChecker(store=self.store),
        )

    # -- lifecycle -----------------------------------------------------------------
    def close(self) -> None:
        """Release the analysis session (only when this study created it)."""
        if self._owns_session:
            self.session.close()

    def __enter__(self) -> "VulnerableCodeReuseStudy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- pipeline stages -----------------------------------------------------------
    def run(
        self,
        qa_corpus: QACorpus,
        contracts: list[DeployedContract],
        checkpoint: Optional[StudyCheckpoint] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> StudyResult:
        """Run every stage of Figure 6 and return the aggregated results.

        Parameters
        ----------
        qa_corpus / contracts:
            The two input corpora (Q&A snippets, deployed contracts).
        checkpoint:
            Optional :class:`~repro.pipeline.checkpoint.StudyCheckpoint`.
            Completed stages and chunks recorded there are replayed
            instead of recomputed; new progress is written through after
            every stage/chunk, so the run can be killed and resumed at any
            point with byte-identical final results.
        progress:
            Optional ``callback(stage, done, total)`` invoked after every
            completed (or replayed) stage and chunk.
        """
        if checkpoint is not None:
            self._bind_checkpoint(checkpoint)
        result = StudyResult()
        result.collection = self._run_stage(
            checkpoint, progress, "collection",
            lambda: SnippetCollector(store=self.store).collect(qa_corpus))
        snippets = result.collection.snippets
        result.clone_mapping = self._run_stage(
            checkpoint, progress, "clone_mapping",
            lambda: map_snippets_to_contracts(
                snippets, contracts,
                ngram_size=self.configuration.ngram_size,
                ngram_threshold=self.configuration.ngram_threshold,
                similarity_threshold=self.configuration.similarity_threshold,
                fingerprint_block_size=self.configuration.fingerprint_block_size,
                similarity_backend=self.configuration.similarity_backend,
                session=self.session,
            ))
        # temporal categorisation and the correlation analysis are cheap,
        # deterministic pure functions of the stages above — recomputing
        # them on resume is faster than checkpointing them
        result.temporal = self.session.run(
            snippets, analyses=["temporal"],
            options={"temporal": {"contracts": contracts,
                                  "mapping": result.clone_mapping}})[0].payload
        result.correlations = self.session.run(
            snippets, analyses=["correlation"],
            options={"correlation": {"contracts": contracts,
                                     "temporal": result.temporal}})[0].payload
        self._identify_vulnerable_snippets(snippets, result, checkpoint, progress)
        self._validate_contracts(snippets, contracts, result, checkpoint, progress)
        return result

    def _bind_checkpoint(self, checkpoint: StudyCheckpoint) -> None:
        """Record (or verify) the study configuration in the checkpoint.

        Resuming with a different configuration would silently mix results
        computed under different thresholds/chunk sizes, so it is refused.
        """
        configuration = self.configuration.as_dict()
        recorded = checkpoint.metadata.get("configuration")
        if recorded is None:
            checkpoint.update_metadata(configuration=configuration)
        elif recorded != configuration:
            raise StudyCheckpointError(
                f"checkpoint at {checkpoint.directory} was written with a "
                f"different study configuration; resume with the recorded "
                f"configuration or start a fresh checkpoint directory")

    def _run_stage(self, checkpoint, progress, name: str, compute):
        """Replay stage ``name`` from the checkpoint or compute and record it."""
        payload = checkpoint.load_stage(name) if checkpoint is not None else None
        if payload is None:
            payload = compute()
            if checkpoint is not None:
                checkpoint.save_stage(name, payload)
        if progress is not None:
            progress(name, 1, 1)
        return payload

    def _chunks(self, items: list) -> list[list]:
        size = max(1, self.configuration.checkpoint_chunk_size)
        return [items[start:start + size] for start in range(0, len(items), size)]

    def _identify_vulnerable_snippets(
        self,
        snippets: list[Snippet],
        result: StudyResult,
        checkpoint: Optional[StudyCheckpoint] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        """CCC analysis of every snippet (the ``checking`` stage), chunked.

        Each chunk's reduced records — ``(snippet_id, timed_out,
        query_ids, categories)`` tuples, all picklable — are checkpointed
        as they complete; a resumed run replays them and analyses only the
        remaining chunks.
        """
        chunks = self._chunks(snippets)
        replayed = checkpoint.load_chunks("checking") if checkpoint is not None else []
        if checkpoint is not None and not chunks:
            checkpoint.mark_stage_complete("checking")
        for index, chunk in enumerate(chunks):
            if index < len(replayed):
                records = replayed[index]
            else:
                envelopes = self.session.run(
                    chunk, analyses=["ccc"],
                    options={"ccc": {"checker": self.checker}})
                records = [self._checking_record(snippet, envelope.payload)
                           for snippet, envelope in zip(chunk, envelopes)]
                if checkpoint is not None:
                    checkpoint.save_chunk("checking", index, records, total=len(chunks))
            for record in records:
                self._apply_checking_record(result, record)
            if progress is not None:
                progress("checking", index + 1, len(chunks))

    @staticmethod
    def _checking_record(snippet: Snippet, analysis) -> tuple:
        if analysis.findings:
            query_ids = tuple(sorted(analysis.query_ids()))
            categories = tuple(sorted(
                analysis.categories(), key=lambda category: category.value))
        else:
            query_ids = categories = None
        return (snippet.snippet_id, analysis.timed_out, query_ids, categories)

    @staticmethod
    def _apply_checking_record(result: StudyResult, record: tuple) -> None:
        snippet_id, timed_out, query_ids, categories = record
        if timed_out:
            result.snippet_timeouts += 1
        if query_ids is None:
            return
        result.vulnerable_snippets[snippet_id] = query_ids
        result.snippet_categories[snippet_id] = categories

    def _validate_contracts(
        self,
        snippets: list[Snippet],
        contracts: list[DeployedContract],
        result: StudyResult,
        checkpoint: Optional[StudyCheckpoint] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        """Two-phase CCC validation (the ``validation`` stage), chunked.

        The candidate list is a deterministic function of the earlier
        stages, so a resumed run rebuilds it identically and replays the
        checkpointed :class:`ValidationOutcome` chunks in order.
        """
        contract_index = {contract.address: contract for contract in contracts}
        assert result.temporal is not None and result.clone_mapping is not None
        group = result.temporal.source if self.configuration.restrict_to_source_snippets \
            else result.temporal.disseminator
        # deduplicate contracts by comment-insensitive source
        seen_sources: dict[str, str] = {}
        for address, contract in contract_index.items():
            key = canonical_text(contract.source)
            seen_sources.setdefault(key, address)
            result.unique_contract_keys[address] = key
        validated_pairs: set[tuple[str, str]] = set()
        candidates: list[ValidationCandidate] = []
        for snippet_id, query_ids in result.vulnerable_snippets.items():
            addresses = group.get(snippet_id, [])
            for address in addresses:
                key = result.unique_contract_keys.get(address, address)
                representative = seen_sources.get(key, address)
                pair = (snippet_id, representative)
                if pair in validated_pairs:
                    continue
                validated_pairs.add(pair)
                candidates.append(ValidationCandidate(
                    address=representative,
                    source=contract_index[representative].source,
                    snippet_id=snippet_id,
                    query_ids=tuple(query_ids),
                ))
        chunks = self._chunks(candidates)
        replayed = checkpoint.load_chunks("validation") if checkpoint is not None else []
        if checkpoint is not None and not chunks:
            checkpoint.mark_stage_complete("validation")
        for index, chunk in enumerate(chunks):
            if index < len(replayed):
                outcomes = replayed[index]
            else:
                outcomes = [envelope.payload for envelope in self.session.run(
                    chunk, analyses=["validate"],
                    options={"validate": {"validator": self.validator}})]
                if checkpoint is not None:
                    checkpoint.save_chunk("validation", index, outcomes, total=len(chunks))
            result.validation.outcomes.extend(outcomes)
            if progress is not None:
                progress("validation", index + 1, len(chunks))
