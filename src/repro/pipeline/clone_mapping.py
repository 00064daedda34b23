"""Mapping snippets to deployed contracts with CCD (Figure 6, step 1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ccd.detector import CloneDetector
from repro.core.artifacts import ArtifactStore
from repro.core.executor import Executor
from repro.datasets.corpus import DeployedContract, Snippet


@dataclass
class CloneMapping:
    """The snippet -> contract clone map produced by CCD."""

    #: snippet_id -> list of (contract address, similarity score)
    matches: dict[str, list[tuple[str, float]]] = field(default_factory=dict)
    indexed_contracts: int = 0
    unparsable_contracts: int = 0
    unparsable_snippets: int = 0

    def contracts_for(self, snippet_id: str) -> list[str]:
        """Addresses of the contracts containing a clone of the snippet."""
        return [address for address, _score in self.matches.get(snippet_id, [])]

    def snippets_with_clones(self) -> list[str]:
        """Ids of the snippets with at least one containing contract."""
        return [snippet_id for snippet_id, matches in self.matches.items() if matches]

    @property
    def total_pairs(self) -> int:
        """Total number of snippet/contract clone pairs."""
        return sum(len(matches) for matches in self.matches.values())


def map_snippets_to_contracts(
    snippets: list[Snippet],
    contracts: list[DeployedContract],
    *,
    ngram_size: int = 3,
    ngram_threshold: float = 0.5,
    similarity_threshold: float = 0.9,
    fingerprint_block_size: int = 2,
    similarity_backend: Optional[str] = None,
    detector: Optional[CloneDetector] = None,
    store: Optional[ArtifactStore] = None,
    executor: Optional[Executor] = None,
    session=None,
) -> CloneMapping:
    """Index the deployed contracts and find clones of every snippet.

    The default thresholds are the conservative configuration of the
    large-scale study (N=3, η=0.5, ε=0.9; Section 6.3).
    ``similarity_backend`` selects the verification backend of the
    internally built detector (``"myers"`` by default — see
    :mod:`repro.ccd.matcher`; every backend maps identically).
    ``session`` supplies the shared :class:`~repro.api.AnalysisSession`
    whose store and executor the mapping runs through (the study passes
    its own); ``store``/``executor`` remain as direct overrides, and
    without either a throwaway serial session is wired up internally.
    """
    from repro.api import AnalysisSession

    if session is not None:
        store = store if store is not None else session.store
        executor = executor if executor is not None else session.executor
    if detector is None:
        detector = CloneDetector(
            ngram_size=ngram_size,
            ngram_threshold=ngram_threshold,
            similarity_threshold=similarity_threshold,
            fingerprint_block_size=fingerprint_block_size,
            store=store,
            similarity_backend=similarity_backend,
        )
    mapping = CloneMapping()
    indexed = detector.add_corpus(
        [(contract.address, contract.source) for contract in contracts], executor=executor)
    mapping.indexed_contracts = indexed
    mapping.unparsable_contracts = len(contracts) - indexed
    owns_session = session is None
    if session is None:
        session = AnalysisSession(store=store, executor=executor)
    try:
        envelopes = session.run(
            [(snippet.snippet_id, snippet.text) for snippet in snippets],
            analyses=["ccd"], options={"ccd": {"detector": detector}})
    finally:
        if owns_session:
            session.close()
    for snippet, envelope in zip(snippets, envelopes):
        if envelope.payload is None:
            mapping.unparsable_snippets += 1
            mapping.matches[snippet.snippet_id] = []
            continue
        mapping.matches[snippet.snippet_id] = [
            (match.document_id, match.similarity) for match in envelope.payload
        ]
    return mapping
