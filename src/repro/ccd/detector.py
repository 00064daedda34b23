"""The Contract Clone Detector (CCD) public API.

``CloneDetector`` indexes a corpus of Solidity sources (deployed contracts)
and finds clones of query snippets: parse → normalize → fingerprint →
N-gram pre-filter → order-independent similarity (Figure 4 of the paper).

The detector optionally plugs into the shared analysis core
(:mod:`repro.core`): when constructed with an
:class:`~repro.core.artifacts.ArtifactStore`, fingerprints and N-gram sets
are materialized through the store — each unique source is parsed at most
once across CCD, CCC, and the pipeline — and
:meth:`CloneDetector.add_corpus` accepts an
:class:`~repro.core.executor.Executor` to fan fingerprinting out across
threads or worker processes.  Batch matching runs through the ``ccd``
analyzer of :class:`repro.api.AnalysisSession`.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Hashable, Iterable, Optional, Union

from repro.ccd.fingerprint import Fingerprint, FingerprintGenerator
from repro.ccd.matcher import CloneMatch, MatchPipeline, MatchStats, SimilarityBackend
from repro.ccd.ngram_index import NGramIndex
from repro.ccd.score_memo import ScoreMemoTable
from repro.ccd.similarity import order_independent_similarity

# module-style import: repro.core.artifacts itself imports repro.ccd
# (fingerprint), so attribute access must be deferred to call time to keep
# either import order working
import repro.core.artifacts as core_artifacts
from repro.core.executor import Executor
from repro.solidity.errors import SolidityParseError


def _fingerprint_task(
    spec: "core_artifacts.ArtifactStoreSpec", source: str, strict: bool = True,
) -> Optional[Fingerprint]:
    """Fingerprint ``source`` in a worker process, rehydrating via the spec.

    ``strict=False`` swallows *any* error (the tolerance the clone-mapping
    query path has always had for pathological snippets); corpus indexing
    stays strict so unexpected failures surface.
    """
    store = core_artifacts.process_local_store(spec)
    try:
        return store.get(source).fingerprint
    except (SolidityParseError, RecursionError):
        return None
    except Exception:
        if strict:
            raise
        return None


class CloneDetector:
    """Detect Type I–III clones of code snippets in a contract corpus.

    Parameters mirror the paper's evaluation (Table 9 / Appendix C):

    * ``ngram_size`` — N-gram size :math:`N` (3, 5, or 7),
    * ``ngram_threshold`` — candidate pre-filter threshold :math:`\\eta`,
    * ``similarity_threshold`` — final clone decision threshold
      :math:`\\epsilon` in percent/100 (e.g. ``0.7``).

    The defaults are the best precision/recall combination reported by the
    paper (N=3, η=0.5, ε=0.7); the large-scale study uses the conservative
    ε=0.9 configuration (Section 6.3).

    ``store`` attaches a shared :class:`~repro.core.artifacts.ArtifactStore`;
    its CCD configuration (N-gram size, fuzzy-hash block size) must match
    the detector's, because cached fingerprints and N-gram sets are only
    valid for one configuration.

    ``similarity_backend`` selects the verification strategy of the
    staged :class:`~repro.ccd.matcher.MatchPipeline`: ``"myers"``
    (default — pruned over a bit-parallel distance kernel,
    byte-identical matches) or ``"exact"`` (the naive reference); a
    :class:`~repro.ccd.matcher.SimilarityBackend` instance is also
    accepted.

    ``score_memo`` attaches a corpus-global
    :class:`~repro.ccd.score_memo.ScoreMemoTable` (e.g. one with a
    persistent disk tier); by default the pipeline creates a fresh
    in-memory table.
    """

    def __init__(
        self,
        ngram_size: int = 3,
        ngram_threshold: float = 0.5,
        similarity_threshold: float = 0.7,
        fingerprint_block_size: int = 2,
        fingerprint_window: int = 4,
        store: Optional["core_artifacts.ArtifactStore"] = None,
        similarity_backend: Union[str, SimilarityBackend, None] = None,
        score_memo: Optional[ScoreMemoTable] = None,
    ):
        if store is not None:
            if store.ngram_size != ngram_size:
                raise ValueError(
                    f"store ngram_size {store.ngram_size} != detector ngram_size {ngram_size}")
            if store.generator.hasher.block_size != fingerprint_block_size:
                raise ValueError(
                    f"store fingerprint block size {store.generator.hasher.block_size} "
                    f"!= detector fingerprint_block_size {fingerprint_block_size}")
            if store.generator.hasher.window != fingerprint_window:
                raise ValueError(
                    f"store fingerprint window {store.generator.hasher.window} "
                    f"!= detector fingerprint_window {fingerprint_window}")
        self.ngram_size = ngram_size
        self.ngram_threshold = ngram_threshold
        self.similarity_threshold = similarity_threshold
        self.store = store
        self.generator = store.generator if store is not None \
            else FingerprintGenerator(block_size=fingerprint_block_size,
                                      window=fingerprint_window)
        self.index = NGramIndex(ngram_size=ngram_size)
        self.fingerprints: dict[Hashable, Fingerprint] = {}
        #: content key of each indexed document's source (when known) —
        #: the service's no-op re-ingest guard and the saved-index
        #: source-identity record
        self.source_keys: dict[Hashable, str] = {}
        self.parse_failures: list[Hashable] = []
        self.matcher = MatchPipeline(
            self.index, self.fingerprints, backend=similarity_backend,
            score_memo=score_memo)

    @property
    def similarity_backend(self) -> str:
        """The name of the configured verification backend."""
        return self.matcher.backend.name

    @property
    def score_memo(self) -> ScoreMemoTable:
        """The corpus-global (sub₁, sub₂) score memo of the pipeline."""
        return self.matcher.score_memo

    @property
    def match_stats(self) -> MatchStats:
        """Accumulated per-stage matcher statistics across all queries."""
        return self.matcher.stats

    # -- corpus management ------------------------------------------------------
    def add_document(self, document_id: Hashable, source: str) -> bool:
        """Fingerprint and index one document; returns ``False`` when unparsable.

        Re-adding a known document with byte-identical source is a no-op
        (``True`` without a fingerprint lookup, index write, or score-memo
        transition) — the guard behind the service's no-op re-ingest path.
        """
        source_key = core_artifacts.content_key(source)
        if self.source_keys.get(document_id) == source_key \
                and document_id in self.fingerprints:
            return True
        fingerprint, grams = self._try_fingerprint_with_grams(source)
        if fingerprint is None:
            self.parse_failures.append(document_id)
            return False
        return self.add_fingerprint(
            document_id, fingerprint, grams=grams, source_key=source_key)

    def add_fingerprint(
        self,
        document_id: Hashable,
        fingerprint: Fingerprint,
        grams: Optional[frozenset] = None,
        source_key: Optional[str] = None,
    ) -> bool:
        """Index one precomputed fingerprint (and optional cached N-gram set)."""
        if fingerprint.is_empty:
            self.parse_failures.append(document_id)
            return False
        previous = self.fingerprints.get(document_id)
        self.fingerprints[document_id] = fingerprint
        # register before releasing the replaced fingerprint: subs shared
        # between the two (the common case on re-ingest) never transit
        # through refcount zero, so their memoized scores survive the swap
        self.score_memo.register(fingerprint.sub_fingerprints)
        if previous is not None:
            self.score_memo.release(previous.sub_fingerprints)
            self._account_replacement(previous, fingerprint)
        if source_key is not None:
            self.source_keys[document_id] = source_key
        else:
            self.source_keys.pop(document_id, None)
        if grams is not None:
            self.index.add_grams(document_id, grams)
        else:
            self.index.add(document_id, fingerprint.text)
        return True

    def _account_replacement(
        self, previous: Fingerprint, fingerprint: Fingerprint,
    ) -> None:
        """Count function-level reuse across a document replacement.

        A sub-fingerprint is one function's digest, so the multiset
        overlap between the old and new fingerprints is exactly the
        functions an edit left untouched.
        """
        remaining = Counter(previous.sub_fingerprints)
        reused = 0
        for sub in fingerprint.sub_fingerprints:
            if remaining[sub] > 0:
                remaining[sub] -= 1
                reused += 1
        stats = self.matcher.stats
        stats.functions_reused += reused
        stats.functions_reanalyzed += len(fingerprint.sub_fingerprints) - reused

    def remove_fingerprint(self, document_id: Hashable) -> Optional[Fingerprint]:
        """Retire one indexed document; returns its fingerprint (or ``None``).

        Removes the document from the N-gram index and the fingerprint
        map and releases its sub-fingerprints from the score memo —
        memoized pair scores that only existed because of this document
        are dropped (from the disk tier too, when one is attached).
        """
        fingerprint = self.fingerprints.pop(document_id, None)
        self.source_keys.pop(document_id, None)
        if fingerprint is None:
            return None
        self.index.remove(document_id)
        self.matcher.forget(document_id)
        self.score_memo.release(fingerprint.sub_fingerprints)
        return fingerprint

    def add_corpus(
        self,
        documents: Iterable[tuple[Hashable, str]],
        executor: Optional[Executor] = None,
    ) -> int:
        """Index many documents; returns the number successfully indexed.

        With an ``executor``, fingerprinting — the expensive part — fans
        out across workers; index insertion stays serial (and therefore
        deterministic).  The process backend rehydrates fingerprints from
        source inside each worker.
        """
        documents = list(documents)
        if executor is None:
            results = [self._try_fingerprint_with_grams(source) for _, source in documents]
        elif executor.supports_shared_state:
            results = executor.map_batches(
                self._try_fingerprint_with_grams, [source for _, source in documents])
        else:
            task = partial(_fingerprint_task, self._store_spec())
            results = [(fingerprint, None) for fingerprint in executor.map_batches(
                task, [source for _, source in documents])]
        added = 0
        for (document_id, source), (fingerprint, grams) in zip(documents, results):
            if fingerprint is None:
                self.parse_failures.append(document_id)
            elif self.add_fingerprint(
                    document_id, fingerprint, grams=grams,
                    source_key=core_artifacts.content_key(source)):
                added += 1
        return added

    def __len__(self) -> int:
        return len(self.fingerprints)

    # -- matching ---------------------------------------------------------------
    def fingerprint_source(self, source: str) -> Fingerprint:
        """Fingerprint a query snippet without indexing it."""
        if self.store is not None:
            return self.store.get(source).fingerprint
        return self.generator.from_source(source)

    def find_clones(
        self,
        source: Optional[str] = None,
        *,
        fingerprint: Optional[Fingerprint] = None,
        similarity_threshold: Optional[float] = None,
        ngram_threshold: Optional[float] = None,
    ) -> list[CloneMatch]:
        """Find indexed documents that contain a clone of the query.

        Either ``source`` or a precomputed ``fingerprint`` must be given.
        Results are sorted by decreasing similarity.
        """
        if fingerprint is None:
            if source is None:
                raise ValueError("either source or fingerprint is required")
            fingerprint = self.fingerprint_source(source)
        epsilon = (self.similarity_threshold if similarity_threshold is None else similarity_threshold) * 100.0
        eta = self.ngram_threshold if ngram_threshold is None else ngram_threshold
        return self.matcher.match(fingerprint, eta, epsilon)

    # -- persistence ------------------------------------------------------------
    def save_index(self, directory, shards: int = 1) -> dict:
        """Persist the indexed corpus so it can be reloaded without re-parsing.

        Shards the per-document fingerprints and N-gram sets by hash
        prefix into ``directory`` (see :mod:`repro.ccd.index_io`); returns
        the written manifest.
        """
        from repro.ccd.index_io import save_index

        return save_index(self, directory, shards=shards)

    @classmethod
    def load(cls, directory, store=None, strict: bool = True) -> "CloneDetector":
        """Rebuild a detector from a saved index — zero parses.

        The detector configuration (N-gram size, thresholds, fuzzy-hash
        parameters) comes from the index manifest; ``store`` optionally
        attaches a shared artifact store with a matching configuration.
        """
        from repro.ccd.index_io import load_index

        return load_index(directory, store=store, strict=strict)

    def similarity(self, first_id: Hashable, second_id: Hashable) -> float:
        """Order-independent similarity between two indexed documents."""
        return order_independent_similarity(self.fingerprints[first_id], self.fingerprints[second_id])

    def pairwise_clones(
        self,
        similarity_threshold: Optional[float] = None,
        ngram_threshold: Optional[float] = None,
    ) -> dict[Hashable, list[CloneMatch]]:
        """For every indexed document, the other documents it is a clone of.

        This reproduces the honeypot evaluation protocol of Section 5.7.1
        where each contract is compared against all other contracts.
        """
        result: dict[Hashable, list[CloneMatch]] = {}
        for document_id, fingerprint in self.fingerprints.items():
            matches = self.find_clones(
                fingerprint=fingerprint,
                similarity_threshold=similarity_threshold,
                ngram_threshold=ngram_threshold,
            )
            result[document_id] = [match for match in matches if match.document_id != document_id]
        return result

    # -- helpers ----------------------------------------------------------------
    def _try_fingerprint_with_grams(
        self, source: str,
    ) -> tuple[Optional[Fingerprint], Optional[frozenset]]:
        """Fingerprint for indexing, plus the cached N-gram set when available."""
        if self.store is not None:
            artifact = self.store.get(source)
            try:
                return artifact.fingerprint, artifact.ngrams
            except (SolidityParseError, RecursionError):
                return None, None
        try:
            return self.generator.from_source(source), None
        except (SolidityParseError, RecursionError):
            return None, None

    def _store_spec(self) -> "core_artifacts.ArtifactStoreSpec":
        """The store recipe shipped to process-backend workers."""
        if self.store is not None:
            return self.store.spec
        return core_artifacts.ArtifactStoreSpec(
            ngram_size=self.ngram_size,
            fingerprint_block_size=self.generator.hasher.block_size,
            fingerprint_window=self.generator.hasher.window,
        )
