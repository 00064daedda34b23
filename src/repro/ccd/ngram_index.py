"""In-memory N-gram inverted index — the Elasticsearch substitute.

The paper stores fingerprint N-grams in Elasticsearch and retrieves, for a
query fingerprint, only the fingerprints sharing at least an
:math:`\\eta`-fraction of its N-grams (Section 5.5).  This module provides
the same candidate pre-filtering with an in-memory inverted index.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable, Iterable, Optional

#: shared empty posting, so absent grams sort by length without allocating
_EMPTY_POSTING: frozenset = frozenset()


def ngrams(text: str, size: int) -> set[str]:
    """The set of character N-grams of ``text`` (whole text when shorter than N)."""
    cleaned = text.replace(".", "").replace(":", "")
    if not cleaned:
        return set()
    if len(cleaned) <= size:
        return {cleaned}
    return {cleaned[index:index + size] for index in range(len(cleaned) - size + 1)}


class NGramIndex:
    """Inverted index from fingerprint N-grams to document identifiers."""

    def __init__(self, ngram_size: int = 3):
        if ngram_size < 1:
            raise ValueError("ngram_size must be >= 1")
        self.ngram_size = ngram_size
        self._postings: dict[str, set[Hashable]] = defaultdict(set)
        self._document_grams: dict[Hashable, set[str]] = {}

    def __len__(self) -> int:
        return len(self._document_grams)

    def __contains__(self, document_id: Hashable) -> bool:
        return document_id in self._document_grams

    def add(self, document_id: Hashable, fingerprint_text: str) -> None:
        """Index ``fingerprint_text`` under ``document_id`` (idempotent)."""
        self.add_grams(document_id, ngrams(fingerprint_text, self.ngram_size))

    def add_grams(self, document_id: Hashable, grams: set[str] | frozenset[str]) -> None:
        """Index a precomputed N-gram set (e.g. a cached ``SourceArtifact.ngrams``).

        Re-adding a known document replaces its indexed gram set: the old
        grams' postings are purged first, so grams the new text no longer
        contains stop yielding the document as a candidate.
        """
        if document_id in self._document_grams:
            self.remove(document_id)
        self._document_grams[document_id] = set(grams)
        for gram in grams:
            self._postings[gram].add(document_id)

    def add_many(self, documents: Iterable[tuple[Hashable, str]]) -> None:
        for document_id, fingerprint_text in documents:
            self.add(document_id, fingerprint_text)

    def remove(self, document_id: Hashable) -> None:
        grams = self._document_grams.pop(document_id, set())
        for gram in grams:
            self._postings[gram].discard(document_id)

    def candidates(self, fingerprint_text: str, threshold: float = 0.5) -> list[Hashable]:
        """Documents sharing at least ``threshold`` of the query's N-grams.

        A threshold of ``0.5`` means a candidate must contain at least 50 %
        of the N-grams of the fingerprint being searched for (the paper's
        :math:`\\eta` parameter).
        """
        return self.candidates_from_grams(
            ngrams(fingerprint_text, self.ngram_size), threshold)

    def candidates_from_grams(
        self,
        query_grams: set[str] | frozenset[str],
        threshold: float = 0.5,
        stats: Optional[dict] = None,
    ) -> list[Hashable]:
        """Candidate generation from a precomputed query N-gram set.

        The postings lists of the query's grams are walked in ascending
        document-frequency order with two *exact* prunes (the candidate
        set is identical to counting every posting):

        * **count cutoff** — once too few grams remain for a new document
          to still reach ``threshold * len(query_grams)`` shared grams,
          the remaining (largest) postings lists only increment documents
          already under consideration instead of admitting new ones;
        * **length pruning** — a document indexed with fewer grams than
          the required count can never qualify and is never admitted.

        ``stats``, when given, is a mutable mapping whose
        ``postings_scanned`` / ``candidates_considered`` /
        ``pruned_by_length`` / ``pruned_by_prefix`` counters are
        incremented (see :class:`repro.ccd.matcher.MatchStats`).
        """
        if not query_grams:
            return []
        required = threshold * len(query_grams)
        ordered = sorted(
            (self._postings.get(gram, _EMPTY_POSTING) for gram in query_grams), key=len)
        total = len(ordered)
        # positions 0..cutoff-1 can still admit new documents: a document
        # first seen at position p shares at most (total - p) query grams
        cutoff = total
        for position in range(total):
            if total - position < required:
                cutoff = position
                break
        counts: dict[Hashable, int] = {}
        pruned: set[Hashable] = set()
        scanned = 0
        tail_skipped = 0
        document_grams = self._document_grams
        for posting in ordered[:cutoff]:
            scanned += len(posting)
            for document_id in posting:
                count = counts.get(document_id)
                if count is not None:
                    counts[document_id] = count + 1
                elif document_id not in pruned:
                    if len(document_grams[document_id]) < required:
                        pruned.add(document_id)
                    else:
                        counts[document_id] = 1
        for posting in ordered[cutoff:]:
            scanned += len(posting)
            for document_id in posting:
                count = counts.get(document_id)
                if count is not None:
                    counts[document_id] = count + 1
                else:
                    tail_skipped += 1
        result = [document_id for document_id, count in counts.items() if count >= required]
        if stats is not None:
            stats["grams"] = stats.get("grams", 0) + total
            stats["postings_scanned"] = stats.get("postings_scanned", 0) + scanned
            stats["candidates_considered"] = \
                stats.get("candidates_considered", 0) + len(counts)
            stats["pruned_by_length"] = stats.get("pruned_by_length", 0) + len(pruned)
            stats["pruned_by_prefix"] = stats.get("pruned_by_prefix", 0) + tail_skipped
        return result

    def overlap(self, fingerprint_text: str, document_id: Hashable) -> float:
        """Fraction of the query's N-grams present in an indexed document."""
        query_grams = ngrams(fingerprint_text, self.ngram_size)
        if not query_grams or document_id not in self._document_grams:
            return 0.0
        document_grams = self._document_grams[document_id]
        return len(query_grams & document_grams) / len(query_grams)
