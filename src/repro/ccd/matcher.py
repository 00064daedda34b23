"""The staged clone-matching engine (Section 5.5, Algorithm 1).

Clone matching is two explicitly separated stages:

1. **candidate generation** — the :math:`\\eta` N-gram pre-filter,
   delegated to :meth:`repro.ccd.ngram_index.NGramIndex.candidates_from_grams`
   (postings walked in ascending document-frequency order, count cutoff,
   length pruning);
2. **verification** — Algorithm 1's order-independent score over
   sub-fingerprint edit distances, computed by a pluggable
   :class:`SimilarityBackend`.

Two backends ship:

* ``"exact"`` — the naive reference: a full Levenshtein distance for
  every (sub₁, sub₂) pair of every candidate.  This is the seed
  semantics, kept as the parity baseline and for benchmarking.
* ``"myers"`` (default) — byte-identical matches and scores, many times
  faster: a length-difference upper bound skips pairs that cannot beat
  the current best, each remaining pair distance is computed by Myers'
  bit-parallel kernel (:func:`repro.ccd.similarity.myers_bounded_edit_distance`)
  and cut off at the distance still worth knowing, a running mean upper
  bound abandons a candidate once :math:`\\epsilon` is unreachable, and
  the pipeline's score memo reuses (sub₁, sub₂) scores across candidates
  (the same sub-fingerprints repeat heavily within a corpus).

The pair memo is no longer per-query: the pipeline owns a corpus-global
:class:`repro.ccd.score_memo.ScoreMemoTable`, so each distinct
(sub₁, sub₂) score is computed once per corpus *lifetime* — shared
across queries, jobs, and (when a disk tier is attached) daemon
restarts.  δ is a pure function of the two strings, so the sharing is
invisible to reported matches.

Exactness argument for the myers backend: a pair score is only ever
*skipped* when a conservative upper bound proves it cannot raise the
candidate's per-sub best to a value that matters — either it cannot beat
the current best, or the candidate would be abandoned by the mean bound
regardless.  Every score that contributes to a *reported* match is
computed by the same float expression as the exact backend, so reported
:class:`CloneMatch` lists are byte-identical (enforced by the parity
suite in ``tests/test_ccd_matcher.py``).  All bound comparisons carry a
small slack so float rounding can only ever make the engine prune less,
never differently.
"""

from __future__ import annotations

import bisect
import threading
import time
from dataclasses import dataclass, fields
from typing import Dict, Hashable, Optional, Union

from repro.ccd.fingerprint import Fingerprint
from repro.ccd.ngram_index import NGramIndex, ngrams
from repro.ccd.score_memo import ScoreMemoTable, memo_key
from repro.ccd.similarity import (
    myers_bounded_edit_distance,
    myers_word_count,
    sub_fingerprint_similarity,
)

#: slack applied to every pruning bound: float rounding may only ever
#: cause the myers backend to prune *less* than the real bound allows
_SLACK = 1e-6


@dataclass(frozen=True)
class CloneMatch:
    """A detected clone relation between a query and an indexed document."""

    document_id: Hashable
    similarity: float

    def __repr__(self):
        return f"CloneMatch({self.document_id!r}, {self.similarity:.3f})"


@dataclass
class MatchStats:
    """Per-stage counters and timings of a :class:`MatchPipeline`.

    Candidate-generation stage: ``grams`` (query N-grams seen),
    ``postings_scanned`` (posting entries walked),
    ``candidates_considered`` (documents that entered the count map),
    ``pruned_by_length`` (documents never admitted because their indexed
    gram set is too small to reach :math:`\\eta`), ``pruned_by_prefix``
    (posting entries skipped after the admission cutoff), and
    ``candidates_generated`` (documents that passed :math:`\\eta`).

    Verification stage: ``verified`` (candidates scored), ``matched``
    (candidates at or above :math:`\\epsilon`), ``abandoned_by_mean``
    (candidates dropped once the running mean bound proved
    :math:`\\epsilon` unreachable), ``pairs_scored`` (edit distances
    actually computed), ``pairs_skipped_by_bound`` (pairs skipped via the
    length-difference upper bound), ``pairs_cutoff`` (bit-parallel
    distance runs abandoned once the distance provably exceeds its
    limit), ``memo_hits`` / ``memo_misses`` (pair-score lookups answered
    / not answered by the corpus-global score memo), and ``myers_words``
    (64-bit machine words advanced by the bit-parallel kernel — zero for
    the exact backend).
    """

    queries: int = 0
    grams: int = 0
    postings_scanned: int = 0
    candidates_considered: int = 0
    candidates_generated: int = 0
    pruned_by_length: int = 0
    pruned_by_prefix: int = 0
    verified: int = 0
    matched: int = 0
    abandoned_by_mean: int = 0
    pairs_scored: int = 0
    pairs_skipped_by_bound: int = 0
    pairs_cutoff: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    myers_words: int = 0
    #: sub-fingerprints carried over unchanged when a document was
    #: re-ingested (function-granular replace in the detector)
    functions_reused: int = 0
    #: sub-fingerprints that were new or changed on re-ingest
    functions_reanalyzed: int = 0
    candidate_seconds: float = 0.0
    verify_seconds: float = 0.0

    def merge(self, other: "MatchStats") -> "MatchStats":
        """Accumulate another stats object into this one (returns self)."""
        for field in fields(self):
            setattr(self, field.name,
                    getattr(self, field.name) + getattr(other, field.name))
        return self

    def as_dict(self) -> dict:
        """Plain-dict form (for reports and the CLI profile table)."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def stage_rows(self) -> list[list]:
        """``[stage, counter, value]`` rows for a profile table.

        The per-stage seconds are summed over queries — under a thread
        backend concurrent queries overlap, so this is aggregate time
        spent in the stage, not elapsed wall clock.
        """
        rows: list[list] = [
            ["candidates", "seconds (summed over queries)",
             f"{self.candidate_seconds:.3f}"],
            ["candidates", "queries", self.queries],
            ["candidates", "query n-grams", self.grams],
            ["candidates", "postings scanned", self.postings_scanned],
            ["candidates", "considered", self.candidates_considered],
            ["candidates", "generated", self.candidates_generated],
            ["candidates", "pruned by length bucket", self.pruned_by_length],
            ["candidates", "pruned by count cutoff", self.pruned_by_prefix],
            ["verification", "seconds (summed over queries)",
             f"{self.verify_seconds:.3f}"],
            ["verification", "candidates verified", self.verified],
            ["verification", "matches", self.matched],
            ["verification", "abandoned by mean bound", self.abandoned_by_mean],
            ["verification", "pair distances computed", self.pairs_scored],
            ["verification", "pairs skipped by length bound", self.pairs_skipped_by_bound],
            ["verification", "pairs cut off at limit", self.pairs_cutoff],
            ["verification", "pair memo hits", self.memo_hits],
            ["verification", "pair memo misses", self.memo_misses],
            ["verification", "bit-parallel words", self.myers_words],
            ["ingest", "functions reused", self.functions_reused],
            ["ingest", "functions re-analyzed", self.functions_reanalyzed],
        ]
        return rows


@dataclass(frozen=True)
class PreparedCandidate:
    """A candidate's sub-fingerprints, derived once and reused per query.

    ``subs`` preserves the fingerprint's original order (what the exact
    reference iterates); ``by_length``/``lengths`` are the same subs
    sorted by length (what the myers backend's nearest-length-first
    walk consumes).  The source fingerprint rides along so a pipeline
    cache can detect a re-added document by identity.
    """

    fingerprint: Fingerprint
    subs: tuple
    by_length: tuple
    lengths: tuple

    @classmethod
    def of(cls, fingerprint: Fingerprint) -> "PreparedCandidate":
        """Derive the prepared form of one fingerprint."""
        subs = tuple(sub for sub in fingerprint.sub_fingerprints if sub)
        by_length = tuple(sorted(subs, key=len))
        return cls(fingerprint=fingerprint, subs=subs, by_length=by_length,
                   lengths=tuple(len(sub) for sub in by_length))


class SimilarityBackend:
    """Verification strategy: Algorithm 1 over one (query, candidate) pair.

    ``verify`` receives the query's non-empty sub-fingerprint list, the
    candidate's :class:`PreparedCandidate`, and the decision threshold
    :math:`\\epsilon` (in percent); it returns the order-independent
    score, or ``None`` when the backend proved the score is below
    :math:`\\epsilon` without computing it exactly.  The score of any
    candidate at or above :math:`\\epsilon` must be the exact Algorithm 1
    value.
    """

    name = "?"

    def verify(
        self,
        first_subs: list[str],
        candidate: PreparedCandidate,
        epsilon: float,
        memo: ScoreMemoTable,
        stats: MatchStats,
    ) -> Optional[float]:
        """The order-independent score, or ``None`` when provably below ε.

        ``memo`` is the pipeline's corpus-global score memo (any mapping
        with ``get``/``__setitem__`` over canonical pair keys works);
        backends that prune may read and write it, the exact reference
        ignores it.
        """
        raise NotImplementedError


class ExactSimilarityBackend(SimilarityBackend):
    """The naive reference verifier: every pair, full edit distance.

    This reproduces the seed implementation of Algorithm 1 verbatim
    (including float evaluation order) and is the baseline the myers
    backend is compared against — both for parity and in ``bench_fig5``.
    """

    name = "exact"

    def verify(self, first_subs, candidate, epsilon, memo, stats):
        """Score the candidate exactly (Algorithm 1, no pruning)."""
        best_sum = 0.0
        for sub_first in first_subs:
            best = 0.0
            for sub_second in candidate.subs:
                score = sub_fingerprint_similarity(sub_first, sub_second)
                stats.pairs_scored += 1
                if score > best:
                    best = score
                    if best >= 100.0:
                        break
            best_sum += best
        return best_sum / len(first_subs)


class MyersSimilarityBackend(SimilarityBackend):
    """The pruned verifier: identical reported scores, far fewer distances.

    See the module docstring for the pruning inventory and the argument
    for why reported matches stay byte-identical to the exact backend.
    Each pair that survives the bounds is scored by Myers' bit-parallel
    kernel: the whole pattern dimension advances 64 DP cells per machine
    word per text character.  ``MatchStats.myers_words`` counts the
    words advanced.
    """

    name = "myers"

    def verify(self, first_subs, candidate, epsilon, memo, stats):
        """Score the candidate, abandoning once ε is provably unreachable."""
        total = len(first_subs)
        # the final decision is mean >= epsilon; in sum space that is
        # sum >= epsilon * total (slack keeps the comparison conservative)
        target = epsilon * total
        by_length = candidate.by_length
        lengths = candidate.lengths
        count = len(by_length)
        best_sum = 0.0
        for index, sub_first in enumerate(first_subs):
            remaining = total - index - 1
            # the smallest per-sub best that keeps the candidate alive,
            # assuming every later sub scores a perfect 100
            needed = target - best_sum - 100.0 * remaining - _SLACK
            length_first = len(sub_first)
            best = 0.0
            # visit candidates nearest in length first (two pointers
            # walking outward from the query sub's length): the max is
            # order-independent, but an early tight `best` shrinks every
            # later distance limit; similar lengths are where high scores live
            right = bisect.bisect_left(lengths, length_first)
            left = right - 1
            while left >= 0 or right < count:
                if right >= count or (left >= 0 and
                        length_first - lengths[left] <= lengths[right] - length_first):
                    sub_second, length_second = by_length[left], lengths[left]
                    left -= 1
                else:
                    sub_second, length_second = by_length[right], lengths[right]
                    right += 1
                longest = length_first if length_first >= length_second else length_second
                # d(s1, s2) >= |len(s1) - len(s2)| bounds the pair score
                # from above without touching the strings
                bound = (longest - abs(length_first - length_second)) / longest * 100.0
                if bound <= best or bound < needed:
                    stats.pairs_skipped_by_bound += 1
                    continue
                key = memo_key(sub_first, sub_second)
                score = memo.get(key)
                if score is not None and score < 0.0:
                    # a remembered cutoff: the true score is provably
                    # below -score; skip when that already rules the pair
                    # out here, else fall through and recompute (which
                    # tightens or upgrades the stored entry)
                    if -score <= best or -score < needed:
                        stats.memo_hits += 1
                        continue
                    score = None
                if score is not None:
                    stats.memo_hits += 1
                else:
                    stats.memo_misses += 1
                    if sub_first == sub_second:
                        score = 100.0
                    else:
                        # the pair only matters if its score can both beat
                        # `best` and reach `needed`; translate the tighter
                        # of the two into a distance limit (+2: float cushion)
                        ceiling = longest * (100.0 - best) / 100.0
                        if needed > best:
                            ceiling = longest * (100.0 - needed) / 100.0
                        limit = int(ceiling) + 2
                        if limit > longest:
                            limit = longest
                        stats.myers_words += myers_word_count(sub_first, sub_second)
                        distance = myers_bounded_edit_distance(
                            sub_first, sub_second, limit)
                        if distance is None:
                            stats.pairs_cutoff += 1
                            # d > limit proves score < this bound, which is
                            # itself below max(best, needed) — tight enough
                            # to answer the same context from a warm memo
                            memo[key] = -((longest - limit) / longest * 100.0)
                            continue
                        stats.pairs_scored += 1
                        # identical float expression to the exact backend
                        score = (longest - distance) / longest * 100.0
                    memo[key] = score
                if score > best:
                    best = score
                    if best >= 100.0:
                        break
            best_sum += best
            if best_sum + 100.0 * remaining < target - _SLACK:
                stats.abandoned_by_mean += 1
                return None
        return best_sum / total


#: registry of the built-in verification backends
SIMILARITY_BACKENDS: Dict[str, type] = {
    ExactSimilarityBackend.name: ExactSimilarityBackend,
    MyersSimilarityBackend.name: MyersSimilarityBackend,
}

#: the default verification backend
DEFAULT_SIMILARITY_BACKEND = MyersSimilarityBackend.name


def resolve_similarity_backend(
    backend: Union[str, SimilarityBackend, None],
) -> SimilarityBackend:
    """Resolve a backend name (or pass an instance through).

    ``None`` resolves to the default (``"myers"``); unknown names raise
    ``ValueError`` listing the registered backends.  The retired name
    ``"bounded"`` (a banded-DP verifier that made exactly myers's pruning
    decisions) resolves to myers, so index manifests, study checkpoints
    and job options that name it keep working.
    """
    if backend is None:
        backend = DEFAULT_SIMILARITY_BACKEND
    if isinstance(backend, SimilarityBackend):
        return backend
    if backend == "bounded":
        backend = MyersSimilarityBackend.name
    try:
        return SIMILARITY_BACKENDS[backend]()
    except KeyError:
        raise ValueError(
            f"unknown similarity backend {backend!r}; registered: "
            f"{', '.join(sorted(SIMILARITY_BACKENDS))}") from None


class MatchPipeline:
    """The staged matcher: candidate generation, then verification.

    Owns live references to a detector's :class:`NGramIndex` and
    fingerprint map, the configured :class:`SimilarityBackend`, the
    corpus-global :class:`ScoreMemoTable`, and the accumulated per-stage
    :class:`MatchStats`.  One pipeline serves every query of its
    detector; ``stats`` and the score memo accumulate across queries.

    ``score_memo`` defaults to a fresh in-memory table (corpus-lifetime
    reuse with no disk tier); pass a persistent table to share scores
    across process restarts.
    """

    def __init__(
        self,
        index: NGramIndex,
        fingerprints: Dict[Hashable, Fingerprint],
        backend: Union[str, SimilarityBackend, None] = None,
        score_memo: Optional[ScoreMemoTable] = None,
    ):
        self.index = index
        self.fingerprints = fingerprints
        self.backend = resolve_similarity_backend(backend)
        self.score_memo = score_memo if score_memo is not None else ScoreMemoTable()
        self.stats = MatchStats()
        # queries may run concurrently (thread-backend sessions share one
        # detector); each query accumulates into a local MatchStats and
        # merges it under this lock, so counters never lose updates
        self._stats_lock = threading.Lock()
        # per-document PreparedCandidate cache, validated by fingerprint
        # identity so re-added documents are re-derived (dict get/set are
        # atomic under the GIL; a racing miss only recomputes)
        self._prepared: Dict[Hashable, PreparedCandidate] = {}

    def __repr__(self):
        return (f"MatchPipeline(backend={self.backend.name!r}, "
                f"documents={len(self.fingerprints)})")

    def forget(self, document_id: Hashable) -> None:
        """Drop a retired document's prepared-candidate cache entry."""
        self._prepared.pop(document_id, None)

    def __getstate__(self):
        """Pickle support: the stats lock is dropped and recreated."""
        state = dict(self.__dict__)
        del state["_stats_lock"]
        return state

    def __setstate__(self, state):
        """Restore a pickled pipeline with a fresh stats lock."""
        self.__dict__.update(state)
        self._stats_lock = threading.Lock()

    def match(
        self,
        fingerprint: Fingerprint,
        ngram_threshold: float,
        epsilon: float,
    ) -> list[CloneMatch]:
        """Indexed documents containing a clone of ``fingerprint``.

        ``ngram_threshold`` is the paper's :math:`\\eta` (fraction in
        0..1); ``epsilon`` is the clone decision threshold in *percent*
        (0..100).  Results are sorted by decreasing similarity with the
        document id as the tie-breaker, exactly like the seed
        implementation.
        """
        stats = MatchStats()
        stats.queries += 1
        started = time.perf_counter()
        stage_counters: dict = {}
        candidates = self.index.candidates_from_grams(
            ngrams(fingerprint.text, self.index.ngram_size),
            ngram_threshold, stats=stage_counters)
        stats.grams += stage_counters.get("grams", 0)
        stats.postings_scanned += stage_counters.get("postings_scanned", 0)
        stats.candidates_considered += stage_counters.get("candidates_considered", 0)
        stats.pruned_by_length += stage_counters.get("pruned_by_length", 0)
        stats.pruned_by_prefix += stage_counters.get("pruned_by_prefix", 0)
        stats.candidates_generated += len(candidates)
        stats.candidate_seconds += time.perf_counter() - started

        started = time.perf_counter()
        first_subs = [sub for sub in fingerprint.sub_fingerprints if sub]
        memo = self.score_memo
        matches: list[CloneMatch] = []
        for document_id in candidates:
            stats.verified += 1
            candidate_fingerprint = self.fingerprints[document_id]
            candidate = self._prepared.get(document_id)
            if candidate is None or candidate.fingerprint is not candidate_fingerprint:
                candidate = PreparedCandidate.of(candidate_fingerprint)
                self._prepared[document_id] = candidate
            if not first_subs or not candidate.subs:
                score: Optional[float] = 0.0
            else:
                score = self.backend.verify(
                    first_subs, candidate, epsilon, memo, stats)
            if score is not None and score >= epsilon:
                matches.append(CloneMatch(document_id=document_id, similarity=score))
        stats.matched += len(matches)
        stats.verify_seconds += time.perf_counter() - started
        with self._stats_lock:
            self.stats.merge(stats)
        matches.sort(key=lambda match: (-match.similarity, str(match.document_id)))
        return matches


__all__ = [
    "CloneMatch",
    "DEFAULT_SIMILARITY_BACKEND",
    "ExactSimilarityBackend",
    "MatchPipeline",
    "MatchStats",
    "MyersSimilarityBackend",
    "PreparedCandidate",
    "SIMILARITY_BACKENDS",
    "SimilarityBackend",
    "resolve_similarity_backend",
]
