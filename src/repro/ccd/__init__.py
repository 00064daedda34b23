"""CCD — the Contract Clone Detector.

CCD detects Type I–III code clones of Solidity snippets across large sets
of smart contracts (Section 5 of the paper).  The pipeline is

1. **parsing** with the tolerant snippet grammar,
2. **normalization** — identifiers are renamed to their declared type,
   contract/function/modifier names are canonicalised, string literals and
   visibility specifiers are dropped (Section 5.2),
3. **tokenization** into symbol-separated tokens (Section 5.3),
4. **fingerprint generation** with context-triggered piecewise (fuzzy)
   hashing; functions are separated by ``.`` and contracts by ``:``
   (Section 5.4),
5. **matching** through the staged :mod:`repro.ccd.matcher` engine: an
   N-gram candidate pre-filter walked in ascending document-frequency
   order, then verification of each candidate with the order-independent
   edit-distance similarity score (Section 5.5, Algorithm 1) under a
   pluggable :class:`~repro.ccd.matcher.SimilarityBackend` (``"myers"``
   by default — pruned, over Myers' bit-parallel distance kernel;
   ``"exact"`` is the naive reference — both report identical results).
   Pair scores are memoized corpus-wide in a
   :class:`~repro.ccd.score_memo.ScoreMemoTable`, optionally persisted
   next to a saved index so reloaded corpora start warm.
"""

from repro.ccd.detector import CloneDetector
from repro.ccd.fingerprint import Fingerprint, FingerprintGenerator
from repro.ccd.fuzzyhash import FuzzyHasher, fuzzy_hash_tokens
from repro.ccd.index_io import IndexFormatError, load_index, save_index
from repro.ccd.matcher import (
    SIMILARITY_BACKENDS,
    CloneMatch,
    MatchPipeline,
    MatchStats,
    SimilarityBackend,
    resolve_similarity_backend,
)
from repro.ccd.ngram_index import NGramIndex
from repro.ccd.normalizer import NormalizedContract, NormalizedFunction, NormalizedUnit, Normalizer
from repro.ccd.score_memo import SCORE_MEMO_NAME, ScoreMemoTable
from repro.ccd.similarity import (
    edit_distance,
    myers_bounded_edit_distance,
    order_independent_similarity,
    sub_fingerprint_similarity,
)

__all__ = [
    "CloneDetector",
    "CloneMatch",
    "Fingerprint",
    "FingerprintGenerator",
    "FuzzyHasher",
    "IndexFormatError",
    "MatchPipeline",
    "MatchStats",
    "NGramIndex",
    "NormalizedContract",
    "NormalizedFunction",
    "NormalizedUnit",
    "Normalizer",
    "SCORE_MEMO_NAME",
    "SIMILARITY_BACKENDS",
    "ScoreMemoTable",
    "SimilarityBackend",
    "edit_distance",
    "fuzzy_hash_tokens",
    "load_index",
    "myers_bounded_edit_distance",
    "order_independent_similarity",
    "resolve_similarity_backend",
    "save_index",
    "sub_fingerprint_similarity",
]
