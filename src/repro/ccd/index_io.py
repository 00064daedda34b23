"""Serialization of an indexed CCD corpus: save, shard, and reload.

Indexing a large contract corpus is the expensive half of clone detection
(every contract is parsed, normalized, and fuzzy-hashed).  This module
persists the *result* of that work — the per-document fingerprints and
N-gram sets — so a :class:`~repro.ccd.detector.CloneDetector` can be
reloaded and answer queries **without re-parsing a single contract**.

Layout of a saved index directory::

    index.json       manifest: format version, detector configuration,
                     shard count, document/parse-failure counts
    shard-0000.pkl   pickled list of (document_id, Fingerprint, grams,
                     source content key); older three-field entries
                     (no source key) still load
    shard-0001.pkl   ...
    scores.sqlite    corpus-global (sub₁, sub₂) score memo disk tier
                     (:mod:`repro.ccd.score_memo`) — saved warm, loaded
                     warm, so a reloaded index re-scores zero known pairs

Documents are distributed over shards by the SHA-256 prefix of their
document id, so a fixed corpus always produces the same shard layout
(stable, diffable) and shards can be regenerated or distributed
independently.  All files are written atomically
(:func:`repro.core.fileio.atomic_write_bytes`), so a killed save
never leaves a torn shard behind.
"""

from __future__ import annotations

import hashlib
import warnings
from pathlib import Path
from typing import Hashable, Iterable, Union

from repro.ccd.detector import CloneDetector
from repro.ccd.matcher import SIMILARITY_BACKENDS, resolve_similarity_backend
from repro.ccd.score_memo import SCORE_MEMO_NAME, ScoreMemoTable
from repro.core.fileio import dump_json, dump_pickle, try_load_json, try_load_pickle

#: bump when the manifest or shard payload layout changes
INDEX_FORMAT_VERSION = 1

MANIFEST_NAME = "index.json"

PARSE_FAILURES_NAME = "parse-failures.pkl"


class IndexFormatError(ValueError):
    """A saved index is missing, truncated, or incompatible."""


def shard_of(document_id: Hashable, shards: int) -> int:
    """The shard a document belongs to, by SHA-256 prefix of its id.

    The first 8 hex digits of the hash are reduced modulo ``shards``;
    using a prefix of a cryptographic hash keeps shard sizes balanced for
    any id scheme (addresses, snippet ids, integers).
    """
    digest = hashlib.sha256(repr(document_id).encode("utf-8", "replace")).hexdigest()
    return int(digest[:8], 16) % shards


def _shard_path(directory: Path, index: int) -> Path:
    return directory / f"shard-{index:04d}.pkl"


def save_index(
    detector: CloneDetector,
    directory: Union[str, Path],
    shards: int = 1,
) -> dict:
    """Persist a detector's indexed corpus to ``directory``; returns the manifest.

    Only corpus state (fingerprints, N-gram sets, parse failures) is
    saved; thresholds are recorded in the manifest as defaults for
    :func:`load_index` but can be overridden at query time as usual.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if detector.similarity_backend not in SIMILARITY_BACKENDS:
        # surface the problem at save time, not at some later load
        warnings.warn(
            f"saving an index with unregistered similarity backend "
            f"{detector.similarity_backend!r}; load_index will fail unless "
            f"that name is registered in repro.ccd.matcher.SIMILARITY_BACKENDS",
            stacklevel=2)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    buckets: list[list[tuple]] = [[] for _ in range(shards)]
    for document_id, fingerprint in detector.fingerprints.items():
        buckets[shard_of(document_id, shards)].append(
            (document_id, fingerprint, detector.index.grams_for(document_id),
             detector.source_keys.get(document_id)))
    for index, bucket in enumerate(buckets):
        dump_pickle(_shard_path(directory, index), bucket)
    # a re-save with fewer shards must not leave stale shards behind
    for stale in directory.glob("shard-*.pkl"):
        try:
            if int(stale.stem.split("-", 1)[1]) >= shards:
                stale.unlink()
        except (ValueError, OSError):
            continue
    # pickled (not JSON) so document-id types and recording order survive
    dump_pickle(directory / PARSE_FAILURES_NAME, list(detector.parse_failures))
    # ship the warm pair scores with the index: the detector's memo gains
    # (or keeps) a write-through disk tier inside the index directory
    detector.score_memo.persist_to(directory / SCORE_MEMO_NAME)
    manifest = {
        "format_version": INDEX_FORMAT_VERSION,
        "score_memo": SCORE_MEMO_NAME,
        "shards": shards,
        "documents": len(detector.fingerprints),
        "parse_failures": len(detector.parse_failures),
        "configuration": {
            "ngram_size": detector.ngram_size,
            "ngram_threshold": detector.ngram_threshold,
            "similarity_threshold": detector.similarity_threshold,
            "fingerprint_block_size": detector.generator.hasher.block_size,
            "fingerprint_window": detector.generator.hasher.window,
            "similarity_backend": detector.similarity_backend,
        },
    }
    dump_json(directory / MANIFEST_NAME, manifest)
    return manifest


def append_to_index(
    detector: CloneDetector,
    directory: Union[str, Path],
    document_ids: Iterable[Hashable],
    shards: int = 1,
    remove_ids: Iterable[Hashable] = (),
) -> dict:
    """Incrementally persist newly indexed documents into a saved index.

    This is the live-ingest path of the analysis service: after
    ``detector`` (loaded from ``directory``) has indexed new documents
    in memory, only the shards those documents hash into — plus the
    manifest and the parse-failure record — are rewritten, so ingest
    cost scales with the batch, not the corpus.  ``remove_ids`` names
    documents retired from the live index (e.g. a known id re-ingested
    with now-unparsable source) whose persisted entries must go too.
    ``shards`` is only used when ``directory`` holds no index yet (a
    full :func:`save_index`).

    Returns a summary: the updated manifest plus ``appended`` (documents
    written) and ``shards_rewritten``.
    """
    directory = Path(directory)
    document_ids = list(document_ids)
    remove_ids = [document_id for document_id in remove_ids
                  if document_id not in detector.fingerprints]
    try:
        manifest = read_manifest(directory)
    except IndexFormatError:
        manifest = save_index(detector, directory, shards=shards)
        return {"manifest": manifest,
                "appended": sum(1 for document_id in document_ids
                                if document_id in detector.fingerprints),
                "shards_rewritten": manifest["shards"]}
    shard_count = manifest["shards"]
    buckets: dict[int, list[Hashable]] = {}
    for document_id in document_ids:
        if document_id not in detector.fingerprints:
            continue  # a parse failure; recorded below, never sharded
        buckets.setdefault(shard_of(document_id, shard_count), []).append(document_id)
    doomed: dict[int, set] = {}
    for document_id in remove_ids:
        doomed.setdefault(shard_of(document_id, shard_count), set()).add(document_id)
    for index in sorted(set(buckets) | set(doomed)):
        path = _shard_path(directory, index)
        bucket_ids = buckets.get(index, [])
        stale = set(bucket_ids) | doomed.get(index, set())
        bucket = [entry for entry in (try_load_pickle(path) or [])
                  if entry[0] not in stale]
        bucket.extend(
            (document_id, detector.fingerprints[document_id],
             detector.index.grams_for(document_id),
             detector.source_keys.get(document_id))
            for document_id in bucket_ids)
        dump_pickle(path, bucket)
    dump_pickle(directory / PARSE_FAILURES_NAME, list(detector.parse_failures))
    # keep (or retrofit) the score-memo tier; a no-op when the detector's
    # memo is already attached there write-through, as in the service
    detector.score_memo.persist_to(directory / SCORE_MEMO_NAME)
    manifest.setdefault("score_memo", SCORE_MEMO_NAME)
    manifest["documents"] = len(detector.fingerprints)
    manifest["parse_failures"] = len(detector.parse_failures)
    dump_json(directory / MANIFEST_NAME, manifest)
    return {"manifest": manifest,
            "appended": sum(len(bucket_ids) for bucket_ids in buckets.values()),
            "shards_rewritten": len(set(buckets) | set(doomed))}


def read_manifest(directory: Union[str, Path]) -> dict:
    """The manifest of a saved index, validated for format compatibility."""
    directory = Path(directory)
    manifest = try_load_json(directory / MANIFEST_NAME)
    if not isinstance(manifest, dict):
        raise IndexFormatError(f"no readable index manifest at {directory / MANIFEST_NAME}")
    if manifest.get("format_version") != INDEX_FORMAT_VERSION:
        raise IndexFormatError(
            f"index at {directory} has format version "
            f"{manifest.get('format_version')!r}, expected {INDEX_FORMAT_VERSION}")
    return manifest


def load_index(
    directory: Union[str, Path],
    store=None,
    strict: bool = True,
) -> CloneDetector:
    """Rebuild a :class:`~repro.ccd.detector.CloneDetector` from a saved index.

    No source is parsed: fingerprints and N-gram sets come straight out
    of the shards.  ``store`` optionally attaches a shared
    :class:`~repro.core.artifacts.ArtifactStore` (its configuration must
    match the manifest's).  With ``strict=True`` (default) an unreadable
    shard raises :class:`IndexFormatError`; with ``strict=False`` the
    affected shard's documents are silently skipped — callers can compare
    ``len(detector)`` against ``manifest['documents']`` to detect loss.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    configuration = manifest["configuration"]
    try:
        # older manifests predate the staged matcher: default backend
        backend = resolve_similarity_backend(configuration.get("similarity_backend"))
    except ValueError as error:
        # the index was saved by a detector carrying a custom
        # SimilarityBackend whose name is not in SIMILARITY_BACKENDS here;
        # store/configuration mismatches stay ValueError (caller-side)
        raise IndexFormatError(
            f"index at {directory} has an unloadable configuration: {error}") from error
    score_memo = None
    memo_name = manifest.get("score_memo")
    if memo_name and (directory / memo_name).exists():
        # reattach the saved score tier: every previously computed pair
        # score is warm (and write-through) before the first query runs
        score_memo = ScoreMemoTable(directory / memo_name)
    detector = CloneDetector(
        ngram_size=configuration["ngram_size"],
        ngram_threshold=configuration["ngram_threshold"],
        similarity_threshold=configuration["similarity_threshold"],
        fingerprint_block_size=configuration["fingerprint_block_size"],
        fingerprint_window=configuration["fingerprint_window"],
        store=store,
        similarity_backend=backend,
        score_memo=score_memo,
    )
    for index in range(manifest["shards"]):
        path = _shard_path(directory, index)
        bucket = try_load_pickle(path)
        if bucket is None:
            if strict:
                raise IndexFormatError(f"unreadable index shard {path}")
            continue
        for entry in bucket:
            document_id, fingerprint, grams = entry[0], entry[1], entry[2]
            detector.add_fingerprint(
                document_id, fingerprint, grams=grams,
                source_key=entry[3] if len(entry) > 3 else None)
    failures = try_load_pickle(directory / PARSE_FAILURES_NAME)
    if failures is None:
        if strict and manifest.get("parse_failures", 0):
            raise IndexFormatError(
                f"unreadable parse-failure record {directory / PARSE_FAILURES_NAME}")
        failures = []
    detector.parse_failures.extend(failures)
    return detector


__all__ = [
    "INDEX_FORMAT_VERSION",
    "IndexFormatError",
    "MANIFEST_NAME",
    "append_to_index",
    "load_index",
    "read_manifest",
    "save_index",
    "shard_of",
]
