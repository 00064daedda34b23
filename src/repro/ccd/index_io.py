"""Persistence of an indexed CCD corpus: one SQLite database per index.

Indexing a large contract corpus is the expensive half of clone detection
(every contract is parsed, normalized, and fuzzy-hashed).  This module
persists the *result* of that work — the per-document fingerprints — so
a :class:`~repro.ccd.detector.CloneDetector` can be reloaded and answer
queries **without re-parsing a single contract**.

A saved index is one file, ``corpus.sqlite``, in the index directory.  A
worker daemon keeps the same file in its data dir
(:mod:`repro.service.server`), with its source journal beside these
tables::

    fingerprints     one row per document: the JSON-encoded id, the
                     source's content key and the fingerprint text (the
                     N-gram set is ngrams(text, N), rebuilt on load)
    parse_failures   ids whose source did not parse, in recording order
    configuration    the detector configuration, one JSON value per name
    scores           the corpus-global (sub₁, sub₂) score memo
                     (:mod:`repro.ccd.score_memo`) — saved warm, loaded
                     warm, so a reloaded index re-scores zero known pairs

``PRAGMA user_version`` stamps the format.  A save is one transaction,
and so is each daemon ingest, so a killed writer leaves the previous
state whole.  Document ids are stored as JSON, so they must be strings
or numbers.
"""

from __future__ import annotations

import json
import sqlite3
import warnings
from pathlib import Path
from typing import Hashable, Iterable, Optional, Union

from repro.ccd.detector import CloneDetector
from repro.ccd.fingerprint import Fingerprint
from repro.ccd.matcher import SIMILARITY_BACKENDS, resolve_similarity_backend
from repro.ccd.score_memo import SCORES_SCHEMA, ScoreMemoTable
from repro.core.sqlite import Database

#: ``PRAGMA user_version`` of an index database; bump when its tables change
INDEX_FORMAT_VERSION = 2

#: file name of the index database inside an index directory or data dir
CORPUS_DATABASE_NAME = "corpus.sqlite"

#: the manifest of the retired pickle-shard layout, refused on sight
_LEGACY_MANIFEST_NAME = "index.json"

#: the index tables of a corpus database
SCHEMA = """
CREATE TABLE IF NOT EXISTS fingerprints (
    id          TEXT PRIMARY KEY,
    key         TEXT,
    fingerprint TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS parse_failures (
    id TEXT PRIMARY KEY
);
CREATE TABLE IF NOT EXISTS configuration (
    name  TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
""" + SCORES_SCHEMA


class IndexFormatError(ValueError):
    """A saved index is missing, truncated, or incompatible."""


def refuse_legacy_layout(directory: Union[str, Path]) -> None:
    """Raise :class:`IndexFormatError` if ``directory`` holds a pickled index.

    The retired layout (``index.json`` beside pickled shards) is not
    migrated: its corpus is indexed again from its sources.
    """
    if (Path(directory) / _LEGACY_MANIFEST_NAME).exists():
        raise IndexFormatError(
            f"{directory} holds a CCD index in the retired pickle-shard "
            f"layout ({_LEGACY_MANIFEST_NAME}); rebuild it with 'repro index "
            f"build', or start the daemon over an empty data dir and ingest "
            f"the corpus again")


def write_configuration(database: Database, detector: CloneDetector) -> None:
    """Stamp the format version and record ``detector``'s configuration.

    Thresholds are recorded as defaults for :func:`load_index` but can
    be overridden at query time as usual.
    """
    configuration = {
        "ngram_size": detector.ngram_size,
        "ngram_threshold": detector.ngram_threshold,
        "similarity_threshold": detector.similarity_threshold,
        "fingerprint_block_size": detector.generator.hasher.block_size,
        "fingerprint_window": detector.generator.hasher.window,
        "similarity_backend": detector.similarity_backend,
    }
    database.execute(f"PRAGMA user_version = {INDEX_FORMAT_VERSION}")
    for name, value in configuration.items():
        database.execute("REPLACE INTO configuration (name, value) VALUES (?, ?)",
                         (name, json.dumps(value)))


def append_to_index(detector: CloneDetector, database: Database,
                    document_ids: Iterable[Hashable]) -> None:
    """Write the rows of ``document_ids`` as ``detector`` now holds them.

    This is the live-ingest path of the worker daemon: each id's
    fingerprint row is replaced, or deleted once the detector no longer
    indexes the id, and its parse-failure row follows the detector's
    record — a few keyed statements per document, whatever the corpus
    size.  Run it inside the caller's transaction.
    """
    failures = set(detector.parse_failures)
    for document_id in document_ids:
        key = json.dumps(document_id)
        fingerprint = detector.fingerprints.get(document_id)
        if fingerprint is None:
            database.execute("DELETE FROM fingerprints WHERE id = ?", (key,))
        else:
            database.execute(
                "REPLACE INTO fingerprints (id, key, fingerprint) VALUES (?, ?, ?)",
                (key, detector.source_keys.get(document_id), fingerprint.text))
        if document_id in failures:
            database.execute(
                "INSERT OR IGNORE INTO parse_failures (id) VALUES (?)", (key,))
        else:
            database.execute("DELETE FROM parse_failures WHERE id = ?", (key,))


def save_index(detector: CloneDetector, directory: Union[str, Path]) -> dict:
    """Persist a detector's indexed corpus to ``directory``; returns the manifest.

    The corpus state (fingerprints, parse failures, memoized pair
    scores) replaces whatever index the directory held, in one
    transaction.
    """
    if detector.similarity_backend not in SIMILARITY_BACKENDS:
        # surface the problem at save time, not at some later load
        warnings.warn(
            f"saving an index with unregistered similarity backend "
            f"{detector.similarity_backend!r}; load_index will fail unless "
            f"that name is registered in repro.ccd.matcher.SIMILARITY_BACKENDS",
            stacklevel=2)
    database = Database(Path(directory) / CORPUS_DATABASE_NAME, SCHEMA)
    try:
        scores = detector.score_memo.rows()
        with database.transaction():
            for table in ("fingerprints", "parse_failures", "scores"):
                database.execute(f"DELETE FROM {table}")
            write_configuration(database, detector)
            append_to_index(detector, database,
                            [*detector.fingerprints, *detector.parse_failures])
            database.connection.executemany(
                "INSERT INTO scores (first, second, score) VALUES (?, ?, ?)",
                scores)
        return _manifest(database)
    finally:
        database.close()


def _open(directory: Union[str, Path]) -> Database:
    """Open the index database of ``directory``; never creates one."""
    directory = Path(directory)
    path = directory / CORPUS_DATABASE_NAME
    if not path.exists():
        refuse_legacy_layout(directory)
        raise IndexFormatError(f"no index database at {path}")
    try:
        return Database(path, "")
    except sqlite3.DatabaseError as error:
        raise IndexFormatError(f"unreadable index database {path}: {error}") from error


def _manifest(database: Database) -> Optional[dict]:
    """Format version, counts and configuration; ``None`` for a fresh file."""
    try:
        version = database.fetchone("PRAGMA user_version")[0]
        configuration = {name: json.loads(value) for name, value in
                         database.fetchall("SELECT name, value FROM configuration")}
        counts = {table: database.fetchone(f"SELECT COUNT(*) FROM {table}")[0]
                  for table in ("fingerprints", "parse_failures")}
    except sqlite3.DatabaseError as error:
        raise IndexFormatError(
            f"unreadable index database {database.path}: {error}") from error
    if version == 0 and not configuration:
        return None
    if version != INDEX_FORMAT_VERSION:
        raise IndexFormatError(
            f"index at {database.path} has format version {version!r}, "
            f"expected {INDEX_FORMAT_VERSION}")
    return {
        "format_version": version,
        "documents": counts["fingerprints"],
        "parse_failures": counts["parse_failures"],
        "configuration": configuration,
    }


def read_manifest(directory: Union[str, Path]) -> dict:
    """The manifest of a saved index, validated for format compatibility."""
    database = _open(directory)
    try:
        manifest = _manifest(database)
        if manifest is None:
            raise IndexFormatError(f"no index saved in {database.path}")
        return manifest
    finally:
        database.close()


def read_index(database: Database, store=None) -> Optional[CloneDetector]:
    """The detector ``database`` holds, or ``None`` when it holds none yet.

    No source is parsed: fingerprints come straight out of their rows.
    The detector's score memo writes through to ``database``.
    ``store`` optionally attaches a shared
    :class:`~repro.core.artifacts.ArtifactStore` (its configuration must
    match the index's).
    """
    manifest = _manifest(database)
    if manifest is None:
        return None
    configuration = manifest["configuration"]
    try:
        # a configuration without a backend row loads the default one
        backend = resolve_similarity_backend(configuration.get("similarity_backend"))
    except ValueError as error:
        # the index was saved by a detector carrying a custom
        # SimilarityBackend whose name is not in SIMILARITY_BACKENDS here;
        # store/configuration mismatches stay ValueError (caller-side)
        raise IndexFormatError(
            f"index at {database.path} has an unloadable configuration: "
            f"{error}") from error
    detector = CloneDetector(
        ngram_size=configuration["ngram_size"],
        ngram_threshold=configuration["ngram_threshold"],
        similarity_threshold=configuration["similarity_threshold"],
        fingerprint_block_size=configuration["fingerprint_block_size"],
        fingerprint_window=configuration["fingerprint_window"],
        store=store,
        similarity_backend=backend,
        score_memo=ScoreMemoTable(database),
    )
    for raw_id, source_key, text in database.fetchall(
            "SELECT id, key, fingerprint FROM fingerprints ORDER BY rowid"):
        detector.add_fingerprint(json.loads(raw_id), Fingerprint.parse(text),
                                 source_key=source_key)
    detector.parse_failures.extend(
        json.loads(raw_id) for (raw_id,) in
        database.fetchall("SELECT id FROM parse_failures ORDER BY rowid"))
    return detector


def load_index(directory: Union[str, Path], store=None) -> CloneDetector:
    """Rebuild a :class:`~repro.ccd.detector.CloneDetector` from a saved index.

    See :func:`read_index`; a missing, unreadable or incompatible index
    raises :class:`IndexFormatError`.
    """
    database = _open(directory)
    try:
        detector = read_index(database, store=store)
        if detector is None:
            raise IndexFormatError(f"no index saved in {database.path}")
        return detector
    except BaseException:
        database.close()
        raise


__all__ = [
    "CORPUS_DATABASE_NAME",
    "INDEX_FORMAT_VERSION",
    "IndexFormatError",
    "SCHEMA",
    "append_to_index",
    "load_index",
    "read_index",
    "read_manifest",
    "refuse_legacy_layout",
    "save_index",
    "write_configuration",
]
