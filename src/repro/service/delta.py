"""Delta ingest: unified diffs, base-version guards, source retention.

``POST /v1/corpus`` historically took full ``[id, source]`` pairs.  This
module adds the *delta* forms the incremental-analysis workload needs —
CI-style clients re-submitting one edited contract should not have to
re-upload (or even re-read) the rest of the corpus:

* ``{"id": ..., "source": ..., "base_version": <content key>}`` — a full
  replacement source, guarded by the content key of the base the client
  edited.  A mismatch (someone else replaced the document in between)
  rejects the request instead of silently clobbering.
* ``{"id": ..., "diff": <unified diff>, "base_version": <content key>}``
  — a unified diff against the *server's* retained copy of the source,
  applied here.  ``base_version`` is optional but recommended.

Both forms normalize to plain ``(id, source)`` pairs before they reach
the detector, so every downstream layer (index, shards, cluster routing)
is oblivious to how the source arrived.

:class:`SourceJournal` retains every ingested source, recorded at ingest
time, so a diff has a base to apply to: one SQLite table of ``id ->
(source, tag)``.  A worker keeps ``sources.sqlite`` in its data directory,
tagging each source with its content key; the cluster coordinator's
:class:`~repro.service.coordinator.CorpusJournal` is the same journal in
``corpus.sqlite``, tagging each source with the shard it was routed to.

Everything here is stdlib-only, like the rest of the service.
"""

from __future__ import annotations

import difflib
import json
import re
from pathlib import Path
from typing import Callable, Hashable, Iterable, List, Optional, Tuple, Union

from repro.core.artifacts import content_key
from repro.core.sqlite import Database

#: file name of the source-retention database inside a service data dir
SOURCES_DATABASE_NAME = "sources.sqlite"

_HUNK_HEADER = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")

_NO_NEWLINE = "\\ No newline at end of file"


class DeltaError(ValueError):
    """A delta request cannot be applied (bad diff, stale base, no base)."""


def make_unified_diff(base: str, new: str) -> str:
    """A unified diff of ``new`` against ``base`` that round-trips exactly.

    Unlike raw :func:`difflib.unified_diff` output, missing final
    newlines are encoded with the standard ``\\ No newline at end of
    file`` marker, so :func:`apply_unified_diff` reconstructs ``new``
    byte-for-byte (the ingest content-key guard depends on that).
    """
    out: List[str] = []
    for line in difflib.unified_diff(
            base.splitlines(keepends=True), new.splitlines(keepends=True),
            fromfile="a", tofile="b"):
        if line.endswith("\n"):
            out.append(line)
        else:
            out.append(line + "\n")
            out.append(_NO_NEWLINE + "\n")
    return "".join(out)


def apply_unified_diff(base: str, diff: str) -> str:
    """Apply a unified ``diff`` to ``base``; byte-exact, strict.

    Context and removed lines are verified against ``base`` — any
    mismatch (a stale diff) raises :class:`DeltaError` rather than
    producing a silently wrong source.  ``--- / +++`` headers are
    optional; ``\\ No newline at end of file`` markers are honored.
    """
    base_lines = base.splitlines(keepends=True)
    lines = diff.splitlines()
    result: List[str] = []
    cursor = 0  # next unconsumed index into base_lines
    saw_hunk = False
    index = 0

    def base_line_at(position: int, expected: str) -> str:
        if position >= len(base_lines):
            raise DeltaError(
                f"diff refers past the end of the base source "
                f"(line {position + 1})")
        actual = base_lines[position]
        if actual.rstrip("\r\n") != expected:
            raise DeltaError(
                f"diff does not match the base source at line "
                f"{position + 1}: expected {expected!r}, base has "
                f"{actual.rstrip(chr(10))!r}")
        return actual

    while index < len(lines):
        line = lines[index]
        if line.startswith(("--- ", "+++ ", "diff ", "index ")) or not line.strip():
            index += 1
            continue
        header = _HUNK_HEADER.match(line)
        if header is None:
            raise DeltaError(f"malformed diff line: {line!r}")
        saw_hunk = True
        old_start = int(header.group(1))
        old_count = int(header.group(2) or "1")
        # a zero-length old range addresses the gap *after* old_start
        target = old_start - 1 if old_count > 0 else old_start
        if target < cursor or target > len(base_lines):
            raise DeltaError(f"hunk out of order or out of range: {line!r}")
        result.extend(base_lines[cursor:target])
        cursor = target
        index += 1
        while index < len(lines):
            body = lines[index]
            if body.startswith("@@"):
                break
            if body.startswith(_NO_NEWLINE[0]):  # the backslash marker
                # refers to the previous emitted line; additions had a
                # newline tentatively appended — strip it back off
                if result and result[-1].endswith("\n") \
                        and index > 0 and lines[index - 1].startswith("+"):
                    result[-1] = result[-1][:-1]
                index += 1
                continue
            if body.startswith("+"):
                result.append(body[1:] + "\n")
            elif body.startswith("-"):
                base_line_at(cursor, body[1:])
                cursor += 1
            elif body.startswith(" ") or body == "":
                result.append(base_line_at(cursor, body[1:]))
                cursor += 1
            elif body.startswith(("--- ", "+++ ")):
                break
            else:
                raise DeltaError(f"malformed hunk line: {body!r}")
            index += 1
    if not saw_hunk:
        raise DeltaError("diff contains no hunks")
    result.extend(base_lines[cursor:])
    return "".join(result)


def resolve_ingest_documents(
    documents,
    resolve_base: Callable[[Hashable], Optional[str]],
) -> List[Tuple[Hashable, str]]:
    """Normalize wire ``documents`` items into full ``(id, source)`` pairs.

    Accepts the classic ``[id, source]`` pair, the guarded full-source
    object, and the diff object (see module docstring).  ``resolve_base``
    returns the server's retained source for an id (or ``None``).
    Raises :class:`DeltaError` on a stale ``base_version``, a diff with
    no retained base, or any malformed item — the caller maps that to
    HTTP 400.
    """
    if not isinstance(documents, (list, tuple)) or not documents:
        raise DeltaError(
            "'documents' must be a non-empty list of [id, source] pairs "
            "or delta objects")
    resolved: List[Tuple[Hashable, str]] = []
    for item in documents:
        if isinstance(item, (list, tuple)):
            if (len(item) != 2 or not isinstance(item[0], (str, int))
                    or not isinstance(item[1], str)):
                raise DeltaError(
                    "every 'documents' pair must be [id, source] "
                    "(id: string or integer, source: string)")
            resolved.append((item[0], item[1]))
            continue
        if not isinstance(item, dict):
            raise DeltaError(
                "every 'documents' item must be an [id, source] pair or a "
                "delta object")
        document_id = item.get("id")
        if not isinstance(document_id, (str, int)):
            raise DeltaError(
                "a delta object needs an 'id' (string or integer)")
        source = item.get("source")
        diff = item.get("diff")
        base_version = item.get("base_version")
        if base_version is not None and not isinstance(base_version, str):
            raise DeltaError("'base_version' must be a content-key string")
        if (source is None) == (diff is None):
            raise DeltaError(
                f"delta object for {document_id!r} needs exactly one of "
                f"'source' or 'diff'")
        if source is not None:
            if not isinstance(source, str):
                raise DeltaError("'source' must be a string")
            if base_version is not None:
                base = resolve_base(document_id)
                if base is None or content_key(base) != base_version:
                    raise DeltaError(
                        f"base_version mismatch for {document_id!r}: the "
                        f"retained source is not {base_version!r} (stale "
                        f"client, or the document was never ingested here)")
            resolved.append((document_id, source))
            continue
        if not isinstance(diff, str):
            raise DeltaError("'diff' must be a unified-diff string")
        base = resolve_base(document_id)
        if base is None:
            raise DeltaError(
                f"no retained source for {document_id!r}; a 'diff' delta "
                f"needs the document to have been ingested before")
        if base_version is not None and content_key(base) != base_version:
            raise DeltaError(
                f"base_version mismatch for {document_id!r}: the retained "
                f"source is not {base_version!r}")
        resolved.append((document_id, apply_unified_diff(base, diff)))
    return resolved


class SourceJournal:
    """Durable ``id -> (source, tag)`` journal of ingested documents.

    On a worker it backs the diff ingest form and the ``changed_only``
    watch workload, and the tag is the source's content key.  Ids are
    stored as their JSON encoding so string and integer ids can never
    collide.  Subclasses name another table and tag column
    (:class:`~repro.service.coordinator.CorpusJournal`).
    """

    #: the journal's table, and the column that tags each source
    TABLE = "sources"
    TAG = "key"

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS {table} (
        id     TEXT PRIMARY KEY,
        source TEXT NOT NULL,
        {tag:<6} TEXT NOT NULL
    );
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._connection = Database(
            self.path, self._SCHEMA.format(table=self.TABLE, tag=self.TAG))

    def close(self) -> None:
        """Close the database connection (idempotent)."""
        self._connection.close()

    def __enter__(self) -> "SourceJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def record(self, document_id: Hashable, source: str, tag: str) -> None:
        """Remember (or update) one ingested document's source and tag."""
        self._connection.execute(
            f"REPLACE INTO {self.TABLE} (id, source, {self.TAG}) "
            f"VALUES (?, ?, ?)", (json.dumps(document_id), source, tag))

    def forget(self, document_id: Hashable) -> None:
        """Drop one document from the journal (idempotent)."""
        self._connection.execute(f"DELETE FROM {self.TABLE} WHERE id = ?",
                                 (json.dumps(document_id),))

    def get(self, document_id: Hashable) -> Optional[str]:
        """The retained source of one document, or ``None``."""
        row = self._connection.fetchone(
            f"SELECT source FROM {self.TABLE} WHERE id = ?",
            (json.dumps(document_id),))
        return row[0] if row is not None else None

    def sources(self, document_ids: Iterable[Hashable]) -> List[Tuple[Hashable, str]]:
        """``(id, source)`` pairs of the given journaled ids, in id order."""
        pairs = [(document_id, self.get(document_id))
                 for document_id in set(document_ids)]
        return sorted((pair for pair in pairs if pair[1] is not None),
                      key=lambda pair: str(pair[0]))

    def count(self) -> int:
        """How many documents the journal holds."""
        return self._connection.fetchone(f"SELECT COUNT(*) FROM {self.TABLE}")[0]


__all__ = [
    "DeltaError",
    "SOURCES_DATABASE_NAME",
    "SourceJournal",
    "apply_unified_diff",
    "make_unified_diff",
    "resolve_ingest_documents",
]
