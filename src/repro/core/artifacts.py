"""Parse-once artifact store shared by CCD, CCC, and the study pipeline.

Every analysis layer of the reproduction consumes the same chain of
derived artifacts: Solidity source → AST (:class:`SourceUnit`) → either a
code property graph (CCC) or a normalized fingerprint and its N-gram set
(CCD).  Before this module existed each layer re-parsed the source
independently — the clone detector, the contract checker, the two-phase
validator, and the collection parsability filter all called the parser on
the same text.

:class:`ArtifactStore` removes that duplication.  It is a content-hash
keyed, LRU-bounded cache of :class:`SourceArtifact` objects; each artifact
lazily materializes its AST, CPG, fingerprint, and N-gram set exactly once
and shares them with every consumer in the process.  The store is
thread-safe, so the thread backend of :mod:`repro.core.executor` can fan
out over a single shared store.  For the process backend — where graphs
and ASTs are not worth pickling — :func:`process_local_store` rehydrates
an equivalent store inside each worker from a small picklable
:class:`ArtifactStoreSpec`.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.ccd.fingerprint import Fingerprint, FingerprintGenerator
from repro.ccd.ngram_index import ngrams
from repro.cpg.builder import build_cpg
from repro.cpg.graph import CPGGraph
from repro.solidity import ast_nodes as ast
from repro.solidity.errors import SolidityParseError
from repro.solidity.lexer import tokenize
from repro.solidity.parser import parse_snippet
from repro.solidity.splitter import FunctionSpan, split_source

_RECURSION_MESSAGE = "recursion limit exceeded while parsing"


def content_key(source: str) -> str:
    """Stable content hash used as the cache key for ``source``."""
    return hashlib.sha256(source.encode("utf-8", "replace")).hexdigest()


@dataclass
class ArtifactStoreStats:
    """Counters describing how much work the store performed and saved."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: number of actual ``parse_snippet`` invocations — the headline
    #: "parse once" guarantee is ``parse_calls == misses`` (minus evictions)
    parse_calls: int = 0
    cpg_builds: int = 0
    fingerprint_builds: int = 0
    #: function-digest cache lookups made while attempting a delta
    #: fingerprint (an edited source probing for unchanged functions)
    function_hits: int = 0
    function_misses: int = 0
    #: standalone parses of individual changed functions (the O(change)
    #: work a delta fingerprint performs instead of a whole-source parse)
    function_parses: int = 0
    #: fingerprints assembled from cached function digests without a
    #: whole-source parse
    delta_assemblies: int = 0
    #: delta attempts abandoned back to the whole-source path (a changed
    #: function did not re-parse cleanly in isolation)
    delta_fallbacks: int = 0

    def __post_init__(self):
        # artifacts and the store increment concurrently under the thread
        # backend; a shared lock keeps the read-modify-write atomic
        self._lock = threading.Lock()

    def increment(self, counter: str) -> None:
        """Atomically add one to the named counter (thread-safe)."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    @property
    def lookups(self) -> int:
        """Total store lookups (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        """All counters (and derived rates) as a plain dict."""
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "parse_calls": self.parse_calls,
            "cpg_builds": self.cpg_builds,
            "fingerprint_builds": self.fingerprint_builds,
            "function_hits": self.function_hits,
            "function_misses": self.function_misses,
            "function_parses": self.function_parses,
            "delta_assemblies": self.delta_assemblies,
            "delta_fallbacks": self.delta_fallbacks,
        }


class FunctionDigestCache:
    """LRU cache of function-span keys to their sub-fingerprint digests.

    The function-level artifact tier: keys are
    :func:`repro.solidity.splitter.span_key` hashes of one function's
    exact token stream, values are the fuzzy-hash digest that function
    contributes to its source's fingerprint.  Because the key covers the
    whole normalized input, a hit is always safe to reuse — across edits
    of one source *and* across sources that share a function verbatim.

    ``fetch``/``persist`` are the optional disk-tier hooks (wired by
    :class:`~repro.core.persistence.DiskArtifactStore`): ``fetch(key)``
    returns a digest or ``None``, ``persist(key, digest)`` writes one
    through.  A digest may be the empty string (functions too small to
    hash) — only ``None`` means "not cached".
    """

    def __init__(self, max_entries: int = 65536, fetch=None, persist=None):
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, str]" = OrderedDict()
        self._lock = threading.RLock()
        self._fetch = fetch
        self._persist = persist

    def attach(self, fetch, persist) -> None:
        """Wire the disk-tier hooks (used by the persistent store)."""
        self._fetch = fetch
        self._persist = persist

    def get(self, key: str) -> Optional[str]:
        """The cached digest for ``key``, or ``None`` when not cached."""
        with self._lock:
            digest = self._entries.get(key)
            if digest is not None:
                self._entries.move_to_end(key)
                return digest
        if self._fetch is not None:
            digest = self._fetch(key)
            if digest is not None:
                self._remember(key, digest)
            return digest
        return None

    def put(self, key: str, digest: str) -> None:
        """Cache ``digest`` for ``key`` (writing through when persistent)."""
        self._remember(key, digest)
        if self._persist is not None:
            self._persist(key, digest)

    def _remember(self, key: str, digest: str) -> None:
        with self._lock:
            self._entries[key] = digest
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop the memory tier (the disk tier, if any, is untouched)."""
        with self._lock:
            self._entries.clear()


class SourceArtifact:
    """Lazily-materialized per-source artifacts (AST, CPG, fingerprint).

    All derived artifacts are computed on first access and cached on the
    instance, so the expensive parse/translate/hash work happens at most
    once per unique source no matter how many layers ask for it.  Parse
    failures are cached too: retrying an unparsable source re-raises the
    recorded :class:`SolidityParseError` without re-running the parser.
    ``RecursionError`` raised anywhere in the chain is converted into a
    :class:`SolidityParseError` with the same message the contract checker
    historically reported, so downstream error handling is uniform.
    """

    __slots__ = ("source", "key", "_stats", "_generator", "_ngram_size", "_lock",
                 "_unit", "_unit_error", "_graph", "_graph_error",
                 "_fingerprint", "_fingerprint_error", "_ngrams", "_on_materialize",
                 "_function_digests")

    #: names of the derived-value slots preloaded by :meth:`restore`
    #: (the persistence payload format)
    PAYLOAD_FIELDS = ("unit", "unit_error", "graph", "graph_error",
                      "fingerprint", "fingerprint_error", "ngrams")

    def __init__(
        self,
        source: str,
        key: str,
        stats: ArtifactStoreStats,
        generator: FingerprintGenerator,
        ngram_size: int,
        on_materialize=None,
        function_digests: Optional[FunctionDigestCache] = None,
    ):
        self.source = source
        self.key = key
        self._stats = stats
        self._generator = generator
        self._ngram_size = ngram_size
        self._lock = threading.RLock()
        self._unit: Optional[ast.SourceUnit] = None
        self._unit_error: Optional[str] = None
        self._graph: Optional[CPGGraph] = None
        self._graph_error: Optional[str] = None
        self._fingerprint: Optional[Fingerprint] = None
        self._fingerprint_error: Optional[str] = None
        self._ngrams: Optional[frozenset] = None
        #: optional ``callback(artifact, field)`` invoked (under the artifact
        #: lock) every time the named derived value is computed for the first
        #: time; the disk store uses it to write that value through to disk
        self._on_materialize = on_materialize
        #: optional store-wide function-digest cache enabling the delta
        #: fingerprint path (see :meth:`fingerprint`)
        self._function_digests = function_digests

    def _materialized(self, field: str) -> None:
        if self._on_materialize is not None:
            self._on_materialize(self, field)

    # -- persistence ----------------------------------------------------------
    def restore(self, payload: dict) -> None:
        """Preload derived values from a persisted ``{field: value}`` payload.

        Already-materialized values win over the payload, so restoring is
        safe at any point in the artifact's life.  No statistics counters
        are touched: restored values count as neither parses nor builds.
        """
        with self._lock:
            for name in self.PAYLOAD_FIELDS:
                value = payload.get(name)
                if value is not None and getattr(self, "_" + name) is None:
                    setattr(self, "_" + name, value)

    # -- AST ------------------------------------------------------------------
    @property
    def unit(self) -> ast.SourceUnit:
        """The parsed AST; parses at most once, caching failures."""
        return self._parse()

    def _parse(self, tokens=None) -> ast.SourceUnit:
        """The parsed AST, from ``tokens`` when the caller lexed the source."""
        with self._lock:
            if self._unit is not None:
                return self._unit
            if self._unit_error is not None:
                raise SolidityParseError(self._unit_error)
            self._stats.increment("parse_calls")
            try:
                self._unit = parse_snippet(self.source, tokens)
            except SolidityParseError as exc:
                self._unit_error = str(exc)
                self._materialized("unit_error")
                raise
            except RecursionError:
                self._unit_error = _RECURSION_MESSAGE
                self._materialized("unit_error")
                raise SolidityParseError(self._unit_error) from None
            self._materialized("unit")
            return self._unit

    def try_unit(self) -> Optional[ast.SourceUnit]:
        """The parsed AST, or ``None`` when the source is unparsable."""
        try:
            return self.unit
        except SolidityParseError:
            return None

    @property
    def parse_error(self) -> Optional[str]:
        """The cached parse error message, materializing the AST if needed."""
        self.try_unit()
        return self._unit_error

    @property
    def parse_ok(self) -> bool:
        """Whether the source parses (materializing the AST if needed)."""
        return self.try_unit() is not None

    # -- CPG ------------------------------------------------------------------
    @property
    def graph(self) -> CPGGraph:
        """The code property graph, built at most once from the shared AST."""
        with self._lock:
            if self._graph is not None:
                return self._graph
            if self._graph_error is not None:
                raise SolidityParseError(self._graph_error)
            unit = self.unit
            self._stats.increment("cpg_builds")
            try:
                self._graph = build_cpg(unit=unit)
            except RecursionError:
                self._graph_error = _RECURSION_MESSAGE
                self._materialized("graph_error")
                raise SolidityParseError(self._graph_error) from None
            self._materialized("graph")
            return self._graph

    # -- fingerprint ----------------------------------------------------------
    @property
    def fingerprint(self) -> Fingerprint:
        """The CCD fingerprint; assembled from cached function digests
        when possible, normalized from the shared AST otherwise.

        The delta path: when the source has not been parsed yet but the
        store's :class:`FunctionDigestCache` already knows some of its
        functions (a re-analysis after an edit), the fingerprint is
        assembled from the cached digests, with only the *changed*
        functions parsed — standalone, in O(change) — instead of the
        whole source.  The assembled fingerprint is byte-identical to the
        whole-source one; any doubt (unsplittable source, a changed
        function that does not re-parse cleanly in isolation) falls back
        to the whole-source path.  The source is lexed once: the delta
        attempt, the whole-source parse and the digest seeding share one
        token list and one split.
        """
        with self._lock:
            if self._fingerprint is not None:
                return self._fingerprint
            if self._fingerprint_error is not None:
                raise SolidityParseError(self._fingerprint_error)
            split = None
            if self._unit is None and self._unit_error is None \
                    and self._function_digests is not None:
                tokens = tokenize(self.source)
                split = split_source(self.source, tokens)
                assembled = self._delta_fingerprint(split)
                if assembled is not None:
                    self._fingerprint = assembled
                    self._materialized("fingerprint")
                    return self._fingerprint
                unit = self._parse(tokens)
            else:
                unit = self.unit
                if self._function_digests is not None and not unit.warnings:
                    split = split_source(self.source)
            self._stats.increment("fingerprint_builds")
            try:
                normalized = self._generator.normalizer.normalize_unit(unit)
                self._fingerprint = self._generator.from_normalized(normalized)
            except RecursionError:
                self._fingerprint_error = _RECURSION_MESSAGE
                self._materialized("fingerprint_error")
                raise SolidityParseError(self._fingerprint_error) from None
            self._materialized("fingerprint")
            self._seed_function_digests(normalized, split)
            return self._fingerprint

    def _delta_fingerprint(self, split) -> Optional[Fingerprint]:
        """Assemble the fingerprint from cached function digests, or ``None``.

        ``None`` (fall back to the whole-source path) when the source is
        unsplittable (``split`` is ``None``), when *no* function is cached
        yet (a cold source: one whole parse beats N standalone parses and
        seeds the cache), or when a changed function fails the strict
        standalone re-parse.
        """
        if split is None:
            return None
        cache = self._function_digests
        digests = {}
        for span in split.spans:
            if span.key not in digests:
                digests[span.key] = cache.get(span.key)
        if not any(digest is not None for digest in digests.values()):
            return None
        changed = []
        for key, digest in digests.items():
            if digest is None:
                self._stats.increment("function_misses")
                changed.append(key)
            else:
                self._stats.increment("function_hits")
        spans_by_key = {span.key: span for span in split.spans}
        for key in changed:
            digest = self._span_digest(spans_by_key[key])
            if digest is None:
                self._stats.increment("delta_fallbacks")
                return None
            digests[key] = digest
            cache.put(key, digest)
        contracts = []
        for group in split.groups:
            contracts.append(
                [digest for digest in (digests[span.key] for span in group)
                 if digest])
        text = ":".join(".".join(subs) for subs in contracts)
        self._stats.increment("delta_assemblies")
        return Fingerprint(text=text, contracts=contracts)

    def _span_digest(self, span: FunctionSpan) -> Optional[str]:
        """Digest one function span via a strict standalone re-parse.

        The span text is parsed on its own (with a leading newline, so
        its first token carries the same newline flag the key assumed)
        and must yield exactly one warning-free definition of the
        expected kind — anything else returns ``None`` and the caller
        abandons the delta.  Normalization matches the whole-source
        pipeline: contract scope is always empty, and modifiers are
        normalized through the same synthetic function definition.
        """
        self._stats.increment("function_parses")
        try:
            unit = parse_snippet("\n" + span.text)
        except (SolidityParseError, RecursionError):
            return None
        if unit.warnings or len(unit.items) != 1:
            return None
        item = unit.items[0]
        if span.construct == "modifier":
            if not isinstance(item, ast.ModifierDefinition):
                return None
            function = ast.FunctionDefinition(
                name=item.name, parameters=item.parameters, body=item.body,
                code=item.code)
        else:
            if not isinstance(item, ast.FunctionDefinition):
                return None
            function = item
        normalized = self._generator.normalizer._normalize_function(
            function, {}, function_label=span.label)
        return self._generator.hasher.hash_tokens(normalized.tokens)

    def _seed_function_digests(self, normalized, split) -> None:
        """Record per-function digests after a clean whole-source build.

        Seeding requires a warning-free parse *and* exact alignment
        between the source's ``split`` and the normalized functions (same
        groups, same labels, in order) — any mismatch means the splitter
        modeled this source differently from the parser, so nothing is
        cached for it.  ``split`` is ``None`` when the store has no digest
        tier or the splitter bailed.
        """
        if split is None or self._unit.warnings \
                or len(split.groups) != len(normalized.contracts):
            return
        aligned = []
        for group, contract in zip(split.groups, normalized.contracts):
            functions = [function for function in contract.functions
                         if function.name != "header"]
            if [span.label for span in group] != \
                    [function.name for function in functions]:
                return
            aligned.append((group, functions))
        for group, functions in aligned:
            for span, function in zip(group, functions):
                self._function_digests.put(
                    span.key, self._generator.hasher.hash_tokens(function.tokens))

    @property
    def ngrams(self) -> frozenset:
        """The fingerprint's character N-gram set for the store's N."""
        with self._lock:
            if self._ngrams is None:
                self._ngrams = frozenset(ngrams(self.fingerprint.text, self._ngram_size))
                self._materialized("ngrams")
            return self._ngrams


@dataclass(frozen=True)
class ArtifactStoreSpec:
    """Picklable recipe for rebuilding an equivalent :class:`ArtifactStore`.

    Process-backend workers cannot share the parent's store (locks and
    open database handles don't pickle), so they receive this spec and
    rehydrate their own process-local store via
    :func:`process_local_store`.  When ``path`` is set the rebuilt store
    is a :class:`~repro.core.persistence.DiskArtifactStore`, so worker
    processes share the parent's on-disk artifact cache.
    """

    max_entries: int = 8192
    ngram_size: int = 3
    fingerprint_block_size: int = 2
    fingerprint_window: int = 4
    #: cache directory of a :class:`~repro.core.persistence.DiskArtifactStore`,
    #: or ``None`` for a purely in-memory store
    path: Optional[str] = None

    def build(self) -> "ArtifactStore":
        """Instantiate the store this spec describes."""
        if self.path is not None:
            from repro.core.persistence import DiskArtifactStore

            return DiskArtifactStore(
                self.path,
                max_entries=self.max_entries,
                ngram_size=self.ngram_size,
                fingerprint_block_size=self.fingerprint_block_size,
                fingerprint_window=self.fingerprint_window,
            )
        return ArtifactStore(
            max_entries=self.max_entries,
            ngram_size=self.ngram_size,
            fingerprint_block_size=self.fingerprint_block_size,
            fingerprint_window=self.fingerprint_window,
        )


class ArtifactStore:
    """Content-hash keyed, LRU-bounded cache of :class:`SourceArtifact`.

    Parameters
    ----------
    max_entries:
        Upper bound on cached artifacts; least-recently-used entries are
        evicted first.  Artifact references held by callers stay valid
        after eviction — only the cache slot is reclaimed.
    ngram_size / fingerprint_block_size / fingerprint_window:
        CCD configuration shared by every artifact in the store.  A
        detector attached to a store must use matching parameters (the
        detector constructor enforces this).
    """

    def __init__(
        self,
        max_entries: int = 8192,
        ngram_size: int = 3,
        fingerprint_block_size: int = 2,
        fingerprint_window: int = 4,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.ngram_size = ngram_size
        self.generator = FingerprintGenerator(
            block_size=fingerprint_block_size, window=fingerprint_window)
        self.stats = ArtifactStoreStats()
        #: store-wide function-level digest tier (content-pure, so safe to
        #: share across every artifact and every edit of a source)
        self.function_digests = FunctionDigestCache()
        self._entries: "OrderedDict[str, SourceArtifact]" = OrderedDict()
        self._lock = threading.RLock()

    @property
    def spec(self) -> ArtifactStoreSpec:
        """The picklable recipe workers use to rebuild this store."""
        return ArtifactStoreSpec(
            max_entries=self.max_entries,
            ngram_size=self.ngram_size,
            fingerprint_block_size=self.generator.hasher.block_size,
            fingerprint_window=self.generator.hasher.window,
        )

    def get(self, source: str) -> SourceArtifact:
        """The (possibly cached) artifact bundle for ``source``."""
        key = content_key(source)
        with self._lock:
            artifact = self._entries.get(key)
            if artifact is not None:
                self._entries.move_to_end(key)
                self.stats.increment("hits")
                return artifact
            self.stats.increment("misses")
            artifact = self._create_artifact(source, key)
            self._entries[key] = artifact
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.increment("evictions")
            return artifact

    def _create_artifact(self, source: str, key: str) -> SourceArtifact:
        """Build the artifact for a cache miss (the disk store's tier seam)."""
        return SourceArtifact(source, key, self.stats, self.generator,
                              self.ngram_size,
                              function_digests=self.function_digests)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, source: str) -> bool:
        with self._lock:
            return content_key(source) in self._entries

    def clear(self) -> None:
        """Drop all cached artifacts (statistics are kept)."""
        with self._lock:
            self._entries.clear()


#: per-process cache used by process-backend workers (spec -> store)
_PROCESS_STORES: dict = {}
_PROCESS_STORES_LOCK = threading.Lock()


def process_local_store(spec: ArtifactStoreSpec) -> ArtifactStore:
    """A process-wide store for ``spec``, created on first use.

    Executor worker processes call this to rehydrate artifacts from source
    instead of unpickling them; within one worker process, each unique
    source is still parsed at most once.
    """
    with _PROCESS_STORES_LOCK:
        store = _PROCESS_STORES.get(spec)
        if store is None:
            store = spec.build()
            _PROCESS_STORES[spec] = store
        return store


__all__ = [
    "ArtifactStore",
    "ArtifactStoreSpec",
    "ArtifactStoreStats",
    "FunctionDigestCache",
    "SourceArtifact",
    "content_key",
    "process_local_store",
]
