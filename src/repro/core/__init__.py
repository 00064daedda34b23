"""The shared analysis core: parse-once artifacts, persistence, and batch execution.

This package is the seam between the paper-reproduction layers (solidity,
cpg, ccd, ccc, pipeline) and the scaling work described in ROADMAP.md:

* :mod:`repro.core.artifacts` — a content-hash keyed, LRU-bounded
  :class:`~repro.core.artifacts.ArtifactStore` that materializes each
  source's AST, CPG, fingerprint, and N-gram set at most once per process,
* :mod:`repro.core.persistence` — a SQLite-backed
  :class:`~repro.core.persistence.DiskArtifactStore` that writes artifacts
  through to disk so the *next* run (or another process) starts warm, plus
  the atomic-file helpers behind index serialization and study checkpoints,
* :mod:`repro.core.sqlite` — the one SQLite layer every durable store
  (artifact cache, score memo, job queue, source journals) opens,
  migrates and commits through,
* :mod:`repro.core.executor` — serial / thread / process
  :class:`~repro.core.executor.Executor` backends with chunked
  ``map_batches`` (and streaming ``imap_batches``) used by every hot
  loop (corpus indexing, snippet analysis, contract validation) and by
  the :mod:`repro.api` session façade.
"""

from repro.core.artifacts import (
    ArtifactStore,
    ArtifactStoreSpec,
    ArtifactStoreStats,
    SourceArtifact,
    content_key,
    process_local_store,
)
from repro.core.executor import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)
from repro.core.persistence import (
    CacheConfigurationError,
    DiskArtifactStore,
    DiskArtifactStoreStats,
)

__all__ = [
    "ArtifactStore",
    "ArtifactStoreSpec",
    "ArtifactStoreStats",
    "BACKENDS",
    "CacheConfigurationError",
    "DiskArtifactStore",
    "DiskArtifactStoreStats",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "SourceArtifact",
    "ThreadExecutor",
    "content_key",
    "process_local_store",
]
