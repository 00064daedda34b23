"""Resumable study checkpoints: manifest + per-stage payloads on disk.

A :class:`StudyCheckpoint` turns a directory into durable progress state
for :class:`~repro.pipeline.experiment.VulnerableCodeReuseStudy`.  Each
pipeline stage (``collection``, ``clone_mapping``, ``checking``,
``validation``) records its results as it goes:

* whole-stage payloads (``stage-<name>.pkl``) for the cheap stages,
* numbered chunk payloads (``stage-<name>.chunk-0007.pkl``) for the two
  expensive, embarrassingly-parallel stages (CCC snippet checking and
  candidate validation), written after every completed chunk.

``manifest.json`` tracks the state of every stage plus free-form metadata
(the study configuration and, for the CLI, the corpus generation
parameters needed to rebuild identical inputs on ``repro study resume``).

All writes are atomic (:mod:`repro.core.fileio`), so a run killed at
any instant leaves either the previous or the new state on disk — never a
torn file.  A resumed run replays completed stages/chunks from disk and
recomputes only the remainder; because every stage is deterministic, the
resumed results are byte-identical to an uninterrupted run.

Thread-safety: a checkpoint instance is driven by the study's main thread
only (worker fan-out happens *inside* a chunk); it is not itself
thread-safe and does not need to be.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.core.fileio import dump_json, dump_pickle, try_load_json, try_load_pickle

#: bump when the manifest layout or any stage payload format changes
CHECKPOINT_FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"

#: the stages a study records, in pipeline order
STAGES = ("collection", "clone_mapping", "checking", "validation")


class StudyCheckpointError(RuntimeError):
    """A checkpoint directory is incompatible with the resuming study."""


class StudyCheckpoint:
    """Durable, resumable progress state for one study run.

    Parameters
    ----------
    directory:
        Checkpoint directory (created on demand).  An existing manifest
        is loaded and validated; an empty or missing directory starts a
        fresh checkpoint.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        manifest = try_load_json(self.directory / MANIFEST_NAME)
        if manifest is None:
            manifest = {
                "format_version": CHECKPOINT_FORMAT_VERSION,
                "stages": {},
                "metadata": {},
            }
        if not isinstance(manifest, dict) or \
                manifest.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise StudyCheckpointError(
                f"checkpoint at {self.directory} has format version "
                f"{manifest.get('format_version') if isinstance(manifest, dict) else '?'}, "
                f"expected {CHECKPOINT_FORMAT_VERSION}")
        self._manifest = manifest

    # -- manifest -------------------------------------------------------------
    @property
    def metadata(self) -> dict:
        """Free-form JSON metadata (configuration, corpus parameters)."""
        return dict(self._manifest.get("metadata", {}))

    def update_metadata(self, **values) -> None:
        """Merge ``values`` into the manifest metadata and persist it."""
        self._manifest.setdefault("metadata", {}).update(values)
        self._write_manifest()

    def stage_state(self, name: str) -> Optional[dict]:
        """The recorded state of a stage, or ``None`` when never started."""
        state = self._manifest.get("stages", {}).get(name)
        return dict(state) if state is not None else None

    def is_complete(self, name: str) -> bool:
        """Whether a stage finished (all chunks written, payload durable)."""
        state = self.stage_state(name)
        return state is not None and state.get("state") == "complete"

    def summary(self) -> list[dict]:
        """Per-stage progress rows for status output (``repro study resume``)."""
        rows = []
        for name in STAGES:
            state = self.stage_state(name) or {"state": "pending"}
            rows.append({"stage": name, **state})
        return rows

    def _write_manifest(self) -> None:
        dump_json(self.directory / MANIFEST_NAME, self._manifest)

    def _set_stage(self, name: str, **state) -> None:
        self._manifest.setdefault("stages", {})[name] = state
        self._write_manifest()

    # -- whole-stage payloads -------------------------------------------------
    def _stage_path(self, name: str) -> Path:
        return self.directory / f"stage-{name}.pkl"

    def save_stage(self, name: str, payload: object) -> None:
        """Persist a completed stage's payload and mark the stage complete."""
        dump_pickle(self._stage_path(name), payload)
        self._set_stage(name, state="complete")

    def load_stage(self, name: str) -> Optional[object]:
        """A completed stage's payload, or ``None`` to recompute.

        A corrupt payload demotes the stage to pending (counted once, then
        recomputed) rather than failing the resume.
        """
        if not self.is_complete(name):
            return None
        payload = try_load_pickle(self._stage_path(name))
        if payload is None:
            self._set_stage(name, state="pending")
        return payload

    # -- chunked payloads -----------------------------------------------------
    def _chunk_path(self, name: str, index: int) -> Path:
        return self.directory / f"stage-{name}.chunk-{index:04d}.pkl"

    def save_chunk(self, name: str, index: int, payload: object, total: int) -> None:
        """Persist chunk ``index`` of ``total`` and update the stage state.

        Chunks are written strictly in order by the study loop; the last
        chunk flips the stage to ``complete``.
        """
        dump_pickle(self._chunk_path(name, index), payload)
        done = index + 1
        if done >= total:
            self._set_stage(name, state="complete", chunks=done, total=total)
        else:
            self._set_stage(name, state="partial", chunks=done, total=total)

    def load_chunks(self, name: str) -> list:
        """Payloads of the contiguous prefix of completed chunks.

        Stops at the first missing or unreadable chunk file — everything
        after it is recomputed by the resuming run.
        """
        state = self.stage_state(name)
        if state is None or "chunks" not in state:
            return []
        payloads = []
        for index in range(int(state["chunks"])):
            payload = try_load_pickle(self._chunk_path(name, index))
            if payload is None:
                break
            payloads.append(payload)
        return payloads

    def mark_stage_complete(self, name: str, total: int = 0) -> None:
        """Mark a chunked stage with zero pending chunks as complete."""
        self._set_stage(name, state="complete", chunks=total, total=total)


__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "MANIFEST_NAME",
    "STAGES",
    "StudyCheckpoint",
    "StudyCheckpointError",
]
