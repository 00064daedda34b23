"""Atomic file primitives shared by every persistence layer.

These helpers are deliberately free of any ``repro`` imports so that low
layers can use them without pulling in the artifact store.  All writers
go through a temporary sibling file and :func:`os.replace`, so a reader
never observes a half-written file and a killed process never leaves a
torn payload — the invariant the study checkpoints and a daemon's
``queries.json`` are built on.  The ``try_load_*`` readers
return ``None`` on *any* corruption instead of raising: persistent caches
must degrade to recomputation, not fail the run.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional, Union


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp sibling + ``os.replace``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent))
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def dump_pickle(path: Union[str, Path], obj: object) -> None:
    """Atomically pickle ``obj`` to ``path``."""
    atomic_write_bytes(path, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def try_load_pickle(path: Union[str, Path]) -> Optional[object]:
    """Unpickle ``path``, or ``None`` when missing, truncated, or corrupt."""
    try:
        with open(path, "rb") as handle:
            return pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, ValueError):
        return None


def dump_json(path: Union[str, Path], obj: object) -> None:
    """Atomically write ``obj`` as pretty-printed JSON to ``path``."""
    atomic_write_bytes(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def try_load_json(path: Union[str, Path]) -> Optional[object]:
    """Parse JSON from ``path``, or ``None`` when missing or corrupt."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None


__all__ = [
    "atomic_write_bytes",
    "dump_json",
    "dump_pickle",
    "try_load_json",
    "try_load_pickle",
]
