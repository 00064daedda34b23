"""Consistent hashing ring partitioning corpus documents across shards.

The cluster coordinator (`repro.service.coordinator`) owns no corpus of
its own: every ingested document is routed to exactly one worker daemon,
chosen by consistent hashing on the document id.  The ring exists so
that membership changes stay cheap — adding one shard to an ``N``-shard
ring moves roughly ``1/(N+1)`` of the keys (only the keys whose owner
actually changed), instead of reshuffling everything the way a bare
``hash(id) % N`` would.

Determinism is load-bearing here: the byte-parity test harness predicts
document placement from outside the coordinator process, so ring points
are derived from SHA-256 (never from ``hash()``, which is salted per
process) and keys are hashed through ``repr``.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

#: Virtual ring points placed per shard.  More points smooth the key
#: distribution across shards; 64 keeps the per-shard imbalance low for
#: the single-digit shard counts the coordinator targets while keeping
#: ring construction trivially cheap.
DEFAULT_RING_REPLICAS = 64


def _point(value: str) -> int:
    """Map an arbitrary string to a position on the 64-bit ring."""
    digest = hashlib.sha256(value.encode("utf-8", "replace")).hexdigest()
    return int(digest[:16], 16)


def key_point(document_id: Hashable) -> int:
    """Ring position of one document id (hashed via ``repr``, so str/int
    ids cannot collide)."""
    return _point(repr(document_id))


class HashRing:
    """A deterministic consistent-hash ring over named shard nodes.

    Each node contributes ``replicas`` virtual points; a key is owned by
    the first node point at or clockwise after the key's own point.
    """

    def __init__(self, nodes: Iterable[str] = (), replicas: int = DEFAULT_RING_REPLICAS):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = int(replicas)
        self._nodes: set = set()
        self._points: List[int] = []
        self._owners: Dict[int, str] = {}
        for node in nodes:
            self.add(node)

    def add(self, node: str) -> None:
        """Add one node (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for replica in range(self.replicas):
            point = _point(f"{node}#{replica}")
            incumbent = self._owners.get(point)
            if incumbent is not None:
                # A full SHA-256 point collision is astronomically
                # unlikely; break the tie deterministically anyway so
                # every process agrees on the owner.
                if str(node) < str(incumbent):
                    self._owners[point] = node
                continue
            self._owners[point] = node
            bisect.insort(self._points, point)

    def remove(self, node: str) -> None:
        """Remove one node (idempotent); rebuilds the point table."""
        if node not in self._nodes:
            return
        survivors = self._nodes - {node}
        self._nodes = set()
        self._points = []
        self._owners = {}
        for survivor in sorted(survivors):
            self.add(survivor)

    def owner(self, document_id: Hashable) -> str:
        """The node that owns one document id."""
        if not self._points:
            raise ValueError("empty hash ring")
        index = bisect.bisect_right(self._points, key_point(document_id))
        if index == len(self._points):
            index = 0
        return self._owners[self._points[index]]

    def assignments(self, document_ids: Iterable[Hashable]) -> Dict[Hashable, str]:
        """Map each document id to its owning node."""
        return {document_id: self.owner(document_id) for document_id in document_ids}

    def moved_keys(
        self, document_ids: Iterable[Hashable], other: "HashRing"
    ) -> List[Hashable]:
        """The document ids whose owner differs between this ring and
        ``other`` — i.e. the only keys a rebalance may touch."""
        return [
            document_id
            for document_id in document_ids
            if self.owner(document_id) != other.owner(document_id)
        ]

    @property
    def nodes(self) -> Tuple[str, ...]:
        """All nodes on the ring, in sorted order."""
        return tuple(sorted(self._nodes, key=str))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes


def partition(
    documents: Sequence[Tuple[Hashable, str]], ring: HashRing
) -> Dict[str, List[Tuple[Hashable, str]]]:
    """Split ``[(id, source), ...]`` into per-node batches, preserving
    the submission order inside each batch."""
    batches: Dict[str, List[Tuple[Hashable, str]]] = {}
    for document_id, source in documents:
        batches.setdefault(ring.owner(document_id), []).append((document_id, source))
    return batches
