"""Occurrence bookkeeping for gRePair.

This module provides the data structures of section III-C1 of the paper:

* per-digram occurrence lists (insertion-ordered; the paper uses doubly
  linked lists, a Python dict gives the same O(1) insert/delete and
  deterministic iteration),
* a per-edge registry implementing the paper's counting discipline: for
  labels σ1, σ2, ``E_{σ1,σ2}(v)`` holds edges labeled σ1 *not yet
  counted in an occurrence with an edge labeled σ2* — i.e. an edge may
  belong to occurrences of several digrams, but at most one occurrence
  per partner label.  Occurrences of one digram are therefore pairwise
  edge-disjoint (both labels equal), while occurrences of different
  digrams may share an edge and are invalidated lazily when it is
  consumed,
* a bucket priority queue of length ``ceil(sqrt(n))`` following Larsson
  and Moffat [15]: bucket ``i`` holds digrams with ``i`` occurrences,
  the last bucket holds everything with at least ``sqrt(n)``,
* a :class:`PairingIndex` — the per-node pairing state of the paper's
  ``E_{σ1,σ2}(v)`` lists, kept as incident edges grouped by ``(label,
  position of v)``.  The incremental engine maintains it under deltas
  (edge insertions/removals) so that re-pairing a freed or fresh edge is
  a local group scan instead of a global counting pass.

Deletions are lazy: a recorded occurrence may become stale when a
replacement deletes one of its edges or changes the externality of its
nodes (its true digram key changed).  The gRePair loop revalidates every
occurrence immediately before using it, so stale entries never cause an
incorrect replacement.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.digram import DigramKey, Occurrence
from repro.core.hypergraph import Edge, Hypergraph


class OccurrenceList:
    """Insertion-ordered set of occurrences for one digram."""

    __slots__ = ("key", "_occurrences", "bucket")

    def __init__(self, key: DigramKey) -> None:
        self.key = key
        self._occurrences: Dict[Occurrence, None] = {}
        #: Current bucket index in the priority queue, or None.
        self.bucket: Optional[int] = None

    def __len__(self) -> int:
        return len(self._occurrences)

    def __iter__(self) -> Iterator[Occurrence]:
        return iter(self._occurrences)

    def add(self, occ: Occurrence) -> None:
        """Record an occurrence (idempotent)."""
        self._occurrences[occ] = None

    def discard(self, occ: Occurrence) -> None:
        """Remove an occurrence if present."""
        self._occurrences.pop(occ, None)


class OccurrenceTable:
    """All active digrams and the per-edge counting discipline."""

    def __init__(self) -> None:
        self._lists: Dict[DigramKey, OccurrenceList] = {}
        # edge ID -> occurrences containing it (across digrams)
        self._edge_occs: Dict[int, Dict[Tuple[DigramKey, Occurrence],
                                        None]] = {}
        # edge ID -> partner labels it is already counted with
        self._partners: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._lists)

    def __contains__(self, key: DigramKey) -> bool:
        return key in self._lists

    def get(self, key: DigramKey) -> Optional[OccurrenceList]:
        """The occurrence list of ``key`` or None."""
        return self._lists.get(key)

    def list_for(self, key: DigramKey) -> OccurrenceList:
        """The occurrence list of ``key``, created on demand."""
        existing = self._lists.get(key)
        if existing is None:
            existing = OccurrenceList(key)
            self._lists[key] = existing
        return existing

    def keys(self) -> List[DigramKey]:
        """All digram keys currently tracked."""
        return list(self._lists)

    def can_pair(self, edge_id: int, partner_label: int) -> bool:
        """True if ``edge_id`` may join an occurrence with that label."""
        partners = self._partners.get(edge_id)
        return partners is None or partner_label not in partners

    def occurrences_of_edge(
        self, edge_id: int
    ) -> List[Tuple[DigramKey, Occurrence]]:
        """Snapshot of the occurrences containing ``edge_id``."""
        entry = self._edge_occs.get(edge_id)
        return list(entry) if entry else []

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def record(self, key: DigramKey, occ: Occurrence) -> OccurrenceList:
        """Record ``occ`` under ``key`` and register partner labels.

        The caller must have checked :meth:`can_pair` in both
        directions; this method enforces it with assertions (cheap and
        catches discipline violations during development).
        """
        assert self.can_pair(occ.edge_a, key.label_b), (key, occ)
        assert self.can_pair(occ.edge_b, key.label_a), (key, occ)
        olist = self.list_for(key)
        olist.add(occ)
        handle = (key, occ)
        self._edge_occs.setdefault(occ.edge_a, {})[handle] = None
        self._edge_occs.setdefault(occ.edge_b, {})[handle] = None
        self._partners.setdefault(occ.edge_a, set()).add(key.label_b)
        self._partners.setdefault(occ.edge_b, set()).add(key.label_a)
        return olist

    def release(self, key: DigramKey, occ: Occurrence) -> None:
        """Drop one occurrence, freeing both edges' partner slots."""
        olist = self._lists.get(key)
        if olist is not None:
            olist.discard(occ)
        handle = (key, occ)
        for edge_id, partner in ((occ.edge_a, key.label_b),
                                 (occ.edge_b, key.label_a)):
            entry = self._edge_occs.get(edge_id)
            if entry is not None:
                entry.pop(handle, None)
                if not entry:
                    del self._edge_occs[edge_id]
            partners = self._partners.get(edge_id)
            if partners is not None:
                partners.discard(partner)
                if not partners:
                    del self._partners[edge_id]

    def release_edge(self, edge_id: int) -> List[DigramKey]:
        """Release every occurrence containing ``edge_id``.

        Returns the affected digram keys (for queue re-filing).  Called
        when an edge is consumed by a replacement: all other recorded
        occurrences using it become invalid (paper section III-A2,
        "reduce the count of every digram for which {e_i, e} appears in
        an existing occurrence list").
        """
        affected = []
        for key, occ in self.occurrences_of_edge(edge_id):
            self.release(key, occ)
            affected.append(key)
        return affected

    def drop_list(self, key: DigramKey) -> None:
        """Remove a digram entirely, releasing all its occurrences."""
        olist = self._lists.get(key)
        if olist is None:
            return
        for occ in list(olist):
            self.release(key, occ)
        del self._lists[key]


class PairingIndex:
    """Per-node incident edges grouped by ``(label, position)``.

    This is the delta-maintainable form of the paper's per-node edge
    lists: ``group(v, σ, p)`` holds (in insertion order) the edges
    labeled ``σ`` whose attachment has ``v`` at position ``p``.  The
    incremental engine consults it to offer a fresh or freed edge new
    partners without re-scanning the whole graph; the engine owns every
    graph mutation and mirrors it here via :meth:`add` / :meth:`remove`.
    """

    __slots__ = ("_groups",)

    def __init__(self) -> None:
        # node -> (label, position) -> insertion-ordered edge-ID set
        self._groups: Dict[int, Dict[Tuple[int, int],
                                     Dict[int, None]]] = {}

    @classmethod
    def from_graph(cls, graph: Hypergraph) -> "PairingIndex":
        """Index every edge of ``graph`` (one-time O(|E|) build)."""
        index = cls()
        for eid, edge in graph.edges():
            index.add(eid, edge)
        return index

    def add(self, edge_id: int, edge: Edge) -> None:
        """Register a newly inserted edge."""
        for pos, node in enumerate(edge.att):
            self._groups.setdefault(node, {}).setdefault(
                (edge.label, pos), {})[edge_id] = None

    def remove(self, edge_id: int, edge: Edge) -> None:
        """Unregister a deleted edge (pass the edge as it was)."""
        for pos, node in enumerate(edge.att):
            node_groups = self._groups.get(node)
            if node_groups is None:
                continue
            group = node_groups.get((edge.label, pos))
            if group is not None:
                group.pop(edge_id, None)
                if not group:
                    del node_groups[(edge.label, pos)]
            if not node_groups:
                del self._groups[node]

    def groups_at(
        self, node: int
    ) -> List[Tuple[Tuple[int, int], List[int]]]:
        """Snapshot of the groups at ``node``, sorted by (label, pos).

        The sort makes pairing deterministic and mirrors the sorted
        group traversal of the full counting pass.
        """
        node_groups = self._groups.get(node)
        if not node_groups:
            return []
        return [(key, list(group))
                for key, group in sorted(node_groups.items())]

    def group_size(self, node: int, label: int, pos: int) -> int:
        """Number of indexed edges in one group (0 if absent)."""
        node_groups = self._groups.get(node)
        if not node_groups:
            return 0
        return len(node_groups.get((label, pos), ()))


class BucketQueue:
    """Larsson–Moffat frequency buckets over digram lists.

    Buckets ``2 .. top`` hold digrams by occurrence count; the last
    bucket holds every digram with at least ``top`` occurrences, where
    ``top = max(2, floor(sqrt(num_edges)))`` as in RePair [15].
    Digrams with fewer than two occurrences are not queued (a digram is
    *active* only with two or more non-overlapping occurrences).
    """

    def __init__(self, num_edges: int) -> None:
        self._top = max(2, math.isqrt(max(1, num_edges)))
        self._buckets: List[Dict[DigramKey, None]] = [
            {} for _ in range(self._top + 1)
        ]
        # Per-bucket min-heaps over the keys, with lazy deletion: every
        # membership insert pushes an entry, so a key present in the
        # bucket dict always has at least one heap entry, and entries
        # whose key left the bucket are skipped at pop time.  This
        # keeps the canonical smallest-key pop order at O(log n) per
        # operation instead of scanning the bucket.
        self._heaps: List[List[DigramKey]] = [
            [] for _ in range(self._top + 1)
        ]
        self._highest = 0
        #: Instrumentation: queue repositions (insert/move/evict) and
        #: successful pops, read by :class:`repro.core.repair.GRePair`.
        self.push_count = 0
        self.pop_count = 0

    def file(self, olist: OccurrenceList) -> None:
        """Insert or reposition ``olist`` according to its length."""
        desired: Optional[int]
        if len(olist) >= 2:
            desired = min(len(olist), self._top)
        else:
            desired = None
        if olist.bucket == desired:
            return
        self.push_count += 1
        if olist.bucket is not None:
            self._buckets[olist.bucket].pop(olist.key, None)
        olist.bucket = desired
        if desired is not None:
            self._buckets[desired][olist.key] = None
            heapq.heappush(self._heaps[desired], olist.key)
            if desired > self._highest:
                self._highest = desired

    def remove(self, olist: OccurrenceList) -> None:
        """Drop ``olist`` from the queue if present."""
        if olist.bucket is not None:
            self._buckets[olist.bucket].pop(olist.key, None)
            olist.bucket = None
            self.push_count += 1

    def resize(self, num_edges: int,
               table: Optional["OccurrenceTable"] = None) -> None:
        """Grow the bucket range to match a larger edge count.

        Streaming compression ingests edges after the queue exists; a
        larger graph warrants a finer frequency resolution (top bucket
        ``sqrt(n)``).  Queued digrams are re-filed into the new buckets
        — by their true list length when ``table`` is supplied (lists
        clamped into the old top bucket spread out again), else at their
        previous level.  Shrinking is never needed (a coarse top bucket
        stays correct).
        """
        top = max(2, math.isqrt(max(1, num_edges)))
        if top <= self._top:
            return
        old_buckets = self._buckets
        self._top = top
        self._buckets = [{} for _ in range(top + 1)]
        self._heaps = [[] for _ in range(top + 1)]
        self._highest = 0
        for level, bucket in enumerate(old_buckets):
            for key in bucket:
                dest = level
                olist = table.get(key) if table is not None else None
                if olist is not None:
                    dest = min(max(len(olist), 2), top)
                    olist.bucket = dest
                self._buckets[dest][key] = None
                heapq.heappush(self._heaps[dest], key)
                if dest > self._highest:
                    self._highest = dest

    def pop_most_frequent(self) -> Optional[DigramKey]:
        """Remove and return a digram from the highest non-empty bucket.

        Count ties are broken by the canonical (lexicographically
        smallest) digram key — a content-based order, so runs with
        different maintenance histories pop identically and stay
        differentially comparable.  The caller owns the popped list and
        must clear its ``bucket`` field (or re-``file`` it) before
        touching the queue again.
        """
        level = min(self._highest, self._top)
        while level >= 2:
            bucket = self._buckets[level]
            if bucket:
                heap = self._heaps[level]
                while True:
                    key = heapq.heappop(heap)
                    if key in bucket:
                        break
                del bucket[key]
                self._highest = level
                self.pop_count += 1
                return key
            level -= 1
        self._highest = 0
        return None

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets)
