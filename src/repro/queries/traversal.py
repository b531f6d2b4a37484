"""Graph algorithms running directly on the compressed representation.

Paper section V: "Using [neighborhood queries], any arbitrary graph
algorithm can be performed on the compressed representation given by
an SL-HR grammar" — at the price of a slow-down per edge traversal.
This module provides the standard traversals as library functions so
downstream users do not have to re-derive them:

* :func:`bfs_distances` — single-source hop distances,
* :func:`shortest_path` — an actual node path (BFS parents),
* :func:`degree_histogram` — out-degree distribution,
* :func:`count_triangles` — directed triangle count (a classic
  neighborhood-only analytics kernel).

All operate purely through the ``out`` neighbourhoods of a
:class:`~repro.serving.protocol.GraphService` — a local handle, a
sharded one or a client; none materialize ``val(G)``.

Frontier bookkeeping uses flat ``bytearray`` visited rows indexed by
node ID (IDs are dense, ``1..node_count``) instead of hashed sets —
membership is one byte load, and the row is allocated once per
traversal.  Results are unchanged.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.exceptions import QueryError

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.serving.protocol import GraphService


def bfs_distances(queries: "GraphService", source: int,
                  max_hops: Optional[int] = None) -> Dict[int, int]:
    """Hop distances from ``source`` along directed edges."""
    total = queries.node_count()
    if not 1 <= source <= total:
        raise QueryError(f"source {source} out of range 1..{total}")
    distances = {source: 0}
    seen = bytearray(total + 1)
    seen[source] = 1
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        depth = distances[node]
        if max_hops is not None and depth >= max_hops:
            continue
        for succ in queries.out(node):
            if not seen[succ]:
                seen[succ] = 1
                distances[succ] = depth + 1
                frontier.append(succ)
    return distances


def shortest_path(queries: "GraphService", source: int,
                  target: int) -> Optional[List[int]]:
    """A shortest directed path (as node IDs), or None."""
    total = queries.node_count()
    for endpoint in (source, target):
        if not 1 <= endpoint <= total:
            raise QueryError(f"node {endpoint} out of range 1..{total}")
    if source == target:
        return [source]
    parents: Dict[int, int] = {source: source}
    seen = bytearray(total + 1)
    seen[source] = 1
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for succ in queries.out(node):
            if seen[succ]:
                continue
            seen[succ] = 1
            parents[succ] = node
            if succ == target:
                path = [target]
                while path[-1] != source:
                    path.append(parents[path[-1]])
                return list(reversed(path))
            frontier.append(succ)
    return None


def degree_histogram(queries: "GraphService") -> Counter:
    """Out-degree -> node count over all of ``val(G)``."""
    histogram: Counter = Counter()
    for node in range(1, queries.node_count() + 1):
        histogram[len(queries.out(node))] += 1
    return histogram


def count_triangles(queries: "GraphService") -> int:
    """Number of directed triangles u -> v -> w -> u."""
    triangles = 0
    total = queries.node_count()
    for u in range(1, total + 1):
        for v in queries.out(u):
            for w in queries.out(v):
                if w != u and u in queries.out(w):
                    triangles += 1
    return triangles // 3
