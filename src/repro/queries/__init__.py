"""Query evaluation over compressed graphs (paper section V).

The paper distinguishes *neighborhood queries* (traverse the compressed
graph edge by edge; any graph algorithm can run on top, with a
slow-down) and *speed-up queries* (evaluated in one pass through the
grammar, hence proportionally faster than on the decompressed graph).
Both families are implemented here — the paper describes them but
notes "the results in this section have not been implemented".

The front door for queries is :class:`repro.api.CompressedGraph`: one
long-lived handle whose lazily built, cached, thread-safe index
canonicalizes the grammar at most once per lifetime.
:class:`GrammarQueries` predates the facade and is kept as a
compatibility shim — constructing one wraps the grammar in a fresh
``CompressedGraph`` (eagerly building its index, matching the old
behavior) and delegates every query to it.
"""

from __future__ import annotations

from typing import List

from repro.core.grammar import SLHRGrammar
from repro.queries.cache import QueryCache
from repro.queries.components import ComponentQueries
from repro.queries.degrees import DegreeQueries
from repro.queries.index import GrammarIndex, GRepresentation
from repro.queries.neighborhood import NeighborhoodQueries
from repro.queries.reachability import ReachabilityQueries

__all__ = [
    "ComponentQueries",
    "DegreeQueries",
    "GRepresentation",
    "GrammarIndex",
    "GrammarQueries",
    "NeighborhoodQueries",
    "QueryCache",
    "ReachabilityQueries",
]


class GrammarQueries:
    """All query families over one grammar (compatibility shim).

    Deprecated front door: delegates to
    :class:`repro.api.CompressedGraph`, which new code should use
    directly (it adds persistence, batching and lazy index reuse).
    Node IDs refer to the deterministic numbering of ``val(G)`` — the
    same numbering :func:`repro.core.derive` produces for the
    canonical grammar, so answers can be checked against the
    decompressed graph directly.
    """

    def __init__(self, grammar: SLHRGrammar) -> None:
        from repro.api import CompressedGraph
        self._handle = CompressedGraph.from_grammar(grammar)
        # Legacy behavior was eager: expose the canonical grammar and
        # the index right away (this builds the handle's lazy index).
        self.grammar = self._handle.canonical_grammar
        self.index = self._handle.index

    # -- neighborhood ---------------------------------------------------
    def out_neighbors(self, node_id: int) -> List[int]:
        """Sorted out-neighbor IDs of ``node_id`` (paper's ``N+``)."""
        return self._handle.out_neighbors(node_id)

    def in_neighbors(self, node_id: int) -> List[int]:
        """Sorted in-neighbor IDs of ``node_id`` (paper's ``N-``)."""
        return self._handle.in_neighbors(node_id)

    def neighbors(self, node_id: int) -> List[int]:
        """Sorted undirected neighborhood ``N(v)``."""
        return self._handle.neighbors(node_id)

    # -- speed-up queries -------------------------------------------------
    def reachable(self, source_id: int, target_id: int) -> bool:
        """(s,t)-reachability in ``O(|G|)`` (Theorem 6)."""
        return self._handle.reachable(source_id, target_id)

    def connected_components(self) -> int:
        """Number of connected components of ``val(G)`` (CMSO-style)."""
        return self._handle.connected_components()

    def degrees(self) -> DegreeQueries:
        """Degree-extrema evaluator (CMSO function, one pass)."""
        return self._handle.degrees()

    def node_count(self) -> int:
        """``|val(G)|_V`` without decompressing."""
        return self._handle.node_count()

    def edge_count(self) -> int:
        """Terminal edge count of ``val(G)`` without decompressing."""
        return self._handle.edge_count()
