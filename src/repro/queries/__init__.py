"""Query evaluation over compressed graphs (paper section V).

The paper distinguishes *neighborhood queries* (traverse the compressed
graph edge by edge; any graph algorithm can run on top, with a
slow-down) and *speed-up queries* (evaluated in one pass through the
grammar, hence proportionally faster than on the decompressed graph).
Both families are implemented here — the paper describes them but
notes "the results in this section have not been implemented".

The front door for queries is :class:`repro.api.CompressedGraph`
(``CompressedGraph.from_grammar`` wraps an existing grammar): one
long-lived handle whose lazily built, cached, thread-safe index
canonicalizes the grammar at most once per lifetime.  The evaluators
here are its building blocks.
"""

from __future__ import annotations

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
    "NeighborhoodQueries",
    "QueryCache",
    "ReachabilityQueries",
]
