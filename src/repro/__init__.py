"""repro — grammar-based graph compression (gRePair).

A faithful, self-contained reproduction of

    Sebastian Maneth and Fabian Peternek,
    "Compressing Graphs by Grammars", ICDE 2016.

Public API highlights
---------------------
``CompressedGraph``
    The serving-grade front door: one long-lived handle unifying
    compress (``CompressedGraph.compress`` / ``.from_stream``),
    persistence (``.save`` / ``.open`` / ``.to_bytes`` /
    ``.from_bytes``), derivation (``.decompress``) and the full
    section-V query family (``reach``, ``out``, ``in_``,
    ``neighborhood``, ``components``, ``degree``, ``path``, plus
    ``batch`` for serving loops — ``batch(..., parallel=True)`` plans
    and fans a batch out) over one lazily built, cached, thread-safe
    index, fronted by a per-handle query-result LRU
    (``handle.cache_info``).
``ShardedCompressedGraph``
    The same interface over ``k`` per-shard grammars for graphs too
    large for one compression run: pluggable partitioners (``hash``,
    ``connectivity``, and the edge-cut minimizing ``bfs`` / ``label``
    from :mod:`repro.partition`), shard builds fanned out over
    threads or forked processes (``parallel="thread"|"process"``),
    per-node queries routed to the owning shard, cross-shard ``reach``
    planned per query (boundary transitive closure / batched chaining
    / merged BFS, chosen by a cost model) and a multi-shard container
    format that persists a warmed closure (``open_compressed``
    dispatches on the file magic).
``repro.serving`` (``serve`` / ``connect`` / the executors)
    The typed query protocol: ``QueryRequest``/``QueryResult`` with
    per-request errors (``handle.execute(...)``), two executors
    (``InlineExecutor``, ``ThreadExecutor``), and the socket
    deployment — ``serve()`` runs one process per shard behind a
    router speaking length-prefixed JSON frames; ``connect()`` is the
    client.
``repro.rpq`` (``compile_pattern`` / ``PatternDFA``)
    Regular path queries over the compressed form: a regex over edge
    labels compiles to a canonical minimized DFA, evaluated via
    memoized product skeletons (``handle.rpq(pattern, s, t)``),
    with grammar-level pattern counting (``handle.pattern_count``)
    riding the same pass family.  Sharded handles plan each RPQ
    (per-pattern boundary closure / chaining / BFS) and persist
    warmed closures in the container.
``Hypergraph`` / ``Alphabet``
    The directed edge-labeled hypergraph data model.
``GRePairSettings`` / ``CompressionResult``
    Algorithm parameters (validated eagerly) and per-run statistics.
    Occurrences are maintained incrementally: after one counting pass
    per phase, no full re-count pass runs (``recount_passes == 0``).

Compatibility shims (predating the facade, delegating to it)
------------------------------------------------------------
``compress``
    Run the compressor and return only the ``CompressionResult``.
``derive`` / ``StreamingCompressor`` / ``encode_grammar`` /
``decode_grammar``
    The underlying building blocks, still exported for direct use.

See ``examples/quickstart.py`` for a tour.
"""

from repro.api import CompressedGraph
from repro.rpq import PatternDFA, compile_pattern
from repro.sharding import ShardedCompressedGraph, open_compressed
from repro.serving import (
    GraphClient,
    GraphServer,
    InlineExecutor,
    QueryKind,
    QueryRequest,
    QueryResult,
    ThreadExecutor,
    connect,
    serve,
)
from repro.core import (
    Alphabet,
    CompressionResult,
    CompressionStats,
    Edge,
    GRePair,
    GRePairSettings,
    Hypergraph,
    Rule,
    SLHRGrammar,
    StreamingCompressor,
    compress,
    derive,
    fp_equivalence_classes,
    node_order,
)

__version__ = "1.5.0"

__all__ = [
    "Alphabet",
    "CompressedGraph",
    "CompressionResult",
    "CompressionStats",
    "Edge",
    "GRePair",
    "GRePairSettings",
    "GraphClient",
    "GraphServer",
    "Hypergraph",
    "InlineExecutor",
    "PatternDFA",
    "QueryKind",
    "QueryRequest",
    "QueryResult",
    "Rule",
    "SLHRGrammar",
    "ShardedCompressedGraph",
    "StreamingCompressor",
    "ThreadExecutor",
    "compile_pattern",
    "compress",
    "connect",
    "derive",
    "fp_equivalence_classes",
    "node_order",
    "open_compressed",
    "serve",
    "__version__",
]
