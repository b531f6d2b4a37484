#!/usr/bin/env python3
"""Quickstart: one handle for compress, persist, derive and query.

Walks through the public API on the paper's own running example
(Figure 1): a "theta graph" of three parallel a-b paths.  gRePair
discovers the repeated a-b digram, produces the grammar

    S = A A A        (three parallel nonterminal edges)
    A -> o -a-> o -b-> o    (endpoints external, middle internal)

and the binary container stores S as per-label k2-trees plus the rule
as a delta-coded edge list.

The front door is :class:`repro.CompressedGraph` — a long-lived,
thread-safe handle the way production stores expose one ``DB`` object.
Every query has one spelling (``out``, ``in_``, ``reach``,
``components``, ...), shared by the sharded handle and the socket
client.  The older free functions (``compress``, ``derive``) still
work as compatibility shims delegating to the facade.

Run:  python examples/quickstart.py
"""

from repro import (
    Alphabet,
    CompressedGraph,
    GRePairSettings,
    Hypergraph,
    ShardedCompressedGraph,
)


def build_theta_graph():
    """Three parallel a-b paths between one source and one target."""
    alphabet = Alphabet()
    a = alphabet.add_terminal(rank=2, name="a")
    b = alphabet.add_terminal(rank=2, name="b")
    graph = Hypergraph()
    source = graph.add_node()
    target = graph.add_node()
    for _ in range(3):
        middle = graph.add_node()
        graph.add_edge(a, (source, middle))
        graph.add_edge(b, (middle, target))
    return graph, alphabet


def main():
    graph, alphabet = build_theta_graph()
    print(f"input graph: {graph!r}")

    # ------------------------------------------------------------------
    # 1. Compress into a handle.  Settings default to the paper's
    #    recommendation (maxRank=4, FP node order, virtual edges,
    #    pruning); they validate eagerly, so typos fail right here.
    # ------------------------------------------------------------------
    handle = CompressedGraph.compress(graph, alphabet,
                                      GRePairSettings(order="natural"))
    grammar = handle.grammar
    print(f"compressed:  {handle.summary()}")
    for rule in grammar.rules():
        edges = [(alphabet.describe(e.label), e.att)
                 for _, e in rule.rhs.edges()]
        print(f"  rule N{rule.lhs} (rank {rule.rhs.rank}): {edges}")

    # ------------------------------------------------------------------
    # 2. Persist.  The handle serializes to the paper's binary format;
    #    `sizes` breaks the container down by section, loaded or not.
    # ------------------------------------------------------------------
    blob = handle.to_bytes()
    print(f"container:   {len(blob)} bytes, sections {handle.sizes}")
    restored = CompressedGraph.from_bytes(blob)
    print(f"restored:    {restored!r}")

    # ------------------------------------------------------------------
    # 3. Decompress (derive) — node IDs are deterministic and match
    #    the IDs the query family answers with.
    # ------------------------------------------------------------------
    derived = restored.decompress()
    print(f"derived:     {derived!r} "
          f"(expected {graph.node_size} nodes, {graph.num_edges} edges)")
    assert derived.node_size == graph.node_size
    assert derived.num_edges == graph.num_edges

    # ------------------------------------------------------------------
    # 4. Query without decompressing (paper section V).  The index
    #    behind these is built lazily on first use and cached for the
    #    handle's lifetime — exactly one canonicalization pass, even
    #    under concurrent query threads.
    # ------------------------------------------------------------------
    print(f"node count (from grammar):  {restored.node_count()}")
    print(f"edge count (from grammar):  {restored.edge_count()}")
    print(f"components (from grammar):  {restored.components()}")
    print(f"out-neighbors of node 1:    {restored.out(1)}")
    print(f"reachable 1 -> 2?           {restored.reach(1, 2)}")
    print(f"reachable 2 -> 1?           {restored.reach(2, 1)}")
    print(f"shortest path 1 -> 2:       {restored.path(1, 2)}")
    print(f"canonicalization passes:    {restored.canonicalizations}")

    # ------------------------------------------------------------------
    # 5. Batched queries: a serving loop hands the handle many queries
    #    at once; all of them run against the single cached index.
    # ------------------------------------------------------------------
    answers = restored.batch([
        ("reach", 1, 2),
        ("out", 1),
        ("degree", 1),
        ("components",),
        ("path", 1, 2),
    ])
    print(f"batch answers:              {answers}")

    # ------------------------------------------------------------------
    # 6. The engine.  gRePair maintains the digram occurrence lists
    #    and the bucket priority queue purely by local deltas: after
    #    one counting pass per phase (the main loop, then the
    #    virtual-edge pass) it never re-counts the graph.
    # ------------------------------------------------------------------
    print(f"engine:             |G|={handle.grammar.size}, "
          f"passes={handle.stats['passes']}, "
          f"re-counts={handle.stats['recount_passes']}")
    assert handle.stats["recount_passes"] == 0

    # ------------------------------------------------------------------
    # 7. Streaming compression.  Edges can be fed in chunks; the
    #    incremental state is reused across chunks, so no chunk ever
    #    triggers a re-count of the accumulated graph.
    # ------------------------------------------------------------------
    chunk = [(edge.label, edge.att) for _, edge in graph.edges()]
    streamed = CompressedGraph.from_stream(
        [chunk[:len(chunk) // 2], chunk[len(chunk) // 2:]],
        alphabet,
        GRePairSettings(order="natural"),
    )
    print(f"streamed grammar:   |G|={streamed.grammar.size} "
          f"(counting passes: {streamed.stats['passes']})")
    assert streamed.edge_count() == graph.num_edges

    # ------------------------------------------------------------------
    # 8. The query-result LRU.  Every handle memoizes answers keyed by
    #    the batch wire format; hits/misses sit next to the
    #    canonicalization counter for serving dashboards.
    # ------------------------------------------------------------------
    restored.out(1)                      # repeat of step 4: a hit
    info = restored.cache_info
    print(f"query cache:        {info['hits']} hits / "
          f"{info['misses']} misses (capacity {info['capacity']})")

    # ------------------------------------------------------------------
    # 9. Sharded serving.  A graph too large for one grammar is
    #    partitioned across per-shard grammars behind the same API;
    #    queries route to the owning shard and merge across the
    #    boundary summary.  parallel=True plans a batch: dedupe, group
    #    per shard, fan out across threads.
    # ------------------------------------------------------------------
    sharded = ShardedCompressedGraph.compress(graph, alphabet,
                                              shards=2)
    print(f"sharded:            {sharded.summary()}")
    assert sharded.node_count() == graph.node_size
    assert sharded.edge_count() == graph.num_edges
    assert sharded.components() == restored.components()
    assert sharded.degree() == restored.degree()
    answers = sharded.batch(
        [("out", node) for node in range(1, sharded.node_count() + 1)]
        + [("components",), ("degree",)],
        parallel=True,
    )
    print(f"sharded batch:      {len(answers)} answers "
          f"(parallel plan over {sharded.num_shards} shards)")

    # Sharded persistence: one multi-shard container, same open() shape.
    sharded_blob = sharded.to_bytes()
    served = ShardedCompressedGraph.from_bytes(sharded_blob)
    assert served.components() == sharded.components()
    print(f"sharded container:  {len(sharded_blob)} bytes "
          f"({len(served.sizes)} sections)")
    print("quickstart OK")


if __name__ == "__main__":
    main()
