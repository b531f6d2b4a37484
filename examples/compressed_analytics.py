#!/usr/bin/env python3
"""Analytics on the compressed graph: the paper's §V promise in action.

"Using [neighborhood queries], any arbitrary graph algorithm can be
performed on the compressed representation."  This example compresses
an RDF-style dataset once, then answers an analytics mix *without ever
decompressing*:

* one-pass CMSO functions (node/edge counts, components, degree
  extrema) — these are *faster* than on the raw graph,
* traversal kernels (BFS distances, shortest paths, degree histogram)
  built on Prop.-4 neighborhoods,
* a label-constrained regular path query (the paper's named future
  work, implemented here via DFA-product skeletons),
* the same analytics mix served from a *sharded* handle — the graph
  partitioned across per-shard grammars, answers identical, and a
  parallel planned batch for the serving loop.

Run:  python examples/compressed_analytics.py
"""

import random

from repro import CompressedGraph, ShardedCompressedGraph
from repro.datasets.rdf import jamendo_graph
from repro.queries.paths import LabelDFA, RegularPathQueries
from repro.queries.traversal import bfs_distances, degree_histogram, \
    shortest_path


def main():
    graph, alphabet = jamendo_graph(artists=120, seed=3)
    queries = CompressedGraph.compress(graph, alphabet, validate=False)
    blob = queries.to_bytes(include_names=False)
    print(f"dataset: {graph.node_size} nodes, {graph.num_edges} "
          f"triples")
    print(f"compressed to {len(blob)} bytes "
          f"({queries.bits_per_edge(graph.num_edges):.2f} bpe), "
          f"{queries.grammar.num_rules} rules\n")

    # --- one-pass speed-up queries -----------------------------------
    print("speed-up queries (one pass over the grammar):")
    print(f"  nodes:      {queries.node_count()}")
    print(f"  edges:      {queries.edge_count()}")
    print(f"  components: {queries.components()}")
    degrees = queries.degree()
    print(f"  max out-degree: {degrees['max_out']}")
    print(f"  max in-degree:  {degrees['max_in']}\n")

    # --- neighborhood-based traversal --------------------------------
    print("traversal kernels (neighborhood queries, Prop. 4):")
    source = next(node for node in range(1, queries.node_count() + 1)
                  if len(queries.out(node)) >= 2)
    distances = bfs_distances(queries, source, max_hops=3)
    print(f"  nodes within 3 hops of node {source}: {len(distances)}")
    far = max(distances, key=distances.get)
    path = shortest_path(queries, source, far)
    print(f"  a shortest path {source} -> {far}: {path}")
    histogram = degree_histogram(queries)
    top = sorted(histogram.items())[-3:]
    print(f"  out-degree histogram tail: {top}\n")

    # --- regular path query ------------------------------------------
    made = alphabet.by_name("foaf:made")
    track = alphabet.by_name("mo:track")
    dfa = LabelDFA.word([made, track])  # artist -made-> record -track->
    rpq = RegularPathQueries(queries.index, dfa)
    hits = 0
    probes = 0
    # Probe exactly the 2-hop chains the neighborhoods expose; the RPQ
    # engine then certifies which chains spell made . track.
    for source_id in range(1, queries.node_count() + 1):
        if probes >= 4000 or hits >= 25:
            break
        for middle in queries.out(source_id):
            for target in queries.out(middle):
                probes += 1
                if rpq.matches(source_id, target):
                    hits += 1
    print("regular path query artist -foaf:made-> record "
          "-mo:track-> track:")
    print(f"  {hits} certified matches among {probes} probed "
          f"2-hop chains")
    assert hits > 0

    # --- sharded + parallel serving ----------------------------------
    print("\nsharded serving (same answers, 4 per-shard grammars):")
    sharded = ShardedCompressedGraph.compress(graph, alphabet,
                                              shards=4,
                                              validate=False)
    print(f"  {sharded.summary()}")
    assert sharded.node_count() == queries.node_count()
    assert sharded.edge_count() == queries.edge_count()
    assert sharded.components() == queries.components()
    assert sharded.degree() == degrees

    # A serving loop: one skewed batch, planned and fanned out.
    rng = random.Random(9)
    hot = [rng.randint(1, sharded.node_count()) for _ in range(16)]
    requests = []
    for _ in range(400):
        kind = rng.choice(("out", "in", "neighborhood", "reach"))
        if kind == "reach":
            requests.append((kind, rng.choice(hot), rng.choice(hot)))
        else:
            requests.append((kind, rng.choice(hot)))
    planned = sharded.batch(requests, parallel=True)
    assert planned == sharded.batch(requests)
    reachable_count = sum(
        1 for request, answer in zip(requests, planned)
        if request[0] == "reach" and answer)
    print(f"  served {len(requests)} planned queries "
          f"({reachable_count} reachable pairs), "
          f"boundary edges: {sharded.boundary_edge_count}")
    print("compressed-analytics example OK")


if __name__ == "__main__":
    main()
