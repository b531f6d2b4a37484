"""Corpora and request lists — everything the program is fed.

Corpora come from the ``repro.datasets`` generators at their default
generator seeds, so sizes, ``bits_per_edge`` and every count repeat
exactly on every run.  ``--seed`` decides what is *asked* of them:
the order inputs are compressed in, the order a stream arrives in,
and every query endpoint.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.alphabet import Alphabet
from repro.core.hypergraph import Hypergraph
from repro.datasets.rdf import jamendo_graph
from repro.datasets.synthetic import (
    coauthorship_graph,
    communication_graph,
    copy_model_graph,
)
from repro.datasets.versions import (
    disjoint_union,
    fig13_base_graph,
    identical_copies,
)

Graph = Tuple[Hypergraph, Alphabet]
Request = Tuple[Any, ...]


def _n(base: int, scale: float) -> int:
    return max(2, round(base * scale))


#: One ~5k-edge graph per paper family; compression ratios span
#: 0.05 (version copies) to ~1 (copy model).
FAMILIES: Dict[str, Callable[[float], Graph]] = {
    "jamendo": lambda s: jamendo_graph(_n(115, s)),
    "communication": lambda s: communication_graph(_n(1700, s),
                                                   _n(5000, s)),
    "copy-model": lambda s: copy_model_graph(_n(1000, s)),
    "coauthorship": lambda s: coauthorship_graph(_n(500, s)),
    "version-copies": lambda s: identical_copies(fig13_base_graph(),
                                                 _n(1000, s)),
}

#: The family that is also ingested as a stream.
STREAMED = "communication"
STREAM_CHUNK = 500


def mix_graph(size: float) -> Graph:
    """``mix@size``: RDF templates + a hub network + a web-copy DAG.

    Eight RDF labels with template regularity (compressible, real
    RPQs), a hub-dominated network (expensive reach/path), a copy
    model DAG (near-incompressible).  ``mix@1`` is ~10.6k nodes /
    ~21k edges.
    """
    return disjoint_union([
        jamendo_graph(_n(180, size)),
        communication_graph(_n(2500, size), _n(7500, size)),
        copy_model_graph(_n(1200, size)),
    ])


def stream_chunks(graph: Hypergraph, rng: random.Random
                  ) -> List[List[Tuple[int, Tuple[int, ...]]]]:
    """The graph's edges in a seeded arrival order, 500 per chunk."""
    edges = [(edge.label, tuple(edge.att)) for _, edge in graph.edges()]
    rng.shuffle(edges)
    return [edges[start:start + STREAM_CHUNK]
            for start in range(0, len(edges), STREAM_CHUNK)]


#: RPQ patterns: two RDF chains, two network walks, one starred union.
PATTERNS = (
    "foaf:made mo:track",
    "foaf:made mo:track mo:publishedSignal",
    "edge+",
    "edge edge",
    "(foaf:made|mo:track)* dc:title",
)

#: The query mix, as shares of a request list.
KIND_SHARES = (
    ("out", 0.20), ("in", 0.10), ("neighborhood", 0.15),
    ("degree", 0.05), ("out_edges", 0.05), ("reach", 0.25),
    ("rpq", 0.15), ("path", 0.05),
)
KINDS = tuple(kind for kind, _ in KIND_SHARES)
_TWO_ENDPOINTS = frozenset({"reach", "rpq", "path"})

HOT_SET = 64
HOT_SHARE = 0.8


def node_order(derived: Hypergraph) -> List[int]:
    """Every node: weakly connected components contiguous (largest
    first), and within a component by out-degree.

    What a query costs depends first on where its endpoints fall: a
    hub network is not a forest of RDF templates, and within the hub
    network a node with no out-edge ends a search at once while one
    that reaches the core sweeps it.  Drawing endpoints by stratified
    sampling over this order gives every seed's list the same share of
    each region, so two seeds differ by which nodes they ask about,
    not by how many expensive ones they happened to hit (a 1,024
    request served list: 16 % spread over ten seeds by component
    alone, 4 % with out-degree as well).
    """
    leader = {node: node for node in derived.nodes()}
    out_degree = dict.fromkeys(leader, 0)

    def find(node: int) -> int:
        while leader[node] != node:
            leader[node] = leader[leader[node]]
            node = leader[node]
        return node

    for _, edge in derived.edges():
        out_degree[edge.att[0]] += 1
        first = find(edge.att[0])
        for other in edge.att[1:]:
            leader[find(other)] = first
    members: Dict[int, List[int]] = {}
    for node in sorted(leader):
        members.setdefault(find(node), []).append(node)
    return [node for _, group in sorted(
        members.items(), key=lambda item: (-len(item[1]), item[0]))
        for node in sorted(group, key=lambda node: (out_degree[node],
                                                    node))]


def stratified(rng: random.Random, count: int,
               population: Sequence[int]) -> List[int]:
    """``count`` draws, one from each equal slice of ``population``,
    in random order."""
    size = len(population)
    picks = [population[min(size - 1,
                            int((slot + rng.random()) * size / count))]
             for slot in range(count)]
    rng.shuffle(picks)
    return picks


def request_list(rng: random.Random, count: int, order: Sequence[int],
                 hot: Optional[Sequence[int]] = None) -> List[Request]:
    """``count`` requests in the fixed mix, endpoints from ``rng``.

    Kind counts are exact shares of ``count`` (RPQ patterns take
    equal turns) and each kind's endpoints are a stratified sample
    over ``order`` (see :func:`node_order`), so two seeds differ in
    which nodes they ask about and in what order — never in how many
    expensive kinds or regions they drew.  With ``hot`` given, 80 %
    of endpoints come from that set instead.
    """
    def endpoints(wanted: int) -> List[int]:
        picks = stratified(rng, wanted, order) if wanted else []
        if hot is not None:
            picks = [hot[rng.randrange(len(hot))]
                     if rng.random() < HOT_SHARE else node
                     for node in picks]
        return picks

    requests: List[Request] = []
    for kind, share in KIND_SHARES:
        # Each RPQ pattern is a stratum of its own: which part of the
        # graph a pattern is asked about decides what it costs.
        for prefix in ([(kind, pattern) for pattern in PATTERNS]
                       if kind == "rpq" else [(kind,)]):
            wanted = round(share * count / (len(PATTERNS)
                                            if kind == "rpq" else 1))
            sources = endpoints(wanted)
            if kind in _TWO_ENDPOINTS:
                requests += [(*prefix, s, t) for s, t
                             in zip(sources, endpoints(wanted))]
            else:
                requests += [(*prefix, node) for node in sources]
    requests += [("out", node)   # rounding shortfall, if any
                 for node in endpoints(max(0, count - len(requests)))]
    del requests[count:]
    rng.shuffle(requests)
    return requests


def chunked(requests: Sequence[Request], size: int
            ) -> List[List[Request]]:
    return [list(requests[start:start + size])
            for start in range(0, len(requests), size)]
