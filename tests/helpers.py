"""Shared graph helpers for the test suite."""

from __future__ import annotations

import random
from collections import deque
from typing import Tuple

import networkx as nx
from networkx.algorithms.isomorphism import categorical_multiedge_match

from repro import (
    Alphabet,
    CompressionResult,
    GRePair,
    GRePairSettings,
    Hypergraph,
    compress,
)
from repro.core.occurrences import BucketQueue, OccurrenceTable


def to_networkx(graph: Hypergraph) -> nx.MultiDiGraph:
    """Rank-<=2 hypergraph -> labeled networkx multidigraph.

    Rank-1 edges become self-loops; since attachment sequences are
    repetition-free, a genuine rank-2 self-loop cannot exist, so the
    encoding is injective and isomorphism checks stay exact.
    """
    result = nx.MultiDiGraph()
    result.add_nodes_from(graph.nodes())
    for _, edge in graph.edges():
        assert len(edge.att) <= 2, "to_networkx needs rank-<=2 edges"
        if len(edge.att) == 1:
            result.add_edge(edge.att[0], edge.att[0], label=edge.label)
        else:
            result.add_edge(edge.att[0], edge.att[1], label=edge.label)
    return result


def degree_label_fingerprint(graph: Hypergraph):
    """Per-node structural signature multiset (iso-invariant).

    Sound (equal for isomorphic graphs) but not complete — used where
    exact isomorphism checks would be too slow.  Each node contributes
    the sorted multisets of (label, position) pairs of its incident
    edges.
    """
    profile = []
    for node in graph.nodes():
        signature = []
        for eid in graph.incident(node):
            edge = graph.edge(eid)
            signature.append((edge.label, edge.att.index(node)))
        profile.append(tuple(sorted(signature)))
    return sorted(profile)


def isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    """Label-respecting isomorphism of two rank-2 hypergraphs."""
    return nx.is_isomorphic(
        to_networkx(a), to_networkx(b),
        edge_match=categorical_multiedge_match("label", None),
    )


def random_simple_graph(
    seed: int,
    num_nodes: int = 40,
    num_edges: int = 90,
    num_labels: int = 3,
) -> Tuple[Hypergraph, Alphabet]:
    """Seeded random labeled digraph (no self-loops, no duplicates)."""
    rng = random.Random(seed)
    alphabet = Alphabet()
    labels = [alphabet.add_terminal(2, f"L{i}") for i in range(num_labels)]
    graph = Hypergraph()
    for _ in range(num_nodes):
        graph.add_node()
    seen = set()
    attempts = 0
    while len(seen) < num_edges and attempts < 50 * num_edges:
        attempts += 1
        u = rng.randrange(1, num_nodes + 1)
        v = rng.randrange(1, num_nodes + 1)
        if u == v:
            continue
        label = rng.choice(labels)
        if (label, u, v) in seen:
            continue
        seen.add((label, u, v))
        graph.add_edge(label, (u, v))
    return graph, alphabet


def theta_graph(paths: int = 3) -> Tuple[Hypergraph, Alphabet]:
    """The paper's Figure 1 graph: parallel a-b paths between two nodes."""
    alphabet = Alphabet()
    a = alphabet.add_terminal(2, "a")
    b = alphabet.add_terminal(2, "b")
    graph = Hypergraph()
    source = graph.add_node()
    target = graph.add_node()
    for _ in range(paths):
        middle = graph.add_node()
        graph.add_edge(a, (source, middle))
        graph.add_edge(b, (middle, target))
    return graph, alphabet


def copies_graph(count: int = 16) -> Tuple[Hypergraph, Alphabet]:
    """Disjoint copies of a 4-node, 5-edge unit (Fig. 13 style)."""
    alphabet = Alphabet()
    a = alphabet.add_terminal(2, "a")
    b = alphabet.add_terminal(2, "b")
    graph = Hypergraph()
    for _ in range(count):
        base = [graph.add_node() for _ in range(4)]
        graph.add_edge(a, (base[0], base[1]))
        graph.add_edge(a, (base[1], base[2]))
        graph.add_edge(a, (base[2], base[3]))
        graph.add_edge(b, (base[3], base[0]))
        graph.add_edge(b, (base[0], base[2]))
    return graph, alphabet


def star_graph(spokes: int = 50) -> Tuple[Hypergraph, Alphabet]:
    """RDF-types-style star: leaves pointing at one hub."""
    alphabet = Alphabet()
    label = alphabet.add_terminal(2, "type")
    graph = Hypergraph()
    hub = graph.add_node()
    for _ in range(spokes):
        leaf = graph.add_node()
        graph.add_edge(label, (leaf, hub))
    return graph, alphabet


def truth_graph(handle):
    """networkx multidigraph of the handle's own ``val``, with label
    *names* on the edges (the ID space its answers live in)."""
    alphabet = handle.alphabet
    graph = to_networkx(handle.decompress())
    named = nx.MultiDiGraph()
    named.add_nodes_from(graph.nodes())
    for source, target, data in graph.edges(data=True):
        named.add_edge(source, target, name=alphabet.name(data["label"]))
    return named


def truth_rpq(graph, dfa, source, target,
              start=None, accepting=None):
    """Naive product-automaton BFS over a networkx truth graph."""
    start = dfa.start if start is None else start
    accepting = dfa.accepting if accepting is None else accepting
    if source == target and start in accepting:
        return True
    seen = {(source, start)}
    frontier = deque(seen)
    while frontier:
        node, state = frontier.popleft()
        if node not in graph:
            continue
        for _, successor, data in graph.out_edges(node, data=True):
            next_state = dfa.step_name(state, data["name"])
            if next_state is None:
                continue
            if successor == target and next_state in accepting:
                return True
            if (successor, next_state) not in seen:
                seen.add((successor, next_state))
                frontier.append((successor, next_state))
    return False


def exploding_build(*args, **kwargs):  # pragma: no cover
    """Patched over ``BoundaryClosure.build`` where a loaded closure
    must be used as is."""
    raise AssertionError("a persisted closure was rebuilt")


# ----------------------------------------------------------------------
# The full-recount oracle for the incremental gRePair engine
# ----------------------------------------------------------------------
class IncidenceGroups:
    """Pairing groups re-derived from the live incidence lists.

    Stands in for :class:`repro.core.occurrences.PairingIndex`: the
    same ``(label, position)`` grouping in the same order, read off
    the graph instead of maintained by deltas (so ``add``/``remove``
    have nothing to do).
    """

    def __init__(self, graph: Hypergraph) -> None:
        self._graph = graph

    def add(self, edge_id, edge) -> None:
        pass

    def remove(self, edge_id, edge) -> None:
        pass

    def groups_at(self, node):
        groups = {}
        for eid in self._graph.incident(node):
            edge = self._graph.edge(eid)
            groups.setdefault((edge.label, edge.att.index(node)),
                              []).append(eid)
        return sorted(groups.items())


class RecountGRePair(GRePair):
    """gRePair realigned by whole counting passes instead of settles.

    Each phase alternates a full counting pass over a fresh occurrence
    table with a drain, until a drain replaces nothing; every pass
    after a phase's first is a ``recount_passes`` tick.  Groups come
    from the incidence lists and no dirty region is ever settled, so
    the oracle shares only the counting and replacement steps with
    the engine it checks.
    """

    def _begin(self) -> None:
        super()._begin()
        self._index = IncidenceGroups(self.graph)

    def _restart_phase(self) -> None:
        self._phase_counted = False
        while True:
            table = OccurrenceTable()
            queue = BucketQueue(self.graph.num_edges)
            self._count_all(table, queue)
            progressed = self._drain_queue(table, queue)
            self._retire_queue(queue)
            self._dirty = {}
            if not progressed:
                return


def recount_compress(graph: Hypergraph, alphabet: Alphabet,
                     settings: GRePairSettings = None
                     ) -> CompressionResult:
    """:func:`repro.compress` through :class:`RecountGRePair`."""
    settings = settings or GRePairSettings()
    algorithm = RecountGRePair(
        graph.copy(), alphabet.copy(), max_rank=settings.max_rank,
        order=settings.order, seed=settings.seed,
        virtual_edges=settings.virtual_edges, prune=settings.prune)
    grammar = algorithm.run()
    grammar.validate()
    return CompressionResult(
        grammar=grammar, original_size=graph.total_size,
        original_edges=graph.num_edges, settings=settings,
        stats=algorithm.stats.as_dict(), stats_obj=algorithm.stats)


#: ``compress`` per engine name: the library's incremental engine and
#: the recount oracle above.
COMPRESSORS = {"incremental": compress, "recount": recount_compress}
