"""The answers the program should have given, from networkx.

Truth is always the measured handle's *own* ``decompress()`` — the
node numbering its answers live in — viewed through networkx.  All
checking happens after timing.

``reach`` and ``rpq`` are answered for every pair at once: networkx
condenses the (product) graph into its DAG of strongly connected
components and one sweep in reverse topological order ORs together
integer bit-rows, so checking ten thousand answers costs no more than
checking ten.  ``rpq`` runs that sweep over the product of the graph
with the pattern's DFA — the product-automaton search, for all
sources at once.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Hashable, Iterable, List, Sequence, Tuple

from repro import compile_pattern
from repro.core.alphabet import Alphabet
from repro.core.hypergraph import Hypergraph

from fixtures import Graph


class Failure:
    """Stands in for the answer of a request that raised."""

    def __init__(self, error: object) -> None:
        self.error = repr(error)

    def __eq__(self, other: object) -> bool:
        return False   # an error never matches anything, itself included

    def __repr__(self) -> str:
        return f"Failure({self.error})"


def _reachable_bits(edges: Iterable[Tuple[Hashable, Hashable]],
                    own: Dict[Hashable, int]) -> Dict[Hashable, int]:
    """Per node: OR of ``own`` over everything reachable from it.

    ``own`` names every node; a node reaches itself.
    """
    # Imported here, not at the top: the workloads read their peak
    # memory before any checking starts, and that reading should be
    # the program's, not networkx's.
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(own)
    graph.add_edges_from(edges)
    dag = nx.condensation(graph)
    bits: Dict[int, int] = {}
    for component in reversed(list(nx.topological_sort(dag))):
        row = 0
        for member in dag.nodes[component]["members"]:
            row |= own[member]
        for successor in dag.successors(component):
            row |= bits[successor]
        bits[component] = row
    mapping = dag.graph["mapping"]
    return {node: bits[mapping[node]] for node in own}


class Oracle:
    """networkx truth for one derived graph."""

    def __init__(self, derived: Hypergraph, alphabet: Alphabet) -> None:
        self.nodes = set(derived.nodes())
        self.out: Dict[int, set] = {node: set() for node in self.nodes}
        self.into: Dict[int, set] = {node: set() for node in self.nodes}
        #: ``(source, label id, label name, target)`` per binary edge.
        self.edges: List[Tuple[int, int, Any, int]] = []
        self.labeled: Dict[int, set] = {node: set() for node in self.nodes}
        for _, edge in derived.edges():
            if len(edge.att) != 2:
                raise ValueError("the oracle needs rank-2 edges")
            source, target = edge.att
            self.out[source].add(target)
            self.into[target].add(source)
            self.labeled[source].add((edge.label, target))
            self.edges.append((source, edge.label,
                               alphabet.name(edge.label), target))
        self._reach: Dict[int, int] = {}
        self._rpq: Dict[str, Tuple[Dict[Tuple[int, int], int],
                                   int, frozenset]] = {}

    # -- one answer each -----------------------------------------------
    def reach(self, source: int, target: int) -> bool:
        if not self._reach:
            self._reach = _reachable_bits(
                ((s, t) for s, _, _, t in self.edges),
                {node: 1 << node for node in self.nodes})
        return bool(self._reach[source] >> target & 1)

    def rpq(self, pattern: str, source: int, target: int) -> bool:
        if pattern not in self._rpq:
            dfa = compile_pattern(pattern)
            product = []
            own: Dict[Tuple[int, int], int] = {}
            for s, _, name, t in self.edges:
                for state in range(dfa.num_states):
                    nxt = dfa.step_name(state, name)
                    if nxt is not None:
                        product.append(((s, state), (t, nxt)))
                        own[(s, state)] = 0
                        own[(t, nxt)] = 0
            for node, state in own:
                if state in dfa.accepting:
                    own[(node, state)] = 1 << node
            self._rpq[pattern] = (_reachable_bits(product, own),
                                  dfa.start, dfa.accepting)
        rows, start, accepting = self._rpq[pattern]
        row = rows.get((source, start))
        if row is None:   # no step leaves (source, start): empty walk only
            return source == target and start in accepting
        return bool(row >> target & 1)

    def expected(self, request: Sequence[Any]) -> Any:
        """The one right answer (not defined for ``path``)."""
        kind, *args = request
        if kind == "out":
            return sorted(self.out[args[0]])
        if kind == "in":
            return sorted(self.into[args[0]])
        if kind == "neighborhood":
            node = args[0]
            return sorted((self.out[node] | self.into[node]) - {node})
        if kind == "degree":
            return len(self.out[args[0]])
        if kind == "out_edges":
            return sorted(self.labeled[args[0]])
        if kind == "reach":
            return self.reach(*args)
        if kind == "rpq":
            return self.rpq(*args)
        raise ValueError(f"no oracle for {kind!r}")

    # -- checking ------------------------------------------------------
    def right(self, request: Sequence[Any], answer: Any) -> bool:
        """Is ``answer`` a right answer to ``request``?"""
        if isinstance(answer, Failure):
            return False
        if request[0] == "path":
            _, source, target = request
            if answer is None:
                return not self.reach(source, target)
            return (isinstance(answer, list) and len(answer) > 0
                    and answer[0] == source and answer[-1] == target
                    and all(b in self.out[a]
                            for a, b in zip(answer, answer[1:])))
        expected = self.expected(request)
        if request[0] == "out_edges":
            return [tuple(pair) for pair in answer] == expected
        return answer == expected

    def failures(self, requests: Sequence[Sequence[Any]],
                 answers: Sequence[Any]) -> int:
        """How many of ``answers`` are wrong (errors included)."""
        if len(requests) != len(answers):
            raise ValueError("one answer per request, please")
        return sum(not self.right(request, answer)
                   for request, answer in zip(requests, answers))


def _shape(graph: Hypergraph, alphabet: Alphabet,
           isolated: bool) -> Tuple[Any, ...]:
    """What survives renumbering: counts, label histogram, degrees.

    ``isolated=False`` leaves out nodes no edge touches (an edge
    stream cannot carry them).
    """
    out: Counter = Counter()
    into: Counter = Counter()
    labels: Counter = Counter()
    for _, edge in graph.edges():
        labels[alphabet.name(edge.label)] += 1
        out[edge.att[0]] += 1
        into[edge.att[-1]] += 1
    degrees = sorted((out[node], into[node]) for node in graph.nodes()
                     if isolated or out[node] or into[node])
    return (len(degrees), graph.num_edges,
            sorted(labels.items(), key=repr), degrees)


def round_trip_failures(source: Graph, handle: Any, restored: Any,
                        isolated: bool = True) -> Tuple[int, int]:
    """``(checks made, checks failed)`` for one compress round trip.

    ``restored = from_bytes(handle.to_bytes())`` must decompress
    edge-for-edge to what ``handle`` decompresses to, and that graph
    must keep the input's node count, edge count, label histogram and
    degree sequence (decompression renumbers nodes, so the input is
    compared by what renumbering cannot change).
    """
    graph, alphabet = source
    derived = handle.decompress()
    checks = [
        restored.decompress().edge_multiset() == derived.edge_multiset(),
    ]
    want = _shape(graph, alphabet, isolated)
    got = _shape(derived, handle.alphabet, isolated)
    checks.extend(a == b for a, b in zip(want, got))
    return len(checks), sum(not ok for ok in checks)
