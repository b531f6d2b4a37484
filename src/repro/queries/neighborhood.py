"""Neighborhood queries over the grammar (paper section V, Prop. 4).

Given a node ID of ``val(G)``, compute its in-/out-/undirected
neighbors without decompressing: locate the node's G-representation,
then inspect the edges incident with it in its host graph.  Terminal
edges yield neighbors directly (internal neighbors by ID arithmetic,
external neighbors through ``getID``); a nonterminal edge incident at
attachment position ``p`` delegates to the recursive
``getNeighboring(e, p)`` of the paper, which walks *down* the rule for
the neighbors its derivation produces.

Runtime is ``O(log l + n·h)`` for ``n`` neighbors, matching
Proposition 4.

Directions apply to rank-2 terminal edges; the ``direction``
parameter selects outgoing (``att = (v, u)``), incoming
(``att = (u, v)``) or any incidence (which also covers terminal
hyperedges, should the input contain any).

The recursive descent is *memoized per rule*: the terminal targets
reachable from ``(label, position, direction)`` depend only on the
rule structure, never on the instance, so they are flattened once into
``(relative edge path, node)`` pairs and every later query over any
instance of that rule replays the flat list (one ``getID`` per
neighbor) instead of re-walking the rule graphs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.core.hypergraph import Edge
from repro.exceptions import QueryError
from repro.queries.index import GrammarIndex


def _terminal_targets(edge: Edge, position: int,
                      direction: str) -> Iterable[int]:
    """Attachment positions adjacent to ``position`` on a terminal edge."""
    if direction == "out":
        if len(edge.att) == 2 and position == 0:
            yield 1
    elif direction == "in":
        if len(edge.att) == 2 and position == 1:
            yield 0
    elif direction == "any":
        for other in range(len(edge.att)):
            if other != position:
                yield other
    else:
        raise QueryError(f"unknown direction {direction!r}")


class NeighborhoodQueries:
    """In/out/any neighborhood evaluation on a :class:`GrammarIndex`."""

    def __init__(self, index: GrammarIndex) -> None:
        self.index = index
        self.grammar = index.grammar
        #: ``(label, position, direction)`` -> flattened descent:
        #: ``((relative edge path, target node), ...)``.
        self._descent_memo: Dict[Tuple[int, int, str],
                                 Tuple[Tuple[Tuple[int, ...], int],
                                       ...]] = {}
        #: Labeled twin: targets carry their terminal edge label.
        self._labeled_memo: Dict[Tuple[int, int],
                                 Tuple[Tuple[Tuple[int, ...], int, int],
                                       ...]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def out_neighbors(self, node_id: int) -> List[int]:
        """IDs of nodes reachable over one outgoing edge (``N+``)."""
        return self._neighbors(node_id, "out")

    def in_neighbors(self, node_id: int) -> List[int]:
        """IDs of nodes with an edge into ``node_id`` (``N-``)."""
        return self._neighbors(node_id, "in")

    def neighbors(self, node_id: int) -> List[int]:
        """Undirected neighborhood ``N(v)`` (any shared edge)."""
        return self._neighbors(node_id, "any")

    def out_edges(self, node_id: int) -> List[Tuple[int, int]]:
        """Labeled outgoing edges: sorted ``(label, target)`` pairs.

        The labeled variant of :meth:`out_neighbors` (same descent,
        same cost bound), keeping each edge's terminal label — the
        adjacency the RPQ product-automaton BFS steps on.  Parallel
        edges with the same label collapse; self-loops are included
        (a labeled self-loop can change the automaton state without
        leaving the node).
        """
        rep = self.index.locate(node_id)
        host = self.index.host_of(rep)
        result: Set[Tuple[int, int]] = set()
        path = list(rep.edges)
        for eid in host.incident(rep.node):
            edge = host.edge(eid)
            for position, node in enumerate(edge.att):
                if node != rep.node:
                    continue
                if self.grammar.has_rule(edge.label):
                    self._descend_labeled(path + [eid], position,
                                          result)
                elif len(edge.att) == 2 and position == 0:
                    result.add((edge.label,
                                self.index.get_id(path, edge.att[1])))
        return sorted(result)

    # ------------------------------------------------------------------
    # Implementation
    # ------------------------------------------------------------------
    def _neighbors(self, node_id: int, direction: str) -> List[int]:
        rep = self.index.locate(node_id)
        host = self.index.host_of(rep)
        result: Set[int] = set()
        path = list(rep.edges)
        for eid in host.incident(rep.node):
            edge = host.edge(eid)
            position = edge.att.index(rep.node)
            if self.grammar.has_rule(edge.label):
                self._descend(path + [eid], position, direction, result)
            else:
                for target in _terminal_targets(edge, position, direction):
                    result.add(self.index.get_id(path,
                                                 edge.att[target]))
        result.discard(node_id)
        return sorted(result)

    def _descend(self, path_to_edge: List[int], position: int,
                 direction: str, result: Set[int]) -> None:
        """The paper's ``getNeighboring(e, p)``: neighbors inside val(e).

        ``path_to_edge`` addresses the nonterminal edge instance (its
        last element is the edge itself); ``position`` is the
        attachment position of the queried node.  Replays the rule's
        memoized flat target list (one walk per ``(label, position,
        direction)`` per handle lifetime).
        """
        label = self.index.label_of_path(path_to_edge)
        get_id = self.index.get_id
        for suffix, node in self._descent_targets(label, position,
                                                  direction):
            result.add(get_id(path_to_edge + list(suffix), node))

    def _descent_targets(self, label: int, position: int,
                         direction: str
                         ) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
        """Flattened descent of one rule: ``(edge path, node)`` pairs.

        Instance-independent: the relative edge path is appended to
        the instance's own path and resolved through ``getID``.
        Iterative with an explicit stack (grammar height can be
        large); nested nonterminals reuse their own memo entries
        (prefixed), so a rule's flat list is assembled from its
        children's.
        """
        key = (label, position, direction)
        cached = self._descent_memo.get(key)
        if cached is not None:
            return cached
        targets: List[Tuple[Tuple[int, ...], int]] = []
        stack: List[Tuple[Tuple[int, ...], int, int]] = \
            [((), label, position)]
        while stack:
            suffix, lab, pos = stack.pop()
            rhs = self.grammar.rhs(lab)
            entry = rhs.ext[pos]
            for eid in rhs.incident(entry):
                edge = rhs.edge(eid)
                local_pos = edge.att.index(entry)
                if self.grammar.has_rule(edge.label):
                    child = self._descent_memo.get(
                        (edge.label, local_pos, direction))
                    if child is not None:
                        targets.extend((suffix + (eid,) + sub, node)
                                       for sub, node in child)
                    else:
                        stack.append((suffix + (eid,), edge.label,
                                      local_pos))
                    continue
                for target in _terminal_targets(edge, local_pos,
                                                direction):
                    targets.append((suffix, edge.att[target]))
        flat = tuple(targets)
        self._descent_memo[key] = flat
        return flat

    def _descend_labeled(self, path_to_edge: List[int], position: int,
                         result: Set[Tuple[int, int]]) -> None:
        """``getNeighboring`` keeping labels: (label, target) pairs."""
        label = self.index.label_of_path(path_to_edge)
        get_id = self.index.get_id
        for suffix, edge_label, node in self._labeled_targets(label,
                                                              position):
            result.add((edge_label,
                        get_id(path_to_edge + list(suffix), node)))

    def _labeled_targets(self, label: int, position: int
                         ) -> Tuple[Tuple[Tuple[int, ...], int, int],
                                    ...]:
        """Flattened labeled descent: ``(edge path, label, node)``."""
        key = (label, position)
        cached = self._labeled_memo.get(key)
        if cached is not None:
            return cached
        targets: List[Tuple[Tuple[int, ...], int, int]] = []
        stack: List[Tuple[Tuple[int, ...], int, int]] = \
            [((), label, position)]
        while stack:
            suffix, lab, pos = stack.pop()
            rhs = self.grammar.rhs(lab)
            entry = rhs.ext[pos]
            for eid in rhs.incident(entry):
                edge = rhs.edge(eid)
                for local_pos, node in enumerate(edge.att):
                    if node != entry:
                        continue
                    if self.grammar.has_rule(edge.label):
                        child = self._labeled_memo.get(
                            (edge.label, local_pos))
                        if child is not None:
                            targets.extend(
                                (suffix + (eid,) + sub, sub_label,
                                 sub_node)
                                for sub, sub_label, sub_node in child)
                        else:
                            stack.append((suffix + (eid,), edge.label,
                                          local_pos))
                    elif len(edge.att) == 2 and local_pos == 0:
                        targets.append((suffix, edge.label,
                                        edge.att[1]))
        flat = tuple(targets)
        self._labeled_memo[key] = flat
        return flat
