"""G-representations: mapping node IDs into the grammar and back.

Section V of the paper: the deterministic numbering of ``val(G)``
(section II) lets a node ID ``x`` be translated into a
*G-representation* — a path ``e0 e1 ... en v`` through the derivation,
where ``e0`` is a nonterminal edge of the start graph, each ``e_{i+1}``
is a nonterminal edge in the right-hand side of ``e_i``'s label, and
``v`` is an internal node of the last right-hand side (or, for
``x <= m``, simply a start-graph node).

Because the nodes of ``val(e_i)`` occupy contiguous ID ranges, the
translation is a binary search over the top-level nonterminal edges
followed by a walk down the rules — ``O(log l + h)`` as in the paper
(``l`` top-level nonterminal edges, ``h`` grammar height).  ``getID``
inverts the mapping in ``O(h)``.

The index requires a *canonical* grammar (see
:meth:`repro.core.SLHRGrammar.canonicalize`): start-graph nodes are
``1..m`` and every right-hand side numbers its external nodes
``1..rank`` first, internal nodes after.  Then the j-th internal node
of an instance with ID base ``b`` is simply ``b + j``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.grammar import SLHRGrammar
from repro.core.hypergraph import Hypergraph
from repro.exceptions import QueryError


class GRepresentation(NamedTuple):
    """A derivation path identifying one node of ``val(G)``.

    ``edges`` is the chain of nonterminal edge IDs (first in the start
    graph, then in successive right-hand sides); ``node`` is a node of
    the last host (internal there unless the path is empty, in which
    case it is a start-graph node).
    """

    edges: Tuple[int, ...]
    node: int


class _RuleInfo(NamedTuple):
    """Precomputed layout of one rule's derived ID block."""

    rank: int
    internal_count: int  # internal nodes of the rhs itself
    derived_count: int   # total new nodes val of one edge creates
    # nonterminal edges of the rhs in edge order:
    # (edge id, label, offset of the child block inside this block)
    children: Tuple[Tuple[int, int, int], ...]


class GrammarIndex:
    """Node-ID index over a canonical SL-HR grammar."""

    def __init__(self, grammar: SLHRGrammar) -> None:
        self.grammar = grammar
        start = grammar.start
        self.m = start.node_size
        derived_nodes, _ = grammar.derived_counts()
        self._derived_nodes = derived_nodes
        self._rule_info: Dict[int, _RuleInfo] = {}
        for lhs in grammar.nonterminals():
            rhs = grammar.rhs(lhs)
            internal = rhs.node_size - rhs.rank
            children: List[Tuple[int, int, int]] = []
            offset = internal
            for eid, edge in sorted(rhs.edges()):
                if grammar.has_rule(edge.label):
                    children.append((eid, edge.label, offset))
                    offset += derived_nodes[edge.label]
            self._rule_info[lhs] = _RuleInfo(
                rank=rhs.rank,
                internal_count=internal,
                derived_count=derived_nodes[lhs],
                children=tuple(children),
            )
        # Top-level nonterminal edges with their block starts.
        self._top_edges: List[Tuple[int, int, int]] = []  # (eid, label, base)
        base = self.m + 1
        for eid, edge in sorted(start.edges()):
            if grammar.has_rule(edge.label):
                self._top_edges.append((eid, edge.label, base))
                base += derived_nodes[edge.label]
        self.total_nodes = base - 1
        self._top_bases = [entry[2] for entry in self._top_edges]

    # ------------------------------------------------------------------
    # ID -> G-representation
    # ------------------------------------------------------------------
    def locate(self, node_id: int) -> GRepresentation:
        """G-representation of ``node_id`` (``O(log l + h)``)."""
        if type(node_id) is not int or not 1 <= node_id <= self.total_nodes:
            raise QueryError(
                f"node ID {node_id} out of range 1..{self.total_nodes}"
            )
        if node_id <= self.m:
            return GRepresentation((), node_id)
        position = bisect_right(self._top_bases, node_id) - 1
        eid, label, base = self._top_edges[position]
        path = [eid]
        while True:
            info = self._rule_info[label]
            offset = node_id - base
            if offset < info.internal_count:
                return GRepresentation(tuple(path),
                                       info.rank + 1 + offset)
            for child_eid, child_label, child_offset in info.children:
                child_info = self._rule_info[child_label]
                if (child_offset <= offset
                        < child_offset + child_info.derived_count):
                    path.append(child_eid)
                    base += child_offset
                    label = child_label
                    break
            else:  # pragma: no cover - layout is exhaustive
                raise QueryError(f"node ID {node_id}: inconsistent index")

    # ------------------------------------------------------------------
    # G-representation -> ID
    # ------------------------------------------------------------------
    def get_id(self, edges: Sequence[int], node: int) -> int:
        """ID of the node reached by ``edges`` ending at ``node``.

        ``node`` may be *external* in the last right-hand side: it is
        then resolved through the parent edges (the paper's ``getID``),
        so callers can pass any node of the last host graph.  With an
        empty path, ``node`` is a start-graph node and returned as-is.
        """
        edges = list(edges)
        # Resolve external nodes upward: an external node of the last
        # rhs is the attachment node of the parent edge.
        while edges:
            host = self._host_for(edges[:-1])
            last_edge = host.edge(edges[-1])
            rhs_rank = self._rule_info[last_edge.label].rank
            if node > rhs_rank:
                break  # internal in the last rhs
            node = last_edge.att[node - 1]
            edges.pop()
        if not edges:
            if not 1 <= node <= self.m:
                raise QueryError(f"start-graph node {node} out of range")
            return node
        base = self._block_base(edges)
        last_label = self.label_of_path(edges)
        rank = self._rule_info[last_label].rank
        return base + (node - rank - 1)

    def _host_for(self, edges: Sequence[int]) -> Hypergraph:
        """Host graph addressed by a (possibly empty) edge path."""
        if not edges:
            return self.grammar.start
        return self.grammar.rhs(self.label_of_path(edges))

    def label_of_path(self, edges: Sequence[int]) -> int:
        """Label of the last edge on a nonterminal edge path."""
        host = self.grammar.start
        label: Optional[int] = None
        for eid in edges:
            label = host.edge(eid).label
            host = self.grammar.rhs(label)
        if label is None:
            raise QueryError("empty path has no label")
        return label

    def _block_base(self, edges: Sequence[int]) -> int:
        """First derived ID of the instance addressed by ``edges``."""
        top_eid = edges[0]
        base = None
        label = None
        for eid, lab, start_base in self._top_edges:
            if eid == top_eid:
                base, label = start_base, lab
                break
        if base is None:
            raise QueryError(f"edge {top_eid} is not a top-level "
                             "nonterminal edge")
        for child_eid in edges[1:]:
            info = self._rule_info[label]
            for eid, lab, offset in info.children:
                if eid == child_eid:
                    base += offset
                    label = lab
                    break
            else:
                raise QueryError(
                    f"edge {child_eid} is not a nonterminal edge of "
                    f"rule {label}"
                )
        return base

    # ------------------------------------------------------------------
    # Helpers for the query modules
    # ------------------------------------------------------------------
    def host_of(self, rep: GRepresentation) -> Hypergraph:
        """The host graph containing ``rep.node``."""
        return self._host_for(rep.edges)

    def height(self) -> int:
        """Grammar height (bounds per-step query cost)."""
        return self.grammar.height()
