"""Digrams over hypergraphs: canonical keys and occurrences.

Definition 2 of the paper: a digram is a hypergraph with exactly two
edges such that every node is attached to one of them and at least one
node is attached to both.  Definition 3 defines an *occurrence* of a
digram ``d`` in a graph ``g`` as a pair of edges inducing a subgraph
isomorphic to ``d`` where, additionally, a node is mapped to an
*external* node of ``d`` if and only if it is incident with an edge
outside the pair (condition (3)) — internal nodes are exactly the nodes
the replacement may delete.

Two occurrences must receive equal keys exactly when they are
occurrences of the same digram, and the key must fix the order of the
digram's external nodes so that every replacement attaches its fresh
nonterminal edge consistently.  We achieve this with a canonical local
numbering:

1. pick an orientation (which edge is "first");
2. number the occurrence's nodes 0,1,... in order of first appearance
   in ``att(first) . att(second)``;
3. the key is ``(lab_first, rank_first, lab_second,
   local-attachment-of-second, external-flags)``;
4. the digram key is the lexicographically smaller of the two
   orientations' keys.

External flags are part of the key because Definition 3 makes the
internal/external split part of digram identity (the two grammars of
the paper's Figure 4 differ exactly in that split).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.hypergraph import Hypergraph
from repro.exceptions import HypergraphError


class DigramKey(NamedTuple):
    """Canonical, hashable identity of a digram.

    Attributes
    ----------
    label_a, label_b:
        Edge labels in canonical orientation.
    rank_a:
        Rank of the first edge (``att_b`` is implied by ``pattern_b``).
    pattern_b:
        For each attachment position of the second edge, the local node
        index (indices < ``rank_a`` are shared with the first edge).
    ext_flags:
        Per local node index, True if the node is external.
    """

    label_a: int
    rank_a: int
    label_b: int
    pattern_b: Tuple[int, ...]
    ext_flags: Tuple[bool, ...]

    @property
    def num_nodes(self) -> int:
        """Number of distinct nodes in the digram."""
        return len(self.ext_flags)

    @property
    def rank(self) -> int:
        """Digram rank = number of external nodes."""
        return sum(1 for flag in self.ext_flags if flag)

    def external_locals(self) -> Tuple[int, ...]:
        """Local indices of external nodes, ascending.

        This order defines the attachment order of the replacing
        nonterminal edge and the ``ext`` sequence of the rule.
        """
        return tuple(i for i, flag in enumerate(self.ext_flags) if flag)


class Occurrence(NamedTuple):
    """A recorded occurrence: two edge IDs in canonical orientation."""

    edge_a: int
    edge_b: int

    def edges(self) -> Tuple[int, int]:
        """Both edge IDs."""
        return (self.edge_a, self.edge_b)


def _locals_for(att_a: Tuple[int, ...],
                att_b: Tuple[int, ...]) -> Dict[int, int]:
    """Assign local indices by first appearance in att_a then att_b."""
    local: Dict[int, int] = {}
    for node in att_a:
        if node not in local:
            local[node] = len(local)
    for node in att_b:
        if node not in local:
            local[node] = len(local)
    return local


def _oriented_key(
    graph: Hypergraph,
    first: int,
    second: int,
) -> Tuple[DigramKey, Dict[int, int]]:
    """Key and node->local mapping for one orientation of an edge pair."""
    edge_a = graph.edge(first)
    edge_b = graph.edge(second)
    local = _locals_for(edge_a.att, edge_b.att)
    pattern_b = tuple(local[n] for n in edge_b.att)
    flags: List[bool] = [False] * len(local)
    host_ext = graph.ext
    for node, idx in local.items():
        incident_in_pair = (node in edge_a.att) + (node in edge_b.att)
        external = (graph.degree(node) > incident_in_pair
                    or node in host_ext)
        flags[idx] = external
    key = DigramKey(edge_a.label, len(edge_a.att), edge_b.label,
                    pattern_b, tuple(flags))
    return key, local


def digram_key(
    graph: Hypergraph,
    edge_a: int,
    edge_b: int,
) -> Tuple[Optional[DigramKey], Optional[Occurrence], Dict[int, int]]:
    """Canonical digram key of the edge pair ``{edge_a, edge_b}``.

    Returns ``(key, occurrence, local_of_node)`` where ``occurrence``
    stores the pair in canonical orientation and ``local_of_node`` maps
    host nodes to local digram indices.  Returns ``(None, None, {})`` if
    the pair is not a digram (no shared node, or identical edges).
    """
    if edge_a == edge_b:
        return None, None, {}
    att_a = graph.edge(edge_a).att
    att_b = graph.edge(edge_b).att
    if not set(att_a) & set(att_b):
        return None, None, {}
    key_ab, local_ab = _oriented_key(graph, edge_a, edge_b)
    key_ba, local_ba = _oriented_key(graph, edge_b, edge_a)
    if key_ab <= key_ba:
        return key_ab, Occurrence(edge_a, edge_b), local_ab
    return key_ba, Occurrence(edge_b, edge_a), local_ba


def rule_graph(key: DigramKey) -> Hypergraph:
    """Materialize the digram of ``key`` as a rule right-hand side.

    Nodes are ``1..num_nodes`` (local index + 1); the external sequence
    lists external nodes in ascending local order, matching the
    attachment order produced by :func:`replacement_attachment`.
    """
    graph = Hypergraph()
    for _ in range(key.num_nodes):
        graph.add_node()
    graph.add_edge(key.label_a, tuple(range(1, key.rank_a + 1)))
    graph.add_edge(key.label_b, tuple(i + 1 for i in key.pattern_b))
    graph.set_external(tuple(i + 1 for i in key.external_locals()))
    return graph


def replacement_attachment(key: DigramKey,
                           local_of_node: Dict[int, int]) -> Tuple[int, ...]:
    """Host attachment sequence for the replacing nonterminal edge.

    ``local_of_node`` is the mapping returned by :func:`digram_key` for
    this occurrence; the attachment lists the host nodes of the
    digram's external locals in ascending local order, mirroring
    :func:`rule_graph`'s ``ext``.
    """
    node_of_local = {idx: node for node, idx in local_of_node.items()}
    try:
        return tuple(node_of_local[i] for i in key.external_locals())
    except KeyError as exc:  # pragma: no cover - defensive
        raise HypergraphError(
            f"occurrence mapping is missing local node {exc}"
        ) from None


def removal_nodes(key: DigramKey,
                  local_of_node: Dict[int, int]) -> Tuple[int, ...]:
    """Host nodes deleted by replacing this occurrence (internal ones)."""
    return tuple(node for node, idx in local_of_node.items()
                 if not key.ext_flags[idx])


#: Degree bound below which externality flags can still flip.
#:
#: Inside any occurrence a node ``v`` is external iff ``deg(v) > c`` (or
#: ``v`` is host-external), where ``c`` is the number of the pair's two
#: edges incident with ``v`` — so ``c`` is 1 or 2.  A node of degree
#: >= 4 therefore satisfies ``deg(v) > c`` in *every* occurrence, before
#: and after any single-replacement degree change that keeps it >= 4:
#: its flags are pinned True, and only degree transitions touching the
#: range <= 3 can change a recorded occurrence's digram key.  This is
#: why the incremental engine's dirty regions stay local: key drift is
#: confined to low-degree neighborhoods of a replacement, and the
#: settle cascade reaches all of them (verified by brute force in
#: ``tests/test_digram.py``).
EXT_STABLE_DEGREE = 3


def occurrence_nodes(graph: Hypergraph, occ: Occurrence) -> Tuple[int,
                                                                  ...]:
    """Distinct host nodes of an occurrence, in local-index order."""
    return tuple(_locals_for(graph.edge(occ.edge_a).att,
                             graph.edge(occ.edge_b).att))


def occurrence_is_current(graph: Hypergraph, key: DigramKey,
                          occ: Occurrence) -> bool:
    """True if ``occ`` still is an occurrence of exactly ``key``.

    A recorded occurrence is *stale* once one of its edges was consumed
    by a replacement or the externality of one of its nodes changed
    (its true digram key drifted).  The engine repairs drifted entries
    eagerly instead of waiting for a counting pass to rediscover them.
    """
    if not (graph.has_edge(occ.edge_a) and graph.has_edge(occ.edge_b)):
        return False
    current, canonical, _ = digram_key(graph, occ.edge_a, occ.edge_b)
    return current == key and canonical == occ
