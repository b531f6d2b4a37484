"""Linear-time (s,t)-reachability over SL-HR grammars (Theorem 6).

The paper's algorithm in two parts:

**Skeleton graphs.**  For every nonterminal ``A`` (bottom-up in the
``<=NT`` order) summarize its right-hand side as a relation over its
external nodes: position ``i`` can reach position ``j`` inside
``val(A)``.  The right-hand side is turned into a small digraph —
terminal rank-2 edges directly, nonterminal edges by their (already
computed) skeleton relations — and searched from each external node.
The paper realizes the same information with SCC condensation plus
cycles over external nodes; storing the transitively closed relation
is an equivalent presentation for rank <= maxRank (a small constant)
and keeps the overall precomputation ``O(maxRank * |G|)``.

**Query.**  Locate the G-representations of ``s`` and ``t``.  Walking
the derivation path of ``s`` upward, compute at each level the set of
external positions its exits can reach (the paper's ``E_i``); dually
for ``t`` with reverse search (``F_i``).  The two paths share a common
instance prefix; at *every* shared host — from the divergence point up
to the start graph — test whether the lifted source set reaches the
lifted target set inside that host's skeleton-expanded digraph.  (The
check must run at each shared level, not only in the start graph: a
witness path may live entirely inside a shared instance and never
surface at the top.  Paths that leave a host and re-enter through
context are caught one level up, because the skeleton relations are
transitively closed.)

Every level's search is linear in the host's size and each host is
visited a constant number of times, so a query costs ``O(|G|)`` —
a speed-up proportional to the compression ratio, since BFS on the
decompressed graph costs ``O(|val(G)|)``.

Every distinct host graph (the start graph plus one right-hand side
per rule) gets its skeleton-expanded adjacency precomputed **once per
handle** as integer bit-rows (one arbitrary-precision int per node,
bit ``j`` set when node ``j`` is a direct successor); the
``E_i``/``F_i`` level sets and every BFS wave are then AND/OR word
operations, so a query builds no per-query adjacency at all.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.hypergraph import Hypergraph
from repro.exceptions import QueryError
from repro.queries.index import GrammarIndex


class _HostMasks:
    """One host graph's skeleton-expanded adjacency as bit-rows.

    ``fwd[i]`` / ``rev[i]`` are integer bitmasks over the host's local
    bit numbering (``bit_of``); ``ext_bits`` are the bits of the
    external nodes in attachment order.  Built once per host per
    handle; every query after that is pure word arithmetic.
    """

    __slots__ = ("host", "bit_of", "fwd", "rev", "ext_bits",
                 "closure_fwd", "closure_rev")

    def __init__(self, host: Hypergraph, grammar,
                 skeletons: Dict[int, FrozenSet[Tuple[int, int]]]
                 ) -> None:
        self.host = host
        #: Lazily filled per-source-bit transitive-closure rows
        #: (``bit -> reached mask``): a search from a frontier is the
        #: OR of its bits' closures, so repeated searches over one
        #: host — the shape of every batch — pay each BFS once.
        self.closure_fwd: Dict[int, int] = {}
        self.closure_rev: Dict[int, int] = {}
        nodes = sorted(host.nodes())
        bit_of = {node: bit for bit, node in enumerate(nodes)}
        self.bit_of = bit_of
        fwd = [0] * len(nodes)
        rev = [0] * len(nodes)
        for _, edge in host.edges():
            if grammar.has_rule(edge.label):
                att = edge.att
                for i, j in skeletons[edge.label]:
                    src, dst = bit_of[att[i]], bit_of[att[j]]
                    fwd[src] |= 1 << dst
                    rev[dst] |= 1 << src
                continue
            if len(edge.att) != 2:
                raise QueryError(
                    "reachability requires a simple derived graph; "
                    f"found a terminal edge of rank {len(edge.att)}"
                )
            src, dst = bit_of[edge.att[0]], bit_of[edge.att[1]]
            fwd[src] |= 1 << dst
            rev[dst] |= 1 << src
        self.fwd = fwd
        self.rev = rev
        self.ext_bits = tuple(bit_of[node] for node in host.ext)


def _search_bits(rows: List[int], frontier: int) -> int:
    """Bits reachable from ``frontier`` (inclusive) via wave BFS.

    Each wave ORs the rows of the frontier's set bits — one word
    operation per machine word instead of one set insertion per node.
    """
    seen = frontier
    while frontier:
        union = 0
        while frontier:
            low = frontier & -frontier
            union |= rows[low.bit_length() - 1]
            frontier &= frontier - 1
        frontier = union & ~seen
        seen |= frontier
    return seen


class ReachabilityQueries:
    """(s,t)-reachability on a :class:`GrammarIndex`."""

    def __init__(self, index: GrammarIndex) -> None:
        self.index = index
        self.grammar = index.grammar
        #: Per-host bit-row cache: ``None`` keys the start graph, a
        #: nonterminal label keys its right-hand side.  Rule hosts are
        #: populated eagerly by the skeleton pass (they are needed
        #: bottom-up anyway); the start graph joins on first query.
        self._masks: Dict[Optional[int], _HostMasks] = {}
        self._skeletons: Dict[int, FrozenSet[Tuple[int, int]]] = {}
        self._compute_skeletons()

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------
    def _masks_for(self, label: Optional[int]) -> _HostMasks:
        """The (cached) bit-rows of one host graph."""
        masks = self._masks.get(label)
        if masks is None:
            host = (self.grammar.start if label is None
                    else self.grammar.rhs(label))
            masks = _HostMasks(host, self.grammar, self._skeletons)
            self._masks[label] = masks
        return masks

    def _compute_skeletons(self) -> None:
        for lhs in self.grammar.bottom_up_order():
            pairs: Set[Tuple[int, int]] = set()
            masks = self._masks_for(lhs)
            ext_bits = masks.ext_bits
            for i, bit in enumerate(ext_bits):
                reached = self._reach_bits(masks, False, 1 << bit)
                for j, other in enumerate(ext_bits):
                    if i != j and reached >> other & 1:
                        pairs.add((i, j))
            self._skeletons[lhs] = frozenset(pairs)

    def skeleton(self, lhs: int) -> FrozenSet[Tuple[int, int]]:
        """The skeleton relation of nonterminal ``lhs`` (positions)."""
        try:
            return self._skeletons[lhs]
        except KeyError:
            raise QueryError(f"no skeleton for label {lhs}") from None

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def reachable(self, source_id: int, target_id: int) -> bool:
        """True if ``target_id`` is reachable from ``source_id``."""
        if source_id == target_id:
            return True
        source_rep = self.index.locate(source_id)
        target_rep = self.index.locate(target_id)

        # Longest common instance prefix of the two derivation paths.
        common = 0
        for eu, ev in zip(source_rep.edges, target_rep.edges):
            if eu != ev:
                break
            common += 1

        source_labels = self._labels_along(source_rep.edges)
        target_labels = self._labels_along(target_rep.edges)
        source_sets = self._lift_bits(source_rep, source_labels,
                                      reverse=False)
        target_sets = self._lift_bits(target_rep, target_labels,
                                      reverse=True)
        # Check every shared host from the divergence point up to S;
        # the shared prefix means shared hosts (hence one bit space)
        # per level.
        for level in range(common, -1, -1):
            masks = self._masks_for(source_labels[level])
            reached = self._reach_bits(masks, False, source_sets[level])
            if reached & target_sets[level]:
                return True
        return False

    # ------------------------------------------------------------------
    # Bit-row searches
    # ------------------------------------------------------------------
    @staticmethod
    def _reach_bits(masks: _HostMasks, reverse: bool,
                    frontier: int) -> int:
        """Bits reachable from ``frontier`` through one host's rows.

        Decomposes the frontier into single bits and ORs their cached
        transitive-closure rows, filling the cache by wave BFS on the
        first search from each bit.  Reachability is union-
        decomposable, so the OR equals one BFS from the whole
        frontier — but across a batch every host pays each source bit
        at most once.
        """
        cache = masks.closure_rev if reverse else masks.closure_fwd
        rows = masks.rev if reverse else masks.fwd
        reached = 0
        while frontier:
            low = frontier & -frontier
            frontier &= frontier - 1
            bit = low.bit_length() - 1
            hit = cache.get(bit)
            if hit is None:
                hit = _search_bits(rows, low)
                cache[bit] = hit
            reached |= hit
        return reached

    def _labels_along(self, edges: Sequence[int]
                      ) -> List[Optional[int]]:
        """Host labels per level: ``[None, label_1, ..., label_n]``."""
        labels: List[Optional[int]] = [None]
        host = self.grammar.start
        for eid in edges:
            label = host.edge(eid).label
            labels.append(label)
            host = self.grammar.rhs(label)
        return labels

    def _lift_bits(self, rep, labels: Sequence[Optional[int]],
                   reverse: bool) -> List[int]:
        """Per-level bitmasks of exits (or entries, reversed).

        ``result[level]`` is a mask in the bit space of the host at
        depth ``level`` (depth 0 = S), holding the nodes from which the
        represented node is reachable (``reverse=True``) or which are
        reachable from it (``reverse=False``) through the subtree
        below.
        """
        edges = rep.edges
        depth = len(edges)
        sets = [0] * (depth + 1)
        masks = self._masks_for(labels[depth])
        sets[depth] = 1 << masks.bit_of[rep.node]
        for level in range(depth, 0, -1):
            reached = self._reach_bits(masks, reverse, sets[level])
            parent = self._masks_for(labels[level - 1])
            attachment = parent.host.edge(edges[level - 1]).att
            lifted = 0
            for position, bit in enumerate(masks.ext_bits):
                if reached >> bit & 1:
                    lifted |= 1 << parent.bit_of[attachment[position]]
            sets[level - 1] = lifted
            masks = parent
        return sets
