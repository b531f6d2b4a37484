"""The gRePair compression algorithm (paper section III).

Given a start graph the algorithm repeatedly

1. counts, per digram, a set of non-overlapping occurrences by
   traversing the nodes in a fixed order ``ω`` and greedily pairing the
   incident edges per label combination (the paper's ``Occ(E1, E2)``
   scheme — only O(deg) pairs per node are considered),
2. picks a most frequent digram from the bucket priority queue,
3. replaces every (still valid) occurrence by a fresh nonterminal edge
   and adds the rule ``A -> digram``,
4. updates occurrence lists around the replacement sites.

Step 4 is incremental.  One counting pass seeds the occurrence table;
afterwards **no full re-count pass is ever performed**
(``stats.recount_passes == 0``).  While the queue drains, occurrence
lists only shrink: replacing an occurrence surgically releases every
overlapping occurrence and re-files the affected digram lists in
place, and each fresh nonterminal edge receives one bounded pairing
per attachment node.  Every node whose pairing state changed —
attachment nodes of replaced occurrences, nodes of released or newly
recorded partner edges — is marked *dirty*.  When the queue runs dry
the engine *settles*: starting from the dirty set it releases every
recorded occurrence in the affected region (following the cascade of
freed pairing slots) and re-runs the canonical counting construction
on exactly those nodes, in ω order, against the per-node
:class:`~repro.core.occurrences.PairingIndex`.  Outside the affected
region the greedy counting construction is deterministic and its
inputs are unchanged, so the kept state coincides with what a full
pass would rebuild — the settle step realigns exactly like a re-count
pass while touching only the changed neighborhood.  Drain and settle
alternate until no active digram remains.

Externality drift is covered by the same mechanism: a recorded
occurrence's key can only change when a node's degree crosses the
:data:`~repro.core.digram.EXT_STABLE_DEGREE` range, degrees only
change at dirty nodes, and dirty regions are re-keyed from scratch
when settled.  Stale keys that a drain meets before the next settle
are caught by revalidation immediately before a replacement, so
replacements are always sound.

The differential suite (``tests/test_engine_differential.py``) holds
this engine against a full-recount oracle kept in the tests, which
overrides :meth:`GRePair._restart_phase` to realign by whole counting
passes instead of settles.

Every replaced digram strictly decreases the number of edges of the
start graph, and a settle that surfaces no active digram ends the run,
so the loop terminates.

After the main loop, disconnected components are linked with *virtual
edges* and the algorithm restarts on the augmented graph (the paper's
construction) — this is the step that gives version graphs their
near-exponential compression (paper Fig. 13): chains of isomorphic
components become digrams of nonterminal and virtual edges, which then
pair hierarchically.  The added edges shift externality across the
graph, so this second phase is seeded with one counting pass of its
own; within the phase the state is again maintained purely by deltas
(``recount_passes`` counts only *re*-counts within a phase and stays
0).  The virtual edges are deleted from the grammar afterwards.
Finally the grammar is pruned (:mod:`repro.core.pruning`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.alphabet import Alphabet, VIRTUAL_LABEL_NAME
from repro.core.digram import (
    DigramKey,
    Occurrence,
    digram_key,
    occurrence_nodes,
    removal_nodes,
    replacement_attachment,
    rule_graph,
)
from repro.core.grammar import SLHRGrammar
from repro.core.hypergraph import Hypergraph
from repro.core.occurrences import (
    BucketQueue,
    OccurrenceTable,
    PairingIndex,
)
from repro.core.orders import node_order
from repro.core.pruning import prune_grammar
from repro.exceptions import GrammarError
from repro.util.unionfind import UnionFind

#: Nodes with more incident edges than this are skipped by the bounded
#: per-replacement update (settle/re-count passes cover them instead).
_UPDATE_DEGREE_CAP = 256


class CompressionStats:
    """Counters filled during a compression run (for reports/tests).

    Attributes
    ----------
    passes:
        Full counting passes over the whole node order: exactly one
        per phase — the seed of the main loop, plus (following the
        paper, which restarts the algorithm on the
        virtual-edge-augmented graph) one seed for the virtual-edge
        phase; pure streaming ingestion needs none for the main loop.
    recount_passes:
        Full counting passes re-run *within* a phase to repair
        occurrence state after replacements — the quadratic-ish
        component the settles eliminate (always 0; a full-recount
        loop re-counts after every drain).
    settle_rounds:
        Incremental settle boundaries (dirty-region realignments).
    nodes_recounted:
        Nodes whose pairing was re-derived during settles — the
        substitute for whole-graph re-counts.
    digrams_replaced / occurrences_replaced:
        Rules introduced and occurrence replacements performed.
    queue_pushes / queue_pops:
        Bucket-queue repositions and successful pops.
    virtual_edges_added / rules_pruned:
        Virtual-edge pass and pruning phase counters.
    """

    def __init__(self) -> None:
        self.passes = 0
        self.recount_passes = 0
        self.settle_rounds = 0
        self.nodes_recounted = 0
        self.digrams_replaced = 0
        self.occurrences_replaced = 0
        self.queue_pushes = 0
        self.queue_pops = 0
        self.virtual_edges_added = 0
        self.rules_pruned = 0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view used by the benchmark harness."""
        return dict(self.__dict__)


class GRePair:
    """One compression run over a start graph.

    Parameters
    ----------
    graph:
        The input hypergraph.  It is mutated in place and becomes the
        grammar's start graph; pass a copy to keep the original.
    alphabet:
        Label alphabet of ``graph``; fresh nonterminals are minted here.
    max_rank:
        Maximal digram (hence nonterminal) rank considered; the paper's
        ``maxRank`` parameter (default 4, the paper's recommendation).
    order:
        Node-order name (see :data:`repro.core.orders.NODE_ORDERS`).
    seed:
        Seed for the ``random`` order.
    virtual_edges:
        Enable the disconnected-components pass.
    prune:
        Enable the pruning phase.
    """

    def __init__(
        self,
        graph: Hypergraph,
        alphabet: Alphabet,
        max_rank: int = 4,
        order: str = "fp",
        seed: int = 0,
        virtual_edges: bool = True,
        prune: bool = True,
    ) -> None:
        if max_rank < 2:
            raise GrammarError(f"max_rank must be >= 2, got {max_rank}")
        self.graph = graph
        self.alphabet = alphabet
        self.max_rank = max_rank
        self.order_name = order
        self.seed = seed
        self.use_virtual_edges = virtual_edges
        self.use_pruning = prune
        self.stats = CompressionStats()
        self._order: List[int] = []
        self._position: Dict[int, int] = {}
        self._grammar: Optional[SLHRGrammar] = None
        # Persistent incremental state, built by _begin().
        self._table: Optional[OccurrenceTable] = None
        self._queue: Optional[BucketQueue] = None
        self._index: Optional[PairingIndex] = None
        self._dirty: Dict[int, None] = {}
        self._phase_counted = False
        self._streaming = False

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def run(self) -> SLHRGrammar:
        """Execute gRePair and return the resulting SL-HR grammar."""
        if self._grammar is not None:
            raise GrammarError("GRePair instances are single-use")
        self._begin()
        self._set_order(node_order(self.graph, self.order_name,
                                   self.seed))
        self._restart_phase()
        return self._finish()

    # ------------------------------------------------------------------
    # Streaming entry points
    # ------------------------------------------------------------------
    def begin_streaming(self) -> None:
        """Initialize for chunked ingestion instead of :meth:`run`.

        Any edges already present in the graph are seeded with a single
        counting pass; edges ingested later are counted purely locally,
        reusing the same table, queue and pairing index across chunks.
        """
        if self._grammar is not None:
            raise GrammarError("GRePair instances are single-use")
        self._streaming = True
        self._begin()
        if self.graph.num_edges:
            self._set_order(node_order(self.graph, self.order_name,
                                       self.seed))
            self._count_all(self._table, self._queue)

    def ingest_edge(self, label: int, att: Sequence[int]) -> int:
        """Add one edge (creating missing nodes) and count it locally.

        Returns the new edge's ID.  The edge enters the pairing index,
        its endpoints become dirty, and the next :meth:`drain` settles
        the neighborhood — no counting pass over the graph.
        """
        if not self._streaming:
            raise GrammarError("call begin_streaming() before ingesting")
        graph = self.graph
        for node in att:
            if not graph.has_node(node):
                graph.add_node(node)
        edge_id = graph.add_edge(label, att)
        self._index.add(edge_id, graph.edge(edge_id))
        self._queue.resize(graph.num_edges, self._table)
        for node in att:
            self._dirty[node] = None
        return edge_id

    def drain(self) -> bool:
        """Replace every currently active digram (between chunks)."""
        if not self._streaming:
            raise GrammarError("drain() is part of the streaming API")
        return self._drain_and_settle(self._table, self._queue)

    def finish_streaming(self) -> SLHRGrammar:
        """Finalize the stream; returns the grammar.

        The stream is closed, so node degrees are final and
        internal-node digrams (deferred during ingestion) become safe:
        the occurrence state is reseeded with one full-knowledge
        counting pass — a new phase, not a re-count — and drained,
        followed by the usual virtual-edge pass and pruning.
        """
        if not self._streaming:
            raise GrammarError("begin_streaming() was never called")
        self._drain_and_settle(self._table, self._queue)
        self._streaming = False
        self._set_order(node_order(self.graph, self.order_name,
                                   self.seed))
        self._restart_phase()
        return self._finish()

    # ------------------------------------------------------------------
    # Run scaffolding
    # ------------------------------------------------------------------
    def _begin(self) -> None:
        self._grammar = SLHRGrammar(self.alphabet, self.graph)
        self._index = PairingIndex.from_graph(self.graph)
        self._table = OccurrenceTable()
        self._queue = BucketQueue(self.graph.num_edges)

    def _set_order(self, order: List[int]) -> None:
        self._order = order
        self._position = {node: idx for idx, node in enumerate(order)}

    def _finish(self) -> SLHRGrammar:
        if self.use_virtual_edges:
            self._virtual_edge_pass()
        if self.use_pruning:
            self.stats.rules_pruned = prune_grammar(self._grammar)
        self._retire_queue(self._queue)
        return self._grammar

    def _retire_queue(self, queue: BucketQueue) -> None:
        """Fold a queue's instrumentation into the run statistics."""
        self.stats.queue_pushes += queue.push_count
        self.stats.queue_pops += queue.pop_count
        queue.push_count = 0
        queue.pop_count = 0

    # ------------------------------------------------------------------
    # Counting (paper step 2)
    # ------------------------------------------------------------------
    def _count_all(self, table: OccurrenceTable,
                   queue: BucketQueue) -> None:
        """One full counting pass over all nodes in ω order.

        The first pass of a phase seeds the occurrence state; any
        further pass within the same phase is a *re-count* — the
        settles make one unnecessary.
        """
        self.stats.passes += 1
        if self._phase_counted:
            self.stats.recount_passes += 1
        self._phase_counted = True
        graph = self.graph
        for node in self._order:
            if graph.has_node(node):
                self._count_around(node, table, queue)

    def _count_around(self, node: int, table: OccurrenceTable,
                      queue: BucketQueue) -> None:
        """Pair the incident edges of ``node`` per label combination.

        Edges are grouped by (label, position of ``node`` in the
        attachment) — the paper treats directions as labels.  Groups are
        paired with each other (zip) and within themselves (split in
        halves, the paper's ``Occ`` construction), skipping edges whose
        partner-label slot is already taken and pairs whose digram rank
        exceeds ``max_rank``.  The groups come from the pairing index.
        """
        types = self._index.groups_at(node)
        for i, (type_a, members_a) in enumerate(types):
            label_a = type_a[0]
            for type_b, members_b in types[i:]:
                label_b = type_b[0]
                if type_a == type_b:
                    members = [eid for eid in members_a
                               if table.can_pair(eid, label_a)]
                    half = len(members) // 2
                    pairs = list(zip(members[:half], members[half:]))
                else:
                    first = [eid for eid in members_a
                             if table.can_pair(eid, label_b)]
                    second = [eid for eid in members_b
                              if table.can_pair(eid, label_a)]
                    pairs = list(zip(first, second))
                for eid_a, eid_b in pairs:
                    self._try_record(eid_a, eid_b, table, queue)

    def _try_record(self, eid_a: int, eid_b: int, table: OccurrenceTable,
                    queue: BucketQueue) -> bool:
        """Record the pair as an occurrence if it forms a legal digram.

        While a stream is still open, only fully-external digrams are
        admissible: a replacement of an internal-node digram would
        delete the node, but a later chunk may still reference its ID —
        mid-stream, a node's degree is only a lower bound, so
        internality cannot be decided yet (see :meth:`ingest_edge`).
        """
        graph = self.graph
        if eid_a == eid_b:
            return False
        label_a = graph.edge(eid_a).label
        label_b = graph.edge(eid_b).label
        if not (table.can_pair(eid_a, label_b)
                and table.can_pair(eid_b, label_a)):
            return False
        key, occ, _ = digram_key(graph, eid_a, eid_b)
        if key is None or not 1 <= key.rank <= self.max_rank:
            return False
        if self._streaming and not all(key.ext_flags):
            return False
        olist = table.record(key, occ)
        queue.file(olist)
        return True

    # ------------------------------------------------------------------
    # Replacement (paper steps 3-6)
    # ------------------------------------------------------------------
    def _restart_phase(self) -> None:
        """Seed a phase with one counting pass, then drain and settle.

        A phase starts the run, the end of a stream and the
        virtual-edge pass.  This is the one seam a test oracle
        overrides to realign by whole counting passes instead.
        """
        self._phase_counted = False
        for key in self._table.keys():
            self._table.drop_list(key)
        self._dirty = {}
        self._count_all(self._table, self._queue)
        self._drain_and_settle(self._table, self._queue)

    def _drain_and_settle(self, table: OccurrenceTable,
                          queue: BucketQueue) -> bool:
        """Alternate drains and dirty-set settles."""
        progressed = False
        while True:
            progressed |= self._drain_queue(table, queue)
            if not self._settle_dirty(table, queue):
                return progressed

    def _drain_queue(self, table: OccurrenceTable,
                     queue: BucketQueue) -> bool:
        """Replace digrams until the queue empties.

        Returns True if at least one replacement happened (the caller
        then realigns by a dirty-region settle and tries again).
        """
        replaced_any = False
        while True:
            key = queue.pop_most_frequent()
            if key is None:
                return replaced_any
            olist = table.get(key)
            if olist is None:
                continue
            olist.bucket = None
            valid = self._revalidate(key, table, queue)
            if len(valid) < 2:
                # Not active: free its edges so the next realignment
                # can re-pair them differently.
                self._drop_list(key, table)
                continue
            nonterminal = self.alphabet.fresh_nonterminal(key.rank)
            self._grammar.add_rule(nonterminal, rule_graph(key))
            self.stats.digrams_replaced += 1
            for occ in valid:
                if self._replace_occurrence(key, occ, nonterminal,
                                            table, queue):
                    self.stats.occurrences_replaced += 1
                    replaced_any = True
            self._drop_list(key, table)

    def _revalidate(self, key: DigramKey, table: OccurrenceTable,
                    queue: BucketQueue) -> List[Occurrence]:
        """Filter the occurrence list of ``key`` against the live graph.

        Occurrences whose edges vanished are released; occurrences whose
        digram key drifted (externality changed nearby) are re-filed
        under their current key.
        """
        graph = self.graph
        olist = table.get(key)
        if olist is None:
            return []
        valid: List[Occurrence] = []
        for occ in list(olist):
            if not (graph.has_edge(occ.edge_a)
                    and graph.has_edge(occ.edge_b)):
                table.release(key, occ)
                continue
            current, canonical, _ = digram_key(graph, occ.edge_a,
                                               occ.edge_b)
            if current == key:
                valid.append(occ)
                continue
            table.release(key, occ)
            self._mark_occurrence_dirty(occ)
            if (current is not None
                    and 1 <= current.rank <= self.max_rank
                    and (not self._streaming or all(current.ext_flags))
                    and table.can_pair(canonical.edge_a, current.label_b)
                    and table.can_pair(canonical.edge_b, current.label_a)):
                refiled = table.record(current, canonical)
                queue.file(refiled)
        return valid

    def _replace_occurrence(self, key: DigramKey, occ: Occurrence,
                            nonterminal: int, table: OccurrenceTable,
                            queue: BucketQueue) -> bool:
        """Replace one occurrence by a ``nonterminal`` edge.

        Validity is re-checked first: replacing an earlier occurrence of
        the same digram may have changed this one's externality (they
        can share attachment nodes).  Returns True if replaced.
        """
        graph = self.graph
        if not (graph.has_edge(occ.edge_a) and graph.has_edge(occ.edge_b)):
            table.release(key, occ)
            return False
        current, canonical, local = digram_key(graph, occ.edge_a,
                                               occ.edge_b)
        if current != key or canonical != occ:
            table.release(key, occ)
            self._mark_occurrence_dirty(occ)
            if (current is not None
                    and 1 <= current.rank <= self.max_rank
                    and (not self._streaming or all(current.ext_flags))
                    and table.can_pair(canonical.edge_a, current.label_b)
                    and table.can_pair(canonical.edge_b, current.label_a)):
                queue.file(table.record(current, canonical))
            return False
        attachment = replacement_attachment(key, local)
        doomed_nodes = removal_nodes(key, local)
        # Invalidate every other occurrence using these edges (their
        # digram counts drop — paper's update step).
        for eid in occ.edges():
            for affected_key, affected in table.occurrences_of_edge(eid):
                table.release(affected_key, affected)
                self._mark_occurrence_dirty(affected)
                if affected_key != key:
                    stale = table.get(affected_key)
                    if stale is not None:
                        queue.file(stale)
        for node in attachment:
            self._dirty[node] = None
        removed_a = graph.remove_edge(occ.edge_a)
        removed_b = graph.remove_edge(occ.edge_b)
        for node in doomed_nodes:
            graph.remove_node(node)
            self._dirty.pop(node, None)
        new_edge = graph.add_edge(nonterminal, attachment)
        self._index.remove(occ.edge_a, removed_a)
        self._index.remove(occ.edge_b, removed_b)
        self._index.add(new_edge, graph.edge(new_edge))
        self._pair_new_edge(new_edge, table, queue)
        return True

    def _pair_new_edge(self, new_edge: int, table: OccurrenceTable,
                       queue: BucketQueue) -> None:
        """Bounded incremental update around a fresh nonterminal edge.

        For each attachment node (of moderate degree) the new edge is
        offered one pairing with the first compatible incident edge —
        the paper's "first edge in the respective list" selection.
        Anything missed here is recovered by the next realignment.
        """
        graph = self.graph
        for node in graph.edge(new_edge).att:
            if graph.degree(node) > _UPDATE_DEGREE_CAP:
                continue
            for other in graph.incident(node):
                if other == new_edge:
                    continue
                if self._try_record(new_edge, other, table, queue):
                    # The partner's slots changed: its other nodes
                    # must realign at the next settle.
                    for touched in graph.edge(other).att:
                        self._dirty[touched] = None
                    break

    # ------------------------------------------------------------------
    # Incremental bookkeeping
    # ------------------------------------------------------------------
    def _mark_occurrence_dirty(self, occ: Occurrence) -> None:
        """Dirty the (surviving) nodes of a released occurrence."""
        graph = self.graph
        for eid in occ.edges():
            if graph.has_edge(eid):
                for node in graph.edge(eid).att:
                    self._dirty[node] = None

    def _drop_list(self, key: DigramKey, table: OccurrenceTable) -> None:
        """Drop a digram list, dirtying the nodes of freed edges."""
        olist = table.get(key)
        if olist is None:
            return
        for occ in list(olist):
            self._mark_occurrence_dirty(occ)
        table.drop_list(key)

    def _settle_dirty(self, table: OccurrenceTable,
                      queue: BucketQueue) -> bool:
        """Realign the dirty region; True if new active digrams emerged.

        Starting from the dirty nodes, every recorded occurrence in the
        affected region is released — freeing a slot changes the free
        edge sets at the partner edge's other nodes, so the region
        closes under that cascade — and the canonical counting
        construction then re-runs on exactly the affected nodes in ω
        order.  Outside the region the deterministic construction would
        reproduce the kept state verbatim, which makes this boundary
        behave like a full re-count pass at a fraction of the cost.
        """
        graph = self.graph
        pending = [node for node in self._dirty if graph.has_node(node)]
        self._dirty = {}
        if not pending:
            return False
        self.stats.settle_rounds += 1
        affected: Dict[int, None] = {}
        emptied: Dict[DigramKey, None] = {}
        while pending:
            node = pending.pop()
            if node in affected or not graph.has_node(node):
                continue
            affected[node] = None
            for eid in graph.incident(node):
                for key, occ in table.occurrences_of_edge(eid):
                    table.release(key, occ)
                    stale = table.get(key)
                    if stale is not None:
                        queue.file(stale)
                        if not len(stale):
                            emptied[key] = None
                    for freed in occurrence_nodes(graph, occ):
                        if freed not in affected:
                            pending.append(freed)
        for key in emptied:
            olist = table.get(key)
            if olist is not None and not len(olist):
                table.drop_list(key)
        for node in self._omega_sorted(affected):
            if graph.has_node(node):
                self.stats.nodes_recounted += 1
                self._count_around(node, table, queue)
        return bool(len(queue))

    def _omega_sorted(self, nodes: Dict[int, None]) -> List[int]:
        """Sort a node set by ω position (pass-consistent alignment).

        Settles visit nodes in the same order a counting pass would, so
        the greedy pairing construction stays aligned with the global
        one.
        """
        position = self._position
        fallback = len(position)
        return sorted(nodes, key=lambda v: position.get(v, fallback))

    # ------------------------------------------------------------------
    # Virtual edges (paper's extra step after the main loop)
    # ------------------------------------------------------------------
    def _virtual_edge_pass(self) -> None:
        """Link components with virtual edges, re-compress, unlink."""
        graph = self.graph
        components = UnionFind(graph.nodes())
        for _, edge in graph.edges():
            first = edge.att[0]
            for other in edge.att[1:]:
                components.union(first, other)
        if components.set_count <= 1:
            return
        virtual = self.alphabet.ensure_terminal(VIRTUAL_LABEL_NAME, rank=2)
        # Chain component representatives in ω order so that isomorphic
        # components (adjacent under the FP order) become neighbors.
        position = self._position
        representatives: Dict[object, int] = {}
        for node in sorted(graph.nodes(), key=lambda v: position[v]):
            root = components.find(node)
            if root not in representatives:
                representatives[root] = node
        chain = list(representatives.values())
        for left, right in zip(chain, chain[1:]):
            eid = graph.add_edge(virtual, (left, right))
            self._index.add(eid, graph.edge(eid))
            self.stats.virtual_edges_added += 1
        # The virtual edges change externality across the graph, so the
        # paper restarts the algorithm on the augmented graph: this is a
        # fresh phase with its own seed pass (not a re-count).
        self._restart_phase()
        self._remove_virtual_edges(virtual)

    def _remove_virtual_edges(self, virtual: int) -> None:
        """Delete virtual edges from the start graph and every rule.

        Deleting a terminal edge from a right-hand side commutes with
        derivation, so ``val(G)`` afterwards is exactly the original
        graph (each derived virtual edge stems from exactly one virtual
        edge in some rule instance or in the start graph).
        """
        grammar = self._grammar
        graphs = [grammar.start] + [rule.rhs for rule in grammar.rules()]
        for host in graphs:
            for eid in host.edges_with_label(virtual):
                host.remove_edge(eid)
