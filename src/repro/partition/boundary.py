"""Boundary topology: the pinned cross-shard summary and its closure.

When a partitioner cuts an edge, that edge cannot live inside any
shard grammar; it survives verbatim in the *boundary summary*, with
its endpoints pinned external so gRePair provably keeps their
identity.  This module owns everything built on that summary:

:class:`BoundaryGraph`
    The summary itself, in the shard-major global ID space: the raw
    boundary edges, the merged neighborhood maps (``out``/``into``/
    ``undirected``), the labeled ``out_edges``, the per-shard *exit*
    (has an outgoing boundary edge) and *entry* (has an incoming one)
    lists, the within-shard connectivity blocks ``components()``
    merges, and which shards the boundary touches at all.
:class:`BoundaryAutomaton`
    The path language a cross-shard route follows: the universal
    one-state automaton (plain ``reach``) or a compiled pattern DFA
    (``rpq``).  Reach *is* RPQ over one state, so everything below —
    and the planner, and the sharded handle's routes — exists once.
:class:`BoundaryClosure`
    The transitive closure of the *boundary graph* in the product with
    an automaton — the directed graph over ``(boundary node, state)``
    vertices whose arcs are (a) the boundary edges themselves, stepping
    the automaton on their label, and (b) in-shard state-to-state
    connectivity between two boundary nodes of the same shard (one
    probe each, shipped as a single ``batch()`` per shard; for reach
    that probe is the Theorem-6 query).  Any cross-shard path
    decomposes as: an in-shard prefix to the first exit, a walk
    through this graph, and an in-shard suffix from the last entry —
    so with the closure in hand, every cross-shard ``reach`` or ``rpq``
    costs one in-shard batch per endpoint shard plus O(1) closure
    lookups, instead of per-hop chaining.

    Rows are integer bitmasks over the sorted boundary-node list
    (times the state count), and the byte encoding is canonical
    (sorted, delta-coded IDs + fixed-width little-endian rows), so a
    closure loaded from the "GRPS" container is byte-identical to a
    rebuilt one.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, \
    NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import EncodingError
from repro.util.varint import read_uvarint, write_uvarint

__all__ = ["BoundaryAutomaton", "BoundaryClosure", "BoundaryGraph"]


def _bits(mask: int) -> Iterable[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BoundaryGraph:
    """The cross-shard boundary summary, in global (shard-major) IDs.

    Immutable after construction; every map is sorted so downstream
    consumers (query merges, the closure builder, the codec) are
    deterministic.
    """

    __slots__ = ("edges", "blocks", "out", "into", "undirected",
                 "out_edges", "incident", "touched", "exits", "entries",
                 "members", "total_exits", "total_entries", "_bases")

    def __init__(self, edges: List[Tuple[int, Tuple[int, ...]]],
                 blocks: List[List[Tuple[int, ...]]],
                 bases: Sequence[int]) -> None:
        self.edges = edges
        self.blocks = blocks
        self._bases = list(bases)
        shard_count = len(self._bases)
        b_out: Dict[int, set] = {}
        b_in: Dict[int, set] = {}
        b_any: Dict[int, set] = {}
        #: node -> its outgoing rank-2 boundary edges as
        #: ``(label, target)`` pairs, in edge order.
        self.out_edges: Dict[int, List[Tuple[int, int]]] = {}
        for label, att in edges:
            if len(att) == 2:
                source, target = att
                b_out.setdefault(source, set()).add(target)
                b_in.setdefault(target, set()).add(source)
                self.out_edges.setdefault(source, []).append(
                    (label, target))
            for node in att:
                others = b_any.setdefault(node, set())
                others.update(other for other in att if other != node)
        #: node -> sorted boundary successors / predecessors / any.
        self.out = {node: sorted(v) for node, v in b_out.items()}
        self.into = {node: sorted(v) for node, v in b_in.items()}
        self.undirected = {node: sorted(v) for node, v in b_any.items()}
        #: Global IDs of every node incident with a boundary edge.
        self.incident = set(b_any)
        #: Shards at least one boundary edge touches; only these can
        #: be left or re-entered.
        self.touched = {self.owner(node) for node in self.incident}
        exits: List[List[int]] = [[] for _ in range(shard_count)]
        for node in sorted(self.out):
            exits[self.owner(node)].append(node)
        entries: List[List[int]] = [[] for _ in range(shard_count)]
        for node in sorted(self.into):
            entries[self.owner(node)].append(node)
        members: List[List[int]] = [[] for _ in range(shard_count)]
        for node in sorted(self.incident):
            members[self.owner(node)].append(node)
        #: Per-shard sorted boundary-node lists: sources of boundary
        #: edges (exits), targets (entries), and all incident nodes.
        self.exits = exits
        self.entries = entries
        self.members = members
        self.total_exits = sum(len(shard) for shard in exits)
        self.total_entries = sum(len(shard) for shard in entries)

    def owner(self, node: int) -> int:
        """Shard index owning a global node ID (no range checks)."""
        return bisect_right(self._bases, node - 1) - 1

    @property
    def edge_count(self) -> int:
        """Number of boundary edges (the partition's cut size)."""
        return len(self.edges)

    def closure_pairs(self) -> int:
        """In-shard probes a one-state closure build costs (ordered
        pairs); ``|Q|^2`` times that for a ``|Q|``-state automaton."""
        return sum(len(nodes) * (len(nodes) - 1)
                   for nodes in self.members)


class BoundaryAutomaton(NamedTuple):
    """The path language a cross-shard route walks the boundary with.

    A value, not a switch: the closure builder and the sharded
    handle's ``closure / chaining / bfs`` routes read only these
    fields, so plain reachability and regular path queries share one
    mechanism.  Exactly two constructors: :meth:`universal` and
    :meth:`for_pattern`.
    """

    #: Closure-table key: ``None`` for reach, the canonical DFA key
    #: for a pattern (equivalent patterns share one closure).
    key: Any
    dfa: Any
    num_states: int
    start: int
    accept: FrozenSet[int]
    #: ``step(state, label_name)``: the transition on a boundary edge,
    #: ``None`` where the automaton has none.
    step: Callable[[int, Optional[str]], Optional[int]]
    #: ``probe(a, b, q, q2=None)``: the in-shard request "does some
    #: ``a -> b`` path (shard-local IDs) take state ``q`` to ``q2``" —
    #: with ``q2=None``, to any of this query's accept states.
    probe: Callable[..., Tuple[Any, ...]]

    @classmethod
    def universal(cls) -> "BoundaryAutomaton":
        """One state, every label loops: plain reachability.

        Its probes are ``("reach", a, b)``, so in-shard work stays the
        Theorem-6 kernel rather than a one-state RPQ evaluation.
        """
        return cls(None, None, 1, 0, frozenset((0,)),
                   lambda state, name: 0,
                   lambda a, b, q=0, q2=None: ("reach", a, b))

    @classmethod
    def for_pattern(cls, pattern: str, dfa: Any,
                    start: Optional[int] = None,
                    to_state: Optional[int] = None
                    ) -> "BoundaryAutomaton":
        """Wrap a compiled :class:`repro.rpq.regex.PatternDFA`.

        Probes ship the pattern *text*: every evaluator compiles it to
        the same canonical DFA, so state numbers agree end to end.
        ``start`` / ``to_state`` are one query's (already validated)
        state overrides: run from ``start`` instead of the DFA's start
        state, accept in ``{to_state}`` instead of its accepting set.
        """
        tail = () if to_state is None else (to_state,)
        return cls(
            dfa.key, dfa, dfa.num_states,
            dfa.start if start is None else start,
            dfa.accepting if to_state is None else frozenset(tail),
            dfa.step_name,
            lambda a, b, q, q2=None: (
                ("rpq", pattern, a, b, q, *tail) if q2 is None
                else ("rpq", pattern, a, b, q, q2)))


class BoundaryClosure:
    """Transitive closure of the boundary graph x automaton product.

    Vertices are ``(boundary node, state)`` pairs laid out row-major —
    bit/row index ``position(node) * num_states + state`` — over the
    sorted boundary-node list; with one state (plain reachability) a
    vertex is just a boundary node.  ``rows[i]`` has bit ``j`` set iff
    vertex ``j`` is reachable from vertex ``i`` through at least one
    arc (the relation is *not* reflexive; callers add the source
    vertex themselves where the empty path matters).
    """

    __slots__ = ("nodes", "rows", "num_states", "_index")

    def __init__(self, nodes: List[int], rows: List[int],
                 num_states: int = 1) -> None:
        self.nodes = nodes
        self.rows = rows
        self.num_states = num_states
        self._index = {node: position * num_states
                       for position, node in enumerate(nodes)}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, boundary: BoundaryGraph, shards: Sequence[Any],
              bases: Sequence[int], automaton: BoundaryAutomaton,
              label_name: Callable[[int], Optional[str]]
              ) -> "BoundaryClosure":
        """Probe the shards and close the product boundary graph.

        Arcs come from two sources: each boundary edge ``u -l-> v``
        contributes ``(u, q) -> (v, step(q, name(l)))`` for every
        state the automaton can step on that label; and each shard
        answers **one** ``batch()`` of ``automaton.probe`` requests
        covering every ordered pair of its boundary nodes and state
        pair except the identity — including ``a == b`` with
        ``q != q2``, because an in-shard cycle can advance the
        automaton without leaving the node.  Works identically over
        local :class:`repro.api.CompressedGraph` handles and
        socket-proxy shards — ``batch`` is the wire format.
        """
        nodes = sorted(boundary.incident)
        num_states = automaton.num_states
        index = {node: position * num_states
                 for position, node in enumerate(nodes)}
        size = len(nodes) * num_states
        states = range(num_states)
        adjacency = [0] * size
        for label, att in boundary.edges:
            if len(att) != 2:
                continue
            source, target = att
            name = label_name(label)
            for state in states:
                nxt = automaton.step(state, name)
                if nxt is not None:
                    adjacency[index[source] + state] |= \
                        1 << (index[target] + nxt)
        for shard, members in enumerate(boundary.members):
            probes = [(a, b, q, q2)
                      for a in members for b in members
                      for q in states for q2 in states
                      if not (a == b and q == q2)]
            if not probes:
                continue
            base = bases[shard]
            answers = shards[shard].batch(
                [automaton.probe(a - base, b - base, q, q2)
                 for a, b, q, q2 in probes])
            for (a, b, q, q2), matched in zip(probes, answers):
                if matched:
                    adjacency[index[a] + q] |= 1 << (index[b] + q2)
        rows: List[int] = []
        for start in range(size):
            seen = 0
            frontier = adjacency[start]
            while frontier:
                seen |= frontier
                hop = 0
                for bit in _bits(frontier):
                    hop |= adjacency[bit]
                frontier = hop & ~seen
            rows.append(seen)
        return cls(nodes, rows, num_states)

    # ------------------------------------------------------------------
    # Lookups (global node IDs + automaton states in)
    # ------------------------------------------------------------------
    def bit(self, node: int, state: int = 0) -> int:
        """The single-bit mask of one ``(node, state)`` vertex."""
        return 1 << (self._index[node] + state)

    def row_mask(self, node: int, state: int = 0) -> int:
        """Mask of the vertices reachable from ``(node, state)``."""
        return self.rows[self._index[node] + state]

    def mask_of(self, vertices: Iterable[Tuple[int, int]]) -> int:
        """The union mask of several ``(node, state)`` vertices."""
        mask = 0
        for node, state in vertices:
            mask |= 1 << (self._index[node] + state)
        return mask

    def vertices_in(self, mask: int) -> List[Tuple[int, int]]:
        """The ``(node, state)`` vertices a mask selects, ascending."""
        return [(self.nodes[bit // self.num_states],
                 bit % self.num_states)
                for bit in _bits(mask)]

    # ------------------------------------------------------------------
    # Codec (the body of a "GRPS" closure section)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Canonical encoding: delta-coded IDs + fixed-width rows.

        The state count is not part of the body: the ``'C'`` section
        is always one state, and an ``'R'`` entry prefixes it (see
        :func:`repro.encoding.container.encode_closure_table`).
        """
        out = bytearray()
        write_uvarint(out, len(self.nodes))
        previous = 0
        for node in self.nodes:
            write_uvarint(out, node - previous)
            previous = node
        row_bytes = (len(self.nodes) * self.num_states + 7) // 8
        for row in self.rows:
            out.extend(row.to_bytes(row_bytes, "little"))
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes, num_states: int = 1
                   ) -> "BoundaryClosure":
        """Decode a closure body; validates the exact length."""
        try:
            if num_states < 1:
                raise EncodingError("a closure needs >= 1 state")
            count, pos = read_uvarint(data, 0)
            nodes: List[int] = []
            previous = 0
            for _ in range(count):
                delta, pos = read_uvarint(data, pos)
                previous += delta
                nodes.append(previous)
            size = count * num_states
            row_bytes = (size + 7) // 8
            rows: List[int] = []
            for _ in range(size):
                if pos + row_bytes > len(data):
                    raise EncodingError("truncated closure row")
                row = int.from_bytes(data[pos:pos + row_bytes],
                                     "little")
                if row >> size:
                    raise EncodingError(
                        "closure row has bits beyond the vertex count")
                rows.append(row)
                pos += row_bytes
        except (EncodingError, IndexError, ValueError) as exc:
            raise EncodingError(f"corrupt closure section: {exc}") \
                from None
        if pos != len(data):
            raise EncodingError(
                f"{len(data) - pos} trailing bytes in closure section")
        return cls(nodes, rows, num_states)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BoundaryClosure)
                and self.nodes == other.nodes
                and self.num_states == other.num_states
                and self.rows == other.rows)

    def __repr__(self) -> str:
        reachable = sum(row.bit_count() for row in self.rows)
        return (f"BoundaryClosure(nodes={len(self.nodes)}, "
                f"states={self.num_states}, pairs={reachable})")
