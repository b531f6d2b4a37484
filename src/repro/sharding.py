"""Partitioned serving: :class:`ShardedCompressedGraph`.

One grammar per graph stops scaling when the graph outgrows a single
compression run (or a single machine's build budget).  This module
keeps the :class:`repro.api.CompressedGraph` serving interface but
spreads the graph over ``k`` independent per-shard grammars.  It is
orchestration glue over the :mod:`repro.partition` layer, which owns
the actual partition topology:

* **partition** — a pluggable partitioner
  (:data:`repro.partition.PARTITIONERS`: ``hash`` by default,
  ``connectivity`` keeps whole components together, ``bfs`` and
  ``label`` minimize the edge cut so even a single giant component
  splits with a small boundary) assigns every node to a shard;
  :func:`repro.partition.build_plan` scores the cut
  (``boundary_edges`` / ``cut_ratio`` / ``balance``, see
  :attr:`ShardedCompressedGraph.partition_stats`).
* **pin the boundary** — edges whose attachment spans two shards
  cannot live inside any shard grammar; they are kept verbatim in a
  :class:`repro.partition.BoundaryGraph`.  Their endpoints are marked
  **external** in the shard subgraphs before compression: gRePair
  never folds an external node into a rule (see
  :func:`repro.core.digram.occurrence_key`), so every boundary node
  provably survives in its shard's start graph with its original ID.
  That survival is what makes boundary structures translatable into
  the canonical per-shard query numbering — the one piece of node
  identity compression otherwise erases.
* **compress shards independently** — optionally fanned out over a
  thread pool (``parallel="thread"``) or forked worker processes
  (``parallel="process"``, one compression per core — gRePair is pure
  Python, so only processes sidestep the GIL); each shard becomes a
  full ``CompressedGraph`` handle.
* **serve** — the global ID space is shard-major: shard ``i`` owns the
  contiguous ID block ``base_i + 1 .. base_i + n_i`` where the local
  IDs are the shard's own canonical ``val`` numbering.  Per-node
  queries (``out`` / ``in_`` / ``neighborhood`` / ``degree``) route to
  the owning shard and merge that node's boundary edges;
  ``components`` combines per-shard counts with a union-find over the
  boundary summary built at partition time; ``path`` runs BFS over
  the merged neighborhoods.  Cross-shard ``reach`` and ``rpq`` are
  **one mechanism** — reach is the regular path query of the
  universal one-state :class:`repro.partition.BoundaryAutomaton` —
  planned per query by a :class:`repro.partition.ReachPlanner`: a
  lazily built (and container-persisted)
  :class:`repro.partition.BoundaryClosure` per automaton answers
  with one in-shard batch per endpoint shard plus O(1) closure hops;
  when the closure is over budget the planner falls back to batched
  boundary chaining (sparse) or merged-BFS (dense).  A differential
  suite asserts every answer equals the unsharded handle's under
  every strategy.
* **persist** — :meth:`save` / :meth:`open` use the multi-shard
  container format of :mod:`repro.encoding.container` ("GRPS", which
  owns every byte layout): one routing-summary meta section plus one
  complete "GRPR" container per shard, with the existing per-section
  size accounting kept per shard, plus optional closure trailer
  sections so warmed boundary closures survive the round trip and
  cold-started servers skip the rebuild.
* **cache + batch** — the same per-handle query-result LRU as the
  unsharded facade, and ``batch(..., parallel=True)`` plans a batch
  (via :func:`repro.serving.plan_batch`): deduplicates it,
  pre-filters the LRU, groups shard-local requests per shard (each
  group ships through the shard handle's own ``batch()`` — the wire
  format), and fans the groups out across threads.  The handle is a
  :class:`repro.serving.GraphService`, so the typed ``execute()``
  surface, every executor, and :func:`repro.serving.serve` (one
  socket-served process per shard behind a router, with
  :class:`repro.serving.ReplicatedShard` links standing in for
  the local shard handles) all apply unchanged — including the
  planner and the closure, which the router consults identically.

:func:`open_compressed` dispatches on the container magic and returns
whichever handle type a file holds.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import deque
from itertools import repeat
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api import DEFAULT_CACHE_SIZE, CompressedGraph
from repro.core.alphabet import Alphabet
from repro.core.grammar import SLHRGrammar
from repro.core.hypergraph import Hypergraph
from repro.core.pipeline import GRePairSettings
from repro.encoding.container import (
    DecodedContainer,
    ShardedFile,
    ShardedMeta,
    container_arity,
    decode_closure_table,
    decode_sharded_container,
    decode_sharded_meta,
    encode_closure_table,
    encode_sharded_container,
    encode_sharded_meta,
    is_sharded_container,
    map_file,
)
from repro.exceptions import EncodingError, GrammarError, QueryError
from repro.partition import (
    PARTITIONERS,
    BoundaryAutomaton,
    BoundaryClosure,
    BoundaryGraph,
    ReachPlanner,
    bfs_partition,
    build_plan,
    connectivity_partition,
    hash_partition,
    label_partition,
    resolve_partitioner,
)
from repro.queries.cache import QueryCache
from repro.rpq.counts import validate_args as _validate_pattern_count
from repro.rpq.engine import _resolve_states
from repro.rpq.regex import PatternDFA, compile_pattern
from repro.serving.executors import evaluate_request, fork_map
from repro.serving.protocol import (
    GraphService,
    QueryKind,
    QueryRequest,
    QueryResult,
)
from repro.util.unionfind import UnionFind

__all__ = [
    "PARTITIONERS",
    "ShardedCompressedGraph",
    "bfs_partition",
    "connectivity_partition",
    "hash_partition",
    "label_partition",
    "open_compressed",
]

#: Plain reachability: the one-state instance of the boundary machinery.
_REACH = BoundaryAutomaton.universal()


def _terminal_order(alphabet: Alphabet) -> Dict[int, int]:
    """Label -> 1-based terminal position (the compact container ID).

    ``encode_grammar`` compacts every shard alphabet the same way —
    terminals first, in iteration order — so this single mapping
    translates boundary-edge labels into the ID space every *loaded*
    shard grammar uses.
    """
    return {label: position for position, label in
            enumerate(alphabet.terminals(), start=1)}


def _compress_shard(subgraph: Hypergraph, alphabet: Alphabet,
                    settings: GRePairSettings, validate: bool,
                    cache_size: int) -> CompressedGraph:
    """Compress one pinned shard subgraph into its own handle.

    The pin (the subgraph's ``ext`` sequence) only exists to steer the
    compressor; it is stripped from the resulting start graph before
    the handle is created, restoring an ordinary rank-0 grammar.
    """
    if subgraph.num_edges == 0:
        # gRePair has nothing to do; wrap the trivial grammar directly
        # (also covers shards that received no nodes at all).  Original
        # node IDs are kept so the boundary locator works unchanged.
        start = Hypergraph()
        for node in sorted(subgraph.nodes()):
            start.add_node(node)
        return CompressedGraph.from_grammar(
            SLHRGrammar(alphabet.copy(), start), cache_size=cache_size)
    handle = CompressedGraph.compress(subgraph, alphabet, settings,
                                      validate=validate,
                                      cache_size=cache_size)
    handle.grammar.start.set_external(())
    return handle


# ----------------------------------------------------------------------
# The sharded serving handle
# ----------------------------------------------------------------------
class ShardedCompressedGraph(GraphService):
    """k per-shard grammars behind one ``CompressedGraph``-shaped API.

    Construct through :meth:`compress`, :meth:`open` or
    :meth:`from_bytes`.  Global node IDs are shard-major: shard ``i``
    owns ``bases[i] + 1 .. bases[i] + n_i``, local IDs being the
    shard's canonical ``val`` numbering (the same numbering an
    unsharded handle would use for that shard alone).  The handle is
    immutable after construction and safe to share between threads;
    every per-shard index — and the boundary closure — builds lazily,
    at most once.
    """

    def __init__(self, shards: List[CompressedGraph],
                 alphabet: Optional[Alphabet],
                 meta: ShardedMeta,
                 cache_size: int = DEFAULT_CACHE_SIZE,
                 container: Optional[ShardedFile] = None,
                 container_key: Optional[Tuple[Any, ...]] = None,
                 closures: Sequence[Tuple[Optional[PatternDFA],
                                          BoundaryClosure]] = (),
                 label_names: Optional[Sequence[
                     Tuple[int, Optional[str]]]] = None) -> None:
        """Internal: ``meta`` must already be in global IDs, with
        boundary-edge labels in the ID space of ``alphabet``.

        Use the classmethod constructors.  ``closures`` seeds the
        closure table with ``(pattern DFA, closure)`` pairs (``None``
        for the DFA marks the reach closure).  ``label_names``
        substitutes for the alphabet when the handle fronts
        socket-proxy shards (the router has no grammar of its own): a
        ``(label, name)`` table for the terminals boundary edges carry.
        """
        self._shards = shards
        self._alphabet = alphabet
        self._label_table: Optional[Dict[int, Optional[str]]] = (
            dict(label_names) if label_names is not None else None)
        self._extrema = meta.extrema
        self._degree_error = meta.degree_error
        self._partitioner = meta.partitioner
        self._cache = QueryCache(cache_size)
        self._lock = threading.RLock()
        self._container = container
        self._container_key = container_key
        self._bases: List[int] = []
        base = 0
        for count in meta.shard_nodes:
            self._bases.append(base)
            base += count
        self._total_nodes = base
        self._shard_nodes = list(meta.shard_nodes)
        self._components: Optional[int] = None
        #: True iff every edge of the full graph has rank 2; mirrors
        #: the unsharded handle, whose reach raises on any hyperedge.
        self._simple = meta.simple
        #: The boundary topology (summaries, exits/entries, blocks).
        self._boundary = BoundaryGraph(meta.boundary_edges, meta.blocks,
                                       self._bases)
        #: The cross-shard cost model (shared with the router).
        self._planner = ReachPlanner(self._boundary, self._total_nodes)
        #: automaton key -> (pattern DFA or None, closure): ``None``
        #: keys the reach closure, a canonical DFA key a pattern's.
        self._closures: Dict[Any, Tuple[Optional[PatternDFA],
                                        BoundaryClosure]] = {}
        #: automaton key -> the lock its build holds, so every closure
        #: is built at most once without a handle-wide lock.
        self._closure_builds: Dict[Any, threading.Lock] = {}
        boundary_nodes = sorted(self._boundary.incident)
        for dfa, closure in closures:
            if closure.nodes != boundary_nodes:
                # A structurally valid closure over the wrong node set
                # (a spliced or corrupted container) must fail here,
                # like the meta/shard-count mismatch does — not as a
                # KeyError from the first query on the closure route.
                raise EncodingError(
                    "closure section covers a different boundary node "
                    "set than the container meta"
                )
            self._closures[None if dfa is None else dfa.key] = (
                dfa, closure)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def compress(cls, graph: Hypergraph, alphabet: Alphabet,
                 settings: Optional[GRePairSettings] = None,
                 shards: int = 4,
                 partitioner: Union[str, Callable[[Hypergraph, int],
                                                  Dict[int, int]]] = "hash",
                 parallel: Union[bool, str] = False,
                 max_workers: Optional[int] = None,
                 validate: bool = True,
                 cache_size: int = DEFAULT_CACHE_SIZE
                 ) -> "ShardedCompressedGraph":
        """Partition ``graph``, compress every shard, build the handle.

        ``partitioner`` is a name from
        :data:`repro.partition.PARTITIONERS` or any
        ``(graph, shards) -> {node: shard}`` callable covering every
        node with values in ``range(shards)``.  The per-shard
        compressions are independent by construction; ``parallel``
        picks where they run: ``False`` sequentially, ``True`` or
        ``"thread"`` on a thread pool, ``"process"`` on **forked
        worker processes** (one compression per core — the thread
        pool is GIL-bound, so CPU-heavy builds only scale this way;
        each worker ships its finished grammar back to the parent).
        """
        if shards < 1:
            raise GrammarError(f"shards must be >= 1, got {shards}")
        if settings is None:
            settings = GRePairSettings()
        partition_fn, partitioner_name = resolve_partitioner(partitioner)
        assign = partition_fn(graph, shards)
        missing = [node for node in graph.nodes() if node not in assign]
        if missing:
            raise GrammarError(
                f"partitioner left {len(missing)} nodes unassigned "
                f"(first: {missing[:3]})"
            )
        bad = {shard for shard in assign.values()
               if not 0 <= shard < shards}
        if bad:
            raise GrammarError(
                f"partitioner produced out-of-range shards {sorted(bad)}")
        plan = build_plan(graph, assign, shards)

        def build(index: int) -> CompressedGraph:
            return _compress_shard(plan.subgraphs[index], alphabet,
                                   settings, validate, cache_size)

        mode = {False: None, True: "thread"}.get(parallel, parallel)
        if mode not in (None, "thread", "process"):
            raise GrammarError(
                f"unknown parallel mode {parallel!r}; expected False, "
                "True, 'thread' or 'process'"
            )
        if mode == "process" and shards > 1:
            # Fork workers: each compresses its shards and ships the
            # finished grammar (+ result metadata) back over a pipe;
            # locks and handles never cross the process boundary.
            def build_payload(index: int):
                handle = build(index)
                return handle._grammar, handle.result

            payloads = fork_map(
                [lambda index=index: build_payload(index)
                 for index in range(shards)],
                max_workers=max_workers)
            handles = [CompressedGraph(grammar, result=result,
                                       cache_size=cache_size)
                       for grammar, result in payloads]
        elif mode == "thread" and shards > 1:
            from concurrent.futures import ThreadPoolExecutor
            workers = max_workers or min(8, shards)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                handles = list(pool.map(build, range(shards)))
        else:
            handles = [build(index) for index in range(shards)]

        # Translate the boundary summary into the shard-major global ID
        # space.  Boundary nodes survive in the shard start graphs (the
        # pin guarantees it), and canonicalization numbers start nodes
        # 1..m in ascending original-ID order — so a boundary node's
        # local ID is its rank among the surviving start nodes.
        locators: List[Dict[int, int]] = []
        shard_nodes: List[int] = []
        for index, handle in enumerate(handles):
            survivors = sorted(handle.grammar.start.nodes())
            locator = {original: position for position, original in
                       enumerate(survivors, start=1)}
            for pinned in plan.boundary_nodes[index]:
                if pinned not in locator:  # pragma: no cover - guarded
                    raise GrammarError(
                        f"boundary node {pinned} was folded into a rule "
                        f"of shard {index}; the external pin failed"
                    )
            locators.append(locator)
            count = handle.node_count()
            if count != plan.subgraphs[index].node_size:
                raise GrammarError(
                    f"shard {index} derives {count} nodes but was "
                    f"assigned {plan.subgraphs[index].node_size}"
                )
            shard_nodes.append(count)
        bases = [0] * shards
        for index in range(1, shards):
            bases[index] = bases[index - 1] + shard_nodes[index - 1]

        def to_global(node: int) -> int:
            shard = assign[node]
            return bases[shard] + locators[shard][node]

        boundary_edges = [
            (label, tuple(to_global(node) for node in att))
            for label, att in plan.boundary_edges
        ]
        blocks = [
            [tuple(sorted(to_global(node) for node in block))
             for block in shard_blocks]
            for shard_blocks in plan.blocks
        ]
        return cls(handles, alphabet.copy(),
                   ShardedMeta(shard_nodes, boundary_edges, blocks,
                               plan.extrema, plan.degree_error,
                               plan.simple, partitioner_name),
                   cache_size=cache_size)

    @classmethod
    def from_bytes(cls, buf: Union[bytes, bytearray, memoryview,
                                   ShardedFile],
                   cache_size: int = DEFAULT_CACHE_SIZE
                   ) -> "ShardedCompressedGraph":
        """Load a handle from serialized "GRPS" container bytes.

        This is the full-open path: every shard is decoded (a local
        handle serves all of them), so all blobs materialize.  Readers
        that own a subset of shards decode the
        :class:`~repro.encoding.container.DecodedContainer` themselves
        and materialize only their own — see
        :class:`repro.serving.router.ShardHost`.
        """
        if isinstance(buf, ShardedFile):
            data = buf.data
        elif isinstance(buf, bytearray):
            data = bytes(buf)  # defend against caller mutation
        else:
            data = buf
        parsed = decode_sharded_container(data)
        shards = [CompressedGraph.from_bytes(blob, cache_size=cache_size)
                  for blob in parsed.shards]
        # Every shard was compressed from a copy of one input alphabet,
        # so their terminal lists agree up to pass-minted extras (the
        # virtual-edge label) appended at the end.  Boundary labels
        # only reference the shared prefix; verify exactly that.
        def signature(handle: CompressedGraph
                      ) -> List[Tuple[int, Optional[str]]]:
            terminal_alphabet = handle.grammar.alphabet
            return [(terminal_alphabet.rank(label),
                     terminal_alphabet.name(label))
                    for label in terminal_alphabet.terminals()]

        reference_signature = signature(shards[0])
        for index, shard in enumerate(shards[1:], start=1):
            shard_signature = signature(shard)
            common = min(len(reference_signature), len(shard_signature))
            if shard_signature[:common] != reference_signature[:common]:
                raise EncodingError(
                    f"shard {index} terminal alphabet differs from "
                    "shard 0; the container was not produced by one "
                    "build"
                )
        return cls.from_container(parsed, shards, cache_size=cache_size)

    @classmethod
    def from_container(cls, parsed: DecodedContainer,
                       shards: List[Any],
                       cache_size: int = DEFAULT_CACHE_SIZE,
                       label_names: Optional[Sequence[
                           Tuple[int, Optional[str]]]] = None
                       ) -> "ShardedCompressedGraph":
        """Build the handle over an already parsed container.

        ``shards`` answer for the container's shard blobs, in order:
        local :class:`CompressedGraph` handles (the full-open path —
        boundary labels then resolve through shard 0's alphabet), or
        socket proxies plus the ``label_names`` table their servers
        reported (the router, which owns no grammar).  Only the meta
        and closure trailers are materialized here.
        """
        meta = decode_sharded_meta(parsed.meta, parsed.num_shards)
        if len(meta.shard_nodes) != len(shards):
            raise EncodingError(
                f"meta lists {len(meta.shard_nodes)} shards, container "
                f"holds {len(shards)}"
            )
        closures: List[Tuple[Optional[PatternDFA], BoundaryClosure]] = []
        if parsed.has_closure:
            closures.append(
                (None, BoundaryClosure.from_bytes(parsed.closure)))
        if parsed.has_rpq_closures:
            for dfa_bytes, num_states, body in decode_closure_table(
                    parsed.rpq_closures):
                dfa = PatternDFA.from_bytes(dfa_bytes)
                if num_states != dfa.num_states:
                    raise EncodingError(
                        "rpq closure state count disagrees with its "
                        "pattern DFA"
                    )
                closures.append(
                    (dfa, BoundaryClosure.from_bytes(body, num_states)))
        # Like CompressedGraph.from_bytes: remember the k the file was
        # encoded with so save()/to_bytes() reuse the loaded bytes only
        # when the requested parameters match.
        return cls(shards,
                   None if label_names is not None
                   else shards[0].grammar.alphabet,
                   meta, cache_size=cache_size,
                   container=ShardedFile(
                       data=parsed.data,
                       section_bytes=parsed.section_bytes()),
                   container_key=(True,
                                  container_arity(parsed.shard_view(0)),
                                  parsed.has_closure,
                                  sum(dfa is not None
                                      for dfa, _ in closures)),
                   closures=closures, label_names=label_names)

    @classmethod
    def open(cls, path: Union[str, Path],
             cache_size: int = DEFAULT_CACHE_SIZE
             ) -> "ShardedCompressedGraph":
        """Load a handle from a ``.grps`` container file (mmap-backed)."""
        return cls.from_bytes(map_file(path), cache_size=cache_size)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_container(self, include_names: bool = True, k: int = 2,
                     include_closure: Optional[bool] = None
                     ) -> ShardedFile:
        """Serialize to the multi-shard container format.

        ``include_closure=None`` (the default) persists the boundary
        closure exactly when it is already built — so a warmed handle
        round-trips its closure for free and a cold handle pays
        nothing; ``True`` forces the build first, ``False`` drops it.
        Closures :meth:`warm_closure` built for patterns follow the
        same default: they ride along in the ``'R'`` trailer section
        (dropped with ``include_closure=False``).
        Cached per parameter set: loaded handles keep reporting the
        file they came from, and repeated ``sizes``/``total_bytes``
        accesses do not re-encode every shard.
        """
        with self._lock:
            patterns = (sorted(
                ((dfa.to_bytes(), closure)
                 for dfa, closure in self._closures.values()
                 if dfa is not None), key=lambda entry: entry[0])
                if include_closure is not False else [])
            if include_closure is None:
                include_closure = self.closure_built
            key = (include_names, k, bool(include_closure),
                   len(patterns))
            if self._container is not None and self._container_key == key:
                return self._container
        order = _terminal_order(self._alphabet)
        meta = encode_sharded_meta(ShardedMeta(
            self._shard_nodes,
            [(order[label], att) for label, att in self._boundary.edges],
            self._boundary.blocks, self._extrema, self._degree_error,
            self._simple, self._partitioner))
        blobs = [shard.to_bytes(include_names=include_names, k=k)
                 for shard in self._shards]
        container = encode_sharded_container(
            meta, blobs,
            self.warm_closure().to_bytes() if include_closure else None,
            encode_closure_table(
                [(dfa_bytes, closure.num_states, closure.to_bytes())
                 for dfa_bytes, closure in patterns])
            if patterns else None)
        with self._lock:
            self._container = container
            self._container_key = key
        return container

    def _current_container(self) -> ShardedFile:
        """The existing container if any, else a default encoding."""
        return self._container or self.to_container()

    def to_bytes(self, include_names: bool = True, k: int = 2,
                 include_closure: Optional[bool] = None) -> bytes:
        """Serialize to "GRPS" container bytes."""
        data = self.to_container(include_names, k, include_closure).data
        return data if isinstance(data, bytes) else bytes(data)

    def save(self, path: Union[str, Path], include_names: bool = True,
             k: int = 2,
             include_closure: Optional[bool] = None) -> ShardedFile:
        """Write the container to ``path``; returns the container."""
        container = self.to_container(include_names, k, include_closure)
        container.write(path)
        return container

    @property
    def sizes(self) -> Dict[str, int]:
        """Per-section bytes: ``meta`` plus ``shard<i>/<section>``
        (plus ``closure`` when persisted).

        Loaded handles report the sections parsed from the loaded
        file, exactly like :attr:`CompressedGraph.sizes`.
        """
        return dict(self._current_container().section_bytes)

    @property
    def total_bytes(self) -> int:
        """Size of the serialized container in bytes."""
        return self._current_container().total_bytes

    def bits_per_edge(self, num_edges: Optional[int] = None) -> float:
        """bpe of the serialized container (the paper's size metric)."""
        if num_edges is None:
            num_edges = self.edge_count()
        return self._current_container().bits_per_edge(num_edges)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of per-shard grammars."""
        return len(self._shards)

    @property
    def shards(self) -> List[CompressedGraph]:
        """The per-shard handles (shared, not copies)."""
        return list(self._shards)

    @property
    def alphabet(self) -> Alphabet:
        """The terminal alphabet shared by every shard."""
        return self._alphabet

    @property
    def boundary(self) -> BoundaryGraph:
        """The boundary topology (summaries, exits/entries, blocks)."""
        return self._boundary

    @property
    def boundary_edge_count(self) -> int:
        """Edges of the input that cross shards (kept uncompressed)."""
        return self._boundary.edge_count

    @property
    def partitioner(self) -> str:
        """Name of the partitioner that produced this sharding."""
        return self._partitioner

    @property
    def planner(self) -> ReachPlanner:
        """The cross-shard route planner (cost model + overrides)."""
        return self._planner

    @property
    def closure_built(self) -> bool:
        """Whether the reach closure exists (no side effects)."""
        return None in self._closures

    @property
    def closure_persisted(self) -> bool:
        """Whether the current container carries a closure section."""
        container = self._container
        return (container is not None
                and "closure" in container.section_bytes)

    def warm_closure(self, pattern: Optional[str] = None
                     ) -> BoundaryClosure:
        """Force a boundary closure now (built at most once per key).

        Without a pattern: the reach closure.  With one: the product
        closure of its canonical DFA (equivalent patterns share it).
        One in-shard ``batch()`` per shard covers every ordered pair
        of boundary vertices, after which every cross-shard query of
        that automaton costs one batch per endpoint shard.  Safe to
        call concurrently: callers asking for a key whose build is in
        flight wait for it rather than probing the shards again, and
        builds of different keys do not serialize.  Persisted by
        :meth:`to_container`.  Raises :class:`QueryError` for
        non-simple graphs — their ``reach``/``rpq`` raise anyway, so a
        closure could never be used.
        """
        return self._closure_for(
            _REACH if pattern is None else BoundaryAutomaton.for_pattern(
                pattern, compile_pattern(pattern)))

    def _closure_for(self, automaton: BoundaryAutomaton
                     ) -> BoundaryClosure:
        key = automaton.key
        entry = self._closures.get(key)
        if entry is None:
            if not self._simple:
                raise QueryError(
                    "the boundary closure requires a simple derived "
                    "graph; found a terminal hyperedge"
                )
            with self._lock:
                building = self._closure_builds.setdefault(
                    key, threading.Lock())
            # One builder per key; its waiters block here, not on the
            # handle-wide lock, and find the entry when they get in
            # (or build it themselves if the first build failed).
            with building:
                entry = self._closures.get(key)
                if entry is None:
                    entry = (automaton.dfa, BoundaryClosure.build(
                        self._boundary, self._shards, self._bases,
                        automaton, self._label_name))
                    with self._lock:
                        self._closures[key] = entry
        return entry[1]

    @property
    def partition_stats(self) -> Dict[str, float]:
        """Cut statistics of this partition: size, ratio, balance.

        Same keys as :func:`repro.partition.cut_statistics`
        (``boundary_edges`` / ``cut_ratio`` / ``balance``), derived
        from the handle itself so loaded containers report them too.
        Counts edges on the raw shard grammars (canonicalization does
        not change edge counts), so reading this never forces the
        shards' lazy query indexes.
        """
        total_edges = self._boundary.edge_count + sum(
            (shard.grammar.derived_edge_count()
             if hasattr(shard, "grammar")     # socket-proxy shards
             else shard.edge_count())         # answer over the wire
            for shard in self._shards)
        ideal = (self._total_nodes / len(self._shards)
                 if self._shards else 0.0)
        return {
            "boundary_edges": self._boundary.edge_count,
            "cut_ratio": (self._boundary.edge_count / total_edges
                          if total_edges else 0.0),
            "balance": (max(self._shard_nodes) / ideal
                        if ideal else 1.0),
        }

    @property
    def canonicalizations(self) -> int:
        """Total canonicalization passes across all shard handles."""
        return sum(shard.canonicalizations for shard in self._shards)

    @property
    def index_built(self) -> bool:
        """Whether every shard's lazy query index exists."""
        return all(shard.index_built for shard in self._shards)

    @property
    def stats(self) -> Dict[str, object]:
        """Aggregate build statistics over the shards."""
        per_shard = [shard.stats for shard in self._shards]
        return {
            "shards": len(self._shards),
            "partitioner": self._partitioner,
            "boundary_edges": self._boundary.edge_count,
            "boundary_nodes": len(self._boundary.incident),
            "closure_built": self.closure_built,
            "closure_persisted": self.closure_persisted,
            "rpq_closures": len(self._closures) - self.closure_built,
            "shard_nodes": list(self._shard_nodes),
            "shard_grammar_sizes": [shard.grammar.size
                                    for shard in self._shards],
            "per_shard": per_shard,
        }

    def summary(self) -> str:
        """One-line description of the handle."""
        total_rules = sum(shard.grammar.num_rules
                          for shard in self._shards)
        total_size = sum(shard.grammar.size for shard in self._shards)
        return (f"{len(self._shards)} shards "
                f"({self._partitioner}), {total_rules} rules, "
                f"sum|G|={total_size}, "
                f"{self._boundary.edge_count} boundary edges, "
                f"{self._total_nodes} nodes")

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _owner(self, node_id: int) -> int:
        """Shard index owning a global node ID."""
        if (type(node_id) is not int
                or not 1 <= node_id <= self._total_nodes):
            raise QueryError(
                f"node ID {node_id} out of range 1..{self._total_nodes}"
            )
        return bisect_right(self._bases, node_id - 1) - 1

    def _local(self, node_id: int, shard: int) -> int:
        return node_id - self._bases[shard]

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def decompress(self, max_edges: Optional[int] = None) -> Hypergraph:
        """Expand the full graph with the global (shard-major) numbering.

        The union of the per-shard ``val`` graphs, offset by the shard
        bases, plus the boundary edges — exactly the ID space every
        query answers in.
        """
        merged = Hypergraph()
        for node in range(1, self._total_nodes + 1):
            merged.add_node(node)
        remaining = max_edges
        for shard_index, shard in enumerate(self._shards):
            base = self._bases[shard_index]
            val = shard.decompress(max_edges=remaining)
            for _, edge in val.edges():
                merged.add_edge(edge.label,
                                tuple(node + base for node in edge.att))
            if remaining is not None:
                remaining -= val.num_edges
                if remaining <= 0:
                    return merged
        for label, att in self._boundary.edges:
            merged.add_edge(label, att)
            if remaining is not None:
                remaining -= 1
                if remaining <= 0:
                    break
        return merged

    # ------------------------------------------------------------------
    # Neighborhood queries (route to the owner, merge the boundary)
    # ------------------------------------------------------------------
    def _merged_neighbors(self, node_id: int, direction: str
                          ) -> List[int]:
        shard = self._owner(node_id)
        local = self._local(node_id, shard)
        base = self._bases[shard]
        handle = self._shards[shard]
        if direction == "out":
            inner = handle.out(local)
            extra = self._boundary.out.get(node_id)
        elif direction == "in":
            inner = handle.in_(local)
            extra = self._boundary.into.get(node_id)
        else:
            inner = handle.neighborhood(local)
            extra = self._boundary.undirected.get(node_id)
        result = [node + base for node in inner]
        if extra:
            merged = set(result)
            merged.update(extra)
            return sorted(merged)
        return result

    # ------------------------------------------------------------------
    # Speed-up queries (merge per-shard summaries)
    # ------------------------------------------------------------------
    def _reach_uncached(self, source_id: int, target_id: int) -> bool:
        """(s,t)-reachability across shards, planned per query.

        Same-shard pairs are first asked of the owning shard's
        Theorem-6 query verbatim (``O(|G_i|)``).  Whatever that does
        not settle takes the cross-shard route of :meth:`_route` with
        the universal one-state automaton — the very code path
        :meth:`_rpq_uncached` takes with a pattern DFA.
        """
        if not self._simple:
            raise QueryError(
                "reachability requires a simple derived graph; found "
                "a terminal hyperedge"
            )
        source_shard = self._owner(source_id)
        target_shard = self._owner(target_id)
        if (source_shard == target_shard
                and self._shards[source_shard].reach(
                    self._local(source_id, source_shard),
                    self._local(target_id, source_shard))):
            return True
        return self._route(_REACH, source_id, target_id,
                           source_shard, target_shard)

    def _component_count(self) -> int:
        """Components of the full graph from per-shard counts.

        Per-shard grammar counts (the paper's one-pass CMSO function)
        are merged with the partition-time boundary summary: every
        within-shard connectivity class of boundary nodes is one
        component of the disjoint union, and a union-find over those
        classes under the boundary edges counts exactly how many
        merges the boundary performs.
        """
        with self._lock:
            if self._components is not None:
                return self._components
        shard_total = sum(shard.components() for shard in self._shards)
        roots: Dict[int, int] = {}
        for shard_blocks in self._boundary.blocks:
            for block in shard_blocks:
                anchor = block[0]
                for node in block:
                    roots[node] = anchor
        merge = UnionFind(set(roots.values()))
        before = merge.set_count
        for _, att in self._boundary.edges:
            anchor = roots[att[0]]
            for node in att[1:]:
                merge.union(anchor, roots[node])
        count = shard_total - (before - merge.set_count)
        with self._lock:
            self._components = count
        return count

    def _degree_extrema(self) -> Dict[str, int]:
        """The true multiplicity-counting extrema, precomputed over the
        whole input at partition time (boundary edges contribute to
        boundary nodes' degrees, so no single shard could answer)."""
        if self._extrema is None:
            raise QueryError(self._degree_error
                             or "degree extrema unavailable")
        return dict(self._extrema)

    # ------------------------------------------------------------------
    # Regular path queries / pattern counts
    # ------------------------------------------------------------------
    def _label_name(self, label: int) -> Optional[str]:
        """The name of a terminal label, alphabet or proxy table."""
        if self._alphabet is not None:
            return self._alphabet.name(label)
        if self._label_table is not None:
            return self._label_table.get(label)
        return None

    def _out_edges_uncached(self, node_id: int) -> List[List[int]]:
        """The owning shard's labeled adjacency (shifted into global
        IDs) merged with the node's outgoing boundary edges."""
        shard = self._owner(node_id)
        base = self._bases[shard]
        inner = self._shards[shard].batch(
            [("out_edges", node_id - base)])[0]
        merged = {(label, target + base) for label, target in inner}
        merged.update(self._boundary.out_edges.get(node_id, ()))
        return [list(pair) for pair in sorted(merged)]

    def _pattern_count_uncached(self, sub_kind: str,
                                *args: Any) -> int:
        """Per-shard grammar-pass counts plus exact boundary
        corrections: boundary edges contribute their own label counts,
        and for ``digram``/``star`` the mixed terms at boundary nodes
        are reconstructed from batched per-node labeled-degree probes
        (``node_in``/``node_out``) against the owning shards."""
        _validate_pattern_count(sub_kind, args)
        if not self._simple:
            raise QueryError(
                "pattern counts require a simple derived graph "
                "(rank-2 edges only); found a hyperedge")
        if sub_kind == "label":
            return (self._shard_count_sum("label", args[0])
                    + self._boundary_label_count(args[0]))
        if sub_kind in ("node_out", "node_in"):
            name, node = args
            shard = self._owner(node)
            inner = self._shards[shard].batch(
                [("pattern_count", sub_kind, name,
                  node - self._bases[shard])])[0]
            return inner + self._boundary_degree(name, node, sub_kind)
        if sub_kind == "star":
            return self._star_count(args[0], args[1])
        return self._digram_count(args[0], args[1])

    def _shard_count_sum(self, sub_kind: str, *args: Any) -> int:
        return sum(shard.batch([("pattern_count", sub_kind, *args)])[0]
                   for shard in self._shards)

    def _boundary_label_count(self, name: str) -> int:
        return sum(1 for label, att in self._boundary.edges
                   if len(att) == 2 and self._label_name(label) == name)

    def _boundary_degree(self, name: str, node: int,
                         direction: str) -> int:
        position = 0 if direction == "node_out" else 1
        return sum(1 for label, att in self._boundary.edges
                   if len(att) == 2 and att[position] == node
                   and self._label_name(label) == name)

    def _boundary_label_degrees(self, name: str
                                ) -> Tuple[Dict[int, int],
                                           Dict[int, int]]:
        """Boundary-edge out-/in-degrees of one label name, per node."""
        out: Dict[int, int] = {}
        into: Dict[int, int] = {}
        for label, att in self._boundary.edges:
            if len(att) == 2 and self._label_name(label) == name:
                out[att[0]] = out.get(att[0], 0) + 1
                into[att[1]] = into.get(att[1], 0) + 1
        return out, into

    def _shard_degree_probes(self, wanted: List[Tuple[str, str, int]]
                             ) -> List[int]:
        """Batched ``node_out``/``node_in`` probes, grouped per shard.

        ``wanted`` rows are ``(sub_kind, label name, global node)``;
        answers come back in row order, one shard ``batch()`` per
        owning shard.
        """
        by_shard: Dict[int, List[int]] = {}
        for row, (_, _, node) in enumerate(wanted):
            by_shard.setdefault(self._owner(node), []).append(row)
        answers: List[int] = [0] * len(wanted)
        for shard in sorted(by_shard):
            base = self._bases[shard]
            rows = by_shard[shard]
            batch = [("pattern_count", wanted[row][0], wanted[row][1],
                      wanted[row][2] - base) for row in rows]
            for row, answer in zip(rows,
                                   self._shards[shard].batch(batch)):
                answers[row] = answer
        return answers

    def _digram_count(self, first: str, second: str) -> int:
        total = self._shard_count_sum("digram", first, second)
        b_out, b_in = self._boundary_label_degrees(second)[0], \
            self._boundary_label_degrees(first)[1]
        affected = sorted(set(b_in) | set(b_out))
        if not affected:
            return total
        probes = [("node_in", first, node) for node in affected] + \
                 [("node_out", second, node) for node in affected]
        answers = self._shard_degree_probes(probes)
        half = len(affected)
        for position, node in enumerate(affected):
            shard_in = answers[position]
            shard_out = answers[half + position]
            boundary_in = b_in.get(node, 0)
            boundary_out = b_out.get(node, 0)
            total += ((shard_in + boundary_in)
                      * (shard_out + boundary_out)
                      - shard_in * shard_out)
        return total

    def _star_count(self, name: str, threshold: int) -> int:
        total = self._shard_count_sum("star", name, threshold)
        b_out = self._boundary_label_degrees(name)[0]
        affected = sorted(b_out)
        if not affected or threshold == 0:
            # With k == 0 every node already counts in its shard; the
            # boundary cannot push anyone over an absent threshold.
            return total
        answers = self._shard_degree_probes(
            [("node_out", name, node) for node in affected])
        for node, shard_out in zip(affected, answers):
            merged = shard_out + b_out[node]
            total += ((1 if merged >= threshold else 0)
                      - (1 if shard_out >= threshold else 0))
        return total

    def _rpq_uncached(self, pattern: str, source: int, target: int,
                      from_state: Optional[int] = None,
                      to_state: Optional[int] = None) -> bool:
        """The owning shard answers same-shard pairs directly;
        whatever that does not settle takes the cross-shard route of
        :meth:`_route` with the pattern's DFA — the code path
        :meth:`_reach_uncached` takes with the one-state automaton."""
        if not self._simple:
            raise QueryError(
                "regular path queries require a simple derived graph; "
                "found a terminal hyperedge"
            )
        dfa = compile_pattern(pattern)
        start, accept = _resolve_states(dfa, from_state, to_state)
        automaton = BoundaryAutomaton.for_pattern(pattern, dfa, start,
                                                  to_state)
        source_shard = self._owner(source)
        target_shard = self._owner(target)
        if source == target and start in accept:
            return True
        if source_shard == target_shard:
            base = self._bases[source_shard]
            if self._shards[source_shard].batch(
                    [automaton.probe(source - base, target - base,
                                     start)])[0]:
                return True
        return self._route(automaton, source, target,
                           source_shard, target_shard)

    @property
    def rpq_info(self) -> Dict[str, int]:
        """Aggregate RPQ accounting over the shards plus closures."""
        info = {"skeleton_builds": 0, "cached_dfas": 0,
                "skeleton_entries": 0}
        for shard in self._shards:
            shard_info = getattr(shard, "rpq_info", None)
            if isinstance(shard_info, dict):
                for key in info:
                    info[key] += shard_info.get(key, 0)
        info["rpq_closures"] = len(self._closures) - self.closure_built
        return info

    # ------------------------------------------------------------------
    # Cross-shard routing: one strategy triple for reach and rpq
    # ------------------------------------------------------------------
    def _route(self, automaton: BoundaryAutomaton, source: int,
               target: int, source_shard: int, target_shard: int
               ) -> bool:
        """Is there a ``source -> target`` path through the boundary
        taking ``automaton`` from its start to an accept state?

        The caller has already asked the owning shard about same-shard
        pairs.  The :class:`repro.partition.ReachPlanner` picks:

        * **closure** — one in-shard batch per endpoint shard plus
          O(1) hops in the automaton's boundary closure (built lazily,
          persisted in the container);
        * **chaining** — batched boundary chaining when the closure is
          over budget and the boundary is sparse: one ``batch()`` per
          (shard, wave) alternates in-shard probes with boundary hops;
        * **bfs** — a dense boundary rivals the graph itself, so fall
          back to a product BFS over the merged (LRU-backed) labeled
          adjacency, the paper's any-algorithm-on-Prop.-4 route.
        """
        strategy = self._planner.strategy(
            source_shard, target_shard,
            closure_built=automaton.key in self._closures,
            num_states=automaton.num_states)
        if strategy == "local":
            return False  # no boundary route exists for this pair
        if strategy == "closure":
            return self._route_by_closure(automaton, source, target,
                                          source_shard, target_shard)
        if strategy == "chaining":
            return self._route_by_chaining(
                automaton, source, target, target_shard,
                same_shard=source_shard == target_shard)
        return self._route_by_bfs(automaton, source, target)

    def _route_by_closure(self, automaton: BoundaryAutomaton,
                          source: int, target: int,
                          source_shard: int, target_shard: int) -> bool:
        """Closure route: one in-shard batch per endpoint shard.

        Any cross-shard path decomposes as an intra-shard prefix to
        the first exit, a boundary-graph walk, and an intra-shard
        suffix from the last entry — so the reachable-vertex mask of
        ``(source, start)``, intersected with the target shard's entry
        vertices, decides which entry probes to ship.  Boundary
        endpoints themselves skip their batch: their closure row is
        the answer.
        """
        closure = self._closure_for(automaton)
        boundary = self._boundary
        states = range(automaton.num_states)
        probe = automaton.probe
        start = automaton.start
        if source in boundary.incident:
            mask = (closure.row_mask(source, start)
                    | closure.bit(source, start))
        else:
            base = self._bases[source_shard]
            vertices = [(exit_node, state)
                        for exit_node in boundary.exits[source_shard]
                        for state in states]
            if not vertices:
                return False
            answers = self._shards[source_shard].batch(
                [probe(source - base, exit_node - base, start, state)
                 for exit_node, state in vertices])
            mask = 0
            for (exit_node, state), matched in zip(vertices, answers):
                if matched:
                    mask |= (closure.row_mask(exit_node, state)
                             | closure.bit(exit_node, state))
        if not mask:
            return False
        if target in boundary.incident:
            return any(mask & closure.bit(target, state)
                       for state in automaton.accept)
        candidate_mask = mask & closure.mask_of(
            (entry, state) for entry in boundary.entries[target_shard]
            for state in states)
        if not candidate_mask:
            return False
        base = self._bases[target_shard]
        return any(self._shards[target_shard].batch(
            [probe(entry - base, target - base, state)
             for entry, state in closure.vertices_in(candidate_mask)]))

    def _route_by_chaining(self, automaton: BoundaryAutomaton,
                           source: int, target: int, target_shard: int,
                           same_shard: bool) -> bool:
        """Batched boundary chaining: in-shard probes + boundary hops.

        Each BFS wave groups its frontier of ``(node, state)``
        vertices by owning shard and ships that shard's probes — exit
        connectivity plus (in the target shard) the target probe — as
        **one** ``batch()`` call, the wire format socket-proxy shards
        forward in a single frame.
        """
        boundary = self._boundary
        states = range(automaton.num_states)
        probe, step, accept = (automaton.probe, automaton.step,
                               automaton.accept)
        origin = (source, automaton.start)
        # The caller's same-shard check already ran the target probe
        # for the source itself; don't pay that in-shard query twice.
        checked = {origin} if same_shard else set()
        seen = {origin}
        frontier = [origin]
        while frontier:
            by_shard: Dict[int, List[Tuple[int, int]]] = {}
            for vertex in frontier:
                by_shard.setdefault(self._owner(vertex[0]),
                                    []).append(vertex)
            frontier = []
            for shard in sorted(by_shard):
                base = self._bases[shard]
                exits = boundary.exits[shard]
                hits = set()
                probes: List[Tuple[Any, ...]] = []
                outcomes: List[Optional[Tuple[int, int]]] = []
                for vertex in by_shard[shard]:
                    node, state = vertex
                    local = node - base
                    if shard == target_shard and vertex not in checked:
                        checked.add(vertex)
                        probes.append(probe(local, target - base,
                                            state))
                        outcomes.append(None)
                    for exit_node in exits:
                        for next_state in states:
                            if exit_node == node and next_state == state:
                                # The empty in-shard path: this
                                # frontier vertex is itself an exit.
                                hits.add(vertex)
                                continue
                            probes.append(probe(local, exit_node - base,
                                                state, next_state))
                            outcomes.append((exit_node, next_state))
                if probes:
                    answers = self._shards[shard].batch(probes)
                    for hit, matched in zip(outcomes, answers):
                        if not matched:
                            continue
                        if hit is None:
                            return True
                        hits.add(hit)
                for exit_node, state in hits:
                    for label, entered in boundary.out_edges.get(
                            exit_node, ()):
                        next_state = step(state, self._label_name(label))
                        if next_state is None:
                            continue
                        if entered == target and next_state in accept:
                            return True
                        vertex = (entered, next_state)
                        if vertex not in seen:
                            seen.add(vertex)
                            frontier.append(vertex)
        return False

    def _route_by_bfs(self, automaton: BoundaryAutomaton, source: int,
                      target: int) -> bool:
        """Product BFS over the merged (LRU-backed) adjacency (dense
        boundary).  An automaton without a DFA never reads a label, so
        it expands through the cheaper unlabeled ``out`` neighborhoods
        (sharing LRU entries with ``out``/``path``), not ``out_edges``."""
        step, accept = automaton.step, automaton.accept
        labeled = automaton.dfa is not None
        seen = {(source, automaton.start)}
        queue = deque(seen)
        while queue:
            node, state = queue.popleft()
            edges = (((self._label_name(label), successor)
                      for label, successor in self.out_edges(node))
                     if labeled else
                     zip(repeat(None), self.out(node)))
            for name, successor in edges:
                next_state = step(state, name)
                if next_state is None:
                    continue
                if successor == target and next_state in accept:
                    return True
                vertex = (successor, next_state)
                if vertex not in seen:
                    seen.add(vertex)
                    queue.append(vertex)
        return False

    # ------------------------------------------------------------------
    # Batched evaluation
    # ------------------------------------------------------------------
    #: Neighborhood kinds -> the ``_merged_neighbors`` direction.
    _NEIGHBOR_DIRECTIONS = {QueryKind.OUT: "out", QueryKind.IN: "in",
                            QueryKind.NEIGHBORHOOD: "any"}

    def _uncached_query(self, kind: str, args: Tuple[Any, ...]) -> Any:
        """Evaluate one query across the shards, bypassing the LRU.

        Per-node queries route to the owning shard and merge that
        node's boundary edges; ``reach`` and ``rpq`` are planned per
        query (:meth:`_route`); ``path`` is a BFS over the cached
        merged :meth:`out`; the counts merge per-shard summaries with
        the partition-time boundary summary.
        """
        direction = self._NEIGHBOR_DIRECTIONS.get(kind)
        if direction is not None:
            return self._merged_neighbors(*args, direction)
        if kind == "reach":
            return self._reach_uncached(*args)
        if kind == "rpq":
            return self._rpq_uncached(*args)
        if kind == "out_edges":
            return self._out_edges_uncached(*args)
        if kind == "degree" or kind == "path":
            return self._derived_query(kind, args)
        if kind == "pattern_count":
            return self._pattern_count_uncached(*args)
        if kind == "components":
            return self._component_count()
        if kind == "nodes":
            return self._total_nodes
        return (sum(shard.edge_count() for shard in self._shards)
                + self._boundary.edge_count)

    def warm(self) -> "ShardedCompressedGraph":
        """Force every shard's lazy structures (see
        :meth:`CompressedGraph.warm`); degree extrema and the
        component merge are already partition-time artifacts.  The
        boundary closure is built too whenever the planner's budget
        admits it, so serving starts with the cheap reach regime."""
        for shard in self._shards:
            warm = getattr(shard, "warm", None)
            if warm is not None:
                warm()
        self._component_count()
        self.edge_count()
        if (self._simple and not self.closure_built
                and self._planner.closure_allowed()):
            self.warm_closure()
        return self

    # Kinds a shard can answer alone for a non-boundary node, and the
    # local batch kind each translates to.
    _LOCAL_KINDS = {
        QueryKind.OUT: "out",
        QueryKind.IN: "in",
        QueryKind.NEIGHBORHOOD: "neighborhood",
        QueryKind.DEGREE: "degree",
        QueryKind.OUT_EDGES: "out_edges",
    }
    #: Answers that are lists of local node IDs (need the +base shift).
    _OFFSET_RESULTS = {"out", "in", "neighborhood"}
    #: Path kinds whose last two arguments are a (source, target) node
    #: pair: the local batch kind and the count of leading string
    #: arguments (the pattern) before the pair.
    _PAIR_KINDS = {
        QueryKind.REACH: ("reach", 0),
        QueryKind.RPQ: ("rpq", 1),
    }

    def _route_local(self, kind: QueryKind, args: Tuple[Any, ...]
                     ) -> Optional[Tuple[int, Tuple[Any, ...], str]]:
        """``(shard, local_request, local_kind)`` when one shard can
        answer exactly, else ``None``."""
        local_kind = self._LOCAL_KINDS.get(kind)
        if local_kind is not None:
            if not args or type(args[0]) is not int:
                return None
            node = args[0]
            if not 1 <= node <= self._total_nodes:
                return None  # let the general path raise QueryError
            if node in self._boundary.incident:
                return None
            shard = self._owner(node)
            local = self._local(node, shard)
            return shard, (local_kind, local, *args[1:]), local_kind
        pair_kind = self._PAIR_KINDS.get(kind)
        if pair_kind is not None:
            local_kind, head = pair_kind
            if (len(args) == head + 2
                    and all(isinstance(arg, str) for arg in args[:head])
                    and all(type(arg) is int for arg in args[head:])):
                source, target = args[head:]
                if not (1 <= source <= self._total_nodes
                        and 1 <= target <= self._total_nodes):
                    return None
                shard = self._owner(source)
                # A shard that no boundary edge touches can never be
                # left or re-entered, so its local answer is the
                # global one.
                if (shard == self._owner(target)
                        and shard not in self._boundary.touched):
                    return (shard,
                            (local_kind, *args[:head],
                             self._local(source, shard),
                             self._local(target, shard)),
                            local_kind)
        return None

    def _fanout_jobs(self, jobs: List[QueryRequest],
                     emit: Callable[[int, QueryResult], None],
                     max_workers: Optional[int]) -> None:
        """The sharded planned path, executor-shaped.

        Called by :class:`repro.serving.ThreadExecutor` with the
        already deduplicated, cache-filtered jobs.  Classifies them —
        shard-routable (shipped through the owning shard's own
        ``batch()``, the wire format), batchable reach (answered from
        per-source BFS closures with batch-scoped memoization),
        everything else (chunked across threads) — and fans the
        groups out across a thread pool.
        """
        from concurrent.futures import ThreadPoolExecutor

        shard_groups: Dict[int, List[Tuple[QueryRequest,
                                           Tuple[Any, ...], str]]] = {}
        reach_pairs: List[Tuple[int, int, int]] = []
        general: List[QueryRequest] = []
        for request in jobs:
            routed = self._route_local(request.kind, request.args)
            if routed is not None:
                shard, local_request, local_kind = routed
                shard_groups.setdefault(shard, []).append(
                    (request, local_request, local_kind))
                continue
            args = request.args
            if (request.kind is QueryKind.REACH and self._simple
                    and len(args) == 2
                    and all(type(arg) is int
                            and 1 <= arg <= self._total_nodes
                            for arg in args)):
                # Only the dense-boundary regime benefits from the
                # per-source BFS memoization below; closure/chaining
                # plans already batch their shard probes, so they run
                # through the planner like single-shot calls do.
                strategy = self._planner.strategy(
                    self._owner(args[0]), self._owner(args[1]),
                    closure_built=self.closure_built)
                if strategy == "bfs":
                    reach_pairs.append((request.id, args[0], args[1]))
                    continue
            general.append(request)

        def run_group(shard: int,
                      items: List[Tuple[QueryRequest, Tuple[Any, ...],
                                        str]]) -> None:
            base = self._bases[shard]
            try:
                answers = self._shards[shard].batch(
                    [local for _, local, _ in items])
            except QueryError:
                # A malformed routed request (e.g. a bad degree
                # direction) poisons the grouped call; answer the
                # group request by request so the error stays
                # per-request.
                for request, _, _ in items:
                    emit(request.id, evaluate_request(self, request,
                                                      uncached=True))
                return
            for (request, _, local_kind), answer in zip(items, answers):
                if local_kind in self._OFFSET_RESULTS:
                    answer = [node + base for node in answer]
                elif local_kind == "out_edges":
                    answer = [[label, target + base]
                              for label, target in answer]
                emit(request.id, QueryResult(id=request.id,
                                             value=answer))

        def run_general(chunk: List[QueryRequest]) -> None:
            for request in chunk:
                emit(request.id, evaluate_request(self, request,
                                                  uncached=True))

        def run_reach(pairs: List[Tuple[int, int, int]]) -> None:
            """All reach answers from per-source BFS closures.

            One traversal per distinct source answers every target
            asked of that source, and the neighborhood expansions are
            memoized across the whole batch — the planned path's main
            advantage over request-at-a-time evaluation.
            """
            adjacency: Dict[int, List[int]] = {}

            def successors(node: int) -> List[int]:
                known = adjacency.get(node)
                if known is None:
                    known = adjacency[node] = self.out(node)
                return known

            by_source: Dict[int, List[Tuple[int, int]]] = {}
            for position, source, target in pairs:
                by_source.setdefault(source, []).append(
                    (position, target))
            for source, wanted in by_source.items():
                targets = {target for _, target in wanted}
                seen = {source}
                missing = set(targets) - seen
                frontier = deque([source])
                while frontier and missing:
                    node = frontier.popleft()
                    for succ in successors(node):
                        if succ not in seen:
                            seen.add(succ)
                            missing.discard(succ)
                            frontier.append(succ)
                for position, target in wanted:
                    emit(position, QueryResult(id=position,
                                               value=target in seen))

        tasks: List[Callable[[], None]] = []
        for shard, items in sorted(shard_groups.items()):
            tasks.append(lambda shard=shard, items=items:
                         run_group(shard, items))
        if reach_pairs:
            tasks.append(lambda: run_reach(reach_pairs))
        if general:
            # Bundle the leftovers: one pool task per chunk, not per
            # request (thread dispatch would dwarf small queries).
            splits = min(len(general), max(1, (max_workers or 4)))
            for index in range(splits):
                chunk = general[index::splits]
                tasks.append(lambda chunk=chunk: run_general(chunk))

        workers = max_workers or min(8, max(len(tasks), 1))
        if workers <= 1 or len(tasks) <= 1:
            for task in tasks:
                task()
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for _ in pool.map(lambda task: task(), tasks):
                    pass

    def __repr__(self) -> str:
        built = "built" if self.index_built else "lazy"
        return (f"ShardedCompressedGraph(shards={len(self._shards)}, "
                f"nodes={self._total_nodes}, "
                f"boundary={self._boundary.edge_count}, index={built})")


# ----------------------------------------------------------------------
# Container dispatch
# ----------------------------------------------------------------------
def open_compressed(path: Union[str, Path],
                    cache_size: int = DEFAULT_CACHE_SIZE
                    ) -> Union[CompressedGraph, ShardedCompressedGraph]:
    """Open a container of either kind, dispatching on its magic.

    "GRPS" files yield a :class:`ShardedCompressedGraph`, "GRPR" files
    a :class:`CompressedGraph`; both expose the same query surface, so
    callers (the CLI among them) need not care which they got.  The
    file is memory-mapped, not read eagerly.
    """
    data = map_file(path)
    if is_sharded_container(data):
        return ShardedCompressedGraph.from_bytes(data,
                                                 cache_size=cache_size)
    return CompressedGraph.from_bytes(data, cache_size=cache_size)
