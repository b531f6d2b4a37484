"""The typed query protocol: requests, results, plans, the service.

Before this module existed, queries traveled as ad-hoc tuples —
``("reach", 1, 9)`` — with three structural gaps that blocked every
serving follow-on named in the ROADMAP:

* **no request identity** — a batch answer was only interpretable by
  its list position, so answers could not cross a process or socket
  boundary where reordering and multiplexing happen;
* **no error channel** — the first malformed request aborted the whole
  batch mid-way with an exception, which is the wrong failure shape
  for a server answering many independent clients;
* **no plan/execute seam** — deduplication, cache pre-filtering and
  fan-out were welded into each handle's ``batch()``, so there was
  nowhere to slot a process pool or a socket router.

This module supplies the three missing pieces:

:class:`QueryRequest` / :class:`QueryResult`
    One §V query with a stable identity (``id``), a canonical
    :class:`QueryKind` and positional ``args``; one answer carrying
    either a ``value`` or a per-request ``error`` string.  Both are
    plain dataclasses with a wire form (see :mod:`repro.serving.codec`).
:func:`plan_batch` / :class:`BatchPlan`
    The planner: normalizes a request mix, deduplicates repeated
    requests, and — when handed the handle's query-result LRU —
    **pre-filters cache hits** so only genuinely unanswered work
    reaches an executor, and **bulk-inserts the misses** afterwards
    (see :func:`repro.serving.executors.finish_plan`).  Planning is
    pure bookkeeping; *executing* a plan is an
    :class:`repro.serving.executors.Executor`'s job.
:class:`GraphService`
    The one definition of the §V query methods (``out``, ``reach``,
    ``rpq``, …), shared by both handles, the socket client and the
    router's shard links; plus ``execute(requests) ->
    List[QueryResult]`` with per-request error semantics behind a
    pluggable executor, and ``batch()``, the thin adapter over it that
    unwraps values and raises the first error.

The canonical kind strings are exactly the tuples the query-result
LRU keys on (``("out", 4)``, ``("reach", 1, 9)``…), so a cached
single-shot query also pre-filters a planned batch and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exceptions import QueryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.queries.cache import QueryCache
    from repro.serving.executors import Executor

__all__ = [
    "BatchPlan",
    "CACHEABLE_KINDS",
    "GraphService",
    "KIND_METHODS",
    "QueryKind",
    "QueryRequest",
    "QueryResult",
    "bound_args",
    "is_retryable",
    "normalize_request",
    "plan_batch",
    "query_key",
]


def is_retryable(error: BaseException) -> bool:
    """Whether a failed wire exchange may be resent to a replica.

    The §V query family is read-only, so resending a request can never
    double-apply anything — the only question is whether the failure
    indicts the *link* or the *request*.  Retryable failures are link
    deaths: a refused/reset connection (``OSError``), a frame truncated
    mid-stream (:class:`~repro.serving.codec.FrameError`), a connection
    closed with requests in flight or a per-request timeout
    (:class:`~repro.serving.codec.ConnectionLost`).  A structured error
    *reply* (plain :class:`~repro.serving.codec.WireError`) is not: the
    server is alive and answered — a peer would say the same thing.
    """
    from repro.serving.codec import ConnectionLost, FrameError

    return isinstance(error, (OSError, FrameError, ConnectionLost))


class QueryKind(str, Enum):
    """Canonical names of the §V query family.

    The values double as the wire spelling and as the first element
    of the LRU cache key, so every layer — single-shot methods,
    ``batch()``, executors, the socket protocol — speaks one
    vocabulary.  A member compares and hashes exactly like its value
    (``QueryKind.OUT == "out"``), so the query methods pass the plain
    spelling and either form keys the LRU alike.
    """

    REACH = "reach"
    OUT = "out"
    IN = "in"
    NEIGHBORHOOD = "neighborhood"
    DEGREE = "degree"
    PATH = "path"
    COMPONENTS = "components"
    NODES = "nodes"
    EDGES = "edges"
    RPQ = "rpq"
    PATTERN_COUNT = "pattern_count"
    OUT_EDGES = "out_edges"


#: kind -> the one :class:`GraphService` method answering it; only
#: ``in`` (a Python keyword), ``nodes`` and ``edges`` differ from the
#: kind's own spelling.
KIND_METHODS: Dict[QueryKind, str] = {
    QueryKind.REACH: "reach",
    QueryKind.OUT: "out",
    QueryKind.IN: "in_",
    QueryKind.NEIGHBORHOOD: "neighborhood",
    QueryKind.DEGREE: "degree",
    QueryKind.PATH: "path",
    QueryKind.COMPONENTS: "components",
    QueryKind.NODES: "node_count",
    QueryKind.EDGES: "edge_count",
    QueryKind.RPQ: "rpq",
    QueryKind.PATTERN_COUNT: "pattern_count",
    QueryKind.OUT_EDGES: "out_edges",
}

#: Kinds whose answers the handles' LRU caches (same key tuples); the
#: planner only pre-filters/bulk-inserts these.
CACHEABLE_KINDS = frozenset({
    QueryKind.REACH,
    QueryKind.OUT,
    QueryKind.IN,
    QueryKind.NEIGHBORHOOD,
    QueryKind.PATH,
    QueryKind.RPQ,
    QueryKind.PATTERN_COUNT,
    QueryKind.OUT_EDGES,
})


#: The types query arguments have: node IDs and counts are ``int``,
#: patterns, labels and directions ``str``, omitted options ``None``.
_PLAIN_ARG_TYPES = frozenset({int, str, type(None)})


def query_key(kind: str, args: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """The LRU key of one query: the kind, then its arguments.

    RPQ keys canonicalize the pattern text through the regex front
    end's minimized-DFA form, so equivalent patterns (``a|b`` /
    ``b|a``) share one cache entry wherever they are asked —
    single-shot, batched, or over the socket.  An argument of any
    other type is keyed with its type: ``True`` and ``1.0`` compare
    and hash equal to ``1``, yet are no node ID, so they must not share
    node 1's cached or deduplicated answer (evaluation rejects them).
    """
    for arg in args:
        if type(arg) not in _PLAIN_ARG_TYPES:
            args = tuple(arg if type(arg) in _PLAIN_ARG_TYPES
                         else (type(arg), arg) for arg in args)
            break
    if kind == "rpq" and args:
        from repro.rpq.regex import cache_key
        return ("rpq", cache_key(args[0]), *args[1:])
    return (kind, *args)


@dataclass(frozen=True)
class QueryRequest:
    """One typed query: canonical kind, positional args, identity.

    ``id`` is the request's identity within one batch — executors and
    the socket protocol route answers back by it, so results survive
    reordering, deduplication and multiplexing.  The planner assigns
    list positions when the caller does not.
    """

    kind: QueryKind
    args: Tuple[Any, ...] = ()
    id: Optional[int] = None

    @property
    def key(self) -> Tuple[Any, ...]:
        """The LRU cache key this request shares with single-shot calls
        (see :func:`query_key`)."""
        return query_key(self.kind, self.args)

    def with_id(self, request_id: int) -> "QueryRequest":
        """A copy carrying ``request_id`` (requests are immutable)."""
        return QueryRequest(self.kind, self.args, request_id)

    def __repr__(self) -> str:
        args = ", ".join(repr(arg) for arg in self.args)
        return f"QueryRequest({self.kind.value}({args}), id={self.id})"


@dataclass
class QueryResult:
    """One answer: a ``value`` or a per-request ``error`` — never both.

    The error channel is what lets a batch keep going past a bad
    request: the failing request gets its error string, every other
    request still gets its answer.
    """

    id: Optional[int] = None
    value: Any = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether this result carries a value."""
        return self.error is None

    def unwrap(self) -> Any:
        """The value, or raise the error as a :class:`QueryError`."""
        if self.error is not None:
            raise QueryError(self.error)
        return self.value


def normalize_request(request: Union[QueryRequest, Sequence[Any]],
                      request_id: Optional[int] = None) -> QueryRequest:
    """Accept a :class:`QueryRequest` or a ``(kind, *args)`` tuple.

    ``kind`` must be one of the :class:`QueryKind` values.  Raises
    :class:`QueryError` for an empty request or any other kind —
    unhashable ones included, so a malformed request is a per-request
    error and never aborts a batch.
    """
    if isinstance(request, QueryRequest):
        if request_id is not None and request.id != request_id:
            return request.with_id(request_id)
        return request
    if isinstance(request, str):
        # A bare string would iterate as characters; reject it whole.
        request = (request,)
    if not request:
        raise QueryError("empty batch request")
    kind_name, *args = request
    try:
        kind = QueryKind(kind_name)
    except (ValueError, TypeError):  # unhashable kinds included
        raise QueryError(
            f"unknown batch query kind {kind_name!r}; expected one "
            f"of {sorted(kind.value for kind in QueryKind)}"
        ) from None
    return QueryRequest(kind, tuple(args), request_id)


@dataclass
class BatchPlan:
    """A planned batch: what to execute, what is already answered.

    ``requests`` is the full normalized mix (``id`` = list position;
    positions of malformed requests hold ``None``); ``jobs`` is the
    subset an executor must actually evaluate.  Everything else is
    settled at planning time: ``duplicates`` repeat another position's
    answer, ``cached`` positions were answered by the handle's LRU
    pre-filter, ``invalid`` positions carry normalization errors.
    ``cache`` is where :func:`~repro.serving.executors.finish_plan`
    bulk-inserts the cacheable misses after execution.
    """

    requests: List[Optional[QueryRequest]]
    jobs: List[QueryRequest]
    duplicates: List[Tuple[int, int]] = field(default_factory=list)
    cached: List[Tuple[int, Any]] = field(default_factory=list)
    invalid: List[Tuple[int, str]] = field(default_factory=list)
    cache: Optional["QueryCache"] = None

    def __len__(self) -> int:
        return len(self.requests)


def plan_batch(requests: Iterable[Union[QueryRequest, Sequence[Any]]],
               cache: Optional["QueryCache"] = None,
               dedup: bool = True,
               strict: bool = False) -> BatchPlan:
    """Normalize, deduplicate and cache-pre-filter a request mix.

    ``dedup=True`` collapses repeated requests (serving traffic is
    skewed; identical requests are the common case): only the first
    occurrence becomes a job, later ones are recorded as duplicates.
    Requests with unhashable arguments cannot be dedup or cache keys;
    they stay as their own jobs and fail (or not) at evaluation time,
    exactly like the sequential path.

    ``cache`` enables cache-aware planning: each unique cacheable
    request is looked up **once** (counting one hit or miss on the
    handle's ``cache_info``), hits never reach an executor, and the
    plan remembers the cache so executed misses are bulk-inserted.

    ``strict=True`` raises the first normalization error (legacy
    ``batch()`` behavior); otherwise malformed requests become
    per-request errors and the rest of the batch proceeds.
    """
    normalized: List[Optional[QueryRequest]] = []
    jobs: List[QueryRequest] = []
    duplicates: List[Tuple[int, int]] = []
    cached: List[Tuple[int, Any]] = []
    invalid: List[Tuple[int, str]] = []
    first_index: Dict[Tuple[Any, ...], int] = {}
    cached_values: Dict[Tuple[Any, ...], Any] = {}
    for position, raw in enumerate(requests):
        try:
            request = normalize_request(raw, position)
        except QueryError as exc:
            if strict:
                raise
            normalized.append(None)
            invalid.append((position, str(exc)))
            continue
        normalized.append(request)
        key = request.key
        try:
            hash(key)
        except TypeError:
            jobs.append(request)  # unhashable: evaluate as-is
            continue
        if dedup:
            original = first_index.get(key)
            if original is not None:
                duplicates.append((position, original))
                continue
            first_index[key] = position
        if key in cached_values:
            # A duplicate that dedup was asked not to collapse, or a
            # second lookup of a key the pre-filter already answered.
            cached.append((position, cached_values[key]))
            continue
        if cache is not None and request.kind in CACHEABLE_KINDS:
            hit, value = cache.lookup(key)
            if hit:
                cached.append((position, value))
                cached_values[key] = value
                continue
        jobs.append(request)
    return BatchPlan(requests=normalized, jobs=jobs,
                     duplicates=duplicates, cached=cached,
                     invalid=invalid, cache=cache)


class GraphService:
    """The §V query surface, defined once for every handle and client.

    The twelve query methods below — one per :class:`QueryKind`, named
    by :data:`KIND_METHODS` — are the only spelling of the family.
    Each is a one-liner into :meth:`_query`, which answers
    :data:`CACHEABLE_KINDS` through the surface's result LRU
    (``_cache``, under :func:`query_key`) and everything else — every
    LRU miss included — through the surface's one hook,
    ``_uncached_query(kind, args)``.  ``args`` there are always shaped
    by the method's own signature (see :func:`bound_args`).  A surface
    supplies only that hook, its constructors and persistence; in
    return it gains the query methods, :meth:`execute` (typed requests
    in, per-request results out, pluggable executor), :meth:`batch`
    and the cache counters — so an unsharded handle, a sharded one and
    a socket client are interchangeable by construction.  The
    in-process handles also share :meth:`_derived_query`; transports
    may ship ``execute``/``batch`` whole, with the same parameters.
    """

    #: The surface's query-result LRU; ``None`` where answers are not
    #: cached (socket clients and shard links).
    _cache: Optional["QueryCache"] = None

    def _uncached_query(self, kind: str, args: Tuple[Any, ...]) -> Any:
        """Evaluate one query, bypassing the LRU.

        ``kind`` is a :class:`QueryKind` or its plain spelling (they
        compare alike).  The planned executors call this directly:
        they pre-filter the LRU and bulk-insert the misses, so a second
        lookup per job would double-count.
        """
        raise NotImplementedError

    def _query(self, kind: str, *args: Any) -> Any:
        cache = self._cache
        if cache is None or kind not in CACHEABLE_KINDS:
            return self._uncached_query(kind, args)
        return cache.get_or_compute(query_key(kind, args),
                                    self._uncached_query, kind, args)

    # -- neighbourhoods (Prop. 4) ---------------------------------------
    def out(self, node_id: int) -> List[int]:
        """Sorted out-neighbour IDs of ``node_id`` (the paper's ``N+``)."""
        return self._query("out", node_id)

    def in_(self, node_id: int) -> List[int]:
        """Sorted in-neighbour IDs of ``node_id`` (``N-``; ``in`` is a
        keyword)."""
        return self._query("in", node_id)

    def neighborhood(self, node_id: int) -> List[int]:
        """Sorted undirected neighbourhood ``N(v)``."""
        return self._query("neighborhood", node_id)

    def out_edges(self, node_id: int) -> List[List[int]]:
        """Labeled outgoing edges as sorted ``[label, target]`` pairs
        (list-of-lists, so JSON returns the same type)."""
        return self._query("out_edges", node_id)

    def degree(self, node_id: Optional[int] = None,
               direction: str = "out") -> Union[int, Dict[str, int]]:
        """Degree information without decompressing.

        With ``node_id``: the number of distinct ``out``/``in``/``any``
        neighbours of that node.  Without: the true degree extrema of
        ``val(G)`` (edge multiplicities included) as a dict with keys
        ``max_out``/``min_out``/``max_in``/``min_in``/``max``/``min``.
        """
        return self._query("degree", node_id, direction)

    def _derived_query(self, kind: str, args: Tuple[Any, ...]) -> Any:
        """``degree`` and ``path`` on an in-process handle: derived from
        its cached neighbourhood methods, and from its
        ``_degree_extrema()`` for ``degree()`` without a node."""
        if kind == "path":
            from repro.queries.traversal import shortest_path
            return shortest_path(self, *args)
        node_id, direction = args
        if node_id is None:
            return self._degree_extrema()
        if direction == "out":
            return len(self.out(node_id))
        if direction == "in":
            return len(self.in_(node_id))
        if direction == "any":
            return len(self.neighborhood(node_id))
        raise QueryError(f"unknown direction {direction!r}; "
                         "expected 'out', 'in' or 'any'")

    # -- speed-up queries (Theorem 6, one-pass counts) ------------------
    def reach(self, source_id: int, target_id: int) -> bool:
        """(s,t)-reachability in ``O(|G|)`` (Theorem 6)."""
        return self._query("reach", source_id, target_id)

    def path(self, source_id: int, target_id: int
             ) -> Optional[List[int]]:
        """A shortest directed path as node IDs, or ``None``."""
        return self._query("path", source_id, target_id)

    def components(self) -> int:
        """Number of connected components of ``val(G)`` (one pass)."""
        return self._query("components")

    def node_count(self) -> int:
        """``|val(G)|_V`` without decompressing."""
        return self._query("nodes")

    def edge_count(self) -> int:
        """Terminal edge count of ``val(G)`` without decompressing."""
        return self._query("edges")

    # -- regular path queries / pattern counts --------------------------
    def rpq(self, pattern: str, source: int, target: int,
            from_state: Optional[int] = None,
            to_state: Optional[int] = None) -> bool:
        """Does some ``source -> target`` path spell a word of ``pattern``?

        ``pattern`` is a regex over edge-label names (literals, ``.``,
        concatenation, ``|``, ``*``, ``+``, ``?``, parentheses — see
        :mod:`repro.rpq.regex`).  ``from_state`` / ``to_state``
        override the DFA's start and accepting states (in the
        canonical DFA's numbering) — the probe surface the sharded
        evaluator batches; they trail the request in wire order.
        """
        if to_state is not None:
            return self._query("rpq", pattern, source, target,
                               from_state, to_state)
        if from_state is not None:
            return self._query("rpq", pattern, source, target,
                               from_state)
        return self._query("rpq", pattern, source, target)

    def pattern_count(self, sub_kind: str, *args: Any) -> int:
        """GraphZip-style labeled pattern counts over ``val(G)``.

        ``("label", a)`` counts ``a``-edges; ``("digram", a, b)``
        counts length-2 label paths; ``("star", a, k)`` counts nodes
        with ``>= k`` outgoing ``a``-edges; ``("node_out", a, v)`` /
        ``("node_in", a, v)`` are one node's labeled degrees with
        multiplicity.  Labels are *names*; unknown names count zero.
        """
        return self._query("pattern_count", sub_kind, *args)

    # -- batches ---------------------------------------------------------
    def execute(self, requests: Iterable[Union[QueryRequest,
                                               Sequence[Any]]],
                executor: Optional["Executor"] = None
                ) -> List[QueryResult]:
        """Answer ``requests``; one :class:`QueryResult` per request.

        Unlike :meth:`batch`, a bad request never aborts the batch:
        its result carries ``error`` and every other request is still
        answered.  ``executor`` defaults to
        :class:`repro.serving.executors.InlineExecutor` — the
        sequential path.
        """
        from repro.serving.executors import InlineExecutor
        runner = executor if executor is not None else InlineExecutor()
        return runner.run(self, list(requests), strict=False)

    def batch(self, requests: Iterable[Sequence[Any]],
              parallel: bool = False,
              max_workers: Optional[int] = None,
              executor: Optional["Executor"] = None) -> List[Any]:
        """Evaluate many ``(kind, *args)`` requests; values in order.

        E.g. ``("reach", 1, 9)``, ``("out", 4)``, ``("components",)``,
        ``("degree", 4, "in")``.  ``parallel=True`` selects the
        *planned* path: the batch is deduplicated, pre-filtered against
        the result LRU, and the unique misses fan out across a thread
        pool (per owning shard on a sharded handle).  ``executor``
        overrides the strategy entirely.  Answers are identical
        whichever path runs; the first failing request raises its
        :class:`QueryError` — :meth:`execute` is the surface with
        per-request errors.
        """
        from repro.serving.executors import InlineExecutor, ThreadExecutor
        if executor is None:
            executor = (ThreadExecutor(max_workers) if parallel
                        else InlineExecutor())
        results = executor.run(self, list(requests), strict=True)
        return [result.unwrap() for result in results]

    # -- cache introspection ---------------------------------------------
    @property
    def cache(self) -> Optional["QueryCache"]:
        """The surface's query-result LRU (``None`` when it keeps none)."""
        return self._cache

    @property
    def cache_info(self) -> Dict[str, Any]:
        """LRU counters: capacity, size, hits, misses, evictions
        (empty when the surface keeps no LRU)."""
        return {} if self._cache is None else self._cache.info()

    @property
    def cache_hits(self) -> int:
        """Queries answered from the result LRU."""
        return 0 if self._cache is None else self._cache.hits

    @property
    def cache_misses(self) -> int:
        """Queries that fell through to evaluation."""
        return 0 if self._cache is None else self._cache.misses


class _ArgumentRecorder:
    """Stands in for a surface: hands back what a method passes on."""

    @staticmethod
    def _query(kind: str, *args: Any) -> Tuple[Any, ...]:
        return args


_RECORDER = _ArgumentRecorder()


def bound_args(request: QueryRequest) -> Tuple[Any, ...]:
    """``request.args`` exactly as its kind's method hands them on.

    Runs the one :class:`GraphService` definition of the kind on a
    recorder, so defaults are filled in (``degree(4)`` ->
    ``(4, "out")``) and a malformed argument list raises that method's
    own ``TypeError`` — the same message on every surface and every
    executor, whether or not the request bypasses the LRU.
    """
    method = getattr(GraphService, KIND_METHODS[request.kind])
    return method(_RECORDER, *request.args)
