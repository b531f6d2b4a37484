"""Socket serving: shard server processes, the router, the client.

The deployment shape the paper's query family implies — grammars are
small, queries are ``O(|G|)``, so a compressed graph can sit resident
in memory and *answer traffic* — becomes concrete here:

:class:`GraphServer` (``serve()``)
    Serves a ``.grpr``/``.grps`` container on a socket endpoint.  For
    a sharded container it forks **one process per shard** (each
    decodes only its own shard's bytes, warms its index and serves
    its local §V family on a loopback socket) plus a **router** in
    the calling process: a proxy-backed
    :class:`~repro.sharding.ShardedCompressedGraph` whose "shard
    handles" are :class:`ReplicatedShard` socket links.  Incoming
    batches are planned once (dedup + router-side LRU pre-filter) and
    the per-shard groups are multiplexed over the shard links in
    parallel; cross-shard queries run the exact routed/merged
    algorithms the in-process handle uses, so answers are
    bit-identical to local evaluation.
:class:`GraphClient` (``connect()``)
    The JSON-wire client: the §V methods of every
    :class:`~repro.serving.protocol.GraphService`, typed ``execute()``,
    ``batch()``, single-shot ``query()``, ``info()``/``ping()`` — and,
    with ``pipeline=True``, a **multiplexing** client: every frame is
    sequence-tagged, many batches ride one connection concurrently
    (``execute_async`` returns a future), and ``pool_size=`` spreads
    the traffic over several such connections.
:class:`ReplicatedShard`
    One shard behind its replica endpoints, one pipelined client per
    replica; the sharded handle cannot tell it from a local
    :class:`CompressedGraph`, and concurrent client batches multiplex
    over one socket per replica instead of queueing on a lock.

Every server — the router and each shard process — runs the
:class:`repro.serving.aio.ServerLoop` event loop: many in-flight
tagged frames per connection, legacy untagged frames still answered
strictly in order.

Endpoints are ``"host:port"`` (TCP, loopback by default) or
``"unix:/path"``.  Both frames and payloads come from
:mod:`repro.serving.codec`; one process per shard means shard builds,
crashes and restarts are isolated, and the router process never holds
a single decoded grammar.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ManifestError, ReproError, ShardUnavailable
from repro.serving.aio import ServerLoop
from repro.serving.cluster import ClusterManifest, container_hash
from repro.serving.codec import (
    ConnectionLost,
    FrameError,
    RequestTimeout,
    WireError,
    bind_socket,
    connect_socket,
    encode_frame,
    frame_bytes,
    recv_frame,
    recv_message,
    requests_to_wire,
    results_from_wire,
)
from repro.serving.executors import (
    Executor,
    InlineExecutor,
    ThreadExecutor,
    _fork_context,
)
from repro.serving.protocol import (
    GraphService,
    QueryRequest,
    QueryResult,
    is_retryable,
)

__all__ = [
    "GraphClient",
    "GraphServer",
    "ReplicatedShard",
    "ShardHost",
    "connect",
    "serve",
]

_STARTUP_TIMEOUT_SECONDS = 60.0

#: Default per-request timeout on router↔shard links: long enough for
#: any §V query at this scale, short enough that a hung replica is
#: abandoned for a peer instead of stalling a batch forever.
DEFAULT_SHARD_TIMEOUT = 30.0

#: Replica backoff after a link failure: ``base * 2**(failures-1)``
#: seconds, capped.  Backoff gates *selection* (a cooling replica is
#: tried last), it never sleeps in-call.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0


# ----------------------------------------------------------------------
# Shard server child process
# ----------------------------------------------------------------------
def _shard_process_main(source: Any, shard: int, conn: Any,
                        cache_size: Optional[int],
                        pipeline: Optional[int]) -> None:
    """Decode one shard, warm it, serve it forever on a loopback port.

    ``source`` is either a
    :class:`~repro.encoding.container.DecodedContainer` (the child
    materializes exactly shard ``shard`` out of the fork-inherited
    mapping — the parent never copies any blob) or a single-grammar
    buffer (``shard`` is 0).
    """
    from repro.api import DEFAULT_CACHE_SIZE, CompressedGraph
    from repro.encoding.container import DecodedContainer

    blob = (source.shard(shard)
            if isinstance(source, DecodedContainer) else source)
    handle = CompressedGraph.from_bytes(
        blob, cache_size=(DEFAULT_CACHE_SIZE if cache_size is None
                          else cache_size))
    handle.warm()
    listener, endpoint = bind_socket("127.0.0.1:0")
    conn.send(endpoint)
    conn.close()
    info = {
        "type": "shard",
        "nodes": handle.node_count(),
        "edges": handle.edge_count(),
        # Terminal label names, so a proxy-backed router can step
        # pattern DFAs over boundary-edge labels without the alphabet.
        "labels": [[label, handle.alphabet.name(label)]
                   for label in handle.alphabet.terminals()],
    }
    # Blocks until the parent terminates us; an unexpected listener
    # death surfaces as a nonzero exit instead of a silent idle child.
    loop = ServerLoop(listener, handle, InlineExecutor(), info,
                      pipeline=pipeline)
    loop.run()
    if loop.fault is not None:
        raise loop.fault


# ----------------------------------------------------------------------
# Reply settlement (shared by the strict and pipelined clients)
# ----------------------------------------------------------------------
def _settle_results(wire: List[Dict[str, Any]],
                    reply: Optional[Dict[str, Any]],
                    refused: Sequence[QueryResult] = ()
                    ) -> List[QueryResult]:
    """A ``results`` reply (``None``: nothing was shipped) plus the
    locally ``refused`` results -> one result per request, in order."""
    by_id = {result.id: result for result in refused}
    if reply is not None:
        if reply.get("op") != "results":
            raise WireError(f"expected results, got {reply.get('op')!r}")
        by_id.update((result.id, result) for result in
                     results_from_wire(reply.get("results", [])))
    results: List[QueryResult] = []
    for entry in wire:
        result = by_id.get(entry["id"])
        if result is None:
            result = QueryResult(id=entry["id"],
                                 error="server returned no answer "
                                       "for this request")
        results.append(result)
    return results


def _ship_batch(wire: List[Dict[str, Any]], send: Any
                ) -> Tuple[Any, List[QueryResult]]:
    """``send`` one ``batch`` frame; ``(outcome, refused results)``.

    When the frame cannot be encoded (an argument JSON cannot carry),
    each offending request is answered locally with a per-request
    error and the rest are sent on their own (outcome ``None`` when
    nothing is left).  Only that failure path re-encodes per request.
    """
    try:
        return send({"op": "batch", "requests": wire}), []
    except WireError:
        shipped: List[Dict[str, Any]] = []
        refused: List[QueryResult] = []
        for entry in wire:
            try:
                encode_frame(entry)
            except WireError as exc:
                refused.append(QueryResult(
                    id=entry["id"],
                    error=f"bad arguments for batch query "
                          f"{entry['kind']!r}: {exc}"))
            else:
                shipped.append(entry)
        if not refused:
            raise
    if not shipped:
        return None, refused
    return send({"op": "batch", "requests": shipped}), refused


# ----------------------------------------------------------------------
# Socket conversations: strict and multiplexed
# ----------------------------------------------------------------------
class _WireConnection:
    """One lock-guarded request/response socket conversation."""

    def __init__(self, address: Union[str, tuple],
                 timeout: Optional[float]) -> None:
        self._address = address
        self._timeout = timeout
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        #: Completed request/response exchanges on this connection —
        #: the router's unit of wire cost (tests assert budgets on it).
        self.round_trips = 0

    def _socket(self) -> socket.socket:
        if self._sock is None:
            self._sock = connect_socket(self._address, self._timeout)
        return self._sock

    def _drop(self) -> None:
        """Close and forget the socket (caller holds the lock)."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._sock = None

    def round_trip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        payload = frame_bytes(message)
        with self._lock:
            self.round_trips += 1
            sock = self._socket()
            try:
                sock.sendall(payload)
                reply = recv_message(sock)
            except FrameError:
                # Desynchronized stream: drop the connection so the
                # next call starts clean, then surface the failure.
                self._drop()
                raise
            except socket.timeout as exc:
                # A late reply would desync the stream — the link is
                # unusable either way.
                self._drop()
                raise RequestTimeout(
                    f"no reply from {self._address!r} within "
                    f"{self._timeout}s") from exc
            except OSError as exc:
                self._drop()
                raise ConnectionLost(
                    f"connection to {self._address!r} failed "
                    f"(errno {exc.errno}): {exc}") from exc
            if reply is None:
                # A clean close instead of a reply: drop the dead
                # socket so the next call reconnects instead of
                # reusing it.
                self._drop()
        if reply is None:
            raise ConnectionLost(f"server at {self._address!r} closed "
                                 f"the connection before replying")
        if reply.get("op") == "error":
            raise WireError(reply.get("message", "server error"))
        return reply

    def close(self) -> None:
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                finally:
                    self._sock = None


class _MuxConnection:
    """One pipelined socket conversation: many frames in flight.

    Every outgoing message is sequence-tagged; a daemon reader thread
    correlates replies back to their futures by sequence id, in
    whatever order the server finishes them.  One lock serializes
    sends and the pending table — receives never hold it, so a slow
    reply blocks nothing.

    Failure discipline (the client-visible contracts the tests pin):

    * a server that dies mid-conversation **fails every pending
      future** instead of leaving callers hung;
    * a reply whose sequence id was never issued is a protocol
      violation — the connection is poisoned and every call after it
      raises;
    * only :meth:`close` is a deliberate shutdown; any other socket
      death surfaces as :class:`~repro.exceptions.ReproError`
      carrying the errno, never a silent return.
    """

    def __init__(self, address: Union[str, tuple],
                 timeout: Optional[float]) -> None:
        self._address = address
        self._timeout = timeout
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._seq = itertools.count()
        self._pending: Dict[int, "Future[Dict[str, Any]]"] = {}
        self._closed = False
        self._fault: Optional[ReproError] = None
        #: Completed request/reply exchanges (same unit as the strict
        #: connection's counter: one frame out, one frame back).
        self.round_trips = 0

    # -- sending -------------------------------------------------------
    def submit(self, message: Dict[str, Any]
               ) -> "Future[Dict[str, Any]]":
        """Ship one sequence-tagged frame; the reply as a future."""
        future: "Future[Dict[str, Any]]" = Future()
        future.set_running_or_notify_cancel()
        with self._lock:
            if self._fault is not None:
                raise self._fault
            if self._closed:
                # Deliberately closed — possibly under a concurrent
                # caller's feet during failover, so the failure is
                # retryable: the caller's next attempt gets a fresh
                # connection (or a peer replica).
                raise ConnectionLost("connection is closed")
            seq = next(self._seq)
            # Encode before registering: a message JSON cannot carry
            # raises here and leaves nothing pending.
            payload = frame_bytes(message, seq=seq)
            sock = self._ensure_socket()
            self._pending[seq] = future
            try:
                sock.sendall(payload)
            except OSError as exc:
                self._pending.pop(seq, None)
                self._fault = ConnectionLost(
                    f"send to {self._address!r} failed unexpectedly "
                    f"(errno {exc.errno}): {exc}")
                raise self._fault from exc
        return future

    def _ensure_socket(self) -> socket.socket:
        if self._sock is None:
            sock = connect_socket(self._address, self._timeout)
            # The reader owns receives and must block indefinitely
            # between replies; client-level timeouts are enforced on
            # the futures, not the socket.
            sock.settimeout(None)
            self._sock = sock
            threading.Thread(target=self._reader_main, args=(sock,),
                             daemon=True,
                             name="repro-client-reader").start()
        return self._sock

    # -- receiving (the reader thread) ---------------------------------
    def _reader_main(self, sock: socket.socket) -> None:
        fault: Optional[ReproError] = None
        try:
            while True:
                try:
                    received = recv_frame(sock)
                except (FrameError, WireError) as exc:
                    if not self._closed:
                        fault = exc
                    return
                except OSError as exc:
                    if not self._closed:
                        fault = ConnectionLost(
                            f"connection to {self._address!r} failed "
                            f"unexpectedly (errno {exc.errno}): {exc}")
                    return
                if received is None:  # clean close on a boundary
                    with self._lock:
                        if self._pending and not self._closed:
                            fault = ConnectionLost(
                                f"server at {self._address!r} closed "
                                f"the connection with "
                                f"{len(self._pending)} requests in "
                                f"flight")
                    return
                seq, message = received
                if seq is None:
                    # Untagged frames on a pipelined connection are
                    # connection-level: a fatal server error (e.g. an
                    # oversized frame verdict) or a protocol breach.
                    if message.get("op") == "error":
                        fault = WireError(
                            message.get("message", "server error"))
                    else:
                        fault = WireError(
                            "untagged reply on a pipelined connection")
                    return
                with self._lock:
                    future = self._pending.pop(seq, None)
                if future is None:
                    fault = WireError(
                        f"server replied to sequence id {seq}, which "
                        f"was never issued on this connection")
                    return
                self.round_trips += 1
                if message.get("op") == "error":
                    future.set_exception(WireError(
                        message.get("message", "server error")))
                else:
                    future.set_result(message)
        finally:
            self._retire(sock, fault)

    def _retire(self, sock: socket.socket,
                fault: Optional[ReproError]) -> None:
        """Tear one socket down: record the fault, fail the pending."""
        with self._lock:
            if fault is not None and not self._closed:
                self._fault = fault
            if self._sock is sock:
                self._sock = None
            pending = list(self._pending.values())
            self._pending.clear()
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass
        failure = fault if fault is not None else ConnectionLost(
            "connection closed with requests in flight")
        for future in pending:
            if not future.done():
                future.set_exception(failure)

    # -- lifecycle -----------------------------------------------------
    @property
    def fault(self) -> Optional[ReproError]:
        """The unexpected failure that poisoned this connection."""
        return self._fault

    def close(self) -> None:
        with self._lock:
            self._closed = True
            sock = self._sock
            self._sock = None
        if sock is not None:
            try:
                sock.close()  # wakes the reader, which retires cleanly
            except OSError:  # pragma: no cover
                pass


class GraphClient(GraphService):
    """Client for a served graph: the §V methods, typed and batch surfaces.

    A :class:`~repro.serving.protocol.GraphService` like the local
    handles — ``client.out(4)``, ``client.reach(1, 9)`` — where each
    query is one :meth:`query` round trip (the server keeps the LRU).

    The default client is strict request–response on one connection —
    simple, and exactly what scripts and the CLI need.  With
    ``pipeline=True`` it becomes a multiplexing client: every frame
    is sequence-tagged, :meth:`execute_async` returns a future, many
    batches ride each connection concurrently, and ``pool_size``
    connections share the traffic round-robin (one is plenty until a
    single reader thread saturates).

    ``retries=N`` makes the blocking surface (``execute`` / ``batch``
    / ``query`` / ``info`` / ``ping``) survive up to N link deaths per
    call: on a retryable failure (see
    :func:`repro.serving.protocol.is_retryable`) the dead connection
    is replaced and the request resent — every §V query is a read, so
    a resend cannot double-apply anything.  ``execute_async`` stays
    single-shot (its caller owns the future's fate).
    """

    def __init__(self, address: Union[str, tuple],
                 timeout: Optional[float] = None,
                 pipeline: bool = False, pool_size: int = 1,
                 retries: int = 0) -> None:
        self.address = address
        self.pipeline = bool(pipeline)
        self._timeout = timeout
        self._retries = max(0, int(retries))
        self._retired_trips = 0
        self._conn: Optional[_WireConnection] = None
        self._pool: List[_MuxConnection] = []
        if self.pipeline:
            self._pool = [_MuxConnection(address, timeout)
                          for _ in range(max(1, int(pool_size)))]
            self._rr = itertools.count()
        else:
            if pool_size not in (None, 1):
                raise ReproError("pool_size > 1 needs pipeline=True "
                                 "(a strict client holds exactly one "
                                 "connection)")
            self._conn = _WireConnection(address, timeout)

    # -- plumbing ------------------------------------------------------
    def _next_mux(self) -> _MuxConnection:
        return self._pool[next(self._rr) % len(self._pool)]

    def _await(self, future: "Future[Any]") -> Any:
        try:
            return future.result(self._timeout)
        except FutureTimeoutError:
            raise RequestTimeout(
                f"no reply from {self.address!r} within "
                f"{self._timeout}s") from None

    def _reset_links(self) -> None:
        """Replace every connection; completed-trip counters survive."""
        if self.pipeline:
            pool = self._pool
            self._pool = [_MuxConnection(self.address, self._timeout)
                          for _ in pool]
            for conn in pool:
                self._retired_trips += conn.round_trips
                conn.close()
        else:
            conn, self._conn = self._conn, _WireConnection(
                self.address, self._timeout)
            self._retired_trips += conn.round_trips
            conn.close()

    def _with_retries(self, attempt: Any) -> Any:
        for remaining in range(self._retries, -1, -1):
            try:
                return attempt()
            except (ReproError, OSError) as exc:
                if remaining == 0 or not is_retryable(exc):
                    raise
                self._reset_links()

    def _roundtrip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        if self.pipeline:
            return self._with_retries(
                lambda: self._await(self._next_mux().submit(message)))
        return self._with_retries(
            lambda: self._conn.round_trip(message))

    # -- typed ---------------------------------------------------------
    def execute(self, requests: Sequence[Union[QueryRequest,
                                               Sequence[Any]]],
                executor: Optional[Executor] = None
                ) -> List[QueryResult]:
        """Ship a batch; one :class:`QueryResult` per request, in order.

        Per-request error semantics hold across the wire: a malformed
        or failing request errors alone, everything else is answered.
        The server plans and executes the frame, so ``executor`` is
        accepted for :class:`GraphService` parity and ignored.
        """
        if self.pipeline:
            return self._with_retries(
                lambda: self._await(self.execute_async(requests)))
        wire = requests_to_wire(requests)
        if not wire:
            return []
        reply, refused = _ship_batch(wire, self._roundtrip)
        return _settle_results(wire, reply, refused)

    def execute_async(self, requests: Sequence[Union[QueryRequest,
                                                     Sequence[Any]]]
                      ) -> "Future[List[QueryResult]]":
        """Ship a batch without waiting; results as a future.

        Requires ``pipeline=True``.  Many futures can be outstanding
        per connection; the server answers them as each batch
        completes, in any order, and the sequence tags route every
        reply to its future.
        """
        if not self.pipeline:
            raise ReproError("execute_async needs a pipelined client "
                             "(GraphClient(..., pipeline=True))")
        done: "Future[List[QueryResult]]" = Future()
        done.set_running_or_notify_cancel()
        wire = requests_to_wire(requests)
        if not wire:
            done.set_result([])
            return done
        inner, refused = _ship_batch(wire, self._next_mux().submit)
        if inner is None:
            done.set_result(_settle_results(wire, None, refused))
            return done

        def settle(reply: "Future[Dict[str, Any]]") -> None:
            try:
                done.set_result(_settle_results(wire, reply.result(),
                                                refused))
            except BaseException as exc:
                done.set_exception(exc)

        inner.add_done_callback(settle)
        return done

    def batch(self, requests: Sequence[Sequence[Any]],
              parallel: bool = False,
              max_workers: Optional[int] = None,
              executor: Optional[Executor] = None) -> List[Any]:
        """One frame, values in request order; raises the first error.

        The server plans the frame, so ``parallel``, ``max_workers``
        and ``executor`` are accepted for parity and ignored.
        """
        return [result.unwrap() for result in self.execute(requests)]

    def query(self, kind: str, *args: Any) -> Any:
        """One query, unwrapped."""
        return self.execute([(kind, *args)])[0].unwrap()

    def _uncached_query(self, kind: str, args: Tuple[Any, ...]) -> Any:
        return self.query(kind, *args)

    # -- control -------------------------------------------------------
    def info(self) -> Dict[str, Any]:
        """The server's self-description (type, shards, sizes)."""
        reply = self._roundtrip({"op": "info"})
        return {key: value for key, value in reply.items()
                if key != "op"}

    def ping(self) -> bool:
        """Liveness probe."""
        return self._roundtrip({"op": "ping"}).get("op") == "pong"

    @property
    def round_trips(self) -> int:
        """Request/response exchanges this client has performed."""
        if self.pipeline:
            live = sum(conn.round_trips for conn in self._pool)
        else:
            live = self._conn.round_trips
        return self._retired_trips + live

    def close(self) -> None:
        for conn in self._pool:
            conn.close()
        if self._conn is not None:
            self._conn.close()

    def __enter__(self) -> "GraphClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class _Replica:
    """One endpoint's failover state inside a :class:`ReplicatedShard`."""

    __slots__ = ("endpoint", "client", "failures", "down_until",
                 "retired_trips")

    def __init__(self, endpoint: Union[str, tuple]) -> None:
        self.endpoint = endpoint
        self.client: Optional[GraphClient] = None
        self.failures = 0
        self.down_until = 0.0
        self.retired_trips = 0


class ReplicatedShard(GraphService):
    """One logical shard behind N replica endpoints.

    The same :class:`~repro.serving.protocol.GraphService` surface as a
    local :class:`~repro.api.CompressedGraph`, answered by the shard
    servers — the same grammar code the local handle would run, which
    is why router-served answers are bit-identical to in-process ones —
    so the sharded router (and the single-shard server) cannot tell a
    shard link from a local shard.  Each replica is one pipelined
    :class:`GraphClient`: concurrent router batches multiplex over one
    sequence-tagged connection instead of queueing on a lock.  Reads are
    **round-robin load-balanced** across healthy replicas; a retryable
    link failure (:func:`repro.serving.protocol.is_retryable` — kill,
    hang past the per-request ``timeout``, truncation, reset) marks
    that replica *down* with exponential backoff, drops its poisoned
    connection, and resends the request to the next peer.  Backoff
    gates replica *selection* only — nothing here ever sleeps, and a
    cooling replica is still tried last rather than never (so a lone
    surviving replica is always used).

    When every replica fails one request, the sweep raises
    :class:`~repro.exceptions.ShardUnavailable` — a ``QueryError``, so
    batch execution reports it per-request instead of aborting.

    ``round_trips`` sums *completed* exchanges across replicas (the
    pipelined connections count replies, not sends), which is what
    keeps the router's wire-cost budgets **per logical shard**: a
    failed attempt that was retried onto a peer contributes exactly
    one completed exchange, no matter how many replicas exist.
    """

    #: A link owns no grammar state: nothing to canonicalize or build.
    canonicalizations = 0
    index_built = True

    def __init__(self, endpoints: Sequence[Union[str, tuple]],
                 timeout: Optional[float] = DEFAULT_SHARD_TIMEOUT,
                 pipeline: bool = True,
                 shard_index: Optional[int] = None) -> None:
        if not endpoints:
            raise ReproError("a replicated shard needs at least one "
                             "endpoint")
        self._timeout = timeout
        self._pipeline = pipeline
        self.shard_index = shard_index
        self._replicas = [_Replica(endpoint) for endpoint in endpoints]
        self._rr = itertools.count()
        self._lock = threading.Lock()
        #: Retryable link failures that were resent to a peer — the
        #: observable proof a fault-injection lane actually failed over.
        self.failovers = 0

    # -- replica selection and failover --------------------------------
    def _plan(self, now: float) -> List[_Replica]:
        """All replicas, rotated round-robin, healthy ones first."""
        start = next(self._rr) % len(self._replicas)
        rotated = (self._replicas[start:] + self._replicas[:start])
        healthy = [r for r in rotated if r.down_until <= now]
        cooling = [r for r in rotated if r.down_until > now]
        # Cooling replicas last, least-recently-failed first: if every
        # peer is down too, the one most likely to have recovered is
        # retried first.
        return healthy + sorted(cooling, key=lambda r: r.down_until)

    def _ensure(self, replica: _Replica) -> GraphClient:
        with self._lock:
            if replica.client is None:
                replica.client = GraphClient(
                    replica.endpoint, timeout=self._timeout,
                    pipeline=self._pipeline)
            return replica.client

    def _mark_down(self, replica: _Replica, client: GraphClient) -> None:
        with self._lock:
            replica.failures += 1
            replica.down_until = time.monotonic() + min(
                _BACKOFF_CAP,
                _BACKOFF_BASE * (2 ** (replica.failures - 1)))
            if replica.client is client:
                # The poisoned connection cannot be reused; a fresh
                # client reconnects on the next attempt.
                replica.retired_trips += client.round_trips
                replica.client = None
        client.close()

    def _mark_up(self, replica: _Replica) -> None:
        if replica.failures:
            with self._lock:
                replica.failures = 0
                replica.down_until = 0.0

    def _attempt(self, call: Any) -> Any:
        """Run ``call(client)`` against replicas until one answers."""
        failures: List[str] = []
        plan = self._plan(time.monotonic())
        for replica in plan:
            client = self._ensure(replica)
            try:
                value = call(client)
            except (ReproError, OSError) as exc:
                if not is_retryable(exc):
                    raise
                self._mark_down(replica, client)
                failures.append(f"{replica.endpoint}: {exc}")
                if len(failures) < len(plan):
                    with self._lock:
                        self.failovers += 1
                continue
            self._mark_up(replica)
            return value
        raise ShardUnavailable(
            f"shard {self.shard_index if self.shard_index is not None else '?'}: "
            f"all {len(self._replicas)} replica"
            f"{'s' if len(self._replicas) != 1 else ''} unavailable "
            f"({'; '.join(failures)})")

    # -- the wire surface ----------------------------------------------
    def execute(self, requests: Sequence[Union[QueryRequest,
                                               Sequence[Any]]],
                executor: Optional[Executor] = None
                ) -> List[QueryResult]:
        """The whole batch in one frame to one replica (the shard
        server plans and executes it; ``executor`` is ignored)."""
        return self._attempt(lambda client: client.execute(requests))

    def batch(self, requests: Sequence[Sequence[Any]],
              parallel: bool = False,
              max_workers: Optional[int] = None,
              executor: Optional[Executor] = None) -> List[Any]:
        """One frame, values in order; raises the first error (the
        planning arguments are ignored, as on :class:`GraphClient`)."""
        return self._attempt(lambda client: client.batch(requests))

    def _uncached_query(self, kind: str, args: Tuple[Any, ...]) -> Any:
        return self._attempt(lambda client: client.query(kind, *args))

    def info(self) -> Dict[str, Any]:
        """Any live replica's self-description."""
        return self._attempt(lambda client: client.info())

    # -- introspection -------------------------------------------------
    @property
    def endpoints(self) -> List[Union[str, tuple]]:
        return [replica.endpoint for replica in self._replicas]

    @property
    def replica_round_trips(self) -> List[int]:
        """Completed exchanges per replica endpoint (for tests)."""
        with self._lock:
            return [replica.retired_trips
                    + (replica.client.round_trips
                       if replica.client is not None else 0)
                    for replica in self._replicas]

    @property
    def round_trips(self) -> int:
        """Completed wire exchanges for this *logical* shard."""
        return sum(self.replica_round_trips)

    def close(self) -> None:
        with self._lock:
            clients = [replica.client for replica in self._replicas
                       if replica.client is not None]
            for replica in self._replicas:
                replica.client = None
        for client in clients:
            client.close()


# ----------------------------------------------------------------------
# A standalone shard server (the `shard-serve` building block)
# ----------------------------------------------------------------------
class ShardHost:
    """Serve exactly one shard of a container, standalone.

    The building block of a manifest deployment: start N hosts per
    shard on any machines (``repro shard-serve graph.grps --shard 2``),
    write a :class:`~repro.serving.cluster.ClusterManifest` naming
    their endpoints, and spawn routers from the manifest — no fork
    relationship anywhere.  Each host reports the container build it
    decoded (``grps_hash``) and its deployment ``epoch`` in its
    ``info`` reply, which is how a router proves a manifest is neither
    stale nor pointed at the wrong build.
    """

    def __init__(self, path: Union[str, Path, bytes], shard: int = 0,
                 address: str = "127.0.0.1:0",
                 epoch: int = 0, cache_size: Optional[int] = None,
                 pipeline: Optional[int] = None) -> None:
        from repro.encoding.container import map_file
        self._data = (bytes(path) if isinstance(path, (bytes, bytearray))
                      else map_file(path))
        self._shard = int(shard)
        self._address = address
        self._epoch = int(epoch)
        self._cache_size = cache_size
        self._pipeline = pipeline
        self._listener: Optional[socket.socket] = None
        self._loop: Optional[ServerLoop] = None
        self.endpoint: Optional[str] = None
        #: The lazily decoded "GRPS" framing (``None`` before
        #: :meth:`start` and for single-grammar containers).  Its
        #: ``materialized_bytes`` counter is how the cold-open bench
        #: gate verifies a host copies only its own shard.
        self.container: Optional[Any] = None

    @property
    def fault(self) -> Optional[ReproError]:
        return self._loop.fault if self._loop is not None else None

    def start(self) -> "ShardHost":
        if self._listener is not None:
            return self
        from repro.api import DEFAULT_CACHE_SIZE, CompressedGraph
        from repro.encoding.container import (
            decode_sharded_container,
            is_sharded_container,
        )

        if is_sharded_container(self._data):
            # Lazy decode: only the owned shard's blob is copied out
            # of the (mmap-backed) container.
            container = decode_sharded_container(self._data)
            self.container = container
            if not 0 <= self._shard < container.num_shards:
                raise ReproError(
                    f"shard index {self._shard} out of range "
                    f"(container has {container.num_shards} shards)")
            blob = container.shard(self._shard)
        else:
            if self._shard != 0:
                raise ReproError(
                    f"shard index {self._shard} out of range (a "
                    f"single-grammar container has exactly shard 0)")
            blob = self._data
        handle = CompressedGraph.from_bytes(
            blob, cache_size=(DEFAULT_CACHE_SIZE
                              if self._cache_size is None
                              else self._cache_size))
        handle.warm()
        self._listener, self.endpoint = bind_socket(self._address)
        info = {
            "type": "shard",
            "shard": self._shard,
            "epoch": self._epoch,
            "grps_hash": container_hash(self._data),
            "nodes": handle.node_count(),
            "edges": handle.edge_count(),
            "labels": [[label, handle.alphabet.name(label)]
                       for label in handle.alphabet.terminals()],
        }
        self._loop = ServerLoop(self._listener, handle,
                                InlineExecutor(), info,
                                pipeline=self._pipeline).start()
        return self

    def close(self) -> None:
        if self._loop is not None:
            self._loop.stop()
            self._loop = None
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
            self._listener = None
        if self.endpoint and self.endpoint.startswith("unix:"):
            try:
                os.unlink(self.endpoint[len("unix:"):])
            except OSError:
                pass

    def __enter__(self) -> "ShardHost":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------
class GraphServer:
    """Serve a compressed container: shard endpoints + a router.

    Two deployment shapes share this class:

    * **Forked** (the default): one loopback shard-server process per
      shard — ``replicas=N`` forks N per shard, and the router
      load-balances reads across them.
    * **Manifest** (``manifest=``): the shard servers already run —
      on this machine or any other, started by ``repro shard-serve``
      or :class:`ShardHost` — and a
      :class:`~repro.serving.cluster.ClusterManifest` names their
      endpoints.  Nothing is forked; the router validates that every
      reachable replica serves the same container build
      (``grps_hash``) and deployment generation (``epoch``) as the
      manifest, and that at least one replica per shard is alive.

    Either way every shard link is a :class:`ReplicatedShard`:
    round-robin reads, reconnect/retry with backoff onto a peer when
    a replica drops, per-request ``shard_timeout``
    (default :data:`DEFAULT_SHARD_TIMEOUT` seconds).

    ``start()`` is idempotent-safe to pair with ``close()`` (also a
    context manager).  The ``endpoint`` attribute is the canonical
    client address — with ``port=0`` the OS picks one, so tests and
    benchmarks never race over a fixed port.  ``pipeline`` bounds the
    concurrently evaluating batches per server (the event loop's
    worker pool; default :data:`repro.serving.aio.DEFAULT_PIPELINE`).
    """

    def __init__(self, path: Union[str, Path, bytes, None] = None,
                 address: str = "127.0.0.1:0",
                 cache_size: Optional[int] = None,
                 pipeline: Optional[int] = None,
                 replicas: int = 1,
                 manifest: Union[str, Path, ClusterManifest,
                                 None] = None,
                 shard_timeout: Optional[float] = DEFAULT_SHARD_TIMEOUT
                 ) -> None:
        if manifest is not None and not isinstance(manifest,
                                                   ClusterManifest):
            manifest = ClusterManifest.load(manifest)
        self._manifest = manifest
        if path is None:
            if manifest is None:
                raise ReproError("GraphServer needs a container (path "
                                 "or bytes) or a cluster manifest")
            if manifest.container is None:
                raise ReproError("the manifest names no container "
                                 "file; pass the container explicitly "
                                 "(GraphServer(path, manifest=...))")
            path = manifest.container
        from repro.encoding.container import map_file
        self._data = (bytes(path) if isinstance(path, (bytes, bytearray))
                      else map_file(path))
        #: Lazily decoded "GRPS" framing (set by :meth:`start` for
        #: sharded containers): its ``materialized_bytes`` counter
        #: shows how little of the file the router itself copied.
        self.container: Optional[Any] = None
        if int(replicas) < 1:
            raise ReproError(f"replicas must be >= 1, got {replicas}")
        self._address = address
        self._cache_size = cache_size
        self._pipeline = pipeline
        self._replicas = int(replicas)
        self._shard_timeout = shard_timeout
        #: Forked mode: ``_process_groups[shard][replica]`` — empty in
        #: manifest mode (the shard servers are not our children).
        self._process_groups: List[List[Any]] = []
        self._processes: List[Any] = []
        self._proxies: List[ReplicatedShard] = []
        self._listener: Optional[socket.socket] = None
        self._loop: Optional[ServerLoop] = None
        self._service: Optional[Any] = None
        self.endpoint: Optional[str] = None
        self.num_shards = 0

    @property
    def service(self) -> Optional[Any]:
        """The router-side service answering client batches.

        For a sharded container this is the proxy-backed
        :class:`~repro.sharding.ShardedCompressedGraph` (its planner
        and closure are live objects — tests and operators can
        inspect or pin the cross-shard strategy); for a single
        grammar it is the lone :class:`ReplicatedShard`.  ``None``
        until :meth:`start`.
        """
        return self._service

    @property
    def fault(self) -> Optional[ReproError]:
        """An unexpected serving-loop death (listener failure), or
        ``None`` while healthy or after a deliberate :meth:`close`."""
        return self._loop.fault if self._loop is not None else None

    # ------------------------------------------------------------------
    def start(self) -> "GraphServer":
        """Acquire shard endpoints, build the router, begin accepting.

        Forked mode spawns the shard-server children; manifest mode
        validates the pre-existing endpoints instead.  Idempotent: a
        started server (``serve()`` returns one) is not started again
        by ``with server:``.
        """
        if self._listener is not None:
            return self
        from repro.api import DEFAULT_CACHE_SIZE
        from repro.encoding.container import (
            decode_sharded_container,
            is_sharded_container,
        )

        cache_size = (DEFAULT_CACHE_SIZE if self._cache_size is None
                      else self._cache_size)
        sharded = is_sharded_container(self._data)
        container = None
        if sharded:
            from repro.sharding import ShardedCompressedGraph
            # Lazy decode: the router itself materializes only the
            # meta and closure trailers; shard blobs are copied by the
            # forked children (each exactly its own — the parent's
            # mmap is inherited), or not at all in manifest mode.
            container = decode_sharded_container(self._data)
            self.container = container
            shard_count = container.num_shards
        else:
            shard_count = 1
        try:
            if self._manifest is not None:
                endpoint_groups = self._manifest_endpoints(shard_count)
            else:
                endpoint_groups = self._spawn_shards(
                    container if container is not None else self._data,
                    shard_count)
            self._proxies = [
                ReplicatedShard(group, timeout=self._shard_timeout,
                                shard_index=index)
                for index, group in enumerate(endpoint_groups)]
            if self._manifest is not None:
                self._validate_cluster()
            if sharded:
                # The router owns no grammar, so boundary-edge label
                # names (RPQ DFA steps, pattern-count corrections)
                # come from the shard servers' startup info.
                label_names: Dict[int, Optional[str]] = {}
                for proxy in self._proxies:
                    for label, name in proxy.info().get("labels", []):
                        label_names.setdefault(label, name)
                # A persisted closure means a cold-started router
                # answers cross-shard queries without ever re-probing
                # the shards.
                service: Any = ShardedCompressedGraph.from_container(
                    container, list(self._proxies),
                    cache_size=cache_size,
                    label_names=sorted(label_names.items()))
                executor: Executor = ThreadExecutor()
                info = {
                    "type": "sharded",
                    "shards": shard_count,
                    "nodes": service.node_count(),
                    "boundary_edges": service.boundary_edge_count,
                    "partitioner": service.partitioner,
                    "closure": service.closure_built,
                    "replicas": [len(group)
                                 for group in endpoint_groups],
                }
            else:
                proxy = self._proxies[0]
                service = proxy
                executor = InlineExecutor()
                info = {"type": "single", "shards": 1,
                        "replicas": [len(endpoint_groups[0])],
                        **{key: value
                           for key, value in proxy.info().items()
                           if key in ("nodes", "edges")}}
            if self._manifest is not None:
                info["epoch"] = self._manifest.epoch
        except Exception:
            # e.g. a closure/meta mismatch or a manifest validation
            # failure: don't leak the shard processes forked above.
            self.close()
            raise
        self.num_shards = shard_count
        self._service = service
        self._listener, self.endpoint = bind_socket(self._address)
        self._loop = ServerLoop(self._listener, service, executor,
                                info, pipeline=self._pipeline).start()
        return self

    def _manifest_endpoints(self, shard_count: int) -> List[List[str]]:
        """The manifest's endpoint groups, shape-checked + hash-checked."""
        manifest = self._manifest
        manifest.verify_container(self._data)
        if manifest.num_shards != shard_count:
            raise ManifestError(
                f"manifest lists {manifest.num_shards} shards but the "
                f"container holds {shard_count}")
        return [list(group) for group in manifest.shards]

    def _validate_cluster(self) -> None:
        """Probe every manifest endpoint before routing through it.

        Per shard, at least one replica must be reachable, and every
        *reachable* replica must self-describe as the right shard of
        the right container build (``grps_hash``) at the manifest's
        ``epoch`` — a stale manifest (or one pointing at a foreign
        deployment) fails here, loudly, before any query is routed.
        """
        manifest = self._manifest
        for index, proxy in enumerate(self._proxies):
            reachable = 0
            for endpoint in proxy.endpoints:
                client = GraphClient(endpoint, timeout=5.0)
                try:
                    info = client.info()
                except (ReproError, OSError) as exc:
                    if not is_retryable(exc):
                        raise
                    continue  # dead replica: failover's job, not ours
                finally:
                    client.close()
                reachable += 1
                if info.get("type") != "shard" or \
                        info.get("shard") != index:
                    raise ManifestError(
                        f"endpoint {endpoint!r} serves "
                        f"{info.get('type')!r} shard "
                        f"{info.get('shard')!r}, manifest expects "
                        f"shard {index}")
                if info.get("grps_hash") != manifest.grps_hash:
                    raise ManifestError(
                        f"endpoint {endpoint!r} serves container "
                        f"build {str(info.get('grps_hash'))[:12]}…, "
                        f"manifest names "
                        f"{manifest.grps_hash[:12]}…")
                if info.get("epoch") != manifest.epoch:
                    raise ManifestError(
                        f"stale manifest: endpoint {endpoint!r} "
                        f"serves epoch {info.get('epoch')!r}, "
                        f"manifest says {manifest.epoch}")
            if reachable == 0:
                raise ManifestError(
                    f"no reachable replica for shard {index} "
                    f"(tried {list(proxy.endpoints)})")

    def _spawn_shards(self, source: Any, shard_count: int
                      ) -> List[List[str]]:
        """Fork ``replicas`` loopback servers per shard.

        ``source`` (a ``DecodedContainer`` or a single-grammar buffer)
        is passed to the children whole: fork start-method arguments
        are inherited, not pickled, so each child copies only its own
        shard blob out of the shared mapping.
        """
        context = _fork_context()
        if context is None:  # pragma: no cover - non-POSIX
            raise ReproError("socket serving requires a platform with "
                             "fork (POSIX)")
        groups: List[List[str]] = []
        for shard in range(shard_count):
            endpoints: List[str] = []
            processes: List[Any] = []
            for _ in range(self._replicas):
                parent_conn, child_conn = context.Pipe(duplex=False)
                process = context.Process(
                    target=_shard_process_main,
                    args=(source, shard, child_conn,
                          self._cache_size, self._pipeline),
                    daemon=True)
                process.start()
                child_conn.close()
                self._processes.append(process)
                processes.append(process)
                if not parent_conn.poll(_STARTUP_TIMEOUT_SECONDS):
                    self.close()
                    raise ReproError(
                        "shard server failed to start within "
                        f"{_STARTUP_TIMEOUT_SECONDS:.0f}s")
                endpoints.append(parent_conn.recv())
                parent_conn.close()
            groups.append(endpoints)
            self._process_groups.append(processes)
        return groups

    def kill_replica(self, shard: int, replica: int = 0) -> str:
        """Terminate one forked replica process (fault injection).

        Returns the killed replica's endpoint.  The router keeps
        routing: the dead link fails retryably and its queries fail
        over to the shard's surviving replicas.  Only meaningful in
        forked mode — manifest-mode shard servers are not children.
        """
        if not self._process_groups:
            raise ReproError("kill_replica needs forked shard "
                             "processes (not a manifest deployment)")
        if not 0 <= shard < len(self._process_groups):
            raise ReproError(f"shard index {shard} out of range")
        group = self._process_groups[shard]
        if not 0 <= replica < len(group):
            raise ReproError(f"replica index {replica} out of range "
                             f"(shard {shard} has {len(group)} "
                             f"replicas)")
        process = group[replica]
        if process.is_alive():
            process.terminate()
        process.join(timeout=5.0)
        return self._proxies[shard].endpoints[replica]

    # ------------------------------------------------------------------
    def connect(self, timeout: Optional[float] = None,
                pipeline: bool = False,
                pool_size: int = 1) -> GraphClient:
        """A client for this server's public endpoint."""
        if self.endpoint is None:
            raise ReproError("server is not started")
        return GraphClient(self.endpoint, timeout=timeout,
                           pipeline=pipeline, pool_size=pool_size)

    def close(self) -> None:
        """Stop accepting, drop shard links, terminate shard processes.

        This is the *deliberate* shutdown path: the serving loop is
        flagged before its listener closes, so an orderly teardown is
        never misreported as a listener failure.
        """
        if self._loop is not None:
            self._loop.stop()
            self._loop = None
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
            self._listener = None
        for proxy in self._proxies:
            proxy.close()
        self._proxies = []
        self._service = None
        for process in self._processes:
            if process.is_alive():
                process.terminate()
            process.join(timeout=5.0)
        self._processes = []
        self._process_groups = []
        # Unix-domain endpoints leave a filesystem entry behind.
        if self.endpoint and self.endpoint.startswith("unix:"):
            try:
                os.unlink(self.endpoint[len("unix:"):])
            except OSError:
                pass

    def __enter__(self) -> "GraphServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# Module-level conveniences (the documented entry points)
# ----------------------------------------------------------------------
def serve(path: Union[str, Path, bytes, None] = None,
          address: str = "127.0.0.1:0",
          cache_size: Optional[int] = None,
          pipeline: Optional[int] = None,
          replicas: int = 1,
          manifest: Union[str, Path, ClusterManifest, None] = None,
          shard_timeout: Optional[float] = DEFAULT_SHARD_TIMEOUT
          ) -> GraphServer:
    """Start serving a container; returns the running server.

    ``serve(...)`` / ``with serve(...) as server`` — the server
    accepts in a background thread, shard processes run until
    :meth:`GraphServer.close`.  ``pipeline`` bounds the concurrently
    evaluating batches per server process; ``replicas=N`` forks N
    processes per shard (round-robin reads, automatic failover);
    ``manifest=`` routes to pre-existing shard servers named by a
    :class:`~repro.serving.cluster.ClusterManifest` instead of
    forking anything.
    """
    return GraphServer(path, address=address,
                       cache_size=cache_size, pipeline=pipeline,
                       replicas=replicas, manifest=manifest,
                       shard_timeout=shard_timeout).start()


def connect(address: Union[str, tuple],
            timeout: Optional[float] = None,
            pipeline: bool = False,
            pool_size: int = 1,
            retries: int = 0) -> GraphClient:
    """Connect to a :func:`serve` endpoint.

    ``pipeline=True`` returns the multiplexing client (sequence-tagged
    frames, ``execute_async``, ``pool_size`` pooled connections);
    ``retries=N`` resends a request on up to N link deaths."""
    return GraphClient(address, timeout=timeout,
                       pipeline=pipeline, pool_size=pool_size,
                       retries=retries)
