"""The serving subsystem: typed queries, executors, socket transport.

Layering (each module only reaches down):

``protocol``
    :class:`QueryRequest` / :class:`QueryResult`, the
    :class:`QueryKind` vocabulary, the batch planner
    (:func:`plan_batch`) and :class:`GraphService`, where the §V
    query methods, ``execute()`` (per-request errors) and ``batch()``
    are defined once for every handle and client.
``codec``
    The wire format: length-prefixed JSON frames, untagged or
    sequence-tagged, value-exact for every §V answer.
``executors``
    :class:`InlineExecutor` (sequential, through the LRU) and
    :class:`ThreadExecutor` (planned fan-out) — how a planned batch
    runs in process; plus :func:`fork_map`, the process-pool
    primitive shard builds reuse.
``aio``
    :class:`ServerLoop`, the asyncio serving core: many in-flight
    sequence-tagged frames per connection, answered as each batch
    completes; legacy untagged frames stay strictly ordered.
``cluster``
    :class:`ClusterManifest` — the validated JSON topology file
    (shard → replica endpoints, container hash, epoch) that lets
    routers and shard servers start independently of each other.
``router``
    :func:`serve` / :func:`connect`: shard servers (forked per shard
    — ``replicas=N`` for failover — or pre-existing, named by a
    manifest), :class:`ReplicatedShard` links with round-robin reads
    and retry-with-backoff, :class:`ShardHost` (one shard standalone,
    the ``shard-serve`` building block), and the client — pipelined
    (``pipeline=True``, ``execute_async``, ``pool_size=``) or strict,
    with ``retries=`` on the blocking surface.

:class:`repro.api.CompressedGraph` and
:class:`repro.sharding.ShardedCompressedGraph` are the two in-process
:class:`GraphService` implementations, :class:`GraphClient` and
:class:`ReplicatedShard` the two over the wire; ``serve()`` lifts
either handle onto sockets without changing a single answer.
"""

from repro.serving.aio import DEFAULT_PIPELINE, ServerLoop
from repro.serving.cluster import (
    MANIFEST_VERSION,
    ClusterManifest,
    container_hash,
)
from repro.serving.codec import (
    ConnectionLost,
    FrameError,
    OversizedFrameError,
    RequestTimeout,
    WireError,
)
from repro.serving.executors import (
    Executor,
    InlineExecutor,
    ThreadExecutor,
    fork_map,
)
from repro.serving.protocol import (
    CACHEABLE_KINDS,
    BatchPlan,
    GraphService,
    QueryKind,
    QueryRequest,
    QueryResult,
    is_retryable,
    normalize_request,
    plan_batch,
)
from repro.serving.router import (
    DEFAULT_SHARD_TIMEOUT,
    GraphClient,
    GraphServer,
    ReplicatedShard,
    ShardHost,
    connect,
    serve,
)

__all__ = [
    "BatchPlan",
    "CACHEABLE_KINDS",
    "ClusterManifest",
    "ConnectionLost",
    "DEFAULT_PIPELINE",
    "DEFAULT_SHARD_TIMEOUT",
    "Executor",
    "FrameError",
    "GraphClient",
    "GraphServer",
    "GraphService",
    "InlineExecutor",
    "MANIFEST_VERSION",
    "OversizedFrameError",
    "QueryKind",
    "QueryRequest",
    "QueryResult",
    "ReplicatedShard",
    "RequestTimeout",
    "ServerLoop",
    "ShardHost",
    "ThreadExecutor",
    "WireError",
    "connect",
    "container_hash",
    "fork_map",
    "is_retryable",
    "normalize_request",
    "plan_batch",
    "serve",
]
