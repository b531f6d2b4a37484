"""The partition layer: partitioners, boundary topology, reach plans.

Everything between "one input graph" and "k independent shard
grammars" lives here, extracted from :mod:`repro.sharding` so each
concern is a module of its own:

``partitioners``
    The node-to-shard assignment zoo (``hash`` / ``connectivity`` /
    ``bfs`` / ``label``), the :data:`PARTITIONERS` registry, and
    :func:`cut_statistics` for scoring any assignment.
``plan``
    :func:`build_plan`: assignment -> pinned shard subgraphs + the
    boundary summary + degree extrema + cut statistics.
``boundary``
    :class:`BoundaryGraph` (the cross-shard summary in global IDs),
    :class:`BoundaryAutomaton` (the path language a route follows:
    one universal state for ``reach``, a pattern DFA for ``rpq``) and
    :class:`BoundaryClosure` (the persisted transitive closure over
    ``(boundary node, state)`` vertices that turns a cross-shard
    ``reach`` or ``rpq`` into one in-shard batch per endpoint shard).
``planner``
    :class:`ReachPlanner`: the cost model choosing closure /
    chaining / BFS per query and automaton size, shared by the
    in-process handle and the socket router.

:class:`repro.sharding.ShardedCompressedGraph` is the orchestration
glue on top of this layer.
"""

from repro.partition.boundary import (
    BoundaryAutomaton,
    BoundaryClosure,
    BoundaryGraph,
)
from repro.partition.partitioners import (
    PARTITIONERS,
    bfs_partition,
    connectivity_partition,
    cut_statistics,
    hash_partition,
    label_partition,
    resolve_partitioner,
)
from repro.partition.plan import PartitionPlan, build_plan
from repro.partition.planner import ReachPlan, ReachPlanner

__all__ = [
    "PARTITIONERS",
    "BoundaryAutomaton",
    "BoundaryClosure",
    "BoundaryGraph",
    "PartitionPlan",
    "ReachPlan",
    "ReachPlanner",
    "bfs_partition",
    "build_plan",
    "connectivity_partition",
    "cut_statistics",
    "hash_partition",
    "label_partition",
    "resolve_partitioner",
]
