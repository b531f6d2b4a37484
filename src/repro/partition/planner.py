"""Cost-based planning of cross-shard path queries (reach and RPQ).

Plain reachability is a regular path query over the universal
one-state automaton, so one cost model prices both: every estimate
below carries a ``num_states`` factor that is 1 for ``reach`` and the
pattern DFA's ``|Q|`` for ``rpq``.  The decision is over *three*
regimes, priced from the boundary statistics every handle already
has:

``closure``
    One in-shard batch per endpoint shard plus O(1) hops in the
    :class:`repro.partition.boundary.BoundaryClosure`.  Per-query cost
    ``(exits(S_s) + entries(S_t)) * |Q|`` probes — but the closure
    must first be built (``closure_pairs() * |Q|^2`` probes, once per
    handle and automaton), so it is only eligible while that build
    fits ``closure_budget``.
``chaining``
    Per-hop boundary chaining; worst case it probes every exit from
    every entered boundary vertex:
    ``total_exits * total_entries * |Q|^2``.
``bfs``
    Plain BFS over the merged (LRU-backed) labeled adjacency; cost
    scales with the derived graph, ``~ total_nodes * |Q|`` expansions.

:meth:`ReachPlanner.plan` returns the cheapest eligible strategy as a
:class:`ReachPlan` carrying the estimates, so tests, benchmarks and
the CLI can see *why* a regime was picked.  ``force`` pins a strategy
(differential suites exercise all three on the same handle); the
in-process handle and the socket router consult the same planner, so
served answers take the same route local ones do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.partition.boundary import BoundaryGraph

__all__ = ["ReachPlan", "ReachPlanner"]

#: ``closure_budget`` default: the build may cost up to this many
#: in-shard probes per derived-graph node.  One BFS fallback query
#: already costs ~``total_nodes`` expansions, so the build pays for
#: itself after ~``_BUDGET_PER_NODE`` cross-shard queries — cheap for
#: a long-lived serving handle, while still fencing off the dense
#: regime where the boundary rivals the graph itself.
_BUDGET_PER_NODE = 32
#: ...but never below this floor, so small graphs always qualify.
_BUDGET_FLOOR = 4096


@dataclass(frozen=True)
class ReachPlan:
    """One routing decision plus the estimates that produced it."""

    strategy: str                     # local | closure | chaining | bfs
    reason: str
    costs: Dict[str, float] = field(default_factory=dict)


class ReachPlanner:
    """Prices the cross-shard regimes for one sharded handle.

    Stateless between calls except for ``force`` (a strategy name that
    overrides the cost model; used by differential tests and
    benchmarks) and ``closure_budget`` (the probe budget a closure
    build may spend; ``0`` disables the closure entirely).
    """

    def __init__(self, boundary: BoundaryGraph, total_nodes: int,
                 closure_budget: Optional[int] = None) -> None:
        self._boundary = boundary
        self._total_nodes = total_nodes
        self.closure_budget = (
            max(_BUDGET_PER_NODE * total_nodes, _BUDGET_FLOOR)
            if closure_budget is None else closure_budget)
        #: Pin a strategy ("closure" / "chaining" / "bfs"), bypassing
        #: the cost model.  ``None`` restores cost-based planning.
        self.force: Optional[str] = None

    def closure_allowed(self, num_states: int = 1) -> bool:
        """Whether a closure build fits the probe budget.

        A build probes every ordered boundary pair times every ordered
        state pair, so a ``|Q|``-state automaton costs ``|Q|^2`` the
        plain-reach build and competes for the same budget.
        """
        boundary = self._boundary
        return (boundary.edge_count > 0
                and (boundary.closure_pairs() * num_states * num_states
                     <= self.closure_budget))

    def _costs(self, source_shard: int, target_shard: int,
               num_states: int) -> Tuple[int, int, int]:
        """Per-query ``(closure, chaining, bfs)`` estimates.

        Each carries the factor the product with a ``|Q|``-state
        automaton costs: closure lookups scale by ``|Q|``
        (state-to-state probes per endpoint), chaining by ``|Q|^2``
        (product waves), BFS by ``|Q|`` (product vertices).
        """
        boundary = self._boundary
        return ((len(boundary.exits[source_shard])
                 + len(boundary.entries[target_shard])) * num_states,
                (boundary.total_exits * max(boundary.total_entries, 1)
                 * num_states * num_states),
                self._total_nodes * num_states)

    def _unroutable(self, source_shard: int, target_shard: int
                    ) -> Optional[str]:
        """Why no boundary route exists for a shard pair, if none does
        (the answer is then decidable for free: ``"local"``)."""
        boundary = self._boundary
        if source_shard not in boundary.touched:
            return ("no boundary edge touches the source shard; it "
                    "cannot be left")
        if (source_shard != target_shard
                and not boundary.entries[target_shard]):
            return ("no boundary edge enters the target shard; it "
                    "cannot be reached from outside")
        return None

    def strategy(self, source_shard: int, target_shard: int,
                 closure_built: bool = False,
                 num_states: int = 1) -> str:
        """The strategy name alone — the hot-path probe.

        The cross-shard dispatch calls this per query (twice per
        planned batch request), so it formats nothing; :meth:`plan`
        wraps the same decision with the cost table and a
        human-readable reason.  ``num_states`` is the automaton the
        query walks the boundary with: 1 for ``reach``, the pattern
        DFA's state count for ``rpq``.
        """
        if self._unroutable(source_shard, target_shard) is not None:
            return "local"
        if self.force is not None:
            return self.force
        closure_cost, chaining_cost, bfs_cost = self._costs(
            source_shard, target_shard, num_states)
        if ((closure_built or self.closure_allowed(num_states))
                and closure_cost <= chaining_cost
                and closure_cost <= bfs_cost):
            return "closure"
        return "chaining" if chaining_cost <= bfs_cost else "bfs"

    def plan(self, source_shard: int, target_shard: int,
             closure_built: bool = False,
             num_states: int = 1) -> ReachPlan:
        """One :meth:`strategy` decision plus costs and a reason.

        ``closure_built`` marks the build cost as sunk (the handle
        passes it so a warmed or loaded closure is always preferred
        over re-deriving the decision from the budget).
        """
        unroutable = self._unroutable(source_shard, target_shard)
        if unroutable is not None:
            return ReachPlan("local", unroutable)
        strategy = self.strategy(source_shard, target_shard,
                                 closure_built, num_states)
        closure_cost, chaining_cost, bfs_cost = self._costs(
            source_shard, target_shard, num_states)
        costs: Dict[str, float] = {
            "closure": closure_cost,
            "chaining": float(chaining_cost),
            "bfs": float(bfs_cost),
            "closure_build": float(self._boundary.closure_pairs()
                                   * num_states * num_states),
        }
        if self.force is not None:
            return ReachPlan(self.force,
                             f"forced to {self.force!r}", costs)
        if strategy == "closure":
            reason = ("closure build "
                      + ("already paid"
                         if closure_built else
                         f"({costs['closure_build']:.0f} probes) fits "
                         f"the budget ({self.closure_budget})")
                      + f"; per-query cost {costs['closure']:.0f} "
                        "probes beats the alternatives")
        elif strategy == "chaining":
            reason = (f"sparse boundary: chaining "
                      f"(~{costs['chaining']:.0f} probes) undercuts "
                      f"BFS (~{costs['bfs']:.0f} expansions)")
        else:
            reason = (f"dense boundary: BFS (~{costs['bfs']:.0f} "
                      f"expansions) undercuts chaining "
                      f"(~{costs['chaining']:.0f} probes)")
        return ReachPlan(strategy, reason, costs)
