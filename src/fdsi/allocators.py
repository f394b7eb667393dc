"""Polynomial-time allocators with impact-maximization and awareness guarantees.

All three allocators only ever hand an item to one of its impact maximizers,
so their outputs maximize total social impact by construction.  Tie-breaking
is lexicographic everywhere (agent index, then item index), which makes every
run reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    Allocation,
    Instance,
    InternalError,
    ValidationError,
    all_maximizers,
    bundle_impact,
    bundle_value,
    require_goods,
)


def greedy_sim(inst: Instance) -> Allocation:
    """Give every item to its lowest-index impact maximizer."""
    owners = [min(impact_set) for impact_set in all_maximizers(inst)]
    return Allocation.from_assignment(inst.n, owners)


def sa_weighted_picking(
    inst: Instance, *, weights: tuple[int, ...] | None = None
) -> Allocation:
    """Weighted picking sequence restricted to impact-maximized items.

    Repeatedly the active agent minimizing picks/weight (cross-multiplied,
    ties by agent index) takes its most valued remaining item among those it
    maximizes impact for (ties by item index).  Agents that maximize no
    remaining item are deactivated.  With socially aware agents the result
    satisfies the strong weighted one-removal condition on top of impact
    maximization; pass ``weights`` to override the instance weights (all-ones
    gives plain round robin).
    """
    require_goods(inst)
    w = inst.weights if weights is None else tuple(weights)
    if len(w) != inst.n or any(x < 1 for x in w):
        raise ValidationError("picking weights must be positive, one per agent")
    maxsets = all_maximizers(inst)
    # counts[i] is how many picks agent i has made.  Agents leave ``active``
    # for good once they maximize impact for no remaining item; this is the
    # skip-and-increment formulation, because the remaining items only shrink.
    counts = [0] * inst.n
    remaining = set(range(inst.m))
    active = [i for i in range(inst.n) if any(i in maxsets[g] for g in remaining)]
    bundles: list[set[int]] = [set() for _ in range(inst.n)]
    while remaining:
        picker = active[0]
        for i in active[1:]:
            if counts[i] * w[picker] < counts[picker] * w[i]:
                picker = i
        candidates = sorted(g for g in remaining if picker in maxsets[g])
        best = candidates[0]
        for g in candidates[1:]:
            if inst.valuations[picker][g] > inst.valuations[picker][best]:
                best = g
        bundles[picker].add(best)
        remaining.discard(best)
        counts[picker] += 1
        active = [i for i in active if any(i in maxsets[g] for g in remaining)]
    return Allocation(bundles=tuple(frozenset(b) for b in bundles))


@dataclass(frozen=True)
class SAEnvyGraph:
    """Directed graph of awareness-filtered envy among the active agents.

    There is an arc (i, j) exactly when i values A_j above A_i while i's
    impact for A_j is at least j's own.
    """

    vertices: tuple[int, ...]
    arcs: tuple[tuple[int, int], ...]

    def successors(self, v: int) -> list[int]:
        return [b for (a, b) in self.arcs if a == v]

    def has_incoming(self, v: int) -> bool:
        return any(b == v for (_, b) in self.arcs)


def build_sa_envy_graph(
    inst: Instance, alloc: Allocation, active: tuple[int, ...] | list[int]
) -> SAEnvyGraph:
    """Arcs of the awareness-filtered envy predicate among the active agents."""
    vertices = tuple(sorted(active))
    arcs = []
    for i in vertices:
        own = bundle_value(inst, i, alloc.bundles[i])
        for j in vertices:
            if i == j:
                continue
            if own < bundle_value(inst, i, alloc.bundles[j]) and bundle_impact(
                inst, i, alloc.bundles[j]
            ) >= bundle_impact(inst, j, alloc.bundles[j]):
                arcs.append((i, j))
    return SAEnvyGraph(vertices=vertices, arcs=tuple(arcs))


def _find_cycle(graph: SAEnvyGraph) -> list[int] | None:
    """Deterministic DFS cycle search: lowest start vertex, neighbors ascending."""
    color: dict[int, int] = {v: 0 for v in graph.vertices}  # 0 new, 1 on path, 2 done
    succ = {v: sorted(graph.successors(v)) for v in graph.vertices}

    def visit(v: int, path: list[int]) -> list[int] | None:
        color[v] = 1
        path.append(v)
        for u in succ[v]:
            if color[u] == 1:
                return path[path.index(u):]
            if color[u] == 0:
                found = visit(u, path)
                if found is not None:
                    return found
        path.pop()
        color[v] = 2
        return None

    for start in graph.vertices:
        if color[start] == 0:
            cycle = visit(start, [])
            if cycle is not None:
                return cycle
    return None


def eliminate_cycles(
    inst: Instance, alloc: Allocation, active: tuple[int, ...] | list[int]
) -> Allocation:
    """Rotate bundles along detected envy cycles until the graph is acyclic.

    Along a cycle every agent receives the bundle it envied, so each affected
    agent's own-bundle value strictly increases and the arc count strictly
    drops each round, which guarantees termination.
    """
    while True:
        graph = build_sa_envy_graph(inst, alloc, active)
        cycle = _find_cycle(graph)
        if cycle is None:
            return alloc
        new_bundles = list(alloc.bundles)
        k = len(cycle)
        for pos, i in enumerate(cycle):
            new_bundles[i] = alloc.bundles[cycle[(pos + 1) % k]]
        alloc = Allocation(bundles=tuple(new_bundles))


def sa_efl_partials(inst: Instance):
    """Yield the partial allocation after every assignment round of the
    envy-graph allocator (used to check that each prefix already satisfies
    its guarantees)."""
    require_goods(inst)
    maxsets = all_maximizers(inst)
    alloc = Allocation.empty(inst.n)
    vertices = list(range(inst.n))
    remaining = set(range(inst.m))
    while remaining:
        if not vertices:
            raise InternalError(
                "maximizer sets are never empty, so a vertex must remain"
            )
        graph = build_sa_envy_graph(inst, alloc, vertices)
        source = min(v for v in vertices if not graph.has_incoming(v))
        candidates = sorted(g for g in remaining if source in maxsets[g])
        if not candidates:
            vertices.remove(source)
            continue
        best = candidates[0]
        for g in candidates[1:]:
            if inst.valuations[source][g] > inst.valuations[source][best]:
                best = g
        alloc = alloc.give(source, best)
        remaining.discard(best)
        alloc = eliminate_cycles(inst, alloc, vertices)
        yield alloc


def sa_efl_allocate(inst: Instance) -> Allocation:
    """Envy-graph allocator: a source agent repeatedly takes its best
    impact-maximized good, then envy cycles are rotated away.

    The result maximizes total impact and satisfies the one-less-preferred
    condition for socially aware agents.  Agents that maximize no remaining
    good leave the graph permanently but keep their bundles.
    """
    alloc = Allocation.empty(inst.n)
    for alloc in sa_efl_partials(inst):
        pass
    return alloc


def two_agent_mixed_fast_path(inst: Instance) -> Allocation | None:
    """Special case: two agents, the first unaware, the second aware.

    Applicable only when no item has the second agent as its unique impact
    maximizer; returns None otherwise.  If the impact functions coincide on
    every item the plain round robin already works; otherwise handing
    everything to the first agent is impact maximizing, trivially fair for
    it, and excused for the aware second agent by the strictly dominated
    impact of the first agent's bundle.
    """
    require_goods(inst)
    if inst.n != 2 or inst.aware != (False, True):
        return None
    maxsets = all_maximizers(inst)
    if any(ms == frozenset({1}) for ms in maxsets):
        return None
    if all(ms == frozenset({0, 1}) for ms in maxsets):
        return sa_weighted_picking(inst, weights=(1, 1))
    return Allocation(bundles=(frozenset(range(inst.m)), frozenset()))
