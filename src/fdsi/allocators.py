"""Polynomial-time allocators with impact-maximization and awareness guarantees.

``auto`` tries two of them on every instance, whatever the agents'
awareness, and keeps an answer only once ``fairness.certify`` accepts it: the
weighted picking sequence (``sa_weighted_picking``) and the envy-graph
allocator for the one-less-preferred notion (``sa_efl_allocate``), whose envy
graph is read from the bundles' value and impact matrices, which it keeps.
The two-agent mixed-awareness special case (``two_agent_mixed_fast_path``) is
a library function that no solve route calls.  Each only ever hands an item
to one of its impact maximizers, so its output maximizes total social impact
by construction.  The first two offer each agent its items in the one order
``_preferences`` sorts per call (most valued first, then by item index), and
agents tie by index, which makes every run reproducible.
"""

from __future__ import annotations

from .model import (
    Allocation,
    Instance,
    InternalError,
    ValidationError,
    _ints,
    all_maximizers,
    require_goods,
)

Matrix = list[list[int]]


def _preferences(inst: Instance) -> list:
    """Each agent's impact-maximized items, most valued first, then by index,
    as an iterator: the agent's best remaining item is its next entry still
    in ``remaining``, since an item taken once never becomes remaining again."""
    maxsets = all_maximizers(inst)
    return [
        iter(sorted((g for g in range(inst.m) if i in maxsets[g]), key=lambda g: -values[g]))
        for i, values in enumerate(inst.valuations)
    ]


def sa_weighted_picking(
    inst: Instance, *, weights: tuple[int, ...] | None = None
) -> Allocation:
    """Weighted picking sequence restricted to impact-maximized items.

    Repeatedly the active agent minimizing picks/weight (cross-multiplied,
    ties by agent index) takes its most valued remaining item among those it
    maximizes impact for (ties by item index).  An agent chosen with no such
    item left is deactivated for good.  With socially aware agents the result
    satisfies the strong weighted one-removal condition on top of impact
    maximization; pass ``weights`` to override the instance weights (all-ones
    gives plain round robin).

    Unaware agents need no override when valuations equal impacts and are
    binary, the paper's tractable case: an agent maximizes every item it
    values at 1, so in its eyes the run is an unrestricted picking sequence.
    Round robin is then fair under every base but ``ef``, and the instance
    weights give ``wef1``/``swef1`` by the weighted picking-sequence result of
    Chakraborty, Igarashi, Suksompong and Zick ("Weighted Envy-Freeness in
    Indivisible Item Allocation", ACM TEAC 2021).
    """
    require_goods(inst)
    w = inst.weights if weights is None else tuple(weights)
    if len(w) != inst.n or not _ints(w) or any(x < 1 for x in w):
        raise ValidationError("picking weights must be positive integers, one per agent")
    orders = _preferences(inst)
    # counts[i] is how many picks agent i has made; dropping an agent with
    # nothing left picks as the skip-and-increment form does, as the items
    # only shrink
    counts = [0] * inst.n
    remaining = set(range(inst.m))
    active = list(range(inst.n))
    bundles: list[set[int]] = [set() for _ in range(inst.n)]
    while remaining:
        picker = active[0]
        for i in active[1:]:
            if counts[i] * w[picker] < counts[picker] * w[i]:
                picker = i
        best = next((g for g in orders[picker] if g in remaining), None)
        if best is None:
            active.remove(picker)
            continue
        bundles[picker].add(best)
        remaining.discard(best)
        counts[picker] += 1
    return Allocation(bundles)


def _envy_successors(V: Matrix, S: Matrix, vertices: list[int]) -> dict[int, list[int]]:
    """Adjacency of the awareness-filtered envy graph among ``vertices``
    (ascending), from the bundle sums ``V[i][j] = v_i(A_j)`` and
    ``S[i][j] = s_i(A_j)``: j follows i exactly when i values A_j above A_i
    while i's impact for A_j is at least j's own."""
    return {
        i: [
            j
            for j in vertices
            if j != i and V[i][i] < V[i][j] and S[i][j] >= S[j][j]
        ]
        for i in vertices
    }


def _find_cycle(succ: dict[int, list[int]]) -> list[int] | None:
    """Deterministic DFS cycle search over an adjacency dict: lowest start
    vertex, neighbors ascending.  The walk keeps one iterator of successors
    per path vertex on an explicit stack, so a long path cannot exhaust the
    interpreter's recursion limit."""
    color = dict.fromkeys(succ, 0)  # 0 new, 1 on path, 2 done
    for start in succ:
        if color[start]:
            continue
        color[start] = 1
        path, stack = [start], [iter(succ[start])]
        while stack:
            for u in stack[-1]:
                if color[u] == 1:
                    return path[path.index(u):]
                if color[u] == 0:
                    color[u] = 1
                    path.append(u)
                    stack.append(iter(succ[u]))
                    break
            else:
                color[path.pop()] = 2
                stack.pop()
    return None


def _rotate_cycles(
    bundles: list, V: Matrix, S: Matrix, vertices: list[int]
) -> dict[int, list[int]]:
    """Rotate bundles along envy cycles among ``vertices`` until the graph is
    acyclic, and return that acyclic graph.  ``bundles`` moves in place as
    one more row next to those of ``V`` and ``S``, so their columns stay the
    matrices of the bundles.

    Along a cycle every agent receives the bundle it envied, so each
    affected agent's own-bundle value strictly increases, which guarantees
    termination."""
    while True:
        succ = _envy_successors(V, S, vertices)
        cycle = _find_cycle(succ)
        if cycle is None:
            return succ
        # every agent on the cycle takes the bundle of the agent it envies
        donors = cycle[1:] + cycle[:1]
        for row in (bundles, *V, *S):
            moved = [row[d] for d in donors]
            for i, value in zip(cycle, moved):
                row[i] = value


def sa_efl_allocate(inst: Instance) -> Allocation:
    """Envy-graph allocator: a source agent repeatedly takes its best
    impact-maximized good, then envy cycles are rotated away.

    The result maximizes total impact and satisfies the one-less-preferred
    condition for socially aware agents.  Agents that maximize no remaining
    good leave the graph permanently but keep their bundles.

    One list of bundles and its value and impact matrices V and S (as in
    ``_envy_successors``) are built once, empty; each round adds the picked
    item to the picker's bundle and its entries to the picker's column, and
    ``_rotate_cycles`` moves bundles and columns together and hands back the
    acyclic envy graph of the result, from which the next round picks its
    source.  The graph is built afresh only when an agent leaves it.
    """
    require_goods(inst)
    orders = _preferences(inst)
    bundles: list[set[int]] = [set() for _ in range(inst.n)]
    V, S = [[0] * inst.n for _ in range(inst.n)], [[0] * inst.n for _ in range(inst.n)]
    vertices = list(range(inst.n))
    succ = _envy_successors(V, S, vertices)
    remaining = set(range(inst.m))
    while remaining:
        if not vertices:
            raise InternalError(
                "maximizer sets are never empty, so a vertex must remain"
            )
        envied = {j for heads in succ.values() for j in heads}
        source = min(v for v in vertices if v not in envied)
        best = next((g for g in orders[source] if g in remaining), None)
        if best is None:
            vertices.remove(source)
            succ = _envy_successors(V, S, vertices)
            continue
        bundles[source].add(best)
        remaining.discard(best)
        for Vi, Si, vals, imps in zip(V, S, inst.valuations, inst.impacts):
            Vi[source] += vals[best]
            Si[source] += imps[best]
        succ = _rotate_cycles(bundles, V, S, vertices)
    return Allocation(bundles)


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
