"""Existence solver for the strict-domination notion via type analysis.

On an impact-maximizing allocation agent j maximizes the impact of every item
of A_j, so s_i(A_j) <= s_j(A_j) item by item, with equality on exactly the
items that i maximizes too.  Hence s_i(A_j) < s_j(A_j) iff A_j holds an item
that i does not maximize: only the *set* of item types a bundle holds
matters, and one more type in a bundle never hurts anyone.  Two consequences
shrink the search:

* agents with identical maximizer relations (same agent-type) can never both
  hold items, so any agent sharing its type with another ends empty-handed,
  and one representative per agent-type class stands for all its rivals;
* a type with at least as many items as eligible holders goes to all of
  them, and a type with fewer items to as many holders as it has items
  (each such holder set tried in lexicographic order).

The solver guesses the set of uniquely-typed agents that receive non-empty
bundles (smallest guesses first, then lexicographic) and, per guess, walks
the item types in ``compute_types`` order, choosing which guessed agents hold
each.  Every guessed agent must end up holding, for each other agent-type
class, a type that class does not maximize.  With one bitmask of the classes
per type (built once per solve), a branch is cut as soon as some agent
cannot cover its classes from the types still left.  The walk is an explicit
stack, so no number of types meets the recursion limit.  One node of the
budget is one guess or one holder set tried, so the budget bounds the work.
Returned allocations are verified directly against the raw-instance checker.
"""

from __future__ import annotations

from itertools import combinations

from . import fairness
from .model import (
    Allocation,
    BudgetExceededError,
    Frozen,
    Instance,
    InternalError,
    _set,
    all_maximizers,
    require_budget,
)

DEFAULT_NODE_BUDGET = 10**6


class TypePartition(Frozen):
    """Items grouped by identical maximizer sets, agents by identical maximized item sets.

    ``maximizer_sets[t]`` is the agent set shared by every item in
    ``item_types[t]``.
    """

    __slots__ = ("item_types", "agent_types", "maximizer_sets")
    item_types: tuple[tuple[int, ...], ...]
    agent_types: tuple[tuple[int, ...], ...]
    maximizer_sets: tuple[frozenset[int], ...]

    def __init__(self, item_types, agent_types, maximizer_sets) -> None:
        _set(self, "item_types", item_types)
        _set(self, "agent_types", agent_types)
        _set(self, "maximizer_sets", maximizer_sets)


def compute_types(inst: Instance) -> TypePartition:
    """Partition items and agents into types (first-occurrence order).

    Two items share a type iff their impact-maximizer sets are equal; two
    agents share a type iff they maximize impact for exactly the same items.
    Depends only on maximizer sets, so raw and normalized impacts give the
    same partition.
    """
    maxsets = all_maximizers(inst)
    item_groups: dict[frozenset[int], list[int]] = {}
    for g in range(inst.m):
        item_groups.setdefault(maxsets[g], []).append(g)
    agent_groups: dict[frozenset[int], list[int]] = {}
    for i in range(inst.n):
        maximized = frozenset(g for g in range(inst.m) if i in maxsets[g])
        agent_groups.setdefault(maximized, []).append(i)
    return TypePartition(
        item_types=tuple(tuple(v) for v in item_groups.values()),
        agent_types=tuple(tuple(v) for v in agent_groups.values()),
        maximizer_sets=tuple(item_groups.keys()),
    )


def unique_type_agents(types: TypePartition) -> frozenset[int]:
    """Agents whose agent-type class is a singleton (everyone else is forced empty)."""
    return frozenset(cls[0] for cls in types.agent_types if len(cls) == 1)


def _spend(budget: list[int]) -> None:
    budget[0] -= 1
    if budget[0] < 0:
        raise BudgetExceededError("node budget exhausted in the holder search")


def _search_holders(pools, takers, cover, need, reach, budget):
    """Depth-first over the item types; returns the holders of each type, in
    ``compute_types`` order, or None.

    ``takers[t]`` are the guessed agents that maximize type t, ``cover[t]``
    the agent-type classes that do not, ``need[i]`` the classes agent i must
    find such a type for, and ``reach[i][t]`` those it could still find one
    for among types t onward.  All masks are ints with one bit per class.
    """
    if not pools:
        return []

    def options(t: int):
        return combinations(takers[t], min(len(pools[t]), len(takers[t])))

    path: list[tuple[int, ...]] = []  # the holders of each type entered
    stack = [(options(0), [0] * len(need))]  # per type: untried holders, masks held before it
    while stack:
        t = len(stack) - 1
        untried, held = stack[-1]
        holders = next(untried, None)
        if holders is None:
            stack.pop()
            continue
        _spend(budget)
        now = held.copy()
        for i in holders:
            now[i] |= cover[t]
        # only the takers of type t lost reach
        if all((now[i] | reach[i][t + 1]) & need[i] == need[i] for i in takers[t]):
            del path[t:]
            path.append(holders)
            if t + 1 == len(pools):
                return path
            stack.append((options(t + 1), now))
    return None


def solve_sa_empty(inst: Instance, *, node_budget: int | None = None) -> Allocation | None:
    """Find an impact-maximizing allocation where every non-empty bundle
    strictly impact-dominates all other agents, or decide none exists.

    Guesses are tried by increasing size with lexicographic tie-break, so the
    returned allocation is deterministic: each holder of a type gets one of
    its items, lowest indices first, and the last holder gets the rest.
    Raises :class:`BudgetExceededError` when the node budget runs out (never
    a wrong answer); a budget of None means ``DEFAULT_NODE_BUDGET``.
    """
    budget = [DEFAULT_NODE_BUDGET if node_budget is None else node_budget]
    require_budget(budget[0], "node budget")
    types = compute_types(inst)
    pools, maxsets, classes = types.item_types, types.maximizer_sets, types.agent_types
    cover = [sum(1 << c for c, cls in enumerate(classes) if cls[0] not in ms) for ms in maxsets]
    maximizers = [sum(1 << i for i in ms) for ms in maxsets]
    full = (1 << len(classes)) - 1
    need = [0] * inst.n
    reach: list[list[int]] = [[]] * inst.n
    for c, cls in enumerate(classes):
        if len(cls) == 1:
            i = cls[0]
            need[i] = full ^ 1 << c
            reach[i] = [0] * (len(pools) + 1)
            for t in reversed(range(len(pools))):
                reach[i][t] = reach[i][t + 1] | (cover[t] if i in maxsets[t] else 0)
    # an agent that can never dominate every other class is in no guess
    hopeful = [i for i in sorted(unique_type_agents(types)) if reach[i][0] & need[i] == need[i]]
    for size in range(len(hopeful) + 1):
        for guess in combinations(hopeful, size):
            _spend(budget)
            members = sum(1 << i for i in guess)
            if not all(ms & members for ms in maximizers):  # a type nobody may take
                continue
            takers = [tuple(i for i in guess if i in ms) for ms in maxsets]
            holders = _search_holders(pools, takers, cover, need, reach, budget)
            if holders is None:
                continue
            bundles: list[list[int]] = [[] for _ in range(inst.n)]
            for pool, hs in zip(pools, holders):
                for i, g in zip(hs, pool):
                    bundles[i].append(g)
                bundles[hs[-1]].extend(pool[len(hs):])
            alloc = Allocation(bundles)
            verdict = fairness.certify(inst, alloc, fairness.Notion(fairness.SA_EMPTY))
            if not verdict.fair:
                raise InternalError(
                    f"sa-empty solver built an allocation that fails {verdict.witness.reason}"
                )
            return alloc
    return None
