"""Existence solver for the strict-domination notion via type analysis.

Two structural facts shrink the search space enormously:

* agents with identical maximizer relations (same agent-type) can never both
  satisfy strict domination, so any agent sharing its type with another is
  forced to end up empty-handed;
* within an impact-maximizing allocation only the *type* multiset of a bundle
  matters (same-type items are interchangeable), and in maximizer units the
  impact another agent j has on agent i's bundle is simply the number of i's
  items whose type j also maximizes.

The solver therefore guesses the set of uniquely-typed agents that receive
non-empty bundles (smallest guesses first) and searches integer counts
x[i][t] (items of type t given to agent i) such that every type is fully
distributed, every guessed agent holds at least one item, and every guessed
agent's bundle count strictly exceeds each rival's share of it.  The count
search is a bounded depth-first enumeration with reachability pruning; it
replaces a fixed-dimension integer program at desk scale (same answers,
weaker asymptotic guarantee).  Raw-scale impacts and maximizer units agree on
impact-maximizing allocations, so returned allocations are verified directly
against the raw-instance checkers.
"""

from __future__ import annotations

from itertools import combinations

from . import fairness
from .model import (
    Allocation,
    BudgetExceededError,
    Instance,
    InternalError,
    TypePartition,
    compute_types,
    require_budget,
)

DEFAULT_NODE_BUDGET = 10**6


def unique_type_agents(types: TypePartition) -> frozenset[int]:
    """Agents whose agent-type class is a singleton (everyone else is forced empty)."""
    return frozenset(cls[0] for cls in types.agent_types if len(cls) == 1)


def _eligible(
    types: TypePartition, guess: tuple[int, ...]
) -> list[tuple[int, ...]] | None:
    """Per item type, the guessed agents allowed to hold it (those maximizing
    it); None when some type has no taker."""
    eligible = []
    for maxset in types.maximizer_sets:
        takers = tuple(i for i in guess if i in maxset)
        if not takers:
            return None
        eligible.append(takers)
    return eligible


def _search_counts(
    types: TypePartition,
    sizes: tuple[int, ...],
    guess: tuple[int, ...],
    eligible: list[tuple[int, ...]],
    rival_reps: tuple[int, ...],
    budget: list[int],
) -> dict[tuple[int, int], int] | None:
    """Bounded DFS over the counts; returns (agent, type) -> count or None.

    ``sizes[t]`` is the number of type-t items and ``eligible[t]`` the
    guessed agents that may take them.  ``rival_reps`` holds one
    representative agent per agent-type class (same-type rivals impose
    identical constraints); a rival j shares in the type-t items of a bundle
    when j maximizes type t.  ``budget`` is the remaining node allowance,
    decremented in place.
    """
    k = len(sizes)
    maxsets = types.maximizer_sets
    own = {i: 0 for i in guess}
    rivals_of = {i: [j for j in rival_reps if j != i] for i in guess}
    rival_share = {i: {j: 0 for j in rivals_of[i]} for i in guess}
    # future[i][t] = items of types t.. that agent i could still receive
    future: dict[int, list[int]] = {}
    for i in guess:
        suffix = [0] * (k + 1)
        for t in range(k - 1, -1, -1):
            gain = sizes[t] if i in eligible[t] else 0
            suffix[t] = suffix[t + 1] + gain
        future[i] = suffix
    counts: dict[tuple[int, int], int] = {}

    def viable(t_next: int) -> bool:
        for i in guess:
            ceiling = own[i] + future[i][t_next]
            if ceiling < 1:
                return False
            for j in rivals_of[i]:
                if ceiling <= rival_share[i][j]:
                    return False
        return True

    def place(i: int, t: int, c: int, sign: int) -> None:
        own[i] += sign * c
        for j in rivals_of[i]:
            if j in maxsets[t]:
                rival_share[i][j] += sign * c

    def assign_type(t: int) -> bool:
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceededError("node budget exhausted in the count search")
        if t == k:
            return all(
                own[i] >= 1
                and all(own[i] > rival_share[i][j] for j in rivals_of[i])
                for i in guess
            )
        takers = eligible[t]

        def distribute(pos: int, left: int) -> bool:
            if pos == len(takers):
                if left != 0:
                    return False
                return viable(t + 1) and assign_type(t + 1)
            i = takers[pos]
            lo = left if pos == len(takers) - 1 else 0
            for c in range(lo, left + 1):
                place(i, t, c, +1)
                counts[(i, t)] = c
                if distribute(pos + 1, left - c):
                    return True
                place(i, t, c, -1)
                del counts[(i, t)]
            return False

        return distribute(0, sizes[t])

    return counts if assign_type(0) else None


def _materialize(
    inst: Instance,
    types: TypePartition,
    guess: tuple[int, ...],
    counts: dict[tuple[int, int], int],
) -> Allocation:
    """Turn type counts into concrete items, lexicographic within each type."""
    bundles: list[set[int]] = [set() for _ in range(inst.n)]
    for t, members in enumerate(types.item_types):
        pool = sorted(members)
        at = 0
        for i in guess:
            c = counts.get((i, t), 0)
            bundles[i].update(pool[at : at + c])
            at += c
        if at != len(pool):
            raise InternalError("type not fully distributed")
    return Allocation(bundles=tuple(frozenset(b) for b in bundles))


def solve_sa_empty(
    inst: Instance, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> Allocation | None:
    """Find an impact-maximizing allocation where every non-empty bundle
    strictly impact-dominates all other agents, or decide none exists.

    Guesses are tried by increasing size with lexicographic tie-break, so the
    returned allocation is deterministic.  Raises
    :class:`BudgetExceededError` when the node budget runs out (never a
    wrong answer).
    """
    require_budget(node_budget, "node budget")
    types = compute_types(inst)
    uniques = sorted(unique_type_agents(types))
    rival_reps = tuple(cls[0] for cls in types.agent_types)
    sizes = tuple(map(len, types.item_types))
    budget = [node_budget]
    for size in range(len(uniques) + 1):
        for guess in combinations(uniques, size):
            budget[0] -= 1
            if budget[0] < 0:
                raise BudgetExceededError("node budget exhausted enumerating guesses")
            eligible = _eligible(types, guess)
            if eligible is None:
                continue
            counts = _search_counts(types, sizes, guess, eligible, rival_reps, budget)
            if counts is None:
                continue
            alloc = _materialize(inst, types, guess, counts)
            verdict = fairness.certify(inst, alloc, fairness.Notion(fairness.SA_EMPTY))
            if not verdict.fair:
                raise InternalError(
                    f"sa-empty solver built an allocation that fails {verdict.witness.reason}"
                )
            return alloc
    return None
