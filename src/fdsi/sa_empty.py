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
search is a bounded depth-first enumeration with reachability pruning, run
as an explicit stack of split iterators, one layer per item type, so that no
number of types meets the recursion limit.  It replaces a fixed-dimension
integer program at desk scale (same answers, weaker asymptotic guarantee).
Raw-scale impacts and maximizer units agree on impact-maximizing
allocations, so returned allocations are verified directly against the
raw-instance checkers.
"""

from __future__ import annotations

from itertools import accumulate, combinations, combinations_with_replacement
from operator import sub

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


def _eligible(types: TypePartition, guess: tuple[int, ...]) -> list[tuple[int, ...]] | None:
    """Per item type, the guessed agents allowed to hold it (those maximizing
    it); None when some type has no taker."""
    eligible = []
    for maxset in types.maximizer_sets:
        takers = tuple(i for i in guess if i in maxset)
        if not takers:
            return None
        eligible.append(takers)
    return eligible


def _splits(total: int, parts: int):
    """Every split of ``total`` items among ``parts`` takers: the first
    taker's count ascending, then the second's; the last takes the rest."""
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, (*cuts, total), (0, *cuts)))


def _search_counts(
    types: TypePartition, sizes: tuple[int, ...], guess: tuple[int, ...],
    eligible: list[tuple[int, ...]], rival_reps: tuple[int, ...], budget: list[int],
) -> list[tuple[int, ...]] | None:
    """Bounded DFS over the counts; returns one split per type (the counts of
    ``eligible[t]``, in order) or None.

    ``sizes[t]`` is the number of type-t items and ``eligible[t]`` the
    guessed agents that may take them.  ``rival_reps`` holds one
    representative agent per agent-type class (same-type rivals impose
    identical constraints); a rival j shares in the type-t items of a bundle
    when j maximizes type t.  ``budget`` is the remaining node allowance,
    decremented in place by one per type entered.
    """
    k = len(sizes)
    # share[s]: one rival's share of one guessed agent's bundle; the rivals
    # of the agent at position a hold the slots spans[a]
    rivals = [[j for j in rival_reps if j != i] for i in guess]
    ends = list(accumulate(map(len, rivals)))
    spans = list(zip([0, *ends], ends))
    share = [0] * sum(map(len, rivals))
    # ceiling[a]: the items the agent at position a holds or could still get
    ceiling = [sum(c for c, takers in zip(sizes, eligible) if i in takers) for i in guess]
    # per type, each taker's position and the slots of the rivals that share
    moves = [
        [(a, [spans[a][0] + r for r, j in enumerate(rivals[a]) if j in maxset])
         for a in map(guess.index, takers)]
        for takers, maxset in zip(eligible, types.maximizer_sets)
    ]

    def viable() -> bool:
        """Every guessed agent can still end non-empty and above each rival;
        once every type is split this is the domination condition itself."""
        for a, (lo, hi) in enumerate(spans):
            if ceiling[a] <= max(share[lo:hi], default=0):
                return False
        return True

    def shift(t: int, split: tuple[int, ...], sign: int) -> None:
        for (a, slots), c in zip(moves[t], split):
            ceiling[a] += sign * (c - sizes[t])
            for s in slots:
                share[s] += sign * c

    path: list[tuple[int, ...]] = []  # the split of each type entered
    stack = []  # per type entered, its untried splits
    while True:
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceededError("node budget exhausted in the count search")
        t = len(path)
        if t == k:  # entered through viable(); with no types, only the empty guess
            return path
        stack.append(_splits(sizes[t], len(eligible[t])))
        while stack:
            t = len(stack) - 1
            if len(path) > t:  # back from a split that failed
                shift(t, path.pop(), -1)
            split = next(stack[-1], None)
            if split is None:
                stack.pop()
                continue
            shift(t, split, 1)
            path.append(split)
            if viable():
                break
        else:
            return None


def _materialize(inst: Instance, types: TypePartition, eligible, splits) -> Allocation:
    """Turn type counts into concrete items, lowest indices first within each
    type (``compute_types`` lists a type's items in increasing order)."""
    bundles: list[set[int]] = [set() for _ in range(inst.n)]
    for pool, takers, split in zip(types.item_types, eligible, splits):
        at = 0
        for i, c in zip(takers, split):
            bundles[i].update(pool[at : at + c])
            at += c
    return Allocation(bundles=tuple(frozenset(b) for b in bundles))


def solve_sa_empty(inst: Instance, *, node_budget: int | None = None) -> Allocation | None:
    """Find an impact-maximizing allocation where every non-empty bundle
    strictly impact-dominates all other agents, or decide none exists.

    Guesses are tried by increasing size with lexicographic tie-break, so the
    returned allocation is deterministic.  Raises
    :class:`BudgetExceededError` when the node budget runs out (never a
    wrong answer); a budget of None means ``DEFAULT_NODE_BUDGET``.
    """
    budget = [DEFAULT_NODE_BUDGET if node_budget is None else node_budget]
    require_budget(budget[0], "node budget")
    types = compute_types(inst)
    uniques = sorted(unique_type_agents(types))
    rival_reps = tuple(cls[0] for cls in types.agent_types)
    sizes = tuple(map(len, types.item_types))
    for size in range(len(uniques) + 1):
        for guess in combinations(uniques, size):
            budget[0] -= 1
            if budget[0] < 0:
                raise BudgetExceededError("node budget exhausted enumerating guesses")
            eligible = _eligible(types, guess)
            if eligible is None:
                continue
            splits = _search_counts(types, sizes, guess, eligible, rival_reps, budget)
            if splits is None:
                continue
            alloc = _materialize(inst, types, eligible, splits)
            verdict = fairness.certify(inst, alloc, fairness.Notion(fairness.SA_EMPTY))
            if not verdict.fair:
                raise InternalError(
                    f"sa-empty solver built an allocation that fails {verdict.witness.reason}"
                )
            return alloc
    return None
