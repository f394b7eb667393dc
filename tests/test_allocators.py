import random

import pytest

from fdsi.allocators import (
    _envy_successors,
    _find_cycle,
    _rotate_cycles,
    sa_efl_allocate,
    sa_weighted_picking,
    two_agent_mixed_fast_path,
)
from fdsi.fairness import Notion, check, is_sim
from fdsi.generators import canned, gen_random
from fdsi.model import (
    Allocation,
    GoodsOnlyError,
    ValidationError,
    all_maximizers,
    make_instance,
)
from fdsi.search import enumerate_sim_allocations

from helpers import (
    literal_efl,
    literal_efl_partials,
    literal_picking,
    matrices,
    random_instances,
    random_sim_allocation,
    value_of,
)


def _greedy_sim(inst):
    """Every item with its lowest-index impact maximizer: the first
    candidate of the oracle's scan order."""
    return next(enumerate_sim_allocations(inst))


class TestGreedySim:
    def test_bill_joe(self):
        ex = canned("bill-joe")
        assert _greedy_sim(ex.instance) == ex.allocation

    def test_unique_maximizers_forced(self):
        inst = make_instance(((1, 1), (1, 1)), ((2, 0), (0, 2)))
        assert _greedy_sim(inst).bundles == (frozenset({0}), frozenset({1}))

    def test_all_equal_impacts_lowest_index(self):
        inst = make_instance(((1, 1), (1, 1)), ((1, 1), (1, 1)))
        assert _greedy_sim(inst).bundles == (frozenset({0, 1}), frozenset())


class TestPicking:
    def test_hand_trace(self):
        inst = make_instance(((5, 3, 2), (5, 1, 4)), ((1, 1, 1), (1, 1, 1)))
        alloc = sa_weighted_picking(inst)
        assert alloc.bundles == (frozenset({0, 1}), frozenset({2}))

    def test_single_maximizer_takes_all(self):
        inst = make_instance(((1, 2, 3), (9, 9, 9)), ((0, 0, 0), (1, 1, 1)))
        alloc = sa_weighted_picking(inst)
        assert alloc.bundles == (frozenset(), frozenset({0, 1, 2}))
        assert check(inst, alloc, Notion("swef1", "sa")).fair

    def test_goods_only(self):
        chores = canned("chores-roundrobin").instance
        with pytest.raises(GoodsOnlyError):
            sa_weighted_picking(chores)

    def test_postconditions_random(self):
        for inst in random_instances(150, 31, 1, 5, 0, 10, 9, 9, 3):
            alloc = sa_weighted_picking(inst)
            assert is_sim(inst, alloc).fair
            assert check(inst, alloc, Notion("swef1", "sa")).fair
            assert check(inst, alloc, Notion("wef1", "sa")).fair

    def test_items_land_on_maximizers(self):
        from fdsi.model import impact_maximizers

        for inst in random_instances(60, 32, 1, 4, 0, 8, 5, 5, 3):
            alloc = sa_weighted_picking(inst)
            owners = alloc.owners(inst.m)
            for g in range(inst.m):
                assert owners[g] in impact_maximizers(inst, g)

    def test_matches_skip_and_increment_form(self):
        for inst in random_instances(150, 33, 1, 5, 0, 9, 6, 6, 3):
            for weights in (None, (1,) * inst.n):
                assert sa_weighted_picking(inst, weights=weights) == literal_picking(
                    inst, weights
                )

    @pytest.mark.parametrize("weights", [(1.5, True), (1, True), (2.0, 1)])
    def test_weights_are_positive_ints(self, weights):
        # the instance's own rule: ints only, no bool, each at least 1
        inst = make_instance(((5, 3, 2), (5, 1, 4)), ((1, 1, 1), (1, 1, 1)))
        with pytest.raises(ValidationError, match="positive integers, one per agent"):
            sa_weighted_picking(inst, weights=weights)

    def test_binary_equal_valuation_impact_gives_plain_fairness(self):
        rng = random.Random(34)
        for _ in range(150):
            n, m = rng.randint(1, 4), rng.randint(0, 8)
            b = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
            inst = make_instance(b, b)
            alloc = sa_weighted_picking(inst)
            assert is_sim(inst, alloc).fair
            for base in ("sef1", "ef1", "efl", "tef1"):
                assert check(inst, alloc, Notion(base)).fair, base


def _envy_matrices(inst, alloc):
    return matrices(inst, alloc.owners(inst.m))


def _arcs(inst, alloc, vertices):
    """Arcs (i, j) of the awareness-filtered envy graph, ascending."""
    succ = _envy_successors(*_envy_matrices(inst, alloc), list(vertices))
    return tuple((i, j) for i, heads in succ.items() for j in heads)


def _rotated(inst, alloc, vertices):
    V, S = _envy_matrices(inst, alloc)
    bundles = list(alloc.bundles)
    succ = _rotate_cycles(bundles, V, S, list(vertices))
    result = Allocation(bundles)
    # the bundles and columns moved in place still belong together, and the
    # graph handed back is the acyclic one of the result
    assert (V, S) == _envy_matrices(inst, result)
    assert succ == _envy_successors(V, S, list(vertices))
    assert _find_cycle(succ) is None
    return result


class TestEnvyGraph:
    def test_empty_allocation_no_arcs(self):
        inst = make_instance(((1, 1), (1, 1)), ((1, 1), (1, 1)))
        assert _arcs(inst, Allocation.empty(2), (0, 1)) == ()

    def test_wsa_example_arc_absent(self):
        ex = canned("wsa-nonexistence")
        arcs = _arcs(ex.instance, ex.allocation, (0, 1))
        # observer 0 envies by value but has strictly less impact for the bundle
        assert (0, 1) not in arcs

    def test_envy_arc_present(self):
        inst = make_instance(((0, 5), (5, 0)), ((1, 1), (1, 1)))
        alloc = Allocation((frozenset({0}), frozenset({1})))
        assert _arcs(inst, alloc, (0, 1)) == ((0, 1), (1, 0))

    def test_two_cycle_swap(self):
        inst = make_instance(((0, 5), (5, 0)), ((1, 1), (1, 1)))
        alloc = Allocation((frozenset({0}), frozenset({1})))
        swapped = _rotated(inst, alloc, (0, 1))
        assert swapped.bundles == (frozenset({1}), frozenset({0}))

    def test_acyclic_unchanged(self):
        ex = canned("wsa-nonexistence")
        assert _rotated(ex.instance, ex.allocation, (0, 1)) == ex.allocation

    def test_three_cycle_every_agent_gains(self):
        inst = make_instance(
            ((0, 5, 0), (0, 0, 5), (5, 0, 0)),
            ((1, 1, 1), (1, 1, 1), (1, 1, 1)),
        )
        alloc = Allocation.from_assignment(3, [0, 1, 2])
        before = [value_of(inst, i, alloc.bundles[i]) for i in range(3)]
        rotated = _rotated(inst, alloc, (0, 1, 2))
        after = [value_of(inst, i, rotated.bundles[i]) for i in range(3)]
        assert all(a > b for a, b in zip(after, before))
        assert _arcs(inst, rotated, (0, 1, 2)) == ()

    def test_random_elimination_never_hurts(self):
        rng = random.Random(41)
        for inst in random_instances(60, 42, 2, 4, 1, 6, 5, 5):
            alloc = random_sim_allocation(inst, rng)
            active = tuple(range(inst.n))
            result = _rotated(inst, alloc, active)
            for i in range(inst.n):
                assert value_of(inst, i, result.bundles[i]) >= value_of(
                    inst, i, alloc.bundles[i]
                )
            succ = _envy_successors(*_envy_matrices(inst, result), list(active))
            assert _find_cycle(succ) is None


def _recursive_find_cycle(succ):
    """The recursive depth-first search ``_find_cycle`` replaced, kept as the
    reference for its visiting order: lowest start vertex, neighbors
    ascending, the first back arc closes the cycle."""
    color = dict.fromkeys(succ, 0)

    def visit(v, path):
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

    for start in succ:
        if color[start] == 0:
            cycle = visit(start, [])
            if cycle is not None:
                return cycle
    return None


class TestFindCycle:
    def test_long_path_no_recursion_limit(self):
        n = 1200
        path = {i: [i + 1] for i in range(n - 1)}
        path[n - 1] = []
        assert _find_cycle(path) is None

    def test_long_cycle_no_recursion_limit(self):
        n = 1200
        assert _find_cycle({i: [(i + 1) % n] for i in range(n)}) == list(range(n))

    def test_same_cycle_as_recursive_search(self):
        found = 0
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randint(2, 12)
            density = rng.choice((0.1, 0.2, 0.35))
            succ = {
                i: [j for j in range(n) if j != i and rng.random() < density]
                for i in range(n)
            }
            cycle = _find_cycle(succ)
            assert cycle == _recursive_find_cycle(succ)
            found += cycle is not None
        # both outcomes occur among the 30 graphs
        assert 0 < found < 30


class TestSaEflAllocate:
    def test_single_agent(self):
        inst = make_instance(((3, 1),), ((1, 2),))
        assert sa_efl_allocate(inst).bundles == (frozenset({0, 1}),)

    def test_hand_trace(self):
        # the lowest unenvied agent picks: 0 takes g1 and is envied by 1,
        # so 1 takes g3 and then g2
        inst = make_instance(((5, 3, 2), (5, 1, 4)), ((1, 1, 1), (1, 1, 1)))
        assert sa_efl_allocate(inst).bundles == (frozenset({0}), frozenset({1, 2}))

    def test_bill_joe_composition(self):
        ex = canned("bill-joe")
        alloc = sa_efl_allocate(ex.instance)
        assert alloc.bundles == (frozenset({0, 1}), frozenset())
        assert is_sim(ex.instance, alloc).fair
        assert check(ex.instance, alloc, Notion("efl", "sa")).fair

    def test_postconditions_random(self):
        for inst in random_instances(150, 51, 1, 3, 0, 6, 5, 5):
            alloc = sa_efl_allocate(inst)
            assert is_sim(inst, alloc).fair
            assert check(inst, alloc, Notion("efl", "sa")).fair

    def test_partial_allocations_stay_fair(self):
        # the loop invariant: after every round the prefix already satisfies
        # impact maximization (restricted to assigned items) and the notion;
        # the rounds are the literal form's, which ends where the allocator does
        for inst in random_instances(40, 52, 2, 3, 1, 6, 5, 5):
            from fdsi.model import impact_maximizers

            partial = Allocation.empty(inst.n)
            for partial in literal_efl_partials(inst):
                owners = partial.owners(inst.m)
                for g, owner in enumerate(owners):
                    if owner is not None:
                        assert owner in impact_maximizers(inst, g)
                assert check(inst, partial, Notion("efl", "sa")).fair
            assert sa_efl_allocate(inst) == partial

    def test_matches_literal_form(self):
        # impacts up to 1, or all 0, make most items co-maximized; wide
        # values over many items make envy cycles to rotate
        cases = [
            *random_instances(150, 53, 1, 5, 0, 9, 6, 1),
            *random_instances(100, 54, 1, 4, 0, 8, 5, 5),
            *random_instances(300, 55, 2, 6, 3, 12, 100, 0),
        ]
        shared = rotated = 0
        for inst in cases:
            assert sa_efl_allocate(inst) == literal_efl(inst)
            shared += any(len(ms) > 1 for ms in all_maximizers(inst))
            # a round that rotates changes more than the picker's bundle
            partials = [Allocation.empty(inst.n), *literal_efl_partials(inst)]
            rotated += any(
                sum(a != b for a, b in zip(p.bundles, q.bundles)) > 1
                for p, q in zip(partials, partials[1:])
            )
        assert (shared, rotated) >= (400, 10), (shared, rotated)


class TestTwoAgentFastPath:
    def test_identical_impacts_round_robin(self):
        inst = make_instance(
            ((5, 3, 2), (5, 1, 4)),
            ((1, 1, 1), (1, 1, 1)),
            aware=(False, True),
        )
        alloc = two_agent_mixed_fast_path(inst)
        assert alloc is not None
        assert check(inst, alloc, Notion("ef1")).fair
        assert is_sim(inst, alloc).fair

    def test_unique_item_for_unaware_agent(self):
        inst = make_instance(
            ((1, 1), (9, 9)),
            ((2, 1), (1, 1)),
            aware=(False, True),
        )
        alloc = two_agent_mixed_fast_path(inst)
        assert alloc.bundles == (frozenset({0, 1}), frozenset())
        assert is_sim(inst, alloc).fair
        assert check(inst, alloc, Notion("ef1", "sa")).fair

    def test_not_applicable(self):
        inst = make_instance(
            ((1, 1), (1, 1)),
            ((1, 1), (1, 2)),  # second agent uniquely maximizes item 2
            aware=(False, True),
        )
        assert two_agent_mixed_fast_path(inst) is None
        three = make_instance(
            ((1,), (1,), (1,)), ((1,), (1,), (1,)), aware=(False, True, True)
        )
        assert two_agent_mixed_fast_path(three) is None
