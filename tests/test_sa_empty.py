import random
from itertools import combinations

import pytest

from fdsi.fairness import Notion, certify, check
from fdsi.generators import RX3CInput, exact_cover_solvable, gen_random, gen_x3c_sa_empty
from fdsi.model import Allocation, BudgetExceededError, make_instance
from fdsi.sa_empty import compute_types, solve_sa_empty, unique_type_agents
from fdsi.oracle import brute_force_solve
from fdsi.search import enumerate_sim_allocations

from helpers import random_instances


RELAXED_L2 = ({0, 1, 2}, {3, 4, 5}, {0, 1, 3}, {2, 4, 5}, {1, 2, 4}, {0, 3, 5})

# Answers of the holder-set search: the bundles (None: no allocation) and
# the smallest node budget that does not raise.  Random instances are
# ``gen_random(*params)`` with tied impacts; gadgets are
# ``(universe_size, triples, strict)`` cover sources.  The last two gadgets
# are the uncoverable 8-agent, 12-item families of the small-auto suite.
PINNED_RANDOM = (
    ((2, 3, 0, 1, 1, 3), ((0, 1), (2,)), 7),
    ((2, 3, 0, 1, 1, 7), ((0, 1), (2,)), 7),
    ((2, 3, 0, 1, 1, 9), ((0, 1), (2,)), 7),
    ((2, 3, 0, 1, 1, 10), ((0, 1), (2,)), 7),
    ((3, 6, 0, 1, 1, 8), ((0, 2, 5), (1, 3, 4), ()), 10),
    ((3, 7, 0, 1, 1, 6), ((0, 1, 3, 6), (), (2, 4, 5)), 8),
    ((3, 7, 0, 2, 1, 6), ((2, 3, 4), (0, 1), (5, 6)), 14),
    ((3, 8, 0, 2, 1, 1), ((0, 1, 3, 6), (2, 7), (4, 5)), 14),
    ((4, 4, 0, 2, 1, 4), None, 28),
    ((4, 6, 0, 3, 1, 5), ((), (1, 3, 4), (2, 5), (0,)), 14),
    ((4, 7, 0, 1, 1, 2), ((), (0, 1, 3, 6), (2, 4, 5), ()), 10),
    ((4, 8, 0, 1, 1, 2), ((), (0, 1, 4, 5), (), (2, 3, 6, 7)), 35),
    ((4, 8, 0, 1, 1, 5), ((0, 1, 7), (), (2, 4, 5, 6), (3,)), 21),
    ((4, 8, 0, 1, 1, 8), ((0, 3, 6), (), (1, 2, 7), (4, 5)), 21),
    ((5, 3, 0, 1, 1, 1), None, 6),
    ((5, 3, 0, 2, 1, 1), None, 6),
    ((5, 3, 0, 2, 1, 7), None, 8),
    ((5, 3, 0, 3, 1, 1), None, 6),
    ((5, 4, 0, 1, 1, 3), None, 1),
    ((5, 4, 0, 1, 1, 9), None, 10),
    ((5, 5, 0, 1, 1, 3), None, 43),
    ((5, 6, 0, 1, 1, 2), None, 6),
    ((5, 6, 0, 2, 1, 1), ((), (), (0, 3), (1, 4, 5), (2,)), 13),
    ((5, 7, 0, 1, 1, 2), None, 44),
    ((5, 7, 0, 1, 1, 9), ((2, 3, 4, 5), (), (1,), (0,), (6,)), 23),
    ((5, 7, 0, 2, 1, 7), ((1, 2, 6), (), (), (4, 5), (0, 3)), 30),
    ((5, 7, 0, 3, 1, 2), ((), (1, 3, 4, 5), (2,), (0, 6), ()), 14),
    ((5, 7, 0, 3, 1, 9), ((2, 3, 4, 5), (), (1,), (0,), (6,)), 23),
    ((5, 8, 0, 1, 1, 2), ((0, 1, 3, 4, 5, 7), (), (2, 6), (), ()), 55),
    ((5, 8, 0, 1, 1, 8), ((3, 6, 7), (), (0, 2, 5), (), (1, 4)), 67),
    ((5, 8, 0, 1, 1, 9), ((), (), (0, 1, 2), (3, 5, 7), (4, 6)), 13),
    ((5, 8, 0, 2, 1, 7), ((0, 1, 5), (), (2, 3, 6), (), (4, 7)), 16),
)
PINNED_GADGETS = (
    ((3, ((0, 1, 2),), False), ((0, 1, 2, 3), (), ()), 4),
    (
        (6, ((0, 1, 2), (3, 4, 5), (0, 1, 3), (2, 4, 5), (1, 2, 4), (0, 3, 5)), False),
        ((0, 1, 2, 6), (3, 4, 5, 7), (), (), (), (), (), ()),
        15,
    ),
    (
        (9, ((0, 3, 6), (1, 4, 7), (2, 5, 8), (0, 4, 8), (1, 5, 6), (2, 3, 7),
             (0, 5, 7), (1, 3, 8), (2, 4, 6)), True),
        ((0, 3, 6, 9), (1, 4, 7, 10), (2, 5, 8, 11), (), (), (), (), (), (), (), ()),
        57,
    ),
    (
        (6, ((0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5)), False),
        ((0, 1, 2, 6), (), (), (), (), (3, 4, 5, 7), (), ()),
        18,
    ),
    ((6, ((0, 1, 2), (0, 1, 3), (0, 4, 5), (1, 4, 5), (2, 3, 4), (2, 3, 5)), False), None, 374),
    ((6, ((0, 1, 2), (0, 1, 4), (0, 3, 5), (1, 3, 5), (2, 3, 4), (2, 4, 5)), False), None, 392),
    ((9, ((3, 4, 8), (1, 2, 6), (1, 2, 8), (0, 1, 4), (0, 1, 8), (2, 5, 7)), False), None, 314),
    ((9, ((1, 4, 5), (0, 2, 8), (0, 4, 8), (2, 6, 7), (2, 3, 6), (1, 6, 8)), False), None, 560),
)


# The node count each row was first pinned with stays in its test id, so a
# re-pin keeps the test names; for all but the last two gadgets that is the
# count of the integer-split search the holder-set search replaced.
FIRST_NODES_RANDOM = (
    8, 8, 8, 8, 19, 17, 15, 15, 59, 38, 42, 112, 52, 38, 63, 64,
    13, 63, 12, 13, 478, 108, 45, 1514, 38, 56, 45, 38, 61, 68, 47, 47,
)
FIRST_NODES_GADGETS = (5, 16, 58, 19, 5234, 5211, 314, 560)


def _row_ids(name, rows, first_nodes):
    return [
        f"{name}{k}-{'None' if bundles is None else f'bundles{k}'}-{first}"
        for k, ((_, bundles, _), first) in enumerate(zip(rows, first_nodes, strict=True))
    ]


def ag_plane_instance():
    """Nine points of the order-3 affine plane, minus one parallel class:
    a regular cover source with three disjoint covering triples."""
    pts = [(r, c) for r in range(3) for c in range(3)]
    idx = {p: i for i, p in enumerate(pts)}
    lines = []
    for d in ((0, 1), (1, 0), (1, 1), (1, 2)):
        for p in pts:
            line = frozenset(
                idx[((p[0] + k * d[0]) % 3, (p[1] + k * d[1]) % 3)] for k in range(3)
            )
            if line not in lines:
                lines.append(line)
    drop = [frozenset(idx[(r, c)] for c in range(3)) for r in range(3)]
    fam = tuple(l for l in lines if l not in drop)
    return RX3CInput(universe_size=9, triples=fam)


class TestGadgetStructure:
    def test_candidate_count(self):
        # elements can go to 3 set agents + 2 guards, dummies to all 6 set agents
        import math

        from fdsi.model import all_maximizers

        inst = gen_x3c_sa_empty(RX3CInput(universe_size=6, triples=RELAXED_L2))
        assert math.prod(map(len, all_maximizers(inst))) == 5**6 * 6**2

    def test_degenerate_single_triple_shape(self):
        # smallest well-formed input: one triple, one dummy, two guards
        inst = gen_x3c_sa_empty(RX3CInput(universe_size=3, triples=({0, 1, 2},)))
        assert inst.n == 3 and inst.m == 4
        assert inst.impacts[0] == (1, 1, 1, 1)
        assert inst.impacts[1] == inst.impacts[2] == (1, 1, 1, 0)
        assert all(v == 1 for row in inst.valuations for v in row)


class TestUniqueTypeAgents:
    def test_all_distinct(self):
        inst = make_instance(((1, 1), (1, 1)), ((2, 0), (0, 2)))
        types = compute_types(inst)
        assert unique_type_agents(types) == frozenset({0, 1})

    def test_guards_excluded(self):
        inst = gen_x3c_sa_empty(RX3CInput(universe_size=6, triples=RELAXED_L2))
        types = compute_types(inst)
        uniques = unique_type_agents(types)
        assert uniques == frozenset(range(6))  # the six set agents

    def test_two_clones_one_unique(self):
        inst = make_instance(
            ((1, 1), (1, 1), (1, 1)),
            ((1, 0), (1, 0), (0, 1)),
        )
        types = compute_types(inst)
        assert unique_type_agents(types) == frozenset({2})


class TestSolve:
    def test_two_identical_agents_one_item(self):
        inst = make_instance(((1,), (1,)), ((1,), (1,)))
        assert solve_sa_empty(inst) is None

    def test_no_items(self):
        inst = make_instance(((), ()), ((), ()))
        assert solve_sa_empty(inst) == Allocation.empty(2)

    def test_coverable_relaxed_family(self):
        inst = gen_x3c_sa_empty(RX3CInput(universe_size=6, triples=RELAXED_L2))
        alloc = solve_sa_empty(inst)
        assert alloc is not None
        assert certify(inst, alloc, Notion("sa-empty")).fair
        # chosen set agents hold three elements plus exactly one dummy
        for bundle in alloc.bundles:
            if bundle:
                dummies = [g for g in bundle if g >= 6]
                assert len(dummies) == 1 and len(bundle) == 4

    def test_coverable_regular_family(self):
        src = ag_plane_instance()
        from fdsi.generators import validate_rx3c

        assert validate_rx3c(src, strict=True) == []
        inst = gen_x3c_sa_empty(src, strict=True)
        alloc = solve_sa_empty(inst)
        assert alloc is not None
        assert certify(inst, alloc, Notion("sa-empty")).fair

    def test_budget(self):
        src = ag_plane_instance()
        inst = gen_x3c_sa_empty(src, strict=True)
        with pytest.raises(BudgetExceededError):
            solve_sa_empty(inst, node_budget=3)


class TestOracleEquivalence:
    def _filtered_instances(self, count, seed):
        kept = []
        for inst in random_instances(count * 8, seed, 2, 6, 1, 6, 3, 1):
            if len(compute_types(inst).item_types) <= 4:
                kept.append(inst)
                if len(kept) == count:
                    break
        return kept

    def test_matches_brute_force(self):
        for k, inst in enumerate(self._filtered_instances(60, 91)):
            fpt = solve_sa_empty(inst)
            brute = brute_force_solve(inst, Notion("sa-empty"))
            assert (fpt is None) == (brute is None), k
            if fpt is not None:
                assert certify(inst, fpt, Notion("sa-empty")).fair

    def test_clone_agents_always_empty_in_solutions(self):
        # in every strictly-dominating maximizing allocation, agents that share
        # an agent-type hold empty bundles
        for inst in self._filtered_instances(25, 92):
            types = compute_types(inst)
            clones = {
                i
                for cls in types.agent_types
                if len(cls) > 1
                for i in cls
            }
            for alloc in enumerate_sim_allocations(inst):
                if check(inst, alloc, Notion("sa-empty")).fair:
                    for i in clones:
                        assert alloc.bundles[i] == frozenset()


class TestGadgetRoundTrip:
    def _regular_families(self, need):
        all_triples = [frozenset(c) for c in combinations(range(6), 3)]
        out = []

        def rec(start, chosen, deg):
            if len(out) >= need:
                return
            if len(chosen) == 6:
                if all(d == 3 for d in deg):
                    out.append(tuple(chosen))
                return
            for i in range(start, len(all_triples)):
                tr = all_triples[i]
                if any(deg[u] >= 3 for u in tr):
                    continue
                for u in tr:
                    deg[u] += 1
                chosen.append(tr)
                rec(i + 1, chosen, deg)
                chosen.pop()
                for u in tr:
                    deg[u] -= 1

        rec(0, [], [0] * 6)
        return out

    def test_cover_equivalence(self):
        fams = self._regular_families(40)
        cov = [f for f in fams if exact_cover_solvable(6, f)]
        unc = [f for f in fams if not exact_cover_solvable(6, f)]
        assert cov and unc
        for fam in cov[:2] + unc[:2]:
            src = RX3CInput(universe_size=6, triples=fam)
            inst = gen_x3c_sa_empty(src)
            want = exact_cover_solvable(6, fam)
            assert (solve_sa_empty(inst) is not None) == want
            assert (brute_force_solve(inst, Notion("sa-empty")) is not None) == want


class TestCoverDifferential:
    @pytest.mark.parametrize("universe", (6, 9))
    def test_matches_exact_cover(self, universe):
        # relaxed families of l to 2l+1 distinct triples, mostly uncoverable;
        # the solver must find an allocation exactly when a cover exists
        rng = random.Random(universe)
        ell = universe // 3
        every = list(combinations(range(universe), 3))
        negatives = 0
        for _ in range(150):
            fam = rng.sample(every, rng.randint(ell, 2 * ell + 1))
            inst = gen_x3c_sa_empty(RX3CInput(universe, tuple(map(frozenset, fam))))
            alloc = solve_sa_empty(inst)
            want = exact_cover_solvable(universe, fam)
            assert (alloc is not None) == want, fam
            negatives += not want
        assert 0 < negatives < 150


def _bundles(alloc):
    return None if alloc is None else tuple(tuple(sorted(b)) for b in alloc.bundles)


class TestPinnedAnswers:
    """The exact bundles, and the exact node count: the budget of one fewer
    node raises (a budget below 1 is invalid input, so a one-node solve has
    no such check)."""

    def _check(self, inst, bundles, nodes):
        alloc = solve_sa_empty(inst, node_budget=nodes)
        assert _bundles(alloc) == bundles
        if alloc is not None:
            assert certify(inst, alloc, Notion("sa-empty")).fair
        if nodes > 1:
            with pytest.raises(BudgetExceededError):
                solve_sa_empty(inst, node_budget=nodes - 1)

    @pytest.mark.parametrize(
        "params, bundles, nodes", PINNED_RANDOM,
        ids=_row_ids("params", PINNED_RANDOM, FIRST_NODES_RANDOM),
    )
    def test_random(self, params, bundles, nodes):
        self._check(gen_random(*params), bundles, nodes)

    @pytest.mark.parametrize(
        "source, bundles, nodes", PINNED_GADGETS,
        ids=_row_ids("source", PINNED_GADGETS, FIRST_NODES_GADGETS),
    )
    def test_cover_gadget(self, source, bundles, nodes):
        universe, triples, strict = source
        src = RX3CInput(universe_size=universe, triples=tuple(map(frozenset, triples)))
        self._check(gen_x3c_sa_empty(src, strict=strict), bundles, nodes)


def test_many_types_no_recursion_limit():
    # 8 agents, 600 items with 0/1 impacts: hundreds of item types, each
    # split among several takers; a recursion per (type, taker) passed the
    # interpreter's limit here and the command line read the crash as "none"
    inst = gen_random(8, 600, 1, 1, 1, 1)
    alloc = solve_sa_empty(inst)
    assert alloc is not None
    assert certify(inst, alloc, Notion("sa-empty")).fair
