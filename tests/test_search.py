import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdsi import fairness, oracle, sa_empty, search
from fdsi.fairness import BASES, Notion, Verdict, Witness, certify, check, is_sim
from fdsi.generators import canned, gen_mixed_awareness, gen_partition_ef1, gen_random
from fdsi.model import (
    Allocation,
    BudgetExceededError,
    InternalError,
    ValidationError,
    all_maximizers,
    candidate_columns,
    make_instance,
    normalize_impacts,
)
from fdsi.oracle import brute_force_count, brute_force_solve
from fdsi.sa_empty import solve_sa_empty
from fdsi.search import UnsupportedNotionError, _Layout, enumerate_sim_allocations, exact_solve

from helpers import (
    matrices,
    naive_check,
    naive_target,
    pack_key,
    random_instances,
    unpack_key,
    walk_count,
)


def _layout(inst, base, sa=False):
    return _Layout(inst, Notion(base, "sa" if sa else None))


def _replay(inst, layout, owners):
    """The key after giving item g to ``owners[g]`` for every g: each
    assignee has exactly one successor."""
    key = 0
    for g, owner in enumerate(owners):
        (key,) = [k for k, c in layout.successors(key, g) if c == owner]
    return key


class TestSuccessorStates:
    def test_single_agent_grows_own_cell(self):
        inst = make_instance(((4, 2),), ((1, 1),))
        layout = _layout(inst, "ef1")
        succ = layout.successors(0, 0)
        assert len(succ) == 1
        key, assignee = succ[0]
        assert assignee == 0
        x, y, _ = unpack_key(inst, layout, key)
        assert x == (4,)
        assert y == (0,)  # no leaf reads a y_aa, so it is absent

    def test_update_rule_both_maximize(self):
        inst = make_instance(((3, 0), (5, 0)), ((1, 1), (1, 1)))
        layout = _layout(inst, "ef1")
        succ = layout.successors(0, 0)
        assert [assignee for _, assignee in succ] == [0, 1]
        x, y, _ = unpack_key(inst, layout, dict((a, k) for k, a in succ)[1])
        assert x == (0, 3, 0, 5)  # x[0][1] += 3, x[1][1] += 5
        assert y == (0, 3, 0, 0)  # y[0][1] = 3; y[1][1] is absent

    def test_unique_maximizer_single_branch(self):
        inst = make_instance(((3, 0), (5, 0)), ((2, 1), (1, 1)))
        succ = _layout(inst, "ef1").successors(0, 0)
        assert len(succ) == 1 and succ[0][1] == 0

    def test_pareto_join(self):
        # agent 0 is the only maximizer of every item, so each item joins
        # its Pareto set: the classes (value columns, 0 in agent 0's row) of
        # its items that no other held class equals or beats for agents 1, 2
        def sets_after(*columns):
            rows = [[0] * len(columns)] + [list(row) for row in zip(*columns)]
            inst = make_instance(rows, [[1] * len(columns)] + [[0] * len(columns)] * 2)
            layout = _layout(inst, "sef1")
            key, sets = 0, []
            for g in range(len(columns)):
                ((key, _),) = layout.successors(key, g)
                y = unpack_key(inst, layout, key)[1]
                assert y[4] == y[8] == frozenset({(0, 0, 0)})  # agents 1, 2 hold nothing
                sets.append(y[0])
            return sets

        # one successor per assignee, and the empty bundle's set is the zero class
        inst = make_instance(((3, 4), (5, 2)), ((1, 1), (1, 1)))
        layout = _layout(inst, "sef1")
        succ = layout.successors(0, 0)
        assert [assignee for _, assignee in succ] == [0, 1]
        assert unpack_key(inst, layout, succ[0][0])[1] == (
            frozenset({(0, 5)}), 0, 0, frozenset({(0, 0)})
        )
        # a dominated class leaves the set unchanged
        assert sets_after((4, 4), (4, 2), (1, 1)) == [frozenset({(0, 4, 4)})] * 3
        # a dominating class evicts what it beats, and only that
        assert sets_after((1, 4), (4, 1), (4, 2), (5, 5)) == [
            frozenset({(0, 1, 4)}),
            frozenset({(0, 1, 4), (0, 4, 1)}),
            frozenset({(0, 1, 4), (0, 4, 2)}),
            frozenset({(0, 5, 5)}),
        ]
        # items that agents 1 and 2 value alike are one class, one set id
        rows = ((7, 9), (2, 2), (3, 3))
        inst = make_instance(rows, ((1, 1), (0, 0), (0, 0)))
        layout = _layout(inst, "sef1")
        ((key, _),) = layout.successors(0, 0)
        ((again, _),) = layout.successors(key, 1)
        assert unpack_key(inst, layout, again)[1] == unpack_key(inst, layout, key)[1]
        assert layout.sets == [frozenset({(0, 0, 0)}), frozenset({(0, 2, 3)})]

    def test_pareto_id_never_carries(self):
        # each item beats the last for both observers, so each makes a new
        # set; with a budget of 1 the id field holds ids up to 3 (n*budget)
        inst = make_instance(
            ((0,) * 5, (1, 2, 3, 4, 5), (1, 2, 3, 4, 5)), ((1,) * 5, (0,) * 5, (0,) * 5)
        )
        layout = _Layout(inst, Notion("sef1"), 1)
        assert layout.y[0][1] == 0b11
        key = 0
        for g in range(3):
            ((key, _),) = layout.successors(key, g)
        with pytest.raises(InternalError, match="Pareto set id 4 does not fit"):
            layout.successors(key, 3)

    def test_per_observer_branching(self):
        inst = make_instance(((3, 0), (5, 0)), ((1, 1), (1, 1)))
        layout = _layout(inst, "efl")
        succ = layout.successors(0, 0)
        # one successor per assignee; each other observer's value joins its set
        assert [assignee for _, assignee in succ] == [0, 1]
        by_assignee = dict((a, unpack_key(inst, layout, k)[1]) for k, a in succ)
        empty = frozenset()
        assert by_assignee[0] == (empty, empty, frozenset({5}), empty)
        assert by_assignee[1] == (empty, frozenset({3}), empty, empty)
        # a repeated value leaves the set as it is, a zero value is not kept
        inst = make_instance(((3, 3, 0), (0, 5, 7)), ((1, 1, 1), (0, 0, 0)))
        layout = _layout(inst, "efl")
        key = 0
        for g in range(3):
            (key, _), = layout.successors(key, g)
        assert unpack_key(inst, layout, key)[1] == (empty, empty, frozenset({5, 7}), empty)

    def test_flags_follow_strict_impact(self):
        def flags_after_item_0(aware):
            inst = make_instance(((1, 1), (1, 1)), ((3, 0), (1, 0)), aware=aware)
            layout = _layout(inst, "ef1", sa=True)
            succ = layout.successors(0, 0)
            assert len(succ) == 1
            key, assignee = succ[0]
            assert assignee == 0
            return unpack_key(inst, layout, key)[2]

        # pair (1, 0) saw a dominated item
        assert flags_after_item_0((True, True)) == (0, 0, 1, 0)
        assert flags_after_item_0((False, True)) == (0, 0, 1, 0)
        # an unaware observer gets no flag: its override never fires
        assert flags_after_item_0((True, False)) == (0, 0, 0, 0)


def _maxima(inst, owners, b):
    """b's Pareto set by its definition: the classes (value columns with b's
    row 0) of b's items, or the zero class when b holds none, that no other
    such class equals or beats in every row."""
    held = {
        tuple(0 if a == b else row[g] for a, row in enumerate(inst.valuations))
        for g, owner in enumerate(owners) if owner == b
    } or {(0,) * inst.n}
    return frozenset(
        c for c in held if not any(d != c and all(map(int.__ge__, d, c)) for d in held)
    )


class TestKeyLayout:
    """Fields at their widest: every path's key holds the value matrix of
    ``helpers.matrices`` in x, and the running maximum, the value set or the
    Pareto set in y, with no field spilling into the next."""

    @pytest.mark.parametrize("k", (3, 30))
    def test_row_sums_at_a_power_of_two(self, k):
        # row sums 2**k - 1 and 2**k: the widest x each field width holds,
        # and the first value one bit wider
        top = 2 ** (k - 1)
        inst = make_instance(
            ((top, top - 1, 0), (top, top - 1, 1)), ((1, 1, 1), (1, 1, 1))
        )
        assert [sum(row) for row in inst.valuations] == [2**k - 1, 2**k]
        for base in ("ef", "ef1", "sef1"):
            layout = _layout(inst, base)
            assert [mask for _, mask in layout.x] == [2**k - 1] * 2 + [2 ** (k + 1) - 1] * 2
            for owners in product(range(2), repeat=3):
                V = matrices(inst, owners)[0]
                x, y, _ = unpack_key(inst, layout, _replay(inst, layout, owners))
                assert x == tuple(v for row in V for v in row), (base, owners)
                if base == "ef1":
                    assert y == tuple(
                        max((inst.valuations[a][g] for g in range(3) if owners[g] == b), default=0)
                        * (a != b)
                        for a in range(2) for b in range(2)
                    ), owners
                if base == "sef1":
                    assert y == (_maxima(inst, owners, 0), 0, 0, _maxima(inst, owners, 1)), owners

    def test_pareto_sets_are_the_maxima(self):
        # every owner tuple of 3- and 4-agent instances on which every agent
        # maximizes every item (s_max 0), so agents hold any mix of classes
        for seed, (n, m) in enumerate([(3, 5)] * 4 + [(4, 4)] * 4):
            inst = gen_random(n, m, 3, 0, 1, seed)
            layout = _layout(inst, "sef1")
            for owners in product(range(n), repeat=m):
                y = unpack_key(inst, layout, _replay(inst, layout, owners))[1]
                assert y[:: n + 1] == tuple(_maxima(inst, owners, b) for b in range(n)), owners

    def test_wide_sef1_key(self):
        # 2 x 5,000 items, values up to 10**6: four 32-bit x fields and two
        # Pareto set ids sized for the default budget; a bit per item class
        # would not fit
        layout = _Layout(gen_random(2, 5000, 10**6, 1, 2, 1), Notion("sef1"))
        fields = layout.x + layout.y + layout.flag
        assert max(shift + mask.bit_length() for shift, mask in fields) <= 208

    def test_efl_values_near_a_billion(self):
        inst = make_instance(
            ((10**9, 10**9 - 1, 10**9 + 1, 10**9), (1, 10**9, 0, 2)),
            ((1, 1, 1, 1), (1, 1, 1, 1)),
        )
        layout = _layout(inst, "efl")
        # one bit per distinct positive value, however large the values, and
        # no y_aa
        assert [mask for _, mask in layout.y] == [0, 0b111, 0b111, 0]
        assert [mask for _, mask in layout.x] == [2**32 - 1] * 2 + [2**30 - 1] * 2
        for owners in product(range(2), repeat=4):
            x, y, _ = unpack_key(inst, layout, _replay(inst, layout, owners))
            V = matrices(inst, owners)[0]
            assert x == tuple(v for row in V for v in row), owners
            assert y == tuple(
                frozenset(inst.valuations[a][g] for g in range(4) if owners[g] == b and a != b)
                - {0}
                for a in range(2) for b in range(2)
            ), owners


def _accepts(rows, base, x, y=None, flags=None, weights=None):
    """Does the leaf test accept the key of these matrices?  ``rows`` are
    the valuations, chosen so that the entries fit the fields; with
    ``flags`` every agent is aware and the notion is under ``sa``."""
    n = len(rows)
    inst = make_instance(
        rows, [[0] * len(rows[0])] * n, weights=weights, aware=[flags is not None] * n
    )
    layout = _layout(inst, base, sa=flags is not None)
    return layout.accepts(pack_key(inst, layout, x, y, flags))


class TestAcceptingState:
    def test_single_agent_always_accepts(self):
        for base in BASES:
            assert _accepts([[7, 2]], base, [[7]])

    def test_ef1_fails_tef1_holds(self):
        rows, x, y = [[1, 1], [1, 1]], [[0, 2], [2, 0]], [[0, 1], [1, 0]]
        assert not _accepts(rows, "ef1", x, y)
        assert _accepts(rows, "tef1", x, y)

    def test_weighted_cross_multiplication(self):
        # x = ((2, 5), (0, 0)), y = ((0, 1), (0, 0)): 2/1 >= 4/2 holds
        rows, x, y = [[2, 5], [0, 0]], [[2, 5], [0, 0]], [[0, 1], [0, 0]]
        assert _accepts(rows, "wef1", x, y, weights=(1, 2))
        assert not _accepts(rows, "wef1", x, y, weights=(1, 1))

    def test_efl_disjuncts(self):
        def accepts(x_aa, x_ab, values):
            rows = [[*values, x_aa + x_ab], [0] * (len(values) + 1)]
            y = [[set(), set(values)], [set(), set()]]
            return _accepts(rows, "efl", [[x_aa, x_ab], [0, 0]], y)

        # no envy
        assert accepts(5, 5, {2, 3})
        assert accepts(0, 0, ())
        # one item carries the whole bundle value: at most one positive item
        assert accepts(0, 9, {9})
        assert not accepts(0, 9, {4, 5})
        # some value v with x_ab - x_aa <= v <= x_aa
        assert accepts(5, 8, {1, 3, 4})
        assert accepts(5, 9, {4, 5})
        # the only value large enough to kill the envy (6 >= 8 - 5) exceeds x_aa
        assert not accepts(5, 8, {1, 6})

    def test_pareto_observers_share_one_class(self):
        # agent 0 holds items A and B; agent 1 values A at 5 and B at 1,
        # agent 2 the reverse, and each holds an item it values at 1: each
        # observer's best removal kills its envy (ef1), but no one removal
        # serves both (sef1), unless the envious observer left is one
        valuations = ((1, 1, 0, 0), (5, 1, 1, 0), (1, 5, 0, 1))
        impacts = ((2, 2, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1))
        owners = (0, 0, 1, 2)
        for aware, fair in (((False,) * 3, False), ((False, False, True), True),
                            ((False, True, False), True)):
            inst = make_instance(valuations, impacts, aware=aware)
            alloc = Allocation.from_assignment(3, owners)
            for base in ("ef1", "sef1", "swef1"):
                # agent 0 got A and B by strictly higher impact, so an aware
                # 1 or 2 carries a flag toward 0 under sa
                for notion in (Notion(base), Notion(base, "sa")):
                    layout = _Layout(inst, notion)
                    want = base == "ef1" or fair and notion.awareness == "sa"
                    assert layout.accepts(_replay(inst, layout, owners)) == want, (aware, notion)
                    assert certify(inst, alloc, notion).fair == want

    def test_flag_exemption(self):
        # a flagged pair passes; the walk flags aware observers only
        # (``test_flags_follow_strict_impact``)
        rows, x, y = [[9], [0]], [[0, 9], [0, 0]], [[0, 0], [0, 0]]
        assert not _accepts(rows, "ef1", x, y)
        assert not _accepts(rows, "ef1", x, y, flags=[[0, 0], [0, 0]])
        assert not _accepts(rows, "ef1", x, y, flags=[[0, 0], [1, 0]])
        assert _accepts(rows, "ef1", x, y, flags=[[0, 1], [0, 0]])


class TestExactSolve:
    def test_partition_gadget_solvable(self):
        inst = gen_partition_ef1((1, 1, 2))
        alloc = exact_solve(inst, Notion("ef1"))
        assert alloc is not None
        assert is_sim(inst, alloc).fair
        assert check(inst, alloc, Notion("ef1")).fair

    def test_partition_gadget_unsolvable(self):
        inst = gen_partition_ef1((1, 1, 4))
        stats = {}
        assert exact_solve(inst, Notion("ef1"), stats=stats) is None
        # a negative answer creates every reachable state, each once
        assert stats["layer_sizes"] == [1, 1, 1, 2, 3, 6]
        assert stats["visited"] == sum(stats["layer_sizes"])
        assert brute_force_solve(inst, Notion("ef1")) is None

    def test_no_items_trivial(self):
        inst = make_instance(((), ()), ((), ()))
        alloc = exact_solve(inst, Notion("ef1"))
        assert alloc == Allocation.empty(2)

    def test_budget_error(self):
        inst = gen_random(3, 6, 5, 3, 1, seed=99)
        with pytest.raises(BudgetExceededError):
            exact_solve(inst, Notion("efl"), state_budget=5)

    # a budget or cap below 1 is invalid input, never a budget overrun (and
    # never an answer, even where no state would be created)
    _BAD_BUDGETS = {
        "exact-negative": lambda inst: exact_solve(inst, Notion("ef1"), state_budget=-3),
        "exact-zero-no-items": lambda inst: exact_solve(
            make_instance(((),), ((),)), Notion("ef1"), state_budget=0
        ),
        "brute-solve": lambda inst: brute_force_solve(inst, Notion("ef1"), cap=0),
        "brute-count": lambda inst: brute_force_count(inst, Notion("ef1"), cap=0),
        "brute-count-any": lambda inst: brute_force_count(inst, None, cap=0),
        "sa-empty": lambda inst: solve_sa_empty(inst, node_budget=0),
    }

    @pytest.mark.parametrize("call", list(_BAD_BUDGETS))
    def test_budget_below_one_is_invalid(self, call):
        inst = gen_partition_ef1((1, 1, 4))
        with pytest.raises(ValidationError, match="must be a positive integer"):
            self._BAD_BUDGETS[call](inst)

    # a budget of None means the module's default, for every solver: with
    # that default lowered to 1, the same call runs out
    _DEFAULT_BUDGETS = {
        "exact": (search, "DEFAULT_STATE_BUDGET",
                  lambda inst: exact_solve(inst, Notion("ef1"), state_budget=None)),
        "brute-solve": (oracle, "DEFAULT_BRUTE_CAP",
                        lambda inst: brute_force_solve(inst, Notion("ef1"), cap=None)),
        "brute-count": (oracle, "DEFAULT_BRUTE_CAP",
                        lambda inst: brute_force_count(inst, Notion("ef1"), cap=None)),
        "brute-count-any": (oracle, "DEFAULT_BRUTE_CAP",
                            lambda inst: brute_force_count(inst, None, cap=None)),
        "sa-empty": (sa_empty, "DEFAULT_NODE_BUDGET",
                     lambda inst: solve_sa_empty(inst, node_budget=None)),
    }

    @pytest.mark.parametrize("call", list(_DEFAULT_BUDGETS))
    def test_budget_none_is_the_default(self, call, monkeypatch):
        monkeypatch.delenv("FDSI_STATE_BUDGET", raising=False)
        module, name, solve = self._DEFAULT_BUDGETS[call]
        inst = gen_partition_ef1((1, 1, 4))
        solve(inst)
        monkeypatch.setattr(module, name, 1)
        with pytest.raises(BudgetExceededError):
            solve(inst)

    def test_state_count_bound(self):
        for seed in range(10):
            inst = gen_random(2, 3, 2, 2, 1, seed=seed)
            nu = max((abs(v) for row in inst.valuations for v in row), default=0)
            n, m = inst.n, inst.m
            bound = (
                (1 + nu * m) ** (n * n)
                * (1 + nu) ** (n * n)
                * (m + 1)
                * 2 ** (n * n)
            )
            stats = {}
            exact_solve(inst, Notion("ef1"), stats=stats)
            assert stats["visited"] <= bound

    def test_alpha_and_wsa_rejected(self):
        inst = gen_random(2, 3, 3, 3, 1, seed=5)
        with pytest.raises(UnsupportedNotionError):
            exact_solve(inst, Notion("ef1", "alpha", Fraction(1, 2)))
        with pytest.raises(UnsupportedNotionError):
            exact_solve(inst, Notion("ef1", "wsa"))
        with pytest.raises(UnsupportedNotionError):
            exact_solve(inst, Notion("sa-empty"))

    def test_efl_state_count(self):
        # one value set per ordered pair keeps this tiny; per-observer
        # branching of a single tracked value created about 1.56M states here
        stats = {}
        alloc = exact_solve(gen_random(3, 9, 9, 2, 1, 5), Notion("efl"), stats=stats)
        assert alloc is not None
        assert stats["visited"] <= 1000

    def test_verify_raises_on_a_failing_allocation(self, monkeypatch):
        # certify, the re-check every solver runs, names what failed
        inst = make_instance(((1, 1, 1), (1, 1, 1)), ((1, 1, 1), (1, 1, 1)))
        hoarded = Allocation.from_assignment(2, [0, 0, 0])
        assert certify(inst, hoarded, Notion("efl")).witness.reason == "efl"
        fair = Allocation.from_assignment(2, [0, 1, 1])
        assert certify(inst, fair, Notion("efl")).fair
        dominated = make_instance(((1,), (1,)), ((2,), (1,)))
        verdict = certify(dominated, Allocation.from_assignment(2, [1]), Notion("efl"))
        assert verdict == is_sim(dominated, Allocation.from_assignment(2, [1]))
        assert verdict.witness.reason == "sim"
        # a certify that rejects every answer makes both solvers raise
        monkeypatch.setattr(fairness, "is_sim", lambda *args: Verdict(False, Witness("sim")))
        with pytest.raises(InternalError, match="search accepted an allocation that fails sim"):
            exact_solve(inst, Notion("efl"))
        with pytest.raises(InternalError, match="solver built an allocation that fails sim"):
            solve_sa_empty(dominated)

    def test_deep_instance(self):
        # unique impact maximizers: one state per layer on a path 3000 items
        # deep, which a recursive walk could not descend
        m = 3000
        impacts = ((1, 0) * (m // 2), (0, 1) * (m // 2))
        inst = make_instance(((1,) * m, (1,) * m), impacts)
        stats = {}
        assert exact_solve(inst, Notion("ef1"), stats=stats) is not None
        assert stats["layer_sizes"] == [1] * (m + 1)

    def test_sef1_reconstruction_satisfies_every_target(self):
        hits = 0
        for inst in random_instances(60, 61, 2, 3, 1, 5, 4, 4):
            alloc = exact_solve(inst, Notion("sef1"))
            if alloc is None:
                continue
            hits += 1
            for j in range(inst.n):
                assert naive_target(inst, alloc, j, "sef1", set())
        assert hits > 20


# values of 10**6 and more pin the efl value-set encoding: a bitmask over
# values would need megabytes per key
_VALUE = st.one_of(
    st.integers(0, 6), st.sampled_from((0, 10**6, 10**6 + 1, 2 * 10**6, 10**9))
)


@st.composite
def _differential_instances(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 7))
    valuations = [[draw(_VALUE) for _ in range(m)] for _ in range(n)]
    # small impact ranges make ties, so items often have several maximizers
    s_max = draw(st.integers(1, 2))
    impacts = [[draw(st.integers(0, s_max)) for _ in range(m)] for _ in range(n)]
    weights = [draw(st.integers(1, 3)) for _ in range(n)]
    aware = [draw(st.booleans()) for _ in range(n)]
    return make_instance(valuations, impacts, weights=weights, aware=aware)


# a mixed-awareness negative (sa-ef) where keys that differ only in the flags
# of the unaware observers 0 and 2 merge: 28 states, 32 with those flags kept
_MERGED_FLAGS = make_instance(
    ((2, 2, 3, 2, 4), (3, 4, 0, 4, 3), (0, 0, 4, 0, 2)),
    ((1, 0, 2, 1, 2), (0, 2, 2, 1, 0), (0, 2, 1, 1, 1)),
    aware=(False, True, False),
)


class TestExactDifferential:
    @settings(max_examples=200, deadline=None)
    @given(_differential_instances())
    @example(
        make_instance(
            ((10**6, 10**6, 1, 1, 0), (3, 10**9, 10**6, 0, 2)),
            ((1, 1, 1, 1, 1), (1, 1, 1, 1, 1)),
            aware=(False, True),
        )
    )
    @example(
        make_instance(
            ((10**6, 10**6, 10**6 + 1), (1, 2, 3), (0, 0, 0)),
            ((1, 1, 0), (1, 1, 1), (0, 1, 1)),
            aware=(True, False, False),
        )
    )
    @example(_MERGED_FLAGS)
    def test_exact_matches_brute(self, inst):
        for base, mode in product(BASES, (None, "sa")):
            notion = Notion(base, mode)
            # both return the lexicographically first passing owners
            assert exact_solve(inst, notion) == brute_force_solve(inst, notion), notion.label()

    def test_unaware_flags_merge(self):
        stats = {}
        assert exact_solve(_MERGED_FLAGS, Notion("ef", "sa"), stats=stats) is None
        assert stats["visited"] == 28


class TestWalkCount:
    # the walk's graph has one path per impact-maximizing owner tuple, so its
    # accepting paths are the oracle's count; a prune or a dropped successor
    # that removes some fair allocations, though not all, shows in the count
    # and not in a verdict
    @pytest.mark.parametrize("base", BASES)
    def test_count_matches_brute(self, base):
        rng = random.Random(2)
        sizes = [(n, m) for n in (2, 3) for m in range(3, 8) for _ in range(6)]
        sizes += [(4, 9)] * 4 + [(4, 10)] * 4 + [(5, 9)] * 4
        for k, (n, m) in enumerate(sizes):
            # s_max 0 makes every agent maximize every item: n**m candidates
            s_max = rng.randint(0, 2) if n < 4 else 2
            inst = gen_random(n, m, rng.choice((3, 9)), s_max, 3, seed=k)
            # every other agent aware
            inst = make_instance(inst.valuations, inst.impacts, weights=inst.weights,
                                 aware=[i % 2 == k % 2 for i in range(n)])
            for notion in (Notion(base), Notion(base, "sa")):
                assert (k, notion, walk_count(inst, notion)) == (
                    k, notion, brute_force_count(inst, notion)
                )


# 40 seeded random instances (1-4 agents, 0-9 items, values up to 3, 7, 15
# or 10**6, random weights and aware flags) with, per base, plain and under
# sa, the walk's visited count, layer sizes and owners (null: no answer).
# The owners are the oracle's for every base; the counts are those of the
# key without y_aa and with sef1/swef1's Pareto set ids
_PINNED = json.loads((Path(__file__).parent / "pinned_walks.json").read_text())


class TestPinnedWalks:
    def test_counts_and_allocations_unchanged(self):
        walks = 0
        for k, rec in enumerate(_PINNED):
            inst = make_instance(
                rec["valuations"], rec["impacts"], weights=rec["weights"], aware=rec["aware"]
            )
            for base, mode in product(BASES, (None, "sa")):
                notion = Notion(base, mode)
                stats = {}
                alloc = exact_solve(inst, notion, stats=stats)
                owners = None if alloc is None else alloc.owners(inst.m)
                want = rec["walks"][notion.label()]
                assert [stats["visited"], stats["layer_sizes"], owners] == want, (k, notion.label())
                walks += 1
        assert walks == 560


@st.composite
def _metamorphic_cases(draw):
    """A small instance and its three transforms: items permuted, agents
    permuted with their weights and ``aware`` flags, valuations scaled."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 5))
    vals = [[draw(st.integers(0, 4)) for _ in range(m)] for _ in range(n)]
    imps = [[draw(st.integers(0, 2)) for _ in range(m)] for _ in range(n)]
    weights = [draw(st.integers(1, 3)) for _ in range(n)]
    aware = [draw(st.booleans()) for _ in range(n)]
    inst = make_instance(vals, imps, weights=weights, aware=aware)
    items = draw(st.permutations(range(m)))
    agents = draw(st.permutations(range(n)))
    factor = draw(st.sampled_from((2, 3)))
    transforms = (
        make_instance(
            [[row[g] for g in items] for row in vals],
            [[row[g] for g in items] for row in imps],
            weights=weights,
            aware=aware,
        ),
        make_instance(
            [vals[i] for i in agents],
            [imps[i] for i in agents],
            weights=[weights[i] for i in agents],
            aware=[aware[i] for i in agents],
        ),
        make_instance(
            [[v * factor for v in row] for row in vals], imps, weights=weights, aware=aware
        ),
    )
    return inst, transforms


class TestMetamorphic:
    @settings(max_examples=150, deadline=None)
    @given(_metamorphic_cases())
    def test_answers_survive_permutation_and_scaling(self, case):
        inst, transforms = case
        for base, mode in product(BASES, (None, "sa")):
            notion = Notion(base, mode)
            found = exact_solve(inst, notion) is not None
            count = brute_force_count(inst, notion)
            for other in transforms:
                assert (exact_solve(other, notion) is not None) == found, notion.label()
                assert brute_force_count(other, notion) == count, notion.label()


def _family_instances(seed: int):
    """Seeded instances shaped like the exact-search benchmark's: the
    partition and mixed-awareness gadgets on 10 weights up to 2 with an even
    total, and 3x8, 3x9 and 4x7 random instances with impacts and weights up
    to 2 and a mixed awareness profile."""
    rng = random.Random(seed)
    weights = []
    while len(weights) < 2:
        w = [rng.randint(1, 2) for _ in range(10)]
        if sum(w) % 2 == 0 and max(w) < sum(w) // 2:
            weights.append(w)
    yield "partition", gen_partition_ef1(weights[0])
    yield "mixed", gen_mixed_awareness(weights[1])
    for n, m, v_max in ((3, 8, 5), (3, 9, 5), (4, 7, 9)):
        raw = gen_random(n, m, v_max, 2, 2, rng.randrange(2**32))
        aware = [i % 2 == 0 for i in range(n)]
        rng.shuffle(aware)
        yield f"random-{n}x{m}", make_instance(
            raw.valuations, raw.impacts, weights=raw.weights, aware=aware
        )


_FAMILIES = {f"{name}-{seed}": inst for seed in (1, 2) for name, inst in _family_instances(seed)}


def _rewrites(inst, rng):
    """(name, rewritten instance): agents permuted with their weights and
    ``aware`` flags, items permuted, and the impacts normalized."""
    agents = rng.sample(range(inst.n), inst.n)
    items = rng.sample(range(inst.m), inst.m)
    yield "agents", make_instance(
        [inst.valuations[i] for i in agents],
        [inst.impacts[i] for i in agents],
        weights=[inst.weights[i] for i in agents],
        aware=[inst.aware[i] for i in agents],
    )
    yield "items", make_instance(
        [[row[g] for g in items] for row in inst.valuations],
        [[row[g] for g in items] for row in inst.impacts],
        weights=inst.weights,
        aware=inst.aware,
    )
    yield "normalized", normalize_impacts(inst)


def _answers(inst, notion):
    """What a rewrite must keep: the oracle's count, the walk's verdict and
    its count of accepting paths (None where the walk does not run), and the
    sa-empty solver's verdict."""
    count = brute_force_count(inst, notion)
    if notion.base == "sa-empty":
        return count, solve_sa_empty(inst) is not None
    if notion.awareness in ("alpha", "wsa"):
        return count, None, None
    return count, exact_solve(inst, notion) is not None, walk_count(inst, notion)


class TestMetamorphicFamilies:
    """Permuting agents or items, or normalizing the impacts, keeps every
    answer on the benchmark-shaped instances.  ``normalize_impacts`` keeps
    the maximizer sets and which agent maximizes what, so it keeps the plain
    notions, ``sa`` and ``sa-empty``; ``alpha`` and ``wsa`` read the size of
    the impacts, so only the permutations apply to them."""

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_rewrites_keep_every_answer(self, family):
        inst = _FAMILIES[family]
        notions = [Notion("sa-empty")] + [
            Notion(base, *mode)
            for base in BASES
            for mode in ((), ("sa",), ("alpha", Fraction(1, 2)), ("wsa",))
        ]
        want = {notion: _answers(inst, notion) for notion in notions}
        assert any(count for count, *_ in want.values())  # some notion has fair allocations
        for name, other in _rewrites(inst, random.Random(family)):
            for notion in notions:
                if name == "normalized" and notion.awareness in ("alpha", "wsa"):
                    continue
                assert _answers(other, notion) == want[notion], (name, notion.label())


class TestPathReplay:
    def test_known_solution_path_reaches_an_accepting_state(self):
        # replay a balanced split of the equal-partition embedding through
        # the successor relation and confirm the final state accepts
        inst = gen_partition_ef1((1, 1, 2))
        owners = [0, 1, 1, 1, 0]  # G1 and the heavy item left, rest right
        alloc = Allocation.from_assignment(2, owners)
        assert is_sim(inst, alloc).fair
        assert check(inst, alloc, Notion("ef1")).fair
        layout = _layout(inst, "ef1")
        assert layout.accepts(_replay(inst, layout, owners))
        assert exact_solve(inst, Notion("ef1")) is not None

    def test_unbalanced_path_is_rejected(self):
        inst = gen_partition_ef1((1, 1, 2))
        owners = [0, 1, 0, 0, 0]  # everything small hoarded left
        layout = _layout(inst, "ef1")
        assert not layout.accepts(_replay(inst, layout, owners))


class TestOracles:
    def test_unique_maximizers_single_allocation(self):
        inst = make_instance(((1, 1), (1, 1)), ((2, 0), (1, 1)))
        allocs = list(enumerate_sim_allocations(inst))
        assert len(allocs) == 1

    def test_co_maximized_count(self):
        inst = make_instance(((1, 1, 1), (1, 1, 1)), ((1, 1, 1), (1, 1, 1)))
        assert brute_force_count(inst, None) == 8
        assert len(list(enumerate_sim_allocations(inst))) == 8

    def test_enumeration_is_exactly_the_maximizing_set(self):
        from itertools import product

        for inst in random_instances(15, 71, 1, 3, 0, 4, 3, 3):
            enumerated = {a.bundles for a in enumerate_sim_allocations(inst)}
            full = set()
            for owners in product(range(inst.n), repeat=inst.m):
                alloc = Allocation.from_assignment(inst.n, owners)
                if is_sim(inst, alloc).fair:
                    full.add(alloc.bundles)
            assert enumerated == full

    def test_brute_cap(self):
        inst = make_instance(
            tuple((1,) * 10 for _ in range(3)),
            tuple((1,) * 10 for _ in range(3)),
        )
        with pytest.raises(BudgetExceededError):
            brute_force_solve(inst, Notion("ef1"), cap=100)

    def test_nonexistence_goldens(self):
        bill = canned("bill-joe").instance
        assert brute_force_solve(bill, Notion("ef1")) is None
        unaware = canned("unaware-nonexistence").instance
        assert brute_force_solve(unaware, Notion("ef1", "sa")) is None
        alpha = canned("alpha-nonexistence").instance
        assert (
            brute_force_solve(alpha, Notion("ef1", "alpha", Fraction(1, 2))) is None
        )
        wsa = canned("wsa-nonexistence").instance
        assert brute_force_solve(wsa, Notion("ef1", "wsa")) is None
        assert brute_force_solve(wsa, Notion("ef1", "sa")) is not None

    def test_unaware_example_without_sim_restriction(self):
        # dropping the impact-maximization requirement makes the instance easy
        unaware = canned("unaware-nonexistence").instance
        alloc = brute_force_solve(
            unaware, Notion("ef1", "sa"), require_sim=False
        )
        assert alloc is not None
        assert not is_sim(unaware, alloc).fair

    def test_search_still_reads_the_oracle_solvers(self):
        # the two solvers read from ``fdsi.search`` are the oracle's own; any
        # other name the walk lacks stays missing, the cap included
        assert search.brute_force_solve is oracle.brute_force_solve
        assert search.brute_force_count is oracle.brute_force_count
        for name in ("no_such_name", "DEFAULT_BRUTE_CAP", "_scan"):
            with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
                getattr(search, name)
        # and importing the walk alone loads no oracle
        code = "import sys, fdsi.search\nprint('fdsi.oracle' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


class TestOracleEquivalenceSmoke:
    def test_small_ensemble_all_notions(self):
        rng = random.Random(81)
        for k, inst in enumerate(random_instances(40, 82, 2, 3, 1, 6, 5, 5, 3)):
            profile = tuple(rng.random() < 0.5 for _ in range(inst.n))
            mixed = inst.replace(aware=profile)
            for base, (judged, mode) in product(BASES, ((inst, None), (mixed, "sa"))):
                notion = Notion(base, mode)
                # both return the lexicographically first passing owners
                exact = exact_solve(judged, notion)
                assert exact == brute_force_solve(judged, notion), (k, notion)

    def test_eight_items_all_notions(self):
        # wider than the ensembles above: 3 agents, 8 items, every item
        # co-maximized by all (s_max 0) or by a random subset (s_max 1)
        pairs = 0
        for seed, s_max in product(range(22), (0, 1)):
            inst = gen_random(3, 8, 6, s_max, 2, seed)
            rng = random.Random(seed)
            mixed = inst.replace(aware=[rng.random() < 0.5 for _ in range(3)])
            for base, (judged, mode) in product(BASES, ((inst, None), (mixed, "sa"))):
                notion = Notion(base, mode)
                exact = exact_solve(judged, notion)
                assert exact == brute_force_solve(judged, notion), (seed, s_max, notion)
                assert exact is None or certify(judged, exact, notion).fair
                pairs += 1
        assert pairs == 616


_ALPHAS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1))


@st.composite
def _oracle_cases(draw):
    """An instance, a notion, an optional awareness profile (to become the
    instance's ``aware`` flags under ``sa``) and require_sim."""
    n = draw(st.integers(1, 4))
    # at most 4**5 candidates without the impact restriction
    m = draw(st.integers(0, 6 if n < 4 else 5))
    # small ranges give zero values and impact ties (several maximizers)
    valuations = [[draw(st.integers(0, 4)) for _ in range(m)] for _ in range(n)]
    shape = draw(st.sampled_from(("random", "zero impacts", "equal impacts")))
    if shape == "random":
        impacts = [[draw(st.integers(0, 2)) for _ in range(m)] for _ in range(n)]
    else:
        # every agent maximizes every item, with equal (maybe all zero)
        # impacts, and some value columns are all zero: the shapes where the
        # scan skips entries
        column = [0 if shape == "zero impacts" else draw(st.integers(1, 2)) for _ in range(m)]
        impacts = [column] * n
        for g in draw(st.sets(st.integers(0, m - 1))) if m else ():
            for row in valuations:
                row[g] = 0
    weights = [draw(st.integers(1, 3)) for _ in range(n)]
    aware = [draw(st.booleans()) for _ in range(n)]
    inst = make_instance(valuations, impacts, weights=weights, aware=aware)
    base = draw(st.sampled_from(BASES + ("sa-empty",)))
    mode = None if base == "sa-empty" else draw(st.sampled_from((None, "sa", "alpha", "wsa")))
    alpha = draw(st.sampled_from(_ALPHAS)) if mode == "alpha" else None
    notion = Notion(base, mode, alpha)
    profile = None
    if mode in (None, "sa") and draw(st.booleans()):
        profile = tuple(draw(st.booleans()) for _ in range(n))
    return inst, notion, profile, draw(st.booleans())


def _naive_scan(inst, notion, require_sim=True):
    """The candidates passing ``helpers.naive_check``, in
    ``itertools.product`` order over the candidate owners."""
    if require_sim:
        choices = [sorted(s) for s in all_maximizers(inst)]
    else:
        choices = [range(inst.n)] * inst.m
    return [
        owners
        for owners in product(*choices)
        if naive_check(inst, Allocation.from_assignment(inst.n, owners), notion)
    ]


def _assert_oracle_is_naive(inst, notion, require_sim=True):
    """The oracle's count and first answer are the naive scan's."""
    passing = _naive_scan(inst, notion, require_sim)
    assert brute_force_count(inst, notion, require_sim=require_sim) == len(passing), notion.label()
    first = Allocation.from_assignment(inst.n, passing[0]) if passing else None
    assert brute_force_solve(inst, notion, require_sim=require_sim) == first, notion.label()


class TestOracleScanDifferential:
    """The head x tail scan against the literal definitions
    (``helpers.naive_check``) over ``itertools.product`` of the candidates.
    A drawn instance has a head whenever it has two or more candidates, and
    a tail whenever its last column is no wider than the square root of the
    candidate count."""

    @settings(max_examples=300, deadline=None)
    @given(_oracle_cases())
    def test_count_and_first_answer_match_naive(self, case):
        inst, notion, profile, require_sim = case
        if profile is not None:
            inst = inst.replace(aware=profile)
            if notion.base != "sa-empty":
                notion = Notion(notion.base, "sa")
        _assert_oracle_is_naive(inst, notion, require_sim)

    @pytest.mark.parametrize("seed", range(3))
    def test_two_agents_ten_co_maximized_items(self, seed):
        # every item has both agents as maximizers, so the scan runs 32
        # heads of five items by 32 tails of five; under sa with one aware
        # agent it packs S as well (all zero here)
        plain = gen_random(2, 10, 9, 0, 1, seed)
        mixed = plain.replace(aware=(True, False))
        allocs = [Allocation.from_assignment(2, o) for o in product(range(2), repeat=10)]
        for base in BASES:
            for inst, notion in ((plain, Notion(base)), (mixed, Notion(base, "sa"))):
                naive = sum(naive_check(inst, a, notion) for a in allocs)
                assert brute_force_count(inst, notion) == naive, (base, notion.awareness)

    def test_count_any_needs_no_scan(self):
        inst = make_instance(((1, 1, 1), (1, 1, 1)), ((2, 1, 1), (1, 1, 1)))
        assert brute_force_count(inst, None) == 4
        assert brute_force_count(inst, None, require_sim=False) == 8
        with pytest.raises(BudgetExceededError):
            brute_force_count(inst, None, require_sim=False, cap=7)
        assert brute_force_count(inst, None, cap=4) == 4

    def test_cap_counts_the_scanned_candidates(self):
        inst = make_instance(((1, 1, 1), (1, 1, 1)), ((2, 2, 2), (1, 1, 1)))
        # one impact-maximizing allocation, eight allocations in all
        assert brute_force_count(inst, Notion("ef"), cap=1) == 0
        with pytest.raises(BudgetExceededError):
            brute_force_count(inst, Notion("ef"), require_sim=False, cap=7)
        with pytest.raises(BudgetExceededError):
            brute_force_solve(inst, Notion("ef"), require_sim=False, cap=7)

    def test_cap_bounds_the_candidates_of_any(self):
        # "any" needs no scan, but the cap still bounds its candidate set
        inst = gen_random(3, 6, 5, 0, 1, 1)  # 729 impact-maximizing allocations
        for solve in (brute_force_solve, brute_force_count):
            with pytest.raises(BudgetExceededError, match="729 impact-maximizing"):
                solve(inst, None, cap=728)
            assert solve(inst, None, cap=729) is not None
            with pytest.raises(BudgetExceededError, match="729 allocations exceed"):
                solve(inst, None, require_sim=False, cap=728)

    def test_solve_any_returns_the_first_candidate(self):
        inst = make_instance(((1, 1), (1, 1), (1, 1)), ((2, 1), (0, 1), (2, 0)))
        assert brute_force_solve(inst, None) == Allocation.from_assignment(3, [0, 0])
        everyone = make_instance(((1, 1), (1, 1)), ((0, 0), (1, 1)))
        assert brute_force_solve(everyone, None) == Allocation.from_assignment(2, [1, 1])
        assert brute_force_solve(everyone, None, require_sim=False) == (
            Allocation.from_assignment(2, [0, 0])
        )

    def test_candidate_columns(self):
        inst = make_instance(((1, 1), (1, 1), (1, 1)), ((2, 1), (0, 1), (2, 0)))
        assert candidate_columns(inst) == [(0, 2), (0, 1)]
        assert candidate_columns(inst, require_sim=False) == [(0, 1, 2), (0, 1, 2)]


def _row_summing_to(rng, m, total):
    cuts = sorted(rng.randint(0, total) for _ in range(m - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def _edge_instance(scale, seed, n=3, m=4):
    """Rows at the edges of the packed field widths.  For ``("sum", 2**k)``
    the value and impact rows sum to 2**k - 1 and 2**k in turn: the widest
    sum a k-bit field holds, and the first one a bit wider.  For
    ``("near", x)`` every entry lies within 3 of x.  Random weights; agent 1
    is unaware."""
    rng = random.Random(seed)
    kind, size = scale

    def row(a):
        if kind == "sum":
            return _row_summing_to(rng, m, size - 1 + a % 2)
        return [size + rng.randint(-3, 3) for _ in range(m)]

    return make_instance(
        [row(a) for a in range(n)],
        [row(a + 1) for a in range(n)],
        weights=[rng.randint(1, 3) for _ in range(n)],
        aware=[a != 1 for a in range(n)],
    )


_EDGE_SCALES = (("sum", 2**3), ("sum", 2**30), ("near", 10**9), ("near", 10**30))
_EXCUSE_MODES = (("sa", None), ("alpha", Fraction(1, 2)), ("wsa", None))


def _assert_check_is_naive(inst, notion):
    """``check`` agrees with ``helpers.naive_check`` on every allocation."""
    for owners in product(range(inst.n), repeat=inst.m):
        alloc = Allocation.from_assignment(inst.n, owners)
        want = naive_check(inst, alloc, notion)
        assert check(inst, alloc, notion).fair == want, (notion.label(), owners)


def _packed(sums):
    """Which of V and S ``sums`` packs: does any of their fields have a mask?"""
    return tuple(any(mask for row in M for _, mask in row) for M in (sums.V, sums.S))


class TestPackedSums:
    """The fields of ``fairness.Sums`` at their widest, through ``check``
    and both oracle entry points, each against ``helpers.naive_check`` over
    every allocation (so every bundle, the whole item set included)."""

    @pytest.mark.parametrize("scale", _EDGE_SCALES)
    @pytest.mark.parametrize("base", BASES)
    def test_value_fields(self, scale, base):
        inst = _edge_instance(scale, 7)
        notion = Notion(base)
        assert _packed(fairness.Sums(inst, notion)) == (True, False)
        _assert_check_is_naive(inst, notion)
        _assert_oracle_is_naive(inst, notion, require_sim=False)

    @pytest.mark.parametrize("scale", _EDGE_SCALES)
    @pytest.mark.parametrize("base", ("ef1", "swef1", "efl"))
    def test_impact_fields(self, scale, base):
        inst = _edge_instance(scale, 8)
        for mode, alpha in _EXCUSE_MODES:
            notion = Notion(base, mode, alpha)
            assert _packed(fairness.Sums(inst, notion)) == (True, True)
            _assert_check_is_naive(inst, notion)
            _assert_oracle_is_naive(inst, notion, require_sim=False)

    @pytest.mark.parametrize("scale", _EDGE_SCALES)
    @pytest.mark.parametrize("n, m", ((3, 3), (3, 4), (2, 7), (2, 8)))
    def test_sa_empty_fields(self, scale, n, m):
        # item counts m = 2**k - 1 and 2**k, and negative values, which
        # sa-empty never reads
        inst = _edge_instance(scale, 9, n, m)
        rng = random.Random(m)
        inst = inst.replace(valuations=[[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)])
        notion = Notion("sa-empty")
        assert _packed(fairness.Sums(inst, notion)) == (False, True)
        assert fairness.Sums(inst, notion).V == [[(0, 0)] * n] * n
        _assert_check_is_naive(inst, notion)
        _assert_oracle_is_naive(inst, notion, require_sim=False)

    @pytest.mark.parametrize("base", BASES + ("sa-empty",))
    def test_pack_is_the_sum_of_add(self, base):
        # the packed sums of an owner map, None entries included, are what
        # adding its items one at a time gives; sa-empty gets negative values
        rng = random.Random(31)
        modes = ((None, None),) if base == "sa-empty" else ((None, None),) + _EXCUSE_MODES
        for inst in random_instances(30, 32, 1, 4, 0, 7, 9, 5, 3):
            aware = [rng.random() < 0.6 for _ in range(inst.n)]
            inst = inst.replace(aware=aware)
            if base == "sa-empty":
                rows = [[rng.randint(-5, 5) for _ in range(inst.m)] for _ in range(inst.n)]
                inst = inst.replace(valuations=rows)
            for mode, alpha in modes:
                sums = fairness.Sums(inst, Notion(base, mode, alpha))
                for _ in range(4):
                    owners = [rng.choice((None, *range(inst.n))) for _ in range(inst.m)]
                    added = sum(sums.add(g, c) for g, c in enumerate(owners) if c is not None)
                    assert sums.pack(owners) == added, (base, mode, owners)


def _columns_instance(columns, n, seed):
    """An instance whose candidate columns are ``columns``: impact 1 for an
    item's maximizers and 0 for every other agent, random values."""
    rng = random.Random(seed)
    inst = make_instance(
        [[rng.randint(0, 4) for _ in columns] for _ in range(n)],
        [[int(a in col) for col in columns] for a in range(n)],
        weights=[rng.randint(1, 3) for _ in range(n)],
        aware=[rng.random() < 0.5 for _ in range(n)],
    )
    assert candidate_columns(inst) == [tuple(col) for col in columns]
    return inst


class TestScanSplit:
    """Where the head x tail split falls: the tail is the longest suffix of
    candidate columns with at most isqrt(count) candidates, and the head
    the rest.  Each case has the count and the first answer of the naive
    product-order scan, under every base, ``sa`` and ``sa-empty``."""

    NOTIONS = [Notion(base) for base in BASES] + [
        Notion("sef1", "sa"), Notion("efl", "sa"), Notion("sa-empty")
    ]

    @pytest.mark.parametrize("columns, n", (
        ([], 2),  # no items: one empty candidate
        ([(1,), (0,), (2,)], 3),  # one candidate: all tail, an empty head
        ([(0,), (0, 2), (1,), (2,)], 3),  # one free item, the last in the head
        # size-1 columns between and after free ones: count 12, tail items 3-6
        ([(0, 1), (1,), (0, 1, 2), (2,), (1, 2), (0,), (1,)], 3),
        ([(0, 1)] * 3, 2),  # 8 = 3**2 - 1: tail of one item
        ([(0, 1, 2)] * 2, 3),  # 9 = 3**2: one item each
        ([(0, 1), (0, 1, 2, 3, 4)], 5),  # 10 = 3**2 + 1: an empty tail
        ([(0, 1, 2, 3, 4), (0, 1)], 5),  # 10, the other way round: tail of one item
        ([(0, 2, 4), (1, 3), (0, 1, 2, 3, 4)], 5),  # 30: tail of one 5-column
        ([(0, 1, 2), (1, 3, 4), (0, 4), (2, 3)], 5),  # 36 = 6**2
        ([(0, 1, 2), (0, 1, 2, 3, 4), (0, 1, 2)], 5),  # 45
        ([(0, 1)] * 4, 2),  # 16 = 4**2
        ([(1, 2)] + [(0, 1)] * 3 + [(0, 1, 2)], 3),  # 48 = 7**2 - 1
    ))
    def test_count_and_first_answer(self, columns, n):
        for seed in range(3):
            inst = _columns_instance(columns, n, seed)
            for notion in self.NOTIONS:
                _assert_oracle_is_naive(inst, notion)

    @pytest.mark.parametrize("n, m", ((3, 4), (3, 5), (2, 7), (4, 3)))
    def test_without_the_impact_restriction(self, n, m):
        # 81 = 9**2, 243, 128 and 64 = 8**2 candidates
        for inst in random_instances(3, 10 * n + m, n, n, m, m, 4, 2, 3):
            for notion in self.NOTIONS:
                _assert_oracle_is_naive(inst, notion, require_sim=False)


# every awareness mode the oracle decides: plain, sa, alpha 0, 1/2 and 1, wsa
_WIDE_MODES = ((None, None), ("sa", None), ("alpha", Fraction(0)), ("alpha", Fraction(1, 2)),
               ("alpha", Fraction(1)), ("wsa", None))
_WIDE_NOTIONS = [Notion(base, *mode) for base in BASES for mode in _WIDE_MODES] + [Notion("sa-empty")]


class TestWideOracle:
    """The bit-set scan against the naive product-order scan on shapes wider
    than the drawn ensembles, with mixed ``aware`` flags and weights, with
    and without the impact restriction, and on the edge cases of the split."""

    @pytest.mark.parametrize("shape, n, m", ((0, 4, 6), (1, 2, 12), (2, 5, 5)))
    def test_count_and_first_answer(self, shape, n, m):
        # notion k of _WIDE_NOTIONS goes to shape (k + k // 6) % 3, so each
        # shape sees every awareness mode and the three see every notion;
        # impacts 0/1 tie often, so the impact restriction leaves a scan
        rng = random.Random(n * m)
        mine = [notion for k, notion in enumerate(_WIDE_NOTIONS) if (k + k // 6) % 3 == shape]
        for k, notion in enumerate(mine):
            inst = gen_random(n, m, 3, 1, 3, rng.randrange(1000))
            inst = inst.replace(aware=[rng.random() < 0.6 for _ in range(n)])
            _assert_oracle_is_naive(inst, notion, require_sim=k % 4 < 2)

    @pytest.mark.parametrize("edge", ("no items", "one tail", "zero rows"))
    def test_edge_cases(self, edge):
        for seed in range(2):
            if edge == "no items":
                inst = gen_random(3, 0, 3, 1, 3, seed)
            elif edge == "one tail":
                # the last column (3 owners) is wider than isqrt(6): every
                # head meets the one empty tail
                inst = _columns_instance([(0, 1), (0, 1, 2)], 3, seed)
            else:
                inst = gen_random(3, 5, 3, 1, 3, seed)
                inst = inst.replace(valuations=[(0,) * 5, inst.valuations[1], (0,) * 5])
            inst = inst.replace(aware=(True, False, True))
            for notion in _WIDE_NOTIONS:
                for require_sim in (True, False):
                    _assert_oracle_is_naive(inst, notion, require_sim)
