import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsi.fairness import Notion, check, matrices
from fdsi.generators import canned, gen_random
from fdsi.model import (
    Allocation,
    IncompleteAllocationError,
    ValidationError,
    compute_types,
    impact_maximizers,
    is_goods,
    make_instance,
    normalize_impacts,
    total_social_impact,
    validate,
    validate_allocation,
)
from fdsi.search import brute_force_solve

from helpers import impact_of, random_instances


WSA = canned("wsa-nonexistence").instance
BILL_JOE = canned("bill-joe")


class TestBundleArithmetic:
    # bundle sums are V[i][j] = v_i(A_j) and S[i][j] = s_i(A_j) of
    # fairness.matrices over an item -> owner map

    def test_empty_bundle_is_zero(self):
        V, S = matrices(WSA, [None] * WSA.m)
        assert V == S == [[0, 0], [0, 0]]

    def test_wsa_example_values(self):
        # items are (g1, g2, g3); agent 1 sees bundle {g3, g2} as 5 + 5
        V, _ = matrices(WSA, [0, 1, 1])
        assert V[0][1] == 10
        assert V[0][0] == 1

    def test_wsa_example_impacts(self):
        _, S = matrices(WSA, [0, 1, 1])
        assert S[1][1] == 2
        assert S[0][1] == 1

    def test_unknown_item_rejected(self):
        with pytest.raises(ValidationError):
            check(WSA, Allocation((frozenset({99}), frozenset())), Notion("ef"))
        with pytest.raises(ValidationError):
            total_social_impact(WSA, Allocation((frozenset({-1, 0, 1, 2}), frozenset())))

    def test_unknown_agent_rejected(self):
        six = Allocation.from_assignment(6, [5, 5, 5])
        assert validate_allocation(WSA, six) != []
        with pytest.raises(ValidationError):
            check(WSA, six, Notion("ef"))


class TestTotalImpact:
    def test_empty_item_set(self):
        inst = make_instance(((), ()), ((), ()))
        assert total_social_impact(inst, Allocation.empty(2)) == 0

    def test_bill_joe_all_to_bill(self):
        assert total_social_impact(BILL_JOE.instance, BILL_JOE.allocation) == 20

    def test_bill_joe_split(self):
        split = Allocation((frozenset({0}), frozenset({1})))
        assert total_social_impact(BILL_JOE.instance, split) == 11

    def test_incomplete_rejected(self):
        with pytest.raises(IncompleteAllocationError):
            total_social_impact(BILL_JOE.instance, Allocation.empty(2))


class TestMaximizers:
    def test_all_equal_impacts(self):
        inst = make_instance(((1, 2), (3, 4)), ((5, 5), (5, 5)))
        assert impact_maximizers(inst, 0) == frozenset({0, 1})

    def test_bill_joe(self):
        assert impact_maximizers(BILL_JOE.instance, 0) == frozenset({0})

    def test_partition_gadget_big_item(self):
        from fdsi.generators import gen_partition_ef1

        gadget = gen_partition_ef1((1, 1))
        assert impact_maximizers(gadget, 0) == frozenset({0})
        assert impact_maximizers(gadget, 1) == frozenset({1})


class TestNormalization:
    def test_bill_joe_rows(self):
        norm = normalize_impacts(BILL_JOE.instance)
        assert norm.impacts == ((1, 1), (0, 0))
        assert norm.valuations == BILL_JOE.instance.valuations

    def test_binary_unique_maximizers_fixed_point(self):
        inst = make_instance(((1, 1), (1, 1)), ((1, 0), (0, 1)))
        assert normalize_impacts(inst) == inst

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_idempotent(self, seed):
        rng = random.Random(seed)
        inst = gen_random(rng.randint(1, 4), rng.randint(0, 5), 4, 4, 2, seed=seed)
        once = normalize_impacts(inst)
        assert normalize_impacts(once) == once

    def test_total_impact_bounded_by_item_count(self):
        rng = random.Random(1)
        for inst in random_instances(40, 2, 1, 4, 0, 6, 4, 4):
            norm = normalize_impacts(inst)
            owners = [rng.randrange(inst.n) for _ in range(inst.m)]
            alloc = Allocation.from_assignment(inst.n, owners)
            si = total_social_impact(norm, alloc)
            assert si <= norm.m
            on_maximizers = all(
                owners[g] in impact_maximizers(inst, g) for g in range(inst.m)
            )
            assert (si == norm.m) == on_maximizers

    def test_existence_agrees_raw_vs_normalized(self):
        # brute-force existence of a maximizing fair allocation is invariant
        for k, inst in enumerate(random_instances(25, 3, 1, 3, 0, 5, 3, 3)):
            norm = normalize_impacts(inst)
            for base in ("ef1", "efl", "tef1", "sef1"):
                raw = brute_force_solve(inst, Notion(base)) is not None
                cooked = brute_force_solve(norm, Notion(base)) is not None
                assert raw == cooked, (k, base)

    def test_sa_condition_invariant_on_maximizing_allocations(self):
        # strict impact domination agrees raw vs normalized whenever every
        # item sits with a maximizer
        from fdsi.search import enumerate_sim_allocations

        bi = impact_of
        for inst in random_instances(20, 4, 2, 3, 1, 4, 3, 3):
            norm = normalize_impacts(inst)
            for alloc in enumerate_sim_allocations(inst):
                for i in range(inst.n):
                    for j in range(inst.n):
                        raw = bi(inst, i, alloc.bundles[j]) < bi(
                            inst, j, alloc.bundles[j]
                        )
                        cooked = bi(norm, i, alloc.bundles[j]) < bi(
                            norm, j, alloc.bundles[j]
                        )
                        assert raw == cooked


class TestTypes:
    def test_identical_rows_one_type(self):
        inst = make_instance(((1, 2), (3, 4)), ((2, 2), (2, 2)))
        types = compute_types(inst)
        assert len(types.item_types) == 1
        assert len(types.agent_types) == 1

    def test_x3c_guards_share_a_type(self):
        from fdsi.generators import RX3CInput, gen_x3c_sa_empty

        fam = ({0, 1, 2}, {3, 4, 5}, {0, 1, 3}, {2, 4, 5}, {1, 2, 4}, {0, 3, 5})
        inst = gen_x3c_sa_empty(RX3CInput(universe_size=6, triples=fam))
        types = compute_types(inst)
        guard_cls = [cls for cls in types.agent_types if 6 in cls]
        assert guard_cls == [(6, 7)]

    def test_types_match_pairwise_comparison(self):
        for inst in random_instances(30, 5, 1, 4, 0, 6, 3, 3):
            types = compute_types(inst)
            maxsets = [impact_maximizers(inst, g) for g in range(inst.m)]
            item_type_of = {}
            for t, members in enumerate(types.item_types):
                for g in members:
                    item_type_of[g] = t
            for g in range(inst.m):
                for h in range(inst.m):
                    same = item_type_of[g] == item_type_of[h]
                    assert same == (maxsets[g] == maxsets[h])
            maximized = [
                frozenset(g for g in range(inst.m) if i in maxsets[g])
                for i in range(inst.n)
            ]
            agent_type_of = {}
            for t, members in enumerate(types.agent_types):
                for i in members:
                    agent_type_of[i] = t
            for i in range(inst.n):
                for j in range(inst.n):
                    same = agent_type_of[i] == agent_type_of[j]
                    assert same == (maximized[i] == maximized[j])


class TestValidation:
    def test_well_formed(self):
        assert validate(WSA) == []
        assert validate_allocation(WSA, canned("wsa-nonexistence").allocation) == []

    def test_item_in_two_bundles(self):
        alloc = Allocation((frozenset({0}), frozenset({0})))
        errors = validate_allocation(WSA, alloc)
        assert any("two bundles" in e or "appears" in e for e in errors)

    def test_unknown_item_in_bundle(self):
        alloc = Allocation((frozenset({7}), frozenset()))
        errors = validate_allocation(WSA, alloc)
        assert any("unknown item" in e for e in errors)

    def test_bad_shapes_and_weights(self):
        with pytest.raises(ValidationError):
            make_instance(((1, 2),), ((1,),))
        with pytest.raises(ValidationError):
            make_instance(((1,),), ((-1,),))
        with pytest.raises(ValidationError):
            make_instance(((1,),), ((1,),), weights=(0,))

    def test_goods_flag(self):
        assert not is_goods(canned("chores-roundrobin").instance)
        assert is_goods(WSA)
