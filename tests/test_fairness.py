import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsi.fairness import (
    BASES,
    RULES,
    Notion,
    certify,
    check,
    is_sim,
)
from fdsi.generators import canned
from fdsi.model import (
    Allocation,
    GoodsOnlyError,
    ValidationError,
    candidate_columns,
    make_instance,
)
from fdsi.oracle import brute_force_count, brute_force_solve

from helpers import (
    impact_of,
    literal_picking,
    matrices,
    naive_base,
    naive_check,
    naive_override,
    naive_target,
    random_allocation,
    random_instances,
    random_sim_allocation,
)


WSA_EX = canned("wsa-nonexistence")
BILL_JOE = canned("bill-joe")


class TestIsSim:
    def test_bill_joe_all_to_bill(self):
        assert is_sim(BILL_JOE.instance, BILL_JOE.allocation).fair

    def test_bill_joe_item_to_joe(self):
        alloc = Allocation((frozenset({0}), frozenset({1})))
        verdict = is_sim(BILL_JOE.instance, alloc)
        assert not verdict.fair
        assert verdict.witness.item == 1
        assert verdict.witness.observer == 0  # bill has strictly more impact

    def test_all_equal_impacts_any_complete(self):
        inst = make_instance(((1, 2), (3, 4)), ((1, 1), (1, 1)))
        for bundles in (
            (frozenset({0, 1}), frozenset()),
            (frozenset({0}), frozenset({1})),
        ):
            assert is_sim(inst, Allocation(bundles)).fair


class TestPairwise:
    def test_tef1_weaker_than_ef1(self):
        ex = canned("tef1-vs-ef1")
        inst, alloc = ex.instance, ex.allocation
        assert naive_base(inst, alloc, 0, 1, "tef1")
        assert not naive_base(inst, alloc, 0, 1, "ef1")
        assert check(inst, alloc, Notion("tef1")).fair
        assert not check(inst, alloc, Notion("ef1")).fair

    def test_ef1_holds_where_efl_fails(self):
        inst = make_instance(
            ((2, 1000, 1), (0, 0, 0)),
            ((1, 1, 1), (1, 1, 1)),
        )
        alloc = Allocation((frozenset({0}), frozenset({1, 2})))
        assert naive_base(inst, alloc, 0, 1, "ef1")
        assert not naive_base(inst, alloc, 0, 1, "efl")
        assert check(inst, alloc, Notion("ef1")).fair
        assert not check(inst, alloc, Notion("efl")).fair

    @pytest.mark.parametrize("own, held, fair", [
        (5, (5, 3, 2), True),  # the removal may be worth exactly v_0(A_0)
        (5, (4, 4, 1), True),  # removing 4 = v_0(A_1) - v_0(A_0) just kills the envy
        (1, (9, 0), True),  # one positive item goes whole, though worth more than A_0
        (4, (5, 5), False),  # two equal items, both above the cap
        (5, (5, 5), True),  # two equal items at the cap
        (5, (6, 1, 1), False),  # the only envy-killing item lies above the cap
    ])
    def test_efl_cap_boundaries(self, own, held, fair):
        # agent 0 holds one item worth ``own`` to it, agent 1 the items ``held``
        m = 1 + len(held)
        inst = make_instance(((own, *held), (0,) + (1,) * len(held)), ((1,) * m,) * 2)
        alloc = Allocation((frozenset({0}), frozenset(range(1, m))))
        assert naive_base(inst, alloc, 0, 1, "efl") == fair
        assert check(inst, alloc, Notion("efl")).fair == fair

    def test_trivial_cases(self):
        # agent 0 sees an empty target bundle, agent 1 values nothing
        inst = make_instance(((1, 1), (0, 0)), ((1, 1), (1, 1)))
        alloc = Allocation((frozenset({0, 1}), frozenset()))
        for base in BASES:
            assert check(inst, alloc, Notion(base)).fair, base

    def test_goods_only(self):
        chores = canned("chores-roundrobin")
        with pytest.raises(GoodsOnlyError):
            check(chores.instance, chores.allocation, Notion("ef1"))


class TestTargetFair:
    def test_single_item_bundle(self):
        inst = make_instance(((3, 1), (1, 3)), ((1, 1), (1, 1)))
        alloc = Allocation((frozenset({0}), frozenset({1})))
        assert naive_target(inst, alloc, 0, "sef1", set())
        assert naive_target(inst, alloc, 1, "sef1", set())
        assert check(inst, alloc, Notion("sef1")).fair

    def test_observers_need_different_removals(self):
        # observers 0 and 1 each tolerate a different removal from agent 2's
        # bundle, so both are one-removal fair pairwise but no universal item works
        inst = make_instance(
            ((0, 10, 0), (0, 0, 10), (1, 1, 1)),
            ((0, 1, 1), (0, 1, 1), (1, 1, 1)),
        )
        alloc = Allocation((frozenset({0}), frozenset(), frozenset({1, 2})))
        assert naive_base(inst, alloc, 0, 2, "ef1")
        assert naive_base(inst, alloc, 1, 2, "ef1")
        assert not naive_target(inst, alloc, 2, "sef1", set())
        assert check(inst, alloc, Notion("ef1")).fair
        assert not check(inst, alloc, Notion("sef1")).fair

    def test_override_exempts_observer_from_universal_requirement(self):
        # observers 0 and 1 need different removals from agent 2's bundle, so
        # no universal item exists; but observer 1's awareness override
        # exempts it, and the remaining observer is served by item 0 alone
        inst = make_instance(
            valuations=((10, 0, 0), (0, 10, 0), (1, 1, 1)),
            impacts=((1, 1, 1), (0, 0, 0), (1, 1, 1)),
        )
        alloc = Allocation((frozenset(), frozenset(), frozenset({0, 1, 2})))
        assert is_sim(inst, alloc).fair
        assert not naive_target(inst, alloc, 2, "sef1", set())
        assert naive_target(inst, alloc, 2, "sef1", {1})
        assert not check(inst, alloc, Notion("sef1")).fair
        assert check(inst, alloc, Notion("sef1", "sa")).fair

    def test_witness_is_the_least_observer_not_the_first_envious(self):
        # only a2's bundle fails, and only a1 envies it; a0 values it at 0
        # but is not exempt, so the witness names a0
        inst = make_instance(((0, 0), (5, 5), (1, 1)), ((1, 1), (1, 1), (1, 1)))
        alloc = Allocation((frozenset(), frozenset(), frozenset({0, 1})))
        for notion in (Notion("sef1"), Notion("swef1", "sa")):
            w = check(inst, alloc, notion).witness
            assert (w.observer, w.target) == (0, 2), notion.label()

    def test_ef_embedding_universal_item(self):
        from fdsi.generators import gen_ef_embedding

        inst = gen_ef_embedding(((1, 0), (0, 1)))
        # envy-free split of standard items plus the pinned specials
        alloc = Allocation((frozenset({0, 2}), frozenset({1, 3})))
        assert check(inst, alloc, Notion("sef1")).fair
        assert naive_target(inst, alloc, 0, "sef1", set())
        assert naive_target(inst, alloc, 1, "sef1", set())


class TestOverrides:
    def test_alpha_zero_never_overrides(self):
        # no observer is excused, so every verdict is the plain base's
        for inst in random_instances(10, 11, 2, 3, 1, 4, 3, 3):
            rng = random.Random(11)
            alloc = random_allocation(inst, rng)
            for base in BASES:
                got = check(inst, alloc, Notion(base, "alpha", Fraction(0)))
                want = check(inst, alloc, Notion(base))
                assert got.fair == want.fair
                if not got.fair:
                    w, v = got.witness, want.witness
                    assert (w.observer, w.target) == (v.observer, v.target)

    def test_wsa_example_numbers(self):
        inst, alloc = WSA_EX.instance, WSA_EX.allocation
        V, S = matrices(inst, alloc.owners(inst.m))
        # 10 * 1 <= 1 * 2 is false: no proportional override for observer 1
        assert (V[0][1], S[0][1], V[0][0], S[1][1]) == (10, 1, 1, 2)
        assert not naive_override(inst, alloc, 0, 1, "wsa")
        assert not check(inst, alloc, Notion("ef1", "wsa")).fair
        # 1 < 2: the plain awareness override does fire
        assert naive_override(inst, alloc, 0, 1, "sa")
        assert check(inst, alloc, Notion("ef1", "sa")).fair

    def test_unaware_agent_never_overridden(self):
        ex = canned("unaware-nonexistence")
        notion = Notion("ef1", "sa")
        assert not naive_override(ex.instance, ex.allocation, 0, 1, "sa")
        assert not check(ex.instance, ex.allocation, notion).fair

    def test_non_strict_accepts_every_maximizing_allocation(self):
        # s_i(A_j) <= s_j(A_j) holds for every ordered pair of every
        # impact-maximizing allocation, so a non-strict override would
        # excuse everyone: the strict comparison is what gives sa content
        rng = random.Random(21)
        for inst in random_instances(25, 22, 2, 4, 1, 6, 4, 4):
            alloc = random_sim_allocation(inst, rng)
            _, S = matrices(inst, alloc.owners(inst.m))
            for i in range(inst.n):
                for j in range(inst.n):
                    assert S[i][j] <= S[j][j]


class TestCheckGoldens:
    def test_wsa_example_trio(self):
        inst, alloc = WSA_EX.instance, WSA_EX.allocation
        assert check(inst, alloc, Notion("ef1", "sa")).fair
        assert not check(inst, alloc, Notion("ef1", "wsa")).fair
        assert not check(inst, alloc, Notion("ef1")).fair

    def test_witness_is_first_failing_pair(self):
        inst, alloc = WSA_EX.instance, WSA_EX.allocation
        verdict = check(inst, alloc, Notion("ef1"))
        assert (verdict.witness.observer, verdict.witness.target) == (0, 1)
        assert verdict.witness.item in alloc.bundles[1]

    def test_efl_witnesses(self):
        # agent 1 holds items 1-3; agent 0 sees two items of 5 above its 1,
        # agent 2 an envy-killing 6 above its 5.  Aware agent 0 is excused
        # (s_0(A_1) = 0 < 6 = s_1(A_1)), agent 2 is not (6 = 6)
        inst = make_instance(
            ((1, 5, 5, 0, 0), (0, 1, 1, 1, 0), (0, 6, 1, 1, 5)),
            ((1, 0, 0, 0, 0), (0, 2, 2, 2, 0), (0, 2, 2, 2, 1)),
            aware=(True, False, False),
        )
        alloc = Allocation.from_assignment(3, (0, 1, 1, 1, 2))
        for notion, want in ((Notion("efl"), ("efl", 0, 1, 1)),
                             (Notion("efl", "sa"), ("sa-efl", 2, 1, 1))):
            witness = check(inst, alloc, notion).witness
            assert (witness.reason, witness.observer, witness.target, witness.item) == want

    def test_single_agent_always_fair(self):
        inst = make_instance(((3, 1),), ((1, 1),))
        alloc = Allocation((frozenset({0, 1}),))
        for base in BASES:
            assert check(inst, alloc, Notion(base)).fair

    def test_alpha_nonexistence_instance(self):
        ex = canned("alpha-nonexistence")  # alpha = 1/2, impacts scaled to (2, 1)
        assert ex.instance.impacts == ((2, 2), (1, 1))
        verdict = check(
            ex.instance, ex.allocation, Notion("ef1", "alpha", Fraction(1, 2))
        )
        assert not verdict.fair
        assert (verdict.witness.observer, verdict.witness.target) == (1, 0)


class TestSaEmpty:
    def test_no_items_fair(self):
        inst = make_instance(((), ()), ((), ()))
        assert check(inst, Allocation.empty(2), Notion("sa-empty")).fair

    def test_identical_agents_one_item(self):
        inst = make_instance(((1,), (1,)), ((1,), (1,)))
        for owner in (0, 1):
            alloc = Allocation.from_assignment(2, [owner])
            assert not check(inst, alloc, Notion("sa-empty")).fair

    def test_cover_allocation_is_fair(self):
        from fdsi.generators import RX3CInput, gen_x3c_sa_empty

        fam = ({0, 1, 2}, {3, 4, 5}, {0, 1, 3}, {2, 4, 5}, {1, 2, 4}, {0, 3, 5})
        inst = gen_x3c_sa_empty(RX3CInput(universe_size=6, triples=fam))
        # cover {0,1,2} + {3,4,5}: those set agents take their elements plus a dummy
        bundles = [frozenset()] * 8
        bundles[0] = frozenset({0, 1, 2, 6})
        bundles[1] = frozenset({3, 4, 5, 7})
        alloc = Allocation(tuple(bundles))
        assert is_sim(inst, alloc).fair
        assert check(inst, alloc, Notion("sa-empty")).fair

    def test_rule_row(self):
        # ef over bundle sizes, every agent excusable at ratio 1/1, unweighted
        inst = make_instance(((1, 2),) * 3, ((1, 1),) * 3, weights=(2, 1, 3),
                             aware=(True, False, True))
        notion = Notion("sa-empty")
        assert notion.rule() is RULES["ef"]
        assert notion.excusable(inst) == (True, True, True)
        assert notion.weights(inst) == (1, 1, 1)
        assert notion.ratio() == (1, 1)

    def test_awareness_and_values_are_not_read(self):
        # negative values and random aware flags: the verdict, its witness
        # and the oracle's count and first answer are those of every agent
        # aware, and those of the literal definition
        rng = random.Random(34)
        notion = Notion("sa-empty")
        unfair = 0
        for inst in random_instances(300, 35, 1, 4, 0, 6, 4, 3, 3):
            rows = [[rng.randint(-5, 5) for _ in range(inst.m)] for _ in range(inst.n)]
            inst = inst.replace(valuations=rows, aware=[rng.random() < 0.5 for _ in range(inst.n)])
            aware = inst.replace(aware=[True] * inst.n)
            for _ in range(3):
                alloc = random_allocation(inst, rng)
                verdict = check(inst, alloc, notion)
                assert verdict == check(aware, alloc, notion)
                assert verdict.fair == naive_check(inst, alloc, notion)
                unfair += not verdict.fair
            for require_sim in (True, False):
                columns = candidate_columns(inst, require_sim)
                allocs = [Allocation.from_assignment(inst.n, owners) for owners in product(*columns)]
                passing = [alloc for alloc in allocs if naive_check(inst, alloc, notion)]
                for case in (inst, aware):
                    assert brute_force_count(case, notion, require_sim=require_sim) == len(passing)
                    first = brute_force_solve(case, notion, require_sim=require_sim)
                    assert first == (passing[0] if passing else None)
        assert unfair > 50


class TestLatticeAndCollapse:
    def _random_goods_case(self, seed):
        rng = random.Random(seed)
        inst = next(
            random_instances(1, seed, 2, 4, 0, 6, 4, 4, 3)
        )
        return inst, random_allocation(inst, rng)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10**6))
    def test_implication_lattice(self, seed):
        inst, alloc = self._random_goods_case(seed)
        results = {
            base: check(inst, alloc, Notion(base)).fair
            for base in ("ef", "ef1", "sef1", "efl", "tef1")
        }
        if results["efl"]:
            assert results["ef1"]
        if results["sef1"]:
            assert results["ef1"]
        if results["ef"]:
            assert results["ef1"] and results["efl"] and results["tef1"]
        if results["ef1"]:
            assert results["tef1"]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6))
    def test_equal_weights_collapse(self, seed):
        rng = random.Random(seed)
        inst = next(random_instances(1, seed, 2, 4, 0, 6, 4, 4, 1))
        alloc = random_allocation(inst, rng)
        assert (
            check(inst, alloc, Notion("wef1")).fair
            == check(inst, alloc, Notion("ef1")).fair
        )
        assert (
            check(inst, alloc, Notion("swef1")).fair
            == check(inst, alloc, Notion("sef1")).fair
        )

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6))
    def test_base_fair_implies_aware_fair(self, seed):
        inst, alloc = self._random_goods_case(seed)
        for base in BASES:
            if check(inst, alloc, Notion(base)).fair:
                for mode in ("sa", "wsa"):
                    assert check(inst, alloc, Notion(base, mode)).fair
                assert check(
                    inst, alloc, Notion(base, "alpha", Fraction(1, 3))
                ).fair

    def test_alpha_monotone_and_endpoints(self):
        rng = random.Random(77)
        grid = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
        for inst in random_instances(30, 78, 2, 3, 1, 5, 4, 4):
            alloc = random_sim_allocation(inst, rng)
            verdicts = [
                check(inst, alloc, Notion("ef1", "alpha", a)).fair for a in grid
            ]
            assert all(x <= y for x, y in zip(verdicts, verdicts[1:]))
            assert verdicts[0] == check(inst, alloc, Notion("ef1")).fair
            assert verdicts[-1] == check(inst, alloc, Notion("ef1", "sa")).fair


MODES = ((None, None), ("sa", None), ("alpha", Fraction(1, 2)), ("wsa", None))
NOTIONS = [Notion(b, mode, alpha) for b in BASES for mode, alpha in MODES] + [Notion("sa-empty")]
WIDE_COUNT = 150


def _round_robin(inst, rng, items) -> Allocation:
    """``items`` dealt round robin in a seeded agent order: the agent whose
    turn it is takes its most valued item left (lowest index on ties), or,
    one turn in five, a random one."""
    order, left = rng.sample(range(inst.n), inst.n), sorted(items)
    bundles = [set() for _ in range(inst.n)]
    for turn in range(len(left)):
        i = order[turn % inst.n]
        best = max(left, key=inst.valuations[i].__getitem__)
        g = rng.choice(left) if rng.random() < 0.2 else best
        left.remove(g)
        bundles[i].add(g)
    return Allocation(tuple(map(frozenset, bundles)))


def _wide_cases(count, seed):
    """A seeded stream of (instance, allocation) wider than the small
    ensembles: 2-6 agents, up to 40 items and values up to 20, so bundles
    hold many items of tied value.  The allocations take turns being
    complete and partial (about a quarter of the items left out), both
    dealt round robin, and impact maximizing (the picking sequence)."""
    rng = random.Random(seed)
    for k, inst in enumerate(random_instances(count, seed, 2, 6, 0, 40, 20, 3, 3)):
        inst = inst.replace(aware=tuple(rng.random() < 0.7 for _ in range(inst.n)))
        if k % 3 == 0:
            alloc = _round_robin(inst, rng, range(inst.m))
        elif k % 3 == 1:
            alloc = _round_robin(inst, rng, [g for g in range(inst.m) if rng.random() < 0.75])
        else:
            alloc = literal_picking(inst)
        yield inst, alloc


class TestAgainstNaive:
    def test_agreement_on_random_triples(self):
        rng = random.Random(123)
        modes = [
            (None, None),
            ("sa", None),
            ("alpha", Fraction(1, 2)),
            ("alpha", Fraction(2, 3)),
            ("wsa", None),
        ]
        trials = 0
        for inst in random_instances(1700, 124, 1, 3, 0, 4, 4, 4, 3):
            aware = tuple(rng.random() < 0.8 for _ in range(inst.n))
            inst = make_instance(
                inst.valuations,
                inst.impacts,
                weights=inst.weights,
                aware=aware,
                agents=inst.agents,
                items=inst.items,
            )
            for _ in range(6):
                alloc = random_allocation(inst, rng)
                base = rng.choice(BASES + ("sa-empty",))
                if base == "sa-empty":
                    notion = Notion(base)
                else:
                    mode, alpha = rng.choice(modes)
                    notion = Notion(base, mode, alpha)
                got = check(inst, alloc, notion).fair
                want = naive_check(inst, alloc, notion)
                assert got == want, (inst, alloc, notion)
                trials += 1
        assert trials >= 10_000

    def test_agreement_on_wide_instances(self):
        fair = 0
        for inst, alloc in _wide_cases(WIDE_COUNT, 505):
            for notion in NOTIONS:
                got = check(inst, alloc, notion).fair
                assert got == naive_check(inst, alloc, notion), (inst, alloc, notion)
                fair += got
        assert 0 < fair < WIDE_COUNT * len(NOTIONS)

    def test_witness_is_recheckable(self):
        rng = random.Random(321)
        seen = 0
        for inst in random_instances(150, 322, 2, 3, 1, 5, 4, 4, 2):
            alloc = random_allocation(inst, rng)
            for base in ("ef", "ef1", "wef1", "efl", "tef1"):
                for notion in (Notion(base), Notion(base, "sa")):
                    verdict = check(inst, alloc, notion)
                    if verdict.fair:
                        continue
                    seen += 1
                    w = verdict.witness
                    i, j = w.observer, w.target
                    assert not naive_base(inst, alloc, i, j, base)
                    assert not naive_override(inst, alloc, i, j, notion.awareness)
        assert seen > 100

    def test_notion_validation(self):
        with pytest.raises(ValidationError):
            Notion("nope")
        with pytest.raises(ValidationError):
            Notion("ef1", "alpha")  # missing alpha
        with pytest.raises(ValidationError):
            Notion("ef1", "alpha", Fraction(3, 2))
        with pytest.raises(ValidationError):
            Notion("sa-empty", "sa")

    def test_alpha_must_be_exact(self):
        # a float is rarely the rational meant (0.1 is 3602879701896397/2**55),
        # and a bool is no rational at all
        for bad in (0.1, 0.5, 1.0, True, False, "x", "1/0", [1]):
            with pytest.raises(ValidationError):
                Notion("ef1", "alpha", bad)
        for good, expected in ((1, Fraction(1)), (0, Fraction(0)),
                               (Fraction(1, 3), Fraction(1, 3)), ("1/3", Fraction(1, 3))):
            alpha = Notion("ef1", "alpha", good).alpha
            assert type(alpha) is Fraction and alpha == expected


def _naive_witness(inst, alloc, notion):
    """(observer, target) of the first failing pair by the literal
    definitions, or None when fair."""
    n, bundles = inst.n, alloc.bundles
    if notion.base == "sa-empty":
        return next(
            (
                (i, j)
                for i in range(n)
                for j in range(n)
                if i != j
                and bundles[j]
                and impact_of(inst, i, bundles[j]) >= impact_of(inst, j, bundles[j])
            ),
            None,
        )

    def excused(i, j):
        return naive_override(inst, alloc, i, j, notion.awareness, notion.alpha)

    if notion.base in ("sef1", "swef1"):
        failing = []
        for j in range(n):
            exempt = {i for i in range(n) if i != j and excused(i, j)}
            if not naive_target(inst, alloc, j, notion.base, exempt):
                failing += [(i, j) for i in range(n) if i != j and i not in exempt]
        return min(failing, default=None)
    return next(
        (
            (i, j)
            for i in range(n)
            for j in range(n)
            if not naive_base(inst, alloc, i, j, notion.base) and not excused(i, j)
        ),
        None,
    )


def _assert_witness(inst, alloc, notion) -> bool:
    """Assert that ``check`` gives the literal definitions' verdict and
    first failing pair, and the item of A_j worth most to the observer
    (lowest index on ties; none under sa-empty); True when unfair."""
    verdict = check(inst, alloc, notion)
    want = _naive_witness(inst, alloc, notion)
    assert verdict.fair == (want is None), notion.label()
    if want is None:
        assert verdict.witness is None
        return False
    w = verdict.witness
    assert (w.observer, w.target) == want, notion.label()
    assert w.reason == notion.label()
    if notion.base == "sa-empty":
        assert w.item is None
        return True
    i, j = want
    best = min(alloc.bundles[j], key=lambda g: (-inst.valuations[i][g], g), default=None)
    assert w.item == best
    return True


class TestWitnessParity:
    def test_witness_matches_naive_first_failing_pair(self):
        rng = random.Random(404)
        unfair = 0
        for inst in random_instances(400, 405, 1, 4, 0, 6, 4, 2, 3):
            aware = tuple(rng.random() < 0.6 for _ in range(inst.n))
            inst = make_instance(
                inst.valuations, inst.impacts, weights=inst.weights, aware=aware
            )
            # partial allocations too: owner -1 leaves an item unallocated
            owners = [rng.choice(range(-1, inst.n)) for _ in range(inst.m)]
            bundles = [frozenset(g for g, o in enumerate(owners) if o == i) for i in range(inst.n)]
            alloc = Allocation(tuple(bundles))
            for notion in NOTIONS:
                unfair += _assert_witness(inst, alloc, notion)
        assert unfair > 1000

    def test_witness_on_wide_instances(self):
        unfair = 0
        for inst, alloc in _wide_cases(WIDE_COUNT, 606):
            for notion in NOTIONS:
                unfair += _assert_witness(inst, alloc, notion)
        assert unfair > WIDE_COUNT

    def test_unknown_item_index_rejected_at_entry(self):
        inst = make_instance(((1, 2), (3, 4)), ((1, 1), (1, 1)))
        alloc = Allocation((frozenset({0, 5}), frozenset({1})))
        for notion in (Notion("ef"), Notion("sef1", "sa"), Notion("sa-empty")):
            with pytest.raises(ValidationError):
                check(inst, alloc, notion)
        with pytest.raises(ValidationError):
            certify(inst, alloc, Notion("ef"))

    def test_malformed_allocations_rejected(self):
        inst = make_instance(((1, 2), (3, 4)), ((1, 1), (1, 1)))
        wrong_count = Allocation((frozenset({0, 1}),))
        shared = Allocation((frozenset({0, 1}), frozenset({1})))
        for alloc in (wrong_count, shared):
            with pytest.raises(ValidationError):
                check(inst, alloc, Notion("ef1"))

    def test_negative_valuation_rejected(self):
        chores = canned("chores-roundrobin")
        for base in BASES:
            with pytest.raises(GoodsOnlyError):
                check(chores.instance, chores.allocation, Notion(base, "wsa"))
        with pytest.raises(GoodsOnlyError):
            check(chores.instance, chores.allocation, Notion("swef1"))
        # sa-empty reads only impacts, so chores are decided, not rejected
        sa_empty = Notion("sa-empty")
        assert check(chores.instance, chores.allocation, sa_empty).fair == naive_check(
            chores.instance, chores.allocation, sa_empty
        )
