import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsi import model
from fdsi.fairness import Notion, Sums, Verdict, Witness, check, is_sim
from fdsi.generators import CannedExample, RX3CInput, canned, gen_random
from fdsi.model import (
    Allocation,
    Frozen,
    IncompleteAllocationError,
    Instance,
    ValidationError,
    all_maximizers,
    impact_maximizers,
    is_goods,
    make_instance,
    normalize_impacts,
    total_social_impact,
    validate_allocation,
)
from fdsi.sa_empty import TypePartition, compute_types
from fdsi.search import brute_force_solve, exact_solve

from helpers import impact_of, random_instances


WSA = canned("wsa-nonexistence").instance
BILL_JOE = canned("bill-joe")


class TestBundleArithmetic:
    # bundle sums v_i(A_j) and s_i(A_j), packed by fairness.Sums from an
    # item -> owner map, and read back through the (shift, mask) of a field

    SA = Sums(WSA, Notion("ef1", "sa"))

    def test_empty_bundle_is_zero(self):
        assert self.SA.pack([None] * WSA.m) == 0

    def test_wsa_example_values(self):
        # items are (g1, g2, g3); agent 1 sees bundle {g3, g2} as 5 + 5
        P = self.SA.pack([0, 1, 1])
        (s01, m01), (s00, m00) = self.SA.V[0][1], self.SA.V[0][0]
        assert P >> s01 & m01 == 10
        assert P >> s00 & m00 == 1

    def test_wsa_example_impacts(self):
        P = self.SA.pack([0, 1, 1])
        (s11, m11), (s01, m01) = self.SA.S[1][1], self.SA.S[0][1]
        assert P >> s11 & m11 == 2
        assert P >> s01 & m01 == 1

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

    def test_all_maximizers_once_per_instance(self, monkeypatch):
        # asked for again, an instance's sets are not computed again; an
        # equal instance built apart, or a replaced one, gets its own
        calls = []
        real = model.impact_maximizers
        monkeypatch.setattr(model, "impact_maximizers", lambda inst, g: calls.append(g) or real(inst, g))
        inst = make_instance(((1, 2), (3, 4)), ((5, 1), (5, 2)))
        first = all_maximizers(inst)
        assert first == (frozenset({0, 1}), frozenset({1}))
        assert all_maximizers(inst) is first and calls == [0, 1]
        assert all_maximizers(inst.replace(impacts=((1, 2), (5, 2)))) == (frozenset({1}), frozenset({0, 1}))
        assert all_maximizers(make_instance(((1, 2), (3, 4)), ((5, 1), (5, 2)))) == first
        assert all_maximizers(inst) == first and len(calls) == 8


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


class _PickledInstance:
    """Pickles as the :class:`Instance` of the given fields, as a hand-made
    pickle would."""

    def __init__(self, fields):
        self.fields = fields

    def __reduce__(self):
        return Instance, tuple(self.fields.values())


class TestValidation:
    def test_well_formed(self):
        assert Instance(*(getattr(WSA, f) for f in Instance.__slots__)) == WSA
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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("weights", (0, -1), "weights must be integers >= 1"),
            ("weights", (1, True), "weights must be integers >= 1"),
            ("aware", (True,), "aware has 1 entries, expected 2"),
            ("agents", ("a", "a"), "duplicate agent ids"),
            ("items", ("g1",), "valuations row 0 has 2 entries, expected 1"),
            ("valuations", ((1, 2), (3, 4.0)), "valuations row 1 contains a non-integer entry"),
            ("impacts", ((1, 0), (0, -1)), "impacts row 1 has a negative entry"),
            ("impacts", ((1, 0),), "impacts has 1 rows, expected 2"),
        ],
    )
    def test_every_construction_validates(self, field, value, message):
        # the constructor owns the invariants, so replace, direct construction
        # and unpickling cannot build an invalid instance
        inst = make_instance(((1, 2), (3, 4)), ((1, 0), (0, 1)))
        fields = {f: getattr(inst, f) for f in Instance.__slots__}
        fields[field] = value
        with pytest.raises(ValidationError, match=message):
            inst.replace(**{field: value})
        with pytest.raises(ValidationError, match=message):
            Instance(**fields)
        with pytest.raises(ValidationError, match=message):
            pickle.loads(pickle.dumps(_PickledInstance(fields)))

    def test_invalid_instance_never_reaches_a_solver(self):
        inst = make_instance(((1, 2), (3, 4)), ((1, 0), (0, 1)))
        with pytest.raises(ValidationError):
            exact_solve(inst.replace(weights=(0, -1)), Notion("wef1"))
        with pytest.raises(ValidationError):
            check(inst.replace(aware=(True,)), Allocation([{0}, {1}]), Notion("ef1", "sa"))

    @pytest.mark.parametrize("item", ["g1", 1.0, True, None, (0,)])
    def test_non_integer_item_rejected(self, item):
        alloc = Allocation(({item}, {0, 1, 2} - {item}))
        errors = validate_allocation(WSA, alloc)
        assert errors == ["bundle of agent 0 holds a non-integer item"]
        for decide in (lambda: is_sim(WSA, alloc), lambda: check(WSA, alloc, Notion("ef1"))):
            with pytest.raises(ValidationError, match="non-integer item"):
                decide()

    def test_goods_flag(self):
        assert not is_goods(canned("chores-roundrobin").instance)
        assert is_goods(WSA)


# per value class: a builder (called twice for a field-equal twin), a field to
# replace, the value given and the value __init__ stores for it
_VALUE_CASES = {
    "Instance": (
        lambda: make_instance(((1, 2), (3, 4)), ((1, 0), (0, 1))),
        "aware", [1, 0], (True, False),
    ),
    "Allocation": (
        lambda: Allocation([{0}, set()]),
        "bundles", [[1], {0}], (frozenset({1}), frozenset({0})),
    ),
    "TypePartition": (
        lambda: compute_types(make_instance(((1, 1), (1, 1)), ((1, 0), (0, 1)))),
        "agent_types", ((0, 1),), ((0, 1),),
    ),
    "Notion": (
        lambda: Notion("ef1", "alpha", Fraction(1, 2)),
        "alpha", "1/3", Fraction(1, 3),
    ),
    "Witness": (
        lambda: Witness("ef1", observer=0, target=1, item=2),
        "item", None, None,
    ),
    "Verdict": (
        lambda: Verdict(False, Witness("sim", item=0)),
        "fair", True, True,
    ),
    "RX3CInput": (
        lambda: RX3CInput(universe_size=3, triples=[[0, 1, 2]]),
        "triples", [(2, 1, 0), [3, 4, 5]], (frozenset({0, 1, 2}), frozenset({3, 4, 5})),
    ),
    "CannedExample": (
        lambda: canned("bill-joe"),
        "allocation", None, None,
    ),
}
_REPR_NAMES = {
    "Allocation": Allocation, "CannedExample": CannedExample, "Fraction": Fraction,
    "Instance": Instance, "Notion": Notion, "RX3CInput": RX3CInput,
    "TypePartition": TypePartition, "Verdict": Verdict, "Witness": Witness,
}


@pytest.mark.parametrize("name", _VALUE_CASES)
class TestValueClasses:
    def test_class_and_slots(self, name):
        value = _VALUE_CASES[name][0]()
        assert type(value).__name__ == name and isinstance(value, Frozen)
        assert not hasattr(value, "__dict__")

    def test_equality_and_hash_by_value(self, name):
        build, field, new, _ = _VALUE_CASES[name]
        a, b = build(), build()
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != a.replace(**{field: new})

    def test_equality_only_within_the_class(self, name):
        a = _VALUE_CASES[name][0]()
        cls = type(a)
        # a class with the same fields and constructor, but another class
        twin_cls = type("Twin", (Frozen,), {"__slots__": cls.__slots__, "__init__": cls.__init__})
        twin = twin_cls(*(getattr(a, f) for f in cls.__slots__))
        assert a != twin and twin != a
        for other, (build, *_) in _VALUE_CASES.items():
            if other != name:
                assert a != build()
        assert a != tuple(getattr(a, f) for f in cls.__slots__)

    def test_assignment_and_deletion_raise(self, name):
        a = _VALUE_CASES[name][0]()
        before = repr(a)
        for field in type(a).__slots__:
            with pytest.raises(AttributeError):
                setattr(a, field, None)
            with pytest.raises(AttributeError):
                delattr(a, field)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert repr(a) == before

    def test_repr_by_field_values(self, name):
        a = _VALUE_CASES[name][0]()
        fields = type(a).__slots__
        assert repr(a).startswith(f"{name}({fields[0]}=")
        assert eval(repr(a), dict(_REPR_NAMES)) == a

    def test_pickle_and_copy_round_trips(self, name):
        a = _VALUE_CASES[name][0]()
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            b = pickle.loads(pickle.dumps(a, protocol))
            assert type(b) is type(a) and b == a
        for b in (copy.copy(a), copy.deepcopy(a)):
            assert type(b) is type(a) and b == a

    def test_replace_reruns_init(self, name):
        build, field, new, stored = _VALUE_CASES[name]
        a = build()
        b = a.replace(**{field: new})
        assert type(b) is type(a) and getattr(b, field) == stored
        for other in type(a).__slots__:
            if other != field:
                assert getattr(b, other) == getattr(a, other)
        assert a == build()  # the original is untouched
        assert a.replace() == a
        with pytest.raises(TypeError):
            a.replace(no_such_field=1)


class TestValueClassContracts:
    def test_positional_keyword_and_defaults(self):
        assert Notion("ef1") == Notion(base="ef1", awareness=None, alpha=None)
        assert Witness("r") == Witness(reason="r", observer=None, target=None, item=None)
        assert Verdict(True) == Verdict(fair=True, witness=None)
        assert Allocation([[0]]) == Allocation(bundles=[[0]])
        assert RX3CInput(3, [[0, 1, 2]]) == RX3CInput(universe_size=3, triples=[[0, 1, 2]])

    def test_reprs(self):
        assert repr(Verdict(True)) == "Verdict(fair=True, witness=None)"
        assert repr(Witness("sim", item=0)) == (
            "Witness(reason='sim', observer=None, target=None, item=0)"
        )
        assert repr(Notion("ef1", "alpha", "1/2")) == (
            "Notion(base='ef1', awareness='alpha', alpha=Fraction(1, 2))"
        )

    @pytest.mark.parametrize("flags", [["no", "no"], [2, 1], [1.0, True], [None, False]])
    def test_awareness_flags_are_bools_or_0_or_1(self, flags):
        # bool() would read every one of these as a flag; none of them is one
        with pytest.raises(ValidationError, match="aware flags must be booleans"):
            make_instance(((1, 2), (3, 4)), ((1, 0), (0, 1)), aware=flags)

    def test_instance_replace_normalises_awareness(self):
        inst = make_instance(((1, 2), (3, 4)), ((1, 0), (0, 1)))
        mixed = inst.replace(aware=[1, 0])
        assert mixed.aware == (True, False)
        assert all(type(flag) is bool for flag in mixed.aware)
        assert mixed.valuations == inst.valuations and inst.aware == (True, True)

    def test_replace_revalidates(self):
        with pytest.raises(ValidationError):
            Notion("ef1", "alpha", 1).replace(awareness="sa")
        assert Notion("ef1", "alpha", 1).replace(awareness="sa", alpha=None) == Notion("ef1", "sa")

    def test_hash_matches_field_tuple(self):
        # hash by the tuple of field values, as for a frozen dataclass, so
        # sets and dicts of values keep their order
        assert hash(Notion("ef1", "sa")) == hash(("ef1", "sa", None))
        bundles = (frozenset({0}), frozenset())
        assert hash(Allocation(bundles)) == hash((bundles,))
