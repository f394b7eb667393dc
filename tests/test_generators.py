import hashlib
import warnings
from fractions import Fraction

import pytest

from fdsi.cli import main
from fdsi.generators import (
    CANNED,
    PARTITION_SUM_CAP,
    RX3CInput,
    canned,
    ef_allocation_exists,
    equitable_partition_solvable,
    exact_cover_solvable,
    gen_alpha_sa,
    gen_ef_embedding,
    gen_mixed_awareness,
    gen_partition_ef1,
    gen_random,
    gen_wsa,
    gen_x3c_sa_empty,
    partition_solvable,
    validate_rx3c,
)
from fdsi.model import ValidationError
from fdsi.serialize import instance_from_obj, instance_to_obj

from helpers import randint_mismatches


class TestPartitionGadget:
    def test_table_values(self):
        inst = gen_partition_ef1((1, 2, 3))
        assert inst.items == ("G1", "G2", "g1", "g2", "g3")
        assert inst.valuations == ((0, 3, 1, 2, 3), (3, 0, 1, 2, 3))
        assert inst.impacts == ((1, 0, 1, 1, 1), (0, 1, 1, 1, 1))

    def test_odd_sum_rejected(self):
        with pytest.raises(ValidationError):
            gen_partition_ef1((1, 2))

    def test_bad_weights_rejected(self):
        with pytest.raises(ValidationError):
            gen_partition_ef1((0, 2))
        with pytest.raises(ValidationError):
            gen_partition_ef1(())


class TestMixedGadget:
    def test_table_values(self):
        inst = gen_mixed_awareness((2, 2, 2))
        assert inst.m == 6
        assert inst.valuations == ((3, 3, 3, 2, 2, 2), (0, 0, 3, 2, 2, 2))
        assert inst.impacts == ((0, 0, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1))
        assert inst.aware == (False, True)

    def test_heavy_weight_rejected(self):
        # with a weight at or above half the total the embedding equivalence
        # breaks, so such multisets are refused
        with pytest.raises(ValidationError):
            gen_mixed_awareness((1, 1, 4))
        with pytest.raises(ValidationError):
            gen_mixed_awareness((1, 2, 3))


class TestAlphaGadget:
    def test_integral_realization(self):
        inst = gen_alpha_sa((1, 2, 3), Fraction(1, 2))
        # small items carry impact 2p = 2, pinned items q-p = 1 and 2(q-p) = 2
        assert inst.impacts == ((1, 1, 0, 2, 2, 2), (0, 0, 2, 2, 2, 2))
        assert inst.valuations == ((0, 0, 3, 1, 2, 3), (3, 3, 3, 1, 2, 3))

    def test_boundaries_rejected(self):
        with pytest.raises(ValidationError):
            gen_alpha_sa((1, 1), Fraction(0))
        with pytest.raises(ValidationError):
            gen_alpha_sa((1, 1), Fraction(1))

    def test_float_alpha_rejected(self):
        # 0.1 would become 3602879701896397/2**55 and blow up the impacts
        for bad in (0.1, 0.5, True):
            with pytest.raises(ValidationError):
                gen_alpha_sa((1, 1), bad)
            with pytest.raises(ValidationError):
                canned("alpha-nonexistence", alpha=bad)
        assert gen_alpha_sa((1, 1), "1/2") == gen_alpha_sa((1, 1), Fraction(1, 2))

    @pytest.mark.parametrize(
        "alpha",
        [Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4), Fraction(2, 5)],
    )
    def test_round_trip_at_several_thresholds(self, alpha):
        from itertools import combinations_with_replacement

        from fdsi.fairness import Notion
        from fdsi.oracle import brute_force_solve

        for length in (1, 2, 3):
            for weights in combinations_with_replacement(range(1, 6), length):
                if sum(weights) % 2:
                    continue
                inst = gen_alpha_sa(weights, alpha)
                found = (
                    brute_force_solve(inst, Notion("ef1", "alpha", alpha)) is not None
                )
                assert found == partition_solvable(weights), (alpha, weights)


class TestWsaGadget:
    def test_shape(self):
        weights = (2,) * 10
        inst = gen_wsa(weights)
        assert inst.m == 12
        assert inst.valuations[0] == (0, 10) + weights
        assert inst.valuations[1] == (10, 0) + weights
        assert inst.impacts[0] == (1, 0) + (1,) * 10
        assert inst.impacts[1] == (0, 1) + (1,) * 10

    def test_small_side_rejected(self):
        with pytest.raises(ValidationError):
            gen_wsa((1, 1, 1, 1, 1, 1, 1, 1))  # L = 4 is not allowed

    def test_promise_checked(self):
        with pytest.raises(ValidationError):
            gen_wsa((1, 1, 1, 1, 1, 1, 1, 1, 1, 3))


class TestX3CGadget:
    RELAXED = ({0, 1, 2}, {3, 4, 5}, {0, 1, 3}, {2, 4, 5}, {1, 2, 4}, {0, 3, 5})

    def test_matrix_shape(self):
        src = RX3CInput(universe_size=6, triples=self.RELAXED)
        inst = gen_x3c_sa_empty(src)
        assert inst.n == 8 and inst.m == 8
        assert all(v == 1 for row in inst.valuations for v in row)
        # guards: 1 on every element item, 0 on dummies
        assert inst.impacts[6] == (1, 1, 1, 1, 1, 1, 0, 0)
        assert inst.impacts[6] == inst.impacts[7]
        # set agents: their triple plus every dummy
        assert inst.impacts[0] == (1, 1, 1, 0, 0, 0, 1, 1)

    def test_strict_validation(self):
        src = RX3CInput(universe_size=6, triples=self.RELAXED)
        assert validate_rx3c(src, strict=False) == []
        assert validate_rx3c(src, strict=True) != []
        with pytest.raises(ValidationError):
            gen_x3c_sa_empty(src, strict=True)

    def test_duplicate_triples_rejected(self):
        src = RX3CInput(universe_size=3, triples=({0, 1, 2}, {0, 1, 2}, {0, 1, 2}))
        with pytest.raises(ValidationError):
            gen_x3c_sa_empty(src)


class TestEfEmbedding:
    def test_item_counts(self):
        inst = gen_ef_embedding(((1, 0), (0, 1)))
        assert inst.m == 4
        inst2 = gen_ef_embedding(((1, 0), (0, 1)), tef1=True)
        assert inst2.m == 6

    def test_special_item_rows(self):
        inst = gen_ef_embedding(((1, 0), (0, 1)))
        # agent 1: standard values, then own special 0, other's special 1
        assert inst.valuations[0] == (1, 0, 0, 1)
        assert inst.valuations[1] == (0, 1, 1, 0)
        assert inst.impacts[0] == (1, 1, 1, 0)
        assert inst.impacts[1] == (1, 1, 0, 1)

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError):
            gen_ef_embedding(((2, 0),))


class TestCanned:
    def test_bill_joe_values(self):
        ex = canned("bill-joe")
        assert ex.instance.impacts == ((10, 10), (1, 1))
        assert ex.instance.agents == ("bill", "joe")
        assert ex.allocation.bundles == (frozenset({0, 1}), frozenset())

    def test_wsa_example_table(self):
        ex = canned("wsa-nonexistence")
        assert ex.instance.valuations == ((1, 5, 5), (5, 5, 1))
        assert ex.instance.impacts == ((1, 1, 0), (0, 1, 1))

    def test_unknown_rejected(self):
        with pytest.raises(ValidationError):
            canned("nope")

    def test_round_trip_serialization(self):
        for name in CANNED:
            inst = canned(name).instance
            assert instance_from_obj(instance_to_obj(inst)) == inst

    def test_chores_data_only(self):
        ex = canned("chores-roundrobin")
        assert ex.instance.valuations[0][0] == -100
        assert ex.allocation.bundles == (frozenset({0, 1}), frozenset({2, 3, 4}))


class TestRandom:
    def test_deterministic(self):
        a = gen_random(3, 4, 5, 5, 2, seed=42)
        b = gen_random(3, 4, 5, 5, 2, seed=42)
        assert a == b
        assert a != gen_random(3, 4, 5, 5, 2, seed=43)

    def test_single_agent_trivially_satisfiable(self):
        from fdsi.fairness import BASES, Notion
        from fdsi.oracle import brute_force_solve

        inst = gen_random(1, 5, 4, 4, 1, seed=7)
        for base in BASES:
            assert brute_force_solve(inst, Notion(base)) is not None

    def test_binary_parameters(self):
        inst = gen_random(3, 6, 1, 1, 1, seed=8)
        assert all(v in (0, 1) for row in inst.valuations for v in row)
        assert all(s in (0, 1) for row in inst.impacts for s in row)

    def test_same_draws_as_randint(self):
        # same entries and the same number of Mersenne words as the randint
        # form, so every seed gives the instance it gave before
        assert randint_mismatches() == []

    def test_negative_seed_is_its_absolute_value(self):
        # CPython seeds an int by |seed|
        assert gen_random(2, 4, 9, 2, 1, 5) == gen_random(2, 4, 9, 2, 1, -5)

    # sha256 of `fdsi gen random ARGS` stdout, taken with the randint form
    _PINNED_TEXTS = {
        "--agents 8 --items 600 --v-max 1 --s-max 1 --seed 1":
            "50a9baecf657cf91f7c5699339a2a7d1bf1fb7feba49f9c630b415948b4f0540",
        "--agents 3 --items 8 --v-max 4294967296 --s-max 0 --w-max 3 --seed 5":
            "c3bdde5a9a22cbad474589b06a39537311ad46f234d09e73c2b91cb7b2f7cf33",
    }

    @pytest.mark.parametrize("args", sorted(_PINNED_TEXTS))
    def test_pinned_texts(self, args, capsys):
        assert main(["gen", "random", *args.split()]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == self._PINNED_TEXTS[args]

    @pytest.mark.parametrize("position", range(5))
    @pytest.mark.parametrize("bad", [2.5, 2.0, True])
    def test_sizes_must_be_ints(self, position, bad):
        # a float or bool size is refused up front, the same on every
        # Python, not left to randint's version-dependent checks
        sizes = [3, 4, 5, 5, 2]
        sizes[position] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="must be an int"):
                gen_random(*sizes, seed=1)

    @pytest.mark.parametrize("bad", [None, "x", 1.5, True])
    def test_seed_must_be_an_int(self, bad):
        # None would draw a fresh seed from the OS, so the same call would
        # give a different instance each time
        with pytest.raises(ValidationError, match="seed must be an int"):
            gen_random(2, 3, 9, 9, 1, bad)


class TestSourceOracles:
    def test_partition(self):
        assert partition_solvable((1, 1, 2))
        assert not partition_solvable((1, 1, 4))
        assert not partition_solvable((1, 2))  # odd sum
        # the bitset is as wide as the weight sum, so the count is free and
        # the sum is capped
        assert partition_solvable((1,) * 40)
        assert not partition_solvable((4,) * 30 + (2,))  # odd half of an even sum
        half = PARTITION_SUM_CAP // 2
        assert partition_solvable((half, half))
        with pytest.raises(ValidationError, match="weight sum"):
            partition_solvable((half, half, 2))
        with pytest.raises(ValidationError, match="weight sum"):
            partition_solvable((10**9,) * 10)
        with pytest.raises(ValidationError, match="non-negative"):
            partition_solvable((10**10, -(10**10)))

    def test_partition_matches_exhaustive(self):
        from itertools import combinations_with_replacement

        def exhaustive(W):
            total = sum(W)
            if total % 2:
                return False
            target = total // 2
            from itertools import combinations

            return any(
                sum(c) == target
                for r in range(len(W) + 1)
                for c in combinations(W, r)
            )

        for W in combinations_with_replacement(range(1, 7), 4):
            assert partition_solvable(W) == exhaustive(W)

    def test_equitable(self):
        assert equitable_partition_solvable((1, 1, 1, 1))
        assert not equitable_partition_solvable((2, 2, 2, 2, 2, 2, 2, 4, 4, 4))
        assert not equitable_partition_solvable((1, 1, 1))  # odd size
        # exhaustive, so it keeps its count cap
        with pytest.raises(ValidationError):
            equitable_partition_solvable((1,) * 12)

    def test_exact_cover(self):
        assert exact_cover_solvable(6, ({0, 1, 2}, {3, 4, 5}, {0, 3, 5}))
        assert not exact_cover_solvable(6, ({0, 1, 2}, {0, 3, 4}, {0, 4, 5}))

    def test_ef_exists(self):
        assert ef_allocation_exists(((1, 0), (0, 1)))
        assert not ef_allocation_exists(((1,), (1,)))
