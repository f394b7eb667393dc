"""Acceptance suite: one test per release criterion, sized and timed as
pinned below.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS/FAIL line per criterion."""

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from fdsi.allocators import sa_efl_allocate, sa_weighted_picking
from fdsi.fairness import BASES, Notion, certify, check, is_sim
from fdsi.generators import (
    RX3CInput,
    canned,
    ef_allocation_exists,
    equitable_partition_solvable,
    exact_cover_solvable,
    gen_alpha_sa,
    gen_ef_embedding,
    gen_mixed_awareness,
    gen_partition_ef1,
    gen_wsa,
    gen_x3c_sa_empty,
    partition_solvable,
)
from fdsi.model import Allocation, make_instance, normalize_impacts
from fdsi.sa_empty import compute_types, solve_sa_empty
from fdsi.oracle import brute_force_count, brute_force_solve
from fdsi.search import enumerate_sim_allocations, exact_solve

from helpers import random_instances, random_sim_allocation


@dataclass(frozen=True)
class AcceptanceConfig:
    existence_runs: int = 1000
    existence_seconds: float = 30.0
    binary_runs: int = 1000
    binary_seconds: float = 30.0
    equivalence_instances: int = 500
    equivalence_seconds: float = 600.0
    partition_max_len: int = 6
    partition_max_weight: int = 8
    reduction_seconds: float = 900.0
    normalization_instances: int = 300
    normalization_seconds: float = 300.0
    lattice_seconds: float = 60.0
    sa_empty_instances: int = 200
    sa_empty_seconds: float = 300.0


CFG = AcceptanceConfig()


class _Criterion:
    def __init__(self, number: int, label: str, budget: float):
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(
            f"[acceptance] criterion {self.number} ({self.label}): "
            f"{status} in {elapsed:.1f}s (budget {self.budget:.0f}s)"
        )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


def test_criterion_1_golden_verdicts():
    with _Criterion(1, "golden verdicts", 1.0):
        ex = canned("wsa-nonexistence")
        inst, alloc = ex.instance, ex.allocation
        assert check(inst, alloc, Notion("ef1", "sa")).fair
        assert not check(inst, alloc, Notion("ef1", "wsa")).fair
        assert not check(inst, alloc, Notion("ef1")).fair
        assert is_sim(inst, alloc).fair
        ex = canned("tef1-vs-ef1")
        assert check(ex.instance, ex.allocation, Notion("tef1")).fair
        assert not check(ex.instance, ex.allocation, Notion("ef1")).fair


def test_criterion_2_guaranteed_existence():
    with _Criterion(2, "guaranteed existence", CFG.existence_seconds):
        count = 0
        for inst in random_instances(
            CFG.existence_runs, 1001, 1, 5, 0, 12, 9, 9, 3
        ):
            picked = sa_weighted_picking(inst)
            assert is_sim(inst, picked).fair
            assert check(inst, picked, Notion("swef1", "sa")).fair
            assert check(inst, picked, Notion("wef1", "sa")).fair
            enveloped = sa_efl_allocate(inst)
            assert is_sim(inst, enveloped).fair
            assert check(inst, enveloped, Notion("efl", "sa")).fair
            count += 1
        assert count >= CFG.existence_runs


def test_criterion_3_binary_equal_valuation_impact():
    with _Criterion(3, "binary v = s picking", CFG.binary_seconds):
        rng = random.Random(1003)
        for _ in range(CFG.binary_runs):
            n, m = rng.randint(1, 5), rng.randint(0, 10)
            b = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
            weights = [rng.randint(1, 3) for _ in range(n)]
            aware = [rng.random() < 0.5 for _ in range(n)]
            inst = make_instance(b, b, weights=weights, aware=aware)
            # weighed as auto weighs picking: by the instance weights under
            # a weighted base, equally otherwise
            by_weights = sa_weighted_picking(inst)
            equal = sa_weighted_picking(inst, weights=(1,) * n)
            for base in ("sef1", "ef1", "efl", "tef1", "wef1", "swef1"):
                alloc = by_weights if Notion(base).rule().weighted else equal
                assert is_sim(inst, alloc).fair
                assert check(inst, alloc, Notion(base)).fair
                assert check(inst, alloc, Notion(base, "sa")).fair


def test_criterion_4_oracle_equivalence():
    with _Criterion(4, "exact search vs brute force", CFG.equivalence_seconds):
        rng = random.Random(1004)
        disagreements = 0
        for k in range(CFG.equivalence_instances):
            n = 2 + (k % 2)
            m = rng.randint(1, 6)
            vals = [[rng.randint(0, 5) for _ in range(m)] for _ in range(n)]
            imps = [[rng.randint(0, 5) for _ in range(m)] for _ in range(n)]
            w = [rng.randint(1, 3) for _ in range(n)]
            inst = make_instance(vals, imps, weights=w)
            profile = tuple(rng.random() < 0.5 for _ in range(n))
            mixed = inst.replace(aware=profile)
            for base in BASES:
                a = exact_solve(inst, Notion(base))
                b = brute_force_solve(inst, Notion(base))
                if (a is None) != (b is None):
                    disagreements += 1
                if a is not None:
                    assert is_sim(inst, a).fair
                    assert check(inst, a, Notion(base)).fair
                a = exact_solve(mixed, Notion(base, "sa"))
                b = brute_force_solve(mixed, Notion(base, "sa"))
                if (a is None) != (b is None):
                    disagreements += 1
        assert disagreements == 0


def _partition_sources():
    for length in range(1, CFG.partition_max_len + 1):
        for weights in combinations_with_replacement(
            range(1, CFG.partition_max_weight + 1), length
        ):
            if sum(weights) % 2 == 0:
                yield weights


def test_criterion_5_reduction_round_trips():
    with _Criterion(5, "reduction round trips", CFG.reduction_seconds):
        # equal-partition embedding, every notion the unmodified gadget serves
        n_sources = 0
        for weights in _partition_sources():
            solvable = partition_solvable(weights)
            gadget = gen_partition_ef1(weights)
            for base in ("ef1", "sef1", "wef1", "swef1", "efl"):
                found = brute_force_solve(gadget, Notion(base)) is not None
                assert found == solvable, (weights, base)
            n_sources += 1
        assert n_sources > 1000

        # one-unaware-agent embedding (needs every weight below half the total)
        half = 0
        for weights in _partition_sources():
            t = sum(weights) // 2
            if any(w >= t for w in weights):
                continue
            gadget = gen_mixed_awareness(weights)
            found = brute_force_solve(gadget, Notion("ef1", "sa")) is not None
            assert found == partition_solvable(weights), weights
            half += 1
        assert half > 300

        # alpha-scaled awareness at alpha = 1/2
        alpha = Fraction(1, 2)
        quarter = 0
        for weights in _partition_sources():
            if len(weights) > 5:  # keep the sweep inside the time budget
                continue
            gadget = gen_alpha_sa(weights, alpha)
            found = (
                brute_force_solve(gadget, Notion("ef1", "alpha", alpha)) is not None
            )
            assert found == partition_solvable(weights), weights
            quarter += 1
        assert quarter > 400

        # proportional-awareness embedding from equitable partition
        wsa_checked = 0
        for weights in combinations_with_replacement(range(1, 5), 10):
            if sum(weights) % 2:
                continue
            t = sum(weights) // 2
            if sum(sorted(weights)[-4:]) >= t:
                continue
            gadget = gen_wsa(weights)
            found = brute_force_solve(gadget, Notion("ef1", "wsa")) is not None
            assert found == equitable_partition_solvable(weights), weights
            wsa_checked += 1
        assert wsa_checked >= 20

        # cover embedding over deterministic 3-regular families
        families = _regular_triple_families(40)
        coverable = [f for f in families if exact_cover_solvable(6, f)]
        uncoverable = [f for f in families if not exact_cover_solvable(6, f)]
        assert coverable and uncoverable
        for fam in coverable[:2] + uncoverable[:2]:
            src = RX3CInput(universe_size=6, triples=fam)
            inst = gen_x3c_sa_empty(src)
            want = exact_cover_solvable(6, fam)
            got = brute_force_solve(inst, Notion("sa-empty")) is not None
            assert got == want, fam
            assert (solve_sa_empty(inst) is not None) == want, fam

        # binary envy-free embedding, exhaustive over the smallest shapes
        for n, m in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
            for flat in product((0, 1), repeat=n * m):
                vals = tuple(tuple(flat[i * m : (i + 1) * m]) for i in range(n))
                solvable = ef_allocation_exists(vals)
                plain = gen_ef_embedding(vals)
                assert (
                    brute_force_solve(plain, Notion("ef1")) is not None
                ) == solvable, vals
                doubled = gen_ef_embedding(vals, tef1=True)
                assert (
                    brute_force_solve(doubled, Notion("tef1")) is not None
                ) == solvable, vals


def _regular_triple_families(need):
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


def test_criterion_6_nonexistence_goldens():
    with _Criterion(6, "non-existence goldens", 5.0):
        assert brute_force_solve(canned("bill-joe").instance, Notion("ef1")) is None
        assert (
            brute_force_solve(
                canned("unaware-nonexistence").instance, Notion("ef1", "sa")
            )
            is None
        )
        assert (
            brute_force_solve(
                canned("alpha-nonexistence").instance,
                Notion("ef1", "alpha", Fraction(1, 2)),
            )
            is None
        )
        assert (
            brute_force_solve(canned("wsa-nonexistence").instance, Notion("ef1", "wsa"))
            is None
        )


def _exists_fair_maximizing_full_scan(inst, notion) -> bool:
    """Independent route: scan all n**m allocations, filter by both checks."""
    for owners in product(range(inst.n), repeat=inst.m):
        alloc = Allocation.from_assignment(inst.n, owners)
        if is_sim(inst, alloc).fair and check(inst, alloc, notion).fair:
            return True
    return False


def test_criterion_7_normalization_invariance():
    with _Criterion(7, "normalization invariance", CFG.normalization_seconds):
        checked = 0
        for inst in random_instances(
            CFG.normalization_instances, 1007, 1, 3, 0, 5, 3, 3, 2
        ):
            norm = normalize_impacts(inst)
            for base in BASES:
                raw = brute_force_solve(inst, Notion(base)) is not None
                cooked = brute_force_solve(norm, Notion(base)) is not None
                assert raw == cooked, (checked, base)
                if inst.n**inst.m <= 512:
                    # second, fully independent route over all allocations
                    assert raw == _exists_fair_maximizing_full_scan(
                        inst, Notion(base)
                    )
            checked += 1
        assert checked >= CFG.normalization_instances


def test_criterion_8_alpha_lattice():
    with _Criterion(8, "alpha monotonicity", CFG.lattice_seconds):
        rng = random.Random(1008)
        grid = [
            Fraction(0),
            Fraction(1, 4),
            Fraction(1, 3),
            Fraction(1, 2),
            Fraction(2, 3),
            Fraction(3, 4),
            Fraction(1),
        ]
        for inst in random_instances(120, 1009, 2, 4, 1, 6, 5, 5):
            alloc = random_sim_allocation(inst, rng)
            verdicts = [
                check(inst, alloc, Notion("ef1", "alpha", a)).fair for a in grid
            ]
            assert all(x <= y for x, y in zip(verdicts, verdicts[1:]))
            assert verdicts[0] == check(inst, alloc, Notion("ef1")).fair
            assert verdicts[-1] == check(inst, alloc, Notion("ef1", "sa")).fair


def test_criterion_9_sa_empty_solver():
    with _Criterion(9, "strict-domination solver", CFG.sa_empty_seconds):
        kept = 0
        stream = random_instances(
            CFG.sa_empty_instances * 10, 1010, 2, 6, 1, 6, 3, 1
        )
        for inst in stream:
            types = compute_types(inst)
            if len(types.item_types) > 4:
                continue
            kept += 1
            fpt = solve_sa_empty(inst)
            brute = brute_force_solve(inst, Notion("sa-empty"))
            assert (fpt is None) == (brute is None)
            if fpt is not None:
                assert certify(inst, fpt, Notion("sa-empty")).fair
            clones = {
                i for cls in types.agent_types if len(cls) > 1 for i in cls
            }
            if brute is not None:
                for i in clones:
                    assert brute.bundles[i] == frozenset()
            if clones and brute_force_count(inst, None) <= 2000:
                for alloc in enumerate_sim_allocations(inst):
                    if check(inst, alloc, Notion("sa-empty")).fair:
                        for i in clones:
                            assert alloc.bundles[i] == frozenset()
            if kept == CFG.sa_empty_instances:
                break
        assert kept >= CFG.sa_empty_instances
