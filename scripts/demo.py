#!/usr/bin/env python3
"""Walk the canned instances through the checkers and solvers and print a
verdict table.  No arguments; everything is deterministic."""

from fractions import Fraction

from fdsi.allocators import sa_efl_allocate, sa_weighted_picking
from fdsi.fairness import Notion, check, is_sim
from fdsi.generators import CANNED, canned
from fdsi.model import is_goods
from fdsi.oracle import brute_force_solve


NOTIONS = (
    Notion("ef1"),
    Notion("ef1", "sa"),
    Notion("ef1", "alpha", Fraction(1, 2)),
    Notion("ef1", "wsa"),
    Notion("efl", "sa"),
    Notion("sa-empty"),
)


def main() -> None:
    for name in CANNED:
        example = canned(name)
        inst = example.instance
        print(f"\n=== {name}  ({inst.n} agents, {inst.m} items) ===")
        if not is_goods(inst):
            print("  chores data: stored only, checkers refuse it")
            continue
        alloc = example.allocation
        verdicts = ", ".join(
            f"{n.label()}={'fair' if check(inst, alloc, n).fair else 'unfair'}"
            for n in NOTIONS
        )
        print(f"  reference allocation: sim={is_sim(inst, alloc).fair}")
        print(f"  verdicts: {verdicts}")
        for n in NOTIONS:
            found = brute_force_solve(inst, n)
            print(f"  exists maximizing {n.label()}: {found is not None}")
        picked = sa_weighted_picking(inst)
        print(f"  picking output: {[sorted(b) for b in picked.bundles]}")
        enveloped = sa_efl_allocate(inst)
        print(f"  envy-graph output: {[sorted(b) for b in enveloped.bundles]}")


if __name__ == "__main__":
    main()
