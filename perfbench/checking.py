"""Answer checking, run after the timed phase and never timed.

Positive answers are re-checked with the reference checkers
(``fairness.is_sim`` and ``fairness.check``).  Negative answers are
confirmed by the source-problem oracle of the gadget they came from and, when
the candidate count is small, by ``search.brute_force_solve``.  ``--count``
results are compared with a count made here, by an odometer over the
maximizer columns that shares no code with ``fdsi.search``.
"""

from __future__ import annotations

import json
import math
from itertools import product

from fdsi import generators, serialize
from fdsi.fairness import check, is_sim
from fdsi.model import Allocation, Instance, is_complete, validate_allocation
from fdsi.search import brute_force_solve

# Negatives without a source oracle are confirmed by brute force up to here.
BRUTE_CONFIRM_CAP = 200_000


class WrongAnswer(Exception):
    pass


def maximizer_columns(inst: Instance) -> list[list[int]]:
    cols = []
    for g in range(inst.m):
        col = [inst.impacts[i][g] for i in range(inst.n)]
        top = max(col)
        cols.append([i for i, s in enumerate(col) if s == top])
    return cols


def candidate_count(inst: Instance) -> int:
    return math.prod(len(c) for c in maximizer_columns(inst))


def independent_count(inst: Instance, notion) -> int:
    total = 0
    for owners in product(*maximizer_columns(inst)):
        bundles: list[set[int]] = [set() for _ in range(inst.n)]
        for g, i in enumerate(owners):
            bundles[i].add(g)
        if check(inst, Allocation(tuple(frozenset(b) for b in bundles)), notion).fair:
            total += 1
    return total


def source_verdict(source: tuple) -> bool:
    kind = source[0]
    if kind == "partition":
        return generators.partition_solvable(source[1])
    if kind == "equitable":
        return generators.equitable_partition_solvable(source[1])
    if kind == "x3c":
        return generators.exact_cover_solvable(source[1], source[2])
    if kind == "ef":
        return generators.ef_allocation_exists(source[1])
    raise ValueError(f"unknown source problem {kind!r}")


def _fair_allocation(inst: Instance, notion, obj) -> Allocation:
    alloc = serialize.allocation_from_obj(inst, obj)
    if validate_allocation(inst, alloc) or not is_complete(inst, alloc):
        raise WrongAnswer("returned allocation is malformed or incomplete")
    if not is_sim(inst, alloc).fair:
        raise WrongAnswer("returned allocation is not impact maximizing")
    if not check(inst, alloc, notion).fair:
        raise WrongAnswer(f"returned allocation fails {notion.label()}")
    return alloc


def verdict(call, inst: Instance, code: int, stdout: str, alloc_text: str | None, flip: bool = False):
    """Check one answer; return the confirmed verdict (True for positive),
    or the count for ``--count``.  Raises :class:`WrongAnswer`.

    ``flip`` inverts the expected verdict, which must make the check fail;
    the benchmark's self-test uses it.
    """
    if call.kind == "count":
        want = independent_count(inst, call.notion)
        got = json.loads(stdout)["count"] if code == 0 else None
        if flip:
            want += 1
        if got != want:
            raise WrongAnswer(f"count {got}, independent count {want}")
        return want
    if call.kind == "check":
        alloc = serialize.allocation_from_obj(inst, json.loads(alloc_text))
        sim = is_sim(inst, alloc).fair
        fair = check(inst, alloc, call.notion).fair
        out = json.loads(stdout)
        want_code = 0 if fair != flip else 1
        if out["sim"] != sim or out["fair"] != fair or code != want_code:
            raise WrongAnswer(f"check said {out}, exit {code}; reference sim={sim} fair={fair}")
        return fair
    positive = code == 0
    if positive:
        _fair_allocation(inst, call.notion, json.loads(stdout))
    expected = None
    if call.source is not None:
        expected = source_verdict(call.source)
    elif not positive:
        if candidate_count(inst) > BRUTE_CONFIRM_CAP:
            raise WrongAnswer("negative answer too large to confirm by brute force")
        expected = brute_force_solve(inst, call.notion) is not None
    if flip:
        expected = not positive
    if expected is not None and expected != positive:
        raise WrongAnswer(f"answered {'found' if positive else 'none'}, oracle says {expected}")
    if not positive and call.source is not None and candidate_count(inst) <= BRUTE_CONFIRM_CAP:
        if brute_force_solve(inst, call.notion) is not None:
            raise WrongAnswer("answered none, brute force finds an allocation")
    return positive
