"""Brute-force oracle: the ground truth, independent of the state walk.

It scans candidate owner tuples in ``itertools.product`` order
(``model.candidate_columns``: per item, the impact maximizers ascending, or
every agent without the impact restriction), from the bundle sums that
``fairness.decider`` reads packed into one int as ``fairness.Sums`` lays them
out (its own layout, which shares nothing with ``search._Layout``).  Those
sums are additive over items, so ``_scan`` splits the items into a head and
a tail (a meet in the middle, as in Horowitz and Sahni's sorted halves) and
decides all the tails of one head at once, as a bit set.  Per ordered pair,
every test of the notion that is linear in the sums (envy, the removal test
with ``fairness.REMOVALS`` removals, an ``sa``/``alpha`` excuse, the
``sa-empty`` impact test) compares a key of the tail with a threshold the
head sets, so the tails sorted by key once give the tails meeting any
threshold by one bisect.  The tails the bit sets cannot settle (``efl``, and
``sef1`` and ``swef1`` past two agents, with an envious pair; ``wsa``'s
bilinear excuse) go one by one through the same decider that ``check``
uses.  It builds an :class:`Allocation` only for the answer it returns.
``brute_force_solve`` and ``brute_force_count`` share that one scan, and the
candidate cap bounds the candidate set on every path, ``notion=None``
included.

The walk (``search``) and the oracle import nothing of each other, so a
``brute`` call or an alpha/wsa solve compiles no walk, and an exact solve no
oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import permutations, product
from operator import getitem

from .fairness import (
    EXACT_REMOVAL,
    REMOVALS,
    SA_EMPTY,
    TARGET_BASES,
    Notion,
    Sums,
    decider,
)
from .model import (
    Allocation,
    BudgetExceededError,
    Instance,
    candidate_columns,
    require_budget,
    require_goods,
)

DEFAULT_BRUTE_CAP = 10**7

_bit = (1).__lshift__


def _at_least(keys: list[int]):
    """``above(h)``: the bit set of the tails whose key is at least h (bit t
    for the t-th tail).  The tails are sorted by key once, so a threshold is
    one bisect; the bit set of every ``stride``-th suffix of that order is
    kept, at most 257 of them, and at most ``stride - 1`` bits join it."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranked = [keys[t] for t in order]
    stride = 1 + len(keys) // 256
    suffix = [0] * (-(-len(keys) // stride) + 1)
    for b in reversed(range(len(suffix) - 1)):
        suffix[b] = suffix[b + 1] | sum(map(_bit, order[b * stride:(b + 1) * stride]))

    def above(h: int) -> int:
        p = bisect_left(ranked, h)
        b = -(-p // stride)
        return suffix[b] | sum(map(_bit, order[p:b * stride]))

    return above


def _largest(row, owners, j: int, first: int = 0) -> int:
    """The largest entry of ``row`` at an item that ``owners`` (the owners of
    items first, first + 1, ...) gives j, or 0."""
    return max((row[g] for g, o in enumerate(owners, first) if o == j), default=0)


def _pair_tests(inst: Instance, notion: Notion, sums: Sums, k: int, tails, packed) -> list:
    """Per ordered pair (i, j), i != j, ``test(P, head)``: the bit sets of the
    tails with which the candidate ``head + tail`` surely passes the pair,
    and with which it may, from the head's packed sums P.

    Per tail the pair's keys are sorted once (``_at_least``), so each
    threshold the head sets is one bisect: envy-freeness, d >= e with
    d = v_i(T_i) * w_j - v_i(T_j) * w_i and e the head's v_i(H_j) * w_i -
    v_i(H_i) * w_j; the removal test with the largest removal in the head or
    in the tail (``fairness.REMOVALS``); an ``sa``/``alpha`` excuse, and
    under ``sa-empty`` the tails that give j nothing.  Where the removal test
    is not the base (``efl``, and ``sef1``/``swef1`` past two agents) only
    an envy-free or excused pair surely passes, and under ``wsa``, whose
    excuse is bilinear, an aware observer's pair may pass with every tail.
    The weights, the observers that may be excused and the excuse ratio are
    the notion's own (``Notion.weights``, ``excusable``, ``ratio``); under
    ``sa-empty`` every observer's impact test is an excuse at ratio 1/1.
    """
    base = notion.base
    sa_empty, every = base == SA_EMPTY, (1 << len(tails)) - 1
    exact = sa_empty or base in EXACT_REMOVAL or base in TARGET_BASES and inst.n == 2
    wt = notion.weights(inst)
    excusable = (True,) * inst.n if sa_empty else notion.excusable(inst)
    p, q = notion.ratio()

    def field(shift_mask):
        shift, mask = shift_mask
        return [P >> shift & mask for P in packed]

    def test_of(i: int, j: int):
        (s_own, m_own), (s_oth, m_oth) = sums.V[i][i], sums.V[i][j]
        (s_ij, m_ij), (s_jj, m_jj) = sums.S[i][j], sums.S[j][j]
        wi, wj, row = wt[i], wt[j], inst.valuations[i]
        excuse = excusable[i] and notion.awareness != "wsa" and _at_least(
            [p * b - q * a for a, b in zip(field(sums.S[i][j]), field(sums.S[j][j]))]
        )
        if sa_empty:
            empty = sum(1 << t for t, tail in enumerate(tails) if j not in tail)

            def test(P: int, head: tuple):
                passed = excuse(1 - p * (P >> s_jj & m_jj) + q * (P >> s_ij & m_ij))
                passed |= 0 if j in head else empty
                return passed, passed

            return test
        kw = REMOVALS[base] * wi
        d = [a * wj - b * wi for a, b in zip(field(sums.V[i][i]), field(sums.V[i][j]))]
        envy_free = _at_least(d)
        removal = kw and _at_least([x + kw * _largest(row, t, j, k) for x, t in zip(d, tails)])
        bilinear = notion.awareness == "wsa" and excusable[i]

        def test(P: int, head: tuple):
            e = (P >> s_oth & m_oth) * wi - (P >> s_own & m_own) * wj
            passed = envy_free(e - kw * _largest(row, head, j)) | removal(e) if kw else envy_free(e)
            sure = passed if exact else envy_free(e)
            if excuse:
                excused = excuse(1 - p * (P >> s_jj & m_jj) + q * (P >> s_ij & m_ij))
                return sure | excused, passed | excused
            return sure, every if bilinear else passed

        return test

    return [test_of(i, j) for i, j in permutations(range(inst.n), 2)]


def _capped_columns(inst: Instance, require_sim: bool, cap: int | None):
    cap = DEFAULT_BRUTE_CAP if cap is None else cap
    require_budget(cap, "cap")
    columns = candidate_columns(inst, require_sim)
    count = math.prod(len(c) for c in columns)
    if count > cap:
        kind = "impact-maximizing allocations" if require_sim else "allocations"
        raise BudgetExceededError(f"{count} {kind} exceed the cap of {cap}")
    return columns, count


def _scan(inst: Instance, notion: Notion, require_sim: bool, cap: int | None):
    """The candidates passing the notion, as (tails, passing): ``tails``
    lists the owners of the tail items in ``itertools.product`` order over
    their candidate columns, and ``passing`` yields, per head (the owners of
    the first items) in that order, (head, the bit set of the tails t with
    which ``head + tails[t]`` passes).  Bit t is candidate ``head +
    tails[t]`` of the product order, so the lowest bit of the first
    non-empty set is the first passing candidate.

    The tail is the longest suffix of columns whose candidate count is at
    most the square root of the whole count.  Every tail is listed once with
    its packed bundle sums (``fairness.Sums``) and its keys per pair
    (``_pair_tests``); each head then gets its own sums, and per pair two
    bit sets: the tails with which the pair surely passes and those with
    which it may.  The AND over pairs of each leaves the tails that may pass
    and are not sure; only those candidates are decided one by one, from the
    sum of the two packed sums, by the same ``fairness.decider`` as
    ``check``.
    """
    if notion.base != SA_EMPTY:
        require_goods(inst)
    columns, count = _capped_columns(inst, require_sim, cap)
    k, size, root = len(columns), 1, math.isqrt(count)
    while k and size * len(columns[k - 1]) <= root:
        k -= 1
        size *= len(columns[k])
    sums, fails = decider(inst, notion)
    adds = [{c: sums.add(g, c) for c in col} for g, col in enumerate(columns)]
    head_adds, tail_adds = adds[:k], adds[k:]
    tails = list(product(*columns[k:]))
    packed = [sum(map(getitem, tail_adds, tail)) for tail in tails]
    tests = _pair_tests(inst, notion, sums, k, tails, packed)
    every = (1 << len(tails)) - 1

    def passing():
        for head in product(*columns[:k]):
            head_sums = sum(map(getitem, head_adds, head))
            sure = maybe = every
            for test in tests:
                pair_sure, pair_maybe = test(head_sums, head)
                sure &= pair_sure
                maybe &= pair_maybe
                if not maybe:
                    break
            unsure = maybe ^ sure  # a pair's sure set lies in its maybe set
            while unsure:
                low = unsure & -unsure
                t = low.bit_length() - 1
                if fails(head_sums + packed[t], head + tails[t]) is None:
                    sure |= low
                unsure ^= low
            yield head, sure

    return tails, passing()


def brute_force_solve(
    inst: Instance,
    notion: Notion | None,
    *,
    require_sim: bool = True,
    cap: int | None = None,
) -> Allocation | None:
    """Ground-truth oracle: scan candidate allocations and return the first
    one passing the notion check.

    With ``require_sim`` (the default) only impact-maximizing allocations are
    scanned, so the result is impact maximizing by construction; otherwise
    all n**m complete allocations are scanned and only the fairness check is
    applied.  ``notion=None`` accepts every candidate, so the first one is
    returned without a scan.  Raises :class:`BudgetExceededError` when the
    candidate count exceeds ``cap`` (None: the default), with or without one.
    """
    if notion is None:
        owners = [col[0] for col in _capped_columns(inst, require_sim, cap)[0]]
        return Allocation.from_assignment(inst.n, owners)
    tails, passing = _scan(inst, notion, require_sim, cap)
    for head, passed in passing:
        if passed:
            owners = head + tails[(passed & -passed).bit_length() - 1]
            return Allocation.from_assignment(inst.n, owners)
    return None


def brute_force_count(
    inst: Instance,
    notion: Notion | None,
    *,
    require_sim: bool = True,
    cap: int | None = None,
) -> int:
    """Number of candidate allocations passing the notion, over the same scan
    as :func:`brute_force_solve`; ``notion=None`` counts every candidate
    without a scan.  Raises :class:`BudgetExceededError` when the candidate
    count exceeds ``cap`` (None: ``DEFAULT_BRUTE_CAP``)."""
    if notion is None:
        return _capped_columns(inst, require_sim, cap)[1]
    return sum(passed.bit_count() for _, passed in _scan(inst, notion, require_sim, cap)[1])
