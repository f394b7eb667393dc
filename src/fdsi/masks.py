"""The bit-set tests of the brute-force oracle's head x tail scan.

``search._scan`` splits the items into a head and a tail; ``head_sets``
lists every tail (the owners of the last items) once with its packed bundle
sums, and gives each head the tails that pass with it.  Per ordered pair,
every test of a notion that is linear in the bundle sums compares a key of
the tail with a threshold the head sets, so the tails sorted by key once
give the tails meeting any threshold by one bisect, as a bit set (bit t for
the t-th tail).  Only the scan imports this module, so a call that never
scans does not compile it.
"""

from __future__ import annotations

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
from .model import Instance

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


def head_sets(inst: Instance, notion: Notion, columns, k: int):
    """``search._scan`` with the items split before item k: (tails,
    passing), where ``tails`` lists the owners of the items from k on in
    ``itertools.product`` order over ``columns``, and ``passing`` yields, per
    head (the owners of the first k items) in that order, (head, the bit set
    of the tails t with which ``head + tails[t]`` passes the notion).

    Every tail is listed once with its packed bundle sums (``fairness.Sums``)
    and its keys per pair (``_pair_tests``); each head then gets its own
    sums, and per pair two bit sets: the tails with which the pair surely
    passes and those with which it may.  The AND over pairs of each leaves
    the tails that may pass and are not sure; only those candidates are
    decided one by one, from the sum of the two packed sums, by the same
    ``fairness.decider`` as ``check``.
    """
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
