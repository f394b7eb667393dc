"""Independent reference implementations used as oracles by the tests.

Everything here is a deliberate, slow transliteration of the definitions
(explicit loops, fresh sums, Fraction arithmetic) so that agreement with the
library is meaningful.  Nothing imports the library's decision logic except
the shared data types, and :func:`walk_count`, which reads the exact walk's
own graph so that the oracle can count against it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from types import SimpleNamespace

from fdsi.model import Allocation, Instance, all_maximizers, make_instance


def value_of(inst: Instance, i: int, items_) -> int:
    total = 0
    for g in items_:
        total += inst.valuations[i][g]
    return total


def impact_of(inst: Instance, i: int, items_) -> int:
    total = 0
    for g in items_:
        total += inst.impacts[i][g]
    return total


def matrices(inst: Instance, owners) -> tuple[list[list[int]], list[list[int]]]:
    """``V[i][j] = v_i(A_j)`` and ``S[i][j] = s_i(A_j)`` for the item -> owner
    map ``owners`` (None marks an unallocated item), summed afresh per pair."""
    bundles = [[g for g, o in enumerate(owners) if o == j] for j in range(inst.n)]
    V = [[value_of(inst, i, b) for b in bundles] for i in range(inst.n)]
    S = [[impact_of(inst, i, b) for b in bundles] for i in range(inst.n)]
    return V, S


def naive_base(inst: Instance, alloc: Allocation, i: int, j: int, base: str) -> bool:
    """Literal definition of one base condition for the ordered pair (i, j).

    The one-removal existentials range over the whole item set as written;
    with no items at all they are read as vacuously true (the same convention
    the library documents).
    """
    if i == j:
        return True
    a_i, a_j = alloc.bundles[i], alloc.bundles[j]
    own = value_of(inst, i, a_i)
    other = value_of(inst, i, a_j)
    items_ = range(inst.m)
    if base == "ef":
        return own >= other
    if base == "ef1":
        if inst.m == 0:
            return True
        return any(own >= value_of(inst, i, a_j - {g}) for g in items_)
    if base == "wef1":
        if inst.m == 0:
            return True
        wi, wj = inst.weights[i], inst.weights[j]
        return any(
            Fraction(own, wi) >= Fraction(value_of(inst, i, a_j - {g}), wj)
            for g in items_
        )
    if base == "efl":
        positives = [g for g in a_j if inst.valuations[i][g] > 0]
        if len(positives) <= 1:
            return True
        return any(
            own >= value_of(inst, i, a_j - {g})
            and own >= inst.valuations[i][g]
            for g in a_j
        )
    if base == "tef1":
        if own >= other:
            return True
        return any(
            value_of(inst, i, a_i | {g}) >= value_of(inst, i, a_j - {g})
            for g in a_j
        )
    raise AssertionError(base)


def naive_override(
    inst: Instance, alloc: Allocation, i: int, j: int, awareness, alpha=None
) -> bool:
    if awareness is None or not inst.aware[i]:
        return False
    s_i = impact_of(inst, i, alloc.bundles[j])
    s_j = impact_of(inst, j, alloc.bundles[j])
    if awareness == "sa":
        return s_i < s_j
    if awareness == "alpha":
        return Fraction(s_i) < Fraction(alpha) * s_j
    if awareness == "wsa":
        v_other = value_of(inst, i, alloc.bundles[j])
        v_own = value_of(inst, i, alloc.bundles[i])
        return v_other * s_i <= v_own * s_j
    raise AssertionError(awareness)


def naive_target(
    inst: Instance, alloc: Allocation, j: int, base: str, exempt
) -> bool:
    observers = [i for i in range(inst.n) if i != j and i not in exempt]
    if not observers:
        return True
    if inst.m == 0:
        return True
    a_j = alloc.bundles[j]
    weighted = base == "swef1"
    for g in range(inst.m):
        ok = True
        for i in observers:
            own = value_of(inst, i, alloc.bundles[i])
            reduced = value_of(inst, i, a_j - {g})
            if weighted:
                if Fraction(own, inst.weights[i]) < Fraction(reduced, inst.weights[j]):
                    ok = False
                    break
            elif own < reduced:
                ok = False
                break
        if ok:
            return True
    return False


def naive_check(inst: Instance, alloc: Allocation, notion) -> bool:
    """Full transliteration of the composed fairness decision."""
    if notion.base == "sa-empty":
        for i in range(inst.n):
            for j in range(inst.n):
                if i == j or not alloc.bundles[j]:
                    continue
                if impact_of(inst, i, alloc.bundles[j]) >= impact_of(
                    inst, j, alloc.bundles[j]
                ):
                    return False
        return True
    if notion.base in ("sef1", "swef1"):
        for j in range(inst.n):
            exempt = {
                i
                for i in range(inst.n)
                if i != j
                and naive_override(inst, alloc, i, j, notion.awareness, notion.alpha)
            }
            if not naive_target(inst, alloc, j, notion.base, exempt):
                return False
        return True
    for i in range(inst.n):
        for j in range(inst.n):
            if i == j:
                continue
            if naive_base(inst, alloc, i, j, notion.base):
                continue
            if naive_override(inst, alloc, i, j, notion.awareness, notion.alpha):
                continue
            return False
    return True


def literal_picking(inst: Instance, weights=None) -> Allocation:
    """The skip-and-increment form of the weighted picking sequence.

    Every round THE pick-count/weight minimizer (ties by index) is selected
    and its counter incremented even when it has nothing to pick.  Used to
    confirm the library's deactivation variant is behavior-identical.
    """
    w = tuple(weights) if weights is not None else inst.weights
    maxsets = all_maximizers(inst)
    counts = [0] * inst.n
    remaining = set(range(inst.m))
    bundles = [set() for _ in range(inst.n)]
    while remaining:
        picker = 0
        for i in range(1, inst.n):
            if counts[i] * w[picker] < counts[picker] * w[i]:
                picker = i
        candidates = sorted(g for g in remaining if picker in maxsets[g])
        if candidates:
            best = candidates[0]
            for g in candidates[1:]:
                if inst.valuations[picker][g] > inst.valuations[picker][best]:
                    best = g
            bundles[picker].add(best)
            remaining.discard(best)
        counts[picker] += 1
    return Allocation(bundles=tuple(frozenset(b) for b in bundles))


def literal_efl(inst: Instance) -> Allocation:
    """The envy-graph allocator, with every sum taken afresh: the last of
    :func:`literal_efl_partials`, or the empty allocation when no item is
    assigned."""
    alloc = Allocation.empty(inst.n)
    for alloc in literal_efl_partials(inst):
        pass
    return alloc


def literal_efl_partials(inst: Instance):
    """Yield the partial allocation of the envy-graph allocator after every
    assignment round, every sum taken afresh.

    Every round the lowest agent still in the graph whom no agent in it
    envies takes its most valued remaining item among those it maximizes
    impact for (ties by index), or leaves the graph for good when there is
    none.  Then envy cycles are rotated away, each the first one a recursive
    depth-first search meets (lowest start, neighbors ascending), every
    agent on it taking the bundle of the next.  Agent i envies j when i
    values A_j above A_i and i's impact for A_j is at least j's own.
    """
    maxsets = all_maximizers(inst)
    bundles = [frozenset() for _ in range(inst.n)]
    vertices = list(range(inst.n))
    remaining = set(range(inst.m))

    def envies(i, j):
        return (
            value_of(inst, i, bundles[i]) < value_of(inst, i, bundles[j])
            and impact_of(inst, i, bundles[j]) >= impact_of(inst, j, bundles[j])
        )

    def first_cycle():
        color = dict.fromkeys(vertices, 0)

        def visit(v, path):
            color[v] = 1
            path.append(v)
            for u in vertices:
                if u == v or not envies(v, u):
                    continue
                if color[u] == 1:
                    return path[path.index(u):]
                if color[u] == 0:
                    found = visit(u, path)
                    if found is not None:
                        return found
            path.pop()
            color[v] = 2
            return None

        for start in vertices:
            if color[start] == 0:
                cycle = visit(start, [])
                if cycle is not None:
                    return cycle
        return None

    while remaining:
        source = min(
            v for v in vertices if not any(i != v and envies(i, v) for i in vertices)
        )
        candidates = sorted(g for g in remaining if source in maxsets[g])
        if not candidates:
            vertices.remove(source)
            continue
        best = candidates[0]
        for g in candidates[1:]:
            if inst.valuations[source][g] > inst.valuations[source][best]:
                best = g
        bundles[source] = bundles[source] | {best}
        remaining.discard(best)
        cycle = first_cycle()
        while cycle is not None:
            taken = [bundles[d] for d in cycle[1:] + cycle[:1]]
            for i, bundle in zip(cycle, taken):
                bundles[i] = bundle
            cycle = first_cycle()
        yield Allocation(bundles=tuple(bundles))


def random_instances(count, seed, n_lo, n_hi, m_lo, m_hi, v_max, s_max, w_max=1):
    """Deterministic stream of random goods instances."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(n_lo, n_hi)
        m = rng.randint(m_lo, m_hi)
        vals = [[rng.randint(0, v_max) for _ in range(m)] for _ in range(n)]
        imps = [[rng.randint(0, s_max) for _ in range(m)] for _ in range(n)]
        w = [rng.randint(1, w_max) for _ in range(n)]
        yield make_instance(vals, imps, weights=w)


def randint_random(n, m, v_max, s_max, w_max, seed):
    """``generators.gen_random`` as ``random.Random(seed).randint`` draws it:
    the instance, and the generator left after the last draw."""
    rng = random.Random(seed)
    vals = [[rng.randint(0, v_max) for _ in range(m)] for _ in range(n)]
    imps = [[rng.randint(0, s_max) for _ in range(m)] for _ in range(n)]
    w = [rng.randint(1, w_max) for _ in range(n)]
    return make_instance(vals, imps, weights=w), rng


# (n, m, v_max, s_max, w_max) sizes for the draw-identity check: one agent,
# no items, widths 1 and 2, power-of-two widths (4, 8, 2**32), s_max 0,
# w_max 1, and widths past one 32-bit Mersenne word
DRAW_GRID = (
    (1, 5, 9, 2, 3),
    (3, 0, 9, 2, 3),
    (2, 6, 0, 1, 1),
    (3, 7, 1, 0, 2),
    (4, 9, 3, 7, 4),
    (2, 5, 2**32 - 1, 1, 1),
    (3, 4, 2**32, 2**32 - 2, 5),
    (2, 6, 2**40 + 7, 3, 2**33),
    (8, 100, 20, 3, 3),
)
DRAW_SEEDS = (0, 1, 2, 5, -5, 42, 2**40 + 3)


def randint_mismatches(grid=DRAW_GRID, seeds=DRAW_SEEDS) -> list:
    """The (sizes, seed) cases where ``gen_random`` differs from
    :func:`randint_random`, in the instance or in the generator's next
    ``random()`` (which shows whether both drew the same number of words)."""
    from fdsi import generators

    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    saved = generators.random
    generators.random = SimpleNamespace(Random=Recorded)
    try:
        failures = []
        for sizes in grid:
            for seed in seeds:
                made.clear()
                inst = generators.gen_random(*sizes, seed)
                ref, rng = randint_random(*sizes, seed)
                if inst != ref or [r.random() for r in made] != [rng.random()]:
                    failures.append((sizes, seed))
        return failures
    finally:
        generators.random = saved


def walk_count(inst: Instance, notion) -> int:
    """The number of paths from the exact walk's root to an accepting leaf,
    over ``successors`` and ``accepts`` of ``search._Layout(inst, notion)``,
    with no state skipped: per (layer, key), the accepting leaves below the
    key, memoized.  A path is an owner tuple."""
    from fdsi.search import _Layout

    layout = _Layout(inst, notion)
    memo = {}

    def below(g: int, key: int) -> int:
        if g == inst.m:
            return int(layout.accepts(key))
        if (g, key) not in memo:
            memo[g, key] = sum(below(g + 1, k) for k, _ in layout.successors(key, g))
        return memo[g, key]

    return below(0, 0)


def random_allocation(inst: Instance, rng: random.Random) -> Allocation:
    owners = [rng.randrange(inst.n) for _ in range(inst.m)]
    return Allocation.from_assignment(inst.n, owners)


def random_sim_allocation(inst: Instance, rng: random.Random) -> Allocation:
    maxsets = all_maximizers(inst)
    owners = [rng.choice(sorted(maxsets[g])) for g in range(inst.m)]
    return Allocation.from_assignment(inst.n, owners)


def _value_bits(inst: Instance, a: int) -> list[int]:
    """The values of a value-set field of observer a, one per bit: bit i is
    the i-th smallest distinct positive value in a's row."""
    return sorted({v for v in inst.valuations[a] if v > 0})


def pack_key(inst: Instance, layout, x, y=None, flags=None) -> int:
    """A search key from n*n matrices, each entry placed in the (shift,
    mask) field that ``layout`` states for its pair.  Under a value-set
    layout ("bits") each y entry is a set of values.  Absent matrices are
    zero; every entry must fit its field."""
    n = inst.n
    key = 0
    for fields, matrix in ((layout.x, x), (layout.y, y), (layout.flag, flags)):
        if matrix is None:
            continue
        for p, (shift, mask) in enumerate(fields):
            entry = matrix[p // n][p % n]
            if fields is layout.y and layout.ymove == "bits":
                entry = sum(1 << _value_bits(inst, p // n).index(v) for v in entry)
            if not 0 <= int(entry) <= mask:
                raise AssertionError(f"entry {entry} of pair {p} does not fit mask {mask}")
            key |= int(entry) << shift
    return key


def unpack_key(inst: Instance, layout, key: int):
    """The (x, y, flags) of a search key as row-major n*n tuples, read from
    the fields ``layout`` states (absent fields read 0).  Under a value-set
    layout ("bits") each y entry is the frozenset of the values whose bits
    are set; under "pareto" each diagonal entry y_bb is b's Pareto set, the
    frozenset of its class vectors.  The key must hold no bit above its
    fields."""
    n = inst.n
    x, y, flags = (
        tuple(key >> shift & mask for shift, mask in fields)
        for fields in (layout.x, layout.y, layout.flag)
    )
    if layout.ymove == "bits":
        y = tuple(
            frozenset(v for i, v in enumerate(_value_bits(inst, p // n)) if y[p] >> i & 1)
            for p in range(n * n)
        )
    elif layout.ymove == "pareto":
        y = tuple(layout.sets[y[p]] if p % (n + 1) == 0 else y[p] for p in range(n * n))
    top = max((shift + mask.bit_length() for fields in (layout.x, layout.y, layout.flag)
               for shift, mask in fields), default=0)
    if key >> top:
        raise AssertionError("the key has bits above its last field")
    return x, y, flags
