"""Instance builders: reduction gadgets, canned examples, random instances,
and the flags of the ``gen`` command that builds each of them.

Each ``gen_*`` constructor embeds a small source problem into a fair-division
instance so that the source is solvable exactly when the generated instance
admits an impact-maximizing allocation satisfying the target notion.  The
source-problem brute-force oracles live here too, so the embeddings can be
verified end to end at desk scale.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from .model import (
    Allocation,
    Frozen,
    Instance,
    ValidationError,
    _set,
    exact_rational,
    make_instance,
)

ORACLE_WEIGHT_CAP = 10  # source-problem oracles stay exhaustive below this size
PARTITION_SUM_CAP = 1 << 24  # partition's bitset has one bit per sum: 2 MiB


def _check_weights(weights: tuple[int, ...]) -> int:
    if not weights:
        raise ValidationError("weight multiset must be non-empty")
    if any(not isinstance(w, int) or isinstance(w, bool) or w < 1 for w in weights):
        raise ValidationError("weights must be integers >= 1")
    total = sum(weights)
    if total % 2:
        raise ValidationError("weight multiset must have an even sum")
    return total // 2


def gen_partition_ef1(weights) -> Instance:
    """Two agents, two big items, one small item per weight.

    Impact maximization pins big item 1 on agent 1 and big item 2 on agent 2;
    each agent values the other's big item at half the weight total, so the
    envy-up-to-one-item condition forces the small items to split into two
    equal-sum halves.  The instance therefore admits an impact-maximizing
    fair allocation exactly when the weights admit an equal partition.
    """
    weights = tuple(weights)
    t = _check_weights(weights)
    items = ("G1", "G2") + tuple(f"g{j + 1}" for j in range(len(weights)))
    valuations = (
        (0, t) + weights,
        (t, 0) + weights,
    )
    impacts = (
        (1, 0) + (1,) * len(weights),
        (0, 1) + (1,) * len(weights),
    )
    return make_instance(valuations, impacts, items=items)


def gen_mixed_awareness(weights) -> Instance:
    """Two agents, the first unaware, embedding an equal-partition question.

    Three big items: the first two are pinned on the aware agent 2, the third
    is co-maximized.  A maximizing allocation that is fair-for-agent-1 and
    override-fair for agent 2 exists exactly when the weights split evenly.
    Every weight must stay below half the total (otherwise handing the
    co-maximized big item to agent 2 and all small items to agent 1 becomes
    fair regardless of the split, because removing the heavy small item
    already kills agent 2's envy).
    """
    weights = tuple(weights)
    t = _check_weights(weights)
    if any(w >= t for w in weights):
        raise ValidationError(
            "every weight must be smaller than half the weight total"
        )
    items = ("G1", "G2", "G3") + tuple(f"g{j + 1}" for j in range(len(weights)))
    valuations = (
        (t, t, t) + weights,
        (0, 0, t) + weights,
    )
    impacts = (
        (0, 0, 1) + (1,) * len(weights),
        (1, 1, 1) + (1,) * len(weights),
    )
    return make_instance(valuations, impacts, aware=(False, True), items=items)


def gen_alpha_sa(weights, alpha: Fraction) -> Instance:
    """Partition embedding that survives the alpha-scaled awareness override.

    The override excuses observer i toward bundle A_j when
    s_i(A_j) < alpha * s_j(A_j), so the gadget must keep that ratio at or
    above alpha whenever the envied bundle contains any small item.  With
    alpha = p/q the small items carry impact 2p for both agents while the
    pinned big items carry only q-p (side of agent 1, two items) and 2(q-p)
    (side of agent 2, one item); then a single small item already pushes the
    rival's share to the threshold and the override fails exactly when it
    must.  Valuations mirror the plain partition gadget, so fairness again
    forces an equal split.  Requires 0 < alpha < 1.
    """
    weights = tuple(weights)
    t = _check_weights(weights)
    alpha = exact_rational(alpha, "alpha")
    if not (0 < alpha < 1):
        raise ValidationError("alpha gadget needs 0 < alpha < 1")
    p, q = alpha.numerator, alpha.denominator
    small_impact = 2 * p
    big_one = q - p  # each of agent 1's two pinned items
    big_two = 2 * (q - p)  # agent 2's single pinned item
    ell = len(weights)
    items = ("G1", "G2", "G3") + tuple(f"g{j + 1}" for j in range(ell))
    valuations = (
        (0, 0, t) + weights,
        (t, t, t) + weights,
    )
    impacts = (
        (big_one, big_one, 0) + (small_impact,) * ell,
        (0, 0, big_two) + (small_impact,) * ell,
    )
    return make_instance(valuations, impacts, items=items)


def gen_wsa(weights) -> Instance:
    """Equitable-partition embedding for the proportional-gain override.

    Needs 2L weights with L > 4 such that every (L-1)-subset sums below half
    the total (checked); under that promise any unbalanced maximizing
    allocation leaves one agent with envy the override cannot excuse, so
    fairness forces an equal-size equal-sum split.  The instance is that of
    :func:`gen_partition_ef1`; only the promise on the weights is new.
    """
    weights = tuple(weights)
    t = _check_weights(weights)
    if len(weights) % 2:
        raise ValidationError("equitable gadget needs an even number of weights")
    ell = len(weights) // 2
    if ell <= 4:
        raise ValidationError("equitable gadget needs more than 4 weights per side")
    if sum(sorted(weights)[-(ell - 1):]) >= t:
        raise ValidationError(
            "every (L-1)-subset must sum below half the weight total"
        )
    return gen_partition_ef1(weights)


class RX3CInput(Frozen):
    """A cover-by-3-sets source: universe 0..3L-1 and a family of triples.

    The regular form additionally has exactly 3L triples, every element in
    exactly three of them, and pairwise intersections of at most one element
    (see :func:`validate_rx3c`); the embedding itself only needs distinct
    triples over a universe of size 3L.
    """

    __slots__ = ("universe_size", "triples")
    universe_size: int
    triples: tuple[frozenset[int], ...]

    def __init__(self, universe_size: int, triples) -> None:
        _set(self, "universe_size", universe_size)
        _set(self, "triples", tuple(frozenset(tr) for tr in triples))


def validate_rx3c(src: RX3CInput, *, strict: bool = True) -> list[str]:
    """Structural checks; with ``strict`` also the regularity conditions."""
    errors: list[str] = []
    if src.universe_size < 3 or src.universe_size % 3:
        errors.append("universe size must be a positive multiple of 3")
    for tr in src.triples:
        if len(tr) != 3 or any(not (0 <= u < src.universe_size) for u in tr):
            errors.append(f"triple {sorted(tr)} is not a 3-subset of the universe")
    if len(set(src.triples)) != len(src.triples):
        errors.append("triples must be distinct")
    if strict:
        if len(src.triples) != src.universe_size:
            errors.append("regular form needs exactly as many triples as elements")
        occurrences = [0] * src.universe_size
        for tr in src.triples:
            for u in tr:
                if 0 <= u < src.universe_size:
                    occurrences[u] += 1
        if any(c != 3 for c in occurrences):
            errors.append("regular form needs every element in exactly 3 triples")
        for a, b in combinations(src.triples, 2):
            if len(a & b) > 1:
                errors.append("regular form allows pairwise intersections of at most 1")
                break
    return errors


def gen_x3c_sa_empty(src: RX3CInput, *, strict: bool = False) -> Instance:
    """Cover embedding for the strict-domination notion.

    One set agent per triple plus two identical guard agents; one element
    item per universe element plus one dummy item per three elements.  All
    valuations are 1.  Set agents maximize their triple's elements and every
    dummy; guards maximize every element and no dummy.  The guards being
    twins forces them empty, non-empty set agents need a dummy to dominate
    the guards, and counting then forces the chosen set agents to be an exact
    cover, so a maximizing strictly-dominating allocation exists exactly when
    the triples contain an exact cover.
    """
    errors = validate_rx3c(src, strict=strict)
    if errors:
        raise ValidationError("; ".join(errors))
    ell = src.universe_size // 3
    n_sets = len(src.triples)
    n = n_sets + 2
    m = src.universe_size + ell
    agents = tuple(f"s{j + 1}" for j in range(n_sets)) + ("guard1", "guard2")
    items = tuple(f"g{u + 1}" for u in range(src.universe_size)) + tuple(
        f"d{d + 1}" for d in range(ell)
    )
    valuations = tuple((1,) * m for _ in range(n))
    impacts = []
    for j in range(n_sets):
        row = [1 if u in src.triples[j] else 0 for u in range(src.universe_size)]
        row += [1] * ell
        impacts.append(tuple(row))
    guard_row = (1,) * src.universe_size + (0,) * ell
    impacts.append(guard_row)
    impacts.append(guard_row)
    return make_instance(valuations, tuple(impacts), agents=agents, items=items)


def gen_ef_embedding(valuations, *, tef1: bool = False) -> Instance:
    """Embed a binary envy-free allocation question.

    Standard items keep their valuations and are co-maximized by everyone;
    one special item per agent (two copies in transfer mode) is pinned on its
    agent, worthless to it, and worth 1 to everyone else.  The initial envy
    from the pinned items forces the standard items to be split envy-freely,
    so the target notion is satisfiable exactly when the source admits an
    envy-free allocation.
    """
    vals = tuple(tuple(row) for row in valuations)
    n = len(vals)
    if n < 1:
        raise ValidationError("need at least one agent")
    m = len(vals[0]) if vals else 0
    if any(len(row) != m for row in vals):
        raise ValidationError("valuation rows must have equal length")
    if any(v not in (0, 1) for row in vals for v in row):
        raise ValidationError("source valuations must be binary")
    copies = 2 if tef1 else 1
    items = tuple(f"g{j + 1}" for j in range(m)) + tuple(
        f"e{i + 1}" + ("ab"[c] if tef1 else "")
        for i in range(n)
        for c in range(copies)
    )
    out_vals = []
    out_imps = []
    for i in range(n):
        vrow = list(vals[i])
        srow = [1] * m
        for owner in range(n):
            for _ in range(copies):
                vrow.append(0 if owner == i else 1)
                srow.append(1 if owner == i else 0)
        out_vals.append(tuple(vrow))
        out_imps.append(tuple(srow))
    return make_instance(tuple(out_vals), tuple(out_imps), items=items)


class CannedExample(Frozen):
    __slots__ = ("name", "instance", "allocation")
    name: str
    instance: Instance
    allocation: Allocation

    def __init__(self, name: str, instance: Instance, allocation: Allocation) -> None:
        _set(self, "name", name)
        _set(self, "instance", instance)
        _set(self, "allocation", allocation)


def _alpha_nonexistence(alpha) -> tuple:
    alpha = exact_rational(alpha, "alpha")
    if not (0 <= alpha < 1):
        raise ValidationError("alpha must lie in [0, 1)")
    p, q = alpha.numerator, alpha.denominator
    return make_instance(((1, 1), (1, 1)), ((q, q), (p, p))), ({0, 1}, ())


# name -> builder of (instance, reference bundles) from the alpha argument;
# ``gen example`` lists the names in this order
CANNED = {
    "bill-joe": lambda alpha: (
        make_instance(((1, 1), (1, 1)), ((10, 10), (1, 1)), agents=("bill", "joe")),
        ({0, 1}, ()),
    ),
    "unaware-nonexistence": lambda alpha: (
        make_instance(((10, 10), (10, 10)), ((0, 0), (1, 1)), aware=(False, True)),
        ((), {0, 1}),
    ),
    "alpha-nonexistence": _alpha_nonexistence,
    "wsa-nonexistence": lambda alpha: (
        make_instance(((1, 5, 5), (5, 5, 1)), ((1, 1, 0), (0, 1, 1))),
        ({0}, {1, 2}),
    ),
    "tef1-vs-ef1": lambda alpha: (
        make_instance(((1, 1), (1, 1)), ((0, 0), (1, 1))),
        ((), {0, 1}),
    ),
    "sim-unfair": lambda alpha: (
        make_instance(((1, 1), (1, 1)), ((1, 1), (1, 1))),
        ({0, 1}, ()),
    ),
    # data-only: chores are storable but every checker/allocator rejects them
    "chores-roundrobin": lambda alpha: (
        make_instance(
            ((-100, -100, -1, -1, -1), (-100, -100, -1, -1, -1)),
            ((1, 1, 0, 0, 0), (1, 1, 1, 1, 1)),
        ),
        ({0, 1}, {2, 3, 4}),
    ),
}


def canned(name: str, *, alpha: Fraction = Fraction(1, 2)) -> CannedExample:
    """Bit-exact fixture instances, each with the reference allocation its
    construction pins down."""
    if name not in CANNED:
        raise ValidationError(f"unknown canned instance {name!r}")
    inst, bundles = CANNED[name](alpha)
    return CannedExample(name, inst, Allocation(bundles))


def _draw_row(bits, count: int, lo: int, hi: int) -> tuple[int, ...]:
    """``count`` uniform integers in [lo, hi], each by rejection from ``bits``.

    With w = hi - lo + 1 and k = w.bit_length(), an entry is lo + r for the
    first r = bits(k) below w: the rule of CPython's ``randint``, so the
    same Mersenne words give the same entries, without its argument checks.
    """
    w = hi - lo + 1
    k = w.bit_length()  # not (w - 1): a width of 1 still draws one bit
    row = []
    for _ in range(count):
        r = bits(k)
        while r >= w:
            r = bits(k)
        row.append(lo + r)
    return tuple(row)


def gen_random(
    n: int, m: int, v_max: int, s_max: int, w_max: int, seed: int
) -> Instance:
    """Uniform independent integer entries, deterministic per seed; goods mode.

    Every entry is drawn by :func:`_draw_row` from the one stream
    ``random.Random(seed).getrandbits``: the valuations row by row, then the
    impacts row by row, then the weights.  That is the rule and the order of
    ``randint``, so each seed gives byte-identical instances to the earlier
    ``randint`` form on every supported Python.  CPython seeds an int by its
    absolute value, so seeds s and -s give the same instance.  A seed that
    is not an ``int`` (None would draw a fresh seed from the OS) is refused.
    """
    ints = {"n": n, "m": m, "v_max": v_max, "s_max": s_max, "w_max": w_max, "seed": seed}
    for name, value in ints.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"{name} must be an int, not {type(value).__name__}")
    if n < 1 or m < 0 or v_max < 0 or s_max < 0 or w_max < 1:
        raise ValidationError("bad random-instance parameters")
    bits = random.Random(seed).getrandbits
    valuations = tuple(_draw_row(bits, m, 0, v_max) for _ in range(n))
    impacts = tuple(_draw_row(bits, m, 0, s_max) for _ in range(n))
    weights = _draw_row(bits, n, 1, w_max)
    return make_instance(valuations, impacts, weights=weights)


# ---------------------------------------------------------------------------
# source-problem oracles (independent of the gadgets they verify)

def partition_solvable(weights) -> bool:
    """Can the multiset split into two equal-sum halves?  Subset-sum bitset,
    whose width is the weight sum, whatever the number of weights."""
    weights = tuple(weights)
    if any(w < 0 for w in weights):
        # a negative weight would let a huge one past the sum cap
        raise ValidationError("oracle weights must be non-negative")
    total = sum(weights)
    if total > PARTITION_SUM_CAP:
        raise ValidationError(f"oracle capped at weight sum {PARTITION_SUM_CAP}")
    if total % 2:
        return False
    reachable = 1
    for w in weights:
        reachable |= reachable << w
    return bool((reachable >> (total // 2)) & 1)


def equitable_partition_solvable(weights) -> bool:
    """Is there a half-size subset with half the total sum?  Exhaustive."""
    weights = tuple(weights)
    if len(weights) > ORACLE_WEIGHT_CAP:
        raise ValidationError(f"oracle capped at {ORACLE_WEIGHT_CAP} weights")
    if len(weights) % 2:
        return False
    total = sum(weights)
    if total % 2:
        return False
    half = len(weights) // 2
    return any(
        sum(combo) == total // 2 for combo in combinations(weights, half)
    )


def exact_cover_solvable(universe_size: int, triples) -> bool:
    """Do some pairwise disjoint triples cover the universe exactly?  DFS."""
    triples = tuple(frozenset(tr) for tr in triples)
    if universe_size > 3 * ORACLE_WEIGHT_CAP:
        raise ValidationError(f"oracle capped at universe size {3 * ORACLE_WEIGHT_CAP}")

    def cover(uncovered: frozenset[int]) -> bool:
        if not uncovered:
            return True
        pivot = min(uncovered)
        for tr in triples:
            if pivot in tr and tr <= uncovered:
                if cover(uncovered - tr):
                    return True
        return False

    return cover(frozenset(range(universe_size)))


def ef_allocation_exists(valuations) -> bool:
    """Does a complete envy-free allocation of the items exist?  Exhaustive."""
    vals = tuple(tuple(row) for row in valuations)
    n = len(vals)
    m = len(vals[0]) if n else 0
    if n**m > 10**6:
        raise ValidationError("envy-free oracle capped at a million allocations")
    for owners in product(range(n), repeat=m):
        totals = [[0] * n for _ in range(n)]  # totals[i][j] = v_i of j's bundle
        for g, owner in enumerate(owners):
            for i in range(n):
                totals[i][owner] += vals[i][g]
        if all(
            totals[i][i] >= totals[i][j] for i in range(n) for j in range(n)
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# the ``gen`` command's flags, kept here so that no other command compiles them


def _int_rows(text: str, what: str, single: bool = False):
    """The ";"-separated rows of comma-separated integers in ``text``, empty
    rows skipped; with ``single``, the one row ``text`` is (no ";")."""
    rows = text.split(";")
    try:
        if single and len(rows) > 1:
            raise ValueError(text)
        ints = tuple(tuple(int(v) for v in row.split(",")) for row in rows if row or single)
    except ValueError as exc:
        raise ValidationError(f"bad {what} {text!r}") from exc
    return ints[0] if single else ints


def _weights(args) -> tuple[int, ...]:
    return _int_rows(args.weights, "weight list", single=True)


_WEIGHTS = ("--weights", {"required": True, "help": "comma-separated integers"})
_REQUIRED_INT = {"type": int, "required": True}

# generator -> (its flags in help order, each a name and its add_argument
# keywords; what it builds from the parsed flags: an instance, or for
# ``example`` the canned example with its allocation)
_GENERATORS = {
    "partition-ef1": ([_WEIGHTS], lambda a: gen_partition_ef1(_weights(a))),
    "mixed": ([_WEIGHTS], lambda a: gen_mixed_awareness(_weights(a))),
    "wsa": ([_WEIGHTS], lambda a: gen_wsa(_weights(a))),
    "alpha": (
        [_WEIGHTS, ("--alpha", {"required": True, "help": "rational P/Q in (0,1)"})],
        lambda a: gen_alpha_sa(_weights(a), exact_rational(a.alpha, "rational")),
    ),
    "x3c": (
        [
            ("--universe", _REQUIRED_INT),
            ("--triples", {"required": True, "help": '"0,1,2;3,4,5;..."'}),
            ("--strict", {"action": "store_true"}),
        ],
        lambda a: gen_x3c_sa_empty(
            RX3CInput(a.universe, _int_rows(a.triples, "triple list")), strict=a.strict
        ),
    ),
    "ef-embedding": (
        [
            ("--valuations", {"required": True, "help": 'binary rows "1,0;0,1"'}),
            ("--tef1", {"action": "store_true"}),
        ],
        lambda a: gen_ef_embedding(_int_rows(a.valuations, "matrix"), tef1=a.tef1),
    ),
    "example": (
        [
            ("name", {"choices": tuple(CANNED)}),
            ("--alpha", {"default": "1/2", "help": "rational for the alpha example"}),
            ("--allocation-out", {"help": "write the reference allocation here"}),
        ],
        lambda a: canned(a.name, alpha=exact_rational(a.alpha, "rational")),
    ),
    "random": (
        [
            *((flag, _REQUIRED_INT) for flag in ("--agents", "--items", "--v-max", "--s-max")),
            ("--w-max", {"type": int, "default": 1}),
            ("--seed", _REQUIRED_INT),
        ],
        lambda a: gen_random(a.agents, a.items, a.v_max, a.s_max, a.w_max, a.seed),
    ),
}


def add_gen_parser(sub, handler) -> None:
    """Add the ``gen`` command to the subparsers ``sub`` of the ``fdsi``
    parser: one subparser per row of ``_GENERATORS``, each with ``-o``.  A
    parsed call carries the row's builder as ``build`` and ``handler`` as
    ``func``, which writes what ``build`` returns."""
    gen_sub = sub.add_parser("gen", help="generate an instance file").add_subparsers(
        dest="generator", required=True
    )
    for name, (flags, build) in _GENERATORS.items():
        g = gen_sub.add_parser(name)
        for flag, keywords in flags:
            g.add_argument(flag, **keywords)
        g.add_argument("-o", "--output")
        g.set_defaults(func=handler, build=build)
