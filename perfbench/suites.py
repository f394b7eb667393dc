"""Seeded workload suites: the instance files a workload writes and the fdsi
calls it makes on them.

Every input comes from ``random.Random(seed)`` and the ``fdsi.generators``
constructors, so one seed always yields the same files and calls.  A suite is a
row of blocks.  Every block holds the same families in the same proportions
(only the seeded values differ), as *units* (a call, or a solve followed by a
check of its answer) in a seeded order.  The closed loop runs a prefix of the
suite for the time budget, so the mix it measures does not depend on the seed
or on how far it got; the traced run replays the whole suite once.

The size of each family was chosen by measurement on a 2-core box (see
README.md): every call stays far below the child caps, and no call fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from fdsi import generators
from fdsi.fairness import BASES, Notion
from fdsi.model import Instance, make_instance

WORKLOADS = ("exact-search", "oracle-scan", "small-auto")

# Bases whose answer on an unmodified gadget equals the source problem's.
PARTITION_BASES = ("ef1", "sef1", "wef1", "swef1", "efl")
# efl on 3-4 agent random instances has a heavy state-count tail (over 400k
# states and 12 s on some 3x6 seeds), so random instances leave it out and
# efl's search runs on the gadgets, whose state counts stay in a narrow band.
RANDOM_EXACT_BASES = ("ef", "ef1", "sef1", "wef1", "swef1", "tef1")
GUARANTEED_SA_BASES = ("ef1", "sef1", "wef1", "swef1", "tef1", "efl")


@dataclass
class Call:
    """One fdsi invocation.  Arguments ending in ``.json`` name files in the
    work directory; ``saves`` names the file a positive answer is written to
    so that a later ``check`` call can read it."""

    argv: list[str]
    instance: str
    notion: Notion | None
    kind: str  # "solve", "check" or "count"
    family: str
    props: dict = field(default_factory=dict)
    source: tuple | None = None  # source problem whose oracle decides this call
    saves: str | None = None
    reads: str | None = None


@dataclass
class Suite:
    workload: str
    seed: int
    instances: dict[str, Instance]
    calls: list[Call]


def _props(inst: Instance, base: str, awareness, gadget: str) -> dict:
    return {"n": inst.n, "m": inst.m, "base": base, "awareness": awareness, "gadget": gadget}


def _notion_argv(notion: Notion) -> list[str]:
    if notion.awareness == "alpha":
        return [notion.base, "--alpha", f"{notion.alpha.numerator}/{notion.alpha.denominator}"]
    if notion.awareness in ("sa", "wsa"):
        return [notion.base, f"--{notion.awareness}"]
    return [notion.base]


class _Builder:
    def __init__(self, workload: str, seed: int) -> None:
        self.rng = random.Random(f"{workload}:{seed}")
        self.instances: dict[str, Instance] = {}
        self.units: list[list[Call]] = []
        self.calls: list[Call] = []

    def add_instance(self, stem: str, inst: Instance) -> str:
        name = f"{stem}-{len(self.instances)}.json"
        self.instances[name] = inst
        return name

    def solve(self, name, notion, family, gadget, *, method=None, source=None):
        inst = self.instances[name]
        argv = ["solve", name, *_notion_argv(notion)]
        if method:
            argv += ["--method", method]
        return Call(
            argv, name, notion, "solve", family,
            _props(inst, notion.base, notion.awareness, gadget), source,
        )

    def seed_int(self) -> int:
        return self.rng.randrange(2**31)

    def weights(self, ell: int, w_max: int) -> tuple[int, ...]:
        w = [self.rng.randint(1, w_max) for _ in range(ell)]
        if sum(w) % 2:
            w[w.index(min(w))] += 1
        return tuple(w)

    def binary_matrix(self, n: int, m: int) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.rng.randint(0, 1) for _ in range(m)) for _ in range(n))

    def triples(self, universe: int, count: int) -> tuple[frozenset[int], ...]:
        chosen: list[frozenset[int]] = []
        while len(chosen) < count:
            tr = frozenset(self.rng.sample(range(universe), 3))
            if tr not in chosen:
                chosen.append(tr)
        return tuple(chosen)

    def end_block(self) -> None:
        self.rng.shuffle(self.units)
        self.calls.extend(c for u in self.units for c in u)
        self.units = []


# -- exact-search -----------------------------------------------------------

# (agents, items, largest value) of the random instances; with impacts up to
# 2 these stay under 25k states for every base they run (40 seeds measured)
RANDOM_EXACT_SHAPES = ((3, 8, 5), (3, 9, 5), (4, 7, 9))
EXTRA_EFL_GADGETS = 11


def _partition(b: _Builder, bases) -> None:
    w = b.weights(10, 2)
    name = b.add_instance("partition", generators.gen_partition_ef1(w))
    for base in bases:
        src = ("partition", w) if base in PARTITION_BASES else None
        b.units.append([b.solve(name, Notion(base), "partition", "partition", method="exact", source=src)])


def _mixed(b: _Builder, bases) -> None:
    # one unaware agent: the sa notion runs with the mixed profile (False, True)
    while True:
        w = b.weights(10, 2)
        if all(x < sum(w) // 2 for x in w):
            break
    name = b.add_instance("mixed", generators.gen_mixed_awareness(w))
    for base in bases:
        src = ("partition", w) if base == "ef1" else None
        b.units.append([b.solve(name, Notion(base, "sa"), "mixed", "mixed", method="exact", source=src)])


def _exact_block(b: _Builder, k: int) -> None:
    # efl on the one-unaware-agent gadget with 10 weights up to 2 is the
    # heavy call: 13k-21k states, a narrow band.  Extra efl-only gadgets make
    # it about a quarter of the calls, so the tail percentile falls inside
    # that band rather than on its edge.  (The partition gadget of the same
    # size gives efl 7k-9k states.)
    _partition(b, BASES)
    _mixed(b, BASES)
    for _ in range(EXTRA_EFL_GADGETS):
        _mixed(b, ("efl",))
    # binary envy-free embedding, plain and with doubled special items
    vals = b.binary_matrix(3, 3)
    name = b.add_instance("efembed", generators.gen_ef_embedding(vals))
    for base in BASES:
        src = ("ef", vals) if base == "ef1" else None
        b.units.append([b.solve(name, Notion(base), "ef-embedding", "ef-embedding", method="exact", source=src)])
    name = b.add_instance("efembed2", generators.gen_ef_embedding(vals, tef1=True))
    b.units.append([b.solve(name, Notion("tef1"), "ef-embedding", "ef-embedding-tef1", method="exact", source=("ef", vals))])
    # co-maximized random instances, plain and with a mixed awareness profile
    n, m, v_max = RANDOM_EXACT_SHAPES[k % len(RANDOM_EXACT_SHAPES)]
    name = b.add_instance("random", generators.gen_random(n, m, v_max, 2, 2, b.seed_int()))
    for base in RANDOM_EXACT_BASES:
        b.units.append([b.solve(name, Notion(base), "random", "random", method="exact")])
    raw = generators.gen_random(3, 8, 9, 2, 2, b.seed_int())
    aware = (True, False, b.rng.random() < 0.5)
    inst = make_instance(raw.valuations, raw.impacts, weights=raw.weights, aware=aware)
    name = b.add_instance("random-mixed", inst)
    for base in RANDOM_EXACT_BASES:
        b.units.append([b.solve(name, Notion(base, "sa"), "random-mixed", "random", method="exact")])


# -- oracle-scan ------------------------------------------------------------

# The --count scans run on 2 agents and 14 co-maximized items (16384
# candidates): every base then costs 0.4-0.6 s in process, a narrow band.
COUNT_AGENTS, COUNT_ITEMS = 2, 14


def _oracle_block(b: _Builder, k: int) -> None:
    # Heavy calls (five full --count scans and one brute-method cover
    # gadget, 0.5-0.75 s each) are six of seven calls, so both the median
    # and the tail percentile fall well inside the band of oracle scans.
    for j in range(5 * k, 5 * k + 5):
        base = BASES[j % len(BASES)]
        inst = generators.gen_random(COUNT_AGENTS, COUNT_ITEMS, 9, 0, 1, b.seed_int())
        name = b.add_instance("comax", inst)
        b.units.append([Call(
            ["brute", name, base, "--count"], name, Notion(base), "count", "count",
            _props(inst, base, None, "random"),
        )])
    # strict domination by the brute method on an uncoverable cover gadget:
    # three triples through element 0 never hold two disjoint ones
    triples: list[frozenset[int]] = []
    while len(triples) < 3:
        tr = frozenset({0, *b.rng.sample(range(1, 6), 2)})
        if tr not in triples:
            triples.append(tr)
    src = generators.RX3CInput(universe_size=6, triples=tuple(triples))
    name = b.add_instance("x3c", generators.gen_x3c_sa_empty(src))
    b.units.append([b.solve(name, Notion("sa-empty"), "x3c-brute", "x3c", method="brute", source=("x3c", 6, src.triples))])
    # one relaxed-awareness solve, which auto routes to the oracle: the
    # alpha gadget, the wsa gadget or a random instance with tied impacts
    if k % 3 == 0:
        w = b.weights(10, 9)
        name = b.add_instance("alpha", generators.gen_alpha_sa(w, Fraction(1, 2)))
        b.units.append([b.solve(name, Notion("ef1", "alpha", Fraction(1, 2)), "alpha-gadget", "alpha", source=("partition", w))])
    elif k % 3 == 1:
        while True:
            w = b.weights(10, 4)
            if sum(sorted(w)[-4:]) < sum(w) // 2:
                break
        name = b.add_instance("wsa", generators.gen_wsa(w))
        b.units.append([b.solve(name, Notion("ef1", "wsa"), "wsa-gadget", "wsa", source=("equitable", w))])
    else:
        inst = generators.gen_random(3, 6, 9, 1, 2, b.seed_int())
        name = b.add_instance("random", inst)
        base = BASES[k % len(BASES)]
        notion = Notion(base, "wsa") if k % 2 else Notion(base, "alpha", Fraction(1, 2))
        b.units.append([b.solve(name, notion, "random-relaxed", "random")])


# -- small-auto -------------------------------------------------------------

def _small_block(b: _Builder, k: int) -> None:
    # all-aware random instances: picking / envy-graph allocators, then check
    n = 2 + k % 7
    m = b.rng.randint(10, 100)
    raw = generators.gen_random(n, m, 20, 3, 3, b.seed_int())
    name = b.add_instance("aware", raw)
    for base in (GUARANTEED_SA_BASES[k % 6], GUARANTEED_SA_BASES[(k + 3) % 6]):
        notion = Notion(base, "sa")
        solve = b.solve(name, notion, "sa-allocator", "random")
        solve.saves = f"{name[:-5]}-{base}.alloc.json"
        check = Call(
            ["check", name, solve.saves, *_notion_argv(notion)], name, notion, "check",
            "check", _props(raw, base, "sa", "random"), reads=solve.saves,
        )
        b.units.append([solve, check])
    # sa-empty through auto: the type solver
    ell = 2 + k % 2
    triples = b.triples(3 * ell, b.rng.randint(ell, 2 * ell))
    src = generators.RX3CInput(universe_size=3 * ell, triples=triples)
    name = b.add_instance("x3c", generators.gen_x3c_sa_empty(src))
    b.units.append([b.solve(name, Notion("sa-empty"), "sa-empty", "x3c", source=("x3c", 3 * ell, triples))])
    # two agents, the first unaware: the mixed fast path
    m = b.rng.randint(10, 60)
    raw = generators.gen_random(2, m, 20, 3, 1, b.seed_int())
    impacts = (raw.impacts[0], tuple(min(a, c) for a, c in zip(raw.impacts[0], raw.impacts[1])))
    inst = make_instance(raw.valuations, impacts, aware=(False, True))
    name = b.add_instance("fastpath", inst)
    b.units.append([b.solve(name, Notion("ef1", "sa"), "fast-path", "random")])
    # sa-ef has no existence guarantee, so auto falls back to the exact search
    raw = generators.gen_random(3, 6, 9, 1, 1, b.seed_int())
    name = b.add_instance("small", raw)
    b.units.append([b.solve(name, Notion("ef", "sa"), "sa-ef-exact", "random")])


BLOCKS = {"exact-search": _exact_block, "oracle-scan": _oracle_block, "small-auto": _small_block}
# Share of a median call's wall time spent starting the interpreter and
# importing; it weighs the two halves of a calibration sample.  Taken from
# the traced runs' "share of call wall time: cli.spawn_import_ms" on the
# reference box: 0.79, 0.29 and 0.98 on the one-block suites (--smoke),
# 0.91, 0.26 and 0.97 on the full suites of seed 7.
SPAWN_SHARE = {"exact-search": 0.8, "oracle-scan": 0.3, "small-auto": 0.95}
# Blocks per suite: enough that one pass outlasts the measured seconds.
BLOCK_COUNTS = {"exact-search": 3, "oracle-scan": 7, "small-auto": 28}
SMOKE_BLOCK_COUNT = 1


def build(workload: str, seed: int, *, smoke: bool = False) -> Suite:
    if workload not in BLOCKS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    b = _Builder(workload, seed)
    for k in range(SMOKE_BLOCK_COUNT if smoke else BLOCK_COUNTS[workload]):
        BLOCKS[workload](b, k)
        b.end_block()
    return Suite(workload, seed, b.instances, b.calls)
