"""Exact existence solver: the layered state-graph search.

The exact solver walks a layered directed acyclic graph depth first.  Layer k
holds the states reachable after assigning the first k items (input order),
and a state records for every ordered agent pair (a, b):

* ``x_ab``  the value, in a's eyes, of b's bundle so far;
* ``y_ab``  for a != b, what "up to one item" may subtract from b's bundle
  at the end (a tracked removal value, or for ``efl`` the set of values);
* a flag when a is an aware observer, set once b received an item with
  strictly higher impact for b than for a (which on impact-maximizing
  allocations is exactly when the ``sa`` override fires).  The observers
  that carry flags are ``Notion.excusable``: the instance's ``aware`` flags
  under ``sa``, so mixed awareness is an instance with some flags off.

A state is one ``int``.  ``_Layout`` states where each pair's fields lie:
fixed bit offsets, each field as wide as the largest entry it can hold on the
instance, so no field spills into the next, the root is 0 for every base and
a layer is a set of ints.  Giving an item to an agent is an integer add and
an OR, then a per-observer maximum over one column of ``y`` or one join of
a Pareto set, so every move has one successor per assignee.  Assignees are
the item's impact maximizers, so a path is the owner tuple of an
impact-maximizing allocation.

How ``y`` moves follows from the base's ``Notion.rule``.  A universal rule
(``sef1``/``swef1``) keeps, as one id in ``y_bb``, b's Pareto set (the
maxima of a vector set; Kung, Luccio and Preparata, JACM 1975) of the value
vectors, to b's observers, of b's items: one removed item must serve them
all, and an item that another equals or beats for every observer serves no
one the other does not.  A capped rule (``efl``) keeps, per pair, the set
of distinct positive values, in a's eyes, of the items in b's bundle, one
bit per distinct positive value in a's row, so its width does not grow
with how large the values are (a zero value could only pass a pair without
envy, which passes anyway).  Any other rule with k > 0 keeps a running
maximum, and ``ef`` (k = 0) keeps no ``y``.

A leaf (layer m) accepts when every unflagged pair passes one removal test,
``x_aa * w_b >= (x_ab - k * y_ab) * w_a``, with the notion's weights
(``Notion.weights``) and the rule's k (ef 0, where y is absent and reads 0;
tef1 2; under a universal rule y_ab is a's value of one member of b's set
that all of b's observers share); only a capped rule tests its value set
instead.

The walk keeps one set of created states per layer and never enters a state
twice, and it tries assignees ascending, so the allocation it returns is the
first accepting owner tuple in ``itertools.product`` order: the answer of
the brute-force oracle (``oracle``, which shares no code with the walk), for
every base.  That allocation is always re-checked by ``fairness.certify``,
and a failed re-check raises :class:`InternalError` (not an assert, so it
also holds under ``python -O``); a negative answer means no accepting path
exists.
"""

from __future__ import annotations

import os
from itertools import product

from . import fairness
from .fairness import BASES, Notion
from .model import (
    Allocation,
    BudgetExceededError,
    Instance,
    InternalError,
    ValidationError,
    all_maximizers,  # not called here; perfbench/tracing.py patches this binding
    candidate_columns,
    require_budget,
    require_goods,
)

DEFAULT_STATE_BUDGET = 10**7
STATE_BUDGET_ENV = "FDSI_STATE_BUDGET"


class UnsupportedNotionError(ValidationError):
    """The exact solver cannot encode this notion; use the brute-force oracle."""


def default_state_budget() -> int:
    """Default state budget, overridable via the FDSI_STATE_BUDGET variable."""
    raw = os.environ.get(STATE_BUDGET_ENV)
    if raw is None:
        return DEFAULT_STATE_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{STATE_BUDGET_ENV} must be an integer") from exc
    if value < 1:
        raise ValidationError(f"{STATE_BUDGET_ENV} must be positive")
    return value


def _less_preferred(xaa: int, xab: int, yab: int, values: list[int]) -> bool:
    # an envious pair: one item carries all of b's bundle value for a (at most
    # one positive item), or some value v in the set has x_ab - x_aa <= v <= x_aa
    held = [v for i, v in enumerate(values) if yab >> i & 1]
    return xab in held or any(xab - xaa <= v <= xaa for v in held)


class _Layout:
    """Where each field of a search key lies, for one instance and notion.

    A key is one ``int``.  Each ordered pair p = a*n + b, row-major from the
    low bits up, owns three unsigned fields, given as (shift, mask) in
    ``x[p]``, ``y[p]`` and ``flag[p]``: ``x_ab``, as wide as a's row sum;
    ``y_ab`` for a != b, as wide as a's largest value, or for "bits" one bit
    per distinct positive value in a's row (bit i for ``values[a][i]``, the
    i-th smallest; ``bit_of[a]`` maps each value to its i), or under
    "pareto" only ``y_bb``, the id of b's Pareto set in ``sets``; and a
    1-bit flag when a is an excusable observer of b != a.  A field of width
    0 (mask 0) is absent, so the root is 0.

    An item's class for target b is its value column with b's entry 0; b's
    set holds the classes of b's items that no other one equals or beats
    for every observer, and id 0 is the empty bundle's, the zero class.  A
    successor creates at most one set, so the id field is sized for the
    1 + n*budget sets a walk of ``budget`` states can meet.

    ``moves[g]`` lists, per impact maximizer c of item g in the order of
    ``candidate_columns``, what giving g to c does: (c, the int that adds
    the item's values to column c of x, the OR mask of the flags and value
    bits it sets, the raises, the join).  The raises are, for "max", the
    (mask, value) of each ``y_ac`` field that a's positive value may raise;
    the join is, for "pareto", the shift of ``y_cc`` and the item's class
    for c, and None otherwise.
    """

    def __init__(self, inst: Instance, notion: Notion, budget: int = DEFAULT_STATE_BUDGET):
        if notion.base not in BASES:
            raise UnsupportedNotionError(
                f"state search supports bases {BASES}, not {notion.base!r}"
            )
        # alpha and wsa overrides depend on impact sums, not on a per-pair
        # bit, so the encoding cannot carry them
        if notion.awareness in ("alpha", "wsa"):
            raise UnsupportedNotionError(
                f"{notion.label()} is not solvable by the state search; "
                "use the brute-force oracle"
            )
        n = self.n = inst.n
        rows = inst.valuations
        rule = notion.rule()
        self.k = rule.k
        # y keeps a Pareto set per bundle, a value set per pair, a running maximum or nothing
        self.ymove = ("pareto" if rule.universal else "bits" if rule.capped
                      else "max" if rule.k else None)
        w, excusable = notion.weights(inst), notion.excusable(inst)
        self.values = [sorted(set(row) - {0}) for row in rows]
        if self.ymove == "bits":
            self.bit_of = [{v: i for i, v in enumerate(values)} for values in self.values]
        self.id_mask = (1 << (n * budget).bit_length()) - 1 if self.ymove == "pareto" else 0
        self.sets = [frozenset({(0,) * n})]
        self.ids, self.joins = {self.sets[0]: 0}, {}
        self.x, self.y, self.flag = [], [], []
        shift = 0
        for a, row in enumerate(rows):
            y_width = (len(self.values[a]) if self.ymove == "bits"
                       else max(row, default=0).bit_length() * (self.ymove == "max"))
            for b in range(n):
                for fields, width in (
                    (self.x, sum(row).bit_length()),
                    (self.y, self.id_mask.bit_length() if a == b else y_width),
                    (self.flag, int(excusable[a] and a != b)),
                ):
                    fields.append((shift, (1 << width) - 1))
                    shift += width
        self.moves = [
            [self._move(inst, g, c) for c in column]
            for g, column in enumerate(candidate_columns(inst))
        ]
        # per target b, y_bb's field and the leaf's pairs (a, b), a != b: the
        # flag bit, x_aa, x_ab, y_ab, the weights, a's values, and a
        self.targets = []
        for b in range(n):
            pairs = []
            for a in range(n):
                if a != b:
                    shift, mask = self.flag[a * n + b]
                    pairs.append((mask << shift, self.x[a * n + a], self.x[a * n + b],
                                  self.y[a * n + b], w[a], w[b], self.values[a], a))
            self.targets.append((self.y[b * n + b], pairs))

    def _move(self, inst: Instance, g: int, c: int) -> tuple:
        """The ``moves`` entry of giving item g to c."""
        add = bits = 0
        raised = []
        for a, row in enumerate(inst.valuations):
            v = row[g]
            p = a * self.n + c
            add += v << self.x[p][0]
            y_shift, y_mask = self.y[p]
            flag_shift, flag_mask = self.flag[p]
            if flag_mask and inst.impacts[c][g] > inst.impacts[a][g]:
                bits |= 1 << flag_shift
            if self.ymove == "bits" and y_mask and v:
                bits |= 1 << (y_shift + self.bit_of[a][v])
            elif self.ymove == "max" and y_mask and v:
                raised.append((y_mask << y_shift, v << y_shift))
        if self.ymove != "pareto":
            return c, add, bits, raised, None
        cls = tuple(0 if a == c else row[g] for a, row in enumerate(inst.valuations))
        return c, add, bits, raised, (self.y[c * self.n + c][0], cls)

    def _join(self, held: int, cls: tuple[int, ...]) -> int:
        """The id of Pareto set ``held`` once an item of class ``cls`` joins
        it: ``held`` when a member equals or beats ``cls`` for every
        observer, else ``cls`` and the members it does not beat."""
        joined = self.joins.get((held, cls))
        if joined is None:
            members = self.sets[held]
            if not any(all(u >= v for u, v in zip(member, cls)) for member in members):
                members = frozenset(
                    m for m in members if not all(u >= v for u, v in zip(cls, m))
                ) | {cls}
            joined = self.joins[held, cls] = self.ids.setdefault(members, len(self.sets))
            if joined == len(self.sets):
                if joined > self.id_mask:
                    raise InternalError(f"Pareto set id {joined} does not fit its field")
                self.sets.append(members)
        return joined

    def successors(self, key: int, g: int) -> list[tuple[int, int]]:
        """The (key, assignee) pairs of giving item g, one per assignee,
        ascending.  A key may repeat; the walk drops repeats."""
        out = []
        for c, add, bits, raised, join in self.moves[g]:
            k = (key + add) | bits
            for mask, v in raised:
                if k & mask < v:
                    k += v - (k & mask)
            if join is not None:
                shift, cls = join
                held = k >> shift & self.id_mask
                k += (self._join(held, cls) - held) << shift
            out.append((k, c))
        return out

    def accepts(self, key: int) -> bool:
        """Sink condition: does the final key satisfy the base for every
        ordered pair?

        A flagged pair passes (only excusable observers carry a flag), and
        so does a pair without envy; every other pair must pass the removal
        test ``x_aa * w_b >= (x_ab - k * y_ab) * w_a``, under "pareto" with
        a's value of one class of b's set that b's observers share, or
        under ``efl`` the test of the value set.
        """
        k, efl = self.k, self.ymove == "bits"
        for (s_id, m_id), pairs in self.targets:
            live = []  # under "pareto", (a, w_a, x_ab * w_a - x_aa * w_b)
            for flag, (s_aa, m_aa), (s_ab, m_ab), (s_y, m_y), wa, wb, values, a in pairs:
                xaa, xab = key >> s_aa & m_aa, key >> s_ab & m_ab
                need = xab * wa - xaa * wb
                if need <= 0 or key & flag:
                    continue
                if m_id:
                    live.append((a, wa, need))
                elif not efl:
                    if k * (key >> s_y & m_y) * wa < need:
                        return False
                elif not _less_preferred(xaa, xab, key >> s_y & m_y, values):
                    return False
            if live and not any(all(k * cls[a] * wa >= need for a, wa, need in live)
                                for cls in self.sets[key >> s_id & m_id]):
                return False
        return True


def exact_solve(
    inst: Instance,
    notion: Notion,
    *,
    state_budget: int | None = None,
    stats: dict | None = None,
) -> Allocation | None:
    """Decide whether an impact-maximizing allocation satisfying the notion
    exists, and return one if so.

    Under ``sa`` the instance's ``aware`` flags say which observers the
    override applies to; mixed awareness is an instance with some flags off.
    The search is one iterative depth-first walk: a stack holds the successor
    iterator of each state on the current path (assignees ascending), and
    the path's assignees are the answer, so no parent pointers are kept.
    One set per layer holds the states created there; a state met again is
    skipped, because a layer is only reached from the one before it, so its
    subtree has already failed.  The answer is the accepting leaf with the
    lexicographically smallest path, the first fair owner tuple, as
    ``oracle.brute_force_solve`` finds it; a negative answer has created every
    reachable state.

    Raises :class:`BudgetExceededError` once more than ``state_budget``
    states have been created, so a budget overrun is never reported as a
    negative answer, and :class:`InternalError` if the found allocation
    fails the reference re-check.  When ``stats`` is a dict, it receives
    ``visited`` (states created, the root included) and ``layer_sizes``
    (the size of each layer's set, layers 0 to m).
    """
    require_goods(inst)
    budget = default_state_budget() if state_budget is None else state_budget
    require_budget(budget, "state budget")
    layout = _Layout(inst, notion, budget)
    m = inst.m
    seen: list[set[int]] = [{0}] + [set() for _ in range(m)]
    visited = 1
    owners: list[int] = []  # the assignees on the current path
    stack = [iter(layout.successors(0, 0))] if m else []
    while stack:
        g = len(stack)  # the layer the top iterator's successors lie on
        layer = seen[g]
        for key, c in stack[-1]:
            if key not in layer:
                break
        else:
            stack.pop()
            if owners:
                owners.pop()
            continue
        layer.add(key)
        visited += 1
        if visited > budget:
            raise BudgetExceededError(
                f"state budget of {budget} exceeded at layer {g}"
            )
        if g < m:
            owners.append(c)
            stack.append(iter(layout.successors(key, g)))
        elif layout.accepts(key):
            owners.append(c)
            break
    if stats is not None:
        stats["visited"] = visited
        stats["layer_sizes"] = list(map(len, seen))
    # an exhausted walk has emptied the path; with no items the root is the
    # only leaf, and it accepts (every x is 0)
    if len(owners) < m:
        return None
    alloc = Allocation.from_assignment(inst.n, owners)
    verdict = fairness.certify(inst, alloc, notion)
    if not verdict.fair:
        raise InternalError(f"search accepted an allocation that fails {verdict.witness.reason}")
    return alloc


def enumerate_sim_allocations(inst: Instance):
    """Iterate every impact-maximizing complete allocation in lexicographic
    order (per item, maximizers ascending; item order is input order)."""
    for owners in product(*candidate_columns(inst)):
        yield Allocation.from_assignment(inst.n, owners)


def __getattr__(name: str):
    # the oracle's two solvers still read from here; the first read loads it
    if name not in ("brute_force_solve", "brute_force_count"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value
