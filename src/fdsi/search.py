"""Exact existence solvers: layered state-graph search and brute force.

The exact solver walks a layered directed acyclic graph depth first.  Layer k
holds the states reachable after assigning the first k items (input order),
and a state, kept as an (x, y, flags) key, records for every ordered agent
pair (a, b):

* ``x[a][b]``  the value, in a's eyes, of b's bundle so far;
* ``y[a][b]``  what "up to one item" may subtract from b's bundle at the end
  (a tracked removal value, or for ``efl`` a set of values, see below);
* optionally a flag per pair (a, b) with an aware observer a, set once b
  received an item with strictly higher impact for b than for a (which on
  impact-maximizing allocations is exactly when the ``sa`` override fires).
  Awareness is read from the instance's ``aware`` flags under an ``sa``
  notion only, so mixed awareness is an instance with some flags off.

Assigning an item only ever goes to one of its impact maximizers, so every
path encodes an impact-maximizing allocation.  How ``y`` starts and evolves,
and what a leaf (layer m) tests per pair, is one entry per base of
``_ENCODING``: the one-removal family keeps a running maximum, and the
universal-item family branches on whether the new item becomes the single
tracked removal for the whole bundle.  The one-less-preferred notion keeps,
per pair, the frozenset of distinct positive values, in a's eyes, of the
items in b's bundle; assigning an item adds one value per observer and never
branches.  The set loses nothing the sink test reads (a zero value could only
pass a pair without envy, which passes anyway), and unlike a bitmask over
values its size does not grow with how large the values are.  A leaf accepts
when every unflagged pair passes the base's closed-form test on (x, y).

The brute-force oracle is independent of that encoding.  It scans candidate
owner tuples as an odometer in ``itertools.product`` order (per item, the
impact maximizers ascending, or every agent without the impact restriction).
It keeps up to date those of the value and impact matrices of
``fairness.matrices`` that the decider reads: when an item changes owner,
only the nonzero entries of that item's columns move, from the old owner's
column of the matrix to the new one's.  It decides each candidate with the same
``fairness.decider`` that ``check`` uses, and builds an :class:`Allocation`
only for the answer it returns.  ``brute_force_solve`` and
``brute_force_count`` share that one scan, and the candidate cap bounds the
candidate set on every path, ``notion=None`` included.

The walk keeps one set of created states per layer and never enters a state
twice, and it tries successors in a fixed order, so the allocation it returns
(the first accepting path in that order) is reproducible.  That allocation is
always re-checked by ``fairness.certify``, and a failed re-check
raises :class:`InternalError` (not an assert, so it also holds under
``python -O``); a negative answer means no accepting path exists.
"""

from __future__ import annotations

import math
import os
from itertools import product

from . import fairness
from .fairness import BASES, SA_EMPTY, WEIGHTED_BASES, Notion
from .model import (
    Allocation,
    BudgetExceededError,
    Instance,
    InternalError,
    ValidationError,
    all_maximizers,
    require_budget,
    require_goods,
)

DEFAULT_STATE_BUDGET = 10**7
DEFAULT_BRUTE_CAP = 10**7
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


def _aware_flags(inst: Instance, notion: Notion) -> tuple[bool, ...] | None:
    """The ``aware`` flags the walk tracks: the instance's under ``sa`` when
    some agent is aware, else None (no override fires anywhere).

    Alpha and wsa modes are out of reach for the state encoding (their
    overrides depend on impact sums, not on a per-pair bit) and are rejected.
    """
    if notion.awareness in ("alpha", "wsa"):
        raise UnsupportedNotionError(
            f"{notion.label()} is not solvable by the state search; "
            "use the brute-force oracle"
        )
    if notion.awareness == "sa" and any(inst.aware):
        return inst.aware
    return None


# -- per-base encoding ---------------------------------------------------------
#
# A column step maps ``y`` and the assignee c of an item whose values, one per
# observer, are ``vals`` to the y-branches of the successor; column c of the
# row-major ``y`` is the slice ``y[c::n]``.  A leaf test decides one ordered
# pair (a, b) from ``x_aa``, ``x_ab``, ``y_ab`` and the pair's weights.


def _keep(y: tuple, n: int, c: int, vals: tuple[int, ...]) -> tuple:
    return (y,)


def _running_max(y: tuple, n: int, c: int, vals: tuple[int, ...]) -> tuple:
    new_y = list(y)
    for a in range(n):
        if vals[a] > new_y[a * n + c]:
            new_y[a * n + c] = vals[a]
    return (tuple(new_y),)


def _keep_or_set(y: tuple, n: int, c: int, vals: tuple[int, ...]) -> tuple:
    # keep the universal removal, or make this item the removal for every
    # observer of the bundle
    if y[c::n] == vals:
        return (y,)
    new_y = list(y)
    new_y[c::n] = vals
    return y, tuple(new_y)


def _add_value(y: tuple, n: int, c: int, vals: tuple[int, ...]) -> tuple:
    new_y = list(y)
    for a in range(n):
        v = vals[a]
        if v and v not in new_y[a * n + c]:
            new_y[a * n + c] = new_y[a * n + c] | {v}
    return (tuple(new_y),)


def _no_envy(xaa: int, xab: int, yab, wa: int, wb: int) -> bool:
    return xaa >= xab


def _weighted_removal(xaa: int, xab: int, yab: int, wa: int, wb: int) -> bool:
    return xaa * wb >= (xab - yab) * wa


def _transfer(xaa: int, xab: int, yab: int, wa: int, wb: int) -> bool:
    return xaa + yab >= xab - yab


def _less_preferred(xaa: int, xab: int, yab: frozenset, wa: int, wb: int) -> bool:
    # no envy, one item carries all of b's bundle value for a (at most one
    # positive item), or some value v with x_ab - x_aa <= v <= x_aa
    return xaa >= xab or xab in yab or any(xab - xaa <= v <= xaa for v in yab)


# base -> (the y entry of every pair at the root, None when no y is tracked;
# column step; leaf test)
_ENCODING = {
    "ef": (None, _keep, _no_envy),
    "ef1": (0, _running_max, _weighted_removal),
    "wef1": (0, _running_max, _weighted_removal),
    "tef1": (0, _running_max, _transfer),
    "sef1": (0, _keep_or_set, _weighted_removal),
    "swef1": (0, _keep_or_set, _weighted_removal),
    "efl": (frozenset(), _add_value, _less_preferred),
}


def _root_key(n: int, base: str, track: bool) -> tuple:
    """The (x, y, flags) key of layer 0.  ``x``, ``y`` and ``flags`` are
    row-major n*n tuples; ``y`` is empty when the base tracks no removal
    (``ef``), and ``flags`` is None unless some observer is aware."""
    y0 = _ENCODING[base][0]
    zeros = (0,) * (n * n)
    return zeros, () if y0 is None else (y0,) * (n * n), zeros if track else None


def _item_params(inst: Instance) -> tuple:
    """Per item: its impact maximizers ascending, then its value and impact
    columns (one entry per agent)."""
    return tuple(
        (
            tuple(sorted(maxset)),
            tuple(row[g] for row in inst.valuations),
            tuple(row[g] for row in inst.impacts),
        )
        for g, maxset in enumerate(all_maximizers(inst))
    )


def accepting_state(key: tuple, base: str, weights: tuple[int, ...]) -> bool:
    """Sink condition: does the final (x, y, flags) key satisfy ``base`` for
    every ordered pair?

    A flagged pair passes (only aware observers are ever flagged); every
    other pair must pass the base's leaf test.  ``weights`` are the pair
    weights of that test: the instance weights for ``wef1``/``swef1``, ones
    otherwise.
    """
    x, y, flags = key
    n = len(weights)
    ok = _ENCODING[base][2]
    y = y or (0,) * (n * n)
    for a in range(n):
        row = a * n
        xaa, wa = x[row + a], weights[a]
        for b in range(n):
            if b == a or (flags is not None and flags[row + b]):
                continue
            if not ok(xaa, x[row + b], y[row + b], wa, weights[b]):
                return False
    return True


def _expand_key(
    key: tuple,
    n: int,
    c_list: tuple[int, ...],
    vals: tuple[int, ...],
    impact_col: tuple[int, ...],
    step,
    aware: tuple[bool, ...] | None,
) -> list[tuple[tuple, int]]:
    """The (key, assignee) pairs reachable by assigning one item, whose
    ``_item_params`` entry is (c_list, vals, impact_col): assignees
    ascending, then the y-branches of the base's column ``step``.  With
    ``aware`` flags, pair (a, c) is flagged once c receives an item with
    strictly higher impact for c than for an aware a.  A key may repeat; the
    caller drops repeats."""
    x, y, flags = key
    out: list[tuple[tuple, int]] = []
    for c in c_list:
        new_x = list(x)
        for a in range(n):
            new_x[a * n + c] += vals[a]
        nx = tuple(new_x)
        nf = flags
        if aware is not None:
            new_f = list(flags)
            s_c = impact_col[c]
            for a in range(n):
                if aware[a] and s_c > impact_col[a]:
                    new_f[a * n + c] = 1
            nf = tuple(new_f)
        for ny in step(y, n, c, vals):
            out.append(((nx, ny, nf), c))
    return out


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
    iterator of each state on the current path (assignees ascending, then
    y-branches), and the path's assignees are the answer, so no parent
    pointers are kept.  One set per layer holds the states created there; a
    state met again is skipped, because a layer is only reached from the
    one before it, so its subtree has already failed.  The answer is the
    accepting leaf with the lexicographically smallest path; a negative
    answer has created every reachable state.

    Raises :class:`BudgetExceededError` once more than ``state_budget``
    states have been created, so a budget overrun is never reported as a
    negative answer, and :class:`InternalError` if the found allocation
    fails the reference re-check.  When ``stats`` is a dict, it receives
    ``visited`` (states created, the root included) and ``layer_sizes``
    (the size of each layer's set, layers 0 to m).
    """
    require_goods(inst)
    if notion.base not in BASES:
        raise UnsupportedNotionError(
            f"state search supports bases {BASES}, not {notion.base!r}"
        )
    aware = _aware_flags(inst, notion)
    budget = default_state_budget() if state_budget is None else state_budget
    require_budget(budget, "state budget")
    n, m = inst.n, inst.m
    base = notion.base
    step = _ENCODING[base][1]
    weights = inst.weights if base in WEIGHTED_BASES else (1,) * n
    params = _item_params(inst)
    root = _root_key(n, base, aware is not None)
    seen: list[set] = [{root}] + [set() for _ in range(m)]
    visited = 1
    owners: list[int] = []  # the assignees on the current path
    stack = [iter(_expand_key(root, n, *params[0], step, aware))] if m else []
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
            stack.append(iter(_expand_key(key, n, *params[g], step, aware)))
        elif accepting_state(key, base, weights):
            owners.append(c)
            break
    if stats is not None:
        stats["visited"] = visited
        stats["layer_sizes"] = list(map(len, seen))
    # an exhausted walk has emptied the path; with no items the root is the
    # only leaf, and it accepts (every x is 0)
    if len(owners) < m:
        return None
    alloc = Allocation.from_assignment(n, owners)
    verdict = fairness.certify(inst, alloc, notion)
    if not verdict.fair:
        raise InternalError(f"search accepted an allocation that fails {verdict.witness.reason}")
    return alloc


def candidate_columns(inst: Instance, require_sim: bool = True) -> list[tuple[int, ...]]:
    """Owner choices per item, in scan order: the impact maximizers ascending
    or, without ``require_sim``, every agent."""
    if require_sim:
        return [tuple(sorted(s)) for s in all_maximizers(inst)]
    return [tuple(range(inst.n))] * inst.m


def enumerate_sim_allocations(inst: Instance):
    """Iterate every impact-maximizing complete allocation in lexicographic
    order (per item, maximizers ascending; item order is input order)."""
    for owners in product(*candidate_columns(inst)):
        yield Allocation.from_assignment(inst.n, owners)


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
    """Yield the owner list of every candidate passing the notion, in
    ``itertools.product`` order over the candidate columns.  The list is the
    scan's own and changes when the scan resumes; a caller that keeps one
    copies it.

    An odometer over the items with more than one choice.  Each such item
    carries its moves, computed once: the nonzero entries of its value and
    impact columns, for the matrices the decider reads (``fairness.reads``).
    When the item changes owner, each move shifts one entry of V or S from
    the old owner's column to the new one's, and every candidate is decided
    by the same ``fairness.decider`` as ``check``.
    """
    if notion.base != SA_EMPTY:
        require_goods(inst)
    columns, _ = _capped_columns(inst, require_sim, cap)
    fails = fairness.decider(inst, notion)
    owners = [col[0] for col in columns]
    V, S = fairness.matrices(inst, owners)
    # each matrix the decider reads, with the instance matrix it sums
    tracked = [
        (matrix, source)
        for matrix, source, read in zip(
            (V, S), (inst.valuations, inst.impacts), fairness.reads(inst, notion)
        )
        if read
    ]
    # the items with a choice, last item first (it varies fastest): index,
    # next owner after each owner (cyclic), first owner, and the item's moves,
    # (matrix row, entry) for each nonzero entry the decider reads
    free = []
    for g in reversed(range(len(columns))):
        col = columns[g]
        if len(col) > 1:
            nxt = [0] * inst.n
            for a, b in zip(col, col[1:] + col[:1]):
                nxt[a] = b
            moves = [
                (row, source_row[g])
                for matrix, source in tracked
                for row, source_row in zip(matrix, source)
                if source_row[g]
            ]
            free.append((g, nxt, col[0], moves))
    while True:
        if fails(V, S, owners) is None:
            yield owners
        for g, nxt, first, moves in free:
            old = owners[g]
            new = owners[g] = nxt[old]
            for row, v in moves:
                row[old] -= v
                row[new] += v
            if new != first:
                break
        else:
            return


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
    else:
        owners = next(_scan(inst, notion, require_sim, cap), None)
    return None if owners is None else Allocation.from_assignment(inst.n, owners)


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
    return sum(1 for _ in _scan(inst, notion, require_sim, cap))
