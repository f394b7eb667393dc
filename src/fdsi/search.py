"""Exact existence solvers: layered state-graph search and brute force.

The exact solver walks a layered directed acyclic graph depth first.  Layer k
holds the states reachable after assigning the first k items (input order),
and a state, kept as an (x, y, flags) key, records for every ordered agent
pair (a, b):

* ``x[a][b]``  the value, in a's eyes, of b's bundle so far;
* ``y[a][b]``  what "up to one item" may subtract from b's bundle at the end
  (a tracked removal value, or for ``efl`` a set of values, see below);
* optionally a flag per pair, set once b received an item with strictly
  higher impact for b than for a (which on impact-maximizing allocations is
  exactly when the awareness override fires).

Assigning an item only ever goes to one of its impact maximizers, so every
path encodes an impact-maximizing allocation.  How ``y`` evolves depends on
the notion: the one-removal family keeps a running maximum, and the
universal-item family branches on whether the new item becomes the single
tracked removal for the whole bundle.  The one-less-preferred notion keeps,
per pair, the frozenset of distinct positive values, in a's eyes, of the
items in b's bundle; assigning an item adds one value per observer and never
branches.  The set loses nothing the sink test reads (a zero value could only
pass a pair without envy, which passes anyway), and unlike a bitmask over
values its size does not grow with how large the values are.  A leaf (layer m)
accepts when the notion's closed-form condition holds on (x, y).

The brute-force oracle is independent of that encoding.  It scans candidate
owner tuples as an odometer in ``itertools.product`` order (per item, the
impact maximizers ascending, or every agent without the impact restriction).
It keeps the value and impact matrices of ``fairness.matrices`` up to date by
one item column per owner change.  It decides each candidate with the same
``fairness.decider`` that ``check`` uses, and builds an :class:`Allocation`
only for the answer it returns.  ``brute_force_solve`` and
``brute_force_count`` share that one scan.

The walk keeps one set of created states per layer and never enters a state
twice, and it tries successors in a fixed order, so the allocation it returns
(the first accepting path in that order) is reproducible.  That allocation is
always re-checked against the reference checkers, and a failed re-check
raises :class:`InternalError` (not an assert, so it also holds under
``python -O``); a negative answer means no accepting path exists.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace
from itertools import product

from . import fairness
from .fairness import BASES, SA_EMPTY, Notion, TARGET_BASES
from .model import (
    Allocation,
    BudgetExceededError,
    Instance,
    InternalError,
    ValidationError,
    all_maximizers,
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


def resolve_profile(
    inst: Instance, notion: Notion, profile=None
) -> tuple[bool, ...] | None:
    """Per-agent awareness used by the solvers (True means the override applies).

    An explicit profile wins; otherwise ``sa`` awareness reads the instance
    flags and no awareness means no overrides anywhere.  Alpha and wsa modes
    are out of reach for the state encoding (their overrides depend on impact
    sums, not on a per-pair bit) and are rejected.
    """
    if notion.awareness in ("alpha", "wsa"):
        raise UnsupportedNotionError(
            f"{notion.label()} is not solvable by the state search; "
            "use the brute-force oracle"
        )
    if profile is not None:
        prof = tuple(bool(b) for b in profile)
        if len(prof) != inst.n:
            raise ValidationError("awareness profile length must match agent count")
        return prof if any(prof) else None
    if notion.awareness == "sa":
        return inst.aware if any(inst.aware) else None
    return None


def _root_key(n: int, base: str, track: bool) -> tuple:
    """The (x, y, flags) key of layer 0.  ``x`` and ``y`` are row-major n*n
    tuples; ``y`` is empty for ``ef`` (nothing is ever removed), holds
    frozensets of values for ``efl`` and ints otherwise; ``flags`` is None
    unless a mixed-awareness profile is tracked."""
    if base == "ef":
        y = ()
    elif base == "efl":
        y = (frozenset(),) * (n * n)
    else:
        y = (0,) * (n * n)
    return (0,) * (n * n), y, (0,) * (n * n) if track else None


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


def _y_branches(
    y: tuple, n: int, c: int, vals: tuple[int, ...], base: str
) -> list[tuple]:
    if base == "ef":
        return [y]
    if base in ("ef1", "wef1", "tef1"):
        new_y = list(y)
        for a in range(n):
            idx = a * n + c
            if vals[a] > new_y[idx]:
                new_y[idx] = vals[a]
        return [tuple(new_y)]
    if base in TARGET_BASES:
        new_y = list(y)
        for a in range(n):
            new_y[a * n + c] = vals[a]
        branched = tuple(new_y)
        return [y] if branched == y else [y, branched]
    if base == "efl":
        new_y = list(y)
        for a in range(n):
            idx = a * n + c
            if vals[a] and vals[a] not in new_y[idx]:
                new_y[idx] = new_y[idx] | {vals[a]}
        return [tuple(new_y)]
    raise UnsupportedNotionError(f"no state encoding for base {base!r}")


def accepting_state(
    key: tuple,
    notion: Notion,
    weights: tuple[int, ...],
    profile: tuple[bool, ...] | None = None,
) -> bool:
    """Sink condition: does the final (x, y, flags) key satisfy the notion
    for all pairs?

    With an awareness profile, a pair (a, b) also passes when a is aware and
    the pair's flag is set.  For ``efl`` a pair passes without envy, when one
    item carries all of b's bundle value for a (at most one positively valued
    item), or when some value v in the pair's set has
    ``x_ab - x_aa <= v <= x_aa``.
    """
    x, y, flags = key
    n = math.isqrt(len(x))
    base = notion.base
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            if (
                profile is not None
                and profile[a]
                and flags is not None
                and flags[a * n + b]
            ):
                continue
            xaa = x[a * n + a]
            xab = x[a * n + b]
            yab = y[a * n + b] if y else 0
            if base == "ef":
                ok = xaa >= xab
            elif base in ("ef1", "sef1"):
                ok = xaa >= xab - yab
            elif base in ("wef1", "swef1"):
                ok = xaa * weights[b] >= (xab - yab) * weights[a]
            elif base == "tef1":
                ok = xaa + yab >= xab - yab
            elif base == "efl":
                ok = (
                    xaa >= xab
                    or xab in yab
                    or any(xab - xaa <= v <= xaa for v in yab)
                )
            else:
                raise UnsupportedNotionError(f"no sink condition for base {base!r}")
            if not ok:
                return False
    return True


def _expand_key(
    key: tuple,
    n: int,
    c_list: tuple[int, ...],
    vals: tuple[int, ...],
    impact_col: tuple[int, ...],
    base: str,
    track: bool,
) -> list[tuple[tuple, int]]:
    """The (key, assignee) pairs reachable by assigning one item, whose
    ``_item_params`` entry is (c_list, vals, impact_col): assignees
    ascending, then the y-branches.  A key may repeat; the caller drops
    repeats."""
    x, y, flags = key
    out: list[tuple[tuple, int]] = []
    for c in c_list:
        new_x = list(x)
        for a in range(n):
            new_x[a * n + c] += vals[a]
        nx = tuple(new_x)
        if track:
            new_f = list(flags)
            s_c = impact_col[c]
            for a in range(n):
                if s_c > impact_col[a]:
                    new_f[a * n + c] = 1
            nf = tuple(new_f)
        else:
            nf = None
        for ny in _y_branches(y, n, c, vals, base):
            out.append(((nx, ny, nf), c))
    return out


def exact_solve(
    inst: Instance,
    notion: Notion,
    profile=None,
    *,
    state_budget: int | None = None,
    stats: dict | None = None,
) -> Allocation | None:
    """Decide whether an impact-maximizing allocation satisfying the notion
    exists, and return one if so.

    ``profile`` optionally overrides the per-agent awareness (True = aware);
    by default it is derived from the notion and the instance flags.  The
    search is one iterative depth-first walk: a stack holds the successor
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
    prof = resolve_profile(inst, notion, profile)
    budget = default_state_budget() if state_budget is None else state_budget
    n, m = inst.n, inst.m
    base = notion.base
    track = prof is not None
    weights = inst.weights
    params = _item_params(inst)
    root = _root_key(n, base, track)
    seen: list[set] = [{root}] + [set() for _ in range(m)]
    visited = 1
    owners: list[int] = []  # the assignees on the current path
    stack = [iter(_expand_key(root, n, *params[0], base, track))] if m else []
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
            stack.append(iter(_expand_key(key, n, *params[g], base, track)))
        elif accepting_state(key, notion, weights, prof):
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
    _verify(inst, notion, prof, alloc)
    return alloc


def _verify(inst: Instance, notion: Notion, prof, alloc: Allocation) -> None:
    """Re-check a reconstructed allocation against the reference checkers."""
    if not fairness.is_sim(inst, alloc).fair:
        raise InternalError("search produced a non-maximizing allocation")
    eff_inst, eff_notion = _oracle_notion(inst, Notion(notion.base), prof)
    if not fairness.check(eff_inst, alloc, eff_notion).fair:
        raise InternalError(
            f"search accepted a state whose allocation fails {notion.label()}"
        )


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


def sim_allocation_count(inst: Instance) -> int:
    """Number of impact-maximizing complete allocations."""
    return math.prod(len(s) for s in all_maximizers(inst))


def _oracle_notion(inst: Instance, notion: Notion, profile) -> tuple[Instance, Notion]:
    """The instance and notion the oracle decides: a profile becomes the
    ``aware`` flags of plain-or-sa awareness."""
    if notion.base != SA_EMPTY:
        require_goods(inst)
    if profile is None:
        return inst, notion
    if notion.awareness not in (None, "sa"):
        raise ValidationError("profiles combine only with plain or sa awareness")
    prof = tuple(bool(b) for b in profile)
    if len(prof) != inst.n:
        raise ValidationError("awareness profile length must match agent count")
    eff_notion = Notion(notion.base, "sa") if notion.base != SA_EMPTY else notion
    return replace(inst, aware=prof), eff_notion


def _capped_columns(inst: Instance, require_sim: bool, cap: int):
    columns = candidate_columns(inst, require_sim)
    count = math.prod(len(c) for c in columns)
    if count > cap:
        kind = "impact-maximizing allocations" if require_sim else "allocations"
        raise BudgetExceededError(f"{count} {kind} exceed the cap of {cap}")
    return columns, count


def _scan(inst: Instance, notion: Notion, profile, require_sim: bool, cap: int):
    """Yield the owner tuple of every candidate passing the notion, in
    ``itertools.product`` order over the candidate columns.

    An odometer over the items with more than one choice: when an item
    changes owner, V and S move by that item's column in O(n), and every
    candidate is decided by the same ``fairness.decider`` as ``check``.
    """
    eff_inst, eff_notion = _oracle_notion(inst, notion, profile)
    columns, _ = _capped_columns(inst, require_sim, cap)
    fails = fairness.decider(eff_inst, eff_notion)
    owners = [col[0] for col in columns]
    V, S = fairness.matrices(eff_inst, owners)
    # the items with a choice, last item first (it varies fastest): index,
    # next owner after each owner (cyclic), first owner, and the item's
    # value and impact columns
    free = []
    for g in reversed(range(len(columns))):
        col = columns[g]
        if len(col) > 1:
            nxt = [0] * inst.n
            for a, b in zip(col, col[1:] + col[:1]):
                nxt[a] = b
            vcol = [row[g] for row in inst.valuations]
            scol = [row[g] for row in inst.impacts]
            free.append((g, nxt, col[0], vcol, scol))
    rows = list(zip(V, S))
    while True:
        if fails(V, S, owners) is None:
            yield tuple(owners)
        for g, nxt, first, vcol, scol in free:
            old = owners[g]
            new = owners[g] = nxt[old]
            for (Vi, Si), v, s in zip(rows, vcol, scol):
                Vi[old] -= v
                Vi[new] += v
                Si[old] -= s
                Si[new] += s
            if new != first:
                break
        else:
            return


def brute_force_solve(
    inst: Instance,
    notion: Notion,
    profile=None,
    *,
    require_sim: bool = True,
    cap: int = DEFAULT_BRUTE_CAP,
) -> Allocation | None:
    """Ground-truth oracle: scan candidate allocations and return the first
    one passing the notion check.

    With ``require_sim`` (the default) only impact-maximizing allocations are
    scanned, so the result is impact maximizing by construction; otherwise
    all n**m complete allocations are scanned and only the fairness check is
    applied.  Raises :class:`BudgetExceededError` when the candidate count
    exceeds ``cap``.
    """
    owners = next(_scan(inst, notion, profile, require_sim, cap), None)
    return None if owners is None else Allocation.from_assignment(inst.n, owners)


def brute_force_count(
    inst: Instance,
    notion: Notion | None,
    profile=None,
    *,
    require_sim: bool = True,
    cap: int = DEFAULT_BRUTE_CAP,
) -> int:
    """Number of candidate allocations passing the notion, over the same scan
    as :func:`brute_force_solve`; ``notion=None`` counts every candidate
    without a scan.  Raises :class:`BudgetExceededError` when the candidate
    count exceeds ``cap``."""
    if notion is None:
        return _capped_columns(inst, require_sim, cap)[1]
    return sum(1 for _ in _scan(inst, notion, profile, require_sim, cap))
