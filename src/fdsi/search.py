"""Exact existence solvers: layered state-graph search and brute force.

The exact solver walks a layered directed acyclic graph.  Layer k holds the
states reachable after assigning the first k items (input order), and a state
records, for every ordered agent pair (a, b):

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
values its size does not grow with how large the values are.  Acceptance at
the last layer evaluates the notion's closed-form condition on (x, y).

The brute-force oracle is independent of that encoding.  It scans candidate
owner tuples as an odometer in ``itertools.product`` order (per item, the
impact maximizers ascending, or every agent without the impact restriction).
It keeps the value and impact matrices of ``fairness.matrices`` up to date by
one item column per owner change.  It decides each candidate with the same
``fairness.decider`` that ``check`` uses, and builds an :class:`Allocation`
only for the answer it returns.  ``brute_force_solve`` and
``brute_force_count`` share that one scan.

An allocation the exact solver returns is always re-checked against the
reference checkers, and a failed re-check raises :class:`InternalError` (not
an assert, so it also holds under ``python -O``); a negative answer means no
accepting path exists.  States are deduplicated per layer and expanded in
deterministic order, so results are reproducible.
"""

from __future__ import annotations

import heapq
import math
import os
from dataclasses import dataclass, replace
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
    impact_maximizers,
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


@dataclass(frozen=True)
class SearchState:
    """One vertex of the layered graph; ``x``/``y`` are row-major n*n tuples.

    ``y`` is empty for the plain envy-free notion (nothing is ever removed),
    holds frozensets of values for ``efl`` and ints otherwise; ``flags`` is
    None unless a mixed-awareness profile is being tracked.
    """

    layer: int
    n: int
    x: tuple[int, ...]
    y: tuple
    flags: tuple[int, ...] | None = None

    @classmethod
    def initial(cls, n: int, base: str, track_flags: bool) -> "SearchState":
        if base == "ef":
            y = ()
        elif base == "efl":
            y = (frozenset(),) * (n * n)
        else:
            y = (0,) * (n * n)
        flags = (0,) * (n * n) if track_flags else None
        return cls(layer=0, n=n, x=(0,) * (n * n), y=y, flags=flags)

    @classmethod
    def from_matrices(
        cls,
        layer: int,
        x,
        y=None,
        flags=None,
    ) -> "SearchState":
        n = len(x)
        flat_x = tuple(v for row in x for v in row)
        flat_y = () if y is None else tuple(v for row in y for v in row)
        flat_f = None if flags is None else tuple(int(v) for row in flags for v in row)
        return cls(layer=layer, n=n, x=flat_x, y=flat_y, flags=flat_f)


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


def successor_states(
    inst: Instance,
    state: SearchState,
    item: int,
    notion: Notion,
) -> list[tuple[SearchState, int]]:
    """All (state, assignee) pairs reachable by assigning ``item``.

    One branch per impact maximizer of the item; the universal-item notions
    add their y-branches on top.  Duplicates are dropped, first-generated
    wins, and the order is deterministic.
    """
    n = state.n
    c_list = tuple(sorted(impact_maximizers(inst, item)))
    vals = tuple(inst.valuations[a][item] for a in range(n))
    impact_col = tuple(inst.impacts[a][item] for a in range(n))
    track = state.flags is not None
    out: list[tuple[SearchState, int]] = []
    seen: set[tuple] = set()
    for key, assignee in _expand_key(
        (state.x, state.y, state.flags), n, c_list, vals, impact_col,
        notion.base, track,
    ):
        if key not in seen:
            seen.add(key)
            x, y, flags = key
            out.append(
                (SearchState(layer=state.layer + 1, n=n, x=x, y=y, flags=flags),
                 assignee)
            )
    return out


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
    state: SearchState,
    notion: Notion,
    weights: tuple[int, ...],
    profile: tuple[bool, ...] | None = None,
) -> bool:
    """Sink condition: does the final (x, y) satisfy the notion for all pairs?

    With an awareness profile, a pair (a, b) also passes when a is aware and
    the pair's flag is set.  For ``efl`` a pair passes without envy, when one
    item carries all of b's bundle value for a (at most one positively valued
    item), or when some value v in the pair's set has
    ``x_ab - x_aa <= v <= x_aa``.
    """
    n = state.n
    base = notion.base
    x = state.x
    y = state.y
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            if (
                profile is not None
                and profile[a]
                and state.flags is not None
                and state.flags[a * n + b]
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
    """Successor keys of one (x, y, flags) key for a fixed item (fast path)."""
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
    best_first: bool = False,
    stats: dict | None = None,
) -> Allocation | None:
    """Decide whether an impact-maximizing allocation satisfying the notion
    exists, and return one if so.

    ``profile`` optionally overrides the per-agent awareness (True = aware);
    by default it is derived from the notion and the instance flags.  The
    search is a single-threaded, layer-synchronous frontier walk with
    duplicate elimination; every base except the universal-item ones gives
    each assignee exactly one successor (``efl`` through its per-pair value
    sets).  ``best_first`` switches to an experimental deepest-first
    expansion that can reach a witness sooner but may return a different
    (equally valid) allocation.  Raises :class:`BudgetExceededError` once
    more than ``state_budget`` states have been created, so a budget overrun
    is never reported as a negative answer, and :class:`InternalError` if
    the found allocation fails the reference re-check.  When ``stats`` is a
    dict, it receives ``visited`` (states created) and, for the layered
    walk, ``layer_sizes``.
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
    maxsets = all_maximizers(inst)
    item_params = tuple(
        (
            tuple(sorted(maxsets[g])),
            tuple(inst.valuations[a][g] for a in range(n)),
            tuple(inst.impacts[a][g] for a in range(n)),
        )
        for g in range(m)
    )
    root = SearchState.initial(n, base, track)
    root_key = (root.x, root.y, root.flags)
    layers: list[dict] = [{root_key: None}]
    visited = 1

    def check_result(owners: list[int]) -> Allocation:
        alloc = Allocation.from_assignment(n, owners)
        _verify(inst, notion, prof, alloc)
        return alloc

    def reconstruct(final_key: tuple) -> list[int]:
        owners: list[int] = [0] * m
        key = final_key
        for layer in range(m, 0, -1):
            prev_key, assignee = layers[layer][key]
            owners[layer - 1] = assignee
            key = prev_key
        return owners

    if best_first:
        result = _best_first_solve(
            inst, notion, prof, item_params, root_key, budget, stats
        )
        return result

    frontier = layers[0]
    for g in range(m):
        c_list, vals, impact_col = item_params[g]
        nxt: dict = {}
        for key in frontier:
            for succ_key, assignee in _expand_key(
                key, n, c_list, vals, impact_col, base, track
            ):
                if succ_key not in nxt:
                    nxt[succ_key] = (key, assignee)
                    visited += 1
                    if visited > budget:
                        raise BudgetExceededError(
                            f"state budget of {budget} exceeded at layer {g + 1}"
                        )
        layers.append(nxt)
        frontier = nxt
    if stats is not None:
        stats["visited"] = visited
        stats["layer_sizes"] = [len(layer) for layer in layers]
    weights = inst.weights
    for key in frontier:
        x, y, flags = key
        state = SearchState(layer=m, n=n, x=x, y=y, flags=flags)
        if accepting_state(state, notion, weights, prof):
            return check_result(reconstruct(key))
    return None


def _best_first_solve(
    inst: Instance,
    notion: Notion,
    prof,
    item_params,
    root_key,
    budget: int,
    stats: dict | None,
) -> Allocation | None:
    n, m = inst.n, inst.m
    base = notion.base
    track = prof is not None
    layers: list[dict] = [dict() for _ in range(m + 1)]
    layers[0][root_key] = None
    visited = 1
    heap: list[tuple[int, int, tuple]] = [(0, 0, root_key)]
    seq = 1
    weights = inst.weights
    while heap:
        neg_layer, _, key = heapq.heappop(heap)
        layer = -neg_layer
        if layer == m:
            x, y, flags = key
            state = SearchState(layer=m, n=n, x=x, y=y, flags=flags)
            if accepting_state(state, notion, weights, prof):
                owners: list[int] = [0] * m
                walk = key
                for lv in range(m, 0, -1):
                    prev_key, assignee = layers[lv][walk]
                    owners[lv - 1] = assignee
                    walk = prev_key
                alloc = Allocation.from_assignment(n, owners)
                _verify(inst, notion, prof, alloc)
                if stats is not None:
                    stats["visited"] = visited
                return alloc
            continue
        c_list, vals, impact_col = item_params[layer]
        for succ_key, assignee in _expand_key(
            key, n, c_list, vals, impact_col, base, track
        ):
            if succ_key not in layers[layer + 1]:
                layers[layer + 1][succ_key] = (key, assignee)
                visited += 1
                if visited > budget:
                    raise BudgetExceededError(f"state budget of {budget} exceeded")
                heapq.heappush(heap, (-(layer + 1), seq, succ_key))
                seq += 1
    if stats is not None:
        stats["visited"] = visited
    return None


def _verify(inst: Instance, notion: Notion, prof, alloc: Allocation) -> None:
    """Re-check a reconstructed allocation against the reference checkers."""
    if not fairness.is_sim(inst, alloc).fair:
        raise InternalError("search produced a non-maximizing allocation")
    eff_inst, eff_notion = _effective(inst, notion, prof)
    if not fairness.check(eff_inst, alloc, eff_notion).fair:
        raise InternalError(
            f"search accepted a state whose allocation fails {notion.label()}"
        )


def _effective(inst: Instance, notion: Notion, prof) -> tuple[Instance, Notion]:
    if prof is None:
        return inst, Notion(notion.base)
    return replace(inst, aware=prof), Notion(notion.base, "sa")


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
