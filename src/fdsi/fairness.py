"""Decision procedures for every fairness notion and awareness mode.

Seven base notions are supported.  For an ordered pair of agents (i, j),
with ``A_i`` and ``A_j`` their bundles and values seen through i's eyes:

* ``ef``     i does not envy j at all: v_i(A_i) >= v_i(A_j).
* ``ef1``    some single item removed from A_j kills the envy.
* ``sef1``   one *universal* removed item works for every observer of j.
* ``wef1``   like ef1 but values are scaled by entitlement weights.
* ``swef1``  the universal-item variant of wef1.
* ``efl``    A_j holds at most one item i values positively, or some removal
             works and that removed item alone is not worth more than A_i.
* ``tef1``   transferring one item from A_j to A_i kills the envy.

An awareness mode can excuse an envious observer: under ``sa`` agent i
tolerates envy toward A_j whenever the bundle would generate strictly less
impact in i's hands (s_i(A_j) < s_j(A_j)); ``alpha`` tightens that to
s_i(A_j) < alpha * s_j(A_j) for a rational alpha in [0, 1]; ``wsa`` instead
bounds proportional value gain by proportional impact gain,
v_i(A_j) * s_i(A_j) <= v_i(A_i) * s_j(A_j).  Agents whose ``aware`` flag is
off never get an override.  The standalone notion ``sa-empty`` demands that
every non-empty bundle strictly impact-dominates all other agents: for each
ordered pair (i, j) with i != j, A_j is empty or s_i(A_j) < s_j(A_j).

Every notion is stated once, in matrix form.  For a complete or partial
allocation, ``matrices`` builds ``V[i][j] = v_i(A_j)`` and
``S[i][j] = s_i(A_j)`` in O(n*m).  An ordered pair (i, j) is *envious* when
``V[i][i] * w_j < V[i][j] * w_i`` (unit weights except for ``wef1`` and
``swef1``); a pair that is not envious passes every base.  Envious pairs are
decided from V, S and, only then, the values in i's eyes of the items of A_j:
the largest removal, the positive values for ``efl``, or the per-item test of
the universal-item bases.  ``decider`` compiles a notion once per instance
into a function of (V, S, owners) that returns the first failing
(observer, target) pair; ``check`` and the brute-force oracle both call it,
the oracle while updating V and S by one item column per step.

All comparisons are exact integer arithmetic (rational thresholds are
applied by cross multiplication).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from .model import (
    Allocation,
    Frozen,
    Instance,
    ValidationError,
    _set,
    all_maximizers,
    exact_rational,
    require_complete,
    require_goods,
    validate_allocation,
)

if TYPE_CHECKING:
    from fractions import Fraction

BASES = ("ef", "ef1", "sef1", "wef1", "swef1", "efl", "tef1")
TARGET_BASES = ("sef1", "swef1")
SA_EMPTY = "sa-empty"
AWARENESS_MODES = (None, "sa", "alpha", "wsa")


class Notion(Frozen):
    """A base fairness notion plus an optional awareness mode.

    ``alpha`` must be given exactly when ``awareness == "alpha"`` and must lie
    in [0, 1].  It is stored as a ``Fraction`` and given as anything
    :func:`~fdsi.model.exact_rational` accepts, so not as a ``float``.  The
    standalone notion ``sa-empty`` takes no awareness mode.
    """

    __slots__ = ("base", "awareness", "alpha")
    base: str
    awareness: str | None
    alpha: Fraction | None

    def __init__(self, base: str, awareness: str | None = None, alpha=None) -> None:
        if base not in BASES + (SA_EMPTY,):
            raise ValidationError(f"unknown notion base {base!r}")
        if awareness not in AWARENESS_MODES:
            raise ValidationError(f"unknown awareness mode {awareness!r}")
        if base == SA_EMPTY and awareness is not None:
            raise ValidationError("sa-empty takes no awareness modifier")
        if (alpha is not None) != (awareness == "alpha"):
            raise ValidationError("alpha must be given exactly for alpha awareness")
        if alpha is not None:
            alpha = exact_rational(alpha, "alpha")
            if not (0 <= alpha <= 1):
                raise ValidationError("alpha must lie in [0, 1]")
        _set(self, "base", base)
        _set(self, "awareness", awareness)
        _set(self, "alpha", alpha)

    def label(self) -> str:
        if self.base == SA_EMPTY or self.awareness is None:
            return self.base
        if self.awareness == "alpha":
            a = self.alpha
            return f"{a.numerator}/{a.denominator}-sa-{self.base}"
        return f"{self.awareness}-{self.base}"


class Witness(Frozen):
    """Minimal evidence for an unfair verdict, re-checkable from the inputs.

    ``item`` is the strongest single-removal candidate examined (or the
    misplaced item for SIM violations)."""

    __slots__ = ("reason", "observer", "target", "item")
    reason: str
    observer: int | None
    target: int | None
    item: int | None

    def __init__(
        self,
        reason: str,
        observer: int | None = None,
        target: int | None = None,
        item: int | None = None,
    ) -> None:
        _set(self, "reason", reason)
        _set(self, "observer", observer)
        _set(self, "target", target)
        _set(self, "item", item)


class Verdict(Frozen):
    __slots__ = ("fair", "witness")
    fair: bool
    witness: Witness | None

    def __init__(self, fair: bool, witness: Witness | None = None) -> None:
        _set(self, "fair", fair)
        _set(self, "witness", witness)


def is_sim(inst: Instance, alloc: Allocation) -> Verdict:
    """Does the complete allocation maximize total social impact?

    By additivity this holds exactly when every item sits with one of its
    impact maximizers.  The witness names the first misplaced item and an
    agent with strictly larger impact for it.
    """
    require_complete(inst, alloc)
    maxsets = all_maximizers(inst)
    owners = alloc.owners(inst.m)
    for g in range(inst.m):
        owner = owners[g]
        if owner not in maxsets[g]:
            return Verdict(
                fair=False,
                witness=Witness(
                    reason="sim", item=g, observer=min(maxsets[g]), target=owner
                ),
            )
    return Verdict(fair=True)


def _best_removal(inst: Instance, i: int, bundle: frozenset[int]) -> int | None:
    """Item of the bundle worth most to i (lowest index on ties), None if empty."""
    best: int | None = None
    best_v = None
    for g in sorted(bundle):
        v = inst.valuations[i][g]
        if best_v is None or v > best_v:
            best, best_v = g, v
    return best


Matrix = list[list[int]]
Owners = Sequence["int | None"]
# fails(V, S, owners) -> first failing (observer, target), or None when fair
Decider = Callable[[Matrix, Matrix, Owners], "tuple[int, int] | None"]


def matrices(inst: Instance, owners: Owners) -> tuple[Matrix, Matrix]:
    """``V[i][j] = v_i(A_j)`` and ``S[i][j] = s_i(A_j)`` for the item -> owner
    map ``owners`` (None marks an unallocated item), in O(n*m)."""
    n = inst.n
    V = [[0] * n for _ in range(n)]
    S = [[0] * n for _ in range(n)]
    for Vi, Si, vals, imps in zip(V, S, inst.valuations, inst.impacts):
        for j, v, s in zip(owners, vals, imps):
            if j is not None:
                Vi[j] += v
                Si[j] += s
    return V, S


def valid_owners(inst: Instance, alloc: Allocation) -> list[int | None]:
    """The item -> owner map of ``alloc`` (None when unallocated), after
    checking bundle count, item indices and disjointness."""
    errors = validate_allocation(inst, alloc)
    if errors:
        raise ValidationError("; ".join(errors))
    return alloc.owners(inst.m)


# -- per-notion formulas -------------------------------------------------------
#
# Base condition of an envious ordered pair (i, j): ``own = v_i(A_i)``,
# ``other = v_i(A_j)``, the pair's weights, and ``values``, the values in i's
# eyes of the items of A_j (never empty: envy needs a positive item).


def _ef(own: int, other: int, wi: int, wj: int, values: list[int]) -> bool:
    return False


def _one_removal(own: int, other: int, wi: int, wj: int, values: list[int]) -> bool:
    # ef1 (unit weights) and wef1: v_i(A_i) / w_i >= (v_i(A_j) - max) / w_j
    return own * wj >= (other - max(values)) * wi


def _efl(own: int, other: int, wi: int, wj: int, values: list[int]) -> bool:
    # at most one positive item, or a removal that kills the envy and is not
    # itself worth more than A_i
    positive = [v for v in values if v > 0]
    return len(positive) <= 1 or any(other - own <= v <= own for v in positive)


def _tef1(own: int, other: int, wi: int, wj: int, values: list[int]) -> bool:
    # moving the best item from A_j to A_i kills the envy
    return own + 2 * max(values) >= other


_ENVIOUS_PAIR_OK = {
    "ef": _ef,
    "ef1": _one_removal,
    "wef1": _one_removal,
    "efl": _efl,
    "tef1": _tef1,
}


def _pair_weights(inst: Instance, base: str) -> tuple[int, ...]:
    return inst.weights if base in ("wef1", "swef1") else (1,) * inst.n


def _excuse(inst: Instance, notion: Notion):
    """``excused(i, j, V, S)`` for the awareness mode, or None when no
    observer can ever be excused."""
    if notion.awareness is None or not any(inst.aware):
        return None
    aware = inst.aware
    if notion.awareness == "wsa":
        # v_i(A_j) * s_i(A_j) <= v_i(A_i) * s_j(A_j)
        return lambda i, j, V, S: aware[i] and V[i][j] * S[i][j] <= V[i][i] * S[j][j]
    if notion.awareness == "alpha":
        p, q = notion.alpha.numerator, notion.alpha.denominator
    else:  # "sa" is alpha = 1
        p, q = 1, 1
    # s_i(A_j) < alpha * s_j(A_j)
    return lambda i, j, V, S: aware[i] and S[i][j] * q < p * S[j][j]


def _target_rule(inst: Instance, base: str, excused):
    """``target_ok(j, V, S, owners)``: one removed item of A_j must satisfy
    every envious observer of j that is not excused."""
    rng = range(inst.n)
    vals = inst.valuations
    wt = _pair_weights(inst, base)

    def target_ok(j: int, V: Matrix, S: Matrix, owners: Owners) -> bool:
        # item g serves envious observer i iff v_i(g) * w_i >= need_i, where
        # need_i = v_i(A_j) * w_i - v_i(A_i) * w_j is positive exactly when i envies j
        wj = wt[j]
        needs = []
        for i in rng:
            need = V[i][j] * wt[i] - V[i][i] * wj
            if need > 0 and not (excused is not None and excused(i, j, V, S)):
                needs.append((vals[i], wt[i], need))
        if not needs:
            return True
        items = [g for g, o in enumerate(owners) if o == j]
        for row, wi, need in needs:  # keep the items that serve every observer so far
            items = [g for g in items if row[g] * wi >= need]
        return bool(items)

    return target_ok


def decider(inst: Instance, notion: Notion) -> Decider:
    """Compile ``notion`` on ``inst`` into ``fails(V, S, owners)``.

    The result is the first failing (observer, target) pair in lexicographic
    order, or None when the allocation is fair.  For the universal-item bases
    a failing target j contributes (its least non-excused observer, j).
    Nothing is validated here: callers pass matrices of a valid allocation of
    a goods instance (any instance for ``sa-empty``).
    """
    rng = range(inst.n)
    if notion.base == SA_EMPTY:

        def fails(V: Matrix, S: Matrix, owners: Owners):
            for i in rng:
                Si = S[i]
                for j in rng:
                    if i != j and Si[j] >= S[j][j] and j in owners:
                        return i, j
            return None

        return fails
    excused = _excuse(inst, notion)
    if notion.base in TARGET_BASES:
        target_ok = _target_rule(inst, notion.base, excused)

        def fails(V: Matrix, S: Matrix, owners: Owners):
            first = None
            for j in rng:
                if target_ok(j, V, S, owners):
                    continue
                i = next(
                    i
                    for i in rng
                    if i != j and not (excused is not None and excused(i, j, V, S))
                )
                if first is None or i < first[0]:
                    first = (i, j)
                    if i == 0:  # no later target can give a smaller pair
                        break
            return first

        return fails
    ok = _ENVIOUS_PAIR_OK[notion.base]
    vals = inst.valuations
    wt = _pair_weights(inst, notion.base)

    def fails(V: Matrix, S: Matrix, owners: Owners):
        for i in rng:
            Vi, wi, row = V[i], wt[i], vals[i]
            own = Vi[i]
            for j in rng:
                other, wj = Vi[j], wt[j]
                if own * wj >= other * wi:  # not envious (always so for j == i)
                    continue
                if excused is not None and excused(i, j, V, S):
                    continue
                if ok(own, other, wi, wj, [v for v, o in zip(row, owners) if o == j]):
                    continue
                return i, j
        return None

    return fails


def check(inst: Instance, alloc: Allocation, notion: Notion) -> Verdict:
    """Full verdict for any notion and awareness mode.

    Pairwise bases: fair iff for every ordered pair (i, j) the base condition
    holds or the override applies.  Target bases (sef1/swef1): observers with
    an override toward target j are exempt from j's universal-item
    requirement; the remaining observers must share one removal item.  The
    witness is the first failing pair in lexicographic (observer, target)
    order; for target bases, the least (non-exempt observer, failing target).
    """
    if notion.base != SA_EMPTY:
        require_goods(inst)
    owners = valid_owners(inst, alloc)
    V, S = matrices(inst, owners)
    failing = decider(inst, notion)(V, S, owners)
    if failing is None:
        return Verdict(fair=True)
    i, j = failing
    if notion.base == SA_EMPTY:
        return Verdict(fair=False, witness=Witness(reason=SA_EMPTY, observer=i, target=j))
    return Verdict(
        fair=False,
        witness=Witness(
            reason=notion.label(),
            observer=i,
            target=j,
            item=_best_removal(inst, i, alloc.bundles[j]),
        ),
    )


def certify(inst: Instance, alloc: Allocation, notion: Notion) -> Verdict:
    """The full answer check: the :func:`is_sim` verdict when the allocation
    does not maximize impact, else the :func:`check` verdict for ``notion``.

    Every solver re-checks its answer here; a failing verdict's witness
    reason is ``sim`` or the notion's label.
    """
    sim = is_sim(inst, alloc)
    return check(inst, alloc, notion) if sim.fair else sim
