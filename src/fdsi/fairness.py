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

Every notion is stated once, over bundle sums: ``V[i][j] = v_i(A_j)`` and
``S[i][j] = s_i(A_j)``.  An ordered pair (i, j) is *envious* when
``V[i][i] * w_j < V[i][j] * w_i``; a pair that is not envious passes every
base.  Per pair, the notions differ only in the base's row of ``RULES``
(``Notion.rule``), the weights (``Notion.weights``) and the observers an
awareness mode may excuse, and at what ratio (``Notion.excusable``,
``Notion.ratio``); the checker, the oracle's bit sets and the exact walk
all read them through :class:`Notion`.  Envious pairs are
decided from V, S and, only then, the values in i's eyes of the items of
A_j: the largest removal, the positive values for ``efl``, or the per-item
test of the universal-item bases.  ``decider`` compiles a notion once per
instance into a :class:`Sums`, which decides which entries of V and S the
notion reads (and, for ``sa-empty``, each bundle's item count), lays them
out in one int and sums them, and a function of (that int, owners) that
returns the first failing (observer, target) pair.  The compiled form lists
the ordered pairs i != j once, each with what it reads: the fields of its
sums, the pair's weights and the observer's items ranked by value, largest
first, so the best removal from A_j is the first ranked item j holds.
``check`` packs the sums of one allocation; the brute-force oracle adds the
packed sums of its items, decides most candidates in bulk from the same
sums, and calls the decider only on those its bit sets cannot settle.

All comparisons are exact integer arithmetic (rational thresholds are
applied by cross multiplication).
"""

from __future__ import annotations

from .model import (
    Allocation,
    Frozen,
    Instance,
    ValidationError,
    _set,
    all_maximizers,
    exact_rational,
    require_goods,
    valid_owners,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Sequence
    from fractions import Fraction

SA_EMPTY = "sa-empty"
AWARENESS_MODES = (None, "sa", "alpha", "wsa")


class Rule(Frozen):
    """What a base asks of an envious ordered pair (i, j), one row of
    ``RULES``: ``k``, the removals the pair may make; ``weighted``, whether
    the instance weights apply; ``universal``, whether one removed item
    must serve every observer of A_j; ``capped``, whether the removed item
    may be worth no more than A_i to i."""

    __slots__ = ("k", "weighted", "universal", "capped")

    def __init__(self, k: int, weighted=False, universal=False, capped=False) -> None:
        for name, value in zip(self.__slots__, (k, weighted, universal, capped)):
            _set(self, name, value)


# base -> its rule; tef1 counts its removal twice, since the item moves to A_i
RULES = {
    "ef": Rule(0),
    "ef1": Rule(1),
    "sef1": Rule(1, universal=True),
    "wef1": Rule(1, weighted=True),
    "swef1": Rule(1, weighted=True, universal=True),
    "efl": Rule(1, capped=True),
    "tef1": Rule(2),
}
BASES = tuple(RULES)


class Notion(Frozen):
    """A base fairness notion plus an optional awareness mode.

    ``alpha`` must be given exactly when ``awareness == "alpha"`` and must lie
    in [0, 1].  It is stored as a ``Fraction`` and given as anything
    :func:`~fdsi.model.exact_rational` accepts, so not as a ``float``.  The
    standalone notion ``sa-empty`` takes no awareness mode.  What a notion
    asks and reads is stated here, for every layer and for picking: its
    base's :meth:`rule`, its :meth:`weights`, the :meth:`excusable`
    observers and the excuse :meth:`ratio`.  :meth:`parse` reads back what
    :meth:`label` writes.
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

    @classmethod
    def parse(cls, text: str) -> Notion:
        """The notion a spec names: a base, ``sa-<base>``, ``wsa-<base>`` or
        ``<p/q>-sa-<base>``, as :meth:`label` writes it; case and
        surrounding spaces are ignored.  A spec in no such form names an
        unknown base."""
        text = text.strip().lower()
        if text == SA_EMPTY:
            return cls(text)
        mode, dash, rest = text.partition("-")
        if dash and mode in ("sa", "wsa"):
            return cls(rest, mode)
        if rest.startswith("sa-"):
            return cls(rest[3:], "alpha", mode)
        return cls(text)

    def rule(self) -> Rule | None:
        """The row of the notion's base in ``RULES``; None for ``sa-empty``."""
        return RULES.get(self.base)

    def weights(self, inst: Instance) -> tuple[int, ...]:
        """The instance's weights under a weighted base, ones otherwise."""
        rule = self.rule()
        return inst.weights if rule and rule.weighted else (1,) * inst.n

    def excusable(self, inst: Instance) -> tuple[bool, ...]:
        """The ``aware`` flags under an awareness mode, none otherwise."""
        return inst.aware if self.awareness else (False,) * inst.n

    def ratio(self) -> tuple[int, int]:
        """(p, q) of the impact excuse q * s_i(A_j) < p * s_j(A_j): alpha,
        and 1/1 otherwise (``sa``, and ``sa-empty``'s impact test)."""
        alpha = 1 if self.alpha is None else self.alpha
        return alpha.numerator, alpha.denominator

    def label(self) -> str:
        if self.awareness is None:  # sa-empty has none
            return self.base
        if self.awareness == "alpha":
            p, q = self.ratio()
            return f"{p}/{q}-sa-{self.base}"
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
    owners = valid_owners(inst, alloc, complete=True)
    maxsets = all_maximizers(inst)
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


if TYPE_CHECKING:
    Owners = Sequence[int | None]
    # fails(P, owners) -> first failing (observer, target), or None when fair
    Decider = Callable[[int, Owners], tuple[int, int] | None]


class Sums:
    """Where the bundle sums a :func:`decider` reads lie in one packed int,
    and the ints that :meth:`add` and :meth:`pack` build in that layout.

    ``V[i][j]``, ``S[i][j]`` and ``count[j]`` are the (shift, mask) of the
    fields of v_i(A_j), s_i(A_j) and |A_j|.  V is packed for every base but
    ``sa-empty``, whose values may be negative; S for ``sa-empty`` and
    whenever some observer can be excused; |A_j| only for ``sa-empty``.
    Any other field has width 0 and reads 0.  A field is as wide as the
    largest sum it holds (i's value-row or impact-row sum, or m) and every
    packed entry is non-negative, so no field carries into the next, and the
    int of an allocation is the sum of :meth:`add` over its items.
    """

    __slots__ = ("V", "S", "count", "_rows", "_fields")

    def __init__(self, inst: Instance, notion: Notion) -> None:
        sa_empty = notion.base == SA_EMPTY
        read_s = sa_empty or any(notion.excusable(inst))
        n, shift = inst.n, 0
        # the per-item rows summed: values and impacts per observer, then ones
        self._rows, self._fields = inst.valuations + inst.impacts + ((1,) * inst.m,), []
        for row, read in zip(self._rows, [not sa_empty] * n + [read_s] * n + [sa_empty]):
            width = sum(row).bit_length() * read
            self._fields.append([(shift + j * width, (1 << width) - 1) for j in range(n)])
            shift += n * width
        self.V, self.S, (self.count,) = self._fields[:n], self._fields[n:-1], self._fields[-1:]

    def add(self, g: int, c: int) -> int:
        """The int that giving item g to agent c adds."""
        return sum(row[g] << f[c][0] for row, f in zip(self._rows, self._fields) if f[c][1])

    def pack(self, owners: Owners) -> int:
        """The packed sums of the item -> owner map ``owners`` (None marks an
        unallocated item): each packed row summed per owner, in O(n*m)."""
        packed = 0
        for row, f in zip(self._rows, self._fields):
            if not f[0][1]:  # the fields of a row share one width
                continue
            totals = [0] * len(f)
            for j, x in zip(owners, row):
                if j is not None:
                    totals[j] += x
            packed += sum(total << shift for total, (shift, _) in zip(totals, f))
        return packed


# -- per-notion formulas -------------------------------------------------------
#
# An envious ordered pair (i, j) passes the removal test with k removals when
# ``v_i(A_i) * w_j >= (v_i(A_j) - k * largest) * w_i``, with ``largest`` the
# value to i of A_j's most valuable item, which the decider reads as the
# first item of ``ranked`` that j holds.  ``ranked`` lists the items i values
# positively as (item, value) pairs, largest value first and ties by index
# (``_ranked``), and item g lies in A_j when ``owners[g] == j``.  Envy needs
# a positive item, so A_j holds at least one ranked item.  The rule's k
# (``Rule``) is the removal test's k: the test is the base itself unless the
# rule is capped or universal, and then k = 1 is a test every passing pair
# meets (efl and sef1 imply ef1, swef1 implies wef1), which ``efl`` and the
# universal-item bases refine.  The brute-force oracle's bit sets and the
# exact walk's leaf read the same rule.


def _ranked(row: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(((g, v) for g, v in enumerate(row) if v > 0), key=lambda gv: -gv[1]))


def _efl(own, other, ranked, owners: Owners, j: int) -> bool:
    # at most one positive item, or a removal that kills the envy and is not
    # itself worth more than A_i.  The first value v <= own of A_j decides:
    # no later one is larger, and if v is too small A_j holds a second
    # positive item (with v alone, other = v <= own and i would not envy j).
    held = 0
    for g, v in ranked:
        if owners[g] == j:
            if v <= own:
                return v >= other - own
            held += 1
    return held <= 1


def _excuse(inst: Instance, notion: Notion, S) -> list[list]:
    """Per ordered pair (i, j), ``excused(P, own, other)`` for the awareness
    mode, with ``own = v_i(A_i)``, ``other = v_i(A_j)`` and the impact sums
    read from the packed sums P through the fields ``S``; None when i can
    never be excused toward j."""
    p, q = notion.ratio()

    def excused(i: int, j: int):
        (s_ij, m_ij), (s_jj, m_jj) = S[i][j], S[j][j]
        if notion.awareness == "wsa":
            # v_i(A_j) * s_i(A_j) <= v_i(A_i) * s_j(A_j)
            return lambda P, own, other: other * (P >> s_ij & m_ij) <= own * (P >> s_jj & m_jj)
        # s_i(A_j) < alpha * s_j(A_j), and "sa" is alpha = 1
        return lambda P, own, other: (P >> s_ij & m_ij) * q < p * (P >> s_jj & m_jj)

    rng = range(inst.n)
    excusable = notion.excusable(inst)
    return [[excused(i, j) if excusable[i] else None for j in rng] for i in rng]


def decider(inst: Instance, notion: Notion) -> tuple[Sums, Decider]:
    """Compile ``notion`` on ``inst`` into its :class:`Sums` layout and
    ``fails(P, owners)``, where ``P`` packs the bundle sums of the item ->
    owner map ``owners`` in that layout.

    The result is the first failing (observer, target) pair in lexicographic
    order, or None when the allocation is fair.  For the universal-item bases
    a failing target j contributes (its least non-excused observer, j).
    Everything a pair reads of the instance (the fields of its sums, its
    weights, its excuse and the observer's ranked items) is compiled here
    once per instance, and so is the pair it returns, so a call builds no
    list, tuple or generator.  Nothing is validated here: callers pass the sums of a valid
    allocation of a goods instance (any instance for ``sa-empty``).
    """
    sums = Sums(inst, notion)
    rng = range(inst.n)
    V, S, C = sums.V, sums.S, sums.count
    pair = [[(i, j) for j in rng] for i in rng]
    if notion.base == SA_EMPTY:
        pairs = [(pair[i][j], *S[i][j], *S[j][j], *C[j]) for i in rng for j in rng if i != j]

        def fails(P: int, owners: Owners):
            for ij, s_ij, m_ij, s_jj, m_jj, s_c, m_c in pairs:
                if P >> s_ij & m_ij >= P >> s_jj & m_jj and P >> s_c & m_c:
                    return ij
            return None

        return sums, fails
    excuse = _excuse(inst, notion, S)
    wt = notion.weights(inst)
    rankings = [_ranked(row) for row in inst.valuations]
    rule = notion.rule()
    k, efl = rule.k, rule.capped
    if rule.universal:
        # per target j: j, w_j and its observers i != j ascending, each with
        # its fields, excuse, weight, value row, ranking and the observers after it
        targets = []
        for j in rng:
            observers = [
                (i, *V[i][i], *V[i][j], excuse[i][j], wt[i], inst.valuations[i], rankings[i])
                for i in rng if i != j
            ]
            targets.append((j, wt[j], [o + (observers[k + 1:],) for k, o in enumerate(observers)]))

        def fails(P: int, owners: Owners):
            # one removed item g of A_j must serve every envious observer i of j
            # that is not excused: k * v_i(g) * w_i >= need_i, where
            # need_i = v_i(A_j) * w_i - v_i(A_i) * w_j is positive exactly when i envies j
            first = None
            for j, wj, observers in targets:
                for i, s_own, m_own, s_oth, m_oth, ex, wi, _, ranked, later in observers:
                    own, other = P >> s_own & m_own, P >> s_oth & m_oth
                    need = other * wi - own * wj
                    if need > 0 and not (ex and ex(P, own, other)):
                        break
                else:
                    continue  # no observer of j needs a removal
                # the items serving that first observer are a prefix of its
                # ranking; one held by j must serve the later observers too
                served = False
                for g, v in ranked:
                    if k * v * wi < need:
                        break
                    if owners[g] != j:
                        continue
                    for _, s_own, m_own, s_oth, m_oth, ex, wk, row, _ in later:
                        own, other = P >> s_own & m_own, P >> s_oth & m_oth
                        if own * wj < (other - k * row[g]) * wk and not (ex and ex(P, own, other)):
                            break
                    else:
                        served = True
                        break
                if served:
                    continue
                for i, s_own, m_own, s_oth, m_oth, ex, _, _, _, _ in observers:
                    if not (ex and ex(P, P >> s_own & m_own, P >> s_oth & m_oth)):
                        break
                if first is None or i < first[0]:
                    first = pair[i][j]
                    if i == 0:  # no later target can give a smaller pair
                        break
            return first

        return sums, fails
    rows = [
        (*V[i][i], wt[i], rankings[i],
         [(pair[i][j], j, *V[i][j], excuse[i][j], wt[j]) for j in rng if j != i])
        for i in rng
    ]

    def fails(P: int, owners: Owners):
        for s_own, m_own, wi, ranked, targets in rows:
            own = P >> s_own & m_own
            for ij, j, s_oth, m_oth, ex, wj in targets:
                other = P >> s_oth & m_oth
                if own * wj >= other * wi or ex and ex(P, own, other):  # not envious, or excused
                    continue
                if efl:
                    if _efl(own, other, ranked, owners, j):
                        continue
                elif k:  # ef has no removal
                    for g, largest in ranked:
                        if owners[g] == j:
                            break
                    if own * wj >= (other - k * largest) * wi:
                        continue
                return ij
        return None

    return sums, fails


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
    owners = valid_owners(inst, alloc, complete=False)
    sums, fails = decider(inst, notion)
    failing = fails(sums.pack(owners), owners)
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
            # the item of A_j worth most to i, the lowest index on ties
            item=max(sorted(alloc.bundles[j]), key=inst.valuations[i].__getitem__, default=None),
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
