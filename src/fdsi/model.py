"""Core data model: instances, allocations, impact structure, validation.

All quantities are integers; comparisons that would naively need division
(weighted envy, rational awareness thresholds) are done by cross
multiplication elsewhere, so no floating point appears anywhere.
"""

from __future__ import annotations

from operator import attrgetter

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Sequence
    from fractions import Fraction


class ValidationError(ValueError):
    """Malformed instance, allocation, or operation input."""


class GoodsOnlyError(ValidationError):
    """A goods-only operation was given an instance with negative valuations."""


class IncompleteAllocationError(ValidationError):
    """An operation that needs a complete allocation got a partial one."""


class BudgetExceededError(RuntimeError):
    """A configured resource budget ran out before an answer was reached.

    Distinct from a negative answer: when this is raised, nothing has been
    decided.
    """


class InternalError(RuntimeError):
    """A solver's answer failed its own final re-check (a bug, never a verdict).

    Raised explicitly rather than by ``assert``, so the check also runs under
    ``python -O``.
    """


# sets a field of a Frozen value from its own __init__
_set = object.__setattr__


class Frozen:
    """Base of the immutable value classes.

    A subclass names its fields in ``__slots__``, in constructor order, and
    sets them from its own ``__init__`` with ``_set``.  The base adds what a
    value needs: ``==`` within the same class and ``hash`` by field values, a
    ``Class(field=value, ...)`` repr, ``AttributeError`` on assignment and
    deletion, pickle and ``copy`` support, and :meth:`replace`.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # the field values as a tuple, also for a single field
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self))
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable; use replace()")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __reduce__(self):
        return self.__class__, self._values(self)

    def replace(self, **changes):
        """A copy with the given fields changed; ``__init__`` normalises and
        validates it as it does any new value."""
        return self.__class__(**dict(zip(self.__slots__, self._values(self)), **changes))


class Instance(Frozen):
    """Agents, items, and the two integer matrices that drive everything.

    ``valuations[i][g]`` is agent i's value for item g.  Negative entries are
    storable (so chore data can be represented) but every checker and
    allocator rejects them with :class:`GoodsOnlyError`.  ``impacts[i][g]``
    is the non-negative contribution agent i generates for the group when
    holding g.  ``weights`` are positive entitlements used by the weighted
    notions, and ``aware`` marks which agents apply the social-awareness
    override.

    The constructor checks every invariant and raises :class:`ValidationError`
    naming each violated one, so every instance is valid, however it was
    built: directly, by :func:`make_instance`, ``replace``, pickle or copy.
    Instances are immutable values; every operation on them is a pure
    function, so they are safe to share across threads.
    """

    __slots__ = ("agents", "items", "valuations", "impacts", "weights", "aware")
    agents: tuple[str, ...]
    items: tuple[str, ...]
    valuations: tuple[tuple[int, ...], ...]
    impacts: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]
    aware: tuple[bool, ...]

    def __init__(self, agents, items, valuations, impacts, weights, aware) -> None:
        _set(self, "agents", tuple(agents))
        _set(self, "items", tuple(items))
        _set(self, "valuations", tuple(tuple(row) for row in valuations))
        _set(self, "impacts", tuple(tuple(row) for row in impacts))
        _set(self, "weights", tuple(weights))
        # a flag is a bool or the int 0 or 1; anything else is kept as given,
        # so that validation refuses it
        flags = (bool(a) if isinstance(a, int) and a in (0, 1) else a for a in aware)
        _set(self, "aware", tuple(flags))
        errors = _validate(self)
        if errors:
            raise ValidationError("; ".join(errors))

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def m(self) -> int:
        return len(self.items)


def make_instance(
    valuations: Sequence[Sequence[int]],
    impacts: Sequence[Sequence[int]],
    *,
    weights: Sequence[int] | None = None,
    aware: Sequence[bool] | None = None,
    agents: Sequence[str] | None = None,
    items: Sequence[str] | None = None,
) -> Instance:
    """Build an :class:`Instance`, filling in default names, unit weights and
    full awareness."""
    n = len(valuations)
    m = len(valuations[0]) if n else 0
    if agents is None:
        agents = tuple(f"a{i + 1}" for i in range(n))
    if items is None:
        items = tuple(f"g{j + 1}" for j in range(m))
    if weights is None:
        weights = (1,) * n
    if aware is None:
        aware = (True,) * n
    return Instance(agents, items, valuations, impacts, weights, aware)


def _ints(values) -> bool:
    """Is every value an ``int`` and none a ``bool``?  Decided once per
    distinct type, so a long row of ints costs one C-level pass."""
    return all(issubclass(t, int) and t is not bool for t in set(map(type, values)))


def _validate(inst: Instance) -> list[str]:
    """Every violated instance invariant (empty if none).  Reads the fields
    only, so it holds for any class with the fields of :class:`Instance`."""
    errors: list[str] = []
    n, m = len(inst.agents), len(inst.items)
    if n < 1:
        errors.append("instance needs at least one agent")
    if len(set(inst.agents)) != n:
        errors.append("duplicate agent ids")
    if len(set(inst.items)) != m:
        errors.append("duplicate item ids")
    for name, matrix in (("valuations", inst.valuations), ("impacts", inst.impacts)):
        if len(matrix) != n:
            errors.append(f"{name} has {len(matrix)} rows, expected {n}")
            continue
        for i, row in enumerate(matrix):
            if len(row) != m:
                errors.append(f"{name} row {i} has {len(row)} entries, expected {m}")
            if not _ints(row):
                errors.append(f"{name} row {i} contains a non-integer entry")
            elif name == "impacts" and min(row, default=0) < 0:
                errors.append(f"impacts row {i} has a negative entry")
    if len(inst.weights) != n:
        errors.append(f"weights has {len(inst.weights)} entries, expected {n}")
    elif not (_ints(inst.weights) and min(inst.weights, default=1) >= 1):
        errors.append("weights must be integers >= 1")
    if len(inst.aware) != n:
        errors.append(f"aware has {len(inst.aware)} entries, expected {n}")
    elif not all(type(a) is bool for a in inst.aware):
        errors.append("aware flags must be booleans or the ints 0 and 1")
    return errors


def is_goods(inst: Instance) -> bool:
    """True iff every valuation entry is non-negative."""
    return all(x >= 0 for row in inst.valuations for x in row)


def require_goods(inst: Instance) -> None:
    if not is_goods(inst):
        raise GoodsOnlyError(
            "instance has negative valuations; this operation is defined for goods only"
        )


def exact_rational(value, what: str) -> Fraction:
    """``value`` as an exact ``Fraction``: an ``int``, a ``Fraction`` or a
    string ``p`` or ``p/q`` of integers.  A ``float`` or ``bool`` raises
    :class:`ValidationError`, because its binary value is rarely the rational
    meant (0.1 would be 3602879701896397/36028797018963968), and so does a
    string in any other form, such as ``"0.5"`` or ``"1e-1"``."""
    if isinstance(value, (bool, float)):
        raise ValidationError(
            f"{what} must be exact (an int, a Fraction or 'p/q'), got {value!r}"
        )
    from fractions import Fraction  # only callers with a rational need it

    try:
        if isinstance(value, str):
            return Fraction(*map(int, value.split("/", 1)))
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad {what} {value!r}: expected p or p/q") from exc


def require_budget(budget: int, what: str) -> None:
    """A budget or cap below 1 is invalid input, not a budget that runs out."""
    if budget < 1:
        raise ValidationError(f"{what} must be a positive integer, got {budget!r}")


class Allocation(Frozen):
    """One bundle of item indices per agent; bundles are pairwise disjoint.

    The allocation is *complete* when the bundles cover every item.  Partial
    allocations are first-class (the allocators grow them item by item).
    """

    __slots__ = ("bundles",)
    bundles: tuple[frozenset[int], ...]

    def __init__(self, bundles) -> None:
        _set(self, "bundles", tuple(frozenset(b) for b in bundles))

    @classmethod
    def empty(cls, n: int) -> "Allocation":
        return cls(bundles=tuple(frozenset() for _ in range(n)))

    @classmethod
    def from_assignment(cls, n: int, owners: Sequence[int]) -> "Allocation":
        """Build from an item -> agent map (owners[g] is the agent index)."""
        sets: list[set[int]] = [set() for _ in range(n)]
        for g, i in enumerate(owners):
            sets[i].add(g)
        return cls(bundles=tuple(frozenset(s) for s in sets))

    def owners(self, m: int) -> list[int | None]:
        """Inverse view: item index -> agent index (None when unallocated)."""
        out: list[int | None] = [None] * m
        for i, bundle in enumerate(self.bundles):
            for g in bundle:
                out[g] = i
        return out


def validate_allocation(inst: Instance, alloc: Allocation) -> list[str]:
    """Check bundle shape, item validity, and disjointness; return violations."""
    errors: list[str] = []
    if len(alloc.bundles) != inst.n:
        errors.append(
            f"allocation has {len(alloc.bundles)} bundles, expected {inst.n}"
        )
        return errors
    seen: dict[int, int] = {}
    for i, bundle in enumerate(alloc.bundles):
        if not _ints(bundle):
            errors.append(f"bundle of agent {i} holds a non-integer item")
            continue
        for g in bundle:
            if not (0 <= g < inst.m):
                errors.append(f"bundle of agent {i} references unknown item {g}")
            elif g in seen:
                errors.append(
                    f"item {g} appears in bundles of agents {seen[g]} and {i}"
                )
            else:
                seen[g] = i
    return errors


def is_complete(inst: Instance, alloc: Allocation) -> bool:
    allocated: set[int] = set()
    for bundle in alloc.bundles:
        allocated |= bundle
    return allocated == set(range(inst.m))


def valid_owners(inst: Instance, alloc: Allocation, *, complete: bool) -> list[int | None]:
    """The item -> owner map of ``alloc`` (None when unallocated), after
    checking bundle count, item indices and disjointness and, when
    ``complete``, that every item is allocated."""
    errors = validate_allocation(inst, alloc)
    if errors:
        raise ValidationError("; ".join(errors))
    owners = alloc.owners(inst.m)
    if complete and None in owners:
        raise IncompleteAllocationError("allocation does not cover every item")
    return owners


def total_social_impact(inst: Instance, alloc: Allocation) -> int:
    """Sum over agents of the impact they generate with their own bundle.

    Requires a complete allocation.
    """
    owners = valid_owners(inst, alloc, complete=True)
    return sum(inst.impacts[i][g] for g, i in enumerate(owners))


def impact_maximizers(inst: Instance, g: int) -> frozenset[int]:
    """All agents attaining the maximum impact for item g (never empty)."""
    if not (0 <= g < inst.m):
        raise ValidationError(f"unknown item index {g}")
    column = [inst.impacts[i][g] for i in range(inst.n)]
    top = max(column)
    return frozenset(i for i, s in enumerate(column) if s == top)


# the instance last asked for and its maximizer sets: a solve, the certify
# of its answer and the allocators ask for the same instance's sets
_last_maximizers: list = [None, ()]


def all_maximizers(inst: Instance) -> tuple[frozenset[int], ...]:
    """Per-item maximizer sets, in item order.  They are kept for the
    instance last asked for (by identity: an ``Instance`` is immutable), so
    asking again for the same instance computes nothing."""
    if _last_maximizers[0] is not inst:
        _last_maximizers[:] = inst, tuple(impact_maximizers(inst, g) for g in range(inst.m))
    return _last_maximizers[1]


def candidate_columns(inst: Instance, require_sim: bool = True) -> list[tuple[int, ...]]:
    """Owner choices per item, in the order both exact solvers try them: the
    impact maximizers ascending or, without ``require_sim``, every agent."""
    if require_sim:
        return [tuple(sorted(s)) for s in all_maximizers(inst)]
    return [tuple(range(inst.n))] * inst.m


def normalize_impacts(inst: Instance) -> Instance:
    """Replace every impact entry by the 0/1 indicator of maximizer membership.

    Existence of an impact-maximizing and fair allocation is unchanged by this
    rewrite (same maximizer sets, untouched valuations), and the operation is
    idempotent.
    """
    maxsets = all_maximizers(inst)
    new_impacts = tuple(
        tuple(1 if i in maxsets[g] else 0 for g in range(inst.m))
        for i in range(inst.n)
    )
    return inst.replace(impacts=new_impacts)
