"""Fair division of indivisible goods under a social-impact-maximization
constraint: checkers for envy-based fairness notions and awareness overrides,
guaranteed polynomial allocators, exact existence solvers, and generators for
the hardness gadgets and counterexample instances.

The public names below load lazily: ``import fdsi`` imports no submodule,
and the first access to a name imports only the module that defines it.
"""

from importlib import import_module

# public name -> the submodule that defines it
_EXPORTS = {
    "Allocation": "model",
    "BudgetExceededError": "model",
    "GoodsOnlyError": "model",
    "IncompleteAllocationError": "model",
    "Instance": "model",
    "InternalError": "model",
    "ValidationError": "model",
    "compute_types": "model",
    "impact_maximizers": "model",
    "is_goods": "model",
    "make_instance": "model",
    "normalize_impacts": "model",
    "total_social_impact": "model",
    "validate_allocation": "model",
    "Notion": "fairness",
    "Verdict": "fairness",
    "Witness": "fairness",
    "certify": "fairness",
    "check": "fairness",
    "is_sim": "fairness",
    "sa_efl_allocate": "allocators",
    "sa_weighted_picking": "allocators",
    "two_agent_mixed_fast_path": "allocators",
    "UnsupportedNotionError": "search",
    "brute_force_count": "search",
    "brute_force_solve": "search",
    "enumerate_sim_allocations": "search",
    "exact_solve": "search",
    "solve_sa_empty": "sa_empty",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # an unknown name raises AttributeError, so ``from fdsi import search``
    # falls back to importing the submodule
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
