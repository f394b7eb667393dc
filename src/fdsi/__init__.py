"""Fair division of indivisible goods under a social-impact-maximization
constraint: checkers for envy-based fairness notions and awareness overrides,
guaranteed polynomial allocators, exact existence solvers, and generators for
the hardness gadgets and counterexample instances."""

from .allocators import (
    greedy_sim,
    sa_efl_allocate,
    sa_weighted_picking,
    two_agent_mixed_fast_path,
)
from .fairness import Notion, Verdict, Witness, check, is_sa_empty, is_sim
from .model import (
    Allocation,
    BudgetExceededError,
    GoodsOnlyError,
    IncompleteAllocationError,
    Instance,
    InternalError,
    ValidationError,
    bundle_impact,
    bundle_value,
    compute_types,
    impact_maximizers,
    is_goods,
    make_instance,
    normalize_impacts,
    total_social_impact,
    validate,
    validate_allocation,
)
from .sa_empty import solve_sa_empty
from .search import (
    UnsupportedNotionError,
    brute_force_count,
    brute_force_solve,
    enumerate_sim_allocations,
    exact_solve,
)

__all__ = [
    "Allocation",
    "BudgetExceededError",
    "GoodsOnlyError",
    "IncompleteAllocationError",
    "Instance",
    "InternalError",
    "Notion",
    "UnsupportedNotionError",
    "ValidationError",
    "Verdict",
    "Witness",
    "brute_force_count",
    "brute_force_solve",
    "bundle_impact",
    "bundle_value",
    "check",
    "compute_types",
    "enumerate_sim_allocations",
    "exact_solve",
    "greedy_sim",
    "impact_maximizers",
    "is_goods",
    "is_sa_empty",
    "is_sim",
    "make_instance",
    "normalize_impacts",
    "sa_efl_allocate",
    "sa_weighted_picking",
    "solve_sa_empty",
    "total_social_impact",
    "two_agent_mixed_fast_path",
    "validate",
    "validate_allocation",
]
