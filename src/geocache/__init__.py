"""Geographic caching policies with linear content coding for cellular networks."""

from .coverage import (
    BooleanModelParams,
    CoverageDistribution,
    SinrModelParams,
    boolean_coverage,
    mean_coverage,
    noise_factor,
    sinr_coverage,
    special_J,
)
from .errors import (
    EnumerationBudgetError,
    GeocacheError,
    IntegrationError,
    NumericalCancellationError,
    ParameterError,
)
from .policy import (
    GeneralPolicy,
    StructuredPolicy,
    hit_probability_general,
    hit_probability_structured,
)
from .popularity import PopularityDistribution, from_probs, load_popularity, zipf
from .simulate import SimReport, simulate_boolean_ppp, simulate_hits
from .solvers import (
    IndPolicy,
    SolverResult,
    greedy_bound_check,
    greedy_disjoint,
    greedy_general,
    hit_probability_ind,
    independent_caching,
    most_popular,
    solve_dp,
)

__version__ = "0.1.0"

__all__ = [
    "BooleanModelParams",
    "CoverageDistribution",
    "EnumerationBudgetError",
    "GeneralPolicy",
    "GeocacheError",
    "IndPolicy",
    "IntegrationError",
    "NumericalCancellationError",
    "ParameterError",
    "PopularityDistribution",
    "SimReport",
    "SinrModelParams",
    "SolverResult",
    "StructuredPolicy",
    "boolean_coverage",
    "from_probs",
    "greedy_bound_check",
    "greedy_disjoint",
    "greedy_general",
    "hit_probability_general",
    "hit_probability_ind",
    "hit_probability_structured",
    "independent_caching",
    "load_popularity",
    "mean_coverage",
    "most_popular",
    "noise_factor",
    "simulate_boolean_ppp",
    "simulate_hits",
    "sinr_coverage",
    "solve_dp",
    "special_J",
    "zipf",
]
