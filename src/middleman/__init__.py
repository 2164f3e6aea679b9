"""Equilibrium analysis for a two-sided middleman platform game.

Two users pick participation levels on a platform run by a middleman who
charges per-user access fees. The toolkit evaluates the resulting payoffs,
verifies (ambiguity) equilibria by brute force on a grid, decides when a
contested middleman still charges full-extraction fees, and maps the
(gamma, sigma) region where that happens.
"""

from .activity import (
    BenchmarkPoint,
    PessimisticIncomeZeroError,
    RegionMap,
    RegionSample,
    activity_full_exploitation_condition,
    benchmark_full_exploitation_condition,
    boundary_curve,
    region_sample,
)
from .ambiguity import (
    BeliefSystem,
    ContestationVerdict,
    ambiguity_equilibrium_check,
    best_fee_response,
    critical_gamma,
    full_exploitation_verdict,
    loyalty_fees,
    modified_game,
    modified_payoff,
    optimistic_payoff,
    pessimistic_payoff,
)
from .game import GamePayoffs, Grid, StrategyProfile
from .hedonic import (
    AdditiveFeesIncome,
    BenefitSpec,
    CobbDouglas,
    HedonicGame,
    IncomeSpec,
    Linear,
    MultiplicativeIncome,
    TabulatedBenefit,
    TabulatedIncome,
    benefit_strictly_increasing,
    fee_monotone,
    full_extraction_fees,
    game_payoffs,
    gated_income,
    income_weakly_increasing,
    middleman_payoff,
    user_payoff,
)
from .oracles import (
    epsilon_nash_check,
    pareto_check,
    trivial_equilibria_check,
    weak_dominance_check,
)
from .scenario import (
    ScenarioConfig,
    ScenarioError,
    dump_scenario,
    emit_results,
    parse_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AdditiveFeesIncome",
    "BeliefSystem",
    "BenchmarkPoint",
    "BenefitSpec",
    "CobbDouglas",
    "ContestationVerdict",
    "GamePayoffs",
    "Grid",
    "HedonicGame",
    "IncomeSpec",
    "Linear",
    "MultiplicativeIncome",
    "PessimisticIncomeZeroError",
    "RegionMap",
    "RegionSample",
    "ScenarioConfig",
    "ScenarioError",
    "StrategyProfile",
    "TabulatedBenefit",
    "TabulatedIncome",
    "activity_full_exploitation_condition",
    "ambiguity_equilibrium_check",
    "benchmark_full_exploitation_condition",
    "benefit_strictly_increasing",
    "best_fee_response",
    "boundary_curve",
    "critical_gamma",
    "dump_scenario",
    "emit_results",
    "epsilon_nash_check",
    "fee_monotone",
    "full_exploitation_verdict",
    "full_extraction_fees",
    "game_payoffs",
    "gated_income",
    "income_weakly_increasing",
    "loyalty_fees",
    "middleman_payoff",
    "modified_game",
    "modified_payoff",
    "optimistic_payoff",
    "pareto_check",
    "parse_scenario",
    "pessimistic_payoff",
    "region_sample",
    "trivial_equilibria_check",
    "user_payoff",
    "weak_dominance_check",
]
