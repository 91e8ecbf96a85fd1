"""Event-driven simulation and numerics for Glosten-Milgrom market making.

The package splits into layers: `noise` (valuation noise families and the
admissibility condition), `equilibrium` (static zero-profit quotes and the
contraction constants), `beliefs` (the trade-driven filter), `engine` (path
simulation), `verification` (independent oracles and statistical tests), and
`config`/`cli` (scenario files and the command line).
"""

from .beliefs import (
    FilterState,
    SimplexDiagnostics,
    belief_drift,
    buy_jump,
    integrate_between_events,
    make_filter_state,
    sell_jump,
)
from .config import (
    ScenarioConfig,
    load_scenario,
    noise_from_dict,
    scenario_from_dict,
)
from .core import (
    Belief,
    ConditionReport,
    ContractionConstants,
    GeneratorMatrix,
    Quote,
    StateGrid,
)
from .engine import (
    EventRecord,
    MarketModel,
    Outcome,
    PathRecord,
    SimConfig,
    buy_intensity,
    decide_trade,
    sample_arrival_times,
    sample_value_path,
    sell_intensity,
    simulate_gmps_path,
    simulate_paths,
)
from .equilibrium import (
    StaticQuotes,
    contraction_constants,
    find_fixed_points,
    mean_given_buy,
    mean_given_sell,
    solve_ask,
    solve_bid,
    solve_static_quotes,
)
from .errors import (
    ConditionFailed,
    ConfigError,
    GmsimError,
    GridMismatch,
    InsufficientData,
    NoConvergence,
    NotDifferentiable,
    ZeroBuyProbability,
    ZeroSellProbability,
)
from .noise import (
    Gaussian,
    Laplace,
    Logistic,
    NoiseModel,
    NoiseTraderMix,
    TwoPointDiscrete,
    check_gm_condition,
)
from .verification import (
    FilterComparison,
    IntensityReport,
    OracleFilterConfig,
    ZeroProfitReport,
    compare_filters,
    consistency_check,
    intensity_test,
    oracle_filter,
    run_verify,
    transition_matrix,
    zero_profit_test,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
