"""Sequential lottery contests: equilibrium solver, behavioral agents,
laboratory-protocol simulator, and the matching analysis pipeline."""

from .core import (
    ContestError,
    ContestSpec,
    InvestmentExceedsEndowment,
    MoveSequence,
    NegativeInvestment,
    draw_winner,
    round_payoffs,
    win_probabilities,
)
from .equilibrium import (
    EquilibriumSolution,
    build_ladder,
    calibrate_jow,
    largest_root,
    solve_spne,
)
from .behavior import (
    BehaviorPolicy,
    EmpiricalResponder,
    EquilibriumPolicy,
    Imitator,
    OptimizingLeader,
    ResponseModel,
    act,
    default_response_models,
    eval_response,
    load_response_models,
    optimal_first_mover,
    turning_point,
)
from .simulate import (
    RoundRecord,
    SessionConfig,
    SessionLog,
    export_log,
    load_log,
    play_round,
    run_batch,
    run_session,
)
from .stats import (
    OLSFit,
    TreatmentSummary,
    cluster_ols,
    jonckheere_terpstra,
    treatment_summary,
    trend_by_round,
    wald_mean,
)

__version__ = "0.1.0"
