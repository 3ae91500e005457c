"""Sequential lottery contests: equilibrium solver, behavioral agents,
laboratory-protocol simulator, and the matching analysis pipeline."""

import importlib

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

# The statistics load numpy, so they are imported on first use (PEP 562):
# ``import seqcontest`` and ``seqcontest solve`` run without numpy. The
# submodule resolves the same way, so ``seqcontest.stats`` works after
# ``import seqcontest`` alone.
_STATS_EXPORTS = frozenset({
    "OLSFit", "TreatmentSummary", "cluster_ols", "jonckheere_terpstra",
    "treatment_summary", "trend_by_round", "wald_mean",
})


def __getattr__(name):
    if name == "stats" or name in _STATS_EXPORTS:
        stats = importlib.import_module(".stats", __name__)
        return stats if name == "stats" else getattr(stats, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
