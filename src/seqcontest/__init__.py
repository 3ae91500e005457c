"""Sequential lottery contests: equilibrium solver, behavioral agents,
laboratory-protocol simulator, and the matching analysis pipeline."""

import importlib

from . import core, equilibrium
from .core import *
from .equilibrium import *

# Solving needs only core and equilibrium, so ``import seqcontest`` and
# ``seqcontest solve`` load nothing else. The other modules and their public
# names are imported on first use (PEP 562); ``stats`` also loads numpy.
# Each entry is that module's ``__all__`` (a test keeps them equal), written
# out because reading it would load the module.
_LAZY_EXPORTS = {
    "behavior": (
        "InputOutOfRange", "RoleObservationMismatch", "ResponseModel", "PreemptionResult",
        "EquilibriumPolicy", "EmpiricalResponder", "Imitator", "OptimizingLeader",
        "BehaviorPolicy", "eval_response", "turning_point", "optimal_first_mover", "act",
        "default_response_models", "load_response_models", "policy_from_config",
    ),
    "simulate": (
        "BadGroupComposition", "NotASessionLog", "RoundRecord", "SessionConfig",
        "SessionLog", "play_round", "run_session", "run_batch", "export_log", "load_log",
        "session_config_from_dict",
    ),
    "stats": (
        "RankDeficientDesign", "TooFewClusters", "TooFewGroups", "EmptyLog", "OLSFit",
        "WaldResult", "JTResult", "TreatmentSummary", "cluster_ols", "wald_mean",
        "jonckheere_terpstra", "trend_by_round", "treatment_summary",
        "group_aggregate_means", "last_rounds", "triad_totals",
    ),
}
_HOME = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}

__all__ = [*core.__all__, *equilibrium.__all__, *_HOME]


def __getattr__(name):
    if name in _LAZY_EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY_EXPORTS})


__version__ = "0.1.0"
