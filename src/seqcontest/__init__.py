"""Sequential lottery contests: equilibrium solver, behavioral agents,
laboratory-protocol simulator, and the matching analysis pipeline."""

import importlib

from .core import *
from .equilibrium import *
from .behavior import *
from .simulate import *

# The statistics load numpy, so they are imported on first use (PEP 562):
# ``import seqcontest`` and ``seqcontest solve`` run without numpy. The
# submodule resolves the same way, so ``seqcontest.stats`` works after
# ``import seqcontest`` alone. These are ``stats.__all__``, written out
# because reading it would load numpy.
_STATS_EXPORTS = frozenset({
    "RankDeficientDesign", "TooFewClusters", "TooFewGroups", "EmptyLog",
    "OLSFit", "WaldResult", "JTResult", "TreatmentSummary", "cluster_ols",
    "wald_mean", "jonckheere_terpstra", "trend_by_round", "treatment_summary",
    "group_aggregate_means", "last_rounds", "triad_totals",
})


def __getattr__(name):
    if name == "stats" or name in _STATS_EXPORTS:
        stats = importlib.import_module(".stats", __name__)
        return stats if name == "stats" else getattr(stats, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
