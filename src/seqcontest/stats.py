"""Analysis pipeline for contest logs.

Inference follows the conventions of small lab samples: standard errors are
clustered by matching group with the small-sample factor
G/(G-1) * (N-1)/(N-K), Wald statistics are referred to chi-square(1), and the
trend across ordered treatments uses the Jonckheere-Terpstra test on
matching-group means with the normal approximation (tie-corrected variance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import ContestError, MoveSequence
from .simulate import RoundRecord, SessionLog

__all__ = [
    "RankDeficientDesign",
    "TooFewClusters",
    "TooFewGroups",
    "EmptyLog",
    "OLSFit",
    "WaldResult",
    "JTResult",
    "TreatmentSummary",
    "cluster_ols",
    "wald_mean",
    "jonckheere_terpstra",
    "trend_by_round",
    "treatment_summary",
    "group_aggregate_means",
    "last_rounds",
    "triad_totals",
]


class RankDeficientDesign(ContestError):
    """The regression design matrix does not have full column rank."""


class TooFewClusters(ContestError):
    """Clustered inference needs at least two clusters."""


class TooFewGroups(ContestError):
    """The trend test needs at least three ordered groups."""


class EmptyLog(ContestError):
    """No records to analyze."""


@dataclass
class OLSFit:
    """Point estimates with a cluster-robust covariance matrix."""

    params: np.ndarray
    cov: np.ndarray
    r_squared: float
    nobs: int
    n_clusters: int

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))


def cluster_ols(y, design, clusters) -> OLSFit:
    """Pooled OLS with a cluster-robust (sandwich) covariance matrix.

    cov = c * (X'X)^-1 [sum_g (X_g'u_g)(X_g'u_g)'] (X'X)^-1 with the
    small-sample factor c = G/(G-1) * (N-1)/(N-K). With every observation in
    its own cluster this reduces to HC1.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(design, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n, k = X.shape
    if y.shape != (n,):
        raise ContestError(f"y has shape {y.shape}, expected ({n},)")
    if n <= k:
        raise RankDeficientDesign(f"{n} observations cannot identify {k} coefficients")
    if np.linalg.matrix_rank(X) < k:
        raise RankDeficientDesign("design matrix is rank deficient")
    codes, inverse = np.unique(np.asarray(clusters), return_inverse=True)
    g = codes.size
    if g < 2:
        raise TooFewClusters("clustered inference needs at least 2 clusters")

    xtx = X.T @ X
    bread = np.linalg.inv(xtx)
    params = bread @ (X.T @ y)
    resid = y - X @ params

    scores = X * resid[:, None]
    cluster_scores = np.zeros((g, k))
    np.add.at(cluster_scores, inverse, scores)
    meat = cluster_scores.T @ cluster_scores
    correction = (g / (g - 1.0)) * ((n - 1.0) / (n - k))
    cov = correction * bread @ meat @ bread

    ssr = float(resid @ resid)
    sst = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - ssr / sst if sst > 0 else float("nan")
    return OLSFit(params=params, cov=cov, r_squared=r_squared, nobs=n, n_clusters=g)


class WaldResult(NamedTuple):
    """Wald test of a sample mean against a hypothesized value."""

    statistic: float
    pvalue: float
    mean: float
    se: float
    degenerate: bool


def wald_mean(values, clusters, hypothesized: float) -> WaldResult:
    """Cluster-robust Wald test of H0: mean == hypothesized.

    The mean and its standard error come from an intercept-only cluster OLS;
    the squared t-ratio is referred to chi-square(1). Zero-variance samples
    are flagged degenerate: the test reports p = 1 when the mean matches the
    hypothesis (to float precision) and p = 0 otherwise.
    """
    values = np.asarray(values, dtype=float)
    fit = cluster_ols(values, np.ones((values.size, 1)), clusters)
    mean = float(fit.params[0])
    se = float(fit.se[0])
    scale = max(1.0, abs(hypothesized), abs(mean))
    if se <= 1e-12 * scale:
        if abs(mean - hypothesized) <= 1e-9 * scale:
            return WaldResult(0.0, 1.0, mean, se, True)
        return WaldResult(float("inf"), 0.0, mean, se, True)
    statistic = ((mean - hypothesized) / se) ** 2
    pvalue = math.erfc(math.sqrt(statistic / 2.0))
    return WaldResult(float(statistic), pvalue, mean, se, False)


def _jt_statistic(groups: Sequence[np.ndarray]) -> float:
    """Sum of pairwise Mann-Whitney counts (ties count one half)."""
    stat = 0.0
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            a = groups[i][:, None]
            b = groups[j][None, :]
            stat += float((a < b).sum()) + 0.5 * float((a == b).sum())
    return stat


class JTResult(NamedTuple):
    statistic: float
    zscore: float
    pvalue: float


def jonckheere_terpstra(groups: Sequence[Sequence[float]]) -> JTResult:
    """Jonckheere-Terpstra trend test across ordered groups.

    Two-sided p-value from the normal approximation with the tie-corrected
    null variance. The statistic is rank-based, hence invariant under any
    strictly increasing transform of the data.
    """
    arrays = [np.asarray(g, dtype=float) for g in groups]
    if len(arrays) < 3:
        raise TooFewGroups("the trend test needs at least 3 ordered groups")
    if any(a.size == 0 for a in arrays):
        raise ContestError("every group needs at least one observation")

    statistic = _jt_statistic(arrays)
    sizes = np.array([a.size for a in arrays], dtype=float)
    total = float(sizes.sum())
    pooled = np.concatenate(arrays)
    _, tie_counts = np.unique(pooled, return_counts=True)
    ties = tie_counts.astype(float)

    mean = (total**2 - (sizes**2).sum()) / 4.0
    a_term = (
        total * (total - 1.0) * (2.0 * total + 5.0)
        - (sizes * (sizes - 1.0) * (2.0 * sizes + 5.0)).sum()
        - (ties * (ties - 1.0) * (2.0 * ties + 5.0)).sum()
    )
    b_term = (sizes * (sizes - 1.0) * (sizes - 2.0)).sum() * (
        ties * (ties - 1.0) * (ties - 2.0)
    ).sum()
    c_term = (sizes * (sizes - 1.0)).sum() * (ties * (ties - 1.0)).sum()
    variance = (
        a_term / 72.0
        + b_term / (36.0 * total * (total - 1.0) * (total - 2.0))
        + c_term / (8.0 * total * (total - 1.0))
    )
    if variance <= 1e-12:
        return JTResult(statistic, 0.0, 1.0)
    z = (statistic - mean) / math.sqrt(variance)
    return JTResult(statistic, float(z), math.erfc(abs(z) / math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# Record-level summaries
# ---------------------------------------------------------------------------


def _as_records(log_or_records) -> list[RoundRecord]:
    if isinstance(log_or_records, SessionLog):
        return log_or_records.records
    return list(log_or_records)


def last_rounds(log: SessionLog, k: int) -> SessionLog:
    """The log cut to its last ``k`` rounds."""
    cutoff = max((r.round for r in log.records), default=0) - k
    return replace(log, records=[r for r in log.records if r.round > cutoff])


def triad_totals(records: Iterable[RoundRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Total investment of each triad-round, sorted by (group, round, triad),
    and the matching group each total belongs to."""
    totals: dict[tuple[int, int, int], float] = {}
    for r in records:
        key = (r.group, r.round, r.triad)
        totals[key] = totals.get(key, 0.0) + r.investment
    keys = sorted(totals)
    return np.array([totals[k] for k in keys]), np.array([k[0] for k in keys])


def trend_by_round(log_or_records) -> OLSFit:
    """Pooled OLS of individual investment on the round number, clustered by
    matching group."""
    records = _as_records(log_or_records)
    if not records:
        raise EmptyLog("no records")
    rounds = sorted({r.round for r in records})
    if len(rounds) < 2:
        raise ContestError("trend regression needs at least 2 rounds")
    y = np.array([r.investment for r in records])
    design = np.column_stack(
        [np.ones(len(records)), np.array([r.round for r in records], dtype=float)]
    )
    clusters = np.array([r.group for r in records])
    return cluster_ols(y, design, clusters)


@dataclass
class TreatmentSummary:
    """Role-level and aggregate investment summary for one treatment."""

    sequence: MoveSequence
    role_means: tuple[float, ...]
    role_ses: tuple[float, ...]
    aggregate_mean: float
    aggregate_se: float
    nobs: int
    n_clusters: int
    n_rounds: int


def _se_of_mean(values: np.ndarray, clusters: np.ndarray) -> float:
    if np.unique(clusters).size < 2:
        return float("nan")
    fit = cluster_ols(values, np.ones((values.size, 1)), clusters)
    return float(fit.se[0])


def treatment_summary(logs: Iterable[SessionLog] | SessionLog) -> list[TreatmentSummary]:
    """Per-treatment means of individual investment by role and of aggregate
    triad investment, with standard errors clustered by matching group.

    Players within the same stage are pooled (they are exchangeable), and the
    pooled stage mean is reported for each of the stage's player indices, so
    a summary always carries one entry per player. The aggregate is the mean
    over triad-rounds of total triad investment.
    """
    if isinstance(logs, SessionLog):
        logs = [logs]
    logs = list(logs)
    if not logs:
        raise EmptyLog("no logs")
    out = []
    for log in logs:
        records = log.records
        if not records:
            raise EmptyLog(f"log for {log.sequence.label()} has no records")
        seq = log.sequence
        role_means: list[float] = []
        role_ses: list[float] = []
        for stage, count in enumerate(seq.stages, start=1):
            stage_records = [r for r in records if r.stage == stage]
            values = np.array([r.investment for r in stage_records])
            clusters = np.array([r.group for r in stage_records])
            mean = float(values.mean())
            se = _se_of_mean(values, clusters)
            role_means.extend([mean] * count)
            role_ses.extend([se] * count)

        totals, groups = triad_totals(records)
        out.append(
            TreatmentSummary(
                sequence=seq,
                role_means=tuple(role_means),
                role_ses=tuple(role_ses),
                aggregate_mean=float(totals.mean()),
                aggregate_se=_se_of_mean(totals, groups),
                nobs=len(records),
                n_clusters=int(np.unique(groups).size),
                n_rounds=len({r.round for r in records}),
            )
        )
    return out


def group_aggregate_means(log: SessionLog) -> np.ndarray:
    """Mean aggregate (triad total) investment per matching group; the unit
    of observation for nonparametric across-treatment tests."""
    if not log.records:
        raise EmptyLog(f"log for {log.sequence.label()} has no records")
    totals, groups = triad_totals(log.records)
    return np.array([float(np.mean(totals[groups == g])) for g in np.unique(groups)])
