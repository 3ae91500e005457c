"""Analysis pipeline for contest logs.

Inference follows the conventions of small lab samples: standard errors are
clustered by matching group with the small-sample factor
G/(G-1) * (N-1)/(N-K), Wald statistics are referred to chi-square(1), and the
trend across ordered treatments uses the Jonckheere-Terpstra test on
matching-group means with the normal approximation (tie-corrected variance).

The record-level summaries (triad totals, treatment summaries, the round
trend, matching-group means) read each record field they use into an array
in one pass and compute on the columns. Triad totals are a stable sort on
(group, round, triad) and a ``np.bincount``, which adds each triad's
investments in record order from 0.0, so they are the floats a running sum
per triad gives, whatever the order of the records or the ids.

A ``SessionLog`` keeps its columns and triad totals, once read, on the
instance (not in its fields, so ``==``, ``repr`` and ``replace`` do not see
them): every statistic of one log reads its records once. They stay valid
while ``log.records`` holds the same record objects in the same order (same
length, and ``is`` against a tuple snapshot taken when they were read);
records are frozen, so the same objects mean the same fields. Any other
change to the list, or a new list, reads the records again.

``cluster_ols`` forms X'X once and inverts it by Gauss-Jordan elimination
(the sweep operator) in Python floats, taking the pivots in column order. A
pivot is the sum of squares of its column's part that the columns before it
leave unexplained. The design is rank deficient when a pivot is at most
1e-10 of its column's diagonal (the column's whole sum of squares), a test
that no rescaling of a column changes. Past that tolerance, coefficients
solved from X'X keep fewer than about six significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress
from operator import is_
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _LAZY_EXPORTS
from .core import ContestError, MoveSequence
from .simulate import SessionLog

__all__ = list(_LAZY_EXPORTS["stats"])


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


_RANK_TOL = 1e-10  # smallest pivot, as a share of its column's sum of squares


def _inverse(a: list[list[float]]) -> list[list[float]]:
    """The inverse of X'X, given as ``a`` and overwritten, by the sweep
    operator with pivots in column order. A pivot at most ``_RANK_TOL`` of
    its column's diagonal raises."""
    diagonal = [row[i] for i, row in enumerate(a)]
    for p in range(len(a)):
        d = a[p][p]
        if not d > _RANK_TOL * diagonal[p]:
            raise RankDeficientDesign("design matrix is rank deficient")
        pivot_row = [v / d for v in a[p]]
        for i, row in enumerate(a):
            if i != p:
                b = row[p]
                a[i] = [v - b * w for v, w in zip(row, pivot_row)]
                a[i][p] = -b / d
        pivot_row[p] = 1.0 / d
        a[p] = pivot_row
    return a


def cluster_ols(y, design, clusters) -> OLSFit:
    """Pooled OLS with a cluster-robust (sandwich) covariance matrix.

    cov = c * (X'X)^-1 [sum_g (X_g'u_g)(X_g'u_g)'] (X'X)^-1 with the
    small-sample factor c = G/(G-1) * (N-1)/(N-K). With every observation in
    its own cluster this reduces to HC1. The design is rank deficient, and
    raises, when a column's part unexplained by the columns before it is at
    most 1e-10 of its sum of squares (module docstring).
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
    bread = np.array(_inverse((X.T @ X).tolist()))
    codes, inverse = np.unique(np.asarray(clusters), return_inverse=True)
    g = codes.size
    if g < 2:
        raise TooFewClusters("clustered inference needs at least 2 clusters")

    params = bread @ (X.T @ y)
    resid = y - X @ params

    scores = X * resid[:, None]
    # each cluster's scores summed in row order, starting from 0.0
    cluster_scores = np.column_stack(
        [np.bincount(inverse, weights=scores[:, j], minlength=g) for j in range(k)]
    )
    # bread @ meat @ bread as a Gram matrix, so that no variance rounds below 0
    half = cluster_scores @ bread
    correction = (g / (g - 1.0)) * ((n - 1.0) / (n - k))
    cov = correction * (half.T @ half)

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


_INT64_MAX = 2**63 - 1


def _column(values: list, dtype: type) -> np.ndarray:
    """A list of Python ints (``dtype`` int) or floats as an array, read with
    its dtype named, which is about twice as fast as ``np.array`` inferring
    it."""
    if not values:
        return np.array(values)  # float64, as np.array makes an empty list
    try:
        return np.fromiter(values, dtype, len(values))
    except OverflowError:
        # an id beyond int64: an array of Python ints keeps ids exact, as the
        # records hold them
        return np.array(values, dtype=object)


class _Columns:
    """The fields of a snapshot of records as arrays in record order, and
    their triad totals, each read in one pass on first use."""

    def __init__(self, records):
        self.records = tuple(records)

    def holds(self, records: list) -> bool:
        """Whether ``records`` are the snapshot's record objects, in order."""
        return len(records) == len(self.records) and all(map(is_, records, self.records))

    @cached_property
    def group(self) -> np.ndarray:
        return _column([r.group for r in self.records], int)

    @cached_property
    def round(self) -> np.ndarray:
        return _column([r.round for r in self.records], int)

    @cached_property
    def triad(self) -> np.ndarray:
        return _column([r.triad for r in self.records], int)

    @cached_property
    def stage(self) -> np.ndarray:
        return _column([r.stage for r in self.records], int)

    @cached_property
    def investment(self) -> np.ndarray:
        return _column([r.investment for r in self.records], float)

    @cached_property
    def triad_totals(self) -> tuple[np.ndarray, np.ndarray]:
        # the stable sort keeps each triad's records in record order, and
        # bincount adds them in that order from 0.0: the floats of a running
        # sum per triad
        order = np.lexsort((self.triad, self.round, self.group))
        group, rnd, triad = self.group[order], self.round[order], self.triad[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (group[1:] != group[:-1]) | (rnd[1:] != rnd[:-1]) | (triad[1:] != triad[:-1])
        totals = np.bincount(np.cumsum(first) - 1, weights=self.investment[order])
        # float64 when empty too (bincount of nothing is an int array)
        return totals.astype(float, copy=False), group[first]


_MEMO = "_stats_columns"  # the attribute that keeps a SessionLog's _Columns


def _columns(log_or_records) -> _Columns:
    """The columns of a log, read once while its records stay the same
    objects (module docstring), or of an iterable of records."""
    if not isinstance(log_or_records, SessionLog):
        return _Columns(log_or_records)
    memo = getattr(log_or_records, _MEMO, None)
    if memo is None or not memo.holds(log_or_records.records):
        memo = _Columns(log_or_records.records)
        setattr(log_or_records, _MEMO, memo)
    return memo


def last_rounds(log: SessionLog, k: int) -> SessionLog:
    """The log cut to its last ``k`` rounds."""
    rounds = [r.round for r in log.records]
    cutoff = max(rounds, default=0) - k
    return replace(log, records=list(compress(log.records, [n > cutoff for n in rounds])))


def triad_totals(log_or_records) -> tuple[np.ndarray, np.ndarray]:
    """Total investment of each triad-round, sorted by (group, round, triad),
    and the matching group each total belongs to."""
    totals, groups = _columns(log_or_records).triad_totals
    return totals.copy(), groups.copy()


def trend_by_round(log_or_records) -> OLSFit:
    """Pooled OLS of individual investment on the round number, clustered by
    matching group.

    The rounds are counted from the log's first (lowest) round, subtracted
    as whole numbers before they become floats, so ids of any size fit
    alike. ``params[1]`` is the slope per round, and ``params[0]`` is the
    fitted investment at the first round, not at round 0.
    """
    columns = _columns(log_or_records)
    rounds = columns.round
    if not rounds.size:
        raise EmptyLog("no records")
    first, last = rounds.min(), rounds.max()
    if first == last:
        raise ContestError("trend regression needs at least 2 rounds")
    if int(last) - int(first) > _INT64_MAX:
        # the differences could overflow int64: take them as Python ints
        rounds, first = rounds.astype(object), int(first)
    design = np.column_stack([np.ones(rounds.size), (rounds - first).astype(float)])
    return cluster_ols(columns.investment, design, columns.group)


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
    # fewer than 2 clusters, told by min and max (np.unique would load numpy.ma)
    if not clusters.size or clusters.min() == clusters.max():
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
        if not log.records:
            raise EmptyLog(f"log for {log.sequence.label()} has no records")
        columns = _columns(log)
        seq = log.sequence
        role_means: list[float] = []
        role_ses: list[float] = []
        for stage, count in enumerate(seq.stages, start=1):
            in_stage = columns.stage == stage
            values = columns.investment[in_stage]
            if not values.size:
                raise EmptyLog(f"log for {seq.label()} has no records in stage {stage}")
            mean = float(values.mean())
            se = _se_of_mean(values, columns.group[in_stage])
            role_means.extend([mean] * count)
            role_ses.extend([se] * count)

        totals, groups = columns.triad_totals
        out.append(
            TreatmentSummary(
                sequence=seq,
                role_means=tuple(role_means),
                role_ses=tuple(role_ses),
                aggregate_mean=float(totals.mean()),
                aggregate_se=_se_of_mean(totals, groups),
                nobs=len(log.records),
                n_clusters=len(set(groups.tolist())),
                n_rounds=len(set(columns.round.tolist())),
            )
        )
    return out


def group_aggregate_means(log: SessionLog) -> np.ndarray:
    """Mean aggregate (triad total) investment per matching group; the unit
    of observation for nonparametric across-treatment tests."""
    if not log.records:
        raise EmptyLog(f"log for {log.sequence.label()} has no records")
    totals, groups = _columns(log).triad_totals
    # the totals are sorted by group, so each group's are one slice
    starts = np.flatnonzero(groups[1:] != groups[:-1]) + 1
    return np.array([float(part.mean()) for part in np.split(totals, starts)])
