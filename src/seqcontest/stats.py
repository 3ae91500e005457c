"""Analysis pipeline for contest logs.

Inference follows the conventions of small lab samples: standard errors are
clustered by matching group with the small-sample factor
G/(G-1) * (N-1)/(N-K), Wald statistics are referred to chi-square(1), and the
trend across ordered treatments uses the Jonckheere-Terpstra test on
matching-group means with the normal approximation (tie-corrected variance).

The record-level summaries (triad totals, treatment summaries, the round
trend, matching-group means) read the group, round, triad, stage and
investment columns of a log's column store (``seqcontest.log`` module
docstring) and compute on them as arrays. That store is the log's: this
module seeds, cuts and replaces none. Each column becomes an array on first
use (``_array``), kept in that store in the column's place, and so does one
derived entry, ``_triads``: the group codes of the records, the triad totals
with their group codes, and the round count. So every statistic of one log
reads its records at most once and codes its groups once, and all of it goes
with the store when the records change. ``last_rounds`` filters a log's
records, and the cut log reads them into its own store on first use.
Records not in a log are read into a store of their own on each
call. Triad totals are a ``np.bincount`` over runs of equal (group, round,
triad) keys, in record order from 0.0: the floats a running sum per triad
gives, whatever the order of the records or the ids (records out of the key
order ``run_session`` writes are first put in it by a stable
``np.lexsort``). Integer cluster ids that arrive non-decreasing are coded by
run length, others by ``np.unique``, to the same arrays (``_codes``). Each
clustered mean is ``_mean_se``, ``cluster_ols``'s floats on a column of ones
from cluster codes; only the round trend fits through ``cluster_ols``.

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
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _LAZY_EXPORTS
from .core import ContestError, MoveSequence, _finite_real
from .log import SessionLog, _columns

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


def _reals(value, name: str) -> np.ndarray:
    """A statistic's data as an array of finite floats, else raise naming it ``name``."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # text, ragged, beyond floats
        raise ContestError(f"{name} must hold real numbers: {exc}") from None
    if not np.isfinite(array).all():
        raise ContestError(f"{name} must be finite")
    return array


def _runs(keys: Sequence[np.ndarray]) -> np.ndarray | None:
    """Where each run of equal rows of ``keys`` (the last key most significant,
    as in ``np.lexsort``) starts, or None when the rows are out of order."""
    tie = np.ones(keys[0].size, dtype=bool)  # a row equal to the one before in each key so far
    for key in reversed(keys):
        if (tie[1:] & (key[1:] < key[:-1])).any():
            return None
        tie[1:] &= key[1:] == key[:-1]
    tie[:1] = False
    return ~tie


def _codes(ids, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_inverse=True)`` of ``n`` cluster ids, else raise."""
    ids = np.asarray(ids)
    if ids.shape != (n,):
        raise ContestError(f"clusters has shape {ids.shape}, expected ({n},)")
    first = _runs([ids]) if ids.dtype.kind in "iu" else None
    if first is None:
        try:
            return np.unique(ids, return_inverse=True)
        except TypeError:  # ids that do not order, such as None among ints
            kinds = sorted({type(i).__name__ for i in ids.tolist()})
            raise ContestError(f"clusters must be ids of one ordered type, got {kinds}") from None
    return ids[first], np.cumsum(first, dtype=np.intp) - 1


def cluster_ols(y, design, clusters) -> OLSFit:
    """Pooled OLS with a cluster-robust (sandwich) covariance matrix.

    cov = c * (X'X)^-1 [sum_g (X_g'u_g)(X_g'u_g)'] (X'X)^-1 with the
    small-sample factor c = G/(G-1) * (N-1)/(N-K). With every observation in
    its own cluster this reduces to HC1. The design is rank deficient, and
    raises, when a column's part unexplained by the columns before it is at
    most 1e-10 of its sum of squares (module docstring). ``clusters`` holds
    one id per observation (ids that order), ``design`` is 1-d or 2-d with at
    least one column, and ``y`` and ``design`` hold finite real numbers, else
    :class:`ContestError` naming the argument is raised.
    """
    y = _reals(y, "y")
    X = _reals(design, "design")
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or not X.shape[1]:
        raise ContestError(f"design has shape {X.shape}, expected (n,) or (n, k) with k >= 1")
    n, k = X.shape
    if y.shape != (n,):
        raise ContestError(f"y has shape {y.shape}, expected ({n},)")
    if n <= k:
        raise RankDeficientDesign(f"{n} observations cannot identify {k} coefficients")
    bread = np.array(_inverse((X.T @ X).tolist()))
    codes, inverse = _codes(clusters, n)
    g = codes.size
    if g < 2:
        raise TooFewClusters("clustered inference needs at least 2 clusters")

    params = bread @ (X.T @ y)
    resid = y - X.dot(params)  # X @ params skips BLAS when k == 1

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


def _mean_se(values: np.ndarray, codes: np.ndarray, g: int) -> tuple[float, np.ndarray, float]:
    """The mean of ``values`` and its SE clustered by ``codes`` (cluster
    numbers below ``g``), by ``cluster_ols``'s products on a column of ones in
    its shapes, so they are its floats. Returns the mean, each cluster's
    residual sum (``np.bincount``, in row order) and the SE, counting only
    the clusters present (nan below 2)."""
    n = values.size
    mean = (1.0 / n) * (np.ones((1, n)) @ values)[0]
    sums = np.bincount(codes, weights=values - mean, minlength=g)
    sums = sums[np.bincount(codes, minlength=g) > 0]
    g = sums.size
    half = sums[:, None] * (1.0 / n)
    se = math.sqrt((g / (g - 1.0)) * (half.T @ half)[0, 0]) if g > 1 else float("nan")
    return float(mean), sums, se


def wald_mean(values, clusters, hypothesized: float) -> WaldResult:
    """Cluster-robust Wald test of H0: mean == hypothesized.

    The mean and SE are an intercept-only cluster OLS's (``_mean_se``), and
    the squared t-ratio is referred to chi-square(1). ``clusters`` holds one
    id per value, the values are 1-d, and both they and ``hypothesized`` (not
    a bool) are finite real numbers, else :class:`ContestError` naming the
    argument is raised; under 2 clusters :class:`TooFewClusters`.
    Zero-variance samples are flagged degenerate: p = 1 when the mean
    matches the hypothesis (to float precision), else 0.
    """
    values = _reals(values, "values")
    if values.ndim != 1:
        raise ContestError(f"values has shape {values.shape}, expected 1-d")
    _finite_real(hypothesized, "hypothesized")
    ids, codes = _codes(clusters, values.size)
    if ids.size < 2:
        raise TooFewClusters("clustered inference needs at least 2 clusters")
    mean, _, se = _mean_se(values, codes, ids.size)
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
    strictly increasing transform of the data. A group that is not a 1-d
    sequence of at least one finite real number raises :class:`ContestError`
    naming it (``groups[i]``).
    """
    arrays = [_reals(g, f"groups[{i}]") for i, g in enumerate(groups)]
    if len(arrays) < 3:
        raise TooFewGroups("the trend test needs at least 3 ordered groups")
    for i, a in enumerate(arrays):
        if a.ndim != 1 or not a.size:
            raise ContestError(
                f"groups[{i}] has shape {a.shape}; every group needs a 1-d sequence of"
                " at least one observation"
            )
    pooled = np.concatenate(arrays)

    statistic = _jt_statistic(arrays)
    sizes = np.array([a.size for a in arrays], dtype=float)
    total = float(sizes.sum())
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


def _array(columns: dict, name: str) -> np.ndarray:
    """The store's column ``name`` as a read-only array, investment as floats
    and the others as ints, made on first use and kept in the column's place.
    An ``array('q')`` or ``array('d')`` is viewed in place (int is int64), a
    list or tuple is read with its dtype named, an id beyond int64 makes an
    array of Python ints, which keeps the ids exact, and an empty column is
    float64, as ``np.array`` makes an empty list."""
    column = columns[name]
    if isinstance(column, np.ndarray):
        return column
    try:
        column = np.asarray(column, int if name != "investment" and len(column) else float)
    except OverflowError:
        column = np.array(column, dtype=object)
    column.flags.writeable = False  # the store's own
    columns[name] = column
    return column


def _triads(columns: dict) -> tuple:
    """The log's grouping, derived on first use and kept in the store under
    ``"_triads"`` (no column's name): the group ids in order, each record's
    group code (its group's index among them), each triad row's total and
    group code, the rows sorted by (group, round, triad), and the number of
    rounds."""
    if "_triads" not in columns:
        group = _array(columns, "group")
        ids, codes = _codes(group, group.size)
        keys = [_array(columns, "triad"), _array(columns, "round"), codes]
        investment = _array(columns, "investment")
        # records out of key order are sorted, stably, so each triad's stay in
        # record order; bincount adds each run in that order from 0.0: the
        # floats of a running sum per triad
        first = _runs(keys)
        if first is None:
            order = np.lexsort(keys)
            keys, investment = [k[order] for k in keys], investment[order]
            first = _runs(keys)
        # float64 when empty too: bincount of nothing is an int array
        totals = np.bincount(np.cumsum(first) - 1, weights=investment).astype(float, copy=False)
        # the rounds counted on the triad rows, a third of the records at most
        n_rounds = len(set(keys[1][first].tolist()))
        columns["_triads"] = (ids, codes, totals, keys[2][first], n_rounds)
    return columns["_triads"]


def last_rounds(log: SessionLog, k: int) -> SessionLog:
    """The log cut to its last ``k`` rounds, the rounds above its last round
    less ``k``, taken in Python ints, so any ``k`` and any round id cut
    exactly and a ``k`` beyond the log's span of rounds keeps every round.
    ``k`` is a whole number of at least 1 (an int, not a bool or a float),
    else :class:`ContestError` is raised. The cut log is a ``replace`` of
    ``log``: it reads its records into a store of its own on first use."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ContestError(f"k must be a whole number of at least 1, got {k!r}")
    cutoff = max((r.round for r in log.records), default=0) - int(k)
    return replace(log, records=[r for r in log.records if r.round > cutoff])


def triad_totals(log_or_records) -> tuple[np.ndarray, np.ndarray]:
    """Total investment of each triad-round, sorted by (group, round, triad),
    and the matching group each total belongs to."""
    groups, _, totals, codes, _ = _triads(_columns(log_or_records))
    return totals.copy(), groups[codes]


def trend_by_round(log_or_records) -> OLSFit:
    """Pooled OLS of individual investment on the round number, clustered by
    matching group.

    The rounds are counted from the log's first (lowest) round, subtracted
    as whole numbers before they become floats, so ids of any size fit
    alike. ``params[1]`` is the slope per round, and ``params[0]`` is the
    fitted investment at the first round, not at round 0.
    """
    columns = _columns(log_or_records)
    rounds = _array(columns, "round")
    if not rounds.size:
        raise EmptyLog("no records")
    first, last = rounds.min(), rounds.max()
    if first == last:
        raise ContestError("trend regression needs at least 2 rounds")
    if int(last) - int(first) > _INT64_MAX:
        # the differences could overflow int64: take them as Python ints
        rounds, first = rounds.astype(object), int(first)
    design = np.column_stack([np.ones(rounds.size), (rounds - first).astype(float)])
    return cluster_ols(_array(columns, "investment"), design, _array(columns, "group"))


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
        groups, codes, totals, total_codes, n_rounds = _triads(columns)
        stages, investment = _array(columns, "stage"), _array(columns, "investment")
        seq = log.sequence
        role_means: list[float] = []
        role_ses: list[float] = []
        for stage, count in enumerate(seq.stages, start=1):
            in_stage = stages == stage
            values = investment[in_stage]
            if not values.size:
                raise EmptyLog(f"log for {seq.label()} has no records in stage {stage}")
            role_means.extend([float(values.mean())] * count)
            role_ses.extend([_mean_se(values, codes[in_stage], groups.size)[2]] * count)

        out.append(
            TreatmentSummary(
                sequence=seq,
                role_means=tuple(role_means),
                role_ses=tuple(role_ses),
                aggregate_mean=float(totals.mean()),
                aggregate_se=_mean_se(totals, total_codes, groups.size)[2],
                nobs=len(log.records),
                n_clusters=groups.size,
                n_rounds=n_rounds,
            )
        )
    return out


def group_aggregate_means(log: SessionLog) -> np.ndarray:
    """Mean aggregate (triad total) investment per matching group; the unit
    of observation for nonparametric across-treatment tests."""
    if not log.records:
        raise EmptyLog(f"log for {log.sequence.label()} has no records")
    _, _, totals, codes, _ = _triads(_columns(log))
    # the totals are sorted by group, so each group's are one slice
    starts = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    return np.array([float(part.mean()) for part in np.split(totals, starts)])
