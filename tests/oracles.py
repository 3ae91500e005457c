"""Verification oracles: slow, independent solvers and tests that the
library's results are checked against.

* ``oracle_grid_spne`` solves the contest by exact backward induction on a
  grid of investments, for up to three players.
* ``largest_root_grid`` is the full-grid numpy root search that
  ``equilibrium.largest_root`` replaced; the plain-Python scan must return
  the same float.
* ``optimal_first_mover_walk`` is the preemption optimiser that
  ``behavior.optimal_first_mover`` replaced: the same first-order walk,
  evaluated through a chain of closures (a clamped response, the later
  movers' total, the marginal payoff) and a root generator. The library's
  one flat function must return the same ``PreemptionResult``.
* ``play_round_nested`` is the triad loop that ``simulate.play_round``'s
  flat walk over a role plan replaced: one pass per stage, one per slot
  within it, each stage's observed investments copied to a list and the
  roles packed per player. Both make the same public calls, in the same
  order, so on equal streams they must return equal records.
* ``jonckheere_terpstra_exact`` gives exact Jonckheere-Terpstra p-values by
  enumerating every assignment of the pooled observations to the groups. It
  counts pairs with its own helper, so it shares no code with the
  statistic it checks.
* ``triad_totals``, ``treatment_summary``, ``trend_by_round``,
  ``group_aggregate_means`` and ``cluster_ols`` compute the record-level
  statistics record by record (a running sum per triad in a dict, one filter
  over the records per stage, cluster scores added with ``np.add.at``); the
  library reads record fields as columns and must give the same floats and
  dtypes. They share the library's arithmetic where it is not about
  columns: X'X inverted by the sweep operator in column order, the
  covariance as a Gram matrix, and rounds counted from the first. Every
  clustered mean here (``wald_mean`` and the summary's SEs) is a regression
  on a column of ones, which the library computes without one.
"""

import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from seqcontest.behavior import PreemptionResult, act
from seqcontest.core import (
    ContestError, ContestSpec, _observation_inputs, draw_winner, round_payoffs
)
from seqcontest.equilibrium import (
    _GRID_POINTS,
    _ROOT_TOL,
    EquilibriumSolution,
    NoRootInUnitInterval,
    _horner,
    bisect,
)
from seqcontest.log import BadGroupComposition, RoundRecord
from seqcontest.stats import OLSFit, TooFewGroups, TreatmentSummary, WaldResult

# ---------------------------------------------------------------------------
# Nested triad loop
# ---------------------------------------------------------------------------


def play_round_nested(
    policies,
    spec: ContestSpec,
    rng,
    *,
    integer_rounding: bool = False,
    group: int = 1,
    round_number: int = 1,
    triad: int = 1,
    subjects=(1, 2, 3),
) -> list[RoundRecord]:
    """One triad, played stage by stage and slot by slot."""
    seq = spec.sequence
    n = seq.n_players
    if len(policies) != n or len(subjects) != n:
        raise BadGroupComposition("one policy and one subject id per player slot")

    investments: list[float] = []
    roles = []  # (stage, slot, m1, m2) of each player, in player order
    for stage, count in enumerate(seq.stages, start=1):
        observed = list(investments)
        m1, m2 = _observation_inputs(seq, stage, observed) if stage > 1 else (None, None)
        for slot in range(1, count + 1):
            x = act(policies[len(investments)], spec, stage, observed, rng)
            if integer_rounding:
                x = float(min(max(round(x), 0), int(spec.endowment)))
            investments.append(x)
            roles.append((stage, slot, m1, m2))

    winner = draw_winner(investments, float(rng.random()))
    payoffs = round_payoffs(spec, investments, winner)
    return [
        RoundRecord(group, round_number, triad, int(subject), *role, x, i == winner, paid)
        for i, (subject, role, x, paid) in enumerate(zip(subjects, roles, investments, payoffs))
    ]


# ---------------------------------------------------------------------------
# Full-grid root search
# ---------------------------------------------------------------------------


def largest_root_grid(coeffs: tuple[int, ...]) -> float:
    """Largest root in [0, 1], from every point of the uniform grid at once.

    The polynomial is evaluated with numpy on all ``_GRID_POINTS + 1`` grid
    points; the larger of the rightmost exact zero and the bisected rightmost
    sign-change bracket is returned.
    """
    xs = np.linspace(0.0, 1.0, _GRID_POINTS + 1)
    vals = np.polynomial.polynomial.polyval(xs, np.array([float(c) for c in coeffs]))

    exact = xs[vals == 0.0]
    best_exact = float(exact.max()) if exact.size else None

    signs = np.sign(vals)
    crossing = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    best_bracket = None
    if crossing.size:
        i = int(crossing.max())
        best_bracket = bisect(
            lambda x: _horner(coeffs, x),
            float(xs[i]), float(xs[i + 1]), float(vals[i]), _ROOT_TOL,
        )

    candidates = [c for c in (best_exact, best_bracket) if c is not None]
    if not candidates:
        raise NoRootInUnitInterval(f"no root of {coeffs} in the unit interval")
    return max(candidates)


# ---------------------------------------------------------------------------
# Preemption optimum through a chain of closures
# ---------------------------------------------------------------------------


def _roots(f, step: float, end: float):
    """Roots of ``f`` on [0, end] in increasing order, found by walking
    x = i * step.

    Yields each grid point where ``f`` is exactly zero (the last point is
    never tested for one) and each strict sign change between neighbouring
    points, bisected to 1e-12.
    """
    lo, f_lo = 0.0, f(0.0)
    for i in range(1, int(end / step) + 1):
        if f_lo == 0.0:
            yield lo
        hi = i * step
        f_hi = f(hi)
        if f_lo * f_hi < 0.0:
            yield bisect(f, lo, hi, f_lo, tol=1e-12)
        lo, f_lo = hi, f_hi


def optimal_first_mover_walk(treatment, models, prize, joy_of_winning=0.0, endowment=240.0):
    """First movers' optimal investment, walked through closures.

    One leader takes the best of the two ends and the roots of its marginal
    payoff; two leaders take the first root of their symmetric first-order
    condition, or else the end that its sign at 0 points to. Inputs are not
    checked.
    """
    stages = treatment.stages
    p_eff = prize + joy_of_winning

    def response(model, m1, m2=None):
        # the rescaled response clamped as in play, with its slopes in m1
        # and m2, which are 0 where it is clamped
        c = 1.0 if model.fit_effective_prize is None else p_eff / model.fit_effective_prize
        value = c * model.mean_response(m1 / c, None if m2 is None else m2 / c)
        if not 0.0 <= value <= endowment:
            return min(max(value, 0.0), endowment), 0.0, 0.0
        d1 = model.m1_coef + 2.0 * model.m1_sq_coef * (m1 / c)
        d2 = 0.0 if m2 is None else model.m2_coef + 2.0 * model.m2_sq_coef * (m2 / c)
        return value, d1, d2

    if stages in ((1, 2), (1, 1, 1)):
        # later stages respond in order; stage 3 also sees stage 2's response
        k2, r2, r3 = stages[1], models[2], (models[3] if stages == (1, 1, 1) else None)

        def others(x):
            second, slope2, _ = response(r2, x)
            total, slope = k2 * second, k2 * slope2
            if r3 is not None:
                third, d31, d32 = response(r3, x, second)
                total, slope = total + third, slope + d31 + d32 * slope2
            return total, slope

        def marginal(x):
            o, slope = others(x)
            if x + o <= 0.0:
                return math.inf  # nobody invests: any investment wins the prize
            return p_eff * (o - x * slope) / (x + o) ** 2 - 1.0

        def payoff(x):
            total = x + others(x)[0]
            if total <= 0.0:
                return p_eff / treatment.n_players - x
            return p_eff * x / total - x

        x = max([0.0, endowment, *_roots(marginal, 0.5, endowment)], key=payoff)
    else:  # (2, 1)
        r2 = models[2]

        def foc(x):
            resp, slope, _ = response(r2, x)
            return p_eff * (x + resp - 0.5 * x * slope) - (2.0 * x + resp) ** 2

        x = next(_roots(foc, 0.5, endowment), endowment if foc(0.0) > 0.0 else 0.0)

    at_boundary = x <= 1e-6 or x >= endowment - 1e-6
    return PreemptionResult(float(x), at_boundary)


# ---------------------------------------------------------------------------
# Discretized backward induction
# ---------------------------------------------------------------------------


class GridTooLarge(ContestError):
    """Discretized backward induction would exceed its size budget."""


_MAX_GRID_POINTS = 481


def _expected_payoff(own, others_sum, prize: float, n: int):
    """Expected payoff of investing ``own`` against opponents totalling
    ``others_sum``, with the even-split convention at zero total."""
    own = np.asarray(own, dtype=float)
    others_sum = np.asarray(others_sum, dtype=float)
    total = own + others_sum
    share = np.where(total > 0, own / np.where(total > 0, total, 1.0), 1.0 / n)
    return prize * share - own


def _fixed_point(br: np.ndarray) -> int:
    """Largest index where a best-response map crosses the diagonal.

    On a grid the map can jump over the diagonal without touching it; in
    that case the upper point of the jump (the first index where the map
    falls below the diagonal) is used, so within-stage play is never biased
    below the crossing.
    """
    idx = np.arange(br.size)
    hits = idx[br == idx]
    if hits.size:
        return int(hits.max())
    below = idx[br < idx]
    return int(below.min()) if below.size else int(idx[-1])


def oracle_grid_spne(spec: ContestSpec, grid_step: float = 1.0) -> EquilibriumSolution:
    """Solve the contest by exact backward induction on a grid of investments.

    Every player is restricted to multiples of ``grid_step`` in
    [0, endowment]. Last-stage players best-respond on the grid (ties broken
    toward the lower investment, which is what argmax-first gives), players
    within a stage play the symmetric grid fixed point, and earlier stages
    anticipate the induced continuation play. This solves the step-h
    discrete game exactly, independently of the polynomial solver.

    Its path is not within O(h) of the continuous equilibrium once two
    players respond in sequence: each one-cell drop in a later mover's grid
    response is worth about 0.4*h to an earlier mover, whose continuous
    objective is very flat, so the path moves by O(sqrt(h)). For (1,1,1)
    the leader invests 89 at h = 1 and 89.15 at h = 0.05, against the
    continuous 86.19. Use it to cross-check the discrete game, not as a
    within-one-step check of ``solve_spne``.
    """
    seq = spec.sequence
    if seq.n_players > 3:
        raise GridTooLarge("grid backward induction supports at most 3 players")
    n_cells = spec.endowment / grid_step
    npts = int(round(n_cells)) + 1
    if abs(n_cells - round(n_cells)) > 1e-9:
        raise ContestError("grid step must divide the endowment evenly")
    if npts > _MAX_GRID_POINTS:
        raise GridTooLarge(
            f"{npts} grid points per player exceeds the {_MAX_GRID_POINTS} budget"
        )

    grid = np.arange(npts) * float(grid_step)
    prize = spec.effective_prize
    n = seq.n_players

    def br_to_sum(max_sum_index: int) -> np.ndarray:
        """Best response (as a grid index) to each possible opponent sum."""
        sums = np.arange(max_sum_index + 1) * float(grid_step)
        payoff = _expected_payoff(grid[:, None], sums[None, :], prize, n)
        return np.argmax(payoff, axis=0)

    stages = seq.stages
    if len(stages) == 1:
        k = stages[0]
        payoff = _expected_payoff(grid[:, None], (k - 1) * grid[None, :], prize, n)
        br = np.argmax(payoff, axis=0)
        i = _fixed_point(br)
        stage_points = [grid[i]]
    elif stages == (1, 1):
        follow = br_to_sum(npts - 1)
        leader_obj = _expected_payoff(grid, grid[follow], prize, n)
        i = int(np.argmax(leader_obj))
        stage_points = [grid[i], grid[follow[i]]]
    elif stages == (1, 2):
        follow = br_to_sum(2 * (npts - 1))
        pair = np.empty(npts, dtype=int)
        for i in range(npts):
            pair[i] = _fixed_point(follow[i : i + npts])
        leader_obj = _expected_payoff(grid, 2.0 * grid[pair], prize, n)
        i = int(np.argmax(leader_obj))
        stage_points = [grid[i], grid[pair[i]]]
    elif stages == (2, 1):
        follow = br_to_sum(2 * (npts - 1))
        pair_sum = np.arange(npts)[:, None] + np.arange(npts)[None, :]
        others = grid[None, :] + grid[follow[pair_sum]]
        payoff = _expected_payoff(grid[:, None], others, prize, n)
        br = np.argmax(payoff, axis=0)
        i = _fixed_point(br)
        stage_points = [grid[i], grid[follow[2 * i]]]
    elif stages == (1, 1, 1):
        third = br_to_sum(2 * (npts - 1))
        second = np.empty(npts, dtype=int)
        for i in range(npts):
            reaction = third[i : i + npts]
            vals = _expected_payoff(grid, grid[i] + grid[reaction], prize, n)
            second[i] = int(np.argmax(vals))
        third_on_path = third[np.arange(npts) + second]
        leader_obj = _expected_payoff(
            grid, grid[second] + grid[third_on_path], prize, n
        )
        i = int(np.argmax(leader_obj))
        j = int(second[i])
        stage_points = [grid[i], grid[j], grid[third[i + j]]]
    else:
        raise AssertionError(f"unhandled sequence {stages}")

    aggregate = float(sum(k * x for k, x in zip(stages, stage_points)))
    return EquilibriumSolution(
        sequence=seq,
        prize=spec.prize,
        joy_of_winning=spec.joy_of_winning,
        aggregate=aggregate / prize,
        stage_investments=tuple(x / prize for x in stage_points),
        scaled_aggregate=aggregate,
        scaled_stage_investments=tuple(float(x) for x in stage_points),
    )

# ---------------------------------------------------------------------------
# Exact Jonckheere-Terpstra test
# ---------------------------------------------------------------------------


def _pairwise_count(groups) -> float:
    """Over every ordered pair of groups, the number of observation pairs
    that increase, with ties counting one half."""
    return sum(
        (a < b) + 0.5 * (a == b)
        for i, earlier in enumerate(groups)
        for later in groups[i + 1 :]
        for a in earlier
        for b in later
    )


class JTExactResult(NamedTuple):
    statistic: float
    pvalue_greater: float
    pvalue_less: float
    pvalue: float


_EXACT_LIMIT = 10


def jonckheere_terpstra_exact(groups: Sequence[Sequence[float]]) -> JTExactResult:
    """Exact Jonckheere-Terpstra p-values by enumerating all assignments of
    the pooled observations to the group sizes. Limited to 10 observations;
    meant as a test oracle for the normal approximation.
    """
    groups = [[float(v) for v in g] for g in groups]
    if len(groups) < 3:
        raise TooFewGroups("the trend test needs at least 3 ordered groups")
    sizes = [len(g) for g in groups]
    total = sum(sizes)
    if total > _EXACT_LIMIT:
        raise ContestError(
            f"exact enumeration is limited to {_EXACT_LIMIT} observations, got {total}"
        )
    observed = _pairwise_count(groups)
    pooled = [v for g in groups for v in g]

    def splits(indices: tuple[int, ...], remaining: list[int]):
        if not remaining:
            yield ()
            return
        head, *tail = remaining
        for chosen in itertools.combinations(indices, head):
            rest = tuple(i for i in indices if i not in chosen)
            for others in splits(rest, tail):
                yield (chosen,) + others

    n_ge = n_le = count = 0
    eps = 1e-9
    for assignment in splits(tuple(range(total)), sizes):
        stat = _pairwise_count([[pooled[i] for i in chosen] for chosen in assignment])
        count += 1
        if stat >= observed - eps:
            n_ge += 1
        if stat <= observed + eps:
            n_le += 1
    p_ge = n_ge / count
    p_le = n_le / count
    two_sided = min(1.0, 2.0 * min(p_ge, p_le))
    return JTExactResult(observed, p_ge, p_le, two_sided)


# ---------------------------------------------------------------------------
# Record-by-record statistics
# ---------------------------------------------------------------------------


def _sweep_inverse(a: list[list[float]]) -> list[list[float]]:
    """The inverse of the k x k matrix ``a`` by the sweep operator, pivots
    in column order, entry by entry: the arithmetic of ``stats._inverse``
    without its rank test."""
    k = len(a)
    a = [list(row) for row in a]
    for p in range(k):
        d = a[p][p]
        pivot_row = [a[p][j] / d for j in range(k)]
        for i in range(k):
            if i == p:
                continue
            b = a[i][p]
            for j in range(k):
                a[i][j] = a[i][j] - b * pivot_row[j]
            a[i][p] = -b / d
        pivot_row[p] = 1.0 / d
        a[p] = pivot_row
    return a


def cluster_ols(y, design, clusters) -> OLSFit:
    """``stats.cluster_ols`` on a full-rank design with at least 2 clusters,
    its cluster scores added row by row with ``np.add.at``."""
    y = np.asarray(y, dtype=float)
    X = np.asarray(design, dtype=float)
    n, k = X.shape
    codes, inverse = np.unique(np.asarray(clusters), return_inverse=True)
    g = codes.size
    bread = np.array(_sweep_inverse((X.T @ X).tolist()))
    params = bread @ (X.T @ y)
    resid = y - X @ params
    cluster_scores = np.zeros((g, k))
    np.add.at(cluster_scores, inverse, X * resid[:, None])
    half = cluster_scores @ bread
    cov = (g / (g - 1.0)) * ((n - 1.0) / (n - k)) * (half.T @ half)
    ssr = float(resid @ resid)
    sst = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - ssr / sst if sst > 0 else float("nan")
    return OLSFit(params=params, cov=cov, r_squared=r_squared, nobs=n, n_clusters=g)


def wald_mean(values, clusters, hypothesized: float) -> WaldResult:
    """``stats.wald_mean`` with its mean and SE from an intercept-only
    ``cluster_ols``."""
    values = np.asarray(values, dtype=float)
    fit = cluster_ols(values, np.ones((values.size, 1)), clusters)
    mean, se = float(fit.params[0]), float(fit.se[0])
    scale = max(1.0, abs(hypothesized), abs(mean))
    if se <= 1e-12 * scale:
        if abs(mean - hypothesized) <= 1e-9 * scale:
            return WaldResult(0.0, 1.0, mean, se, True)
        return WaldResult(float("inf"), 0.0, mean, se, True)
    statistic = ((mean - hypothesized) / se) ** 2
    return WaldResult(float(statistic), math.erfc(math.sqrt(statistic / 2.0)), mean, se, False)


def triad_totals(records) -> tuple[np.ndarray, np.ndarray]:
    totals: dict[tuple[int, int, int], float] = {}
    for r in records:
        key = (r.group, r.round, r.triad)
        totals[key] = totals.get(key, 0.0) + r.investment
    keys = sorted(totals)
    return np.array([totals[k] for k in keys]), np.array([k[0] for k in keys])


def _se_of_mean(values: np.ndarray, clusters: np.ndarray) -> float:
    if np.unique(clusters).size < 2:
        return float("nan")
    return float(cluster_ols(values, np.ones((values.size, 1)), clusters).se[0])


def treatment_summary(log) -> TreatmentSummary:
    records = log.records
    role_means: list[float] = []
    role_ses: list[float] = []
    for stage, count in enumerate(log.sequence.stages, start=1):
        stage_records = [r for r in records if r.stage == stage]
        values = np.array([r.investment for r in stage_records])
        clusters = np.array([r.group for r in stage_records])
        role_means.extend([float(values.mean())] * count)
        role_ses.extend([_se_of_mean(values, clusters)] * count)
    totals, groups = triad_totals(records)
    return TreatmentSummary(
        sequence=log.sequence,
        role_means=tuple(role_means),
        role_ses=tuple(role_ses),
        aggregate_mean=float(totals.mean()),
        aggregate_se=_se_of_mean(totals, groups),
        nobs=len(records),
        n_clusters=int(np.unique(groups).size),
        n_rounds=len({r.round for r in records}),
    )


def trend_by_round(records) -> OLSFit:
    y = np.array([r.investment for r in records])
    first = min(r.round for r in records)
    rounds = np.array([float(r.round - first) for r in records])
    design = np.column_stack([np.ones(len(records)), rounds])
    return cluster_ols(y, design, np.array([r.group for r in records]))


def group_aggregate_means(log) -> np.ndarray:
    totals, groups = triad_totals(log.records)
    return np.array([float(np.mean(totals[groups == g])) for g in np.unique(groups)])
