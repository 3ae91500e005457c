"""Subgame-perfect equilibrium solver for sequential lottery contests.

The solver works on the normalized game with unit prize. Starting from the
identity polynomial, one backward pass builds a ladder of polynomials, one
per stage boundary:

    f_T(X) = X,    f_{t-1}(X) = f_t(X) - k_t * f_t'(X) * X * (1 - X),

where k_t players decide at stage t. The equilibrium aggregate investment is
the largest root of f_0 in [0, 1], and stage-t players each invest
(f_t(X) - f_{t-1}(X)) / k_t. Multiplying by the effective prize converts the
normalized solution to points.

Polynomial coefficients stay exact Python integers through the whole ladder
(the recursion maps integer polynomials to integer polynomials), so floating
point enters only at root finding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ContestError, ContestSpec, MoveSequence

__all__ = [
    "NoRootInUnitInterval",
    "GridTooLarge",
    "NonPositiveMean",
    "Polynomial",
    "RecursionLadder",
    "EquilibriumSolution",
    "build_ladder",
    "largest_root",
    "solve_spne",
    "calibrate_jow",
    "oracle_grid_spne",
]


class NoRootInUnitInterval(ContestError):
    """The aggregate-investment polynomial has no root in [0, 1]."""


class GridTooLarge(ContestError):
    """Discretized backward induction would exceed its size budget."""


class NonPositiveMean(ContestError):
    """Observed mean investment must be positive to calibrate."""


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial, ascending powers, exact int coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0,))
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return Polynomial(tuple(x - y for x, y in zip(a, b)))

    def times_x_minus_x_squared(self) -> "Polynomial":
        """Multiply by x*(1-x), i.e. shift up one power and subtract the
        two-power shift."""
        up1 = (0,) + self.coeffs
        up2 = (0, 0) + self.coeffs
        n = len(up2)
        a = up1 + (0,) * (n - len(up1))
        return Polynomial(tuple(x - y for x, y in zip(a, up2)))

    def scale(self, k: int) -> "Polynomial":
        return Polynomial(tuple(k * c for c in self.coeffs))

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class RecursionLadder:
    """All ladder polynomials (f_0, ..., f_T) for one move sequence."""

    sequence: MoveSequence
    polys: tuple[Polynomial, ...]


def build_ladder(sequence: MoveSequence) -> RecursionLadder:
    """Run the backward recursion from the identity down to f_0.

    Degrees grow by one per stage, so f_0 has degree T + 1.
    """
    polys = [Polynomial((0, 1))]
    for count in reversed(sequence.stages):
        f_t = polys[-1]
        step = f_t.derivative().times_x_minus_x_squared().scale(count)
        polys.append(f_t - step)
    polys.reverse()
    return RecursionLadder(sequence=sequence, polys=tuple(polys))


def bisect(f, lo: float, hi: float, f_lo: float, tol: float) -> float:
    """Root of ``f`` in a sign-change bracket [lo, hi] with ``f_lo = f(lo)``.

    Halves the bracket until it is no wider than ``tol`` and returns its
    midpoint, or returns a midpoint at once if ``f`` is exactly zero there.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def largest_root(
    f0: Polynomial, grid_points: int = 10_000, tol: float = 1e-13
) -> float:
    """Largest real root of ``f0`` in [0, 1].

    Sign changes are bracketed on a uniform grid of ``grid_points`` cells
    over [0, 1] and the rightmost bracket is refined by bisection until the
    interval is narrower than ``tol``. Zero is always a root of a valid
    ladder polynomial and is returned only when no positive root exists.
    """
    coeffs = np.array([float(c) for c in f0.coeffs])
    xs = np.linspace(0.0, 1.0, grid_points + 1)
    vals = np.polynomial.polynomial.polyval(xs, coeffs)

    exact = xs[vals == 0.0]
    best_exact = float(exact.max()) if exact.size else None

    signs = np.sign(vals)
    crossing = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    best_bracket = None
    if crossing.size:
        i = int(crossing.max())
        best_bracket = bisect(f0, float(xs[i]), float(xs[i + 1]), float(vals[i]), tol)

    candidates = [c for c in (best_exact, best_bracket) if c is not None]
    if not candidates:
        raise NoRootInUnitInterval(f"no root of {f0.coeffs} in the unit interval")
    return max(candidates)


@dataclass(frozen=True)
class EquilibriumSolution:
    """Equilibrium aggregate and per-stage individual investments.

    ``aggregate`` and ``stage_investments`` refer to the normalized game with
    unit prize; the ``scaled_`` fields are the same quantities multiplied by
    the effective prize (prize + joy of winning).
    """

    sequence: MoveSequence
    prize: float
    joy_of_winning: float
    aggregate: float
    stage_investments: tuple[float, ...]
    scaled_aggregate: float
    scaled_stage_investments: tuple[float, ...]

    def per_player_investments(self) -> tuple[float, ...]:
        """Scaled investments expanded to one entry per player, in move order."""
        out: list[float] = []
        for k, x in zip(self.sequence.stages, self.scaled_stage_investments):
            out.extend([x] * k)
        return tuple(out)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "sequence": list(self.sequence.stages),
            "prize": self.prize,
            "joy_of_winning": self.joy_of_winning,
            "aggregate": self.scaled_aggregate,
            "stage_investments": list(self.scaled_stage_investments),
            "per_player_investments": list(self.per_player_investments()),
            "normalized_aggregate": self.aggregate,
            "normalized_stage_investments": list(self.stage_investments),
        }


@lru_cache(maxsize=None)
def _normalized_solution(sequence: MoveSequence) -> tuple[float, tuple[float, ...]]:
    ladder = build_ladder(sequence)
    x_star = largest_root(ladder.polys[0])
    stage = tuple(
        (ladder.polys[t](x_star) - ladder.polys[t - 1](x_star)) / k
        for t, k in enumerate(sequence.stages, start=1)
    )
    return x_star, stage


def solve_spne(spec: ContestSpec) -> EquilibriumSolution:
    """Solve the contest for its subgame-perfect equilibrium investments."""
    x_star, stage = _normalized_solution(spec.sequence)
    scale = spec.effective_prize
    return EquilibriumSolution(
        sequence=spec.sequence,
        prize=spec.prize,
        joy_of_winning=spec.joy_of_winning,
        aggregate=x_star,
        stage_investments=stage,
        scaled_aggregate=scale * x_star,
        scaled_stage_investments=tuple(scale * x for x in stage),
    )


def calibrate_jow(observed_mean: float, n: int, prize: float) -> float:
    """Back out the joy-of-winning parameter from a simultaneous contest.

    In the one-stage symmetric equilibrium with effective prize V + w, each
    of the n players invests (n-1)(V+w)/n**2, so
    w = n**2 * mean / (n - 1) - V. A negative estimate is clamped to zero
    with a warning: investment below the equilibrium level is attributed to
    noise, not to displeasure from winning.
    """
    if observed_mean <= 0:
        raise NonPositiveMean(f"observed mean must be positive, got {observed_mean}")
    if n < 2:
        raise ContestError("calibration needs at least two players")
    w = n * n * observed_mean / (n - 1) - prize
    if w < 0:
        warnings.warn(
            f"observed mean {observed_mean} is below the equilibrium level; "
            "clamping joy of winning to 0",
            UserWarning,
            stacklevel=2,
        )
        return 0.0
    return w


# ---------------------------------------------------------------------------
# Discretized backward induction (verification oracle)
# ---------------------------------------------------------------------------

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
