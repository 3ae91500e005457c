"""Subgame-perfect equilibrium solver for sequential lottery contests.

The solver works on the normalized game with unit prize. Starting from the
identity polynomial, one backward pass builds a ladder of polynomials, one
per stage boundary:

    f_T(X) = X,    f_{t-1}(X) = f_t(X) - k_t * f_t'(X) * X * (1 - X),

where k_t players decide at stage t. The equilibrium aggregate investment is
the largest root of f_0 in [0, 1], and stage-t players each invest
(f_t(X) - f_{t-1}(X)) / k_t. Multiplying by the effective prize converts the
normalized solution to points.

A ladder polynomial is a plain tuple of integer coefficients in ascending
powers. The recursion maps integer polynomials to integer polynomials, so
the coefficients stay exact through the whole ladder and floating point
enters only at root finding and evaluation.

The root is found in plain Python, without numpy: :func:`largest_root` walks
a uniform grid over [0, 1] from x = 1 down to the first exact zero or sign
change and bisects there, which gives the same float as a search of the
whole grid for its rightmost root. It runs Horner's rule and the bisection
in line, giving the floats of ``_horner`` and :func:`bisect`.
"""

from __future__ import annotations

import math
import numbers
import warnings
from functools import lru_cache
from typing import NamedTuple

from .core import ContestError, ContestSpec, MoveSequence, _check_contest_numbers, _index

__all__ = [
    "NoRootInUnitInterval",
    "NonPositiveMean",
    "EquilibriumSolution",
    "build_ladder",
    "largest_root",
    "solve_spne",
    "calibrate_jow",
]

_GRID_POINTS = 10_000
_ROOT_TOL = 1e-13


class NoRootInUnitInterval(ContestError):
    """The aggregate-investment polynomial has no root in [0, 1]."""


class NonPositiveMean(ContestError):
    """Observed mean investment must be positive to calibrate."""


def build_ladder(sequence: MoveSequence) -> tuple[tuple[int, ...], ...]:
    """Run the backward recursion from the identity down to f_0.

    Returns (f_0, ..., f_T), each a tuple of integer coefficients in
    ascending powers. With a_j the coefficients of f_t, f_{t-1} has
    c_j = a_j - k_t * (j * a_j - (j - 1) * a_{j-1}), so degrees grow by one
    per stage and f_0 has degree T + 1.
    """
    ladder = [(0, 1)]
    for k in reversed(sequence.stages):
        a = ladder[-1] + (0,)
        a_prev = (0,) + ladder[-1]  # a_prev[j] = a_{j-1}
        ladder.append(
            tuple(a[j] - k * (j * a[j] - (j - 1) * a_prev[j]) for j in range(len(a)))
        )
    ladder.reverse()
    return tuple(ladder)


def _horner(coeffs: tuple[int, ...], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def bisect(f, lo: float, hi: float, f_lo: float, tol: float) -> float:
    """Root of ``f`` in a sign-change bracket [lo, hi] with ``f_lo = f(lo)``.

    Halves the bracket until it is no wider than ``tol`` and returns its
    midpoint, or returns a midpoint at once if ``f`` is exactly zero there.
    Used by ``behavior.optimal_first_mover``'s first-order walk and by two
    test oracles (the full-grid root search and the old closure walk);
    :func:`largest_root` runs the same rule in line.
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


def largest_root(coeffs: tuple[int, ...]) -> float:
    """Largest real root in [0, 1] of the polynomial with these coefficients.

    The polynomial is evaluated on a uniform grid of ``_GRID_POINTS`` cells
    over [0, 1], walking from x = 1 down towards 0. The first grid point
    where it is exactly zero is returned; the first cell whose ends have
    strictly opposite signs is refined by bisection until the bracket is
    narrower than ``_ROOT_TOL``. Going right to left, the first event met is
    the rightmost one on the whole grid, so the result is the same float a
    full-grid search returns, while a root near 1 (the usual case) costs a
    few dozen evaluations. Zero is always a root of a valid ladder
    polynomial and is returned only when no positive root exists.

    Horner's rule and the bisection are written in line, in the operation
    order of ``_horner`` and by the rule of :func:`bisect`, so every value
    and the root are the floats those two functions give. Horner starts at
    the leading coefficient, which is what ``_horner``'s first step
    (0.0 * x + c, with x >= 0) gives. Coefficients beyond the float range
    raise :class:`ContestError`.
    """
    try:
        lead, *rest = (float(c) for c in reversed(coeffs))
    except OverflowError:
        raise ContestError(
            "the equilibrium polynomial's coefficients exceed the float range"
        ) from None
    step = 1.0 / _GRID_POINTS
    hi, f_hi = 1.0, 0.0  # no bracket ends at 1; the walk tests f(1) first
    for i in range(_GRID_POINTS, -1, -1):
        lo = i * step  # exactly 1.0 at i = _GRID_POINTS
        f_lo = lead
        for c in rest:
            f_lo = f_lo * lo + c
        if f_lo == 0.0:
            return lo
        if f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo:
            lo_negative = f_lo < 0.0
            while hi - lo > _ROOT_TOL:
                mid = 0.5 * (lo + hi)
                f_mid = lead
                for c in rest:
                    f_mid = f_mid * mid + c
                if f_mid == 0.0:
                    return mid
                if (f_mid < 0.0) == lo_negative:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        hi, f_hi = lo, f_lo
    raise NoRootInUnitInterval(f"no root of {coeffs} in the unit interval")


class EquilibriumSolution(NamedTuple):
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
    x_star = largest_root(ladder[0])
    values = [_horner(f, x_star) for f in ladder]
    stage = tuple(
        (values[t] - values[t - 1]) / k for t, k in enumerate(sequence.stages, start=1)
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

    The mean is a finite positive real number other than a bool (else
    :class:`NonPositiveMean`), ``n`` a whole number of at least 2 and the
    prize what :class:`ContestSpec` takes as one, else :class:`ContestError`.
    """
    try:
        valid = (
            isinstance(observed_mean, numbers.Real)
            and not isinstance(observed_mean, bool)
            and math.isfinite(observed_mean)
            and observed_mean > 0
        )
    except OverflowError:  # an int beyond floats
        valid = False
    if not valid:
        raise NonPositiveMean(
            f"observed mean must be a finite positive number, got {observed_mean!r}"
        )
    n = _index(n, "n")  # a Python int: n * n of a numpy integer may wrap
    if n < 2:
        raise ContestError("calibration needs at least two players")
    _check_contest_numbers(prize, 0.0, 0.0)  # the prize by a contest's rule
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
