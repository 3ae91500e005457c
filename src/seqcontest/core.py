"""Game primitives for sequential lottery contests.

A contest is described by a move sequence (how many players decide at each
stage), a prize, and a per-player endowment. The winner is drawn with
probability proportional to investment: p_i = x_i / sum(x), falling back to
an even split 1/n when nobody invests. All functions here are pure and
operate on plain sequences of numbers.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ContestError",
    "EmptySequence",
    "NonPositiveStageCount",
    "NegativeInvestment",
    "InvestmentExceedsEndowment",
    "MoveSequence",
    "ContestSpec",
    "win_probabilities",
    "draw_winner",
    "round_payoffs",
]


class ContestError(ValueError):
    """Base class for invalid contest inputs."""


class EmptySequence(ContestError):
    """Move sequence has no stages."""


class NonPositiveStageCount(ContestError):
    """A stage declares fewer than one deciding player."""


class NegativeInvestment(ContestError):
    """An investment is below zero."""


class InvestmentExceedsEndowment(ContestError):
    """An investment is above the per-player endowment."""


def _stage_count(k) -> int:
    # operator.index takes ints and numpy integers, but no float or string
    try:
        if not isinstance(k, bool):
            return operator.index(k)
    except TypeError:
        pass
    raise ContestError(f"a stage count must be a whole number, got {k!r}")


@dataclass(frozen=True)
class MoveSequence:
    """Stage structure of a contest: ``stages[t]`` players decide at stage t.

    Players are indexed 0..n-1 in order of play; all players within a stage
    decide simultaneously after observing every investment from strictly
    earlier stages.
    """

    stages: tuple[int, ...]

    def __post_init__(self):
        try:
            stages = tuple(map(_stage_count, self.stages))
        except TypeError:
            raise ContestError(f"stages must be stage counts, got {self.stages!r}") from None
        object.__setattr__(self, "stages", stages)
        if len(stages) == 0:
            raise EmptySequence("a move sequence needs at least one stage")
        for k in stages:
            if k < 1:
                raise NonPositiveStageCount(
                    f"every stage needs at least one player, got {stages}"
                )

    @property
    def n_players(self) -> int:
        return sum(self.stages)

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def stage_of_player(self, player: int) -> int:
        """1-based stage at which 0-based ``player`` decides."""
        if not 0 <= player < self.n_players:
            raise IndexError(f"player index {player} out of range")
        seen = 0
        for t, k in enumerate(self.stages, start=1):
            seen += k
            if player < seen:
                return t
        raise AssertionError("unreachable")

    def players_before_stage(self, stage: int) -> int:
        """Number of players deciding strictly before 1-based ``stage``."""
        return sum(self.stages[: stage - 1])

    def label(self) -> str:
        return "(" + ",".join(str(k) for k in self.stages) + ")"


@dataclass(frozen=True)
class ContestSpec:
    """Full parameterization of one contest.

    ``joy_of_winning`` is a preference parameter: it raises the prize players
    *act* as if they compete for (the effective prize), but is never paid out.
    """

    sequence: MoveSequence
    prize: float = 240.0
    endowment: float = 240.0
    joy_of_winning: float = 0.0

    def __post_init__(self):
        if not isinstance(self.sequence, MoveSequence):
            raise ContestError(f"sequence must be a MoveSequence, got {self.sequence!r}")
        for name in ("prize", "endowment", "joy_of_winning"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ContestError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ContestError(f"{name} must be finite, got {value}")
        if self.prize <= 0:
            raise ContestError(f"prize must be positive, got {self.prize}")
        if self.endowment < 0:
            raise ContestError(f"endowment must be nonnegative, got {self.endowment}")
        if self.joy_of_winning < 0:
            raise ContestError(
                f"joy of winning must be nonnegative, got {self.joy_of_winning}"
            )

    @property
    def effective_prize(self) -> float:
        return self.prize + self.joy_of_winning


# Checks on values parsed from JSON configs and logs: nothing is coerced, and
# true and false, ints in Python, are neither counts nor numbers.


def _is_whole(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _whole_number(value, name: str) -> int:
    if not _is_whole(value):
        raise ContestError(f"{name} must be a whole number, got {value!r}")
    return value


def _check_schema(raw, what: str) -> None:
    """``raw["schema"]`` must be the JSON integer 1; ``true`` and ``1.0``
    compare equal to 1 but are not it."""
    schema = raw.get("schema")
    if not (_is_whole(schema) and schema == 1):
        raise ContestError(f"unsupported {what} schema {schema!r}")


def _json_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ContestError(f"{name} must be a number, got {value!r}")
    return float(value)


def _json_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ContestError(f"{name} must be true or false, got {value!r}")
    return value


def _known_keys(entry, allowed, what: str) -> None:
    unknown = set(entry) - set(allowed)
    if unknown:
        raise ContestError(f"unknown {what} keys: {sorted(unknown)}")


def _as_investments(investments: Sequence[float]) -> list[float]:
    """``investments`` as a nonempty list of nonnegative floats."""
    try:
        x = [float(v) for v in investments]
    except TypeError:
        raise ContestError("investments must be a nonempty 1-d sequence") from None
    if not x:
        raise ContestError("investments must be a nonempty 1-d sequence")
    if min(x) < 0.0:
        raise NegativeInvestment(f"investments must be nonnegative, got {x}")
    return x


def win_probabilities(investments: Sequence[float]) -> np.ndarray:
    """Win probability of each player under the lottery success function.

    p_i = x_i / sum(x) when total investment is positive, 1/n otherwise. The
    total is added left to right in floats.
    """
    import numpy as np  # here, so that importing the package does not load it

    x = _as_investments(investments)
    total = 0.0
    for value in x:
        total += value
    if total > 0.0:
        return np.array([value / total for value in x])
    return np.full(len(x), 1.0 / len(x))


def draw_winner(investments: Sequence[float], uniform_draw: float) -> int:
    """Resolve the contest given one uniform draw from [0, 1).

    Player i (0-based) wins iff the draw lands in the half-open interval
    [sum(p_0..p_{i-1}), sum(p_0..p_i)) of the shares p of
    :func:`win_probabilities`, summed left to right, so the outcome is a
    deterministic function of the draw.
    """
    if not 0.0 <= uniform_draw < 1.0:
        raise ContestError(f"uniform draw must lie in [0, 1), got {uniform_draw}")
    shares = win_probabilities(investments).tolist()
    cumulative = 0.0
    for i, share in enumerate(shares[:-1]):
        cumulative += share
        if uniform_draw < cumulative:
            return i
    return len(shares) - 1


def round_payoffs(
    spec: ContestSpec, investments: Sequence[float], winner: int
) -> np.ndarray:
    """Monetary payoffs for one round: endowment - own investment, plus the
    prize for the winner. Joy of winning is a preference term and is not paid.
    """
    import numpy as np

    x = _as_investments(investments)
    if max(x) > spec.endowment + 1e-9:
        raise InvestmentExceedsEndowment(
            f"investments must not exceed the endowment {spec.endowment}, got {x}"
        )
    if not 0 <= winner < len(x):
        raise ContestError(f"winner index {winner} out of range for {len(x)} players")
    payoffs = [spec.endowment - value for value in x]
    payoffs[winner] += spec.prize
    return np.array(payoffs)
