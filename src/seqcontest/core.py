"""Game primitives for sequential lottery contests.

A contest is described by a move sequence (how many players decide at each
stage), a prize, and a per-player endowment. The winner is drawn with
probability proportional to investment: p_i = x_i / sum(x), falling back to
an even split 1/n when nobody invests. All functions here are pure and
operate on plain sequences of numbers; the outcome functions return tuples of
floats, built in plain Python. The value types are hand-written
because ``dataclasses`` loads ``inspect``: about 20 ms of every ``solve``.
"""

from __future__ import annotations

import math
import numbers
import operator
from functools import lru_cache
from typing import Sequence

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


def _index(value, name: str) -> int:
    # operator.index takes ints and other integer types, but no float or string
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ContestError(f"{name} must be a whole number, got {value!r}")


class _Value:
    """Immutable value type; each subclass spells its field tuple out in
    ``__eq__`` and ``__hash__``, as a frozen dataclass does, for speed."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({args})"

    def __reduce__(self):  # rebuilt through __init__, so unpickling runs the checks
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


class MoveSequence(_Value):
    """Stage structure of a contest: ``stages[t]`` players decide at stage t.

    Players are indexed 0..n-1 in order of play; all players within a stage
    decide simultaneously after observing every investment from strictly
    earlier stages.
    """

    __slots__ = ("stages",)

    def __init__(self, stages: tuple[int, ...]):
        try:
            counts = tuple(_index(k, "a stage count") for k in stages)
        except TypeError:
            raise ContestError(f"stages must be stage counts, got {stages!r}") from None
        object.__setattr__(self, "stages", counts)
        if len(counts) == 0:
            raise EmptySequence("a move sequence needs at least one stage")
        for k in counts:
            if k < 1:
                raise NonPositiveStageCount(
                    f"every stage needs at least one player, got {counts}"
                )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.stages,) == (other.stages,)
        return NotImplemented

    def __hash__(self):
        return hash((self.stages,))

    @property
    def n_players(self) -> int:
        return sum(self.stages)

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def stage_of_player(self, player: int) -> int:
        """1-based stage at which 0-based ``player`` decides."""
        if 0 <= player < self.n_players:
            return _role_plan(self.stages)[player][0]
        raise IndexError(f"player index {player} out of range")

    def players_before_stage(self, stage: int) -> int:
        """Number of players deciding strictly before 1-based ``stage``."""
        for t, _, before in _role_plan(self.stages):
            if t == stage:
                return before
        raise IndexError(f"stage {stage} out of range")

    def label(self) -> str:
        return "(" + ",".join(str(k) for k in self.stages) + ")"


@lru_cache(maxsize=64)
def _role_plan(stages: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """Each player's role in the move sequence of stage counts ``stages``, in
    order of play: (1-based stage, 1-based slot within the stage, number of
    players deciding before the stage). Every role is derived here."""
    plan, before = [], 0
    for stage, count in enumerate(stages, start=1):
        plan += [(stage, slot, before) for slot in range(1, count + 1)]
        before += count
    return tuple(plan)


def _finite_real(value, name: str):
    """``value``, which must be a finite real number other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ContestError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ContestError(f"{name} must be finite, got an integer beyond floats") from None
    if not finite:
        raise ContestError(f"{name} must be finite, got {value}")
    return value


def _check_contest_numbers(prize, endowment, joy_of_winning) -> None:
    """A contest's numbers: all finite, the prize positive, the endowment and
    the joy of winning nonnegative."""
    if _finite_real(prize, "prize") <= 0:
        raise ContestError(f"prize must be positive, got {prize}")
    if _finite_real(endowment, "endowment") < 0:
        raise ContestError(f"endowment must be nonnegative, got {endowment}")
    if _finite_real(joy_of_winning, "joy_of_winning") < 0:
        raise ContestError(f"joy_of_winning must be nonnegative, got {joy_of_winning}")


class ContestSpec(_Value):
    """Full parameterization of one contest.

    ``joy_of_winning`` is a preference parameter: it raises the prize players
    *act* as if they compete for (the effective prize), but is never paid out.
    """

    __slots__ = ("sequence", "prize", "endowment", "joy_of_winning")

    def __init__(self, sequence: MoveSequence, prize: float = 240.0,
                 endowment: float = 240.0, joy_of_winning: float = 0.0):
        for name, value in zip(self.__slots__, (sequence, prize, endowment, joy_of_winning)):
            object.__setattr__(self, name, value)
        if not isinstance(self.sequence, MoveSequence):
            raise ContestError(f"sequence must be a MoveSequence, got {self.sequence!r}")
        _check_contest_numbers(prize, endowment, joy_of_winning)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.sequence, self.prize, self.endowment, self.joy_of_winning) == (
                other.sequence, other.prize, other.endowment, other.joy_of_winning
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.sequence, self.prize, self.endowment, self.joy_of_winning))

    @property
    def effective_prize(self) -> float:
        return self.prize + self.joy_of_winning

    def without_joy(self) -> ContestSpec:
        """This contest with joy of winning 0: the equilibrium benchmark."""
        return ContestSpec(self.sequence, self.prize, self.endowment)


# Checks on values parsed from JSON configs and logs: nothing is coerced, and
# true and false, ints in Python, are neither counts nor numbers.


def _is_whole(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _whole_number(value, name: str) -> int:
    if not _is_whole(value):
        raise ContestError(f"{name} must be a whole number, got {value!r}")
    return value


def _in_digits(key) -> bool:
    """Whether ``key`` spells a whole number of at least 1 in ASCII digits,
    without the sign, space, separator, leading zero or non-ASCII digit that
    ``int()`` would accept."""
    return isinstance(key, str) and key.isascii() and key.isdigit() and key[0] != "0"


def _sequence_in_digits(text: str, what: str) -> MoveSequence:
    """The move sequence ``text`` spells: its stage counts by the rule of
    :func:`_in_digits`, joined by commas."""
    counts = text.split(",")
    if not all(map(_in_digits, counts)):
        raise ContestError(
            f"{what} must be stage counts in digits joined by commas, got {text!r}"
        )
    return MoveSequence(tuple(map(int, counts)))


def _check_schema(raw, what: str) -> None:
    """``raw["schema"]`` must be the JSON integer 1; ``true`` and ``1.0``
    compare equal to 1 but are not it."""
    schema = raw.get("schema")
    if not (_is_whole(schema) and schema == 1):
        raise ContestError(f"unsupported {what} schema {schema!r}")


def _json_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ContestError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise ContestError(f"{name} must be finite, got an integer beyond floats") from None


def _json_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ContestError(f"{name} must be true or false, got {value!r}")
    return value


def _known_keys(entry, allowed, what: str) -> None:
    unknown = set(entry) - set(allowed)
    if unknown:
        raise ContestError(f"unknown {what} keys: {sorted(unknown)}")


def _as_investments(investments: Sequence[float]) -> list[float]:
    """``investments`` as a nonempty list of finite nonnegative floats.

    ``math.fsum`` takes the numbers ``float`` takes, but no string, and is
    finite when they and their sum are; it spends an iterator, which is then
    refused as empty. A bool is refused, as :class:`ContestSpec` refuses one."""
    try:
        finite = math.isfinite(math.fsum(investments))
    except (TypeError, ValueError, OverflowError):
        finite = False
    x = list(map(float, investments)) if finite else []
    # a bool reads as 1.0 or 0.0, so only then are the types read
    if not x or (1.0 in x or 0.0 in x) and bool in map(type, investments):
        raise ContestError(
            "investments must be a nonempty 1-d sequence of finite real numbers, not bools,"
            f" with a finite sum, got {investments!r}"
        )
    if min(x) < 0.0:
        raise NegativeInvestment(f"investments must be nonnegative, got {x}")
    return x


def win_probabilities(investments: Sequence[float]) -> tuple[float, ...]:
    """Win probability of each player under the lottery success function, as
    a tuple of floats.

    p_i = x_i / sum(x) when total investment is positive, 1/n otherwise. The
    total is added left to right in floats.
    """
    x = _as_investments(investments)
    total = 0.0
    for value in x:
        total += value
    if total == 0.0:
        return (1.0 / len(x),) * len(x)
    if total == math.inf:  # the exact sum is finite, but rounding carried it over
        raise ContestError(f"investments must sum within the float range, got {x}")
    return tuple([value / total for value in x])


def draw_winner(investments: Sequence[float], uniform_draw: float) -> int:
    """Resolve the contest given one uniform draw from [0, 1).

    Player i (0-based) wins iff the draw lands in the half-open interval
    [sum(p_0..p_{i-1}), sum(p_0..p_i)) of the shares p of
    :func:`win_probabilities`, summed left to right, so the outcome is a
    deterministic function of the draw. The draw is a real number other
    than a bool, else :class:`ContestError` is raised.
    """
    if uniform_draw.__class__ is not float and (
        isinstance(uniform_draw, bool) or not isinstance(uniform_draw, numbers.Real)
    ):
        raise ContestError(f"uniform draw must be a real number, got {uniform_draw!r}")
    if not 0.0 <= uniform_draw < 1.0:
        raise ContestError(f"uniform draw must lie in [0, 1), got {uniform_draw}")
    shares = win_probabilities(investments)
    cumulative = 0.0
    for i, share in enumerate(shares):
        cumulative += share
        if uniform_draw < cumulative:
            return i
    return len(shares) - 1


def round_payoffs(
    spec: ContestSpec, investments: Sequence[float], winner: int
) -> tuple[float, ...]:
    """Monetary payoffs for one round, as a tuple of floats: endowment - own
    investment, plus the prize for the winner. Joy of winning is a preference
    term and is not paid. An investment above the endowment, by any amount,
    raises :class:`InvestmentExceedsEndowment`, so no payoff is negative.
    ``winner`` is a player's 0-based index, an int or another integer type
    but not a bool, else :class:`ContestError` is raised.
    """
    x = _as_investments(investments)
    endowment = float(spec.endowment)
    if max(x) > endowment:
        raise InvestmentExceedsEndowment(
            f"investments must not exceed the endowment {spec.endowment}, got {x}"
        )
    if winner.__class__ is not int:
        winner = _index(winner, "winner")
    if not 0 <= winner < len(x):
        raise ContestError(f"winner index {winner} out of range for {len(x)} players")
    payoffs = [endowment - value for value in x]
    payoffs[winner] += float(spec.prize)
    return tuple(payoffs)
