"""Tests for the contest game primitives."""

import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from seqcontest.core import (
    ContestError,
    ContestSpec,
    EmptySequence,
    InvestmentExceedsEndowment,
    MoveSequence,
    NegativeInvestment,
    NonPositiveStageCount,
    _as_investments,
    draw_winner,
    round_payoffs,
    win_probabilities,
)

# Investments that no outcome function takes: not finite, not a real number
# (float() reads the strings and bytes), a bool (as a spec's numbers), beyond
# the float range, summing beyond it, or not 1-d.
NOT_FINITE_REALS = {
    "nan": [math.nan, 1.0, 1.0],
    "inf": [math.inf, 1.0, 1.0],
    "-inf": [-math.inf, 1.0, 1.0],
    "sum-overflows": [1e308, 1e308, 1.0],
    "digit-string": [1.0, "2"],
    "string": ["a", 1.0],
    "bytes": [b"1", 1.0],
    "bools": [True, False, True],
    "bool-among-floats": [1.0, 2.0, False],
    "int-beyond-floats": [10**400, 1.0],
    "2-d": [[1.0, 2.0], [3.0, 4.0]],
}
not_finite_reals = pytest.mark.parametrize(
    "investments", list(NOT_FINITE_REALS.values()), ids=list(NOT_FINITE_REALS)
)
# Winners that round_payoffs refuses: a bool (True would count as player 1),
# and a float or a string, which index no list.
BAD_WINNERS = {"true": True, "false": False, "float": 1.0, "string": "1", "none": None}
# Draws that draw_winner refuses: a bool (False would draw 0.0) and a string.
BAD_DRAWS = {"true": True, "false": False, "string": "0.5", "none": None}
# numbers of the types a spec or an investment may hold
REAL_NUMBERS = {
    "int": [240, 20, 0],
    "np.float64": [np.float64(240.1), np.float64(86.188), np.float64(0.1)],
    "Fraction": [Fraction(2401, 10), Fraction(1, 3), Fraction(2, 7)],
}


class Foreign(tuple):
    """A tuple subclass from outside core."""


# containers that hold investments, none of them core's checked tuple; a
# float array cannot hold a bool, an object array can
CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "float-array": np.array,
    "object-array": lambda values: np.array(values, dtype=object),
    "foreign-tuple": Foreign,
}
# an entry that makes investments [10.0, entry, 5.0] refused, and the refusal
BAD_ENTRIES = {
    "negative": (-1.0, NegativeInvestment),
    "nan": (math.nan, ContestError),
    "inf": (math.inf, ContestError),
    "bool": (True, ContestError),
}
UNCHECKED = [
    pytest.param(container, entry, id=f"{container}-{entry}")
    for container in CONTAINERS
    for entry in BAD_ENTRIES
    if (container, entry) != ("float-array", "bool")  # a float array holds True as 1.0
]
OUTCOMES = {
    "win_probabilities": win_probabilities,
    "draw_winner": lambda x: draw_winner(x, 0.5),
    "round_payoffs": lambda x: round_payoffs(ContestSpec(MoveSequence((3,))), x, 0),
}


def bits(values):
    assert all(type(v) is float for v in values), values
    return [v.hex() for v in values]


def numpy_shares(investments):
    """The shares as numpy built them: left-to-right floats through np.array."""
    x = [float(v) for v in investments]
    total = 0.0
    for value in x:
        total += value
    if total > 0.0:
        return np.array([value / total for value in x]).tolist()
    return np.full(len(x), 1.0 / len(x)).tolist()


def numpy_payoffs(spec, investments, winner):
    """The payoffs as numpy built them, from the spec's own numbers."""
    payoffs = [spec.endowment - float(v) for v in investments]
    payoffs[winner] += spec.prize
    return np.array(payoffs).tolist()


class TestMoveSequence:
    def test_two_stage_stackelberg(self):
        seq = MoveSequence([1, 2])
        assert seq.n_stages == 2
        assert seq.n_players == 3

    def test_simultaneous(self):
        seq = MoveSequence([3])
        assert seq.n_stages == 1
        assert seq.n_players == 3

    def test_zero_stage_count_rejected(self):
        with pytest.raises(NonPositiveStageCount):
            MoveSequence([1, 0, 2])

    def test_empty_rejected(self):
        with pytest.raises(EmptySequence):
            MoveSequence([])

    def test_stage_of_player(self):
        seq = MoveSequence([2, 1])
        assert [seq.stage_of_player(i) for i in range(3)] == [1, 1, 2]
        assert seq.players_before_stage(2) == 2

    @pytest.mark.parametrize("player", [-1, 3])
    def test_stage_of_player_out_of_range(self, player):
        with pytest.raises(IndexError, match=f"player index {player} out of range"):
            MoveSequence([2, 1]).stage_of_player(player)

    @pytest.mark.parametrize("stage", [0, 3, -1])
    def test_players_before_stage_out_of_range(self, stage):
        # a stage the sequence lacks has no players before it (it read as
        # 2, 3 and 0 of them)
        with pytest.raises(IndexError, match=f"stage {stage} out of range"):
            MoveSequence([2, 1]).players_before_stage(stage)

    def test_label(self):
        assert MoveSequence([1, 1, 1]).label() == "(1,1,1)"

    @pytest.mark.parametrize(
        "stages", [(2.9,), (1, 2.0), (True, 2), (1, False), ("1", "2"), (np.float64(2),), (None,)]
    )
    def test_non_integer_stage_count_rejected(self, stages):
        # nothing is truncated or parsed: (2.9,) is not the treatment (2)
        with pytest.raises(ContestError, match="stage count must be a whole number"):
            MoveSequence(stages)

    @pytest.mark.parametrize("stages", [3, None, 2.5])
    def test_non_iterable_stages_rejected(self, stages):
        # MoveSequence(3) raised a bare TypeError
        with pytest.raises(ContestError, match="stages must be stage counts"):
            MoveSequence(stages)

    def test_numpy_integer_stage_counts_become_ints(self):
        seq = MoveSequence(np.array([1, 2]))
        assert seq.stages == (1, 2)
        assert all(type(k) is int for k in seq.stages)


class TestContestSpec:
    def test_effective_prize(self):
        spec = ContestSpec(MoveSequence((3,)), 240.0, 240.0, 119.73)
        assert spec.effective_prize == pytest.approx(359.73)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"prize": 0.0},
            {"prize": -1.0},
            {"endowment": -1.0},
            {"joy_of_winning": -0.5},
            {"prize": float("nan")},
            {"prize": float("inf")},
            {"endowment": float("nan")},
            {"endowment": float("inf")},
            {"joy_of_winning": float("nan")},
            {"joy_of_winning": float("inf")},
            {"prize": 10**400},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        base = {"prize": 240.0, "endowment": 240.0, "joy_of_winning": 0.0}
        base.update(kwargs)
        with pytest.raises(ContestError):
            ContestSpec(MoveSequence((3,)), **base)

    @pytest.mark.parametrize("name", ["prize", "endowment", "joy_of_winning"])
    @pytest.mark.parametrize("value", ["240", True, False, None, [240.0], 240j])
    def test_non_real_parameters_rejected(self, name, value):
        with pytest.raises(ContestError, match=f"{name} must be a real number"):
            ContestSpec(MoveSequence((3,)), **{name: value})

    @pytest.mark.parametrize("sequence", [(1, 2), [3], "12", None])
    def test_sequence_must_be_a_move_sequence(self, sequence):
        # ContestSpec((1, 2)) was accepted, and solve_spne on it raised AttributeError
        with pytest.raises(ContestError, match="sequence must be a MoveSequence"):
            ContestSpec(sequence)

    @pytest.mark.parametrize("value", [240, 240.0, np.float64(240.0), np.int64(240)])
    def test_real_parameters_accepted_as_given(self, value):
        spec = ContestSpec(MoveSequence((3,)), prize=value, endowment=value)
        assert spec.prize is value and spec.endowment is value


class TestValueTypes:
    """MoveSequence and ContestSpec keep the behaviour of the frozen
    dataclasses they were: equal field by field within one class, hashed as
    their field tuple, immutable, and rebuilt through their constructor."""

    SEQ = MoveSequence((1, 2))
    SPEC = ContestSpec(SEQ, 300.0, 200, 30.5)

    def test_hash_is_the_field_tuple_hash(self):
        assert hash(self.SEQ) == hash(((1, 2),))
        assert hash(self.SPEC) == hash((self.SEQ, 300.0, 200, 30.5))

    def test_equal_by_fields_within_one_class(self):
        assert MoveSequence([1, 2]) == self.SEQ
        assert MoveSequence((2, 1)) != self.SEQ
        assert ContestSpec(MoveSequence((1, 2)), 300, 200.0, 30.5) == self.SPEC
        assert ContestSpec(self.SEQ, 300.0, 200, 0.0) != self.SPEC
        assert {self.SEQ: 1}[MoveSequence((1, 2))] == 1

    def test_unequal_to_other_classes(self):
        class Sub(MoveSequence):
            __slots__ = ()

        assert self.SEQ.__eq__(((1, 2),)) is NotImplemented
        assert self.SEQ != ((1, 2),)
        assert self.SEQ != Sub((1, 2))
        assert self.SPEC.__eq__(self.SEQ) is NotImplemented

    def test_repr(self):
        assert repr(self.SEQ) == "MoveSequence(stages=(1, 2))"
        assert repr(self.SPEC) == (
            "ContestSpec(sequence=MoveSequence(stages=(1, 2)), prize=300.0, "
            "endowment=200, joy_of_winning=30.5)"
        )

    @pytest.mark.parametrize("value", [SEQ, SPEC], ids=["sequence", "spec"])
    def test_fields_cannot_be_assigned_or_deleted(self, value):
        for name in value.__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == copy.copy(value)

    @pytest.mark.parametrize("value", [SEQ, SPEC], ids=["sequence", "spec"])
    def test_pickle_and_deepcopy_round_trip(self, value):
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)

    def test_unpickling_runs_the_checks(self):
        spec = ContestSpec(MoveSequence((3,)))
        object.__setattr__(spec, "endowment", -1.0)
        with pytest.raises(ContestError, match="endowment must be nonnegative"):
            pickle.loads(pickle.dumps(spec))

    def test_without_joy(self):
        assert self.SPEC.without_joy() == ContestSpec(self.SEQ, 300.0, 200, 0.0)

    def test_without_joy_runs_the_checks(self):
        spec = ContestSpec(MoveSequence((3,)), joy_of_winning=5.0)
        object.__setattr__(spec, "prize", -1.0)
        with pytest.raises(ContestError, match="prize must be positive"):
            spec.without_joy()


class TestWinProbabilities:
    def test_instruction_example(self):
        assert win_probabilities([20, 30, 50]) == pytest.approx([0.20, 0.30, 0.50])

    def test_second_instruction_example(self):
        assert win_probabilities([100, 20, 40]) == pytest.approx([0.625, 0.125, 0.250])

    def test_zero_total_splits_evenly(self):
        assert win_probabilities([0, 0, 0]) == pytest.approx([1 / 3] * 3)

    def test_negative_rejected(self):
        with pytest.raises(NegativeInvestment):
            win_probabilities([10, -1, 5])

    @pytest.mark.parametrize("investments", [5.0, None, []], ids=["number", "none", "empty"])
    def test_not_a_nonempty_sequence_rejected(self, investments):
        with pytest.raises(ContestError, match="nonempty 1-d sequence"):
            win_probabilities(investments)

    @pytest.mark.parametrize("kind", REAL_NUMBERS)
    def test_tuple_of_exact_floats(self, kind):
        numbers = REAL_NUMBERS[kind]
        for x in (numbers, numbers[1:], [numbers[2]] * 3, [0 * numbers[0]] * 3):
            p = win_probabilities(x)
            assert type(p) is tuple
            assert bits(p) == bits(numpy_shares(x)), x

    @not_finite_reals
    def test_not_finite_real_refused(self, investments):
        with pytest.raises(ContestError, match="finite real numbers"):
            win_probabilities(investments)

    def test_total_rounded_over_the_float_range_refused(self):
        # fsum of these is the largest float, but added left to right they
        # round up to inf, and every share would read 0
        x = [2.0**1023 + 2.0**971, 2.0**970, 2.0**1023 - 2.0**972 - 2.0**970]
        assert math.isfinite(math.fsum(x)) and (x[0] + x[1]) + x[2] == math.inf
        with pytest.raises(ContestError, match="sum within the float range"):
            win_probabilities(x)

    def test_iterator_refused(self):
        with pytest.raises(ContestError, match="nonempty 1-d sequence"):
            win_probabilities(iter([1.0, 2.0]))

    def test_probability_vector_property(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = rng.integers(1, 7)
            x = rng.uniform(0, 240, n)
            if rng.random() < 0.2:
                x[rng.integers(0, n)] = 0.0
            p = np.asarray(win_probabilities(x))
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            x = rng.uniform(0, 240, 3)
            c = float(rng.uniform(1e-3, 1e3))
            assert win_probabilities(c * x) == pytest.approx(
                win_probabilities(x), abs=1e-12
            )


def oracle_winner(investments, uniform_draw):
    """The numpy rule draw_winner must reproduce: cumulative shares, and the
    first interval whose right end lies strictly above the draw."""
    cum = np.cumsum(win_probabilities(investments))
    return min(int(np.searchsorted(cum, uniform_draw, side="right")), cum.size - 1)


class TestDrawWinner:
    PROFILES = [
        [20.0, 30.0, 50.0],
        [90.0, 45.0, 45.0],
        [86.18800, 79.94, 0.1],
        [1.0, 2.0, 3.0],
        [0.0, 0.0, 0.0],
        [45.0, 45.0, 45.0],
        [0.0, 10.0, 10.0],
        [10.0, 0.0, 10.0],
        [10.0, 10.0, 0.0],
        [240.0, 0.0, 0.0],
        [7.0, 3.0],
        [3.0, 1.0, 4.0, 1.0, 5.0],
        # the shares sum to 1 - 2**-53: a draw above that goes to the last player
        [1.0, 4.0, 1.0],
    ]

    @pytest.mark.parametrize("x", PROFILES, ids=str)
    def test_matches_oracle_on_interval_boundaries(self, x):
        cum = np.cumsum(win_probabilities(x))
        draws = {0.0}
        for edge in cum[cum < 1.0]:
            draws |= {float(edge), float(np.nextafter(edge, 0.0)), float(np.nextafter(edge, 1.0))}
        for u in sorted(d for d in draws if d < 1.0):
            assert draw_winner(x, u) == oracle_winner(x, u), (x, u)

    def test_zero_and_tied_profiles(self):
        assert [draw_winner([0, 0, 0], u) for u in (0.0, 1 / 3, 2 / 3)] == [0, 1, 2]
        # a zero investment has an empty interval: its boundary goes to the next player
        assert draw_winner([10, 0, 10], 0.5) == 2
        assert draw_winner([0, 10, 10], 0.0) == 1

    def test_matches_oracle_on_random_draws(self):
        rng = np.random.default_rng(20240502)
        for _ in range(10_000):
            x = rng.uniform(0.0, 240.0, size=3)
            if rng.random() < 0.3:
                x = np.round(x)
            x[rng.random(3) < 0.1] = 0.0
            u = float(rng.random())
            assert draw_winner(list(x), u) == oracle_winner(x, u), (x, u)

    def test_draw_inside_first_interval(self):
        assert draw_winner([20, 30, 50], 0.15) == 0

    def test_boundary_goes_to_next_player(self):
        # intervals are half-open: 0.20 starts player 2's interval
        assert draw_winner([20, 30, 50], 0.20) == 1

    def test_zero_profile_equal_thirds(self):
        assert draw_winner([0, 0, 0], 0.99) == 2

    @not_finite_reals
    def test_not_finite_real_refused(self, investments):
        with pytest.raises(ContestError, match="finite real numbers"):
            draw_winner(investments, 0.1)

    @pytest.mark.parametrize("draw", list(BAD_DRAWS.values()), ids=list(BAD_DRAWS))
    def test_draw_not_a_real_number_refused(self, draw):
        with pytest.raises(ContestError, match="^uniform draw must be a real number, got "):
            draw_winner([10.0, 20.0, 30.0], draw)

    def test_draw_of_a_real_type_taken(self):
        # a float subclass, an int and a Fraction draw as the float they equal
        for draw in (np.float64(0.5), 0, Fraction(1, 2)):
            assert draw_winner([10.0, 20.0, 30.0], draw) == draw_winner(
                [10.0, 20.0, 30.0], float(draw)
            )

    def test_draw_must_be_unit_interval(self):
        with pytest.raises(ContestError):
            draw_winner([1, 1], 1.0)

    def test_empirical_frequencies_match_probabilities(self):
        x = [90.0, 45.0, 45.0]
        p = np.asarray(win_probabilities(x))
        rng = np.random.default_rng(303)
        m = 100_000
        draws = rng.random(m)
        counts = np.zeros(3)
        for u in draws:
            counts[draw_winner(x, float(u))] += 1
        freq = counts / m
        sigma = np.sqrt(p * (1 - p) / m)
        assert np.all(np.abs(freq - p) < 3 * sigma)


class TestRoundPayoffs:
    def setup_method(self):
        self.spec = ContestSpec(MoveSequence((3,)), 240.0, 240.0, 0.0)

    def test_instruction_payoffs(self):
        assert round_payoffs(self.spec, [20, 30, 50], 0) == pytest.approx(
            [460, 210, 190]
        )

    def test_zero_investments(self):
        assert round_payoffs(self.spec, [0, 0, 0], 1) == pytest.approx([240, 480, 240])

    def test_full_endowment(self):
        assert round_payoffs(self.spec, [240, 240, 240], 2) == pytest.approx(
            [0, 0, 240]
        )

    def test_over_endowment_rejected(self):
        # by any amount, so that no payoff is negative
        for x in (241, 240 + 5e-10, math.nextafter(240.0, math.inf)):
            with pytest.raises(InvestmentExceedsEndowment):
                round_payoffs(self.spec, [0, x, 0], 0)

    def test_bad_winner_rejected(self):
        with pytest.raises(ContestError):
            round_payoffs(self.spec, [1, 2, 3], 3)

    @pytest.mark.parametrize("winner", list(BAD_WINNERS.values()), ids=list(BAD_WINNERS))
    def test_winner_not_a_whole_number_refused(self, winner):
        spec = ContestSpec(MoveSequence((1, 2)))
        with pytest.raises(ContestError, match="^winner must be a whole number, got "):
            round_payoffs(spec, [10.0, 20.0, 30.0], winner)

    def test_numpy_integer_winner_taken(self):
        for winner in (np.int64(1), np.uint8(1), np.intp(1)):
            assert round_payoffs(self.spec, [10.0, 20.0, 30.0], winner) == round_payoffs(
                self.spec, [10.0, 20.0, 30.0], 1
            )

    @pytest.mark.parametrize("kind", REAL_NUMBERS)
    def test_tuple_of_exact_floats(self, kind):
        # a spec's prize and endowment of any real type pay Python floats,
        # bit for bit those that numpy built from the spec's own numbers
        numbers = REAL_NUMBERS[kind]
        for prize, endowment in ((numbers[0], numbers[0]), (numbers[1] + 7, numbers[0])):
            spec = ContestSpec(MoveSequence((3,)), prize, endowment)
            for x in ([20.5, 30.25, 0.1], numbers, [numbers[2]] * 3):
                for winner in range(3):
                    payoffs = round_payoffs(spec, x, winner)
                    assert type(payoffs) is tuple
                    assert bits(payoffs) == bits(numpy_payoffs(spec, x, winner)), (spec, x)

    @not_finite_reals
    def test_not_finite_real_refused(self, investments):
        with pytest.raises(ContestError, match="finite real numbers"):
            round_payoffs(self.spec, investments, 0)

    def test_conservation_property(self):
        rng = np.random.default_rng(404)
        for _ in range(200):
            x = rng.uniform(0, 240, 3)
            winner = int(rng.integers(0, 3))
            payoffs = np.asarray(round_payoffs(self.spec, x, winner))
            assert payoffs.sum() == pytest.approx(3 * 240 + 240 - x.sum(), abs=1e-9)


class TestCheckedInvestments:
    """Each outcome function checks its investments unless core has checked
    them already (a triad's are checked once in play_round)."""

    @pytest.mark.parametrize("outcome", OUTCOMES)
    @pytest.mark.parametrize("container, entry", UNCHECKED)
    def test_unchecked_investments_refused(self, container, entry, outcome):
        value, error = BAD_ENTRIES[entry]
        investments = CONTAINERS[container]([10.0, value, 5.0])
        with pytest.raises(error) as exc:
            OUTCOMES[outcome](investments)
        if error is NegativeInvestment:
            expected = "investments must be nonnegative, got [10.0, -1.0, 5.0]"
        else:
            expected = (
                "investments must be a nonempty 1-d sequence of finite real numbers, not"
                f" bools, with a finite sum, got {investments!r}"
            )
        assert type(exc.value) is error and str(exc.value) == expected

    def test_checked_investments_pass_through(self):
        checked = _as_investments([10, 0.5, 5.0])
        assert list(checked) == [10.0, 0.5, 5.0] and all(type(v) is float for v in checked)
        assert isinstance(checked, tuple) and _as_investments(checked) is checked
        for container in CONTAINERS.values():
            investments = container([10, 0.5, 5.0])
            assert _as_investments(investments) is not investments
            for outcome in OUTCOMES.values():
                assert outcome(investments) == outcome(checked)
