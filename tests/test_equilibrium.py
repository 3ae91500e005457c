"""Tests for the equilibrium solver: the integer-tuple polynomial ladder,
root finding and calibration, plus the grid backward-induction oracle from
``oracles.py`` that the solver is cross-checked against, and the full-grid
root search there that the root scan must match exactly."""

import copy
import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from seqcontest.core import ContestError, ContestSpec, MoveSequence
from seqcontest.equilibrium import (
    _GRID_POINTS,
    EquilibriumSolution,
    NonPositiveMean,
    NoRootInUnitInterval,
    build_ladder,
    calibrate_jow,
    _normalized_solution,
    largest_root,
    solve_spne,
)

from oracles import GridTooLarge, largest_root_grid, oracle_grid_spne

SQRT3 = math.sqrt(3.0)


def all_sequences(max_players):
    """Every move sequence (composition) with up to ``max_players`` players."""
    out = []
    for n in range(1, max_players + 1):
        for t in range(1, n + 1):
            for cuts in itertools.combinations(range(1, n), t - 1):
                parts = []
                prev = 0
                for cut in list(cuts) + [n]:
                    parts.append(cut - prev)
                    prev = cut
                out.append(MoveSequence(tuple(parts)))
    return out


class TestBuildLadder:
    def test_simultaneous_three(self):
        # one recursion step from the identity: x - 3*x*(1-x) = 3x^2 - 2x
        ladder = build_ladder(MoveSequence((3,)))
        assert ladder[0] == (0, -2, 3)
        assert ladder[1] == (0, 1)

    def test_fully_sequential(self):
        # three hand-applied steps: f0 = x^2 (6x^2 - 6x + 1)
        ladder = build_ladder(MoveSequence((1, 1, 1)))
        assert ladder[0] == (0, 0, 1, -6, 6)

    def test_single_player(self):
        ladder = build_ladder(MoveSequence((1,)))
        assert ladder[0] == (0, 0, 1)

    def test_terminal_is_identity(self):
        for seq in all_sequences(5):
            assert build_ladder(seq)[-1] == (0, 1)

    def test_degrees_grow_by_one(self):
        for seq in all_sequences(5):
            ladder = build_ladder(seq)
            assert len(ladder[0]) - 1 == seq.n_stages + 1
            for earlier, later in zip(ladder, ladder[1:]):
                assert len(earlier) == len(later) + 1

    def test_recursion_identity_coefficientwise(self):
        # f_{t-1}(q) == f_t(q) - k_t * f_t'(q) * q * (1 - q), exactly, at
        # rational points; f_t' comes from the coefficients here. Both sides
        # have degree at most 7 for up to 6 players, so agreement at 8
        # points makes this a polynomial identity
        def value(coeffs, q):
            return sum(c * q**j for j, c in enumerate(coeffs))

        def slope(coeffs, q):
            return sum(j * c * q ** (j - 1) for j, c in enumerate(coeffs) if j > 0)

        points = [Fraction(0), Fraction(1, 7), Fraction(1, 3), Fraction(1, 2),
                  Fraction(5, 7), Fraction(3, 4), Fraction(9, 10), Fraction(1)]
        for seq in all_sequences(6):
            ladder = build_ladder(seq)
            for t, count in enumerate(seq.stages, start=1):
                for q in points:
                    expected = value(ladder[t], q) - count * slope(ladder[t], q) * q * (1 - q)
                    assert value(ladder[t - 1], q) == expected


class TestLargestRoot:
    def test_simultaneous_three(self):
        f0 = build_ladder(MoveSequence((3,)))[0]
        assert largest_root(f0) == pytest.approx(2 / 3, abs=1e-12)

    def test_fully_sequential(self):
        f0 = build_ladder(MoveSequence((1, 1, 1)))[0]
        assert largest_root(f0) == pytest.approx((3 + SQRT3) / 6, abs=1e-12)

    def test_single_player_degenerate(self):
        assert largest_root((0, 0, 1)) == 0.0

    def test_no_root_raises(self):
        for search in (largest_root, largest_root_grid):
            with pytest.raises(NoRootInUnitInterval):
                search((1, 0, 1))  # x^2 + 1

    def test_exact_grid_zero(self):
        # 4x^3 - 3x^2 vanishes exactly at the grid point 0.75
        f0 = build_ladder(MoveSequence((1, 2)))[0]
        assert largest_root(f0) == pytest.approx(0.75, abs=1e-13)


# sequences of more than 12 players whose float root is known to be wrong;
# the scan must reproduce the full-grid answer for them too
LONG_SEQUENCES = [(1,) * 14, (1,) * 16, (1,) * 20, (5,) * 20, (2, 1) * 15]


# the midpoint of the grid cell [0.7, 0.7001], the first point bisection
# tests; bisecting on past this exact zero would end about 5e-14 below it
FIRST_MIDPOINT = 0.5 * (7000 * (1.0 / _GRID_POINTS) + 7001 * (1.0 / _GRID_POINTS))


class TestRootScanMatchesFullGrid:
    """The right-to-left scan returns the very float of the full-grid search."""

    def test_every_sequence_up_to_twelve_players(self):
        seqs = [seq for seq in all_sequences(12) if seq.n_players >= 2]
        assert len(seqs) == 4094
        for seq in seqs:
            f0 = build_ladder(seq)[0]
            assert largest_root(f0) == largest_root_grid(f0), seq

    @pytest.mark.parametrize(
        "stages", LONG_SEQUENCES, ids=["1x14", "1x16", "1x20", "5x20", "2-1x15"]
    )
    def test_long_sequences(self, stages):
        f0 = build_ladder(MoveSequence(stages))[0]
        assert largest_root(f0) == largest_root_grid(f0)

    @pytest.mark.parametrize(
        "coeffs, root",
        [
            ((-1, 2), 0.5),  # 2x - 1: exact zero on a grid point
            ((0, 1, -1), 1.0),  # x - x^2: roots at 0 and at 1
            ((-19999, 20000), 0.99995),  # a sign change in the last cell
            ((-1, 20000), 0.00005),  # in the cell nearest 0: the walk runs to its end
            ((-FIRST_MIDPOINT, 1.0), FIRST_MIDPOINT),  # zero at the first midpoint
        ],
        ids=["grid-zero", "root-at-one", "last-cell", "first-cell", "midpoint-zero"],
    )
    def test_hand_made(self, coeffs, root):
        found = largest_root(coeffs)
        assert found == largest_root_grid(coeffs)
        assert found == pytest.approx(root, abs=1e-13)


class TestSolveSpne:
    def test_simultaneous_three(self):
        sol = solve_spne(ContestSpec(MoveSequence((3,))))
        assert sol.scaled_stage_investments[0] == pytest.approx(160 / 3, abs=1e-9)
        assert sol.scaled_aggregate == pytest.approx(160.0, abs=1e-9)

    def test_one_then_two(self):
        sol = solve_spne(ContestSpec(MoveSequence((1, 2))))
        assert sol.scaled_stage_investments == pytest.approx((90.0, 45.0), abs=1e-9)
        assert sol.scaled_aggregate == pytest.approx(180.0, abs=1e-9)

    def test_two_then_one(self):
        sol = solve_spne(ContestSpec(MoveSequence((2, 1))))
        assert sol.scaled_stage_investments == pytest.approx((67.5, 45.0), abs=1e-9)
        assert sol.scaled_aggregate == pytest.approx(180.0, abs=1e-9)

    def test_fully_sequential_closed_form(self):
        # exact values: x1 = 40 + 80*sqrt(3)/3, x2 = 40 + 40*sqrt(3)/3, x3 = 40
        sol = solve_spne(ContestSpec(MoveSequence((1, 1, 1))))
        assert sol.scaled_stage_investments[0] == pytest.approx(
            40 + 80 * SQRT3 / 3, abs=1e-9
        )
        assert sol.scaled_stage_investments[1] == pytest.approx(
            40 + 40 * SQRT3 / 3, abs=1e-9
        )
        assert sol.scaled_stage_investments[2] == pytest.approx(40.0, abs=1e-9)
        assert sol.scaled_aggregate == pytest.approx(120 + 40 * SQRT3, abs=1e-9)

    def test_joy_of_winning_scaling(self):
        sol = solve_spne(ContestSpec(MoveSequence((1, 2)), joy_of_winning=119.73))
        assert sol.scaled_stage_investments[0] == pytest.approx(134.90, abs=0.01)
        assert sol.scaled_stage_investments[1] == pytest.approx(67.45, abs=0.01)
        assert sol.scaled_aggregate == pytest.approx(269.80, abs=0.01)

    def test_stage_investments_sum_to_aggregate(self):
        for seq in all_sequences(6):
            sol = solve_spne(ContestSpec(seq))
            total = sum(
                k * x for k, x in zip(seq.stages, sol.stage_investments)
            )
            assert abs(total - sol.aggregate) < 1e-10
            assert all(x >= 0 for x in sol.stage_investments)

    def test_coefficients_beyond_float_range_raise(self):
        # f_0 of 160 one-player stages has coefficients of more than 1,024 bits
        with pytest.raises(ContestError, match="exceed the float range"):
            solve_spne(ContestSpec(MoveSequence((1,) * 160)))

    def test_aggregate_interior_for_two_plus_players(self):
        for seq in all_sequences(6):
            if seq.n_players >= 2:
                sol = solve_spne(ContestSpec(seq))
                assert 0.0 < sol.aggregate < 1.0

    def test_per_player_expansion(self):
        sol = solve_spne(ContestSpec(MoveSequence((2, 1))))
        assert sol.per_player_investments() == pytest.approx((67.5, 67.5, 45.0))

    def test_to_dict_schema(self):
        record = solve_spne(ContestSpec(MoveSequence((1, 2)))).to_dict()
        assert record["schema"] == 1
        assert record["sequence"] == [1, 2]
        assert record["aggregate"] == pytest.approx(180.0)


class TestSolutionValue:
    """EquilibriumSolution is a named tuple: a solution equals, and hashes
    as, the tuple of its fields, and its repr is the dataclass's it was."""

    def test_equal_specs_built_apart_share_the_cached_solve(self):
        solve_spne(ContestSpec(MoveSequence((2, 1, 1))))
        hits = _normalized_solution.cache_info().hits
        solve_spne(ContestSpec(MoveSequence([2, 1, 1]), prize=100.0))
        assert _normalized_solution.cache_info().hits == hits + 1

    def test_equal_and_hashed_by_fields(self):
        sol = solve_spne(ContestSpec(MoveSequence((1, 2))))
        assert sol == solve_spne(ContestSpec(MoveSequence((1, 2))))
        assert sol != solve_spne(ContestSpec(MoveSequence((1, 2)), joy_of_winning=1.0))
        assert sol == tuple(sol) and hash(sol) == hash(tuple(sol))

    def test_repr(self):
        assert repr(solve_spne(ContestSpec(MoveSequence((1, 2))))) == (
            "EquilibriumSolution(sequence=MoveSequence(stages=(1, 2)), prize=240.0, "
            "joy_of_winning=0.0, aggregate=0.75, stage_investments=(0.375, 0.1875), "
            "scaled_aggregate=180.0, scaled_stage_investments=(90.0, 45.0))"
        )

    def test_fields_cannot_be_assigned_or_deleted(self):
        sol = solve_spne(ContestSpec(MoveSequence((2, 1))))
        for name in EquilibriumSolution._fields:
            with pytest.raises(AttributeError):
                setattr(sol, name, getattr(sol, name))
            with pytest.raises(AttributeError):
                delattr(sol, name)

    def test_pickle_and_deepcopy_round_trip(self):
        sol = solve_spne(ContestSpec(MoveSequence((1, 1, 1)), joy_of_winning=12.5))
        for twin in (pickle.loads(pickle.dumps(sol)), copy.deepcopy(sol)):
            assert type(twin) is EquilibriumSolution
            assert twin == sol and hash(twin) == hash(sol)


class TestPredictedOrderings:
    def test_aggregate_ranking_across_treatments(self):
        x = {
            stages: solve_spne(ContestSpec(MoveSequence(stages))).aggregate
            for stages in [(3,), (1, 2), (2, 1), (1, 1, 1)]
        }
        assert x[(3,)] < x[(1, 2)]
        assert abs(x[(1, 2)] - x[(2, 1)]) < 1e-12
        assert x[(2, 1)] < x[(1, 1, 1)]

    def test_earlier_movers_invest_more(self):
        for stages in [(1, 2), (2, 1), (1, 1, 1)]:
            sol = solve_spne(ContestSpec(MoveSequence(stages)))
            inv = sol.stage_investments
            assert all(a > b for a, b in zip(inv, inv[1:]))

    def test_two_player_neutrality(self):
        sequential = solve_spne(ContestSpec(MoveSequence((1, 1)))).aggregate
        simultaneous = solve_spne(ContestSpec(MoveSequence((2,)))).aggregate
        assert abs(sequential - simultaneous) < 1e-12

    def test_splitting_a_stage_raises_the_aggregate(self):
        # every split of a stage of k players into consecutive stages of a
        # and k - a players, over all sequences of up to 12 players; the
        # smallest rise is about 8.4e-5
        splits = 0
        for seq in all_sequences(12):
            stages = seq.stages
            before = solve_spne(ContestSpec(seq)).aggregate
            for t, k in enumerate(stages):
                for a in range(1, k):
                    split = stages[:t] + (a, k - a) + stages[t + 1:]
                    after = solve_spne(ContestSpec(MoveSequence(split))).aggregate
                    splits += 1
                    if stages == (2,):
                        assert before == after == 0.5
                    else:
                        assert after > before, (stages, split)
        assert splits == 20481

    def test_earlier_movers_invest_and_earn_more(self):
        # per-player investment x_t and unit-prize payoff x_t / X - x_t fall
        # strictly from each stage to the next. The smallest fall in payoff,
        # about 6.4e-8 ((1,)*12, stage 11 to 12), is near that sequence's
        # known stage error of 1.7e-7, so this margin rests on the float
        # solver; the smallest fall in investment is about 2.5e-4
        for seq in all_sequences(12):
            if seq.n_players < 2:
                continue
            sol = solve_spne(ContestSpec(seq))
            invest = sol.stage_investments
            payoff = [x / sol.aggregate - x for x in invest]
            if seq.stages == (1, 1):
                assert invest == (0.25, 0.25) and payoff == [0.25, 0.25]
                continue
            for t in range(len(invest) - 1):
                assert invest[t] > invest[t + 1], (seq.stages, t)
                assert payoff[t] > payoff[t + 1], (seq.stages, t)

    def test_homogeneity_in_effective_prize(self):
        for seq in all_sequences(6):
            base = solve_spne(ContestSpec(seq, prize=1.0))
            for scale in (240.0, 359.73, 1000.0):
                scaled = solve_spne(ContestSpec(seq, prize=scale))
                assert scaled.scaled_aggregate == pytest.approx(
                    scale * base.scaled_aggregate, rel=1e-9
                )
                for a, b in zip(
                    scaled.scaled_stage_investments, base.scaled_stage_investments
                ):
                    assert a == pytest.approx(scale * b, rel=1e-9, abs=1e-12)


class TestCalibrateJow:
    def test_reported_calibration(self):
        assert calibrate_jow(79.94, 3, 240.0) == pytest.approx(119.73, abs=1e-9)

    def test_one_player_rejected(self):
        # n**2 * mean / (n - 1) has no meaning for a lone player
        with pytest.raises(ContestError, match="at least two players"):
            calibrate_jow(60.0, 1, 240.0)

    def test_equilibrium_mean_gives_zero(self):
        assert calibrate_jow(2 * 240 / 9, 3, 240.0) == pytest.approx(0.0, abs=1e-9)

    def test_hand_inverted_value(self):
        assert calibrate_jow(90.0, 3, 240.0) == pytest.approx(165.0, abs=1e-9)

    def test_below_equilibrium_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            assert calibrate_jow(10.0, 3, 240.0) == 0.0

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(NonPositiveMean):
            calibrate_jow(0.0, 3, 240.0)

    @pytest.mark.parametrize("mean", [float("nan"), float("inf")])
    def test_non_finite_mean_rejected(self, mean):
        with pytest.raises(NonPositiveMean, match="finite positive"):
            calibrate_jow(mean, 3, 240.0)

    @pytest.mark.parametrize(
        "mean", [True, "80", None, 10**400], ids=["true", "text", "none", "int-beyond-floats"]
    )
    def test_mean_not_a_real_number_rejected(self, mean):
        # True read as a mean of 1
        with pytest.raises(NonPositiveMean, match="finite positive"):
            calibrate_jow(mean, 3, 240.0)

    @pytest.mark.parametrize(
        "n", [3.5, 3.0, True, "3", None], ids=["fraction", "whole-float", "true", "text", "none"]
    )
    def test_n_not_a_whole_number_rejected(self, n):
        # 3.5 players gave a number
        with pytest.raises(ContestError, match="^n must be a whole number, got "):
            calibrate_jow(80.0, n, 240.0)

    @pytest.mark.parametrize(
        "prize, message",
        [
            (-240.0, "prize must be positive"),
            (0.0, "prize must be positive"),
            (math.inf, "prize must be finite"),
            (math.nan, "prize must be finite"),
            (True, "prize must be a real number"),
            ("240", "prize must be a real number"),
        ],
        ids=["negative", "zero", "inf", "nan", "true", "text"],
    )
    def test_prize_a_contest_refuses_is_rejected(self, prize, message):
        # a negative prize gave 600.0
        with pytest.raises(ContestError, match=f"^{message}"):
            calibrate_jow(80.0, 3, prize)
        with pytest.raises(ContestError, match=f"^{message}"):
            ContestSpec(MoveSequence((3,)), prize)

    def test_numbers_of_other_real_types_taken(self):
        assert calibrate_jow(Fraction(80), np.int64(3), 240) == calibrate_jow(80.0, 3, 240.0)
        n = 2**32  # n * n wraps to 0 in int64
        assert calibrate_jow(80.0, np.int64(n), 240.0) == calibrate_jow(80.0, n, 240.0) > 0


def brute_force_grid_spne(stages, prize, endowment, step):
    """Nested-loop backward induction; independent check of the vectorized
    oracle on coarse grids."""
    points = [i * step for i in range(int(round(endowment / step)) + 1)]
    n = sum(stages)

    def pay(own, others):
        total = own + others
        return prize * (own / total if total > 0 else 1.0 / n) - own

    def argmax(candidates, objective):
        best, best_v = None, -math.inf
        for c in candidates:
            v = objective(c)
            if v > best_v:
                best, best_v = c, v
        return best

    def fixed_point(br_of):
        # same selection rule as the oracle: largest exact hit, else the
        # first point where the map falls below the diagonal
        hits = [x for x in points if br_of(x) == x]
        if hits:
            return hits[-1]
        for x in points:
            if br_of(x) < x:
                return x
        return points[-1]

    if stages == (3,):
        return (fixed_point(lambda x: argmax(points, lambda y: pay(y, 2 * x))),)
    if stages == (2, 1):
        def follower(s):
            return argmax(points, lambda z: pay(z, s))

        best = fixed_point(
            lambda x: argmax(points, lambda y: pay(y, x + follower(x + y)))
        )
        return (best, follower(2 * best))
    if stages == (1, 2):
        def pair(x1):
            return fixed_point(lambda y: argmax(points, lambda z: pay(z, x1 + y)))

        x1 = argmax(points, lambda x: pay(x, 2 * pair(x)))
        return (x1, pair(x1))
    if stages == (1, 1, 1):
        def third(s):
            return argmax(points, lambda z: pay(z, s))

        def second(x1):
            return argmax(points, lambda y: pay(y, x1 + third(x1 + y)))

        x1 = argmax(points, lambda x: pay(x, second(x) + third(x + second(x))))
        x2 = second(x1)
        return (x1, x2, third(x1 + x2))
    raise ValueError(stages)


class TestOracleGridSpne:
    def test_one_leader_two_followers(self):
        sol = oracle_grid_spne(ContestSpec(MoveSequence((1, 2))), 1.0)
        assert abs(sol.scaled_stage_investments[0] - 90.0) <= 1.0
        assert abs(sol.scaled_stage_investments[1] - 45.0) <= 1.0

    def test_simultaneous_brackets_continuous_value(self):
        sol = oracle_grid_spne(ContestSpec(MoveSequence((3,))), 1.0)
        assert sol.scaled_stage_investments[0] in (53.0, 54.0)

    def test_two_player_neutrality_benchmark(self):
        sol = oracle_grid_spne(ContestSpec(MoveSequence((1, 1))), 1.0)
        assert abs(sol.scaled_stage_investments[0] - 60.0) <= 1.0
        assert abs(sol.scaled_stage_investments[1] - 60.0) <= 1.0
        assert abs(sol.scaled_aggregate - 120.0) <= 2.0

    def test_two_leaders_one_follower(self):
        sol = oracle_grid_spne(ContestSpec(MoveSequence((2, 1))), 1.0)
        assert abs(sol.scaled_stage_investments[0] - 67.5) <= 1.0
        assert abs(sol.scaled_stage_investments[1] - 45.0) <= 1.0

    def test_fully_sequential_exact_grid_path(self):
        # The discrete game genuinely departs from the continuous solution
        # here: integer best responses make later movers' play lumpy and the
        # leader exploits where the lumps fall. Frozen from an independent
        # nested-loop enumeration of the step-1 game.
        sol = oracle_grid_spne(ContestSpec(MoveSequence((1, 1, 1))), 1.0)
        assert sol.scaled_stage_investments == (89.0, 59.0, 40.0)

    @pytest.mark.parametrize("stages", [(3,), (1, 2), (2, 1), (1, 1, 1)])
    def test_matches_nested_loop_enumeration(self, stages):
        step = 10.0
        sol = oracle_grid_spne(ContestSpec(MoveSequence(stages)), step)
        brute = brute_force_grid_spne(stages, 240.0, 240.0, step)
        assert sol.scaled_stage_investments == pytest.approx(brute)

    def test_effective_prize_used(self):
        plain = oracle_grid_spne(ContestSpec(MoveSequence((3,))), 1.0)
        boosted = oracle_grid_spne(
            ContestSpec(MoveSequence((3,)), joy_of_winning=119.73), 1.0
        )
        assert boosted.scaled_stage_investments[0] > plain.scaled_stage_investments[0]

    def test_grid_budget_enforced(self):
        with pytest.raises(GridTooLarge):
            oracle_grid_spne(ContestSpec(MoveSequence((1, 2))), 0.25)
        with pytest.raises(GridTooLarge):
            oracle_grid_spne(ContestSpec(MoveSequence((1, 1, 1, 1))), 1.0)

    def test_step_must_divide_endowment(self):
        with pytest.raises(ContestError):
            oracle_grid_spne(ContestSpec(MoveSequence((3,))), 0.7)
