"""Tests for response models, preemption optima, and policy dispatch."""

import hashlib
import json
import math
import random
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from scipy.optimize import brentq

from seqcontest import behavior
from seqcontest.core import ContestError, ContestSpec, MoveSequence
from seqcontest.behavior import (
    _bundled_models,
    _policy_rule,
    EmpiricalResponder,
    EquilibriumPolicy,
    InputOutOfRange,
    OptimizingLeader,
    ResponseModel,
    RoleObservationMismatch,
    act,
    default_response_models,
    eval_response,
    load_response_models,
    optimal_first_mover,
    policy_from_config,
    turning_point,
)
from seqcontest.simulate import SessionConfig, run_session
import oracles
from oracles import optimal_first_mover_walk

SEQ_12 = MoveSequence((1, 2))
SEQ_21 = MoveSequence((2, 1))
SEQ_111 = MoveSequence((1, 1, 1))

# stage keys that int() read as a number, with their test ids: a key must
# spell the stage number in ASCII digits
STAGE_KEYS_NOT_AS_WRITTEN = {
    " 2": "leading-space",
    "2 ": "trailing-space",
    "+2": "plus-sign",
    "02": "leading-zero",
    "1_0": "underscore",
    "\uff12": "fullwidth-digit",
    "0": "zero",
}

# move-sequence keys of a model file that int() read as a treatment
SEQUENCE_KEYS_NOT_AS_WRITTEN = {
    "1, 2": "space-after-comma",
    "\uff12,1": "fullwidth-digit",
    "1,02": "leading-zero",
    "1,2,": "trailing-comma",
}


class TestEvalResponse:
    def test_intercept_at_zero(self):
        model = default_response_models(SEQ_12)[2]
        assert eval_response(model, 0.0) == pytest.approx(62.72)

    def test_polynomial_evaluation(self):
        model = default_response_models(SEQ_21)[2]
        # 67.60 + 24.9 - 20.0
        assert eval_response(model, 100.0) == pytest.approx(72.50)

    def test_constant_model(self):
        model = ResponseModel(intercept=88.0)
        for m1 in (0.0, 50.0, 240.0):
            assert eval_response(model, m1) == 88.0

    def test_third_mover_uses_both_inputs(self):
        model = default_response_models(SEQ_111)[3]
        direct = model.mean_response(80.0, 70.0)
        assert eval_response(model, 80.0, 70.0) == pytest.approx(direct)

    def test_out_of_range_rejected(self):
        model = ResponseModel(intercept=10.0)
        with pytest.raises(InputOutOfRange):
            eval_response(model, -1.0)
        with pytest.raises(InputOutOfRange):
            eval_response(model, 10.0, 241.0)

    @pytest.mark.parametrize(
        "m1, m2, message",
        [
            ("a", None, "^m1 must be a real number, got 'a'"),
            (None, None, "^m1 must be a real number, got None"),
            (True, None, "^m1 must be a real number, got True"),
            (10.0, "b", "^m2 must be a real number, got 'b'"),
            (np.float64(math.nan), None, "^m1 must be finite, got nan"),
            (10.0, 10**400, "^m2 must be finite, got an integer beyond floats"),
        ],
        ids=["text", "none", "true", "text-m2", "numpy-nan", "int-beyond-floats-m2"],
    )
    def test_inputs_not_finite_real_numbers_refused(self, m1, m2, message):
        # text and None raised a raw TypeError, and True was read as 1.0
        with pytest.raises(ContestError, match=message):
            eval_response(ResponseModel(10.0, 0.5), m1, m2)

    def test_inputs_of_other_real_types_taken(self):
        # a float NaN fails the range test; an int or a numpy number is the
        # float it equals
        model = ResponseModel(10.0, 0.5, m2_coef=0.25)
        with pytest.raises(InputOutOfRange):
            eval_response(model, math.nan)
        assert eval_response(model, 4, np.float64(2.0)) == eval_response(model, 4.0, 2.0)

    @pytest.mark.parametrize(
        "endowment, message",
        [
            ("a", "^endowment must be a real number, got 'a'"),
            (True, "^endowment must be a real number, got True"),
            (None, "^endowment must be a real number, got None"),
            (np.float64(math.inf), "^endowment must be finite, got inf"),
            (10**400, "^endowment must be finite, got an integer beyond floats"),
        ],
        ids=["text", "true", "none", "numpy-inf", "int-beyond-floats"],
    )
    def test_endowment_not_a_finite_real_number_refused(self, endowment, message):
        # text raised a raw TypeError, and True was read as 1.0, clamping a
        # response of 10.5 to 1.0
        with pytest.raises(ContestError, match=message):
            eval_response(ResponseModel(10.0, 0.5), 1.0, endowment=endowment)

    def test_endowment_of_other_real_types_taken(self):
        model = ResponseModel(10.0, 0.5)
        assert eval_response(model, 1.0, endowment=240) == 10.5
        assert eval_response(model, 1.0, endowment=np.float32(5)) == 5.0

    def test_noise_is_one_inverse_cdf_draw(self):
        # one random() per noisy response, through the inverse normal CDF:
        # any object with a random() method serves, a numpy Generator too
        class Fixed:
            def random(self):
                return 0.975

        model = ResponseModel(intercept=60.0, noise_sd=10.0)
        assert eval_response(model, 0.0, rng=Fixed()) == 60.0 + 10.0 * 1.9599639845400536
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        expected = 60.0 + 10.0 * NormalDist().inv_cdf(twin.random())
        assert eval_response(model, 0.0, rng=rng) == expected
        assert rng.random() == twin.random()

    def test_noise_requires_rng_and_is_reproducible(self):
        model = ResponseModel(intercept=60.0, noise_sd=15.0)
        assert eval_response(model, 0.0) == 60.0  # no rng, no noise
        a = eval_response(model, 0.0, rng=np.random.default_rng(5))
        b = eval_response(model, 0.0, rng=np.random.default_rng(5))
        assert a == b
        assert a != 60.0

    def test_clamped_to_endowment_range(self):
        rng = np.random.default_rng(6)
        wild = ResponseModel(intercept=200.0, m1_coef=2.0, noise_sd=300.0)
        for _ in range(200):
            value = eval_response(wild, float(rng.uniform(0, 240)), rng=rng)
            assert 0.0 <= value <= 240.0


class TestTurningPoint:
    def test_two_leader_treatment(self):
        assert turning_point(default_response_models(SEQ_21)[2]) == pytest.approx(62.25)

    def test_convex_response_has_none(self):
        assert turning_point(default_response_models(SEQ_12)[2]) is None

    def test_second_mover_three_stage(self):
        model = default_response_models(SEQ_111)[2]
        # -0.103 / (2 * -0.00071)
        assert turning_point(model) == pytest.approx(72.54, abs=0.01)

    def test_vertex_outside_range_is_none(self):
        model = default_response_models(SEQ_111)[3]
        # vertex in m1 sits far above the endowment
        assert turning_point(model, "m1") is None

    def test_m2_axis(self):
        # -0.2 / (2 * -0.001): the peak in m2; m1 has no quadratic term
        model = ResponseModel(intercept=10.0, m2_coef=0.2, m2_sq_coef=-0.001)
        assert turning_point(model, "m2") == pytest.approx(100.0)
        assert turning_point(model, "m1") is None

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            turning_point(ResponseModel(intercept=1.0), "m3")

    @pytest.mark.parametrize("endowment", ["a", True], ids=["text", "true"])
    def test_endowment_not_a_real_number_refused(self, endowment):
        # text raised a raw TypeError, and True was read as 1.0
        model = ResponseModel(intercept=10.0, m2_coef=0.2, m2_sq_coef=-0.001)
        message = f"^endowment must be a real number, got {endowment!r}"
        with pytest.raises(ContestError, match=message):
            turning_point(model, "m2", endowment)
        assert turning_point(model, "m2", 240) == pytest.approx(100.0)


def two_leader_foc(model, p_eff):
    """First-order condition of the (2,1) leaders against a rescaled responder."""
    c = p_eff / model.fit_effective_prize

    def foc(x):
        resp = c * model.mean_response(x / c)
        slope = model.m1_coef + 2.0 * model.m1_sq_coef * (x / c)
        return p_eff * (x + resp - 0.5 * x * slope) - (2 * x + resp) ** 2

    return foc


def one_leader_reference(stages, models, p_eff):
    """Payoff of the (1,2) or (1,1,1) leader and its derivative in the leader's
    investment x, written out from the rescaled quadratic responses (without
    the clamp: at the bundled optima every response is interior)."""

    def others(x):
        # the later movers' total investment and its derivative in x
        r2, r3 = models[2], models.get(3)
        c = p_eff / r2.fit_effective_prize
        second = c * r2.intercept + r2.m1_coef * x + r2.m1_sq_coef * x * x / c
        d_second = r2.m1_coef + 2.0 * r2.m1_sq_coef * x / c
        if stages == (1, 2):
            return 2.0 * second, 2.0 * d_second
        c = p_eff / r3.fit_effective_prize
        third = (
            c * r3.intercept + r3.m1_coef * x + r3.m1_sq_coef * x * x / c
            + r3.m2_coef * second + r3.m2_sq_coef * second * second / c
        )
        d_third = (
            r3.m1_coef + 2.0 * r3.m1_sq_coef * x / c
            + (r3.m2_coef + 2.0 * r3.m2_sq_coef * second / c) * d_second
        )
        return second + third, d_second + d_third

    def payoff(x):
        return p_eff * x / (x + others(x)[0]) - x

    def derivative(x):
        total, d_total = others(x)
        total += x
        return p_eff / total - p_eff * x * (1.0 + d_total) / total**2 - 1.0

    return payoff, derivative


OPTIMUM_DIGESTS = {
    (1, 2): "d3c3f42978ace0097c0e570150f8d3d116f9dc041a004819a68b792072d01398",
    (2, 1): "eddb305be6996e134ab6e3edf4242a88feb01674498be4664730507ab7f910b7",
    (1, 1, 1): "06d67da83485d6ba7f33ce39aa7eeabecf5458cb6b14d5d2f67223874b8ddebf",
}


def random_response_models(stages):
    """320 random response models for the later stages of ``stages``, each
    with a joy of winning: some clamp responses, some are rescaled, and their
    optima lie at the ends as well as inside."""
    rng = random.Random(20)
    for _ in range(320):
        models = {
            stage: ResponseModel(
                intercept=rng.uniform(-120.0, 200.0),
                m1_coef=rng.uniform(-1.5, 1.5),
                m1_sq_coef=rng.uniform(-0.01, 0.01),
                m2_coef=rng.uniform(-1.5, 1.5) if stage == 3 else 0.0,
                m2_sq_coef=rng.uniform(-0.01, 0.01) if stage == 3 else 0.0,
                fit_effective_prize=rng.choice([None, rng.uniform(100.0, 500.0)]),
            )
            for stage in range(2, len(stages) + 1)
        }
        yield models, rng.choice([0.0, rng.uniform(0.0, 300.0)])


class TestOptimalFirstMover:
    @pytest.mark.parametrize(
        "stages, expected",
        [((1, 2), 72.03), ((2, 1), 83.11), ((1, 1, 1), 68.48)],
    )
    def test_with_joy_of_winning(self, stages, expected):
        seq = MoveSequence(stages)
        res = optimal_first_mover(seq, default_response_models(seq), 240.0, 119.73)
        assert res.investment == pytest.approx(expected, abs=0.05)
        assert not res.at_boundary

    @pytest.mark.parametrize(
        "stages, expected",
        [((1, 2), 48.06), ((2, 1), 55.45), ((1, 1, 1), 45.69)],
    )
    def test_without_joy_of_winning(self, stages, expected):
        seq = MoveSequence(stages)
        res = optimal_first_mover(seq, default_response_models(seq), 240.0, 0.0)
        assert res.investment == pytest.approx(expected, abs=0.05)

    @pytest.mark.parametrize("stages", [(1, 2), (1, 1, 1)])
    @pytest.mark.parametrize("jow", [119.73, 0.0])
    def test_against_exhaustive_grid_search(self, stages, jow):
        seq = MoveSequence(stages)
        models = default_response_models(seq)
        p_eff = 240.0 + jow

        def scaled(model, m1, m2=None):
            c = p_eff / model.fit_effective_prize
            return c * model.mean_response(m1 / c, None if m2 is None else m2 / c)

        def objective(x):
            if stages == (1, 2):
                others = 2.0 * scaled(models[2], x)
            else:
                second = scaled(models[2], x)
                others = second + scaled(models[3], x, second)
            total = x + others
            return p_eff * (x / total if total > 0 else 1 / 3) - x

        xs = np.arange(0.0, 240.0 + 1e-9, 0.01)
        grid_best = xs[int(np.argmax([objective(x) for x in xs]))]
        res = optimal_first_mover(seq, models, 240.0, jow)
        assert abs(res.investment - grid_best) < 0.02

    @pytest.mark.parametrize("jow", [119.73, 0.0])
    def test_two_leader_foc_residual(self, jow):
        models = default_response_models(SEQ_21)
        res = optimal_first_mover(SEQ_21, models, 240.0, jow)
        assert abs(two_leader_foc(models[2], 240.0 + jow)(res.investment)) < 1e-6

    @pytest.mark.parametrize("jow", [0.0, 119.73, 400.0])
    def test_two_leader_optimum_matches_brentq(self, jow):
        # scipy's brentq, on the same 0.5-point bracket, is the oracle for
        # the package's own bisection
        models = default_response_models(SEQ_21)
        foc = two_leader_foc(models[2], 240.0 + jow)
        lo = next(x for x in np.arange(0.0, 240.0, 0.5) if foc(x) * foc(x + 0.5) < 0.0)
        res = optimal_first_mover(SEQ_21, models, 240.0, jow)
        assert abs(res.investment - brentq(foc, lo, lo + 0.5, xtol=1e-12)) < 1e-9

    def test_monotone_in_joy_of_winning(self):
        for stages in [(1, 2), (2, 1), (1, 1, 1)]:
            seq = MoveSequence(stages)
            models = default_response_models(seq)
            values = [
                optimal_first_mover(seq, models, 240.0, w).investment
                for w in (0.0, 60.0, 119.73)
            ]
            assert values[0] < values[1] < values[2]

    def test_unscaled_models_use_literal_objective(self):
        # without fit metadata, removing the prize correction re-optimizes
        # against the same response curve instead of rescaling it
        models = {
            2: ResponseModel(intercept=62.72, m1_coef=0.091, m1_sq_coef=9.6e-5)
        }
        res = optimal_first_mover(SEQ_12, models, 240.0, 0.0)
        assert res.investment == pytest.approx(40.22, abs=0.05)

    def test_boundary_flagged(self):
        models = {2: ResponseModel(intercept=0.0)}
        res = optimal_first_mover(SEQ_12, models, 240.0, 119.73)
        assert res.at_boundary

    def test_simultaneous_treatment_rejected(self):
        with pytest.raises(ContestError):
            optimal_first_mover(MoveSequence((3,)), {}, 240.0, 0.0)

    @pytest.mark.parametrize(
        "seq, stages, missing",
        [(SEQ_12, [3], 2), (SEQ_21, [], 2), (SEQ_111, [2], 3), (SEQ_111, [3], 2)],
        ids=["1-2-no-stage-2", "2-1-no-models", "1-1-1-no-stage-3", "1-1-1-no-stage-2"],
    )
    def test_missing_stage_model_named(self, seq, stages, missing):
        # a missing stage used to escape as a bare KeyError
        models = {stage: ResponseModel(intercept=50.0) for stage in stages}
        with pytest.raises(ContestError, match=f"response model for stage {missing}$"):
            optimal_first_mover(seq, models, 240.0, 0.0)

    @pytest.mark.parametrize(
        "seq, models, message",
        [
            (SEQ_12, {2: ResponseModel(10.0, m2_coef=5.0)},
             "stage 2 of treatment [(]1,2[)] observes no m2, so its response model cannot set "
             "m2_coef"),
            (SEQ_111, {2: ResponseModel(10.0, m2_sq_coef=0.1), 3: ResponseModel(5.0)},
             "stage 2 of treatment [(]1,1,1[)] observes no m2, so its response model cannot set "
             "m2_sq_coef"),
            (SEQ_12, {2: ResponseModel(10.0), 3: ResponseModel(999.0), 7: ResponseModel(5.0)},
             "models name stage 3, but the later stages of treatment [(]1,2[)] are 2$"),
            (SEQ_21, {1: ResponseModel(10.0), 2: ResponseModel(10.0)},
             "models name stage 1, but the later stages of treatment [(]2,1[)] are 2$"),
        ],
        ids=["1-2-m2-term", "1-1-1-m2-term-at-stage-2", "1-2-extra-stages", "2-1-stage-1"],
    )
    def test_models_it_cannot_use_rejected(self, seq, models, message):
        # each was dropped without a word, and (1,2) returned 49.282...
        with pytest.raises(ContestError, match=message):
            optimal_first_mover(seq, models, 240.0, 0.0)

    @pytest.mark.parametrize("stages", [(1, 2), (1, 1, 1)])
    def test_one_leader_optimum_matches_derivative_reference(self, stages):
        # the payoff's 0.01-point grid maximum brackets the root of its
        # derivative, which scipy's brentq solves to 1e-13
        seq = MoveSequence(stages)
        models = default_response_models(seq)
        xs = np.arange(24001) * 0.01
        for w in range(0, 295, 7):
            payoff, derivative = one_leader_reference(stages, models, 240.0 + w)
            best = int(np.argmax(payoff(xs)))
            root = brentq(derivative, xs[best - 1], xs[best + 1], xtol=1e-13)
            res = optimal_first_mover(seq, models, 240.0, float(w))
            assert abs(res.investment - root) < 1e-9

    @pytest.mark.parametrize(
        "stages, model, expected",
        [
            # the followers drop out at x = 170.416; the leader invests that much
            ((1, 2), ResponseModel(intercept=60.0, m1_coef=0.5, m1_sq_coef=-0.005), 170.416),
            # the follower drops out at m1 >= 40; each leader then invests V/4
            ((2, 1), ResponseModel(intercept=20.0, m1_coef=-0.5), 60.0),
        ],
        ids=["1-2", "2-1"],
    )
    def test_optimum_against_clamped_play(self, stages, model, expected):
        # play clamps each response (eval_response): a leader's best reply
        # on a 0.01-point grid, the other leader (if any) holding the returned
        # investment, is that investment
        seq = MoveSequence(stages)
        x = optimal_first_mover(seq, {2: model}, 240.0, 0.0).investment
        k1, k2 = stages

        def payoff(own):
            leaders = own + (k1 - 1) * x
            total = leaders + k2 * eval_response(model, leaders / k1)
            return 240.0 * own / total - own if total > 0.0 else 80.0 - own

        ys = np.arange(24001) * 0.01
        values = [payoff(y) for y in ys]
        best = int(np.argmax(values))
        assert abs(ys[best] - x) <= 0.01 + 1e-9
        assert payoff(x) >= values[best] - 1e-9
        assert x == pytest.approx(expected, abs=1e-3)

    @pytest.mark.parametrize("stages", sorted(OPTIMUM_DIGESTS))
    def test_bundled_optima_face_interior_responses(self, stages):
        # why the clamp of play moves no bundled optimum: at each, every
        # rescaled response lies strictly inside (0, endowment)
        seq = MoveSequence(stages)
        models = default_response_models(seq)
        for w in range(0, 295, 7):
            c = (240.0 + w) / models[2].fit_effective_prize
            x = optimal_first_mover(seq, models, 240.0, float(w)).investment
            second = c * models[2].mean_response(x / c)
            responses = [second]
            if 3 in models:
                responses.append(c * models[3].mean_response(x / c, second / c))
            assert all(0.0 < r < 240.0 for r in responses), (w, x, responses)

    @pytest.mark.parametrize("stages", sorted(OPTIMUM_DIGESTS))
    def test_flat_walk_matches_closure_walk(self, stages):
        # the flat first-order function must give the closure walk's result
        # to the bit, on random models that clamp responses, rescale or not,
        # and put optima at the ends as well as inside
        seq = MoveSequence(stages)
        clamped = rescaled = boundary = 0
        for models, jow in random_response_models(stages):
            res = optimal_first_mover(seq, models, 240.0, jow)
            walk = optimal_first_mover_walk(seq, models, 240.0, jow)
            assert repr(res) == repr(walk), (models, jow)  # a float's repr is its bits
            fit = models[2].fit_effective_prize
            c = 1.0 if fit is None else (240.0 + jow) / fit
            second = [c * models[2].mean_response(x / c) for x in range(0, 241, 30)]
            clamped += not all(0.0 <= r <= 240.0 for r in second)
            rescaled += fit is not None
            boundary += res.at_boundary
        counts = (clamped, rescaled, 320 - rescaled, boundary, 320 - boundary)
        assert min(counts) >= 30, counts

    @pytest.mark.parametrize("stages", sorted(OPTIMUM_DIGESTS))
    def test_first_order_values_match_closure_walk_on_the_grid(self, stages, monkeypatch):
        # the flat first-order function (the one handed to bisect) takes the
        # closure walk's value (its function handed to _roots) at every
        # 0.5-point grid point, to the bit, not only where the optimum lands
        handed = {}

        def keeping(name, walk):
            def kept(f, *args, **kwargs):
                handed[name] = f
                return walk(f, *args, **kwargs)
            return kept

        monkeypatch.setattr(behavior, "bisect", keeping("flat", behavior.bisect))
        monkeypatch.setattr(oracles, "_roots", keeping("closures", oracles._roots))
        seq = MoveSequence(stages)
        grid = [i * 0.5 for i in range(481)]
        compared = 0
        for models, jow in random_response_models(stages):
            handed.clear()
            optimal_first_mover(seq, models, 240.0, jow)
            optimal_first_mover_walk(seq, models, 240.0, jow)
            if "flat" not in handed:
                continue  # no sign change to bisect: the flat function is not handed out
            flat, closures = handed["flat"], handed["closures"]
            # a float's repr is its bits
            assert [repr(flat(x)) for x in grid] == [repr(closures(x)) for x in grid], (
                models, jow)
            compared += 1
        assert compared >= 100, compared

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"prize": 0.0}, "prize must be positive, got 0.0"),
            ({"prize": math.nan}, "prize must be finite"),
            ({"endowment": -5.0}, "endowment must be nonnegative, got -5.0"),
            ({"endowment": math.inf}, "endowment must be finite"),
            ({"joy_of_winning": -240.0}, "joy_of_winning must be nonnegative, got -240.0"),
            ({"joy_of_winning": -300.0}, "joy_of_winning must be nonnegative, got -300.0"),
            ({"joy_of_winning": math.inf}, "joy_of_winning must be finite, got inf"),
            ({"joy_of_winning": True}, "joy_of_winning must be a real number, got True"),
        ],
        ids=["prize-zero", "prize-nan", "endowment-negative", "endowment-inf",
             "jow-minus-prize", "jow-below-minus-prize", "jow-inf", "jow-bool"],
    )
    def test_numbers_checked_as_in_contest_spec(self, kwargs, message):
        # -240 divided by zero, -300 and inf played 0.0, endowment -5 was
        # returned as the investment
        args = {"prize": 240.0, "joy_of_winning": 0.0, "endowment": 240.0, **kwargs}
        with pytest.raises(ContestError, match=message):
            optimal_first_mover(SEQ_12, default_response_models(SEQ_12), **args)

    def test_rescale_out_of_float_range_rejected(self):
        models = {2: ResponseModel(intercept=50.0, fit_effective_prize=1e300)}
        with pytest.raises(ContestError, match="out of range for a model fit at 1e[+]300"):
            optimal_first_mover(SEQ_12, models, 1e-300)

    @pytest.mark.parametrize("stages", sorted(OPTIMUM_DIGESTS))
    def test_golden_optima(self, stages):
        # sha256 of the result reprs over joy values 0, 7, ..., 294 with the
        # bundled models: pins the optimiser's bits, which the approximate
        # checks above do not
        seq = MoveSequence(stages)
        models = default_response_models(seq)
        text = "\n".join(
            repr(optimal_first_mover(seq, models, 240.0, float(w))) for w in range(0, 295, 7)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == OPTIMUM_DIGESTS[stages]


class TestResponseModelChecks:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"intercept": math.nan}, "intercept must be finite, got nan"),
            ({"intercept": 50.0, "m1_coef": math.inf}, "m1_coef must be finite"),
            ({"intercept": 50.0, "m2_sq_coef": -math.inf}, "m2_sq_coef must be finite"),
            ({"intercept": "50"}, "intercept must be a real number, got '50'"),
            ({"intercept": 50.0, "noise_sd": -1.0}, "noise_sd must be nonnegative, got -1.0"),
            ({"intercept": 50.0, "fit_effective_prize": 0.0},
             "fit_effective_prize must be positive, got 0.0"),
            ({"intercept": 50.0, "fit_effective_prize": -240.0},
             "fit_effective_prize must be positive, got -240.0"),
            ({"intercept": 50.0, "fit_effective_prize": math.nan},
             "fit_effective_prize must be finite"),
            ({"intercept": 10**400}, "intercept must be finite"),
        ],
        ids=["intercept-nan", "m1-inf", "m2-sq-minus-inf", "intercept-string",
             "noise-negative", "fit-zero", "fit-negative", "fit-nan", "intercept-huge-int"],
    )
    def test_bad_field_rejected(self, kwargs, message):
        with pytest.raises(ContestError, match=f"response-model {message}"):
            ResponseModel(**kwargs)

    def test_replace_runs_the_checks(self):
        model = default_response_models(SEQ_12)[2]
        with pytest.raises(ContestError, match="noise_sd must be nonnegative"):
            replace(model, noise_sd=-25.0)

    @pytest.mark.parametrize(
        "entry",
        [{"intercept": math.nan}, {"intercept": 10**400},
         {"intercept": 50.0, "fit_effective_prize": 0}],
        ids=["nan", "integer-beyond-floats", "fit-zero"],
    )
    def test_model_file_runs_the_checks(self, tmp_path, entry):
        # json reads NaN, Infinity and integers of any size; a model of
        # them names the file
        path = tmp_path / "models.json"
        path.write_text(json.dumps({"schema": 1, "models": {"1,2": {"2": entry}}}))
        with pytest.raises(ContestError, match="malformed response-model file"):
            load_response_models(path)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"kind": "responder", "model": {"intercept": math.inf}}, "intercept must be finite"),
            ({"kind": "responder", "noise_sd": -25.0}, "noise_sd must be nonnegative"),
        ],
        ids=["inline-model", "noise-override"],
    )
    def test_policy_entries_run_the_checks(self, entry, message):
        with pytest.raises(ContestError, match=message):
            policy_from_config(entry, ContestSpec(SEQ_12), 1)


class TestAct:
    def test_spne_policy_stage_investment(self):
        spec = ContestSpec(SEQ_111)
        value = act(EquilibriumPolicy(), spec, 2, [86.188])
        assert value == pytest.approx(63.09, abs=0.01)

    def test_spne_ignores_spec_joy_of_winning(self):
        spec = ContestSpec(SEQ_12, joy_of_winning=119.73)
        assert act(EquilibriumPolicy(), spec, 1, []) == pytest.approx(90.0, abs=1e-9)
        assert act(
            EquilibriumPolicy(use_joy_of_winning=True), spec, 1, []
        ) == pytest.approx(134.90, abs=0.01)

    def test_action_clamped_to_endowment(self):
        spec = ContestSpec(SEQ_12, joy_of_winning=500.0)
        assert act(EquilibriumPolicy(use_joy_of_winning=True), spec, 1, []) == 240.0

    def test_imitator_matches_mean(self):
        # an imitator is a linear responder: at stage 2 it plays m1, the
        # leaders' mean as math.fsum takes it
        imitator = EmpiricalResponder(ResponseModel(0.0, m1_coef=1.0))
        assert act(imitator, ContestSpec(SEQ_12), 2, [80.0]) == 80.0
        for leaders in ([70.0, 91.0], [0.1, 0.2], [239.0, 240.0]):
            expected = math.fsum(leaders) / 2
            assert act(imitator, ContestSpec(SEQ_21), 2, leaders) == expected

    @pytest.mark.parametrize("observed", [[70.0, 61.0], [200.0, 240.0], [0.1, 0.2]])
    def test_imitator_third_mover_plays_clamped_mean(self, observed):
        spec = ContestSpec(SEQ_111)
        imitator = EmpiricalResponder(ResponseModel(0.0, m1_coef=0.5, m2_coef=0.5))
        # 0.5*a + 0.5*b rounds once, as (a + b) / 2 does
        expected = min(max(math.fsum(observed) / 2, 0.0), 240.0)
        assert act(imitator, spec, 3, observed) == expected

    def test_optimizing_leader_two_leader_treatment(self):
        spec = ContestSpec(SEQ_21)
        policy = OptimizingLeader(
            models=default_response_models(SEQ_21), joy_of_winning=119.73
        )
        assert act(policy, spec, 1, []) == pytest.approx(83.11, abs=0.05)

    def test_responder_averages_two_leaders(self):
        spec = ContestSpec(SEQ_21)
        model = default_response_models(SEQ_21)[2]
        value = act(EmpiricalResponder(model), spec, 2, [60.0, 140.0])
        assert value == pytest.approx(eval_response(model, 100.0))

    def test_third_mover_observes_both_stages(self):
        spec = ContestSpec(SEQ_111)
        model = default_response_models(SEQ_111)[3]
        value = act(EmpiricalResponder(model), spec, 3, [70.0, 60.0])
        assert value == pytest.approx(eval_response(model, 70.0, 60.0))

    def test_same_policy_object_follows_spec_and_stage(self):
        policy = EquilibriumPolicy()
        assert act(policy, ContestSpec(SEQ_12), 1, []) == pytest.approx(90.0, abs=1e-9)
        assert act(policy, ContestSpec(SEQ_111), 1, []) == pytest.approx(86.188, abs=1e-3)
        assert act(policy, ContestSpec(SEQ_111), 2, [86.188]) == pytest.approx(63.09, abs=0.01)
        with pytest.raises(RoleObservationMismatch):
            act(policy, ContestSpec(SEQ_111), 2, [])

    def test_policies_resolve_to_plain_data(self):
        # _policy_rule returns an investment or a response model, never a
        # function
        spec = ContestSpec(SEQ_111)
        model = default_response_models(SEQ_111)[2]
        leader = OptimizingLeader(models=default_response_models(SEQ_111))
        spne = _policy_rule(EquilibriumPolicy(), spec, 1)
        assert type(spne) is float and spne == pytest.approx(86.188, abs=1e-3)
        assert type(_policy_rule(leader, spec, 1)) is float
        assert _policy_rule(EmpiricalResponder(model), spec, 2) is model

    @pytest.mark.parametrize("policy", [object(), ResponseModel(50.0)], ids=["object", "model"])
    def test_unknown_policy_raises_type_error(self, policy):
        spec = ContestSpec(SEQ_12)
        with pytest.raises(TypeError, match="unknown policy"):
            _policy_rule(policy, spec, 2)
        with pytest.raises(TypeError, match="unknown policy"):
            act(policy, spec, 2, [50.0])

    @pytest.mark.parametrize("term", ["m2_coef", "m2_sq_coef"])
    @pytest.mark.parametrize("seq", [SEQ_12, SEQ_21, SEQ_111], ids=["1-2", "2-1", "1-1-1"])
    def test_m2_terms_before_stage_3_refused(self, seq, term):
        # a stage-2 responder observes no m2, so its m2 terms would be dropped:
        # act and run_session refuse the model as policy_from_config does
        spec = ContestSpec(seq)
        model = ResponseModel(10.0, **{term: 5.0})
        entry = {"kind": "responder", "model": {"intercept": 10.0, term: 5.0}}
        player = seq.stages[0]
        with pytest.raises(ContestError) as refused:
            policy_from_config(entry, spec, player)
        message = str(refused.value)
        assert message == (
            f"stage 2 of treatment {seq.label()} observes no m2, so its response "
            f"model cannot set {term}"
        )
        responder = EmpiricalResponder(model)
        with pytest.raises(ContestError) as got:
            act(responder, spec, 2, [50.0] * player)
        assert str(got.value) == message
        policies = [EquilibriumPolicy()] * seq.n_players
        policies[player] = responder
        with pytest.raises(ContestError) as got:
            run_session(SessionConfig(spec, tuple(policies), groups=1, rounds=1))
        assert str(got.value) == message

    @pytest.mark.parametrize(
        "term, coef, played", [("m2_coef", 0.5, 40.0), ("m2_sq_coef", 0.01, 46.0)]
    )
    def test_a_third_mover_plays_its_m2_terms(self, term, coef, played):
        # 10 + the m2 term at m2 = 60: stage 3 observes m2
        model = ResponseModel(10.0, **{term: coef})
        value = act(EmpiricalResponder(model), ContestSpec(SEQ_111), 3, [70.0, 60.0])
        assert value == pytest.approx(played) and value == eval_response(model, 70.0, 60.0)

    def test_observation_count_checked(self):
        spec = ContestSpec(SEQ_111)
        with pytest.raises(RoleObservationMismatch):
            act(EquilibriumPolicy(), spec, 2, [])
        with pytest.raises(RoleObservationMismatch):
            act(EmpiricalResponder(ResponseModel(10.0)), spec, 1, [])
        with pytest.raises(RoleObservationMismatch):
            act(
                OptimizingLeader(models=default_response_models(SEQ_111)),
                spec,
                2,
                [50.0],
            )


class TestPresets:
    def test_bundled_models_cover_sequential_treatments(self):
        for stages in [(1, 2), (2, 1)]:
            assert set(default_response_models(MoveSequence(stages))) == {2}
        assert set(default_response_models(SEQ_111)) == {2, 3}

    def test_bundled_file_covers_every_later_stage(self):
        # why a responder config without a model needs no check that the file
        # has one for its stage
        for seq, models in _bundled_models.__wrapped__().items():
            assert set(models) == set(range(2, seq.n_stages + 1)), seq.label()

    def test_bundled_file_loads_under_the_key_rules(self):
        # parsed again, past the cache, so the key checks run on the file
        models = _bundled_models.__wrapped__()
        assert models == _bundled_models()
        assert set(models) == {SEQ_12, SEQ_21, SEQ_111}

    def test_no_models_for_simultaneous(self):
        with pytest.raises(ContestError):
            default_response_models(MoveSequence((3,)))

    def test_custom_file_round_trip(self, tmp_path):
        path = tmp_path / "models.json"
        path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "fit_effective_prize": 300.0,
                    "models": {
                        "1,2": {"2": {"intercept": 55.0, "m1_coef": 0.1}},
                        "2,1": {
                            "2": {
                                "intercept": 60.0,
                                "fit_effective_prize": 280.0,
                            }
                        },
                    },
                }
            )
        )
        models = load_response_models(path)
        assert models[SEQ_12][2].intercept == 55.0
        assert models[SEQ_12][2].fit_effective_prize == 300.0
        assert models[SEQ_21][2].fit_effective_prize == 280.0

    def test_model_without_fit_prize_stays_unscaled(self, tmp_path):
        path = tmp_path / "models.json"
        path.write_text(
            json.dumps(
                {"schema": 1, "models": {"1,2": {"2": {"intercept": 55.0}}}}
            )
        )
        assert load_response_models(path)[SEQ_12][2].fit_effective_prize is None

    @pytest.mark.parametrize(
        "top",
        [
            {"schema": 1, "fit_effective_prise": 300.0},
            {"schema": 1, "endowment": 240},
            {"schema": 2},
            {},
            {"schema": True},
            {"schema": 1.0},
        ],
        ids=["misspelt-fit-prize", "unread-key", "schema-2", "no-schema", "schema-true",
             "schema-float"],
    )
    def test_bad_top_level_rejected(self, tmp_path, top):
        # a misspelt fit_effective_prize used to load, silently unscaled
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({**top, "models": {"1,2": {"2": {"intercept": 55.0}}}})
        )
        with pytest.raises(ContestError):
            load_response_models(path)

    def test_unknown_model_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"schema": 1, "models": {"1,2": {"2": {"slope": 1.0}}}})
        )
        with pytest.raises(ContestError):
            load_response_models(path)

    @pytest.mark.parametrize(
        "raw",
        [
            [],
            {"schema": 1, "models": []},
            {"schema": 1, "models": {"1,2": {"x": {}}}},
            *[
                {"schema": 1, "models": {"1,2": {key: {"intercept": 55.0}}}}
                for key in STAGE_KEYS_NOT_AS_WRITTEN
            ],
            *[
                {"schema": 1, "models": {key: {"2": {"intercept": 55.0}}}}
                for key in SEQUENCE_KEYS_NOT_AS_WRITTEN
            ],
        ],
        ids=[
            "top-level-list", "models-list", "stage-key-x",
            *[f"stage-key-{label}" for label in STAGE_KEYS_NOT_AS_WRITTEN.values()],
            *[f"sequence-key-{label}" for label in SEQUENCE_KEYS_NOT_AS_WRITTEN.values()],
        ],
    )
    def test_wrong_shape_names_the_file(self, tmp_path, raw):
        # the first three used to escape as a bare AttributeError or
        # ValueError, and the stage and sequence keys to load as what int()
        # read
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ContestError, match="bad.json"):
            load_response_models(path)


class TestPolicyFromConfig:
    def test_kinds(self):
        spec = ContestSpec(SEQ_21, joy_of_winning=119.73)
        assert policy_from_config({"kind": "spne"}, spec, 0) == EquilibriumPolicy(False)
        assert policy_from_config({"kind": "jow-spne"}, spec, 0) == EquilibriumPolicy(
            True
        )
        responder = policy_from_config({"kind": "responder"}, spec, 2)
        assert responder.model == default_response_models(SEQ_21)[2]
        imitate = {"kind": "responder", "model": {"intercept": 0, "m1_coef": 1}}
        assert policy_from_config(imitate, spec, 2) == EmpiricalResponder(
            ResponseModel(0.0, m1_coef=1.0)
        )
        leader = policy_from_config({"kind": "optimizing-leader"}, spec, 0)
        assert leader.joy_of_winning == pytest.approx(119.73)

    def test_responder_noise_override(self):
        spec = ContestSpec(SEQ_12)
        responder = policy_from_config(
            {"kind": "responder", "noise_sd": 12.0}, spec, 1
        )
        assert responder.model.noise_sd == 12.0
        assert responder.model.intercept == pytest.approx(62.72)

    def test_unknown_kind_rejected(self):
        for kind in ("bandit", "imitator"):
            with pytest.raises(ContestError, match=f"unknown policy kind '{kind}'"):
                policy_from_config({"kind": kind}, ContestSpec(SEQ_12), 0)

    def test_inline_model_without_intercept_rejected(self):
        entry = {"kind": "responder", "model": {"m1_coef": 0.25}}
        with pytest.raises(ContestError, match="needs an 'intercept'"):
            policy_from_config(entry, ContestSpec(SEQ_12), 1)
