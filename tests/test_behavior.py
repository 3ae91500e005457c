"""Tests for response models, preemption optima, and policy dispatch."""

import hashlib
import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from seqcontest.core import ContestError, ContestSpec, MoveSequence
from seqcontest.behavior import (
    _policy_rule,
    EmpiricalResponder,
    EquilibriumPolicy,
    Imitator,
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

SEQ_12 = MoveSequence((1, 2))
SEQ_21 = MoveSequence((2, 1))
SEQ_111 = MoveSequence((1, 1, 1))


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

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            turning_point(ResponseModel(intercept=1.0), "m3")


def two_leader_foc(model, p_eff):
    """First-order condition of the (2,1) leaders against a rescaled responder."""
    c = p_eff / model.fit_effective_prize

    def foc(x):
        resp = c * model.mean_response(x / c)
        slope = model.m1_coef + 2.0 * model.m1_sq_coef * (x / c)
        return p_eff * (x + resp - 0.5 * x * slope) - (2 * x + resp) ** 2

    return foc


OPTIMUM_DIGESTS = {
    (1, 2): "a49a344a83486f4140e7f9507c4196ad349591fda633ce7045f771501b13c229",
    (2, 1): "eddb305be6996e134ab6e3edf4242a88feb01674498be4664730507ab7f910b7",
    (1, 1, 1): "f09ea536e4fcad5676e0cc19f5aa21dec7b01ba34f7262fe279f73da4a4d9967",
}


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
        spec = ContestSpec(SEQ_12)
        assert act(Imitator(fallback=50.0), spec, 2, [80.0]) == 80.0

    @pytest.mark.parametrize("observed", [[70.0, 61.0], [200.0, 290.0], [0.1, 0.2]])
    def test_imitator_third_mover_plays_clamped_mean(self, observed):
        spec = ContestSpec(SEQ_111)
        expected = min(max(math.fsum(observed) / 2, 0.0), 240.0)
        assert act(Imitator(fallback=5.0), spec, 3, observed) == expected

    def test_imitator_fallback_without_observations(self):
        spec = ContestSpec(SEQ_12)
        assert act(Imitator(fallback=62.72), spec, 1, []) == 62.72

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
        # _policy_rule returns an investment, a response model or the
        # imitator itself, never a function
        spec = ContestSpec(SEQ_111)
        model = default_response_models(SEQ_111)[2]
        leader = OptimizingLeader(models=default_response_models(SEQ_111))
        imitator = Imitator(fallback=62.72)
        spne = _policy_rule(EquilibriumPolicy(), spec, 1)
        assert type(spne) is float and spne == pytest.approx(86.188, abs=1e-3)
        assert type(_policy_rule(leader, spec, 1)) is float
        assert _policy_rule(EmpiricalResponder(model), spec, 2) is model
        assert _policy_rule(imitator, spec, 1) == 62.72
        assert _policy_rule(imitator, spec, 3) is imitator

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

    def test_unknown_model_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"schema": 1, "models": {"1,2": {"2": {"slope": 1.0}}}})
        )
        with pytest.raises(ContestError):
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
        imitator = policy_from_config({"kind": "imitator", "fallback": 70.0}, spec, 0)
        assert imitator.fallback == 70.0
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
        with pytest.raises(ContestError):
            policy_from_config({"kind": "bandit"}, ContestSpec(SEQ_12), 0)
