"""Tests for the session simulator: protocol fidelity, determinism, logs."""

import copy
import hashlib
import json
import math
import pickle
import random
import re
from collections import Counter, defaultdict
from dataclasses import FrozenInstanceError, asdict, astuple, fields, replace

import numpy as np
import pytest
from scipy import stats as sps

from seqcontest import behavior, core, simulate, stats
from seqcontest import log as log_module
from seqcontest.core import ContestError, ContestSpec, MoveSequence
from seqcontest.behavior import (
    EmpiricalResponder,
    EquilibriumPolicy,
    OptimizingLeader,
    ResponseModel,
    default_response_models,
    eval_response,
)
from seqcontest.equilibrium import solve_spne
from seqcontest.log import (
    CSV_COLUMNS,
    BadGroupComposition,
    NotASessionLog,
    RoundRecord,
    SessionLog,
    export_log,
    load_log,
)
from seqcontest.simulate import (
    SessionConfig,
    _group_rng,
    play_round,
    run_batch,
    run_session,
    session_config_from_dict,
)

import oracles

SEQ_12 = MoveSequence((1, 2))
SEQ_21 = MoveSequence((2, 1))
SEQ_111 = MoveSequence((1, 1, 1))


def spne_config(stages, groups, rounds=25, seed=42, **kwargs):
    spec = ContestSpec(MoveSequence(stages))
    return SessionConfig(
        spec=spec,
        policies=(EquilibriumPolicy(),) * 3,
        groups=groups,
        rounds=rounds,
        seed=seed,
        **kwargs,
    )


def triads_of(records):
    triads = defaultdict(list)
    for r in records:
        triads[(r.group, r.round, r.triad)].append(r)
    return triads


class TestPlayRound:
    def test_spne_path_fully_sequential(self):
        spec = ContestSpec(SEQ_111)
        rng = np.random.default_rng(1)
        records = play_round((EquilibriumPolicy(),) * 3, spec, rng)
        expected = solve_spne(spec).per_player_investments()
        assert [r.investment for r in records] == pytest.approx(expected)
        assert sum(r.won for r in records) == 1

    def test_all_zero_investments(self):
        # with nothing to invest, the SPNE is all zero and a lottery of
        # equal odds still pays the prize to one player
        spec = ContestSpec(SEQ_111, endowment=0.0)
        rng = np.random.default_rng(2)
        records = play_round((EquilibriumPolicy(),) * 3, spec, rng)
        assert [r.investment for r in records] == [0.0, 0.0, 0.0]
        assert sorted(r.payoff for r in records) == [0.0, 0.0, 240.0]

    def test_optimizing_leader_with_responders(self):
        spec = ContestSpec(SEQ_12, joy_of_winning=119.73)
        models = default_response_models(SEQ_12)
        policies = (
            OptimizingLeader(models=models, joy_of_winning=119.73),
            EmpiricalResponder(models[2]),
            EmpiricalResponder(models[2]),
        )
        records = play_round(policies, spec, np.random.default_rng(3))
        leader = records[0].investment
        assert leader == pytest.approx(72.03, abs=0.05)
        follower = eval_response(models[2], leader)
        assert records[1].investment == pytest.approx(follower)
        assert records[2].investment == pytest.approx(follower)

    def test_observed_inputs_recorded(self):
        spec = ContestSpec(SEQ_111)
        records = play_round(
            (EquilibriumPolicy(),) * 3, spec, np.random.default_rng(4)
        )
        x1, x2, _ = (r.investment for r in records)
        assert records[0].m1 is None and records[0].m2 is None
        assert records[1].m1 == pytest.approx(x1) and records[1].m2 is None
        assert records[2].m1 == pytest.approx(x1)
        assert records[2].m2 == pytest.approx(x2)

    def test_one_subject_id_per_player(self):
        with pytest.raises(BadGroupComposition, match="one subject id per player"):
            play_round(
                (EquilibriumPolicy(),) * 3, ContestSpec(SEQ_111), np.random.default_rng(6),
                subjects=(1, 2),
            )

    @pytest.mark.parametrize(
        "ids, message",
        [
            ({"group": 2.5}, "group must be a whole number, got 2.5"),
            ({"group": True}, "group must be a whole number, got True"),
            ({"round_number": "3"}, "round_number must be a whole number, got '3'"),
            ({"triad": "x"}, "triad must be a whole number, got 'x'"),
            ({"subjects": (1.7, 2, 3)}, "each of subjects must be a whole number, got 1.7"),
            ({"subjects": (1, True, 3)}, "each of subjects must be a whole number, got True"),
            ({"subjects": (1, 2, "3")}, "each of subjects must be a whole number, got '3'"),
        ],
        ids=["group-float", "group-bool", "round-text", "triad-text", "subject-float",
             "subject-bool", "subject-text"],
    )
    def test_ids_not_whole_numbers_refused(self, ids, message):
        with pytest.raises(ContestError) as exc:
            play_round(
                (EquilibriumPolicy(),) * 3, ContestSpec(SEQ_111), np.random.default_rng(6), **ids
            )
        assert str(exc.value) == message

    def test_ids_of_other_integer_types_recorded_as_ints(self):
        policies, spec = (EquilibriumPolicy(),) * 3, ContestSpec(SEQ_111)
        expected = play_round(
            policies, spec, random.Random(7), group=2, round_number=5, triad=3,
            subjects=(4, 13, 22),
        )
        records = play_round(
            policies, spec, random.Random(7), group=np.int64(2), round_number=np.int64(5),
            triad=np.uint8(3), subjects=(np.uint8(4), np.int64(13), 22),
        )
        assert records == expected
        assert all(type(cell) is int for r in records for cell in r[:4])

    @pytest.mark.parametrize("integer_rounding", [False, True], ids=["floats", "rounded"])
    @pytest.mark.parametrize("stages", [(2,), (1, 3), (2, 1, 3), (1, 1, 1, 1)], ids=str)
    def test_flat_walk_matches_the_nested_loop(self, stages, integer_rounding):
        # sequences run_session never plays, with responders that see m1 and
        # m2 and draw noise: on equal streams play_round returns the records
        # of the nested loop it replaced, and leaves the stream where it does
        seq = MoveSequence(stages)
        spec = ContestSpec(seq, joy_of_winning=30.0)
        responders = {
            2: ResponseModel(40.0, m1_coef=0.4, m1_sq_coef=-0.001, noise_sd=12.0),
            3: ResponseModel(30.0, m1_coef=0.2, m2_coef=0.3, m2_sq_coef=-0.0005, noise_sd=7.0),
            4: ResponseModel(20.0, m1_coef=0.1, m2_coef=0.1, noise_sd=3.0),
        }
        policies = [
            EquilibriumPolicy(use_joy_of_winning=player % 2 == 1) if stage == 1
            else EmpiricalResponder(responders[stage])
            for player, stage in enumerate(map(seq.stage_of_player, range(seq.n_players)))
        ]
        subjects = [10 * player + 7 for player in range(seq.n_players)]
        flat, nested = np.random.default_rng(8), np.random.default_rng(8)
        for triad in range(1, 41):
            kwargs = dict(integer_rounding=integer_rounding, group=2, round_number=5,
                          triad=triad, subjects=subjects)
            records = play_round(policies, spec, flat, **kwargs)
            assert records == oracles.play_round_nested(policies, spec, nested, **kwargs)
            assert all(type(r) is RoundRecord for r in records)
        assert flat.random() == nested.random()

    def test_payoffs_consistent(self):
        spec = ContestSpec(SEQ_21)
        records = play_round(
            (EquilibriumPolicy(),) * 3, spec, np.random.default_rng(5)
        )
        for r in records:
            base = 240.0 - r.investment
            assert r.payoff == pytest.approx(base + (240.0 if r.won else 0.0))


class TestRunSession:
    def test_record_count_nine_groups(self):
        log = run_session(spne_config((3,), groups=9))
        assert len(log.records) == 2025

    def test_record_count_ten_groups(self):
        log = run_session(spne_config((1, 2), groups=10))
        assert len(log.records) == 2250

    def test_single_group_single_round(self):
        log = run_session(spne_config((1, 2), groups=1, rounds=1))
        assert len(log.records) == 9
        assert sum(r.won for r in log.records) == 3

    def test_one_winner_per_triad(self):
        log = run_session(spne_config((2, 1), groups=3, rounds=10))
        for rs in triads_of(log.records).values():
            assert len(rs) == 3
            assert sum(r.won for r in rs) == 1

    def test_payoff_conservation_exact(self):
        log = run_session(spne_config((1, 1, 1), groups=3, rounds=10))
        for rs in triads_of(log.records).values():
            assert sum(r.payoff for r in rs) == pytest.approx(
                3 * 240 + 240 - sum(r.investment for r in rs), abs=1e-9
            )

    def test_roles_fixed_across_rounds(self):
        log = run_session(spne_config((1, 2), groups=2, rounds=8))
        role_of = {}
        for r in log.records:
            key = r.subject
            role = (r.stage, r.slot)
            assert role_of.setdefault(key, role) == role

    def test_triads_are_role_complete_and_rematched(self):
        log = run_session(spne_config((1, 1, 1), groups=1, rounds=25, seed=9))
        partners = set()
        for key, rs in triads_of(log.records).items():
            assert sorted(r.stage for r in rs) == [1, 2, 3]
            partners.add(tuple(sorted(r.subject for r in rs)))
        # 25 rounds of random rematching must produce several distinct triads
        assert len(partners) > 5

    def test_matching_uniformity(self):
        # subject 1 (role 1) should meet each role-2 subject about equally often
        log = run_session(spne_config((1, 1, 1), groups=1, rounds=3000, seed=11))
        meets = defaultdict(int)
        for rs in triads_of(log.records).values():
            ids = sorted((r.stage, r.subject) for r in rs)
            if ids[0][1] == 1:
                meets[ids[1][1]] += 1
        counts = np.array([meets[s] for s in (4, 5, 6)])
        assert counts.sum() == 3000
        # 3 sigma band around 1000 for a fair three-way split
        assert np.all(np.abs(counts - 1000) < 3 * np.sqrt(3000 * (1 / 3) * (2 / 3)))

    def test_revelation_correctness(self):
        log = run_session(spne_config((1, 1, 1), groups=2, rounds=5))
        for rs in triads_of(log.records).values():
            by_stage = {r.stage: r for r in rs}
            assert by_stage[2].m1 == pytest.approx(by_stage[1].investment)
            assert by_stage[3].m1 == pytest.approx(by_stage[1].investment)
            assert by_stage[3].m2 == pytest.approx(by_stage[2].investment)

    def test_two_leader_average_in_m1(self):
        log = run_session(spne_config((2, 1), groups=2, rounds=5))
        for rs in triads_of(log.records).values():
            leaders = [r.investment for r in rs if r.stage == 1]
            follower = next(r for r in rs if r.stage == 2)
            assert follower.m1 == pytest.approx(np.mean(leaders))

    def test_determinism(self):
        a = run_session(spne_config((1, 2), groups=2, rounds=5, seed=77))
        b = run_session(spne_config((1, 2), groups=2, rounds=5, seed=77))
        assert a.records == b.records
        c = run_session(spne_config((1, 2), groups=2, rounds=5, seed=78))
        assert a.records != c.records

    def test_integer_rounding_round_half_even(self):
        def played(stages, *policies):
            config = SessionConfig(
                spec=ContestSpec(MoveSequence(stages)), policies=policies, groups=1,
                rounds=1, integer_rounding=True, seed=1,
            )
            return run_session(config).records

        records = played(
            (1, 2),
            EquilibriumPolicy(),
            EmpiricalResponder(ResponseModel(45.5)),
            EmpiricalResponder(ResponseModel(44.5)),
        )
        # 45.5 rounds up and 44.5 down, to even
        assert [r.investment for r in records if r.stage == 2] == [46.0, 44.0] * 3
        # the (1,1,1) leader's 86.188 is rounded before the follower sees it
        records = played(
            (1, 1, 1),
            EquilibriumPolicy(),
            EmpiricalResponder(ResponseModel(0.4, m1_coef=1.0)),
            EmpiricalResponder(ResponseModel(0.0)),
        )
        assert {r.investment for r in records if r.stage == 1} == {86.0}
        imitators = [r for r in records if r.stage == 2]
        assert {(r.m1, r.investment) for r in imitators} == {(86.0, 86.0)}  # not round(86.588)

    def test_integer_rounding_keeps_integers(self):
        config = spne_config((1, 1, 1), groups=1, rounds=3, integer_rounding=True)
        log = run_session(config)
        assert all(float(r.investment).is_integer() for r in log.records)

    def test_wrong_player_count_rejected(self):
        spec = ContestSpec(MoveSequence((1, 1)))
        with pytest.raises(BadGroupComposition):
            SessionConfig(spec=spec, policies=(EquilibriumPolicy(),) * 3, groups=1)
        config = SessionConfig(
            spec=spec, policies=(EquilibriumPolicy(),) * 2, groups=1
        )
        with pytest.raises(BadGroupComposition):
            run_session(config)

    @pytest.mark.parametrize("groups, rounds", [(0, 1), (1, 0)], ids=["groups-0", "rounds-0"])
    def test_groups_and_rounds_at_least_one(self, groups, rounds):
        with pytest.raises(BadGroupComposition, match="at least 1"):
            spne_config((3,), groups=groups, rounds=rounds)


_NOISY = {"kind": "responder", "noise_sd": 25.0}
_LEADER = {"kind": "optimizing-leader", "joy_of_winning": 119.73}
_SPNE = {"kind": "spne"}
# a stage-3 follower playing the mean of the two investments it observes
_MEAN_OF_TWO = {"intercept": 0, "m1_coef": 0.5, "m2_coef": 0.5}
# name: (treatment, policies, extra session keys); 2 groups x 3 rounds, seed 11
GOLDEN_SESSIONS = {
    "spne-3": ([3], [_SPNE] * 3, {}),
    "spne-1-2": ([1, 2], [_SPNE] * 3, {}),
    "spne-2-1": ([2, 1], [_SPNE] * 3, {}),
    "spne-1-1-1": ([1, 1, 1], [_SPNE] * 3, {}),
    "jow-spne-1-2": ([1, 2], [{"kind": "jow-spne"}] * 3, {"joy_of_winning": 119.73}),
    "linear-responder-1-1-1": (
        [1, 1, 1], [_SPNE, _NOISY, {"kind": "responder", "model": _MEAN_OF_TWO}], {}
    ),
    "leader-rounded-1-2": ([1, 2], [_LEADER, _NOISY, _NOISY], {"integer_rounding": True}),
    "leader-rounded-1-1-1": ([1, 1, 1], [_LEADER, _NOISY, _NOISY], {"integer_rounding": True}),
    "leaders-rounded-2-1": ([2, 1], [_LEADER, _LEADER, _NOISY], {"integer_rounding": True}),
    "leader-noisy-1-2": ([1, 2], [_LEADER, _NOISY, _NOISY], {}),
}
# sha256 of each session's JSON log; they pin the random stream layout
# documented in the simulate module (one stream per group; per round one
# shuffle of three per role; per triad one normal per noisy responder in
# player order, then one uniform for the winner) and the float arithmetic
GOLDEN_DIGESTS = {
    "spne-3": "c83c265b0aed1a9f7ebcc15dbce4945a00d9b42fc75c61ea0458e4a9880d281f",
    "spne-1-2": "b10ee7e5673d3d073f66c7b7925f3ebb4a0c5c71c8e6228122b995e4d89c8485",
    "spne-2-1": "88cd65c5784701cf13d0ee28e3aef8bef43a0f8e9fc748d03b5a9b8a6aa290ea",
    "spne-1-1-1": "3843b03cc0f269ddfae45e3a8340f5a5060c72bed0bd00e84d2320a6c9299400",
    "jow-spne-1-2": "74206feb1a94514bfba01fc5f80ff0d82858e079574fea828698cd69166ab3a2",
    "linear-responder-1-1-1": "efbede7698de2e2682b47fcfafdf74733b28b44ef27d41c25b5ed02693066ef3",
    "leader-rounded-1-2": "42c323fe8cd104bdfeea4888e777971124b3988989360f4686b20aadb0e21bbf",
    "leader-rounded-1-1-1": "3b99b0184123aae86f4af9c29bd055e5b80dc34d37de13f7766a055c88277f20",
    "leaders-rounded-2-1": "480f49a81190bb0abfce8be13015359fb2cbc3acd22a10dc537bfabc73f75431",
    "leader-noisy-1-2": "3a4358f2a7e3c12b5c588375047689e03b2b3d083d9d4703faf49f4f1bdd02c1",
}

# sha256 of the investment column of each session of GOLDEN_SESSIONS without
# noise, its floats spelt by float.__repr__ and joined by commas, recorded
# under layout 1 (numpy's Philox streams): these policies invest the same
# whatever the matching and the winners, so layout 2 leaves them as they were
NOISELESS_INVESTMENT_DIGESTS = {
    "spne-3": "bc3787998409aa7fe16f3989c4abaf95b76fdc33c60cd7a3faf316447b7da60f",
    "spne-1-2": "8d3aace0c905306c4397bc7d48f6d0fb12ab37b11c24ff08903189d56143656b",
    "spne-2-1": "f8c1f03df67676c64cbf6534e30ceec2a1a0d27ecbf0dbd4eded705e3ee846cf",
    "spne-1-1-1": "63e3c3fdc15800f0079bb8983e83be77ff5d54eeca38af4ea772bfca54f9d013",
    "jow-spne-1-2": "83c81e8b370da7db8b289db10aa553cff0129aab6f66b38d7c103202581f9b4b",
}


class TestGoldenStream:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SESSIONS))
    def test_log_digest(self, name, tmp_path):
        treatment, policies, extra = GOLDEN_SESSIONS[name]
        entry = {
            "treatment": treatment, "groups": 2, "rounds": 3, "seed": 11,
            "policies": policies, **extra,
        }
        path = tmp_path / f"{name}.json"
        export_log(run_session(session_config_from_dict(entry)), "json", path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(NOISELESS_INVESTMENT_DIGESTS))
    def test_noiseless_investments_are_layout_ones(self, name):
        column = ",".join(float.__repr__(r.investment) for r in golden_log(name).records)
        assert hashlib.sha256(column.encode()).hexdigest() == NOISELESS_INVESTMENT_DIGESTS[name]

    def test_play_round_is_one_triad_of_the_session(self):
        # play_round on a group's stream, after that round's Fisher-Yates
        # shuffles (written out here as the module docstring gives them),
        # plays the first triad of the session exactly
        treatment, policies, extra = GOLDEN_SESSIONS["leader-rounded-1-1-1"]
        config = session_config_from_dict(
            {"treatment": treatment, "groups": 1, "rounds": 1, "seed": 11,
             "policies": policies, **extra}
        )
        log = run_session(config)
        rng = _group_rng(11, 0)
        orders = [[0, 1, 2] for _ in range(3)]
        for order in orders:
            for i in (2, 1):
                j = int(rng.random() * (i + 1))
                order[i], order[j] = order[j], order[i]
        subjects = [1 + 3 * role + orders[role][0] for role in range(3)]
        records = play_round(
            config.policies, config.spec, rng,
            integer_rounding=True, subjects=subjects,
        )
        assert records == log.records[:3]

    def test_session_resolves_each_policy_once(self, monkeypatch):
        from seqcontest import behavior

        calls = []
        resolve = behavior._policy_rule

        def counting(policy, spec, stage):
            calls.append((policy, stage))
            return resolve(policy, spec, stage)

        monkeypatch.setattr(behavior, "_policy_rule", counting)
        treatment, policies, extra = GOLDEN_SESSIONS["leader-rounded-1-1-1"]
        config = session_config_from_dict(
            {"treatment": treatment, "groups": 2, "rounds": 3, "seed": 11,
             "policies": policies, **extra}
        )
        log = run_session(config)
        assert len(log.records) == 54
        assert calls == [(policy, stage) for stage, policy in enumerate(config.policies, 1)]


class TestTracedCallStructure:
    """Per triad-round, ``run_session`` makes each public call the benchmark's
    tracer wraps, at the module names the callers look up (``simulate``'s
    ``play_round``, ``act``, ``draw_winner`` and ``round_payoffs``, ``core``'s
    ``win_probabilities``), once per triad or player, and checks the triad's
    investments once. The per-layer figures are read from these calls."""

    @pytest.mark.parametrize(
        "name", ["spne-1-2", "leader-noisy-1-2", "leader-rounded-1-1-1", "leaders-rounded-2-1"]
    )
    def test_calls_per_triad_round(self, name, monkeypatch):
        expected = golden_log(name)
        calls = Counter()

        def counted(module, attr, counts=lambda args, result: True):
            original = getattr(module, attr)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                calls[attr] += counts(args, result)
                return result

            monkeypatch.setattr(module, attr, wrapper)

        for attr in ("play_round", "act", "draw_winner", "round_payoffs"):
            counted(simulate, attr)
        counted(core, "win_probabilities")
        # a check builds a new checked tuple; checked investments pass through as they are
        check = core._as_investments
        for module in (core, simulate):
            if getattr(module, "_as_investments", None) is check:
                counted(module, "_as_investments", lambda args, result: result is not args[0])

        log = golden_log(name)
        triad_rounds = len(log.records) // 3
        assert triad_rounds == 2 * 3 * 3
        assert calls == {
            "play_round": triad_rounds, "act": 3 * triad_rounds, "draw_winner": triad_rounds,
            "win_probabilities": triad_rounds, "round_payoffs": triad_rounds,
            "_as_investments": triad_rounds,
        }
        assert log == expected


def golden_log(name, **changes):
    """The session ``name`` of ``GOLDEN_SESSIONS``, its entry updated by ``changes``."""
    treatment, policies, extra = GOLDEN_SESSIONS[name]
    return run_session(session_config_from_dict({
        "treatment": treatment, "groups": 2, "rounds": 3, "seed": 11,
        "policies": policies, **extra, **changes,
    }))


# each column run_session lays out, with its array typecode
LAYOUT_COLUMNS = {"group": "q", "round": "q", "triad": "q", "stage": "q", "investment": "d"}


class TestSessionLayout:
    """A log from ``run_session`` or ``load_log`` has its column store seeded
    with the group, round, triad, stage and investment columns; any other log
    reads them from its records."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_SESSIONS))
    def test_layout_is_the_record_walk(self, name):
        # 2 groups, 4 rounds and 3 triads, so no two of them line up
        log = golden_log(name, rounds=4)
        layout = dict(log_module._columns(log))
        assert sorted(layout) == sorted(LAYOUT_COLUMNS)
        for column, typecode in LAYOUT_COLUMNS.items():
            assert layout[column].typecode == typecode
            assert layout[column].tolist() == [getattr(r, column) for r in log.records]
        # as stats reads them: the arrays and dtypes of the record walk, bit for bit
        laid_out, walked = log_module._columns(log), log_module._columns(log.records)
        for column in LAYOUT_COLUMNS:
            got, want = stats._array(laid_out, column), stats._array(walked, column)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_which_logs_are_seeded(self, tmp_path, monkeypatch):
        log = golden_log("leader-noisy-1-2")
        for fmt in ("json", "csv"):
            export_log(log, fmt, tmp_path / f"log.{fmt}")
        seeded = [log, load_log(tmp_path / "log.json"), load_log(tmp_path / "log.csv")]
        # a log cut by last_rounds is a replace: stats seeds no store
        others = [
            replace(log),
            replace(log, records=list(log.records)),
            SessionLog(log.spec, log.groups, log.rounds, log.integer_rounding, log.seed,
                       list(log.records)),
            stats.last_rounds(log, 2),
        ]
        transposed = []
        transpose = log_module._transpose
        monkeypatch.setattr(
            log_module, "_transpose", lambda rows: transposed.append(rows) or transpose(rows)
        )
        for each in seeded:
            columns = log_module._columns(each)
            assert sorted(columns) == sorted(LAYOUT_COLUMNS)
            for name in LAYOUT_COLUMNS:
                assert list(columns[name]) == [getattr(r, name) for r in each.records]
        # the seeded logs read no field from their records; the others read them once
        assert transposed == []
        for each in others:
            assert each._store is None
            assert log_module._columns(each) is log_module._columns(each)
            assert transposed.pop() is each.records and transposed == []
        assert seeded[1] == log and seeded[2] == log and others[0] == log


class Fixed:
    """A stream whose every ``random()`` returns ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestLayoutTwoDraws:
    """The draws of rng_layout 2 (simulate's module docstring), each from
    uniforms of one group's ``random.Random``. Every bound is fixed in
    advance; the streams are those of session seed 0, group 0."""

    N = 100_000
    # the two-sided Kolmogorov-Smirnov critical value at the 0.1% level,
    # sqrt(-ln(0.0005) / 2) / sqrt(N), about 0.00617
    KS_CRITICAL = 1.9495 / math.sqrt(N)

    def test_uniforms_and_normals_pass_kolmogorov_smirnov(self):
        rng = _group_rng(0, 0)
        uniforms = [rng.random() for _ in range(self.N)]
        normals = [behavior._standard_normal(rng) for _ in range(self.N)]
        assert sps.kstest(uniforms, "uniform").statistic < self.KS_CRITICAL
        assert sps.kstest(normals, "norm").statistic < self.KS_CRITICAL

    @pytest.mark.parametrize(
        "u, normal",
        [
            (0.5, 0.0),
            (0.8, 0.8416212335729144),  # the central rational function
            (0.975, 1.9599639845400536),  # the near tail
            (2**-53, -8.209536151601386),  # random()'s least positive value
            (1 - 2**-53, 8.209536151601386),  # and its largest
            (0.0, -8.292361075813595),  # read as 2**-54
        ],
        ids=["centre", "central", "near-tail", "least", "largest", "zero"],
    )
    def test_normal_transform(self, u, normal):
        assert behavior._standard_normal(Fixed(u)) == normal

    def test_fisher_yates_at_the_largest_uniform_keeps_j_at_i(self):
        # u = 1 - 2**-53 gives j = int(u * (i + 1)) = i: every entry stays,
        # and no index runs past the end
        order = [0, 1, 2]
        simulate._shuffle(order, Fixed(1 - 2**-53).random)
        assert order == [0, 1, 2]
        # u = 0 swaps each entry with the first: i = 2 with 0, then i = 1 with 0
        simulate._shuffle(order, Fixed(0.0).random)
        assert order == [1, 2, 0]

    def test_the_six_orders_come_out_equally_often(self):
        # 60,000 shuffles of three: the chi-square of the six counts (5
        # degrees of freedom) stays below 20.515, its 0.1% critical value
        rng = _group_rng(0, 0)
        counts = Counter()
        for _ in range(60_000):
            order = [0, 1, 2]
            simulate._shuffle(order, rng.random)
            counts[tuple(order)] += 1
        assert len(counts) == 6
        assert sum((count - 10_000) ** 2 / 10_000 for count in counts.values()) < 20.515

    def test_seeds_are_the_documented_hashes(self):
        def hashed(text):
            return hashlib.sha256(text.encode()).digest()

        for seed in (0, 11, 2**200):
            for group in (0, 1, 17):
                key = int.from_bytes(hashed(f"group {seed:x} {group:x}"), "big")
                assert _group_rng(seed, group).getstate() == random.Random(key).getstate()
            for rep in (0, 1, 17):
                derived = int.from_bytes(hashed(f"replication {seed:x} {rep:x}")[:8], "big")
                assert simulate._derived_seed(seed, rep) == derived

    def test_each_group_and_replication_draws_its_own_stream(self):
        keys = [(seed, index) for seed in range(3) for index in range(3)]
        assert len({_group_rng(*key).random() for key in keys}) == len(keys)
        derived = {simulate._derived_seed(*key) for key in keys}
        assert len(derived) == len(keys) and all(0 <= seed < 2**64 for seed in derived)


class TestRngLayout:
    """A log's meta names its draw order: 2 for a log from run_session, its
    meta's for a log read back, and 1 where a meta names none."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_round_trip_keeps_the_layout(self, tmp_path, fmt):
        log = golden_log("spne-1-2")
        assert log.rng_layout == 2
        export_log(log, fmt, tmp_path / f"log.{fmt}")
        back = load_log(tmp_path / f"log.{fmt}")
        assert back == log and back.rng_layout == 2

    @pytest.mark.parametrize("layout", [1, None], ids=["one", "unnamed"])
    def test_layout_one_logs_read_back_as_they_are(self, tmp_path, layout):
        # every log written before layout 2 has no rng_layout in its meta
        export_log(golden_log("spne-1-2"), "json", tmp_path / "log.json")
        payload = json.loads((tmp_path / "log.json").read_text())
        if layout is None:
            del payload["meta"]["rng_layout"]
        else:
            payload["meta"]["rng_layout"] = layout
        (tmp_path / "old.json").write_text(json.dumps(payload))
        old = load_log(tmp_path / "old.json")
        assert old.rng_layout == 1 and old.records == golden_log("spne-1-2").records
        # and it is written back as layout 1
        export_log(old, "json", tmp_path / "again.json")
        assert json.loads((tmp_path / "again.json").read_text())["meta"]["rng_layout"] == 1

    def test_writer_refuses_another_layout(self, tmp_path):
        log = replace(golden_log("spne-1-2"), rng_layout=3)
        with pytest.raises(ContestError, match=re.escape("rng_layout must be 1 or 2, got 3")):
            export_log(log, "json", tmp_path / "log.json")
        assert not any(tmp_path.iterdir())


class TestRunBatch:
    def test_replications_have_distinct_streams(self):
        logs = run_batch([spne_config((3,), groups=1, rounds=2, seed=5)], 3)
        assert len(logs) == 3
        winners = [tuple(r.won for r in log.records) for log in logs]
        assert len(set(winners)) > 1

    def test_same_master_seed_reproduces(self):
        a = run_batch([spne_config((3,), groups=1, rounds=2, seed=5)], 2)
        b = run_batch([spne_config((3,), groups=1, rounds=2, seed=5)], 2)
        assert [log.records for log in a] == [log.records for log in b]

    def test_zero_replications_rejected(self):
        with pytest.raises(ContestError, match="replications must be at least 1"):
            run_batch([spne_config((3,), groups=1, rounds=1)], 0)

    def test_deterministic_policies_hit_solver_means(self):
        logs = run_batch([spne_config((2, 1), groups=1, rounds=1, seed=3)], 5)
        for log in logs:
            assert [r.investment for r in log.records[:3]] == pytest.approx(
                solve_spne(log.spec).per_player_investments()
            )


class TestExportImport:
    def test_csv_shape(self, tmp_path):
        log = run_session(spne_config((1, 2), groups=1, rounds=1))
        path = tmp_path / "log.csv"
        export_log(log, "csv", path)
        export_log(log, "json", tmp_path / "log.json")
        lines = path.read_text().strip().split("\n")
        prefix = "# seqcontest-log "
        assert lines[0].startswith(prefix)
        json_meta = json.loads((tmp_path / "log.json").read_text())["meta"]
        assert json.loads(lines[0][len(prefix):]) == json_meta
        assert lines[1] == "group,round,triad,subject,stage,slot,m1,m2,investment,won,payoff"
        assert len(lines) == 11  # meta line + header + 9 records

    def test_csv_empty_cells_convention(self, tmp_path):
        log = run_session(spne_config((1, 1, 1), groups=1, rounds=1))
        path = tmp_path / "log.csv"
        export_log(log, "csv", path)
        rows = [line.split(",") for line in path.read_text().strip().split("\n")[2:]]
        assert len(rows) == 9
        for row in rows:
            stage = int(row[4])
            assert (row[6] == "") == (stage == 1)
            assert (row[7] == "") == (stage != 3)

    def test_json_round_trip(self, tmp_path):
        log = run_session(spne_config((2, 1), groups=2, rounds=3, seed=13))
        path = tmp_path / "log.json"
        export_log(log, "json", path)
        back = load_log(path)
        assert back.records == log.records
        assert back.spec == log.spec
        assert back.seed == log.seed

    def test_json_integers_in_float_columns_load_as_floats(self, tmp_path):
        # whole-point play makes every m1, m2, investment and payoff whole; a
        # log spelling them as JSON integers reads back as the same floats
        config = spne_config((1, 1, 1), groups=2, rounds=3, seed=5, integer_rounding=True)
        log = run_session(config)
        path = tmp_path / "log.json"
        export_log(log, "json", path)
        text = path.read_text()
        path.write_text(re.sub(r'("(?:m1|m2|investment|payoff)": -?[0-9]+)\.0\b', r"\1", text))
        assert re.search(r'"investment": [0-9]+,', path.read_text())
        back = load_log(path)
        for column in ("m1", "m2", "investment", "payoff"):
            assert {type(getattr(r, column)) for r in back.records} == {float} | (
                {type(None)} if column in ("m1", "m2") else set()
            )
        assert back == log
        export_log(back, "json", tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == text

    def test_csv_round_trip_preserves_data(self, tmp_path):
        log = run_session(spne_config((1, 1, 1), groups=1, rounds=2, seed=13))
        path = tmp_path / "log.csv"
        export_log(log, "csv", path)
        back = load_log(path)
        assert back.records == log.records
        assert back.sequence == log.sequence

    def test_csv_keeps_session_parameters(self, tmp_path):
        spec = ContestSpec(SEQ_12, prize=100.0, endowment=120.0, joy_of_winning=7.5)
        log = run_session(
            SessionConfig(
                spec=spec, policies=(EquilibriumPolicy(),) * 3, groups=2,
                rounds=3, integer_rounding=True, seed=21,
            )
        )
        export_log(log, "csv", tmp_path / "log.csv")
        export_log(log, "json", tmp_path / "log.json")
        from_csv = load_log(tmp_path / "log.csv")
        assert from_csv == log
        assert from_csv == load_log(tmp_path / "log.json")

    def test_csv_without_meta_line_rejected(self, tmp_path):
        log = run_session(spne_config((1, 2), groups=1, rounds=1))
        path = tmp_path / "log.csv"
        export_log(log, "csv", path)
        path.write_text(path.read_text().split("\n", 1)[1])
        with pytest.raises(ContestError, match="meta line"):
            load_log(path)

    def test_csv_with_other_columns_rejected(self, tmp_path):
        log = run_session(spne_config((1, 2), groups=1, rounds=1))
        path = tmp_path / "log.csv"
        export_log(log, "csv", path)
        path.write_text(path.read_text().replace(",m1,m2,", ",m2,m1,", 1))
        with pytest.raises(ContestError, match="unexpected CSV columns"):
            load_log(path)

    def test_csv_reads_every_number_spelling_back(self, tmp_path):
        # CSV cells are read by JSON's number grammar: every spelling
        # float.__repr__ and int.__repr__ give reads back as the same value
        log = run_session(spne_config((1, 1, 1), groups=1, rounds=1))
        values = [1e-07, 1e16, -0.0, 5e-324, 1.7976931348623157e308, 123.456]
        log.records[:] = [
            replace(r, group=-3 - i, round=2**70, m1=v if r.m1 is not None else None,
                    investment=v, payoff=-v)
            for i, (r, v) in enumerate(zip(log.records, values))
        ]
        export_log(log, "csv", tmp_path / "log.csv")

        def cells(records):  # repr tells 1 from 1.0 and 0.0 from -0.0
            return [repr([getattr(r, c) for c in CSV_COLUMNS]) for r in records]

        assert cells(load_log(tmp_path / "log.csv").records) == cells(log.records)

    def test_manifest_is_not_a_log(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"schema": 1, "command": "simulate", "outputs": []}))
        with pytest.raises(NotASessionLog):
            load_log(path)

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        log = run_session(spne_config((3,), groups=1, rounds=1))
        target = tmp_path / "taken"
        target.mkdir()
        for fmt in ("csv", "json"):
            with pytest.raises(OSError):
                export_log(log, fmt, target)
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_written_file_mode_follows_umask(self, tmp_path):
        log = run_session(spne_config((3,), groups=1, rounds=1))
        export_log(log, "json", tmp_path / "log.json")
        (tmp_path / "plain.txt").write_text("")
        mode = (tmp_path / "log.json").stat().st_mode
        assert mode == (tmp_path / "plain.txt").stat().st_mode

    def test_byte_identical_reruns(self, tmp_path):
        for name in ("a", "b"):
            log = run_session(spne_config((1, 2), groups=2, rounds=4, seed=99))
            export_log(log, "csv", tmp_path / f"{name}.csv")
            export_log(log, "json", tmp_path / f"{name}.json")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_bad_format_rejected(self, tmp_path):
        log = run_session(spne_config((3,), groups=1, rounds=1))
        with pytest.raises(ContestError):
            export_log(log, "parquet", tmp_path / "x.parquet")

    @pytest.mark.parametrize("column", ["m1", "m2", "investment", "payoff"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_cell_refused_before_writing(self, tmp_path, column, fmt):
        # the writer refuses what load_log refuses: NaN payoffs used to be
        # written as NaN (JSON) or nan (CSV)
        log = run_session(spne_config((1, 1, 1), groups=1, rounds=1))
        log.records[-1] = replace(log.records[-1], **{column: float("nan")})
        with pytest.raises(ContestError, match=column):
            export_log(log, fmt, tmp_path / f"log.{fmt}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "column, value",
        [("investment", 90), ("group", np.int64(1)), ("subject", True), ("m1", 5),
         ("won", 1), ("payoff", "240.0")],
        ids=["int-investment", "numpy-int-group", "bool-subject", "int-m1", "int-won",
             "string-payoff"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cell_of_another_type_refused_before_writing(self, tmp_path, column, value, fmt):
        # a cell the reader would refuse, or read back as another type, is
        # named with its column instead of failing in a cell's spelling
        log = run_session(spne_config((1, 1, 1), groups=1, rounds=1))
        log.records[-1] = replace(log.records[-1], **{column: value})
        with pytest.raises(ContestError, match=f"^{column} cells must be of type "):
            export_log(log, fmt, tmp_path / f"log.{fmt}")
        assert list(tmp_path.iterdir()) == []

    def test_numpy_float_cells_are_written_as_floats(self, tmp_path):
        log = run_session(spne_config((1, 1, 1), groups=1, rounds=1))
        log.records[:] = [
            replace(r, investment=np.float64(r.investment), payoff=np.float64(r.payoff))
            for r in log.records
        ]
        for fmt in ("csv", "json"):
            export_log(log, fmt, tmp_path / f"log.{fmt}")
            assert load_log(tmp_path / f"log.{fmt}") == log

    def test_empty_log_is_json_dumps(self, tmp_path):
        log = run_session(spne_config((1, 2), groups=1, rounds=1))
        log.records.clear()
        export_log(log, "json", tmp_path / "log.json")
        meta = json.loads((tmp_path / "log.json").read_text())["meta"]
        expected = json.dumps({"meta": meta, "records": []}, indent=1) + "\n"
        assert (tmp_path / "log.json").read_text() == expected
        assert load_log(tmp_path / "log.json") == log


class TestRoundRecord:
    CELLS = (2, 5, 1, 13, 3, 1, 88.5, 44.25, 40.0, True, 200.0)

    def test_positional_and_keyword_construction_agree(self):
        record = RoundRecord(*self.CELLS)
        assert record == RoundRecord(**dict(zip(CSV_COLUMNS, self.CELLS)))
        assert [getattr(record, c) for c in CSV_COLUMNS] == list(self.CELLS)
        assert repr(record).startswith("RoundRecord(group=2, round=5, triad=1,")

    def test_frozen(self):
        record = RoundRecord(*self.CELLS)
        with pytest.raises(FrozenInstanceError):
            record.investment = 1.0
        with pytest.raises(FrozenInstanceError):
            del record.payoff
        assert not hasattr(record, "__dict__")

    def test_replace_eq_and_hash(self):
        record = RoundRecord(*self.CELLS)
        moved = replace(record, investment=41.0)
        assert moved.investment == 41.0 and record.investment == 40.0
        assert moved != record
        assert replace(moved, investment=40.0) == record
        assert hash(replace(moved, investment=40.0)) == hash(record)
        assert hash(record) == hash(self.CELLS)
        assert len({record, RoundRecord(*self.CELLS), moved}) == 2

    def test_a_record_is_the_tuple_of_its_cells(self):
        record = RoundRecord(*self.CELLS)
        assert record == self.CELLS and tuple(record) == self.CELLS
        assert record[8] == record.investment == 40.0

    def test_pickle_and_deepcopy_round_trips(self):
        record = RoundRecord(*self.CELLS)
        copies = [copy.deepcopy(record), copy.copy(record)]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copies.append(pickle.loads(pickle.dumps(record, protocol)))
        for other in copies:
            assert type(other) is RoundRecord and other == record
            assert repr(other) == repr(record)

    def test_dataclass_helpers(self):
        record = RoundRecord(*self.CELLS)
        assert [f.name for f in fields(RoundRecord)] == list(CSV_COLUMNS)
        assert asdict(record) == dict(zip(CSV_COLUMNS, self.CELLS))
        assert astuple(record) == self.CELLS
        assert type(replace(record, won=False)) is RoundRecord

    def test_every_record_is_a_round_record(self, tmp_path):
        log = golden_log("leader-noisy-1-2")
        triad = play_round((EquilibriumPolicy(),) * 3, log.spec, _group_rng(0, 0))
        logs = [log]
        for fmt in ("json", "csv"):
            export_log(log, fmt, tmp_path / f"log.{fmt}")
            logs.append(load_log(tmp_path / f"log.{fmt}"))
        assert logs[1] == logs[2] == log
        for records in (triad, *[other.records for other in logs]):
            assert {type(r) for r in records} == {RoundRecord}


class TestSessionConfigFromDict:
    def test_full_config(self):
        raw = {
            "treatment": [2, 1],
            "prize": 240,
            "endowment": 240,
            "joy_of_winning": 119.73,
            "groups": 9,
            "rounds": 25,
            "seed": 7,
            "policies": [
                {"kind": "optimizing-leader"},
                {"kind": "optimizing-leader"},
                {"kind": "responder"},
            ],
        }
        config = session_config_from_dict(raw)
        assert config.spec.sequence == SEQ_21
        assert isinstance(config.policies[0], OptimizingLeader)
        assert config.policies[0].joy_of_winning == pytest.approx(119.73)
        assert isinstance(config.policies[2], EmpiricalResponder)

    def test_missing_key_rejected(self):
        with pytest.raises(ContestError):
            session_config_from_dict({"treatment": [3]})

    @pytest.mark.parametrize(
        "policies, detail",
        [
            ([{"kind": "responder", "model": {"intercept": 5.0}}, {"kind": "responder"},
              {"kind": "responder"}], "'responder' cannot move at stage 1 of treatment (1,2)"),
            ([{"kind": "spne"}, {"kind": "optimizing-leader"}, {"kind": "responder"}],
             "'optimizing-leader' cannot move at stage 2 of treatment (1,2)"),
        ],
        ids=["responder-at-stage-1", "leader-at-stage-2"],
    )
    def test_role_at_the_wrong_stage_rejected(self, policies, detail, monkeypatch):
        # refused when the config is read, before a leader's optimum is solved
        def unsolved(*args):
            raise AssertionError("solved a leader's optimum")

        monkeypatch.setattr(behavior, "_leader_optimum", unsolved)
        with pytest.raises(ContestError) as caught:
            session_config_from_dict({"treatment": [1, 2], "policies": policies})
        assert str(caught.value) == detail

    def test_responder_inline_model(self):
        # a responder's "model" replaces the bundled one, and play follows it
        inline = {"kind": "responder", "model": {"intercept": 50.0, "m1_coef": 0.25}}
        raw = {"treatment": [1, 2], "rounds": 1, "policies": [{"kind": "spne"}, inline, inline]}
        config = session_config_from_dict(raw)
        model = ResponseModel(intercept=50.0, m1_coef=0.25)
        assert [policy.model for policy in config.policies[1:]] == [model, model]
        records = run_session(config).records
        leader = records[0].investment
        assert [r.investment for r in records[1:3]] == [50.0 + 0.25 * leader] * 2
