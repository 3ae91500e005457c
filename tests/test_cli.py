"""Tests for the command-line interface (driven through main())."""

import ast
import glob
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import seqcontest
from seqcontest import stats
from seqcontest.behavior import EquilibriumPolicy, load_response_models
from seqcontest.cli import _build_parser, main
from seqcontest.core import ContestError, ContestSpec, MoveSequence
from seqcontest.log import CSV_COLUMNS, CSV_META_PREFIX, SessionLog, export_log, load_log
from seqcontest.simulate import SessionConfig, run_batch, run_session


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(path, sessions, replications=1):
    path.write_text(
        json.dumps({"schema": 1, "replications": replications, "sessions": sessions})
    )
    return str(path)


SPNE_POLICIES = [{"kind": "spne"}] * 3


def fresh_python(code: str) -> list[str]:
    """The output lines of ``code`` run in a fresh interpreter that imports
    this package, so that nothing the tests loaded counts."""
    src = os.path.dirname(os.path.dirname(seqcontest.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.splitlines()


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only oracle: a fresh process importing the package and
    # its CLI must not load it
    code = (
        "import seqcontest, seqcontest.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert fresh_python(code) == ["[]"]


def test_solve_leaves_numpy_unloaded():
    # numpy is loaded by analyze and the statistics; importing the package
    # and solving, in every output form, must not load it
    code = (
        "import seqcontest, seqcontest.cli, sys\n"
        "for extra in ([], ['--format', 'json'], ['--calibrate-from', '60']):\n"
        "    assert seqcontest.cli.main(['solve', '--seq', '1,2', *extra]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        "print(seqcontest.stats.wald_mean is seqcontest.wald_mean)\n"
    )
    assert fresh_python(code)[-2:] == ["[]", "True"]


def test_outcome_functions_leave_numpy_unloaded():
    # the outcome functions build tuples of floats in plain Python
    code = (
        "import sys\n"
        "from seqcontest.core import ContestSpec, MoveSequence, draw_winner,"
        " round_payoffs, win_probabilities\n"
        "x = [20.0, 30.0, 50.0]\n"
        "spec = ContestSpec(MoveSequence((3,)))\n"
        "print(win_probabilities(x), draw_winner(x, 0.3), round_payoffs(spec, x, 1))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    assert fresh_python(code) == ["(0.2, 0.3, 0.5) 1 (220.0, 450.0, 190.0)", "[]"]


def test_import_and_solve_load_only_the_solver():
    # behavior, log, simulate and stats (and numpy, which stats loads) resolve on
    # first use, and the solver's value types are not dataclasses, so neither
    # importing the package nor solving loads any of them, dataclasses or inspect
    code = (
        "import sys\n"
        "def loaded():\n"
        "    tops = ('seqcontest', 'numpy', 'dataclasses', 'inspect')\n"
        "    print('loaded', sorted(m for m in sys.modules if m.split('.')[0] in tops))\n"
        "import seqcontest\n"
        "loaded()\n"
        "import seqcontest.cli\n"
        "for extra in ([], ['--format', 'json'], ['--calibrate-from', '60']):\n"
        "    assert seqcontest.cli.main(['solve', '--seq', '1,2', *extra]) == 0\n"
        "    loaded()\n"
        "print(seqcontest.act.__module__, seqcontest.load_log.__module__,"
        " seqcontest.simulate.__name__)\n"
    )
    lines = fresh_python(code)
    solver = ["seqcontest", "seqcontest.core", "seqcontest.equilibrium"]
    with_cli = sorted([*solver, "seqcontest.cli"])
    assert [line for line in lines if line.startswith("loaded ")] == [
        f"loaded {solver!r}", *[f"loaded {with_cli!r}"] * 3
    ]
    assert lines[-1] == "seqcontest.behavior seqcontest.log seqcontest.simulate"


# what the session engine loads and neither reading nor writing a file needs
ENGINE = ["decimal", "fractions", "hashlib", "seqcontest.behavior", "seqcontest.simulate",
          "statistics"]


def added_modules(argv) -> list[str]:
    """The modules of ``ENGINE``, numpy's and ``seqcontest.stats`` that
    ``main(argv)`` adds to a fresh interpreter. It counts from a snapshot taken
    first, because a site ``.pth`` file can load modules (``tempfile``, and so
    ``random``) before any code runs."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import seqcontest.cli\n"
        f"assert seqcontest.cli.main({argv!r}) == 0\n"
        f"watched = {ENGINE!r} + ['seqcontest.stats']\n"
        "print(sorted(m for m in set(sys.modules) - before"
        " if m in watched or m.split('.')[0] == 'numpy'))\n"
    )
    return ast.literal_eval(fresh_python(code)[-1])


def test_solve_out_leaves_numpy_and_stats_unloaded(tmp_path):
    # solve --out writes through the log module's one writer, which loads
    # neither the session engine, the statistics nor numpy
    out = tmp_path / "solution.txt"
    assert added_modules(["solve", "--seq", "1,2", "--out", str(out)]) == []
    assert out.read_text().startswith("sequence (1,2) ")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_analyze_leaves_the_engine_unloaded(capsys, tmp_path, fmt):
    # reading logs needs the log module and core, not the session engine
    runs = tmp_path / "runs"
    code, _, _ = run_cli(
        capsys, "simulate", "--config", "spne_all_treatments", "--seed", "3",
        "--out", str(runs), "--format", fmt,
    )
    assert code == 0
    logs = sorted(str(p) for p in runs.glob(f"session*.{fmt}"))
    added = added_modules(["analyze", *logs, "--out", str(tmp_path / "analysis")])
    assert "seqcontest.stats" in added and not set(ENGINE) & set(added)


def test_read_back_logs_are_round_records_without_numpy(capsys, tmp_path):
    # load_log builds RoundRecords in plain Python, from JSON and CSV alike,
    # and dataclasses.replace keeps their type
    runs = tmp_path / "runs"
    code, _, _ = run_cli(
        capsys, "simulate", "--config", "empirical_preemption", "--seed", "7",
        "--out", str(runs), "--format", "both",
    )
    assert code == 0
    paths = sorted(str(p) for p in runs.glob("session*"))
    code = (
        "import dataclasses, sys\n"
        "from seqcontest.log import RoundRecord, load_log\n"
        f"for path in {paths!r}:\n"
        "    records = load_log(path).records\n"
        "    moved = dataclasses.replace(records[0], investment=1.0)\n"
        "    print(len(records) > 0 and all(type(r) is RoundRecord for r in records),"
        " type(moved) is RoundRecord, moved.investment)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    assert len(paths) == 6
    assert fresh_python(code) == ["True True 1.0"] * 6 + ["[]"]


def test_simulate_leaves_numpy_unloaded(tmp_path):
    # the simulator draws from the package's own stdlib streams: simulating
    # both presets in both formats, and a batch of replications in process,
    # loads no numpy
    code = (
        "import sys, seqcontest.cli\n"
        "from seqcontest.simulate import run_batch, session_config_from_dict\n"
        "for preset in ('spne_all_treatments', 'empirical_preemption'):\n"
        "    out = " + repr(str(tmp_path)) + " + '/' + preset\n"
        "    argv = ['simulate', '--config', preset, '--out', out, '--format', 'both']\n"
        "    assert seqcontest.cli.main(argv) == 0\n"
        "entry = {'treatment': [1, 2], 'groups': 2, 'rounds': 3, 'policies':"
        " [{'kind': 'optimizing-leader'}, {'kind': 'responder', 'noise_sd': 10.0},"
        " {'kind': 'responder', 'noise_sd': 10.0}]}\n"
        "logs = run_batch([session_config_from_dict(entry)], replications=2)\n"
        "print(len(logs), sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    assert fresh_python(code)[-1] == "2 []"
    assert len(list(tmp_path.glob("*/session*"))) == 2 * (4 + 3)


def test_analyze_leaves_numpy_ma_unloaded(capsys, tmp_path):
    # np.unique without a return_* argument loads numpy.ma, which no
    # statistic of analyze needs
    runs = tmp_path / "runs"
    code, _, _ = run_cli(
        capsys, "simulate", "--config", "empirical_preemption", "--seed", "7",
        "--out", str(runs), "--format", "json",
    )
    assert code == 0
    logs = sorted(str(p) for p in runs.glob("session*.json"))
    argv = ["analyze", *logs, "--out", str(tmp_path / "analysis")]
    code = (
        "import sys, seqcontest.cli\n"
        f"assert seqcontest.cli.main({argv!r}) == 0\n"
        "print('numpy' in sys.modules, 'numpy.ma' in sys.modules)\n"
    )
    assert fresh_python(code)[-1] == "True False"


class TestSolve:
    def test_one_leader_two_followers(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--seq", "1,2", "--prize", "240")
        assert code == 0
        assert "X = 180.00" in out
        assert "stage 1: 90.00" in out
        assert "stage 2: 45.00" in out

    def test_simultaneous_with_zero_jow(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--seq", "3", "--prize", "240", "--jow", "0"
        )
        assert code == 0
        assert "stage 1: 53.33" in out

    def test_calibration_banner(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--seq", "1,1,1", "--prize", "240",
            "--calibrate-from", "79.94",
        )
        assert code == 0
        assert "w = 119.73" in out
        assert "X = 283.7" in out

    def test_json_calibration_banner_goes_to_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "--seq", "1,1,1", "--calibrate-from", "79.94",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["joy_of_winning"] == pytest.approx(119.73, abs=0.005)
        assert "w = 119.73" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--seq", "2,1", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["schema"] == 1
        assert record["aggregate"] == pytest.approx(180.0, abs=1e-6)
        assert record["per_player_investments"] == pytest.approx(
            [67.5, 67.5, 45.0], abs=1e-6
        )

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "solution.json"
        code, _, _ = run_cli(
            capsys, "solve", "--seq", "1,2", "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert json.loads(target.read_text())["sequence"] == [1, 2]
        assert not target.with_suffix(".json.tmp").exists()

    def test_bad_sequence_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--seq", "1,0,2")
        assert code == 2
        assert "error" in err

    def test_sequence_beyond_float_range_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--seq", ",".join(["1"] * 200))
        assert code == 2
        assert not out
        assert err.startswith("error:") and "float range" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_unparseable_sequence_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--seq", "abc")
        assert code == 2

    @pytest.mark.parametrize("seq", ["１, ２", "1, 2", "+1,2", "1,02"])
    def test_sequence_not_in_ascii_digits_exits_2(self, capsys, seq):
        # int() reads each of these as the counts (1, 2)
        code, out, err = run_cli(capsys, "solve", "--seq", seq)
        assert code == 2
        assert not out
        assert repr(seq) in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--prize", "NaN", "--format", "json"], "argument --prize: must be a finite number"),
            (["--calibrate-from", "NaN"], "argument --calibrate-from: must be a finite number"),
            (["--jow", "Infinity"], "argument --jow: must be a finite number"),
            (["--endowment=-Infinity"], "argument --endowment: must be a finite number"),
            (["--prize", "1e400"], "argument --prize: must be a finite number"),
            (["--prize", "1" + "0" * 400], "argument --prize: must be a finite number"),
        ],
        ids=["prize-nan", "calibrate-from-nan", "jow-infinity", "endowment-minus-infinity",
             "prize-float-overflow", "prize-int-overflow"],
    )
    def test_non_finite_input_exits_2(self, capsys, argv, message):
        # json.loads reads each of these (NaN and Infinity are its extensions
        # to JSON), but none is a finite float
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--seq", "1,2", *argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert message in err
        assert not out

    @pytest.mark.parametrize("flag", ["--prize", "--endowment", "--jow", "--calibrate-from", "--alpha"])
    @pytest.mark.parametrize(
        "text", ["\uff12_\uff140", " 240", "1_0", "+5", ".5", "5.", "07", "nan", "inf"]
    )
    def test_number_outside_json_grammar_exits_2(self, capsys, flag, text):
        # float() took all of these: full-width digits, spaces, underscores
        command = ["analyze", "log.json"] if flag == "--alpha" else ["solve", "--seq", "1,2"]
        with pytest.raises(SystemExit) as exc:
            main([*command, f"{flag}={text}"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert f"argument {flag}: must be a finite number in JSON's grammar, got {text!r}" in err
        assert not out

    @pytest.mark.parametrize("flag", ["--prize", "--endowment", "--jow", "--calibrate-from"])
    @pytest.mark.parametrize("text", ["240", "240.0", "2.4e2", "83.45"])
    def test_number_in_json_grammar_accepted(self, flag, text):
        args = _build_parser().parse_args(["solve", "--seq", "1,2", flag, text])
        value = getattr(args, flag[2:].replace("-", "_"))
        assert type(value) is float and value == float(text)

    @pytest.mark.parametrize(
        "argv",
        [["--jow", "50", "--calibrate-from", "79.94"],
         ["--calibrate-from", "79.94", "--jow", "0"]],
        ids=["jow-first", "calibrate-first"],
    )
    def test_jow_with_calibrate_from_exits_2(self, capsys, tmp_path, argv):
        # --calibrate-from used to win silently over --jow
        target = tmp_path / "solution.txt"
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--seq", "1,2", *argv, "--out", str(target)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "not allowed with argument" in err
        assert not out
        assert not target.exists()

    def test_stage_above_endowment_exits_2(self, capsys):
        # at prize 1000 the (1,2) leader's equilibrium investment is 375
        code, out, err = run_cli(
            capsys, "solve", "--seq", "1,2", "--prize", "1000", "--endowment", "240"
        )
        assert code == 2
        assert "stage 1 equilibrium investment 375.00 per player" in err
        assert "exceeds the endowment 240" in err
        assert not out


class TestSimulate:
    def test_bundled_preset_counts(self, capsys, tmp_path):
        out_dir = tmp_path / "runs"
        code, out, _ = run_cli(
            capsys, "simulate", "--config", "spne_all_treatments",
            "--out", str(out_dir), "--format", "json",
        )
        assert code == 0
        logs = sorted(out_dir.glob("session*.json"))
        counts = [len(load_log(p).records) for p in logs]
        assert counts == [2025, 2250, 2025, 2025]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert len(manifest["outputs"]) == 4

    def test_same_seed_same_hashes(self, capsys, tmp_path):
        config = write_config(
            tmp_path / "cfg.json",
            [
                {
                    "treatment": [1, 2],
                    "groups": 2,
                    "rounds": 5,
                    "seed": 11,
                    "policies": SPNE_POLICIES,
                }
            ],
        )
        digests = []
        for name in ("one", "two"):
            out_dir = tmp_path / name
            code, _, _ = run_cli(
                capsys, "simulate", "--config", config, "--out", str(out_dir)
            )
            assert code == 0
            blob = b"".join(
                p.read_bytes() for p in sorted(out_dir.glob("session*"))
            )
            digests.append(hashlib.sha256(blob).hexdigest())
        assert digests[0] == digests[1]

    def test_optimizing_leaders_logged_investment(self, capsys, tmp_path):
        config = write_config(
            tmp_path / "cfg.json",
            [
                {
                    "treatment": [2, 1],
                    "joy_of_winning": 119.73,
                    "groups": 1,
                    "rounds": 2,
                    "seed": 3,
                    "policies": [
                        {"kind": "optimizing-leader"},
                        {"kind": "optimizing-leader"},
                        {"kind": "responder"},
                    ],
                }
            ],
        )
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", config, "--out", str(out_dir),
            "--format", "json",
        )
        assert code == 0
        log = load_log(next(out_dir.glob("session*.json")))
        leaders = [r.investment for r in log.records if r.stage == 1]
        assert leaders == pytest.approx([83.11] * len(leaders), abs=0.05)

    def test_missing_config_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        code, _, err = run_cli(capsys, "simulate", "--config", str(missing))
        assert code == 2
        assert err == f"error: invalid config: {missing}: neither a file nor a bundled preset\n"

    def test_config_directory_exits_3(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "simulate", "--config", str(tmp_path), "--out", str(out_dir)
        )
        assert code == 3
        assert err.startswith("error: cannot read config: ")
        assert not out
        assert not out_dir.exists()

    @pytest.mark.parametrize("seed", ["\uff11", "+3", "1_0", " 4", "07", "-1"])
    def test_seed_not_in_ascii_digits_exits_2(self, capsys, tmp_path, seed):
        # int() read the first five as 1, 3, 10, 4 and 7, and -1 was charged
        # to the config; a seed is read as a --seq count is
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", "spne_all_treatments", "--seed", seed,
                  "--out", str(out_dir)])
        assert exc.value.code == 2
        assert f"argument --seed: must be a whole number in digits, got {seed!r}" in (
            capsys.readouterr().err
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("seed", ["0", "12"])
    def test_seed_sets_the_session_seeds(self, capsys, tmp_path, seed):
        session = {"treatment": [3], "groups": 1, "rounds": 1, "policies": SPNE_POLICIES}
        config = write_config(tmp_path / "cfg.json", [session, session])
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", config, "--seed", seed, "--out", str(out_dir)
        )
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["master_seed"] == [int(seed), int(seed) + 1]

    @pytest.mark.parametrize(
        "raw, detail",
        [
            ({"schema": 1, "sessions": []}, "sessions"),
            ([], "JSON object"),
            ({"schema": 1, "sessions": [[1]]}, "malformed session config"),
            ({"schema": 1, "sessions": [{"treatment": 3, "policies": SPNE_POLICIES}]},
             "malformed session config"),
            ({"schema": 1, "sessions": [{"treatment": [3], "policies": [1, 2, 3]}]},
             "malformed session config"),
            (
                {
                    "schema": 1,
                    "replications": [2],
                    "sessions": [{"treatment": [3], "policies": SPNE_POLICIES}],
                },
                "",
            ),
            ({"schema": 1, "sessions": [{"treatment": [1, 2],
                                         "policies": [{"kind": "responder"}] * 3}]},
             "stage 1 of treatment (1,2)"),
            ({"schema": 1, "sessions": [{"treatment": [1, 2],
                                         "policies": [{"kind": "spne"}]
                                         + [{"kind": "responder"}] * 3}]},
             "player index 3"),
            ({"schema": 1, "sessions": [{"treatment": [1.7, 2], "policies": SPNE_POLICIES}]},
             "stage count must be a whole number, got 1.7"),
            ({"schema": 1, "sessions": [{"treatment": [3], "groups": 2.5,
                                         "policies": SPNE_POLICIES}]},
             "groups must be a whole number, got 2.5"),
            ({"schema": 1, "sessions": [{"treatment": [3], "seed": 3.9,
                                         "policies": SPNE_POLICIES}]},
             "seed must be a whole number, got 3.9"),
            ({"schema": 1, "replications": 1.9,
              "sessions": [{"treatment": [3], "policies": SPNE_POLICIES}]},
             "replications must be a whole number, got 1.9"),
            ({"schema": 1, "sessions": [{"treatment": [3], "integer_rounding": "false",
                                         "policies": SPNE_POLICIES}]},
             "integer_rounding must be true or false, got 'false'"),
            ({"schema": 1, "sessions": [{"treatment": [3], "prize": float("nan"),
                                         "policies": SPNE_POLICIES}]},
             "prize must be finite"),
            ({"schema": 1, "sessions": [{"treatment": [3], "seed": -1,
                                         "policies": SPNE_POLICIES}]},
             "seed must be nonnegative, got -1"),
            ({"schema": 1, "sessions": [{"treatment": [3], "prize": True,
                                         "policies": SPNE_POLICIES}]},
             "prize must be a number, got True"),
            ({"schema": 1, "sessions": [{"treatment": [3], "prize": "240",
                                         "policies": SPNE_POLICIES}]},
             "prize must be a number, got '240'"),
            ({"schema": 1, "sessions": [{"treatment": [1, 2], "policies": [
                {"kind": "spne"}, *[{"kind": "responder", "noise_sd": "5"}] * 2]}]},
             "noise_sd must be a number, got '5'"),
            ({"schema": 1, "replication": 2,
              "sessions": [{"treatment": [3], "policies": SPNE_POLICIES}]},
             "unknown config keys: ['replication']"),
            ({"schema": 1, "sessions": [{"treatment": [3], "group": 9,
                                         "policies": SPNE_POLICIES}]},
             "unknown session keys: ['group']"),
            ({"schema": 1, "sessions": [{"treatment": [1, 2], "policies": [
                {"kind": "spne"}, *[{"kind": "responder", "noise_s": 25}] * 2]}]},
             "unknown 'responder' policy keys: ['noise_s']"),
            ({"schema": 1, "sessions": [{"treatment": [1, 2], "policies": [
                {"kind": "optimizing-leader", "models": {"3": {"intercept": 50.0}}},
                *[{"kind": "responder"}] * 2]}]},
             "(1,2) needs a response model for stage 2"),
            ({"schema": 1, "sessions": [{"treatment": [1, 2], "policies": [
                {"kind": "optimizing-leader", "models": {"\uff12": {"intercept": 50.0}}},
                *[{"kind": "responder"}] * 2]}]},
             "a stage key must be a stage number in digits, got '\uff12'"),
            ({"schema": 1, "sessions": [{"treatment": [3], "policies": [{"kind": "SPNE"}] * 3}]},
             "unknown policy kind 'SPNE'"),
            ({"schema": 1, "sessions": [{"treatment": [1, 1, 1], "policies": [
                {"kind": "spne"}, {"kind": "imitator"}, {"kind": "imitator"}]}]},
             "unknown policy kind 'imitator'"),
            ({"schema": 1, "sessions": [{"treatment": [1, 2], "policies": [
                {"kind": "responder", "model": {"intercept": 5}}, *[{"kind": "responder"}] * 2]}]},
             "'responder' cannot move at stage 1 of treatment (1,2)"),
            ({"schema": 1, "sessions": [{"treatment": [1, 2], "policies": [
                {"kind": "spne"}, {"kind": "optimizing-leader"}, {"kind": "responder"}]}]},
             "'optimizing-leader' cannot move at stage 2 of treatment (1,2)"),
            ({"schema": True, "sessions": [{"treatment": [3], "policies": SPNE_POLICIES}]},
             "unsupported config schema True"),
            ({"schema": 1.0, "sessions": [{"treatment": [3], "policies": SPNE_POLICIES}]},
             "unsupported config schema 1.0"),
            ({"schema": 1, "replications": 0,
              "sessions": [{"treatment": [3], "policies": SPNE_POLICIES}]},
             "replications must be at least 1"),
            ({"schema": 1, "replications": -1,
              "sessions": [{"treatment": [3], "policies": SPNE_POLICIES}]},
             "replications must be at least 1"),
            ({"schema": 1, "sessions": [{"treatment": [1, 2], "policies": [
                {"kind": "spne"}, {"kind": "responder", "model": {"intercept": 10, "m2_coef": 5}},
                {"kind": "responder"}]}]},
             "stage 2 of treatment (1,2) observes no m2, so its response model cannot set "
             "m2_coef"),
            ({"schema": 1, "sessions": [{"treatment": [1, 1, 1], "policies": [
                {"kind": "spne"},
                {"kind": "responder", "model": {"intercept": 10, "m2_sq_coef": -0.001}},
                {"kind": "responder"}]}]},
             "stage 2 of treatment (1,1,1) observes no m2, so its response model cannot set "
             "m2_sq_coef"),
            ({"schema": 1, "sessions": [{"treatment": [2, 1], "policies": [
                {"kind": "optimizing-leader", "models": {"2": {"intercept": 50, "m2_coef": 1}}},
                {"kind": "spne"}, {"kind": "responder"}]}]},
             "stage 2 of treatment (2,1) observes no m2, so its response model cannot set "
             "m2_coef"),
            ({"schema": 1, "sessions": [{"treatment": [1, 1, 1], "policies": [
                {"kind": "optimizing-leader", "models": {
                    "2": {"intercept": 50, "m2_sq_coef": 0.01},
                    "3": {"intercept": 50, "m2_coef": 0.5}}},
                {"kind": "responder"}, {"kind": "responder"}]}]},
             "stage 2 of treatment (1,1,1) observes no m2, so its response model cannot set "
             "m2_sq_coef"),
            ({"schema": 1, "sessions": [{"treatment": [1, 2], "policies": [
                {"kind": "optimizing-leader", "models": {
                    "2": {"intercept": 50}, "3": {"intercept": 999}, "7": {"intercept": 5}}},
                *[{"kind": "responder"}] * 2]}]},
             "an optimizing leader's models name stage 3, but the later stages of treatment "
             "(1,2) are 2"),
            ({"schema": 1, "sessions": [{"treatment": [1, 1, 1], "policies": [
                {"kind": "optimizing-leader", "models": {
                    "1": {"intercept": 5}, "2": {"intercept": 50}, "3": {"intercept": 50}}},
                *[{"kind": "responder"}] * 2]}]},
             "an optimizing leader's models name stage 1, but the later stages of treatment "
             "(1,1,1) are 2, 3"),
        ],
        ids=["empty-sessions", "top-level-list", "session-list", "treatment-int",
             "policy-int", "replications-list", "responder-without-model",
             "fourth-responder", "treatment-float", "groups-float", "seed-float",
             "replications-float", "integer-rounding-string", "prize-nan",
             "seed-negative", "prize-bool", "prize-string", "noise-sd-string",
             "top-level-unknown-key", "session-unknown-key",
             "policy-unknown-key", "leader-models-missing-stage", "leader-stage-key-fullwidth",
             "policy-kind-uppercase", "policy-kind-imitator", "responder-at-stage-1",
             "leader-at-stage-2", "schema-true", "schema-float",
             "replications-zero", "replications-negative", "responder-m2-at-stage-2",
             "responder-m2-sq-at-stage-2-of-1-1-1", "leader-model-m2-at-stage-2",
             "leader-model-m2-sq-at-stage-2-of-1-1-1", "leader-models-stages-3-and-7",
             "leader-models-stage-1"],
    )
    def test_invalid_config_exits_2(self, capsys, tmp_path, raw, detail):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", "--config", str(bad), "--out", str(out_dir))
        assert code == 2
        assert err.startswith(f"error: invalid config: {bad}: ")
        assert detail in err
        assert not out
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "leader, field",
        [
            ({"joy_of_winning": -240}, "joy_of_winning must be nonnegative"),
            ({"joy_of_winning": -300}, "joy_of_winning must be nonnegative"),
            ({"joy_of_winning": float("inf")}, "joy_of_winning must be finite"),
            ({"models": {"2": {"intercept": float("nan")}}}, "intercept must be finite"),
            ({"models": {"2": {"intercept": 50.0, "fit_effective_prize": 0}}},
             "fit_effective_prize must be positive"),
            ({"models": {"2": {"intercept": 50.0, "fit_effective_prize": -240}}},
             "fit_effective_prize must be positive"),
            ({"models": {"2": {"intercept": 10**400}}}, "intercept must be finite"),
        ],
        ids=["jow-minus-prize", "jow-below-minus-prize", "jow-infinity", "intercept-nan",
             "fit-prize-zero", "fit-prize-negative", "intercept-integer-beyond-floats"],
    )
    def test_bad_leader_numbers_exit_2(self, capsys, tmp_path, leader, field):
        # json reads NaN, Infinity and integers of any size; these configs
        # divided by zero, overflowed, or played a leader at 0.0 and exited 0
        config = write_config(tmp_path / "leader.json", [{
            "treatment": [1, 2],
            "policies": [{"kind": "optimizing-leader", **leader}, *[{"kind": "responder"}] * 2],
        }])
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", "--config", config, "--out", str(out_dir))
        assert code == 2
        assert err.startswith("error: invalid config: ") and field in err
        assert "Traceback" not in out + err
        assert not out_dir.exists()

    def test_unwritable_out_exits_3(self, capsys, tmp_path):
        config = write_config(
            tmp_path / "cfg.json",
            [
                {
                    "treatment": [3],
                    "groups": 1,
                    "rounds": 1,
                    "seed": 1,
                    "policies": SPNE_POLICIES,
                }
            ],
        )
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code, _, err = run_cli(
            capsys, "simulate", "--config", config,
            "--out", str(blocker / "sub"),
        )
        assert code == 3
        assert "error" in err

    def test_failed_write_removes_this_runs_logs(self, capsys, tmp_path):
        # the third session's JSON log cannot be written: the logs of the
        # first two sessions, already in place, are removed again
        sessions = [
            {"treatment": t, "groups": 1, "rounds": 2, "seed": 1,
             "policies": SPNE_POLICIES}
            for t in ([3], [1, 2], [2, 1])
        ]
        config = write_config(tmp_path / "cfg.json", sessions)
        out_dir = tmp_path / "runs"
        (out_dir / "session02_seq2-1.json").mkdir(parents=True)
        code, out, err = run_cli(
            capsys, "simulate", "--config", config, "--out", str(out_dir)
        )
        assert code == 3
        assert "error: cannot write outputs" in err
        assert not out
        assert [p.name for p in out_dir.iterdir()] == ["session02_seq2-1.json"]

    def test_failed_write_keeps_earlier_run(self, capsys, tmp_path):
        # a second run into the same directory would replace the first run's
        # session00/session01 logs before failing on session02: it must fail
        # before any rename, so every file of the first run stays as it was
        out_dir = tmp_path / "runs"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", "spne_all_treatments", "--out", str(out_dir)
        )
        assert code == 0
        before = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
        (out_dir / "session02_seq1-1-1.json").mkdir()
        sessions = [
            {"treatment": t, "groups": 1, "rounds": 2, "seed": 1,
             "policies": SPNE_POLICIES}
            for t in ([3], [1, 2], [1, 1, 1])
        ]
        config = write_config(tmp_path / "cfg.json", sessions)
        code, out, err = run_cli(
            capsys, "simulate", "--config", config, "--out", str(out_dir)
        )
        assert code == 3
        assert "error: cannot write outputs" in err
        assert not out
        after = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out_dir.iterdir() if p.is_file()
        }
        assert after == before
        assert not list(out_dir.glob("*.tmp"))

    def test_failed_write_leaves_no_temp_file(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.mkdir()
        code, _, err = run_cli(capsys, "solve", "--seq", "1,2", "--out", str(taken))
        assert code == 3
        assert "error" in err
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]


@pytest.fixture(scope="module")
def spne_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("logs")
    code = main(
        [
            "simulate", "--config", "spne_all_treatments",
            "--out", str(out_dir), "--format", "json",
        ]
    )
    assert code == 0
    return sorted(out_dir.glob("session*.json"))


def _write_null_investment(log, bad):
    payload = json.loads(log.read_text())
    payload["records"][0]["investment"] = None
    bad.write_text(json.dumps(payload))


def _write_bad_float(log, bad):
    payload = json.loads(log.read_text())
    payload["records"][0]["investment"] = "abc"
    bad.write_text(json.dumps(payload))


def _write_short_csv_row(log, bad):
    export_log(load_log(log), "csv", bad)
    lines = bad.read_text().split("\n")
    lines[2] = lines[2].rsplit(",", 2)[0]  # the first row loses "won" and "payoff"
    bad.write_text("\n".join(lines))


# a BAD_META value: the key is removed from the meta
MISSING = object()


def _write_meta(key, value, fmt):
    """Writer of a log in ``fmt`` whose meta has ``key`` set to ``value``, or
    removed if ``value`` is MISSING."""

    def write(log, bad):
        payload = json.loads(log.read_text())
        if value is MISSING:
            del payload["meta"][key]
        else:
            payload["meta"][key] = value
        if fmt == "json":
            bad.write_text(json.dumps(payload))
            return
        export_log(load_log(log), "csv", bad)
        lines = bad.read_text().split("\n")
        lines[0] = CSV_META_PREFIX + json.dumps(payload["meta"])
        bad.write_text("\n".join(lines))

    return write


def _write_record(column, value, fmt):
    """Writer of a log in ``fmt`` whose first record has ``column`` set to
    ``value`` (a JSON value, or a CSV cell); a CSV cell of a column not in the
    log is appended to the row."""

    def write(log, bad):
        if fmt == "json":
            payload = json.loads(log.read_text())
            payload["records"][0][column] = value
            bad.write_text(json.dumps(payload))
            return
        export_log(load_log(log), "csv", bad)
        lines = bad.read_text().split("\n")
        cells = lines[2].split(",")
        if column in CSV_COLUMNS:
            cells[CSV_COLUMNS.index(column)] = value
        else:
            cells.append(value)
        lines[2] = ",".join(cells)
        bad.write_text("\n".join(lines))

    return write


# record cells a log must not coerce, by test id: the first ten used to load;
# the next five are cells of a type their column refuses (a JSON column is
# checked in one pass over its cell types, then cell by cell to name the bad one);
# the CSV cells after them are not JSON numbers, or not of their column's type,
# and int() or float() read the first seven, or failed without naming the column
BAD_RECORDS = {
    "investment-bool-json": ("investment", True, "json"),
    "group-float-json": ("group", 1.9, "json"),
    "won-float-json": ("won", 0.4, "json"),
    "investment-nan-json": ("investment", float("nan"), "json"),
    "m2-inf-json": ("m2", float("inf"), "json"),
    "won-2-csv": ("won", "2", "csv"),
    "payoff-inf-csv": ("payoff", "inf", "csv"),
    "m1-nan-csv": ("m1", "nan", "csv"),
    "extra-cell-csv": ("extra", "0", "csv"),
    "extra-key-json": ("extra", 0, "json"),
    "round-float-json": ("round", 2.0, "json"),
    "subject-bool-json": ("subject", True, "json"),
    "m1-string-json": ("m1", "1", "json"),
    "won-int-json": ("won", 1, "json"),
    "payoff-null-json": ("payoff", None, "json"),
    "group-fullwidth-csv": ("group", "\uff11", "csv"),
    "round-plus-sign-csv": ("round", "+1", "csv"),
    "subject-underscore-csv": ("subject", "1_0", "csv"),
    "triad-leading-zero-csv": ("triad", "07", "csv"),
    "investment-underscore-csv": ("investment", "9_0.0", "csv"),
    "payoff-no-leading-digit-csv": ("payoff", ".5", "csv"),
    "m2-space-csv": ("m2", " 1.0", "csv"),
    "m1-null-word-csv": ("m1", "null", "csv"),
    "slot-comma-csv": ("slot", '"1,2"', "csv"),
    "stage-float-csv": ("stage", "1.0", "csv"),
}


# meta a log must not hold, by test id: the values used to be coerced and
# load as a different session, and the unknown key to be ignored; a meta
# holds exactly its keys
BAD_META = {
    "sequence": ("sequence", [1.7, 2.2]),
    "groups": ("groups", 10.9),
    "rounds": ("rounds", 25.0),
    "seed": ("seed", 7.5),
    "integer_rounding": ("integer_rounding", "false"),
    "prize-bool": ("prize", True),
    "schema-true": ("schema", True),
    "schema-float": ("schema", 1.0),
    "unknown-key": ("grups", 3),
    "missing-key": ("groups", MISSING),
    "rng_layout-3": ("rng_layout", 3),
    "rng_layout-0": ("rng_layout", 0),
    "rng_layout-true": ("rng_layout", True),
    "rng_layout-float": ("rng_layout", 2.0),
    "rng_layout-text": ("rng_layout", "2"),
}

# JSON nested past any recursion limit: json raises RecursionError on it
DEEP_JSON = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize(
    "case", ["json-log", "csv-log", "config", "calibrate-from", "response-models"]
)
def test_json_nested_too_deeply_is_bad_input(capsys, tmp_path, case):
    # every JSON read takes a RecursionError as malformed input: the CLI exits
    # 2 and writes nothing, and a file reader raises ContestError naming it
    path, out = tmp_path / "deep", tmp_path / "out"
    if case == "response-models":
        path.write_text(DEEP_JSON)
        pattern = f"^malformed response-model file {re.escape(str(path))}: RecursionError: "
        with pytest.raises(ContestError, match=pattern):
            load_response_models(path)
        return
    if case == "calibrate-from":
        argv = ["solve", "--seq", "1,2", "--calibrate-from", "[" * 5000]
        message = "argument --calibrate-from: must be a finite number in JSON's grammar"
    elif case == "config":
        path.write_text('{"schema": 1, "sessions": ' + DEEP_JSON + "}")
        argv = ["simulate", "--config", str(path), "--out", str(out)]
        message = f"error: invalid config: {path}: maximum recursion depth exceeded"
    else:
        path = path.with_suffix(".json" if case == "json-log" else ".csv")
        header = CSV_META_PREFIX + DEEP_JSON + "\n" + ",".join(CSV_COLUMNS) + "\n"
        path.write_text(DEEP_JSON if case == "json-log" else header)
        argv = ["analyze", str(path), "--out", str(out)]
        message = f"error: bad log file: malformed log {path}: RecursionError: "
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a bad option value
        code = exc.code
    assert code == 2 and message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag, text",
    [
        (["solve", "--seq", "1,2"], "--calibrate-from", "[" * 5000),
        (["simulate", "--config", "spne_all_treatments"], "--seed", "x" * 5000),
        (["analyze", "log.json"], "--last-rounds", "0" * 5000),
        (["analyze", "log.json"], "--alpha", "0." + "0" * 4997 + "1"),
        # digits, but more of them than int() reads
        (["simulate", "--config", "spne_all_treatments"], "--seed", "1" * 5000),
        (["analyze", "log.json"], "--last-rounds", "1" * 5000),
    ],
    ids=[
        "calibrate-from", "seed", "last-rounds", "alpha", "seed-beyond-int-digits",
        "last-rounds-beyond-int-digits",
    ],
)
def test_long_refused_value_is_cut(capsys, argv, flag, text):
    # the error names the option and quotes the value's first characters
    # and its length, not all 5,000 characters
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, text])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    line = err.splitlines()[-1]
    assert f"argument {flag}: " in line and line.endswith("... (5000 characters)")
    assert max(map(len, err.splitlines())) < 200 and not out


@pytest.mark.parametrize(
    "seq, message",
    [
        ("1" * 5000, f"--seq holds a stage count of more than {sys.get_int_max_str_digits()}"
                     " digits, got '111"),
        ("1," * 2500, "--seq must be stage counts in digits joined by commas, got '1,1"),
    ],
    ids=["count-beyond-int-digits", "not-counts"],
)
def test_long_refused_seq_is_cut(capsys, seq, message):
    # a count int() cannot read is refused as bad input, not a traceback,
    # and the refusal quotes the value cut, as an option's value is
    code, out, err = run_cli(capsys, "solve", "--seq", seq)
    assert code == 2 and not out
    assert err.startswith(f"error: {message}") and err.endswith("... (5000 characters)\n")
    assert len(err.splitlines()) == 1 and len(err) < 200


class TestAnalyze:
    def test_summary_matches_solver_table(self, capsys, spne_run, tmp_path):
        out_dir = tmp_path / "analysis"
        code, out, _ = run_cli(
            capsys, "analyze", *[str(p) for p in spne_run], "--out", str(out_dir)
        )
        assert code == 0
        summary = (out_dir / "summary.csv").read_text().strip().split("\n")
        cells = {}
        for line in summary[1:]:
            treatment, role, mean, se, *_ = line.split(",")
            cells[(treatment, role)] = (float(mean), float(se))
        expectations = {
            ("3", "x1"): 53.33,
            ("1-2", "x1"): 90.0,
            ("1-2", "x2"): 45.0,
            ("2-1", "x1"): 67.5,
            ("2-1", "x3"): 45.0,
            ("1-1-1", "x1"): 86.19,
            ("1-1-1", "x2"): 63.09,
            ("1-1-1", "x3"): 40.0,
            ("3", "X"): 160.0,
            ("1-1-1", "X"): 189.28,
        }
        for key, expected in expectations.items():
            mean, se = cells[key]
            assert mean == pytest.approx(expected, abs=0.01)
            assert se == pytest.approx(0.0, abs=1e-9)

    def test_last_rounds_filter(self, capsys, spne_run, tmp_path):
        out_dir = tmp_path / "analysis5"
        code, out, _ = run_cli(
            capsys, "analyze", *[str(p) for p in spne_run],
            "--last-rounds", "5", "--out", str(out_dir),
        )
        assert code == 0
        assert "last 5 rounds" in out
        line = (out_dir / "summary.csv").read_text().strip().split("\n")[1]
        assert line.endswith(",5")  # rounds column

    def test_last_rounds_beyond_the_log_keeps_every_round(self, capsys, spne_run, tmp_path):
        # a K past int64 keeps every round: the summary equals the uncut one
        paths = [str(p) for p in spne_run]
        run_cli(capsys, "analyze", *paths, "--tests", "summary", "--out", str(tmp_path / "all"))
        code, _, err = run_cli(
            capsys, "analyze", *paths, "--tests", "summary",
            "--last-rounds", str(10**30), "--out", str(tmp_path / "huge"),
        )
        assert code == 0 and "Traceback" not in err
        summary = [(tmp_path / d / "summary.csv").read_text() for d in ("all", "huge")]
        assert summary[0] == summary[1]

    def test_flat_trend_prints_no_negative_zero(self, capsys, spne_run, tmp_path):
        # SPNE play is the same every round, so each slope is rounding noise
        # around zero, and it must print unsigned whichever way the noise falls
        out_dir = tmp_path / "flat"
        code, _, _ = run_cli(
            capsys, "analyze", *[str(p) for p in spne_run],
            "--tests", "trend", "--out", str(out_dir),
        )
        assert code == 0
        for name in ("trend.csv", "report.txt"):
            text = (out_dir / name).read_text()
            assert not re.search(r"-0\.0+(?![0-9])", text), name

    def test_jt_threshold_printed(self, capsys, spne_run, tmp_path):
        # aggregate X rises across the four SPNE logs in the order given, so
        # the trend is detected and flagged against the configured threshold
        out_dir = tmp_path / "jt"
        code, out, _ = run_cli(
            capsys, "analyze", *[str(p) for p in spne_run],
            "--tests", "jt", "--out", str(out_dir), "--alpha", "0.05",
        )
        assert code == 0
        assert "significant at alpha=0.05: yes" in out
        tests = (out_dir / "tests.csv").read_text()
        assert tests.startswith("test,treatment,quantity")
        assert "jt,all,X" in tests

    def test_wald_degenerate_flag(self, capsys, spne_run, tmp_path):
        code, out, _ = run_cli(
            capsys, "analyze", str(spne_run[0]), "--tests", "wald",
            "--out", str(tmp_path / "w"),
        )
        assert code == 0
        assert "[degenerate]" in out

    def test_unknown_test_exits_2(self, capsys, spne_run, tmp_path):
        code, _, err = run_cli(
            capsys, "analyze", str(spne_run[0]), "--tests", "anova",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2

    def test_unknown_test_refused_before_any_log_is_read(self, capsys, tmp_path):
        # a missing log exited 3 and never reported the bad test name
        out_dir = tmp_path / "x"
        code, _, err = run_cli(
            capsys, "analyze", str(tmp_path / "ghost.json"), "--tests", "bogus",
            "--out", str(out_dir),
        )
        assert code == 2
        assert "unknown tests ['bogus']" in err
        assert not out_dir.exists()

    def test_jt_needs_three_logs(self, capsys, spne_run, tmp_path):
        # the default tests include JT; the check runs before any file is written
        for n, (logs, tests) in enumerate(
            [(spne_run[:1], ["--tests", "jt"]), (spne_run[:2], [])]
        ):
            out_dir = tmp_path / f"x{n}"
            code, _, err = run_cli(
                capsys, "analyze", *[str(p) for p in logs], *tests,
                "--out", str(out_dir),
            )
            assert code == 2
            assert "at least 3 logs" in err
            assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_missing_log_exits_3(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "analyze", str(tmp_path / "ghost.json"),
            "--out", str(tmp_path / "x"),
        )
        assert code == 3

    @pytest.mark.parametrize(
        "name, write, column",
        [
            ("schema.json", lambda log, bad: bad.write_text(
                '{"meta": {"schema": 99}, "records": []}'
            ), None),
            ("list.json", lambda log, bad: bad.write_text("[]"), None),
            ("null.json", _write_null_investment, None),
            ("short.csv", _write_short_csv_row, None),
            ("float.json", _write_bad_float, None),
            *[
                (f"meta.{fmt}", _write_meta(key, value, fmt), None)
                for fmt in ("json", "csv")
                for key, value in BAD_META.values()
            ],
            *[
                (f"record.{fmt}", _write_record(column, value, fmt),
                 column if column in CSV_COLUMNS else None)
                for column, value, fmt in BAD_RECORDS.values()
            ],
        ],
        ids=[
            "schema-99", "top-level-list", "null-cell", "short-csv-row", "bad-float",
            *[f"meta-{label}-{fmt}" for fmt in ("json", "csv") for label in BAD_META],
            *[f"record-{label}" for label in BAD_RECORDS],
        ],
    )
    def test_corrupt_log_exits_2(self, capsys, spne_run, tmp_path, name, write, column):
        bad = tmp_path / name
        write(spne_run[0], bad)
        code, _, err = run_cli(
            capsys, "analyze", str(bad), "--out", str(tmp_path / "x")
        )
        assert code == 2
        assert str(bad) in err
        if column is not None:  # a bad cell is named by its column
            assert f"ContestError: {column} " in err

    @pytest.mark.parametrize(
        "groups, rounds, tests, message",
        [(2, 1, "summary,trend", "at least 2 rounds"),
         (1, 3, "summary,wald", "at least 2 clusters")],
        ids=["one-round-trend", "one-group-wald"],
    )
    def test_failing_statistic_writes_nothing(
        self, capsys, tmp_path, groups, rounds, tests, message
    ):
        session = {"treatment": [1, 2], "groups": groups, "rounds": rounds,
                   "seed": 3, "policies": SPNE_POLICIES}
        config = write_config(tmp_path / "config.json", [session])
        log_dir = tmp_path / "logs"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", config, "--out", str(log_dir),
            "--format", "json",
        )
        assert code == 0
        out_dir = tmp_path / "x"
        code, _, err = run_cli(
            capsys, "analyze", *[str(p) for p in log_dir.glob("session*.json")],
            "--tests", tests, "--out", str(out_dir),
        )
        assert code == 2
        assert message in err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_failed_write_removes_this_runs_outputs(self, capsys, spne_run, tmp_path):
        # trend.csv cannot be written: summary.csv, written before it, goes too
        out_dir = tmp_path / "an"
        (out_dir / "trend.csv").mkdir(parents=True)
        code, out, err = run_cli(
            capsys, "analyze", *[str(p) for p in spne_run], "--out", str(out_dir)
        )
        assert code == 3
        assert "error: cannot write outputs" in err
        assert not out
        assert [p.name for p in out_dir.iterdir()] == ["trend.csv"]

    def test_report_written_atomically(self, capsys, spne_run, tmp_path):
        out_dir = tmp_path / "rep"
        code, _, _ = run_cli(
            capsys, "analyze", str(spne_run[0]), "--tests", "summary",
            "--out", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "report.txt").exists()
        assert (out_dir / "manifest.json").exists()
        assert not list(out_dir.glob("*.tmp"))

    def test_last_rounds_below_one_exits_2(self, capsys, spne_run, tmp_path):
        for k in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main([
                    "analyze", str(spne_run[0]), "--last-rounds", k,
                    "--out", str(tmp_path / "x"),
                ])
            assert exc.value.code == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("k", ["\uff11", "+1", "1_0", " 2", "02"])
    def test_last_rounds_not_in_ascii_digits_exits_2(self, capsys, spne_run, tmp_path, k):
        # str.isdecimal let the full-width 1 and 02 through
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(spne_run[0]), "--last-rounds", k, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "argument --last-rounds: must be a whole number of at least 1 in digits" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("alpha", ["-3", "nan", "0", "1", "1.5", "abc"])
    def test_alpha_outside_unit_interval_exits_2(self, capsys, spne_run, tmp_path, alpha):
        with pytest.raises(SystemExit) as exc:
            main([
                "analyze", *[str(p) for p in spne_run], "--alpha", alpha,
                "--out", str(tmp_path / "x"),
            ])
        assert exc.value.code == 2
        assert "--alpha" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_glob_over_output_dir_skips_manifest(self, capsys, spne_run, tmp_path):
        # the README's `analyze runs/*.json` also matches manifest.json
        paths = sorted(spne_run[0].parent.glob("*.json"))
        assert "manifest.json" in [p.name for p in paths]
        out_dir = tmp_path / "glob"
        code, out, _ = run_cli(
            capsys, "analyze", *[str(p) for p in paths], "--out", str(out_dir)
        )
        assert code == 0
        assert out.startswith("analysis of 4 log(s)")
        assert "run manifest" in (out_dir / "report.txt").read_text()

    def test_csv_and_json_logs_give_same_tests(self, capsys, tmp_path):
        config = write_config(
            tmp_path / "cfg.json",
            [
                {
                    "treatment": [1, 2],
                    "prize": 100,
                    "groups": 2,
                    "rounds": 3,
                    "seed": 4,
                    "policies": SPNE_POLICIES,
                }
            ],
        )
        runs = tmp_path / "runs"
        code, _, _ = run_cli(capsys, "simulate", "--config", config, "--out", str(runs))
        assert code == 0
        tests = {}
        for fmt in ("csv", "json"):
            out_dir = tmp_path / fmt
            code, _, _ = run_cli(
                capsys, "analyze", str(next(runs.glob(f"session*.{fmt}"))),
                "--tests", "wald", "--out", str(out_dir),
            )
            assert code == 0
            tests[fmt] = (out_dir / "tests.csv").read_text()
        assert tests["csv"] == tests["json"]
        assert tests["csv"].split("\n")[1] == "wald,1-2,X,0,1,h0=75.0000"

    def test_last_rounds_applies_to_trend(self, capsys, tmp_path):
        noisy = {"kind": "responder", "noise_sd": 25.0}
        config = write_config(
            tmp_path / "cfg.json",
            [
                {
                    "treatment": [1, 2],
                    "groups": 3,
                    "rounds": 8,
                    "seed": 9,
                    "policies": [{"kind": "spne"}, noisy, noisy],
                }
            ],
        )
        runs = tmp_path / "runs"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", config, "--out", str(runs),
            "--format", "json",
        )
        assert code == 0
        path = next(runs.glob("session*.json"))
        out_dir = tmp_path / "trend"
        code, out, _ = run_cli(
            capsys, "analyze", str(path), "--tests", "trend",
            "--last-rounds", "5", "--out", str(out_dir),
        )
        assert code == 0
        assert "last 5 rounds" in out
        fit = stats.trend_by_round(
            [r for r in load_log(path).records if r.round > 3]
        )
        assert fit.nobs == 3 * 5 * 9
        expected = (
            f"1-2,{fit.params[1]:.6f},{fit.se[1]:.6f},{fit.nobs},{fit.n_clusters}"
        )
        assert (out_dir / "trend.csv").read_text().split("\n")[1] == expected

    def test_manifests_carry_package_version(self, capsys, spne_run, tmp_path):
        out_dir = tmp_path / "an"
        code, _, _ = run_cli(
            capsys, "analyze", str(spne_run[0]), "--tests", "summary",
            "--out", str(out_dir),
        )
        assert code == 0
        for manifest in (spne_run[0].parent / "manifest.json", out_dir / "manifest.json"):
            record = json.loads(manifest.read_text())
            assert record["package_version"] == seqcontest.__version__


def test_each_output_renamed_once_from_its_temp_file(capsys, tmp_path, monkeypatch):
    # every file of a run is written once, to <dest>.<16 hex>.tmp, and renamed
    # once onto its destination
    renames = []
    replace = os.replace

    def recording_replace(src, dst):
        renames.append((os.fspath(src), os.fspath(dst)))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    sessions = [
        {"treatment": t, "groups": 2, "rounds": 3, "seed": 5, "policies": SPNE_POLICIES}
        for t in ([3], [1, 2], [2, 1])
    ]
    config = write_config(tmp_path / "cfg.json", sessions)
    runs, analysis = tmp_path / "runs", tmp_path / "analysis"
    code, _, _ = run_cli(
        capsys, "simulate", "--config", config, "--out", str(runs), "--format", "both"
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys, "analyze", *sorted(str(p) for p in runs.glob("session*.json")),
        "--out", str(analysis),
    )
    assert code == 0
    expected = []
    for folder in (runs, analysis):
        names = json.loads((folder / "manifest.json").read_text())["outputs"]
        expected += [str(folder / name) for name in [*names, "manifest.json"]]
    assert len(expected) == 6 + 1 + 4 + 1
    assert sorted(dst for _, dst in renames) == sorted(expected)
    for src, dst in renames:
        assert re.fullmatch(re.escape(dst) + r"\.[0-9a-f]{16}\.tmp", src)


def test_readme_command_line_runs(capsys, tmp_path, monkeypatch):
    # every command of README's "Command line" block, globs expanded as a
    # shell would, exits 0
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("seqcontest ")]
    assert commands
    preset = resources.files("seqcontest.presets").joinpath("spne_all_treatments.json")
    (tmp_path / "my_config.json").write_text(preset.read_text())
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        args = [path for arg in argv[1:] for path in sorted(glob.glob(arg)) or [arg]]
        code, _, err = run_cli(capsys, *args)
        assert code == 0, (argv, err)



def test_readme_library_quickstart_runs():
    # both Python blocks of README's "Library quickstart", run in one
    # namespace: each "# value" comment is its line's value (an expression's,
    # or the name an assignment binds), to the digits it shows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    blocks = [part.split("```", 1)[0] for part in section.split("```python\n")[1:]]
    assert len(blocks) == 2
    namespace, checked = {}, []
    for block in blocks:
        lines = block.splitlines()
        for statement in ast.parse(block).body:
            if isinstance(statement, ast.Expr):
                code = compile(ast.Expression(statement.value), "README.md", "eval")
                value = eval(code, namespace)
            else:
                exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
                value = namespace[statement.targets[0].id] if isinstance(
                    statement, ast.Assign) else None
            comment = lines[statement.end_lineno - 1].partition("#")[2].strip()
            if not re.fullmatch(r"[\d.(), ]+", comment):
                continue
            shown = re.findall(r"\d+\.(\d+)", comment)
            values = value if isinstance(value, tuple) else (value,)
            assert len(values) == len(shown), comment
            spelt = [f"{v:.{len(digits)}f}" for v, digits in zip(values, shown)]
            assert spelt == re.findall(r"\d+\.\d+", comment), (comment, values)
            checked.append(comment)
    assert checked == ["(90.0, 45.0)", "180.0", "119.73", "83.11", "(90.0, 45.0, 45.0)"]

# sha256 of CLI outputs, the presets simulated at --seed 7. A change meant to
# leave behaviour alone must leave these alone: a change to any number, its
# formatting, the random stream or a file name shows here.
SOLVE_JSON_DIGESTS = {
    "3": "055f5b051fe1762f04b61c2d62aa4a94abcac99b8ead72fa64b225412232d894",
    "1,2": "c85b347c549ae9e728606887a690e17bdc01186ac6a6cd2c5b68e83d0b81b002",
    "2,1": "aa71c920d179e5afec0599db839704fd7c12e30ee06e55d03a40c1c356faec74",
    "1,1,1": "a295abd54635e730706c0760d418f97ff5f375712a8cdef6428d215465a1c467",
}
PRESET_DIGESTS = {
    "spne_all_treatments": {
        "session00_seq3.csv":
            "7dcd487d5eaec615c9c154801e968cb940d4d35f0543467d211a4316ef879235",
        "session00_seq3.json":
            "cc2cbca1ee4722a5d653b83b9dfc5d62d3db01bee92a2fe8c4d6df186b5c6041",
        "session01_seq1-2.csv":
            "b91079df5443446614b712f3e8a69b9277c26584bb59860035d54722f8b2e944",
        "session01_seq1-2.json":
            "e514893a41dcea7d5a2c8d2d95a709b066bcb2d7b492ad2182555b2801d4ba40",
        "session02_seq2-1.csv":
            "6937ae033f6d7d41a4b72d3f0a0cb69cecfd2b013eaee32ffbf66ccd37e32103",
        "session02_seq2-1.json":
            "b4cd87d7dc1b0ded626c261ddcc81378d3177f43a0da27542d274a4bbdede21b",
        "session03_seq1-1-1.csv":
            "32c24e47d3795113d57e607a9aed6c6da679f7922066a8dc154696b0600fa8f8",
        "session03_seq1-1-1.json":
            "d61350e7408fbf28ac1685c2279b1b086b3e2ec33406496c9aa0e8b1afc9fdf8",
        "summary.csv":
            "adc7bcf0f98151751662fbf71510bcb79b7972b955a3fb802931fbf57afe54d2",
        "trend.csv":
            "38649edf2facce07cf1427ff052c3a7c14d4531cb937f73b078aa40ac6e6a599",
        "tests.csv":
            "90a28995de8ad63d7108c970216377850a063a5bfe8ff0e8b82af582f40e787d",
        "report.txt":
            "75790e68d737f15bffd90d2c129958dcfb7cc9f0394bc2620812c1219a4d54ab",
    },
    "empirical_preemption": {
        "session00_seq1-2.csv":
            "58823b2d7031fab1f3a54949a1f5481d6676f2251277bc22c2640e9051fed3aa",
        "session00_seq1-2.json":
            "3ab6cda5aa68f63482ddd3c764d8e7f7a888df8c650db433232c572616e359dd",
        "session01_seq2-1.csv":
            "c96091e74281dfb1e174e52ca5e097be42867eedbc0d0e953f3de6d241c937df",
        "session01_seq2-1.json":
            "7a186c5a57da25d5c846a30bb74a4e3f113651388e95bb9cf9c0b42158357434",
        "session02_seq1-1-1.csv":
            "525fda1399dffafddbd506fac3cf67d366639fe2b995206bb9e3625216678655",
        "session02_seq1-1-1.json":
            "23041c2cc937eaa077c2ef9f6a96947c865fd7cd1ce83afb45a29e4ad9688e48",
        "summary.csv":
            "cafd40d1f70adabd124b3b7aa019f8af792d7196b9a2b614beda764e9e1085e1",
        "trend.csv":
            "3946e8d1c4433123ba401cc04d4fb1c19553c45d80a3b12cd6e2ae5b5517d388",
        "tests.csv":
            "43ca9f629ff7b50cb09c617003bb7de4190f04e3b368a35515bd2ed778f343e2",
        "report.txt":
            "ac333d09370c043c70b497bb15c07398cbae501a82ee047b8e0a0d975ed99722",
    },
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("preset", sorted(PRESET_DIGESTS))
    def test_both_formats_write_each_format_alone(self, capsys, tmp_path, preset):
        # --format both spells each log's columns once for its two texts
        logs = {}
        for fmt in ("both", "json", "csv"):
            runs = tmp_path / fmt
            code, _, _ = run_cli(
                capsys, "simulate", "--config", preset, "--seed", "7", "--out", str(runs),
                "--format", fmt,
            )
            assert code == 0
            logs[fmt] = {p.name: p.read_bytes() for p in runs.glob("session*")}
        assert logs["json"] and logs["csv"]
        assert logs["both"] == {**logs["json"], **logs["csv"]}

    @pytest.mark.parametrize("seq", sorted(SOLVE_JSON_DIGESTS))
    def test_solve_json(self, capsys, seq):
        code, out, _ = run_cli(capsys, "solve", "--seq", seq, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SOLVE_JSON_DIGESTS[seq]

    @pytest.mark.parametrize("preset", sorted(PRESET_DIGESTS))
    def test_simulate_then_analyze(self, capsys, tmp_path, preset):
        runs, analysis = tmp_path / "runs", tmp_path / "analysis"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", preset, "--seed", "7", "--out", str(runs)
        )
        assert code == 0
        logs = sorted(str(p) for p in runs.glob("session*.json"))
        code, _, _ = run_cli(capsys, "analyze", *logs, "--out", str(analysis))
        assert code == 0
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for folder in (runs, analysis)
            for p in folder.iterdir()
            if p.name != "manifest.json"
        }
        assert digests == PRESET_DIGESTS[preset]

    @pytest.mark.parametrize("preset", sorted(PRESET_DIGESTS))
    def test_simulate_then_analyze_csv(self, capsys, tmp_path, preset):
        # the CSV logs alone, analyzed from CSV, give the same files
        runs, analysis = tmp_path / "runs", tmp_path / "analysis"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", preset, "--seed", "7", "--out", str(runs),
            "--format", "csv",
        )
        assert code == 0
        logs = sorted(str(p) for p in runs.glob("session*.csv"))
        code, _, _ = run_cli(capsys, "analyze", *logs, "--out", str(analysis))
        assert code == 0
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for folder in (runs, analysis)
            for p in folder.iterdir()
            if p.name != "manifest.json"
        }
        expected = PRESET_DIGESTS[preset]
        assert digests == {name: d for name, d in expected.items() if not name.endswith(".json")}


# One table of bad session-parameter values, (parameter, value, message), for
# every path that reads or writes one: SessionConfig, a config, a log meta
# read back, the log writer and, for the counts, run_batch.
BAD_SESSION_VALUES = [
    ("groups", 0, "groups must be at least 1, got 0"),
    ("groups", -1, "groups must be at least 1, got -1"),
    ("groups", 2.5, "groups must be a whole number, got 2.5"),
    ("groups", True, "groups must be a whole number, got True"),
    ("groups", np.int64(1), f"groups must be a whole number, got {np.int64(1)!r}"),
    ("rounds", 0, "rounds must be at least 1, got 0"),
    ("rounds", -1, "rounds must be at least 1, got -1"),
    ("rounds", 2.0, "rounds must be a whole number, got 2.0"),
    ("seed", -5, "seed must be nonnegative, got -5"),
    ("seed", 1.5, "seed must be a whole number, got 1.5"),
    ("seed", True, "seed must be a whole number, got True"),
    ("integer_rounding", 1, "integer_rounding must be true or false, got 1"),
    ("replications", 2.5, "replications must be a whole number, got 2.5"),
]
# the values of a session's run parameters, and those a JSON file can hold
_RUN_VALUES = [case for case in BAD_SESSION_VALUES if case[0] != "replications"]
_JSON_VALUES = [case for case in BAD_SESSION_VALUES if not isinstance(case[1], np.integer)]
# every bad count, as a replication count (each value once)
_COUNT_VALUES = list({
    repr(value): ("replications", value, message.replace(name, "replications", 1))
    for name, value, message in BAD_SESSION_VALUES
    if name in ("groups", "rounds", "replications")
}.values())


def _bad_values(cases):
    return pytest.mark.parametrize(
        "name, value, message", cases, ids=[f"{name}={value!r}" for name, value, _ in cases]
    )


def _tiny_config():
    return SessionConfig(
        spec=ContestSpec(MoveSequence((3,))), policies=(EquilibriumPolicy(),) * 3,
        groups=1, rounds=1, seed=1,
    )


class TestSessionParameterRules:
    @_bad_values(_RUN_VALUES)
    def test_session_config_refuses(self, name, value, message):
        with pytest.raises(ContestError, match=re.escape(message)):
            replace(_tiny_config(), **{name: value})

    @_bad_values(_JSON_VALUES)
    def test_config_exits_2(self, capsys, tmp_path, name, value, message):
        session = {"treatment": [3], "policies": SPNE_POLICIES}
        raw = {"schema": 1, "sessions": [session]}
        (raw if name == "replications" else session)[name] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", "--config", str(bad), "--out", str(out_dir))
        assert (code, out, err) == (2, "", f"error: invalid config: {bad}: {message}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @_bad_values([case for case in _RUN_VALUES if case in _JSON_VALUES])
    def test_log_meta_exits_2(self, capsys, spne_run, tmp_path, name, value, message, fmt):
        bad = tmp_path / f"bad.{fmt}"
        _write_meta(name, value, fmt)(spne_run[0], bad)
        with pytest.raises(ContestError) as info:
            load_log(bad)
        assert str(bad) in str(info.value) and message in str(info.value)
        out_dir = tmp_path / "x"
        code, _, err = run_cli(capsys, "analyze", str(bad), "--out", str(out_dir))
        assert code == 2 and err.startswith("error: bad log file: ")
        assert str(bad) in err and message in err and "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @_bad_values(_RUN_VALUES)
    def test_writer_refuses(self, tmp_path, name, value, message, fmt):
        good = run_session(_tiny_config())
        run = {"groups": 1, "rounds": 1, "integer_rounding": False, "seed": 1, name: value}
        log = SessionLog(good.spec, **run, records=good.records)
        with pytest.raises(ContestError, match=re.escape(message)):
            export_log(log, fmt, tmp_path / f"log.{fmt}")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", [np.float32(5), Fraction(5)], ids=repr)
    @pytest.mark.parametrize("name", ["prize", "endowment", "joy_of_winning"])
    def test_session_config_refuses_spec_number(self, name, value):
        # ContestSpec takes any finite real, but a log meta holds JSON numbers
        # only, so the session is refused before it runs, not when written
        spec = ContestSpec(MoveSequence((3,)), **{name: value})
        with pytest.raises(ContestError, match=re.escape(f"{name} must be a number, got {value!r}")):
            replace(_tiny_config(), spec=spec)

    @pytest.mark.parametrize("value", [5, np.float64(5)], ids=repr)
    @pytest.mark.parametrize("name", ["prize", "endowment", "joy_of_winning"])
    def test_session_config_takes_spec_number(self, name, value):
        spec = ContestSpec(MoveSequence((3,)), **{name: value})
        assert replace(_tiny_config(), spec=spec).spec == spec

    @_bad_values(_COUNT_VALUES)
    def test_run_batch_refuses(self, name, value, message):
        with pytest.raises(ContestError, match=re.escape(message)):
            run_batch([_tiny_config()], value)
