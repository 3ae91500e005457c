"""Tests for the command-line interface (driven through main())."""

import glob
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import seqcontest
from seqcontest import stats
from seqcontest.cli import main
from seqcontest.simulate import CSV_COLUMNS, CSV_META_PREFIX, export_log, load_log


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
    # numpy is loaded by simulate, analyze and the statistics; importing the
    # package and solving, in every output form, must not load it
    code = (
        "import seqcontest, seqcontest.cli, sys\n"
        "for extra in ([], ['--format', 'json'], ['--calibrate-from', '60']):\n"
        "    assert seqcontest.cli.main(['solve', '--seq', '1,2', *extra]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        "print(seqcontest.stats.wald_mean is seqcontest.wald_mean)\n"
    )
    assert fresh_python(code)[-2:] == ["[]", "True"]


def test_import_and_solve_load_only_the_solver():
    # behavior, simulate and stats (and numpy, which stats loads) resolve on
    # first use, so neither importing the package nor solving loads them
    code = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] in ('seqcontest', 'numpy'))\n"
        "import seqcontest\n"
        "print(loaded())\n"
        "import seqcontest.cli\n"
        "for extra in ([], ['--format', 'json'], ['--calibrate-from', '60']):\n"
        "    assert seqcontest.cli.main(['solve', '--seq', '1,2', *extra]) == 0\n"
        "print(loaded())\n"
        "print(seqcontest.act.__module__, seqcontest.load_log.__module__,"
        " seqcontest.simulate.__name__)\n"
    )
    lines = fresh_python(code)
    solver = ["seqcontest", "seqcontest.core", "seqcontest.equilibrium"]
    assert lines[0] == repr(solver)
    assert lines[-2] == repr(sorted([*solver, "seqcontest.cli"]))
    assert lines[-1] == "seqcontest.behavior seqcontest.simulate seqcontest.simulate"


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

    def test_unparseable_sequence_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--seq", "abc")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--prize", "nan", "--format", "json"], "prize must be finite"),
            (["--calibrate-from", "nan"], "finite positive"),
        ],
        ids=["prize-nan", "calibrate-from-nan"],
    )
    def test_non_finite_input_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "solve", "--seq", "1,2", *argv)
        assert code == 2
        assert message in err
        assert not out

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
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(tmp_path / "nope.json")
        )
        assert code == 2
        assert "error" in err

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
            ({"schema": 1, "sessions": [{"treatment": [3], "policies": [
                {"kind": "imitator", "fallback": True}] * 3}]},
             "fallback must be a number, got True"),
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
            ({"schema": True, "sessions": [{"treatment": [3], "policies": SPNE_POLICIES}]},
             "unsupported config schema True"),
            ({"schema": 1.0, "sessions": [{"treatment": [3], "policies": SPNE_POLICIES}]},
             "unsupported config schema 1.0"),
        ],
        ids=["empty-sessions", "top-level-list", "session-list", "treatment-int",
             "policy-int", "replications-list", "responder-without-model",
             "fourth-responder", "treatment-float", "groups-float", "seed-float",
             "replications-float", "integer-rounding-string", "prize-nan",
             "seed-negative", "prize-bool", "prize-string", "noise-sd-string",
             "fallback-bool", "top-level-unknown-key", "session-unknown-key",
             "policy-unknown-key", "leader-models-missing-stage", "leader-stage-key-fullwidth",
             "policy-kind-uppercase", "schema-true", "schema-float"],
    )
    def test_invalid_config_exits_2(self, capsys, tmp_path, raw, detail):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", "--config", str(bad), "--out", str(out_dir))
        assert code == 2
        assert err.startswith("error: invalid config: ")
        assert detail in err
        assert not out
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


# record cells a log must not coerce, by test id: each used to load
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
}


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
        "name, write",
        [
            ("schema.json", lambda log, bad: bad.write_text(
                '{"meta": {"schema": 99}, "records": []}'
            )),
            ("list.json", lambda log, bad: bad.write_text("[]")),
            ("null.json", _write_null_investment),
            ("short.csv", _write_short_csv_row),
            ("float.json", _write_bad_float),
            *[
                (f"meta.{fmt}", _write_meta(key, value, fmt))
                for fmt in ("json", "csv")
                for key, value in BAD_META.values()
            ],
            *[
                (f"record.{fmt}", _write_record(column, value, fmt))
                for column, value, fmt in BAD_RECORDS.values()
            ],
        ],
        ids=[
            "schema-99", "top-level-list", "null-cell", "short-csv-row", "bad-float",
            *[f"meta-{label}-{fmt}" for fmt in ("json", "csv") for label in BAD_META],
            *[f"record-{label}" for label in BAD_RECORDS],
        ],
    )
    def test_corrupt_log_exits_2(self, capsys, spne_run, tmp_path, name, write):
        bad = tmp_path / name
        write(spne_run[0], bad)
        code, _, err = run_cli(
            capsys, "analyze", str(bad), "--out", str(tmp_path / "x")
        )
        assert code == 2
        assert str(bad) in err

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
            "c661c56a41eb11893a86fcf595b57c2b300a93b0e9702fa1023a219f83e99aae",
        "session00_seq3.json":
            "628916b81ce5b48fe54eb1df4d40514473f0bf382efd5dd20d383d0901bab25e",
        "session01_seq1-2.csv":
            "579c76363ee95e3e5f62d089a7f706c75ad44bf7b0ec076dbf7ea6d6ff2d41c2",
        "session01_seq1-2.json":
            "4e3a6512c3c2cfc25a7d6de0cd9887cc2ccbf906be23c348c58673595afa9a88",
        "session02_seq2-1.csv":
            "7f48c1868bc905bbb03debcb885e66989222dc312972ef30721b9f88e995ebee",
        "session02_seq2-1.json":
            "2e7010add635543e42830b597e0b6a6a1d168f9ae55e5b99e951c5628f7183ad",
        "session03_seq1-1-1.csv":
            "9e514d6baf3ae1c32c9ae32274c8dec6b6c663eb07edc23d41a4d75a826c7ff8",
        "session03_seq1-1-1.json":
            "d76c899e0286a7cc63e89da605b48e7ee166d0b6db1029719f20878b73e66ee6",
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
            "1cb55cfbd930ded9283c27996acb1c9372d882770f751edbe096f12ddaab84d3",
        "session00_seq1-2.json":
            "453871991b2c1a9a6e50a0042815b653d681934c46e09cb5595d1444873a7e90",
        "session01_seq2-1.csv":
            "07c82cba2e89aafb97edf9dc8609ea69bb4dbcda641f6d5ed0e88bbbc2c0abc3",
        "session01_seq2-1.json":
            "bc152bbcd409415a8ed23a8c017a74961c95a99ce89fb329bef7b2d0982808af",
        "session02_seq1-1-1.csv":
            "cadaa5f05711d465b9e1452727cfe50641def9661fdbbb2988da5ef102261d49",
        "session02_seq1-1-1.json":
            "c526335012d26cb629d57002e32aa802b67509c810acb34bc7109bc9080166b3",
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
