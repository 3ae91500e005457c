"""Tests for the command-line interface (driven through main())."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import seqcontest
from seqcontest import stats
from seqcontest.cli import main
from seqcontest.simulate import export_log, load_log


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


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only oracle: a fresh process importing the package and
    # its CLI must not load it
    src = os.path.dirname(os.path.dirname(seqcontest.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import seqcontest, seqcontest.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


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
        "raw",
        [
            {"schema": 1, "sessions": []},
            [],
            {"schema": 1, "sessions": [[1]]},
            {"schema": 1, "sessions": [{"treatment": 3, "policies": SPNE_POLICIES}]},
            {"schema": 1, "sessions": [{"treatment": [3], "policies": [1, 2, 3]}]},
            {
                "schema": 1,
                "replications": [2],
                "sessions": [{"treatment": [3], "policies": SPNE_POLICIES}],
            },
        ],
        ids=["empty-sessions", "top-level-list", "session-list", "treatment-int",
             "policy-int", "replications-list"],
    )
    def test_invalid_config_exits_2(self, capsys, tmp_path, raw):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "simulate", "--config", str(bad))
        assert code == 2
        assert err.startswith("error: invalid config: ")
        assert not out

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
        ],
        ids=["schema-99", "top-level-list", "null-cell", "short-csv-row", "bad-float"],
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
