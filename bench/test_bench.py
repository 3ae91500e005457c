"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The quick runs call the real command with one-second workloads and check
that every metric BENCHMARK.json names is emitted with its unit; the other
tests feed deliberately wrong values to the correctness checks.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from seqcontest import ContestSpec, MoveSequence, simulate  # noqa: E402
from seqcontest.cli import main as cli_main  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
REFERENCE = checks.load_reference()


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return report, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_run_emits_every_metric_with_its_unit(workload, trace):
    report, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert len(report["setup_samples_s"]) == run.SETUP_RUNS


def test_metric_lists_match_benchmark_json():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert layers.LAYER_METRICS == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(run.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "design_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# The checks flag wrong values
# ---------------------------------------------------------------------------


def test_solution_check_flags_a_wrong_stage_investment():
    ref = REFERENCE["solutions"]["1,2"]
    assert checks.check_solution((1, 2), ref["X"], ref["stages"], REFERENCE) == []
    wrong = [ref["stages"][0] + 1e-5, ref["stages"][1]]
    assert checks.check_solution((1, 2), ref["X"], wrong, REFERENCE)
    assert checks.check_solution((1, 2), float("nan"), ref["stages"], REFERENCE)


def _spne_log():
    entry = wl.preset_sessions("spne_all_treatments")[1]
    entry = dict(entry, groups=2, rounds=3)
    log = simulate.run_session(simulate.session_config_from_dict(entry))
    return log, entry


def test_session_check_passes_a_true_log_and_flags_tampering():
    log, entry = _spne_log()
    checker = wl.SessionChecker(REFERENCE)
    assert checker.check(log, entry) == []

    first = log.records[0]
    tampered = [
        dataclasses.replace(first, investment=first.investment + 1.0),
        dataclasses.replace(first, won=not first.won),
        dataclasses.replace(first, payoff=first.payoff + 1.0),
    ]
    for bad in tampered:
        log.records[0] = bad
        assert checker.check(log, entry), bad
    log.records[0] = first
    del log.records[-1]
    assert checker.check(log, entry)


def test_rounded_leader_check_flags_an_off_by_one_leader():
    sessions = wl.noisy_preemption_sessions(np.random.default_rng(1))
    entry = dict(sessions[0], groups=1, rounds=2)
    log = simulate.run_session(simulate.session_config_from_dict(entry))
    checker = wl.SessionChecker(REFERENCE)
    assert checker.check(log, entry) == []
    idx = next(i for i, r in enumerate(log.records) if r.stage == 1)
    log.records[idx] = dataclasses.replace(log.records[idx],
                                           investment=log.records[idx].investment + 1.0)
    assert any("leader" in f for f in checker.check(log, entry))


def test_preemption_check_flags_a_wrong_optimum():
    seq = MoveSequence((1, 2))
    models = wl.behavior.default_response_models(seq)
    x = wl.behavior.optimal_first_mover(seq, models, 240.0, 50.0, 240.0).investment
    want = checks.preemption_optimum((1, 2), models, 240.0, 50.0, 240.0)
    assert checks.check_preemption((1, 2), x, want) == []
    assert checks.check_preemption((1, 2), x + 0.01, want)


def test_solve_output_check_flags_a_wrong_printed_value():
    class Proc:
        returncode = 0
        stderr = ""
        stdout = "sequence (1,2)  prize 240  joy of winning 0\naggregate investment X = 180.00\n" \
                 "  stage 1: 90.00 per player (1 player(s))\n  stage 2: 45.00 per player (2 player(s))\n"

    assert wl.check_solve_output((1, 2), "text", 80.0, Proc, REFERENCE) == []
    Proc.stdout = Proc.stdout.replace("90.00", "90.02")
    assert wl.check_solve_output((1, 2), "text", 80.0, Proc, REFERENCE)


def test_analyze_check_flags_a_changed_summary(tmp_path):
    log, _ = _spne_log()
    logs = [log, log, log]
    expected = wl.inference_expectation(logs)
    for fmt in ("json", "csv"):
        paths = []
        for i, one in enumerate(logs):
            path = str(tmp_path / f"log{i}.{fmt}")
            simulate.export_log(one, fmt, path)
            paths.append(path)
        assert cli_main(["analyze", *paths, "--out", str(tmp_path / fmt)]) == 0
    assert checks.check_analyze_outputs(str(tmp_path / "json"), str(tmp_path / "csv"), expected) == []
    wrong = json.loads(json.dumps(expected))
    wrong["summary"][0][0] = [wrong["summary"][0][0][0] + 0.5, wrong["summary"][0][0][1]]
    assert checks.check_analyze_outputs(str(tmp_path / "json"), str(tmp_path / "csv"), wrong)
    (tmp_path / "csv" / "summary.csv").write_text("treatment,role,mean,se\n")
    assert checks.check_analyze_outputs(str(tmp_path / "json"), str(tmp_path / "csv"), expected)


def test_import_seconds_charges_lazy_scipy_stats_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |           numpy.linalg",
        "import time:       400 |        450 |       scipy.stats._stats_py",
        "import time:        10 |         10 |       scipy.stats._morestats",
        "import time:       600 |       1060 |     seqcontest.stats",
        "import time:        40 |       1400 | seqcontest",
    ])
    seconds = layers._import_seconds(stderr)
    assert seconds["import.seqcontest_s"] == pytest.approx(1400e-6)
    assert seconds["import.numpy_s"] == pytest.approx(300e-6)
    assert seconds["import.scipy_stats_s"] == pytest.approx(460e-6)
    assert seconds["import.scipy_optimize_s"] == 0.0


def test_layer_metrics_from_spans_separate_cold_and_warm_solves():
    from spans import SpanRecorder, SpanTable, Tracer

    rec = SpanRecorder()
    wl.clear_solver_caches()
    spec = ContestSpec(MoveSequence((2, 1, 1)))
    with Tracer(rec):
        wl.equilibrium.solve_spne(spec)
        wl.equilibrium.solve_spne(spec)
    found = layers.from_spans(SpanTable(rec.to_arrays()))
    assert found["equilibrium.solve_spne_cold_us"] > found["equilibrium.solve_spne_warm_us"] > 0
    assert wl.equilibrium.solve_spne.__module__ == "seqcontest.equilibrium"
    assert not hasattr(wl.equilibrium.solve_spne, "__wrapped__")
