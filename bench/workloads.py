"""The benchmark's three workloads and the traced layer probe.

Each workload runs in a closed loop with one client until its time is up and
returns an ``Outcome``: its end-to-end figures, the operations it attempted
and the ones whose outputs failed a check. Timed regions hold only calls into
seqcontest (or whole CLI processes); building inputs and checking outputs
happen outside them. Every timed region is paired with ``Gauge`` readings
and its time is kept at reference speed (see gauge.py); raw times are kept
only for the report line.

* ``cli_pipeline`` runs fresh ``python -m seqcontest.cli`` processes one at
  a time: ``solve`` for the four treatments (text, JSON or calibrated, in
  turn), then simulate, analyze (JSON logs) and analyze (CSV logs).
* ``power_study`` runs seeded replications of a Monte Carlo power analysis in
  process: both presets' sessions (noisy, rounded responders in the
  preemption sessions), then the inference on their logs.
* ``design_sweep`` solves every move sequence of 2-12 players with a cold
  solver cache and optimises preemption over a grid of joy-of-winning values.

In a traced run, every other repeated call runs with the span wrappers on, so
the difference between traced and untraced calls is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import seqcontest
from seqcontest import behavior, equilibrium, simulate, stats
from seqcontest.core import ContestSpec, MoveSequence

import checks
from gauge import Gauge
from spans import SpanRecorder, SpanTable, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PRESETS = os.path.join(SRC, "seqcontest", "presets")
LAUNCHER = os.path.join(HERE, "launch.py")

TREATMENTS = ((3,), (1, 2), (2, 1), (1, 1, 1))
SEQUENTIAL = ((1, 2), (2, 1), (1, 1, 1))
PRIZE = ENDOWMENT = 240.0
RESPONDER_NOISE_SD = 25.0
CLI_TIMEOUT_S = 60


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    # Times at reference speed (gauge.py), except raw_call_s.
    call_s: list[float] = field(default_factory=list)  # the repeated call
    raw_call_s: list[float] = field(default_factory=list)
    aux_s: list[float] = field(default_factory=list)  # the second call kind
    work_units: float = 0.0
    work_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    named: dict = field(default_factory=dict)  # figures under their specified names, with units
    info: dict = field(default_factory=dict)
    # traced runs only
    recorder: SpanRecorder | None = None
    traced_call_s: list[float] = field(default_factory=list)
    untraced_call_s: list[float] = field(default_factory=list)
    layer_extra: dict = field(default_factory=dict)

    def operation(self, fails: list[str]) -> bool:
        self.attempted += 1
        if fails:
            self.failed += 1
            self.failures.extend(fails[:3])
        return not fails


def median(values: list[float]) -> float | None:
    """Median, or None when a failed check left nothing to measure."""
    return statistics.median(values) if values else None


def p90(values: list[float]) -> float | None:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10)[8]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SEQCONTEST_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def clear_solver_caches() -> None:
    """Empty every memo cache of the equilibrium module, whatever its name."""
    for obj in vars(equilibrium).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


def spne_aggregates() -> dict[tuple[int, ...], float]:
    """Equilibrium aggregate investment of each treatment, in points."""
    return {t: equilibrium.solve_spne(ContestSpec(MoveSequence(t), PRIZE, ENDOWMENT, 0.0)).scaled_aggregate
            for t in TREATMENTS}


def preset_sessions(name: str) -> list[dict]:
    with open(os.path.join(PRESETS, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)["sessions"]


def seeded(sessions: list[dict], rng: np.random.Generator) -> list[dict]:
    out = []
    for entry in sessions:
        entry = json.loads(json.dumps(entry))
        entry["seed"] = int(rng.integers(1, 2**31))
        out.append(entry)
    return out


def noisy_preemption_sessions(rng: np.random.Generator) -> list[dict]:
    """``empirical_preemption`` with noisy responders and whole-point play."""
    sessions = seeded(preset_sessions("empirical_preemption"), rng)
    for entry in sessions:
        entry["integer_rounding"] = True
        for policy in entry["policies"]:
            if policy["kind"] == "responder":
                policy["noise_sd"] = RESPONDER_NOISE_SD
    return sessions


class SessionChecker:
    """Checks logs against the session entries that produced them."""

    def __init__(self, reference: dict):
        self.reference = reference
        self._leader: dict = {}
        self.max_abs_err = 0.0

    def leader_value(self, stages, jow) -> tuple[float, list[str]]:
        key = (stages, jow)
        if key not in self._leader:
            seq = MoveSequence(stages)
            models = behavior.default_response_models(seq)
            x = behavior.optimal_first_mover(seq, models, PRIZE, jow, ENDOWMENT).investment
            want = checks.preemption_optimum(stages, models, PRIZE, jow, ENDOWMENT)
            self._leader[key] = (x, checks.check_preemption(stages, x, want))
        return self._leader[key]

    def solver_values(self, stages) -> tuple[tuple[float, ...], list[str]]:
        sol = equilibrium.solve_spne(ContestSpec(MoveSequence(stages), PRIZE, ENDOWMENT, 0.0))
        err = checks.solution_error(stages, sol.aggregate, sol.stage_investments, self.reference)
        self.max_abs_err = max(self.max_abs_err, err)
        fails = checks.check_solution(stages, sol.aggregate, sol.stage_investments, self.reference)
        return sol.scaled_stage_investments, fails

    def check(self, log, entry: dict) -> list[str]:
        stages = tuple(entry["treatment"])
        kinds = [p["kind"] for p in entry["policies"]]
        fails: list[str] = []
        spne = leader = None
        if all(k == "spne" for k in kinds):
            spne, f = self.solver_values(stages)
            fails += f
        if kinds[0] == "optimizing-leader":
            leader, f = self.leader_value(stages, float(entry["policies"][0]["joy_of_winning"]))
            fails += f
        return fails + checks.check_session_log(
            log,
            groups=int(entry["groups"]),
            rounds=int(entry["rounds"]),
            prize=float(entry["prize"]),
            endowment=float(entry["endowment"]),
            integer_rounding=bool(entry.get("integer_rounding", False)),
            spne_stage_values=spne,
            leader_value=leader,
        )


def triad_totals(log) -> tuple[list[float], list[int]]:
    totals: dict[tuple[int, int, int], float] = {}
    for r in log.records:
        key = (r.group, r.round, r.triad)
        totals[key] = totals.get(key, 0.0) + r.investment
    keys = sorted(totals)
    return [totals[k] for k in keys], [k[0] for k in keys]


def inference_expectation(logs) -> dict:
    """What ``analyze`` should report for these logs, computed in process."""
    summaries = stats.treatment_summary(logs)
    out = {
        "summary": [
            list(zip(s.role_means, s.role_ses)) + [(s.aggregate_mean, s.aggregate_se)]
            for s in summaries
        ],
        "trend": [],
        "wald": [],
    }
    for log in logs:
        fit = stats.trend_by_round(log.records)
        out["trend"].append((float(fit.params[1]), float(fit.se[1])))
        h0 = ContestSpec(log.sequence, log.spec.prize, log.spec.endowment, 0.0)
        res = stats.wald_mean(*triad_totals(log), equilibrium.solve_spne(h0).scaled_aggregate)
        out["wald"].append((res.statistic, res.pvalue))
    jt = stats.jonckheere_terpstra([stats.group_aggregate_means(log) for log in logs])
    out["jt"] = (jt.statistic, jt.pvalue)
    return out


# ---------------------------------------------------------------------------
# cli_pipeline
# ---------------------------------------------------------------------------


class CliRunner:
    """Runs one seqcontest process at a time, traced through the launcher
    when asked, and keeps the spans of the traced ones. ``run`` returns the
    process, its raw wall time and its time at reference speed."""

    def __init__(self, workdir: str, recorder: SpanRecorder | None, gauge: Gauge):
        self.workdir = workdir
        self.recorder = recorder
        self.gauge = gauge
        self.env = child_env()
        self.count = 0
        self.busy_s = 0.0
        self.cli_self_s: list[float] = []

    def run(self, argv: list[str], traced: bool):
        self.count += 1
        spans_path = os.path.join(self.workdir, f"spans-{self.count}.npz")
        if traced:
            cmd = [sys.executable, LAUNCHER, spans_path, *argv]
        else:
            cmd = [sys.executable, "-m", "seqcontest.cli", *argv]
        proc, raw, wall = self.gauge.time(
            lambda: subprocess.run(cmd, env=self.env, cwd=self.workdir, capture_output=True,
                                   text=True, timeout=CLI_TIMEOUT_S))
        self.busy_s += wall
        if traced and os.path.isfile(spans_path):
            data = SpanRecorder.load(spans_path)
            os.remove(spans_path)
            table = SpanTable(data)
            self.cli_self_s.append(float(table.self_time[table.mask("cli.main")].sum()))
            self.recorder.extend(data, run_id=self.count)
        return proc, raw, wall


def _parse_text_solution(text: str) -> tuple[float | None, list[float], float | None]:
    aggregate, stages, jow = None, [], None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("aggregate investment X = "):
            aggregate = float(line.rsplit("=", 1)[1])
        elif line.startswith("stage "):
            stages.append(float(line.split(":")[1].split()[0]))
        elif line.startswith("calibrated joy of winning w = "):
            jow = float(line.split("=")[1].split()[0])
    return aggregate, stages, jow


def check_solve_output(stages, variant, mean, proc, reference) -> list[str]:
    if proc.returncode != 0:
        return [f"solve ({checks.label(stages)}) {variant} exited {proc.returncode}: "
                f"{proc.stderr.strip()[-200:]}"]
    ref = reference["solutions"][checks.label(stages)]
    if variant == "json":
        try:
            out = json.loads(proc.stdout)
            fails = checks.check_solution(stages, out["normalized_aggregate"],
                                          out["normalized_stage_investments"], reference)
            if abs(out["aggregate"] - PRIZE * ref["X"]) > PRIZE * checks.SOLUTION_TOL:
                fails.append(f"solve ({checks.label(stages)}) json aggregate {out['aggregate']}")
            if len(out["per_player_investments"]) != sum(stages):
                fails.append(f"solve ({checks.label(stages)}) json per-player list")
            return fails
        except (ValueError, KeyError, TypeError) as exc:
            return [f"solve ({checks.label(stages)}) json unreadable: {exc}"]
    aggregate, stage_values, jow = _parse_text_solution(proc.stdout)
    scale = PRIZE
    fails = []
    if variant == "calibrate":
        n = sum(stages)
        want_jow = max(0.0, n * n * mean / (n - 1) - PRIZE)
        if jow is None or abs(jow - want_jow) > 0.005 + 1e-9:
            fails.append(f"solve ({checks.label(stages)}) calibrated w {jow}, want {want_jow:.4f}")
        scale = PRIZE + want_jow
    want = [scale * ref["X"]] + [scale * x for x in ref["stages"]]
    got = [aggregate] + stage_values
    if len(got) != len(want) or any(g is None or abs(g - w) > 0.005 + 1e-6 for g, w in zip(got, want)):
        fails.append(f"solve ({checks.label(stages)}) {variant}: printed {got}, want {want}")
    return fails


def cli_pipeline(ctx) -> Outcome:
    out = Outcome()
    rng = np.random.default_rng([ctx.seed, 11])
    means = {t: round(float(rng.uniform(60.0, 100.0)), 2) for t in TREATMENTS}
    sessions = seeded(preset_sessions("spne_all_treatments"), rng)
    sessions += seeded(preset_sessions("empirical_preemption"), rng)
    checker = SessionChecker(ctx.reference)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=ctx.out_dir)
    config_path = os.path.join(workdir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump({"schema": 1, "replications": 1, "sessions": sessions}, fh)
    recorder = SpanRecorder() if ctx.trace else None
    cli = CliRunner(workdir, recorder, ctx.gauge)
    variants = ("text", "json", "calibrate")
    expected_logs = len(sessions) * 2
    sim_s, an_json_s, an_csv_s = [], [], []
    log_bytes = {"json": [], "csv": []}

    def run(argv, traced):
        ctx.setup.poll()
        return cli.run(argv, traced=traced)

    # Each treatment once per cycle, its variant turning with the cycle, so
    # a round of three cycles runs all twelve solve commands. Runs end on
    # the round boundary nearest to --seconds, so every run has the same mix
    # of processes.
    t_start = time.perf_counter()
    cycle = 0

    def another_cycle() -> bool:
        rounds, partial = divmod(cycle, len(variants))
        elapsed = time.perf_counter() - t_start
        return partial > 0 or rounds == 0 or elapsed + elapsed / rounds / 2 < ctx.seconds

    try:
        while another_cycle():
            for i, stages in enumerate(TREATMENTS):
                variant = variants[(cycle + i) % len(variants)]
                argv = ["solve", "--seq", ",".join(map(str, stages))]
                if variant == "json":
                    argv += ["--format", "json"]
                elif variant == "calibrate":
                    argv += ["--calibrate-from", str(means[stages])]
                traced = ctx.trace and len(out.call_s) % 2 == 0
                proc, raw, wall = run(argv, traced=traced)
                out.call_s.append(wall)
                out.raw_call_s.append(raw)
                if ctx.trace:
                    (out.traced_call_s if traced else out.untraced_call_s).append(wall)
                out.operation(check_solve_output(stages, variant, means[stages], proc, ctx.reference))

            runs = os.path.join(workdir, f"runs{cycle}")
            proc, _, wall = run(["simulate", "--config", config_path, "--out", runs,
                                 "--format", "both"], traced=ctx.trace)
            sim_s.append(wall)
            fails = [] if proc.returncode == 0 else [f"simulate exited {proc.returncode}: {proc.stderr[-200:]}"]
            logs_json, logs_csv = [], []
            if not fails:
                names = sorted(os.listdir(runs))
                json_paths = [os.path.join(runs, n) for n in names if n.startswith("session") and n.endswith(".json")]
                csv_paths = [os.path.join(runs, n) for n in names if n.startswith("session") and n.endswith(".csv")]
                if len(json_paths) + len(csv_paths) != expected_logs or "manifest.json" not in names:
                    fails.append(f"simulate wrote {names}")
                else:
                    for p in json_paths:
                        log_bytes["json"].append(os.path.getsize(p))
                    for p in csv_paths:
                        log_bytes["csv"].append(os.path.getsize(p))
                    logs_json = [simulate.load_log(p) for p in json_paths]
                    logs_csv = [simulate.load_log(p) for p in csv_paths]
                    for entry, lj, lc in zip(sessions, logs_json, logs_csv):
                        fails += checker.check(lj, entry)
                        fails += checks.check_same_records(lj, lc, "JSON vs CSV log")
            if out.operation(fails):
                dirs = {}
                for fmt, paths, times in (("json", json_paths, an_json_s),
                                          ("csv", csv_paths, an_csv_s)):
                    dirs[fmt] = os.path.join(workdir, f"analysis{cycle}-{fmt}")
                    proc, _, wall = run(["analyze", *paths, "--out", dirs[fmt]], traced=ctx.trace)
                    times.append(wall)
                    fails = [] if proc.returncode == 0 else [f"analyze {fmt} exited {proc.returncode}: {proc.stderr[-200:]}"]
                    if fmt == "csv" and not fails:
                        fails = checks.check_analyze_outputs(dirs["json"], dirs["csv"],
                                                             inference_expectation(logs_json))
                    out.operation(fails)
                out.aux_s.append(sim_s[-1] + an_json_s[-1] + an_csv_s[-1])
                for d in dirs.values():
                    shutil.rmtree(d, ignore_errors=True)
            shutil.rmtree(runs, ignore_errors=True)

            cycle += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out.work_units = cli.count
    out.work_s = cli.busy_s
    out.named = {
        "solve_cli_p50_s": (median(out.call_s), "s"),
        "solve_cli_p90_s": (p90(out.call_s), "s"),
        "simulate_cli_s": (median(sim_s), "s"),
        "analyze_json_cli_s": (median(an_json_s), "s"),
        "analyze_csv_cli_s": (median(an_csv_s), "s"),
    }
    out.info = {"solve_processes": len(out.call_s), "pipeline_cycles": cycle,
                "cli_processes": cli.count}
    if ctx.trace:
        out.recorder = recorder
        out.layer_extra = {"cli.self_ms": 1e3 * median(cli.cli_self_s),
                           "equilibrium.max_abs_err": checker.max_abs_err}
        for fmt, sizes in log_bytes.items():
            out.layer_extra[f"simulate.log_bytes.{fmt}"] = median(sizes)
    return out


# ---------------------------------------------------------------------------
# power_study
# ---------------------------------------------------------------------------


def run_inference(logs, spne_logs, noisy_logs, totals) -> dict:
    """The replication's analysis, all through seqcontest.stats."""
    summaries = stats.treatment_summary(logs)
    trends = [stats.trend_by_round(log) for log in logs]
    walds = [stats.wald_mean(values, groups, h0) for values, groups, h0 in totals]
    jt_spne = stats.jonckheere_terpstra([stats.group_aggregate_means(log) for log in spne_logs])
    jt_noisy = stats.jonckheere_terpstra([stats.group_aggregate_means(log) for log in noisy_logs])
    return {"summaries": summaries, "trends": trends, "walds": walds,
            "jt_spne": jt_spne, "jt_noisy": jt_noisy}


def check_inference(result, totals) -> list[str]:
    fails = []
    for s, (values, _, _) in zip(result["summaries"], totals):
        if abs(s.aggregate_mean - float(np.mean(values))) > 1e-9 * max(1.0, abs(s.aggregate_mean)):
            fails.append(f"summary aggregate {s.aggregate_mean} vs mean of triad totals")
    for w, (values, _, _) in zip(result["walds"], totals):
        if abs(w.mean - float(np.mean(values))) > 1e-9 * max(1.0, abs(w.mean)) or not 0.0 <= w.pvalue <= 1.0:
            fails.append(f"wald result {w}")
    for jt in (result["jt_spne"], result["jt_noisy"]):
        if not 0.0 <= jt.pvalue <= 1.0:
            fails.append(f"JT p-value {jt.pvalue}")
    for fit in result["trends"]:
        if not np.all(np.isfinite(fit.params)):
            fails.append(f"trend fit {fit.params}")
    return fails


def power_study(ctx) -> Outcome:
    out = Outcome()
    rng = np.random.default_rng([ctx.seed, 22])
    checker = SessionChecker(ctx.reference)
    h0 = spne_aggregates()
    recorder = SpanRecorder() if ctx.trace else None
    tracer = Tracer(recorder) if ctx.trace else None
    rejections = {t: 0 for t in SEQUENTIAL}
    jt_rejections = 0
    reps = 0
    t_start = time.perf_counter()
    while reps < 2 or time.perf_counter() - t_start < ctx.seconds:
        ctx.setup.poll()
        spne_entries = seeded(preset_sessions("spne_all_treatments"), rng)
        noisy_entries = noisy_preemption_sessions(rng)
        entries = spne_entries + noisy_entries
        configs = [simulate.session_config_from_dict(e) for e in entries]
        triad_rounds = sum(int(e["groups"]) * int(e["rounds"]) * 3 for e in entries)
        traced = ctx.trace and reps % 2 == 0
        gc.collect()  # start each replication from the same heap state
        if traced:
            recorder.run_id = reps
            tracer.install()
        try:
            before = ctx.gauge.read()
            t0 = time.perf_counter()
            logs = simulate.run_batch(configs)
            t1 = time.perf_counter()
            totals = [(*triad_totals(log), h0[tuple(e["treatment"])]) for log, e in zip(logs, entries)]
            t2 = time.perf_counter()
            result = run_inference(logs, logs[: len(spne_entries)], logs[len(spne_entries):], totals)
            t3 = time.perf_counter()
            scale = ctx.gauge.scale(before, ctx.gauge.read())
        finally:
            if traced:
                tracer.uninstall()
        reps += 1
        raw = (t1 - t0) + (t3 - t2)
        call = raw * scale
        out.call_s.append(call)
        out.raw_call_s.append(raw)
        out.aux_s.append((t3 - t2) * scale)
        out.work_units += triad_rounds
        out.work_s += (t1 - t0) * scale
        if ctx.trace:
            (out.traced_call_s if traced else out.untraced_call_s).append(call)

        fails = []
        for log, entry in zip(logs, entries):
            fails += checker.check(log, entry)
        fails += check_inference(result, totals)
        out.operation(fails)
        for w, e in zip(result["walds"][len(spne_entries):], noisy_entries):
            rejections[tuple(e["treatment"])] += w.pvalue < 0.05
        jt_rejections += result["jt_noisy"].pvalue < 0.05

    out.named = {
        "power_sim_triad_rounds_per_s": (out.work_units / out.work_s, "1/s"),
        "power_reps_per_s": (reps / sum(out.call_s), "1/s"),
    }
    out.info = {
        "replications": reps,
        "triad_rounds_per_replication": int(out.work_units // reps),
        "power_wald_vs_spne": {checks.label(t): n / reps for t, n in rejections.items()},
        "power_jt_sequential": jt_rejections / reps,
    }
    if ctx.trace:
        out.recorder = recorder
        out.layer_extra = {"equilibrium.max_abs_err": checker.max_abs_err}
    return out


# ---------------------------------------------------------------------------
# design_sweep
# ---------------------------------------------------------------------------


def long_sequence_errors(reference) -> dict[str, float]:
    """Normalised error of each long sequence (inf when the solver raises)."""
    errors = {}
    for lab in reference["long_sequences"]:
        stages = tuple(int(k) for k in lab.split(","))
        try:
            sol = equilibrium.solve_spne(ContestSpec(MoveSequence(stages)))
            errors[lab] = checks.solution_error(stages, sol.aggregate, sol.stage_investments, reference)
        except seqcontest.ContestError:
            errors[lab] = float("inf")
    return errors


def design_sweep(ctx) -> Outcome:
    out = Outcome()
    rng = np.random.default_rng([ctx.seed, 33])
    long_set = set(ctx.reference["long_sequences"])
    labels = [lab for lab in ctx.reference["solutions"] if lab not in long_set]
    order = rng.permutation(len(labels))
    stages_list = [tuple(int(k) for k in labels[i].split(",")) for i in order]
    specs = [ContestSpec(MoveSequence(s)) for s in stages_list]
    jows = [20.0 * k + float(rng.uniform(0.0, 20.0)) for k in range(12)]
    grid = []
    for stages in SEQUENTIAL:
        seq = MoveSequence(stages)
        models = behavior.default_response_models(seq)
        for jow in jows:
            grid.append((stages, seq, models, jow,
                         checks.preemption_optimum(stages, models, PRIZE, jow, ENDOWMENT)))
    stride = -(-len(specs) // len(grid))  # solves per preemption optimum, rounded up
    recorder = SpanRecorder() if ctx.trace else None
    tracer = Tracer(recorder) if ctx.trace else None
    max_err = 0.0
    long_wrong = set()
    preempt_s = []
    passes = 0
    t_start = time.perf_counter()
    while passes < 2 or time.perf_counter() - t_start < ctx.seconds:
        ctx.setup.poll()
        clear_solver_caches()
        gc.collect()
        traced = ctx.trace and passes % 2 == 0
        if traced:
            recorder.run_id = passes
            tracer.install()
        solve = equilibrium.solve_spne
        results = []
        pass_call_s = []
        optima = []
        try:
            # One preemption optimum after each chunk of solves, so both
            # kinds of call are timed all through the pass. Each chunk is
            # scaled by the gauge readings on either side of it.
            before = ctx.gauge.read()
            for k, (stages, seq, models, jow, _) in enumerate(grid):
                chunk_s = []
                for spec in specs[k * stride:(k + 1) * stride]:
                    t0 = time.perf_counter()
                    try:
                        sol = solve(spec)
                    except seqcontest.ContestError as exc:
                        sol = exc
                    chunk_s.append(time.perf_counter() - t0)
                    results.append(sol)
                t0 = time.perf_counter()
                res = behavior.optimal_first_mover(seq, models, PRIZE, jow, ENDOWMENT)
                preempt = time.perf_counter() - t0
                after = ctx.gauge.read()
                scale = ctx.gauge.scale(before, after)
                before = after
                out.raw_call_s += chunk_s
                pass_call_s += [t * scale for t in chunk_s]
                preempt_s.append(preempt * scale)
                optima.append(res.investment)
            long_errors = long_sequence_errors(ctx.reference)
        finally:
            if traced:
                tracer.uninstall()
        passes += 1
        out.call_s += pass_call_s
        out.work_s += sum(pass_call_s)
        out.work_units += len(pass_call_s)
        if ctx.trace:
            (out.traced_call_s if traced else out.untraced_call_s).append(sum(pass_call_s))

        for stages, sol in zip(stages_list, results):
            if isinstance(sol, Exception):
                max_err = float("inf")
                out.operation([f"solve ({checks.label(stages)}) raised {sol!r}"])
                continue
            err = checks.solution_error(stages, sol.aggregate, sol.stage_investments, ctx.reference)
            max_err = max(max_err, err)
            out.operation(checks.check_solution(stages, sol.aggregate, sol.stage_investments, ctx.reference))
        for (stages, _, _, _, want), x in zip(grid, optima):
            out.operation(checks.check_preemption(stages, x, want))
        long_wrong |= {lab for lab, err in long_errors.items() if not err <= checks.SOLUTION_TOL}
    out.aux_s = preempt_s

    out.named = {
        "sweep_solves_per_s": (out.work_units / out.work_s, "1/s"),
        "sweep_preemptions_per_s": (len(preempt_s) / sum(preempt_s), "1/s"),
    }
    out.info = {
        "passes": passes,
        "sequences_per_pass": len(specs),
        "preemptions_per_pass": len(grid),
        "max_abs_err": max_err,
        "known_defects": {
            "long_sequences_wrong": len(long_wrong),
            "long_sequences_checked": len(long_set),
            "labels": sorted(long_wrong),
        },
    }
    if ctx.trace:
        out.recorder = recorder
        out.layer_extra = {"equilibrium.max_abs_err": max_err,
                           "equilibrium.long_seq_wrong": float(len(long_wrong))}
    return out


WORKLOADS = {
    "cli_pipeline": cli_pipeline,
    "power_study": power_study,
    "design_sweep": design_sweep,
}
