"""Per-layer metrics of a traced run.

Layer figures come from the spans of the traced workload. A workload that
never calls a layer (``design_sweep`` runs no sessions, ``power_study``
writes no logs) gets that layer's figures from a short traced probe that
calls each module PROBE_RUNS times the way ``cli_pipeline`` does and takes
the median; the result says which figures came from the probe. Import times
come from ``python -X importtime`` in fresh processes.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile

import numpy as np

from seqcontest import stats

import workloads as wl
from spans import SpanRecorder, SpanTable, Tracer

# name -> unit; every name is reported by every traced run.
LAYER_METRICS = {
    "import.seqcontest_s": "s",
    "import.scipy_optimize_s": "s",
    "import.scipy_stats_s": "s",
    "import.numpy_s": "s",
    "equilibrium.solve_spne_cold_us": "us",
    "equilibrium.solve_spne_warm_us": "us",
    "equilibrium.build_ladder_us": "us",
    "equilibrium.largest_root_us": "us",
    "equilibrium.solve_calls_per_triad_round": "count",
    "equilibrium.max_abs_err": "1",
    "equilibrium.long_seq_wrong": "count",
    "behavior.act_us.spne": "us",
    "behavior.act_us.responder": "us",
    "behavior.act_us.leader": "us",
    "behavior.act_calls_per_triad_round": "count",
    "behavior.eval_response_us": "us",
    "behavior.optimal_first_mover_ms.1-2": "ms",
    "behavior.optimal_first_mover_ms.2-1": "ms",
    "behavior.optimal_first_mover_ms.1-1-1": "ms",
    "core.draw_winner_us": "us",
    "core.round_payoffs_us": "us",
    "core.win_probabilities_us": "us",
    "core.calls_per_triad_round": "count",
    "simulate.play_round_self_us": "us",
    "simulate.run_session_ms.3": "ms",
    "simulate.run_session_ms.1-2": "ms",
    "simulate.run_session_ms.2-1": "ms",
    "simulate.run_session_ms.1-1-1": "ms",
    "simulate.export_log_ms.json": "ms",
    "simulate.export_log_ms.csv": "ms",
    "simulate.load_log_ms.json": "ms",
    "simulate.load_log_ms.csv": "ms",
    "simulate.log_bytes.json": "B",
    "simulate.log_bytes.csv": "B",
    "stats.treatment_summary_ms": "ms",
    "stats.trend_by_round_ms": "ms",
    "stats.wald_mean_us": "us",
    "stats.cluster_ols_us": "us",
    "stats.jonckheere_terpstra_us": "us",
    "stats.group_aggregate_means_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_pct": "%",
}
PROBE_RUNS = 5
_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}
IMPORT_NAMES = {
    "import.seqcontest_s": "seqcontest",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.scipy_stats_s": "scipy.stats",
    "import.numpy_s": "numpy",
}


def from_spans(table: SpanTable) -> dict[str, float]:
    """Every layer figure the spans can give."""
    out: dict[str, float] = {}

    def put(metric, seconds):
        if seconds is not None:
            out[metric] = seconds * _SCALE[LAYER_METRICS[metric]]

    def median_of(mask):
        return float(np.median(table.dur[mask])) if mask.any() else None

    solve = table.mask("equilibrium.solve_spne")
    cold = table.children_named(solve, "equilibrium.build_ladder")
    put("equilibrium.solve_spne_cold_us", median_of(cold))
    put("equilibrium.solve_spne_warm_us", median_of(solve & ~cold))
    put("equilibrium.build_ladder_us", table.median("equilibrium.build_ladder"))
    put("equilibrium.largest_root_us", table.median("equilibrium.largest_root"))
    for kind in ("spne", "responder", "leader"):
        put(f"behavior.act_us.{kind}", table.median(f"behavior.act.{kind}"))
    put("behavior.eval_response_us", table.median("behavior.eval_response"))
    for lab in ("1-2", "2-1", "1-1-1"):
        put(f"behavior.optimal_first_mover_ms.{lab}",
            table.median(f"behavior.optimal_first_mover.{lab}"))
    for fn in ("draw_winner", "round_payoffs", "win_probabilities"):
        put(f"core.{fn}_us", table.median(f"core.{fn}"))
    put("simulate.play_round_self_us", table.median("simulate.play_round", self_time=True))
    for lab in ("3", "1-2", "2-1", "1-1-1"):
        put(f"simulate.run_session_ms.{lab}", table.median(f"simulate.run_session.{lab}"))
    for fmt in ("json", "csv"):
        put(f"simulate.export_log_ms.{fmt}", table.median(f"simulate.export_log.{fmt}"))
        put(f"simulate.load_log_ms.{fmt}", table.median(f"simulate.load_log.{fmt}"))
    for fn, unit in (("treatment_summary", "ms"), ("trend_by_round", "ms"), ("wald_mean", "us"),
                     ("cluster_ols", "us"), ("jonckheere_terpstra", "us"),
                     ("group_aggregate_means", "ms")):
        put(f"stats.{fn}_{unit}", table.median(f"stats.{fn}"))

    triad_rounds = table.count("simulate.play_round")
    if triad_rounds:
        acts = table.prefixed("behavior.act.")
        in_act = np.zeros(table.name.size, dtype=bool)
        has_parent = table.parent >= 0
        in_act[has_parent] = acts[table.parent[has_parent]]
        out["equilibrium.solve_calls_per_triad_round"] = float((solve & in_act).sum()) / triad_rounds
        out["behavior.act_calls_per_triad_round"] = float(acts.sum()) / triad_rounds
        core_calls = sum(table.count(f"core.{fn}")
                         for fn in ("draw_winner", "round_payoffs", "win_probabilities"))
        out["core.calls_per_triad_round"] = core_calls / triad_rounds
    return out


def _import_seconds(stderr: str) -> dict[str, float]:
    """Seconds of ``-X importtime`` output charged to each of IMPORT_NAMES.

    Lines come child-first, indented by depth. Read backwards (parents
    first), a line of a tracked dependency or of one of its submodules is
    charged to it unless an ancestor line was already charged to one, so no
    time is counted twice. This also catches scipy.stats, whose own line is
    missing because it loads lazily through scipy's ``__getattr__``. The
    package's figure is its own top-level cumulative time.
    """
    modules = {module: metric for metric, module in IMPORT_NAMES.items()}
    out = {metric: 0.0 for metric in IMPORT_NAMES}
    stack: list[tuple[int, bool]] = []
    for line in reversed(stderr.splitlines()):
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1]) * 1e-6
        except ValueError:
            continue
        raw = parts[2].rstrip()
        depth, name = len(raw) - len(raw.lstrip()), raw.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        covered = any(charged for _, charged in stack)
        owner = next((m for m in modules if name == m or name.startswith(m + ".")), None)
        if owner == "seqcontest":
            if name == owner:
                out[modules[owner]] += cumulative
            owner = None
        elif owner is not None and not covered:
            out[modules[owner]] += cumulative
        stack.append((depth, covered or owner is not None))
    return out


def import_times(runs: int = 3) -> dict[str, float]:
    """Import time of the package and its heavy dependencies, in seconds,
    median of ``runs`` fresh ``python -X importtime`` processes. A module the
    package no longer imports reads 0."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_NAMES}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import seqcontest"],
                              env=wl.child_env(), capture_output=True, text=True,
                              timeout=wl.CLI_TIMEOUT_S, check=True)
        for metric, seconds in _import_seconds(proc.stderr).items():
            samples[metric].append(seconds)
    return {m: statistics.median(v) for m, v in samples.items()}


def probe(ctx) -> tuple[SpanTable, dict[str, float]]:
    """Call every layer PROBE_RUNS times, traced: cold and warm solves, the
    three preemption optima, both presets' sessions, their export and reload
    in both formats, the analysis, and one traced ``solve`` process. Each
    figure is the median over all the repeats."""
    rec = SpanRecorder()
    rng = np.random.default_rng([ctx.seed, 44])
    checker = wl.SessionChecker(ctx.reference)
    h0 = wl.spne_aggregates()
    sizes: dict[str, list[int]] = {"json": [], "csv": []}
    workdir = tempfile.mkdtemp(prefix="probe-", dir=ctx.out_dir)
    cli = wl.CliRunner(workdir, rec, ctx.gauge)
    try:
        for _ in range(PROBE_RUNS):
            entries = wl.seeded(wl.preset_sessions("spne_all_treatments"), rng)
            entries += wl.seeded(wl.preset_sessions("empirical_preemption"), rng)
            configs = [wl.simulate.session_config_from_dict(e) for e in entries]
            wl.clear_solver_caches()
            with Tracer(rec):
                for stages in wl.TREATMENTS:
                    for _ in range(2):
                        wl.equilibrium.solve_spne(wl.ContestSpec(wl.MoveSequence(stages)))
                for stages in wl.SEQUENTIAL:
                    seq = wl.MoveSequence(stages)
                    wl.behavior.optimal_first_mover(seq, wl.behavior.default_response_models(seq),
                                                    wl.PRIZE, 119.73, wl.ENDOWMENT)
                logs = wl.simulate.run_batch(configs)
                for i, log in enumerate(logs):
                    for fmt in ("json", "csv"):
                        path = os.path.join(workdir, f"log{i}.{fmt}")
                        wl.simulate.export_log(log, fmt, path)
                        sizes[fmt].append(os.path.getsize(path))
                        wl.simulate.load_log(path)
                stats.treatment_summary(logs)
                for log in logs:
                    stats.trend_by_round(log.records)
                for log in logs:
                    stats.wald_mean(*wl.triad_totals(log), h0[log.sequence.stages])
                stats.jonckheere_terpstra([stats.group_aggregate_means(log) for log in logs])
            cli.run(["solve", "--seq", "1,2"], traced=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    extra = {f"simulate.log_bytes.{fmt}": statistics.median(v) for fmt, v in sizes.items()}
    for stages in wl.TREATMENTS:
        checker.solver_values(stages)
    extra["equilibrium.max_abs_err"] = checker.max_abs_err
    extra["cli.self_ms"] = 1e3 * wl.median(cli.cli_self_s)
    return SpanTable(rec.to_arrays()), extra


def layer_metrics(ctx, outcome) -> tuple[dict[str, float], list[str]]:
    """All of LAYER_METRICS for a traced run, and the names that came from
    the probe."""
    metrics = import_times()
    metrics.update(from_spans(SpanTable(outcome.recorder.to_arrays())))
    metrics.update(outcome.layer_extra)
    if "equilibrium.long_seq_wrong" not in metrics:
        errors = wl.long_sequence_errors(ctx.reference).values()
        metrics["equilibrium.long_seq_wrong"] = float(
            sum(not e <= wl.checks.SOLUTION_TOL for e in errors))
    traced, untraced = wl.median(outcome.traced_call_s), wl.median(outcome.untraced_call_s)
    if traced is not None and untraced:
        metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    missing = [m for m in LAYER_METRICS if m not in metrics]
    if missing:
        table, extra = probe(ctx)
        found = from_spans(table)
        found.update(extra)
        for m in missing:
            metrics[m] = found.get(m)
    return {m: metrics[m] for m in LAYER_METRICS}, missing
