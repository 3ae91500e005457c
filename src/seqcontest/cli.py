"""Command-line front end: solve, simulate, analyze.

``simulate`` and ``analyze`` write a ``manifest.json`` next to their outputs
recording the command, inputs, seed, package version, output paths, and wall
clock, so any artifact can be traced to exactly one invocation. A run's
files, the manifest included, go through one all-or-none write
(:func:`seqcontest.simulate.write_files`): each is written once under a temp
name and renamed into place once, after all of them are written, so a failed
run leaves the files already in its output directory as they were.

Each command imports the simulator and the statistics inside the function
that uses them, so ``solve`` writing to stdout loads only the solver.

Exit codes: 0 success, 2 invalid input or config, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from functools import partial
from typing import TYPE_CHECKING

from . import __version__
from .core import (
    ContestError,
    ContestSpec,
    MoveSequence,
    _check_schema,
    _known_keys,
    _whole_number,
)
from .equilibrium import calibrate_jow, solve_spne

if TYPE_CHECKING:
    from .simulate import SessionLog

_EXIT_BAD_INPUT = 2
_EXIT_IO = 3


def _write_outputs(out_dir: str, outputs, t0: float, command: str, config=None, seed=None) -> int:
    """Write each output, then ``manifest.json``, all or none; return the exit
    code. ``outputs`` maps file names to functions that build their texts,
    each called only when its file is written, so one text is held at a time.
    """
    from .simulate import write_files

    def texts():
        for name, build in outputs.items():
            yield os.path.join(out_dir, name), build()
        manifest = {
            "schema": 1,
            "command": command,
            "config": config,
            "master_seed": seed,
            "package_version": __version__,
            "outputs": sorted(outputs),
            "wall_clock_seconds": round(time.time() - t0, 3),
        }
        yield os.path.join(out_dir, "manifest.json"), json.dumps(manifest, indent=1) + "\n"

    try:
        os.makedirs(out_dir, exist_ok=True)
        write_files(texts())
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return _EXIT_IO
    return 0


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, got {text!r}")
    return int(text)


def _significance_level(text: str) -> float:
    value = float(text)  # argparse reports the ValueError of a non-number
    if not 0.0 < value < 1.0:  # also false for nan
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {text!r}")
    return value


def _parse_sequence(text: str) -> MoveSequence:
    try:
        return MoveSequence(tuple(int(part) for part in text.split(",")))
    except (ValueError, ContestError) as exc:
        raise ContestError(f"bad sequence {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    sequence = _parse_sequence(args.seq)
    jow = args.jow
    banner = None
    if args.calibrate_from is not None:
        jow = calibrate_jow(args.calibrate_from, sequence.n_players, args.prize)
        banner = (
            f"calibrated joy of winning w = {jow:.2f} "
            f"(mean {args.calibrate_from}, prize {args.prize:g})"
        )
    spec = ContestSpec(sequence, prize=args.prize, endowment=args.endowment, joy_of_winning=jow)
    solution = solve_spne(spec)
    for t, x in enumerate(solution.scaled_stage_investments, start=1):
        if x > spec.endowment:
            raise ContestError(
                f"stage {t} equilibrium investment {x:.2f} per player exceeds "
                f"the endowment {spec.endowment:g}"
            )

    if args.format == "json":
        text = json.dumps(solution.to_dict(), indent=1) + "\n"
    else:
        lines = []
        if banner:
            lines.append(banner)
        lines.append(
            f"sequence {sequence.label()}  prize {args.prize:g}  joy of winning {jow:g}"
        )
        lines.append(f"aggregate investment X = {solution.scaled_aggregate:.2f}")
        for t, x in enumerate(solution.scaled_stage_investments, start=1):
            lines.append(
                f"  stage {t}: {x:.2f} per player "
                f"({spec.sequence.stages[t - 1]} player(s))"
            )
        text = "\n".join(lines) + "\n"
    if banner and args.format == "json":
        # stdout carries only the JSON, which records joy_of_winning itself
        print(banner, file=sys.stderr)
    if args.out:
        from .simulate import write_files  # a solve to stdout does not load simulate

        try:
            write_files([(args.out, text)])
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return _EXIT_IO
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _resolve_config(name: str) -> tuple[dict, str]:
    """Load a batch config from a path or from the bundled presets."""
    if os.path.exists(name):
        with open(name, encoding="utf-8") as fh:
            return json.load(fh), name
    from importlib import resources  # loaded only to read a bundled preset

    bundled = resources.files("seqcontest.presets").joinpath(name + ".json")
    if bundled.is_file():
        return json.loads(bundled.read_text(encoding="utf-8")), f"preset:{name}"
    raise ContestError(f"config {name!r} is neither a file nor a bundled preset")


def _csv_label(sequence) -> str:
    return "-".join(str(k) for k in sequence.stages)


def _log_basename(log: SessionLog, index: int) -> str:
    return f"session{index:02d}_seq{_csv_label(log.sequence)}"


def cmd_simulate(args) -> int:
    from .simulate import _log_text, run_batch, session_config_from_dict

    t0 = time.time()
    try:
        raw, config_name = _resolve_config(args.config)
        if not isinstance(raw, dict):
            raise ContestError("the top level is not a JSON object")
        _known_keys(raw, ("schema", "replications", "sessions"), "config")
        _check_schema(raw, "config")
        sessions = raw.get("sessions")
        if not isinstance(sessions, list) or not sessions:
            raise ContestError("config needs a nonempty 'sessions' list")
        configs = [session_config_from_dict(entry) for entry in sessions]
        if args.seed is not None:
            configs = [replace(cfg, seed=args.seed + i) for i, cfg in enumerate(configs)]
        replications = _whole_number(raw.get("replications", 1), "replications")
    except (TypeError, ValueError) as exc:  # ContestError and JSONDecodeError are ValueErrors
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return _EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return _EXIT_IO

    logs = run_batch(configs, replications=replications)

    formats = ["csv", "json"] if args.format == "both" else [args.format]
    outputs = {
        f"{_log_basename(log, i)}.{fmt}": partial(_log_text, log, fmt)
        for i, log in enumerate(logs)
        for fmt in formats
    }
    seeds = [cfg.seed for cfg in configs]
    code = _write_outputs(args.out, outputs, t0, "simulate", config_name, seeds)
    if code == 0:
        print(f"wrote {len(outputs)} log file(s) to {args.out}")
    return code


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _summary_csv(summaries) -> str:
    lines = ["treatment,role,mean,se,n_obs,clusters,rounds"]
    for s in summaries:
        label = _csv_label(s.sequence)
        for i, (mean, se) in enumerate(zip(s.role_means, s.role_ses), start=1):
            lines.append(
                f"{label},x{i},{mean:.6f},{se:.6f},{s.nobs},{s.n_clusters},{s.n_rounds}"
            )
        lines.append(
            f"{label},X,{s.aggregate_mean:.6f},{s.aggregate_se:.6f},"
            f"{s.nobs},{s.n_clusters},{s.n_rounds}"
        )
    return "\n".join(lines) + "\n"


def _summary_text(summaries) -> list[str]:
    lines = ["Treatment summary (means, clustered SEs in parentheses)"]
    header = f"{'':10s}" + "".join(f"{s.sequence.label():>18s}" for s in summaries)
    lines.append(header)
    n_roles = max(len(s.role_means) for s in summaries)
    for i in range(n_roles):
        row = f"{'x' + str(i + 1):10s}"
        for s in summaries:
            if i < len(s.role_means):
                row += f"{s.role_means[i]:>10.2f} ({s.role_ses[i]:.2f})".rjust(18)
            else:
                row += " " * 18
        lines.append(row)
    row = f"{'X':10s}"
    for s in summaries:
        row += f"{s.aggregate_mean:>10.2f} ({s.aggregate_se:.2f})".rjust(18)
    lines.append(row)
    return lines


def cmd_analyze(args) -> int:
    # imported here, so that solve loads neither module: stats loads numpy
    from . import stats as st
    from .simulate import NotASessionLog, load_log

    t0 = time.time()
    logs, notes = [], []
    try:
        for path in args.logs:
            try:
                logs.append(load_log(path))
            except NotASessionLog:
                notes.append(f"note: skipped {path}, a run manifest")
    except OSError as exc:
        print(f"error: cannot read log: {exc}", file=sys.stderr)
        return _EXIT_IO
    except ContestError as exc:
        print(f"error: bad log file: {exc}", file=sys.stderr)
        return _EXIT_BAD_INPUT

    tests = [t.strip() for t in args.tests.split(",") if t.strip()]
    unknown = set(tests) - {"summary", "trend", "jt", "wald"}
    if unknown:
        print(f"error: unknown tests {sorted(unknown)}", file=sys.stderr)
        return _EXIT_BAD_INPUT
    if "jt" in tests and len(logs) < 3:
        print("error: the JT test needs at least 3 logs", file=sys.stderr)
        return _EXIT_BAD_INPUT

    last_k = args.last_rounds
    if last_k:
        logs = [st.last_rounds(log, last_k) for log in logs]
    report: list[str] = [
        f"analysis of {len(logs)} log(s)"
        + (f", last {last_k} rounds" if last_k else ", all rounds")
    ] + notes
    # every output is computed before the first file is written, so a
    # statistic that raises leaves the output directory untouched
    files: dict[str, str] = {}
    if "summary" in tests:
        summaries = st.treatment_summary(logs)
        files["summary.csv"] = _summary_csv(summaries)
        report.extend([""] + _summary_text(summaries))

    if "trend" in tests:
        lines = ["treatment,slope,se,n_obs,clusters"]
        report += ["", "Round trend (investment on round, clustered SEs)"]
        for log in logs:
            fit = st.trend_by_round(log.records)
            # float's round agrees with the printed digits; adding 0.0 turns
            # a slope that rounds to -0 into 0, so rounding noise around a
            # flat trend prints no sign
            slope = float(fit.params[1])
            lines.append(
                f"{_csv_label(log.sequence)},{round(slope, 6) + 0.0:.6f},"
                f"{fit.se[1]:.6f},{fit.nobs},{fit.n_clusters}"
            )
            report.append(
                f"  {log.sequence.label():8s} slope {round(slope, 4) + 0.0:8.4f}"
                f"  (se {fit.se[1]:.4f})"
            )
        files["trend.csv"] = "\n".join(lines) + "\n"

    test_lines = ["test,treatment,quantity,statistic,pvalue,detail"]
    if "wald" in tests:
        report += ["", "Wald tests of observed means against the equilibrium"]
        for log in logs:
            solution = solve_spne(replace(log.spec, joy_of_winning=0.0))
            totals, groups = st.triad_totals(log.records)
            res = st.wald_mean(totals, groups, solution.scaled_aggregate)
            test_lines.append(
                f"wald,{_csv_label(log.sequence)},X,{res.statistic:.6g},"
                f"{res.pvalue:.6g},h0={solution.scaled_aggregate:.4f}"
            )
            report.append(
                f"  {log.sequence.label():8s} X vs {solution.scaled_aggregate:7.2f}: "
                f"W = {res.statistic:.3f}, p = {res.pvalue:.4f}"
                + ("  [degenerate]" if res.degenerate else "")
            )

    if "jt" in tests:
        group_means = [st.group_aggregate_means(log) for log in logs]
        res = st.jonckheere_terpstra(group_means)
        test_lines.append(
            f"jt,all,X,{res.statistic:.6g},{res.pvalue:.6g},z={res.zscore:.4f}"
        )
        verdict = "yes" if res.pvalue < args.alpha else "no"
        report += [
            "",
            "Jonckheere-Terpstra trend across treatments "
            "(matching-group means of X, in the order given)",
            f"  JT = {res.statistic:.1f}, z = {res.zscore:.3f}, "
            f"p = {res.pvalue:.4f}; significant at alpha={args.alpha:g}: {verdict}",
        ]

    if "wald" in tests or "jt" in tests:
        files["tests.csv"] = "\n".join(test_lines) + "\n"
    files["report.txt"] = "\n".join(report) + "\n"

    outputs = {name: partial(str, text) for name, text in files.items()}
    code = _write_outputs(args.out, outputs, t0, "analyze")
    if code == 0:
        sys.stdout.write("\n".join(report) + "\n")
    return code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqcontest",
        description="Sequential lottery contests: equilibria, simulation, analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute equilibrium investments")
    p_solve.add_argument("--seq", required=True, help="move sequence, e.g. 1,2")
    p_solve.add_argument("--prize", type=float, default=240.0)
    p_solve.add_argument("--endowment", type=float, default=240.0)
    p_solve.add_argument("--jow", type=float, default=0.0, help="joy of winning")
    p_solve.add_argument(
        "--calibrate-from",
        type=float,
        default=None,
        metavar="MEAN",
        help="calibrate joy of winning from this observed simultaneous-contest mean",
    )
    p_solve.add_argument("--format", choices=["text", "json"], default="text")
    p_solve.add_argument("--out", default=None, help="write output to this file")
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="run sessions from a config file")
    p_sim.add_argument(
        "--config", required=True, help="config path or bundled preset name"
    )
    p_sim.add_argument("--seed", type=int, default=None, help="override session seeds")
    p_sim.add_argument("--out", default="out", help="output directory")
    p_sim.add_argument("--format", choices=["csv", "json", "both"], default="both")
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="summaries and tests over session logs")
    p_an.add_argument("logs", nargs="+", help="log files (CSV or JSON)")
    p_an.add_argument("--last-rounds", type=_positive_int, default=None, metavar="K")
    p_an.add_argument(
        "--tests", default="summary,trend,jt,wald", help="comma list of tests to run"
    )
    p_an.add_argument("--alpha", type=_significance_level, default=0.05)
    p_an.add_argument("--out", default="analysis", help="output directory")
    p_an.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ContestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
