"""Correctness checks for the benchmark's outputs.

Every check returns a list of failure messages (empty when it passes), so a
workload counts an operation as failed when any of its checks says so. None
of the checks depends on how the simulator lays out its random stream: logs
are checked by invariants of the protocol and by the solver, never by bytes.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import os
from collections import defaultdict

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json.gz")

# Normalised (unit-prize) tolerance against the exact reference. The float
# solver stays below 2e-7 for up to 12 stages.
SOLUTION_TOL = 1e-6


def label(stages) -> str:
    return ",".join(str(k) for k in stages)


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def solution_error(stages, aggregate, stage_investments, reference: dict) -> float:
    """Largest absolute normalised error of a solution against the reference
    (inf when the solution is missing, malformed or not finite)."""
    ref = reference["solutions"][label(stages)]
    if len(stage_investments) != len(ref["stages"]):
        return math.inf
    errors = [abs(aggregate - ref["X"])]
    errors += [abs(a - b) for a, b in zip(stage_investments, ref["stages"])]
    worst = max(errors)
    return worst if math.isfinite(worst) else math.inf


def check_solution(stages, aggregate, stage_investments, reference: dict) -> list[str]:
    err = solution_error(stages, aggregate, stage_investments, reference)
    if err <= SOLUTION_TOL:
        return []
    return [f"solution for ({label(stages)}) off the exact reference by {err:.3g}"]


# ---------------------------------------------------------------------------
# Session logs
# ---------------------------------------------------------------------------


def check_session_log(log, *, groups, rounds, prize, endowment, integer_rounding,
                      spne_stage_values=None, leader_value=None) -> list[str]:
    """Protocol invariants of one session log.

    ``spne_stage_values`` (one per stage) are the solver's investments when
    every player plays the equilibrium; ``leader_value`` is the first mover's
    preemption optimum when the leader optimises. Both are compared after the
    lab's integer rounding when the session uses it.
    """
    fails: list[str] = []
    name = f"log ({label(log.sequence.stages)})"
    records = log.records
    expected = groups * rounds * 9
    if len(records) != expected:
        fails.append(f"{name}: {len(records)} records, expected {expected}")

    def rounded(x):
        return float(min(max(round(x), 0), int(endowment))) if integer_rounding else x

    triads: dict[tuple, list] = defaultdict(list)
    for r in records:
        triads[(r.group, r.round, r.triad)].append(r)
        x = r.investment
        if not 0.0 <= x <= endowment:
            fails.append(f"{name}: investment {x} outside [0, {endowment}]")
        if integer_rounding and x != int(x):
            fails.append(f"{name}: investment {x} is not a whole number")
        if spne_stage_values is not None:
            want = rounded(spne_stage_values[r.stage - 1])
            if abs(x - want) > 1e-9 * max(1.0, abs(want)):
                fails.append(f"{name}: stage {r.stage} invests {x}, solver says {want}")
        if leader_value is not None and r.stage == 1:
            want = rounded(leader_value)
            if abs(x - want) > 1e-9 * max(1.0, abs(want)):
                fails.append(f"{name}: leader invests {x}, optimum is {want}")
        if len(fails) > 20:
            return fails
    if len(triads) * 3 != len(records):
        fails.append(f"{name}: {len(records)} records in {len(triads)} triads")
    for key, members in triads.items():
        if len(members) != 3:
            fails.append(f"{name}: triad {key} has {len(members)} members")
            continue
        winners = sum(1 for r in members if r.won)
        if winners != 1:
            fails.append(f"{name}: triad {key} has {winners} winners")
        paid = sum(r.payoff for r in members)
        want = 3 * endowment - sum(r.investment for r in members) + prize
        if abs(paid - want) > 1e-9 * (3 * endowment + prize):
            fails.append(f"{name}: triad {key} pays {paid}, expected {want}")
        if len(fails) > 20:
            break
    return fails


def check_same_records(log_a, log_b, what: str) -> list[str]:
    if len(log_a.records) != len(log_b.records):
        return [f"{what}: {len(log_a.records)} vs {len(log_b.records)} records"]
    for a, b in zip(log_a.records, log_b.records):
        if a != b:
            return [f"{what}: records differ: {a} vs {b}"]
    return []


# ---------------------------------------------------------------------------
# Preemption optimum, recomputed independently of the library
# ---------------------------------------------------------------------------


def _response(model, p_eff, m1, m2=None):
    c = 1.0 if model.fit_effective_prize is None else p_eff / model.fit_effective_prize
    a, b = m1 / c, None if m2 is None else m2 / c
    value = model.intercept + model.m1_coef * a + model.m1_sq_coef * a * a
    if b is not None:
        value += model.m2_coef * b + model.m2_sq_coef * b * b
    return c * value


def _golden(f, a, b, iters=120):
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def preemption_optimum(stages, models, prize, jow, endowment) -> float:
    """First mover's optimum against the responders' mean responses: a fine
    grid plus golden section for one leader, and for two leaders the first
    root of the symmetric first-order condition, by bisection."""
    p_eff = prize + jow
    if stages == (2, 1):
        r2 = models[2]

        def foc(x):
            c = 1.0 if r2.fit_effective_prize is None else p_eff / r2.fit_effective_prize
            resp = _response(r2, p_eff, x)
            slope = r2.m1_coef + 2.0 * r2.m1_sq_coef * (x / c)
            return p_eff * (x + resp - 0.5 * x * slope) - (2.0 * x + resp) ** 2

        xs = np.arange(0.0, endowment + 0.25, 0.5)
        vals = [foc(float(x)) for x in xs]
        for i in range(len(xs) - 1):
            if vals[i] == 0.0:
                return float(xs[i])
            if vals[i] * vals[i + 1] < 0.0:
                lo, hi, flo = float(xs[i]), float(xs[i + 1]), vals[i]
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    fm = foc(mid)
                    if (fm < 0) == (flo < 0):
                        lo, flo = mid, fm
                    else:
                        hi = mid
                return 0.5 * (lo + hi)
        return endowment if vals[0] > 0.0 else 0.0

    n = sum(stages)

    def payoff(own, others):
        total = own + others
        return p_eff / n - own if total <= 0.0 else p_eff * own / total - own

    if stages == (1, 2):
        def objective(x):
            return payoff(x, 2.0 * _response(models[2], p_eff, x))
    elif stages == (1, 1, 1):
        def objective(x):
            second = _response(models[2], p_eff, x)
            return payoff(x, second + _response(models[3], p_eff, x, second))
    else:
        raise ValueError(f"no preemption optimum for {stages}")
    step = 0.05
    grid = np.arange(0.0, endowment + step / 2, step)
    best = max(range(grid.size), key=lambda i: objective(float(grid[i])))
    lo = max(0.0, float(grid[best]) - step)
    hi = min(endowment, float(grid[best]) + step)
    return _golden(objective, lo, hi)


def check_preemption(stages, x, expected) -> list[str]:
    if abs(x - expected) <= 1e-3:
        return []
    return [f"preemption ({label(stages)}): library {x}, recomputed {expected}"]


# ---------------------------------------------------------------------------
# analyze outputs
# ---------------------------------------------------------------------------


def _read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float = 2e-5, abs_tol: float = 2e-6) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(abs_tol, rel * max(abs(a), abs(b)))


def check_analyze_outputs(dir_json: str, dir_csv: str, expected: dict) -> list[str]:
    """``analyze`` over the JSON logs and over the CSV logs must write the
    same files, and those must match ``expected``, the in-process results on
    the same logs, in log order: ``summary`` (per log, one (mean, se) per
    player and then the aggregate's), ``trend`` (per log, (slope, se)),
    ``wald`` (per log, (statistic, pvalue)) and ``jt`` ((statistic, pvalue))."""
    fails: list[str] = []
    for name in ("summary.csv", "trend.csv", "tests.csv", "report.txt"):
        paths = [os.path.join(d, name) for d in (dir_json, dir_csv)]
        if not all(os.path.isfile(p) for p in paths):
            fails.append(f"analyze did not write {name}")
            continue
        texts = []
        for p in paths:
            with open(p, encoding="utf-8") as fh:
                texts.append(fh.read())
        if texts[0] != texts[1]:
            fails.append(f"analyze {name} differs between JSON and CSV logs")
    if fails:
        return fails

    def compare(what, rows, wants, columns):
        if len(rows) != len(wants):
            fails.append(f"{what}: {len(rows)} rows, expected {len(wants)}")
            return
        for row, want in zip(rows, wants):
            got = tuple(float(row[c]) for c in columns)
            if not all(_close(g, w) for g, w in zip(got, want)):
                fails.append(f"{what} {row['treatment']}: {got} vs {want}")

    summary = [pair for per_log in expected["summary"] for pair in per_log]
    compare("summary", _read_rows(os.path.join(dir_json, "summary.csv")),
            summary, ("mean", "se"))
    compare("trend", _read_rows(os.path.join(dir_json, "trend.csv")),
            expected["trend"], ("slope", "se"))
    compare("tests", _read_rows(os.path.join(dir_json, "tests.csv")),
            expected["wald"] + [expected["jt"]], ("statistic", "pvalue"))
    return fails
