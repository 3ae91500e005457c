"""A catalogue of mutants of the package, and a runner that checks that the
tests named for each one kill it.

    python tests/mutants.py

Each entry of ``MUTANTS`` changes one exact text of one module under
``src/seqcontest`` (the text occurs there exactly once, else the run fails)
and names the pytest node ids that must fail on the change. For each mutant
the runner copies ``src`` to a temporary directory, applies the change
there, and runs the named tests with ``PYTHONPATH`` pointing at the copy:
the mutant is killed when every named test fails or errors, and survives
when any of them passes. A pytest exit status other than 0 or 1, such as
for a node id that names no test, is an error. The run exits 0 when every
mutant was killed. It needs nothing beyond the standard library and
the test dependencies.

``EQUIVALENT`` lists, apart, changes that no test can kill, each with the
reason its behaviour is the original's; the runner checks that each text
still occurs exactly once, but does not run them.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    file: str  # under src/seqcontest
    text: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    breaks: str  # what the mutant breaks


MUTANTS = [
    Mutant(
        "stats-absent-clusters-counted", "stats.py",
        "    sums = sums[np.bincount(codes, minlength=g) > 0]\n", "",
        (
            "tests/test_stats.py::TestClusteredMean::test_clusters_absent_from_the_codes_are_not_counted",
        ),
        "a cluster with no values counts toward G in a stage's clustered SE",
    ),
    Mutant(
        "stats-float-ids-by-run-length", "stats.py",
        '_runs([ids]) if ids.dtype.kind in "iu" else None', "_runs([ids])",
        (
            "tests/test_stats.py::TestClusterCodes::test_same_arrays_as_np_unique[floats-with-nan]",
            "tests/test_stats.py::TestClusterCodes::test_same_arrays_as_np_unique[sorted-signed-zeros]",
        ),
        "non-integer cluster ids are coded by run length, not by np.unique",
    ),
    Mutant(
        "stats-triads-never-sorted", "stats.py",
        "        first = _runs(keys)\n        if first is None:",
        "        first = _runs(keys)\n        if False:",
        (
            "tests/test_stats.py::TestColumnsMatchRecordWalk::test_same_bits[spne_all_treatments-shuffled]",
        ),
        "records out of key order are summed unsorted into wrong triad totals",
    ),
    Mutant(
        "stats-wald-one-cluster", "stats.py",
        "if ids.size < 2:", "if ids.size < 1:",
        (
            "tests/test_stats.py::TestWaldMean::test_too_few_clusters",
        ),
        "wald_mean on one cluster returns a nan SE instead of TooFewClusters",
    ),
    Mutant(
        "stats-last-rounds-keeps-cutoff", "stats.py",
        "r.round > cutoff", "r.round >= cutoff",
        (
            "tests/test_stats.py::TestTreatmentSummary::test_last_k_round_filter",
            "tests/test_stats.py::TestColumnMemo::test_last_rounds_cuts_the_store[run_session-rounds-beyond-int64]",
        ),
        "last_rounds keeps k + 1 rounds",
    ),
    Mutant(
        "stats-last-rounds-cutoff-plus-one", "stats.py",
        "- int(k)", "- int(k) + 1",
        (
            "tests/test_stats.py::TestTreatmentSummary::test_last_k_round_filter",
            "tests/test_stats.py::TestColumnMemo::test_last_rounds_cuts_the_store[run_session-rounds-beyond-int64]",
        ),
        "last_rounds keeps k - 1 rounds",
    ),
    Mutant(
        "stats-empty-column-int", "stats.py",
        'int if name != "investment" and len(column) else float',
        'int if name != "investment" else float',
        (
            "tests/test_stats.py::TestColumnsMatchRecordWalk::test_empty_records",
        ),
        "an empty log's integer columns become int64 arrays, not float64",
    ),
    Mutant(
        "simulate-store-never-stale", "simulate.py",
        "if store is None or self.records != store[0]:", "if store is None:",
        (
            "tests/test_stats.py::TestColumnMemo::test_statistics_follow_edits_to_the_records",
        ),
        "statistics read a seeded store after the records were edited",
    ),
    Mutant(
        "simulate-load-log-seeds-nothing", "simulate.py",
        "        log._store = (log.records[:], _stored(columns))\n", "",
        (
            "tests/test_simulate.py::TestSessionLayout::test_which_logs_are_seeded",
            "tests/test_stats.py::TestColumnMemo::test_each_column_is_read_once",
        ),
        "a read-back log reads its records again instead of its checked columns",
    ),
    Mutant(
        "simulate-every-slot-observes", "simulate.py",
        "if slot == 1 and stage > 1:", "if stage > 1:",
        (
            "tests/test_simulate.py::TestPlayRound::test_optimizing_leader_with_responders",
            "tests/test_simulate.py::TestGoldenStream::test_log_digest[spne-1-2]",
        ),
        "a stage's later players observe the investments of the same stage",
    ),
    Mutant(
        "behavior-m2-squared-regrouped", "behavior.py",
        "q2 * m * m", "q2 * (m * m)",
        (
            "tests/test_behavior.py::TestOptimalFirstMover::test_first_order_values_match_closure_walk_on_the_grid[stages0]",
        ),
        "the leader's first-order condition rounds the responder's quadratic term"
        " apart from the closure walk it must match bit for bit",
    ),
    Mutant(
        "core-role-plan-before-off-by-one", "core.py",
        "before += count", "before += count - 1",
        (
            "tests/test_core.py::TestMoveSequence::test_stage_of_player",
            "tests/test_simulate.py::TestPlayRound::test_spne_path_fully_sequential",
        ),
        "players_before_stage undercounts from the second stage on",
    ),
    Mutant(
        "core-endowment-tolerance", "core.py",
        "if max(x) > endowment:", "if max(x) > endowment + 1e-9:",
        (
            "tests/test_core.py::TestRoundPayoffs::test_over_endowment_rejected",
        ),
        "an investment a hair above the endowment is paid a negative margin",
    ),
    Mutant(
        "equilibrium-no-bisection", "equilibrium.py",
        "while hi - lo > _ROOT_TOL:", "while False:",
        (
            "tests/test_equilibrium.py::TestLargestRoot::test_simultaneous_three",
        ),
        "the largest root is not bisected: the solver's root is wrong",
    ),
]

# (file, text, replacement, why the behaviour is the original's)
EQUIVALENT = [
    (
        "stats.py", "default=0)", "default=1)",
        "the default is the last round only of a log with no records, whose"
        " filter keeps nothing whatever the cutoff",
    ),
    (
        "core.py", "if winner.__class__ is not int:", "if True:",
        "the fast path only: operator.index returns an int winner unchanged",
    ),
    (
        "core.py", "if uniform_draw.__class__ is not float and (", "if (",
        "the fast path only: a float is a real number and not a bool",
    ),
]


def read_once(src: str, file: str, text: str, label: str) -> str:
    """The module ``file`` under ``src`` (the package's parent), which must
    hold ``text`` exactly once."""
    with open(os.path.join(src, "seqcontest", file), encoding="utf-8") as fh:
        module = fh.read()
    count = module.count(text)
    if count != 1:
        raise ValueError(f"{label}: the text occurs {count} times in {file}")
    return module


def apply(src: str, mutant: Mutant) -> None:
    """Apply ``mutant`` to the copy of ``src`` (the package's parent)."""
    module = read_once(src, mutant.file, mutant.text, mutant.name)
    with open(os.path.join(src, "seqcontest", mutant.file), "w", encoding="utf-8") as fh:
        fh.write(module.replace(mutant.text, mutant.replacement))


def run(mutant: Mutant) -> list[str]:
    """The named tests of ``mutant`` that pass on it: none when it is killed.
    Raises on a pytest exit status other than 0 or 1."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(
            os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__")
        )
        apply(src, mutant)
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run(
            [sys.executable, "-c", "import seqcontest; print(seqcontest.__file__)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        if not where.startswith(src):
            raise RuntimeError(f"{mutant.name}: the tests import {where.strip()}, not the copy")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    if result.returncode not in (0, 1):
        raise RuntimeError(
            f"{mutant.name}: pytest exited {result.returncode}\n{result.stdout}{result.stderr}"
        )
    # the short summary's "FAILED <node id> - <message>" and "ERROR ..." lines
    failed = {
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in result.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }
    return [test for test in mutant.tests if test not in failed]


def main() -> int:
    for file, text, _, _ in EQUIVALENT:
        read_once(os.path.join(ROOT, "src"), file, text, f"equivalent {text!r}")
    survivors = []
    for mutant in MUTANTS:
        passed = run(mutant)
        outcome = "survived" if passed else "killed"
        print(f"{outcome:8} {mutant.name}: {mutant.breaks}", *passed, sep="\n  ", flush=True)
        if passed:
            survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
