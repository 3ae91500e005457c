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
        "stats-reals-finiteness-skipped", "stats.py",
        "    if not np.isfinite(array).all():\n"
        '        raise ContestError(f"{name} must be finite")\n',
        "",
        (
            "tests/test_stats.py::test_non_finite_inputs_refused[wald-nan-value]",
            "tests/test_stats.py::test_non_finite_inputs_refused[ols-inf-design]",
            "tests/test_stats.py::test_non_finite_inputs_refused[jt-nan]",
        ),
        "a NaN or an infinity among a statistic's data gives numbers",
    ),
    Mutant(
        "stats-reals-overflow-raw", "stats.py",
        "except (TypeError, ValueError, OverflowError) as exc:",
        "except (TypeError, ValueError) as exc:",
        (
            "tests/test_stats.py::test_not_real_numbers_refused[wald-value-beyond-floats]",
            "tests/test_stats.py::test_not_real_numbers_refused[ols-y-beyond-floats]",
            "tests/test_stats.py::test_not_real_numbers_refused[jt-group-beyond-floats]",
        ),
        "an integer beyond floats among a statistic's data escapes as a raw OverflowError",
    ),
    Mutant(
        "stats-wald-hypothesis-by-float", "stats.py",
        '_finite_real(hypothesized, "hypothesized")', "float(hypothesized)",
        (
            "tests/test_stats.py::test_non_finite_inputs_refused[wald-inf-hypothesis]",
            "tests/test_stats.py::test_bad_shapes_and_types_refused[wald-true-hypothesis]",
            "tests/test_stats.py::test_bad_shapes_and_types_refused[wald-text-hypothesis]",
            "tests/test_stats.py::test_not_real_numbers_refused[wald-hypothesis-beyond-floats]",
        ),
        "wald_mean takes True, text and an infinite hypothesis, and an integer beyond"
        " floats escapes as a raw OverflowError",
    ),
    Mutant(
        "log-store-never-stale", "log.py",
        "if log_or_records._store is None or log_or_records.records != log_or_records._store[0]:",
        "if log_or_records._store is None:",
        (
            "tests/test_stats.py::TestColumnMemo::test_statistics_follow_edits_to_the_records",
        ),
        "statistics read a seeded store after the records were edited",
    ),
    Mutant(
        "log-load-log-seeds-nothing", "log.py",
        "return _seed_store(log, _stored(columns))", "return log",
        (
            "tests/test_simulate.py::TestSessionLayout::test_which_logs_are_seeded",
            "tests/test_stats.py::TestColumnMemo::test_each_column_is_read_once",
        ),
        "a read-back log reads its records again instead of its checked columns",
    ),
    Mutant(
        "log-load-log-recursion-raw", "log.py",
        "except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:",
        "except (AttributeError, KeyError, TypeError, ValueError) as exc:",
        (
            "tests/test_cli.py::test_json_nested_too_deeply_is_bad_input[json-log]",
            "tests/test_cli.py::test_json_nested_too_deeply_is_bad_input[csv-log]",
        ),
        "a log nesting JSON too deeply escapes load_log as a raw RecursionError",
    ),
    Mutant(
        "log-load-log-plain-tuples", "log.py",
        "list(map(tuple.__new__, repeat(RoundRecord), zip(*columns)))", "list(zip(*columns))",
        (
            "tests/test_cli.py::test_read_back_logs_are_round_records_without_numpy",
        ),
        "a read-back log's records are plain tuples, which equal RoundRecords but"
        " have no fields",
    ),
    Mutant(
        "log-float-cell-twelve-digits", "log.py",
        "_FLOAT = _Column(frozenset({float}), _json_number, float.__repr__)",
        '_FLOAT = _Column(frozenset({float}), _json_number, "%.12g".__mod__)',
        (
            "tests/test_stats.py::test_read_back_logs_give_the_same_statistics[spne_all_treatments-json]",
            "tests/test_stats.py::test_read_back_logs_give_the_same_statistics[empirical_preemption-csv]",
        ),
        "investments and payoffs are written in 12 digits, so a read-back log's"
        " statistics are not those of the log in process",
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
        "simulate-shuffle-sattolo", "simulate.py",
        "j = int(uniform() * (i + 1))", "j = int(uniform() * i)",
        (
            "tests/test_simulate.py::TestLayoutTwoDraws::test_the_six_orders_come_out_equally_often",
            "tests/test_simulate.py::TestLayoutTwoDraws::test_fisher_yates_at_the_largest_uniform_keeps_j_at_i",
            "tests/test_simulate.py::TestGoldenStream::test_play_round_is_one_triad_of_the_session",
        ),
        "each shuffle of three is a random cycle (Sattolo's algorithm): two of the"
        " six matchings never occur",
    ),
    Mutant(
        "simulate-play-round-unchecked-list", "simulate.py",
        "    checked = _as_investments(investments)\n", "    checked = investments\n",
        (
            "tests/test_simulate.py::TestTracedCallStructure::test_calls_per_triad_round[spne-1-2]",
            "tests/test_simulate.py::TestTracedCallStructure::test_calls_per_triad_round[leader-noisy-1-2]",
        ),
        "play_round hands on the unchecked list, so each triad's investments are"
        " checked twice",
    ),
    Mutant(
        "simulate-triad-id-unchecked", "simulate.py",
        '    triad = triad if triad.__class__ is int else _index(triad, "triad")\n', "",
        (
            "tests/test_simulate.py::TestPlayRound::test_ids_not_whole_numbers_refused[triad-text]",
        ),
        "play_round records a triad id of text, which the log writer refuses later",
    ),
    Mutant(
        "simulate-subject-id-unchecked", "simulate.py",
        "subject if subject.__class__ is int else", "subject if True else",
        (
            "tests/test_simulate.py::TestPlayRound::test_ids_not_whole_numbers_refused[subject-float]",
            "tests/test_simulate.py::TestPlayRound::test_ids_not_whole_numbers_refused[subject-bool]",
            "tests/test_simulate.py::TestPlayRound::test_ids_of_other_integer_types_recorded_as_ints",
        ),
        "play_round records a subject id of 1.7 or True, and a numpy integer as it is",
    ),
    Mutant(
        "simulate-group-stream-without-group", "simulate.py",
        '_hashed("group", seed, group_index)', '_hashed("group", seed, 0)',
        (
            "tests/test_simulate.py::TestLayoutTwoDraws::test_seeds_are_the_documented_hashes",
            "tests/test_simulate.py::TestLayoutTwoDraws::test_each_group_and_replication_draws_its_own_stream",
            "tests/test_simulate.py::TestGoldenStream::test_log_digest[spne-1-2]",
        ),
        "every matching group of a session draws the same stream",
    ),
    Mutant(
        "simulate-derived-seed-without-replication", "simulate.py",
        '_hashed("replication", seed, replication)', '_hashed("replication", seed, 0)',
        (
            "tests/test_simulate.py::TestLayoutTwoDraws::test_seeds_are_the_documented_hashes",
            "tests/test_simulate.py::TestLayoutTwoDraws::test_each_group_and_replication_draws_its_own_stream",
            "tests/test_simulate.py::TestRunBatch::test_replications_have_distinct_streams",
        ),
        "every replication of a config replays the same session",
    ),
    Mutant(
        "behavior-normal-zero-unguarded", "behavior.py",
        "rng.random() or 2.0**-54", "rng.random()",
        (
            "tests/test_simulate.py::TestLayoutTwoDraws::test_normal_transform[zero]",
        ),
        "a noisy response whose uniform is 0 raises StatisticsError instead of"
        " taking a normal draw",
    ),
    Mutant(
        "behavior-eval-response-endowment-unchecked", "behavior.py",
        '    if endowment.__class__ is not float:\n        _finite_real(endowment, "endowment")\n'
        "    if m1.__class__ is not float:",
        "    if m1.__class__ is not float:",
        (
            "tests/test_behavior.py::TestEvalResponse::test_endowment_not_a_finite_real_number_refused[text]",
            "tests/test_behavior.py::TestEvalResponse::test_endowment_not_a_finite_real_number_refused[true]",
        ),
        "eval_response reads an endowment of True as 1.0 and lets text escape as a"
        " raw TypeError",
    ),
    Mutant(
        "behavior-turning-point-endowment-unchecked", "behavior.py",
        '    if endowment.__class__ is not float:\n        _finite_real(endowment, "endowment")\n'
        '    if which == "m1":',
        '    if which == "m1":',
        (
            "tests/test_behavior.py::TestTurningPoint::test_endowment_not_a_real_number_refused[text]",
            "tests/test_behavior.py::TestTurningPoint::test_endowment_not_a_real_number_refused[true]",
        ),
        "turning_point reads an endowment of True as 1.0 and lets text escape as a"
        " raw TypeError",
    ),
    Mutant(
        "behavior-models-recursion-raw", "behavior.py",
        "except (AttributeError, LookupError, RecursionError, TypeError, ValueError) as exc:",
        "except (AttributeError, LookupError, TypeError, ValueError) as exc:",
        (
            "tests/test_cli.py::test_json_nested_too_deeply_is_bad_input[response-models]",
        ),
        "a response-model file nesting JSON too deeply raises a raw RecursionError",
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
        "behavior-eval-response-m1-unchecked", "behavior.py",
        '    if m1.__class__ is not float:\n        _finite_real(m1, "m1")\n', "",
        (
            "tests/test_behavior.py::TestEvalResponse::test_inputs_not_finite_real_numbers_refused[text]",
            "tests/test_behavior.py::TestEvalResponse::test_inputs_not_finite_real_numbers_refused[true]",
        ),
        "eval_response reads True as 1.0 and lets text escape as a raw TypeError",
    ),
    Mutant(
        "behavior-eval-response-m2-unchecked", "behavior.py",
        '        if m2.__class__ is not float:\n            _finite_real(m2, "m2")\n', "",
        (
            "tests/test_behavior.py::TestEvalResponse::test_inputs_not_finite_real_numbers_refused[text-m2]",
            "tests/test_behavior.py::TestEvalResponse::test_inputs_not_finite_real_numbers_refused[int-beyond-floats-m2]",
        ),
        "eval_response lets an m2 of text escape as a raw TypeError",
    ),
    Mutant(
        "cli-unknown-tests-taken", "cli.py",
        "if unknown:  #", "if False:  #",
        (
            "tests/test_cli.py::TestAnalyze::test_unknown_test_exits_2",
            "tests/test_cli.py::TestAnalyze::test_unknown_test_refused_before_any_log_is_read",
        ),
        "analyze skips an unknown test name instead of refusing it",
    ),
    Mutant(
        "cli-analyze-imports-engine", "cli.py",
        "    from .log import NotASessionLog, load_log\n",
        "    from .log import NotASessionLog\n    from .simulate import load_log\n",
        (
            "tests/test_cli.py::test_analyze_leaves_the_engine_unloaded[json]",
            "tests/test_cli.py::test_analyze_leaves_the_engine_unloaded[csv]",
        ),
        "analyze reads its logs through simulate and so loads the session engine",
    ),
    Mutant(
        "cli-config-recursion-raw", "cli.py",
        "except (RecursionError, TypeError, ValueError) as exc:",
        "except (TypeError, ValueError) as exc:",
        (
            "tests/test_cli.py::test_json_nested_too_deeply_is_bad_input[config]",
        ),
        "a config nesting JSON too deeply escapes simulate as a raw RecursionError",
    ),
    Mutant(
        "cli-number-recursion-raw", "cli.py",
        "except (OverflowError, RecursionError, ValueError):",
        "except (OverflowError, ValueError):",
        (
            "tests/test_cli.py::test_json_nested_too_deeply_is_bad_input[calibrate-from]",
        ),
        "a command-line number nesting JSON too deeply escapes as a raw RecursionError",
    ),
    Mutant(
        "cli-config-name-dropped", "cli.py",
        'f"error: invalid config: {config_name}: {exc}"', 'f"error: invalid config: {exc}"',
        (
            "tests/test_cli.py::TestSessionParameterRules::test_config_exits_2[groups=0]",
            "tests/test_cli.py::TestSimulate::test_missing_config_exits_2",
            "tests/test_cli.py::test_json_nested_too_deeply_is_bad_input[config]",
        ),
        "a bad config's error does not say which config",
    ),
    Mutant(
        "core-quote-not-cut", "core.py",
        'if len(text) > _QUOTED else ""', 'if False else ""',
        (
            "tests/test_cli.py::test_long_refused_value_is_cut[calibrate-from]",
            "tests/test_cli.py::test_long_refused_value_is_cut[seed]",
            "tests/test_cli.py::test_long_refused_value_is_cut[last-rounds]",
            "tests/test_cli.py::test_long_refused_value_is_cut[alpha]",
            "tests/test_cli.py::test_long_refused_seq_is_cut[not-counts]",
        ),
        "a refused command-line value is quoted whole, however long",
    ),
    Mutant(
        "cli-digits-beyond-int-raw", "cli.py",
        "    except ValueError:  # beyond int()'s limit on digits\n",
        "    except ArithmeticError:  # beyond int()'s limit on digits\n",
        (
            "tests/test_cli.py::test_long_refused_value_is_cut[seed-beyond-int-digits]",
            "tests/test_cli.py::test_long_refused_value_is_cut[last-rounds-beyond-int-digits]",
        ),
        "a --seed or --last-rounds of more digits than int() reads is quoted whole by"
        " argparse",
    ),
    Mutant(
        "core-seq-digits-beyond-int-raw", "core.py",
        "    except ValueError:  # a count beyond int()'s limit on digits\n",
        "    except ArithmeticError:  # a count beyond int()'s limit on digits\n",
        (
            "tests/test_cli.py::test_long_refused_seq_is_cut[count-beyond-int-digits]",
        ),
        "solve --seq with a count of more digits than int() reads ends in a raw"
        " ValueError traceback",
    ),
    Mutant(
        "init-lazy-module-unresolved", "__init__.py",
        "if name in _LAZY_EXPORTS:", "if False:",
        (
            "tests/test_exports.py::test_lazy_module_names_resolve_to_the_module[stats]",
        ),
        "a submodule named as a package attribute before its import raises AttributeError",
    ),
    Mutant(
        "core-draw-winner-by-float", "core.py",
        '_finite_real(uniform_draw, "uniform draw")', "float(uniform_draw)",
        (
            "tests/test_core.py::TestDrawWinner::test_draw_not_a_real_number_refused[true]",
            "tests/test_core.py::TestDrawWinner::test_draw_not_a_real_number_refused[string]",
        ),
        "draw_winner takes text and reads True as 1.0",
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
        "if value > endowment:", "if value > endowment + 1e-9:",
        (
            "tests/test_core.py::TestRoundPayoffs::test_over_endowment_rejected",
        ),
        "an investment a hair above the endowment is paid a negative margin",
    ),
    Mutant(
        "core-checked-shortcut-any-tuple", "core.py",
        "if investments.__class__ is _Checked:", "if isinstance(investments, tuple):",
        (
            "tests/test_core.py::TestCheckedInvestments::test_unchecked_investments_refused[tuple-negative-win_probabilities]",
            "tests/test_core.py::TestCheckedInvestments::test_unchecked_investments_refused[tuple-nan-round_payoffs]",
            "tests/test_core.py::TestCheckedInvestments::test_unchecked_investments_refused[foreign-tuple-inf-draw_winner]",
            "tests/test_core.py::TestCheckedInvestments::test_unchecked_investments_refused[foreign-tuple-bool-round_payoffs]",
        ),
        "a plain tuple or any tuple subclass passes the outcome functions unchecked:"
        " negative, NaN, infinite and bool investments are taken",
    ),
    Mutant(
        "equilibrium-calibrate-zero-mean", "equilibrium.py",
        '_finite_real(observed_mean, "observed mean") > 0',
        '_finite_real(observed_mean, "observed mean") >= 0',
        (
            "tests/test_equilibrium.py::TestCalibrateJow::test_nonpositive_mean_rejected",
        ),
        "calibrate_jow clamps a mean of 0 to no joy of winning instead of refusing it",
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
        "core.py", "if uniform_draw.__class__ is not float:", "if True:",
        "the fast path only: a float is a real number and not a bool, and one"
        " that is not finite is refused by the range test",
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
