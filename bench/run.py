"""seqcontest benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload cli_pipeline --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``. With ``--trace 0`` the last line of standard output is one JSON
object whose ``metrics`` hold every end-to-end metric; with ``--trace 1`` they
hold every per-layer metric instead. The line before it is a JSON report with
the run's provenance, the workload's figures under their specified names and
anything the checks found. See bench/README.md for what each figure means.

Load is one client in one process with one thread: CLI processes run one at
a time, each starting when the previous one has ended. Every end-to-end time
is reported at reference speed, scaled by a speed gauge read right next to
the timed call (see gauge.py), because the CPU speed of a shared host drifts
by up to 1.5x within seconds.
"""

from __future__ import annotations

import os

# One thread of numeric work, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SEQCONTEST_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("cli_pipeline", "power_study", "design_sweep")
SETUP_RUNS = 5

# name -> unit of every end-to-end metric, reported by every workload.
END_TO_END = {
    "setup_s": "s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "work_per_s": "1/s",
    "aux_mean_ms": "ms",
    "peak_rss_mb": "MB",
}


class SetupSampler:
    """Time of fresh processes that do nothing but ``import seqcontest``, at
    reference speed.

    SETUP_RUNS of them are spread evenly over the run: the workload calls
    ``poll()`` between its operations, which takes a sample whenever one is
    due, and ``finish()`` takes any still missing. Each sample runs outside
    the workload's timed regions. A traced run takes none.
    """

    def __init__(self, seconds: float, runs: int, gauge):
        self.seconds = seconds
        self.runs = runs
        self.gauge = gauge
        self.samples: list[float] = []
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.cmd = [sys.executable, "-c", "import seqcontest"]
        self.t_start = time.perf_counter()

    def _sample(self) -> None:
        _, _, wall = self.gauge.time(
            lambda: subprocess.run(self.cmd, env=self.env, check=True, capture_output=True,
                                   timeout=120))
        self.samples.append(wall)

    def poll(self) -> None:
        n = len(self.samples)
        if n < self.runs and time.perf_counter() >= self.t_start + n * self.seconds / self.runs:
            self._sample()

    def finish(self) -> list[float]:
        while len(self.samples) < self.runs:
            self._sample()
        return self.samples


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    reference: dict
    out_dir: str
    gauge: object
    setup: SetupSampler


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "seqcontest")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    sha = "unknown"
    try:
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10).stdout.split()
        if len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def end_to_end(setup: list[float], outcome, workload: str) -> dict:
    from workloads import median, p90

    def ms(seconds):
        return None if seconds is None else 1e3 * seconds

    who = resource.RUSAGE_CHILDREN if workload == "cli_pipeline" else resource.RUSAGE_SELF
    return {
        "setup_s": statistics.median(setup),
        "call_p50_ms": ms(median(outcome.call_s)),
        "call_p90_ms": ms(p90(outcome.call_s)),
        "work_per_s": outcome.work_units / outcome.work_s if outcome.work_s else None,
        "aux_mean_ms": ms(sum(outcome.aux_s) / len(outcome.aux_s)) if outcome.aux_s else None,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "seqcontest", "__init__.py")):
        print(f"error: no seqcontest package under {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    sys.path[:0] = [SRC, HERE]
    import checks
    import workloads  # imports the package, so the timed imports find it compiled
    import gauge as gauges

    os.makedirs(OUT_DIR, exist_ok=True)
    # CLI processes are scaled by the fresh-process gauge, in-process calls
    # by the in-process one; setup processes always by the fresh-process one.
    process_gauge = gauges.fresh_process()
    gauge = process_gauge if args.workload == "cli_pipeline" else gauges.in_process()
    ctx = Context(args.seed, args.seconds, bool(args.trace), checks.load_reference(), OUT_DIR,
                  gauge, SetupSampler(args.seconds, 0 if args.trace else SETUP_RUNS, process_gauge))
    outcome = workloads.WORKLOADS[args.workload](ctx)
    setup = ctx.setup.finish()

    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              **provenance(args.seed)}
    if args.trace:
        import layers

        values, from_probe = layers.layer_metrics(ctx, outcome)
        units = layers.LAYER_METRICS
        report["from_probe"] = from_probe
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.npz")
        outcome.recorder.save(spans_path)
        report["spans"] = {"count": len(outcome.recorder), "file": os.path.relpath(spans_path, ROOT)}
    else:
        values = end_to_end(setup, outcome, args.workload)
        units = END_TO_END
        report["setup_samples_s"] = setup
        report["raw_call_p50_ms"] = 1e3 * statistics.median(outcome.raw_call_s)
    report["gauge_readings_s"] = {
        "reference": gauge.reference_s, "count": len(gauge.readings),
        "quartiles": statistics.quantiles(gauge.readings, n=4)}
    report["loadavg_start"] = load_start
    report["loadavg_end"] = os.getloadavg()
    report["named"] = {k: {"value": v, "unit": u} for k, (v, u) in outcome.named.items()}
    report.update(outcome.info)
    report["failures"] = outcome.failures[:20]
    print(json.dumps(report))
    for failure in outcome.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
