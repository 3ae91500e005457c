"""Span recorder for the benchmark's traced runs.

Tracing happens entirely outside the package: ``install`` rebinds the public
functions of each seqcontest module to timing wrappers, at the names their
callers look up (``simulate`` imports ``act``, ``draw_winner`` and
``round_payoffs`` by name, ``behavior`` imports ``solve_spne``, ``cli``
imports ``run_batch``, ``export_log``, ``load_log`` and ``solve_spne``), and
``uninstall`` puts the originals back. Each span records its name, start,
end, parent span and run id in flat arrays, so a traced run of a million
calls stays a few tens of megabytes; the arrays are written out at exit.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

_POLICY_KIND = {
    "EquilibriumPolicy": "spne",
    "EmpiricalResponder": "responder",
    "OptimizingLeader": "leader",
    "Imitator": "imitator",
}


def _label(stages) -> str:
    return "-".join(str(k) for k in stages)


class SpanRecorder:
    """In-memory span store: one row per call, in the order calls start."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.run_id = 0

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def extend(self, other: dict, run_id: int) -> None:
        """Append spans loaded from another process's dump under ``run_id``,
        re-pointing parents to the merged rows."""
        offset = len(self.start)
        names = list(other["names"])
        remap = [self._name_id(n) for n in names]
        self.name.extend(remap[int(i)] for i in other["name"])
        self.parent.extend(int(p) + offset if p >= 0 else -1 for p in other["parent"])
        self.run.extend([run_id] * len(other["name"]))
        self.start.extend(float(x) for x in other["start"])
        self.end.extend(float(x) for x in other["end"])

    def to_arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str, **extra) -> None:
        np.savez_compressed(path, **self.to_arrays(), **extra)

    @staticmethod
    def load(path: str) -> dict:
        with np.load(path) as data:
            return {key: data[key] for key in data.files}


def _wrap(rec: SpanRecorder, fn, name_of):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name_of(args, kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    return traced


def _fixed(name):
    return lambda args, kwargs: name


def _act_name(args, kwargs):
    policy = args[0] if args else kwargs["policy"]
    return "behavior.act." + _POLICY_KIND.get(type(policy).__name__, "other")


def _preemption_name(args, kwargs):
    seq = args[0] if args else kwargs["treatment"]
    return "behavior.optimal_first_mover." + _label(seq.stages)


def _session_name(args, kwargs):
    config = args[0] if args else kwargs["config"]
    return "simulate.run_session." + _label(config.spec.sequence.stages)


def _export_name(args, kwargs):
    fmt = args[1] if len(args) > 1 else kwargs["format"]
    return "simulate.export_log." + fmt


def _load_name(args, kwargs):
    fmt = args[1] if len(args) > 1 else kwargs.get("format")
    if fmt is None:
        fmt = "json" if str(args[0] if args else kwargs["path"]).endswith(".json") else "csv"
    return "simulate.load_log." + fmt


# (defining module, function, span namer); every module in USE_SITES that
# holds the same function object gets the same wrapper.
TRACED = (
    ("equilibrium", "build_ladder", _fixed("equilibrium.build_ladder")),
    ("equilibrium", "largest_root", _fixed("equilibrium.largest_root")),
    ("equilibrium", "solve_spne", _fixed("equilibrium.solve_spne")),
    ("core", "win_probabilities", _fixed("core.win_probabilities")),
    ("core", "draw_winner", _fixed("core.draw_winner")),
    ("core", "round_payoffs", _fixed("core.round_payoffs")),
    ("behavior", "eval_response", _fixed("behavior.eval_response")),
    ("behavior", "optimal_first_mover", _preemption_name),
    ("behavior", "act", _act_name),
    ("simulate", "play_round", _fixed("simulate.play_round")),
    ("simulate", "run_session", _session_name),
    ("simulate", "run_batch", _fixed("simulate.run_batch")),
    ("simulate", "export_log", _export_name),
    ("simulate", "load_log", _load_name),
    ("stats", "cluster_ols", _fixed("stats.cluster_ols")),
    ("stats", "wald_mean", _fixed("stats.wald_mean")),
    ("stats", "jonckheere_terpstra", _fixed("stats.jonckheere_terpstra")),
    ("stats", "trend_by_round", _fixed("stats.trend_by_round")),
    ("stats", "treatment_summary", _fixed("stats.treatment_summary")),
    ("stats", "group_aggregate_means", _fixed("stats.group_aggregate_means")),
)
USE_SITES = ("core", "equilibrium", "behavior", "simulate", "stats", "cli")


class Tracer:
    """Installs and removes the wrappers of one recorder."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import importlib

        import seqcontest

        modules = {name: importlib.import_module(f"seqcontest.{name}") for name in USE_SITES}
        sites = [seqcontest, *modules.values()]
        for mod_name, attr, name_of in TRACED:
            original = getattr(modules[mod_name], attr, None)
            if original is None:  # renamed or removed: its layer figures come out empty
                continue
            wrapper = _wrap(self.rec, original, name_of)
            for site in sites:
                if getattr(site, attr, None) is original:
                    self._saved.append((site, attr, original))
                    setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._saved):
            setattr(site, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------


class SpanTable:
    """Durations, self times and parent links of a finished recording."""

    def __init__(self, arrays: dict):
        self.names = [str(n) for n in arrays["names"]]
        self.name = np.asarray(arrays["name"], dtype=np.int64)
        self.parent = np.asarray(arrays["parent"], dtype=np.int64)
        self.dur = np.asarray(arrays["end"]) - np.asarray(arrays["start"])
        has_parent = self.parent >= 0
        child = np.zeros(self.dur.size)
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        return self.name == self.names.index(name)

    def prefixed(self, prefix: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return np.isin(self.name, ids)

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def median(self, name: str, self_time: bool = False) -> float | None:
        m = self.mask(name)
        if not m.any():
            return None
        values = self.self_time[m] if self_time else self.dur[m]
        return float(np.median(values))

    def children_named(self, parent_mask: np.ndarray, name: str) -> np.ndarray:
        """Per span in ``parent_mask``: does it have a direct child ``name``?"""
        m = self.mask(name) & (self.parent >= 0)
        flag = np.zeros(self.name.size, dtype=bool)
        flag[self.parent[m]] = True
        return flag & parent_mask
