"""Out-of-program tracing of the ``reckoner`` modules.

``Tracer.install`` wraps the public functions of each module, under every
name a ``reckoner`` module looks them up by, and each method on its class.
Every call records a span: name, start, end and parent span, in flat
in-memory arrays. ``Tracer.restore`` puts every patched attribute back, and
``Tracer.save`` writes the spans once the run has ended.

``layer_metrics`` turns saved spans into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# Traced functions per layer (a module of the package). ``errors`` does no
# work and is left out.
LAYERS = {
    "cli": ("main",),
    "data": ("load_csv", "hash_features", "split_dataset", "standardize",
             "apply_standardization"),
    "serial": ("sha256_hex", "sha256_of_obj"),
    "pipeline": ("train", "initialize", "pseudo_learning_cycle", "refinement_step",
                 "predict"),
    "models": ("FeedForwardClassifier.score", "FeedForwardClassifier.backward",
               "adam_step", "NoiseWrapper.apply", "NoiseWrapper.backward", "blend",
               "bce", "lr_fit", "ModelParams.__init__"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "confidence": ("split_by_confidence", "bucket_analysis", "feature_histograms"),
    "metrics": ("fairness_report", "equalized_odds"),
}

PACKAGE = "reckoner"


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.replace('__init__', 'init')}"


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every function in ``LAYERS``; imports the package's modules."""
        for layer in LAYERS:
            importlib.import_module(f"{PACKAGE}.{layer}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, attrs in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for attr in attrs:
                name = span_name(layer, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    self._set(cls, meth, self.wrap(name, cls.__dict__[meth]))
                    continue
                original = getattr(home, attr)
                traced = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, traced)

    def restore(self) -> None:
        """Undo every patch, newest first, so the package runs unmodified."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def save(self, path) -> None:
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 name_ids=np.frombuffer(self.name_ids, dtype=np.int64),
                 parents=np.frombuffer(self.parents, dtype=np.int64),
                 starts=np.frombuffer(self.starts, dtype=np.int64),
                 ends=np.frombuffer(self.ends, dtype=np.int64))


class Spans:
    """Saved spans as columns: name id, parent index (-1 at the root), times in ns."""

    def __init__(self, names, name_ids, parents, starts, ends):
        self.names = [str(n) for n in names]
        self.name_ids = np.asarray(name_ids, dtype=np.int64)
        self.parents = np.asarray(parents, dtype=np.int64)
        self.dur = np.asarray(ends, dtype=np.int64) - np.asarray(starts, dtype=np.int64)

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as z:
            return cls(z["names"], z["name_ids"], z["parents"], z["starts"], z["ends"])

    def self_ns(self) -> np.ndarray:
        """Each span's duration minus the time its direct child spans cover.

        Spans nest strictly (one thread, wrappers enter and leave in order),
        so the children of one span never overlap each other.
        """
        has_parent = self.parents >= 0
        child = np.bincount(self.parents[has_parent], weights=self.dur[has_parent],
                            minlength=self.dur.size)
        return self.dur - child.astype(np.int64)

    def inside(self, name: str) -> np.ndarray:
        """Mask of spans that have an ancestor span called ``name``."""
        target = self.names.index(name) if name in self.names else -1
        found = np.zeros(self.dur.size, dtype=bool)
        up = self.parents.copy()
        while (up >= 0).any():
            live = up >= 0
            found[live] |= self.name_ids[up[live]] == target
            up[live] = self.parents[up[live]]
        return found

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.dur.size, dtype=bool)
        return self.name_ids == self.names.index(name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _stat(stat: str, dur: np.ndarray, self_ns: np.ndarray) -> float:
    """One statistic of a function's spans, from their durations in ns."""
    if stat == "calls":
        return float(dur.size)
    if dur.size == 0:
        return 0.0
    if stat == "total_s":
        return float(dur.sum()) / 1e9
    if stat == "self_s":
        return float(self_ns.sum()) / 1e9
    if stat == "mean_us":
        return float(dur.mean()) / 1e3
    return float(np.percentile(dur, {"p50_us": 50, "p99_us": 99}[stat])) / 1e3


# Per function, the statistics reported for it. ``total_s`` is reported
# where the function has traced children or the time of the whole call is
# what matters; ``self_s`` where the function's own work is the target.
FUNCTION_STATS = {
    "pipeline.refinement_step": ("calls", "self_s", "mean_us", "p50_us", "p99_us"),
    "pipeline.pseudo_learning_cycle": ("total_s", "self_s"),
    "pipeline.initialize": ("total_s", "self_s"),
    "pipeline.train": ("total_s",),
    "pipeline.predict": ("calls", "total_s"),
    "models.FeedForwardClassifier.score": ("calls", "self_s", "mean_us"),
    "models.FeedForwardClassifier.backward": ("calls", "self_s", "mean_us"),
    "models.adam_step": ("calls", "self_s", "mean_us"),
    "models.NoiseWrapper.apply": ("calls", "self_s", "mean_us"),
    "models.NoiseWrapper.backward": ("calls", "self_s", "mean_us"),
    "models.blend": ("calls", "self_s", "mean_us"),
    "models.bce": ("calls", "self_s", "mean_us"),
    "models.lr_fit": ("total_s",),
    "models.ModelParams.init": ("calls",),
    "data.load_csv": ("calls", "total_s"),
    "data.hash_features": ("calls", "self_s"),
    "data.split_dataset": ("total_s",),
    "data.standardize": ("total_s",),
    "data.apply_standardization": ("total_s",),
    "serial.sha256_hex": ("calls", "total_s"),
    "serial.sha256_of_obj": ("calls",),
    "checkpoint.save_checkpoint": ("total_s",),
    "checkpoint.load_checkpoint": ("total_s",),
    "confidence.split_by_confidence": ("total_s",),
    "confidence.bucket_analysis": ("total_s",),
    "confidence.feature_histograms": ("total_s",),
    "metrics.fairness_report": ("total_s",),
    "metrics.equalized_odds": ("calls",),
    "cli.main": ("self_s",),
}

STAT_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "mean_us": "us",
              "p50_us": "us", "p99_us": "us"}

# Metrics derived from several spans or from the run, with their units.
DERIVED_UNITS = {
    "models.ffn_forwards_per_refine_step": "ratio",
    "models.param_allocs_per_refine_step": "ratio",
    "data.load_csv.rows_per_s": "rows/s",
    "trace.overhead": "ratio",
}


def metric_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    units = {f"{fn}.{stat}": STAT_UNITS[stat]
             for fn, stats in FUNCTION_STATS.items() for stat in stats}
    units.update(DERIVED_UNITS)
    return units


def layer_metrics(spans: Spans, rows_per_load: int, overhead: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``rows_per_load`` is the number of rows of the CSV the run loads, and
    ``overhead`` the traced wall time over the untraced one. Statistics of
    a function that was never called read 0.
    """
    self_ns = spans.self_ns()
    out: dict[str, float] = {}
    for fn, stats in FUNCTION_STATS.items():
        m = spans.mask(fn)
        for stat in stats:
            out[f"{fn}.{stat}"] = _stat(stat, spans.dur[m], self_ns[m])

    steps = int(spans.mask("pipeline.refinement_step").sum())
    in_step = spans.inside("pipeline.refinement_step")
    forwards = (spans.mask("models.FeedForwardClassifier.score")
                | spans.mask("models.FeedForwardClassifier.backward")) & in_step
    allocs = spans.mask("models.ModelParams.init") & in_step
    out["models.ffn_forwards_per_refine_step"] = _ratio(int(forwards.sum()), steps)
    out["models.param_allocs_per_refine_step"] = _ratio(int(allocs.sum()), steps)
    out["data.load_csv.rows_per_s"] = _ratio(out["data.load_csv.calls"] * rows_per_load,
                                             out["data.load_csv.total_s"])
    out["trace.overhead"] = overhead
    return out
