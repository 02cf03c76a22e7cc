"""Benchmark of the ``reckoner`` CLI: four workloads, each run in fresh processes.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

A run generates the workload's inputs from ``--seed`` (untimed), then
launches the CLI back to back, one process at a time (a closed loop with one
client), for about ``--seconds`` seconds, and checks every launch's outputs.
With ``--trace 0`` it prints the end-to-end metrics, each the median over
the launches; with ``--trace 1`` it runs the workload once under the span
tracer and prints the per-layer metrics. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Every file goes under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCES = BENCH_DIR / "references.json"

# One BLAS/OpenMP thread per workload process: the load never uses more
# threads than the two cores, and the hashed checkpoint's bytes do not
# depend on the thread count.
THREAD_VARS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

DEFAULT_SEED = 0
LAUNCH_TIMEOUT_S = 150.0
SETUP_SAMPLES = 5

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "steps/s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "checkpoint_bytes": "B",
}


@dataclass(frozen=True)
class Workload:
    command: str    # CLI subcommand: train, sweep or audit
    stamp_at: str   # the name in reckoner.cli whose first call ends set-up
    steps: int      # per launch: training iterations, or rows scored by audit
    rows: int       # per launch: CSV rows loaded, once per sweep point
    points: int = 1  # checked units per launch: one per sweep point


WORKLOADS = {
    "train_numeric": Workload("train", "train", gen.NUMERIC_TRAIN["total_iterations"],
                              gen.TRAIN_ROWS),
    "train_hashed": Workload("train", "train", gen.HASHED_TRAIN["total_iterations"],
                             gen.TRAIN_ROWS),
    "sweep_seeds": Workload("sweep", "train", len(gen.SWEEP_SEEDS) * gen.SWEEP_ITERATIONS,
                            len(gen.SWEEP_SEEDS) * gen.TRAIN_ROWS, len(gen.SWEEP_SEEDS)),
    "audit_hashed": Workload("audit", "predict", gen.SCORE_ROWS, gen.SCORE_ROWS),
}


@dataclass
class Launch:
    """One finished workload process."""

    code: int
    wall_s: float
    peak_rss_mb: float
    setup_s: float | None


def launch(cli_args: list[str], log: Path, *, stamp_at: str | None = None,
           stop_at_setup: bool = False, trace: Path | None = None,
           run_id: str = "") -> Launch:
    """Fork and exec one ``launch.py`` process and wait for it.

    Fork, not vfork or posix_spawn: a vfork child's rusage starts from the
    parent's peak RSS, a forked one only from what the parent has resident.
    """
    argv = [sys.executable, str(BENCH_DIR / "launch.py")]
    stamp = log.with_suffix(".stamp")
    if stamp_at is not None:
        stamp.unlink(missing_ok=True)
        argv += ["--stamp", str(stamp), "--stamp-at", stamp_at]
        if stop_at_setup:
            argv.append("--stop-at-setup")
    if trace is not None:
        argv += ["--trace", str(trace), "--run-id", run_id]
    argv += ["--", *cli_args]
    env = dict(os.environ, **THREAD_VARS, RECKONER_LOG="error", PYTHONPATH=str(SRC))
    with log.open("wb") as out:
        t0 = time.monotonic_ns()
        pid = os.fork()
        if pid == 0:
            try:
                os.dup2(out.fileno(), 1)
                os.dup2(out.fileno(), 2)
                os.execve(argv[0], argv, env)
            finally:
                os._exit(127)
        killer = threading.Timer(LAUNCH_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:  # interrupted: leave no process behind
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            killer.cancel()
        t1 = time.monotonic_ns()
    setup_s = None
    if stamp_at is not None and stamp.exists():
        setup_s = (int(stamp.read_text()) - t0) / 1e9
    return Launch(code=os.waitstatus_to_exitcode(status), wall_s=(t1 - t0) / 1e9,
                  peak_rss_mb=usage.ru_maxrss / 1024.0, setup_s=setup_s)


def reckoner(cli_args: list[str], log: Path) -> None:
    """Untimed CLI call made during set-up; set-up fails if it fails."""
    done = launch(cli_args, log)
    if done.code != 0:
        raise SystemExit(f"set-up step failed (exit {done.code}): see {log}")


def set_up(name: str, seed: int, inputs: Path) -> dict[str, Path]:
    """Write the workload's inputs for ``seed`` (untimed); returns their paths."""
    inputs.mkdir(parents=True)
    config = inputs / "config.json"
    if name in ("train_numeric", "sweep_seeds"):
        data = inputs / "data.csv"
        gen.write_json(inputs / "synth.json", gen.synth_config(seed))
        reckoner(["synth", "--config", str(inputs / "synth.json"), "--out", str(data)],
                 inputs / "synth.log")
        train = gen.NUMERIC_TRAIN if name == "train_numeric" else dict(
            gen.NUMERIC_TRAIN, total_iterations=gen.SWEEP_ITERATIONS)
        gen.write_json(config, gen.train_config(train, gen.numeric_schema()))
        if name == "train_numeric":
            return {"config": config, "data": data}
        gen.write_json(inputs / "sweep.json", {"seed": list(gen.SWEEP_SEEDS)})
        return {"config": config, "data": data, "sweep": inputs / "sweep.json"}
    data = inputs / "mixed.csv"
    gen.write_mixed_csv(data, gen.TRAIN_ROWS, seed, stream=1)
    gen.write_json(config, gen.train_config(gen.HASHED_TRAIN, gen.mixed_schema()))
    if name == "train_hashed":
        return {"config": config, "data": data}
    reckoner(["train", "--config", str(config), "--data", str(data),
              "--out", str(inputs / "model")], inputs / "model.log")
    gen.write_mixed_csv(inputs / "score.csv", gen.SCORE_ROWS, seed, stream=2)
    return {"checkpoint": inputs / "model" / "checkpoint.json", "data": inputs / "score.csv"}


def cli_args(wl: Workload, inputs: dict[str, Path], out: Path) -> list[str]:
    i = {k: str(v) for k, v in inputs.items()}
    if wl.command == "train":
        return ["train", "--config", i["config"], "--data", i["data"], "--out", str(out)]
    if wl.command == "sweep":
        return ["sweep", "--config", i["config"], "--data", i["data"],
                "--sweep", i["sweep"], "--out", str(out)]
    return ["audit", "--checkpoint", i["checkpoint"], "--data", i["data"],
            "--out", str(out), "--histogram-feature", "n0", "--bins", "10"]


def checkpoint_bytes(wl: Workload, inputs: dict[str, Path], out: Path) -> float:
    """Size of the checkpoint a launch wrote (median over sweep points) or read."""
    if wl.command == "audit":
        return float(inputs["checkpoint"].stat().st_size)
    paths = sorted(out.glob("point_*/checkpoint.json")) if wl.command == "sweep" \
        else [out / "checkpoint.json"]
    return float(statistics.median(p.stat().st_size for p in paths))


# ------------------------------------------------------------- correctness


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def unit_values(wl: Workload, out: Path) -> list[tuple[Path, object]]:
    """The checked units of one launch, each with the value compared against
    the references: one unit per launch, or one per sweep point."""
    if wl.command == "train":
        report = json.loads((out / "fairness_report.json").read_text())
        keep = ("accuracy", "demographic_parity", "equalized_odds", "signed_gaps")
        return [(out, {k: report[k] for k in keep})]
    if wl.command == "sweep":
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        return [(out / f"point_{i:03d}", row) for i, row in enumerate(rows)]
    buckets = json.loads((out / "bucket_report.json").read_text())["buckets"]
    return [(out, [b["gaps"] for b in buckets])]


def plausible(wl: Workload, value) -> bool:
    if wl.command == "train":
        return 0.5 < value["accuracy"] <= 1.0
    if wl.command == "sweep":
        cells = value.split(",")
        return cells[-5] == "ok" and 0.5 < float(cells[-4]) <= 1.0
    return any(g is not None for gaps in value for g in gaps.values())


class Checker:
    """Checks each launch against the seed's references and the first launch."""

    def __init__(self, name: str, seed: int):
        self.wl = WORKLOADS[name]
        refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
        self.reference = refs.get(name, {}).get(str(seed))
        self.first: list[tuple[object, str]] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, done: Launch, out: Path) -> None:
        points = self.wl.points
        self.attempted += points
        try:
            if done.code != 0:
                raise ValueError(f"exit code {done.code}")
            units = [(value, dir_digest(path)) for path, value in unit_values(self.wl, out)]
            if len(units) != points:
                raise ValueError(f"{len(units)} outputs, expected {points}")
        except (OSError, ValueError, KeyError) as exc:
            self.failed += points
            self.problems.append(f"{out.name}: {exc}")
            return
        for k, (value, digest) in enumerate(units):
            why = None
            if not plausible(self.wl, value):
                why = f"implausible output {value!r}"
            elif self.reference is not None and value != self.reference[k]:
                why = f"differs from reference: {value!r} != {self.reference[k]!r}"
            elif self.first is not None and digest != self.first[k][1]:
                why = "artifacts differ from the first launch's"
            if why:
                self.failed += 1
                self.problems.append(f"{out.name} unit {k}: {why}")
        if self.first is None:
            self.first = units


# ---------------------------------------------------------------- the run


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for f in sorted((SRC / "reckoner").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"threads": THREAD_VARS, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version, "git_sha": sha, "src_sha256": src.hexdigest()}


def median(values) -> float:
    return float(statistics.median(values))


def run_loop(wl: Workload, inputs: dict[str, Path], runs: Path, seconds: float,
             checker: Checker) -> list[tuple[Path, Launch]]:
    """Launch back to back for ``seconds``: after the first launch, start
    another only if a launch of the median length so far ends by then."""
    done: list[tuple[Path, Launch]] = []
    start = time.monotonic()
    while True:
        out = runs / f"launch_{len(done):02d}"
        result = launch(cli_args(wl, inputs, out), out.with_suffix(".log"),
                        stamp_at=wl.stamp_at)
        checker.check(result, out)
        done.append((out, result))
        typical = median(d.wall_s for _, d in done)
        if time.monotonic() - start + typical > seconds:
            return done


def setup_samples(wl: Workload, inputs: dict[str, Path], runs: Path,
                  have: list[float]) -> list[float]:
    """Set-up times of the full launches, topped up by launches that exit
    at the end of set-up."""
    samples = list(have)
    while len(samples) < SETUP_SAMPLES:
        out = runs / f"setup_{len(samples):02d}"
        probe = launch(cli_args(wl, inputs, out), out.with_suffix(".log"),
                       stamp_at=wl.stamp_at, stop_at_setup=True)
        if probe.code != 0 or probe.setup_s is None:
            raise SystemExit(f"set-up probe failed: see {out.with_suffix('.log')}")
        samples.append(probe.setup_s)
    return samples


def end_to_end(wl: Workload, inputs: dict[str, Path], runs: Path,
               launches: list[tuple[Path, Launch]]) -> dict[str, tuple[float, int]]:
    """Each end-to-end metric as (median over the good launches, sample count)."""
    ok = [(out, d) for out, d in launches if d.code == 0 and d.setup_s is not None]
    if not ok:
        raise SystemExit(f"every launch failed: see the logs in {runs}")
    n = len(ok)
    setups = setup_samples(wl, inputs, runs, [d.setup_s for _, d in ok])
    return {
        "wall_s": (median(d.wall_s for _, d in ok), n),
        "setup_s": (median(setups), len(setups)),
        "steps_per_s": (median(wl.steps / (d.wall_s - d.setup_s) for _, d in ok), n),
        "rows_per_s": (median(wl.rows / d.wall_s for _, d in ok), n),
        "peak_rss_mb": (median(d.peak_rss_mb for _, d in ok), n),
        "checkpoint_bytes": (median(checkpoint_bytes(wl, inputs, out) for out, _ in ok), n),
    }


def per_layer(wl: Workload, inputs: dict[str, Path], runs: Path, seconds: float,
              checker: Checker) -> tuple[dict, list[Launch]]:
    """One traced launch, then untraced launches for ``trace.overhead``."""
    out, span_file = runs / "traced", runs / "spans.npz"
    traced = launch(cli_args(wl, inputs, out), runs / "traced.log", trace=span_file,
                    run_id=runs.parent.name)
    checker.check(traced, out)
    untraced = run_loop(wl, inputs, runs, seconds, checker)
    if traced.code != 0:
        raise SystemExit(f"the traced launch failed: see {runs / 'traced.log'}")
    overhead = traced.wall_s / median(d.wall_s for _, d in untraced)
    metrics = spans.layer_metrics(spans.Spans.load(span_file),
                                  rows_per_load=wl.rows // wl.points, overhead=overhead)
    return ({k: (v, 1) for k, v in metrics.items()},
            [traced, *(d for _, d in untraced)])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    base = WORK / f"{name}-seed{seed}"
    shutil.rmtree(base, ignore_errors=True)
    t_setup = time.monotonic()
    inputs = set_up(name, seed, base / "inputs")
    # Import and compile the package once, untimed, as an installed CLI has
    # it, and flush the inputs to disk so their writeback is not timed.
    reckoner(["--version"], base / "inputs" / "warm.log")
    for f in (base / "inputs").rglob("*"):
        if f.is_file():
            with f.open("rb") as fh:
                os.fsync(fh.fileno())
    runs = base / "runs"
    runs.mkdir()
    print(f"# {name} seed={seed} trace={int(trace)}: inputs ready in "
          f"{time.monotonic() - t_setup:.1f} s", file=sys.stderr)
    checker = Checker(name, seed)
    if trace:
        table, launches = per_layer(wl, inputs, runs, seconds, checker)
        units = spans.metric_units()
    else:
        timed = run_loop(wl, inputs, runs, seconds, checker)
        table, launches = end_to_end(wl, inputs, runs, timed), [d for _, d in timed]
        units = END_TO_END

    result = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "environment": environment(),
        "attempted": checker.attempted, "failed": checker.failed,
        "error_rate": checker.failed / checker.attempted,
        "problems": checker.problems,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in table.items()},
        "reference_values": [v for v, _ in checker.first or []],
        "launches": [vars(d) for d in launches],
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result


def print_report(result: dict) -> None:
    print(f"{result['workload']}  seed={result['seed']}  trace={result['trace']}")
    print(f"  env {json.dumps(result['environment'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"  {name:<46} {m['value']:>16.6g} {m['unit']:<8} n={m['samples']}")
    print(f"  {'error_rate':<46} {result['error_rate']:>16.6g} {'ratio':<8} "
          f"n={result['attempted']} ({result['failed']} failed)")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def record_references(results: list[dict]) -> None:
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for r in results:
        if r["failed"] == 0:
            refs.setdefault(r["workload"], {})[str(r["seed"])] = r["reference_values"]
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's checked outputs as the seed's references")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "reckoner" / "cli.py").is_file():
        print(f"error: no reckoner sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for r in results:
        print_report(r)
    if args.record:
        record_references(results)

    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k):
                    {"value": m["value"], "unit": m["unit"]}
                    for r in results for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
