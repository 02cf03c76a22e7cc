"""Command-line interface: train, audit, synth, and sweep subcommands.

Configs and reports are JSON; plot-ready tables are CSV. Exit codes: 1 for
config errors, 2 for data errors, 3 for numeric failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .confidence import (
    BucketSpec,
    bucket_analysis,
    confidence_of,
    feature_histograms,
)
from .data import (
    ColumnSpec,
    Schema,
    SplitSpec,
    StandardizedRows,
    SynthConfig,
    code_csv,
    read_predictions,
    split_rows,
    synth_biased,
    train_statistics,
)
from .errors import ConfigError, ReckonerError
from .metrics import FairnessReport, aligned, fairness_report
from .models import LinearClassifier
from .pipeline import TrainConfig, predict, train
from .serial import (
    format_float,
    make_dir,
    read_json,
    round_float,
    sha256_hex,
    sha256_of_obj,
    write_json,
    write_jsonl,
    write_text,
)
from . import workers
from .workers import WorkerFailure, fork_map

log = logging.getLogger("reckoner")

SWEEPABLE = ("alpha", "confidence_threshold", "seed", "use_noise", "use_pseudo_learning")


def _setup_logging() -> None:
    level = os.environ.get("RECKONER_LOG", "error").lower()
    chosen = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}.get(level, logging.ERROR)
    logging.basicConfig(level=chosen, format="%(levelname)s %(name)s: %(message)s")


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    write_text(path, buf.getvalue())


def _resolve_train_config(args) -> tuple[TrainConfig, Schema, SplitSpec]:
    doc = read_json(args.config, "config")
    if not isinstance(doc, dict) or "train" not in doc or "schema" not in doc:
        raise ConfigError("config must be a JSON object with 'train' and 'schema' keys")
    cfg = TrainConfig.from_dict(doc["train"])
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if getattr(args, "no_noise", False):
        cfg = dataclasses.replace(cfg, use_noise=False)
    if getattr(args, "no_pseudo", False):
        cfg = dataclasses.replace(cfg, use_pseudo_learning=False)
    schema = Schema.from_dict(doc["schema"])
    split = SplitSpec.from_dict(doc.get(
        "split",
        {"train_fraction": 0.7, "valid_fraction": 0.15, "test_fraction": 0.15,
         "seed": cfg.seed},
    ))
    return cfg, schema, split


def _prepare_data(schema: Schema, split: SplitSpec, data_path: Path) -> tuple:
    """Code the CSV, split its row indices, take the mean and std from the
    train rows' numeric columns, and standardize from the codes: (train,
    valid, test, mean, std, sha256). Each split stays coded,
    ``StandardizedRows`` holding just its rows: ``train`` builds the train
    matrix for its identifier fit only, and fills every mini-batch and
    scoring chunk from the codes. The whole table is freed on return."""
    table = code_csv(data_path, schema)
    tr, va, te = split_rows(table.n, split)
    # Column-major like standardize's x[:, pos]: the bits of mean(axis=0)
    # depend on the memory order.
    numeric = np.array([col[tr] for col in table.numeric.values()]).T
    mean, std = train_statistics(schema, numeric)
    del numeric
    rows = StandardizedRows(table, mean, std)
    del table  # rows keep its codes, labels and groups, not its raw floats
    return rows.take(tr), rows.take(va), rows.take(te), mean, std, rows.sha256


def _run_training(cfgs: list[TrainConfig], schema: Schema, split: SplitSpec, data: tuple,
                  out_dirs: list[Path], identifier: LinearClassifier | None = None,
                  ) -> tuple[list[FairnessReport], LinearClassifier]:
    """Shared train flow for cmd_train and sweep chunks on ``_prepare_data``'s
    tuple: trains the runs of ``cfgs``, which differ only in ``seed``, in
    lockstep, and writes each run's artifacts to its own directory in
    ``out_dirs``. Returns each run's test report and the identifier the
    runs used.

    Every artifact is written after the runs have succeeded, each run's
    manifest last, so a failed run leaves no manifest behind.
    """
    tr, va, te, mean, std, dataset_sha256 = data
    models = train(tr, va, cfgs, identifier=identifier)
    reports = []
    for cfg, model, out_dir in zip(cfgs, models, out_dirs):
        manifest = {
            "tool_version": __version__,
            "config": cfg.to_dict(),
            "schema": schema.to_dict(),
            "split": split.to_dict(),
            "dataset_sha256": dataset_sha256,
            "seed": cfg.seed,
            "artifacts": {
                "checkpoint": "checkpoint.json",
                "training_log": "training_log.jsonl",
                "fairness_report": "fairness_report.json",
            },
        }
        manifest_hash = sha256_of_obj(manifest)
        preds, _ = predict(model, te)
        report = fairness_report(preds, te.y, te.s)

        save_checkpoint(out_dir / "checkpoint.json", model, schema, mean, std,
                        manifest_sha256=manifest_hash)
        write_jsonl(out_dir / "training_log.jsonl",
                    [{k: (round_float(v) if isinstance(v, float) else v)
                      for k, v in entry.items()} for entry in model.history])
        write_json(out_dir / "fairness_report.json",
                   {"manifest_sha256": manifest_hash, **report.to_dict()})
        write_json(out_dir / "manifest.json", manifest)
        log.info("train run complete: %s", out_dir)
        reports.append(report)
    return reports, models[0].identifier


def cmd_train(args) -> int:
    cfg, schema, split = _resolve_train_config(args)
    data = _prepare_data(schema, split, Path(args.data))
    _run_training([cfg], schema, split, data, [make_dir(args.out)])
    return 0


def cmd_audit(args) -> int:
    """Score or read predictions, then compute every report and only then
    create ``--out`` and write them, the manifest last, so a failed audit
    leaves no directory and no manifest behind.

    A scored table is coded, standardized and checked before ``predict``
    runs, and its feature matrix is never built whole. The reports share
    one check of the preds and labels and one coding of the groups; each
    bucket report assigns the confidences itself."""
    if args.histogram_feature and not args.checkpoint:
        raise ConfigError("--histogram-feature requires --checkpoint mode")
    if args.checkpoint and args.predictions:
        raise ConfigError("--predictions cannot be combined with --checkpoint")
    if args.data and not args.checkpoint:
        raise ConfigError("--data requires --checkpoint")
    if args.bins is not None and not args.histogram_feature:
        raise ConfigError("--bins requires --histogram-feature")
    bins = 10 if args.bins is None else args.bins
    if bins < 1:
        raise ConfigError(f"--bins must be >= 1, got {bins}")
    spec = BucketSpec(tuple(args.bucket_thresholds)) if args.bucket_thresholds \
        else BucketSpec()

    if args.checkpoint:
        if not args.data:
            raise ConfigError("--checkpoint requires --data")
        loaded = load_checkpoint(args.checkpoint)
        feature = args.histogram_feature
        if feature and ColumnSpec(feature, "numeric") not in loaded.schema.columns:
            raise ConfigError(f"--histogram-feature {feature!r} is not a numeric "
                              "feature of the checkpoint's schema")
        # No name keeps the table, so its raw numeric columns go once
        # the rows are standardized.
        x = StandardizedRows(code_csv(Path(args.data), loaded.schema),
                             loaded.mean, loaded.std)
        preds, prob = predict(loaded.model, x)
        del loaded  # the reports need no model, nor its scoring buffers
        labels, groups = x.y, x.s
        column = x.feature(feature) if feature else None
        source = {"checkpoint": str(args.checkpoint), "data": str(args.data),
                  "data_sha256": x.sha256}
        del x  # nor the codes and the other standardized columns
    elif args.predictions:
        preds, labels, groups, prob, sha256 = read_predictions(Path(args.predictions))
        source = {"predictions": str(args.predictions), "data_sha256": sha256}
    else:
        raise ConfigError("audit needs either --predictions or --checkpoint with --data")
    conf = confidence_of(prob) if prob is not None else None

    manifest = {"tool_version": __version__, "mode": "audit", "source": source,
                "bucket_thresholds": list(spec.thresholds)}
    manifest_hash = sha256_of_obj(manifest)

    preds, labels, groups = aligned(preds, labels, groups)
    report = fairness_report(preds, labels, groups)
    bucket = hist = None
    if conf is not None:
        bucket = bucket_analysis(preds, labels, groups, conf, spec, *report.pair)
    if args.histogram_feature:
        hist = feature_histograms(column, groups, conf, spec, args.histogram_feature,
                                  bins=bins)

    out_dir = make_dir(args.out)
    write_json(out_dir / "fairness_report.json",
               {"manifest_sha256": manifest_hash, **report.to_dict()})
    if bucket is not None:
        _write_csv(out_dir / "bucket_report.csv", bucket.to_csv_rows())
        write_json(out_dir / "bucket_report.json",
                   {"manifest_sha256": manifest_hash, **bucket.to_dict()})
    if hist is not None:
        _write_csv(out_dir / f"histogram_{args.histogram_feature}.csv",
                   hist.to_csv_rows())
        write_json(out_dir / f"histogram_{args.histogram_feature}.json",
                   {"manifest_sha256": manifest_hash, **hist.to_dict()})
    write_json(out_dir / "audit_manifest.json", manifest)
    log.info("audit complete: %s", out_dir)
    return 0


def cmd_synth(args) -> int:
    cfg = SynthConfig.from_dict(read_json(args.config, "synth config"))
    d = synth_biased(cfg)
    out = Path(args.out)
    make_dir(out.parent)
    names = [c.name for c in d.schema.feature_columns] + ["y", "s"]
    rows = [names]
    for i in range(d.n):
        rows.append([repr(float(v)) for v in d.x[i]]
                    + [str(int(d.y[i])), str(int(d.s[i]))])
    _write_csv(out, rows)
    sidecar = {
        "synth_config": cfg.to_dict(),
        "clean_labels": d.clean_y.tolist() if d.clean_y is not None else None,
        "csv_sha256": sha256_hex(out.read_bytes()),
    }
    write_json(out.with_suffix(out.suffix + ".meta.json"), sidecar)
    log.info("synth data written: %s", out)
    return 0


def _sweep_grid(doc) -> list[dict]:
    if not isinstance(doc, dict):
        raise ConfigError("sweep grid must be a JSON object of lists")
    unknown = set(doc) - set(SWEEPABLE)
    if unknown:
        raise ConfigError(f"unsweepable keys: {sorted(unknown)}; allowed {SWEEPABLE}")
    keys = [k for k in SWEEPABLE if k in doc]
    if not keys:
        raise ConfigError("sweep grid is empty: no sweepable keys present")
    axes = []
    for k in keys:
        vals = doc[k]
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"sweep axis {k!r} must be a nonempty list")
        axes.append(vals)
    return [dict(zip(keys, combo)) for combo in itertools.product(*axes)]


def _lockstep_chunks(points: list[dict], cpus: int) -> list[list[int]]:
    """The indices of ``points`` in chunks to train in lockstep: points
    whose configs differ only in ``seed`` form a group, and each group is
    cut into chunks of ceil(points / cpus), so that every CPU gets work. A
    point whose config does not parse is a chunk of its own."""
    size = math.ceil(len(points) / cpus)
    groups: dict[object, list[int]] = {}
    for i, point in enumerate(points):
        try:
            key: object = TrainConfig.from_dict(point).lockstep_key()
        except ReckonerError:
            key = i
        groups.setdefault(key, []).append(i)
    return [group[start:start + size] for group in groups.values()
            for start in range(0, len(group), size)]


def cmd_sweep(args) -> int:
    cfg, schema, split = _resolve_train_config(args)
    grid = _sweep_grid(read_json(args.sweep, "sweep spec"))
    out_dir = make_dir(args.out)
    header = ["point", *SWEEPABLE, "status", "accuracy", "demographic_parity",
              "equalized_odds", "reason"]
    points = [{**cfg.to_dict(), **point} for point in grid]
    # Neither the split nor the identifier's settings are sweepable, so the
    # points share one data preparation, made before the workers fork; a
    # failed one fails every point. Each worker fits the identifier at its
    # first chunk that succeeds and keeps it for the rest: the fit has no
    # seed, so every worker's has the same bits.
    try:
        data = _prepare_data(schema, split, Path(args.data))
    except (ReckonerError, MemoryError) as exc:
        data = _reported(exc)
    identifier = None

    def failed(i: int, reason: str) -> list[str]:
        log.warning("sweep point %d failed: %s", i, reason)
        return ["error", "", "", "", reason]

    def run_chunk(chunk: list[int]) -> list[list[str]] | None:
        """Each point's status, test metrics and failure reason, the points
        trained in lockstep; None when a chunk of several points fails."""
        nonlocal identifier
        try:
            cfgs = [TrainConfig.from_dict(points[i]) for i in chunk]
            run_dirs = [make_dir(out_dir / f"point_{i:03d}") for i in chunk]
            if isinstance(data, ReckonerError):
                raise data
            reports, identifier = _run_training(cfgs, schema, split, data,
                                                run_dirs, identifier)
        except (ReckonerError, MemoryError) as exc:
            return None if len(chunk) > 1 else [failed(chunk[0], str(_reported(exc)))]
        return [["ok", format_float(report.accuracy), format_float(report.dp),
                 format_float(report.eodds), ""] for report in reports]

    chunks = _lockstep_chunks(points, workers.usable_cpus())
    outcomes: list = [None] * len(points)
    while chunks:
        # A failed chunk of several points runs again point by point, so
        # that only a failing point fails: runs are deterministic, so each
        # point gets the bytes a lone train gives it, in a chunk or alone.
        rerun: list[int] = []
        for c, rows in fork_map(lambda c: run_chunk(chunks[c]), len(chunks)):
            if isinstance(rows, list):
                for i, row in zip(chunks[c], rows):
                    outcomes[i] = row
            elif len(chunks[c]) > 1:
                rerun.extend(chunks[c])
            else:
                outcomes[chunks[c][0]] = failed(chunks[c][0], rows.reason)
        chunks = [[i] for i in sorted(rerun)]
    _write_csv(out_dir / "summary.csv", [header] + [
        [str(i), *(_cell(point[k]) for k in SWEEPABLE), *outcome]
        for i, (point, outcome) in enumerate(zip(points, outcomes))])
    if not any(outcome[0] == "ok" for outcome in outcomes):
        raise ConfigError("all sweep points failed; see summary.csv")
    return 0


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    return str(v)


class _Parser(argparse.ArgumentParser):
    """A usage error is a config error: exit 1 with one ``error kind=`` line."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="reckoner",
        description="Confidence-split dual-model fair classification pipeline.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and audit the test split")
    p_train.add_argument("--config", required=True, help="train config JSON")
    p_train.add_argument("--data", required=True, help="input CSV")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--seed", type=int, default=None, help="override config seed")
    p_train.add_argument("--no-noise", action="store_true",
                         help="disable the learnable noise wrapper")
    p_train.add_argument("--no-pseudo", action="store_true",
                         help="disable pseudo-learning and knowledge sharing")
    p_train.set_defaults(func=cmd_train)

    p_audit = sub.add_parser("audit", help="fairness and confidence-bucket reports")
    p_audit.add_argument("--predictions", help="CSV with pred,label,group[,score]")
    p_audit.add_argument("--checkpoint", help="checkpoint JSON from a train run")
    p_audit.add_argument("--data", help="CSV to score (checkpoint mode)")
    p_audit.add_argument("--out", required=True, help="output directory")
    p_audit.add_argument("--histogram-feature", default=None,
                         help="numeric feature to histogram per bucket")
    p_audit.add_argument("--bins", type=int, default=None,
                         help="histogram bins (default 10); needs --histogram-feature")
    p_audit.add_argument("--bucket-thresholds", type=float, nargs="+", default=None)
    p_audit.set_defaults(func=cmd_audit)

    p_synth = sub.add_parser("synth", help="generate a biased-label synthetic CSV")
    p_synth.add_argument("--config", required=True, help="synth config JSON")
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.set_defaults(func=cmd_synth)

    p_sweep = sub.add_parser("sweep", help="grid sweep over key hyperparameters")
    p_sweep.add_argument("--config", required=True, help="base train config JSON")
    p_sweep.add_argument("--data", required=True, help="input CSV")
    p_sweep.add_argument("--sweep", required=True, help="sweep grid JSON")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _reported(exc: ReckonerError | MemoryError) -> ReckonerError:
    """The error the CLI reports for ``exc``: a MemoryError comes from a
    width whose arrays cannot be allocated, so it is a config error."""
    if isinstance(exc, MemoryError):
        return ConfigError(f"not enough memory for this config: {exc}")
    return exc


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = _build_parser().parse_args(argv)
        # A diverging run ends in NumericError; numpy's overflow warnings on
        # the way there would only add lines around its one error line.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ReckonerError, MemoryError) as exc:
        error = _reported(exc)
    print(f'error kind={error.kind} exit={error.exit_code} reason="{error}"',
          file=sys.stderr)
    return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
