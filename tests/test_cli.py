import base64
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import assert_no_child_processes, cap_workers, saved_as_v3_too
import reckoner
import reckoner.cli
import reckoner.data
import reckoner.metrics
import reckoner.models
import reckoner.pipeline
import reckoner.serial
from reckoner.cli import SWEEPABLE, _sweep_grid, main
from reckoner.confidence import BucketSpec
from reckoner.errors import ConfigError
from reckoner.pipeline import TrainConfig

SYNTH_CFG = {
    "n": 400, "m_numeric": 3, "group_balance": 0.5,
    "flip_rate_g0": 0.0, "flip_rate_g1": 0.25,
    "signal_strength": 2.0, "seed": 11,
}

TRAIN_CFG = {
    "train": {
        "total_iterations": 60, "batch_size": 32, "identifier_epochs": 40,
        "hidden1": 8, "hidden2": 4, "learning_rate": 0.01, "seed": 0,
    },
    "schema": {
        "columns": [
            {"name": "f0", "kind": "numeric"},
            {"name": "f1", "kind": "numeric"},
            {"name": "f2", "kind": "numeric"},
            {"name": "y", "kind": "label"},
            {"name": "s", "kind": "sensitive"},
        ],
        "hash_buckets": 8,
    },
    "split": {"train_fraction": 0.6, "valid_fraction": 0.2,
              "test_fraction": 0.2, "seed": 1},
}


# The train config of acceptance test C9 (end-to-end determinism).
C9_SYNTH_CFG = {"n": 1200, "m_numeric": 4, "flip_rate_g1": 0.25, "seed": 21}
C9_TRAIN_CFG = {
    "train": {"total_iterations": 150, "batch_size": 64, "hidden1": 16,
              "hidden2": 8, "identifier_epochs": 60, "learning_rate": 0.005,
              "seed": 2},
    "schema": {"columns": [{"name": f"f{i}", "kind": "numeric"} for i in range(4)]
               + [{"name": "y", "kind": "label"}, {"name": "s", "kind": "sensitive"}],
               "hash_buckets": 8},
    "split": {"train_fraction": 0.7, "valid_fraction": 0.15,
              "test_fraction": 0.15, "seed": 3},
}


# SHA-256 of the four artifacts ``reckoner train`` writes for C9's config.
C9_SHA256 = {
    "checkpoint.json": "fb1006ad6983f09211eb7b835bdd3253c45b21890cd31865979456951b7968cf",
    "fairness_report.json": "e69eefc4f1b41463518e005ea5ed08de3d777c3b1a1b0411d02a28e31faf14c7",
    "manifest.json": "52c049fa6addacf8355a2466341912f9e02e9ffdcdb860d41874825e2a2f442b",
    "training_log.jsonl": "5903732ebde98eadb07ccd122eec4f2b8c2c7fbd351fcc1a6226f04e2f7c8d13",
}
ARTIFACTS = tuple(C9_SHA256)


# A hashed categorical table: two categorical columns of 64 buckets each
# plus two numeric columns give m = 130, trained with the noise wrapper on.
# C9 pins only the 4-wide numeric path.
HASHED_SCHEMA = {
    "columns": [{"name": "c0", "kind": "categorical"},
                {"name": "c1", "kind": "categorical"},
                {"name": "n0", "kind": "numeric"},
                {"name": "n1", "kind": "numeric"},
                {"name": "label", "kind": "label"},
                {"name": "group", "kind": "sensitive"}],
    "hash_buckets": 64,
}
HASHED_TRAIN_CFG = {
    "train": {"total_iterations": 120, "batch_size": 64, "hidden1": 16,
              "hidden2": 8, "identifier_epochs": 60, "learning_rate": 0.005,
              "seed": 4},
    "schema": HASHED_SCHEMA,
    "split": {"train_fraction": 0.7, "valid_fraction": 0.15,
              "test_fraction": 0.15, "seed": 5},
}
HASHED_SHA256 = {
    "checkpoint.json": "d467bdedf0b5f02d87271d563ad7e0e0ae44d0c10a95c7c75243f6462ca56758",
    "fairness_report.json": "41474253ebfdfa1fc8c5cbf229088fc1a7242467d8b4e46ec4a0565de4a86482",
    "manifest.json": "82ef3b04e0f9ee3957c63ca08573e81f590651652c89b25aad6325c95f9c5656",
    "training_log.jsonl": "6c82f8612e5a4b3f329b5a79a80009c2763d3a60e8f63f9c9c7d5920ad496f20",
}


def hashed_csv(n: int = 600, seed: int = 8) -> str:
    """``n`` rows for ``HASHED_SCHEMA`` from Python's own seeded generator,
    whose ``random()`` stream is stable across Python and numpy versions."""
    rng = random.Random(seed)
    lines = ["c0,c1,n0,n1,label,group"]
    for _ in range(n):
        a, b = int(rng.random() * 12), int(rng.random() * 40)
        u, v = rng.random() * 4.0 - 2.0, rng.random()
        group = int(rng.random() < 0.4)
        signal = (a % 3) - 1 + (b % 5) / 4.0 - 0.5 + u
        label = int(signal + rng.random() * 2.0 - 1.0 > 0)
        lines.append(f"k{a},level-{b},{u:.6f},{v:.6f},{label},g{group}")
    return "\n".join(lines) + "\n"


def run_cli(*args, cwd=None) -> subprocess.CompletedProcess:
    """Run the CLI in a child process, so its whole stderr can be checked."""
    src = Path(reckoner.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "reckoner.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120, cwd=cwd)


def assert_clean_failure(proc: subprocess.CompletedProcess, code: int) -> None:
    """Exit ``code`` with exactly one ``error kind=`` line and no traceback."""
    assert proc.returncode == code, proc.stderr
    assert sum("error kind=" in line for line in proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def _wait_for(condition, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            raise TimeoutError("condition not met in time")
        time.sleep(0.01)


def assert_no_manifest(out: Path) -> None:
    """A failed run leaves no manifest for reports it never wrote."""
    assert not list(out.glob("*manifest.json"))


def make_workdir(path: Path) -> tuple[Path, Path, Path]:
    """The synth data CSV and train config every CLI test starts from."""
    synth_cfg = path / "synth.json"
    synth_cfg.write_text(json.dumps(SYNTH_CFG))
    data = path / "data.csv"
    assert main(["synth", "--config", str(synth_cfg), "--out", str(data)]) == 0
    train_cfg = path / "train.json"
    train_cfg.write_text(json.dumps(TRAIN_CFG))
    return path, train_cfg, data


@pytest.fixture
def workdir(tmp_path):
    return make_workdir(tmp_path)


class TestSynth:
    def test_row_count_and_sidecar(self, tmp_path):
        cfg = dict(SYNTH_CFG, n=1000, flip_rate_g1=0.0)
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "d.csv"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1001
        sidecar = json.loads((tmp_path / "d.csv.meta.json").read_text())
        labels = [int(line.split(",")[-2]) for line in lines[1:]]
        assert labels == sidecar["clean_labels"]  # zero flip rates

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(SYNTH_CFG))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", "--config", str(cfg_path), "--out", str(a)])
        main(["synth", "--config", str(cfg_path), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_config_exits_1(self, tmp_path):
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(dict(SYNTH_CFG, n=0)))
        assert main(["synth", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x.csv")]) == 1


class TestTrain:
    def test_successful_run_writes_artifacts(self, workdir):
        tmp_path, train_cfg, data = workdir
        out = tmp_path / "run"
        assert main(["train", "--config", str(train_cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        for name in ("checkpoint.json", "training_log.jsonl",
                     "fairness_report.json", "manifest.json"):
            assert (out / name).exists()
        report = json.loads((out / "fairness_report.json").read_text())
        assert set(report) >= {"accuracy", "demographic_parity", "equalized_odds",
                               "signed_gaps", "group_sizes", "manifest_sha256"}

    def test_malformed_config_exits_1(self, workdir, tmp_path):
        _, _, data = workdir
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["train", "--config", str(bad), "--data", str(data),
                     "--out", str(tmp_path / "o")]) == 1

    def test_missing_data_exits_2(self, workdir, tmp_path):
        _, train_cfg, _ = workdir
        assert main(["train", "--config", str(train_cfg),
                     "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_ablation_flags_flow_into_checkpoint(self, workdir):
        tmp_path, train_cfg, data = workdir
        out = tmp_path / "ablate"
        assert main(["train", "--config", str(train_cfg), "--data", str(data),
                     "--out", str(out), "--no-noise", "--no-pseudo"]) == 0
        ckpt = json.loads((out / "checkpoint.json").read_text())
        assert ckpt["config"]["use_noise"] is False
        assert ckpt["config"]["use_pseudo_learning"] is False
        assert ckpt["models"]["perturbation"] is None

    def test_byte_identical_reruns(self, workdir):
        tmp_path, train_cfg, data = workdir
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["train", "--config", str(train_cfg), "--data", str(data),
                         "--out", str(out)]) == 0
        for name in ("checkpoint.json", "fairness_report.json",
                     "training_log.jsonl", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_numeric_failure_exits_3(self, workdir, tmp_path):
        _, _, data = workdir
        doc = dict(TRAIN_CFG)
        doc["train"] = dict(TRAIN_CFG["train"], learning_rate=1e308)
        bad = tmp_path / "diverge.json"
        bad.write_text(json.dumps(doc))
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(bad), "--data", str(data),
                         "--out", str(tmp_path / "o")]) == 3

    def test_divergent_c9_config_exits_3_cleanly(self, tmp_path):
        synth_cfg = tmp_path / "synth.json"
        synth_cfg.write_text(json.dumps(C9_SYNTH_CFG))
        data = tmp_path / "data.csv"
        assert main(["synth", "--config", str(synth_cfg), "--out", str(data)]) == 0
        doc = dict(C9_TRAIN_CFG, train=dict(C9_TRAIN_CFG["train"], learning_rate=1e300))
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        proc = run_cli("train", "--config", cfg, "--data", data, "--out", out)
        assert_clean_failure(proc, 3)
        assert proc.stderr.splitlines() == [proc.stderr.strip()]  # no numpy warnings
        assert "error kind=numeric exit=3" in proc.stderr
        assert_no_manifest(out)

    def test_unallocatable_width_exits_1_cleanly(self, tmp_path):
        """A width whose arrays cannot be allocated is a config error. 2**50
        buckets ask for more than the address space, so the allocation
        fails at once, without touching memory."""
        data = _file(tmp_path / "data.csv", hashed_csv(n=60))
        doc = dict(HASHED_TRAIN_CFG, schema=dict(HASHED_SCHEMA, hash_buckets=2**50))
        out = tmp_path / "o"
        proc = run_cli("train", "--config", _file(tmp_path / "wide.json", doc),
                       "--data", data, "--out", out)
        assert_clean_failure(proc, 1)
        assert proc.stderr.startswith('error kind=config exit=1 reason="not enough memory')
        assert not out.exists()

    def test_c9_artifacts_match_pinned_sha256(self, tmp_path):
        """The byte-identity rule as a check: C9's config, one BLAS thread.

        Pinned on numpy 2.4.6 with scipy-openblas 0.3.31; another numpy or
        BLAS build may change last bits legitimately.
        """
        synth_cfg = _file(tmp_path / "synth.json", C9_SYNTH_CFG)
        data = tmp_path / "data.csv"
        cfg = _file(tmp_path / "train.json", C9_TRAIN_CFG)
        out = tmp_path / "run"
        for argv in (("synth", "--config", synth_cfg, "--out", data),
                     ("train", "--config", cfg, "--data", data, "--out", out)):
            proc = run_cli(*argv)
            assert proc.returncode == 0, proc.stderr
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in C9_SHA256}
        assert digests == C9_SHA256

    def test_hashed_artifacts_match_pinned_sha256(self, tmp_path):
        """The byte-identity rule at m = 130 with the noise wrapper on, one
        BLAS thread. Pinned like C9's digests, on the same builds."""
        data = _file(tmp_path / "data.csv", hashed_csv())
        cfg = _file(tmp_path / "train.json", HASHED_TRAIN_CFG)
        out = tmp_path / "run"
        proc = run_cli("train", "--config", cfg, "--data", data, "--out", out)
        assert proc.returncode == 0, proc.stderr
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in HASHED_SHA256}
        assert digests == HASHED_SHA256


class TestAudit:
    def write_predictions(self, path, rows, with_score=False):
        header = "pred,label,group" + (",score" if with_score else "")
        lines = [header] + [",".join(str(v) for v in r) for r in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_perfect_predictions(self, tmp_path):
        rows = [(1, 1, 0), (0, 0, 0), (1, 1, 1), (0, 0, 1)]
        preds = tmp_path / "p.csv"
        self.write_predictions(preds, rows)
        out = tmp_path / "audit"
        assert main(["audit", "--predictions", str(preds), "--out", str(out)]) == 0
        report = json.loads((out / "fairness_report.json").read_text())
        assert report["demographic_parity"] == 0.0
        assert report["equalized_odds"] == 0.0

    def test_integral_float_cells_are_integers(self, tmp_path):
        rows = [("1.0", 1, "0.0"), (0, "0.0", 0), (1, "1.0", 1), ("0", 0, "1.0")]
        preds = tmp_path / "p.csv"
        self.write_predictions(preds, rows)
        out = tmp_path / "audit"
        assert main(["audit", "--predictions", str(preds), "--out", str(out)]) == 0
        report = json.loads((out / "fairness_report.json").read_text())
        assert report["accuracy"] == 1.0
        assert report["group_sizes"] == {"0": 2, "1": 2}

    def test_group_ids_past_2_53_stay_apart(self, tmp_path):
        """2**53 and 2**53 + 1, one float apart, are two groups."""
        rows = [(1, 1, 2**53), (0, 0, 2**53), (1, 1, 2**53 + 1), (0, 0, f"{2**53 + 1}.0"),
                (1, 1, 5), (0, 0, 5)]
        preds = tmp_path / "p.csv"
        self.write_predictions(preds, rows)
        out = tmp_path / "audit"
        assert main(["audit", "--predictions", str(preds), "--out", str(out)]) == 0
        report = json.loads((out / "fairness_report.json").read_text())
        assert report["group_sizes"] == {"5": 2, "9007199254740992": 2,
                                         "9007199254740993": 2}

    def test_hand_confusion_fixture(self, tmp_path):
        # group A rows (1,1),(0,1),(1,0); group B rows (1,1),(0,0),(0,0)
        rows = [(1, 1, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1), (0, 0, 1), (0, 0, 1)]
        preds = tmp_path / "p.csv"
        self.write_predictions(preds, rows)
        out = tmp_path / "audit"
        assert main(["audit", "--predictions", str(preds), "--out", str(out)]) == 0
        report = json.loads((out / "fairness_report.json").read_text())
        assert report["equalized_odds"] == pytest.approx(0.75)

    @pytest.mark.parametrize("score", ["1.7", "-0.7"])
    def test_score_outside_unit_interval_is_an_unparseable_row(self, tmp_path, score):
        """A score is a probability: one outside [0, 1] makes its row a bad
        row, reported before a bad cell in a later row, not as a bad
        confidence."""
        preds = _file(tmp_path / "p.csv", f"pred,label,group,score\n1,1,0,0.9\n"
                                          f"0,0,1,{score}\nx,0,1,0.5\n")
        code, err = run_main("audit", "--predictions", preds, "--out", tmp_path / "o")
        assert code == 2
        assert f"unparseable predictions row ['0', '0', '1', '{score}']" in err
        assert "confidence" not in err

    def test_scores_at_the_unit_interval_ends_pass(self, tmp_path):
        preds = _file(tmp_path / "p.csv", "pred,label,group,score\n1,1,0,1.0\n"
                                          "0,0,0,0\n1,1,1,0.9\n0,0,1,0.3\n")
        assert main(["audit", "--predictions", str(preds), "--out", str(tmp_path / "o")]) == 0

    def test_default_bucket_thresholds(self, tmp_path):
        rows = [(1, 1, 0, 0.9), (0, 0, 0, 0.7), (1, 1, 1, 0.55), (0, 0, 1, 0.8)]
        preds = tmp_path / "p.csv"
        self.write_predictions(preds, rows, with_score=True)
        out = tmp_path / "audit"
        assert main(["audit", "--predictions", str(preds), "--out", str(out)]) == 0
        manifest = json.loads((out / "audit_manifest.json").read_text())
        assert manifest["bucket_thresholds"] == [0.5, 0.6, 0.7, 0.8]
        assert (out / "bucket_report.csv").exists()

    def test_checkpoint_mode_with_histogram(self, workdir):
        tmp_path, train_cfg, data = workdir
        run = tmp_path / "run"
        assert main(["train", "--config", str(train_cfg), "--data", str(data),
                     "--out", str(run)]) == 0
        out = tmp_path / "audit"
        assert main(["audit", "--checkpoint", str(run / "checkpoint.json"),
                     "--data", str(data), "--out", str(out),
                     "--histogram-feature", "f0", "--bins", "4"]) == 0
        assert (out / "bucket_report.csv").exists()
        assert (out / "bucket_report.json").exists()
        assert (out / "histogram_f0.csv").exists()
        assert (out / "histogram_f0.json").exists()

    def test_missing_inputs_exit_1(self, tmp_path):
        assert main(["audit", "--out", str(tmp_path / "a")]) == 1

    def test_undefined_group_rate_exits_2(self, tmp_path):
        # Group 1 has no positive labels, so its TPR (and EOdds) is undefined.
        rows = [(1, 1, 0), (0, 0, 0), (1, 0, 1), (0, 0, 1)]
        preds = tmp_path / "p.csv"
        self.write_predictions(preds, rows)
        proc = run_cli("audit", "--predictions", preds, "--out", tmp_path / "audit")
        assert_clean_failure(proc, 2)
        assert "error kind=data exit=2" in proc.stderr
        assert_no_manifest(tmp_path / "audit")

    def test_histogram_without_checkpoint_exits_1(self, tmp_path):
        rows = [(1, 1, 0, 0.9), (0, 0, 0, 0.7), (1, 1, 1, 0.55), (0, 0, 1, 0.8)]
        preds = tmp_path / "p.csv"
        self.write_predictions(preds, rows, with_score=True)
        proc = run_cli("audit", "--predictions", preds, "--out", tmp_path / "audit",
                       "--histogram-feature", "f0")
        assert_clean_failure(proc, 1)
        assert "error kind=config exit=1" in proc.stderr
        assert_no_manifest(tmp_path / "audit")

    @pytest.mark.parametrize("corrupt, named", [
        (lambda doc: doc.pop("models"), "'models'"),
        (lambda doc: doc["models"]["high"].update(values=base64.b64encode(
            base64.b64decode(doc["models"]["high"]["values"])[:-8]).decode("ascii")),
         "models.high.values"),
        (lambda doc: doc["standardize"]["mean"].pop(), "width"),
        (lambda doc: doc["models"].update(perturbation=parameter_values(
            doc["models"]["perturbation"])), "models.perturbation"),
        (lambda doc: doc["models"].update(perturbation=base64.b64encode(
            base64.b64decode(doc["models"]["perturbation"])[:-8]).decode("ascii")),
         "models.perturbation"),
        (lambda doc: doc["models"].update(perturbation=base64.b64encode(
            np.full(3, np.nan).tobytes()).decode("ascii")), "models.perturbation"),
        (lambda doc: doc["models"].update(perturbation=base64.b64encode(
            np.ones(3).tobytes()).decode("ascii")), "models.perturbation"),
        (lambda doc: doc["config"].update(use_noise=False), "models.perturbation"),
        (lambda doc: doc["models"].update(perturbation=None), "models.perturbation"),
        (lambda doc: doc["models"].update(noise={}), "models.noise"),
    ], ids=["no-models", "short-high-values", "short-mean", "perturbation-list",
            "short-perturbation", "non-finite-perturbation", "perturbation-at-1",
            "perturbation-with-the-noise-off", "null-perturbation-with-the-noise-on",
            "noise-in-v4"])
    def test_malformed_checkpoint_exits_1(self, workdir, corrupt, named):
        """Each is one ``error kind=config`` line that names what is wrong."""
        tmp_path, train_cfg, data = workdir
        run = tmp_path / "run"
        assert main(["train", "--config", str(train_cfg), "--data", str(data),
                     "--out", str(run)]) == 0
        doc = json.loads((run / "checkpoint.json").read_text())
        corrupt(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("audit", "--checkpoint", bad, "--data", data,
                       "--out", tmp_path / "audit")
        assert_clean_failure(proc, 1)
        assert "error kind=config exit=1" in proc.stderr
        assert named in proc.stderr


# Checkpoint-mode audits of hashed tables (m = 130) from the checkpoint the
# pinned hashed train config writes, at 8191, 12287 and 20480 rows. With
# 1,024-row scoring chunks these are 7 full chunks and a 1,023-row tail
# (8191), 11 full chunks and a 1,023-row tail (12287), and 20 full chunks
# (20480); each size's last chunk is a kept tail or a full chunk, never a
# folded one. The pins came from 8,192-row chunks, where the sizes were one
# chunk, one chunk with its short tail folded in and a kept 4096-row tail,
# and before that from the whole-matrix audit that came before the block
# coder. SHA-256 of the six files; paths in the manifest are relative to
# the run.
AUDIT_SHA256 = {
    8191: {
        "audit_manifest.json": "0184dceafcb82161954d1944ba0c464f6ea6019be6bcd86d92e3f1fc4a2d25e0",
        "bucket_report.csv": "55ce8ab4c7634c1c145c2ade6482c0c11094c9d1dbe0914b242332865bbf5b4e",
        "bucket_report.json": "33f9ee7f055ce11c85c8a3ed1bb3806afafee6988855244bc28e621df6125f1d",
        "fairness_report.json": "05b71b0e2f1830df42c27fbb4692f9ba3934e0c7228a7eec1f0d8863f49df36b",
        "histogram_n0.csv": "624b98f243a1008b8ed73f5a260d3f315f733ee6a1051d79613a27794435c376",
        "histogram_n0.json": "4ef5683770b0729d2c19c1b0d9061a5fded6688491eaf5580d589429054995bc",
    },
    12287: {
        "audit_manifest.json": "ffc601dbbf7c7db012a8389e1246f4e14dff8f3326192a7e04af723f502b26a8",
        "bucket_report.csv": "184f7b33d0e29551091298f42d7847aac560696bf1e7627295a9e0edba056d37",
        "bucket_report.json": "ec4a441653a71d805563cd966ed5f6bc9c3627a086aeb95bad1cd212b51cb6d7",
        "fairness_report.json": "a331a1f580889e151f697279badf30c7f747d6341c5a8c9ab68d97d2764069ac",
        "histogram_n0.csv": "8f36679e4346bad400cebc00e6206e4a5268b5ba94b6b9891d21257e137da99f",
        "histogram_n0.json": "46cbb56a3b17aabacad44841e51c87e39b6c70d85a8e7685e8012eff88018fc3",
    },
    20480: {
        "audit_manifest.json": "8de0ad783e7769267413dfdb103a0ab64774ce71e46a4ed9356f64ffddcb8573",
        "bucket_report.csv": "1732613d3c41844695f7c17cab68ddbba41fa4049eef5818d7f04baa50543413",
        "bucket_report.json": "b53d26045274f703688596b1c514a1419aa8da45de50cd28cbf287b4a1c7f72c",
        "fairness_report.json": "72349d816183e1c889bf9b6d52b6ccca50f9a9c418b626f3203bfd5becd07f71",
        "histogram_n0.csv": "dae38dfddaa91d8d366fa1f26903f600e6a98c1ec025e6341b0182d8c23a3e8e",
        "histogram_n0.json": "08fe18f85062820de9877747e08ae835b0080baf07043257e4cec69b1bfc61ce",
    },
}
AUDIT_ARGS = ("audit", "--checkpoint", "checkpoint.json", "--data", "score.csv",
              "--out", "out", "--histogram-feature", "n0", "--bins", "10")


@pytest.fixture(scope="module")
def hashed_checkpoint(tmp_path_factory) -> Path:
    """The ``checkpoint.json`` of the pinned hashed train config."""
    tmp = tmp_path_factory.mktemp("hashed")
    data = _file(tmp / "data.csv", hashed_csv())
    cfg = _file(tmp / "train.json", HASHED_TRAIN_CFG)
    proc = run_cli("train", "--config", cfg, "--data", data, "--out", tmp / "run")
    assert proc.returncode == 0, proc.stderr
    return tmp / "run" / "checkpoint.json"


def audit_dir(path: Path, checkpoint: Path, rows: int) -> Path:
    path.mkdir()
    (path / "checkpoint.json").write_bytes(checkpoint.read_bytes())
    _file(path / "score.csv", hashed_csv(rows, seed=9))
    return path


@pytest.mark.parametrize("rows", AUDIT_SHA256)
def test_audit_artifacts_match_pinned_sha256(rows, hashed_checkpoint, tmp_path):
    """The audit scores coded rows chunk by chunk, never the whole matrix;
    its six files keep their bytes. One BLAS thread, pinned on the builds
    of the train digests."""
    run = audit_dir(tmp_path / "a", hashed_checkpoint, rows)
    proc = run_cli(*AUDIT_ARGS, cwd=run)
    assert proc.returncode == 0, proc.stderr
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted((run / "out").iterdir())}
    assert digests == AUDIT_SHA256[rows]


# A ``--predictions`` audit of 3,000 seeded rows over negative and sparse
# group ids, with scores uniform in [0, 1] but for one row in five, which
# takes 0.5, a threshold from either side, 0 or 1. SHA-256 of the four
# files; the manifest records the input path relative to the run.
PREDICTIONS_GROUPS = (-40, -1, 3, 17, 2**40)
PREDICTIONS_THRESHOLDS = ("0.5", "0.62", "0.75", "0.9")
PREDICTIONS_EDGE_SCORES = ("0.5", "0.62", "0.38", "0.75", "0.25", "0.9", "0.1", "0", "1",
                           "1.0")
PREDICTIONS_AUDIT_ARGS = ("audit", "--predictions", "predictions.csv", "--out", "out",
                          "--bucket-thresholds", *PREDICTIONS_THRESHOLDS)
PREDICTIONS_AUDIT_SHA256 = {
    "audit_manifest.json": "c5723d107f0021506968cc7ded181cf916bc5e5b42ac30ca992e15dedba73680",
    "bucket_report.csv": "6bf0d9df6cc479a78b5769ce26533c552ff2f590ac25aabc2db7dd02e73030c9",
    "bucket_report.json": "cb7e86c05ca26f6e5449252598108f89a675f0bc1ea01bab13bf7e2973b9dddd",
    "fairness_report.json": "20fffc1a405d7a78611e0020b004b81dbbd472b4795e1de8f6ddcb4b6ab5d02c",
}


def pinned_predictions(n: int = 3000, seed: int = 12) -> str:
    """``n`` rows of pred, label, group and score from Python's own seeded
    generator; the label leans on the score and on the group."""
    rng = random.Random(seed)
    lines = ["pred,label,group,score"]
    for _ in range(n):
        k = int(rng.random() * len(PREDICTIONS_GROUPS))
        if rng.random() < 0.2:
            score = PREDICTIONS_EDGE_SCORES[int(rng.random() * len(PREDICTIONS_EDGE_SCORES))]
        else:
            score = f"{rng.random():.6f}"
        pred = int(float(score) >= 0.5)
        label = int(rng.random() < 0.2 + 0.5 * float(score) + 0.05 * k)
        lines.append(f"{pred},{label},{PREDICTIONS_GROUPS[k]},{score}")
    return "\n".join(lines) + "\n"


def test_predictions_audit_artifacts_match_pinned_sha256(tmp_path):
    """A scored predictions file audits to pinned bytes."""
    _file(tmp_path / "predictions.csv", pinned_predictions())
    proc = run_cli(*PREDICTIONS_AUDIT_ARGS, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted((tmp_path / "out").iterdir())}
    assert digests == PREDICTIONS_AUDIT_SHA256


# SHA-256 of the ``checkpoint.json`` that checkpoint format 3 wrote for the
# pinned hashed train config, which stored the noise wrapper's blobs where
# format 4 stores the perturbation.
HASHED_V3_CHECKPOINT_SHA256 = "30bc765bdcb47131464518ddcf86cbb8f51fb1dcb33ee69dd746e107e7aae1eb"


@pytest.fixture(scope="module")
def hashed_checkpoints(tmp_path_factory) -> dict[int, Path]:
    """The pinned hashed train config's checkpoint per format version, 3
    and 4, from one in-process ``train``."""
    tmp = tmp_path_factory.mktemp("hashed-versions")
    data = _file(tmp / "data.csv", hashed_csv())
    cfg = _file(tmp / "train.json", HASHED_TRAIN_CFG)
    with saved_as_v3_too():
        code, err = run_main("train", "--config", cfg, "--data", data, "--out", tmp / "run")
    assert code == 0, err
    return {3: tmp / "run" / "checkpoint_v3.json", 4: tmp / "run" / "checkpoint.json"}


def test_v3_and_v4_checkpoints_audit_alike(hashed_checkpoints, hashed_checkpoint, tmp_path):
    """The hashed model saved as version 3, byte for byte the file format 3
    wrote, and saved as version 4, the pinned file, audit to byte-identical
    output directories: the pinned ones."""
    assert hashlib.sha256(hashed_checkpoints[3].read_bytes()).hexdigest() \
        == HASHED_V3_CHECKPOINT_SHA256
    assert hashed_checkpoints[4].read_bytes() == hashed_checkpoint.read_bytes()
    outs = {}
    for version, checkpoint in hashed_checkpoints.items():
        run = audit_dir(tmp_path / f"v{version}", checkpoint, 8191)
        proc = run_cli(*AUDIT_ARGS, cwd=run)
        assert proc.returncode == 0, proc.stderr
        outs[version] = {p.name: p.read_bytes() for p in (run / "out").iterdir()}
    assert outs[3] == outs[4]
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outs[3].items()} \
        == AUDIT_SHA256[8191]


def test_audit_checks_and_codes_once(hashed_checkpoint, tmp_path, monkeypatch):
    """The three reports share one check of the preds and labels and one
    coding of the groups; the bucket and histogram reports each assign the
    confidences to buckets."""
    calls = {"_is_binary": [], "_integer_ids": [], "assign": []}
    for owner, name in ((reckoner.metrics, "_is_binary"), (reckoner.metrics, "_integer_ids"),
                        (BucketSpec, "assign")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _real=real, _log=calls[name], **k:
                            _log.append(1) or _real(*a, **k))
    monkeypatch.chdir(audit_dir(tmp_path / "a", hashed_checkpoint, 3000))
    code, err = run_main(*AUDIT_ARGS)
    assert code == 0, err
    assert {k: len(v) for k, v in calls.items()} == \
        {"_is_binary": 2, "_integer_ids": 1, "assign": 2}


def test_distinct_values_past_the_limit_exit_2(hashed_checkpoint, tmp_path, monkeypatch):
    """A scored column with more distinct values than an int32 code holds
    (the limit lowered here to 8; ``c0`` has 12) is a data error: exit 2,
    one ``error kind=data`` line naming the column, and no ``--out``."""
    monkeypatch.setattr(reckoner.data, "MAX_DISTINCT", 8)
    monkeypatch.chdir(audit_dir(tmp_path / "a", hashed_checkpoint, 3000))
    code, err = run_main(*AUDIT_ARGS)
    assert code == 2
    assert_documented_exit(code, err)
    assert err.startswith("error kind=data exit=2 reason=\"column 'c0' holds more than 8 "
                          "distinct values, row "), err
    assert not Path("out").exists()


# Runs ``python`` with its arguments in a forked child and prints the
# child's exit code and peak RSS (KiB) as ``os.wait4`` reports them. A
# child's peak starts at the resident set of the process that forked it (at
# that process's own peak when spawned with vfork, as ``subprocess`` does),
# so a small launcher forks it, not the test.
WAIT4_PEAK = """
import os, sys
pid = os.fork()
if pid == 0:
    try:
        os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_kib(*args, cwd=None) -> int:
    src = Path(reckoner.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", WAIT4_PEAK, *map(str, args)], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    code, peak = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    return peak


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_audit_memory_grows_by_less_than_half_a_row(hashed_checkpoint, tmp_path):
    """Peak memory of a checkpoint-mode audit grows by less than half of an
    encoded row (m float64s) per added row: the table is kept as per-row
    codes and scored a chunk at a time, not as a matrix (about 2 KB a row
    at m = 130 for the whole-matrix audit)."""
    peak = {}
    for rows in (16_000, 48_000):
        run = audit_dir(tmp_path / str(rows), hashed_checkpoint, rows)
        peak[rows] = peak_rss_kib("-m", "reckoner.cli", *AUDIT_ARGS, cwd=run) * 1024
    per_row = (peak[48_000] - peak[16_000]) / 32_000
    assert per_row < 130 * 8 / 2, peak


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_audit_memory_stays_near_the_import(hashed_checkpoint, tmp_path):
    """A 48,000-row checkpoint-mode audit peaks within 16 MB of importing
    the CLI alone (about 12 MB above it): rows are scored in 1,024-row
    chunks and the reports count every cell in one pass. With 8,192-row
    chunks and a mask per group and bucket it peaked about 19 MB above."""
    run = audit_dir(tmp_path / "a", hashed_checkpoint, 48_000)
    imported = peak_rss_kib("-c", "import reckoner.cli")
    audited = peak_rss_kib("-m", "reckoner.cli", *AUDIT_ARGS, cwd=run)
    assert audited - imported <= 16 * 1024, (imported, audited)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_predictions_audit_memory_stays_near_the_import(tmp_path):
    """A predictions file is parsed a block at a time into columns: a
    100,000-row audit peaks within 15 MB of importing the CLI alone (about
    26 MB above it when every row was first held as a list of strings)."""
    preds = _file(tmp_path / "p.csv", _scored_predictions(100_000))
    imported = peak_rss_kib("-c", "import reckoner.cli")
    audited = peak_rss_kib("-m", "reckoner.cli", "audit", "--predictions", preds,
                           "--out", tmp_path / "out")
    assert audited - imported <= 15 * 1024, (imported, audited)


FAILED_INPUTS = {
    "audit-missing-predictions": lambda t, ckpt, d: [
        "audit", "--predictions", t / "missing.csv", "--out", t / "out"],
    "audit-missing-data": lambda t, ckpt, d: [
        "audit", "--checkpoint", ckpt, "--data", t / "missing.csv", "--out", t / "out"],
    "train-missing-data": lambda t, ckpt, d: [
        "train", "--config", _file(t / "cfg.json", TRAIN_CFG), "--data", t / "missing.csv",
        "--out", t / "out"],
}


@pytest.mark.parametrize("argv", FAILED_INPUTS.values(), ids=FAILED_INPUTS.keys())
def test_failed_input_leaves_no_out_directory(argv, workdir):
    """``--out`` is created only once the inputs are read (and, for an
    audit, every report computed), so a run that fails on its inputs
    leaves nothing behind."""
    tmp_path, train_cfg, data = workdir
    run = tmp_path / "run"
    assert main(["train", "--config", str(train_cfg), "--data", str(data),
                 "--out", str(run)]) == 0
    case = _dir(tmp_path / "case")
    proc = run_cli(*argv(case, run / "checkpoint.json", data))
    assert_clean_failure(proc, 2)
    assert "missing file" in proc.stderr or "missing predictions file" in proc.stderr
    assert not (case / "out").exists()


def test_overflowing_standardization_exits_2(workdir):
    """A checkpoint whose standardization overflows on the scored table is a
    data error, found before scoring; nothing is written."""
    tmp_path, train_cfg, data = workdir
    run = tmp_path / "run"
    assert main(["train", "--config", str(train_cfg), "--data", str(data),
                 "--out", str(run)]) == 0
    doc = json.loads((run / "checkpoint.json").read_text())
    doc["standardize"]["std"][0] = 1e-310
    ckpt = _file(tmp_path / "ckpt.json", doc)
    proc = run_cli("audit", "--checkpoint", ckpt, "--data", data,
                   "--out", tmp_path / "audit")
    assert_clean_failure(proc, 2)
    assert 'reason="x contains non-finite values"' in proc.stderr
    assert not (tmp_path / "audit").exists()


def _write_all(fd: int, content: bytes) -> None:
    """Write ``content`` to ``fd`` and close it; stop early if the reader
    has gone."""
    view = memoryview(content)
    try:
        while view:
            view = view[os.write(fd, view):]
    except BrokenPipeError:
        pass
    finally:
        os.close(fd)


def run_cli_on_fd(argv, fd: int, piped: bytes | None = None) -> subprocess.CompletedProcess:
    """``run_cli`` in a child that inherits ``fd``, which it reads as
    ``/dev/fd/<fd>``. With ``piped``, ``fd`` is first replaced by the read
    end of a new pipe, which only the child keeps, and a thread writes
    ``piped`` into the pipe and closes it."""
    src = Path(reckoner.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    writer = None
    if piped is not None:
        r, w = os.pipe()
        os.dup2(r, fd)
        os.close(r)
        writer = threading.Thread(target=_write_all, args=(w, piped))
    proc = subprocess.Popen([sys.executable, "-m", "reckoner.cli", *map(str, argv)],
                            env=env, pass_fds=(fd,), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    if writer is not None:
        os.close(fd)  # the child's copy is the pipe's only read end
        writer.start()
    try:
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        proc.kill()  # a no-op once the child has exited
        if writer is not None:
            writer.join(timeout=60)
    assert writer is None or not writer.is_alive()
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def _scored_predictions(n: int = 200, seed: int = 3) -> str:
    rng = random.Random(seed)
    rows = [f"{int(rng.random() < 0.5)},{int(rng.random() < 0.5)},"
            f"{int(rng.random() < 0.5)},{0.5 + rng.random() / 2:.4f}" for _ in range(n)]
    return "pred,label,group,score\n" + "\n".join(rows) + "\n"


# Per command reading a CSV: its argv for the input path and output
# directory, the input's content, and where its manifest records the
# input's SHA-256.
PIPED_INPUTS = {
    "train": (lambda t, ckpt, src, out: [
        "train", "--config", _file(t / "cfg.json", HASHED_TRAIN_CFG), "--data", src,
        "--out", out], hashed_csv, ("manifest.json", "dataset_sha256")),
    "audit-checkpoint": (lambda t, ckpt, src, out: [
        "audit", "--checkpoint", ckpt, "--data", src, "--out", out,
        "--histogram-feature", "n0"], lambda: hashed_csv(300, seed=9),
        ("audit_manifest.json", "source", "data_sha256")),
    "audit-predictions": (lambda t, ckpt, src, out: [
        "audit", "--predictions", src, "--out", out], _scored_predictions,
        ("audit_manifest.json", "source", "data_sha256")),
}


@pytest.mark.skipif(sys.platform != "linux", reason="opens /dev/fd/<n> as on Linux")
@pytest.mark.parametrize("case", PIPED_INPUTS.values(), ids=PIPED_INPUTS.keys())
def test_piped_input_is_hashed_as_read(case, hashed_checkpoint, tmp_path):
    """An input read from a pipe is read once: the recorded SHA-256 is that
    of its bytes, and every artifact equals that of the same run on a
    regular file at the same ``/dev/fd/<n>`` path, so with the same argv."""
    argv_of, content_of, (manifest, *keys) = case
    content = content_of().encode()
    fd = os.open(_file(tmp_path / "input.csv", content), os.O_RDONLY)
    src = f"/dev/fd/{fd}"
    runs = {"file": run_cli_on_fd(argv_of(tmp_path, hashed_checkpoint, src,
                                          tmp_path / "file"), fd),
            "pipe": run_cli_on_fd(argv_of(tmp_path, hashed_checkpoint, src,
                                          tmp_path / "pipe"), fd, piped=content)}
    for name, proc in runs.items():
        assert proc.returncode == 0, (name, proc.stderr)
        recorded = json.loads((tmp_path / name / manifest).read_text())
        for key in keys:
            recorded = recorded[key]
        assert recorded == hashlib.sha256(content).hexdigest(), name
    files = sorted(p.name for p in (tmp_path / "file").iterdir())
    assert sorted(p.name for p in (tmp_path / "pipe").iterdir()) == files
    for name in files:
        assert (tmp_path / "pipe" / name).read_bytes() \
            == (tmp_path / "file" / name).read_bytes(), name


def _spaced_header(text: str) -> bytes:
    header, rest = text.split("\n", 1)
    return f"{header.replace(',', ' , ')}\n{rest}".encode()


# An audit input as Excel's "CSV UTF-8" export writes it, with a byte-order
# mark, and one with spaces around its header names.
AUDIT_INPUT_VARIANTS = {
    "bom": lambda text: b"\xef\xbb\xbf" + text.encode(),
    "spaced-header": _spaced_header,
}
AUDIT_INPUTS = {
    "checkpoint": (("audit", "--checkpoint", "checkpoint.json", "--data", "in.csv",
                    "--out", "out", "--histogram-feature", "n0"),
                   lambda: hashed_csv(300, seed=9)),
    "predictions": (("audit", "--predictions", "in.csv", "--out", "out"),
                    _scored_predictions),
}


@pytest.mark.parametrize("variant", AUDIT_INPUT_VARIANTS)
@pytest.mark.parametrize("mode", AUDIT_INPUTS)
def test_audit_reads_past_bom_and_header_spaces(mode, variant, hashed_checkpoint,
                                                tmp_path, monkeypatch):
    """Such an input audits as the plain file does: the manifest differs
    only in the SHA-256, that of the input's own bytes, and the reports only
    in the manifest's SHA-256."""
    argv, content_of = AUDIT_INPUTS[mode]
    plain = content_of()
    inputs = {"plain": plain.encode(), "variant": AUDIT_INPUT_VARIANTS[variant](plain)}
    for name, content in inputs.items():
        run = tmp_path / name
        run.mkdir()
        (run / "checkpoint.json").write_bytes(hashed_checkpoint.read_bytes())
        _file(run / "in.csv", content)
        monkeypatch.chdir(run)
        code, err = run_main(*argv)
        assert code == 0, err
    manifests = [json.loads((tmp_path / name / "out" / "audit_manifest.json").read_text())
                 for name in inputs]
    for manifest, content in zip(manifests, inputs.values()):
        assert manifest["source"].pop("data_sha256") == hashlib.sha256(content).hexdigest()
    assert manifests[0] == manifests[1]
    files = sorted(p.name for p in (tmp_path / "plain" / "out").iterdir())
    assert sorted(p.name for p in (tmp_path / "variant" / "out").iterdir()) == files
    assert files[0] == "audit_manifest.json"
    for name in files[1:]:  # the manifest first, checked above
        got, want = ((tmp_path / run / "out" / name).read_bytes() for run in inputs)
        if name.endswith(".json"):
            got, want = (json.loads(doc) for doc in (got, want))
            assert got.pop("manifest_sha256") != want.pop("manifest_sha256"), name
        assert got == want, name


class TestSweep:
    def test_grid_size_and_summary(self, workdir):
        tmp_path, train_cfg, data = workdir
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"alpha": [0.5, 0.9, 1.0], "seed": [0, 1]}))
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(train_cfg), "--data", str(data),
                     "--sweep", str(sweep), "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()
        assert len(rows) == 1 + 6
        assert all((out / f"point_{i:03d}" / "fairness_report.json").exists()
                   for i in range(6))

    def test_empty_grid_exits_1(self, workdir):
        tmp_path, train_cfg, data = workdir
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({}))
        assert main(["sweep", "--config", str(train_cfg), "--data", str(data),
                     "--sweep", str(sweep), "--out", str(tmp_path / "s")]) == 1

    def test_alpha_one_matches_no_pseudo_run(self, workdir):
        tmp_path, train_cfg, data = workdir
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"alpha": [1.0]}))
        sweep_out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(train_cfg), "--data", str(data),
                     "--sweep", str(sweep), "--out", str(sweep_out)]) == 0
        ablate_out = tmp_path / "ablate"
        assert main(["train", "--config", str(train_cfg), "--data", str(data),
                     "--out", str(ablate_out), "--no-pseudo"]) == 0
        sweep_report = json.loads(
            (sweep_out / "point_000" / "fairness_report.json").read_text())
        ablate_report = json.loads(
            (ablate_out / "fairness_report.json").read_text())
        for key in ("accuracy", "demographic_parity", "equalized_odds"):
            assert sweep_report[key] == ablate_report[key]

    GRID = {"seed": [0, 1], "confidence_threshold": [0.6, 0.7]}

    def sweep(self, workdir, grid, data=None) -> tuple[int, Path]:
        tmp_path, train_cfg, workdir_data = workdir
        out = tmp_path / "sweep_out"
        code = main(["sweep", "--config", str(train_cfg),
                     "--data", str(data or workdir_data),
                     "--sweep", str(_file(tmp_path / "grid.json", grid)),
                     "--out", str(out)])
        return code, out

    def summary(self, out: Path) -> list[dict]:
        with (out / "summary.csv").open(newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def test_each_point_matches_a_standalone_train(self, workdir):
        """The shared data and identifier change no byte of any point."""
        tmp_path, _, data = workdir
        code, out = self.sweep(workdir, self.GRID)
        assert code == 0
        points = _sweep_grid(self.GRID)
        assert [r["status"] for r in self.summary(out)] == ["ok"] * len(points)
        for i, point in enumerate(points):
            alone = tmp_path / f"alone_{i}"
            doc = dict(TRAIN_CFG, train=dict(TRAIN_CFG["train"], **point))
            assert "split" in doc
            assert main(["train", "--config", str(_file(tmp_path / "point.json", doc)),
                         "--data", str(data), "--out", str(alone)]) == 0
            for name in ARTIFACTS:
                assert (out / f"point_{i:03d}" / name).read_bytes() \
                    == (alone / name).read_bytes(), (point, name)

    @pytest.fixture
    def two_workers(self, monkeypatch):
        """Sweeps in the test fork two workers, whatever the host."""
        cap_workers(monkeypatch, 2)

    def around_points(self, monkeypatch, around) -> None:
        """Run each point's training as ``around(i, train)`` in its worker.
        A point trains in its lockstep chunk, so ``train`` is the chunk's
        training, inside the ``around`` of each of its points, nested in
        point order."""
        original = reckoner.cli._run_training

        def wrapped(*args):
            train = functools.partial(original, *args)
            for out_dir in reversed(args[4]):
                train = functools.partial(around, int(out_dir.name.removeprefix("point_")),
                                          train)
            return train()
        monkeypatch.setattr(reckoner.cli, "_run_training", wrapped)

    def test_data_read_once_and_identifier_fitted_once_per_worker(
            self, workdir, monkeypatch, two_workers):
        """The parent codes the CSV once, before it forks; each worker fits
        the identifier at its first point and keeps it. Every call appends
        its process id to one file, so the counts cover every process."""
        tmp_path = workdir[0]
        calls = tmp_path / "calls.log"

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                with calls.open("a") as fh:
                    fh.write(f"{name} {os.getpid()}\n")
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(reckoner.pipeline, "lr_fit")
        counted(reckoner.cli, "code_csv")
        ready = _dir(tmp_path / "ready")

        def around(i, train):
            # A worker's first point waits until both workers hold a point,
            # so that both run points.
            mine = ready / str(os.getpid())
            if not mine.exists():
                mine.touch()
                _wait_for(lambda: len(list(ready.iterdir())) == 2)
            return train()

        self.around_points(monkeypatch, around)
        code, out = self.sweep(workdir, self.GRID)
        assert code == 0
        assert [r["status"] for r in self.summary(out)] == ["ok"] * 4
        made = [line.split() for line in calls.read_text().splitlines()]
        assert [pid for name, pid in made if name == "code_csv"] == [str(os.getpid())]
        fits = [pid for name, pid in made if name == "lr_fit"]
        assert sorted(fits) == sorted(p.name for p in ready.iterdir())

    @pytest.mark.parametrize("fault, reason", [
        ("kill", "worker killed by SIGKILL"),
        ("raise", "worker raised RuntimeError: point 1 broke"),
    ])
    def test_failed_worker_fails_only_its_point(self, workdir, monkeypatch, two_workers,
                                                fault, reason):
        def around(i, train):
            if i == 1 and fault == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if i == 1:
                raise RuntimeError("point 1 broke")
            return train()

        self.around_points(monkeypatch, around)
        code, out = self.sweep(workdir, self.GRID)
        assert code == 0
        rows = self.summary(out)
        assert [r["status"] for r in rows] == ["ok", "error", "ok", "ok"]
        assert rows[1]["reason"] == reason
        assert_no_child_processes()

    def test_summary_in_point_order_when_points_finish_out_of_order(
            self, workdir, monkeypatch, two_workers):
        finished = workdir[0] / "finished.log"

        def around(i, train):
            if i == 0:  # held back until the last point has finished
                _wait_for(lambda: finished.exists() and "3" in finished.read_text().split())
            result = train()
            with finished.open("a") as fh:
                fh.write(f"{i}\n")
            return result

        self.around_points(monkeypatch, around)
        code, out = self.sweep(workdir, self.GRID)
        assert code == 0
        assert finished.read_text().split()[-1] == "0"
        rows = self.summary(out)
        assert [r["status"] for r in rows] == ["ok"] * 4
        assert [(r["point"], r["seed"], r["confidence_threshold"]) for r in rows] == [
            (str(i), str(p["seed"]), str(p["confidence_threshold"]))
            for i, p in enumerate(_sweep_grid(self.GRID))]
        for i, row in enumerate(rows):
            report = json.loads((out / f"point_{i:03d}" / "fairness_report.json").read_text())
            assert row["accuracy"] == reckoner.serial.format_float(report["accuracy"])

    def test_unreadable_data_fails_every_point(self, workdir):
        tmp_path, _, data = workdir
        lines = data.read_text().splitlines(keepends=True)
        lines[3] = "abc" + lines[3][lines[3].index(","):]
        bad = _file(tmp_path / "bad.csv", "".join(lines))
        code, out = self.sweep(workdir, self.GRID, data=bad)
        assert code == 1
        rows = self.summary(out)
        assert [r["status"] for r in rows] == ["error"] * 4
        assert {r["reason"] for r in rows} == {
            "unparseable numeric cell 'abc' in column 'f0', row 4"}
        assert all((out / f"point_{i:03d}").is_dir() for i in range(4))

    def test_blocked_point_directory_fails_only_its_point(self, workdir):
        tmp_path, _, _ = workdir
        out = _dir(tmp_path / "sweep_out")
        _file(out / "point_001", "not a directory")
        code, out = self.sweep(workdir, self.GRID)
        assert code == 0
        rows = self.summary(out)
        assert [r["status"] for r in rows] == ["ok", "error", "ok", "ok"]
        assert rows[1]["reason"].startswith(
            f"cannot create output directory {out / 'point_001'}: ")
        assert not list(out.rglob("*.tmp"))

    def test_unallocatable_width_fails_each_point_in_one_line(self, workdir):
        """A point's MemoryError is the config error ``train`` reports for it:
        its reason is the point's row, and no worker prints a traceback.
        2**57 float64s are past any x86-64 address space, so each
        allocation fails at once, without touching memory."""
        tmp_path, _, data = workdir
        doc = dict(TRAIN_CFG, train=dict(TRAIN_CFG["train"], hidden1=2**57))
        cfg = _file(tmp_path / "wide.json", doc)
        proc = run_cli("sweep", "--config", cfg, "--data", data, "--out", tmp_path / "o",
                       "--sweep", _file(tmp_path / "grid.json", {"seed": [0, 1]}))
        assert_clean_failure(proc, 1)
        assert proc.stderr.startswith("error kind=config exit=1 ")
        alone = run_cli("train", "--config", cfg, "--data", data, "--out", tmp_path / "t")
        assert_clean_failure(alone, 1)
        reason = alone.stderr.split('reason="', 1)[1].rstrip().removesuffix('"')
        assert reason.startswith("not enough memory for this config: ")
        rows = self.summary(tmp_path / "o")
        assert [(r["status"], r["reason"]) for r in rows] == [("error", reason)] * 2

    def test_emptied_subset_fails_only_its_point(self, workdir):
        code, out = self.sweep(workdir, {"confidence_threshold": [0.6, 0.99]})
        assert code == 0
        rows = self.summary(out)
        assert [r["status"] for r in rows] == ["ok", "error"]
        assert rows[1]["reason"].startswith(
            "confidence split left the high-confidence subset empty at threshold 0.99")
        assert_no_manifest(out / "point_001")

    def traced(self, monkeypatch, log: Path, module, name: str, note=lambda *a: "") -> None:
        """Append ``name``, the process id and ``note(*args)`` to ``log`` at
        each call of ``module.name``, in any process."""
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            with log.open("a") as fh:
                fh.write(f"{name} {os.getpid()} {note(*args)}\n")
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    def test_failed_chunk_reruns_point_by_point(self, workdir, monkeypatch):
        """A NumericError in one run of a 3-run lockstep chunk fails the
        chunk, whose points then run one by one: only the failing point is
        an error row, and the others' files are a standalone train's."""
        tmp_path, _, data = workdir
        cap_workers(monkeypatch, 1)
        poisoned_seed = 10 + reckoner.pipeline._SEED_HIGH_INIT
        initialized = reckoner.models.FeedForwardClassifier.initialized.__func__

        def poisoned(cls, m, h1, h2, seed):
            model = initialized(cls, m, h1, h2, seed)
            rows = model.params.values.reshape(-1, model.param_count)
            rows[np.atleast_1d(seed) == poisoned_seed] = np.nan
            return model
        monkeypatch.setattr(reckoner.models.FeedForwardClassifier, "initialized",
                            classmethod(poisoned))
        calls = tmp_path / "calls.log"
        self.traced(monkeypatch, calls, reckoner.cli, "train", lambda tr, va, cfgs: len(cfgs))
        grid = {"seed": [0, 10, 20]}
        code, out = self.sweep(workdir, grid)
        assert code == 0
        assert [line.split()[2] for line in calls.read_text().splitlines()] == \
            ["3", "1", "1", "1"]
        rows = self.summary(out)
        assert [r["status"] for r in rows] == ["ok", "error", "ok"]
        assert rows[1]["reason"] == "non-finite gradient in FeedForwardClassifier.backward"
        assert_no_manifest(out / "point_001")
        for i, seed in ((0, 0), (2, 20)):
            doc = dict(TRAIN_CFG, train=dict(TRAIN_CFG["train"], seed=seed))
            alone = tmp_path / f"alone_{i}"
            assert main(["train", "--config", str(_file(tmp_path / "point.json", doc)),
                         "--data", str(data), "--out", str(alone)]) == 0
            for name in ARTIFACTS:
                assert (out / f"point_{i:03d}" / name).read_bytes() \
                    == (alone / name).read_bytes(), (seed, name)

    def test_training_enters_through_cli_train_per_chunk(self, workdir, monkeypatch,
                                                          two_workers):
        """The benchmark stamps the end of a sweep's set-up at the first call
        of ``reckoner.cli.train``: every chunk must enter training there,
        and no process may fit or initialize anything before it does."""
        calls = workdir[0] / "calls.log"
        self.traced(monkeypatch, calls, reckoner.cli, "train")
        for name in ("lr_fit", "initialize", "_init_phase"):
            self.traced(monkeypatch, calls, reckoner.pipeline, name)
        code, out = self.sweep(workdir, {"seed": [0, 1, 2, 3, 4, 5]})
        assert code == 0
        assert [r["status"] for r in self.summary(out)] == ["ok"] * 6
        made = [line.split()[:2] for line in calls.read_text().splitlines()]
        assert [name for name, _ in made].count("train") == 2  # chunks of 3
        assert made[0][0] == "train"
        first = {}
        for name, pid in made:
            first.setdefault(pid, name)
        assert set(first.values()) == {"train"}


# Lockstep training: the runs of a chunk, each in its slice of one stacked
# model, against lone runs of the same configs, for every setting that
# changes which kernels a step runs, at m = 6 and at the hashed width.
LOCKSTEP_TRAIN = {"total_iterations": 40, "batch_size": 32, "hidden1": 8, "hidden2": 4,
                  "identifier_epochs": 30, "learning_rate": 0.01}
LOCKSTEP_SETTINGS = {
    "default": {},
    "no-noise": {"use_noise": False},
    "no-pseudo": {"use_pseudo_learning": False},
    "soft-labels": {"pseudo_label_kind": "soft"},
    "epoch-cadence": {"pseudo_cadence": "epoch"},
    "alpha-zero": {"alpha": 0.0},
    "alpha-one": {"alpha": 1.0},
    "low-sees-noise": {"low_conf_sees_noise": True},
    # Large steps make the runs of a chunk disagree on their best pseudo step.
    "large-steps": {"learning_rate": 0.2},
}
LOCKSTEP_CASES = [("m6", name) for name in LOCKSTEP_SETTINGS] + [
    ("hashed", "default"), ("hashed", "low-sees-noise")]


@pytest.fixture(scope="module")
def lockstep_data(tmp_path_factory):
    """Each width's schema, split and prepared data, as ``train`` has them."""
    tmp = tmp_path_factory.mktemp("lockstep")
    synth = _file(tmp / "synth.json", dict(SYNTH_CFG, m_numeric=6))
    assert main(["synth", "--config", str(synth), "--out", str(tmp / "m6.csv")]) == 0
    m6_schema = {"columns": [{"name": f"f{i}", "kind": "numeric"} for i in range(6)]
                 + [{"name": "y", "kind": "label"}, {"name": "s", "kind": "sensitive"}]}
    inputs = {"m6": (m6_schema, tmp / "m6.csv"),
              "hashed": (HASHED_SCHEMA, _file(tmp / "hashed.csv", hashed_csv()))}
    split = reckoner.data.SplitSpec.from_dict(TRAIN_CFG["split"])
    prepared = {}
    for width, (schema_doc, path) in inputs.items():
        schema = reckoner.data.Schema.from_dict(schema_doc)
        prepared[width] = (schema, split, reckoner.cli._prepare_data(schema, split, path))
    return prepared


@pytest.mark.parametrize("width, setting", LOCKSTEP_CASES,
                         ids=[f"{w}-{s}" for w, s in LOCKSTEP_CASES])
def test_lockstep_runs_match_lone_runs(lockstep_data, monkeypatch, tmp_path, width, setting):
    """Chunks of 1, 2 and 3 runs: every run's parameter, Adam and rollback
    bytes, history and artifacts are those of a lone ``train``."""
    schema, split, data = lockstep_data[width]
    tr, va = data[:2]
    cfgs = [TrainConfig(**{**LOCKSTEP_TRAIN, **LOCKSTEP_SETTINGS[setting]}, seed=seed)
            for seed in (3, 4, 5)]
    trained = []
    train = reckoner.cli.train
    monkeypatch.setattr(reckoner.cli, "train",
                        lambda *args, **kwargs: trained.append(train(*args, **kwargs))
                        or trained[-1])

    def run(chunk, name):
        dirs = [reckoner.serial.make_dir(tmp_path / name / str(cfg.seed)) for cfg in chunk]
        reckoner.cli._run_training(chunk, schema, split, data, dirs)
        return trained[-1], dirs

    alone = [(train(tr, va, cfg), run([cfg], "alone")[1][0]) for cfg in cfgs]
    for size in (1, 2, 3):
        models, dirs = run(cfgs[:size], f"chunk{size}")
        for model, out, (lone, lone_out) in zip(models, dirs, alone):
            for name in ("high", "low", "noise"):
                assert getattr(model, name).params.values.tobytes() \
                    == getattr(lone, name).params.values.tobytes(), name
                state, lone_state = getattr(model, f"{name}_state"), getattr(lone, f"{name}_state")
                assert state.m.tobytes() == lone_state.m.tobytes(), name
                assert state.v.tobytes() == lone_state.v.tobytes(), name
                assert state.t == lone_state.t, name
            assert model.low_snapshot.values.tobytes() == lone.low_snapshot.values.tobytes()
            assert model.best_low.values.tobytes() == lone.best_low.values.tobytes()
            assert model.noise.eta.tobytes() == lone.noise.eta.tobytes()
            assert model.history == lone.history
            for name in ARTIFACTS:
                assert (out / name).read_bytes() == (lone_out / name).read_bytes(), name


def _run_bytes(model) -> dict:
    """Every parameter, Adam and rollback array of a run as bytes, with the
    Adam step counts and the history."""
    out = {"low_snapshot": model.low_snapshot.values.tobytes(),
           "best_low": model.best_low.values.tobytes(),
           "eta": model.noise.eta.tobytes(), "history": model.history}
    for name in ("high", "low", "noise"):
        state = getattr(model, f"{name}_state")
        out[name] = (getattr(model, name).params.values.tobytes(),
                     state.m.tobytes(), state.v.tobytes(), state.t)
    return out


@pytest.mark.parametrize("use_noise", [True, False], ids=["noise", "no-noise"])
@pytest.mark.parametrize("seeds", [(3,), (3, 4, 5)], ids=["lone", "stack"])
def test_coded_train_rows_train_as_their_matrix(lockstep_data, seeds, use_noise):
    """``train`` on the coded train split, whose mini-batches are filled from
    the codes, gives each run the bytes of ``train`` on the split's matrix."""
    _, _, (tr, va, *_) = lockstep_data["hashed"]
    assert isinstance(tr, reckoner.data.StandardizedRows)
    cfgs = [TrainConfig(**LOCKSTEP_TRAIN, use_noise=use_noise, seed=seed) for seed in seeds]
    arg = cfgs[0] if len(cfgs) == 1 else cfgs
    coded = reckoner.pipeline.train(tr, va, arg)
    matrix = reckoner.pipeline.train(tr.dataset(slice(None)), va, arg)
    if len(cfgs) == 1:
        coded, matrix = [coded], [matrix]
    for got, want in zip(coded, matrix, strict=True):
        assert _run_bytes(got) == _run_bytes(want)
        assert got.identifier.params.values.tobytes() \
            == want.identifier.params.values.tobytes()


def test_initialize_keeps_no_train_matrix(tmp_path):
    """``initialize`` on coded rows builds their matrix for the identifier,
    its peak shows it, and keeps no more than ``initialize`` on that matrix,
    which the caller holds: the matrix is gone before the init phases."""
    schema = reckoner.data.Schema.from_dict(HASHED_SCHEMA)
    split = reckoner.data.SplitSpec.from_dict(TRAIN_CFG["split"])
    path = _file(tmp_path / "hashed.csv", hashed_csv(n=3_000))
    tr = reckoner.cli._prepare_data(schema, split, path)[0]
    given = tr.dataset(slice(None))
    matrix_bytes = given.x.nbytes
    cfg = TrainConfig(**LOCKSTEP_TRAIN)
    reckoner.pipeline.initialize(tr, cfg)  # numpy's first-call caches
    kept, peaks = [], []
    for train_set in (tr, given):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = reckoner.pipeline.initialize(train_set, cfg)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept.append(after - before)
        peaks.append(peak - before)
        del model
    assert peaks[0] > matrix_bytes, (peaks, matrix_bytes)
    assert abs(kept[0] - kept[1]) < matrix_bytes / 16, (kept, matrix_bytes)


# Malformed input documents: each exits with its documented code and one
# ``error kind=`` line. A case builds the argv from the tmp dir and the
# ``workdir`` data CSV.

NOT_UTF8 = b'{"train": "\xff"}'
PREDICTIONS = "pred,label,group\n1,1,0\n0,0,0\n1,1,1\n0,0,1\n"


def _file(path: Path, content) -> Path:
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    return path


def _dir(path: Path) -> Path:
    path.mkdir()
    return path


def _train(tmp: Path, data: Path, config=None, **train) -> list:
    doc = config if config is not None else dict(
        TRAIN_CFG, train=dict(TRAIN_CFG["train"], **train))
    return ["train", "--config", _file(tmp / "cfg.json", doc), "--data", data,
            "--out", tmp / "o"]


def _synth(tmp: Path, config) -> list:
    return ["synth", "--config", config, "--out", tmp / "o.csv"]


def _predictions(path: Path) -> list:
    return ["audit", "--predictions", path, "--out", path.parent / "audit"]


def _checkpoint(tmp: Path, data: Path) -> Path:
    """The checkpoint of a ``TRAIN_CFG`` run on ``data``."""
    assert main([str(a) for a in _train(tmp, data)]) == 0
    return tmp / "o" / "checkpoint.json"


MALFORMED_INPUTS = {
    "train-seed-float": (1, lambda t, d: _train(t, d, seed=1.5)),
    "train-seed-negative": (1, lambda t, d: _train(t, d, seed=-5)),
    "train-batch-size-float": (1, lambda t, d: _train(t, d, batch_size=2.5)),
    "train-noise-hidden-float": (1, lambda t, d: _train(t, d, noise_hidden=2.5)),
    "train-use-noise-string": (1, lambda t, d: _train(t, d, use_noise="no")),
    "train-not-object": (1, lambda t, d: _train(t, d, dict(TRAIN_CFG, train=5))),
    "train-learning-rate-nan": (1, lambda t, d: _train(t, d, learning_rate=float("nan"))),
    "sweep-grid-not-object": (1, lambda t, d: [
        "sweep", "--config", _file(t / "cfg.json", TRAIN_CFG), "--data", d,
        "--sweep", _file(t / "grid.json", 5), "--out", t / "o"]),
    "synth-seed-negative": (1, lambda t, d: _synth(
        t, _file(t / "s.json", dict(SYNTH_CFG, seed=-1)))),
    "synth-typo-key": (1, lambda t, d: _synth(
        t, _file(t / "s.json", dict(SYNTH_CFG, sed=3)))),
    "train-config-directory": (1, lambda t, d: [
        "train", "--config", _dir(t / "cfg.json"), "--data", d, "--out", t / "o"]),
    "synth-config-directory": (1, lambda t, d: _synth(t, _dir(t / "s.json"))),
    "train-config-not-utf8": (1, lambda t, d: [
        "train", "--config", _file(t / "cfg.json", NOT_UTF8), "--data", d,
        "--out", t / "o"]),
    "checkpoint-not-utf8": (1, lambda t, d: [
        "audit", "--checkpoint", _file(t / "ckpt.json", NOT_UTF8), "--data", d,
        "--out", t / "o"]),
    "train-data-directory": (2, lambda t, d: _train(t, _dir(t / "d.csv"))),
    "predictions-directory": (2, lambda t, d: _predictions(_dir(t / "p.csv"))),
    "train-data-not-utf8": (2, lambda t, d: _train(
        t, _file(t / "d.csv", d.read_bytes() + b"\xff,\xfe\n"))),
    "predictions-not-utf8": (2, lambda t, d: _predictions(
        _file(t / "p.csv", PREDICTIONS.encode() + b"\xff,1,0\n"))),
    "predictions-fractional-pred": (2, lambda t, d: _predictions(
        _file(t / "p.csv", PREDICTIONS.replace("\n1,1,0\n", "\n0.9,1,0\n")))),
    "predictions-fractional-group": (2, lambda t, d: _predictions(
        _file(t / "p.csv", PREDICTIONS.replace("\n0,0,0\n", "\n0,0,0.5\n")))),
    "predictions-label-beyond-int64": (2, lambda t, d: _predictions(
        _file(t / "p.csv", "pred,label,group\n0,1.8446744073709552e+19,0\n"))),
    "predictions-group-beyond-int64": (2, lambda t, d: _predictions(
        _file(t / "p.csv", PREDICTIONS + "0,0,1e19\n"))),
    "predictions-nan-score": (2, lambda t, d: _predictions(
        _file(t / "p.csv", "pred,label,group,score\n1,1,0,nan\n0,0,0,0.2\n"
                           "1,1,1,0.9\n0,0,1,0.3\n"))),
    "audit-nan-bucket-threshold": (1, lambda t, d: [
        *_predictions(_file(t / "p.csv", PREDICTIONS)),
        "--bucket-thresholds", "0.5", "nan", "0.7"]),
    "audit-data-without-checkpoint": (1, lambda t, d: [
        *_predictions(_file(t / "p.csv", PREDICTIONS)), "--data", d]),
    "audit-predictions-with-checkpoint": (1, lambda t, d: [
        *_predictions(_file(t / "p.csv", PREDICTIONS)),
        "--checkpoint", _checkpoint(t, d), "--data", d]),
    "train-hidden-past-numpy-arrays": (1, lambda t, d: _train(t, d, hidden1=2**60)),
    "train-hidden-product-past-numpy-arrays": (1, lambda t, d: _train(
        t, d, hidden1=2**57, hidden2=2**57)),
    "train-schema-past-int64-offsets": (1, lambda t, d: _train(t, d, dict(
        TRAIN_CFG, schema=dict(TRAIN_CFG["schema"], hash_buckets=2**63, columns=[
            {"name": "f0", "kind": "categorical"}, *TRAIN_CFG["schema"]["columns"][1:]])))),
}


@pytest.mark.parametrize("case", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_malformed_input_exits_cleanly(case, workdir, capsys):
    tmp_path, _, data = workdir
    code, argv = case
    args = [str(a) for a in argv(_dir(tmp_path / "case"), data)]
    capsys.readouterr()
    assert main(args) == code
    err = capsys.readouterr().err
    assert sum("error kind=" in line for line in err.splitlines()) == 1
    assert f"exit={code} " in err
    assert "Traceback" not in err


def test_infinite_prediction_exits_2_cleanly(tmp_path):
    preds = _file(tmp_path / "p.csv", PREDICTIONS + "inf,1,0\n")
    proc = run_cli(*_predictions(preds))
    assert_clean_failure(proc, 2)
    assert "error kind=data exit=2" in proc.stderr


# Unusable output paths: each exits 1 with one ``error kind=config`` line,
# prints no traceback and leaves no temp file behind.

def _sweep_args(tmp: Path, data: Path, out: Path) -> list:
    return ["sweep", "--config", _file(tmp / "cfg.json", TRAIN_CFG), "--data", data,
            "--sweep", _file(tmp / "grid.json", {"seed": [0, 1]}), "--out", out]


UNUSABLE_OUTPUTS = {
    "synth-out-is-directory": lambda t, d: [
        "synth", "--config", _file(t / "s.json", SYNTH_CFG), "--out", _dir(t / "o.csv")],
    "synth-out-under-a-file": lambda t, d: [
        "synth", "--config", _file(t / "s.json", SYNTH_CFG),
        "--out", _file(t / "f", "x") / "o.csv"],
    "audit-out-is-file": lambda t, d: [
        "audit", "--predictions", _file(t / "p.csv", PREDICTIONS),
        "--out", _file(t / "o", "x")],
    "train-out-is-file": lambda t, d: [
        *_train(t, d)[:-1], _file(t / "o", "x")],
    "sweep-out-is-file": lambda t, d: _sweep_args(t, d, _file(t / "o", "x")),
}


@pytest.mark.parametrize("argv", UNUSABLE_OUTPUTS.values(), ids=UNUSABLE_OUTPUTS.keys())
def test_unusable_output_path_exits_1(argv, workdir):
    tmp_path, _, data = workdir
    case = _dir(tmp_path / "case")
    proc = run_cli(*argv(case, data))
    assert_clean_failure(proc, 1)
    assert "error kind=config exit=1" in proc.stderr
    assert not list(tmp_path.rglob("*.tmp"))


def _histogram(t: Path, ckpt: Path, feature: str, data: str = "d.csv") -> list:
    """A checkpoint-mode audit of ``hashed_checkpoint`` with a histogram of
    ``feature``; its ``--data`` exists unless named otherwise."""
    _file(t / "d.csv", hashed_csv(50, seed=9))
    return ["audit", "--checkpoint", ckpt, "--data", t / data,
            "--histogram-feature", feature, "--out", t / "out"]


# Usage errors, and histogram features that the checkpoint's schema has no
# numeric column for: each is a config error, reported before any input is
# read.
USAGE_ERRORS = {
    "no-subcommand": lambda t, ckpt: [],
    "train-missing-data": lambda t, ckpt: [
        "train", "--config", _file(t / "cfg.json", TRAIN_CFG), "--out", t / "out"],
    "audit-bins-not-int": lambda t, ckpt: [
        "audit", "--predictions", _file(t / "p.csv", PREDICTIONS), "--out", t / "out",
        "--bins", "abc"],
    "histogram-unknown-feature": lambda t, ckpt: _histogram(t, ckpt, "nosuch"),
    "histogram-label": lambda t, ckpt: _histogram(t, ckpt, "label"),
    "histogram-sensitive": lambda t, ckpt: _histogram(t, ckpt, "group"),
    "histogram-categorical-feature": lambda t, ckpt: _histogram(t, ckpt, "c0"),
    "histogram-checked-before-data": lambda t, ckpt: _histogram(
        t, ckpt, "nosuch", data="missing.csv"),
    "bins-zero-checked-before-data": lambda t, ckpt: [
        *_histogram(t, ckpt, "n0", data="missing.csv"), "--bins", "0"],
    "bins-without-histogram": lambda t, ckpt: [
        "audit", "--predictions", _file(t / "p.csv", PREDICTIONS), "--out", t / "out",
        "--bins", "5"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_exits_1(argv, hashed_checkpoint, tmp_path):
    proc = run_cli(*argv(tmp_path, hashed_checkpoint))
    assert_clean_failure(proc, 1)
    assert "error kind=config exit=1" in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert "error kind=" not in capsys.readouterr().err


def test_label_id_column_is_rejected_fast(tmp_path):
    """A label column of 100,000 distinct values is coded in one linear pass
    before it is rejected."""
    n = 100_000
    data = _file(tmp_path / "d.csv", "f0,f1,f2,y,s\n"
                 + "".join(f"0.5,1.5,2.5,{i},{i % 2}\n" for i in range(n)))
    start = time.perf_counter()
    proc = run_cli(*_train(tmp_path, data))
    elapsed = time.perf_counter() - start
    assert_clean_failure(proc, 2)
    assert f"non-binary label: {n} distinct values" in proc.stderr
    assert elapsed < 10.0


# CLI fuzz: any input ends in a documented exit code; a failure prints
# exactly one ``error kind=`` line and no traceback. An exception escaping
# ``main`` fails the property.

def run_main(*args) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, err.getvalue()


def assert_documented_exit(code: int, err: str) -> None:
    assert code in (0, 1, 2, 3)
    if code:
        assert sum("error kind=" in line for line in err.splitlines()) == 1, err
        assert "Traceback" not in err


def is_binary_cell(cell: str) -> bool:
    try:
        return float(cell) in (0.0, 1.0)
    except ValueError:
        return False


def is_int64_cell(cell: str) -> bool:
    try:
        value = float(cell)
    except ValueError:
        return False
    return value.is_integer() and -2.0**63 <= value < 2.0**63


def is_score_cell(cell: str) -> bool:
    try:
        return 0.0 <= float(cell) <= 1.0
    except ValueError:
        return False


csv_cells = (st.sampled_from(["0", "1", "1.0", "0.9", "-1", "2", "nan", "inf", "1e400",
                              "", " 1", "x"])
             | st.floats().map(repr) | st.text(max_size=4))


@settings(max_examples=120, deadline=None)
@given(with_score=st.booleans(),
       rows=st.lists(st.lists(csv_cells, min_size=2, max_size=4), min_size=0, max_size=6))
@example(with_score=False, rows=[["0", "1.8446744073709552e+19", "0"]])
@example(with_score=False, rows=[["0", "1", "1e19"]])
@example(with_score=True, rows=[["1", "1", "0", "nan"], ["0", "0", "1", "0.2"]])
def test_fuzz_predictions_csv(with_score, rows):
    header = ["pred", "label", "group"] + (["score"] if with_score else [])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *rows])
        code, err = run_main("audit", "--predictions", path, "--out", Path(tmp) / "out")
    assert_documented_exit(code, err)
    if code == 0:
        assert all(len(r) >= 3 and is_binary_cell(r[0]) and is_binary_cell(r[1])
                   and is_int64_cell(r[2]) for r in rows)
        assert not with_score or all(len(r) == 4 and is_score_cell(r[3]) for r in rows)


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    """A model trained on the ``workdir`` data, its checkpoint document per
    format version (3 and 4), and that data."""
    tmp, train_cfg, data = make_workdir(tmp_path_factory.mktemp("fuzz"))
    with saved_as_v3_too():
        assert main(["train", "--config", str(train_cfg), "--data", str(data),
                     "--out", str(tmp / "run")]) == 0
    return ({version: json.loads((tmp / "run" / name).read_text())
             for version, name in ((3, "checkpoint_v3.json"), (4, "checkpoint.json"))},
            data)


def json_paths(node, prefix=()):
    """Every key and list index path below ``node``; of each list only the
    first and last elements, so the weight arrays do not crowd out the rest."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = [(i, node[i]) for i in sorted({0, len(node) - 1}) if node]
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


DELETE = "delete the key"
CHECKPOINT_EDITS = [DELETE, None, True, -1, 0, 1.5, "x", "0.49", [], {}]
WRAPPER_VECTORS = [("models", "high", "values"), ("models", "noise", "values"),
                   ("models", "noise", "eta")]
STANDARDIZATION = [("standardize", "mean"), ("standardize", "std")]
PERTURBATION = ("models", "perturbation")


def node_at(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


def parameter_values(node):
    """A parameter vector's values: a base64 blob's float64s decoded, or the
    node as it is."""
    if type(node) is str:
        return np.frombuffer(base64.b64decode(node, validate=True), "<f8").tolist()
    return node


def well_typed_numbers(doc) -> bool:
    """Every parameter and standardization value is a finite JSON number
    (not a bool) or a blob's finite float64, and every width a JSON
    integer. A version 4 perturbation is null with the noise off, and its
    values lie in (-1, 1) with it on."""
    if doc["format_version"] < 4:
        vectors, counts = WRAPPER_VECTORS, [("m",), ("models", "noise", "hidden")]
    elif not doc["config"].get("use_noise", True):
        vectors, counts = WRAPPER_VECTORS[:1], [("m",)]
        if node_at(doc, PERTURBATION) is not None:
            return False
    else:
        vectors, counts = WRAPPER_VECTORS[:1] + [PERTURBATION], [("m",)]
        if not all(abs(v) < 1 for v in parameter_values(node_at(doc, PERTURBATION))):
            return False
    return (all(type(v) in (int, float) and math.isfinite(v)
                for keys in vectors + STANDARDIZATION
                for v in parameter_values(node_at(doc, keys)))
            and all(type(node_at(doc, keys)) is int for keys in counts))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), edit=st.sampled_from(CHECKPOINT_EDITS))
@example(data=None, edit="0.49")
@example(data=None, edit=True)
def test_fuzz_checkpoint_document(trained_checkpoint, data, edit):
    """An edit at a drawn path of the version 3 or 4 document. An
    ``@example`` (``data`` is None) edits ``models.noise.eta[0]`` of the
    version 3 document turned back into version 2, whose parameters are
    lists."""
    docs, csv_path = trained_checkpoint
    if data is None:
        doc, path = docs[3], ("models", "noise", "eta", 0)
    else:
        doc = docs[data.draw(st.sampled_from([3, 4]))]
        path = data.draw(st.sampled_from(list(json_paths(doc))))
    doc = json.loads(json.dumps(doc))
    if data is None:
        doc["format_version"] = 2
        for keys in WRAPPER_VECTORS:
            parent = node_at(doc, keys[:-1])
            parent[keys[-1]] = parameter_values(parent[keys[-1]])
    parent = node_at(doc, path[:-1])
    if edit == DELETE and isinstance(parent, dict):
        del parent[path[-1]]
    elif edit != DELETE:
        parent[path[-1]] = edit
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = _file(Path(tmp) / "ckpt.json", doc)
        code, err = run_main("audit", "--checkpoint", ckpt, "--data", csv_path,
                             "--histogram-feature", "f0", "--out", Path(tmp) / "out")
    assert_documented_exit(code, err)
    if code == 0:
        assert well_typed_numbers(doc)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(SWEEPABLE) | st.text(max_size=4),
                       st.lists(json_values, max_size=3) | json_values, max_size=3)
       | json_values)
def test_fuzz_sweep_grid(doc):
    """The grid parse and each point's config decode, as ``cmd_sweep`` runs them."""
    base = TrainConfig.from_dict(TRAIN_CFG["train"]).to_dict()
    try:
        grid = _sweep_grid(doc)
    except ConfigError:
        return
    for point in grid:
        try:
            TrainConfig.from_dict({**base, **point})
        except ConfigError:
            pass


# Fuzzed ``--data`` CSVs for ``train`` and checkpoint-mode ``audit``: headers,
# cell text, ragged rows and encodings. A bad table is a usage or data error
# (exit 1 or 2) with one ``error kind=`` line, never a traceback or a
# numeric failure.
FUZZ_SCHEMA = {
    "columns": [{"name": "f0", "kind": "numeric"}, {"name": "c0", "kind": "categorical"},
                {"name": "y", "kind": "label"}, {"name": "s", "kind": "sensitive"}],
    "hash_buckets": 4,
}
FUZZ_TRAIN_CFG = {
    "train": {"total_iterations": 12, "batch_size": 8, "identifier_epochs": 20,
              "hidden1": 4, "hidden2": 2, "learning_rate": 0.01, "seed": 0},
    "schema": FUZZ_SCHEMA,
    "split": {"train_fraction": 0.5, "valid_fraction": 0.25,
              "test_fraction": 0.25, "seed": 1},
}
FUZZ_HEADER = ["f0", "c0", "y", "s"]


def fuzz_valid_rows(n: int = 80) -> list[list[str]]:
    """Rows whose f0 is +-3 (the label's sign) or 0 (a coin flip), so the
    identifier splits them into nonempty high- and low-confidence subsets."""
    f0 = [3.0, -3.0, 0.0, 0.0]
    return [[str(f0[i % 4]), f"v{i % 3}", str(int(f0[i % 4] > 0 or i % 8 == 2)),
             "ab"[i // 4 % 2]] for i in range(n)]


fuzz_cells = (st.sampled_from(["0", "1", "-2.5", "1e400", "-1e308", "nan", "inf", "",
                               " 1", "x", "é", '"', ",", "0x1", "1_0", "١"])
              | st.text(max_size=4))
fuzz_headers = (st.just(FUZZ_HEADER) | st.permutations(FUZZ_HEADER)
                | st.lists(st.sampled_from(FUZZ_HEADER + ["", "F0", " y", "z"]),
                           max_size=6))


@st.composite
def fuzz_tables(draw):
    """A header and rows (some from a valid table, some ragged or fuzzed),
    with CRLF or LF line ends, encoded as bytes."""
    header = draw(fuzz_headers)
    rows = fuzz_valid_rows(draw(st.sampled_from([0, 3, 80])))
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.lists(fuzz_cells, min_size=0, max_size=6))
        rows.insert(draw(st.integers(0, len(rows))), row)
    if rows and draw(st.booleans()):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 3))
        if j < len(rows[i]):
            rows[i][j] = draw(fuzz_cells)
    buf = io.StringIO()
    csv.writer(buf, lineterminator=draw(st.sampled_from(["\r\n", "\n"]))).writerows(
        [header, *rows])
    text = buf.getvalue()
    encoding = draw(st.sampled_from(["utf-8", "utf-8-sig", "utf-16", "latin-1", "raw"]))
    if encoding == "raw":
        data = bytearray(text.encode("utf-8"))
        data.insert(draw(st.integers(0, len(data))), draw(st.sampled_from([0xFF, 0x00, 0x80])))
        return bytes(data)
    return text.encode(encoding, errors="replace")


def assert_bad_data_exit(code: int, err: str) -> None:
    assert code in (0, 1, 2), err
    assert sum("error kind=" in line for line in err.splitlines()) == (1 if code else 0), err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    """A checkpoint trained on a valid ``FUZZ_SCHEMA`` table."""
    tmp = tmp_path_factory.mktemp("csv-fuzz")
    data = tmp / "data.csv"
    with data.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([FUZZ_HEADER, *fuzz_valid_rows()])
    cfg = _file(tmp / "train.json", FUZZ_TRAIN_CFG)
    code, err = run_main("train", "--config", cfg, "--data", data, "--out", tmp / "run")
    assert code == 0, err
    return cfg, tmp / "run" / "checkpoint.json"


@settings(max_examples=150, deadline=None)
@given(table=fuzz_tables(), command=st.sampled_from(["train", "audit"]))
@example(table=b"f0,c0,y,s\n" + "".join(",".join(r) + "\n" for r in fuzz_valid_rows())
         .encode(), command="train")
def test_fuzz_data_csv(fuzz_checkpoint, table, command):
    cfg, checkpoint = fuzz_checkpoint
    with tempfile.TemporaryDirectory() as tmp:
        data = _file(Path(tmp) / "data.csv", table)
        if command == "train":
            argv = ("train", "--config", cfg, "--data", data, "--out", Path(tmp) / "o")
        else:
            argv = ("audit", "--checkpoint", checkpoint, "--data", data,
                    "--histogram-feature", "f0", "--out", Path(tmp) / "o")
        code, err = run_main(*argv)
    assert_bad_data_exit(code, err)


# Fuzzed base configs for ``sweep``: its ``train`` section and the schema's
# width. Every width is tiny or past any x86-64 address space (2**57 float64s
# and up), never in between, where a config could really allocate gigabytes
# or train for minutes. Worker stderr is read at the file descriptor.
fuzz_widths = st.integers(1, 64) | st.integers(2**57, 2**70)
fuzz_hash_buckets = st.sampled_from([2, 4, 64]) \
    | st.sampled_from([2**k for k in (57, 60, 62, 63, 64, 70)])


@st.composite
def fuzz_base_trains(draw):
    """A ``train`` section, now and then with one value of the wrong type
    or out of range."""
    train = draw(st.fixed_dictionaries(
        {"total_iterations": st.integers(10, 16), "batch_size": st.integers(1, 16),
         "identifier_epochs": st.just(20), "hidden1": fuzz_widths,
         "hidden2": fuzz_widths},
        optional={"noise_hidden": fuzz_widths, "use_noise": st.booleans(),
                  "use_pseudo_learning": st.booleans(),
                  "learning_rate": st.sampled_from([0.01, 10.0, 1e300]),
                  "alpha": st.sampled_from([0.0, 0.5, 1.0]),
                  "confidence_threshold": st.sampled_from([0.6, 0.7]),
                  "pseudo_label_kind": st.sampled_from(["hard", "soft"])}))
    if draw(st.integers(0, 3)) == 3:
        train[draw(st.sampled_from(sorted(train)))] = draw(
            st.sampled_from([0, -1, 1.5, "8", None, True]))
    return train


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(train=fuzz_base_trains(), hash_buckets=fuzz_hash_buckets)
@example(train=dict(FUZZ_TRAIN_CFG["train"], hidden1=2**57), hash_buckets=4)
@example(train=dict(FUZZ_TRAIN_CFG["train"], hidden1=2**57, hidden2=2**57), hash_buckets=4)
@example(train=FUZZ_TRAIN_CFG["train"], hash_buckets=2**63)
def test_fuzz_sweep_base_config(monkeypatch, capfd, train, hash_buckets):
    cap_workers(monkeypatch, 2)
    doc = dict(FUZZ_TRAIN_CFG, train=train, schema=dict(FUZZ_SCHEMA, hash_buckets=hash_buckets))
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.csv"
        with data.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([FUZZ_HEADER, *fuzz_valid_rows()])
        capfd.readouterr()
        code = main([str(a) for a in (
            "sweep", "--config", _file(Path(tmp) / "cfg.json", doc), "--data", data,
            "--sweep", _file(Path(tmp) / "grid.json", {"seed": [0, 1]}),
            "--out", Path(tmp) / "o")])
        err = capfd.readouterr().err
    assert_documented_exit(code, err)
    assert "Traceback" not in err
