"""Seeded input generator for the benchmark workloads.

Writes every file the ``reckoner`` CLI receives: the train and sweep
configs, and the mixed categorical CSVs (a training table and a larger
scoring table with the same schema). The numeric quick-start CSV is made by
``reckoner synth`` from ``synth_config`` as in the README, so this module
only writes its config.

Everything here is a pure function of the workload seed: the same seed gives
byte-identical files, another seed gives other data of the same shape.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Mixed table: eight categorical columns with 5, 10, ..., 640 levels, two
# numeric columns, a binary label and a string group id.
CATEGORICAL_LEVELS = tuple(5 * 2 ** k for k in range(8))
NUMERIC_COLUMNS = ("n0", "n1")
GROUP_IDS = ("grp-north", "grp-south")
HASH_BUCKETS = 16
MIXED_FLIP_RATE_G1 = 0.25

TRAIN_ROWS = 20_000
SCORE_ROWS = 100_000

# Train configs. The numeric one is the README quick start; the hashed one
# runs the same trainer on the 130-wide hashed encoding.
SPLIT = {"train_fraction": 0.7, "valid_fraction": 0.15, "test_fraction": 0.15,
         "seed": 0}
NUMERIC_TRAIN = {"total_iterations": 3000, "batch_size": 128, "learning_rate": 0.003,
                 "alpha": 0.9, "confidence_threshold": 0.6, "seed": 0}
HASHED_TRAIN = dict(NUMERIC_TRAIN, total_iterations=1500)
SWEEP_ITERATIONS = 600
SWEEP_SEEDS = (0, 1, 2, 3, 4, 5)


def synth_config(seed: int) -> dict:
    """README quick-start synth config with the data seed taken from ``seed``."""
    return {"n": TRAIN_ROWS, "m_numeric": 6, "flip_rate_g0": 0.0,
            "flip_rate_g1": 0.25, "seed": seed}


def numeric_schema() -> dict:
    cols = [{"name": f"f{i}", "kind": "numeric"} for i in range(6)]
    cols += [{"name": "y", "kind": "label"}, {"name": "s", "kind": "sensitive"}]
    return {"columns": cols, "hash_buckets": 64}


def mixed_schema() -> dict:
    cols = [{"name": f"c{k}", "kind": "categorical"}
            for k in range(len(CATEGORICAL_LEVELS))]
    cols += [{"name": name, "kind": "numeric"} for name in NUMERIC_COLUMNS]
    cols += [{"name": "label", "kind": "label"}, {"name": "group", "kind": "sensitive"}]
    return {"columns": cols, "hash_buckets": HASH_BUCKETS}


def train_config(train: dict, schema: dict) -> dict:
    return {"train": dict(train), "schema": schema, "split": dict(SPLIT)}


def _level_model(seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per categorical column: level probabilities and per-level label effects.

    Drawn once per seed, so the training and scoring tables share them.
    """
    rng = np.random.default_rng([seed, 0])
    model = []
    for k, levels in enumerate(CATEGORICAL_LEVELS):
        weights = 1.0 / np.arange(1, levels + 1) ** 0.8  # Zipf-like frequencies
        probs = rng.permutation(weights / weights.sum())
        effects = rng.standard_normal(levels) * (0.6 if k < 4 else 0.25)
        model.append((probs, effects))
    return model


def _mixed_lines(n: int, seed: int, stream: int):
    """CSV lines of the mixed table, header first, built one row at a time."""
    model = _level_model(seed)
    rng = np.random.default_rng([seed, stream])
    g = (rng.random(n) < 0.5).astype(np.int64)
    z = 0.5 * rng.standard_normal(n)
    codes = np.empty((n, len(model)), dtype=np.int64)
    for k, (probs, effects) in enumerate(model):
        c = rng.choice(len(probs), size=n, p=probs)
        # Column c0 doubles as a group proxy: group 1 draws its levels from a
        # rotated distribution, so its level frequencies differ.
        if k == 0:
            c = np.where(g == 1, (c + 2) % len(probs), c)
        z += effects[c]
        codes[:, k] = c
    n0 = z + 1.5 * np.abs(z) * g + 0.5 * rng.standard_normal(n)
    n1 = rng.standard_normal(n)
    p_clean = 1.0 / (1.0 + np.exp(-2.0 * z))
    y = (rng.random(n) < p_clean).astype(np.int64)
    flips = (g == 1) & (rng.random(n) < MIXED_FLIP_RATE_G1)
    y = np.where(flips, 1 - y, y)

    yield ",".join(c["name"] for c in mixed_schema()["columns"]) + "\n"
    for i in range(n):
        cats = ",".join(f"c{k}_v{v:04d}" for k, v in enumerate(codes[i].tolist()))
        yield f"{cats},{float(n0[i])!r},{float(n1[i])!r},{int(y[i])},{GROUP_IDS[g[i]]}\n"


def write_mixed_csv(path: Path, n: int, seed: int, stream: int) -> None:
    """Mixed categorical table; ``stream`` 1 is the training table, 2 scoring."""
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(_mixed_lines(n, seed, stream))


def write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8")
