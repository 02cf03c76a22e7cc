"""Versioned JSON checkpoints.

A checkpoint is a serving artifact: it holds what ``predict`` reads (the
high-confidence classifier and the noise wrapper) plus the config,
standardization and schema, not the training-only state, so it is no
resume point. Version 1 also stored the low-confidence classifier, its
snapshot, the identifier and a copy of the seed; its keys are a superset
of version 2's, so one reader loads both.

Parameter values are serialized with Python's shortest-exact float repr, so
a reloaded model reproduces scores bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Schema
from .errors import ConfigError
from .models import FeedForwardClassifier, ModelParams, NoiseWrapper, ParamLayout
from .pipeline import ReckonerModel, TrainConfig
from .serial import read_json, write_json

CHECKPOINT_VERSION = 2
READABLE_VERSIONS = (1, 2)


def _params_dict(params: ModelParams) -> dict:
    return {
        "layout": params.layout.to_dict(),
        "values": params.values.tolist(),
    }


def _numbers(values, name: str) -> np.ndarray:
    """A JSON list of finite numbers as float64. A string or a bool would
    parse (``"0.49"`` as 0.49, ``true`` as 1.0) and ``null`` reads as NaN,
    so each is rejected."""
    if not isinstance(values, list) or any(
            type(v) not in (int, float) for v in values if v is not None):
        raise ValueError(f"non-numeric value in {name}")
    array = np.asarray(values, dtype=np.float64)
    if not np.isfinite(array).all():
        raise ValueError(f"non-finite value in {name}")
    return array


def _count(value, name: str) -> int:
    """A JSON integer; ``6.7``, ``"6"`` and ``true`` are rejected."""
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _params_from_dict(d: dict, name: str) -> ModelParams:
    layout = ParamLayout.from_dict(d["layout"])
    return ModelParams(layout, _numbers(d["values"], f"{name}.values"))


def checkpoint_dict(model: ReckonerModel, schema: Schema,
                    mean: np.ndarray, std: np.ndarray,
                    manifest_sha256: str | None = None) -> dict:
    cfg = model.config
    return {
        "format_version": CHECKPOINT_VERSION,
        "kind": "reckoner",
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "m": model.m,
        "models": {
            "high": _params_dict(model.high.params),
            "noise": {
                **_params_dict(model.noise.params),
                "eta": model.noise.eta.tolist(),
                "hidden": model.noise.hidden,
            },
        },
        "standardize": {"mean": mean.tolist(), "std": std.tolist()},
        "schema": schema.to_dict(),
        "manifest_sha256": manifest_sha256,
    }


def save_checkpoint(path: str | Path, model: ReckonerModel, schema: Schema,
                    mean: np.ndarray, std: np.ndarray,
                    manifest_sha256: str | None = None) -> None:
    write_json(path, checkpoint_dict(model, schema, mean, std, manifest_sha256))


@dataclass(frozen=True)
class LoadedCheckpoint:
    model: ReckonerModel
    schema: Schema
    mean: np.ndarray
    std: np.ndarray
    manifest_sha256: str | None


def load_checkpoint(path: str | Path) -> LoadedCheckpoint:
    """Read a version 1 or 2 checkpoint; any malformed one is a ConfigError."""
    doc = read_json(path, "checkpoint")
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if type(version) is not int or version not in READABLE_VERSIONS:  # true and 1.0 equal 1
        raise ConfigError(f"unsupported checkpoint version {version!r}")
    try:
        return _from_doc(doc)
    except KeyError as exc:
        raise ConfigError(f"malformed checkpoint {path}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed checkpoint {path}: {exc}") from exc


def _from_doc(doc: dict) -> LoadedCheckpoint:
    cfg = TrainConfig.from_dict(doc["config"])
    m = _count(doc["m"], "m")
    high = FeedForwardClassifier(m, cfg.hidden1, cfg.hidden2,
                                 _params_from_dict(doc["models"]["high"], "models.high"))
    noise_doc = doc["models"]["noise"]
    noise = NoiseWrapper(m, _count(noise_doc["hidden"], "models.noise.hidden"),
                         _numbers(noise_doc["eta"], "models.noise.eta"),
                         _params_from_dict(noise_doc, "models.noise"))
    schema = Schema.from_dict(doc["schema"])
    mean = _numbers(doc["standardize"]["mean"], "standardize.mean")
    std = _numbers(doc["standardize"]["std"], "standardize.std")
    if schema.m != m or mean.shape != (m,) or std.shape != (m,):
        raise ValueError(f"schema or standardization does not match width m={m}")
    # The low classifier is training state and is not stored: like the
    # optimizer moments, it comes back freshly zeroed.
    low = FeedForwardClassifier(m, cfg.hidden1, cfg.hidden2)
    return LoadedCheckpoint(
        model=ReckonerModel(high, low, noise, cfg),
        schema=schema,
        mean=mean,
        std=std,
        manifest_sha256=doc.get("manifest_sha256"),
    )
