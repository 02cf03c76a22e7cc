"""Two-stage training pipeline.

Identification: fit a logistic-regression identifier on the raw training
set and split it at a confidence threshold; initialize one feedforward
classifier per subset. Refinement: per batch, the low-confidence classifier
takes a few optimizer steps against pseudo-labels from the high-confidence
classifier, its best step is blended back into the high-confidence weights,
the high-confidence classifier (and the noise wrapper, when enabled) takes
a gradient step on ground truth, and the low-confidence classifier rolls
back to its initialization snapshot.

Training always runs a stack of S >= 1 runs whose configs differ only in
``seed`` (see ``ReckonerModel``): each step is one kernel call for all of
them, and each run gets the bits it gets alone. A lone config trains as a
stack of one and gets that stack's run 0, a model without the run axis; the
refinement step serves such a view and a stack alike.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .confidence import split_by_confidence
from .data import Dataset, StandardizedRows
from .errors import ConfigError, DataError, NumericError, ReckonerError
from .metrics import accuracy, fairness_report
from .models import (
    AdamState,
    FeedForwardClassifier,
    LinearClassifier,
    ModelParams,
    NoiseWrapper,
    adam_step,
    bce,
    blend,
    lr_fit,
    predict_labels,
)
from .serial import JsonConfig, sha256_of_obj


@dataclass(frozen=True)
class TrainConfig(JsonConfig):
    """Every knob of the two-stage trainer, serialized with each report."""

    alpha: float = 0.9
    learning_rate: float = 0.001
    total_iterations: int = 2000
    init_fraction: float = 0.10
    pseudo_iters: int = 3
    confidence_threshold: float = 0.6
    batch_size: int = 128
    hidden1: int = 64
    hidden2: int = 32
    noise_hidden: int | None = None
    seed: int = 0
    use_noise: bool = True
    use_pseudo_learning: bool = True
    low_conf_sees_noise: bool = False
    pseudo_label_kind: str = "hard"
    pseudo_cadence: str = "batch"
    identifier_epochs: int = 300
    identifier_lr: float = 0.05

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError("alpha must lie in [0, 1]")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not (0.0 < self.init_fraction < 1.0):
            raise ConfigError("init_fraction must lie in (0, 1)")
        if self.pseudo_iters < 1:
            raise ConfigError("pseudo_iters must be >= 1")
        if not (0.5 < self.confidence_threshold < 1.0):
            raise ConfigError("confidence_threshold must lie in (0.5, 1)")
        for name in ("total_iterations", "batch_size", "hidden1", "hidden2",
                     "identifier_epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive count")
        if self.noise_hidden is not None and self.noise_hidden < 1:
            raise ConfigError("noise_hidden must be a positive count")
        if self.pseudo_label_kind not in ("hard", "soft"):
            raise ConfigError("pseudo_label_kind must be 'hard' or 'soft'")
        if self.pseudo_cadence not in ("batch", "epoch"):
            raise ConfigError("pseudo_cadence must be 'batch' or 'epoch'")
        if self.identifier_lr <= 0:
            raise ConfigError("identifier_lr must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    @property
    def init_steps(self) -> int:
        return int(self.init_fraction * self.total_iterations)

    def config_hash(self) -> str:
        return sha256_of_obj(self.to_dict())

    def lockstep_key(self) -> "TrainConfig":
        """This config with its seed cleared: runs whose configs share a key
        can train in lockstep."""
        return dataclasses.replace(self, seed=0)


def _run_configs(cfg: TrainConfig | Sequence[TrainConfig]) -> list[TrainConfig]:
    """The configs of the runs ``cfg`` asks for: one, or a nonempty sequence
    that differ only in ``seed``."""
    if isinstance(cfg, TrainConfig):
        return [cfg]
    configs = list(cfg)
    if not configs or len({c.lockstep_key() for c in configs}) != 1:
        raise ValueError("runs trained together need configs that differ only in seed")
    return configs


def _seeds(configs: list[TrainConfig], role: int) -> list[int]:
    """The runs' seeds for one seed role, one per run of the stack."""
    return [c.seed + role for c in configs]


@dataclass(frozen=True)
class PseudoLearnState:
    """Outcome of one pseudo-learning cycle of the low-confidence classifier;
    its best step's parameters are in the model's ``best_low``. ``k`` holds
    each run's best step and each loss each run's, with the model's leading
    run shape: scalars for a lone run, (S,) arrays for a stack."""

    k: np.ndarray
    losses: tuple[np.ndarray, ...]


# Deterministic sub-seed roles derived from TrainConfig.seed. The ERM
# baseline reuses the same offsets so that the flag-disabled pipeline and
# the plain trainer consume identical random streams.
_SEED_HIGH_INIT = 1
_SEED_LOW_INIT = 2
_SEED_NOISE = 3
_SEED_STREAM_HIGH = 4
_SEED_STREAM_LOW = 5
_SEED_STREAM_REFINE = 6

# Rows per scoring chunk in ``predict``: a multiple of every matmul row
# block. At m = 130 and the default 64/32 hidden units, a chunk's input
# rows take 1.0 MB and its activations and sigmoid scratch 1.6 MB, so each
# layer's product reads and writes less than a 2 MB per-core L2 cache
# holds; 8,192-row chunks (21 MB) spilled out of it. A tail shorter than
# half a chunk joins the chunk before it, so every chunk of a multi-chunk
# call has at least 512 rows: far above the row counts at which OpenBLAS
# takes its matrix-vector (gemv) path or its tiny-matrix paths, whose rows
# get other bits than those of a large product.
PREDICT_CHUNK_ROWS = 1024


class ServingModel:
    """What ``predict`` reads: the config, the high-confidence classifier,
    the perturbation its input takes (``None`` with the noise off) and an
    input buffer that grows to the most rows asked of it.

    A checkpoint loads as one. ``ReckonerModel.serving`` gives a training
    run's, on the run's own input buffer and its high classifier, score
    buffers included.
    """

    def __init__(self, config: TrainConfig, high: FeedForwardClassifier,
                 perturbation: np.ndarray | None,
                 inputs: list[np.ndarray] | None = None):
        self.config = config
        self.high = high
        self.perturbation = perturbation
        self._inputs = inputs if inputs is not None else [np.empty((0, high.m))]

    @property
    def m(self) -> int:
        return self.high.m

    def serving(self) -> "ServingModel":
        return self

    def input_rows(self, n: int) -> np.ndarray:
        """The first ``n`` rows of the input buffer."""
        if self._inputs[0].shape[0] < n:
            self._inputs[0] = np.empty((n, self.m))
        return self._inputs[0][:n]


class ReckonerModel:
    """Dual classifiers plus noise wrapper and their optimizer states.

    Prediction reads only ``serving()``: the high-confidence classifier and
    the noise's perturbation. The low classifier rolls back to
    ``low_snapshot``, taken here from its current weights and refilled in
    place by ``initialize`` once its init phases are done.
    ``best_low`` holds the best step of the last pseudo-learning cycle.
    ``identifier`` is the identification fit; checkpoints do not store it.

    ``train`` and ``initialize`` build a stack of S >= 1 runs whose configs
    differ only in ``seed``, which nothing reads after initialization: every
    parameter vector, Adam moment and buffer has a leading run axis, inputs
    are (S, n, m) and labels (S, n), and ``config`` is the first run's.
    ``run(i, config)`` is run i as a model of its own, without the run axis,
    on views of its rows, for ``serving``, checkpoints and history; a lone
    config's model is run 0 of a stack of one.
    """

    def __init__(self, high: FeedForwardClassifier, low: FeedForwardClassifier,
                 noise: NoiseWrapper, config: TrainConfig):
        self.high = high
        self.low = low
        self.noise = noise
        self.config = config
        self.low_snapshot = low.params.snapshot()
        self.best_low = ModelParams(low.params.layout, np.zeros_like(low.params.values))
        lr = config.learning_rate
        self.high_state = AdamState.zeros(high.params.values.shape, lr=lr)
        self.low_state = AdamState.zeros(low.params.values.shape, lr=lr)
        self.noise_state = AdamState.zeros(noise.params.values.shape, lr=lr)
        self.history: list[dict] = []
        self.identifier: LinearClassifier | None = None
        self._inputs = [np.empty((0, high.m))]  # serving()'s, shared with a stack's runs

    def run(self, i: int, config: TrainConfig) -> "ReckonerModel":
        """Run ``i`` of a stack, with its ``config`` and a history of its
        own: a shallow copy whose classifiers, snapshot, ``best_low`` and
        Adam states are views of the stack's row i. Its Adam states are at
        the stack's step count as of this call. The runs share the stack's
        identifier and scoring buffers: score one at a time."""
        run = copy.copy(self)
        run.config, run.history = config, []
        for name in ("high", "low", "noise", "low_snapshot", "best_low",
                     "high_state", "low_state", "noise_state"):
            setattr(run, name, getattr(self, name).run(i))
        return run

    @property
    def m(self) -> int:
        return self.high.m

    def serving(self) -> ServingModel:
        """This run as ``predict`` reads it: its high classifier and input
        buffer, not copies, and the perturbation at the wrapper's current
        parameters when the noise is on."""
        pert = self.noise.perturbation() if self.config.use_noise else None
        return ServingModel(self.config, self.high, pert, self._inputs)


class _Batches:
    """Seeded mini-batches of ``d``'s ``rows`` for S runs at once: (S, b, m)
    rows and (S, b) float labels, the rows filled into one buffer by one
    ``d.fill``, from a matrix or from coded rows alike. The runs share the
    row count and so every epoch boundary, so one cursor serves them all:
    each epoch stacks one permutation of ``rows`` per seed and yields its
    consecutive column slices (the last may be short). Callers pass
    ``batch_size <= rows.size``."""

    def __init__(self, d: Dataset | StandardizedRows, rows: np.ndarray, batch_size: int,
                 seeds: list[int]):
        if rows.size < 1:
            raise DataError("cannot stream batches from an empty dataset")
        self.rows, self.batch_size = rows, batch_size
        self.rngs = [np.random.default_rng(s) for s in seeds]
        self.d, self.y = d, d.y.astype(np.float64)
        self._x = np.empty((len(seeds) * batch_size, d.m))
        self._y = np.empty(len(seeds) * batch_size)
        self._start = rows.size

    def __next__(self) -> tuple[np.ndarray, np.ndarray]:
        if self._start >= self.rows.size:
            self._perms = np.array([rng.permutation(self.rows) for rng in self.rngs])
            self._start = 0
        idx = self._perms[:, self._start:self._start + self.batch_size]
        self._start += self.batch_size
        s, b = idx.shape
        x = self.d.fill(idx.reshape(-1), self._x[:s * b]).reshape(s, b, -1)
        y = self.y.take(idx, out=self._y[:s * b].reshape(s, b), mode="clip")
        return x, y


def _init_phase(model: FeedForwardClassifier, state: AdamState,
                d: Dataset | StandardizedRows, rows: np.ndarray, steps: int,
                batch_size: int, stream_seeds: list[int]) -> None:
    """Plain supervised Adam training on raw inputs, each run of a stack in
    lockstep on its own seeded batches of ``d``'s ``rows``."""
    batches = _Batches(d, rows, min(batch_size, rows.size), stream_seeds)
    for _ in range(steps):
        x, y = next(batches)
        grad, _ = model.backward(x, y)
        adam_step(model.params, grad, state)


def identify(train: Dataset, cfg: TrainConfig) -> LinearClassifier:
    """The identifier fit. It has no seed: runs on the same ``train`` with the
    same ``identifier_epochs`` and ``identifier_lr`` may share it."""
    return lr_fit(train, epochs=cfg.identifier_epochs, learning_rate=cfg.identifier_lr)


def initialize(train: Dataset | StandardizedRows,
               cfg: TrainConfig | Sequence[TrainConfig], *,
               identifier: LinearClassifier | None = None) -> ReckonerModel:
    """Identification stage plus per-subset initialization of both classifiers.

    ``identifier`` is ``identify(train, cfg)`` when given; it is fitted here
    when not.

    ``train`` may be coded rows. The identifier fit and the confidence
    split read its whole matrix, which is built here from the rows and
    dropped before the init phases, which read mini-batches filled from
    them: the bits of the fit's full-batch products ``x.T @ r`` depend on
    the matrix being one operand.

    A sequence of configs that differ only in ``seed`` gives one model
    holding their stack of runs, initialized in lockstep on the same
    subsets. A lone config is initialized as a stack of one, and its model
    is that stack's run 0.
    """
    lone = isinstance(cfg, TrainConfig)
    configs = _run_configs(cfg)
    cfg = configs[0]
    if train.n == 0:
        raise DataError("training set is empty")
    m = train.m
    matrix = train if isinstance(train, Dataset) else train.dataset(slice(None))
    if identifier is None:
        identifier = identify(matrix, cfg)
    split = split_by_confidence(matrix, identifier, cfg.confidence_threshold)
    del matrix
    if split.high.size == 0 or split.low.size == 0:
        which = "high" if split.high.size == 0 else "low"
        raise DataError(
            f"confidence split left the {which}-confidence subset empty at "
            f"threshold {cfg.confidence_threshold}; lower the threshold or "
            f"inspect the identifier fit"
        )

    high = FeedForwardClassifier.initialized(m, cfg.hidden1, cfg.hidden2,
                                             _seeds(configs, _SEED_HIGH_INIT))
    low = FeedForwardClassifier.initialized(m, cfg.hidden1, cfg.hidden2,
                                            _seeds(configs, _SEED_LOW_INIT))
    noise_hidden = cfg.noise_hidden if cfg.noise_hidden is not None else m
    noise = NoiseWrapper.initialized(m, noise_hidden, _seeds(configs, _SEED_NOISE))

    model = ReckonerModel(high, low, noise, cfg)
    model.identifier = identifier
    steps = cfg.init_steps
    _init_phase(high, model.high_state, train, split.high, steps, cfg.batch_size,
                _seeds(configs, _SEED_STREAM_HIGH))
    _init_phase(low, model.low_state, train, split.low, steps, cfg.batch_size,
                _seeds(configs, _SEED_STREAM_LOW))
    # Pseudo-learning cycles start from this exact state: snapshot the
    # initialized low classifier and zero its optimizer.
    model.low_snapshot.restore(low.params)
    model.low_state.reset()
    return model.run(0, cfg) if lone else model


def pseudo_learning_cycle(model: ReckonerModel, x: np.ndarray,
                          x_high: np.ndarray) -> PseudoLearnState:
    """Train the low-confidence classifier on high-confidence pseudo-labels.

    ``x_high`` is the high classifier's input: ``x`` plus the noise when it
    is on. Ground-truth labels are not an input. The cycle assumes the low
    classifier sits at its snapshot (the rollback invariant) and leaves it
    at the final step's parameters, and the best step's in
    ``model.best_low``; the caller rolls it back.

    The loss after step k is read from the forward pass of step k+1's
    gradient, which runs at the same parameters on the same input, so only
    the last step needs a forward pass of its own.
    """
    cfg = model.config
    x = np.asarray(x, dtype=np.float64)
    p_high = model.high.score(x_high)
    if cfg.pseudo_label_kind == "hard":
        y_tilde = predict_labels(p_high).astype(np.float64)
    else:
        y_tilde = np.asarray(p_high, dtype=np.float64)
    x_low = x_high if cfg.low_conf_sees_noise else x
    losses: list[np.ndarray] = []
    best_loss, best_k = np.inf, 1  # each run's, as is better
    grad, _ = model.low.backward(x_low, y_tilde)
    for step in range(1, cfg.pseudo_iters + 1):
        adam_step(model.low.params, grad, model.low_state)
        if step < cfg.pseudo_iters:
            grad, prob = model.low.backward(x_low, y_tilde)
        else:
            prob = model.low.score(x_low)
        loss = bce(prob, y_tilde)
        if not np.isfinite(loss).all():
            raise NumericError("non-finite pseudo-learning loss")
        losses.append(loss)
        better = loss < best_loss
        best_loss = np.minimum(loss, best_loss)
        best_k = np.where(better, step, best_k)
        np.copyto(model.best_low.values, model.low.params.values, where=better[..., None])
    return PseudoLearnState(k=best_k, losses=tuple(losses))


def refinement_step(model: ReckonerModel, x: np.ndarray, y: np.ndarray,
                    run_pseudo: bool | None = None) -> dict:
    """One refinement iteration on a batch.

    Order: pseudo-learning and knowledge sharing form the temporary weights,
    the high classifier (and noise wrapper) take one Adam step on ground
    truth from there, then the low classifier rolls back to its snapshot
    with a fresh optimizer. The noisy input is computed once: the blend
    changes only the high classifier, so it is the same before and after.
    """
    cfg = model.config
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size == 0:
        raise DataError("empty batch")
    if run_pseudo is None:
        run_pseudo = cfg.use_pseudo_learning
    x_high = model.noise.apply(x) if cfg.use_noise else x
    log: dict = {}
    if run_pseudo:
        state = pseudo_learning_cycle(model, x, x_high)
        blend(model.high.params, model.best_low, cfg.alpha, out=model.high.params)
        log["k"] = state.k

    if cfg.use_noise:
        grad_high, prob, d_input = model.high.backward(x_high, y, return_input_grad=True)
    else:
        grad_high, prob = model.high.backward(x_high, y)
    loss = bce(prob, y)
    if not np.isfinite(loss).all():
        raise NumericError("non-finite refinement loss")
    adam_step(model.high.params, grad_high, model.high_state)
    if cfg.use_noise:
        # The wrapper's parameters have not changed since its apply above.
        adam_step(model.noise.params, model.noise.backward(d_input), model.noise_state)

    if run_pseudo:
        model.low.params.restore(model.low_snapshot)
        model.low_state.reset()
    log["loss"] = loss
    return log


def _validation_entry(model: ReckonerModel, valid: Dataset | StandardizedRows) -> dict:
    preds, _ = predict(model, valid.x if isinstance(valid, Dataset) else valid)
    try:
        report = fairness_report(preds, valid.y, valid.s)
    except ReckonerError:
        return {"valid_accuracy": accuracy(preds, valid.y),
                "valid_dp": None, "valid_eodds": None}
    return {"valid_accuracy": report.accuracy,
            "valid_dp": report.dp, "valid_eodds": report.eodds}


def train(train_set: Dataset | StandardizedRows, valid: Dataset | StandardizedRows,
          cfg: TrainConfig | Sequence[TrainConfig], *,
          identifier: LinearClassifier | None = None) -> ReckonerModel | list[ReckonerModel]:
    """Full pipeline: initialize, then refine over seeded mini-batches.

    Validation metrics are logged per epoch; the final model is the last
    state (no early stopping). Either set may be coded rows, which fill
    batches and score bit-equal to their matrix: ``train_set``'s whole
    matrix lives only through ``initialize``'s identifier fit, and
    ``valid`` is only scored, by ``predict``.

    A sequence of configs that differ only in ``seed`` gives a list of each
    run's model, trained in lockstep as one stack; each has the bits a
    ``train`` of its config alone gives. A lone config trains as a stack of
    one and gives that stack's run 0.
    """
    configs = _run_configs(cfg)
    listed = not isinstance(cfg, TrainConfig)
    if train_set.n == 0 or valid.y.size == 0:
        raise DataError("train and valid sets must be nonempty")
    model = initialize(train_set, configs, identifier=identifier)
    runs = [model.run(i, c) for i, c in enumerate(configs)]
    cfg = configs[0]
    refine_steps = cfg.total_iterations - cfg.init_steps
    batch_size = min(cfg.batch_size, train_set.n)
    batches = _Batches(train_set, np.arange(train_set.n), batch_size,
                       _seeds(configs, _SEED_STREAM_REFINE))
    epoch_len = math.ceil(train_set.n / batch_size)
    epoch_losses: list[list[float]] = [[] for _ in runs]
    k_counts: list[dict[int, int]] = [{} for _ in runs]
    for step in range(refine_steps):
        x, y = next(batches)
        first_of_epoch = step % epoch_len == 0
        run_pseudo = cfg.use_pseudo_learning and (
            cfg.pseudo_cadence == "batch" or first_of_epoch
        )
        log = refinement_step(model, x, y, run_pseudo=run_pseudo)
        for losses, loss in zip(epoch_losses, np.atleast_1d(log["loss"]).tolist()):
            losses.append(loss)
        if "k" in log:
            for counts, k in zip(k_counts, np.atleast_1d(log["k"]).tolist()):
                counts[k] = counts.get(k, 0) + 1
        if (step + 1) % epoch_len == 0 or step + 1 == refine_steps:
            for run, losses, counts in zip(runs, epoch_losses, k_counts):
                entry = {"epoch": len(run.history),
                         "train_loss": float(np.mean(losses)),
                         "k_histogram": {str(k): v for k, v in sorted(counts.items())}}
                entry.update(_validation_entry(run, valid))
                run.history.append(entry)
            epoch_losses, k_counts = [[] for _ in runs], [{} for _ in runs]
    for run in runs:  # the views took the stack's step counts at their making
        run.high_state.t, run.noise_state.t = model.high_state.t, model.noise_state.t
        run.low_state.t = model.low_state.t
    return runs if listed else runs[0]


def _chunk_bounds(n: int) -> list[tuple[int, int]]:
    """``predict``'s chunks of ``n`` rows, as (start, end) pairs."""
    starts = list(range(0, n, PREDICT_CHUNK_ROWS))
    if len(starts) > 1 and n - starts[-1] < PREDICT_CHUNK_ROWS // 2:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def predict(model: ReckonerModel | ServingModel,
            x: np.ndarray | StandardizedRows) -> tuple[np.ndarray, np.ndarray]:
    """High-confidence classifier scores and labels; ties at 0.5 go to 1.

    ``model`` is read through its ``serving()`` view: a training run's
    shares the run's buffers, and a loaded checkpoint is one already.

    Rows are scored in chunks of ``PREDICT_CHUNK_ROWS`` so that the noisy
    input rows and the activations stay a chunk's size: at m = 130, about
    1.0 MB of input and 1.6 MB of activations for a 1,024-row chunk. With
    one BLAS thread the scores are bit-equal to scoring ``x`` whole:
    OpenBLAS gives a row the same bits in a chunk that starts at a
    multiple of its row block, but not in a tiny chunk (1-row chunks take
    the matrix-vector path, and 7-row chunks differ too), so a tail
    shorter than half a chunk joins the chunk before it, and no chunk of
    a multi-chunk call has fewer than 512 rows. Every chunk is scored in
    the model's own buffers: the noisy input in ``model.input_rows`` and
    the activations in the high classifier's. The largest chunk goes
    first, so the buffers grow at most once per call.

    With the noise on, each cell takes the perturbation in one add, as
    ``NoiseWrapper.apply`` adds it. ``StandardizedRows`` build each
    chunk's rows in the input buffer, so their matrix never exists whole;
    the perturbation is added to the zero row and to each code's value
    once, and to numeric cells as they are built. Array rows are added to
    it into the input buffer; with the noise off they are scored as they
    are.
    """
    model = model.serving()
    pert = model.perturbation
    coded = isinstance(x, StandardizedRows)
    if not coded:
        x = np.asarray(x, dtype=np.float64)
    if len(x.shape) != 2 or x.shape[1] != model.m:
        raise DataError(f"expected rows of width {model.m}, got shape {x.shape}")
    n = x.shape[0]
    scores = np.empty(n, dtype=np.float64)
    if coded and pert is not None:
        x = x.shifted(pert)
    for lo, hi in sorted(_chunk_bounds(n), key=lambda bounds: bounds[0] - bounds[1]):
        if coded:
            rows = x.fill(slice(lo, hi), model.input_rows(hi - lo))
        elif pert is not None:
            rows = np.add(x[lo:hi], pert, out=model.input_rows(hi - lo))
        else:
            rows = x[lo:hi]
        scores[lo:hi] = model.high.score(rows)
    return predict_labels(scores), scores


def erm_baseline(train_set: Dataset, cfg: TrainConfig) -> FeedForwardClassifier:
    """Plain supervised trainer: same architecture, budget, and seed streams.

    Matches the pipeline with noise and pseudo-learning disabled and the
    initialization phase run on the full training set. It trains a stack of
    one, as ``train`` does a lone config, and returns its run 0.
    """
    if train_set.n == 0:
        raise DataError("training set is empty")
    model = FeedForwardClassifier.initialized(
        train_set.m, cfg.hidden1, cfg.hidden2, _seeds([cfg], _SEED_HIGH_INIT)
    )
    state = AdamState.zeros(model.params.values.shape, lr=cfg.learning_rate)
    rows = np.arange(train_set.n)
    _init_phase(model, state, train_set, rows, cfg.init_steps, cfg.batch_size,
                _seeds([cfg], _SEED_STREAM_HIGH))
    _init_phase(model, state, train_set, rows, cfg.total_iterations - cfg.init_steps,
                cfg.batch_size, _seeds([cfg], _SEED_STREAM_REFINE))
    return model.run(0)
