import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import high_steps, init_high_on_all_rows, make_separable
from reckoner import models, pipeline
from reckoner.data import (
    ColumnSpec,
    Schema,
    SplitSpec,
    StandardizedRows,
    SynthConfig,
    apply_standardization,
    code_csv,
    load_csv,
    split_dataset,
    standardize,
    synth_biased,
)
from reckoner.errors import ConfigError, DataError, NumericError
from reckoner.models import (
    AdamState,
    FeedForwardClassifier,
    LinearClassifier,
    ModelParams,
    NoiseWrapper,
    adam_step,
    bce,
    blend,
    predict_labels,
)
from reckoner.pipeline import (
    PseudoLearnState,
    ReckonerModel,
    TrainConfig,
    erm_baseline,
    initialize,
    predict,
    pseudo_learning_cycle,
    refinement_step,
    train,
)

FAST = dict(total_iterations=100, batch_size=32, identifier_epochs=50,
            hidden1=8, hidden2=4, learning_rate=0.01)


def cycle(model, x):
    """One pseudo-learning cycle on ``x`` at the model's current noisy input."""
    return pseudo_learning_cycle(model, x, model.high_input(x))


def small_sets(seed=0, n=300):
    d = make_separable(n=n, seed=seed)
    tr, va, te = split_dataset(d, SplitSpec(0.6, 0.2, 0.2, seed=seed))
    (tr, va, te), _, _ = standardize(tr, [va, te])
    return tr, va, te


class TestTrainConfig:
    def test_defaults_match_contract(self):
        cfg = TrainConfig()
        assert cfg.alpha == 0.9
        assert cfg.init_fraction == 0.10
        assert cfg.pseudo_iters == 3
        assert cfg.confidence_threshold == 0.6
        assert cfg.pseudo_label_kind == "hard"
        assert cfg.low_conf_sees_noise is False

    def test_init_steps_is_ten_percent(self):
        cfg = TrainConfig(total_iterations=1000)
        assert cfg.init_steps == 100

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(alpha=1.5)
        with pytest.raises(ConfigError):
            TrainConfig(init_fraction=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(pseudo_iters=0)
        with pytest.raises(ConfigError):
            TrainConfig(confidence_threshold=0.4)
        with pytest.raises(ConfigError):
            TrainConfig(pseudo_label_kind="fuzzy")

    def test_dict_roundtrip_and_hash_stability(self):
        cfg = TrainConfig(alpha=0.8, seed=5)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"alpha": 0.5, "turbo": True})


class TestInitialize:
    def test_budget_split(self):
        tr, va, _ = small_sets()
        cfg = TrainConfig(seed=1, **FAST)
        model = initialize(tr, cfg)
        assert model.high_state.t == cfg.init_steps == 10

    def test_threshold_half_aborts_with_empty_low(self):
        """Every confidence is at least 0.5, so a threshold of 0.5 would
        leave the low subset empty: the config itself is rejected."""
        with pytest.raises(ConfigError, match=r"must lie in \(0.5, 1\)"):
            TrainConfig(seed=1, confidence_threshold=0.5, **FAST)

    def test_deterministic(self):
        tr, _, _ = small_sets()
        cfg = TrainConfig(seed=3, **FAST)
        a = initialize(tr, cfg)
        b = initialize(tr, cfg)
        np.testing.assert_array_equal(a.high.params.values, b.high.params.values)
        np.testing.assert_array_equal(a.low.params.values, b.low.params.values)
        np.testing.assert_array_equal(a.noise.params.values, b.noise.params.values)

    def test_low_snapshot_taken_after_init_training(self):
        tr, _, _ = small_sets()
        model = initialize(tr, TrainConfig(seed=4, **FAST))
        np.testing.assert_array_equal(model.low.params.values,
                                      model.low_snapshot.values)
        assert model.low_state.t == 0


class TestPseudoLearningCycle:
    def test_never_sees_ground_truth(self):
        params = inspect.signature(pseudo_learning_cycle).parameters
        assert list(params) == ["model", "x", "x_high"]

    def test_k_in_range(self):
        tr, _, _ = small_sets()
        cfg = TrainConfig(seed=5, **FAST)
        model = initialize(tr, cfg)
        state = cycle(model, tr.x[:32])
        assert 1 <= state.k <= cfg.pseudo_iters
        assert len(state.losses) == cfg.pseudo_iters
        # cleanup contract: caller rolls back
        model.low.params.restore(model.low_snapshot)
        model.low_state.reset()

    def test_convex_stand_in_takes_last_step(self):
        # A linear low classifier makes the pseudo loss convex, so three
        # small optimizer steps decrease it monotonically and k = 3.
        tr, _, _ = small_sets(seed=2)
        cfg = TrainConfig(seed=6, learning_rate=0.001, **{k: v for k, v in FAST.items()
                                                          if k != "learning_rate"})
        model = initialize(tr, cfg)
        model.low = LinearClassifier(tr.m)
        model.low_state = AdamState.zeros(model.low.params.layout.size,
                                          lr=cfg.learning_rate)
        model.low_snapshot = model.low.params.snapshot()
        model.best_low = ModelParams(model.low.params.layout)
        state = cycle(model, tr.x[:64])
        assert state.losses[0] > state.losses[1] > state.losses[2]
        assert state.k == 3

    def test_small_learning_rate_bounds_movement(self):
        tr, _, _ = small_sets(seed=3)
        base = {k: v for k, v in FAST.items() if k != "learning_rate"}
        moves = []
        for lr in (1e-3, 1e-5):
            cfg = TrainConfig(seed=7, learning_rate=lr, **base)
            model = initialize(tr, cfg)
            before = model.low.params.values.copy()
            cycle(model, tr.x[:32])
            move = np.abs(model.low.params.values - before).max()
            # Adam per-step displacement is O(learning rate).
            assert move <= 10 * cfg.pseudo_iters * lr
            moves.append(move)
        assert moves[1] < moves[0]


class TestRefinementStep:
    def test_rollback_restores_low_exactly(self):
        tr, _, _ = small_sets(seed=4)
        cfg = TrainConfig(seed=9, **FAST)
        model = initialize(tr, cfg)
        snap = model.low_snapshot.values.copy()
        rng = np.random.default_rng(0)
        for _ in range(10):
            idx = rng.integers(0, tr.n, 32)
            refinement_step(model, tr.x[idx], tr.y[idx])
            np.testing.assert_array_equal(model.low.params.values, snap)
            assert model.low_state.t == 0
            assert np.all(model.low_state.m == 0.0)

    def test_counts_high_steps(self):
        tr, _, _ = small_sets(seed=5)
        cfg = TrainConfig(seed=10, **FAST)
        model = initialize(tr, cfg)
        before = model.high_state.t
        refinement_step(model, tr.x[:16], tr.y[:16])
        assert model.high_state.t == before + 1

    def test_empty_batch_rejected(self):
        tr, _, _ = small_sets(seed=5)
        model = initialize(tr, TrainConfig(seed=10, **FAST))
        with pytest.raises(DataError):
            refinement_step(model, tr.x[:0], tr.y[:0])


class TestTrain:
    def test_budget_accounting(self):
        tr, va, _ = small_sets(seed=6)
        cfg = TrainConfig(seed=11, **FAST)
        model = train(tr, va, cfg)
        assert model.high_state.t == cfg.total_iterations

    def test_separable_accuracy(self):
        tr, va, te = small_sets(seed=7, n=500)
        cfg = TrainConfig(seed=12, total_iterations=400, batch_size=64,
                          identifier_epochs=50, learning_rate=0.01)
        model = train(tr, va, cfg)
        preds, _ = predict(model, te.x)
        assert (preds == te.y).mean() >= 0.95

    def test_history_entries_have_contract_keys(self):
        tr, va, _ = small_sets(seed=8)
        model = train(tr, va, TrainConfig(seed=13, **FAST))
        assert model.history
        for entry in model.history:
            for key in ("epoch", "train_loss", "valid_accuracy", "valid_dp",
                        "valid_eodds", "k_histogram"):
                assert key in entry

    def test_full_determinism(self):
        tr, va, _ = small_sets(seed=9)
        cfg = TrainConfig(seed=14, **FAST)
        a = train(tr, va, cfg)
        b = train(tr, va, cfg)
        np.testing.assert_array_equal(a.high.params.values, b.high.params.values)
        np.testing.assert_array_equal(a.noise.params.values, b.noise.params.values)
        assert a.history == b.history


class TestLoneRun:
    def test_lone_config_is_run_zero_of_a_stack_of_one(self):
        """A lone config's models hold 1-D vectors, score one row as a
        float and give scalar pseudo-learning results, and ``train`` gives
        the bits of its config trained as a one-run list."""
        tr, va, _ = small_sets(seed=23)
        cfg = TrainConfig(seed=27, **FAST)
        model, erm = initialize(tr, cfg), erm_baseline(tr, cfg)
        for params in (model.high.params, model.low.params, model.noise.params,
                       model.low_snapshot, model.best_low, erm.params):
            assert params.values.shape == (params.layout.size,)
        assert type(model.high.score(tr.x[0])) is float
        assert type(erm.score(tr.x[0])) is float
        state = cycle(model, tr.x[:32])
        assert np.ndim(state.k) == 0 and np.issubdtype(np.asarray(state.k).dtype, np.integer)
        assert 1 <= state.k <= cfg.pseudo_iters
        assert len(state.losses) == cfg.pseudo_iters
        assert all(np.ndim(loss) == 0 for loss in state.losses)

        lone, (listed,) = train(tr, va, cfg), train(tr, va, [cfg])
        for name in ("high", "low", "noise"):
            a, b = getattr(lone, name), getattr(listed, name)
            assert a.params.values.tobytes() == b.params.values.tobytes(), name
            sa, sb = getattr(lone, f"{name}_state"), getattr(listed, f"{name}_state")
            assert sa.m.tobytes() == sb.m.tobytes() and sa.v.tobytes() == sb.v.tobytes()
            assert type(sa.t) is int and sa.t == sb.t, name
        assert lone.low_snapshot.values.tobytes() == listed.low_snapshot.values.tobytes()
        assert lone.best_low.values.tobytes() == listed.best_low.values.tobytes()
        assert lone.history == listed.history


class TestPredict:
    def test_tie_goes_positive_with_zero_weights(self):
        tr, va, _ = small_sets(seed=10)
        cfg = TrainConfig(seed=15, use_noise=False, **FAST)
        model = initialize(tr, cfg)
        model.high.params.values[:] = 0.0
        preds, scores = predict(model, tr.x[:5])
        assert np.all(scores == 0.5)
        assert np.all(preds == 1)

    def test_deterministic_given_model(self):
        tr, va, _ = small_sets(seed=11)
        model = train(tr, va, TrainConfig(seed=16, **FAST))
        p1, s1 = predict(model, va.x)
        p2, s2 = predict(model, va.x)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(s1, s2)

    def test_validation_scores_in_buffers_kept_across_epochs(self, monkeypatch):
        """A whole ``train`` whose epochs end in a short batch allocates
        each classifier's buffers for its batch size once: the backward set
        of each classifier, the low one's score set, and the high one's
        score set, which grows once more for the validation rows. Short
        batches and later epochs use views of these."""
        tr, va, _ = small_sets(seed=11)
        # Both confidence subsets hold at least one batch.
        cfg = TrainConfig(seed=16, **{**FAST, "batch_size": 16})
        assert tr.n % cfg.batch_size and va.n > cfg.batch_size
        sizes = []
        init = models._Batch.__init__

        def counted(self, n, *args, **kwargs):
            sizes.append(n)
            init(self, n, *args, **kwargs)

        monkeypatch.setattr(models._Batch, "__init__", counted)
        model = train(tr, va, cfg)
        assert len(model.history) > 1
        assert sorted(sizes) == [cfg.batch_size] * 4 + [va.n]

    def test_dimension_mismatch(self):
        tr, va, _ = small_sets(seed=11)
        model = initialize(tr, TrainConfig(seed=16, **FAST))
        with pytest.raises(DataError):
            predict(model, np.zeros((3, tr.m + 1)))

    def test_chunked_scores_are_bit_equal_to_whole_matrix(self):
        """Chunked ``predict`` against one product over all rows, around the
        chunk size, with a short tail, and at audit scale (m = 130), in
        a fresh model and in one model reused across all sizes, ascending
        and descending, whose buffers hold more rows than a chunk. Run with
        one BLAS thread, as the CLI tests and the benchmark run: a threaded
        matrix-vector product splits rows where the row count says, so the
        whole-matrix bits themselves then depend on the thread count."""
        chunk = pipeline.PREDICT_CHUNK_ROWS
        sizes = [1, chunk - 1, chunk, chunk + 1, 2 * chunk + 7, 100_000]
        script = f"""
import numpy as np
from reckoner.models import FeedForwardClassifier, NoiseWrapper, predict_labels
from reckoner.pipeline import ReckonerModel, TrainConfig, predict
def fresh(m, use_noise):
    return ReckonerModel(FeedForwardClassifier.initialized(m, 64, 32, 1),
                         FeedForwardClassifier(m, 64, 32),
                         NoiseWrapper.initialized(m, 16, 3),
                         TrainConfig(use_noise=use_noise))
for m, use_noise in ((6, False), (130, True)):
    x = np.random.default_rng(m).standard_normal(({max(sizes)}, m))
    wholes = {{}}
    for n in {sizes}:
        model = fresh(m, use_noise)
        wholes[n] = model.high.score(model.high_input(x[:n]))
    reused = fresh(m, use_noise)
    for n in {sizes} + {sizes}[::-1]:
        for model in (fresh(m, use_noise), reused):
            labels, scores = predict(model, x[:n])
            assert scores.tobytes() == wholes[n].tobytes(), (m, n)
            assert np.array_equal(labels, predict_labels(wholes[n])), (m, n)
print("ok")
"""
        env = dict(os.environ, PYTHONPATH=str(Path(pipeline.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


    @pytest.mark.parametrize("n", [43, 45])
    def test_coded_rows_score_like_their_matrix(self, tmp_path, monkeypatch, n):
        """Rows built a chunk at a time from a coded table score as the
        standardized matrix does, with the short tail folded (43 rows in
        chunks of 8) or kept (45)."""
        monkeypatch.setattr(pipeline, "PREDICT_CHUNK_ROWS", 8)
        schema = Schema(columns=(ColumnSpec("c", "categorical"), ColumnSpec("v", "numeric"),
                                 ColumnSpec("y", "label"), ColumnSpec("s", "sensitive")),
                        hash_buckets=8)
        rng = np.random.default_rng(n)
        path = tmp_path / "d.csv"
        path.write_text("c,v,y,s\n" + "".join(
            f"k{rng.integers(5)},{rng.standard_normal()!r},{i % 2},g{i % 3}\n"
            for i in range(n)))
        table = code_csv(path, schema)
        mean, std = rng.standard_normal(schema.m), rng.uniform(0.5, 2.0, schema.m)
        model = ReckonerModel(FeedForwardClassifier.initialized(schema.m, 16, 8, 1),
                              FeedForwardClassifier(schema.m, 16, 8),
                              NoiseWrapper.initialized(schema.m, 4, 2), TrainConfig())
        matrix = apply_standardization(load_csv(path, schema), mean, std).x
        labels, scores = predict(model, StandardizedRows(table, mean, std))
        want_labels, want = predict(model, matrix)
        assert scores.tobytes() == want.tobytes()
        assert np.array_equal(labels, want_labels)


class TestAblationDegeneracy:
    def test_flags_off_matches_erm_trajectory(self, monkeypatch):
        tr, va, _ = small_sets(seed=12)
        cfg = TrainConfig(seed=17, use_noise=False, use_pseudo_learning=False, **FAST)
        init_high_on_all_rows(monkeypatch)
        with high_steps() as reck_steps:
            train(tr, va, cfg)
        with high_steps() as erm_steps:
            erm_baseline(tr, cfg)
        assert len(reck_steps) == len(erm_steps) == cfg.total_iterations
        for a, b in zip(reck_steps, erm_steps):
            np.testing.assert_array_equal(a, b)

    def test_alpha_one_matches_no_pseudo_trajectory(self):
        tr, va, _ = small_sets(seed=13)
        base = dict(seed=18, use_noise=False, **FAST)
        with_pseudo = TrainConfig(alpha=1.0, use_pseudo_learning=True, **base)
        without = TrainConfig(use_pseudo_learning=False, **base)
        with high_steps() as a_steps:
            train(tr, va, with_pseudo)
        with high_steps() as b_steps:
            train(tr, va, without)
        assert len(a_steps) == len(b_steps) == with_pseudo.total_iterations
        for a, b in zip(a_steps, b_steps):
            np.testing.assert_array_equal(a, b)


class TestConfigFlags:
    def test_soft_pseudo_labels_use_probabilities(self):
        tr, _, _ = small_sets(seed=16)
        base = {k: v for k, v in FAST.items()}
        hard_cfg = TrainConfig(seed=21, pseudo_label_kind="hard", **base)
        soft_cfg = TrainConfig(seed=21, pseudo_label_kind="soft", **base)
        hard_state = cycle(initialize(tr, hard_cfg), tr.x[:32])
        soft_state = cycle(initialize(tr, soft_cfg), tr.x[:32])
        # same seeds, same batch: only the label kind differs, so the loss
        # trajectories must diverge (soft targets are not 0/1)
        assert hard_state.losses != soft_state.losses

    def test_low_conf_sees_noise_changes_cycle(self):
        tr, _, _ = small_sets(seed=17)
        on = TrainConfig(seed=22, low_conf_sees_noise=True, **FAST)
        off = TrainConfig(seed=22, low_conf_sees_noise=False, **FAST)
        states = []
        for cfg in (on, off):
            model = initialize(tr, cfg)
            # ensure a live perturbation (the ReLU layer can be dead at init)
            model.noise.params.view("c2")[:] = 0.3
            states.append(cycle(model, tr.x[:32]))
        assert states[0].losses != states[1].losses

    def test_low_conf_sees_raw_input_when_noise_off(self):
        # With the wrapper off, the high classifier's input is raw x, so
        # low_conf_sees_noise must not reach the (untrained) wrapper.
        tr, _, _ = small_sets(seed=17)
        models, states = [], []
        for sees in (True, False):
            cfg = TrainConfig(seed=22, low_conf_sees_noise=sees, use_noise=False, **FAST)
            model = initialize(tr, cfg)
            model.noise.params.view("c2")[:] = 0.3
            models.append(model)
            states.append(cycle(model, tr.x[:32]))
        assert states[0].losses == states[1].losses
        assert np.array_equal(models[0].best_low.values, models[1].best_low.values)

    def test_epoch_cadence_runs_pseudo_once_per_epoch(self):
        tr, va, _ = small_sets(seed=18)
        cfg = TrainConfig(seed=23, pseudo_cadence="epoch", **FAST)
        model = train(tr, va, cfg)
        for entry in model.history:
            assert sum(entry["k_histogram"].values()) <= 1


class TestErmBaseline:
    def test_deterministic(self):
        tr, _, _ = small_sets(seed=14)
        cfg = TrainConfig(seed=19, **FAST)
        a = erm_baseline(tr, cfg)
        b = erm_baseline(tr, cfg)
        np.testing.assert_array_equal(a.params.values, b.params.values)

    def test_separable_accuracy(self):
        tr, va, te = small_sets(seed=15, n=500)
        cfg = TrainConfig(seed=20, total_iterations=400, batch_size=64,
                          identifier_epochs=50, learning_rate=0.01)
        model = erm_baseline(tr, cfg)
        preds = predict_labels(np.asarray(model.score(te.x)))
        assert (preds == te.y).mean() >= 0.95


# Reference refinement step with one forward pass per loss: nine FFN forward
# passes per step (the pseudo-labels, a backward and a score per
# pseudo-learning step, a score and a backward for the high classifier) and
# a fresh noisy input for each use. ``pipeline.refinement_step`` must match
# it bit for bit.

def ref_low_input(model, x):
    if model.config.low_conf_sees_noise:
        return model.high_input(x)
    return np.asarray(x, dtype=np.float64)


def ref_pseudo_learning_cycle(model, x):
    cfg = model.config
    x = np.asarray(x, dtype=np.float64)
    p_high = model.high.score(model.high_input(x))
    if cfg.pseudo_label_kind == "hard":
        y_tilde = predict_labels(p_high).astype(np.float64)
    else:
        y_tilde = np.asarray(p_high, dtype=np.float64)
    x_low = ref_low_input(model, x)
    losses = []
    best_loss = math.inf
    best_k = 1
    best_params = None
    for step in range(1, cfg.pseudo_iters + 1):
        grad, _ = model.low.backward(x_low, y_tilde)
        adam_step(model.low.params, grad, model.low_state)
        loss = bce(model.low.score(x_low), y_tilde)
        if not np.isfinite(loss):
            raise NumericError("non-finite pseudo-learning loss")
        losses.append(loss)
        if loss < best_loss:
            best_loss = loss
            best_k = step
            best_params = model.low.params.snapshot()
    assert best_params is not None
    model.best_low.restore(best_params)
    return PseudoLearnState(k=best_k, losses=tuple(losses))


def ref_refinement_step(model, x, y, run_pseudo=None):
    cfg = model.config
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] == 0:
        raise DataError("empty batch")
    if run_pseudo is None:
        run_pseudo = cfg.use_pseudo_learning
    log = {}
    if run_pseudo:
        state = ref_pseudo_learning_cycle(model, x)
        model.high.params.restore(blend(model.high.params, model.best_low, cfg.alpha))
        log["k"] = state.k

    x_in = model.high_input(x)
    loss = bce(model.high.score(x_in), y)
    if not np.isfinite(loss):
        raise NumericError("non-finite refinement loss")
    if cfg.use_noise:
        grad_high, _, d_input = model.high.backward(x_in, y, return_input_grad=True)
        grad_noise = model.noise.backward(d_input)
        adam_step(model.high.params, grad_high, model.high_state)
        adam_step(model.noise.params, grad_noise, model.noise_state)
    else:
        grad_high, _ = model.high.backward(x_in, y)
        adam_step(model.high.params, grad_high, model.high_state)

    if run_pseudo:
        model.low.params.restore(model.low_snapshot)
        model.low_state.reset()
    log["loss"] = loss
    return log


def assert_same_state(a, b):
    for name in ("high", "low", "noise"):
        assert np.array_equal(getattr(a, name).params.values,
                              getattr(b, name).params.values), name
        sa, sb = getattr(a, f"{name}_state"), getattr(b, f"{name}_state")
        assert np.array_equal(sa.m, sb.m) and np.array_equal(sa.v, sb.v), name
        assert sa.t == sb.t, name


EQUIVALENCE_CONFIGS = {
    "default": {},
    "no-noise": dict(use_noise=False),
    "soft-labels": dict(pseudo_label_kind="soft"),
    "low-sees-noise": dict(low_conf_sees_noise=True),
    "low-sees-noise-with-noise-off": dict(low_conf_sees_noise=True, use_noise=False),
    "one-pseudo-iter": dict(pseudo_iters=1),
    "five-pseudo-iters": dict(pseudo_iters=5),
    "alpha-one": dict(alpha=1.0),
}


class TestReferenceEquivalence:
    @pytest.mark.parametrize("overrides", EQUIVALENCE_CONFIGS.values(),
                             ids=EQUIVALENCE_CONFIGS.keys())
    def test_refinement_steps_match_reference(self, overrides):
        tr, _, _ = small_sets(seed=19)
        cfg = TrainConfig(seed=24, **FAST, **overrides)
        ref, new = initialize(tr, cfg), initialize(tr, cfg)
        for model in (ref, new):
            # a live perturbation, so the noisy input differs from x
            model.noise.params.view("c2")[:] = 0.3
        rng = np.random.default_rng(0)
        for _ in range(60):
            idx = rng.integers(0, tr.n, 32)
            expected = ref_refinement_step(ref, tr.x[idx], tr.y[idx])
            assert refinement_step(new, tr.x[idx], tr.y[idx]) == expected
            assert_same_state(ref, new)

    @pytest.mark.parametrize("cadence", ["batch", "epoch"])
    def test_train_matches_reference(self, cadence, monkeypatch):
        tr, va, _ = small_sets(seed=20)
        cfg = TrainConfig(seed=25, pseudo_cadence=cadence, **FAST)
        new = train(tr, va, cfg)
        monkeypatch.setattr(pipeline, "refinement_step", ref_refinement_step)
        ref = train(tr, va, cfg)
        assert_same_state(ref, new)
        assert ref.history == new.history

    def test_forward_passes_per_step(self, monkeypatch):
        tr, _, _ = small_sets(seed=21)
        cfg = TrainConfig(seed=26, **FAST)
        model = initialize(tr, cfg)
        calls = []
        for name in ("score", "backward"):
            method = getattr(FeedForwardClassifier, name)

            def counted(self, *args, _method=method, **kwargs):
                calls.append(_method)
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(FeedForwardClassifier, name, counted)
        refinement_step(model, tr.x[:32], tr.y[:32])
        # pseudo-labels, pseudo_iters low forwards, the last pseudo loss and
        # the high classifier's backward
        assert len(calls) == cfg.pseudo_iters + 3 == 6

    def test_one_noise_forward_per_step(self, monkeypatch):
        """The noise wrapper's backward reuses the step's ``apply``."""
        tr, _, _ = small_sets(seed=21)
        model = initialize(tr, TrainConfig(seed=26, **FAST))
        calls = []
        forward = NoiseWrapper._forward

        def counted(self):
            calls.append(1)
            return forward(self)

        monkeypatch.setattr(NoiseWrapper, "_forward", counted)
        refinement_step(model, tr.x[:32], tr.y[:32])
        assert len(calls) == 1

    def test_parameter_vectors_built_per_step(self, monkeypatch):
        """After a warm-up step, a refinement step builds at most one
        ``ModelParams``, short tail batches included: gradients, the best
        low step and the blend go to kept buffers."""
        tr, _, _ = small_sets(seed=21)
        model = initialize(tr, TrainConfig(seed=26, **FAST))
        refinement_step(model, tr.x[:32], tr.y[:32])
        built = []
        init = ModelParams.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ModelParams, "__init__", counted)
        sizes = [32, 32, 7, 32, 1, 32, 32, 32]
        for i, n in enumerate(sizes):
            refinement_step(model, tr.x[i:i + n], tr.y[i:i + n])
        assert len(built) <= len(sizes)


# Reference batch stream: the cursor-walking class that ``pipeline._batches``
# replaced, verbatim. The generator must yield the same index arrays.

class _BatchStream:
    """Seeded infinite mini-batch index stream; reshuffles every epoch.

    Each epoch's permutation is cut into consecutive batches (the last may be
    short); a cursor walks them and the next permutation is drawn once it
    passes the end.
    """

    def __init__(self, n: int, batch_size: int, seed: int):
        if n < 1:
            raise DataError("cannot stream batches from an empty dataset")
        self.n = n
        self.batch_size = min(batch_size, n)
        self.rng = np.random.default_rng(seed)
        self._perm = np.empty(0, dtype=np.int64)
        self._pos = n

    def __iter__(self):
        return self

    def __next__(self) -> np.ndarray:
        if self._pos >= self.n:
            self._perm = self.rng.permutation(self.n)
            self._pos = 0
        start = self._pos
        self._pos += self.batch_size
        return self._perm[start : self._pos]


class TestBatches:
    @pytest.mark.parametrize("n, batch_size", [
        (50, 500),     # n < batch: one short batch per epoch
        (1, 7),
        (256, 128),    # n a multiple of the batch
        (7, 7),
        (1000, 128),   # ragged last batch of 104 rows
        (300, 32),
    ])
    def test_batches_match_reference_stream(self, n, batch_size):
        ref = _BatchStream(n, batch_size, seed=5)
        new = pipeline._batches(n, min(batch_size, n), 5)
        for _ in range(5 * math.ceil(n / ref.batch_size)):
            want, got = next(ref), next(new)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_empty_dataset_raises_the_same_error(self):
        tr, _, _ = small_sets(seed=22)
        with pytest.raises(DataError) as want:
            _BatchStream(0, 32, seed=0)
        with pytest.raises(DataError) as got:
            next(pipeline._Batches(tr.take([]), 32, [0]))
        assert str(got.value) == str(want.value)
