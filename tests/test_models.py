import math

import numpy as np
import pytest

from conftest import make_separable
from fd_utils import central_difference, max_relative_error
from reckoner.data import ColumnSpec, Dataset, Schema
from reckoner.errors import NumericError
from reckoner.models import (
    AdamState,
    FeedForwardClassifier,
    LinearClassifier,
    ModelParams,
    NoiseWrapper,
    ParamLayout,
    adam_step,
    bce,
    blend,
    lr_fit,
    predict_labels,
)
from reckoner.pipeline import TrainConfig, initialize

SCHEMA_1D = Schema(columns=(ColumnSpec("f0", "numeric"), ColumnSpec("y", "label"),
                            ColumnSpec("s", "sensitive")))


def dataset_1d(x, y):
    x = np.asarray(x, dtype=float)[:, None]
    y = np.asarray(y, dtype=int)
    return Dataset(x=x, y=y, s=np.zeros(len(y), int), schema=SCHEMA_1D)


class TestScore:
    def test_zero_params_give_half(self):
        lin = LinearClassifier(3)
        assert lin.score(np.zeros(3)) == 0.5
        net = FeedForwardClassifier(3, 4, 2)
        assert net.score(np.array([1.0, -2.0, 0.5])) == 0.5

    def test_hand_sigmoid(self):
        lin = LinearClassifier(1)
        lin.params.view("w")[:] = [1.0]
        expected = 1.0 / (1.0 + math.exp(-0.5))
        assert lin.score(np.array([0.5])) == pytest.approx(expected, abs=1e-12)
        assert round(expected, 5) == 0.62246

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(0)
        net = FeedForwardClassifier.initialized(4, 8, 5, seed=1)
        for _ in range(100):
            p = net.score(rng.standard_normal(4) * 10)
            assert 0.0 < p < 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LinearClassifier(3).score(np.zeros(4))

    def test_param_count_formula(self):
        m, h1, h2 = 7, 5, 3
        net = FeedForwardClassifier(m, h1, h2)
        assert net.param_count == (m + 1) * h1 + (h1 + 1) * h2 + (h2 + 1)


class TestBce:
    def test_half_probability_gives_ln2(self):
        assert bce(0.5, 1) == pytest.approx(math.log(2), abs=1e-12)
        assert bce(0.5, 0) == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_value(self):
        assert bce(0.9, 1) == pytest.approx(-math.log(0.9), abs=1e-12)

    def test_clamped_perfect_prediction(self):
        assert bce(1.0, 1) == pytest.approx(-math.log(1 - 1e-7), abs=1e-12)
        assert bce(0.0, 0) < 1e-6

    def test_batch_mean(self):
        v = bce(np.array([0.9, 0.5]), np.array([1, 0]))
        assert v == pytest.approx((-math.log(0.9) + math.log(2)) / 2, abs=1e-12)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = ModelParams(ParamLayout((("w", (3,)),)), np.array([1.0, -2.0, 0.5]))
        state = AdamState.zeros(3, lr=0.1)
        adam_step(params, np.zeros(3), state)
        assert params.values.tolist() == [1.0, -2.0, 0.5]
        assert state.t == 1

    def test_first_step_bias_corrected(self):
        params = ModelParams(ParamLayout((("w", (1,)),)), np.array([0.0]))
        state = AdamState.zeros(1, lr=0.001)
        adam_step(params, np.array([1.0]), state)
        assert params.values[0] == pytest.approx(-0.001 / (1.0 + 1e-8), abs=1e-15)

    def test_sign_flip_gives_opposite_first_update(self):
        for g in (np.array([0.7]), np.array([-3.0])):
            p1 = ModelParams(ParamLayout((("w", (1,)),)), np.array([0.0]))
            p2 = ModelParams(ParamLayout((("w", (1,)),)), np.array([0.0]))
            adam_step(p1, g, AdamState.zeros(1, lr=0.01))
            adam_step(p2, -g, AdamState.zeros(1, lr=0.01))
            assert p1.values[0] == pytest.approx(-p2.values[0], abs=1e-15)

    def test_rejects_nonfinite_gradient(self):
        params = ModelParams(ParamLayout((("w", (1,)),)), np.array([0.0]))
        with pytest.raises(NumericError):
            adam_step(params, np.array([np.nan]), AdamState.zeros(1, lr=0.01))


class TestBlend:
    def layout(self):
        return ParamLayout((("w", (1,)),))

    def test_alpha_one_returns_a_exactly(self):
        a = ModelParams(self.layout(), np.array([0.123456789]))
        b = ModelParams(self.layout(), np.array([9.0]))
        out = blend(a, b, 1.0)
        assert out.values[0] == a.values[0]

    def test_alpha_zero_returns_b_exactly(self):
        a = ModelParams(self.layout(), np.array([1.0]))
        b = ModelParams(self.layout(), np.array([-7.25]))
        assert blend(a, b, 0.0).values[0] == -7.25

    def test_midpoint(self):
        a = ModelParams(self.layout(), np.array([2.0]))
        b = ModelParams(self.layout(), np.array([4.0]))
        assert blend(a, b, 0.5).values[0] == 3.0

    def test_self_blend_identity(self):
        a = ModelParams(self.layout(), np.array([1.5]))
        for alpha in (0.0, 0.3, 0.7, 1.0):
            assert blend(a, a, alpha).values[0] == pytest.approx(1.5, abs=1e-15)

    def test_affine_in_alpha(self):
        a = ModelParams(self.layout(), np.array([2.0]))
        b = ModelParams(self.layout(), np.array([10.0]))
        vals = [blend(a, b, t).values[0] for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
        diffs = np.diff(vals)
        assert np.allclose(diffs, diffs[0])

    def test_rejects_bad_alpha_and_layout(self):
        a = ModelParams(self.layout(), np.array([1.0]))
        b = ModelParams(ParamLayout((("w", (2,)),)), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            blend(a, a, 1.5)
        with pytest.raises(ValueError):
            blend(a, b, 0.5)

    def test_hand_arithmetic(self):
        high = ModelParams(self.layout(), np.array([1.0]))
        low = ModelParams(self.layout(), np.array([0.0]))
        assert blend(high, low, 0.9).values[0] == pytest.approx(0.9)

    @pytest.fixture(scope="class")
    def initialized_model(self):
        d = make_separable(n=180, seed=0)
        cfg = TrainConfig(total_iterations=100, batch_size=32, identifier_epochs=50,
                          hidden1=8, hidden2=4, learning_rate=0.01, seed=8)
        return initialize(d, cfg)

    def test_alpha_one_is_neutral_on_model_params(self, initialized_model):
        high, low = initialized_model.high.params, initialized_model.low.params
        np.testing.assert_array_equal(blend(high, low, 1.0).values, high.values)

    def test_alpha_zero_returns_low_model_params(self, initialized_model):
        high, low = initialized_model.high.params, initialized_model.low.params
        np.testing.assert_array_equal(blend(high, low, 0.0).values, low.values)


class TestSnapshotRestore:
    def test_roundtrip_through_training(self):
        # Unbalanced labels keep the output-bias gradient nonzero.
        d = dataset_1d([-1.0, 1.0, -0.5, 0.7], [0, 1, 1, 1])
        net = FeedForwardClassifier.initialized(1, 3, 2, seed=5)
        snap = net.params.snapshot()
        state = AdamState.zeros(net.params.layout.size, lr=0.05)
        for _ in range(3):
            adam_step(net.params, net.backward(d.x, d.y.astype(float))[0], state)
        assert not np.array_equal(net.params.values, snap.values)
        net.params.restore(snap)
        np.testing.assert_array_equal(net.params.values, snap.values)

    def test_restore_idempotent(self):
        net = FeedForwardClassifier.initialized(2, 2, 2, seed=0)
        snap = net.params.snapshot()
        net.params.restore(snap)
        once = net.params.values.copy()
        net.params.restore(snap)
        np.testing.assert_array_equal(net.params.values, once)

    def test_snapshot_of_snapshot(self):
        net = FeedForwardClassifier.initialized(2, 2, 2, seed=1)
        snap = net.params.snapshot().snapshot()
        np.testing.assert_array_equal(snap.values, net.params.values)

    def test_snapshot_is_detached(self):
        net = FeedForwardClassifier.initialized(2, 2, 2, seed=2)
        snap = net.params.snapshot()
        net.params.values += 1.0
        assert not np.array_equal(snap.values, net.params.values)


class TestNoiseWrapper:
    def test_zero_params_identity(self):
        w = NoiseWrapper(3, 4, eta=np.array([0.3, -1.0, 2.0]))
        x = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(w.apply(x), x)

    def test_perturbation_strictly_bounded(self):
        # Measured through a zero input so x + pert - x is exact; with
        # nonzero x the addition rounding alone can land on 1.0.
        rng = np.random.default_rng(7)
        zero = np.zeros((1, 5))
        for seed in range(30):
            w = NoiseWrapper.initialized(5, 5, seed=seed)
            w.params.values += rng.standard_normal(w.params.values.size) * 30
            assert np.abs(w.apply(zero) - zero).max() < 1.0

    def test_hand_tanh_value(self):
        # Contrived wrapper with g(eta) = 0.5 in its single dimension.
        w = NoiseWrapper(1, 1, eta=np.array([1.0]))
        w.params.view("V1")[:] = [[1.0]]
        w.params.view("V2")[:] = [[0.5]]
        out = w.apply(np.array([2.0]))
        assert out[0] == pytest.approx(2.0 + math.tanh(0.5), abs=1e-12)
        assert round(math.tanh(0.5), 6) == 0.462117

    def test_same_perturbation_for_every_row(self):
        w = NoiseWrapper.initialized(4, 4, seed=3)
        x = np.random.default_rng(0).standard_normal((6, 4))
        delta = w.apply(x) - x
        assert np.allclose(delta, delta[0], atol=0)

    def test_eta_is_frozen(self):
        w = NoiseWrapper.initialized(3, 3, seed=0)
        with pytest.raises(ValueError):
            w.eta[0] = 5.0


class TestGradients:
    def test_ffn_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        net = FeedForwardClassifier.initialized(5, 4, 3, seed=11)
        net.params.values += 0.1 * rng.standard_normal(net.params.values.size)
        x = rng.standard_normal((8, 5))
        y = rng.integers(0, 2, 8).astype(float)
        analytic, _ = net.backward(x, y)
        numeric = central_difference(lambda: bce(net.score(x), y), net.params.values)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_linear_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        lin = LinearClassifier(6)
        lin.params.values[:] = rng.standard_normal(7)
        x = rng.standard_normal((10, 6))
        y = rng.integers(0, 2, 10).astype(float)
        analytic, _ = lin.backward(x, y)
        numeric = central_difference(lambda: bce(lin.score(x), y), lin.params.values)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_noise_composition_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        net = FeedForwardClassifier.initialized(5, 4, 3, seed=17)
        wrap = NoiseWrapper.initialized(5, 5, seed=18)
        wrap.params.values += 0.2 * rng.standard_normal(wrap.params.values.size)
        x = rng.standard_normal((6, 5))
        y = rng.integers(0, 2, 6).astype(float)

        def loss():
            return bce(net.score(wrap.apply(x)), y)

        _, _, d_input = net.backward(wrap.apply(x), y, return_input_grad=True)
        analytic = wrap.backward(d_input)
        numeric = central_difference(loss, wrap.params.values)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_gradient_vanishes_at_convex_optimum(self):
        d = dataset_1d([-2.0, -1.0, 1.0, 2.0], [0, 1, 0, 1])
        model = lr_fit(d, epochs=2000, learning_rate=0.05)
        grad, _ = model.backward(d.x, d.y.astype(float))
        assert np.linalg.norm(grad) < 1e-6

    def test_duplicated_rows_leave_mean_gradient_unchanged(self):
        rng = np.random.default_rng(19)
        net = FeedForwardClassifier.initialized(3, 4, 2, seed=19)
        x = rng.standard_normal((5, 3))
        y = rng.integers(0, 2, 5).astype(float)
        g1, _ = net.backward(x, y)
        g2, _ = net.backward(np.vstack([x, x]), np.concatenate([y, y]))
        np.testing.assert_allclose(g1, g2, atol=1e-15)


class TestLrFit:
    def test_separable_data_reaches_high_accuracy(self):
        x = np.concatenate([np.full(50, -1.0), np.full(50, 1.0)])
        y = np.concatenate([np.zeros(50, int), np.ones(50, int)])
        d = dataset_1d(x, y)
        model = lr_fit(d, epochs=500, learning_rate=0.05)
        preds = predict_labels(np.asarray(model.score(d.x)))
        assert (preds == d.y).mean() >= 0.99

    def test_zero_epochs_gives_uninformative_scores(self):
        d = dataset_1d([-1.0, 1.0, 2.0], [0, 1, 1])
        model = lr_fit(d, epochs=0, learning_rate=0.1)
        assert np.all(np.asarray(model.score(d.x)) == 0.5)

    def test_first_epoch_reduces_loss(self):
        d = dataset_1d([-1.0, 1.0] * 25, [0, 1] * 25)
        before = bce(np.full(50, 0.5), d.y)
        model = lr_fit(d, epochs=1, learning_rate=0.1)
        assert bce(model.score(d.x), d.y) < before

    def test_divergent_rate_raises(self):
        # The 1e300 row squares to inf in Adam's second moment, so the
        # first update is already non-finite.
        d = dataset_1d([0.0, 1e300], [0, 1])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="non-finite update in adam_step"):
                lr_fit(d, epochs=5, learning_rate=1e308)


class TestDeterminism:
    def test_identical_seeds_identical_params(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((40, 3))
        y = rng.integers(0, 2, 40).astype(float)

        def run():
            net = FeedForwardClassifier.initialized(3, 8, 4, seed=42)
            state = AdamState.zeros(net.params.layout.size, lr=0.01)
            for _ in range(25):
                adam_step(net.params, net.backward(x, y)[0], state)
            return net.params.values

        np.testing.assert_array_equal(run(), run())
