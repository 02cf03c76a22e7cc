import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from conftest import make_separable
from fd_utils import central_difference, max_relative_error
from reckoner.data import ColumnSpec, Dataset, Schema
from reckoner.errors import NumericError
from reckoner.models import (
    _TANH_LIMIT,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    PROB_EPS,
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
    sigmoid,
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


# Kernels as they were before the step workspaces, verbatim but for ``self``
# becoming an argument. The workspace kernels must match them bit for bit;
# the public-API equivalence tests cannot see a kernel drift, since they call
# the same kernels on both sides.

def ref_sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def ref_relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def ref_bce(p, y) -> float:
    p = np.clip(np.asarray(p, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log1p(-p))))


def ref_blend(a: ModelParams, b: ModelParams, alpha: float) -> ModelParams:
    if a.layout != b.layout:
        raise ValueError("blend requires identical parameter layouts")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if alpha == 1.0:
        return a.snapshot()
    if alpha == 0.0:
        return b.snapshot()
    return ModelParams(a.layout, alpha * a.values + (1.0 - alpha) * b.values)


def ref_adam_step(params: ModelParams, grad: np.ndarray, state: AdamState) -> None:
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.values.shape or state.m.shape != params.values.shape:
        raise ValueError("gradient/state length does not match parameters")
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient in adam_step")
    state.t += 1
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grad
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * grad * grad
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.t)
    update = state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    if not np.isfinite(update).all():
        raise NumericError("non-finite update in adam_step")
    params.values -= update


def ref_ffn_forward(self, xb: np.ndarray):
    p = self.params
    z1 = xb @ p.view("W1") + p.view("b1")
    a1 = ref_relu(z1)
    z2 = a1 @ p.view("W2") + p.view("b2")
    a2 = ref_relu(z2)
    z3 = (a2 @ p.view("W3"))[:, 0] + p.view("b3")[0]
    return ref_sigmoid(z3), (z1, a1, z2, a2)


def ref_ffn_backward(self, x, y, return_input_grad=False):
    xb = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p = self.params
    prob, (z1, a1, z2, a2) = ref_ffn_forward(self, xb)

    dz3 = (prob - y) / xb.shape[0]
    grad = ModelParams(p.layout)
    grad.view("W3")[:] = (a2.T @ dz3)[:, None]
    grad.view("b3")[:] = dz3.sum()
    da2 = dz3[:, None] @ p.view("W3").T
    dz2 = da2 * (z2 > 0)
    grad.view("W2")[:] = a1.T @ dz2
    grad.view("b2")[:] = dz2.sum(axis=0)
    da1 = dz2 @ p.view("W2").T
    dz1 = da1 * (z1 > 0)
    grad.view("W1")[:] = xb.T @ dz1
    grad.view("b1")[:] = dz1.sum(axis=0)
    if not np.isfinite(grad.values).all():
        raise NumericError("non-finite gradient in FeedForwardClassifier.backward")
    if return_input_grad:
        return grad.values, prob, dz1 @ p.view("W1").T
    return grad.values, prob


def ref_noise_forward(self):
    p = self.params
    z = self.eta @ p.view("V1") + p.view("c1")
    u = ref_relu(z)
    pert = np.clip(np.tanh(u @ p.view("V2") + p.view("c2")),
                   -_TANH_LIMIT, _TANH_LIMIT)
    return pert, (z, u)


def ref_noise_backward(self, d_xtilde):
    d_xtilde = np.atleast_2d(np.asarray(d_xtilde, dtype=np.float64))
    pert, (z, u) = ref_noise_forward(self)
    d_out = d_xtilde.sum(axis=0) * (1.0 - pert * pert)
    grad = ModelParams(self.params.layout)
    grad.view("V2")[:] = np.outer(u, d_out)
    grad.view("c2")[:] = d_out
    du = self.params.view("V2") @ d_out
    dz = du * (z > 0)
    grad.view("V1")[:] = np.outer(self.eta, dz)
    grad.view("c1")[:] = dz
    if not np.isfinite(grad.values).all():
        raise NumericError("non-finite gradient in NoiseWrapper.backward")
    return grad.values


# ``NoiseWrapper.backward`` as it was before it reused the forward pass of
# ``apply``, verbatim but for ``self`` becoming an argument: it runs the
# forward pass again.

def prev_noise_backward(self, d_xtilde: np.ndarray) -> np.ndarray:
    """Chain upstream d(loss)/d(x~) rows into wrapper parameter gradients."""
    d_xtilde = np.atleast_2d(np.asarray(d_xtilde, dtype=np.float64))
    if d_xtilde.shape[1] != self.m:
        raise ValueError("upstream gradient width mismatch")
    pert, (z, u) = self._forward()
    gV1, gc1, gV2, gc2 = self._grad.parts
    d_out = np.add.reduce(d_xtilde, axis=0, out=self._d_out)
    slope = np.multiply(pert, pert, out=self._slope)
    np.subtract(1.0, slope, out=slope)
    d_out *= slope
    np.multiply(u[:, None], d_out, out=gV2)
    gc2[:] = d_out
    dz = np.matmul(self.params.view("V2"), d_out, out=self._du)
    dz *= np.greater(z, 0, out=self._active)
    np.multiply(self.eta[:, None], dz, out=gV1)
    gc1[:] = dz
    grad = self._grad.values
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient in NoiseWrapper.backward")
    return grad.copy()


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 5e-324, -5e-324,
                  2.2250738585072014e-308, -1e-310, 36.7, -36.7, 745.2, -745.2]
# Batch sizes around the training batch (128), short tails and 1-row batches.
ROW_COUNTS = st.integers(1, 300) | st.sampled_from([1, 2, 7, 127, 128, 129, 256, 300])
WIDTHS = st.sampled_from([1, 6, 130])


def draw_array(rng, shape, scale, zero_share):
    """Normal draws times ``scale``, with about ``zero_share`` of them exact
    zeros (half of those negative), so ReLU kinks and signed zeros occur."""
    a = rng.standard_normal(shape) * scale
    zeros = rng.random(shape) < zero_share
    a[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
    return a


class TestKernelsMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 70),
                      elements=st.floats(allow_nan=True, allow_infinity=True,
                                         allow_subnormal=True)
                      | st.sampled_from(SPECIAL_FLOATS)))
    @example(np.array(SPECIAL_FLOATS))
    @example(np.array([np.nan, -np.nan]))
    def test_sigmoid(self, z):
        assert same_bits(sigmoid(z), ref_sigmoid(z))

    def test_sigmoid_nan_payloads(self):
        z = np.array([0x7FF8000000000123, 0xFFF4000000000001, 0x7FF0000000000001,
                      0xFFF8000000000000], dtype=np.uint64).view(np.float64)
        for n in range(1, 40):
            batch = np.resize(z, n)
            assert same_bits(sigmoid(batch), ref_sigmoid(batch))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           soft=st.booleans(), extremes=st.booleans())
    def test_bce(self, n, seed, soft, extremes):
        rng = np.random.default_rng(seed)
        p = rng.random(n)
        if extremes:
            k = rng.integers(0, n, size=max(1, n // 4))
            p[k] = rng.choice([0.0, 1.0, 5e-324, 1e-7, 1.0 - 1e-7, 1e-8], size=k.size)
        y = rng.random(n) if soft else (rng.random(n) < 0.5).astype(float)
        assert same_bits(bce(p, y), ref_bce(p, y))
        assert same_bits(bce(p[0], y[0]), ref_bce(p[0], y[0]))

    @settings(max_examples=100, deadline=None)
    @given(size=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
           alpha=st.sampled_from([0.0, 1.0, 0.5, 0.9]) | st.floats(0.0, 1.0))
    def test_blend(self, size, seed, alpha):
        rng = np.random.default_rng(seed)
        layout = ParamLayout((("w", (size,)),))
        a = ModelParams(layout, draw_array(rng, size, 1.0, 0.05))
        b = ModelParams(layout, draw_array(rng, size, 1.0, 0.05))
        want = ref_blend(a, b, alpha).values
        assert same_bits(blend(a, b, alpha).values, want)
        assert same_bits(blend(a, b, alpha, out=b).values, want)

    @settings(max_examples=100, deadline=None)
    @given(size=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
           steps=st.integers(1, 6), lr=st.sampled_from([1e-3, 0.05, 1.0]),
           scale=st.sampled_from([1e-12, 1e-3, 1.0, 1e150, np.inf]))
    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
    def test_adam_step(self, size, seed, steps, lr, scale):
        """An infinite scale gives infinite gradients, which the reference
        rejects up front and ``adam_step`` through its non-finite step."""
        rng = np.random.default_rng(seed)
        layout = ParamLayout((("w", (size,)),))
        start = draw_array(rng, size, 1.0, 0.0)
        ref_p, new_p = ModelParams(layout, start.copy()), ModelParams(layout, start.copy())
        ref_s, new_s = AdamState.zeros(size, lr), AdamState.zeros(size, lr)
        for _ in range(steps):
            grad = draw_array(rng, size, scale, 0.1)
            try:
                ref_adam_step(ref_p, grad, ref_s)
            except NumericError:
                with pytest.raises(NumericError, match="non-finite update in adam_step"):
                    adam_step(new_p, grad, new_s)
                return
            adam_step(new_p, grad, new_s)
            assert same_bits(new_p.values, ref_p.values)
            assert same_bits(new_s.m, ref_s.m) and same_bits(new_s.v, ref_s.v)
            assert new_s.t == ref_s.t

    @settings(max_examples=60, deadline=None)
    @given(m=WIDTHS, rows=st.lists(ROW_COUNTS, min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.1, 1.0, 40.0]),
           labels=st.sampled_from(["hard", "soft", "predicted"]))
    @example(m=6, rows=[1, 3, 128], seed=5, scale=40.0, labels="predicted")
    def test_ffn_forward_and_backward(self, m, rows, seed, scale, labels):
        """A run of batches of mixed sizes, so each call may reuse or replace
        the kept buffers. Saturating scales give exact 0/1 probabilities, so
        labels equal to the rounded prediction give zero output gradients
        and signed-zero products."""
        rng = np.random.default_rng(seed)
        net = FeedForwardClassifier(m, 16, 8)
        net.params.values[:] = draw_array(rng, net.param_count, scale / 4, 0.05)
        for n in rows:
            x = draw_array(rng, (n, m), scale, 0.05)
            if labels == "predicted":
                y = np.round(ref_ffn_forward(net, x)[0])
            else:
                y = rng.random(n) if labels == "soft" else (rng.random(n) < 0.5) * 1.0
            want = ref_ffn_backward(net, x, y, return_input_grad=True)
            got = net.backward(x, y, return_input_grad=True)
            assert all(same_bits(g, w) for g, w in zip(got, want))
            got2 = net.backward(x, y)
            assert same_bits(got2[0], want[0]) and same_bits(got2[1], want[1])
            assert same_bits(net.score(x), want[1])
            assert same_bits(net.score(x[0]), ref_ffn_forward(net, x[:1])[0][0])

    @pytest.mark.parametrize("n", [1, 5, 128])
    def test_ffn_zero_output_gradient(self, n):
        """prob == y exactly, so the output gradient is +0.0, and its
        elementwise products with negative output weights are -0.0 where the
        reference's matrix product gives +0.0. Both reach the gradient only
        through sums that start from +0.0."""
        net = FeedForwardClassifier.initialized(6, 16, 8, seed=1)
        net.params.view("W3")[:4] = -np.abs(net.params.view("W3")[:4])
        net.params.view("b3")[:] = 60.0
        x = np.random.default_rng(n).standard_normal((n, 6))
        y = np.ones(n)
        want = ref_ffn_backward(net, x, y, return_input_grad=True)
        assert np.all(want[1] == 1.0)
        got = net.backward(x, y, return_input_grad=True)
        assert all(same_bits(g, w) for g, w in zip(got, want))

    @settings(max_examples=60, deadline=None)
    @given(m=WIDTHS, hidden=st.sampled_from([1, 5, 130]), n=ROW_COUNTS,
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.1, 1.0, 30.0]))
    def test_noise_apply_and_backward(self, m, hidden, n, seed, scale):
        rng = np.random.default_rng(seed)
        wrap = NoiseWrapper(m, hidden, rng.standard_normal(m))
        wrap.params.values[:] = draw_array(rng, wrap.params.values.size, scale, 0.05)
        x = draw_array(rng, (n, m), 1.0, 0.05)
        d = draw_array(rng, (n, m), 1e-2, 0.05)
        pert, _ = ref_noise_forward(wrap)
        assert same_bits(wrap.perturbation(), pert)
        assert same_bits(wrap.apply(x), x + pert)
        wrap.perturbation()
        assert same_bits(wrap.backward(d), ref_noise_backward(wrap, d))
        wrap.perturbation()
        assert same_bits(wrap.backward(d[0]), ref_noise_backward(wrap, d[0]))

    @settings(max_examples=60, deadline=None)
    @given(m=WIDTHS, hidden=st.sampled_from([1, 5, 130]), n=ROW_COUNTS,
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.1, 1.0, 30.0]))
    def test_noise_backward_reusing_the_forward_pass(self, m, hidden, n, seed, scale):
        """After ``apply`` or ``perturbation``, the backward that reuses
        their forward pass gives the bits of one that runs it again."""
        rng = np.random.default_rng(seed)
        wrap = NoiseWrapper(m, hidden, rng.standard_normal(m))
        x = draw_array(rng, (n, m), 1.0, 0.05)
        d = draw_array(rng, (n, m), 1e-2, 0.05)
        for _ in range(2):
            wrap.params.values[:] = draw_array(rng, wrap.params.values.size, scale, 0.05)
            wrap.apply(x)
            got = wrap.backward(d)
            assert same_bits(got, prev_noise_backward(wrap, d))
            wrap.perturbation()
            got = wrap.backward(d[0])
            assert same_bits(got, prev_noise_backward(wrap, d[0]))


class TestOwnership:
    """Kept buffers never leak: a returned array is the caller's."""

    def test_later_backward_leaves_earlier_results(self):
        rng = np.random.default_rng(3)
        net = FeedForwardClassifier.initialized(6, 16, 8, seed=3)
        wrap = NoiseWrapper.initialized(6, 6, seed=4)
        x1, x2 = rng.standard_normal((32, 6)), rng.standard_normal((32, 6))
        y1, y2 = np.ones(32), np.zeros(32)
        first = net.backward(x1, y1, return_input_grad=True)
        kept = [a.copy() for a in first]
        first_score = net.score(x1)
        wrap.perturbation()
        noise_grad = wrap.backward(first[2])
        noise_kept, pert = noise_grad.copy(), wrap.perturbation()
        for x, y in ((x2, y2), (x2[:5], y2[:5]), (x1, y1)):
            later = net.backward(x, y, return_input_grad=True)
            net.score(x)
            wrap.perturbation()
            wrap.backward(later[2])
            wrap.params.values += 0.5
            for a, b in zip(first, later):
                assert not np.shares_memory(a, b)
        assert all(same_bits(a, b) for a, b in zip(first, kept))
        assert same_bits(first_score, first[1])
        assert same_bits(noise_grad, noise_kept)
        assert not np.shares_memory(pert, wrap.perturbation())

    def test_grown_buffers_leave_earlier_results(self):
        """A larger ``score`` after a ``backward``, then a smaller
        ``backward``, which runs in views of its kept buffers."""
        rng = np.random.default_rng(5)
        net = FeedForwardClassifier.initialized(6, 16, 8, seed=5)
        x, y = rng.standard_normal((64, 6)), (rng.random(64) < 0.5) * 1.0
        first = net.backward(x[:32], y[:32], return_input_grad=True)
        kept = [a.copy() for a in first]
        small_score = net.score(x[:16])
        large_score = net.score(x)
        smaller = net.backward(x[:5], y[:5], return_input_grad=True)
        net.score(x[:16])
        assert all(same_bits(a, b) for a, b in zip(first, kept))
        fresh = FeedForwardClassifier.initialized(6, 16, 8, seed=5)
        assert same_bits(large_score, fresh.score(x))
        want = fresh.backward(x[:5], y[:5], return_input_grad=True)
        assert all(same_bits(a, b) for a, b in zip(smaller, want))
        results = [*first, small_score, large_score, *smaller]
        for i, a in enumerate(results):
            for b in results[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_adam_step_allocates_nothing(self):
        size = 10_000
        params = ModelParams(ParamLayout((("w", (size,)),)))
        state = AdamState.zeros(size, lr=0.01)
        grad = np.random.default_rng(0).standard_normal(size)
        adam_step(params, grad, state)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            adam_step(params, grad, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one temporary vector would be 80 kB
        assert peak - before < 4_000


class TestStackedKernels:
    """A stack of S runs gives each run the bits the same kernels give it
    alone, not merely close ones: the lockstep path is the lone path."""

    @settings(max_examples=40, deadline=None)
    @given(runs=st.integers(1, 4), m=WIDTHS, hidden=st.sampled_from([1, 5, 130]),
           rows=st.lists(ROW_COUNTS, min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.1, 1.0, 40.0]))
    @example(runs=3, m=6, hidden=6, rows=[128, 48, 1], seed=7, scale=40.0)
    def test_ffn_noise_and_bce(self, runs, m, hidden, rows, seed, scale):
        rng = np.random.default_rng(seed)
        net = FeedForwardClassifier.initialized(m, 16, 8, list(range(runs)))
        net.params.values[:] = draw_array(rng, net.params.values.shape, scale / 4, 0.05)
        wrap = NoiseWrapper.initialized(m, hidden, list(range(runs)))
        wrap.params.values[:] = draw_array(rng, wrap.params.values.shape, scale, 0.05)
        alone = [(FeedForwardClassifier(m, 16, 8, net.params.run(i).snapshot()),
                  NoiseWrapper(m, hidden, wrap.eta[i], wrap.params.run(i).snapshot()))
                 for i in range(runs)]
        for n in rows:
            x = draw_array(rng, (runs, n, m), scale, 0.05)
            y = (rng.random((runs, n)) < 0.5) * 1.0
            d = draw_array(rng, (runs, n, m), 1e-2, 0.05)
            got = net.backward(x, y, return_input_grad=True)
            score, noisy = net.score(x), wrap.apply(x)
            noise_grad, loss = wrap.backward(d), bce(score, y)
            for i, (net_i, wrap_i) in enumerate(alone):
                want = net_i.backward(x[i], y[i], return_input_grad=True)
                assert all(same_bits(g[i], w) for g, w in zip(got, want))
                assert same_bits(score[i], net_i.score(x[i]))
                assert same_bits(noisy[i], wrap_i.apply(x[i]))
                assert same_bits(noise_grad[i], wrap_i.backward(d[i]))
                assert same_bits(loss[i], bce(score[i], y[i]))

    @pytest.mark.parametrize("alpha", [0.0, 0.9, 1.0])
    def test_adam_blend_and_rollback(self, alpha):
        """The stack's rows step, blend and restore as each run does alone;
        alpha 0 and 1 copy, so a -0.0 stays -0.0."""
        rng = np.random.default_rng(4)
        layout = ParamLayout((("w", (50,)),))
        a, b = draw_array(rng, (3, 50), 1.0, 0.2), draw_array(rng, (3, 50), 1.0, 0.2)
        stack, other = ModelParams(layout, a.copy()), ModelParams(layout, b.copy())
        snap = stack.snapshot()
        state = AdamState.zeros((3, 50), lr=0.01)
        alone = [(ModelParams(layout, a[i].copy()), AdamState.zeros(50, lr=0.01))
                 for i in range(3)]
        for _ in range(3):
            grad = draw_array(rng, (3, 50), 1.0, 0.1)
            adam_step(stack, grad, state)
            for i, (params, state_i) in enumerate(alone):
                adam_step(params, grad[i], state_i)
                assert same_bits(stack.values[i], params.values)
                assert same_bits(state.m[i], state_i.m) and same_bits(state.v[i], state_i.v)
        blended = blend(stack, other, alpha)
        for i, (params, _) in enumerate(alone):
            assert same_bits(blended.values[i], blend(params, other.run(i), alpha).values)
        stack.restore(snap)
        assert same_bits(stack.values, a)

    def test_runs_are_views_of_the_stack(self):
        net = FeedForwardClassifier.initialized(6, 8, 4, [1, 2])
        wrap = NoiseWrapper.initialized(6, 6, [3, 4])
        for i, seed in enumerate((1, 2)):
            assert same_bits(net.run(i).params.values,
                             FeedForwardClassifier.initialized(6, 8, 4, seed).params.values)
            assert np.shares_memory(net.run(i).params.values, net.params.values)
            lone = NoiseWrapper.initialized(6, 6, seed + 2)
            assert same_bits(wrap.run(i).eta, lone.eta)
            assert same_bits(wrap.run(i).params.values, lone.params.values)
        with pytest.raises(ValueError, match=r"expected input of shape \(2, n, 6\)"):
            net.score(np.zeros((3, 6)))



def _seeds(lead: tuple[int, ...]):
    return [0, 1] if lead else 0


def _noise_backward(wrap: NoiseWrapper, d: np.ndarray) -> np.ndarray:
    wrap.perturbation()
    return wrap.backward(d)


# Every model input path, as a function of the parameters' leading shape
# (() for one run, (2,) for a stack of two) and the input. Labels match the
# input's rows, so only the input's shape can be wrong.
INPUT_PATHS = {
    "linear-score": lambda lead, x: LinearClassifier(6).score(x),
    "linear-backward": lambda lead, x: LinearClassifier(6).backward(x, np.zeros(x.shape[:-1])),
    "ffn-score": lambda lead, x: FeedForwardClassifier.initialized(
        6, 4, 3, _seeds(lead)).score(x),
    "ffn-backward": lambda lead, x: FeedForwardClassifier.initialized(
        6, 4, 3, _seeds(lead)).backward(x, np.zeros(x.shape[:-1])),
    "noise-apply": lambda lead, x: NoiseWrapper.initialized(6, 5, _seeds(lead)).apply(x),
    "noise-backward": lambda lead, x: _noise_backward(
        NoiseWrapper.initialized(6, 5, _seeds(lead)), x),
}
WRONG_SHAPES = {
    "one-width": ((), (3, 7)),
    "one-rank-3": ((), (2, 3, 6)),
    "one-rank-0": ((), ()),
    "stack-width": ((2,), (2, 3, 7)),
    "stack-rank-2": ((2,), (3, 6)),
    "stack-rank-1": ((2,), (6,)),
    "stack-runs": ((2,), (3, 3, 6)),
}
WRONG_INPUTS = {f"{path}-{case}": (path, lead, shape)
                for path in INPUT_PATHS for case, (lead, shape) in WRONG_SHAPES.items()
                if not (lead and path.startswith("linear"))}  # a LinearClassifier holds one run


@pytest.mark.parametrize("path, lead, shape", WRONG_INPUTS.values(), ids=WRONG_INPUTS.keys())
def test_every_input_path_rejects_a_wrong_shape(path, lead, shape):
    """One check, ``_rows_of``, takes every model input: each path rejects a
    wrong width, a wrong rank and a stack's wrong run count with one
    message that names the shape it expected."""
    want = r"\(2, n, 6\)" if lead else r"\(n, 6\)"
    with pytest.raises(ValueError, match=rf"^expected input of shape {want}, got shape "
                                         rf"{re.escape(str(shape))}$"):
        INPUT_PATHS[path](lead, np.zeros(shape))
