"""Trainable components with hand-derived gradients: logistic regression, a
three-layer feedforward classifier, and a bounded input-noise wrapper, plus
binary cross-entropy and Adam.

All parameters live in flat float64 vectors with a named-segment layout, so
snapshot/restore and elementwise blending are cheap and bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, NumericError

PROB_EPS = 1e-7  # probability clamp applied before logarithms

# float64 tanh rounds to exactly +/-1 once |t| exceeds ~19, which would break
# the open-interval perturbation contract; clamp half an ulp inside.
_TANH_LIMIT = float(np.nextafter(1.0, 0.0))


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def bce(p, y) -> float:
    """Mean binary cross-entropy with probabilities clamped away from {0, 1}."""
    p = np.clip(np.asarray(p, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log1p(-p))))


@dataclass(frozen=True)
class ParamLayout:
    """Named segments of a flat parameter vector.

    ``size`` and ``table`` are worked out once per layout and cached; they
    take no part in equality or hashing.
    """

    segments: tuple[tuple[str, tuple[int, ...]], ...]

    @cached_property
    def table(self) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
        """(name, start, end, shape) of each segment, in order."""
        out = []
        pos = 0
        for name, shape in self.segments:
            end = pos + math.prod(shape)
            out.append((name, pos, end, shape))
            pos = end
        return tuple(out)

    @cached_property
    def size(self) -> int:
        return sum(math.prod(shape) for _, shape in self.segments)

    def to_dict(self) -> dict:
        return {"segments": [[name, list(shape)] for name, shape in self.segments]}

    @classmethod
    def from_dict(cls, d: dict) -> "ParamLayout":
        return cls(tuple((name, tuple(shape)) for name, shape in d["segments"]))


class ModelParams:
    """Flat float64 parameter vector with named views into its segments."""

    __slots__ = ("layout", "values", "_views")

    def __init__(self, layout: ParamLayout, values: np.ndarray | None = None):
        self.layout = layout
        if values is None:
            values = np.zeros(layout.size, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (layout.size,):
            raise ValueError(f"expected {layout.size} values, got shape {values.shape}")
        self.values = values
        self._views = {
            name: values[start:end].reshape(shape)
            for name, start, end, shape in layout.table
        }

    def view(self, name: str) -> np.ndarray:
        return self._views[name]

    def snapshot(self) -> "ModelParams":
        return ModelParams(self.layout, self.values.copy())

    def restore(self, snap: "ModelParams") -> None:
        if snap.layout != self.layout:
            raise ValueError("cannot restore from a snapshot with a different layout")
        self.values[:] = snap.values


def blend(a: ModelParams, b: ModelParams, alpha: float) -> ModelParams:
    """Elementwise alpha * a + (1 - alpha) * b; alpha in [0, 1]."""
    if a.layout != b.layout:
        raise ValueError("blend requires identical parameter layouts")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if alpha == 1.0:
        return a.snapshot()
    if alpha == 0.0:
        return b.snapshot()
    return ModelParams(a.layout, alpha * a.values + (1.0 - alpha) * b.values)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam optimizer state for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float

    @classmethod
    def zeros(cls, size: int, lr: float) -> "AdamState":
        return cls(m=np.zeros(size, dtype=np.float64),
                   v=np.zeros(size, dtype=np.float64), t=0, lr=lr)

    def reset(self) -> None:
        self.m[:] = 0.0
        self.v[:] = 0.0
        self.t = 0


def adam_step(params: ModelParams, grad: np.ndarray, state: AdamState) -> None:
    """One in-place Adam update with bias correction."""
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


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int,
            shape: tuple[int, ...]) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _as_batch(x: np.ndarray, m: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != m:
        raise ValueError(f"expected input of width {m}, got shape {x.shape}")
    return x


class LinearClassifier:
    """Logistic regression: sigmoid(x @ w + b)."""

    def __init__(self, m: int, params: ModelParams | None = None):
        self.m = m
        layout = ParamLayout((("w", (m,)), ("b", (1,))))
        self.params = params if params is not None else ModelParams(layout)
        if self.params.layout != layout:
            raise ValueError("parameter layout does not match input width")

    @property
    def w(self) -> np.ndarray:
        return self.params.view("w")

    @property
    def b(self) -> np.ndarray:
        return self.params.view("b")

    def score(self, x: np.ndarray) -> np.ndarray | float:
        xb = _as_batch(x, self.m)
        p = sigmoid(xb @ self.w + self.b[0])
        return float(p[0]) if np.asarray(x).ndim == 1 else p

    def backward(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of mean BCE with respect to the flat parameters, and the
        probabilities of the forward pass it was taken at."""
        xb = _as_batch(x, self.m)
        y = np.asarray(y, dtype=np.float64)
        prob = sigmoid(xb @ self.w + self.b[0])
        r = (prob - y) / xb.shape[0]
        grad = np.empty(self.params.layout.size, dtype=np.float64)
        grad[: self.m] = xb.T @ r
        grad[self.m] = r.sum()
        if not np.isfinite(grad).all():
            raise NumericError("non-finite gradient in LinearClassifier.backward")
        return grad, prob


class FeedForwardClassifier:
    """Three affine layers (m -> h1 -> h2 -> 1), ReLU hidden, sigmoid output."""

    def __init__(self, m: int, h1: int, h2: int, params: ModelParams | None = None):
        self.m, self.h1, self.h2 = m, h1, h2
        layout = ParamLayout((
            ("W1", (m, h1)), ("b1", (h1,)),
            ("W2", (h1, h2)), ("b2", (h2,)),
            ("W3", (h2, 1)), ("b3", (1,)),
        ))
        self.params = params if params is not None else ModelParams(layout)
        if self.params.layout != layout:
            raise ValueError("parameter layout does not match architecture")

    @classmethod
    def initialized(cls, m: int, h1: int, h2: int, seed: int) -> "FeedForwardClassifier":
        model = cls(m, h1, h2)
        rng = np.random.default_rng(seed)
        model.params.view("W1")[:] = _glorot(rng, m, h1, (m, h1))
        model.params.view("W2")[:] = _glorot(rng, h1, h2, (h1, h2))
        model.params.view("W3")[:] = _glorot(rng, h2, 1, (h2, 1))
        return model

    @property
    def param_count(self) -> int:
        return self.params.layout.size

    def _forward(self, xb: np.ndarray):
        p = self.params
        z1 = xb @ p.view("W1") + p.view("b1")
        a1 = relu(z1)
        z2 = a1 @ p.view("W2") + p.view("b2")
        a2 = relu(z2)
        z3 = (a2 @ p.view("W3"))[:, 0] + p.view("b3")[0]
        return sigmoid(z3), (z1, a1, z2, a2)

    def score(self, x: np.ndarray) -> np.ndarray | float:
        xb = _as_batch(x, self.m)
        prob, _ = self._forward(xb)
        return float(prob[0]) if np.asarray(x).ndim == 1 else prob

    def backward(
        self, x: np.ndarray, y: np.ndarray, return_input_grad: bool = False
    ) -> tuple[np.ndarray, np.ndarray] | tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact gradient of mean BCE and the output probabilities of the
        forward pass it was taken at; optionally also d(loss)/d(input rows)."""
        xb = _as_batch(x, self.m)
        y = np.asarray(y, dtype=np.float64)
        p = self.params
        prob, (z1, a1, z2, a2) = self._forward(xb)

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


class NoiseWrapper:
    """Learnable bounded input perturbation x + tanh(g(eta)).

    ``g`` is a two-layer MLP over a fixed vector ``eta``; its tanh output
    keeps every perturbation component inside (-1, 1). The perturbation
    depends only on the wrapper parameters, so it is shared by all rows.
    """

    def __init__(self, m: int, hidden: int, eta: np.ndarray,
                 params: ModelParams | None = None):
        self.m, self.hidden = m, hidden
        eta = np.array(eta, dtype=np.float64)
        if eta.shape != (m,):
            raise ValueError(f"eta must have shape ({m},)")
        eta.setflags(write=False)
        self.eta = eta
        layout = ParamLayout((
            ("V1", (m, hidden)), ("c1", (hidden,)),
            ("V2", (hidden, m)), ("c2", (m,)),
        ))
        self.params = params if params is not None else ModelParams(layout)
        if self.params.layout != layout:
            raise ValueError("parameter layout does not match architecture")

    @classmethod
    def initialized(cls, m: int, hidden: int, seed: int) -> "NoiseWrapper":
        rng = np.random.default_rng(seed)
        eta = rng.standard_normal(m)
        model = cls(m, hidden, eta)
        model.params.view("V1")[:] = _glorot(rng, m, hidden, (m, hidden))
        model.params.view("V2")[:] = _glorot(rng, hidden, m, (hidden, m))
        return model

    def _forward(self):
        p = self.params
        z = self.eta @ p.view("V1") + p.view("c1")
        u = relu(z)
        pert = np.clip(np.tanh(u @ p.view("V2") + p.view("c2")),
                       -_TANH_LIMIT, _TANH_LIMIT)
        return pert, (z, u)

    def perturbation(self) -> np.ndarray:
        pert, _ = self._forward()
        return pert

    def apply(self, x: np.ndarray) -> np.ndarray:
        xb = _as_batch(x, self.m)
        out = xb + self.perturbation()
        return out[0] if np.asarray(x).ndim == 1 else out

    def backward(self, d_xtilde: np.ndarray) -> np.ndarray:
        """Chain upstream d(loss)/d(x~) rows into wrapper parameter gradients."""
        d_xtilde = np.atleast_2d(np.asarray(d_xtilde, dtype=np.float64))
        if d_xtilde.shape[1] != self.m:
            raise ValueError("upstream gradient width mismatch")
        pert, (z, u) = self._forward()
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


def predict_labels(scores: np.ndarray) -> np.ndarray:
    """Threshold probabilities at 0.5, ties going to the positive class."""
    return (np.asarray(scores) >= 0.5).astype(np.int64)


def lr_fit(train, epochs: int, learning_rate: float) -> LinearClassifier:
    """Fit logistic regression with full-batch Adam updates from zero init.

    Deterministic: there is no sampling and no random initialization.
    """
    if train.n == 0:
        raise ConfigError("cannot fit on an empty dataset")
    x = train.x
    y = train.y.astype(np.float64)
    model = LinearClassifier(train.m)
    state = AdamState.zeros(model.params.layout.size, lr=learning_rate)
    for _ in range(epochs):
        grad, prob = model.backward(x, y)
        loss = bce(prob, y)
        if not np.isfinite(loss):
            raise NumericError("non-finite loss in lr_fit (learning rate too large?)")
        adam_step(model.params, grad, state)
    return model
