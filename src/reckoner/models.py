"""Trainable components with hand-derived gradients: logistic regression, a
three-layer feedforward classifier, and a bounded input-noise wrapper, plus
binary cross-entropy and Adam.

All parameters live in flat float64 vectors with a named-segment layout, so
snapshot/restore and elementwise blending are cheap and bit-exact.

Every kernel also takes a stack of S runs of one shape, with a leading run
axis on every parameter vector, input and output, and makes one numpy call
per step for all of them, as model ensembling stacks module states under
``vmap``. Each run's bits are those it gets alone: a stack's products are
its slices' 2-D products, and its sums add the same rows in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError

PROB_EPS = 1e-7  # probability clamp applied before logarithms

# float64 tanh rounds to exactly +/-1 once |t| exceeds ~19, which would break
# the open-interval perturbation contract; clamp half an ulp inside.
_TANH_LIMIT = float(np.nextafter(1.0, 0.0))


def _sigmoid_into(z: np.ndarray, out: np.ndarray, denom: np.ndarray,
                  nonneg: np.ndarray) -> np.ndarray:
    """Branch-free sigmoid of ``z`` into ``out``; ``denom`` (float) and
    ``nonneg`` (bool) are scratch of ``z``'s shape.

    With e = exp(-|z|) it is 1/(1+e) where z >= 0 and e/(1+e) elsewhere. The
    argument -|z| is formed as min(z, -z), which is -z where z >= 0 and z
    itself elsewhere (a NaN keeps its own bits), so every element takes
    exactly the operations of the two-branch form.
    """
    np.greater_equal(z, 0.0, out=nonneg)
    np.negative(z, out=out)
    np.minimum(z, out, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=denom)
    np.divide(out, denom, out=out)
    np.divide(1.0, denom, out=out, where=nonneg)
    return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    return _sigmoid_into(z, np.empty_like(z), np.empty_like(z),
                         np.empty(z.shape, dtype=bool))


def float_zeros(shape: int | tuple[int, ...]) -> np.ndarray:
    """``np.zeros(shape)``; a size past numpy's largest array is a
    MemoryError, as one past the free memory is."""
    size = math.prod(shape) if isinstance(shape, tuple) else shape
    if size > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"cannot allocate {size} float64 values")
    return np.zeros(shape, dtype=np.float64)


def bce(p, y) -> float | np.ndarray:
    """Mean binary cross-entropy over the last axis, with probabilities
    clamped away from {0, 1}: a float (an ``np.float64``) for one run's
    probabilities, one mean per row for a stack's (S, n)."""
    p = np.minimum(np.maximum(np.asarray(p, dtype=np.float64), PROB_EPS), 1.0 - PROB_EPS)
    y = np.asarray(y, dtype=np.float64)
    losses = np.atleast_1d(-(y * np.log(p) + (1.0 - y) * np.log1p(-p)))
    return np.add.reduce(losses, axis=-1) / losses.shape[-1]


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
    """Flat float64 parameter vector with named views into its segments;
    ``parts`` holds the same views in layout order.

    ``values`` may also be a stack of S runs' vectors, one row each (S, P);
    every view then has the leading run axis too. ``run(i)`` is a stack's
    run i, a view of its row.
    """

    __slots__ = ("layout", "values", "parts", "_views")

    def __init__(self, layout: ParamLayout, values: np.ndarray | None = None):
        self.layout = layout
        if values is None:
            values = float_zeros(layout.size)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim not in (1, 2) or values.shape[-1] != layout.size:
            raise ValueError(f"expected {layout.size} values, got shape {values.shape}")
        self.values = values
        lead = values.shape[:-1]
        self.parts = tuple(values[..., start:end].reshape(lead + shape)
                           for _, start, end, shape in layout.table)
        self._views = {name: part for (name, _), part in zip(layout.segments, self.parts)}

    def run(self, i: int) -> "ModelParams":
        return ModelParams(self.layout, self.values[i])

    def view(self, name: str) -> np.ndarray:
        return self._views[name]

    def snapshot(self) -> "ModelParams":
        return ModelParams(self.layout, self.values.copy())

    def restore(self, snap: "ModelParams") -> None:
        if snap.layout != self.layout:
            raise ValueError("cannot restore from a snapshot with a different layout")
        self.values[:] = snap.values


def blend(a: ModelParams, b: ModelParams, alpha: float,
          out: ModelParams | None = None) -> ModelParams:
    """Elementwise alpha * a + (1 - alpha) * b; alpha in [0, 1].

    The result goes to ``out`` when given (it may be ``a`` or ``b``), else
    to new parameters.
    """
    if a.layout != b.layout or (out is not None and out.layout != a.layout):
        raise ValueError("blend requires identical parameter layouts")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if out is None:
        out = ModelParams(a.layout, np.empty_like(a.values))
    if alpha == 1.0:
        np.copyto(out.values, a.values)
    elif alpha == 0.0:
        np.copyto(out.values, b.values)
    else:
        low_share = np.multiply(b.values, 1.0 - alpha)
        np.multiply(a.values, alpha, out=out.values)
        np.add(out.values, low_share, out=out.values)
    return out


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam optimizer state for one flat parameter vector, or a stack's rows
    (whose runs step together and share ``t``), with the scratch vectors
    ``adam_step`` forms its update in."""

    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float
    _step: np.ndarray = field(init=False, repr=False, compare=False)
    _denom: np.ndarray = field(init=False, repr=False, compare=False)
    _finite: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._step = np.empty_like(self.m)
        self._denom = np.empty_like(self.m)
        self._finite = np.empty(self.m.shape, dtype=bool)

    @classmethod
    def zeros(cls, shape: int | tuple[int, ...], lr: float) -> "AdamState":
        return cls(m=np.zeros(shape, dtype=np.float64),
                   v=np.zeros(shape, dtype=np.float64), t=0, lr=lr)

    def run(self, i: int) -> "AdamState":
        """A stack's run ``i``: views of its rows of the moments, at the
        stack's step count as of this call."""
        return AdamState(m=self.m[i], v=self.v[i], t=self.t, lr=self.lr)

    def reset(self) -> None:
        self.m[:] = 0.0
        self.v[:] = 0.0
        self.t = 0


def adam_step(params: ModelParams, grad: np.ndarray, state: AdamState) -> None:
    """One in-place Adam update with bias correction; allocates nothing.

    The moments update first, then the step lr * m_hat / (sqrt(v_hat) + eps)
    is formed in the state's scratch. Only the step is scanned for
    finiteness: a non-finite gradient makes a non-finite step.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.values.shape or state.m.shape != params.values.shape:
        raise ValueError("gradient/state length does not match parameters")
    step, denom = state._step, state._denom
    state.t += 1
    state.m *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=step)
    state.m += step
    state.v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=step)
    step *= grad
    state.v += step
    np.divide(state.m, 1.0 - ADAM_BETA1 ** state.t, out=step)
    step *= state.lr
    np.divide(state.v, 1.0 - ADAM_BETA2 ** state.t, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    if not np.isfinite(step, out=state._finite).all():
        raise NumericError("non-finite update in adam_step")
    params.values -= step


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int,
            shape: tuple[int, ...]) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _rows_of(x: np.ndarray, m: int, lead: tuple[int, ...] = ()) -> np.ndarray:
    """``x`` as the rows a model takes, ``lead + (n, m)``, where ``lead`` is
    its parameters' leading shape: () for one run, whose one (m,) row is
    (1, m), and (S,) for a stack of S runs."""
    x = np.asarray(x, dtype=np.float64)
    if not lead and x.ndim == 1:
        x = x[None, :]
    if x.ndim != len(lead) + 2 or x.shape[:-2] != lead or x.shape[-1] != m:
        want = ", ".join(map(str, lead + ("n", m)))
        raise ValueError(f"expected input of shape ({want}), got shape {x.shape}")
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
        xb = _rows_of(x, self.m)
        p = sigmoid(xb @ self.w + self.b[0])
        return float(p[0]) if np.asarray(x).ndim == 1 else p

    def backward(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of mean BCE with respect to the flat parameters, and the
        probabilities of the forward pass it was taken at."""
        xb = _rows_of(x, self.m)
        y = np.asarray(y, dtype=np.float64)
        prob = sigmoid(xb @ self.w + self.b[0])
        r = (prob - y) / xb.shape[0]
        grad = np.empty(self.params.layout.size, dtype=np.float64)
        grad[: self.m] = xb.T @ r
        grad[self.m] = r.sum()
        if not np.isfinite(grad).all():
            raise NumericError("non-finite gradient in LinearClassifier.backward")
        return grad, prob


def _seeded_zeros(layout: ParamLayout, seed: int | Sequence[int],
                  ) -> tuple[ModelParams, list[tuple[ModelParams, int]]]:
    """Zero parameters to initialize from ``seed``: one vector for one seed,
    a stack with one row per seed for a sequence; and each run's parameters,
    a view of its row, with its seed."""
    lone = np.ndim(seed) == 0
    seeds = [seed] if lone else list(seed)
    values = float_zeros((len(seeds), layout.size))
    runs = [(ModelParams(layout, row), s) for row, s in zip(values, seeds)]
    return ModelParams(layout, values[0] if lone else values), runs


class _Batch:
    """A FeedForwardClassifier's buffers for up to ``n`` rows, behind the
    leading run axes ``lead`` of its parameters (none for one run): the
    forward activations and sigmoid scratch, plus the backward pass's masks
    and upstream gradients when ``backward`` is set."""

    __slots__ = ("n", "z1", "a1", "z2", "a2", "z3", "denom", "nonneg",
                 "dz3", "da2", "mask2", "da1", "mask1", "_head")

    def __init__(self, n: int, h1: int, h2: int, backward: bool,
                 lead: tuple[int, ...] = ()):
        self.n = n
        self.z1, self.a1 = np.empty(lead + (n, h1)), np.empty(lead + (n, h1))
        self.z2, self.a2 = np.empty(lead + (n, h2)), np.empty(lead + (n, h2))
        self.z3 = np.empty(lead + (n, 1))
        self.denom, self.nonneg = np.empty(lead + (n,)), np.empty(lead + (n,), dtype=bool)
        if backward:
            self.dz3 = np.empty(lead + (n,))
            self.da2 = np.empty(lead + (n, h2))
            self.mask2 = np.empty(lead + (n, h2), dtype=bool)
            self.da1 = np.empty(lead + (n, h1))
            self.mask1 = np.empty(lead + (n, h1), dtype=bool)
        self._head: _Batch | None = None

    def head(self, n: int) -> "_Batch":
        """Buffers for ``n <= self.n`` rows: views of each run's first ``n``
        rows of these, kept until another row count is asked for."""
        if n == self.n:
            return self
        if self._head is None or self._head.n != n:
            view = _Batch.__new__(_Batch)
            view.n = n
            rows = (slice(None),) * (self.z3.ndim - 2) + (slice(n),)
            for name in _Batch.__slots__[1:-1]:
                if hasattr(self, name):
                    setattr(view, name, getattr(self, name)[rows])
            self._head = view
        return self._head


class FeedForwardClassifier:
    """Three affine layers (m -> h1 -> h2 -> 1), ReLU hidden, sigmoid output.

    The parameters may be a stack of S runs; inputs are then (S, n, m),
    labels (S, n), and every output has the run axis too. ``run(i)`` is a
    stack's run i as a classifier of its own, on a view of its row. The
    runs of one stack share one set of buffers: use them one at a time.

    ``backward`` and ``score`` each own one set of buffers, and ``backward``
    a gradient vector, all filled in place. A set grows to the most rows
    asked of it; fewer rows use views of its first rows. Every returned
    array is new.
    """

    def __init__(self, m: int, h1: int, h2: int, params: ModelParams | None = None):
        self.m, self.h1, self.h2 = m, h1, h2
        layout = self._layout(m, h1, h2)
        self.params = params if params is not None else ModelParams(layout)
        if self.params.layout != layout:
            raise ValueError("parameter layout does not match architecture")
        self._lead = self.params.values.shape[:-1]
        W1, b1, W2, b2, W3, b3 = self.params.parts
        # The kernels' views: biases broadcast over rows, and W3 as a row.
        self._weights = (W1, b1[..., None, :], W2, b2[..., None, :], W3, b3,
                         W3[..., None, :, 0])
        # score's buffers, then backward's, so that ``backward`` indexes them
        self._work: list[_Batch | None] = [None, None]
        self._runs_work: list[_Batch | None] = [None, None]
        self._grad: ModelParams | None = None
        self._grad_parts: tuple[np.ndarray, ...] = ()

    @staticmethod
    def _layout(m: int, h1: int, h2: int) -> ParamLayout:
        return ParamLayout((
            ("W1", (m, h1)), ("b1", (h1,)),
            ("W2", (h1, h2)), ("b2", (h2,)),
            ("W3", (h2, 1)), ("b3", (1,)),
        ))

    @classmethod
    def initialized(cls, m: int, h1: int, h2: int,
                    seed: int | Sequence[int]) -> "FeedForwardClassifier":
        """Glorot-uniform weights and zero biases drawn from ``seed``; a
        sequence of seeds gives a stack of one run per seed."""
        params, runs = _seeded_zeros(cls._layout(m, h1, h2), seed)
        for run, s in runs:
            rng = np.random.default_rng(s)
            run.view("W1")[:] = _glorot(rng, m, h1, (m, h1))
            run.view("W2")[:] = _glorot(rng, h1, h2, (h1, h2))
            run.view("W3")[:] = _glorot(rng, h2, 1, (h2, 1))
        return cls(m, h1, h2, params)

    def run(self, i: int) -> "FeedForwardClassifier":
        run = FeedForwardClassifier(self.m, self.h1, self.h2, self.params.run(i))
        run._work = self._runs_work
        return run

    @property
    def param_count(self) -> int:
        return self.params.layout.size

    def _forward(self, xb: np.ndarray, backward: bool = False):
        """Output probabilities (a new array) and the activations
        (z1, a1, z2, a2), which live in ``backward``'s buffers when
        ``backward`` is set, else in ``score``'s."""
        n = xb.shape[-2]
        work = self._work[backward]
        if work is None or work.n < n:
            work = self._work[backward] = _Batch(n, self.h1, self.h2, backward, self._lead)
        work = work.head(n)
        W1, b1, W2, b2, W3, b3, _ = self._weights
        z1, a1, z2, a2 = work.z1, work.a1, work.z2, work.a2
        np.matmul(xb, W1, out=z1)
        z1 += b1
        np.maximum(z1, 0.0, out=a1)
        np.matmul(a1, W2, out=z2)
        z2 += b2
        np.maximum(z2, 0.0, out=a2)
        np.matmul(a2, W3, out=work.z3)
        z3 = work.z3[..., 0]
        z3 += b3
        prob = _sigmoid_into(z3, np.empty(z3.shape), work.denom, work.nonneg)
        return prob, (z1, a1, z2, a2)

    def score(self, x: np.ndarray) -> np.ndarray | float:
        """Output probabilities."""
        prob, _ = self._forward(_rows_of(x, self.m, self._lead))
        return float(prob[0]) if np.asarray(x).ndim == 1 else prob

    def backward(
        self, x: np.ndarray, y: np.ndarray, return_input_grad: bool = False
    ) -> tuple[np.ndarray, np.ndarray] | tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact gradient of mean BCE and the output probabilities of the
        forward pass it was taken at; optionally also d(loss)/d(input rows)."""
        xb = _rows_of(x, self.m, self._lead)
        y = np.asarray(y, dtype=np.float64)
        n = xb.shape[-2]
        prob, (z1, a1, z2, a2) = self._forward(xb, backward=True)
        work = self._work[True].head(n)
        if self._grad is None:
            self._grad = ModelParams(self.params.layout,
                                     float_zeros(self.params.values.shape))
            gW1, gb1, gW2, gb2, gW3, gb3 = self._grad.parts
            self._grad_parts = (gW1, gb1, gW2, gb2, gW3, gb3[..., 0])
        W1, _, W2, _, _, _, W3_row = self._weights
        gW1, gb1, gW2, gb2, gW3, gb3 = self._grad_parts

        dz3 = np.subtract(prob, y, out=work.dz3)
        dz3 /= n
        np.matmul(a2.mT, dz3[..., None], out=gW3)
        np.add.reduce(dz3, axis=-1, out=gb3)
        # The k = 1 product dz3[:, None] @ W3.T, elementwise. Where it gives
        # -0.0 the matrix product gives +0.0; every use of da2 below ends in
        # a matrix product or a sum, which start from +0.0, so the gradient
        # bits are the same.
        da2 = np.multiply(dz3[..., None], W3_row, out=work.da2)
        da2 *= np.greater(z2, 0, out=work.mask2)
        np.matmul(a1.mT, da2, out=gW2)
        np.add.reduce(da2, axis=-2, out=gb2)
        da1 = np.matmul(da2, W2.mT, out=work.da1)
        da1 *= np.greater(z1, 0, out=work.mask1)
        np.matmul(xb.mT, da1, out=gW1)
        np.add.reduce(da1, axis=-2, out=gb1)
        grad = self._grad.values
        if not np.isfinite(grad).all():
            raise NumericError("non-finite gradient in FeedForwardClassifier.backward")
        if return_input_grad:
            return grad.copy(), prob, da1 @ W1.mT
        return grad.copy(), prob


class NoiseWrapper:
    """Learnable bounded input perturbation x + tanh(g(eta)).

    ``g`` is a two-layer MLP over a fixed vector ``eta``; its tanh output
    keeps every perturbation component inside (-1, 1). The perturbation
    depends only on the wrapper parameters, so it is shared by all rows.
    Its activations and gradient live in buffers of the wrapper's own size;
    every returned array is new, or the ``out`` given to ``apply``.

    The parameters may be a stack of S runs, each with its own ``eta`` row
    (S, m); inputs and upstream gradients are then (S, n, m), and every
    vector has the run axis too. ``run(i)`` is a stack's run i as a wrapper
    of its own, on a view of its row.
    """

    def __init__(self, m: int, hidden: int, eta: np.ndarray,
                 params: ModelParams | None = None):
        self.m, self.hidden = m, hidden
        layout = self._layout(m, hidden)
        self.params = params if params is not None else ModelParams(layout)
        if self.params.layout != layout:
            raise ValueError("parameter layout does not match architecture")
        self._lead = lead = self.params.values.shape[:-1]
        eta = np.array(eta, dtype=np.float64)
        if eta.shape != lead + (m,):
            raise ValueError(f"eta must have shape {lead + (m,)}")
        eta.setflags(write=False)
        self.eta = eta
        self._z, self._u, self._du = (np.empty(lead + (hidden,)) for _ in range(3))
        self._active = np.empty(lead + (hidden,), dtype=bool)
        self._pert, self._d_out, self._slope = (np.empty(lead + (m,)) for _ in range(3))
        self._grad = ModelParams(layout, float_zeros(self.params.values.shape))
        # Each run's vectors as one-row and one-column matrices, for the
        # products: a stack's are (S, 1, k) and (S, k, 1).
        self._rows = tuple(a[..., None, :] for a in (self.eta, self._z, self._u,
                                                     self._du, self._d_out, self._pert))
        self._cols = tuple(a[..., None] for a in (self.eta, self._u, self._du, self._d_out))

    @staticmethod
    def _layout(m: int, hidden: int) -> ParamLayout:
        return ParamLayout((
            ("V1", (m, hidden)), ("c1", (hidden,)),
            ("V2", (hidden, m)), ("c2", (m,)),
        ))

    @classmethod
    def initialized(cls, m: int, hidden: int, seed: int | Sequence[int]) -> "NoiseWrapper":
        """``eta`` and then Glorot-uniform weights drawn from ``seed``, and
        zero biases; a sequence of seeds gives a stack of one run per seed."""
        params, runs = _seeded_zeros(cls._layout(m, hidden), seed)
        etas = []
        for run, s in runs:
            rng = np.random.default_rng(s)
            etas.append(rng.standard_normal(m))
            run.view("V1")[:] = _glorot(rng, m, hidden, (m, hidden))
            run.view("V2")[:] = _glorot(rng, hidden, m, (hidden, m))
        return cls(m, hidden, np.reshape(etas, params.values.shape[:-1] + (m,)), params)

    def run(self, i: int) -> "NoiseWrapper":
        return NoiseWrapper(self.m, self.hidden, self.eta[i], self.params.run(i))

    def _forward(self):
        """The perturbation and the activations (z, u), all in the wrapper's
        buffers."""
        V1, c1, V2, c2 = self.params.parts
        eta_row, z_row, u_row, _, _, pert_row = self._rows
        z, u, pert = self._z, self._u, self._pert
        np.matmul(eta_row, V1, out=z_row)
        z += c1
        np.maximum(z, 0.0, out=u)
        np.matmul(u_row, V2, out=pert_row)
        pert += c2
        np.tanh(pert, out=pert)
        np.maximum(pert, -_TANH_LIMIT, out=pert)
        np.minimum(pert, _TANH_LIMIT, out=pert)
        return pert, (z, u)

    def perturbation(self) -> np.ndarray:
        pert, _ = self._forward()
        return pert.copy()

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``x`` plus the perturbation, in ``out`` (which may be ``x``) when
        given, else in a new array."""
        rows = _rows_of(x, self.m, self._lead)
        self._forward()
        out = np.add(rows, self._rows[-1], out=out)
        return out[0] if np.asarray(x).ndim == 1 else out

    def backward(self, d_xtilde: np.ndarray) -> np.ndarray:
        """Chain upstream d(loss)/d(x~) rows into wrapper parameter gradients.

        The perturbation and activations are those the last ``apply`` or
        ``perturbation`` left in the wrapper's buffers, not computed again:
        call one of them first, and do not change the parameters between
        that call and this one.
        """
        d_xtilde = _rows_of(d_xtilde, self.m, self._lead)
        pert, z = self._pert, self._z
        _, _, _, du_row, d_out_row, _ = self._rows
        eta_col, u_col, du_col, d_out_col = self._cols
        gV1, gc1, gV2, gc2 = self._grad.parts
        d_out = np.add.reduce(d_xtilde, axis=-2, out=self._d_out)
        slope = np.multiply(pert, pert, out=self._slope)
        np.subtract(1.0, slope, out=slope)
        d_out *= slope
        np.multiply(u_col, d_out_row, out=gV2)
        gc2[:] = d_out
        np.matmul(self.params.parts[2], d_out_col, out=du_col)
        dz = self._du
        dz *= np.greater(z, 0, out=self._active)
        np.multiply(eta_col, du_row, out=gV1)
        gc1[:] = dz
        grad = self._grad.values
        if not np.isfinite(grad).all():
            raise NumericError("non-finite gradient in NoiseWrapper.backward")
        return grad.copy()


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
