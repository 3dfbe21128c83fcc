"""Dense MLP regressor with hand-rolled reverse-mode gradients and Adam.

The network topology is feed-forward dense layers (ReLU hidden, tanh head)
with inverted dropout after each hidden layer. Gradients are exact and are
available with respect to both the parameters and the input vector, which is
what the white-box attack code consumes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .framing import read_framed, write_framed

RELU = "relu"
TANH = "tanh"

_MAGIC = b"BMMLP1"

# predict and input_gradients run this many rows at a time: at width 100 a
# block's buffers stay in L2 cache. With no block shorter than this (the last
# one takes the remainder) their bits equal one pass over all rows on
# OpenBLAS 0.3.31; shorter blocks take other BLAS kernels and move the bits.
_BLOCK_ROWS = 512


class NumericalError(ArithmeticError):
    """Raised when a computation produces NaN/Inf where finite values are required."""


@dataclass
class DenseLayer:
    """One affine map plus activation; dropout_ratio applies after activation."""

    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str
    dropout_ratio: float = 0.0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("weights must be a 2-D matrix")
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError("bias length must match weight rows")
        if self.activation not in (RELU, TANH):
            raise ValueError(f"unknown activation: {self.activation!r}")
        if not 0.0 <= self.dropout_ratio < 1.0:
            raise ValueError("dropout_ratio must lie in [0, 1)")

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class MlpModel:
    layers: List[DenseLayer]
    input_dim: int
    rng_seed: int

    def __post_init__(self):
        if not self.layers:
            raise ValueError("model needs at least one layer")
        if self.layers[0].in_dim != self.input_dim:
            raise ValueError("first layer width must match input_dim")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.in_dim != prev.out_dim:
                raise ValueError("layer dimensions do not chain")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 100
    epochs: int = 10
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not 0.0 <= self.adam_beta1 < 1.0 or not 0.0 <= self.adam_beta2 < 1.0:
            raise ValueError("Adam betas must lie in [0, 1)")
        if self.adam_epsilon <= 0:
            raise ValueError("adam_epsilon must be positive")


@dataclass
class AdamState:
    """First/second moment accumulators over a flat parameter vector, and two
    work vectors of the same length that each update writes through."""

    m: np.ndarray
    v: np.ndarray
    work: Tuple[np.ndarray, np.ndarray]


def init_model(
    input_dim: int,
    seed: int,
    hidden_dims: Sequence[int] = (100, 100, 100),
    dropout_ratio: float = 0.25,
) -> MlpModel:
    """Build a fresh model: ReLU hidden stack, tanh head, uniform ±1/sqrt(fan_in) weights."""
    if input_dim < 1:
        raise ValueError("input_dim must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if any(h < 1 for h in hidden_dims):
        raise ValueError("hidden widths must be at least 1")
    rng = np.random.default_rng(seed)
    dims = [int(input_dim), *[int(h) for h in hidden_dims], 1]
    layers = []
    for i in range(len(dims) - 1):
        fan_in, out = dims[i], dims[i + 1]
        bound = 1.0 / np.sqrt(fan_in)
        weights = rng.uniform(-bound, bound, size=(out, fan_in))
        last = i == len(dims) - 2
        layers.append(
            DenseLayer(
                weights=weights,
                bias=np.zeros(out),
                activation=TANH if last else RELU,
                dropout_ratio=0.0 if last else float(dropout_ratio),
            )
        )
    return MlpModel(layers=layers, input_dim=int(input_dim), rng_seed=int(seed))


def copy_model(model: MlpModel) -> MlpModel:
    """Deep copy (fresh parameter arrays)."""
    layers = [
        DenseLayer(l.weights.copy(), l.bias.copy(), l.activation, l.dropout_ratio)
        for l in model.layers
    ]
    return MlpModel(layers=layers, input_dim=model.input_dim, rng_seed=model.rng_seed)


class _Workspace:
    """Buffers for the passes of one call over batches of at most `rows` rows.

    The forward pass writes each layer's activation, and in train mode its
    dropout mask and dropped output, into buffers of its own; `caches` holds
    each layer's (input, activation, mask) views from the last forward pass.
    The backward pass shares three buffers across layers, sized to the
    widest layer and allocated on its first use.
    """

    def __init__(self, model, rows, train):
        self.rows = rows
        self.width = max(model.input_dim, *(l.out_dim for l in model.layers))
        self.act = [np.empty((rows, l.out_dim)) for l in model.layers]
        dropout = [train and l.dropout_ratio > 0.0 for l in model.layers]
        self.mask = [np.empty(a.shape) if d else None for a, d in zip(self.act, dropout)]
        self.dropped = [np.empty(a.shape) if d else None for a, d in zip(self.act, dropout)]
        self.caches = []
        self.back = None

    def back_buffer(self, which, rows, width):
        """Backward buffer 0 (dpre), 1 (factor) or 2 (delta) as a (rows, width) view."""
        if self.back is None:
            self.back = np.empty((3, self.rows * self.width))
        return self.back[which, : rows * width].reshape(rows, width)


def _forward_batch(model, X, rng=None, ws=None):
    """Run the stack on a (B, input_dim) batch; returns (preds (B,), ws).

    With an rng the pass is in train mode and draws dropout masks from it;
    without one it is the inference pass. Every layer writes into the
    buffers of `ws` (a fresh workspace when None), which then holds the
    caches of the backward pass; preds is a view into it.
    """
    rows = X.shape[0]
    if ws is None:
        ws = _Workspace(model, rows, train=rng is not None)
    out = X
    ws.caches = []
    for layer, act, mask, dropped in zip(model.layers, ws.act, ws.mask, ws.dropped):
        act = np.matmul(out, layer.weights.T, out=act[:rows])
        act += layer.bias
        if layer.activation == RELU:
            np.maximum(act, 0.0, out=act)
        else:
            np.tanh(act, out=act)
        if rng is not None and layer.dropout_ratio > 0.0:
            keep = 1.0 - layer.dropout_ratio
            # inverted dropout: scale at train time so inference needs no rescale
            mask = rng.random(out=mask[:rows])
            np.less(mask, keep, out=mask)
            mask /= keep
            dropped = np.multiply(act, mask, out=dropped[:rows])
        else:
            mask = None
            dropped = act
        ws.caches.append((out, act, mask))
        out = dropped
    return out[:, 0], ws


def _backward_batch(model, ws, dout, grads=None, need_input_grads=False):
    """Reverse pass through the last forward pass of workspace `ws`. dout is
    dLoss/dpred, shape (B,). Writes each layer's (dW, db) into the matching
    pair of `grads` when given; returns dLoss/dX when need_input_grads, else
    None.
    """
    rows = dout.shape[0]
    delta = dout[:, None]
    for idx in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[idx]
        inp, act, mask = ws.caches[idx]
        dpre = ws.back_buffer(0, rows, layer.out_dim)
        factor = ws.back_buffer(1, rows, layer.out_dim)
        if layer.activation == RELU:
            np.greater(act, 0.0, out=factor)  # act > 0 exactly where pre > 0
        else:
            np.multiply(act, act, out=factor)
            np.subtract(1.0, factor, out=factor)
        if mask is not None:
            np.multiply(delta, mask, out=dpre)
            dpre *= factor
        else:
            np.multiply(delta, factor, out=dpre)
        if grads is not None:
            dw, db = grads[idx]
            np.matmul(dpre.T, inp, out=dw)
            np.sum(dpre, axis=0, out=db)
        if idx > 0 or need_input_grads:
            delta = np.matmul(dpre, layer.weights, out=ws.back_buffer(2, rows, layer.in_dim))
    return delta if need_input_grads else None


def _blocks(model, n):
    """Row slices covering n rows in _BLOCK_ROWS-row blocks, the remainder
    folded into the last block (one block when n < _BLOCK_ROWS), and an
    inference workspace sized to that last, largest block."""
    count = max(1, n // _BLOCK_ROWS)
    rows = [
        slice(i * _BLOCK_ROWS, n if i == count - 1 else (i + 1) * _BLOCK_ROWS)
        for i in range(count)
    ]
    return rows, _Workspace(model, n - rows[-1].start, train=False)


def predict(model: MlpModel, X) -> np.ndarray:
    """Inference-mode predictions for a (B, input_dim) feature matrix, run
    block by block through one workspace."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(f"feature matrix must have shape (B, {model.input_dim})")
    blocks, ws = _blocks(model, X.shape[0])
    preds = np.empty(X.shape[0])
    for rows in blocks:
        preds[rows] = _forward_batch(model, X[rows], ws=ws)[0]
    return preds


def mse_loss(pred, target) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError("prediction/target length mismatch")
    if pred.size == 0:
        raise ValueError("mse_loss of empty vectors is undefined")
    diff = pred - target
    return float(np.mean(diff * diff))


def input_gradients(model: MlpModel, X, y) -> np.ndarray:
    """Per-row gradients of each row's own squared error wrt that row's
    features, run block by block through one workspace."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(f"feature matrix must have shape (B, {model.input_dim})")
    if y.shape != (X.shape[0],):
        raise ValueError("label vector length must match feature rows")
    blocks, ws = _blocks(model, X.shape[0])
    grads = np.empty(X.shape)
    for rows in blocks:
        preds, _ = _forward_batch(model, X[rows], ws=ws)
        dout = 2.0 * (preds - y[rows])
        grads[rows] = _backward_batch(model, ws, dout, need_input_grads=True)
    return grads


def _layer_views(model, flat):
    """Per-layer (weights, bias) views of a flat vector, laid out layer by layer."""
    views, at = [], 0
    for layer in model.layers:
        end = at + layer.weights.size
        views.append((flat[at:end].reshape(layer.weights.shape), flat[end : end + layer.out_dim]))
        at = end + layer.out_dim
    return views


def init_adam_state(params: np.ndarray) -> AdamState:
    return AdamState(
        m=np.zeros_like(params),
        v=np.zeros_like(params),
        work=(np.empty_like(params), np.empty_like(params)),
    )


def adam_step(
    params: np.ndarray, grad: np.ndarray, state: AdamState, cfg: TrainConfig, t: int
) -> None:
    """One bias-corrected Adam update of a flat parameter vector in place; t is
    the 1-based step counter."""
    if t < 1:
        raise ValueError("step counter t must be >= 1")
    if grad.shape != params.shape or state.m.shape != params.shape:
        raise ValueError("gradient and moment shapes must match the parameter vector")
    b1, b2, eps, lr = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon, cfg.learning_rate
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    m, v, (step, scale) = state.m, state.v, state.work
    m *= b1
    m += np.multiply(grad, 1.0 - b1, out=step)
    v *= b2
    np.multiply(grad, 1.0 - b2, out=step)
    step *= grad
    v += step
    np.divide(m, c1, out=step)
    step *= lr
    np.divide(v, c2, out=scale)
    np.sqrt(scale, out=scale)
    scale += eps
    step /= scale
    params -= step


def train(model: MlpModel, data, cfg: TrainConfig, rng) -> Tuple[MlpModel, List[float]]:
    """Mini-batch Adam training on MSE; returns the model and per-epoch mean loss.

    `data` is any object exposing `features` (n, input_dim) and `labels` (n,).
    Shuffling and dropout masks are drawn from the supplied generator, so a
    fixed seed reproduces the final weights bit for bit. Labels must lie
    strictly inside the tanh range (-1, 1). The model is updated in place:
    its layers' weights and biases become views of one flat parameter vector.
    """
    X = np.asarray(data.features, dtype=np.float64)
    y = np.asarray(data.labels, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training data must be a nonempty (n, input_dim) matrix")
    if X.shape[1] != model.input_dim:
        raise ValueError(f"feature width {X.shape[1]} does not match input_dim {model.input_dim}")
    if y.shape != (X.shape[0],):
        raise ValueError("label vector length must match feature rows")
    if np.any(np.abs(y) >= 1.0):
        raise ValueError("labels must lie strictly inside the tanh range (-1, 1)")
    n = X.shape[0]
    params = np.empty(sum(l.weights.size + l.bias.size for l in model.layers))
    for layer, (w, b) in zip(model.layers, _layer_views(model, params)):
        w[...], b[...] = layer.weights, layer.bias
        layer.weights, layer.bias = w, b
    grad = np.empty_like(params)
    grads = _layer_views(model, grad)
    state = init_adam_state(params)
    rows = min(cfg.batch_size, n)
    ws = _Workspace(model, rows, train=True)
    xb_buf, yb_buf = np.empty((rows, X.shape[1])), np.empty(rows)
    t = 0
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = np.take(X, idx, axis=0, out=xb_buf[: idx.size])
            yb = np.take(y, idx, out=yb_buf[: idx.size])
            preds, _ = _forward_batch(model, xb, rng, ws)
            err = preds - yb
            losses.append(float(np.mean(err * err)))
            dout = 2.0 * err / idx.size
            _backward_batch(model, ws, dout, grads)
            t += 1
            adam_step(params, grad, state, cfg, t)
            if not np.isfinite(params).all():
                bad = next(
                    i for i, l in enumerate(model.layers)
                    if not (np.isfinite(l.weights).all() and np.isfinite(l.bias).all())
                )
                raise NumericalError(f"non-finite parameters in layer {bad}")
        history.append(float(np.mean(losses)))
    return model, history


def fit(data, cfg: TrainConfig, rng) -> Tuple[MlpModel, List[float]]:
    """Train a fresh model on `data`: the first draw of rng seeds init_model,
    then train() draws its shuffles and dropout masks from the same rng."""
    model = init_model(np.shape(data.features)[-1], int(rng.integers(0, 2**63)))
    return train(model, data, cfg, rng)


@dataclass(frozen=True)
class _LayerHeader:
    """One entry of a checkpoint header's layer list."""

    in_dim: int
    out_dim: int
    activation: str
    dropout_ratio: float


@dataclass(frozen=True)
class _ModelHeader:
    input_dim: int
    seed: int
    layers: Tuple[_LayerHeader, ...]


def save_model(model: MlpModel, path) -> None:
    """Framed checkpoint (BMMLP1): JSON header, then each layer's weights and bias."""
    layers = [
        _LayerHeader(l.in_dim, l.out_dim, l.activation, l.dropout_ratio) for l in model.layers
    ]
    header = asdict(_ModelHeader(model.input_dim, model.rng_seed, layers))
    write_framed(path, _MAGIC, header, [a for l in model.layers for a in (l.weights, l.bias)])


def load_model(path) -> MlpModel:
    """Read a checkpoint; a malformed one raises framing.FormatError.

    The header and each of its layer entries must have exactly the fields of
    _ModelHeader and _LayerHeader, typed by config.load in read_framed.
    """

    def decode(head, take):
        layers = []
        for spec in head.layers:
            weights = take((spec.out_dim, spec.in_dim))
            bias = take((spec.out_dim,))
            layers.append(DenseLayer(weights, bias, spec.activation, spec.dropout_ratio))
        return MlpModel(layers=layers, input_dim=head.input_dim, rng_seed=head.seed)

    return read_framed(path, _MAGIC, _ModelHeader, decode)
