"""Dense MLP regressor with hand-rolled reverse-mode gradients and Adam.

The network topology is feed-forward dense layers (ReLU hidden, tanh head)
with inverted dropout after each hidden layer. Gradients are exact and are
available with respect to both the parameters and the input vector, which is
what the white-box attack code consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .framing import read_framed, write_framed

RELU = "relu"
TANH = "tanh"

_MAGIC = b"BMMLP1"


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
    """First/second moment accumulators, one (m_w, v_w, m_b, v_b) per layer."""

    moments: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


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


def _forward_batch(model, X, rng=None):
    """Run the stack on a (B, input_dim) batch; returns (preds (B,), caches).

    With an rng the pass is in train mode and draws dropout masks from it;
    without one it is the inference pass.
    """
    out = X
    caches = []
    for layer in model.layers:
        pre = out @ layer.weights.T + layer.bias
        if layer.activation == RELU:
            act = np.maximum(pre, 0.0)
        else:
            act = np.tanh(pre)
        if rng is not None and layer.dropout_ratio > 0.0:
            keep = 1.0 - layer.dropout_ratio
            # inverted dropout: scale at train time so inference needs no rescale
            mask = (rng.random(act.shape) < keep) / keep
            dropped = act * mask
        else:
            mask = None
            dropped = act
        caches.append((out, pre, act, mask))
        out = dropped
    return out[:, 0], caches


def _backward_batch(model, caches, dout, need_param_grads=True, need_input_grads=False):
    """Reverse pass. dout is dLoss/dpred, shape (B,). Returns (param_grads, dX)."""
    delta = dout[:, None]
    param_grads: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(model.layers)
    for idx in range(len(model.layers) - 1, -1, -1):
        inp, pre, act, mask = caches[idx]
        layer = model.layers[idx]
        if mask is not None:
            delta = delta * mask
        if layer.activation == RELU:
            dpre = delta * (pre > 0.0)
        else:
            dpre = delta * (1.0 - act * act)
        if need_param_grads:
            param_grads[idx] = (dpre.T @ inp, dpre.sum(axis=0))
        if idx > 0 or need_input_grads:
            delta = dpre @ layer.weights
    input_grad = delta if need_input_grads else None
    return param_grads, input_grad


def predict(model: MlpModel, X) -> np.ndarray:
    """Inference-mode predictions for a (B, input_dim) feature matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(f"feature matrix must have shape (B, {model.input_dim})")
    preds, _ = _forward_batch(model, X)
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
    """Per-row gradients of each row's own squared error wrt that row's features."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(f"feature matrix must have shape (B, {model.input_dim})")
    if y.shape != (X.shape[0],):
        raise ValueError("label vector length must match feature rows")
    preds, caches = _forward_batch(model, X)
    dout = 2.0 * (preds - y)
    _, dX = _backward_batch(model, caches, dout, need_param_grads=False, need_input_grads=True)
    return dX


def init_adam_state(model: MlpModel) -> AdamState:
    moments = [
        (
            np.zeros_like(l.weights),
            np.zeros_like(l.weights),
            np.zeros_like(l.bias),
            np.zeros_like(l.bias),
        )
        for l in model.layers
    ]
    return AdamState(moments=moments)


def adam_step(
    model: MlpModel,
    grads: Sequence[Tuple[np.ndarray, np.ndarray]],
    state: AdamState,
    cfg: TrainConfig,
    t: int,
) -> Tuple[MlpModel, AdamState]:
    """One bias-corrected Adam update in place; t is the 1-based step counter."""
    if t < 1:
        raise ValueError("step counter t must be >= 1")
    if len(grads) != len(model.layers):
        raise ValueError("gradient list length must match layer count")
    b1, b2, eps, lr = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon, cfg.learning_rate
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for layer, (dw, db), (m_w, v_w, m_b, v_b) in zip(model.layers, grads, state.moments):
        if dw.shape != layer.weights.shape or db.shape != layer.bias.shape:
            raise ValueError("gradient shapes must match parameter shapes")
        m_w *= b1
        m_w += (1.0 - b1) * dw
        v_w *= b2
        v_w += (1.0 - b2) * dw * dw
        layer.weights -= lr * (m_w / c1) / (np.sqrt(v_w / c2) + eps)
        m_b *= b1
        m_b += (1.0 - b1) * db
        v_b *= b2
        v_b += (1.0 - b2) * db * db
        layer.bias -= lr * (m_b / c1) / (np.sqrt(v_b / c2) + eps)
    return model, state


def _check_finite(model):
    for i, layer in enumerate(model.layers):
        if not np.isfinite(layer.weights).all() or not np.isfinite(layer.bias).all():
            raise NumericalError(f"non-finite parameters in layer {i}")


def train(model: MlpModel, data, cfg: TrainConfig, rng) -> Tuple[MlpModel, List[float]]:
    """Mini-batch Adam training on MSE; returns the model and per-epoch mean loss.

    `data` is any object exposing `features` (n, input_dim) and `labels` (n,).
    Shuffling and dropout masks are drawn from the supplied generator, so a
    fixed seed reproduces the final weights bit for bit. Labels must lie
    strictly inside the tanh range (-1, 1).
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
    state = init_adam_state(model)
    t = 0
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb = X[idx], y[idx]
            preds, caches = _forward_batch(model, xb, rng)
            err = preds - yb
            losses.append(float(np.mean(err * err)))
            dout = 2.0 * err / idx.size
            grads, _ = _backward_batch(model, caches, dout)
            t += 1
            adam_step(model, grads, state, cfg, t)
            _check_finite(model)
        history.append(float(np.mean(losses)))
    return model, history


_MODEL_KEYS = ("input_dim", "seed", "layers")


def save_model(model: MlpModel, path) -> None:
    """Framed checkpoint (BMMLP1): JSON header, then each layer's weights and bias."""
    header = {
        "input_dim": model.input_dim,
        "seed": model.rng_seed,
        "layers": [
            {
                "in_dim": l.in_dim,
                "out_dim": l.out_dim,
                "activation": l.activation,
                "dropout_ratio": l.dropout_ratio,
            }
            for l in model.layers
        ],
    }
    write_framed(path, _MAGIC, header, [a for l in model.layers for a in (l.weights, l.bias)])


def load_model(path) -> MlpModel:
    """Read a checkpoint; a malformed one raises framing.FormatError."""

    def decode(header, take):
        layers = []
        for entry in header["layers"]:
            weights = take((entry["out_dim"], entry["in_dim"]))
            bias = take((entry["out_dim"],))
            layers.append(DenseLayer(weights, bias, entry["activation"], entry["dropout_ratio"]))
        return MlpModel(layers=layers, input_dim=header["input_dim"], rng_seed=header["seed"])

    return read_framed(path, _MAGIC, _MODEL_KEYS, decode)
