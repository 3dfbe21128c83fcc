"""Dense MLP regressor with hand-rolled reverse-mode gradients and Adam.

The network is one fixed architecture (ModelSpec): ReLU hidden layers, each
followed by inverted dropout in train mode, and a tanh head, so a layer's
nonlinearity follows from its position. Gradients are exact and are available
with respect to both the parameters and the input vector, which is what the
white-box attack code consumes.
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .config import dump
from .framing import read_framed, write_framed

# Adam's moment decay rates and denominator offset (Kingma and Ba, arXiv:1412.6980).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

_MAGIC = b"BMMLP2"

# predict and input_gradients run this many rows at a time: at width 100 a
# block's buffers stay in L2 cache. With no block shorter than this (the last
# one takes the remainder) their bits equal one pass over all rows on
# OpenBLAS 0.3.31; shorter blocks take other BLAS kernels and move the bits.
_BLOCK_ROWS = 512

# OpenBLAS's thread-count setter under the names numpy builds export it by.
_BLAS_THREADS_SYMBOLS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


class NumericalError(ArithmeticError):
    """Raised when a computation produces NaN/Inf where finite values are required."""


@dataclass(frozen=True)
class ModelSpec:
    """The architecture of an MlpModel and the header of its checkpoint:
    dense layers of the widths `widths`, dropout_ratio on each hidden layer,
    and the seed of the initial weights."""

    input_dim: int
    hidden_dims: Tuple[int, ...]
    dropout_ratio: float
    seed: int

    def __post_init__(self):
        if min(self.widths) < 1:
            raise ValueError("layer widths must be at least 1")
        if not 0.0 <= self.dropout_ratio < 1.0:
            raise ValueError("dropout_ratio must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    @property
    def widths(self) -> Tuple[int, ...]:
        """The input width, each hidden width, then the head's width 1."""
        return (self.input_dim, *self.hidden_dims, 1)

    @property
    def size(self) -> int:
        """Length of the parameter vector: every layer's weights and bias."""
        w = self.widths
        return sum(out_dim * (in_dim + 1) for in_dim, out_dim in zip(w, w[1:]))


class Layer(NamedTuple):
    """Views of a layer's weights (out_dim, in_dim) and bias (out_dim,) in
    the model's parameter vector."""

    weights: np.ndarray
    bias: np.ndarray


class MlpModel:
    """A ModelSpec and one float64 parameter vector (a copy of `params`);
    `layers` holds each layer's views into that vector, the head last."""

    def __init__(self, spec: ModelSpec, params):
        self.spec = spec
        self.params = np.array(params, dtype=np.float64)
        if self.params.shape != (spec.size,):
            raise ValueError(f"parameter vector must have shape ({spec.size},)")
        self.layers = tuple(Layer(w, b) for w, b in _layer_views(spec, self.params))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 100
    epochs: int = 10

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")


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
    """Build a fresh model: uniform ±1/sqrt(fan_in) weights, zero biases."""
    hidden = tuple(int(h) for h in hidden_dims)
    spec = ModelSpec(int(input_dim), hidden, float(dropout_ratio), int(seed))
    model = MlpModel(spec, np.zeros(spec.size))
    rng = np.random.default_rng(seed)
    for fan_in, layer in zip(spec.widths, model.layers):
        bound = 1.0 / np.sqrt(fan_in)
        layer.weights[...] = rng.uniform(-bound, bound, size=layer.weights.shape)
    return model


def copy_model(model: MlpModel) -> MlpModel:
    """Deep copy (a fresh parameter vector)."""
    return MlpModel(model.spec, model.params)


class _Workspace:
    """Buffers for the passes of one call over batches of at most `rows` rows.

    The forward pass writes each layer's activation, and in train mode each
    hidden layer's dropout mask, into buffers of its own, and drops a hidden
    layer's units in its activation buffer; `caches` holds each layer's
    (input, activation, mask) views from the last forward pass. With
    `backward`, one more buffer, sized to the widest layer, holds the
    backward pass's delta; that pass also overwrites each activation with
    its layer's derivative. Every buffer is allocated here, so a workspace
    made in one thread and used in another puts nothing on the second
    thread's heap.
    """

    def __init__(self, model, rows, train, backward):
        widths = model.spec.widths
        self.act = [np.empty((rows, w)) for w in widths[1:]]
        dropout = train and model.spec.dropout_ratio > 0.0
        self.mask = [np.empty(a.shape) if dropout else None for a in self.act[:-1]] + [None]
        self.caches = []
        self.delta = np.empty(rows * max(widths)) if backward else None

    def delta_view(self, rows, width):
        """The delta buffer as a (rows, width) array."""
        return self.delta[: rows * width].reshape(rows, width)


def _forward_batch(model, X, ws, rng=None):
    """Run the stack on a (B, input_dim) batch through the buffers of
    workspace `ws`, which then holds the caches of the backward pass;
    returns preds (B,).

    With an rng the pass is in train mode and draws the hidden layers'
    dropout masks from it; without one it is the inference pass. preds is a
    view into `ws`, which the backward pass clobbers: read it first.
    """
    rows = X.shape[0]
    out = X
    ws.caches = []
    keep = 1.0 - model.spec.dropout_ratio
    head = len(model.layers) - 1
    for idx, ((weights, bias), act, mask) in enumerate(zip(model.layers, ws.act, ws.mask)):
        act = np.matmul(out, weights.T, out=act[:rows])
        act += bias
        if idx < head:
            np.maximum(act, 0.0, out=act)
        else:
            np.tanh(act, out=act)
        if rng is not None and mask is not None:
            # inverted dropout: scale at train time so inference needs no rescale
            mask = rng.random(out=mask[:rows])
            np.less(mask, keep, out=mask)
            mask /= keep
            act *= mask
        else:
            mask = None
        ws.caches.append((out, act, mask))
        out = act
    return out[:, 0]


def _backward_batch(model, ws, dout, grads=None, need_input_grads=False):
    """Reverse pass through the last forward pass of workspace `ws`, which
    must have its backward buffer. dout is dLoss/dpred, shape (B,). Writes
    each layer's (dW, db) into the matching pair of `grads` when given;
    returns dLoss/dX when need_input_grads, else None.

    Each layer's derivative wrt its pre-activation overwrites its own
    activation, which is dead once the activation's derivative is formed,
    and the dropout mask multiplies delta in the delta buffer. So the pass
    needs that one buffer beyond the forward pass's, and it destroys the
    caches. A dropped ReLU activation act·mask is positive exactly where act
    is and the mask is not, and where the mask is 0 so is delta·mask, so
    (act·mask > 0)·(delta·mask) has the bits of (act > 0)·(delta·mask).
    """
    rows = dout.shape[0]
    delta = dout[:, None]
    head = len(model.layers) - 1
    for idx in range(head, -1, -1):
        weights = model.layers[idx].weights
        out_dim, in_dim = weights.shape
        inp, dpre, mask = ws.caches[idx]
        if mask is not None:
            delta *= mask  # a hidden layer's delta is already in the delta buffer
        if idx < head:
            np.greater(dpre, 0.0, out=dpre)  # act > 0 exactly where pre > 0
        else:
            np.multiply(dpre, dpre, out=dpre)
            np.subtract(1.0, dpre, out=dpre)
        dpre *= delta
        if grads is not None:
            dw, db = grads[idx]
            np.matmul(dpre.T, inp, out=dw)
            np.sum(dpre, axis=0, out=db)
        if idx > 0 or need_input_grads:
            delta = np.matmul(dpre, weights, out=ws.delta_view(rows, in_dim))
    return delta if need_input_grads else None


def _set_blas_threads():
    """Set numpy's BLAS to one thread, so that no result bit depends on
    OPENBLAS_NUM_THREADS, and return 1; None when it exports none of
    _BLAS_THREADS_SYMBOLS. The BLAS is looked up through numpy's
    linear-algebra extension, which links it on numpy 1 and 2 alike."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    for name in _BLAS_THREADS_SYMBOLS:
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return 1
    return None


BLAS_THREADS = _set_blas_threads()  # set once, as this module loads

_pool_worker = False  # set by enter_pool_worker


def enter_pool_worker():
    """Run this process's blocked passes on one thread: a process pool's
    workers call this as they start, as they already keep the cores busy."""
    global _pool_worker
    _pool_worker = True


def _pass_threads():
    """Threads a blocked pass may run on: the usable cores at one BLAS thread
    outside a pool worker, else 1."""
    if _pool_worker or BLAS_THREADS != 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _blocks(model, n, backward, work):
    """Call work(ws, rows) for the row slices covering n rows in
    _BLOCK_ROWS-row blocks, the remainder folded into the last block (one
    block when n < _BLOCK_ROWS).

    The blocks are split into contiguous runs on at most _pass_threads()
    threads, the calling thread taking the first run; each helper takes at
    least one block of a backward pass or two of a forward-only one, as one
    forward block saves less than the helper costs. Every run's inference
    workspace, sized to its largest block, is allocated here in the calling
    thread, so no buffer lands on a helper's heap. Each block is the same
    product whichever thread runs it, so the bits do not depend on the thread
    count. An error in any run is raised here, after every helper has ended.
    """
    count = max(1, n // _BLOCK_ROWS)
    blocks = [
        slice(i * _BLOCK_ROWS, n if i == count - 1 else (i + 1) * _BLOCK_ROWS)
        for i in range(count)
    ]
    threads = max(1, min(count if backward else count // 2, _pass_threads()))
    bounds = [count * i // threads for i in range(threads + 1)]
    runs = [blocks[a:b] for a, b in zip(bounds, bounds[1:])]
    largest = [run[-1].stop - run[-1].start for run in runs]
    workspaces = [_Workspace(model, rows, train=False, backward=backward) for rows in largest]

    errors = []

    def run_blocks(run, ws):
        try:
            for rows in run:
                work(ws, rows)
        except BaseException as exc:  # raised again in the calling thread
            errors.append(exc)

    helpers = [
        threading.Thread(target=run_blocks, args=job) for job in zip(runs[1:], workspaces[1:])
    ]
    for thread in helpers:
        thread.start()
    run_blocks(runs[0], workspaces[0])
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]


def predict(model: MlpModel, X) -> np.ndarray:
    """Inference-mode predictions for a (B, input_dim) feature matrix, run
    block by block (see _blocks)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.spec.input_dim:
        raise ValueError(f"feature matrix must have shape (B, {model.spec.input_dim})")
    preds = np.empty(X.shape[0])

    def work(ws, rows):
        preds[rows] = _forward_batch(model, X[rows], ws)

    _blocks(model, X.shape[0], False, work)
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
    features, run block by block (see _blocks)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.spec.input_dim:
        raise ValueError(f"feature matrix must have shape (B, {model.spec.input_dim})")
    if y.shape != (X.shape[0],):
        raise ValueError("label vector length must match feature rows")
    grads = np.empty(X.shape)

    def work(ws, rows):
        preds = _forward_batch(model, X[rows], ws)
        dout = 2.0 * (preds - y[rows])
        grads[rows] = _backward_batch(model, ws, dout, need_input_grads=True)

    _blocks(model, X.shape[0], True, work)
    return grads


def _layer_views(spec: ModelSpec, flat):
    """Per-layer (weights, bias) views of a flat vector of length spec.size:
    each layer's weights, row-major (out_dim, in_dim), then its bias."""
    views, at, w = [], 0, spec.widths
    for in_dim, out_dim in zip(w, w[1:]):
        end = at + out_dim * in_dim
        views.append((flat[at:end].reshape(out_dim, in_dim), flat[end : end + out_dim]))
        at = end + out_dim
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
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, cfg.learning_rate
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
    strictly inside the tanh range (-1, 1). The model's parameter vector is
    updated in place.
    """
    X = np.asarray(data.features, dtype=np.float64)
    y = np.asarray(data.labels, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training data must be a nonempty (n, input_dim) matrix")
    if X.shape[1] != model.spec.input_dim:
        raise ValueError(
            f"feature width {X.shape[1]} does not match input_dim {model.spec.input_dim}"
        )
    if y.shape != (X.shape[0],):
        raise ValueError("label vector length must match feature rows")
    if np.any(np.abs(y) >= 1.0):
        raise ValueError("labels must lie strictly inside the tanh range (-1, 1)")
    n = X.shape[0]
    params = model.params
    grad = np.empty_like(params)
    grads = _layer_views(model.spec, grad)
    state = init_adam_state(params)
    rows = min(cfg.batch_size, n)
    ws = _Workspace(model, rows, train=True, backward=True)
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
            preds = _forward_batch(model, xb, ws, rng)
            err = preds - yb
            losses.append(float(np.mean(err * err)))
            dout = 2.0 * err / idx.size
            _backward_batch(model, ws, dout, grads)
            t += 1
            adam_step(params, grad, state, cfg, t)
            if not np.isfinite(params).all():
                finite = [np.isfinite(w).all() and np.isfinite(b).all() for w, b in model.layers]
                raise NumericalError(f"non-finite parameters in layer {finite.index(False)}")
        history.append(float(np.mean(losses)))
    return model, history


def fit(data, cfg: TrainConfig, rng) -> Tuple[MlpModel, List[float]]:
    """Train a fresh model on `data`: the first draw of rng seeds init_model,
    then train() draws its shuffles and dropout masks from the same rng."""
    model = init_model(np.shape(data.features)[-1], int(rng.integers(0, 2**63)))
    return train(model, data, cfg, rng)


def save_model(model: MlpModel, path) -> None:
    """Framed checkpoint (BMMLP2): the ModelSpec as JSON header, then the
    parameter vector."""
    write_framed(path, _MAGIC, dump(model.spec), [model.params])


def load_model(path) -> MlpModel:
    """Read a checkpoint; a malformed one raises framing.FormatError. The
    header must have exactly the fields of ModelSpec (see read_framed)."""

    def decode(spec, take):
        return MlpModel(spec, take((spec.size,)))

    return read_framed(path, _MAGIC, ModelSpec, decode)
