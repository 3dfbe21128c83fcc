"""Unit and property tests for the MLP core: init, forward, gradients, Adam, training."""

from __future__ import annotations

import ctypes
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

import oracles
from beamsec import numcore
from beamsec.numcore import MlpModel, ModelSpec, TrainConfig
from conftest import row_gradients


class Rows:
    """Minimal features/labels holder accepted by train()."""

    def __init__(self, features, labels):
        self.features = np.asarray(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.float64)


def random_small_model(rng) -> MlpModel:
    """A random net with every dimension <= 8 and no dropout."""
    input_dim = int(rng.integers(1, 9))
    depth = int(rng.integers(1, 4))
    hidden = [int(rng.integers(1, 9)) for _ in range(depth)]
    return numcore.init_model(
        input_dim, int(rng.integers(0, 2**31)), hidden_dims=hidden, dropout_ratio=0.0
    )


# ---------------------------------------------------------------- init_model


def test_init_is_deterministic_and_seed_sensitive():
    a = numcore.init_model(4, 7)
    b = numcore.init_model(4, 7)
    c = numcore.init_model(4, 8)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
    assert any(
        not np.array_equal(la.weights, lc.weights) for la, lc in zip(a.layers, c.layers)
    )


def test_init_layer_dimensions():
    model = numcore.init_model(16, 3)
    shapes = [l.weights.shape for l in model.layers]
    assert shapes == [(100, 16), (100, 100), (100, 100), (1, 100)]
    assert model.spec == ModelSpec(16, (100, 100, 100), 0.25, 3)
    assert model.spec.widths == (16, 100, 100, 100, 1)


def test_init_weight_range_and_zero_bias():
    model = numcore.init_model(9, 11)
    for fan_in, layer in zip(model.spec.widths, model.layers):
        bound = 1.0 / math.sqrt(fan_in)
        assert np.all(np.abs(layer.weights) <= bound)
        assert np.all(layer.bias == 0.0)


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError):
        numcore.init_model(0, 1)
    with pytest.raises(ValueError):
        numcore.init_model(4, -1)
    with pytest.raises(ValueError):
        numcore.init_model(4, 1, hidden_dims=(0,))


def test_model_is_its_spec_and_one_parameter_vector():
    """MlpModel copies the vector it is given, checks its length, and each
    layer's weights and bias view that copy in layer order."""
    spec = ModelSpec(2, (3,), 0.0, 0)
    assert spec.widths == (2, 3, 1)
    assert spec.size == 3 * 2 + 3 + 1 * 3 + 1
    params = np.arange(spec.size, dtype=np.float64)
    model = MlpModel(spec, params)
    params[0] = -1.0
    assert model.params[0] == 0.0
    (first, head) = model.layers
    assert np.array_equal(first.weights, [[0, 1], [2, 3], [4, 5]])
    assert np.array_equal(first.bias, [6, 7, 8])
    assert np.array_equal(head.weights, [[9, 10, 11]]) and np.array_equal(head.bias, [12])
    model.params[12] = 5.0
    assert head.bias[0] == 5.0
    with pytest.raises(ValueError):
        MlpModel(spec, np.zeros(spec.size + 1))


@pytest.mark.parametrize(
    "args",
    [
        (0, (3,), 0.0, 0),
        (2, (3, 0), 0.0, 0),
        (2, (3,), 1.0, 0),
        (2, (3,), -0.1, 0),
        (2, (3,), 0.0, -5),
    ],
    ids=["input_width_0", "hidden_width_0", "dropout_1", "dropout_negative", "seed_negative"],
)
def test_model_spec_rejects_bad_architecture(args):
    with pytest.raises(ValueError):
        ModelSpec(*args)


# ------------------------------------------------------------------- forward


def test_forward_zero_weights_gives_zero():
    model = numcore.init_model(5, 1, hidden_dims=(4,), dropout_ratio=0.0)
    for layer in model.layers:
        layer.weights[:] = 0.0
    assert numcore.predict(model, np.ones((1, 5)))[0] == 0.0


def test_forward_single_tanh_layer_closed_form():
    model = MlpModel(ModelSpec(1, (), 0.0, 0), [2.0, 0.0])
    assert numcore.predict(model, [[0.5]])[0] == pytest.approx(math.tanh(1.0), abs=1e-12)


def test_forward_relu_kills_negative_units():
    # one hidden unit fires, one is clamped; only the first reaches the head
    spec = ModelSpec(1, (2,), 0.0, 0)
    # hidden weights [[1], [-1]] and zero bias, head weights [[1, 1]] and zero bias
    model = MlpModel(spec, [1.0, -1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
    assert numcore.predict(model, [[0.3]])[0] == pytest.approx(math.tanh(0.3), abs=1e-12)


def test_forward_output_in_open_unit_interval():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        model = random_small_model(rng)
        x = rng.normal(size=model.spec.input_dim) * 10.0
        out = numcore.predict(model, x[None, :])[0]
        assert -1.0 < out < 1.0


def test_forward_validates_input():
    model = numcore.init_model(3, 0)
    with pytest.raises(ValueError):
        numcore.predict(model, np.ones((1, 4)))
    with pytest.raises(ValueError):
        numcore.predict(model, np.ones(3))  # one row must still be a (1, 3) matrix


def test_dropout_zero_train_equals_infer():
    model = numcore.init_model(6, 5, dropout_ratio=0.0)
    x = np.linspace(-1, 1, 6)[None, :]
    ws = numcore._Workspace(model, 1, train=True, backward=False)
    train_pred = numcore._forward_batch(model, x, ws, np.random.default_rng(0))  # train mode
    assert train_pred[0] == numcore.predict(model, x)[0]


def test_dropout_masks_are_seed_deterministic():
    model = numcore.init_model(6, 5)
    x = np.linspace(-1, 1, 6)[None, :]
    a, b, c = (
        numcore._forward_batch(
            model, x, numcore._Workspace(model, 1, train=True, backward=False),
            np.random.default_rng(seed),
        )[0]
        for seed in (42, 42, 43)
    )
    assert a == b
    assert a != c  # different masks with overwhelming probability


def test_predict_matches_forward_rows():
    rng = np.random.default_rng(3)
    model = random_small_model(rng)
    X = rng.normal(size=(10, model.spec.input_dim))
    preds = numcore.predict(model, X)
    for i in range(10):
        assert preds[i] == pytest.approx(numcore.predict(model, X[i : i + 1])[0], abs=1e-15)
    with pytest.raises(ValueError):
        numcore.predict(model, X[:, :-1] if model.spec.input_dim > 1 else X[:, [0, 0]])


# ------------------------------------------------------------------ mse_loss


def test_mse_loss_values():
    assert numcore.mse_loss([0.5], [0.5]) == 0.0
    assert numcore.mse_loss([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert numcore.mse_loss([0.2, 0.4, 0.6], [0.1, 0.4, 0.9]) == pytest.approx(
        0.1 / 3.0, abs=1e-15
    )


def test_mse_loss_rejects_empty_and_mismatch():
    with pytest.raises(ValueError):
        numcore.mse_loss([], [])
    with pytest.raises(ValueError):
        numcore.mse_loss([1.0], [1.0, 2.0])


# ------------------------------------------------------------------ backward


def test_backward_zero_weight_net_has_zero_input_grad():
    model = numcore.init_model(4, 2, hidden_dims=(3,), dropout_ratio=0.0)
    for layer in model.layers:
        layer.weights[:] = 0.0
    _, input_grad = row_gradients(model, np.ones(4), 0.3)
    assert np.all(input_grad == 0.0)


def test_backward_sign_flips_with_error_sign():
    rng = np.random.default_rng(11)
    model = random_small_model(rng)
    x = rng.normal(size=model.spec.input_dim)
    pred = numcore.predict(model, x[None, :])[0]
    lo_params, lo_input = row_gradients(model, x, pred - 0.2)
    hi_params, hi_input = row_gradients(model, x, pred + 0.2)
    assert np.allclose(lo_input, -hi_input, atol=1e-12)
    for (dw_l, db_l), (dw_h, db_h) in zip(lo_params, hi_params):
        assert np.allclose(dw_l, -dw_h, atol=1e-12)
        assert np.allclose(db_l, -db_h, atol=1e-12)


def test_backward_matches_finite_differences_spot():
    rng = np.random.default_rng(5)
    for _ in range(10):
        model = random_small_model(rng)
        x = rng.normal(size=model.spec.input_dim)
        y = float(rng.uniform(-0.9, 0.9))
        params, input_grad = row_gradients(model, x, y)
        fd_params, fd_x = oracles.fd_gradients(model, x, y)
        assert oracles.grads_close(input_grad, fd_x)
        for (dw, db), (fw, fb) in zip(params, fd_params):
            assert oracles.grads_close(dw, fw)
            assert oracles.grads_close(db, fb)


def test_input_gradients_match_backward_per_row():
    rng = np.random.default_rng(13)
    model = random_small_model(rng)
    X = rng.normal(size=(8, model.spec.input_dim))
    y = rng.uniform(-0.9, 0.9, size=8)
    grads = numcore.input_gradients(model, X, y)
    for i in range(8):
        _, single = row_gradients(model, X[i], y[i])
        assert np.allclose(grads[i], single, atol=1e-12)


BLOCK_EDGE_ROWS = (0, 1, 511, 512, 513, 1023, 1024, 1025, 1537, 2500, 10000)


def assert_blocked_passes_equal_full_batch(model):
    rng = np.random.default_rng(17)
    for n in BLOCK_EDGE_ROWS:
        X = rng.normal(size=(n, model.spec.input_dim))
        y = rng.uniform(-0.9, 0.9, size=n)
        preds = numcore.predict(model, X)
        grads = numcore.input_gradients(model, X, y)
        assert preds.shape == (n,) and grads.shape == (n, model.spec.input_dim)
        assert np.array_equal(preds, oracles.full_batch_predict(model, X)), n
        assert np.array_equal(grads, oracles.full_batch_input_gradients(model, X, y)), n


@pytest.mark.parametrize("which", ["tiny_trained", "fresh_16"])
def test_blocked_passes_equal_full_batch_bit_for_bit(which, tiny_trained):
    """predict and input_gradients run 512-row blocks, the remainder folded
    into the last block; their bits equal one pass over all rows.

    The equality is a property of this block layout on the BLAS the suite
    runs on (OpenBLAS 0.3.31): every block keeps at least 512 rows, so the
    matrix products take the same kernels as the one-pass product. Short
    blocks (a trailing 64-row block, or 64- or 100-row blocks throughout)
    change the last bits.
    """
    model = tiny_trained.model if which == "tiny_trained" else numcore.init_model(16, 21)
    assert_blocked_passes_equal_full_batch(model)


def test_importing_numcore_sets_openblas_to_one_thread():
    """numcore sets numpy's OpenBLAS to one thread as it loads, whatever
    OPENBLAS_NUM_THREADS says, so the blocked passes may take every usable
    core. OpenBLAS's own getter, under the names numpy builds export it by,
    reads the count back."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    getter = next(getattr(lib, name) for name in names if hasattr(lib, name))
    getter.argtypes, getter.restype = [], ctypes.c_int
    assert numcore.BLAS_THREADS == 1
    assert getter() == 1
    assert numcore._pass_threads() == len(os.sched_getaffinity(0))


def force_threads(monkeypatch, threads):
    """Let the blocked passes run on `threads` threads whatever the cores and
    the BLAS thread count, and record which threads ran a block. The set
    holds the Thread objects, not their idents: a helper that has ended can
    pass its ident on to the next one started."""
    monkeypatch.setattr(numcore, "_pass_threads", lambda: threads)
    ran = set()
    forward = numcore._forward_batch

    def recording_forward(*args, **kwargs):
        ran.add(threading.current_thread())
        return forward(*args, **kwargs)

    monkeypatch.setattr(numcore, "_forward_batch", recording_forward)
    return ran


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("which", ["tiny_trained", "fresh_16"])
def test_threaded_blocked_passes_equal_full_batch_bit_for_bit(
    which, threads, tiny_trained, monkeypatch
):
    """The blocks split into contiguous runs, one per thread, and each block
    is the same product on any thread: the bits equal one pass over all rows.
    A helper takes at least two 512-row blocks of predict, so 1,024 and 1,536
    rows start none, and at least one block of input_gradients."""
    model = tiny_trained.model if which == "tiny_trained" else numcore.init_model(16, 21)
    ran = force_threads(monkeypatch, threads)
    assert_blocked_passes_equal_full_batch(model)
    d = model.spec.input_dim
    for rows, expected in ((1024, 1), (1536, 1), (3072, threads)):
        ran.clear()
        numcore.predict(model, np.zeros((rows, d)))
        assert len(ran) == expected, rows
    for rows, expected in ((1024, 2), (3072, threads)):
        ran.clear()
        numcore.input_gradients(model, np.zeros((rows, d)), np.zeros(rows))
        assert len(ran) == expected, rows


def test_error_in_a_helper_thread_propagates(monkeypatch):
    """An error in a helper's run is raised in the caller, after every helper
    has ended."""
    force_threads(monkeypatch, 3)
    forward = numcore._forward_batch
    caller = threading.get_ident()

    def failing_forward(*args, **kwargs):
        if threading.get_ident() != caller:
            raise ArithmeticError("failed in a helper")
        return forward(*args, **kwargs)

    monkeypatch.setattr(numcore, "_forward_batch", failing_forward)
    model = numcore.init_model(16, 21)
    X = np.zeros((4096, 16))
    for call in (
        lambda: numcore.predict(model, X),
        lambda: numcore.input_gradients(model, X, np.zeros(4096)),
    ):
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="failed in a helper"):
            call()
        assert threading.active_count() == before


def assert_blocked_passes_peak_memory():
    model = numcore.init_model(16, 3)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40000, 16))
    y = rng.uniform(-0.9, 0.9, size=40000)
    peaks = {}
    for name, call in (
        ("input_gradients", lambda: numcore.input_gradients(model, X, y)),
        ("predict", lambda: numcore.predict(model, X)),
    ):
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    assert peaks["input_gradients"] <= 16.0, peaks
    assert peaks["predict"] <= 8.0, peaks


def test_blocked_passes_peak_memory():
    """On 40,000 rows the passes hold one block's buffers, not full-batch
    ones. One pass over all rows peaks at 183.7 MiB (input_gradients) and
    91.9 MiB (predict); the gradient output alone is 4.9 MiB."""
    assert_blocked_passes_peak_memory()


def test_threaded_blocked_passes_peak_memory(monkeypatch):
    """On two threads each run holds one block's buffers: the bounds hold."""
    force_threads(monkeypatch, 2)
    assert_blocked_passes_peak_memory()


# ----------------------------------------------------------------- adam_step


def test_adam_zero_gradient_is_fixed_point():
    model = numcore.init_model(3, 9, hidden_dims=(4,), dropout_ratio=0.0)
    params = np.concatenate([a.ravel() for l in model.layers for a in (l.weights, l.bias)])
    before = params.copy()
    state = numcore.init_adam_state(params)
    numcore.adam_step(params, np.zeros_like(params), state, TrainConfig(), t=1)
    assert np.array_equal(params, before)


def test_adam_first_step_is_signed_learning_rate():
    params = np.zeros(2)  # one weight, one bias
    state = numcore.init_adam_state(params)
    numcore.adam_step(params, np.array([1.0, 0.0]), state, TrainConfig(), t=1)
    assert params[0] == pytest.approx(-0.01, abs=1e-8)


def test_adam_matches_scalar_reference_trajectory():
    rng = np.random.default_rng(17)
    cfg = TrainConfig()
    for _ in range(25):
        steps = int(rng.integers(1, 30))
        gseq = rng.normal(size=steps)
        params = np.zeros(2)
        state = numcore.init_adam_state(params)
        expected = oracles.adam_scalar_trajectory(gseq, cfg.learning_rate)
        for t, g in enumerate(gseq, start=1):
            numcore.adam_step(params, np.array([g, 0.0]), state, cfg, t)
            assert params[0] == pytest.approx(expected[t], abs=1e-12)


def test_adam_rejects_bad_steps_and_shapes():
    params = np.zeros(5)
    state = numcore.init_adam_state(params)
    with pytest.raises(ValueError):
        numcore.adam_step(params, np.zeros(5), state, TrainConfig(), t=0)
    with pytest.raises(ValueError):
        numcore.adam_step(params, np.zeros(4), state, TrainConfig(), t=1)
    with pytest.raises(ValueError):
        numcore.adam_step(params, np.zeros((5, 5)), state, TrainConfig(), t=1)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


# --------------------------------------------------------------------- train


def test_train_fits_constant_labels():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(2000, 4))
    data = Rows(X, np.full(2000, 0.5))
    model = numcore.init_model(4, 3)
    _, history = numcore.train(model, data, TrainConfig(), np.random.default_rng(3))
    assert len(history) == 10
    assert history[-1] < 1e-3


def test_train_reduces_loss_and_is_deterministic(tiny_trained):
    assert len(tiny_trained.history) == TrainConfig().epochs
    assert all(np.isfinite(v) for v in tiny_trained.history)
    assert tiny_trained.history[-1] < tiny_trained.history[0]

    # bit-identical rerun from the same seeds
    data = tiny_trained.train
    m1 = numcore.init_model(data.num_features, 1234)
    m2 = numcore.init_model(data.num_features, 1234)
    numcore.train(m1, data, TrainConfig(epochs=2), np.random.default_rng(5))
    numcore.train(m2, data, TrainConfig(epochs=2), np.random.default_rng(5))
    for la, lb in zip(m1.layers, m2.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


@pytest.mark.parametrize(
    "rows, cfg, dropout",
    [
        (1050, TrainConfig(epochs=2), 0.25),  # ragged last batch of 50 rows
        (1000, TrainConfig(batch_size=64, epochs=2), 0.25),
        (1000, TrainConfig(), 0.25),
        (1000, TrainConfig(epochs=2), 0.0),
    ],
    ids=["ragged_last_batch", "batch_64", "default_config", "no_dropout"],
)
def test_train_matches_reference_loop_bit_for_bit(rows, cfg, dropout):
    """The flat-buffer loop runs the reference loop's arithmetic and draws:
    weights, biases and loss history are identical, not just close."""
    rng = np.random.default_rng(31)
    X = rng.normal(size=(rows, 16))
    data = Rows(X, np.tanh(X[:, :3].sum(axis=1)) * 0.9)
    model, history = numcore.train(
        numcore.init_model(16, 5, dropout_ratio=dropout), data, cfg, np.random.default_rng(8)
    )
    ref, ref_history = oracles.reference_train(
        numcore.init_model(16, 5, dropout_ratio=dropout), data, cfg, np.random.default_rng(8)
    )
    assert history == ref_history
    for lm, lr in zip(model.layers, ref.layers):
        assert np.array_equal(lm.weights, lr.weights)
        assert np.array_equal(lm.bias, lr.bias)


def test_train_rejects_bad_data():
    model = numcore.init_model(2, 0)
    with pytest.raises(ValueError):
        numcore.train(model, Rows(np.empty((0, 2)), np.empty(0)), TrainConfig(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        numcore.train(model, Rows(np.ones((4, 3)), np.zeros(4)), TrainConfig(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        numcore.train(model, Rows(np.ones((4, 2)), np.array([0.0, 0.5, 1.0, 0.2])), TrainConfig(), np.random.default_rng(0))


def test_train_keeps_weights_finite(tiny_trained):
    for layer in tiny_trained.model.layers:
        assert np.isfinite(layer.weights).all()
        assert np.isfinite(layer.bias).all()


# ---------------------------------------------------------------- checkpoint


def test_model_save_load_round_trip(tmp_path):
    model = numcore.init_model(6, 42)
    path = tmp_path / "model.bin"
    numcore.save_model(model, path)
    loaded = numcore.load_model(path)
    assert loaded.spec == model.spec
    assert np.array_equal(loaded.params, model.params)
    for la, lb in zip(model.layers, loaded.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_model_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAMODEL")
    with pytest.raises(ValueError):
        numcore.load_model(path)
