"""Independent reference implementations used to verify the package.

Everything here is deliberately written the slow, obvious way (python loops,
central finite differences, brute-force search) and never imports the code
paths it checks beyond treating models as black-box callables.
"""

from __future__ import annotations

import math

import numpy as np

from beamsec import numcore


def squared_error(model, x, y) -> float:
    pred = numcore.predict(model, np.asarray(x, dtype=np.float64)[None, :])[0]
    return (pred - float(y)) ** 2


def fd_gradients(model, x, y, h: float = 1e-5):
    """Central finite differences of the squared error wrt params and input.

    Returns (param_grads, input_grad) shaped like the model's layers and x.
    Mutates parameter arrays in place and restores them exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    param_grads = []
    for layer in model.layers:
        dW = np.zeros_like(layer.weights)
        for idx in np.ndindex(layer.weights.shape):
            orig = layer.weights[idx]
            layer.weights[idx] = orig + h
            up = squared_error(model, x, y)
            layer.weights[idx] = orig - h
            down = squared_error(model, x, y)
            layer.weights[idx] = orig
            dW[idx] = (up - down) / (2.0 * h)
        db = np.zeros_like(layer.bias)
        for idx in np.ndindex(layer.bias.shape):
            orig = layer.bias[idx]
            layer.bias[idx] = orig + h
            up = squared_error(model, x, y)
            layer.bias[idx] = orig - h
            down = squared_error(model, x, y)
            layer.bias[idx] = orig
            db[idx] = (up - down) / (2.0 * h)
        param_grads.append((dW, db))
    dx = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        up = squared_error(model, xp, y)
        xp[i] -= 2.0 * h
        down = squared_error(model, xp, y)
        dx[i] = (up - down) / (2.0 * h)
    return param_grads, dx


def fd_input_gradient(model, x, y, h: float = 1e-5) -> np.ndarray:
    """Just the input part of fd_gradients, for attack-direction checks."""
    x = np.asarray(x, dtype=np.float64)
    return fd_input_gradient_rows(model, x[None, :], [float(y)], h)[0]


def grads_close(analytic, numeric, rel: float = 1e-4, abs_floor: float = 1e-7) -> bool:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    tol = np.maximum(abs_floor, rel * np.maximum(np.abs(a), np.abs(n)))
    return bool(np.all(np.abs(a - n) <= tol))


def adam_scalar_trajectory(grads, lr=0.01, b1=0.9, b2=0.999, eps=1e-8, w0=0.0):
    """Textbook bias-corrected Adam on one scalar parameter; returns all iterates."""
    w, m, v = float(w0), 0.0, 0.0
    out = [w]
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        w = w - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(w)
    return out


def reference_rate(h, g, snr: float) -> float:
    """(1/K) sum_k log2(1 + snr |h_k . g|^2) with explicit loops."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim == 1:
        h = h[None, :]
    total = 0.0
    for k in range(h.shape[0]):
        inner = 0.0 + 0.0j
        for m in range(h.shape[1]):
            inner += h[k, m] * g[m]
        total += math.log2(1.0 + snr * abs(inner) ** 2)
    return total / h.shape[0]


def brute_force_best_beam(h, vectors, snr: float):
    """argmax of reference_rate over the codebook rows, lowest index wins ties."""
    best_idx, best_rate = 0, -1.0
    for p in range(vectors.shape[0]):
        r = reference_rate(h, vectors[p], snr)
        if r > best_rate + 1e-15:
            best_idx, best_rate = p, r
    return best_idx, best_rate


def rankdata(values) -> np.ndarray:
    """Average ranks (1-based) with midrank ties."""
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.size, dtype=np.float64)
    i = 0
    while i < arr.size:
        j = i
        while j + 1 < arr.size and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        avg = 0.5 * (i + j) + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    rx, ry = rankdata(xs), rankdata(ys)
    return pearson(rx, ry)


def pearson(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ac = a - a.mean()
    bc = b - b.mean()
    denom = math.sqrt(float(ac @ ac) * float(bc @ bc))
    if denom == 0.0:
        return 0.0
    return float(ac @ bc) / denom


def fd_input_gradient_rows(model, X, y, h: float = 1e-5) -> np.ndarray:
    """Central differences of each row's squared error wrt that row's features.

    Goes through numcore.predict only: one coordinate at a time, nudged by +h
    and -h in every row at once.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    grads = np.zeros_like(X)
    for i in range(X.shape[1]):
        up_X = X.copy()
        up_X[:, i] += h
        down_X = X.copy()
        down_X[:, i] -= h
        up = (numcore.predict(model, up_X) - y) ** 2
        down = (numcore.predict(model, down_X) - y) ** 2
        grads[:, i] = (up - down) / (2.0 * h)
    return grads


def linf_multistep_attack(model, X, y, epsilon: float, steps: int = 20) -> np.ndarray:
    """Projected sign-gradient ascent inside the l-infinity ball around X.

    The basic iterative method (Kurakin et al., arXiv:1607.02533), i.e. PGD
    (Madry et al., arXiv:1706.06083) without a random start: each of `steps`
    steps of size 2.5 * epsilon / steps follows the sign of the
    finite-difference gradient, then clips back into [X - epsilon, X + epsilon].
    """
    X = np.asarray(X, dtype=np.float64)
    step = 2.5 * epsilon / steps
    X_adv = X.copy()
    for _ in range(steps):
        X_adv = X_adv + step * np.sign(fd_input_gradient_rows(model, X_adv, y))
        X_adv = np.clip(X_adv, X - epsilon, X + epsilon)
    return X_adv


def _reference_forward(model, X, rng=None):
    """The stack on a batch, allocating every intermediate; dropout masks are
    drawn from rng exactly as numcore draws them in train mode."""
    out = X
    caches = []
    for layer in model.layers:
        pre = out @ layer.weights.T + layer.bias
        act = np.maximum(pre, 0.0) if layer.activation == numcore.RELU else np.tanh(pre)
        mask = None
        if rng is not None and layer.dropout_ratio > 0.0:
            keep = 1.0 - layer.dropout_ratio
            mask = (rng.random(act.shape) < keep) / keep
        caches.append((out, pre, act, mask))
        out = act if mask is None else act * mask
    return out[:, 0], caches


def _reference_backward(model, caches, dout):
    """Per-layer (dW, db) of the loss whose gradient wrt the predictions is dout."""
    delta = dout[:, None]
    grads = [None] * len(model.layers)
    for idx in range(len(model.layers) - 1, -1, -1):
        inp, pre, act, mask = caches[idx]
        if mask is not None:
            delta = delta * mask
        if model.layers[idx].activation == numcore.RELU:
            dpre = delta * (pre > 0.0)
        else:
            dpre = delta * (1.0 - act * act)
        grads[idx] = (dpre.T @ inp, dpre.sum(axis=0))
        delta = dpre @ model.layers[idx].weights
    return grads


def _reference_adam_step(model, grads, moments, cfg, t):
    """Bias-corrected Adam, one layer and one parameter array at a time."""
    b1, b2, eps, lr = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon, cfg.learning_rate
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for layer, (dw, db), (m_w, v_w, m_b, v_b) in zip(model.layers, grads, moments):
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


def reference_train(model, data, cfg, rng):
    """numcore.train written the plain way: fresh arrays for every batch, the
    per-layer Adam update above, and a per-layer finiteness check after each
    step. Mutates model's arrays in place; returns (model, per-epoch losses)."""
    X = np.asarray(data.features, dtype=np.float64)
    y = np.asarray(data.labels, dtype=np.float64)
    n = X.shape[0]
    moments = [
        tuple(np.zeros_like(a) for a in (l.weights, l.weights, l.bias, l.bias))
        for l in model.layers
    ]
    t = 0
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            preds, caches = _reference_forward(model, X[idx], rng)
            err = preds - y[idx]
            losses.append(float(np.mean(err * err)))
            grads = _reference_backward(model, caches, 2.0 * err / idx.size)
            t += 1
            _reference_adam_step(model, grads, moments, cfg, t)
            for i, layer in enumerate(model.layers):
                if not np.isfinite(layer.weights).all() or not np.isfinite(layer.bias).all():
                    raise numcore.NumericalError(f"non-finite parameters in layer {i}")
        history.append(float(np.mean(losses)))
    return model, history
