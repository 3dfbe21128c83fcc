"""Independent reference implementations used to verify the package.

Everything here is deliberately written the slow, obvious way (python loops,
central finite differences, brute-force search) and never imports the code
paths it checks beyond treating models as black-box callables.
"""

from __future__ import annotations

import cmath
import json
import math
from types import SimpleNamespace
from typing import List

import numpy as np

from beamsec import channel, numcore
from beamsec.channel import SPEED_OF_LIGHT
from beamsec.harness import SummaryRow


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


def image_method_paths(params, bs, user):
    """(gain, sin AoD, delay) of the LOS path and of each wall bounce that
    lands on its wall segment, from plain image-method geometry."""
    lam = params.carrier_wavelength_m
    bx, by = bs
    ux, uy = user

    def gain(d):
        return lam / (4.0 * math.pi * d) * cmath.exp(-2j * math.pi * d / lam)

    d = math.sqrt((ux - bx) ** 2 + (uy - by) ** 2)
    paths = [(gain(d), (uy - by) / d, d / SPEED_OF_LIGHT)]
    if params.max_reflections < 1:
        return paths
    for x1, y1, x2, y2 in params.walls:
        wl = math.hypot(x2 - x1, y2 - y1)
        ex, ey = (x2 - x1) / wl, (y2 - y1) / wl

        def along(px, py):
            return (px - x1) * ex + (py - y1) * ey

        def offset(px, py):  # signed distance from the wall's line
            return (py - y1) * ex - (px - x1) * ey

        side_bs, side_user = offset(bx, by), offset(ux, uy)
        if side_bs * side_user <= 0.0:
            continue
        ix = x1 + along(bx, by) * ex + side_bs * ey
        iy = y1 + along(bx, by) * ey - side_bs * ex
        t = side_bs / (side_bs + side_user)  # where image -> user meets the line
        px, py = ix + t * (ux - ix), iy + t * (uy - iy)
        if not 0.0 <= along(px, py) <= wl:
            continue
        length = math.sqrt((ux - ix) ** 2 + (uy - iy) ** 2)
        leg = math.sqrt((px - bx) ** 2 + (py - by) ** 2)
        paths.append(
            (params.reflection_coeff * gain(length), (py - by) / leg, length / SPEED_OF_LIGHT)
        )
    return paths


def image_method_channel(params, user) -> np.ndarray:
    """h[n, k, m] at one user position: for every path, gain times
    subcarrier phase exp(-j 2 pi k tau B / K) times steering exp(j pi m sin)."""
    K, M = params.num_subcarriers, params.num_antennas
    h = np.zeros((params.num_bs, K, M), dtype=np.complex128)
    for n, bs in enumerate(params.bs_positions):
        for gain, sin_aod, delay in image_method_paths(params, bs, user):
            for k in range(K):
                phase = cmath.exp(-2j * math.pi * k * delay * params.bandwidth_hz / K)
                for m in range(M):
                    h[n, k, m] += gain * phase * cmath.exp(1j * math.pi * m * sin_aod)
    return h


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


def full_batch_predict(model, X) -> np.ndarray:
    """numcore.predict as one inference pass over all rows at once."""
    X = np.asarray(X, dtype=np.float64)
    ws = numcore._Workspace(model, X.shape[0], train=False, backward=False)
    return numcore._forward_batch(model, X, ws)


def full_batch_input_gradients(model, X, y) -> np.ndarray:
    """numcore.input_gradients as one forward and one backward pass over all rows."""
    X = np.asarray(X, dtype=np.float64)
    ws = numcore._Workspace(model, X.shape[0], train=False, backward=True)
    preds = numcore._forward_batch(model, X, ws)
    dout = 2.0 * (preds - np.asarray(y, dtype=np.float64))
    return numcore._backward_batch(model, ws, dout, need_input_grads=True)


# Instances per random stream in the dataset definition: block b of
# DRAW_BLOCK instances draws from default_rng([seed, b]).
DRAW_BLOCK = 1024


def reference_build_dataset(params, num_instances: int):
    """build_dataset with one default_rng([seed, b]) per block of DRAW_BLOCK
    instances, each drawing a whole block of grid indices and then a whole
    block of normals, sliced to num_instances; every other array covers all
    instances at once.

    Returns idx (each instance's grid index), the normalized features and
    labels, and norm, the NormMeta fitted on the raw rows."""
    grid = params.user_grid.points()
    N, K, M = params.num_bs, params.num_subcarriers, params.num_antennas
    sigma = params.noise_variance
    idx, normals = [], []
    for b in range(-(-num_instances // DRAW_BLOCK)):
        gen = np.random.default_rng([params.seed, b])
        idx.append(gen.integers(0, grid.shape[0], size=DRAW_BLOCK))
        if sigma > 0:
            normals.append(gen.standard_normal((DRAW_BLOCK, 2, N, K)))
    idx = np.concatenate(idx)[:num_instances]
    noise = None
    if sigma > 0:
        normals = np.concatenate(normals)[:num_instances]
        noise = np.sqrt(sigma / 2.0) * (normals[:, 0] + 1j * normals[:, 1])

    points, where = np.unique(idx, return_inverse=True)
    h = channel.channels(params, grid[points])
    codebook = channel.dft_codebook(M, params.codebook_oversampling)
    point_label = np.zeros(len(points), dtype=np.float64)
    for h_n in h:
        point_label += channel.beam_rates(h_n, codebook, params.snr_linear).max(axis=1)
    label_raw = point_label[where]
    obs = h[:, :, :, 0].transpose(1, 0, 2)[where]
    if noise is not None:
        obs = obs + noise
    obs = obs.reshape(num_instances, N * K)
    feats_raw = np.empty((num_instances, 2 * N * K), dtype=np.float64)
    feats_raw[:, 0::2] = obs.real
    feats_raw[:, 1::2] = obs.imag
    norm = channel.fit_normalization(feats_raw, label_raw)
    span = norm.label_max - norm.label_min
    if span > 0:
        labels = norm.label_cap * ((label_raw - norm.label_min) / span)
    else:
        labels = np.zeros(num_instances)
    features = (feats_raw - norm.feature_mean) / norm.feature_std
    return SimpleNamespace(idx=idx, features=features, labels=labels, norm=norm)


def raw_features(ds) -> np.ndarray:
    """A dataset's features mapped back to raw values: X * std + mean."""
    return ds.features * ds.norm_meta.feature_std + ds.norm_meta.feature_mean


def reference_dataset_to_csv(ds, path) -> None:
    """dataset_to_csv one row and one value at a time."""
    cols = [f"f{i}" for i in range(ds.num_features)] + ["label"]
    table = np.column_stack([ds.features, ds.labels])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for row in table:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _reference_forward(model, X, rng=None):
    """The stack on a batch, allocating every intermediate: ReLU hidden
    layers and a tanh head. Each hidden layer's dropout mask is drawn from
    rng exactly as numcore draws it in train mode."""
    out = X
    caches = []
    head = len(model.layers) - 1
    for idx, layer in enumerate(model.layers):
        pre = out @ layer.weights.T + layer.bias
        act = np.maximum(pre, 0.0) if idx < head else np.tanh(pre)
        mask = None
        if rng is not None and idx < head and model.spec.dropout_ratio > 0.0:
            keep = 1.0 - model.spec.dropout_ratio
            mask = (rng.random(act.shape) < keep) / keep
        caches.append((out, pre, act, mask))
        out = act if mask is None else act * mask
    return out[:, 0], caches


def _reference_backward(model, caches, dout):
    """Per-layer (dW, db) of the loss whose gradient wrt the predictions is dout."""
    delta = dout[:, None]
    head = len(model.layers) - 1
    grads = [None] * len(model.layers)
    for idx in range(head, -1, -1):
        inp, pre, act, mask = caches[idx]
        if mask is not None:
            delta = delta * mask
        if idx < head:
            dpre = delta * (pre > 0.0)
        else:
            dpre = delta * (1.0 - act * act)
        grads[idx] = (dpre.T @ inp, dpre.sum(axis=0))
        delta = dpre @ model.layers[idx].weights
    return grads


def _reference_adam_step(model, grads, moments, cfg, t):
    """Bias-corrected Adam, one layer and one parameter array at a time."""
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, cfg.learning_rate
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for layer, (dw, db), (m_w, v_w, m_b, v_b) in zip(model.layers, grads, moments):
        m_w *= b1
        m_w += (1.0 - b1) * dw
        v_w *= b2
        v_w += (1.0 - b2) * dw * dw
        layer.weights[...] -= lr * (m_w / c1) / (np.sqrt(v_w / c2) + eps)
        m_b *= b1
        m_b += (1.0 - b1) * db
        v_b *= b2
        v_b += (1.0 - b2) * db * db
        layer.bias[...] -= lr * (m_b / c1) / (np.sqrt(v_b / c2) + eps)


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


def summary_from_json(path) -> List[SummaryRow]:
    """Inverse of the JSON report, up to the 6-digit float rendering."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    ratios = payload.get("ratios", {})
    return [
        SummaryRow(
            scenario_id=str(r["scenario"]),
            epsilon=float(r["epsilon"]),
            mean_mse=float(r["mean_mse"]),
            std_mse=float(r["std_mse"]),
            min_mse=float(r["min_mse"]),
            max_mse=float(r["max_mse"]),
            n=int(r["n"]),
            ratio=ratios.get(f"{r['scenario']}_over_SC1", {}).get(f"{r['epsilon']:.6g}"),
        )
        for r in payload["rows"]
    ]
