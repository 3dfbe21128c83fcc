"""Output checks of the three workloads, computed apart from the program.

Each `check_*` function raises `CheckFailed` with a message on the first
violated property. Nothing here is a copy of a recorded output: the sweep
checks recompute the report tables from `results.csv`, the dataset checks
rebuild every grid point's noise-free pilot and best-beam rate from the
scenario geometry, and the attack checks compare the perturbation with
central differences taken through `numcore.predict`.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Dict, List, Sequence, Tuple

import numpy as np


class CheckFailed(Exception):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------- sweep

# The paper's attack grid, which is also the program's default.
BUDGETS = tuple(round(0.01 * i, 2) for i in range(1, 11))

RESULTS_HEADER = "scenario,epsilon,repetition,mse"
SUMMARY_HEADER = "scenario,epsilon,mean_mse,std_mse,min_mse,max_mse,n"
RATIOS_HEADER = "scenario,epsilon,mse_ratio_vs_clean"


def parse_results(text: str) -> List[Tuple[str, float, int, float]]:
    lines = text.splitlines()
    require(lines and lines[0] == RESULTS_HEADER, "results.csv: bad header")
    rows = []
    for line in lines[1:]:
        sc, eps, rep, mse = line.split(",")
        rows.append((sc, float(eps), int(rep), float(mse)))
    return rows


def check_results(text: str, grid: Sequence[float], reps: int) -> None:
    """21 sorted rows per repetition, finite positive MSE, SC2 above SC1 and
    rising with the budget in every repetition, mean SC3 at the largest
    budget within 3x the mean SC1."""
    rows = parse_results(text)
    expected = [("SC1", 0.0, r) for r in range(reps)]
    expected += [(sc, float(e), r) for sc in ("SC2", "SC3") for e in grid for r in range(reps)]
    expected.sort()
    require([r[:3] for r in rows] == expected, "results.csv: rows missing, extra or out of order")
    mse = {r[:3]: r[3] for r in rows}
    require(all(math.isfinite(v) and v > 0 for v in mse.values()), "results.csv: MSE not finite and positive")
    for r in range(reps):
        clean = mse[("SC1", 0.0, r)]
        attacked = [mse[("SC2", float(e), r)] for e in sorted(grid)]
        require(attacked[0] > clean, f"repetition {r}: SC2 at the smallest budget does not exceed SC1")
        require(
            all(a < b for a, b in zip(attacked, attacked[1:])),
            f"repetition {r}: SC2 does not rise with the budget",
        )
    top = float(max(grid))
    sc1 = np.mean([mse[("SC1", 0.0, r)] for r in range(reps)])
    sc3 = np.mean([mse[("SC3", top, r)] for r in range(reps)])
    require(sc3 <= 3.0 * sc1, f"mean SC3 at {top:g} is {sc3 / sc1:.3g}x the mean SC1 (bound 3x)")


def check_reproducible(results: Sequence[str]) -> None:
    """Every run of one seed wrote the same results.csv (or digest of it)."""
    require(len(set(results)) <= 1, "results.csv differs between runs of the same seed")


def _close6(printed: str, value: float) -> bool:
    """True when `printed` is `value` rounded to 6 significant digits, up to
    the round-off of recomputing `value` from 12-digit inputs."""
    p = float(printed)
    if value == 0.0:
        return p == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(value))) - 5)
    return abs(p - value) <= 0.5 * unit + 1e-10 * abs(value)


def check_reports(results_text: str, summary_text: str, ratios_text: str) -> None:
    """summary.csv and ratios.csv hold the means, population stds, extremes
    and attacked/clean mean ratios of results.csv."""
    groups: Dict[Tuple[str, float], List[float]] = {}
    for sc, eps, _, mse in parse_results(results_text):
        groups.setdefault((sc, eps), []).append(mse)
    keys = sorted(groups)

    lines = summary_text.splitlines()
    require(lines and lines[0] == SUMMARY_HEADER, "summary.csv: bad header")
    require(len(lines) - 1 == len(keys), "summary.csv: wrong row count")
    for line, key in zip(lines[1:], keys):
        sc, eps, mean, std, lo, hi, n = line.split(",")
        arr = np.asarray(groups[key])
        require((sc, float(eps)) == key, f"summary.csv: row {line!r} out of order")
        require(int(n) == arr.size, f"summary.csv: n of {key} is {n}, expected {arr.size}")
        for name, printed, value in (
            ("mean", mean, arr.mean()),
            ("std", std, arr.std()),
            ("min", lo, arr.min()),
            ("max", hi, arr.max()),
        ):
            require(_close6(printed, float(value)), f"summary.csv: {name} of {key} is {printed}, recomputed {value:.9g}")

    clean = np.mean(groups[("SC1", 0.0)])
    lines = ratios_text.splitlines()
    require(lines and lines[0] == RATIOS_HEADER, "ratios.csv: bad header")
    ratio_keys = [k for k in keys if k[0] != "SC1"]
    require(len(lines) - 1 == len(ratio_keys), "ratios.csv: wrong row count")
    for line, key in zip(lines[1:], ratio_keys):
        sc, eps, ratio = line.split(",")
        require((sc, float(eps)) == key, f"ratios.csv: row {line!r} out of order")
        value = float(np.mean(groups[key]) / clean)
        require(_close6(ratio, value), f"ratios.csv: ratio of {key} is {ratio}, recomputed {value:.9g}")


# -------------------------------------------------------------- datagen

SPEED_OF_LIGHT = 299_792_458.0

# The default scenario the datagen workload asks for.
SCENARIO = {
    "num_bs": 1,
    "num_antennas": 16,
    "num_subcarriers": 8,
    "bandwidth_hz": 1.0e8,
    "carrier_wavelength_m": SPEED_OF_LIGHT / 28.0e9,
    "bs_positions": [[0.0, 0.0]],
    "user_grid": {"x_min": 1.0, "x_max": 8.0, "y_min": -3.0, "y_max": 3.0, "spacing": 0.2},
    "walls": [[-2.0, 4.7, 40.0, 4.7], [-2.0, -4.7, 40.0, -4.7]],
    "reflection_coeff": 0.7,
    "max_reflections": 1,
    "codebook_oversampling": 2,
    "snr_linear": 10.0,
}
LABEL_CAP = 0.9


def read_dataset_file(path):
    """Parse a BMDS1 file: magic, u32-LE header length, JSON header, then
    rows*cols features and rows labels as float64 LE, and nothing after."""
    with open(path, "rb") as fh:
        blob = fh.read()
    require(blob[:5] == b"BMDS1", "dataset file: bad magic")
    (hlen,) = struct.unpack("<I", blob[5:9])
    header = json.loads(blob[9 : 9 + hlen].decode("utf-8"))
    rows, cols = int(header["rows"]), int(header["cols"])
    payload = blob[9 + hlen :]
    require(len(payload) == 8 * rows * (cols + 1), "dataset file: payload length does not match the header")
    values = np.frombuffer(payload, dtype="<f8")
    return header, values[: rows * cols].reshape(rows, cols), values[rows * cols :]


def check_dataset_files(bin_path, csv_path, rows: int, loaded) -> Tuple[dict, np.ndarray, np.ndarray]:
    """The binary file reloads with the declared shape and the same values
    the program's loader returned; the CSV parses back to the same float64s."""
    header, X, y = read_dataset_file(bin_path)
    require((header["rows"], header["cols"]) == (rows, 2 * SCENARIO["num_subcarriers"]), "dataset file: wrong shape")
    require(
        np.array_equal(loaded.features, X) and np.array_equal(loaded.labels, y),
        "dataset file: load_dataset disagrees with the file",
    )
    with open(csv_path, "r", encoding="utf-8") as fh:
        head = fh.readline().strip()
        require(head == ",".join([f"f{i}" for i in range(X.shape[1])] + ["label"]), "dataset CSV: bad header")
        table = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
    require(table.shape == (rows, X.shape[1] + 1), "dataset CSV: wrong shape")
    require(np.array_equal(table[:, :-1], X) and np.array_equal(table[:, -1], y), "dataset CSV: values differ from the binary file")
    return header, X, y


def _grid_points(g) -> np.ndarray:
    nx = int(round((g["x_max"] - g["x_min"]) / g["spacing"])) + 1
    ny = int(round((g["y_max"] - g["y_min"]) / g["spacing"])) + 1
    xs = g["x_min"] + g["spacing"] * np.arange(nx)
    ys = g["y_min"] + g["spacing"] * np.arange(ny)
    return np.array([(x, y) for x in xs for y in ys])


def _paths(users: np.ndarray, bs: np.ndarray):
    """LOS plus one image-method bounce per wall: (lengths, sin AoD, reflection
    gain factor), each (G, paths); invalid bounces get factor 0."""
    rel = users - bs
    lengths = [np.hypot(rel[:, 0], rel[:, 1])]
    sines = [rel[:, 1] / lengths[0]]
    factors = [np.ones(len(users))]
    for x1, y1, x2, y2 in SCENARIO["walls"]:
        p1 = np.array([x1, y1])
        w = np.array([x2 - x1, y2 - y1]) / math.hypot(x2 - x1, y2 - y1)
        normal = np.array([-w[1], w[0]])
        image = bs - 2.0 * np.dot(bs - p1, normal) * normal
        ray = users - image
        length = np.hypot(ray[:, 0], ray[:, 1])
        # where the ray from the mirrored BS to the user crosses the wall line
        t = np.dot(p1 - image, normal) / (ray @ normal)
        hit = image + t[:, None] * ray
        along = (hit - p1) @ w / math.hypot(x2 - x1, y2 - y1)
        same_side = np.sign((users - p1) @ normal) == np.sign(np.dot(bs - p1, normal))
        valid = (t > 0) & (t < 1) & (along >= 0) & (along <= 1) & same_side
        leg = hit - bs
        lengths.append(length)
        sines.append(leg[:, 1] / np.hypot(leg[:, 0], leg[:, 1]))
        factors.append(np.where(valid, SCENARIO["reflection_coeff"], 0.0))
    return np.column_stack(lengths), np.column_stack(sines), np.column_stack(factors)


def reference_grid() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every grid point's noise-free pilot features (G, 2K) and best-beam rate (G,)."""
    lam = SCENARIO["carrier_wavelength_m"]
    K, M = SCENARIO["num_subcarriers"], SCENARIO["num_antennas"]
    B = SCENARIO["bandwidth_hz"]
    points = _grid_points(SCENARIO["user_grid"])
    d, sin_aod, factor = _paths(points, np.array(SCENARIO["bs_positions"][0]))
    gain = factor * lam / (4 * math.pi * d) * np.exp(-2j * math.pi * d / lam)
    tau = d / SPEED_OF_LIGHT
    k = np.arange(K)
    m = np.arange(M)
    h = np.zeros((len(points), K, M), dtype=np.complex128)
    for p in range(d.shape[1]):
        sub = np.exp(-2j * math.pi * tau[:, p, None] * k[None, :] * B / K)
        steer = np.exp(1j * math.pi * sin_aod[:, p, None] * m[None, :])
        h += gain[:, p, None, None] * sub[:, :, None] * steer[:, None, :]
    beams = M * SCENARIO["codebook_oversampling"]
    sin_grid = -1.0 + 2.0 * np.arange(beams) / beams
    codebook = np.exp(1j * math.pi * sin_grid[:, None] * m[None, :]) / math.sqrt(M)
    power = np.abs(h @ codebook.T) ** 2  # (G, K, beams)
    rates = np.log1p(SCENARIO["snr_linear"] * power).mean(axis=1) / math.log(2.0)
    pilots = np.empty((len(points), 2 * K))
    pilots[:, 0::2] = h[:, :, 0].real
    pilots[:, 1::2] = h[:, :, 0].imag
    return points, pilots, rates.max(axis=1)


def check_dataset_values(header: dict, X: np.ndarray, y: np.ndarray, reference=None) -> None:
    """Standardized features, labels spanning exactly [0, 0.9], and every row's
    de-scaled label equal to the best-beam rate of a grid point nearest to
    its de-standardized pilot features."""
    scen = header["scenario"]
    for key, value in SCENARIO.items():
        require(scen[key] == value, f"dataset header: scenario.{key} is {scen[key]!r}, expected {value!r}")
    require(float(y.min()) == 0.0 and float(y.max()) == LABEL_CAP, "labels do not span exactly [0, 0.9]")
    require(np.all(np.abs(X.mean(axis=0)) < 1e-9), "feature columns do not have mean 0")
    require(np.all(np.abs(X.std(axis=0) - 1.0) < 1e-9), "feature columns do not have standard deviation 1")

    meta = header["norm_meta"]
    raw_X = X * np.asarray(meta["feature_std"]) + np.asarray(meta["feature_mean"])
    span = meta["label_max"] - meta["label_min"]
    raw_y = meta["label_min"] + (y / meta["label_cap"]) * span
    _, pilots, rates = reference if reference is not None else reference_grid()
    pilot_sq = np.sum(pilots**2, axis=1)
    for start in range(0, len(raw_X), 4096):
        rows = raw_X[start : start + 4096]
        labels = raw_y[start : start + 4096]
        d2 = np.sum(rows**2, axis=1)[:, None] + pilot_sq[None, :] - 2.0 * rows @ pilots.T
        d2 = np.maximum(d2, 0.0)
        # mirror points (x, y) and (x, -y) share a pilot, so up to two tie;
        # every other grid point lies thousands of times farther away
        tied = d2 <= 4.0 * d2.min(axis=1)[:, None]
        match = tied & (np.abs(rates[None, :] - labels[:, None]) <= 1e-9 * np.abs(labels)[:, None])
        bad = np.flatnonzero(~match.any(axis=1))
        require(
            bad.size == 0,
            f"{bad.size} rows carry a label that is not the rate of their nearest grid point "
            f"(first: row {start + int(bad[0]) if bad.size else -1})",
        )


# --------------------------------------------------------------- attack

def perturbation_signs(X: np.ndarray, X_adv: np.ndarray, eps: float) -> np.ndarray:
    """max |x_adv - x| is eps and every nonzero component is +-eps; returns
    the sign of each component."""
    delta = X_adv - X
    tol = 4.0 * float(np.spacing(np.abs(X).max() + eps))
    size = np.abs(delta)
    require(abs(float(size.max()) - eps) <= tol, f"eps={eps:g}: max |x_adv - x| is {size.max():.17g}")
    require(np.all((size == 0.0) | (np.abs(size - eps) <= tol)), f"eps={eps:g}: a nonzero component is not +-eps")
    return np.sign(delta).astype(np.int8)


def fd_gradient_signs(predict, X: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Signs of central-difference gradients of each row's squared error,
    and a mask of the components they resolve: both step sizes agree to 10%
    and the gradient is well above round-off."""
    grads = []
    for h in (1e-5, 1e-6):
        g = np.empty_like(X)
        for i in range(X.shape[1]):
            up, down = X.copy(), X.copy()
            up[:, i] += h
            down[:, i] -= h
            g[:, i] = ((predict(up) - y) ** 2 - (predict(down) - y) ** 2) / (2.0 * h)
        grads.append(g)
    coarse, fine = grads
    resolved = (np.abs(coarse) > 1e-7) & (np.abs(coarse - fine) <= 0.1 * np.abs(coarse))
    return np.sign(coarse).astype(np.int8), resolved


def check_signs(signs: np.ndarray, fd_signs: np.ndarray, resolved: np.ndarray, eps: float) -> None:
    require(resolved.mean() > 0.5, "finite differences resolve too few components to judge the signs")
    wrong = int(np.count_nonzero((signs != fd_signs) & resolved))
    require(wrong == 0, f"eps={eps:g}: {wrong} perturbation signs disagree with finite differences")


def check_mse_curve(clean: float, attacked: Sequence[float]) -> None:
    require(attacked[0] > clean, "attacked MSE does not exceed the clean MSE")
    require(all(a < b for a, b in zip(attacked, attacked[1:])), "attacked MSE does not rise with the budget")
