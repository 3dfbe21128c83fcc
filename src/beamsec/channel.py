"""Geometric mmWave downlink simulator.

Image-method multipath channels over a walled street canyon, a DFT beam
codebook, per-beam achievable rates, omni pilot features, and dataset
assembly with feature standardization and label scaling.

Geometry conventions: 2-D plan view, base stations carry a uniform linear
array along the y axis (broadside facing +x), departure angles are measured
from broadside so the steering phase of element m is pi*m*sin(angle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .config import dump
from .framing import read_framed, write_framed

SPEED_OF_LIGHT = 299_792_458.0

_MAGIC = b"BMDS1"

_LABEL_CAP = 0.9

# Instances per random stream: instance block b draws from
# default_rng([seed, b]). Part of the data definition, so changing it
# changes every dataset byte.
_DRAW_BLOCK = 1024

# Distinct grid points per step of build_dataset: bounds the memory one
# step holds at once.
_POINT_BLOCK = 256

# Rows per step of dataset_to_csv. A step holds 40 bytes of character slots
# per value (see csvtext.rows) and a few arrays of one to four integers per
# value.
_CSV_BLOCK = 1024


@dataclass(frozen=True)
class UserGrid:
    """Rectangle of candidate user positions with a fixed point spacing."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    spacing: float

    def __post_init__(self):
        if self.spacing <= 0:
            raise ValueError("grid spacing must be positive")
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError("grid rectangle is inverted")

    def points(self) -> np.ndarray:
        """All grid positions as an (G, 2) array, x-major then y."""
        nx = int(math.floor((self.x_max - self.x_min) / self.spacing + 1e-9)) + 1
        ny = int(math.floor((self.y_max - self.y_min) / self.spacing + 1e-9)) + 1
        xs = self.x_min + self.spacing * np.arange(nx)
        ys = self.y_min + self.spacing * np.arange(ny)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])


@dataclass(frozen=True)
class ScenarioParams:
    """Everything that pins down one simulated scenario, including its seed."""

    num_bs: int = 1
    num_antennas: int = 16
    num_subcarriers: int = 8
    bandwidth_hz: float = 1.0e8
    carrier_wavelength_m: float = SPEED_OF_LIGHT / 28.0e9
    bs_positions: Tuple[Tuple[float, float], ...] = ((0.0, 0.0),)
    user_grid: UserGrid = field(
        default_factory=lambda: UserGrid(1.0, 8.0, -3.0, 3.0, 0.2)
    )
    # finite reflecting segments, each from (x1, y1) to (x2, y2)
    walls: Tuple[Tuple[float, float, float, float], ...] = (
        (-2.0, 4.7, 40.0, 4.7),
        (-2.0, -4.7, 40.0, -4.7),
    )
    reflection_coeff: float = 0.7
    max_reflections: int = 1
    codebook_oversampling: int = 2
    snr_linear: float = 10.0
    noise_variance: float = 1e-13
    seed: int = 1

    def __post_init__(self):
        if self.num_bs < 1 or self.num_antennas < 1 or self.num_subcarriers < 1:
            raise ValueError("num_bs, num_antennas and num_subcarriers must be >= 1")
        if len(self.bs_positions) != self.num_bs:
            raise ValueError("bs_positions length must equal num_bs")
        if self.bandwidth_hz <= 0 or self.carrier_wavelength_m <= 0:
            raise ValueError("bandwidth and wavelength must be positive")
        if not 0.0 < self.reflection_coeff <= 1.0:
            raise ValueError("reflection_coeff must lie in (0, 1]")
        if any(x1 == x2 and y1 == y2 for x1, y1, x2, y2 in self.walls):
            raise ValueError("wall endpoints coincide")
        if self.max_reflections not in (0, 1):
            raise ValueError("max_reflections must be 0 or 1")
        if self.codebook_oversampling < 1:
            raise ValueError("codebook_oversampling must be >= 1")
        if self.snr_linear < 0:
            raise ValueError("snr_linear must be nonnegative")
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def default_scenario(seed: int = 1) -> ScenarioParams:
    """Desk-scale default: one BS, 16 antennas, 8 subcarriers, 32 beams."""
    return ScenarioParams(seed=seed)


def dft_codebook(num_antennas: int, oversampling: int = 1) -> np.ndarray:
    """Unit-norm beams, (num_antennas*oversampling, num_antennas), whose
    steering sines tile [-1, 1) uniformly; element m of the beam steered to
    sin s carries phase pi*m*s."""
    if num_antennas < 1:
        raise ValueError("num_antennas must be >= 1")
    if oversampling < 1:
        raise ValueError("oversampling must be >= 1")
    num_beams = num_antennas * oversampling
    sin_grid = -1.0 + 2.0 * np.arange(num_beams) / num_beams
    return np.exp(
        1j * np.pi * np.outer(sin_grid, np.arange(num_antennas))
    ) / np.sqrt(num_antennas)


def _cross2(ax, ay, bx, by):
    return ax * by - ay * bx


def _path_gain(lengths: np.ndarray, wavelength: float) -> np.ndarray:
    """Free-space complex gain: amplitude lambda/(4 pi d), carrier phase -2 pi d/lambda."""
    return (wavelength / (4.0 * np.pi * lengths)) * np.exp(
        -2j * np.pi * lengths / wavelength
    )


def _paths(params: ScenarioParams, bs: np.ndarray, users: np.ndarray):
    """Per-path gains, sin(AoD) and delays (R, L) from the BS at `bs` to R users.

    Column 0 is the LOS path. With max_reflections = 1 each wall adds the
    column of its image-method bounce, whose gain is exactly 0 where the
    bounce misses the wall segment; a bounce that lands keeps its nonzero
    gain, the reflection coefficient times lambda/(4 pi d).
    """
    lam = params.carrier_wavelength_m
    rel = users - bs
    dist = np.linalg.norm(rel, axis=1)
    gains = [_path_gain(dist, lam)]
    sin_aod = [rel[:, 1] / dist]
    delays = [dist / SPEED_OF_LIGHT]

    walls = params.walls if params.max_reflections >= 1 else ()
    for x1, y1, x2, y2 in walls:
        p1 = np.array([x1, y1])
        w = np.array([x2 - x1, y2 - y1])
        unit = w / np.linalg.norm(w)
        off = bs - p1
        image = p1 + 2.0 * (np.dot(off, unit) * unit) - off  # the BS mirrored across the wall
        d = users - image  # ray from the mirrored BS to each user
        b = p1 - image
        denom = _cross2(d[:, 0], d[:, 1], w[0], w[1])
        ok = np.abs(denom) > 1e-12
        safe = np.where(ok, denom, 1.0)
        t = _cross2(b[0], b[1], w[0], w[1]) / safe
        s = _cross2(b[0], b[1], d[:, 0], d[:, 1]) / safe
        leg = image[None, :] + t[:, None] * d - bs  # BS to the bounce point
        leg_len = np.linalg.norm(leg, axis=1)
        length = np.linalg.norm(d, axis=1)
        # bounce must land inside the segment, strictly between image and user,
        # and the BS and user must sit on the same side of the wall
        side_bs = _cross2(w[0], w[1], off[0], off[1])
        side_user = _cross2(w[0], w[1], users[:, 0] - p1[0], users[:, 1] - p1[1])
        hit = ok & (t > 1e-9) & (t < 1.0 - 1e-9) & (s >= 0.0) & (s <= 1.0)
        hit &= (side_bs * side_user > 0.0) & (leg_len > 1e-9) & (length > 1e-9)
        gains.append(np.where(hit, params.reflection_coeff * _path_gain(length, lam), 0.0))
        sin_aod.append(leg[:, 1] / np.where(leg_len > 1e-9, leg_len, 1.0))
        delays.append(length / SPEED_OF_LIGHT)

    return np.column_stack(gains), np.column_stack(sin_aod), np.column_stack(delays)


def _channel_tensor(params: ScenarioParams, gains, sin_aod, delays):
    """Assemble h for a batch: (R, K, M) from per-path arrays (R, L)."""
    K, M = params.num_subcarriers, params.num_antennas
    k = np.arange(K)
    sub_phase = np.exp(
        -2j * np.pi * delays[:, :, None] * k[None, None, :] * params.bandwidth_hz / K
    )
    # steering entries times sqrt(M): unit-modulus physical array response
    steer = np.exp(1j * np.pi * sin_aod[:, :, None] * np.arange(M)[None, None, :])
    return np.einsum("rl,rlk,rlm->rkm", gains, sub_phase, steer)


def channels(params: ScenarioParams, positions) -> np.ndarray:
    """Image-method channels h[n, r, k, m] of every BS n at the (R, 2) user
    positions r, on subcarrier k and antenna m.

    LOS plus at most one bounce per wall; per-path gain lambda/(4 pi d) with
    carrier phase, per-subcarrier phase exp(-j 2 pi k tau B / K).
    """
    positions = np.asarray(positions, dtype=np.float64)
    h = np.empty(
        (params.num_bs, len(positions), params.num_subcarriers, params.num_antennas),
        dtype=np.complex128,
    )
    for n, bs_xy in enumerate(params.bs_positions):
        bs = np.asarray(bs_xy, dtype=np.float64)
        if np.any(np.linalg.norm(positions - bs, axis=1) < 0.1):
            raise ValueError("user position closer than 0.1 m to a BS")
        h[n] = _channel_tensor(params, *_paths(params, bs, positions))
    return h


def beam_rates(h, codebook: np.ndarray, snr_linear: float) -> np.ndarray:
    """Rate of every codebook beam for each (K, M) channel of h: (R, beams).

    A beam g's rate is the mean over subcarriers of log2(1 + snr |h_k . g|^2).
    """
    if snr_linear < 0:
        raise ValueError("snr_linear must be nonnegative")
    power = np.abs(np.einsum("rkm,pm->rkp", h, codebook)) ** 2
    return np.log1p(snr_linear * power).mean(axis=1) / np.log(2.0)


@dataclass(frozen=True)
class NormMeta:
    """Feature z-score parameters and the linear label map fitted on one split."""

    feature_mean: np.ndarray
    feature_std: np.ndarray
    label_min: float
    label_max: float
    label_cap: float = _LABEL_CAP

    def __post_init__(self):
        mean, std = np.shape(self.feature_mean), np.shape(self.feature_std)
        if len(mean) != 1 or mean != std:
            raise ValueError("feature_mean and feature_std must be vectors of one length")
        if not np.all(self.feature_std > 0):
            raise ValueError("feature_std must be positive")
        if not self.label_min <= self.label_max:
            raise ValueError("label_min must not exceed label_max")
        if not 0.0 < self.label_cap < 1.0:
            raise ValueError("label_cap must lie in (0, 1)")

    def _normalize_features_(self, X: np.ndarray) -> np.ndarray:
        """Z-score the raw float64 feature array X in place."""
        X -= self.feature_mean
        X /= self.feature_std
        return X

    def _denormalize_features_(self, X: np.ndarray) -> np.ndarray:
        """Map the z-scored float64 feature array X back to raw values in place."""
        X *= self.feature_std
        X += self.feature_mean
        return X

    def normalize_labels(self, raw) -> np.ndarray:
        raw = np.asarray(raw, dtype=np.float64)
        span = self.label_max - self.label_min
        if span <= 0.0:
            return np.zeros_like(raw)
        # ratio first so the max maps to label_cap bit-exactly
        return self.label_cap * ((raw - self.label_min) / span)

    def denormalize_labels(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        span = self.label_max - self.label_min
        if span <= 0.0:
            return np.full_like(y, self.label_min)
        return self.label_min + (y / self.label_cap) * span


def fit_normalization(raw_features, raw_labels) -> NormMeta:
    """Column-wise z-score parameters plus min/max label scaling."""
    X = np.asarray(raw_features, dtype=np.float64)
    y = np.asarray(raw_labels, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("need a nonempty feature matrix")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < 1e-15, 1.0, std)  # constant columns pass through
    return NormMeta(
        feature_mean=mean,
        feature_std=std,
        label_min=float(y.min()),
        label_max=float(y.max()),
    )


@dataclass
class Dataset:
    """Normalized features/labels plus the transform that produced them."""

    features: np.ndarray
    labels: np.ndarray
    norm_meta: NormMeta
    scenario: ScenarioParams
    adversarial: bool = False
    epsilon: Optional[float] = None

    @property
    def num_rows(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


def build_dataset(params: ScenarioParams, num_instances: int) -> Dataset:
    """Sample user positions, simulate channels/pilots, label with best-beam sum rate.

    Instance block b (instances _DRAW_BLOCK*b onward) draws from
    default_rng([params.seed, b]): the whole block's grid indices, then its
    pilot normals. Whole blocks are drawn even past num_instances, so
    instance i's draws depend only on (params.seed, i) and the result is a
    pure function of the params and the instance count. Channels and
    best-beam rates are computed once per distinct sampled grid point and
    gathered per instance. Labels are the per-instance sum over BSs of the
    best codebook beam's rate, scaled so the dataset maximum lands on 0.9 and
    the minimum on 0.0. Features are the omni pilots (the first antenna
    element) plus complex AWGN of variance noise_variance, laid out
    BS-major, subcarrier-minor, [Re, Im] interleaved, and z-scored per column
    over the whole set.
    """
    if num_instances < 1:
        raise ValueError("num_instances must be >= 1")
    grid = params.user_grid.points()
    if grid.shape[0] == 0:
        raise ValueError("user grid has no points")
    N, K, M = params.num_bs, params.num_subcarriers, params.num_antennas
    sigma = params.noise_variance
    scale = np.sqrt(sigma / 2.0)
    blocks = [
        slice(a, min(a + _DRAW_BLOCK, num_instances)) for a in range(0, num_instances, _DRAW_BLOCK)
    ]

    # feats_raw holds the scaled noise, [Re, Im] interleaved, until the
    # pilots are added below
    idx = np.empty(num_instances, dtype=np.int64)
    feats_raw = np.empty((num_instances, 2 * N * K), dtype=np.float64)
    normals = np.empty((_DRAW_BLOCK, 2, N * K), dtype=np.float64) if sigma > 0 else None
    for b, rows in enumerate(blocks):
        count = rows.stop - rows.start
        gen = np.random.default_rng([params.seed, b])
        idx[rows] = gen.integers(0, grid.shape[0], size=_DRAW_BLOCK)[:count]
        if normals is not None:
            gen.standard_normal(out=normals)
            noise = feats_raw[rows].reshape(count, N * K, 2)
            np.multiply(normals[:count].transpose(0, 2, 1), scale, out=noise)

    points, where = np.unique(idx, return_inverse=True)
    codebook = dft_codebook(M, params.codebook_oversampling)
    point_label = np.zeros(len(points), dtype=np.float64)
    pilots = np.empty((len(points), 2 * N * K), dtype=np.float64)
    for a in range(0, len(points), _POINT_BLOCK):
        part = slice(a, a + _POINT_BLOCK)
        h = channels(params, grid[points[part]])
        for h_n in h:
            point_label[part] += beam_rates(h_n, codebook, params.snr_linear).max(axis=1)
        obs = h[:, :, :, 0].transpose(1, 0, 2).reshape(-1, N * K)
        pilots[part, 0::2] = obs.real
        pilots[part, 1::2] = obs.imag
    for rows in blocks:
        if sigma > 0:
            feats_raw[rows] += pilots[where[rows]]
        else:
            feats_raw[rows] = pilots[where[rows]]
    label_raw = point_label[where]

    norm = fit_normalization(feats_raw, label_raw)
    return Dataset(
        features=norm._normalize_features_(feats_raw),
        labels=norm.normalize_labels(label_raw),
        norm_meta=norm,
        scenario=params,
    )


def split_dataset(ds: Dataset, train_fraction: float, rng) -> Tuple[Dataset, Dataset]:
    """Shuffle-split rows; normalization is re-fitted on the training rows only.

    Each side maps only the rows it takes back to raw values and on to the
    new normalization, in one array per side."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    n = ds.num_rows
    n_train = int(round(train_fraction * n))
    if n_train < 1 or n_train >= n:
        raise ValueError("split leaves an empty side")
    order = rng.permutation(n)

    def raw(rows):
        X = ds.features[rows].astype(np.float64, copy=False)
        y = ds.norm_meta.denormalize_labels(ds.labels[rows])
        return ds.norm_meta._denormalize_features_(X), y

    def cut(X, y):
        return Dataset(
            features=norm._normalize_features_(X),
            labels=norm.normalize_labels(y),
            norm_meta=norm,
            scenario=ds.scenario,
        )

    train_X, train_y = raw(order[:n_train])
    norm = fit_normalization(train_X, train_y)
    return cut(train_X, train_y), cut(*raw(order[n_train:]))


@dataclass(frozen=True)
class _DatasetHeader:
    """The JSON header of a dataset file, as save_dataset writes it."""

    scenario: ScenarioParams
    norm_meta: NormMeta
    rows: int
    cols: int
    adversarial: bool
    epsilon: Optional[float]

    def __post_init__(self):
        if self.epsilon is not None and self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if len(self.norm_meta.feature_mean) != self.cols:
            raise ValueError("norm_meta vectors must have one entry per column")


def save_dataset(ds: Dataset, path) -> None:
    """Framed dataset file (BMDS1): JSON header, then features and labels."""
    header = _DatasetHeader(
        ds.scenario, ds.norm_meta, ds.num_rows, ds.num_features, ds.adversarial, ds.epsilon
    )
    write_framed(path, _MAGIC, dump(header), (ds.features, ds.labels))


def load_dataset(path) -> Dataset:
    """Read a dataset file; a malformed one raises framing.FormatError."""

    def decode(head, take):
        return Dataset(
            features=take((head.rows, head.cols)),
            labels=take((head.rows,)),
            norm_meta=head.norm_meta,
            scenario=head.scenario,
            adversarial=head.adversarial,
            epsilon=head.epsilon,
        )

    return read_framed(path, _MAGIC, _DatasetHeader, decode)


def dataset_to_csv(ds: Dataset, path) -> None:
    """Plain-text view for inspection: feature columns then the label column,
    each value as %.17g, "\n" line ends on every platform. Rows are turned
    into bytes _CSV_BLOCK at a time by csvtext.rows."""
    # imported on first use, so that commands which never export neither
    # compile csvtext nor hold its tables
    from . import csvtext

    cols = [f"f{i}" for i in range(ds.num_features)] + ["label"]
    with open(path, "wb") as fh:
        fh.write((",".join(cols) + "\n").encode("ascii"))
        for a in range(0, ds.num_rows, _CSV_BLOCK):
            part = slice(a, a + _CSV_BLOCK)
            fh.write(csvtext.rows(np.column_stack([ds.features[part], ds.labels[part]])))
