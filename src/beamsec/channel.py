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
from dataclasses import asdict, dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import config
from .framing import read_framed, write_framed

SPEED_OF_LIGHT = 299_792_458.0

_MAGIC = b"BMDS1"

_LABEL_CAP = 0.9


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

    def contains(self, pos) -> bool:
        x, y = float(pos[0]), float(pos[1])
        tol = 1e-9
        return (
            self.x_min - tol <= x <= self.x_max + tol
            and self.y_min - tol <= y <= self.y_max + tol
        )


@dataclass(frozen=True)
class Wall:
    """Finite reflecting segment from (x1, y1) to (x2, y2)."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if self.x1 == self.x2 and self.y1 == self.y2:
            raise ValueError("wall endpoints coincide")


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
    walls: Tuple[Wall, ...] = (
        Wall(-2.0, 4.7, 40.0, 4.7),
        Wall(-2.0, -4.7, 40.0, -4.7),
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


@dataclass(frozen=True)
class Path:
    """One propagation path: complex gain, departure angle, delay, bounce count."""

    gain: complex
    aod_rad: float
    delay_s: float
    bounces: int


@dataclass(frozen=True)
class ChannelRealization:
    """h[n, k, m]: BS n, subcarrier k, antenna m; plus the per-BS path lists."""

    h: np.ndarray
    paths: Tuple[Tuple[Path, ...], ...]


@dataclass(frozen=True)
class Codebook:
    """Beam steering vectors, one row per beam, plus their steering angles."""

    vectors: np.ndarray  # (num_beams, num_antennas) complex
    angles: np.ndarray  # (num_beams,) radians

    def __len__(self) -> int:
        return self.vectors.shape[0]


def steering_vector(angle_rad: float, num_antennas: int) -> np.ndarray:
    """Unit-norm ULA steering vector; element m carries phase pi*m*sin(angle)."""
    if num_antennas < 1:
        raise ValueError("num_antennas must be >= 1")
    m = np.arange(num_antennas)
    return np.exp(1j * np.pi * m * np.sin(angle_rad)) / np.sqrt(num_antennas)


def dft_codebook(num_antennas: int, oversampling: int = 1) -> Codebook:
    """num_antennas*oversampling beams tiling sin-space uniformly over [-1, 1)."""
    if num_antennas < 1:
        raise ValueError("num_antennas must be >= 1")
    if oversampling < 1:
        raise ValueError("oversampling must be >= 1")
    num_beams = num_antennas * oversampling
    sin_grid = -1.0 + 2.0 * np.arange(num_beams) / num_beams
    vectors = np.exp(
        1j * np.pi * np.outer(sin_grid, np.arange(num_antennas))
    ) / np.sqrt(num_antennas)
    return Codebook(vectors=vectors, angles=np.arcsin(sin_grid))


def _mirror_point(point: np.ndarray, wall: Wall) -> np.ndarray:
    """Reflect a point across the infinite line through the wall segment."""
    p1 = np.array([wall.x1, wall.y1])
    direction = np.array([wall.x2 - wall.x1, wall.y2 - wall.y1])
    direction = direction / np.linalg.norm(direction)
    rel = point - p1
    along = np.dot(rel, direction) * direction
    return p1 + 2.0 * along - rel


def _cross2(ax, ay, bx, by):
    return ax * by - ay * bx


def _bounce_geometry(bs: np.ndarray, wall: Wall, users: np.ndarray):
    """Image-method single bounce for each user; returns (points (R,2), valid (R,))."""
    image = _mirror_point(bs, wall)
    p1 = np.array([wall.x1, wall.y1])
    w = np.array([wall.x2 - wall.x1, wall.y2 - wall.y1])
    d = users - image  # ray from the mirrored BS to each user
    b = p1 - image
    denom = _cross2(d[:, 0], d[:, 1], w[0], w[1])
    ok = np.abs(denom) > 1e-12
    safe = np.where(ok, denom, 1.0)
    t = _cross2(b[0], b[1], w[0], w[1]) / safe
    s = _cross2(b[0], b[1], d[:, 0], d[:, 1]) / safe
    # bounce must land inside the segment, strictly between image and user,
    # and the BS and user must sit on the same side of the wall
    side_bs = _cross2(w[0], w[1], bs[0] - p1[0], bs[1] - p1[1])
    side_user = _cross2(w[0], w[1], users[:, 0] - p1[0], users[:, 1] - p1[1])
    valid = ok & (t > 1e-9) & (t < 1.0 - 1e-9) & (s >= 0.0) & (s <= 1.0)
    valid &= side_bs * side_user > 0.0
    points = image[None, :] + t[:, None] * d
    return points, valid


def _path_gain(lengths: np.ndarray, wavelength: float) -> np.ndarray:
    """Free-space complex gain: amplitude lambda/(4 pi d), carrier phase -2 pi d/lambda."""
    return (wavelength / (4.0 * np.pi * lengths)) * np.exp(
        -2j * np.pi * lengths / wavelength
    )


def _path_table(params: ScenarioParams, bs: np.ndarray, users: np.ndarray):
    """Per-path arrays for a batch of users: gains, sin(AoD), delays, validity, bounces."""
    lam = params.carrier_wavelength_m
    cols_gain, cols_sin, cols_delay, cols_valid, bounce_counts = [], [], [], [], []

    rel = users - bs
    dist = np.linalg.norm(rel, axis=1)
    cols_gain.append(_path_gain(dist, lam))
    cols_sin.append(rel[:, 1] / dist)
    cols_delay.append(dist / SPEED_OF_LIGHT)
    cols_valid.append(np.ones(len(users), dtype=bool))
    bounce_counts.append(0)

    if params.max_reflections >= 1:
        for wall in params.walls:
            points, valid = _bounce_geometry(bs, wall, users)
            image = _mirror_point(bs, wall)
            length = np.linalg.norm(users - image, axis=1)
            leg = points - bs
            leg_len = np.linalg.norm(leg, axis=1)
            valid = valid & (leg_len > 1e-9) & (length > 1e-9)
            safe_leg = np.where(leg_len > 1e-9, leg_len, 1.0)
            cols_gain.append(params.reflection_coeff * _path_gain(length, lam))
            cols_sin.append(leg[:, 1] / safe_leg)
            cols_delay.append(length / SPEED_OF_LIGHT)
            cols_valid.append(valid)
            bounce_counts.append(1)

    gains = np.column_stack(cols_gain)
    sin_aod = np.column_stack(cols_sin)
    delays = np.column_stack(cols_delay)
    valid = np.column_stack(cols_valid)
    return gains, sin_aod, delays, valid, np.array(bounce_counts)


def _channel_tensor(params: ScenarioParams, gains, sin_aod, delays, valid):
    """Assemble h for a batch: (R, K, M) from per-path arrays (R, L)."""
    K, M = params.num_subcarriers, params.num_antennas
    g = np.where(valid, gains, 0.0)
    k = np.arange(K)
    sub_phase = np.exp(
        -2j * np.pi * delays[:, :, None] * k[None, None, :] * params.bandwidth_hz / K
    )
    # steering entries times sqrt(M): unit-modulus physical array response
    steer = np.exp(1j * np.pi * sin_aod[:, :, None] * np.arange(M)[None, None, :])
    return np.einsum("rl,rlk,rlm->rkm", g, sub_phase, steer)


def generate_channels(params: ScenarioParams, user_pos) -> ChannelRealization:
    """Image-method channel for one user position.

    LOS plus at most one bounce per wall; per-path gain lambda/(4 pi d) with
    carrier phase, per-subcarrier phase exp(-j 2 pi k tau B / K).
    """
    pos = np.asarray(user_pos, dtype=np.float64)
    if pos.shape != (2,):
        raise ValueError("user position must be a 2-vector")
    if not params.user_grid.contains(pos):
        raise ValueError("user position lies outside the user grid")
    N, K, M = params.num_bs, params.num_subcarriers, params.num_antennas
    h = np.zeros((N, K, M), dtype=np.complex128)
    all_paths = []
    users = pos[None, :]
    for n, bs_xy in enumerate(params.bs_positions):
        bs = np.asarray(bs_xy, dtype=np.float64)
        if np.linalg.norm(pos - bs) < 0.1:
            raise ValueError("user position is closer than 0.1 m to a BS")
        gains, sin_aod, delays, valid, bounces = _path_table(params, bs, users)
        h[n] = _channel_tensor(params, gains, sin_aod, delays, valid)[0]
        plist = [
            Path(
                gain=complex(gains[0, l]),
                aod_rad=float(np.arcsin(np.clip(sin_aod[0, l], -1.0, 1.0))),
                delay_s=float(delays[0, l]),
                bounces=int(bounces[l]),
            )
            for l in range(gains.shape[1])
            if valid[0, l]
        ]
        all_paths.append(tuple(plist))
    return ChannelRealization(h=h, paths=tuple(all_paths))


def achievable_rate(h, beam, snr_linear: float) -> float:
    """Mean over subcarriers of log2(1 + snr * |h_k^T g|^2); h is (K, M) or (M,)."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim == 1:
        h = h[None, :]
    g = np.asarray(beam, dtype=np.complex128)
    if h.ndim != 2 or g.ndim != 1 or h.shape[1] != g.shape[0]:
        raise ValueError("channel must be (K, M) and beam (M,)")
    if snr_linear < 0:
        raise ValueError("snr_linear must be nonnegative")
    power = np.abs(h @ g) ** 2
    return float(np.mean(np.log1p(snr_linear * power)) / np.log(2.0))


def best_beam(h, codebook: Codebook, snr_linear: float) -> Tuple[int, float]:
    """Exhaustive codebook search; ties resolve to the lowest beam index."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim == 1:
        h = h[None, :]
    if len(codebook) == 0:
        raise ValueError("codebook is empty")
    if h.shape[1] != codebook.vectors.shape[1]:
        raise ValueError("channel/codebook antenna mismatch")
    if snr_linear < 0:
        raise ValueError("snr_linear must be nonnegative")
    power = np.abs(h @ codebook.vectors.T) ** 2  # (K, beams)
    rates = np.mean(np.log1p(snr_linear * power), axis=0) / np.log(2.0)
    idx = int(np.argmax(rates))
    return idx, float(rates[idx])


def pilot_features(chan: ChannelRealization, params: ScenarioParams, rng) -> np.ndarray:
    """Omni pilot observations as a real feature vector of length 2*K*N.

    The first antenna element plays the omni probe; complex AWGN of variance
    noise_variance is added per observation. Layout: BS-major, subcarrier-
    minor, [Re, Im] interleaved per observation.
    """
    obs = chan.h[:, :, 0]
    if params.noise_variance > 0.0:
        scale = np.sqrt(params.noise_variance / 2.0)
        obs = obs + scale * (
            rng.standard_normal(obs.shape) + 1j * rng.standard_normal(obs.shape)
        )
    flat = obs.reshape(-1)
    feats = np.empty(2 * flat.size, dtype=np.float64)
    feats[0::2] = flat.real
    feats[1::2] = flat.imag
    return feats


@dataclass(frozen=True)
class NormMeta:
    """Feature z-score parameters and the linear label map fitted on one split."""

    feature_mean: np.ndarray
    feature_std: np.ndarray
    label_min: float
    label_max: float
    label_cap: float = _LABEL_CAP

    def normalize_features(self, raw) -> np.ndarray:
        return (np.asarray(raw, dtype=np.float64) - self.feature_mean) / self.feature_std

    def denormalize_features(self, z) -> np.ndarray:
        return np.asarray(z, dtype=np.float64) * self.feature_std + self.feature_mean

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


def fit_normalization(raw_features, raw_labels, cap: float = _LABEL_CAP) -> NormMeta:
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
        label_cap=float(cap),
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

    Every random draw for instance i comes from the child stream keyed by
    (params.seed, i), so the result is a pure function of the params and the
    instance count. Labels are the per-instance sum over BSs of the best
    codebook beam's rate, scaled so the dataset maximum lands on 0.9 and the
    minimum on 0.0; features are z-scored per column over the whole set.
    """
    if num_instances < 1:
        raise ValueError("num_instances must be >= 1")
    grid = params.user_grid.points()
    if grid.shape[0] == 0:
        raise ValueError("user grid has no points")
    N, K, M = params.num_bs, params.num_subcarriers, params.num_antennas
    sigma = params.noise_variance
    idx = np.empty(num_instances, dtype=np.int64)
    noise = np.zeros((num_instances, N, K), dtype=np.complex128) if sigma > 0 else None
    scale = np.sqrt(sigma / 2.0) if sigma > 0 else 0.0
    for i in range(num_instances):
        child = np.random.default_rng([params.seed, i])
        idx[i] = child.integers(0, grid.shape[0])
        if noise is not None:
            re = child.standard_normal((N, K))
            im = child.standard_normal((N, K))
            noise[i] = scale * (re + 1j * im)
    positions = grid[idx]

    codebook = dft_codebook(M, params.codebook_oversampling)
    feats_raw = np.empty((num_instances, 2 * K * N), dtype=np.float64)
    label_raw = np.zeros(num_instances, dtype=np.float64)
    for n, bs_xy in enumerate(params.bs_positions):
        bs = np.asarray(bs_xy, dtype=np.float64)
        if np.any(np.linalg.norm(positions - bs, axis=1) < 0.1):
            raise ValueError("user grid point closer than 0.1 m to a BS")
        gains, sin_aod, delays, valid, _ = _path_table(params, bs, positions)
        h_n = _channel_tensor(params, gains, sin_aod, delays, valid)
        power = np.abs(np.einsum("rkm,pm->rkp", h_n, codebook.vectors)) ** 2
        rates = np.log1p(params.snr_linear * power).mean(axis=1) / np.log(2.0)
        label_raw += rates.max(axis=1)
        first = h_n[:, :, 0]
        if noise is not None:
            first = first + noise[:, n, :]
        block = feats_raw[:, 2 * n * K : 2 * (n + 1) * K]
        block[:, 0::2] = first.real
        block[:, 1::2] = first.imag

    norm = fit_normalization(feats_raw, label_raw)
    return Dataset(
        features=norm.normalize_features(feats_raw),
        labels=norm.normalize_labels(label_raw),
        norm_meta=norm,
        scenario=params,
    )


def split_dataset(ds: Dataset, train_fraction: float, rng) -> Tuple[Dataset, Dataset]:
    """Shuffle-split rows; normalization is re-fitted on the training rows only."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    n = ds.num_rows
    n_train = int(round(train_fraction * n))
    if n_train < 1 or n_train >= n:
        raise ValueError("split leaves an empty side")
    raw_X = ds.norm_meta.denormalize_features(ds.features)
    raw_y = ds.norm_meta.denormalize_labels(ds.labels)
    order = rng.permutation(n)
    tr, te = order[:n_train], order[n_train:]
    norm = fit_normalization(raw_X[tr], raw_y[tr])

    def cut(rows):
        return Dataset(
            features=norm.normalize_features(raw_X[rows]),
            labels=norm.normalize_labels(raw_y[rows]),
            norm_meta=norm,
            scenario=ds.scenario,
        )

    return cut(tr), cut(te)


def scenario_to_dict(params: ScenarioParams) -> dict:
    d = asdict(params)
    d["bs_positions"] = [list(p) for p in params.bs_positions]
    d["walls"] = [[w.x1, w.y1, w.x2, w.y2] for w in params.walls]
    return d


_DATASET_KEYS = ("scenario", "norm_meta", "rows", "cols", "adversarial", "epsilon")


def save_dataset(ds: Dataset, path) -> None:
    """Framed dataset file (BMDS1): JSON header, then features and labels."""
    header = {
        "scenario": scenario_to_dict(ds.scenario),
        "norm_meta": {
            "feature_mean": ds.norm_meta.feature_mean.tolist(),
            "feature_std": ds.norm_meta.feature_std.tolist(),
            "label_min": ds.norm_meta.label_min,
            "label_max": ds.norm_meta.label_max,
            "label_cap": ds.norm_meta.label_cap,
        },
        "rows": int(ds.num_rows),
        "cols": int(ds.num_features),
        "adversarial": bool(ds.adversarial),
        "epsilon": ds.epsilon,
    }
    write_framed(path, _MAGIC, header, (ds.features, ds.labels))


def load_dataset(path) -> Dataset:
    """Read a dataset file; a malformed one raises framing.FormatError."""

    def decode(header, take):
        features = take((header["rows"], header["cols"]))
        labels = take((header["rows"],))
        eps = header["epsilon"]
        return Dataset(
            features=features,
            labels=labels,
            norm_meta=config.load(NormMeta, header["norm_meta"], "norm_meta"),
            scenario=config.load(ScenarioParams, header["scenario"], "scenario"),
            adversarial=bool(header["adversarial"]),
            epsilon=None if eps is None else float(eps),
        )

    return read_framed(path, _MAGIC, _DATASET_KEYS, decode)


def dataset_to_csv(ds: Dataset, path) -> None:
    """Plain-text view for inspection: feature columns then the label column."""
    cols = [f"f{i}" for i in range(ds.num_features)] + ["label"]
    table = np.column_stack([ds.features, ds.labels])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in table:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
