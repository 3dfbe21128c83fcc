"""Channel model tests: codebook, image-method paths, rates, datasets."""

from __future__ import annotations

import json
import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
from beamsec import channel
from beamsec.channel import (
    SPEED_OF_LIGHT,
    Dataset,
    ScenarioParams,
    UserGrid,
    beam_rates,
    build_dataset,
    channels,
    default_scenario,
    dataset_to_csv,
    dft_codebook,
    load_dataset,
    save_dataset,
    split_dataset,
)
from beamsec.framing import FormatError

ORIGIN = np.zeros(2)


def los_only(params: ScenarioParams) -> ScenarioParams:
    return replace(params, max_reflections=0)


def two_bs(params: ScenarioParams) -> ScenarioParams:
    return replace(params, num_bs=2, bs_positions=((0.0, 0.0), (9.0, 1.0)))


def one_point(params: ScenarioParams, x: float, y: float) -> ScenarioParams:
    """The scenario with its user grid shrunk to the single point (x, y)."""
    return replace(params, user_grid=UserGrid(x, x, y, y, 1.0))


def path_table(params: ScenarioParams, user):
    """Per-path gains, sin(AoD), delays and bounce counts of the paths that
    reach one user position from the BS at the origin. _paths puts LOS in
    column 0 and one wall bounce in each further column, with gain 0 where
    the bounce misses its wall."""
    gains, sin_aod, delays = channel._paths(params, ORIGIN, np.asarray([user], dtype=np.float64))
    keep = gains[0] != 0
    bounces = np.minimum(np.arange(gains.shape[1]), 1)
    return gains[0, keep], sin_aod[0, keep], delays[0, keep], bounces[keep]


def rates(h, codebook, snr):
    """beam_rates of one (K, M) channel: the rate of every codebook row."""
    return beam_rates(np.asarray(h)[None], np.atleast_2d(codebook), snr)[0]


# --------------------------------------------------- steering and codebook


def test_steering_vector_closed_forms():
    # rows of the codebook are ULA steering vectors at sin = -1 + 2p/beams
    assert np.allclose(dft_codebook(4, 1)[2], np.full(4, 0.5 + 0j), atol=1e-15)
    assert np.allclose(dft_codebook(1, 1)[0], [1.0 + 0j], atol=1e-15)
    # sin = 0.5 is pi/6 off broadside
    v2 = dft_codebook(2, 2)[3]
    assert np.allclose(v2, [1 / math.sqrt(2), 1j / math.sqrt(2)], atol=1e-12)


def test_steering_vector_unit_norm():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m, ov = int(rng.integers(1, 33)), int(rng.integers(1, 4))
        norms = np.linalg.norm(dft_codebook(m, ov), axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_codebook_degenerate_and_counts():
    cb = dft_codebook(1, 1)
    assert cb.shape == (1, 1)
    assert cb[0, 0] == pytest.approx(1.0 + 0j, abs=1e-15)
    assert dft_codebook(4, 2).shape[0] == 8
    with pytest.raises(ValueError):
        dft_codebook(0, 1)
    with pytest.raises(ValueError):
        dft_codebook(4, 0)


def test_codebook_orthogonality_without_oversampling():
    cb = dft_codebook(4, 1)
    gram = cb @ cb.conj().T
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-12


def test_codebook_unit_modulus_and_norm():
    for m, ov in ((16, 2), (8, 1), (5, 3)):
        cb = dft_codebook(m, ov)
        assert cb.shape == (m * ov, m)
        assert np.max(np.abs(np.abs(cb) - 1.0 / math.sqrt(m))) < 1e-12
        norms = np.linalg.norm(cb, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        sines = -1.0 + 2.0 * np.arange(m * ov) / (m * ov)
        steer = np.exp(1j * np.pi * np.outer(sines, np.arange(m))) / math.sqrt(m)
        assert np.allclose(cb, steer, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------- channel geometry


def test_los_single_path_and_inverse_distance(tiny_scenario):
    params = los_only(tiny_scenario)
    gains, _, _, bounces = path_table(params, (2.0, 0.0))
    assert gains.shape == (1,)
    assert bounces.tolist() == [0]
    near, far = channels(params, [(2.0, 0.0), (4.0, 0.0)])[0]
    # doubling the distance halves every |h| entry
    ratio = np.abs(near) / np.abs(far)
    assert np.allclose(ratio, 2.0, atol=1e-9)


def test_los_gain_closed_form(tiny_scenario):
    params = los_only(tiny_scenario)
    d = 3.0
    gains, _, delays, _ = path_table(params, (d, 0.0))
    lam = params.carrier_wavelength_m
    expect = (lam / (4 * math.pi * d)) * np.exp(-2j * math.pi * d / lam)
    assert gains[0] == pytest.approx(expect, abs=1e-15)
    assert delays[0] == pytest.approx(d / SPEED_OF_LIGHT, abs=1e-20)


def test_subcarrier_phase_progression(tiny_scenario):
    # one path, K=2: h at k=1 is h at k=0 rotated by exp(-j 2 pi tau B / K)
    params = replace(los_only(tiny_scenario), num_subcarriers=2)
    _, _, delays, _ = path_table(params, (2.5, 1.0))
    h = channels(params, [(2.5, 1.0)])[0, 0]
    rot = np.exp(-2j * np.pi * delays[0] * params.bandwidth_hz / 2)
    assert np.allclose(h[1], h[0] * rot, rtol=1e-10, atol=0.0)


def test_bounce_paths_present_and_ordered(tiny_scenario):
    gains, sin_aod, delays, bounces = path_table(tiny_scenario, (2.0, 0.5))
    assert gains.shape == (3,)  # LOS plus one bounce per wall
    assert sorted(bounces.tolist()) == [0, 1, 1]
    los = int(np.argmin(delays))
    assert bounces[los] == 0
    assert np.all(np.abs(sin_aod) < 1.0)
    for p in np.flatnonzero(bounces == 1):
        # longer path plus reflection loss means strictly weaker gain
        assert abs(gains[p]) < abs(gains[los])
        assert delays[p] > delays[los]


def test_bounce_gain_matches_image_length(tiny_scenario):
    params = tiny_scenario
    pos = np.array([2.0, 0.5])
    gains, _, delays, bounces = path_table(params, pos)
    lam = params.carrier_wavelength_m
    for _, wall_y, _, _ in params.walls:
        image = np.array([0.0, 2 * wall_y])  # BS at origin mirrored across y=wall_y
        length = float(np.linalg.norm(pos - image))
        expect = params.reflection_coeff * (lam / (4 * math.pi * length)) * np.exp(
            -2j * math.pi * length / lam
        )
        hit = [
            p for p in np.flatnonzero(bounces == 1)
            if delays[p] == pytest.approx(length / SPEED_OF_LIGHT, abs=1e-18)
        ]
        assert len(hit) == 1
        assert gains[hit[0]] == pytest.approx(expect, abs=1e-15)


def short_walls(params: ScenarioParams) -> ScenarioParams:
    """Walls that some bounces miss: a segment above the grid that covers
    only part of it, and one standing inside the grid, which users beyond it
    see from the other side."""
    return replace(params, walls=((2.0, 4.7, 5.0, 4.7), (4.5, -0.93, 4.5, 1.07)))


def test_channel_tensor_is_sum_of_path_responses():
    """channels agrees with the loop-based image method on 300 grid points of
    the default scenario, its LOS-only variant, a 2-BS variant and a variant
    whose walls some bounces miss.

    The carrier phase 2 pi d / lambda reaches ~5,000 rad on this grid, where
    one float64 ulp is 9.1e-13, so two correct evaluations can differ by
    that much relative to |h|; the bound sits just above it.
    """
    default = default_scenario()
    for params in (default, los_only(default), two_bs(default), short_walls(default)):
        grid = params.user_grid.points()
        pts = grid[np.random.default_rng(3).choice(grid.shape[0], 300, replace=False)]
        h = channels(params, pts)
        assert h.shape == (params.num_bs, 300, params.num_subcarriers, params.num_antennas)
        for r, pos in enumerate(pts):
            ref = oracles.image_method_channel(params, pos)
            assert np.max(np.abs(h[:, r] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_build_dataset_rejects_grid_point_near_bs(tiny_scenario):
    with pytest.raises(ValueError, match="closer than 0.1 m"):
        build_dataset(one_point(tiny_scenario, 0.05, 0.0), 10)


# -------------------------------------------------------------------- rates


def test_achievable_rate_closed_forms():
    g = np.array([1.0 + 0j])
    assert rates(np.array([[1.0 + 0j]]), g, 0.0)[0] == 0.0
    assert rates(np.array([[1.0 + 0j]]), g, 1.0)[0] == pytest.approx(1.0, abs=1e-12)
    h2 = np.array([[1.0 + 0j], [math.sqrt(3.0) + 0j]])
    assert rates(h2, g, 1.0)[0] == pytest.approx(1.5, abs=1e-12)


def test_achievable_rate_validation():
    with pytest.raises(ValueError):
        rates(np.ones((2, 3), dtype=complex), np.ones(4, dtype=complex), 1.0)
    with pytest.raises(ValueError):
        rates(np.ones((2, 3), dtype=complex), np.ones(3, dtype=complex), -1.0)


def test_rate_matches_reference_and_snr_monotone():
    rng = np.random.default_rng(8)
    for _ in range(30):
        K, M = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        h = rng.normal(size=(K, M)) + 1j * rng.normal(size=(K, M))
        g = rng.normal(size=M) + 1j * rng.normal(size=M)
        snrs = np.sort(rng.uniform(0.0, 20.0, size=5))
        rs = [rates(h, g, s)[0] for s in snrs]
        assert rs == sorted(rs)
        assert rs[-1] == pytest.approx(oracles.reference_rate(h, g, snrs[-1]), rel=1e-12)


def test_rate_invariant_under_global_phase():
    rng = np.random.default_rng(9)
    h = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    cb = dft_codebook(8, 2)
    base = rates(h, cb, 10.0)
    for theta in rng.uniform(0, 2 * math.pi, size=10):
        spun = rates(h * np.exp(1j * theta), cb, 10.0)
        assert np.allclose(spun, base, rtol=0.0, atol=1e-12)


def test_best_beam_brute_force_and_ties():
    rng = np.random.default_rng(10)
    cb = dft_codebook(8, 2)
    for _ in range(50):
        h = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
        rs = rates(h, cb, 10.0)
        ref_idx, ref_rate = oracles.brute_force_best_beam(h, cb, 10.0)
        assert int(np.argmax(rs)) == ref_idx
        assert rs.max() == pytest.approx(ref_rate, rel=1e-12)
    # all-zero channel rates tie at 0; lowest index must win
    rs = rates(np.zeros((2, 8), dtype=complex), cb, 10.0)
    assert (int(np.argmax(rs)), rs.max()) == (0, 0.0)
    single = np.ones((1, 8), dtype=complex) / math.sqrt(8)
    assert rates(np.ones((2, 8), dtype=complex), single, 1.0).shape == (1,)


def test_best_beam_prefers_matched_steering():
    cb = dft_codebook(16, 2)
    for p in (0, 7, 21, 31):
        # channel aligned with beam p: conjugate steering, flat over subcarriers
        h = np.conj(cb[p])[None, :].repeat(4, axis=0) * 16
        assert int(np.argmax(rates(h, cb, 10.0))) == p


# ------------------------------------------------------------ pilot features


def test_pilot_features_noiseless_matches_channel(tiny_scenario):
    """Noiseless raw features are each instance's first-antenna channel, and
    raw labels the brute-force best-beam rate summed over the BSs, at the
    grid point each instance's block stream draws."""
    for params in (tiny_scenario, two_bs(default_scenario())):
        params = replace(params, noise_variance=0.0)
        n = 60
        ds = build_dataset(params, n)
        idx = oracles.reference_build_dataset(params, n).idx
        grid = params.user_grid.points()
        cb = dft_codebook(params.num_antennas, params.codebook_oversampling)
        feats = np.empty((n, 2 * params.num_bs * params.num_subcarriers))
        labels = np.empty(n)
        for i in range(n):
            h = oracles.image_method_channel(params, grid[idx[i]])
            feats[i, 0::2] = h[:, :, 0].real.ravel()
            feats[i, 1::2] = h[:, :, 0].imag.ravel()
            labels[i] = sum(
                oracles.brute_force_best_beam(h_n, cb, params.snr_linear)[1] for h_n in h
            )
        raw_X = oracles.raw_features(ds)
        raw_y = ds.norm_meta.denormalize_labels(ds.labels)
        scale = np.max(np.abs(feats))
        assert np.max(np.abs(raw_X - feats)) <= 1e-9 * scale
        assert np.allclose(raw_y, labels, rtol=1e-9, atol=0.0)


def test_pilot_feature_length_counts(tiny_scenario):
    params = replace(tiny_scenario, num_subcarriers=2)
    assert build_dataset(params, 3).num_features == 4
    assert build_dataset(two_bs(params), 3).num_features == 8


def test_pilot_noise_variance_monte_carlo(tiny_scenario):
    sigma2 = 1e-8
    params = one_point(replace(tiny_scenario, noise_variance=sigma2), 2.0, 0.0)
    ds = build_dataset(params, 10_000)
    raw = oracles.raw_features(ds)
    assert np.allclose(raw.var(axis=0), sigma2 / 2.0, rtol=0.08)


def test_build_dataset_computes_each_grid_point_once(monkeypatch):
    """The channel tensor is built once per BS for each distinct sampled grid
    point, not once per instance: the rows of all its calls sum to the
    distinct points among 12,500 draws times the BS count."""
    rows = []
    tensor = channel._channel_tensor

    def counted(params, gains, *rest):
        rows.append(gains.shape[0])
        return tensor(params, gains, *rest)

    monkeypatch.setattr(channel, "_channel_tensor", counted)
    for params in (default_scenario(), two_bs(default_scenario())):
        distinct = len(np.unique(oracles.reference_build_dataset(params, 12_500).idx))
        rows.clear()
        build_dataset(params, 12_500)
        assert sum(rows) == distinct * params.num_bs
        assert distinct <= params.user_grid.points().shape[0] == 1116


DRAW_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**40 + 3)


@pytest.mark.parametrize("n", (1, 1023, 1024, 1025, 3000))
@pytest.mark.parametrize("seed", DRAW_SEEDS)
def test_build_dataset_draws_match_per_instance_streams(seed, n):
    """Each 1,024-instance block draws its grid indices and pilot noise from
    its own default_rng([seed, b]), whole blocks even where the dataset ends
    inside one: the dataset and its normalization equal the per-block
    oracle's byte for byte. At n = 1 the features and labels z-score to zeros,
    so there the normalization, which holds the raw row, carries the check."""
    base = replace(default_scenario(), seed=seed)
    for params in (base, replace(base, noise_variance=0.0), two_bs(base)):
        ds = build_dataset(params, n)
        want = oracles.reference_build_dataset(params, n)
        assert ds.features.tobytes() == want.features.tobytes()
        assert ds.labels.tobytes() == want.labels.tobytes()
        got_norm, want_norm = ds.norm_meta, want.norm
        assert got_norm.feature_mean.tobytes() == want_norm.feature_mean.tobytes()
        assert got_norm.feature_std.tobytes() == want_norm.feature_std.tobytes()
        assert (got_norm.label_min, got_norm.label_max) == (want_norm.label_min, want_norm.label_max)


def test_instance_draws_do_not_depend_on_instance_count():
    """Instance i's draws depend only on (seed, i): the raw features and
    labels of a build of n instances are the first n rows of a larger
    build's, up to the z-scoring round-off of each."""
    for params in (default_scenario(), two_bs(default_scenario())):
        big = build_dataset(params, 3000)
        big_X = oracles.raw_features(big)
        big_y = big.norm_meta.denormalize_labels(big.labels)
        for n in (1, 1023, 1024, 1025, 2048):
            ds = build_dataset(params, n)
            raw_X = oracles.raw_features(ds)
            raw_y = ds.norm_meta.denormalize_labels(ds.labels)
            assert np.max(np.abs(raw_X - big_X[:n])) <= 1e-12 * np.max(np.abs(big_X[:n]))
            assert np.max(np.abs(raw_y - big_y[:n])) <= 1e-12 * np.max(np.abs(big_y[:n]))


# ------------------------------------------------------------------ datasets


def test_user_grid_points_and_validation():
    grid = UserGrid(0.0, 1.0, 0.0, 0.5, 0.5)
    pts = grid.points()
    assert pts.shape == (6, 2)
    assert pts.tolist()[:3] == [[0.0, 0.0], [0.0, 0.5], [0.5, 0.0]]
    with pytest.raises(ValueError):
        UserGrid(1.0, 0.0, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        UserGrid(0.0, 1.0, 0.0, 1.0, 0.0)


def test_build_dataset_shapes_and_label_range(tiny_scenario):
    ds = build_dataset(tiny_scenario, 100)
    K, N = tiny_scenario.num_subcarriers, tiny_scenario.num_bs
    assert ds.features.shape == (100, 2 * K * N)
    assert ds.labels.shape == (100,)
    assert ds.labels.min() == 0.0
    assert ds.labels.max() == 0.9  # dataset max maps onto the cap bit-exactly
    assert np.all((ds.labels >= 0.0) & (ds.labels <= 0.9))
    with pytest.raises(ValueError):
        build_dataset(tiny_scenario, 0)


def test_build_dataset_standardizes_columns(tiny_scenario):
    ds = build_dataset(tiny_scenario, 400)
    assert np.max(np.abs(ds.features.mean(axis=0))) < 1e-9
    assert np.max(np.abs(ds.features.std(axis=0) - 1.0)) < 1e-9


def test_build_dataset_deterministic_and_rng_free(tiny_scenario):
    a = build_dataset(tiny_scenario, 64)
    b = build_dataset(tiny_scenario, 64)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    d = build_dataset(replace(tiny_scenario, seed=tiny_scenario.seed + 1), 64)
    assert not np.array_equal(a.features, d.features)


def test_split_refits_normalization_on_train_side(tiny_scenario):
    ds = build_dataset(tiny_scenario, 300)
    train, test = split_dataset(ds, 0.8, np.random.default_rng(4))
    assert train.num_rows == 240 and test.num_rows == 60
    assert np.max(np.abs(train.features.mean(axis=0))) < 1e-6
    assert np.max(np.abs(train.features.std(axis=0) - 1.0)) < 1e-6
    assert train.labels.min() == 0.0 and train.labels.max() == 0.9
    # test rows inherit the train transform, so they may poke past the cap a
    # touch but must stay inside the tanh range
    assert np.all(np.abs(test.labels) < 1.0)
    with pytest.raises(ValueError):
        split_dataset(ds, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        split_dataset(ds, 0.0, np.random.default_rng(0))


def test_split_dataset_peak_memory(tiny_scenario):
    """Splitting 50,000 rows 20/80 holds little beyond the two sides it
    returns (6.5 MiB here): each side maps only its own rows, in place."""
    rng = np.random.default_rng(5)
    X = rng.standard_normal((50_000, 16))
    y = rng.uniform(0.0, 0.9, 50_000)
    ds = Dataset(X, y, channel.fit_normalization(X, y), tiny_scenario)
    tracemalloc.start()
    try:
        split_dataset(ds, 0.2, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


def test_split_is_rng_deterministic(tiny_scenario):
    ds = build_dataset(tiny_scenario, 120)
    a1, b1 = split_dataset(ds, 0.75, np.random.default_rng(11))
    a2, b2 = split_dataset(ds, 0.75, np.random.default_rng(11))
    assert np.array_equal(a1.features, a2.features)
    assert np.array_equal(b1.labels, b2.labels)


def test_dataset_file_round_trip(tmp_path, tiny_scenario):
    ds = build_dataset(tiny_scenario, 50)
    path = tmp_path / "data.bin"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert back.scenario == ds.scenario
    assert np.array_equal(back.norm_meta.feature_mean, ds.norm_meta.feature_mean)
    assert back.norm_meta.label_max == ds.norm_meta.label_max
    assert back.adversarial is False and back.epsilon is None

    # identical params produce identical bytes on disk
    path2 = tmp_path / "data2.bin"
    save_dataset(build_dataset(tiny_scenario, 50), path2)
    assert path.read_bytes() == path2.read_bytes()

    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"BMXXX")
    with pytest.raises(ValueError):
        load_dataset(junk)


def test_dataset_header_with_unknown_scenario_key_is_rejected(tmp_path, tiny_scenario):
    """A scenario key that ScenarioParams does not define, such as t_tr in
    files written before it was removed, makes the header malformed."""
    path = tmp_path / "data.bin"
    save_dataset(build_dataset(tiny_scenario, 5), path)
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[5:9])
    header = json.loads(blob[9 : 9 + hlen])
    header["scenario"]["t_tr"] = 2.0
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:5] + struct.pack("<I", len(new)) + new + blob[9 + hlen :])
    with pytest.raises(FormatError, match=r"unknown config field: scenario\.t_tr"):
        load_dataset(path)


def test_dataset_csv_export(tmp_path, tiny_scenario):
    ds = build_dataset(tiny_scenario, 10)
    path = tmp_path / "data.csv"
    dataset_to_csv(ds, path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[:2] == ["f0", "f1"]
    assert lines[0].split(",")[-1] == "label"
    assert len(lines) == 11


def test_dataset_csv_bytes_match_value_by_value_export(tmp_path, tiny_scenario):
    """Block-formatted rows equal formatting each value with f"{v:.17g}",
    across a block boundary and on signed zero, subnormal and huge values."""
    rng = np.random.default_rng(3)
    n = 4097
    features = rng.standard_normal((n, 8)) * 10.0 ** rng.integers(-300, 300, (n, 8))
    features[0, 0], features[4095, 1], features[4096, 2] = -0.0, 5e-324, 1e300
    labels = rng.uniform(0.0, 0.9, n)
    labels[1] = -0.0
    ds = Dataset(features, labels, build_dataset(tiny_scenario, 2).norm_meta, tiny_scenario)
    dataset_to_csv(ds, tmp_path / "blocks.csv")
    oracles.reference_dataset_to_csv(ds, tmp_path / "values.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "values.csv").read_bytes()


def _csv_fast_path_values(rng) -> np.ndarray:
    """Values in and around [1e-4, 1e16), where %.17g writes fixed notation."""
    powers = np.array([float(f"1e{m}") for m in range(-5, 18)])
    near = [powers]
    for toward in (0.0, np.inf):
        step = powers
        for _ in range(3):
            step = np.nextafter(step, toward)
            near.append(step)
    # N / 2**j with N * 5**j of 18 digits, the last a 5: an exact tie at the
    # 17th digit, broken to even
    ties = []
    for j in range(3, 22):
        lo, hi = -(-(10**17) // 5**j), 10**18 // 5**j
        ties += [(2 * int(n) + 1) / 2**j for n in rng.integers(lo // 2, (hi - 1) // 2, 20)]
    edges = [1e-4, 9.9999999999999995e-5, 1e16, 9999999999999998.0, 0.5, 100.0, 123456789012345.67]
    dyadic = rng.integers(1, 2**53, 200) / 2.0 ** rng.integers(0, 60, 200)
    values = np.concatenate([*near, ties, edges, dyadic])
    return np.concatenate([values, -values])


def test_dataset_csv_fast_path_matches_value_by_value_export(tmp_path, tiny_scenario):
    """Values that dataset_to_csv formats by integer arithmetic give the
    bytes of f"{v:.17g}": random magnitudes of both signs from 1e-5 to 1e17,
    powers of ten and 1-3 ulps either side of them (the doubles nearest to
    rounding up to the next power), exact 17th-digit ties, and the edges of
    the range, spread over a row-block boundary."""
    rng = np.random.default_rng(8)
    rows, cols = channel._CSV_BLOCK + 200, 9
    table = rng.choice([-1.0, 1.0], (rows, cols)) * 10.0 ** rng.uniform(-5, 17, (rows, cols))
    special = _csv_fast_path_values(rng)
    flat = table.ravel()
    flat[: len(special)] = special
    flat[channel._CSV_BLOCK * cols - len(special) // 2 :][: len(special)] = rng.permutation(special)
    norm = build_dataset(tiny_scenario, 2).norm_meta
    ds = Dataset(table[:, :-1], table[:, -1].copy(), norm, tiny_scenario)
    dataset_to_csv(ds, tmp_path / "fast.csv")
    oracles.reference_dataset_to_csv(ds, tmp_path / "values.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "values.csv").read_bytes()


def test_dataset_to_csv_peak_memory(tmp_path, tiny_scenario):
    """Exporting 50,000 x 16 features holds no more than the writer that
    made one %-call per block of 4,096 rows held: 4,804,092 bytes measured."""
    rng = np.random.default_rng(5)
    X = rng.standard_normal((50_000, 16))
    y = rng.uniform(0.0, 0.9, 50_000)
    ds = Dataset(X, y, channel.fit_normalization(X, y), tiny_scenario)
    tracemalloc.start()
    try:
        dataset_to_csv(ds, tmp_path / "data.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_804_092


def test_default_scenario_is_the_pinned_recipe():
    params = default_scenario()
    assert params.num_bs == 1
    assert params.num_antennas == 16
    assert params.num_subcarriers == 8
    assert params.codebook_oversampling == 2
    assert params.snr_linear == 10.0
    assert params.reflection_coeff == 0.7
    assert len(params.walls) == 2
    assert params.user_grid.points().shape[0] >= 1000


def test_scenario_params_validation():
    with pytest.raises(ValueError):
        replace(default_scenario(), reflection_coeff=0.0)
    with pytest.raises(ValueError):
        replace(default_scenario(), max_reflections=2)
    with pytest.raises(ValueError):
        replace(default_scenario(), num_antennas=0)
    with pytest.raises(ValueError):
        replace(default_scenario(), walls=((1.0, 1.0, 1.0, 1.0),))
