"""Channel model tests: steering, codebook, image-method paths, rates, datasets."""

from __future__ import annotations

import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

import oracles
from beamsec import channel
from beamsec.channel import (
    SPEED_OF_LIGHT,
    Codebook,
    ScenarioParams,
    UserGrid,
    Wall,
    achievable_rate,
    best_beam,
    build_dataset,
    default_scenario,
    dataset_to_csv,
    dft_codebook,
    generate_channels,
    load_dataset,
    pilot_features,
    save_dataset,
    split_dataset,
    steering_vector,
)
from beamsec.framing import FormatError


def los_only(params: ScenarioParams) -> ScenarioParams:
    return replace(params, max_reflections=0)


# ----------------------------------------------------------- steering vector


def test_steering_vector_closed_forms():
    v = steering_vector(0.0, 4)
    assert np.allclose(v, np.full(4, 0.5 + 0j), atol=1e-15)
    assert np.allclose(steering_vector(1.234, 1), [1.0 + 0j], atol=1e-15)
    v2 = steering_vector(math.pi / 6, 2)
    assert np.allclose(v2, [1 / math.sqrt(2), 1j / math.sqrt(2)], atol=1e-12)


def test_steering_vector_unit_norm():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = int(rng.integers(1, 33))
        angle = float(rng.uniform(-math.pi / 2, math.pi / 2))
        v = steering_vector(angle, m)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        steering_vector(0.0, 0)


# ----------------------------------------------------------------- codebook


def test_codebook_degenerate_and_counts():
    cb = dft_codebook(1, 1)
    assert cb.vectors.shape == (1, 1)
    assert cb.vectors[0, 0] == pytest.approx(1.0 + 0j, abs=1e-15)
    assert len(dft_codebook(4, 2)) == 8
    with pytest.raises(ValueError):
        dft_codebook(0, 1)
    with pytest.raises(ValueError):
        dft_codebook(4, 0)


def test_codebook_orthogonality_without_oversampling():
    cb = dft_codebook(4, 1)
    gram = cb.vectors @ cb.vectors.conj().T
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-12


def test_codebook_unit_modulus_and_norm():
    for m, ov in ((16, 2), (8, 1), (5, 3)):
        cb = dft_codebook(m, ov)
        assert cb.vectors.shape == (m * ov, m)
        assert np.max(np.abs(np.abs(cb.vectors) - 1.0 / math.sqrt(m))) < 1e-12
        norms = np.linalg.norm(cb.vectors, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        assert np.allclose(np.sin(cb.angles), -1.0 + 2.0 * np.arange(m * ov) / (m * ov))


# ---------------------------------------------------------- channel geometry


def test_los_single_path_and_inverse_distance(tiny_scenario):
    params = los_only(tiny_scenario)
    near = generate_channels(params, (2.0, 0.0))
    far = generate_channels(params, (4.0, 0.0))
    assert len(near.paths[0]) == 1
    assert near.paths[0][0].bounces == 0
    # doubling the distance halves every |h| entry
    ratio = np.abs(near.h) / np.abs(far.h)
    assert np.allclose(ratio, 2.0, atol=1e-9)


def test_los_gain_closed_form(tiny_scenario):
    params = los_only(tiny_scenario)
    d = 3.0
    chan = generate_channels(params, (d, 0.0))
    alpha = chan.paths[0][0].gain
    lam = params.carrier_wavelength_m
    expect = (lam / (4 * math.pi * d)) * np.exp(-2j * math.pi * d / lam)
    assert alpha == pytest.approx(expect, abs=1e-15)
    assert chan.paths[0][0].delay_s == pytest.approx(d / SPEED_OF_LIGHT, abs=1e-20)


def test_subcarrier_phase_progression(tiny_scenario):
    # one path, K=2: h at k=1 is h at k=0 rotated by exp(-j 2 pi tau B / K)
    params = replace(los_only(tiny_scenario), num_subcarriers=2)
    chan = generate_channels(params, (2.5, 1.0))
    tau = chan.paths[0][0].delay_s
    rot = np.exp(-2j * np.pi * tau * params.bandwidth_hz / 2)
    assert np.allclose(chan.h[0, 1], chan.h[0, 0] * rot, rtol=1e-10, atol=0.0)


def test_bounce_paths_present_and_ordered(tiny_scenario):
    chan = generate_channels(tiny_scenario, (2.0, 0.5))
    paths = chan.paths[0]
    assert len(paths) == 3  # LOS plus one bounce per wall
    assert sorted(p.bounces for p in paths) == [0, 1, 1]
    los = min(paths, key=lambda p: p.delay_s)
    assert los.bounces == 0
    for p in paths:
        assert -math.pi / 2 < p.aod_rad < math.pi / 2
        if p.bounces == 1:
            # longer path plus reflection loss means strictly weaker gain
            assert abs(p.gain) < abs(los.gain)
            assert p.delay_s > los.delay_s


def test_bounce_gain_matches_image_length(tiny_scenario):
    params = tiny_scenario
    pos = np.array([2.0, 0.5])
    chan = generate_channels(params, pos)
    lam = params.carrier_wavelength_m
    for wall in params.walls:
        image = np.array([0.0, 2 * wall.y1])  # BS at origin mirrored across y=wall
        length = float(np.linalg.norm(pos - image))
        expect = params.reflection_coeff * (lam / (4 * math.pi * length)) * np.exp(
            -2j * math.pi * length / lam
        )
        hit = [p for p in chan.paths[0] if p.bounces == 1 and
               p.delay_s == pytest.approx(length / SPEED_OF_LIGHT, abs=1e-18)]
        assert len(hit) == 1
        assert hit[0].gain == pytest.approx(expect, abs=1e-15)


def test_channel_tensor_is_sum_of_path_responses(tiny_scenario):
    params = tiny_scenario
    chan = generate_channels(params, (3.0, -1.0))
    K, M = params.num_subcarriers, params.num_antennas
    expect = np.zeros((K, M), dtype=np.complex128)
    for p in chan.paths[0]:
        steer = np.exp(1j * np.pi * np.arange(M) * math.sin(p.aod_rad))
        for k in range(K):
            phase = np.exp(-2j * np.pi * k * p.delay_s * params.bandwidth_hz / K)
            expect[k] += p.gain * phase * steer
    assert np.allclose(chan.h[0], expect, atol=1e-16)


def test_generate_channels_rejects_bad_positions(tiny_scenario):
    with pytest.raises(ValueError):
        generate_channels(tiny_scenario, (100.0, 0.0))  # outside grid
    close = replace(
        tiny_scenario, user_grid=UserGrid(0.0, 4.0, -1.5, 1.5, 0.25)
    )
    with pytest.raises(ValueError):
        generate_channels(close, (0.05, 0.0))  # closer than 0.1 m to the BS
    with pytest.raises(ValueError):
        generate_channels(tiny_scenario, (1.0, 2.0, 3.0))


# -------------------------------------------------------------------- rates


def test_achievable_rate_closed_forms():
    g = np.array([1.0 + 0j])
    assert achievable_rate(np.array([[1.0 + 0j]]), g, 0.0) == 0.0
    assert achievable_rate(np.array([[1.0 + 0j]]), g, 1.0) == pytest.approx(1.0, abs=1e-12)
    h2 = np.array([[1.0 + 0j], [math.sqrt(3.0) + 0j]])
    assert achievable_rate(h2, g, 1.0) == pytest.approx(1.5, abs=1e-12)


def test_achievable_rate_validation():
    with pytest.raises(ValueError):
        achievable_rate(np.ones((2, 3), dtype=complex), np.ones(4, dtype=complex), 1.0)
    with pytest.raises(ValueError):
        achievable_rate(np.ones((2, 3), dtype=complex), np.ones(3, dtype=complex), -1.0)


def test_rate_matches_reference_and_snr_monotone():
    rng = np.random.default_rng(8)
    for _ in range(30):
        K, M = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        h = rng.normal(size=(K, M)) + 1j * rng.normal(size=(K, M))
        g = rng.normal(size=M) + 1j * rng.normal(size=M)
        snrs = np.sort(rng.uniform(0.0, 20.0, size=5))
        rates = [achievable_rate(h, g, s) for s in snrs]
        assert rates == sorted(rates)
        assert rates[-1] == pytest.approx(
            oracles.reference_rate(h, g, snrs[-1]), rel=1e-12
        )


def test_rate_invariant_under_global_phase():
    rng = np.random.default_rng(9)
    h = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    g = steering_vector(0.2, 8)
    base = achievable_rate(h, g, 10.0)
    for theta in rng.uniform(0, 2 * math.pi, size=10):
        spun = achievable_rate(h * np.exp(1j * theta), g, 10.0)
        assert spun == pytest.approx(base, abs=1e-12)


def test_best_beam_brute_force_and_ties():
    rng = np.random.default_rng(10)
    cb = dft_codebook(8, 2)
    for _ in range(50):
        h = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
        idx, rate = best_beam(h, cb, 10.0)
        ref_idx, ref_rate = oracles.brute_force_best_beam(h, cb.vectors, 10.0)
        assert idx == ref_idx
        assert rate == pytest.approx(ref_rate, rel=1e-12)
    # all-zero channel rates tie at 0; lowest index must win
    idx, rate = best_beam(np.zeros((2, 8), dtype=complex), cb, 10.0)
    assert (idx, rate) == (0, 0.0)
    single = Codebook(vectors=np.ones((1, 8), dtype=complex) / math.sqrt(8), angles=np.zeros(1))
    assert best_beam(np.ones((2, 8), dtype=complex), single, 1.0)[0] == 0


def test_best_beam_prefers_matched_steering():
    cb = dft_codebook(16, 2)
    for p in (0, 7, 21, 31):
        # channel aligned with beam p: conjugate steering, flat over subcarriers
        h = np.conj(cb.vectors[p])[None, :].repeat(4, axis=0) * 16
        idx, _ = best_beam(h, cb, 10.0)
        assert idx == p


# ------------------------------------------------------------ pilot features


def test_pilot_features_noiseless_matches_channel(tiny_scenario):
    params = replace(tiny_scenario, noise_variance=0.0)
    chan = generate_channels(params, (2.0, 0.0))
    feats = pilot_features(chan, params, np.random.default_rng(0))
    K = params.num_subcarriers
    assert feats.shape == (2 * K,)
    assert np.array_equal(feats[0::2], chan.h[0, :, 0].real)
    assert np.array_equal(feats[1::2], chan.h[0, :, 0].imag)


def test_pilot_feature_length_counts(tiny_scenario):
    params = replace(tiny_scenario, num_subcarriers=2)
    chan = generate_channels(params, (2.0, 0.0))
    assert pilot_features(chan, params, np.random.default_rng(0)).shape == (4,)


def test_pilot_noise_variance_monte_carlo(tiny_scenario):
    sigma2 = 1e-8
    params = replace(tiny_scenario, noise_variance=sigma2)
    chan = generate_channels(params, (2.0, 0.0))
    base = pilot_features(chan, replace(params, noise_variance=0.0), np.random.default_rng(0))
    rng = np.random.default_rng(2)
    draws = np.stack([pilot_features(chan, params, rng) - base for _ in range(10_000)])
    var = draws.var(axis=0)
    assert np.allclose(var, sigma2 / 2.0, rtol=0.08)


# ------------------------------------------------------------------ datasets


def test_user_grid_points_and_contains():
    grid = UserGrid(0.0, 1.0, 0.0, 0.5, 0.5)
    pts = grid.points()
    assert pts.shape == (6, 2)
    assert grid.contains((0.5, 0.25))
    assert not grid.contains((1.5, 0.0))
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
        Wall(1.0, 1.0, 1.0, 1.0)
