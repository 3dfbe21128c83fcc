"""The exact JSON of both artifact headers and of the run manifest's config,
the checkpoint payload's layout, and config.dump as the inverse of
config.load on each of them."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from beamsec import channel, config, harness, numcore
from beamsec.channel import Dataset, NormMeta, ScenarioParams, save_dataset

# The header text of hand_built_dataset() and of init_model(4, 0,
# hidden_dims=(3,)), and the manifest config of the default experiment.
DATASET_HEADER = (
    '{"adversarial": true, "cols": 3, "epsilon": 0.05, "norm_meta": {"feature_mean": [0.5, '
    '-1.25, 3e-07], "feature_std": [2.0, 0.125, 1e-09], "label_cap": 0.9, '
    '"label_max": 7.25, "label_min": 1.5}, "rows": 2, '
    '"scenario": {"bandwidth_hz": 100000000.0, "bs_positions": [[0.0, 0.0], [9.0, 1.5]], '
    '"carrier_wavelength_m": 0.0107068735, "codebook_oversampling": 2, '
    '"max_reflections": 1, "noise_variance": 1e-13, "num_antennas": 16, "num_bs": 2, '
    '"num_subcarriers": 8, "reflection_coeff": 0.7, "seed": 9, "snr_linear": 10.0, '
    '"user_grid": {"spacing": 0.2, "x_max": 8.0, "x_min": 1.0, "y_max": 3.0, '
    '"y_min": -3.0}, "walls": [[-1.0, 3.0, 12.5, 3.0], [-1.0, -3.0, 12.5, -3.25]]}}'
)

CHECKPOINT_HEADER = (
    '{"input_dim": 4, "layers": [{"activation": "relu", "dropout_ratio": 0.25, '
    '"in_dim": 4, "out_dim": 3}, {"activation": "tanh", "dropout_ratio": 0.0, "in_dim": 3, '
    '"out_dim": 1}], "seed": 0}'
)

MANIFEST_CONFIG = (
    '{"attack_grid": [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1], '
    '"base_seed": 1, "defense": {"epsilon": 0.1, "max_rounds": 10, '
    '"steady_state_rel_tol": 0.01}, "num_instances": 12500, "output_dir": "results", '
    '"repetitions": 20, "scenario": {"bandwidth_hz": 100000000.0, "bs_positions": [[0.0, '
    '0.0]], "carrier_wavelength_m": 0.0107068735, "codebook_oversampling": 2, '
    '"max_reflections": 1, "noise_variance": 1e-13, "num_antennas": 16, "num_bs": 1, '
    '"num_subcarriers": 8, "reflection_coeff": 0.7, "seed": 1, "snr_linear": 10.0, '
    '"user_grid": {"spacing": 0.2, "x_max": 8.0, "x_min": 1.0, "y_max": 3.0, '
    '"y_min": -3.0}, "walls": [[-2.0, 4.7, 40.0, 4.7], [-2.0, -4.7, 40.0, -4.7]]}, '
    '"train": {"adam_beta1": 0.9, "adam_beta2": 0.999, "adam_epsilon": 1e-08, '
    '"batch_size": 100, "epochs": 10, "learning_rate": 0.01}, "train_fraction": 0.8}'
)

SCENARIO = {
    "num_bs": 2,
    "bs_positions": [[0.0, 0.0], [9.0, 1.5]],
    "walls": [[-1.0, 3.0, 12.5, 3.0], [-1.0, -3.0, 12.5, -3.25]],
    "seed": 9,
}


def hand_built_dataset() -> Dataset:
    norm = NormMeta(np.array([0.5, -1.25, 3e-7]), np.array([2.0, 0.125, 1e-9]), 1.5, 7.25)
    return Dataset(
        features=np.arange(6.0).reshape(2, 3) / 7.0,
        labels=np.array([0.1, -0.3]),
        norm_meta=norm,
        scenario=config.load(ScenarioParams, SCENARIO),
        adversarial=True,
        epsilon=0.05,
    )


def framed_header(path, magic: bytes) -> str:
    blob = path.read_bytes()
    assert blob.startswith(magic)
    (size,) = struct.unpack("<I", blob[len(magic) : len(magic) + 4])
    return blob[len(magic) + 4 : len(magic) + 4 + size].decode("utf-8")


def test_dataset_header_text_is_pinned(tmp_path):
    path = tmp_path / "data.bin"
    save_dataset(hand_built_dataset(), path)
    assert framed_header(path, b"BMDS1") == DATASET_HEADER


def test_checkpoint_header_text_is_pinned(tmp_path):
    path = tmp_path / "model.bin"
    numcore.save_model(numcore.init_model(4, 0, hidden_dims=(3,)), path)
    assert framed_header(path, b"BMMLP1") == CHECKPOINT_HEADER


def test_manifest_config_text_is_pinned(tmp_path):
    path = tmp_path / "manifest.json"
    harness.write_manifest(harness.ExperimentConfig(), path)
    doc = json.loads(path.read_text(encoding="utf-8"))["config"]
    # re-serialized: json.loads keeps 1 and 1.0 apart, so the text pins each type
    assert json.dumps(doc, sort_keys=True) == MANIFEST_CONFIG


def test_checkpoint_is_its_header_then_the_parameter_vector(tmp_path):
    model = numcore.init_model(4, 0, hidden_dims=(3,))
    path = tmp_path / "model.bin"
    numcore.save_model(model, path)
    head = CHECKPOINT_HEADER.encode("utf-8")
    expected = b"BMMLP1" + struct.pack("<I", len(head)) + head
    assert path.read_bytes() == expected + model.params.astype("<f8").tobytes()


def _dataset_header():
    ds = hand_built_dataset()
    return channel._DatasetHeader(
        ds.scenario, ds.norm_meta, ds.num_rows, ds.num_features, ds.adversarial, ds.epsilon
    )


@pytest.mark.parametrize(
    "make, text",
    [
        (_dataset_header, DATASET_HEADER),
        (lambda: numcore.init_model(4, 0, hidden_dims=(3,)).spec, CHECKPOINT_HEADER),
        (harness.ExperimentConfig, MANIFEST_CONFIG),
    ],
    ids=["dataset_header", "model_spec", "experiment_config"],
)
def test_dump_is_the_inverse_of_load(make, text):
    value = make()
    doc = config.dump(value)
    assert json.dumps(doc, sort_keys=True) == text
    assert config.dump(config.load(type(value), doc)) == doc
