"""End-to-end command-line tests: pipeline happy path and exit-code contract."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from beamsec import cli, harness, numcore
from beamsec.channel import Dataset, build_dataset, load_dataset, save_dataset
from beamsec.defense import DefenseConfig
from beamsec.framing import write_framed
from beamsec.harness import ExperimentConfig, config_to_dict

from conftest import make_tiny_scenario


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def tiny_config_path(tmp_path):
    cfg = ExperimentConfig(
        scenario=make_tiny_scenario(seed=5),
        train=numcore.TrainConfig(epochs=2),
        defense=DefenseConfig(epsilon=0.1, max_rounds=2),
        attack_grid=(0.05, 0.1),
        repetitions=1,
        num_instances=300,
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    return path


def test_full_pipeline(runner, tmp_path, tiny_config_path):
    cfg = ["--config", str(tiny_config_path)]
    ds_path = tmp_path / "data.bin"
    csv_path = tmp_path / "data.csv"
    result = runner.invoke(
        cli.main,
        ["generate", *cfg, "--out", str(ds_path), "--csv", str(csv_path)],
    )
    assert result.exit_code == 0, result.output
    assert "300 instances x 8 features" in result.output
    assert ds_path.exists()
    assert csv_path.read_text().splitlines()[0].startswith("f0,")

    model_path = tmp_path / "model.bin"
    result = runner.invoke(
        cli.main, ["train", *cfg, "--data", str(ds_path), "--out", str(model_path)]
    )
    assert result.exit_code == 0, result.output
    assert "final train MSE" in result.output

    adv_path = tmp_path / "adv.bin"
    result = runner.invoke(
        cli.main,
        [
            "attack",
            "--model", str(model_path),
            "--data", str(ds_path),
            "--eps", "0.05",
            "--out", str(adv_path),
        ],
    )
    assert result.exit_code == 0, result.output
    adv = load_dataset(adv_path)
    clean = load_dataset(ds_path)
    assert adv.adversarial and adv.epsilon == 0.05
    assert np.max(np.abs(adv.features - clean.features)) <= 0.05 + 1e-12

    robust_path = tmp_path / "robust.bin"
    hist_path = tmp_path / "rounds.csv"
    result = runner.invoke(
        cli.main,
        [
            "defend", *cfg,
            "--data", str(ds_path),
            "--out", str(robust_path),
            "--history", str(hist_path),
        ],
    )
    assert result.exit_code == 0, result.output
    assert robust_path.exists()
    assert hist_path.read_text().splitlines()[0] == "round,clean_mse,adv_mse,dataset_rows"

    sweep_dir = tmp_path / "sweep"
    result = runner.invoke(cli.main, ["run", *cfg, "--out", str(sweep_dir)])
    assert result.exit_code == 0, result.output
    assert (sweep_dir / "results.csv").exists()
    assert (sweep_dir / "timings.csv").exists()
    assert (sweep_dir / "summary.csv").exists()
    assert (sweep_dir / "ratios.csv").exists()

    report_dir = tmp_path / "report"
    result = runner.invoke(
        cli.main,
        [
            "report",
            "--results", str(sweep_dir / "results.csv"),
            "--out", str(report_dir),
            "--format", "json",
        ],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads((report_dir / "summary.json").read_text())
    scenarios = {row["scenario"] for row in payload["rows"]}
    assert scenarios == {"SC1", "SC2", "SC3"}


def test_run_flag_overrides(runner, tmp_path, tiny_config_path):
    out = tmp_path / "sweep"
    result = runner.invoke(
        cli.main,
        [
            "run",
            "--config", str(tiny_config_path),
            "--eps", "0.1",
            "--reps", "1",
            "--seed", "3",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "scenario,epsilon,repetition,mse"
    assert len(lines) == 1 + 3  # SC1 + one SC2 row + one SC3 row


def test_unknown_config_field_exits_2(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"bogus": 1}))
    result = runner.invoke(
        cli.main, ["generate", "--config", str(path), "--out", str(tmp_path / "d.bin")]
    )
    assert result.exit_code == 2
    assert "config error" in result.output


def test_bad_eps_list_exits_2(runner, tmp_path):
    result = runner.invoke(
        cli.main, ["run", "--eps", "0.1,oops", "--out", str(tmp_path / "s")]
    )
    assert result.exit_code == 2
    assert "config error" in result.output


def test_negative_instances_exits_2(runner, tmp_path):
    result = runner.invoke(
        cli.main,
        ["generate", "--instances", "-5", "--out", str(tmp_path / "d.bin")],
    )
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "doc, field",
    [
        ('{"train": {"learning_rate": NaN}}', "train.learning_rate"),
        ('{"attack_grid": [Infinity]}', "attack_grid[0]"),
    ],
    ids=["nan_learning_rate", "infinite_budget"],
)
def test_non_finite_config_exits_2(runner, tmp_path, monkeypatch, doc, field):
    def no_dataset(*args, **kwargs):
        raise AssertionError("a dataset was built from a rejected config")

    monkeypatch.setattr(harness, "build_dataset", no_dataset)
    path = tmp_path / "cfg.json"
    path.write_text(doc)
    result = runner.invoke(cli.main, ["run", "--config", str(path), "--out", str(tmp_path / "s")])
    assert result.exit_code == 2
    assert "config error" in result.output and field in result.output


# Checkpoint headers that differ from save_model's by one field each.
MODEL_HEADER_EDITS = {
    "model_input_dim_float": lambda h: h.update(input_dim=8.0),
    "model_seed_float": lambda h: h.update(seed=3.0),
    "model_layer_extra_key": lambda h: h["layers"][0].update(junk=1),
    "model_dropout_bool": lambda h: h["layers"][0].update(dropout_ratio=False),
}


@pytest.mark.parametrize(
    "case",
    [
        "dataset_cut_by_5_bytes",
        "dataset_plus_8_bytes",
        "model_as_data",
        "dataset_as_model",
        *MODEL_HEADER_EDITS,
    ],
)
def test_malformed_artifact_exits_3(runner, tmp_path, case):
    data, model, bad = tmp_path / "data.bin", tmp_path / "model.bin", tmp_path / "bad.bin"
    save_dataset(build_dataset(make_tiny_scenario(seed=5), 50), data)
    net = numcore.init_model(8, 0)
    numcore.save_model(net, model)
    out = str(tmp_path / "out.bin")
    attack_with = lambda path: [
        "attack", "--model", str(path), "--data", str(data), "--eps", "0.1", "--out", out,
    ]
    if case in MODEL_HEADER_EDITS:
        header = {
            "input_dim": 8,
            "seed": 0,
            "layers": [
                {"in_dim": l.in_dim, "out_dim": l.out_dim, "activation": l.activation,
                 "dropout_ratio": l.dropout_ratio}
                for l in net.layers
            ],
        }
        MODEL_HEADER_EDITS[case](header)
        arrays = [a for l in net.layers for a in (l.weights, l.bias)]
        write_framed(bad, b"BMMLP1", header, arrays)
        argv = attack_with(bad)
    else:
        blob = data.read_bytes()
        bad.write_bytes(blob[:-5] if case == "dataset_cut_by_5_bytes" else blob + bytes(8))
        argv = {
            "dataset_cut_by_5_bytes": ["train", "--data", str(bad), "--out", out],
            "dataset_plus_8_bytes": ["train", "--data", str(bad), "--out", out],
            "model_as_data": ["train", "--data", str(model), "--out", out],
            "dataset_as_model": attack_with(data),
        }[case]
    result = runner.invoke(cli.main, argv)
    assert result.exit_code == 3, result.output
    assert re.search(r"format error: .*(bad|data|model)\.bin", result.output)


def test_defend_single_round_checkpoint_equals_train(runner, tmp_path, tiny_config_path):
    """With one round, defend keeps its clean round 0, which it trains from
    --seed in the same draw order as train: the checkpoints are the same bytes."""
    doc = json.loads(tiny_config_path.read_text())
    doc["defense"]["max_rounds"] = 1
    cfg = tmp_path / "one_round.json"
    cfg.write_text(json.dumps(doc))
    data = tmp_path / "data.bin"
    save_dataset(build_dataset(make_tiny_scenario(seed=5), 300), data)
    common = ["--config", str(cfg), "--data", str(data), "--seed", "4"]
    trained, defended = tmp_path / "trained.bin", tmp_path / "defended.bin"
    assert runner.invoke(cli.main, ["train", *common, "--out", str(trained)]).exit_code == 0
    assert runner.invoke(cli.main, ["defend", *common, "--out", str(defended)]).exit_code == 0
    assert trained.read_bytes() == defended.read_bytes()


def test_missing_results_file_exits_3(runner, tmp_path):
    result = runner.invoke(
        cli.main,
        ["report", "--results", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "r")],
    )
    assert result.exit_code == 3
    assert "i/o error" in result.output


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failure_exits_4(runner, tmp_path, tiny_config_path):
    # huge but finite features overflow the forward pass during training
    base = build_dataset(make_tiny_scenario(seed=5), 120)
    poisoned = Dataset(
        features=np.full_like(base.features, 1e308),
        labels=base.labels,
        norm_meta=base.norm_meta,
        scenario=base.scenario,
    )
    path = tmp_path / "poisoned.bin"
    save_dataset(poisoned, path)
    result = runner.invoke(
        cli.main,
        [
            "train",
            "--config", str(tiny_config_path),
            "--data", str(path),
            "--out", str(tmp_path / "m.bin"),
        ],
    )
    assert result.exit_code == 4
    assert "numerical failure" in result.output
