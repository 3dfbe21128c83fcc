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


@pytest.mark.parametrize(
    "case", ["dataset_cut_by_5_bytes", "dataset_plus_8_bytes", "model_as_data", "dataset_as_model"]
)
def test_malformed_artifact_exits_3(runner, tmp_path, case):
    data, model, bad = tmp_path / "data.bin", tmp_path / "model.bin", tmp_path / "bad.bin"
    save_dataset(build_dataset(make_tiny_scenario(seed=5), 50), data)
    numcore.save_model(numcore.init_model(8, 0), model)
    blob = data.read_bytes()
    bad.write_bytes(blob[:-5] if case == "dataset_cut_by_5_bytes" else blob + bytes(8))
    out = str(tmp_path / "out.bin")
    argv = {
        "dataset_cut_by_5_bytes": ["train", "--data", str(bad), "--out", out],
        "dataset_plus_8_bytes": ["train", "--data", str(bad), "--out", out],
        "model_as_data": ["train", "--data", str(model), "--out", out],
        "dataset_as_model": [
            "attack", "--model", str(data), "--data", str(data), "--eps", "0.1", "--out", out,
        ],
    }[case]
    result = runner.invoke(cli.main, argv)
    assert result.exit_code == 3, result.output
    assert re.search(r"format error: .*(bad|data|model)\.bin", result.output)


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
