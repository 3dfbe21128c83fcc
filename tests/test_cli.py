"""End-to-end command-line tests: pipeline happy path and exit-code contract."""

from __future__ import annotations

import json
import re
import struct

import numpy as np
import pytest
from click.testing import CliRunner

from beamsec import cli, config, harness, numcore
from beamsec.channel import Dataset, build_dataset, load_dataset, save_dataset
from beamsec.defense import DefenseConfig
from beamsec.framing import write_framed
from beamsec.harness import ExperimentConfig

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
    path.write_text(json.dumps(config.dump(cfg)))
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


@pytest.mark.parametrize("eps", ["0.1,0.1,0.05", "0.05,0.1,0.1000001"])
def test_budgets_printed_alike_exit_2(runner, tmp_path, monkeypatch, eps):
    """Budgets that results.csv would print alike would share its rows: the
    run is refused before a dataset is built."""

    def no_dataset(*args, **kwargs):
        raise AssertionError("a dataset was built from a rejected config")

    monkeypatch.setattr(harness, "build_dataset", no_dataset)
    out = tmp_path / "s"
    result = runner.invoke(cli.main, ["run", "--reps", "1", "--eps", eps, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "config error" in result.output and "attack_grid" in result.output
    assert not out.exists()


# Checkpoint headers that differ from save_model's by one field each.
MODEL_HEADER_EDITS = {
    "model_input_dim_float": lambda h: h.update(input_dim=8.0),
    "model_seed_float": lambda h: h.update(seed=3.0),
    "model_layer_extra_key": lambda h: h["layers"][0].update(junk=1),
    "model_dropout_bool": lambda h: h["layers"][0].update(dropout_ratio=False),
}

# Dataset headers that differ from save_dataset's by one field each.
DATASET_HEADER_EDITS = {
    "dataset_adversarial_string": lambda h: h.update(adversarial="no"),
    "dataset_adversarial_int": lambda h: h.update(adversarial=1),
    "dataset_epsilon_string": lambda h: h.update(epsilon="0.1"),
    "dataset_epsilon_nan": lambda h: h.update(epsilon=float("nan")),
    "dataset_epsilon_bool": lambda h: h.update(epsilon=True),
    "dataset_epsilon_negative": lambda h: h.update(epsilon=-3.0),
    "dataset_mean_too_short": lambda h: h["norm_meta"].update(feature_mean=[0.0, 0.0, 0.0]),
    "dataset_norm_vectors_too_short": lambda h: h["norm_meta"].update(
        feature_mean=[0.0, 0.0, 0.0], feature_std=[1.0, 1.0, 1.0]
    ),
    "dataset_std_negative": lambda h: h["norm_meta"].update(
        feature_std=[-1.0] * len(h["norm_meta"]["feature_std"])
    ),
    "dataset_label_min_above_max": lambda h: h["norm_meta"].update(label_min=5.0, label_max=1.0),
    "dataset_label_cap_negative": lambda h: h["norm_meta"].update(label_cap=-3.0),
}


@pytest.mark.parametrize(
    "case",
    [
        "dataset_cut_by_5_bytes",
        "dataset_plus_8_bytes",
        "model_as_data",
        "dataset_as_model",
        *MODEL_HEADER_EDITS,
        *DATASET_HEADER_EDITS,
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
        header = config.dump(net.spec)
        MODEL_HEADER_EDITS[case](header)
        write_framed(bad, b"BMMLP1", header, [net.params])
        argv = attack_with(bad)
    elif case in DATASET_HEADER_EDITS:
        blob = data.read_bytes()
        (hlen,) = struct.unpack("<I", blob[5:9])
        header = json.loads(blob[9 : 9 + hlen])
        DATASET_HEADER_EDITS[case](header)
        new = json.dumps(header, sort_keys=True).encode("utf-8")
        bad.write_bytes(blob[:5] + struct.pack("<I", len(new)) + new + blob[9 + hlen :])
        argv = ["train", "--data", str(bad), "--out", out]
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


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
def test_non_finite_attack_budget_exits_2(runner, tmp_path, eps):
    data, model, out = tmp_path / "data.bin", tmp_path / "model.bin", tmp_path / "out.bin"
    save_dataset(build_dataset(make_tiny_scenario(seed=5), 50), data)
    numcore.save_model(numcore.init_model(8, 0), model)
    result = runner.invoke(
        cli.main,
        ["attack", "--model", str(model), "--data", str(data), f"--eps={eps}", "--out", str(out)],
    )
    assert result.exit_code == 2, result.output
    assert "config error: epsilon" in result.output
    assert not out.exists()


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


def test_run_manifest_round_trips_the_config(runner, tmp_path, tiny_config_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    out = tmp_path / "sweep"
    result = runner.invoke(
        cli.main, ["run", "--config", str(tiny_config_path), "--eps", "0.1", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"config", "versions", "blas", "env"}
    cfg = harness.config_from_dict(manifest["config"])
    assert config.dump(cfg) == manifest["config"]
    assert cfg.attack_grid == (0.1,) and cfg.output_dir == str(out)
    assert cfg.scenario == harness.load_config(tiny_config_path).scenario
    assert manifest["versions"]["numpy"] == np.__version__
    assert set(manifest["versions"]) == {"beamsec", "numpy", "python"}
    assert set(manifest["blas"]) == {"name", "version"}
    assert manifest["env"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}


@pytest.mark.parametrize(
    "line, message",
    [
        ("SC1,0,0", r"results\.csv:3: expected 4 fields, got 3"),
        ("SC1,0,1,nan", r"results\.csv:3: non-finite"),
        ("SC1,0,1,0.5x", r"results\.csv:3: could not convert"),
        ("SC1,0.0,0,0.02", r"results\.csv:3: duplicate of the row on line 2"),
        (None, r"results\.csv: no result rows"),
    ],
)
def test_malformed_results_csv_exits_3(runner, tmp_path, line, message):
    """Each line follows a header and one SC1 row; None leaves the header alone."""
    path = tmp_path / "results.csv"
    rows = "" if line is None else f"SC1,0,0,0.01\n{line}\n"
    path.write_text(f"scenario,epsilon,repetition,mse\n{rows}")
    result = runner.invoke(cli.main, ["report", "--results", str(path), "--out", str(tmp_path / "r")])
    assert result.exit_code == 3, result.output
    assert re.search("format error: .*" + message, result.output), result.output
    assert not (tmp_path / "r" / "summary.csv").exists()


def test_results_csv_with_bad_header_exits_3(runner, tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("scenario,epsilon,mse\nSC1,0,0.01\n")
    result = runner.invoke(cli.main, ["report", "--results", str(path), "--out", str(tmp_path / "r")])
    assert result.exit_code == 3, result.output
    assert re.search(r"format error: .*results\.csv:1: expected header", result.output)
