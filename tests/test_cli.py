"""End-to-end command-line tests: pipeline happy path and exit-code contract."""

from __future__ import annotations

import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from beamsec import cli, config, harness, numcore
from beamsec.channel import Dataset, build_dataset, load_dataset, save_dataset
from beamsec.framing import write_framed

from conftest import make_tiny_scenario, one_core, python_env


@pytest.fixture()
def runner():
    return CliRunner()


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
    # run's round table, as repetition 0; the kept row is the round defend prints
    header, *rounds = [line.split(",") for line in hist_path.read_text().splitlines()]
    assert header == "repetition,round,clean_mse,adv_mse,dataset_rows,kept".split(",")
    assert {r[0] for r in rounds} == {"0"}
    kept = re.search(r"kept round (\d+):", result.output).group(1)
    assert [r[1] for r in rounds if r[5] == "1"] == [kept]

    sweep_dir = tmp_path / "sweep"
    result = runner.invoke(cli.main, ["run", *cfg, "--out", str(sweep_dir)])
    assert result.exit_code == 0, result.output
    assert (sweep_dir / "results.csv").exists()
    assert (sweep_dir / "stages.csv").exists()
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


def test_run_writes_stages_csv(runner, tmp_path, tiny_config_path):
    """stages.csv: each repetition's stages in run order, each with its
    seconds (finite, >= 0) and rows; the old timings.csv is not written."""
    out = tmp_path / "sweep"
    args = ["run", "--config", str(tiny_config_path), "--reps", "2", "--out", str(out)]
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 0, result.output
    assert f"wrote {out / 'stages.csv'}" in result.output.splitlines()
    lines = (out / "stages.csv").read_text().splitlines()
    assert lines[0] == "repetition,stage,seconds,rows"
    entries = [line.split(",") for line in lines[1:]]
    stages = ("build_dataset", "split_dataset", "train", "attack_sc2", "defense", "attack_sc3")
    assert [(int(rep), stage) for rep, stage, _, _ in entries] == [
        (rep, stage) for rep in range(2) for stage in stages
    ]
    assert all(math.isfinite(float(s)) and float(s) >= 0.0 for _, _, s, _ in entries)
    # 300 instances: 240 training and 60 test rows; the one adversarial round
    # (max_rounds = 2) trains on a pool of 2 x 240 rows
    assert [int(rows) for *_, rows in entries] == [300, 300, 240, 60, 480, 60] * 2
    assert not (out / "timings.csv").exists()


def test_run_writes_defense_rounds_csv(runner, tmp_path, tiny_config_path):
    """defense_rounds.csv: every round adversarial_train ran in each
    repetition, in order; the pool rows of the rounds after round 0 add up
    to the defense stage's rows, and kept marks exactly one round per
    repetition, the first with the lowest adversarial MSE."""
    out = tmp_path / "sweep"
    args = ["run", "--config", str(tiny_config_path), "--reps", "2", "--out", str(out)]
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 0, result.output
    assert f"wrote {out / 'defense_rounds.csv'}" in result.output.splitlines()
    lines = (out / "defense_rounds.csv").read_text().splitlines()
    assert lines[0] == "repetition,round,clean_mse,adv_mse,dataset_rows,kept"
    entries = [line.split(",") for line in lines[1:]]
    stages = [line.split(",") for line in (out / "stages.csv").read_text().splitlines()[1:]]
    defense_rows = [int(rows) for _, stage, _, rows in stages if stage == "defense"]
    assert [int(e[0]) for e in entries] == sorted(int(e[0]) for e in entries)
    for rep in range(2):
        rounds = [e for e in entries if e[0] == str(rep)]
        assert [int(e[1]) for e in rounds] == list(range(len(rounds)))
        assert 1 <= len(rounds) <= 2  # the config's max_rounds
        assert sum(int(e[4]) for e in rounds[1:]) == defense_rows[rep]
        assert [e[5] for e in rounds].count("1") == 1
        adv = [float(e[3]) for e in rounds]
        assert rounds[adv.index(min(adv))][5] == "1"


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="one usable core: every run is serial, so there is no pooled run to compare",
)
@pytest.mark.parametrize("reps", [1, 2, 3])
def test_pooled_run_writes_the_serial_bytes(tmp_path, tiny_config_path, reps):
    """run on every usable core (one forked worker per repetition) and on
    one core (one process) writes the same result files and the same
    stages.csv but for its seconds; three repetitions give two workers
    uneven work. Both write to a relative --out, so the manifests agree."""
    outputs = {}
    for name, preexec in (("pooled", None), ("serial", one_core)):
        cwd = tmp_path / name
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "beamsec.cli", "run", "--config", str(tiny_config_path),
             "--reps", str(reps), "--out", "out"],
            cwd=cwd, env=python_env(), preexec_fn=preexec, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        out = cwd / "out"
        files = ("results.csv", "summary.csv", "ratios.csv", "manifest.json", "defense_rounds.csv")
        stages = (out / "stages.csv").read_text().splitlines()
        outputs[name] = (
            {f: (out / f).read_bytes() for f in files},
            [(rep, stage, rows) for rep, stage, _, rows in (line.split(",") for line in stages)],
        )
    assert outputs["pooled"] == outputs["serial"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failure_in_a_run_worker_exits_4(runner, tmp_path, tiny_config_path):
    """Training overflows (learning rate 1e300) in the repetitions' worker
    processes: the run exits 4 and writes no results.csv."""
    doc = json.loads(tiny_config_path.read_text())
    doc["train"]["learning_rate"] = 1e300
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sweep"
    result = runner.invoke(cli.main, ["run", "--config", str(path), "--reps", "2", "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert "numerical failure" in result.output
    assert not (out / "results.csv").exists()


def test_run_draws_its_data_from_the_scenario_seed(runner, tmp_path, tiny_config_path):
    """run's data follow scenario.seed, and --seed N sets that field: a config
    holding seed 7 and --seed 7 on one without it write the same results.csv,
    unlike seed 1; the manifest records the seed the run used."""
    doc = json.loads(tiny_config_path.read_text())
    del doc["scenario"]["seed"]
    unseeded, seeded = tmp_path / "unseeded.json", tmp_path / "seeded.json"
    unseeded.write_text(json.dumps(doc))
    doc["scenario"]["seed"] = 7
    seeded.write_text(json.dumps(doc))

    def results(name, *args):
        out = tmp_path / name
        result = runner.invoke(cli.main, ["run", *args, "--eps", "0.1", "--out", str(out)])
        assert result.exit_code == 0, result.output
        return out

    from_config = results("config7", "--config", str(seeded))
    from_flag = results("flag7", "--config", str(unseeded), "--seed", "7")
    default = results("seed1", "--config", str(unseeded))
    text = (from_config / "results.csv").read_bytes()
    assert text == (from_flag / "results.csv").read_bytes()
    assert text != (default / "results.csv").read_bytes()
    for out, seed in ((from_config, 7), (from_flag, 7), (default, 1)):
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["scenario"]["seed"] == seed

    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps({"base_seed": 7}))
    result = runner.invoke(cli.main, ["run", "--config", str(legacy), "--out", str(tmp_path / "s")])
    assert result.exit_code == 2
    assert "unknown config field: base_seed" in result.output


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


@pytest.mark.parametrize("eps", ["0.1,,0.2", "0.1,", ",0.1"])
def test_empty_eps_entry_exits_2(runner, tmp_path, tiny_config_path, eps):
    """An empty entry in the budget list is an error, not a budget to skip."""
    out = tmp_path / "s"
    result = runner.invoke(
        cli.main, ["run", "--config", str(tiny_config_path), "--eps", eps, "--out", str(out)]
    )
    assert result.exit_code == 2
    assert "config error" in result.output
    assert not out.exists()


def test_negative_instances_exits_2(runner, tmp_path):
    result = runner.invoke(
        cli.main,
        ["generate", "--instances", "-5", "--out", str(tmp_path / "d.bin")],
    )
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args, builder, flag",
    [
        (["generate", "--out", "d.bin", "--csv"], "build_dataset", "--csv"),
        (["defend", "--data", "d.bin", "--out", "m.bin", "--history"], "load_dataset", "--history"),
    ],
    ids=["generate_csv", "defend_history"],
)
def test_second_output_onto_out_exits_2(runner, tmp_path, monkeypatch, args, builder, flag):
    """A second output file naming the --out file, here by another spelling
    of its path, is refused before anything is read or built, so it cannot
    overwrite the first."""

    def no_work(*args, **kwargs):
        raise AssertionError(f"{builder} called")

    monkeypatch.setattr(cli, builder, no_work)
    monkeypatch.chdir(tmp_path)
    out = args[args.index("--out") + 1]
    result = runner.invoke(cli.main, [*args, str(tmp_path / out)])
    assert result.exit_code == 2, result.output
    assert f"{flag} and --out name the same file" in result.output
    assert not (tmp_path / out).exists()


def test_grid_point_near_bs_exits_2(runner, tmp_path):
    """The default grid moved to start at x = 0.05 holds a point 0.05 m from
    the BS; generate refuses it even where its 10 instances do not sample it."""
    grid = {"x_min": 0.05, "x_max": 8.0, "y_min": -3.0, "y_max": 3.0, "spacing": 0.2}
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"scenario": {"user_grid": grid}, "num_instances": 10}))
    result = runner.invoke(
        cli.main, ["generate", "--config", str(path), "--out", str(tmp_path / "d.bin")]
    )
    assert result.exit_code == 2, result.output
    assert "closer than 0.1 m" in result.output
    assert not (tmp_path / "d.bin").exists()


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
    "model_seed_negative": lambda h: h.update(seed=-5),
    "model_extra_key": lambda h: h.update(junk=1),
    "model_dropout_bool": lambda h: h.update(dropout_ratio=False),
    "model_dropout_one": lambda h: h.update(dropout_ratio=1.0),
    "model_hidden_width_zero": lambda h: h.update(hidden_dims=[100, 0, 100]),
    "model_hidden_dims_float": lambda h: h.update(hidden_dims=[100.0, 100, 100]),
}

# The same network's checkpoint in the BMMLP1 format, which spelled out each
# layer's widths, activation and dropout ratio.
BMMLP1_HEADER = {
    "input_dim": 8,
    "layers": [
        {"activation": a, "dropout_ratio": p, "in_dim": i, "out_dim": o}
        for a, p, i, o in (
            ("relu", 0.25, 8, 100), ("relu", 0.25, 100, 100),
            ("relu", 0.25, 100, 100), ("tanh", 0.0, 100, 1),
        )
    ],
    "seed": 0,
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
        "model_bmmlp1",
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
        write_framed(bad, b"BMMLP2", header, [net.params])
        argv = attack_with(bad)
    elif case == "model_bmmlp1":
        write_framed(bad, b"BMMLP1", BMMLP1_HEADER, [net.params])
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
    if case == "model_bmmlp1":
        assert "bad magic" in result.output


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


def test_attack_with_mismatched_model_width_exits_2(runner, tmp_path):
    """A model built for another feature count is refused before any
    gradient pass; the message names both files and both widths."""
    data, model, out = tmp_path / "data.bin", tmp_path / "model.bin", tmp_path / "out.bin"
    save_dataset(build_dataset(make_tiny_scenario(seed=5), 50), data)
    numcore.save_model(numcore.init_model(4, 0), model)
    result = runner.invoke(
        cli.main,
        ["attack", "--model", str(model), "--data", str(data), "--eps", "0.1", "--out", str(out)],
    )
    assert result.exit_code == 2, result.output
    assert "config error" in result.output
    assert str(model) in result.output and str(data) in result.output
    assert "4 features" in result.output and "has 8" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "train", "defend", "run"])
def test_negative_seed_exits_2_naming_the_flag(runner, tmp_path, command):
    data, out = tmp_path / "data.bin", str(tmp_path / "out")
    save_dataset(build_dataset(make_tiny_scenario(seed=5), 50), data)
    argv = {
        "generate": ["generate", "--out", out],
        "train": ["train", "--data", str(data), "--out", out],
        "defend": ["defend", "--data", str(data), "--out", out],
        "run": ["run", "--out", out],
    }[command]
    result = runner.invoke(cli.main, [*argv, "--seed", "-1"])
    assert result.exit_code == 2, result.output
    assert "--seed" in result.output


def test_readme_commands_table_lists_every_command():
    """README's Commands table names each command of the CLI once."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Commands\n", 1)[1].split("\n## ", 1)[0]
    table = section.strip().split("\n\n", 1)[0]
    listed = re.findall(r"^\| `(\w+)` +\|", table, flags=re.MULTILINE)
    assert sorted(listed) == sorted(cli.main.commands)
    assert len(listed) == len(set(listed))


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


def test_run_into_an_unmakeable_out_exits_3_before_the_sweep(runner, tmp_path, monkeypatch):
    """run makes its output directory before it runs a repetition: an --out
    under a regular file fails at once."""

    def no_sweep(cfg):
        raise AssertionError("run_experiment called")

    monkeypatch.setattr(harness, "run_experiment", no_sweep)
    blocker = tmp_path / "file"
    blocker.write_text("")
    result = runner.invoke(cli.main, ["run", "--reps", "1", "--out", str(blocker / "sub")])
    assert result.exit_code == 3, result.output
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


def test_run_manifest_round_trips_the_config(runner, tmp_path, tiny_config_path):
    out = tmp_path / "sweep"
    result = runner.invoke(
        cli.main, ["run", "--config", str(tiny_config_path), "--eps", "0.1", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"config", "versions", "blas"}
    cfg = config.load(harness.ExperimentConfig, manifest["config"])
    assert config.dump(cfg) == manifest["config"]
    assert cfg.attack_grid == (0.1,) and cfg.output_dir == str(out)
    assert cfg.scenario == harness.load_config(tiny_config_path).scenario
    assert manifest["versions"]["numpy"] == np.__version__
    assert set(manifest["versions"]) == {"beamsec", "numpy", "python"}
    assert set(manifest["blas"]) == {"name", "version", "threads"}
    assert manifest["blas"]["threads"] == 1


def test_run_results_do_not_depend_on_openblas_num_threads(tmp_path):
    """numcore sets OpenBLAS to one thread as it loads, so a run writes the
    same results.csv with OPENBLAS_NUM_THREADS unset, 1 and 2. Left at the
    default count, this config's SC3 rows differ from those at one thread;
    the tiny scenario's do not, so it cannot show the difference."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"defense": {"max_rounds": 2}, "num_instances": 4000}))
    results = []
    for threads in (None, "1", "2"):
        env = {k: v for k, v in python_env().items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads_{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "beamsec.cli", "run", "--config", str(cfg),
             "--reps", "1", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        results.append((out / "results.csv").read_bytes())
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize(
    "line, message",
    [
        ("SC1,0,0", r"results\.csv:3: expected 4 fields, got 3"),
        ("SC1,0,1,nan", r"results\.csv:3: non-finite"),
        ("SC1,0,1,0.5x", r"results\.csv:3: could not convert"),
        ("SC1,0.0,0,0.02", r"results\.csv:3: duplicate of the row on line 2"),
        ("SC1,0,-3,0.01", r"results\.csv:3: negative repetition or epsilon"),
        ("SC2,-0.5,0,0.02", r"results\.csv:3: negative repetition or epsilon"),
        ("SC1,0.3,1,0.01", r"results\.csv:3: SC1 row at nonzero epsilon"),
        ("SC4,0.1,0,0.01", r"results\.csv:3: unknown scenario 'SC4'"),
        ("sc1,0,0,0.01", r"results\.csv:3: unknown scenario 'sc1'"),
        ("SC2,0,0,0.01", r"results\.csv:3: SC2 row at epsilon 0"),
        ("SC1,-0,0,0.01", r"results\.csv:3: negative repetition or epsilon"),
        (
            "SC2,0.1,0,0.02\nSC2,0.1000001,0,0.03",
            r"results\.csv:4: epsilon 0\.1000001 prints like 0\.1$",
        ),
        (None, r"results\.csv: no result rows"),
    ],
)
def test_malformed_results_csv_exits_3(runner, tmp_path, line, message):
    """Each entry (a line, or two) follows a header and one SC1 row; None
    leaves the header alone."""
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
