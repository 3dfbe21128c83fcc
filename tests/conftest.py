"""Shared fixtures: a fast small scenario, the seed-1 default-scenario model
and the full default experiment run.

The default run is executed once per session through the real CLI and shared
by every test that needs 20-repetition statistics, so the expensive sweep
happens exactly once.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from beamsec import channel, cli, config, numcore
from beamsec.defense import DefenseConfig
from beamsec.harness import ExperimentConfig


SRC = Path(__file__).resolve().parent.parent / "src"


def python_env() -> dict:
    """This environment with the package's sources first on PYTHONPATH, for
    tests that start Python in a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def one_core() -> None:
    """A subprocess preexec_fn: bind the child to one of the usable cores,
    so that run_experiment runs its repetitions one after another."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def make_tiny_scenario(seed: int = 7) -> channel.ScenarioParams:
    """Small canyon: 8 antennas, 4 subcarriers, 169 grid points, 8 features."""
    return replace(
        channel.default_scenario(seed=seed),
        num_antennas=8,
        num_subcarriers=4,
        codebook_oversampling=1,
        user_grid=channel.UserGrid(1.0, 4.0, -1.5, 1.5, 0.25),
        walls=(
            (-1.0, 2.5, 20.0, 2.5),
            (-1.0, -2.5, 20.0, -2.5),
        ),
    )


@pytest.fixture()
def tiny_scenario() -> channel.ScenarioParams:
    return make_tiny_scenario()


@pytest.fixture()
def tiny_config_path(tmp_path):
    """A JSON config of one fast repetition on the small scenario."""
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


@pytest.fixture(scope="session")
def tiny_trained():
    """One trained model on the small scenario plus its train/test splits."""
    params = make_tiny_scenario()
    ds = channel.build_dataset(params, 600)
    rng = np.random.default_rng(7)
    train_ds, test_ds = channel.split_dataset(ds, 0.8, rng)
    model, history = numcore.fit(train_ds, numcore.TrainConfig(), rng)
    return SimpleNamespace(
        params=params, model=model, train=train_ds, test=test_ds, history=history
    )


@pytest.fixture(scope="session")
def default_model():
    """Criterion 2's model: default scenario, seed 1, 12,500 instances split
    80/20 and trained once; build_s is the time the dataset build, split and
    training took."""
    t0 = time.perf_counter()
    ds = channel.build_dataset(channel.default_scenario(seed=1), 12500)
    rng = np.random.default_rng(1)
    train_ds, test_ds = channel.split_dataset(ds, 0.8, rng)
    model, _ = numcore.fit(train_ds, numcore.TrainConfig(), rng)
    return SimpleNamespace(
        model=model, train=train_ds, test=test_ds, build_s=time.perf_counter() - t0
    )


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """Full default scenario sweep (20 reps, SC1-SC3) through the CLI, once."""
    out = tmp_path_factory.mktemp("default_run")
    runner = CliRunner()
    t0 = time.perf_counter()
    result = runner.invoke(cli.main, ["run", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert result.exit_code == 0, result.output
    return SimpleNamespace(dir=out, elapsed_s=elapsed, output=result.output)


def load_results_csv(path):
    """results.csv rows as a list of (scenario, epsilon, repetition, mse)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        assert header == "scenario,epsilon,repetition,mse"
        for line in fh:
            sc, eps, rep, mse = line.strip().split(",")
            rows.append((sc, float(eps), int(rep), float(mse)))
    return rows


def row_gradients(model, x, y):
    """Gradients of (f(x) - y)^2 at one input row, without dropout, through the
    batched passes that train() runs: (per-layer (dW, db) list, input grad)."""
    ws = numcore._Workspace(model, 1, train=False, backward=True)
    preds = numcore._forward_batch(model, np.asarray(x, dtype=np.float64)[None, :], ws)
    grads = [(np.empty_like(l.weights), np.empty_like(l.bias)) for l in model.layers]
    dx = numcore._backward_batch(model, ws, 2.0 * (preds - y), grads, need_input_grads=True)
    return grads, dx[0]
