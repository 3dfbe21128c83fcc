"""Shared fixtures: a fast small scenario, the seed-1 default-scenario model
and the full default experiment run.

The default run is executed once per session through the real CLI and shared
by every test that needs 20-repetition statistics, so the expensive sweep
happens exactly once.
"""

from __future__ import annotations

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from beamsec import channel, cli, numcore


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
    preds, ws = numcore._forward_batch(model, np.asarray(x, dtype=np.float64)[None, :])
    grads = [(np.empty_like(l.weights), np.empty_like(l.bias)) for l in model.layers]
    dx = numcore._backward_batch(model, ws, 2.0 * (preds - y), grads, need_input_grads=True)
    return grads, dx[0]
