"""Adversarial training loop tests: schedules, plateaus, robustness tables."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from beamsec import channel, numcore
from beamsec.attack import AttackConfig, attack_dataset
from beamsec.defense import DefenseConfig, adversarial_train, round_history_to_csv


FAST = numcore.TrainConfig(epochs=2)


def small_data(tiny_scenario, rows=300, seed=3):
    ds = channel.build_dataset(tiny_scenario, rows)
    rng = np.random.default_rng(seed)
    return channel.split_dataset(ds, 0.8, rng)


def test_defense_config_validation():
    with pytest.raises(ValueError):
        DefenseConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        DefenseConfig(max_rounds=0)
    with pytest.raises(ValueError):
        DefenseConfig(steady_state_rel_tol=0.0)
    cfg = DefenseConfig()
    assert (cfg.max_rounds, cfg.steady_state_rel_tol) == (10, 0.01)


def test_single_round_equals_plain_training(tiny_scenario):
    train_ds, _ = small_data(tiny_scenario)
    cfg = DefenseConfig(epsilon=0.1, max_rounds=1)

    defended, history = adversarial_train(train_ds, FAST, cfg, np.random.default_rng(12))

    rng = np.random.default_rng(12)
    plain = numcore.init_model(train_ds.num_features, int(rng.integers(0, 2**63)))
    plain, _ = numcore.train(plain, train_ds, FAST, rng)

    assert len(history) == 1
    assert history[0].round_index == 0
    assert history[0].dataset_rows == train_ds.num_rows
    for ld, lp in zip(defended.layers, plain.layers):
        assert np.array_equal(ld.weights, lp.weights)
        assert np.array_equal(ld.bias, lp.bias)


def test_augmentation_row_schedule(tiny_scenario):
    train_ds, _ = small_data(tiny_scenario)
    n = train_ds.num_rows
    cfg = DefenseConfig(epsilon=0.1, max_rounds=4, steady_state_rel_tol=1e-12)
    _, history = adversarial_train(train_ds, FAST, cfg, np.random.default_rng(5))
    for rec in history:
        assert rec.dataset_rows == n + rec.round_index * n  # every base row, each round
    assert len(history) <= cfg.max_rounds


def test_round_indices_and_termination(tiny_scenario):
    train_ds, _ = small_data(tiny_scenario)
    cfg = DefenseConfig(epsilon=0.1, max_rounds=6)
    _, history = adversarial_train(train_ds, FAST, cfg, np.random.default_rng(8))
    assert [rec.round_index for rec in history] == list(range(len(history)))
    assert 1 <= len(history) <= 6
    for rec in history:
        assert np.isfinite(rec.clean_mse) and rec.clean_mse >= 0.0
        assert np.isfinite(rec.adv_mse) and rec.adv_mse >= 0.0


def test_defense_history_is_seed_reproducible(tiny_scenario):
    train_ds, _ = small_data(tiny_scenario)
    cfg = DefenseConfig(epsilon=0.1, max_rounds=3)
    m1, h1 = adversarial_train(train_ds, FAST, cfg, np.random.default_rng(77))
    m2, h2 = adversarial_train(train_ds, FAST, cfg, np.random.default_rng(77))
    assert h1 == h2
    for la, lb in zip(m1.layers, m2.layers):
        assert np.array_equal(la.weights, lb.weights)


def test_defense_improves_or_holds_adversarial_mse(tiny_scenario):
    """Augmented rounds must not end worse than the first augmented round,
    and the model returned is the best probe round, not the one that stopped
    the loop."""
    params = replace(tiny_scenario, seed=1)
    ds = channel.build_dataset(params, 1200)

    def run(max_rounds):
        rng = np.random.default_rng(1)
        train_ds, _ = channel.split_dataset(ds, 0.8, rng)
        cfg = DefenseConfig(epsilon=0.1, max_rounds=max_rounds)
        return adversarial_train(train_ds, numcore.TrainConfig(), cfg, rng)

    model, history = run(5)
    if len(history) > 1:
        assert history[-1].adv_mse <= history[1].adv_mse * (1.0 + 1e-9)

    adv = [rec.adv_mse for rec in history]
    best = int(np.argmin(adv))
    # Precondition: the plateau rule stopped on a round that got worse, so
    # returning the last round would differ from returning the best one.
    assert len(history) < 5 and best != len(history) - 1
    best_alone, best_history = run(best + 1)
    assert best_history == history[: best + 1]
    for lm, lb in zip(model.layers, best_alone.layers):
        assert np.array_equal(lm.weights, lb.weights)
        assert np.array_equal(lm.bias, lb.bias)


def test_adversarial_train_rejects_empty():
    class Empty:
        features = np.empty((0, 4))
        labels = np.empty(0)

    with pytest.raises(ValueError):
        adversarial_train(Empty(), FAST, DefenseConfig(), np.random.default_rng(0))


def test_evaluate_robustness_table(tiny_trained):
    """Test MSE under FGSM over a budget grid; budget 0 is the clean MSE."""
    model, test = tiny_trained.model, tiny_trained.test
    grid = [0.0, 0.02, 0.1]
    table = {
        eps: numcore.mse_loss(
            numcore.predict(model, attack_dataset(model, test, AttackConfig(epsilon=eps))),
            test.labels,
        )
        for eps in grid
    }
    clean = numcore.mse_loss(numcore.predict(model, test.features), test.labels)
    assert table[0.0] == clean
    for eps, mse in table.items():
        assert np.isfinite(mse) and mse >= 0.0
    with pytest.raises(ValueError):
        AttackConfig(epsilon=-0.1)


def test_defended_curve_beats_undefended(tiny_scenario):
    """Paired run on one seed: the defended model's MSE stays at or below the
    undefended model's at every budget in the grid."""
    params = replace(tiny_scenario, seed=2)
    ds = channel.build_dataset(params, 1500)
    rng = np.random.default_rng(2)
    train_ds, test_ds = channel.split_dataset(ds, 0.8, rng)

    plain = numcore.init_model(train_ds.num_features, int(rng.integers(0, 2**63)))
    plain, _ = numcore.train(plain, train_ds, numcore.TrainConfig(), rng)

    defended, _ = adversarial_train(
        train_ds, numcore.TrainConfig(), DefenseConfig(epsilon=0.1), np.random.default_rng(2)
    )
    for eps in [0.02, 0.06, 0.1]:
        atk = AttackConfig(epsilon=eps)
        base, hard = (
            numcore.mse_loss(numcore.predict(m, attack_dataset(m, test_ds, atk)), test_ds.labels)
            for m in (plain, defended)
        )
        assert hard <= base


def test_round_history_csv(tmp_path, tiny_scenario):
    train_ds, _ = small_data(tiny_scenario)
    _, history = adversarial_train(
        train_ds, FAST, DefenseConfig(epsilon=0.1, max_rounds=2), np.random.default_rng(4)
    )
    path = tmp_path / "rounds.csv"
    round_history_to_csv(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,clean_mse,adv_mse,dataset_rows"
    assert len(lines) == len(history) + 1
