"""Adversarial training loop tests: schedules, plateaus, robustness tables."""

from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from beamsec import channel, defense, numcore
from beamsec.attack import AttackConfig, attack_dataset, attacked_mse
from beamsec.defense import (
    DefenseConfig,
    RoundRecord,
    adversarial_train,
    kept_round,
)
from beamsec.harness import rounds_to_csv


FAST = numcore.TrainConfig(epochs=2)


def small_data(tiny_scenario, rows=300, seed=3):
    ds = channel.build_dataset(tiny_scenario, rows)
    rng = np.random.default_rng(seed)
    return channel.split_dataset(ds, 0.8, rng)


def defend(train_ds, train_cfg, def_cfg, rng):
    """Clean round 0 from rng, then adversarial training on the same rng: the
    draw order of `beamsec defend`."""
    model, _ = numcore.fit(train_ds, train_cfg, rng)
    return adversarial_train(model, train_ds, train_cfg, def_cfg, rng)


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

    defended, history = defend(train_ds, FAST, cfg, np.random.default_rng(12))

    rng = np.random.default_rng(12)
    plain = numcore.init_model(train_ds.num_features, int(rng.integers(0, 2**63)))
    plain, _ = numcore.train(plain, train_ds, FAST, rng)

    assert len(history) == 1
    assert history[0].round_index == 0
    assert history[0].dataset_rows == train_ds.num_rows
    for ld, lp in zip(defended.layers, plain.layers):
        assert np.array_equal(ld.weights, lp.weights)
        assert np.array_equal(ld.bias, lp.bias)


def test_round_zero_is_the_passed_model(tiny_scenario):
    """adversarial_train fine-tunes a copy: the passed model keeps its arrays
    and values, and round 0's record holds that model's probe metrics."""
    train_ds, _ = small_data(tiny_scenario)
    model, _ = numcore.fit(train_ds, FAST, np.random.default_rng(6))
    arrays = [(l.weights, l.bias) for l in model.layers]
    values = [(w.copy(), b.copy()) for w, b in arrays]
    cfg = DefenseConfig(epsilon=0.1, max_rounds=3, steady_state_rel_tol=1e-12)

    defended, history = adversarial_train(model, train_ds, FAST, cfg, np.random.default_rng(9))

    assert len(history) > 1 and defended is not model
    for layer, (w, b), (w0, b0) in zip(model.layers, arrays, values):
        assert layer.weights is w and layer.bias is b
        assert np.array_equal(w, w0) and np.array_equal(b, b0)
    n = train_ds.num_rows
    probe = np.random.default_rng(9).permutation(n)[: math.ceil(0.1 * n)]
    X, y = train_ds.features[probe], train_ds.labels[probe]
    x_adv = attack_dataset(model, SimpleNamespace(features=X, labels=y), AttackConfig(epsilon=0.1))
    clean = numcore.mse_loss(numcore.predict(model, X), y)
    adv = numcore.mse_loss(numcore.predict(model, x_adv), y)
    assert history[0] == RoundRecord(0, clean, adv, n)


def test_augmentation_row_schedule(tiny_scenario):
    train_ds, _ = small_data(tiny_scenario)
    n = train_ds.num_rows
    cfg = DefenseConfig(epsilon=0.1, max_rounds=4, steady_state_rel_tol=1e-12)
    _, history = defend(train_ds, FAST, cfg, np.random.default_rng(5))
    for rec in history:
        assert rec.dataset_rows == n + rec.round_index * n  # every base row, each round
    assert len(history) <= cfg.max_rounds


def test_round_indices_and_termination(tiny_scenario):
    train_ds, _ = small_data(tiny_scenario)
    cfg = DefenseConfig(epsilon=0.1, max_rounds=6)
    _, history = defend(train_ds, FAST, cfg, np.random.default_rng(8))
    assert [rec.round_index for rec in history] == list(range(len(history)))
    assert 1 <= len(history) <= 6
    for rec in history:
        assert np.isfinite(rec.clean_mse) and rec.clean_mse >= 0.0
        assert np.isfinite(rec.adv_mse) and rec.adv_mse >= 0.0


def test_defense_history_is_seed_reproducible(tiny_scenario):
    train_ds, _ = small_data(tiny_scenario)
    cfg = DefenseConfig(epsilon=0.1, max_rounds=3)
    m1, h1 = defend(train_ds, FAST, cfg, np.random.default_rng(77))
    m2, h2 = defend(train_ds, FAST, cfg, np.random.default_rng(77))
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
        return defend(train_ds, numcore.TrainConfig(), cfg, rng)

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


@pytest.mark.parametrize(
    "adv_mses, rounds, kept",
    [
        ((1.0, 0.5, 0.25, 0.25), 4, 2),  # two improving rounds, then a stall
        ((1.0, 0.75, 0.75), 3, 1),  # improves by exactly the tolerance: go on
        ((1.0, 0.5, 0.6), 3, 1),  # a round that gets worse
    ],
    ids=["stall", "improves_by_tol", "worse"],
)
def test_plateau_rule_on_scripted_probe_mses(adv_mses, rounds, kept, tiny_scenario, monkeypatch):
    """The loop stops after the first round whose probe adversarial MSE
    improves on the round before by less than steady_state_rel_tol (strict),
    and keeps the round with the lowest one."""
    script = iter(adv_mses + (0.1,) * 8)  # the rounds after the stop would improve
    monkeypatch.setattr(defense, "attacked_mse", lambda *args: [0.5, next(script)])
    train_ds, _ = small_data(tiny_scenario, rows=100)
    cfg = DefenseConfig(epsilon=0.1, max_rounds=8, steady_state_rel_tol=0.25)
    model = numcore.fit(train_ds, FAST, np.random.default_rng(4))[0]

    _, history = adversarial_train(model, train_ds, FAST, cfg, np.random.default_rng(4))

    assert [rec.adv_mse for rec in history] == list(adv_mses)
    assert len(history) == rounds
    assert kept_round(history).round_index == kept


def test_adversarial_train_rejects_empty():
    class Empty:
        features = np.empty((0, 4))
        labels = np.empty(0)

    with pytest.raises(ValueError):
        adversarial_train(
            numcore.init_model(4, 0), Empty(), FAST, DefenseConfig(), np.random.default_rng(0)
        )


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
    assert attacked_mse(model, test.features, test.labels, grid) == [table[e] for e in grid]
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

    plain, _ = numcore.fit(train_ds, numcore.TrainConfig(), rng)

    defended, _ = adversarial_train(
        plain, train_ds, numcore.TrainConfig(), DefenseConfig(epsilon=0.1), np.random.default_rng(2)
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
    _, history = defend(
        train_ds, FAST, DefenseConfig(epsilon=0.1, max_rounds=2), np.random.default_rng(4)
    )
    path = tmp_path / "rounds.csv"
    rounds_to_csv([history], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "repetition,round,clean_mse,adv_mse,dataset_rows,kept"
    assert len(lines) == len(history) + 1


def test_round_history_csv_bytes_are_pinned(tmp_path):
    """`defend --history` writes one history as repetition 0; the MSEs print
    at 12 significant digits and exactly one round is kept."""
    history = [
        RoundRecord(0, 0.00123456789012345, 0.1, 240),
        RoundRecord(1, 1e-20, 123456789012345.0, 480),
        RoundRecord(2, 0.0, 2.0 / 3.0, 720),
    ]
    path = tmp_path / "rounds.csv"
    rounds_to_csv([history], path)
    assert path.read_bytes() == (
        b"repetition,round,clean_mse,adv_mse,dataset_rows,kept\n"
        b"0,0,0.00123456789012,0.1,240,1\n"
        b"0,1,1e-20,1.23456789012e+14,480,0\n"
        b"0,2,0,0.666666666667,720,0\n"
    )
