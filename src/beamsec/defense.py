"""Iterative adversarial training."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import numcore
from .attack import AttackConfig, attack_dataset


@dataclass(frozen=True)
class DefenseConfig:
    epsilon: float = 0.1
    max_rounds: int = 10
    steady_state_rel_tol: float = 0.01

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("defense epsilon must be positive")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.steady_state_rel_tol <= 0:
            raise ValueError("steady_state_rel_tol must be positive")


@dataclass(frozen=True)
class RoundRecord:
    """Metrics after one training round, measured on the fixed plateau subset."""

    round_index: int
    clean_mse: float
    adv_mse: float
    dataset_rows: int


@dataclass
class _Pool:
    features: np.ndarray
    labels: np.ndarray


def _subset_metrics(model, X, y, atk):
    clean = numcore.mse_loss(numcore.predict(model, X), y)
    x_adv = attack_dataset(model, _Pool(X, y), atk)
    adv = numcore.mse_loss(numcore.predict(model, x_adv), y)
    return clean, adv


def adversarial_train(
    model: numcore.MlpModel,
    base,
    train_cfg: numcore.TrainConfig,
    def_cfg: DefenseConfig,
    rng,
) -> Tuple[numcore.MlpModel, List[RoundRecord]]:
    """FGSM-augmented fine-tuning rounds on top of a clean model.

    Round 0 is `model`, already trained on the clean rows of `base`; it is
    copied, never modified. Each later round generates fresh FGSM examples
    against the current model for every base row, in a freshly shuffled
    order, appends them to the growing pool (clean rows are kept), and
    fine-tunes the current weights. Rounds stop at max_rounds or when the
    adversarial MSE on a fixed 10% subset of the base rows (the probe)
    improves by less than steady_state_rel_tol relative.

    Returns the model from the round with the lowest probe adversarial MSE
    (kept_round: ties go to the earliest round; round 0 counts), so the round
    that stopped the loop is returned only when it is the best one. The
    history lists every round that ran, including the one that stopped the
    loop.
    """
    X = np.asarray(base.features, dtype=np.float64)
    y = np.asarray(base.labels, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("base dataset must be a nonempty (n, d) matrix")
    n = X.shape[0]
    model = numcore.copy_model(model)

    atk = AttackConfig(epsilon=def_cfg.epsilon)
    probe = rng.permutation(n)[: max(1, math.ceil(0.1 * n))]
    clean0, adv0 = _subset_metrics(model, X[probe], y[probe], atk)
    history = [RoundRecord(0, clean0, adv0, n)]
    snapshots = [numcore.copy_model(model)]

    pool_X, pool_y = [X], [y]
    rows = n
    prev_adv = adv0
    for round_index in range(1, def_cfg.max_rounds):
        pick = rng.permutation(n)
        x_adv = attack_dataset(model, _Pool(X[pick], y[pick]), atk)
        pool_X.append(x_adv)
        pool_y.append(y[pick])
        rows += n
        pool = _Pool(np.concatenate(pool_X), np.concatenate(pool_y))
        model, _ = numcore.train(model, pool, train_cfg, rng)
        clean, adv = _subset_metrics(model, X[probe], y[probe], atk)
        history.append(RoundRecord(round_index, clean, adv, rows))
        snapshots.append(numcore.copy_model(model))
        improvement = (prev_adv - adv) / prev_adv if prev_adv > 0 else 0.0
        if improvement < def_cfg.steady_state_rel_tol:
            break
        prev_adv = adv
    return snapshots[kept_round(history).round_index], history


def kept_round(history: Sequence[RoundRecord]) -> RoundRecord:
    """The round whose model adversarial_train returns: lowest probe
    adversarial MSE, earliest on ties."""
    return min(history, key=lambda rec: rec.adv_mse)


def round_history_to_csv(history: Sequence[RoundRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round,clean_mse,adv_mse,dataset_rows\n")
        for rec in history:
            fh.write(
                f"{rec.round_index},{rec.clean_mse:.12g},{rec.adv_mse:.12g},{rec.dataset_rows}\n"
            )
