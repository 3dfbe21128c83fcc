"""Iterative adversarial training."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import numcore
from .attack import AttackConfig, attack_dataset, attacked_mse
from .config import check_integers


@dataclass(frozen=True)
class DefenseConfig:
    epsilon: float = 0.1
    max_rounds: int = 10
    steady_state_rel_tol: float = 0.01

    def __post_init__(self):
        check_integers(self)
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"defense epsilon must be finite and positive, got {self.epsilon!r}")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        tol = self.steady_state_rel_tol
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"steady_state_rel_tol must be finite and positive, got {tol!r}")


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
    that stopped the loop is returned only when it is the best one. A round's
    model is copied only when that round is the kept one so far, and the
    last such copy is returned. The history lists every round that ran,
    including the one that stopped the loop.
    """
    X = np.asarray(base.features, dtype=np.float64)
    y = np.asarray(base.labels, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("base dataset must be a nonempty (n, d) matrix")
    n = X.shape[0]
    model = numcore.MlpModel(model.spec, model.params)

    atk = AttackConfig(epsilon=def_cfg.epsilon)
    probe = rng.permutation(n)[: max(1, math.ceil(0.1 * n))]
    pool_x, pool_y, history = X, y, []
    for round_index in range(def_cfg.max_rounds):
        if round_index > 0:
            pick = rng.permutation(n)
            pool_x = np.concatenate([pool_x, attack_dataset(model, _Pool(X[pick], y[pick]), atk)])
            pool_y = np.concatenate([pool_y, y[pick]])
            model, _ = numcore.train(model, _Pool(pool_x, pool_y), train_cfg, rng)
        clean, adv = attacked_mse(model, X[probe], y[probe], (0.0, atk.epsilon))
        history.append(RoundRecord(round_index, clean, adv, pool_y.shape[0]))
        if kept_round(history) is history[-1]:
            kept = numcore.MlpModel(model.spec, model.params)
        if round_index > 0:
            prev_adv = history[-2].adv_mse
            improvement = (prev_adv - adv) / prev_adv if prev_adv > 0 else 0.0
            if improvement < def_cfg.steady_state_rel_tol:
                break
    return kept, history


def kept_round(history: Sequence[RoundRecord]) -> RoundRecord:
    """The round whose model adversarial_train returns: lowest probe
    adversarial MSE, earliest on ties."""
    return min(history, key=lambda rec: rec.adv_mse)

