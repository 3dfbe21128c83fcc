"""White-box FGSM attacks under an l-infinity perturbation budget."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from . import numcore


@dataclass(frozen=True)
class AttackConfig:
    epsilon: float

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be a finite number >= 0, got {self.epsilon!r}")


def attack_dataset(model: numcore.MlpModel, data, cfg: AttackConfig) -> np.ndarray:
    """Row-wise FGSM against each row's own label; returns the perturbed matrix.

    Each row moves by epsilon * sign(grad of its squared error), with
    sign(0) = 0 and gradients taken without dropout.
    """
    X = np.asarray(data.features, dtype=np.float64)
    return X + cfg.epsilon * np.sign(numcore.input_gradients(model, X, data.labels))


def attacked_mse(model: numcore.MlpModel, X, y, epsilons: Sequence[float]) -> List[float]:
    """The MSE of `model` on (X, y) under attack_dataset at each budget, from
    one gradient pass: the sign of the gradient does not depend on the
    budget. At budget 0 no row moves, so that entry is the clean MSE."""
    budgets = [AttackConfig(epsilon=float(eps)).epsilon for eps in epsilons]
    X = np.asarray(X, dtype=np.float64)
    signs = np.sign(numcore.input_gradients(model, X, y))
    return [numcore.mse_loss(numcore.predict(model, X + eps * signs), y) for eps in budgets]
