"""White-box FGSM attacks under an l-infinity perturbation budget."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore


@dataclass(frozen=True)
class AttackConfig:
    epsilon: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


def attack_dataset(model: numcore.MlpModel, data, cfg: AttackConfig) -> np.ndarray:
    """Row-wise FGSM against each row's own label; returns the perturbed matrix.

    Each row moves by epsilon * sign(grad of its squared error), with
    sign(0) = 0 and gradients taken without dropout.
    """
    X = np.asarray(data.features, dtype=np.float64)
    y = np.asarray(data.labels, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(f"feature matrix must have shape (B, {model.input_dim})")
    grads = numcore.input_gradients(model, X, y)
    return X + cfg.epsilon * np.sign(grads)
