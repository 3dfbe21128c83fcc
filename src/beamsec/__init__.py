"""Beam-rate prediction under FGSM attacks, with adversarial-training defense."""

__version__ = "0.1.0"
