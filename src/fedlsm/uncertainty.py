"""Entropy scoring and the confident/medium/uncertain dataset split.

Every sample is scored with the current global model.  The lowest-entropy
fraction becomes the confident subset, the highest-entropy fraction the
uncertain subset, and the remainder sits in the middle.  Ties are broken
by ascending sample index so the split is identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .data import check_task
from .errors import ConfigError


@dataclass
class UncertaintyPartition:
    low: np.ndarray    # confident sample indices, entropy ascending
    mid: np.ndarray
    high: np.ndarray   # uncertain sample indices, entropy ascending
    entropy: np.ndarray  # per-sample scores, original dataset order


def entropy_single(probs: np.ndarray) -> float:
    """Shannon entropy -sum(p ln p) of one distribution, with 0 ln 0 = 0."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1:
        raise ConfigError(f"expected a probability vector, got shape {probs.shape}")
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-6:
        raise ConfigError("invalid probability distribution")
    return float(_entropy_rows(probs))


def entropy_multi(probs: np.ndarray, unknown) -> float:
    """Mean binary entropy over the unknown classes, normalized to [0, 1]."""
    unknown = list(unknown)
    if not unknown:
        raise ConfigError("unknown class set must be nonempty")
    p = np.asarray(probs, dtype=np.float64)[unknown]
    if np.any(p < 0) or np.any(p > 1):
        raise ConfigError("per-class probabilities must lie in [0, 1]")
    return float(_binary_entropy_rows(p))


def _entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy along the last axis, with 0 ln 0 = 0."""
    terms = np.where(probs > 0, probs * np.log(np.where(probs > 0, probs, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def _binary_entropy_rows(p: np.ndarray) -> np.ndarray:
    """Mean binary entropy along the last axis over ln 2; 0 at p in {0, 1}."""
    inside = (p > 0.0) & (p < 1.0)
    q = np.where(inside, p, 0.5)
    h = np.where(inside, -q * np.log(q) - (1.0 - q) * np.log(1.0 - q), 0.0)
    return h.mean(axis=-1) / np.log(2.0)


def score_dataset(xs: np.ndarray, params: nn.ModelParams, task: str,
                  unknown) -> np.ndarray:
    """Per-row entropy of the (n, d) inputs under the given model.

    Multi-label rows of a client with no unknown class all score 0, so
    the split falls back to index order.
    """
    check_task(task)
    logits = nn.forward(params, xs).logits
    if task == "single":
        return _entropy_rows(nn.softmax(logits))
    unknown = list(unknown)
    if not unknown:
        return np.zeros(len(xs))
    # Column selection yields a column-major copy; row means over it would
    # be summed in a different order than one row at a time.
    return _binary_entropy_rows(
        np.ascontiguousarray(nn.sigmoid(logits)[:, unknown]))


def partition(xs: np.ndarray, global_params: nn.ModelParams, task: str,
              unknown, frac_l: float, frac_h: float) -> UncertaintyPartition:
    """Split the (n, d) inputs into confident / medium / uncertain row sets.

    Sizes are round(frac_l * n) and round(frac_h * n); the uncertain count
    is clamped so both never overlap after rounding.
    """
    if frac_l < 0 or frac_h < 0 or frac_l + frac_h > 1.0:
        raise ConfigError(
            f"need frac_l + frac_h <= 1, got {frac_l} + {frac_h}")
    if len(xs) == 0:
        raise ConfigError("cannot partition an empty dataset")
    scores = score_dataset(xs, global_params, task, unknown)
    n = len(xs)
    n_l = int(round(frac_l * n))
    n_h = min(int(round(frac_h * n)), n - n_l)
    order = np.argsort(scores, kind="stable")  # ties keep ascending index
    return UncertaintyPartition(
        low=order[:n_l].copy(),
        mid=order[n_l:n - n_h].copy(),
        high=order[n - n_h:].copy(),
        entropy=scores,
    )
