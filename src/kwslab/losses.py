"""Imbalance-aware objective: focal term plus a small pairwise ranking term."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nncore as nc
from .errors import ValidationError

PROB_EPS = 1e-7


@dataclass(frozen=True)
class LossConfig:
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    rank_weight: float = 0.1
    rank_pairs_per_batch: int = 64

    def __post_init__(self):
        if not 0 < self.focal_alpha < 1:
            raise ValidationError("focal_alpha must lie in (0, 1)")
        if not 0 <= self.focal_gamma < np.inf:
            raise ValidationError("focal_gamma must be >= 0 and finite")
        if not 0 <= self.rank_weight < np.inf:
            raise ValidationError("rank_weight must be >= 0 and finite")
        if self.rank_pairs_per_batch < 1:
            raise ValidationError("rank_pairs_per_batch must be >= 1")


def _const(value, dtype) -> nc.Tensor:
    return nc.Tensor(np.asarray(value, dtype=dtype))


def focal_loss(prob, labels, alpha: float = 0.25, gamma: float = 2.0) -> nc.Tensor:
    """Mean of -alpha_t * (1 - p_t)^gamma * log(p_t).

    p_t is the probability assigned to the true class (probabilities are
    clamped to [1e-7, 1 - 1e-7] first); alpha_t is alpha for positives and
    1 - alpha for negatives. gamma = 0 with alpha = 0.5 reduces to half the
    binary cross-entropy.
    """
    prob = nc.as_tensor(prob)
    dtype = prob.dtype
    y = np.asarray(labels, dtype=dtype)
    p = nc.clip(prob, PROB_EPS, 1.0 - PROB_EPS)
    one = _const(1.0, dtype)
    p_t = nc.add(nc.mul(_const(y, dtype), p), nc.mul(_const(1.0 - y, dtype), nc.sub(one, p)))
    alpha_t = _const(alpha * y + (1.0 - alpha) * (1.0 - y), dtype)
    weighted = nc.mul(alpha_t, nc.mul(nc.power(nc.sub(one, p_t), gamma), nc.log(p_t)))
    return nc.neg(nc.mean_all(weighted))


def pairwise_rank_loss(logits, labels, n_pairs: int, rng: np.random.Generator) -> nc.Tensor:
    """Mean logistic ranking loss log(1 + exp(-(z_pos - z_neg))) over sampled
    positive/negative pairs; zero when the batch lacks one of the classes.

    Pairs are drawn uniformly with replacement; pass a generator seeded per
    training step for reproducibility.
    """
    logits = nc.as_tensor(logits)
    labels = np.asarray(labels)
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if len(pos) == 0 or len(neg) == 0:
        return _const(0.0, logits.dtype)
    i = pos[rng.integers(0, len(pos), size=n_pairs)]
    j = neg[rng.integers(0, len(neg), size=n_pairs)]
    delta = nc.sub(nc.take(logits, i), nc.take(logits, j))
    return nc.mean_all(nc.softplus(nc.neg(delta)))


def total_loss(prob, logits, labels, config: LossConfig, rng: np.random.Generator):
    """focal + rank_weight * ranking; returns (loss tensor, parts dict)."""
    focal = focal_loss(prob, labels, config.focal_alpha, config.focal_gamma)
    rank = pairwise_rank_loss(logits, labels, config.rank_pairs_per_batch, rng)
    loss = nc.add(focal, nc.mul(_const(config.rank_weight, focal.dtype), rank))
    return loss, {"focal": focal.item(), "rank": rank.item(), "total": loss.item()}
