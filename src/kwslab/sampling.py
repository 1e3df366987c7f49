"""Class-balanced batch construction and training-time window augmentation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import round_half_up
from .errors import InfeasibleSamplerError, ValidationError
from .streams import stream


@dataclass(frozen=True)
class SamplerConfig:
    positive_fraction: float = 0.5
    jitter_samples: int = 10
    noise_std_fraction: float = 0.1
    batch_size: int = 32

    def __post_init__(self):
        if not 0 < self.positive_fraction < 1:
            raise ValidationError("positive_fraction must lie in (0, 1)")
        if self.batch_size < 2:
            raise ValidationError("batch_size must be >= 2")
        if round_half_up(self.positive_fraction * self.batch_size) < 1:
            raise ValidationError("positive_fraction * batch_size must be >= 1")
        if self.jitter_samples < 0 or not 0 <= self.noise_std_fraction < math.inf:
            raise ValidationError("jitter and noise settings must be >= 0 and finite")


class BalancedBatchSampler:
    """Oversamples positives to a fixed per-batch count; negatives pass
    without replacement, reshuffling only when the pool runs dry.

    One epoch is defined as one pass over the negative pool
    (``batches_per_epoch`` batches). The emitted index sequence is a pure
    function of the seed.
    """

    def __init__(self, labels, config: SamplerConfig, seed: int):
        labels = np.asarray(labels)
        self.positives = np.flatnonzero(labels == 1)
        self.negatives = np.flatnonzero(labels == 0)
        if len(self.positives) == 0 or len(self.negatives) == 0:
            raise InfeasibleSamplerError(
                f"need both classes to balance batches; got {len(self.positives)} "
                f"positives and {len(self.negatives)} negatives"
            )
        self.n_pos_per_batch = round_half_up(config.positive_fraction * config.batch_size)
        self.n_neg_per_batch = config.batch_size - self.n_pos_per_batch
        if self.n_neg_per_batch < 1:
            raise InfeasibleSamplerError("batch has no negative slots")
        self.batches_per_epoch = math.ceil(len(self.negatives) / self.n_neg_per_batch)
        self._rng = stream(seed)
        self._neg_order = self._rng.permutation(self.negatives)
        self._cursor = 0

    def _next_negatives(self) -> np.ndarray:
        out = []
        need = self.n_neg_per_batch
        while need:
            if self._cursor == len(self._neg_order):
                self._neg_order = self._rng.permutation(self.negatives)
                self._cursor = 0
            chunk = self._neg_order[self._cursor : self._cursor + need]
            out.append(chunk)
            self._cursor += len(chunk)
            need -= len(chunk)
        return np.concatenate(out)

    def next_batch(self) -> np.ndarray:
        """Indices of the next batch: oversampled positives, then negatives."""
        pos = self.positives[
            self._rng.integers(0, len(self.positives), size=self.n_pos_per_batch)
        ]
        return np.concatenate([pos, self._next_negatives()])

    def epoch(self):
        for _ in range(self.batches_per_epoch):
            yield self.next_batch()


def standard_normal(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill the C-contiguous float32 `out` with standard normals by
    Box–Muller from one draw of 2 * ceil(n / 2) float32 uniforms, u1 then u2
    halves: r = sqrt(-2 ln(1 - u1)) and theta = 2 pi u2 give r cos(theta),
    then r sin(theta), in C order. 1 - u1 lies in (0, 1], so the log is finite, and
    uniforms on a 2^-24 grid bound |z| by sqrt(-2 ln 2^-24) < 5.78."""
    flat = out.reshape(-1)
    n = flat.size
    m = -(-n // 2)
    u = rng.random(2 * m, dtype=np.float32)
    r, theta = u[:m], u[m:]
    np.subtract(np.float32(1), r, out=r)
    np.log(r, out=r)
    r *= np.float32(-2)
    np.sqrt(r, out=r)
    theta *= np.float32(2 * np.pi)
    np.cos(theta, out=flat[:m])
    flat[:m] *= r
    k = n - m
    np.sin(theta[:k], out=theta[:k])
    np.multiply(theta[:k], r[:k], out=flat[m:])


def augment_window(signals, starts, jitter_samples: int, rng: np.random.Generator,
                   out: np.ndarray, noise_out: np.ndarray | None = None) -> None:
    """Training-time augmentation of one batch of raw windows: row i of the
    (B, C, T) `out` is copied from the (C, samples) `signals[i]` at `starts[i]`
    shifted by a draw in [-jitter, +jitter] (all B drawn in one call; zero
    shift at session edges). Given `noise_out`, it is then filled by
    `standard_normal`. The caller z-scores the batch and adds the
    channel-scaled noise; jitter = 0 with no `noise_out` is a plain copy."""
    n_samples = out.shape[-1]
    shifts = (rng.integers(-jitter_samples, jitter_samples + 1, size=len(starts))
              if jitter_samples > 0 else [0] * len(starts))
    for row, (signal, start, shift) in enumerate(zip(signals, starts, shifts)):
        moved = start + shift
        if moved < 0 or moved + n_samples > signal.shape[1]:
            moved = start
        out[row] = signal[:, moved : moved + n_samples]
    if noise_out is not None:
        standard_normal(rng, noise_out)
