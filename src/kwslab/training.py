"""Training loop with validation-AUPRC checkpoint selection, deterministic
given the config seed, plus checkpoint evaluation and the scores-file format."""

from __future__ import annotations

import csv
import math
import os
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import metrics as mx
from . import nncore as nc
from .corpus import DropTally, WindowRef, fit_normalizer, index_windows
from .errors import (
    CheckpointError,
    ConfigError,
    InfeasibleTaskError,
    TrainingDivergedError,
    ValidationError,
)
from .fileio import atomic_open
from .losses import LossConfig, total_loss
from .model import DetectorModel, ModelConfig
from .sampling import BalancedBatchSampler, SamplerConfig, augment_window
from .streams import AUGMENT, RANK, SAMPLER, stream

IMPROVEMENT_EPS = 1e-6
# each row's eval forward is its own GEMMs, so scores do not depend on the batch
# size; at 64 windows the stem's buffers outgrow a 2 MiB L2 and scoring is slower
SCORE_BATCH_SIZE = 32


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 30
    patience: int = 5
    lr: float = 1e-3
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValidationError("max_epochs must be >= 1")
        if not 0 <= self.patience <= self.max_epochs:
            raise ValidationError("patience must lie in [0, max_epochs]")
        if not 0 < self.lr < np.inf:
            raise ValidationError(f"lr must be > 0 and finite, got {self.lr}")
        if not 0 <= self.weight_decay < np.inf:
            raise ValidationError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if self.lr * self.weight_decay >= 1:  # AdamW scales each weight by 1 - lr * weight_decay
            raise ValidationError(f"lr * weight_decay must be < 1, got lr {self.lr} and "
                                  f"weight_decay {self.weight_decay}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EvalRecord:
    epoch: float
    train_loss: float
    val_auprc: float
    val_auroc: float


@dataclass
class TrainReport:
    records: list[EvalRecord]
    best_epoch: float
    best_val_auprc: float
    checkpoint_path: str
    wall_clock_s: float

    def deterministic_view(self) -> dict:
        """Report content minus the inherently non-reproducible wall clock."""
        out = asdict(self)
        out.pop("wall_clock_s")
        return out


# ---------------------------------------------------------------------------
# task data: the loaded signals + lazy window references per partition
# ---------------------------------------------------------------------------


@dataclass
class TaskData:
    """The sessions' own float32 signal arrays (shared, never written), the
    train-partition normalizer and each partition's window references. A
    batch is z-scored as it is stacked, so the corpus is held once."""

    spec: object
    split: object
    normalizer: object
    n_channels: int
    n_window_samples: int
    signals: dict[str, np.ndarray]
    partitions: dict[str, list[WindowRef]]
    drop_tallies: dict[str, DropTally] = field(default_factory=dict)

    def labels(self, partition: str) -> np.ndarray:
        return np.array([r.label for r in self.partitions[partition]], dtype=np.int64)

    def window(self, ref: WindowRef) -> np.ndarray:
        return self.signals[ref.session_id][:, ref.start : ref.start + self.n_window_samples]

    def stack(self, refs) -> np.ndarray:
        """The z-scored windows of `refs` as one float32 (batch, channels,
        samples) array: raw windows copied in, then z-scored in place."""
        out = np.empty((len(refs), self.n_channels, self.n_window_samples), dtype=np.float32)
        for i, ref in enumerate(refs):
            out[i] = self.window(ref)
        return self.normalizer.zscore(out)


def prepare_task(sessions, split, spec) -> TaskData:
    """Check that every session has the first one's channel count and sample
    rate, fit the train-partition normalizer, and index the in-bounds windows
    of each partition (ordered by session, then token). The task keeps each
    session's signal array itself, not a copy."""
    by_id = {s.session_id: s for s in sessions}
    split.validate(by_id.keys())
    first = sessions[0]
    n_channels, fs = first.channel_config.n_channels, first.channel_config.sample_rate_hz
    other = next((s for s in sessions if s.channel_config.n_channels != n_channels), None)
    if other is not None:
        raise ValidationError(f"session {other.session_id} has {other.channel_config.n_channels} "
                              f"channels and session {first.session_id} {n_channels}: all "
                              "sessions of a task must share one channel count")
    if any(s.channel_config.sample_rate_hz != fs for s in sessions):
        raise ValidationError("all sessions of a task must share one sample rate")
    normalizer = fit_normalizer([by_id[sid] for sid in split.train])
    n = spec.n_window_samples(fs)

    partition_of = split.partition_of()

    partitions = {"train": [], "validation": [], "test": []}
    tallies = {}
    for sid in sorted(by_id):
        refs, tallies[sid] = index_windows(by_id[sid], spec)
        partitions[partition_of[sid]].extend(refs)

    return TaskData(
        spec=spec,
        split=split,
        normalizer=normalizer,
        n_channels=n_channels,
        n_window_samples=n,
        signals={sid: s.signal for sid, s in by_id.items()},
        partitions=partitions,
        drop_tallies=tallies,
    )


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _augmented_batch(task: TaskData, refs, config: SamplerConfig, rng) -> np.ndarray:
    """The z-scored, augmented training batch of `refs`, drawn from `rng` by one
    `augment_window` call (every row's jitter, then the batch's noise). The
    noise is added after the z-score, at `noise_std_fraction` of the z-scored
    windows' unit std on every channel but the floored (constant) ones, which
    get none; with noise off nothing is added (a z-scored -0.0 stays)."""
    batch = np.empty((len(refs), task.n_channels, task.n_window_samples), dtype=np.float32)
    noisy = config.noise_std_fraction > 0
    noise = np.empty_like(batch) if noisy else None
    augment_window([task.signals[ref.session_id] for ref in refs], [ref.start for ref in refs],
                   config.jitter_samples, rng, batch, noise)
    task.normalizer.zscore(batch)
    if noisy:
        noise *= task.normalizer.noise_scale(config.noise_std_fraction, task.n_window_samples)
        batch += noise
    return batch


def check_jitter(config: SamplerConfig, n_window_samples: int):
    """A jitter of a whole window can move a window off the token that labels
    it (and a shift past its session's edge is silently not applied)."""
    if config.jitter_samples >= n_window_samples:
        raise ConfigError(f"sampler.jitter_samples is {config.jitter_samples}, must be "
                          f"below the window length of {n_window_samples} samples")


def score_partition(model: DetectorModel, task: TaskData, partition: str,
                    batch_size: int = SCORE_BATCH_SIZE) -> np.ndarray:
    """Eval-mode probabilities in corpus order (no augmentation)."""
    refs = task.partitions[partition]
    scores = np.empty(len(refs), dtype=np.float64)
    with nc.no_grad():
        for lo in range(0, len(refs), batch_size):
            chunk = refs[lo : lo + batch_size]
            result = model.forward(task.stack(chunk), training=False)
            scores[lo : lo + len(chunk)] = result.prob.values.astype(np.float64)
    return scores


def train(
    model_config: ModelConfig,
    loss_config: LossConfig,
    sampler_config: SamplerConfig,
    train_config: TrainConfig,
    task: TaskData,
    checkpoint_path: str,
) -> TrainReport:
    """Run balanced-batch epochs, keep the checkpoint with the best
    validation AUPRC, stop early after `patience` epochs without
    improvement > 1e-6. A non-finite step loss or validation score raises
    TrainingDivergedError. All randomness descends from train_config.seed
    through independent substreams (init / data order / augmentation /
    ranking pairs)."""
    t0 = time.perf_counter()
    if model_config.in_channels != task.n_channels:
        raise ConfigError(f"model.in_channels is {model_config.in_channels}, corpus has "
                          f"{task.n_channels} channels")
    check_jitter(sampler_config, task.n_window_samples)
    val_labels = task.labels("validation")
    if val_labels.sum() < 1:
        raise InfeasibleTaskError("validation partition has no positive examples")
    seed = train_config.seed
    sampler_seed = int(np.random.SeedSequence((seed, SAMPLER)).generate_state(1)[0])
    train_refs = task.partitions["train"]
    train_labels = task.labels("train")
    sampler = BalancedBatchSampler(train_labels, sampler_config, sampler_seed)
    os.makedirs(os.path.dirname(checkpoint_path) or os.curdir, exist_ok=True)

    model = DetectorModel.initialize(model_config, seed=seed)
    optimizer = nc.AdamW(
        model.params, lr=train_config.lr, weight_decay=train_config.weight_decay
    )

    records: list[EvalRecord] = []
    best_auprc = -np.inf
    best_epoch = -1.0
    epochs_since_improvement = 0
    global_step = 0

    for epoch in range(1, train_config.max_epochs + 1):
        losses = []
        for batch_idx in sampler.epoch():
            batch = _augmented_batch(task, [train_refs[i] for i in batch_idx], sampler_config,
                                     stream(seed, AUGMENT, global_step))
            result = model.forward(batch, training=True)
            loss, parts = total_loss(result.prob, result.logit, train_labels[batch_idx],
                                     loss_config, stream(seed, RANK, global_step))
            if not np.isfinite(parts["total"]):
                raise TrainingDivergedError(
                    "non-finite training loss",
                    record={"epoch": epoch, "step": global_step, "loss_parts": parts},
                )
            nc.backward(loss)
            optimizer.step()
            optimizer.zero_grad()
            losses.append(parts["total"])
            global_step += 1

        val_scores = score_partition(model, task, "validation")
        if not np.all(np.isfinite(val_scores)):
            raise TrainingDivergedError("non-finite validation scores", record={"epoch": epoch})
        scored = mx.ScoredSet(val_scores, val_labels)
        val_auprc = mx.auprc(scored)
        records.append(EvalRecord(float(epoch), float(np.mean(losses)), val_auprc,
                                  mx.auroc(scored)))
        if val_auprc > best_auprc + IMPROVEMENT_EPS:
            best_auprc = val_auprc
            best_epoch = float(epoch)
            model.save(checkpoint_path)
            epochs_since_improvement = 0
        else:
            epochs_since_improvement += 1
        if train_config.patience and epochs_since_improvement >= train_config.patience:
            break

    return TrainReport(
        records=records,
        best_epoch=best_epoch,
        best_val_auprc=best_auprc,
        checkpoint_path=checkpoint_path,
        wall_clock_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# evaluation + scores file
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScoreRow:
    session_id: str
    token_index: int
    label: int
    score: float


def evaluate(checkpoint_path: str, task: TaskData, partition: str,
             batch_size: int = SCORE_BATCH_SIZE) -> list[ScoreRow]:
    """Deterministic eval-mode scores for a partition, in corpus order."""
    model = DetectorModel.load(checkpoint_path)
    if model.config.in_channels != task.n_channels:
        raise CheckpointError(
            f"checkpoint expects {model.config.in_channels} channels, corpus has "
            f"{task.n_channels}"
        )
    refs = task.partitions[partition]
    if not refs:
        warnings.warn(f"partition {partition!r} is empty; returning no scores")
        return []
    scores = score_partition(model, task, partition, batch_size=batch_size)
    return [
        ScoreRow(r.session_id, r.token_index, r.label, float(s))
        for r, s in zip(refs, scores)
    ]


SCORES_HEADER = ["session_id", "token_index", "label", "score"]


def write_scores_csv(rows, path: str):
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORES_HEADER)
        for row in rows:
            writer.writerow([row.session_id, row.token_index, row.label, repr(row.score)])


def read_scores_csv(path: str) -> list[ScoreRow]:
    """Parse a scores file written by write_scores_csv; a bad header, a
    missing or malformed field, a label outside {0, 1} or a non-finite score
    raises ValidationError naming the line, and a file that is not UTF-8 one naming it."""
    rows = []
    try:  # around the whole read: the decoder raises wherever the bad byte is
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != SCORES_HEADER:
                raise ValidationError(
                    f"{path}: line 1: header must be {','.join(SCORES_HEADER)}, got {header}"
                )
            for rec in reader:
                if not rec:
                    continue
                try:
                    session_id, token_index, label, score = rec
                    row = ScoreRow(session_id, int(token_index), int(label), float(score))
                except ValueError:
                    raise ValidationError(
                        f"{path}: line {reader.line_num}: expected "
                        f"{','.join(SCORES_HEADER)} fields, got {rec}"
                    ) from None
                if not session_id or row.label not in (0, 1) or not math.isfinite(row.score):
                    raise ValidationError(
                        f"{path}: line {reader.line_num}: needs a session id, a 0/1 "
                        f"label and a finite score, got {rec}"
                    )
                rows.append(row)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None
    return rows


def scored_set_from_rows(rows) -> "mx.ScoredSet":
    return mx.ScoredSet(
        scores=np.array([r.score for r in rows], dtype=np.float64),
        labels=np.array([r.label for r in rows], dtype=np.int64),
    )
