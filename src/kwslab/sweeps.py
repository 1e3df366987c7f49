"""Sweep orchestration for the experiment families: training-data scaling,
temporal offsets around the token onset, and keyword choice."""

from __future__ import annotations

import dataclasses
import math
import os
import warnings
from collections import Counter

import numpy as np

from . import metrics as mx
from .corpus import SplitAssignment, build_task_spec, select_splits
from .errors import InfeasibleSamplerError, InfeasibleTaskError, MissingKeywordError
from .reports import file_name
from .streams import stream
from .training import check_jitter, evaluate, prepare_task, scored_set_from_rows, train


# metrics every sweep cell aggregates over seeds; the keyword sweep adds more
_METRICS = ("auprc", "auroc")
_KEYWORD_METRICS = (*_METRICS, "accuracy", "best_f1", "pct_delta_over_base")


def seed_mean_se(values) -> tuple[float, float]:
    """Seed aggregate: mean and sample-SD / sqrt(n) standard error."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size <= 1:
        return float(arr.mean()), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def checkpoint_path(workdir: str, tag: str, seed: int) -> str:
    """Where the run tagged `tag` keeps seed `seed`'s best checkpoint."""
    return os.path.join(workdir, f"{tag}_seed{seed}.ckpt")


def train_seeds(config, task, workdir: str, tag: str):
    """Train one detector per entry of ``config.seeds``, in that order, sized
    to the task's channel count, into ``checkpoint_path(workdir, tag, seed)``
    (``train`` makes ``workdir`` once its inputs pass its checks); yields
    ``(seed, TrainReport)`` as each run finishes."""
    model_cfg = dataclasses.replace(config.model, in_channels=task.n_channels)
    for seed in config.seeds:
        train_cfg = dataclasses.replace(config.training, seed=seed)
        yield seed, train(model_cfg, config.loss, config.sampler, train_cfg, task,
                          checkpoint_path(workdir, tag, seed))


def run_cell(config, task, axis: dict, workdir: str, tag: str, metrics, per_seed=None):
    """Train and score one sweep cell for every seed, then aggregate.

    ``per_seed(record, scored)`` may return extra per-seed values that are
    merged into the seed's record. Every name in ``metrics`` gets a seed
    ``{name}_mean``/``{name}_se`` aggregate. Returns ``(cell, scoreds)``: the
    report cell and the test-partition scored sets in seed order.
    """
    records, scoreds = [], []
    for seed, report in train_seeds(config, task, workdir, tag):
        scored = scored_set_from_rows(evaluate(report.checkpoint_path, task, "test"))
        record = {"seed": seed, "auprc": mx.auprc(scored), "auroc": mx.auroc(scored),
                  "best_val_auprc": report.best_val_auprc,
                  "checkpoint": file_name(report.checkpoint_path)}
        if per_seed is not None:
            record.update(per_seed(record, scored))
        records.append(record)
        scoreds.append(scored)
    aggregate = {}
    for name in metrics:
        mean_se = seed_mean_se([r[name] for r in records])
        aggregate[f"{name}_mean"], aggregate[f"{name}_se"] = mean_se
    cell = {"axis": axis, "infeasible": False, "per_seed": records, "aggregate": aggregate}
    return cell, scoreds


def csv_rows(cells, fields) -> list[dict]:
    """The ``sweep.csv`` rows of a sweep's cells: for each feasible cell, its
    per-seed records, then a ``mean`` and an ``se`` row holding the cell's
    ``{field}_mean`` / ``{field}_se`` aggregate of each field that has one."""
    rows = []
    for cell in (c for c in cells if not c["infeasible"]):
        axis, agg = cell["axis"], cell["aggregate"]
        rows += [{**axis, **record} for record in cell["per_seed"]]
        for stat in ("mean", "se"):
            rows.append({**axis, "seed": stat,
                         **{f: agg[f"{f}_{stat}"] for f in fields if f"{f}_{stat}" in agg}})
    return rows


def _infeasible(axis: dict, note: str) -> dict:
    return {"axis": axis, "infeasible": True, "note": note}


def _sessions_for_split(sessions, split: SplitAssignment):
    wanted = set(split.all_sessions())
    return [s for s in sessions if s.session_id in wanted]


# ---------------------------------------------------------------------------
# scaling sweep
# ---------------------------------------------------------------------------


def subsample_train_sessions(train_ids, hours_by_id, fraction: float) -> list[str]:
    """Smallest session-id-ordered prefix whose unique hours reach
    fraction * total (always at least one session)."""
    ordered = sorted(train_ids)
    total = sum(hours_by_id[sid] for sid in ordered)
    target = fraction * total
    taken = []
    cum = 0.0
    for sid in ordered:
        taken.append(sid)
        cum += hours_by_id[sid]
        if cum >= target - 1e-12:
            break
    return taken


def run_scaling_sweep(config, sessions, default_split, fractions, workdir: str) -> dict:
    """Train/evaluate per (fraction, seed) with validation and test fixed;
    fit the slope of seed-mean AUPRC against log fraction."""
    bad = next((f for f in fractions if not 0 < f <= 1), None)
    if bad is not None:
        raise InfeasibleTaskError(f"fractions must lie in (0, 1], got {bad}")
    spec = build_task_spec(
        sessions, config.task.keywords, config.task.beta_neg_s, config.task.beta_pos_s
    )
    split = select_splits(sessions, spec, default_split)
    hours = {s.session_id: s.duration_s / 3600.0 for s in sessions if s.session_id in split.train}

    cells = []
    feasible_points = []
    for fraction in fractions:
        train_ids = subsample_train_sessions(split.train, hours, fraction)
        sub_split = SplitAssignment(
            train=train_ids, validation=split.validation, test=split.test
        )
        axis = {"fraction": fraction}
        task = prepare_task(_sessions_for_split(sessions, sub_split), sub_split, spec)
        try:
            cell, scoreds = run_cell(
                config, task, axis, workdir, f"scaling_f{fraction:g}", _METRICS
            )
        except InfeasibleSamplerError as exc:
            cells.append(_infeasible(axis, str(exc)))
            continue
        perm = mx.seed_mean_permutation_pvalues(
            scoreds,
            ("auprc",),
            n_draws=config.evaluation.permutation_draws,
            seed=config.evaluation.stat_seed,
        )["auprc"]
        cell["aggregate"].update(
            p_value=perm.p_value,
            unique_hours=sum(hours[sid] for sid in train_ids),
            n_train_sessions=len(train_ids),
            n_train_windows=len(task.partitions["train"]),
        )
        cells.append(cell)
        feasible_points.append((fraction, cell["aggregate"]["auprc_mean"]))

    slope = None
    if len(feasible_points) >= 2:
        xs = np.log([f for f, _ in feasible_points])
        ys = np.array([a for _, a in feasible_points])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return {
        "axis": "training_fraction",
        "cells": cells,
        "slope_auprc_vs_log_fraction": slope,
        "csv_fields": ["fraction", "seed", *_METRICS],
    }


# ---------------------------------------------------------------------------
# temporal-offset sweep
# ---------------------------------------------------------------------------


def _row_blocks(count: int, m: int):
    """Row counts of the blocks that draw `count` rows of m values, at most
    `mx._BLOCK_ELEMENTS` values (and at least one row) a block. A block
    draw gives the values of its rows drawn one call at a time."""
    rows = max(1, mx._BLOCK_ELEMENTS // m)
    return [min(rows, count - start) for start in range(0, count, rows)]


def _bootstrap_mean_ci(values, n_resamples=4000, seed=0):
    rng = stream(seed)
    arr = np.asarray(values, dtype=np.float64)
    means = np.concatenate([arr[rng.integers(0, arr.size, size=(rows, arr.size))].mean(axis=1)
                            for rows in _row_blocks(n_resamples, arr.size)])
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi), mx.se_from_ci(lo, hi)


def sign_flip_pvalue(deltas, n_draws=10000, seed=0) -> float:
    """One-sided randomization test: flip delta signs, count null means
    reaching the observed mean."""
    arr = np.asarray(deltas, dtype=np.float64)
    observed = arr.mean()
    rng = stream(seed)
    hits = 0
    for rows in _row_blocks(n_draws, arr.size):
        signs = rng.integers(0, 2, size=(rows, arr.size)) * 2 - 1
        hits += int(np.sum((arr * signs).mean(axis=1) >= observed))
    return (1.0 + hits) / (n_draws + 1.0)


def paired_offset_improvement(
    cell_seed_auprc: dict,
    baseline_cell=(0.0, 0.0),
    n_resamples: int = 4000,
    n_draws: int = 10000,
    seed: int = 0,
) -> dict:
    """Paired per-seed deltas of every non-baseline cell against the
    baseline cell, with a bootstrap CI, CI-derived SE, and a one-sided
    sign-flip p-value."""
    if baseline_cell not in cell_seed_auprc or len(cell_seed_auprc) < 2:
        return {"flagged": True, "note": "baseline-only grid: improvement undefined"}
    baseline = cell_seed_auprc[baseline_cell]
    deltas = []
    for cell, per_seed in sorted(cell_seed_auprc.items()):
        if cell == baseline_cell:
            continue
        for s, value in sorted(per_seed.items()):
            if s in baseline:
                deltas.append(value - baseline[s])
    if not deltas:
        return {"flagged": True, "note": "no paired seeds between cells and baseline"}
    lo, hi, se = _bootstrap_mean_ci(deltas, n_resamples=n_resamples, seed=seed)
    return {
        "flagged": False,
        "mean_delta": float(np.mean(deltas)),
        "se": se,
        "ci95": [lo, hi],
        "p_value": sign_flip_pvalue(deltas, n_draws=n_draws, seed=seed),
        "n_pairs": len(deltas),
    }


def run_offsets_sweep(config, sessions, default_split, neg_grid, pos_grid, workdir: str) -> dict:
    """Train/evaluate per (beta_neg, beta_pos) cell; report per-cell seed
    mean +- SE, the argmax cell, and the paired improvement over (0, 0)."""
    for flag, grid in (("--neg-grid", neg_grid), ("--pos-grid", pos_grid)):
        bad = next((v for v in grid if not 0 <= v < math.inf), None)
        if bad is not None:
            raise InfeasibleTaskError(f"{flag}: offsets must be >= 0 and finite seconds, got {bad}")
    split_spec = build_task_spec(sessions, config.task.keywords, 0.0, 0.0)
    split = select_splits(sessions, split_spec, default_split)

    grid = []  # every cell's window is checked before the first cell trains
    for neg in neg_grid:
        for pos in pos_grid:
            spec = build_task_spec(sessions, config.task.keywords, neg, pos)
            grid.append((neg, pos, prepare_task(sessions, split, spec)))
            check_jitter(config.sampler, grid[-1][2].n_window_samples)

    cells = []
    cell_seed_auprc = {}
    for neg, pos, task in grid:
        cell, _ = run_cell(
            config, task, {"beta_neg_s": neg, "beta_pos_s": pos}, workdir,
            f"offsets_n{neg:g}_p{pos:g}", _METRICS,
        )
        cell["aggregate"]["window_s"] = task.spec.window_s
        cell_seed_auprc[(neg, pos)] = {r["seed"]: r["auprc"] for r in cell["per_seed"]}
        cells.append(cell)

    best = max(cells, key=lambda c: c["aggregate"]["auprc_mean"])
    paired = paired_offset_improvement(
        cell_seed_auprc,
        baseline_cell=(0.0, 0.0),
        n_resamples=config.evaluation.bootstrap_resamples,
        n_draws=config.evaluation.permutation_draws,
        seed=config.evaluation.stat_seed,
    )
    return {
        "axis": "temporal_offsets",
        "cells": cells,
        "argmax_cell": best["axis"],
        "paired_improvement": paired,
        "csv_fields": ["beta_neg_s", "beta_pos_s", "seed", *_METRICS],
    }


# ---------------------------------------------------------------------------
# keyword sweep
# ---------------------------------------------------------------------------


def corpus_token_counts(sessions) -> Counter:
    return Counter(ev.word for session in sessions for ev in session.word_events())


def auto_keywords_by_length(sessions) -> list[str]:
    """Most frequent word at each character length, ordered by length."""
    counts = corpus_token_counts(sessions)
    best_per_length = {}
    for word, count in sorted(counts.items()):
        length = len(word)
        incumbent = best_per_length.get(length)
        if incumbent is None or count > counts[incumbent]:
            best_per_length[length] = word
    return [best_per_length[length] for length in sorted(best_per_length)]


def lexicon_length_frequency_spearman(sessions) -> tuple[float, float]:
    """Spearman correlation of word length (chars) vs log token frequency
    over the corpus vocabulary."""
    counts = corpus_token_counts(sessions)
    words = sorted(counts)
    lengths = [len(w) for w in words]
    log_freq = [math.log(counts[w]) for w in words]
    return mx.spearman_rank_corr(lengths, log_freq)


def best_f1_over_thresholds(scored) -> float:
    curve = mx.pr_curve(scored)
    both = curve.precision + curve.recall
    ok = both > 0
    return float(np.max(2 * curve.precision[ok] * curve.recall[ok] / both[ok], initial=0.0))


def _skipped_keyword(axis: dict, exc: Exception) -> dict:
    warnings.warn(f"keyword {axis['keyword']!r} skipped: {exc}")
    return _infeasible(axis, str(exc))


def run_keywords_sweep(config, sessions, default_split, keywords, workdir: str) -> dict:
    """Per-keyword training/evaluation roster: base rate, AUPRC, AUROC,
    accuracy at tau, best F1 across thresholds, and %dAUPRC over the base
    rate (computed per seed, then averaged)."""
    if keywords is None:
        keywords = auto_keywords_by_length(sessions)
    tau = config.evaluation.tau

    def keyword_metrics(record, scored):
        return {
            "accuracy": mx.thresholded_metrics(scored, tau).accuracy,
            "best_f1": best_f1_over_thresholds(scored),
            "pct_delta_over_base": mx.pct_over_baseline(record["auprc"], scored.base_rate),
            "base_rate": scored.base_rate,
        }

    cells = []
    for keyword in keywords:
        axis = {"keyword": keyword}
        try:
            spec = build_task_spec(
                sessions, {keyword}, config.task.beta_neg_s, config.task.beta_pos_s
            )
            split = select_splits(sessions, spec, default_split)
        except (MissingKeywordError, InfeasibleTaskError) as exc:
            cells.append(_skipped_keyword(axis, exc))
            continue
        task = prepare_task(sessions, split, spec)
        try:
            cell, _ = run_cell(
                config, task, axis, workdir, f"keyword_{keyword}", _KEYWORD_METRICS,
                per_seed=keyword_metrics,
            )
        except InfeasibleSamplerError as exc:
            cells.append(_skipped_keyword(axis, exc))
            continue
        cell["aggregate"]["base_rate"] = cell["per_seed"][0]["base_rate"]
        cells.append(cell)

    spearman_r, spearman_p = lexicon_length_frequency_spearman(sessions)
    return {
        "axis": "keyword",
        "cells": cells,
        "length_log_frequency_spearman": {"r": spearman_r, "p": spearman_p},
        "csv_fields": ["keyword", "seed", *_KEYWORD_METRICS],
    }
