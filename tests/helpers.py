"""Shared test utilities: finite-difference gradient checking with
kink-stencil detection, brute-force metric oracles, the per-draw resampling
reference the block engine is tested against, the loop-based operating-point
selection the array version is tested against, and small helpers only the
tests use."""

from __future__ import annotations

import csv
from contextlib import contextmanager

import numpy as np

import kwslab.metrics as mx
import kwslab.nncore as nc
from kwslab.errors import UndefinedMetricError, UndefinedOperatingPointError
from kwslab.fixtures import load_reference_tables
from kwslab.losses import total_loss
from kwslab.model import ModelConfig, parameter_shapes
from kwslab.operate import _as_operating_point


@contextmanager
def nonsmooth_signature(store: list):
    """Record the relu masks and clip pass-through masks of every forward
    executed inside the context. Two evaluations whose signatures differ had
    a kink inside the perturbation stencil, where finite differences do not
    estimate the (one-sided) derivative."""
    orig_relu, orig_clip = nc.relu, nc.clip

    def relu_spy(t):
        store.append(np.array(nc.as_tensor(t).values > 0))
        return orig_relu(t)

    def clip_spy(t, lo, hi):
        v = nc.as_tensor(t).values
        store.append(np.array((v > lo) & (v < hi)))
        return orig_clip(t, lo, hi)

    nc.relu, nc.clip = relu_spy, clip_spy
    try:
        yield
    finally:
        nc.relu, nc.clip = orig_relu, orig_clip


def model_fd_gradcheck(model, x, labels, loss_config, h=1e-4, pair_seed=7):
    """Central finite differences over every parameter coordinate vs the
    analytic gradient, in the global vector norm.

    Coordinates whose +-h evaluations flip any relu/clip mask are excluded
    (the derivative does not exist inside the stencil there); their count is
    returned so callers can assert the exclusion stays marginal.

    Returns (relative_error, n_excluded, n_total).
    """

    def loss_and_signature():
        signature = []
        with nonsmooth_signature(signature):
            out = model.forward(x, training=True)
            loss, _ = total_loss(
                out.prob, out.logit, labels, loss_config, np.random.default_rng(pair_seed)
            )
        return loss, signature

    loss, _ = loss_and_signature()
    nc.backward(loss)
    names = sorted(model.params)
    analytic = np.concatenate([model.params[n].grad.ravel() for n in names])

    fd = np.zeros_like(analytic)
    stable = np.zeros(analytic.size, dtype=bool)
    pos = 0
    for name in names:
        flat = model.params[name].values.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            loss_p, sig_p = loss_and_signature()
            flat[i] = orig - h
            loss_m, sig_m = loss_and_signature()
            flat[i] = orig
            fd[pos] = (loss_p.item() - loss_m.item()) / (2 * h)
            stable[pos] = all(
                np.array_equal(a, b) for a, b in zip(sig_p, sig_m)
            )
            pos += 1

    diff = np.linalg.norm(analytic[stable] - fd[stable])
    denom = max(np.linalg.norm(fd[stable]), 1e-12)
    return diff / denom, int((~stable).sum()), analytic.size


# ---------------------------------------------------------------------------
# brute-force metric oracles (independent of the library implementations)
# ---------------------------------------------------------------------------


def brute_force_average_precision(scores, labels) -> float:
    """AP by explicit confusion matrices at every distinct threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    k = labels.sum()
    points = []
    for tau in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= tau
        tp = int(np.sum(pred & (labels == 1)))
        precision = tp / int(pred.sum())
        recall = tp / k
        points.append((recall, precision))
    ap = 0.0
    prev_recall = 0.0
    for recall, precision in points:  # already in ascending-recall order
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def brute_force_auroc(scores, labels) -> float:
    """Pairwise comparison count: wins + half-ties over all pos/neg pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# the per-draw resampling reference: a metric callable on a validated
# ScoredSet, one draw at a time, from the same RNG calls as the engine
# ---------------------------------------------------------------------------


def make_thresholded_metric(name: str, tau: float):
    def fn(scored):
        return getattr(mx.thresholded_metrics(scored, tau), name)

    fn.__name__ = f"{name}@{tau}"
    return fn


def per_draw_metric(name: str, tau: float = 0.5):
    """The named report metric as a plain callable."""
    return {"auprc": mx.auprc, "auroc": mx.auroc}.get(name) or make_thresholded_metric(name, tau)


def reference_bootstrap_ci(scored, fn, n_resamples, seed):
    """`mx.bootstrap_ci` with `fn` evaluated on each resample; a resample on
    which `fn` raises UndefinedMetricError is redrawn and counted."""
    rng = mx._rng(seed)
    values, n_redrawn = [], 0
    for _ in range(n_resamples):
        for _ in range(mx._MAX_REDRAWS):
            idx = rng.integers(0, scored.n, size=scored.n)
            try:
                values.append(fn(mx.ScoredSet(scored.scores[idx], scored.labels[idx])))
                break
            except UndefinedMetricError:
                n_redrawn += 1
        else:
            raise UndefinedMetricError("metric undefined on 1000 consecutive bootstrap resamples")
    return mx._percentile_ci(fn(scored), np.array(values, dtype=np.float64), n_redrawn)


def reference_seed_mean_permutation_pvalue(scored_sets, fn, n_draws, seed):
    """`mx.seed_mean_permutation_pvalue` with `fn` evaluated on each shuffle
    of each score vector."""
    labels = scored_sets[0].labels
    rng = mx._rng(seed)
    null = []
    for _ in range(n_draws):
        shuffled = rng.permutation(labels)
        null.append(np.mean([fn(mx.ScoredSet(s.scores, shuffled)) for s in scored_sets]))
    observed = float(np.mean([fn(s) for s in scored_sets]))
    return mx._permutation_result(observed, np.array(null, dtype=np.float64))


def reference_permutation_pvalue(scored, fn, n_draws, seed):
    return reference_seed_mean_permutation_pvalue([scored], fn, n_draws, seed)


# ---------------------------------------------------------------------------
# operating-point selection as a loop over the curve points
# ---------------------------------------------------------------------------


def _translatable_pairs(curve):
    """Curve points with nonzero precision, paired with their FA/h."""
    out = []
    for point in curve:
        if point.precision > 0:
            # per unit lambda; 0 at zero recall, where 1/P may overflow
            fa = point.recall * (1.0 / point.precision - 1.0) if point.recall else 0.0
            out.append((point, fa))
    if not out:
        raise UndefinedOperatingPointError("no curve point has nonzero precision")
    return out


def loop_select_threshold_max_recall(curve, scenario, fa_budget):
    lam = scenario.lambda_per_hour
    candidates = _translatable_pairs(curve)
    qualifying = [(p, fa * lam) for p, fa in candidates if fa * lam <= fa_budget]
    if qualifying:
        best, _ = max(qualifying, key=lambda pf: (pf[0].recall, pf[0].precision, pf[0].threshold))
        return _as_operating_point(best, scenario, feasible=True)
    fallback, _ = min(candidates, key=lambda pf: (pf[1], -pf[0].recall, -pf[0].threshold))
    return _as_operating_point(fallback, scenario, feasible=False)


def loop_select_threshold_min_fa(curve, scenario, target_recall):
    candidates = _translatable_pairs(curve)
    qualifying = [(p, fa) for p, fa in candidates if p.recall >= target_recall]
    if qualifying:
        best, _ = min(qualifying, key=lambda pf: (pf[1], -pf[0].threshold))
        return _as_operating_point(best, scenario, feasible=True)
    fallback, _ = max(candidates, key=lambda pf: (pf[0].recall, -pf[1], pf[0].threshold))
    return _as_operating_point(fallback, scenario, feasible=False)


def loop_recall_vs_fa_curve(curve, scenario):
    lam = scenario.lambda_per_hour
    points = sorted(
        ((fa * lam, p.recall) for p, fa in _translatable_pairs(curve)),
        key=lambda fr: (fr[0], fr[1]),
    )
    best = 0.0
    enveloped = []
    for fa, recall in points:
        best = max(best, recall)
        enveloped.append((fa, best))
    return enveloped


# ---------------------------------------------------------------------------
# small helpers only the tests use
# ---------------------------------------------------------------------------


def count_parameters(config: ModelConfig) -> int:
    return sum(int(np.prod(shape)) for _, shape in parameter_shapes(config))


def downsampled_length(t: int, factor: int) -> int:
    """T' after the strided trunk stage: floor((T - 1) / factor) + 1."""
    return (t - 1) // factor + 1


def read_rows_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def reference_offset_grid() -> dict:
    return load_reference_tables()["offset_grid"]
