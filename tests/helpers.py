"""Shared test utilities: finite-difference gradient checking with
kink-stencil detection, brute-force metric oracles, the per-draw resampling
reference the block engine is tested against, the one-draw-per-call sweep
resampling loops the block draws are tested against, the loop-based
operating-point selection the array version is tested against, the copying
nncore kernels, the training batches cut from a z-scored copy of the corpus
and the serial corpus set-up the copy-free ones must match bit for bit, the
unfolded conv -> normalisation eval layer the folded one must match, the
comment scanner and lexicon loop the library's regex and format string must
match, a tracemalloc peak probe, the micro pipeline run through the CLI with
the outputs two runs compare, and small helpers only the tests use."""

from __future__ import annotations

import csv
import glob
import json
import os
import tracemalloc
from collections import namedtuple
from contextlib import contextmanager

import numpy as np
from scipy import stats as scipy_stats
from scipy.special import gammaln

import kwslab.metrics as mx
import kwslab.nncore as nc
import kwslab.nncore.tensor as nct
import kwslab.synthgen as synthgen
from kwslab.corpus import STD_FLOOR, ChannelConfig, Normalizer, Session, WordEvent, round_half_up
from kwslab.errors import UndefinedMetricError, UndefinedOperatingPointError
from kwslab.fixtures import load_reference_tables
from kwslab.losses import total_loss
from kwslab.model import DetectorModel, ModelConfig, parameter_shapes
from kwslab.operate import _as_operating_point
from kwslab.sampling import BalancedBatchSampler
from kwslab.streams import AUGMENT, SAMPLER, stream


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


def expected_random_auprc(n: int, k: int) -> float:
    """Exact expectation of average precision under a uniformly random
    ranking of k positives among n (negative-hypergeometric positions)."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")

    def log_comb(a, b):
        return gammaln(a + 1) - gammaln(b + 1) - gammaln(a - b + 1)

    total = 0.0
    for j in range(1, k + 1):
        r = np.arange(j, n - k + j + 1, dtype=np.float64)
        logp = log_comb(r - 1, j - 1) + log_comb(n - r, k - j) - log_comb(n, k)
        total += float(np.sum((j / r) * np.exp(logp)))
    return total / k


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


def rank_sum_auroc(scores, labels) -> float:
    """The Mann-Whitney rank sum of the positives over k (n - k), ties
    ranked by their average: exact, since the ranks are half-integers."""
    labels = np.asarray(labels)
    k, n = int(labels.sum()), labels.size
    ranks = scipy_stats.rankdata(np.asarray(scores, dtype=np.float64), method="average")
    return (ranks[labels == 1].sum() - k * (k + 1) / 2.0) / (k * (n - k))


def list_pr_curve(scored) -> list:
    """`mx.pr_curve` as the list of (threshold, precision, recall) points it
    was built as before it held arrays: one point per distinct score,
    descending."""
    _, sorted_scores, ordered = mx._presort(scored)
    ends = mx._tie_ends(sorted_scores)
    tp = np.cumsum(ordered)[ends]
    return list(zip(sorted_scores[ends].tolist(), (tp / (ends + 1.0)).tolist(),
                    (tp / scored.n_positive).tolist()))


def curve_points(curve) -> list:
    """The (threshold, precision, recall) points of a PR curve, in order."""
    return list(zip(curve.threshold.tolist(), curve.precision.tolist(), curve.recall.tolist()))


def curve_of(points) -> mx.PRCurve:
    """The PR curve through the given (threshold, precision, recall) points,
    in their order."""
    points = list(points)
    return mx.PRCurve(*(np.array([p[i] for p in points], dtype=np.float64) for i in range(3)))


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
    rng = stream(seed)
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
    of each score vector: a label vector whose positives sit on the draw's
    k-subset of the items."""
    labels = scored_sets[0].labels
    n, k = labels.size, int(labels.sum())
    rng = stream(seed)
    null = []
    for _ in range(n_draws):
        shuffled = np.zeros_like(labels)
        shuffled[rng.choice(n, k, replace=False, shuffle=False)] = 1
        null.append(np.mean([fn(mx.ScoredSet(s.scores, shuffled)) for s in scored_sets]))
    observed = float(np.mean([fn(s) for s in scored_sets]))
    return mx._permutation_result(observed, np.array(null, dtype=np.float64))


def reference_permutation_pvalue(scored, fn, n_draws, seed):
    return reference_seed_mean_permutation_pvalue([scored], fn, n_draws, seed)


def loop_bootstrap_mean_ci(values, n_resamples=4000, seed=0):
    """`sweeps._bootstrap_mean_ci` drawing one resample per call."""
    rng = stream(seed)
    arr = np.asarray(values, dtype=np.float64)
    means = np.empty(n_resamples)
    for i in range(n_resamples):
        means[i] = arr[rng.integers(0, arr.size, size=arr.size)].mean()
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi), mx.se_from_ci(lo, hi)


def loop_sign_flip_pvalue(deltas, n_draws=10000, seed=0) -> float:
    """`sweeps.sign_flip_pvalue` drawing one sign vector per call."""
    arr = np.asarray(deltas, dtype=np.float64)
    observed = arr.mean()
    rng = stream(seed)
    hits = 0
    for _ in range(n_draws):
        signs = rng.integers(0, 2, size=arr.size) * 2 - 1
        if (arr * signs).mean() >= observed:
            hits += 1
    return (1.0 + hits) / (n_draws + 1.0)


# ---------------------------------------------------------------------------
# operating-point selection as a loop over the curve points
# ---------------------------------------------------------------------------


_Point = namedtuple("_Point", "index threshold precision recall")


def _translatable_pairs(curve):
    """Curve points with nonzero precision, paired with their FA/h."""
    out = []
    for i, (t, p, r) in enumerate(curve_points(curve)):
        if p > 0:
            # per unit lambda; 0 at zero recall, where 1/P may overflow
            fa = r * (1.0 / p - 1.0) if r else 0.0
            out.append((_Point(i, t, p, r), fa))
    if not out:
        raise UndefinedOperatingPointError("no curve point has nonzero precision")
    return out


def loop_select_threshold_max_recall(curve, scenario, fa_budget):
    lam = scenario.lambda_per_hour
    candidates = _translatable_pairs(curve)
    qualifying = [(p, fa * lam) for p, fa in candidates if fa * lam <= fa_budget]
    if qualifying:
        best, _ = max(qualifying, key=lambda pf: (pf[0].recall, pf[0].precision, pf[0].threshold))
        return _as_operating_point(curve, best.index, scenario, feasible=True)
    fallback, _ = min(candidates, key=lambda pf: (pf[1], -pf[0].recall, -pf[0].threshold))
    return _as_operating_point(curve, fallback.index, scenario, feasible=False)


def loop_select_threshold_min_fa(curve, scenario, target_recall):
    candidates = _translatable_pairs(curve)
    qualifying = [(p, fa) for p, fa in candidates if p.recall >= target_recall]
    if qualifying:
        best, _ = min(qualifying, key=lambda pf: (pf[1], -pf[0].threshold))
        return _as_operating_point(curve, best.index, scenario, feasible=True)
    fallback, _ = max(candidates, key=lambda pf: (pf[0].recall, -pf[1], pf[0].threshold))
    return _as_operating_point(curve, fallback.index, scenario, feasible=False)


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
# reference kernels: conv1d, batch_norm and augment_window written with a
# padded copy of the input, a copied im2col for every conv, fresh temporaries
# for every normalisation step, the Box–Muller noise and a copy of every first
# gradient. The library's batch_norm runs the same float32 operations in the
# same order on fewer fresh arrays, and its training batch (raw windows
# z-scored in place, then the in-place Box–Muller noise added) the same
# operations as this augment_window on a z-scored copy of the session, so they
# must agree bit for bit. A float64 bound on batch_norm and a statistical test
# of the sampler check the library against independent arithmetic. The library's
# conv1d sums one matmul per tap instead, so it agrees bit for bit only on
# pointwise convs and to float32 rounding otherwise. The column-add conv1d is
# the library's tap sum as it stood before its whole-row adds.
# ---------------------------------------------------------------------------


def copy_accumulate(t, g, owned=False):
    """`_accumulate` that copies every first gradient, whoever owns it."""
    if t.grad is None:
        t.grad = g.astype(t.values.dtype, copy=True)
    else:
        t.grad += g


def reference_conv1d(x, w, b=None, stride=1, padding=0):
    x, w = nc.as_tensor(x), nc.as_tensor(w)
    if b is not None:
        b = nc.as_tensor(b)
    batch, c_in, t = x.shape
    c_out, _, k = w.shape
    xp = np.pad(x.values, ((0, 0), (0, 0), (padding, padding))) if padding else x.values
    t_out = (t + 2 * padding - k) // stride + 1
    span = stride * (t_out - 1) + 1
    cols = np.empty((batch, c_in, k, t_out), dtype=xp.dtype)
    for kk in range(k):
        cols[:, :, kk, :] = xp[:, :, kk : kk + span : stride]
    cols = cols.reshape(batch, c_in * k, t_out)
    w2 = w.values.reshape(c_out, c_in * k)
    out_values = w2 @ cols
    if b is not None:
        out_values = out_values + b.values[None, :, None]

    def _bw(g):
        if b is not None and b.requires_grad:
            copy_accumulate(b, g.sum(axis=(0, 2)))
        if w.requires_grad:
            gw = (g @ cols.transpose(0, 2, 1)).sum(axis=0)
            copy_accumulate(w, gw.reshape(c_out, c_in, k))
        if x.requires_grad:
            gcols = (w2.T @ g).reshape(batch, c_in, k, t_out)
            gxp = np.zeros_like(xp)
            for kk in range(k):
                gxp[:, :, kk : kk + span : stride] += gcols[:, :, kk, :]
            copy_accumulate(x, gxp[:, :, padding : padding + t] if padding else gxp)

    return nct._result(out_values, (x, w) if b is None else (x, w, b), _bw)


def column_add_conv1d(x, w, b=None, stride=1, padding=0):
    """The tap-sum conv1d as it was before the whole-row adds: each tap's
    product is added into its column slice of the output (grad-x: of the input
    gradient). The library's conv1d must match it bit for bit."""
    x, w = nc.as_tensor(x), nc.as_tensor(w)
    if b is not None:
        b = nc.as_tensor(b)
    batch, _, t = x.shape
    c_out, _, k = w.shape
    xv = x.values
    t_out = (t + 2 * padding - k) // stride + 1
    w_taps = np.ascontiguousarray(w.values.transpose(2, 0, 1))
    taps = nct._taps(k, t, t_out, stride, padding)
    first = next((tap for tap in taps if tap[2] - tap[1] == t_out), None)
    out_values = (np.zeros((batch, c_out, t_out), dtype=np.result_type(xv, w_taps))
                  if first is None else w_taps[first[0]] @ xv[:, :, first[3]])
    for kk, lo, hi, src in (tap for tap in taps if tap is not first):
        out_values[:, :, lo:hi] += w_taps[kk] @ xv[:, :, src]
    if b is not None:
        out_values += b.values[None, :, None]

    def _bw(g):
        if b is not None and b.requires_grad:
            copy_accumulate(b, g.sum(axis=(0, 2)))
        if w.requires_grad:
            gw = np.zeros_like(w.values)
            for kk, lo, hi, src in taps:
                gw[:, :, kk] = (g[:, :, lo:hi] @ xv[:, :, src].transpose(0, 2, 1)).sum(0)
            copy_accumulate(w, gw)
        if x.requires_grad:
            whole = next((tap for tap in taps if stride == 1 and tap[2] - tap[1] == t), None)
            gx = (np.zeros_like(xv) if whole is None
                  else w_taps[whole[0]].T @ g[:, :, whole[1]:whole[2]])
            for kk, lo, hi, src in (tap for tap in taps if tap is not whole):
                gx[:, :, src] += w_taps[kk].T @ g[:, :, lo:hi]
            copy_accumulate(x, gx)

    return nct._result(out_values, (x, w) if b is None else (x, w, b), _bw)


def reference_batch_norm(x, scale, shift, state, training=True, momentum=0.1, eps=1e-5):
    """Train mode stands in for `nc.batch_norm`; eval mode is the separate
    running-statistics pass the model ran before eval folded it into the conv."""
    x, scale, shift = nc.as_tensor(x), nc.as_tensor(scale), nc.as_tensor(shift)
    batch, _, t = x.shape
    n = batch * t
    if training:
        mean = np.einsum("bct->c", x.values) / n
        centered = x.values - mean[None, :, None]
        var = np.einsum("bct,bct->c", centered, centered) / n
        state.running_mean[...] = (1 - momentum) * state.running_mean + momentum * mean
        state.running_var[...] = (1 - momentum) * state.running_var + momentum * var
    else:
        mean = state.running_mean.astype(x.dtype)
        var = state.running_var.astype(x.dtype)
        centered = x.values - mean[None, :, None]
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv[None, :, None]
    out_values = scale.values[None, :, None] * xhat + shift.values[None, :, None]

    def _bw(g):
        g_sum = np.einsum("bct->c", g)
        gxhat_sum = np.einsum("bct,bct->c", g, xhat)
        if scale.requires_grad:
            copy_accumulate(scale, gxhat_sum)
        if shift.requires_grad:
            copy_accumulate(shift, g_sum)
        if x.requires_grad:
            gain = (scale.values * inv)[None, :, None]
            if training:
                gx = gain * (g - (g_sum / n)[None, :, None]
                             - xhat * (gxhat_sum / n)[None, :, None])
            else:
                gx = gain * g
            copy_accumulate(x, gx)

    return nct._result(out_values, (x, scale, shift), _bw)


def reference_standard_normal(rng, shape):
    """Box–Muller on fresh arrays: float32 uniforms u1 then u2, 2 * ceil(n / 2)
    in one draw; r cos(theta) then r sin(theta), cut to n and shaped."""
    n = int(np.prod(shape))
    m = -(-n // 2)
    u = rng.random(2 * m, dtype=np.float32)
    r = np.sqrt(np.float32(-2) * np.log(np.float32(1) - u[:m]))
    theta = np.float32(2 * np.pi) * u[m:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n].reshape(shape)


def reference_augment_window(signals, starts, n_samples, jitter_samples,
                             noise_std_fraction, channel_std, rng):
    """The augmented batch of the windows of `signals[i]` at `starts[i]`:
    every row's jitter in one draw, then the batch's noise."""
    if jitter_samples > 0:
        shifts = rng.integers(-jitter_samples, jitter_samples + 1, size=len(starts))
    else:
        shifts = [0] * len(starts)
    rows = []
    for signal, start, shift in zip(signals, starts, shifts):
        moved = start + int(shift)
        if moved < 0 or moved + n_samples > signal.shape[1]:
            moved = start
        rows.append(signal[:, moved : moved + n_samples])
    windows = np.stack(rows).astype(np.float32)
    if noise_std_fraction > 0:
        noise = reference_standard_normal(rng, windows.shape)
        scale = (noise_std_fraction * np.asarray(channel_std, dtype=np.float32))[:, None]
        return windows + noise * scale
    return windows


def reference_training_batches(task, sampler_config, seed, n_batches):
    """The first `n_batches` batches of a training run of `seed`, built from a
    z-scored copy of every session: each batch is `reference_augment_window`
    on its rows' z-scored sessions, drawing from the step's augmentation stream."""
    signals = {sid: reference_normalizer_apply(task.normalizer, sig)
               for sid, sig in task.signals.items()}
    live = np.where(task.normalizer.std > STD_FLOOR, 1.0, 0.0)  # floored channels get no noise
    sampler_seed = int(np.random.SeedSequence((seed, SAMPLER)).generate_state(1)[0])
    sampler = BalancedBatchSampler(task.labels("train"), sampler_config, sampler_seed)
    refs = task.partitions["train"]
    for step in range(n_batches):
        rows = [refs[i] for i in sampler.next_batch()]
        yield reference_augment_window(
            [signals[r.session_id] for r in rows], [r.start for r in rows],
            task.n_window_samples, sampler_config.jitter_samples,
            sampler_config.noise_std_fraction, live,
            stream(seed, AUGMENT, step))


def reference_conv_norm(model, x, conv, norm, stride, padding, training):
    """`DetectorModel._conv_norm` as two passes: the reference conv1d, then the
    reference normalisation in either mode (the unfolded eval forward)."""
    h = reference_conv1d(x, model.params[f"{conv}.w"], model.params[f"{conv}.b"],
                         stride=stride, padding=padding)
    return reference_batch_norm(h, model.params[f"{norm}.scale"],
                                model.params[f"{norm}.shift"], model.norm_states[norm],
                                training=training)


@contextmanager
def unfolded_eval():
    """Run every `DetectorModel` forward through `reference_conv_norm`."""
    saved = DetectorModel._conv_norm
    DetectorModel._conv_norm = reference_conv_norm
    try:
        yield
    finally:
        DetectorModel._conv_norm = saved


@contextmanager
def copying_kernels():
    """Run nncore with the reference batch_norm and a copy of every first
    gradient, the all-copy autodiff the library must match. conv1d stays the
    library's (its float32 sums differ from the im2col reference's), and its
    gradients go through `copy_accumulate` as well."""
    saved = nc.batch_norm, nct._accumulate
    nc.batch_norm, nct._accumulate = reference_batch_norm, copy_accumulate
    try:
        yield
    finally:
        nc.batch_norm, nct._accumulate = saved


# ---------------------------------------------------------------------------
# reference corpus set-up: serial session generation with a burst made for
# every token, and a normalizer fitted on whole-matrix float64 copies and
# applied with a final copy. The library fills caller-allocated signals on
# worker threads, slices each word's burst from a per-corpus table and
# normalises in place, so it must agree bit for bit.
# ---------------------------------------------------------------------------


def _reference_session(config, session_idx, lexicon, probs, templates):
    fs = config.sample_rate_hz
    session_s = config.session_minutes * 60.0
    n_samples = round_half_up(session_s * fs)
    noise_rng = stream(config.seed, synthgen._STREAM_NOISE, session_idx)
    signal = noise_rng.standard_normal((config.n_channels, n_samples), dtype=np.float32)
    events = []
    t = synthgen._HEAD_MARGIN_S
    token_idx = 0
    while True:
        token_rng = stream(config.seed, synthgen._STREAM_TOKENS, session_idx, token_idx)
        gap = float(token_rng.uniform(*config.gap_range_s))
        rank = int(token_rng.choice(config.vocab_size, p=probs))
        duration = float(token_rng.uniform(*config.word_duration_range_s))
        onset = t if token_idx == 0 else t + gap
        if onset + duration + synthgen._TAIL_MARGIN_S > session_s:
            break
        word = lexicon[rank]
        events.append(WordEvent(onset_s=onset, duration_s=duration, word=word, kind="word"))
        if config.snr > 0:
            start = round_half_up(onset * fs)
            width = max(round_half_up(duration * fs), 1)
            width = min(width, n_samples - start)
            template = templates[word]
            burst = np.outer(template.spatial, template.kernel(width, fs))
            peak = np.max(np.abs(burst))
            if peak > 0:
                burst *= config.snr / peak
            signal[:, start : start + width] += burst.astype(np.float32)
        t = onset + duration
        token_idx += 1
    return Session(
        session_id=f"s{session_idx:03d}",
        signal=signal,
        events=events,
        channel_config=ChannelConfig(
            n_channels=config.n_channels, sample_rate_hz=fs, channel_names=None
        ),
    )


def reference_generate_corpus(config):
    lexicon = synthgen.build_lexicon(config.vocab_size)
    probs = synthgen.zipf_probabilities(config.vocab_size, config.zipf_exponent)
    templates = synthgen.build_templates(config)
    sessions = [_reference_session(config, idx, lexicon, probs, templates)
                for idx in range(config.n_sessions)]
    return sessions, templates


def reference_fit_normalizer(train_sessions):
    n_channels = train_sessions[0].channel_config.n_channels
    total = 0
    acc = np.zeros(n_channels, dtype=np.float64)
    acc_sq = np.zeros(n_channels, dtype=np.float64)
    for session in train_sessions:
        sig = session.signal.astype(np.float64)
        acc += sig.sum(axis=1)
        acc_sq += (sig * sig).sum(axis=1)
        total += session.n_samples
    mean = acc / total
    var = np.maximum(acc_sq / total - mean * mean, 0.0)
    std = np.maximum(np.sqrt(var), STD_FLOOR)
    return Normalizer(mean=mean, std=std)


def reference_normalizer_apply(normalizer, arr):
    mean = normalizer.mean.astype(np.float32)[:, None]
    std = normalizer.std.astype(np.float32)[:, None]
    return ((np.asarray(arr, dtype=np.float32) - mean) / std).astype(np.float32)


# ---------------------------------------------------------------------------
# reference text helpers: the character scanner that stripped config comments
# and the digit loop that spelled lexicon ranks. The library's one regex and
# one format string must give the same strings.
# ---------------------------------------------------------------------------


def reference_strip_json_comments(text: str) -> str:
    """Drop // line comments and /* */ blocks outside of strings."""
    out = []
    i = 0
    n = len(text)
    in_string = False
    while i < n:
        ch = text[i]
        if in_string:
            out.append(ch)
            if ch == "\\" and i + 1 < n:
                out.append(text[i + 1])
                i += 2
                continue
            if ch == '"':
                in_string = False
            i += 1
            continue
        if ch == '"':
            in_string = True
            out.append(ch)
            i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                i += 1
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def loop_build_lexicon(vocab_size: int) -> list[str]:
    words = []
    for rank in range(vocab_size):
        width = 1 + rank // 10
        digits = []
        rest = rank
        for _ in range(width):
            digits.append(rest % 10)
            rest //= 10
        words.append("".join(synthgen._SYLLABLES[d] for d in reversed(digits)))
    return words


# ---------------------------------------------------------------------------
# small helpers only the tests use
# ---------------------------------------------------------------------------


def count_parameters(config: ModelConfig) -> int:
    return sum(int(np.prod(shape)) for _, shape in parameter_shapes(config))


def downsampled_length(t: int, factor: int) -> int:
    """T' after the strided trunk stage: floor((T - 1) / factor) + 1."""
    return (t - 1) // factor + 1


def peak_traced_bytes(fn) -> int:
    """The peak of the bytes allocated while `fn()` runs, above those already
    traced when it starts, by `tracemalloc` (numpy reports its array buffers
    to it)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def read_rows_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def reference_offset_grid() -> dict:
    return load_reference_tables()["offset_grid"]


# ---------------------------------------------------------------------------
# the micro pipeline through the CLI, and the outputs two of its runs compare
# ---------------------------------------------------------------------------


def run_cli_pipeline(config: str, workdir: str, main) -> None:
    """`synth`, `train`, `evaluate`, `operating-points --scores` (every scores
    file `evaluate` wrote) and `sweep-scaling --fractions 1.0` through the CLI
    entry point `main`, from the current directory, for the config at
    `config`. The sweep writes into `workdir/sweep`, the rest into `workdir`."""
    def run(command, *argv):
        assert main([command, "--config", config, *argv]) == 0, command

    run("synth")
    run("train", "--workdir", workdir)
    run("evaluate", "--workdir", workdir)
    scores = sorted(glob.glob(os.path.join(glob.escape(workdir), "scores_seed*.csv")))
    run("operating-points", "--workdir", workdir, *[a for s in scores for a in ("--scores", s)])
    run("sweep-scaling", "--workdir", os.path.join(workdir, "sweep"), "--fractions", "1.0")


def _without_wall_clock(value):
    if isinstance(value, dict):
        return {k: _without_wall_clock(v) for k, v in value.items() if k != "wall_clock_s"}
    if isinstance(value, list):
        return [_without_wall_clock(v) for v in value]
    return value


def run_outputs(root) -> dict:
    """Every file under `root`, keyed by its path relative to `root`: its bytes,
    or for a JSON file its content without any `wall_clock_s` entry."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name.endswith(".json"):
                data = _without_wall_clock(json.loads(data))
            out[os.path.relpath(path, root)] = data
    return out
