"""Reference computations the benchmark checks kwslab against.

Everything here is written apart from kwslab and imports nothing from it:
brute-force ranking metrics, exact chance expectations under a label
shuffle, the PR points behind operating-point selection, a reader for the
checkpoint file format, a plain-numpy float64 eval forward of the detector,
and the z-scored word windows cut straight from the raw signals and events.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

BN_EPS = 1e-5  # batch-norm epsilon of the detector's normalisation layers
CHECKPOINT_MAGIC = b"KWSARRS1"


# ---------------------------------------------------------------------------
# ranking metrics
# ---------------------------------------------------------------------------


def average_precision(scores, labels) -> float:
    """Mean over positives of the precision among everything scoring at
    least that positive's score. This equals the step-wise sum over the
    tie-grouped PR curve, since every member of a tie group enters with it."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(labels) == 1
    at_or_above = scores[None, :] >= scores[positive][:, None]  # (k, n)
    tp = (at_or_above & positive[None, :]).sum(axis=1)
    return float(np.mean(tp / at_or_above.sum(axis=1)))


def auroc_pairwise(scores, labels) -> float:
    """P(score+ > score-) + P(tie) / 2 over every positive/negative pair."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(labels) == 1
    diff = scores[positive][:, None] - scores[~positive][None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / diff.size)


def thresholded(scores, labels, tau: float) -> dict[str, float]:
    """F1, F1-macro, accuracy and MCC at predictions score >= tau."""
    pred = np.asarray(scores) >= tau
    pos = np.asarray(labels) == 1
    tp, fp = int(np.sum(pred & pos)), int(np.sum(pred & ~pos))
    fn, tn = int(np.sum(~pred & pos)), int(np.sum(~pred & ~pos))
    f1_pos = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
    f1_neg = 2 * tn / (2 * tn + fp + fn) if 2 * tn + fp + fn else 0.0
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    return {
        "f1": f1_pos,
        "f1_macro": (f1_pos + f1_neg) / 2,
        "accuracy": (tp + tn) / (tp + fp + fn + tn),
        "mcc": (tp * tn - fp * fn) / math.sqrt(denom) if denom else 0.0,
    }


# ---------------------------------------------------------------------------
# chance expectations under a uniform label shuffle
# ---------------------------------------------------------------------------


def expected_random_ap(n: int, k: int) -> float:
    """E[AP] of k positives ranked uniformly among n without ties.

    AP = (1/k) sum_p #{q positive: r_q <= r_p} / r_p. With E[1/r] = H_n/n
    and E[1{r_q < r_p}/r_p] = (n - H_n)/(n(n-1)) for q != p this gives
    H_n/n + (k-1)(n - H_n)/(n(n-1)).
    """
    if n == 1:
        return 1.0
    h = math.fsum(1.0 / r for r in range(1, n + 1))
    return h / n + (k - 1) * (n - h) / (n * (n - 1))


def random_ap_sd(n: int, k: int, draws: int = 4000, seed: int = 0) -> float:
    """Standard deviation of AP under random rankings, by simulation."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ranks = np.sort(
        np.array([rng.choice(n, size=k, replace=False) for _ in range(draws)]), axis=1
    ) + 1.0
    ap = (np.arange(1, k + 1) / ranks).mean(axis=1)
    return float(ap.std(ddof=1))


def auroc_null(n: int, k: int) -> tuple[float, float]:
    """Mean and SD of the Mann-Whitney AUROC under a shuffle, no ties."""
    m = n - k
    return 0.5, math.sqrt((n + 1) / (12.0 * k * m))


def thresholded_null(n: int, k: int, n_pred: int) -> dict[str, tuple[float, float]]:
    """Mean and SD of each thresholded metric under a label shuffle.

    With the predicted set fixed, TP is hypergeometric and every metric is
    linear in TP (TP*TN - FP*FN = n*TP - n_pred*k for MCC), so the mean is
    the metric at E[TP] and the SD scales the SD of TP.
    """
    e_tp = n_pred * k / n
    sd_tp = math.sqrt(n_pred * (k / n) * ((n - k) / n) * ((n - n_pred) / (n - 1)))
    slope_icept = {
        "f1": (2.0 / (n_pred + k), 0.0),
        "f1_macro": (
            1.0 / (n_pred + k) + 1.0 / (2 * n - n_pred - k),
            (n - n_pred - k) / (2 * n - n_pred - k),
        ),
        "accuracy": (2.0 / n, (n - n_pred - k) / n),
        "mcc": (
            n / math.sqrt(n_pred * k * (n - n_pred) * (n - k)),
            -n_pred * k / math.sqrt(n_pred * k * (n - n_pred) * (n - k)),
        ),
    }
    return {
        name: (slope * e_tp + icept, abs(slope) * sd_tp)
        for name, (slope, icept) in slope_icept.items()
    }


# ---------------------------------------------------------------------------
# PR points and operating points
# ---------------------------------------------------------------------------


def pr_points(scores, labels):
    """(threshold, precision, recall) at every distinct score, predictions
    being score >= threshold, in descending threshold order."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(labels) == 1
    thresholds = np.unique(scores)[::-1]
    all_sorted = np.sort(scores)
    pos_sorted = np.sort(scores[positive])
    count = scores.size - np.searchsorted(all_sorted, thresholds, side="left")
    tp = pos_sorted.size - np.searchsorted(pos_sorted, thresholds, side="left")
    return thresholds, tp / count, tp / pos_sorted.size


def fa_per_hour(precision, recall, lam):
    """False alarms per hour at event rate lam: R * lam * (1/P - 1)."""
    return recall * lam * (1.0 / precision - 1.0)


# ---------------------------------------------------------------------------
# checkpoint reader and plain-numpy eval forward
# ---------------------------------------------------------------------------


def read_checkpoint(path: str):
    """(arrays, meta) from a checkpoint file: magic, u64 header length,
    JSON header listing name/shape/dtype/offset, then the raw data."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad magic")
    (header_len,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + header_len].decode("utf-8"))
    data = memoryview(blob)[16 + header_len :]
    arrays = {}
    for entry in header["arrays"]:
        count = int(np.prod(entry["shape"], dtype=np.int64))
        arr = np.frombuffer(data, dtype=np.dtype(entry["dtype"]), count=count,
                            offset=entry["offset"])
        arrays[entry["name"]] = arr.reshape(entry["shape"]).astype(np.float64)
    return arrays, header["meta"]


def _conv(x, a, name, stride=1):
    w, b = a[f"{name}.w"], a[f"{name}.b"]
    k = w.shape[2]
    pad = (k - 1) // 2
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    t_out = (x.shape[2] - k) // stride + 1
    out = np.zeros((x.shape[0], w.shape[0], t_out))
    for j in range(k):
        out += np.matmul(w[:, :, j], x[:, :, j : j + stride * (t_out - 1) + 1 : stride])
    return out + b[None, :, None]


def _norm(x, a, name):
    mean = a[f"{name}.running_mean"][None, :, None]
    var = a[f"{name}.running_var"][None, :, None]
    return (x - mean) / np.sqrt(var + BN_EPS) * a[f"{name}.scale"][None, :, None] + a[
        f"{name}.shift"
    ][None, :, None]


def reference_forward(arrays, meta, windows) -> np.ndarray:
    """Eval-mode probabilities of the detector in float64: stem, residual
    pair, strided down, 1x1 projection (each conv + running-stat norm +
    relu), then attention pooling of the per-time logits and a sigmoid."""
    cfg = meta["model_config"]
    if cfg["pooling"] != "attention":
        raise ValueError("reference forward covers attention pooling only")
    relu = lambda v: np.maximum(v, 0.0)  # noqa: E731
    x = np.asarray(windows, dtype=np.float64)
    h = relu(_norm(_conv(x, arrays, "stem"), arrays, "stem_norm"))
    r = relu(_norm(_conv(h, arrays, "res1"), arrays, "res1_norm"))
    r = _norm(_conv(r, arrays, "res2"), arrays, "res2_norm")
    h = relu(r + h)
    h = relu(_norm(_conv(h, arrays, "down", cfg["downsample_factor"]), arrays, "down_norm"))
    h = relu(_norm(_conv(h, arrays, "proj"), arrays, "proj_norm"))
    z = _conv(h, arrays, "head_z")[:, 0, :]
    a = _conv(h, arrays, "head_a")[:, 0, :]
    e = np.exp(a - a.max(axis=1, keepdims=True))
    logit = (z * e / e.sum(axis=1, keepdims=True)).sum(axis=1)
    return 1.0 / (1.0 + np.exp(-logit))


# ---------------------------------------------------------------------------
# windows from the raw signals and events
# ---------------------------------------------------------------------------


def word_windows(sessions, keywords, beta_neg_s: float, beta_pos_s: float):
    """Every word token whose window [onset - beta_neg, + window_s) lies
    inside its session, where window_s = beta_neg + longest keyword +
    beta_pos, as (session_id, token_index, start, n_samples, label) in
    session-id order, then token order. `token_index` counts the session's
    word events; a window starts at round((onset - beta_neg) * fs).

    `sessions` maps session_id to (signal, sample_rate_hz, [(onset_s,
    duration_s, word, kind), ...]).
    """
    longest = max(
        dur for _, _, events in sessions.values() for _, dur, word, kind in events
        if kind == "word" and word in keywords
    )
    out = []
    for sid in sorted(sessions):
        signal, fs, events = sessions[sid]
        n = math.floor((beta_neg_s + longest + beta_pos_s) * fs + 0.5)
        words = [(onset, word) for onset, _, word, kind in events if kind == "word"]
        for token, (onset, word) in enumerate(words):
            start = math.floor((onset - beta_neg_s) * fs + 0.5)
            if 0 <= start and start + n <= signal.shape[1]:
                out.append((sid, token, start, n, int(word in keywords)))
    return out


def channel_stats(signals):
    """Per-channel mean and standard deviation over every sample of the
    given (channels, samples) signals, in float64, by two passes."""
    total = sum(s.shape[1] for s in signals)
    mean = sum(s.sum(axis=1, dtype=np.float64) for s in signals) / total
    var = sum(np.square(s - mean[:, None]).sum(axis=1) for s in signals) / total
    return mean, np.sqrt(var)


def cut_windows(sessions, windows, mean, std) -> np.ndarray:
    """The z-scored float64 windows of `word_windows` entries, stacked."""
    return np.stack([
        (sessions[sid][0][:, start:start + n] - mean[:, None]) / std[:, None]
        for sid, _, start, n, _ in windows
    ])
