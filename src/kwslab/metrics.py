"""Exact threshold-free and thresholded metrics for imbalanced detection,
with bootstrap confidence intervals and permutation-null significance.

AUPRC is step-wise average precision over the tie-grouped PR curve (no
trapezoids, no interpolation); AUROC is the exact rank statistic with ties
counted half. Resampling draws are pure functions of their seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import stats as _scipy_stats

from .errors import UndefinedMetricError, ValidationError

SE_CI_DIVISOR = 3.92  # normal-approximation width of a 95% interval
_MAX_REDRAWS = 1000


@dataclass(frozen=True)
class ScoredSet:
    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        labels = np.asarray(self.labels)
        if scores.ndim != 1 or labels.shape != scores.shape:
            raise ValidationError("scores and labels must be equal-length vectors")
        if scores.size < 1:
            raise ValidationError("scored set must be non-empty")
        if not np.isfinite(scores).all():
            raise ValidationError("scores must be finite (a NaN or inf score cannot be ranked)")
        if not np.isin(labels, (0, 1)).all():
            raise ValidationError("labels must be binary")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels.astype(np.int64))

    @property
    def n(self) -> int:
        return self.scores.size

    @property
    def n_positive(self) -> int:
        return int(self.labels.sum())

    @property
    def base_rate(self) -> float:
        return self.n_positive / self.n


@dataclass(frozen=True)
class PRPoint:
    threshold: float
    precision: float
    recall: float


def _ordered_labels_and_groups(scores, labels):
    """Labels in descending-score order plus the inclusive end index of each
    tie group (all examples sharing a score enter together)."""
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    ends = np.flatnonzero(np.diff(sorted_scores) != 0)
    group_ends = np.concatenate([ends, [scores.size - 1]])
    return labels[order], sorted_scores, group_ends


def pr_curve(scored: ScoredSet) -> list[PRPoint]:
    """One point per distinct score, descending; recall is non-decreasing."""
    k = scored.n_positive
    if k == 0:
        raise UndefinedMetricError("PR curve undefined without positives")
    ordered, sorted_scores, group_ends = _ordered_labels_and_groups(
        scored.scores, scored.labels
    )
    tp = np.cumsum(ordered)[group_ends]
    count = group_ends + 1.0
    return [
        PRPoint(threshold=float(sorted_scores[e]), precision=float(t / c), recall=float(t / k))
        for e, t, c in zip(group_ends, tp, count)
    ]


def _ap_from_ordered(ordered_labels, group_ends, k) -> float:
    tp = np.cumsum(ordered_labels)[group_ends]
    precision = tp / (group_ends + 1.0)
    recall = tp / k
    delta = np.diff(np.concatenate([[0.0], recall]))
    return float(np.sum(delta * precision))


def auprc(scored: ScoredSet) -> float:
    """Average precision: sum of (R_i - R_{i-1}) * P_i over the tie-grouped curve."""
    k = scored.n_positive
    if k == 0:
        raise UndefinedMetricError("AUPRC undefined without positives")
    ordered, _, group_ends = _ordered_labels_and_groups(scored.scores, scored.labels)
    return _ap_from_ordered(ordered, group_ends, k)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned their group average."""
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    ranks = np.empty(values.size, dtype=np.float64)
    start = 0
    for end in range(1, values.size + 1):
        if end == values.size or sorted_values[end] != sorted_values[start]:
            ranks[order[start:end]] = 0.5 * (start + 1 + end)
            start = end
    return ranks


def auroc(scored: ScoredSet) -> float:
    """P(score+ > score-) + 0.5 * P(tie), computed exactly from ranks."""
    k = scored.n_positive
    m = scored.n - k
    if k == 0 or m == 0:
        raise UndefinedMetricError("AUROC undefined for single-class sets")
    ranks = _average_ranks(scored.scores)
    rank_sum = ranks[scored.labels == 1].sum()
    return float((rank_sum - k * (k + 1) / 2.0) / (k * m))


@dataclass(frozen=True)
class ThresholdedMetrics:
    f1: float
    f1_macro: float
    accuracy: float
    mcc: float


def _confusion(scored: ScoredSet, tau: float):
    pred = scored.scores >= tau
    pos = scored.labels == 1
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos))
    fn = int(np.sum(~pred & pos))
    tn = int(np.sum(~pred & ~pos))
    return tp, fp, fn, tn


def _metrics_from_confusion(tp, fp, fn, tn) -> ThresholdedMetrics:
    n = tp + fp + fn + tn
    f1_pos = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    f1_neg = 2 * tn / (2 * tn + fn + fp) if (2 * tn + fn + fp) else 0.0
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = (tp * tn - fp * fn) / math.sqrt(denom) if denom else 0.0
    return ThresholdedMetrics(
        f1=f1_pos,
        f1_macro=0.5 * (f1_pos + f1_neg),
        accuracy=(tp + tn) / n,
        mcc=mcc,
    )


def thresholded_metrics(scored: ScoredSet, tau: float) -> ThresholdedMetrics:
    """Predictions are score >= tau; zero denominators yield 0 by convention."""
    return _metrics_from_confusion(*_confusion(scored, tau))


# ---------------------------------------------------------------------------
# named metrics registry (resampling utilities accept names or callables)
# ---------------------------------------------------------------------------


def make_thresholded_metric(name: str, tau: float) -> Callable[[ScoredSet], float]:
    def fn(scored: ScoredSet) -> float:
        return getattr(thresholded_metrics(scored, tau), name)

    fn.__name__ = f"{name}@{tau}"
    return fn


def resolve_metric(metric, tau: float = 0.5) -> Callable[[ScoredSet], float]:
    if callable(metric):
        return metric
    if metric == "auprc":
        return auprc
    if metric == "auroc":
        return auroc
    if metric in ("f1", "f1_macro", "accuracy", "mcc"):
        return make_thresholded_metric(metric, tau)
    raise ValidationError(f"unknown metric {metric!r}")


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BootstrapResult:
    point: float
    lo: float
    hi: float
    se: float
    n_redrawn: int
    flagged: bool  # point escaped [lo, hi] (resampling pathology)


def se_from_ci(lo: float, hi: float) -> float:
    """Normal-approximation SE of a 95% interval: (hi - lo) / 3.92."""
    return (hi - lo) / SE_CI_DIVISOR


def bootstrap_ci(
    scored: ScoredSet,
    metric,
    n_resamples: int = 4000,
    level: float = 0.95,
    seed: int = 0,
    tau: float = 0.5,
) -> BootstrapResult:
    """Percentile bootstrap over examples; resamples on which the metric is
    undefined (e.g. zero positives for AUPRC) are redrawn and counted."""
    fn = resolve_metric(metric, tau)
    point = fn(scored)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,))))
    n = scored.n
    values = np.empty(n_resamples, dtype=np.float64)
    n_redrawn = 0
    for i in range(n_resamples):
        for _ in range(_MAX_REDRAWS):
            idx = rng.integers(0, n, size=n)
            try:
                values[i] = fn(ScoredSet(scored.scores[idx], scored.labels[idx]))
                break
            except UndefinedMetricError:
                n_redrawn += 1
        else:
            raise UndefinedMetricError(
                "metric undefined on 1000 consecutive bootstrap resamples"
            )
    alpha = (1.0 - level) / 2.0
    lo, hi = np.percentile(values, [100 * alpha, 100 * (1 - alpha)])
    if level == 0.95:
        se = se_from_ci(lo, hi)
    else:
        z = float(_scipy_stats.norm.ppf(1 - alpha))
        se = (hi - lo) / (2 * z)
    return BootstrapResult(
        point=point,
        lo=float(lo),
        hi=float(hi),
        se=float(se),
        n_redrawn=n_redrawn,
        flagged=not (lo <= point <= hi),
    )


@dataclass(frozen=True)
class PermutationResult:
    p_value: float
    observed: float
    null_mean: float
    null_median: float
    band: tuple[float, float]  # central 95% of the null
    n_draws: int
    null_values: np.ndarray = field(repr=False, compare=False, default=None)


def permutation_pvalue(
    scored: ScoredSet,
    metric,
    n_draws: int = 10000,
    seed: int = 0,
    tau: float = 0.5,
    keep_null: bool = False,
) -> PermutationResult:
    """One-sided (greater) label-shuffle test:
    p = (1 + #{null >= observed}) / (n_draws + 1)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,))))
    labels = scored.labels
    null = np.empty(n_draws, dtype=np.float64)

    if metric == "auprc":
        observed = auprc(scored)
        k = scored.n_positive
        if k == 0:
            raise UndefinedMetricError("AUPRC undefined without positives")
        order = np.argsort(-scored.scores, kind="stable")
        sorted_scores = scored.scores[order]
        ends = np.flatnonzero(np.diff(sorted_scores) != 0)
        group_ends = np.concatenate([ends, [scored.n - 1]])
        # the score order is fixed, so each draw only reindexes its shuffle
        for i in range(n_draws):
            null[i] = _ap_from_ordered(rng.permutation(labels)[order], group_ends, k)
    elif metric == "auroc":
        observed = auroc(scored)
        k = scored.n_positive
        m = scored.n - k
        ranks = _average_ranks(scored.scores)
        offset = k * (k + 1) / 2.0
        for i in range(n_draws):
            shuffled = rng.permutation(labels)
            null[i] = (ranks[shuffled == 1].sum() - offset) / (k * m)
    elif metric in ("f1", "f1_macro", "accuracy", "mcc"):
        pred = scored.scores >= tau
        n_pred = int(pred.sum())
        k = scored.n_positive
        n = scored.n
        which = metric
        observed = getattr(thresholded_metrics(scored, tau), which)
        for i in range(n_draws):
            shuffled = rng.permutation(labels)
            tp = int(shuffled[pred].sum())
            fp = n_pred - tp
            fn = k - tp
            tn = n - tp - fp - fn
            null[i] = getattr(_metrics_from_confusion(tp, fp, fn, tn), which)
    else:
        fn_metric = resolve_metric(metric, tau)
        observed = fn_metric(scored)
        for i in range(n_draws):
            null[i] = fn_metric(ScoredSet(scored.scores, rng.permutation(labels)))

    p = (1.0 + np.sum(null >= observed)) / (n_draws + 1.0)
    lo, hi = np.percentile(null, [2.5, 97.5])
    return PermutationResult(
        p_value=float(p),
        observed=float(observed),
        null_mean=float(null.mean()),
        null_median=float(np.median(null)),
        band=(float(lo), float(hi)),
        n_draws=n_draws,
        null_values=null if keep_null else None,
    )


def seed_mean_permutation_pvalue(
    scored_sets: list[ScoredSet],
    metric,
    n_draws: int = 10000,
    seed: int = 0,
    tau: float = 0.5,
) -> PermutationResult:
    """Permutation test of the seed-averaged metric: each draw shuffles the
    shared label vector once and averages the metric over the per-seed score
    vectors."""
    fns = [resolve_metric(metric, tau)] * len(scored_sets)
    labels = scored_sets[0].labels
    for s in scored_sets[1:]:
        if not np.array_equal(s.labels, labels):
            raise ValidationError("seed-mean test needs identical label vectors")
    observed = float(np.mean([fn(s) for fn, s in zip(fns, scored_sets)]))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,))))
    null = np.empty(n_draws, dtype=np.float64)
    for i in range(n_draws):
        shuffled = rng.permutation(labels)
        null[i] = np.mean(
            [fn(ScoredSet(s.scores, shuffled)) for fn, s in zip(fns, scored_sets)]
        )
    p = (1.0 + np.sum(null >= observed)) / (n_draws + 1.0)
    lo, hi = np.percentile(null, [2.5, 97.5])
    return PermutationResult(
        p_value=float(p),
        observed=observed,
        null_mean=float(null.mean()),
        null_median=float(np.median(null)),
        band=(float(lo), float(hi)),
        n_draws=n_draws,
    )


# ---------------------------------------------------------------------------
# derived statistics
# ---------------------------------------------------------------------------


def pct_delta_over_base(auprc_value: float, base_rate: float) -> float:
    """Percent AUPRC change over the empirical base rate."""
    if base_rate <= 0:
        raise UndefinedMetricError("percent delta undefined for zero base rate")
    return 100.0 * (auprc_value - base_rate) / base_rate


def spearman_rank_corr(x, y) -> tuple[float, float]:
    """Spearman correlation via fractional ranks (ties averaged); two-sided
    p from the t approximation with n - 2 degrees of freedom."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("inputs must be equal-length vectors")
    n = x.size
    if n < 3:
        raise ValidationError("need at least 3 observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise UndefinedMetricError("rank correlation undefined for constant input")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    r = float(np.sum(rx * ry) / np.sqrt(np.sum(rx**2) * np.sum(ry**2)))
    if abs(r) >= 1.0:
        return (math.copysign(1.0, r), 0.0)
    t = r * math.sqrt((n - 2) / (1 - r * r))
    p = 2.0 * float(_scipy_stats.t.sf(abs(t), n - 2))
    return r, p


def expected_random_auprc(n: int, k: int) -> float:
    """Exact expectation of average precision under a uniformly random
    ranking of k positives among n (negative-hypergeometric positions)."""
    if not 1 <= k <= n:
        raise ValidationError("need 1 <= k <= n")
    from scipy.special import gammaln

    def log_comb(a, b):
        return gammaln(a + 1) - gammaln(b + 1) - gammaln(a - b + 1)

    total = 0.0
    for j in range(1, k + 1):
        r = np.arange(j, n - k + j + 1, dtype=np.float64)
        logp = log_comb(r - 1, j - 1) + log_comb(n - r, k - j) - log_comb(n, k)
        total += float(np.sum((j / r) * np.exp(logp)))
    return total / k


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

REPORT_METRICS = ("f1", "f1_macro", "accuracy", "mcc", "auroc", "auprc")
THRESHOLD_FREE = ("auroc", "auprc")


@dataclass
class MetricEntry:
    value: float
    ci_lo: float
    ci_hi: float
    se: float
    p_value: float
    baseline: float  # permutation-null mean at the same threshold
    null_median: float
    pct_improvement: float | None
    ci_flagged: bool


@dataclass
class MetricsReport:
    n: int
    n_positive: int
    base_rate: float
    threshold: float
    entries: dict[str, MetricEntry]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "n_positive": self.n_positive,
            "base_rate": self.base_rate,
            "threshold": self.threshold,
            "metrics": {
                name: {
                    "value": e.value,
                    "ci95": [e.ci_lo, e.ci_hi],
                    "se": e.se,
                    "p_value": e.p_value,
                    "baseline": e.baseline,
                    "null_median": e.null_median,
                    "pct_improvement": e.pct_improvement,
                    "ci_flagged": e.ci_flagged,
                }
                for name, e in self.entries.items()
            },
        }


def build_metrics_report(
    scored: ScoredSet,
    tau: float = 0.5,
    n_resamples: int = 4000,
    n_draws: int = 10000,
    seed: int = 0,
) -> MetricsReport:
    """The full roster (F1, F1-macro, accuracy, MCC, AUROC, AUPRC) with
    bootstrap CIs, CI-derived SEs, permutation p-values, and permutation-null
    baselines. The baseline column is the null mean, never a constant."""
    entries = {}
    for name in REPORT_METRICS:
        boot = bootstrap_ci(scored, name, n_resamples=n_resamples, seed=seed, tau=tau)
        perm = permutation_pvalue(scored, name, n_draws=n_draws, seed=seed, tau=tau)
        baseline = perm.null_mean
        pct = None
        if baseline > 0:
            pct = 100.0 * (boot.point - baseline) / baseline
        entries[name] = MetricEntry(
            value=boot.point,
            ci_lo=boot.lo,
            ci_hi=boot.hi,
            se=boot.se,
            p_value=perm.p_value,
            baseline=baseline,
            null_median=perm.null_median,
            pct_improvement=pct,
            ci_flagged=boot.flagged,
        )
    return MetricsReport(
        n=scored.n,
        n_positive=scored.n_positive,
        base_rate=scored.base_rate,
        threshold=tau,
        entries=entries,
    )
