"""Exact threshold-free and thresholded metrics for imbalanced detection,
with bootstrap confidence intervals and permutation-null significance.

AUPRC is step-wise average precision over the tie-grouped PR curve (no
trapezoids, no interpolation); AUROC is the exact rank statistic with ties
counted half. Resampling draws are pure functions of their seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _presort(scored: ScoredSet):
    """The item order by descending score (stable), and the scores and
    labels in that order."""
    order = np.argsort(-scored.scores, kind="stable")
    return order, scored.scores[order], scored.labels[order]


def _tie_ends(sorted_scores: np.ndarray) -> np.ndarray:
    """Index of the last item of each tie group of descending scores (all
    items sharing a score enter together)."""
    return np.flatnonzero(np.append(sorted_scores[1:] != sorted_scores[:-1], True))


def pr_curve(scored: ScoredSet) -> list[PRPoint]:
    """One point per distinct score, descending; recall is non-decreasing."""
    k = scored.n_positive
    if k == 0:
        raise UndefinedMetricError("PR curve undefined without positives")
    _, sorted_scores, ordered = _presort(scored)
    ends = _tie_ends(sorted_scores)
    tp = np.cumsum(ordered)[ends]
    count = ends + 1.0
    return [
        PRPoint(threshold=float(sorted_scores[e]), precision=float(t / c), recall=float(t / k))
        for e, t, c in zip(ends, tp, count)
    ]


def auprc(scored: ScoredSet) -> float:
    """Average precision: sum of (R_i - R_{i-1}) * P_i over the tie-grouped curve."""
    return _Engine(scored, "auprc").observed


def auroc(scored: ScoredSet) -> float:
    """P(score+ > score-) + 0.5 * P(tie), computed exactly from tie groups."""
    return _Engine(scored, "auroc").observed


@dataclass(frozen=True)
class ThresholdedMetrics:
    f1: float
    f1_macro: float
    accuracy: float
    mcc: float


def _metrics_from_counts(tp: int, n_pred: int, k: int, n: int) -> ThresholdedMetrics:
    """From true-positive, predicted-positive, positive and total counts.
    Python ints, so the MCC denominator cannot overflow at any n."""
    fp = n_pred - tp
    fn = k - tp
    tn = n - tp - fp - fn
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
    pred = scored.scores >= tau
    return _metrics_from_counts(
        int(scored.labels[pred].sum()), int(pred.sum()), scored.n_positive, scored.n
    )


def make_thresholded_metric(name: str, tau: float) -> Callable[[ScoredSet], float]:
    def fn(scored: ScoredSet) -> float:
        return getattr(thresholded_metrics(scored, tau), name)

    fn.__name__ = f"{name}@{tau}"
    return fn


# ---------------------------------------------------------------------------
# block engine: each named metric on many draws at once
# ---------------------------------------------------------------------------

REPORT_METRICS = ("f1", "f1_macro", "accuracy", "mcc", "auroc", "auprc")
THRESHOLD_FREE = ("auroc", "auprc")
_UNDEFINED = {
    "auprc": "AUPRC undefined without positives",
    "auroc": "AUROC undefined for single-class sets",
}
# draws per block x items per draw; bounds the memory a block takes
_BLOCK_ELEMENTS = 32768


def _defined(metric: str, k: int, n: int) -> bool:
    """Whether `metric` exists on a set of n items with k positives."""
    if metric == "auprc":
        return k > 0
    if metric == "auroc":
        return 0 < k < n
    return True


def _shifted(x: np.ndarray) -> np.ndarray:
    """Each row moved one column right, with 0 in the first column."""
    out = np.zeros_like(x)
    out[:, 1:] = x[:, :-1]
    return out


class _Engine:
    """A named metric on one scored set, presorted once, evaluated a block
    of draws at a time. A label shuffle keeps the scores and moves the
    positives; a bootstrap resample is a row of per-item draw counts in the
    presorted order, and the set's tie groups stay its tie groups. The
    observed value is the one-row case of the shuffles' arithmetic."""

    def __init__(self, scored: ScoredSet, metric: str, tau: float = 0.5):
        if metric not in REPORT_METRICS:
            raise ValidationError(f"unknown metric {metric!r}")
        if not _defined(metric, scored.n_positive, scored.n):
            raise UndefinedMetricError(_UNDEFINED[metric])
        self.metric, self.labels, self.k = metric, scored.labels, scored.n_positive
        self.order, sorted_scores, self.sorted_labels = _presort(scored)
        self.position = np.empty(scored.n, dtype=np.int64)
        self.position[self.order] = np.arange(scored.n)
        self.ends = _tie_ends(sorted_scores)
        self.group = np.searchsorted(self.ends, np.arange(scored.n))  # of each position
        self.n_pred = int(np.sum(sorted_scores >= tau))  # predictions: a prefix
        # per-item weights whose sum over a draw's positives gives the
        # AUROC rank sum or the thresholded true positives
        if metric == "auroc":
            self.weights = _scipy_stats.rankdata(scored.scores, method="average")
        elif metric != "auprc":
            self.weights = (scored.scores >= tau).astype(np.float64)
        self._memo = {}
        self.observed = float(self.on_permutations(scored.labels[None, :])[0])

    def accepts(self, idx) -> bool:
        """Whether the metric is defined on the bootstrap resample `idx`."""
        if self.metric not in THRESHOLD_FREE:
            return True
        return _defined(self.metric, int(self.labels[idx].sum()), idx.size)

    def on_permutations(self, block) -> np.ndarray:
        """Rows of shuffled labels against the fixed scores."""
        rows, n = block.shape
        k = self.k
        if self.metric == "auprc":
            return self._shuffled_auprc(block)
        hits = block @ self.weights  # sums of small integers or halves: exact
        if self.metric == "auroc":
            return (hits - k * (k + 1) / 2.0) / (k * (n - k))
        return self._thresholded(hits.astype(np.int64), [self.n_pred] * rows, [k] * rows, n)

    def on_resamples(self, block) -> np.ndarray:
        """Rows of bootstrap indices."""
        rows, n = block.shape
        flat = (self.position[block] + n * np.arange(rows)[:, None]).ravel()
        counts = np.bincount(flat, minlength=rows * n).reshape(rows, n)
        positives = counts * self.sorted_labels
        if self.metric not in THRESHOLD_FREE:
            p = self.n_pred
            return self._thresholded(positives[:, :p].sum(axis=1), counts[:, :p].sum(axis=1),
                                     positives.sum(axis=1), n)
        tp = self._at_ends(np.cumsum(positives, axis=1))
        seen = self._at_ends(np.cumsum(counts, axis=1))  # items drawn down to each group
        if self.metric == "auprc":
            return self._auprc(tp, seen, seen > _shifted(seen))
        # twice the Mann-Whitney U, exact in integers: a group's positives
        # beat the negatives below it and tie with the negatives inside it
        k = tp[:, -1]
        m = n - k
        fp = seen - tp
        pairs = (tp - _shifted(tp)) * (2 * m[:, None] - fp - _shifted(fp))
        return pairs.sum(axis=1) / 2.0 / (k * m)

    def _shuffled_auprc(self, block) -> np.ndarray:
        """AUPRC of rows holding k positives each. Only the tie groups that
        hold a positive add a term; the other groups add zeros, which the
        row sum needs only in their places."""
        rows, k = len(block), self.k
        _, items = np.nonzero(block)
        group = self.group[np.sort(self.position[items].reshape(rows, k), axis=1)]
        tp = np.arange(1, k + 1)  # positives down to each one, in score order
        first = np.ones(group.shape, dtype=bool)
        first[:, 1:] = group[:, 1:] != group[:, :-1]
        above = np.maximum.accumulate(np.where(first, tp - 1, 0), axis=1)
        last = np.ones(group.shape, dtype=bool)
        last[:, :-1] = first[:, 1:]
        r, j = np.nonzero(last)
        g = group[r, j]
        terms = np.zeros((rows, self.ends.size))
        terms[r, g] = (tp[j] / k - above[r, j] / k) * (tp[j] / (self.ends[g] + 1))
        return terms.sum(axis=1)

    def _at_ends(self, x) -> np.ndarray:
        return x if self.ends.size == x.shape[1] else x[:, self.ends]

    def _auprc(self, tp, seen, drawn) -> np.ndarray:
        """Sum of (R_g - R_{g-1}) * P_g over the tie groups each row draws
        from (`drawn`), given the true positives and the items seen down to
        each group. Each row's terms are summed as one vector, so pairwise in
        the order np.sum adds a single draw's terms."""
        recall = tp / tp[:, -1:]
        terms = (recall - _shifted(recall)) * (tp / np.maximum(seen, 1))
        flat = terms[drawn]
        bounds = np.cumsum(drawn.sum(axis=1)).tolist()
        return np.array([flat[a:b].sum() for a, b in zip([0] + bounds[:-1], bounds)])

    def _thresholded(self, tp, n_pred, k, n) -> np.ndarray:
        """From per-row counts; Python ints, once per distinct confusion, so
        exact and free of overflow."""
        keys = list(zip(np.asarray(tp).tolist(), np.asarray(n_pred).tolist(),
                        np.asarray(k).tolist()))
        for key in keys:
            if key not in self._memo:
                self._memo[key] = getattr(_metrics_from_counts(*key, n), self.metric)
        return np.array([self._memo[key] for key in keys])


class _PerDraw:
    """A user-supplied metric callable, run one draw at a time on a
    validated ScoredSet; the reference the block engine is tested against."""

    def __init__(self, scored: ScoredSet, fn):
        self.scored, self.fn = scored, fn
        self.observed = fn(scored)
        self._kept = []

    def accepts(self, idx) -> bool:
        # only the value tells whether the resample is defined, so keep it
        try:
            self._kept.append(self.fn(ScoredSet(self.scored.scores[idx], self.scored.labels[idx])))
            return True
        except UndefinedMetricError:
            return False

    def on_resamples(self, block) -> np.ndarray:
        values, self._kept = self._kept, []
        return np.array(values, dtype=np.float64)

    def on_permutations(self, block) -> np.ndarray:
        return np.array([self.fn(ScoredSet(self.scored.scores, row)) for row in block],
                        dtype=np.float64)


def _evaluator(scored: ScoredSet, metric, tau: float):
    return _PerDraw(scored, metric) if callable(metric) else _Engine(scored, metric, tau)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,))))


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
    undefined (e.g. zero positives for AUPRC) are redrawn and counted.
    `metric` is a name from REPORT_METRICS or a callable on a ScoredSet."""
    engine = _evaluator(scored, metric, tau)
    point = engine.observed
    rng = _rng(seed)
    n = scored.n
    rows = max(1, _BLOCK_ELEMENTS // n)
    block = np.empty((rows, n), dtype=np.int64)
    values = np.empty(n_resamples, dtype=np.float64)
    n_redrawn = 0
    for i in range(n_resamples):
        for _ in range(_MAX_REDRAWS):
            idx = rng.integers(0, n, size=n)
            if engine.accepts(idx):
                break
            n_redrawn += 1
        else:
            raise UndefinedMetricError(
                "metric undefined on 1000 consecutive bootstrap resamples"
            )
        row = i % rows
        block[row] = idx
        if row == rows - 1 or i == n_resamples - 1:
            values[i - row : i + 1] = engine.on_resamples(block[: row + 1])
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


def _shuffle_test(scored_sets, metric, n_draws: int, seed: int, tau: float) -> PermutationResult:
    """Each draw shuffles the shared label vector once and averages the
    metric over the score vectors; p = (1 + #{null >= observed}) / (n_draws + 1)."""
    labels = scored_sets[0].labels
    for s in scored_sets[1:]:
        if not np.array_equal(s.labels, labels):
            raise ValidationError("seed-mean test needs identical label vectors")
    evaluators = [_evaluator(s, metric, tau) for s in scored_sets]
    observed = float(np.mean([e.observed for e in evaluators]))
    rng = _rng(seed)
    rows = max(1, _BLOCK_ELEMENTS // labels.size)
    null = np.empty(n_draws, dtype=np.float64)
    for start in range(0, n_draws, rows):
        block = np.stack([rng.permutation(labels) for _ in range(min(rows, n_draws - start))])
        per_set = np.stack([e.on_permutations(block) for e in evaluators], axis=1)
        null[start : start + len(block)] = per_set.mean(axis=1)
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


def permutation_pvalue(
    scored: ScoredSet,
    metric,
    n_draws: int = 10000,
    seed: int = 0,
    tau: float = 0.5,
) -> PermutationResult:
    """One-sided (greater) label-shuffle test:
    p = (1 + #{null >= observed}) / (n_draws + 1)."""
    return _shuffle_test([scored], metric, n_draws, seed, tau)


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
    return _shuffle_test(scored_sets, metric, n_draws, seed, tau)


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
    rx = _scipy_stats.rankdata(x, method="average")
    ry = _scipy_stats.rankdata(y, method="average")
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
