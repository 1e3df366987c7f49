"""Exact threshold-free and thresholded metrics for imbalanced detection,
with bootstrap confidence intervals and permutation-null significance.

AUPRC is step-wise average precision over the tie-grouped PR curve (no
trapezoids, no interpolation); AUROC is the exact rank statistic with ties
counted half. Resampling draws are pure functions of their seeds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
import numpy as np

from .errors import UndefinedMetricError, ValidationError
from .streams import stream

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


@dataclass(frozen=True, eq=False)
class PRCurve:
    """PR curve points as three float64 arrays in curve order."""

    threshold: np.ndarray
    precision: np.ndarray
    recall: np.ndarray


def _presort(scored: ScoredSet):
    """The item order by descending score (stable), and the scores and
    labels in that order."""
    order = np.argsort(-scored.scores, kind="stable")
    return order, scored.scores[order], scored.labels[order]


def _tie_ends(sorted_scores: np.ndarray) -> np.ndarray:
    """Index of the last item of each tie group of descending scores (all
    items sharing a score enter together)."""
    return np.flatnonzero(np.append(sorted_scores[1:] != sorted_scores[:-1], True))


def pr_curve(scored: ScoredSet) -> PRCurve:
    """One point per distinct score, descending; recall is non-decreasing."""
    k = scored.n_positive
    if k == 0:
        raise UndefinedMetricError("PR curve undefined without positives")
    _, sorted_scores, ordered = _presort(scored)
    ends = _tie_ends(sorted_scores)
    tp = np.cumsum(ordered)[ends]
    return PRCurve(threshold=sorted_scores[ends], precision=tp / (ends + 1.0), recall=tp / k)


def auprc(scored: ScoredSet) -> float:
    """Average precision: sum of (R_i - R_{i-1}) * P_i over the tie-grouped curve."""
    return _Engine(scored, ("auprc",)).observed["auprc"]


def auroc(scored: ScoredSet) -> float:
    """P(score+ > score-) + 0.5 * P(tie), computed exactly from tie groups."""
    return _Engine(scored, ("auroc",)).observed["auroc"]


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


# ---------------------------------------------------------------------------
# block engine: the named metrics on many draws at once
# ---------------------------------------------------------------------------

REPORT_METRICS = ("f1", "f1_macro", "accuracy", "mcc", "auroc", "auprc")
THRESHOLD_FREE = ("auroc", "auprc")
_UNDEFINED = {
    "auprc": "AUPRC undefined without positives",
    "auroc": "AUROC undefined for single-class sets",
}
# draws per block x items per draw; bounds the memory a block takes
_BLOCK_ELEMENTS = 32768


def _defined(metric: str, k, n: int):
    """Whether `metric` exists on a set of n items with k positives; k may
    be an array of counts. The thresholded metrics always exist."""
    if metric == "auprc":
        return k > 0
    if metric == "auroc":
        return (k > 0) & (k < n)
    return k >= 0


def _by_group(group, tp):
    """From the positives in score order (their tie groups, per row or one
    row for all, and the positives drawn down to each): which one is the
    last of its group, and the positives drawn above each one's group."""
    last = np.ones(tp.shape, dtype=bool)
    last[:, :-1] = group[..., 1:] != group[..., :-1]
    above = np.zeros_like(tp)
    above[:, 1:] = np.maximum.accumulate(np.where(last, tp, 0), axis=1)[:, :-1]
    return last, above


class _Cursor:
    """One acceptance class's walk along the shared stream of bootstrap
    resamples. It takes the first draws its metrics are defined on and
    counts the others as redraws, as a stream of its own would have."""

    def __init__(self, quota: int):
        self.left, self.n_redrawn, self.run = quota, 0, 0

    def take(self, ok: np.ndarray) -> np.ndarray:
        """The rows of a block this class takes, given where it accepts."""
        rows = np.flatnonzero(ok)[: self.left]
        end = rows[-1] + 1 if rows.size == self.left else ok.size
        gaps = np.diff(rows, prepend=-1, append=end) - 1  # redraws before each take
        gaps[0] += self.run
        if gaps.max() >= _MAX_REDRAWS:
            raise UndefinedMetricError("metric undefined on 1000 consecutive bootstrap resamples")
        self.left -= rows.size
        self.n_redrawn += end - rows.size
        self.run = int(gaps[-1])
        return rows


class _Engine:
    """Named metrics on one scored set, presorted once, evaluated a block of
    draws at a time. A label shuffle keeps the scores and moves the
    positives, so it is the positions of its k positives; a bootstrap
    resample is a row of per-item draw counts in the presorted order, and
    the set's tie groups stay its tie groups. Each threshold-free metric has
    one arithmetic over the positives' k terms, `_auroc` and `_auprc`, for
    the observed values (the one-row case of the shuffles), the shuffles and
    the resamples."""

    def __init__(self, scored: ScoredSet, names=REPORT_METRICS, tau: float = 0.5):
        for name in names:
            if name not in REPORT_METRICS:
                raise ValidationError(f"unknown metric {name!r}")
            if not _defined(name, scored.n_positive, scored.n):
                raise UndefinedMetricError(_UNDEFINED[name])
        self.names = tuple(names)
        self.thresholded = [m for m in self.names if m not in THRESHOLD_FREE]
        # bootstrap acceptance classes: each threshold-free metric has its
        # own, and the thresholded metrics, which accept every draw, share one
        self.class_of = {m: m if m in THRESHOLD_FREE else "thresholded" for m in self.names}
        self.labels, self.k, self.n = scored.labels, scored.n_positive, scored.n
        order, sorted_scores, sorted_labels = _presort(scored)
        self.position = np.empty(self.n, dtype=np.int64)
        self.position[order] = np.arange(self.n)
        self.ends = _tie_ends(sorted_scores)
        self.starts = np.append(0, self.ends[:-1] + 1)  # group g spans starts[g]:ends[g] + 1
        self.group = np.searchsorted(self.ends, np.arange(self.n))  # of each position
        self.n_pred = int(np.sum(sorted_scores >= tau))  # predictions: a prefix
        self.positives = np.flatnonzero(sorted_labels)  # positions, ascending
        self.positive_group = self.group[self.positives]
        self.n_pred_positives = int(np.sum(self.positives < self.n_pred))
        self._memo = {}
        positives = np.flatnonzero(scored.labels)[None, :]
        self.observed = {m: float(v[0]) for m, v in self.on_shuffles(positives).items()}

    def on_shuffles(self, items) -> dict:
        """Rows of the k items each label shuffle makes positive, against
        the fixed scores."""
        pos = np.sort(self.position[items], axis=1)
        rows, k = len(pos), self.k
        out = {}
        if self.thresholded:
            hits = np.sum(pos < self.n_pred, axis=1)
            out.update(self._thresholded(hits, np.full(rows, self.n_pred), np.full(rows, k)))
        group = self.group[pos]
        tp = np.broadcast_to(np.arange(1, k + 1), pos.shape)  # each positive is drawn once
        seen = self.ends[group] + 1
        if "auroc" in self.names:
            out["auroc"] = self._auroc(group, tp, seen, self.starts[group])
        if "auprc" in self.names:
            out["auprc"] = self._auprc(group, tp, seen)
        return out

    def bin_items(self):
        """The bootstrap table: each item's bin among the sorted cut points a
        resample's metrics read (0, n_pred and n, each positive's position
        and the next, both edges of each positive's tie group), so that the
        draws above every cut point are a cumulative sum over a few bins."""
        g = self.positive_group
        cuts = np.unique(np.concatenate(([0, self.n_pred, self.n], self.positives,
                                         self.positives + 1, self.starts[g], self.ends[g] + 1)))
        self.n_bins = cuts.size - 1
        self.bin = (np.searchsorted(cuts, np.arange(self.n), side="right") - 1)[self.position]
        self.hit_bin = np.searchsorted(cuts, self.positives)  # a positive's own bin
        self.pred_cut, self.lo_cut, self.hi_cut = (np.searchsorted(cuts, c) for c in (
            self.n_pred, self.starts[g], self.ends[g] + 1))

    def on_resamples(self, block, taken: dict) -> dict:
        """Rows of bootstrap indices, and the rows of the block each
        acceptance class takes; the draw counts are shared by the classes."""
        rows, bins = len(block), self.n_bins
        flat = self.bin[block]
        flat += bins * np.arange(rows)[:, None]  # in place: a fresh sum costs ~4x as much
        counts = np.bincount(flat.ravel(), minlength=rows * bins).reshape(rows, bins)
        drawn = np.zeros((rows, bins + 1), dtype=np.int64)  # items drawn above each cut point
        np.cumsum(counts, axis=1, out=drawn[:, 1:])
        hits = counts[:, self.hit_bin]  # draws of each positive, in score order
        k = hits.sum(axis=1)
        if taken.keys() - {"thresholded"}:
            tp = np.cumsum(hits, axis=1)  # positives drawn down to each positive
            # items drawn down to each positive's group's end, and above its start
            seen, seen_above = drawn[:, self.hi_cut], drawn[:, self.lo_cut]
        out = {}
        for c, r in taken.items():
            if c == "thresholded":
                hit = hits[r, : self.n_pred_positives].sum(axis=1)
                out.update(self._thresholded(hit, drawn[r, self.pred_cut], k[r]))
            elif c == "auroc":
                out[c] = self._auroc(self.positive_group, tp[r], seen[r], seen_above[r])
            else:
                out[c] = self._auprc(self.positive_group, tp[r], seen[r])
        return out

    def _auroc(self, group, tp, seen, seen_above) -> np.ndarray:
        """Twice the Mann-Whitney U, exact in integers, over the positives in
        score order, given their groups, the positives drawn down to each and
        the items drawn down to its group's end and above its group's start:
        a group's positives beat the negatives below it and tie with the
        negatives inside it. Groups without a positive add no pairs."""
        last, tp_above = _by_group(group, tp)
        k = tp[:, -1]
        m = self.n - k
        pairs = (tp - tp_above) * (2 * m[:, None] - (seen - tp) - (seen_above - tp_above))
        return np.where(last, pairs, 0).sum(axis=1) / 2.0 / (k * m)

    def _auprc(self, group, tp, seen) -> np.ndarray:
        """Sum of (R_g - R_{g-1}) * P_g over the tie groups, given for the
        positives in score order: their groups, the positives drawn down to
        each and the items drawn down to its group's end. A row's nonzero
        terms are at the last drawn positive of each group, so it sums k
        terms, the others zero, in score order: the observed value, a
        shuffle and a resample share this one arithmetic."""
        last, above = _by_group(group, tp)
        keep = last & (tp > above)
        k = tp[:, -1:]
        terms = (tp / k - above / k) * (tp / np.maximum(seen, 1))
        return np.where(keep, terms, 0.0).sum(axis=1)

    def _thresholded(self, tp, n_pred, k) -> dict:
        """Each thresholded metric from per-row counts; Python ints, once
        per distinct confusion, so exact and free of overflow."""
        confusions = []
        for key in zip(tp.tolist(), n_pred.tolist(), k.tolist()):
            if key not in self._memo:
                self._memo[key] = _metrics_from_counts(*key, self.n)
            confusions.append(self._memo[key])
        return {m: np.array([getattr(c, m) for c in confusions], dtype=np.float64)
                for m in self.thresholded}


def _require_draws(count: int, what: str):
    if count < 1:
        raise ValidationError(f"{what} must be >= 1, got {count}")


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


def _percentile_ci(point: float, values, n_redrawn: int) -> BootstrapResult:
    """The 95% percentile interval, and its normal-approximation SE."""
    alpha = (1.0 - 0.95) / 2.0  # not 0.025: the percentiles keep this rounding
    lo, hi = np.percentile(values, [100 * alpha, 100 * (1 - alpha)])
    return BootstrapResult(
        point=point,
        lo=float(lo),
        hi=float(hi),
        se=float(se_from_ci(lo, hi)),
        n_redrawn=n_redrawn,
        flagged=not (lo <= point <= hi),
    )


def _bootstrap(engines: list[_Engine], n_resamples: int, seed: int) -> list[dict]:
    """One stream of resamples for all the metrics of the engines, which
    share one label vector and one roster. Each acceptance class redraws
    where its metrics are undefined (e.g. zero positives for AUPRC), and so
    sees exactly the draws a stream of its own would give. Where a class
    accepts depends only on the labels drawn, so one cursor per class
    serves every engine."""
    _require_draws(n_resamples, "n_resamples")
    rng = stream(seed)
    first = engines[0]
    n = first.n
    rows = max(1, _BLOCK_ELEMENTS // n)
    for engine in engines:
        engine.bin_items()
    cursors = {c: _Cursor(n_resamples) for c in first.class_of.values()}
    values = [{m: np.empty(n_resamples, dtype=np.float64) for m in e.names} for e in engines]
    while need := max(cur.left for cur in cursors.values()):
        block = rng.integers(0, n, size=(min(rows, need), n))  # = one size-n draw a row (PCG64)
        k = first.labels[block].sum(axis=1)  # positives drawn per row
        taken = {c: cur.take(_defined(c, k, n)) for c, cur in cursors.items() if cur.left}
        for engine, vals in zip(engines, values):
            for m, v in engine.on_resamples(block, taken).items():
                end = n_resamples - cursors[engine.class_of[m]].left
                vals[m][end - v.size : end] = v
    return [{m: _percentile_ci(e.observed[m], vals[m], cursors[e.class_of[m]].n_redrawn)
             for m in e.names} for e, vals in zip(engines, values)]


def bootstrap_ci(
    scored: ScoredSet,
    metric: str,
    n_resamples: int = 4000,
    seed: int = 0,
    tau: float = 0.5,
) -> BootstrapResult:
    """95% percentile bootstrap over examples of a metric named in
    REPORT_METRICS; resamples on which the metric is undefined (e.g. zero
    positives for AUPRC) are redrawn and counted."""
    return _bootstrap([_Engine(scored, (metric,), tau)], n_resamples, seed)[0][metric]


@dataclass(frozen=True)
class PermutationResult:
    p_value: float
    observed: float
    null_mean: float
    null_median: float
    band: tuple[float, float]  # central 95% of the null
    n_draws: int


def _permutation_result(observed: float, null) -> PermutationResult:
    p = (1.0 + np.sum(null >= observed)) / (null.size + 1.0)
    lo, hi = np.percentile(null, [2.5, 97.5])
    return PermutationResult(
        p_value=float(p),
        observed=observed,
        null_mean=float(null.mean()),
        null_median=float(np.median(null)),
        band=(float(lo), float(hi)),
        n_draws=null.size,
    )


def _shuffle_nulls(engines: list[_Engine], n_draws: int, seed: int) -> list[dict]:
    """Each engine's null values of its metrics, from one stream of label
    shuffles, and every engine's score vector is evaluated on each. The
    metrics read only where a shuffle puts the k positives, a uniform
    k-subset of the n items, so a draw is that subset:
    `choice(n, k, replace=False, shuffle=False)`, Floyd's algorithm with k
    bounded draws (a k-step tail shuffle when n > 10 000 and k > n / 20),
    not the n - 1 draws of a full permutation."""
    _require_draws(n_draws, "n_draws")
    n, k = engines[0].n, engines[0].k
    rng = stream(seed)
    rows = max(1, _BLOCK_ELEMENTS // max(k, 1))  # a draw is k items wide
    nulls = [{m: np.empty(n_draws, dtype=np.float64) for m in e.names} for e in engines]
    for start in range(0, n_draws, rows):
        count = min(rows, n_draws - start)
        items = np.stack([rng.choice(n, k, replace=False, shuffle=False) for _ in range(count)])
        for engine, null in zip(engines, nulls):
            for m, values in engine.on_shuffles(items).items():
                null[m][start : start + count] = values
    return nulls


def _engines(scored_sets: list[ScoredSet], names, tau: float) -> list[_Engine]:
    labels = scored_sets[0].labels
    for s in scored_sets[1:]:
        if not np.array_equal(s.labels, labels):
            raise ValidationError("seed-mean test needs identical label vectors")
    return [_Engine(s, names, tau) for s in scored_sets]


def _seed_mean_tests(engines: list[_Engine], nulls: list[dict]) -> dict:
    """The null of the seed-averaged metric is, draw by draw, the mean of
    the per-seed nulls; p = (1 + #{null >= observed}) / (n_draws + 1)."""
    return {m: _permutation_result(float(np.mean([e.observed[m] for e in engines])),
                                   np.stack([null[m] for null in nulls], axis=1).mean(axis=1))
            for m in engines[0].names}


def seed_mean_permutation_pvalues(scored_sets: list[ScoredSet], names, n_draws: int = 10000,
                                  seed: int = 0, tau: float = 0.5) -> dict[str, PermutationResult]:
    """One-sided (greater) permutation tests of the seed-averaged metrics
    `names`: each draw places the shared label vector's k positives on one
    uniform k-subset of the items (`_shuffle_nulls`) and averages each
    metric over the per-seed score vectors;
    p = (1 + #{null >= observed}) / (n_draws + 1)."""
    engines = _engines(scored_sets, names, tau)
    return _seed_mean_tests(engines, _shuffle_nulls(engines, n_draws, seed))


def permutation_pvalue(scored: ScoredSet, metric: str, n_draws: int = 10000, seed: int = 0,
                       tau: float = 0.5) -> PermutationResult:
    """One-sided (greater) label-shuffle test:
    p = (1 + #{null >= observed}) / (n_draws + 1)."""
    return seed_mean_permutation_pvalues([scored], (metric,), n_draws, seed, tau)[metric]


def seed_mean_permutation_pvalue(scored_sets: list[ScoredSet], metric: str, n_draws: int = 10000,
                                 seed: int = 0, tau: float = 0.5) -> PermutationResult:
    """`seed_mean_permutation_pvalues` of one metric."""
    return seed_mean_permutation_pvalues(scored_sets, (metric,), n_draws, seed, tau)[metric]


# ---------------------------------------------------------------------------
# derived statistics
# ---------------------------------------------------------------------------


def pct_over_baseline(value: float, baseline: float) -> float | None:
    """Percent change of `value` over `baseline`; None unless the baseline is > 0."""
    return 100.0 * (value - baseline) / baseline if baseline > 0 else None


def spearman_rank_corr(x, y) -> tuple[float, float]:
    """Spearman correlation via fractional ranks (ties averaged); two-sided
    p from the t approximation with n - 2 degrees of freedom. The only kwslab
    code that loads scipy; of the commands, only `sweep-keywords` calls it."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("inputs must be equal-length vectors")
    n = x.size
    if n < 3:
        raise ValidationError("need at least 3 observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise UndefinedMetricError("rank correlation undefined for constant input")
    # imported here: at module scope it cost every kwslab process ~64 MB and ~0.7 s
    from scipy import stats as _scipy_stats
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
        out = asdict(self)
        out["metrics"] = out.pop("entries")
        for entry in out["metrics"].values():
            entry["ci95"] = [entry.pop("ci_lo"), entry.pop("ci_hi")]
        return out


def build_metrics_reports(scored_sets: list[ScoredSet], tau: float = 0.5, n_resamples: int = 4000,
                          n_draws: int = 10000, seed: int = 0,
                          ) -> tuple[list[MetricsReport], dict[str, PermutationResult]]:
    """`build_metrics_report` of each of the per-seed scored sets, which
    share one label vector, and the seed-mean permutation tests of the six
    metrics. One stream of resamples serves every set, and one stream of
    shuffles every set and the seed means."""
    engines = _engines(scored_sets, REPORT_METRICS, tau)
    nulls = _shuffle_nulls(engines, n_draws, seed)
    reports = []
    for scored, engine, null, boots in zip(scored_sets, engines, nulls,
                                           _bootstrap(engines, n_resamples, seed)):
        entries = {}
        for name in REPORT_METRICS:
            boot, perm = boots[name], _permutation_result(engine.observed[name], null[name])
            entries[name] = MetricEntry(
                value=boot.point,
                ci_lo=boot.lo,
                ci_hi=boot.hi,
                se=boot.se,
                p_value=perm.p_value,
                baseline=perm.null_mean,
                null_median=perm.null_median,
                pct_improvement=pct_over_baseline(boot.point, perm.null_mean),
                ci_flagged=boot.flagged,
            )
        reports.append(MetricsReport(n=scored.n, n_positive=scored.n_positive,
                                     base_rate=scored.base_rate, threshold=tau, entries=entries))
    return reports, _seed_mean_tests(engines, nulls)


def build_metrics_report(scored: ScoredSet, tau: float = 0.5, n_resamples: int = 4000,
                         n_draws: int = 10000, seed: int = 0) -> MetricsReport:
    """The full roster (F1, F1-macro, accuracy, MCC, AUROC, AUPRC) with
    bootstrap CIs, CI-derived SEs, permutation p-values, and permutation-null
    baselines, from one stream of resamples and one of shuffles shared by
    the six metrics. The baseline column is the null mean, never a
    constant."""
    return build_metrics_reports([scored], tau, n_resamples, n_draws, seed)[0][0]
