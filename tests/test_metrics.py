import dataclasses
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

import kwslab.metrics as mx
import kwslab.streams as streams
from helpers import (
    brute_force_auroc,
    brute_force_average_precision,
    expected_random_auprc,
    curve_points,
    list_pr_curve,
    make_thresholded_metric,
    per_draw_metric,
    rank_sum_auroc,
    reference_bootstrap_ci,
    reference_permutation_pvalue,
    reference_seed_mean_permutation_pvalue,
)
from kwslab.errors import UndefinedMetricError, ValidationError

RNG = np.random.default_rng(99)


def scored(scores, labels):
    return mx.ScoredSet(np.asarray(scores, float), np.asarray(labels))


@st.composite
def scored_sets(draw):
    """Both classes present, often k = 1; scores from a few levels (heavy
    ties) or continuous."""
    n = draw(st.integers(2, 30))
    k = draw(st.one_of(st.just(1), st.integers(1, n - 1)))
    labels = np.zeros(n, int)
    labels[draw(st.permutations(range(n)))[:k]] = 1
    levels = draw(st.one_of(st.integers(1, 4), st.just(None)))
    if levels is None:
        scores = draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))
    else:
        scores = np.array(draw(st.lists(st.integers(0, levels), min_size=n, max_size=n))) / levels
    return scored(scores, labels)


@st.composite
def cut_edge_sets(draw):
    """Sets at the cut points the bootstrap counts its draws between: a
    positive first or last in score order, several positives in one tie
    group, k = n - 1, and no score or every score at or above tau = 0.5."""
    n = draw(st.integers(2, 30))
    k = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)))
    levels = draw(st.one_of(st.integers(1, 4), st.just(None)))
    if levels is None:
        scores = np.array(draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
    else:
        scores = np.array(draw(st.lists(st.integers(0, levels), min_size=n, max_size=n))) / levels
    positions = list(draw(st.permutations(range(n)))[:k])  # of the positives, in score order
    for end in draw(st.sampled_from([(), (0,), (n - 1,), (0, n - 1)])):
        if end not in positions:
            positions[draw(st.integers(0, k - 1))] = end
    items = np.argsort(-scores, kind="stable")[positions]
    labels = np.zeros(n, int)
    labels[items] = 1
    if k > 1 and draw(st.booleans()):  # one tie group holds every positive
        scores[items] = scores[items[draw(st.integers(0, k - 1))]]
    shift = draw(st.sampled_from(["none", "all below tau", "all at or above tau"]))
    if shift == "all below tau":
        scores = 0.4 * scores
    elif shift == "all at or above tau":
        scores = 0.5 + 0.5 * scores
    return scored(scores, labels)


class TestScoredSet:
    def test_base_rate(self):
        s = scored([0.1, 0.2, 0.3, 0.4], [1, 0, 0, 0])
        assert s.base_rate == 0.25 and s.n == 4 and s.n_positive == 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            scored([0.1], [2])
        with pytest.raises(ValidationError):
            scored([], [])
        with pytest.raises(ValidationError):
            scored([0.1, 0.2], [1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_rejected(self, bad):
        # a diverged model's NaN would otherwise rank as a plausible score:
        # [0.9, nan, 0.1, 0.5] vs [1, 1, 0, 0] gave AUPRC 0.75, AUROC 1.0
        with pytest.raises(ValidationError, match="finite"):
            scored([0.9, bad, 0.1, 0.5], [1, 1, 0, 0])


class TestPrCurve:
    def test_hand_enumeration(self):
        curve = mx.pr_curve(scored([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]))
        assert curve.precision.tolist() == [1.0, 0.5, 2 / 3, 0.5]
        assert curve.recall.tolist() == [0.5, 0.5, 1.0, 1.0]
        assert curve.threshold.tolist() == [0.9, 0.8, 0.7, 0.6]

    def test_perfect_separation_prefix_precision_one(self):
        s = scored([0.9, 0.8, 0.7, 0.3, 0.2], [1, 1, 1, 0, 0])
        points = mx.pr_curve(s)
        assert (points.precision[:3] == 1.0).all()

    def test_total_tie_single_point(self):
        curve = mx.pr_curve(scored([0.5] * 8, [1, 0, 0, 0, 1, 0, 0, 0]))
        assert curve_points(curve) == [(0.5, 0.25, 1.0)]

    def test_recall_non_decreasing(self):
        s = scored(RNG.random(50), RNG.integers(0, 2, 50))
        recalls = mx.pr_curve(s).recall.tolist()
        assert recalls == sorted(recalls)

    def test_no_positives_undefined(self):
        with pytest.raises(UndefinedMetricError):
            mx.pr_curve(scored([0.1, 0.2], [0, 0]))

    @given(s=scored_sets())
    @settings(max_examples=100, deadline=None)
    def test_arrays_equal_the_point_list(self, s):
        """The arrays hold exactly the floats of the list of points the
        curve was built as, in its order."""
        curve = mx.pr_curve(s)
        points = list_pr_curve(s)
        for i, f in enumerate(("threshold", "precision", "recall")):
            array = getattr(curve, f)
            assert array.dtype == np.float64 and array.shape == (len(points),)
            assert array.tolist() == [p[i] for p in points]
        assert curve_points(curve) == points


class TestAuprc:
    def test_hand_average_precision(self):
        value = mx.auprc(scored([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]))
        assert value == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3), abs=1e-15)

    def test_perfect(self):
        assert mx.auprc(scored([0.9, 0.8, 0.1], [1, 1, 0])) == 1.0

    def test_reversed_perfect_is_brute_force_minimum(self):
        # worst ranking puts all positives after all negatives; brute-force
        # minimum over every ordering of 2 positives among 6
        n, k = 6, 2
        labels_options = set(itertools.permutations([1] * k + [0] * (n - k)))
        scores = np.linspace(1.0, 0.1, n)  # distinct, descending
        values = {mx.auprc(scored(scores, lab)) for lab in labels_options}
        reversed_perfect = mx.auprc(scored(scores, [0] * (n - k) + [1] * k))
        assert min(values) == pytest.approx(reversed_perfect, abs=1e-15)

    def test_matches_brute_force_oracle(self):
        for trial in range(60):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(2, 13))
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                labels[rng.integers(0, n)] = 1
            scores = np.round(rng.random(n), 1)  # force ties
            s = scored(scores, labels)
            assert abs(mx.auprc(s) - brute_force_average_precision(scores, labels)) <= 1e-12

    def test_invariant_under_monotone_transform(self):
        scores = RNG.random(40)
        labels = RNG.integers(0, 2, 40)
        labels[0] = 1
        s1 = scored(scores, labels)
        s2 = scored(np.exp(3 * scores) + 5, labels)
        assert mx.auprc(s1) == mx.auprc(s2)
        assert mx.auroc(s1) == mx.auroc(s2)


class TestAuroc:
    def test_perfect(self):
        assert mx.auroc(scored([0.9, 0.8, 0.1], [1, 1, 0])) == 1.0

    def test_all_ties(self):
        assert mx.auroc(scored([0.5] * 6, [1, 0, 1, 0, 0, 0])) == 0.5

    def test_pair_enumeration(self):
        assert mx.auroc(scored([3, 2, 1], [1, 0, 1])) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            mx.auroc(scored([0.1, 0.2], [1, 1]))

    def test_matches_brute_force_oracle(self):
        for trial in range(60):
            rng = np.random.default_rng(1000 + trial)
            n = int(rng.integers(3, 13))
            labels = rng.integers(0, 2, n)
            labels[0], labels[1] = 1, 0
            scores = np.round(rng.random(n), 1)
            s = scored(scores, labels)
            assert abs(mx.auroc(s) - brute_force_auroc(scores, labels)) <= 1e-12


class TestThresholded:
    def test_all_negative_predictor_on_imbalanced(self):
        n, k = 1000, 5
        labels = np.zeros(n, int)
        labels[:k] = 1
        s = scored(np.full(n, 0.1), labels)
        m = mx.thresholded_metrics(s, 0.5)
        assert m.mcc == 0.0
        assert m.accuracy == pytest.approx(1 - k / n)
        assert m.f1 == 0.0
        # macro structure: (0 + F1_neg) / 2
        f1_neg = 2 * (n - k) / (2 * (n - k) + k)
        assert m.f1_macro == pytest.approx(0.5 * f1_neg)

    def test_perfect_predictions(self):
        s = scored([0.9, 0.9, 0.1], [1, 1, 0])
        m = mx.thresholded_metrics(s, 0.5)
        assert (m.f1, m.f1_macro, m.accuracy, m.mcc) == (1.0, 1.0, 1.0, 1.0)

    def test_confusion_arithmetic(self):
        s = scored([0.9, 0.8], [1, 0])
        m = mx.thresholded_metrics(s, 0.5)
        assert m.f1 == pytest.approx(2 / 3)
        assert m.accuracy == 0.5

    def test_matches_sklearn_style_formulas(self):
        scores = RNG.random(200)
        labels = RNG.integers(0, 2, 200)
        s = scored(scores, labels)
        m = mx.thresholded_metrics(s, 0.5)
        pred = (scores >= 0.5).astype(int)
        tp = np.sum(pred & labels)
        fp = np.sum(pred & (1 - labels))
        fn = np.sum((1 - pred) & labels)
        tn = np.sum((1 - pred) & (1 - labels))
        mcc_oracle = (tp * tn - fp * fn) / math.sqrt(
            (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        )
        assert m.mcc == pytest.approx(mcc_oracle, abs=1e-12)
        assert m.accuracy == pytest.approx((tp + tn) / 200)


class TestBootstrap:
    def test_degenerate_identical_examples(self):
        # every example is the same (score, label) pair, so every resample
        # is the original set
        s = scored([0.7] * 10, [1] * 10)
        result = mx.bootstrap_ci(s, "auprc", n_resamples=100, seed=0)
        assert result.lo == result.hi == result.point
        assert result.se == 0.0 and not result.flagged

    def test_deterministic(self):
        scores = RNG.random(60)
        labels = RNG.integers(0, 2, 60)
        labels[0] = 1
        s = scored(scores, labels)
        a = mx.bootstrap_ci(s, "auprc", n_resamples=300, seed=7)
        b = mx.bootstrap_ci(s, "auprc", n_resamples=300, seed=7)
        assert a == b

    def test_redraws_counted_for_positive_dependent_metric(self):
        labels = np.zeros(12, int)
        labels[0] = 1  # 38% of resamples have no positives
        s = scored(RNG.random(12), labels)
        result = mx.bootstrap_ci(s, "auprc", n_resamples=200, seed=0)
        assert result.n_redrawn > 0

    def test_point_inside_interval(self):
        scores = RNG.random(200)
        labels = (scores + RNG.normal(0, 0.4, 200) > 0.7).astype(int)
        labels[0] = 1
        s = scored(scores, labels)
        result = mx.bootstrap_ci(s, "auroc", n_resamples=500, seed=1)
        assert result.lo <= result.point <= result.hi and not result.flagged

    def test_se_from_ci_published_values(self):
        se = mx.se_from_ci(0.0045, 0.0154)
        assert se == pytest.approx((0.0154 - 0.0045) / 3.92, abs=1e-15)
        assert abs(se - 0.0028) < 2e-4


class TestPermutation:
    def test_low_observation_high_p(self):
        scores = np.arange(100, dtype=float)
        labels = np.zeros(100, int)
        labels[:10] = 1  # positives get the lowest scores
        result = mx.permutation_pvalue(scored(scores, labels), "auprc",
                                       n_draws=500, seed=0)
        assert result.p_value > 0.5

    def test_add_one_floor(self):
        rng = np.random.default_rng(1)
        scores = np.concatenate([rng.uniform(0.9, 1.0, 5), rng.uniform(0.0, 0.5, 195)])
        labels = np.concatenate([np.ones(5, int), np.zeros(195, int)])
        result = mx.permutation_pvalue(scored(scores, labels), "auprc",
                                       n_draws=10000, seed=0)
        assert result.p_value == pytest.approx(1 / 10001)

    def test_null_mean_matches_exact_expectation_and_published_baseline(self):
        n, k = 4660, 24
        rng = np.random.default_rng(2)
        labels = np.zeros(n, int)
        labels[rng.choice(n, k, replace=False)] = 1
        s = scored(rng.random(n), labels)
        result = mx.permutation_pvalue(s, "auprc", n_draws=4000, seed=3)
        exact = expected_random_auprc(n, k)
        # simulation noise: null SD ~ 0.0046 -> SE over 4000 draws ~ 7.3e-5,
        # so abs=2e-4 is about 2.7 SE
        assert result.null_mean == pytest.approx(exact, abs=2e-4)
        assert abs(result.null_mean - 0.007) < 5e-4  # the published baseline
        assert result.band[0] <= result.null_median <= result.band[1]

    def test_deterministic(self):
        scores = RNG.random(80)
        labels = RNG.integers(0, 2, 80)
        labels[0] = 1
        s = scored(scores, labels)
        a = mx.permutation_pvalue(s, "auroc", n_draws=200, seed=5)
        b = mx.permutation_pvalue(s, "auroc", n_draws=200, seed=5)
        assert a == b

    def test_fast_paths_match_generic_callable(self):
        scores = np.round(RNG.random(60), 1)
        labels = RNG.integers(0, 2, 60)
        labels[0], labels[1] = 1, 0
        s = scored(scores, labels)
        for name, fn in (("auprc", mx.auprc), ("auroc", mx.auroc),
                         ("f1_macro", make_thresholded_metric("f1_macro", 0.5))):
            fast = mx.permutation_pvalue(s, name, n_draws=150, seed=9)
            generic = reference_permutation_pvalue(s, fn, n_draws=150, seed=9)
            assert fast.p_value == generic.p_value
            assert fast.null_mean == pytest.approx(generic.null_mean, abs=1e-12)

    def test_seed_mean_variant(self):
        labels = RNG.integers(0, 2, 50)
        labels[0], labels[1] = 1, 0
        sets = [scored(RNG.random(50), labels) for _ in range(3)]
        result = mx.seed_mean_permutation_pvalue(sets, "auprc", n_draws=200, seed=0)
        expected_obs = np.mean([mx.auprc(s) for s in sets])
        assert result.observed == pytest.approx(expected_obs, abs=1e-15)
        with pytest.raises(ValidationError):
            mx.seed_mean_permutation_pvalue(
                [sets[0], scored(RNG.random(50), 1 - labels)], "auprc", 10, 0
            )


class TestExpectedRandomAuprc:
    def test_enumeration_small_cases(self):
        # exact enumeration over all positive-position subsets
        for n, k in ((2, 1), (4, 1), (5, 2), (6, 3)):
            total = 0.0
            count = 0
            scores = np.linspace(1, 0, n)
            for positions in itertools.combinations(range(n), k):
                labels = np.zeros(n, int)
                labels[list(positions)] = 1
                total += mx.auprc(scored(scores, labels))
                count += 1
            assert expected_random_auprc(n, k) == pytest.approx(total / count, abs=1e-12)

    def test_known_values(self):
        assert expected_random_auprc(2, 1) == pytest.approx(0.75)
        assert expected_random_auprc(4, 1) == pytest.approx((1 + 0.5 + 1 / 3 + 0.25) / 4)


class TestDerivedStats:
    def test_pct_delta(self):
        assert mx.pct_over_baseline(0.05, 0.05) == 0.0
        assert mx.pct_over_baseline(0.05, 0.01) == pytest.approx(400.0)
        assert mx.pct_over_baseline(0.05, 0.0) is None

    def test_published_ratio(self):
        assert 0.094 / 0.007 == pytest.approx(13.43, abs=0.01)

    def test_spearman_exact_cases(self):
        r, p = mx.spearman_rank_corr([1, 2, 3], [3, 2, 1])
        assert r == -1.0 and p == 0.0
        r, _ = mx.spearman_rank_corr([1, 2, 3, 4], [np.exp(1), np.exp(2), np.exp(3), np.exp(4)])
        assert r == 1.0
        r, _ = mx.spearman_rank_corr([1, 2, 3, 4], [1, 3, 2, 4])
        assert r == pytest.approx(0.8)

    def test_spearman_matches_scipy(self):
        for trial in range(20):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(5, 30))
            x = np.round(rng.random(n), 1)  # ties likely
            y = np.round(rng.random(n), 1)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            r, p = mx.spearman_rank_corr(x, y)
            ref = scipy_stats.spearmanr(x, y)
            assert r == pytest.approx(ref.statistic, abs=1e-12)
            assert p == pytest.approx(ref.pvalue, abs=1e-9)

    def test_only_the_rank_correlation_loads_scipy(self):
        # a fresh interpreter, since this suite imports scipy itself: scipy
        # costs ~64 MB of RSS, so no command but sweep-keywords may load it
        script = """
import importlib, pkgutil, sys
import numpy as np
import kwslab
for info in pkgutil.walk_packages(kwslab.__path__, "kwslab."):
    importlib.import_module(info.name)
import kwslab.metrics as mx
from kwslab.operate import ASSISTIVE, select_threshold_min_fa
rng = np.random.default_rng(0)
labels = np.zeros(200, dtype=np.int64)
labels[:6] = 1
scoreds = [mx.ScoredSet(rng.random(200) + labels, labels) for _ in range(2)]
mx.build_metrics_reports(scoreds, n_resamples=20, n_draws=20)
select_threshold_min_fa(mx.pr_curve(scoreds[0]), ASSISTIVE, 0.5)
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(loaded())
print(mx.spearman_rank_corr([1, 2, 3], [3, 2, 1])[0], "scipy" in loaded())
"""
        src = os.path.dirname(os.path.dirname(mx.__file__))
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["[]", "-1.0 True"]

    def test_spearman_input_contracts(self):
        with pytest.raises(ValidationError):
            mx.spearman_rank_corr([1, 2], [1, 2])
        with pytest.raises(UndefinedMetricError):
            mx.spearman_rank_corr([1, 1, 1], [1, 2, 3])


class TestMetricsReport:
    def test_structure_and_baseline_from_null(self):
        rng = np.random.default_rng(0)
        scores = rng.random(300)
        labels = (scores + rng.normal(0, 0.3, 300) > 0.8).astype(int)
        labels[0] = 1
        s = scored(scores, labels)
        report = mx.build_metrics_report(s, tau=0.5, n_resamples=200, n_draws=300, seed=0)
        assert set(report.entries) == set(mx.REPORT_METRICS)
        payload = report.to_dict()
        assert payload["threshold"] == 0.5
        for name in mx.REPORT_METRICS:
            entry = payload["metrics"][name]
            assert entry["ci95"][0] <= entry["ci95"][1]
            assert 0 < entry["p_value"] <= 1
        # the AUPRC baseline column comes from the permutation null, so it
        # exceeds the base rate at this positive count rather than equal it
        assert payload["metrics"]["auprc"]["baseline"] > 0


@given(st.lists(st.floats(0, 1), min_size=4, max_size=40))
@settings(max_examples=40, deadline=None)
def test_auprc_bounds_property(values):
    scores = np.asarray(values, float)
    labels = np.zeros(len(scores), int)
    labels[: max(1, len(scores) // 3)] = 1
    value = mx.auprc(scored(scores, labels))
    assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# the block engine against the per-draw reference and the oracles
# ---------------------------------------------------------------------------


def assert_same_result(name, engine, reference):
    """Field by field: exact, except that AUPRC values may differ by 1e-15
    relative. A bootstrap `se` is the engine's own (hi - lo) / 3.92, exactly:
    the division by 3.92 would magnify an allowed difference in `lo`."""
    for f in dataclasses.fields(engine):
        a, b = getattr(engine, f.name), getattr(reference, f.name)
        if f.name == "se":
            assert a == mx.se_from_ci(engine.lo, engine.hi), f.name
        elif name == "auprc" and f.name not in ("p_value", "n_draws", "n_redrawn", "flagged"):
            np.testing.assert_allclose(a, b, rtol=1e-15, atol=0, err_msg=f.name)
        else:
            assert a == b, f.name


@given(s=st.one_of(scored_sets(), cut_edge_sets()), name=st.sampled_from(mx.REPORT_METRICS),
       count=st.integers(1, 40), rows=st.integers(1, 6), seed=st.integers(0, 2**16))
# lo differs by 2 ulp here, and (hi - lo) / 3.92 by 7.9e-15 relative
@example(s=scored([0.5, 1, 0, 0.875, 1, 0.5, 1, 0, 0.5, 0.75, 0.75, 0.75, 0, 1, 1, 0.5, 0.5,
                   0, 1, 0.5, 0, 1], [1] * 20 + [0, 1]),
         name="auprc", count=10, rows=1, seed=0)
@settings(max_examples=200, deadline=None)
def test_engine_matches_per_draw_reference(s, name, count, rows, seed):
    reference = per_draw_metric(name)
    with pytest.MonkeyPatch.context() as mp:
        # blocks of `rows` draws, so most counts leave a partial last block: a
        # resample is n items wide, a shuffle k
        mp.setattr(mx, "_BLOCK_ELEMENTS", rows * s.n)
        assert_same_result(name, mx.bootstrap_ci(s, name, n_resamples=count, seed=seed),
                           reference_bootstrap_ci(s, reference, n_resamples=count, seed=seed))
        mp.setattr(mx, "_BLOCK_ELEMENTS", rows * max(s.n_positive, 1))
        assert_same_result(name, mx.permutation_pvalue(s, name, n_draws=count, seed=seed),
                           reference_permutation_pvalue(s, reference, n_draws=count, seed=seed))
        sets = [s, scored(np.roll(s.scores, 1), s.labels), scored(s.scores[::-1], s.labels)]
        assert_same_result(
            name, mx.seed_mean_permutation_pvalue(sets, name, n_draws=count, seed=seed),
            reference_seed_mean_permutation_pvalue(sets, reference, n_draws=count, seed=seed))


@given(s=st.one_of(scored_sets(), cut_edge_sets()), count=st.integers(1, 40),
       seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_auroc_equals_the_rank_sum(s, count, seed):
    """The tie-group U statistic, observed and on every shuffle, equals the
    rank-sum AUROC bit for bit: both count half-integers exactly and divide
    once by k (n - k)."""
    engine = mx._Engine(s, ("auroc",))
    assert engine.observed["auroc"] == rank_sum_auroc(s.scores, s.labels)
    null = mx._shuffle_nulls([engine], count, seed)[0]["auroc"]
    rng = streams.stream(seed)
    for value in null:
        labels = np.zeros(s.n, int)
        labels[rng.choice(s.n, s.n_positive, replace=False, shuffle=False)] = 1
        assert value == rank_sum_auroc(s.scores, labels)


@given(s=st.one_of(scored_sets(), cut_edge_sets()))
@settings(max_examples=100, deadline=None)
def test_identity_resample_is_the_observed_value(s):
    """A resample that draws each item once goes through the resampling
    arithmetic to the observed value of each of the six metrics, bit for
    bit."""
    engine = mx._Engine(s, mx.REPORT_METRICS)
    engine.bin_items()
    taken = {c: np.array([0]) for c in set(engine.class_of.values())}
    values = engine.on_resamples(np.arange(s.n)[None, :], taken)
    assert values.keys() == engine.observed.keys()
    for name, value in values.items():
        assert value.tolist() == [engine.observed[name]], name


@pytest.mark.parametrize("name, labels", [
    ("auprc", [1] + [0] * 11),   # 32% of resamples hold no positive
    ("auroc", [1] + [0] * 11),
    ("auroc", [0] + [1] * 5),    # 33% hold no negative
])
def test_engine_redraws_as_the_reference_does(name, labels):
    s = scored(np.round(RNG.random(len(labels)), 1), labels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mx, "_BLOCK_ELEMENTS", 7 * s.n)
        engine = mx.bootstrap_ci(s, name, n_resamples=300, seed=4)
        reference = reference_bootstrap_ci(s, per_draw_metric(name), n_resamples=300, seed=4)
    assert engine.n_redrawn > 50
    assert_same_result(name, engine, reference)


@given(s=scored_sets(), name=st.sampled_from(mx.THRESHOLD_FREE), count=st.integers(1, 40),
       seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_engine_matches_brute_force_oracles(s, name, count, seed):
    oracle = brute_force_average_precision if name == "auprc" else brute_force_auroc

    def fn(x):
        if x.n_positive == 0 or (name == "auroc" and x.n_positive == x.n):
            raise UndefinedMetricError(name)
        return oracle(x.scores, x.labels)

    boot = mx.bootstrap_ci(s, name, n_resamples=count, seed=seed)
    boot_ref = reference_bootstrap_ci(s, fn, n_resamples=count, seed=seed)
    perm = mx.permutation_pvalue(s, name, n_draws=count, seed=seed)
    perm_ref = reference_permutation_pvalue(s, fn, n_draws=count, seed=seed)
    assert boot.n_redrawn == boot_ref.n_redrawn
    if name == "auroc":  # exact in both: half-integer counts over k * m
        assert boot == boot_ref and perm == perm_ref
    else:  # the oracle adds in another order
        for a, b in ((boot.point, boot_ref.point), (boot.lo, boot_ref.lo),
                     (boot.hi, boot_ref.hi), (perm.null_mean, perm_ref.null_mean),
                     (perm.null_median, perm_ref.null_median)):
            assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# one pass for all six metrics against six one-name calls
# ---------------------------------------------------------------------------


def assert_one_pass_equals_one_name_calls(s, resamples, draws, seed):
    """The shared bootstrap and shuffle passes, and the report built from
    them, equal six one-name calls field for field, redraw counts included."""
    boots = mx._bootstrap([mx._Engine(s, mx.REPORT_METRICS)], resamples, seed)[0]
    perms = mx.seed_mean_permutation_pvalues([s], mx.REPORT_METRICS, n_draws=draws, seed=seed)
    report = mx.build_metrics_report(s, n_resamples=resamples, n_draws=draws, seed=seed)
    for name in mx.REPORT_METRICS:
        boot = mx.bootstrap_ci(s, name, n_resamples=resamples, seed=seed)
        perm = mx.permutation_pvalue(s, name, n_draws=draws, seed=seed)
        assert boots[name] == boot, name
        assert perms[name] == perm, name
        entry = report.entries[name]
        assert (entry.value, entry.ci_lo, entry.ci_hi, entry.se, entry.ci_flagged) == (
            boot.point, boot.lo, boot.hi, boot.se, boot.flagged), name
        assert (entry.p_value, entry.baseline, entry.null_median) == (
            perm.p_value, perm.null_mean, perm.null_median), name


@given(s=st.one_of(scored_sets(), cut_edge_sets()), count=st.integers(1, 40),
       rows=st.integers(1, 6), seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_one_pass_matches_one_name_calls(s, count, rows, seed):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mx, "_BLOCK_ELEMENTS", rows * s.n)
        assert_one_pass_equals_one_name_calls(s, count, count, seed)


@pytest.mark.parametrize("n, k", [(40, 1), (60, 59), (12, 1)])
def test_one_pass_redraws_as_one_name_calls_do(n, k):
    labels = np.zeros(n, int)
    labels[:k] = 1
    s = scored(np.round(np.random.default_rng(n).random(n), 1), labels)
    boots = mx._bootstrap([mx._Engine(s, mx.REPORT_METRICS)], 300, 4)[0]
    assert boots["auroc"].n_redrawn > 50
    assert_one_pass_equals_one_name_calls(s, 300, 200, 4)


@given(s=scored_sets(), count=st.integers(1, 30), seed=st.integers(0, 2**16))
@settings(max_examples=50, deadline=None)
def test_seed_mean_pvalues_match_one_name_calls(s, count, seed):
    """The six seed-mean tests in one pass, alone or sharing their shuffles
    with the per-seed reports, equal six one-name calls and one report per
    seed."""
    sets = [s, scored(np.roll(s.scores, 1), s.labels), scored(s.scores[::-1], s.labels)]
    together = mx.seed_mean_permutation_pvalues(sets, mx.REPORT_METRICS, n_draws=count, seed=seed)
    reports, with_reports = mx.build_metrics_reports(sets, n_resamples=count, n_draws=count,
                                                     seed=seed)
    assert list(together) == list(mx.REPORT_METRICS) and with_reports == together
    for name in mx.REPORT_METRICS:
        assert together[name] == mx.seed_mean_permutation_pvalue(sets, name, n_draws=count,
                                                                 seed=seed), name
    for x, report in zip(sets, reports):
        assert report == mx.build_metrics_report(x, n_resamples=count, n_draws=count, seed=seed)


def test_reports_draw_each_bootstrap_resample_once(monkeypatch):
    """The per-seed reports share one stream of resamples: three seeds take
    as many `integers` calls as one, each a block of whole resamples."""
    calls = []
    real_rng = streams.stream

    class Counting:
        def __init__(self, seed):
            self.rng = real_rng(seed)

        def integers(self, low, high, size):
            calls.append(size)
            return self.rng.integers(low, high, size=size)

        def choice(self, *args, **kwargs):
            return self.rng.choice(*args, **kwargs)

    monkeypatch.setattr(mx, "stream", Counting)
    monkeypatch.setattr(mx, "_BLOCK_ELEMENTS", 40 * 64)  # 64 rows a block
    labels = np.arange(40) % 7 == 0
    sets = [scored(np.random.default_rng(i).random(40), labels) for i in range(3)]
    mx.build_metrics_reports(sets[:1], n_resamples=300, n_draws=5, seed=2)
    one = list(calls)
    calls.clear()
    mx.build_metrics_reports(sets, n_resamples=300, n_draws=5, seed=2)
    assert all(len(size) == 2 and 1 <= size[0] <= 64 and size[1] == 40 for size in one)
    assert len(one) >= 5 and sum(rows for rows, _ in one) >= 300
    assert calls == one


def test_each_shuffle_is_one_k_subset_draw(monkeypatch):
    """A shuffle is drawn as the positions of its k positives: one
    `choice(n, k, replace=False, shuffle=False)` call per draw and no other
    draw, so a return to full permutations of the labels fails here."""
    calls = []
    real_rng = streams.stream

    class Recording:
        def __init__(self, seed):
            self.rng = real_rng(seed)

        def choice(self, *args, **kwargs):
            calls.append(("choice", args, kwargs))
            return self.rng.choice(*args, **kwargs)

        def __getattr__(self, name):  # any other draw, e.g. `permutation`
            calls.append((name,))
            return getattr(self.rng, name)

    n, k, draws = 40, 6, 23
    labels = np.arange(n) % 7 == 0
    sets = [scored(np.random.default_rng(i).random(n), labels) for i in range(3)]
    monkeypatch.setattr(mx, "_BLOCK_ELEMENTS", 5 * k)  # 5 draws a block: a partial last block
    want = mx.seed_mean_permutation_pvalues(sets, mx.REPORT_METRICS, n_draws=draws, seed=8)
    monkeypatch.setattr(mx, "stream", Recording)
    got = mx.seed_mean_permutation_pvalues(sets, mx.REPORT_METRICS, n_draws=draws, seed=8)
    assert calls == [("choice", (n, k), {"replace": False, "shuffle": False})] * draws
    assert got == want


def test_shuffle_nulls_do_not_depend_on_the_block_size(monkeypatch):
    labels = np.arange(60) % 4 == 0  # k = 15
    sets = [scored(np.random.default_rng(i).random(60).round(1), labels) for i in range(2)]
    nulls = []
    for elements in (15, 7 * 15, mx._BLOCK_ELEMENTS):  # 1, 7 and 2184 draws a block
        monkeypatch.setattr(mx, "_BLOCK_ELEMENTS", elements)
        nulls.append(mx._shuffle_nulls(mx._engines(sets, mx.REPORT_METRICS, 0.5), 50, seed=6))
    for other in nulls[1:]:
        for a, b in zip(nulls[0], other):
            assert a.keys() == b.keys()
            for name in a:
                np.testing.assert_array_equal(a[name], b[name], err_msg=name)


def test_shuffles_with_no_positive_and_with_no_negative():
    """k = 0 (the thresholded metrics exist) and k = n (AUPRC exists): every
    draw is the one subset there is, so every null value is the observed one."""
    scores = np.round(RNG.random(30), 1)
    engines = [mx._Engine(scored(scores, np.zeros(30, int)), ("f1", "f1_macro", "accuracy", "mcc")),
               mx._Engine(scored(scores, np.ones(30, int)), ("auprc",))]
    for engine in engines:
        null = mx._shuffle_nulls([engine], 40, seed=3)[0]
        assert null.keys() == engine.observed.keys()
        for name, values in null.items():
            assert np.all(values == engine.observed[name]), name
            assert mx._permutation_result(engine.observed[name], values).p_value == 1.0
    assert engines[1].observed["auprc"] == 1.0


def test_shuffle_nulls_have_the_exact_null_moments():
    """At the acceptance shape (n = 4660, k = 24) over 10 000 draws: the
    AUROC null's mean and variance are the Mann-Whitney moments, 1/2 and
    (n + 1) / (12 k m) for untied scores, and the F1 null's mean is its
    hypergeometric expectation, each within 5 Monte Carlo SEs."""
    n, k, draws = 4660, 24, 10000
    rng = np.random.default_rng(11)
    labels = np.zeros(n, int)
    labels[rng.choice(n, k, replace=False)] = 1
    s = scored(rng.random(n), labels)
    assert np.unique(s.scores).size == n
    engine = mx._Engine(s, ("auroc", "f1"))
    null = mx._shuffle_nulls([engine], draws, seed=12)[0]

    auroc = null["auroc"]
    mean, var = 0.5, (n + 1) / (12.0 * k * (n - k))
    assert abs(auroc.mean() - mean) <= 5 * math.sqrt(var / draws)
    centered = auroc - auroc.mean()
    fourth = np.mean(centered**4)
    assert abs(auroc.var() - var) <= 5 * math.sqrt((fourth - var**2) / draws)

    # true positives among the n_pred predicted items are hypergeometric
    tp = scipy_stats.hypergeom(n, k, engine.n_pred)
    f1 = 2.0 / (engine.n_pred + k)  # F1 = 2 tp / (n_pred + k)
    assert abs(null["f1"].mean() - f1 * tp.mean()) <= 5 * f1 * tp.std() / math.sqrt(draws)


def test_shuffled_positions_are_uniform(monkeypatch):
    """Each draw is k distinct items, and over 20 000 draws at n = 50,
    k = 5 every item is drawn about as often (chi-square)."""
    n, k, draws = 50, 5, 20000
    drawn = []
    on_shuffles = mx._Engine.on_shuffles

    def spy(self, items):
        drawn.append(np.array(items))
        return on_shuffles(self, items)

    labels = np.zeros(n, int)
    labels[:k] = 1
    engine = mx._Engine(scored(RNG.random(n), labels), ("f1",))
    monkeypatch.setattr(mx._Engine, "on_shuffles", spy)
    mx._shuffle_nulls([engine], draws, seed=13)
    items = np.concatenate(drawn)
    assert items.shape == (draws, k)
    assert all(np.unique(row).size == k for row in items)
    counts = np.bincount(items.ravel(), minlength=n)
    assert scipy_stats.chisquare(counts).pvalue > 1e-3


@pytest.mark.parametrize("n,block", [(7, 5), (145, 64), (543, 7), (4660, 7)])
def test_bootstrap_blocks_equal_the_per_row_stack(monkeypatch, n, block):
    """A block draw `integers(0, n, size=(rows, n))` gives, on PCG64, the
    integers of `rows` successive `integers(0, n, size=n)` calls and leaves
    the stream where they leave it: the bootstrap values are those of the
    per-row draws, block size and all."""
    labels = np.arange(n) % 5 == 0
    sets = [scored(np.random.default_rng(i).random(n).round(2), labels) for i in range(2)]
    real_rng = streams.stream

    class PerRow:  # one `integers(0, n, size=n)` call per resample, stacked
        def __init__(self, seed):
            self.rng = real_rng(seed)

        def integers(self, low, high, size):
            return np.stack([self.rng.integers(low, high, size=high) for _ in range(size[0])])

    monkeypatch.setattr(mx, "_BLOCK_ELEMENTS", n * block)
    engines = mx._engines(sets, mx.REPORT_METRICS, 0.5)
    got = mx._bootstrap(engines, 150, seed=3)
    monkeypatch.setattr(mx, "stream", PerRow)
    want = mx._bootstrap(mx._engines(sets, mx.REPORT_METRICS, 0.5), 150, seed=3)
    assert got == want


def test_zero_draws_rejected():
    s = scored([0.9, 0.2, 0.6, 0.1], [1, 0, 1, 0])
    with pytest.raises(ValidationError, match="n_resamples"):
        mx.bootstrap_ci(s, "auprc", n_resamples=0)
    with pytest.raises(ValidationError, match="n_draws"):
        mx.permutation_pvalue(s, "auprc", n_draws=0)
    with pytest.raises(ValidationError, match="n_draws"):
        mx.seed_mean_permutation_pvalues([s, s], mx.REPORT_METRICS, n_draws=-1)
    with pytest.raises(ValidationError):
        mx.build_metrics_report(s, n_resamples=0, n_draws=10)
    with pytest.raises(ValidationError, match="identical label vectors"):
        mx.build_metrics_reports([s, scored(s.scores, [0, 1, 1, 0])])
    with pytest.raises(ValidationError, match="unknown metric"):
        mx.bootstrap_ci(s, mx.auprc, n_resamples=10)
