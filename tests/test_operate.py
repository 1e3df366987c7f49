import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    curve_of,
    curve_points,
    loop_recall_vs_fa_curve,
    loop_select_threshold_max_recall,
    loop_select_threshold_min_fa,
)
from kwslab.errors import UndefinedOperatingPointError, ValidationError
from kwslab.fixtures import load_reference_tables, reference_operating_curves
from kwslab.operate import (
    ASSISTIVE,
    HANDS_FREE,
    Scenario,
    empirical_fp_per_hour,
    recall_vs_fa_curve,
    select_threshold_max_recall,
    select_threshold_min_fa,
    translate,
)

# (threshold, precision, recall) points
THREE_POINT_CURVE = curve_of([(0.9, 1.0, 0.2), (0.6, 0.5, 0.5), (0.3, 0.1, 0.9)])


class TestTranslate:
    def test_perfect_detector(self):
        assert translate(1.0, 1.0, ASSISTIVE) == (0.0, 0.0, 2.0)

    def test_half_precision(self):
        fa, misses, detections = translate(0.5, 1.0, ASSISTIVE)
        assert (fa, misses, detections) == (2.0, 0.0, 2.0)

    def test_published_operating_value(self):
        # precision inverted from FA/h = 2.194 at R = 0.10, lambda = 2
        precision = 1.0 / (1.0 + 2.194 / (0.10 * 2.0))
        fa, _, _ = translate(precision, 0.10, ASSISTIVE)
        assert fa == pytest.approx(2.194, abs=1e-9)
        assert precision == pytest.approx(0.0836, abs=1e-4)

    def test_zero_precision_undefined(self):
        with pytest.raises(UndefinedOperatingPointError):
            translate(0.0, 0.5, ASSISTIVE)

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            translate(1.1, 0.5, ASSISTIVE)
        with pytest.raises(ValidationError):
            translate(0.5, 1.5, ASSISTIVE)

    @given(
        precision=st.floats(1e-3, 1.0), recall=st.floats(0.0, 1.0),
        lam=st.floats(0.01, 500.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_identity_and_doubling(self, precision, recall, lam):
        scenario = Scenario("x", lam)
        fa, misses, detections = translate(precision, recall, scenario)
        assert detections + misses == lam  # bit-exact by construction
        fa2, misses2, detections2 = translate(precision, recall, Scenario("y", 2 * lam))
        assert fa2 == pytest.approx(2 * fa, rel=1e-12)
        assert detections2 == pytest.approx(2 * detections, rel=1e-12)

    def test_scenario_validation(self):
        with pytest.raises(ValidationError):
            Scenario("bad", 0.0)

    def test_zero_recall_is_zero_fa_at_subnormal_precision(self):
        # 1/P overflows to inf here; FA/h at zero recall is still 0, not NaN
        assert translate(2.2e-313, 0.0, ASSISTIVE) == (0.0, 2.0, 0.0)
        assert translate(2.2e-313, 0.5, ASSISTIVE)[0] == math.inf


class TestSelectMaxRecall:
    def test_enumerated_curve(self):
        # FA/h at lambda=2: (0, 1.0, 16.2)
        point = select_threshold_max_recall(THREE_POINT_CURVE, ASSISTIVE, 2.0)
        assert point.recall == 0.5 and point.feasible
        assert point.fa_per_hour == pytest.approx(1.0)

    def test_infinite_budget_max_recall(self):
        point = select_threshold_max_recall(THREE_POINT_CURVE, ASSISTIVE, np.inf)
        assert point.recall == 0.9

    def test_zero_budget(self):
        point = select_threshold_max_recall(THREE_POINT_CURVE, ASSISTIVE, 0.0)
        assert point.feasible  # a P=1 point exists with FA/h = 0
        assert point.precision == 1.0
        no_perfect = curve_of(curve_points(THREE_POINT_CURVE)[1:])
        fallback = select_threshold_max_recall(no_perfect, ASSISTIVE, 0.0)
        assert not fallback.feasible
        assert fallback.fa_per_hour == pytest.approx(1.0)  # minimal-FA point

    def test_budget_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            curve = curve_of(zip(
                np.sort(rng.random(n))[::-1],
                rng.uniform(0.05, 1.0, n),
                np.sort(rng.random(n)),
            ))
            budgets = np.sort(rng.uniform(0, 20, 5))
            recalls = [
                select_threshold_max_recall(curve, ASSISTIVE, b).recall for b in budgets
            ]
            assert recalls == sorted(recalls)

    def test_returns_curve_member(self):
        point = select_threshold_max_recall(THREE_POINT_CURVE, ASSISTIVE, 2.0)
        assert (point.threshold, point.precision, point.recall) in curve_points(
            THREE_POINT_CURVE)


class TestSelectMinFa:
    def test_enumerated_curve(self):
        point = select_threshold_min_fa(THREE_POINT_CURVE, ASSISTIVE, 0.5)
        assert point.recall == 0.5 and point.precision == 0.5
        assert point.fa_per_hour == pytest.approx(1.0)
        assert point.feasible

    def test_target_zero_global_min(self):
        point = select_threshold_min_fa(THREE_POINT_CURVE, ASSISTIVE, 0.0)
        assert point.fa_per_hour == 0.0 and point.recall == 0.2

    def test_target_one_infeasible_flag(self):
        point = select_threshold_min_fa(THREE_POINT_CURVE, ASSISTIVE, 1.0)
        assert not point.feasible
        assert point.recall == 0.9  # max-recall fallback

    def test_tie_prefers_higher_threshold(self):
        curve = curve_of([(0.8, 0.5, 0.5), (0.4, 0.5, 0.5)])
        point = select_threshold_min_fa(curve, ASSISTIVE, 0.4)
        assert point.threshold == 0.8


class TestEmpiricalFp:
    def test_zero_false_positives(self):
        assert empirical_fp_per_hour([0.1, 0.2], [0, 0], 0.5, 1.0) == 0.0

    def test_published_coverage_magnitude(self):
        # n = 4660 windows of 1.05 s is about 1.359 h of labelled coverage;
        # 22 false positives land near the reported magnitude
        n = 4660
        scores = np.zeros(n)
        scores[:22] = 1.0
        labels = np.zeros(n, int)
        hours = n * 1.05 / 3600.0
        assert hours == pytest.approx(1.35917, abs=1e-4)
        rate = empirical_fp_per_hour(scores, labels, 0.5, 1.05)
        assert rate == pytest.approx(22 / hours, rel=1e-12)
        assert rate == pytest.approx(16.2, abs=0.02)

    def test_saturation(self):
        n = 100
        labels = np.zeros(n, int)
        labels[:10] = 1
        rate = empirical_fp_per_hour(np.ones(n), labels, 0.5, 2.0)
        assert rate == pytest.approx(90 * 3600 / (n * 2.0), rel=1e-12)

    def test_window_contract(self):
        with pytest.raises(ValidationError):
            empirical_fp_per_hour([0.1], [0], 0.5, 0.0)


class TestRecallVsFaCurve:
    def test_perfect_detector_single_point(self):
        curve = curve_of([(0.5, 1.0, 1.0)])
        assert recall_vs_fa_curve(curve, ASSISTIVE) == [(0.0, 1.0)]

    def test_three_point_translation(self):
        # hand translation 2 * R * (1/P - 1): (0, 1.0, 16.2); recall already
        # increasing so the envelope changes nothing
        points = recall_vs_fa_curve(THREE_POINT_CURVE, ASSISTIVE)
        assert [fa for fa, _ in points] == pytest.approx([0.0, 1.0, 16.2])
        assert [r for _, r in points] == pytest.approx([0.2, 0.5, 0.9])

    def test_envelope_monotone(self):
        rng = np.random.default_rng(3)
        curve = curve_of(zip(rng.random(30), rng.uniform(0.01, 1, 30), rng.random(30)))
        out = recall_vs_fa_curve(curve, HANDS_FREE)
        fas = [fa for fa, _ in out]
        recalls = [r for _, r in out]
        assert fas == sorted(fas)
        assert recalls == sorted(recalls)

    def test_zero_recall_point_at_subnormal_precision(self):
        curve = curve_of([(0.9, 2.2e-313, 0.0), (0.5, 0.5, 0.5), (0.2, 0.25, 1.0)])
        assert recall_vs_fa_curve(curve, ASSISTIVE) == [(0.0, 0.0), (1.0, 0.5), (6.0, 1.0)]
        point = select_threshold_min_fa(curve, ASSISTIVE, 0.0)
        assert (point.threshold, point.fa_per_hour) == (0.9, 0.0)


class TestReferenceFixtureCurves:
    def test_snapshot_rows_reproduced(self):
        tables = load_reference_tables()["operating_points"]
        curves = reference_operating_curves()
        scenario = Scenario(**tables["scenario"])
        target = tables["target_recall"]

        fa_values = [
            select_threshold_min_fa(c, scenario, target).fa_per_hour for c in curves
        ]
        assert np.mean(fa_values) == pytest.approx(
            tables["rows"]["fa_at_target_recall"], abs=1e-3
        )
        for budget, key in ((2.0, "recall_at_budget_2.0"), (0.5, "recall_at_budget_0.5")):
            recalls = [
                select_threshold_max_recall(c, scenario, budget).recall for c in curves
            ]
            assert np.mean(recalls) == pytest.approx(tables["rows"][key], abs=1e-12)

    def test_lambda_scaling_on_fixture(self):
        # identical (P, R) points: a 5x event rate scales all rates 5x
        curves = reference_operating_curves()
        for curve in curves:
            a = select_threshold_min_fa(curve, ASSISTIVE, 0.1)
            b = select_threshold_min_fa(curve, HANDS_FREE, 0.1)
            assert (a.threshold, a.precision, a.recall) == (b.threshold, b.precision, b.recall)
            assert b.fa_per_hour == pytest.approx(5 * a.fa_per_hour, rel=1e-12)
            assert b.detections_per_hour == pytest.approx(5 * a.detections_per_hour, rel=1e-12)


@st.composite
def tied_curves(draw):
    """Curve points from a few levels, so recalls, precisions, FA/h and
    thresholds tie, zero-precision and subnormal-precision points included
    (1/P overflows there, giving infinite FA/h, or 0 at zero recall)."""
    def level(*values):
        return st.one_of(st.sampled_from(values), st.floats(0, 1))

    return curve_of([
        (draw(level(0.2, 0.5, 0.8)),  # threshold
         draw(level(0.0, 2.2e-313, 0.25, 0.5, 1.0)),  # precision
         draw(level(0.0, 0.25, 0.5, 1.0)))  # recall
        for _ in range(draw(st.integers(0, 12)))
    ])


def outcome(select, *args):
    try:
        return select(*args)
    except UndefinedOperatingPointError as exc:
        return type(exc)


@given(curve=tied_curves(), lam=st.sampled_from([2.0, 10.0, 3.7]),
       budget=st.one_of(st.sampled_from([0.0, 0.5, 2.0, math.inf]), st.floats(0, 50)),
       target=st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.1]), st.floats(0, 1)))
@settings(max_examples=300, deadline=None)
def test_array_selection_matches_the_loop(curve, lam, budget, target):
    scenario = Scenario("s", lam)
    assert outcome(select_threshold_max_recall, curve, scenario, budget) == outcome(
        loop_select_threshold_max_recall, curve, scenario, budget)
    assert outcome(select_threshold_min_fa, curve, scenario, target) == outcome(
        loop_select_threshold_min_fa, curve, scenario, target)
    assert outcome(recall_vs_fa_curve, curve, scenario) == outcome(
        loop_recall_vs_fa_curve, curve, scenario)


@given(points=st.lists(st.tuples(st.floats(0, 1), st.floats(1e-6, 1), st.floats(0, 1)),
                       min_size=1, max_size=8),
       lam=st.one_of(st.sampled_from([2.0, 10.0]), st.floats(0.01, 500)),
       pick=st.integers(0, 7), data=st.data())
@settings(max_examples=300, deadline=None)
def test_feasible_point_is_within_its_budget(points, lam, pick, data):
    # translate used to compute R * lambda * (1/P - 1) and the selections
    # R * (1/P - 1) * lambda: a point kept at FA/h <= budget could report an
    # FA/h one ulp above it, and the JSON and the CSV disagreed
    curve, scenario = curve_of(points), Scenario("s", lam)
    csv_fa = [fa for fa, _ in recall_vs_fa_curve(curve, scenario)]
    budget = data.draw(st.sampled_from(csv_fa))  # a budget on a point's FA/h
    point = select_threshold_max_recall(curve, scenario, budget)
    assert point.feasible and point.fa_per_hour <= budget
    assert point.fa_per_hour in csv_fa
    point = select_threshold_min_fa(curve, scenario, points[pick % len(points)][2])
    assert point.fa_per_hour in csv_fa
