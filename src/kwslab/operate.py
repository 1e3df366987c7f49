"""Threshold selection and scenario-grounded operating-point translation:
false alarms, misses, and detections per hour under an assumed event rate."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import UndefinedOperatingPointError, ValidationError
from .metrics import PRCurve


@dataclass(frozen=True)
class Scenario:
    name: str
    lambda_per_hour: float

    def __post_init__(self):
        if not 0 < self.lambda_per_hour < np.inf:
            raise ValidationError("lambda_per_hour must be > 0 and finite")


ASSISTIVE = Scenario("assistive", 2.0)
HANDS_FREE = Scenario("hands_free", 10.0)


@dataclass(frozen=True)
class OperatingPoint:
    threshold: float
    precision: float
    recall: float
    scenario: Scenario
    fa_per_hour: float
    misses_per_hour: float
    detections_per_hour: float
    feasible: bool = True

    def to_dict(self) -> dict:
        return {**asdict(self), "scenario": self.scenario.name,
                "lambda_per_hour": self.scenario.lambda_per_hour}


def _split_rate(lam: float, detections: float):
    """Adjust (detections, misses) within a ulp of (lam*R, lam*(1-R)) so that
    detections + misses == lam holds bit-exactly. Round-to-nearest-even ties
    can make lam unreachable for a given detections value, in which case
    detections is realigned by one ulp and the complement retried."""
    for _ in range(64):
        misses = lam - detections
        total = detections + misses
        if total == lam:
            return detections, misses
        compensated = misses - (total - lam)
        if detections + compensated == lam:
            return detections, compensated
        detections = float(np.nextafter(detections, 0.0))
    raise ArithmeticError("could not split the event rate exactly")


def translate(precision: float, recall: float, scenario: Scenario):
    """(FA/h, Misses/h, Detections/h) for a (P, R) pair at event rate lambda.

    FA/h = R * (1/P - 1) * lambda, and 0 at R = 0 even where 1/P overflows.
    Detections and misses are each within one ulp of lambda*R and
    lambda*(1-R), paired so their sum is exactly lambda.
    """
    if precision <= 0:
        raise UndefinedOperatingPointError("FA/h undefined at zero precision")
    if not 0 < precision <= 1 or not 0 <= recall <= 1:
        raise ValidationError("need P in (0, 1] and R in [0, 1]")
    lam = scenario.lambda_per_hour
    fa = recall * (1.0 / precision - 1.0) * lam if recall else 0.0
    detections, misses = _split_rate(lam, lam * recall)
    return fa, misses, detections


def _as_operating_point(curve: PRCurve, i: int, scenario: Scenario,
                        feasible: bool) -> OperatingPoint:
    precision, recall = float(curve.precision[i]), float(curve.recall[i])
    fa, misses, detections = translate(precision, recall, scenario)
    return OperatingPoint(
        threshold=float(curve.threshold[i]),
        precision=precision,
        recall=recall,
        scenario=scenario,
        fa_per_hour=fa,
        misses_per_hour=misses,
        detections_per_hour=detections,
        feasible=feasible,
    )


def _translatable(curve: PRCurve):
    """The indices of the curve points with nonzero precision, and their
    recall, precision, threshold and FA/h per unit lambda, in curve order."""
    keep = np.flatnonzero(curve.precision > 0)
    if not keep.size:
        raise UndefinedOperatingPointError("no curve point has nonzero precision")
    recall, precision, threshold = curve.recall[keep], curve.precision[keep], curve.threshold[keep]
    fa = np.multiply(recall, 1.0 / precision - 1.0, out=np.zeros_like(recall),
                     where=recall != 0)
    return keep, recall, precision, threshold, fa


def _pick(curve: PRCurve, kept, scenario: Scenario, qualifying, best, fallback) -> OperatingPoint:
    """The first qualifying point with the lexicographically least `best`
    keys (most significant first); with none qualifying, the first point
    with the least `fallback` keys, flagged infeasible."""
    feasible = bool(qualifying.any())
    order = np.lexsort((best if feasible else fallback)[::-1])  # stable: ties keep curve order
    if feasible:
        order = order[qualifying[order]]
    return _as_operating_point(curve, kept[order[0]], scenario, feasible)


def select_threshold_max_recall(curve: PRCurve, scenario: Scenario,
                                fa_budget: float) -> OperatingPoint:
    """Max recall subject to FA/h <= budget; ties prefer higher precision,
    then higher threshold. With no qualifying point, the minimal-FA/h point
    is returned flagged infeasible."""
    kept, recall, precision, threshold, fa = _translatable(curve)
    return _pick(curve, kept, scenario, fa * scenario.lambda_per_hour <= fa_budget,
                 (-recall, -precision, -threshold), (fa, -recall, -threshold))


def select_threshold_min_fa(curve: PRCurve, scenario: Scenario,
                            target_recall: float) -> OperatingPoint:
    """Min FA/h subject to recall >= target; ties prefer higher threshold.
    With no qualifying point, the max-recall point is returned flagged
    infeasible."""
    kept, recall, _, threshold, fa = _translatable(curve)
    return _pick(curve, kept, scenario, recall >= target_recall, (fa, -threshold),
                 (-recall, fa, -threshold))


def empirical_fp_per_hour(scores, labels, tau: float, window_s: float) -> float:
    """False positives at tau divided by the labelled coverage
    n * window_s / 3600 (window-time, not wall time)."""
    if not 0 < window_s < np.inf:
        raise ValidationError("window_s must be > 0 and finite")
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValidationError("scores and labels must be equal-length vectors")
    fp = int(np.sum((scores >= tau) & (labels == 0)))
    hours = scores.size * window_s / 3600.0
    return fp / hours


def recall_vs_fa_curve(curve: PRCurve, scenario: Scenario) -> list[tuple[float, float]]:
    """Translated (FA/h, recall) points sorted by FA/h, recall forced
    non-decreasing by the upper envelope."""
    _, recall, _, _, fa = _translatable(curve)
    fa = fa * scenario.lambda_per_hour
    order = np.lexsort((recall, fa))
    envelope = np.maximum.accumulate(np.maximum(recall[order], 0.0))
    return list(zip(fa[order].tolist(), envelope.tolist()))
