"""Loader for the bundled reference-values fixture.

The fixture freezes published reference numbers (headline metrics,
operating-point snapshot with per-seed curves, the temporal-offset grid) so
the statistics and operating-point utilities can be validated without
retraining anything.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

import numpy as np

from ..metrics import PRCurve


@lru_cache(maxsize=1)
def load_reference_tables() -> dict:
    path = resources.files("kwslab.fixtures").joinpath("reference_tables.json")
    with path.open(encoding="utf-8") as fh:
        return json.load(fh)


def reference_operating_curves() -> list[PRCurve]:
    """Per-seed PR curves from the operating-point snapshot fixture."""
    return [PRCurve(*(np.array([p[f] for p in curve], dtype=np.float64)
                      for f in ("threshold", "precision", "recall")))
            for curve in load_reference_tables()["operating_points"]["per_seed_curves"]]
