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

from ..metrics import PRPoint


@lru_cache(maxsize=1)
def load_reference_tables() -> dict:
    path = resources.files("kwslab.fixtures").joinpath("reference_tables.json")
    with path.open(encoding="utf-8") as fh:
        return json.load(fh)


def reference_operating_curves() -> list[list[PRPoint]]:
    """Per-seed PR curves from the operating-point snapshot fixture."""
    tables = load_reference_tables()
    curves = []
    for curve in tables["operating_points"]["per_seed_curves"]:
        curves.append(
            [
                PRPoint(threshold=p["threshold"], precision=p["precision"], recall=p["recall"])
                for p in curve
            ]
        )
    return curves
