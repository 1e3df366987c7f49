"""The benchmark tracer (perfbench/tracer.py) wraps kwslab functions by name,
such as `nncore.sum_all`, `training.prepare_task` or
`metrics.permutation_pvalue`. Entering one of its blocks here makes a rename
or removal of any of those names fail this suite, not only the benchmark's
own tests."""

import os
import sys

import kwslab.metrics as mx
import kwslab.nncore as nc
import kwslab.training as training

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.tracer import Tracer  # noqa: E402


def test_tracer_wraps_and_restores_every_name():
    originals = (nc.sum_all, training.prepare_task, mx.permutation_pvalue)
    tracer = Tracer()
    with tracer.active("operation"):
        assert nc.sum_all is not originals[0]
        mx.ScoredSet([0.2, 0.7], [0, 1])
    assert (nc.sum_all, training.prepare_task, mx.permutation_pvalue) == originals
    assert tracer.per_layer()["metrics.scoredsets_built"] == 1
