"""The benchmark tracer (perfbench/tracer.py) wraps kwslab functions by name,
such as `nncore.sum_all`, `training.prepare_task` or
`metrics.permutation_pvalue`. Entering one of its blocks here makes a rename
or removal of any of those names fail this suite, not only the benchmark's
own tests. The `score` and `evaluate` workloads' checks run here too, at a
tiny size, and so do traced `train` and `score` runs and the per-layer
figures they report."""

import os
import sys

import pytest

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


def _tiny_size(snr=1.2, keyword="ri", **fields):
    from perfbench.workloads import Size

    return Size(synth={"n_sessions": 4, "session_minutes": 1.5, "vocab_size": 12,
                       "zipf_exponent": 0.7, "word_duration_range_s": (0.20, 0.35),
                       "gap_range_s": (0.25, 0.45), "snr": snr, "n_channels": 8,
                       "sample_rate_hz": 100.0},
                keyword=keyword, beta_pos_s=0.2, **fields)


def test_traced_corpus_setup_times_every_stage(tmp_path):
    # the tracer keeps one span stack for the calling thread, so a set-up
    # stage that ran a wrapped function on a worker thread would misnest
    from perfbench import checks
    from perfbench.workloads import corpus_setup

    size = _tiny_size()
    chk = checks.Checks()
    tracer = Tracer()
    with tracer.active("setup"):
        task, loaded, elapsed = corpus_setup(size, 5, str(tmp_path), chk)
    assert chk.ok, chk.failures
    assert len(loaded) == 4 and elapsed > 0 and task.partitions["train"]
    stages = ("synthgen.generate_corpus", "corpus.save_corpus", "corpus.load_corpus",
              "training.prepare_task")
    layer = tracer.per_layer()
    for stage in stages:
        assert layer[f"{stage}_s"] > 0, stage
    root = [i for i, s in enumerate(tracer.spans) if s[0] == "setup"]
    assert len(root) == 1
    assert all(s[4] >= s[3] > 0 for s in tracer.spans)  # every span closed
    assert sorted(s[0] for s in tracer.spans if s[5] == root[0]) == sorted(stages)


def test_score_workload_matches_the_float64_oracle(tmp_path):
    # every score within SCORE_TOL of the benchmark's plain-numpy float64
    # forward, and equal at batch sizes 64 and 17 within BATCH_SIZE_TOL
    from perfbench.workloads import run

    result = run("score", seed=3, seconds=0.0, trace=False, workdir=str(tmp_path),
                 size=_tiny_size(calibration_batches=4))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1


def test_evaluate_workload_matches_the_oracles(tmp_path):
    # bootstrap CIs, permutation nulls, seed-mean tests and operating points
    # of three score vectors, each checked against the benchmark's oracles
    from perfbench.workloads import run

    result = run("evaluate", seed=3, seconds=0.0, trace=False, workdir=str(tmp_path),
                 size=_tiny_size(eval_windows=400, eval_positives=8, resamples=30, draws=50,
                                 eval_setups=2))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1


@pytest.mark.parametrize("workload", ["train", "score"])
def test_tiny_traced_run_times_every_layer(tmp_path, workload):
    # validation and scoring run under no_grad, so no op of an eval batch is taped
    from perfbench.workloads import run

    size = _tiny_size(snr=5.0, keyword="pu", trunk_channels=8, proj_channels=16,
                      batch_size=16, calibration_batches=4)
    result = run(workload, seed=3, seconds=0.0, trace=True, workdir=str(tmp_path), size=size)
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["nncore.conv1d.eval_fwd_ms"] > 0
    assert metrics["nncore.taped_ops_per_batch"] == 0
    if workload == "train":
        for layer in ("stem", "res", "down", "proj", "heads"):
            assert metrics[f"model.{layer}.fwd_ms"] > 0, layer
            assert metrics[f"model.{layer}.bwd_ms"] > 0, layer
        assert metrics["nncore.conv1d.gflop_per_step"] > 0
        # reads 0 if the training batch stops calling training.augment_window
        assert metrics["sampling.augment_window_ms"] > 0
