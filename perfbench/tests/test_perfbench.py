"""The benchmark's own tests: a tiny run of each workload, and proof that
every output check fails on a deliberately wrong output.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

import copy
import dataclasses
import itertools
import json
import os

import numpy as np
import pytest

from kwslab import corpus, synthgen, training
from kwslab import metrics as mx
from kwslab.synthgen import SynthConfig
from perfbench import checks, oracles, workloads
from perfbench.tracer import PER_LAYER, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# 4 sessions x 2 min at 100 Hz, 8 channels; "pu" (rank 9) is ~5% of tokens
TINY = workloads.Size(
    synth={"n_sessions": 4, "session_minutes": 2.0, "vocab_size": 12,
           "zipf_exponent": 0.7, "word_duration_range_s": (0.20, 0.35),
           "gap_range_s": (0.25, 0.45), "snr": 5.0, "n_channels": 8,
           "sample_rate_hz": 100.0},
    keyword="pu", beta_pos_s=0.2, trunk_channels=8, proj_channels=16, batch_size=16,
    noise_std_fraction=0.2, calibration_batches=4, eval_windows=400,
    eval_positives=8, resamples=30, draws=50, eval_setups=2,
)
SEED = 3


def _ready(cls, tmp_path):
    wl = cls(TINY, SEED, str(tmp_path), checks.Checks(), Tracer())
    wl.setup()
    wl.prepare_checks()
    return wl


def _failures(wl, i, out):
    wl.chk = checks.Checks()
    wl.check(i, out)
    return wl.chk.failures


# ---------------------------------------------------------------------------
# tiny runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["train", "score", "evaluate"])
def test_tiny_run_is_correct(workload, tmp_path):
    result = workloads.run(workload, SEED, 0.0, False, str(tmp_path), size=TINY)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] >= workloads.WORKLOADS[workload].min_ops
    assert set(result["metrics"]) == {"setup_s", "op_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer(tmp_path):
    trace_path = str(tmp_path / "trace.json")
    result = workloads.run("train", SEED, 0.0, True, str(tmp_path), size=TINY,
                           trace_path=trace_path)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(PER_LAYER)
    for layer in ("stem", "res", "down", "proj", "heads"):
        assert metrics[f"model.{layer}.fwd_ms"] > 0
        assert metrics[f"model.{layer}.bwd_ms"] > 0
    assert metrics["nncore.conv1d.gflop_per_step"] > 0
    assert metrics["training.checkpoints_written"] >= 1
    # validation scores in eval mode, and every op there records a backward step
    assert metrics["nncore.taped_ops_per_batch"] > 0
    with open(trace_path) as fh:
        payload = json.load(fh)
    assert payload["spans"] and "training.step" in payload["self_ms_by_name"]


def test_tracer_counts_only_inside_operations():
    tracer = Tracer()
    pair = ([0.2, 0.7], [0, 1])
    with tracer.active("setup"):
        mx.ScoredSet(*pair)
    with tracer.active("operation"):
        mx.ScoredSet(*pair)
        mx.ScoredSet(*pair)
    with tracer.active("operation"):
        mx.ScoredSet(*pair)
    assert tracer.per_layer()["metrics.scoredsets_built"] == 1.5


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "op_s", "peak_rss_mb"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def test_oracles_agree_with_brute_force_enumeration():
    rng = np.random.default_rng(0)
    scores = np.round(rng.random(40), 1)  # many ties
    labels = (rng.random(40) < 0.3).astype(int)
    # AP as the step-wise sum over the tie-grouped PR curve
    thresholds, precision, recall = oracles.pr_points(scores, labels)
    step = float(np.sum(np.diff(np.concatenate([[0.0], recall])) * precision))
    assert oracles.average_precision(scores, labels) == pytest.approx(step, abs=1e-12)
    # exact E[AP] by enumerating every placement of 2 positives among 6
    aps = [np.mean([(j + 1) / (r + 1) for j, r in enumerate(pos)])
           for pos in itertools.combinations(range(6), 2)]
    assert oracles.expected_random_ap(6, 2) == pytest.approx(np.mean(aps), abs=1e-12)


# ---------------------------------------------------------------------------
# each check fails on a wrong output
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def evaluate_run(tmp_path_factory):
    wl = _ready(workloads.Evaluate, tmp_path_factory.mktemp("evaluate"))
    out = wl.op(0)
    assert _failures(wl, 0, out) == []
    return wl, out


def _entry(out, model, name, **changes):
    bad = copy.deepcopy(out)
    report = bad[0][model]
    report.entries[name] = dataclasses.replace(report.entries[name], **changes)
    return bad


@pytest.mark.parametrize("name,field,delta", [
    ("auprc", "value", 1e-6),
    ("auroc", "value", -1e-6),
    ("mcc", "value", 1e-9),
    ("auprc", "baseline", 0.1),
    ("f1", "baseline", 0.1),
    ("auroc", "p_value", 0.001),
    ("accuracy", "se", 1e-9),
])
def test_evaluate_check_catches_wrong_report(evaluate_run, name, field, delta):
    wl, out = evaluate_run
    entry = out[0][1].entries[name]
    bad = _entry(out, 1, name, **{field: getattr(entry, field) + delta})
    assert _failures(wl, 0, bad)


def test_evaluate_check_catches_unordered_interval(evaluate_run):
    wl, out = evaluate_run
    e = out[0][0].entries["auprc"]
    bad = _entry(out, 0, "auprc", ci_lo=e.ci_hi, ci_hi=e.ci_lo, se=(e.ci_lo - e.ci_hi) / 3.92)
    assert _failures(wl, 0, bad)


def test_evaluate_check_catches_wrong_seed_mean(evaluate_run):
    wl, out = evaluate_run
    for field, delta in (("observed", 1e-6), ("null_mean", 0.2), ("p_value", 0.003)):
        bad = copy.deepcopy(out)
        result = bad[1]["auroc"]
        bad[1]["auroc"] = dataclasses.replace(result, **{field: getattr(result, field) + delta})
        assert _failures(wl, 0, bad), field


def test_evaluate_check_catches_wrong_operating_points(evaluate_run):
    wl, out = evaluate_run
    sc, min_fa, fp, max_recall, envelope = out[2][1]
    variants = [
        (1, dataclasses.replace(min_fa[0], fa_per_hour=min_fa[0].fa_per_hour + 0.01)),
        (1, dataclasses.replace(min_fa[0], recall=min_fa[0].recall + 1e-9)),
        (2, [fp[0] + 1.0] + fp[1:]),
        (3, {**max_recall, 2.0: [dataclasses.replace(max_recall[2.0][0],
                                                      feasible=not max_recall[2.0][0].feasible)]
             + max_recall[2.0][1:]}),
        (4, [envelope[0][:-1]] + envelope[1:]),
        (4, [[(fa, r * 0.5) for fa, r in envelope[0]]] + envelope[1:]),
    ]
    for slot, value in variants:
        bad = copy.deepcopy(out)
        scenario = list(bad[2][1])
        if slot == 1:
            scenario[1] = [value] + scenario[1][1:]
        else:
            scenario[slot] = value
        bad[2][1] = tuple(scenario)
        assert _failures(wl, 0, bad), (slot, value)


@pytest.fixture(scope="module")
def score_run(tmp_path_factory):
    wl = _ready(workloads.Score, tmp_path_factory.mktemp("score"))
    out = wl.op(0)
    assert _failures(wl, 0, out) == []
    return wl, out


def _with_rows(out, partition, rows=None, back=None):
    bad = dict(out)
    old_rows, old_back = out[partition]
    bad[partition] = (old_rows if rows is None else rows, old_back if back is None else back)
    return bad


def test_score_check_catches_one_flipped_score(score_run):
    wl, out = score_run
    rows = list(out["test"][0])
    rows[2] = dataclasses.replace(rows[2], score=1.0 - rows[2].score)
    assert _failures(wl, 1, _with_rows(out, "test", rows=rows))


def test_score_check_catches_a_batch_size_dependence(score_run):
    wl, out = score_run
    rows = list(out["validation"][0])
    rows[0] = dataclasses.replace(rows[0], score=rows[0].score + 2 * workloads.BATCH_SIZE_TOL)
    chk = checks.Checks()
    checks.check_batch_independence(chk, rows, wl.alt_batch["validation"],
                                    workloads.BATCH_SIZE_TOL, "validation")
    assert chk.failures


def test_score_check_catches_a_lossy_csv(score_run):
    wl, out = score_run
    back = list(out["train"][1])
    back[3] = dataclasses.replace(back[3], score=float(np.float32(back[3].score) + 1e-7))
    assert _failures(wl, 1, _with_rows(out, "train", back=back))


@pytest.mark.parametrize("cut", [
    lambda task, ref: task.signals[ref.session_id][:, ref.start + 1:
                                                   ref.start + 1 + task.n_window_samples],
    lambda task, ref: 1.01 * task.signals[ref.session_id][:, ref.start:
                                                          ref.start + task.n_window_samples],
], ids=["shifted", "scaled"])
def test_score_check_catches_wrong_windows(score_run, monkeypatch, cut):
    wl, _ = score_run
    monkeypatch.setattr(training.TaskData, "window", cut)
    assert _failures(wl, 1, wl.op(1))


def test_score_check_catches_a_dropped_window(score_run):
    wl, out = score_run
    rows, back = out["train"]
    assert _failures(wl, 1, _with_rows(out, "train", rows=rows[:-1], back=back[:-1]))


def test_score_reference_catches_an_altered_checkpoint_byte(score_run, tmp_path):
    wl, out = score_run
    with open(wl.ckpt, "rb") as fh:
        blob = bytearray(fh.read())
    blob[-1] ^= 0x40  # top byte of the last float: 0.0 becomes 2.0
    bad_path = tmp_path / "bad.ckpt"
    bad_path.write_bytes(bytes(blob))
    arrays, meta = oracles.read_checkpoint(str(bad_path))
    refs = wl.task.partitions["test"]
    chk = checks.Checks()
    checks.check_scores(chk, out["test"][0],
                        oracles.reference_forward(arrays, meta, wl.task.stack(refs)),
                        workloads.SCORE_TOL, "test")
    assert chk.failures
    chk = checks.Checks()
    checks.check_same_bytes(chk, checks.file_digest(wl.ckpt), checks.file_digest(bad_path),
                            "checkpoint")
    assert chk.failures


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    wl = _ready(workloads.Train, tmp_path_factory.mktemp("train"))
    out = wl.op(0)
    report, steps, path = out
    kept = copy.deepcopy(report)
    assert _failures(wl, 0, out) == []
    return wl, kept, steps


def test_train_check_catches_wrong_training(train_run):
    wl, report, steps = train_run
    r = report.records
    nan_loss = dataclasses.replace(report, records=[dataclasses.replace(r[0], train_loss=np.nan)]
                                   + r[1:])
    rising = dataclasses.replace(report, records=[r[0], dataclasses.replace(
        r[-1], train_loss=r[0].train_loss * 1.01)])
    for bad_report, bad_steps in ((nan_loss, steps), (rising, steps), (report, steps - 1)):
        chk = checks.Checks()
        checks.check_training(chk, bad_report, workloads.EPOCHS, bad_steps, wl.expected_steps)
        assert chk.failures


def test_train_check_catches_an_unlearned_detector(train_run):
    wl, _, _ = train_run
    labels = wl.task.labels("train")
    chk = checks.Checks()
    checks.check_learned(chk, np.random.default_rng(0).random(labels.size), labels)
    assert chk.failures


def test_setup_check_catches_a_changed_sample(tmp_path):
    sessions, _ = synthgen.generate_corpus(SynthConfig(seed=SEED, **TINY.synth))
    corpus.save_corpus(sessions, str(tmp_path), synthgen.default_split(sessions))
    loaded, _ = corpus.load_corpus(str(tmp_path))
    chk = checks.Checks()
    checks.check_corpus_roundtrip(chk, sessions, loaded)
    assert chk.failures == []
    loaded[1].signal[3, 100] = np.nextafter(loaded[1].signal[3, 100], np.float32(np.inf))
    loaded[2].events = loaded[2].events[1:]
    checks.check_corpus_roundtrip(chk, sessions, loaded)
    assert len(chk.failures) == 2
