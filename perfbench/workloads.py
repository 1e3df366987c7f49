"""The benchmark's three workloads and the loop that runs one of them.

Each workload sets up its inputs from the workload seed, repeats one
operation until the run's seconds are used up, checking every operation's
outputs, and then repeats the set-up to report its median time:

- train: one `training.train` call of fixed length (nncore forward and
  backward, AdamW, sampling, losses);
- score: `training.evaluate` over every window of the three partitions,
  each written with `write_scores_csv` and read back (forward-only nncore);
- evaluate: the statistics of `kwslab evaluate` and `operating-points` on
  three seeded score vectors (metrics and operate only).
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from kwslab import corpus, operate, synthgen, training
from kwslab import metrics as mx
from kwslab import nncore as nc
from kwslab.losses import LossConfig
from kwslab.model import DetectorModel, ModelConfig
from kwslab.sampling import SamplerConfig
from kwslab.synthgen import SynthConfig

from . import checks, oracles
from .tracer import PER_LAYER, Tracer

PARTITIONS = ("train", "validation", "test")
POSITIVE_FRACTION = 0.5
# evaluation settings of configs/synthetic.json
TAU = 0.5
STAT_SEED = 0
TARGET_RECALL = 0.10
FA_BUDGETS = (2.0, 0.5)
SCENARIOS = (operate.ASSISTIVE, operate.HANDS_FREE)
EVAL_WINDOW_S = 0.9  # beta_neg 0.1 + longest keyword 0.5 + beta_pos 0.3
EVAL_AUROC = 0.80  # separation of the synthetic score vectors (the paper's AUROC)
EVAL_LOGIT_OFFSET = 2.0  # ~2% of negatives score >= tau
# float32 forward against the float64 reference, in probability
SCORE_TOL = 1e-6
BATCH_SIZE_TOL = 1e-6
ALT_BATCH_SIZE = 17
BETA_NEG_S = 0.1
EPOCHS = 2
CORPUS_SETUPS = 2
EVAL_MODELS = 3


@dataclass(frozen=True)
class Size:
    """Input make-up of the workloads."""

    synth: dict = field(default_factory=lambda: {
        "n_sessions": 8, "session_minutes": 10.0, "n_channels": 32, "sample_rate_hz": 250.0})
    keyword: str = "tori"
    beta_pos_s: float = 0.3
    trunk_channels: int = 16
    proj_channels: int = 32
    batch_size: int = 32
    noise_std_fraction: float = 0.3
    calibration_batches: int = 20
    eval_windows: int = 4660
    eval_positives: int = 24
    resamples: int = 100
    draws: int = 100
    eval_setups: int = 15

    def model_config(self, n_channels: int) -> ModelConfig:
        return ModelConfig(in_channels=n_channels, trunk_channels=self.trunk_channels,
                           proj_channels=self.proj_channels)

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(batch_size=self.batch_size,
                             positive_fraction=POSITIVE_FRACTION,
                             noise_std_fraction=self.noise_std_fraction)


FULL = Size()


def _log(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


@contextmanager
def _count_calls(owner, attr):
    calls = [0]
    original = getattr(owner, attr)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    setattr(owner, attr, counting)
    try:
        yield calls
    finally:
        setattr(owner, attr, original)


def corpus_setup(size: Size, seed: int, workdir: str, chk: checks.Checks):
    """Generate the corpus, save and reload it, and prepare the task.

    Returns (task, loaded sessions, seconds); the seconds leave out the
    round-trip check.
    """
    t0 = time.perf_counter()
    sessions, _ = synthgen.generate_corpus(SynthConfig(seed=seed, **size.synth))
    root = os.path.join(workdir, "corpus")
    corpus.save_corpus(sessions, root, synthgen.default_split(sessions))
    loaded, default = corpus.load_corpus(root)
    elapsed = time.perf_counter() - t0
    checks.check_corpus_roundtrip(chk, sessions, loaded)
    del sessions
    t0 = time.perf_counter()
    spec = corpus.build_task_spec(loaded, [size.keyword], BETA_NEG_S, size.beta_pos_s)
    split = corpus.select_splits(loaded, spec, default)
    task = training.prepare_task(loaded, split, spec)
    elapsed += time.perf_counter() - t0
    return task, loaded, elapsed


class Train:
    """One `training.train` call of EPOCHS epochs per operation."""

    min_ops = 2  # byte-identity needs two trainings

    def __init__(self, size: Size, seed: int, workdir: str, chk: checks.Checks, tracer):
        self.size, self.seed, self.workdir, self.chk = size, seed, workdir, chk
        self.first_digest = None

    n_setups = CORPUS_SETUPS

    def setup(self) -> float:
        self.task = None
        self.task, _, elapsed = corpus_setup(self.size, self.seed, self.workdir, self.chk)
        return elapsed

    def prepare_checks(self):
        self.expected_steps = checks.expected_steps(
            self.task.labels("train"), self.size.batch_size, POSITIVE_FRACTION,
            EPOCHS)

    def op(self, i: int):
        path = os.path.join(self.workdir, f"train-{i}.ckpt")
        size = self.size
        with _count_calls(nc.AdamW, "step") as steps:
            report = training.train(
                size.model_config(self.task.n_channels), LossConfig(),
                size.sampler_config(),
                # patience 0 turns early stopping off: every version runs every step
                training.TrainConfig(max_epochs=EPOCHS, patience=0, seed=self.seed),
                self.task, path)
        return report, steps[0], path

    def check(self, i: int, out):
        report, steps, path = out
        checks.check_training(self.chk, report, EPOCHS, steps, self.expected_steps)
        digest = checks.file_digest(path)
        if self.first_digest is None:
            self.first_digest = digest
            scores = training.score_partition(DetectorModel.load(path), self.task, "train")
            checks.check_learned(self.chk, scores, self.task.labels("train"))
        else:
            checks.check_same_bytes(self.chk, self.first_digest, digest,
                                    f"checkpoint of training {i}")
        os.remove(path)


class Score:
    """`training.evaluate` plus the scores-file round trip over the three
    partitions of a seeded checkpoint, per operation."""

    min_ops = 1

    def __init__(self, size: Size, seed: int, workdir: str, chk: checks.Checks, tracer):
        self.size, self.seed, self.workdir, self.chk = size, seed, workdir, chk
        self.ckpt = os.path.join(workdir, "score.ckpt")

    n_setups = CORPUS_SETUPS

    def setup(self) -> float:
        self.task = self.loaded = None
        self.task, self.loaded, elapsed = corpus_setup(
            self.size, self.seed, self.workdir, self.chk)
        t0 = time.perf_counter()
        self._make_checkpoint()
        return elapsed + time.perf_counter() - t0

    def _make_checkpoint(self):
        """A seeded initialisation whose normalisation running statistics are
        calibrated by train-mode forwards over seeded training batches."""
        size, task = self.size, self.task
        model = DetectorModel.initialize(size.model_config(task.n_channels), seed=self.seed)
        rng = np.random.Generator(np.random.PCG64((self.seed, 1)))
        refs = task.partitions["train"]
        for _ in range(size.calibration_batches):
            pick = rng.choice(len(refs), size=size.batch_size, replace=False)
            model.forward(task.stack([refs[j] for j in pick]), training=True)
        model.save(self.ckpt)

    def prepare_checks(self):
        """Expected rows and reference scores, from the loaded raw signals
        and events alone: the windows are cut and z-scored by `oracles`, not
        by kwslab's normaliser or `TaskData`."""
        sessions = {s.session_id: (s.signal, s.channel_config.sample_rate_hz,
                                   [(e.onset_s, e.duration_s, e.word, e.kind) for e in s.events])
                    for s in self.loaded}
        self.loaded = None
        windows = oracles.word_windows(sessions, {self.size.keyword}, BETA_NEG_S,
                                       self.size.beta_pos_s)
        split = self.task.split
        mean, std = oracles.channel_stats([sessions[sid][0] for sid in split.train])
        arrays, meta = oracles.read_checkpoint(self.ckpt)
        members = {"train": set(split.train), "validation": {split.validation},
                   "test": {split.test}}
        self.expected, self.reference = {}, {}
        for p in PARTITIONS:
            part = [w for w in windows if w[0] in members[p]]
            self.expected[p] = [(sid, token, label) for sid, token, _, _, label in part]
            self.reference[p] = np.concatenate([
                oracles.reference_forward(arrays, meta, oracles.cut_windows(
                    sessions, part[lo:lo + 256], mean, std))
                for lo in range(0, len(part), 256)
            ]) if part else np.empty(0)
        self.alt_batch = {p: training.evaluate(self.ckpt, self.task, p,
                                               batch_size=ALT_BATCH_SIZE)
                          for p in PARTITIONS}

    def op(self, i: int):
        out = {}
        for p in PARTITIONS:
            rows = training.evaluate(self.ckpt, self.task, p)
            path = os.path.join(self.workdir, f"scores-{p}.csv")
            training.write_scores_csv(rows, path)
            out[p] = rows, training.read_scores_csv(path)
        return out

    def check(self, i: int, out):
        for p, (rows, back) in out.items():
            checks.check_row_keys(self.chk, rows, self.expected[p], p)
            checks.check_scores(self.chk, rows, self.reference[p], SCORE_TOL, p)
            checks.check_rows_equal(self.chk, rows, back, p)
            if i == 0:
                checks.check_batch_independence(self.chk, rows, self.alt_batch[p],
                                                BATCH_SIZE_TOL, p)


def make_eval_inputs(size: Size, seed: int):
    """Shared labels plus one float32-valued score vector per model seed:
    sigmoid of a unit-variance logit, positives shifted so that the AUROC is
    EVAL_AUROC, everything shifted so ~2% of negatives reach tau."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n, k = size.eval_windows, size.eval_positives
    labels = np.zeros(n, dtype=np.int64)
    labels[rng.choice(n, size=k, replace=False)] = 1
    shift = math.sqrt(2.0) * statistics.NormalDist().inv_cdf(EVAL_AUROC)
    vectors = []
    for _ in range(EVAL_MODELS):
        logit = rng.standard_normal(n) + shift * labels - EVAL_LOGIT_OFFSET
        vectors.append((1.0 / (1.0 + np.exp(-logit))).astype(np.float32).astype(np.float64))
    return labels, vectors


class Evaluate:
    """Per operation: `build_metrics_report` for each model seed, the
    seed-mean permutation test of every report metric, and threshold
    selection, FP/h and the recall-vs-FA curve for both scenarios."""

    min_ops = 1

    def __init__(self, size: Size, seed: int, workdir: str, chk: checks.Checks, tracer):
        self.size, self.seed, self.workdir, self.chk = size, seed, workdir, chk
        self.tracer = tracer
        self.labels, self.vectors = make_eval_inputs(size, seed)

    @property
    def n_setups(self):
        return self.size.eval_setups

    def setup(self) -> float:
        """The scores files a user hands to `kwslab operating-points`:
        written, read back and turned into scored sets."""
        rows = [[training.ScoreRow("synthetic", i, int(lab), float(s))
                 for i, (lab, s) in enumerate(zip(self.labels, v))] for v in self.vectors]
        t0 = time.perf_counter()
        self.sets = []
        for m, model_rows in enumerate(rows):
            path = os.path.join(self.workdir, f"eval-scores-{m}.csv")
            training.write_scores_csv(model_rows, path)
            self.sets.append(training.scored_set_from_rows(training.read_scores_csv(path)))
        elapsed = time.perf_counter() - t0
        for m, s in enumerate(self.sets):
            self.chk.expect(np.array_equal(s.scores, self.vectors[m])
                            and np.array_equal(s.labels, self.labels),
                            f"scores file {m} does not round-trip exactly")
        return elapsed

    def prepare_checks(self):
        n, k = self.labels.size, int(self.labels.sum())
        ap_sd = oracles.random_ap_sd(n, k)
        self.values = [checks.observed_values(v, self.labels, TAU) for v in self.vectors]
        self.nulls = [checks.null_moments(v, self.labels, TAU, ap_sd) for v in self.vectors]
        self.points = [oracles.pr_points(v, self.labels) for v in self.vectors]

    def op(self, i: int):
        size = self.size
        reports = [mx.build_metrics_report(s, tau=TAU, n_resamples=size.resamples,
                                           n_draws=size.draws, seed=STAT_SEED)
                   for s in self.sets]
        seed_mean = {name: mx.seed_mean_permutation_pvalue(
                         self.sets, name, n_draws=size.draws, seed=STAT_SEED, tau=TAU)
                     for name in mx.REPORT_METRICS}
        with self.tracer.span("operate.operating_points"):
            curves = [mx.pr_curve(s) for s in self.sets]
            scenarios = []
            for sc in SCENARIOS:
                min_fa = [operate.select_threshold_min_fa(c, sc, TARGET_RECALL)
                          for c in curves]
                fp = [operate.empirical_fp_per_hour(s.scores, s.labels, p.threshold,
                                                    EVAL_WINDOW_S)
                      for s, p in zip(self.sets, min_fa)]
                max_recall = {b: [operate.select_threshold_max_recall(c, sc, b)
                                  for c in curves] for b in FA_BUDGETS}
                envelope = [operate.recall_vs_fa_curve(c, sc) for c in curves]
                scenarios.append((sc, min_fa, fp, max_recall, envelope))
        return reports, seed_mean, scenarios

    def check(self, i: int, out):
        reports, seed_mean, scenarios = out
        chk, draws = self.chk, self.size.draws
        for m, report in enumerate(reports):
            checks.check_metrics_report(chk, report, self.values[m], self.nulls[m], draws,
                                        f"model {m}")
        for name, result in seed_mean.items():
            checks.check_seed_mean(chk, result, name, self.values, self.nulls, draws)
        for sc, min_fa, fp, max_recall, envelope in scenarios:
            lam = sc.lambda_per_hour
            for m, v in enumerate(self.vectors):
                what = f"{sc.name} model {m}"
                checks.check_min_fa(chk, min_fa[m], self.points[m], lam, TARGET_RECALL,
                                    f"{what} FA/h at recall {TARGET_RECALL}")
                checks.check_fp_per_hour(chk, fp[m], v, self.labels, min_fa[m].threshold,
                                         EVAL_WINDOW_S, what)
                for b in FA_BUDGETS:
                    checks.check_max_recall(chk, max_recall[b][m], self.points[m], lam, b,
                                            f"{what} recall at {b} FA/h")
                checks.check_envelope(chk, envelope[m], v, self.labels, lam, what)


WORKLOADS = {"train": Train, "score": Score, "evaluate": Evaluate}


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
        size: Size = FULL, trace_path: str | None = None) -> dict:
    """Set up, repeat the operation for `seconds`, check every output and
    return the result object the benchmark prints.

    With `trace`, set-ups are traced, and after one untimed warm-up
    operation the operations alternate traced and untraced (at least one of
    each), so the tracing overhead is measured in the same process; the
    metrics are the per-layer ones.
    """
    chk = checks.Checks()
    tracer = Tracer()
    wl = WORKLOADS[workload](size, seed, workdir, chk, tracer)

    def timed_setup():
        with tracer.active("setup") if trace else nullcontext():
            return wl.setup()

    # The operations use the first set-up; the repeats come after them. A
    # repeat before them left the corpus arrays in fewer transparent huge
    # pages, and score operations ran ~25% slower and noisier.
    setup_s = [timed_setup()]
    wl.prepare_checks()

    untraced, traced = [], []
    attempted = failed = 0
    min_ops = max(wl.min_ops, 3 if trace else 1)
    start = time.perf_counter()
    while attempted < min_ops or time.perf_counter() - start < seconds:
        traced_op = trace and attempted % 2 == 1
        attempted += 1
        try:
            with tracer.active("operation") if traced_op else nullcontext():
                t0 = time.perf_counter()
                out = wl.op(attempted - 1)
                elapsed = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            failed += 1
            _log(f"operation {attempted - 1} failed: {type(exc).__name__}: {exc}")
            continue
        if not (trace and attempted == 1):
            (traced if traced_op else untraced).append(elapsed)
        wl.check(attempted - 1, out)
        _log(f"{workload} op {attempted - 1}: {elapsed:.3f} s{' traced' if traced_op else ''}")

    setup_s += [timed_setup() for _ in range(wl.n_setups - 1)]
    for failure in chk.failures:
        _log(f"check failed: {failure}")
    if trace:
        metrics = tracer.per_layer()
        metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
            if traced and untraced else 0.0)
        if trace_path:
            tracer.write(trace_path, {"workload": workload, "seed": seed,
                                      "traced_ops": len(traced), "setups": len(setup_s)})
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "op_s": statistics.median(untraced) if untraced else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}
    return {
        "correct": chk.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
