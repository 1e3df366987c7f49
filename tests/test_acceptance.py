"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The end-to-end criteria (6-8) run on the default synthetic corpus with a
compact training recipe; everything is seeded, so outcomes are stable across
reruns.
"""

import copy
import json
import os
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

import kwslab.metrics as mx
import kwslab.nncore as nc
from helpers import (
    brute_force_auroc,
    brute_force_average_precision,
    expected_random_auprc,
    model_fd_gradcheck,
)
from kwslab.cli import main as cli_main
from kwslab.config import (
    CorpusConfig,
    EvaluationConfig,
    RunConfig,
    TaskConfig,
)
from kwslab.corpus import build_task_spec, load_corpus, save_corpus, select_splits
from kwslab.fixtures import load_reference_tables, reference_operating_curves
from kwslab.losses import LossConfig, focal_loss
from kwslab.model import DetectorModel, ModelConfig, pool
from kwslab.operate import (
    Scenario,
    select_threshold_max_recall,
    select_threshold_min_fa,
    translate,
)
from kwslab.reports import read_json_report
from kwslab.sampling import BalancedBatchSampler, SamplerConfig
from kwslab.sweeps import run_scaling_sweep
from kwslab.synthgen import SynthConfig, default_split, generate_corpus
from kwslab.training import TrainConfig, prepare_task, score_partition, train

ACCEPT_CONFIG = RunConfig(
    corpus=CorpusConfig(synth=SynthConfig()),  # 8 sessions x 10 min, snr=1
    task=TaskConfig(keywords=("tori",), beta_neg_s=0.1, beta_pos_s=0.3),
    model=ModelConfig(in_channels=32, trunk_channels=16, proj_channels=32),
    loss=LossConfig(),
    sampler=SamplerConfig(batch_size=32, noise_std_fraction=0.3),
    training=TrainConfig(max_epochs=3, patience=3, lr=1e-3),
    evaluation=EvaluationConfig(),
    seeds=(0, 1, 2),
)
SCALING_FRACTIONS = (0.1, 0.25, 0.5, 1.0)


def report_line(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


@pytest.fixture(scope="module")
def default_corpus():
    sessions, templates = generate_corpus(ACCEPT_CONFIG.corpus.synth)
    return sessions, templates


@pytest.fixture(scope="module")
def end_to_end(default_corpus, tmp_path_factory):
    """Single heavy block shared by criteria 6 and 7: the scaling sweep at
    fractions {0.1, 0.25, 0.5, 1.0} x 3 seeds plus the snr=0 control."""
    sessions, _ = default_corpus
    workdir = str(tmp_path_factory.mktemp("accept_sweep"))
    t0 = time.perf_counter()
    sweep = run_scaling_sweep(
        ACCEPT_CONFIG, sessions, default_split(sessions), SCALING_FRACTIONS, workdir
    )

    # the control corpus has no injected signatures and its own noise seed;
    # its trained detector's test AUPRC is one draw from the permutation
    # null, so a fixed, verified-typical instance encodes the 95%-band check
    control_sessions, _ = generate_corpus(SynthConfig(seed=1, snr=0.0))
    spec = build_task_spec(control_sessions, {"tori"}, 0.1, 0.3)
    split = select_splits(control_sessions, spec, default_split(control_sessions))
    task = prepare_task(control_sessions, split, spec)
    ckpt = os.path.join(workdir, "control.ckpt")
    train(ACCEPT_CONFIG.model, ACCEPT_CONFIG.loss, ACCEPT_CONFIG.sampler,
          ACCEPT_CONFIG.training, task, ckpt)
    control_scores = score_partition(DetectorModel.load(ckpt), task, "test")
    control = mx.ScoredSet(control_scores, task.labels("test"))
    elapsed = time.perf_counter() - t0
    return sweep, control, elapsed


class TestCriterion1MetricOracles:
    def test_criterion_1_exact_metric_equivalence(self):
        t0 = time.perf_counter()
        worst = 0.0
        for trial in range(200):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(3, 13))
            labels = rng.integers(0, 2, n)
            labels[rng.integers(0, n)] = 1
            labels[(np.flatnonzero(labels == 1)[0] + 1) % n] = 0
            scores = np.round(rng.random(n), 1)  # coarse grid forces ties
            s = mx.ScoredSet(scores, labels)
            worst = max(
                worst,
                abs(mx.auprc(s) - brute_force_average_precision(scores, labels)),
                abs(mx.auroc(s) - brute_force_auroc(scores, labels)),
            )
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-12 and elapsed < 5.0
        report_line(
            "criterion 1 (metric oracle equivalence)", ok,
            f"worst |delta| {worst:.2e} over 200 sets (n<=12), {elapsed:.2f}s",
        )
        assert worst <= 1e-12
        assert elapsed < 5.0


class TestCriterion2PublishedStatistics:
    def test_criterion_2a_se_from_ci(self):
        se = mx.se_from_ci(0.0045, 0.0154)
        ok = abs(se - 0.0028) <= 2e-4
        report_line("criterion 2a (SE from 95% CI)", ok,
                    f"(0.0154-0.0045)/3.92 = {se:.5f} vs 0.0028")
        assert se == pytest.approx((0.0154 - 0.0045) / 3.92, abs=1e-15)
        assert abs(se - 0.0028) <= 2e-4

    def test_criterion_2b_auprc_ratio(self):
        rows = load_reference_tables()["headline_metrics"]["rows"]
        ratio = rows["auprc"]["value"] / rows["auprc"]["baseline"]
        ok = abs(ratio - 13.4) <= 0.1
        report_line("criterion 2b (AUPRC / null-baseline ratio)", ok,
                    f"0.094 / 0.007 = {ratio:.3f} vs ~13.4")
        assert abs(ratio - 13.4) <= 0.1

    def test_criterion_2c_operating_snapshot_from_fixture(self):
        tables = load_reference_tables()["operating_points"]
        curves = reference_operating_curves()
        scenario = Scenario(**tables["scenario"])

        fa_points = [
            select_threshold_min_fa(c, scenario, tables["target_recall"]) for c in curves
        ]
        fa_mean = float(np.mean([p.fa_per_hour for p in fa_points]))
        recalls = {}
        for budget in tables["fa_budgets"]:
            points = [select_threshold_max_recall(c, scenario, budget) for c in curves]
            for point, curve in zip(points, curves):
                member = zip(curve.threshold.tolist(), curve.precision.tolist(),
                             curve.recall.tolist())
                assert (point.threshold, point.precision, point.recall) in member
            recalls[budget] = float(np.mean([p.recall for p in points]))

        ok = (
            abs(fa_mean - 2.194) <= 1e-3
            and abs(recalls[2.0] - 0.139) <= 1e-12
            and abs(recalls[0.5] - 0.083) <= 1e-12
        )
        report_line(
            "criterion 2c (operating-point snapshot)", ok,
            f"FA/h {fa_mean:.4f} vs 2.194; recall@2.0 {recalls[2.0]:.3f} vs 0.139; "
            f"recall@0.5 {recalls[0.5]:.3f} vs 0.083",
        )
        assert abs(fa_mean - 2.194) <= 1e-3
        assert abs(recalls[2.0] - 0.139) <= 1e-12
        assert abs(recalls[0.5] - 0.083) <= 1e-12


class TestCriterion3RateFormulas:
    def test_criterion_3_identities(self):
        rng = np.random.default_rng(0)
        worst_linearity = 0.0
        identity_exact = True
        for _ in range(1000):
            precision = float(rng.uniform(1e-3, 1.0))
            recall = float(rng.random())
            lam = float(rng.uniform(1e-2, 100.0))
            fa, misses, detections = translate(precision, recall, Scenario("s", lam))
            if detections + misses != lam:
                identity_exact = False
            fa2, misses2, detections2 = translate(
                precision, recall, Scenario("s2", 2 * lam)
            )
            for doubled, single in ((fa2, fa), (misses2, misses), (detections2, detections)):
                if single != 0:
                    worst_linearity = max(worst_linearity, abs(doubled - 2 * single) / abs(2 * single))
                else:
                    worst_linearity = max(worst_linearity, abs(doubled))
        ok = identity_exact and worst_linearity <= 1e-12
        report_line(
            "criterion 3 (hourly-rate identities)", ok,
            f"detections+misses exact over 1000 triples; linearity err {worst_linearity:.2e}",
        )
        assert identity_exact
        assert worst_linearity <= 1e-12


class TestCriterion4GradientCorrectness:
    def test_criterion_4_full_model_finite_differences(self):
        config = ModelConfig(
            in_channels=4, trunk_channels=6, proj_channels=12,
            downsample_factor=4, trunk_kernel=7, res_kernel=3,
        )
        loss_config = LossConfig()
        t0 = time.perf_counter()
        worst = 0.0
        excluded_total = 0
        coord_total = 0
        for instance in range(20):
            rng = np.random.default_rng(instance)
            model = DetectorModel.initialize(config, seed=instance, dtype=np.float64)
            x = rng.standard_normal((3, 4, 32))
            labels = np.array([1, 0, 0])
            rel, n_excluded, n_total = model_fd_gradcheck(
                model, x, labels, loss_config, h=1e-4
            )
            worst = max(worst, rel)
            excluded_total += n_excluded
            coord_total += n_total
        elapsed = time.perf_counter() - t0
        excluded_fraction = excluded_total / coord_total
        ok = worst < 1e-4 and elapsed < 60.0 and excluded_fraction < 0.05
        report_line(
            "criterion 4 (full-model gradient check)", ok,
            f"worst rel err {worst:.2e} over 20 instances, "
            f"{excluded_total}/{coord_total} kink-stencil coords excluded, {elapsed:.1f}s",
        )
        assert worst < 1e-4
        assert excluded_fraction < 0.05
        assert elapsed < 60.0


class TestCriterion5PermutationNull:
    N, K = 4660, 24

    def _scored(self, seed):
        rng = np.random.default_rng(seed)
        labels = np.zeros(self.N, dtype=int)
        labels[rng.choice(self.N, self.K, replace=False)] = 1
        return mx.ScoredSet(rng.random(self.N), labels)

    def test_criterion_5a_null_mean_vs_base_rate(self):
        scored = self._scored(0)
        result = mx.permutation_pvalue(scored, "auprc", n_draws=10000, seed=1)
        base_rate = self.K / self.N
        # E[AP] under a uniformly random ranking; it tends to k/n only as k
        # grows, and at k=24 it is 1.333x the base rate (the published 0.007)
        exact = expected_random_auprc(self.N, self.K)
        # relative error of the mean == relative error of the ratio to k/n
        deviation = abs(result.null_mean - exact) / exact
        ratio = result.null_mean / base_rate
        ok = deviation <= 0.10
        report_line(
            "criterion 5a (null mean within 10% of exact E[AP])", ok,
            f"null mean {result.null_mean:.5f} vs E[AP] {exact:.5f} "
            f"({100 * deviation:.2f}% off); null mean / base rate {ratio:.3f} "
            f"vs exact {exact / base_rate:.3f}",
        )
        # a null that collapsed onto k/n must not pass: keep it outside the band
        assert abs(base_rate - exact) / exact > 0.10
        assert deviation <= 0.10, (
            f"The permutation-null mean AUPRC at n={self.N}, k={self.K} is "
            f"{result.null_mean:.5f}, {100 * deviation:.1f}% away from the exact "
            f"random-ranking expectation E[AP] = {exact:.5f}; its ratio to the "
            f"base rate {base_rate:.5f} is {ratio:.3f}, against the exact "
            f"{exact / base_rate:.3f}."
        )

    def test_criterion_5b_pvalue_uniformity(self):
        labels = np.zeros(self.N, dtype=int)
        labels[np.random.default_rng(3).choice(self.N, self.K, replace=False)] = 1
        pvals = []
        for repeat in range(200):
            rng = np.random.default_rng(1000 + repeat)
            s = mx.ScoredSet(rng.random(self.N), labels)
            pvals.append(
                mx.permutation_pvalue(s, "auprc", n_draws=250, seed=repeat).p_value
            )
        ks = scipy_stats.kstest(pvals, "uniform")
        ok = ks.pvalue > 0.01
        report_line(
            "criterion 5b (null p-values uniform-ish)", ok,
            f"KS p {ks.pvalue:.3f} over 200 repeats at 250 draws",
        )
        assert ks.pvalue > 0.01


class TestCriterion6EndToEndLearning:
    def test_criterion_6_synthetic_learning(self, end_to_end, default_corpus):
        sweep, control, elapsed = end_to_end
        sessions, _ = default_corpus

        full = next(c for c in sweep["cells"] if c["axis"]["fraction"] == 1.0)
        seed_mean_auprc = full["aggregate"]["auprc_mean"]
        p_value = full["aggregate"]["p_value"]

        spec = build_task_spec(sessions, {"tori"}, 0.1, 0.3)
        split = select_splits(sessions, spec, default_split(sessions))
        task = prepare_task(sessions, split, spec)
        base_rate = task.labels("test").mean()
        assert base_rate <= 0.02
        assert len(sessions) >= 8
        assert sessions[0].duration_s >= 600.0

        control_perm = mx.permutation_pvalue(control, "auprc", n_draws=10000, seed=0)
        control_inside = (
            control_perm.band[0] <= control_perm.observed <= control_perm.band[1]
        )

        ok = (
            seed_mean_auprc >= 10 * base_rate
            and p_value < 0.01
            and control_inside
            and elapsed <= 900.0
        )
        report_line(
            "criterion 6 (end-to-end synthetic learning)", ok,
            f"3-seed mean test AUPRC {seed_mean_auprc:.3f} = "
            f"{seed_mean_auprc / base_rate:.1f}x base rate {base_rate:.4f}, "
            f"p {p_value:.1e}; snr=0 control AUPRC {control_perm.observed:.4f} in "
            f"null band [{control_perm.band[0]:.4f}, {control_perm.band[1]:.4f}]; "
            f"{elapsed:.0f}s total",
        )
        assert seed_mean_auprc >= 10 * base_rate
        assert p_value < 0.01
        assert control_inside
        assert elapsed <= 900.0


class TestCriterion7Scaling:
    def test_criterion_7_scaling_trend(self, end_to_end):
        sweep, _, _ = end_to_end
        fractions = []
        means = []
        for cell in sweep["cells"]:
            assert not cell["infeasible"]
            fractions.append(cell["axis"]["fraction"])
            means.append(cell["aggregate"]["auprc_mean"])
        r, _ = mx.spearman_rank_corr(np.log(fractions), means)
        slope = sweep["slope_auprc_vs_log_fraction"]
        ok = r > 0
        report_line(
            "criterion 7 (scaling trend)", ok,
            f"seed-mean AUPRC {['%.3f' % m for m in means]} over fractions "
            f"{fractions}; spearman r {r:.2f}, log-slope {slope:.4f}",
        )
        assert r > 0


class TestCriterion8Determinism:
    def test_criterion_8_cli_determinism_and_corpus_round_trip(
        self, tmp_path, default_corpus, micro_config_dict
    ):
        # repeated cmd_train with a fixed config: bit-identical reports
        # (minus wall clock) and checkpoints
        config = copy.deepcopy(micro_config_dict)
        config["corpus"]["root"] = str(tmp_path / "data")
        config["seeds"] = [0]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert cli_main(["synth", "--config", str(config_path)]) == 0
        workdir = str(tmp_path / "work")
        views = []
        checkpoints = []
        for _ in range(2):
            assert cli_main(["train", "--config", str(config_path),
                             "--workdir", workdir]) == 0
            payload = read_json_report(os.path.join(workdir, "train_report.json"))
            payload.pop("wall_clock_s")
            views.append(json.dumps(payload, sort_keys=True))
            checkpoints.append(
                open(os.path.join(workdir, "checkpoint_seed0.ckpt"), "rb").read()
            )
        reports_identical = views[0] == views[1]
        checkpoints_identical = checkpoints[0] == checkpoints[1]

        # corpus round-trip on the default corpus: bytes and arrays identical
        sessions, _ = default_corpus
        split = default_split(sessions)
        root_a = str(tmp_path / "corpus_a")
        root_b = str(tmp_path / "corpus_b")
        save_corpus(sessions, root_a, split)
        reloaded, _ = load_corpus(root_a)
        save_corpus(reloaded, root_b, split)
        round_trip_ok = True
        for session, loaded in zip(sessions, reloaded):
            if not np.array_equal(session.signal, loaded.signal):
                round_trip_ok = False
            if session.events != loaded.events:
                round_trip_ok = False
            name = f"{session.session_id}.f32"
            if (open(os.path.join(root_a, name), "rb").read()
                    != open(os.path.join(root_b, name), "rb").read()):
                round_trip_ok = False

        ok = reports_identical and checkpoints_identical and round_trip_ok
        report_line(
            "criterion 8 (determinism)", ok,
            f"train reports identical: {reports_identical}; checkpoints identical: "
            f"{checkpoints_identical}; corpus round-trip bit-identical: {round_trip_ok}",
        )
        assert reports_identical and checkpoints_identical and round_trip_ok


class TestCriterion9Invariants:
    def test_criterion_9_pooling_and_loss_invariants(self):
        rng = np.random.default_rng(0)

        # pooling permutation invariance
        pool_ok = True
        for _ in range(50):
            t = int(rng.integers(2, 12))
            z = rng.standard_normal((1, t))
            w = rng.random((1, t))
            w /= w.sum()
            base = pool(z, w).values[0]
            perm = rng.permutation(t)
            if abs(pool(z[:, perm], w[:, perm]).values[0] - base) > 1e-12:
                pool_ok = False

        # focal gamma=0, alpha=0.5 reduces to half the binary cross-entropy
        p = rng.uniform(0.05, 0.95, size=64)
        y = rng.integers(0, 2, size=64)
        focal = focal_loss(nc.Tensor(p), y, alpha=0.5, gamma=0.0).item()
        bce = float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))
        focal_ok = abs(focal - 0.5 * bce) <= 1e-10

        # sampler composition exactness across a full epoch
        labels = np.zeros(497, dtype=int)
        labels[rng.choice(497, 13, replace=False)] = 1
        sampler = BalancedBatchSampler(
            labels, SamplerConfig(batch_size=32, positive_fraction=0.5), seed=0
        )
        sampler_ok = all(
            len(batch) == 32 and labels[batch].sum() == 16 for batch in sampler.epoch()
        )

        ok = pool_ok and focal_ok and sampler_ok
        report_line(
            "criterion 9 (pooling and loss invariants)", ok,
            f"pool permutation-invariant: {pool_ok}; focal gamma=0 = 0.5*BCE "
            f"(|delta| {abs(focal - 0.5 * bce):.1e}): {focal_ok}; "
            f"sampler composition exact: {sampler_ok}",
        )
        assert pool_ok and focal_ok and sampler_ok
