import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import kwslab.nncore as nc
import kwslab.training as training
from kwslab.corpus import STD_FLOOR, Normalizer, WindowRef
from kwslab.errors import InfeasibleSamplerError, ValidationError
from kwslab.losses import LossConfig, focal_loss, pairwise_rank_loss, total_loss
from kwslab.sampling import (BalancedBatchSampler, SamplerConfig, augment_window,
                             standard_normal)

RNG = np.random.default_rng(31)


class TestFocalLoss:
    def test_gamma_zero_is_scaled_bce(self):
        p = RNG.uniform(0.05, 0.95, size=40)
        y = RNG.integers(0, 2, size=40)
        focal = focal_loss(nc.Tensor(p), y, alpha=0.5, gamma=0.0).item()
        bce = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert abs(focal - 0.5 * bce) < 1e-10

    def test_confident_positive_contributes_nothing(self):
        loss = focal_loss(nc.Tensor(np.array([1.0])), np.array([1]), 0.25, 2.0)
        assert loss.item() < 1e-10

    def test_scalar_oracle(self):
        # -0.25 * (1 - 0.9)^2 * ln(0.9)
        expected = -0.25 * 0.01 * math.log(0.9)
        loss = focal_loss(nc.Tensor(np.array([0.9])), np.array([1]), 0.25, 2.0)
        assert loss.item() == pytest.approx(expected, rel=1e-9)
        assert loss.item() == pytest.approx(2.634e-4, rel=1e-3)

    @given(
        p1=st.floats(0.02, 0.98), p2=st.floats(0.02, 0.98),
        gamma=st.floats(0.0, 4.0), alpha=st.floats(0.05, 0.95),
        label=st.integers(0, 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_monotone_in_pt(self, p1, p2, gamma, alpha, label):
        y = np.array([label])
        l1 = focal_loss(nc.Tensor(np.array([p1])), y, alpha, gamma).item()
        l2 = focal_loss(nc.Tensor(np.array([p2])), y, alpha, gamma).item()
        assert l1 >= 0 and l2 >= 0
        pt1 = p1 if label else 1 - p1
        pt2 = p2 if label else 1 - p2
        if pt1 < pt2:
            assert l1 >= l2

    def test_dtype_follows_input(self):
        p32 = nc.Tensor(np.array([0.7], dtype=np.float32))
        assert focal_loss(p32, np.array([1])).dtype == np.float32

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            LossConfig(focal_alpha=1.0)
        with pytest.raises(ValidationError):
            LossConfig(focal_gamma=-0.5)


class TestPairwiseRankLoss:
    def _loss(self, logits, labels, n_pairs=64, seed=0):
        return pairwise_rank_loss(
            nc.Tensor(np.asarray(logits, dtype=np.float64)),
            np.asarray(labels), n_pairs, np.random.default_rng(seed),
        ).item()

    def test_equal_logits_log_two(self):
        value = self._loss([0.3, 0.3, 0.3, 0.3], [1, 1, 0, 0])
        assert value == pytest.approx(math.log(2), rel=1e-12)

    def test_fixed_margin(self):
        value = self._loss([2.0, 0.0], [1, 0])
        assert value == pytest.approx(math.log1p(math.exp(-2)), rel=1e-12)
        assert value == pytest.approx(0.1269, abs=1e-4)

    def test_large_margin_vanishes(self):
        assert self._loss([60.0, 0.0], [1, 0]) < 1e-20

    def test_single_class_returns_zero(self):
        assert self._loss([1.0, 2.0], [1, 1]) == 0.0
        assert self._loss([1.0, 2.0], [0, 0]) == 0.0

    def test_deterministic_given_seed(self):
        logits = RNG.standard_normal(20)
        labels = RNG.integers(0, 2, size=20)
        labels[0], labels[1] = 1, 0
        assert self._loss(logits, labels, seed=5) == self._loss(logits, labels, seed=5)
        assert self._loss(logits, labels, seed=5) != self._loss(logits, labels, seed=6)


class TestTotalLoss:
    def test_combination(self):
        logits = nc.Tensor(RNG.standard_normal(12))
        prob = nc.sigmoid(logits)
        labels = np.array([1, 0] * 6)
        config = LossConfig(rank_weight=0.1)
        loss, parts = total_loss(prob, logits, labels, config, np.random.default_rng(0))
        assert parts["total"] == pytest.approx(
            parts["focal"] + 0.1 * parts["rank"], rel=1e-7
        )
        assert loss.item() == parts["total"]

    def test_gradient_flows(self):
        logits = nc.Tensor(RNG.standard_normal(8), requires_grad=True)
        prob = nc.sigmoid(logits)
        labels = np.array([1, 0, 0, 0, 1, 0, 0, 0])
        loss, _ = total_loss(prob, logits, labels, LossConfig(), np.random.default_rng(0))
        nc.backward(loss)
        assert logits.grad is not None and np.all(np.isfinite(logits.grad))


class TestBalancedSampler:
    def test_exact_composition(self):
        labels = np.zeros(200, dtype=int)
        labels[:7] = 1
        config = SamplerConfig(batch_size=32, positive_fraction=0.5)
        sampler = BalancedBatchSampler(labels, config, seed=0)
        for batch in sampler.epoch():
            assert len(batch) == 32
            assert labels[batch].sum() == 16

    def test_paper_shape_positives_repeat_negatives_do_not(self):
        labels = np.zeros(4660, dtype=int)
        labels[:24] = 1
        config = SamplerConfig(batch_size=32, positive_fraction=0.5)
        sampler = BalancedBatchSampler(labels, config, seed=1)
        seen_negatives = []
        seen_positives = []
        for batch in sampler.epoch():
            seen_negatives.extend(batch[labels[batch] == 0].tolist())
            seen_positives.extend(batch[labels[batch] == 1].tolist())
        # one epoch = one pass over negatives, without replacement
        assert len(seen_negatives) >= 4636
        within_epoch = seen_negatives[:4636]
        assert len(set(within_epoch)) == 4636
        # 16 positives per batch from a pool of 24 must repeat
        assert len(seen_positives) > len(set(seen_positives))

    def test_deterministic(self):
        labels = np.zeros(100, dtype=int)
        labels[:9] = 1
        config = SamplerConfig(batch_size=16)
        a = [b.tolist() for b in BalancedBatchSampler(labels, config, 3).epoch()]
        b = [b.tolist() for b in BalancedBatchSampler(labels, config, 3).epoch()]
        assert a == b
        c = [b.tolist() for b in BalancedBatchSampler(labels, config, 4).epoch()]
        assert a != c

    def test_empty_class_rejected(self):
        with pytest.raises(InfeasibleSamplerError):
            BalancedBatchSampler(np.zeros(10, dtype=int), SamplerConfig(batch_size=4), 0)
        with pytest.raises(InfeasibleSamplerError):
            BalancedBatchSampler(np.ones(10, dtype=int), SamplerConfig(batch_size=4), 0)

    def test_batches_per_epoch(self):
        labels = np.zeros(50, dtype=int)
        labels[:5] = 1
        sampler = BalancedBatchSampler(labels, SamplerConfig(batch_size=16), 0)
        assert sampler.batches_per_epoch == math.ceil(45 / 8)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SamplerConfig(positive_fraction=0.0)
        with pytest.raises(ValidationError):
            SamplerConfig(batch_size=1)


def _one_session_task(signal, normalizer, n_samples):
    """A task over one session, `signal` (C, T), with windows n_samples wide."""
    return training.TaskData(spec=None, split=None, normalizer=normalizer,
                             n_channels=signal.shape[0], n_window_samples=n_samples,
                             signals={"s": signal}, partitions={})


def _batch(task, starts, jitter, noise, seed):
    refs = [WindowRef("s", i, start, 0, "w") for i, start in enumerate(starts)]
    config = SamplerConfig(jitter_samples=jitter, noise_std_fraction=noise)
    return training._augmented_batch(task, refs, config, np.random.default_rng(seed))


class TestAugment:
    def test_identity_when_disabled(self):
        signal = RNG.standard_normal((3, 500)).astype(np.float32)
        out = np.empty((2, 3, 50), dtype=np.float32)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        augment_window([signal, signal], [100, 7], 0, rng, out)
        np.testing.assert_array_equal(out, [signal[:, 100:150], signal[:, 7:57]])
        assert rng.bit_generator.state == state  # no jitter, no noise: nothing drawn
        identity = Normalizer(mean=np.zeros(3), std=np.ones(3))
        batch = _batch(_one_session_task(signal, identity, 50), [100], 0, 0.0, 0)
        np.testing.assert_array_equal(batch[0], signal[:, 100:150])

    def test_noise_variance_addition(self):
        # raw data z-scored by the batch + fraction-0.1 noise -> variance about 1.01
        signal = 3.0 + 2.0 * RNG.standard_normal((4, 200_000)).astype(np.float32)
        norm = Normalizer(mean=signal.mean(axis=1, dtype=np.float64),
                          std=signal.std(axis=1, dtype=np.float64))
        out = _batch(_one_session_task(signal, norm, 200_000), [0], 0, 0.1, 1)[0]
        np.testing.assert_allclose(out.var(axis=1), 1.01, atol=5e-3)

    def test_jitter_bounded_and_edge_safe(self):
        # index ramp makes the realized shift readable from the window content
        n_total, start, width, jitter, rows = 400, 200, 50, 10, 10_000
        signal = np.tile(np.arange(n_total, dtype=np.float32), (2, 1))
        out = np.empty((rows, 2, width), dtype=np.float32)
        augment_window([signal] * rows, [start] * rows, jitter, np.random.default_rng(2), out)
        assert set((out[:, 0, 0] - start).astype(int)) == set(range(-jitter, jitter + 1))
        assert np.array_equal(out[:, 1], out[:, 0])

        # at the session edge the shift falls back to zero when out of bounds
        augment_window([signal] * 200, [2] * 200, jitter, np.random.default_rng(3), out[:200])
        assert set((out[:200, 0, 0] - 2).astype(int)) == set(range(-2, jitter + 1))

    def test_rows_keep_their_own_session_edges(self):
        # from start 5, a 50-sample window fits shifts up to 0 in 55 samples
        short, long = (np.arange(n, dtype=np.float32)[None, :] for n in (55, 1000))
        out = np.empty((400, 1, 50), dtype=np.float32)
        augment_window([short, long] * 200, [5, 5] * 200, 5, np.random.default_rng(4), out)
        assert set(out[0::2, 0, 0].astype(int)) == set(range(0, 6))
        assert set(out[1::2, 0, 0].astype(int)) == set(range(0, 11))

    def test_channel_scaled_noise(self):
        # noise at the fraction of unit std on a live channel, none on a floored one
        signal = np.zeros((2, 50_000), dtype=np.float32)
        norm = Normalizer(mean=np.zeros(2), std=np.array([1.0, STD_FLOOR]))
        out = _batch(_one_session_task(signal, norm, 50_000), [0], 0, 0.5, 4)[0]
        np.testing.assert_allclose(out[0].std(), 0.5, rtol=0.03)
        assert not np.any(out[1])


class TestStandardNormal:
    """The Box–Muller sampler of the augmentation noise."""

    def test_standard_normal_statistics(self):
        # odd n: the last pair's sine half is cut
        n = 2**20 + 1
        z = np.empty(n, dtype=np.float32)
        standard_normal(np.random.default_rng(2024), z)
        assert z.dtype == np.float32 and np.all(np.isfinite(z))
        # float32 uniforms on a 2^-24 grid bound |z| by sqrt(-2 ln 2^-24) ~ 5.77
        assert np.abs(z).max() <= 5.78
        z64 = z.astype(np.float64)
        assert abs(z64.mean()) <= 5 / math.sqrt(n)
        assert abs(z64.var() - 1) <= 5 * math.sqrt(2 / n)
        assert scipy.stats.kstest(z64, "norm").pvalue > 1e-3

    def test_same_stream_same_bytes(self):
        a, b = (np.empty((3, 5, 7), dtype=np.float32) for _ in range(2))
        standard_normal(np.random.default_rng(9), a)
        standard_normal(np.random.default_rng(9), b)
        assert a.tobytes() == b.tobytes()
        standard_normal(np.random.default_rng(10), b)
        assert a.tobytes() != b.tobytes()
