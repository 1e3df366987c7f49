import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kwslab.nncore as nc
from helpers import count_parameters, downsampled_length, unfolded_eval
from kwslab.errors import CheckpointError, DimensionError, ValidationError
from kwslab.losses import LossConfig, total_loss
from kwslab.model import (
    POOLING_MODES,
    DetectorModel,
    ModelConfig,
    config_hash,
    parameter_shapes,
    pool,
)

RNG = np.random.default_rng(77)
SMALL = ModelConfig(in_channels=4, trunk_channels=8, proj_channels=16)


class TestConfig:
    def test_even_kernel_rejected(self):
        with pytest.raises(ValidationError):
            ModelConfig(trunk_kernel=6)

    def test_bad_pooling_rejected(self):
        with pytest.raises(ValidationError):
            ModelConfig(pooling="max")

    def test_topk_fraction_range(self):
        with pytest.raises(ValidationError):
            ModelConfig(topk_fraction=0.0)

    def test_config_hash_stable_and_sensitive(self):
        assert config_hash(SMALL) == config_hash(ModelConfig(4, 8, 16))
        assert config_hash(SMALL) != config_hash(dataclasses.replace(SMALL, trunk_kernel=9))


class TestForwardShapes:
    def test_downsampled_length_formula(self):
        assert downsampled_length(300, 4) == 75
        assert downsampled_length(1, 4) == 1
        for t in range(1, 40):
            for f in (1, 2, 4, 5):
                assert downsampled_length(t, f) == (t - 1) // f + 1

    def test_full_size_shapes(self):
        model = DetectorModel.initialize(ModelConfig(), seed=0)
        out = model.forward(RNG.standard_normal((1, 306, 300)).astype(np.float32))
        assert out.per_time_logits.shape == (1, 75)
        assert out.attention.shape == (1, 75)
        assert out.logit.shape == (1,)

    def test_degenerate_time_pools_to_single_logit(self):
        model = DetectorModel.initialize(SMALL, seed=1)
        out = model.forward(RNG.standard_normal((2, 4, 4)).astype(np.float32))
        assert out.per_time_logits.shape == (2, 1)
        np.testing.assert_allclose(
            out.logit.values, out.per_time_logits.values[:, 0], atol=1e-7
        )

    def test_constant_attention_head_means_logits(self):
        model = DetectorModel.initialize(SMALL, seed=2)
        model.params["head_a.w"].values[...] = 0.0
        model.params["head_a.b"].values[...] = 0.0
        out = model.forward(RNG.standard_normal((3, 4, 32)).astype(np.float32))
        np.testing.assert_allclose(
            out.logit.values, out.per_time_logits.values.mean(axis=1), atol=1e-6
        )

    def test_channel_mismatch(self):
        model = DetectorModel.initialize(SMALL, seed=0)
        with pytest.raises(DimensionError):
            model.forward(RNG.standard_normal((1, 5, 32)))

    def test_outputs_in_range(self):
        model = DetectorModel.initialize(SMALL, seed=3)
        out = model.forward(RNG.standard_normal((4, 4, 40)).astype(np.float32) * 50)
        assert np.all(np.isfinite(out.logit.values))
        assert np.all((out.prob.values > 0) & (out.prob.values < 1))
        np.testing.assert_allclose(out.attention.values.sum(axis=1), 1.0, atol=1e-6)

    def test_amplitude_sensitivity(self):
        # no hidden input normalization: scaling the input changes the output
        model = DetectorModel.initialize(SMALL, seed=4)
        x = RNG.standard_normal((2, 4, 32)).astype(np.float32)
        a = model.forward(x).logit.values
        b = model.forward(2 * x).logit.values
        assert not np.allclose(a, b)


class TestTopkPooling:
    def test_topk_weights_uniform_over_largest(self):
        config = dataclasses.replace(SMALL, pooling="topk", topk_fraction=0.25)
        model = DetectorModel.initialize(config, seed=5)
        out = model.forward(RNG.standard_normal((2, 4, 32)).astype(np.float32))
        t_out = out.per_time_logits.shape[1]
        k = math.ceil(0.25 * t_out)
        z = out.per_time_logits.values
        w = out.attention.values
        for row in range(2):
            nonzero = np.flatnonzero(w[row])
            assert len(nonzero) == k
            np.testing.assert_allclose(w[row, nonzero], 1.0 / k)
            top = np.sort(z[row])[-k:]
            np.testing.assert_allclose(np.sort(z[row, nonzero]), top)
            assert out.logit.values[row] == pytest.approx(top.mean(), rel=1e-6)


class TestFoldedEval:
    """The eval forward, whose normalisations are folded into their convs,
    against the same model run through the unfolded conv -> normalisation
    reference, with every parameter and running statistic moved off its
    initial value (zero biases and shifts would hide a dropped term)."""

    @staticmethod
    def _calibrated(dtype, pooling):
        config = ModelConfig(in_channels=32, trunk_channels=16, proj_channels=32,
                             pooling=pooling)
        model = DetectorModel.initialize(config, seed=4, dtype=dtype)
        rng = np.random.default_rng(8)
        for p in model.params.values():
            p.values += (0.1 * rng.standard_normal(p.shape)).astype(dtype)
        for _ in range(3):
            model.forward(rng.standard_normal((8, 32, 224)) + 0.5, training=True)
        return model, rng.standard_normal((8, 32, 224))

    @pytest.mark.parametrize("pooling", POOLING_MODES)
    def test_float64_matches_unfolded_to_rounding(self, pooling):
        model, x = self._calibrated(np.float64, pooling)
        got = model.forward(x)
        with unfolded_eval():
            want = model.forward(x)
        for name in ("logit", "prob", "per_time_logits", "attention"):
            a, r = getattr(got, name).values, getattr(want, name).values
            assert np.abs(a - r).max() <= 1e-12 * np.abs(r).max(), name

    def test_float32_probabilities_within_1e6(self):
        model, x = self._calibrated(np.float32, "attention")
        got = model.forward(x).prob.values
        with unfolded_eval():
            want = model.forward(x).prob.values
        assert got.dtype == want.dtype == np.float32
        assert np.abs(got.astype(np.float64) - want).max() <= 1e-6


class TestPool:
    def test_argmax_mass(self):
        z = np.array([[1.0, 2.0, 3.0]])
        w = np.array([[0.0, 0.0, 1.0]])
        assert pool(z, w).values[0] == 3.0

    def test_uniform(self):
        z = np.array([[1.0, 2.0, 3.0]])
        w = np.full((1, 3), 1 / 3)
        assert pool(z, w).values[0] == pytest.approx(2.0)

    def test_permutation_invariance(self):
        z = RNG.standard_normal((1, 6))
        w = RNG.random((1, 6))
        w /= w.sum()
        base = pool(z, w).values[0]
        for _ in range(10):
            perm = RNG.permutation(6)
            assert pool(z[:, perm], w[:, perm]).values[0] == pytest.approx(base, abs=1e-12)

    def test_weight_contract_enforced(self):
        z = np.ones((1, 3))
        with pytest.raises(ValidationError):
            pool(z, np.array([[0.5, 0.2, 0.2]]))
        with pytest.raises(ValidationError):
            pool(z, np.array([[-0.2, 0.6, 0.6]]))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            pool(np.ones((1, 3)), np.ones((1, 4)) / 4)


class TestCountParameters:
    def test_one_by_one_head(self):
        # a 1x1 conv 512 -> 1 with bias
        shapes = dict(parameter_shapes(ModelConfig()))
        assert int(np.prod(shapes["head_z.w"])) + int(np.prod(shapes["head_z.b"])) == 513

    def test_stem_conv_count(self):
        assert 306 * 128 * 7 + 128 == 274304

    def test_default_total_regression(self):
        assert count_parameters(ModelConfig()) == 491266

    def test_matches_instantiated_model(self):
        model = DetectorModel.initialize(SMALL, seed=0)
        assert sum(p.values.size for p in model.params.values()) == count_parameters(SMALL)


class TestCheckpoint:
    def test_round_trip_bitwise_forward(self, tmp_path):
        model = DetectorModel.initialize(SMALL, seed=9)
        x = RNG.standard_normal((2, 4, 40)).astype(np.float32)
        model.forward(x, training=True)  # move running stats off init
        before = model.forward(x).logit.values
        path = str(tmp_path / "model.ckpt")
        model.save(path)
        loaded = DetectorModel.load(path)
        after = loaded.forward(x).logit.values
        assert before.tobytes() == after.tobytes()

    @staticmethod
    def _saved_with_meta(path, edit):
        """Save a small model to `path`, then rewrite the checkpoint header's
        meta dict through `edit`."""
        model = DetectorModel.initialize(SMALL, seed=9)
        model.save(str(path))
        blob = path.read_bytes()
        header_len = struct.unpack("<Q", blob[8:16])[0]
        header = json.loads(blob[16 : 16 + header_len])
        edit(header["meta"])
        new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(
            blob[:8] + struct.pack("<Q", len(new_header)) + new_header
            + blob[16 + header_len:]
        )
        return str(path)

    def test_tampered_config_hash(self, tmp_path):
        def edit(meta):
            meta["model_config"]["trunk_kernel"] = 9  # hash now stale

        path = self._saved_with_meta(tmp_path / "model.ckpt", edit)
        with pytest.raises(CheckpointError, match="hash"):
            DetectorModel.load(path)

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.pop("model_config"),
        lambda meta: meta.update(model_config="not an object"),
        lambda meta: meta["model_config"].update(bogus_field=1),
        lambda meta: meta["model_config"].update(trunk_kernel="7"),
        lambda meta: meta["model_config"].update(trunk_kernel=4),
    ], ids=["missing", "not-object", "unknown-key", "wrong-type", "invalid-value"])
    def test_bad_model_config_raises_checkpoint_error(self, tmp_path, edit):
        # these raised a bare KeyError/TypeError, so `kwslab evaluate` exited 2
        path = self._saved_with_meta(tmp_path / "model.ckpt", edit)
        with pytest.raises(CheckpointError, match="model_config"):
            DetectorModel.load(path)

    @pytest.mark.parametrize("name", ["stem.w", "proj.b", "stem_norm.running_mean"])
    def test_missing_array_raises_checkpoint_error(self, tmp_path, name):
        # a missing array raised a bare KeyError, so `kwslab evaluate` exited 2
        path = str(tmp_path / "model.ckpt")
        DetectorModel.initialize(SMALL, seed=9).save(path)
        arrays, meta = nc.load_arrays(path)
        del arrays[name]
        nc.save_arrays(path, arrays, meta)
        with pytest.raises(CheckpointError, match=name):
            DetectorModel.load(path)


    @pytest.mark.parametrize("name,value", [
        ("head_z.b", np.nan),
        ("stem.w", np.inf),
        ("proj_norm.scale", -np.inf),
        ("down_norm.running_mean", np.nan),
        ("res1_norm.running_var", np.inf),
        ("res2_norm.running_var", -0.5),
        ("stem_norm.shift", 2.0**64),
        ("proj.w", -3e38),
    ])
    def test_unusable_value_raises_checkpoint_error(self, tmp_path, name, value):
        # a NaN in head_z.b used to load, and `kwslab evaluate` wrote a scores
        # file full of nan before failing on it
        path = str(tmp_path / "model.ckpt")
        DetectorModel.initialize(SMALL, seed=9).save(path)
        arrays, meta = nc.load_arrays(path)
        arrays[name].flat[-1] = value
        nc.save_arrays(path, arrays, meta)
        with pytest.raises(CheckpointError, match=name.replace(".", r"\.")):
            DetectorModel.load(path)

    @pytest.mark.parametrize("name,dtype", [("proj.b", "<i4"), ("stem.w", "<f2"),
                                            ("stem_norm.running_var", "<f8")])
    def test_mixed_or_unsupported_dtype_raises_checkpoint_error(self, tmp_path, name, dtype):
        path = str(tmp_path / "model.ckpt")
        DetectorModel.initialize(SMALL, seed=9).save(path)
        arrays, meta = nc.load_arrays(path)
        arrays[name] = arrays[name].astype(dtype)
        nc.save_arrays(path, arrays, meta)
        with pytest.raises(CheckpointError, match="dtype"):
            DetectorModel.load(path)

    def test_running_stat_of_wrong_shape_raises_checkpoint_error(self, tmp_path):
        # a one-element statistic used to broadcast silently over the channels
        path = str(tmp_path / "model.ckpt")
        DetectorModel.initialize(SMALL, seed=9).save(path)
        arrays, meta = nc.load_arrays(path)
        arrays["stem_norm.running_mean"] = arrays["stem_norm.running_mean"][:1]
        nc.save_arrays(path, arrays, meta)
        with pytest.raises(CheckpointError, match="stem_norm.running_mean"):
            DetectorModel.load(path)


def _micro_model_after_three_steps():
    """A micro-config model after three AdamW steps, so biases, norms and
    running statistics have all moved off their initial values."""
    model = DetectorModel.initialize(ModelConfig(in_channels=8, trunk_channels=8,
                                                 proj_channels=16), seed=2)
    opt = nc.AdamW(model.params, lr=1e-2)
    rng = np.random.default_rng(4)
    for _ in range(3):
        out = model.forward(rng.standard_normal((8, 8, 70)).astype(np.float32), training=True)
        loss, _ = total_loss(out.prob, out.logit, np.array([0, 1] * 4), LossConfig(), rng)
        nc.backward(loss)
        opt.step()
        opt.zero_grad()
    return model


class TestCheckpointFuzz:
    """A truncated or single-bit-flipped checkpoint raises CheckpointError or
    loads a model whose eval forward is finite; nothing else escapes."""

    @pytest.fixture(scope="class")
    def original(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "micro.ckpt"
        _micro_model_after_three_steps().save(str(path))
        return path.read_bytes(), str(path.with_name("case.ckpt"))

    @settings(max_examples=1000, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.one_of(st.none(), st.integers(0, 10**6)), flip=st.integers(0, 10**9))
    def test_truncation_or_bit_flip(self, original, cut, flip):
        raw, path = original
        blob = bytearray(raw)
        if cut is None:
            flip %= 8 * len(blob)
            blob[flip // 8] ^= 1 << (flip % 8)
        else:
            del blob[cut % len(blob):]
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            model = DetectorModel.load(path)
        except CheckpointError:
            return
        x = np.random.default_rng(6).standard_normal((4, 8, 70)).astype(np.float32)
        with nc.no_grad():
            out = model.forward(x)
        for name in ("logit", "prob", "per_time_logits", "attention"):
            assert np.all(np.isfinite(getattr(out, name).values)), name


class TestInitDeterminism:
    def test_same_seed_same_params(self):
        a = DetectorModel.initialize(SMALL, seed=13)
        b = DetectorModel.initialize(SMALL, seed=13)
        for name in a.params:
            assert a.params[name].values.tobytes() == b.params[name].values.tobytes()

    def test_different_seed_differs(self):
        a = DetectorModel.initialize(SMALL, seed=13)
        b = DetectorModel.initialize(SMALL, seed=14)
        assert a.params["stem.w"].values.tobytes() != b.params["stem.w"].values.tobytes()

    def test_bias_zero_scale_one(self):
        model = DetectorModel.initialize(SMALL, seed=0)
        np.testing.assert_array_equal(model.params["stem.b"].values, 0.0)
        np.testing.assert_array_equal(model.params["stem_norm.scale"].values, 1.0)

    def test_fan_in_bound(self):
        model = DetectorModel.initialize(SMALL, seed=0)
        w = model.params["stem.w"].values
        bound = 1.0 / math.sqrt(4 * 7)
        assert np.abs(w).max() <= bound
