import dataclasses
import json
import math
import struct

import numpy as np
import pytest

import kwslab.nncore as nc
from helpers import count_parameters, downsampled_length
from kwslab.errors import CheckpointError, DimensionError, ValidationError
from kwslab.model import (
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

    def test_expected_config_mismatch(self, tmp_path):
        model = DetectorModel.initialize(SMALL, seed=9)
        path = str(tmp_path / "model.ckpt")
        model.save(path)
        with pytest.raises(CheckpointError):
            DetectorModel.load(path, expected_config=ModelConfig())

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
