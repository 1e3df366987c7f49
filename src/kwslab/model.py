"""Reference detector: temporal conv trunk -> residual block -> strided
downsampling -> 1x1 projection -> dual temporal heads -> pooled scalar
probability."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import nncore as nc
from .errors import CheckpointError, DimensionError, ValidationError
from .streams import INIT, stream

POOLING_MODES = ("attention", "topk")


@dataclass(frozen=True)
class ModelConfig:
    in_channels: int = 306  # `sweeps.train_seeds` sets it to the corpus's channel count
    trunk_channels: int = 128
    proj_channels: int = 512
    downsample_factor: int = 4
    trunk_kernel: int = 7
    res_kernel: int = 3
    pooling: str = "attention"
    topk_fraction: float = 0.25

    def __post_init__(self):
        if self.trunk_kernel % 2 == 0 or self.res_kernel % 2 == 0:
            raise ValidationError("kernel sizes must be odd")
        if self.downsample_factor < 1:
            raise ValidationError("downsample_factor must be >= 1")
        if min(self.in_channels, self.trunk_channels, self.proj_channels) < 1:
            raise ValidationError("channel counts must be >= 1")
        if self.pooling not in POOLING_MODES:
            raise ValidationError(f"pooling must be one of {POOLING_MODES}")
        if not 0 < self.topk_fraction <= 1:
            raise ValidationError("topk_fraction must lie in (0, 1]")


def config_hash(config) -> str:
    """sha256 of a config dataclass as sorted, compact JSON."""
    blob = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _conv_shapes(name, c_in, c_out, k):
    return [(f"{name}.w", (c_out, c_in, k)), (f"{name}.b", (c_out,))]


def _norm_shapes(name, channels):
    return [(f"{name}.scale", (channels,)), (f"{name}.shift", (channels,))]


def parameter_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Trainable parameter layout, in initialization order."""
    c, tr, pr = config.in_channels, config.trunk_channels, config.proj_channels
    shapes = []
    shapes += _conv_shapes("stem", c, tr, config.trunk_kernel)
    shapes += _norm_shapes("stem_norm", tr)
    shapes += _conv_shapes("res1", tr, tr, config.res_kernel)
    shapes += _norm_shapes("res1_norm", tr)
    shapes += _conv_shapes("res2", tr, tr, config.res_kernel)
    shapes += _norm_shapes("res2_norm", tr)
    shapes += _conv_shapes("down", tr, tr, config.res_kernel)
    shapes += _norm_shapes("down_norm", tr)
    shapes += _conv_shapes("proj", tr, pr, 1)
    shapes += _norm_shapes("proj_norm", pr)
    shapes += _conv_shapes("head_z", pr, 1, 1)
    shapes += _conv_shapes("head_a", pr, 1, 1)
    return shapes


_NORM_LAYERS = ("stem_norm", "res1_norm", "res2_norm", "down_norm", "proj_norm")
# bound on |value| in a loaded checkpoint: a flipped top exponent bit multiplies a
# float32 by 2**128, so any value above 2**-64 lands past it; trained ones stay far below
_MAX_MAGNITUDE = 2.0**64


@dataclass
class ForwardResult:
    logit: nc.Tensor        # (B,)
    prob: nc.Tensor         # (B,)
    per_time_logits: nc.Tensor  # (B, T')
    attention: nc.Tensor    # (B, T'), rows sum to 1


class DetectorModel:
    """Parameter container plus the forward computation."""

    def __init__(self, config: ModelConfig, params, norm_states, dtype=np.float32):
        self.config = config
        self.params = params
        self.norm_states = norm_states
        self.dtype = np.dtype(dtype)

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int, dtype=np.float32):
        """Fan-in-scaled uniform conv kernels, zero biases, unit/zero norms."""
        rng = stream(seed, INIT)
        dtype = np.dtype(dtype)
        params = {}
        for name, shape in parameter_shapes(config):
            if name.endswith(".w"):
                fan_in = int(np.prod(shape[1:]))
                bound = 1.0 / math.sqrt(fan_in)
                values = rng.uniform(-bound, bound, size=shape)
            elif name.endswith(".scale"):
                values = np.ones(shape)
            else:  # biases and shifts
                values = np.zeros(shape)
            params[name] = nc.Tensor(values.astype(dtype), requires_grad=True)
        states = {
            name: nc.NormState(params[f"{name}.scale"].shape[0], dtype=dtype)
            for name in _NORM_LAYERS
        }
        return cls(config, params, states, dtype)

    # -- forward ----------------------------------------------------------

    def _conv_norm(self, x, conv, norm, stride, padding, training):
        """Conv `conv`, then normalisation `norm`: by batch statistics in train
        mode; in eval mode folded into one conv with w' = w * gain and
        b' = (b - running_mean) * gain + shift, gain = scale / sqrt(running_var
        + eps), built from taped ops so an eval forward still differentiates."""
        w, b = self.params[f"{conv}.w"], self.params[f"{conv}.b"]
        scale, shift = self.params[f"{norm}.scale"], self.params[f"{norm}.shift"]
        state = self.norm_states[norm]
        if training:
            h = nc.conv1d(x, w, b, stride=stride, padding=padding)
            return nc.batch_norm(h, scale, shift, state)
        gain = nc.mul(scale, 1.0 / np.sqrt(state.running_var + state.EPS))
        w = nc.mul(w, nc.reshape(gain, (-1, 1, 1)))
        b = nc.add(nc.mul(nc.sub(b, state.running_mean), gain), shift)
        return nc.conv1d(x, w, b, stride=stride, padding=padding)

    def forward(self, batch, training: bool = False) -> ForwardResult:
        x = batch if isinstance(batch, nc.Tensor) else nc.Tensor(
            np.asarray(batch, dtype=self.dtype)
        )
        cfg = self.config
        pad_stem = (cfg.trunk_kernel - 1) // 2
        pad_res = (cfg.res_kernel - 1) // 2

        h = nc.relu(self._conv_norm(x, "stem", "stem_norm", 1, pad_stem, training))
        r = nc.relu(self._conv_norm(h, "res1", "res1_norm", 1, pad_res, training))
        r = self._conv_norm(r, "res2", "res2_norm", 1, pad_res, training)
        h = nc.relu(nc.add(r, h))
        h = nc.relu(self._conv_norm(
            h, "down", "down_norm", cfg.downsample_factor, pad_res, training))
        h = nc.relu(self._conv_norm(h, "proj", "proj_norm", 1, 0, training))

        t_out = h.shape[2]
        b = h.shape[0]
        z = nc.reshape(
            nc.conv1d(h, self.params["head_z.w"], self.params["head_z.b"]), (b, t_out)
        )
        if cfg.pooling == "attention":
            a = nc.conv1d(h, self.params["head_a.w"], self.params["head_a.b"])
            attention = nc.softmax_time(nc.reshape(a, (b, t_out)))
        else:  # top-k weights come from z alone; head_a is kept but unread
            attention = nc.Tensor(_topk_weights(z.values, cfg.topk_fraction))
        logit = pool(z, attention)
        return ForwardResult(
            logit=logit,
            prob=nc.sigmoid(logit),
            per_time_logits=z,
            attention=attention,
        )

    # -- persistence --------------------------------------------------------

    def save(self, path: str):
        arrays = {name: p.values for name, p in self.params.items()}
        for name, state in self.norm_states.items():
            arrays[f"{name}.running_mean"] = state.running_mean
            arrays[f"{name}.running_var"] = state.running_var
        meta = {
            "kind": "detector-checkpoint-v1",
            "model_config": asdict(self.config),
            "config_hash": config_hash(self.config),
        }
        nc.save_arrays(path, arrays, meta)

    @classmethod
    def load(cls, path: str):
        arrays, meta = nc.load_arrays(path)
        if meta.get("kind") != "detector-checkpoint-v1":
            raise CheckpointError(f"{path}: not a detector checkpoint")
        stored = meta.get("model_config")
        if not isinstance(stored, dict):
            raise CheckpointError(f"{path}: meta holds no model_config object")
        try:
            config = ModelConfig(**stored)
        except (TypeError, ValidationError) as exc:
            raise CheckpointError(f"{path}: malformed model_config: {exc}") from exc
        if meta.get("config_hash") != config_hash(config):
            raise CheckpointError(f"{path}: config hash does not match stored config")
        param_shapes = dict(parameter_shapes(config))
        shapes = [*param_shapes.items()] + [
            (f"{n}.{stat}", param_shapes[f"{n}.scale"])
            for n in _NORM_LAYERS for stat in ("running_mean", "running_var")]
        missing = [name for name, _ in shapes if name not in arrays]
        if missing:
            raise CheckpointError(f"{path}: missing arrays {', '.join(missing)}")
        dtype = arrays["stem.w"].dtype
        for name, shape in shapes:
            values = arrays[name]
            if values.shape != shape:
                raise CheckpointError(f"{path}: bad shape for {name}")
            if values.dtype != dtype or dtype not in (np.float32, np.float64):
                raise CheckpointError(f"{path}: {name} has dtype {values.dtype}, "
                                      "not the float32 or float64 of every array")
            if not np.all(np.abs(values) < _MAX_MAGNITUDE):
                raise CheckpointError(
                    f"{path}: {name} holds non-finite values or magnitudes >= 2**64")
            if name.endswith(".running_var") and np.any(values < 0):
                raise CheckpointError(f"{path}: {name} holds negative variances")
        params = {name: nc.Tensor(arrays[name], requires_grad=True) for name in param_shapes}
        states = {}
        for name in _NORM_LAYERS:
            state = nc.NormState(param_shapes[f"{name}.scale"][0], dtype=dtype)
            state.running_mean[...] = arrays[f"{name}.running_mean"]
            state.running_var[...] = arrays[f"{name}.running_var"]
            states[name] = state
        return cls(config, params, states, dtype)


def _topk_weights(z_values: np.ndarray, fraction: float) -> np.ndarray:
    """Uniform weights over the ceil(fraction * T') largest per-time logits."""
    b, t_out = z_values.shape
    k = max(1, math.ceil(fraction * t_out))
    weights = np.zeros_like(z_values)
    # argsort (stable) rather than argpartition so ties resolve deterministically
    top = np.argsort(-z_values, axis=1, kind="stable")[:, :k]
    np.put_along_axis(weights, top, 1.0 / k, axis=1)
    return weights


def pool(z, w) -> nc.Tensor:
    """Attention-weighted sum of per-time logits along time."""
    z, w = nc.as_tensor(z), nc.as_tensor(w)
    if z.shape != w.shape:
        raise DimensionError(f"logits {z.shape} and weights {w.shape} differ")
    wv = w.values
    if np.any(wv < 0) or np.max(np.abs(wv.sum(axis=-1) - 1.0)) > 1e-6:
        raise ValidationError("pooling weights must be nonnegative and sum to 1")
    return nc.sum_axis(nc.mul(z, w), axis=1)
