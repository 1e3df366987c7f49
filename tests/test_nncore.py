import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kwslab.nncore as nc
import kwslab.training as training
from helpers import (
    column_add_conv1d,
    copying_kernels,
    reference_augment_window,
    reference_batch_norm,
    reference_conv1d,
    reference_normalizer_apply,
)
from kwslab.corpus import STD_FLOOR, Normalizer, WindowRef
from kwslab.errors import CheckpointError, DimensionError, GradientStateError
from kwslab.losses import LossConfig, total_loss
from kwslab.model import DetectorModel, ModelConfig
from kwslab.sampling import SamplerConfig

RNG = np.random.default_rng(123)


def fd_gradient(build_loss, param, h=1e-5):
    """Central finite differences of a scalar-loss builder w.r.t. one tensor."""
    fd = np.zeros_like(param.values)
    flat, out = param.values.ravel(), fd.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = build_loss().item()
        flat[i] = orig - h
        lm = build_loss().item()
        flat[i] = orig
        out[i] = (lp - lm) / (2 * h)
    return fd


def assert_grad_matches(build_loss, params, tol=1e-4):
    loss = build_loss()
    nc.backward(loss)
    for p in params:
        fd = fd_gradient(build_loss, p)
        rel = np.linalg.norm(p.grad - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < tol, f"rel grad error {rel:.2e}"
        p.grad = None


def _conv_norm_layer(w, b, scale, shift, state):
    """`DetectorModel._conv_norm` over one conv "c" and one normalisation "n"
    built from the given arrays or tensors: layer(x, training, stride, padding)."""
    params = {"c.w": nc.as_tensor(w), "c.b": nc.as_tensor(b),
              "n.scale": nc.as_tensor(scale), "n.shift": nc.as_tensor(shift)}
    model = DetectorModel(None, params, {"n": state}, dtype=params["c.w"].dtype)

    def layer(x, training, stride=1, padding=0):
        return model._conv_norm(x, "c", "n", stride, padding, training)

    return layer


def naive_conv1d(x, w, bias, stride, padding):
    """The cross-correlation written as its defining loop."""
    b, cin, t = x.shape
    cout, _, k = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    t_out = (t + 2 * padding - k) // stride + 1
    naive = np.zeros((b, cout, t_out))
    for bi in range(b):
        for oc in range(cout):
            for ti in range(t_out):
                acc = bias[oc]
                for ic in range(cin):
                    for ki in range(k):
                        acc += w[oc, ic, ki] * xp[bi, ic, ti * stride + ki]
                naive[bi, oc, ti] = acc
    return naive


def naive_conv1d_vjp(x, w, g, stride, padding):
    """(grad-x, grad-w, grad-b) of sum(g * conv1d(x, w, b)) through the same loop."""
    b, cin, t = x.shape
    cout, _, k = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for bi in range(b):
        for oc in range(cout):
            for ti in range(g.shape[2]):
                for ic in range(cin):
                    for ki in range(k):
                        gw[oc, ic, ki] += g[bi, oc, ti] * xp[bi, ic, ti * stride + ki]
                        gxp[bi, ic, ti * stride + ki] += g[bi, oc, ti] * w[oc, ic, ki]
    return gxp[:, :, padding : padding + t], gw, g.sum(axis=(0, 2))


class TestConv1d:
    def test_identity_kernel(self):
        x = nc.Tensor(RNG.standard_normal((2, 3, 9)))
        w = np.zeros((3, 3, 1))
        for c in range(3):
            w[c, c, 0] = 1.0
        out = nc.conv1d(x, nc.Tensor(w))
        np.testing.assert_array_equal(out.values, x.values)

    def test_hand_convolution(self):
        x = nc.Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        w = nc.Tensor(np.array([[[1.0, 1.0]]]))
        out = nc.conv1d(x, w, stride=1, padding=0)
        np.testing.assert_array_equal(out.values, [[[3.0, 5.0, 7.0]]])

    def test_length_formula_stride4(self):
        x = nc.Tensor(RNG.standard_normal((1, 2, 300)))
        w = nc.Tensor(RNG.standard_normal((2, 2, 1)))
        assert nc.conv1d(x, w, stride=4).shape == (1, 2, 75)

    def test_length_formula_random_cases(self):
        for _ in range(25):
            t = int(RNG.integers(4, 40))
            k = int(RNG.integers(1, 6))
            stride = int(RNG.integers(1, 5))
            padding = int(RNG.integers(0, 3))
            if k > t + 2 * padding:
                continue
            x = nc.Tensor(RNG.standard_normal((1, 1, t)))
            w = nc.Tensor(RNG.standard_normal((1, 1, k)))
            out = nc.conv1d(x, w, stride=stride, padding=padding)
            assert out.shape[2] == (t + 2 * padding - k) // stride + 1

    def test_matches_naive_convolution(self):
        b, cin, cout, t, k, stride, padding = 2, 3, 4, 12, 3, 2, 1
        x = RNG.standard_normal((b, cin, t))
        w = RNG.standard_normal((cout, cin, k))
        bias = RNG.standard_normal(cout)
        out = nc.conv1d(nc.Tensor(x), nc.Tensor(w), nc.Tensor(bias), stride, padding)
        naive = naive_conv1d(x, w, bias, stride, padding)
        np.testing.assert_allclose(out.values, naive, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        b=st.integers(1, 3),
        cin=st.integers(1, 4),
        cout=st.integers(1, 4),
        k=st.sampled_from([1, 3, 5, 7]),
        stride=st.integers(1, 4),
        padding=st.integers(0, 3),
        extra=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_naive_loop_and_adjoint(self, b, cin, cout, k, stride, padding, extra, seed):
        rng = np.random.default_rng(seed)
        t = max(1, k - 2 * padding) + extra
        x = nc.Tensor(rng.standard_normal((b, cin, t)), requires_grad=True)
        w = nc.Tensor(rng.standard_normal((cout, cin, k)), requires_grad=True)
        bias = nc.Tensor(rng.standard_normal(cout), requires_grad=True)
        out = nc.conv1d(x, w, bias, stride=stride, padding=padding)
        naive = naive_conv1d(x.values, w.values, bias.values, stride, padding)
        np.testing.assert_allclose(out.values, naive, rtol=1e-10, atol=1e-10)

        g = rng.standard_normal(out.shape)
        nc.backward(nc.sum_all(nc.mul(out, nc.Tensor(g))))
        for got, want in zip((x.grad, w.grad, bias.grad),
                             naive_conv1d_vjp(x.values, w.values, g, stride, padding)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_linearity(self):
        w = nc.Tensor(RNG.standard_normal((4, 3, 3)))
        x = RNG.standard_normal((2, 3, 10))
        y = RNG.standard_normal((2, 3, 10))
        a, b = 0.37, -1.25
        combined = nc.conv1d(nc.Tensor(a * x + b * y), w, padding=1)
        separate = a * nc.conv1d(nc.Tensor(x), w, padding=1).values + \
            b * nc.conv1d(nc.Tensor(y), w, padding=1).values
        np.testing.assert_allclose(combined.values, separate, atol=1e-10)

    def test_shape_errors(self):
        x = nc.Tensor(RNG.standard_normal((1, 3, 8)))
        with pytest.raises(DimensionError):
            nc.conv1d(x, nc.Tensor(RNG.standard_normal((2, 4, 3))))
        with pytest.raises(DimensionError):
            nc.conv1d(x, nc.Tensor(RNG.standard_normal((2, 3, 11))))

    def test_gradients(self):
        x = nc.Tensor(RNG.standard_normal((2, 3, 10)), requires_grad=True)
        w = nc.Tensor(RNG.standard_normal((4, 3, 3)) * 0.5, requires_grad=True)
        b = nc.Tensor(RNG.standard_normal(4) * 0.1, requires_grad=True)
        target = RNG.standard_normal((2, 4, 5))

        def build():
            out = nc.conv1d(x, w, b, stride=2, padding=1)
            return nc.mean_all(nc.power(nc.sub(out, nc.Tensor(target)), 2))

        assert_grad_matches(build, [x, w, b])


class TestBatchNorm:
    def test_constant_input_returns_shift(self):
        state = nc.NormState(3, dtype=np.float64)
        x = nc.Tensor(np.full((4, 3, 5), 2.5))
        scale = nc.Tensor(np.ones(3))
        shift = nc.Tensor(np.array([1.0, -2.0, 0.5]))
        out = nc.batch_norm(x, scale, shift, state)
        np.testing.assert_allclose(
            out.values, np.broadcast_to(shift.values[None, :, None], x.shape), atol=1e-3
        )

    def test_standardized_batch_passthrough(self):
        # bounded data keeps max |x| at sqrt(3) after standardization, so the
        # eps=1e-5 variance correction stays under the 1e-5 bound
        x = RNG.uniform(-1.0, 1.0, size=(8, 3, 50))
        x = (x - x.mean(axis=(0, 2), keepdims=True)) / x.std(axis=(0, 2), keepdims=True)
        state = nc.NormState(3, dtype=np.float64)
        out = nc.batch_norm(
            nc.Tensor(x), nc.Tensor(np.ones(3)), nc.Tensor(np.zeros(3)), state)
        assert np.abs(out.values - x).max() < 1e-5
        np.testing.assert_allclose(out.values, x / np.sqrt(1 + 1e-5), atol=1e-12)

    def test_eval_matches_train_after_convergence(self):
        # closed-form running stats after n train passes on one fixed batch:
        # running = (1 - 0.9^n) * batch_stat + 0.9^n * init; an identity
        # conv makes the layer's input the normalisation's input
        x = RNG.standard_normal((6, 2, 9))
        state = nc.NormState(2, dtype=np.float64)
        layer = _conv_norm_layer(np.eye(2)[:, :, None], np.zeros(2), np.array([1.3, 0.7]),
                                 np.array([0.2, -0.1]), state)
        n = 40
        for _ in range(n):
            train_out = layer(nc.Tensor(x), training=True)
        mean = x.mean(axis=(0, 2))
        var = x.var(axis=(0, 2))
        decay = 0.9**n
        np.testing.assert_allclose(state.running_mean, (1 - decay) * mean, atol=1e-12)
        np.testing.assert_allclose(state.running_var, (1 - decay) * var + decay, atol=1e-12)
        eval_out = layer(nc.Tensor(x), training=False)
        np.testing.assert_allclose(eval_out.values, train_out.values, atol=2 * decay + 1e-9)

    def test_train_needs_multiple_values(self):
        state = nc.NormState(2, dtype=np.float64)
        x = nc.Tensor(RNG.standard_normal((1, 2, 1)))
        with pytest.raises(DimensionError):
            nc.batch_norm(x, nc.Tensor(np.ones(2)), nc.Tensor(np.zeros(2)), state)

    def test_gradients_train_and_eval(self):
        # train: the normalisation alone; eval: the folded conv + normalisation
        # layer, differentiated through the fold to the conv kernel and bias
        state = nc.NormState(3, dtype=np.float64)
        x = nc.Tensor(RNG.standard_normal((4, 3, 6)), requires_grad=True)
        scale = nc.Tensor(np.abs(RNG.standard_normal(3)) + 0.5, requires_grad=True)
        shift = nc.Tensor(RNG.standard_normal(3) * 0.3, requires_grad=True)

        assert_grad_matches(
            lambda: nc.mean_all(nc.power(nc.batch_norm(x, scale, shift, state), 3)),
            [x, scale, shift])

        state.running_mean[...] = RNG.standard_normal(3) * 0.2
        state.running_var[...] = np.abs(RNG.standard_normal(3)) + 0.5
        w = nc.Tensor(RNG.standard_normal((3, 3, 3)) * 0.5, requires_grad=True)
        b = nc.Tensor(RNG.standard_normal(3) * 0.1, requires_grad=True)
        layer = _conv_norm_layer(w, b, scale, shift, state)
        assert_grad_matches(
            lambda: nc.mean_all(nc.power(layer(x, training=False, stride=2, padding=1), 3)),
            [x, w, b, scale, shift])

    @settings(max_examples=5, deadline=None)
    @given(offset=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_train_gradients_match_finite_differences(self, offset, seed):
        # a random cotangent, not a plain sum: the sum of a normalized batch
        # has no gradient w.r.t. x, which would hide the xhat * mean(g * xhat) term
        rng = np.random.default_rng(seed)
        state = nc.NormState(5, dtype=np.float64)
        x = nc.Tensor(offset + 2.0 * rng.standard_normal((8, 5, 40)), requires_grad=True)
        scale = nc.Tensor(rng.uniform(0.5, 1.5, 5), requires_grad=True)
        shift = nc.Tensor(rng.standard_normal(5), requires_grad=True)
        g = nc.Tensor(rng.standard_normal((8, 5, 40)))

        def build():
            return nc.sum_all(nc.mul(nc.batch_norm(x, scale, shift, state), g))

        assert_grad_matches(build, [x, scale, shift], tol=1e-7)


def _float32(rng, shape, offset=0.0):
    return (offset + rng.standard_normal(shape)).astype(np.float32)


def _conv_outputs(conv, x, w, bias, g, stride, padding):
    """conv1d forward values and (grad-x, grad-w, grad-b) under cotangent g."""
    x = nc.Tensor(x.copy(), requires_grad=True)
    w = nc.Tensor(w.copy(), requires_grad=True)
    bias = None if bias is None else nc.Tensor(bias.copy(), requires_grad=True)
    out = conv(x, w, bias, stride=stride, padding=padding)
    nc.backward(nc.sum_all(nc.mul(out, nc.Tensor(g))))
    return [out.values, x.grad, w.grad] + ([] if bias is None else [bias.grad])


def _assert_conv_matches_reference(b, cin, cout, k, stride, padding, t, with_bias, seed):
    """The tap-sum conv1d against the im2col reference in float32. A pointwise
    conv (K 1, stride 1, no padding) makes the same matmul calls, so every
    output and gradient is equal. Otherwise the two sum the same products in a
    different order, so each entry may differ by the rounding of both sums:
    2 * gamma_n * (the sum of its terms' magnitudes), gamma_n = n*u / (1 - n*u)
    for n terms (Higham, "Accuracy and Stability of Numerical Algorithms",
    section 3.1). The magnitudes are the same reference run in float64 on |x|,
    |w|, |bias| and |g|; n bounds the terms of any entry."""
    rng = np.random.default_rng(seed)
    x = _float32(rng, (b, cin, t))
    w = _float32(rng, (cout, cin, k))
    bias = _float32(rng, cout) if with_bias else None
    t_out = (t + 2 * padding - k) // stride + 1
    g = _float32(rng, (b, cout, t_out))
    got = _conv_outputs(nc.conv1d, x, w, bias, g, stride, padding)
    want = _conv_outputs(reference_conv1d, x, w, bias, g, stride, padding)
    for a, r in zip(got, want):
        assert a.dtype == r.dtype == np.float32 and a.shape == r.shape
    if k == 1 and stride == 1 and padding == 0:
        for a, r in zip(got, want):
            assert np.array_equal(a, r)
        return
    magnitudes = _conv_outputs(
        reference_conv1d, *(None if a is None else np.abs(a).astype(np.float64)
                            for a in (x, w, bias, g)), stride, padding)
    n = max(cin * k, cout * k, b * t_out) + 1
    u = np.finfo(np.float32).eps / 2
    gamma = n * u / (1 - n * u)
    for a, r, m in zip(got, want, magnitudes):
        assert np.all(np.abs(a.astype(np.float64) - r) <= 2 * gamma * m)


def _assert_conv_equals_column_adds(b, cin, cout, k, stride, padding, t, with_bias, seed,
                                    dtype=np.float32):
    """conv1d's output and its three gradients equal the column-add tap sum's,
    bit for bit."""
    rng = np.random.default_rng(seed)
    t_out = (t + 2 * padding - k) // stride + 1
    x, w, bias, g = (_float32(rng, shape).astype(dtype)
                     for shape in ((b, cin, t), (cout, cin, k), cout, (b, cout, t_out)))
    got = _conv_outputs(nc.conv1d, x, w, bias if with_bias else None, g, stride, padding)
    want = _conv_outputs(column_add_conv1d, x, w, bias if with_bias else None, g, stride,
                         padding)
    assert len(got) == len(want) == 3 + with_bias
    for a, r in zip(got, want):
        assert a.dtype == r.dtype == dtype and a.shape == r.shape
        assert np.array_equal(a, r)


def _bn_outputs(norm, x, scale, shift, g, stats):
    state = nc.NormState(x.shape[1])
    state.running_mean[...], state.running_var[...] = stats
    x = nc.Tensor(x.copy(), requires_grad=True)
    scale = nc.Tensor(scale.copy(), requires_grad=True)
    shift = nc.Tensor(shift.copy(), requires_grad=True)
    out = norm(x, scale, shift, state)
    nc.backward(nc.sum_all(nc.mul(out, nc.Tensor(g))))
    return [out.values, x.grad, scale.grad, shift.grad, state.running_mean, state.running_var]


def _bn_float64(x, scale, shift, g, stats, momentum=0.1, eps=1e-5):
    """The values `_bn_outputs` lists, for train mode, evaluated in float64 by
    the textbook formulas, and for each entry a magnitude M: to first order
    the float32 kernel's error is at most a gamma_n of its sums times M
    (Higham, section 3.1). For xhat, M = s * A + |xhat|, with A the channel's
    mean |x| and s = 1 / sqrt(var + eps): the mean's error seen through s,
    plus relative errors. The mean's error drops out of the variance to first
    order, since the centered values sum to 0. The output, the gradients and
    the running statistics build their M from these term by term."""
    x, scale, shift, g = (a.astype(np.float64) for a in (x, scale, shift, g))
    running_mean, running_var = (a.astype(np.float64) for a in stats)
    n = x.shape[0] * x.shape[2]
    u = np.finfo(np.float32).eps / 2

    def ch(v):
        return v[None, :, None]

    mean = x.mean(axis=(0, 2))
    centered = x - ch(mean)
    var = (centered * centered).mean(axis=(0, 2))
    s = 1 / np.sqrt(var + eps)
    xhat = centered * ch(s)
    g_sum, gxhat_sum = g.sum(axis=(0, 2)), (g * xhat).sum(axis=(0, 2))
    values = [ch(scale) * xhat + ch(shift),
              ch(scale * s) * (g - ch(g_sum / n) - xhat * ch(gxhat_sum / n)),
              gxhat_sum, g_sum,
              (1 - momentum) * running_mean + momentum * mean,
              (1 - momentum) * running_var + momentum * var]
    abs_mean = np.abs(x).mean(axis=(0, 2))
    dxhat = ch(s * abs_mean) + np.abs(xhat)
    abs_g = np.abs(g)
    abs_gxhat_sum = (abs_g * dxhat).sum(axis=(0, 2))
    magnitudes = [ch(np.abs(scale)) * dxhat + ch(np.abs(shift)),
                  ch(np.abs(scale) * s) * (abs_g + ch(abs_g.sum(axis=(0, 2)) / n)
                                           + dxhat * ch(abs_gxhat_sum / n)),
                  abs_gxhat_sum, abs_g.sum(axis=(0, 2)),
                  (1 - momentum) * np.abs(running_mean) + momentum * abs_mean,
                  (1 - momentum) * np.abs(running_var)
                  + momentum * (var + n * u * abs_mean * abs_mean)]
    return values, magnitudes


def _assert_batch_norm_within_rounding(b, c, t, offset, seed):
    """Every output, gradient and running statistic of train-mode
    nc.batch_norm within gamma_(n + 8) of `_bn_float64`'s magnitude, for n =
    b * t values per channel: the 8 covers the divisions, the square root, the
    eps and the products around the sums."""
    rng = np.random.default_rng(seed)
    x = _float32(rng, (b, c, t), offset)
    scale = rng.uniform(0.5, 1.5, c).astype(np.float32)
    shift = _float32(rng, c)
    g = _float32(rng, (b, c, t))
    stats = (_float32(rng, c), rng.uniform(0.5, 2.0, c).astype(np.float32))
    got = _bn_outputs(nc.batch_norm, x, scale, shift, g, stats)
    want, magnitudes = _bn_float64(x, scale, shift, g, stats)
    n = b * t + 8
    u = np.finfo(np.float32).eps / 2
    gamma = n * u / (1 - n * u)
    for a, r, m in zip(got, want, magnitudes):
        assert a.dtype == np.float32 and a.shape == r.shape
        assert np.all(np.abs(a.astype(np.float64) - r) <= gamma * m)


class TestKernelBitIdentity:
    """The copy-free kernels run the reference kernels' float32 operations in
    the same order, so every output and gradient is equal, not just close.
    conv1d is the exception: it sums one matmul per tap instead of one im2col
    matmul, and only its pointwise case is equal (`_assert_conv_matches_reference`)."""

    @settings(max_examples=80, deadline=None)
    @given(
        b=st.integers(1, 3),
        cin=st.integers(1, 4),
        cout=st.integers(1, 4),
        k=st.sampled_from([1, 3, 5, 7]),
        stride=st.integers(1, 4),
        padding=st.integers(0, 3),
        extra=st.integers(0, 12),
        with_bias=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conv1d_matches_reference(self, b, cin, cout, k, stride, padding, extra,
                                      with_bias, seed):
        t = max(1, k - 2 * padding) + extra
        _assert_conv_matches_reference(b, cin, cout, k, stride, padding, t, with_bias, seed)

    @pytest.mark.parametrize("k,stride,padding,t", [
        (7, 1, 3, 1),  # taps 0-2 and 4-6 read only padding
        (5, 1, 3, 1),  # padding > K - 1: the outer taps never reach the input
        (3, 4, 3, 2),  # stride > T: most columns sit in the padding
        (7, 3, 3, 2),
        (1, 4, 2, 1),  # pointwise kernel over a padded input
        (1, 1, 0, 5),  # the pointwise case: one matmul, equal bits
        (3, 1, 0, 3),  # a single output column, no padding
    ])
    def test_conv1d_taps_outside_the_input(self, k, stride, padding, t):
        for with_bias in (False, True):
            _assert_conv_matches_reference(2, 3, 2, k, stride, padding, t, with_bias, seed=k + t)

    @pytest.mark.parametrize("cin,cout,k,stride,padding,t", [
        (32, 16, 7, 1, 3, 224),  # stem
        (16, 16, 3, 1, 1, 224),  # each residual conv
        (16, 16, 3, 4, 1, 224),  # down
        (16, 32, 1, 1, 0, 56),  # proj: pointwise, equal bits
        (32, 1, 1, 1, 0, 56),  # head_z and head_a: pointwise, equal bits
    ])
    def test_conv1d_detector_shapes(self, cin, cout, k, stride, padding, t):
        for with_bias in (False, True):
            _assert_conv_matches_reference(4, cin, cout, k, stride, padding, t, with_bias,
                                           seed=cin + k)

    @settings(max_examples=150, deadline=None)
    @given(
        b=st.integers(1, 3),
        cin=st.integers(1, 4),
        cout=st.integers(1, 4),
        k=st.sampled_from([1, 2, 3, 5, 7]),
        stride=st.integers(1, 4),
        padding=st.integers(0, 3),
        extra=st.integers(0, 12),
        with_bias=st.booleans(),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conv1d_equals_column_adds(self, b, cin, cout, k, stride, padding, extra,
                                       with_bias, dtype, seed):
        # a tap's product added whole from a full-width buffer whose other columns are
        # zero sums the same floats in the same tap order as the column-slice add
        t = max(1, k - 2 * padding) + extra
        _assert_conv_equals_column_adds(b, cin, cout, k, stride, padding, t, with_bias,
                                        seed, dtype)

    @pytest.mark.parametrize("k,stride,padding,t", [
        (7, 1, 3, 1),  # K > T: taps 0-2 and 4-6 read only padding
        (5, 1, 3, 1),  # padding > K - 1: the outer taps never reach the input
        (3, 4, 3, 2),  # stride > T: most columns sit in the padding
        (7, 3, 3, 2),
        (7, 2, 3, 4),  # K > T at stride 2
        (3, 1, 0, 3),  # a single output column, no padding
        (3, 2, 0, 9),  # no padding: every tap covers every column
        (2, 1, 1, 1),  # no tap covers every column: the sum starts from zeros
    ])
    def test_conv1d_column_adds_taps_outside_the_input(self, k, stride, padding, t):
        for with_bias in (False, True):
            _assert_conv_equals_column_adds(2, 3, 2, k, stride, padding, t, with_bias,
                                            seed=k + t)

    @pytest.mark.parametrize("batch", [32, 64])
    @pytest.mark.parametrize("cin,cout,k,stride,padding,t", [
        (32, 16, 7, 1, 3, 224),  # stem
        (16, 16, 3, 1, 1, 224),  # each residual conv
        (16, 16, 3, 4, 1, 224),  # down
        (16, 32, 1, 1, 0, 56),  # proj
        (32, 1, 1, 1, 0, 56),  # head_z and head_a
    ])
    def test_conv1d_column_adds_detector_shapes(self, batch, cin, cout, k, stride, padding,
                                                t):
        _assert_conv_equals_column_adds(batch, cin, cout, k, stride, padding, t, True,
                                        seed=batch + cin + k)

    @settings(max_examples=40, deadline=None)
    @given(
        b=st.integers(1, 4),
        c=st.integers(1, 5),
        t=st.integers(2, 30),
        offset=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_norm_matches_reference(self, b, c, t, offset, seed):
        rng = np.random.default_rng(seed)
        x = _float32(rng, (b, c, t), offset)
        scale = rng.uniform(0.5, 1.5, c).astype(np.float32)
        shift = _float32(rng, c)
        g = _float32(rng, (b, c, t))
        stats = (_float32(rng, c), rng.uniform(0.5, 2.0, c).astype(np.float32))
        got = _bn_outputs(nc.batch_norm, x, scale, shift, g, stats)
        want = _bn_outputs(reference_batch_norm, x, scale, shift, g, stats)
        for a, r in zip(got, want):
            assert a.dtype == r.dtype == np.float32
            assert np.array_equal(a, r)

    @settings(max_examples=40, deadline=None)
    @given(
        b=st.integers(1, 4),
        c=st.integers(1, 5),
        t=st.integers(2, 30),
        offset=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_norm_within_rounding_of_float64(self, b, c, t, offset, seed):
        _assert_batch_norm_within_rounding(b, c, t, offset, seed)

    @pytest.mark.parametrize("b,c,t", [(32, 16, 224), (64, 16, 56), (32, 32, 56)])
    def test_batch_norm_within_rounding_of_float64_detector_shapes(self, b, c, t):
        _assert_batch_norm_within_rounding(b, c, t, offset=2.0, seed=b + c + t)

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.integers(1, 4),
        n_samples=st.integers(1, 40),
        rows=st.integers(1, 4),
        jitter=st.integers(0, 6),
        noise=st.sampled_from([0.0, 0.1, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_augment_window_matches_reference(self, c, n_samples, rows, jitter, noise, seed):
        """The training batch, raw windows z-scored in place with the noise
        added after, equals the reference augment_window on a z-scored copy
        of the session: the rows' jitters, then the batch's Box–Muller noise,
        from one stream. Channel 0 has mean 0 and holds -0.0 samples, which
        z-score to -0.0: a batch without noise must keep them. The last of the
        c + 1 channels is constant, so its std is floored: it z-scores to 0 and
        takes no noise."""
        rng = np.random.default_rng(seed)
        signal = _float32(rng, (c + 1, n_samples + 20), offset=1.0)
        signal[0, ::3] = -0.0
        signal[c] = 0.75
        mean = rng.uniform(-1.0, 1.0, c + 1)
        mean[0], mean[c] = 0.0, 0.75
        std = rng.uniform(0.1, 2.0, c + 1)
        std[c] = STD_FLOOR
        norm = Normalizer(mean=mean, std=std)
        starts = [int(s) for s in rng.integers(0, 21, size=rows)]
        task = training.TaskData(spec=None, split=None, normalizer=norm, n_channels=c + 1,
                                 n_window_samples=n_samples, signals={"s": signal},
                                 partitions={})
        refs = [WindowRef("s", i, start, 0, "w") for i, start in enumerate(starts)]
        config = SamplerConfig(jitter_samples=jitter, noise_std_fraction=noise)
        got = training._augmented_batch(task, refs, config, np.random.default_rng(seed))
        live = np.ones(c + 1)
        live[c] = 0.0
        want = reference_augment_window([reference_normalizer_apply(norm, signal)] * rows,
                                        starts, n_samples, jitter, noise, live,
                                        np.random.default_rng(seed))
        assert not np.any(got[:, c])
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, signal)


def _small_model():
    return DetectorModel.initialize(
        ModelConfig(in_channels=4, trunk_channels=8, proj_channels=8), seed=3)


def _train_step_batch(seed=0, b=6, t=48):
    rng = np.random.default_rng(seed)
    labels = np.array([1, 0] * (b // 2))
    return rng.standard_normal((b, 4, t)).astype(np.float32), labels


class TestGradientHandoff:
    """Adopted gradients are never shared: a tensor read twice gets the sum of
    both gradients, and no `.grad` array aliases another."""

    def test_conv_output_feeding_relu_and_residual_add(self):
        x = nc.Tensor(RNG.standard_normal((2, 3, 9)), requires_grad=True)
        w = nc.Tensor(RNG.standard_normal((3, 3, 3)) * 0.5, requires_grad=True)
        b = nc.Tensor(RNG.standard_normal(3) * 0.1, requires_grad=True)
        g = nc.Tensor(RNG.standard_normal((2, 3, 9)))

        def build():
            h = nc.conv1d(x, w, b, padding=1)
            return nc.sum_all(nc.mul(nc.add(nc.relu(h), h), g))

        assert_grad_matches(build, [x, w, b], tol=1e-7)

    @pytest.mark.parametrize("k_first,padding", [(3, 1), (1, 0)])
    def test_input_feeding_two_convs(self, k_first, padding):
        # (1, 0): two pointwise convs read one tensor, as the two heads do
        x = nc.Tensor(RNG.standard_normal((2, 3, 8)), requires_grad=True)
        w1 = nc.Tensor(RNG.standard_normal((2, 3, k_first)) * 0.5, requires_grad=True)
        w2 = nc.Tensor(RNG.standard_normal((2, 3, 1)) * 0.5, requires_grad=True)
        b2 = nc.Tensor(RNG.standard_normal(2) * 0.1, requires_grad=True)
        g = nc.Tensor(RNG.standard_normal((2, 2, 8)))

        def build():
            y = nc.add(nc.conv1d(x, w1, padding=padding), nc.conv1d(x, w2, b2))
            return nc.sum_all(nc.mul(nc.power(y, 2), g))

        assert_grad_matches(build, [x, w1, w2, b2], tol=1e-7)

    def test_editing_one_grad_leaves_the_others(self):
        # besides the model, two leaves summed as the residual add sums its
        # branches, and one reshaped: add and reshape hand back the upstream
        # gradient itself, which must be copied, never adopted
        model = _small_model()
        batch, labels = _train_step_batch()
        leaves = {n: nc.Tensor(RNG.standard_normal((2, 3)), requires_grad=True)
                  for n in ("branch_a", "branch_b", "flat")}
        out = model.forward(batch, training=True)
        loss, _ = total_loss(out.prob, out.logit, labels, LossConfig(), np.random.default_rng(1))
        branches = nc.add(leaves["branch_a"], leaves["branch_b"])
        flat = nc.reshape(leaves["flat"], (6,))
        extra = nc.add(nc.sum_all(nc.mul(branches, nc.Tensor(RNG.standard_normal((2, 3))))),
                       nc.sum_all(nc.mul(flat, nc.Tensor(RNG.standard_normal(6)))))
        nc.backward(nc.add(loss, extra))
        grads = {n: p.grad for n, p in {**model.params, **leaves}.items()}
        before = {n: g.copy() for n, g in grads.items()}
        for name, grad in grads.items():
            grad += 1.0
            for other, g in grads.items():
                if other != name:
                    assert np.array_equal(g, before[other]), (name, other)
            grad[...] = before[name]
        for a in grads:
            for b in grads:
                assert a == b or not np.shares_memory(grads[a], grads[b])

    def test_two_adamw_steps_match_the_all_copy_reference(self):
        def run():
            model = _small_model()
            opt = nc.AdamW(model.params, lr=1e-2, weight_decay=0.01)
            for step in range(2):
                batch, labels = _train_step_batch(seed=step)
                opt.zero_grad()
                out = model.forward(batch, training=True)
                loss, _ = total_loss(out.prob, out.logit, labels, LossConfig(),
                                     np.random.default_rng(step))
                nc.backward(loss)
                opt.step()
            arrays = {n: p.values for n, p in model.params.items()}
            arrays.update({f"{n}.grad": p.grad for n, p in model.params.items()})
            for name, state in model.norm_states.items():
                arrays[f"{name}.running_mean"] = state.running_mean
                arrays[f"{name}.running_var"] = state.running_var
            return arrays

        got = run()
        with copying_kernels():
            want = run()
        assert got.keys() == want.keys()
        for name in got:
            assert got[name].tobytes() == want[name].tobytes(), name


class TestFoldedEval:
    """Eval folds the running statistics into the conv kernel and bias; in
    float64 values and gradients agree with the unfolded conv ->
    normalisation reference to rounding."""

    @settings(max_examples=40, deadline=None)
    @given(
        b=st.integers(1, 3),
        cin=st.integers(1, 4),
        cout=st.integers(1, 4),
        k=st.sampled_from([1, 3, 5, 7]),
        stride=st.integers(1, 3),
        padding=st.integers(0, 3),
        extra=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_layer_matches_unfolded_reference(self, b, cin, cout, k, stride, padding,
                                              extra, seed):
        rng = np.random.default_rng(seed)
        t = max(1, k - 2 * padding) + extra
        x = rng.standard_normal((b, cin, t))
        arrays = {"w": 0.5 * rng.standard_normal((cout, cin, k)),
                  "b": 0.1 * rng.standard_normal(cout),
                  "scale": rng.uniform(0.5, 1.5, cout),
                  "shift": rng.standard_normal(cout)}
        state = nc.NormState(cout, dtype=np.float64)
        state.running_mean[...] = rng.standard_normal(cout)
        state.running_var[...] = rng.uniform(0.1, 2.0, cout)
        g = rng.standard_normal((b, cout, (t + 2 * padding - k) // stride + 1))

        def outputs(layer):
            ts = {n: nc.Tensor(v.copy(), requires_grad=True) for n, v in arrays.items()}
            xt = nc.Tensor(x.copy(), requires_grad=True)
            out = layer(xt, ts)
            nc.backward(nc.sum_all(nc.mul(out, nc.Tensor(g))))
            return [out.values, xt.grad] + [ts[n].grad for n in arrays]

        folded = outputs(lambda xt, ts: _conv_norm_layer(
            ts["w"], ts["b"], ts["scale"], ts["shift"], state)(xt, False, stride, padding))
        unfolded = outputs(lambda xt, ts: reference_batch_norm(
            reference_conv1d(xt, ts["w"], ts["b"], stride=stride, padding=padding),
            ts["scale"], ts["shift"], state, training=False))
        for got, want in zip(folded, unfolded):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestNoGrad:
    def test_eval_forward_matches_taped_and_records_nothing(self):
        model = DetectorModel.initialize(ModelConfig(in_channels=4, trunk_channels=8,
                                                     proj_channels=8), seed=0)
        batch = RNG.standard_normal((3, 4, 64)).astype(np.float32)
        taped = model.forward(batch, training=False)
        assert taped.prob._backward_fn is not None
        with nc.no_grad():
            untaped = model.forward(batch, training=False)
        for name in ("logit", "prob", "per_time_logits", "attention"):
            a, b = getattr(taped, name), getattr(untaped, name)
            assert a.values.tobytes() == b.values.tobytes()
            assert b._backward_fn is None and not b.requires_grad and b._parents == ()
        assert nc.add(model.params["stem.w"], 1.0)._backward_fn is not None


class TestNonlinearities:
    def test_softmax_constant(self):
        out = nc.softmax_time(nc.Tensor(np.full((1, 4), 3.7)))
        np.testing.assert_allclose(out.values, 0.25, atol=1e-15)

    def test_softmax_stability(self):
        out = nc.softmax_time(nc.Tensor(np.array([[1000.0, 0.0]])))
        np.testing.assert_allclose(out.values, [[1.0, 0.0]], atol=1e-300)
        assert np.all(np.isfinite(out.values))

    def test_softmax_sums_to_one(self):
        x = nc.Tensor(RNG.standard_normal((5, 17)) * 10)
        out = nc.softmax_time(x)
        assert np.all(out.values >= 0)
        np.testing.assert_allclose(out.values.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_passes_nonfinite_through(self):
        # training detects a blow-up by its loss, so the op no longer checks its input
        with np.errstate(invalid="ignore"):
            out = nc.softmax_time(nc.Tensor(np.array([[np.inf, 0.0], [1.0, 0.0]])))
        assert np.isnan(out.values[0]).all() and np.isfinite(out.values[1]).all()

    def test_sigmoid_zero(self):
        assert nc.sigmoid(nc.Tensor(np.array(0.0))).item() == 0.5

    def test_sigmoid_extremes_finite(self):
        out = nc.sigmoid(nc.Tensor(np.array([-1000.0, 1000.0])))
        np.testing.assert_allclose(out.values, [0.0, 1.0], atol=1e-300)

    def test_relu(self):
        out = nc.relu(nc.Tensor(np.array([-1.0, 0.0, 2.0])))
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 2.0])

    def test_elementwise_gradients(self):
        x = nc.Tensor(RNG.standard_normal((3, 5)), requires_grad=True)
        for op in (nc.sigmoid, nc.softmax_time, nc.softplus):
            assert_grad_matches(lambda: nc.mean_all(nc.power(op(x), 2)), [x])


class TestBackward:
    def test_sum_gives_ones(self):
        x = nc.Tensor(RNG.standard_normal(7), requires_grad=True)
        nc.backward(nc.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones(7))

    def test_sum_of_squares(self):
        x = nc.Tensor(RNG.standard_normal(5), requires_grad=True)
        nc.backward(nc.sum_all(nc.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.values, atol=1e-12)

    def test_reused_node_grads_sum(self):
        x = nc.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = nc.add(x, x)
        nc.backward(nc.sum_all(y))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_backward_twice_errors(self):
        x = nc.Tensor(np.array([1.0]), requires_grad=True)
        loss = nc.sum_all(x)
        nc.backward(loss)
        with pytest.raises(GradientStateError):
            nc.backward(loss)

    def test_backward_needs_scalar(self):
        x = nc.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(DimensionError):
            nc.backward(nc.mul(x, x))

    def test_broadcast_gradients(self):
        a = nc.Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        b = nc.Tensor(RNG.standard_normal(4), requires_grad=True)

        def build():
            return nc.mean_all(nc.power(nc.add(a, b), 3))

        assert_grad_matches(build, [a, b])


class TestAdamW:
    def test_zero_grad_no_decay_unchanged(self):
        p = nc.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = nc.AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.values, [1.0, -2.0])

    def test_first_step_closed_form(self):
        # m_hat = v_hat = 1 after one step with g = 1, so the update is
        # -lr / (1 + eps)
        p = nc.Tensor(np.array([0.0]), requires_grad=True)
        opt = nc.AdamW({"p": p}, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8,
                       weight_decay=0.0)
        p.grad = np.array([1.0])
        opt.step()
        assert p.values[0] == pytest.approx(-0.1 / (1 + 1e-8), abs=1e-12)
        assert p.values[0] == pytest.approx(-0.1, abs=1e-6)

    def test_decay_only_path(self):
        p = nc.Tensor(np.array([2.0]), requires_grad=True)
        opt = nc.AdamW({"p": p}, lr=0.1, weight_decay=0.01)
        p.grad = np.array([0.0])
        opt.step()
        assert p.values[0] == pytest.approx(2.0 * (1 - 0.1 * 0.01), rel=1e-12)

    def test_matches_reference_sequence(self):
        # independent oracle: textbook update equations in plain numpy
        rng = np.random.default_rng(4)
        theta = rng.standard_normal(6)
        p = nc.Tensor(theta.copy(), requires_grad=True)
        lr, b1, b2, eps, wd = 1e-2, 0.9, 0.999, 1e-8, 0.02
        opt = nc.AdamW({"p": p}, lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
        m = np.zeros(6)
        v = np.zeros(6)
        ref = theta.copy()
        for step in range(1, 8):
            g = rng.standard_normal(6)
            p.grad = g.copy()
            opt.step()
            ref *= 1 - lr * wd
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref -= lr * (m / (1 - b1**step)) / (np.sqrt(v / (1 - b2**step)) + eps)
            np.testing.assert_allclose(p.values, ref, atol=1e-12)


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        arrays = {
            "w": RNG.standard_normal((3, 4)).astype(np.float32),
            "b": RNG.standard_normal(4),
            "step": np.array([7], dtype=np.int64),
        }
        path = str(tmp_path / "ck.bin")
        nc.save_arrays(path, arrays, meta={"note": "x"})
        loaded, meta = nc.load_arrays(path)
        assert meta == {"note": "x"}
        for name, arr in arrays.items():
            np.testing.assert_array_equal(loaded[name], arr)
            assert loaded[name].dtype == arr.dtype

    def test_deterministic_bytes(self, tmp_path):
        arrays = {"a": np.arange(5, dtype=np.float32), "b": np.ones(2)}
        p1, p2 = str(tmp_path / "1.bin"), str(tmp_path / "2.bin")
        nc.save_arrays(p1, arrays, meta={"k": 1})
        nc.save_arrays(p2, dict(reversed(arrays.items())), meta={"k": 1})
        assert open(p1, "rb").read() == open(p2, "rb").read()

    @staticmethod
    def _saved(tmp_path):
        path = tmp_path / "ck.bin"
        nc.save_arrays(str(path), {"w": np.arange(12, dtype=np.float32).reshape(3, 4),
                                   "b": np.ones(5)}, meta={"note": "x"})
        return path

    def test_truncated_file_raises_checkpoint_error(self, tmp_path):
        path = self._saved(tmp_path)
        data = path.read_bytes()
        cut = tmp_path / "cut.bin"
        # inside the magic, the header length, the header JSON, the arrays
        for size in (4, 12, 20, 128, len(data) // 2, len(data) - 1):
            cut.write_bytes(data[:size])
            with pytest.raises(CheckpointError):
                nc.load_arrays(str(cut))

    @pytest.mark.parametrize("field, value", [
        ("offset", 10**6),
        ("nbytes", 4),
        ("dtype", "not-a-dtype"),
        ("dtype", "|O"),
        ("dtype", ",f4"),  # one bit off "<f4"; np.dtype raises SyntaxError
        ("shape", [-1, 4]),
        ("shape", [float("inf")]),  # a JSON Infinity; int() raises OverflowError
        ("name", None),
    ])
    def test_bad_array_entry_raises_checkpoint_error(self, tmp_path, field, value):
        data = self._saved(tmp_path).read_bytes()
        (n,) = struct.unpack("<Q", data[8:16])
        header = json.loads(data[16 : 16 + n])
        entry = header["arrays"][-1]
        if value is None:
            del entry[field]
        else:
            entry[field] = value
        new = json.dumps(header).encode()
        path = tmp_path / "bad.bin"
        path.write_bytes(data[:8] + struct.pack("<Q", len(new)) + new + data[16 + n :])
        with pytest.raises(CheckpointError):
            nc.load_arrays(str(path))

    @pytest.mark.parametrize("shift", [-4, -1, 1, 4])
    def test_offset_off_the_layout_raises_checkpoint_error(self, tmp_path, shift):
        # arrays lie back to back; a shifted offset read misaligned bytes
        data = self._saved(tmp_path).read_bytes()
        (n,) = struct.unpack("<Q", data[8:16])
        header = json.loads(data[16 : 16 + n])
        header["arrays"][shift < 0]["offset"] += shift
        new = json.dumps(header).encode()
        path = tmp_path / "bad.bin"
        path.write_bytes(data[:8] + struct.pack("<Q", len(new)) + new + data[16 + n :])
        with pytest.raises(CheckpointError, match="start"):
            nc.load_arrays(str(path))

    def test_trailing_bytes_raise_checkpoint_error(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0" * 4)
        with pytest.raises(CheckpointError, match="follow the last array"):
            nc.load_arrays(str(path))

    def test_undecodable_header_raises_checkpoint_error(self, tmp_path):
        data = self._saved(tmp_path).read_bytes()
        for header in (b"{not json", b"\xff\xfe", b"[1, 2]", b'{"arrays": 3}'):
            path = tmp_path / "bad.bin"
            path.write_bytes(data[:8] + struct.pack("<Q", len(header)) + header)
            with pytest.raises(CheckpointError):
                nc.load_arrays(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\0" * 32)
        with pytest.raises(CheckpointError):
            nc.load_arrays(str(path))


class TestDeterminism:
    def test_forward_bitwise_reproducible(self):
        x = RNG.standard_normal((2, 3, 20)).astype(np.float32)
        w = RNG.standard_normal((4, 3, 5)).astype(np.float32)
        a = nc.conv1d(nc.Tensor(x), nc.Tensor(w), padding=2).values
        b = nc.conv1d(nc.Tensor(x), nc.Tensor(w), padding=2).values
        assert a.tobytes() == b.tobytes()
