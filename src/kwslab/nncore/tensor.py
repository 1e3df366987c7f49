"""Minimal reverse-mode autodiff kernel.

Only the operations the reference detector needs are implemented: 1-D
convolution, per-channel batch-statistics normalization, relu / sigmoid /
softmax-over-time, elementwise arithmetic, reductions, gather, and the
stable softplus used by the ranking loss. Forward values live in whatever
float dtype the inputs carry (float32 for training, float64 for gradient
checks).

Gradient ownership: a tensor's first gradient becomes its ``.grad``, and
later ones are added into it in place. A backward function may pass
``owned=True`` to ``_accumulate`` only for an array it has just allocated
and hands to no other tensor; that array is adopted as ``.grad`` without a
copy. Views, the upstream gradient ``g`` and anything else reachable from
elsewhere are passed without it and copied, so no two ``.grad`` arrays
ever share memory.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import DimensionError, GradientStateError


class Tensor:
    """An ndarray plus an optional gradient and the recorded op that made it."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward_fn", "_backward_done")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward_fn = None
        self._backward_done = False

    @property
    def shape(self):
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def item(self) -> float:
        return float(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False):
    """Add g into t.grad; a first g is copied unless owned (module docstring)."""
    if t.grad is None:
        t.grad = g if owned and g.dtype == t.values.dtype else g.astype(t.values.dtype, copy=True)
    else:
        t.grad += g


_grad_enabled = True


@contextmanager
def no_grad():
    """Inside the block, ops record no backward step: outputs carry no
    gradient state, whatever their inputs (inference)."""
    global _grad_enabled
    saved, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = saved


def _result(values, parents, backward_fn) -> Tensor:
    out = Tensor(values)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def backward(loss: Tensor):
    """Reverse-mode accumulation from a scalar; grads of reused nodes sum."""
    if loss.values.size != 1:
        raise DimensionError(f"backward needs a scalar, got shape {loss.shape}")
    if loss._backward_done:
        raise GradientStateError(
            "backward already ran for this tensor; rebuild the graph before "
            "differentiating again"
        )
    loss._backward_done = True
    if not loss.requires_grad:
        return

    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.values)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_values = a.values + b.values

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _result(out_values, (a, b), _bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_values = a.values - b.values

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.shape), owned=True)

    return _result(out_values, (a, b), _bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_values = a.values * b.values

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.values, a.shape), owned=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.values, b.shape), owned=True)

    return _result(out_values, (a, b), _bw)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, -g, owned=True)

    return _result(-a.values, (a,), _bw)


def power(a, exponent: float) -> Tensor:
    """a ** exponent for a constant real exponent (a >= 0 expected)."""
    a = as_tensor(a)
    out_values = a.values**exponent

    def _bw(g):
        if a.requires_grad:
            if exponent == 0:
                _accumulate(a, np.zeros_like(a.values), owned=True)
            else:
                _accumulate(a, g * exponent * a.values ** (exponent - 1), owned=True)

    return _result(out_values, (a,), _bw)


def log(a) -> Tensor:
    a = as_tensor(a)

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, g / a.values, owned=True)

    return _result(np.log(a.values), (a,), _bw)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only inside the open interval."""
    a = as_tensor(a)
    out_values = np.clip(a.values, lo, hi)
    inside = (a.values > lo) & (a.values < hi)

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, g * inside, owned=True)

    return _result(out_values, (a,), _bw)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, g.reshape(a.shape))

    return _result(a.values.reshape(shape), (a,), _bw)


def take(a, indices) -> Tensor:
    """Gather along the first axis; backward scatter-adds."""
    a = as_tensor(a)
    idx = np.asarray(indices)

    def _bw(g):
        if a.requires_grad:
            acc = np.zeros_like(a.values)
            np.add.at(acc, idx, g)
            _accumulate(a, acc, owned=True)

    return _result(a.values[idx], (a,), _bw)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def sum_all(a) -> Tensor:
    a = as_tensor(a)

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, np.broadcast_to(g, a.shape).copy(), owned=True)

    return _result(a.values.sum(), (a,), _bw)


def mean_all(a) -> Tensor:
    a = as_tensor(a)
    n = a.values.size

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, np.broadcast_to(g / n, a.shape).astype(a.dtype), owned=True)

    return _result(a.values.mean(), (a,), _bw)


def sum_axis(a, axis: int) -> Tensor:
    a = as_tensor(a)

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(), owned=True)

    return _result(a.values.sum(axis=axis), (a,), _bw)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def relu(a) -> Tensor:
    a = as_tensor(a)

    def _bw(g):  # the mask comes from a.values, which no op changes in place
        if a.requires_grad:
            _accumulate(a, g * (a.values > 0), owned=True)

    return _result(np.maximum(a.values, 0), (a,), _bw)


def _sigmoid_values(v: np.ndarray) -> np.ndarray:
    e = np.exp(np.where(v >= 0, -v, v))  # exp of a non-positive number
    return np.where(v >= 0, 1 / (1 + e), e / (1 + e))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    s = _sigmoid_values(a.values)

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, g * s * (1 - s), owned=True)

    return _result(s, (a,), _bw)


def softplus(a) -> Tensor:
    """log(1 + exp(a)), overflow-safe."""
    a = as_tensor(a)
    v = a.values
    out_values = np.maximum(v, 0) + np.log1p(np.exp(-np.abs(v)))

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, g * _sigmoid_values(v), owned=True)

    return _result(out_values, (a,), _bw)


def softmax_time(a) -> Tensor:
    """Softmax along the last (time) axis, max-subtracted; non-finite input passes through."""
    a = as_tensor(a)
    shifted = a.values - a.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def _bw(g):
        if a.requires_grad:
            inner = (g * s).sum(axis=-1, keepdims=True)
            _accumulate(a, (g - inner) * s, owned=True)

    return _result(s, (a,), _bw)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def _taps(k: int, t: int, t_out: int, stride: int, padding: int) -> list[tuple]:
    """(kk, lo, hi, src) for each tap kk that reads the unpadded input: output
    columns [lo, hi) read the input slice src (column j reads kk + j*stride -
    padding). A tap that reads only padding is left out."""
    taps = []
    for kk in range(k):
        lo = min(t_out, max(0, -((kk - padding) // stride)))
        hi = min(t_out, (t - 1 + padding - kk) // stride + 1)
        if lo < hi:
            start = kk + lo * stride - padding
            taps.append((kk, lo, hi, slice(start, start + (hi - lo - 1) * stride + 1, stride)))
    return taps


def conv1d(x, w, b=None, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation over the last axis.

    x: (B, Cin, T), w: (Cout, Cin, K), b: (Cout,) or None.
    Output length T' = floor((T + 2*padding - K) / stride) + 1.
    """
    x, w = as_tensor(x), as_tensor(w)
    if b is not None:
        b = as_tensor(b)
    if x.values.ndim != 3 or w.values.ndim != 3:
        raise DimensionError(
            f"conv1d expects 3-D input and kernel, got {x.shape} and {w.shape}"
        )
    batch, c_in, t = x.shape
    c_out, c_in_w, k = w.shape
    if c_in != c_in_w:
        raise DimensionError(f"input has {c_in} channels, kernel expects {c_in_w}")
    if k > t + 2 * padding:
        raise DimensionError(f"kernel size {k} exceeds padded length {t + 2 * padding}")
    if b is not None and b.shape != (c_out,):
        raise DimensionError(f"bias shape {b.shape} != ({c_out},)")

    # a tap sum, one GEMM per tap and no im2col. A tap covering every output column starts
    # the sum (a pointwise conv is one matmul), else zeros do; each other tap fills its columns
    # [lo, hi) of a full-width buffer, zeroes the rest and adds it whole: adding zeros changes
    # no bit, and a contiguous add is several times faster than a column-slice one. Grad-x too.
    xv = x.values
    t_out = (t + 2 * padding - k) // stride + 1
    w_taps = np.ascontiguousarray(w.values.transpose(2, 0, 1))  # (K, Cout, Cin), BLAS-ready
    taps = _taps(k, t, t_out, stride, padding)
    first = next((tap for tap in taps if tap[2] - tap[1] == t_out), None)
    out_values = (np.zeros((batch, c_out, t_out), dtype=np.result_type(xv, w_taps))
                  if first is None else w_taps[first[0]] @ xv[:, :, first[3]])
    tap_out = np.empty_like(out_values) if len(taps) > 1 or first is None else None
    for kk, lo, hi, src in (tap for tap in taps if tap is not first):
        np.matmul(w_taps[kk], xv[:, :, src], out=tap_out[:, :, lo:hi])
        tap_out[:, :, :lo] = tap_out[:, :, hi:] = 0
        out_values += tap_out
    if b is not None:
        out_values += b.values[None, :, None]

    def _bw(g):
        if b is not None and b.requires_grad:
            _accumulate(b, g.sum(axis=(0, 2)), owned=True)
        if w.requires_grad:
            gw = np.zeros_like(w.values)
            for kk, lo, hi, src in taps:
                gw[:, :, kk] = (g[:, :, lo:hi] @ xv[:, :, src].transpose(0, 2, 1)).sum(0)
            _accumulate(w, gw, owned=True)
        if x.requires_grad:
            whole = next((tap for tap in taps if stride == 1 and tap[2] - tap[1] == t), None)
            gx = (np.zeros_like(xv) if whole is None
                  else w_taps[whole[0]].T @ g[:, :, whole[1]:whole[2]])
            tap_gx = np.empty_like(gx) if stride == 1 and (len(taps) > 1 or whole is None) else None
            for kk, lo, hi, src in (tap for tap in taps if tap is not whole):
                if tap_gx is None:  # at stride > 1 a whole-buffer add loses to the strided one
                    gx[:, :, src] += w_taps[kk].T @ g[:, :, lo:hi]
                    continue
                np.matmul(w_taps[kk].T, g[:, :, lo:hi], out=tap_gx[:, :, src])
                tap_gx[:, :, :src.start] = tap_gx[:, :, src.stop:] = 0
                gx += tap_gx
            _accumulate(x, gx, owned=True)

    return _result(out_values, (x, w) if b is None else (x, w, b), _bw)


# ---------------------------------------------------------------------------
# batch-statistics normalization
# ---------------------------------------------------------------------------


class NormState:
    """Running per-channel statistics for a normalization layer."""

    __slots__ = ("running_mean", "running_var")
    EPS = 1e-5  # added to the variance a normalization divides by, train or eval

    def __init__(self, n_channels: int, dtype=np.float32):
        self.running_mean = np.zeros(n_channels, dtype=dtype)
        self.running_var = np.ones(n_channels, dtype=dtype)


def batch_norm(x, scale, shift, state: NormState, momentum: float = 0.1) -> Tensor:
    """Train-mode per-channel normalization over (batch, time) for (B, C, T)
    input: normalizes by the batch statistics (biased variance) and folds
    them into the running stats. Inference applies the running stats as a
    fixed per-channel map folded into the preceding convolution instead.
    The four reductions over (batch, time), the mean and the variance forward
    and the gradient sums backward, are `einsum`s: numpy's `sum(axis=(0, 2))`
    is ~3x slower at the detector's shapes.
    """
    x, scale, shift = as_tensor(x), as_tensor(scale), as_tensor(shift)
    if x.values.ndim != 3:
        raise DimensionError(f"batch_norm expects (B, C, T), got {x.shape}")
    batch, channels, t = x.shape
    if scale.shape != (channels,) or shift.shape != (channels,):
        raise DimensionError("scale/shift must be per-channel vectors")
    n = batch * t
    if n <= 1:
        raise DimensionError("train-mode normalization needs more than one value per channel")

    mean = np.einsum("bct->c", x.values) / n
    xhat = x.values - mean[None, :, None]
    var = np.einsum("bct,bct->c", xhat, xhat) / n
    state.running_mean[...] = (1 - momentum) * state.running_mean + momentum * mean
    state.running_var[...] = (1 - momentum) * state.running_var + momentum * var
    inv = 1.0 / np.sqrt(var + state.EPS)
    xhat *= inv[None, :, None]
    out_values = xhat * scale.values[None, :, None]
    out_values += shift.values[None, :, None]

    def _bw(g):
        g_sum = np.einsum("bct->c", g)
        gxhat_sum = np.einsum("bct,bct->c", g, xhat)
        if scale.requires_grad:
            _accumulate(scale, gxhat_sum, owned=True)
        if shift.requires_grad:
            _accumulate(shift, g_sum, owned=True)
        if x.requires_grad:
            gx = g - (g_sum / n)[None, :, None]
            gx -= xhat * (gxhat_sum / n)[None, :, None]
            gx *= (scale.values * inv)[None, :, None]
            _accumulate(x, gx, owned=True)

    return _result(out_values, (x, scale, shift), _bw)
