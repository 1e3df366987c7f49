"""Spans recorded from outside kwslab, and the per-layer metrics made from them.

While a `Tracer` is active it replaces kwslab's public functions (the
module attributes its own code calls through, such as `nncore.conv1d` or
`training.augment_window`) with wrappers that record a span per call: name,
detector layer, train/eval mode, start, end and the enclosing span. Where a
wrapped nncore op returns a tensor that recorded a backward step, that step
is wrapped too, so its time lands in a `.bwd` span of the same layer. Each
active block is one root span, "setup" or "operation", and the per-layer
metrics of an operation come only from spans and counts inside operations.
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

import kwslab.corpus as corpus
import kwslab.metrics as mx
import kwslab.model as model
import kwslab.nncore as nc
import kwslab.sampling as sampling
import kwslab.synthgen as synthgen
import kwslab.training as training

# which detector layer each conv's weight belongs to; the ops after a conv
# (norm, relu, residual add, pooling, sigmoid) belong to the same layer
CONV_LAYER = {"stem": "stem", "res1": "res", "res2": "res", "down": "down",
              "proj": "proj", "head_z": "heads", "head_a": "heads"}
LAYERS = ("stem", "res", "down", "proj", "heads")
OPS = ("add", "sub", "mul", "neg", "power", "log", "clip", "reshape", "take", "sum_all",
       "mean_all", "sum_axis", "relu", "sigmoid", "softplus", "softmax_time", "conv1d",
       "batch_norm")
STAT_KINDS = ("auprc", "auroc", "thresholded")

# per-layer metric -> unit; every traced run reports all of them, and a
# metric whose layer the workload does not run reads 0
PER_LAYER = {
    "training.step_ms": "ms",
    "training.step_ms.p90": "ms",
    "training.step.self_ms": "ms",
    "sampling.next_batch_ms": "ms",
    "sampling.augment_window_ms": "ms",
    "model.forward.train_ms": "ms",
    "losses.total_loss_ms": "ms",
    "nncore.backward_ms": "ms",
    "nncore.backward.self_ms": "ms",
    "nncore.AdamW.step_ms": "ms",
    **{f"model.{layer}.{d}_ms": "ms" for layer in LAYERS for d in ("fwd", "bwd")},
    "nncore.conv1d.fwd_ms": "ms",
    "nncore.conv1d.bwd_ms": "ms",
    "nncore.batch_norm.fwd_ms": "ms",
    "nncore.batch_norm.bwd_ms": "ms",
    "nncore.conv1d.gflop_per_step": "GFLOP",
    "nncore.conv1d.gflops_per_s": "GFLOP/s",
    "training.validation_s": "s",
    "nncore.save_arrays_ms": "ms",
    "training.checkpoints_written": "count",
    "nncore.load_arrays_ms": "ms",
    "training.TaskData.stack_ms": "ms",
    "model.forward.eval_ms": "ms",
    "nncore.conv1d.eval_fwd_ms": "ms",
    "nncore.batch_norm.eval_fwd_ms": "ms",
    "nncore.taped_ops_per_batch": "count",
    "training.write_scores_csv_ms": "ms",
    "training.read_scores_csv_ms": "ms",
    **{f"metrics.{fn}.{kind}_s": "s"
       for fn in ("bootstrap_ci", "permutation_pvalue", "seed_mean_permutation_pvalue")
       for kind in STAT_KINDS},
    "metrics.scoredsets_built": "count",
    "operate.operating_points_s": "s",
    "synthgen.generate_corpus_s": "s",
    "corpus.save_corpus_s": "s",
    "corpus.load_corpus_s": "s",
    "training.prepare_task_s": "s",
    "trace.overhead_pct": "%",
}

_NAME, _LAYER, _MODE, _T0, _T1, _PARENT = range(6)


def _conv_flop(x, w, out) -> int:
    """Multiply-adds x 2 of one conv1d forward, plus its backward: grad-w and
    grad-x each cost one forward when their input needs a gradient."""
    b, c_out, t_out = out.shape
    _, c_in, k = w.shape
    forward = 2 * b * c_out * c_in * k * t_out
    return forward * (1 + bool(getattr(w, "requires_grad", False))
                      + bool(getattr(x, "requires_grad", False)))


class Tracer:
    """Records spans and counts while active; inert otherwise."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, mode, t0_ns, t1_ns, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._phase = None
        self._mode = None
        self._layer = None
        self._conv_layer: dict[int, str] = {}
        self._step = None

    # -- recording -------------------------------------------------------

    def _open(self, name, layer=None, mode=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, mode or self._mode, time.perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][_T1] = time.perf_counter_ns()
        while self._stack and self._stack.pop() != idx:
            pass

    def _count(self, key: str, n: int):
        """Counts are kept only inside operations."""
        if self._phase == "operation":
            self.counts[key] += n

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code; records only while active."""
        if not self._patches:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrappers --------------------------------------------------------

    def _timed(self, fn, name):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _by_metric(self, fn, name):
        def wrapper(scored, metric, *args, **kwargs):
            kind = metric if metric in ("auprc", "auroc") else "thresholded"
            idx = self._open(f"{name}.{kind}")
            try:
                return fn(scored, metric, *args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _forward(self, fn):
        def wrapper(model, batch, training=False):
            saved = self._mode, self._layer, self._conv_layer
            self._mode, self._layer = ("train" if training else "eval"), None
            self._conv_layer = {id(model.params[f"{conv}.w"]): layer
                                for conv, layer in CONV_LAYER.items()}
            idx = self._open("model.forward")
            try:
                return fn(model, batch, training=training)
            finally:
                self._close(idx)
                self._mode, self._layer, self._conv_layer = saved
        return wrapper

    def _op(self, fn, op):
        fwd, bwd = f"nncore.{op}.fwd", f"nncore.{op}.bwd"

        def wrapper(*args, **kwargs):
            if op == "conv1d":
                w = args[1] if len(args) > 1 else kwargs["w"]
                self._layer = self._conv_layer.get(id(w), self._layer)
            layer, mode = self._layer, self._mode
            idx = self._open(fwd, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            backward_fn = out._backward_fn
            if backward_fn is not None:
                if mode == "eval":
                    self._count("taped_eval_ops", 1)
                elif op == "conv1d" and mode == "train":
                    self._count("conv_flop_train", _conv_flop(args[0], args[1], out))
                out._backward_fn = self._backward(backward_fn, bwd, layer)
            return out
        return wrapper

    def _backward(self, fn, name, layer):
        def wrapper(grad):
            idx = self._open(name, layer, "train")
            try:
                fn(grad)
            finally:
                self._close(idx)
        return wrapper

    def _step_start(self, fn):
        def wrapper(sampler):
            self._step = self._open("training.step", mode="train")
            idx = self._open("sampling.next_batch")
            try:
                return fn(sampler)
            finally:
                self._close(idx)
        return wrapper

    def _step_end(self, fn):
        def wrapper(optimizer):
            idx = self._open("nncore.AdamW.zero_grad")
            try:
                fn(optimizer)
            finally:
                self._close(idx)
                if self._step is not None:
                    self._close(self._step)
                    self._step = None
        return wrapper

    def _counted(self, fn, key):
        def wrapper(*args, **kwargs):
            self._count(key, 1)
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    @contextmanager
    def active(self, phase: str):
        """Wrap kwslab's public functions for the duration of the block,
        which is recorded as one root span named `phase`, "setup" or
        "operation"."""
        for op in OPS:
            self._patch(nc, op, self._op(getattr(nc, op), op))
        timed = [
            (nc, "backward", "nncore.backward"),
            (nc.AdamW, "step", "nncore.AdamW.step"),
            (nc, "save_arrays", "nncore.save_arrays"),
            (nc, "load_arrays", "nncore.load_arrays"),
            (training, "augment_window", "sampling.augment_window"),
            (training, "total_loss", "losses.total_loss"),
            (training, "score_partition", "training.score_partition"),
            (training, "train", "training.train"),
            (training, "evaluate", "training.evaluate"),
            (training.TaskData, "stack", "training.TaskData.stack"),
            (training, "write_scores_csv", "training.write_scores_csv"),
            (training, "read_scores_csv", "training.read_scores_csv"),
            (synthgen, "generate_corpus", "synthgen.generate_corpus"),
            (corpus, "save_corpus", "corpus.save_corpus"),
            (corpus, "load_corpus", "corpus.load_corpus"),
            (training, "prepare_task", "training.prepare_task"),
        ]
        for owner, attr, name in timed:
            self._patch(owner, attr, self._timed(getattr(owner, attr), name))
        for fn in ("bootstrap_ci", "permutation_pvalue", "seed_mean_permutation_pvalue"):
            self._patch(mx, fn, self._by_metric(getattr(mx, fn), f"metrics.{fn}"))
        self._patch(mx.ScoredSet, "__post_init__",
                    self._counted(mx.ScoredSet.__post_init__, "scoredsets"))
        self._patch(model.DetectorModel, "forward", self._forward(model.DetectorModel.forward))
        self._patch(sampling.BalancedBatchSampler, "next_batch",
                    self._step_start(sampling.BalancedBatchSampler.next_batch))
        self._patch(nc.AdamW, "zero_grad", self._step_end(nc.AdamW.zero_grad))
        self._phase = phase
        idx = self._open(phase)
        try:
            yield self
        finally:
            self._close(idx)
            self._phase = None
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def _durations(self):
        """Duration and self time (duration minus child spans) in ms."""
        dur = np.array([(s[_T1] - s[_T0]) / 1e6 for s in self.spans])
        child = np.zeros_like(dur)
        parents = np.array([s[_PARENT] for s in self.spans], dtype=np.int64)
        has = parents >= 0
        np.add.at(child, parents[has], dur[has])
        return dur, dur - child

    def per_layer(self) -> dict[str, float]:
        """Every PER_LAYER metric except the overhead, from the recorded spans.

        Set-up figures come from the spans inside set-ups, per set-up; all
        others from the spans inside operations. Training figures are per
        optimizer step, eval-forward figures per batch, statistics per
        operation and the remaining call timings per call.
        """
        dur, own = self._durations()
        by_name: dict[str, list[int]] = {}
        phase: list[str] = []  # name of each span's root span
        for i, s in enumerate(self.spans):
            by_name.setdefault(s[_NAME], []).append(i)
            phase.append(s[_NAME] if s[_PARENT] < 0 else phase[s[_PARENT]])

        def pick(name, mode=None, layer=None, within="operation"):
            return [i for i in by_name.get(name, [])
                    if phase[i] == within
                    and (mode is None or self.spans[i][_MODE] == mode)
                    and (layer is None or self.spans[i][_LAYER] == layer)]

        def under_train(i):
            while i >= 0:
                if self.spans[i][_NAME] == "training.train":
                    return True
                i = self.spans[i][_PARENT]
            return False

        def total(idx, of=dur):
            return float(of[idx].sum()) if idx else 0.0

        def mean(name):
            idx = pick(name)
            return total(idx) / len(idx) if idx else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        n_ops = len(pick("operation"))
        n_setups = len(pick("setup", within="setup"))
        steps = pick("training.step")
        n_steps = len(steps)
        n_train = len(pick("training.train"))
        evals = pick("model.forward", mode="eval")
        out = {}
        out["training.step_ms"] = float(np.median(dur[steps])) if steps else 0.0
        out["training.step_ms.p90"] = float(np.percentile(dur[steps], 90)) if steps else 0.0
        out["training.step.self_ms"] = ratio(total(steps, own), n_steps)
        for key, name in (("sampling.next_batch_ms", "sampling.next_batch"),
                          ("sampling.augment_window_ms", "sampling.augment_window"),
                          ("losses.total_loss_ms", "losses.total_loss"),
                          ("nncore.backward_ms", "nncore.backward"),
                          ("nncore.AdamW.step_ms", "nncore.AdamW.step")):
            out[key] = ratio(total(pick(name)), n_steps)
        out["model.forward.train_ms"] = ratio(total(pick("model.forward", "train")), n_steps)
        out["nncore.backward.self_ms"] = ratio(total(pick("nncore.backward"), own), n_steps)
        for layer in LAYERS:
            for d, mode in (("fwd", "train"), ("bwd", "train")):
                idx = [i for op in OPS for i in pick(f"nncore.{op}.{d}", mode, layer)]
                out[f"model.{layer}.{d}_ms"] = ratio(total(idx), n_steps)
        for op in ("conv1d", "batch_norm"):
            out[f"nncore.{op}.fwd_ms"] = ratio(total(pick(f"nncore.{op}.fwd", "train")), n_steps)
            out[f"nncore.{op}.bwd_ms"] = ratio(total(pick(f"nncore.{op}.bwd")), n_steps)
            out[f"nncore.{op}.eval_fwd_ms"] = ratio(
                total(pick(f"nncore.{op}.fwd", "eval")), len(evals))
        gflop = ratio(self.counts["conv_flop_train"] / 1e9, n_steps)
        out["nncore.conv1d.gflop_per_step"] = gflop
        out["nncore.conv1d.gflops_per_s"] = ratio(
            gflop, (out["nncore.conv1d.fwd_ms"] + out["nncore.conv1d.bwd_ms"]) / 1e3)
        validation = [i for i in pick("training.score_partition") if under_train(i)]
        out["training.validation_s"] = ratio(total(validation) / 1e3, n_train)
        out["nncore.save_arrays_ms"] = mean("nncore.save_arrays")
        out["training.checkpoints_written"] = ratio(
            sum(map(under_train, pick("nncore.save_arrays"))), n_train)
        out["nncore.load_arrays_ms"] = mean("nncore.load_arrays")
        out["training.TaskData.stack_ms"] = mean("training.TaskData.stack")
        out["model.forward.eval_ms"] = ratio(total(evals), len(evals))
        out["nncore.taped_ops_per_batch"] = ratio(self.counts["taped_eval_ops"], len(evals))
        out["training.write_scores_csv_ms"] = mean("training.write_scores_csv")
        out["training.read_scores_csv_ms"] = mean("training.read_scores_csv")
        for fn in ("bootstrap_ci", "permutation_pvalue", "seed_mean_permutation_pvalue"):
            for kind in STAT_KINDS:
                out[f"metrics.{fn}.{kind}_s"] = ratio(
                    total(pick(f"metrics.{fn}.{kind}")) / 1e3, n_ops)
        out["metrics.scoredsets_built"] = ratio(self.counts["scoredsets"], n_ops)
        out["operate.operating_points_s"] = ratio(
            total(pick("operate.operating_points")) / 1e3, n_ops)
        for key in ("synthgen.generate_corpus", "corpus.save_corpus", "corpus.load_corpus",
                    "training.prepare_task"):
            out[f"{key}_s"] = ratio(total(pick(key, within="setup")) / 1e3, n_setups)
        return out

    def write(self, path: str, header: dict):
        """Spans (times in ns from the first span) plus total and self time
        by span name, in ms."""
        dur, own = self._durations()
        total_ms: Counter = Counter()
        self_ms: Counter = Counter()
        for s, d, t in zip(self.spans, dur, own):
            total_ms[s[_NAME]] += float(d)
            self_ms[s[_NAME]] += float(t)
        t_first = self.spans[0][_T0] if self.spans else 0
        payload = {
            **header,
            "columns": ["name", "layer", "mode", "start_ns", "end_ns", "parent"],
            "spans": [[s[0], s[1], s[2], s[3] - t_first, s[4] - t_first, s[5]]
                      for s in self.spans],
            "total_ms_by_name": dict(total_ms.most_common()),
            "self_ms_by_name": dict(self_ms.most_common()),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
