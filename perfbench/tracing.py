"""Outside-in tracing of strforge at its module boundaries.

A ``Tracer`` replaces public functions and methods that one strforge module
calls in another with thin wrappers that record spans (name, start, end,
parent) and counts, and puts every original back on ``uninstall``. Nothing
inside the program is edited; with no tracer installed the program runs
untouched. ``DecodeCapture`` only records the strings ``Model.decode``
returns, so that the benchmark can check outputs without timing anything.
"""

from __future__ import annotations

import collections
import os
import statistics
import time

import numpy as np

from strforge import arch, checkpoint, pipeline, predict, seqmodel, tensor, toydata, tps

_MISSING = object()

# Layer kinds of ArchGraph specs, as reported: adaptive pooling counts as pooling.
_KIND = {"conv": "conv", "bn": "bn", "pool": "pool", "apool": "pool", "relu": "relu",
         "fc": "fc", "grcl": "grcl", "resblock": "resblock"}
ARCH_KINDS = ("conv", "bn", "pool", "relu", "resblock", "grcl", "fc")


def _pair(v):
    return tuple(v) if isinstance(v, (tuple, list)) else (v, v)


class Patches:
    """Attribute replacements that can all be undone and checked."""

    def __init__(self):
        self._saved = []  # (owner, attr, original entry of owner.__dict__ or _MISSING)

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        saved, self._saved = self._saved, []
        return [f"{getattr(o, '__name__', type(o).__name__)}.{a}"
                for o, a, orig in saved if vars(o).get(a, _MISSING) is not orig]

    def __len__(self):
        return len(self._saved)


class DecodeCapture:
    """Records the strings every ``Model.decode`` call returns (no clock)."""

    def __init__(self):
        self.outputs = []
        self._patches = Patches()

    def install(self):
        original = pipeline.Model.decode
        outputs = self.outputs

        def decode(model, *args, **kwargs):
            out = original(model, *args, **kwargs)
            outputs.append(list(out))
            return out

        self._patches.set(pipeline.Model, "decode", decode)

    def take(self):
        """Strings decoded since the last take, in call order."""
        out = [s for chunk in self.outputs for s in chunk]
        self.outputs.clear()
        return out

    def uninstall(self):
        return self._patches.restore()


class Tracer:
    """Spans and counts recorded by wrappers at strforge's module boundaries."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, outermost of its name]
        self.counts = collections.Counter()
        self.conv_shapes = collections.Counter()
        self.feat_input_dtypes = set()
        self.attn_decodes = []     # (images, decoder steps) per attention decode call
        self._stack = []
        self._active = collections.Counter()
        self._attn_steps = None
        self._patches = Patches()

    # -- recording -------------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.conv_shapes.clear()
        self.attn_decodes.clear()

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._active[name] == 0])
        self._stack.append(idx)
        self._active[name] += 1
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self._active[self.spans[idx][0]] -= 1

    def span(self, name, fn):
        """Wrap ``fn`` so that each call records one span."""
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)
        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self, models=()):
        """Wrap the module boundaries, plus the arch layers of ``models``."""
        p = self._patches
        for attr, name in (("train", "pipeline.train"), ("validate", "pipeline.validate"),
                           ("clip_gradients", "pipeline.clip"),
                           ("adadelta_step", "pipeline.adadelta"),
                           ("ctc_loss_batch", "predict.loss"),
                           ("attn_loss_batch", "predict.loss"),
                           ("ctc_greedy_decode", "predict.decode")):
            p.set(pipeline, attr, self.span(name, getattr(pipeline, attr)))
        p.set(pipeline, "attn_greedy_decode_batch",
              self._attn_decode(pipeline.attn_greedy_decode_batch))
        p.set(predict.AttnDecoder, "step", self._attn_step(predict.AttnDecoder.step))
        p.set(tps.TpsTransformer, "forward", self.span("tps.fwd", tps.TpsTransformer.forward))
        p.set(arch.Net, "forward", self._net_forward(arch.Net.forward))
        p.set(seqmodel.BiLSTMStack, "forward",
              self.span("seqmodel.fwd", seqmodel.BiLSTMStack.forward))
        p.set(tensor.Tensor, "backward", self.span("tensor.backward", tensor.Tensor.backward))
        p.set(tensor, "conv2d", self._conv2d(tensor.conv2d))
        p.set(tensor, "bilinear_sample",
              self.span("tensor.bilinear_sample", tensor.bilinear_sample))
        p.set(checkpoint, "save_params", self._save(checkpoint.save_params))
        p.set(checkpoint, "load_params",
              self.span("checkpoint.load", checkpoint.load_params))
        p.set(toydata, "synth_toydata", self.span("toydata.synth", toydata.synth_toydata))
        for model in models:
            nets = [model.feat] + ([model.tps.loc_net] if model.tps is not None else [])
            for net in nets:
                for spec, layer in zip(net.graph.layers, net.layers):
                    p.set(layer, "forward",
                          self.span(f"arch.{_KIND[spec.kind]}", layer.forward))

    def uninstall(self):
        """Restore every original; returns the names of any that did not come back."""
        return self._patches.restore()

    @property
    def installed(self):
        return len(self._patches) > 0

    # -- boundary-specific wrappers -------------------------------------------------

    def _net_forward(self, original):
        span = self.span("arch.fwd", original)
        tracer = self

        def forward(net, x, mode="train"):
            if net.prefix == "feat":
                tracer.feat_input_dtypes.add(str(x.dtype))
                tracer.counts["arch.images"] += x.shape[0]
            tracer.counts["arch.flops"] += net.graph.flop_count() * x.shape[0]
            return span(net, x, mode)
        return forward

    def _conv2d(self, original):
        tracer = self

        def conv2d(x, weight, stride=(1, 1), padding=(0, 0)):
            tracer.counts["tensor.conv2d"] += 1
            tracer.conv_shapes[(x.shape, weight.shape, _pair(stride), _pair(padding),
                                str(x.dtype), str(weight.dtype),
                                x.requires_grad, weight.requires_grad)] += 1
            return original(x, weight, stride, padding)
        return conv2d

    def _attn_decode(self, original):
        span = self.span("predict.decode", original)
        tracer = self

        def attn_greedy_decode_batch(hseq, decoder, max_len=25):
            tracer._attn_steps = 0
            try:
                return span(hseq, decoder, max_len=max_len)
            finally:
                tracer.attn_decodes.append((hseq.shape[0], tracer._attn_steps))
                tracer._attn_steps = None
        return attn_greedy_decode_batch

    def _attn_step(self, original):
        tracer = self

        def step(decoder, *args, **kwargs):
            if tracer._attn_steps is not None:
                tracer._attn_steps += 1
            return original(decoder, *args, **kwargs)
        return step

    def _save(self, original):
        span = self.span("checkpoint.save", original)
        tracer = self

        def save_params(path, params, extra=None):
            out = span(path, params, extra=extra)
            tracer.counts["checkpoint.bytes"] += os.path.getsize(path)
            return out
        return save_params

    # -- reading the record ----------------------------------------------------------

    def totals(self):
        """Seconds per span name, counting a span nested in its own name once."""
        out = collections.Counter()
        for name, start, end, _, outer in self.spans:
            if outer:
                out[name] += end - start
        return out

    def children(self, name):
        """(wall seconds of ``name`` spans, seconds per direct-child name)."""
        wall = 0.0
        split = collections.Counter()
        parents = set()
        for i, (n, start, end, _, _) in enumerate(self.spans):
            if n == name:
                wall += end - start
                parents.add(i)
        for n, start, end, parent, _ in self.spans:
            if parent in parents:
                split[n] += end - start
        return wall, split


def replay_conv(shapes, seed=0):
    """Median of three forward and backward seconds of ``tensor.conv2d`` per shape.

    Each shape recorded during a traced run is replayed on random data of the
    recorded dtype; the backward computes the same input and weight gradients
    the recorded call needed.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for key in shapes:
        xs, ws, stride, padding, xdt, wdt, xgrad, wgrad = key
        x = tensor.Tensor(rng.standard_normal(xs).astype(xdt), requires_grad=xgrad)
        w = tensor.Tensor(rng.standard_normal(ws).astype(wdt), requires_grad=wgrad)
        fwd, bwd = [], []
        for _ in range(3):
            x.zero_grad()
            w.zero_grad()
            t0 = time.perf_counter()
            y = tensor.conv2d(x, w, stride, padding)
            t1 = time.perf_counter()
            if xgrad or wgrad:
                y.backward(np.ones_like(y.data))
            t2 = time.perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
        out[key] = (statistics.median(fwd), statistics.median(bwd))
    return out
