"""Declarative network graphs for the four backbone tables.

Each builder returns an :class:`ArchGraph` of layer specs. One rule per layer
kind (`ArchGraph._rule`) gives a layer's output shape, parameter count, FLOPs
and trainable-layer count; `ArchGraph.walk` threads the shapes through the
table, and every count, `describe` and instantiation into runnable layers on
the tensor engine read that walk. Spatial pairs follow numpy order
(height, width) internally; the source tables print width x height, so
builder code converts at the boundary.

A uniform channel-scale factor in (0, 1] shrinks every channel count (and
scale-participating FC width) for toy-scale training; scaled counts round up
with a floor of 8.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tc
from .tensor import ShapeError


class ArchWarning(UserWarning):
    """Raised (as a warning) when a table row's stated output disagrees with
    its stated kernel/stride/padding arithmetic."""


@dataclass
class LayerSpec:
    kind: str            # conv | bn | pool | relu | apool | fc | grcl | resblock
    name: str
    out_channels: int = 0
    kernel: tuple = (3, 3)        # (kh, kw)
    stride: tuple = (1, 1)
    padding: tuple = (1, 1)
    repeat: int = 1               # grcl iterations / resblock repeats
    body: tuple = ()              # resblock body channel pair (c1, c2)
    fc_out: int = 0
    scale_out: bool = True
    bias: bool = True
    expected: tuple | None = None  # table "Output" column, (h, w) or (n,)
    note: str = ""


def conv(name, c, kernel=(3, 3), stride=(1, 1), padding=(1, 1), bias=True,
         expected=None, note=""):
    return LayerSpec("conv", name, out_channels=c, kernel=kernel, stride=stride,
                     padding=padding, bias=bias, expected=expected, note=note)


def bn(name, expected=None):
    return LayerSpec("bn", name, expected=expected)


def pool(name, kernel, stride=None, padding=(0, 0), expected=None):
    return LayerSpec("pool", name, kernel=kernel,
                     stride=stride if stride is not None else kernel,
                     padding=padding, expected=expected)


def relu_spec(name="relu"):
    return LayerSpec("relu", name)


def apool(name="apool", expected=None):
    return LayerSpec("apool", name, expected=expected)


def fc(name, out, scale_out=True, expected=None):
    return LayerSpec("fc", name, fc_out=out, scale_out=scale_out, expected=expected)


def grcl(name, c, kernel=(3, 3), iterations=5, expected=None):
    return LayerSpec("grcl", name, out_channels=c, kernel=kernel,
                     repeat=iterations, expected=expected)


def resblock(name, c1, c2, repeat=1, expected=None):
    return LayerSpec("resblock", name, body=(c1, c2), repeat=repeat, expected=expected)


@dataclass
class ArchGraph:
    name: str
    layers: list
    input_shape: tuple = (1, 32, 100)   # (C, H, W)
    scale: float = 1.0
    warnings: list = field(default_factory=list, init=False)  # set by infer_shapes/describe

    def scaled(self, c):
        if self.scale >= 1.0:
            return c
        return max(8, math.ceil(c * self.scale))

    # -- the per-kind rule -------------------------------------------------------

    def _rule(self, spec, shape):
        """(output shape, parameters, FLOPs, trainable layers) of one layer on `shape`.

        FLOPs are multiply-accumulates x2 of the conv and FC weights; pooling,
        normalization and activations count 0. Trainable layers are conv and
        FC layers, residual projection shortcuts excluded.
        """
        kind = spec.kind
        if kind in ("conv", "pool"):
            if len(shape) != 3:
                raise ShapeError(f"{spec.name}: expected (C,H,W) input, got {shape}")
            c, h, w = shape
            try:
                ho, wo = (tc.conv_output_size(n, k, s, p, floor=kind == "pool")
                          for n, k, s, p in zip((h, w), spec.kernel, spec.stride, spec.padding))
            except ShapeError as exc:
                raise ShapeError(f"layer {self.name}.{spec.name}: {exc}") from exc
            if kind == "pool":
                return (c, ho, wo), 0, 0, 0
            co = self.scaled(spec.out_channels)
            macs = c * co * spec.kernel[0] * spec.kernel[1]
            return (co, ho, wo), macs + (co if spec.bias else 0), 2 * macs * ho * wo, 1
        if kind == "bn":
            return shape, 2 * shape[0], 0, 0
        if kind == "relu":
            return shape, 0, 0, 0
        if kind == "apool":
            return (shape[0],), 0, 0, 0
        if kind == "fc":
            n_in = int(np.prod(shape))
            out = self.scaled(spec.fc_out) if spec.scale_out else spec.fc_out
            return (out,), (n_in + 1) * out, 2 * n_in * out, 1
        cin, h, w = shape
        if kind == "grcl":
            # Feedforward and 1x1 gate convs run once, their recurrent twins
            # (iterations - 1) times; four batch norms are shared across steps.
            c = self.scaled(spec.out_channels)
            k = spec.kernel[0] * spec.kernel[1]
            ff, rec = cin * c * k + cin * c, c * c * k + c * c
            flops = 2 * h * w * (ff + (spec.repeat - 1) * rec)
            return (c, h, w), ff + rec + 4 * 2 * c, flops, 4
        if kind == "resblock":
            c1, c2 = self.scaled(spec.body[0]), self.scaled(spec.body[1])
            macs = bn_params = 0
            for _ in range(spec.repeat):
                proj = cin != c2  # 1x1 conv + bn projects the shortcut when channels change
                macs += 9 * c1 * (cin + c2) + proj * cin * c2
                bn_params += 2 * (c1 + c2 + proj * c2)
                cin = c2
            return (c2, h, w), macs + bn_params, 2 * h * w * macs, 2 * spec.repeat
        raise ValueError(f"unknown layer kind {spec.kind!r}")

    def walk(self, input_shape=None):
        """Yield (spec, in_shape, out_shape, params, flops, trainable_layers) per layer."""
        shape = tuple(self.input_shape if input_shape is None else input_shape)
        for spec in self.layers:
            out_shape, params, flops, trainable = self._rule(spec, shape)
            yield spec, shape, out_shape, params, flops, trainable
            shape = out_shape

    # -- shapes and counts ---------------------------------------------------------

    def infer_shapes(self, emit_warnings=True):
        """Per-layer output shapes; verifies table expectations at scale 1."""
        specs, _, shapes, *_ = zip(*self.walk())
        notes = self._check(specs, shapes)
        if emit_warnings:
            for msg in notes:
                warnings.warn(msg, ArchWarning, stacklevel=2)
        return [(spec.name, shape) for spec, shape in zip(specs, shapes)]

    def _check(self, specs, shapes):
        """Sets `warnings`: table notes plus outputs that deviate from the table at scale 1."""
        notes = []
        for spec, shape in zip(specs, shapes):
            if spec.note:
                notes.append(f"{self.name}.{spec.name}: {spec.note}")
            if spec.expected is not None and self.scale >= 1.0:
                got = shape[-len(spec.expected):]
                if tuple(got) != tuple(spec.expected):
                    notes.append(
                        f"{self.name}.{spec.name}: inferred output {got} deviates "
                        f"from table entry {tuple(spec.expected)}"
                    )
        self.warnings = notes
        return notes

    def param_count(self):
        return sum(params for _, _, _, params, _, _ in self.walk())

    def flop_count(self, input_shape=None):
        """Approximate multiply-accumulate count x2 for conv/fc layers (see `_rule`)."""
        return sum(flops for *_, flops, _ in self.walk(input_shape))

    # -- reporting ---------------------------------------------------------------

    def describe(self):
        specs, _, shapes, params, flops, trainable = zip(*self.walk())
        self._check(specs, shapes)
        return {
            "name": self.name,
            "scale": self.scale,
            "input_shape": list(self.input_shape),
            "layers": [{"layer": spec.name, "kind": spec.kind,
                        "output_shape": list(shape), "params": n}
                       for spec, shape, n in zip(specs, shapes, params)],
            "param_count": sum(params),
            "flop_count": sum(flops),
            "trainable_layers": sum(trainable),
            "warnings": list(self.warnings),
        }

    def instantiate(self, store, prefix=None):
        """Runnable layers whose tensors and batch-norm states are created in `store`."""
        return Net(self, store, prefix=prefix if prefix is not None else self.name)


# -- builders ---------------------------------------------------------------------


def build_vgg(scale=1.0):
    """Seven-conv VGG-style extractor; 512 channels x 24 columns at scale 1."""
    layers = [
        conv("conv1", 64, expected=(32, 100)),
        relu_spec("relu1"),
        pool("pool1", (2, 2), expected=(16, 50)),
        conv("conv2", 128, expected=(16, 50)),
        relu_spec("relu2"),
        pool("pool2", (2, 2), expected=(8, 25)),
        conv("conv3", 256, expected=(8, 25)),
        relu_spec("relu3"),
        conv("conv4", 256, expected=(8, 25)),
        relu_spec("relu4"),
        pool("pool3", (2, 1), stride=(2, 1), expected=(4, 25)),
        conv("conv5", 512, bias=False, expected=(4, 25)),
        bn("bn1"),
        relu_spec("relu5"),
        conv("conv6", 512, bias=False, expected=(4, 25)),
        bn("bn2"),
        relu_spec("relu6"),
        pool("pool4", (2, 1), stride=(2, 1), expected=(2, 25)),
        conv("conv7", 512, kernel=(2, 2), stride=(1, 1), padding=(0, 0),
             expected=(1, 24)),
        relu_spec("relu7"),
    ]
    return ArchGraph("vgg", layers, scale=scale)


def build_rcnn(scale=1.0):
    """Gated recurrent conv extractor; 512 channels x 26 columns at scale 1."""
    layers = [
        conv("conv1", 64, expected=(32, 100)),
        relu_spec("relu1"),
        pool("pool1", (2, 2), expected=(16, 50)),
        grcl("grcl1", 64, iterations=5, expected=(16, 50)),
        pool("pool2", (2, 2), expected=(8, 25)),
        grcl("grcl2", 128, iterations=5, expected=(8, 25)),
        pool("pool3", (2, 2), stride=(2, 1), padding=(0, 1), expected=(4, 26)),
        grcl("grcl3", 256, iterations=5, expected=(4, 26)),
        pool("pool4", (2, 2), stride=(2, 1), padding=(0, 1), expected=(2, 27)),
        conv("conv2", 512, kernel=(2, 2), stride=(1, 1), padding=(0, 0),
             expected=(1, 26),
             note="reference table lists k 3x3, which cannot produce the stated 26x1 "
                  "output from 27x2 (height would be 0); built with k 2x2"),
        relu_spec("relu2"),
    ]
    return ArchGraph("rcnn", layers, scale=scale)


def build_resnet(scale=1.0):
    """Residual extractor, 29 trainable layers; 512 channels x 26 columns at scale 1."""
    layers = [
        conv("conv1", 32, bias=False, expected=(32, 100)),
        bn("bn1"),
        relu_spec("relu1"),
        conv("conv2", 64, bias=False, expected=(32, 100)),
        bn("bn2"),
        relu_spec("relu2"),
        pool("pool1", (2, 2), expected=(16, 50)),
        resblock("block1", 128, 128, repeat=1, expected=(16, 50)),
        conv("conv3", 128, bias=False, expected=(16, 50)),
        bn("bn3"),
        relu_spec("relu3"),
        pool("pool2", (2, 2), expected=(8, 25)),
        resblock("block2", 256, 256, repeat=2, expected=(8, 25)),
        conv("conv4", 256, bias=False, expected=(8, 25)),
        bn("bn4"),
        relu_spec("relu4"),
        pool("pool3", (2, 2), stride=(2, 1), padding=(0, 1), expected=(4, 26)),
        resblock("block3", 512, 512, repeat=5, expected=(4, 26)),
        conv("conv5", 512, bias=False, expected=(4, 26)),
        bn("bn5"),
        relu_spec("relu5"),
        resblock("block4", 512, 512, repeat=3, expected=(4, 26)),
        conv("conv6", 512, kernel=(2, 2), stride=(2, 1), padding=(0, 1),
             bias=False, expected=(2, 27)),
        bn("bn6"),
        relu_spec("relu6"),
        conv("conv7", 512, kernel=(2, 2), stride=(1, 1), padding=(0, 0),
             bias=False, expected=(1, 26)),
        bn("bn7"),
        relu_spec("relu7"),
    ]
    return ArchGraph("resnet", layers, scale=scale)


def build_localization_net(num_fiducials=20, scale=1.0):
    """Fiducial-point regressor: four conv-BN-pool stages, APool, two FCs."""
    layers = [
        conv("conv1", 64, bias=False, expected=(32, 100)),
        bn("bn1"),
        relu_spec("relu1"),
        pool("pool1", (2, 2), expected=(16, 50)),
        conv("conv2", 128, bias=False, expected=(16, 50)),
        bn("bn2"),
        relu_spec("relu2"),
        pool("pool2", (2, 2), expected=(8, 25)),
        conv("conv3", 256, bias=False, expected=(8, 25)),
        bn("bn3"),
        relu_spec("relu3"),
        pool("pool3", (2, 2), expected=(4, 12)),
        conv("conv4", 512, bias=False, expected=(4, 12)),
        bn("bn4"),
        relu_spec("relu4"),
        apool("apool", expected=(512,) if scale >= 1.0 else None),
        fc("fc1", 256),
        relu_spec("relu5"),
        fc("fc2", 2 * num_fiducials, scale_out=False, expected=(2 * num_fiducials,)),
    ]
    return ArchGraph("loc", layers, scale=scale)


BUILDERS = {
    "vgg": build_vgg,
    "rcnn": build_rcnn,
    "resnet": build_resnet,
}


# -- runnable layers ----------------------------------------------------------------


class _ConvLayer:
    def __init__(self, store, name, cin, cout, kernel, stride, padding, bias):
        self.stride = stride
        self.padding = padding
        self.weight = store.new(f"{name}.weight", (cout, cin, *kernel))
        self.bias = store.new(f"{name}.bias", (cout,)) if bias else None

    def forward(self, x, mode):
        out = tc.conv2d(x, self.weight, self.stride, self.padding)
        if self.bias is not None:
            out = out + self.bias.reshape(-1, 1, 1, 1)
        return out


class _BNLayer:
    def __init__(self, store, name, c):
        self.gamma = store.new(f"{name}.gamma", (c,), fill=1.0)
        self.beta = store.new(f"{name}.beta", (c,))
        self.state = store.bn_state(name, c)

    def forward(self, x, mode):
        return tc.batchnorm(x, self.gamma, self.beta, self.state, mode=mode)


class _PoolLayer:
    def __init__(self, kernel, stride, padding):
        self.kernel, self.stride, self.padding = kernel, stride, padding

    def forward(self, x, mode):
        return tc.maxpool2d(x, self.kernel, self.stride, self.padding)


class _ReluLayer:
    def forward(self, x, mode):
        return tc.relu(x)


class _APoolLayer:
    def forward(self, x, mode):
        return x.mean(axis=(-2, -1)).T  # (C, N, H, W) -> (N, C)


class _FCLayer:
    def __init__(self, store, name, n_in, n_out):
        self.weight = store.new(f"{name}.weight", (n_out, n_in))
        self.bias = store.new(f"{name}.bias", (n_out,))

    def forward(self, x, mode):
        if x.ndim > 2:  # (C, N, H, W) -> (N, C*H*W)
            x = x.transpose(1, 0, 2, 3).reshape(x.shape[1], -1)
        return tc.matmul(x, self.weight.T) + self.bias


class _GRCLLayer:
    """Gated recurrent conv layer: shared weights applied `iterations` times.

    x_0 = relu(BN(wf * u)); for t >= 1,
    gate_t = sigmoid(BN(wgf * u) + BN(wgr * x_{t-1})),
    x_t = relu(BN(wf * u) + gate_t * BN(wr * x_{t-1})).
    """

    def __init__(self, store, name, cin, c, kernel, iterations):
        self.iterations = iterations
        self.wf = store.new(f"{name}.wf", (c, cin, *kernel))
        self.wr = store.new(f"{name}.wr", (c, c, *kernel))
        self.wgf = store.new(f"{name}.wgf", (c, cin, 1, 1))
        self.wgr = store.new(f"{name}.wgr", (c, c, 1, 1))
        self.pad = (kernel[0] // 2, kernel[1] // 2)
        self.bn_f = _BNLayer(store, f"{name}.bn_f", c)
        self.bn_r = _BNLayer(store, f"{name}.bn_r", c)
        self.bn_gf = _BNLayer(store, f"{name}.bn_gf", c)
        self.bn_gr = _BNLayer(store, f"{name}.bn_gr", c)

    def forward(self, u, mode):
        ff = self.bn_f.forward(tc.conv2d(u, self.wf, (1, 1), self.pad), mode)
        x = tc.relu(ff)
        if self.iterations > 1:
            gf = self.bn_gf.forward(tc.conv2d(u, self.wgf, (1, 1), (0, 0)), mode)
            for _ in range(self.iterations - 1):
                gate = tc.sigmoid(gf + self.bn_gr.forward(
                    tc.conv2d(x, self.wgr, (1, 1), (0, 0)), mode))
                rec = self.bn_r.forward(tc.conv2d(x, self.wr, (1, 1), self.pad), mode)
                x = tc.relu(ff + gate * rec)
        return x


class _ResBlockLayer:
    """Stack of two-conv residual units; 1x1 projection when channels change."""

    def __init__(self, store, name, cin, c1, c2, repeat):
        self.units = []
        for r in range(repeat):
            unit = {
                "conv1": _ConvLayer(store, f"{name}.{r}.conv1", cin, c1, (3, 3), (1, 1), (1, 1), False),
                "bn1": _BNLayer(store, f"{name}.{r}.bn1", c1),
                "conv2": _ConvLayer(store, f"{name}.{r}.conv2", c1, c2, (3, 3), (1, 1), (1, 1), False),
                "bn2": _BNLayer(store, f"{name}.{r}.bn2", c2),
                "proj": None,
                "bn_proj": None,
            }
            if cin != c2:
                unit["proj"] = _ConvLayer(store, f"{name}.{r}.proj", cin, c2, (1, 1), (1, 1), (0, 0), False)
                unit["bn_proj"] = _BNLayer(store, f"{name}.{r}.bn_proj", c2)
            self.units.append(unit)
            cin = c2

    def forward(self, x, mode):
        for unit in self.units:
            h = tc.relu(unit["bn1"].forward(unit["conv1"].forward(x, mode), mode))
            h = unit["bn2"].forward(unit["conv2"].forward(h, mode), mode)
            shortcut = x
            if unit["proj"] is not None:
                shortcut = unit["bn_proj"].forward(unit["proj"].forward(x, mode), mode)
            x = tc.relu(h + shortcut)
        return x


class Net:
    """Runnable instantiation of an ArchGraph, its tensors created in `store`.

    ``forward`` takes NCHW images; inside, every layer works on channel-major
    (C, N, H, W) maps, so that a conv chunk's patches are one (C*kh*kw, n*Ho*Wo)
    matrix and batch norm reduces contiguous rows.
    """

    def __init__(self, graph: ArchGraph, store, prefix=""):
        self.graph = graph
        self.prefix = prefix
        self.layers = []
        for spec, in_shape, out_shape, *_ in graph.walk():
            self.layers.append(self._build_layer(store, spec, in_shape, out_shape))
        self.output_shape = out_shape

    def _build_layer(self, store, spec, in_shape, out_shape):
        name = f"{self.prefix}.{spec.name}" if self.prefix else spec.name
        if spec.kind == "conv":
            return _ConvLayer(store, name, in_shape[0], out_shape[0], spec.kernel,
                              spec.stride, spec.padding, spec.bias)
        if spec.kind == "bn":
            return _BNLayer(store, name, in_shape[0])
        if spec.kind == "pool":
            return _PoolLayer(spec.kernel, spec.stride, spec.padding)
        if spec.kind == "relu":
            return _ReluLayer()
        if spec.kind == "apool":
            return _APoolLayer()
        if spec.kind == "fc":
            return _FCLayer(store, name, int(np.prod(in_shape)), out_shape[0])
        if spec.kind == "grcl":
            return _GRCLLayer(store, name, in_shape[0], out_shape[0], spec.kernel,
                              spec.repeat)
        if spec.kind == "resblock":
            c1 = self.graph.scaled(spec.body[0])
            c2 = self.graph.scaled(spec.body[1])
            return _ResBlockLayer(store, name, in_shape[0], c1, c2, spec.repeat)
        raise ValueError(f"unknown layer kind {spec.kind!r}")

    def forward(self, x, mode="train"):
        """NCHW images -> NCHW maps, or (N, F) after an FC head.

        The layers hold channel-major (C, N, H, W) maps: the entry transpose is
        free at C = 1, and 4-D output is transposed back to NCHW on the way out.
        An average pool turns (C, N, H, W) into (N, C) for the FC layers after it.
        """
        x = x.transpose(1, 0, 2, 3)
        for layer in self.layers:
            x = layer.forward(x, mode)
        return x.transpose(1, 0, 2, 3) if x.ndim == 4 else x
