"""Declarative network graphs for the four backbone tables.

Each builder returns an :class:`ArchGraph` of layer specs that supports shape
inference, parameter counting, FLOP estimation, and instantiation into
runnable layers on the tensor engine. Spatial pairs follow numpy order
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
from .tensor import ShapeError, Tensor


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
    warnings: list = field(default_factory=list)

    def scaled(self, c):
        if self.scale >= 1.0:
            return c
        return max(8, math.ceil(c * self.scale))

    # -- shape inference -------------------------------------------------------

    def infer_shapes(self, emit_warnings=True):
        """Per-layer output shapes; verifies table expectations at scale 1."""
        shape = tuple(self.input_shape)
        out = []
        notes = []
        for spec in self.layers:
            shape = self._layer_shape(spec, shape)
            out.append((spec.name, shape))
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
        if emit_warnings:
            for msg in notes:
                warnings.warn(msg, ArchWarning, stacklevel=2)
        return out

    def _layer_shape(self, spec, shape):
        if spec.kind in ("conv", "pool"):
            if len(shape) != 3:
                raise ShapeError(f"{spec.name}: expected (C,H,W) input, got {shape}")
            c, h, w = shape
            kh, kw = spec.kernel
            floor = spec.kind == "pool"
            try:
                ho = tc.conv_output_size(h, kh, spec.stride[0], spec.padding[0], floor=floor)
                wo = tc.conv_output_size(w, kw, spec.stride[1], spec.padding[1], floor=floor)
            except ShapeError as exc:
                raise ShapeError(f"layer {self.name}.{spec.name}: {exc}") from exc
            co = self.scaled(spec.out_channels) if spec.kind == "conv" else c
            return (co, ho, wo)
        if spec.kind in ("bn", "relu"):
            return shape
        if spec.kind == "apool":
            return (shape[0],)
        if spec.kind == "fc":
            n_in = int(np.prod(shape))
            out = self.scaled(spec.fc_out) if spec.scale_out else spec.fc_out
            return (out,)
        if spec.kind == "grcl":
            return (self.scaled(spec.out_channels), shape[1], shape[2])
        if spec.kind == "resblock":
            return (self.scaled(spec.body[1]), shape[1], shape[2])
        raise ValueError(f"unknown layer kind {spec.kind!r}")

    # -- counting --------------------------------------------------------------

    def param_count(self):
        return sum(n for _, n in self._param_walk())

    def _param_walk(self):
        shape = tuple(self.input_shape)
        for spec in self.layers:
            out_shape = self._layer_shape(spec, shape)
            yield spec, self._layer_params(spec, shape, out_shape)
            shape = out_shape

    def _layer_params(self, spec, in_shape, out_shape):
        if spec.kind == "conv":
            cin = in_shape[0]
            cout = out_shape[0]
            kh, kw = spec.kernel
            return cin * cout * kh * kw + (cout if spec.bias else 0)
        if spec.kind == "bn":
            return 2 * in_shape[0]
        if spec.kind == "fc":
            n_in = int(np.prod(in_shape))
            return (n_in + 1) * out_shape[0]
        if spec.kind == "grcl":
            cin = in_shape[0]
            c = out_shape[0]
            kh, kw = spec.kernel
            return (cin * c * kh * kw       # feedforward conv
                    + c * c * kh * kw       # recurrent conv
                    + cin * c + c * c       # 1x1 gate convs
                    + 4 * 2 * c)            # four shared batch norms
        if spec.kind == "resblock":
            cin = in_shape[0]
            c1 = self.scaled(spec.body[0])
            c2 = self.scaled(spec.body[1])
            total = 0
            for _ in range(spec.repeat):
                total += cin * c1 * 9 + 2 * c1 + c1 * c2 * 9 + 2 * c2
                if cin != c2:
                    total += cin * c2 + 2 * c2  # 1x1 projection shortcut + bn
                cin = c2
            return total
        return 0

    def trainable_layer_count(self):
        """Conv + FC layer count; residual projection shortcuts excluded."""
        n = 0
        for spec in self.layers:
            if spec.kind in ("conv", "fc"):
                n += 1
            elif spec.kind == "resblock":
                n += 2 * spec.repeat
            elif spec.kind == "grcl":
                n += 4
        return n

    def flop_count(self, input_shape=None):
        """Approximate multiply-accumulate count x2 for conv/fc layers.

        Pooling, normalization, and activations are ignored. GRCL counts the
        feedforward convs once and the recurrent convs (iterations - 1) times.
        """
        shape = tuple(input_shape if input_shape is not None else self.input_shape)
        total = 0
        for spec in self.layers:
            out_shape = self._layer_shape(spec, shape)
            if spec.kind == "conv":
                kh, kw = spec.kernel
                total += 2 * shape[0] * out_shape[0] * kh * kw * out_shape[1] * out_shape[2]
            elif spec.kind == "fc":
                total += 2 * int(np.prod(shape)) * out_shape[0]
            elif spec.kind == "grcl":
                cin, c = shape[0], out_shape[0]
                kh, kw = spec.kernel
                hw = out_shape[1] * out_shape[2]
                total += 2 * hw * (cin * c * kh * kw + cin * c)
                total += 2 * hw * (spec.repeat - 1) * (c * c * kh * kw + c * c)
            elif spec.kind == "resblock":
                cin = shape[0]
                c1, c2 = self.scaled(spec.body[0]), self.scaled(spec.body[1])
                hw = out_shape[1] * out_shape[2]
                for _ in range(spec.repeat):
                    total += 2 * hw * (cin * c1 * 9 + c1 * c2 * 9)
                    if cin != c2:
                        total += 2 * hw * cin * c2
                    cin = c2
            shape = out_shape
        return total

    # -- reporting ---------------------------------------------------------------

    def describe(self):
        shapes = self.infer_shapes(emit_warnings=False)
        rows = []
        for (name, shape), (spec, nparams) in zip(shapes, self._param_walk()):
            rows.append({"layer": name, "kind": spec.kind,
                         "output_shape": list(shape), "params": nparams})
        return {
            "name": self.name,
            "scale": self.scale,
            "input_shape": list(self.input_shape),
            "layers": rows,
            "param_count": self.param_count(),
            "flop_count": self.flop_count(),
            "trainable_layers": self.trainable_layer_count(),
            "warnings": list(self.warnings),
        }

    def instantiate(self, dtype=np.float32, prefix=None):
        return Net(self, dtype=dtype, prefix=prefix if prefix is not None else self.name)


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
    def __init__(self, name, cin, cout, kernel, stride, padding, bias, dtype):
        self.name = name
        self.stride = stride
        self.padding = padding
        self.weight = Tensor(np.zeros((cout, cin, *kernel), dtype=dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True) if bias else None

    def params(self):
        out = {f"{self.name}.weight": self.weight}
        if self.bias is not None:
            out[f"{self.name}.bias"] = self.bias
        return out

    def forward(self, x, mode):
        out = tc.conv2d(x, self.weight, self.stride, self.padding)
        if self.bias is not None:
            out = out + self.bias.reshape(1, -1, 1, 1)
        return out


class _BNLayer:
    def __init__(self, name, c, dtype):
        self.name = name
        self.gamma = Tensor(np.ones(c, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(c, dtype=dtype), requires_grad=True)
        self.state = tc.BatchNormState(c, dtype=dtype)

    def params(self):
        return {f"{self.name}.gamma": self.gamma, f"{self.name}.beta": self.beta}

    def bn_states(self):
        return {self.name: self.state}

    def forward(self, x, mode):
        return tc.batchnorm(x, self.gamma, self.beta, self.state, mode=mode)


class _PoolLayer:
    def __init__(self, name, kernel, stride, padding):
        self.name = name
        self.kernel, self.stride, self.padding = kernel, stride, padding

    def params(self):
        return {}

    def forward(self, x, mode):
        return tc.maxpool2d(x, self.kernel, self.stride, self.padding)


class _ReluLayer:
    def __init__(self, name):
        self.name = name

    def params(self):
        return {}

    def forward(self, x, mode):
        return tc.relu(x)


class _APoolLayer:
    def __init__(self, name):
        self.name = name

    def params(self):
        return {}

    def forward(self, x, mode):
        return x.mean(axis=(-2, -1))


class _FCLayer:
    def __init__(self, name, n_in, n_out, dtype):
        self.name = name
        self.weight = Tensor(np.zeros((n_out, n_in), dtype=dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(n_out, dtype=dtype), requires_grad=True)

    def params(self):
        return {f"{self.name}.weight": self.weight, f"{self.name}.bias": self.bias}

    def forward(self, x, mode):
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        return tc.matmul(x, self.weight.T) + self.bias


class _GRCLLayer:
    """Gated recurrent conv layer: shared weights applied `iterations` times.

    x_0 = relu(BN(wf * u)); for t >= 1,
    gate_t = sigmoid(BN(wgf * u) + BN(wgr * x_{t-1})),
    x_t = relu(BN(wf * u) + gate_t * BN(wr * x_{t-1})).
    """

    def __init__(self, name, cin, c, kernel, iterations, dtype):
        self.name = name
        self.iterations = iterations
        self.wf = Tensor(np.zeros((c, cin, *kernel), dtype=dtype), requires_grad=True)
        self.wr = Tensor(np.zeros((c, c, *kernel), dtype=dtype), requires_grad=True)
        self.wgf = Tensor(np.zeros((c, cin, 1, 1), dtype=dtype), requires_grad=True)
        self.wgr = Tensor(np.zeros((c, c, 1, 1), dtype=dtype), requires_grad=True)
        pad = (kernel[0] // 2, kernel[1] // 2)
        self.pad = pad
        self.bn_f = _BNLayer(f"{name}.bn_f", c, dtype)
        self.bn_r = _BNLayer(f"{name}.bn_r", c, dtype)
        self.bn_gf = _BNLayer(f"{name}.bn_gf", c, dtype)
        self.bn_gr = _BNLayer(f"{name}.bn_gr", c, dtype)

    def params(self):
        out = {f"{self.name}.wf": self.wf, f"{self.name}.wr": self.wr,
               f"{self.name}.wgf": self.wgf, f"{self.name}.wgr": self.wgr}
        for sub in (self.bn_f, self.bn_r, self.bn_gf, self.bn_gr):
            out.update(sub.params())
        return out

    def bn_states(self):
        out = {}
        for sub in (self.bn_f, self.bn_r, self.bn_gf, self.bn_gr):
            out.update(sub.bn_states())
        return out

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

    def __init__(self, name, cin, c1, c2, repeat, dtype):
        self.name = name
        self.units = []
        for r in range(repeat):
            unit = {
                "conv1": _ConvLayer(f"{name}.{r}.conv1", cin, c1, (3, 3), (1, 1), (1, 1), False, dtype),
                "bn1": _BNLayer(f"{name}.{r}.bn1", c1, dtype),
                "conv2": _ConvLayer(f"{name}.{r}.conv2", c1, c2, (3, 3), (1, 1), (1, 1), False, dtype),
                "bn2": _BNLayer(f"{name}.{r}.bn2", c2, dtype),
                "proj": None,
                "bn_proj": None,
            }
            if cin != c2:
                unit["proj"] = _ConvLayer(f"{name}.{r}.proj", cin, c2, (1, 1), (1, 1), (0, 0), False, dtype)
                unit["bn_proj"] = _BNLayer(f"{name}.{r}.bn_proj", c2, dtype)
            self.units.append(unit)
            cin = c2

    def params(self):
        out = {}
        for unit in self.units:
            for key in ("conv1", "bn1", "conv2", "bn2", "proj", "bn_proj"):
                if unit[key] is not None:
                    out.update(unit[key].params())
        return out

    def bn_states(self):
        out = {}
        for unit in self.units:
            for key in ("bn1", "bn2", "bn_proj"):
                if unit[key] is not None:
                    out.update(unit[key].bn_states())
        return out

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
    """Runnable instantiation of an ArchGraph."""

    def __init__(self, graph: ArchGraph, dtype=np.float32, prefix=""):
        self.graph = graph
        self.dtype = dtype
        self.prefix = prefix
        self.layers = []
        shape = tuple(graph.input_shape)
        for spec in graph.layers:
            out_shape = graph._layer_shape(spec, shape)
            self.layers.append(self._build_layer(spec, shape, out_shape))
            shape = out_shape
        self.output_shape = shape

    def _build_layer(self, spec, in_shape, out_shape):
        name = f"{self.prefix}.{spec.name}" if self.prefix else spec.name
        if spec.kind == "conv":
            return _ConvLayer(name, in_shape[0], out_shape[0], spec.kernel,
                              spec.stride, spec.padding, spec.bias, self.dtype)
        if spec.kind == "bn":
            return _BNLayer(name, in_shape[0], self.dtype)
        if spec.kind == "pool":
            return _PoolLayer(name, spec.kernel, spec.stride, spec.padding)
        if spec.kind == "relu":
            return _ReluLayer(name)
        if spec.kind == "apool":
            return _APoolLayer(name)
        if spec.kind == "fc":
            return _FCLayer(name, int(np.prod(in_shape)), out_shape[0], self.dtype)
        if spec.kind == "grcl":
            return _GRCLLayer(name, in_shape[0], out_shape[0], spec.kernel,
                              spec.repeat, self.dtype)
        if spec.kind == "resblock":
            c1 = self.graph.scaled(spec.body[0])
            c2 = self.graph.scaled(spec.body[1])
            return _ResBlockLayer(name, in_shape[0], c1, c2, spec.repeat, self.dtype)
        raise ValueError(f"unknown layer kind {spec.kind!r}")

    def params(self):
        out = {}
        for layer in self.layers:
            out.update(layer.params())
        return out

    def param_element_count(self):
        return sum(p.size for p in self.params().values())

    def bn_states(self):
        out = {}
        for layer in self.layers:
            getter = getattr(layer, "bn_states", None)
            if getter is not None:
                out.update(getter())
        return out

    def forward(self, x, mode="train"):
        for layer in self.layers:
            x = layer.forward(x, mode)
        return x
