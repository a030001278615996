"""Minimal dense tensor engine with reverse-mode differentiation.

Backed by numpy arrays. Every op computes in the dtype of its inputs and
builds its constants in that dtype, so a float32 model computes in float32,
forward and backward, and a float64 one in float64. Raw data keeps its float
dtype; integer data becomes float64. ``grad_check`` takes float64 tensors
only, so that finite differences are meaningful. A tensor records the
operation that produced it as a graph node: the backward closure and, for
each parent, its link (the parent's node, the parent itself if it is a leaf
that needs a gradient, or nothing). Calling ``backward`` on a scalar walks the
nodes once in reverse topological order and accumulates gradients additively
into the leaves it reaches (tensors no op produced, such as parameters, with
``requires_grad`` set). A graph serves one backward: each node releases its
parents and closure once its closure has run. ``backward`` on a tensor that
does not require a gradient (a constant, or a result built under ``no_grad``)
raises ``StateError``.

Inside a ``with no_grad():`` block every op computes the same values but
records nothing: its output has ``requires_grad`` unset and no node, so each
intermediate is freed as soon as nothing refers to it. The block nests and
restores the previous state on exit, also on an exception. Inference
(``Model.decode``, eval-mode ``Model.loss``) runs under it.

Feature maps are channel-major: ``conv2d``, ``maxpool2d``, ``batchnorm`` and
``relu`` take and give (C, N, H, W) arrays, with OIHW conv weights;
``bilinear_sample`` takes NCHW (at C = 1 the same memory). ``conv2d`` runs one
kernel, a chunked im2col correlation with one GEMM per chunk of images, for the
forward and the input gradient. The input gradient's patches Gcol of the output
gradient give the weight gradient too, gW[o, c, i, j] = sum over (n, y, x) of
Gcol[(o, kh-1-i, kw-1-j), (n, y, x)] * x[c, n, y, x], chunked by Gcol's budget; an
input that needs no gradient gives it from its own patches. Chunk budgets agree to
1e-12 relative in float64, not bit for bit.

A node keeps only what its backward reads: its closure captures arrays,
shapes, ``requires_grad`` flags and rebuild functions, never a Tensor, and it
keeps no copy derived from its input (``conv2d`` reads its input again,
``batchnorm`` recomputes x - mean, a padded ``maxpool2d`` pads again). A
recorded train-mode ``batchnorm`` result carries a rebuild, which replays the
forward's (x - mean) * scale + beta from the input its node holds, and a
``relu`` of a result with a rebuild keeps that rebuild for its mask and
carries max(rebuild(), 0). ``conv2d`` and ``maxpool2d`` keep their input's
rebuild in place of its data and call it in their backward. A rebuild runs the
forward's ops in the forward's order, so it gives the forward's bits. So a
result's data lives only as long as its caller or a backward holds it: a
batch-norm output that only a ReLU or an add consumes, and a batch-norm ReLU
that only convs and pools consume, are freed during the forward. A backward
reads the arrays it captured, so nothing may write a recorded array in place
before ``backward`` has run.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np


class ShapeError(ValueError):
    pass


class StateError(RuntimeError):
    pass


def _as_array(x, dtype=None):
    if isinstance(x, Tensor):
        raise TypeError("expected raw data, got Tensor")
    a = np.asarray(x, dtype=dtype)
    if a.dtype.kind not in "fiu":
        raise TypeError(f"unsupported dtype {a.dtype}")
    if dtype is None and a.dtype.kind in "iu":
        a = a.astype(np.float64)
    return a


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _freed(g):
    raise RuntimeError("backward through a graph that an earlier backward already used")


_recording = True  # cleared inside no_grad(): ops build no graph


@contextlib.contextmanager
def no_grad():
    """Run ops without recording a graph; the previous state returns on exit.

    ``Model.decode`` and an eval-mode ``Model.loss`` use it; process-wide, not per thread.
    """
    global _recording
    outer, _recording = _recording, False
    try:
        yield
    finally:
        _recording = outer


class _Node:
    """The graph link of one recorded result: its backward closure and its parents' links."""

    __slots__ = ("parents", "backward")

    def __init__(self, parents, backward):
        self.parents, self.backward = parents, backward


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_node", "_rebuild")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None  # set on a recorded result; a leaf is its own link
        self._rebuild = None  # set on a recorded result a backward may replay instead of holding

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    # -- graph machinery -----------------------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        out = Tensor.__new__(Tensor)
        out.data = data
        out.requires_grad = _recording and any(p.requires_grad for p in parents)
        out.grad = out._rebuild = None
        out._node = _Node(tuple((p._node or p) if p.requires_grad else None for p in parents),
                          backward) if out.requires_grad else None
        return out

    def backward(self, grad=None):
        """Accumulate gradients into every leaf this tensor's graph reaches.

        Only leaves receive ``.grad``; it accumulates across graphs until
        ``zero_grad``. The graph serves this one backward: each node drops its
        parents and closure once its closure has run, so a second backward
        through it raises. A tensor that does not require a gradient (a
        constant, or a result built under ``no_grad``) raises ``StateError``.
        """
        if not self.requires_grad:
            raise StateError("backward() on a tensor that does not require a gradient "
                             "(a constant, or a result built under no_grad)")
        if grad is None:
            if self.size != 1:
                raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        root = self._node or self
        order = []
        visited = set()
        stack = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in getattr(node, "parents", ()):  # a leaf has none
                if p is not None and id(p) not in visited:
                    stack.append((p, False))

        grads = {id(root): grad}
        while order:
            node = order.pop()
            g = grads.pop(id(node))
            if type(node) is Tensor:  # a leaf
                node.grad = np.array(g, dtype=node.dtype) if node.grad is None else node.grad + g
                continue
            backward, parents = node.backward, node.parents
            node.parents, node.backward = (), _freed
            for p, pg in zip(parents, backward(g)):
                if pg is None or p is None:
                    continue
                if id(p) in grads:
                    grads[id(p)] = grads[id(p)] + pg
                else:
                    grads[id(p)] = pg

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        other = self._coerce(other)
        ashape, bshape = self.shape, other.shape

        def backward(g):
            return _unbroadcast(g, ashape), _unbroadcast(g, bshape)

        return Tensor._make(self.data + other.data, (self, other), backward)

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self.data, other.data

        def backward(g):
            return _unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)

        return Tensor._make(a * b, (self, other), backward)

    def __neg__(self):
        def backward(g):
            return (-g,)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
        ashape = self.shape

        def backward(g):
            return (g.reshape(ashape),)

        return Tensor._make(self.data.reshape(*shape), (self,), backward)

    def transpose(self, *axes):
        axes = axes or tuple(reversed(range(self.ndim)))
        inv = np.argsort(axes)

        def backward(g):
            return (g.transpose(inv),)

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, key):
        ashape, dtype = self.shape, self.dtype

        def backward(g):
            full = np.zeros(ashape, dtype)
            np.add.at(full, key, g)
            return (full,)

        return Tensor._make(self.data[key], (self,), backward)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        ashape = self.shape

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, ashape),)
            g2 = g
            if not keepdims:
                g2 = np.expand_dims(g, axis)
            return (np.broadcast_to(g2, ashape),)

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims=False):
        n = self.size if axis is None else np.prod(
            [self.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))


# -- linear algebra ------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul dimension mismatch: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def backward(g):
        ga = g @ np.swapaxes(bd, -1, -2)
        gb = np.swapaxes(ad, -1, -2) @ g
        return _unbroadcast(ga, ad.shape), _unbroadcast(gb, bd.shape)

    return Tensor._make(ad @ bd, (a, b), backward)


# -- nonlinearities ------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    """max(x, 0). Of an input with a rebuild, the node keeps that rebuild for its mask,
    not the output, and the result's rebuild is max(rebuild(), 0)."""
    out_data, src = np.maximum(x.data, 0), x._rebuild
    mask = (lambda: src() > 0) if src else (lambda: out_data > 0)

    def backward(g):
        return (g * mask(),)

    out = Tensor._make(out_data, (x,), backward)
    if src and out.requires_grad:
        out._rebuild = lambda: np.maximum(src(), 0)
    return out


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def backward(g):
        return (g * (1.0 - out_data * out_data),)

    return Tensor._make(out_data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # exp(-z) -> inf gives the exact limit 0
        out_data = 1.0 / (1.0 + np.exp(-x.data))

    def backward(g):
        return (g * out_data * (1.0 - out_data),)

    return Tensor._make(out_data, (x,), backward)


def logsumexp(x: Tensor, axis: int) -> Tensor:
    """log(sum(exp(x))) along `axis`, kept as a size-1 axis; safe for -inf
    entries (empty sums stay -inf)."""
    m = np.max(x.data, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(x.data - m_safe)
    s = e.sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        out_data = np.log(s) + m_safe

    def backward(g):
        with np.errstate(invalid="ignore"):
            soft = np.where(s > 0, e / np.where(s > 0, s, 1.0), 0.0)
        return (g * soft,)

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x - logsumexp(x, axis=axis)


# -- convolution / pooling -------------------------------------------------------


def _pair(v):
    if isinstance(v, (tuple, list)):
        return int(v[0]), int(v[1])
    return int(v), int(v)


def conv_output_size(size, kernel, stride, padding, floor=False):
    num = size + 2 * padding - kernel
    if num < 0:
        raise ShapeError(f"kernel {kernel} larger than padded input {size + 2 * padding}")
    if num % stride != 0 and not floor:
        raise ShapeError(
            f"non-integral conv output: (size {size} + 2*{padding} - {kernel}) not divisible by stride {stride}"
        )
    return num // stride + 1


_COL_CHUNK_BYTES = 1 << 21  # im2col patches built at a time, forward and backward


def _pad(x, ph, pw, fill=0):
    """`x` with its last two axes framed by `ph` rows and `pw` columns of `fill`;
    `x` itself when both are 0. The leading axes may be (N, C) or (C, N)."""
    if not (ph or pw):
        return x
    h, w = x.shape[-2:]
    xp = np.full(x.shape[:-2] + (h + 2 * ph, w + 2 * pw), fill, dtype=x.dtype)
    xp[..., ph:ph + h, pw:pw + w] = x
    return xp


def _patches(x, kh, kw, sh, sw, ph, pw):
    """The im2col patches of a (C, N, H, W) input framed by `ph`, `pw` zeros, by chunks
    of images: yields (image slice, (C*kh*kw, n*Ho*Wo) patches) with at most
    ``_COL_CHUNK_BYTES`` of patches a chunk. Each chunk is padded as its patches are
    built, one copy of the strided window view into a buffer the call allocates once
    and every chunk reuses: a chunk's patches are valid only until the next chunk is
    requested. An unpadded 1x1 stride-1 kernel has one chunk, the whole activation itself."""
    c, n, h, w = x.shape
    if kh == kw == sh == sw == 1 and not (ph or pw):
        yield slice(None), x.reshape(c, -1)
        return
    ho, wo = (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1
    step = max(1, _COL_CHUNK_BYTES // (c * kh * kw * ho * wo * x.itemsize))
    buf = np.empty(c * kh * kw * min(step, n) * ho * wo, dtype=x.dtype)
    for a in range(0, n, step):
        xp = _pad(x[:, a:a + step], ph, pw)
        st = xp.strides
        win = np.lib.stride_tricks.as_strided(xp, (c, kh, kw, xp.shape[1], ho, wo),
                                              (st[0], st[2], st[3], st[1], st[2] * sh, st[3] * sw))
        col = buf[:win.size].reshape(win.shape)  # a prefix: C-contiguous at any chunk size
        np.copyto(col, win)
        yield slice(a, a + step), col.reshape(c * kh * kw, -1)


def _correlate(x, w, sh, sw, ph=0, pw=0, y=None):
    """Cross-correlation of a (C, N, H, W) input, framed by `ph`, `pw` zeros, with OIHW
    weights: one GEMM ``W @ patches`` per chunk of ``_patches``, written straight into
    the (Cout, N, Ho, Wo) output; with a (Cy, N, Ho, Wo) `y`, also the (C*kh*kw, Cy) sum
    of patches @ y_chunk^T (else None). BLAS blocks each GEMM by the chunk's width, so
    chunk budgets agree to rounding (1e-12 relative in float64), not bit for bit."""
    c_out, c, kh, kw = w.shape
    ho, wo = (x.shape[2] + 2 * ph - kh) // sh + 1, (x.shape[3] + 2 * pw - kw) // sw + 1
    wmat = w.reshape(c_out, -1)
    out = np.empty((c_out, x.shape[1], ho, wo), dtype=np.result_type(wmat, x))
    r = None if y is None else np.zeros((c * kh * kw, len(y)), dtype=out.dtype)
    for s, col in _patches(x, kh, kw, sh, sw, ph, pw):
        np.matmul(wmat, col, out=out[:, s].reshape(c_out, -1))
        if y is not None:
            r += col @ y[:, s].reshape(len(y), -1).T
    return out, r


def conv2d(x: Tensor, weight: Tensor, stride=(1, 1), padding=(0, 0)) -> Tensor:
    """2-D cross-correlation of a channel-major (C, N, H, W) input with OIHW weights,
    giving (Cout, N, Ho, Wo), by one chunked im2col product, ``_correlate``, which the
    input gradient runs at stride 1: the flipped, channel-swapped kernel with the output
    gradient dilated by the stride and framed by kernel-1-padding zeros (cropped where
    negative). That pass's patches Gcol, chunks within ``_COL_CHUNK_BYTES``, also give
    gW[o, c, i, j] = sum of Gcol[(o, kh-1-i, kw-1-j)] * x[c] (outputs fit exactly, so at
    any stride and padding); an input needing no gradient gives gW = g @ x.data's patches^T."""
    if x.ndim != 4 or weight.ndim != 4 or x.shape[0] != weight.shape[1]:
        raise ShapeError(f"conv2d expects (C, N, H, W) input, OIHW weight, equal C; got {x.shape}, {weight.shape}")
    (sh, sw), (ph, pw) = _pair(stride), _pair(padding)
    if sh < 1 or sw < 1:
        raise ShapeError("stride must be >= 1")
    c_in, n, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    ho, wo = conv_output_size(h, kh, sh, ph), conv_output_size(w, kw, sw, pw)

    xd, wd, need_x, need_w = x.data, weight.data, x.requires_grad, weight.requires_grad
    x_of = x._rebuild or (lambda: xd)

    def backward(g):
        gw = gx = None
        if need_x:
            gd = g
            if sh > 1 or sw > 1:
                gd = np.zeros((c_out, n, (ho - 1) * sh + 1, (wo - 1) * sw + 1), dtype=g.dtype)
                gd[..., ::sh, ::sw] = g
            qh, qw = kh - 1 - ph, kw - 1 - pw  # the frame; a negative one crops
            ch, cw = max(-qh, 0), max(-qw, 0)
            gd = gd[..., ch:gd.shape[2] - ch, cw:gd.shape[3] - cw]
            flipped = wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gx, r = _correlate(gd, flipped, 1, 1, max(qh, 0), max(qw, 0), x_of() if need_w else None)
            if need_w:  # r's rows are Gcol's (o, kh-1-i, kw-1-j): flip them into OIHW
                gw = r.reshape(c_out, kh, kw, c_in)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
        elif need_w:  # a first conv on raw images: patches of its few input channels
            gw = np.zeros((c_out, c_in * kh * kw), dtype=g.dtype)
            for s, col in _patches(x_of(), kh, kw, sh, sw, ph, pw):
                gw += g[:, s].reshape(c_out, -1) @ col.T
            gw = gw.reshape(wd.shape)
        return gx, gw

    return Tensor._make(_correlate(xd, wd, sh, sw, ph, pw)[0], (x, weight), backward)


def maxpool2d(x: Tensor, kernel, stride=None, padding=(0, 0)) -> Tensor:
    """Window maximum over the last two axes of a (C, N, H, W) map (any 4-D
    layout: each H x W plane pools alone); padded cells count as -inf, ties
    route to the first index.

    Output size floors when the last window does not fit (trailing rows or
    columns are dropped, as is conventional for pooling). The forward is a
    running maximum over the kh*kw strided kernel-cell views; the backward
    pads the input, or its rebuild, again (the graph keeps no padded copy)
    and gives each output's gradient to the first cell, in row-major order,
    that equals the maximum. A NaN in a window makes it NaN and drops its
    gradient.
    """
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride if stride is not None else kernel)
    ph, pw = _pair(padding)
    h, w = x.shape[2:]
    ho = conv_output_size(h, kh, sh, ph, floor=True)
    wo = conv_output_size(w, kw, sw, pw, floor=True)

    xd = x.data
    x_of = x._rebuild or (lambda: xd)
    xp = _pad(xd, ph, pw, -np.inf)
    cells = [(..., slice(i, i + sh * (ho - 1) + 1, sh), slice(j, j + sw * (wo - 1) + 1, sw))
             for i in range(kh) for j in range(kw)]
    out_data = xp[cells[0]].copy()
    for cell in cells[1:]:
        np.maximum(xp[cell], out_data, out=out_data)  # a tie keeps out_data, the earlier cell

    def backward(g):
        xp = _pad(x_of(), ph, pw, -np.inf)
        gxp = np.zeros_like(xp)
        free = np.ones(out_data.shape, dtype=bool)  # outputs whose gradient is unclaimed
        for cell in cells:
            hit = (xp[cell] == out_data) & free
            free ^= hit
            gxp[cell] += g * hit
        gx = gxp[..., ph:ph + h, pw:pw + w] if (ph or pw) else gxp
        return (gx,)

    return Tensor._make(out_data, (x,), backward)


# -- batch normalization ---------------------------------------------------------


class BatchNormState:
    """Running first/second moments for one batch-norm layer."""

    momentum = 0.1
    eps = 1e-5

    def __init__(self, num_features, dtype=np.float64):
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)
        self.initialized = False

    def update(self, mean, var):
        if not self.initialized:
            self.running_mean = mean.copy()
            self.running_var = var.copy()
            self.initialized = True
        else:
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mean
            self.running_var = (1 - m) * self.running_var + m * var


class ParamStore:
    """The trainable tensors and batch-norm states of one model, by name.

    Every module of a model creates its parameters here, in one dtype, so
    initialization, training, counts and checkpoints read one list, in
    creation order. The module sets each tensor's starting value when it
    creates it; `initialize` then makes the one random draw. `state` and
    `load_state` are the one way to read and write the whole model state,
    for checkpoints and for training's best-step retention alike.
    """

    def __init__(self, dtype):
        self.dtype = dtype
        self.tensors = {}    # name -> Tensor with requires_grad
        self.bn_states = {}  # name -> BatchNormState
        self._he = set()     # names of 1-D tensors that `initialize` draws

    def new(self, name, shape, fill=0.0, he=False):
        """A parameter filled with `fill`; `he` marks a 1-D tensor for `initialize` to draw."""
        if name in self.tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        tensor = Tensor(np.full(shape, fill, dtype=self.dtype), requires_grad=True)
        self.tensors[name] = tensor
        if he:
            self._he.add(name)
        return tensor

    def initialize(self, seed):
        """He initialization: draw N(0, 2/fan_in) for every tensor of two or more axes
        (fan-in: all axes but the first) and every tensor created with ``he=True``
        (fan-in: its length). Other tensors keep their creation value. Draws are made
        in sorted name order, so a seed gives the same bits whatever the creation order."""
        rng = np.random.default_rng(seed)
        for name in sorted(self.tensors):
            p = self.tensors[name]
            if p.ndim >= 2 or name in self._he:
                fan_in = int(np.prod(p.shape[1:] if p.ndim >= 2 else p.shape))
                p.data[...] = rng.normal(0.0, math.sqrt(2.0 / fan_in),
                                         p.shape).astype(p.dtype)

    def bn_state(self, name, channels):
        state = BatchNormState(channels, dtype=self.dtype)
        self.bn_states[name] = state
        return state

    def _arrays(self):
        arrays = {name: t.data for name, t in self.tensors.items()}
        for name, s in self.bn_states.items():
            arrays[f"{name}.running_mean"] = s.running_mean
            arrays[f"{name}.running_var"] = s.running_var
        return arrays

    def state(self):
        """A copy of the model state: (name -> array, names of the BN layers holding statistics).

        The arrays are every parameter, then each BN layer's running mean and variance."""
        return ({name: a.copy() for name, a in self._arrays().items()},
                [name for name, s in self.bn_states.items() if s.initialized])

    def load_state(self, arrays, initialized):
        """Overwrite the model state with one that `state` returned or a checkpoint holds.

        Raises KeyError, writing nothing, if an array is missing or of another shape."""
        own = self._arrays()
        for name, a in own.items():
            got = arrays[name].shape if name in arrays else "missing"
            if got != a.shape:
                raise KeyError(f"state array {name!r}: expected shape {a.shape}, got {got}")
        for name, a in own.items():
            a[...] = arrays[name]
        for name, s in self.bn_states.items():
            s.initialized = name in initialized


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
              mode: str = "train") -> Tensor:
    """Batch normalization of a channel-major (C, N, H, W) input over all axes but C.

    Each channel's N*H*W values are one contiguous row, so every statistic is a
    reduction along rows. Train mode normalizes by the batch statistics and
    records them in `state`, as one graph node with the closed-form backward
    gx = gamma/sigma * (g - mean(g) - xhat * mean(g * xhat)). The node keeps
    only per-channel constants (mean, 1/sigma, scale); its backward recomputes
    x - mean from ``x.data``. Eval mode is inference: a per-channel scale and
    shift by the running statistics, with no graph node. It raises
    ``StateError`` while a graph records an input that needs a gradient.
    """
    if x.ndim != 4:
        raise ShapeError(f"batchnorm expects 4-D (C, N, H, W) input, got {x.shape}")
    xdata, shape, c = x.data, x.shape, x.shape[0]
    xd, gam = xdata.reshape(c, -1), gamma.data.reshape(c, 1)
    if mode == "train":
        mu = xd.mean(axis=1, keepdims=True)
        out_data = xd - mu  # x - mean, scaled and shifted into the output in place
        var = (out_data * out_data).mean(axis=1, keepdims=True)
        state.update(mu.reshape(-1), var.reshape(-1))
        inv_std = (var + state.eps) ** -0.5
        scale = gam * inv_std
        out_data *= scale
        out_data += beta.data.reshape(c, 1)
        count, gshape, bshape = xd.shape[1], gamma.shape, beta.shape

        def backward(g):
            # with xhat = xc * inv_std: sum(g * xhat) = inv_std * sum(g * xc)
            g = g.reshape(c, -1)
            xc = xdata.reshape(c, -1) - mu
            gbeta = g.sum(axis=1, keepdims=True)
            gxc = (g * xc).sum(axis=1, keepdims=True)
            gx = xc * (-inv_std * inv_std * gxc / count)
            gx += g
            gx -= gbeta / count
            gx *= scale
            return gx.reshape(shape), (gxc * inv_std).reshape(gshape), gbeta.reshape(bshape)

        out = Tensor._make(out_data.reshape(shape), (x, gamma, beta), backward)
        if out.requires_grad:
            bd = beta.data.reshape(c, 1)

            def rebuild():  # the forward's op order, so the forward's bits
                y = xdata.reshape(c, -1) - mu
                y *= scale
                y += bd
                return y.reshape(shape)

            out._rebuild = rebuild
        return out
    if mode == "eval":
        if not state.initialized:
            raise StateError("batchnorm eval mode before any statistics were recorded")
        if _recording and (x.requires_grad or gamma.requires_grad or beta.requires_grad):
            raise StateError("batchnorm eval mode is inference: run it under no_grad")
        scale = gam * (state.running_var.reshape(c, 1) + state.eps) ** -0.5
        out_data = xd * scale
        out_data += beta.data.reshape(c, 1) - state.running_mean.reshape(c, 1) * scale
        return Tensor(out_data.reshape(shape))
    raise ValueError(f"unknown batchnorm mode {mode!r}")


# -- LSTM ------------------------------------------------------------------------


_ONES = {np.dtype(t): np.ones((), t) for t in (np.float32, np.float64)}  # faster operands than 1.0


def lstm_cell(a, c, c1, h1, tc):
    """One LSTM step in place. `a` holds gate-major pre-activations (4, ..., H) in the
    parameters' gate order (input, forget, cell, output), recurrent term included; the
    gate activations overwrite it. From cell state `c`, writes c_t to `c1`, tanh(c_t)
    to `tc` and h_t to `h1`. The caller enters ``np.errstate(over="ignore")`` once
    around its time loop: exp(-z) -> inf gives the exact sigmoid limit 0."""
    i, f, g, o = a
    one = _ONES.get(a.dtype, 1)
    np.tanh(g, tc)  # taken first, so that one sigmoid runs over all four gates
    np.negative(a, a)
    np.exp(a, a)
    a += one
    np.reciprocal(a, a)
    np.copyto(g, tc)
    np.multiply(f, c, c1)
    np.multiply(i, g, tc)
    c1 += tc
    np.tanh(c1, tc)
    np.multiply(o, tc, h1)


def lstm_cell_backward(a, c, tc, dh, dc, d):
    """BPTT through one ``lstm_cell`` step in place: from its activations `a`, cell state
    `c`, tanh(c_t) `tc` and the gradients `dh`, `dc` with respect to h_t and c_t, writes
    the pre-activation gradients to `d` (4, ..., H) and turns `dc` into the gradient with
    respect to c_{t-1}; `dh` is overwritten. The recurrent product stays with the caller."""
    i, f, g, o = a
    di, df, dg, do = d
    one = _ONES.get(a.dtype, 1)
    np.multiply(dh, tc, do)
    dh *= o
    dh *= one - tc * tc
    dc += dh
    np.multiply(dc, g, di)
    np.multiply(dc, c, df)
    np.multiply(dc, i, dg)
    dc *= f
    slope = one - a  # sigmoid' = s (1 - s) for i, f and o
    slope *= a
    np.square(g, slope[2])  # tanh' = 1 - g^2 for g
    np.subtract(one, slope[2], slope[2])
    d *= slope


def bilstm(x: Tensor, fwd, bwd) -> Tensor:
    """A bidirectional four-gate LSTM over a whole (B, T, in) sequence, as one node.

    `fwd` and `bwd` are each direction's (w_ih, w_hh, bias), gate order (input,
    forget, cell, output): (4H, in), (4H, H) and (4H,). From zero state, it returns
    the (B, T, 2H) hidden states, forward half first; the reverse direction runs
    from the last step to the first, and its output step t belongs to input step t.
    After one input-projection GEMM per direction, one time loop advances both:
    its step t is time t forward and time T-1-t in reverse, with one batched
    matmul for both recurrent products and one ``lstm_cell`` on gate-major
    (4, 2, B, H) activations, so every array a step touches is contiguous. The
    backward runs one BPTT loop of ``lstm_cell_backward`` the same way, then forms
    each direction's input and weight gradients with one GEMM over all T*B rows.
    The node keeps the input, not its time-major copy; the backward rebuilds that.
    """
    hid = fwd[1].shape[1]
    w_ih, w_hh, bias = (np.array([f.data, b.data]) for f, b in zip(fwd, bwd))
    if x.ndim != 3 or x.shape[2] != w_ih.shape[2]:
        raise ShapeError(f"bilstm expects (B, T, {w_ih.shape[2]}) input, got {x.shape}")
    batch, steps, _ = x.shape
    xs = x.data.transpose(1, 0, 2)  # time-major
    x2 = np.stack([xs, xs[::-1]]).reshape(2, steps * batch, -1)  # in each recurrence's order
    # Pre-activations of every step, overwritten in place by the gate activations.
    pre = x2 @ w_ih.transpose(0, 2, 1)
    pre += bias[:, None]
    acts = np.ascontiguousarray(pre.reshape(2, steps, batch, 4, hid).transpose(1, 3, 0, 2, 4))
    w_gates = w_hh.reshape(2, 4, hid, hid).transpose(1, 0, 2, 3)  # [gate, direction]
    w_rec = w_gates.transpose(0, 1, 3, 2)  # h (2, B, H) @ w_rec is (4, 2, B, H)
    hs, cs = np.zeros((2, steps + 1, 2, batch, hid), dtype=acts.dtype)  # [t + 1]: h_t, c_t
    tcs = np.empty_like(hs[1:])  # tanh(c_t)
    with np.errstate(over="ignore"):
        for a, h, h1, c, c1, tc in zip(acts, hs, hs[1:], cs, cs[1:], tcs):
            a += h @ w_rec
            lstm_cell(a, c, c1, h1, tc)
    out_data = np.concatenate([hs[1:, 0], hs[:0:-1, 1]], axis=2).transpose(1, 0, 2)

    def backward(gout):
        gt = np.stack([gout[..., :hid], gout[:, ::-1, hid:]]).transpose(2, 0, 1, 3)
        gt = np.ascontiguousarray(gt)  # laid out as hs[1:]
        dgates = np.empty_like(acts)
        dh, dc = np.zeros_like(hs[:2])
        for t in range(steps - 1, -1, -1):
            dh += gt[t]
            lstm_cell_backward(acts[t], cs[t], tcs[t], dh, dc, dgates[t])
            dh = (dgates[t] @ w_gates).sum(axis=0)
        d2 = acts.reshape(2, steps * batch, 4 * hid)  # the dead activations' buffer, in GEMM layout
        np.copyto(d2.reshape(2, steps, batch, 4, hid), dgates.transpose(2, 0, 3, 1, 4))
        del dgates  # before the GEMMs allocate their outputs
        gx = (d2 @ w_ih).reshape(2, steps, batch, -1)
        gx = (gx[0] + gx[1, ::-1]).transpose(1, 0, 2)
        d2t = d2.transpose(0, 2, 1)
        h_prev = hs[:-1].transpose(1, 0, 2, 3).reshape(2, steps * batch, hid)
        # the input in each recurrence's order again, one direction at a time
        gw_ih = [d2t[i] @ xi.reshape(steps * batch, -1) for i, xi in enumerate((xs, xs[::-1]))]
        gw_hh, gb = d2t @ h_prev, d2.sum(axis=1)
        return gx, gw_ih[0], gw_hh[0], gb[0], gw_ih[1], gw_hh[1], gb[1]

    return Tensor._make(out_data, (x, *fwd, *bwd), backward)


# -- bilinear sampling -------------------------------------------------------------


def bilinear_sample(x: Tensor, grid: Tensor) -> Tensor:
    """Sample NCHW input at normalized grid coordinates.

    `grid` is (N, Ho, Wo, 2) with (x, y) in [-1, 1]; corners of the image map
    to (-1, -1) and (1, 1) at pixel centers. Out-of-range coordinates read a
    zero border. Differentiable with respect to both the image and the grid.
    """
    n, c, h, w = x.shape
    if grid.ndim != 4 or grid.shape[-1] != 2 or grid.shape[0] != n:
        raise ShapeError(f"grid shape {grid.shape} incompatible with input {x.shape}")
    ho, wo = grid.shape[1], grid.shape[2]

    gx = (grid.data[..., 0] + 1.0) * (w - 1) / 2.0  # (N, Ho, Wo) in pixel units
    gy = (grid.data[..., 1] + 1.0) * (h - 1) / 2.0

    fx = gx - np.floor(gx)  # interpolation weights stay in the grid's dtype
    fy = gy - np.floor(gy)
    x0 = np.floor(gx).astype(np.int64)
    y0 = np.floor(gy).astype(np.int64)
    x1 = x0 + 1
    y1 = y0 + 1

    def in_range(xi, yi):
        return (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)

    corners = []  # per corner: its flat index y * w + x in an image, clipped; weight; in range
    for yi, xi, wgt in (
        (y0, x0, (1 - fx) * (1 - fy)),
        (y0, x1, fx * (1 - fy)),
        (y1, x0, (1 - fx) * fy),
        (y1, x1, fx * fy),
    ):
        valid = in_range(xi, yi)
        corners.append((np.clip(yi, 0, h - 1) * w + np.clip(xi, 0, w - 1), wgt * valid, valid))

    batch = np.arange(n)[:, None, None]
    pixels = x.data.reshape(n, c, h * w)
    out_data = np.zeros((n, c, ho, wo), dtype=x.dtype)
    vals = []
    for flat, wgt, _ in corners:
        v = pixels[batch, :, flat]  # (N, Ho, Wo, C)
        vals.append(v)
        out_data += (v * wgt[..., None]).transpose(0, 3, 1, 2)
    dtype, need_x, need_grid = x.dtype, x.requires_grad, grid.requires_grad

    def backward(g):
        gt = g.transpose(0, 2, 3, 1)  # (N, Ho, Wo, C)
        grad_x = None
        if need_x:
            # scatter-add into a (N*H*W, C) view; windows may overlap
            acc = np.zeros((n * h * w, c), dtype=dtype)
            gflat = gt.reshape(n, ho * wo, c)
            offsets = (np.arange(n) * (h * w))[:, None]
            for flat, wgt, _ in corners:
                contrib = gflat * wgt.reshape(n, ho * wo, 1)
                np.add.at(acc, (flat.reshape(n, ho * wo) + offsets).reshape(-1), contrib.reshape(-1, c))
            grad_x = acc.reshape(n, h, w, c).transpose(0, 3, 1, 2)
        grad_grid = None
        if need_grid:
            v00, v10, v01, v11 = vals  # (y0x0, y0x1, y1x0, y1x1)
            val00 = v00 * corners[0][2][..., None]
            val10 = v10 * corners[1][2][..., None]
            val01 = v01 * corners[2][2][..., None]
            val11 = v11 * corners[3][2][..., None]
            dgx = ((val10 - val00) * (1 - fy)[..., None] + (val11 - val01) * fy[..., None])
            dgy = ((val01 - val00) * (1 - fx)[..., None] + (val11 - val10) * fx[..., None])
            gg_x = (gt * dgx).sum(axis=-1) * (w - 1) / 2.0
            gg_y = (gt * dgy).sum(axis=-1) * (h - 1) / 2.0
            grad_grid = np.stack([gg_x, gg_y], axis=-1)
        return grad_x, grad_grid

    return Tensor._make(out_data, (x, grid), backward)


# -- gradient checking --------------------------------------------------------------


def grad_check(f, xs, eps=1e-5, tol=1e-4):
    """Compare recorded gradients of scalar `f(*xs)` with central finite differences.

    Returns a dict with ``max_rel_error`` and per-input errors; `xs` must be
    float64 tensors with requires_grad set.
    """
    xs = list(xs)
    for x in xs:
        if x.dtype != np.float64:
            raise ValueError("grad_check requires float64 inputs")
        x.zero_grad()
    loss = f(*xs)
    loss.backward()

    errors = []
    for x in xs:
        analytic = x.grad if x.grad is not None else np.zeros_like(x.data)
        numeric = np.zeros_like(x.data)
        flat = x.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f(*xs).item()
            flat[i] = orig - eps
            lo = f(*xs).item()
            flat[i] = orig
            num_flat[i] = (hi - lo) / (2 * eps)
        denom = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
        errors.append(np.abs(analytic - numeric).max(initial=0.0) / denom)

    max_err = max(errors) if errors else 0.0
    return {
        "max_rel_error": float(max_err),
        "per_input": [float(e) for e in errors],
        "passed": bool(max_err < tol),
        "eps": eps,
        "tol": tol,
    }
