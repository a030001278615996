"""Minimal dense tensor engine with reverse-mode differentiation.

Backed by numpy arrays. Every op computes in the dtype of its inputs and
builds its constants in that dtype, so a float32 model computes in float32,
forward and backward, and a float64 one in float64. Raw data keeps its float
dtype; integer data becomes float64. ``grad_check`` takes float64 tensors
only, so that finite differences are meaningful. A tensor records the
operation that produced it (parents + backward closure); calling ``backward``
on a scalar walks the graph once in reverse topological order and
accumulates gradients additively into the leaves it reaches (tensors no op
produced, such as parameters, with ``requires_grad`` set). A graph serves one
backward: each node releases its parents and closure once its closure has run.
"""

from __future__ import annotations

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


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

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
        out.requires_grad = any(p.requires_grad for p in parents)
        out.grad = None
        if out.requires_grad:
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    def backward(self, grad=None):
        """Accumulate gradients into every leaf this tensor's graph reaches.

        Only leaves receive ``.grad``; it accumulates across graphs until
        ``zero_grad``. The graph serves this one backward: each node drops its
        parents and closure once its closure has run, so a second backward
        through it raises.
        """
        if grad is None:
            if self.size != 1:
                raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited and p.requires_grad:
                    stack.append((p, False))

        grads = {id(self): grad}
        while order:
            node = order.pop()
            g = grads.pop(id(node))
            backward, parents = node._backward, node._parents
            if backward is None:  # a leaf
                node.grad = np.array(g, dtype=node.dtype) if node.grad is None else node.grad + g
                continue
            node._parents, node._backward = (), _freed
            for p, pg in zip(parents, backward(g)):
                if pg is None or not p.requires_grad:
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
        a, b = self, other
        out_data = a.data + b.data

        def backward(g):
            return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

        return Tensor._make(out_data, (a, b), backward)

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self, other
        out_data = a.data * b.data

        def backward(g):
            return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

        return Tensor._make(out_data, (a, b), backward)

    def __neg__(self):
        a = self

        def backward(g):
            return (-g,)

        return Tensor._make(-a.data, (a,), backward)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
        a = self
        out_data = a.data.reshape(*shape)

        def backward(g):
            return (g.reshape(a.shape),)

        return Tensor._make(out_data, (a,), backward)

    def transpose(self, *axes):
        axes = axes or tuple(reversed(range(self.ndim)))
        a = self
        inv = np.argsort(axes)
        out_data = a.data.transpose(axes)

        def backward(g):
            return (g.transpose(inv),)

        return Tensor._make(out_data, (a,), backward)

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, key):
        a = self
        out_data = a.data[key]

        def backward(g):
            full = np.zeros_like(a.data)
            np.add.at(full, key, g)
            return (full,)

        return Tensor._make(out_data, (a,), backward)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, a.shape),)
            g2 = g
            if not keepdims:
                g2 = np.expand_dims(g, axis)
            return (np.broadcast_to(g2, a.shape),)

        return Tensor._make(out_data, (a,), backward)

    def mean(self, axis=None, keepdims=False):
        n = self.size if axis is None else np.prod(
            [self.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    # -- elementwise nonlinearities -------------------------------------------

    def exp(self):
        a = self
        out_data = np.exp(a.data)

        def backward(g):
            return (g * out_data,)

        return Tensor._make(out_data, (a,), backward)


# -- linear algebra ------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul dimension mismatch: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return Tensor._make(out_data, (a, b), backward)


# -- nonlinearities ------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0)

    def backward(g):
        return (g * (out_data > 0),)

    return Tensor._make(out_data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def backward(g):
        return (g * (1.0 - out_data * out_data),)

    return Tensor._make(out_data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # exp(-x) -> inf gives the exact limit 0
        out_data = 1.0 / (1.0 + np.exp(-x.data))

    def backward(g):
        return (g * out_data * (1.0 - out_data),)

    return Tensor._make(out_data, (x,), backward)


def logsumexp(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """log(sum(exp(x))) along `axis`, safe for -inf entries (empty sums stay -inf)."""
    m = np.max(x.data, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(x.data - m_safe)
    s = e.sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        out = np.log(s) + m_safe
    out_data = out if keepdims else np.squeeze(out, axis=axis)

    def backward(g):
        g2 = g if keepdims else np.expand_dims(g, axis)
        with np.errstate(invalid="ignore"):
            soft = np.where(s > 0, e / np.where(s > 0, s, 1.0), 0.0)
        return (g2 * soft,)

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x - logsumexp(x, axis=axis, keepdims=True)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return log_softmax(x, axis=axis).exp()


# -- structural ops ------------------------------------------------------------


def concat(tensors, axis=0):
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors, axis=0):
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        parts = np.split(g, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in parts)

    return Tensor._make(out_data, tuple(tensors), backward)


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


def _windows(data, kh, kw, sh, sw):
    # (N, C, H', W', kh, kw) view of all pooling/conv windows
    v = np.lib.stride_tricks.sliding_window_view(data, (kh, kw), axis=(-2, -1))
    return v[:, :, ::sh, ::sw]


def conv2d(x: Tensor, weight: Tensor, stride=(1, 1), padding=(0, 0)) -> Tensor:
    """2-D cross-correlation over NCHW input with OIHW weights.

    Lowered per image to one matrix product (im2col): ``col`` holds each
    image's (C*kh*kw, Ho*Wo) matrix of input patches, and
    ``W(Cout, C*kh*kw) @ col`` is already NCHW. A 1x1 stride-1 unpadded conv
    uses the input itself as ``col``. The backward reuses ``col`` for the
    weight gradient, and scatters ``W^T @ g`` back onto the input (col2im)
    with kh*kw contiguous slice-adds over the flattened padded input.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d expects NCHW input and OIHW weight, got {x.shape}, {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape} vs weight {weight.shape}")
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    if sh < 1 or sw < 1:
        raise ShapeError("stride must be >= 1")
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    ho = conv_output_size(h, kh, sh, ph)
    wo = conv_output_size(w, kw, sw, pw)
    pointwise = kh == kw == sh == sw == 1 and not (ph or pw)

    if pointwise:
        col = x.data.reshape(n, c_in, h * w)
    else:
        xp = x.data
        if ph or pw:
            xp = np.zeros((n, c_in, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
            xp[:, :, ph:ph + h, pw:pw + w] = x.data
        win = _windows(xp, kh, kw, sh, sw)  # (N, C, Ho, Wo, kh, kw) view
        col = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(n, -1, ho * wo)
    wmat = weight.data.reshape(c_out, -1)
    out_data = (wmat @ col).reshape(n, c_out, ho, wo)

    def backward(g):
        gm = g.reshape(n, c_out, ho * wo)
        gw = None
        if weight.requires_grad:
            gw = np.zeros(wmat.shape, dtype=g.dtype)
            for gi, ci in zip(gm, col):  # sum over images of g_n @ col_n^T
                gw += gi @ ci.T
            gw = gw.reshape(weight.shape)
        gx = None
        if x.requires_grad:
            if pointwise:
                gx = (wmat.T @ gm).reshape(x.shape)
            else:
                # Window cell (i, j) of output (y, x) is padded-input cell
                # (y*sh + i, x*sw + j), flat index y*sh*wp + x*sw + i*wp + j. With g
                # at y*sh*wp + x*sw of a zero canvas, kernel cell (i, j) is one
                # slice-add shifted by i*wp + j; the canvas zeros add nothing.
                hp, wp = xp.shape[2:]
                canvas = np.zeros((n, c_out, ho, sh * wp), dtype=g.dtype)
                canvas[:, :, :, :sw * wo:sw] = g
                span = ho * sh * wp
                dcol = (wmat.T @ canvas.reshape(n, c_out, span)).reshape(n, c_in, kh, kw, span)
                gxp = np.zeros((n, c_in, (hp + sh - 1) * wp + kw - 1), dtype=g.dtype)
                for i in range(kh):
                    for j in range(kw):
                        gxp[:, :, i * wp + j:i * wp + j + span] += dcol[:, :, i, j]
                gx = gxp[:, :, :hp * wp].reshape(xp.shape)[:, :, ph:ph + h, pw:pw + w]
        return gx, gw

    return Tensor._make(out_data, (x, weight), backward)


def maxpool2d(x: Tensor, kernel, stride=None, padding=(0, 0)) -> Tensor:
    """Window maximum; padded cells count as -inf, ties route to the first index.

    Output size floors when the last window does not fit (trailing rows or
    columns are dropped, as is conventional for pooling).
    """
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride if stride is not None else kernel)
    ph, pw = _pair(padding)
    n, c, h, w = x.shape
    ho = conv_output_size(h, kh, sh, ph, floor=True)
    wo = conv_output_size(w, kw, sw, pw, floor=True)

    if ph or pw:
        xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf)
    else:
        xp = x.data
    win = _windows(xp, kh, kw, sh, sw).reshape(n, c, ho, wo, kh * kw)
    arg = np.argmax(win, axis=-1)
    out_data = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]

    def backward(g):
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                mask = arg == (i * kw + j)
                gxp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += np.where(mask, g, 0.0)
        gx = gxp[:, :, ph:ph + h, pw:pw + w] if (ph or pw) else gxp
        return (gx,)

    return Tensor._make(np.ascontiguousarray(out_data), (x,), backward)


# -- batch normalization ---------------------------------------------------------


class BatchNormState:
    """Running first/second moments for one batch-norm layer."""

    def __init__(self, num_features, dtype=np.float64, momentum=0.1, eps=1e-5):
        self.momentum = momentum
        self.eps = eps
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


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
              mode: str = "train") -> Tensor:
    """Batch normalization over all axes except the channel axis, as one graph node.

    Channel axis is 1 for 4-D (NCHW) input and the last axis for 2-D input.
    Train mode normalizes by the batch statistics and records them in `state`;
    its backward is the closed form gx = gamma/sigma * (g - mean(g) -
    xhat * mean(g * xhat)). Eval mode is a per-channel scale and shift by the
    running statistics.
    """
    if x.ndim == 4:
        axes = (0, 2, 3)
        cshape = (1, -1, 1, 1)
    elif x.ndim == 2:
        axes = (0,)
        cshape = (1, -1)
    else:
        raise ShapeError(f"batchnorm expects 2-D or 4-D input, got {x.shape}")

    gam = gamma.data.reshape(cshape)
    if mode == "train":
        mu = x.data.mean(axis=axes, keepdims=True)
        xc = x.data - mu
        var = (xc * xc).mean(axis=axes, keepdims=True)
        state.update(mu.reshape(-1), var.reshape(-1))
        inv_std = (var + state.eps) ** -0.5
        scale = gam * inv_std
        out_data = xc * scale
        out_data += beta.data.reshape(cshape)
        count = x.size // gamma.size

        def backward(g):
            # with xhat = xc * inv_std: sum(g * xhat) = inv_std * sum(g * xc)
            gbeta = g.sum(axis=axes, keepdims=True)
            gxc = (g * xc).sum(axis=axes, keepdims=True)
            gx = xc * (-inv_std * inv_std * gxc / count)
            gx += g
            gx -= gbeta / count
            gx *= scale
            return gx, (gxc * inv_std).reshape(gamma.shape), gbeta.reshape(beta.shape)

        return Tensor._make(out_data, (x, gamma, beta), backward)
    if mode == "eval":
        if not state.initialized:
            raise StateError("batchnorm eval mode before any statistics were recorded")
        mean = state.running_mean.reshape(cshape)
        inv_std = (state.running_var.reshape(cshape) + state.eps) ** -0.5
        scale = gam * inv_std
        out_data = x.data * scale
        out_data += beta.data.reshape(cshape) - mean * scale

        def backward(g):
            ggamma = (g * (x.data - mean)).sum(axis=axes) * inv_std.reshape(-1)
            return g * scale, ggamma.reshape(gamma.shape), g.sum(axis=axes).reshape(beta.shape)

        return Tensor._make(out_data, (x, gamma, beta), backward)
    raise ValueError(f"unknown batchnorm mode {mode!r}")


# -- LSTM cell -------------------------------------------------------------------


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor, w_ih: Tensor, w_hh: Tensor,
              bias: Tensor):
    """One step of a standard four-gate LSTM.

    Gate order in the stacked weight matrices is (input, forget, cell, output);
    `w_ih` is (4H, in), `w_hh` is (4H, H), `bias` is (4H,). Inputs are (B, in)
    and (B, H); returns (h, c), each (B, H).
    """
    hidden = h_prev.shape[-1]
    gates = matmul(x, w_ih.T) + matmul(h_prev, w_hh.T) + bias
    i = sigmoid(gates[:, 0 * hidden:1 * hidden])
    f = sigmoid(gates[:, 1 * hidden:2 * hidden])
    g = tanh(gates[:, 2 * hidden:3 * hidden])
    o = sigmoid(gates[:, 3 * hidden:4 * hidden])
    c = f * c_prev + i * g
    h = o * tanh(c)
    return h, c


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

    corners = []
    for yi, xi, wgt in (
        (y0, x0, (1 - fx) * (1 - fy)),
        (y0, x1, fx * (1 - fy)),
        (y1, x0, (1 - fx) * fy),
        (y1, x1, fx * fy),
    ):
        valid = in_range(xi, yi)
        xc = np.clip(xi, 0, w - 1)
        yc = np.clip(yi, 0, h - 1)
        corners.append((yc, xc, wgt * valid, valid))

    batch = np.arange(n)[:, None, None]
    out_data = np.zeros((n, c, ho, wo), dtype=x.dtype)
    vals = []
    for yc, xc, wgt, _ in corners:
        v = x.data[batch, :, yc, xc]  # (N, Ho, Wo, C)
        vals.append(v)
        out_data += (v * wgt[..., None]).transpose(0, 3, 1, 2)

    def backward(g):
        gt = g.transpose(0, 2, 3, 1)  # (N, Ho, Wo, C)
        grad_x = None
        if x.requires_grad:
            # scatter-add into a (N*H*W, C) view; windows may overlap
            acc = np.zeros((n * h * w, c), dtype=x.dtype)
            gflat = gt.reshape(n, ho * wo, c)
            offsets = (np.arange(n) * (h * w))[:, None]
            for yc, xc, wgt, _ in corners:
                flat = (yc * w + xc).reshape(n, ho * wo) + offsets
                contrib = gflat * wgt.reshape(n, ho * wo, 1)
                np.add.at(acc, flat.reshape(-1), contrib.reshape(-1, c))
            grad_x = acc.reshape(n, h, w, c).transpose(0, 3, 1, 2)
        grad_grid = None
        if grid.requires_grad:
            v00, v10, v01, v11 = vals  # (y0x0, y0x1, y1x0, y1x1)
            val00 = v00 * corners[0][3][..., None]
            val10 = v10 * corners[1][3][..., None]
            val01 = v01 * corners[2][3][..., None]
            val11 = v11 * corners[3][3][..., None]
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
