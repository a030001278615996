import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strforge import checkpoint as ckpt
from strforge import tensor as tc
from strforge.tensor import Tensor, grad_check
from test_kernels_generated import CHUNK_BOUND, rel_err


def rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(0, scale, shape)


def cnhw(a):
    """An NCHW array or Tensor in the kernels' channel-major (C, N, H, W) order, and back."""
    return a.transpose(1, 0, 2, 3)


def naive_conv2d(x, w, stride, padding):
    """Cross-correlation by explicit loops over every output cell."""
    (sh, sw), (ph, pw) = stride, padding
    n, _, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ho, wo = (h + 2 * ph - kh) // sh + 1, (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c_out, ho, wo))
    for b in range(n):
        for o in range(c_out):
            for i in range(ho):
                for j in range(wo):
                    out[b, o, i, j] = (xp[b, :, i * sh:i * sh + kh, j * sw:j * sw + kw] * w[o]).sum()
    return out


def lstm_cell_reference(x, h, c, w_ih, w_hh, bias):
    """One four-gate LSTM step on arrays, gate order (input, forget, cell, output)."""
    hid = h.shape[1]
    z = x @ w_ih.T + h @ w_hh.T + bias
    sig = lambda a: 1 / (1 + np.exp(-a))
    i, f, o = sig(z[:, :hid]), sig(z[:, hid:2 * hid]), sig(z[:, 3 * hid:])
    c = f * c + i * np.tanh(z[:, 2 * hid:3 * hid])
    return o * np.tanh(c), c


def naive_maxpool2d(x, kernel, stride, padding):
    """Window maximum by explicit loops; padded cells are -inf, trailing cells floor away."""
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    n, c, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf)
    ho, wo = (h + 2 * ph - kh) // sh + 1, (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c, ho, wo))
    for i in range(ho):
        for j in range(wo):
            out[:, :, i, j] = xp[:, :, i * sh:i * sh + kh, j * sw:j * sw + kw].max(axis=(2, 3))
    return out


def naive_maxpool2d_grad(x, g, kernel, stride, padding):
    """Input gradient by loops: each output's gradient goes to the first maximal
    cell of its window in row-major order."""
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    n, c, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf)
    gxp = np.zeros_like(xp)
    for b in range(n):
        for ch in range(c):
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    win = xp[b, ch, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    di, dj = divmod(int(np.argmax(win == win.max())), kw)
                    gxp[b, ch, i * sh + di, j * sw + dj] += g[b, ch, i, j]
    return gxp[:, :, ph:ph + h, pw:pw + wd]


# (kernel, stride, padding) of every pool the layer tables use, then an
# overlapping 3x3 pool, which none uses.
POOL_CASES = [
    ((2, 2), (2, 2), (0, 0)),
    ((2, 1), (2, 1), (0, 0)),
    ((2, 2), (2, 1), (0, 1)),
    ((3, 3), (1, 1), (1, 1)),
]


# (input, weight, stride, padding) of the conv shapes the backbones use:
# 3x3 same-padded (VGG, ResNet, GRCL feed-forward), 2x2 with stride (2, 1)
# and padding (0, 1) (ResNet conv6) and 1x1 (GRCL gates, ResNet
# projections); then a column stride, which no backbone uses, with and
# without padding, and padding wider than kernel-1, which crops the output
# gradient that the input gradient correlates.
CONV_CASES = [
    ((2, 3, 5, 6), (4, 3, 3, 3), (1, 1), (1, 1)),
    ((2, 3, 4, 5), (4, 3, 2, 2), (2, 1), (0, 1)),
    ((3, 4, 3, 5), (2, 4, 1, 1), (1, 1), (0, 0)),
    ((2, 3, 5, 5), (2, 3, 1, 1), (2, 2), (0, 0)),
    ((2, 3, 5, 7), (3, 3, 3, 3), (2, 2), (1, 1)),
    ((2, 3, 4, 5), (2, 3, 1, 1), (1, 1), (1, 1)),
]


class TestAutodiffBasics:
    def test_add_mul_grads(self):
        a = Tensor(rand((3, 4), 1), requires_grad=True)
        b = Tensor(rand((3, 4), 2), requires_grad=True)
        ((a * b) + a).sum().backward()
        assert np.allclose(a.grad, b.data + 1.0)
        assert np.allclose(b.grad, a.data)

    def test_broadcast_unbroadcast(self):
        a = Tensor(rand((3, 4), 1), requires_grad=True)
        b = Tensor(rand((4,), 2), requires_grad=True)
        (a + b).sum().backward()
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0)

    def test_gradient_accumulation_diamond(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0
        (y + y).sum().backward()
        assert np.allclose(x.grad, 6.0)

    def test_backward_frees_the_graph_and_fills_only_leaves(self):
        x = Tensor(rand((3, 4), 1), requires_grad=True)
        kept = x * 2.0
        dropped = tc.tanh(kept)
        freed = weakref.ref(dropped.data)
        loss = (dropped * dropped).sum()
        del dropped
        assert freed() is not None  # the graph holds the activation until backward
        loss.backward()
        assert freed() is None
        assert kept.grad is None and loss.grad is None
        t = np.tanh(2.0 * x.data)
        assert np.allclose(x.grad, 4.0 * t * (1.0 - t * t))
        with pytest.raises(RuntimeError, match="earlier backward"):
            loss.backward()

    def test_matmul_grad_check(self):
        a = Tensor(rand((3, 5), 3), requires_grad=True)
        b = Tensor(rand((5, 2), 4), requires_grad=True)
        res = grad_check(lambda u, v: tc.matmul(u, v).sum(), [a, b])
        assert res["passed"], res

    @given(st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_reduction_grads_are_ones(self, n, m):
        x = Tensor(rand((n, m), n * 7 + m), requires_grad=True)
        x.sum().backward()
        assert np.allclose(x.grad, 1.0)

    def test_max_first_index_tiebreak(self):
        # maxpool2d is the engine's max: a tied window routes its gradient to
        # the first maximal index in row-major order
        x = Tensor(np.array([[[[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]]]]), requires_grad=True)
        tc.maxpool2d(x, (2, 3)).sum().backward()
        assert np.allclose(x.grad, [[[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]])

    def test_logsumexp_neg_inf_safe(self):
        x = Tensor(np.array([[-np.inf, -np.inf], [0.0, -np.inf]]),
                   requires_grad=True)
        out = tc.logsumexp(x, axis=1)
        assert out.data[0, 0] == -np.inf and np.isclose(out.data[1, 0], 0.0)
        out.sum().backward()
        assert np.all(np.isfinite(x.grad))

    def test_backward_on_a_constant_raises(self):
        c = Tensor(rand((3,), 1)).sum()
        with pytest.raises(tc.StateError, match="does not require a gradient"):
            c.backward()
        assert c.grad is None


class TestNoGrad:
    def test_ops_record_no_graph(self):
        x = Tensor(rand((3, 4), 1), requires_grad=True)
        w = Tensor(rand((4, 2), 2), requires_grad=True)
        recorded = tc.tanh(tc.matmul(x, w))
        with tc.no_grad():
            y = tc.tanh(tc.matmul(x, w))
        assert not y.requires_grad and y._node is None
        assert np.array_equal(y.data, recorded.data)
        assert x.requires_grad and w.requires_grad  # leaves keep their flag

    def test_backward_of_a_no_grad_result_raises(self):
        x = Tensor(rand((3, 4), 1), requires_grad=True)
        with tc.no_grad():
            loss = (x * x).sum()
        with pytest.raises(tc.StateError, match="no_grad"):
            loss.backward()
        assert x.grad is None

    def test_nested_blocks_restore_the_outer_state(self):
        x = Tensor(rand((2,), 1), requires_grad=True)
        with tc.no_grad():
            with tc.no_grad():
                assert not (x * 2.0).requires_grad
            assert not (x * 2.0).requires_grad
        assert (x * 2.0).requires_grad

    def test_an_exception_inside_the_block_restores_recording(self):
        x = Tensor(rand((2,), 1), requires_grad=True)
        with pytest.raises(ZeroDivisionError):
            with tc.no_grad():
                1 / 0
        y = (x * 3.0).sum()
        assert y.requires_grad
        y.backward()
        assert np.allclose(x.grad, 3.0)

    def test_intermediates_are_freed_at_once(self):
        x = Tensor(rand((3, 4), 1), requires_grad=True)
        with tc.no_grad():
            mid = tc.tanh(x * 2.0)
            freed = weakref.ref(mid.data)
            out = (mid * mid).sum()
            del mid
            assert freed() is None  # nothing holds the activation
        assert np.isclose(out.item(), (np.tanh(2.0 * x.data) ** 2).sum())

    @pytest.mark.parametrize("xs, ws, stride, padding", CONV_CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv2d_patches_in_chunks_match_the_recorded_forward(self, monkeypatch, xs, ws,
                                                                 stride, padding, dtype):
        # the output and both gradients agree within CHUNK_BOUND whether the
        # patches come one image, two images or the whole batch at a time (BLAS
        # blocks each chunk's GEMM by its width, so the bits may differ), and the
        # graph-free output equals the recorded one bit for bit
        (sh, sw), (ph, pw) = stride, padding
        ho = tc.conv_output_size(xs[2], ws[2], sh, ph)
        wo = tc.conv_output_size(xs[3], ws[3], sw, pw)
        per_image = ws[1] * ws[2] * ws[3] * ho * wo * np.dtype(dtype).itemsize
        x0, w0 = np.ascontiguousarray(cnhw(rand((5,) + xs[1:], 1))), rand(ws, 2)
        g = cnhw(rand((5, ws[0], ho, wo), 3)).astype(dtype)
        runs = []
        for budget in (1, 2 * per_image, 5 * per_image):
            monkeypatch.setattr(tc, "_COL_CHUNK_BYTES", budget)
            x = Tensor(x0, requires_grad=True, dtype=dtype)
            w = Tensor(w0, requires_grad=True, dtype=dtype)
            out = tc.conv2d(x, w, stride=stride, padding=padding)
            with tc.no_grad():
                free = tc.conv2d(x, w, stride=stride, padding=padding)
            assert np.array_equal(free.data, out.data)
            out.backward(g)
            runs.append((out.data, x.grad, w.grad))
        for run in runs[1:]:
            for want, got in zip(runs[0], run):
                assert got.dtype == dtype and rel_err(got, want) <= CHUNK_BOUND[dtype]

    def test_conv2d_patch_transient_does_not_grow_with_the_batch(self):
        # beside its output, a forward holds one chunk's patches and the padded
        # chunk they are lowered from, each at most _COL_CHUNK_BYTES here
        x = Tensor(np.ascontiguousarray(cnhw(rand((64, 8, 32, 32), 1))), requires_grad=True)
        w = Tensor(rand((8, 8, 3, 3), 2), requires_grad=True)
        g = cnhw(rand((64, 8, 32, 32), 3))
        transient = 2 * tc._COL_CHUNK_BYTES
        whole_col = x.data.nbytes * 9  # every image's patches at once: 36 MiB
        tracemalloc.start()
        try:
            with tc.no_grad():
                out = tc.conv2d(x, w, padding=(1, 1))
                free_transient = tracemalloc.get_traced_memory()[1] - out.data.nbytes
            del out
            tracemalloc.reset_peak()
            out = tc.conv2d(x, w, padding=(1, 1))
            held, forward_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out.backward(g)
            backward_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert free_transient <= transient < whole_col
        assert held <= forward_peak <= out.data.nbytes + transient
        assert backward_peak < whole_col
        assert x.grad.shape == x.shape and w.grad.shape == w.shape

    @pytest.mark.parametrize("need_x", [True, False])
    def test_conv2d_backward_lowers_one_array(self, monkeypatch, need_x):
        # the forward builds the input's patches once; the backward builds the
        # output gradient's once and takes both gradients from them, or, when
        # the input needs no gradient, builds the input's once for the weight's
        passes = []
        patches = tc._patches

        def spy(a, *args):
            passes.append(a)
            return patches(a, *args)

        monkeypatch.setattr(tc, "_patches", spy)
        x = Tensor(np.ascontiguousarray(cnhw(rand((4, 3, 7, 6), 1))), requires_grad=need_x)
        w = Tensor(rand((5, 3, 3, 3), 2), requires_grad=True)
        out = tc.conv2d(x, w, stride=(2, 1), padding=(1, 1))
        assert len(passes) == 1 and passes[0] is x.data
        out.backward(rand(out.shape, 3))
        assert len(passes) == 2
        if need_x:
            assert passes[1].shape[0] == 5 and x.grad.shape == x.shape  # Cout rows
        else:
            assert passes[1] is x.data and x.grad is None
        assert w.grad.shape == w.shape


class TestNNOps:
    def test_conv2d_grad(self):
        x = Tensor(rand((2, 3, 5, 6), 1), requires_grad=True)
        w = Tensor(rand((4, 3, 3, 3), 2, 0.3), requires_grad=True)
        res = grad_check(
            lambda xx, ww: tc.relu(tc.conv2d(cnhw(xx), ww, stride=(1, 1),
                                             padding=(1, 1))).sum(), [x, w])
        assert res["passed"], res

    @pytest.mark.parametrize("xs, ws, stride, padding", CONV_CASES)
    def test_conv2d_matches_loops(self, xs, ws, stride, padding):
        x, w = rand(xs, 1), rand(ws, 2)
        out = tc.conv2d(Tensor(cnhw(x)), Tensor(w), stride=stride, padding=padding)
        assert np.allclose(cnhw(out.data), naive_conv2d(x, w, stride, padding), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("xs, ws, stride, padding", CONV_CASES[1:])  # [0]: test_conv2d_grad
    def test_conv2d_grad_on_backbone_shapes(self, xs, ws, stride, padding):
        x = Tensor(rand(xs, 1), requires_grad=True)
        w = Tensor(rand(ws, 2, 0.3), requires_grad=True)
        probe = rand(naive_conv2d(x.data, w.data, stride, padding).shape, 3)
        res = grad_check(
            lambda xx, ww: (cnhw(tc.conv2d(cnhw(xx), ww, stride=stride, padding=padding)) * probe).sum(),
            [x, w])
        assert res["passed"], res

    def test_conv_output_size_floor(self):
        assert tc.conv_output_size(25, 2, 2, 0, floor=True) == 12
        with pytest.raises(tc.ShapeError):
            tc.conv_output_size(25, 2, 2, 0)

    def test_maxpool_grad_overlapping(self):
        x = Tensor(rand((1, 2, 6, 6), 3), requires_grad=True)
        res = grad_check(
            lambda xx: tc.maxpool2d(xx, (2, 2), stride=(1, 1)).sum(), [x])
        assert res["passed"], res

    def test_maxpool_strided_padded_matches_loops_and_grad(self):
        # ResNet and VGG pool with kernel (2, 2), stride (2, 1), padding (0, 1)
        args = ((2, 2), (2, 1), (0, 1))
        x = Tensor(rand((2, 3, 4, 5), 13), requires_grad=True)
        out = tc.maxpool2d(x, *args)
        assert out.shape == (2, 3, 2, 6)
        assert np.array_equal(out.data, naive_maxpool2d(x.data, *args))
        probe = rand(out.shape, 14)
        res = grad_check(lambda xx: (tc.maxpool2d(xx, *args) * probe).sum(), [x])
        assert res["passed"], res

    def test_maxpool_floor_semantics(self):
        x = Tensor(rand((1, 1, 5, 25), 4))
        assert tc.maxpool2d(x, (2, 2), stride=(2, 2)).shape == (1, 1, 2, 12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel, stride, padding", POOL_CASES)
    def test_maxpool_ties_match_loops(self, kernel, stride, padding, dtype):
        # steps of 0.25 make most windows tie; odd sizes exercise the floor
        x = (np.round(rand((2, 3, 7, 9), 21) * 4) / 4).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        out = tc.maxpool2d(xt, kernel, stride, padding)
        assert out.dtype == dtype
        assert np.array_equal(out.data, naive_maxpool2d(x, kernel, stride, padding))
        # quantized too, so overlapping windows sum exactly in any order
        g = (np.round(rand(out.shape, 22) * 4) / 4).astype(dtype)
        (out * Tensor(g)).sum().backward()
        assert xt.grad.dtype == dtype
        assert np.array_equal(xt.grad, naive_maxpool2d_grad(x, g, kernel, stride, padding))

    def test_maxpool_nan_window_outputs_nan(self):
        x = rand((1, 1, 4, 4), 23)
        x[0, 0, 1, 2] = np.nan
        x = Tensor(x, requires_grad=True)
        out = tc.maxpool2d(x, (2, 2))
        assert np.isnan(out.data[0, 0, 0, 1])
        assert np.isfinite(np.delete(out.data.ravel(), 1)).all()
        out.sum().backward()
        # the NaN window's gradient is dropped; the other windows route theirs
        assert x.grad[0, 0, :2, 2:].sum() == 0.0 and x.grad.sum() == 3.0

    def test_maxpool_forward_allocates_about_its_output(self):
        # no (N, C, Ho, Wo, kh*kw) window array: the peak stays near the output
        x = Tensor(rand((32, 8, 32, 100), 24).astype(np.float32))
        tracemalloc.start()
        try:
            out = tc.maxpool2d(x, (2, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.data.nbytes

    @pytest.mark.parametrize("op", [
        lambda x, w, g, b: tc.conv2d(x, w, padding=(1, 1)),
        lambda x, w, g, b: tc.batchnorm(x, g, b, tc.BatchNormState(8, np.float32), mode="train"),
        lambda x, w, g, b: tc.maxpool2d(x, (2, 2), (2, 1), (0, 1)),
    ], ids=["conv2d-padded", "batchnorm-train", "maxpool2d-padded"])
    def test_recorded_op_holds_only_its_output(self, op):
        # a recorded node keeps per-channel constants and its input array, not a
        # padded or centred copy of it: its backward rebuilds that from the input
        x, w = (Tensor(a.astype(np.float32), requires_grad=True)
                for a in [np.ascontiguousarray(cnhw(rand((16, 8, 16, 50), 0))), rand((8, 8, 3, 3), 1)])
        g, b = (Tensor(np.full(8, v, np.float32), requires_grad=True) for v in (1.0, 0.0))
        tracemalloc.start()
        try:
            out = op(x, w, g, b)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held <= out.data.nbytes + 16 * 1024  # measured: 2-3 KiB beyond the output

    @pytest.mark.parametrize("produce, consume", [
        (lambda t: tc.batchnorm(cnhw(t["x"]), t["g"], t["b"], tc.BatchNormState(8), mode="train"),
         lambda mid, t: tc.relu(mid)),
        (lambda t: t["x"] + t["y"], lambda mid, t: tc.relu(mid)),
        (lambda t: tc.conv2d(cnhw(t["x"]), t["w"], padding=(1, 1)), lambda mid, t: mid + t["b"].reshape(-1, 1, 1, 1)),
        (lambda t: tc.matmul(t["x"], t["m"]), lambda mid, t: mid + t["b"]),
        (lambda t: tc.relu(tc.batchnorm(cnhw(t["x"]), t["g"], t["b"], tc.BatchNormState(8), mode="train")),
         lambda mid, t: tc.conv2d(mid, t["w"], padding=(1, 1))),
        (lambda t: tc.relu(tc.batchnorm(cnhw(t["x"]), t["g"], t["b"], tc.BatchNormState(8), mode="train")),
         lambda mid, t: tc.maxpool2d(mid, (2, 2), (2, 1), (1, 0))),
    ], ids=["batchnorm-relu", "add-relu", "conv2d-bias", "matmul-bias",
            "batchnorm-relu-conv2d", "batchnorm-relu-maxpool2d"])
    def test_an_output_no_backward_reads_is_freed_with_its_tensor(self, produce, consume):
        # the consumer's node links the producer's node, not its Tensor, and neither
        # backward reads the producer's output (a conv or pool of a batch-norm ReLU
        # rebuilds it): dropping the Tensor frees the array, and backward still
        # gives the bits of a run that kept everything
        shapes = {"x": (2, 8, 5, 6), "y": (2, 8, 5, 6), "w": (8, 8, 3, 3), "m": (6, 8), "g": (8,), "b": (8,)}

        def run(keep):
            t = {k: Tensor(rand(s, i), requires_grad=True) for i, (k, s) in enumerate(shapes.items())}
            mid = produce(t)
            out = consume(mid, t)
            if not keep:
                freed = weakref.ref(mid.data)
                del mid
                assert freed() is None and out.requires_grad
            (out * Tensor(rand(out.shape, 9))).sum().backward()
            return [t[k].grad for k in shapes]

        for got, want in zip(run(keep=False), run(keep=True)):
            assert (got is None and want is None) or np.array_equal(got, want)

    def test_batchnorm_train_grad(self):
        x = Tensor(rand((4, 3, 2, 2), 5), requires_grad=True)
        g = Tensor(np.ones(3) * 1.3, requires_grad=True)
        b = Tensor(rand((3,), 6), requires_grad=True)

        probe = Tensor(rand((4, 3, 2, 2), 7))

        def f(xx, gg, bb):
            # .sum() alone is constant under normalization; probe breaks the symmetry
            state = tc.BatchNormState(3)
            return (cnhw(tc.batchnorm(cnhw(xx), gg, bb, state, mode="train")) * probe).sum()

        res = grad_check(f, [x, g, b], tol=1e-3)
        assert res["passed"], res

    def test_batchnorm_eval_raises_while_recording(self):
        # eval mode is inference: it has no backward, so a recording graph
        # with an input that needs a gradient is refused, input by input
        state = tc.BatchNormState(3)
        state.update(rand((3,), 15), np.array([0.5, 1.0, 2.0]))
        data = rand((4, 3, 2, 2), 16), rand((3,), 17), rand((3,), 18)
        for needs in range(3):
            x, g, b = (Tensor(a, requires_grad=i == needs) for i, a in enumerate(data))
            with pytest.raises(tc.StateError, match="no_grad"):
                tc.batchnorm(cnhw(x), g, b, state, mode="eval")
            with tc.no_grad():
                out = tc.batchnorm(cnhw(x), g, b, state, mode="eval")
            assert not out.requires_grad and out._node is None
        # outside a recording graph it needs no no_grad: constants record nothing
        c = (1, -1, 1, 1)
        want = ((data[0] - state.running_mean.reshape(c))
                / np.sqrt(state.running_var.reshape(c) + state.eps)
                * data[1].reshape(c) + data[2].reshape(c))
        out = tc.batchnorm(cnhw(Tensor(data[0])), Tensor(data[1]), Tensor(data[2]), state, mode="eval")
        assert np.allclose(cnhw(out.data), want)

    @pytest.mark.parametrize("shape", [(6, 3), (6, 3, 4), (2, 6, 3, 4, 1)])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_batchnorm_rejects_input_that_is_not_4d(self, shape, mode):
        # every batch-norm layer follows a conv, so its input is NCHW
        state = tc.BatchNormState(3)
        state.update(np.zeros(3), np.ones(3))
        g, b = Tensor(np.ones(3)), Tensor(np.zeros(3))
        with pytest.raises(tc.ShapeError, match="4-D"):
            tc.batchnorm(Tensor(rand(shape, 20)), g, b, state, mode=mode)

    def test_batchnorm_eval_uses_running_stats(self):
        state = tc.BatchNormState(2)
        g = Tensor(np.ones(2))
        b = Tensor(np.zeros(2))
        x = cnhw(Tensor(rand((8, 2, 3, 3), 7)))
        for _ in range(50):
            tc.batchnorm(x, g, b, state, mode="train")
        out = tc.batchnorm(x, g, b, state, mode="eval")
        assert abs(float(out.data.mean())) < 0.2

    @staticmethod
    def bilstm_arrays(seed, steps):
        """x (2, steps, 3) and each direction's (w_ih, w_hh, bias) for H = 2."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, steps, 3))
        fwd, bwd = (tuple(rng.normal(size=s) for s in [(8, 3), (8, 2), 8]) for _ in range(2))
        return x, fwd, bwd

    # Each direction of the bilstm node is an LSTM over the whole sequence;
    # `reverse` picks the direction a case checks: the forward half (fwd
    # weights, t = 0..T-1) or the reverse half (bwd weights, t = T-1..0).
    @pytest.mark.parametrize("steps", [1, 4])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_sequence_matches_cell_loop(self, steps, reverse):
        x, fwd, bwd = self.bilstm_arrays(11, steps)
        h = c = np.zeros((2, 2))
        ref = np.zeros((2, steps, 2))
        for t in (reversed(range(steps)) if reverse else range(steps)):
            h, c = lstm_cell_reference(x[:, t, :], h, c, *(bwd if reverse else fwd))
            ref[:, t] = h
        out = tc.bilstm(Tensor(x), [Tensor(w) for w in fwd], [Tensor(w) for w in bwd])
        assert out.shape == (2, steps, 4)
        half = out.data[..., 2:] if reverse else out.data[..., :2]
        assert np.allclose(half, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("steps", [1, 4])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_sequence_grad(self, steps, reverse):
        # the loss reads the whole output, weighting the checked direction's
        # half more heavily, so each case exercises both directions' BPTT
        x, fwd, bwd = self.bilstm_arrays(12, steps)
        leaves = [Tensor(a, requires_grad=True) for a in (x, *fwd, *bwd)]
        w = np.random.default_rng(13).normal(size=(2, steps, 4))
        w[..., 2:] *= 1.0 if reverse else 0.25
        w[..., :2] *= 0.25 if reverse else 1.0
        weights = Tensor(w)

        def f(xx, *ws):
            return (tc.bilstm(xx, ws[:3], ws[3:]) * weights).sum()

        assert grad_check(f, leaves)["passed"]

    def test_bilstm_direction_swap(self):
        # swapping the directions' weights and reversing x in time swaps the
        # output halves and reverses them in time
        x, fwd, bwd = self.bilstm_arrays(14, 5)
        out = tc.bilstm(Tensor(x), [Tensor(w) for w in fwd], [Tensor(w) for w in bwd]).data
        rev = tc.bilstm(Tensor(x[:, ::-1].copy()), [Tensor(w) for w in bwd],
                        [Tensor(w) for w in fwd]).data[:, ::-1]
        assert np.allclose(out[..., :2], rev[..., 2:], rtol=0, atol=1e-12)
        assert np.allclose(out[..., 2:], rev[..., :2], rtol=0, atol=1e-12)

    def test_bilstm_rejects_a_wrong_input_width(self):
        x, fwd, bwd = self.bilstm_arrays(15, 3)
        with pytest.raises(tc.ShapeError, match="bilstm expects"):
            tc.bilstm(Tensor(x[..., :2]), [Tensor(w) for w in fwd], [Tensor(w) for w in bwd])

    def test_bilstm_backward_writes_gate_gradients_into_the_activation_buffer(self):
        # the activations are dead once BPTT has run, so the gate gradients take the
        # GEMM layout in their buffer: the backward allocates about one array of all
        # gates beyond what the graph holds, not a BPTT buffer and a GEMM copy beside it
        batch, steps, width, hid = 32, 26, 64, 32  # CRNN's first Seq layer at scale 1/8
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(batch, steps, width)).astype(np.float32), requires_grad=True)
        ws = [Tensor(rng.normal(0, 0.2, s).astype(np.float32), requires_grad=True)
              for s in [(4 * hid, width), (4 * hid, hid), (4 * hid,)] * 2]
        g = rng.normal(size=(batch, steps, 2 * hid)).astype(np.float32)
        all_gates = steps * batch * 8 * hid * 4  # bytes: T*B*8H float32 values
        tracemalloc.start()
        try:
            out = tc.bilstm(x, ws[:3], ws[3:])
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out.backward(g)
            backward_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert backward_peak < 2 * all_gates
        assert all(np.isfinite(w.grad).all() for w in [x, *ws])

    def test_bilinear_sample_identity_and_grad(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(1, 2, 4, 5)), requires_grad=True)
        ys, xs = np.linspace(-1, 1, 4), np.linspace(-1, 1, 5)
        grid = np.stack(np.meshgrid(xs, ys), axis=-1)[None]
        out = tc.bilinear_sample(x, Tensor(grid))
        assert np.allclose(out.data, x.data, atol=1e-12)
        gt = Tensor(grid * 0.7 + 0.05, requires_grad=True)
        assert grad_check(lambda xx, gg: tc.bilinear_sample(xx, gg).sum(),
                          [x, gt])["passed"]

    def test_bilinear_zero_border(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        grid = Tensor(np.full((1, 1, 1, 2), 5.0))
        assert np.allclose(tc.bilinear_sample(x, grid).data, 0.0)

    def test_index_arrays_gather_rows(self):
        # x[rows, idx] is the CTC recursion's per-row gather; an index repeated
        # within a row receives the sum of its gradients
        x = Tensor(rand((2, 5), 11), requires_grad=True)
        idx = np.array([[0, 0, 4], [1, 2, 3]])
        out = x[np.arange(2)[:, None], idx]
        assert np.array_equal(out.data, [x.data[0, [0, 0, 4]], x.data[1, [1, 2, 3]]])
        out.sum().backward()
        assert np.array_equal(x.grad, [[2.0, 0, 0, 0, 1], [0, 1, 1, 1, 0]])

    def test_sigmoid_saturates_without_overflow(self):
        x = Tensor(np.float32([-1000, 0, 1000]), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = tc.sigmoid(x)
            out.sum().backward()
        assert np.array_equal(out.data, np.float32([0, 0.5, 1]))
        assert np.all(np.isfinite(x.grad))


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(12)
        params = {"a.weight": rng.normal(size=(3, 4)).astype(np.float32),
                  "b.bias": rng.normal(size=7).astype(np.float32)}
        path = tmp_path / "ck.bin"
        ckpt.save_params(path, params, extra={"note": "x"})
        loaded, extra = ckpt.load_params(path)
        assert extra["note"] == "x"
        for name, p in params.items():
            assert loaded[name].tobytes() == p.tobytes()

    @pytest.mark.parametrize("cut, extra", [(0, 64), (4, 0)])
    def test_payload_length_must_match_header(self, tmp_path, cut, extra):
        path = tmp_path / "ck.bin"
        ckpt.save_params(path, {"a": np.ones((2, 3), dtype=np.float32)})
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - cut] + bytes(extra))
        with pytest.raises(ValueError, match="the header's arrays"):
            ckpt.load_params(path)

    def test_flipped_payload_byte_fails_the_checksum(self, tmp_path):
        path = tmp_path / "ck.bin"
        ckpt.save_params(path, {"a": np.ones((2, 3), dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="CRC-32"):
            ckpt.load_params(path)

    def test_magic_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            ckpt.load_params(path)

    def test_every_prefix_of_a_container_is_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        ckpt.save_params(path, {"a": np.ones((2, 3), dtype=np.float32)}, extra={"note": "x"})
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError):
                ckpt.load_params(path)

    @pytest.mark.parametrize("header", [b"[]", b"7", b'{"crc32": 0}', b'{"params": []}',
                                        b'{"params": 3, "crc32": 0}'])
    def test_a_header_without_a_params_object_is_rejected(self, tmp_path, header):
        path = tmp_path / "ck.bin"
        path.write_bytes(ckpt.MAGIC + len(header).to_bytes(4, "little") + header)
        with pytest.raises(ValueError, match="params"):
            ckpt.load_params(path)


def test_param_store_rejects_duplicate_names():
    store = tc.ParamStore(np.float32)
    first = store.new("a.weight", (2, 3))
    assert first.requires_grad and first.dtype == np.float32
    with pytest.raises(ValueError, match="duplicate"):
        store.new("a.weight", (2, 3))
    assert list(store.tensors) == ["a.weight"] and store.tensors["a.weight"] is first
