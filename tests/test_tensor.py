import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strforge import checkpoint as ckpt
from strforge import tensor as tc
from strforge.tensor import Tensor, grad_check


def rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(0, scale, shape)


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


# (input, weight, stride, padding) of the conv shapes the backbones use:
# 3x3 same-padded (VGG, ResNet, GRCL feed-forward), 2x2 with stride (2, 1)
# and padding (0, 1) (ResNet conv6) and 1x1 (GRCL gates, ResNet
# projections); then a column stride, which no backbone uses, with and
# without padding.
CONV_CASES = [
    ((2, 3, 5, 6), (4, 3, 3, 3), (1, 1), (1, 1)),
    ((2, 3, 4, 5), (4, 3, 2, 2), (2, 1), (0, 1)),
    ((3, 4, 3, 5), (2, 4, 1, 1), (1, 1), (0, 0)),
    ((2, 3, 5, 5), (2, 3, 1, 1), (2, 2), (0, 0)),
    ((2, 3, 5, 7), (3, 3, 3, 3), (2, 2), (1, 1)),
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
        assert out.data[0] == -np.inf and np.isclose(out.data[1], 0.0)
        out.sum().backward()
        assert np.all(np.isfinite(x.grad))

    def test_softmax_rows_sum_to_one(self):
        s = tc.softmax(Tensor(rand((5, 7), 8)), axis=1)
        assert np.allclose(s.data.sum(axis=1), 1.0)


class TestNNOps:
    def test_conv2d_grad(self):
        x = Tensor(rand((2, 3, 5, 6), 1), requires_grad=True)
        w = Tensor(rand((4, 3, 3, 3), 2, 0.3), requires_grad=True)
        res = grad_check(
            lambda xx, ww: tc.relu(tc.conv2d(xx, ww, stride=(1, 1),
                                             padding=(1, 1))).sum(), [x, w])
        assert res["passed"], res

    @pytest.mark.parametrize("xs, ws, stride, padding", CONV_CASES)
    def test_conv2d_matches_loops(self, xs, ws, stride, padding):
        x, w = rand(xs, 1), rand(ws, 2)
        out = tc.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
        assert np.allclose(out.data, naive_conv2d(x, w, stride, padding), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("xs, ws, stride, padding", CONV_CASES[1:])  # [0]: test_conv2d_grad
    def test_conv2d_grad_on_backbone_shapes(self, xs, ws, stride, padding):
        x = Tensor(rand(xs, 1), requires_grad=True)
        w = Tensor(rand(ws, 2, 0.3), requires_grad=True)
        probe = rand(naive_conv2d(x.data, w.data, stride, padding).shape, 3)
        res = grad_check(
            lambda xx, ww: (tc.conv2d(xx, ww, stride=stride, padding=padding) * probe).sum(),
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

    def test_batchnorm_train_grad(self):
        x = Tensor(rand((4, 3, 2, 2), 5), requires_grad=True)
        g = Tensor(np.ones(3) * 1.3, requires_grad=True)
        b = Tensor(rand((3,), 6), requires_grad=True)

        probe = Tensor(rand((4, 3, 2, 2), 7))

        def f(xx, gg, bb):
            # .sum() alone is constant under normalization; probe breaks the symmetry
            state = tc.BatchNormState(3)
            return (tc.batchnorm(xx, gg, bb, state, mode="train") * probe).sum()

        res = grad_check(f, [x, g, b], tol=1e-3)
        assert res["passed"], res

    def test_batchnorm_eval_grad(self):
        state = tc.BatchNormState(3)
        state.update(rand((3,), 15), np.array([0.5, 1.0, 2.0]))
        x = Tensor(rand((4, 3, 2, 2), 16), requires_grad=True)
        g = Tensor(rand((3,), 17), requires_grad=True)
        b = Tensor(rand((3,), 18), requires_grad=True)
        probe = rand((4, 3, 2, 2), 19)
        res = grad_check(lambda xx, gg, bb: (tc.batchnorm(xx, gg, bb, state, mode="eval")
                                             * probe).sum(), [x, g, b])
        assert res["passed"], res

    def test_batchnorm_train_grad_2d(self):
        x = Tensor(rand((6, 3), 20), requires_grad=True)
        g = Tensor(rand((3,), 21), requires_grad=True)
        b = Tensor(rand((3,), 22), requires_grad=True)
        probe = rand((6, 3), 23)

        def f(xx, gg, bb):
            state = tc.BatchNormState(3)
            return (tc.batchnorm(xx, gg, bb, state, mode="train") * probe).sum()

        res = grad_check(f, [x, g, b])
        assert res["passed"], res

    def test_batchnorm_eval_uses_running_stats(self):
        state = tc.BatchNormState(2)
        g = Tensor(np.ones(2))
        b = Tensor(np.zeros(2))
        x = Tensor(rand((8, 2, 3, 3), 7))
        for _ in range(50):
            tc.batchnorm(x, g, b, state, mode="train")
        out = tc.batchnorm(x, g, b, state, mode="eval")
        assert abs(float(out.data.mean())) < 0.2

    def test_lstm_cell_matches_manual(self):
        rng = np.random.default_rng(8)
        H, I = 4, 3
        x, h0, c0 = rng.normal(size=(2, I)), rng.normal(size=(2, H)), rng.normal(size=(2, H))
        w_ih, w_hh, bias = rng.normal(size=(4 * H, I)), rng.normal(size=(4 * H, H)), rng.normal(size=4 * H)
        h, c = tc.lstm_cell(Tensor(x), Tensor(h0), Tensor(c0),
                            Tensor(w_ih), Tensor(w_hh), Tensor(bias))
        gates = x @ w_ih.T + h0 @ w_hh.T + bias
        sig = lambda z: 1 / (1 + np.exp(-z))
        i, f, g, o = (sig(gates[:, :H]), sig(gates[:, H:2 * H]),
                      np.tanh(gates[:, 2 * H:3 * H]), sig(gates[:, 3 * H:]))
        c_ref = f * c0 + i * g
        assert np.allclose(c.data, c_ref)
        assert np.allclose(h.data, o * np.tanh(c_ref))

    def test_lstm_cell_grad(self):
        rng = np.random.default_rng(9)
        w_ih = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        w_hh = Tensor(rng.normal(size=(8, 2)), requires_grad=True)
        bias = Tensor(rng.normal(size=8), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)

        def f(xx, wi, wh, bb):
            h, c = tc.lstm_cell(xx, Tensor(np.zeros((2, 2))),
                                Tensor(np.zeros((2, 2))), wi, wh, bb)
            return (h * c).sum()

        assert grad_check(f, [x, w_ih, w_hh, bias])["passed"]

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
        params = {"a.weight": Tensor(rng.normal(size=(3, 4)).astype(np.float32),
                                     requires_grad=True),
                  "b.bias": Tensor(rng.normal(size=7).astype(np.float32),
                                   requires_grad=True)}
        path = tmp_path / "ck.bin"
        ckpt.save_params(path, params, extra={"note": "x"})
        loaded, extra = ckpt.load_params(path)
        assert extra["note"] == "x"
        for name, p in params.items():
            assert loaded[name].tobytes() == p.data.tobytes()

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
        with pytest.raises(Exception):
            ckpt.load_params(path)
