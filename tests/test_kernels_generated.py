"""Generated oracles for the feature-map kernels: conv2d, maxpool2d, batchnorm
and bilinear_sample on drawn shapes, strides, paddings, dtypes and chunk budgets,
and conv -> batchnorm -> relu chains whose conv2d or maxpool2d consumer rebuilds
the ReLU output in its backward.

Shapes are drawn per axis: N 1-5, C 1-6, H and W 1-12, kernel 1-3, stride
1-3. Pool padding is 0..kernel-1; conv padding goes one further, to the
kernel size, so that the input gradient's crop of the output gradient (padding
wider than kernel-1) is drawn too. Arrays are built in NCHW and handed to the
kernels in their own layout, ``LAYOUT``; the oracles work in NCHW.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strforge import tensor as tc
from strforge.tensor import Tensor, grad_check

# The kernels' axis order as a permutation of NCHW.
LAYOUT = (1, 0, 2, 3)

# Largest relative difference (max abs difference over max abs value) between a
# conv's output or gradients at a drawn chunk budget and at the whole-batch
# budget. Each chunk is one GEMM, and BLAS blocks it by the chunk's width, so
# budgets agree to rounding, not bit for bit. Worst observed over 12,000 drawn
# comparisons: 2.1e-15 (float64) and 4.8e-6 (float32, a 5-image weight gradient
# whose sum cancels).
CHUNK_BOUND = {np.float32: 1e-5, np.float64: 1e-12}

EXAMPLES = dict(deadline=None, derandomize=True)


def kernel_layout(a):
    """An NCHW array, contiguous in the kernels' layout."""
    return np.ascontiguousarray(np.transpose(a, LAYOUT))


def nchw(a):
    """An array in the kernels' layout, seen as NCHW."""
    return np.transpose(a, np.argsort(LAYOUT))


def rel_err(got, want):
    got, want = np.asarray(got, np.float64), np.asarray(want, np.float64)
    return float(np.abs(got - want).max(initial=0.0) / max(np.abs(want).max(initial=0.0), 1e-300))


def naive_conv2d(x, w, stride, padding):
    """Cross-correlation of NCHW `x` with OIHW `w`, one scalar product at a time."""
    (sh, sw), (ph, pw) = stride, padding
    n, c, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((n, c_out, (h + 2 * ph - kh) // sh + 1, (wd + 2 * pw - kw) // sw + 1))
    for b, o, i, j in np.ndindex(*out.shape):
        acc = 0.0
        for ch, di, dj in np.ndindex(c, kh, kw):
            acc += xp[b, ch, i * sh + di, j * sw + dj] * w[o, ch, di, dj]
        out[b, o, i, j] = acc
    return out


def naive_maxpool2d(x, kernel, stride, padding):
    """Window maximum of NCHW `x`, padded cells -inf, trailing cells floored away."""
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    n, c, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf)
    out = np.zeros((n, c, (h + 2 * ph - kh) // sh + 1, (wd + 2 * pw - kw) // sw + 1))
    for b, ch, i, j in np.ndindex(*out.shape):
        out[b, ch, i, j] = max(xp[b, ch, i * sh + di, j * sw + dj] for di, dj in np.ndindex(kh, kw))
    return out


@st.composite
def axis(draw, pooling):
    """(size, kernel, stride, padding) of one spatial axis with an integral conv output."""
    k, s = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    p = draw(st.integers(0, k - 1 if pooling else k))
    if pooling:  # the output floors, so any size the kernel fits
        return draw(st.integers(max(1, k - 2 * p), 12)), k, s, p
    lo = max(1, -((1 - k + 2 * p) // -s) + 1)
    out = draw(st.integers(lo, (12 - k + 2 * p) // s + 1))
    return (out - 1) * s + k - 2 * p, k, s, p


@st.composite
def cases(draw, pooling):
    """(x shape, c_out, kernel, stride, padding, dtype, images per chunk, seed)."""
    n, c, c_out = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    (h, kh, sh, ph), (w, kw, sw, pw) = draw(axis(pooling)), draw(axis(pooling))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    chunk = draw(st.sampled_from([1, max(1, n - 1), n]))  # one image, a ragged split, the batch
    return (n, c, h, w), c_out, (kh, kw), (sh, sw), (ph, pw), dtype, chunk, draw(st.integers(0, 2 ** 16))


def run(op, arrays, g0, dtype, budget, need_x=True):
    """Output and gradients of `op` at one chunk budget; checks the no_grad output's bits.

    `arrays` is the NCHW input, then any weight. With `need_x` unset the input needs
    no gradient, and only the weights' gradients are returned."""
    ts = [Tensor(kernel_layout(arrays[0]), requires_grad=need_x, dtype=dtype)]
    ts += [Tensor(a, requires_grad=True, dtype=dtype) for a in arrays[1:]]
    saved, tc._COL_CHUNK_BYTES = tc._COL_CHUNK_BYTES, budget
    try:
        out = op(*ts)
        with tc.no_grad():
            free = op(*ts)
        out.backward(kernel_layout(g0).astype(dtype))
    finally:
        tc._COL_CHUNK_BYTES = saved
    assert free.dtype == out.dtype == dtype
    assert np.array_equal(free.data, out.data)
    assert (ts[0].grad is None) != need_x
    return [out.data] + [t.grad for t in ts if t.requires_grad]


def check_chunk_budgets(op, arrays, g0, dtype, chunk, per_image, need_x=True):
    drawn = run(op, arrays, g0, dtype, chunk * per_image, need_x)
    whole = run(op, arrays, g0, dtype, len(arrays[0]) * per_image, need_x)
    assert len(drawn) == len(whole) == len(arrays) + need_x
    for got, want in zip(drawn, whole):
        assert got.dtype == dtype and rel_err(got, want) <= CHUNK_BOUND[dtype]


@given(cases(pooling=False), st.booleans())
@settings(max_examples=100, **EXAMPLES)
def test_conv2d_on_drawn_shapes(case, need_x):
    # both backward branches: with an input gradient, the weight gradient comes
    # from the output gradient's patches; without one (a first conv on raw
    # images), from the input's
    xs, c_out, kernel, stride, padding, dtype, chunk, seed = case
    rng = np.random.default_rng(seed)
    x0, w0 = rng.normal(size=xs), rng.normal(size=(c_out, xs[1], *kernel))
    want = naive_conv2d(x0, w0, stride, padding)
    g0 = rng.normal(size=want.shape)

    def op(x, w):
        return tc.conv2d(x, w, stride, padding)

    out = op(Tensor(kernel_layout(x0)), Tensor(w0))
    assert rel_err(nchw(out.data), want) <= 1e-12
    probe = kernel_layout(g0)
    x, w = Tensor(kernel_layout(x0), requires_grad=need_x), Tensor(w0, requires_grad=True)
    if need_x:
        res = grad_check(lambda xx, ww: (op(xx, ww) * probe).sum(), [x, w])
    else:
        res = grad_check(lambda ww: (op(x, ww) * probe).sum(), [w])
    assert res["passed"], res
    per_image = xs[1] * kernel[0] * kernel[1] * want.shape[2] * want.shape[3] * np.dtype(dtype).itemsize
    check_chunk_budgets(op, [x0, w0], g0, dtype, chunk, per_image, need_x)


@given(cases(pooling=True))
@settings(max_examples=60, **EXAMPLES)
def test_maxpool2d_on_drawn_shapes(case):
    xs, _, kernel, stride, padding, dtype, chunk, seed = case
    rng = np.random.default_rng(seed)
    x0 = rng.permutation(np.prod(xs)).reshape(xs) * 0.1 - 1.0  # distinct: no window ties
    want = naive_maxpool2d(x0, kernel, stride, padding)
    g0 = rng.normal(size=want.shape)

    def op(x):
        return tc.maxpool2d(x, kernel, stride, padding)

    assert rel_err(nchw(op(Tensor(kernel_layout(x0))).data), want) <= 1e-12
    probe = kernel_layout(g0)
    res = grad_check(lambda xx: (op(xx) * probe).sum(), [Tensor(kernel_layout(x0), requires_grad=True)])
    assert res["passed"], res
    check_chunk_budgets(op, [x0], g0, dtype, chunk, 1)


@given(cases(pooling=False), st.booleans())
@settings(max_examples=40, **EXAMPLES)
def test_batchnorm_relu_rebuilt_by_conv2d_and_maxpool2d(case, pool):
    # a drawn conv, train-mode batch norm and ReLU, then a padded 3x3 conv or 2x2
    # pool: the consumer keeps the ReLU's rebuild, not its output. The gradients
    # pass grad_check, and at the drawn chunk budget they are the bits of the
    # chain whose ReLU output is held (routed through + 0.0)
    xs, c_out, kernel, stride, padding, dtype, chunk, seed = case
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=xs), rng.normal(size=(c_out, xs[1], *kernel)),
              rng.uniform(0.5, 1.5, c_out), rng.normal(size=c_out)]
    arrays += [] if pool else [rng.normal(size=(2, c_out, 3, 3))]

    def chain(held):
        def op(x, w, gamma, beta, *w2):
            h = tc.conv2d(x, w, stride, padding)
            h = tc.relu(tc.batchnorm(h, gamma, beta, tc.BatchNormState(c_out), training=True))
            h = h + 0.0 if held else h
            return tc.maxpool2d(h, (2, 2), (2, 1), (1, 1)) if pool else tc.conv2d(h, w2[0], (1, 1), (1, 1))
        return op

    ts = [Tensor(kernel_layout(arrays[0]), requires_grad=True)]
    ts += [Tensor(a, requires_grad=True) for a in arrays[1:]]
    probe = rng.normal(size=chain(False)(*ts).shape)
    res = grad_check(lambda *tt: (chain(False)(*tt) * probe).sum(), ts)
    assert res["passed"], res
    g0 = nchw(probe)
    ho, wo = ((s + 2 * p - k) // s_ + 1 for s, k, s_, p in zip(xs[2:], kernel, stride, padding))
    per_image = xs[1] * kernel[0] * kernel[1] * ho * wo * np.dtype(dtype).itemsize
    rebuilt, held = (run(chain(h), arrays, g0, dtype, chunk * per_image) for h in (False, True))
    for got, want in zip(rebuilt, held):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    check_chunk_budgets(chain(False), arrays, g0, dtype, chunk, per_image)


@given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 12), st.integers(1, 12), st.integers(0, 2 ** 16))
@settings(max_examples=40, **EXAMPLES)
def test_batchnorm_train_grad_on_drawn_shapes(n, c, h, w, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(kernel_layout(rng.normal(size=(n, c, h, w))), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, c), requires_grad=True)
    beta = Tensor(rng.normal(size=c), requires_grad=True)
    probe = kernel_layout(rng.normal(size=(n, c, h, w)))  # .sum() alone is constant under normalization

    def f(xx, gg, bb):
        return (tc.batchnorm(xx, gg, bb, tc.BatchNormState(c), training=True) * probe).sum()

    res = grad_check(f, [x, gamma, beta], tol=1e-3)
    assert res["passed"], res


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 12), st.integers(1, 12),
       st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 16))
@settings(max_examples=40, **EXAMPLES)
def test_bilinear_sample_grad_on_drawn_shapes(n, c, h, w, ho, wo, seed):
    # sample points at least 0.1 px off every integer coordinate, some of them
    # outside the image, where the zero border reads
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(n, c, h, w)), requires_grad=True)  # NCHW, whatever LAYOUT is
    px = [rng.integers(-2, size + 1, (n, ho, wo)) + rng.uniform(0.1, 0.9, (n, ho, wo)) for size in (w, h)]
    grid = np.stack([p * 2.0 / max(size - 1, 1) - 1.0 for p, size in zip(px, (w, h))], axis=-1)
    probe = rng.normal(size=(n, c, ho, wo))
    res = grad_check(lambda xx, gg: (tc.bilinear_sample(xx, gg) * probe).sum(),
                     [x, Tensor(grid, requires_grad=True)])
    assert res["passed"], res


@pytest.mark.parametrize("pooling", [False, True])
def test_drawn_cases_reach_the_edge_shapes(pooling):
    # the strategy draws asymmetric strides and paddings, 1-pixel outputs,
    # ragged chunk splits and (conv) padding wider than kernel-1
    seen = set()

    @given(cases(pooling))
    @settings(max_examples=300, **EXAMPLES)
    def collect(case):
        xs, _, kernel, stride, padding, _, chunk, _ = case
        ho = [(s + 2 * p - k) // st_ + 1 for s, k, st_, p in zip(xs[2:], kernel, stride, padding)]
        seen.update({"asymmetric": stride[0] != stride[1] and padding[0] != padding[1],
                     "one-pixel": ho == [1, 1],
                     "ragged": 1 < chunk < xs[0] and xs[0] % chunk != 0,
                     "crop": any(p > k - 1 for p, k in zip(padding, kernel))}.items())

    collect()
    want = {"asymmetric", "one-pixel", "ragged"} | (set() if pooling else {"crop"})
    assert want <= {name for name, hit in seen if hit}
