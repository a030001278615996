"""The dtype policy: a model computes in its own dtype, forward and backward."""

import warnings

import numpy as np
import pytest

from strforge.pipeline import (
    PipelineConfig,
    TrainRecipe,
    all_combinations,
    assemble,
    train,
)
from strforge import tensor as tc
from strforge.tensor import Tensor
from strforge.toydata import synth_toydata


def graph_links(root):
    """Every link the graph of `root` reaches: its nodes and the leaves that need a gradient."""
    seen, stack, out = set(), [root._node], []
    while stack:
        link = stack.pop()
        if link is not None and id(link) not in seen:
            seen.add(id(link))
            out.append(link)
            if isinstance(link, tc._Node):
                stack.extend(link.parents)
    return out


def recorded_dtypes(monkeypatch, forward):
    """``forward()``, and the dtypes of every array an op records while it runs:
    each result and each operand, constants included."""
    dtypes = []
    make = Tensor._make

    def spy(data, parents, backward):
        dtypes.extend(str(a.dtype) for a in [data] + [p.data for p in parents])
        return make(data, parents, backward)

    with monkeypatch.context() as m:
        m.setattr(Tensor, "_make", staticmethod(spy))
        out = forward()
    assert len(dtypes) > 100
    return out, set(dtypes)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["None-VGG-BiLSTM-CTC", "None-RCNN-None-Attn",
                                  "TPS-ResNet-BiLSTM-Attn"])
def test_loss_and_backward_stay_in_model_dtype(monkeypatch, name, dtype):
    model = assemble(PipelineConfig.from_string(name, scale=0.125), dtype=dtype)
    data = synth_toydata(2, max_len=3, seed=0)
    images = Tensor(np.asarray(data.images, dtype=dtype))
    loss, dtypes = recorded_dtypes(monkeypatch, lambda: model.loss(images, data.labels))
    assert dtypes == {np.dtype(dtype).name}
    links = graph_links(loss)  # backward frees the graph, so walk it first
    assert ({id(n) for n in links if isinstance(n, Tensor)}
            == {id(p) for p in model.params().values()})
    emitted = []

    def recording(backward):
        def wrapped(g):
            grads = backward(g)
            emitted.extend([g] + [pg for pg in grads if pg is not None])
            return grads
        return wrapped

    for n in links:
        if isinstance(n, tc._Node):
            n.backward = recording(n.backward)
    loss.backward()
    assert len(emitted) > 100
    assert {str(g.dtype) for g in emitted} == {np.dtype(dtype).name}
    assert all(p.grad.dtype == dtype for p in model.params().values())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bias", [1e4, -1e4])
def test_saturated_lstm_gates_stay_finite_and_silent(dtype, bias):
    # a gate driven to 0 overflows exp(-z) to inf, which gives the exact sigmoid
    # limit; each LSTM time loop (the Seq node's, the teacher-forced one and
    # greedy decoding) ignores that overflow once around its steps
    model = assemble(PipelineConfig.from_string("None-VGG-BiLSTM-Attn", scale=0.125), dtype=dtype)
    for name, p in model.params().items():
        if name.endswith((".fwd.bias", ".bwd.bias", "attn.b_lstm")):
            p.data[...] = bias
    data = synth_toydata(4, max_len=3, seed=0)
    images = Tensor(np.asarray(data.images, dtype=dtype))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss = model.loss(images, data.labels)
        loss.backward()
        decoded = model.decode(images)
        eval_loss = model.loss(images, data.labels, mode="eval")
    assert np.isfinite(loss.item()) and np.isfinite(eval_loss.item()) and len(decoded) == 4
    assert all(np.isfinite(p.grad).all() for p in model.params().values())


def test_train_and_validate_feed_the_model_dtype():
    model = assemble(PipelineConfig.from_string("None-VGG-None-CTC", scale=0.125))
    seen = []
    features = model.features

    def recording(x, training=True):
        seen.append(x.dtype)
        return features(x, training)

    model.features = recording
    data = synth_toydata(4, max_len=2, seed=0)
    train(model, TrainRecipe(batch_size=2, iterations=1, val_interval=1), data, data)
    assert len(seen) == 2  # one training step, one validation batch
    assert set(seen) == {np.dtype(np.float32)}


def loss_and_gradient(model, data):
    """Batch loss and every parameter gradient, flattened in name order, as float64."""
    loss = model.loss(Tensor(np.asarray(data.images, dtype=model.dtype)), data.labels)
    loss.backward()
    grad = np.concatenate([p.grad.ravel().astype(np.float64)
                           for _, p in sorted(model.params().items())])
    return loss.item(), grad


def test_float32_tracks_float64_on_all_24(monkeypatch):
    """float32 against float64 with the same parameters and batch.

    The loss is bounded on every combination. The gradient is bounded only
    without TPS: at identity initialization the bilinear sampling grid sits
    exactly on pixel centres, where the gradient with respect to the grid is
    one-sided, so rounding alone picks the side and the two dtypes may take
    different ones.

    A ReLU input within rounding of 0 has the same problem: its sign, and so
    which side of the kink is differentiated, can differ between the dtypes.
    The float64 run therefore records each ReLU's mask ``x > 0`` and the
    float32 run replays it as ``x * mask``, so that both differentiate the
    same piecewise-linear function and the bound measures rounding alone.
    """
    relu = tc.relu
    for seed in (0, 1, 2):
        data = synth_toydata(2, max_len=3, seed=seed)
        for cfg in all_combinations(scale=0.125):
            m32 = assemble(cfg, dtype=np.float32)
            m64 = assemble(cfg, dtype=np.float64, initialize=False)
            m64.store.load_state(*m32.store.state())
            masks = []

            def recording(x):
                masks.append(x.data > 0)
                return relu(x)

            monkeypatch.setattr(tc, "relu", recording)
            loss64, grad64 = loss_and_gradient(m64, data)
            replay = iter(masks)
            monkeypatch.setattr(tc, "relu", lambda x: x * next(replay))
            loss32, grad32 = loss_and_gradient(m32, data)
            assert next(replay, None) is None  # every recorded mask was replayed
            assert abs(loss32 - loss64) <= 1e-3 * abs(loss64), (cfg.name, seed)
            if cfg.trans == "None":
                gap = np.abs(grad32 - grad64).max() / np.abs(grad64).max()
                assert gap <= 1e-4, (cfg.name, seed, gap)


def test_float64_images_run_in_the_model_dtype(monkeypatch):
    model = assemble(PipelineConfig.from_string("None-VGG-BiLSTM-CTC", scale=0.125))
    data = synth_toydata(2, max_len=3, seed=0)
    images = Tensor(np.asarray(data.images, dtype=np.float64))
    loss, dtypes = recorded_dtypes(monkeypatch, lambda: model.loss(images, data.labels))
    loss.backward()
    assert loss.dtype == np.float32
    assert dtypes == {"float32"}
    assert all(p.grad.dtype == np.float32 for p in model.params().values())
