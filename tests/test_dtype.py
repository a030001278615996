"""The dtype policy: a model computes in its own dtype, forward and backward."""

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


def graph_nodes(root):
    """Every tensor the graph of `root` reaches, constants included."""
    seen, stack, out = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            stack.extend(node._parents)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["None-VGG-BiLSTM-CTC", "None-RCNN-None-Attn",
                                  "TPS-ResNet-BiLSTM-Attn"])
def test_loss_and_backward_stay_in_model_dtype(name, dtype):
    model = assemble(PipelineConfig.from_string(name, scale=0.125), dtype=dtype)
    data = synth_toydata(2, max_len=3, seed=0)
    loss = model.loss(Tensor(np.asarray(data.images, dtype=dtype)), data.labels)
    nodes = graph_nodes(loss)  # backward frees the graph, so walk it first
    assert len(nodes) > 100
    assert {str(n.dtype) for n in nodes} == {np.dtype(dtype).name}
    emitted = []

    def recording(backward):
        def wrapped(g):
            grads = backward(g)
            emitted.extend([g] + [pg for pg in grads if pg is not None])
            return grads
        return wrapped

    for n in nodes:
        if n._backward is not None:
            n._backward = recording(n._backward)
    loss.backward()
    assert len(emitted) > 100
    assert {str(g.dtype) for g in emitted} == {np.dtype(dtype).name}
    assert all(p.grad.dtype == dtype for p in model.params().values())


def test_train_and_validate_feed_the_model_dtype():
    model = assemble(PipelineConfig.from_string("None-VGG-None-CTC", scale=0.125))
    seen = []
    features = model.features

    def recording(x, mode="train"):
        seen.append(x.dtype)
        return features(x, mode)

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
            m64.set_param_values({k: p.data for k, p in m32.params().items()})
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


def test_float64_images_run_in_the_model_dtype():
    model = assemble(PipelineConfig.from_string("None-VGG-BiLSTM-CTC", scale=0.125))
    data = synth_toydata(2, max_len=3, seed=0)
    loss = model.loss(Tensor(np.asarray(data.images, dtype=np.float64)), data.labels)
    loss.backward()
    assert loss.dtype == np.float32
    assert {str(n.dtype) for n in graph_nodes(loss)} == {"float32"}
    assert all(p.grad.dtype == np.float32 for p in model.params().values())
