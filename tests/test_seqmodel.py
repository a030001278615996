import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strforge.pipeline import PipelineConfig, assemble
from strforge.seqmodel import BiLSTMLayer, BiLSTMStack
from strforge.tensor import ParamStore, ShapeError, Tensor
from test_tensor import lstm_cell_reference


def filled_layer(seed, input_size=8, hidden=4, out=4):
    store = ParamStore(np.float64)
    layer = BiLSTMLayer(store, "l", input_size, hidden, out)
    rng = np.random.default_rng(seed)
    for p in store.tensors.values():
        p.data[...] = rng.normal(0, 0.3, p.shape)
    return layer


def run_one_direction(direction, steps):
    batch = steps[0].shape[0]
    hidden = direction.hidden_size
    h = c = np.zeros((batch, hidden))
    out = []
    for x in steps:
        h, c = lstm_cell_reference(x.data, h, c, direction.w_ih.data, direction.w_hh.data,
                                   direction.bias.data)
        out.append(h)
    return out


class TestBiLSTM:
    def test_zero_params_zero_output(self):
        stack = BiLSTMStack(ParamStore(np.float64))
        x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 512)))
        assert np.abs(stack.forward(x).data).max() == 0.0

    def test_length_preserved(self):
        stack = BiLSTMStack(ParamStore(np.float64), input_size=8, hidden_size=4,
                            output_size=4)
        for i in (1, 3, 7):
            x = Tensor(np.random.default_rng(i).normal(size=(2, i, 8)))
            assert stack.forward(x).shape == (2, i, 4)

    def test_empty_sequence_raises(self):
        stack = BiLSTMStack(ParamStore(np.float32), input_size=8, hidden_size=4,
                            output_size=4)
        with pytest.raises(ShapeError):
            stack.forward(Tensor(np.zeros((2, 0, 8))))

    def test_single_step_degeneracy(self):
        layer = filled_layer(1)
        x = Tensor(np.random.default_rng(2).normal(size=(2, 1, 8)))
        steps = [x[:, 0, :]]
        out = layer.forward(x)
        assert out.shape == (2, 1, 4)
        hf = run_one_direction(layer.fwd, steps)[0]
        hb = run_one_direction(layer.bwd, steps)[0]
        manual = np.concatenate([hf, hb], axis=1) @ layer.fc_w.data.T + layer.fc_b.data
        assert np.allclose(out.data[:, 0], manual)

    def test_direction_decomposition_oracle(self):
        # the layer equals the two manual direction runs, concatenated, then projected
        layer = filled_layer(3)
        x = Tensor(np.random.default_rng(4).normal(size=(2, 3, 8)))
        steps = [x[:, i, :] for i in range(3)]
        out = layer.forward(x)
        hf = run_one_direction(layer.fwd, steps)
        hb = run_one_direction(layer.bwd, steps[::-1])[::-1]
        for i in range(3):
            manual = (np.concatenate([hf[i], hb[i]], axis=1) @ layer.fc_w.data.T
                      + layer.fc_b.data)
            assert np.allclose(out.data[:, i], manual)

    @given(st.integers(1, 4), st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_direction_symmetry(self, seq_len, seed):
        # swapping the directions and the halves of fc_w, then reversing the
        # input, reverses the output
        layer = filled_layer(seed)
        swapped = filled_layer(seed)
        for attr in ("w_ih", "w_hh", "bias"):
            getattr(swapped.fwd, attr).data[...] = getattr(layer.bwd, attr).data
            getattr(swapped.bwd, attr).data[...] = getattr(layer.fwd, attr).data
        hidden = layer.fwd.hidden_size
        swapped.fc_w.data[...] = np.concatenate([layer.fc_w.data[:, hidden:],
                                                 layer.fc_w.data[:, :hidden]], axis=1)
        x = np.random.default_rng(seed + 1000).normal(size=(2, seq_len, 8))
        out = layer.forward(Tensor(x)).data
        rev = swapped.forward(Tensor(x[:, ::-1].copy())).data
        assert np.allclose(out, rev[:, ::-1], atol=1e-12)

    def test_param_count_within_10pct_of_2_7m(self):
        store = ParamStore(np.float32)
        BiLSTMStack(store)
        n = sum(p.size for p in store.tensors.values())
        assert abs(n - 2.7e6) / 2.7e6 < 0.10

    def test_identity_seq(self):
        # the "None" sequence option is no module: features pass through as V
        model = assemble(PipelineConfig.from_string("None-VGG-None-CTC", scale=0.125),
                         dtype=np.float64)
        assert model.seq is None
        x = Tensor(np.random.default_rng(5).normal(size=(2, 1, 32, 100)))
        v = model.feat.forward(x, "train").data
        b, c, _, w = v.shape
        assert np.array_equal(model.features(x, "train").data,
                              v.reshape(b, c, w).transpose(0, 2, 1))
