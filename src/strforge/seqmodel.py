"""Sequence-modeling stage: two-layer bidirectional LSTM.

Features arrive as a (B, I, D) tensor — I per-image steps of width D. Each
BiLSTM layer runs one LSTM left-to-right and an independent LSTM over the
reversed sequence, each direction one ``lstm_sequence`` graph node. It
concatenates the two hidden states per step (2H wide) and projects through an
FC layer back to the hidden width, after every layer including the last, so
downstream predictors consume width-H vectors. The "None" sequence option is
no module at all: the model passes V through.

Parameters are created zero-filled; initialization policy lives with the
training pipeline.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, concat, lstm_sequence, matmul


class _LstmDirection:
    """Weights for one direction of one BiLSTM layer."""

    def __init__(self, name, input_size, hidden_size, dtype):
        self.name = name
        self.hidden_size = hidden_size
        self.w_ih = Tensor(np.zeros((4 * hidden_size, input_size), dtype=dtype),
                           requires_grad=True)
        self.w_hh = Tensor(np.zeros((4 * hidden_size, hidden_size), dtype=dtype),
                           requires_grad=True)
        self.bias = Tensor(np.zeros(4 * hidden_size, dtype=dtype), requires_grad=True)

    def params(self):
        return {
            f"{self.name}.w_ih": self.w_ih,
            f"{self.name}.w_hh": self.w_hh,
            f"{self.name}.bias": self.bias,
        }


class BiLSTMLayer:
    """One bidirectional layer plus its FC projection (2H -> out)."""

    def __init__(self, name, input_size, hidden_size, output_size, dtype):
        self.name = name
        self.fwd = _LstmDirection(f"{name}.fwd", input_size, hidden_size, dtype)
        self.bwd = _LstmDirection(f"{name}.bwd", input_size, hidden_size, dtype)
        self.fc_w = Tensor(np.zeros((output_size, 2 * hidden_size), dtype=dtype),
                           requires_grad=True)
        self.fc_b = Tensor(np.zeros(output_size, dtype=dtype), requires_grad=True)

    def params(self):
        out = {}
        out.update(self.fwd.params())
        out.update(self.bwd.params())
        out[f"{self.name}.fc.weight"] = self.fc_w
        out[f"{self.name}.fc.bias"] = self.fc_b
        return out

    def forward(self, v: Tensor) -> Tensor:
        """(B, I, D) -> (B, I, out): both directions, then one FC matmul over B*I rows."""
        batch, nsteps, _ = v.shape
        hf = lstm_sequence(v, self.fwd.w_ih, self.fwd.w_hh, self.fwd.bias)
        hb = lstm_sequence(v, self.bwd.w_ih, self.bwd.w_hh, self.bwd.bias, reverse=True)
        states = concat([hf, hb], axis=2).reshape(batch * nsteps, -1)  # forward half first
        out = matmul(states, self.fc_w.T) + self.fc_b
        return out.reshape(batch, nsteps, -1)


class BiLSTMStack:
    """Two stacked bidirectional layers, each with its FC projection."""

    def __init__(self, input_size=512, hidden_size=256, output_size=256,
                 dtype=np.float32, name="seq"):
        self.name = name
        self.layers = [
            BiLSTMLayer(f"{name}.layer1", input_size, hidden_size, output_size, dtype),
            BiLSTMLayer(f"{name}.layer2", output_size, hidden_size, output_size, dtype),
        ]
        self.output_size = output_size

    def params(self):
        out = {}
        for layer in self.layers:
            out.update(layer.params())
        return out

    def param_element_count(self):
        return sum(int(p.size) for p in self.params().values())

    def forward(self, v: Tensor) -> Tensor:
        """(B, I, D) -> (B, I, output_size)."""
        if v.ndim != 3:
            raise ShapeError(f"expected (B, I, D) feature sequence, got {v.shape}")
        if v.shape[1] == 0:
            raise ShapeError("empty feature sequence")
        for layer in self.layers:
            v = layer.forward(v)
        return v
