"""Sequence-modeling stage: two-layer bidirectional LSTM.

Features arrive as a (B, I, D) tensor — I per-image steps of width D. Each
BiLSTM layer runs one LSTM left-to-right and an independent LSTM over the
reversed sequence as one ``bilstm`` graph node, whose single time loop advances
both directions through ``tensor.lstm_cell`` (the attention decoder's core runs
the same cell) on gate-major activations in the weights' own gate order, with no
row permutation. It returns the two hidden states per step side by side (2H);
an FC layer after every layer, the last included, projects them back to the
hidden width for the predictor. The "None" option is no module at all.

Parameters are created in the model's ParamStore: weights for its He draw,
biases zero except each LSTM direction's forget-gate slice, which starts at 1.
"""

from __future__ import annotations

from .tensor import ShapeError, Tensor, bilstm, matmul


class _LstmDirection:
    """Weights for one direction of one BiLSTM layer."""

    def __init__(self, store, name, input_size, hidden_size):
        self.hidden_size = hidden_size
        self.w_ih = store.new(f"{name}.w_ih", (4 * hidden_size, input_size))
        self.w_hh = store.new(f"{name}.w_hh", (4 * hidden_size, hidden_size))
        self.bias = store.new(f"{name}.bias", (4 * hidden_size,))
        self.bias.data[hidden_size:2 * hidden_size] = 1.0  # forget gate starts open


class BiLSTMLayer:
    """One bidirectional layer plus its FC projection (2H -> out)."""

    def __init__(self, store, name, input_size, hidden_size, output_size):
        self.fwd = _LstmDirection(store, f"{name}.fwd", input_size, hidden_size)
        self.bwd = _LstmDirection(store, f"{name}.bwd", input_size, hidden_size)
        self.fc_w = store.new(f"{name}.fc.weight", (output_size, 2 * hidden_size))
        self.fc_b = store.new(f"{name}.fc.bias", (output_size,))

    def forward(self, v: Tensor) -> Tensor:
        """(B, I, D) -> (B, I, out): both directions, then one FC matmul over B*I rows."""
        batch, nsteps, _ = v.shape
        fwd, bwd = ((d.w_ih, d.w_hh, d.bias) for d in (self.fwd, self.bwd))
        states = bilstm(v, fwd, bwd).reshape(batch * nsteps, -1)  # forward half first
        out = matmul(states, self.fc_w.T) + self.fc_b
        return out.reshape(batch, nsteps, -1)


class BiLSTMStack:
    """Two stacked bidirectional layers, each with its FC projection."""

    def __init__(self, store, input_size=512, hidden_size=256, output_size=256):
        self.layers = [
            BiLSTMLayer(store, "seq.layer1", input_size, hidden_size, output_size),
            BiLSTMLayer(store, "seq.layer2", output_size, hidden_size, output_size),
        ]
        self.output_size = output_size

    def forward(self, v: Tensor) -> Tensor:
        """(B, I, D) -> (B, I, output_size)."""
        if v.ndim != 3:
            raise ShapeError(f"expected (B, I, D) feature sequence, got {v.shape}")
        if v.shape[1] == 0:
            raise ShapeError("empty feature sequence")
        for layer in self.layers:
            v = layer.forward(v)
        return v
