"""Prediction stage: CTC and attention decoders over 37 classes.

The label codec covers the 36 case-folded alphanumerics; index 36 is the
special class — blank for CTC, end-of-sequence for attention. CTC marginal
probabilities are computed by the forward (alpha) dynamic program over the
blank-interleaved label, entirely in log space and built from differentiable
primitives, so ``ctc_loss_batch`` backpropagates into the frame log-probabilities.
A brute-force path-enumeration oracle validates the recursion on small
instances. Decoding is greedy for both heads; no beam search.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    concat,
    log_softmax,
    logsumexp,
    lstm_cell,
    matmul,
    softmax,
    stack,
    tanh,
)

ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"
SPECIAL_INDEX = 36  # blank (CTC) / EOS (attention)
NUM_CLASSES = 37
BLANK_CHAR = "-"

NEG_INF = -np.inf


class CodecError(ValueError):
    """Label contains a symbol outside the 36-character alphabet."""


class LabelCodec:
    """Bidirectional map between alphabet strings and class indices."""

    alphabet = ALPHABET
    special_index = SPECIAL_INDEX
    num_classes = NUM_CLASSES

    _char_to_index = {ch: i for i, ch in enumerate(ALPHABET)}

    def encode(self, label: str) -> np.ndarray:
        try:
            return np.array([self._char_to_index[ch] for ch in label], dtype=np.int64)
        except KeyError as exc:
            raise CodecError(f"character {exc.args[0]!r} not in alphabet") from None

    def decode(self, indices) -> str:
        out = []
        for i in indices:
            i = int(i)
            if i == SPECIAL_INDEX:
                raise CodecError("special index 36 has no character")
            if not 0 <= i < len(ALPHABET):
                raise CodecError(f"index {i} out of range")
            out.append(ALPHABET[i])
        return "".join(out)


CODEC = LabelCodec()


def _as_index_seq(pi):
    """Accept an index sequence, or a string where '-' denotes blank."""
    if isinstance(pi, str):
        return [SPECIAL_INDEX if ch == BLANK_CHAR else int(CODEC.encode(ch)[0])
                for ch in pi]
    return [int(i) for i in pi]


def collapse(pi) -> str:
    """Merge adjacent repeats, then delete blanks (the CTC map M)."""
    seq = _as_index_seq(pi)
    out = []
    prev = None
    for i in seq:
        if i != prev and i != SPECIAL_INDEX:
            out.append(i)
        prev = i
    return CODEC.decode(out)


# -- CTC forward algorithm ----------------------------------------------------------
#
# Posteriors over fewer than 37 classes are treated as restricted alphabets:
# classes 0..C-2 stand for 'a', 'b', ... and the last class is the blank (in
# the full 37-class case the blank is likewise the last class, index 36).


def encode_for(classes: int, y: str) -> np.ndarray:
    """Class indices of `y` for posteriors over `classes` classes."""
    if classes == NUM_CLASSES:
        return CODEC.encode(y)
    sub = "abcdefghijklmnopqrstuvwxyz"[:classes - 1]
    try:
        return np.array([sub.index(ch) for ch in y], dtype=np.int64)
    except ValueError:
        raise CodecError(f"label {y!r} outside restricted alphabet {sub!r}") from None


def _extended_label(y: np.ndarray, blank: int) -> np.ndarray:
    """Blank-interleave: -, y1, -, y2, ..., yL, - (length 2L+1)."""
    z = np.full(2 * len(y) + 1, blank, dtype=np.int64)
    z[1::2] = y
    return z


def ctc_log_prob_batch(h: Tensor, labels) -> Tensor:
    """Batched alpha recursion: (B, T, C) log-probs, list of B index arrays -> (B,).

    Runs all samples in lock-step over a padded extended-label axis; fully
    differentiable through indexing and log-sum-exp primitives. Every constant is
    built in ``h``'s dtype, so the recursion computes in that dtype.
    """
    if h.ndim != 3:
        raise ShapeError(f"expected (B, T, C) frame log-probabilities, got {h.shape}")
    batch, steps, classes = h.shape
    blank = classes - 1
    if len(labels) != batch:
        raise ShapeError("label count does not match batch size")
    exts = [_extended_label(np.asarray(lbl, dtype=np.int64), blank) for lbl in labels]
    smax = max(len(z) for z in exts)
    dtype = h.dtype

    z = np.full((batch, smax), blank, dtype=np.int64)
    valid = np.full((batch, smax), NEG_INF, dtype=dtype)  # 0 inside each label, -inf beyond
    skip = np.full((batch, smax), NEG_INF, dtype=dtype)   # 0 where the s-2 transition is legal
    end_idx = np.zeros((batch, 2), dtype=np.int64)  # final-blank / final-symbol slots
    for b, zb in enumerate(exts):
        s = len(zb)
        z[b, :s] = zb
        valid[b, :s] = 0.0
        for j in range(2, s):
            if zb[j] != blank and zb[j] != zb[j - 2]:
                skip[b, j] = 0.0
        end_idx[b] = (s - 1, max(s - 2, 0))
    # A length-1 extended label has no second terminal slot; mask it out.
    end_mask = np.zeros((batch, 2), dtype=dtype)
    end_mask[end_idx[:, 1] == end_idx[:, 0], 1] = NEG_INF

    ninf_col = Tensor(np.full((batch, 1), NEG_INF, dtype=dtype))

    def shifted(a, by):
        if smax <= by:
            return Tensor(np.full((batch, smax), NEG_INF, dtype=dtype))
        return concat([ninf_col] * by + [a[:, :smax - by]], axis=1)

    # alpha_1: only the first blank and first symbol are reachable.
    init_mask = np.full((batch, smax), NEG_INF, dtype=dtype)
    init_mask[:, 0] = 0.0
    if smax > 1:
        init_mask[:, 1] = 0.0
    rows = np.arange(batch)[:, None]
    alpha = h[rows, 0, z] + Tensor(init_mask + valid)

    for t in range(1, steps):
        stay = alpha
        step1 = shifted(alpha, 1)
        step2 = shifted(alpha, 2) + Tensor(skip)
        trans = logsumexp(stack([stay, step1, step2], axis=0), axis=0)
        alpha = trans + h[rows, t, z] + Tensor(valid)

    finals = alpha[rows, end_idx] + Tensor(end_mask)  # (B, 2)
    return logsumexp(finals, axis=1)


def ctc_loss_batch(h: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood over a batch.

    A label that cannot fit into the T frames (log-prob -inf) contributes zero
    loss and zero gradient; the mean is still taken over the whole batch. A NaN
    log-prob is not masked.
    """
    logp = ctc_log_prob_batch(h, labels)
    feasible = logp[np.flatnonzero(logp.data != NEG_INF)]
    return -(feasible.sum() * (1.0 / len(labels)))


def ctc_brute_force(h, y: str) -> float:
    """Exact sum over every collapsing alignment; test oracle for small instances."""
    h = np.asarray(h.data if isinstance(h, Tensor) else h, dtype=np.float64)
    steps, classes = h.shape
    if steps > 8:
        raise ValueError("brute-force oracle limited to T <= 8")
    if classes > 4:
        raise ValueError("brute-force oracle limited to <= 4 classes")
    blank = classes - 1
    target = list(encode_for(classes, y))
    total = 0.0
    probs = np.exp(h)

    def mapped(path):
        out = []
        prev = None
        for i in path:
            if i != prev and i != blank:
                out.append(i)
            prev = i
        return out

    for flat in np.ndindex(*([classes] * steps)):
        if mapped(flat) == target:
            p = 1.0
            for t, c in enumerate(flat):
                p *= probs[t, c]
            total += p
    return total


def ctc_greedy_decode(h) -> str:
    """Per-frame argmax over 37-class posteriors (first-index tie-break), then collapse."""
    h = np.asarray(h.data if isinstance(h, Tensor) else h)
    if h.ndim != 2:
        raise ShapeError(f"expected (T, C) posteriors, got {h.shape}")
    return collapse(np.argmax(h, axis=1))


# -- attention decoder --------------------------------------------------------------


class AttnDecoder:
    """Content-based attention decoder with a 256-state LSTM core.

    Scores e_ti = v^T tanh(W s_{t-1} + V h_i + b); the context is the
    alpha-weighted sum of H; the LSTM consumes the one-hot previous symbol
    concatenated with the context; the output head is a 37-way softmax.
    Parameters are created zero-filled.
    """

    def __init__(self, input_size=256, hidden_size=256, dtype=np.float32, name="attn"):
        self.name = name
        self.hidden_size = hidden_size
        self.dtype = dtype

        def par(shape):
            return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

        self.w_score = par((hidden_size, hidden_size))  # W
        self.v_score = par((hidden_size, input_size))   # V
        self.b_score = par(hidden_size)                 # b
        self.vec_score = par(hidden_size)               # v
        self.w_ih = par((4 * hidden_size, NUM_CLASSES + input_size))
        self.w_hh = par((4 * hidden_size, hidden_size))
        self.b_lstm = par(4 * hidden_size)
        self.w_out = par((NUM_CLASSES, hidden_size))
        self.b_out = par(NUM_CLASSES)

    def params(self):
        n = self.name
        return {
            f"{n}.w_score": self.w_score,
            f"{n}.v_score": self.v_score,
            f"{n}.b_score": self.b_score,
            f"{n}.vec_score": self.vec_score,
            f"{n}.w_ih": self.w_ih,
            f"{n}.w_hh": self.w_hh,
            f"{n}.b_lstm": self.b_lstm,
            f"{n}.w_out": self.w_out,
            f"{n}.b_out": self.b_out,
        }

    def param_element_count(self):
        return sum(int(p.size) for p in self.params().values())

    def init_state(self, batch):
        h = Tensor(np.zeros((batch, self.hidden_size), dtype=self.dtype))
        c = Tensor(np.zeros((batch, self.hidden_size), dtype=self.dtype))
        return h, c

    def start_onehot(self, batch):
        """The step-0 previous symbol: the special class acts as GO."""
        y0 = np.zeros((batch, NUM_CLASSES), dtype=self.dtype)
        y0[:, SPECIAL_INDEX] = 1.0
        return Tensor(y0)

    def step(self, y_prev: Tensor, state, hseq: Tensor):
        """One decode step.

        y_prev: (B, 37) one-hot; state: (h, c) each (B, 256); hseq: (B, I, D).
        Returns (logits (B, 37), new state, alpha (B, I)).
        """
        h_prev, c_prev = state
        batch, nsteps, _ = hseq.shape
        # (B, I, A) scores after tanh; contract with v.
        wh = matmul(h_prev, self.w_score.T)                      # (B, A)
        vh = matmul(hseq.reshape(batch * nsteps, -1), self.v_score.T)
        vh = vh.reshape(batch, nsteps, -1)
        act = tanh(vh + wh.reshape(batch, 1, -1) + self.b_score)
        scores = (act * self.vec_score).sum(axis=2)              # (B, I)
        alpha = softmax(scores, axis=1)
        context = (alpha.reshape(batch, nsteps, 1) * hseq).sum(axis=1)  # (B, D)
        x = concat([y_prev, context], axis=1)
        h, c = lstm_cell(x, h_prev, c_prev, self.w_ih, self.w_hh, self.b_lstm)
        logits = matmul(h, self.w_out.T) + self.b_out
        return logits, (h, c), alpha


def attn_loss_batch(hseq: Tensor, labels, decoder: AttnDecoder) -> Tensor:
    """Teacher-forced NLL over a batch of index-array labels, averaged over the batch.

    Each sample contributes cross-entropy at the |Y|+1 steps through its EOS;
    shorter samples are masked out of later steps.
    """
    batch = hseq.shape[0]
    if len(labels) != batch:
        raise ShapeError("label count does not match batch size")
    labels = [np.asarray(lbl, dtype=np.int64) for lbl in labels]
    lengths = np.array([len(lbl) for lbl in labels])
    tmax = int(lengths.max()) + 1  # through EOS
    targets = np.full((batch, tmax), SPECIAL_INDEX, dtype=np.int64)
    for b, lbl in enumerate(labels):
        targets[b, :len(lbl)] = lbl

    state = decoder.init_state(batch)
    y_prev = decoder.start_onehot(batch)
    total = None
    for t in range(tmax):
        logits, state, _ = decoder.step(y_prev, state, hseq)
        logp = log_softmax(logits, axis=1)
        picked = logp[np.arange(batch), targets[:, t]]
        mask = (t <= lengths).astype(hseq.dtype)  # step len(Y) emits EOS
        term = -(picked * Tensor(mask)).sum()
        total = term if total is None else total + term
        onehot = np.zeros((batch, NUM_CLASSES), dtype=hseq.dtype)
        onehot[np.arange(batch), targets[:, t]] = 1.0
        y_prev = Tensor(onehot)
    return total * (1.0 / batch)


def attn_greedy_decode_batch(hseq: Tensor, decoder: AttnDecoder, max_len: int = 25):
    """Batched greedy decoding; returns a list of strings."""
    batch = hseq.shape[0]
    state = decoder.init_state(batch)
    y_prev = decoder.start_onehot(batch)
    done = np.zeros(batch, dtype=bool)
    seqs = [[] for _ in range(batch)]
    for _ in range(max_len):
        logits, state, _ = decoder.step(y_prev, state, hseq)
        idx = np.argmax(logits.data, axis=1)
        for b in range(batch):
            if done[b]:
                continue
            if idx[b] == SPECIAL_INDEX:
                done[b] = True
            else:
                seqs[b].append(int(idx[b]))
        if done.all():
            break
        onehot = np.zeros((batch, NUM_CLASSES), dtype=hseq.dtype)
        onehot[np.arange(batch), idx] = 1.0
        y_prev = Tensor(onehot)
    return [CODEC.decode(s) for s in seqs]
