"""Prediction stage: CTC and attention decoders over 37 classes.

The label codec covers the 36 case-folded alphanumerics; index 36 is the
special class — blank for CTC, end-of-sequence for attention. CTC marginal
probabilities are computed by the forward (alpha) dynamic program over the
blank-interleaved label, in log space, as one graph node whose backward is the
closed-form alpha-beta occupation posterior, so ``ctc_loss_batch``
backpropagates into the frame log-probabilities. Each head's loss ends in one
negative log-likelihood node, ``_nll``. The attention math is one NumPy step,
``AttnDecoder.step``: greedy decoding calls it on arrays, and the teacher-forced
loss runs it inside one graph node, ``AttnDecoder.forward``. Its LSTM core is
``tensor.lstm_cell`` on a gate-major view in the weights' gate order, and its
BPTT ``lstm_cell_backward``: the cell the Seq stage's ``bilstm`` runs. Decoding is greedy for both heads; no beam search.
"""

from __future__ import annotations

import itertools

import numpy as np

from .tensor import ShapeError, Tensor, log_softmax, lstm_cell, lstm_cell_backward

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
# The blank is the last class of the posteriors: index 36 of the 37 classes, or
# C-1 of a restricted alphabet of C classes.


def _extended_label(y: np.ndarray, blank: int) -> np.ndarray:
    """Blank-interleave: -, y1, -, y2, ..., yL, - (length 2L+1)."""
    z = np.full(2 * len(y) + 1, blank, dtype=np.int64)
    z[1::2] = y
    return z


def ctc_log_prob_batch(h: Tensor, labels) -> Tensor:
    """Batched CTC log-likelihood: (B, T, C) log-probs, list of B index arrays -> (B,).

    One graph node. The forward runs the alpha recursion over the
    blank-interleaved labels, padded to a common length, in log space; it also
    runs the beta recursion, so that the backward is the closed-form occupation
    posterior (Graves et al. 2006): d log p / d h[t, k] is the sum, over the
    label slots s holding class k, of exp(alpha_t(s) + beta_t(s) - log p), with
    beta_t(s) the log-probability of frames t+1.. from slot s at frame t.
    Infeasible rows (log p = -inf) and the padding beyond each label get an
    exactly-zero gradient. Everything computes in ``h``'s dtype.
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
    skip = np.full((batch, smax), NEG_INF, dtype=dtype)   # 0 where the s-2 -> s transition is legal
    final = np.full((batch, smax), NEG_INF, dtype=dtype)  # 0 at the two terminal slots
    for b, zb in enumerate(exts):
        s = len(zb)
        z[b, :s] = zb
        valid[b, :s] = 0.0
        for j in range(2, s):
            if zb[j] != blank and zb[j] != zb[j - 2]:
                skip[b, j] = 0.0
        final[b, max(s - 2, 0):s] = 0.0
    skip_next = np.full((batch, smax), NEG_INF, dtype=dtype)  # legality of s -> s+2
    skip_next[:, :-2] = skip[:, 2:]

    # Slot s lives in column s + 2 of a (T, B, S + 4) buffer whose two columns
    # of -inf padding on each side stand for the slots s-2, s-1, s+1, s+2 that
    # do not exist; np.logaddexp keeps -inf exact without warnings. It warns on
    # NaN, so a row with a NaN emission runs on -inf and reports NaN at the end.
    rows = np.arange(batch)[:, None]
    emissions = h.data.transpose(1, 0, 2)[:, rows, z] + valid
    nan_rows = np.isnan(emissions).any(axis=(0, 2))
    emit = np.full((steps, batch, smax + 4), NEG_INF, dtype=dtype)
    emit[:, :, 2:-2] = np.where(nan_rows[:, None], NEG_INF, emissions)
    alpha = np.full_like(emit, NEG_INF)
    alpha[0, :, 2:4] = emit[0, :, 2:4]  # only the first blank and first symbol start
    for t in range(1, steps):
        a = alpha[t - 1]
        trans = np.logaddexp(np.logaddexp(a[:, 2:-2], a[:, 1:-3]), a[:, :-4] + skip)
        alpha[t, :, 2:-2] = trans + emit[t, :, 2:-2]
    beta = np.full_like(emit, NEG_INF)
    beta[-1, :, 2:-2] = final
    for t in range(steps - 2, -1, -1):
        n = beta[t + 1] + emit[t + 1]
        beta[t, :, 2:-2] = np.logaddexp(np.logaddexp(n[:, 2:-2], n[:, 3:-1]), n[:, 4:] + skip_next)
    logp = np.logaddexp.reduce(alpha[-1, :, 2:-2] + final, axis=1)
    logp[nan_rows] = np.nan

    def backward(g):
        # An infeasible row has alpha + beta = -inf everywhere; shifting it by
        # +inf instead of its log p keeps exp() at an exact 0 without a NaN.
        shift = np.where(logp == NEG_INF, np.inf, logp)[:, None]
        post = np.exp(alpha[:, :, 2:-2] + beta[:, :, 2:-2] - shift)  # (T, B, S)
        onehot = np.zeros((batch, smax, classes), dtype=dtype)
        onehot[rows, np.arange(smax), z] = 1.0
        return (np.matmul(post.transpose(1, 0, 2), onehot) * g[:, None, None],)

    return Tensor._make(logp, (h,), backward)


def ctc_loss_batch(h: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood over a batch.

    A label that cannot fit into the T frames (log-prob -inf) contributes zero
    loss and zero gradient; the mean is still taken over the whole batch. A NaN
    log-prob is not masked.
    """
    logp = ctc_log_prob_batch(h, labels)
    return _nll(logp, np.flatnonzero(logp.data != NEG_INF), 1, len(labels))


def _nll(logp: Tensor, key, weight, count) -> Tensor:
    """-sum(logp[key] * weight) / count as one graph node; `key` picks each entry at most
    once, so the backward writes -(g / count) * weight into zeros at `key`."""
    shape, dtype = logp.shape, logp.dtype
    scale = dtype.type(1 / count)

    def backward(g):
        full = np.zeros(shape, dtype)
        full[key] = -(g * scale) * weight
        return (full,)

    return Tensor._make(-(logp.data[key] * weight).sum() * scale, (logp,), backward)


def ctc_greedy_decode(h) -> str:
    """Per-frame argmax over 37-class posteriors (first-index tie-break), then collapse."""
    h = np.asarray(h)
    if h.ndim != 2:
        raise ShapeError(f"expected (T, C) posteriors, got {h.shape}")
    return collapse(np.argmax(h, axis=1))


# -- attention decoder --------------------------------------------------------------


class AttnDecoder:
    """Content-based attention decoder with a 256-state LSTM core.

    Scores e_ti = v^T tanh(W s_{t-1} + V h_i + b); the context is the
    alpha-weighted sum of H; the LSTM input is the previous symbol's column of
    the input weights plus the context; the output head is a 37-way softmax.
    Parameters are created in `store`, in its dtype: weights and the score vector v
    for its He draw, biases zero except the LSTM forget-gate slice, which starts at 1.
    """

    def __init__(self, store, input_size=256, hidden_size=256):
        self.hidden_size = hidden_size
        self.w_score = store.new("attn.w_score", (hidden_size, hidden_size))  # W
        self.v_score = store.new("attn.v_score", (hidden_size, input_size))   # V
        self.b_score = store.new("attn.b_score", (hidden_size,))              # b
        self.vec_score = store.new("attn.vec_score", (hidden_size,), he=True)  # v
        self.w_ih = store.new("attn.w_ih", (4 * hidden_size, NUM_CLASSES + input_size))
        self.w_hh = store.new("attn.w_hh", (4 * hidden_size, hidden_size))
        self.b_lstm = store.new("attn.b_lstm", (4 * hidden_size,))
        self.b_lstm.data[hidden_size:2 * hidden_size] = 1.0  # forget gate starts open
        self.w_out = store.new("attn.w_out", (NUM_CLASSES, hidden_size))
        self.b_out = store.new("attn.b_out", (NUM_CLASSES,))

    def keys(self, hseq):
        """V h_i + b of each encoder state in (B, I, D) `hseq`: (B, I, H), the same at every step."""
        return hseq @ self.v_score.data.T + self.b_score.data

    def step(self, y_prev, h, c, hseq, keys):
        """One decode step on arrays: previous symbols `y_prev` (B,), GO being the special
        class; state `h`, `c` (B, H); encoder states `hseq` (B, I, D) and their `keys`.
        Returns logits (B, 37), h, c and, for the backward of `forward`, the tanh scores, alpha,
        the context, the (B, 4H) gate activations and tanh(c). Callers wrap their step loop in
        ``np.errstate(over="ignore")``, as ``lstm_cell`` asks."""
        hid = self.hidden_size
        act = np.tanh(keys + (h @ self.w_score.data.T)[:, None])
        scores = act @ self.vec_score.data
        alpha = np.exp(scores - scores.max(axis=1, keepdims=True))
        alpha /= alpha.sum(axis=1, keepdims=True)
        context = (alpha[:, None] @ hseq)[:, 0]
        pre = self.w_ih.data[:, y_prev].T + context @ self.w_ih.data[:, NUM_CLASSES:].T
        pre += h @ self.w_hh.data.T + self.b_lstm.data
        c1, tanh_c, h = np.empty((3, *c.shape), dtype=c.dtype)
        lstm_cell(pre.reshape(-1, 4, hid).transpose(1, 0, 2), c, c1, h, tanh_c)
        return h @ self.w_out.data.T + self.b_out.data, h, c1, (act, alpha, context, pre, tanh_c)

    def forward(self, hseq: Tensor, targets) -> Tensor:
        """Teacher-forced logits (B, T, 37) for (B, T) `targets`, as one graph node; step t
        reads targets[:, t - 1] as its previous symbol, GO at t = 0. The backward runs BPTT
        through the LSTM core, the context and the score path, then forms each weight
        gradient with one GEMM over all T*B rows, as ``bilstm`` does."""
        enc = hseq.data
        batch, _, width = enc.shape
        steps, hid, rows = targets.shape[1], self.hidden_size, targets.size
        prev = np.concatenate([np.full((batch, 1), SPECIAL_INDEX), targets[:, :-1]], axis=1).T
        keys = self.keys(enc)
        hs, cs = np.zeros((2, steps + 1, batch, hid), dtype=keys.dtype)  # [t + 1]: after step t
        logits, saved = np.empty((steps, batch, NUM_CLASSES), dtype=keys.dtype), []
        with np.errstate(over="ignore"):
            for t in range(steps):
                logits[t], hs[t + 1], cs[t + 1], s = self.step(prev[t], hs[t], cs[t], enc, keys)
                saved.append(s)
        acts, alphas, contexts, gates, tanh_cs = (np.stack(a) for a in zip(*saved))
        w_score, v_score, vec_score, w_ih, w_hh, w_out = (p.data for p in (
            self.w_score, self.v_score, self.vec_score, self.w_ih, self.w_hh, self.w_out))

        def backward(g):
            g = g.transpose(1, 0, 2)  # time-major, (T, B, 37)
            w_rec = np.concatenate([w_ih[:, NUM_CLASSES:], w_hh], axis=1)
            dh_out = g @ w_out
            dgates, dctx, dscores = np.empty_like(gates), np.empty_like(contexts), np.empty_like(alphas)
            dwh, dkeys = np.empty_like(hs[1:]), np.zeros_like(keys)
            dh, dc = np.zeros_like(hs[:2])
            a4, d4 = (a.reshape(steps, batch, 4, hid).transpose(0, 2, 1, 3) for a in (gates, dgates))
            for t in range(steps - 1, -1, -1):
                dh += dh_out[t]
                lstm_cell_backward(a4[t], cs[t], tanh_cs[t], dh, dc, d4[t])
                dctx[t], dh = np.split(dgates[t] @ w_rec, [width], axis=1)
                # context = alpha H, alpha = softmax(act v), act = tanh(keys + W h_prev)
                dalpha = (enc @ dctx[t][:, :, None])[:, :, 0]
                dscores[t] = alphas[t] * (dalpha - (dalpha * alphas[t]).sum(axis=1, keepdims=True))
                dpre = dscores[t][:, :, None] * vec_score * (1 - acts[t] ** 2)
                dkeys += dpre
                dwh[t] = dpre.sum(axis=1)
                dh += dwh[t] @ w_score
            d2, h2, k2 = dgates.reshape(rows, -1), hs[:-1].reshape(rows, -1), dkeys.reshape(-1, hid)
            x2 = np.concatenate([np.eye(NUM_CLASSES, dtype=d2.dtype)[prev.reshape(-1)],
                                 contexts.reshape(rows, -1)], axis=1)
            genc = dkeys @ v_score + alphas.transpose(1, 2, 0) @ dctx.transpose(1, 0, 2)
            return (genc, dwh.reshape(rows, -1).T @ h2, k2.T @ enc.reshape(-1, width),
                    k2.sum(axis=0), dscores.reshape(-1) @ acts.reshape(-1, hid),
                    d2.T @ x2, d2.T @ h2, d2.sum(axis=0),
                    g.reshape(rows, -1).T @ hs[1:].reshape(rows, -1), g.sum(axis=(0, 1)))

        parents = (hseq, self.w_score, self.v_score, self.b_score, self.vec_score,
                   self.w_ih, self.w_hh, self.b_lstm, self.w_out, self.b_out)
        return Tensor._make(np.ascontiguousarray(logits.transpose(1, 0, 2)), parents, backward)


def attn_loss_batch(hseq: Tensor, labels, decoder: AttnDecoder) -> Tensor:
    """Teacher-forced NLL over a batch of index-array labels, averaged over the batch.

    Each sample contributes cross-entropy at the |Y|+1 steps through its EOS;
    shorter samples are masked out of later steps.
    """
    batch = hseq.shape[0]
    if len(labels) != batch:
        raise ShapeError("label count does not match batch size")
    lengths = np.array([len(lbl) for lbl in labels])
    tmax = int(lengths.max()) + 1  # through EOS
    targets = np.full((batch, tmax), SPECIAL_INDEX, dtype=np.int64)
    for b, lbl in enumerate(labels):
        targets[b, :len(lbl)] = lbl

    logp = log_softmax(decoder.forward(hseq, targets), axis=2)
    steps = np.arange(tmax)
    mask = (steps <= lengths[:, None]).astype(hseq.dtype)  # step len(Y) emits EOS
    return _nll(logp, (np.arange(batch)[:, None], steps, targets), mask, batch)


def attn_greedy_decode_batch(hseq: Tensor, decoder: AttnDecoder, max_len: int = 25):
    """Batched greedy decoding by ``decoder.step`` on arrays, no graph; returns a list of strings."""
    enc, batch = hseq.data, hseq.shape[0]
    keys = decoder.keys(enc)
    h = c = np.zeros((batch, decoder.hidden_size), dtype=decoder.b_out.dtype)
    y = np.full(batch, SPECIAL_INDEX)
    done = np.zeros(batch, dtype=bool)
    picks = []
    with np.errstate(over="ignore"):
        for _ in range(max_len):
            logits, h, c, _ = decoder.step(y, h, c, enc, keys)
            y = np.argmax(logits, axis=1)
            picks.append(y)
            done |= y == SPECIAL_INDEX
            if done.all():
                break
    rows = np.array(picks, dtype=np.int64).reshape(-1, batch).T
    return [CODEC.decode(itertools.takewhile(lambda i: i != SPECIAL_INDEX, row)) for row in rows]
