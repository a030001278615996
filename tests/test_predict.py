import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strforge.predict import (
    ALPHABET,
    AttnDecoder,
    CODEC,
    CodecError,
    NUM_CLASSES,
    SPECIAL_INDEX,
    attn_greedy_decode_batch,
    attn_loss_batch,
    collapse,
    ctc_greedy_decode,
    ctc_log_prob_batch,
    ctc_loss_batch,
)
from strforge.tensor import ParamStore, Tensor, grad_check, log_softmax
from ctc_oracle import ctc_brute_force, encode_for
from test_tensor import lstm_cell_reference


def log_uniform(t, c):
    return np.log(np.full((t, c), 1.0 / c))


def rand_posterior(t, c, seed):
    logits = np.random.default_rng(seed).normal(size=(t, c))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def ctc_log_prob(h, y):
    """log p(y | h) for one (T, C) posterior, run as a batch of one."""
    h = np.asarray(h)
    return ctc_log_prob_batch(Tensor(h[None]), [encode_for(h.shape[1], y)])[0]


class TestCodec:
    def test_class_count(self):
        assert CODEC.num_classes == NUM_CLASSES == 37
        assert len(ALPHABET) == 36 and SPECIAL_INDEX == 36

    @given(st.text(alphabet=ALPHABET, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_encode_decode_identity(self, s):
        assert CODEC.decode(CODEC.encode(s)) == s

    def test_out_of_alphabet_rejected(self):
        with pytest.raises(CodecError):
            CODEC.encode("Hello")  # uppercase is outside the codec
        with pytest.raises(CodecError):
            CODEC.decode([36])


class TestCollapse:
    def test_reference_fixture(self):
        assert collapse("aaa--b-b-c-ccc-c--") == "abbccc"

    def test_trivials(self):
        assert collapse("") == ""
        assert collapse("-a-") == "a"

    @given(st.lists(st.integers(0, 36), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_no_adjacent_repeats_or_blanks(self, seq):
        out = collapse(seq)
        assert SPECIAL_INDEX not in CODEC.encode(out)
        # doubling every frame never changes the collapse
        doubled = [i for i in seq for _ in range(2)]
        assert collapse(doubled) == out


class TestCtc:
    def test_single_frame_half(self):
        assert np.isclose(np.exp(ctc_log_prob(log_uniform(1, 2), "a").item()), 0.5)

    def test_two_frame_three_ninths(self):
        p = np.exp(ctc_log_prob(log_uniform(2, 3), "a").item())
        assert np.isclose(p, 3.0 / 9.0)

    def test_repeat_infeasible_at_t2(self):
        assert ctc_log_prob(log_uniform(2, 3), "aa").item() == -np.inf

    def test_oracle_equivalence_200_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            t = int(rng.integers(1, 7))
            c = int(rng.integers(2, 5))
            h = rand_posterior(t, c, int(rng.integers(1 << 30)))
            y = "".join(rng.choice(list("abc"[:c - 1]))
                        for _ in range(int(rng.integers(0, 5))))
            bf = ctc_brute_force(h, y)
            mine = np.exp(ctc_log_prob(h, y).item())
            if bf == 0.0:
                assert mine == 0.0
            else:
                assert abs(mine - bf) / bf < 1e-9

    def test_total_probability_sums_to_one(self):
        import itertools
        h = rand_posterior(5, 3, 11)
        total = sum(np.exp(ctc_log_prob(h, "".join(w)).item())
                    for n in range(6)
                    for w in itertools.product("ab", repeat=n))
        assert abs(total - 1.0) < 1e-9

    def test_out_of_alphabet_label(self):
        with pytest.raises(CodecError):
            ctc_log_prob(log_uniform(3, 37), "A!")
        with pytest.raises(CodecError):
            ctc_log_prob(log_uniform(3, 3), "c")  # restricted alphabet "ab"

    def test_loss_is_negative_log_prob(self):
        h = np.stack([rand_posterior(4, 37, 12), rand_posterior(4, 37, 13)])
        labels = [CODEC.encode("ab"), CODEC.encode("c")]
        assert np.isclose(ctc_loss_batch(Tensor(h[:1]), labels[:1]).item(),
                          -ctc_log_prob(h[0], "ab").item())
        assert np.isclose(ctc_loss_batch(Tensor(h), labels).item(),
                          -ctc_log_prob_batch(Tensor(h), labels).data.mean())

    def test_loss_gradient(self):
        logits = Tensor(np.random.default_rng(13).normal(size=(1, 5, 37)),
                        requires_grad=True)
        res = grad_check(lambda x: ctc_loss_batch(log_softmax(x, axis=2),
                                                  [CODEC.encode("a1b")]),
                         [logits])
        assert res["passed"], res

    def test_batch_matches_singles(self):
        # each row of a mixed-length (padded) batch equals its batch-of-one run
        data = np.stack([rand_posterior(5, 37, i) for i in range(3)])
        labels = ["ab", "a", "0z1"]
        batched = ctc_log_prob_batch(Tensor(data),
                                     [CODEC.encode(s) for s in labels])
        for i, s in enumerate(labels):
            assert np.isclose(batched.data[i],
                              ctc_log_prob(data[i], s).item(), atol=1e-12)

    @given(st.integers(1, 8), st.lists(st.text(alphabet="ab", max_size=6),
                                       min_size=1, max_size=4),
           st.integers(0, 1 << 16))
    @settings(max_examples=60, deadline=None)
    def test_infeasible_labels_get_zero_loss(self, t, labels, seed):
        # A label needs L + (adjacent repeats) frames; one that does not fit
        # gets log-prob -inf, and the batch loss drops it but keeps dividing by B.
        h = Tensor(np.stack([rand_posterior(t, 3, seed + i) for i in range(len(labels))]),
                   requires_grad=True)
        encoded = [encode_for(3, y) for y in labels]
        logp = ctc_log_prob_batch(h, encoded).data
        for y, lp in zip(labels, logp):
            repeats = sum(a == b for a, b in zip(y, y[1:]))
            assert (lp == -np.inf) == (len(y) + repeats > t)
        loss = ctc_loss_batch(h, encoded)
        feasible = logp[logp != -np.inf]
        assert np.isclose(loss.item(), -feasible.sum() / len(labels), rtol=1e-12, atol=1e-12)
        loss.backward()
        assert np.all(np.isfinite(h.grad))
        assert np.all(h.grad[logp == -np.inf] == 0.0)

    def test_closed_form_gradient_on_mixed_batch(self):
        # one feasible label, one empty label, and "aa", which needs 3 frames of 2
        labels = [encode_for(3, y) for y in ("ab", "", "aa")]
        logits = np.random.default_rng(14).normal(size=(3, 2, 3))
        h = Tensor(log_softmax(Tensor(logits), axis=2).data, requires_grad=True)
        logp = ctc_log_prob_batch(h, labels)
        assert np.isfinite(logp.data[:2]).all() and logp.data[2] == -np.inf
        logp.backward(np.ones(3))
        # occupation probabilities: at every frame they sum to 1 over classes
        assert np.allclose(h.grad[:2].sum(axis=2), 1.0, rtol=0, atol=1e-10)
        assert np.all(h.grad[2] == 0.0)
        x = Tensor(logits, requires_grad=True)
        res = grad_check(lambda z: ctc_loss_batch(log_softmax(z, axis=2), labels), [x])
        assert res["passed"], res

    def test_brute_force_guards(self):
        with pytest.raises(ValueError):
            ctc_brute_force(log_uniform(9, 2), "a")
        with pytest.raises(ValueError):
            ctc_brute_force(log_uniform(2, 5), "a")


class TestGreedy:
    def test_peaked_frames(self):
        h = np.full((4, 37), -10.0)
        for t, c in enumerate([10, 10, 36, 11]):
            h[t, c] = 0.0
        assert ctc_greedy_decode(h) == "ab"

    def test_all_blank(self):
        h = np.full((5, 37), -10.0)
        h[:, 36] = 0.0
        assert ctc_greedy_decode(h) == ""

    def test_matches_argmax_collapse_oracle(self):
        h = rand_posterior(5, 37, 15)
        pi = np.argmax(h, axis=1)
        assert ctc_greedy_decode(h) == collapse(pi)

    def test_shift_invariance(self):
        h = rand_posterior(6, 37, 16)
        assert ctc_greedy_decode(h) == ctc_greedy_decode(h + 3.7)


def filled_decoder(seed, input_size=6, hidden=5):
    store = ParamStore(np.float64)
    dec = AttnDecoder(store, input_size=input_size, hidden_size=hidden)
    rng = np.random.default_rng(seed)
    for p in store.tensors.values():
        p.data[...] = rng.normal(0, 0.4, p.shape)
    return dec


def zero_state(dec):
    return np.zeros((1, dec.hidden_size)), np.zeros((1, dec.hidden_size))


def one_step(dec, y_prev, state, hseq):
    """AttnDecoder.step for a single (I, D) sequence, as a batch of 1: (logits, (h, c), alpha)."""
    hseq = np.asarray(hseq)[None]
    logits, h, c, (_, alpha, *_) = dec.step(np.array([y_prev]), *state, hseq, dec.keys(hseq))
    return logits, (h, c), alpha


class TestAttention:
    def test_singleton_alpha(self):
        dec = filled_decoder(1)
        _, _, alpha = one_step(dec, 3, zero_state(dec),
                               np.random.default_rng(2).normal(size=(1, 6)))
        assert np.allclose(alpha, [[1.0]])

    def test_zero_v_uniform_alpha(self):
        dec = filled_decoder(3)
        dec.vec_score.data[...] = 0.0
        _, _, alpha = one_step(dec, 0, zero_state(dec),
                               np.random.default_rng(4).normal(size=(4, 6)))
        assert np.allclose(alpha, 0.25)

    def test_hand_composed_oracle(self):
        dec = filled_decoder(5)
        rng = np.random.default_rng(6)
        hseq = rng.normal(size=(3, 6))
        hp, cp = rng.normal(size=(1, 5)), rng.normal(size=(1, 5))
        logits, (h, c), alpha = one_step(dec, 7, (hp, cp), hseq)
        e = np.array([dec.vec_score.data
                      @ np.tanh(dec.w_score.data @ hp[0]
                                + dec.v_score.data @ hseq[i] + dec.b_score.data)
                      for i in range(3)])
        a = np.exp(e - e.max())
        a /= a.sum()
        ctx = (a[:, None] * hseq).sum(axis=0)
        onehot = np.zeros(37)
        onehot[7] = 1.0
        (h_ref,), (c_ref,) = lstm_cell_reference(np.concatenate([onehot, ctx])[None], hp, cp,
                                                 dec.w_ih.data, dec.w_hh.data, dec.b_lstm.data)
        logits_ref = dec.w_out.data @ h_ref + dec.b_out.data
        probs = np.exp(logits_ref - logits_ref.max())
        probs /= probs.sum()
        assert np.allclose(alpha[0], a)
        assert np.allclose(c[0], c_ref)
        assert np.allclose(h[0], h_ref)
        assert np.allclose(logits[0], logits_ref)
        soft = np.exp(logits[0] - logits[0].max())
        assert np.allclose(soft / soft.sum(), probs)

    @given(st.integers(1, 6), st.integers(0, 30))
    @settings(max_examples=20, deadline=None)
    def test_alpha_is_distribution(self, nsteps, seed):
        dec = filled_decoder(seed)
        hseq = np.random.default_rng(seed + 99).normal(size=(nsteps, 6))
        _, _, alpha = one_step(dec, 0, zero_state(dec), hseq)
        assert np.all(alpha >= 0)
        assert abs(alpha.sum() - 1.0) < 1e-9

    def test_eos_bias_empty_decode(self):
        dec = AttnDecoder(ParamStore(np.float64), input_size=6, hidden_size=5)
        dec.b_out.data[SPECIAL_INDEX] = 10.0
        h = Tensor(np.random.default_rng(8).normal(size=(1, 4, 6)))
        assert attn_greedy_decode_batch(h, dec) == [""]

    def test_max_len_zero(self):
        dec = filled_decoder(9)
        h = Tensor(np.random.default_rng(10).normal(size=(1, 4, 6)))
        assert attn_greedy_decode_batch(h, dec, max_len=0) == [""]

    def test_greedy_matches_stepwise_trace(self):
        dec = filled_decoder(11)
        h = np.random.default_rng(12).normal(size=(4, 6))
        out = []
        state = zero_state(dec)
        prev = SPECIAL_INDEX
        for _ in range(25):
            logits, state, _ = one_step(dec, prev, state, h)
            idx = int(np.argmax(logits[0]))
            if idx == SPECIAL_INDEX:
                break
            out.append(ALPHABET[idx])
            prev = idx
        assert attn_greedy_decode_batch(Tensor(h[None]), dec) == ["".join(out)]

    def test_loss_gradient(self):
        # over the encoder states and every decoder parameter, through the one
        # decoder node; labels of lengths 1, 3 and 5 leave masked steps in the batch
        dec = filled_decoder(13)
        params = [p for p in vars(dec).values() if isinstance(p, Tensor)]
        h = Tensor(np.random.default_rng(14).normal(size=(3, 4, 6)), requires_grad=True)
        labels = [CODEC.encode(w) for w in ("a", "b7x", "q0z3k")]
        res = grad_check(lambda x, *ps: attn_loss_batch(x, labels, dec), [h, *params])
        assert res["passed"], res

    def test_batch_loss_matches_singles(self):
        dec = filled_decoder(15)
        rng = np.random.default_rng(16)
        hb = Tensor(rng.normal(size=(2, 4, 6)))
        labels = [CODEC.encode("ab"), CODEC.encode("xyz9")]
        mean = attn_loss_batch(hb, labels, dec)
        singles = [attn_loss_batch(Tensor(hb.data[i:i + 1]), [labels[i]], dec).item()
                   for i in range(2)]
        assert np.isclose(mean.item(), sum(singles) / 2)
        decs = attn_greedy_decode_batch(hb, dec, max_len=5)
        assert decs == [attn_greedy_decode_batch(Tensor(hb.data[i:i + 1]), dec,
                                                 max_len=5)[0]
                        for i in range(2)]
