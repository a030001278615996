"""Tests for configuration parsing, assembly, initialization, and training."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strforge.pipeline import (
    AdaDeltaState,
    ConfigError,
    Model,
    PipelineConfig,
    PRESETS,
    TrainRecipe,
    adadelta_step,
    all_combinations,
    assemble,
    clip_gradients,
    fraction_sweep,
    train,
    validate,
    _training_indices,
)
from strforge import checkpoint as ckpt
from strforge import tensor as tc
from strforge.predict import AttnDecoder
from strforge.seqmodel import BiLSTMLayer
from strforge.tensor import ParamStore, StateError, Tensor, no_grad
from strforge.toydata import ToyDataset, synth_toydata


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------


def test_config_from_string_roundtrip():
    cfg = PipelineConfig.from_string("TPS-ResNet-BiLSTM-Attn")
    assert (cfg.trans, cfg.feat, cfg.seq, cfg.pred) == (
        "TPS", "ResNet", "BiLSTM", "Attn")
    assert cfg.name == "TPS-ResNet-BiLSTM-Attn"


def test_config_case_insensitive():
    cfg = PipelineConfig("tps", "resnet", "bilstm", "attn")
    assert cfg.name == "TPS-ResNet-BiLSTM-Attn"


def test_config_invalid_option_raises():
    with pytest.raises(ConfigError):
        PipelineConfig("TPS", "DenseNet", "BiLSTM", "Attn")
    with pytest.raises(ConfigError):
        PipelineConfig.from_string("TPS-VGG-CTC")  # wrong arity


@pytest.mark.parametrize("scale", [0.0, -0.125, 1.5, 3.0, float("nan")])
def test_config_scale_outside_unit_interval_raises(scale):
    with pytest.raises(ConfigError, match="scale"):
        PipelineConfig.from_string("CRNN", scale=scale)


def test_presets():
    assert PRESETS["CRNN"].name == "None-VGG-BiLSTM-CTC"
    assert PRESETS["RARE"].name == "TPS-VGG-BiLSTM-Attn"
    assert PRESETS["GRCNN"].name == "None-RCNN-BiLSTM-CTC"
    assert PRESETS["STAR-Net"].name == "TPS-ResNet-BiLSTM-CTC"
    assert PRESETS["R2AM"].name == "None-RCNN-None-Attn"
    assert PRESETS["Rosetta"].name == "None-ResNet-None-CTC"
    assert PipelineConfig.from_string("CRNN").name == "None-VGG-BiLSTM-CTC"
    assert PipelineConfig.from_string("best").name == "TPS-ResNet-BiLSTM-Attn"


def test_all_combinations_distinct_24():
    combos = all_combinations()
    names = [c.name for c in combos]
    assert len(names) == 24
    assert len(set(names)) == 24
    # 2 x 3 x 2 x 2 factorial structure
    assert sum(c.trans == "TPS" for c in combos) == 12
    assert sum(c.feat == "ResNet" for c in combos) == 8
    assert sum(c.pred == "Attn" for c in combos) == 12


# ---------------------------------------------------------------------------
# He initialization
# ---------------------------------------------------------------------------


def test_he_init_variance_statistical():
    # A (200, 512) weight gives 102,400 samples; sample variance of
    # N(0, 2/512) should land within 5% of the target.
    store = ParamStore(np.float64)
    w = store.new("layer.weight", (200, 512))
    store.initialize(seed=3)
    target = 2.0 / 512
    assert abs(np.var(w.data) - target) < 0.05 * target
    assert abs(np.mean(w.data)) < 0.005


def test_he_init_biases_zero_and_bn_gamma_one():
    model = assemble(PipelineConfig.from_string("CRNN", scale=0.125))
    params = model.params()
    assert np.all(params["feat.conv1.bias"].data == 0.0)
    assert np.all(params["feat.bn1.gamma"].data == 1.0)
    assert np.all(params["feat.bn1.beta"].data == 0.0)
    assert np.std(params["feat.conv1.weight"].data) > 0.0  # the weights were drawn


def test_he_init_lstm_forget_gate_bias():
    store = ParamStore(np.float64)
    layer = BiLSTMLayer(store, "seq.layer1", input_size=8, hidden_size=16, output_size=16)
    dec = AttnDecoder(store, input_size=16, hidden_size=16)
    store.initialize(seed=0)
    for b in (layer.fwd.bias, layer.bwd.bias, dec.b_lstm):
        assert b.shape == (4 * 16,)
        assert np.all(b.data[16:32] == 1.0)       # forget gate block
        assert np.all(b.data[:16] == 0.0)
        assert np.all(b.data[32:] == 0.0)
    # plain biases stay all-zero
    for b in (layer.fc_b, dec.b_out, dec.b_score):
        assert np.all(b.data == 0.0)
    params = assemble(PipelineConfig.from_string("CRNN", scale=0.125)).params()
    h = params["seq.layer1.fwd.bias"].shape[0] // 4
    assert np.all(params["seq.layer1.fwd.bias"].data[h:2 * h] == 1.0)
    assert np.all(params["pred.ctc.bias"].data == 0.0)


def test_he_init_deterministic():
    def draw(names):
        store = ParamStore(np.float64)
        shapes = {"a.weight": (16, 32), "b.weight": (8, 8, 3, 3), "c.vec": (12,)}
        for name in names:
            store.new(name, shapes[name], he=name == "c.vec")
        store.initialize(seed=11)
        return {k: v.data.copy() for k, v in store.tensors.items()}

    one, two = draw(["a.weight", "b.weight", "c.vec"]), draw(["c.vec", "b.weight", "a.weight"])
    for k in one:
        assert np.array_equal(one[k], two[k])
    assert np.std(one["c.vec"]) > 0.0


def test_he_init_keeps_unmarked_low_rank_tensors_at_their_creation_value():
    store = ParamStore(np.float64)
    scalar = store.new("x.scalar", (), fill=0.5)
    vec = store.new("x.vec", (6,), fill=0.25)
    marked = store.new("x.marked", (6,), fill=0.25, he=True)
    store.initialize(seed=0)
    assert scalar.data == 0.5
    assert np.all(vec.data == 0.25)
    assert not np.any(marked.data == 0.25)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_adadelta_first_step_closed_form():
    # With zero accumulators, dx1 = -sqrt(eps)/sqrt((1-rho) g^2 + eps) * g.
    rho, eps, g = 0.95, 1e-6, 1.0
    p = Tensor(np.array([0.0]), requires_grad=True)
    state = AdaDeltaState()
    adadelta_step({"p": p}, {"p": np.array([g])}, state, rho=rho, eps=eps)
    expected = -math.sqrt(eps) / math.sqrt((1 - rho) * g * g + eps) * g
    assert abs(p.data[0] - expected) < 1e-12


def test_adadelta_step_size_grows_with_constant_gradient():
    p = Tensor(np.array([0.0]), requires_grad=True)
    state = AdaDeltaState()
    adadelta_step({"p": p}, {"p": np.array([1.0])}, state)
    first = abs(p.data[0])
    prev = p.data[0]
    adadelta_step({"p": p}, {"p": np.array([1.0])}, state)
    second = abs(p.data[0] - prev)
    assert second > first > 0


def test_adadelta_matches_hand_recurrence():
    rho, eps = 0.9, 1e-6
    p = Tensor(np.array([5.0]), requires_grad=True)
    state = AdaDeltaState()
    x, eg2, edx2 = 5.0, 0.0, 0.0
    for g in [2.0, -1.0, 0.5, 3.0]:
        adadelta_step({"p": p}, {"p": np.array([g])}, state, rho=rho, eps=eps)
        eg2 = rho * eg2 + (1 - rho) * g * g
        dx = -math.sqrt(edx2 + eps) / math.sqrt(eg2 + eps) * g
        edx2 = rho * edx2 + (1 - rho) * dx * dx
        x += dx
        assert abs(p.data[0] - x) < 1e-10


def test_clip_gradients_global_norm():
    grads = {"a": np.array([6.0, 8.0])}  # norm 10
    norm = clip_gradients(grads, magnitude=5.0)
    assert abs(norm - 10.0) < 1e-12
    assert abs(np.linalg.norm(grads["a"]) - 5.0) < 1e-12
    # below threshold: untouched
    grads = {"a": np.array([3.0, 4.0])}
    clip_gradients(grads, magnitude=5.0)
    assert np.allclose(grads["a"], [3.0, 4.0])


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=8),
       st.floats(0.5, 10.0))
@settings(max_examples=50, deadline=None)
def test_clip_gradients_property(values, magnitude):
    g = np.array(values, dtype=np.float64)
    grads = {"g": g.copy()}
    pre = clip_gradients(grads, magnitude=magnitude)
    post = float(np.linalg.norm(grads["g"]))
    assert abs(pre - np.linalg.norm(g)) < 1e-9
    assert post <= magnitude + 1e-9
    if pre <= magnitude:
        assert np.array_equal(grads["g"], g)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assemble_from_name_and_decode_shapes():
    model = assemble("None-VGG-None-CTC", initialize=True)
    x = Tensor(np.zeros((2, 1, 32, 100), dtype=np.float32))
    lp = model.frame_log_probs(x, mode="train")
    assert lp.shape == (2, model.seq_len, 37)
    assert lp.dtype == np.float32
    # frame distributions normalize, to float32 rounding over 37 classes
    assert np.allclose(np.exp(lp.data).sum(axis=2), 1.0, atol=1e-5)


def test_ctc_decode_honours_max_len():
    model = assemble(PipelineConfig.from_string("None-ResNet-None-CTC", scale=0.125))
    assert model.seq_len == 26
    data = synth_toydata(8, max_len=3, seed=0)
    x = Tensor(data.images)
    model.loss(x, data.labels)  # a train-mode forward fills the BN statistics
    assert max(len(s) for s in model.decode(x)) > 3  # untrained: long outputs
    assert max(len(s) for s in model.decode(x, max_len=3)) <= 3


def test_assemble_all_24_at_small_scale():
    for cfg in all_combinations(scale=0.125):
        model = assemble(cfg)
        assert model.param_element_count() > 0


# SHA-256 of the checkpoint-format contract: for all 24 combinations at scale
# 1/8, the ordered (name, shape) list of params() and the ordered batch-norm
# state names. A change here breaks every saved checkpoint.
PARAMETER_LAYOUT_SHA256 = "dc33054e8739e041cf29364219c0a001296dee1dd5da63d44b0edaa2760e4fa0"


def test_parameter_layout_is_pinned():
    layout = []
    for cfg in all_combinations(scale=0.125):
        model = assemble(cfg, initialize=False)
        layout.append([cfg.name,
                       [[name, list(p.shape)] for name, p in model.params().items()],
                       list(model.store.bn_states)])
    digest = hashlib.sha256(json.dumps(layout).encode()).hexdigest()
    assert digest == PARAMETER_LAYOUT_SHA256


def test_single_step_decreases_loss_on_frozen_batch():
    # One AdaDelta step on a fixed batch lowers the training objective for
    # (at least) 10/10 seeds.
    data = synth_toydata(8, max_len=3, seed=5)
    x = Tensor(data.images)
    wins = 0
    for seed in range(10):
        cfg = PipelineConfig("None", "VGG", "None", "CTC", scale=0.125, seed=seed)
        model = assemble(cfg)
        params = model.params()
        state = AdaDeltaState()
        before = None
        for _ in range(2):
            loss = model.loss(x, data.labels)
            if before is None:
                before = loss.item()
            for p in params.values():
                p.zero_grad()
            loss.backward()
            grads = {k: p.grad for k, p in params.items() if p.grad is not None}
            clip_gradients(grads, 5.0)
            adadelta_step(params, grads, state)
        after = model.loss(x, data.labels).item()
        wins += after < before
    assert wins == 10


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    model = assemble("None-VGG-BiLSTM-CTC", initialize=True)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 32, 100)))
    ref = model.frame_log_probs(x, mode="train").data.copy()
    path = tmp_path / "model.bin"
    model.save(path, extra={"note": "test"})

    clone = assemble("None-VGG-BiLSTM-CTC", initialize=False)
    extra = clone.load(path)
    assert extra["note"] == "test"
    assert extra["config"] == "None-VGG-BiLSTM-CTC"
    out = clone.frame_log_probs(x, mode="train").data
    assert np.array_equal(out, ref)


def test_load_missing_params_raises(tmp_path):
    model = assemble("None-VGG-None-CTC", initialize=True)
    path = tmp_path / "m.bin"
    params, _ = model.store.state()
    params.pop("pred.ctc.bias")
    ckpt.save_params(path, params, extra={"config": "None-VGG-None-CTC", "scale": 1.0,
                                          "num_fiducials": 20})
    with pytest.raises(KeyError):
        assemble("None-VGG-None-CTC", initialize=False).load(path)


@pytest.mark.parametrize("fault", ["missing running mean", "reshaped running mean",
                                   "flattened weight"])
def test_load_rejects_a_missing_or_reshaped_state_array(tmp_path, fault):
    # every array of the state must be there, in its own shape; the model that
    # refuses a checkpoint keeps its state
    cfg = PipelineConfig("None", "VGG", "None", "CTC", scale=0.125)
    model = assemble(cfg)
    model.loss(Tensor(synth_toydata(4, max_len=3, seed=0).images), ["a"] * 4)  # fill BN
    arrays, initialized = model.store.state()
    name = next(k for k in arrays if k.endswith(".running_mean" if "mean" in fault
                                                 else ".weight"))
    if fault == "missing running mean":
        del arrays[name]
    else:
        arrays[name] = arrays[name].reshape(1, -1)
    path = tmp_path / "m.bin"
    ckpt.save_params(path, arrays, extra={"config": cfg.name, "scale": cfg.scale,
                                          "num_fiducials": cfg.num_fiducials,
                                          "bn_initialized": initialized})
    loader = assemble(cfg, initialize=False)
    before = loader.store.state()
    with pytest.raises(KeyError, match=name):
        loader.load(path)
    after = loader.store.state()
    assert after[1] == before[1] == []
    assert all(np.array_equal(after[0][k], v) for k, v in before[0].items())


@pytest.mark.parametrize("saved, loader", [
    ("TPS-VGG-None-CTC", PipelineConfig("None", "VGG", "None", "CTC", scale=0.125)),
    ("None-VGG-None-CTC", PipelineConfig("None", "VGG", "BiLSTM", "CTC", scale=0.125)),
    ("None-VGG-None-CTC", PipelineConfig("None", "VGG", "None", "CTC", scale=0.25)),
    ("TPS-VGG-None-CTC", PipelineConfig("TPS", "VGG", "None", "CTC", scale=0.125,
                                        num_fiducials=10)),
])
def test_load_config_mismatch_raises(tmp_path, saved, loader):
    # a checkpoint carries its config; loading it into any other model is an
    # error, even where every parameter the model needs is present
    path = tmp_path / "m.bin"
    assemble(PipelineConfig.from_string(saved, scale=0.125)).save(path)
    with pytest.raises(ConfigError, match="does not match"):
        assemble(loader, initialize=False).load(path)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def _tiny_recipe(**kw):
    base = dict(batch_size=8, iterations=6, val_interval=3, seed=0)
    base.update(kw)
    return TrainRecipe(**base)


def test_training_indices_fraction():
    idx_full = _training_indices(100, 1.0, seed=4)
    assert len(idx_full) == 100 and sorted(idx_full) == list(range(100))
    idx_half = _training_indices(100, 0.5, seed=4)
    assert len(idx_half) == 50
    assert np.array_equal(idx_half, idx_full[:50])  # a prefix of the same shuffle
    with pytest.raises(ConfigError):
        TrainRecipe(fraction=0.0)


@pytest.mark.parametrize("field, value", [("clip", 0.0), ("clip", -1.0), ("rho", 1.0),
                                          ("rho", -0.5), ("eps", 0.0), ("eps", -1e-6),
                                          ("rho", float("nan"))])
def test_recipe_rejects_hyperparameters_that_fail_silently(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be"):
        TrainRecipe(**{field: value})
    TrainRecipe(rho=0.0)  # no decay is a valid AdaDelta setting


def test_train_logs_and_keeps_best(tmp_path):
    cfg = PipelineConfig("None", "VGG", "None", "CTC", scale=0.125, seed=0)
    model = assemble(cfg)
    tr = synth_toydata(32, max_len=3, seed=1)
    va = synth_toydata(16, max_len=3, seed=2)
    res = train(model, _tiny_recipe(), tr, va)
    assert [row[0] for row in res.log] == [3, 6]
    assert res.best_step in (3, 6)
    assert res.best_accuracy == max(row[2] for row in res.log)
    # the model ends holding the best parameters
    held, _ = model.store.state()
    assert all(np.array_equal(held[k], v) for k, v in res.best_state[0].items())
    log_path = tmp_path / "log.csv"
    res.write_log(log_path)
    text = log_path.read_text()
    assert text.splitlines()[0] == "step,loss,val_accuracy"
    assert len(text.splitlines()) == 3


def test_train_early_stop():
    cfg = PipelineConfig("None", "VGG", "None", "CTC", scale=0.125, seed=0)
    model = assemble(cfg)
    tr = synth_toydata(32, max_len=3, seed=1)
    va = synth_toydata(16, max_len=3, seed=2)
    res = train(model, _tiny_recipe(stop_accuracy=0.0), tr, va)
    assert len(res.log) == 1  # stopped at the first validation


def test_fraction_one_matches_plain_train():
    tr = synth_toydata(32, max_len=3, seed=1)
    va = synth_toydata(16, max_len=3, seed=2)
    cfg = PipelineConfig("None", "VGG", "None", "CTC", scale=0.125, seed=0)

    m1 = assemble(cfg)
    r1 = train(m1, _tiny_recipe(fraction=1.0), tr, va)
    m2 = assemble(cfg)
    r2 = train(m2, _tiny_recipe(), tr, va)
    assert r1.log == r2.log
    for k in r1.best_state[0]:
        assert np.array_equal(r1.best_state[0][k], r2.best_state[0][k])


def test_fraction_sweep_runs():
    tr = synth_toydata(32, max_len=3, seed=1)
    va = synth_toydata(16, max_len=3, seed=2)
    cfg = PipelineConfig("None", "VGG", "None", "CTC", scale=0.125, seed=0)
    table = fraction_sweep(cfg, _tiny_recipe(iterations=3), [0.5, 1.0], tr, va)
    assert [f for f, _ in table] == [0.5, 1.0]
    assert all(0.0 <= a <= 100.0 for _, a in table)


def test_non_finite_training_raises_and_restores():
    cfg = PipelineConfig("None", "VGG", "None", "CTC", scale=0.125, seed=0)
    model = assemble(cfg)
    before, _ = model.store.state()
    tr = synth_toydata(8, max_len=3, seed=1)
    nan_set = ToyDataset(np.full_like(tr.images, np.nan), tr.labels)
    with pytest.raises(FloatingPointError, match="step 1"):
        train(model, _tiny_recipe(), nan_set, synth_toydata(4, max_len=3, seed=2))
    after, _ = model.store.state()
    assert all(np.array_equal(after[k], v) for k, v in before.items())


def test_non_finite_step_restores_the_best_parameters():
    # the NaN image is first drawn at step 3; validation runs every step
    cfg = PipelineConfig("None", "VGG", "None", "CTC", scale=0.125, seed=0)
    tr = synth_toydata(16, max_len=3, seed=1)
    tr.images[3] = np.nan
    va = synth_toydata(4, max_len=3, seed=2)
    recipe = _tiny_recipe(batch_size=2, iterations=10, val_interval=1)
    model = assemble(cfg)
    initial, _ = model.store.state()
    with pytest.raises(FloatingPointError, match="step 3"):
        train(model, recipe, tr, va)
    ref = train(assemble(cfg), _tiny_recipe(batch_size=2, iterations=2, val_interval=1),
                tr, va)
    after, _ = model.store.state()
    assert all(np.array_equal(after[k], v) for k, v in ref.best_state[0].items())
    assert not all(np.array_equal(after[k], v) for k, v in initial.items())


def _state_bytes(model):
    arrays, initialized = model.store.state()
    return {k: (v.shape, v.tobytes()) for k, v in arrays.items()}, initialized


def test_train_returns_the_best_steps_whole_state():
    # the best step (3) precedes the last (12): the model train() returns holds
    # the parameters and the batch-norm statistics of a run stopped at step 3,
    # bit for bit, and so computes the same eval-mode loss
    cfg = PipelineConfig("None", "VGG", "None", "CTC", scale=0.125, seed=0)
    tr = synth_toydata(64, max_len=3, seed=1)
    va = synth_toydata(16, max_len=3, seed=2)
    full, stopped = assemble(cfg), assemble(cfg)
    res = train(full, TrainRecipe(batch_size=8, iterations=12, val_interval=3, seed=0), tr, va)
    ref = train(stopped, TrainRecipe(batch_size=8, iterations=3, val_interval=3, seed=0), tr, va)
    assert (res.best_step, ref.best_step, len(res.log)) == (3, 3, 4)
    assert _state_bytes(full) == _state_bytes(stopped)
    assert _state_bytes(full)[1] == list(full.store.bn_states)
    x = Tensor(va.images)
    assert (full.loss(x, va.labels, mode="eval").item()
            == stopped.loss(x, va.labels, mode="eval").item())


def test_non_finite_step_restores_the_batch_norm_statistics_too():
    # the setup of test_non_finite_step_restores_the_best_parameters: the NaN
    # batch of step 3 fills the running statistics with NaN, and the restore
    # brings back those of the best step with its parameters
    cfg = PipelineConfig("None", "VGG", "None", "CTC", scale=0.125, seed=0)
    tr = synth_toydata(16, max_len=3, seed=1)
    tr.images[3] = np.nan
    va = synth_toydata(4, max_len=3, seed=2)
    model, ref = assemble(cfg), assemble(cfg)
    with pytest.raises(FloatingPointError, match="step 3; best state restored"):
        train(model, _tiny_recipe(batch_size=2, iterations=10, val_interval=1), tr, va)
    train(ref, _tiny_recipe(batch_size=2, iterations=2, val_interval=1), tr, va)
    assert _state_bytes(model) == _state_bytes(ref)
    assert all(np.isfinite(a).all() for a in model.store.state()[0].values())
    x = Tensor(va.images)
    assert model.decode(x) == ref.decode(x)


def test_non_finite_step_before_any_validation_restores_unfilled_batch_norm():
    # no validation has run, so the state to restore is the initial one: batch
    # norm holds no statistics again, and inference refuses to run
    cfg = PipelineConfig("None", "VGG", "None", "CTC", scale=0.125, seed=0)
    model, fresh = assemble(cfg), assemble(cfg)
    tr = synth_toydata(8, max_len=3, seed=1)
    nan_set = ToyDataset(np.full_like(tr.images, np.nan), tr.labels)
    with pytest.raises(FloatingPointError, match="step 1"):
        train(model, _tiny_recipe(), nan_set, synth_toydata(4, max_len=3, seed=2))
    assert _state_bytes(model) == _state_bytes(fresh)
    assert not any(s.initialized for s in model.store.bn_states.values())
    with pytest.raises(StateError):
        model.decode(Tensor(tr.images))


def test_training_determinism_bit_identical():
    tr = synth_toydata(32, max_len=3, seed=1)
    va = synth_toydata(16, max_len=3, seed=2)
    cfg = PipelineConfig("None", "VGG", "BiLSTM", "CTC", scale=0.125, seed=7)

    def run():
        model = assemble(cfg)
        res = train(model, _tiny_recipe(seed=7), tr, va)
        return res.log, model.store.state()[0]

    log1, snap1 = run()
    log2, snap2 = run()
    assert log1 == log2
    for k in snap1:
        assert np.array_equal(snap1[k], snap2[k])


GRADIENT_DIGESTS = """
import hashlib
from strforge.pipeline import PipelineConfig, assemble
from strforge.tensor import StateError, Tensor, no_grad
from strforge.toydata import synth_toydata

data = synth_toydata(8, max_len=3, seed=0)
for name in ("None-VGG-BiLSTM-CTC", "TPS-ResNet-BiLSTM-Attn"):
    model = assemble(PipelineConfig.from_string(name, scale=0.125, seed=0))
    loss = model.loss(Tensor(data.images), data.labels)
    loss.backward()
    digest = hashlib.sha256(loss.data.tobytes())
    for p in model.params().values():
        digest.update(p.grad.tobytes())
    print(name, loss.dtype, digest.hexdigest())
"""


def test_loss_and_gradients_do_not_depend_on_the_blas_thread_count():
    runs = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", GRADIENT_DIGESTS], capture_output=True,
                              text=True, timeout=300,
                              env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs[0].count("float32") == 2
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# inference builds no graph
# ---------------------------------------------------------------------------


def test_decode_records_no_graph_and_training_still_does(monkeypatch):
    model = assemble(PipelineConfig.from_string("TPS-ResNet-BiLSTM-Attn", scale=0.125))
    data = synth_toydata(4, max_len=3, seed=0)
    x = Tensor(data.images)
    model.loss(x, data.labels)  # a train-mode forward fills the BN statistics
    made = []
    make = Tensor._make

    def spy(data, parents, backward):
        out = make(data, parents, backward)
        made.append(out.requires_grad or out._node is not None)
        return out

    monkeypatch.setattr(Tensor, "_make", staticmethod(spy))
    model.decode(x)
    validate(model, data.images, data.labels)
    assert made and not any(made)
    monkeypatch.undo()

    params = model.params()
    assert all(p.requires_grad for p in params.values())
    for p in params.values():
        p.zero_grad()
    model.loss(x, data.labels).backward()
    missing = [name for name, p in params.items()
               if p.grad is None or not np.all(np.isfinite(p.grad))]
    assert not missing


def test_no_grad_changes_no_value_on_all_24():
    # twin models (same config and seed) at scale 1/8, float32, batch 32: the
    # train-mode loss of a recorded forward and of one under no_grad are the
    # same bits, and so are the batch-norm statistics each forward records
    data = synth_toydata(32, max_len=5, seed=4)
    images = Tensor(data.images)
    for cfg in all_combinations(scale=0.125):
        recorded, free = assemble(cfg), assemble(cfg)
        want = recorded.loss(images, data.labels)
        with no_grad():
            got = free.loss(images, data.labels)
        assert want.requires_grad and not got.requires_grad
        assert got.data.tobytes() == want.data.tobytes(), cfg.name
        for name, state in recorded.store.bn_states.items():
            twin = free.store.bn_states[name]
            assert state.running_mean.tobytes() == twin.running_mean.tobytes(), name
            assert state.running_var.tobytes() == twin.running_var.tobytes(), name


# Bytes a recorded train-mode loss on 8 images holds (scale 1/8, float32):
# measured 16.98 MB and 3.72 MB, bounded at +10%. Each graph node keeps only
# what its backward reads, and a conv or pool of a batch-norm ReLU rebuilds
# that ReLU's output; holding those outputs (23.6 MB and 4.12 MB), or every
# op's output as a node that links its parents' Tensors does (37.5 MB and
# 8.29 MB), fails the bound.
GRAPH_BYTES = {"TPS-ResNet-BiLSTM-Attn": 18_680_000, "None-VGG-BiLSTM-CTC": 4_100_000}


@pytest.mark.parametrize("name", sorted(GRAPH_BYTES))
def test_recorded_loss_graph_stays_under_its_measured_size(name):
    model = assemble(PipelineConfig.from_string(name, scale=0.125))
    data = synth_toydata(8, seed=5)
    x = Tensor(data.images)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = model.loss(x, data.labels)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert loss.requires_grad
    assert held <= GRAPH_BYTES[name]


def captured(fn):
    """Every value `fn` captures, with those of the functions it captures, at any depth;
    the items of a captured tuple or list count as captured."""
    values, fns, seen = [], [fn], set()
    while fns:
        f = fns.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        cells = [c.cell_contents for c in f.__closure__ or ()]
        for v in (v for c in cells for v in (c if isinstance(c, (tuple, list)) else (c,))):
            values.append(v)
            if isinstance(v, types.FunctionType):
                fns.append(v)
    return values


def test_no_backward_closure_holds_a_tensor_on_all_24():
    # a node links its parents by node and its closure captures arrays, shapes,
    # flags and functions such as a rebuild, which capture the same: a captured
    # Tensor would keep its data alive as long as the graph
    data = synth_toydata(2, max_len=3, seed=0)
    for cfg in all_combinations(scale=0.125):
        loss = assemble(cfg).loss(Tensor(data.images), data.labels)
        seen, stack = set(), [loss._node]
        while stack:
            node = stack.pop()
            if not isinstance(node, tc._Node) or id(node) in seen:
                continue  # a leaf, a parent that needs no gradient, or a node seen
            seen.add(id(node))
            stack.extend(node.parents)
            held = captured(node.backward)
            assert not any(isinstance(v, Tensor) for v in held), (cfg.name, node.backward.__qualname__)
        assert len(seen) > 20, cfg.name


@pytest.mark.parametrize("name", ["None-VGG-BiLSTM-CTC", "TPS-ResNet-BiLSTM-Attn"])
def test_eval_loss_records_no_graph(monkeypatch, name):
    model = assemble(PipelineConfig.from_string(name, scale=0.125))
    data = synth_toydata(4, max_len=3, seed=0)
    x = Tensor(data.images)
    model.loss(x, data.labels)  # a train-mode forward fills the BN statistics
    made = []
    make = Tensor._make

    def spy(data, parents, backward):
        out = make(data, parents, backward)
        made.append(out.requires_grad or out._node is not None)
        return out

    monkeypatch.setattr(Tensor, "_make", staticmethod(spy))
    loss = model.loss(x, data.labels, mode="eval")
    assert made and not any(made)
    monkeypatch.undo()

    assert not loss.requires_grad and math.isfinite(loss.item())
    with pytest.raises(StateError):
        loss.backward()
    # an eval forward outside no_grad fails at its first batch norm
    with pytest.raises(StateError, match="no_grad"):
        model.features(x, mode="eval")


def test_decode_does_not_depend_on_the_batch_size_on_all_24():
    # BN-filled models at scale 1/8, float32: decoding 8 images at once gives
    # the strings of decoding each image alone. Strings, not bits: the BiLSTM
    # features of batch 1 and batch 8 differ in their last bits.
    fill = synth_toydata(8, max_len=3, seed=3)
    images = synth_toydata(8, max_len=5, seed=4).images
    for cfg in all_combinations(scale=0.125):
        model = assemble(cfg)
        model.loss(Tensor(fill.images), fill.labels)
        alone = [model.decode(Tensor(images[i:i + 1]))[0] for i in range(len(images))]
        assert model.decode(Tensor(images)) == alone, cfg.name


# ---------------------------------------------------------------------------
# whole-model gradient oracle
# ---------------------------------------------------------------------------

STAGES = {"tps": "Trans", "feat": "Feat", "seq": "Seq", "pred": "Pred", "attn": "Pred"}
# Measured worst error over the 24 combinations and their stages: 2.7e-7
# (TPS-ResNet-None-CTC, Trans); every other stage stays at or below 1.7e-10.
ORACLE_BOUND = 1e-5


@pytest.mark.parametrize("cfg", all_combinations(scale=0.125), ids=lambda cfg: cfg.name)
def test_model_gradient_matches_central_differences(cfg):
    """Backward of the whole train-mode loss against finite differences, per stage.

    Float64, scale 1/8, 4 images. He initialization puts units exactly on
    kinks (zero biases over all-zero ReLU patches, an identity TPS grid on
    pixel centres), so every parameter is first jittered by 1e-2 N(0, 1). For
    each stage, a N(0, 1) direction d over its parameters gives the error
    |(L(p + eps d) - L(p - eps d)) / 2 eps - g.d| / (|g| |d|), taken at its
    minimum over the eps ladder: a ReLU crossing spoils the larger steps and
    rounding the smaller ones.
    """
    data = synth_toydata(4, max_len=3, seed=0)
    x = Tensor(data.images.astype(np.float64))
    model = assemble(cfg, dtype=np.float64)
    rng = np.random.default_rng(0)
    params = model.params()
    for p in params.values():
        p.data += 1e-2 * rng.normal(size=p.shape)
    model.loss(x, data.labels).backward()
    stages = {}
    for name, p in params.items():
        stages.setdefault(STAGES[name.split(".")[0]], []).append(p)
    errors = {}
    for stage, ps in stages.items():
        base = [p.data.copy() for p in ps]
        d = [rng.normal(size=p.shape) for p in ps]
        gd = sum(float((p.grad * di).sum()) for p, di in zip(ps, d))
        scale = math.sqrt(sum(float(np.square(p.grad).sum()) for p in ps)
                          * sum(float(np.square(di).sum()) for di in d))
        errs = []
        for eps in (1e-7, 1e-8, 1e-9):
            side = []
            for sign in (1, -1):
                for p, b, di in zip(ps, base, d):
                    p.data[...] = b + sign * eps * di
                side.append(model.loss(x, data.labels).item())
            errs.append(abs((side[0] - side[1]) / (2 * eps) - gd) / scale)
        for p, b in zip(ps, base):
            p.data[...] = b
        errors[stage] = min(errs)
    assert max(errors.values()) < ORACLE_BOUND, errors
