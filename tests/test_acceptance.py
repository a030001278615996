"""Acceptance suite: the ten release criteria, each as one test.

Every criterion is exercised at its stated tolerance. Criterion 9 trains a
small recognizer end to end and dominates the suite's runtime (~10 min on a
desktop CPU); everything else finishes in seconds.
"""

import itertools
import json
import math

import numpy as np
import pytest

from ctc_oracle import ctc_brute_force, encode_for
from test_predict import ctc_log_prob, rand_posterior
from strforge.arch import (
    ArchWarning,
    build_localization_net,
    build_rcnn,
    build_resnet,
    build_vgg,
)
from strforge.evalkit import (
    Entry,
    Manifest,
    UNIFIED_COMPOSITION,
    UNIFIED_TOTAL,
    dedupe_scan,
    filter_benchmark,
)
from strforge.pipeline import (
    PipelineConfig,
    TrainRecipe,
    all_combinations,
    assemble,
    train,
)
from strforge.predict import (
    AttnDecoder,
    CODEC,
    attn_loss_batch,
    collapse,
    ctc_loss_batch,
)
from strforge.tensor import (
    Tensor,
    BatchNormState,
    ParamStore,
    batchnorm,
    bilinear_sample,
    conv2d,
    grad_check,
    log_softmax,
    maxpool2d,
)
from strforge.toydata import synth_toydata
from strforge.tps import DeltaFactorization, base_fiducials, generate_grid, \
    solve_transform, warp_points
from strforge.tradeoff import (
    TradeoffPoint,
    load_fixture,
    module_marginal,
    pareto_set,
    points_from_rows,
)


# ---------------------------------------------------------------------------
# 1. CTC oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_ctc_oracle_equivalence():
    rng = np.random.default_rng(0)
    alphabet = "abc"
    for _ in range(200):
        t = int(rng.integers(1, 7))
        c = int(rng.integers(2, 5))
        h = rand_posterior(t, c, rng)
        max_label = min(t, 3)
        y = "".join(rng.choice(list(alphabet[:c - 1]))
                    for _ in range(rng.integers(0, max_label + 1)))
        got = ctc_log_prob(h, y)
        total = ctc_brute_force(h, y)  # probability-space oracle
        if total == 0.0:
            assert got == -np.inf
        else:
            want = math.log(total)
            assert abs(got - want) / max(abs(want), 1.0) < 1e-9

    # total probability over all label strings sums to 1 (T=5, C=3)
    h = rand_posterior(5, 3, np.random.default_rng(1))
    total = 0.0
    for n in range(0, 6):
        for y in itertools.product("ab", repeat=n):
            lp = ctc_log_prob(h, "".join(y))
            if lp > -np.inf:
                total += math.exp(lp)
    assert abs(total - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# 2. collapse fixture
# ---------------------------------------------------------------------------


def test_criterion_2_collapse_fixture():
    assert collapse("aaa--b-b-c-ccc-c--") == "abbccc"


# ---------------------------------------------------------------------------
# 3. TPS correctness
# ---------------------------------------------------------------------------


def test_criterion_3_tps_correctness():
    # identity: predicted fiducials equal the base layout
    base = base_fiducials(20)
    delta = DeltaFactorization(base)
    target, source = generate_grid(solve_transform(base, delta), delta, 32, 100)
    assert np.abs(source - target).max() < 1e-9

    # affine subsumption: an affine displacement yields an affine warp
    base8 = base_fiducials(8)
    delta8 = DeltaFactorization(base8)
    a = np.array([[0.8, 0.1], [-0.05, 1.1]])
    b = np.array([[0.02], [-0.3]])
    t = solve_transform(a @ base8 + b, delta8)
    probes = np.random.default_rng(0).uniform(-1, 1, (2, 50))
    assert np.abs(warp_points(t, base8, probes) - (a @ probes + b)).max() < 1e-8

    # interpolation property at the fiducials, 100 seeds, F in {6, 20}
    for f in (6, 20):
        basef = base_fiducials(f)
        deltaf = DeltaFactorization(basef)
        for seed in range(100):
            pred = basef + np.random.default_rng(seed).normal(0, 0.15,
                                                              basef.shape)
            mapped = warp_points(solve_transform(pred, deltaf), basef, basef)
            assert np.abs(mapped - pred).max() < 1e-9


# ---------------------------------------------------------------------------
# 4. gradient suite
# ---------------------------------------------------------------------------


def test_criterion_4_gradient_suite():
    rng = np.random.default_rng(0)

    def t64(shape, scale=1.0):
        return Tensor(rng.normal(0, scale, shape), requires_grad=True)

    # conv2d
    x, w = t64((1, 2, 5, 5)), t64((3, 2, 3, 3))
    rep = grad_check(lambda x, w: conv2d(x.transpose(1, 0, 2, 3), w, (1, 1), (1, 1)).sum(), [x, w])
    assert rep["max_rel_error"] < 1e-4

    # maxpool (distinct values so the argmax is stable under the FD step)
    xp = Tensor(rng.permutation(72).reshape(1, 2, 6, 6).astype(np.float64),
                requires_grad=True)
    rep = grad_check(lambda x: maxpool2d(x, (2, 2)).sum(), [xp])
    assert rep["max_rel_error"] < 1e-4

    # batchnorm in train mode, on NCHW input with 1x1 maps (the same draws as
    # a (4, 3) batch), handed to it channel-major; a fixed probe keeps the loss
    # sensitive to x
    probe = Tensor(rng.normal(size=(4, 3, 1, 1)))
    xb, g, b = t64((4, 3, 1, 1)), t64(3), t64(3)
    state = BatchNormState(3, dtype=np.float64)
    rep = grad_check(
        lambda x, g, b: (batchnorm(x.transpose(1, 0, 2, 3), g, b, state, training=True).transpose(1, 0, 2, 3)
                         * probe).sum(),
        [xb, g, b])
    assert rep["max_rel_error"] < 1e-4

    # the attention decoder node: teacher-forced logits over the encoder states
    # and every decoder weight, LSTM core included; its own generator leaves
    # the draws of the cases below as they were
    node_rng = np.random.default_rng(1)
    node_store = ParamStore(np.float64)
    node = AttnDecoder(node_store, input_size=3, hidden_size=4)
    for p in node_store.tensors.values():
        p.data[...] = node_rng.normal(0, 0.5, p.shape)
    enc = Tensor(node_rng.normal(size=(2, 3, 3)), requires_grad=True)
    targets = np.array([[5, 2, 36], [7, 36, 36]])
    probe = Tensor(node_rng.normal(size=(2, 3, 37)))
    rep = grad_check(lambda h, *ps: (node.forward(h, targets) * probe).sum(),
                     [enc, *node_store.tensors.values()])
    assert rep["max_rel_error"] < 1e-4

    # bilinear_sample (interior grid keeps FD clear of the border clamp)
    img = t64((1, 1, 4, 5))
    grid = Tensor(rng.uniform(-0.8, 0.8, (1, 3, 4, 2)), requires_grad=True)
    rep = grad_check(lambda x, g: bilinear_sample(x, g).sum(), [img, grid])
    assert rep["max_rel_error"] < 1e-4

    # ctc_loss_batch through the log-softmax head
    logits = t64((1, 4, 3))
    rep = grad_check(lambda z: ctc_loss_batch(log_softmax(z, axis=2),
                                              [encode_for(3, "ab")]),
                     [logits])
    assert rep["max_rel_error"] < 1e-4

    # attention loss over the encoder states and the output bias
    dec_store = ParamStore(np.float64)
    dec = AttnDecoder(dec_store, input_size=4, hidden_size=4)
    for name, p in dec_store.tensors.items():
        p.data[...] = rng.normal(0, 0.4, p.shape)
    hseq = t64((1, 3, 4), scale=0.5)
    rep = grad_check(lambda h, bo: attn_loss_batch(h, [CODEC.encode("ab")], dec),
                     [hseq, dec_store.tensors["attn.b_out"]])
    assert rep["max_rel_error"] < 1e-4

    # tiny full pipeline: tps_forward -> frame log-probs -> ctc_loss_batch, FD over
    # the localization head bias. Generic fiducials keep the sampling grid
    # away from exact pixel centers, where bilinear interpolation has kinks
    # that break finite differences.
    from strforge.tps import TpsTransformer

    tps_store = ParamStore(np.float64)
    tps = TpsTransformer(tps_store, num_fiducials=6, scale=0.125, out_size=(4, 6))
    tps_store.initialize(seed=0)
    fc2 = tps.loc_net.layers[-1]
    fc2.weight.data[...] = 0.0
    fc2.bias.data[...] = rng.normal(0, 0.4, fc2.bias.shape)
    data = synth_toydata(1, max_len=2, seed=0)
    img = Tensor(np.asarray(data.images, dtype=np.float64))

    def tiny_pipeline(bias):
        warped = tps.forward(img, training=True)          # (1, 1, 4, 6)
        frames = log_softmax(warped.reshape(1, 4, 6), axis=2)
        return ctc_loss_batch(frames, [encode_for(6, "ab")])

    rep = grad_check(tiny_pipeline, [fc2.bias])
    assert rep["max_rel_error"] < 1e-4


# ---------------------------------------------------------------------------
# 5. architecture fidelity
# ---------------------------------------------------------------------------


def test_criterion_5_architecture_fidelity(recwarn):
    # every table expectation either matches or raises the documented warning
    vgg = build_vgg()
    shapes = dict(vgg.infer_shapes(emit_warnings=False))
    assert shapes["conv7"] == (512, 1, 24)
    assert not vgg.warnings

    rcnn = build_rcnn()
    rs = dict(rcnn.infer_shapes(emit_warnings=False))
    assert rs["grcl3"] == (256, 4, 26)
    assert rs["conv2"] == (512, 1, 26)
    assert any("conv2" in w for w in rcnn.warnings)  # flagged discrepancy

    resnet = build_resnet()
    ns = dict(resnet.infer_shapes(emit_warnings=False))
    assert ns["conv7"] == (512, 1, 26)
    assert resnet.describe()["trainable_layers"] == 29

    loc = build_localization_net(20)
    assert dict(loc.infer_shapes(emit_warnings=False))["fc2"] == (40,)

    # per-module parameter budgets
    assert abs(vgg.param_count() - 5.6e6) <= 0.10 * 5.6e6
    assert abs(rcnn.param_count() - 1.8e6) <= 0.15 * 1.8e6
    assert abs(resnet.param_count() - 44.3e6) <= 0.10 * 44.3e6
    assert abs(loc.param_count() - 1.7e6) <= 0.10 * 1.7e6
    seq_n = sum(int(p.size) for name, p in assemble("None-VGG-BiLSTM-CTC").params().items()
                if name.startswith("seq."))
    assert abs(seq_n - 2.7e6) <= 0.10 * 2.7e6
    attn_n = sum(int(p.size) for name, p in assemble("None-VGG-None-Attn").params().items()
                 if name.startswith("attn."))
    assert abs(attn_n - 0.9e6) <= 0.20 * 0.9e6

    # per-combination totals for fixture rows #1, #3, #9, #24
    rows = {r.id: r for r in load_fixture()}
    for rid, target_m in ((1, 5.6), (3, 8.3), (9, 44.3), (24, 49.6)):
        r = rows[rid]
        model = assemble(PipelineConfig(r.trans, r.feat, r.seq, r.pred))
        total = model.param_element_count() / 1e6
        assert abs(total - target_m) <= 0.10 * target_m, (rid, total)

    # FLOPs for row #1's extractor
    assert abs(vgg.flop_count() - 1.2e9) <= 0.25 * 1.2e9


# ---------------------------------------------------------------------------
# 6. frontier reproduction
# ---------------------------------------------------------------------------


def test_criterion_6_frontier_reproduction():
    rows = load_fixture()
    time_front = {p.id for p in pareto_set(points_from_rows(rows, "time_ms"))}
    assert {1, 9, 11, 23, 24} <= time_front
    param_front = {p.id for p in pareto_set(points_from_rows(rows, "params_m"))}
    assert {5, 6, 18, 20, 24} <= param_front

    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 25))
        pts = [TradeoffPoint(id=i, name=str(i),
                             accuracy=float(rng.uniform(0, 100)),
                             cost=float(rng.uniform(0.1, 10)))
               for i in range(n)]
        brute = [p for p in pts
                 if not any(q.cost <= p.cost and q.accuracy >= p.accuracy
                            and (q.cost < p.cost or q.accuracy > p.accuracy)
                            for q in pts if q is not p)]
        assert pareto_set(pts) == brute


# ---------------------------------------------------------------------------
# 7. marginal reproduction
# ---------------------------------------------------------------------------


def test_criterion_7_marginal_reproduction():
    rows = load_fixture()
    assert abs(module_marginal(rows, "trans", "None")["total"] - 78.6) <= 0.05
    assert abs(module_marginal(rows, "trans", "TPS")["total"] - 80.8) <= 0.05
    # reference-table aggregates hold under the size-weighted aggregation
    ctc = module_marginal(rows, "pred", "CTC")
    attn = module_marginal(rows, "pred", "Attn")
    assert abs(ctc["regular_weighted"] - 85.5) <= 0.5
    assert abs(attn["regular_weighted"] - 87.2) <= 0.5


# ---------------------------------------------------------------------------
# 8. evaluation protocol
# ---------------------------------------------------------------------------


def _manifest(labels, dataset):
    return Manifest([Entry(image=f"i{k}", label=lbl, dataset=dataset,
                           scene=f"s{k}") for k, lbl in enumerate(labels)])


def test_criterion_8_evaluation_protocol():
    assert UNIFIED_TOTAL == 8539
    assert sum(UNIFIED_COMPOSITION.values()) == 8539

    # IC03: 1,110 -> 867 (length/charset rule)
    ic03 = _manifest(["word%03d" % i for i in range(867)]
                     + ["ab"] * 150 + ["a#b"] * 93, "IC03")
    _, rep = filter_benchmark(ic03, "IC03", 867)
    assert (rep.before, rep.after) == (1110, 867)

    # IC13: 1,095 -> 1,015 (alphanumeric-only) -> 857 (rule)
    ic13 = _manifest(["word%04d" % i for i in range(857)]
                     + ["ab"] * 158 + ["ééé"] * 80, "IC13")
    alnum = Manifest([e for e in ic13
                      if all(c.isalnum() and c.isascii() for c in e.label)])
    assert (len(ic13), len(alnum)) == (1095, 1015)
    _, rep = filter_benchmark(alnum, "IC13", 857)
    assert rep.after == 857

    # IC15: 2,077 -> 1,811 with a 266-image exclusion list
    ic15 = _manifest(["w%04d" % i for i in range(2077)], "IC15")
    excl = Manifest([Entry(image=f"i{k}", label="x", dataset="IC15")
                     for k in range(266)])
    _, rep = filter_benchmark(ic15, "IC15", 1811, exclusion=excl)
    assert (rep.before, rep.after) == (2077, 1811)
    assert rep.removed_by_exclusion == 266

    # dedupe fixture: 34 shared scenes holding 215 shared word boxes
    train_e, eval_e = [], []
    k = 0
    for s in range(34):
        for _ in range(7 if s < 11 else 6):  # 11*7 + 23*6 = 215
            train_e.append(Entry(image=f"t{k}", label=f"w{k}",
                                 dataset="IC03", scene=f"sc{s}"))
            eval_e.append(Entry(image=f"e{k}", label=f"w{k}",
                                dataset="IC03", scene=f"sc{s}"))
            k += 1
    report, _ = dedupe_scan(Manifest(train_e), Manifest(eval_e))
    assert (report.duplicate_scenes, report.duplicate_boxes) == (34, 215)


# ---------------------------------------------------------------------------
# 9. end-to-end learning smoke test
# ---------------------------------------------------------------------------


def test_criterion_9_all_24_combinations_step():
    data = synth_toydata(2, max_len=3, seed=0)
    x = Tensor(np.asarray(data.images, dtype=np.float64))
    for cfg in all_combinations(scale=0.125):
        model = assemble(cfg)
        loss = model.loss(x, data.labels)
        assert np.isfinite(loss.item()), cfg.name
        loss.backward()
        assert any(p.grad is not None and np.isfinite(p.grad).all()
                   for p in model.params().values()), cfg.name


def test_criterion_9_smoke_training_reaches_90():
    cfg = PipelineConfig("None", "VGG", "None", "CTC", scale=0.125, seed=0)
    model = assemble(cfg)
    train_set = synth_toydata(2000, max_len=5, seed=1)
    val_set = synth_toydata(200, max_len=5, seed=2)
    recipe = TrainRecipe(batch_size=32, iterations=3000, val_interval=100,
                         seed=0, stop_accuracy=90.0)
    result = train(model, recipe, train_set, val_set)
    assert result.best_accuracy >= 90.0, result.log
    assert result.best_step <= 3000


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    train_set = synth_toydata(32, max_len=3, seed=1)
    val_set = synth_toydata(16, max_len=3, seed=2)
    cfg = PipelineConfig("None", "VGG", "BiLSTM", "CTC", scale=0.125, seed=3)
    recipe = TrainRecipe(batch_size=8, iterations=4, val_interval=2, seed=3)

    blobs, logs = [], []
    for run in ("a", "b"):
        model = assemble(cfg)
        result = train(model, recipe, train_set, val_set)
        path = tmp_path / f"{run}.bin"
        model.save(path, extra={"best_step": result.best_step})
        blobs.append(path.read_bytes())
        logs.append(result.log_csv())
    assert blobs[0] == blobs[1]  # bit-identical checkpoints
    assert logs[0] == logs[1]

    # reports: the frontier/marginal report is byte-stable across runs
    from strforge.tradeoff import emit_report
    rows = load_fixture()
    assert emit_report(rows)["json"] == emit_report(rows)["json"]
    assert emit_report(rows)["csv"] == emit_report(rows)["csv"]
