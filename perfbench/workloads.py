"""The benchmark's workloads and the bookkeeping of one run.

Every workload calls only strforge's public API: ``assemble``,
``pipeline.train``, ``Model.save``/``Model.load``, ``Model.loss`` and
``pipeline.validate``. Models are built at scale 1/8 in float32 from a fixed
model seed; ``--seed`` generates the images, labels, batch order and request
order. The dtype each stage computes in is left to the program.

- ``train-crnn``: ``train()`` on the CRNN preset (None-VGG-BiLSTM-CTC).
- ``train-best``: ``train()`` on the ``best`` preset (TPS-ResNet-BiLSTM-Attn).
- ``infer-24``: ``validate()`` at batch 32 and at batch 1 over all 24
  combinations, each loaded from a checkpoint as ``strforge eval`` does.

Between its ``train()`` calls a train workload serves single-image
``validate`` requests to the untrained, BN-filled checkpoint of its
architecture, so that every workload reports the same end-to-end metrics and
the decode work does not depend on how training went. It also checks the
train-to-eval hand-over: the trained model, saved and loaded into a fresh
``assemble(..., initialize=False)``, must predict the same.
"""

from __future__ import annotations

import contextlib
import math
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import replace

import numpy as np

from strforge import pipeline, toydata, tradeoff
from strforge.pipeline import PipelineConfig, TrainRecipe, all_combinations, assemble
from strforge.predict import ALPHABET
from strforge.tensor import Tensor

from tracing import ARCH_KINDS, DecodeCapture, Tracer, replay_conv

SCALE = 0.125
MODEL_SEED = 0
BATCH = 32
TRAIN_SIZE = 512          # training images
VAL_SIZE = 8              # images of the validation train() runs at its last step
HELDOUT_SIZE = 64         # held-out images for the loss check
FILL_SIZE = 8             # images of the train-mode forward that fills BN statistics
MAX_DECODE_LEN = 25
SETUP_REPEATS = 3
MIN_TRAIN_CALLS = 4       # warm-up call plus at least three measured calls
MIN_B1_REQUESTS = 100     # p90 then has at least ten samples beyond it
B1_PER_TRAIN_CALL = MIN_B1_REQUESTS // MIN_TRAIN_CALLS
B1_PER_B32 = 6            # single-image requests after each batch-32 validate
TRAIN_PRESETS = {"train-crnn": ("CRNN", 8), "train-best": ("best", 1)}
PAPER_TIME_FRONTIER = [1, 9, 11, 23, 24]

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "batch_img_per_s": "img/s",
              "b1_ms_p50": "ms"}

_STAGE_MS = {"arch.fwd": "arch.fwd_ms", "tensor.backward": "tensor.backward_ms",
             "tensor.bilinear_sample": "tensor.bilinear_sample_ms",
             "tps.fwd": "tps.fwd_ms", "seqmodel.fwd": "seqmodel.fwd_ms",
             "predict.decode": "predict.decode_ms", "predict.loss": "predict.loss_ms",
             "pipeline.clip": "pipeline.clip_ms", "pipeline.adadelta": "pipeline.adadelta_ms",
             "pipeline.validate": "pipeline.validate_ms"}
_STAGE_MS.update({f"arch.{k}": f"arch.{k}.fwd_ms" for k in ARCH_KINDS})

PER_LAYER = dict.fromkeys(_STAGE_MS.values(), "ms")
PER_LAYER.update({
    "arch.flops_per_img": "flop", "arch.gflops_per_s": "GFLOP/s",
    "tensor.conv2d.calls": "count", "tensor.conv2d.fwd_ms": "ms",
    "tensor.conv2d.bwd_ms": "ms", "predict.attn_steps_per_img": "steps/img",
    "predict.decoded_len_mean": "chars", "predict.over_max_len_pct": "%",
    "pipeline.self_ms": "ms",
    "pipeline.step_peak_mb": "MB", "pipeline.decode_peak_mb": "MB",
    "checkpoint.save_ms": "ms", "checkpoint.load_ms": "ms", "checkpoint.bytes": "B",
    "toydata.synth_s": "s", "trace.overhead_pct": "%",
})


def _median(values):
    return statistics.median(values) if values else 0.0


def decoded_string_error(s, capped):
    """Why a decoded string is not a valid prediction, or None.

    The length limit is checked only where ``capped``, on attention heads.
    ``Model.decode`` ignores ``max_len`` on CTC heads, and untrained RCNN and
    ResNet CTC heads, with 26 frames, emit 26-character predictions. That
    program defect is not failed here, so that every workload runs without a
    failed operation; it is reported as ``predict.over_max_len_pct``.
    """
    if not isinstance(s, str):
        return f"decoded {type(s).__name__}, not str"
    if capped and len(s) > MAX_DECODE_LEN:
        return f"decoded length {len(s)} > {MAX_DECODE_LEN}"
    if not set(s) <= set(ALPHABET):
        return f"decoded {s!r} leaves the codec alphabet"
    return None


class Run:
    """Counts, checks, timings and trace of one workload run."""

    def __init__(self, workload, seed, seconds, trace, workdir, import_s):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.import_s = import_s
        self.attempted = 0
        self.op_s = None
        self.failures = []
        self.capture = DecodeCapture()
        self.tracer = Tracer() if trace else None
        self.setup_times = []
        self.end_to_end = {}
        self.per_layer = {}
        self.not_applicable = {}
        self.detail = {}
        self.conv_counts = {}
        self.conv_units = 0
        self.last_decoded = None
        self.over_max_len = 0
        self.synth_s, self.save_ms, self.load_ms, self.ckpt_bytes = [], [], [], []
        self.unrestored = []

    # -- operations and checks ---------------------------------------------------

    def op(self, what, fn, check=None):
        """Attempt one operation; an exception or a failed check marks it failed.

        Afterwards ``op_s`` holds the seconds ``fn`` took, its check excluded.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # a failed operation is counted, and the run goes on
            result, error = None, exc
        self.op_s = time.perf_counter() - t0
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            self.failures.append(f"{what}: {type(error).__name__}: {error}")
            return None
        problem = check(result) if check is not None else None
        if problem:
            self.failures.append(f"{what}: {problem}")
        return result

    def decoded(self, model, expect=None):
        """Problem with the strings ``model`` decoded since the last call, or None."""
        strings = self.last_decoded = self.capture.take()
        self.detail.setdefault("decoded_lengths", []).extend(len(s) for s in strings)
        self.over_max_len += sum(len(s) > MAX_DECODE_LEN for s in strings)
        capped = model.cfg.pred != "CTC"
        for s in strings:
            problem = decoded_string_error(s, capped)
            if problem:
                return problem
        if expect is not None and strings != expect:
            return f"decoded {strings!r}, expected {expect!r}"
        return None

    # -- tracing --------------------------------------------------------------------

    @contextlib.contextmanager
    def traced(self, on, models=()):
        if not on:
            yield
            return
        self.tracer.install(models)
        try:
            yield
        finally:
            self.unrestored += self.tracer.uninstall()

    def harvest_io(self):
        """Move data-generation and checkpoint spans out of the tracer."""
        t = self.tracer
        self.synth_s.append(t.totals()["toydata.synth"])
        saves = [e - s for n, s, e, _, _ in t.spans if n == "checkpoint.save"]
        self.save_ms += [1e3 * d for d in saves]
        self.load_ms += [1e3 * (e - s) for n, s, e, _, _ in t.spans if n == "checkpoint.load"]
        if saves:
            self.ckpt_bytes.append(t.counts["checkpoint.bytes"] / len(saves))
        t.reset()

    def unit_metrics(self, units, top):
        """Per-layer values per unit of work from the spans in the tracer.

        ``top`` is the span of the workload's own call; ``pipeline.self_ms`` is
        its wall time less that of its direct children.
        """
        t = self.tracer
        totals = t.totals()
        out = {metric: 1e3 * totals[name] / units for name, metric in _STAGE_MS.items()}
        wall, split = t.children(top)
        out["pipeline.self_ms"] = 1e3 * (wall - sum(split.values())) / units
        out["tensor.conv2d.calls"] = t.counts["tensor.conv2d"] / units
        images = t.counts["arch.images"]
        out["arch.flops_per_img"] = t.counts["arch.flops"] / images if images else 0.0
        out["arch.gflops_per_s"] = (t.counts["arch.flops"] / totals["arch.fwd"] / 1e9
                                    if totals["arch.fwd"] else 0.0)
        attn_images = sum(b for b, _ in t.attn_decodes)
        out["predict.attn_steps_per_img"] = (
            sum(b * s for b, s in t.attn_decodes) / attn_images if attn_images else 0.0)
        for key, n in t.conv_shapes.items():
            self.conv_counts[key] = self.conv_counts.get(key, 0) + n
        self.conv_units += units
        split_ms = {k: 1e3 * v / units for k, v in sorted(split.items())}
        t.reset()
        return out, split_ms, 1e3 * wall / units

    # -- set-up ------------------------------------------------------------------------

    def setup(self, build):
        """Run ``build`` SETUP_REPEATS times.

        Set-up time is the median import time (this process and fresh
        interpreters) plus the median time of ``build``.
        """
        out = None
        for _ in range(SETUP_REPEATS):
            out = None
            with self.traced(self.trace):
                out = self.op("setup", build)
            self.setup_times.append(self.op_s)
            if self.trace:
                self.harvest_io()
                self.tracer.feat_input_dtypes.clear()  # report the timed calls' dtype
        self.end_to_end["setup_s"] = (statistics.median(self.import_s)
                                      + statistics.median(self.setup_times))
        self.detail["setup_repeats_s"] = self.setup_times
        self.detail["import_s"] = self.import_s
        return out

    # -- single-image serving ------------------------------------------------------------

    def b1_metrics(self, client):
        lat = [1e3 * r[2] for r in client.requests if not r[3]]
        self.end_to_end["b1_ms_p50"] = statistics.median(lat)
        # The tail is recorded, not bounded: on a shared 2-CPU machine its
        # run-to-run spread is wider than any bound the benchmark may set.
        self.detail["b1_ms_p90"] = statistics.quantiles(lat, n=10)[8]
        self.detail["b1_requests"] = len(lat)

    # -- traced-run extras ---------------------------------------------------------------

    def conv_replay(self):
        """Conv forward and backward ms per unit, replayed shape by shape."""
        costs = replay_conv(self.conv_counts, seed=self.seed)
        fwd = sum(n * costs[k][0] for k, n in self.conv_counts.items())
        bwd = sum(n * costs[k][1] for k, n in self.conv_counts.items())
        self.per_layer["tensor.conv2d.fwd_ms"] = 1e3 * fwd / self.conv_units
        self.per_layer["tensor.conv2d.bwd_ms"] = 1e3 * bwd / self.conv_units
        self.detail["conv_shapes_replayed"] = len(costs)

    def traced_peak_mb(self, fn):
        """tracemalloc peak of one call, above what was allocated before it."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            self.op("tracemalloc", fn)
            return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
        finally:
            tracemalloc.stop()

    def finish_layers(self, unit):
        pl = self.per_layer
        pl["checkpoint.save_ms"] = _median(self.save_ms)
        pl["checkpoint.load_ms"] = _median(self.load_ms)
        pl["checkpoint.bytes"] = _median(self.ckpt_bytes)
        pl["toydata.synth_s"] = _median(self.synth_s)
        lengths = self.detail.get("decoded_lengths", [])
        pl["predict.decoded_len_mean"] = sum(lengths) / len(lengths) if lengths else 0.0
        pl["predict.over_max_len_pct"] = (
            100.0 * sum(n > MAX_DECODE_LEN for n in lengths) / len(lengths) if lengths else 0.0)
        for name in PER_LAYER:
            pl.setdefault(name, 0.0)
            if pl[name] == 0.0 and name not in self.not_applicable:
                self.not_applicable[name] = "measured zero on this workload"
        self.detail["per_layer_unit"] = unit
        self.detail["feat_input_dtype"] = sorted(self.tracer.feat_input_dtypes)

    # -- result --------------------------------------------------------------------------

    def result(self):
        self.unrestored += self.capture.uninstall()
        if self.unrestored:
            self.failures.append(f"wrappers not restored: {self.unrestored}")
        self.end_to_end["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.detail.pop("decoded_lengths", None)
        self.detail["decoded_over_max_len"] = self.over_max_len
        metrics = self.per_layer if self.trace else self.end_to_end
        units = PER_LAYER if self.trace else END_TO_END
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise RuntimeError(f"not measured: {missing}; failures: {self.failures}")
        values = {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()}
        self.failures += [f"metric {k} is not finite" for k, v in values.items()
                          if not math.isfinite(v["value"])]
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": min(len(self.failures), self.attempted), "metrics": values}


class B1Client:
    """Closed loop, one client: single-image ``validate`` requests.

    Request j goes to model j mod M with image order[j mod n]; the order is a
    permutation drawn from the run's seed. With ``trace_cycles`` every other
    cycle over the models is traced. ``requests`` holds
    (model index, image index, seconds, traced, decoded string).
    """

    def __init__(self, run, models, images, trace_cycles=False):
        self.run = run
        self.models = models
        self.images = images
        self.trace_cycles = trace_cycles
        self.order = np.random.default_rng(run.seed + 7).permutation(len(images.labels))
        self.requests = []

    def serve(self, n):
        run, m = self.run, len(self.models)
        for _ in range(n):
            j = len(self.requests)
            k, i = j % m, int(self.order[j % len(self.order)])
            model = self.models[k]
            traced = self.trace_cycles and (j // m) % 2 == 1
            with run.traced(traced, [model] if traced else ()):
                run.op("validate b1",
                       lambda: pipeline.validate(model, self.images.images[i:i + 1],
                                                 self.images.labels[i:i + 1], batch_size=1),
                       check=lambda _: run.decoded(model))
            self.requests.append((k, i, run.op_s, traced, (run.last_decoded or [None])[0]))

    def enough(self):
        """At least MIN_B1_REQUESTS requests, in whole cycles over the models."""
        j = len(self.requests)
        return j >= MIN_B1_REQUESTS and j % len(self.models) == 0

    def check(self, refs):
        """Each single-image prediction must equal the batch-32 one for that image."""
        for k, i, _, _, got in self.requests:
            if refs[k] is not None and got != refs[k][i]:
                self.run.failures.append(f"model {k} image {i}: batch 1 decoded {got!r}, "
                                         f"batch 32 {refs[k][i]!r}")


# -- train-crnn and train-best -----------------------------------------------------------


def heldout_loss(model, heldout):
    return model.loss(Tensor(heldout.images), heldout.labels, mode="eval").item()


def save_and_load(model, cfg, path):
    """The ``strforge train`` then ``strforge eval --checkpoint`` hand-over."""
    model.save(path)
    loaded = assemble(cfg, initialize=False)
    loaded.load(path)
    return loaded


def serving_model(cfg, fill, path):
    """An untrained model as ``strforge eval`` serves it.

    One train-mode forward fills the batch-norm statistics; the model is
    saved and loaded into a fresh ``assemble(..., initialize=False)``. Its
    decode work does not depend on how a training run went.
    """
    model = assemble(cfg)
    loss = model.loss(Tensor(fill.images), fill.labels).item()
    if not math.isfinite(loss):
        raise FloatingPointError(f"{cfg.name}: BN-filling forward loss {loss}")
    return save_and_load(model, cfg, path)


def validate_batch(run, model, images, expect=None):
    """``validate`` over ``images`` in batches of 32; returns the decoded strings."""
    run.op("validate batch",
           lambda: pipeline.validate(model, images.images, images.labels, batch_size=BATCH),
           check=lambda _: run.decoded(model, expect))
    return run.last_decoded


def train_workload(run):
    preset, iterations = TRAIN_PRESETS[run.workload]
    cfg = PipelineConfig.from_string(preset, scale=SCALE, seed=MODEL_SEED)
    recipe = TrainRecipe(batch_size=BATCH, iterations=iterations, val_interval=iterations,
                         seed=run.seed)
    # The first call warms the allocator up over at least two steps; it is not measured.
    warmup = replace(recipe, iterations=max(2, iterations), val_interval=max(2, iterations))
    s = 4 * run.seed

    def build():
        data = [toydata.synth_toydata(n, seed=s + k)
                for k, n in enumerate((TRAIN_SIZE, VAL_SIZE, HELDOUT_SIZE, FILL_SIZE, BATCH))]
        return data, assemble(cfg), serving_model(cfg, data[3], run.workdir / "served.bin")

    (train_set, val_set, heldout, _, images), model, served = run.setup(build)
    run.capture.install()

    def finite_loss(result):
        loss = result.log[-1][1]
        return None if math.isfinite(loss) else f"training loss {loss}"

    client = B1Client(run, [served], images)
    start = time.perf_counter()
    calls, layer_calls, splits = [], [], []
    first = None
    while True:
        i = len(calls)
        traced = run.trace and i % 2 == 1
        with run.traced(traced, [model]):
            run.op("train", lambda: pipeline.train(model, recipe if i else warmup,
                                                   train_set, val_set),
                   check=finite_loss)
        calls.append((run.op_s, traced))
        problem = run.decoded(model)
        if problem:
            run.failures.append(f"train validation: {problem}")
        if traced:
            layers, split, wall = run.unit_metrics(iterations, "pipeline.train")
            layer_calls.append(layers)
            splits.append({"children_ms": split, "self_ms": layers["pipeline.self_ms"],
                           "wall_ms": wall})
        if i == 1:
            first = model    # the first measured call; its result must equal the last's
        val_strings = run.last_decoded
        client.serve(B1_PER_TRAIN_CALL)
        if (i + 1 >= MIN_TRAIN_CALLS and client.enough()
                and time.perf_counter() - start >= run.seconds):
            break
        model = assemble(cfg)
    run.detail["window_s"] = time.perf_counter() - start

    measured = [t for t, traced in calls[1:] if not traced]
    run.end_to_end["batch_img_per_s"] = BATCH * iterations / statistics.median(measured)
    run.b1_metrics(client)
    run.detail["train_call_s"] = [t for t, _ in calls]

    # Outside the window: determinism, the train-to-eval hand-over, batch 1 = batch 32.
    losses = [run.op("heldout loss", lambda: heldout_loss(m, heldout)) for m in (first, model)]
    run.detail["heldout_loss"] = losses
    if not all(isinstance(x, float) and math.isfinite(x) for x in losses):
        run.failures.append(f"held-out loss not finite: {losses}")
    elif losses[0] != losses[1]:
        run.failures.append(f"held-out loss differs between identical train() calls: {losses}")
    with run.traced(run.trace):
        loaded = run.op("save and load",
                        lambda: save_and_load(model, cfg, run.workdir / "trained.bin"))
    if run.trace:
        run.harvest_io()
    if loaded is not None:
        validate_batch(run, loaded, val_set, expect=val_strings)
    client.check([validate_batch(run, served, images)])

    if run.trace:
        for name in layer_calls[0]:
            run.per_layer[name] = statistics.median(c[name] for c in layer_calls)
        run.detail["train_split_per_step"] = splits
        traced_t = [t for t, traced in calls if traced]
        run.per_layer["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_t) / statistics.median(measured) - 1.0)
        run.conv_replay()
        one_step = replace(recipe, iterations=1, val_interval=1)
        fresh = assemble(cfg)
        run.per_layer["pipeline.step_peak_mb"] = run.traced_peak_mb(
            lambda: pipeline.train(fresh, one_step, train_set, val_set))
        run.per_layer["pipeline.decode_peak_mb"] = run.traced_peak_mb(
            lambda: pipeline.validate(served, images.images, images.labels,
                                      batch_size=BATCH))
        run.capture.take()
        run.finish_layers("training step of 32 images")
    return run.result()


# -- infer-24 ------------------------------------------------------------------------------


def infer_workload(run):
    s = 4 * run.seed
    configs = all_combinations(scale=SCALE, seed=MODEL_SEED)

    def build():
        images = toydata.synth_toydata(BATCH, seed=s)
        fill = toydata.synth_toydata(FILL_SIZE, seed=s + 1)
        return images, [serving_model(cfg, fill, run.workdir / f"model{k}.bin")
                        for k, cfg in enumerate(configs)]

    images, models = run.setup(build)
    run.capture.install()
    client = B1Client(run, models, images, trace_cycles=run.trace)
    start = time.perf_counter()
    b32, refs = [], []
    for model in models:
        with run.traced(run.trace, models):
            refs.append(validate_batch(run, model, images))
        b32.append(run.op_s)
        client.serve(B1_PER_B32)
    while not client.enough() or time.perf_counter() - start < run.seconds:
        client.serve(1)
    run.detail["window_s"] = time.perf_counter() - start
    run.end_to_end["batch_img_per_s"] = BATCH * len(models) / sum(b32)
    run.b1_metrics(client)
    client.check(refs)
    requests = client.requests
    run.detail["b32_s"] = dict(zip((c.name for c in configs), b32))

    if run.trace:
        traced_images = BATCH * len(models) + sum(1 for r in requests if r[3])
        layers, split, wall = run.unit_metrics(traced_images, "pipeline.validate")
        run.per_layer.update(layers)
        run.detail["validate_split_per_img"] = {"children_ms": split,
                                                "self_ms": layers["pipeline.self_ms"],
                                                "wall_ms": wall}
        on = [r[2] for r in requests if r[3]]
        off = [r[2] for r in requests if not r[3]]
        run.per_layer["trace.overhead_pct"] = 100.0 * (
            statistics.median(on) / statistics.median(off) - 1.0)
        run.conv_replay()
        heaviest = max(models, key=lambda m: m.param_element_count())
        run.per_layer["pipeline.decode_peak_mb"] = run.traced_peak_mb(
            lambda: pipeline.validate(heaviest, images.images, images.labels,
                                      batch_size=BATCH))
        run.capture.take()
        run.not_applicable["pipeline.step_peak_mb"] = "infer-24 runs no training step"
        run.detail["cost_matrix"] = cost_matrix(configs, models, b32, requests)
        run.finish_layers("decoded image")
    return run.result()


def cost_matrix(configs, models, b32, requests):
    """Per-combination decode cost, params and FLOPs, with time frontiers."""
    fixture = {r.name: r for r in tradeoff.load_fixture()}
    rows = []
    for k, (cfg, model) in enumerate(zip(configs, models)):
        flops = model.feat_graph.flop_count()
        if model.tps is not None:
            flops += model.tps.loc_graph.flop_count()
        lat = [r[2] for r in requests if r[0] == k]
        rows.append({"id": fixture[cfg.name].id, "name": cfg.name,
                     "decode_b32_ms_per_img": 1e3 * b32[k] / BATCH,
                     "decode_b1_ms": 1e3 * statistics.median(lat),
                     "params": model.param_element_count(), "flops_per_img": flops})

    def chain(cost):
        points = [tradeoff.TradeoffPoint(id=r["id"], name=r["name"],
                                         accuracy=fixture[r["name"]].total, cost=r[cost])
                  for r in rows]
        return [p.id for p in tradeoff.frontier_chain(points)]

    paper = tradeoff.frontier_chain(tradeoff.points_from_rows(fixture.values()))
    return {"rows": rows,
            "time_frontier_b32": chain("decode_b32_ms_per_img"),
            "time_frontier_b1": chain("decode_b1_ms"),
            "fixture_time_frontier": [p.id for p in paper],
            "paper_named_time_frontier": PAPER_TIME_FRONTIER,
            "accuracy_source": "bundled 24-row fixture (paper accuracies)"}


def run_workload(run):
    if run.workload in TRAIN_PRESETS:
        return train_workload(run)
    return infer_workload(run)
