"""Four-stage model assembly and the training loop.

A model is Trans x Feat x Seq x Pred: optional thin-plate-spline
rectification, a convolutional feature extractor, an optional two-layer
BiLSTM, and either a CTC or an attention prediction head — 2 x 3 x 2 x 2 = 24
combinations, plus named presets for the well-known layouts. Training uses
AdaDelta (decay 0.95), gradient clipping at global-norm 5, He initialization,
periodic validation with argmax-checkpoint retention, a stop on non-finite
loss or gradient, and dataset-fraction sweeps. Everything runs at toy scale
(channel scale 1/8) on the bundled synthetic data generator.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import checkpoint as ckpt
from .arch import BUILDERS
from .evalkit import word_accuracy
from .predict import (
    NUM_CLASSES,
    AttnDecoder,
    CODEC,
    attn_greedy_decode_batch,
    attn_loss_batch,
    ctc_greedy_decode,
    ctc_loss_batch,
)
from .seqmodel import BiLSTMStack
from .tensor import ParamStore, Tensor, log_softmax, matmul, no_grad
from .tps import TpsTransformer
from .toydata import synth_toydata  # re-exported: the pipeline's data source

__all__ = [
    "ConfigError", "PipelineConfig", "TrainRecipe", "Model", "PRESETS",
    "assemble", "all_combinations", "adadelta_step", "AdaDeltaState",
    "clip_gradients", "train", "fraction_sweep", "synth_toydata",
]

TRANS_OPTIONS = ("None", "TPS")
FEAT_OPTIONS = ("VGG", "RCNN", "ResNet")
SEQ_OPTIONS = ("None", "BiLSTM")
PRED_OPTIONS = ("CTC", "Attn")


class ConfigError(ValueError):
    """Invalid pipeline combination, option token or training setup."""


def _match(token, options, stage):
    for opt in options:
        if token.lower() == opt.lower():
            return opt
    raise ConfigError(f"invalid {stage} option {token!r}; choose from {options}")


@dataclass(frozen=True)
class PipelineConfig:
    trans: str = "None"
    feat: str = "VGG"
    seq: str = "None"
    pred: str = "CTC"
    scale: float = 1.0
    num_fiducials: int = 20
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "trans", _match(self.trans, TRANS_OPTIONS, "Trans"))
        object.__setattr__(self, "feat", _match(self.feat, FEAT_OPTIONS, "Feat"))
        object.__setattr__(self, "seq", _match(self.seq, SEQ_OPTIONS, "Seq"))
        object.__setattr__(self, "pred", _match(self.pred, PRED_OPTIONS, "Pred"))
        if not 0.0 < self.scale <= 1.0:  # also rejects NaN
            raise ConfigError(f"scale must be in (0, 1], got {self.scale}")

    @property
    def name(self) -> str:
        return f"{self.trans}-{self.feat}-{self.seq}-{self.pred}"

    @staticmethod
    def from_string(s: str, **kwargs) -> "PipelineConfig":
        key = s.strip()
        preset = PRESETS.get(key) or PRESETS.get(key.lower())
        if preset is not None:
            return replace(preset, **kwargs)
        parts = key.split("-")
        if len(parts) != 4:
            raise ConfigError(
                f"expected 'Trans-Feat-Seq-Pred' or a preset name, got {s!r}")
        return PipelineConfig(*parts, **kwargs)


PRESETS = {
    "CRNN": PipelineConfig("None", "VGG", "BiLSTM", "CTC"),
    "RARE": PipelineConfig("TPS", "VGG", "BiLSTM", "Attn"),
    "GRCNN": PipelineConfig("None", "RCNN", "BiLSTM", "CTC"),
    "STAR-Net": PipelineConfig("TPS", "ResNet", "BiLSTM", "CTC"),
    "R2AM": PipelineConfig("None", "RCNN", "None", "Attn"),
    "Rosetta": PipelineConfig("None", "ResNet", "None", "CTC"),
    "best": PipelineConfig("TPS", "ResNet", "BiLSTM", "Attn"),
}
PRESETS.update({k.lower(): v for k, v in list(PRESETS.items())})


def all_combinations(scale: float = 1.0, **kwargs):
    """The 24 distinct (trans, feat, seq, pred) configurations."""
    out = []
    for trans in TRANS_OPTIONS:
        for feat in FEAT_OPTIONS:
            for seq in SEQ_OPTIONS:
                for pred in PRED_OPTIONS:
                    out.append(PipelineConfig(trans, feat, seq, pred,
                                              scale=scale, **kwargs))
    return out


class Model:
    """An assembled four-stage recognizer."""

    def __init__(self, cfg: PipelineConfig, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        self.store = ParamStore(dtype)
        self.tps = None
        if cfg.trans == "TPS":
            self.tps = TpsTransformer(self.store, num_fiducials=cfg.num_fiducials,
                                      scale=cfg.scale)
        self.feat_graph = BUILDERS[cfg.feat.lower()](scale=cfg.scale)
        self.feat = self.feat_graph.instantiate(self.store, prefix="feat")
        c, h, w = self.feat.output_shape
        if h != 1:
            raise ConfigError(f"feature map height {h} != 1; cannot form sequence")
        self.seq_len = w
        feat_width = c

        self.seq = None
        if cfg.seq == "BiLSTM":
            hidden = self.feat_graph.scaled(256)
            self.seq = BiLSTMStack(self.store, input_size=feat_width, hidden_size=hidden,
                                   output_size=hidden)
            feat_width = self.seq.output_size

        if cfg.pred == "CTC":
            self.ctc_w = self.store.new("pred.ctc.weight", (NUM_CLASSES, feat_width))
            self.ctc_b = self.store.new("pred.ctc.bias", (NUM_CLASSES,))
            self.attn = None
        else:
            hidden = self.feat_graph.scaled(256)
            self.attn = AttnDecoder(self.store, input_size=feat_width, hidden_size=hidden)

    # -- parameters --------------------------------------------------------

    def params(self):
        """Name -> trainable tensor, in creation order: Trans, Feat, Seq, Pred."""
        return dict(self.store.tensors)

    def param_element_count(self):
        return sum(int(p.size) for p in self.store.tensors.values())

    def initialize(self):
        """He-initialize all stages, then reset the TPS head to identity."""
        self.store.initialize(self.cfg.seed)
        if self.tps is not None:
            self.tps.reset_head()
        return self

    # -- forward -----------------------------------------------------------

    def features(self, x: Tensor, training: bool = True) -> Tensor:
        """Images (B, 1, 32, 100) -> feature sequence (B, I, D).

        Images of another dtype are cast to the model's dtype here, the one cast
        site (a constant, no gradient), so the model computes in its own dtype.
        """
        if x.dtype != self.dtype:
            x = Tensor(x.data, dtype=self.dtype)
        if self.tps is not None:
            x = self.tps.forward(x, training)
        v = self.feat.forward(x, training)      # (B, C, 1, W)
        b, c, h, w = v.shape
        v = v.reshape(b, c, w).transpose(0, 2, 1)  # (B, W, C)
        if self.seq is not None:
            v = self.seq.forward(v)
        return v

    def frame_log_probs(self, x: Tensor, training: bool = True) -> Tensor:
        """CTC head: (B, T, 37) per-frame log-probabilities."""
        h = self.features(x, training)
        b, t, d = h.shape
        logits = matmul(h.reshape(b * t, d), self.ctc_w.T) + self.ctc_b
        return log_softmax(logits, axis=1).reshape(b, t, NUM_CLASSES)

    def loss(self, x: Tensor, labels, mode: str = "train") -> Tensor:
        """Mean negative log-likelihood; mode "train", or "eval" (inference under ``no_grad``)."""
        if mode not in ("train", "eval"):
            raise ValueError(f"loss mode must be 'train' or 'eval', got {mode!r}")
        training = mode == "train"
        encoded = [CODEC.encode(lbl) for lbl in labels]
        with contextlib.nullcontext() if training else no_grad():
            if self.attn is None:
                return ctc_loss_batch(self.frame_log_probs(x, training), encoded)
            return attn_loss_batch(self.features(x, training), encoded, self.attn)

    def decode(self, x: Tensor, max_len: int = 25):
        """Greedy predictions for a batch of images, at most max_len characters each.

        Runs under ``no_grad``: no autograd graph is built, so every
        intermediate is freed as soon as nothing refers to it.
        """
        with no_grad():
            if self.attn is None:
                lp = self.frame_log_probs(x, False)
                return [ctc_greedy_decode(lp.data[i])[:max_len] for i in range(lp.shape[0])]
            h = self.features(x, False)
            return attn_greedy_decode_batch(h, self.attn, max_len=max_len)

    # -- checkpointing -------------------------------------------------------

    def save(self, path, extra=None):
        """Write the model state (`ParamStore.state`); the header names the config."""
        arrays, initialized = self.store.state()
        merged = {"config": self.cfg.name, "scale": self.cfg.scale,
                  "num_fiducials": self.cfg.num_fiducials, **(extra or {}),
                  "bn_initialized": initialized}
        ckpt.save_params(path, arrays, extra=merged)

    def load(self, path):
        """Read a checkpoint saved by a model of this config; returns its header."""
        params, extra = ckpt.load_params(path)
        saved = (extra.get("config"), extra.get("scale"), extra.get("num_fiducials"))
        own = (self.cfg.name, self.cfg.scale, self.cfg.num_fiducials)
        if saved != own:
            raise ConfigError(f"checkpoint (config, scale, num_fiducials) {saved} "
                              f"does not match the model's {own}")
        self.store.load_state(params, extra.get("bn_initialized", []))
        return extra


def assemble(cfg, dtype=np.float32, initialize=True) -> Model:
    if isinstance(cfg, str):
        cfg = PipelineConfig.from_string(cfg)
    model = Model(cfg, dtype=dtype)
    if initialize:
        model.initialize()
    return model


# -- optimizer --------------------------------------------------------------------


class AdaDeltaState:
    """Per-parameter running averages E[g^2] and E[dx^2]."""

    def __init__(self):
        self.sq_grad = {}
        self.sq_delta = {}

    def slots(self, name, shape):
        if name not in self.sq_grad:
            self.sq_grad[name] = np.zeros(shape, dtype=np.float64)
            self.sq_delta[name] = np.zeros(shape, dtype=np.float64)
        return self.sq_grad[name], self.sq_delta[name]


ADADELTA_EPS = 1e-6  # AdaDelta's conditioning constant, in both root terms


def adadelta_step(params: dict, grads: dict, state: AdaDeltaState, rho: float = 0.95) -> None:
    """One AdaDelta update, in place."""
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        eg2, edx2 = state.slots(name, p.shape)
        eg2 *= rho
        eg2 += (1.0 - rho) * np.square(g)
        dx = -np.sqrt(edx2 + ADADELTA_EPS) / np.sqrt(eg2 + ADADELTA_EPS) * g
        edx2 *= rho
        edx2 += (1.0 - rho) * np.square(dx)
        p.data[...] = (p.data + dx).astype(p.dtype)


def clip_gradients(grads: dict, magnitude: float = 5.0) -> float:
    """Rescale gradients to the clip magnitude; returns the pre-clip norm.

    The norm is global: taken over the concatenated gradient vector.
    """
    total = math.sqrt(sum(float(np.square(g).sum()) for g in grads.values()))
    if total > magnitude and total > 0:
        scale = magnitude / total
        for g in grads.values():
            g *= scale
    return total


# -- training ---------------------------------------------------------------------


@dataclass
class TrainRecipe:
    rho: float = 0.95
    clip: float = 5.0
    batch_size: int = 32
    iterations: int = 3000
    val_interval: int = 200
    fraction: float = 1.0
    seed: int = 0
    stop_accuracy: float = None  # early stop once val accuracy reaches this

    def __post_init__(self):
        for name in ("batch_size", "iterations", "val_interval"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        # a clip <= 0 flips or zeroes every update, a rho outside [0, 1) can take
        # the root of a negative, and a NaN stop accuracy never stops: usage
        # errors, not runs
        stop = self.stop_accuracy
        for name, ok, rule in (("fraction", 0.0 < self.fraction <= 1.0, "in (0, 1]"),
                               ("clip", self.clip > 0.0, "> 0"),
                               ("rho", 0.0 <= self.rho < 1.0, "in [0, 1)"),
                               ("stop_accuracy", stop is None or not math.isnan(stop),
                                "a number")):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass
class TrainResult:
    best_step: int
    best_accuracy: float
    log: list = field(default_factory=list)  # rows of (step, loss, val_accuracy)

    def log_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["step", "loss", "val_accuracy"])
        for row in self.log:
            w.writerow(row)
        return buf.getvalue()

    def write_log(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.log_csv())


def validate(model: Model, images, labels, batch_size: int = 64) -> float:
    """Word accuracy (normalized comparison) of greedy decoding; ConfigError on an empty set."""
    n = images.shape[0]
    if n == 0:
        raise ConfigError("the validation set is empty")
    preds = []
    for s in range(0, n, batch_size):
        preds += model.decode(Tensor(images[s:s + batch_size]))
    return word_accuracy(preds, labels)


def _training_indices(n: int, fraction: float, seed: int) -> np.ndarray:
    """Deterministic prefix of a seeded shuffle; fraction 1.0 keeps all."""
    perm = np.random.default_rng(seed).permutation(n)
    keep = max(1, math.ceil(fraction * n))
    return perm[:keep]


def train(model: Model, recipe: TrainRecipe, train_set, val_set) -> TrainResult:
    """AdaDelta training with periodic validation.

    Retains the model state (parameters and batch-norm statistics) of the
    highest-validation-accuracy step (earliest step wins ties), leaves the
    model holding it and returns that step with the (step, loss, val_accuracy) log.
    `train_set`/`val_set` expose .images and .labels. A non-finite loss or
    pre-clip gradient norm restores that state (the initial one before the
    first validation) and raises FloatingPointError. An empty training or
    validation set raises ConfigError.
    """
    for what, data in (("training", train_set), ("validation", val_set)):
        if len(data.labels) == 0:
            raise ConfigError(f"the {what} set is empty")
    pool = _training_indices(len(train_set.labels), recipe.fraction, recipe.seed)
    rng = np.random.default_rng(recipe.seed + 1)
    params = model.params()
    state = AdaDeltaState()

    best_acc, best_step = -1.0, -1
    best_state = model.store.state()
    log = []
    for it in range(1, recipe.iterations + 1):
        idx = pool[rng.integers(0, len(pool), size=recipe.batch_size)]
        x = Tensor(train_set.images[idx])
        labels = [train_set.labels[int(i)] for i in idx]
        loss = model.loss(x, labels)
        for p in params.values():
            p.zero_grad()
        loss.backward()
        grads = {name: p.grad for name, p in params.items() if p.grad is not None}
        norm = clip_gradients(grads, recipe.clip)
        if not (math.isfinite(loss.item()) and math.isfinite(norm)):
            model.store.load_state(*best_state)
            raise FloatingPointError(f"non-finite loss {loss.item()} or gradient norm "
                                     f"{norm} at step {it}; best state restored")
        adadelta_step(params, grads, state, rho=recipe.rho)

        if it % recipe.val_interval == 0 or it == recipe.iterations:
            acc = validate(model, val_set.images, val_set.labels)
            log.append((it, float(loss.item()), acc))
            if acc > best_acc:
                best_acc, best_step = acc, it
                best_state = model.store.state()
            if recipe.stop_accuracy is not None and acc >= recipe.stop_accuracy:
                break
    model.store.load_state(*best_state)
    return TrainResult(best_step=best_step, best_accuracy=best_acc, log=log)


def fraction_sweep(cfg: PipelineConfig, recipe: TrainRecipe, fractions,
                   train_set, val_set):
    """Train one model per dataset fraction; returns [(fraction, accuracy)].

    Every fraction's recipe is built, and so checked, before any training.
    """
    recipes = [replace(recipe, fraction=float(frac)) for frac in fractions]
    table = []
    for r in recipes:
        result = train(assemble(cfg), r, train_set, val_set)
        table.append((r.fraction, result.best_accuracy))
    return table
