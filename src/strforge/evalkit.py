"""Evaluation protocol and dataset hygiene.

Works over manifests (JSON-lines of image reference, ground-truth label,
dataset name, scene identifier, optional content digest) rather than bundled
images. Provides the case-folding alphanumeric label normalization, benchmark
subset filters with before/after reports, the train/eval duplicate scan, the
unified 8,539-image evaluation composition, and a wall-clock timing probe.
"""

from __future__ import annotations

import json
import platform
import re
import time
from dataclasses import dataclass, field

DATASETS = ("IIIT", "SVT", "IC03", "IC13", "IC15", "SP", "CT")

# Declared subset sizes for the unified evaluation composition.
UNIFIED_COMPOSITION = {
    "IIIT": 3000,
    "SVT": 647,
    "IC03": 867,
    "IC13": 1015,
    "IC15": 2077,
    "SP": 645,
    "CT": 288,
}
UNIFIED_TOTAL = sum(UNIFIED_COMPOSITION.values())  # 8539

REGULAR = ("IIIT", "SVT", "IC03", "IC13")
IRREGULAR = ("IC15", "SP", "CT")

_NORMALIZE_RE = re.compile(r"[^0-9a-z]")


class EvalConfigError(ValueError):
    """Invalid dataset/variant selection or missing exclusion list."""


def normalize_label(s: str) -> str:
    """Lowercase and strip every non-alphanumeric character."""
    return _NORMALIZE_RE.sub("", s.lower())


def word_accuracy(preds, gts) -> float:
    """Percentage of samples whose normalized prediction equals the label."""
    if len(preds) != len(gts):
        raise ValueError("prediction and ground-truth counts differ")
    if not gts:
        return 0.0
    hits = sum(normalize_label(p) == normalize_label(g) for p, g in zip(preds, gts))
    return 100.0 * hits / len(gts)


@dataclass(frozen=True)
class Entry:
    image: str
    label: str
    dataset: str = "custom"
    scene: str = ""
    digest: str = ""

    def to_json_dict(self):
        out = {"image": self.image, "label": self.label, "dataset": self.dataset,
               "scene": self.scene}
        if self.digest:
            out["digest"] = self.digest
        return out


@dataclass
class Manifest:
    entries: list = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            if e.image in seen:
                raise ValueError(f"duplicate image reference {e.image!r}")
            seen.add(e.image)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def labels(self):
        return [e.label for e in self.entries]

    @staticmethod
    def load(path) -> "Manifest":
        entries = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                entries.append(Entry(image=obj["image"], label=obj["label"],
                                     dataset=obj.get("dataset", "custom"),
                                     scene=obj.get("scene", ""),
                                     digest=obj.get("digest", "")))
        return Manifest(entries)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for e in self.entries:
                fh.write(json.dumps(e.to_json_dict()) + "\n")


_ALNUM_RE = re.compile(r"^[0-9A-Za-z]+$")


def _rule_ic03(e: Entry) -> bool:
    return len(e.label) >= 3 and bool(_ALNUM_RE.match(e.label))


def _rule_len3(e: Entry) -> bool:
    return len(e.label) >= 3


# dataset -> variant -> (rule predicate or None, needs exclusion list)
_VARIANTS = {
    "IC03": {867: (_rule_ic03, False), 860: (_rule_ic03, True)},
    "IC13": {1015: (None, False), 857: (_rule_len3, False)},
    "IC15": {2077: (None, False), 1811: (None, True)},
}


@dataclass
class FilterReport:
    dataset: str
    variant: int
    before: int
    after: int
    removed_by_rule: int
    removed_by_exclusion: int

    def to_json_dict(self):
        return self.__dict__.copy()


def filter_benchmark(manifest: Manifest, dataset: str, variant: int = None,
                     exclusion: Manifest = None):
    """Apply a benchmark subset filter; returns (Manifest, FilterReport).

    The 860 and 1811 variants subtract entries listed in a caller-supplied
    exclusion manifest (matched by image reference, falling back to digest);
    an exclusion manifest for any other variant raises EvalConfigError.
    """
    if dataset not in DATASETS:
        raise EvalConfigError(f"unknown dataset {dataset!r}")
    variants = _VARIANTS.get(dataset)
    if variants is None:
        if variant is not None and variant != len(manifest):
            raise EvalConfigError(f"{dataset} has a single variant")
        rule, needs_excl = None, False
    else:
        if variant not in variants:
            raise EvalConfigError(
                f"variant {variant!r} invalid for {dataset}; "
                f"choose from {sorted(variants)}")
        rule, needs_excl = variants[variant]
    if exclusion is not None and not needs_excl:
        raise EvalConfigError(f"{dataset}/{variant} takes no exclusion-list manifest")

    before = len(manifest)
    kept = [e for e in manifest if rule is None or rule(e)]
    removed_rule = before - len(kept)

    removed_excl = 0
    if needs_excl:
        if exclusion is None:
            raise EvalConfigError(
                f"{dataset}/{variant} requires an exclusion-list manifest")
        drop_images = {e.image for e in exclusion}
        drop_digests = {e.digest for e in exclusion if e.digest}
        n0 = len(kept)
        kept = [e for e in kept
                if e.image not in drop_images
                and (not e.digest or e.digest not in drop_digests)]
        removed_excl = n0 - len(kept)

    report = FilterReport(dataset=dataset, variant=variant or before,
                          before=before, after=len(kept),
                          removed_by_rule=removed_rule,
                          removed_by_exclusion=removed_excl)
    return Manifest(kept), report


@dataclass
class DedupeReport:
    duplicate_scenes: int
    duplicate_boxes: int
    by_digest: int
    by_scene_label: int  # heuristic fallback matches

    @property
    def heuristic(self):
        return self.by_scene_label > 0

    def to_json_dict(self):
        out = self.__dict__.copy()
        out["heuristic"] = self.heuristic
        return out


def dedupe_scan(train: Manifest, eval_m: Manifest):
    """Find evaluation material leaking into a training manifest.

    Matches word boxes by content digest when both sides carry one, else by
    the (scene identifier, label) pair — the latter is heuristic and flagged.
    Counting is symmetric in the two arguments. Returns the report and the
    train manifest with the duplicates removed.
    """
    eval_digests = {e.digest for e in eval_m if e.digest}
    eval_pairs = {(e.scene, e.label) for e in eval_m if not e.digest and e.scene}

    dup_entries = []
    by_digest = by_pair = 0
    for e in train:
        if e.digest and e.digest in eval_digests:
            dup_entries.append(e)
            by_digest += 1
        elif e.scene and (e.scene, e.label) in eval_pairs:
            dup_entries.append(e)
            by_pair += 1
    scenes = {e.scene for e in dup_entries}
    report = DedupeReport(duplicate_scenes=len(scenes),
                          duplicate_boxes=len(dup_entries),
                          by_digest=by_digest, by_scene_label=by_pair)
    dropped = {e.image for e in dup_entries}
    return report, Manifest([e for e in train if e.image not in dropped])


@dataclass
class EvalRecord:
    name: str
    per_dataset: dict          # dataset -> accuracy %
    counts: dict               # dataset -> sample count
    total: float
    regular: float
    irregular: float
    time_ms: float = 0.0
    params_m: float = 0.0
    flops_g: float = 0.0
    warnings: list = field(default_factory=list)

    def to_json_dict(self):
        return {"name": self.name, "per_dataset": self.per_dataset,
                "counts": self.counts, "total": self.total,
                "regular": self.regular, "irregular": self.irregular,
                "time_ms": self.time_ms, "params_m": self.params_m,
                "flops_g": self.flops_g, "warnings": self.warnings}


def weighted_total(per_dataset, counts, datasets=None) -> float:
    names = list(datasets) if datasets is not None else list(per_dataset)
    n = sum(counts[d] for d in names)
    if n == 0:
        return 0.0
    return sum(counts[d] * per_dataset[d] for d in names) / n


def unified_eval(predictions, manifests, name="model", time_ms=0.0,
                 params_m=0.0, flops_g=0.0) -> EvalRecord:
    """Score per-dataset predictions and aggregate over the unified composition.

    `predictions` and `manifests` are dicts keyed by dataset name; predictions
    are parallel lists of decoded strings. Composition deviations from the
    declared subset sizes are reported as warnings, not errors.
    """
    per, counts, warns = {}, {}, []
    for d, manifest in manifests.items():
        preds = predictions[d]
        gts = manifest.labels() if isinstance(manifest, Manifest) else list(manifest)
        per[d] = word_accuracy(preds, gts)
        counts[d] = len(gts)
        expected = UNIFIED_COMPOSITION.get(d)
        if expected is not None and counts[d] != expected:
            warns.append(f"{d}: {counts[d]} samples, declared composition "
                         f"expects {expected} (delta {counts[d] - expected:+d})")
    total = weighted_total(per, counts)
    regular = weighted_total(per, counts, [d for d in REGULAR if d in per])
    irregular = weighted_total(per, counts, [d for d in IRREGULAR if d in per])
    return EvalRecord(name=name, per_dataset=per, counts=counts, total=total,
                      regular=regular, irregular=irregular, time_ms=time_ms,
                      params_m=params_m, flops_g=flops_g, warnings=warns)


def timing_probe(fn, samples, repetitions: int = 3):
    """Mean wall-clock ms/image of fn(batch) with one warm-up pass.

    Returns (ms_per_image, environment string).
    """
    n = samples.shape[0] if hasattr(samples, "shape") else len(samples)
    fn(samples)  # warm-up
    t0 = time.perf_counter()
    for _ in range(repetitions):
        fn(samples)
    elapsed = time.perf_counter() - t0
    env = f"{platform.platform()} python={platform.python_version()}"
    return 1000.0 * elapsed / (repetitions * max(n, 1)), env
