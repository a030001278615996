"""Command-line entry point.

Subcommands: train, eval, describe, audit, frontier, synthgen. Every run
writes its outputs under --out together with a manifest.json summary (flags,
seed, versions, wall time). Exit codes: 0 success, 2 usage error, 3 data
error (including a checkpoint whose batch-norm layers hold no statistics),
4 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .checkpoint import load_params
from .evalkit import (
    EvalConfigError,
    Manifest,
    dedupe_scan,
    filter_benchmark,
    unified_eval,
    word_accuracy,
)
from .pipeline import (
    ConfigError,
    PipelineConfig,
    TrainRecipe,
    assemble,
    fraction_sweep,
    synth_toydata,
    train,
    validate,
)
from .predict import CodecError
from .tensor import StateError
from .toydata import MAX_WORD_LEN
from .tps import DegenerateFiducialsError
from .tradeoff import emit_report, load_fixture

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _write_run_manifest(out_dir, args, t0):
    summary = {
        "command": args.command,
        "flags": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "seed": getattr(args, "seed", None),
        "versions": {"strforge": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "wall_time_s": round(time.time() - t0, 3),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(summary, fh, indent=2)


def _prep_out(args):
    os.makedirs(args.out, exist_ok=True)


# -- subcommands ---------------------------------------------------------------------


def cmd_train(args):
    _prep_out(args)
    cfg = PipelineConfig.from_string(args.pipeline, scale=args.scale,
                                     seed=args.seed)
    tr = synth_toydata(args.train_size, max_len=args.max_len, seed=args.seed + 1)
    va = synth_toydata(args.val_size, max_len=args.max_len, seed=args.seed + 2)
    recipe = TrainRecipe(rho=args.rho, clip=args.clip, batch_size=args.batch,
                         iterations=args.iters, val_interval=args.val_every,
                         fraction=args.fraction, seed=args.seed,
                         stop_accuracy=args.stop_accuracy)
    if args.fractions:
        try:
            fracs = [float(f) for f in args.fractions.split(",")]
        except ValueError:
            raise ConfigError("--fractions must be a comma list of numbers, "
                              f"got {args.fractions!r}") from None
        table = fraction_sweep(cfg, recipe, fracs, tr, va)
        with open(os.path.join(args.out, "fraction_sweep.csv"), "w") as fh:
            fh.write("fraction,val_accuracy\n")
            for f, acc in table:
                fh.write(f"{f},{acc}\n")
        print("fraction sweep:", table)
        return EXIT_OK
    model = assemble(cfg)
    result = train(model, recipe, tr, va)
    model.save(os.path.join(args.out, "checkpoint.bin"),
               extra={"best_step": result.best_step,
                      "best_accuracy": result.best_accuracy})
    result.write_log(os.path.join(args.out, "train_log.csv"))
    print(f"best step {result.best_step}: val accuracy "
          f"{result.best_accuracy:.2f}%")
    return EXIT_OK


def _at_least(low, high=None):
    def count(text):  # an argparse type: an integer no smaller than low, nor larger than high
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        if high is not None and int(text) > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {text}")
        return int(text)
    return count


def _parse_kv(pairs, what):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise EvalConfigError(f"{what} expects DATASET=value, got {item!r}")
        k, v = item.split("=", 1)
        if k in out:
            raise EvalConfigError(f"{what} names dataset {k!r} twice")
        out[k] = v
    return out


def _checkpoint_config(args):
    """The config a checkpoint's header names; --pipeline and --scale, if given, must agree."""
    _, extra = load_params(args.checkpoint)
    cfg = PipelineConfig.from_string(extra["config"], scale=extra["scale"],
                                     num_fiducials=extra["num_fiducials"], seed=args.seed)
    if args.pipeline is not None and PipelineConfig.from_string(args.pipeline).name != cfg.name:
        raise ConfigError(f"--pipeline {args.pipeline} does not match the checkpoint's "
                          f"{cfg.name}")
    if args.scale is not None and args.scale != cfg.scale:
        raise ConfigError(f"--scale {args.scale} does not match the checkpoint's {cfg.scale}")
    return cfg


def cmd_eval(args):
    _prep_out(args)
    paths = _parse_kv(args.manifest, "--manifest")
    exclusions = _parse_kv(args.exclusion, "--exclusion")
    variants = _parse_kv(args.subset, "--subset")
    pred_paths = _parse_kv(args.preds, "--preds")
    if not set(variants) | set(exclusions) | set(pred_paths) <= set(paths):
        raise EvalConfigError("--subset, --exclusion and --preds take only datasets that have "
                              "a --manifest")
    if not set(exclusions) <= set(variants):
        raise EvalConfigError("--exclusion takes only datasets that have a --subset")
    if not all(v.isdecimal() for v in variants.values()):
        raise EvalConfigError(f"--subset expects DATASET=integer, got {args.subset}")
    if paths:
        manifests, reports = {}, []
        for d, path in paths.items():
            m = Manifest.load(path)
            if d in variants:
                excl = (Manifest.load(exclusions[d]) if d in exclusions else None)
                m, rep = filter_benchmark(m, d, int(variants[d]), exclusion=excl)
                reports.append(rep.to_json_dict())
            manifests[d] = m
        preds = {}
        for d, path in pred_paths.items():
            with open(path) as fh:
                preds[d] = [json.loads(ln)["pred"] for ln in fh if ln.strip()]
        missing = set(manifests) - set(preds)
        if missing:
            raise EvalConfigError(f"missing --preds for datasets {sorted(missing)}")
        record = unified_eval(preds, manifests, name=args.name)
        out = record.to_json_dict()
        out["filter_reports"] = reports
    else:
        if not args.checkpoint:
            raise EvalConfigError("eval needs either --manifest/--preds or "
                                  "--checkpoint")
        cfg = _checkpoint_config(args)
        model = assemble(cfg, initialize=False)
        model.load(args.checkpoint)
        va = synth_toydata(args.val_size, max_len=args.max_len, seed=args.seed + 2)
        acc = validate(model, va.images, va.labels)
        out = {"name": cfg.name, "per_dataset": {"custom": acc},
               "counts": {"custom": len(va.labels)}, "total": acc}
    with open(os.path.join(args.out, "record.json"), "w") as fh:
        json.dump(out, fh, indent=2)
    print(json.dumps(out))
    return EXIT_OK


def cmd_describe(args):
    cfg = PipelineConfig.from_string(args.pipeline, scale=args.scale)
    lines = [f"pipeline: {cfg.name} (scale {cfg.scale})"]
    model = assemble(cfg, initialize=False)
    desc = model.feat_graph.describe()
    for row in desc["layers"]:
        shape = "x".join(str(s) for s in row["output_shape"])
        lines.append(f"  {row['layer']:<14s} {row['kind']:<9s} "
                     f"out={shape:<12s} params={row['params']:,}")
    for note in desc["warnings"]:
        lines.append(f"  note: {note}")
    total = model.param_element_count()
    lines.append(f"feature extractor params: {desc['param_count']:,} | "
                 f"FLOPs: {desc['flop_count']:,} | "
                 f"trainable layers: {desc['trainable_layers']}")
    lines.append(f"total pipeline params: {total:,} ({total / 1e6:.2f}M)")
    text = "\n".join(lines)
    print(text)
    if args.out:
        _prep_out(args)
        with open(os.path.join(args.out, "describe.txt"), "w") as fh:
            fh.write(text + "\n")
        if args.tps and model.tps is not None:
            from .tps import generate_grid, solve_transform
            h, w = model.tps.out_size
            transform = solve_transform(model.tps.base, model.tps.delta)
            target, source = generate_grid(transform, model.tps.delta, h, w)
            with open(os.path.join(args.out, "tps_grid.json"), "w") as fh:
                json.dump({"height": h, "width": w, "target": target.T.tolist(),
                           "source": source.T.tolist()}, fh)
    return EXIT_OK


def cmd_audit(args):
    _prep_out(args)
    train_m = Manifest.load(args.train_manifest)
    eval_m = Manifest.load(args.eval_manifest)
    report, clean = dedupe_scan(train_m, eval_m)
    out = report.to_json_dict()
    if args.emit_clean:
        clean_path = os.path.join(args.out, "train_clean.jsonl")
        clean.save(clean_path)
        out["clean_manifest"] = clean_path
    with open(os.path.join(args.out, "audit.json"), "w") as fh:
        json.dump(out, fh, indent=2)
    print(json.dumps(out))
    return EXIT_OK


def cmd_frontier(args):
    _prep_out(args)
    rows = load_fixture(args.results)
    report = emit_report(rows, out_dir=args.out)
    for cost in ("time_ms", "params_m"):
        ids = json.loads(report["json"])["frontiers"][cost]["pareto_ids"]
        print(f"{cost} frontier ids: {ids}")
    return EXIT_OK


def cmd_synthgen(args):
    _prep_out(args)
    data = synth_toydata(args.n, max_len=args.max_len, seed=args.seed)
    img_path = os.path.join(args.out, "images.npy")
    np.save(img_path, data.images)
    entries = []
    for i, label in enumerate(data.labels):
        digest = hashlib.sha256(data.images[i].tobytes()).hexdigest()
        entries.append({"image": f"images.npy#{i}", "label": label,
                        "dataset": "custom", "scene": f"synth-{args.seed}-{i}",
                        "digest": digest})
    with open(os.path.join(args.out, "manifest.jsonl"), "w") as fh:
        for e in entries:
            fh.write(json.dumps(e) + "\n")
    print(f"wrote {args.n} samples to {args.out}")
    return EXIT_OK


# -- parser --------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="strforge",
                                description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_pipeline(sp, scale=1.0):
        sp.add_argument("--pipeline", required=True,
                        help="'Trans-Feat-Seq-Pred' string or preset name")
        sp.add_argument("--scale", type=float, default=scale,
                        help=f"channel scale factor (default {scale})")

    t = sub.add_parser("train", help="train a combination on synthetic data")
    add_pipeline(t, scale=0.125)
    t.add_argument("--seed", type=_at_least(0), default=0, help="RNG seed (default 0)")
    t.add_argument("--rho", type=float, default=0.95, help="AdaDelta decay")
    t.add_argument("--clip", type=float, default=5.0, help="gradient clip norm")
    t.add_argument("--batch", type=int, default=32, help="batch size")
    t.add_argument("--iters", type=int, default=3000, help="iteration budget")
    t.add_argument("--val-every", type=int, default=200, help="validation interval")
    frac = t.add_mutually_exclusive_group()
    frac.add_argument("--fraction", type=float, default=1.0,
                      help="training-set fraction in (0,1]")
    frac.add_argument("--fractions", default=None,
                      help="comma list for a fraction sweep, e.g. 0.2,0.4,1.0")
    t.add_argument("--train-size", type=_at_least(0), default=2000, help="synthetic set size")
    t.add_argument("--val-size", type=_at_least(0), default=200, help="validation set size")
    t.add_argument("--max-len", type=_at_least(1, MAX_WORD_LEN), default=5, help="max label length")
    t.add_argument("--stop-accuracy", type=float, default=None,
                   help="early-stop validation accuracy")
    t.add_argument("--out", required=True, help="output directory")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate predictions or a checkpoint")
    e.add_argument("--pipeline", default=None,
                   help="checkpoint mode: must match the checkpoint's combination")
    e.add_argument("--scale", type=float, default=None,
                   help="checkpoint mode: must match the checkpoint's channel scale")
    e.add_argument("--seed", type=_at_least(0), default=0, help="RNG seed (default 0)")
    e.add_argument("--checkpoint", default=None, help="checkpoint to score")
    e.add_argument("--val-size", type=_at_least(0), default=200, help="synthetic eval size")
    e.add_argument("--max-len", type=_at_least(1, MAX_WORD_LEN), default=5, help="max label length")
    e.add_argument("--manifest", action="append", default=None,
                   metavar="DATASET=PATH", help="ground-truth manifest per dataset")
    e.add_argument("--preds", action="append", default=None,
                   metavar="DATASET=PATH",
                   help="JSON-lines prediction file per dataset")
    e.add_argument("--subset", action="append", default=None,
                   metavar="DATASET=VARIANT",
                   help="benchmark variant, e.g. IC03=867 or IC03=860")
    e.add_argument("--exclusion", action="append", default=None,
                   metavar="DATASET=PATH", help="exclusion-list manifest")
    e.add_argument("--name", default="model", help="record name")
    e.add_argument("--out", required=True, help="output directory")
    e.set_defaults(func=cmd_eval)

    d = sub.add_parser("describe", help="shape/param/FLOP report")
    add_pipeline(d)
    d.add_argument("--tps", action="store_true",
                   help="also export the identity TPS grid as JSON")
    d.add_argument("--out", default=None, help="optional output directory")
    d.set_defaults(func=cmd_describe)

    a = sub.add_parser("audit", help="train/eval duplicate scan")
    a.add_argument("--train-manifest", required=True, help="training manifest")
    a.add_argument("--eval-manifest", required=True, help="evaluation manifest")
    a.add_argument("--emit-clean", action="store_true",
                   help="write the deduplicated training manifest")
    a.add_argument("--out", required=True, help="output directory")
    a.set_defaults(func=cmd_audit)

    f = sub.add_parser("frontier", help="Pareto frontier + marginal report")
    f.add_argument("--results", default=None,
                   help="results CSV (default: bundled 24-row fixture)")
    f.add_argument("--out", required=True, help="output directory")
    f.set_defaults(func=cmd_frontier)

    s = sub.add_parser("synthgen", help="generate a synthetic toy dataset")
    s.add_argument("--n", type=_at_least(0), default=1000, help="sample count")
    s.add_argument("--seed", type=_at_least(0), default=0, help="RNG seed (default 0)")
    s.add_argument("--max-len", type=_at_least(1, MAX_WORD_LEN), default=5, help="max label length")
    s.add_argument("--out", required=True, help="output directory")
    s.set_defaults(func=cmd_synthgen)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        code = args.func(args)
    except (ConfigError, EvalConfigError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegenerateFiducialsError, FloatingPointError, np.linalg.LinAlgError,
            OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FileNotFoundError, json.JSONDecodeError, KeyError, CodecError,
            StateError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    if getattr(args, "out", None):
        _write_run_manifest(args.out, args, t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
