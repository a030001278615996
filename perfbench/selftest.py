"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

Checks that the metrics the benchmark emits match BENCHMARK.json by name and
unit, that tracing puts back every attribute it wraps, and that tracing does
not change what the program computes.
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from strforge import arch, checkpoint, pipeline, predict, seqmodel, tensor, toydata, tps  # noqa: E402
from strforge.pipeline import PipelineConfig, TrainRecipe, assemble  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import DecodeCapture, Tracer  # noqa: E402

TINY = ("TPS-VGG-BiLSTM-Attn", "None-RCNN-None-CTC")
MODULES = (pipeline, tensor, checkpoint, toydata)
CLASSES = (pipeline.Model, arch.Net, tps.TpsTransformer, seqmodel.BiLSTMStack,
           predict.AttnDecoder, tensor.Tensor)


def tiny_run(name, tracer=None):
    """Train a tiny model for two steps; returns (held-out loss, decoded strings)."""
    cfg = PipelineConfig.from_string(name, scale=0.125, seed=0)
    model = assemble(cfg)
    train_set = toydata.synth_toydata(16, seed=1)
    val_set = toydata.synth_toydata(4, seed=2)
    recipe = TrainRecipe(batch_size=4, iterations=2, val_interval=2, seed=3)
    if tracer is not None:
        tracer.install([model])
    try:
        pipeline.train(model, recipe, train_set, val_set)
        strings = model.decode(tensor.Tensor(val_set.images))
        loss = workloads.heldout_loss(model, val_set)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return loss, strings


def snapshot(models=()):
    owners = list(MODULES) + list(CLASSES)
    for model in models:
        nets = [model.feat] + ([model.tps.loc_net] if model.tps is not None else [])
        owners += [layer for net in nets for layer in net.layers]
    return [(o, dict(vars(o))) for o in owners]


class SelfTest(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         workloads.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         workloads.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(set(run.WORKLOADS), set(workloads.TRAIN_PRESETS) | {"infer-24"})

    def test_tracing_restores_every_wrapper(self):
        model = assemble(PipelineConfig.from_string(TINY[0], scale=0.125))
        before = snapshot([model])
        tracer, capture = Tracer(), DecodeCapture()
        capture.install()
        tracer.install([model])
        self.assertNotEqual(before, snapshot([model]))
        self.assertEqual(tracer.uninstall(), [])
        self.assertEqual(capture.uninstall(), [])
        after = snapshot([model])
        for (owner, old), (_, new) in zip(before, after):
            self.assertEqual(old.keys(), new.keys(), owner)
            for key in old:
                self.assertIs(old[key], new[key], f"{owner}.{key}")

    def test_tracing_changes_no_result(self):
        for name in TINY:
            with self.subTest(name=name):
                tracer = Tracer()
                plain = tiny_run(name)
                traced = tiny_run(name, tracer)
                self.assertEqual(plain, traced)
                self.assertGreater(len(tracer.spans), 0)
                self.assertFalse(tracer.installed)


if __name__ == "__main__":
    unittest.main()
