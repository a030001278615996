import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strforge.arch import (
    ArchWarning,
    BUILDERS,
    build_localization_net,
    build_rcnn,
    build_resnet,
    build_vgg,
)
from strforge.tensor import ParamStore, Tensor, no_grad


def shapes_of(graph):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return dict(graph.infer_shapes())


class TestShapeTables:
    def test_vgg_table_entries(self):
        s = shapes_of(build_vgg())
        assert s["pool1"] == (64, 16, 50)
        assert s["pool2"] == (128, 8, 25)
        assert s["pool3"] == (256, 4, 25)
        assert s["pool4"] == (512, 2, 25)
        assert s["conv7"] == (512, 1, 24)

    def test_rcnn_table_entries_and_flagged_warning(self):
        g = build_rcnn()
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            s = dict(g.infer_shapes())
        assert s["grcl3"] == (256, 4, 26)
        assert s["pool4"] == (256, 2, 27)
        assert s["conv2"] == (512, 1, 26)
        assert any(issubclass(w.category, ArchWarning) and "conv2" in str(w.message)
                   for w in rec)

    def test_resnet_table_entries(self):
        s = shapes_of(build_resnet())
        assert s["block1"] == (128, 16, 50)
        assert s["block2"] == (256, 8, 25)
        assert s["block3"] == (512, 4, 26)
        assert s["conv6"] == (512, 2, 27)
        assert s["conv7"] == (512, 1, 26)

    def test_localization_table_entries(self):
        s = shapes_of(build_localization_net(20))
        assert s["pool3"] == (256, 4, 12)
        assert s["apool"] == (512,)
        assert s["fc1"] == (256,)
        assert s["fc2"] == (40,)


GRAPHS = dict(BUILDERS, loc=lambda scale: build_localization_net(20, scale=scale))

# (param_count, flop_count, describe()["trainable_layers"]), exact.
PINNED = {
    ("vgg", 1.0): (5_549_824, 1_233_666_048, 7),
    ("vgg", 0.125): (87_136, 19_679_232, 7),
    ("rcnn", 1.0): (1_839_744, 1_266_958_336, 14),
    ("rcnn", 0.125): (29_264, 20_199_424, 14),
    ("resnet", 1.0): (44_263_904, 10_089_668_608, 29),
    ("resnet", 0.125): (694_696, 159_926_272, 29),
    ("loc", 1.0): (1_692_392, 353_144_832, 6),
    ("loc", 0.125): (27_904, 5_923_328, 6),
}


class TestCounts:
    @pytest.mark.parametrize("name,scale", list(PINNED))
    def test_pinned_counts(self, name, scale):
        g = GRAPHS[name](scale=scale)
        counts = (g.param_count(), g.flop_count(), g.describe()["trainable_layers"])
        assert counts == PINNED[name, scale]
        d = g.describe()
        assert (d["param_count"], d["flop_count"], d["trainable_layers"]) == counts
        assert sum(row["params"] for row in d["layers"]) == counts[0]

    def test_vgg_param_count(self):
        assert build_vgg().param_count() == 5_549_824

    def test_rcnn_param_count(self):
        n = build_rcnn().param_count()
        assert abs(n - 1.8e6) / 1.8e6 < 0.15

    def test_resnet_param_count(self):
        n = build_resnet().param_count()
        assert abs(n - 44.3e6) / 44.3e6 < 0.10

    def test_resnet_trainable_layers_29(self):
        assert build_resnet().describe()["trainable_layers"] == 29

    def test_localization_param_count(self):
        n = build_localization_net(20).param_count()
        assert abs(n - 1.7e6) / 1.7e6 < 0.10

    def test_vgg_flops(self):
        f = build_vgg().flop_count()
        assert abs(f - 1.2e9) / 1.2e9 < 0.25

    def test_counts_match_instantiated_params(self):
        for name, builder in GRAPHS.items():
            g = builder(scale=0.125)
            store = ParamStore(np.float32)
            g.instantiate(store)
            assert sum(p.size for p in store.tensors.values()) == g.param_count(), name


class TestScaling:
    @given(st.sampled_from([16, 64, 256, 512]),
           st.sampled_from([0.125, 0.25, 0.5, 1.0]))
    @settings(max_examples=16, deadline=None)
    def test_channel_scaling_floor(self, c, scale):
        g = build_vgg(scale=scale)
        expect = c if scale >= 1.0 else max(8, int(np.ceil(c * scale)))
        assert g.scaled(c) == expect

    def test_scaled_floor_cases(self):
        assert build_vgg(scale=1.0).scaled(512) == 512
        assert build_vgg(scale=0.125).scaled(512) == 64
        assert build_vgg(scale=0.125).scaled(16) == 8  # floor at 8

    def test_scaled_forward_shapes(self):
        for name, builder in BUILDERS.items():
            g = builder(scale=0.125)
            net = g.instantiate(ParamStore(np.float64))
            x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 32, 100)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                y = net.forward(x, True)
            assert y.shape[0] == 2 and y.shape[2] == 1, name
            assert (y.shape[1], y.shape[2], y.shape[3]) == net.output_shape, name

    def test_describe_contains_warnings_field(self):
        d = build_rcnn().describe()
        assert d["param_count"] > 0 and isinstance(d["warnings"], list)

    def test_output_head_not_scaled(self):
        s = shapes_of(build_localization_net(20, scale=0.125))
        assert s["fc2"] == (40,)


class TestRunnable:
    def test_eval_mode_uses_running_stats(self):
        g = build_vgg(scale=0.125)
        store = ParamStore(np.float64)
        net = g.instantiate(store)
        rng = np.random.default_rng(1)
        for p in store.tensors.values():
            p.data[...] = rng.normal(0, 0.05, p.shape)
        x = Tensor(rng.normal(size=(2, 1, 32, 100)))
        net.forward(x, True)
        with no_grad():
            a = net.forward(x, False).data
            b = net.forward(x, False).data
        assert np.array_equal(a, b)

    def test_backward_reaches_all_params(self):
        g = build_rcnn(scale=0.125)
        store = ParamStore(np.float64)
        net = g.instantiate(store)
        rng = np.random.default_rng(2)
        for p in store.tensors.values():
            p.data[...] = rng.normal(0, 0.1, p.shape)
        x = Tensor(rng.normal(size=(1, 1, 32, 100)))
        net.forward(x, True).sum().backward()
        missing = [k for k, p in store.tensors.items() if p.grad is None]
        assert not missing
