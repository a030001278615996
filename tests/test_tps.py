import numpy as np
import pytest

from strforge import tensor as tc
from strforge.tensor import ParamStore, Tensor
from strforge.tps import (
    DegenerateFiducialsError,
    DeltaFactorization,
    TpsTransformer,
    base_fiducials,
    generate_grid,
    solve_transform,
    warp_points,
)


class TestBaseLayout:
    def test_shape_and_edges(self):
        base = base_fiducials(20)
        assert base.shape == (2, 20)
        assert np.all(base[1, :10] == -1.0) and np.all(base[1, 10:] == 1.0)
        assert base[0, 0] == -1.0 and base[0, 9] == 1.0

    @pytest.mark.parametrize("bad", [3, 5, 2, 0, -4])
    def test_invalid_counts(self, bad):
        with pytest.raises(ValueError):
            base_fiducials(bad)


class TestSolve:
    def test_identity_grid_exact(self):
        base = base_fiducials(20)
        delta = DeltaFactorization(base)
        t = solve_transform(base, delta)
        target, source = generate_grid(t, delta, 32, 100)
        assert np.abs(source - target).max() < 1e-9

    def test_interpolation_property_100_seeds(self):
        for f in (6, 20):
            base = base_fiducials(f)
            delta = DeltaFactorization(base)
            for seed in range(100):
                rng = np.random.default_rng(seed)
                pred = base + rng.normal(0, 0.15, base.shape)
                t = solve_transform(pred, delta)
                mapped = warp_points(t, base, base)
                assert np.abs(mapped - pred).max() < 1e-9

    def test_affine_subsumption(self):
        base = base_fiducials(8)
        delta = DeltaFactorization(base)
        a = np.array([[0.8, 0.1], [-0.05, 1.1]])
        b = np.array([[0.02], [-0.3]])
        pred = a @ base + b
        t = solve_transform(pred, delta)
        rng = np.random.default_rng(0)
        probes = rng.uniform(-1, 1, (2, 50))
        assert np.abs(warp_points(t, base, probes) - (a @ probes + b)).max() < 1e-8

    def test_degenerate_base_raises(self):
        pts = np.zeros((2, 6))  # all coincident
        with pytest.raises(DegenerateFiducialsError):
            DeltaFactorization(pts)

    def test_collinear_base_raises(self):
        pts = np.stack([np.linspace(-1.0, 1.0, 6), np.linspace(-0.3, 0.5, 6)])
        with pytest.raises(DegenerateFiducialsError):
            DeltaFactorization(pts)

    def test_non_finite_base_raises_value_error(self):
        pts = base_fiducials(6)
        pts[1, 2] = np.nan
        with pytest.raises(ValueError) as exc:
            DeltaFactorization(pts)
        assert not isinstance(exc.value, DegenerateFiducialsError)

    def test_every_even_count_builds(self):
        for f in range(4, 41, 2):
            delta = DeltaFactorization(base_fiducials(f))
            assert np.allclose(delta.inverse @ delta.delta, np.eye(f + 3), atol=1e-9)

    def test_radial_kernel_convention(self):
        # d^2 ln d at d=0 is defined as 0: identical points give zero entries.
        base = base_fiducials(4)
        delta = DeltaFactorization(base)
        f = 4
        assert np.allclose(np.diag(delta.delta[:f, 3:]), 0.0)


class TestTransformer:
    def test_identity_after_reset_head(self):
        tr = TpsTransformer(ParamStore(np.float64), num_fiducials=20, scale=0.125)
        tr.reset_head()
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 1, 32, 100)))
        out = tr.forward(x, True)  # zeroed head ignores the BN batch stats
        assert out.shape == (2, 1, 32, 100)
        assert np.abs(out.data - x.data).max() < 1e-6

    def test_grid_arrays_row_major(self):
        base = base_fiducials(6)
        delta = DeltaFactorization(base)
        target, source = generate_grid(solve_transform(base, delta), delta, 4, 5)
        assert target.shape == source.shape == (2, 20)
        assert np.array_equal(target[:, :5], [np.linspace(-1.0, 1.0, 5), [-1.0] * 5])
        assert np.array_equal(target[:, ::5], [[-1.0] * 4, np.linspace(-1.0, 1.0, 4)])

    def test_forward_samples_on_the_solved_grid(self, monkeypatch):
        # the model's constant grid map is the solve and the grid of its fiducials
        f, (h, w) = 20, (32, 100)
        tr = TpsTransformer(ParamStore(np.float64), num_fiducials=f, scale=0.125)
        fc2 = tr.loc_net.layers[-1]
        fc2.weight.data[...] = 0.0
        fc2.bias.data[...] = np.random.default_rng(5).normal(0.0, 0.5, fc2.bias.shape)
        grids = []

        def recording_sample(x, grid):
            grids.append(grid.data)
            return x

        monkeypatch.setattr(tc, "bilinear_sample", recording_sample)
        tr.forward(Tensor(np.random.default_rng(6).normal(size=(2, 1, h, w))))
        points = np.tanh(fc2.bias.data).reshape(2, f)
        _, source = generate_grid(solve_transform(points, tr.delta), tr.delta, h, w)
        assert grids[0].shape == (2, h, w, 2)
        assert np.abs(grids[0] - source.T.reshape(h, w, 2)).max() < 1e-12

    def test_gradient_flows_into_head_bias(self):
        tr = TpsTransformer(ParamStore(np.float64), num_fiducials=4, scale=0.125)
        tr.reset_head()
        fc2 = tr.loc_net.layers[-1]
        # move the head off the saturated corners so tanh has slope
        fc2.bias.data[...] = np.clip(fc2.bias.data, -1.5, 1.5)
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(1, 1, 32, 100)))
        out = tr.forward(x, True)
        (out * out).sum().backward()
        assert fc2.bias.grad is not None
        assert np.abs(fc2.bias.grad).max() > 0
