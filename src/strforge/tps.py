"""Thin-plate-spline transformation stage.

Pipeline: a localization net predicts F fiducial points C on the input
image; a constant base layout C~ on the normalized image defines the radial
basis system; solving the (F+3) linear system yields the 2 x (F+3) transform
that maps every normalized-image pixel back to a source coordinate, which the
bilinear sampler reads.

Coordinates are normalized to [-1, 1] with image corners at (-1, -1) and
(1, 1); pixel centers sit on inclusive linspace endpoints. The radial kernel
is d^2 ln d with the continuous-limit convention 0 ln 0 := 0.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tc
from .arch import build_localization_net
from .tensor import Tensor


class DegenerateFiducialsError(ValueError):
    pass


def base_fiducials(num_points):
    """Fixed base layout: F/2 points along the top edge, F/2 along the bottom.

    Returns a (2, F) array; row 0 holds x, row 1 holds y.
    """
    if num_points % 2 != 0 or num_points < 4:
        raise ValueError(f"fiducial count must be even and >= 4, got {num_points}")
    half = num_points // 2
    xs = np.linspace(-1.0, 1.0, half)
    top = np.stack([xs, np.full(half, -1.0)])
    bottom = np.stack([xs, np.full(half, 1.0)])
    return np.concatenate([top, bottom], axis=1)


def tps_features(base_points, points):
    """TPS feature columns of (2, n) points against the F base points.

    Returns an (F+3, n) array whose column i is [1, x_i, y_i, r_i1, ..., r_iF]
    with r_ij = d^2 ln d, d = |p_i - c_j|.
    """
    base_points = np.asarray(base_points, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    diff = base_points[:, :, None] - points[:, None, :]
    dist2 = (diff ** 2).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        radial = 0.5 * dist2 * np.log(dist2)  # d^2 ln d = 0.5 d^2 ln d^2
    return np.concatenate([np.ones((1, points.shape[1])), points,
                           np.where(dist2 > 0.0, radial, 0.0)])


class DeltaFactorization:
    """The constant (F+3) x (F+3) system for a base layout, with its inverse."""

    def __init__(self, base_points):
        base_points = np.asarray(base_points, dtype=np.float64)
        if base_points.ndim != 2 or base_points.shape[0] != 2:
            raise ValueError(f"base points must be (2, F), got {base_points.shape}")
        if not np.isfinite(base_points).all():
            raise ValueError("base points must be finite")
        f = base_points.shape[1]
        self.base_points = base_points
        q = tps_features(base_points, base_points)
        delta = np.zeros((f + 3, f + 3))
        delta[:f] = q.T
        delta[f:, 3:] = q[:3]
        self.delta = delta
        sv = np.linalg.svd(delta, compute_uv=False)
        if sv[-1] < 1e-10 * sv[0]:
            raise DegenerateFiducialsError(
                "fiducial system is singular (duplicated or degenerate base points)")
        self.inverse = np.linalg.inv(delta)

    @property
    def num_fiducials(self):
        return self.base_points.shape[1]


def solve_transform(pred_points, delta: DeltaFactorization):
    """T = [C | 0_{2x3}] Delta^-T = C (Delta^-T)[:F], a (2, F+3) matrix."""
    pred_points = np.asarray(pred_points, dtype=np.float64)
    f = delta.num_fiducials
    if pred_points.shape != (2, f):
        raise ValueError(f"predicted points must be (2, {f}), got {pred_points.shape}")
    return pred_points @ delta.inverse.T[:f]


def generate_grid(transform, delta: DeltaFactorization, height, width):
    """Map every target pixel through the transform: p_i = T q_i.

    Returns the (2, H*W) target pixel centres on the normalized image, in
    row-major (y, x) order, and their (2, H*W) source coordinates.
    """
    gx, gy = np.meshgrid(np.linspace(-1.0, 1.0, width), np.linspace(-1.0, 1.0, height))
    target = np.stack([gx.reshape(-1), gy.reshape(-1)])
    source = warp_points(transform, delta.base_points, target)
    if not np.isfinite(source).all():
        raise ValueError("warp grid contains non-finite coordinates")
    return target, source


def warp_points(transform, base_points, points):
    """Apply the TPS map to arbitrary (2, n) probe points."""
    return np.asarray(transform) @ tps_features(base_points, points)


ATANH_CLAMP = 18.0  # tanh(18) == 1 to float32 precision; keeps head biases finite


class TpsTransformer:
    """Full transformation stage: localization -> solve -> grid -> sample.

    Differentiable end to end; once the base layout is fixed, the solve and
    grid steps fold into one constant-matrix multiplication.
    """

    def __init__(self, store, num_fiducials=20, scale=1.0, out_size=(32, 100)):
        self.num_fiducials = num_fiducials
        self.out_size = out_size
        self.loc_graph = build_localization_net(num_fiducials, scale)
        self.loc_net = self.loc_graph.instantiate(store, prefix="tps.loc")
        self.base = base_fiducials(num_fiducials)
        self.delta = DeltaFactorization(self.base)
        # solve_transform(C) is C (Delta^-T)[:F], so the sampling grid is C M with
        # M = (Delta^-T)[:F] Q: the grid of that (F, F+3) map, built in float64.
        _, grid_map = generate_grid(self.delta.inverse.T[:num_fiducials], self.delta,
                                    *out_size)
        self._grid_map = Tensor(grid_map.astype(store.dtype))

    def reset_head(self):
        """Zero the final FC weights and bias it to the base layout, so the
        freshly initialized transform is the identity map."""
        fc2 = self.loc_net.layers[-1]
        fc2.weight.data[...] = 0.0
        target = np.arctanh(np.clip(self.base.reshape(-1), -1.0, 1.0)
                            * (1.0 - 1e-12))
        target = np.clip(target, -ATANH_CLAMP, ATANH_CLAMP)
        fc2.bias.data[...] = target

    def forward(self, x: Tensor, training=True) -> Tensor:
        b = x.shape[0]
        raw = self.loc_net.forward(x, training)
        points = tc.tanh(raw).reshape(b, 2, self.num_fiducials)  # fiducials C
        source = tc.matmul(points, self._grid_map)               # (B, 2, N)
        h, w = self.out_size
        grid = source.transpose(0, 2, 1).reshape(b, h, w, 2)
        return tc.bilinear_sample(x, grid)
