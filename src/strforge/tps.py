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

import warnings

import numpy as np
from scipy.linalg import lu_factor, lu_solve

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


def _radial(dist2):
    # d^2 ln d = 0.5 * d^2 ln d^2; zero at d == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = 0.5 * dist2 * np.log(dist2)
    return np.where(dist2 > 0.0, r, 0.0)


def _pairwise_radial(points_a, points_b):
    """Radial kernel matrix between two (2, n) point sets."""
    diff = points_a[:, :, None] - points_b[:, None, :]
    return _radial((diff ** 2).sum(axis=0))


class DeltaFactorization:
    """The constant (F+3) x (F+3) system for a base layout, with its LU form."""

    def __init__(self, base_points):
        base_points = np.asarray(base_points, dtype=np.float64)
        if base_points.ndim != 2 or base_points.shape[0] != 2:
            raise ValueError(f"base points must be (2, F), got {base_points.shape}")
        f = base_points.shape[1]
        self.base_points = base_points
        self.size = f + 3
        delta = np.zeros((f + 3, f + 3))
        delta[:f, 0] = 1.0
        delta[:f, 1:3] = base_points.T
        delta[:f, 3:] = _pairwise_radial(base_points, base_points)
        delta[f, 3:] = 1.0
        delta[f + 1:, 3:] = base_points
        self.delta = delta
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # singular matrices are reported below
            self.lu, self.piv = lu_factor(delta, check_finite=True)
        diag = np.abs(np.diag(self.lu))
        if diag.min() < 1e-10 * max(diag.max(), 1.0):
            raise DegenerateFiducialsError(
                "fiducial system is singular (duplicated or degenerate base points)")
        self.inverse = lu_solve((self.lu, self.piv), np.eye(f + 3))

    @property
    def num_fiducials(self):
        return self.base_points.shape[1]


def solve_transform(pred_points, delta: DeltaFactorization):
    """T = (Delta^-1 [C^T; 0_{3x2}])^T, a (2, F+3) matrix."""
    pred_points = np.asarray(pred_points, dtype=np.float64)
    f = delta.num_fiducials
    if pred_points.shape != (2, f):
        raise ValueError(f"predicted points must be (2, {f}), got {pred_points.shape}")
    rhs = np.concatenate([pred_points.T, np.zeros((3, 2))], axis=0)
    return lu_solve((delta.lu, delta.piv), rhs).T


def target_pixel_features(base_points, height, width):
    """Augmented feature matrix Q of shape (F+3, H*W) for all target pixels.

    Column i is [1, x_i, y_i, r_i1, ..., r_iF] for target pixel i in row-major
    (y, x) order.
    """
    base_points = np.asarray(base_points, dtype=np.float64)
    xs = np.linspace(-1.0, 1.0, width)
    ys = np.linspace(-1.0, 1.0, height)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.reshape(-1), gy.reshape(-1)])  # (2, N)
    n = pts.shape[1]
    q = np.zeros((base_points.shape[1] + 3, n))
    q[0] = 1.0
    q[1:3] = pts
    q[3:] = _pairwise_radial(base_points, pts)
    return q, pts


class WarpGrid:
    """Paired target pixels (on the normalized image) and source coordinates."""

    def __init__(self, target, source, height, width):
        self.target = target    # (2, N)
        self.source = source    # (2, N)
        self.height = height
        self.width = width

    def to_json_dict(self):
        return {
            "height": self.height,
            "width": self.width,
            "target": self.target.T.tolist(),
            "source": self.source.T.tolist(),
        }


def generate_grid(transform, delta: DeltaFactorization, height, width) -> WarpGrid:
    """Map every target pixel through the transform: p_i = T q_i."""
    q, targets = target_pixel_features(delta.base_points, height, width)
    source = np.asarray(transform) @ q
    if not np.isfinite(source).all():
        raise ValueError("warp grid contains non-finite coordinates")
    return WarpGrid(targets, source, height, width)


def warp_points(transform, base_points, points):
    """Apply the TPS map to arbitrary (2, n) probe points."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[1]
    q = np.zeros((np.asarray(base_points).shape[1] + 3, n))
    q[0] = 1.0
    q[1:3] = points
    q[3:] = _pairwise_radial(np.asarray(base_points, dtype=np.float64), points)
    return np.asarray(transform) @ q


ATANH_CLAMP = 18.0  # tanh(18) == 1 to float32 precision; keeps head biases finite


class TpsTransformer:
    """Full transformation stage: localization -> solve -> grid -> sample.

    Differentiable end to end; once the base layout is fixed, the solve and
    grid steps fold into one constant-matrix multiplication.
    """

    def __init__(self, num_fiducials=20, scale=1.0, out_size=(32, 100), dtype=np.float32):
        self.num_fiducials = num_fiducials
        self.out_size = out_size
        self.dtype = dtype
        self.loc_graph = build_localization_net(num_fiducials, scale)
        self.loc_net = self.loc_graph.instantiate(dtype=dtype, prefix="tps.loc")
        self.base = base_fiducials(num_fiducials)
        self.delta = DeltaFactorization(self.base)
        q, _ = target_pixel_features(self.base, *out_size)
        # source = [C | 0] (Delta^-1)^T Q; the zero columns drop the last three
        # rows of (Delta^-1)^T, leaving one (F, H*W) constant, built in float64.
        self._grid_map = Tensor((self.delta.inverse.T[:num_fiducials] @ q).astype(dtype))

    def params(self):
        return self.loc_net.params()

    def bn_states(self):
        return self.loc_net.bn_states()

    def reset_head(self):
        """Zero the final FC weights and bias it to the base layout, so the
        freshly initialized transform is the identity map."""
        fc2 = self.loc_net.layers[-1]
        fc2.weight.data[...] = 0.0
        target = np.arctanh(np.clip(self.base.reshape(-1), -1.0, 1.0)
                            * (1.0 - 1e-12))
        target = np.clip(target, -ATANH_CLAMP, ATANH_CLAMP)
        fc2.bias.data[...] = target.astype(self.dtype)

    def forward(self, x: Tensor, mode="train") -> Tensor:
        b = x.shape[0]
        raw = self.loc_net.forward(x, mode)
        points = tc.tanh(raw).reshape(b, 2, self.num_fiducials)  # fiducials C
        source = tc.matmul(points, self._grid_map)               # (B, 2, N)
        h, w = self.out_size
        grid = source.transpose(0, 2, 1).reshape(b, h, w, 2)
        return tc.bilinear_sample(x, grid)
