"""Per-point descriptors: local shape statistics lifted by a seeded MLP.

All inputs to the MLP are rigid-motion invariant (distances and covariance
eigenvalues), so the resulting features are invariant too; moving a cloud
never changes its feature matrix beyond float noise. Two clouds encoded
with the same seed share the exact same MLP weights, which is what makes
features comparable across a registration pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud, tree_neighbors


@dataclass(frozen=True)
class FeatureConfig:
    """Feature dimensionality, neighborhood size, and weight seed."""

    d: int = 32
    k_neighbors: int = 5
    mlp_seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be at least 1")


class SeededMlp:
    """A dense multilayer perceptron with deterministic uniform init.

    Weights and biases are drawn from U(-a, a) with a = sqrt(6/(fan_in +
    fan_out)) using a generator seeded at construction, so a (dims, seed)
    pair always denotes the same function. ReLU follows every layer but the
    last.
    """

    def __init__(self, dims, seed: int):
        dims = tuple(int(d) for d in dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"dims must list at least two positive sizes, got {dims}")
        rng = np.random.default_rng(seed)
        self.dims = dims
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(dims, dims[1:]):
            a = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-a, a, size=(fan_in, fan_out)))
            self.biases.append(rng.uniform(-a, a, size=fan_out))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        h = np.asarray(x, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.dims[0]:
            raise ValueError(f"input must have shape (N, {self.dims[0]}), got {h.shape}")
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < last:
                h = np.maximum(h, 0.0)
        return h


def _knn_indices(points: np.ndarray, k: int):
    """Ascending k-nearest-neighbor indices and distances, self excluded.

    Exact distance ties resolve in index order, as a stable argsort of each
    row of the dense distance matrix would, which makes the neighborhood
    graph deterministic. Each row is the point's k+1 nearest from
    geometry.tree_neighbors, itself included, less the point itself, or
    less the last entry when more than k lower-index copies at distance 0
    leave the point unlisted.
    """
    n = points.shape[0]
    if k >= n:
        raise ValueError(f"k_neighbors must be below the point count, got k={k}, N={n}")
    order, dist, _ = tree_neighbors(points, points, k + 1)
    keep = order != np.arange(n)[:, None]
    keep[keep.all(axis=1), k] = False
    # Boolean indexing copies the views into the contiguous arrays the scale's sum needs.
    return order[keep].reshape(n, k), dist[keep].reshape(n, k)


def encode(cloud: PointCloud, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """The cloud's (N, d) feature matrix, row i describing point i, from
    rigid-invariant neighborhood statistics.

    For each point the statistics vector stacks the k sorted neighbor
    distances, the neighborhood covariance eigenvalues, the distance to the
    cloud centroid, and a bounded local density score; a seeded MLP lifts it
    to d dimensions. Distances are measured in units of the cloud's mean
    neighbor spacing, and the eigenvalue triple enters as a leading extent
    plus two shape ratios, which hold up under resampling far better than
    raw second moments. Columns are standardized over the cloud before the
    lift so no single statistic dominates by sheer dynamic range.
    """
    pts = cloud.points
    n = pts.shape[0]
    k = config.k_neighbors
    order, knn_dist = _knn_indices(pts, k)
    # Every pass runs along the long point axis and adds in numpy's own
    # order, so the statistics equal those of group.mean, einsum and
    # np.linalg.norm bit for bit (README, "same sums, long axes"): reducing
    # the slot axis of a contiguous (3, k+1, N) array adds the k+1 slots in
    # sequence, as mean and einsum over an (N, k+1, 3) group's do.
    cols = pts.T.copy()
    slots = np.empty((k + 1, n), dtype=np.intp)
    slots[0] = np.arange(n)
    slots[1:] = order.T
    spread = cols.take(slots, axis=1)  # (3, k+1, N): each point, then its k neighbours
    center = np.add.reduce(spread, axis=1)
    center /= k + 1
    spread -= center[:, None, :]
    cov = np.add.reduce(spread[:, None] * spread[None, :], axis=2)  # (3, 3, N)
    cov /= k + 1
    eigs = np.linalg.eigvalsh(cov.transpose(2, 0, 1))[:, ::-1]  # descending

    scale = knn_dist.mean()
    if scale == 0.0:  # all points coincident; keep the stats finite
        scale = 1.0
    lead = np.maximum(eigs[:, 0], 1e-18)
    stats = np.empty((n, k + 5))
    stats[:, :k] = knn_dist / scale
    stats[:, k] = np.sqrt(np.maximum(eigs[:, 0], 0.0)) / scale  # extent
    stats[:, k + 1] = (eigs[:, 1] - eigs[:, 2]) / lead  # planarity
    stats[:, k + 2] = eigs[:, 2] / lead  # sphericity
    # Distance to the cloud centroid: np.linalg.norm's row sums of squares,
    # three entries each, added in sequence down the columns.
    cols -= pts.mean(axis=0)[:, None]
    cols *= cols
    stats[:, k + 3] = np.sqrt(np.add.reduce(cols, axis=0))
    stats[:, k + 4] = scale / (scale + knn_dist.mean(axis=1))  # density
    # Per-column standardization over the cloud. Constant columns (fully
    # symmetric shapes) are left at zero rather than amplified.
    stats = (stats - stats.mean(axis=0)) / np.maximum(stats.std(axis=0), 1e-9)
    return _seeded_mlp(config.mlp_seed, k + 5, config.d)(stats)


@functools.lru_cache(maxsize=16)
def _seeded_mlp(mlp_seed: int, width_in: int, d: int) -> SeededMlp:
    """The descriptor lift for a config seed and widths, built once and
    shared by every cloud encoded with them; its weights are read-only."""
    seed = int(np.random.SeedSequence(mlp_seed).generate_state(1)[0])
    mlp = SeededMlp([width_in, d, d], seed=seed)
    for array in (*mlp.weights, *mlp.biases):
        array.flags.writeable = False
    return mlp
