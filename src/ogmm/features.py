"""Per-point descriptors: local shape statistics plus a radial/angular
positional code.

All inputs to the seeded MLPs are rigid-motion invariant (distances,
eigenvalues, angles), so the resulting features are invariant too; moving a
cloud never changes its feature matrix beyond float noise. Two clouds
encoded with the same seed share the exact same MLP weights, which is what
makes features comparable across a registration pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud, pairwise_distances


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
    last; final_relu=True appends one after the last layer too.
    """

    def __init__(self, dims, seed: int, final_relu: bool = False):
        dims = tuple(int(d) for d in dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"dims must list at least two positive sizes, got {dims}")
        rng = np.random.default_rng(seed)
        self.dims = dims
        self.final_relu = bool(final_relu)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(dims, dims[1:]):
            a = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-a, a, size=(fan_in, fan_out)))
            self.biases.append(rng.uniform(-a, a, size=fan_out))

    @classmethod
    def zeros(cls, dims, final_relu: bool = False) -> "SeededMlp":
        mlp = cls(dims, seed=0, final_relu=final_relu)
        mlp.weights = [np.zeros_like(w) for w in mlp.weights]
        mlp.biases = [np.zeros_like(b) for b in mlp.biases]
        return mlp

    def __call__(self, x: np.ndarray) -> np.ndarray:
        h = np.asarray(x, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.dims[0]:
            raise ValueError(f"input must have shape (N, {self.dims[0]}), got {h.shape}")
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < last or self.final_relu:
                h = np.maximum(h, 0.0)
        return h


def _mlp_seeds(mlp_seed: int) -> np.ndarray:
    # One sub-seed per MLP so the descriptor and the two positional encoders
    # never share weights even though they share the config seed.
    return np.random.SeedSequence(mlp_seed).generate_state(3)


def _knn_indices(points: np.ndarray, k: int):
    """Ascending k-nearest-neighbor indices and distances, self excluded.

    Exact distance ties resolve in index order, as a stable argsort of each
    row would, which makes the neighborhood graph deterministic.
    """
    n = points.shape[0]
    if k >= n:
        raise ValueError(f"k_neighbors must be below the point count, got k={k}, N={n}")
    dist = pairwise_distances(points, points)
    np.fill_diagonal(dist, np.inf)
    # Each row's k+1 smallest distances, sorted by (distance, index). They
    # are the stable argsort's first k+1 unless more entries tie with the
    # largest of them; such rows take the full stable argsort.
    order = np.argpartition(dist, k, axis=1)[:, : k + 1]
    order_dist = np.take_along_axis(dist, order, axis=1)
    order = np.take_along_axis(order, np.lexsort((order, order_dist), axis=1), axis=1)
    tied = np.flatnonzero((dist <= order_dist.max(axis=1, keepdims=True)).sum(axis=1) > k + 1)
    if tied.size:
        order[tied] = np.argsort(dist[tied], axis=1, kind="stable")[:, : k + 1]
    order = order[:, :k]
    return order, np.take_along_axis(dist, order, axis=1)


def local_descriptor(cloud: PointCloud, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Per-point features from rigid-invariant neighborhood statistics.

    For each point the statistics vector stacks the k sorted neighbor
    distances, the neighborhood covariance eigenvalues, the distance to the
    cloud centroid, and a bounded local density score; a seeded MLP lifts it
    to d dimensions. Distances are measured in units of the cloud's mean
    neighbor spacing, and the eigenvalue triple enters as a leading extent
    plus two shape ratios, which hold up under resampling far better than
    raw second moments. Columns are standardized over the cloud before the
    lift so no single statistic dominates by sheer dynamic range.
    """
    return _descriptor(cloud.points, config, *_knn_indices(cloud.points, config.k_neighbors))


def _descriptor(
    pts: np.ndarray, config: FeatureConfig, order: np.ndarray, knn_dist: np.ndarray
) -> np.ndarray:
    """`local_descriptor` given the k-NN indices and distances of pts."""
    n = pts.shape[0]
    k = config.k_neighbors
    group = np.concatenate([pts[:, None, :], pts[order]], axis=1)  # (N, k+1, 3)
    center = group.mean(axis=1)
    spread = group - center[:, None, :]
    cov = np.einsum("nka,nkb->nab", spread, spread) / (k + 1)
    eigs = np.linalg.eigvalsh(cov)[:, ::-1]  # descending

    scale = knn_dist.mean()
    if scale == 0.0:  # all points coincident; keep the stats finite
        scale = 1.0
    lead = np.maximum(eigs[:, 0], 1e-18)
    extent = np.sqrt(np.maximum(eigs[:, 0], 0.0)) / scale
    planarity = (eigs[:, 1] - eigs[:, 2]) / lead
    sphericity = eigs[:, 2] / lead
    centroid_dist = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
    density = scale / (scale + knn_dist.mean(axis=1))

    stats = np.concatenate(
        [
            knn_dist / scale,
            extent[:, None],
            planarity[:, None],
            sphericity[:, None],
            centroid_dist[:, None],
            density[:, None],
        ],
        axis=1,
    )
    # Per-column standardization over the cloud. Constant columns (fully
    # symmetric shapes) are left at zero rather than amplified.
    stats = (stats - stats.mean(axis=0)) / np.maximum(stats.std(axis=0), 1e-9)
    assert stats.shape == (n, k + 5)
    seed = int(_mlp_seeds(config.mlp_seed)[0])
    mlp = SeededMlp([k + 5, config.d, config.d], seed=seed)
    return mlp(stats)


def spherical_positional_encoding(
    cloud: PointCloud, config: FeatureConfig = FeatureConfig()
) -> np.ndarray:
    """Positional code from distances and angles about the cloud mean.

    Each point contributes its radial distance to the cloud mean through one
    encoder and the largest response over the angles between its own radial
    direction and those of its k nearest neighbors through another. Angles
    use atan2 of the cross/dot pair, which stays accurate near 0 and pi; a
    radial vector of length ~0 contributes angle 0.
    """
    order, _ = _knn_indices(cloud.points, config.k_neighbors)
    return _positional(cloud.points, config, order)


def _positional(pts: np.ndarray, config: FeatureConfig, order: np.ndarray) -> np.ndarray:
    """`spherical_positional_encoding` given the k-NN indices of pts."""
    k = config.k_neighbors
    radial = pts - pts.mean(axis=0)
    r = np.linalg.norm(radial, axis=1)
    nbr = radial[order]  # (N, k, 3)
    cross = np.linalg.norm(np.cross(radial[:, None, :], nbr), axis=2)
    dot = np.einsum("ni,nki->nk", radial, nbr)
    angles = np.arctan2(cross, dot)
    degenerate = (r[:, None] < 1e-12) | (r[order] < 1e-12)
    angles[degenerate] = 0.0

    seeds = _mlp_seeds(config.mlp_seed)
    phi = SeededMlp([1, config.d], seed=int(seeds[1]), final_relu=True)
    psi = SeededMlp([1, config.d], seed=int(seeds[2]), final_relu=True)
    radial_code = phi(r[:, None])
    angle_code = psi(angles.reshape(-1, 1)).reshape(len(pts), k, config.d).max(axis=1)
    return radial_code + angle_code


def encode(cloud: PointCloud, config: FeatureConfig = FeatureConfig()) -> PointCloud:
    """Attach descriptor + positional features to the cloud; both halves
    share one k-NN search."""
    pts = cloud.points
    order, knn_dist = _knn_indices(pts, config.k_neighbors)
    feats = _descriptor(pts, config, order, knn_dist) + _positional(pts, config, order)
    return cloud.with_features(feats)
