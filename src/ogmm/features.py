"""Per-point descriptors: local shape statistics lifted by a seeded MLP.

All inputs to the MLP are rigid-motion invariant (distances and covariance
eigenvalues), so the resulting features are invariant too; moving a cloud
never changes its feature matrix beyond float noise. Two clouds encoded
with the same seed share the exact same MLP weights, which is what makes
features comparable across a registration pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

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

    @classmethod
    def zeros(cls, dims) -> "SeededMlp":
        mlp = cls(dims, seed=0)
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
            if i < last:
                h = np.maximum(h, 0.0)
        return h


def _knn_indices(points: np.ndarray, k: int):
    """Ascending k-nearest-neighbor indices and distances, self excluded.

    Exact distance ties resolve in index order, as a stable argsort of each
    row of the dense distance matrix would, which makes the neighborhood
    graph deterministic. The cloud's own k-d tree supplies each point's k+2
    nearest, itself included; cKDTree's distances equal cdist's bit for
    bit. A row takes the dense stable argsort instead, over that row alone,
    when the tree cannot settle it: a duplicate at distance 0 is listed
    before the point itself, or the k-th and (k+1)-th neighbors tie. (With
    the point listed first, its duplicates are ties like any other.)
    """
    n = points.shape[0]
    if k >= n:
        raise ValueError(f"k_neighbors must be below the point count, got k={k}, N={n}")
    # At k = n - 1 the last column is cKDTree's (inf, n) filler, which
    # ties with nothing.
    dist, order = cKDTree(points).query(points, k + 2)
    dense = np.flatnonzero((order[:, 0] != np.arange(n)) | (dist[:, k] == dist[:, k + 1]))
    # Contiguous copies: numpy sums a strided view of more than 8192
    # entries in buffered chunks, which would move the descriptor's scale
    # in the last bit.
    order, dist = order[:, 1 : k + 1].copy(), dist[:, 1 : k + 1].copy()
    # The tree sorts each row by distance but lists equal distances in no
    # set order; rows with a tie are sorted by (distance, index), as the
    # stable argsort would.
    tied = np.flatnonzero((dist[:, 1:] == dist[:, :-1]).any(axis=1))
    if tied.size:
        resort = np.lexsort((order[tied], dist[tied]), axis=1)
        order[tied] = np.take_along_axis(order[tied], resort, axis=1)
    if dense.size:
        full = pairwise_distances(points[dense], points)
        full[np.arange(dense.size), dense] = np.inf
        order[dense] = np.argsort(full, axis=1, kind="stable")[:, :k]
        dist[dense] = np.take_along_axis(full, order[dense], axis=1)
    return order, dist


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
    seed = int(np.random.SeedSequence(config.mlp_seed).generate_state(1)[0])
    mlp = SeededMlp([k + 5, config.d, config.d], seed=seed)
    return mlp(stats)

