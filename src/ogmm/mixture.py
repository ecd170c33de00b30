"""Overlap-weighted Gaussian mixtures and the rigid solve between them.

Each point contributes to the mixture in proportion to its overlap score,
so points predicted to lie outside the common region barely influence the
component moments. The regularizer eps = 1e-4 keeps every denominator
positive even when a component receives no mass; as a consequence the
component weights sum to n / (eps + n), slightly below one, and are
renormalized only where probability marginals are required.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .clustering import SoftAssignment
from .geometry import DegenerateGeometryError, PointCloud, RigidTransform, kabsch_rotation
from .transport import TransportPlan, relative_epsilon, sinkhorn

MOMENT_EPS = 1e-4
MATCH_EPSILON_SCALE = 5e-3
MATCH_MAX_ITER = 5000
MATCH_TOL = 1e-6


@dataclass(frozen=True)
class WeightedGmm:
    """Moments of an overlap-weighted mixture over one cloud.

    weights sum to mass / (eps + mass) where mass is the total overlap mass
    n = sum_i o_i. covariances are symmetric positive semidefinite up to
    float noise. feature_centroids hold the same weighted averages computed
    over feature rows instead of coordinates.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    mass: float
    feature_centroids: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] < 1:
            raise ValueError("weights must be a non-empty vector")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and non-negative")
        l = w.shape[0]
        m = np.asarray(self.means, dtype=np.float64)
        if m.shape != (l, 3) or not np.all(np.isfinite(m)):
            raise ValueError(f"means must be a finite ({l}, 3) matrix")
        c = np.asarray(self.covariances, dtype=np.float64)
        if c.shape != (l, 3, 3) or not np.all(np.isfinite(c)):
            raise ValueError(f"covariances must be finite with shape ({l}, 3, 3)")
        if np.max(np.abs(c - np.transpose(c, (0, 2, 1)))) > 1e-12:
            raise ValueError("covariances must be symmetric")
        if np.min(np.linalg.eigvalsh(c)) < -1e-10:
            raise ValueError("covariances must be positive semidefinite")
        if not (np.isfinite(self.mass) and self.mass >= 0):
            raise ValueError("mass must be finite and non-negative")
        fc = np.asarray(self.feature_centroids, dtype=np.float64)
        if fc.ndim != 2 or fc.shape[0] != l or not np.all(np.isfinite(fc)):
            raise ValueError(f"feature_centroids must be finite with {l} rows")
        arrays = {"weights": w, "means": m, "covariances": c, "feature_centroids": fc}
        for name, arr in arrays.items():
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "mass", float(self.mass))


def validate_overlap(values, n: int, name: str) -> np.ndarray:
    """values as n float overlap scores in [0, 1], else a ValueError naming `name`."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    if np.any(arr < 0) or np.any(arr > 1) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


def estimate_gmm(
    cloud: PointCloud, features: np.ndarray, assignment: SoftAssignment, overlap: np.ndarray
) -> WeightedGmm:
    """Weighted mixture moments from soft memberships and overlap scores.

    With ow_ij = overlap_i * scores_ij and n = sum_i overlap_i:

        weight_j = sum_i ow_ij / (eps + n)
        mean_j   = sum_i ow_ij p_i / (eps + n * weight_j)
        cov_j    = sum_i ow_ij (p_i - mean_j)(p_i - mean_j)^T / (eps + n * weight_j)

    Feature centroids follow the mean formula with the (N, d) feature rows
    in place of coordinates. All-zero overlap is legal and produces a
    zero-mass mixture.
    """
    n_pts = len(cloud)
    o = validate_overlap(overlap, n_pts, "overlap")
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] != n_pts:
        raise ValueError(f"features must have shape ({n_pts}, d), got {f.shape}")
    s = assignment.scores
    if s.shape[0] != n_pts:
        raise ValueError(
            f"assignment covers {s.shape[0]} points but cloud has {n_pts}"
        )
    n_comp = s.shape[1]
    pts = cloud.points

    ow = o[:, None] * s  # (N, L)
    mass = float(o.sum())
    col_mass = ow.sum(axis=0)  # (L,)
    weights = col_mass / (MOMENT_EPS + mass)
    denom = MOMENT_EPS + mass * weights

    means = (ow.T @ pts) / denom[:, None]
    covs = np.empty((n_comp, 3, 3))
    for j in range(n_comp):
        centered = pts - means[j]
        covs[j] = (centered * ow[:, j : j + 1]).T @ centered / denom[j]
        covs[j] = 0.5 * (covs[j] + covs[j].T)

    feature_centroids = (ow.T @ f) / denom[:, None]
    return WeightedGmm(weights, means, covs, mass, feature_centroids)


def match_components(gmm_p: WeightedGmm, gmm_q: WeightedGmm) -> TransportPlan:
    """Entropic transport between components under feature-centroid costs.

    Marginals are the two weight vectors rescaled to probability vectors;
    a mixture whose total weight is zero (no overlap mass) cannot be
    matched and raises DegenerateGeometryError.

    Epsilon is MATCH_EPSILON_SCALE x the mean cost (`relative_epsilon`), so
    scaling every feature centroid leaves the plan as it is. The solve is a
    cold solve of `transport.sinkhorn`, whose docstring gives its measured
    iterations. MATCH_MAX_ITER is a backstop; the plan's `converged` flag
    (`sinkhorn_converged` in `register`'s diagnostics) says whether it was
    reached.
    """
    if gmm_p.feature_centroids.shape[1] != gmm_q.feature_centroids.shape[1]:
        raise ValueError("feature centroid dimensions differ")
    wp, wq = gmm_p.weights.sum(), gmm_q.weights.sum()
    if wp <= 0 or wq <= 0:
        raise DegenerateGeometryError(
            "a mixture carries no overlap mass; components cannot be matched"
        )
    cost = cdist(gmm_p.feature_centroids, gmm_q.feature_centroids, "sqeuclidean")
    return sinkhorn(
        cost,
        gmm_p.weights / wp,
        gmm_q.weights / wq,
        epsilon=relative_epsilon(cost, MATCH_EPSILON_SCALE),
        max_iter=MATCH_MAX_ITER,
        tol=MATCH_TOL,
    )


def weighted_svd(
    means_p: np.ndarray, means_q: np.ndarray, weights: np.ndarray
) -> RigidTransform:
    """Weighted Procrustes solve: the rigid motion minimizing
    sum_ij w_ij ||R mu_p_i + t - mu_q_j||^2.

    weights is a dense coupling matrix (each entry ties one p-component to
    one q-component). Raises DegenerateGeometryError when the weighted
    point sets are collinear or carry no mass, where the rotation is not
    identifiable.
    """
    mp = np.asarray(means_p, dtype=np.float64)
    mq = np.asarray(means_q, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if mp.ndim != 2 or mp.shape[1] != 3 or mq.ndim != 2 or mq.shape[1] != 3:
        raise ValueError("means must be (L, 3) matrices")
    if not (np.isfinite(mp).all() and np.isfinite(mq).all()):
        raise ValueError("means must be finite")
    if w.shape != (mp.shape[0], mq.shape[0]):
        raise ValueError(
            f"weights must have shape ({mp.shape[0]}, {mq.shape[0]}), got {w.shape}"
        )
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    total = w.sum()
    if total <= 0:
        raise DegenerateGeometryError("coupling carries no mass")
    row = w.sum(axis=1)
    col = w.sum(axis=0)
    centroid_p = row @ mp / total
    centroid_q = col @ mq / total
    xp = mp - centroid_p
    xq = mq - centroid_q
    h = xp.T @ w @ xq
    rotation, s = kabsch_rotation(h)
    # Two failure modes: the cross moments cancel entirely (h is float
    # noise relative to the data scale), or the weighted means are
    # collinear (rank <= 1). Either way the rotation is underdetermined.
    scale = total * np.max(np.linalg.norm(xp, axis=1)) * np.max(np.linalg.norm(xq, axis=1))
    if s[0] <= 1e-13 * scale or s[1] <= 1e-9 * s[0]:
        raise DegenerateGeometryError(
            "weighted component means are collinear or cancel; rotation is underdetermined"
        )
    translation = centroid_q - rotation @ centroid_p
    return RigidTransform(rotation, translation)

