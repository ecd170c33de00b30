"""Rigid transforms, point containers, and low-level geometric queries.

Everything downstream (clustering, mixtures, benchmarking) goes through the
types defined here, so validation is strict: malformed rotations or
non-finite coordinates fail at construction time, not deep inside a solver.
Nearest-neighbour search switches from a dense distance matrix to a k-d
tree at NN_TREE_MIN_POINTS target points; both paths return the same
indices and distances bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

ROTATION_ORTHO_TOL = 1e-9
# Target size from which nearest_neighbors searches a k-d tree, built per
# call, instead of a dense distance matrix: the crossover measured at N = M
# on random normal clouds and on sample_shape("composite") clouds queried
# by a slightly moved copy. Median us per call, dense/tree, one core of a
# 2-vCPU x86_64 host:
#      N    64      128      192      256      320      384      512       1024
#   random  42/119  101/186  192/281  317/385  483/512  702/643  1239/839  5395/1891
#   shape   43/115   99/178  187/262  319/340  488/472  710/578  1176/752  5552/1823
NN_TREE_MIN_POINTS = 320
_DEG = 180.0 / np.pi


class DegenerateGeometryError(ValueError):
    """Raised when the input geometry cannot support the requested solve."""


def _as_float_array(values, name: str, shape: tuple) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class EulerAnglesDeg:
    """Intrinsic Z-Y-X rotation angles in degrees.

    The matrix convention is R = Rz(rz) @ Ry(ry) @ Rx(rx), i.e. rx is applied
    first. Angles outside (-180, 180] are rejected rather than wrapped so a
    round trip through a matrix is always the identity on this range.
    """

    rx: float
    ry: float
    rz: float

    def __post_init__(self):
        for name in ("rx", "ry", "rz"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite")
            if not (-180.0 < v <= 180.0):
                raise ValueError(f"{name} must lie in (-180, 180], got {v}")
            object.__setattr__(self, name, v)

    def as_array(self) -> np.ndarray:
        return np.array([self.rx, self.ry, self.rz], dtype=np.float64)


def euler_to_matrix(angles: EulerAnglesDeg) -> np.ndarray:
    """Build the 3x3 rotation matrix R = Rz @ Ry @ Rx from degree angles."""
    ax, ay, az = np.radians(angles.as_array())
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry @ rx


def matrix_to_euler(rotation: np.ndarray) -> EulerAnglesDeg:
    """Extract Z-Y-X Euler angles (degrees) from a rotation matrix.

    At gimbal lock (|ry| = 90 deg) the rx/rz split is not unique; the
    conventional rx = 0 branch is returned.
    """
    r = _as_float_array(rotation, "rotation", (3, 3))
    sy = -r[2, 0]
    sy = min(1.0, max(-1.0, sy))
    ry = np.arcsin(sy)
    if abs(sy) < 1.0 - 1e-12:
        rx = np.arctan2(r[2, 1], r[2, 2])
        rz = np.arctan2(r[1, 0], r[0, 0])
    else:
        # Gimbal lock: only rz +/- rx is determined.
        rx = 0.0
        rz = np.arctan2(-r[0, 1], r[1, 1])
    return EulerAnglesDeg(rx * _DEG, ry * _DEG, rz * _DEG)


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion p -> rotation @ p + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = _as_float_array(self.rotation, "rotation", (3, 3)).copy()
        t = _as_float_array(self.translation, "translation", (3,)).copy()
        if np.max(np.abs(r.T @ r - np.eye(3))) > ROTATION_ORTHO_TOL:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > ROTATION_ORTHO_TOL:
            raise ValueError("rotation determinant differs from +1")
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_euler(cls, angles: EulerAnglesDeg, translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        return cls(euler_to_matrix(angles), np.asarray(translation, dtype=np.float64))

    def euler_angles(self) -> EulerAnglesDeg:
        return matrix_to_euler(self.rotation)

    def matrix(self) -> np.ndarray:
        """Homogeneous 4x4 form, useful for composing with external tools."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m


def axis_angle_matrix(axis, angle_deg: float) -> np.ndarray:
    """Rotation about an arbitrary axis via the Rodrigues formula."""
    u = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(u)
    if norm <= 0.0 or not np.isfinite(norm):
        raise ValueError("axis must be a nonzero finite vector")
    u = u / norm
    theta = np.radians(angle_deg)
    k = np.array([
        [0.0, -u[2], u[1]],
        [u[2], 0.0, -u[0]],
        [-u[1], u[0], 0.0],
    ])
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


@dataclass(frozen=True)
class PointCloud:
    """An ordered set of 3D points with optional per-point feature rows."""

    points: np.ndarray
    features: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("point cloud must contain at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite values")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if self.features is not None:
            feats = np.asarray(self.features, dtype=np.float64)
            if feats.ndim != 2 or feats.shape[0] != pts.shape[0]:
                raise ValueError(
                    f"features must have shape (N, d) with N={pts.shape[0]}, got {feats.shape}"
                )
            if not np.all(np.isfinite(feats)):
                raise ValueError("features contain non-finite values")
            feats = feats.copy()
            feats.flags.writeable = False
            object.__setattr__(self, "features", feats)

    def __len__(self) -> int:
        return self.points.shape[0]

    def with_features(self, features: np.ndarray) -> "PointCloud":
        return PointCloud(self.points, features)

    def select(self, indices) -> "PointCloud":
        """Sub-cloud at the given row indices (features follow along)."""
        idx = np.asarray(indices, dtype=np.intp)
        feats = None if self.features is None else self.features[idx]
        return PointCloud(self.points[idx], feats)


def apply_transform(transform: RigidTransform, cloud: PointCloud) -> PointCloud:
    """Transform every point, leaving features untouched."""
    moved = cloud.points @ transform.rotation.T + transform.translation
    return PointCloud(moved, cloud.features)


def transform_points(transform: RigidTransform, points: np.ndarray) -> np.ndarray:
    return np.asarray(points, dtype=np.float64) @ transform.rotation.T + transform.translation


def compose(second: RigidTransform, first: RigidTransform) -> RigidTransform:
    """The transform equivalent to applying `first`, then `second`."""
    rotation = second.rotation @ first.rotation
    translation = second.rotation @ first.translation + second.translation
    # Re-orthonormalize via SVD so long chains cannot drift past the
    # constructor's orthonormality gate.
    u, _, vt = np.linalg.svd(rotation)
    d = np.sign(np.linalg.det(u @ vt))
    rotation = u @ np.diag([1.0, 1.0, d]) @ vt
    return RigidTransform(rotation, translation)


def invert(transform: RigidTransform) -> RigidTransform:
    rotation = transform.rotation.T
    return RigidTransform(rotation, -rotation @ transform.translation)


def random_transform(seed: int, rot_max_deg: float = 45.0, trans_max: float = 0.5) -> RigidTransform:
    """Seeded random motion with per-axis angles in [0, rot_max_deg].

    Angles are drawn independently per axis and translation components
    uniformly in [-trans_max, trans_max]. rot_max_deg = 0 yields a pure
    translation.
    """
    if not (0.0 <= rot_max_deg < 180.0):
        raise ValueError("rot_max_deg must lie in [0, 180)")
    if trans_max < 0.0:
        raise ValueError("trans_max must be non-negative")
    rng = np.random.default_rng(seed)
    ax, ay, az = rng.uniform(0.0, rot_max_deg, size=3)
    translation = rng.uniform(-trans_max, trans_max, size=3)
    return RigidTransform.from_euler(EulerAnglesDeg(ax, ay, az), translation)


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense (len(a), len(b)) Euclidean distance matrix, via scipy's cdist.

    The neighbour searches use it only below their k-d tree's reach and
    for the rows the tree leaves tied.
    """
    return cdist(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))


def _dense_nearest(queries: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = pairwise_distances(queries, targets)
    indices = np.argmin(d, axis=1)
    return indices, d[np.arange(queries.shape[0]), indices]


def nearest_neighbors(queries: np.ndarray, target: PointCloud) -> tuple[np.ndarray, np.ndarray]:
    """Nearest target index and distance for each row of an (M, 3) query block.

    Ties resolve to the lowest target index, matching a plain linear scan
    bit for bit. Targets of NN_TREE_MIN_POINTS points or more are searched
    with a k-d tree built for the call, asking for two neighbours; a row
    whose two distances are equal is rescanned densely so the tie still
    goes to the lowest index. cKDTree's distances equal cdist's bit for
    bit, so both paths return the same arrays. Non-finite queries raise
    ValueError on either path.
    """
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != 3:
        raise ValueError(f"queries must have shape (M, 3), got {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError("queries contain non-finite values")
    if len(target) < NN_TREE_MIN_POINTS:
        return _dense_nearest(q, target.points)
    dist, idx = cKDTree(target.points).query(q, k=2)
    indices, dists = idx[:, 0], dist[:, 0]
    tied = np.flatnonzero(dist[:, 0] == dist[:, 1])
    if tied.size:
        indices[tied], dists[tied] = _dense_nearest(q[tied], target.points)
    return indices, dists


def farthest_point_sample(points: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Greedy max-min subset of row indices; the first pick is seeded.

    Works for any feature dimension, not just 3D, so the clustering code can
    reuse it. Ties in the max-min step resolve to the lowest index.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if not (1 <= count <= n):
        raise ValueError(f"count must lie in [1, {n}], got {count}")
    rng = np.random.default_rng(seed)
    chosen = np.empty(count, dtype=np.intp)
    chosen[0] = rng.integers(0, n)
    # np.linalg.norm(pts - p, axis=1), written out as numpy computes it for
    # real vectors (the root of the summed squares), into reused buffers.
    diff = pts - pts[chosen[0]]
    diff *= diff
    best = np.sqrt(np.add.reduce(diff, axis=1))
    dist = np.empty(n)
    for i in range(1, count):
        nxt = int(np.argmax(best))
        chosen[i] = nxt
        np.subtract(pts, pts[nxt], out=diff)
        np.multiply(diff, diff, out=diff)
        np.sqrt(np.add.reduce(diff, axis=1, out=dist), out=dist)
        np.minimum(best, dist, out=best)
    return chosen
