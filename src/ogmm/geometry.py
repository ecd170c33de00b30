"""Rigid transforms, point containers, and low-level geometric queries.

Everything downstream (clustering, mixtures, benchmarking) goes through the
types defined here, so validation is strict: malformed rotations or
non-finite coordinates fail at construction time, not deep inside a solver.
A rotation is its 3x3 matrix; Euler angles are only ever an (rx, ry, rz)
degree array, for the pair generator and the Euler MAE.
tree_neighbors is the one k-d tree search, for the descriptor's k-NN and
for nearest_neighbors from NN_TREE_MIN_POINTS target points on (a dense
scan below, with the same arrays bit for bit). A NeighborIndex holds a
target's tree so repeated searches against a cloud that does not move
(ICP's) build it once, and remembers each row's last match so that the
next block sends to the tree only the rows whose match can have changed.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

ROTATION_ORTHO_TOL = 1e-9
# The pair protocol's motion: per-axis angles in [0, ROT_MAX_DEG] degrees
# and translations in [-TRANS_MAX, TRANS_MAX], as in RPM-Net's
# partial-registration protocol (random_transform's defaults).
ROT_MAX_DEG = 45.0
TRANS_MAX = 0.5
# The largest |coordinate| a PointCloud (and read_cloud) accepts: points
# within it lie under 2 * sqrt(3) * 1e150 apart, a square of about 1.2e301.
COORDINATE_BOUND = 1e150
# Target size from which a NeighborIndex holds a k-d tree and
# nearest_neighbors searches it instead of a dense distance matrix: the
# crossover measured at N = M, with the tree built inside each call, on
# random normal clouds and on sample_shape("composite") clouds queried by
# a slightly moved copy. Median us per call, dense/tree, one core of a
# 2-vCPU x86_64 host:
#      N    64      128      192      256      320      384      512       1024
#   random  42/119  101/186  192/281  317/385  483/512  702/643  1239/839  5395/1891
#   shape   43/115   99/178  187/262  319/340  488/472  710/578  1176/752  5552/1823
# An index reused across calls (ICP's) pays for its tree sooner. Median us
# per search over ICP's own query sequences, dense / reused tree (built
# once, no memory) / remembering tree (the NeighborIndex below), on 12
# composite pairs of N points and on the 72 first desk-workload pairs at
# seed 5 (their targets are the desk's 77, 128 and 180 points), on one
# core of a later, faster 2-vCPU x86_64 host:
#      N        77        128       180       256         320          384          512
#   shape   18/35/33  37/52/45  65/73/59  122/104/81  184/134/103  260/161/121  469/215/162
#   desk    18/35/38  36/51/48  65/72/63
# The remembering tree wins from about 180 points on composite clouds and
# breaks even there on desk pairs, so the desk targets lose nothing by
# staying dense. The one switch stays at the per-call crossover: a second,
# lower one for reused indexes would pay only on ICP targets of 180-319
# points, and the searches that index a cloud for one call (restart
# selection, ccd, the overlap labels) need this one.
NN_TREE_MIN_POINTS = 320
# A remembered match is kept when (d + m)(1 + _KEEP_SLACK) < s(1 - _KEEP_SLACK)
# (nearest_neighbors). Every distance in that test, and every fresh one it
# stands for, is computed within a few units of 2**-53 (1.1e-16) of its
# exact value, plus at most 1e-161 where a square underflows, so the slack
# leaves over a thousand times the room rounding can take. A row whose s
# lies outside _KEEP_RANGE is always searched, which keeps s far from
# where squares underflow or overflow.
_KEEP_SLACK = 1e-12
_KEEP_RANGE = (1e-100, 1e100)
# Entries of one block of tree_neighbors' tie rescan (8 MB of distances):
# a lattice cloud sends most of its rows there, and one matrix for all of
# them grows with the square of the cloud (96 MB at 16^3 points, k = 5).
_RESCAN_ENTRIES = 1 << 20
_DEG = 180.0 / np.pi
_IDENTITY = np.eye(3)
_IDENTITY.flags.writeable = False


class DegenerateGeometryError(ValueError):
    """Raised when the input geometry cannot support the requested solve."""


def as_integer(value, name: str, error: type = ValueError) -> int:
    """value as an int if it is a Python or numpy integer (anything
    `operator.index` takes); a bool, a float (even 2.0) or anything else
    raises `error` rather than being truncated."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)  # an exact int, subclasses included
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")


def as_real(value, name: str, error: type = ValueError) -> float:
    """value as a float if it is a real number; a bool or a string raises `error`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")
    return float(value)


def _as_float_array(values, name: str, shape: tuple) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C")
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def euler_to_matrix(angles) -> np.ndarray:
    """Build the 3x3 rotation matrix R = Rz(rz) @ Ry(ry) @ Rx(rx) from
    intrinsic Z-Y-X angles (rx, ry, rz) in degrees, rx applied first.

    Angles outside (-180, 180] are rejected rather than wrapped, so a round
    trip through matrix_to_euler is the identity on that range.
    """
    a = _as_float_array(angles, "angles", (3,))
    if not ((a > -180.0) & (a <= 180.0)).all():
        raise ValueError(f"angles must lie in (-180, 180], got {a.tolist()}")
    ax, ay, az = np.radians(a)
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry @ rx


def matrix_to_euler(rotation: np.ndarray) -> np.ndarray:
    """Z-Y-X Euler angles (rx, ry, rz) in degrees of a rotation matrix, as
    a (3,) array in (-180, 180] (ry in [-90, 90]).

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
    angles = np.array([rx, ry, rz]) * _DEG
    # arctan2's -pi (a half turn whose sine rounds below 0) is 180 here.
    angles[angles == -180.0] = 180.0
    return angles


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion p -> rotation @ p + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = _as_float_array(self.rotation, "rotation", (3, 3))
        t = _as_float_array(self.translation, "translation", (3,))
        gram = r.T @ r
        gram -= _IDENTITY
        if np.abs(gram, out=gram).max() > ROTATION_ORTHO_TOL:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if abs(_umath_linalg.det(r, signature="d->d") - 1.0) > ROTATION_ORTHO_TOL:
            raise ValueError("rotation determinant differs from +1")
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))


@dataclass(frozen=True)
class PointCloud:
    """An ordered set of 3D points. Per-point features travel beside the
    cloud as a plain (N, d) array, row i describing point i."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("point cloud must contain at least one point")
        if not np.abs(pts).max() <= COORDINATE_BOUND:  # NaN fails this too
            if not np.isfinite(pts).all():
                raise ValueError("points contain non-finite values")
            raise ValueError(f"points exceed the coordinate bound {COORDINATE_BOUND:g}")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def select(self, indices) -> "PointCloud":
        """Sub-cloud at the given row indices."""
        return PointCloud(self.points[np.asarray(indices, dtype=np.intp)])


def apply_transform(transform: RigidTransform, cloud: PointCloud) -> PointCloud:
    """Transform every point."""
    return PointCloud(transform_points(transform, cloud.points))


def transform_points(transform: RigidTransform, points: np.ndarray) -> np.ndarray:
    return np.asarray(points, dtype=np.float64) @ transform.rotation.T + transform.translation


def _svd_did_not_converge(err, flag):
    # np.linalg.svd's handler: the SVD gufunc flags non-convergence as an
    # invalid value.
    raise np.linalg.LinAlgError("SVD did not converge")


def kabsch_rotation(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Proper rotation R maximizing trace(R h) for a 3x3 cross-moment h,
    plus the singular values of h (for the caller's degeneracy checks).

    The sign flip on the last singular direction rules out reflections.
    The one Kabsch core: the mixture solve and ICP's row-matched solve both
    go through it, and no other function in the package computes an SVD.
    Raises LinAlgError where np.linalg.svd does, and with the same message
    on any non-finite h, on which the SVD may never return. The SVD is the
    gufunc np.linalg.svd calls, under the error state it sets, unwrapped.
    """
    if not np.isfinite(h).all():
        raise np.linalg.LinAlgError("SVD did not converge")
    with np.errstate(call=_svd_did_not_converge, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        u, s, vt = _umath_linalg.svd_f(h, signature="d->ddd")
    ut = u.T
    # V diag(1, 1, d) U^T, 0 and NaN d included, by scaling V's last column
    # (vt's last row); d's determinant is np.linalg.det's gufunc, unwrapped.
    vt[2] *= np.sign(_umath_linalg.det(vt.T @ ut, signature="d->d"))
    return vt.T @ ut, s


def invert(transform: RigidTransform) -> RigidTransform:
    rotation = transform.rotation.T
    return RigidTransform(rotation, -rotation @ transform.translation)


def random_transform(
    seed: int, rot_max_deg: float = ROT_MAX_DEG, trans_max: float = TRANS_MAX
) -> RigidTransform:
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
    angles = rng.uniform(0.0, rot_max_deg, size=3)
    translation = rng.uniform(-trans_max, trans_max, size=3)
    return RigidTransform(euler_to_matrix(angles), translation)


def _row_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance between matching rows of two (M, 3) arrays, the squares
    summed in cdist's and cKDTree's order, so equal to theirs bit for bit."""
    diff = a - b
    diff *= diff
    total = diff[:, 0] + diff[:, 1]
    total += diff[:, 2]
    return np.sqrt(total, out=total)


def tree_neighbors(queries: np.ndarray, points: np.ndarray, k: int, tree=None):
    """Indices and distances, each (M, k), of the k nearest points to each
    query row, ties in index order as a dense stable argsort gives them,
    plus each row's (k+1)-th distance: a bound on every point not listed.

    tree (points' cKDTree, built when not given) lists equal distances in
    no set order: rows tied within their k are re-sorted by (distance,
    index), rows whose k-th and (k+1)-th tie are rescanned with cdist, whose
    distances equal the tree's bit for bit, in row blocks of at most
    _RESCAN_ENTRIES distances (or one row). The arrays are views of the
    tree's (M, k+1) results, since numpy sums strided arrays of over 8192
    entries in buffered chunks and callers' sums depend on the layout.
    """
    if tree is None:
        tree = cKDTree(points)
    dist, order = tree.query(queries, k + 1)
    indices, dists, bound = order[:, :k], dist[:, :k], dist[:, k]
    if k > 1:  # one column holds no tie; the check would slow ICP's k = 1 searches
        tied = np.flatnonzero((dists[:, 1:] == dists[:, :-1]).any(axis=1))
        if tied.size:
            resort = np.lexsort((indices[tied], dists[tied]), axis=1)
            indices[tied] = np.take_along_axis(indices[tied], resort, axis=1)
    dense = np.flatnonzero(dists[:, -1] == bound)
    step = max(1, _RESCAN_ENTRIES // len(points))
    for start in range(0, dense.size, step):
        block = dense[start : start + step]
        full, rows = cdist(queries[block], points), np.arange(block.size)
        # argmin takes the first of equal minima: k passes, O(kN), sort stably.
        for j in range(k):
            indices[block, j] = found = np.argmin(full, axis=1)
            dists[block, j] = full[rows, found]
            full[rows, found] = np.inf
    return indices, dists, bound


def _keep_reach(second: np.ndarray) -> np.ndarray:
    """The slackened bound a remembered row's moved distance must stay
    under: the second-nearest distance shrunk by _KEEP_SLACK, or 0 (which
    nothing stays under) outside _KEEP_RANGE."""
    low, high = _KEEP_RANGE
    return np.where((second >= low) & (second <= high), second * (1.0 - _KEEP_SLACK), 0.0)


class NeighborIndex:
    """A target cloud prepared for nearest_neighbors: its points and, from
    NN_TREE_MIN_POINTS points on, their k-d tree (tree is None below).
    Build one per cloud that many query blocks search.

    A tree-backed index also remembers, for each row of the last block it
    searched, where the row was when the tree last searched it, its match,
    and the bound on every other target point that search gave; the next
    block of as many rows re-searches only the rows whose match that bound
    cannot vouch for. Results never depend on this history: every block
    gets exactly the arrays a fresh index would give. The memory makes an
    index unsafe to share between threads.
    """

    __slots__ = ("points", "tree", "_last")

    def __init__(self, cloud: PointCloud):
        self.points = cloud.points
        self.tree = cKDTree(cloud.points) if len(cloud) >= NN_TREE_MIN_POINTS else None
        # (positions, matches, reach) of the last block's rows, as of the
        # tree search that last covered each row.
        self._last = None


def nearest_neighbors(
    queries: np.ndarray, target: PointCloud | NeighborIndex
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest target index and distance for each row of an (M, 3) query block.

    Ties resolve to the lowest target index, matching a plain linear scan
    bit for bit. target is a PointCloud, indexed for this call alone, or a
    NeighborIndex, reused as built. Targets of NN_TREE_MIN_POINTS points or
    more are searched by tree_neighbors with k = 1, which returns the same
    arrays as the scan. Non-finite queries raise ValueError on either path.

    A row of a block as long as a tree-backed index's last one keeps its
    remembered match without a tree search if its distance to that match
    plus the distance it moved since stays below that search's
    second-nearest distance, each slackened by _KEEP_SLACK: no other point
    can then be as near. See NeighborIndex for the memory.
    """
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != 3:
        raise ValueError(f"queries must have shape (M, 3), got {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError("queries contain non-finite values")
    index = target if isinstance(target, NeighborIndex) else NeighborIndex(target)
    if index.tree is None:
        d = cdist(q, index.points)
        indices = np.argmin(d, axis=1)
        return indices, d[np.arange(len(q)), indices]
    if index._last is None or len(index._last[0]) != len(q):
        found, near, second = tree_neighbors(q, index.points, 1, index.tree)
        indices, dists = found[:, 0], near[:, 0]
        index._last = (q.copy(), indices.copy(), _keep_reach(second))
        return indices, dists
    positions, matches, reach = index._last
    dists = _row_distances(q, index.points.take(matches, axis=0))
    # Distance to the remembered match plus the distance moved since the
    # row's last tree search, against that search's second-nearest bound.
    span = _row_distances(q, positions)
    span += dists
    span *= 1.0 + _KEEP_SLACK
    stale = np.flatnonzero(span >= reach)
    indices = matches.copy()
    if stale.size:
        moved = q[stale]
        found, near, second = tree_neighbors(moved, index.points, 1, index.tree)
        indices[stale], dists[stale] = found[:, 0], near[:, 0]
        positions[stale] = moved
        matches[stale] = indices[stale]
        reach[stale] = _keep_reach(second)
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
    # real vectors (the root of each row's summed squares), into reused
    # buffers. numpy adds a row of fewer than 8 entries in sequence, so
    # narrow inputs sum the squared columns of a transposed copy in that
    # order, one long pass each, instead of one inner-loop call per row;
    # from 8 entries numpy sums a row pairwise, and rows stay rows.
    narrow = pts.shape[1] < 8
    rows = pts.T.copy() if narrow else pts
    diff = np.empty_like(rows)

    def distances(i: int, out: np.ndarray) -> np.ndarray:
        np.subtract(rows, rows[:, i : i + 1] if narrow else rows[i], out=diff)
        np.multiply(diff, diff, out=diff)
        return np.sqrt(np.add.reduce(diff, axis=0 if narrow else 1, out=out), out=out)

    best = distances(chosen[0], np.empty(n))
    dist = np.empty(n)
    for i in range(1, count):
        nxt = int(np.argmax(best))
        chosen[i] = nxt
        np.minimum(best, distances(nxt, dist), out=best)
    return chosen
