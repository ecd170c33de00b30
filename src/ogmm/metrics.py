"""Alignment error metrics.

Rotation error follows the component-wise Euler protocol (mean absolute
difference of the three Z-Y-X angles, in degrees); the geodesic angle is
carried alongside as a representation-free cross-check. Chamfer distance is
clipped rather than truncated so it stays monotone in alignment quality.
"""

from __future__ import annotations

import numpy as np

from .geometry import PointCloud, RigidTransform, matrix_to_euler, nearest_neighbors

CCD_CLIP = 0.1
GIMBAL_PROXIMITY_DEG = 89.9


def mae_rotation(estimated: RigidTransform, gt: RigidTransform) -> float:
    """Mean absolute difference of the Z-Y-X Euler angles, in degrees."""
    est = matrix_to_euler(estimated.rotation)
    ref = matrix_to_euler(gt.rotation)
    return float(np.mean(np.abs(est - ref)))


def mae_translation(estimated: RigidTransform, gt: RigidTransform) -> float:
    return float(np.mean(np.abs(estimated.translation - gt.translation)))


def geodesic_rotation_deg(estimated: RigidTransform, gt: RigidTransform) -> float:
    """Angle of the relative rotation, in degrees."""
    cos = (np.trace(estimated.rotation.T @ gt.rotation) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))


def near_gimbal_lock(transform: RigidTransform) -> bool:
    """Flag |ry| above GIMBAL_PROXIMITY_DEG: Euler extraction is ill-conditioned there."""
    return bool(abs(matrix_to_euler(transform.rotation)[1]) > GIMBAL_PROXIMITY_DEG)


def _directed(points: np.ndarray, other: PointCloud) -> float:
    _, dists = nearest_neighbors(points, other)
    return float(np.minimum(dists, CCD_CLIP).mean())


def ccd(source_transformed: PointCloud, target: PointCloud) -> float:
    """Clipped chamfer distance, averaged over both directions.

    Nearest-neighbor distances are clamped at CCD_CLIP so far-away points
    saturate instead of dominating.
    """
    forward = _directed(source_transformed.points, target)
    backward = _directed(target.points, source_transformed)
    return 0.5 * (forward + backward)
