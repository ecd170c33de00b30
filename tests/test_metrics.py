import numpy as np
import pytest

from ogmm.geometry import (
    PointCloud,
    RigidTransform,
    euler_to_matrix,
    invert,
    matrix_to_euler,
    random_transform,
)
from ogmm.metrics import (
    ccd,
    geodesic_rotation_deg,
    mae_rotation,
    mae_translation,
    near_gimbal_lock,
)

from constructors import axis_angle_matrix


def euler_rotation(angles) -> RigidTransform:
    return RigidTransform(euler_to_matrix(angles), np.zeros(3))


def euler_zyx_oracle(r):
    """Independent angle extraction, degrees, Z-Y-X intrinsic convention."""
    ry = np.arcsin(-r[2, 0])
    rx = np.arctan2(r[2, 1], r[2, 2])
    rz = np.arctan2(r[1, 0], r[0, 0])
    return np.degrees([rx, ry, rz])


class TestMaeRotation:
    def test_identical_transforms(self):
        t = random_transform(3)
        assert mae_rotation(t, t) == 0.0

    def test_single_axis_hand_value(self):
        est = euler_rotation((10.0, 0.0, 0.0))
        assert mae_rotation(est, RigidTransform.identity()) == pytest.approx(10.0 / 3.0, abs=1e-12)

    def test_matches_independent_extraction(self):
        for seed in range(30):
            est = random_transform(seed)
            gt = random_transform(seed + 1000)
            expected = np.mean(np.abs(euler_zyx_oracle(est.rotation) - euler_zyx_oracle(gt.rotation)))
            assert mae_rotation(est, gt) == pytest.approx(expected, abs=1e-9)

    def test_symmetric(self):
        a, b = random_transform(1), random_transform(2)
        assert mae_rotation(a, b) == mae_rotation(b, a)

    @pytest.mark.parametrize("angles", [(180.0, 0.0, 0.0), (0.0, 0.0, 180.0)])
    def test_half_turn_estimates_are_scored(self, angles):
        # An estimate whose Euler extraction meets arctan2's -pi must score,
        # not raise, or one such pair would abort a bench run.
        est = invert(euler_rotation(angles))
        assert mae_rotation(est, RigidTransform.identity()) == pytest.approx(60.0, abs=1e-9)
        assert not near_gimbal_lock(est)


def reference_matrix_to_euler(rotation) -> tuple:
    """Z-Y-X angles (rx, ry, rz) in degrees as three Python floats, in the
    arithmetic matrix_to_euler must keep bit for bit: each angle scaled by
    180 / pi on its own, arctan2's -180 read as 180."""
    r = np.array(rotation, dtype=np.float64)
    sy = -r[2, 0]
    sy = min(1.0, max(-1.0, sy))
    ry = np.arcsin(sy)
    if abs(sy) < 1.0 - 1e-12:
        rx = np.arctan2(r[2, 1], r[2, 2])
        rz = np.arctan2(r[1, 0], r[0, 0])
    else:
        rx = 0.0
        rz = np.arctan2(-r[0, 1], r[1, 1])
    deg = 180.0 / np.pi
    rx, rz = (180.0 if a == -180.0 else a for a in (rx * deg, rz * deg))
    return float(rx), float(ry * deg), float(rz)


def reference_mae_rotation(estimated, gt) -> float:
    est = np.array(reference_matrix_to_euler(estimated), dtype=np.float64)
    ref = np.array(reference_matrix_to_euler(gt), dtype=np.float64)
    return float(np.mean(np.abs(est - ref)))


def _pinned_rotations() -> list:
    """Uniform random rotations (QR of Gaussian matrices), wide seeded
    motions, the two half turns whose extraction meets arctan2's -pi, and
    rotations at and near gimbal lock."""
    rng = np.random.default_rng(41)
    rotations = []
    for _ in range(100):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        rotations.append(RigidTransform(q, np.zeros(3)).rotation)
    rotations += [random_transform(seed, 179.0, 3.0).rotation for seed in range(100)]
    rotations += [invert(euler_rotation(a)).rotation for a in [(180.0, 0.0, 0.0), (0.0, 0.0, 180.0)]]
    rotations += [euler_to_matrix(a) for a in [(25.0, 90.0, -40.0), (0.0, 89.95, 0.0)]]
    return rotations


def test_euler_metrics_keep_the_reference_bits():
    """matrix_to_euler, mae_rotation and near_gimbal_lock equal the
    reference arithmetic bit for bit on every pinned rotation and pair."""
    rotations = _pinned_rotations()
    transforms = [RigidTransform(r, np.zeros(3)) for r in rotations]
    for r, t in zip(rotations, transforms):
        want = np.array(reference_matrix_to_euler(r), dtype=np.float64)
        assert matrix_to_euler(r).tobytes() == want.tobytes()
        assert near_gimbal_lock(t) is (abs(reference_matrix_to_euler(r)[1]) > 89.9)
    assert near_gimbal_lock(transforms[-2]) and near_gimbal_lock(transforms[-1])
    identity = RigidTransform.identity()
    pairs = list(zip(transforms, transforms[1:] + transforms[:1])) + [(t, identity) for t in transforms]
    for est, gt in pairs:
        got, want = mae_rotation(est, gt), reference_mae_rotation(est.rotation, gt.rotation)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestMaeTranslation:
    def test_hand_value(self):
        est = RigidTransform(np.eye(3), (0.3, 0.0, 0.0))
        assert mae_translation(est, RigidTransform.identity()) == pytest.approx(0.1, abs=1e-15)

    def test_symmetric_and_zero_on_equal(self):
        a, b = random_transform(5), random_transform(6)
        assert mae_translation(a, b) == mae_translation(b, a)
        assert mae_translation(a, a) == 0.0


class TestGeodesic:
    def test_axis_angle_recovered(self):
        rotation = axis_angle_matrix((0.0, 0.0, 1.0), 10.0)
        est = RigidTransform(rotation, np.zeros(3))
        assert geodesic_rotation_deg(est, RigidTransform.identity()) == pytest.approx(10.0, abs=1e-9)

    def test_clipped_at_numerical_edge(self):
        t = random_transform(7)
        assert geodesic_rotation_deg(t, t) == 0.0


class TestNearGimbalLock:
    def test_flags_large_pitch(self):
        assert near_gimbal_lock(euler_rotation((0.0, 89.95, 0.0)))
        assert not near_gimbal_lock(euler_rotation((0.0, 45.0, 0.0)))


class TestCcd:
    def test_aligned_clouds(self):
        cloud = PointCloud(np.random.default_rng(0).normal(size=(40, 3)))
        assert ccd(cloud, cloud) == 0.0

    def test_single_pair_below_clip(self):
        a = PointCloud([[0.0, 0.0, 0.0]])
        b = PointCloud([[0.05, 0.0, 0.0]])
        assert ccd(a, b) == pytest.approx(0.05, abs=1e-15)

    def test_single_pair_clipped(self):
        a = PointCloud([[0.0, 0.0, 0.0]])
        b = PointCloud([[5.0, 0.0, 0.0]])
        assert ccd(a, b) == pytest.approx(0.1, abs=1e-15)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(11)
        a = PointCloud(rng.normal(size=(17, 3)))
        b = PointCloud(rng.normal(size=(23, 3)))

        def directed(x, y):
            total = 0.0
            for p in x:
                best = min(np.linalg.norm(p - q) for q in y)
                total += min(best, 0.1)
            return total / len(x)

        expected = 0.5 * (directed(a.points, b.points) + directed(b.points, a.points))
        assert ccd(a, b) == pytest.approx(expected, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(4)
        a = PointCloud(rng.normal(size=(12, 3)))
        b = PointCloud(rng.normal(size=(9, 3)) + 3.0)
        assert ccd(a, b) == ccd(b, a)
        assert ccd(a, b) <= 0.1
