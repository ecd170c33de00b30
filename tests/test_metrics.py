import numpy as np
import pytest

from ogmm.geometry import (
    EulerAnglesDeg,
    PointCloud,
    RigidTransform,
    invert,
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
        est = RigidTransform.from_euler(EulerAnglesDeg(10.0, 0.0, 0.0))
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
        est = invert(RigidTransform.from_euler(EulerAnglesDeg(*angles)))
        assert mae_rotation(est, RigidTransform.identity()) == pytest.approx(60.0, abs=1e-9)
        assert not near_gimbal_lock(est)


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
        assert near_gimbal_lock(RigidTransform.from_euler(EulerAnglesDeg(0.0, 89.95, 0.0)))
        assert not near_gimbal_lock(RigidTransform.from_euler(EulerAnglesDeg(0.0, 45.0, 0.0)))


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
