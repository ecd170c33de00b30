import numpy as np
import pytest

from ogmm import geometry
from ogmm.geometry import (
    NN_TREE_MIN_POINTS,
    DegenerateGeometryError,
    EulerAnglesDeg,
    PointCloud,
    RigidTransform,
    apply_transform,
    axis_angle_matrix,
    compose,
    euler_to_matrix,
    farthest_point_sample,
    invert,
    matrix_to_euler,
    nearest_neighbors,
    pairwise_distances,
    random_transform,
    transform_points,
)


def random_rigid(seed):
    return random_transform(seed, rot_max_deg=179.0, trans_max=2.0)


def reference_nearest_neighbors(queries: np.ndarray, target: PointCloud):
    """The dense scan `nearest_neighbors` ran at every size, kept verbatim
    as the oracle its indices and distances must match."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != 3:
        raise ValueError(f"queries must have shape (M, 3), got {q.shape}")
    d = pairwise_distances(q, target.points)
    indices = np.argmin(d, axis=1)
    return indices, d[np.arange(q.shape[0]), indices]


@pytest.fixture
def tree_builds(monkeypatch):
    """Target sizes of the k-d trees nearest_neighbors builds."""
    sizes = []
    real = geometry.cKDTree

    def recording(points, *args, **kwargs):
        sizes.append(len(points))
        return real(points, *args, **kwargs)

    monkeypatch.setattr(geometry, "cKDTree", recording)
    return sizes


def assert_matches_dense_scan(queries, target):
    idx, dist = nearest_neighbors(queries, target)
    ref_idx, ref_dist = reference_nearest_neighbors(queries, target)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(dist, ref_dist)


def shuffled_lattice(seed: int) -> np.ndarray:
    """The 512 points of the 8x8x8 integer lattice in a seeded order, so
    index order does not follow the geometry."""
    grid = np.stack(np.meshgrid(*[np.arange(8.0)] * 3, indexing="ij"), axis=-1)
    return grid.reshape(-1, 3)[np.random.default_rng(seed).permutation(512)]


class TestEulerConversions:
    def test_single_axis_matrices_match_hand_values(self):
        # Rz(90) sends x to y.
        r = euler_to_matrix(EulerAnglesDeg(0.0, 0.0, 90.0))
        np.testing.assert_allclose(r @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-15)
        # Rx(90) sends y to z.
        r = euler_to_matrix(EulerAnglesDeg(90.0, 0.0, 0.0))
        np.testing.assert_allclose(r @ np.array([0, 1.0, 0]), [0, 0, 1], atol=1e-15)
        # Ry(90) sends z to x.
        r = euler_to_matrix(EulerAnglesDeg(0.0, 90.0, 0.0))
        np.testing.assert_allclose(r @ np.array([0, 0, 1.0]), [1, 0, 0], atol=1e-15)

    def test_application_order_is_x_then_y_then_z(self):
        a = EulerAnglesDeg(10.0, 20.0, 30.0)
        rx = euler_to_matrix(EulerAnglesDeg(10.0, 0.0, 0.0))
        ry = euler_to_matrix(EulerAnglesDeg(0.0, 20.0, 0.0))
        rz = euler_to_matrix(EulerAnglesDeg(0.0, 0.0, 30.0))
        np.testing.assert_allclose(euler_to_matrix(a), rz @ ry @ rx, atol=1e-15)

    def test_round_trip_recovers_angles(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            angles = EulerAnglesDeg(
                rng.uniform(-179.0, 179.0),
                rng.uniform(-89.0, 89.0),
                rng.uniform(-179.0, 179.0),
            )
            back = matrix_to_euler(euler_to_matrix(angles))
            np.testing.assert_allclose(back.as_array(), angles.as_array(), atol=1e-10)

    def test_matrix_round_trip_outside_primary_branch(self):
        # ry beyond +/-90 aliases to another angle triple; the matrix itself
        # must still round-trip exactly.
        rng = np.random.default_rng(8)
        for _ in range(200):
            angles = EulerAnglesDeg(
                rng.uniform(-179.0, 179.0),
                rng.uniform(-179.0, 179.0),
                rng.uniform(-179.0, 179.0),
            )
            r = euler_to_matrix(angles)
            r2 = euler_to_matrix(matrix_to_euler(r))
            np.testing.assert_allclose(r2, r, atol=1e-10)

    def test_extracted_angles_stay_in_range(self):
        rng = np.random.default_rng(11)
        for seed in range(300):
            t = random_rigid(seed)
            e = matrix_to_euler(t.rotation)
            assert -180.0 < e.rx <= 180.0
            assert -90.0 - 1e-9 <= e.ry <= 90.0 + 1e-9
            assert -180.0 < e.rz <= 180.0

    def test_gimbal_lock_branch_returns_consistent_matrix(self):
        angles = EulerAnglesDeg(25.0, 90.0, -40.0)
        r = euler_to_matrix(angles)
        e = matrix_to_euler(r)
        assert e.rx == 0.0
        np.testing.assert_allclose(euler_to_matrix(e), r, atol=1e-10)

    def test_angle_range_validation(self):
        with pytest.raises(ValueError):
            EulerAnglesDeg(181.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            EulerAnglesDeg(0.0, -180.0, 0.0)
        with pytest.raises(ValueError):
            EulerAnglesDeg(0.0, np.nan, 0.0)


class TestRigidTransform:
    def test_rejects_non_orthonormal_rotation(self):
        bad = np.eye(3)
        bad[0, 0] = 1.0 + 1e-6
        with pytest.raises(ValueError):
            RigidTransform(bad, np.zeros(3))

    def test_rejects_reflection(self):
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(refl, np.zeros(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3), np.array([0.0, np.inf, 0.0]))

    def test_arrays_are_frozen(self):
        t = RigidTransform.identity()
        with pytest.raises(ValueError):
            t.rotation[0, 0] = 2.0

    def test_compose_matches_homogeneous_matrix_product(self):
        # Oracle: 4x4 homogeneous multiplication.
        for seed in range(50):
            a = random_rigid(seed)
            b = random_rigid(seed + 1000)
            c = compose(b, a)
            np.testing.assert_allclose(c.matrix(), b.matrix() @ a.matrix(), atol=1e-12)

    def test_compose_applies_first_then_second(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 3))
        cloud = PointCloud(pts)
        for seed in range(20):
            a = random_rigid(seed)
            b = random_rigid(seed + 500)
            via_compose = apply_transform(compose(b, a), cloud)
            via_steps = apply_transform(b, apply_transform(a, cloud))
            np.testing.assert_allclose(via_compose.points, via_steps.points, atol=1e-12)

    def test_invert_round_trip(self):
        cloud = PointCloud(np.random.default_rng(4).normal(size=(30, 3)))
        for seed in range(30):
            t = random_rigid(seed)
            back = apply_transform(invert(t), apply_transform(t, cloud))
            np.testing.assert_allclose(back.points, cloud.points, atol=1e-12)
            ident = compose(invert(t), t)
            np.testing.assert_allclose(ident.rotation, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(ident.translation, np.zeros(3), atol=1e-12)

    def test_long_composition_chain_stays_orthonormal(self):
        t = RigidTransform.identity()
        for seed in range(400):
            t = compose(random_rigid(seed), t)
        np.testing.assert_allclose(t.rotation.T @ t.rotation, np.eye(3), atol=1e-12)

    def test_axis_angle_matches_euler_for_coordinate_axes(self):
        np.testing.assert_allclose(
            axis_angle_matrix([0, 0, 1], 30.0),
            euler_to_matrix(EulerAnglesDeg(0.0, 0.0, 30.0)),
            atol=1e-14,
        )
        np.testing.assert_allclose(
            axis_angle_matrix([1, 0, 0], -45.0),
            euler_to_matrix(EulerAnglesDeg(-45.0, 0.0, 0.0)),
            atol=1e-14,
        )

    def test_axis_angle_preserves_axis(self):
        axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        r = axis_angle_matrix(axis, 30.0)
        np.testing.assert_allclose(r @ axis, axis, atol=1e-14)
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-14)


class TestRandomTransform:
    def test_deterministic_per_seed(self):
        a = random_transform(123)
        b = random_transform(123)
        np.testing.assert_array_equal(a.rotation, b.rotation)
        np.testing.assert_array_equal(a.translation, b.translation)
        c = random_transform(124)
        assert not np.array_equal(a.rotation, c.rotation)

    def test_ranges_respected(self):
        for seed in range(200):
            t = random_transform(seed, rot_max_deg=45.0, trans_max=0.5)
            assert np.all(np.abs(t.translation) <= 0.5)
            # The drawn angles are in [0, 45] per axis; verify via the
            # rotation's geodesic angle bound: |total| <= 3 * 45 deg is loose,
            # so check the reconstructed generator instead.
            e = matrix_to_euler(t.rotation)
            assert -1e-9 <= e.rx <= 45.0 + 1e-9
            assert -1e-9 <= e.ry <= 45.0 + 1e-9
            assert -1e-9 <= e.rz <= 45.0 + 1e-9

    def test_zero_magnitudes_give_identity(self):
        t = random_transform(5, rot_max_deg=0.0, trans_max=0.0)
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(t.translation, np.zeros(3), atol=1e-15)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            random_transform(0, rot_max_deg=180.0)
        with pytest.raises(ValueError):
            random_transform(0, trans_max=-0.1)


class TestPointCloud:
    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((0, 3)))

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            PointCloud(np.zeros((5, 3)), features=np.zeros((4, 8)))

    def test_non_finite_rejected(self):
        pts = np.zeros((3, 3))
        pts[1, 1] = np.nan
        with pytest.raises(ValueError):
            PointCloud(pts)

    def test_points_are_frozen_copies(self):
        src = np.ones((4, 3))
        cloud = PointCloud(src)
        src[0, 0] = 99.0
        assert cloud.points[0, 0] == 1.0
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 2.0

    def test_select_keeps_feature_rows_aligned(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.normal(size=(10, 3)), rng.normal(size=(10, 4)))
        sub = cloud.select([2, 5, 7])
        np.testing.assert_array_equal(sub.points, cloud.points[[2, 5, 7]])
        np.testing.assert_array_equal(sub.features, cloud.features[[2, 5, 7]])

    def test_transform_points_matches_apply_transform(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(20, 3))
        t = random_rigid(9)
        np.testing.assert_allclose(
            transform_points(t, pts), apply_transform(t, PointCloud(pts)).points, atol=0
        )


class TestNearestNeighbor:
    def test_matches_explicit_linear_scan(self):
        # Oracle: per-query python loop over all target points.
        rng = np.random.default_rng(21)
        target = PointCloud(rng.normal(size=(60, 3)))
        queries = rng.normal(size=(25, 3))
        idx, dist = nearest_neighbors(queries, target)
        for qi, q in enumerate(queries):
            best_j, best_d = 0, np.linalg.norm(q - target.points[0])
            for j in range(1, len(target)):
                d = np.linalg.norm(q - target.points[j])
                if d < best_d:
                    best_j, best_d = j, d
            assert idx[qi] == best_j
            assert np.isclose(dist[qi], best_d, atol=1e-12)

    def test_ties_resolve_to_lowest_index(self):
        target = PointCloud(np.array([[1.0, 0, 0], [0, 0, 0], [1.0, 0, 0]]))
        idx, _ = nearest_neighbors(np.array([[1.0, 0, 0]]), target)
        assert idx[0] == 0

    def test_pairwise_distances_symmetric_zero_diagonal(self):
        pts = np.random.default_rng(2).normal(size=(15, 3))
        d = pairwise_distances(pts, pts)
        np.testing.assert_allclose(d, d.T, atol=1e-12)
        assert np.all(np.diag(d) == 0.0)


class TestNearestNeighborTree:
    """The k-d tree path must return the dense scan's indices and distances
    bit for bit, ties included; below NN_TREE_MIN_POINTS the dense scan
    runs itself."""

    @pytest.mark.parametrize(
        "n", [NN_TREE_MIN_POINTS - 1, NN_TREE_MIN_POINTS, 4 * NN_TREE_MIN_POINTS]
    )
    def test_random_clouds_either_side_of_the_switch(self, tree_builds, n):
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 1e3):
            target = PointCloud(scale * rng.normal(size=(n, 3)))
            queries = scale * rng.normal(size=(300, 3))
            assert_matches_dense_scan(queries, target)
            # ICP's queries: the cloud itself, slightly moved.
            motion = random_transform(n, rot_max_deg=5.0, trans_max=0.01 * scale)
            assert_matches_dense_scan(transform_points(motion, target.points), target)
        assert tree_builds == ([] if n < NN_TREE_MIN_POINTS else [n] * 6)

    @pytest.mark.parametrize("offset", [(0.5, 0.0, 0.0), (0.5, 0.5, 0.0), (0.5, 0.5, 0.5)])
    def test_lattice_queries_at_half_offsets_all_tie(self, tree_builds, offset):
        # Each query sits midway between 2, 4 or 8 lattice points, so every
        # row's nearest distance is shared and the lowest index must win.
        points = shuffled_lattice(2)
        target = PointCloud(points)
        queries = points[np.all(points < 7.0, axis=1)] + np.array(offset)
        idx, dist = nearest_neighbors(queries, target)
        tied = np.sum(pairwise_distances(queries, points) == dist[:, None], axis=1)
        assert np.all(tied == 2 ** int(np.count_nonzero(offset)))
        assert_matches_dense_scan(queries, target)
        assert tree_builds == [512, 512]

    def test_duplicated_target_points(self, tree_builds):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(NN_TREE_MIN_POINTS // 2 + 1, 3))
        points = np.concatenate([base, base, base[:7]])[rng.permutation(2 * len(base) + 7)]
        target = PointCloud(points)
        # Queries on the points themselves tie at distance 0 between copies.
        assert_matches_dense_scan(points, target)
        assert_matches_dense_scan(base + 0.01 * rng.normal(size=base.shape), target)
        assert tree_builds == [len(points)] * 2

    def test_queries_far_outside_the_cloud(self, tree_builds):
        rng = np.random.default_rng(6)
        target = PointCloud(rng.normal(size=(2 * NN_TREE_MIN_POINTS, 3)))
        directions = rng.normal(size=(100, 3))
        for distance in (1e2, 1e4, 1e6):
            queries = distance * directions / np.linalg.norm(directions, axis=1, keepdims=True)
            assert_matches_dense_scan(queries, target)
        assert len(tree_builds) == 3

    @pytest.mark.parametrize("n", [NN_TREE_MIN_POINTS - 1, NN_TREE_MIN_POINTS])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_queries_rejected_on_both_paths(self, n, bad):
        target = PointCloud(np.random.default_rng(7).normal(size=(n, 3)))
        queries = np.zeros((4, 3))
        queries[2, 1] = bad
        with pytest.raises(ValueError, match="queries contain non-finite values"):
            nearest_neighbors(queries, target)


class TestFarthestPointSample:
    def test_greedy_max_min_property(self):
        # Oracle: recompute the greedy choice step by step in pure python.
        rng = np.random.default_rng(31)
        pts = rng.normal(size=(40, 3))
        for seed in range(10):
            chosen = farthest_point_sample(pts, 12, seed)
            assert len(set(chosen.tolist())) == 12
            start = np.random.default_rng(seed).integers(0, 40)
            assert chosen[0] == start
            picked = [int(chosen[0])]
            for step in range(1, 12):
                dists = np.min(
                    np.linalg.norm(pts[:, None, :] - pts[picked][None, :, :], axis=2), axis=1
                )
                assert int(np.argmax(dists)) == chosen[step]
                picked.append(int(chosen[step]))

    def test_line_case_picks_extremes_first(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [10.0, 0, 0]])
        # Find a seed whose first pick is index 0, then 10 must follow.
        for seed in range(20):
            if np.random.default_rng(seed).integers(0, 4) == 0:
                chosen = farthest_point_sample(pts, 2, seed)
                assert chosen.tolist() == [0, 3]
                break
        else:
            pytest.fail("no seed produced start index 0")

    def test_count_validation(self):
        pts = np.zeros((5, 3))
        with pytest.raises(ValueError):
            farthest_point_sample(pts, 0, 0)
        with pytest.raises(ValueError):
            farthest_point_sample(pts, 6, 0)

    def test_works_in_feature_dimension(self):
        pts = np.random.default_rng(5).normal(size=(30, 16))
        chosen = farthest_point_sample(pts, 8, 3)
        assert len(set(chosen.tolist())) == 8


def test_degenerate_geometry_error_is_value_error():
    assert issubclass(DegenerateGeometryError, ValueError)
