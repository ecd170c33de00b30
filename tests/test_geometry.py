import numpy as np
import pytest
from scipy.spatial.distance import cdist

from ogmm.geometry import (
    NN_TREE_MIN_POINTS,
    DegenerateGeometryError,
    EulerAnglesDeg,
    NeighborIndex,
    PointCloud,
    RigidTransform,
    apply_transform,
    axis_angle_matrix,
    compose,
    euler_to_matrix,
    farthest_point_sample,
    invert,
    kabsch_rotation,
    matrix_to_euler,
    nearest_neighbors,
    random_transform,
    transform_points,
    tree_neighbors,
)
from test_clustering import reference_farthest_point_sample


def random_rigid(seed):
    return random_transform(seed, rot_max_deg=179.0, trans_max=2.0)


def reference_nearest_neighbors(queries: np.ndarray, target: PointCloud):
    """The dense scan `nearest_neighbors` ran at every size, kept verbatim
    as the oracle its indices and distances must match."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != 3:
        raise ValueError(f"queries must have shape (M, 3), got {q.shape}")
    d = cdist(q, target.points)
    indices = np.argmin(d, axis=1)
    return indices, d[np.arange(q.shape[0]), indices]


def assert_matches_dense_scan(queries, target):
    """Both forms of the target, the cloud and a NeighborIndex built for
    the check, give the dense scan's arrays; each builds its own tree from
    NN_TREE_MIN_POINTS points on."""
    ref_idx, ref_dist = reference_nearest_neighbors(queries, target)
    for form in (target, NeighborIndex(target)):
        idx, dist = nearest_neighbors(queries, form)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(dist, ref_dist)


def assert_history_matches(queries, index, target):
    """index, whatever it searched before, gives the dense scan's arrays."""
    ref_idx, ref_dist = reference_nearest_neighbors(queries, target)
    idx, dist = nearest_neighbors(queries, index)
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

    @pytest.mark.parametrize("angles", [(180.0, 0.0, 0.0), (0.0, 0.0, 180.0)])
    def test_half_turn_reads_back_as_plus_180(self, angles):
        # The inverse's sine term rounds to a tiny negative, where arctan2
        # gives -pi.
        t = invert(RigidTransform.from_euler(EulerAnglesDeg(*angles)))
        np.testing.assert_allclose(t.euler_angles().as_array(), angles, atol=1e-12)

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

    def test_kabsch_rotation_recovers_motion_and_refuses_reflections(self):
        rng = np.random.default_rng(5)
        for seed in range(20):
            x = rng.normal(size=(12, 3))
            x -= x.mean(axis=0)
            rot = random_rigid(seed).rotation
            got, s = kabsch_rotation(x.T @ (x @ rot.T))
            np.testing.assert_allclose(got, rot, atol=1e-12)
            assert np.all(s[:-1] >= s[1:])
        # A reflecting cross-moment still yields a proper rotation.
        got, _ = kabsch_rotation(np.diag([3.0, 2.0, -1.0]))
        np.testing.assert_allclose(got, np.diag([1.0, 1.0, 1.0]), atol=1e-15)
        assert np.isclose(np.linalg.det(got), 1.0)

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


class TestTreeNeighbors:
    """tree_neighbors must return each row's first k entries of the dense
    stable argsort, bit for bit, and the (k+1)-th distance as its bound."""

    @staticmethod
    def assert_matches_stable_argsort(queries, points, k, tree=None):
        full = cdist(queries, points)
        order = np.argsort(full, axis=1, kind="stable")
        idx, dist, bound = tree_neighbors(queries, points, k, tree)
        np.testing.assert_array_equal(idx, order[:, :k])
        np.testing.assert_array_equal(dist, np.take_along_axis(full, order[:, :k], axis=1))
        np.testing.assert_array_equal(bound, full[np.arange(len(full)), order[:, k]])

    @pytest.mark.parametrize("k", [1, 2, 6, 7, 19])
    def test_lattice_ties_inside_and_across_the_kth_neighbour(self, k):
        # Queried on itself, an interior lattice point lists itself at 0,
        # then 6 points at 1, 12 at sqrt 2 and 8 at sqrt 3; a half-offset
        # query sits between 8 or 4 nearest points. So these k cut through
        # tied shells, inside the k and across the k-th neighbour.
        points = shuffled_lattice(3)
        inner = points[np.all(points < 7.0, axis=1)]
        for queries in (points, inner + 0.5, inner + np.array([0.5, 0.5, 0.0])):
            self.assert_matches_stable_argsort(queries, points, k)

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_duplicated_points(self, k):
        rng = np.random.default_rng(k)
        base = rng.normal(size=(40, 3))
        points = np.concatenate([base, base, base[:5], base[:5]])[rng.permutation(90)]
        self.assert_matches_stable_argsort(points, points, k)
        self.assert_matches_stable_argsort(base + 0.01 * rng.normal(size=base.shape), points, k)

    def test_given_tree_is_used_as_built(self, tree_builds):
        points = np.random.default_rng(4).normal(size=(200, 3))
        index = NeighborIndex(PointCloud(np.concatenate([points, points])))
        queries = np.random.default_rng(5).normal(size=(50, 3))
        self.assert_matches_stable_argsort(queries, index.points, 3, index.tree)
        assert tree_builds == [400]

    def test_results_are_views_of_one_tree_result(self):
        # Callers reduce these arrays; a copy would change numpy's
        # summation order past 8192 rows and so move the last bit.
        points = np.random.default_rng(6).normal(size=(100, 3))
        idx, dist, bound = tree_neighbors(points, points, 4)
        assert dist.base is not None and dist.base is bound.base
        assert dist.strides == (5 * dist.itemsize, dist.itemsize)
        assert idx.strides == (5 * idx.itemsize, idx.itemsize)


def history_start(kind: str, rng) -> tuple[np.ndarray, np.ndarray]:
    """Target points of a tree-sized cloud and a first query block on it:
    a normal cloud queried near its points, the shuffled lattice queried
    at half offsets (every row ties), or a cloud of duplicated points
    queried on the points themselves (ties at distance 0)."""
    if kind == "random":
        points = rng.normal(size=(2 * NN_TREE_MIN_POINTS, 3))
        return points, points[:300] + 0.05 * rng.normal(size=(300, 3))
    if kind == "lattice":
        points = shuffled_lattice(2)
        return points, points[np.all(points < 7.0, axis=1)] + np.array([0.5, 0.5, 0.0])
    base = rng.normal(size=(NN_TREE_MIN_POINTS // 2 + 1, 3))
    points = np.concatenate([base, base, base[:7]])[rng.permutation(2 * len(base) + 7)]
    return points, points[:300]


def query_history(points: np.ndarray, start: np.ndarray, rng) -> list:
    """The blocks one index meets, in order: the start block moved three
    times each by 1e-3, 1e-1 and 1 of the point spacing, an unrelated block
    of the same length, one of another length, a block far outside the
    cloud, a return to the last moved block and then to the start block."""
    spacing = (np.prod(np.ptp(points, axis=0)) / len(points)) ** (1.0 / 3.0)
    spread = points.std(axis=0)
    blocks, q = [start], start
    for step in (1e-3, 1e-1, 1.0):
        for _ in range(3):
            q = q + step * spacing * rng.normal(size=q.shape)
            blocks.append(q)
    directions = rng.normal(size=q.shape)
    far = 1e4 * np.ptp(points) * directions / np.linalg.norm(directions, axis=1, keepdims=True)
    blocks += [
        spread * rng.normal(size=q.shape),
        spread * rng.normal(size=(len(q) + 1, 3)),
        far,
        q,
        start,
    ]
    return blocks


class TestNearestNeighborTree:
    """The k-d tree path must return the dense scan's indices and distances
    bit for bit, ties included, whether the target comes as a cloud or as
    a NeighborIndex, whatever blocks that index searched before; below
    NN_TREE_MIN_POINTS the dense scan runs itself."""

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
        assert tree_builds == ([] if n < NN_TREE_MIN_POINTS else [n] * 12)

    @pytest.mark.parametrize("offset", [(0.5, 0.0, 0.0), (0.5, 0.5, 0.0), (0.5, 0.5, 0.5)])
    def test_lattice_queries_at_half_offsets_all_tie(self, tree_builds, offset):
        # Each query sits midway between 2, 4 or 8 lattice points, so every
        # row's nearest distance is shared and the lowest index must win.
        points = shuffled_lattice(2)
        target = PointCloud(points)
        queries = points[np.all(points < 7.0, axis=1)] + np.array(offset)
        idx, dist = nearest_neighbors(queries, target)
        tied = np.sum(cdist(queries, points) == dist[:, None], axis=1)
        assert np.all(tied == 2 ** int(np.count_nonzero(offset)))
        assert_matches_dense_scan(queries, target)
        assert tree_builds == [512] * 3

    def test_duplicated_target_points(self, tree_builds):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(NN_TREE_MIN_POINTS // 2 + 1, 3))
        points = np.concatenate([base, base, base[:7]])[rng.permutation(2 * len(base) + 7)]
        target = PointCloud(points)
        # Queries on the points themselves tie at distance 0 between copies.
        assert_matches_dense_scan(points, target)
        assert_matches_dense_scan(base + 0.01 * rng.normal(size=base.shape), target)
        assert tree_builds == [len(points)] * 4

    def test_queries_far_outside_the_cloud(self, tree_builds):
        rng = np.random.default_rng(6)
        target = PointCloud(rng.normal(size=(2 * NN_TREE_MIN_POINTS, 3)))
        directions = rng.normal(size=(100, 3))
        for distance in (1e2, 1e4, 1e6):
            queries = distance * directions / np.linalg.norm(directions, axis=1, keepdims=True)
            assert_matches_dense_scan(queries, target)
        assert len(tree_builds) == 6

    @pytest.mark.parametrize("n", [NN_TREE_MIN_POINTS - 1, NN_TREE_MIN_POINTS])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_queries_rejected_on_both_paths(self, n, bad):
        target = PointCloud(np.random.default_rng(7).normal(size=(n, 3)))
        queries = np.zeros((4, 3))
        queries[2, 1] = bad
        for form in (target, NeighborIndex(target)):
            with pytest.raises(ValueError, match="queries contain non-finite values"):
                nearest_neighbors(queries, form)

    @pytest.mark.parametrize("scale", [1e-120, 1e-3, 1.0, 1e3, 1e120])
    @pytest.mark.parametrize("kind", ["random", "lattice", "duplicated"])
    def test_remembering_index_matches_a_fresh_search_over_a_history(
        self, tree_query_rows, kind, scale
    ):
        """One index searches a whole history of blocks, moving, unrelated,
        resized, far away and back onto ties, and a non-finite block that
        raises; every valid block gets the dense scan's arrays, while rows
        with a second-nearest bound keep their match without a tree search,
        except at scales where squared distances leave the normal range."""
        rng = np.random.default_rng(8)
        points, start = history_start(kind, rng)
        target = PointCloud(scale * points)
        index = NeighborIndex(target)
        blocks = [scale * q for q in query_history(points, start, rng)]
        bad = blocks[-1].copy()
        bad[3, 1] = np.nan
        moving = blocks[0].copy()
        assert_history_matches(moving, index, target)
        moving[...] = blocks[1]  # a caller may move its block in place
        for queries in [moving] + blocks[2:-1]:
            assert_history_matches(queries, index, target)
        with pytest.raises(ValueError, match="queries contain non-finite values"):
            nearest_neighbors(bad, index)
        assert_history_matches(blocks[-1], index, target)
        sent, offered = sum(tree_query_rows), sum(len(q) for q in blocks)
        if kind == "duplicated" or scale in (1e-120, 1e120):
            # Every nearest point has a copy at the same distance, or the
            # bound lies outside the range its rounding argument covers, so
            # it vouches for no match.
            assert sent == offered
        else:
            assert sent < offered


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


class TestFarthestPointSampleBitExact:
    """Inputs narrower than 8 columns sum their squared columns in
    sequence, the order numpy sums such rows in np.linalg.norm; wider
    ones, 8 columns included, keep numpy's pairwise row reduction. Sizes
    cross 8192 entries, where numpy's buffered reductions change their
    chunking."""

    WIDTHS = [1, 2, 3, 4, 5, 6, 7, 8, 32]

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7])
    def test_numpy_sums_short_rows_in_sequence(self, width):
        # The order the column sweep relies on, checked on numpy itself.
        rng = np.random.default_rng(width)
        for n in (1, 7, 8191, 8193, 20000):
            x = rng.normal(size=(n, width)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
            sequential = np.zeros(n)
            for column in x.T:
                sequential += column * column
            np.testing.assert_array_equal(np.sqrt(sequential), np.linalg.norm(x, axis=1))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_matches_the_reference(self, width):
        rng = np.random.default_rng(width)
        for n in (1, 2, 9, 512, 8191, 8193, 20000):
            x = rng.normal(size=(n, width)) * 10.0 ** rng.uniform(-3, 3)
            count = min(n, 16)
            for seed in (0, 1):
                np.testing.assert_array_equal(
                    farthest_point_sample(x, count, seed),
                    reference_farthest_point_sample(x, count, seed),
                )

    @pytest.mark.parametrize("width", WIDTHS)
    def test_permuted_coordinates(self, width):
        # Each row's cyclic shifts lie at the same exact distance from the
        # origin, so which of them a max-min step picks is decided by how
        # the squares were summed.
        rng = np.random.default_rng(100 + width)
        base = rng.uniform(0.1, 1.0, size=(max(400 // width, 8), width))
        x = np.concatenate([np.roll(base, s, axis=1) for s in range(width)])
        x = np.concatenate([np.zeros((1, width)), x[rng.permutation(len(x))]])
        for seed in range(3):
            np.testing.assert_array_equal(
                farthest_point_sample(x, len(x), seed),
                reference_farthest_point_sample(x, len(x), seed),
            )

    @pytest.mark.parametrize("width", [1, 2, 3, 7, 32])
    def test_lattice_with_exact_ties(self, width):
        # On an integer lattice every squared distance is an exact integer,
        # so max-min ties are exact and go to the lowest index.
        side = {1: 40, 2: 9, 3: 5, 7: 2, 32: 1}[width]
        axes = [np.arange(float(side))] * width if width < 32 else None
        if axes is None:
            grid = np.eye(32)[np.random.default_rng(32).permutation(32)]
        else:
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, width)
        grid = grid[np.random.default_rng(width).permutation(len(grid))]
        for seed in range(4):
            count = min(len(grid), 40)
            np.testing.assert_array_equal(
                farthest_point_sample(grid, count, seed),
                reference_farthest_point_sample(grid, count, seed),
            )


def test_degenerate_geometry_error_is_value_error():
    assert issubclass(DegenerateGeometryError, ValueError)
