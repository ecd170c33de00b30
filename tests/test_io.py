import numpy as np
import pytest

from ogmm.geometry import PointCloud, invert, transform_points
from ogmm.io import (
    CloudParseError,
    PairSpec,
    RegistrationPair,
    density_subsample,
    gt_overlap_labels,
    halfspace_crop,
    jitter_points,
    make_pair,
    read_cloud,
    sample_shape,
    write_cloud,
)


@pytest.fixture
def small_cloud():
    rng = np.random.default_rng(0)
    return PointCloud(rng.normal(size=(17, 3)))


class TestXyzFormat:
    def test_round_trip_is_exact(self, small_cloud, tmp_path):
        path = tmp_path / "cloud.xyz"
        write_cloud(small_cloud, path)
        back = read_cloud(path)
        np.testing.assert_array_equal(back.points, small_cloud.points)

    def test_rewrite_is_byte_identical(self, small_cloud, tmp_path):
        a, b = tmp_path / "a.xyz", tmp_path / "b.xyz"
        write_cloud(small_cloud, a)
        write_cloud(small_cloud, b)
        assert a.read_bytes() == b.read_bytes()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("1 2 3\n\n  \n4 5 6\n")
        cloud = read_cloud(path)
        np.testing.assert_array_equal(cloud.points, [[1, 2, 3], [4, 5, 6]])

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("1 2 3\n4 5\n")
        with pytest.raises(CloudParseError, match=r":2:"):
            read_cloud(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("1 2 3\n1 two 3\n")
        with pytest.raises(CloudParseError, match=r":2:"):
            read_cloud(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("\n\n")
        with pytest.raises(CloudParseError, match="no points"):
            read_cloud(path)


class TestPlyFormat:
    def test_round_trip_is_exact(self, small_cloud, tmp_path):
        path = tmp_path / "cloud.ply"
        write_cloud(small_cloud, path)
        back = read_cloud(path)
        np.testing.assert_array_equal(back.points, small_cloud.points)

    def test_extra_vertex_properties_ignored(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\ncomment made by hand\n"
            "element vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\n"
            "end_header\n"
            "0 0 1 255\n0.5 -0.25 2 10\n"
        )
        cloud = read_cloud(path)
        np.testing.assert_allclose(cloud.points, [[0, 0, 1], [0.5, -0.25, 2]])

    def test_reordered_coordinate_properties(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float z\nproperty float x\nproperty float y\n"
            "end_header\n3 1 2\n"
        )
        cloud = read_cloud(path)
        np.testing.assert_allclose(cloud.points, [[1, 2, 3]])

    def test_non_vertex_elements_skipped(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\n"
            "element vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 1\nproperty list uchar int vertex_indices\n"
            "end_header\n"
            "0 0 0\n1 1 1\n3 0 1 0\n"
        )
        cloud = read_cloud(path)
        assert len(cloud) == 2

    def test_missing_magic_rejected(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("plx\nformat ascii 1.0\nend_header\n")
        with pytest.raises(CloudParseError, match=":1:"):
            read_cloud(path)

    def test_binary_format_rejected(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(CloudParseError, match="unsupported format"):
            read_cloud(path)

    def test_missing_end_header_rejected(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n")
        with pytest.raises(CloudParseError, match="end_header"):
            read_cloud(path)

    def test_truncated_data_reports_error(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 1 1\n"
        )
        with pytest.raises(CloudParseError, match="ends early"):
            read_cloud(path)

    def test_bad_row_width_reports_line(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 1\n"
        )
        with pytest.raises(CloudParseError, match=":9:"):
            read_cloud(path)

    def test_missing_coordinate_property_rejected(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\n"
            "end_header\n0 0\n"
        )
        with pytest.raises(CloudParseError, match="lacks properties"):
            read_cloud(path)

    def test_unknown_extension_rejected(self, tmp_path, small_cloud):
        with pytest.raises(CloudParseError, match="cannot infer"):
            read_cloud(tmp_path / "c.pcd")
        # Writing is not parsing: the same refusal is a plain ValueError.
        with pytest.raises(ValueError, match="cannot infer") as info:
            write_cloud(small_cloud, tmp_path / "c.pcd")
        assert type(info.value) is ValueError
        assert not (tmp_path / "c.pcd").exists()


class TestSampleShape:
    def test_sphere_points_have_unit_norm(self):
        cloud = sample_shape("sphere", 500, 3)
        np.testing.assert_allclose(np.linalg.norm(cloud.points, axis=1), 1.0, atol=1e-12)

    def test_same_seed_reproduces_cloud(self):
        for kind in ("sphere", "torus", "box", "composite"):
            a = sample_shape(kind, 257, 9)
            b = sample_shape(kind, 257, 9)
            np.testing.assert_array_equal(a.points, b.points)
            c = sample_shape(kind, 257, 10)
            assert not np.array_equal(a.points, c.points)

    def test_max_radius_is_one(self):
        for kind in ("sphere", "torus", "box", "composite"):
            cloud = sample_shape(kind, 400, 1)
            assert np.isclose(np.max(np.linalg.norm(cloud.points, axis=1)), 1.0, atol=1e-12)

    def test_box_points_lie_on_faces(self):
        cloud = sample_shape("box", 600, 2)
        # After uniform scaling, every surface point still attains the same
        # face coordinate: max |coord| is one shared constant.
        face = np.max(np.abs(cloud.points), axis=1)
        np.testing.assert_allclose(face, face[0], atol=1e-12)

    def test_torus_satisfies_implicit_equation(self):
        # Check the raw sampler: the public cloud is rescaled by the
        # empirical max radius, which would obscure the implicit equation.
        from ogmm.io import _sample_torus

        pts = _sample_torus(np.random.default_rng(4), 300)
        ring = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
        residual = (ring - 1.0) ** 2 + pts[:, 2] ** 2 - 0.4**2
        np.testing.assert_allclose(residual, 0.0, atol=1e-12)

    def test_torus_tube_angle_area_uniform(self):
        # Area-uniform sampling puts more mass on the outer half (cos v > 0).
        from ogmm.io import _sample_torus

        pts = _sample_torus(np.random.default_rng(5), 20000)
        outer = np.sum(np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2) > 1.0)
        # Expected fraction: integral of (1+0.4cos v)/2pi over cos v>0 = 1/2 + 0.4/pi.
        expected = 0.5 + 0.4 / np.pi
        assert abs(outer / 20000 - expected) < 0.02

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown shape"):
            sample_shape("plane", 10, 0)


class TestCropJitterDensity:
    def test_crop_keeps_ceil_count_and_order(self):
        cloud = sample_shape("composite", 101, 0)
        kept = halfspace_crop(cloud, 0.7, 11)
        assert len(kept) == 71  # ceil(0.7 * 101)
        # Order preservation: kept points appear in original relative order.
        idx = [int(np.where((cloud.points == p).all(axis=1))[0][0]) for p in kept.points]
        assert idx == sorted(idx)

    def test_crop_selects_top_fraction_along_seeded_direction(self):
        cloud = sample_shape("sphere", 64, 1)
        seed = 5
        kept = halfspace_crop(cloud, 0.5, seed)
        direction = np.random.default_rng(seed).normal(size=3)
        direction /= np.linalg.norm(direction)
        threshold = np.min(kept.points @ direction)
        outside = ~np.isin(
            np.arange(len(cloud)),
            [int(np.where((cloud.points == p).all(axis=1))[0][0]) for p in kept.points],
        )
        assert np.all(cloud.points[outside] @ direction <= threshold + 1e-12)

    def test_crop_full_fraction_is_identity(self):
        cloud = sample_shape("box", 40, 2)
        np.testing.assert_array_equal(halfspace_crop(cloud, 1.0, 0).points, cloud.points)

    def test_crop_rejects_bad_fraction(self):
        cloud = sample_shape("box", 10, 0)
        with pytest.raises(ValueError):
            halfspace_crop(cloud, 0.0, 0)
        with pytest.raises(ValueError):
            halfspace_crop(cloud, 1.1, 0)

    def test_jitter_bounded_by_clip(self):
        cloud = sample_shape("sphere", 200, 3)
        noisy = jitter_points(cloud, sigma=0.05, clip=0.02, seed=7)
        delta = np.abs(noisy.points - cloud.points)
        assert np.max(delta) <= 0.02 + 1e-15
        assert np.max(delta) > 0.015  # clamp actually engaged somewhere

    def test_zero_sigma_is_identity(self):
        cloud = sample_shape("sphere", 50, 3)
        assert jitter_points(cloud, 0.0, 0.05, 1) is cloud

    def test_density_subsample_exact_count(self):
        cloud = sample_shape("torus", 123, 5)
        sub = density_subsample(cloud, 0.5, 9)
        assert len(sub) == 62  # ceil(0.5 * 123)
        sub2 = density_subsample(cloud, 0.5, 9)
        np.testing.assert_array_equal(sub.points, sub2.points)


class TestOverlapLabels:
    def test_hand_constructed_labels(self):
        from ogmm.geometry import RigidTransform

        source = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0], [5.0, 0, 0]]))
        target = PointCloud(np.array([[0.05, 0, 0], [1.2, 0, 0]]))
        labels = gt_overlap_labels(source, target, RigidTransform.identity(), eta=0.1)
        # 0.05 < 0.1 -> 1; |1.2-1.0|=0.2 >= 0.1 -> 0; 3.8 -> 0.
        np.testing.assert_array_equal(labels, [1, 0, 0])

    def test_threshold_is_strict(self):
        from ogmm.geometry import RigidTransform

        source = PointCloud(np.array([[0.1, 0.0, 0.0]]))
        target = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        labels = gt_overlap_labels(source, target, RigidTransform.identity(), eta=0.1)
        assert labels[0] == 0

    def test_full_overlap_when_target_is_transformed_source(self):
        cloud = sample_shape("composite", 128, 7)
        from ogmm.geometry import apply_transform, random_transform

        gt = random_transform(3)
        target = apply_transform(gt, cloud)
        labels = gt_overlap_labels(cloud, target, gt, eta=0.1)
        assert np.all(labels == 1)


class TestMakePair:
    def test_deterministic(self):
        spec = PairSpec(n_points=128, seed=42)
        a = make_pair(spec)
        b = make_pair(spec)
        np.testing.assert_array_equal(a.source.points, b.source.points)
        np.testing.assert_array_equal(a.target.points, b.target.points)
        np.testing.assert_array_equal(a.gt_transform.rotation, b.gt_transform.rotation)
        np.testing.assert_array_equal(a.gt_overlap_source, b.gt_overlap_source)

    def test_different_seeds_differ(self):
        a = make_pair(PairSpec(n_points=128, seed=1))
        b = make_pair(PairSpec(n_points=128, seed=2))
        assert not np.array_equal(a.source.points, b.source.points)

    def test_cloud_sizes_follow_spec(self):
        spec = PairSpec(n_points=200, overlap_keep_fraction=0.7, density_keep=0.5, seed=3)
        pair = make_pair(spec)
        assert len(pair.source) == 140  # ceil(0.7 * 200)
        assert len(pair.target) == 70  # ceil(0.5 * ceil(0.7 * 200))

    def test_labels_recompute_identically(self):
        spec = PairSpec(n_points=256, jitter_sigma=0.01, seed=11)
        pair = make_pair(spec)
        again_src = gt_overlap_labels(pair.source, pair.target, pair.gt_transform, spec.eta)
        again_tgt = gt_overlap_labels(
            pair.target, pair.source, invert(pair.gt_transform), spec.eta
        )
        np.testing.assert_array_equal(pair.gt_overlap_source, again_src)
        np.testing.assert_array_equal(pair.gt_overlap_target, again_tgt)

    def test_high_overlap_pairs_have_mostly_positive_labels(self):
        pair = make_pair(PairSpec(n_points=512, overlap_keep_fraction=0.9, seed=5))
        assert pair.gt_overlap_source.mean() > 0.7
        assert pair.gt_overlap_target.mean() > 0.7

    def test_low_overlap_pairs_have_more_negatives(self):
        high = make_pair(PairSpec(n_points=512, overlap_keep_fraction=0.9, seed=5))
        low = make_pair(PairSpec(n_points=512, overlap_keep_fraction=0.4, seed=5))
        assert low.gt_overlap_source.mean() < high.gt_overlap_source.mean()

    def test_gt_maps_source_region_onto_target(self):
        pair = make_pair(PairSpec(n_points=512, seed=8))
        moved = transform_points(pair.gt_transform, pair.source.points)
        from ogmm.geometry import nearest_neighbors

        _, dists = nearest_neighbors(moved, pair.target)
        # Overlapping points align well; use the labeled subset.
        mask = pair.gt_overlap_source.astype(bool)
        assert mask.sum() > 0
        assert np.all(dists[mask] < 0.1)

    def test_label_vector_validation(self):
        pair = make_pair(PairSpec(n_points=64, seed=0))
        with pytest.raises(ValueError, match="binary"):
            RegistrationPair(
                pair.source,
                pair.target,
                pair.gt_transform,
                np.full(len(pair.source), 2, dtype=np.uint8),
                pair.gt_overlap_target,
            )
        with pytest.raises(ValueError, match="shape"):
            RegistrationPair(
                pair.source,
                pair.target,
                pair.gt_transform,
                pair.gt_overlap_source[:-1],
                pair.gt_overlap_target,
            )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PairSpec(n_points=0)
        with pytest.raises(ValueError):
            PairSpec(overlap_keep_fraction=0.0)
        with pytest.raises(ValueError):
            PairSpec(density_keep=1.5)
        with pytest.raises(ValueError):
            PairSpec(eta=0.0)
