import numpy as np
import pytest
from scipy.spatial.distance import cdist

from ogmm import features
from ogmm.features import (
    FeatureConfig,
    SeededMlp,
    _knn_indices,
    encode,
)
from ogmm.geometry import PointCloud, apply_transform, random_transform
from ogmm.io import sample_shape
from ogmm.registration import RegisterConfig, register


class TestSeededMlp:
    def test_same_seed_same_function(self):
        a = SeededMlp([4, 8, 3], seed=7)
        b = SeededMlp([4, 8, 3], seed=7)
        x = np.random.default_rng(0).normal(size=(10, 4))
        np.testing.assert_array_equal(a(x), b(x))

    def test_different_seeds_differ(self):
        x = np.random.default_rng(1).normal(size=(5, 4))
        a = SeededMlp([4, 6], seed=1)(x)
        b = SeededMlp([4, 6], seed=2)(x)
        assert not np.array_equal(a, b)

    def test_zero_network_maps_to_zero(self):
        mlp = SeededMlp.zeros([3, 5, 2])
        x = np.random.default_rng(2).normal(size=(7, 3))
        np.testing.assert_array_equal(mlp(x), np.zeros((7, 2)))

    def test_hand_computed_forward(self):
        # Oracle: fix tiny weights by hand and evaluate on paper.
        mlp = SeededMlp([2, 2, 1], seed=0)
        mlp.weights = [np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([[2.0], [3.0]])]
        mlp.biases = [np.array([0.5, 0.5]), np.array([-1.0])]
        x = np.array([[1.0, 2.0]])
        # layer 1: [1.5, -1.5] -> relu -> [1.5, 0]; layer 2: 3.0 - 1.0 = 2.0
        np.testing.assert_allclose(mlp(x), [[2.0]], atol=1e-15)

    def test_weights_respect_uniform_bound(self):
        mlp = SeededMlp([10, 20, 5], seed=4)
        for w, (fi, fo) in zip(mlp.weights, [(10, 20), (20, 5)]):
            a = np.sqrt(6.0 / (fi + fo))
            assert np.all(np.abs(w) <= a)
        assert not np.array_equal(mlp.weights[0], np.zeros_like(mlp.weights[0]))

    def test_input_shape_validated(self):
        mlp = SeededMlp([3, 2], seed=0)
        with pytest.raises(ValueError, match="shape"):
            mlp(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            SeededMlp([3], seed=0)


def descriptor_stats_oracle(points, k):
    """Loop re-derivation of the descriptor statistics."""
    n = len(points)
    cloud_mean = points.mean(axis=0)
    all_knn = np.zeros((n, k))
    for i in range(n):
        d = np.linalg.norm(points - points[i], axis=1)
        d[i] = np.inf
        all_knn[i] = d[np.argsort(d, kind="stable")[:k]]
    scale = all_knn.mean()
    stats = np.zeros((n, k + 5))
    for i in range(n):
        d = np.linalg.norm(points - points[i], axis=1)
        d[i] = np.inf
        nbr = np.argsort(d, kind="stable")[:k]
        group = np.vstack([points[i], points[nbr]])
        centered = group - group.mean(axis=0)
        cov = centered.T @ centered / (k + 1)
        eigs = np.sort(np.linalg.eigvalsh(cov))[::-1]
        lead = max(eigs[0], 1e-18)
        stats[i, :k] = all_knn[i] / scale
        stats[i, k] = np.sqrt(max(eigs[0], 0.0)) / scale
        stats[i, k + 1] = (eigs[1] - eigs[2]) / lead
        stats[i, k + 2] = eigs[2] / lead
        stats[i, k + 3] = np.linalg.norm(points[i] - cloud_mean)
        stats[i, k + 4] = scale / (scale + all_knn[i].mean())
    return (stats - stats.mean(axis=0)) / np.maximum(stats.std(axis=0), 1e-9)


def reference_encode(cloud: PointCloud, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """`encode` before its passes ran along the point axis, kept verbatim
    (concatenate, mean, einsum, norm, a fresh MLP) as the oracle its
    output must equal bit for bit."""
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


def knn_oracle(points, k):
    """Full stable argsort of every row of the distance matrix."""
    dist = cdist(points, points)
    np.fill_diagonal(dist, np.inf)
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(dist, order, axis=1)


def reference_knn_indices(points: np.ndarray, k: int):
    """The dense partial selection `_knn_indices` ran at every size, kept
    verbatim as the oracle its indices and distances must match."""
    n = points.shape[0]
    if k >= n:
        raise ValueError(f"k_neighbors must be below the point count, got k={k}, N={n}")
    dist = cdist(points, points)
    np.fill_diagonal(dist, np.inf)
    # Each row's k+1 smallest distances, sorted by (distance, index). They
    # are the stable argsort's first k+1 unless more entries tie with the
    # largest of them; such rows take the full stable argsort.
    order = np.argpartition(dist, k, axis=1)[:, : k + 1]
    order_dist = np.take_along_axis(dist, order, axis=1)
    order = np.take_along_axis(order, np.lexsort((order, order_dist), axis=1), axis=1)
    tied = np.flatnonzero((dist <= order_dist.max(axis=1, keepdims=True)).sum(axis=1) > k + 1)
    if tied.size:
        order[tied] = np.argsort(dist[tied], axis=1, kind="stable")[:, : k + 1]
    order = order[:, :k]
    return order, np.take_along_axis(dist, order, axis=1)


def assert_knn_matches_dense(points, k):
    got = _knn_indices(points, k)
    for expected in (reference_knn_indices(points, k), knn_oracle(points, k)):
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])


def shuffled_grid_rows(n: int) -> np.ndarray:
    """The first n points of the 8x8x8 integer lattice, in a seeded order."""
    grid = np.stack(np.meshgrid(*[np.arange(8.0)] * 3, indexing="ij"), axis=-1)
    return grid.reshape(-1, 3)[:n][np.random.default_rng(n).permutation(n)]


class TestKnnIndicesTree:
    """The k-d tree path must match the dense selection it replaced, bit
    for bit, on the inputs that send rows back to the dense argsort."""

    @pytest.mark.parametrize("k", [5, 16])
    def test_shape_clouds(self, k):
        for n in (77, 128, 180, 512):
            for kind in ("composite", "box", "sphere"):
                assert_knn_matches_dense(sample_shape(kind, n, n).points, k)

    def test_descriptor_bit_identical_to_dense_selection(self, monkeypatch):
        # Past 8192 neighbor distances numpy sums a strided array in
        # buffered chunks, so the statistics only repeat bit for bit if the
        # returned arrays are laid out as the dense ones were.
        cloud = sample_shape("box", 2048, 3)
        cfg = FeatureConfig(d=16, k_neighbors=16)
        got = encode(cloud, cfg)
        monkeypatch.setattr(features, "_knn_indices", reference_knn_indices)
        np.testing.assert_array_equal(got, encode(cloud, cfg))

    @pytest.mark.parametrize("k", [1, 5, 16])
    def test_coincident_points(self, k):
        rng = np.random.default_rng(k)
        base = rng.normal(size=(60, 3))
        # Pairs and triples of copies, so self need not come first and
        # duplicates sit at distance 0, some inside and some across the
        # k-th boundary.
        points = np.concatenate([base, base[:30], base[:10]])[rng.permutation(100)]
        assert_knn_matches_dense(points, k)
        assert_knn_matches_dense(np.repeat(base[:1], k + 3, axis=0), k)

    @pytest.mark.parametrize("n", [2, 3, 17, 64])
    def test_k_is_one_below_the_point_count(self, n):
        points = np.random.default_rng(n).normal(size=(n, 3))
        assert_knn_matches_dense(points, n - 1)
        assert_knn_matches_dense(shuffled_grid_rows(n), n - 1)


class TestKnnIndices:
    """The partial selection must return the stable argsort's neighbors, bit
    for bit, ties included."""

    @pytest.mark.parametrize("k", [5, 16])
    def test_random_clouds(self, k):
        rng = np.random.default_rng(k)
        for n in (k + 1, 40, 300):
            points = rng.normal(size=(n, 3))
            got = _knn_indices(points, k)
            expected = knn_oracle(points, k)
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])

    @pytest.mark.parametrize("k", [5, 16])
    def test_lattice_with_exact_ties(self, k):
        # On an integer lattice every interior point has 6 neighbors at
        # distance 1, 12 at sqrt 2 and 8 at sqrt 3, so both k = 5 and k = 16
        # cut through a tied shell; the shuffle keeps index order from
        # following the geometry.
        grid = np.stack(np.meshgrid(*[np.arange(8.0)] * 3, indexing="ij"), axis=-1)
        points = grid.reshape(-1, 3)[np.random.default_rng(1).permutation(512)]
        got = _knn_indices(points, k)
        expected = knn_oracle(points, k)
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])


class TestEncodeBitExact:
    """encode's long-axis passes rely on numpy's summation orders (README,
    "same sums, long axes"); a numpy that changes them fails here instead
    of moving descriptors by the last bit."""

    @pytest.mark.parametrize("n", [17, 60, 512, 1024])
    @pytest.mark.parametrize("kind", ["composite", "torus", "sphere"])
    def test_matches_the_reference(self, kind, n):
        cloud = sample_shape(kind, n, n)
        for k in (1, 5, 6, 16, n - 1):
            cfg = FeatureConfig(d=16, k_neighbors=k, mlp_seed=k)
            np.testing.assert_array_equal(encode(cloud, cfg), reference_encode(cloud, cfg))

    @pytest.mark.parametrize("k", [1, 5, 16])
    def test_duplicated_points(self, k):
        # Copies at distance 0 send rows to the dense k-NN fallback.
        rng = np.random.default_rng(k)
        base = sample_shape("composite", 80, k).points
        points = np.concatenate([base, base[:30], base[:10]])[rng.permutation(120)]
        cfg = FeatureConfig(d=8, k_neighbors=k)
        cloud = PointCloud(points)
        np.testing.assert_array_equal(encode(cloud, cfg), reference_encode(cloud, cfg))

    @pytest.mark.parametrize("k", [1, 5])
    def test_all_points_coincident(self, k):
        # Every neighbour distance is 0, so the descriptor's scale falls
        # back to 1.
        cloud = PointCloud(np.tile([[0.3, -1.2, 2.5]], (k + 4, 1)))
        cfg = FeatureConfig(d=8, k_neighbors=k)
        got = encode(cloud, cfg)
        assert np.all(np.isfinite(got))
        np.testing.assert_array_equal(got, reference_encode(cloud, cfg))


@pytest.fixture
def cold_mlp_cache():
    """encode's MLP cache, emptied before and after the test."""
    features._seeded_mlp.cache_clear()
    yield features._seeded_mlp
    features._seeded_mlp.cache_clear()


class TestSeededMlpCache:
    def test_at_most_one_construction_per_start(self, monkeypatch, cold_mlp_cache):
        built = []

        class Counting(SeededMlp):
            def __init__(self, dims, seed):
                built.append(seed)
                super().__init__(dims, seed)

        monkeypatch.setattr(features, "SeededMlp", Counting)
        cloud = sample_shape("composite", 96, 4)
        moved = apply_transform(random_transform(4), cloud)
        ones = np.ones(len(cloud))
        config = RegisterConfig.desk(starts=3)
        # Cold: each start's seed is built once, for the source; the target
        # shares it.
        result = register(cloud, moved, config, ones, ones)
        starts = result.diagnostics["starts"]
        assert starts == 3
        assert len(built) == starts
        assert len(set(built)) == starts
        # Warm: nothing is built.
        again = register(cloud, moved, config, ones, ones)
        assert len(built) == starts
        np.testing.assert_array_equal(again.transform.rotation, result.transform.rotation)

    def test_cached_weights_are_read_only(self, cold_mlp_cache):
        mlp = cold_mlp_cache(0, 10, 32)
        for array in (*mlp.weights, *mlp.biases):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_one_mlp_per_seed_and_widths(self, cold_mlp_cache):
        base = cold_mlp_cache(0, 10, 32)
        assert cold_mlp_cache(0, 10, 32) is base
        x = np.random.default_rng(5).normal(size=(6, 10))
        for other in (cold_mlp_cache(1, 10, 32), cold_mlp_cache(0, 10, 16)):
            assert other is not base
            assert not np.array_equal(other(x)[:, :16], base(x)[:, :16])
        wider = cold_mlp_cache(0, 11, 32)
        assert wider is not base and wider.dims == (11, 32, 32)


class TestEncode:
    def test_matches_loop_oracle_through_shared_mlp(self):
        cloud = sample_shape("composite", 60, 0)
        cfg = FeatureConfig(d=16, k_neighbors=5, mlp_seed=9)
        got = encode(cloud, cfg)
        stats = descriptor_stats_oracle(cloud.points, 5)
        seed = int(np.random.SeedSequence(9).generate_state(1)[0])
        expected = SeededMlp([10, 16, 16], seed=seed)(stats)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_rigid_invariance(self):
        cloud = sample_shape("torus", 100, 1)
        cfg = FeatureConfig(d=24, k_neighbors=6)
        base = encode(cloud, cfg)
        for seed in range(20):
            t = random_transform(seed, rot_max_deg=179.0, trans_max=3.0)
            moved = encode(apply_transform(t, cloud), cfg)
            assert np.max(np.abs(moved - base)) <= 1e-6

    def test_permutation_equivariance(self):
        cloud = sample_shape("composite", 50, 2)
        cfg = FeatureConfig(d=8)
        perm = np.random.default_rng(3).permutation(50)
        base = encode(cloud, cfg)
        shuffled = encode(PointCloud(cloud.points[perm]), cfg)
        np.testing.assert_allclose(shuffled, base[perm], atol=1e-10)

    def test_seed_changes_features(self):
        cloud = sample_shape("sphere", 40, 3)
        a = encode(cloud, FeatureConfig(d=8, mlp_seed=0))
        b = encode(cloud, FeatureConfig(d=8, mlp_seed=1))
        assert not np.allclose(a, b)

    def test_too_few_points_rejected(self):
        cloud = PointCloud(np.random.default_rng(4).normal(size=(5, 3)))
        with pytest.raises(ValueError, match="k_neighbors"):
            encode(cloud, FeatureConfig(k_neighbors=5))

    def test_one_neighbor_search_per_cloud(self, monkeypatch):
        calls = []
        real = features._knn_indices

        def counting(points, k):
            calls.append(k)
            return real(points, k)

        monkeypatch.setattr(features, "_knn_indices", counting)
        encode(sample_shape("box", 70, 6), FeatureConfig(d=12, k_neighbors=7))
        assert calls == [7]

    def test_encoded_features_invariant_under_motion(self):
        cloud = sample_shape("composite", 90, 7)
        cfg = FeatureConfig(d=16)
        base = encode(cloud, cfg)
        for seed in range(10):
            t = random_transform(seed, rot_max_deg=170.0, trans_max=1.5)
            moved = encode(apply_transform(t, cloud), cfg)
            assert np.max(np.abs(moved - base)) <= 1e-6

    def test_two_clouds_same_seed_share_weights(self):
        # Identical clouds from different PointCloud objects get identical
        # features: the MLP depends only on the config seed.
        cloud = sample_shape("sphere", 30, 8)
        clone = PointCloud(cloud.points.copy())
        cfg = FeatureConfig(d=8)
        np.testing.assert_array_equal(encode(cloud, cfg), encode(clone, cfg))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FeatureConfig(d=0)
        with pytest.raises(ValueError):
            FeatureConfig(k_neighbors=0)
