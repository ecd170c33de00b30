import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import ogmm.clustering
from ogmm.clustering import (
    KMEANS_MAX_ITER,
    KMEANS_TOL,
    SINKHORN_EPSILON_SCALE,
    SINKHORN_MAX_ITER,
    SINKHORN_TOL,
    ClusterAssignment,
    SoftAssignment,
    _kmeans_balanced,
    _round_balanced,
    soft_assignment,
    wasserstein_kmeans,
)
from ogmm.geometry import PointCloud
from ogmm.io import sample_shape
from ogmm.transport import sinkhorn


def reference_round_balanced(plan: np.ndarray, n: int, j: int) -> np.ndarray:
    """The entry-by-entry greedy `_round_balanced` replaced, kept verbatim
    as the oracle its labels must match."""
    cap = math.ceil(n / j)
    floor = n // j
    order = np.argsort(-plan.ravel(), kind="stable")
    labels = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(j, dtype=np.int64)
    deficit = floor * j
    unassigned = n
    for flat in order:
        if unassigned == 0:
            break
        i, l = divmod(int(flat), j)
        if labels[i] != -1 or sizes[l] >= cap:
            continue
        needy = sizes[l] < floor
        if unassigned == deficit and not needy:
            continue
        labels[i] = l
        sizes[l] += 1
        unassigned -= 1
        if needy:
            deficit -= 1
    assert unassigned == 0, "rounding failed to place every point"
    return labels


def reference_farthest_point_sample(points: np.ndarray, count: int, seed: int) -> np.ndarray:
    """`farthest_point_sample` before its norm was written out into reused
    buffers, kept verbatim as an oracle."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if not (1 <= count <= n):
        raise ValueError(f"count must lie in [1, {n}], got {count}")
    rng = np.random.default_rng(seed)
    chosen = np.empty(count, dtype=np.intp)
    chosen[0] = rng.integers(0, n)
    best = np.linalg.norm(pts - pts[chosen[0]], axis=1)
    for i in range(1, count):
        nxt = int(np.argmax(best))
        chosen[i] = nxt
        np.minimum(best, np.linalg.norm(pts - pts[nxt], axis=1), out=best)
    return chosen


def reference_round_phased(plan: np.ndarray, n: int, j: int) -> np.ndarray:
    """`_round_balanced` before deferred acceptance (vectorised phases, then
    the greedy over Python lists for the last 2J rows), kept verbatim as an
    oracle for the whole Lloyd loop."""
    cap = math.ceil(n / j)
    floor = n // j
    labels = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(j, dtype=np.int64)
    deficit = floor * j
    rows = np.arange(n)
    while rows.size > 2 * j:
        open_ = sizes < (floor if rows.size == deficit else cap)
        masked = np.where(open_, plan[rows], -np.inf)
        choice = np.argmax(masked, axis=1)
        value = masked[np.arange(rows.size), choice]
        order = np.lexsort((rows, -value))
        rows, choice = rows[order], choice[order]
        # Size of each point's cluster just before the point is placed, if
        # every point ahead of it in this phase is placed.
        by_cluster = np.argsort(choice, kind="stable")
        grouped = choice[by_cluster]
        rank = np.empty(rows.size, dtype=np.int64)
        rank[by_cluster] = np.arange(rows.size) - np.searchsorted(grouped, grouped)
        size_before = sizes[choice] + rank
        needy = size_before < floor
        deficit_before = deficit - np.concatenate(([0], np.cumsum(needy)[:-1]))
        unassigned_before = rows.size - np.arange(rows.size)
        refused = (size_before >= cap) | ((unassigned_before == deficit_before) & ~needy)
        stop = int(np.argmax(refused)) if refused.any() else rows.size
        labels[rows[:stop]] = choice[:stop]
        sizes += np.bincount(choice[:stop], minlength=j)
        deficit -= int(needy[:stop].sum())
        rows = rows[stop:]
    # The tail: the entry-by-entry greedy over the remaining rows' entries,
    # in the same order (mass descending, then flat index). An entry it
    # visited earlier for one of these rows was refused by a cluster that
    # is still closed, so starting their entries afresh changes nothing.
    rows = np.sort(rows)
    order = np.argsort(-plan[rows].ravel(), kind="stable").tolist()
    rows, sizes = rows.tolist(), sizes.tolist()
    unassigned = len(rows)
    placed = [False] * unassigned
    for flat in order:
        if unassigned == 0:
            break
        i, l = divmod(flat, j)
        if placed[i] or sizes[l] >= cap:
            continue
        needy = sizes[l] < floor
        if unassigned == deficit and not needy:
            continue
        labels[rows[i]] = l
        placed[i] = True
        sizes[l] += 1
        unassigned -= 1
        deficit -= needy
    return labels


def reference_quantile_potentials(cost: np.ndarray) -> np.ndarray:
    """Each column's floor(N/J)-th smallest cost, centred: the column
    potentials, in cost units, that the first two Lloyd steps start from."""
    n, j = cost.shape
    q = np.sort(cost, axis=0)[n // j - 1]
    return q - q.mean()


def reference_kmeans_balanced(points: np.ndarray, n_clusters: int, seed: int):
    """`_kmeans_balanced` before its Lloyd steps reused their buffers, kept
    verbatim with the two functions above as the oracle for every field of
    a k-means run; its first two steps start from the column-quantile
    potentials of their own cost, later steps from the last step's."""
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    j = n_clusters
    if not (1 <= j <= n):
        raise ValueError(f"n_clusters must lie in [1, {n}], got {j}")
    centroids = x[reference_farthest_point_sample(x, j, seed)]
    row_mass = np.full(n, 1.0 / n)
    col_mass = np.full(j, 1.0 / j)
    best = None
    prev_obj = np.inf
    history = []
    n_iter = 0
    calls = iterations = unconverged = 0
    error_max = 0.0
    for n_iter in range(1, KMEANS_MAX_ITER + 1):
        cost = cdist(x, centroids, "sqeuclidean")
        epsilon = max(SINKHORN_EPSILON_SCALE * float(cost.mean()), 1e-12)
        if n_iter <= 2:
            potentials = reference_quantile_potentials(cost)
        plan = sinkhorn(
            cost, row_mass, col_mass,
            epsilon=epsilon, max_iter=SINKHORN_MAX_ITER, tol=SINKHORN_TOL,
            init=potentials,
        )
        potentials = plan.potentials
        calls += 1
        iterations += plan.iterations
        unconverged += not plan.converged
        error_max = max(error_max, plan.marginal_error)
        labels = reference_round_phased(plan.matrix, n, j)
        gamma = np.zeros((n, j))
        gamma[np.arange(n), labels] = 1.0
        sizes = gamma.sum(axis=0)
        centroids_new = (gamma.T @ x) / sizes[:, None]
        obj = float(np.sum((x - centroids_new[labels]) ** 2))
        if obj > prev_obj:
            # The balanced rounding is a heuristic; if a step regresses,
            # keep the previous state so the reported history is monotone.
            n_iter -= 1
            break
        best = (labels, centroids_new, obj)
        history.append(obj)
        if prev_obj - obj < KMEANS_TOL:
            break
        prev_obj = obj
        centroids = centroids_new
    assert best is not None
    labels, centroids, obj = best
    return ClusterAssignment(
        labels, centroids, obj, n_iter, tuple(history),
        sinkhorn_calls=calls,
        sinkhorn_iterations=iterations,
        sinkhorn_unconverged=unconverged,
        sinkhorn_marginal_error_max=error_max,
    )


def assert_rounds_like_reference(plan, n, j):
    labels = _round_balanced(plan, n, j)
    np.testing.assert_array_equal(labels, reference_round_balanced(plan, n, j))
    sizes = np.bincount(labels, minlength=j)
    assert set(sizes.tolist()) <= {n // j, -(-n // j)}
    return sizes


class TestRoundBalancedMatchesGreedy:
    def test_random_plans(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            j = int(rng.integers(1, 17))
            n = int(rng.integers(j, 600))
            plan = rng.uniform(size=(n, j)) ** float(rng.uniform(0.5, 8.0))
            assert_rounds_like_reference(plan, n, j)

    def test_sinkhorn_like_plans(self):
        # Sharp, nearly balanced plans, as the k-means assignment step makes.
        rng = np.random.default_rng(21)
        for _ in range(40):
            j = int(rng.integers(2, 17))
            n = int(rng.integers(j, 513))
            logits = -rng.uniform(0, 60, size=(n, j))
            plan = np.exp(logits - logits.max(axis=1, keepdims=True))
            plan /= plan.sum(axis=0) * j
            assert_rounds_like_reference(plan, n, j)

    def test_exact_ties(self):
        rng = np.random.default_rng(22)
        for n, j in ((6, 2), (7, 3), (64, 16), (100, 7), (512, 16)):
            assert_rounds_like_reference(np.full((n, j), 0.5), n, j)
            rows = rng.uniform(size=(3, j))
            duplicated = rows[rng.integers(0, 3, size=n)]
            assert_rounds_like_reference(duplicated, n, j)
            coarse = rng.integers(0, 3, size=(n, j)).astype(float)
            assert_rounds_like_reference(coarse, n, j)

    def test_deficit_rule_binds_when_n_is_not_divisible(self):
        # Every point ranks the clusters in the same order, so clusters fill
        # one after another. Without the deficit rule the first n % j + 1
        # clusters would all fill to ceil(N/J) and the last one would fall
        # short; with it, only the first n % j do.
        rng = np.random.default_rng(23)
        for n, j in ((7, 3), (10, 3), (50, 8), (511, 16), (200, 9)):
            plan = rng.uniform(0.5, 1.0, size=(n, j)) * 10.0 ** -np.arange(j)
            sizes = assert_rounds_like_reference(plan, n, j)
            extra = n % j
            assert sizes.tolist() == [n // j + 1] * extra + [n // j] * (j - extra)

    # `_round_balanced` places the last 2J rows with the entry-by-entry
    # greedy itself (the tail); the cases below make the tail do the work.
    def test_deficit_rule_first_binds_in_the_tail(self):
        # As above, clusters fill one after another: the first n % j to
        # ceil(N/J), then the rest to floor(N/J). The rule first refuses a
        # point when cluster n % j reaches floor(N/J), with
        # (j - n % j - 1) * floor(N/J) rows still unplaced: at most 2J here,
        # so inside the tail, while n > 2J runs phases before it.
        rng = np.random.default_rng(24)
        for n, j in ((29, 8), (45, 12), (61, 16), (10, 3)):
            extra = n % j
            assert 0 < (j - extra - 1) * (n // j) <= 2 * j < n
            plan = rng.uniform(0.5, 1.0, size=(n, j)) * 10.0 ** -np.arange(j)
            sizes = assert_rounds_like_reference(plan, n, j)
            assert sizes.tolist() == [n // j + 1] * extra + [n // j] * (j - extra)

    def test_exact_ties_straddle_the_tail(self):
        # Few distinct entries and n just above 2J: entries equal to those the
        # phases place are left to the tail, which must break the ties by
        # flat index as the greedy does.
        rng = np.random.default_rng(25)
        for j in (2, 3, 5, 8, 16):
            for n in (2 * j + 1, 2 * j + 2, 2 * j + j // 2 + 1, 3 * j - 1):
                assert_rounds_like_reference(np.full((n, j), 0.25), n, j)
                for levels in (2, 3):
                    coarse = rng.integers(0, levels, size=(n, j)).astype(float)
                    assert_rounds_like_reference(coarse, n, j)
                rows = rng.uniform(size=(2, j))
                assert_rounds_like_reference(rows[rng.integers(0, 2, size=n)], n, j)

    def test_tail_places_every_row_when_n_is_at_most_2j(self):
        rng = np.random.default_rng(26)
        for j in (1, 2, 3, 7, 16):
            for n in sorted({j, j + 1, (3 * j) // 2, 2 * j - 1, 2 * j}):
                assert_rounds_like_reference(rng.uniform(size=(n, j)), n, j)
                assert_rounds_like_reference(rng.uniform(size=(n, j)) ** 8.0, n, j)
                assert_rounds_like_reference(np.full((n, j), 1.0), n, j)
                skewed = rng.uniform(0.5, 1.0, size=(n, j)) * 10.0 ** -np.arange(j)
                assert_rounds_like_reference(skewed, n, j)

    # Deferred acceptance: the cases below make refused rows travel far and
    # contend for the extra slots of the n % j pool.
    def test_long_displacement_chains(self):
        # Every row ranks the clusters in one shared order (a factor of ten
        # apart), so round 1 sends every row to cluster 0 and the refused
        # rows cascade down the order one cluster at a time. Each cluster
        # ranks the rows by its own drifting mass, so a row arriving later
        # displaces holders that rank below it, all along the chain. The
        # coarse copy makes the clusters' rankings tie, and the ties must
        # fall to the lower row as in the greedy.
        rng = np.random.default_rng(27)
        for n, j in ((600, 16), (599, 16), (517, 8), (300, 3), (97, 16), (64, 2)):
            phase = np.outer(np.arange(n), rng.uniform(0.01, 0.3, j)) + rng.uniform(0, 6, j)
            drift = 1.0 + 0.4 * np.sin(phase)
            scale = 10.0 ** -np.arange(j)
            assert_rounds_like_reference(drift * scale, n, j)
            assert_rounds_like_reference(np.round(4 * drift) * scale, n, j)

    def test_extras_pool_evictions(self):
        # n % j of 1 and of j - 1: one extra slot with every cluster
        # contending for it, or all but one. Rows crowd onto a few favourite
        # clusters, so most clusters overflow round 1 and bid for the pool,
        # and bids arriving later from refused rows must evict the weakest
        # extra held. Coarse masses tie across rows and across clusters.
        rng = np.random.default_rng(28)
        for j in (3, 7, 12, 16):
            for n in sorted({5 * j + 1, 6 * j - 1, 37 * j + 1, (600 // j) * j - 1}):
                assert n % j in (1, j - 1)
                crowd = rng.uniform(size=(n, j)) * rng.uniform(0.05, 1.0, size=j) ** 2
                assert_rounds_like_reference(crowd, n, j)
                assert_rounds_like_reference(crowd ** 6, n, j)
                assert_rounds_like_reference(np.floor(crowd * 6), n, j)
                favourite = rng.integers(0, max(2, j // 3), size=n)
                plan = rng.uniform(0.0, 0.5, size=(n, j))
                plan[np.arange(n), favourite] += rng.integers(1, 4, size=n)
                assert_rounds_like_reference(plan, n, j)
                assert_rounds_like_reference(np.round(plan), n, j)


class TestRoundBalanced:
    def test_hand_case_capacity_forces_split(self):
        # Both points prefer cluster 0 but cap = 1 forces the split; the
        # larger entry wins the contested slot.
        plan = np.array([[0.9, 0.1], [0.8, 0.2]])
        labels = _round_balanced(plan, 2, 2)
        assert labels.tolist() == [0, 1]

    def test_sizes_land_in_floor_ceiling_band(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(3, 120))
            j = int(rng.integers(2, min(n, 13)))
            plan = rng.uniform(size=(n, j))
            labels = _round_balanced(plan, n, j)
            sizes = np.bincount(labels, minlength=j)
            assert sizes.min() >= n // j
            assert sizes.max() <= -(-n // j)

    def test_ten_points_three_clusters(self):
        # floor=3, cap=4: a plan that loves cluster 0 still ends (4, 3, 3).
        plan = np.zeros((10, 3))
        plan[:, 0] = np.linspace(1.0, 0.5, 10)
        plan[:, 1] = 0.1
        plan[:, 2] = 0.05
        sizes = np.bincount(_round_balanced(plan, 10, 3), minlength=3)
        assert sizes.tolist() == [4, 3, 3]

    def test_deterministic_under_ties(self):
        plan = np.full((6, 2), 0.5)
        a = _round_balanced(plan, 6, 2)
        b = _round_balanced(plan.copy(), 6, 2)
        np.testing.assert_array_equal(a, b)


class TestWassersteinKmeans:
    def test_cluster_sizes_within_one_of_even_split(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(10, 150))
            j = int(rng.integers(2, 9))
            if j > n:
                continue
            cloud = PointCloud(rng.normal(size=(n, 3)))
            result = wasserstein_kmeans(cloud, j, seed=trial)
            assert np.max(np.abs(result.sizes - n / j)) <= 1.0

    def test_centroids_are_cluster_means(self):
        # Oracle: recompute means from the returned labels.
        cloud = sample_shape("torus", 80, 2)
        result = wasserstein_kmeans(cloud, 4, seed=1)
        for l in range(4):
            members = cloud.points[result.labels == l]
            np.testing.assert_allclose(result.centroids[l], members.mean(axis=0), atol=1e-12)

    def test_objective_matches_recomputation_and_history_monotone(self):
        cloud = sample_shape("composite", 120, 4)
        result = wasserstein_kmeans(cloud, 6, seed=2)
        recomputed = float(
            np.sum((cloud.points - result.centroids[result.labels]) ** 2)
        )
        assert np.isclose(result.objective, recomputed, atol=1e-9)
        diffs = np.diff(result.history)
        assert np.all(diffs <= 1e-12)
        assert result.history[-1] == result.objective

    def test_deterministic_per_seed(self):
        cloud = sample_shape("box", 70, 5)
        a = wasserstein_kmeans(cloud, 7, seed=11)
        b = wasserstein_kmeans(cloud, 7, seed=11)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_two_separated_blobs_split_cleanly(self):
        rng = np.random.default_rng(6)
        left = rng.normal(size=(20, 3)) * 0.1 + np.array([-10.0, 0, 0])
        right = rng.normal(size=(20, 3)) * 0.1 + np.array([10.0, 0, 0])
        cloud = PointCloud(np.concatenate([left, right]))
        result = wasserstein_kmeans(cloud, 2, seed=0)
        labels = result.labels
        assert len(set(labels[:20].tolist())) == 1
        assert len(set(labels[20:].tolist())) == 1
        assert labels[0] != labels[20]

    def test_single_cluster_is_global_mean(self):
        cloud = sample_shape("sphere", 33, 7)
        result = wasserstein_kmeans(cloud, 1, seed=0)
        assert result.sizes.tolist() == [33]
        np.testing.assert_allclose(result.centroids[0], cloud.points.mean(axis=0), atol=1e-12)

    def test_one_cluster_per_point(self):
        cloud = PointCloud(np.random.default_rng(8).normal(size=(12, 3)))
        result = wasserstein_kmeans(cloud, 12, seed=0)
        assert np.all(result.sizes == 1)
        assert result.objective < 1e-18
        # Centroids are the points themselves, in some order.
        np.testing.assert_allclose(
            np.sort(result.centroids, axis=0), np.sort(cloud.points, axis=0), atol=1e-12
        )

    def test_identical_points_still_balanced(self):
        cloud = PointCloud(np.zeros((9, 3)))
        result = wasserstein_kmeans(cloud, 3, seed=0)
        assert result.sizes.tolist() == [3, 3, 3]
        assert result.objective == 0.0

    def test_rejects_more_clusters_than_points(self):
        cloud = PointCloud(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            wasserstein_kmeans(cloud, 5, seed=0)
        with pytest.raises(ValueError):
            wasserstein_kmeans(cloud, 0, seed=0)

    def test_assignment_type_validates(self):
        with pytest.raises(ValueError, match="deviate"):
            ClusterAssignment(np.zeros(3, dtype=int), np.zeros((2, 3)), 0.0, 1, (0.0,))
        # Within one of N/J, but not a floor/ceiling split: 64 points in two
        # clusters must be 32 and 32.
        uneven = np.repeat([0, 1], [31, 33])
        with pytest.raises(ValueError, match="deviate"):
            ClusterAssignment(uneven, np.zeros((2, 3)), 0.0, 1, (0.0,))
        even = np.repeat([0, 1], [32, 32])
        ClusterAssignment(even, np.zeros((2, 3)), 0.0, 1, (0.0,))

    @pytest.mark.parametrize(
        "labels, centroids, message",
        [
            ([[0, 1, 2]], np.zeros((3, 3)), "labels must be a vector"),
            ([0.0, 1.0, 2.0], np.zeros((3, 3)), "labels must be a vector"),
            ([True, False, True], np.zeros((2, 3)), "labels must be a vector"),
            ([0, 1, 3], np.zeros((3, 3)), "labels must be a vector"),
            ([-1, 1, 2], np.zeros((3, 3)), "labels must be a vector"),
            ([0, 1, 2], np.zeros((0, 3)), "centroids"),
            ([0, 1, 2], np.array([[0.0, 0.0], [np.nan, 0.0], [0.0, 0.0]]), "centroids"),
        ],
        ids=["matrix", "float", "bool", "past-j", "negative", "no-centroids", "nan-centroid"],
    )
    def test_assignment_rejects_malformed_labels(self, labels, centroids, message):
        with pytest.raises(ValueError, match=message):
            ClusterAssignment(np.array(labels), centroids, 0.0, 1, (0.0,))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64])
    def test_assignment_stores_labels_read_only(self, dtype):
        labels = np.array([2, 0, 1, 1, 0, 2, 2, 0, 1], dtype=dtype)
        run = ClusterAssignment(labels, np.zeros((3, 2)), 0.0, 1, (0.0,))
        assert run.labels.dtype == np.intp and not run.labels.flags.writeable
        np.testing.assert_array_equal(run.labels, labels)
        np.testing.assert_array_equal(run.sizes, [3, 3, 3])


def _oracle_clouds():
    rng = np.random.default_rng(29)
    duplicated = rng.normal(size=(40, 3))[rng.integers(0, 40, size=200)]
    return [
        ("77x8-3d", sample_shape("composite", 77, seed=1).points, 8),
        ("180x16-3d", sample_shape("torus", 180, seed=2).points, 16),
        ("256x8-32d", rng.normal(size=(256, 32)), 8),
        ("512x16-3d", sample_shape("composite", 512, seed=3).points, 16),
        ("512x16-32d", np.tanh(rng.normal(size=(512, 32)) @ rng.normal(size=(32, 32))), 16),
        ("200x8-duplicated", duplicated, 8),
    ]


@pytest.mark.parametrize(
    "points, j", [case[1:] for case in _oracle_clouds()], ids=[case[0] for case in _oracle_clouds()]
)
def test_lloyd_loop_matches_the_oracle(points, j):
    """Every field of a k-means run equals the oracle's, bit for bit: the
    rounding, the farthest-point start and the Lloyd bookkeeping changed how
    they compute, not what."""
    for seed in (0, 5):
        got = _kmeans_balanced(points, j, seed)
        want = reference_kmeans_balanced(points, j, seed)
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.sizes, want.sizes)
        np.testing.assert_array_equal(got.centroids, want.centroids)
        assert got.objective == want.objective
        assert got.history == want.history
        assert got.n_iter == want.n_iter
        assert (
            got.sinkhorn_calls,
            got.sinkhorn_iterations,
            got.sinkhorn_unconverged,
            got.sinkhorn_marginal_error_max,
        ) == (
            want.sinkhorn_calls,
            want.sinkhorn_iterations,
            want.sinkhorn_unconverged,
            want.sinkhorn_marginal_error_max,
        )


class TestSoftAssignment:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(10)
        feats = rng.normal(size=(40, 8))
        soft = soft_assignment(feats, 5, seed=0)
        assert soft.scores.shape == (40, 5)
        np.testing.assert_allclose(soft.scores.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(soft.scores >= 0)

    def test_softmax_matches_direct_formula(self):
        # Oracle: recompute the softmax from the returned centroids.
        rng = np.random.default_rng(11)
        feats = rng.normal(size=(25, 6))
        soft = soft_assignment(feats, 4, seed=1)
        d2 = ((feats[:, None, :] - soft.kmeans.centroids[None, :, :]) ** 2).sum(axis=2)
        raw = np.exp(-d2 / ogmm.clustering.TEMPERATURE)
        expected = raw / raw.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(soft.scores, expected, atol=1e-12)

    def test_identical_features_give_uniform_rows(self):
        feats = np.ones((12, 5))
        soft = soft_assignment(feats, 3, seed=0)
        np.testing.assert_allclose(soft.scores, np.full((12, 3), 1 / 3), atol=1e-12)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(14)
        feats = rng.normal(size=(18, 7))
        a = soft_assignment(feats, 3, seed=5)
        b = soft_assignment(feats, 3, seed=5)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_type_validates_row_sums(self):
        with pytest.raises(ValueError, match="sum to one"):
            SoftAssignment(np.array([[0.5, 0.4]]))


class TestKmeansSinkhornCounters:
    """The k-means runs count their transport solves and keep the largest
    marginal error; the figures must match what the solver itself
    returned."""

    @staticmethod
    def _watch(monkeypatch):
        seen = []
        real = ogmm.clustering.sinkhorn

        def counting(*args, **kwargs):
            plan = real(*args, **kwargs)
            seen.append((plan.iterations, plan.converged, plan.marginal_error))
            return plan

        monkeypatch.setattr(ogmm.clustering, "sinkhorn", counting)
        return seen

    @staticmethod
    def _totals(seen):
        return (
            len(seen),
            sum(iterations for iterations, _, _ in seen),
            sum(not converged for _, converged, _ in seen),
            max(error for _, _, error in seen),
        )

    @staticmethod
    def _counts(run):
        return (
            run.sinkhorn_calls,
            run.sinkhorn_iterations,
            run.sinkhorn_unconverged,
            run.sinkhorn_marginal_error_max,
        )

    def test_kmeans_counts_its_solves(self, monkeypatch):
        seen = self._watch(monkeypatch)
        cloud = sample_shape("composite", 300, seed=4)
        result = wasserstein_kmeans(cloud, 12, seed=0)
        assert self._counts(result) == self._totals(seen)
        assert result.sinkhorn_calls >= result.n_iter >= 1

    def test_soft_assignment_carries_its_kmeans(self, monkeypatch):
        seen = self._watch(monkeypatch)
        feats = np.random.default_rng(24).normal(size=(120, 8))
        soft = soft_assignment(feats, 6, seed=1)
        run = soft.kmeans
        assert self._counts(run) == self._totals(seen)

    @pytest.mark.parametrize("starts", [1, 3])
    def test_register_sums_the_chosen_starts_four_runs(self, monkeypatch, starts):
        from ogmm import registration
        from ogmm.io import PairSpec, make_pair

        seen = self._watch(monkeypatch)
        first_call = []
        real_once = registration._register_once

        def once(*args, **kwargs):
            first_call.append(len(seen))
            return real_once(*args, **kwargs)

        monkeypatch.setattr(registration, "_register_once", once)
        pair = make_pair(PairSpec(n_points=160, overlap_keep_fraction=0.7, seed=3))
        config = registration.RegisterConfig.desk(starts=starts)
        # Restarts run only where the caller supplies the overlap weights.
        diagnostics = registration.register(
            pair.source, pair.target, config,
            overlap_source=pair.gt_overlap_source.astype(np.float64),
            overlap_target=pair.gt_overlap_target.astype(np.float64),
        ).diagnostics
        assert diagnostics["starts"] == starts
        bounds = first_call + [len(seen)]
        chosen = diagnostics["chosen_start"]
        expected = self._totals(seen[bounds[chosen]:bounds[chosen + 1]])
        assert (
            diagnostics["kmeans_sinkhorn_calls"],
            diagnostics["kmeans_sinkhorn_iterations"],
            diagnostics["kmeans_sinkhorn_unconverged"],
            diagnostics["kmeans_sinkhorn_marginal_error_max"],
        ) == expected
        assert expected[0] >= 4


def test_lloyd_steps_start_from_quantile_then_last_potentials(monkeypatch):
    """Steps 1 and 2 start from the column-quantile potentials of their own
    cost, every later step from the previous plan's potentials."""
    calls = []
    real = ogmm.clustering.sinkhorn

    def watching(cost, *args, init=None, **kwargs):
        plan = real(cost, *args, init=init, **kwargs)
        calls.append((np.array(cost), np.array(init), plan.potentials))
        return plan

    monkeypatch.setattr(ogmm.clustering, "sinkhorn", watching)
    result = wasserstein_kmeans(sample_shape("composite", 300, seed=4), 12, seed=0)
    assert len(calls) == result.sinkhorn_calls >= 3
    for cost, init, _ in calls[:2]:
        np.testing.assert_array_equal(init, reference_quantile_potentials(cost))
    for (_, _, previous), (_, init, _) in zip(calls[1:], calls[2:]):
        np.testing.assert_array_equal(init, previous)
    assert result.sinkhorn_unconverged == 0
