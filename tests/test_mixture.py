import numpy as np
import pytest
from scipy.spatial.distance import cdist

from ogmm.clustering import SoftAssignment, soft_assignment
from ogmm.geometry import (
    DegenerateGeometryError,
    PointCloud,
    axis_angle_matrix,
    random_transform,
    transform_points,
    RigidTransform,
)
from ogmm.mixture import (
    MATCH_EPSILON,
    MATCH_TOL,
    MOMENT_EPS,
    WeightedGmm,
    estimate_gmm,
    match_components,
    weighted_svd,
)
from ogmm.transport import sinkhorn


def brute_force_moments(points, features, scores, overlap):
    """Independent loop implementation of the weighted moment formulas."""
    eps = 1e-4
    n_pts, n_comp = scores.shape
    n = float(np.sum(overlap))
    pi = np.zeros(n_comp)
    for j in range(n_comp):
        pi[j] = sum(overlap[i] * scores[i, j] for i in range(n_pts)) / (eps + n)
    mu = np.zeros((n_comp, 3))
    nu = np.zeros((n_comp, features.shape[1]))
    cov = np.zeros((n_comp, 3, 3))
    for j in range(n_comp):
        denom = eps + n * pi[j]
        for i in range(n_pts):
            mu[j] += overlap[i] * scores[i, j] * points[i]
        mu[j] /= denom
        for i in range(n_pts):
            nu[j] += overlap[i] * scores[i, j] * features[i]
        nu[j] /= denom
        for i in range(n_pts):
            diff = (points[i] - mu[j])[:, None]
            cov[j] += overlap[i] * scores[i, j] * (diff @ diff.T)
        cov[j] /= denom
    return pi, mu, cov, nu


def random_soft(n, l, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.01, 1.0, size=(n, l))
    return SoftAssignment(raw / raw.sum(axis=1, keepdims=True))


class TestEstimateGmm:
    def test_matches_brute_force_moments(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            n, l = 40, 6
            cloud = PointCloud(rng.normal(size=(n, 3)))
            feats = rng.normal(size=(n, 4))
            soft = random_soft(n, l, trial)
            overlap = rng.uniform(0.0, 1.0, size=n)
            gmm = estimate_gmm(cloud, feats, soft, overlap)
            pi, mu, cov, nu = brute_force_moments(cloud.points, feats, soft.scores, overlap)
            np.testing.assert_allclose(gmm.weights, pi, atol=1e-10)
            np.testing.assert_allclose(gmm.means, mu, atol=1e-10)
            np.testing.assert_allclose(gmm.covariances, cov, atol=1e-10)
            np.testing.assert_allclose(gmm.feature_centroids, nu, atol=1e-10)
            assert np.isclose(gmm.mass, overlap.sum())

    def test_two_point_hand_case(self):
        # Two fully-overlapping points in one component: weight 2/(eps+2),
        # mean pulled epsilon-short of the midpoint, covariance the scaled
        # outer spread.
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        cloud = PointCloud(pts)
        soft = SoftAssignment(np.ones((2, 1)))
        gmm = estimate_gmm(cloud, pts, soft, np.ones(2))
        eps = MOMENT_EPS
        w = 2.0 / (eps + 2.0)
        np.testing.assert_allclose(gmm.weights, [w], atol=1e-15)
        denom = eps + 2.0 * w
        np.testing.assert_allclose(gmm.means, [[2.0 / denom, 0.0, 0.0]], atol=1e-15)
        m = 2.0 / denom
        expected_cov = (m**2 + (2.0 - m) ** 2) / denom
        np.testing.assert_allclose(gmm.covariances[0, 0, 0], expected_cov, atol=1e-12)
        assert gmm.covariances[0, 1, 1] == 0.0

    def test_weights_sum_to_mass_ratio(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            n = int(rng.integers(5, 80))
            cloud = PointCloud(rng.normal(size=(n, 3)))
            soft = random_soft(n, 4, trial + 100)
            overlap = rng.uniform(0, 1, size=n)
            gmm = estimate_gmm(cloud, cloud.points, soft, overlap)
            n_mass = overlap.sum()
            assert np.isclose(gmm.weights.sum(), n_mass / (MOMENT_EPS + n_mass), atol=1e-12)

    def test_covariances_are_psd(self):
        rng = np.random.default_rng(2)
        cloud = PointCloud(rng.normal(size=(60, 3)))
        soft = random_soft(60, 8, 3)
        gmm = estimate_gmm(cloud, cloud.points, soft, rng.uniform(0, 1, size=60))
        assert np.min(np.linalg.eigvalsh(gmm.covariances)) >= -1e-10

    def test_zero_overlap_gives_zero_mass_mixture(self):
        cloud = PointCloud(np.random.default_rng(3).normal(size=(10, 3)))
        soft = random_soft(10, 2, 4)
        gmm = estimate_gmm(cloud, cloud.points, soft, np.zeros(10))
        assert gmm.mass == 0.0
        np.testing.assert_array_equal(gmm.weights, np.zeros(2))
        np.testing.assert_array_equal(gmm.means, np.zeros((2, 3)))

    def test_zero_weight_points_have_no_influence(self):
        rng = np.random.default_rng(4)
        core = rng.normal(size=(30, 3)) * 0.1
        junk = rng.normal(size=(15, 3)) * 0.1 + 50.0
        cloud = PointCloud(np.concatenate([core, junk]))
        overlap = np.concatenate([np.ones(30), np.zeros(15)])
        feats = np.concatenate([cloud.points, np.linalg.norm(cloud.points, axis=1, keepdims=True)], axis=1)
        soft = soft_assignment(feats, 3, seed=0)
        gmm = estimate_gmm(cloud, feats, soft, overlap)
        # All means stay near the core blob despite the far-away junk points.
        assert np.all(np.linalg.norm(gmm.means, axis=1) < 1.0)

    def test_overlap_range_validated(self):
        cloud = PointCloud(np.zeros((3, 3)))
        soft = SoftAssignment(np.ones((3, 1)))
        with pytest.raises(ValueError, match="0, 1"):
            estimate_gmm(cloud, cloud.points, soft, np.array([0.5, 1.2, 0.0]))
        with pytest.raises(ValueError, match="shape"):
            estimate_gmm(cloud, cloud.points, soft, np.array([0.5, 0.5]))

    def test_feature_rows_must_match_the_cloud(self):
        cloud = PointCloud(np.zeros((3, 3)))
        soft = SoftAssignment(np.ones((3, 1)))
        for feats in (np.zeros((2, 4)), np.zeros((4, 4)), np.zeros(3)):
            with pytest.raises(ValueError, match="features must have shape"):
                estimate_gmm(cloud, feats, soft, np.ones(3))

    def test_gmm_type_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            bad = np.zeros((1, 3, 3))
            bad[0, 0, 1] = 1.0
            WeightedGmm(np.ones(1), np.zeros((1, 3)), bad, 1.0, np.zeros((1, 4)))
        with pytest.raises(ValueError, match="semidefinite"):
            neg = -np.eye(3)[None, :, :]
            WeightedGmm(np.ones(1), np.zeros((1, 3)), neg, 1.0, np.zeros((1, 4)))


class TestWeightedSvd:
    def test_recovers_constructed_motion_exactly(self):
        rot = axis_angle_matrix(np.array([1.0, 1.0, 1.0]) / np.sqrt(3), 30.0)
        t = np.array([0.1, -0.2, 0.3])
        rng = np.random.default_rng(5)
        mp = rng.normal(size=(6, 3))
        mq = mp @ rot.T + t
        est = weighted_svd(mp, mq, np.diag(np.full(6, 1.0 / 6)))
        np.testing.assert_allclose(est.rotation, rot, atol=1e-10)
        np.testing.assert_allclose(est.translation, t, atol=1e-10)

    def test_nonuniform_diagonal_weights_still_exact(self):
        rot = axis_angle_matrix([0.3, -0.5, 0.8], -70.0)
        t = np.array([1.0, 2.0, -3.0])
        rng = np.random.default_rng(6)
        mp = rng.normal(size=(5, 3))
        mq = mp @ rot.T + t
        w = np.diag(rng.uniform(0.1, 1.0, size=5))
        est = weighted_svd(mp, mq, w)
        np.testing.assert_allclose(est.rotation, rot, atol=1e-10)
        np.testing.assert_allclose(est.translation, t, atol=1e-10)

    def test_permutation_coupling_matches_reordered_targets(self):
        rot = axis_angle_matrix([0.0, 1.0, 0.0], 40.0)
        t = np.array([-0.4, 0.0, 0.9])
        rng = np.random.default_rng(7)
        mp = rng.normal(size=(7, 3))
        perm = rng.permutation(7)
        mq = (mp @ rot.T + t)[perm]
        # mq[j] is the image of mp[perm[j]]: couple mp[i] with mq[perm^-1(i)].
        coupling = np.zeros((7, 7))
        for i in range(7):
            coupling[i, int(np.where(perm == i)[0][0])] = 1.0 / 7
        est = weighted_svd(mp, mq, coupling)
        np.testing.assert_allclose(est.rotation, rot, atol=1e-10)
        np.testing.assert_allclose(est.translation, t, atol=1e-10)

    def test_result_minimizes_weighted_objective(self):
        # Oracle: the returned transform beats 300 random perturbations of
        # itself on the weighted least-squares objective.
        rng = np.random.default_rng(8)
        mp = rng.normal(size=(8, 3))
        mq = rng.normal(size=(8, 3))  # unrelated clouds: generic instance
        w = rng.uniform(0.0, 1.0, size=(8, 8))

        def objective(transform):
            moved = transform_points(transform, mp)
            diff2 = ((moved[:, None, :] - mq[None, :, :]) ** 2).sum(axis=2)
            return float((w * diff2).sum())

        est = weighted_svd(mp, mq, w)
        base = objective(est)
        for k in range(300):
            delta = random_transform(k, rot_max_deg=5.0, trans_max=0.05)
            from ogmm.geometry import compose

            assert objective(compose(delta, est)) >= base - 1e-9

    def test_rotation_is_proper_even_for_adversarial_data(self):
        rng = np.random.default_rng(9)
        for trial in range(30):
            mp = rng.normal(size=(4, 3))
            mq = rng.normal(size=(4, 3))
            mq[:, 2] *= -1  # encourage a reflection
            est = weighted_svd(mp, mq, rng.uniform(0.1, 1.0, size=(4, 4)))
            assert np.isclose(np.linalg.det(est.rotation), 1.0, atol=1e-9)

    def test_uniform_coupling_of_unrelated_clouds_is_degenerate(self):
        # A rank-one coupling cancels both centered sums, so the cross
        # moment matrix vanishes identically.
        rng = np.random.default_rng(19)
        mp = rng.normal(size=(4, 3))
        mq = rng.normal(size=(4, 3))
        with pytest.raises(DegenerateGeometryError):
            weighted_svd(mp, mq, np.full((4, 4), 1 / 16))

    def test_collinear_means_raise(self):
        mp = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        mq = mp + 0.5
        with pytest.raises(DegenerateGeometryError, match="collinear"):
            weighted_svd(mp, mq, np.diag(np.full(4, 0.25)))

    def test_zero_mass_raises(self):
        mp = np.random.default_rng(10).normal(size=(3, 3))
        with pytest.raises(DegenerateGeometryError, match="no mass"):
            weighted_svd(mp, mp, np.zeros((3, 3)))

    def test_shape_validation(self):
        mp = np.zeros((3, 3))
        with pytest.raises(ValueError, match="shape"):
            weighted_svd(mp, mp, np.zeros((2, 3)))


class TestMatchComponents:
    def make_gmm(self, means, feats, weights=None, mass=None):
        l = means.shape[0]
        w = np.full(l, 1.0 / l) if weights is None else weights
        covs = np.tile(np.eye(3)[None] * 1e-4, (l, 1, 1))
        return WeightedGmm(w, means, covs, w.sum() if mass is None else mass, feats)

    def test_plan_marginals_are_normalized_weights(self):
        rng = np.random.default_rng(11)
        gp = self.make_gmm(rng.normal(size=(4, 3)), rng.normal(size=(4, 5)),
                           weights=np.array([0.4, 0.3, 0.2, 0.1]))
        gq = self.make_gmm(rng.normal(size=(6, 3)), rng.normal(size=(6, 5)),
                           weights=np.full(6, 1 / 6))
        mu, nu = gp.weights / gp.weights.sum(), gq.weights / gq.weights.sum()
        # The problem match_components poses, solved to a tight tolerance.
        cost = cdist(gp.feature_centroids, gq.feature_centroids, "sqeuclidean")
        tight = sinkhorn(cost, mu, nu, epsilon=MATCH_EPSILON, tol=1e-10, max_iter=20000)
        assert tight.converged
        np.testing.assert_allclose(tight.matrix.sum(axis=1), mu, atol=1e-9)
        np.testing.assert_allclose(tight.matrix.sum(axis=0), nu, atol=1e-9)
        plan = match_components(gp, gq)
        assert plan.converged and plan.marginal_error <= MATCH_TOL
        np.testing.assert_allclose(plan.matrix, tight.matrix, rtol=0, atol=MATCH_TOL)

    def test_distinct_features_give_near_permutation_plan(self):
        rng = np.random.default_rng(12)
        feats = np.eye(5) * 10.0
        means = rng.normal(size=(5, 3))
        perm = np.array([3, 0, 4, 2, 1])
        gp = self.make_gmm(means, feats)
        gq = self.make_gmm(means[perm], feats[perm])
        plan = match_components(gp, gq)
        # Mass concentrates where features agree: entry (i, inv_perm[i]).
        for i in range(5):
            j = int(np.where(perm == i)[0][0])
            assert plan.matrix[i, j] > 0.19  # ~0.2 is the full row mass

    def test_zero_mass_mixture_raises_degenerate(self):
        rng = np.random.default_rng(13)
        feats = rng.normal(size=(3, 4))
        gp = self.make_gmm(rng.normal(size=(3, 3)), feats, weights=np.zeros(3), mass=0.0)
        gq = self.make_gmm(rng.normal(size=(3, 3)), feats)
        with pytest.raises(DegenerateGeometryError, match="no overlap mass"):
            match_components(gp, gq)
