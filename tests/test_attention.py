import numpy as np
import pytest

from ogmm.attention import (
    AttentionMlp,
    AttentionWeights,
    OverlapHead,
    clustered_cross_attention,
    clustered_self_attention,
    full_self_attention,
    instance_norm,
    overlap_scores,
)
from ogmm.clustering import cluster_means


def random_labels(n, j, seed):
    """n cluster labels in [0, j), every cluster used."""
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.arange(j), rng.integers(0, j, size=n - j)])
    rng.shuffle(labels)
    return labels


class TestInstanceNorm:
    def test_standardizes_columns(self):
        x = np.random.default_rng(0).normal(loc=3.0, scale=2.0, size=(50, 4))
        z = instance_norm(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.var(axis=0), 1.0, atol=1e-3)

    def test_constant_column_maps_to_zero(self):
        x = np.full((10, 2), 7.5)
        np.testing.assert_array_equal(instance_norm(x), np.zeros((10, 2)))

    def test_single_row_maps_to_zero(self):
        x = np.array([[3.0, -4.0, 5.0]])
        np.testing.assert_array_equal(instance_norm(x), np.zeros((1, 3)))


class TestCentroids:
    """The centroids clustered attention attends to: `cluster_means`."""

    def test_matches_per_cluster_means(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=(30, 6))
        labels = random_labels(30, 4, seed=2)
        cents = cluster_means(f, labels, 4)
        for j in range(4):
            np.testing.assert_allclose(cents[j], f[labels == j].mean(axis=0), atol=1e-12)
        # Bit for bit the one-hot product over the column sums.
        one_hot = np.eye(4)[labels]
        np.testing.assert_array_equal(cents, (one_hot.T @ f) / one_hot.sum(axis=0)[:, None])

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError, match="empty cluster"):
            cluster_means(np.zeros((3, 2)), np.zeros(3, dtype=int), 2)


class TestAttentionFormula:
    def test_single_head_matches_literal_formula(self):
        # Oracle: the scaled-dot-product formula written out longhand.
        rng = np.random.default_rng(3)
        d, n, j = 4, 6, 3
        f = rng.normal(size=(n, d))
        labels = random_labels(n, j, seed=4)
        w = AttentionWeights.seeded(d, heads=1, seed=5)
        got = clustered_self_attention(f, labels, w)

        cents = np.stack([f[labels == l].mean(axis=0) for l in range(j)])
        q = f @ w.wq[0]
        k = cents @ w.wk[0]
        v = cents @ w.wv[0]
        scores = q @ k.T / np.sqrt(d)
        alpha = np.exp(scores - scores.max(axis=1, keepdims=True))
        alpha /= alpha.sum(axis=1, keepdims=True)
        assert np.allclose(alpha.sum(axis=1), 1.0)
        merged = (alpha @ v) @ w.wo
        h = np.maximum(instance_norm(merged @ w.mlp.w1), 0.0)
        h = np.maximum(instance_norm(h @ w.mlp.w2), 0.0)
        expected = f + h @ w.mlp.w3
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_multi_head_concatenation_layout(self):
        # Two heads with hand-set projections: head outputs occupy adjacent
        # column blocks before the output mix.
        d, n = 4, 3
        f = np.random.default_rng(6).normal(size=(n, d))
        wq = np.zeros((2, 4, 2))
        wk = np.zeros((2, 4, 2))
        wv = np.zeros((2, 4, 2))
        # Head 0 copies columns 0:2 of the input into its value; head 1
        # copies columns 2:4. Queries/keys are zero, so attention over a
        # single centroid row is uniform.
        wv[0, 0, 0] = wv[0, 1, 1] = 1.0
        wv[1, 2, 0] = wv[1, 3, 1] = 1.0
        w = AttentionWeights(wq, wk, wv, np.eye(4), AttentionMlp(np.eye(4), np.eye(4), np.eye(4)))
        got = clustered_self_attention(f, np.zeros(n, dtype=int), w)
        centroid = f.mean(axis=0)
        merged = np.tile(centroid, (n, 1))  # both heads see the same centroid
        h = np.maximum(instance_norm(merged), 0.0)
        h = np.maximum(instance_norm(h), 0.0)
        np.testing.assert_allclose(got, f + h, atol=1e-12)


class TestResidualGuarantees:
    def test_zero_values_and_zero_mlp_is_identity(self):
        rng = np.random.default_rng(7)
        f = rng.normal(size=(10, 8))
        w = AttentionWeights.seeded(8, heads=2, seed=0)
        w.wv = np.zeros_like(w.wv)
        w.mlp = AttentionMlp.zeros(8)
        np.testing.assert_array_equal(clustered_self_attention(f, random_labels(10, 3, 0), w), f)
        np.testing.assert_array_equal(full_self_attention(f, w), f)

    def test_zero_mlp_alone_is_identity(self):
        rng = np.random.default_rng(8)
        f = rng.normal(size=(6, 4))
        w = AttentionWeights.seeded(4, heads=1, seed=1)
        w.mlp = AttentionMlp.zeros(4)
        np.testing.assert_array_equal(full_self_attention(f, w), f)

    def test_zero_target_centroids_leave_queries_unchanged(self):
        rng = np.random.default_rng(9)
        fp = rng.normal(size=(7, 4))
        fq = np.zeros((5, 4))
        w = AttentionWeights.seeded(4, heads=2, seed=2)
        got = clustered_cross_attention(fp, fq, random_labels(5, 2, 1), w)
        np.testing.assert_array_equal(got, fp)

    def test_single_point_cloud_returns_input_exactly(self):
        f = np.array([[1.5, -2.0, 0.25, 7.0]])
        w = AttentionWeights.seeded(4, heads=2, seed=3)
        np.testing.assert_array_equal(full_self_attention(f, w), f)
        np.testing.assert_array_equal(
            clustered_self_attention(f, np.zeros(1, dtype=int), w), f
        )


class TestClusteredVsFull:
    def test_singleton_clusters_equal_full_attention(self):
        rng = np.random.default_rng(10)
        for n, d, heads in [(8, 4, 1), (16, 8, 4), (33, 8, 2)]:
            f = rng.normal(size=(n, d))
            w = AttentionWeights.seeded(d, heads=heads, seed=n)
            clustered = clustered_self_attention(f, np.arange(n), w)
            full = full_self_attention(f, w)
            np.testing.assert_allclose(clustered, full, atol=1e-9)

    def test_cross_attention_on_same_cloud_equals_self(self):
        rng = np.random.default_rng(11)
        f = rng.normal(size=(12, 8))
        labels = random_labels(12, 4, seed=5)
        w = AttentionWeights.seeded(8, heads=2, seed=6)
        np.testing.assert_array_equal(
            clustered_cross_attention(f, f, labels, w),
            clustered_self_attention(f, labels, w),
        )

    def test_permuting_points_permutes_outputs(self):
        rng = np.random.default_rng(12)
        f = rng.normal(size=(14, 4))
        labels = random_labels(14, 3, seed=7)
        w = AttentionWeights.seeded(4, heads=2, seed=8)
        perm = rng.permutation(14)
        base = clustered_self_attention(f, labels, w)
        permuted = clustered_self_attention(f[perm], labels[perm], w)
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


class TestWeightsPlumbing:
    def test_seeded_weights_reproducible(self):
        a = AttentionWeights.seeded(8, heads=4, seed=9)
        b = AttentionWeights.seeded(8, heads=4, seed=9)
        np.testing.assert_array_equal(a.wq, b.wq)
        np.testing.assert_array_equal(a.mlp.w3, b.mlp.w3)
        c = AttentionWeights.seeded(8, heads=4, seed=10)
        assert not np.array_equal(a.wq, c.wq)

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            AttentionWeights.seeded(6, heads=4, seed=0)


class TestOverlapScores:
    def test_scores_in_open_unit_interval(self):
        rng = np.random.default_rng(13)
        fp = rng.normal(size=(20, 8))
        fq = rng.normal(size=(15, 8))
        head = OverlapHead.seeded(8, seed=0)
        o = overlap_scores(fp, fq, head)
        assert o.shape == (20,)
        assert np.all(o > 0) and np.all(o < 1)

    def test_identical_feature_rows_score_half(self):
        # Constant features make every instance-normed logit zero.
        fp = np.ones((6, 4))
        fq = np.ones((9, 4))
        head = OverlapHead.seeded(4, seed=1)
        np.testing.assert_allclose(overlap_scores(fp, fq, head), 0.5, atol=1e-12)

    def test_matches_literal_formula(self):
        rng = np.random.default_rng(14)
        fp = rng.normal(size=(5, 4))
        fq = rng.normal(size=(7, 4))
        head = OverlapHead.seeded(4, seed=2, tau=0.2)
        got = overlap_scores(fp, fq, head)

        logits = fp @ fq.T / 0.2
        pool = np.exp(logits - logits.max(axis=1, keepdims=True))
        pool /= pool.sum(axis=1, keepdims=True)
        a = 1.0 / (1.0 + np.exp(-instance_norm(fq @ head.w_alpha)))[:, 0]
        cat = np.concatenate([fp, (pool @ a)[:, None]], axis=1)
        expected = 1.0 / (1.0 + np.exp(-instance_norm(cat @ head.w_beta)))[:, 0]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_symmetric_inputs_give_symmetric_scores(self):
        rng = np.random.default_rng(15)
        f = rng.normal(size=(10, 6))
        head = OverlapHead.seeded(6, seed=3)
        np.testing.assert_array_equal(
            overlap_scores(f, f, head), overlap_scores(f.copy(), f.copy(), head)
        )

    def test_dimension_mismatch_rejected(self):
        head = OverlapHead.seeded(4, seed=0)
        with pytest.raises(ValueError):
            overlap_scores(np.zeros((3, 5)), np.zeros((3, 4)), head)

    def test_tau_validation(self):
        with pytest.raises(ValueError, match="tau"):
            OverlapHead.seeded(4, seed=0, tau=0.0)
