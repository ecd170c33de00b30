"""Multi-head attention over cluster centroids and the overlap score head.

Attending to J cluster centroids instead of all N points drops the score
matrix from N x N to N x J, which is what keeps self- and cross-attention
linear in cloud size at fixed J. Full attention over all points is the
J = N special case and is provided as a reference implementation.

All linear maps here are bias-free: combined with instance normalization
inside the residual MLP this makes "no signal in, no change out" exact, so
the residual guarantees below hold to the last bit rather than just
approximately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import cluster_means, softmax_rows

INSTANCE_NORM_EPS = 1e-5


def instance_norm(x: np.ndarray) -> np.ndarray:
    """Standardize each column over the rows (points) of one instance."""
    mean = x.mean(axis=0, keepdims=True)
    var = x.var(axis=0, keepdims=True)
    return (x - mean) / np.sqrt(var + INSTANCE_NORM_EPS)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _xavier(rng, fan_in: int, fan_out: int, size) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=size)


class AttentionMlp:
    """Three bias-free linear layers; instance norm + ReLU after the first two.

    The output layer is plain so the residual update can move features in
    either direction.
    """

    def __init__(self, w1: np.ndarray, w2: np.ndarray, w3: np.ndarray):
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.w3 = np.asarray(w3, dtype=np.float64)
        d = self.w1.shape[0]
        for name, w in (("w1", self.w1), ("w2", self.w2), ("w3", self.w3)):
            if w.shape != (d, d) or not np.all(np.isfinite(w)):
                raise ValueError(f"{name} must be a finite ({d}, {d}) matrix")

    @classmethod
    def seeded(cls, d: int, seed: int) -> "AttentionMlp":
        rng = np.random.default_rng(seed)
        return cls(*(_xavier(rng, d, d, (d, d)) for _ in range(3)))

    @classmethod
    def zeros(cls, d: int) -> "AttentionMlp":
        z = np.zeros((d, d))
        return cls(z, z, z)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        h = np.maximum(instance_norm(x @ self.w1), 0.0)
        h = np.maximum(instance_norm(h @ self.w2), 0.0)
        return h @ self.w3


@dataclass
class AttentionWeights:
    """Projection and mixing weights for one multi-head attention block."""

    wq: np.ndarray  # (heads, d, d_head)
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray  # (d, d)
    mlp: AttentionMlp

    def __post_init__(self):
        self.wq = np.asarray(self.wq, dtype=np.float64)
        self.wk = np.asarray(self.wk, dtype=np.float64)
        self.wv = np.asarray(self.wv, dtype=np.float64)
        self.wo = np.asarray(self.wo, dtype=np.float64)
        if self.wq.ndim != 3:
            raise ValueError("wq must have shape (heads, d, d_head)")
        heads, d, d_head = self.wq.shape
        if heads * d_head != d:
            raise ValueError(f"head dims must tile d: heads={heads}, d_head={d_head}, d={d}")
        for name, w in (("wk", self.wk), ("wv", self.wv)):
            if w.shape != (heads, d, d_head):
                raise ValueError(f"{name} must match wq's shape {self.wq.shape}")
        if self.wo.shape != (d, d):
            raise ValueError(f"wo must be ({d}, {d})")

    @property
    def heads(self) -> int:
        return self.wq.shape[0]

    @property
    def d(self) -> int:
        return self.wq.shape[1]

    @classmethod
    def seeded(cls, d: int, heads: int = 4, seed: int = 0) -> "AttentionWeights":
        if d % heads != 0:
            raise ValueError(f"d={d} must be divisible by heads={heads}")
        d_head = d // heads
        rng = np.random.default_rng(seed)
        wq = _xavier(rng, d, d_head, (heads, d, d_head))
        wk = _xavier(rng, d, d_head, (heads, d, d_head))
        wv = _xavier(rng, d, d_head, (heads, d, d_head))
        wo = _xavier(rng, d, d, (d, d))
        mlp = AttentionMlp.seeded(d, seed=int(rng.integers(0, 2**31 - 1)))
        return cls(wq, wk, wv, wo, mlp)


def _attend(queries: np.ndarray, keys_values: np.ndarray, weights: AttentionWeights) -> np.ndarray:
    """Scaled dot-product attention of query rows over key/value rows,
    followed by the residual MLP update."""
    q_in = np.asarray(queries, dtype=np.float64)
    kv = np.asarray(keys_values, dtype=np.float64)
    if q_in.ndim != 2 or kv.ndim != 2 or q_in.shape[1] != weights.d or kv.shape[1] != weights.d:
        raise ValueError(
            f"feature matrices must be (*, {weights.d}), got {q_in.shape} and {kv.shape}"
        )
    d_head = weights.wq.shape[2]
    scale = 1.0 / np.sqrt(d_head)
    merged = np.empty_like(q_in)
    for h in range(weights.heads):
        q = q_in @ weights.wq[h]
        k = kv @ weights.wk[h]
        v = kv @ weights.wv[h]
        # Scores as (J, N) with the softmax over axis 0: numpy reduces N
        # columns of length J far faster than N short rows of length J.
        st = k @ q.T
        st *= scale
        st -= st.max(axis=0)
        np.exp(st, out=st)
        st /= st.sum(axis=0)
        merged[:, h * d_head : (h + 1) * d_head] = st.T @ v
    out = merged @ weights.wo
    return q_in + weights.mlp(out)


def clustered_self_attention(
    features: np.ndarray, labels: np.ndarray, weights: AttentionWeights
) -> np.ndarray:
    """Each point attends to the cluster centroids of its own cloud; labels
    number the clusters from 0, none of them empty."""
    centroids = cluster_means(features, labels, int(np.max(labels)) + 1)
    return _attend(features, centroids, weights)


def full_self_attention(features: np.ndarray, weights: AttentionWeights) -> np.ndarray:
    """Reference quadratic path: every point attends to every point."""
    f = np.asarray(features, dtype=np.float64)
    return _attend(f, f, weights)


def clustered_cross_attention(
    features_p: np.ndarray,
    features_q: np.ndarray,
    labels_q: np.ndarray,
    weights: AttentionWeights,
) -> np.ndarray:
    """Points of one cloud attend to the other cloud's cluster centroids."""
    centroids = cluster_means(features_q, labels_q, int(np.max(labels_q)) + 1)
    return _attend(features_p, centroids, weights)


@dataclass
class OverlapHead:
    """Scalar heads that score each point's chance of lying in the overlap.

    g_alpha compresses a feature row to one channel; g_beta scores the
    concatenation of a point's own features with its attention-pooled
    summary of the other cloud. Both are linear + instance norm + sigmoid,
    so outputs always land in (0, 1).
    """

    w_alpha: np.ndarray  # (d, 1)
    w_beta: np.ndarray  # (d + 1, 1)
    tau: float = 0.1

    def __post_init__(self):
        self.w_alpha = np.asarray(self.w_alpha, dtype=np.float64)
        self.w_beta = np.asarray(self.w_beta, dtype=np.float64)
        if self.w_alpha.ndim != 2 or self.w_alpha.shape[1] != 1:
            raise ValueError("w_alpha must have shape (d, 1)")
        if self.w_beta.shape != (self.w_alpha.shape[0] + 1, 1):
            raise ValueError("w_beta must have shape (d + 1, 1)")
        if not (self.tau > 0):
            raise ValueError("tau must be positive")

    @property
    def d(self) -> int:
        return self.w_alpha.shape[0]

    @classmethod
    def seeded(cls, d: int, seed: int = 0, tau: float = 0.1) -> "OverlapHead":
        rng = np.random.default_rng(seed)
        return cls(_xavier(rng, d, 1, (d, 1)), _xavier(rng, d + 1, 1, (d + 1, 1)), tau)

    def g_alpha(self, features: np.ndarray) -> np.ndarray:
        return _sigmoid(instance_norm(features @ self.w_alpha))[:, 0]

    def g_beta(self, features: np.ndarray) -> np.ndarray:
        return _sigmoid(instance_norm(features @ self.w_beta))[:, 0]


def overlap_scores(
    features_p: np.ndarray, features_q: np.ndarray, head: OverlapHead
) -> np.ndarray:
    """Overlap score in (0, 1) for each row of features_p against cloud q.

    Cross-feature similarities (scaled by 1/tau) soft-select which target
    points inform each source point; the pooled single-channel summary is
    concatenated onto the point's own features and scored by g_beta.
    """
    fp = np.asarray(features_p, dtype=np.float64)
    fq = np.asarray(features_q, dtype=np.float64)
    if fp.ndim != 2 or fq.ndim != 2 or fp.shape[1] != head.d or fq.shape[1] != head.d:
        raise ValueError(f"feature matrices must be (*, {head.d}), got {fp.shape} and {fq.shape}")
    pool = softmax_rows(fp @ fq.T / head.tau)
    summary = pool @ head.g_alpha(fq)
    return head.g_beta(np.concatenate([fp, summary[:, None]], axis=1))
