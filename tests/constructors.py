"""Constructors only the tests use: an arbitrary-axis rotation and
all-zero networks."""

import numpy as np

from ogmm.attention import AttentionMlp
from ogmm.features import SeededMlp


def axis_angle_matrix(axis, angle_deg: float) -> np.ndarray:
    """Rotation about an arbitrary axis via the Rodrigues formula."""
    u = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(u)
    if norm <= 0.0 or not np.isfinite(norm):
        raise ValueError("axis must be a nonzero finite vector")
    u = u / norm
    theta = np.radians(angle_deg)
    k = np.array([
        [0.0, -u[2], u[1]],
        [u[2], 0.0, -u[0]],
        [-u[1], u[0], 0.0],
    ])
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def zero_seeded_mlp(dims) -> SeededMlp:
    """A SeededMlp of the given layer sizes whose weights and biases are all 0."""
    mlp = SeededMlp(dims, seed=0)
    mlp.weights = [np.zeros_like(w) for w in mlp.weights]
    mlp.biases = [np.zeros_like(b) for b in mlp.biases]
    return mlp


def zero_attention_mlp(d: int) -> AttentionMlp:
    """An AttentionMlp of width d whose three weight matrices are all 0."""
    z = np.zeros((d, d))
    return AttentionMlp(z, z, z)
