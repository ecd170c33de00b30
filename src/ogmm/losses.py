"""Diagnostic losses: overlap-score cross-entropy and the Welsch penalty.

These mirror the quantities a training run would minimize, but here they
only grade a finished registration, so everything is a plain evaluable
function with a hand-written derivative and a finite-difference checker
to hold it to.
"""

from __future__ import annotations

import numpy as np

BCE_CLAMP = 1e-7
WELSCH_NU_SYNTHETIC = 0.1


def welsch(x, nu: float = WELSCH_NU_SYNTHETIC):
    """Bounded penalty 1 - exp(-x^2 / 2 nu^2); saturates at 1 for outliers."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    values = np.asarray(x, dtype=np.float64)
    out = 1.0 - np.exp(-(values * values) / (2.0 * nu * nu))
    return float(out) if out.ndim == 0 else out


def welsch_derivative(x, nu: float = WELSCH_NU_SYNTHETIC):
    if nu <= 0:
        raise ValueError("nu must be positive")
    values = np.asarray(x, dtype=np.float64)
    out = (values / (nu * nu)) * np.exp(-(values * values) / (2.0 * nu * nu))
    return float(out) if out.ndim == 0 else out


def _clamped(predicted) -> np.ndarray:
    arr = np.asarray(predicted, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("predictions must be finite")
    return np.clip(arr, BCE_CLAMP, 1.0 - BCE_CLAMP)


def binary_cross_entropy(predicted, labels) -> float:
    """Mean BCE with predictions clamped to [1e-7, 1 - 1e-7]."""
    p = _clamped(predicted)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {y.shape}")
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log1p(-p))))


def binary_cross_entropy_derivative(predicted, labels) -> np.ndarray:
    """Gradient of the mean BCE with respect to each prediction."""
    p = _clamped(predicted)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {y.shape}")
    return (-(y / p) + (1.0 - y) / (1.0 - p)) / p.size


def overlap_score_loss(predicted_p, labels_p, predicted_q, labels_q) -> float:
    """Average of the two per-cloud BCE terms."""
    return 0.5 * (
        binary_cross_entropy(predicted_p, labels_p)
        + binary_cross_entropy(predicted_q, labels_q)
    )


def gradient_check(fn, point, analytic_grad, h: float = 1e-5) -> float:
    """Max relative error between analytic_grad and central differences of fn.

    The relative denominator is floored at 1 so near-zero gradients are
    compared absolutely.
    """
    x = np.atleast_1d(np.asarray(point, dtype=np.float64))
    analytic = np.atleast_1d(np.asarray(analytic_grad, dtype=np.float64))
    if analytic.shape != x.shape:
        raise ValueError("analytic_grad must match the point's shape")
    worst = 0.0
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        upper = np.asarray(fn(x + step), dtype=np.float64).reshape(-1)
        lower = np.asarray(fn(x - step), dtype=np.float64).reshape(-1)
        if upper.size != 1 or lower.size != 1:
            raise ValueError("fn must return a scalar")
        numeric = (upper[0] - lower[0]) / (2.0 * h)
        scale = max(abs(numeric), abs(analytic[i]), 1.0)
        worst = max(worst, abs(numeric - analytic[i]) / scale)
    return worst
