import numpy as np
import pytest

from ogmm.losses import (
    binary_cross_entropy,
    binary_cross_entropy_derivative,
    overlap_score_loss,
    welsch,
    welsch_derivative,
)

# Central-difference step; each derivative's error is relative, with the
# denominator floored at 1 so near-zero derivatives compare absolutely.
H = 1e-5


def relative_error(numeric: float, analytic: float) -> float:
    return abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1.0)


class TestWelsch:
    def test_zero_at_origin(self):
        assert welsch(0.0, 0.1) == 0.0

    def test_hand_value(self):
        assert welsch(0.1, 0.1) == pytest.approx(1.0 - np.exp(-0.5), abs=1e-15)
        assert welsch(0.1, 0.1) == pytest.approx(0.3934693402873666, abs=1e-12)

    def test_saturates(self):
        assert welsch(10.0, 0.1) > 0.999999
        assert welsch(10.0, 0.1) <= 1.0
        # strictly below 1 while the exponential is still representable
        assert welsch(1.0, 0.3) < 1.0

    def test_monotone_in_magnitude(self):
        xs = np.linspace(0.0, 2.0, 50)
        values = welsch(xs, 0.3)
        assert np.all(np.diff(values) > 0)
        np.testing.assert_allclose(welsch(-xs, 0.3), values)

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            welsch(1.0, 0.0)
        with pytest.raises(ValueError):
            welsch_derivative(1.0, -0.1)

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-0.5, 0.5, size=25):
            numeric = (welsch(x + H, 0.1) - welsch(x - H, 0.1)) / (2.0 * H)
            assert relative_error(numeric, welsch_derivative(x, 0.1)) <= 1e-6


class TestBinaryCrossEntropy:
    def test_all_half_is_ln2(self):
        predicted = np.full(16, 0.5)
        labels = np.array([0, 1] * 8, dtype=float)
        assert binary_cross_entropy(predicted, labels) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_perfect_prediction_is_tiny(self):
        labels = np.array([1.0, 0.0, 1.0, 1.0])
        assert binary_cross_entropy(labels, labels) <= 1e-6

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            binary_cross_entropy(np.full(3, 0.5), np.zeros(4))

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        predicted = rng.uniform(0.05, 0.95, size=6)
        labels = rng.integers(0, 2, size=6).astype(float)
        grad = binary_cross_entropy_derivative(predicted, labels)
        for i, step in enumerate(np.eye(predicted.size) * H):
            upper = binary_cross_entropy(predicted + step, labels)
            lower = binary_cross_entropy(predicted - step, labels)
            assert relative_error((upper - lower) / (2.0 * H), grad[i]) <= 1e-6

    def test_single_term_derivative_hand_value(self):
        grad = binary_cross_entropy_derivative([0.3], [1.0])
        assert grad[0] == pytest.approx(-1.0 / 0.3, abs=1e-12)


class TestOverlapScoreLoss:
    def test_average_of_two_clouds(self):
        p_pred, p_lab = np.full(4, 0.5), np.ones(4)
        q_pred, q_lab = np.array([0.9, 0.1]), np.array([1.0, 0.0])
        expected = 0.5 * (
            binary_cross_entropy(p_pred, p_lab) + binary_cross_entropy(q_pred, q_lab)
        )
        assert overlap_score_loss(p_pred, p_lab, q_pred, q_lab) == pytest.approx(expected)

    def test_symmetric_in_cloud_roles(self):
        rng = np.random.default_rng(2)
        p_pred = rng.uniform(0.1, 0.9, 7)
        q_pred = rng.uniform(0.1, 0.9, 5)
        p_lab = rng.integers(0, 2, 7).astype(float)
        q_lab = rng.integers(0, 2, 5).astype(float)
        forward = overlap_score_loss(p_pred, p_lab, q_pred, q_lab)
        swapped = overlap_score_loss(q_pred, q_lab, p_pred, p_lab)
        assert forward == swapped
