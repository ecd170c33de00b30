import numpy as np
import pytest
from scipy.optimize import linprog

import ogmm.clustering
import ogmm.mixture
from ogmm import transport
from ogmm.clustering import SINKHORN_EPSILON_SCALE, SINKHORN_MAX_ITER, SINKHORN_TOL
from ogmm.features import FeatureConfig, encode
from ogmm.geometry import farthest_point_sample
from ogmm.io import sample_shape
from ogmm.registration import FEATURE_DIM, FEATURE_SEED, RegisterConfig
from ogmm.transport import TransportPlan, sinkhorn


def lp_transport(cost, mu, nu):
    """Exact OT oracle on the flattened polytope (independent route)."""
    n, m = cost.shape
    a_eq = []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m : (i + 1) * m] = 1.0
        a_eq.append(row)
    for j in range(m):
        col = np.zeros(n * m)
        col[j::m] = 1.0
        a_eq.append(col)
    b_eq = np.concatenate([mu, nu])
    res = linprog(cost.ravel(), A_eq=np.array(a_eq), b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    return res.x.reshape(n, m)


class TestSinkhornBasics:
    def test_zero_cost_uniform_marginals_gives_uniform_plan(self):
        plan = sinkhorn(np.zeros((2, 2)), np.full(2, 0.5), np.full(2, 0.5))
        assert plan.converged
        np.testing.assert_allclose(plan.matrix, np.full((2, 2), 0.25), atol=1e-12)

    def test_strong_diagonal_preference_recovers_identity_coupling(self):
        cost = np.array([[0.0, 10.0], [10.0, 0.0]])
        plan = sinkhorn(cost, np.full(2, 0.5), np.full(2, 0.5), epsilon=1e-3)
        np.testing.assert_allclose(plan.matrix, np.diag([0.5, 0.5]), atol=1e-9)

    def test_marginals_satisfied_within_tol(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n, m = rng.integers(2, 7, size=2)
            cost = rng.uniform(0, 1, size=(n, m))
            mu = rng.uniform(0.1, 1.0, size=n)
            mu /= mu.sum()
            nu = rng.uniform(0.1, 1.0, size=m)
            nu /= nu.sum()
            plan = sinkhorn(cost, mu, nu, epsilon=0.05, tol=1e-9, max_iter=20000)
            assert plan.converged
            assert np.abs(plan.matrix.sum(axis=1) - mu).sum() <= 1e-9
            assert np.abs(plan.matrix.sum(axis=0) - nu).sum() <= 1e-9

    def test_entries_nonnegative_and_bounded(self):
        rng = np.random.default_rng(1)
        cost = rng.uniform(0, 1, size=(5, 4))
        mu = np.full(5, 0.2)
        nu = np.full(4, 0.25)
        plan = sinkhorn(cost, mu, nu, tol=1e-10, max_iter=50000)
        assert np.all(plan.matrix >= 0)
        assert np.all(plan.matrix <= np.minimum.outer(mu, nu) + 1e-9)

    def test_total_mass_preserved_when_not_normalized(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = sinkhorn(cost, np.array([1.2, 0.8]), np.array([0.9, 1.1]), epsilon=0.1)
        assert np.isclose(plan.matrix.sum(), 2.0, atol=1e-9)

    def test_zero_mass_marginal_entry_zeroes_row(self):
        cost = np.ones((3, 2))
        mu = np.array([0.5, 0.0, 0.5])
        nu = np.array([0.5, 0.5])
        plan = sinkhorn(cost, mu, nu)
        np.testing.assert_array_equal(plan.matrix[1], np.zeros(2))
        assert plan.converged

    def test_symmetric_instance_gives_symmetric_plan(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 1, size=(4, 4))
        cost = a + a.T
        mu = np.full(4, 0.25)
        plan = sinkhorn(cost, mu, mu, epsilon=0.05, tol=1e-12, max_iter=50000)
        np.testing.assert_allclose(plan.matrix, plan.matrix.T, atol=1e-10)


class TestSinkhornAgainstExactSolvers:
    def test_two_by_two_closed_form(self):
        # Oracle: the 2x2 polytope is the segment t in [max(0,a+b-1), min(a,b)]
        # with P = [[t, a-t], [b-t, 1-a-b+t]]; a linear objective is minimized
        # at an endpoint. Reduced cost of t: c00 - c01 - c10 + c11.
        rng = np.random.default_rng(3)
        for trial in range(40):
            c = rng.uniform(0, 1, size=(2, 2))
            a, b = rng.uniform(0.2, 0.8, size=2)
            reduced = c[0, 0] - c[0, 1] - c[1, 0] + c[1, 1]
            if abs(reduced) < 0.1:
                continue  # avoid near-degenerate objectives
            t = min(a, b) if reduced < 0 else max(0.0, a + b - 1.0)
            exact = np.array([[t, a - t], [b - t, 1 - a - b + t]])
            plan = sinkhorn(
                c,
                np.array([a, 1 - a]),
                np.array([b, 1 - b]),
                epsilon=1e-3,
                max_iter=200000,
                tol=1e-10,
            )
            assert plan.converged
            np.testing.assert_allclose(plan.matrix, exact, atol=1e-3)

    def test_three_by_three_matches_linear_program(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            cost = rng.uniform(0, 1, size=(3, 3))
            mu = rng.uniform(0.2, 1.0, size=3)
            mu /= mu.sum()
            nu = rng.uniform(0.2, 1.0, size=3)
            nu /= nu.sum()
            exact = lp_transport(cost, mu, nu)
            plan = sinkhorn(cost, mu, nu, epsilon=1e-3, max_iter=300000, tol=1e-10)
            assert plan.converged
            tv = 0.5 * np.abs(plan.matrix - exact).sum()
            assert tv < 1e-3


def reference_log_loop(z: np.ndarray, mu: np.ndarray, nu: np.ndarray, max_iter: int, tol: float):
    """Plain Sinkhorn on the scaled dual potentials, for any z =
    cost/epsilon: the log-domain loop that both solves ran before the
    Newton loop, kept as an independent oracle.

    Returns (plan, converged, iterations, marginal_error) for unit mass.
    The plan is a transposed view of an (m, n) array.
    """
    with np.errstate(divide="ignore"):
        log_mu = np.log(mu)
        log_nu = np.log(nu)
    n, m = z.shape
    # The kernel is held transposed, as a contiguous (m, n) array: in the
    # usual tall case (many points, few clusters or components) the row
    # log-sum-exp then reduces elementwise over m rows of length n, and the
    # column log-sum-exp along those long rows, instead of both reducing
    # across a short inner axis. Both log-sum-exps are written out and work
    # in place on one scratch buffer, since at desk sizes this loop runs
    # tens of thousands of times per registration. The max shift keeps exp
    # finite.
    kernel = np.ascontiguousarray((-z).T)
    scratch = np.empty_like(kernel)

    def row_lse(v: np.ndarray) -> np.ndarray:
        """L(v)_i = log sum_j exp(kernel[j, i] + v[j]), one entry per row atom."""
        np.add(kernel, v[:, None], out=scratch)
        shift = scratch.max(axis=0)
        np.subtract(scratch, shift, out=scratch)
        np.exp(scratch, out=scratch)
        s = scratch.sum(axis=0)
        np.log(s, out=s)
        s += shift
        return s

    # Scaled dual potentials f/eps (u, per row atom) and g/eps (v, per
    # column atom). Zero-mass atoms get -inf potentials through log(0),
    # which zeroes their row/column of the plan exactly; every shift stays
    # finite because each marginal carries mass somewhere.
    v = np.zeros(m)
    lse = row_lse(v)
    converged = False
    iterations = 0
    err = np.inf
    for iterations in range(1, max_iter + 1):
        u = log_mu - lse

        np.add(kernel, u[None, :], out=scratch)
        shift = scratch.max(axis=1, keepdims=True)
        scratch -= shift
        np.exp(scratch, out=scratch)
        s = scratch.sum(axis=1)
        np.log(s, out=s)
        s += shift[:, 0]
        v = log_nu - s

        # The plan (u, v) meets the column marginal up to rounding, and its
        # row sums are exp(u + L(v)) = mu * exp(L(v) - L(v_prev)).
        lse = row_lse(v)
        err = float(np.abs(np.exp(u + lse) - mu).sum())
        if err <= tol:
            converged = True
            break
    plan = kernel + u[None, :]
    plan += v[:, None]
    np.exp(plan, out=plan)
    return plan.T, converged, iterations, err


class TestMarginalError:
    """The loop stops on the column violation, the rows being met exactly,
    and recomputes the reported error over both marginals from the returned
    plan; it must equal that plan's own L1 violation, cold or warm."""

    @staticmethod
    def _violation(plan, mu, nu):
        rows = np.abs(plan.matrix.sum(axis=1) - mu).sum()
        cols = np.abs(plan.matrix.sum(axis=0) - nu).sum()
        return rows + cols

    def test_converged_solve(self):
        rng = np.random.default_rng(7)
        cost = rng.uniform(0, 1, size=(40, 6))
        mu = rng.uniform(0.1, 1.0, size=40)
        mu /= mu.sum()
        nu = np.full(6, 1 / 6)
        for init in (None, np.zeros(6)):
            plan = sinkhorn(cost, mu, nu, epsilon=0.05, tol=1e-9, max_iter=5000, init=init)
            assert plan.converged
            assert plan.marginal_error <= 1e-9
            assert abs(plan.marginal_error - self._violation(plan, mu, nu)) <= 1e-12

    def test_budget_exhausted_solve(self):
        cost = np.random.default_rng(8).uniform(0, 1, size=(6, 9))
        mu = np.full(6, 1 / 6)
        nu = np.full(9, 1 / 9)
        for init in (None, np.zeros(9)):
            plan = sinkhorn(cost, mu, nu, epsilon=1e-2, max_iter=2, tol=1e-12, init=init)
            assert not plan.converged
            assert plan.marginal_error > 1e-3
            assert abs(plan.marginal_error - self._violation(plan, mu, nu)) <= 1e-12

    @pytest.mark.parametrize("max_iter", [2, 5000])
    def test_zero_mass_row_and_column_atoms(self, max_iter):
        cost = np.random.default_rng(9).uniform(0, 1, size=(7, 5))
        mu = np.array([0.2, 0.0, 0.3, 0.1, 0.0, 0.25, 0.15])
        nu = np.array([0.0, 0.4, 0.35, 0.0, 0.25])
        plan = sinkhorn(cost, mu, nu, epsilon=0.05, max_iter=max_iter, tol=1e-9)
        assert plan.converged == (max_iter > 2)
        np.testing.assert_array_equal(plan.matrix[mu == 0], 0.0)
        np.testing.assert_array_equal(plan.matrix[:, nu == 0], 0.0)
        assert abs(plan.marginal_error - self._violation(plan, mu, nu)) <= 1e-12


class TestMarginalErrorReuse:
    """A loop whose last stage ends on the plan it just tested reuses that
    test's column violation; every exit must report exactly what
    `_violation` recomputes from the returned plan on the support."""

    @staticmethod
    def _solve(cost, mu, nu, epsilon, max_iter, tol, init=None):
        zt = np.divide(cost.T, epsilon, order="C")
        plan_t, converged, iterations, err, _ = transport._newton_loop(
            zt, mu, nu, max_iter, tol, None if init is None else init / epsilon
        )
        rows, cols = mu > 0, nu > 0
        recomputed = transport._violation(plan_t[np.ix_(cols, rows)], mu[rows], nu[cols])
        assert err == recomputed
        return converged, iterations

    def test_cold_and_warm_solves(self):
        rng = np.random.default_rng(21)
        for n, m in ((40, 6), (512, 16), (8, 8)):
            cost = rng.uniform(0, 1, size=(n, m))
            mu = rng.uniform(0.1, 1.0, size=n)
            mu /= mu.sum()
            nu = np.full(m, 1 / m)
            converged, _ = self._solve(cost, mu, nu, 0.05, 5000, 1e-9)
            assert converged
            warm = sinkhorn(cost, mu, nu, epsilon=0.05, tol=1e-9, max_iter=5000).potentials
            for init in (np.zeros(m), warm):
                converged, iterations = self._solve(cost, mu, nu, 0.05, 5000, 1e-9, init)
                assert converged
            # Started at its own answer, the warm solve stops at once.
            assert iterations == 0

    def test_budget_exhausted_solves(self):
        cost = np.random.default_rng(22).uniform(0, 1, size=(6, 9))
        mu, nu = np.full(6, 1 / 6), np.full(9, 1 / 9)
        for init in (None, np.zeros(9)):
            for max_iter in (1, 2, 3):
                converged, iterations = self._solve(cost, mu, nu, 1e-2, max_iter, 1e-14, init)
                assert not converged and iterations == max_iter

    @pytest.mark.parametrize("max_iter", [2, 5000])
    def test_zero_mass_marginals(self, max_iter):
        cost = np.random.default_rng(23).uniform(0, 1, size=(7, 5))
        mu = np.array([0.2, 0.0, 0.3, 0.1, 0.0, 0.25, 0.15])
        nu = np.array([0.0, 0.4, 0.35, 0.0, 0.25])
        for init in (None, np.zeros(5)):
            converged, _ = self._solve(cost, mu, nu, 0.05, max_iter, 1e-9, init)
            assert converged == (max_iter > 2)


class TestSinkhornEdges:
    def test_budget_exhaustion_reports_not_converged(self):
        cost = np.random.default_rng(5).uniform(0, 1, size=(6, 6))
        mu = np.full(6, 1 / 6)
        plan = sinkhorn(cost, mu, mu, epsilon=1e-4, max_iter=2, tol=1e-12)
        assert not plan.converged
        assert plan.iterations == 2
        assert np.all(np.isfinite(plan.matrix))
        assert plan.marginal_error > 1e-12

    def test_mass_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal mass"):
            sinkhorn(np.zeros((2, 2)), np.array([0.6, 0.6]), np.array([0.5, 0.5]))

    def test_negative_marginal_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            sinkhorn(np.zeros((2, 2)), np.array([-0.1, 1.1]), np.array([0.5, 0.5]))

    def test_non_finite_marginal_rejected(self):
        # Reported as non-finite even beside a negative entry.
        for row in ([np.nan, 1.0], [np.inf, 0.5], [-np.inf, 1.0], [np.nan, -1.0], [-1.0, np.inf]):
            with pytest.raises(ValueError, match="row_marginal contains non-finite"):
                sinkhorn(np.zeros((2, 2)), np.array(row), np.array([0.5, 0.5]))

    def test_zero_total_mass_rejected(self):
        with pytest.raises(ValueError, match="no mass"):
            sinkhorn(np.zeros((2, 2)), np.zeros(2), np.array([0.5, 0.5]))

    def test_non_finite_cost_rejected(self):
        cost = np.zeros((2, 2))
        cost[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            sinkhorn(cost, np.full(2, 0.5), np.full(2, 0.5))

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            sinkhorn(np.zeros((2, 2)), np.full(2, 0.5), np.full(2, 0.5), epsilon=0.0)

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("epsilon", -1.0, "epsilon"),
            ("epsilon", np.nan, "epsilon"),
            ("epsilon", np.inf, "epsilon"),
            ("tol", -1.0, "tol"),
            ("tol", np.nan, "tol"),
            ("tol", np.inf, "tol"),
            ("max_iter", 0, "max_iter"),
            ("max_iter", 1.5, "max_iter must be an integer"),
            ("max_iter", 7.0, "max_iter must be an integer"),
            ("max_iter", True, "max_iter must be an integer"),
        ],
    )
    def test_bad_solver_parameter_rejected_before_any_work(self, monkeypatch, option, value, message):
        # A NaN or infinite epsilon once ran a whole solve (or returned NaN
        # potentials as converged), a NaN or negative tol spent the whole
        # budget, and a fractional max_iter overran it.
        def no_solve(*args):
            raise AssertionError("solved despite a bad parameter")

        monkeypatch.setattr(transport, "_newton_loop", no_solve)
        cost = np.random.default_rng(3).uniform(size=(4, 5))
        with pytest.raises(ValueError, match=message):
            sinkhorn(cost, np.full(4, 0.25), np.full(5, 0.2), **{option: value})

    def test_boundary_solver_parameters_accepted(self):
        cost = np.random.default_rng(3).uniform(size=(4, 5))
        plan = sinkhorn(cost, np.full(4, 0.25), np.full(5, 0.2), max_iter=np.int64(50), tol=0.0)
        assert plan.iterations == 50 and not plan.converged
        assert sinkhorn(cost, np.full(4, 0.25), np.full(5, 0.2), epsilon=1e300).converged

    def test_plan_type_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            TransportPlan(np.array([[-0.1, 0.2], [0.3, 0.4]]), True, 1, 0.0, np.zeros(2))

    def test_plan_type_rejects_non_finite_entries(self):
        for bad in ([np.nan, 0.2], [np.inf, 0.2], [-np.inf, 0.2], [-0.1, np.nan]):
            with pytest.raises(ValueError, match="non-finite"):
                TransportPlan(np.array([bad, [0.3, 0.4]]), True, 1, 0.0, np.zeros(2))
        assert TransportPlan(np.zeros((0, 3)), True, 1, 0.0, np.zeros(3)).matrix.shape == (0, 3)

    def test_rectangular_shapes_supported(self):
        cost = np.random.default_rng(6).uniform(0, 1, size=(5, 3))
        mu = np.full(5, 0.2)
        nu = np.full(3, 1 / 3)
        plan = sinkhorn(cost, mu, nu, tol=1e-8, max_iter=5000)
        assert plan.matrix.shape == (5, 3)
        assert plan.converged


def _dynamic_range(z, mu, nu):
    """The dynamic range of cost/epsilon z: its largest entry after shifting
    it by its row minima and then by its column minima, plus the marginals'
    log-ratios and log(n m). Over 1305 balanced k-means solves captured from
    both benchmark workloads it was 231 at most."""
    shifted = z - z.min(axis=1, keepdims=True)
    shifted = shifted - shifted.min(axis=0)
    n, m = z.shape
    return (
        shifted.max()
        + np.log(mu.max() / mu.min())
        + np.log(nu.max() / nu.min())
        + np.log(n * m)
    )


def _problem(rng, n, m, uniform, spread):
    """cost/epsilon and probability marginals whose dynamic range is spread."""
    cost = rng.uniform(0, 1, size=(n, m)) ** 2
    if uniform:
        mu, nu = np.full(n, 1 / n), np.full(m, 1 / m)
    else:
        mu, nu = rng.uniform(0.2, 1.0, size=n), rng.uniform(0.2, 1.0, size=m)
        mu, nu = mu / mu.sum(), nu / nu.sum()
    fixed = _dynamic_range(np.zeros((n, m)), mu, nu)
    shifted = cost - cost.min(axis=1, keepdims=True)
    shifted = shifted - shifted.min(axis=0)
    return cost * (spread - fixed) / shifted.max(), mu, nu


# The bound on the dynamic range of the k-means-shaped problems below, above
# the largest of any captured k-means solve.
KMEANS_RANGE = 350.0


def _assert_same_solve(z, mu, nu, max_iter, tol):
    """Cold and warm (from zero potentials, with no opening sweep) solves
    converge within max_iter and reach the reference loop's optimum."""
    logged = reference_log_loop(z, mu, nu, 20000, tol)
    assert logged[1]
    for init in (None, np.zeros(z.shape[1])):
        plan = sinkhorn(z, mu, nu, epsilon=1.0, max_iter=max_iter, tol=tol, init=init)
        _assert_honest(plan, mu, nu, tol)
        assert plan.converged
        _assert_same_optimum(plan.matrix, logged[0], tol)


class TestSolverPaths:
    """Both ways into the loop, the cold epsilon-scaled start and the warm
    start from given potentials, reach the optimum of plain log-domain
    Sinkhorn on k-means-shaped problems: up to 512 points and 16 clusters,
    dynamic range up to KMEANS_RANGE, within the k-means iteration
    budget."""

    @pytest.mark.parametrize("uniform", [True, False])
    def test_agree_inside_the_bound(self, uniform):
        rng = np.random.default_rng(11 + uniform)
        for trial in range(24):
            n = int(rng.integers(2, 513))
            m = int(rng.integers(2, 17))
            spread = KMEANS_RANGE * (0.999 if trial % 4 == 0 else rng.uniform(0.05, 0.999))
            z, mu, nu = _problem(rng, n, m, uniform, spread)
            assert _dynamic_range(z, mu, nu) == pytest.approx(spread)
            _assert_same_solve(z, mu, nu, max_iter=SINKHORN_MAX_ITER, tol=1e-9)

    def test_agree_at_the_largest_shape(self):
        z, mu, nu = _problem(np.random.default_rng(13), 512, 16, False, 0.999 * KMEANS_RANGE)
        _assert_same_solve(z, mu, nu, max_iter=SINKHORN_MAX_ITER, tol=SINKHORN_TOL)

    def test_agree_when_a_starting_scaling_underflows(self):
        # A column 800 kernel units beyond every row: at zero potentials its
        # share of every row, exp(-800) of the row's best, is 0.0.
        z, mu, nu = _problem(np.random.default_rng(14), 300, 12, False, 60.0)
        z[:, 3] += 800.0
        assert np.all(np.exp(-(z[:, 3] - z.min(axis=1))) == 0.0)
        _assert_same_solve(z, mu, nu, max_iter=SINKHORN_MAX_ITER, tol=1e-10)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_zero_mass_atom_with_a_warm_start(self, axis):
        rng = np.random.default_rng(16)
        z, mu, nu = _problem(rng, 50, 6, True, 20.0)
        mu, nu = mu.copy(), nu.copy()
        if axis == 0:
            mu[[3, 17]] = 0.0
            mu /= mu.sum()
        else:
            nu[2] = 0.0
            nu /= nu.sum()
        plan = sinkhorn(z, mu, nu, epsilon=1.0, max_iter=500, tol=1e-9, init=rng.normal(size=6))
        assert plan.converged
        _assert_honest(plan, mu, nu, 1e-9)
        np.testing.assert_array_equal(plan.potentials[nu == 0], 0.0)
        logged = reference_log_loop(z, mu, nu, 20000, 1e-9)
        assert logged[1]
        _assert_same_optimum(plan.matrix, logged[0], 1e-9)


def _kmeans_problem(rng, n, j):
    """n points in four blobs and j centroids drawn from them."""
    centers = rng.normal(0.0, 1.0, size=(4, 3))
    points = centers[rng.integers(4, size=n)] + rng.normal(0.0, 0.4, size=(n, 3))
    centroids = points[rng.choice(n, j, replace=False)]
    return points, centroids


def _kmeans_cost(points, centroids):
    """Squared distances from every point to every centroid."""
    return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def _kmeans_solve(points, centroids, tol, init=None):
    """The k-means assignment step's solve, at its epsilon and budget."""
    cost = _kmeans_cost(points, centroids)
    n, j = cost.shape
    epsilon = SINKHORN_EPSILON_SCALE * float(cost.mean())
    return sinkhorn(
        cost, np.full(n, 1 / n), np.full(j, 1 / j),
        epsilon=epsilon, max_iter=SINKHORN_MAX_ITER, tol=tol, init=init,
    )


class TestWarmStart:
    """`init` starts the loop at the configured epsilon from given column
    potentials in cost units, as each Lloyd step from the third on starts
    from the last."""

    @pytest.mark.parametrize("n, j", [(256, 8), (512, 16)])
    def test_perturbed_kmeans_problem(self, n, j):
        # A Lloyd step moves the centroids and with them the cost and the
        # epsilon; the last step's potentials still start the next solve
        # near its optimum.
        rng = np.random.default_rng(40 + j)
        points, centroids = _kmeans_problem(rng, n, j)
        tol = 1e-6
        before = _kmeans_solve(points, centroids, tol, init=np.zeros(j))
        moved = centroids + rng.normal(0.0, 0.05, size=centroids.shape)
        cold = _kmeans_solve(points, moved, tol)
        warm = _kmeans_solve(points, moved, tol, init=before.potentials)
        assert before.converged and cold.converged and warm.converged
        _assert_same_optimum(warm.matrix, cold.matrix, tol)
        assert warm.iterations < cold.iterations

    def test_potentials_are_in_cost_units(self):
        # Scaling cost and epsilon together leaves z = cost/epsilon, and so
        # every iterate, unchanged; the potentials scale with the cost.
        rng = np.random.default_rng(45)
        cost = rng.uniform(0.0, 1.0, size=(30, 5))
        mu, nu = np.full(30, 1 / 30), np.full(5, 0.2)
        init = rng.normal(0.0, 0.1, size=5)
        unit = sinkhorn(cost, mu, nu, epsilon=0.05, tol=1e-9, init=init)
        scaled = sinkhorn(8.0 * cost, mu, nu, epsilon=0.4, tol=1e-9, init=8.0 * init)
        np.testing.assert_array_equal(unit.matrix, scaled.matrix)
        np.testing.assert_array_equal(8.0 * unit.potentials, scaled.potentials)
        assert unit.iterations == scaled.iterations

    def test_converged_potentials_restart_converged(self):
        points, centroids = _kmeans_problem(np.random.default_rng(46), 200, 8)
        first = _kmeans_solve(points, centroids, 1e-9, init=np.zeros(8))
        again = _kmeans_solve(points, centroids, 1e-9, init=first.potentials)
        # A warm solve opens with the convergence check, not a sweep.
        assert again.converged
        assert again.iterations == 0
        _assert_same_optimum(again.matrix, first.matrix, 1e-9)

    @pytest.mark.parametrize("init", [np.zeros(3), np.zeros((4, 1)), [0.0, np.nan, 0.0, 0.0],
                                      [0.0, 0.0, np.inf, 0.0]])
    def test_bad_init_rejected(self, init):
        cost = np.random.default_rng(47).uniform(0, 1, size=(5, 4))
        with pytest.raises(ValueError, match="init"):
            sinkhorn(cost, np.full(5, 0.2), np.full(4, 0.25), init=init)

    def test_plan_rejects_potentials_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match="potentials"):
            TransportPlan(np.full((2, 3), 1 / 6), True, 1, 0.0, np.zeros(2))


def _farthest_point_problem(dim, n, j):
    """The first Lloyd step's points and farthest-point centroids: a
    composite shape in 3-D, or its 32-D descriptors as `register` encodes
    them."""
    cloud = sample_shape("composite", n, seed=5)
    if dim == 3:
        points = cloud.points
    else:
        config = FeatureConfig(FEATURE_DIM, RegisterConfig().k_neighbors, FEATURE_SEED)
        points = encode(cloud, config)
        assert points.shape == (n, dim)
    return points, points[farthest_point_sample(points, j, 0)]


def _quantile_start(points, centroids):
    """Each column's floor(N/J)-th smallest cost, centred, as the first two
    Lloyd steps start."""
    cost = _kmeans_cost(points, centroids)
    n, j = cost.shape
    q = np.sort(cost, axis=0)[n // j - 1]
    return q - q.mean()


class TestWarmStartWithoutOpeningSweep:
    """A warm solve opens with the convergence check and Newton steps, not
    a Sinkhorn sweep. From the starts the Lloyd loop gives it, and from a
    stale one, it converges within the k-means budget on the optimum of
    plain log-domain Sinkhorn."""

    CASES = [(3, 512, 16), (32, 512, 8)]

    @staticmethod
    def _assert_reaches_the_reference(points, centroids, init):
        plan = _kmeans_solve(points, centroids, SINKHORN_TOL, init=init)
        assert plan.converged
        assert plan.iterations <= SINKHORN_MAX_ITER
        cost = _kmeans_cost(points, centroids)
        n, j = cost.shape
        z = cost / (SINKHORN_EPSILON_SCALE * float(cost.mean()))
        logged = reference_log_loop(z, np.full(n, 1 / n), np.full(j, 1 / j), 20000, 1e-9)
        assert logged[1]
        _assert_same_optimum(plan.matrix, logged[0], SINKHORN_TOL)
        return plan

    @pytest.mark.parametrize("dim, n, j", CASES)
    def test_quantile_start(self, dim, n, j):
        points, centroids = _farthest_point_problem(dim, n, j)
        self._assert_reaches_the_reference(points, centroids, _quantile_start(points, centroids))

    @pytest.mark.parametrize("dim, n, j", CASES)
    def test_stale_start_after_the_centroid_jump(self, dim, n, j):
        # Step 1's potentials, carried into step 2 after the centroids move
        # from the farthest-point sample to the first cluster means.
        points, centroids = _farthest_point_problem(dim, n, j)
        first = self._assert_reaches_the_reference(
            points, centroids, _quantile_start(points, centroids))
        labels = ogmm.clustering._round_balanced(first.matrix, n, j)
        means = np.stack([points[labels == l].mean(axis=0) for l in range(j)])
        stale = self._assert_reaches_the_reference(points, means, first.potentials)
        fresh = self._assert_reaches_the_reference(points, means, _quantile_start(points, means))
        assert stale.iterations > fresh.iterations

    @pytest.mark.parametrize("converged", [False, True])
    def test_init_is_left_unmodified(self, converged):
        points, centroids = _farthest_point_problem(3, 512, 16)
        init = _quantile_start(points, centroids)
        if converged:
            init = _kmeans_solve(points, centroids, 1e-9, init=init).potentials.copy()
        kept = init.copy()
        plan = _kmeans_solve(points, centroids, 1e-9, init=init)
        assert (plan.iterations == 0) == converged
        np.testing.assert_array_equal(init, kept)


def _matching_problem(rng, size, empty_rows=(), empty_cols=()):
    """cost/epsilon and marginals shaped like the desk matching solve:
    squared distances between two noisy, permuted copies of `size` 32-d
    feature centroids (median about 16), at epsilon 0.01, with uneven
    component weights. Empty components (no overlap mass) have all-zero
    centroids, as `estimate_gmm` gives them."""
    centroids = rng.normal(0.0, 0.5, size=(size, 32))
    other = centroids[rng.permutation(size)] + rng.normal(0.0, 0.3, size=(size, 32))
    centroids[list(empty_rows)] = 0.0
    other[list(empty_cols)] = 0.0
    cost = ((centroids[:, None, :] - other[None, :, :]) ** 2).sum(axis=2)
    mu, nu = rng.uniform(0.2, 1.0, size=size), rng.uniform(0.2, 1.0, size=size)
    return cost / 0.01, mu / mu.sum(), nu / nu.sum()


def _assert_same_optimum(plan, reference, tol):
    """Two plans that each meet the marginals within tol approximate the one
    entropic optimum; they differ by a few tol in total variation."""
    assert 0.5 * np.abs(plan - reference).sum() <= 10 * tol


def _assert_honest(plan, mu, nu, tol):
    """A finite plan, exact zeros on zero-mass rows and columns, an error
    that is the plan's own L1 violation of both marginals, and a flag that
    says whether that error is within tol."""
    assert np.all(np.isfinite(plan.matrix))
    np.testing.assert_array_equal(plan.matrix[mu == 0], 0.0)
    np.testing.assert_array_equal(plan.matrix[:, nu == 0], 0.0)
    assert abs(plan.marginal_error - TestMarginalError._violation(plan, mu, nu)) <= 1e-12
    assert plan.converged == (plan.marginal_error <= tol)


def _newton(z, mu, nu, max_iter, tol=1e-6):
    """A cold `sinkhorn` solve of z = cost/epsilon, with the returned plan
    checked by `_assert_honest`."""
    plan = sinkhorn(z, mu, nu, epsilon=1.0, max_iter=max_iter, tol=tol)
    _assert_honest(plan, mu, nu, tol)
    return plan


class TestNewtonLoop:
    """The cold solve converges on the desk matching solves, where plain
    Sinkhorn runs out of budget, and agrees with plain Sinkhorn wherever
    that converges."""

    @pytest.mark.parametrize("size", [8, 16])
    def test_matching_solve_converges_where_the_log_loop_does_not(self, size):
        z, mu, nu = _matching_problem(np.random.default_rng(20 + size), size)
        assert not reference_log_loop(z, mu, nu, 5000, 1e-6)[1]
        plan = _newton(z, mu, nu, 5000)
        assert plan.converged
        assert plan.iterations < 100

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 5000])
    def test_column_underflowing_on_the_first_step(self, max_iter):
        # Column 3 lies at least 2000 kernel units beyond every row's best
        # column: after the first row update its entries of exp(u - z) are
        # all 0.0, so only a log-domain column update gives it mass.
        rng = np.random.default_rng(24)
        z, mu, nu = _matching_problem(rng, 16)
        z[:, 3] = z.min(axis=1) + 2000.0 + rng.uniform(0.0, 50.0, size=16)
        first_u = np.log(mu) - np.log(np.exp(-(z - z.min(axis=1, keepdims=True))).sum(axis=1))
        assert np.all(np.exp(first_u - (z[:, 3] - z.min(axis=1))) == 0.0)
        plan = _newton(z, mu, nu, max_iter)
        assert plan.iterations <= max_iter
        assert plan.converged == (max_iter == 5000)

    @pytest.mark.parametrize("max_iter", [2, 5000])
    def test_zero_mass_rows_and_columns(self, max_iter):
        rng = np.random.default_rng(25)
        z, mu, nu = _matching_problem(rng, 12)
        mu[[2, 7]] = 0.0
        nu[[0, 5, 9]] = 0.0
        # Row 4 sends all of its first-step mass to the empty column 5.
        z[4] += 5000.0
        z[4, 5] = 0.0
        mu, nu = mu / mu.sum(), nu / nu.sum()
        plan = _newton(z, mu, nu, max_iter)
        assert plan.converged == (max_iter == 5000)

    @pytest.mark.parametrize("max_iter", [2, 5000])
    def test_tiny_marginal_entries(self, max_iter):
        # Weights like these come out of the oracle-overlap arm at keep 0.3:
        # components that hold no overlapping point keep only the tails of
        # the soft assignment, and all sit at the same centroid.
        empty_rows, empty_cols = [0, 4, 5, 6, 7], [0, 3, 4, 5, 6, 7]
        z, _, _ = _matching_problem(np.random.default_rng(26), 8, empty_rows, empty_cols)
        mu = np.array([1e-142, 0.83, 0.17, 5e-3, 1e-229, 1e-108, 1e-83, 1e-184])
        nu = np.array([1e-191, 0.875, 0.125, 1e-70, 1e-181, 1e-119, 1e-189, 1e-193])
        mu, nu = mu / mu.sum(), nu / nu.sum()
        plan = _newton(z, mu, nu, max_iter)
        assert plan.converged == (max_iter == 5000)
        if plan.converged:
            logged = reference_log_loop(z, mu, nu, max_iter, 1e-6)
            assert logged[1]
            _assert_same_optimum(plan.matrix, logged[0], 1e-6)

    def test_agrees_with_the_log_loop_where_it_converges(self):
        rng = np.random.default_rng(27)
        compared = 0
        for _ in range(12):
            n, m = (int(k) for k in rng.integers(2, 17, size=2))
            z = rng.uniform(0.0, 1.0, size=(n, m)) * rng.uniform(700.0, 1500.0)
            mu, nu = rng.uniform(0.1, 1.0, size=n), rng.uniform(0.1, 1.0, size=m)
            mu, nu = mu / mu.sum(), nu / nu.sum()
            logged = reference_log_loop(z, mu, nu, 20000, 1e-9)
            if not logged[1]:
                continue
            compared += 1
            plan = _newton(z, mu, nu, 5000, tol=1e-9)
            assert plan.converged
            _assert_same_optimum(plan.matrix, logged[0], 1e-9)
        assert compared >= 10

    @pytest.mark.parametrize("size", [8, 16])
    def test_matches_the_linear_program_at_small_epsilon(self, size):
        rng = np.random.default_rng(28 + size)
        cost = rng.uniform(0.0, 1.0, size=(size, size))
        mu, nu = rng.uniform(0.2, 1.0, size=size), rng.uniform(0.2, 1.0, size=size)
        mu, nu = mu / mu.sum(), nu / nu.sum()
        plan = _newton(cost / 1e-4, mu, nu, 5000, tol=1e-9)
        assert plan.converged
        assert 0.5 * np.abs(plan.matrix - lp_transport(cost, mu, nu)).sum() < 1e-6

    def test_one_iteration_reports_its_own_error(self):
        z, mu, nu = _matching_problem(np.random.default_rng(29), 16)
        plan = _newton(z, mu, nu, 1)
        assert not plan.converged
        assert plan.iterations == 1
        assert plan.marginal_error > 1e-6

    def test_repeated_calls_are_bit_identical(self):
        z, mu, nu = _matching_problem(np.random.default_rng(30), 16)
        first, second = _newton(z, mu, nu, 5000), _newton(z, mu, nu, 5000)
        np.testing.assert_array_equal(first.matrix, second.matrix)
        assert (first.iterations, first.marginal_error) == (second.iterations, second.marginal_error)

    def test_failed_line_searches_fall_back_to_sinkhorn_sweeps(self, monkeypatch):
        # With no trial step allowed every step is a Sinkhorn sweep, so the
        # loop is plain Sinkhorn with an epsilon schedule: it still ends on
        # the optimum.
        monkeypatch.setattr(transport, "MAX_HALVINGS", 0)
        z, mu, nu = _problem(np.random.default_rng(31), 12, 6, False, 400.0)
        plan = _newton(z, mu, nu, 5000, tol=1e-9)
        assert plan.converged
        logged = reference_log_loop(z, mu, nu, 5000, 1e-9)
        assert logged[1]
        _assert_same_optimum(plan.matrix, logged[0], 1e-9)

    def test_stage_sweeps_move_potentials_across_wide_gaps(self):
        # One row with mass: it must send 1 - 4e-6 of it to a column 664
        # kernel units beyond its cheapest. Each stage's opening Sinkhorn
        # sweep sets that column's potential exactly; Newton steps alone,
        # capped at MAX_STEP, took over 700 steps to cross the gap.
        z = np.array([[29.0, 693.5, 747.5], [765.3, 57.1, 356.6]])
        mu = np.array([1.0, 0.0])
        nu = np.array([4e-6, 1.0 - 4e-6 - 1e-149, 1e-149])
        plan = _newton(z, mu, nu, 5000)
        assert plan.converged
        assert plan.iterations <= 20

    def test_random_problems_with_empty_and_tiny_atoms_converge(self):
        # Matching-shaped costs with empty components at the origin, uniform
        # and spread costs at epsilon 1e-3 to 1, and marginals where a
        # quarter of the atoms carry no mass and a quarter 1e-5 to 1e-300.
        rng = np.random.default_rng(32)
        for trial in range(600):
            n, m = (int(k) for k in rng.integers(2, 17, size=2))
            if trial % 3 == 0:
                cost = rng.uniform(0.0, 1.0, size=(n, m))
                epsilon = 10.0 ** rng.uniform(-3.0, 0.0)
            elif trial % 3 == 1:
                p, q = rng.normal(0.0, 0.5, size=(n, 32)), rng.normal(0.0, 0.5, size=(m, 32))
                p[rng.random(n) < 0.4] = 0.0
                q[rng.random(m) < 0.4] = 0.0
                cost = ((p[:, None, :] - q[None, :, :]) ** 2).sum(axis=2)
                epsilon = 0.01
            else:
                cost = rng.uniform(0.0, 1.0, size=(n, m)) ** 2 * 10.0 ** rng.uniform(0.0, 3.0)
                epsilon = 10.0 ** rng.uniform(-3.0, -1.0)
            marginals = []
            for size in (n, m):
                w = rng.uniform(0.05, 1.0, size=size)
                tiny = rng.random(size) < 0.25
                w[tiny] = 10.0 ** -rng.uniform(5.0, 300.0, size=int(tiny.sum()))
                w[rng.random(size) < 0.25] = 0.0
                if not np.any(w > 1e-3):
                    w[rng.integers(size)] = 1.0
                marginals.append(w / w.sum())
            mu, nu = marginals
            tol = 1e-6 if trial % 2 else 1e-9
            plan = sinkhorn(cost, mu, nu, epsilon=epsilon, max_iter=5000, tol=tol)
            assert plan.converged, trial
            assert plan.iterations <= 200, trial
            _assert_honest(plan, mu, nu, tol)


def reference_lse(x: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp of x along axis, shifted by the max so exp stays finite."""
    shift = x.max(axis=axis)
    return np.log(np.exp(x - np.expand_dims(shift, axis)).sum(axis=axis)) + shift


def reference_sweep(b: np.ndarray, zt: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """One Sinkhorn iteration in the log domain: the row update, then the
    column update; returns the new column log-potentials."""
    a = np.log(mu) - reference_lse(b[:, None] - zt, axis=0)
    return np.log(nu) - reference_lse(a - zt, axis=1)


def reference_newton_step(pi: np.ndarray, plan: np.ndarray, grad: np.ndarray, mu: np.ndarray,
                          nu: np.ndarray):
    """Damped Newton ascent step on the column log-potentials b, or None;
    pi and plan are transposed, grad = nu - P^T 1.

    `_sweep` and `_newton_step` as they were before they were written out
    in place and called LAPACK without `np.linalg.solve`'s wrapper, kept
    verbatim as the oracle every iterate must match bit for bit.
    """
    m = grad.size
    system = plan @ pi.T
    diagonal = system.reshape(-1)[:: m + 1]
    diagonal[:] = 0.0
    degree = system.sum(axis=1)
    np.negative(system, out=system)
    diagonal[:] = degree + transport.RIDGE
    step = np.zeros_like(grad)
    step[:-1] = np.linalg.solve(system[:-1, :-1], grad[:-1])
    slope = float(grad @ step)
    step_nu = float(step @ nu)
    t = transport.MAX_STEP / max(float(np.abs(step).max()), transport.MAX_STEP)
    for _ in range(transport.MAX_HALVINGS):
        # phi(b + t step) - phi(b), kept precise as the step shrinks:
        # log sum_j pi_ij exp(t step_j) = log1p(pi @ expm1(t step)).
        gain = t * step_nu - float(mu @ np.log1p(np.expm1(t * step) @ pi))
        if gain >= transport.ARMIJO * t * slope:
            return t * step
        t *= 0.5
    return None


def _assert_bit_identical_to_the_reference(monkeypatch, solve):
    """`solve()` gives the same plan, iterations, error and potentials, bit
    for bit, as with the reference sweep and Newton step patched in."""
    plan = solve()
    with monkeypatch.context() as patch:
        patch.setattr(transport, "_sweep", reference_sweep)
        patch.setattr(transport, "_newton_step", reference_newton_step)
        reference = solve()
    # The opening sweep alone would leave the Newton step untested.
    assert reference.iterations > 2
    np.testing.assert_array_equal(plan.matrix, reference.matrix)
    np.testing.assert_array_equal(plan.potentials, reference.potentials)
    assert (plan.iterations, plan.converged, plan.marginal_error) == (
        reference.iterations, reference.converged, reference.marginal_error)


class TestBitIdenticalToTheReference:
    """The in-place sweep and the Newton step's direct LAPACK call change no
    iterate: warm k-means solves and cold matching solves with zero-mass
    atoms repeat the reference loop bit for bit."""

    @pytest.mark.parametrize("n, j", [(256, 16), (512, 8)])
    def test_warm_kmeans_solves(self, monkeypatch, n, j):
        rng = np.random.default_rng(50 + j)
        points, centroids = _kmeans_problem(rng, n, j)
        first = _kmeans_solve(points, centroids, SINKHORN_TOL, init=np.zeros(j))
        for _ in range(3):
            centroids = centroids + rng.normal(0.0, 0.1, size=centroids.shape)
            _assert_bit_identical_to_the_reference(
                monkeypatch, lambda: _kmeans_solve(points, centroids, SINKHORN_TOL, init=np.zeros(j)))
            _assert_bit_identical_to_the_reference(
                monkeypatch,
                lambda: _kmeans_solve(points, centroids, 1e-9, init=first.potentials))

    @pytest.mark.parametrize("size", [8, 16])
    def test_cold_matching_solves_with_zero_mass_atoms(self, monkeypatch, size):
        rng = np.random.default_rng(60 + size)
        for trial in range(4):
            empty = rng.choice(size, 2 + trial % 2, replace=False)
            z, mu, nu = _matching_problem(rng, size, empty_rows=empty[:1], empty_cols=empty[1:])
            mu, nu = mu.copy(), nu.copy()
            mu[empty[:1]] = 0.0
            nu[empty[1:]] = 0.0
            mu, nu = mu / mu.sum(), nu / nu.sum()
            _assert_bit_identical_to_the_reference(
                monkeypatch, lambda: sinkhorn(z, mu, nu, epsilon=1.0, max_iter=5000, tol=1e-6))

    def test_singular_system_raises_as_np_linalg_solve_does(self, monkeypatch):
        # Column 0 receives no mass, so with no ridge its row and column of
        # the Newton system are exactly zero; the direct LAPACK call must
        # raise the LinAlgError np.linalg.solve raises on that system.
        monkeypatch.setattr(transport, "RIDGE", 0.0)
        rng = np.random.default_rng(70)
        n, m = 20, 5
        pi = rng.uniform(0.1, 1.0, size=(m, n))
        pi[0] = 0.0
        pi /= pi.sum(axis=0)
        mu = np.full(n, 1 / n)
        plan = pi * mu
        nu = np.full(m, 1 / m)
        grad = nu - plan.sum(axis=1)
        with pytest.raises(np.linalg.LinAlgError) as expected:
            reference_newton_step(pi, plan.copy(), grad, mu, nu)
        with pytest.raises(np.linalg.LinAlgError) as raised:
            transport._newton_step(pi, plan.copy(), grad, mu, nu)
        assert str(raised.value) == str(expected.value) == "Singular matrix"


def test_call_sites_bind_the_public_solver():
    """Both Sinkhorn call sites go through `sinkhorn` itself. The benchmark's
    traced run wraps these two module attributes to count the k-means and
    matching solves; a call site that reached a private loop directly would
    drop out of those counts without an error."""
    assert ogmm.clustering.sinkhorn is transport.sinkhorn
    assert ogmm.mixture.sinkhorn is transport.sinkhorn
