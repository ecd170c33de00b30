"""Entropy-regularized optimal transport.

`sinkhorn` runs one of two loops. Where the kernel exp(-C/eps) fits in
float64 with room to spare, the scaling loop runs Sinkhorn on that kernel
alone (shifted so every row and column holds a 1), two matrix-vector
products per iteration; the balanced k-means assignment lands there.
Elsewhere, for small epsilon where the kernel underflows (the component
matching) or when a marginal has zero-mass entries, a damped Newton method
on the entropic dual, warm-started by epsilon scaling, solves the same
problem to convergence in a few dozen steps. Zero-mass marginal entries are
legal; their plan rows/columns are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest dynamic range the scaling loop accepts (see `sinkhorn`). Every
# scaling, kernel entry, product and partial sum of that loop then lies in
# [e^-(2 * bound), e^(2 * bound)] = [e^-700, e^700], inside float64's normal
# range [e^-708.4, e^709.8].
SCALING_RANGE_MAX = 350.0

# The Newton loop (see `_newton_loop`). Epsilon falls by EPSILON_STEP per
# stage; every stage but the last stops at STAGE_TOL. At 1e-2 or 1e-3 a
# stage could end before placing a split of less mass than that, and the
# last stage then crawled across a gap of thousands of epsilons (over 1000
# steps on a few random problems). A step moves no log-potential by more
# than MAX_STEP: along a column whose potential barely moves the plan, the
# Newton solution is huge. RIDGE (in units of the unit mass) keeps the
# Newton system invertible when a column is cut off from the rest; a step
# that fails Armijo's test at ARMIJO after MAX_HALVINGS halvings becomes a
# Sinkhorn sweep.
EPSILON_STEP = 4.0
STAGE_TOL = 1e-4
MAX_STEP = 5.0
RIDGE = 1e-12
ARMIJO = 1e-4
MAX_HALVINGS = 30


@dataclass(frozen=True)
class TransportPlan:
    """A coupling matrix with convergence diagnostics.

    matrix[i, j] is the mass moved from row atom i to column atom j; rows
    sum to the row marginal and columns to the column marginal, up to
    `marginal_error` (the L1 violation at the last iteration).
    """

    matrix: np.ndarray
    converged: bool
    iterations: int
    marginal_error: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError(f"plan must be a matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("plan contains non-finite entries")
        if np.any(m < 0):
            raise ValueError("plan contains negative mass")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def _validate_marginal(w, size: int, name: str) -> np.ndarray:
    arr = np.asarray(w, dtype=np.float64)
    if arr.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    if np.any(arr < 0):
        raise ValueError(f"{name} contains negative mass")
    total = arr.sum()
    if total <= 0:
        raise ValueError(f"{name} carries no mass")
    return arr


def _scaling_start(z: np.ndarray, mu: np.ndarray, nu: np.ndarray):
    """Kernel and first column scaling for `_scaling_loop`, or None where
    that loop could leave float64's normal range.

    z is cost/epsilon, mu and nu are probability vectors. z is shifted by
    its row minima r, then by the column minima s of the result, so the
    kernel exp(-(z - r - s)) lies in [e^-R, 1] with a 1 in every row and
    column. Starting from column potentials zero, as the log-domain
    Sinkhorn loop does, means the column scaling exp(-s) in this gauge; an
    entry of it that underflows belongs to a column whose kernel entries
    sit below e^-708 of the row's 1, so the first row update is unaffected.
    """
    if not (np.all(mu > 0) and np.all(nu > 0)):
        return None
    shifted = z - z.min(axis=1, keepdims=True)
    col_min = shifted.min(axis=0)
    shifted -= col_min
    n, m = z.shape
    dynamic_range = (
        float(shifted.max())
        + float(np.log(mu.max() / mu.min()))
        + float(np.log(nu.max() / nu.min()))
        + float(np.log(n * m))
    )
    if dynamic_range > SCALING_RANGE_MAX:
        return None
    np.negative(shifted, out=shifted)
    np.exp(shifted, out=shifted)
    return shifted, np.exp(-col_min)


def _scaling_loop(kernel, b, mu, nu, max_iter: int, tol: float):
    """Sinkhorn on the scalings: a = mu / (K b), b = nu / (K^T a).

    Returns (plan, converged, iterations, marginal_error) for unit mass. The
    error is the row violation a * (K b) - mu, read from the K b the next
    row update needs: after each column update the column marginal is met
    up to rounding.
    """
    kernel_t = np.ascontiguousarray(kernel.T)
    kb = kernel @ b
    converged = False
    iterations = 0
    err = np.inf
    for iterations in range(1, max_iter + 1):
        a = mu / kb
        b = nu / (kernel_t @ a)
        kb = kernel @ b
        err = float(np.abs(a * kb - mu).sum())
        if err <= tol:
            converged = True
            break
    plan = kernel * a[:, None]
    plan *= b[None, :]
    return plan, converged, iterations, err


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp of x along axis, shifted by the max so exp stays finite."""
    shift = x.max(axis=axis)
    return np.log(np.exp(x - np.expand_dims(shift, axis)).sum(axis=axis)) + shift


def _sweep(b: np.ndarray, zs: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """One Sinkhorn iteration in the log domain: the row update, then the
    column update; returns the new column log-potentials."""
    a = np.log(mu) - _lse(b - zs, axis=1)
    return np.log(nu) - _lse(a[:, None] - zs, axis=0)


def _row_plan(b: np.ndarray, zs: np.ndarray, mu: np.ndarray):
    """The plan of the column log-potentials b with the row marginal met by
    an exact row update, as (row-stochastic pi, plan = mu * pi)."""
    pi = b - zs
    pi -= pi.max(axis=1, keepdims=True)
    np.exp(pi, out=pi)
    pi /= pi.sum(axis=1, keepdims=True)
    return pi, pi * mu[:, None]


def _violation(plan: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> float:
    """Summed L1 violation of both marginals."""
    return float(np.abs(plan.sum(axis=1) - mu).sum() + np.abs(plan.sum(axis=0) - nu).sum())


def _newton_step(pi: np.ndarray, plan: np.ndarray, mu: np.ndarray, nu: np.ndarray):
    """Damped Newton ascent step on the column log-potentials b, or None.

    With rows met by the exact row update, the dual is the concave
    phi(b) = <b, nu> - sum_i mu_i log sum_j exp(b_j - zs_ij), with gradient
    nu - P^T 1 and Hessian -(diag(P^T 1) - P^T diag(1/mu) P): the system
    [diag(P 1) P; P^T diag(P^T 1)] with its row block diag(mu) eliminated.
    That is the Laplacian of the columns weighted by W = P^T diag(1/mu) P,
    built from W's off-diagonal entries so no diagonal entry cancels. The
    last column's potential stays fixed (phi is invariant to a shift).
    """
    grad = nu - plan.sum(axis=0)
    weights = plan.T @ pi
    np.fill_diagonal(weights, 0.0)
    system = -weights[:-1, :-1]
    system[np.diag_indices_from(system)] = weights[:-1].sum(axis=1) + RIDGE
    step = np.zeros_like(grad)
    step[:-1] = np.linalg.solve(system, grad[:-1])
    slope = float(grad @ step)
    t = MAX_STEP / max(float(np.abs(step).max()), MAX_STEP)
    for _ in range(MAX_HALVINGS):
        # phi(b + t step) - phi(b), kept precise as the step shrinks:
        # log sum_j pi_ij exp(t step_j) = log1p(pi @ expm1(t step)).
        gain = t * float(step @ nu) - float(mu @ np.log1p(pi @ np.expm1(t * step)))
        if gain >= ARMIJO * t * slope:
            return t * step
        t *= 0.5
    return None


def _newton_loop(z: np.ndarray, mu: np.ndarray, nu: np.ndarray, max_iter: int, tol: float):
    """Damped Newton ascent on the entropic dual with epsilon scaling, for
    any z = cost/epsilon (Brauer et al. 2017; Schmitzer 2019).

    It works on the marginals' support, on the column log-potentials b; an
    exact row update gives the rows. Epsilon starts at the cost range and
    falls by EPSILON_STEP per stage, b carrying over in cost units. Each
    stage opens with a Sinkhorn sweep, which puts every column potential at
    its maximizer given the rows, then takes Newton steps until the summed
    L1 violation of both marginals is at most STAGE_TOL (tol in the last
    stage). `iterations` counts sweeps and steps; max_iter bounds them.

    Returns (plan, converged, iterations, marginal_error) for unit mass,
    the plan built at the configured epsilon from the last potentials (the
    budget may run out in an earlier stage) and the error recomputed from
    it. Rows and columns of zero mass are exactly zero.
    """
    rows, cols = mu > 0, nu > 0
    z = z[np.ix_(rows, cols)]
    z = z - z.min()
    mu_s, nu_s = mu[rows], nu[cols]
    # Stage epsilon over the configured one; b is in units of the stage's.
    scale = max(float(z.max()), 1.0)
    b = np.zeros(nu_s.size)
    iterations = 0
    while True:
        zs = z / scale
        stage_tol = tol if scale == 1.0 else max(STAGE_TOL, tol)
        b = _sweep(b, zs, mu_s, nu_s)
        iterations += 1
        while iterations < max_iter:
            pi, plan = _row_plan(b, zs, mu_s)
            if _violation(plan, mu_s, nu_s) <= stage_tol:
                break
            iterations += 1
            step = _newton_step(pi, plan, mu_s, nu_s)
            b = _sweep(b, zs, mu_s, nu_s) if step is None else b + step
        if scale == 1.0 or iterations == max_iter:
            break
        shrunk = max(scale / EPSILON_STEP, 1.0)
        b *= scale / shrunk
        scale = shrunk
    _, plan = _row_plan(b * scale, z, mu_s)
    err = _violation(plan, mu_s, nu_s)
    full = np.zeros((rows.size, cols.size))
    full[np.ix_(rows, cols)] = plan
    return full, err <= tol, iterations, err


def sinkhorn(
    cost: np.ndarray,
    row_marginal: np.ndarray,
    col_marginal: np.ndarray,
    epsilon: float = 0.01,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> TransportPlan:
    """Solve min_P <P, cost> - epsilon * H(P) over couplings of the marginals.

    Both marginals must carry the same total mass (relative difference below
    1e-8); they are rescaled to probability vectors internally, and the
    returned plan is scaled back, so its total mass matches the inputs.
    Convergence means the summed L1 violation of both marginals,
    `marginal_error`, is at most tol. The last iterate's plan is returned
    even when the iteration budget runs out (converged=False).

    Two loops solve the problem:

    - The scaling loop (two matrix-vector products per iteration) runs when
      both marginals are strictly positive and the dynamic range
      Lambda = R + log(max mu / min mu) + log(max nu / min nu) + log(n m)
      is at most SCALING_RANGE_MAX = 350, R being the largest entry of
      cost/epsilon after shifting it by its row minima and then by its
      column minima. The kernel then lies in [e^-R, 1] with a 1 in every
      row and column. One iteration, as a map of the column scaling b, is
      homogeneous of degree one and order preserving, so it never moves b
      further (in max |log| ratio) from the ray of fixed points than b
      already is. Bounding the first iterate and the spread of a fixed
      point then puts every scaling, kernel product and partial sum in
      [e^-2 Lambda, e^2 Lambda], inside float64's normal range. The
      balanced k-means assignment step, whose epsilon is a fraction of the
      mean cost, lands here: over 1305 such calls captured from both
      benchmark workloads, Lambda was 231 at most. Its `marginal_error` is
      the row violation alone, read from the quantity the next row update
      needs; the column marginal is met up to rounding after each
      iteration, and the plan is built once, after the last.
    - The Newton loop (`_newton_loop`) runs for every other input: small
      absolute epsilon (the component matching, whose range runs into the
      thousands) and any zero-mass marginal entry. It ascends the dual in
      the column log-potentials, the rows being met exactly by a log-domain
      row update, with damped Newton steps; epsilon falls from the cost
      range to the configured one by a factor 4 per stage, each stage
      starting from the last one's potentials. Its `iterations` counts
      Sinkhorn sweeps and Newton steps, and its `marginal_error` is
      recomputed from the returned plan. On 276 captured matching solves
      (8x8 and 16x16 at epsilon 0.01, from desk pairs and from the oracle
      arm of criteria 8 and 9) it converged every time, in 40-42
      iterations (median) and 55 at most, about 4.4 ms a solve on one core
      of a 2-vCPU Xeon; plain Sinkhorn ended most of them unconverged at
      5000 iterations.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError(f"cost must be a matrix, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost contains non-finite values")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    n, m = c.shape
    mu = _validate_marginal(row_marginal, n, "row_marginal")
    nu = _validate_marginal(col_marginal, m, "col_marginal")
    mass_mu, mass_nu = mu.sum(), nu.sum()
    if abs(mass_mu - mass_nu) > 1e-8 * max(mass_mu, mass_nu):
        raise ValueError(
            f"marginals must carry equal mass, got {mass_mu!r} vs {mass_nu!r}"
        )
    mu = mu / mass_mu
    nu = nu / mass_nu

    z = c / epsilon
    start = _scaling_start(z, mu, nu)
    if start is None:
        plan, converged, iterations, err = _newton_loop(z, mu, nu, max_iter, tol)
    else:
        plan, converged, iterations, err = _scaling_loop(*start, mu, nu, max_iter, tol)
    plan *= mass_mu
    return TransportPlan(plan, converged, iterations, err)
