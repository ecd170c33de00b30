"""Entropy-regularized optimal transport.

`sinkhorn` solves every problem with one loop: a damped Newton method on the
entropic dual in the column log-potentials (Brauer et al. 2017), the rows
being met exactly by a log-domain row update. A cold solve reaches the
configured epsilon by epsilon scaling from the cost range; a solve given
starting column potentials (`init`) starts at the configured epsilon from
them, with no opening Sinkhorn sweep, as each Lloyd step of the balanced
k-means does (the first two from column quantiles of their cost, later
ones from the last step's potentials). Zero-mass marginal entries are
legal; their plan rows/columns are exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .geometry import as_integer

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
EPSILON_FLOOR = 1e-12  # an all-zero cost has mean 0 but needs a positive epsilon


def relative_epsilon(cost: np.ndarray, scale: float) -> float:
    """Scale x the mean cost, floored at EPSILON_FLOOR: the epsilon of both
    `sinkhorn` call sites, each with its own scale, so that it follows the
    cost's scale, not its units (Cuturi 2013; Feydy et al. 2019)."""
    return max(scale * float(cost.mean()), EPSILON_FLOOR)


@dataclass(frozen=True)
class TransportPlan:
    """A coupling matrix with convergence diagnostics.

    matrix[i, j] is the mass moved from row atom i to column atom j; rows
    sum to the row marginal and columns to the column marginal, up to
    `marginal_error`, the summed L1 violation of both marginals recomputed
    from the returned matrix. potentials are the final column potentials in
    cost units (zero on zero-mass columns), the `init` that warm-starts a
    solve of a nearby problem.
    """

    matrix: np.ndarray
    converged: bool
    iterations: int
    marginal_error: float
    potentials: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError(f"plan must be a matrix, got shape {m.shape}")
        m = m.copy()
        # min >= 0 and max < inf hold exactly when every entry is finite and
        # non-negative (a NaN makes the min NaN); which check failed is
        # worked out only then.
        if m.size and not (m.min() >= 0.0 and m.max() < np.inf):
            if not np.all(np.isfinite(m)):
                raise ValueError("plan contains non-finite entries")
            raise ValueError("plan contains negative mass")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        p = np.array(self.potentials, dtype=np.float64)
        if p.shape != (m.shape[1],):
            raise ValueError(f"potentials must have shape ({m.shape[1]},), got {p.shape}")
        p.flags.writeable = False
        object.__setattr__(self, "potentials", p)


def _validate_marginal(w, size: int, name: str):
    """The marginal as a float array, and its total mass."""
    arr = np.asarray(w, dtype=np.float64)
    if arr.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {arr.shape}")
    total = arr.sum()
    # A NaN, an infinity or a negative entry fails this test; so does a sum
    # of finite entries that overflows, which passes the checks below.
    if size and not (arr.min() >= 0.0 and total < np.inf):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite values")
        if np.any(arr < 0):
            raise ValueError(f"{name} contains negative mass")
    if total <= 0:
        raise ValueError(f"{name} carries no mass")
    return arr, total


# The loop below holds z, the plan and pi transposed, as contiguous (m, n)
# arrays: in the tall k-means case (many points, few clusters) every
# reduction over a row's m entries then runs elementwise across m long rows
# instead of along a short inner axis, about halving a sweep and a plan.


def _sweep(b: np.ndarray, zt: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """One Sinkhorn iteration in the log domain: the row update, then the
    column update; returns the new column log-potentials. Both log-sum-exps
    are shifted by their max so exp stays finite, and run in one buffer."""
    x = b[:, None] - zt
    shift = x.max(axis=0)
    x -= shift
    np.exp(x, out=x)
    a = np.log(x.sum(axis=0))
    a += shift
    np.subtract(np.log(mu), a, out=a)
    np.subtract(a, zt, out=x)
    shift = x.max(axis=1)
    x -= shift[:, None]
    np.exp(x, out=x)
    b = np.log(x.sum(axis=1))
    b += shift
    return np.subtract(np.log(nu), b, out=b)


def _row_plan(b: np.ndarray, zt: np.ndarray, mu: np.ndarray):
    """The plan of the column log-potentials b with the row marginal met by
    an exact row update, as (row-stochastic pi, plan = mu * pi), both
    transposed."""
    pi = b[:, None] - zt
    pi -= pi.max(axis=0)
    np.exp(pi, out=pi)
    pi /= pi.sum(axis=0)
    return pi, pi * mu


def _violation(plan_t: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> float:
    """Summed L1 violation of both marginals by a transposed plan."""
    return float(np.abs(plan_t.sum(axis=0) - mu).sum() + np.abs(plan_t.sum(axis=1) - nu).sum())


def _newton_step(pi: np.ndarray, plan: np.ndarray, grad: np.ndarray, mu: np.ndarray, nu: np.ndarray):
    """Damped Newton ascent step on the column log-potentials b, or None;
    pi and plan are transposed, grad = nu - P^T 1.

    With rows met by the exact row update, the dual is the concave
    phi(b) = <b, nu> - sum_i mu_i log sum_j exp(b_j - z_ij), with gradient
    grad and Hessian -(diag(P^T 1) - P^T diag(1/mu) P): the system
    [diag(P 1) P; P^T diag(P^T 1)] with its row block diag(mu) eliminated.
    That is the Laplacian of the columns weighted by W = P^T diag(1/mu) P,
    built from W's off-diagonal entries so no diagonal entry cancels. The
    last column's potential stays fixed (phi is invariant to a shift).
    """
    m = grad.size
    system = plan @ pi.T
    diagonal = system.reshape(-1)[:: m + 1]
    diagonal[:] = 0.0
    degree = system.sum(axis=1)
    np.negative(system, out=system)
    diagonal[:] = degree + RIDGE
    step = np.zeros_like(grad)
    # The LAPACK gesv loop np.linalg.solve calls, without its Python
    # wrapper. The loop flags a singular system as an invalid value, which
    # np.linalg.solve reports as this LinAlgError.
    try:
        with np.errstate(invalid="raise"):
            step[:-1] = _umath_linalg.solve1(system[:-1, :-1], grad[:-1])
    except FloatingPointError:
        raise np.linalg.LinAlgError("Singular matrix") from None
    slope = float(grad @ step)
    step_nu = float(step @ nu)
    t = MAX_STEP / max(float(np.abs(step).max()), MAX_STEP)
    for _ in range(MAX_HALVINGS):
        # phi(b + t step) - phi(b), kept precise as the step shrinks:
        # log sum_j pi_ij exp(t step_j) = log1p(pi @ expm1(t step)).
        gain = t * step_nu - float(mu @ np.log1p(np.expm1(t * step) @ pi))
        if gain >= ARMIJO * t * slope:
            return t * step
        t *= 0.5
    return None


def _newton_loop(zt: np.ndarray, mu: np.ndarray, nu: np.ndarray, max_iter: int, tol: float,
                 init: Optional[np.ndarray]):
    """Damped Newton ascent on the entropic dual for any z = cost/epsilon
    (Brauer et al. 2017), cold with epsilon scaling (Schmitzer 2019) or
    warm from the column potentials init (in units of epsilon). zt is z
    transposed, a contiguous (m, n) array the loop may overwrite.

    It works on the marginals' support, on the column log-potentials b; an
    exact row update gives the rows, so only the columns can be violated.
    Cold, epsilon starts at the cost range and falls by EPSILON_STEP per
    stage, b carrying over in cost units; warm, the one stage runs at the
    configured epsilon from init. Only a cold stage opens with a Sinkhorn
    sweep, which puts every column potential at its maximizer given the
    rows; a warm stage starts on the row plan of init (from the starts the
    balanced k-means gives, a sweep cost an iteration per solve and saved
    few Newton steps). Each stage then takes Newton steps until the L1
    column violation is at most STAGE_TOL (tol in the last stage).
    `iterations` counts sweeps and steps, and is 0 for a warm start that
    already meets tol; max_iter bounds them.

    Returns (plan, converged, iterations, marginal_error, potentials) for
    unit mass: the plan at the configured epsilon of the last potentials
    (the budget may run out in an earlier stage), transposed like zt; the
    summed L1 violation of both marginals recomputed from it; and b in units
    of epsilon (zero on zero-mass columns). Rows and columns of zero mass
    are exactly zero.
    """
    rows, cols = mu > 0, nu > 0
    support = bool(rows.all() and cols.all())
    if support:
        mu_s, nu_s = mu, nu
    else:
        zt = zt[np.ix_(cols, rows)]
        mu_s, nu_s = mu[rows], nu[cols]
    zt -= zt.min()
    if init is None:
        # Stage epsilon over the configured one; b is in units of the stage's.
        scale = max(float(zt.max()), 1.0)
        b = np.zeros(nu_s.size)
    else:
        scale = 1.0
        b = init if support else init[cols]
    iterations = 0
    while True:
        zs = zt / scale if scale != 1.0 else zt
        stage_tol = tol if scale == 1.0 else max(STAGE_TOL, tol)
        if init is None:
            b = _sweep(b, zs, mu_s, nu_s)
            iterations += 1
        plan = None
        while iterations < max_iter:
            pi, plan = _row_plan(b, zs, mu_s)
            grad = nu_s - plan.sum(axis=1)
            col_err = float(np.abs(grad).sum())
            if col_err <= stage_tol:
                break
            iterations += 1
            step = _newton_step(pi, plan, grad, mu_s, nu_s)
            b = _sweep(b, zs, mu_s, nu_s) if step is None else b + step
            plan = None
        if scale == 1.0 or iterations == max_iter:
            break
        shrunk = max(scale / EPSILON_STEP, 1.0)
        b *= scale / shrunk
        scale = shrunk
    b *= scale
    if plan is None or scale != 1.0:
        _, plan = _row_plan(b, zt, mu_s)
        err = _violation(plan, mu_s, nu_s)
    else:
        # The last stage ended on the plan it just tested: its column
        # violation is summed already, as _violation sums it.
        err = float(np.abs(plan.sum(axis=0) - mu_s).sum() + col_err)
    if support:
        return plan, err <= tol, iterations, err, b
    potentials = np.zeros(cols.size)
    potentials[cols] = b
    full = np.zeros((cols.size, rows.size))
    full[np.ix_(cols, rows)] = plan
    return full, err <= tol, iterations, err, potentials


def sinkhorn(
    cost: np.ndarray,
    row_marginal: np.ndarray,
    col_marginal: np.ndarray,
    epsilon: float = 0.01,
    max_iter: int = 1000,
    tol: float = 1e-6,
    init: Optional[np.ndarray] = None,
) -> TransportPlan:
    """Solve min_P <P, cost> - epsilon * H(P) over couplings of the marginals.

    Both marginals must carry the same total mass (relative difference below
    1e-8); they are rescaled to probability vectors internally, and the
    returned plan is scaled back, so its total mass matches the inputs.
    Convergence means the summed L1 violation of both marginals,
    `marginal_error`, is at most tol. The last iterate's plan is returned
    even when the iteration budget runs out (converged=False). epsilon
    must lie in (0, inf), tol in [0, inf), and max_iter be an integer of at
    least 1; anything else raises ValueError before any work.

    One loop (`_newton_loop`) solves every problem: it ascends the dual in
    the column log-potentials with damped Newton steps, the rows being met
    exactly by a log-domain row update, and stops once the column violation
    is at most tol; `marginal_error` is then recomputed over both marginals
    from the returned plan. `iterations` counts Sinkhorn sweeps and Newton
    steps.

    - Cold (init None), epsilon falls from the cost range to the configured
      one by a factor 4 per stage, each stage starting from the last one's
      potentials. The component matching solves this way: on 276 captured
      solves (8x8 and 16x16; 108 from the desk bench's predicted and
      all-ones arms, 168 from criteria 8 and 9's oracle arm) it converged
      every time, in 27-28 iterations (median) and 46 at most; plain
      Sinkhorn took 1100-1700 (median) and left 43 unconverged at 5000. On
      one core of a 2-vCPU Xeon the median desk solve took 1.3 ms.
    - Warm, init holds starting column potentials in cost units (the
      `potentials` of an earlier plan, or an estimate), and the loop starts
      at the configured epsilon from them, with Newton steps and no
      opening sweep. Cost units carry over between problems whose epsilon
      differs, and a constant shift of the cost is absorbed by the row
      update. The balanced k-means solves this way, its first two Lloyd
      steps from column quantiles of their cost and later ones from the
      last step's potentials: over 13690 such solves (up to 512x16, tol
      1e-4) from traced desk and criterion-1 benchmark runs, every one
      converged, in 2 iterations (median) and 12 at most. On the same core
      the median traced solve took 0.22 ms on desk pairs (256 points) and
      0.34 ms on criterion-1 pairs (512x16).

    The checks cost two reductions per marginal and one min/max pair for
    the plan; the cost is divided straight into the transposed buffer the
    loop works in, and the plan's one copy puts it back in (n, m) order.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError(f"cost must be a matrix, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost contains non-finite values")
    # Scalar checks, each false for NaN: a registration makes about 20 calls.
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be non-negative and finite, got {tol!r}")
    max_iter = as_integer(max_iter, "max_iter")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    n, m = c.shape
    mu, mass_mu = _validate_marginal(row_marginal, n, "row_marginal")
    nu, mass_nu = _validate_marginal(col_marginal, m, "col_marginal")
    if abs(mass_mu - mass_nu) > 1e-8 * max(mass_mu, mass_nu):
        raise ValueError(
            f"marginals must carry equal mass, got {mass_mu!r} vs {mass_nu!r}"
        )
    if init is not None:
        init = np.asarray(init, dtype=np.float64)
        if init.shape != (m,):
            raise ValueError(f"init must have shape ({m},), got {init.shape}")
        if not np.all(np.isfinite(init)):
            raise ValueError("init contains non-finite values")
        init = init / epsilon
    mu = mu / mass_mu
    nu = nu / mass_nu

    # The loop works on the transposed cost; the plan it returns is
    # transposed too, and TransportPlan's copy puts it back in (n, m) order.
    plan_t, converged, iterations, err, potentials = _newton_loop(
        np.divide(c.T, epsilon, order="C"), mu, nu, max_iter, tol, init
    )
    plan_t *= mass_mu
    return TransportPlan(plan_t.T, converged, iterations, err, potentials * epsilon)
