"""Entropy-regularized optimal transport via Sinkhorn iterations.

`sinkhorn` runs one of two loops that compute the same iterates, both on the
scalings of a kernel with two matrix-vector products per step. Where the
kernel exp(-C/eps) fits in float64 with room to spare, the scaling loop
iterates on that kernel alone (shifted so every row and column holds a 1).
Elsewhere, for small epsilon where the kernel underflows or when a marginal
has zero-mass entries, the absorbing loop folds the scalings into the dual
potentials whenever they leave a safe range and rebuilds the kernel around
them. Zero-mass marginal entries are legal; their plan rows/columns are
exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest dynamic range the scaling loop accepts (see `sinkhorn`). Every
# scaling, kernel entry, product and partial sum of that loop then lies in
# [e^-(2 * bound), e^(2 * bound)] = [e^-700, e^700], inside float64's normal
# range [e^-708.4, e^709.8].
SCALING_RANGE_MAX = 350.0

# Largest scaling the absorbing loop keeps before folding it into the dual
# potentials (see `_absorbing_loop`); the smallest is its reciprocal. A
# rebuilt kernel holds the entries of a plan whose columns carry mass at
# most 1, so they lie in [0, 1]. With every scaling in [1e-100, 1e100], the
# products K b, K^T a and a (K b), and the plan's entries, stay below
# max(n, m) * 1e200, finite for any array numpy can hold. A kernel entry
# that underflows to 0 would have put at most 2.3e-308 * 1e200 < 1e-107 of
# the unit mass into the plan, far below its rounding.
SCALING_ABSORB_BOUND = 1e100


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
    column. The starting column potentials v = 0 of the absorbing loop are
    the column scaling exp(-s) in this gauge; an entry of it that
    underflows belongs to a column whose kernel entries sit below e^-708 of
    the row's 1, so the first row update is unaffected.
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
    row update needs, as in `_absorbing_loop`.
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


def _absorbing_loop(z: np.ndarray, mu: np.ndarray, nu: np.ndarray, max_iter: int, tol: float):
    """Sinkhorn on the scalings of a kernel that absorbs them, for any
    z = cost/epsilon (Schmitzer 2019, Alg. 2).

    The plan is diag(a) K diag(b) with K = exp(u + v - z): the scaled dual
    potentials u, v hold what the scalings a, b have absorbed so far, and
    the log-domain iterates are u + log a and v + log b. Each iteration is
    a = mu / (K b), then b = nu / (K^T a). When any scaling leaves
    [1 / SCALING_ABSORB_BOUND, SCALING_ABSORB_BOUND], log a is added to u
    (or, where K b held a zero or an infinity, the row update is redone in
    the log domain), the column update is redone in the log domain, and K
    is rebuilt with both scalings reset to 1. Starting, as the scaling loop
    does, from column potentials zero, iteration counts, flags and errors
    agree with a log-domain loop up to rounding.

    Returns (plan, converged, iterations, marginal_error) for unit mass;
    rows and columns of zero mass are exactly zero in the plan.
    """
    rows, cols = mu > 0, nu > 0
    # Iteration 1's row update sees every column, at potential 0; from its
    # column update on, zero-mass rows and columns would carry -inf
    # potentials, so the loop runs on the marginals' support alone.
    u = np.log(mu[rows]) - _lse(-z[rows], axis=1)
    neg_z = -z[np.ix_(rows, cols)]
    mu, nu = mu[rows], nu[cols]
    log_mu, log_nu = np.log(mu), np.log(nu)
    n, m = neg_z.shape
    kernel = np.empty((n, m))
    kernel_t = np.empty((m, n))
    # One buffer holds a, b and the previous b, so one min and one max test
    # every scaling; b and the previous b swap halves each iteration.
    scalings = np.ones(n + 2 * m)
    a, b, b_prev = scalings[:n], scalings[n : n + m], scalings[n + m :]

    def absorb(u: np.ndarray) -> np.ndarray:
        """Column update in the log domain from the row potentials u, K
        rebuilt around the result, every scaling reset to 1; returns v."""
        np.add(neg_z, u[:, None], out=kernel)
        v = log_nu - _lse(kernel, axis=0)
        np.add(kernel, v, out=kernel)
        np.exp(kernel, out=kernel)
        kernel_t[...] = kernel.T
        scalings.fill(1.0)
        return v

    v = absorb(u)
    ka = np.empty(m)
    kb = kernel.sum(axis=1)
    scratch = np.empty(n)
    iterations = 1
    err = float(np.abs(kb - mu).sum())
    low, high = 1.0 / SCALING_ABSORB_BOUND, SCALING_ABSORB_BOUND
    # Out-of-range scalings are caught by the test below, infinite and NaN
    # ones included, so numpy need not warn about them.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while err > tol and iterations < max_iter:
            iterations += 1
            np.divide(mu, kb, out=a)
            np.dot(kernel_t, a, out=ka)
            b, b_prev = b_prev, b
            np.divide(nu, ka, out=b)
            if not (low <= scalings.min() and scalings.max() <= high):
                # b is dropped (it may be infinite where a column of K^T a
                # underflowed) and this column update redone in the log
                # domain.
                if np.all((a > 0.0) & (a < np.inf)):
                    u += np.log(a)
                else:
                    # A row of K b underflowed or overflowed: a row whose
                    # first-iteration mass went to zero-mass columns, or one
                    # whose marginal entry is so small that its row of K
                    # falls below float64's range. Its row update is redone
                    # in the log domain too.
                    v += np.log(b_prev)
                    u = log_mu - _lse(neg_z + v, axis=1)
                v = absorb(u)
            # The column marginal is now met up to rounding; the row
            # violation is read from the K b the next row update needs.
            np.dot(kernel, b, out=kb)
            np.multiply(a, kb, out=scratch)
            scratch -= mu
            np.abs(scratch, out=scratch)
            err = float(scratch.sum())
    plan = np.zeros((rows.size, cols.size))
    plan[np.ix_(rows, cols)] = kernel * a[:, None] * b[None, :]
    return plan, err <= tol, iterations, err


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
    Convergence means the summed L1 violation of both marginals is at most
    tol. The plan of the final iteration is returned even when the iteration
    budget runs out (converged=False).

    `marginal_error` is the row violation alone: after each column update
    the column marginal is met exactly up to rounding, and the row sums of
    that iteration's plan are read from the quantity the next row update
    needs anyway. The plan is built once, after the last iteration.

    Two loops compute the same iterates from the same start (column
    potentials zero), so iteration counts, `converged` and
    `marginal_error` agree between them up to rounding:

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
      benchmark workloads, Lambda was 231 at most.
    - The absorbing loop runs for every other input: small absolute
      epsilon (the component matching, whose range runs into the
      thousands) and any zero-mass marginal entry. It also iterates
      a = mu / (K b), b = nu / (K^T a), but on a kernel built around dual
      potentials: when a scaling leaves [1e-100, 1e100]
      (SCALING_ABSORB_BOUND), it is folded into the potentials, the column
      update is redone in the log domain and the kernel is rebuilt. The
      first iteration runs in the log domain over every column; from then
      on the loop works on the marginals' support. On the desk matching
      solves (8x8 and 16x16 at epsilon 0.01) it absorbed about 5 times per
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
        plan, converged, iterations, err = _absorbing_loop(z, mu, nu, max_iter, tol)
    else:
        plan, converged, iterations, err = _scaling_loop(*start, mu, nu, max_iter, tol)
    plan *= mass_mu
    return TransportPlan(plan, converged, iterations, err)
