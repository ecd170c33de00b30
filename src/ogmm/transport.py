"""Entropy-regularized optimal transport via Sinkhorn iterations.

`sinkhorn` runs one of two loops that compute the same iterates. Where the
kernel exp(-C/eps) fits in float64 with room to spare, it iterates the
scalings of the kernel with two matrix-vector products per step (the
stabilised scaling form: the kernel is shifted so every row and column
holds a 1). Elsewhere, for small epsilon where the kernel underflows or
when a marginal has zero-mass entries, it iterates the dual potentials in
the log domain. Zero-mass marginal entries are legal; their plan
rows/columns are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest dynamic range the scaling loop accepts (see `sinkhorn`). Every
# scaling, kernel entry, product and partial sum of that loop then lies in
# [e^-(2 * bound), e^(2 * bound)] = [e^-700, e^700], inside float64's normal
# range [e^-708.4, e^709.8].
SCALING_RANGE_MAX = 350.0


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
    column. The starting potentials v = 0 of the log loop are the column
    scaling exp(-s) in this gauge; an entry of it that underflows belongs
    to a column whose kernel entries sit below e^-708 of the row's 1, so
    the first row update is unaffected.
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
    row update needs, as in `_log_loop`.
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


def _log_loop(z: np.ndarray, mu: np.ndarray, nu: np.ndarray, max_iter: int, tol: float):
    """Sinkhorn on the scaled dual potentials, for any z = cost/epsilon.

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
    - The log-domain loop iterates the dual potentials on the kernel
      -cost/epsilon, held transposed as a contiguous (m, n) array, with a
      max-shifted log-sum-exp per update. It runs for every other input:
      small absolute epsilon (the component matching, whose range runs
      into the thousands) and any zero-mass marginal entry.
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
        plan, converged, iterations, err = _log_loop(z, mu, nu, max_iter, tol)
    else:
        plan, converged, iterations, err = _scaling_loop(*start, mu, nu, max_iter, tol)
    plan *= mass_mu
    return TransportPlan(plan, converged, iterations, err)
