"""Equal-size point clustering and soft feature-space assignments.

The hard clustering solves k-means under a balance constraint: every
cluster holds floor(N/J) or ceil(N/J) points. Each assignment step relaxes
the constraint to an entropic transport problem (points carry mass 1/N,
clusters capacity 1/J) and rounds the plan under those capacities, so the
size guarantee holds exactly regardless of how converged the transport
plan is. A hard clustering is its label vector; `cluster_means` turns labels
into group means for the Lloyd steps and for clustered attention alike.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist

from .geometry import PointCloud, farthest_point_sample
from .transport import sinkhorn

# Each assignment step's transport solve: epsilon is this fraction of the
# mean cost, so the relaxation is scale-free; the plan only feeds the
# rounding, so a loose tolerance suffices. The first two Lloyd steps start
# from column quantiles of their cost, later ones from the last step's
# column potentials, and the budget is a backstop: on traced desk and
# criterion-1 benchmark runs (13690 solves) every solve converged, in 2
# iterations (median) and 12 at most.
SINKHORN_EPSILON_SCALE = 0.05
SINKHORN_MAX_ITER = 200
SINKHORN_TOL = 1e-4
# Lloyd steps: at most KMEANS_MAX_ITER, stopping once a step lowers the
# objective by less than KMEANS_TOL.
KMEANS_MAX_ITER = 50
KMEANS_TOL = 1e-6
# Why a Lloyd loop stopped: a step lowered the objective by less than
# KMEANS_TOL, a step raised it and was discarded, or KMEANS_MAX_ITER steps
# ran.
KMEANS_STOPS = ("tolerance", "regressed", "budget")
# The soft assignment's softmax temperature on squared feature distances.
TEMPERATURE = 0.1


@dataclass(frozen=True)
class ClusterAssignment:
    """Hard balanced clustering of N items into J groups.

    labels give each item's group in [0, J), J being the number of
    centroids, which are the final group means; every group holds
    floor(N/J) or ceil(N/J) items. history is the objective (each item's
    squared distance to its centroid, summed) of each accepted Lloyd step,
    non-increasing, the last being the result's. The sinkhorn_* fields
    describe the assignment steps' transport solves: calls, their summed
    iterations, the calls that ended at the iteration budget unconverged,
    and the largest marginal error of any call. stop_reason is one of
    KMEANS_STOPS; a "regressed" run made one solve more than its n_iter
    accepted steps.
    """

    labels: np.ndarray
    centroids: np.ndarray
    history: tuple
    sinkhorn_calls: int = 0
    sinkhorn_iterations: int = 0
    sinkhorn_unconverged: int = 0
    sinkhorn_marginal_error_max: float = 0.0
    stop_reason: str = "tolerance"

    def __post_init__(self):
        if self.stop_reason not in KMEANS_STOPS:
            raise ValueError(f"stop_reason must be one of {KMEANS_STOPS}, got {self.stop_reason!r}")
        c = np.asarray(self.centroids, dtype=np.float64)
        if c.ndim != 2 or not len(c) or not np.all(np.isfinite(c)):
            raise ValueError("centroids must be a finite (J, dim) matrix with J >= 1")
        j = len(c)
        labels = np.asarray(self.labels)
        if not (labels.ndim == 1 and np.issubdtype(labels.dtype, np.integer)) or np.any(
            (labels < 0) | (labels >= j)
        ):
            raise ValueError(f"labels must be a vector of integers in [0, {j})")
        labels = labels.astype(np.intp)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        sizes = self.sizes
        lo, hi = labels.size // j, -(-labels.size // j)
        if sizes.min() < lo or sizes.max() > hi:
            raise ValueError(f"cluster sizes deviate from N/J: each must be {lo} or {hi}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "centroids", c)
        object.__setattr__(self, "history", tuple(float(h) for h in self.history))

    @property
    def n_iter(self) -> int:
        """Accepted Lloyd steps."""
        return len(self.history)

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=len(self.centroids))


def cluster_means(x: np.ndarray, labels: np.ndarray, n_clusters: int) -> np.ndarray:
    """Mean row of x in each of n_clusters hard clusters, labels[i] being
    row i's cluster.

    The float one-hot BLAS product over the cluster sizes, not a
    per-cluster sum: the Lloyd steps and clustered attention share its
    summation order, so their means agree bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    sizes = np.bincount(labels, minlength=n_clusters)
    if not sizes.all():
        raise ValueError("empty cluster has no mean")
    one_hot = np.zeros((len(labels), n_clusters))
    one_hot[np.arange(len(labels)), labels] = 1.0
    return (one_hot.T @ x) / sizes[:, None]


def _round_balanced(plan: np.ndarray, n: int, j: int) -> np.ndarray:
    """Round a transport plan to balanced hard labels.

    The labels are those of the greedy that visits the (point, cluster)
    entries in decreasing plan mass, flat index breaking ties, and accepts
    an entry whose point is unplaced and whose cluster is below floor(N/J),
    or at floor(N/J) while fewer than r = N mod J clusters have taken an
    extra point. That cap on extras is the greedy's deficit rule: once the
    unplaced points number the clusters' total shortfall below floor(N/J),
    only short clusters may take points. Unplaced points minus shortfall is
    N minus the sum over clusters of max(size, floor(N/J)), which is r minus
    the clusters already at ceil(N/J). Every size ends in
    {floor(N/J), ceil(N/J)}.

    The greedy's order ranks each pair the same way for both sides: a point
    prefers the cluster of its larger entry, a cluster (and the pool of
    extras) the point of its larger entry, the flat index breaking ties
    both ways. Under such a shared ranking there is one stable matching,
    and the greedy builds it: the top entry belongs to every stable
    matching, as its point and its cluster each rank it first; fixing it
    leaves a smaller problem of the same kind, whose top feasible entry
    the greedy takes next. Point-proposing deferred acceptance (Gale and
    Shapley 1962) ends in a stable matching whatever order the proposals
    come in, so it ends in the greedy's, while re-examining only the points
    that do not get their first choice:

    - Round 1, vectorised: every point proposes to its argmax cluster (the
      lowest on ties, the greedy's first visit). A cluster holds its best
      floor(N/J) proposals. When r > 0, the (floor+1)-th proposals of all
      clusters compete for the r extras in one pool, by the same order.
    - Each refused point proposes to its next cluster, in its stable
      descending order. It displaces the cluster's weakest holder, or the
      pool's weakest extra when the cluster is at floor(N/J) with the pool
      full, only if it ranks above it; the displaced point proposes on.

    A cluster's holders are a prefix of its round-1 proposals, kept as a
    pointer to its weak end, plus a sorted list of newcomers. On 512-point
    k-means plans about 4% of the points overflow round 1 and about 50
    proposals follow at J = 16.
    """
    floor = n // j
    extra = n - floor * j
    top = plan.argmax(axis=1)
    counts = np.bincount(top, minlength=j).tolist()
    over = [l for l in range(j) if counts[l] > floor]
    if len(over) == extra and all(counts[l] == floor + 1 for l in over):
        return top  # round 1 places every point
    mass = plan.ravel().take(np.arange(0, n * j, j) + top)
    # Proposals grouped by cluster, each group by (mass desc, point asc):
    # cluster l's are order[starts[l]:ends[l]]. Small unsigned labels let
    # numpy's stable sort use a radix sort.
    order = np.lexsort((-mass, top.astype(np.min_scalar_type(j))))
    ends = list(accumulate(counts))
    starts = [e - c for e, c in zip(ends, counts)]
    held = [min(c, floor) for c in counts]
    pool = set()
    if extra:
        bids = sorted(
            (-mass.item(i), i * j + l)
            for l, i in zip(over, order[[starts[l] + floor for l in over]].tolist())
        )
        for _, flat in bids[:extra]:
            held[flat % j] += 1
            pool.add(flat % j)
    # Cluster l holds order[starts[l]:hi[l]] of its round-1 proposals and
    # new[l], sorted (key, point, preferences, next preference) entries;
    # weak[l] is its weakest holder's key. A key is (-mass, flat index), so
    # the smaller key ranks higher for point, cluster and pool alike.
    hi = [s + h for s, h in zip(starts, held)]
    new = [[] for _ in range(j)]
    tail = order.take([h - 1 for h in hi]).tolist()
    weak = [(-mass.item(i), i * j + l) if held[l] else None for l, i in enumerate(tail)]

    def weakest(l):
        """Key of cluster l's weakest holder, or None if it holds none."""
        key = new[l][-1][0] if new[l] else None
        if hi[l] > starts[l]:
            i = order.item(hi[l] - 1)
            held_key = (-mass.item(i), i * j + l)
            if key is None or held_key > key:
                key = held_key
        return key

    def drop_weakest(l):
        """Remove cluster l's weakest holder; return it as a free point."""
        if new[l] and new[l][-1][0] == weak[l]:
            _, i, prefs, p = new[l].pop()
        else:
            hi[l] -= 1
            i = order.item(hi[l])
            prefs, p = np.argsort(-plan[i], kind="stable").tolist(), 1
        held[l] -= 1
        weak[l] = weakest(l)
        return i, prefs, p

    refused = np.concatenate([order[hi[l]:ends[l]] for l in over])
    prefs = np.argsort(-plan[refused], axis=1, kind="stable").tolist()
    free = [(i, row, 1) for i, row in zip(refused.tolist(), prefs)]
    while free:
        i, prefs, p = free.pop()
        while True:
            l = prefs[p]
            p += 1
            key = (-plan.item(i, l), i * j + l)
            size, w = held[l], weak[l]
            if size < floor or (size == floor and len(pool) < extra):
                loser = None
            elif size == floor and extra:
                # l would take i as an extra, the weaker of i and its
                # weakest holder standing in the pool.
                c = max(pool, key=weak.__getitem__)
                if max(key, w) < weak[c]:
                    loser = c
                elif key < w:
                    loser = l
                else:
                    continue
            elif key < w:
                loser = l
            else:
                continue
            bisect.insort(new[l], (key, i, prefs, p))
            held[l] += 1
            if w is None or key > w:
                weak[l] = key
            if loser is not None:
                free.append(drop_weakest(loser))
                pool.discard(loser)
            if held[l] > floor:
                pool.add(l)
            break
    labels = top.copy()
    for l in range(j):
        for _, i, _, _ in new[l]:
            labels[i] = l
    return labels


def _kmeans_balanced(points: np.ndarray, n_clusters: int, seed: int):
    """Core balanced k-means on an (N, dim) array; dim is arbitrary."""
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    j = n_clusters
    if not (1 <= j <= n):
        raise ValueError(f"n_clusters must lie in [1, {n}], got {j}")
    centroids = x[farthest_point_sample(x, j, seed)]
    row_mass = np.full(n, 1.0 / n)
    col_mass = np.full(j, 1.0 / j)
    # Reused across steps.
    residual = np.empty_like(x)
    best = None
    prev_obj = np.inf
    history = []
    calls = iterations = unconverged = 0
    error_max = 0.0
    stop = "budget"
    for step in range(1, KMEANS_MAX_ITER + 1):
        cost = cdist(x, centroids, "sqeuclidean")
        epsilon = max(SINKHORN_EPSILON_SCALE * float(cost.mean()), 1e-12)
        if step <= 2:
            # Each column's floor(N/J)-th smallest cost, centred, estimates
            # the balanced dual: a cluster priced there draws about its N/J
            # nearest points. The first two steps move the centroids too
            # far for the last plan's potentials; later steps reuse them.
            q = np.partition(cost, n // j - 1, axis=0)[n // j - 1]
            potentials = q - q.mean()
        plan = sinkhorn(
            cost, row_mass, col_mass,
            epsilon=epsilon, max_iter=SINKHORN_MAX_ITER, tol=SINKHORN_TOL,
            init=potentials,
        )
        potentials = plan.potentials
        calls += 1
        iterations += plan.iterations
        unconverged += not plan.converged
        error_max = max(error_max, plan.marginal_error)
        labels = _round_balanced(plan.matrix, n, j)
        centroids_new = cluster_means(x, labels, j)
        np.take(centroids_new, labels, axis=0, out=residual)
        np.subtract(x, residual, out=residual)
        residual *= residual
        obj = float(residual.sum())
        if obj > prev_obj:
            # The balanced rounding is a heuristic; if a step regresses,
            # keep the previous state so the reported history is monotone.
            stop = "regressed"
            break
        best = (labels, centroids_new)
        history.append(obj)
        if prev_obj - obj < KMEANS_TOL:
            stop = "tolerance"
            break
        prev_obj = obj
        centroids = centroids_new
    assert best is not None
    labels, centroids = best
    return ClusterAssignment(
        labels, centroids, tuple(history),
        sinkhorn_calls=calls,
        sinkhorn_iterations=iterations,
        sinkhorn_unconverged=unconverged,
        sinkhorn_marginal_error_max=error_max,
        stop_reason=stop,
    )


def wasserstein_kmeans(cloud: PointCloud, n_clusters: int, seed: int) -> ClusterAssignment:
    """Balanced k-means on point coordinates.

    Initial centroids come from a seeded farthest-point sample, assignments
    from rounded entropic transport, so the same inputs always produce the
    same clustering. Every cluster holds floor(N/J) or ceil(N/J) points.
    """
    return _kmeans_balanced(cloud.points, n_clusters, seed)


@dataclass(frozen=True)
class SoftAssignment:
    """Row-stochastic soft membership of N items over L components.

    kmeans is the balanced clustering that placed the components'
    centroids.
    """

    scores: np.ndarray
    kmeans: Optional[ClusterAssignment] = None

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        if s.ndim != 2:
            raise ValueError(f"scores must be a matrix, got shape {s.shape}")
        if np.any(s < 0) or not np.all(np.isfinite(s)):
            raise ValueError("scores must be finite and non-negative")
        if np.max(np.abs(s.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("score rows must sum to one")
        s = s.copy()
        s.flags.writeable = False
        object.__setattr__(self, "scores", s)


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Softmax of each row, shifted by the row's max so exp stays finite."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def soft_assignment(features: np.ndarray, n_components: int, seed: int) -> SoftAssignment:
    """Soft membership of feature rows over balanced k-means centroids.

    Scores are the row softmax of -||f_i - c_l||^2 / TEMPERATURE; identical
    features yield uniform rows.
    """
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError(f"features must be a matrix, got shape {f.shape}")
    assignment = _kmeans_balanced(f, n_components, seed)
    scores = softmax_rows(-cdist(f, assignment.centroids, "sqeuclidean") / TEMPERATURE)
    return SoftAssignment(scores, kmeans=assignment)
