"""Acceptance suite: one test per release criterion.

Every test feeds the `criterion` recorder, so a full run prints a numbered
PASS/FAIL line per criterion in the terminal summary. Numeric tolerances
and instance counts are part of the contract; loosening them here is not a
fix for a failing build.

The guided-registration checks (8 and 9) run the real pipeline on seeded
partial-overlap pairs. Untrained seeded features make individual pairs
noisy, so those criteria compare means over 20 pairs, never single runs.
"""

import itertools
import time

import numpy as np
import pytest

from ogmm.attention import (
    AttentionWeights,
    clustered_self_attention,
    full_self_attention,
)
from ogmm.bench import BenchConfig, format_csv, run_bench
from ogmm.clustering import soft_assignment, wasserstein_kmeans
from ogmm.features import FeatureConfig, encode
from ogmm.geometry import (
    DegenerateGeometryError,
    PointCloud,
    RigidTransform,
    apply_transform,
    axis_angle_matrix,
    random_transform,
)
from ogmm.io import PairSpec, gt_overlap_labels, make_pair, sample_shape
from ogmm.losses import (
    binary_cross_entropy,
    binary_cross_entropy_derivative,
    welsch,
    welsch_derivative,
)
from ogmm.metrics import mae_rotation, mae_translation
from ogmm.mixture import estimate_gmm, weighted_svd
from ogmm.registration import RegisterConfig, register
from ogmm.transport import sinkhorn

GUIDED_SEEDS = range(20)
GUIDED_N = 512


def _guided_mae(pair, mode: str) -> float:
    """MAE(R) in degrees for one arm of the guidance comparison.

    A run that dies on degenerate geometry is scored as a maximal 180 deg
    error rather than dropped, so harder cells can only look worse, never
    quietly better.
    """
    try:
        if mode == "oracle":
            result = register(
                pair.source,
                pair.target,
                RegisterConfig.desk(),
                overlap_source=pair.gt_overlap_source.astype(np.float64),
                overlap_target=pair.gt_overlap_target.astype(np.float64),
            )
        else:
            result = register(
                pair.source, pair.target, RegisterConfig.desk(overlap_mode="ones")
            )
    except DegenerateGeometryError:
        return 180.0
    return mae_rotation(result.transform, pair.gt_transform)


def _guided_arm_means(keep: float, mode: str) -> list:
    maes = []
    for seed in GUIDED_SEEDS:
        pair = make_pair(
            PairSpec(n_points=GUIDED_N, overlap_keep_fraction=keep, seed=seed)
        )
        maes.append(_guided_mae(pair, mode))
    return maes


@pytest.fixture(scope="module")
def oracle_keep07_maes():
    # Shared between criteria 8 and 9: the keep=0.7 oracle arm is the first
    # cell of the overlap sweep.
    return _guided_arm_means(0.7, "oracle")


def test_criterion_01_exact_recovery(criterion):
    """Noise-free full-overlap pairs recover the transform to float noise."""
    config = RegisterConfig.desk(overlap_mode="ones", starts=1)
    total = 0.0
    worst_r, worst_t = 0.0, 0.0
    for seed in range(50):
        cloud = sample_shape("composite", 512, seed=seed)
        gt = random_transform(seed)
        target = apply_transform(gt, cloud)
        t0 = time.perf_counter()
        result = register(cloud, target, config)
        total += time.perf_counter() - t0
        worst_r = max(worst_r, mae_rotation(result.transform, gt))
        worst_t = max(worst_t, mae_translation(result.transform, gt))
    criterion(
        1,
        "exact recovery",
        worst_r <= 1e-2 and worst_t <= 1e-4 and total < 30.0,
        f"50 pairs in {total:.1f}s, worst MAE(R) {worst_r:.2e} deg, "
        f"worst MAE(t) {worst_t:.2e}",
    )


def test_criterion_02_weighted_svd_oracle(criterion):
    """Constructed correspondences with diagonal plans recover exactly."""
    rng = np.random.default_rng(2)
    worst_frob, worst_det = 0.0, 0.0
    for _ in range(1000):
        count = int(rng.integers(3, 9))
        means_p = rng.normal(size=(count, 3))
        rotation = axis_angle_matrix(rng.normal(size=3), float(rng.uniform(-180.0, 180.0)))
        translation = rng.uniform(-1.0, 1.0, 3)
        means_q = means_p @ rotation.T + translation
        plan = np.diag(rng.uniform(0.1, 1.0, count))
        estimate = weighted_svd(means_p, means_q, plan)
        worst_frob = max(worst_frob, float(np.linalg.norm(estimate.rotation - rotation)))
        worst_det = max(worst_det, abs(float(np.linalg.det(estimate.rotation)) - 1.0))
    criterion(
        2,
        "weighted SVD oracle",
        worst_frob <= 1e-10 and worst_det <= 1e-10,
        f"1000 sets, worst rotation Frobenius {worst_frob:.2e}, "
        f"worst |det-1| {worst_det:.2e}",
    )


def test_criterion_03_gmm_moment_oracle(criterion):
    """Mixture moments match a per-component brute-force accumulation."""
    eps = 1e-4
    rng = np.random.default_rng(3)
    worst = 0.0
    for case in range(200):
        n = int(rng.integers(8, 65))
        n_comp = int(rng.integers(1, 9))
        pts = rng.normal(size=(n, 3))
        feats = rng.normal(size=(n, 6))
        cloud = PointCloud(pts)
        assignment = soft_assignment(feats, n_comp, seed=case)
        # Every tenth case exercises the zero-mass guard.
        overlap = np.zeros(n) if case % 10 == 0 else rng.uniform(0.0, 1.0, n)
        gmm = estimate_gmm(cloud, feats, assignment, overlap)
        scores = assignment.scores
        mass = overlap.sum()
        for j in range(n_comp):
            weight = sum(overlap[i] * scores[i, j] for i in range(n)) / (eps + mass)
            denom = eps + mass * weight
            mean = sum(overlap[i] * scores[i, j] * pts[i] for i in range(n)) / denom
            cov = (
                sum(
                    overlap[i] * scores[i, j] * np.outer(pts[i] - mean, pts[i] - mean)
                    for i in range(n)
                )
                / denom
            )
            worst = max(
                worst,
                abs(gmm.weights[j] - weight),
                float(np.abs(gmm.means[j] - mean).max()),
                float(np.abs(gmm.covariances[j] - cov).max()),
            )
    criterion(3, "GMM moment oracle", worst <= 1e-10, f"200 instances, worst diff {worst:.2e}")


def _lp_vertex_oracle(cost, mu, nu):
    """Exact transport LP by enumerating basic feasible solutions.

    Every vertex of the coupling polytope is supported on at most m + n - 1
    cells, so trying each support of that size and keeping the feasible
    minimum is exhaustive for the sizes used here.
    """
    m, n = cost.shape
    cells = [(i, j) for i in range(m) for j in range(n)]
    rhs = np.concatenate([mu, nu])
    best_value, best_plan = None, None
    for support in itertools.combinations(cells, m + n - 1):
        a = np.zeros((m + n, len(support)))
        for col, (i, j) in enumerate(support):
            a[i, col] = 1.0
            a[m + j, col] = 1.0
        x, _, rank, _ = np.linalg.lstsq(a, rhs, rcond=None)
        if rank < m + n - 1:
            continue
        if np.max(np.abs(a @ x - rhs)) > 1e-9 or np.min(x) < -1e-12:
            continue
        plan = np.zeros((m, n))
        for col, (i, j) in enumerate(support):
            plan[i, j] = max(float(x[col]), 0.0)
        value = float((plan * cost).sum())
        if best_value is None or value < best_value:
            best_value, best_plan = value, plan
    return best_plan


def test_criterion_04_sinkhorn_vs_lp(criterion):
    """Marginal feasibility on converged plans, LP agreement at small eps."""
    worst_marginal = 0.0
    rng = np.random.default_rng(4)
    for _ in range(25):
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        cost = rng.uniform(0.0, 1.0, (m, n))
        mu = rng.uniform(0.2, 1.0, m)
        nu = rng.uniform(0.2, 1.0, n)
        nu *= mu.sum() / nu.sum()
        plan = sinkhorn(cost, mu, nu, epsilon=0.05, max_iter=20000)
        assert plan.converged
        violation = (
            np.abs(plan.matrix.sum(axis=1) - mu).sum()
            + np.abs(plan.matrix.sum(axis=0) - nu).sum()
        ) / mu.sum()
        worst_marginal = max(worst_marginal, float(violation))

    worst_tv = 0.0
    for size in (2, 3):
        for seed in range(4):
            rng = np.random.default_rng(1000 * size + seed)
            cost = rng.uniform(0.0, 1.0, (size, size))
            mu = rng.uniform(0.2, 1.0, size)
            mu /= mu.sum()
            nu = rng.uniform(0.2, 1.0, size)
            nu /= nu.sum()
            plan = sinkhorn(cost, mu, nu, epsilon=1e-3, max_iter=200000, tol=1e-9)
            assert plan.converged
            exact = _lp_vertex_oracle(cost, mu, nu)
            worst_tv = max(worst_tv, 0.5 * float(np.abs(plan.matrix - exact).sum()))
    criterion(
        4,
        "sinkhorn vs LP",
        worst_marginal <= 1e-6 and worst_tv <= 1e-3,
        f"worst marginal L1 {worst_marginal:.2e}, worst TV to LP {worst_tv:.2e}",
    )


def test_criterion_05_clustered_equals_full_at_j_n(criterion):
    """One point per cluster makes the clustered path exactly full attention."""
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(8, 65))
        cloud = PointCloud(rng.normal(size=(n, 3)))
        feats = rng.normal(size=(n, 16))
        labels = wasserstein_kmeans(cloud, n, seed=seed).labels
        weights = AttentionWeights.seeded(16, heads=4, seed=seed)
        clustered = clustered_self_attention(feats, labels, weights)
        full = full_self_attention(feats, weights)
        worst = max(worst, float(np.abs(clustered - full).max()))
    criterion(5, "clustered equivalence at J=N", worst <= 1e-6, f"20 instances, worst diff {worst:.2e}")


def test_criterion_06_attention_scaling(criterion):
    """Doubling N at fixed J stays near-linear for the clustered path.

    The timed unit is the stage as a registration pays for it: seeded
    weight construction plus one attention pass. Width 16 keeps both paths
    cache-resident so the ratio measures algorithmic cost; measurements
    interleave and keep per-batch minima to shrug off scheduler noise.
    """
    feature_config = FeatureConfig(d=16)

    def stage_inputs(n):
        cloud = sample_shape("composite", n, seed=6)
        feats = encode(cloud, feature_config)
        labels = wasserstein_kmeans(cloud, 16, seed=0).labels
        return feats, labels

    def clustered_stage(feats, labels):
        weights = AttentionWeights.seeded(16, heads=4, seed=0)
        return clustered_self_attention(feats, labels, weights)

    def full_stage(feats):
        weights = AttentionWeights.seeded(16, heads=4, seed=0)
        return full_self_attention(feats, weights)

    feats_small, labels_small = stage_inputs(512)
    feats_big, labels_big = stage_inputs(1024)
    units = {
        "c512": (lambda: clustered_stage(feats_small, labels_small), 20),
        "c1024": (lambda: clustered_stage(feats_big, labels_big), 20),
        "f512": (lambda: full_stage(feats_small), 5),
        "f1024": (lambda: full_stage(feats_big), 3),
    }
    for fn, _ in units.values():  # warm up allocators and code paths
        fn()
    best = {key: float("inf") for key in units}
    for _ in range(10):
        for key, (fn, reps) in units.items():
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            best[key] = min(best[key], (time.perf_counter() - t0) / reps)
    clustered_ratio = best["c1024"] / best["c512"]
    full_ratio = best["f1024"] / best["f512"]
    criterion(
        6,
        "attention scaling",
        clustered_ratio <= 1.8 and full_ratio >= 3.0,
        f"N 512->1024 at J=16: clustered x{clustered_ratio:.2f} (<=1.8), "
        f"full x{full_ratio:.2f} (>=3.0)",
    )


def test_criterion_07_encoding_invariance(criterion):
    """The encoding ignores rigid placement of the cloud."""
    worst = 0.0
    config = FeatureConfig(d=16, k_neighbors=8)
    for kind, shape_seed in (("composite", 0), ("torus", 1)):
        cloud = sample_shape(kind, 128, seed=shape_seed)
        reference = encode(cloud, config)
        for k in range(100):
            motion = random_transform(7000 + k, rot_max_deg=179.0, trans_max=3.0)
            moved = encode(apply_transform(motion, cloud), config)
            worst = max(worst, float(np.abs(moved - reference).max()))
    criterion(
        7,
        "encoding invariance",
        worst <= 1e-6,
        f"2 clouds x 100 rigid motions, worst feature diff {worst:.2e}",
    )


def test_criterion_08_overlap_guidance(criterion, oracle_keep07_maes):
    """Oracle overlap scores must beat all-ones weighting on average."""
    ones = _guided_arm_means(0.7, "ones")
    oracle_mean = float(np.mean(oracle_keep07_maes))
    ones_mean = float(np.mean(ones))
    criterion(
        8,
        "overlap guidance",
        oracle_mean < ones_mean,
        f"20 pairs at keep=0.7: mean MAE(R) oracle {oracle_mean:.2f} deg "
        f"vs all-ones {ones_mean:.2f} deg",
    )


def test_criterion_09_overlap_ratio_trend(criterion, oracle_keep07_maes):
    """Mean rotation error must not improve as overlap shrinks."""
    means = [float(np.mean(oracle_keep07_maes))]
    for keep in (0.5, 0.3):
        means.append(float(np.mean(_guided_arm_means(keep, "oracle"))))
    criterion(
        9,
        "overlap ratio trend",
        means[0] <= means[1] <= means[2],
        "keep 0.7/0.5/0.3 mean MAE(R) "
        + " -> ".join(f"{m:.1f}" for m in means)
        + " deg",
    )


def test_criterion_10_loss_correctness(criterion):
    """Spot values plus derivative checks against central differences."""
    value_ok = abs(welsch(0.1, 0.1) - 0.393469) <= 1e-6
    labels = np.array([0.0, 1.0] * 50)
    bce_ok = abs(binary_cross_entropy(np.full(100, 0.5), labels) - np.log(2.0)) <= 1e-9

    h = 1e-6
    rng = np.random.default_rng(10)
    grid = rng.uniform(0.02, 0.3, 100)
    worst_rel = 0.0
    for x in grid:
        numeric = (welsch(x + h, 0.1) - welsch(x - h, 0.1)) / (2.0 * h)
        analytic = welsch_derivative(x, 0.1)
        worst_rel = max(worst_rel, abs(numeric - analytic) / max(abs(numeric), abs(analytic)))

    predictions = rng.uniform(0.1, 0.9, 100)
    bce_labels = rng.integers(0, 2, 100).astype(np.float64)
    analytic = binary_cross_entropy_derivative(predictions, bce_labels)
    for i in range(100):
        step = np.zeros(100)
        step[i] = h
        numeric = (
            binary_cross_entropy(predictions + step, bce_labels)
            - binary_cross_entropy(predictions - step, bce_labels)
        ) / (2.0 * h)
        worst_rel = max(worst_rel, abs(numeric - analytic[i]) / max(abs(numeric), abs(analytic[i])))

    criterion(
        10,
        "loss correctness",
        value_ok and bce_ok and worst_rel <= 1e-6,
        f"psi(0.1)={welsch(0.1, 0.1):.6f}, BCE(0.5)=ln2 {bce_ok}, "
        f"worst derivative rel err {worst_rel:.2e}",
    )


def test_criterion_11_overlap_labels(criterion):
    """Label probes: identical, disjoint, and exactly-at-the-boundary."""
    cloud = sample_shape("composite", 64, seed=11)
    gt = random_transform(11)
    identical = gt_overlap_labels(cloud, apply_transform(gt, cloud), gt)
    far = apply_transform(gt, cloud)
    far = PointCloud(far.points + np.array([50.0, 0.0, 0.0]))
    disjoint = gt_overlap_labels(cloud, far, gt)

    # 0.125 is exactly representable, so the middle distances below are
    # exactly eta and must fall outside the strict inequality.
    eta = 0.125
    probes = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    targets = PointCloud(np.array([[eta, 0.0, 0.0], [1.0, 0.0, 0.0], [5.0, 0.0, 0.0]]))
    identity = RigidTransform(np.eye(3), np.zeros(3))
    boundary = gt_overlap_labels(probes, targets, identity, eta=eta)

    passed = (
        bool(np.all(identical == 1))
        and bool(np.all(disjoint == 0))
        and boundary.tolist() == [0, 1, 0]
    )
    criterion(
        11,
        "overlap labels",
        passed,
        f"identical all-ones {bool(np.all(identical == 1))}, "
        f"disjoint all-zeros {bool(np.all(disjoint == 0))}, "
        f"boundary probe {boundary.tolist()} == [0, 1, 0]",
    )


def test_criterion_12_balanced_partitions(criterion):
    """Cluster sizes stay within one of N/J across random instances."""
    violations = 0
    for seed in range(50):
        rng = np.random.default_rng(1200 + seed)
        n = int(rng.integers(8, 201))
        j = int(rng.integers(2, min(17, n + 1)))
        sizes = wasserstein_kmeans(PointCloud(rng.normal(size=(n, 3))), j, seed=seed).sizes
        if n % j == 0:
            ok = bool(np.all(sizes == n // j))
        else:
            ok = bool(np.all((sizes == n // j) | (sizes == n // j + 1)))
        violations += 0 if ok else 1
    criterion(12, "balanced partitions", violations == 0, f"{violations}/50 instances out of balance")


def _strip_runtime(csv_text: str) -> str:
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    drop = header.index("runtime_ms")
    kept = []
    for line in lines:
        fields = line.split(",")
        kept.append(",".join(fields[:drop] + fields[drop + 1 :]))
    return "\n".join(kept)


def test_criterion_13_bench_determinism(criterion):
    """Re-running the bench reproduces the CSV byte for byte."""
    config = BenchConfig.desk(
        overlap_fractions=(0.7,),
        cluster_counts=(8,),
        trials=2,
        n_points=64,
        methods=("ogmm_unguided", "icp"),
    )
    rows_first, _ = run_bench(config)
    rows_second, _ = run_bench(config)
    first = _strip_runtime(format_csv(rows_first))
    second = _strip_runtime(format_csv(rows_second))
    criterion(
        13,
        "bench determinism",
        first.encode() == second.encode(),
        f"two runs, {len(first.splitlines()) - 1} rows compared without the runtime column",
    )
