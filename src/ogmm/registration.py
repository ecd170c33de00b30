"""End-to-end rigid registration: describe each cloud, then match the two.

Each start describes each cloud alone: the seeded local descriptor,
geometric balanced k-means, clustered self-attention with weights both
clouds share, and a soft assignment of the attended features to mixture
components. Only the rest involves both clouds: the overlap scores (the
caller's, all ones, or predicted by cross-attention and the overlap head),
one overlap-weighted mixture per cloud, entropic transport between the
components over feature distances, and a weighted Procrustes solve on the
component means under that plan. Fixed seeds make it deterministic.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .attention import (
    AttentionWeights,
    OverlapHead,
    clustered_cross_attention,
    clustered_self_attention,
    overlap_scores,
)
from .clustering import (
    KMEANS_STOPS, ClusterAssignment, SoftAssignment, soft_assignment, wasserstein_kmeans,
)
from .features import FeatureConfig, encode
from .geometry import (
    DegenerateGeometryError,
    NeighborIndex,
    PointCloud,
    RigidTransform,
    as_integer,
    kabsch_rotation,
    nearest_neighbors,
    transform_points,
)
from .mixture import WeightedGmm, estimate_gmm, match_components, validate_overlap, weighted_svd
from .transport import TransportPlan

# Pipeline constants no caller varies: feature width, attention heads,
# the overlap head's similarity temperature tau, and the seeds (the
# soft-assignment temperature is clustering.TEMPERATURE). The attention
# weights come from ATTENTION_SEED alone and are shared by every start;
# start i encodes with FEATURE_SEED + i and clusters with CLUSTER_SEED + i.
FEATURE_DIM = 32
ATTENTION_HEADS = 4
ATTENTION_SEED = 1
OVERLAP_TAU = 0.1
FEATURE_SEED = 0
CLUSTER_SEED = 2
# The self-attention, cross-attention and overlap-head seeds, derived once.
_SELF_SEED, _CROSS_SEED, _HEAD_SEED = (
    int(s) for s in np.random.SeedSequence(ATTENTION_SEED).generate_state(3)
)
# The ICP baseline's iteration budget and the smallest objective drop that
# lets it continue.
ICP_MAX_ITER = 50
ICP_TOL = 1e-8
OVERLAP_MODES = ("predicted", "ones")
# The pipeline stages `register` times, in pipeline order; its diagnostics
# report each one's milliseconds summed over starts under "stage_ms".
STAGES = (
    "encode", "geometric_kmeans", "self_attention", "cross_attention", "overlap_head",
    "soft_assignment", "moments", "matching", "procrustes", "restart_selection",
)


@dataclass(frozen=True)
class RegisterConfig:
    """The pipeline settings callers vary.

    Defaults follow the full-scale protocol: 72 geometric clusters, 48
    mixture components, 5-neighbor statistics, predicted overlap and one
    start. Every start solves the same way: transport between the mixture
    components, then a weighted Procrustes solve under that plan. starts
    applies only to calls that pass their own overlap weights (see
    register); the predicted and all-ones arms always run one start.
    Everything else (feature width, attention heads, temperatures, seeds)
    is a module constant.
    """

    k_neighbors: int = 5
    n_geo_clusters: int = 72
    n_components: int = 48
    overlap_mode: str = "predicted"
    starts: int = 1

    def __post_init__(self):
        for name in ("k_neighbors", "n_geo_clusters", "n_components", "starts"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        if self.overlap_mode not in OVERLAP_MODES:
            raise ValueError(f"overlap_mode must be one of {OVERLAP_MODES}")
        if self.n_geo_clusters < 1 or self.n_components < 1:
            raise ValueError("cluster counts must be positive")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be at least 1")
        if self.starts < 1:
            raise ValueError("starts must be at least 1")

    @classmethod
    def desk(cls, **overrides) -> "RegisterConfig":
        """Small-scale settings for interactive runs: 16 geometric clusters
        and 8 components, and a 16-neighbor statistics neighborhood, since
        the seeded descriptor has no training to lean on. Its 3 starts run
        only when the caller supplies overlap weights."""
        params = {"n_geo_clusters": 16, "n_components": 8, "k_neighbors": 16, "starts": 3}
        params.update(overrides)
        return cls(**params)


@dataclass(frozen=True)
class RegistrationResult:
    """Estimated motion plus everything needed to audit it."""

    transform: RigidTransform
    overlap_source: np.ndarray
    overlap_target: np.ndarray
    gmm_source: WeightedGmm
    gmm_target: WeightedGmm
    plan: TransportPlan
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "rotation": [float(v) for v in self.transform.rotation.ravel()],
            "translation": [float(v) for v in self.transform.translation],
            "overlap_source": [float(v) for v in self.overlap_source],
            "overlap_target": [float(v) for v in self.overlap_target],
            "diagnostics": self.diagnostics,
        }


@contextmanager
def _timed(stage_ms: dict, stage: str):
    """Add the wall time of the block, in ms, to stage_ms[stage]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        stage_ms[stage] += (time.perf_counter() - start) * 1000.0


def _fixed_overlap(config: RegisterConfig, overlap_source, overlap_target, n_p: int, n_q: int):
    """The overlap scores every start shares and their origin, or None when
    each start predicts its own."""
    if overlap_source is not None or overlap_target is not None:
        if overlap_source is None or overlap_target is None:
            raise ValueError("provide overlap overrides for both clouds or neither")
        o_p = validate_overlap(overlap_source, n_p, "overlap_source")
        o_q = validate_overlap(overlap_target, n_q, "overlap_target")
        return o_p, o_q, "override"
    if config.overlap_mode == "ones":
        return np.ones(n_p), np.ones(n_q), "ones"
    return None


@dataclass(frozen=True)
class _CloudModel:
    """One cloud as one start describes it, from that cloud alone: its
    geometric clusters, its self-attended features and their soft
    assignment to mixture components."""

    clusters: ClusterAssignment
    features: np.ndarray
    soft: SoftAssignment


def _describe(
    clouds: tuple, config: RegisterConfig, start: int, w_self: AttentionWeights, stage_ms: dict
) -> list:
    """Each cloud's model for start `start`, stage by stage across the
    clouds (faster than one cloud at a time; README design note). Both
    seeded stages step with the start: partitions and the descriptor lift
    fail on different pairs, so diversity in one alone wastes restarts."""
    fcfg = FeatureConfig(FEATURE_DIM, config.k_neighbors, FEATURE_SEED + start)
    seed = CLUSTER_SEED + start
    with _timed(stage_ms, "encode"):
        enc = [encode(cloud, fcfg) for cloud in clouds]
    with _timed(stage_ms, "geometric_kmeans"):
        clusters = [wasserstein_kmeans(cloud, config.n_geo_clusters, seed) for cloud in clouds]
    with _timed(stage_ms, "self_attention"):
        features = [clustered_self_attention(x, c.labels, w_self) for x, c in zip(enc, clusters)]
    with _timed(stage_ms, "soft_assignment"):
        soft = [soft_assignment(f, config.n_components, seed) for f in features]
    return [_CloudModel(*parts) for parts in zip(clusters, features, soft)]


def _predicted_overlap(model_p: _CloudModel, model_q: _CloudModel, stage_ms: dict) -> tuple:
    """Both clouds' overlap scores from their features cross-attended to the
    other cloud's clusters. Only the predicted arm reads these, so only it
    builds the cross-attention weights and the overlap head."""
    with _timed(stage_ms, "cross_attention"):
        w_cross = AttentionWeights.seeded(FEATURE_DIM, ATTENTION_HEADS, _CROSS_SEED)
        f_p, f_q = model_p.features, model_q.features
        cross_p = clustered_cross_attention(f_p, f_q, model_q.clusters.labels, w_cross)
        cross_q = clustered_cross_attention(f_q, f_p, model_p.clusters.labels, w_cross)
    with _timed(stage_ms, "overlap_head"):
        head = OverlapHead.seeded(FEATURE_DIM, _HEAD_SEED, OVERLAP_TAU)
        return overlap_scores(cross_p, cross_q, head), overlap_scores(cross_q, cross_p, head)


def _register_once(
    source: PointCloud,
    target: PointCloud,
    config: RegisterConfig,
    index: int,
    w_self: AttentionWeights,
    overlap,
    stage_ms: dict,
) -> RegistrationResult:
    """Start `index`: describe both clouds, then match them under the overlap
    of `_fixed_overlap`, or under the predicted overlap where that is None."""
    model_p, model_q = _describe((source, target), config, index, w_self, stage_ms)
    if overlap is None:
        overlap = (*_predicted_overlap(model_p, model_q, stage_ms), "predicted")
    o_p, o_q, overlap_origin = overlap

    with _timed(stage_ms, "moments"):
        gmm_p = estimate_gmm(source, model_p.features, model_p.soft, o_p)
        gmm_q = estimate_gmm(target, model_q.features, model_q.soft, o_q)
    with _timed(stage_ms, "matching"):
        plan = match_components(gmm_p, gmm_q)
    with _timed(stage_ms, "procrustes"):
        transform = weighted_svd(gmm_p.means, gmm_q.means, plan.matrix)

    diagnostics = {
        "overlap_origin": overlap_origin,
        "kmeans_iterations_source": int(model_p.clusters.n_iter),
        "kmeans_iterations_target": int(model_q.clusters.n_iter),
        "overlap_mass_source": float(o_p.sum()),
        "overlap_mass_target": float(o_q.sum()),
        "component_argmax_source": np.argmax(model_p.soft.scores, axis=1).tolist(),
        "component_argmax_target": np.argmax(model_q.soft.scores, axis=1).tolist(),
    }
    # The four balanced k-means runs: geometric and soft, both clouds.
    kmeans_runs = (model_p.clusters, model_q.clusters, model_p.soft.kmeans, model_q.soft.kmeans)
    diagnostics["kmeans_sinkhorn_calls"] = sum(r.sinkhorn_calls for r in kmeans_runs)
    diagnostics["kmeans_sinkhorn_iterations"] = sum(r.sinkhorn_iterations for r in kmeans_runs)
    diagnostics["kmeans_sinkhorn_unconverged"] = sum(r.sinkhorn_unconverged for r in kmeans_runs)
    diagnostics["kmeans_sinkhorn_marginal_error_max"] = max(
        r.sinkhorn_marginal_error_max for r in kmeans_runs
    )
    diagnostics["kmeans_stop_reasons"] = {
        reason: sum(r.stop_reason == reason for r in kmeans_runs) for reason in KMEANS_STOPS
    }
    diagnostics["sinkhorn_iterations"] = int(plan.iterations)
    diagnostics["sinkhorn_converged"] = bool(plan.converged)
    diagnostics["sinkhorn_marginal_error"] = float(plan.marginal_error)
    return RegistrationResult(transform, o_p, o_q, gmm_p, gmm_q, plan, diagnostics)


def _alignment_residual(result: RegistrationResult, source: PointCloud, target: PointCloud) -> float:
    """Overlap-weighted mean nearest-neighbor distance after applying the
    estimate; the restart selector. Uses only quantities the run produced.
    The weights carry mass: a start whose source overlap sums to zero fails
    in match_components and is never scored."""
    moved = transform_points(result.transform, source.points)
    _, dists = nearest_neighbors(moved, target)
    weights = result.overlap_source
    return float((weights * dists).sum() / weights.sum())


def register(
    source: PointCloud,
    target: PointCloud,
    config: RegisterConfig = RegisterConfig(),
    overlap_source=None,
    overlap_target=None,
) -> RegistrationResult:
    """Estimate the rigid motion aligning source onto target.

    Overlap overrides replace the predicted scores (pass ground-truth labels
    for an oracle run, or an external predictor's scores). With overrides
    (all-ones arrays included), config.starts > 1 re-runs the pipeline with
    stepped feature and clustering seeds (start i uses FEATURE_SEED + i and
    CLUSTER_SEED + i) and keeps the estimate with the lowest
    overlap-weighted nearest-neighbor residual, the first such start on a
    tie. Without them (predicted or all-ones overlap) one start runs
    whatever config.starts says: that residual then does not reliably
    identify the right motion, and further starts cost time without
    lowering the mean error. diagnostics["starts"] is the number of starts
    run. The self-attention weights and fixed overlap scores do not depend
    on the start and are built once per call.
    """
    start = time.perf_counter()
    n_p, n_q = len(source), len(target)
    needed = max(config.n_geo_clusters, config.n_components, config.k_neighbors + 1)
    if min(n_p, n_q) < needed:
        raise ValueError(
            f"clouds must have at least {needed} points for this config, "
            f"got {n_p} and {n_q}"
        )
    stage_ms = dict.fromkeys(STAGES, 0.0)
    overlap = _fixed_overlap(config, overlap_source, overlap_target, n_p, n_q)
    with _timed(stage_ms, "self_attention"):
        w_self = AttentionWeights.seeded(FEATURE_DIM, ATTENTION_HEADS, _SELF_SEED)
    # Only the caller's overlap weights let the residual select a start.
    starts = config.starts if overlap_source is not None else 1
    # Each start's result, or None where the start failed.
    attempts = []
    for i in range(starts):
        try:
            attempts.append(_register_once(source, target, config, i, w_self, overlap, stage_ms))
        except DegenerateGeometryError as exc:
            failure = exc
            attempts.append(None)
    chosen = 0
    if starts > 1:
        with _timed(stage_ms, "restart_selection"):
            residuals = [
                float("inf") if a is None else _alignment_residual(a, source, target)
                for a in attempts
            ]
        chosen = int(np.argmin(residuals))
    result = attempts[chosen]
    if result is None:
        raise failure
    elapsed = (time.perf_counter() - start) * 1000.0
    diagnostics = dict(result.diagnostics, runtime_ms=elapsed, stage_ms=stage_ms)
    diagnostics.update(starts=starts, chosen_start=chosen)
    if starts > 1:
        diagnostics["start_residuals"] = residuals
        for key in ("sinkhorn_iterations", "sinkhorn_converged"):
            diagnostics["start_" + key] = [
                None if a is None else a.diagnostics[key] for a in attempts
            ]
    return replace(result, diagnostics=diagnostics)


def _paired_kabsch(centred: np.ndarray, centroid: np.ndarray, b: np.ndarray) -> RigidTransform:
    """Least-squares rigid motion for row-matched point sets, the first
    given as its centroid and its rows minus that centroid."""
    # b.mean(axis=0) bit for bit: both add the rows in sequence, but
    # accumulate in one pass per column, not one call per 3-wide row.
    cb = np.add.accumulate(b, axis=0)[-1]
    cb /= len(b)
    rotation, _ = kabsch_rotation(centred.T @ (b - cb))
    return RigidTransform(rotation, cb - rotation @ centroid)


def icp_baseline(source: PointCloud, target: PointCloud, return_diagnostics: bool = False):
    """Classic point-to-point ICP from the identity initialization.

    Each iteration re-solves the rigid motion from the original source to
    the target points matched under the current transform, then matches
    the moved source again; that one search both scores the step and
    supplies the next iteration's matches. The recorded objective (mean
    nearest-neighbor distance) is non-increasing: a step that would raise
    it is rejected and iteration stops. At most ICP_MAX_ITER iterations
    run, and a step that lowers the objective by less than ICP_TOL ends
    the loop. The diagnostics' `converged` is False only when the
    ICP_MAX_ITER budget ran out first. Neither cloud moves, so the target
    is indexed and the source centred once per call, and every iteration
    moves the source into the same buffer.
    """
    index = NeighborIndex(target)
    a = source.points
    ca = a.mean(axis=0)
    centred = a - ca
    moved = np.empty_like(a)
    transform = RigidTransform.identity()
    idx, dists = nearest_neighbors(a, index)
    # dists.mean()'s own reduction and division, without its Python wrapper.
    history = [float(np.add.reduce(dists)) / len(dists)]
    converged = False
    for _ in range(ICP_MAX_ITER):
        candidate = _paired_kabsch(centred, ca, target.points.take(idx, axis=0))
        # transform_points(candidate, a), written into the reused buffer.
        np.matmul(a, candidate.rotation.T, out=moved)
        moved += candidate.translation
        idx, dists = nearest_neighbors(moved, index)
        objective = float(np.add.reduce(dists)) / len(dists)
        if objective > history[-1] - ICP_TOL:
            if objective <= history[-1]:
                transform, history = candidate, history + [objective]
            converged = True
            break
        transform = candidate
        history.append(objective)
    if return_diagnostics:
        return transform, {
            "objective_history": history,
            "iterations": len(history) - 1,
            "converged": converged,
        }
    return transform
