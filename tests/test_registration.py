import os
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ogmm

from ogmm.bench import BenchConfig
from ogmm.clustering import SINKHORN_TOL
from ogmm.geometry import (
    COORDINATE_BOUND,
    NN_TREE_MIN_POINTS,
    DegenerateGeometryError,
    PointCloud,
    RigidTransform,
    apply_transform,
    euler_to_matrix,
    kabsch_rotation,
    matrix_to_euler,
    nearest_neighbors,
    random_transform,
    transform_points,
)
from ogmm.io import PairSpec, make_pair, sample_shape
from ogmm.metrics import geodesic_rotation_deg
from ogmm.mixture import weighted_svd
from ogmm import registration
from ogmm.registration import (
    ICP_TOL,
    RegisterConfig,
    _paired_kabsch,
    icp_baseline,
    register,
)

from test_geometry import assert_same_kabsch, reference_kabsch_rotation

DESK = RegisterConfig.desk()


def _labels(pair):
    """The pair's ground-truth overlap labels as register's overrides."""
    return dict(
        overlap_source=pair.gt_overlap_source.astype(np.float64),
        overlap_target=pair.gt_overlap_target.astype(np.float64),
    )


def rotation_angle_deg(r_a, r_b):
    cos = (np.trace(r_a.T @ r_b) - 1.0) / 2.0
    return np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))


def euler_mae_deg(estimate, reference):
    a = matrix_to_euler(estimate.rotation)
    b = matrix_to_euler(reference.rotation)
    return float(np.mean(np.abs(a - b)))


class TestRegisterConfig:
    def test_profiles(self):
        paper = RegisterConfig()
        assert paper.n_geo_clusters == 72
        assert paper.n_components == 48
        desk = RegisterConfig.desk()
        assert desk.n_geo_clusters == 16
        assert desk.n_components == 8

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RegisterConfig(overlap_mode="oracle")
        with pytest.raises(ValueError, match="k_neighbors must be at least 1"):
            RegisterConfig(k_neighbors=0)
        # Every start runs the transport solve; there is no solver to pick.
        with pytest.raises(TypeError):
            RegisterConfig(solver="transport")


class TestRegister:
    def test_self_registration_is_identity(self):
        cloud = sample_shape("composite", 128, seed=3)
        result = register(cloud, cloud, DESK, overlap_source=np.ones(128), overlap_target=np.ones(128))
        assert euler_mae_deg(result.transform, RigidTransform.identity()) <= 1e-3
        assert np.max(np.abs(result.transform.translation)) <= 1e-5

    def test_construct_and_recover(self):
        for seed in (0, 7):
            source = sample_shape("composite", 256, seed=seed)
            gt = random_transform(seed + 100)
            target = apply_transform(gt, source)
            cfg = RegisterConfig.desk(overlap_mode="ones")
            result = register(source, target, cfg)
            assert euler_mae_deg(result.transform, gt) <= 1e-2
            assert np.mean(np.abs(result.transform.translation - gt.translation)) <= 1e-4

    def test_deterministic_per_seed(self):
        pair = make_pair(PairSpec(n_points=160, seed=11))
        a = register(pair.source, pair.target, DESK)
        b = register(pair.source, pair.target, DESK)
        assert np.array_equal(a.transform.rotation, b.transform.rotation)
        assert np.array_equal(a.transform.translation, b.transform.translation)
        assert np.array_equal(a.overlap_source, b.overlap_source)
        assert np.array_equal(a.plan.matrix, b.plan.matrix)

    def test_equivariance_under_source_motion(self):
        # Features and clustering are motion-invariant, so pre-rotating the
        # source must shift the estimate by exactly that motion.
        pair = make_pair(PairSpec(n_points=192, seed=5))
        t = random_transform(99, rot_max_deg=30.0, trans_max=0.3)
        base = register(pair.source, pair.target, DESK)
        moved = register(apply_transform(t, pair.source), pair.target, DESK)
        recovered = RigidTransform(
            moved.transform.rotation @ t.rotation,
            moved.transform.rotation @ t.translation + moved.transform.translation,
        )
        angle_rad = np.radians(rotation_angle_deg(recovered.rotation, base.transform.rotation))
        assert angle_rad <= 1e-4
        assert np.max(np.abs(recovered.translation - base.transform.translation)) <= 1e-4

    def test_predicted_overlap_scores_in_open_unit_interval(self):
        pair = make_pair(PairSpec(n_points=128, seed=2))
        result = register(pair.source, pair.target, DESK)
        assert result.diagnostics["overlap_origin"] == "predicted"
        for scores in (result.overlap_source, result.overlap_target):
            assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_override_requires_both_clouds(self):
        cloud = sample_shape("sphere", 64, seed=0)
        with pytest.raises(ValueError, match="both clouds or neither"):
            register(cloud, cloud, DESK, overlap_source=np.ones(64))

    def test_override_validated(self):
        cloud = sample_shape("sphere", 64, seed=0)
        with pytest.raises(ValueError, match="shape"):
            register(cloud, cloud, DESK, overlap_source=np.ones(11), overlap_target=np.ones(64))
        with pytest.raises(ValueError, match="lie in"):
            register(
                cloud, cloud, DESK,
                overlap_source=np.full(64, 1.5), overlap_target=np.ones(64),
            )

    def test_rejects_undersized_clouds(self):
        cloud = sample_shape("sphere", 10, seed=0)
        with pytest.raises(ValueError, match="at least"):
            register(cloud, cloud, DESK)

    def test_unguided_mode_uses_unit_scores(self):
        pair = make_pair(PairSpec(n_points=128, seed=4))
        cfg = RegisterConfig.desk(overlap_mode="ones")
        result = register(pair.source, pair.target, cfg)
        assert result.diagnostics["overlap_origin"] == "ones"
        assert np.all(result.overlap_source == 1.0)
        assert result.diagnostics["overlap_mass_source"] == len(pair.source)

    def test_every_start_reports_its_matching_solve(self, monkeypatch):
        import ogmm.mixture

        real = ogmm.mixture.sinkhorn
        solves = []

        def sinkhorn(*args, **kwargs):
            solves.append(real(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(ogmm.mixture, "sinkhorn", sinkhorn)
        pair = make_pair(PairSpec(n_points=128, overlap_keep_fraction=0.7, seed=9))
        diagnostics = register(pair.source, pair.target, DESK, **_labels(pair)).diagnostics
        assert len(solves) == DESK.starts
        assert diagnostics["start_sinkhorn_iterations"] == [p.iterations for p in solves]
        assert diagnostics["start_sinkhorn_converged"] == [p.converged for p in solves]
        chosen = diagnostics["chosen_start"]
        assert diagnostics["sinkhorn_iterations"] == solves[chosen].iterations
        assert diagnostics["sinkhorn_converged"] == solves[chosen].converged

        single = register(
            pair.source, pair.target, RegisterConfig.desk(starts=1), **_labels(pair)
        ).diagnostics
        assert "start_sinkhorn_iterations" not in single
        assert "start_sinkhorn_converged" not in single

    def test_a_failed_start_reports_none_and_is_not_chosen(self, monkeypatch):
        real = registration.weighted_svd
        calls = []

        def weighted_svd(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise DegenerateGeometryError("start 0 fails")
            return real(*args, **kwargs)

        monkeypatch.setattr(registration, "weighted_svd", weighted_svd)
        pair = make_pair(PairSpec(n_points=128, overlap_keep_fraction=0.7, seed=9))
        diagnostics = register(pair.source, pair.target, DESK, **_labels(pair)).diagnostics
        assert len(calls) == diagnostics["starts"] == DESK.starts
        assert diagnostics["start_residuals"][0] == float("inf")
        assert diagnostics["start_sinkhorn_iterations"][0] is None
        assert diagnostics["start_sinkhorn_converged"][0] is None
        assert None not in diagnostics["start_sinkhorn_iterations"][1:]
        assert diagnostics["chosen_start"] != 0

    @pytest.mark.parametrize("empty", ["source", "target"])
    def test_caller_overlap_without_mass_is_degenerate(self, empty):
        # No start can match components without overlap mass, so every
        # start fails and the restart selector never scores one.
        pair = make_pair(PairSpec(n_points=128, overlap_keep_fraction=0.7, seed=9))
        overrides = _labels(pair)
        overrides[f"overlap_{empty}"] = np.zeros_like(overrides[f"overlap_{empty}"])
        with pytest.raises(DegenerateGeometryError, match="no overlap mass"):
            register(pair.source, pair.target, DESK, **overrides)

    @pytest.mark.parametrize("mode", ["predicted", "ones", "override"])
    def test_cross_attention_runs_only_where_the_overlap_head_reads_it(self, monkeypatch, mode):
        real = registration.clustered_cross_attention
        calls = []

        def cross(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(registration, "clustered_cross_attention", cross)
        built = {"AttentionWeights": 0, "OverlapHead": 0}

        def count_builds(kind):
            real_seeded = kind.seeded

            def seeded(*args, **kwargs):
                built[kind.__name__] += 1
                return real_seeded(*args, **kwargs)

            monkeypatch.setattr(kind, "seeded", seeded)

        count_builds(registration.AttentionWeights)
        count_builds(registration.OverlapHead)
        pair = make_pair(PairSpec(n_points=128, overlap_keep_fraction=0.7, seed=9))
        config = RegisterConfig.desk(overlap_mode="ones" if mode == "ones" else "predicted")
        overrides = _labels(pair) if mode == "override" else {}
        diagnostics = register(pair.source, pair.target, config, **overrides).diagnostics
        # Two calls (one per cloud) on the predicted arm, which runs one
        # start; none on the arms that bypass the overlap head, including
        # the override arm's 3 starts.
        assert diagnostics["starts"] == (config.starts if mode == "override" else 1)
        assert len(calls) == (2 if mode == "predicted" else 0)
        assert diagnostics["overlap_origin"] == mode
        assert (diagnostics["stage_ms"]["cross_attention"] > 0.0) == (mode == "predicted")
        # One build per call of each weight set a run reads: the self-attention
        # weights on every arm, whatever the start count, and the cross
        # weights and overlap head on the predicted arm alone.
        predicted = mode == "predicted"
        assert built == {"AttentionWeights": 1 + predicted, "OverlapHead": int(predicted)}

    @pytest.mark.parametrize("config", [DESK, RegisterConfig.desk(starts=1)])
    def test_stage_times_cover_the_run(self, config):
        pair = make_pair(PairSpec(n_points=256, overlap_keep_fraction=0.7, seed=5))
        # With the caller's overlap and without it: only the former restarts.
        for overrides in (_labels(pair), {}):
            diagnostics = register(pair.source, pair.target, config, **overrides).diagnostics
            stage_ms = diagnostics["stage_ms"]
            assert tuple(stage_ms) == registration.STAGES
            assert all(ms >= 0.0 for ms in stage_ms.values())
            assert stage_ms["matching"] > 0.0
            assert diagnostics["starts"] == (config.starts if overrides else 1)
            assert (stage_ms["restart_selection"] > 0.0) == (diagnostics["starts"] > 1)
            total = sum(stage_ms.values())
            assert 0.8 * diagnostics["runtime_ms"] <= total <= diagnostics["runtime_ms"]

    @pytest.mark.parametrize("mode", ["predicted", "ones", "override"])
    def test_restarts_run_only_with_caller_supplied_overlap(self, monkeypatch, mode):
        # The selector's residual identifies the right start only under the
        # caller's weights, so the predicted and all-ones arms run one start
        # whatever config.starts says.
        real = registration.encode
        calls = []

        def encode(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(registration, "encode", encode)
        pair = make_pair(PairSpec(n_points=128, overlap_keep_fraction=0.7, seed=8))
        config = RegisterConfig.desk(overlap_mode="ones" if mode == "ones" else "predicted")
        overrides = _labels(pair) if mode == "override" else {}
        result = register(pair.source, pair.target, config, **overrides)
        diagnostics = result.diagnostics
        if mode == "override":
            assert len(calls) == 2 * config.starts == 6
            assert diagnostics["starts"] == config.starts
            residuals = diagnostics["start_residuals"]
            assert len(residuals) == config.starts
            # This pair's last start wins, so the selection is seen to act.
            assert diagnostics["chosen_start"] == int(np.argmin(residuals)) == 2
            assert registration._alignment_residual(
                result, pair.source, pair.target
            ) == min(residuals)
            assert diagnostics["stage_ms"]["restart_selection"] > 0.0
            return
        assert len(calls) == 2
        assert diagnostics["starts"] == 1
        assert diagnostics["chosen_start"] == 0
        assert diagnostics["stage_ms"]["restart_selection"] == 0.0
        for key in ("start_residuals", "start_sinkhorn_iterations", "start_sinkhorn_converged"):
            assert key not in diagnostics
        single = register(pair.source, pair.target, replace(config, starts=1))
        assert np.array_equal(result.transform.rotation, single.transform.rotation)
        assert np.array_equal(result.transform.translation, single.transform.translation)
        assert np.array_equal(result.overlap_source, single.overlap_source)

    def test_oracle_pair_with_empty_components_converges(self, monkeypatch):
        # Criterion 9's keep-0.3 seed-13 oracle pair: most components hold
        # no overlapping point, so their weights fall to about 1e-230 and
        # their feature centroids all sit near the origin. Every start ends
        # degenerate in the Procrustes solve (two target components carry
        # all the mass), so the solves are read at the call site.
        import ogmm.mixture
        from ogmm.geometry import DegenerateGeometryError

        real = ogmm.mixture.sinkhorn
        solves = []

        def sinkhorn(cost, mu, nu, **kwargs):
            solves.append((min(mu.min(), nu.min()), real(cost, mu, nu, **kwargs)))
            return solves[-1][1]

        monkeypatch.setattr(ogmm.mixture, "sinkhorn", sinkhorn)
        pair = make_pair(PairSpec(n_points=512, overlap_keep_fraction=0.3, seed=13))
        try:
            register(
                pair.source, pair.target, DESK,
                overlap_source=pair.gt_overlap_source.astype(np.float64),
                overlap_target=pair.gt_overlap_target.astype(np.float64),
            )
        except DegenerateGeometryError:
            pass
        assert len(solves) == DESK.starts
        assert min(lightest for lightest, _ in solves) < 1e-200
        assert all(plan.converged for _, plan in solves)
        assert max(plan.marginal_error for _, plan in solves) <= 1e-6

    def test_diagnostics_and_json_shape(self):
        pair = make_pair(PairSpec(n_points=128, seed=9))
        result = register(pair.source, pair.target, DESK)
        payload = result.to_json_dict()
        assert len(payload["rotation"]) == 9
        assert len(payload["translation"]) == 3
        assert len(payload["overlap_source"]) == len(pair.source)
        # Real pairs may hit the iteration cap; the flag and the residual
        # must be reported either way.
        assert isinstance(result.diagnostics["sinkhorn_converged"], bool)
        assert np.isfinite(result.diagnostics["sinkhorn_marginal_error"])
        assert result.diagnostics["runtime_ms"] > 0.0
        argmax = result.diagnostics["component_argmax_source"]
        assert len(argmax) == len(pair.source)
        assert all(0 <= j < DESK.n_components for j in argmax)
        rebuilt = RigidTransform(
            np.array(payload["rotation"]).reshape(3, 3), payload["translation"]
        )
        assert np.allclose(rebuilt.rotation, result.transform.rotation)


def _desk_pairs(count):
    """The first `count` cells of the desk bench, trial 0, with their configs."""
    bench = BenchConfig.desk()
    for cell in bench.cells()[:count]:
        pair = make_pair(bench.pair_spec(cell, 0), bench.shape_kind)
        yield pair.source, pair.target, replace(bench.register, n_components=cell.n_components)


def _identical_pairs(count):
    """Criterion 1's first `count` pairs: a cloud and its own rigid motion."""
    config = RegisterConfig.desk(overlap_mode="ones", starts=1)
    for seed in range(count):
        cloud = sample_shape("composite", 512, seed=seed)
        yield cloud, apply_transform(random_transform(seed), cloud), config


@pytest.mark.parametrize(
    "pairs, count", [(_desk_pairs, 3), (_identical_pairs, 5)], ids=["desk", "identical"]
)
def test_every_kmeans_solve_converges(monkeypatch, pairs, count):
    """Warm-started as the Lloyd loop starts it, every balanced k-means solve
    of every start converges within its budget, and the chosen start's
    diagnostics say so."""
    solves = []
    real = ogmm.clustering.sinkhorn

    def watching(*args, **kwargs):
        solves.append(real(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(ogmm.clustering, "sinkhorn", watching)
    for source, target, config in pairs(count):
        diagnostics = register(source, target, config).diagnostics
        assert diagnostics["kmeans_sinkhorn_unconverged"] == 0
        assert 0.0 <= diagnostics["kmeans_sinkhorn_marginal_error_max"] <= SINKHORN_TOL
    assert solves and all(plan.converged for plan in solves)


# The summed k-means Sinkhorn iterations of each pair's registration when
# every Lloyd step's solve started from the last step's potentials (the
# first from zeros) and every solve opened with a Sinkhorn sweep: measured
# on the pairs below, criterion 1's first five and the desk bench's first
# three cells, before the quantile start.
SWEEP_ZERO_START_ITERATIONS = {"identical": (104, 82, 98, 74, 82), "desk": (98, 102, 123)}


@pytest.mark.parametrize(
    "pairs, kind", [(_desk_pairs, "desk"), (_identical_pairs, "identical")], ids=["desk", "identical"]
)
def test_kmeans_sinkhorn_work_stays_cut(pairs, kind):
    """Starting the first two Lloyd steps at the column-quantile potentials
    and warm solves without an opening sweep cut the k-means Sinkhorn
    iterations of every pair to at most 0.65 of the old count: a work
    guard with no wall clock."""
    before = SWEEP_ZERO_START_ITERATIONS[kind]
    for (source, target, config), old in zip(pairs(len(before)), before):
        iterations = register(source, target, config).diagnostics["kmeans_sinkhorn_iterations"]
        assert iterations <= 0.65 * old


# Pairs of the desk bench (base seeds 0-2) each arm recovers within 30 deg
# when every cloud's features are its points in the target frame, as
# recorded when this test was written: 30 of 54 on the all-ones arm
# (median 26.4 deg) and 40 of 54 with the oracle labels (median 12.2 deg).
# Passing the plan transposed to weighted_svd drops them to 3 and 6.
SIGNAL_RECOVERED_MIN = {"ones": 27, "oracle": 36}


def test_downstream_stages_recover_the_motion_from_features_that_carry_signal(monkeypatch):
    """With features that carry signal (each cloud's points in the target
    frame, tiled to the feature width) in place of the seeded descriptor,
    the real clustering, attention, mixtures, matching, Procrustes solve
    and start selection recover most desk motions, and overlap guidance
    recovers more than none: a broken downstream stage fails here even
    though the descriptor's noise hides it from every end-to-end gate."""
    frames = {}
    tiles = -(-registration.FEATURE_DIM // 3)

    def encode(cloud, config):
        return np.tile(frames[id(cloud)], tiles)[:, :registration.FEATURE_DIM]

    monkeypatch.setattr(registration, "encode", encode)
    errors = {"ones": [], "oracle": []}
    for base_seed in (0, 1, 2):
        bench = BenchConfig.desk(base_seed=base_seed)
        for cell in bench.cells():
            config = replace(bench.register, n_components=cell.n_components)
            for trial in range(bench.trials):
                pair = make_pair(bench.pair_spec(cell, trial), bench.shape_kind)
                frames = {
                    id(pair.source): transform_points(pair.gt_transform, pair.source.points),
                    id(pair.target): pair.target.points,
                }
                arms = {
                    "ones": (replace(config, overlap_mode="ones"), {}),
                    "oracle": (config, _labels(pair)),
                }
                for arm, (arm_config, overrides) in arms.items():
                    try:
                        result = register(pair.source, pair.target, arm_config, **overrides)
                        error = geodesic_rotation_deg(result.transform, pair.gt_transform)
                    except DegenerateGeometryError:
                        error = 180.0
                    errors[arm].append(error)
    recovered = {arm: sum(e <= 30.0 for e in errs) for arm, errs in errors.items()}
    assert all(len(errs) == 54 for errs in errors.values())
    assert recovered["ones"] >= SIGNAL_RECOVERED_MIN["ones"], recovered
    assert recovered["oracle"] >= SIGNAL_RECOVERED_MIN["oracle"], recovered
    assert recovered["oracle"] > recovered["ones"], recovered


def reference_paired_kabsch(a: np.ndarray, b: np.ndarray) -> RigidTransform:
    """`_paired_kabsch` as it was before ICP centred its source once per
    call, kept verbatim for `reference_icp` but for its Kabsch core, the
    reference one, so a change to the live core shows here too."""
    ca = a.mean(axis=0)
    cb = b.mean(axis=0)
    rotation, _ = reference_kabsch_rotation((a - ca).T @ (b - cb))
    return RigidTransform(rotation, cb - rotation @ ca)


def reference_icp(source: PointCloud, target: PointCloud):
    """`icp_baseline` as it was before it indexed its target and centred its
    source once per call, kept verbatim (reading the budget off the module,
    so a test can shorten it) as the oracle for its transform and
    diagnostics: every search indexes the target cloud afresh."""
    transform = RigidTransform.identity()
    idx, dists = nearest_neighbors(source.points, target)
    history = [float(dists.mean())]
    converged = False
    for _ in range(registration.ICP_MAX_ITER):
        candidate = reference_paired_kabsch(source.points, target.points[idx])
        idx, dists = nearest_neighbors(transform_points(candidate, source.points), target)
        objective = float(dists.mean())
        if objective > history[-1] - ICP_TOL:
            if objective <= history[-1]:
                transform, history = candidate, history + [objective]
            converged = True
            break
        transform = candidate
        history.append(objective)
    return transform, {
        "objective_history": history,
        "iterations": len(history) - 1,
        "converged": converged,
    }


def _lattice_icp_pair():
    """The 8x8x8 integer lattice in two seeded orders, the source moved by
    half a spacing along x: most first-search rows tie between two target
    points and go to the dense rescan."""
    grid = np.stack(np.meshgrid(*[np.arange(8.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    source = grid[np.random.default_rng(3).permutation(512)] + np.array([0.5, 0.0, 0.0])
    return PointCloud(source), PointCloud(grid[np.random.default_rng(2).permutation(512)])


def _far_start_pair():
    """Criterion 1's first pair with the source translated by five extents
    of the cloud: the source crosses to the target over the first searches,
    so every row is searched there, and settles by the last, when almost
    every row keeps its remembered match."""
    source, target, _ = next(_identical_pairs(1))
    return PointCloud(source.points + 5.0 * np.ptp(source.points, axis=0)), target


def _icp_oracle_pairs(kind):
    """(source, target) pairs per kind; "tree" and "lattice" targets take
    the k-d tree path, "desk" ones the dense scan."""
    if kind == "tree":
        pairs = [(source, target) for source, target, _ in _identical_pairs(3)]
        partial = make_pair(PairSpec(n_points=512, overlap_keep_fraction=0.7, seed=4))
        return pairs + [(partial.source, partial.target), _far_start_pair()]
    if kind == "desk":
        return [(source, target) for source, target, _ in _desk_pairs(4)]
    if kind == "lattice":
        return [_lattice_icp_pair()]
    pair = make_pair(PairSpec(n_points=256, seed=13))
    return [(pair.source, pair.target)]


class TestIcpBaseline:
    @pytest.mark.parametrize("budget", [None, 1], ids=["full-budget", "one-iteration"])
    @pytest.mark.parametrize("kind", ["tree", "desk", "lattice", "rejected-step"])
    def test_matches_the_reference_bit_for_bit(self, monkeypatch, kind, budget):
        """One index per call and one centring of the source change how ICP
        computes, not what: transform and diagnostics equal the per-search
        loop's exactly, on both search paths, through tied rows, on a run
        that ends on a rejected step, and when the budget runs out."""
        if budget is not None:
            monkeypatch.setattr(registration, "ICP_MAX_ITER", budget)
        for source, target in _icp_oracle_pairs(kind):
            on_tree = len(target) >= NN_TREE_MIN_POINTS
            assert on_tree == (kind in ("tree", "lattice"))
            transform, diagnostics = icp_baseline(source, target, return_diagnostics=True)
            want, want_diagnostics = reference_icp(source, target)
            np.testing.assert_array_equal(transform.rotation, want.rotation)
            np.testing.assert_array_equal(transform.translation, want.translation)
            assert diagnostics == want_diagnostics
            if budget is not None:
                assert diagnostics["iterations"] <= 1

    def test_every_cross_moment_solves_as_the_reference_does(self, monkeypatch):
        """The Kabsch core gives the reference's rotation and singular
        values byte for byte on the cross-moment of every iteration of
        every oracle pair."""
        moments = []

        def recording(h):
            moments.append(h.copy())
            return kabsch_rotation(h)

        monkeypatch.setattr(registration, "kabsch_rotation", recording)
        for kind in ("tree", "desk", "lattice", "rejected-step"):
            for source, target in _icp_oracle_pairs(kind):
                icp_baseline(source, target)
        assert len(moments) > 100
        for h in moments:
            assert_same_kabsch(h)

    def test_runs_on_clouds_at_the_coordinate_bound(self):
        """A pair scaled until its largest |coordinate| is the bound
        registers and aligns as the unscaled pair does, with no floating
        warning: squares of coordinates up to the bound stay finite."""
        pair = make_pair(PairSpec(n_points=256, seed=3))
        scale = COORDINATE_BOUND / max(np.abs(pair.source.points).max(),
                                       np.abs(pair.target.points).max())
        source = PointCloud(pair.source.points * scale)
        target = PointCloud(pair.target.points * scale)
        assert max(np.abs(source.points).max(), np.abs(target.points).max()) == COORDINATE_BOUND
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            scaled = register(source, target, DESK)
            icp, diagnostics = icp_baseline(source, target, return_diagnostics=True)
        unscaled = register(pair.source, pair.target, DESK)
        assert geodesic_rotation_deg(scaled.transform, unscaled.transform) <= 1e-6
        assert diagnostics["converged"]
        assert geodesic_rotation_deg(icp, icp_baseline(pair.source, pair.target)) <= 1e-4
        assert np.all(np.isfinite(icp.translation))

    @pytest.mark.parametrize("n", [NN_TREE_MIN_POINTS - 1, 512])
    def test_builds_one_tree_per_call(self, tree_builds, n):
        """The target never moves, so its k-d tree is built once for all of
        a call's searches, and not at all below NN_TREE_MIN_POINTS."""
        cloud = sample_shape("composite", n, seed=4)
        target = apply_transform(random_transform(4), cloud)
        _, diagnostics = icp_baseline(cloud, target, return_diagnostics=True)
        assert diagnostics["iterations"] >= 2
        assert tree_builds == ([] if n < NN_TREE_MIN_POINTS else [n])

    def test_searches_only_rows_whose_match_can_change(self, monkeypatch, tree_query_rows):
        """On criterion 1's first pair, rows whose remembered match the
        second-nearest bound vouches for skip the tree: one ICP call sends it
        fewer than three quarters of the rows its searches get."""
        searches = []
        real = registration.nearest_neighbors

        def counting(queries, target):
            searches.append(len(queries))
            return real(queries, target)

        monkeypatch.setattr(registration, "nearest_neighbors", counting)
        source, target, _ = next(_identical_pairs(1))
        icp_baseline(source, target)
        assert tree_query_rows[0] == len(source)
        assert sum(tree_query_rows) < 0.75 * sum(searches)

    def test_far_start_searches_every_row_early_and_few_late(self, tree_query_rows):
        """The far-start oracle pair exercises both sides of the shortcut."""
        source, target = _far_start_pair()
        _, diagnostics = icp_baseline(source, target, return_diagnostics=True)
        assert diagnostics["converged"]
        assert tree_query_rows[:2] == [len(source)] * 2
        assert tree_query_rows[-1] < 0.1 * len(source)

    def test_identity_on_identical_clouds(self):
        cloud = sample_shape("composite", 96, seed=1)
        transform, diag = icp_baseline(cloud, cloud, return_diagnostics=True)
        np.testing.assert_allclose(transform.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(transform.translation, 0.0, atol=1e-12)
        assert diag["iterations"] <= 1

    def test_recovers_small_motion(self):
        source = sample_shape("composite", 256, seed=2)
        gt = RigidTransform(euler_to_matrix((5.0, -3.0, 4.0)), (0.03, -0.02, 0.05))
        target = apply_transform(gt, source)
        transform = icp_baseline(source, target)
        assert np.max(np.abs(transform.rotation - gt.rotation)) <= 1e-6
        assert np.max(np.abs(transform.translation - gt.translation)) <= 1e-6

    def test_converged_is_false_only_when_budget_runs_out(self, monkeypatch):
        source = sample_shape("composite", 256, seed=2)
        gt = RigidTransform(euler_to_matrix((5.0, -3.0, 4.0)), (0.03, -0.02, 0.05))
        target = apply_transform(gt, source)
        _, diag = icp_baseline(source, target, return_diagnostics=True)
        assert diag["converged"] and diag["iterations"] >= 2
        monkeypatch.setattr(registration, "ICP_MAX_ITER", 1)
        _, diag = icp_baseline(source, target, return_diagnostics=True)
        assert diag["iterations"] == 1
        assert not diag["converged"]

    def test_objective_history_non_increasing(self):
        pair = make_pair(PairSpec(n_points=256, seed=13))
        _, diag = icp_baseline(pair.source, pair.target, return_diagnostics=True)
        history = diag["objective_history"]
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_paired_solve_matches_identity_coupled_weighted_svd(self):
        # ICP's row-matched solve and the mixture solve share one Kabsch
        # core: an identity coupling reduces the latter to the former.
        rng = np.random.default_rng(17)
        n = 40
        a = rng.normal(size=(n, 3))
        motion = random_transform(5, rot_max_deg=120.0, trans_max=1.0)
        b = transform_points(motion, a) + 0.01 * rng.normal(size=(n, 3))
        paired = _paired_kabsch(a - a.mean(axis=0), a.mean(axis=0), b)
        coupled = weighted_svd(a, b, np.eye(n) / n)
        np.testing.assert_allclose(paired.rotation, coupled.rotation, rtol=0, atol=1e-12)
        np.testing.assert_allclose(paired.translation, coupled.translation, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", ["small_motion", "partial_pair"])
    def test_one_neighbor_search_per_iteration(self, monkeypatch, case):
        # The search that scores a step also supplies the next step's
        # matches, so only the initial search comes on top of one search
        # per rigid solve. A step rejected for raising the objective is
        # solved and searched but not counted in `iterations`.
        counts = {"search": 0, "solve": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            registration, "nearest_neighbors", counting("search", registration.nearest_neighbors)
        )
        monkeypatch.setattr(registration, "_paired_kabsch", counting("solve", _paired_kabsch))
        if case == "small_motion":
            source = sample_shape("composite", 256, seed=2)
            gt = RigidTransform(euler_to_matrix((5.0, -3.0, 4.0)), (0.03, -0.02, 0.05))
            target = apply_transform(gt, source)
        else:
            pair = make_pair(PairSpec(n_points=256, seed=13))
            source, target = pair.source, pair.target
        _, diag = icp_baseline(source, target, return_diagnostics=True)
        assert diag["iterations"] >= 2
        assert counts["search"] == 1 + counts["solve"]
        if case == "small_motion":
            # Converged steps are all accepted.
            assert counts["search"] == 1 + diag["iterations"]
        else:
            # This pair ends on a rejected step.
            assert counts["search"] == 2 + diag["iterations"]


def test_register_leaves_scipy_optimize_unloaded():
    """Importing the package must not load scipy.optimize: that import alone
    costs 0.1-0.2 s and 10 MB, and no program path needs it (the LP oracles
    live in the tests). A desk registration must then load no module at
    all that `import ogmm` did not, so the import set, its time and its
    memory are settled at import."""
    script = (
        "import sys; import ogmm; imported = set(sys.modules); "
        "from ogmm.io import PairSpec, make_pair; "
        "from ogmm.registration import RegisterConfig, register; "
        "pair = make_pair(PairSpec(n_points=128, overlap_keep_fraction=0.7, seed=9)); "
        "register(pair.source, pair.target, RegisterConfig.desk()); "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')), "
        "sorted(set(sys.modules) - imported))"
    )
    src = str(Path(ogmm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] []"


def _load_perfbench(name, monkeypatch):
    """Execute perfbench/<name>.py from its source, so nothing is written
    next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    # dataclasses look their module up in sys.modules while the body runs.
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_boundary_exists(monkeypatch):
    """perfbench/spans.py times the pipeline by patching named module
    attributes; a boundary the code no longer has drops that stage's
    metrics from the benchmark."""
    spans = _load_perfbench("spans", monkeypatch)
    tracer = spans.Tracer()
    assert tracer.absent == []
    assert len(tracer.present) == len(spans.BOUNDARIES)


def test_every_traced_boundary_is_reached(monkeypatch):
    """Each traced boundary is not only present but called: a pipeline that
    reached a stage some other way than through the binding spans.py
    patches would drop that stage's metrics from the benchmark. Pair 0 of
    partial-desk-n256 runs once on its own (predicted) config and once
    with its ground-truth overlap, whose 3 starts reach restart selection."""
    spans = _load_perfbench("spans", monkeypatch)
    workloads = _load_perfbench("workloads", monkeypatch)
    pair = workloads.WORKLOADS["partial-desk-n256"].make(5, 0)
    with spans.Tracer() as tracer:
        register(pair.source, pair.target, pair.config)
        register(
            pair.source, pair.target, pair.config,
            pair.gt_overlap_source.astype(np.float64), pair.gt_overlap_target.astype(np.float64),
        )
    reached = {span.name for span in tracer.spans}
    assert [name for name, _, _ in spans.BOUNDARIES if name not in reached] == []


@pytest.mark.parametrize(
    "name, count",
    [("identical-n512", 6), ("partial-desk-n256", 6), ("large-n4096", 1)],
)
def test_benchmark_workloads_still_build(monkeypatch, name, count):
    """perfbench/workloads.py builds its pairs through the program's own
    constructors; a changed signature would stop the benchmark before it
    times anything."""
    workloads = _load_perfbench("workloads", monkeypatch)
    workload = workloads.WORKLOADS[name]
    for index in range(count):
        pair = workload.make(5, index)
        assert isinstance(pair, workloads.Pair)
        assert isinstance(pair.config, RegisterConfig)
        for arr in (pair.source.points, pair.target.points,
                    pair.gt_transform.rotation, pair.gt_transform.translation):
            assert np.all(np.isfinite(arr))
        assert len(pair.gt_overlap_source) == len(pair.source)
        assert len(pair.gt_overlap_target) == len(pair.target)
