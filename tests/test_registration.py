import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ogmm

from ogmm.bench import BenchConfig
from ogmm.clustering import SINKHORN_TOL
from ogmm.geometry import (
    EulerAnglesDeg,
    RigidTransform,
    apply_transform,
    compose,
    random_transform,
    transform_points,
)
from ogmm.io import PairSpec, make_pair, sample_shape
from ogmm.mixture import weighted_svd
from ogmm import registration
from ogmm.registration import (
    RegisterConfig,
    _paired_kabsch,
    icp_baseline,
    register,
)

DESK = RegisterConfig.desk()


def rotation_angle_deg(r_a, r_b):
    cos = (np.trace(r_a.T @ r_b) - 1.0) / 2.0
    return np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))


def euler_mae_deg(estimate, reference):
    a = estimate.euler_angles().as_array()
    b = reference.euler_angles().as_array()
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
        with pytest.raises(ValueError):
            RegisterConfig(solver="icp")


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
        recovered = compose(moved.transform, t)
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

    def test_l2_solver_identity_on_identical_clouds(self):
        cloud = sample_shape("composite", 128, seed=6)
        cfg = RegisterConfig.desk(solver="l2", overlap_mode="ones")
        result = register(cloud, cloud, cfg)
        assert result.plan is None
        assert result.diagnostics["solver"] == "l2"
        assert euler_mae_deg(result.transform, RigidTransform.identity()) <= 1e-6

    def test_every_start_reports_its_matching_solve(self, monkeypatch):
        import ogmm.mixture

        real = ogmm.mixture.sinkhorn
        solves = []

        def sinkhorn(*args, **kwargs):
            solves.append(real(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(ogmm.mixture, "sinkhorn", sinkhorn)
        pair = make_pair(PairSpec(n_points=128, overlap_keep_fraction=0.7, seed=9))
        diagnostics = register(pair.source, pair.target, DESK).diagnostics
        assert len(solves) == DESK.starts
        assert diagnostics["start_sinkhorn_iterations"] == [p.iterations for p in solves]
        assert diagnostics["start_sinkhorn_converged"] == [p.converged for p in solves]
        chosen = diagnostics["chosen_start"]
        assert diagnostics["sinkhorn_iterations"] == solves[chosen].iterations
        assert diagnostics["sinkhorn_converged"] == solves[chosen].converged

        single = register(pair.source, pair.target, RegisterConfig.desk(starts=1)).diagnostics
        assert "start_sinkhorn_iterations" not in single
        assert "start_sinkhorn_converged" not in single

    def test_starts_without_a_matching_solve_report_none(self):
        cloud = sample_shape("composite", 96, seed=4)
        config = RegisterConfig.desk(solver="l2", starts=2)
        diagnostics = register(cloud, cloud, config).diagnostics
        assert diagnostics["start_sinkhorn_iterations"] == [None, None]
        assert diagnostics["start_sinkhorn_converged"] == [None, None]

    @pytest.mark.parametrize("mode", ["predicted", "ones", "override"])
    def test_cross_attention_runs_only_where_the_overlap_head_reads_it(self, monkeypatch, mode):
        real = registration.clustered_cross_attention
        calls = []

        def cross(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(registration, "clustered_cross_attention", cross)
        pair = make_pair(PairSpec(n_points=128, overlap_keep_fraction=0.7, seed=9))
        config = RegisterConfig.desk(overlap_mode="ones" if mode == "ones" else "predicted")
        overrides = {}
        if mode == "override":
            overrides = dict(
                overlap_source=pair.gt_overlap_source.astype(np.float64),
                overlap_target=pair.gt_overlap_target.astype(np.float64),
            )
        diagnostics = register(pair.source, pair.target, config, **overrides).diagnostics
        # Two calls per start (one per cloud) on the predicted arm, none on
        # the arms that bypass the overlap head.
        assert len(calls) == (2 * config.starts if mode == "predicted" else 0)
        assert diagnostics["overlap_origin"] == mode
        assert (diagnostics["stage_ms"]["cross_attention"] > 0.0) == (mode == "predicted")

    @pytest.mark.parametrize("config", [DESK, RegisterConfig.desk(starts=1, solver="l2")])
    def test_stage_times_cover_the_run(self, config):
        pair = make_pair(PairSpec(n_points=256, overlap_keep_fraction=0.7, seed=5))
        diagnostics = register(pair.source, pair.target, config).diagnostics
        stage_ms = diagnostics["stage_ms"]
        assert tuple(stage_ms) == registration.STAGES
        assert all(ms >= 0.0 for ms in stage_ms.values())
        assert (stage_ms["matching"] > 0.0) == (config.solver == "transport")
        assert (stage_ms["restart_selection"] > 0.0) == (config.starts > 1)
        total = sum(stage_ms.values())
        assert 0.8 * diagnostics["runtime_ms"] <= total <= diagnostics["runtime_ms"]

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
    """Warm-started from the last Lloyd step, every balanced k-means solve
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


class TestIcpBaseline:
    def test_identity_on_identical_clouds(self):
        cloud = sample_shape("composite", 96, seed=1)
        transform, diag = icp_baseline(cloud, cloud, return_diagnostics=True)
        np.testing.assert_allclose(transform.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(transform.translation, 0.0, atol=1e-12)
        assert diag["iterations"] <= 1

    def test_recovers_small_motion(self):
        source = sample_shape("composite", 256, seed=2)
        gt = RigidTransform.from_euler(EulerAnglesDeg(5.0, -3.0, 4.0), (0.03, -0.02, 0.05))
        target = apply_transform(gt, source)
        transform = icp_baseline(source, target)
        assert np.max(np.abs(transform.rotation - gt.rotation)) <= 1e-6
        assert np.max(np.abs(transform.translation - gt.translation)) <= 1e-6

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
        paired = _paired_kabsch(a, b)
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
            gt = RigidTransform.from_euler(EulerAnglesDeg(5.0, -3.0, 4.0), (0.03, -0.02, 0.05))
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
