"""The benchmark's workloads: how each builds its pairs from a seed.

Each workload is a pool of registration pairs drawn from the run seed and a
fixed pipeline configuration. The loop walks the pool in rounds; a round is
the smallest slice whose mix of cells matches the whole workload, so the
run always stops on a balanced mix.

- identical-n512: acceptance criterion 1's protocol, a composite cloud
  against its own rigid motion with overlap guidance off. Balanced k-means
  dominates and matching Sinkhorn converges at once, so it is the control
  for matching-side changes, and every pair must be recovered exactly.
- partial-desk-n256: the desk bench cells (keep 0.7/0.5/0.3 x 8/16
  components) with predicted overlap and 3 restarts, as users run it.
  Matching and k-means Sinkhorn share the time and restart selection runs.
  Each registered pair is followed by six ICP calls on further pool pairs.
- large-n4096: partial pairs at N=4096 with one start, where the dense
  O(N^2) stages (descriptor k-NN, overlap-head softmax, ICP's
  nearest-neighbor blocks) carry real weight and set peak memory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ogmm.bench import BenchConfig
from ogmm.geometry import apply_transform, random_transform
from ogmm.io import PairSpec, make_pair, sample_shape
from ogmm.registration import RegisterConfig


@dataclass(frozen=True)
class Pair:
    """One generated input: the clouds the program sees plus the truth."""

    pair_id: str
    source: object
    target: object
    gt_transform: object
    gt_overlap_source: np.ndarray
    gt_overlap_target: np.ndarray
    config: RegisterConfig


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable  # (run seed, index) -> Pair
    pool: int  # pairs generated per run; the loop wraps around past the end
    round_size: int
    # Recovery tolerance: either exact (criterion 1's MAE bounds) or a
    # geodesic angle in degrees.
    exact: bool
    geodesic_tol_deg: float
    # ICP calls per registered pair, on pool pairs icp_per_step * step + j.
    # At 1 that is the registered pair itself.
    icp_per_step: int = 1


def _pair_seed(run_seed: int, index: int) -> int:
    return int(np.random.SeedSequence(run_seed, spawn_key=(index,)).generate_state(1)[0])


def _identical(run_seed: int, index: int) -> Pair:
    seed = _pair_seed(run_seed, index)
    cloud = sample_shape("composite", 512, seed=seed)
    gt = random_transform(seed)
    ones = np.ones(len(cloud), dtype=np.uint8)
    return Pair(
        f"i{index:03d}", cloud, apply_transform(gt, cloud), gt, ones, ones,
        RegisterConfig.desk(overlap_mode="ones", starts=1),
    )


def _partial_desk(run_seed: int, index: int) -> Pair:
    """Pair `index` of the desk bench profile seeded with the run seed: cell
    `index % cells`, trial `index // cells`, registered with the config the
    desk bench gives that cell."""
    bench = BenchConfig.desk(base_seed=run_seed)
    cells = bench.cells()
    cell = cells[index % len(cells)]
    pair = make_pair(bench.pair_spec(cell, index // len(cells)), bench.shape_kind)
    return Pair(
        f"d{index:03d}", pair.source, pair.target, pair.gt_transform,
        pair.gt_overlap_source, pair.gt_overlap_target,
        replace(bench.register, n_components=cell.n_components),
    )


def _large(run_seed: int, index: int) -> Pair:
    pair = make_pair(PairSpec(n_points=4096, seed=_pair_seed(run_seed, index)))
    return Pair(
        f"l{index:03d}", pair.source, pair.target, pair.gt_transform,
        pair.gt_overlap_source, pair.gt_overlap_target,
        RegisterConfig.desk(starts=1),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("identical-n512", _identical, pool=96, round_size=1, exact=True,
                 geodesic_tol_deg=0.0),
        # ICP on these pairs takes 6 to 29 iterations, about 5 ms a call.
        # With one call per registered pair (~30 a run) the median call's
        # spread over ten seeds was 0.15-0.22, mostly from the inputs; six
        # per pair, on distinct pool pairs, cost about 2% of the run.
        Workload("partial-desk-n256", _partial_desk, pool=216,
                 round_size=len(BenchConfig.desk().cells()), exact=False, geodesic_tol_deg=30.0,
                 icp_per_step=6),
        Workload("large-n4096", _large, pool=8, round_size=1, exact=False, geodesic_tol_deg=30.0),
    )
}


def generate(workload: Workload, run_seed: int) -> list:
    """The run's pair pool; the same run seed always gives the same pool."""
    return [workload.make(run_seed, i) for i in range(workload.pool)]
