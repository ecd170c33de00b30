"""Overlap-guided Gaussian-mixture registration for 3D point clouds."""

from .attention import (
    AttentionMlp,
    AttentionWeights,
    OverlapHead,
    clustered_cross_attention,
    clustered_self_attention,
    full_self_attention,
    overlap_scores,
)
from .clustering import ClusterAssignment, SoftAssignment, soft_assignment, wasserstein_kmeans
from .features import FeatureConfig, SeededMlp, encode
from .geometry import (
    DegenerateGeometryError,
    NeighborIndex,
    PointCloud,
    RigidTransform,
    apply_transform,
    euler_to_matrix,
    farthest_point_sample,
    invert,
    matrix_to_euler,
    nearest_neighbors,
    random_transform,
)
from .io import (
    CloudParseError,
    PairSpec,
    RegistrationPair,
    density_subsample,
    gt_overlap_labels,
    halfspace_crop,
    jitter_points,
    make_pair,
    read_cloud,
    sample_shape,
    write_cloud,
)
from .bench import BenchConfig, BenchConfigError, genpairs, report, run_bench
from .losses import binary_cross_entropy, overlap_score_loss, welsch
from .metrics import ccd, geodesic_rotation_deg, mae_rotation, mae_translation, near_gimbal_lock
from .mixture import WeightedGmm, estimate_gmm, match_components, weighted_svd
from .registration import RegisterConfig, RegistrationResult, icp_baseline, register
from .transport import TransportPlan, sinkhorn

__version__ = "0.1.0"
