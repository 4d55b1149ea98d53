"""Geometry, augmentation, domain-binning, and evaluation tools for surround-camera 3D perception."""

from .augment import (
    AugmentedView,
    CameraPlan,
    Homography,
    MatchedPairSet,
    PerturbationRange,
    ground_plane_homography,
    augment_camera,
    collect_pairs,
    fit_homography,
    perturb_pose,
    plan_camera,
)
from .boxes import Box3D, bottom_points
from .depth import (
    DATASET_DEPTH_RANGES,
    DepthDecouplingConfig,
    DepthRangeError,
    metric_to_scale_invariant,
    pixel_size,
    resize_intrinsics,
    scale_invariant_to_metric,
)
from .geometry import (
    CameraModel,
    Intrinsics,
    Pose,
    ego_to_camera_rotation,
    euler_to_rotation,
    in_image,
    project_points,
    wrap_angle,
)
from .metrics import (
    DetectionRecord,
    DetectionTable,
    Match,
    MetricConfig,
    MetricReport,
    UndefinedAPError,
    average_precision,
    evaluate,
    ground_distance,
    match_detections,
    nds_star,
    tp_errors,
)
from .ordinal import (
    DATASET_SCHEMES,
    OrdinalDomainScheme,
    assign_label,
    ordinal_loss,
    ordinal_loss_grad,
    reverse_gradient,
)
from .pnm import read_pnm, write_pnm
from .scene import RunConfig, Scene, generate_synthetic_scene, render_pattern_image
from .warp import warp_image

__version__ = "0.1.0"
