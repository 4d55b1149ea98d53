"""Reference inputs shared by the oracle tests.

``REFERENCE_NDS_STAR_ROWS`` holds frozen NDS* aggregates; ``pure_rotation_case``
draws a camera whose perturbation is a pure rotation, so the closed-form
homography is exact on its anchor correspondences.  ``reference_bottom_points``
builds one box's anchors, which ``boxes.bottom_points`` must reproduce bit for
bit, and ``reference_collect_pairs`` is the per-anchor loop that
``collect_pairs`` must reproduce bit for bit.
``aligned_iou`` and ``yaw_difference`` are the per-pair TP error terms that
``metrics.tp_errors`` must reproduce bit for bit, and ``records_to_dict``
writes detection records as a detection file.
"""

from __future__ import annotations

import math

import numpy as np

from bevkit.augment import PerturbationRange, collect_pairs, perturb_pose
from bevkit.boxes import Box3D
from bevkit.geometry import DEGENERATE_DEPTH_TOL, CameraModel, Intrinsics, Pose, ego_to_camera_rotation
from bevkit.metrics import DetectionRecord
from bevkit.scene import SCHEMA_VERSION, box_to_dict

# Reference aggregates (mAP, mATE, mASE, mAOE, expected NDS*), all rounded
# to three decimals; the 0.005 tolerance absorbs the input rounding.
REFERENCE_NDS_STAR_ROWS: tuple[tuple[float, float, float, float, float], ...] = (
    (0.552, 0.528, 0.148, 0.085, 0.649),
    (0.040, 1.303, 0.265, 0.790, 0.178),
    (0.045, 1.301, 0.253, 0.773, 0.185),
    (0.297, 0.822, 0.216, 0.372, 0.415),
    (0.549, 0.532, 0.148, 0.080, 0.648),
    (0.568, 0.519, 0.149, 0.078, 0.660),
    (0.475, 0.577, 0.177, 0.147, 0.587),
    (0.032, 1.305, 0.768, 0.532, 0.133),
    (0.038, 1.308, 0.316, 0.506, 0.215),
    (0.303, 0.689, 0.218, 0.171, 0.472),
    (0.602, 0.471, 0.152, 0.078, 0.684),
    (0.112, 0.997, 0.176, 0.389, 0.296),
    (0.145, 0.999, 0.173, 0.368, 0.316),
    (0.287, 0.771, 0.170, 0.302, 0.437),
    (0.611, 0.465, 0.149, 0.075, 0.691),
    (0.590, 0.488, 0.153, 0.079, 0.675),
    (0.401, 0.651, 0.179, 0.484, 0.482),
    (0.102, 1.143, 0.239, 0.789, 0.213),
    (0.098, 1.198, 0.209, 1.064, 0.181),
    (0.268, 0.764, 0.205, 0.591, 0.374),
    (0.487, 0.582, 0.147, 0.078, 0.609),
    (0.028, 1.354, 0.273, 0.738, 0.179),
    (0.034, 1.346, 0.273, 0.721, 0.185),
    (0.338, 0.789, 0.202, 0.267, 0.459),
)


def pure_rotation_case(
    rng: np.random.Generator,
    limits: PerturbationRange | None = None,
) -> tuple[CameraModel, Pose, list[Box3D]]:
    """Random camera at the ego origin with boxes guaranteed in view.

    Zero translation makes the perturbation a pure rotation about the
    optical center, so the anchor correspondences are exact under the
    closed-form homography.  Retries until the perturbed view keeps at
    least 4 anchor pairs.
    """
    limits = limits or PerturbationRange(d_yaw=0.02, d_pitch=0.01, d_roll=0.02)
    width, height = 704, 256
    for _ in range(50):
        focal_x = float(rng.uniform(500.0, 1400.0))
        focal_y = float(rng.uniform(500.0, 1400.0))
        intr = Intrinsics(
            fx=focal_x,
            fy=focal_y,
            px=width / 2.0 + float(rng.uniform(-5.0, 5.0)),
            py=height / 2.0 + float(rng.uniform(-5.0, 5.0)),
            width=width,
            height=height,
        )
        pose = Pose(
            yaw=float(rng.uniform(-math.pi, math.pi)),
            pitch=float(rng.uniform(-0.3, 0.3)),
            roll=float(rng.uniform(-0.2, 0.2)),
            translation=(0.0, 0.0, 0.0),
        )
        cam = CameraModel(intr, pose, "oracle")
        rotation_to_ego = ego_to_camera_rotation(pose).T
        boxes = []
        for _ in range(4):
            u = float(rng.uniform(0.25 * width, 0.75 * width))
            v = float(rng.uniform(0.3 * height, 0.75 * height))
            depth = float(rng.uniform(15.0, 45.0))
            cam_point = np.array(
                [(u - intr.px) * depth / intr.fx, (v - intr.py) * depth / intr.fy, depth]
            )
            ego_point = rotation_to_ego @ cam_point
            dims = (
                float(rng.uniform(0.8, 1.6)),
                float(rng.uniform(0.8, 1.6)),
                float(rng.uniform(0.8, 1.5)),
            )
            boxes.append(
                Box3D(
                    center=(ego_point[0], ego_point[1], ego_point[2] + dims[2] / 2.0),
                    dims=dims,
                    yaw=float(rng.uniform(-math.pi, math.pi)),
                )
            )
        perturbed = perturb_pose(pose, limits, rng)
        if len(collect_pairs(cam, perturbed, boxes)) >= 4:
            return cam, perturbed, boxes
    raise RuntimeError("failed to draw a pure-rotation case with enough visible anchors")


def reference_bottom_points(box: Box3D) -> np.ndarray:
    """One box's 5 bottom anchors, shape (5, 3): the bottom center, then the
    corners (+x, +y), (+x, -y), (-x, -y), (-x, +y) rotated by one ``local @ rot.T``.
    """
    hx, hy = box.dims[0] / 2.0, box.dims[1] / 2.0
    local = np.array([[hx, hy], [hx, -hy], [-hx, -hy], [-hx, hy]])
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    rot = np.array([[c, -s], [s, c]])
    bottom_z = box.center[2] - box.dims[2] / 2.0
    points = np.empty((5, 3))
    points[0] = (box.center[0], box.center[1], bottom_z)
    points[1:, :2] = local @ rot.T + np.array(box.center[:2])
    points[1:, 2] = bottom_z
    return points


def reference_project_point(cam: CameraModel, point) -> tuple[np.ndarray, float] | None:
    """One point through ``R @ q + t`` and the intrinsics; None on the camera plane."""
    cam_point = ego_to_camera_rotation(cam.pose) @ np.asarray(point, dtype=float) + cam.pose.translation_vector()
    depth = float(cam_point[2])
    if abs(depth) <= DEGENERATE_DEPTH_TOL:
        return None
    intr = cam.intrinsics
    pixel = np.array([intr.fx * cam_point[0] / depth + intr.px, intr.fy * cam_point[1] / depth + intr.py])
    return pixel, depth


def reference_collect_pairs(cam: CameraModel, perturbed: Pose, boxes) -> tuple[np.ndarray, np.ndarray]:
    """(source, target) pixels of the co-visible anchor pairs, one anchor at a time.

    An anchor is skipped when either projection lies on the camera plane,
    either depth is not positive, or either pixel is outside the half-open
    image box.
    """
    intr = cam.intrinsics
    perturbed_cam = CameraModel(intr, perturbed, cam.camera_id)
    source, target = [], []
    for box in boxes:
        for anchor in reference_bottom_points(box):
            original = reference_project_point(cam, anchor)
            moved = reference_project_point(perturbed_cam, anchor)
            if original is None or moved is None:
                continue
            (pixel, depth), (pixel_hat, depth_hat) = original, moved
            if depth <= 0.0 or depth_hat <= 0.0:
                continue
            if not all(0.0 <= u < intr.width and 0.0 <= v < intr.height for u, v in (pixel, pixel_hat)):
                continue
            source.append(pixel)
            target.append(pixel_hat)
    return np.array(source).reshape(-1, 2), np.array(target).reshape(-1, 2)


def aligned_iou(a: Box3D, b: Box3D) -> float:
    """Volumetric IoU after aligning centers and yaw, so only size matters.

    The overlap box has the per-axis minimum extents; degenerate pairs
    with zero union count as perfectly overlapping.
    """
    overlap = math.prod(min(da, db) for da, db in zip(a.dims, b.dims))
    union = math.prod(a.dims) + math.prod(b.dims) - overlap
    if union <= 0.0:
        return 1.0
    return overlap / union


def yaw_difference(a: Box3D, b: Box3D) -> float:
    """Smallest absolute yaw difference on the full circle, in [0, pi]."""
    delta = abs(a.yaw - b.yaw)
    return min(delta, 2.0 * math.pi - delta)


def records_to_dict(records: list[DetectionRecord]) -> dict:
    """A detection file holding ``records``, in the layout ``scene.records_from_dict`` reads."""
    return {
        "schema_version": SCHEMA_VERSION,
        "records": [dict(box_to_dict(r.box), sample_id=r.sample_id) for r in records],
    }
